"""Block evolution against a dense reference and the moment map, and the cutoff study."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from atomlaser import oracle as oracle_module
from atomlaser.cli import main
from atomlaser.fock import (
    MomentSet,
    SqueezedInput,
    mode_moments,
    squeezed_amplitudes,
    squeezed_coherent_state,
    truncation_tails,
)
from atomlaser.observables import (
    PHYSICS_COLUMNS,
    InvariantViolationError,
    ScenarioConfig,
    check_dynamics,
    moment_map_table,
    physics_table,
    squeeze_coeffs,
)
from atomlaser.oracle import (
    _block_phases,
    _clock,
    _unit_block,
    eigh_chiral,
    eigh_tridiagonal,
    evolve,
    evolve_many,
)
from atomlaser.propagator import ModelParams, heisenberg_moment_map, propagator_at
from test_fock import coherent_state, ladder_matrix

RESONANT = ModelParams(4.0, 4.0, 1.0, 0.0)
SRC = Path(__file__).resolve().parent.parent / "src"


def dense_reference(params, light, times):
    """(light, atom) moment arrays [<c>, <c^2>, <c†c>, <(c†c)^2>] per time from
    expm(-iHt) applied to |0>_b x light, with H built in full over the flat
    index n_b * (n_max + 1) + n_a."""
    lower = ladder_matrix(len(light) - 1)
    eye = np.eye(len(light))
    a = np.kron(eye, lower)
    b = np.kron(lower, eye)
    hop = np.exp(-1j * params.theta) * a @ b.conj().T
    h = (
        params.omega0 * b.conj().T @ b
        + params.omega_a * a.conj().T @ a
        + params.omega_r * (hop + hop.conj().T)
    )
    atom_vacuum = np.zeros(len(light))
    atom_vacuum[0] = 1.0
    psi0 = np.kron(atom_vacuum, light)
    out = []
    for t in times:
        psi = expm(-1j * h * t) @ psi0
        per_mode = []
        for c in (a, b):
            number = c.conj().T @ c
            per_mode.append(
                [np.vdot(psi, op @ psi) for op in (c, c @ c, number, number @ number)]
            )
        out.append(per_mode)
    return np.array(out)


def random_light(n_max, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
    return amps / np.linalg.norm(amps)


DENSE_TIMES = [0.0, 0.37, 1.9, 5.2]


@pytest.mark.parametrize(
    "params, n_max, times",
    [
        (RESONANT, 8, DENSE_TIMES),
        # an odd cutoff: the top block, of even dimension, takes one chiral solve whole
        (RESONANT, 9, DENSE_TIMES),
        # one ulp off resonance every block takes the complex path, solved whole
        (ModelParams(np.nextafter(4.0, 5.0), 4.0, 1.0, 0.0), 8, DENSE_TIMES),
        (ModelParams(5.0, 3.0, 1.4, 0.0), 8, DENSE_TIMES),
        (ModelParams(4.0, 4.0, 1.0, 0.9), 6, DENSE_TIMES),
        # resonant where omega j + omega (n - j) does not round to one constant diagonal
        (ModelParams(3.3, 3.3, 1.0, 0.0), 8, DENSE_TIMES),
        (ModelParams(2.5, 6.0, 0.7, 2.3), 8, DENSE_TIMES),
        # time sets that are no grid and start past 0 take one exponential per
        # energy and time, whose phases must be e^{-iEt}, not e^{-iE(t + t_0)}
        (ModelParams(5.0, 3.0, 1.4, 0.9), 8, [0.3, 0.7, 1.9, 2.0, 5.2]),
        (ModelParams(5.0, 3.0, 1.4, 0.9), 8, 0.5 + 0.25 * np.arange(6)),
        # a grid: the phases come by angle addition
        (ModelParams(5.0, 3.0, 1.4, 0.9), 8, 0.4 * np.arange(16)),
        # a grid, then off-grid anchors, one 1 ulp from a grid point: the blocks run on
        # the grid part, then the extras, and the moments return in the given order
        (ModelParams(5.0, 3.0, 1.4, 0.9), 8,
         np.concatenate((0.4 * np.arange(16), [np.nextafter(2.0, 3.0), 9.5, 3.1, 6.3]))),
        # the same at resonance: a light on every block, so the fold pairs real odd and
        # even blocks on the grid and at the extras
        (ModelParams(4.0, 4.0, 1.0, 0.4), 9,
         np.concatenate((0.4 * np.arange(16), [np.nextafter(2.0, 3.0), 9.5, 3.1, 6.3]))),
    ],
    ids=["resonant", "resonant-odd-cutoff", "one-ulp-detuned", "detuned", "resonant-theta",
         "resonant-3.3", "detuned-theta", "sorted-times", "shifted-grid", "grid",
         "grid-plus-anchors", "resonant-grid-plus-anchors"],
)
def test_evolve_matches_dense_expm_reference(params, n_max, times):
    light = random_light(n_max, seed=n_max + int(10 * params.theta))
    reference = dense_reference(params, light, times)
    result = evolve(params, light, times)
    got = np.array(
        [[m.mean_amp, m.sq_amp, m.number_mean, m.number_sq] for m in result.moments]
    ).transpose(2, 0, 1)
    assert np.max(np.abs(got - reference)) < 1e-12


@pytest.mark.parametrize("params", [RESONANT, ModelParams(5.0, 3.0, 1.4, 0.9)],
                         ids=["resonant", "detuned"])
def test_evolve_returns_the_moments_in_the_order_of_its_times(params):
    # a grid, then extras before its end; any permutation of these times permutes
    # the moments, though it leaves the blocks no grid part to step through
    times = np.concatenate((0.25 * np.arange(24), [0.1, 5.9, np.nextafter(2.0, 0.0), 3.3]))
    light = squeezed_coherent_state(SqueezedInput(0.6, 0.2, 0.4 - 0.3j), 40)
    order = np.random.default_rng(5).permutation(len(times))
    given = evolve(params, light, times)
    permuted = evolve(params, light, times[order])
    for got, want in zip(permuted.moments, given.moments):
        for field in dataclasses.fields(MomentSet):
            want_field = getattr(want, field.name)[order]
            assert np.max(np.abs(getattr(got, field.name) - want_field)) < 1e-13, field.name


@pytest.mark.skipif(oracle_module._numpy_dbdsdc() is None,
                    reason="numpy's LAPACK exports no scipy_LAPACKE_dbdsdc64_")
@pytest.mark.parametrize("n_tot", [*range(25), 383, 384, 448])
def test_split_block_matches_the_whole_block_solve(monkeypatch, n_tot):
    # the real R of a resonant block: one chiral solve at odd n_tot, one per reversal
    # half at even n_tot > 0, none for block 0; e^{-ict} (R_even, -i R_odd) must be the
    # evolution of the whole block by dstevd
    sizes, solve = [], oracle_module.eigh_chiral

    def sized(off):
        sizes.append(len(off) + 1)
        return solve(off)

    monkeypatch.setattr(oracle_module, "eigh_chiral", sized)
    times = 0.1 * np.arange(8)
    clock = _clock(times)
    phases = np.empty((n_tot + 1, max(clock.span, len(times))), dtype=complex)
    out = np.empty((n_tot + 1, len(times)))
    nb = np.arange(n_tot)
    off, c = np.sqrt((n_tot - nb) * (nb + 1.0)), 4.0 * n_tot  # RESONANT's block n_tot
    got = _unit_block(off, None, clock, phases, out)
    assert got.dtype == float and got.shape == (n_tot + 1, len(times))
    assert sizes == ([] if n_tot == 0 else [n_tot + 1] if n_tot % 2 else
                     [n_tot // 2 + 1, n_tot // 2])  # the even half, then the odd
    turned = np.exp(-1j * c * times) * np.where(np.arange(n_tot + 1) % 2, -1j, 1.0)[:, None] * got
    energies, modes = eigh_tridiagonal(np.full(n_tot + 1, c), off)
    want = modes @ (modes[0][:, None] * np.exp(-1j * np.outer(energies, times)))
    assert np.max(np.abs(turned - want)) < 1e-12


def solved_blocks(params, n_tots, entry="eigh_tridiagonal", chiral=True):
    """Copies of the arguments of each call of oracle.<entry> that evolve_many makes for
    a light that fills the blocks n_tots; with chiral=False numpy has no dbdsdc."""
    blocks, solve = [], getattr(oracle_module, entry)

    def recorded(*args):
        blocks.append(tuple(np.copy(arg) for arg in args))
        return solve(*args)

    n_max = max(n_tots)
    amplitudes = np.zeros(n_max + 1)
    amplitudes[list(n_tots)] = 1.0 / math.sqrt(len(n_tots))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle_module, entry, recorded)
        if not chiral:
            patch.setattr(oracle_module, "_numpy_dbdsdc", lambda: None)
        evolve_many(params, [amplitudes], np.zeros(1))
    return blocks


@pytest.mark.skipif(oracle_module._numpy_dstevd() is None,
                    reason="numpy's LAPACK exports no scipy_LAPACKE_dstevd64_")
def test_numpy_dstevd_matches_scipy_bitwise():
    from scipy.linalg.lapack import dstevd

    # resonant blocks up to 513 rows (n_tot 512), solved whole by numpy's dstevd where
    # numpy has no dbdsdc, and detuned blocks up to 300
    blocks = solved_blocks(RESONANT, [*range(1, 25), 63, 64, 127, 128, 255, 256, 383, 384,
                                      447, 448, 511, 512], chiral=False)
    blocks += solved_blocks(ModelParams(5.0, 3.0, 1.4, 0.0), [*range(1, 17), 64, 127, 128, 199,
                                                              255, 299])
    assert max(len(diag) for diag, _ in blocks) == 513
    for diag, off in blocks:
        if len(diag) == 1:  # solved without LAPACK
            continue
        want_energies, want_modes, info = dstevd(diag, off)
        energies, modes = eigh_tridiagonal(diag, off)
        assert info == 0 and modes.flags.f_contiguous
        assert np.array_equal(energies, want_energies) and np.array_equal(modes, want_modes)


@pytest.mark.skipif(oracle_module._numpy_dbdsdc() is None,
                    reason="numpy's LAPACK exports no scipy_LAPACKE_dbdsdc64_")
def test_chiral_solve_is_an_accurate_eigendecomposition():
    # every zero-diagonal tridiagonal the resonant blocks up to 512 levels solve: each odd
    # block whole, both reversal halves of each even one; B = U S V^T with U and V
    # orthogonal, and S sorted down to the 0 of an odd size
    halves = solved_blocks(RESONANT, range(1, 513), entry="eigh_chiral")
    assert len(halves) == 256 + 2 * 256 and max(len(off) + 1 for off, in halves) == 512
    for off, in halves:
        k = len(off) + 1
        p, q = (k + 1) // 2, k // 2
        sigma, u, v = eigh_chiral(off)
        assert sigma.shape == (p,) and u.shape == (p, p) and v.shape == (q, q)
        assert np.all(np.diff(sigma) <= 0) and np.all(sigma[q:] == 0.0)
        bidiagonal = np.diag(np.append(off[0::2], np.zeros(k % 2))) + np.diag(off[1::2], -1)
        v_full = np.eye(p)
        v_full[:q, :q] = v  # the odd size's appended site is its own zero mode
        residual = np.linalg.norm(u * sigma @ v_full.T - bidiagonal)
        assert residual <= 1e-13 * np.linalg.norm(bidiagonal), k
        assert np.linalg.norm(u.T @ u - np.eye(p)) <= 1e-13, k
        assert np.linalg.norm(v.T @ v - np.eye(q)) <= 1e-13, k


@pytest.mark.skipif(oracle_module._numpy_dbdsdc() is None,
                    reason="numpy's LAPACK exports no scipy_LAPACKE_dbdsdc64_")
def test_every_resonant_even_block_half_takes_the_chiral_solve():
    # no resonant block reaches dstevd: at omega = 3.3, omega j + omega (n - j) does not
    # round to one constant, yet every block is a constant diagonal plus a zero-diagonal
    # tridiagonal; the 80 odd blocks up to 160 take one chiral solve, the 80 even ones
    # two, and block 0 none
    params, blocks = ModelParams(3.3, 3.3, 1.0, 0.0), range(161)
    assert solved_blocks(params, blocks) == []
    assert len(solved_blocks(params, blocks, entry="eigh_chiral")) == 80 + 2 * 80


@pytest.mark.parametrize(
    "argv",
    [
        # 448 levels: whole blocks from dimension 385 up gave other bytes at 2 threads
        ("--r", "2"),
        # a coherent part fills the odd blocks too, whose halves take dstevd
        ("--r", "1.6", "--m-re", "1.5", "--n-max", "512"),
        # detuned blocks from dimension 385 up are solved whole by dstevd, whose bits
        # depend on the thread count: each pass runs on one thread
        ("--omega0", "5", "--r", "2"),
    ],
    ids=["vacuum-448", "coherent-512", "detuned-448"],
)
def test_oracle_output_does_not_depend_on_the_blas_thread_count(tmp_path, argv):
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(SRC)}
        out = tmp_path / f"threads-{threads}.csv"
        command = ["simulate", *argv, "--steps", "16", "--sources", "oracle", "--out", str(out)]
        subprocess.run([sys.executable, "-m", "atomlaser", *command], env=env, cwd=tmp_path,
                       capture_output=True, timeout=300, check=True)
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_each_oracle_pass_runs_on_one_blas_thread_and_restores_the_count(monkeypatch):
    get_threads, set_threads = oracle_module._numpy_threads()
    if get_threads() is None:
        pytest.skip("numpy's OpenBLAS exports no thread count")
    seen, evolve_pass = [], oracle_module.evolve_many

    def spy(*args):
        seen.append(get_threads())
        if len(seen) == 2:
            raise InvariantViolationError("a failed pass")
        return evolve_pass(*args)

    monkeypatch.setattr(oracle_module, "evolve_many", spy)
    run = (RESONANT, squeezed_coherent_state(SqueezedInput(0.5), 32))
    before = get_threads()
    set_threads(2)
    try:
        oracle_module.evolve_checked([run], [0.0, 0.5])
        assert get_threads() == 2
        with pytest.raises(InvariantViolationError, match="a failed pass"):
            oracle_module.evolve_checked([run], [0.0, 0.5])
        assert seen == [1, 1] and get_threads() == 2
    finally:
        set_threads(before)


# the eigenvalues of block 64 at omega0 = omega_a = 4, omega_r = 1.4, which are
# 256 + 1.4 (64 - 2k), and a scale in [-1, 1]
BLOCK_ENERGIES = 4.0 * 64 + 1.4 * np.arange(-64.0, 65.0, 2.0)
BLOCK_SCALE = np.cos(np.arange(len(BLOCK_ENERGIES)))


def split_phases_error(times):
    """Grid size of the split of ``times`` and the largest deviation of the split's
    phases from scale e^{-iEt}, as a share of 8 eps max|E| max(t)."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        clock = _clock(times)
        grid = clock.grid
        out = np.empty((len(BLOCK_ENERGIES), max(clock.span, len(times))), dtype=complex)
        got = _block_phases(BLOCK_ENERGIES, BLOCK_SCALE, clock, out).view(complex)
    assert np.array_equal(times[:grid], np.arange(grid) * times[1])
    want = BLOCK_SCALE[:, None] * np.exp(-1j * np.outer(BLOCK_ENERGIES, times))
    assert got.shape == want.shape
    bound = 8 * np.finfo(float).eps * np.max(np.abs(BLOCK_ENERGIES)) * np.max(times)
    return grid, np.max(np.abs(got - want)) / bound


@pytest.mark.parametrize("t_max", [2 * math.pi, 628318.0], ids=["one-turn", "long"])
@pytest.mark.parametrize("count", [2, 3, 16, 37, 2000])
def test_grid_phases_match_direct_exponentials(count, t_max):
    grid, error = split_phases_error(np.arange(count) * (t_max / count))
    assert grid == count
    assert error <= 1.0


STEP = 2 * math.pi / 200
GRID_200 = np.arange(200) * STEP


@pytest.mark.parametrize(
    "times, grid",
    [
        # verify's anchors often sit 1 ulp from a grid point (pi/4 against 25 STEP)
        (np.concatenate((GRID_200, [np.nextafter(GRID_200[25], 0.0),
                                    np.nextafter(GRID_200[50], 7.0),
                                    np.nextafter(GRID_200[199], 7.0)])), 200),
        # sorted in, an extra inside the first step is times[1]: the grid is 0 and that
        # extra, so a caller must lead with its grid
        (np.union1d(GRID_200, [STEP / 3]), 2),
        (np.concatenate((GRID_200, [STEP / 3])), 200),
        (np.concatenate((GRID_200, [200.5 * STEP, 1e3, 628318.0])), 200),
        (np.array([0.0, 1e-300, 1e6]), 2),
        (np.array([0.0, 5e-324, 1e6]), 2),
        (np.array([0.3, 0.7, 1.9]), 0),
        # a repeated time is an extra, and the grid stops at the first gap
        (np.array([0.0, STEP, STEP, 3 * STEP]), 2),
    ],
    ids=["ulp-off-grid", "inside-first-step", "inside-first-step-grid-first", "past-the-grid",
         "tiny-step", "denormal-step", "no-grid", "repeated-time"],
)
def test_grid_plus_extra_phases_match_direct_exponentials(times, grid):
    found, error = split_phases_error(times)
    assert found == grid
    assert error <= 1.0


def test_evolve_at_time_zero_returns_input():
    light = coherent_state(1.0, 24)
    a, b = evolve(RESONANT, light, [0.0]).moments
    for got, want in ((a, mode_moments(light)), (b, MomentSet(0j, 0j, 0.0, 0.0))):
        assert abs(got.mean_amp[0] - want.mean_amp) < 1e-14
        assert abs(got.sq_amp[0] - want.sq_amp) < 1e-14
        assert abs(got.number_mean[0] - want.number_mean) < 1e-14
        assert abs(got.number_sq[0] - want.number_sq) < 1e-14


def test_evolve_single_photon_rabi_swap():
    # one excitation: the block is [[w, w_r], [w_r, w]] with eigenvalues
    # w -/+ w_r; at w_r t = pi/2 the photon becomes an atom exactly
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1.0
    a, b = evolve(RESONANT, amps, [math.pi / 2]).moments
    assert abs(b.number_mean[0] - 1.0) < 1e-12
    assert abs(b.number_sq[0] - 1.0) < 1e-12
    assert a.number_mean[0] < 1e-24


def test_evolve_squeezed_vacuum_complete_conversion():
    cfg = ScenarioConfig(RESONANT, SqueezedInput(1.0), 64)
    light = squeezed_coherent_state(cfg.input, cfg.n_max)
    a, b = evolve(cfg.params, light, [math.pi / 2]).moments
    assert abs(b.number_mean[0] - math.sinh(1.0) ** 2) < 1e-6
    assert a.number_mean[0] <= 1e-8


def test_evolve_conservation_and_block_invariance():
    # per-block probability is not observable from the moments; the dense
    # expm reference above checks the block structure instead
    cfg = ScenarioConfig(
        ModelParams(5.0, 3.5, 1.2, 0.9), SqueezedInput(0.8, 0.3, 0.4 - 0.2j), 64
    )
    light = squeezed_coherent_state(cfg.input, cfg.n_max)
    result = evolve(cfg.params, light, np.linspace(0.0, 6.0, 9))
    assert result.norm_drift <= 1e-10
    assert result.ntotal_drift <= 1e-9


def test_oracle_first_moments_match_transfer_matrix_detuned():
    rng = np.random.default_rng(31)
    for _ in range(6):
        params = ModelParams(
            omega0=float(rng.uniform(0.0, 8.0)),
            omega_a=float(rng.uniform(0.0, 8.0)),
            omega_r=float(rng.uniform(0.3, 3.0)),
            theta=float(rng.uniform(0.0, 2 * math.pi)),
        )
        m = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        times = np.sort(rng.uniform(0.0, 8.0, size=5))
        a, b = evolve(params, coherent_state(m, 40), times).moments
        u = propagator_at(params, times)
        assert np.max(np.abs(b.mean_amp - u[:, 0, 1] * m)) < 1e-8
        assert np.max(np.abs(a.mean_amp - u[:, 1, 1] * m)) < 1e-8


@pytest.mark.parametrize(
    "params",
    [RESONANT, ModelParams(5.0, 3.0, 1.4, 1.1)],
    ids=["resonant", "detuned"],
)
def test_oracle_matches_moment_map_records(params):
    # same truncated input, two independent routes: the closed moment map and
    # the block evolution must agree at rounding level because the dynamics
    # never leaves the complete blocks
    cfg = ScenarioConfig(params, SqueezedInput(0.9, 0.2, 0.3 + 0.4j), 72)
    light = squeezed_coherent_state(cfg.input, cfg.n_max)
    times = np.linspace(0.0, 5.0, 7)
    oracle = physics_table(*evolve(params, light, times).moments)
    mapped = physics_table(
        *heisenberg_moment_map(propagator_at(params, times), mode_moments(light))
    )
    # every column but the Q pair, which is NaN at the vacuum atom mode
    fields = [j for j, name in enumerate(PHYSICS_COLUMNS) if name not in ("q_a", "q_b")]
    assert np.max(np.abs(oracle - mapped)[:, fields]) < 1e-9


def test_oracle_matches_enlarged_map_at_converged_truncation():
    # with effectively exact map inputs the two sources agree within the
    # oracle's truncation tolerance
    cfg = ScenarioConfig(RESONANT, SqueezedInput(0.5, 0.0, 0.2), 64)
    light = squeezed_coherent_state(cfg.input, cfg.n_max)
    times = np.linspace(0.0, 2 * math.pi, 12)
    got = physics_table(*evolve(cfg.params, light, times).moments)
    expected = moment_map_table(cfg, times)
    assert np.array_equal(np.isnan(got), np.isnan(expected))
    assert np.nanmax(np.abs(got - expected)) < 1e-6


def test_evolve_validates_times():
    light = coherent_state(0.5, 16)
    for bad in ([], [[0.0, 1.0]]):
        with pytest.raises(ValueError, match="1-d"):
            evolve(RESONANT, light, bad)
    with pytest.raises(ValueError):
        evolve(RESONANT, light, [-1.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            evolve(RESONANT, light, [0.0, bad])


def test_evolve_rejects_blocks_that_are_not_finite():
    light = coherent_state(0.5, 16)
    with np.errstate(over="ignore"), pytest.raises(InvariantViolationError, match="not finite"):
        evolve(ModelParams(1e308, 1e308, 1.0), light, [0.0, 1.0])


def evolve_peak(light, times):
    """tracemalloc peak, in bytes, of one evolve of ``light`` at ``times``."""
    tracemalloc.start()
    try:
        evolve(RESONANT, light, times)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evolve_memory_stays_linear_in_times():
    # the moments stream block by block, so 2000 times at n_max = 64 need only
    # a few (times, n_max) arrays; holding every state would take 262 MB
    times = np.linspace(0.0, 2 * math.pi, 2000)
    vacuum = squeezed_coherent_state(SqueezedInput(1.0), 64)
    assert evolve_peak(vacuum, times) < 32 * 2**20
    # a pass holds one phase buffer and a ring of three amplitude blocks, each about
    # one unit, even when every block is populated and both ladder folds run
    unit = 65 * len(times) * 16
    filled = squeezed_coherent_state(SqueezedInput(0.6, 0.0, 0.5 - 0.4j), 64)
    assert evolve_peak(filled, times) <= 4.5 * unit


MIXED_LIGHTS = [
    # m = 0 fills the even blocks only; the others fill every block
    squeezed_coherent_state(SqueezedInput(0.8), 40),
    squeezed_coherent_state(SqueezedInput(0.6, 0.0, 0.5 - 0.4j), 48),
    squeezed_coherent_state(SqueezedInput(0.7, 1.1, 0.3), 56),
]


@pytest.mark.parametrize(
    "params",
    [ModelParams(4.0, 4.0, 1.0, 0.9), ModelParams(5.0, 3.0, 1.4, 2.3)],
    ids=["resonant-theta", "detuned-theta"],
)
def test_evolve_many_matches_evolve_on_each_light(params):
    times = np.linspace(0.0, 6.0, 9)
    batch = evolve_many(params, MIXED_LIGHTS, times)
    assert len(batch) == len(MIXED_LIGHTS)
    for light, result in zip(MIXED_LIGHTS, batch):
        alone = evolve(params, light, times)
        for got, want in zip(result.moments, alone.moments):
            for field in dataclasses.fields(MomentSet):
                dev = np.abs(getattr(got, field.name) - getattr(want, field.name))
                assert np.max(dev) < 1e-13, field.name
        assert abs(result.norm_drift - alone.norm_drift) < 1e-13
        assert abs(result.ntotal_drift - alone.ntotal_drift) < 1e-13
        check_dynamics(params, light, result.moments, times)


def test_evolve_many_results_do_not_depend_on_the_light_order():
    params = ModelParams(4.0, 4.0, 1.0, 0.9)
    times = np.linspace(0.0, 6.0, 9)
    forward = evolve_many(params, MIXED_LIGHTS, times)
    backward = evolve_many(params, MIXED_LIGHTS[::-1], times)[::-1]
    for one, other in zip(forward, backward):
        assert (one.norm_drift, one.ntotal_drift) == (other.norm_drift, other.ntotal_drift)
        for got, want in zip(one.moments, other.moments):
            for field in dataclasses.fields(MomentSet):
                assert np.array_equal(getattr(got, field.name), getattr(want, field.name))


def test_evolve_many_gauges_each_light_by_its_own_theta():
    params, thetas = ModelParams(5.0, 3.0, 1.4, 0.0), [0.9, 0.0, 2.3]
    times = np.linspace(0.0, 6.0, 9)
    batch = evolve_many(params, MIXED_LIGHTS, times, thetas)
    for light, theta, result in zip(MIXED_LIGHTS, thetas, batch):
        alone = evolve(dataclasses.replace(params, theta=theta), light, times)
        assert (result.norm_drift, result.ntotal_drift) == (alone.norm_drift, alone.ntotal_drift)
        for got, want in zip(result.moments, alone.moments):
            for field in dataclasses.fields(MomentSet):
                assert np.array_equal(getattr(got, field.name), getattr(want, field.name))


def test_evolve_many_of_no_lights_is_empty():
    assert evolve_many(RESONANT, [], [0.0, 1.0]) == []


def convergence_sweep(tmp_path, *argv):
    """Run the cutoff study (cli converge) on five times; return its exit code and rows."""
    out = tmp_path / "conv.csv"
    code = main(["converge", *argv, "--steps", "5", "--out", str(out)])
    lines = out.read_text().splitlines() if out.exists() else []
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    return code, rows


def test_convergence_sweep_moderate_squeezing(tmp_path):
    code, rows = convergence_sweep(tmp_path, "--r", "0.3", "--values", "24,32,48")
    assert code == 0 and rows[-1]["status"] == "converged"
    deltas = [float(row["max_delta"]) for row in rows if row["kind"] == "delta"]
    assert len(deltas) == 2 and all(d < 1e-8 for d in deltas)


def test_convergence_sweep_insufficient_truncation(tmp_path):
    code, rows = convergence_sweep(tmp_path, "--r", "2", "--values", "16,24")
    assert code == 2 and rows[-1]["status"] == "not-converged"
    values = [row for row in rows if row["kind"] == "value"]
    assert values and all(row["status"] == "truncation-insufficient" for row in values)


def test_convergence_sweep_requires_increasing_list(tmp_path):
    code, rows = convergence_sweep(tmp_path, "--r", "0.5", "--values", "32,32")
    assert code == 1 and rows == []


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    omega0=st.floats(0.5, 10.0),
    detuning=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
    theta=st.floats(-1e3, 1e3),
    r=st.floats(0.0, 1.0),
    phi=st.floats(-math.pi, math.pi),
    m=st.complex_numbers(max_magnitude=1.0),
    n_max=st.integers(36, 44),
    times=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4),
)
def test_oracle_is_the_moment_map_of_its_truncated_input(
    omega0, detuning, theta, r, phi, m, n_max, times
):
    # every block n_tot <= n_max is complete, so at any scenario and cutoff
    # the oracle evolves its truncated input exactly: it conserves norm and
    # occupation, obeys the uncertainty relation, and equals the moment map
    params = ModelParams(omega0, omega0 + detuning, 1.0, theta)
    inp = SqueezedInput(r, phi, m)
    amps = squeezed_amplitudes(inp, n_max)
    light = amps / math.sqrt(1.0 - truncation_tails(amps)[-1])
    times = np.sort(times)
    result = evolve(params, light, times)
    check_dynamics(params, light, result.moments, times)
    for moments in result.moments:
        s1, s2 = squeeze_coeffs(moments)
        assert np.all((s1 + 1.0) * (s2 + 1.0) >= 1.0 - 1e-9)
    assert result.norm_drift <= 1e-9
    assert result.ntotal_drift <= 1e-9


@pytest.mark.parametrize("field, value", [("number_sq", 1e-6), ("mean_amp", math.nan)])
def test_check_dynamics_names_the_mode_the_moment_and_the_time(field, value):
    light = squeezed_coherent_state(SqueezedInput(0.5, m=0.3), 40)
    times = np.linspace(0.0, 2.0, 5)
    params = ModelParams(4.0, 4.0, 1.0, 0.7)
    light_t, atom_t = evolve(params, light, times).moments
    mapped = check_dynamics(params, light, (light_t, atom_t), times)
    assert np.allclose(mapped[1].number_mean, atom_t.number_mean, rtol=0, atol=1e-12)
    shifted = np.array(getattr(light_t, field))
    shifted[3] += value
    with pytest.raises(InvariantViolationError, match=f"light {field} .* at t = 1.5"):
        faulty = dataclasses.replace(light_t, **{field: shifted})
        check_dynamics(params, light, (faulty, atom_t), times)
