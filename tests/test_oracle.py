"""Block evolution against a dense reference, and convergence sweeps."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from atomlaser.fock import (
    ModeVector,
    MomentSet,
    SqueezedInput,
    Truncation,
    mode_moments,
    squeezed_coherent_state,
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
from atomlaser.oracle import convergence_sweep, evolve, evolve_many
from atomlaser.propagator import ModelParams, heisenberg_moment_map, propagator_at
from test_fock import coherent_state, ladder_matrix

RESONANT = ModelParams(4.0, 4.0, 1.0, 0.0)


def dense_reference(params, light, times):
    """(light, atom) moment arrays [<c>, <c^2>, <c†c>, <(c†c)^2>] per time from
    expm(-iHt) applied to |0>_b x light, with H built in full over the flat
    index n_b * (n_max + 1) + n_a."""
    tr = light.truncation
    lower = ladder_matrix(tr)
    eye = np.eye(tr.dim)
    a = np.kron(eye, lower)
    b = np.kron(lower, eye)
    hop = np.exp(-1j * params.theta) * a @ b.conj().T
    h = (
        params.omega0 * b.conj().T @ b
        + params.omega_a * a.conj().T @ a
        + params.omega_r * (hop + hop.conj().T)
    )
    atom_vacuum = np.zeros(tr.dim)
    atom_vacuum[0] = 1.0
    psi0 = np.kron(atom_vacuum, light.amplitudes)
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
    return ModeVector(amps / np.linalg.norm(amps), Truncation(n_max))


@pytest.mark.parametrize(
    "params, n_max",
    [
        (RESONANT, 8),
        (ModelParams(5.0, 3.0, 1.4, 0.0), 8),
        (ModelParams(4.0, 4.0, 1.0, 0.9), 6),
        (ModelParams(2.5, 6.0, 0.7, 2.3), 8),
    ],
    ids=["resonant", "detuned", "resonant-theta", "detuned-theta"],
)
def test_evolve_matches_dense_expm_reference(params, n_max):
    light = random_light(n_max, seed=n_max + int(10 * params.theta))
    times = [0.0, 0.37, 1.9, 5.2]
    reference = dense_reference(params, light, times)
    result = evolve(params, light, times)
    got = np.array(
        [[m.mean_amp, m.sq_amp, m.number_mean, m.number_sq] for m in result.moments]
    ).transpose(2, 0, 1)
    assert np.max(np.abs(got - reference)) < 1e-12


def test_evolve_at_time_zero_returns_input():
    light = coherent_state(1.0, Truncation(24))
    a, b = evolve(RESONANT, light, [0.0]).moments
    for got, want in ((a, mode_moments(light)), (b, MomentSet.vacuum())):
        assert abs(got.mean_amp[0] - want.mean_amp) < 1e-14
        assert abs(got.sq_amp[0] - want.sq_amp) < 1e-14
        assert abs(got.number_mean[0] - want.number_mean) < 1e-14
        assert abs(got.number_sq[0] - want.number_sq) < 1e-14


def test_evolve_single_photon_rabi_swap():
    # one excitation: the block is [[w, w_r], [w_r, w]] with eigenvalues
    # w -/+ w_r; at w_r t = pi/2 the photon becomes an atom exactly
    tr = Truncation(3)
    amps = np.zeros(tr.dim, dtype=complex)
    amps[1] = 1.0
    a, b = evolve(RESONANT, ModeVector(amps, tr), [math.pi / 2]).moments
    assert abs(b.number_mean[0] - 1.0) < 1e-12
    assert abs(b.number_sq[0] - 1.0) < 1e-12
    assert a.number_mean[0] < 1e-24


def test_evolve_squeezed_vacuum_complete_conversion():
    cfg = ScenarioConfig(RESONANT, SqueezedInput(1.0), Truncation(64))
    light = squeezed_coherent_state(cfg.input, cfg.truncation)
    a, b = evolve(cfg.params, light, [math.pi / 2]).moments
    assert abs(b.number_mean[0] - math.sinh(1.0) ** 2) < 1e-6
    assert a.number_mean[0] <= 1e-8


def test_evolve_conservation_and_block_invariance():
    # per-block probability is not observable from the moments; the dense
    # expm reference above checks the block structure instead
    cfg = ScenarioConfig(
        ModelParams(5.0, 3.5, 1.2, 0.9), SqueezedInput(0.8, 0.3, 0.4 - 0.2j), Truncation(64)
    )
    light = squeezed_coherent_state(cfg.input, cfg.truncation)
    result = evolve(cfg.params, light, np.linspace(0.0, 6.0, 9))
    assert result.norm_drift <= 1e-10
    assert result.ntotal_drift <= 1e-9


def test_oracle_first_moments_match_transfer_matrix_detuned():
    rng = np.random.default_rng(31)
    tr = Truncation(40)
    for _ in range(6):
        params = ModelParams(
            omega0=float(rng.uniform(0.0, 8.0)),
            omega_a=float(rng.uniform(0.0, 8.0)),
            omega_r=float(rng.uniform(0.3, 3.0)),
            theta=float(rng.uniform(0.0, 2 * math.pi)),
        )
        m = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        times = np.sort(rng.uniform(0.0, 8.0, size=5))
        a, b = evolve(params, coherent_state(m, tr), times).moments
        u = propagator_at(params, times).matrix
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
    cfg = ScenarioConfig(params, SqueezedInput(0.9, 0.2, 0.3 + 0.4j), Truncation(72))
    light = squeezed_coherent_state(cfg.input, cfg.truncation)
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
    cfg = ScenarioConfig(RESONANT, SqueezedInput(0.5, 0.0, 0.2), Truncation(64))
    light = squeezed_coherent_state(cfg.input, cfg.truncation)
    times = np.linspace(0.0, 2 * math.pi, 12)
    got = physics_table(*evolve(cfg.params, light, times).moments)
    expected = moment_map_table(cfg, times)
    assert np.array_equal(np.isnan(got), np.isnan(expected))
    assert np.nanmax(np.abs(got - expected)) < 1e-6


def test_evolve_validates_times():
    light = coherent_state(0.5, Truncation(16))
    with pytest.raises(ValueError):
        evolve(RESONANT, light, [1.0, 0.5])
    with pytest.raises(ValueError):
        evolve(RESONANT, light, [-1.0])


def test_evolve_rejects_blocks_that_are_not_finite():
    light = coherent_state(0.5, Truncation(16))
    with np.errstate(over="ignore"), pytest.raises(InvariantViolationError, match="not finite"):
        evolve(ModelParams(1e308, 1e308, 1.0), light, [0.0, 1.0])


def test_evolve_memory_stays_linear_in_times():
    # the moments stream block by block, so 2000 times at n_max = 64 need only
    # a few (times, n_max) arrays; holding every state would take 262 MB
    light = squeezed_coherent_state(SqueezedInput(1.0), Truncation(64))
    times = np.linspace(0.0, 2 * math.pi, 2000)
    tracemalloc.start()
    try:
        evolve(RESONANT, light, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


MIXED_LIGHTS = [
    # m = 0 fills the even blocks only; the others fill every block
    squeezed_coherent_state(SqueezedInput(0.8), Truncation(40)),
    squeezed_coherent_state(SqueezedInput(0.6, 0.0, 0.5 - 0.4j), Truncation(48)),
    squeezed_coherent_state(SqueezedInput(0.7, 1.1, 0.3), Truncation(56)),
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


def test_evolve_many_of_no_lights_is_empty():
    assert evolve_many(RESONANT, [], [0.0, 1.0]) == []


def sweep_cfg(r, m=0j, n_max=64):
    return ScenarioConfig(RESONANT, SqueezedInput(r, 0.0, m), Truncation(n_max))


def test_convergence_sweep_vacuum_trivial():
    times = np.linspace(0.0, 2 * math.pi, 5)
    table = convergence_sweep(sweep_cfg(0.0), times, [8, 16])
    assert table.converged
    assert all(e.status == "ok" for e in table.entries)
    assert table.deltas[0] < 1e-12


def test_convergence_sweep_coherent_converges_early():
    # Poisson tails are light: |m| = 1 is already converged at n_max = 16
    times = np.linspace(0.0, 2 * math.pi, 5)
    table = convergence_sweep(sweep_cfg(0.0, m=1.0), times, [16, 24])
    assert table.converged
    assert table.entries[0].status == "ok"


def test_convergence_sweep_moderate_squeezing():
    times = np.linspace(0.0, 2 * math.pi, 5)
    table = convergence_sweep(sweep_cfg(0.3), times, [24, 32, 48])
    assert table.converged
    assert all(d < 1e-8 for d in table.deltas[-2:])


def test_convergence_sweep_insufficient_truncation():
    times = np.linspace(0.0, 2 * math.pi, 5)
    table = convergence_sweep(sweep_cfg(2.0), times, [16, 24])
    assert not table.converged
    assert all(e.status == "truncation-insufficient" for e in table.entries)


def test_convergence_sweep_deltas_shrink_monotonically():
    times = np.linspace(0.0, 2 * math.pi, 5)
    table = convergence_sweep(sweep_cfg(1.0), times, [40, 48, 56, 64])
    assert all(b < a for a, b in zip(table.deltas, table.deltas[1:]))


def test_convergence_sweep_requires_increasing_list():
    with pytest.raises(ValueError):
        convergence_sweep(sweep_cfg(0.5), [0.0, 1.0], [32, 32])


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
    light = squeezed_coherent_state(inp, Truncation(n_max), deficit_threshold=0.5)
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
    light = squeezed_coherent_state(SqueezedInput(0.5, m=0.3), Truncation(40))
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
