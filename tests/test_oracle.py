"""Hamiltonian assembly, block evolution, and convergence sweeps."""

import math

import numpy as np
import pytest

from atomlaser.fock import (
    SqueezedInput,
    Truncation,
    TruncationError,
    TwoModeState,
    coherent_state,
    extract_moments,
    mode_moments,
    squeezed_coherent_state,
    tensor_product,
)
from atomlaser.observables import (
    SOURCE_ORACLE,
    ScenarioConfig,
    input_moments,
    moment_map_record,
)
from atomlaser.oracle import (
    build_hamiltonian,
    convergence_sweep,
    evolve,
    scenario_initial_state,
)
from atomlaser.propagator import ModelParams, propagator_at

RESONANT = ModelParams(4.0, 4.0, 1.0, 0.0)


def flat(truncation, n_b, n_a):
    return n_b * truncation.dim + n_a


def test_hamiltonian_single_excitation_block():
    tr = Truncation(1)
    h = build_hamiltonian(ModelParams(0.0, 0.0, 1.0, 0.0), tr).matrix.toarray()
    i01 = flat(tr, 0, 1)
    i10 = flat(tr, 1, 0)
    block = h[np.ix_([i01, i10], [i01, i10])]
    np.testing.assert_allclose(block, [[0.0, 1.0], [1.0, 0.0]], atol=0.0)


def test_hamiltonian_diagonal_entry():
    tr = Truncation(4)
    params = ModelParams(2.5, 1.5, 1.0, 0.0)
    h = build_hamiltonian(params, tr).matrix
    idx = flat(tr, 2, 3)
    assert h[idx, idx] == 2 * 2.5 + 3 * 1.5


def test_hamiltonian_hopping_magnitude():
    tr = Truncation(4)
    params = ModelParams(0.0, 0.0, 1.3, 0.0)
    h = build_hamiltonian(params, tr).matrix
    src = flat(tr, 0, 2)
    dst = flat(tr, 1, 1)
    assert abs(h[dst, src] - 1.3 * math.sqrt(2.0)) < 1e-15


def test_hamiltonian_exactly_hermitian():
    params = ModelParams(3.0, 2.0, 1.1, 0.7)
    h = build_hamiltonian(params, Truncation(12)).matrix
    assert (h - h.conj().T).nnz == 0


def test_hamiltonian_row_sparsity():
    h = build_hamiltonian(ModelParams(3.0, 2.0, 1.1, 0.7), Truncation(10)).matrix
    per_row = np.diff(h.indptr)
    assert per_row.max() <= 3


def test_hamiltonian_commutes_with_total_number():
    # hopping only connects states of equal n_a + n_b, so the commutator with
    # the total number operator vanishes identically, every row included
    tr = Truncation(6)
    h = build_hamiltonian(ModelParams(2.0, 1.0, 0.8, 0.4), tr).matrix
    n_b, n_a = np.divmod(np.arange(tr.two_mode_dim), tr.dim)
    from scipy.sparse import diags

    n_total = diags((n_b + n_a).astype(complex))
    comm = h @ n_total - n_total @ h
    assert abs(comm).max() == 0.0


def test_evolve_at_time_zero_returns_input():
    tr = Truncation(24)
    state0 = tensor_product(coherent_state(0j, tr), coherent_state(1.0, tr))
    h = build_hamiltonian(RESONANT, tr)
    result = evolve(state0, h, [0.0])
    np.testing.assert_allclose(result.states[0].amplitudes, state0.amplitudes, atol=1e-14)


def test_evolve_single_photon_rabi_swap():
    # one excitation: the block is [[w, w_r], [w_r, w]] with eigenvalues
    # w -/+ w_r; at w_r t = pi/2 the photon becomes an atom exactly
    tr = Truncation(3)
    amps = np.zeros(tr.two_mode_dim, dtype=complex)
    amps[flat(tr, 0, 1)] = 1.0
    state0 = TwoModeState(amps, tr)
    h = build_hamiltonian(RESONANT, tr)
    result = evolve(state0, h, [math.pi / 2])
    final = result.states[0]
    assert abs(extract_moments(final, "b").number_mean - 1.0) < 1e-12
    assert abs(abs(final.amplitudes[flat(tr, 1, 0)]) - 1.0) < 1e-12


def test_evolve_squeezed_vacuum_complete_conversion():
    cfg = ScenarioConfig(RESONANT, SqueezedInput(1.0), Truncation(64))
    state0 = scenario_initial_state(cfg)
    h = build_hamiltonian(cfg.params, cfg.truncation)
    result = evolve(state0, h, [math.pi / 2])
    rec = result.records[0]
    assert abs(rec.nb_mean - math.sinh(1.0) ** 2) < 1e-6
    assert rec.na_mean <= 1e-8
    assert rec.source == SOURCE_ORACLE


def test_evolve_conservation_and_block_invariance():
    cfg = ScenarioConfig(
        ModelParams(5.0, 3.5, 1.2, 0.9), SqueezedInput(0.8, 0.3, 0.4 - 0.2j), Truncation(64)
    )
    state0 = scenario_initial_state(cfg)
    h = build_hamiltonian(cfg.params, cfg.truncation)
    times = np.linspace(0.0, 6.0, 9)
    result = evolve(state0, h, times)
    assert result.norm_drift <= 1e-10
    assert result.ntotal_drift <= 1e-9

    # probability per n_tot block is a constant of the motion
    d = cfg.truncation.dim
    n_tot = np.add.outer(np.arange(d), np.arange(d))
    reference = None
    for state in result.states:
        prob = np.abs(state.grid()) ** 2
        block_mass = np.array(
            [prob[n_tot == k].sum() for k in range(2 * cfg.truncation.n_max + 1)]
        )
        if reference is None:
            reference = block_mass
        else:
            assert np.max(np.abs(block_mass - reference)) < 1e-12


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
        light = coherent_state(m, tr)
        state0 = tensor_product(coherent_state(0j, tr), light)
        times = np.sort(rng.uniform(0.0, 8.0, size=5))
        result = evolve(state0, build_hamiltonian(params, tr), times)
        for state, t in zip(result.states, times):
            u = propagator_at(params, float(t)).matrix
            assert abs(extract_moments(state, "b").mean_amp - u[0, 1] * m) < 1e-8
            assert abs(extract_moments(state, "a").mean_amp - u[1, 1] * m) < 1e-8


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
    a0 = mode_moments(light)
    state0 = tensor_product(coherent_state(0j, cfg.truncation), light)
    times = np.linspace(0.0, 5.0, 7)
    result = evolve(state0, build_hamiltonian(params, cfg.truncation), times)
    fields = ("na_mean", "na_var", "nb_mean", "nb_var", "s1a", "s2a", "s1b", "s2b", "ntotal")
    for rec, t in zip(result.records, times):
        map_rec = moment_map_record(cfg, float(t), a0)
        for name in fields:
            assert abs(getattr(rec, name) - getattr(map_rec, name)) < 1e-9


def test_oracle_matches_enlarged_map_at_converged_truncation():
    # with effectively exact map inputs the two sources agree within the
    # oracle's truncation tolerance
    cfg = ScenarioConfig(RESONANT, SqueezedInput(0.5, 0.0, 0.2), Truncation(64))
    a0 = input_moments(cfg.input)
    state0 = scenario_initial_state(cfg)
    times = np.linspace(0.0, 2 * math.pi, 12)
    result = evolve(state0, build_hamiltonian(cfg.params, cfg.truncation), times)
    fields = ("na_mean", "na_var", "nb_mean", "nb_var", "q_a", "q_b",
              "s1a", "s2a", "s1b", "s2b", "ntotal")
    for rec, t in zip(result.records, times):
        map_rec = moment_map_record(cfg, float(t), a0)
        for name in fields:
            got = getattr(rec, name)
            expected = getattr(map_rec, name)
            if math.isnan(got) and math.isnan(expected):
                continue
            assert abs(got - expected) < 1e-6


def test_evolve_rejects_population_in_incomplete_blocks():
    tr = Truncation(6)
    amps = np.zeros(tr.two_mode_dim, dtype=complex)
    amps[flat(tr, 6, 6)] = 1.0  # n_tot = 12 > n_max
    state0 = TwoModeState(amps, tr)
    with pytest.raises(TruncationError):
        evolve(state0, build_hamiltonian(RESONANT, tr), [0.5])


def test_evolve_validates_times():
    tr = Truncation(16)
    state0 = tensor_product(coherent_state(0j, tr), coherent_state(0.5, tr))
    h = build_hamiltonian(RESONANT, tr)
    with pytest.raises(ValueError):
        evolve(state0, h, [1.0, 0.5])
    with pytest.raises(ValueError):
        evolve(state0, h, [-1.0])


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
