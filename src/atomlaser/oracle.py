"""Independent brute-force ground truth in the truncated two-mode Fock basis.

The coupling Hamiltonian

    H = omega0 n_b + omega_a n_a + omega_r (e^{-i theta} a b† + e^{i theta} a† b)

conserves n_a + n_b, so it splits into tridiagonal blocks of dimension
n_tot + 1.  After gauging the condensate phase out of the light mode the
blocks are real symmetric, and one eigendecomposition per block gives the
exact evolution (within the truncated space) at every requested time.  Block
diagonalizations are mutually independent; the sequential loop below could be
parallelized without changing results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import coo_matrix, csr_matrix

from .fock import (
    DEFAULT_DEFICIT_THRESHOLD,
    DEFAULT_TAIL_THRESHOLD,
    Truncation,
    TruncationError,
    TwoModeState,
    coherent_state,
    extract_moments,
    squeezed_coherent_state,
    tensor_product,
)
from .observables import (
    SOURCE_ORACLE,
    ObservableRecord,
    ScenarioConfig,
    record_from_moments,
)
from .propagator import ModelParams

# a state is still reportable (with an insufficiency flag) up to this loss
PERMISSIVE_DEFICIT = 0.5

_DELTA_FIELDS = (
    "na_mean",
    "na_var",
    "nb_mean",
    "nb_var",
    "q_a",
    "q_b",
    "s1a",
    "s2a",
    "s1b",
    "s2b",
    "ntotal",
)


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Sparse Hermitian coupling Hamiltonian over the flat (n_b, n_a) grid."""

    matrix: csr_matrix
    params: ModelParams
    truncation: Truncation

    @property
    def dimension(self) -> int:
        return self.truncation.two_mode_dim


@dataclass(frozen=True)
class EvolutionResult:
    """States and observable records at the requested times, plus drift diagnostics."""

    times: np.ndarray
    states: list[TwoModeState]
    records: list[ObservableRecord]
    norm_drift: float
    ntotal_drift: float


def build_hamiltonian(params: ModelParams, truncation: Truncation) -> HamiltonianMatrix:
    """Assemble H explicitly: diagonal omega0 n_b + omega_a n_a, hopping
    omega_r e^{-i theta} sqrt(n_a (n_b + 1)) between (n_b, n_a) and
    (n_b+1, n_a-1), plus the conjugate.  Built symmetrically, so H = H†
    holds exactly and each row has at most three nonzero entries.
    """
    d = truncation.dim
    n_b, n_a = np.divmod(np.arange(d * d), d)
    rows = [np.arange(d * d)]
    cols = [np.arange(d * d)]
    vals = [(params.omega0 * n_b + params.omega_a * n_a).astype(complex)]

    hop_ok = (n_b < truncation.n_max) & (n_a >= 1)
    src = np.arange(d * d)[hop_ok]
    dst = src + d - 1  # (n_b+1, n_a-1)
    amp = params.omega_r * np.sqrt(n_a[hop_ok] * (n_b[hop_ok] + 1.0))
    up = amp * np.exp(-1j * params.theta)
    rows += [dst, src]
    cols += [src, dst]
    vals += [up, np.conj(up)]

    matrix = coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(d * d, d * d),
    ).tocsr()
    return HamiltonianMatrix(matrix, params, truncation)


def evolve(
    state0: TwoModeState,
    h: HamiltonianMatrix,
    times,
    boundary_threshold: float = DEFAULT_TAIL_THRESHOLD,
) -> EvolutionResult:
    """Evolve exp(-iHt)|state0> at all requested times via per-block eigensolves.

    Blocks with n_tot > n_max are incomplete (states with an occupation above
    n_max are missing), so initial probability there evolves against an
    artificial wall; if that probability exceeds ``boundary_threshold`` the
    truncation is rejected.
    """
    if state0.truncation != h.truncation:
        raise ValueError("state and Hamiltonian truncations differ")
    params = h.params
    d = state0.truncation.dim
    n_max = state0.truncation.n_max
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("times must be sorted and nonnegative")

    # gauge a -> e^{i theta} a: makes every block real symmetric tridiagonal
    gauge = np.exp(-1j * params.theta * np.arange(d))
    work = state0.grid() * gauge[None, :]

    occupations = np.arange(d)
    n_tot_grid = occupations[:, None] + occupations[None, :]
    boundary_mass = float(np.sum(np.abs(work[n_tot_grid > n_max]) ** 2))
    if boundary_mass > boundary_threshold:
        raise TruncationError(
            f"initial probability {boundary_mass:.3e} sits in incomplete blocks "
            f"(n_tot > {n_max}); increase n_max"
        )

    out = np.zeros((len(times), d, d), dtype=complex)
    for n_tot in range(0, 2 * n_max + 1):
        lo = max(0, n_tot - n_max)
        hi = min(n_tot, n_max)
        nb = np.arange(lo, hi + 1)
        na = n_tot - nb
        vec = work[nb, na]
        if not np.any(vec):
            continue
        diag = params.omega0 * nb + params.omega_a * na
        if len(nb) == 1:
            out[:, nb, na] = vec[None, :] * np.exp(-1j * diag[0] * times)[:, None]
            continue
        off = params.omega_r * np.sqrt(na[:-1] * (nb[:-1] + 1.0))
        energies, modes = eigh_tridiagonal(diag, off)
        coef = modes.T @ vec
        phases = np.exp(-1j * np.outer(times, energies))
        out[:, nb, na] = (phases * coef[None, :]) @ modes.T

    ungauge = np.conj(gauge)
    states: list[TwoModeState] = []
    records: list[ObservableRecord] = []
    for k, t in enumerate(times):
        amps = (out[k] * ungauge[None, :]).ravel()
        state = TwoModeState(amps, state0.truncation, tail_mass=state0.tail_mass)
        states.append(state)
        records.append(
            record_from_moments(
                t,
                SOURCE_ORACLE,
                extract_moments(state, "a"),
                extract_moments(state, "b"),
                n_max,
                state0.tail_mass,
            )
        )
    norm_drift = max(abs(s.norm - 1.0) for s in states)
    ntotal0 = records[0].ntotal if times[0] == 0.0 else _ntotal(state0)
    ntotal_drift = max(abs(r.ntotal - ntotal0) for r in records)
    return EvolutionResult(times, states, records, norm_drift, ntotal_drift)


def _ntotal(state: TwoModeState) -> float:
    return (
        extract_moments(state, "a").number_mean
        + extract_moments(state, "b").number_mean
    )


def scenario_initial_state(
    cfg: ScenarioConfig,
    deficit_threshold: float = DEFAULT_DEFICIT_THRESHOLD,
) -> TwoModeState:
    """Atom vacuum tensored with the configured squeezed-coherent light state."""
    light = squeezed_coherent_state(
        cfg.input, cfg.truncation, deficit_threshold=deficit_threshold
    )
    vacuum = coherent_state(0j, cfg.truncation)
    return tensor_product(vacuum, light)


@dataclass(frozen=True)
class ConvergenceEntry:
    """One cutoff of a convergence sweep."""

    n_max: int
    status: str  # "ok" or "truncation-insufficient"
    norm_deficit: float
    records: list[ObservableRecord] | None


@dataclass(frozen=True)
class ConvergenceTable:
    """Observables per cutoff plus the successive inter-cutoff deltas."""

    entries: list[ConvergenceEntry]
    deltas: list[float]
    converged: bool
    delta_tol: float


def _records_delta(
    previous: list[ObservableRecord], current: list[ObservableRecord]
) -> float:
    worst = 0.0
    for rec_p, rec_c in zip(previous, current):
        for name in _DELTA_FIELDS:
            p = getattr(rec_p, name)
            c = getattr(rec_c, name)
            if math.isnan(p) and math.isnan(c):
                continue
            if math.isnan(p) or math.isnan(c):
                return math.inf
            worst = max(worst, abs(p - c))
    return worst


def convergence_sweep(
    cfg: ScenarioConfig,
    times,
    n_max_list,
    delta_tol: float = 1e-8,
    deficit_threshold: float = DEFAULT_DEFICIT_THRESHOLD,
) -> ConvergenceTable:
    """Rebuild the input and evolve at each cutoff; deltas measure truncation error.

    Cutoffs whose norm deficit exceeds ``deficit_threshold`` are flagged
    truncation-insufficient but still reported (up to a gross loss of
    PERMISSIVE_DEFICIT) so the decay of the deltas stays observable.
    Converged means: the final cutoff is sufficient and the last two deltas
    (or the only delta) are below ``delta_tol``.  Squeezed inputs have
    geometric number tails, so 1e-8 deltas typically need n_max ~ 100 even
    for r = 1.
    """
    n_max_list = list(n_max_list)
    if any(b <= a for a, b in zip(n_max_list, n_max_list[1:])):
        raise ValueError("n_max_list must be strictly increasing")
    entries: list[ConvergenceEntry] = []
    for n_max in n_max_list:
        truncation = Truncation(n_max)
        try:
            light = squeezed_coherent_state(
                cfg.input, truncation, deficit_threshold=PERMISSIVE_DEFICIT
            )
        except TruncationError:
            entries.append(
                ConvergenceEntry(n_max, "truncation-insufficient", 1.0, None)
            )
            continue
        status = (
            "ok" if light.norm_deficit <= deficit_threshold else "truncation-insufficient"
        )
        state0 = tensor_product(coherent_state(0j, truncation), light)
        h = build_hamiltonian(cfg.params, truncation)
        result = evolve(state0, h, times)
        entries.append(
            ConvergenceEntry(n_max, status, light.norm_deficit, result.records)
        )

    deltas: list[float] = []
    for prev, curr in zip(entries, entries[1:]):
        if prev.records is None or curr.records is None:
            deltas.append(math.inf)
        else:
            deltas.append(_records_delta(prev.records, curr.records))
    final_ok = bool(entries) and entries[-1].status == "ok"
    converged = (
        final_ok and len(deltas) >= 1 and all(d <= delta_tol for d in deltas[-2:])
    )
    return ConvergenceTable(entries, deltas, converged, delta_tol)
