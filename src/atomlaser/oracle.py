"""Independent brute-force ground truth in the truncated two-mode Fock basis.

The coupling Hamiltonian

    H = omega0 n_b + omega_a n_a + omega_r (e^{-i theta} a b† + e^{i theta} a† b)

conserves n_a + n_b, so it splits into tridiagonal blocks of dimension
n_tot + 1.  After gauging the condensate phase out of the light mode the
blocks are real symmetric, and one eigendecomposition per block gives the
exact evolution (within the truncated space) at every requested time.

The preparation is always the atom vacuum times a light state with
amplitudes c_0 .. c_{n_max}.  It populates only the complete blocks
n_tot <= n_max, and block n_tot starts on the single basis vector
(n_b = 0, n_a = n_tot) with amplitude c_{n_tot}.  The blocks are evolved one
at a time and folded into per-time moment sums, so no two-mode state is ever
held: memory is O(times * n_max).  The oracle uses neither the transfer
matrix nor any closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .fock import (
    DEFAULT_DEFICIT_THRESHOLD,
    ModeVector,
    MomentSet,
    Truncation,
    TruncationError,
    mode_moments,
    squeezed_coherent_state,
)
from .observables import (
    PHYSICS_COLUMNS,
    SOURCE_ORACLE,
    ObservableRecord,
    ScenarioConfig,
    record_from_moments,
)
from .propagator import ModelParams

# a state is still reportable (with an insufficiency flag) up to this loss
PERMISSIVE_DEFICIT = 0.5


@dataclass(frozen=True)
class EvolutionResult:
    """Per-time (light, atom) mode moments and records, plus drift diagnostics."""

    times: np.ndarray
    moments: list[tuple[MomentSet, MomentSet]]
    records: list[ObservableRecord]
    norm_drift: float
    ntotal_drift: float


def _block_amplitudes(params: ModelParams, n_tot: int, coeff: complex, times) -> np.ndarray:
    """Gauged amplitudes psi[t, n_b] of block n_tot, started as coeff on (0, n_tot)."""
    nb = np.arange(n_tot + 1)
    na = n_tot - nb
    diag = params.omega0 * nb + params.omega_a * na
    if n_tot == 0:
        energies, modes = diag, np.ones((1, 1))
    else:
        off = params.omega_r * np.sqrt(na[:-1] * (nb[:-1] + 1.0))
        energies, modes = eigh_tridiagonal(diag, off)
    phases = np.exp(-1j * np.outer(times, energies))
    return (phases * (coeff * modes[0])) @ modes.T


def evolve(params: ModelParams, light: ModeVector, times) -> EvolutionResult:
    """Evolve exp(-iHt)(|0>_b x light) and return both modes' moments at each time.

    <c†c> and <(c†c)^2> are sums over one block.  <c> pairs block n_tot with
    n_tot - 1 and <c^2> pairs it with n_tot - 2, so only the last two blocks
    are kept.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("times must be sorted and nonnegative")
    n_max = light.truncation.n_max

    # gauge a -> e^{i theta} a: makes every block real symmetric tridiagonal
    coeffs = light.amplitudes * np.exp(-1j * params.theta * np.arange(n_max + 1))
    numbers = np.zeros((len(times), 5))  # norm^2, <n_a>, <n_a^2>, <n_b>, <n_b^2>
    ladders = np.zeros((len(times), 4), dtype=complex)  # <a>, <a^2>, <b>, <b^2>
    older, old = None, None  # blocks n_tot - 2 and n_tot - 1; None when empty
    for n_tot in range(n_max + 1):
        psi = None
        if coeffs[n_tot]:
            psi = _block_amplitudes(params, n_tot, coeffs[n_tot], times)
            nb = np.arange(n_tot + 1.0)  # index j of the block is n_b
            na = n_tot - nb
            weights = np.stack((np.ones_like(nb), na, na * na, nb, nb * nb), axis=1)
            numbers += (np.abs(psi) ** 2) @ weights
            if old is not None:
                # a: (n_b, n_a - 1) sits at j; b: (n_b - 1, n_a) sits at j - 1
                ladders[:, 0] += (np.conj(old) * psi[:, :-1]) @ np.sqrt(na[:-1])
                ladders[:, 2] += (np.conj(old) * psi[:, 1:]) @ np.sqrt(nb[1:])
            if older is not None:
                ladders[:, 1] += (np.conj(older) * psi[:, :-2]) @ np.sqrt(na * (na - 1.0))[:-2]
                ladders[:, 3] += (np.conj(older) * psi[:, 2:]) @ np.sqrt(nb * (nb - 1.0))[2:]
        older, old = old, psi
    ladders[:, 0] *= np.exp(1j * params.theta)
    ladders[:, 1] *= np.exp(2j * params.theta)

    moments = [
        (MomentSet(a, a2, na1, na2), MomentSet(b, b2, nb1, nb2))
        for (a, a2, b, b2), (_, na1, na2, nb1, nb2) in zip(
            ladders.tolist(), numbers.tolist()
        )
    ]
    records = [
        record_from_moments(t, SOURCE_ORACLE, a, b, n_max, light.tail_mass)
        for t, (a, b) in zip(times, moments)
    ]
    norm_drift = float(np.max(np.abs(np.sqrt(numbers[:, 0]) - 1.0)))
    ntotal0 = mode_moments(light).number_mean
    ntotal_drift = max(abs(rec.ntotal - ntotal0) for rec in records)
    return EvolutionResult(times, moments, records, norm_drift, ntotal_drift)


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
        for name in PHYSICS_COLUMNS:
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
        result = evolve(cfg.params, light, times)
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
