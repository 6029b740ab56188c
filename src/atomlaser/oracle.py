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
held: memory is O(times * n_max).  The result is one pair of (light, atom)
moment sets whose fields are arrays over the times.  The oracle uses
neither the transfer matrix nor any closed form.
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
from .observables import InvariantViolationError, ScenarioConfig, physics_table
from .propagator import ModelParams

# a state is still reportable (with an insufficiency flag) up to this loss
PERMISSIVE_DEFICIT = 0.5


@dataclass(frozen=True)
class EvolutionResult:
    """(light, atom) mode moments with one array entry per time, plus drift diagnostics."""

    times: np.ndarray
    moments: tuple[MomentSet, MomentSet]
    norm_drift: float
    ntotal_drift: float


def _block_amplitudes(params: ModelParams, n_tot: int, coeff: complex, times) -> np.ndarray:
    """Gauged amplitudes psi[t, n_b] of block n_tot, started as coeff on (0, n_tot)."""
    nb = np.arange(n_tot + 1)
    na = n_tot - nb
    diag = params.omega0 * nb + params.omega_a * na
    off = params.omega_r * np.sqrt(na[:-1] * (nb[:-1] + 1.0))
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise InvariantViolationError(f"block n_tot = {n_tot} has entries that are not finite")
    if n_tot == 0:
        energies, modes = diag, np.ones((1, 1))
    else:
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

    light_t = MomentSet(ladders[:, 0], ladders[:, 1], numbers[:, 1], numbers[:, 2])
    atoms_t = MomentSet(ladders[:, 2], ladders[:, 3], numbers[:, 3], numbers[:, 4])
    norm_drift = float(np.max(np.abs(np.sqrt(numbers[:, 0]) - 1.0)))
    ntotal = light_t.number_mean + atoms_t.number_mean
    ntotal_drift = float(np.max(np.abs(ntotal - mode_moments(light).number_mean)))
    return EvolutionResult(times, (light_t, atoms_t), norm_drift, ntotal_drift)


@dataclass(frozen=True)
class ConvergenceEntry:
    """One cutoff of a convergence sweep."""

    n_max: int
    status: str  # "ok" or "truncation-insufficient"
    norm_deficit: float
    physics: np.ndarray | None  # (T, 11) PHYSICS_COLUMNS table


@dataclass(frozen=True)
class ConvergenceTable:
    """Observables per cutoff plus the successive inter-cutoff deltas."""

    entries: list[ConvergenceEntry]
    deltas: list[float]
    converged: bool
    delta_tol: float


def _physics_delta(previous: np.ndarray, current: np.ndarray) -> float:
    """Largest entry difference; NaN on both sides is skipped, NaN on one side is inf."""
    p_nan, c_nan = np.isnan(previous), np.isnan(current)
    if np.any(p_nan != c_nan):
        return math.inf
    return float(np.max(np.abs(previous - current), where=~p_nan, initial=0.0))


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
        physics = physics_table(*evolve(cfg.params, light, times).moments)
        entries.append(ConvergenceEntry(n_max, status, light.norm_deficit, physics))

    deltas: list[float] = []
    for prev, curr in zip(entries, entries[1:]):
        if prev.physics is None or curr.physics is None:
            deltas.append(math.inf)
        else:
            deltas.append(_physics_delta(prev.physics, curr.physics))
    final_ok = bool(entries) and entries[-1].status == "ok"
    converged = (
        final_ok and len(deltas) >= 1 and all(d <= delta_tol for d in deltas[-2:])
    )
    return ConvergenceTable(entries, deltas, converged, delta_tol)
