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
(n_b = 0, n_a = n_tot) with amplitude c_{n_tot}, the light's only way in.  So
one pass over the blocks serves every light evolved under one Hamiltonian and
time grid (the cutoffs of a convergence sweep, the inputs of a sweep): each
block is eigensolved and folded into unit moment sums once, and each light
scales those sums by its coefficients.  No two-mode state is held: memory is
O(times * n_max) per light, whose result is one pair of (light, atom) moment
sets with one array entry per time.  The oracle uses neither the transfer
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
from .observables import InvariantViolationError, ScenarioConfig, physics_table
from .propagator import ModelParams

# a state is still reportable (with an insufficiency flag) up to this loss
PERMISSIVE_DEFICIT = 0.5


@dataclass(frozen=True)
class EvolutionResult:
    """(light, atom) mode moments with one array entry per time, plus drift diagnostics."""

    moments: tuple[MomentSet, MomentSet]
    norm_drift: float
    ntotal_drift: float


def _unit_block(params: ModelParams, n_tot: int, times: np.ndarray) -> np.ndarray:
    """Gauged amplitudes u[n_b, t] of block n_tot, started as 1 on (0, n_tot).

    u = modes diag(e^{-i E t}) modes[0].  The cosines and sines of E t, scaled
    by modes[0], are interleaved in one real (n_tot + 1, 2T) array, so one real
    matmul with the eigenvectors yields u as complex numbers in place.
    """
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
    waves = np.empty((n_tot + 1, len(times), 2))
    angles = np.outer(energies, times)
    np.cos(angles, out=waves[:, :, 0])
    np.sin(angles, out=waves[:, :, 1])
    waves *= modes[0][:, None, None] * np.array([1.0, -1.0])
    return (modes @ waves.reshape(n_tot + 1, -1)).view(complex)


def evolve_many(params: ModelParams, lights, times) -> list[EvolutionResult]:
    """Evolve exp(-iHt)(|0>_b x light) for each light; return each one's moments.

    A light only scales block n_tot by c_{n_tot}, so each block up to the
    largest cutoff is solved once, if some light populates it, and folded
    once: <c†c> and <(c†c)^2> sum over the block, <c> pairs it with block
    n_tot - 1 and <c^2> with n_tot - 2.  Each light adds these unit folds
    times |c_n|^2, conj(c_{n-1}) c_n and conj(c_{n-2}) c_n.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("times must be sorted and nonnegative")
    if not lights:
        return []
    n_top = max(light.truncation.n_max for light in lights)

    # gauge a -> e^{i theta} a: makes every block real symmetric tridiagonal
    coeffs = np.zeros((len(lights), n_top + 1), dtype=complex)
    for row, light in zip(coeffs, lights):
        row[: light.truncation.dim] = light.amplitudes
    coeffs *= np.exp(-1j * params.theta * np.arange(n_top + 1))
    numbers = np.zeros((len(lights), 5, len(times)))  # norm^2, <n_a>, <n_a^2>, <n_b>, <n_b^2>
    ladders = np.zeros((len(lights), 2, 2, len(times)), dtype=complex)  # <a^k>, <b^k> at k - 1
    older, old = None, None  # conjugated unit blocks n_tot - 2 and n_tot - 1, if solved
    for n_tot in range(n_top + 1):
        c = coeffs[:, n_tot]
        u = None
        if np.any(c):
            u = _unit_block(params, n_tot, times)
            nb = np.arange(n_tot + 1.0)  # row j of the block is n_b
            na = n_tot - nb
            weights = np.stack((np.ones_like(nb), na, na * na, nb, nb * nb))
            numbers += (c.real**2 + c.imag**2)[:, None, None] * (weights @ np.abs(u) ** 2)
            # a^k: (n_b, n_a - k) sits at j; b^k: (n_b - k, n_a) sits at j - k
            for k, back, fa, fb in ((1, old, na, nb), (2, older, na * (na - 1), nb * (nb - 1))):
                if back is None:
                    continue
                ends = np.sqrt(fa[:-k]) @ (back * u[:-k]), np.sqrt(fb[k:]) @ (back * u[k:])
                pair = np.conj(coeffs[:, n_tot - k]) * c
                ladders[:, k - 1] += pair[:, None, None] * np.stack(ends)
        older, old = old, None if u is None else np.conj(u)
    ladders[:, :, 0] *= np.exp(1j * params.theta * np.array([[1.0], [2.0]]))

    results = []
    for light, number, ladder in zip(lights, numbers, ladders):
        light_t = MomentSet(ladder[0, 0], ladder[1, 0], number[1], number[2])
        atoms_t = MomentSet(ladder[0, 1], ladder[1, 1], number[3], number[4])
        norm_drift = float(np.max(np.abs(np.sqrt(number[0]) - 1.0)))
        ntotal = light_t.number_mean + atoms_t.number_mean
        ntotal_drift = float(np.max(np.abs(ntotal - mode_moments(light).number_mean)))
        results.append(EvolutionResult((light_t, atoms_t), norm_drift, ntotal_drift))
    return results


def evolve(params: ModelParams, light: ModeVector, times) -> EvolutionResult:
    """Evolve exp(-iHt)(|0>_b x light) and return both modes' moments at each time."""
    return evolve_many(params, [light], times)[0]


@dataclass(frozen=True)
class ConvergenceEntry:
    """One cutoff of a convergence sweep."""

    n_max: int
    status: str  # "ok" or "truncation-insufficient"
    light: ModeVector | None  # the truncated input; None past a gross loss
    result: EvolutionResult | None
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
    """Rebuild the input at each cutoff and evolve them all in one pass; deltas
    measure truncation error.

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
    lights = {}
    for n_max in n_max_list:
        try:
            lights[n_max] = squeezed_coherent_state(
                cfg.input, Truncation(n_max), deficit_threshold=PERMISSIVE_DEFICIT
            )
        except TruncationError:
            pass
    results = dict(zip(lights, evolve_many(cfg.params, list(lights.values()), times)))
    entries: list[ConvergenceEntry] = []
    for n_max in n_max_list:
        light, result = lights.get(n_max), results.get(n_max)
        ok = light is not None and light.norm_deficit <= deficit_threshold
        physics = None if result is None else physics_table(*result.moments)
        status = "ok" if ok else "truncation-insufficient"
        entries.append(ConvergenceEntry(n_max, status, light, result, physics))

    deltas = [
        math.inf if p.physics is None or c.physics is None else _physics_delta(p.physics, c.physics)
        for p, c in zip(entries, entries[1:])
    ]
    final_ok = bool(entries) and entries[-1].status == "ok"
    converged = final_ok and len(deltas) >= 1 and all(d <= delta_tol for d in deltas[-2:])
    return ConvergenceTable(entries, deltas, converged, delta_tol)
