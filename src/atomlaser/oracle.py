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
time grid (the cutoffs of ``converge``, the inputs of ``sweep``): each
block is eigensolved and folded into unit moment sums once, and each light
scales those sums by its coefficients.  No two-mode state is held: memory is
O(times * n_max) per light, whose result is one pair of (light, atom) moment
sets with one array entry per time.  The evolution uses neither the transfer
matrix nor any closed form; ``check_oracle`` compares its result with the
moment map only afterwards, at run time.  Comparing cutoffs is the
``converge`` command's job (``cli.cmd_converge``), not this module's.

Blocks run on the times reordered: first the grid part arange(G) * times[1], whose
phases e^{-i E t} are W = isqrt(G - 1) + 1 fine offsets times ceil(G / W) coarse
starts, then the extras (verify's off-grid anchors), one exponential per energy each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import ModeVector, MomentSet, mode_moments
# unused here, but perfbench's tracer test checks that this binding is wrapped;
# drop it with that check when the benchmark next changes (ROADMAP item 2)
from .fock import squeezed_coherent_state  # noqa: F401
from .observables import InvariantViolationError, check_dynamics
from .propagator import ModelParams


@dataclass(frozen=True)
class EvolutionResult:
    """(light, atom) mode moments with one array entry per time, plus drift diagnostics."""

    moments: tuple[MomentSet, MomentSet]
    norm_drift: float
    ntotal_drift: float


def eigh_tridiagonal(diag: np.ndarray, off: np.ndarray):
    """scipy.linalg.eigh_tridiagonal, imported on the first block solve.

    Loading scipy.linalg costs about 0.2 s, more than the rest of the
    package's import; a run that solves no block (closed forms only, --help,
    a usage error) never loads it.
    """
    from scipy.linalg import eigh_tridiagonal as solve

    return solve(diag, off)


def _grid_order(times: np.ndarray) -> tuple[np.ndarray, int]:
    """(order, G): times[order[:G]] is arange(G) * times[1], order[G:] the rest in order."""
    count = len(times)
    if count < 2 or times[0] != 0.0 or not times[1] > 0.0:
        return np.arange(count), 0
    index = np.rint(np.minimum(times, count * times[1]) / times[1])  # capped before rounding
    on = np.flatnonzero(index * times[1] == times)
    grid = on[np.logical_and.accumulate(index[on] == np.arange(len(on)))]
    return np.concatenate((grid, np.delete(np.arange(count), grid))), len(grid)


def _block_phases(energies: np.ndarray, scale: np.ndarray, times: np.ndarray, grid: int):
    """scale[k] e^{-i E_k t} as a real (len(E), 2T) view; see _unit_block."""
    rows, count, width = len(energies), len(times), math.isqrt(max(grid, 1) - 1) + 1
    coarse = np.exp(-1j * np.outer(energies, times[:grid:width]))
    fine = np.exp(-1j * np.outer(energies, times[:width])) * scale[:, None]
    span = coarse.shape[1] * width  # >= grid; the extras overwrite the excess
    phases = np.empty((rows, max(span, count)), dtype=complex)
    np.multiply(coarse[:, :, None], fine[:, None, :], out=phases[:, :span].reshape(rows, -1, width))
    phases[:, grid:count] = np.exp(-1j * np.outer(energies, times[grid:])) * scale[:, None]
    return phases.view(float)[:, : 2 * count]


def _unit_block(params: ModelParams, n_tot: int, times: np.ndarray, grid: int) -> np.ndarray:
    """Gauged amplitudes u[n_b, t] of block n_tot, started as 1 on (0, n_tot).

    u = modes diag(e^{-i E t}) modes[0].  On times[:grid] = arange(grid) * times[1],
    e^{-i E t_{j W + i}} is coarse[j] fine[i], W = isqrt(grid - 1) + 1, with modes[0]
    folded into fine; each later time takes its own exponential in the same buffer.
    One real matmul of the eigenvectors with its real view yields u in place.
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
    return (modes @ _block_phases(energies, modes[0], times, grid)).view(complex)


def evolve_many(params: ModelParams, lights, times, thetas=None) -> list[EvolutionResult]:
    """Evolve exp(-iHt)(|0>_b x light) for each light; return each one's moments.

    A light only scales block n_tot by c_{n_tot}, so each block up to the
    largest cutoff is solved once, if some light populates it, and folded
    once: <c†c> and <(c†c)^2> sum over the block, <c> pairs it with block
    n_tot - 1 and <c^2> with n_tot - 2.  Each light adds these unit folds
    times |c_n|^2, conj(c_{n-1}) c_n and conj(c_{n-2}) c_n.  Blocks never read
    theta, so light i may carry its own, thetas[i] (default params.theta).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(times)) or np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("times must be finite, sorted and nonnegative")
    if not lights:
        return []
    n_top = max(light.truncation.n_max for light in lights)

    # gauge a -> e^{i theta} a: makes every block real symmetric tridiagonal
    coeffs = np.zeros((len(lights), n_top + 1), dtype=complex)
    for row, light in zip(coeffs, lights):
        row[: light.truncation.dim] = light.amplitudes
    thetas = np.full(len(lights), params.theta) if thetas is None else np.asarray(thetas)
    coeffs *= np.exp(-1j * thetas[:, None] * np.arange(n_top + 1))
    numbers = np.zeros((len(lights), 5, len(times)))  # norm^2, <n_a>, <n_a^2>, <n_b>, <n_b^2>
    ladders = np.zeros((len(lights), 2, 2, len(times)), dtype=complex)  # <a^k>, <b^k> at k - 1
    older, old = None, None  # conjugated unit blocks n_tot - 2 and n_tot - 1, if solved
    order, grid = _grid_order(times)  # every block runs on the grid part first
    for n_tot in range(n_top + 1):
        c = coeffs[:, n_tot]
        u = None
        if np.any(c):
            u = _unit_block(params, n_tot, times[order], grid)
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
    ladders[:, :, 0] *= np.exp(1j * thetas[:, None, None] * np.array([[1.0], [2.0]]))
    numbers, ladders = (sums[..., np.argsort(order)] for sums in (numbers, ladders))

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


def check_oracle(params: ModelParams, light: ModeVector, result: EvolutionResult, times):
    """Check an evolution's norm and occupation drift, and its moments against the
    moment map of its own truncated input; return that map's (light, atom) moments.
    InvariantViolationError on any failure."""
    for name, drift in (("norm", result.norm_drift), ("total-occupation", result.ntotal_drift)):
        if not drift <= 1e-9:
            raise InvariantViolationError(f"oracle {name} drift {drift:.3e} exceeds 1e-9")
    return check_dynamics(params, light, result.moments, times)

