"""Independent brute-force ground truth in the truncated two-mode Fock basis.

The coupling Hamiltonian

    H = omega0 n_b + omega_a n_a + omega_r (e^{-i theta} a b† + e^{i theta} a† b)

conserves n_a + n_b, so it splits into tridiagonal blocks of dimension
n_tot + 1.  After gauging the condensate phase out of the light mode the
blocks are real symmetric, and their eigendecompositions give the exact
evolution (within the truncated space) at every requested time.  At resonance
each block commutes with the reversal n_b <-> n_tot - n_b, a symmetry of the
matrix, and is solved as two half-size tridiagonals (``_unit_block``); at even
n_tot each half has a constant diagonal, solved by a quarter-size bidiagonal SVD (``eigh_chiral``).

The preparation is always the atom vacuum times a light state with
amplitudes c_0 .. c_{n_max}.  It populates only the complete blocks
n_tot <= n_max, and block n_tot starts on the single basis vector
(n_b = 0, n_a = n_tot) with amplitude c_{n_tot}, the light's only way in.  So
one pass over the blocks serves every light evolved under one Hamiltonian and
time grid (the cutoffs of ``converge``, the inputs of ``sweep``): each
block is eigensolved and folded into unit moment sums once, and each light
scales those sums by its coefficients.  No two-mode state is held: a pass
allocates four (n_max + 1) x T complex buffers once, the phases (also the fold's
scratch) and a ring of three blocks' amplitudes, and each light's result is one
pair of (light, atom) moment sets with one array entry per time.  The evolution
uses neither the transfer matrix nor any closed form; ``evolve_checked``, every
command's way in, compares its result with the moment map only afterwards, at
run time.  Comparing cutoffs is the ``converge`` command's job
(``cli.cmd_converge``), not this module's.

Blocks run on the times as given (``_clock``): their leading run times[k] = k * times[1]
is the grid part, whose phases e^{-i E t} are W = isqrt(G - 1) + 1 fine offsets times
ceil(G / W) coarse starts, then each later time (verify's off-grid anchors) on its own.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, replace

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


def _lapacke(name: str, *argtypes):
    """LAPACKE ``name`` (64-bit ints) in the OpenBLAS numpy loaded, or None if it has none."""
    try:
        routine = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), f"scipy_LAPACKE_{name}64_")
    except (AttributeError, OSError):
        return None
    routine.argtypes, routine.restype = [ctypes.c_int, *argtypes], ctypes.c_int64
    return routine


_INT, _PTR, _CHAR = ctypes.c_int64, ctypes.c_void_p, ctypes.c_char
_numpy_dstevd = functools.cache(lambda: _lapacke("dstevd", _CHAR, _INT, _PTR, _PTR, _PTR, _INT))
_numpy_dbdsdc = functools.cache(lambda: _lapacke("dbdsdc", _CHAR, _CHAR, _INT, _PTR, _PTR, _PTR,
                                                 _INT, _PTR, _INT, _PTR, _PTR))


def eigh_tridiagonal(diag: np.ndarray, off: np.ndarray):
    """(energies, modes) of the symmetric tridiagonal (diag, off) by LAPACK dstevd.

    dstevd (divide and conquer) is the driver scipy.linalg.eigh_tridiagonal picks
    for a full solve.  numpy's wheels link it in their scipy-openblas64, so it is
    called there, column-major into one buffer of the F-ordered modes, the energies
    and a copy of off: no run loads scipy and its second OpenBLAS.  Where numpy has
    none (MKL, a system LAPACK), scipy.linalg.lapack.dstevd is imported on the first
    solve.  Dimension 1 needs no solve.  A nonzero info is an InvariantViolationError.
    """
    n = len(diag)
    if n == 1:
        return diag, np.ones((1, 1))
    solve = _numpy_dstevd()
    if solve is None:
        from scipy.linalg.lapack import dstevd

        energies, modes, info = dstevd(diag, off)
    else:
        work = np.empty(n * (n + 2) - 1)
        modes, energies = work[: n * n].reshape(n, n, order="F"), work[n * n : n * (n + 1)]
        energies[:], work[n * (n + 1) :] = diag, off
        col_major, at = 102, work.ctypes.data
        info = solve(col_major, b"V", n, at + 8 * n * n, at + 8 * n * (n + 1), at, n)
    if info != 0:
        raise InvariantViolationError(f"LAPACK dstevd failed on a block of dimension "
                                      f"{n} (info = {info})")
    return energies, modes


def eigh_chiral(c: float, off: np.ndarray):
    """(energies, modes) of the tridiagonal with constant diagonal c, as eigh_tridiagonal's.

    Its k sites, even then odd, make it c + [[0, B], [B^T, 0]] with B lower bidiagonal
    of ceil(k / 2) rows, diagonal off[0::2] (a 0 appended for odd k) and subdiagonal
    off[1::2] (Golub and Kahan 1965).  B = U S V^T, by LAPACK dbdsdc in numpy's OpenBLAS
    (callers check _numpy_dbdsdc first), gives the energies c -+ s with modes
    (u, -+v) / sqrt 2, and for odd k the energy c with mode (u, 0) of the appended 0's
    s = 0, which dbdsdc sorts last.  A nonzero info is an InvariantViolationError.
    """
    k = len(off) + 1
    p, q = (k + 1) // 2, k // 2  # B's rows, and the pairs c -+ s
    # U, then V^T, column-major (so V row-major); B's diagonal, then S; its subdiagonal
    work, diagonal = np.zeros(2 * p * (p + 1)), 2 * p * p
    work[diagonal : diagonal + q], work[diagonal + p : -1] = off[0::2], off[1::2]
    at = work.ctypes.data
    info = _numpy_dbdsdc()(102, b"L", b"I", p, at + 8 * diagonal, at + 8 * (diagonal + p), at, p,
                           at + 8 * p * p, p, None, None)
    if info != 0:
        raise InvariantViolationError(f"LAPACK dbdsdc failed on a block of dimension "
                                      f"{k} (info = {info})")
    u, v = work[: p * p].reshape(p, p, order="F"), work[p * p : diagonal].reshape(p, p)
    sigma, half = work[diagonal : diagonal + q], math.sqrt(0.5)
    modes = np.zeros((k, k), order="F")
    modes[0::2, :q] = modes[0::2, q : 2 * q] = half * u[:, :q]
    modes[1::2, :q], modes[1::2, q : 2 * q] = -half * v[:q, :q], half * v[:q, :q]
    modes[0::2, 2 * q :] = u[:, q:]  # the mode (u, 0) of odd k
    return np.concatenate((c - sigma, c + sigma, np.full(k % 2, c))), modes


@dataclass(frozen=True)
class _Clock:
    """A pass's times in the caller's order, split once per pass by _clock."""

    count: int  # the times: their leading grid part arange(grid) * times[1], then the extras
    grid: int
    width: int  # W = isqrt(grid - 1) + 1 fine offsets
    span: int  # ceil(grid / W) W >= grid phases, whose excess past grid the extras overwrite
    stamps: np.ndarray  # the ceil(grid / W) coarse starts, the W fine offsets, the extras


def _clock(times: np.ndarray) -> _Clock:
    grid = 0
    if len(times) > 1 and times[1] > 0.0:
        with np.errstate(over="ignore"):  # k times[1] past the largest float is off the grid
            on = np.arange(len(times)) * times[1] == times
        grid = int(np.argmin(np.append(on, False)))  # the leading run on the grid
    width = math.isqrt(max(grid, 1) - 1) + 1
    stamps = np.concatenate((times[:grid:width], times[:width], times[grid:]))
    return _Clock(len(times), grid, width, -(-grid // width) * width, stamps)


def _block_phases(energies: np.ndarray, scale: np.ndarray, clock: _Clock, out):
    """Write scale[k] e^{-i E_k t} into out; return its real (len(E), 2T) view (see _unit_block)."""
    rows, width, count = len(energies), clock.width, clock.count
    starts = clock.span // width
    turns = np.exp(-1j * np.outer(energies, clock.stamps))  # one exponential per energy and stamp
    turns[:, starts:] *= scale[:, None]
    np.multiply(turns[:, :starts, None], turns[:, None, starts : starts + width],
                out=out[:, : clock.span].reshape(rows, -1, width))
    out[:, clock.grid : count] = turns[:, starts + width :]
    return out.view(float)[:, : 2 * count]


def _unit_block(params: ModelParams, n_tot: int, clock: _Clock, phases, out) -> np.ndarray:
    """Gauged amplitudes u[n_b, t] of block n_tot, started as 1 on (0, n_tot).

    u = modes diag(e^{-i E t}) modes[0] at the times as given.  On times[:grid] =
    arange(grid) * times[1], e^{-i E t_{j W + i}} is coarse[j] fine[i], W = isqrt(grid - 1) + 1,
    with modes[0] folded into fine; each later time takes its own exponential, all into
    ``phases``.  A real matmul of the eigenvectors with their real view writes u into ``out``.

    At resonance (params.resonant) each block n_tot > 0 commutes with the reversal J:
    n_b -> n_tot - n_b.  (v ± J v)/sqrt 2 splits its dimension 2m + odd into tridiagonals
    on rows :m + odd and :m: T[:m, :m] with last diagonal entry ± off[m - 1] if odd = 0,
    else T[:m + 1, :m + 1] with last off-diagonal entry sqrt 2 off[m - 1], and T[:m, :m];
    these two keep the constant diagonal, for eigh_chiral.  Each half is multiplied as above with
    scale modes[0] / 2 into A on rows :m + odd and B below; then u[:m] = A[:m] + B,
    u[mirror] = J(A[:m] - B), through the phase rows, and the middle row is sqrt 2 A[m].
    Any other block is solved whole.
    """
    nb = np.arange(n_tot + 1)
    na = n_tot - nb
    diag = params.omega0 * nb + params.omega_a * na
    off = params.omega_r * np.sqrt(na[:-1] * (nb[:-1] + 1.0))
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise InvariantViolationError(f"block n_tot = {n_tot} has entries that are not finite")
    m, odd = divmod(n_tot + 1, 2)
    if not (params.resonant and m):
        m, halves, scale = 0, [(diag, off)], 1.0
    else:
        d_even, d_odd, o_even = diag[: m + odd].copy(), diag[:m].copy(), off[: m - 1 + odd].copy()
        if odd:
            o_even[-1] *= math.sqrt(2.0)
        else:
            d_even[-1] += off[m - 1]
            d_odd[-1] -= off[m - 1]
        halves, scale = [(d_even, o_even), (d_odd, off[: m - 1])], 0.5
    chiral = m and odd and _numpy_dbdsdc() is not None  # d, e: LAPACK's names
    solved = [eigh_chiral(d[0], e) if chiral else eigh_tridiagonal(d, e) for d, e in halves]
    energies = np.concatenate([energies for energies, _ in solved])
    scales = scale * np.concatenate([modes[0] for _, modes in solved])
    real, row = _block_phases(energies, scales, clock, phases[: n_tot + 1]), 0
    for _, modes in solved:  # the halves sit in consecutive rows
        rows, row = slice(row, row + len(modes)), row + len(modes)
        np.matmul(modes, real[rows], out=out[rows])
    if m:
        a, b = out[:m], out[m + odd : n_tot + 1]
        diff = np.subtract(a, b, out=phases.view(float)[:m, : out.shape[1]])
        np.add(a, b, out=a)
        if odd:
            out[m] *= math.sqrt(2.0)
        b[::-1] = diff
    return out[: n_tot + 1].view(complex)


def evolve_many(params: ModelParams, lights, times, thetas=None) -> list[EvolutionResult]:
    """Evolve exp(-iHt)(|0>_b x light) for each light; return each one's moments.

    A light only scales block n_tot by c_{n_tot}, so each block up to the
    largest cutoff is solved once, if some light populates it, and folded
    once: <c†c> and <(c†c)^2> sum over the block, <c> pairs it with block
    n_tot - 1 and <c^2> with n_tot - 2.  Each light adds these unit folds
    times |c_n|^2, conj(c_{n-1}) c_n and conj(c_{n-2}) c_n.  Blocks never read
    theta, so light i may carry its own, thetas[i] (default params.theta).
    ``times`` come in any order, the moments in the same; a caller leads with its grid.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(times)) or np.any(times < 0):
        raise ValueError("times must be finite and nonnegative")
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
    clock = _clock(times)
    # allocated once: the phases, the fold's scratch once u is formed, and a ring of 3 blocks
    phases = np.empty((n_top + 1, max(clock.span, len(times))), dtype=complex)
    scratch, ring = phases.reshape(-1), np.empty((3, n_top + 1, 2 * len(times)))
    ends = np.empty((2, len(times)), dtype=complex)
    # built once: row j of block n_tot is n_b = j, n_a = n_tot - j, so an n_a vector is a
    # tail of the levels counted down, stored forwards (matmul leaves BLAS on a negative stride)
    up, down = np.arange(n_top + 1.0), np.arange(n_top, -1.0, -1.0)
    weights = np.stack((np.ones_like(up), down, down * down, up, up * up))  # n_a rows refilled
    falling = weights[1:3].copy()
    roots = np.sqrt(np.stack((up, up * (up - 1), down, down * (down - 1))))  # n_b rows, n_a rows
    power = coeffs.real**2 + coeffs.imag**2
    pairs = [np.conj(coeffs[:, :-k]) * coeffs[:, k:] for k in (1, 2)]  # conj(c_{n-k}) c_n
    for n_tot, populated in enumerate(np.any(coeffs, axis=0)):
        u = None
        if populated:
            u = _unit_block(params, n_tot, clock, phases, ring[n_tot % 3])
            weights[1:3, : n_tot + 1] = falling[:, n_top - n_tot :]
            density = np.abs(u, out=scratch.view(float)[: u.size].reshape(u.shape))
            np.square(density, out=density)
            numbers += power[:, n_tot, None, None] * (weights[:, : n_tot + 1] @ density)
            # a^k: (n_b, n_a - k) sits at j; b^k: (n_b - k, n_a) sits at j - k
            for k, back in ((1, old), (2, older)):
                if back is None:
                    continue
                prod = scratch[: back.size].reshape(back.shape)
                np.matmul(roots[k + 1, n_top - n_tot : n_top + 1 - k],
                          np.multiply(back, u[:-k], out=prod), out=ends[0])
                np.matmul(roots[k - 1, k : n_tot + 1], np.multiply(back, u[k:], out=prod),
                          out=ends[1])
                ladders[:, k - 1] += pairs[k - 1][:, n_tot - k, None, None] * ends
        older, old = old, None if u is None else np.conjugate(u, out=u)
    ladders[:, :, 0] *= np.exp(1j * thetas[:, None, None] * np.array([[1.0], [2.0]]))

    results = []
    for light, number, ladder in zip(lights, numbers, ladders):
        light_t = MomentSet(ladder[0, 0], ladder[1, 0], number[1], number[2])
        atoms_t = MomentSet(ladder[0, 1], ladder[1, 1], number[3], number[4])
        norm_drift = float(np.max(np.abs(np.sqrt(number[0]) - 1.0)))
        ntotal = light_t.number_mean + atoms_t.number_mean
        ntotal_drift = float(np.max(np.abs(ntotal - mode_moments(light).number_mean)))
        results.append(EvolutionResult((light_t, atoms_t), norm_drift, ntotal_drift))
    return results


def evolve_checked(runs, times):
    """Each (params, light) run's (oracle moments, moment map of its truncated input).

    Runs that differ at most in theta share one evolve_many pass.  A norm or
    occupation drift above 1e-9, or a failed check_dynamics, is an InvariantViolationError.
    """
    groups: dict[ModelParams, list[int]] = {}
    for i, (params, _) in enumerate(runs):
        groups.setdefault(replace(params, theta=0.0), []).append(i)
    checked = [None] * len(runs)
    for shared, members in groups.items():
        thetas = [runs[i][0].theta for i in members]
        results = evolve_many(shared, [runs[i][1] for i in members], times, thetas)
        for i, result in zip(members, results):
            drifts = ("norm", result.norm_drift), ("total-occupation", result.ntotal_drift)
            for name, drift in drifts:
                if not drift <= 1e-9:
                    raise InvariantViolationError(f"oracle {name} drift {drift:.3e} exceeds 1e-9")
            checked[i] = result.moments, check_dynamics(*runs[i], result.moments, times)
    return checked


# no caller in the package: perfbench's PeakAlloc probe binds it; it goes when
# that probe moves to evolve_many (ROADMAP item 2)
def evolve(params: ModelParams, light: ModeVector, times) -> EvolutionResult:
    """Evolve exp(-iHt)(|0>_b x light) and return both modes' moments at each time."""
    return evolve_many(params, [light], times)[0]
