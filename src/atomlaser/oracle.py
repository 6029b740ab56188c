"""Independent brute-force ground truth in the truncated two-mode Fock basis.

The coupling Hamiltonian

    H = omega0 n_b + omega_a n_a + omega_r (e^{-i theta} a b† + e^{i theta} a† b)

conserves n_a + n_b, so it splits into tridiagonal blocks of dimension
n_tot + 1.  After gauging the condensate phase out of the light mode the
blocks are real symmetric, and their eigendecompositions give the exact
evolution (within the truncated space) at every requested time.  At resonance
each block is c + A with c = omega_a n_tot and A of zero diagonal, coupling even
n_b only to odd n_b.  So its amplitudes are e^{-ict} (R_even, -i R_odd) with R
real, from the bidiagonal SVD of A's coupling (``eigh_chiral``): one solve of
half the size at odd n_tot, and at even n_tot one of a quarter of the size for
each half of the reversal n_b <-> n_tot - n_b, a symmetry of the matrix
(``_unit_block``).  The fold then runs in real arithmetic and applies e^{-ict}
once per pass.  Detuned blocks, and resonant ones where numpy has no dbdsdc,
are solved whole in complex arithmetic.

The preparation is always the atom vacuum times a light, the array of its
amplitudes c_0 .. c_{n_max}.  It populates only the complete blocks
n_tot <= n_max, and block n_tot starts on the single basis vector
(n_b = 0, n_a = n_tot) with amplitude c_{n_tot}, the light's only way in.  So
one pass over the blocks serves every light evolved under one Hamiltonian and
time grid (the cutoffs of ``converge``, the inputs of ``sweep``): each
block is eigensolved and folded into unit moment sums once, and each light
scales those sums by its coefficients.  No two-mode state is held: a pass
allocates one (n_max + 1) x T complex buffer once, the phases (also the fold's
scratch), and a ring of three blocks' amplitudes, each (n_max + 1) x T and
real at resonance, complex off it; each light's result is one
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

from .fock import MomentSet, mode_moments
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


def _numpy_export(name: str, restype, *argtypes):
    """scipy_``name``64_ in the OpenBLAS numpy loaded, or None if it has none."""
    try:
        routine = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), f"scipy_{name}64_")
    except (AttributeError, OSError):
        return None
    routine.argtypes, routine.restype = argtypes, restype
    return routine


# LAPACKE drivers, the layout first, and OpenBLAS's thread count (no-ops where numpy has none)
_INT, _PTR, _CHAR, _C_INT = ctypes.c_int64, ctypes.c_void_p, ctypes.c_char, ctypes.c_int
_numpy_dstevd = functools.cache(lambda: _numpy_export("LAPACKE_dstevd", _INT, _C_INT, _CHAR, _INT,
                                                      _PTR, _PTR, _PTR, _INT))
_numpy_dbdsdc = functools.cache(lambda: _numpy_export("LAPACKE_dbdsdc", _INT, _C_INT, _CHAR, _CHAR,
                                                      _INT, _PTR, _PTR, _PTR, _INT, _PTR, _INT,
                                                      _PTR, _PTR))
_numpy_threads = functools.cache(lambda: (
    _numpy_export("openblas_get_num_threads", _C_INT) or (lambda: None),
    _numpy_export("openblas_set_num_threads", None, _C_INT) or (lambda count: None)))


def eigh_tridiagonal(diag: np.ndarray, off: np.ndarray):
    """(energies, modes) of the symmetric tridiagonal (diag, off) by LAPACK dstevd.

    dstevd (divide and conquer) is the driver scipy.linalg.eigh_tridiagonal picks
    for a full solve.  numpy's wheels link it in their scipy-openblas64, so it is
    called there, column-major into one buffer of the F-ordered modes, the energies
    and a copy of off: no run loads scipy and its second OpenBLAS.  Where numpy has
    none (MKL, a system LAPACK), numpy's eigh solves the dense block.  Dimension 1
    needs no solve.  A failed solve is an InvariantViolationError.
    """
    n = len(diag)
    if n == 1:
        return diag, np.ones((1, 1))
    solve = _numpy_dstevd()
    if solve is None:  # eigh reads the lower triangle
        try:
            return np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
        except np.linalg.LinAlgError as exc:
            raise InvariantViolationError(f"eigh failed on a block of size {n}: {exc}") from exc
    work = np.empty(n * (n + 2) - 1)
    modes, energies = work[: n * n].reshape(n, n, order="F"), work[n * n : n * (n + 1)]
    energies[:], work[n * (n + 1) :] = diag, off
    col_major, at = 102, work.ctypes.data
    info = solve(col_major, b"V", n, at + 8 * n * n, at + 8 * n * (n + 1), at, n)
    if info != 0:
        raise InvariantViolationError(f"LAPACK dstevd failed on a block of dimension "
                                      f"{n} (info = {info})")
    return energies, modes


def eigh_chiral(off: np.ndarray):
    """(S, U, V) of the tridiagonal of zero diagonal and off-diagonal off as a bidiagonal SVD.

    Its k sites, even then odd, make it [[0, B], [B^T, 0]] with B lower bidiagonal of
    p = ceil(k / 2) rows, diagonal off[0::2] (a 0 appended for odd k) and subdiagonal
    off[1::2] (Golub and Kahan 1965).  B = U S V^T by LAPACK dbdsdc in numpy's OpenBLAS
    (callers check _numpy_dbdsdc first).  Returns the p singular values, of which the
    appended 0's, sorted last by dbdsdc, is set to exactly 0; U, p x p; and V on the
    k // 2 odd sites and their nonzero singular values.  A nonzero info is an
    InvariantViolationError.
    """
    k = len(off) + 1
    p, q = (k + 1) // 2, k // 2  # B's rows, and the odd sites
    # U, then V^T, column-major (so V row-major); B's diagonal, then S; its subdiagonal
    work, diagonal = np.zeros(2 * p * (p + 1)), 2 * p * p
    work[diagonal : diagonal + q], work[diagonal + p : -1] = off[0::2], off[1::2]
    at = work.ctypes.data
    info = _numpy_dbdsdc()(102, b"L", b"I", p, at + 8 * diagonal, at + 8 * (diagonal + p), at, p,
                           at + 8 * p * p, p, None, None)
    if info != 0:
        raise InvariantViolationError(f"LAPACK dbdsdc failed on a block of dimension "
                                      f"{k} (info = {info})")
    sigma, u = work[diagonal : diagonal + p], work[: p * p].reshape(p, p, order="F")
    sigma[q:] = 0.0
    return sigma, u, work[p * p : diagonal].reshape(p, p)[:q, :q]


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
    """Write scale[k] e^{-i E_k t} into out; return its real (len(E), 2T) view (see _unit_block).

    On times[:grid] = arange(grid) * times[1], e^{-i E t_{j W + i}} is coarse[j] fine[i],
    W = isqrt(grid - 1) + 1, with scale folded into fine; each later time takes its own
    exponential.  A phase that is not finite is an InvariantViolationError.
    """
    rows, width, count = len(energies), clock.width, clock.count
    starts = clock.span // width
    turns = np.exp(-1j * np.outer(energies, clock.stamps))  # one exponential per energy and stamp
    if not np.isfinite(turns.sum()):  # a sum of finite unit phases is finite
        raise InvariantViolationError("oracle block phases e^{-iEt} are not finite")
    turns[:, starts:] *= scale[:, None]
    np.multiply(turns[:, :starts, None], turns[:, None, starts : starts + width],
                out=out[:, : clock.span].reshape(rows, -1, width))
    out[:, clock.grid : count] = turns[:, starts + width :]
    return out.view(float)[:, : 2 * count]


def _chiral_rows(parts, clock: _Clock, phases) -> None:
    """For each (off, scale, even, odd) of parts, write R of the zero-diagonal tridiagonal
    off, started as scale on row 0, into its even rows ``even`` and odd rows ``odd``.

    With eigh_chiral's B = U S V^T, e^{-iAt} e_0 is (R_even, -i R_odd): R_even =
    U diag(scale U[0]) cos(S t) and R_odd = V diag(scale U[0]) sin(S t).  One e^{iSt} per
    singular value of all parts, in one _block_phases call, gives both; each part's cosines
    and sines are copied apart into the phase rows past them, for two real matmuls.
    """
    solved = [eigh_chiral(off) for off, *_ in parts]
    sigma = np.concatenate([s for s, _, _ in solved])
    scales = np.concatenate([scale * u[0] for (_, u, _), (_, scale, *_) in zip(solved, parts)])
    turns = _block_phases(-sigma, scales, clock, phases[: len(sigma)])  # cos, sin interleaved
    trig, count, row = phases[len(sigma) :].view(float).reshape(-1), clock.count, 0
    for (s, u, v), (_, _, even, odd) in zip(solved, parts):
        p, q = len(s), len(v)
        cos_sin = trig[: (p + q) * count].reshape(p + q, count)
        np.copyto(cos_sin[:p], turns[row : row + p, 0::2])
        np.copyto(cos_sin[p:], turns[row : row + q, 1::2])
        np.matmul(u, cos_sin[:p], out=even)
        np.matmul(v, cos_sin[p:], out=odd)
        row += p


def _unit_block(off: np.ndarray, diag, clock: _Clock, phases, out) -> np.ndarray:
    """Amplitudes of the block with off-diagonal off, started as 1 on its row 0 (n_b = 0).

    With a diagonal ``diag``, the complex u = modes diag(e^{-i E t}) modes[0] at the times
    as given: dstevd's modes times the real view of the phases (_block_phases), written
    into ``out``, (rows, 2T), and returned as its complex view.

    With diag None the diagonal is a constant c (a resonant block), so the block is c + A
    with A of zero diagonal, and u = e^{-ict} (R_even, -i R_odd): the real R is written
    into ``out``, (rows, T), and returned; the fold applies the phases.  Block 0 is R = 1.
    Of dimension 2m the block is solved whole (_chiral_rows).  Of dimension 2m + 1 it
    commutes with the reversal J: n_b -> n_tot - n_b, and (v ± J v)/sqrt 2 splits it into
    zero-diagonal tridiagonals on rows :m + 1, whose last off-diagonal entry is
    sqrt 2 off[m - 1], and :m.  Each half's R, started as 1/2, goes to rows :m + 1 (A)
    and below (B); then R[:m] = A[:m] + B, R[mirror] = J(A[:m] - B) through the phase
    rows, and the middle row is sqrt 2 A[m] (rows n_b and n_tot - n_b share a parity).
    """
    k = len(off) + 1
    if diag is not None:
        energies, modes = eigh_tridiagonal(diag, off)
        np.matmul(modes, _block_phases(energies, modes[0], clock, phases[:k]), out=out[:k])
        return out[:k].view(complex)
    m, odd = divmod(k, 2)
    if k == 1:
        out[0] = 1.0
    elif not odd:
        _chiral_rows([(off, 1.0, out[0:k:2], out[1:k:2])], clock, phases)
    else:
        top = off[:m].copy()
        top[-1] *= math.sqrt(2.0)
        _chiral_rows([(top, 0.5, out[0 : m + 1 : 2], out[1 : m + 1 : 2]),
                      (off[: m - 1], 0.5, out[m + 1 : k : 2], out[m + 2 : k : 2])], clock, phases)
        a, b = out[:m], out[m + 1 : k]
        diff = np.subtract(a, b, out=phases.view(float).reshape(-1)[: a.size].reshape(a.shape))
        np.add(a, b, out=a)
        out[m] *= math.sqrt(2.0)
        b[::-1] = diff
    return out[:k]


def evolve_many(params: ModelParams, lights, times, thetas=None) -> list[EvolutionResult]:
    """Evolve exp(-iHt)(|0>_b x light) for each light; return each one's moments.

    Each light is an amplitude array c_0 .. c_{n_max}, its cutoff len(light) - 1.
    A light only scales block n_tot by c_{n_tot}, so each block up to the
    largest cutoff is solved once, if some light populates it, and folded
    once: <c†c> and <(c†c)^2> sum over the block, <c> pairs it with block
    n_tot - 1 and <c^2> with n_tot - 2.  Each light adds these unit folds
    times |c_n|^2, conj(c_{n-1}) c_n and conj(c_{n-2}) c_n.  Blocks never read
    theta, so light i may carry its own, thetas[i] (default params.theta).
    ``times`` come in any order, the moments in the same; a caller leads with its grid.

    At resonance, where numpy's LAPACK has dbdsdc, the blocks are real R (_unit_block)
    and the fold is real: the density is R^2, and the a^k and b^k sums turn by
    e^{-i(c_n - c_{n-k})t} = e^{-ik omega_a t} once per pass, <b> also by
    conj((-i)^{j mod 2}) (-i)^{(j + 1) mod 2} = -i (-1)^j on n_b = j + 1 (the sign in
    the roots row).  A block entry or phase that is not finite is an InvariantViolationError.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(times)) or np.any(times < 0):
        raise ValueError("times must be finite and nonnegative")
    if not lights:
        return []
    n_top = max(len(light) for light in lights) - 1
    real = params.resonant and _numpy_dbdsdc() is not None

    # gauge a -> e^{i theta} a: makes every block real symmetric tridiagonal
    coeffs = np.zeros((len(lights), n_top + 1), dtype=complex)
    for row, light in zip(coeffs, lights):
        row[: len(light)] = light
    thetas = np.full(len(lights), params.theta) if thetas is None else np.asarray(thetas)
    coeffs *= np.exp(-1j * thetas[:, None] * np.arange(n_top + 1))
    numbers = np.zeros((len(lights), 5, len(times)))  # norm^2, <n_a>, <n_a^2>, <n_b>, <n_b^2>
    ladders = np.zeros((len(lights), 2, 2, len(times)), dtype=complex)  # <a^k>, <b^k> at k - 1
    older, old = None, None  # unit blocks n_tot - 2 and n_tot - 1 (conjugated), if solved
    clock = _clock(times)
    # allocated once: the phases, the fold's scratch once u is formed, and a ring of 3 blocks
    phases = np.empty((n_top + 1, max(clock.span, len(times))), dtype=complex)
    scratch, ring = phases.reshape(-1), np.empty((3, n_top + 1, (1 if real else 2) * len(times)))
    ends = np.empty((2, len(times)), dtype=float if real else complex)
    # built once: row j of block n_tot is n_b = j, n_a = n_tot - j, so an n_a vector is a
    # tail of the levels counted down, stored forwards (matmul leaves BLAS on a negative stride)
    up, down = np.arange(n_top + 1.0), np.arange(n_top, -1.0, -1.0)
    # block n_tot's diagonal is levels[0, :n_tot + 1] + levels[1, n_top - n_tot:]; block
    # n_top's entries bound every other block's
    levels = np.stack((params.omega0 * up, params.omega_a * down))
    if not (np.all(np.isfinite(levels[0] + levels[1]))
            and np.all(np.isfinite(params.omega_r * np.sqrt(down[:-1] * up[1:])))):
        raise InvariantViolationError(f"block n_tot = {n_top} has entries that are not finite")
    weights = np.stack((np.ones_like(up), down, down * down, up, up * up))  # n_a rows refilled
    falling = weights[1:3].copy()
    roots = np.sqrt(np.stack((up, up * (up - 1), down, down * (down - 1))))  # n_b rows, n_a rows
    if real:
        roots[0, 0::2] *= -1.0  # <b>'s (-1)^{n_b + 1}
        turn = np.exp(-1j * params.omega_a * np.outer([1.0, 2.0], times))  # e^{-ik omega_a t}
        if not np.all(np.isfinite(turn)):
            raise InvariantViolationError("oracle ladder phases e^{-ik omega_a t} are not finite")
    power = coeffs.real**2 + coeffs.imag**2
    pairs = [np.conj(coeffs[:, :-k]) * coeffs[:, k:] for k in (1, 2)]  # conj(c_{n-k}) c_n
    for n_tot, populated in enumerate(np.any(coeffs, axis=0)):
        u = None
        if populated:
            off = params.omega_r * np.sqrt(down[n_top - n_tot : n_top] * up[1 : n_tot + 1])
            diag = None if real else levels[0, : n_tot + 1] + levels[1, n_top - n_tot :]
            u = _unit_block(off, diag, clock, phases, ring[n_tot % 3])
            weights[1:3, : n_tot + 1] = falling[:, n_top - n_tot :]
            density = scratch.view(float)[: u.size].reshape(u.shape)
            np.square(u if real else np.abs(u, out=density), out=density)
            numbers += power[:, n_tot, None, None] * (weights[:, : n_tot + 1] @ density)
            # a^k: (n_b, n_a - k) sits at j; b^k: (n_b - k, n_a) sits at j - k
            for k, back in ((1, old), (2, older)):
                if back is None:
                    continue
                prod = scratch.view(u.dtype)[: back.size].reshape(back.shape)
                np.matmul(roots[k + 1, n_top - n_tot : n_top + 1 - k],
                          np.multiply(back, u[:-k], out=prod), out=ends[0])
                np.matmul(roots[k - 1, k : n_tot + 1], np.multiply(back, u[k:], out=prod),
                          out=ends[1])
                ladders[:, k - 1] += pairs[k - 1][:, n_tot - k, None, None] * ends
            if not real:
                np.conjugate(u, out=u)
        older, old = old, u
    if real:  # <a^k>, <b^k> turn by e^{-ik omega_a t}, and <b> by -i
        ladders *= turn[:, None] * np.array([[1.0, -1j], [1.0, 1.0]])[:, :, None]
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

    Runs that differ at most in theta share one evolve_many pass, on one OpenBLAS thread
    where numpy exports the count (dstevd's bits above 384 rows depend on it).  A norm or
    occupation drift above 1e-9, or a failed check_dynamics, is an InvariantViolationError.
    """
    groups: dict[ModelParams, list[int]] = {}
    for i, (params, _) in enumerate(runs):
        groups.setdefault(replace(params, theta=0.0), []).append(i)
    checked = [None] * len(runs)
    get_threads, set_threads = _numpy_threads()
    for shared, members in groups.items():
        thetas = [runs[i][0].theta for i in members]
        threads = get_threads()
        set_threads(1)
        try:
            results = evolve_many(shared, [runs[i][1] for i in members], times, thetas)
        finally:
            set_threads(threads)
        for i, result in zip(members, results):
            drifts = ("norm", result.norm_drift), ("total-occupation", result.ntotal_drift)
            for name, drift in drifts:
                if not drift <= 1e-9:
                    raise InvariantViolationError(f"oracle {name} drift {drift:.3e} exceeds 1e-9")
            checked[i] = result.moments, check_dynamics(*runs[i], result.moments, times)
    return checked


# no caller in the package: perfbench's PeakAlloc probe binds it; it goes when
# that probe moves to evolve_many (ROADMAP item 2)
def evolve(params: ModelParams, light: np.ndarray, times) -> EvolutionResult:
    """Evolve exp(-iHt)(|0>_b x light) and return both modes' moments at each time."""
    return evolve_many(params, [light], times)[0]
