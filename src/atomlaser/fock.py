"""Truncated Fock-space machinery for one bosonic mode.

A cutoff is the int n_max, the highest occupation kept.  A state is its
complex amplitude array c_0 .. c_{n_max} over number states, so its cutoff is
its length less one.  The constructor gates the exact norm deficit
(``truncation_tails``) and returns the renormalised array; the top-decile tail
mass (``top_decile_mass``) is reported and gates nothing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_DEFICIT_THRESHOLD = 1e-8


class TruncationError(RuntimeError):
    """The requested state does not fit the truncated basis to the required accuracy."""


@dataclass(frozen=True)
class SqueezedInput:
    """Squeezed-coherent preparation of the initial light mode.

    The state is built as squeeze-after-displacement, S D(m)|0>, with

        S = exp[(r/2) (e^{-2i phi} adag^2  -  e^{2i phi} a^2)]

    so that the Bogoliubov factors are cosh(r) / sinh(r):  adag a has mean
    sinh(r)^2 for m = 0 and <a^2> = +e^{-2i phi} sinh(r) cosh(r).  r = 0 with
    any phi reduces exactly to the coherent state |m>.
    """

    r: float
    phi: float = 0.0
    m: complex = 0j

    def __post_init__(self) -> None:
        if self.r < 0:
            raise ValueError(f"squeeze magnitude r must be >= 0, got {self.r}")
        # fmod is exact and keeps |phi| < 2 pi; 2 phi would overflow for a huge phi
        object.__setattr__(self, "phi", math.fmod(self.phi, 2.0 * math.pi))


@dataclass(frozen=True)
class MomentSet:
    """The mode moments <c>, <c^2>, <c†c>, <(c†c)^2> needed by every observable.

    The fields are numbers for one time or arrays with one entry per time.
    """

    mean_amp: complex
    sq_amp: complex
    number_mean: float
    number_sq: float

    @property
    def number_var(self) -> float:
        return self.number_sq - self.number_mean**2


def top_decile_mass(amplitudes: np.ndarray) -> float:
    """Probability carried by the top 10% of basis indices (tail diagnostic)."""
    k = max(1, math.ceil(0.1 * len(amplitudes)))
    return float(np.sum(np.abs(amplitudes[-k:]) ** 2))


def squeezed_amplitudes(inp: SqueezedInput, n_max: int) -> np.ndarray:
    """Exact Fock amplitudes c_0 .. c_{n_max} of S D(m)|0>, not renormalised.

    The state is the eigenvector of S a S† = a cosh r - adag e^{-2i phi} sinh r
    with eigenvalue m, so sqrt(n+1) cosh r c[n+1] = m c[n] + e^{-2i phi}
    sinh r sqrt(n) c[n-1] (Yuen, PRA 13, 2226 (1976)), run divided by cosh r
    so that large r underflows instead of overflowing.  c_0 is the vacuum
    overlap |exp(-|m|^2/2 - e^{2i phi} tanh r m^2/2)| / sqrt(cosh r), taken
    real; a huge m gives a zero or NaN state, which the deficit check rejects.
    """
    m = complex(inp.m)
    sech_r = 2.0 * math.exp(-inp.r) / (1.0 + math.exp(-2.0 * inp.r))
    pair = cmath.exp(-2j * inp.phi) * math.tanh(inp.r)
    amps = np.zeros(n_max + 1, dtype=complex)
    amps[0] = math.sqrt(sech_r) * math.exp(
        -0.5 * abs(m) * abs(m) - 0.5 * (pair.conjugate() * m * m).real
    )
    prev, curr = 0j, complex(amps[0])
    for n in range(1, n_max + 1):
        prev, curr = curr, (m * sech_r * curr + pair * math.sqrt(n - 1) * prev) / math.sqrt(n)
        amps[n] = curr
    return amps


def truncation_tails(amplitudes: np.ndarray) -> np.ndarray:
    """tails[N] = 1 - sum_{n <= N} |c_n|^2: the probability a cutoff N discards."""
    return 1.0 - np.cumsum(np.abs(amplitudes) ** 2)


def squeezed_coherent_state(inp: SqueezedInput, n_max: int) -> np.ndarray:
    """Amplitudes c_0 .. c_{n_max} of the squeezed-coherent input, renormalised.

    The norm deficit is the exact probability above n_max, truncation_tails(...)[-1]
    of the unrenormalised amplitudes; a deficit above DEFAULT_DEFICIT_THRESHOLD (or
    a NaN one) raises TruncationError.  Any cutoff's array is the renormalised
    prefix of a larger cutoff's amplitudes, bit for bit, as ``converge`` builds it.
    """
    amps = squeezed_amplitudes(inp, n_max)
    deficit = float(truncation_tails(amps)[-1])
    if not deficit <= DEFAULT_DEFICIT_THRESHOLD:
        raise TruncationError(
            f"squeezed state (r={inp.r:.4g}, |m|={abs(inp.m):.4g}) does not fit "
            f"n_max={n_max}: norm deficit {deficit:.3e} exceeds "
            f"{DEFAULT_DEFICIT_THRESHOLD:.1e}"
        )
    amps /= math.sqrt(1.0 - deficit)
    return amps


def mode_moments(psi: np.ndarray) -> MomentSet:
    """Moments of a single-mode state by direct summation over its amplitudes psi."""
    n = np.arange(len(psi))
    prob = np.abs(psi) ** 2
    mean_amp = complex(np.sum(np.conj(psi[:-1]) * np.sqrt(n[1:]) * psi[1:]))
    sq_amp = complex(np.sum(np.conj(psi[:-2]) * np.sqrt(n[2:] * (n[2:] - 1.0)) * psi[2:]))
    return MomentSet(mean_amp, sq_amp, float(np.sum(prob * n)), float(np.sum(prob * n * n)))
