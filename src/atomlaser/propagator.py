"""Closed-form Heisenberg-picture solution of the linear light-atom coupling.

The coupled mode operators obey a linear 2x2 system, so the full dynamics is
a unitary transfer matrix acting on (b, a).  At detuning the oscillation runs
at the generalized Rabi frequency I = omega_r / cos(varphi) with detuning
angle varphi fixed by omega0 - omega_a = 2 omega_r tan(varphi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import MomentSet


@dataclass(frozen=True)
class ModelParams:
    """Reduced two-mode model parameters.

    omega0   level splitting of the atomic transition (rad/time)
    omega_a  optical frequency (rad/time)
    omega_r  collective coupling, single-atom coupling times sqrt(condensate
             number); the slow condensate depletion is not modelled
    theta    condensate phase (rad), enters only off-diagonal phases; kept mod 2 pi
    """

    omega0: float
    omega_a: float
    omega_r: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        if self.omega_r <= 0:
            raise ValueError(f"omega_r must be > 0, got {self.omega_r}")
        # fmod is exact and keeps |theta| < 2 pi; a huge theta would swamp omega0 t
        object.__setattr__(self, "theta", math.fmod(self.theta, 2.0 * math.pi))

    @property
    def resonant(self) -> bool:
        """Exact on purpose: any detuning is a domain gap for the literal forms."""
        return self.omega0 == self.omega_a


def propagator_at(params: ModelParams, t) -> np.ndarray:
    """Transfer matrices at time(s) t, shaped ``t.shape + (2, 2)``: rows give
    b(t), a(t) in terms of b(0), a(0).

    The matrix is e^{-i (omega0 + omega_a) t / 2} times
        [[lam_minus, -i eta e^{-i theta}],
         [-i eta e^{+i theta}, lam_plus]]
    with lam_pm = cos(I t) +/- i sin(varphi) sin(I t) and eta = cos(varphi) sin(I t).
    At resonance the bracket reduces to the plain Rabi rotation cos/sin(omega_r t).
    """
    t = np.asarray(t, dtype=float)
    half = 0.5 * (params.omega0 - params.omega_a)
    big_i = math.hypot(params.omega_r, half)  # I = omega_r / cos(varphi)
    # sin and cos of varphi as ratios: taken of varphi near pi/2 they lose eps / cos(varphi)
    sin_v, cos_v = half / big_i, params.omega_r / big_i
    cos_it = np.cos(big_i * t)
    sin_it = np.sin(big_i * t)
    lam_minus = cos_it - 1j * sin_v * sin_it
    lam_plus = cos_it + 1j * sin_v * sin_it
    eta = cos_v * sin_it
    phase = np.exp(-1j * params.theta)
    rotation = np.stack(
        (
            np.stack((lam_minus, -1j * eta * phase), axis=-1),
            np.stack((-1j * eta * np.conj(phase), lam_plus), axis=-1),
        ),
        axis=-2,
    )
    global_phase = np.exp(-1j * (0.5 * (params.omega0 + params.omega_a)) * t)
    return global_phase[..., None, None] * rotation


def heisenberg_moment_map(u: np.ndarray, initial_a: MomentSet) -> tuple[MomentSet, MomentSet]:
    """Map the light mode's initial moments through c(t) = alpha b(0) + beta a(0).

    The atom mode starts in vacuum (that is the modelled preparation), so
    every mixed term annihilates and the transformed moments close on the
    four input moments:

        <c>       = beta <a>
        <c^2>     = beta^2 <a^2>
        <c†c>     = |beta|^2 <a†a>
        <(c†c)^2> = |beta|^4 <(a†a)^2> + |alpha|^2 |beta|^2 <a†a>

    ``u`` holds the transfer matrices from ``propagator_at``, shaped
    ``T + (2, 2)`` for times of shape T.  Returns the pair (a(t) moments, b(t)
    moments), each field shaped T.  Exact for any unitary transfer matrix,
    resonant or detuned.
    """

    def transform(alpha, beta) -> MomentSet:
        weight = np.abs(beta) ** 2
        return MomentSet(
            mean_amp=beta * initial_a.mean_amp,
            sq_amp=beta * beta * initial_a.sq_amp,
            number_mean=weight * initial_a.number_mean,
            number_sq=weight * weight * initial_a.number_sq
            + np.abs(alpha) ** 2 * weight * initial_a.number_mean,
        )

    b_t = transform(u[..., 0, 0], u[..., 0, 1])
    a_t = transform(u[..., 1, 0], u[..., 1, 1])
    return a_t, b_t
