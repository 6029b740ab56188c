"""Observable functionals, record schema, and the transcribed closed-form predictions.

Three output sources share one record schema:

* ``literal-paper``  -- the resonant closed-form predictions transcribed
  as originally stated (including their suspected misprints; the verify
  report adjudicates those),
* ``moment-map``     -- exact propagation of the input-mode moments through
  the transfer matrix,
* ``oracle``         -- truncated Fock-space evolution (oracle module).

Number moments are independent of the condensate phase theta; theta enters
only the quadrature phases of the atom mode.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .fock import MomentSet, SqueezedInput, Truncation
from .propagator import ModelParams, ResonanceError, heisenberg_moment_map, propagator_at

SOURCE_LITERAL = "literal-paper"
SOURCE_MOMENT_MAP = "moment-map"
SOURCE_ORACLE = "oracle"
SOURCES = (SOURCE_LITERAL, SOURCE_MOMENT_MAP, SOURCE_ORACLE)

CSV_COLUMNS = (
    "t",
    "source",
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
    "n_max",
    "tail_mass",
)
PHYSICS_COLUMNS = CSV_COLUMNS[2:13]  # na_mean .. ntotal

Q_MEAN_FLOOR = 1e-12

NA = float("nan")


class InvariantViolationError(RuntimeError):
    """A physically impossible value was produced during a run."""


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation setup: model parameters, light-mode input, basis cutoff."""

    params: ModelParams
    input: SqueezedInput
    truncation: Truncation


@dataclass(frozen=True)
class AlphaPair:
    """alpha1 = sinh^2 r + cosh^2 r (= cosh 2r) and alpha2 = sinh r cosh r."""

    alpha1: float
    alpha2: float

    @classmethod
    def from_r(cls, r: float) -> "AlphaPair":
        s, c = math.sinh(r), math.cosh(r)
        return cls(s * s + c * c, s * c)


@dataclass(frozen=True)
class ObservableRecord:
    """Per-time snapshot of all observables from one source (NaN = undefined)."""

    t: float
    source: str
    na_mean: float
    na_var: float
    nb_mean: float
    nb_var: float
    q_a: float
    q_b: float
    s1a: float
    s2a: float
    s1b: float
    s2b: float
    ntotal: float
    n_max: int
    tail_mass: float


def mandel_q(moments: MomentSet, mean_floor: float = Q_MEAN_FLOOR) -> float:
    """Mandel Q = <dN^2>/<N> - 1: negative sub-Poissonian, zero Poissonian.

    Undefined for (numerically) vacuum input: raises ValueError when the mean
    occupation is at or below ``mean_floor``.
    """
    if moments.number_mean <= mean_floor:
        raise ValueError(
            f"Mandel Q undefined for mean occupation {moments.number_mean:.3e}"
        )
    return moments.number_var / moments.number_mean - 1.0


def squeeze_coeffs(moments: MomentSet) -> tuple[float, float]:
    """Normalized excess quadrature variances S_i = 4 <dX_i^2> - 1.

    X1 = (c + c†)/2 and X2 = (c - c†)/2i, so

        S1 = 2 <c†c> + 2 Re<c^2> - (2 Re<c>)^2
        S2 = 2 <c†c> - 2 Re<c^2> - (2 Im<c>)^2

    S_i < 0 signals squeezing of quadrature i; coherent states give (0, 0).
    """
    n = moments.number_mean
    re_sq = moments.sq_amp.real
    s1 = 2.0 * n + 2.0 * re_sq - (2.0 * moments.mean_amp.real) ** 2
    s2 = 2.0 * n - 2.0 * re_sq - (2.0 * moments.mean_amp.imag) ** 2
    return s1, s2


# ----------------------------------------------------------------------------
# Transcribed closed forms (the literal-paper source).  All are derived at
# resonance; q and squeeze pairs additionally need phi = 0 and real / zero m.
# ----------------------------------------------------------------------------


def _require_resonant(params: ModelParams) -> None:
    if not params.resonant:
        raise ResonanceError(
            "the transcribed closed forms are only defined at resonance"
        )


def _interference(inp: SqueezedInput) -> float:
    # 2 Re(m^2 e^{2 i phi}), the displacement-squeeze interference term
    return float(2.0 * ((inp.m * inp.m) * np.exp(2j * inp.phi)).real)


def _real_input(inp: SqueezedInput) -> float:
    if inp.phi != 0.0 or complex(inp.m).imag != 0.0:
        raise ValueError("this closed form needs phi = 0 and real m")
    return complex(inp.m).real


def literal_input_number_mean(scn: ScenarioConfig) -> float:
    """Initial light-mode occupation |m|^2 a1 + 2 a2 Re(m^2 e^{2i phi}) + sinh^2 r."""
    al = AlphaPair.from_r(scn.input.r)
    return (
        abs(scn.input.m) ** 2 * al.alpha1
        + _interference(scn.input) * al.alpha2
        + math.sinh(scn.input.r) ** 2
    )


def literal_na_mean(scn: ScenarioConfig, t: float) -> float:
    """Light-mode occupation: the initial occupation times cos^2(omega_r t)."""
    _require_resonant(scn.params)
    return literal_input_number_mean(scn) * math.cos(scn.params.omega_r * t) ** 2


def literal_nb_mean(scn: ScenarioConfig, t: float) -> float:
    """Atom-mode occupation as the conserved complement of the light mode."""
    _require_resonant(scn.params)
    return literal_input_number_mean(scn) * math.sin(scn.params.omega_r * t) ** 2


def literal_number_variances(scn: ScenarioConfig, t: float) -> tuple[float, float]:
    """Occupation variances (light, atoms) for general phi and complex m."""
    _require_resonant(scn.params)
    al = AlphaPair.from_r(scn.input.r)
    bar = _interference(scn.input)
    mag2 = abs(scn.input.m) ** 2
    quartic = (
        mag2 * al.alpha1**2
        + 2.0 * al.alpha2**2 * (2.0 * mag2 + 1.0)
        + 2.0 * al.alpha1 * al.alpha2 * bar
    )
    cross = al.alpha1 * mag2 + math.sinh(scn.input.r) ** 2 + bar * al.alpha2
    cos2 = math.cos(scn.params.omega_r * t) ** 2
    sin2 = math.sin(scn.params.omega_r * t) ** 2
    mixed = cross * sin2 * cos2
    return quartic * cos2 * cos2 + mixed, quartic * sin2 * sin2 + mixed


def literal_number_variances_real_input(
    scn: ScenarioConfig, t: float
) -> tuple[float, float]:
    """The phi = 0, real-m specialization of the variance pair.

    Algebraically identical to ``literal_number_variances`` on its domain;
    kept as an independent expression so the overlap can be cross-checked.
    """
    _require_resonant(scn.params)
    m = _real_input(scn.input)
    al = AlphaPair.from_r(scn.input.r)
    quartic = m * m * (al.alpha1 + 2.0 * al.alpha2) ** 2 + 2.0 * al.alpha2**2
    cross = math.sinh(scn.input.r) ** 2 + (al.alpha1 + 2.0 * al.alpha2) * m * m
    cos2 = math.cos(scn.params.omega_r * t) ** 2
    sin2 = math.sin(scn.params.omega_r * t) ** 2
    mixed = cross * sin2 * cos2
    return quartic * cos2 * cos2 + mixed, quartic * sin2 * sin2 + mixed


def literal_q_pair(scn: ScenarioConfig, t: float) -> tuple[float, float]:
    """Mandel-Q pair (light, atoms) as transcribed, for phi = 0 and real m.

    For m = 0 this returns the stated limit pair (a1 cos^2, a1 sin^2); the
    atom-mode value at t = 0 is the limit of an undefined 0/0 expression and
    is reported as 0 by that convention.  For m != 0 the transcribed ratio is
    evaluated as written, including its suspected "2 a2" numerator misprint
    (the verify report adjudicates it against the oracle).
    """
    _require_resonant(scn.params)
    m = _real_input(scn.input)
    al = AlphaPair.from_r(scn.input.r)
    cos2 = math.cos(scn.params.omega_r * t) ** 2
    sin2 = math.sin(scn.params.omega_r * t) ** 2
    if m == 0.0:
        return al.alpha1 * cos2, al.alpha1 * sin2
    shifted = al.alpha1 + 2.0 * al.alpha2
    factor = (m * m * shifted**2 + 2.0 * al.alpha2) / (
        m * m * shifted + math.sinh(scn.input.r) ** 2
    ) - 1.0
    return factor * cos2, factor * sin2


def corrected_q_pair(scn: ScenarioConfig, t: float) -> tuple[float, float]:
    """The q pair with the numerator term 2 a2 replaced by 2 a2^2.

    This is the form consistent with both the m = 0 limit pair and the moment
    map; used by the verify report as the registered correction.
    """
    _require_resonant(scn.params)
    m = _real_input(scn.input)
    al = AlphaPair.from_r(scn.input.r)
    cos2 = math.cos(scn.params.omega_r * t) ** 2
    sin2 = math.sin(scn.params.omega_r * t) ** 2
    shifted = al.alpha1 + 2.0 * al.alpha2
    factor = (m * m * shifted**2 + 2.0 * al.alpha2**2) / (
        m * m * shifted + math.sinh(scn.input.r) ** 2
    ) - 1.0
    return factor * cos2, factor * sin2


def _require_vacuum_squeezed(inp: SqueezedInput) -> None:
    if inp.m != 0 or inp.phi != 0.0:
        raise ValueError("this closed form needs m = 0 and phi = 0")


def literal_atom_squeeze_pair(scn: ScenarioConfig, t: float) -> tuple[float, float]:
    """Atom-mode squeeze coefficients (S1b, S2b) for squeezed-vacuum input.

        S1b = 2 sinh r [sinh r - cosh r cos(2(w t + theta))] sin^2(omega_r t)
        S2b = 2 sinh r [sinh r + cosh r cos(2(w t + theta))] sin^2(omega_r t)

    At w t + theta = n pi the pair is S1b = -2 sinh r e^{-r} sin^2 and
    S2b = +2 sinh r e^{+r} sin^2 (X1b squeezed); at w t + theta = (n + 1/2) pi
    the roles swap to X2b.
    """
    _require_resonant(scn.params)
    _require_vacuum_squeezed(scn.input)
    s = math.sinh(scn.input.r)
    c = math.cosh(scn.input.r)
    rotation = math.cos(2.0 * (scn.params.omega0 * t + scn.params.theta))
    sin2 = math.sin(scn.params.omega_r * t) ** 2
    return (
        2.0 * s * (s - c * rotation) * sin2,
        2.0 * s * (s + c * rotation) * sin2,
    )


def literal_light_squeeze_pair(scn: ScenarioConfig, t: float) -> tuple[float, float]:
    """Light-mode squeeze coefficients, built the same way as the atom pair.

    The light mode keeps its own squeeze phase, rotating at 2 w t only (the
    condensate phase theta never multiplies the surviving a(0) coefficient).
    """
    _require_resonant(scn.params)
    _require_vacuum_squeezed(scn.input)
    s = math.sinh(scn.input.r)
    c = math.cosh(scn.input.r)
    rotation = math.cos(2.0 * scn.params.omega0 * t)
    cos2 = math.cos(scn.params.omega_r * t) ** 2
    return (
        2.0 * s * (s + c * rotation) * cos2,
        2.0 * s * (s - c * rotation) * cos2,
    )


def literal_atom_sq_amp(scn: ScenarioConfig, t: float) -> complex:
    """Transcribed <b^2(t)> = -sinh r cosh r e^{-2i(w t + theta)} sin^2(omega_r t)."""
    _require_resonant(scn.params)
    _require_vacuum_squeezed(scn.input)
    s = math.sinh(scn.input.r)
    c = math.cosh(scn.input.r)
    return complex(
        -s
        * c
        * np.exp(-2j * (scn.params.omega0 * t + scn.params.theta))
        * math.sin(scn.params.omega_r * t) ** 2
    )


def literal_atom_number_mean_as_stated(scn: ScenarioConfig, t: float) -> float:
    """Transcribed <b†b(t)> = sinh^2 r cosh^2 r sin^2(omega_r t) (typo-suspect).

    The cosh^2 r factor is inconsistent with complete conversion of
    sinh^2 r; the verify report adjudicates it.
    """
    _require_resonant(scn.params)
    _require_vacuum_squeezed(scn.input)
    r = scn.input.r
    return (
        math.sinh(r) ** 2
        * math.cosh(r) ** 2
        * math.sin(scn.params.omega_r * t) ** 2
    )


# ----------------------------------------------------------------------------
# Record builders
# ----------------------------------------------------------------------------


def input_moments(inp: SqueezedInput) -> MomentSet:
    """Closed-form moments of the Gaussian input S D(m)|0>, with no truncation.

    With A = <a> = m cosh r + conj(m) e^{-2i phi} sinh r, M = e^{-2i phi}
    sinh r cosh r and N = sinh^2 r:  <a^2> = A^2 + M,  <n> = |A|^2 + N  and
    <n^2> = <n>^2 + N (N + 1) + |M|^2 + |A|^2 (2N + 1) + 2 Re(conj(A)^2 M).
    """
    c, s = math.cosh(inp.r), math.sinh(inp.r)
    rot = cmath.exp(-2j * inp.phi)
    mean = complex(inp.m) * c + complex(inp.m).conjugate() * rot * s
    pair, thermal = rot * s * c, s * s
    number_mean = abs(mean) ** 2 + thermal
    number_var = (
        thermal * (thermal + 1.0) + abs(pair) ** 2
        + abs(mean) ** 2 * (2.0 * thermal + 1.0) + 2.0 * (mean.conjugate() ** 2 * pair).real
    )
    return MomentSet(mean, mean * mean + pair, number_mean, number_mean**2 + number_var)


def _q_or_nan(moments: MomentSet, mean_floor: float = Q_MEAN_FLOOR) -> float:
    try:
        return mandel_q(moments, mean_floor)
    except ValueError:
        return NA


def record_from_moments(
    t: float,
    source: str,
    a: MomentSet,
    b: MomentSet,
    n_max: int,
    tail_mass: float,
) -> ObservableRecord:
    """Assemble the full observable record from one pair of mode moments."""
    s1a, s2a = squeeze_coeffs(a)
    s1b, s2b = squeeze_coeffs(b)
    return ObservableRecord(
        t=float(t),
        source=source,
        na_mean=a.number_mean,
        na_var=a.number_var,
        nb_mean=b.number_mean,
        nb_var=b.number_var,
        q_a=_q_or_nan(a),
        q_b=_q_or_nan(b),
        s1a=s1a,
        s2a=s2a,
        s1b=s1b,
        s2b=s2b,
        ntotal=a.number_mean + b.number_mean,
        n_max=n_max,
        tail_mass=tail_mass,
    )


def moment_map_record(
    scn: ScenarioConfig, t: float, a0: MomentSet, tail_mass: float = 0.0
) -> ObservableRecord:
    """Record from the closed moment map at time t (any detuning)."""
    u = propagator_at(scn.params, t)
    a_t, b_t = heisenberg_moment_map(u, a0, MomentSet.vacuum())
    return record_from_moments(
        t, SOURCE_MOMENT_MAP, a_t, b_t, scn.truncation.n_max, tail_mass
    )


def literal_record(
    scn: ScenarioConfig, t: float, tail_mass: float = 0.0
) -> ObservableRecord:
    """Record from the transcribed closed forms.

    Fields whose closed form does not cover the scenario (detuned parameters,
    complex m or nonzero phi for the q / squeeze entries) are NaN.
    """
    n_max = scn.truncation.n_max
    if not scn.params.resonant:
        physics = dict.fromkeys(PHYSICS_COLUMNS, NA)
        return ObservableRecord(
            t=float(t), source=SOURCE_LITERAL, n_max=n_max, tail_mass=tail_mass, **physics
        )
    na_mean = literal_na_mean(scn, t)
    nb_mean = literal_nb_mean(scn, t)
    na_var, nb_var = literal_number_variances(scn, t)
    try:
        q_a, q_b = literal_q_pair(scn, t)
    except ValueError:
        q_a, q_b = NA, NA
    try:
        s1b, s2b = literal_atom_squeeze_pair(scn, t)
        s1a, s2a = literal_light_squeeze_pair(scn, t)
    except ValueError:
        s1a, s2a, s1b, s2b = NA, NA, NA, NA
    return ObservableRecord(
        t=float(t),
        source=SOURCE_LITERAL,
        na_mean=na_mean,
        na_var=na_var,
        nb_mean=nb_mean,
        nb_var=nb_var,
        q_a=q_a,
        q_b=q_b,
        s1a=s1a,
        s2a=s2a,
        s1b=s1b,
        s2b=s2b,
        ntotal=na_mean + nb_mean,
        n_max=n_max,
        tail_mass=tail_mass,
    )


def check_record(rec: ObservableRecord, tol: float = 1e-9) -> None:
    """Raise InvariantViolationError on physically impossible record values.

    NaN fields mark domain gaps, not violations, and are skipped.
    """
    for name in ("na_var", "nb_var"):
        value = getattr(rec, name)
        if not math.isnan(value) and value < -tol:
            raise InvariantViolationError(
                f"{name} = {value:.3e} < 0 at t = {rec.t:.6g} ({rec.source})"
            )
    for name in ("s1a", "s2a", "s1b", "s2b"):
        value = getattr(rec, name)
        if not math.isnan(value) and value < -1.0 - tol:
            raise InvariantViolationError(
                f"{name} = {value:.6g} < -1 at t = {rec.t:.6g} ({rec.source})"
            )
