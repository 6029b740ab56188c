"""Observable functionals, physics tables, and the closed-form registry.

Each of the three output sources evaluates the whole time grid at once and
returns one (T, 11) float table whose columns are PHYSICS_COLUMNS:

* ``literal-paper``  -- the resonant closed-form predictions transcribed
  as originally stated (including their suspected misprints; the verify
  report adjudicates those),
* ``moment-map``     -- exact propagation of the input-mode moments through
  the transfer matrix,
* ``oracle``         -- truncated Fock-space evolution (oracle module).

``FORMULAS`` lists every transcribed closed form once.  An entry holds its
domain predicate, the anchor times at which verify checks it, its literal
form as stated and, where a misprint is suspected, a corrected form (both
array functions of t), the observable it predicts as a function of the
(light, atom) moments, and the literal-paper columns it fills.
``literal_table`` and ``literal_gaps`` read the list, and so does
``verify.discrepancy_report``, one row per entry with an observable.  Adding
a formula means adding one entry.

A NaN entry marks a domain gap: a closed form outside its scenario, or a
Mandel Q of a (numerically) vacuum mode.  ``check_table`` rejects any other
value that is not finite.  Number moments are independent of the condensate
phase theta; theta enters only the quadrature phases of the atom mode.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .fock import MomentSet, SqueezedInput, Truncation, mode_moments
from .propagator import ModelParams, heisenberg_moment_map, propagator_at

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


class UsageError(Exception):
    """Unusable configuration; maps to exit code 1."""


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation setup: model parameters, light-mode input, basis cutoff."""

    params: ModelParams
    input: SqueezedInput
    truncation: Truncation


def alpha_pair(r: float) -> tuple[float, float]:
    """(alpha1, alpha2) = (sinh^2 r + cosh^2 r (= cosh 2r), sinh r cosh r)."""
    s, c = math.sinh(r), math.cosh(r)
    return s * s + c * c, s * c


def mandel_q(moments: MomentSet, mean_floor: float = Q_MEAN_FLOOR):
    """Mandel Q = <dN^2>/<N> - 1: negative sub-Poissonian, zero Poissonian.

    Undefined for (numerically) vacuum input: NaN wherever the mean
    occupation is at or below ``mean_floor``.  Works elementwise on moments
    that are arrays.
    """
    mean = np.asarray(moments.number_mean, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = moments.number_var / mean - 1.0
    return np.where(mean > mean_floor, q, NA)[()]


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
# Transcribed closed forms.  Each takes one time or an array of times and
# assumes the domain of the registry entries that use it.
# ----------------------------------------------------------------------------


def _interference(inp: SqueezedInput) -> float:
    # 2 Re(m^2 e^{2 i phi}), the displacement-squeeze interference term
    return float(2.0 * ((inp.m * inp.m) * np.exp(2j * inp.phi)).real)


def literal_input_number_mean(scn: ScenarioConfig) -> float:
    """Initial light-mode occupation |m|^2 a1 + 2 a2 Re(m^2 e^{2i phi}) + sinh^2 r."""
    alpha1, alpha2 = alpha_pair(scn.input.r)
    return (
        abs(scn.input.m) ** 2 * alpha1
        + _interference(scn.input) * alpha2
        + math.sinh(scn.input.r) ** 2
    )


def literal_na_mean(scn: ScenarioConfig, t: float) -> float:
    """Light-mode occupation: the initial occupation times cos^2(omega_r t)."""
    return literal_input_number_mean(scn) * np.cos(scn.params.omega_r * t) ** 2


def literal_nb_mean(scn: ScenarioConfig, t: float) -> float:
    """Atom-mode occupation as the conserved complement of the light mode."""
    return literal_input_number_mean(scn) * np.sin(scn.params.omega_r * t) ** 2


def literal_number_variances(scn: ScenarioConfig, t: float) -> tuple[float, float]:
    """Occupation variances (light, atoms) for general phi and complex m."""
    alpha1, alpha2 = alpha_pair(scn.input.r)
    bar = _interference(scn.input)
    mag2 = abs(scn.input.m) ** 2
    quartic = (
        mag2 * alpha1**2
        + 2.0 * alpha2**2 * (2.0 * mag2 + 1.0)
        + 2.0 * alpha1 * alpha2 * bar
    )
    cross = alpha1 * mag2 + math.sinh(scn.input.r) ** 2 + bar * alpha2
    cos2 = np.cos(scn.params.omega_r * t) ** 2
    sin2 = np.sin(scn.params.omega_r * t) ** 2
    mixed = cross * sin2 * cos2
    return quartic * cos2 * cos2 + mixed, quartic * sin2 * sin2 + mixed


def _q_pair(scn: ScenarioConfig, t, numerator: float):
    # the stated ratio for phi = 0 and real m, times (cos^2, sin^2)(omega_r t):
    # (m^2 s^2 + numerator) / (m^2 s + sinh^2 r) - 1 with s = a1 + 2 a2
    m = complex(scn.input.m).real
    alpha1, alpha2 = alpha_pair(scn.input.r)
    shifted = alpha1 + 2.0 * alpha2
    factor = (m * m * shifted**2 + numerator) / (m * m * shifted + math.sinh(scn.input.r) ** 2) - 1.0
    return _scaled_cos2_sin2(scn, t, factor)


def _scaled_cos2_sin2(scn: ScenarioConfig, t, factor: float):
    wt = scn.params.omega_r * t
    return factor * np.cos(wt) ** 2, factor * np.sin(wt) ** 2


def literal_q_pair(scn: ScenarioConfig, t: float) -> tuple[float, float]:
    """Mandel-Q pair (light, atoms) as transcribed, for phi = 0 and real m.

    For m = 0 this returns the stated limit pair (a1 cos^2, a1 sin^2); the
    atom-mode value at t = 0 is the limit of an undefined 0/0 expression and
    is reported as 0 by that convention.  For m != 0 the transcribed ratio is
    evaluated as written, including its suspected "2 a2" numerator misprint.
    """
    alpha1, alpha2 = alpha_pair(scn.input.r)
    if scn.input.m == 0:
        return _scaled_cos2_sin2(scn, t, alpha1)
    return _q_pair(scn, t, 2.0 * alpha2)


def corrected_q_pair(scn: ScenarioConfig, t: float) -> tuple[float, float]:
    """The q pair with the numerator term 2 a2 replaced by 2 a2^2, the form
    consistent with both the m = 0 limit pair and the moment map."""
    return _q_pair(scn, t, 2.0 * alpha_pair(scn.input.r)[1] ** 2)


def _squeeze_pair(scn: ScenarioConfig, rotation, weight):
    s, c = math.sinh(scn.input.r), math.cosh(scn.input.r)
    return 2.0 * s * (s - c * rotation) * weight, 2.0 * s * (s + c * rotation) * weight


def literal_atom_squeeze_pair(scn: ScenarioConfig, t: float) -> tuple[float, float]:
    """Atom-mode squeeze coefficients (S1b, S2b) for squeezed-vacuum input."""
    rotation = np.cos(2.0 * (scn.params.omega0 * t + scn.params.theta))
    return _squeeze_pair(scn, rotation, np.sin(scn.params.omega_r * t) ** 2)


def literal_light_squeeze_pair(scn: ScenarioConfig, t: float) -> tuple[float, float]:
    """Light-mode squeeze coefficients (S1a, S2a), built the same way as the atom
    pair with the signs swapped; the condensate phase theta never multiplies the
    surviving a(0) coefficient, so the light quadratures rotate at 2 w t only."""
    rotation = np.cos(2.0 * scn.params.omega0 * t)
    return _squeeze_pair(scn, rotation, np.cos(scn.params.omega_r * t) ** 2)[::-1]


def _atom_variance_at_conversion(scn: ScenarioConfig, t) -> float:
    alpha1, alpha2 = alpha_pair(scn.input.r)
    return complex(scn.input.m).real ** 2 * (alpha1 + 2 * alpha2) ** 2 + 2 * alpha2**2


def _vacuum_form(expression):
    """An array form of t from an expression in sinh r, cosh r, cos^2(omega_r t),
    sin^2(omega_r t) and the atom rotation phase w t + theta."""

    def form(scn: ScenarioConfig, t):
        t = np.asarray(t, dtype=float)
        r, wt = scn.input.r, scn.params.omega_r * t
        phase = scn.params.omega0 * t + scn.params.theta
        return expression(math.sinh(r), math.cosh(r), np.cos(wt) ** 2, np.sin(wt) ** 2, phase)

    return form


# -2 sinh r e^{-r} sin^2(omega_r t), the squeezed atom quadrature at an
# aligned or crossed rotation phase (e^{-r} = cosh r - sinh r)
_SQUEEZED_DIP = _vacuum_form(lambda s, c, cos2, sin2, phase: -2.0 * s * (c - s) * sin2)


# ----------------------------------------------------------------------------
# Domain predicates.  Every transcribed form is derived at resonance; the q
# ratio also needs phi = 0, real m and an occupied light mode, and the
# squeezed-vacuum forms m = 0, phi = 0 and r > 0.
# ----------------------------------------------------------------------------


def resonant(scn: ScenarioConfig) -> bool:
    return scn.params.resonant


def real_input(scn: ScenarioConfig) -> bool:
    """Resonant, with phi = 0 and real m."""
    return resonant(scn) and scn.input.phi == 0.0 and complex(scn.input.m).imag == 0.0


def occupied_real_input(scn: ScenarioConfig) -> bool:
    """A real input that is not the vacuum: the q ratio divides by its occupation."""
    return real_input(scn) and (scn.input.m != 0 or scn.input.r > 0.0)


def squeezed_vacuum(scn: ScenarioConfig) -> bool:
    """A real input with m = 0 and r > 0.

    At r = 0 the light mode is the vacuum: its Mandel Q is undefined, the
    m = 0 q ratio divides by sinh^2 r, and every other form vanishes.
    """
    return real_input(scn) and scn.input.m == 0 and scn.input.r > 0.0


# ----------------------------------------------------------------------------
# The closed-form registry
# ----------------------------------------------------------------------------

# anchor families: where verify evaluates an entry
GRID = "grid"              # the scenario time grid
CONVERSION = "conversion"  # omega_r t = (n + 1/2) pi
ALIGNED = "aligned"        # omega0 t + theta = n pi, with sin^2(omega_r t) >= 0.2
CROSSED = "crossed"        # omega0 t + theta = (n + 1/2) pi, likewise


@dataclass(frozen=True)
class FormulaSpec:
    """One transcribed closed form.

    ``literal`` and ``corrected`` map (scenario, array of times) to the
    predicted values, a tuple for a pair.  ``observable`` maps the (light,
    atom) moments over the times to the same quantity, for the oracle and
    the moment map alike; an entry without one only fills its literal-paper
    ``columns``.  ``polar`` compares a complex value's magnitude, and its
    phase where the magnitude exceeds 1e-3, instead of the value.
    """

    name: str
    claim: str | Callable[[ScenarioConfig], str]
    domain: Callable[[ScenarioConfig], bool]
    literal: Callable
    corrected: Callable | None = None
    observable: Callable[[MomentSet, MomentSet], object] | None = None
    columns: tuple[str, ...] = ()
    anchors: str = GRID
    polar: bool = False
    against_map: bool = True  # False leaves the report's |lit-map| blank

    def claim_for(self, scn: ScenarioConfig) -> str:
        return self.claim(scn) if callable(self.claim) else self.claim


def _adjudicated_q(light: MomentSet, atom: MomentSet):
    # a Q only where the mode holds more than 1e-6 quanta; below that the
    # oracle's Q is roundoff over a vanishing mean
    return mandel_q(light, 1e-6), mandel_q(atom, 1e-6)


def _squeezed_component(which: int):
    # S1b or S2b, or inf where its partner is not anti-squeezed (a sign
    # violation must fail the check, not skip it)
    def extract(light: MomentSet, atom: MomentSet):
        pair = squeeze_coeffs(atom)
        return np.where(pair[1 - which] <= 0.0, math.inf, pair[which])

    return extract


# The four vacuum-input misprints are corrected by the general number-moment
# transcriptions above evaluated at m = 0: the squeezed-vacuum restatements
# disagree with them, and they agree with the moment map.
FORMULAS: list[FormulaSpec] = [
    FormulaSpec(
        "conversion-number-transfer",
        "at cos(omega_r t) = 0 the atom occupation equals the initial light occupation",
        resonant, lambda scn, t: literal_input_number_mean(scn),
        observable=lambda a, b: b.number_mean, anchors=CONVERSION,
    ),
    FormulaSpec(
        "light-number-mean", "light occupation = initial occupation times cos^2(omega_r t)",
        resonant, literal_na_mean, observable=lambda a, b: a.number_mean, columns=("na_mean",),
    ),
    FormulaSpec(
        "atom-number-mean", "atom occupation = initial occupation times sin^2(omega_r t)",
        resonant, literal_nb_mean, columns=("nb_mean",),
    ),
    FormulaSpec(
        "number-variances", "light and atom number variances for general phi and complex m",
        resonant, literal_number_variances, columns=("na_var", "nb_var"),
    ),
    FormulaSpec(
        "total-occupation", "light plus atom occupation stays the initial occupation",
        resonant, lambda scn, t: literal_na_mean(scn, t) + literal_nb_mean(scn, t),
        columns=("ntotal",),
    ),
    FormulaSpec(
        "atom-number-variance-at-conversion",
        "atom number variance at conversion = m^2 (a1 + 2 a2)^2 + 2 a2^2",
        real_input, _atom_variance_at_conversion,
        observable=lambda a, b: b.number_var, anchors=CONVERSION,
    ),
    FormulaSpec(
        "q-pair-vacuum", "Mandel Q pair = (sinh^2 r + cosh^2 r) (cos^2, sin^2)(omega_r t)",
        squeezed_vacuum, literal_q_pair, observable=_adjudicated_q, columns=("q_a", "q_b"),
    ),
    FormulaSpec(
        "light-squeeze-pair",
        "S1a/S2a = 2 sinh r [sinh r +/- cosh r cos(2 w t)] cos^2(omega_r t)",
        squeezed_vacuum, literal_light_squeeze_pair, columns=("s1a", "s2a"),
    ),
    FormulaSpec(
        "atom-squeeze-pair",
        "S1b/S2b = 2 sinh r [sinh r -/+ cosh r cos(2(w t + theta))] sin^2(omega_r t)",
        squeezed_vacuum, literal_atom_squeeze_pair,
        observable=lambda a, b: squeeze_coeffs(b), columns=("s1b", "s2b"),
    ),
    FormulaSpec(
        "atom-squeeze-aligned-phase",
        "at w t + theta = n pi quadrature X1b is squeezed: "
        "S1b = -2 sinh r e^{-r} sin^2(omega_r t) with S2b > 0",
        squeezed_vacuum, _SQUEEZED_DIP, observable=_squeezed_component(0), anchors=ALIGNED,
    ),
    FormulaSpec(
        "atom-squeeze-crossed-phase",
        "at w t + theta = (n + 1/2) pi the squeezing moves to X2b: "
        "S2b = -2 sinh r e^{-r} sin^2(omega_r t) with S1b > 0",
        squeezed_vacuum, _SQUEEZED_DIP, observable=_squeezed_component(1), anchors=CROSSED,
    ),
    FormulaSpec(
        "light-number-square-vacuum",
        "as stated <Na^2> = (2 a2 + sinh^4 r) cos^4(omega_r t); corrected "
        "(2 a2^2 + sinh^4 r) cos^4 + sinh^2 r sin^2 cos^2",
        squeezed_vacuum,
        _vacuum_form(lambda s, c, cos2, sin2, _: (2 * s * c + s**4) * cos2**2),
        corrected=lambda scn, t: literal_number_variances(scn, t)[0] + literal_na_mean(scn, t) ** 2,
        observable=lambda a, b: a.number_sq,
    ),
    FormulaSpec(
        "light-number-variance-vacuum",
        "as stated <dNa^2> = sqrt(2) sinh r cos^4(omega_r t); corrected "
        "2 sinh^2 r cosh^2 r cos^4 + sinh^2 r sin^2 cos^2",
        squeezed_vacuum,
        _vacuum_form(lambda s, c, cos2, sin2, _: math.sqrt(2.0) * s * cos2**2),
        corrected=lambda scn, t: literal_number_variances(scn, t)[0],
        observable=lambda a, b: a.number_var,
    ),
    FormulaSpec(
        "atom-number-variance-vacuum",
        "as stated <dNb^2> = sqrt(2) sinh r cosh r sin^4(omega_r t); corrected "
        "2 sinh^2 r cosh^2 r sin^4 + sinh^2 r sin^2 cos^2",
        squeezed_vacuum,
        _vacuum_form(lambda s, c, cos2, sin2, _: math.sqrt(2.0) * s * c * sin2**2),
        corrected=lambda scn, t: literal_number_variances(scn, t)[1],
        observable=lambda a, b: b.number_var,
    ),
    FormulaSpec(
        "atom-number-mean-vacuum",
        "as stated <b†b> = sinh^2 r cosh^2 r sin^2(omega_r t); corrected "
        "sinh^2 r sin^2(omega_r t)",
        squeezed_vacuum,
        _vacuum_form(lambda s, c, cos2, sin2, _: s**2 * c**2 * sin2),
        corrected=literal_nb_mean,
        observable=lambda a, b: b.number_mean,
    ),
    FormulaSpec(
        "atom-squared-amplitude-vacuum",
        "<b^2(t)> = -sinh r cosh r e^{-2i(w t + theta)} sin^2(omega_r t); "
        "magnitude and phase compared separately",
        squeezed_vacuum,
        _vacuum_form(lambda s, c, cos2, sin2, phase: -s * c * np.exp(-2j * phase) * sin2),
        observable=lambda a, b: b.sq_amp, polar=True,
    ),
    FormulaSpec(
        "q-pair-real-input",
        lambda scn: "as stated the q prefactor numerator carries 2 a2; corrected 2 a2^2"
        + (" (evaluated in the m = 0 limit)" if scn.input.m == 0 else ""),
        occupied_real_input,
        lambda scn, t: _q_pair(scn, t, 2.0 * alpha_pair(scn.input.r)[1]),
        corrected=corrected_q_pair, observable=_adjudicated_q, columns=("q_a", "q_b"),
        against_map=False,
    ),
]


# ----------------------------------------------------------------------------
# Physics tables: one row per time, one column per PHYSICS_COLUMNS entry
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


def physics_table(a: MomentSet, b: MomentSet) -> np.ndarray:
    """The (T, 11) PHYSICS_COLUMNS table from (light, atom) moments over T times."""
    s1a, s2a = squeeze_coeffs(a)
    s1b, s2b = squeeze_coeffs(b)
    return np.column_stack(
        (
            a.number_mean, a.number_var, b.number_mean, b.number_var,
            mandel_q(a), mandel_q(b), s1a, s2a, s1b, s2b,
            a.number_mean + b.number_mean,
        )
    )


def moment_map_table(scn: ScenarioConfig, times) -> np.ndarray:
    """The moment-map source: the closed input moments mapped to each time (any detuning)."""
    u = propagator_at(scn.params, np.asarray(times, dtype=float))
    return physics_table(*heisenberg_moment_map(u, input_moments(scn.input)))


def literal_gaps(scn: ScenarioConfig) -> tuple[str, ...]:
    """The literal-paper columns that no in-domain entry fills (written NaN)."""
    filled = {name for spec in FORMULAS if spec.domain(scn) for name in spec.columns}
    return tuple(name for name in PHYSICS_COLUMNS if name not in filled)


def literal_table(scn: ScenarioConfig, times) -> np.ndarray:
    """The literal-paper source: the transcribed closed forms at each time.

    A column listed by several in-domain entries takes the first entry's
    values, so the entries are written in reverse order.
    """
    times = np.asarray(times, dtype=float)
    table = np.full((len(times), len(PHYSICS_COLUMNS)), NA)
    for spec in reversed(FORMULAS):
        if spec.columns and spec.domain(scn):
            values = np.reshape(spec.literal(scn, times), (len(spec.columns), len(times)))
            table[:, [PHYSICS_COLUMNS.index(name) for name in spec.columns]] = values.T
    return table


def check_table(table: np.ndarray, times, source: str, gaps=(), tol: float = 1e-9) -> None:
    """Raise InvariantViolationError on a physically impossible table entry.

    That is a negative number variance, a squeeze coefficient below -1, or a
    value that is not finite outside a domain gap.  The gaps are the ``gaps``
    columns and a Mandel Q whose mode mean is at or below Q_MEAN_FLOOR.
    """
    col = PHYSICS_COLUMNS.index
    allowed = np.zeros(table.shape, dtype=bool)
    allowed[:, [col(name) for name in gaps]] = True
    allowed[:, col("q_a")] |= table[:, col("na_mean")] <= Q_MEAN_FLOOR
    allowed[:, col("q_b")] |= table[:, col("nb_mean")] <= Q_MEAN_FLOOR
    bound = np.full(len(PHYSICS_COLUMNS), -np.inf)
    bound[[col("na_var"), col("nb_var")]] = 0.0
    bound[[col(name) for name in ("s1a", "s2a", "s1b", "s2b")]] = -1.0
    bad = ~(np.isfinite(table) | allowed) | (table < bound - tol)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        value = table[i, j]
        problem = "is not finite" if not np.isfinite(value) else f"< {bound[j]:g}"
        raise InvariantViolationError(
            f"{PHYSICS_COLUMNS[j]} = {value:.6g} {problem} at t = {times[i]:.6g} ({source})"
        )


def check_dynamics(params: ModelParams, light: np.ndarray, moments, times):
    """Check the oracle's (light, atom) ``moments`` against the moment map of
    ``mode_moments(light)`` and return the map.  ``light`` holds the amplitudes
    c_0 .. c_{n_max}, so n_max is len(light) - 1.  Blocks n_tot <= n_max are complete, so
    each field agrees to phase roundoff, (1e-11 + eps t_max n_max (max |omega| + omega_r))
    (1 + |input moment|), a slack at most 1e-6; InvariantViolationError otherwise, NaN too."""
    times = np.asarray(times, dtype=float)
    phase = max(abs(params.omega0), abs(params.omega_a)) + params.omega_r
    slack = 1e-11 + np.finfo(float).eps * np.max(times) * (len(light) - 1) * phase
    if not slack <= 1e-6:
        raise InvariantViolationError(f"t = {np.max(times):.6g} is past the oracle's precision "
                                      f"domain: its phase roundoff slack {slack:.3e} exceeds 1e-6")
    truncated = mode_moments(light)
    mapped = heisenberg_moment_map(propagator_at(params, times), truncated)
    for mode, got, want in zip(("light", "atom"), moments, mapped):
        for field in fields(MomentSet):
            dev = np.abs(getattr(got, field.name) - getattr(want, field.name))
            bad = ~(dev <= slack * (1.0 + abs(getattr(truncated, field.name))))
            if np.any(bad):
                i = int(np.argmax(bad))
                raise InvariantViolationError(
                    f"oracle {mode} {field.name} is {dev[i]:.3e} from the moment map of its "
                    f"truncated input at t = {times[i]:.6g}"
                )
    return mapped
