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
form as stated and, where a misprint is suspected, a corrected form, the
observable it predicts as a function of the (light, atom) moments, and the
literal-paper columns it fills.  Each form is an expression over the
``Terms`` of a scenario and times (sinh r, cos^2(omega_r t) and the like),
which every form on those times shares.  ``literal_table`` and
``literal_gaps`` read the list, and so does ``verify.discrepancy_report``,
one row per entry with an observable.  Adding a formula means adding one entry.

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

from .fock import MomentSet, SqueezedInput, mode_moments
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
    """One simulation setup: model parameters, light-mode input, Fock cutoff n_max."""

    params: ModelParams
    input: SqueezedInput
    n_max: int


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
# The terms the closed forms are written in, and the shared forms
# ----------------------------------------------------------------------------


class Terms:
    """The quantities the closed forms are written in, for one scenario over an
    array of times ``t``; the only reader of the scenario for a form.  Each term is
    computed when the ``Terms`` is built, sinh r too (it overflows for r > 710), so
    it is built only after the input's deficit check."""

    def __init__(self, scn: ScenarioConfig, times):
        inp, params = scn.input, scn.params
        self.t, self.m = np.asarray(times, dtype=float), complex(inp.m)
        self.sinh, self.cosh = math.sinh(inp.r), math.cosh(inp.r)
        self.alpha1, self.alpha2 = alpha_pair(inp.r)
        self.m_abs2 = abs(self.m) ** 2
        # 2 Re(m^2 e^{2 i phi}), the displacement-squeeze interference term
        self.interference = float(2.0 * ((self.m * self.m) * np.exp(2j * inp.phi)).real)
        # the initial light occupation |m|^2 a1 + 2 a2 Re(m^2 e^{2i phi}) + sinh^2 r
        self.n_in = self.m_abs2 * self.alpha1 + self.interference * self.alpha2 + self.sinh**2
        self.cos2 = np.cos(params.omega_r * self.t) ** 2
        self.sin2 = np.sin(params.omega_r * self.t) ** 2
        # the rotation phases w t + theta and 2 w t; theta never multiplies a(0)'s coefficient
        self.atom_phase = params.omega0 * self.t + params.theta
        self.light_phase = 2.0 * params.omega0 * self.t


def _variances(x: Terms):
    # occupation variances (light, atoms) for general phi and complex m
    quartic = (
        x.m_abs2 * x.alpha1**2
        + 2.0 * x.alpha2**2 * (2.0 * x.m_abs2 + 1.0)
        + 2.0 * x.alpha1 * x.alpha2 * x.interference
    )
    cross = x.alpha1 * x.m_abs2 + x.sinh**2 + x.interference * x.alpha2
    mixed = cross * x.sin2 * x.cos2
    return quartic * x.cos2 * x.cos2 + mixed, quartic * x.sin2 * x.sin2 + mixed


def _q_pair(x: Terms, numerator: float):
    # the stated ratio for phi = 0 and real m, times (cos^2, sin^2)(omega_r t):
    # (m^2 s^2 + numerator) / (m^2 s + sinh^2 r) - 1 with s = a1 + 2 a2
    m, shifted = x.m.real, x.alpha1 + 2.0 * x.alpha2
    factor = (m * m * shifted**2 + numerator) / (m * m * shifted + x.sinh**2) - 1.0
    return factor * x.cos2, factor * x.sin2


def _squeeze_pair(x: Terms, rotation, weight):
    # 2 sinh r [sinh r -/+ cosh r rotation] weight; the light pair swaps the signs
    s, c = x.sinh, x.cosh
    return 2.0 * s * (s - c * rotation) * weight, 2.0 * s * (s + c * rotation) * weight


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
    """A real input whose occupation m^2 (a1 + 2 a2) + sinh^2 r, the q ratio's
    divisor, is not 0 in floats: it is 0 where m^2 and r^2 (= sinh^2 r there)
    both underflow.  Tested without sinh, which overflows for r > 710."""
    m = complex(scn.input.m).real
    return real_input(scn) and (m * m > 0.0 or scn.input.r**2 > 0.0)


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

    ``literal`` and ``corrected`` map the ``Terms`` of a scenario over an
    array of times to the predicted values, a tuple for a pair; a form that
    does not depend on t returns one value for all the times.  ``observable`` maps the (light,
    atom) moments over the times to the same quantity, for the oracle and
    the moment map alike; an entry without one only fills its literal-paper
    ``columns``.  ``polar`` compares a complex value's magnitude, and its
    phase where the magnitude exceeds 1e-3, instead of the value.
    """

    name: str
    claim: str | Callable[[ScenarioConfig], str]
    domain: Callable[[ScenarioConfig], bool]
    literal: Callable[[Terms], object]
    corrected: Callable[[Terms], object] | None = None
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


# -2 sinh r e^{-r} sin^2(omega_r t), the squeezed atom quadrature at an
# aligned or crossed rotation phase (e^{-r} = cosh r - sinh r)
_squeezed_dip = lambda x: -2.0 * x.sinh * (x.cosh - x.sinh) * x.sin2  # noqa: E731


# The four vacuum-input misprints are corrected by the general number-moment
# transcriptions evaluated at m = 0: the squeezed-vacuum restatements
# disagree with them, and they agree with the moment map.
FORMULAS: list[FormulaSpec] = [
    FormulaSpec(
        "conversion-number-transfer",
        "at cos(omega_r t) = 0 the atom occupation equals the initial light occupation",
        resonant, lambda x: x.n_in, observable=lambda a, b: b.number_mean, anchors=CONVERSION,
    ),
    FormulaSpec(
        "light-number-mean", "light occupation = initial occupation times cos^2(omega_r t)",
        resonant, lambda x: x.n_in * x.cos2, observable=lambda a, b: a.number_mean,
        columns=("na_mean",),
    ),
    FormulaSpec(
        # the atom occupation as the conserved complement of the light's
        "atom-number-mean", "atom occupation = initial occupation times sin^2(omega_r t)",
        resonant, lambda x: x.n_in * x.sin2, columns=("nb_mean",),
    ),
    FormulaSpec(
        "number-variances", "light and atom number variances for general phi and complex m",
        resonant, _variances, columns=("na_var", "nb_var"),
    ),
    FormulaSpec(
        "total-occupation", "light plus atom occupation stays the initial occupation",
        resonant, lambda x: x.n_in * x.cos2 + x.n_in * x.sin2, columns=("ntotal",),
    ),
    FormulaSpec(
        "atom-number-variance-at-conversion",
        "atom number variance at conversion = m^2 (a1 + 2 a2)^2 + 2 a2^2",
        real_input, lambda x: x.m.real ** 2 * (x.alpha1 + 2 * x.alpha2) ** 2 + 2 * x.alpha2**2,
        observable=lambda a, b: b.number_var, anchors=CONVERSION,
    ),
    FormulaSpec(
        # the stated m = 0 limit pair; the atom value at t = 0 is the limit of
        # an undefined 0/0 expression and is reported as 0 by that convention
        "q-pair-vacuum", "Mandel Q pair = (sinh^2 r + cosh^2 r) (cos^2, sin^2)(omega_r t)",
        squeezed_vacuum, lambda x: (x.alpha1 * x.cos2, x.alpha1 * x.sin2),
        observable=_adjudicated_q, columns=("q_a", "q_b"),
    ),
    FormulaSpec(
        "light-squeeze-pair",
        "S1a/S2a = 2 sinh r [sinh r +/- cosh r cos(2 w t)] cos^2(omega_r t)",
        squeezed_vacuum, lambda x: _squeeze_pair(x, np.cos(x.light_phase), x.cos2)[::-1],
        columns=("s1a", "s2a"),
    ),
    FormulaSpec(
        "atom-squeeze-pair",
        "S1b/S2b = 2 sinh r [sinh r -/+ cosh r cos(2(w t + theta))] sin^2(omega_r t)",
        squeezed_vacuum, lambda x: _squeeze_pair(x, np.cos(2.0 * x.atom_phase), x.sin2),
        observable=lambda a, b: squeeze_coeffs(b), columns=("s1b", "s2b"),
    ),
    FormulaSpec(
        "atom-squeeze-aligned-phase",
        "at w t + theta = n pi quadrature X1b is squeezed: "
        "S1b = -2 sinh r e^{-r} sin^2(omega_r t) with S2b > 0",
        squeezed_vacuum, _squeezed_dip, observable=_squeezed_component(0), anchors=ALIGNED,
    ),
    FormulaSpec(
        "atom-squeeze-crossed-phase",
        "at w t + theta = (n + 1/2) pi the squeezing moves to X2b: "
        "S2b = -2 sinh r e^{-r} sin^2(omega_r t) with S1b > 0",
        squeezed_vacuum, _squeezed_dip, observable=_squeezed_component(1), anchors=CROSSED,
    ),
    FormulaSpec(
        "light-number-square-vacuum",
        "as stated <Na^2> = (2 a2 + sinh^4 r) cos^4(omega_r t); corrected "
        "(2 a2^2 + sinh^4 r) cos^4 + sinh^2 r sin^2 cos^2",
        squeezed_vacuum, lambda x: (2 * x.sinh * x.cosh + x.sinh**4) * x.cos2**2,
        corrected=lambda x: _variances(x)[0] + (x.n_in * x.cos2) ** 2,
        observable=lambda a, b: a.number_sq,
    ),
    FormulaSpec(
        "light-number-variance-vacuum",
        "as stated <dNa^2> = sqrt(2) sinh r cos^4(omega_r t); corrected "
        "2 sinh^2 r cosh^2 r cos^4 + sinh^2 r sin^2 cos^2",
        squeezed_vacuum, lambda x: math.sqrt(2.0) * x.sinh * x.cos2**2,
        corrected=lambda x: _variances(x)[0], observable=lambda a, b: a.number_var,
    ),
    FormulaSpec(
        "atom-number-variance-vacuum",
        "as stated <dNb^2> = sqrt(2) sinh r cosh r sin^4(omega_r t); corrected "
        "2 sinh^2 r cosh^2 r sin^4 + sinh^2 r sin^2 cos^2",
        squeezed_vacuum, lambda x: math.sqrt(2.0) * x.sinh * x.cosh * x.sin2**2,
        corrected=lambda x: _variances(x)[1], observable=lambda a, b: b.number_var,
    ),
    FormulaSpec(
        "atom-number-mean-vacuum",
        "as stated <b†b> = sinh^2 r cosh^2 r sin^2(omega_r t); corrected "
        "sinh^2 r sin^2(omega_r t)",
        squeezed_vacuum, lambda x: x.sinh**2 * x.cosh**2 * x.sin2,
        corrected=lambda x: x.n_in * x.sin2, observable=lambda a, b: b.number_mean,
    ),
    FormulaSpec(
        "atom-squared-amplitude-vacuum",
        "<b^2(t)> = -sinh r cosh r e^{-2i(w t + theta)} sin^2(omega_r t); "
        "magnitude and phase compared separately",
        squeezed_vacuum, lambda x: -x.sinh * x.cosh * np.exp(-2j * x.atom_phase) * x.sin2,
        observable=lambda a, b: b.sq_amp, polar=True,
    ),
    FormulaSpec(
        # evaluated as written, with its suspected "2 a2" numerator misprint;
        # 2 a2^2 is consistent with both the m = 0 limit pair and the moment map
        "q-pair-real-input",
        lambda scn: "as stated the q prefactor numerator carries 2 a2; corrected 2 a2^2"
        + (" (evaluated in the m = 0 limit)" if scn.input.m == 0 else ""),
        occupied_real_input, lambda x: _q_pair(x, 2.0 * x.alpha2),
        corrected=lambda x: _q_pair(x, 2.0 * x.alpha2**2), observable=_adjudicated_q,
        columns=("q_a", "q_b"), against_map=False,
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
    u = propagator_at(scn.params, times)
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
    table, terms = np.full((len(times), len(PHYSICS_COLUMNS)), NA), None
    for spec in reversed(FORMULAS):
        if spec.columns and spec.domain(scn):
            terms = terms or Terms(scn, times)  # none where no entry is in domain
            values = np.reshape(spec.literal(terms), (len(spec.columns), len(terms.t)))
            table[:, [PHYSICS_COLUMNS.index(name) for name in spec.columns]] = values.T
    return table


def check_table(table: np.ndarray, times, source: str, gaps=()) -> None:
    """Raise InvariantViolationError on a physically impossible table entry.

    That is a number variance below 0 or a squeeze coefficient below -1, each
    by more than 1e-9 of roundoff, or a value that is not finite outside a
    domain gap.  The gaps are the ``gaps`` columns and a Mandel Q whose mode
    mean is at or below Q_MEAN_FLOOR.
    """
    col = PHYSICS_COLUMNS.index
    allowed = np.zeros(table.shape, dtype=bool)
    allowed[:, [col(name) for name in gaps]] = True
    allowed[:, col("q_a")] |= table[:, col("na_mean")] <= Q_MEAN_FLOOR
    allowed[:, col("q_b")] |= table[:, col("nb_mean")] <= Q_MEAN_FLOOR
    bound = np.full(len(PHYSICS_COLUMNS), -np.inf)
    bound[[col("na_var"), col("nb_var")]] = 0.0
    bound[[col(name) for name in ("s1a", "s2a", "s1b", "s2b")]] = -1.0
    bad = ~(np.isfinite(table) | allowed) | (table < bound - 1e-9)
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
    each field agrees to phase roundoff, (1e-13 + eps t_max n_max (max |omega| + omega_r))
    (1 + |input moment|), a slack at most 1e-6; InvariantViolationError otherwise, NaN too."""
    times = np.asarray(times, dtype=float)
    phase = max(abs(params.omega0), abs(params.omega_a)) + params.omega_r
    slack = 1e-13 + np.finfo(float).eps * np.max(times) * (len(light) - 1) * phase
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
