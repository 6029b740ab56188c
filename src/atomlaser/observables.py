"""Observable functionals, physics tables, and the transcribed closed-form predictions.

Each of the three output sources evaluates the whole time grid at once and
returns one (T, 11) float table whose columns are PHYSICS_COLUMNS:

* ``literal-paper``  -- the resonant closed-form predictions transcribed
  as originally stated (including their suspected misprints; the verify
  report adjudicates those),
* ``moment-map``     -- exact propagation of the input-mode moments through
  the transfer matrix,
* ``oracle``         -- truncated Fock-space evolution (oracle module).

A NaN entry marks a domain gap: a closed form outside its scenario, or a
Mandel Q of a (numerically) vacuum mode.  ``check_table`` rejects any other
value that is not finite.  Number moments are independent of the condensate
phase theta; theta enters only the quadrature phases of the atom mode.
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
# Transcribed closed forms (the literal-paper source).  All are derived at
# resonance; q and squeeze pairs additionally need phi = 0 and real / zero m.
# Each takes one time or an array of times.
# ----------------------------------------------------------------------------


def _require_resonant(params: ModelParams) -> None:
    if not params.resonant:
        raise ResonanceError(
            "the transcribed closed forms are only defined at resonance"
        )


def _interference(inp: SqueezedInput) -> float:
    # 2 Re(m^2 e^{2 i phi}), the displacement-squeeze interference term
    return float(2.0 * ((inp.m * inp.m) * np.exp(2j * inp.phi)).real)


def _is_real_input(inp: SqueezedInput) -> bool:
    return inp.phi == 0.0 and complex(inp.m).imag == 0.0


def _is_squeezed_vacuum(inp: SqueezedInput) -> bool:
    return inp.m == 0 and inp.phi == 0.0


def _real_input(inp: SqueezedInput) -> float:
    if not _is_real_input(inp):
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
    return literal_input_number_mean(scn) * np.cos(scn.params.omega_r * t) ** 2


def literal_nb_mean(scn: ScenarioConfig, t: float) -> float:
    """Atom-mode occupation as the conserved complement of the light mode."""
    _require_resonant(scn.params)
    return literal_input_number_mean(scn) * np.sin(scn.params.omega_r * t) ** 2


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
    cos2 = np.cos(scn.params.omega_r * t) ** 2
    sin2 = np.sin(scn.params.omega_r * t) ** 2
    mixed = cross * sin2 * cos2
    return quartic * cos2 * cos2 + mixed, quartic * sin2 * sin2 + mixed


def _q_pair(scn: ScenarioConfig, t, numerator: float, m0_factor: float | None = None):
    # factor (cos^2, sin^2)(omega_r t) for phi = 0 and real m, with
    # factor = (m^2 s^2 + numerator) / (m^2 s + sinh^2 r) - 1 and s = a1 + 2 a2;
    # m0_factor, if given, replaces the ratio at m = 0
    _require_resonant(scn.params)
    m = _real_input(scn.input)
    al = AlphaPair.from_r(scn.input.r)
    if m == 0.0 and m0_factor is not None:
        factor = m0_factor
    else:
        shifted = al.alpha1 + 2.0 * al.alpha2
        factor = (m * m * shifted**2 + numerator) / (
            m * m * shifted + math.sinh(scn.input.r) ** 2
        ) - 1.0
    wt = scn.params.omega_r * t
    return factor * np.cos(wt) ** 2, factor * np.sin(wt) ** 2


def literal_q_pair(scn: ScenarioConfig, t: float) -> tuple[float, float]:
    """Mandel-Q pair (light, atoms) as transcribed, for phi = 0 and real m.

    For m = 0 this returns the stated limit pair (a1 cos^2, a1 sin^2); the
    atom-mode value at t = 0 is the limit of an undefined 0/0 expression and
    is reported as 0 by that convention.  For m != 0 the transcribed ratio is
    evaluated as written, including its suspected "2 a2" numerator misprint
    (the verify report adjudicates it against the oracle).
    """
    al = AlphaPair.from_r(scn.input.r)
    return _q_pair(scn, t, 2.0 * al.alpha2, m0_factor=al.alpha1)


def corrected_q_pair(scn: ScenarioConfig, t: float) -> tuple[float, float]:
    """The q pair with the numerator term 2 a2 replaced by 2 a2^2.

    This is the form consistent with both the m = 0 limit pair and the moment
    map; used by the verify report as the registered correction.
    """
    return _q_pair(scn, t, 2.0 * AlphaPair.from_r(scn.input.r).alpha2 ** 2)


def _require_vacuum_squeezed(inp: SqueezedInput) -> None:
    if not _is_squeezed_vacuum(inp):
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
    rotation = np.cos(2.0 * (scn.params.omega0 * t + scn.params.theta))
    sin2 = np.sin(scn.params.omega_r * t) ** 2
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
    rotation = np.cos(2.0 * scn.params.omega0 * t)
    cos2 = np.cos(scn.params.omega_r * t) ** 2
    return (
        2.0 * s * (s + c * rotation) * cos2,
        2.0 * s * (s - c * rotation) * cos2,
    )


def literal_atom_sq_amp(scn: ScenarioConfig, t: float) -> complex:
    """Transcribed <b^2(t)> = -sinh r cosh r e^{-2i(w t + theta)} sin^2(omega_r t)."""
    _require_resonant(scn.params)
    _require_vacuum_squeezed(scn.input)
    rotation = np.exp(-2j * (scn.params.omega0 * t + scn.params.theta))
    sin2 = np.sin(scn.params.omega_r * t) ** 2
    return complex(-math.sinh(scn.input.r) * math.cosh(scn.input.r) * rotation * sin2)


def literal_atom_number_mean_as_stated(scn: ScenarioConfig, t: float) -> float:
    """Transcribed <b†b(t)> = sinh^2 r cosh^2 r sin^2(omega_r t) (typo-suspect).

    The cosh^2 r factor is inconsistent with complete conversion of
    sinh^2 r; the verify report adjudicates it.
    """
    _require_resonant(scn.params)
    _require_vacuum_squeezed(scn.input)
    r = scn.input.r
    return math.sinh(r) ** 2 * math.cosh(r) ** 2 * np.sin(scn.params.omega_r * t) ** 2


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
    """The literal-paper columns outside the closed forms' domain (written NaN).

    Detuned parameters leave out every column, complex m or nonzero phi the
    q pair, and any input but the squeezed vacuum the four squeeze columns.
    """
    if not scn.params.resonant:
        return PHYSICS_COLUMNS
    gaps: tuple[str, ...] = ()
    if not _is_real_input(scn.input):
        gaps += ("q_a", "q_b")
    if not _is_squeezed_vacuum(scn.input):
        gaps += ("s1a", "s2a", "s1b", "s2b")
    return gaps


def literal_table(scn: ScenarioConfig, times) -> np.ndarray:
    """The literal-paper source: the transcribed closed forms at each time."""
    times = np.asarray(times, dtype=float)
    table = np.full((len(times), len(PHYSICS_COLUMNS)), NA)
    gaps = literal_gaps(scn)
    if gaps == PHYSICS_COLUMNS:
        return table
    values = {"na_mean": literal_na_mean(scn, times), "nb_mean": literal_nb_mean(scn, times)}
    values["na_var"], values["nb_var"] = literal_number_variances(scn, times)
    if "q_a" not in gaps:
        values["q_a"], values["q_b"] = literal_q_pair(scn, times)
    if "s1a" not in gaps:
        values["s1a"], values["s2a"] = literal_light_squeeze_pair(scn, times)
        values["s1b"], values["s2b"] = literal_atom_squeeze_pair(scn, times)
    values["ntotal"] = values["na_mean"] + values["nb_mean"]
    for name, column in values.items():
        table[:, PHYSICS_COLUMNS.index(name)] = column
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
