"""Adjudication of the transcribed closed forms against the moment map and oracle.

Every entry of ``observables.FORMULAS`` that has an observable and is inside
its domain becomes one report row.  Its literal form (and corrected form, if
registered) is evaluated on the times of its anchor family (the scenario
grid, the conversion times, or the aligned / crossed rotation phases), and
the entry's observable is read from the oracle and the moment map at the
same times:

* CONFIRMED     -- the transcription matches the oracle within tolerance,
                   and the moment map within the algebraic tolerance
                   wherever the map supplies the field,
* TYPO-SUSPECT  -- it does not, but the registered corrected form does,
* UNRESOLVED    -- neither matches, or the transcription matches the
                   oracle but not the moment map.

The oracle evolves the truncated input exactly, so its whole error is the
moment map of the truncated input less that of the exact input; each row's
oracle tolerance is tol_oracle plus that term for its form, at its times.

This module holds no per-formula code: a new formula is one new registry
entry, and it appears here as one more row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import squeezed_coherent_state
from .observables import (
    ALIGNED,
    CONVERSION,
    CROSSED,
    FORMULAS,
    GRID,
    NA,
    ScenarioConfig,
    Terms,
    UsageError,
    input_moments,
)
from .oracle import evolve_checked
from .propagator import ModelParams, heisenberg_moment_map, propagator_at

CONFIRMED = "CONFIRMED"
TYPO_SUSPECT = "TYPO-SUSPECT"
UNRESOLVED = "UNRESOLVED"

# anchor times with sin^2(omega_r t) below this carry no squeezing signal
_MIN_SIGNAL_SIN2 = 0.2

# the most conversion and phase anchor times (counted before the sin^2
# filter) one report evaluates.  The oracle evolves every anchor, and its
# time grows linearly with their number: measured as fresh processes on 2
# cores with one BLAS thread, verify --omega0 1e4 --omega-a 1e4 counts 40,000
# and takes 1.4-1.6 s, and --omega0 2.4e4, just under this cap, 2.9-3.6 s.
MAX_ANCHOR_TIMES = 100_000

# default tolerances: the largest |closed form - moment map| of a CONFIRMED
# verdict, and the oracle slack beyond each form's truncation term
TOL_ALGEBRAIC = 1e-8
TOL_ORACLE = 1e-6

@dataclass(frozen=True)
class FormulaCheck:
    """Verdict for one registered formula."""

    name: str
    claim: str
    verdict: str
    n_points: int
    dev_literal_oracle: float
    dev_corrected_oracle: float  # NaN when no correction is registered
    dev_literal_map: float       # NaN when the moment map does not supply the field
    tolerance: float


@dataclass(frozen=True)
class DiscrepancyReport:
    """All formula verdicts for one scenario."""

    scenario: ScenarioConfig
    checks: list[FormulaCheck]
    tol_algebraic: float
    tol_oracle: float

    @property
    def unresolved(self) -> int:
        return sum(1 for check in self.checks if check.verdict == UNRESOLVED)

    def render(self) -> str:
        scn = self.scenario
        lines = ["formula adjudication report"]
        lines.append(
            "scenario: r=%s phi=%s m=%s theta=%s omega0=%s omega_a=%s "
            "omega_r=%s n_max=%d"
            % (
                _g(scn.input.r),
                _g(scn.input.phi),
                _g(scn.input.m),
                _g(scn.params.theta),
                _g(scn.params.omega0),
                _g(scn.params.omega_a),
                _g(scn.params.omega_r),
                scn.n_max,
            )
        )
        lines.append(
            "tolerances: algebraic=%s oracle=%s plus each form's truncation term"
            % (_g(self.tol_algebraic), _g(self.tol_oracle))
        )
        lines.append("")
        row = "{:<36} {:<13} {:>12} {:>13} {:>12} {:>4} {:>9}".format
        header = row(*"formula verdict |lit-oracle| |corr-oracle| |lit-map| pts tol".split())
        lines.append(header)
        lines.append("-" * len(header))
        for check in self.checks:
            lines.append(row(check.name, check.verdict, _e(check.dev_literal_oracle),
                             _e(check.dev_corrected_oracle), _e(check.dev_literal_map),
                             check.n_points, _e(check.tolerance)))
        lines.append("-" * len(header))
        lines.append(f"unresolved: {self.unresolved}")
        lines.append("")
        for check in self.checks:
            lines.append(f"{check.name}: {check.claim}")
        return "\n".join(lines) + "\n"


def _g(x) -> str:
    if isinstance(x, complex):
        return f"{x.real:.12g}{x.imag:+.12g}j"
    return f"{x:.12g}"


def _e(x: float) -> str:
    if math.isnan(x):
        return "-"
    if math.isinf(x):
        return "inf"
    return f"{x:.3e}"


def anchor_times(params: ModelParams, grid: np.ndarray, families) -> dict[str, np.ndarray]:
    """The times of each anchor family in ``families`` up to the end of ``grid``.

    Each family but the grid is the progression omega t + shift = offset + k pi,
    k >= 0, kept where sin^2(omega_r t) >= 0.2 (every conversion time is).
    Raises UsageError when those families together would hold more than
    MAX_ANCHOR_TIMES times; the count comes from each family's index bounds,
    computed in floats before any int or array is built.
    """
    t_max = float(grid[-1])
    # omega0 t + theta = offset + k pi  <=>  |omega0| t + s theta = s (offset + k pi), s the
    # sign of omega0, and s (offset + k pi) runs over the same family (-pi/2 = pi/2 mod pi):
    # the phase passes every anchor whenever omega0 != 0, in either direction
    omega0, theta = abs(params.omega0), math.copysign(1.0, params.omega0) * params.theta
    progression = {
        CONVERSION: (params.omega_r, 0.0, 0.5 * math.pi),
        ALIGNED: (omega0, theta, 0.0),
        CROSSED: (omega0, theta, 0.5 * math.pi),
    }
    anchors, bounds = {GRID: grid}, {}
    for family in set(families) - {GRID}:
        omega, shift, offset = progression[family]
        if omega == 0.0:  # the phase never advances
            anchors[family] = np.empty(0)
        else:  # t_k = (offset + k pi - shift) / omega in [-1e-12, t_max + 1e-12]
            lo = (shift - offset - 1e-12 * omega) / math.pi
            hi = ((t_max + 1e-12) * omega + shift - offset) / math.pi
            bounds[family] = (max(lo, 0.0), hi)
    count = sum(max(hi - lo + 1.0, 0.0) for lo, hi in bounds.values())
    if not count <= MAX_ANCHOR_TIMES:
        raise UsageError(
            f"verify would evaluate {count:.3g} anchor times up to t = {t_max:g}, more "
            f"than {MAX_ANCHOR_TIMES}; lower --t-max, --omega0 or --omega-r"
        )
    for family, (lo, hi) in bounds.items():
        omega, shift, offset = progression[family]
        # one index of margin on each side; the exact bounds are applied to t
        start = max(math.floor(lo) - 1, 0)
        k = start + np.arange(max(math.floor(hi) + 2 - start, 0), dtype=float)
        t = (offset + k * math.pi - shift) / omega
        t = t[(t >= -1e-12) & (t <= t_max + 1e-12)]
        anchors[family] = np.maximum(t[np.sin(params.omega_r * t) ** 2 >= _MIN_SIGNAL_SIN2], 0.0)
    return anchors


def _max_dev(literal_values, reference_values, polar: bool = False) -> float:
    """Largest |literal - reference| where neither side is NaN; inf if either is infinite there.

    ``polar`` compares magnitudes, and phases where |literal| > 1e-3.
    """
    lit, ref = np.broadcast_arrays(np.asarray(literal_values), np.asarray(reference_values))
    if polar:
        turn = np.where(np.abs(lit) > 1e-3, np.abs(np.angle(ref * np.conj(lit))), 0.0)
        return float(np.max(np.maximum(np.abs(np.abs(lit) - np.abs(ref)), turn), initial=0.0))
    both = ~(np.isnan(lit) | np.isnan(ref))
    if np.any(np.isinf(lit[both]) | np.isinf(ref[both])):
        return math.inf
    return float(np.max(np.abs(lit - ref), where=both, initial=0.0))


def _verdict(
    dev_literal: float, dev_corrected: float, dev_map: float, tol: float, tol_algebraic: float
) -> str:
    if dev_literal <= tol:
        # a NaN dev_map means the moment map does not supply the field
        return UNRESOLVED if dev_map > tol_algebraic else CONFIRMED
    if not math.isnan(dev_corrected) and dev_corrected <= tol:
        return TYPO_SUSPECT
    return UNRESOLVED


def discrepancy_report(
    scn: ScenarioConfig,
    grid,
    tol_algebraic: float = TOL_ALGEBRAIC,
    tol_oracle: float = TOL_ORACLE,
) -> DiscrepancyReport:
    """Check every in-domain registered formula and return the verdict table."""
    grid = np.unique(np.asarray(grid, dtype=float))
    if not len(grid):
        raise ValueError("time grid is empty")
    specs = [spec for spec in FORMULAS if spec.observable is not None and spec.domain(scn)]
    if not specs:
        raise UsageError("no registered formula applies to this scenario")
    anchors = anchor_times(scn.params, grid, {spec.anchors for spec in specs})
    specs = [spec for spec in specs if len(anchors[spec.anchors])]
    # the grid first, so the oracle steps through it; then the anchors off it
    all_times = np.concatenate((grid, np.setdiff1d(np.concatenate(list(anchors.values())), grid)))
    order = np.argsort(all_times)

    light = squeezed_coherent_state(scn.input, scn.n_max)
    [(oracle, truncated)] = evolve_checked([(scn.params, light)], all_times)
    mapped = heisenberg_moment_map(propagator_at(scn.params, all_times), input_moments(scn.input))

    terms = {family: Terms(scn, times) for family, times in anchors.items()}
    checks = []
    for spec in specs:
        times = anchors[spec.anchors]
        at = order[np.searchsorted(all_times[order], times)]
        literal = spec.literal(terms[spec.anchors])
        observed = np.asarray(spec.observable(*oracle))[..., at]
        dev_lo = _max_dev(literal, observed, spec.polar)
        dev_co = NA
        if spec.corrected is not None:
            dev_co = _max_dev(spec.corrected(terms[spec.anchors]), observed, spec.polar)
        exact = np.asarray(spec.observable(*mapped))[..., at]
        kept = np.asarray(spec.observable(*truncated))[..., at]
        tol = tol_oracle + _max_dev(exact, kept, spec.polar)
        dev_lm = _max_dev(literal, exact, spec.polar) if spec.against_map else NA
        verdict = _verdict(dev_lo, dev_co, dev_lm, tol, tol_algebraic)
        checks.append(FormulaCheck(
            spec.name, spec.claim_for(scn), verdict, len(times), dev_lo, dev_co, dev_lm, tol
        ))

    return DiscrepancyReport(scn, checks, tol_algebraic, tol_oracle)
