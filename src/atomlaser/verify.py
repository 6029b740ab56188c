"""Adjudication of the transcribed closed forms against the moment map and oracle.

Each registered formula is evaluated over the scenario time grid (plus its
natural anchor times: conversion times, aligned / crossed rotation phases) and
compared to the truncated-Fock-space oracle:

* CONFIRMED     -- the transcription matches the oracle within tolerance,
                   and the moment map within the algebraic tolerance
                   wherever the map supplies the field,
* TYPO-SUSPECT  -- it does not, but the registered corrected form does,
* UNRESOLVED    -- neither matches, or the transcription matches the
                   oracle but not the moment map.

Oracle comparisons use a tolerance scaled by the input state's reported tail
mass, because the oracle's error is truncation-dominated: the discarded
occupation-squared weight is bounded by tail_mass * n_max^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import squeezed_coherent_state
from .observables import (
    AlphaPair,
    ScenarioConfig,
    corrected_q_pair,
    input_moments,
    literal_atom_number_mean_as_stated,
    literal_atom_sq_amp,
    literal_atom_squeeze_pair,
    literal_input_number_mean,
    literal_na_mean,
    literal_q_pair,
    mandel_q,
    squeeze_coeffs,
)
from .oracle import evolve
from .propagator import (
    ResonanceError,
    conversion_times,
    heisenberg_moment_map,
    propagator_at,
)

CONFIRMED = "CONFIRMED"
TYPO_SUSPECT = "TYPO-SUSPECT"
UNRESOLVED = "UNRESOLVED"

NAN = float("nan")

# anchor times with sin^2(omega_r t) below this carry no squeezing signal
_MIN_SIGNAL_SIN2 = 0.2
_Q_FLOOR = 1e-6


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
    tol_oracle_scaled: float
    input_tail_mass: float

    @property
    def unresolved(self) -> int:
        return sum(1 for check in self.checks if check.verdict == UNRESOLVED)

    def verdict_of(self, name: str) -> str:
        for check in self.checks:
            if check.name == name:
                return check.verdict
        raise KeyError(name)

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
                scn.truncation.n_max,
            )
        )
        lines.append(
            "tolerances: algebraic=%s oracle=%s oracle-scaled=%s (input tail mass %s)"
            % (
                _g(self.tol_algebraic),
                _g(self.tol_oracle),
                _g(self.tol_oracle_scaled),
                _g(self.input_tail_mass),
            )
        )
        lines.append("")
        header = (
            f"{'formula':<36} {'verdict':<13} {'|lit-oracle|':>12} "
            f"{'|corr-oracle|':>13} {'|lit-map|':>12} {'pts':>4}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for check in self.checks:
            lines.append(
                f"{check.name:<36} {check.verdict:<13} "
                f"{_e(check.dev_literal_oracle):>12} "
                f"{_e(check.dev_corrected_oracle):>13} "
                f"{_e(check.dev_literal_map):>12} {check.n_points:>4}"
            )
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


def _phase_anchor_times(params, t_max: float, offset: float) -> list[float]:
    """Times with omega0 t + theta = offset + k pi and a usable sin^2(omega_r t)."""
    if params.omega0 <= 0.0:
        return []
    anchors = []
    k = 0
    while True:
        t = (offset + k * math.pi - params.theta) / params.omega0
        k += 1
        if t < -1e-12:
            continue
        if t > t_max + 1e-12:
            break
        if math.sin(params.omega_r * t) ** 2 >= _MIN_SIGNAL_SIN2:
            anchors.append(max(t, 0.0))
    return anchors


def _max_dev(literal_values, reference_values) -> float:
    """Largest |literal - reference| where neither side is NaN; inf if either is infinite there."""
    lit = np.asarray(literal_values, dtype=float)
    ref = np.asarray(reference_values, dtype=float)
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


def _pairs(first, second):
    """Per-index (first[i], second[i]) lookup over two arrays."""
    return lambda i: (first[i], second[i])


def discrepancy_report(
    scn: ScenarioConfig,
    time_grid,
    tol_algebraic: float = 1e-8,
    tol_oracle: float = 1e-6,
) -> DiscrepancyReport:
    """Evaluate every applicable registered formula and return the verdict table."""
    if not scn.params.resonant:
        raise ResonanceError("the adjudication report needs a resonant scenario")
    params = scn.params
    inp = scn.input
    # the squeezed-vacuum forms divide by sinh^2 r; r = 0 is outside their domain
    vacuum_input = inp.m == 0 and inp.phi == 0.0 and inp.r > 0.0
    real_input = complex(inp.m).imag == 0.0 and inp.phi == 0.0

    grid = sorted({float(t) for t in np.asarray(time_grid, dtype=float)})
    if not grid:
        raise ValueError("time grid is empty")
    t_max = grid[-1]
    n_conv = 1 + int(t_max * params.omega_r / math.pi)
    conv = [t for t in conversion_times(params, n_conv) if t <= t_max + 1e-12]
    aligned = _phase_anchor_times(params, t_max, 0.0) if vacuum_input else []
    crossed = _phase_anchor_times(params, t_max, 0.5 * math.pi) if vacuum_input else []
    all_times = np.unique(np.asarray(grid + conv + aligned + crossed))

    light = squeezed_coherent_state(inp, scn.truncation)
    oracle_a, oracle_b = evolve(params, light, all_times).moments
    map_a, map_b = heisenberg_moment_map(propagator_at(params, all_times), input_moments(inp))
    oracle_q = _pairs(mandel_q(oracle_a, _Q_FLOOR), mandel_q(oracle_b, _Q_FLOOR))
    map_q = _pairs(mandel_q(map_a, _Q_FLOOR), mandel_q(map_b, _Q_FLOOR))
    oracle_sq_b = squeeze_coeffs(oracle_b)
    map_sq_b = squeeze_coeffs(map_b)

    index = {float(t): i for i, t in enumerate(all_times)}
    tol_scaled = tol_oracle + light.tail_mass * scn.truncation.n_max**2
    al = AlphaPair.from_r(inp.r)
    sinh_r = math.sinh(inp.r)
    cosh_r = math.cosh(inp.r)
    checks: list[FormulaCheck] = []

    def record(name, claim, n_points, dev_lo, dev_co, dev_lm):
        verdict = _verdict(dev_lo, dev_co, dev_lm, tol_scaled, tol_algebraic)
        checks.append(
            FormulaCheck(name, claim, verdict, n_points, dev_lo, dev_co, dev_lm, tol_scaled)
        )

    def add(name, claim, times, literal, oracle, corrected=None, map_vals=None):
        idxs = [index[float(t)] for t in times]
        lit = [literal(t) for t in times]
        orc = [oracle(i) for i in idxs]
        dev_lo = _max_dev(lit, orc)
        dev_co = NAN
        if corrected is not None:
            dev_co = _max_dev([corrected(t) for t in times], orc)
        dev_lm = NAN
        if map_vals is not None:
            dev_lm = _max_dev(lit, [map_vals(i) for i in idxs])
        record(name, claim, len(times), dev_lo, dev_co, dev_lm)

    def wrt(t: float) -> float:
        return params.omega_r * t

    input_mean = literal_input_number_mean(scn)

    if conv:
        add(
            "conversion-number-transfer",
            "at cos(omega_r t) = 0 the atom occupation equals the initial light occupation",
            conv,
            lambda t: input_mean,
            lambda i: oracle_b.number_mean[i],
            map_vals=lambda i: map_b.number_mean[i],
        )

    add(
        "light-number-mean",
        "light occupation = initial occupation times cos^2(omega_r t)",
        grid,
        lambda t: literal_na_mean(scn, t),
        lambda i: oracle_a.number_mean[i],
        map_vals=lambda i: map_a.number_mean[i],
    )

    if conv and real_input:
        m_real = complex(inp.m).real
        add(
            "atom-number-variance-at-conversion",
            "atom number variance at conversion = m^2 (a1 + 2 a2)^2 + 2 a2^2",
            conv,
            lambda t: m_real**2 * (al.alpha1 + 2 * al.alpha2) ** 2
            + 2 * al.alpha2**2,
            lambda i: oracle_b.number_var[i],
            map_vals=lambda i: map_b.number_var[i],
        )

    if vacuum_input:
        add(
            "q-pair-vacuum",
            "Mandel Q pair = (sinh^2 r + cosh^2 r) (cos^2, sin^2)(omega_r t)",
            grid,
            lambda t: (
                al.alpha1 * math.cos(wrt(t)) ** 2,
                al.alpha1 * math.sin(wrt(t)) ** 2,
            ),
            oracle_q,
            map_vals=map_q,
        )

        add(
            "atom-squeeze-pair",
            "S1b/S2b = 2 sinh r [sinh r -/+ cosh r cos(2(w t + theta))] sin^2(omega_r t)",
            grid,
            lambda t: literal_atom_squeeze_pair(scn, t),
            _pairs(*oracle_sq_b),
            map_vals=_pairs(*map_sq_b),
        )

        def squeezed_component(pair, which: int):
            # the claimed-squeezed component, or inf where its partner is not
            # anti-squeezed (a sign violation must fail the check, not skip it)
            values = np.where(pair[1 - which] <= 0.0, math.inf, pair[which])
            return lambda i: values[i]

        if aligned:
            add(
                "atom-squeeze-aligned-phase",
                "at w t + theta = n pi quadrature X1b is squeezed: "
                "S1b = -2 sinh r e^{-r} sin^2(omega_r t) with S2b > 0",
                aligned,
                lambda t: -2.0 * sinh_r * math.exp(-inp.r) * math.sin(wrt(t)) ** 2,
                squeezed_component(oracle_sq_b, 0),
                map_vals=squeezed_component(map_sq_b, 0),
            )
        if crossed:
            add(
                "atom-squeeze-crossed-phase",
                "at w t + theta = (n + 1/2) pi the squeezing moves to X2b: "
                "S2b = -2 sinh r e^{-r} sin^2(omega_r t) with S1b > 0",
                crossed,
                lambda t: -2.0 * sinh_r * math.exp(-inp.r) * math.sin(wrt(t)) ** 2,
                squeezed_component(oracle_sq_b, 1),
                map_vals=squeezed_component(map_sq_b, 1),
            )

        add(
            "light-number-square-vacuum",
            "as stated <Na^2> = (2 a2 + sinh^4 r) cos^4(omega_r t); corrected "
            "(2 a2^2 + sinh^4 r) cos^4 + sinh^2 r sin^2 cos^2",
            grid,
            lambda t: (2 * al.alpha2 + sinh_r**4) * math.cos(wrt(t)) ** 4,
            lambda i: oracle_a.number_sq[i],
            corrected=lambda t: (2 * al.alpha2**2 + sinh_r**4)
            * math.cos(wrt(t)) ** 4
            + sinh_r**2 * math.sin(wrt(t)) ** 2 * math.cos(wrt(t)) ** 2,
            map_vals=lambda i: map_a.number_sq[i],
        )
        add(
            "light-number-variance-vacuum",
            "as stated <dNa^2> = sqrt(2) sinh r cos^4(omega_r t); corrected "
            "2 sinh^2 r cosh^2 r cos^4 + sinh^2 r sin^2 cos^2",
            grid,
            lambda t: math.sqrt(2.0) * sinh_r * math.cos(wrt(t)) ** 4,
            lambda i: oracle_a.number_var[i],
            corrected=lambda t: 2 * (sinh_r * cosh_r) ** 2 * math.cos(wrt(t)) ** 4
            + sinh_r**2 * math.sin(wrt(t)) ** 2 * math.cos(wrt(t)) ** 2,
            map_vals=lambda i: map_a.number_var[i],
        )
        add(
            "atom-number-variance-vacuum",
            "as stated <dNb^2> = sqrt(2) sinh r cosh r sin^4(omega_r t); corrected "
            "2 sinh^2 r cosh^2 r sin^4 + sinh^2 r sin^2 cos^2",
            grid,
            lambda t: math.sqrt(2.0) * sinh_r * cosh_r * math.sin(wrt(t)) ** 4,
            lambda i: oracle_b.number_var[i],
            corrected=lambda t: 2 * (sinh_r * cosh_r) ** 2 * math.sin(wrt(t)) ** 4
            + sinh_r**2 * math.sin(wrt(t)) ** 2 * math.cos(wrt(t)) ** 2,
            map_vals=lambda i: map_b.number_var[i],
        )
        add(
            "atom-number-mean-vacuum",
            "as stated <b†b> = sinh^2 r cosh^2 r sin^2(omega_r t); corrected "
            "sinh^2 r sin^2(omega_r t)",
            grid,
            lambda t: literal_atom_number_mean_as_stated(scn, t),
            lambda i: oracle_b.number_mean[i],
            corrected=lambda t: sinh_r**2 * math.sin(wrt(t)) ** 2,
            map_vals=lambda i: map_b.number_mean[i],
        )

        # <b^2(t)>: magnitude and phase adjudicated separately (phase only
        # where the magnitude is large enough to define one)
        lit_sq = [literal_atom_sq_amp(scn, t) for t in grid]
        orc_sq = [oracle_b.sq_amp[index[float(t)]] for t in grid]
        map_sq = [map_b.sq_amp[index[float(t)]] for t in grid]
        dev_mag = max(
            (abs(abs(l) - abs(o)) for l, o in zip(lit_sq, orc_sq)), default=0.0
        )
        dev_phase = max(
            (
                abs(math.remainder(float(np.angle(o)) - float(np.angle(l)), 2.0 * math.pi))
                for l, o in zip(lit_sq, orc_sq)
                if abs(l) > 1e-3
            ),
            default=0.0,
        )
        dev_lo = max(dev_mag, dev_phase)
        dev_lm = max((abs(l - mv) for l, mv in zip(lit_sq, map_sq)), default=0.0)
        record(
            "atom-squared-amplitude-vacuum",
            "<b^2(t)> = -sinh r cosh r e^{-2i(w t + theta)} sin^2(omega_r t); "
            "magnitude and phase compared separately",
            len(grid), dev_lo, NAN, dev_lm,
        )

        # the q-ratio numerator misprint, evaluated in the m = 0 limit of the
        # stated expression: 2 a2 / sinh^2 r - 1 versus 2 a2^2 / sinh^2 r - 1
        ratio_stated = 2 * al.alpha2 / sinh_r**2 - 1.0
        ratio_fixed = 2 * al.alpha2**2 / sinh_r**2 - 1.0
        add(
            "q-pair-real-input",
            "as stated the q prefactor numerator carries 2 a2; corrected 2 a2^2 "
            "(evaluated in the m = 0 limit)",
            grid,
            lambda t: (
                ratio_stated * math.cos(wrt(t)) ** 2,
                ratio_stated * math.sin(wrt(t)) ** 2,
            ),
            oracle_q,
            corrected=lambda t: (
                ratio_fixed * math.cos(wrt(t)) ** 2,
                ratio_fixed * math.sin(wrt(t)) ** 2,
            ),
        )
    elif real_input and inp.m != 0:
        add(
            "q-pair-real-input",
            "as stated the q prefactor numerator carries 2 a2; corrected 2 a2^2",
            grid,
            lambda t: literal_q_pair(scn, t),
            oracle_q,
            corrected=lambda t: corrected_q_pair(scn, t),
        )

    return DiscrepancyReport(
        scenario=scn,
        checks=checks,
        tol_algebraic=tol_algebraic,
        tol_oracle=tol_oracle,
        tol_oracle_scaled=tol_scaled,
        input_tail_mass=light.tail_mass,
    )
