"""Formula adjudication: verdicts, corrected forms, report rendering."""

import contextlib
import io
import math

import numpy as np
import pytest

from atomlaser import oracle
from atomlaser.cli import main
from atomlaser.fock import SqueezedInput, mode_moments, squeezed_coherent_state
from atomlaser.observables import (
    ALIGNED,
    CONVERSION,
    CROSSED,
    FORMULAS,
    FormulaSpec,
    ScenarioConfig,
    UsageError,
    input_moments,
    resonant,
)
from atomlaser.propagator import ModelParams, heisenberg_moment_map, propagator_at
from atomlaser.verify import (
    CONFIRMED,
    TYPO_SUSPECT,
    _max_dev,
    anchor_times,
    discrepancy_report,
)

DEFAULT_GRID = np.arange(200) * (2 * math.pi / 200)

EXPECTED_DEFAULT_VERDICTS = {
    "conversion-number-transfer": CONFIRMED,
    "light-number-mean": CONFIRMED,
    "atom-number-variance-at-conversion": CONFIRMED,
    "q-pair-vacuum": CONFIRMED,
    "atom-squeeze-pair": CONFIRMED,
    "atom-squeeze-aligned-phase": CONFIRMED,
    "atom-squeeze-crossed-phase": CONFIRMED,
    "atom-squared-amplitude-vacuum": CONFIRMED,
    "light-number-square-vacuum": TYPO_SUSPECT,
    "light-number-variance-vacuum": TYPO_SUSPECT,
    "atom-number-variance-vacuum": TYPO_SUSPECT,
    "atom-number-mean-vacuum": TYPO_SUSPECT,
    "q-pair-real-input": TYPO_SUSPECT,
}


@pytest.fixture(scope="module")
def default_report():
    scn = ScenarioConfig(
        ModelParams(4.0, 4.0, 1.0, 0.0), SqueezedInput(1.0), 64
    )
    return discrepancy_report(scn, DEFAULT_GRID)


def test_default_scenario_verdicts(default_report):
    got = {check.name: check.verdict for check in default_report.checks}
    assert got == EXPECTED_DEFAULT_VERDICTS
    assert default_report.unresolved == 0


def test_typo_suspects_have_matching_corrections(default_report):
    for check in default_report.checks:
        if check.verdict == TYPO_SUSPECT:
            assert check.dev_corrected_oracle <= check.tolerance
            # the misprint gap is orders of magnitude above the tolerance
            assert check.dev_literal_oracle > 1e3 * check.tolerance


def test_confirmed_checks_also_match_moment_map(default_report):
    # where the transcription is right it matches the (exact) moment map to
    # algebraic accuracy, independent of the oracle's truncation error
    for check in default_report.checks:
        if check.verdict == CONFIRMED and not math.isnan(check.dev_literal_map):
            assert check.dev_literal_map < default_report.tol_algebraic


def truncation_terms(scn, grid):
    """Each in-domain entry's |observable(map of exact input) - observable(map
    of truncated input)| at its anchor times: the oracle's whole error."""
    light = squeezed_coherent_state(scn.input, scn.n_max)
    specs = [spec for spec in FORMULAS if spec.observable is not None and spec.domain(scn)]
    anchors = anchor_times(scn.params, grid, {spec.anchors for spec in specs})
    terms = {}
    for spec in specs:
        u = propagator_at(scn.params, anchors[spec.anchors])
        exact = spec.observable(*heisenberg_moment_map(u, input_moments(scn.input)))
        kept = spec.observable(*heisenberg_moment_map(u, mode_moments(light)))
        terms[spec.name] = _max_dev(np.asarray(exact), np.asarray(kept), spec.polar)
    return terms


def test_tolerance_is_tol_oracle_plus_the_exact_truncation_term(default_report):
    terms = truncation_terms(default_report.scenario, DEFAULT_GRID)
    for check in default_report.checks:
        term = check.tolerance - default_report.tol_oracle
        assert term == pytest.approx(terms[check.name], rel=1e-6, abs=1e-15), check.name
        assert 1e-8 < term < 2e-5, check.name  # r = 1 loses something at 64 levels
    # at r = 0.5 the 64 levels lose nothing measurable
    scn = ScenarioConfig(ModelParams(4.0, 4.0, 1.0, 0.3), SqueezedInput(0.5), 64)
    report = discrepancy_report(scn, DEFAULT_GRID)
    assert report.unresolved == 0
    for check in report.checks:
        assert check.tolerance - report.tol_oracle <= 1e-14, check.name


@pytest.mark.parametrize(
    "argv, extras",
    [((), 8), (("--m-re", "0.5"), 1), (("--r", "0.5", "--theta", "0.3"), 13),
     # the first conversion anchor, pi/102, falls inside the first grid step, pi/100
     (("--omega-r", "51"), 107)],
    ids=["vacuum", "real-input", "phase-shifted", "anchor-inside-first-step"],
)
def test_verify_runs_every_block_on_its_grid_part(tmp_path, monkeypatch, argv, extras):
    # the 200-point grid plus the off-grid anchors: every block's phases must
    # come by angle addition on the grid part, one exponential per extra only
    calls, block_phases = [], oracle._block_phases

    def spy(energies, scale, clock, out):
        calls.append((clock.count - clock.grid, clock.grid))
        return block_phases(energies, scale, clock, out)

    monkeypatch.setattr(oracle, "_block_phases", spy)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", *argv, "--out", str(tmp_path / "v.txt")]) == 0
    assert calls and set(calls) == {(extras, 200)}


def test_render_is_deterministic_and_complete(default_report):
    text = default_report.render()
    assert text == default_report.render()
    for name in EXPECTED_DEFAULT_VERDICTS:
        assert name in text
    assert "unresolved: 0" in text


def test_real_input_scenario_flags_q_numerator():
    scn = ScenarioConfig(
        ModelParams(4.0, 4.0, 1.0, 0.0),
        SqueezedInput(0.6, 0.0, 0.5),
        96,
    )
    report = discrepancy_report(scn, np.linspace(0.0, math.pi, 60))
    verdicts = {check.name: check.verdict for check in report.checks}
    assert verdicts["q-pair-real-input"] == TYPO_SUSPECT
    assert verdicts["light-number-mean"] == CONFIRMED
    assert verdicts["atom-number-variance-at-conversion"] == CONFIRMED
    assert "atom-squeeze-pair" not in verdicts  # needs m = 0
    assert report.unresolved == 0


def test_report_requires_resonance():
    # off resonance no registered formula is in its domain
    scn = ScenarioConfig(
        ModelParams(5.0, 4.0, 1.0, 0.0), SqueezedInput(1.0), 64
    )
    with pytest.raises(UsageError, match="no registered formula applies"):
        discrepancy_report(scn, DEFAULT_GRID)


def test_one_registry_entry_is_one_report_row():
    toy = FormulaSpec(
        "toy-total-occupation",
        "light plus atom occupation stays the initial occupation",
        resonant,
        lambda x: x.n_in,
        observable=lambda light, atom: light.number_mean + atom.number_mean,
    )
    scn = ScenarioConfig(ModelParams(4.0, 4.0, 1.0, 0.0), SqueezedInput(0.3), 32)
    grid = np.linspace(0.0, math.pi, 20)
    FORMULAS.append(toy)
    try:
        report = discrepancy_report(scn, grid)
    finally:
        FORMULAS.remove(toy)
    last = report.checks[-1]
    assert (last.name, last.verdict, last.n_points) == (toy.name, CONFIRMED, len(grid))
    assert f"{toy.name}: {toy.claim}\n" in report.render()
    assert toy.name not in discrepancy_report(scn, grid).render()


def walk_anchors(omega, shift, offset, omega_r, t_max):
    """The anchors omega t + shift = offset + k pi found by stepping k = 0, 1, ...
    until t passes t_max."""
    anchors = []
    k = 0
    while True:
        t = (offset + k * math.pi - shift) / omega
        k += 1
        if t < -1e-12:
            continue
        if t > t_max + 1e-12:
            break
        if math.sin(omega_r * t) ** 2 >= 0.2:
            anchors.append(max(t, 0.0))
    return anchors


@pytest.mark.parametrize(
    "params, t_max",
    [
        (ModelParams(4.0, 4.0, 1.0, 0.0), DEFAULT_GRID[-1]),
        (ModelParams(4.0, 4.0, 1.0, 0.3), math.pi),
        (ModelParams(7.3, 7.3, 0.7, -2.1), 20.0),
        (ModelParams(1e3, 1e3, 1.3, 11.0), 2 * math.pi),
        # the rotation phase never advances: only conversion anchors
        (ModelParams(0.0, 0.0, 1.0, 0.3), 20.0),
        # conversion anchors up to k = 40, past k = 13
        (ModelParams(4.0, 4.0, 3.7, 0.0), 35.0),
    ],
)
def test_anchor_times_match_the_walk_over_k(params, t_max):
    grid = np.linspace(0.0, t_max, 7)
    anchors = anchor_times(params, grid, {CONVERSION, ALIGNED, CROSSED})
    omega_r, theta = params.omega_r, params.theta
    conversion = walk_anchors(omega_r, 0.0, 0.5 * math.pi, omega_r, t_max)
    assert len(conversion) == 1 + int(t_max * omega_r / math.pi - 0.5)
    assert np.array_equal(anchors[CONVERSION], conversion)
    if params.omega0 == 0.0:
        assert len(anchors[ALIGNED]) == len(anchors[CROSSED]) == 0
        return
    for family, offset in ((ALIGNED, 0.0), (CROSSED, 0.5 * math.pi)):
        walked = walk_anchors(params.omega0, theta, offset, omega_r, t_max)
        assert np.array_equal(anchors[family], walked)


@pytest.mark.parametrize(
    "omega0, theta, t_max",
    [
        (4.0, 0.0, DEFAULT_GRID[-1]),
        (4.0, 0.3, math.pi),
        (7.3, -2.1, 20.0),
        (1e3, 11.0, 2 * math.pi),
    ],
)
def test_a_negative_omega0_takes_the_anchors_of_minus_theta(omega0, theta, t_max):
    # omega0 t + theta passes every n pi whichever way the phase turns
    grid = np.linspace(0.0, t_max, 7)
    families = {CONVERSION, ALIGNED, CROSSED}
    negative = anchor_times(ModelParams(-omega0, -omega0, 1.0, theta), grid, families)
    mirror = anchor_times(ModelParams(omega0, omega0, 1.0, -theta), grid, families)
    for family, sign in ((ALIGNED, 1.0), (CROSSED, -1.0)):
        assert len(negative[family]) and np.array_equal(negative[family], mirror[family])
        phase = 2.0 * (-omega0 * negative[family] + theta)
        assert np.allclose(np.cos(phase), sign, rtol=0.0, atol=1e-9)
    assert np.array_equal(negative[CONVERSION], mirror[CONVERSION])


def test_verify_at_a_negative_omega0_reports_every_formula(tmp_path, capsys):
    out = tmp_path / "v.txt"
    assert main(["verify", "--omega0", "-4", "--omega-a", "-4", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote verdicts for 13 formulas to {out}\n"
    rows = out.read_text().split("\n\n")[1].splitlines()[2:-2]
    assert {row.split()[0]: row.split()[1] for row in rows} == EXPECTED_DEFAULT_VERDICTS
