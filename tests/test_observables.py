"""Closed-form predictions, Mandel Q, squeeze coefficients, and physics tables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomlaser import observables
from atomlaser.fock import (
    MomentSet,
    SqueezedInput,
    mode_moments,
    squeezed_coherent_state,
)
from atomlaser.observables import (
    ALIGNED,
    CONVERSION,
    CROSSED,
    FORMULAS,
    GRID,
    PHYSICS_COLUMNS,
    InvariantViolationError,
    ScenarioConfig,
    Terms,
    alpha_pair,
    check_table,
    input_moments,
    literal_gaps,
    literal_table,
    mandel_q,
    moment_map_table,
    physics_table,
    squeeze_coeffs,
)
from atomlaser.propagator import ModelParams, heisenberg_moment_map, propagator_at
from atomlaser.verify import anchor_times

RESONANT = ModelParams(4.0, 4.0, 1.0, 0.0)


def scenario(r=1.0, phi=0.0, m=0j, params=RESONANT, n_max=64):
    return ScenarioConfig(params, SqueezedInput(r, phi, m), n_max)


def coherent_moments(m, n_max=48):
    return mode_moments(squeezed_coherent_state(SqueezedInput(0.0, m=m), n_max))


def columns(table):
    """A physics table as {column name: values over the times}."""
    return dict(zip(PHYSICS_COLUMNS, table.T))


def form(name, corrected=False):
    """The literal (or corrected) form of registry entry ``name`` as a function
    of (scenario, t), for one time or an array of times."""
    spec = next(spec for spec in FORMULAS if spec.name == name)
    evaluate = spec.corrected if corrected else spec.literal
    return lambda scn, t: evaluate(Terms(scn, t))


def test_alpha_pair_identities():
    for r in (0.0, 0.2, 1.0, 2.5):
        alpha1, alpha2 = alpha_pair(r)
        assert abs(alpha1 - math.cosh(2 * r)) < 1e-12
        assert abs(alpha2 - 0.5 * math.sinh(2 * r)) < 1e-12
        assert alpha1 >= 1.0
        # quadratic identity checked relative to the squared scale (the
        # subtraction cancels ~alpha1**2 worth of magnitude)
        assert abs(alpha1**2 - 4 * alpha2**2 - 1.0) < 1e-12 * max(1.0, alpha1**2)


def test_literal_na_mean_coherent_at_zero():
    assert abs(form("light-number-mean")(scenario(r=0.0, m=1.0), 0.0) - 1.0) < 1e-14


def test_literal_na_mean_squeezed_vacuum_at_zero():
    assert abs(form("light-number-mean")(scenario(), 0.0) - math.sinh(1.0) ** 2) < 1e-14


def test_literal_na_mean_vanishes_at_conversion():
    assert abs(form("light-number-mean")(scenario(), math.pi / 2)) < 1e-25


def test_literal_na_mean_requires_resonance():
    # the form is a plain formula; its registry entry confines it to resonance
    detuned = scenario(params=ModelParams(4.0, 3.0, 1.0))
    entry = next(spec for spec in FORMULAS if "na_mean" in spec.columns)
    assert entry.domain(scenario()) and not entry.domain(detuned)
    assert "na_mean" in literal_gaps(detuned)


def test_literal_variances_coherent_poisson():
    na_var, _ = form("number-variances")(scenario(r=0.0, m=1.0), 0.0)
    assert abs(na_var - 1.0) < 1e-14


def test_literal_atom_variance_at_conversion():
    # m^2 (a1 + 2 a2)^2 + 2 a2^2 reduces to 2 sinh^2 r cosh^2 r at m = 0
    _, nb_var = form("number-variances")(scenario(), math.pi / 2)
    expected = 2.0 * (math.sinh(1.0) * math.cosh(1.0)) ** 2
    assert abs(nb_var - expected) < 1e-12


def real_input_variances(r, m, t):
    """The phi = 0, real-m specialization of the variance pair, written out
    independently of the general expression."""
    alpha1, alpha2 = alpha_pair(r)
    quartic = m * m * (alpha1 + 2.0 * alpha2) ** 2 + 2.0 * alpha2**2
    cross = math.sinh(r) ** 2 + (alpha1 + 2.0 * alpha2) * m * m
    cos2, sin2 = np.cos(t) ** 2, np.sin(t) ** 2
    mixed = cross * sin2 * cos2
    return quartic * cos2 * cos2 + mixed, quartic * sin2 * sin2 + mixed


@pytest.mark.parametrize("r", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("m", [0.0, 0.7, -1.2])
def test_literal_variance_specialization_overlap(r, m):
    # the general expression and its phi = 0 / real-m specialization are the
    # same algebra; they must agree to rounding on the overlap domain
    times = np.linspace(0.0, 2 * math.pi, 40)
    general = form("number-variances")(scenario(r=r, m=complex(m)), times)
    special = real_input_variances(r, m, times)
    assert np.max(np.abs(general[0] - special[0])) < 1e-12
    assert np.max(np.abs(general[1] - special[1])) < 1e-12


def test_mandel_q_coherent_is_poisson():
    assert abs(mandel_q(coherent_moments(1.1))) < 1e-8


def test_mandel_q_squeezed_vacuum():
    moments = mode_moments(squeezed_coherent_state(SqueezedInput(1.0), 96))
    assert abs(mandel_q(moments) - math.cosh(2.0)) < 1e-8


def test_mandel_q_number_state():
    assert mandel_q(MomentSet(0j, 0j, 5.0, 25.0)) == -1.0


def test_mandel_q_vacuum_undefined():
    assert math.isnan(mandel_q(MomentSet(0j, 0j, 0.0, 0.0)))
    # elementwise on array moments: only the vacuum entry is undefined
    q = mandel_q(MomentSet(np.zeros(2), np.zeros(2), np.array([0.0, 2.0]), np.array([0.0, 6.0])))
    assert math.isnan(q[0]) and q[1] == 0.0


def test_literal_q_pair_vacuum_limits():
    scn = scenario()
    q_a0, q_b0 = form("q-pair-vacuum")(scn, 0.0)
    assert abs(q_a0 - math.cosh(2.0)) < 1e-12
    assert q_b0 == 0.0
    q_a1, q_b1 = form("q-pair-vacuum")(scn, math.pi / 2)
    assert abs(q_a1) < 1e-25
    assert abs(q_b1 - math.cosh(2.0)) < 1e-12


def test_literal_q_pair_numerator_disagrees_with_vacuum_limit():
    # the stated m != 0 ratio carries a 2 a2 numerator term; its m -> 0 limit
    # contradicts the stated m = 0 pair, which needs 2 a2^2 (the verify
    # report adjudicates this; q-pair-real-input's corrected form carries the fix)
    scn = scenario()
    _, alpha2 = alpha_pair(1.0)
    stated_limit = 2 * alpha2 / math.sinh(1.0) ** 2 - 1.0
    fixed_limit = 2 * alpha2**2 / math.sinh(1.0) ** 2 - 1.0
    assert abs(fixed_limit - form("q-pair-vacuum")(scn, 0.0)[0]) < 1e-12
    assert abs(stated_limit - form("q-pair-vacuum")(scn, 0.0)[0]) > 2.0
    corrected = form("q-pair-real-input", corrected=True)(scenario(m=0.5 + 0j), 0.0)
    assert corrected[0] > 0.0


def test_squeeze_coeffs_vacuum():
    assert squeeze_coeffs(MomentSet(0j, 0j, 0.0, 0.0)) == (0.0, 0.0)


def test_squeeze_coeffs_squeezed_vacuum_pair():
    # minimum-uncertainty pair (e^{2r} - 1, e^{-2r} - 1): X2 squeezed, X1
    # anti-squeezed under the +<a^2> sign convention
    moments = mode_moments(squeezed_coherent_state(SqueezedInput(1.0), 96))
    s1, s2 = squeeze_coeffs(moments)
    assert abs(s1 - (math.exp(2.0) - 1.0)) < 1e-7
    assert abs(s2 - (math.exp(-2.0) - 1.0)) < 1e-7
    assert abs(s2 + 2.0 * math.sinh(1.0) * math.exp(-1.0)) < 1e-7
    assert abs((s1 + 1.0) * (s2 + 1.0) - 1.0) < 1e-7


@pytest.mark.parametrize("m", [0.0, 1.0, 0.8 - 1.1j])
def test_squeeze_coeffs_coherent_states(m):
    s1, s2 = squeeze_coeffs(coherent_moments(m))
    assert abs(s1) < 1e-8
    assert abs(s2) < 1e-8


def test_literal_atom_squeeze_pair_starts_unsqueezed():
    assert form("atom-squeeze-pair")(scenario(), 0.0) == (0.0, 0.0)


def test_literal_atom_squeeze_pair_aligned_phase():
    # w = 4, t = pi/2: w t = 2 pi, so X1b squeezed by 2 sinh(1) e^{-1}
    s1b, s2b = form("atom-squeeze-pair")(scenario(), math.pi / 2)
    assert abs(s1b + 2.0 * math.sinh(1.0) * math.exp(-1.0)) < 1e-12
    assert s2b > 0.0


def test_literal_atom_squeeze_pair_crossed_phase():
    # w t + theta = pi/2-type phase: squeezing moves to X2b
    s1b, s2b = form("atom-squeeze-pair")(scenario(), math.pi / 8)
    expected = 2.0 * math.sinh(1.0) * math.exp(-1.0) * math.sin(math.pi / 8) ** 2
    assert abs(s2b + expected) < 1e-12
    assert s1b > 0.0


def test_literal_light_squeeze_pair_is_initially_squeezed():
    s1a, s2a = form("light-squeeze-pair")(scenario(), 0.0)
    assert abs(s1a - (math.exp(2.0) - 1.0)) < 1e-12
    assert abs(s2a - (math.exp(-2.0) - 1.0)) < 1e-12


def test_atom_squeeze_product_identity():
    # S1b S2b = 4 sinh^2 r sin^4(omega_r t) (sinh^2 r - cosh^2 r cos^2(2(w t + theta)))
    scn = scenario(r=0.8, params=ModelParams(4.0, 4.0, 1.0, 0.3))
    s, c = math.sinh(0.8), math.cosh(0.8)
    for t in np.linspace(0.0, 2 * math.pi, 60):
        s1b, s2b = form("atom-squeeze-pair")(scn, t)
        rot = math.cos(2.0 * (4.0 * t + 0.3))
        expected = (
            4.0
            * s
            * s
            * math.sin(t) ** 4
            * (s * s - c * c * rot * rot)
        )
        assert abs(s1b * s2b - expected) < 1e-10


@pytest.mark.parametrize("r", [0.2, 0.5, 1.0])
def test_literal_matches_moment_map_on_grid(r):
    # where the transcription is self-consistent it must agree with the
    # independently derived moment map to algebraic accuracy
    scn = scenario(r=r)
    times = np.linspace(0.0, math.pi, 100)
    rec = columns(moment_map_table(scn, times))
    expected = {
        "na_mean": form("light-number-mean")(scn, times),
        "nb_mean": form("atom-number-mean")(scn, times),
    }
    expected["na_var"], expected["nb_var"] = form("number-variances")(scn, times)
    expected["q_a"], expected["q_b"] = form("q-pair-vacuum")(scn, times)
    expected["s1b"], expected["s2b"] = form("atom-squeeze-pair")(scn, times)
    expected["s1a"], expected["s2a"] = form("light-squeeze-pair")(scn, times)
    for name, want in expected.items():
        got = rec[name]
        defined = ~np.isnan(got)  # the map's Q is undefined at a vacuum mode
        assert np.all(defined | name.startswith("q_"))
        assert np.max(np.abs(got - want)[defined]) < 1e-8


def agrees(got, want, is_q: bool) -> bool:
    """|got - want| <= 1e-9 max(1, |want|) everywhere, except that a Mandel Q
    the map leaves undefined (NaN, a vacuum mode) is skipped."""
    got, want = np.broadcast_arrays(np.asarray(got), np.asarray(want))
    close = np.isfinite(want) & (np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))
    return bool(np.all(close | (is_q & np.isnan(want))))


def literal_or_corrected_agrees(spec, scn, times, want) -> bool:
    is_q = "q_a" in spec.columns
    if agrees(spec.literal(Terms(scn, times)), want, is_q):
        return True
    return spec.corrected is not None and agrees(spec.corrected(Terms(scn, times)), want, is_q)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    r=st.floats(0.05, 1.5, exclude_min=True),
    m=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
    theta=st.floats(0.0, 2 * math.pi),
    omega0=st.floats(0.5, 10.0),
)
def test_registry_matches_moment_map_property(r, m, theta, omega0):
    # every in-domain registry entry, as stated or as corrected, agrees with
    # the independently derived moment map to algebraic accuracy: at its own
    # anchor times through its observable, and on the grid in the columns it
    # fills; the entries out of domain are exactly the literal-paper gaps
    scn = scenario(r=r, m=complex(m), params=ModelParams(omega0, omega0, 1.0, theta))
    grid = np.linspace(0.0, math.pi, 100)
    anchors = anchor_times(scn.params, grid, {GRID, CONVERSION, ALIGNED, CROSSED})
    all_times = np.unique(np.concatenate(list(anchors.values())))
    mapped = heisenberg_moment_map(propagator_at(scn.params, all_times), input_moments(scn.input))
    on_grid = columns(moment_map_table(scn, grid))
    in_domain = [spec for spec in FORMULAS if spec.domain(scn)]
    for spec in in_domain:
        if spec.observable is not None:
            times = anchors[spec.anchors]
            want = np.asarray(spec.observable(*mapped))[..., np.searchsorted(all_times, times)]
            assert literal_or_corrected_agrees(spec, scn, times, want), spec.name
        if spec.columns:
            want = np.array([on_grid[name] for name in spec.columns])
            assert literal_or_corrected_agrees(spec, scn, grid, want.squeeze()), spec.name

    filled = {name for spec in in_domain for name in spec.columns}
    unfilled = {name for spec in FORMULAS if spec not in in_domain for name in spec.columns}
    gaps = literal_gaps(scn)
    assert set(gaps) == unfilled - filled
    assert gaps == (() if m == 0 else ("s1a", "s2a", "s1b", "s2b"))
    na = np.all(np.isnan(literal_table(scn, grid)), axis=0)
    assert [name for name, gap in zip(PHYSICS_COLUMNS, na) if gap] == list(gaps)


# between them every registry entry is in its domain in at least one scenario
FORM_SCENARIOS = (
    scenario(r=0.8, params=ModelParams(4.0, 4.0, 1.0, 0.3)),
    scenario(r=0.5, m=0.7 + 0j),
    scenario(r=0.4, phi=0.3, m=0.5 + 0.2j),
)


@pytest.mark.parametrize("spec", FORMULAS, ids=lambda spec: spec.name)
def test_each_form_on_an_array_equals_the_form_at_each_time_alone(spec):
    # unit tests evaluate the forms at single times and runs on arrays; a form
    # that does not depend on t returns one value, which must broadcast
    times = np.linspace(0.0, 2 * math.pi, 37)
    scenarios = [scn for scn in FORM_SCENARIOS if spec.domain(scn)]
    assert scenarios
    for scn in scenarios:
        for evaluate in filter(None, (spec.literal, spec.corrected)):
            alone = np.stack([np.asarray(evaluate(Terms(scn, float(t)))) for t in times], axis=-1)
            whole = np.broadcast_to(np.asarray(evaluate(Terms(scn, times))), alone.shape)
            assert np.all(np.abs(whole - alone) <= 1e-15 * (1.0 + np.abs(alone))), spec.name


def test_q_oscillation_complementarity():
    # q_a(t)/q_a(0) + q_b(t)/q_a(0) = 1 (the cos^2 + sin^2 structure)
    scn = scenario()
    q_a0 = columns(moment_map_table(scn, [0.0]))["q_a"][0]
    rec = columns(moment_map_table(scn, np.linspace(0.05, math.pi - 0.05, 40)))
    assert np.max(np.abs(rec["q_a"] / q_a0 + rec["q_b"] / q_a0 - 1.0)) < 1e-10


def test_map_record_total_occupation_constant():
    scn = scenario(r=0.7, m=0.4 + 0.1j, phi=0.5)
    totals = columns(moment_map_table(scn, np.linspace(0.0, 2 * math.pi, 30)))["ntotal"]
    assert np.max(np.abs(totals - totals[0])) < 1e-10


def test_uncertainty_bound_on_map_records():
    rng = np.random.default_rng(23)
    for _ in range(15):
        scn = scenario(
            r=float(rng.uniform(0.0, 1.2)),
            phi=float(rng.uniform(0.0, 2 * math.pi)),
            m=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            params=ModelParams(4.0, 4.0, 1.0, float(rng.uniform(0, 2 * math.pi))),
            n_max=96,
        )
        rec = columns(moment_map_table(scn, rng.uniform(0.0, 10.0, size=5)))
        assert np.all((rec["s1a"] + 1.0) * (rec["s2a"] + 1.0) >= 1.0 - 1e-9)
        assert np.all((rec["s1b"] + 1.0) * (rec["s2b"] + 1.0) >= 1.0 - 1e-9)


def test_literal_record_detuned_is_all_na():
    scn = scenario(params=ModelParams(5.0, 4.0, 1.0))
    assert literal_gaps(scn) == PHYSICS_COLUMNS
    table = literal_table(scn, [0.0, 1.0])
    assert table.shape == (2, len(PHYSICS_COLUMNS))
    assert np.all(np.isnan(table))


@pytest.mark.parametrize("omega0, built", [(5.0, 0), (4.0, 1)], ids=["detuned", "resonant"])
def test_literal_table_builds_terms_only_for_an_entry_in_domain(monkeypatch, omega0, built):
    calls = []

    def spy(*args):
        calls.append(args)
        return Terms(*args)

    monkeypatch.setattr(observables, "Terms", spy)
    table = literal_table(scenario(params=ModelParams(omega0, 4.0, 1.0)), np.linspace(0, 1, 5))
    assert len(calls) == built
    assert np.isnan(table).all() == (built == 0)


def test_literal_record_domain_gaps_are_na():
    scn = scenario(m=0.5 + 0.5j)
    assert literal_gaps(scn) == ("q_a", "q_b", "s1a", "s2a", "s1b", "s2b")
    rec = columns(literal_table(scn, [1.0]))
    assert not math.isnan(rec["na_mean"][0])
    assert math.isnan(rec["q_a"][0])  # q needs real m
    assert math.isnan(rec["s1b"][0])  # squeeze pair needs m = 0
    # a real displaced input keeps the q pair and loses only the squeeze pair
    assert literal_gaps(scenario(m=0.5)) == ("s1a", "s2a", "s1b", "s2b")


def test_literal_record_vacuum_light_mode_has_no_q_or_squeeze_columns():
    # at r = 0 and m = 0 the light mode is the vacuum: its Mandel Q is
    # undefined and the squeezed-vacuum entries are out of their domain
    squeeze = ("s1a", "s2a", "s1b", "s2b")
    assert literal_gaps(scenario(r=0.0)) == ("q_a", "q_b", *squeeze)
    rec = columns(literal_table(scenario(r=0.0), [0.0, 1.0]))
    assert np.all(np.isnan(rec["q_a"])) and np.all(np.isnan(rec["q_b"]))
    assert np.all(rec["na_mean"] == 0.0)
    # a displaced input at r = 0 keeps its q pair
    assert literal_gaps(scenario(r=0.0, m=0.5)) == squeeze


def test_literal_record_vacuum_input_full():
    assert literal_gaps(scenario()) == ()
    table = literal_table(scenario(), [math.pi / 4])
    assert not np.any(np.isnan(table))
    ntotal = columns(table)["ntotal"][0]
    assert abs(ntotal - form("conversion-number-transfer")(scenario(), 0.0)) < 1e-12


def test_physics_table_q_nan_for_vacuum_mode():
    rec = columns(physics_table(MomentSet(0j, 0j, 1.0, 2.0), MomentSet(0j, 0j, 0.0, 0.0)))
    assert math.isnan(rec["q_b"][0])
    assert rec["q_a"][0] == 0.0


def test_check_table_flags_negative_variance():
    times = np.array([0.0])
    good = physics_table(MomentSet(0j, 0j, 1.0, 2.0), MomentSet(0j, 0j, 0.0, 0.0))
    check_table(good, times, "oracle")  # fine: the vacuum atom Q is a domain gap
    bad = good.copy()
    bad[0, PHYSICS_COLUMNS.index("na_var")] = -0.5
    with pytest.raises(InvariantViolationError, match="na_var"):
        check_table(bad, times, "oracle")
    squeezed = good.copy()
    squeezed[0, PHYSICS_COLUMNS.index("s2a")] = -1.5
    with pytest.raises(InvariantViolationError, match="s2a"):
        check_table(squeezed, times, "oracle")


@pytest.mark.parametrize("name", ["na_mean", "q_a", "s1b", "ntotal"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_check_table_rejects_values_that_are_not_finite_outside_a_gap(name, value):
    times = np.array([0.0, 0.5])
    table = physics_table(
        MomentSet(np.zeros(2), np.zeros(2), np.array([1.0, 1.0]), np.array([2.0, 2.0])),
        MomentSet(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2)),
    )
    table[1, PHYSICS_COLUMNS.index(name)] = value
    with pytest.raises(InvariantViolationError, match=rf"{name} = .* at t = 0.5 \(moment-map\)"):
        check_table(table, times, "moment-map")
    # the same entry inside a declared gap passes
    check_table(table, times, "literal-paper", gaps=(name,))
