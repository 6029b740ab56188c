"""Closed-form predictions, Mandel Q, squeeze coefficients, and records."""

import math

import numpy as np
import pytest

from atomlaser.fock import (
    MomentSet,
    SqueezedInput,
    Truncation,
    coherent_state,
    mode_moments,
    squeezed_coherent_state,
)
from atomlaser.observables import (
    AlphaPair,
    InvariantViolationError,
    ObservableRecord,
    ScenarioConfig,
    check_record,
    corrected_q_pair,
    input_moments,
    literal_atom_squeeze_pair,
    literal_input_number_mean,
    literal_light_squeeze_pair,
    literal_na_mean,
    literal_nb_mean,
    literal_number_variances,
    literal_number_variances_real_input,
    literal_q_pair,
    literal_record,
    mandel_q,
    moment_map_record,
    record_from_moments,
    squeeze_coeffs,
)
from atomlaser.propagator import ModelParams, ResonanceError

RESONANT = ModelParams(4.0, 4.0, 1.0, 0.0)


def scenario(r=1.0, phi=0.0, m=0j, params=RESONANT, n_max=64):
    return ScenarioConfig(params, SqueezedInput(r, phi, m), Truncation(n_max))


def test_alpha_pair_identities():
    for r in (0.0, 0.2, 1.0, 2.5):
        al = AlphaPair.from_r(r)
        assert abs(al.alpha1 - math.cosh(2 * r)) < 1e-12
        assert abs(al.alpha2 - 0.5 * math.sinh(2 * r)) < 1e-12
        assert al.alpha1 >= 1.0
        # quadratic identity checked relative to the squared scale (the
        # subtraction cancels ~al.alpha1**2 worth of magnitude)
        assert abs(al.alpha1**2 - 4 * al.alpha2**2 - 1.0) < 1e-12 * max(1.0, al.alpha1**2)


def test_literal_na_mean_coherent_at_zero():
    assert abs(literal_na_mean(scenario(r=0.0, m=1.0), 0.0) - 1.0) < 1e-14


def test_literal_na_mean_squeezed_vacuum_at_zero():
    assert abs(literal_na_mean(scenario(), 0.0) - math.sinh(1.0) ** 2) < 1e-14


def test_literal_na_mean_vanishes_at_conversion():
    assert abs(literal_na_mean(scenario(), math.pi / 2)) < 1e-25


def test_literal_na_mean_requires_resonance():
    with pytest.raises(ResonanceError):
        literal_na_mean(scenario(params=ModelParams(4.0, 3.0, 1.0)), 0.0)


def test_literal_variances_coherent_poisson():
    na_var, _ = literal_number_variances(scenario(r=0.0, m=1.0), 0.0)
    assert abs(na_var - 1.0) < 1e-14


def test_literal_atom_variance_at_conversion():
    # m^2 (a1 + 2 a2)^2 + 2 a2^2 reduces to 2 sinh^2 r cosh^2 r at m = 0
    _, nb_var = literal_number_variances(scenario(), math.pi / 2)
    expected = 2.0 * (math.sinh(1.0) * math.cosh(1.0)) ** 2
    assert abs(nb_var - expected) < 1e-12


@pytest.mark.parametrize("r", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("m", [0.0, 0.7, -1.2])
def test_literal_variance_specialization_overlap(r, m):
    # the general expression and its phi = 0 / real-m specialization are the
    # same algebra; they must agree to rounding on the overlap domain
    scn = scenario(r=r, m=complex(m))
    for t in np.linspace(0.0, 2 * math.pi, 40):
        general = literal_number_variances(scn, t)
        special = literal_number_variances_real_input(scn, t)
        assert abs(general[0] - special[0]) < 1e-12
        assert abs(general[1] - special[1]) < 1e-12


def test_mandel_q_coherent_is_poisson():
    moments = mode_moments(coherent_state(1.1, Truncation(48)))
    assert abs(mandel_q(moments)) < 1e-8


def test_mandel_q_squeezed_vacuum():
    moments = mode_moments(squeezed_coherent_state(SqueezedInput(1.0), Truncation(96)))
    assert abs(mandel_q(moments) - math.cosh(2.0)) < 1e-8


def test_mandel_q_number_state():
    assert mandel_q(MomentSet(0j, 0j, 5.0, 25.0)) == -1.0


def test_mandel_q_vacuum_undefined():
    with pytest.raises(ValueError):
        mandel_q(MomentSet.vacuum())


def test_literal_q_pair_vacuum_limits():
    scn = scenario()
    q_a0, q_b0 = literal_q_pair(scn, 0.0)
    assert abs(q_a0 - math.cosh(2.0)) < 1e-12
    assert q_b0 == 0.0
    q_a1, q_b1 = literal_q_pair(scn, math.pi / 2)
    assert abs(q_a1) < 1e-25
    assert abs(q_b1 - math.cosh(2.0)) < 1e-12


def test_literal_q_pair_numerator_disagrees_with_vacuum_limit():
    # the stated m != 0 ratio carries a 2 a2 numerator term; its m -> 0 limit
    # contradicts the stated m = 0 pair, which needs 2 a2^2 (the verify
    # report adjudicates this; corrected_q_pair carries the fixed form)
    scn = scenario()
    al = AlphaPair.from_r(1.0)
    stated_limit = 2 * al.alpha2 / math.sinh(1.0) ** 2 - 1.0
    fixed_limit = 2 * al.alpha2**2 / math.sinh(1.0) ** 2 - 1.0
    assert abs(fixed_limit - literal_q_pair(scn, 0.0)[0]) < 1e-12
    assert abs(stated_limit - literal_q_pair(scn, 0.0)[0]) > 2.0
    corrected = corrected_q_pair(scenario(m=0.5 + 0j), 0.0)
    assert corrected[0] > 0.0


def test_squeeze_coeffs_vacuum():
    assert squeeze_coeffs(MomentSet.vacuum()) == (0.0, 0.0)


def test_squeeze_coeffs_squeezed_vacuum_pair():
    # minimum-uncertainty pair (e^{2r} - 1, e^{-2r} - 1): X2 squeezed, X1
    # anti-squeezed under the +<a^2> sign convention
    moments = mode_moments(squeezed_coherent_state(SqueezedInput(1.0), Truncation(96)))
    s1, s2 = squeeze_coeffs(moments)
    assert abs(s1 - (math.exp(2.0) - 1.0)) < 1e-7
    assert abs(s2 - (math.exp(-2.0) - 1.0)) < 1e-7
    assert abs(s2 + 2.0 * math.sinh(1.0) * math.exp(-1.0)) < 1e-7
    assert abs((s1 + 1.0) * (s2 + 1.0) - 1.0) < 1e-7


@pytest.mark.parametrize("m", [0.0, 1.0, 0.8 - 1.1j])
def test_squeeze_coeffs_coherent_states(m):
    moments = mode_moments(coherent_state(m, Truncation(48)))
    s1, s2 = squeeze_coeffs(moments)
    assert abs(s1) < 1e-8
    assert abs(s2) < 1e-8


def test_literal_atom_squeeze_pair_starts_unsqueezed():
    assert literal_atom_squeeze_pair(scenario(), 0.0) == (0.0, 0.0)


def test_literal_atom_squeeze_pair_aligned_phase():
    # w = 4, t = pi/2: w t = 2 pi, so X1b squeezed by 2 sinh(1) e^{-1}
    s1b, s2b = literal_atom_squeeze_pair(scenario(), math.pi / 2)
    assert abs(s1b + 2.0 * math.sinh(1.0) * math.exp(-1.0)) < 1e-12
    assert s2b > 0.0


def test_literal_atom_squeeze_pair_crossed_phase():
    # w t + theta = pi/2-type phase: squeezing moves to X2b
    s1b, s2b = literal_atom_squeeze_pair(scenario(), math.pi / 8)
    expected = 2.0 * math.sinh(1.0) * math.exp(-1.0) * math.sin(math.pi / 8) ** 2
    assert abs(s2b + expected) < 1e-12
    assert s1b > 0.0


def test_literal_light_squeeze_pair_is_initially_squeezed():
    s1a, s2a = literal_light_squeeze_pair(scenario(), 0.0)
    assert abs(s1a - (math.exp(2.0) - 1.0)) < 1e-12
    assert abs(s2a - (math.exp(-2.0) - 1.0)) < 1e-12


def test_atom_squeeze_product_identity():
    # S1b S2b = 4 sinh^2 r sin^4(omega_r t) (sinh^2 r - cosh^2 r cos^2(2(w t + theta)))
    scn = scenario(r=0.8, params=ModelParams(4.0, 4.0, 1.0, 0.3))
    s, c = math.sinh(0.8), math.cosh(0.8)
    for t in np.linspace(0.0, 2 * math.pi, 60):
        s1b, s2b = literal_atom_squeeze_pair(scn, t)
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
    a0 = input_moments(scn.input)
    for t in np.linspace(0.0, math.pi, 100):
        rec = moment_map_record(scn, t, a0)
        assert abs(rec.na_mean - literal_na_mean(scn, t)) < 1e-8
        assert abs(rec.nb_mean - literal_nb_mean(scn, t)) < 1e-8
        na_var, nb_var = literal_number_variances(scn, t)
        assert abs(rec.na_var - na_var) < 1e-8
        assert abs(rec.nb_var - nb_var) < 1e-8
        q_a, q_b = literal_q_pair(scn, t)
        if not math.isnan(rec.q_a):
            assert abs(rec.q_a - q_a) < 1e-8
        if not math.isnan(rec.q_b):
            assert abs(rec.q_b - q_b) < 1e-8
        s1b, s2b = literal_atom_squeeze_pair(scn, t)
        assert abs(rec.s1b - s1b) < 1e-8
        assert abs(rec.s2b - s2b) < 1e-8
        s1a, s2a = literal_light_squeeze_pair(scn, t)
        assert abs(rec.s1a - s1a) < 1e-8
        assert abs(rec.s2a - s2a) < 1e-8


def test_q_oscillation_complementarity():
    # q_a(t)/q_a(0) + q_b(t)/q_a(0) = 1 (the cos^2 + sin^2 structure)
    scn = scenario()
    a0 = input_moments(scn.input)
    q_a0 = moment_map_record(scn, 0.0, a0).q_a
    for t in np.linspace(0.05, math.pi - 0.05, 40):
        rec = moment_map_record(scn, t, a0)
        assert abs(rec.q_a / q_a0 + rec.q_b / q_a0 - 1.0) < 1e-10


def test_map_record_total_occupation_constant():
    scn = scenario(r=0.7, m=0.4 + 0.1j, phi=0.5)
    a0 = input_moments(scn.input)
    totals = [
        moment_map_record(scn, t, a0).ntotal
        for t in np.linspace(0.0, 2 * math.pi, 30)
    ]
    assert max(abs(x - totals[0]) for x in totals) < 1e-10


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
        a0 = input_moments(scn.input)
        for t in rng.uniform(0.0, 10.0, size=5):
            rec = moment_map_record(scn, float(t), a0)
            assert (rec.s1a + 1.0) * (rec.s2a + 1.0) >= 1.0 - 1e-9
            assert (rec.s1b + 1.0) * (rec.s2b + 1.0) >= 1.0 - 1e-9


def test_literal_record_detuned_is_all_na():
    scn = scenario(params=ModelParams(5.0, 4.0, 1.0))
    rec = literal_record(scn, 1.0)
    assert math.isnan(rec.na_mean)
    assert math.isnan(rec.ntotal)
    assert rec.n_max == 64


def test_literal_record_domain_gaps_are_na():
    rec = literal_record(scenario(m=0.5 + 0.5j), 1.0)
    assert not math.isnan(rec.na_mean)
    assert math.isnan(rec.q_a)  # q needs real m
    assert math.isnan(rec.s1b)  # squeeze pair needs m = 0


def test_literal_record_vacuum_input_full():
    rec = literal_record(scenario(), math.pi / 4)
    assert not any(
        math.isnan(getattr(rec, name))
        for name in ("na_mean", "na_var", "nb_mean", "nb_var", "q_a", "q_b",
                     "s1a", "s2a", "s1b", "s2b", "ntotal")
    )
    assert abs(rec.ntotal - literal_input_number_mean(scenario())) < 1e-12


def test_record_from_moments_q_nan_for_vacuum_mode():
    rec = record_from_moments(
        0.0, "oracle", MomentSet(0j, 0j, 1.0, 2.0), MomentSet.vacuum(), 32, 0.0
    )
    assert math.isnan(rec.q_b)
    assert rec.q_a == 0.0


def test_check_record_flags_negative_variance():
    rec = record_from_moments(
        0.0, "oracle", MomentSet(0j, 0j, 1.0, 2.0), MomentSet.vacuum(), 32, 0.0
    )
    check_record(rec)  # fine
    bad = ObservableRecord(
        t=0.0, source="oracle", na_mean=1.0, na_var=-0.5, nb_mean=0.0,
        nb_var=0.0, q_a=0.0, q_b=0.0, s1a=0.0, s2a=0.0, s1b=0.0, s2b=0.0,
        ntotal=1.0, n_max=32, tail_mass=0.0,
    )
    with pytest.raises(InvariantViolationError):
        check_record(bad)
