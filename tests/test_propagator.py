"""Transfer-matrix solution: geometry, unitarity, and the closed moment map."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from atomlaser.fock import SqueezedInput, mode_moments, squeezed_coherent_state
from atomlaser.propagator import ModelParams, heisenberg_moment_map, propagator_at


def coefficient_matrix(params):
    """The 2x2 generator of the coupled-mode equations (independent route)."""
    return np.array(
        [
            [params.omega0, params.omega_r * np.exp(-1j * params.theta)],
            [params.omega_r * np.exp(1j * params.theta), params.omega_a],
        ]
    )


def random_params(rng):
    return ModelParams(
        omega0=float(rng.uniform(0.0, 10.0)),
        omega_a=float(rng.uniform(0.0, 10.0)),
        omega_r=float(rng.uniform(0.1, 5.0)),
        theta=float(rng.uniform(0.0, 2 * math.pi)),
    )


def in_mean_frame(params, t):
    """The transfer matrix without its global phase e^{-i (omega0 + omega_a) t / 2}.

    Shifting both frequencies by their mean only removes that phase, leaving
    [[lam_minus, -i eta e^{-i theta}], [-i eta e^{+i theta}, lam_plus]].  Where
    the shifted pair sums to exactly 0, as for (4, 4), (6, 4), (2, 4) and
    (5, 3), the remaining phase is exactly 1; elsewhere it is 1 to roundoff.
    """
    mean = 0.5 * (params.omega0 + params.omega_a)
    shifted = ModelParams(params.omega0 - mean, params.omega_a - mean, params.omega_r, params.theta)
    return propagator_at(shifted, t)


def quarter_turn(params):
    """(I, entries at I t = pi/2), I = sqrt(omega_r^2 + ((omega0 - omega_a)/2)^2).

    There lam_minus = -i sin(varphi) and |eta| = cos(varphi) = omega_r / I.
    """
    big_i = math.sqrt(params.omega_r**2 + 0.25 * (params.omega0 - params.omega_a) ** 2)
    return big_i, in_mean_frame(params, math.pi / (2.0 * big_i))


def test_geometry_resonance():
    big_i, entries = quarter_turn(ModelParams(4.0, 4.0, 1.0))
    assert big_i == 1.0
    assert entries[0, 0].imag == 0.0  # varphi = 0
    assert abs(entries[0, 1]) == 1.0


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_geometry_quarter_angle(sign):
    # omega0 - omega_a = sign * 2 omega_r  ->  varphi = sign * pi/4, I = sqrt(2)
    big_i, entries = quarter_turn(ModelParams(4.0 + sign * 2.0, 4.0, 1.0))
    assert abs(big_i - math.sqrt(2.0)) < 1e-14
    assert abs(entries[0, 0] + 1j * math.sin(sign * math.pi / 4)) < 1e-14
    assert abs(abs(entries[0, 1]) - math.cos(math.pi / 4)) < 1e-14


def test_geometry_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        params = random_params(rng)
        big_i, entries = quarter_turn(params)
        sin_varphi = 0.5 * (params.omega0 - params.omega_a) / big_i
        assert abs(entries[0, 0] + 1j * sin_varphi) < 1e-12
        assert abs(abs(entries[0, 1]) - params.omega_r / big_i) < 1e-12


def test_params_require_positive_coupling():
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, 0.0)


def test_propagator_at_zero_is_identity():
    u = propagator_at(ModelParams(4.0, 4.0, 1.0, 0.3), 0.0)
    np.testing.assert_allclose(u, np.eye(2), rtol=0.0, atol=0.0)


def test_propagator_resonant_quarter_period():
    params = ModelParams(4.0, 4.0, 1.0)
    t = math.pi / 2
    swap = np.array([[0.0, -1j], [-1j, 0.0]])
    np.testing.assert_allclose(in_mean_frame(params, t), swap, atol=1e-15)
    np.testing.assert_allclose(propagator_at(params, t), np.exp(-4j * t) * swap, atol=1e-15)


def test_propagator_detuned_decoupling_time():
    # varphi = pi/4, I = sqrt(2): at I t = pi the modes decouple up to phase
    u = in_mean_frame(ModelParams(5.0, 3.0, 1.0), math.pi / math.sqrt(2.0))
    np.testing.assert_allclose(u, -np.eye(2), atol=1e-13)


def test_unitarity_and_coefficient_identity():
    rng = np.random.default_rng(11)
    for _ in range(200):
        params = random_params(rng)
        t = float(rng.uniform(0.0, 20.0))
        u = propagator_at(params, t)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
        big_i = math.hypot(params.omega_r, 0.5 * (params.omega0 - params.omega_a))
        lam_minus = u[0, 0]  # up to the global phase
        eta = params.omega_r / big_i * math.sin(big_i * t)  # cos(varphi) sin(I t)
        assert abs(abs(lam_minus) ** 2 + eta**2 - 1.0) < 1e-12


def test_composition_at_resonance():
    params = ModelParams(3.0, 3.0, 1.7, 0.4)
    rng = np.random.default_rng(13)
    for _ in range(30):
        t1, t2 = rng.uniform(0.0, 8.0, size=2)
        combined = propagator_at(params, t1 + t2)
        product = propagator_at(params, t1) @ propagator_at(params, t2)
        np.testing.assert_allclose(combined, product, atol=1e-10)


def test_detuned_propagator_matches_direct_exponential():
    # independent route: exponentiate the coupled-mode generator directly
    rng = np.random.default_rng(17)
    for _ in range(50):
        params = random_params(rng)
        t = float(rng.uniform(0.0, 10.0))
        u = propagator_at(params, t)
        direct = expm(-1j * coefficient_matrix(params) * t)
        np.testing.assert_allclose(u, direct, atol=1e-12)


@pytest.mark.parametrize(
    "omega0, omega_a, omega_r, theta",
    [(1e4, 4.0, 1.0, 0.3), (3e3, -3e3, 0.5, 2.0), (1e8, -1e8, 1.0, 1.1)],
)
def test_far_detuned_propagator_matches_direct_exponential(omega0, omega_a, omega_r, theta):
    # near varphi = pi/2, I = omega_r / cos(varphi) loses eps / cos(varphi) of
    # relative accuracy; the propagator must stay at the exponential's roundoff
    params = ModelParams(omega0, omega_a, omega_r, theta)
    u = propagator_at(params, 1.0)
    direct = expm(-1j * coefficient_matrix(params))
    atol = 100 * np.finfo(float).eps * max(abs(omega0), abs(omega_a))
    np.testing.assert_allclose(u, direct, rtol=0, atol=atol)


def squeezed_vacuum_moments(r=1.0):
    return mode_moments(squeezed_coherent_state(SqueezedInput(r), 128))


def test_moment_map_identity_leaves_moments():
    a0 = squeezed_vacuum_moments()
    u = propagator_at(ModelParams(4.0, 4.0, 1.0), 0.0)
    a_t, b_t = heisenberg_moment_map(u, a0)
    assert a_t == a0
    assert b_t.number_mean == 0.0
    assert b_t.mean_amp == 0.0


def test_moment_map_complete_conversion():
    a0 = squeezed_vacuum_moments()
    params = ModelParams(4.0, 4.0, 1.0)
    u = propagator_at(params, math.pi / 2)
    a_t, b_t = heisenberg_moment_map(u, a0)
    assert abs(b_t.number_mean - math.sinh(1.0) ** 2) < 1e-9
    assert abs(a_t.number_mean) < 1e-20


def test_moment_map_third_period_value():
    # sinh^2(1) sin^2(pi/3) = sinh^2(1) * 3/4
    a0 = squeezed_vacuum_moments()
    u = propagator_at(ModelParams(4.0, 4.0, 1.0), math.pi / 3)
    _, b_t = heisenberg_moment_map(u, a0)
    assert abs(b_t.number_mean - math.sinh(1.0) ** 2 * 0.75) < 1e-9


def test_moment_map_conserves_total_occupation():
    a0 = mode_moments(
        squeezed_coherent_state(SqueezedInput(0.6, 0.2, 0.4 - 0.3j), 96)
    )
    rng = np.random.default_rng(19)
    for _ in range(40):
        params = random_params(rng)
        u = propagator_at(params, rng.uniform(0.0, 15.0, size=3))
        a_t, b_t = heisenberg_moment_map(u, a0)
        assert np.max(np.abs(a_t.number_mean + b_t.number_mean - a0.number_mean)) < 1e-10


def test_moment_map_number_moments_theta_independent():
    a0 = squeezed_vacuum_moments(0.8)
    base = ModelParams(4.0, 4.0, 1.0, 0.0)
    times = np.array([0.3, 1.1, 2.9])
    reference = heisenberg_moment_map(propagator_at(base, times), a0)
    for theta in (0.5, 2.0, 5.5):
        shifted = heisenberg_moment_map(
            propagator_at(ModelParams(4.0, 4.0, 1.0, theta), times), a0
        )
        for ref, got in zip(reference, shifted):
            assert np.max(np.abs(ref.number_mean - got.number_mean)) < 1e-12
            assert np.max(np.abs(ref.number_var - got.number_var)) < 1e-12



def test_propagator_at_array_of_times_matches_scalar_calls():
    params = ModelParams(5.0, 3.0, 1.4, 0.8)
    times = np.array([[0.0, 0.7], [2.3, 9.1]])
    u = propagator_at(params, times)
    assert u.shape == (2, 2, 2, 2)
    for index in np.ndindex(times.shape):
        np.testing.assert_allclose(
            u[index], propagator_at(params, times[index]), rtol=0, atol=1e-15
        )
    assert propagator_at(params, 0.7).shape == (2, 2)
