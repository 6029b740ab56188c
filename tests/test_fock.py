"""Basis bookkeeping, state construction, and single-mode moments."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from atomlaser.fock import (
    SqueezedInput,
    TruncationError,
    mode_moments,
    squeezed_amplitudes,
    squeezed_coherent_state,
    top_decile_mass,
    truncation_tails,
)
from atomlaser.observables import input_moments


def ladder_matrix(n_max):
    """Reference annihilation operator on levels 0 .. n_max: sqrt(n) at the
    (n-1, n) positions.

    The creation operator is the conjugate transpose.  In the truncated basis
    a adag - adag a equals the identity except for the bottom-right corner
    entry, which is -n_max.
    """
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1).astype(complex)


def coherent_state(m, n_max):
    """The coherent state |m>: the squeezed-coherent input at r = 0."""
    return squeezed_coherent_state(SqueezedInput(0.0, m=m), n_max)


def expm_reference(inp, n_max):
    """S D(m)|0> by dense matrix exponentials at twice the cutoff, projected
    back to levels 0 .. n_max and renormalised (the squeeze generator couples
    n to n +/- 2, so it leaks population past any fixed cutoff)."""
    a = ladder_matrix(2 * n_max)
    adag = a.conj().T
    vacuum = np.zeros(2 * n_max + 1, dtype=complex)
    vacuum[0] = 1.0
    kappa = 0.5 * inp.r * np.exp(-2j * inp.phi)
    squeeze = expm(kappa * (adag @ adag) - np.conj(kappa) * (a @ a))
    displace = expm(inp.m * adag - np.conj(inp.m) * a)
    proj = (squeeze @ displace @ vacuum)[: n_max + 1]
    return proj / np.linalg.norm(proj)


def test_truncation_dimensions():
    # a cutoff n_max keeps the levels 0 .. n_max
    inp = SqueezedInput(0.5, m=0.3)
    assert squeezed_amplitudes(inp, 5).shape == (6,)
    assert squeezed_coherent_state(inp, 40).shape == (41,)


def test_squeezed_input_rejects_negative_r():
    with pytest.raises(ValueError):
        SqueezedInput(-0.1)


def test_ladder_n_max_1():
    a = ladder_matrix(1)
    np.testing.assert_allclose(a, [[0.0, 1.0], [0.0, 0.0]], atol=0.0)


def test_ladder_n_max_2():
    a = ladder_matrix(2)
    expected = np.zeros((3, 3))
    expected[0, 1] = 1.0
    expected[1, 2] = math.sqrt(2.0)
    np.testing.assert_allclose(a, expected, atol=0.0)


@pytest.mark.parametrize("n_max", [1, 2, 5, 16])
def test_ladder_commutator_has_truncation_corner(n_max):
    # a adag - adag a = I everywhere except the corner entry, which is -n_max
    a = ladder_matrix(n_max)
    comm = a @ a.conj().T - a.conj().T @ a
    expected = np.eye(n_max + 1, dtype=complex)
    expected[n_max, n_max] = -n_max
    np.testing.assert_allclose(comm, expected, atol=1e-14)


def test_coherent_vacuum():
    vec = coherent_state(0j, 8)
    assert vec[0] == 1.0
    assert np.all(vec[1:] == 0.0)
    assert top_decile_mass(vec) == 0.0


def test_coherent_number_mean_matches_amplitude_square():
    vec = coherent_state(1.0, 32)
    assert abs(mode_moments(vec).number_mean - 1.0) < 1e-10


def test_coherent_mean_amp_recovers_amplitude():
    vec = coherent_state(2j, 64)
    assert abs(mode_moments(vec).mean_amp - 2j) < 1e-8


def test_coherent_number_sq_poisson_identity():
    # <N^2> = <N>^2 + <N> for Poisson statistics; equals 2 at |m| = 1
    vec = coherent_state(1.0, 32)
    assert abs(mode_moments(vec).number_sq - 2.0) < 1e-10


@pytest.mark.parametrize("m", [0.5, 1.0, 1.5 + 0.5j])
def test_coherent_is_poissonian(m):
    moments = mode_moments(coherent_state(m, 48))
    q = moments.number_var / moments.number_mean - 1.0
    assert abs(q) < 1e-8


def test_coherent_truncation_insufficient():
    with pytest.raises(TruncationError):
        coherent_state(6.0, 16)


def test_constructors_return_unit_norm():
    for vec in (
        coherent_state(1.3 - 0.4j, 48),
        squeezed_coherent_state(SqueezedInput(0.8, 0.2, 0.5), 64),
    ):
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-10


def test_squeeze_r_zero_is_coherent():
    # Poisson amplitudes e^{-1/2} / sqrt(n!) of |m = 1>, for any squeeze angle
    direct = [math.exp(-0.5) / math.sqrt(math.factorial(n)) for n in range(33)]
    squeezed = squeezed_coherent_state(SqueezedInput(0.0, 0.7, 1.0), 32)
    np.testing.assert_allclose(squeezed, direct, atol=1e-12)


@pytest.mark.parametrize("phi", [0.0, 0.4])
def test_squeezed_vacuum_closed_moments(phi):
    # exact values: <N> = sinh^2 r, <dN^2> = 2 sinh^2 r cosh^2 r,
    # <a^2> = +e^{-2i phi} sinh r cosh r under the squeeze-generator sign
    # used throughout (fixed by the downstream quadrature-transfer results)
    r = 1.0
    moments = mode_moments(
        squeezed_coherent_state(SqueezedInput(r, phi), 96)
    )
    s, c = math.sinh(r), math.cosh(r)
    assert abs(moments.number_mean - s * s) < 1e-8
    assert abs(moments.number_var - 2.0 * s * s * c * c) < 1e-8
    assert abs(moments.sq_amp - np.exp(-2j * phi) * s * c) < 1e-8


def test_squeezed_vacuum_truncation_error_scaling():
    # squeezed number tails are geometric (ratio tanh^2 r), so a cutoff of 64
    # leaves ~1e-7 in the mean and ~1e-5 in the variance for r = 1; the
    # n_max = 96 assertions above check the same values at 1e-8
    moments = mode_moments(
        squeezed_coherent_state(SqueezedInput(1.0), 64)
    )
    s, c = math.sinh(1.0), math.cosh(1.0)
    assert abs(moments.number_mean - s * s) < 5e-7
    assert abs(moments.sq_amp - s * c) < 5e-7
    assert abs(moments.number_var - 2.0 * s * s * c * c) < 5e-5


def test_squeezed_truncation_insufficient():
    with pytest.raises(TruncationError):
        squeezed_coherent_state(SqueezedInput(2.0), 16)


def test_squeezed_displaced_moments_match_mode_transform():
    # independent route: push a through S (a -> a cosh r + adag e^{-2i phi}
    # sinh r) and take coherent-state expectations analytically
    r, phi, m = 0.7, 0.3, 0.5 + 0.2j
    moments = mode_moments(
        squeezed_coherent_state(SqueezedInput(r, phi, m), 96)
    )
    c, s = math.cosh(r), math.sinh(r)
    rot = np.exp(-2j * phi)
    mean = m * c + np.conj(m) * rot * s
    sq = c * c * m * m + c * s * rot * (2 * abs(m) ** 2 + 1) + s * s * rot * rot * np.conj(m) ** 2
    a1, a2 = s * s + c * c, s * c
    interference = 2.0 * ((m * m) * np.exp(2j * phi)).real
    n_mean = abs(m) ** 2 * a1 + interference * a2 + s * s
    n_var = abs(m) ** 2 * a1**2 + 2 * a2**2 * (2 * abs(m) ** 2 + 1) + 2 * a1 * a2 * interference
    assert abs(moments.mean_amp - mean) < 1e-9
    assert abs(moments.sq_amp - sq) < 1e-9
    assert abs(moments.number_mean - n_mean) < 1e-9
    assert abs(moments.number_var - n_var) < 1e-9


def test_mode_moments_squeezed_vacuum_sq_amp_sign():
    # anchors the generator sign: <a^2> = +sinh(1) cosh(1) for phi = 0
    light = squeezed_coherent_state(SqueezedInput(1.0), 96)
    expected = math.sinh(1.0) * math.cosh(1.0)
    assert abs(mode_moments(light).sq_amp - expected) < 1e-6


def test_number_state_moments():
    amps = np.zeros(9, dtype=complex)
    amps[5] = 1.0
    moments = mode_moments(amps)
    assert moments.number_mean == 5.0
    assert moments.number_sq == 25.0
    assert moments.mean_amp == 0.0


@pytest.mark.parametrize("seed", range(12))
def test_moment_set_invariants_on_random_inputs(seed):
    rng = np.random.default_rng(1000 + seed)
    inp = SqueezedInput(
        r=float(rng.uniform(0.0, 1.0)),
        phi=float(rng.uniform(0.0, 2 * math.pi)),
        m=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
    )
    moments = mode_moments(squeezed_coherent_state(inp, 96))
    assert moments.number_mean >= 0.0
    assert moments.number_sq >= moments.number_mean**2 - 1e-9
    assert abs(moments.mean_amp) ** 2 <= moments.number_mean + 1e-9


def test_truncation_monotonicity():
    # once the tail criterion holds, growing the basis moves moments by less
    # than the truncation tolerance
    inp = SqueezedInput(0.5, 0.1, 0.3)
    small = mode_moments(squeezed_coherent_state(inp, 64))
    large = mode_moments(squeezed_coherent_state(inp, 96))
    assert abs(small.number_mean - large.number_mean) < 1e-6
    assert abs(small.number_var - large.number_var) < 1e-6
    assert abs(small.sq_amp - large.sq_amp) < 1e-6


@pytest.mark.parametrize(
    "r, phi, m, n_max",
    [
        (0.0, 0.7, 0.8 - 0.3j, 24),
        (0.4, 0.0, 0.0, 24),
        (0.3, 1.1, -0.4 + 0.9j, 32),
        (0.6, -0.5, 0.5 + 0.2j, 40),
        (0.8, 2.0, 0.6j, 64),
    ],
)
def test_recurrence_matches_expm_reference(r, phi, m, n_max):
    # the two agree up to the global phase the recurrence fixes by a real c_0
    inp = SqueezedInput(r, phi, m)
    state = squeezed_coherent_state(inp, n_max)
    ref = expm_reference(inp, n_max)
    phase = ref[0] / abs(ref[0])
    assert state[0].imag == 0.0 and state[0].real > 0.0
    assert np.max(np.abs(state - ref / phase)) < 1e-14


def test_norm_deficit_is_the_exact_tail():
    inp = SqueezedInput(1.0, 0.3, 0.2 + 0.1j)
    exact = squeezed_amplitudes(inp, 400)
    tails = truncation_tails(exact)
    for n_max in (64, 80, 96):
        vec = squeezed_coherent_state(inp, n_max)
        tail = float(np.sum(np.abs(exact[n_max + 1 :]) ** 2))
        deficit = truncation_tails(squeezed_amplitudes(inp, n_max))[-1]
        assert abs(deficit - tail) < 1e-14
        np.testing.assert_allclose(vec, exact[: n_max + 1] / math.sqrt(1.0 - tail), atol=1e-15)
        # converge builds each cutoff's light as this renormalised prefix
        assert np.array_equal(exact[: n_max + 1] / math.sqrt(1.0 - tails[n_max]), vec)


def test_squeezed_state_rejects_unrepresentable_inputs():
    # deep squeezing leaves the state far outside the basis; a huge complex
    # amplitude makes the amplitudes NaN, which must fail the deficit check
    for inp in (SqueezedInput(800.0), SqueezedInput(0.5, m=1e200 + 1e200j)):
        with pytest.raises(TruncationError):
            squeezed_coherent_state(inp, 64)


@pytest.mark.parametrize(
    "r, phi, m",
    [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 0.5), (0.7, 0.3, 0.5 + 0.2j),
     (1.3, -0.4, 1.2 - 0.7j)],
)
def test_closed_input_moments_match_recurrence_state(r, phi, m):
    inp = SqueezedInput(r, phi, m)
    closed = input_moments(inp)
    fock = mode_moments(squeezed_coherent_state(inp, 400))
    assert abs(closed.mean_amp - fock.mean_amp) < 1e-14 * max(1.0, abs(closed.mean_amp))
    assert abs(closed.sq_amp - fock.sq_amp) < 1e-14 * max(1.0, abs(closed.sq_amp))
    assert abs(closed.number_mean - fock.number_mean) < 1e-14 * max(1.0, closed.number_mean)
    assert abs(closed.number_sq - fock.number_sq) < 1e-14 * max(1.0, closed.number_sq)
