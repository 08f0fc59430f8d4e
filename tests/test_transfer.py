"""Transfer-matrix algebra: construction, polar form, composition, shifts."""

import cmath
import math
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compound_barriers import (
    NORM_TOL,
    RAPIDITY_LIMIT,
    DomainError,
    HyperbolicParams,
    NormalizationError,
    RapidityOverflowError,
    TransferMatrix,
    amplitudes,
    b_n_closed,
    compose,
    RapiditySequence,
    s_n,
    to_polar,
)
from compound_barriers.transfer import translate
from conftest import boost
from oracles import from_polar

# frozen by high-precision evaluation (mpmath, 50 digits)
ASINH_1 = 0.881373587019543      # = ln(1 + sqrt 2)
SQRT_2 = 1.4142135623730951

thetas = st.floats(min_value=1e-6, max_value=20.0)
small_thetas = st.floats(min_value=0.0, max_value=3.0)
angles = st.floats(min_value=-math.pi, max_value=math.pi, exclude_min=True)


def random_matrix(theta, phi_a, phi_b):
    return from_polar(HyperbolicParams(theta, phi_a, phi_b))


matrices = st.builds(random_matrix, small_thetas, angles, angles)
IDENTITY = TransferMatrix(1, 0)


def shifted(m, k, a):
    """The barrier of m moved by a at wavenumber k."""
    return TransferMatrix(m.alpha, translate(m.beta, k, a))


class TestMakeTransfer:
    """TransferMatrix built from raw coefficients."""

    def test_identity_case(self):
        m = TransferMatrix(1.0, 0.0)
        assert m.alpha == 1.0 + 0.0j
        assert m.beta == 0.0j

    def test_polar_form_is_normalized_by_construction(self):
        alpha = cmath.rect(math.cosh(1.0), 0.3)
        beta = cmath.rect(math.sinh(1.0), 1.1)
        m = TransferMatrix(alpha, beta)
        assert abs(abs(m.alpha) ** 2 - abs(m.beta) ** 2 - 1.0) <= NORM_TOL
        assert to_polar(m).theta == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unnormalized_pair(self):
        with pytest.raises(NormalizationError):
            TransferMatrix(1.0, 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            TransferMatrix(complex("nan"), 0.0)
        with pytest.raises(DomainError):
            TransferMatrix(complex("inf"), 0.0)

    def test_rejects_alpha_past_the_trusted_range(self):
        # |alpha|^2 overflows to inf here, which the normalization test alone let pass
        for beta in (0.0, 3e199j):
            with pytest.raises(RapidityOverflowError):
                TransferMatrix(1e200, beta)

    def test_accepts_float_noise_inside_tolerance(self):
        m = TransferMatrix(1.0 - 1e-14, 0.0)
        assert to_polar(m).theta == 0.0


class TestPolarForm:
    def test_zero_params_give_identity(self):
        m = from_polar(HyperbolicParams(0.0, 0.0, 0.0))
        assert m.alpha == 1.0 + 0.0j
        assert m.beta == 0.0j

    def test_asinh_one_gives_sqrt2_and_one(self):
        m = from_polar(HyperbolicParams(math.log(1.0 + math.sqrt(2.0)), 0.0, 0.0))
        assert m.alpha.real == pytest.approx(SQRT_2, abs=1e-15)
        assert m.beta.real == pytest.approx(1.0, abs=1e-15)
        assert m.alpha.imag == 0.0 and m.beta.imag == 0.0

    def test_rejects_negative_theta(self):
        with pytest.raises(DomainError):
            HyperbolicParams(-0.1, 0.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            HyperbolicParams(math.nan, 0.0, 0.0)
        with pytest.raises(DomainError):
            HyperbolicParams(1.0, math.inf, 0.0)

    def test_refuses_untrustworthy_rapidity(self):
        with pytest.raises(RapidityOverflowError):
            from_polar(HyperbolicParams(351.0, 0.0, 0.0))
        assert issubclass(RapidityOverflowError, OverflowError)

    def test_accepts_the_trusted_limit_at_every_phase(self):
        # |alpha|^2 of a pair at RAPIDITY_LIMIT rounds up to 2 ulps past cosh^2
        for i in range(2001):
            phi = -math.pi + 2.0 * math.pi * i / 2000
            m = from_polar(HyperbolicParams(RAPIDITY_LIMIT, phi, -phi))
            assert to_polar(m).theta == pytest.approx(RAPIDITY_LIMIT, rel=1e-15)

    def test_phases_wrap_to_principal_branch(self):
        p = HyperbolicParams(1.0, 3.0 * math.pi, -3.5 * math.pi)
        assert p.phi_alpha == pytest.approx(math.pi, abs=1e-12)
        assert p.phi_beta == pytest.approx(0.5 * math.pi, abs=1e-12)

    def test_to_polar_identity(self):
        p = to_polar(IDENTITY)
        assert (p.theta, p.phi_alpha, p.phi_beta) == (0.0, 0.0, 0.0)

    def test_to_polar_clamps_alpha_below_one(self):
        m = TransferMatrix(1.0 - 1e-14, 0.0)
        assert to_polar(m).theta == 0.0

    def test_zero_beta_phase_defined_as_zero(self):
        # a rotated transparent matrix has |beta| = 0: its phase carries no
        # information and comes back as 0
        m = TransferMatrix(cmath.rect(1.0, 0.4), 0.0)
        assert to_polar(m).phi_beta == 0.0
        assert to_polar(m).phi_alpha == pytest.approx(0.4, abs=1e-15)

    @given(theta=thetas, phi_a=angles, phi_b=angles)
    def test_round_trip(self, theta, phi_a, phi_b):
        p = to_polar(from_polar(HyperbolicParams(theta, phi_a, phi_b)))
        # acosh near 1 costs ~eps/(2 theta) absolute, hence the mixed tolerance
        assert p.theta == pytest.approx(theta, rel=1e-11, abs=1e-9)
        assert p.phi_alpha == pytest.approx(phi_a, abs=1e-9)
        assert p.phi_beta == pytest.approx(phi_b, abs=1e-9)


class TestCompose:
    def test_identity_is_neutral(self):
        m = random_matrix(1.3, 0.4, -0.9)
        for product in (compose(IDENTITY, m), compose(m, IDENTITY)):
            assert product.alpha == pytest.approx(m.alpha, rel=1e-15)
            assert product.beta == pytest.approx(m.beta, rel=1e-15)

    @given(t1=small_thetas, t2=small_thetas)
    def test_real_boosts_add_rapidities(self, t1, t2):
        product = compose(boost(t1), boost(t2))
        # recovering theta through acosh bottoms out at sqrt(2 eps) ~ 2e-8
        assert to_polar(product).theta == pytest.approx(t1 + t2, rel=1e-12, abs=3e-8)

    def test_destructive_phase_condition_cancels_beta(self):
        # phi_b1 - phi_b2 - phi_a1 - phi_a2 = pi gives |beta_12| = 0 when
        # theta_1 = theta_2, hence |alpha_12| = 1.
        phi_a1, phi_a2, phi_b1 = 0.4, -0.2, 0.7
        phi_b2 = phi_b1 - phi_a1 - phi_a2 - math.pi
        m = compose(random_matrix(1.0, phi_a1, phi_b1),
                    random_matrix(1.0, phi_a2, phi_b2))
        assert abs(m.beta) == pytest.approx(0.0, abs=1e-12)
        assert abs(m.alpha) == pytest.approx(1.0, abs=1e-12)

    @given(m1=matrices, m2=matrices)
    def test_group_closure(self, m1, m2):
        m = compose(m1, m2)
        assert abs(m.alpha) ** 2 - abs(m.beta) ** 2 == pytest.approx(1.0, abs=1e-9)

    @given(a=matrices, b=matrices, c=matrices)
    def test_associative(self, a, b, c):
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert left.alpha == pytest.approx(right.alpha, rel=1e-12)
        assert left.beta == pytest.approx(right.beta, rel=1e-12, abs=1e-12)

    def test_not_commutative_but_theta_stays_bounded(self):
        a = random_matrix(1.0, 0.5, 0.2)
        b = random_matrix(0.7, -0.3, 1.0)
        ab, ba = compose(a, b), compose(b, a)
        assert ab.beta != ba.beta
        seq = RapiditySequence((1.0, 0.7))
        lo, hi = b_n_closed(seq), s_n(seq)
        for product in (ab, ba):
            assert lo - 1e-10 <= to_polar(product).theta <= hi + 1e-10

    def test_overflow_is_loud(self):
        with pytest.raises(RapidityOverflowError):
            compose(boost(200.0), boost(200.0))


class TestComposeSequence:
    """Left-to-right products, reduce(compose, [M1, ..., Mn]) = M1 M2 ... Mn."""

    def test_identical_boosts_accumulate(self):
        product = reduce(compose, [boost(0.5)] * 4)
        assert to_polar(product).theta == pytest.approx(2.0, rel=1e-13)

    def test_matches_full_2x2_multiplication(self):
        # oracle: plain complex 2x2 products of [[a, b], [b*, a*]]
        import numpy as np

        rng = np.random.default_rng(20240811)
        for _ in range(25):
            ms = [random_matrix(t, pa, pb)
                  for t, pa, pb in zip(rng.uniform(0, 2, 3),
                                       rng.uniform(-3, 3, 3),
                                       rng.uniform(-3, 3, 3))]
            full = np.eye(2, dtype=complex)
            for m in ms:
                full = full @ np.array([[m.alpha, m.beta],
                                        [m.beta.conjugate(), m.alpha.conjugate()]])
            product = reduce(compose, ms)
            assert product.alpha == pytest.approx(full[0, 0], rel=1e-12)
            assert product.beta == pytest.approx(full[0, 1], rel=1e-12, abs=1e-12)


class TestShift:
    """Moving a barrier by a at wavenumber k (transfer.translate)."""

    def test_zero_shift_is_identity(self):
        m = random_matrix(1.1, 0.3, -0.4)
        s = shifted(m, 2.0, 0.0)
        assert s.alpha == m.alpha and s.beta == m.beta

    @given(m=matrices, k=st.floats(min_value=0.01, max_value=10.0),
           a=st.floats(min_value=-50.0, max_value=50.0))
    def test_theta_exactly_invariant(self, m, k, a):
        assert to_polar(shifted(m, k, a)).theta == to_polar(m).theta

    def test_full_period_returns_same_matrix(self):
        m = random_matrix(0.9, 0.2, 0.6)
        s = shifted(m, 1.0, math.pi)
        assert s.beta == pytest.approx(m.beta, rel=1e-12)
        assert s.alpha == m.alpha


class TestAmplitudesAndNumber:
    def test_identity_is_transparent(self):
        amp = amplitudes(IDENTITY)
        assert amp.t == 1.0 + 0.0j
        assert amp.r == 0.0j

    def test_half_transmission_at_asinh_one(self):
        amp = amplitudes(boost(ASINH_1))
        assert amp.T == pytest.approx(0.5, abs=1e-15)
        assert amp.R == pytest.approx(0.5, abs=1e-15)

    @given(m=matrices)
    def test_unitarity(self, m):
        amp = amplitudes(m)
        assert amp.T + amp.R == pytest.approx(1.0, abs=1e-10)

    @given(m=matrices)
    def test_amplitude_phases_follow_polar_form(self, m):
        p = to_polar(m)
        amp = amplitudes(m)
        assert cmath.phase(amp.t) == pytest.approx(-p.phi_alpha, abs=1e-9)
        expected_r = cmath.rect(math.tanh(p.theta), -(p.phi_alpha - p.phi_beta))
        assert amp.r == pytest.approx(expected_r, abs=1e-9)

    def test_particle_number_values(self):
        # N = |beta|^2 = sinh^2(theta)
        assert abs(IDENTITY.beta) ** 2 == 0.0
        assert abs(boost(ASINH_1).beta) ** 2 == pytest.approx(1.0, abs=1e-15)

    @given(m=matrices, k=st.floats(min_value=0.1, max_value=5.0),
           a=st.floats(min_value=-20.0, max_value=20.0))
    def test_particle_number_shift_invariant(self, m, k, a):
        assert abs(shifted(m, k, a).beta) ** 2 == pytest.approx(
            abs(m.beta) ** 2, rel=1e-12, abs=1e-15)
