"""Identity kernel: closed algebraic forms vs naive transcendental chains."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from compound_barriers import DomainError
from oracles import (
    cosh_sum_acosh,
    cosh_sum_asinh,
    sech_sum_asech,
    sinh_sum_asinh,
    tanh_sum_atanh,
    two_barrier_T_bounds_rational,
)


def close(a, b):
    # relative 1e-12 where the value is nonzero, 1e-15 absolute floor for
    # the near-cancellation corner where "relative" loses meaning
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


class TestSpotValues:
    def test_sinh_sum_with_zero_is_identity(self):
        for b in (0.0, 0.3, 2.0, 50.0):
            assert sinh_sum_asinh(0.0, b) == pytest.approx(b, rel=1e-15)

    def test_tanh_sum_worked_value(self):
        # (0.3 + 0.4)/(1 + 0.12) = 0.625
        assert tanh_sum_atanh(0.3, 0.4) == pytest.approx(0.625, rel=1e-14)
        naive = math.tanh(math.atanh(0.3) + math.atanh(0.4))
        assert naive == pytest.approx(0.625, rel=1e-14)

    def test_sech_sum_worked_value_links_to_transmission_bound(self):
        s = math.sqrt(0.5)
        value = sech_sum_asech(s, s)
        assert value == pytest.approx(1.0 / 3.0, rel=1e-14)
        # squaring it is the compound lower transmission bound for two
        # half-transparent barriers
        assert value ** 2 == pytest.approx(
            two_barrier_T_bounds_rational(0.5, 0.5)[0], rel=1e-13)

    def test_cosh_acosh_at_lower_edge(self):
        assert cosh_sum_acosh(1.0, 7.5) == pytest.approx(7.5, rel=1e-15)


class TestDomains:
    def test_acosh_requires_at_least_one(self):
        with pytest.raises(DomainError):
            cosh_sum_acosh(0.999, 2.0)

    def test_atanh_requires_open_unit_interval(self):
        with pytest.raises(DomainError):
            tanh_sum_atanh(1.0, 0.2)
        with pytest.raises(DomainError):
            tanh_sum_atanh(0.2, -1.0)

    def test_asech_requires_half_open_unit_interval(self):
        with pytest.raises(DomainError):
            sech_sum_asech(0.0, 0.5)
        with pytest.raises(DomainError):
            sech_sum_asech(0.5, 1.0000001)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            sinh_sum_asinh(math.inf, 1.0)


class TestAgainstTranscendental:
    @given(a=st.floats(min_value=0.0, max_value=100.0),
           b=st.floats(min_value=0.0, max_value=100.0))
    def test_sinh_sum(self, a, b):
        assert close(sinh_sum_asinh(a, b), math.sinh(math.asinh(a) + math.asinh(b)))

    @given(a=st.floats(min_value=0.0, max_value=100.0),
           b=st.floats(min_value=0.0, max_value=100.0))
    def test_cosh_sum_asinh(self, a, b):
        assert close(cosh_sum_asinh(a, b), math.cosh(math.asinh(a) + math.asinh(b)))

    # Within ~1e-9 of the domain edges (acosh at 1, asech at 1) both
    # evaluation routes lose half their digits to the same square-root
    # cliff, so the sampled domain keeps an inset plus the exact endpoint,
    # where both routes are exact again.
    acosh_args = st.one_of(st.just(1.0), st.floats(min_value=1.000001, max_value=50.0))
    asech_args = st.one_of(st.just(1.0), st.floats(min_value=1e-6, max_value=0.999999))

    @given(a=acosh_args, b=acosh_args)
    def test_cosh_sum_acosh(self, a, b):
        assert close(cosh_sum_acosh(a, b), math.cosh(math.acosh(a) + math.acosh(b)))

    @given(a=st.floats(min_value=0.0, max_value=0.999999),
           b=st.floats(min_value=0.0, max_value=0.999999))
    def test_tanh_sum(self, a, b):
        assert close(tanh_sum_atanh(a, b), math.tanh(math.atanh(a) + math.atanh(b)))

    @given(a=asech_args, b=asech_args)
    def test_sech_sum(self, a, b):
        naive = 1.0 / math.cosh(math.acosh(1.0 / a) + math.acosh(1.0 / b))
        assert close(sech_sum_asech(a, b), naive)

    def test_negative_arguments_where_the_domain_allows(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            a, b = rng.uniform(-20.0, 20.0, size=2)
            # a ~ -b cancels two O(a^2) terms; the achievable agreement is
            # then absolute at the size of the cancelled terms times eps
            floor = 2e-15 * (1.0 + a * a) * (1.0 + b * b) ** 0.5
            got = sinh_sum_asinh(a, b)
            want = math.sinh(math.asinh(a) + math.asinh(b))
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=floor)
            got = cosh_sum_asinh(a, b)
            want = math.cosh(math.asinh(a) + math.asinh(b))
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=floor)
            at, bt = rng.uniform(-0.99999, 0.99999, size=2)
            assert close(tanh_sum_atanh(at, bt), math.tanh(math.atanh(at) + math.atanh(bt)))
