"""Bounds engine: conversions, two-barrier closed forms (the n = 2 row of
[B_n, S_n], against their rational forms), [B_n, S_n], criteria."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from compound_barriers import (
    BoundsColumns,
    DimensionError,
    DomainError,
    EmptySequenceError,
    N_from_theta,
    RAPIDITY_LIMIT,
    R_from_theta,
    RapidityOverflowError,
    RapiditySequence,
    T_from_theta,
    b_n_closed,
    bounds_report,
    production_guaranteed,
    resonance_assessment,
    resonance_possible,
    s_n,
    theta_from_N,
    theta_from_R,
    theta_from_T,
)
from compound_barriers.bounds import _CASCADE_MIN_ROWS, b_n_iterative_rows
from conftest import two_barrier_N, two_barrier_R, two_barrier_T
from oracles import (
    b_n_iterative,
    bounds_row_literal,
    grid_N_interval,
    grid_T_interval,
    hyperbolic_squares_dd,
    two_barrier_N_bounds_rational,
    two_barrier_R_bounds_rational,
    two_barrier_T_bounds_rational,
)

# frozen by high-precision evaluation (mpmath, 50 digits)
ASINH_1 = 0.881373587019543
T_LOW_05_08 = 0.230886157020407
T_HIGH_05_08 = 0.8555335960660128
N_LOW_3_1 = 0.20204102886728761     # (sqrt6 - 2)^2
N_HIGH_3_1 = 19.79795897113271      # (sqrt6 + 2)^2
SECH2_1 = 0.4199743416140261
SECH2_5 = 1.815832309438067e-4
PROD_B_3_01 = 1.0057766450674275    # asinh(sqrt 3) - asinh(sqrt 0.1)
PROD_NMIN_3_01 = 1.4021749413847886  # sinh^2 of the above

theta_vals = st.floats(min_value=0.0, max_value=20.0)


def seq(*thetas):
    return RapiditySequence(tuple(thetas))


class TestConversions:
    def test_transparent_maps_to_zero(self):
        assert theta_from_T(1.0) == 0.0
        assert theta_from_R(0.0) == 0.0
        assert theta_from_N(0.0) == 0.0

    def test_half_transmission(self):
        assert theta_from_T(0.5) == pytest.approx(ASINH_1, rel=1e-15)

    def test_the_three_lengths_agree_on_one_matrix(self):
        # same barrier seen through T, R and N gives the same rapidity
        theta = 1.37
        assert theta_from_T(T_from_theta(theta)) == pytest.approx(theta, rel=1e-13)
        assert theta_from_R(R_from_theta(theta)) == pytest.approx(theta, rel=1e-13)
        assert theta_from_N(N_from_theta(theta)) == pytest.approx(theta, rel=1e-13)

    @given(theta=st.floats(min_value=0.01, max_value=20.0))
    def test_round_trip_through_T(self, theta):
        # T stores small rapidities in 1 - T, so the floor at 0.01 is where
        # 1e-12 relative is honest for doubles
        assert theta_from_T(T_from_theta(theta)) == pytest.approx(theta, rel=1e-12)

    @given(theta=st.floats(min_value=1e-8, max_value=20.0))
    def test_round_trip_through_N(self, theta):
        # sinh^2 keeps full relative precision at every scale
        assert theta_from_N(N_from_theta(theta)) == pytest.approx(theta, rel=1e-12)

    @given(theta=st.floats(min_value=1e-8, max_value=6.0))
    def test_round_trip_through_R(self, theta):
        # R stores large rapidities in 1 - R, which runs out of bits near
        # theta ~ 6 for a 1e-12 relative claim (and saturates to 1.0 by 19)
        assert theta_from_R(R_from_theta(theta)) == pytest.approx(theta, rel=1e-12)

    def test_domains(self):
        with pytest.raises(DomainError):
            theta_from_T(0.0)
        with pytest.raises(DomainError):
            theta_from_T(1.0 + 1e-12)
        with pytest.raises(DomainError):
            theta_from_R(1.0)
        with pytest.raises(DomainError):
            theta_from_N(-1e-12)
        with pytest.raises(DomainError):
            T_from_theta(-0.001)
        with pytest.raises(RapidityOverflowError):
            N_from_theta(351.0)


class TestTwoBarrierT:
    def test_worked_half_half(self):
        assert two_barrier_T_bounds_rational(0.5, 0.5) == (1.0 / 9.0, 1.0)
        lo, hi = two_barrier_T(0.5, 0.5)
        assert lo == pytest.approx(1.0 / 9.0, rel=1e-15)
        assert hi == 1.0

    def test_worked_half_half_against_phase_grid(self):
        lo, hi = grid_T_interval(0.5, 0.5)
        assert lo == pytest.approx(1.0 / 9.0, abs=1e-7)
        assert hi == pytest.approx(1.0, abs=1e-7)

    def test_transparent_barrier_degenerates(self):
        for f in (two_barrier_T, two_barrier_T_bounds_rational):
            lo, hi = f(1.0, 0.37)
            assert lo == pytest.approx(0.37, rel=1e-14)
            assert hi == pytest.approx(0.37, rel=1e-14)

    def test_frozen_pair(self):
        for f in (two_barrier_T, two_barrier_T_bounds_rational):
            lo, hi = f(0.5, 0.8)
            assert lo == pytest.approx(T_LOW_05_08, rel=1e-13)
            assert hi == pytest.approx(T_HIGH_05_08, rel=1e-13)
        glo, ghi = grid_T_interval(0.5, 0.8)
        assert glo == pytest.approx(T_LOW_05_08, abs=1e-7)
        assert ghi == pytest.approx(T_HIGH_05_08, abs=1e-7)

    def test_domain(self):
        with pytest.raises(DomainError):
            two_barrier_T(0.0, 0.5)
        with pytest.raises(DomainError):
            two_barrier_T(0.5, 1.2)

    @given(t1=st.floats(min_value=1e-3, max_value=1.0),
           t2=st.floats(min_value=1e-3, max_value=1.0))
    def test_hyperbolic_and_rational_agree(self, t1, t2):
        hyp = two_barrier_T(t1, t2)
        rat = two_barrier_T_bounds_rational(t1, t2)
        for h, r in zip(hyp, rat):
            assert math.isclose(h, r, rel_tol=1e-12, abs_tol=1e-15)

    @given(t1=st.floats(min_value=1e-3, max_value=1.0),
           t2=st.floats(min_value=1e-3, max_value=1.0))
    def test_upper_bound_reaches_one_only_for_equal_inputs(self, t1, t2):
        _, hi = two_barrier_T(t1, t2)
        if abs(t1 - t2) > 1e-6:
            assert hi < 1.0


class TestTwoBarrierR:
    def test_transparent_barrier_degenerates(self):
        for f in (two_barrier_R, two_barrier_R_bounds_rational):
            lo, hi = f(0.0, 0.42)
            assert lo == pytest.approx(0.42, rel=1e-14)
            assert hi == pytest.approx(0.42, rel=1e-14)

    def test_worked_half_half_complements_T(self):
        lo, hi = two_barrier_R(0.5, 0.5)
        assert lo == 0.0
        assert hi == pytest.approx(8.0 / 9.0, rel=1e-14)

    @given(r1=st.floats(min_value=0.0, max_value=0.999),
           r2=st.floats(min_value=0.0, max_value=0.999))
    def test_upper_bound_never_exceeds_one(self, r1, r2):
        _, hi = two_barrier_R_bounds_rational(r1, r2)
        assert hi <= 1.0

    @given(r1=st.floats(min_value=0.0, max_value=0.999),
           r2=st.floats(min_value=0.0, max_value=0.999))
    def test_hyperbolic_and_rational_agree(self, r1, r2):
        hyp = two_barrier_R(r1, r2)
        rat = two_barrier_R_bounds_rational(r1, r2)
        for h, r in zip(hyp, rat):
            assert math.isclose(h, r, rel_tol=1e-12, abs_tol=1e-15)

    @given(t1=st.floats(min_value=1e-3, max_value=1.0),
           t2=st.floats(min_value=1e-3, max_value=1.0))
    def test_R_interval_is_reversed_complement_of_T_interval(self, t1, t2):
        t_lo, t_hi = two_barrier_T(t1, t2)
        r_lo, r_hi = two_barrier_R(1.0 - t1, 1.0 - t2)
        assert r_lo == pytest.approx(1.0 - t_hi, abs=1e-12)
        assert r_hi == pytest.approx(1.0 - t_lo, abs=1e-12)


class TestTwoBarrierN:
    def test_worked_one_one(self):
        assert two_barrier_N_bounds_rational(1.0, 1.0) == (0.0, 8.0)
        lo, hi = two_barrier_N(1.0, 1.0)
        assert lo == 0.0
        assert hi == pytest.approx(8.0, rel=1e-15)

    def test_worked_one_one_against_phase_grid(self):
        lo, hi = grid_N_interval(1.0, 1.0)
        assert lo == pytest.approx(0.0, abs=1e-6)
        assert hi == pytest.approx(8.0, abs=1e-5)

    def test_quiet_episode_degenerates(self):
        for f in (two_barrier_N, two_barrier_N_bounds_rational):
            lo, hi = f(0.0, 2.5)
            assert lo == pytest.approx(2.5, rel=1e-14)
            assert hi == pytest.approx(2.5, rel=1e-14)

    def test_frozen_three_one(self):
        for f in (two_barrier_N, two_barrier_N_bounds_rational):
            lo, hi = f(3.0, 1.0)
            assert lo == pytest.approx(N_LOW_3_1, rel=1e-13)
            assert hi == pytest.approx(N_HIGH_3_1, rel=1e-13)
        glo, ghi = grid_N_interval(3.0, 1.0)
        assert glo == pytest.approx(N_LOW_3_1, abs=1e-5)
        assert ghi == pytest.approx(N_HIGH_3_1, abs=1e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            two_barrier_N(-0.1, 1.0)

    @given(n1=st.floats(min_value=0.0, max_value=50.0),
           n2=st.floats(min_value=0.0, max_value=50.0))
    def test_hyperbolic_and_rational_agree(self, n1, n2):
        hyp = two_barrier_N(n1, n2)
        rat = two_barrier_N_bounds_rational(n1, n2)
        for h, r in zip(hyp, rat):
            assert math.isclose(h, r, rel_tol=1e-12, abs_tol=1e-15)


class TestIntervalEdges:
    def test_sum_examples(self):
        assert s_n(seq()) == 0.0
        assert s_n(seq(1.0, 2.0, 3.0)) == 6.0

    def test_sum_is_exactly_permutation_invariant(self):
        rng = np.random.default_rng(3)
        thetas = tuple(rng.uniform(0, 4, 9))
        reference = s_n(seq(*thetas))
        for _ in range(20):
            assert s_n(seq(*rng.permutation(thetas))) == reference

    def test_iterative_hand_values(self):
        # [3,1,1]: B_1=3, B_2=2, B_3=1;  [1,1,3]: B_1=1, B_2=0, B_3=1
        assert b_n_iterative(seq(3.0, 1.0, 1.0)) == 1.0
        assert b_n_iterative(seq(1.0, 1.0, 3.0)) == 1.0
        assert b_n_iterative(seq(1.0, 1.0, 1.0)) == 0.0

    def test_closed_hand_values(self):
        assert b_n_closed(seq(3.0, 1.0, 1.0)) == 1.0
        assert b_n_closed(seq(1.0, 1.0, 1.0)) == 0.0
        assert b_n_closed(seq(5.0)) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(EmptySequenceError):
            b_n_iterative(seq())
        with pytest.raises(EmptySequenceError):
            b_n_closed(seq())
        with pytest.raises(EmptySequenceError):
            bounds_report(seq())

    def test_negative_rapidity_rejected(self):
        with pytest.raises(DomainError):
            seq(1.0, -0.5)

    @given(st.lists(theta_vals, min_size=1, max_size=12))
    def test_iterative_equals_closed(self, thetas):
        s = seq(*thetas)
        assert b_n_iterative(s) == pytest.approx(b_n_closed(s), abs=1e-12)

    @given(st.lists(theta_vals, min_size=1, max_size=10), st.randoms())
    def test_closed_form_is_shuffle_invariant(self, thetas, rand):
        reference = b_n_closed(seq(*thetas))
        shuffled = list(thetas)
        rand.shuffle(shuffled)
        assert b_n_closed(seq(*shuffled)) == reference

    def test_peak_ties_do_not_matter(self):
        assert b_n_closed(seq(2.0, 2.0, 1.0)) == b_n_closed(seq(2.0, 1.0, 2.0))

    @given(thetas=st.lists(theta_vals, min_size=1, max_size=8), theta=theta_vals)
    def test_monotone_containment_under_extension(self, thetas, theta):
        base = seq(*thetas)
        extended = seq(*thetas, theta)
        assert s_n(extended) >= s_n(base) - 1e-12
        assert b_n_closed(extended) <= b_n_closed(base) + theta + 1e-12
        assert b_n_closed(extended) >= b_n_closed(base) - theta - 1e-12


class TestRecursionRows:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_rows_equal_the_recursion_bit_for_bit(self, n):
        rng = np.random.default_rng(300 + n)
        rows = rng.uniform(0.0, 300.0 / n, (40, n))
        rows[:8, 0] *= n        # an outweighing first barrier: B_n > 0
        rows[8] = rows[8, 0]    # equal barriers: exact ties, H(0)
        rows[9] = 0.0
        rows = np.concatenate([rows, rng.permuted(rows, axis=1)])
        expected = bits(b_n_iterative(seq(*row)) for row in rows.tolist())
        assert bits(b_n_iterative_rows(rows)) == expected

    def test_bad_shapes_are_refused(self):
        with pytest.raises(DimensionError):
            b_n_iterative_rows([1.0, 2.0])
        with pytest.raises(EmptySequenceError):
            b_n_iterative_rows(np.zeros((3, 0)))


class TestBoundsReport:
    def test_two_half_transparent_barriers(self):
        report = bounds_report(seq(ASINH_1, ASINH_1))
        assert report.t_interval[0] == pytest.approx(1.0 / 9.0, rel=1e-13)
        assert report.t_interval[1] == 1.0
        assert report.n_interval[0] == 0.0
        assert report.n_interval[1] == pytest.approx(8.0, rel=1e-13)

    def test_single_barrier_degenerates(self):
        report = bounds_report(seq(1.3))
        assert report.b_n == report.s_n == 1.3
        assert report.t_interval[0] == report.t_interval[1]
        assert report.r_interval[0] == report.r_interval[1]
        assert report.n_interval[0] == report.n_interval[1]

    def test_frozen_three_one_one(self):
        report = bounds_report(seq(3.0, 1.0, 1.0))
        assert report.b_n == 1.0 and report.s_n == 5.0
        assert report.theta_peak == 3.0 and report.theta_off_peak == 2.0
        assert report.t_interval[1] == pytest.approx(SECH2_1, rel=1e-14)
        assert report.t_interval[0] == pytest.approx(SECH2_5, rel=1e-14)

    def test_overflow_guard(self):
        with pytest.raises(RapidityOverflowError):
            bounds_report(seq(200.0, 200.0))

    @given(st.lists(theta_vals, min_size=1, max_size=8))
    def test_envelope_consistency(self, thetas):
        report = bounds_report(seq(*thetas))
        t_lo, t_hi = report.t_interval
        r_lo, r_hi = report.r_interval
        n_lo, n_hi = report.n_interval
        a_lo, a_hi = report.alpha_mod_interval
        b_lo, b_hi = report.beta_mod_interval
        assert t_lo + r_hi == pytest.approx(1.0, abs=1e-12)
        assert t_hi + r_lo == pytest.approx(1.0, abs=1e-12)
        assert n_lo == pytest.approx(b_lo * b_lo, rel=1e-13, abs=1e-13)
        assert n_hi == pytest.approx(b_hi * b_hi, rel=1e-13)
        # squaring cosh/sinh costs eps * cosh^2 absolute
        assert a_lo * a_lo - b_lo * b_lo == pytest.approx(
            1.0, abs=1e-14 * max(1.0, a_lo * a_lo))
        assert 0.0 <= report.b_n <= report.s_n


def bits(values):
    return [float(v).hex() for v in values]


def columns_test_rows(n, count=8):
    """count rows with theta up to 300/n: the first half balanced (B_n = 0
    for n > 2, and for the equal first row), the second half rows where the
    first barrier outweighs the rest (B_n > 0)."""
    rng = np.random.default_rng(n)
    top = 300.0 / n
    rows = rng.uniform(top / 2, top, (count, n))
    rows[0] = rows[0, 0]
    rows[count // 2:, 1:] /= n * n
    return rows


def sum_test_rows(n, count):
    """count rows of n rapidities, each drawn from one of seven kinds that a
    sum rounded once could get wrong: uniform below 350/n, log-uniform from
    1e-300 to 350/n, powers of two from the smallest subnormal up, exact
    ties (one 1 and one 2^-53, the rest 0, 2^-106, 2^-54 or 2^-53, shuffled
    and scaled by a power of two), all zeros, subnormal terms among uniform
    ones, and rows just above a tie whose error sum rounds below it (1.5,
    2^-53 - 2^-106, then three of 0.49 2^-106: the double-double reads
    1.5 + 2^-53 - 2^-106, the exact sum is 0.47 2^-106 past the midpoint
    1.5 + 2^-53).  No row sums above 350."""
    rng = np.random.default_rng(1000 * n + count)
    top = 350.0 / n
    ties = rng.choice([0.0, 2.0 ** -106, 2.0 ** -54, 2.0 ** -53], (count, n))
    ties[:, 0] = 1.0
    ties[:, 1:2] = 2.0 ** -53
    subnormal = rng.uniform(0.0, top, (count, n))
    tiny = rng.random((count, n)) < 0.5
    subnormal[tiny] = 5e-324 * rng.integers(1, 2 ** 52, np.count_nonzero(tiny))
    past = np.zeros((count, n))
    past[:, :5] = [1.5, 2.0 ** -53 - 2.0 ** -106, *[0.49 * 2.0 ** -106] * 3][:n]
    kinds = np.stack([
        rng.uniform(0.0, top, (count, n)),
        10.0 ** rng.uniform(-300.0, math.log10(top), (count, n)),
        np.ldexp(1.0, rng.integers(-1074, math.floor(math.log2(top)), (count, n))),
        rng.permuted(ties, axis=1) * np.ldexp(1.0, rng.integers(-1000, 1, (count, 1))),
        np.zeros((count, n)),
        subnormal,
        past * np.ldexp(1.0, rng.integers(-1000, 1, (count, 1))),
    ])
    return kinds[rng.integers(0, len(kinds), count), np.arange(count)]


@pytest.mark.dispatch
class TestBoundsColumns:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20])
    def test_columns_equal_the_scalar_formulas_bit_for_bit(self, n):
        rows = columns_test_rows(n)
        columns = BoundsColumns(rows)
        assert any(b > 0.0 for b in columns.b_n)
        assert n == 1 or any(b == 0.0 for b in columns.b_n)
        for j, row in enumerate(rows.tolist()):
            s, b, peak = math.fsum(row), b_n_closed(seq(*row)), max(row)
            ts = [T_from_theta(t) for t in row]
            root = math.sqrt(T_from_theta(s))
            want = [s, b, peak, T_from_theta(s), T_from_theta(b), R_from_theta(b),
                    R_from_theta(s), N_from_theta(b), N_from_theta(s), T_from_theta(peak),
                    2.0 * root / (1.0 + root), math.prod(ts), *ts]
            t_peak, _, threshold, _ = (column[j] for column in columns.resonance)
            got = [columns.s_n[j], columns.b_n[j], columns.theta_peak[j],
                   *(column[j] for column in columns.envelopes), t_peak, threshold,
                   columns.t_classical[j], *columns.transmissions[j]]
            assert bits(got) == bits(want)
            assert columns.possible[j] == (b == 0.0)

    @pytest.mark.parametrize("n, count", [(1, 8), (2, 8), (3, 8), (7, 8), (20, 8), (20, 2000)])
    def test_columns_equal_the_literal_formulas_bit_for_bit(self, n, count):
        # T_from_theta is the columns' one-row call, so the comparison above
        # cannot see a fault in their kernels; bounds_row_literal is written
        # apart, numpy's exp/tanh/sinh on one Python float at a time
        rows = columns_test_rows(n, count)
        columns = BoundsColumns(rows)
        assert columns.t_classical is columns.t_classical  # cached like the other columns
        for j, row in enumerate(rows.tolist()):
            got = [columns.s_n[j], columns.b_n[j], columns.theta_peak[j],
                   *(column[j] for column in columns.envelopes),
                   columns.resonance[0][j], columns.resonance[2][j], columns.t_classical[j],
                   *columns.transmissions[j]]
            assert bits(got) == bits(bounds_row_literal(row))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20])
    def test_one_row_calls_equal_the_columns_bit_for_bit(self, n):
        rows = columns_test_rows(n)
        columns = BoundsColumns(rows)
        for j, row in enumerate(rows.tolist()):
            report, res = bounds_report(seq(*row)), resonance_assessment(seq(*row))
            s, b, peak = columns.s_n[j], columns.b_n[j], columns.theta_peak[j]
            assert bits([report.s_n, report.b_n, report.theta_peak, report.theta_off_peak,
                         *report.t_interval, *report.r_interval, *report.n_interval,
                         *report.alpha_mod_interval, *report.beta_mod_interval]) == bits(
                [s, b, peak, s - peak, *(column[j] for column in columns.envelopes),
                 math.cosh(b), math.cosh(s), math.sinh(b), math.sinh(s)])
            assert res.possible == columns.possible[j]
            assert bits([res.t_peak, res.t_min, res.threshold, res.margin]) == bits(
                [column[j] for column in columns.resonance])

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 20, 33, 64])
    def test_s_n_is_fsum_bit_for_bit(self, n, monkeypatch):
        # below _CASCADE_MIN_ROWS every row takes fsum; from it on the
        # TwoSum cascade decides the rows and fsum takes the ones it cannot:
        # the ties, the zero rows
        fsum, calls = math.fsum, []
        monkeypatch.setattr(math, "fsum", lambda row: calls.append(1) or fsum(row))
        for count in (1, _CASCADE_MIN_ROWS - 1, _CASCADE_MIN_ROWS, 600):
            rows = sum_test_rows(n, count)
            calls.clear()
            got = BoundsColumns(rows).s_n
            routed = len(calls)
            assert bits(got) == bits(fsum(row) for row in rows.tolist())
            if count < _CASCADE_MIN_ROWS:
                assert routed == count
            else:
                assert 0 < routed < count
        for row in rows[:100].tolist():
            assert bits([s_n(seq(*row))]) == bits([BoundsColumns([row]).s_n.item()])

    def test_permuted_rows_give_identical_edges(self):
        rows = columns_test_rows(20)
        permuted = np.random.default_rng(1).permuted(rows, axis=1)
        assert not np.array_equal(rows, permuted)
        columns, again = BoundsColumns(rows), BoundsColumns(permuted)
        assert bits(again.s_n) == bits(columns.s_n)
        assert bits(again.b_n) == bits(columns.b_n)

    def test_production_is_the_one_row_call(self):
        ns = [3.0, 0.1, 0.2]
        check = production_guaranteed(ns)
        columns = BoundsColumns([RapiditySequence.from_particle_numbers(ns).thetas])
        assert check.guaranteed == (columns.b_n[0] > 0.0)
        assert bits([check.n_min, check.n_max]) == bits(
            [columns.envelopes[4][0], columns.envelopes[5][0]])

    def test_bad_rows_are_refused(self):
        with pytest.raises(DomainError):
            BoundsColumns([[1.0, -0.5]])
        with pytest.raises(DomainError):
            BoundsColumns([[1.0, math.nan]])
        with pytest.raises(EmptySequenceError):
            BoundsColumns(np.zeros((3, 0)))
        with pytest.raises(RapidityOverflowError):
            BoundsColumns([[1.0, 2.0], [200.0, 200.0]])


def ulps_off(got, reference):
    """|got - exact| in ulps of the exact value, the exact value a
    double-double (hi, lo)."""
    hi, lo = reference
    ulp = np.spacing(np.abs(hi))
    ulp = np.where((np.frexp(hi)[0] == 0.5) & (lo < 0.0), ulp / 2.0, ulp)  # exact just below 2^k
    return np.abs((got - hi) - lo) / ulp  # got - hi is exact: both sit within a few ulps


@pytest.mark.dispatch
class TestKernelAccuracy:
    def test_envelope_kernels_within_their_ulp_bounds(self):
        """sech^2, tanh^2 and sinh^2 of 106 002 rapidities in [0,
        RAPIDITY_LIMIT] against mpmath (oracles.hyperbolic_squares_dd).

        The transcendentals are taken to be as accurate as numpy's own
        accuracy tests (umath-validation-set-*.csv) require of float64: exp
        and sinh within 1 ulp of the correctly rounded value and tanh within
        2, so within 1.5 and 2.5 ulps of the exact value, a relative error of
        at most 3u and 5u (u = 2^-53; one ulp is at most 2u relatively).  A
        relative error r is below r / u ulps.  Then, to first order:

        - tanh^2 = th * th: 2 (5u) + u = 11u, so below 11 ulps;
        - sinh^2 = sh * sh: 2 (3u) + u = 7u, so below 7 ulps;
        - sech^2 = (2e / (1 + e^2))^2, e = exp(-t): 2e / (1 + e^2) moves by
          at most e's relative error, 3u (its log-derivative in e is
          (1 - e^2) / (1 + e^2) <= 1); rounding e * e and 1 + e^2 moves the
          denominator by at most u e^2 / (1 + e^2) + u <= 1.5u and the
          quotient adds u, so sech is off by 3u + 2.5u = 5.5u and its
          square by 2 (5.5u) + u = 12u: below 12 ulps.

        The second-order terms and the reference's own error (~2^-66
        relative at worst) are far below 0.01 ulp.
        """
        rng = np.random.default_rng(2011)
        # t = anchor + offset, exact: integer anchors, offsets in [0, 1) on a
        # 2^-44 grid, so each sum (< 2^9) fits 53 bits; the log-spaced small
        # rapidities keep all their bits, on the anchor 0
        anchors = np.arange(RAPIDITY_LIMIT)
        offsets = rng.integers(0, 2 ** 44, 300) / 2.0 ** 44
        small = 10.0 ** rng.uniform(-12.0, 0.0, 1000)
        a = np.concatenate([np.repeat(anchors, len(offsets)), np.zeros(len(small)), [0.0],
                            [RAPIDITY_LIMIT]])
        b = np.concatenate([np.tile(offsets, len(anchors)), small, [0.0], [0.0]])
        t = a + b
        assert (t - a == b).all() and len(t) >= 100_000
        assert t.min() == 0.0 and t.max() == RAPIDITY_LIMIT
        columns = BoundsColumns(t[:, None])
        got = columns.t_min, columns.envelopes[3], columns.envelopes[5]
        for name, value, reference, limit in zip(("sech^2", "tanh^2", "sinh^2"), got,
                                                 hyperbolic_squares_dd(a, b), (12.0, 11.0, 7.0)):
            off = ulps_off(value, reference)
            worst = int(np.argmax(off))
            assert off[worst] <= limit, f"{name}({t[worst]!r}) is {off[worst]:.2f} ulps off"


def classical_transmission(ts):
    """BoundsColumns.t_classical of the barriers with transmissions T_i."""
    (value,) = BoundsColumns([RapiditySequence.from_transmissions(ts).thetas]).t_classical
    return value


class TestClassical:
    """The particle (no-interference) limit, the plain product of the T_i."""

    def test_products(self):
        assert classical_transmission([1.0, 1.0, 1.0]) == 1.0
        t = T_from_theta(theta_from_T(0.5))  # 0.5 to an ulp, through the rapidity
        assert classical_transmission([0.5, 0.5]) == t * t

    def test_classical_value_sits_inside_the_wave_interval(self):
        lo, hi = two_barrier_T(0.5, 0.5)
        assert lo <= classical_transmission([0.5, 0.5]) <= hi

    @given(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=6))
    def test_classical_always_inside_wave_envelope(self, ts):
        report = bounds_report(RapiditySequence.from_transmissions(ts))
        value = classical_transmission(ts)
        assert report.t_interval[0] - 1e-12 <= value <= report.t_interval[1] + 1e-12


class TestResonance:
    def test_equal_pair_sits_exactly_on_the_boundary(self):
        res = resonance_possible([0.5, 0.5])
        assert res.possible
        assert res.margin == pytest.approx(0.0, abs=1e-15)
        assert res.t_min == pytest.approx(1.0 / 9.0, rel=1e-14)
        assert res.threshold == pytest.approx(0.5, rel=1e-14)

    def test_dominated_pair_cannot_resonate(self):
        res = resonance_possible([0.9, 0.1])
        assert not res.possible
        # peak barrier has T = 0.1, threshold = 0.375 (frozen): margin < 0
        assert res.t_peak == pytest.approx(0.1, rel=1e-13)
        assert res.margin == pytest.approx(-0.275, abs=1e-12)

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=6))
    def test_margin_sign_matches_verdict(self, ts):
        res = resonance_possible(ts)
        if abs(res.margin) > 1e-12:
            assert res.possible == (res.margin >= 0.0)

    @given(t=st.floats(min_value=0.01, max_value=1.0),
           n=st.integers(min_value=2, max_value=6))
    def test_equal_barriers_always_admit_resonance(self, t, n):
        assert resonance_possible([t] * n).possible

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=6))
    def test_verdict_matches_rapidity_space_exactly(self, ts):
        res = resonance_possible(ts)
        b = b_n_closed(RapiditySequence.from_transmissions(ts))
        assert res.possible == (b == 0.0)


class TestProduction:
    def test_boundary_pair_is_not_guaranteed(self):
        check = production_guaranteed([1.0, 1.0])
        assert not check.guaranteed
        assert check.n_min == 0.0
        assert check.n_max == pytest.approx(8.0, rel=1e-14)
        assert check.threshold == pytest.approx(1.0, rel=1e-14)

    def test_dominant_episode_guarantees_production(self):
        check = production_guaranteed([3.0, 0.1])
        assert check.guaranteed
        assert check.n_min == pytest.approx(PROD_NMIN_3_01, rel=1e-13)
        assert math.asinh(math.sqrt(3.0)) - math.asinh(math.sqrt(0.1)) == pytest.approx(
            PROD_B_3_01, rel=1e-14)

    def test_single_episode(self):
        check = production_guaranteed([2.3])
        assert check.guaranteed
        assert check.n_min == pytest.approx(2.3, rel=1e-13)
        assert not production_guaranteed([0.0]).guaranteed

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=6))
    def test_guarantee_implies_positive_floor(self, ns):
        check = production_guaranteed(ns)
        if check.guaranteed:
            assert check.n_min > 0.0
