"""Verification machinery: sweeps, grid extremes, attainment, audits."""

import math
import sys
import threading
import time
from functools import reduce
from pathlib import Path

import mpmath
import numpy as np
import pytest

import compound_barriers.verify

from compound_barriers import (
    BoundsColumns,
    Delta,
    DimensionError,
    DomainError,
    HyperbolicParams,
    Rectangular,
    RapiditySequence,
    RapidityOverflowError,
    TargetOutOfRangeError,
    attain,
    b_n_closed,
    compose,
    equivalence_audit,
    random_phase_sweep,
    random_phase_sweeps,
    recursion_audit,
    s_n,
    scenario_containment_audit,
    to_polar,
)
from compound_barriers.transfer import boost_fold
from compound_barriers.errors import BoundViolationError
from compound_barriers.scenario import load_scenario
from compound_barriers.verify import (CONTAINMENT_BAND, _block_angles, _block_rng, _blocks,
                                      _fold_extremes, _quarter_rotors, _run_units, _theta_error)
from oracles import (b_n_iterative, block_phases, compose_polar, extremal_phase_search,
                     fold_rotating_b, from_polar, gauge_rotors, legendre_half,
                     legendre_half_product, log_cosh_sq, matrices, mp_at_origin, mp_fold,
                     mp_theta, mp_translate, pair_law_cdf)

# the sweep's rotors take numpy's tan, which is SVML's or libm's by dispatch
pytestmark = pytest.mark.dispatch

EPS = float(np.finfo(float).eps)


def seq(*thetas):
    return RapiditySequence(tuple(thetas))


def recompose_theta(sequence, assignment):
    return to_polar(reduce(compose, matrices(assignment, sequence))).theta


def mp_theta_quarter(thetas, quarter, digits=50):
    """mp_theta of the reduced-gauge phases of one sample's quarter angles h:
    phi_alpha = 0, phi_beta_1 = 0, phi_beta_{i+1} = phi_beta_i + 4 h_i, the
    angles 4 h_i exact and their sums taken with ``digits`` digits."""
    with mpmath.workdps(digits):
        betas = [mpmath.mpf(0)]
        for h in quarter:
            betas.append(betas[-1] + 4 * mpmath.mpf(float(h)))
        return mp_theta(thetas, [(0, beta) for beta in betas], digits)


def sweep_draw(thetas, seed):
    """Block 0's quarter angles, as the sweep draws them, and the sweep's
    kernel on them: the rotors e^{4ih} (built from a copy, as _quarter_rotors
    consumes its angles) folded by boost_fold."""
    quarter = _block_angles(seed, 0, 4096, len(thetas))
    return quarter, boost_fold(thetas, _quarter_rotors(quarter.copy()))


def assert_block_matches_mpmath(thetas, got, exact, samples=()):
    """A block's composed rapidities ``got``, at their argmin, their argmax
    and ``samples``, within the audit's rounding bound of exact(j), sample
    j's rapidity computed in mpmath.

    Two terms.  The fold leaves |beta_total| off by at most delta = 8 n eps
    cosh(S_n), which moves theta = asinh|beta_total| by at most
    delta / cosh(theta), within _theta_error(ref, delta).  Then theta
    itself is rounded: arcsinh of the computed modulus is within 2 ulps of
    theta, and float() of the mpmath value within half an ulp, where an ulp
    of theta is at most eps max(1, theta) and theta <= S_n.  So 4 eps max(1,
    S_n), the term _containment_band carries for the same last rounding.
    Without it the bound drops below half an ulp of theta once theta > ~16
    n, and an extreme next to a rounding midpoint passes or fails on the
    last bit."""
    s = s_n(seq(*thetas))
    delta = 8.0 * len(thetas) * EPS * math.cosh(s)
    for j in {int(np.argmin(got)), int(np.argmax(got)), *samples}:
        ref = exact(j)
        bound = _theta_error(ref, delta) + 4.0 * EPS * max(1.0, s)
        assert abs(got[j] - ref) <= bound, (j, got[j], ref)


def log_uniform_sequences(seed):
    """One sequence per n = 2..20, theta log-uniform in [1e-3, 300/n]."""
    rng = np.random.default_rng(seed)
    return [seq(*np.exp(rng.uniform(math.log(1e-3), math.log(300.0 / n), n)))
            for n in range(2, 21)]


class TestBatchKernel:
    def test_matches_object_algebra(self):
        # the batch kernel must agree with transfer.compose, whose steps are
        # the group law transfer.product that the kernel's fold reduces
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = rng.integers(1, 7)
            thetas = rng.uniform(0.0, 4.0, n)
            phases = rng.uniform(-math.pi, math.pi, (1, n, 2))
            batch = compose_polar(thetas, phases[:, :, 0], phases[:, :, 1])[0]
            ms = [from_polar(HyperbolicParams(t, pa, pb))
                  for t, (pa, pb) in zip(thetas, phases[0])]
            assert batch == pytest.approx(
                to_polar(reduce(compose, ms)).theta, rel=1e-12, abs=1e-9)


    @pytest.mark.parametrize("seed", range(5, 13))
    def test_matches_mpmath_at_scale(self, seed):
        # theta log-uniform up to the trusted range: the extreme samples of a
        # block sit within the audit's rounding bound of a 50-digit value
        # taken at the exact angles 4h
        for i, s in enumerate(log_uniform_sequences(seed)):
            quarter, got = sweep_draw(s.thetas, i)
            assert_block_matches_mpmath(s.thetas, got,
                                        lambda j: mp_theta_quarter(s.thetas, quarter[:, j]))

    @pytest.mark.parametrize("seed", range(5, 13))
    def test_compose_polar_matches_mpmath_at_scale(self, seed):
        # the full-phase oracle (gauge_rotors, which compose_polar and the grid
        # search use) on the draws of sampling contract version 1.  At seeds
        # 7 and 12 an extreme lies within 0.01 ulp of theta of a rounding
        # midpoint, and the bound is below half an ulp of theta there
        for i, s in enumerate(log_uniform_sequences(seed)):
            phases = block_phases(i, 0, 4096, len(s))
            got = compose_polar(s.thetas, phases[:, :, 0], phases[:, :, 1])
            assert_block_matches_mpmath(s.thetas, got, lambda j: mp_theta(s.thetas, phases[j]))

    @pytest.mark.parametrize("thetas", [(25, 30), (0, 40, 0), (20, 1e-8, 22, 5),
                                        (60,) * 5, (100, 0.3, 100), (0, 0)])
    def test_matches_mpmath_where_tanh_rounds_to_one(self, thetas):
        # tanh(theta) is 1.0 in doubles from theta ~ 19.1 on, so the scaled
        # fold keeps no trace of 1 - tanh^2 there; the oracle needs the digits
        # of cosh(S_n) on top of its own 30
        digits = 30 + int(s_n(seq(*thetas)) / math.log(10))
        quarter, got = sweep_draw(thetas, len(thetas))
        assert_block_matches_mpmath(thetas, got,
                                    lambda j: mp_theta_quarter(thetas, quarter[:, j], digits),
                                    range(8))

    def test_rows_of_zeros_fold_to_exactly_zero(self):
        # b stays 0 when every tanh theta_i is 0, while |alpha_total|, a
        # product of rotors, can come out one ulp above 1, which acosh reads
        # as 2.1e-8
        rho = _quarter_rotors(_block_angles(4, 0, 4096, 5))
        assert not boost_fold(np.zeros((3, 5)), rho).any()
        assert not boost_fold(np.zeros(5), rho).any()

    def test_row_tiles_equal_one_row_calls(self):
        # 11 rows folded as one (rows, n) call and in tiles of 4 (the last
        # holds 3), through one reused scratch, are each row's own fold
        thetas = np.random.default_rng(9).uniform(0.0, 3.0, (11, 6))
        rho = _quarter_rotors(_block_angles(9, 0, 1000, 6))
        alone = [boost_fold(row, rho).tobytes() for row in thetas]
        assert [row.tobytes() for row in boost_fold(thetas, rho)] == alone
        work = np.empty(3 * 4 * 1000, complex)
        tiled = [row.tobytes() for r in range(0, 11, 4)
                 for row in boost_fold(thetas[r:r + 4], rho, work)]
        assert tiled == alone

    @pytest.mark.parametrize("samples", [100, 1000, 2000, 4096])
    def test_samples_equal_one_sample_calls(self, samples):
        # a row is cut into buffer-sized pieces (992 of a row of 1000, 96 of
        # 100), while a one-sample call is copied through the 16-element
        # buffer: every sample keeps its bits either way
        thetas = np.random.default_rng(samples).uniform(0.0, 3.0, (3, 7))
        rho = _quarter_rotors(_block_angles(5, 0, samples, 7))
        whole = boost_fold(thetas, rho)
        alone = np.concatenate([boost_fold(thetas, rho[:, j:j + 1]) for j in range(samples)],
                               axis=1)
        assert whole.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("samples", [1, 5, 1000, 4096])
    @pytest.mark.parametrize("scratch", [False, True])
    def test_buffer_size_is_left_as_found(self, samples, scratch):
        # boost_fold bounds numpy's ufunc buffer for its passes only; the
        # caller's setting is back afterwards, also on a helper thread
        # (which starts at numpy's default) and when a pass raises
        thetas = np.random.default_rng(1).uniform(0.0, 3.0, (2, 4))
        rho = _quarter_rotors(_block_angles(1, 0, samples, 4))
        work = np.empty(3 * 2 * samples, complex) if scratch else None
        old = np.setbufsize(4096 + 16)
        try:
            boost_fold(thetas, rho, work)
            assert np.getbufsize() == 4096 + 16
            with pytest.raises(TypeError):  # no multiply loop for complex and str
                boost_fold(thetas[0, :2], np.full((1, samples), "x"))
            assert np.getbufsize() == 4096 + 16
        finally:
            np.setbufsize(old)
        seen = []

        def helper():
            before = np.getbufsize()
            boost_fold(thetas, rho, work)
            seen.append((before, np.getbufsize()))

        thread = threading.Thread(target=helper)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert seen == [(8192, 8192)]

    def test_quarter_rotors_are_contiguous_unit_rotors(self):
        # the sweep's rotors, laid out as boost_fold reads them: |rho| = 1 and
        # rho = e^{4ih} within a few eps (the square of (1 + it)^2 / (1 + t^2),
        # t = tan h)
        quarter = _block_angles(3, 0, 4096, 16)
        assert quarter.shape == (15, 4096)
        assert quarter.min() >= -math.pi / 4 and quarter.max() < math.pi / 4
        rho = _quarter_rotors(quarter.copy())
        assert rho.shape == (15, 4096)
        assert rho.flags.c_contiguous
        assert np.abs(np.abs(rho) - 1.0).max() <= 3.0 * EPS
        assert np.abs(rho - np.exp(4j * quarter)).max() <= 4.0 * EPS

    def test_quarter_rotors_match_mpmath_at_the_end_angles(self):
        # the ends of [-pi/4, pi/4), the smallest subnormals and zero, where
        # tan h is +-1, h itself and 0
        ends = [-math.pi / 4, -5e-324, 0.0, 5e-324, math.nextafter(math.pi / 4, 0.0)]
        rho = _quarter_rotors(np.array(ends)).tolist()
        with mpmath.workdps(40):
            for h, got in zip(ends, rho):
                exact = mpmath.expj(4 * mpmath.mpf(h))
                assert abs(mpmath.mpc(got) - exact) <= 4.0 * EPS, (h, got)
                assert abs(abs(mpmath.mpc(got)) - 1) <= 3.0 * EPS, (h, got)


# The random-phase law at moderate S_n
LAW_SEQUENCES = [(1.0, 0.2, 0.7, 0.5), (0.5,) * 8, (0.1,) * 20, (0.8, 0.3, 1.2), (1.5, 1.0, 0.5)]
LAW_BLOCKS = 50  # 204,800 samples
LAW_FALSE_ALARM = 1e-6


def sweep_rotors(seed, n):
    """rotors(block): a block's (n-1, 4096) rotors as the sweep draws them
    (the quarter angles of sampling contract version 2)."""
    return lambda block: _quarter_rotors(_block_angles(seed, block, 4096, n))


def law_draws(thetas, rotors, fold=boost_fold):
    """The composed rapidities of LAW_BLOCKS blocks of 4096 samples:
    ``rotors(block)`` gives a block's (n-1, 4096) rotors, ``fold`` their
    composed rapidities."""
    thetas = np.asarray(thetas, float)
    return np.concatenate([fold(thetas, rotors(block)) for block in range(LAW_BLOCKS)])


def law_half_width(count):
    """sqrt(ln(2/delta)/(2N)) at delta = LAW_FALSE_ALARM: Hoeffding's bound on
    the mean of N draws of a statistic of range 1, and the
    Dvoretzky-Kiefer-Wolfowitz-Massart bound on a Kolmogorov-Smirnov
    distance."""
    return math.sqrt(math.log(2.0 / LAW_FALSE_ALARM) / (2.0 * count))


def law_gap(thetas, rotors, fold=boost_fold):
    """|mean of P_{-1/2}(cosh 2 theta) over law_draws - its exact mean|, and
    the Hoeffding half-width."""
    draws = law_draws(thetas, rotors, fold)
    gap = math.fsum(legendre_half(draws).tolist()) / draws.size - legendre_half_product(thetas)
    return abs(gap), law_half_width(draws.size)


def _spread(n, high, seed, low=0.0):
    """n rapidities drawn uniformly from [low, high), to two decimals."""
    return tuple(np.random.default_rng(seed).uniform(low, high, n).round(2).tolist())


# The random-phase law across the trusted range: theta_i <= 350/n, n up to 64
# and S_n from 2.4 to ~320; each sequence's draws are seeded by its length
WIDE_LAW_SEQUENCES = [(140.0, 124.0), (1.2, 0.7, 0.5), _spread(4, 350 / 4, 0),
                      _spread(5, 350 / 5, 3), _spread(16, 350 / 16, 2),
                      _spread(64, 350 / 64, 0, low=4.5)]
LAW_PAIRS = [(140.0, 124.0), (1.5, 0.9)]


def log_cosh_gap(thetas, fold=boost_fold):
    """|mean of ln cosh^2 theta over the sweep's draws - sum_i ln cosh^2
    theta_i|, and the Hoeffding half-width of a statistic that ranges over
    [ln cosh^2 B_n, ln cosh^2 S_n]."""
    edges = BoundsColumns([thetas])
    spread = float(log_cosh_sq(edges.s_n.item()) - log_cosh_sq(edges.b_n.item()))
    draws = law_draws(thetas, sweep_rotors(len(thetas), len(thetas)), fold)
    gap = math.fsum(log_cosh_sq(draws).tolist()) / draws.size - math.fsum(
        log_cosh_sq(thetas).tolist())
    return abs(gap), spread * law_half_width(draws.size)


def pair_law_distance(thetas, fold=boost_fold):
    """Kolmogorov-Smirnov distance of two barriers' draws from pair_law_cdf,
    and its bound."""
    draws = law_draws(thetas, sweep_rotors(2, 2), fold)
    cdf = pair_law_cdf(np.sort(draws), *thetas)
    rank = np.arange(1, cdf.size + 1) / cdf.size
    distance = max(float((rank - cdf).max()), float((cdf - (rank - 1.0 / cdf.size)).max()))
    return distance, law_half_width(cdf.size)


class TestRandomPhaseLaw:
    """The sweep's draws follow the law of uniform phases, not only stay in
    [B_n, S_n].

    Under uniform phases E[P_nu(cosh 2 theta_total)] = prod_i P_nu(cosh 2
    theta_i) for every nu (tests/oracles.legendre_half_product).  At nu = -1/2
    the statistic 1/AGM(1, cosh theta) lies in (0, 1], so Hoeffding's
    inequality bounds the sample mean of N draws: it strays from the product
    by more than sqrt(ln(2/delta)/(2N)) with probability at most delta =
    LAW_FALSE_ALARM = 1e-6 per sequence, about 6e-3 at N = 204,800.  The
    check has power only at moderate S_n, where the product is not small
    against that half-width; an opaque chain's product is ~e^{-S_n}, and any
    law passes there.

    Across the trusted range the statistic is ln cosh^2 theta, whose mean is
    additive (tests/oracles.log_cosh_sq), bounded by Hoeffding over its range
    [ln cosh^2 B_n, ln cosh^2 S_n].  For two barriers a fold that always
    returns S_n can stay within that half-width, so their draws are also
    held to the closed-form law by a Kolmogorov-Smirnov test."""

    def test_statistic_is_the_legendre_function(self):
        thetas = np.array([0.01, 0.1, 0.5, 1.0, 3.0, 10.0])
        got = legendre_half(thetas)
        for theta, value in zip(thetas.tolist(), got.tolist()):
            ref = mpmath.legenp(-0.5, 0, mpmath.cosh(2 * mpmath.mpf(theta)))
            assert value == pytest.approx(float(ref), rel=1e-14)

    @pytest.mark.parametrize("i, thetas", enumerate(LAW_SEQUENCES))
    def test_sweep_draw_keeps_the_law(self, i, thetas):
        # the quarter angles of sampling contract version 2, folded as the sweep folds them
        gap, half_width = law_gap(thetas, sweep_rotors(i, len(thetas)))
        assert gap <= half_width

    @pytest.mark.parametrize("i, thetas", enumerate(LAW_SEQUENCES))
    def test_full_phase_draw_keeps_the_law(self, i, thetas):
        # version 1: 2n uniform phases per sample, reduced by gauge_rotors
        gap, half_width = law_gap(
            thetas, lambda block: gauge_rotors(block_phases(i, block, 4096, len(thetas))))
        assert gap <= half_width

    @pytest.mark.parametrize("i, thetas", enumerate(LAW_SEQUENCES))
    def test_a_fold_that_rotates_b_breaks_the_law(self, i, thetas):
        # on (1, 0.2, 0.7, 0.5) the faulty fold stays inside [B_n, S_n], so
        # containment alone passes it there; the law check catches it everywhere
        gap, half_width = law_gap(thetas, sweep_rotors(i, len(thetas)), fold_rotating_b)
        assert gap > half_width

    def test_log_cosh_statistic_matches_mpmath(self):
        # to a few eps absolutely near 0 (ln 2 cancels), relatively past 1
        for theta in (0.0, 1e-8, 0.3, 2.0, 20.0, 350.0):
            ref = 2 * mpmath.log(mpmath.cosh(mpmath.mpf(theta)))
            assert abs(float(log_cosh_sq(theta)) - float(ref)) <= 4.0 * EPS * max(1.0, theta)

    @pytest.mark.parametrize("thetas", WIDE_LAW_SEQUENCES, ids=lambda thetas: f"n{len(thetas)}")
    def test_sweep_draw_keeps_the_log_cosh_mean(self, thetas):
        gap, half_width = log_cosh_gap(thetas)
        assert gap <= half_width

    @pytest.mark.parametrize("thetas", [thetas for thetas in WIDE_LAW_SEQUENCES if len(thetas) >= 3],
                             ids=lambda thetas: f"n{len(thetas)}")
    def test_log_cosh_mean_catches_a_fold_that_rotates_b(self, thetas):
        gap, half_width = log_cosh_gap(thetas, fold_rotating_b)
        assert gap > half_width

    @pytest.mark.parametrize("thetas", LAW_PAIRS, ids=lambda thetas: "-".join(map(str, thetas)))
    def test_sweep_draw_keeps_the_pair_law(self, thetas):
        distance, bound = pair_law_distance(thetas)
        assert distance <= bound

    @pytest.mark.parametrize("thetas", LAW_PAIRS, ids=lambda thetas: "-".join(map(str, thetas)))
    def test_pair_law_catches_a_fold_that_rotates_b(self, thetas):
        # with two barriers the faulty fold returns S_n at every phase
        distance, bound = pair_law_distance(thetas, fold_rotating_b)
        assert distance > bound


class TestExactCompositionContainment:
    def test_object_compositions_never_escape_the_interval(self):
        rng = np.random.default_rng(2718)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            thetas = rng.uniform(0.0, 4.0, n)
            ms = [from_polar(HyperbolicParams(t, pa, pb))
                  for t, pa, pb in zip(thetas,
                                       rng.uniform(-math.pi, math.pi, n),
                                       rng.uniform(-math.pi, math.pi, n))]
            theta = to_polar(reduce(compose, ms)).theta
            s = seq(*thetas)
            assert b_n_closed(s) - 1e-10 <= theta <= s_n(s) + 1e-10


class TestRandomPhaseSweep:
    def test_single_barrier_phases_are_gauge(self):
        res = random_phase_sweep(seq(1.0), samples=500, seed=5)
        assert res.theta_min_observed == pytest.approx(1.0, abs=1e-12)
        assert res.theta_max_observed == pytest.approx(1.0, abs=1e-12)

    def test_two_equal_barriers_fill_the_interval(self):
        res = random_phase_sweep(seq(1.0, 1.0), samples=100_000, seed=7)
        assert res.theta_min_observed == pytest.approx(0.0, abs=0.01)
        assert res.theta_max_observed == pytest.approx(2.0, abs=0.01)

    def test_dominant_barrier_keeps_a_floor(self):
        res = random_phase_sweep(seq(3.0, 1.0, 1.0), samples=100_000, seed=3)
        assert res.theta_min_observed >= 1.0 - 1e-10
        assert res.theta_max_observed <= 5.0 + 1e-10
        assert res.theta_min_observed < 1.1
        assert res.theta_max_observed > 4.9

    def test_extreme_assignments_recompose(self):
        # reported in the reduced gauge, phi_alpha = 0, phi_beta_1 = 0 and
        # phi_beta_{i+1} = phi_beta_i + 4 h_i for the extreme sample's quarter
        # angles h, they recompose to the observed extremes through the exact algebra
        rng = np.random.default_rng(19)
        for s in (seq(1.3, 0.6, 0.9), seq(*rng.uniform(0.0, 3.0, 7)),
                  seq(*rng.uniform(0.0, 1.0, 20))):
            res = random_phase_sweep(s, samples=2000, seed=19)
            for assignment, observed in ((res.argmin, res.theta_min_observed),
                                         (res.argmax, res.theta_max_observed)):
                assert assignment.phis[0] == (0.0, 0.0)
                assert all(pa == 0.0 for pa, _ in assignment.phis)
                assert abs(recompose_theta(s, assignment) - observed) <= CONTAINMENT_BAND

    def test_deterministic_per_seed(self):
        a = random_phase_sweep(seq(1.0, 2.0), samples=5000, seed=123)
        b = random_phase_sweep(seq(1.0, 2.0), samples=5000, seed=123)
        assert a == b
        c = random_phase_sweep(seq(1.0, 2.0), samples=5000, seed=124)
        assert c != a

    def test_partitioned_reduction_is_identical(self):
        # the block contract: any partition schedule reproduces the
        # monolithic result bit for bit
        s = seq(0.7, 1.1, 0.4)
        samples, seed = 10_000, 77
        whole = random_phase_sweep(s, samples, seed)
        lo, hi = math.inf, -math.inf
        for block, count in _blocks(samples):
            quarter = _block_rng(seed, block).uniform(-math.pi / 4, math.pi / 4,
                                                      size=(len(s) - 1, count))
            thetas = boost_fold(s.thetas, _quarter_rotors(quarter))
            lo = min(lo, float(thetas.min()))
            hi = max(hi, float(thetas.max()))
        assert (lo, hi) == (whole.theta_min_observed, whole.theta_max_observed)


    def test_no_false_violation_at_scale(self):
        for i, s in enumerate(log_uniform_sequences(5)):
            res = random_phase_sweep(s, samples=4096, seed=i)
            assert b_n_closed(s) - 1e-10 <= res.theta_min_observed
            assert res.theta_max_observed <= s_n(s) + 1e-10


class TestRandomPhaseSweeps:
    @pytest.mark.parametrize("n", [1, 2, 7, 20])
    def test_rows_equal_the_one_row_call(self, n):
        # one block of one sample, a last block of one sample (a (rows, 1)
        # tile against the one-row call's (1, 1)), and two full blocks and a
        # partial one
        rows = np.random.default_rng(n).uniform(0.0, 3.0, (24, n))
        for samples in (1, 4097, 10_000):
            batch = random_phase_sweeps(BoundsColumns(rows), samples, 41)
            assert_columns(batch, len(rows))
            assert batch.sweep_ok.all() and batch.violations == ()
            for row, low, high in zip(rows, batch.theta_min_observed.tolist(),
                                      batch.theta_max_observed.tolist()):
                one = random_phase_sweep(seq(*row), samples, 41)
                assert low.hex() == one.theta_min_observed.hex(), samples
                assert high.hex() == one.theta_max_observed.hex(), samples

    @pytest.mark.parametrize("samples", [2000, 3 * 4096], ids=["one-block", "three-blocks"])
    def test_no_rows_give_empty_columns(self, monkeypatch, samples):
        # no unit, so nothing is drawn, on any number of threads
        drawn = []
        monkeypatch.setattr(compound_barriers.verify, "_block_angles",
                            lambda *args: drawn.append(args))
        for workers in (1, 2, 3, 4):
            monkeypatch.setattr(compound_barriers.verify, "_worker_count", lambda: workers)
            sweep = random_phase_sweeps(BoundsColumns(np.empty((0, 5))), samples, 3)
            assert_columns(sweep, 0)
            assert sweep.violations == ()
        assert drawn == []

    def test_one_row_of_one_barrier_at_one_sample(self, monkeypatch):
        one = random_phase_sweep(seq(1.3), 1, 9)
        for workers in (1, 2, 3, 4):
            monkeypatch.setattr(compound_barriers.verify, "_worker_count", lambda: workers)
            sweep = random_phase_sweeps(BoundsColumns([[1.3]]), 1, 9)
            assert_columns(sweep, 1)
            want = np.array([[one.theta_min_observed], [one.theta_max_observed]])
            assert sweep.theta_min_observed.tobytes() == want[0].tobytes()
            assert sweep.theta_max_observed.tobytes() == want[1].tobytes()
            assert sweep.sweep_ok.tolist() == [True] and sweep.violations == ()

    def test_violation_stays_in_its_own_row(self, monkeypatch):
        rows = np.random.default_rng(3).uniform(0.2, 2.0, (5, 4))
        samples, seed = 9000, 8
        clean = random_phase_sweeps(BoundsColumns(rows), samples, seed)
        shrunk = BoundsColumns(rows)
        shrunk.s_n[2] -= 0.1
        batch = random_phase_sweeps(shrunk, samples, seed)
        # the one-row call builds its own columns: hand it the middle row's, shrunk alike
        alone = BoundsColumns(rows[2:3])
        alone.s_n[0] -= 0.1
        monkeypatch.setattr(compound_barriers.verify, "BoundsColumns", lambda thetas: alone)
        with pytest.raises(BoundViolationError) as one:
            random_phase_sweep(seq(*rows[2]), samples, seed)
        (violation,) = batch.violations
        assert str(violation) == str(one.value)
        assert "in block" in str(one.value)
        assert math.isnan(batch.theta_min_observed[2])
        assert math.isnan(batch.theta_max_observed[2])
        assert batch.sweep_ok.tolist() == [True, True, False, True, True]
        assert other_rows(batch, [2]) == other_rows(clean, [2])


def block_extremes(thetas, samples, seed):
    """Per block of the sampling contract, the (min, argmin, max, argmax) of
    one row's composed rapidities, block by block as the contract states it."""
    out = []
    for block, count in _blocks(samples):
        quarter = _block_rng(seed, block).uniform(-math.pi / 4, math.pi / 4,
                                                  size=(len(thetas) - 1, count))
        got = boost_fold(thetas, _quarter_rotors(quarter))
        lo, hi = int(np.argmin(got)), int(np.argmax(got))
        out.append((float(got[lo]), lo, float(got[hi]), hi))
    return out


def sweep_key(sweep):
    """The sweep's columns as bytes and its violations as text: equal keys
    are equal bits."""
    return (sweep.theta_min_observed.tobytes(), sweep.theta_max_observed.tobytes(),
            sweep.sweep_ok.tobytes(), [str(violation) for violation in sweep.violations])


def other_rows(sweep, skipped):
    """The columns of every row but the skipped ones, as bytes."""
    return [np.delete(column, skipped).tobytes()
            for column in (sweep.theta_min_observed, sweep.theta_max_observed, sweep.sweep_ok)]


def assert_columns(sweep, rows):
    """The sweep's columns are one float or bool array entry per row."""
    assert sweep.theta_min_observed.dtype == sweep.theta_max_observed.dtype == np.float64
    assert sweep.sweep_ok.dtype == bool
    assert (sweep.theta_min_observed.shape == sweep.theta_max_observed.shape
            == sweep.sweep_ok.shape == (rows,))


def reduced_gauge(seed, samples, n, block, index):
    """The reduced-gauge phases of sample ``index`` of block ``block``."""
    count = min(4096, samples - 4096 * block)
    phis = [(0.0, 0.0)]
    for h in _block_angles(seed, block, count, n)[:, index].tolist():
        phis.append((0.0, phis[-1][1] + 4.0 * h))
    return tuple(phis)


class TestSweepLocator:
    """random_phase_sweep places each extreme at the first sample, in block
    then index order, that attains it."""

    @pytest.mark.parametrize("thetas, samples, seed, blocks", [
        ([2.5], 3 * 4096, 5, (0, 0)),                 # n = 1: every sample ties
        ([0.0, 0.0, 0.0], 3 * 4096 + 5, 5, (0, 0)),   # every sample composes to exactly 0
        ([1.5, 0.0, 0.0, 0.0], 2 * 4096, 5, (0, 0)),  # every sample composes to exactly 1.5
        (np.random.default_rng(8).uniform(0.0, 3.0, 8).tolist(), 3 * 4096 + 5, 17, (1, 2)),
        ([1.0, 0.6, 0.3], 4097, 466, (0, 1)),         # the maximum is the last block's one sample
    ], ids=["n1", "zeros", "constant", "later-blocks", "one-sample-last-block"])
    def test_extremes_are_placed_at_the_first_sample_attaining_them(self, thetas, samples,
                                                                     seed, blocks):
        per_block = block_extremes(thetas, samples, seed)
        low = min(range(len(per_block)), key=lambda b: (per_block[b][0], b))
        high = min(range(len(per_block)), key=lambda b: (-per_block[b][2], b))
        assert (low, high) == blocks
        res = random_phase_sweep(seq(*thetas), samples, seed)
        assert (res.theta_min_observed, res.theta_max_observed) == (per_block[low][0],
                                                                    per_block[high][2])
        n = len(thetas)
        assert res.argmin.phis == reduced_gauge(seed, samples, n, low, per_block[low][1])
        assert res.argmax.phis == reduced_gauge(seed, samples, n, high, per_block[high][3])


SCHEDULE_CASES = pytest.mark.parametrize("rows, n, samples", [
    (11, 7, 9000),          # three blocks, whole-block units; tiles of 6 rows do not divide 11
    (40, 20, 2000),         # one block: rows sliced, each slice draws the block
    (3, 20, 3 * 4096 + 5),  # four blocks, a 5-sample last block
    (1, 8, 3 * 4096 + 5),   # one-row tiles; the minimum in block 1, the maximum in block 2
    (2, 1, 500),            # no rotors at all
    (40, 6, 1),             # one sample: (rows, 1) tiles, a row's tile of one row included
])


class TestSweepSchedule:
    """The (block, row slice) units may run on any number of threads, and
    fold in tiles of any size; the rows must not notice."""

    @SCHEDULE_CASES
    def test_rows_do_not_depend_on_the_worker_count(self, monkeypatch, rows, n, samples):
        thetas = np.random.default_rng(rows * n).uniform(0.0, 3.0, (rows, n))
        seen = {}
        for workers in (1, 2, 4):
            monkeypatch.setattr(compound_barriers.verify, "_worker_count", lambda: workers)
            seen[workers] = random_phase_sweeps(BoundsColumns(thetas), samples, 17)
        assert sweep_key(seen[1]) == sweep_key(seen[2]) == sweep_key(seen[4])
        assert_columns(seen[1], rows)
        assert seen[1].sweep_ok.all() and seen[1].violations == ()
        for row, lo, hi in zip(thetas, seen[1].theta_min_observed.tolist(),
                               seen[1].theta_max_observed.tolist()):
            per_block = block_extremes(row, samples, 17)
            assert lo.hex() == min(b[0] for b in per_block).hex()
            assert hi.hex() == max(b[2] for b in per_block).hex()

    @SCHEDULE_CASES
    def test_rows_do_not_depend_on_the_tile_size(self, monkeypatch, rows, n, samples):
        # one row per tile, the tile sizes measured for the sweep, and one
        # larger than a whole block of rows
        thetas = np.random.default_rng(rows * n).uniform(0.0, 3.0, (rows, n))
        seen = []
        for tile in (min(samples, 4096), 12288, 24576, rows * 4096 + 1):
            monkeypatch.setattr(compound_barriers.verify, "_TILE", tile)
            seen.append(sweep_key(random_phase_sweeps(BoundsColumns(thetas), samples, 17)))
        assert all(key == seen[0] for key in seen[1:])

    def test_ties_go_to_the_first_sample(self, monkeypatch):
        # one barrier: every sample of every block composes to theta exactly
        for workers in (1, 2, 4):
            monkeypatch.setattr(compound_barriers.verify, "_worker_count", lambda: workers)
            sweep = random_phase_sweeps(BoundsColumns([[2.5], [0.0]]), 3 * 4096, 5)
            assert sweep.theta_min_observed.tobytes() == sweep.theta_max_observed.tobytes()
            assert sweep.sweep_ok.tolist() == [True, True] and sweep.violations == ()

    def test_ties_within_a_block_go_to_the_first(self):
        # rotors all 1: every sample of each row is the same; tiles of one row
        # and of several, written into one block's row of (blocks, rows)
        # arrays as the sweep's units write them, and nowhere else
        thetas = np.random.default_rng(2).uniform(0.0, 2.0, (5, 4))
        rho = np.ones((3, 8), complex)
        work = np.empty(3 * 5 * 8, complex)
        for tile_size in (8, 16):
            low, high = np.full((2, 3, 5), np.nan)
            assert _fold_extremes(thetas, rho, work, tile_size, low[1], high[1]) is None
            assert low[1].tobytes() == high[1].tobytes()
            assert not np.isnan(low[1]).any()
            assert np.isnan(low[[0, 2]]).all() and np.isnan(high[[0, 2]]).all()

    @pytest.mark.parametrize("workers, samples, draws", [
        (1, 2 * 4096 + 5, [(0, 4096), (1, 4096), (2, 5)]),
        (2, 2000, [(0, 2000), (0, 2000)]),  # one block: each row slice draws it
    ])
    def test_each_unit_draws_its_whole_block_once(self, monkeypatch, workers, samples, draws):
        seen = []

        def counted(seed, block, count, n):
            seen.append((block, count))
            return _block_angles(seed, block, count, n)

        monkeypatch.setattr(compound_barriers.verify, "_worker_count", lambda: workers)
        monkeypatch.setattr(compound_barriers.verify, "_block_angles", counted)
        thetas = np.random.default_rng(4).uniform(0.0, 3.0, (4, 6))
        random_phase_sweeps(BoundsColumns(thetas), samples, 3)
        assert sorted(seen) == draws

    def test_violation_in_a_later_block_is_reported_there(self, monkeypatch):
        # shrink one row's S_n to its largest rapidity in blocks 0-2: block 3
        # escapes, while blocks 4 and 5 are still being folded by other threads
        rows = np.random.default_rng(21).uniform(0.2, 2.0, (6, 4))
        samples, seed, j = 6 * 4096, 0, 2
        per_row = [block_extremes(row, samples, seed) for row in rows]
        assert per_row[j][3][2] > max(b[2] for b in per_row[j][:3]) + 1e-9
        monkeypatch.setattr(compound_barriers.verify, "_worker_count", lambda: 4)
        clean = random_phase_sweeps(BoundsColumns(rows), samples, seed)
        shrunk = BoundsColumns(rows)
        shrunk.s_n[j] = max(b[2] for b in per_row[j][:3])
        for workers in (1, 2, 4):
            monkeypatch.setattr(compound_barriers.verify, "_worker_count", lambda: workers)
            batch = random_phase_sweeps(shrunk, samples, seed)
            (violation,) = batch.violations
            assert str(violation).endswith("in block 3")
            assert math.isnan(batch.theta_min_observed[j])
            assert math.isnan(batch.theta_max_observed[j])
            assert batch.sweep_ok.tolist() == [row != j for row in range(len(rows))]
            assert other_rows(batch, [j]) == other_rows(clean, [j])

    def test_violations_in_a_row_sliced_block(self, monkeypatch):
        # chain-verify's layout: one block, its rows sliced between threads
        # that write different rows of the block's extremes.  One row per
        # four-thread slice escapes: each reports block 0, the only block,
        # with the extremes the clean sweep found there, and no other row moves
        rows = np.random.default_rng(40).uniform(0.0, 3.0, (40, 20))
        samples, seed, shrunk_rows = 2000, 12, [3, 17, 22, 38]
        clean = random_phase_sweeps(BoundsColumns(rows), samples, seed)
        assert_columns(clean, 40)
        assert clean.sweep_ok.all()
        shrunk = BoundsColumns(rows)
        shrunk.s_n[shrunk_rows] = clean.theta_max_observed[shrunk_rows] - 1e-3
        expected = [f"sampled rapidity escaped [{shrunk.b_n[j].item()}, {shrunk.s_n[j].item()}] "
                    f"(band {CONTAINMENT_BAND}): observed [{clean.theta_min_observed[j].item()}, "
                    f"{clean.theta_max_observed[j].item()}] in block 0" for j in shrunk_rows]
        for workers in (1, 2, 4):
            monkeypatch.setattr(compound_barriers.verify, "_worker_count", lambda: workers)
            batch = random_phase_sweeps(shrunk, samples, seed)
            assert [str(violation) for violation in batch.violations] == expected
            assert np.isnan(batch.theta_min_observed[shrunk_rows]).all()
            assert np.isnan(batch.theta_max_observed[shrunk_rows]).all()
            assert np.flatnonzero(~batch.sweep_ok).tolist() == shrunk_rows
            assert other_rows(batch, shrunk_rows) == other_rows(clean, shrunk_rows)


class TestRunUnits:
    """The thread pool under the sweep: every unit exactly once, no result gathered."""

    def test_more_threads_than_cores_with_fast_switching(self):
        # every unit runs exactly once, on 1 to 8 threads
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            before = threading.active_count()
            for workers in range(1, 9):
                done = []

                def make_worker():
                    return done.append

                assert _run_units(list(range(500)), workers, make_worker) is None
                assert sorted(done) == list(range(500)), workers
                assert threading.active_count() == before
        finally:
            sys.setswitchinterval(interval)

    def test_a_failing_unit_is_raised_and_stops_the_rest(self):
        before = threading.active_count()
        started = []

        def make_worker():
            def run(unit):
                started.append(unit)
                if unit == 5:
                    raise ValueError("unit 5")
                time.sleep(0.001)
                return unit
            return run

        with pytest.raises(ValueError, match="unit 5"):
            _run_units(list(range(10_000)), 4, make_worker)
        assert len(started) < 10_000
        assert threading.active_count() == before


class TestLibrarySeeds:
    @pytest.mark.parametrize("call", [
        lambda: random_phase_sweeps(BoundsColumns([[1.0, 2.0]]), 10, -1),
        lambda: random_phase_sweeps(BoundsColumns(np.empty((0, 2))), 10, -1),
        lambda: random_phase_sweep(seq(1.0, 2.0), 10, -1),
        lambda: equivalence_audit(4, 5, -1),
    ], ids=["random_phase_sweeps", "random_phase_sweeps_no_rows", "random_phase_sweep",
            "equivalence_audit"])
    def test_negative_seed_is_refused_by_name(self, call):
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            call()


class TestExtremalPhaseSearch:
    def test_single_barrier_degenerate(self):
        res = extremal_phase_search(seq(2.5), 720)
        assert res.theta_min_observed == res.theta_max_observed == 2.5

    def test_two_equal_barriers(self):
        res = extremal_phase_search(seq(1.0, 1.0), 720)
        assert res.theta_min_observed == pytest.approx(0.0, abs=1e-3)
        assert res.theta_max_observed == pytest.approx(2.0, abs=1e-3)

    def test_two_unequal_barriers(self):
        res = extremal_phase_search(seq(2.0, 0.5), 720)
        assert res.theta_min_observed == pytest.approx(1.5, abs=1e-3)
        assert res.theta_max_observed == pytest.approx(2.5, abs=1e-3)

    def test_three_equal_barriers_reach_zero(self):
        # the minimizer is interior (no sign choice gives |sum| = 0), so
        # this exercises the local refinement
        res = extremal_phase_search(seq(1.0, 1.0, 1.0), 240)
        assert res.theta_min_observed == pytest.approx(0.0, abs=1e-3)
        assert res.theta_max_observed == pytest.approx(3.0, abs=1e-3)

    def test_extremes_recompose(self):
        s = seq(1.0, 0.7)
        res = extremal_phase_search(s, 360)
        assert recompose_theta(s, res.argmin) == pytest.approx(
            res.theta_min_observed, abs=1e-9)
        assert recompose_theta(s, res.argmax) == pytest.approx(
            res.theta_max_observed, abs=1e-9)

    def test_raw_grid_error_bound(self):
        # without refinement the extremes bracket [B, S] to first order in
        # the phase step
        s = seq(1.2, 0.9, 0.5)
        grid = 180
        res = extremal_phase_search(s, grid, refine_rounds=0)
        b, ss = b_n_closed(s), s_n(s)
        step_error = math.pi * ss / grid
        assert b - 1e-10 <= res.theta_min_observed <= b + step_error
        assert ss - step_error <= res.theta_max_observed <= ss + 1e-10

    def test_dimension_guard(self):
        with pytest.raises(DimensionError):
            extremal_phase_search(seq(1.0, 1.0, 1.0, 1.0, 1.0), 10)

    def test_reduced_gauge_loses_nothing(self):
        # full-phase random sampling must stay inside the reduced-gauge
        # grid extremes (up to sampling slack)
        s = seq(1.2, 0.8)
        grid = extremal_phase_search(s, 720)
        sampled = random_phase_sweep(s, samples=50_000, seed=29)
        assert sampled.theta_min_observed >= grid.theta_min_observed - 1e-9
        assert sampled.theta_max_observed <= grid.theta_max_observed + 1e-9


class TestAttain:
    def test_upper_edge_uses_aligned_phases(self):
        s = seq(1.0, 0.8, 0.3)
        assignment = attain(s, s_n(s))
        for _, phi_b in assignment.phis:
            assert phi_b == pytest.approx(0.0, abs=1e-9)
        assert recompose_theta(s, assignment) == pytest.approx(s_n(s), abs=1e-8)

    def test_upper_edge_is_exactly_aligned_for_random_sequences(self):
        # the corner x = cur + theta_i must give psi = 0 exactly: acos of a
        # cos_psi one ulp below 1 gave phases of up to ~1e-7
        rng = np.random.default_rng(2024)
        for _ in range(300):
            s = seq(*rng.uniform(0.05, 4.0, int(rng.integers(2, 7))))
            assignment = attain(s, s_n(s))
            assert max(abs(phi_b) for _, phi_b in assignment.phis) <= 1e-9
            assert recompose_theta(s, assignment) == pytest.approx(s_n(s), abs=1e-8)

    def test_lower_edge_of_dominated_sequence(self):
        s = seq(3.0, 1.0, 1.0)
        assignment = attain(s, 1.0)  # = B_3
        assert recompose_theta(s, assignment) == pytest.approx(1.0, abs=1e-8)

    def test_two_barrier_interior_target(self):
        s = seq(1.0, 1.0)
        assignment = attain(s, 1.0)
        assert recompose_theta(s, assignment) == pytest.approx(1.0, abs=1e-8)
        # the solved relative phase is interior, not a sign flip
        assert 0.1 < abs(assignment.phis[1][1]) < math.pi - 0.1

    def test_random_targets_recompose(self):
        rng = np.random.default_rng(101)
        for n in (2, 3, 4, 5):
            for _ in range(25):
                s = seq(*rng.uniform(0.2, 3.0, n))
                b, ss = b_n_closed(s), s_n(s)
                target = rng.uniform(b, ss)
                assignment = attain(s, target)
                assert recompose_theta(s, assignment) == pytest.approx(
                    target, abs=1e-8)

    @staticmethod
    def assert_attains(s, target):
        # recomposed with 60 digits: to_polar's acosh|alpha| cannot tell a
        # rapidity below sqrt(2 eps) ~ 2e-8 from 0
        assignment = attain(s, target)
        assert abs(mp_theta(s.thetas, assignment.phis, 60) - target) <= 1e-8, (s, target)

    def test_floor_zero_is_attained(self):
        # B_n = 0 is perfect transmission, the edge the walk reaches at a
        # corner psi = pi
        rng = np.random.default_rng(1333)
        sequences = [seq(*rng.uniform(0.0, 4.0, int(rng.integers(2, 7)))) for _ in range(300)]
        floors = [s for s in sequences if b_n_closed(s) == 0.0]
        assert len(floors) > 100
        for s in floors:
            self.assert_attains(s, 0.0)

    def test_both_edges_and_an_interior_target_at_desk_scale(self):
        rng = np.random.default_rng(1800)
        for _ in range(600):
            s = seq(*rng.uniform(0.0, 6.0, int(rng.integers(2, 7))))
            b, ss = b_n_closed(s), s_n(s)
            for target in (b, ss, rng.uniform(b, ss)):
                self.assert_attains(s, target)

    def test_interior_target_of_an_opaque_pair(self):
        # cos psi = (cosh^2 x - A^2 - B^2) / (2AB) would lose cosh^2(1)
        # against A^2 ~ 1e16 and reach 0.50000004
        self.assert_attains(seq(10.0, 9.5), 1.0)

    def test_rejects_unreachable_targets(self):
        s = seq(3.0, 1.0, 1.0)
        with pytest.raises(TargetOutOfRangeError):
            attain(s, 0.5)   # below B_3 = 1
        with pytest.raises(TargetOutOfRangeError):
            attain(s, 5.5)   # above S_3 = 5

    def test_sign_construction_subcase(self):
        # real matrices with beta sign flips compose to |sum of signed
        # rapidities|
        rng = np.random.default_rng(55)
        for _ in range(25):
            n = rng.integers(2, 7)
            thetas = rng.uniform(0.0, 3.0, n)
            signs = rng.choice([0.0, math.pi], n)
            ms = [from_polar(HyperbolicParams(t, 0.0, s))
                  for t, s in zip(thetas, signs)]
            signed = sum(t if s == 0.0 else -t for t, s in zip(thetas, signs))
            assert to_polar(reduce(compose, ms)).theta == pytest.approx(
                abs(signed), rel=1e-11, abs=1e-7)

    def test_peak_sign_flip_attains_the_floor(self):
        thetas = (2.5, 0.7, 0.9)  # 2 theta_peak > S
        s = seq(*thetas)
        ms = [from_polar(HyperbolicParams(thetas[0], 0.0, 0.0))]
        ms += [from_polar(HyperbolicParams(t, 0.0, math.pi)) for t in thetas[1:]]
        assert to_polar(reduce(compose, ms)).theta == pytest.approx(
            b_n_closed(s), abs=1e-10)


class TestEquivalenceAudit:
    def test_reproduces_the_symbolic_checks(self):
        # the n = 5 and n = 10 cases, 1000 random draws each
        for n in (5, 10):
            report = equivalence_audit(n_max=n, trials=1000, seed=13)
            assert report.all_pass
            assert report.failures == 0
            assert report.max_discrepancy <= 1e-12

    def test_all_zero_sequences(self):
        z = seq(0.0, 0.0, 0.0)
        assert b_n_closed(z) == 0.0
        assert b_n_iterative(z) == 0.0

    def test_counts_add_up(self):
        report = equivalence_audit(n_max=4, trials=50, seed=2)
        assert report.passes + report.failures == 3 * 50

    def test_counts_the_disagreeing_row(self, monkeypatch):
        # the audit is recursion_audit on random rows: one row of n = 3 whose
        # recursion is off by 1e-9 is the one failure
        recursion = compound_barriers.verify.b_n_iterative_rows

        def off(thetas):
            gaps = np.zeros(len(thetas))
            gaps[0] = 1e-9 if thetas.shape[1] == 3 else 0.0
            return recursion(thetas) + gaps

        monkeypatch.setattr(compound_barriers.verify, "b_n_iterative_rows", off)
        report = equivalence_audit(n_max=4, trials=50, seed=2)
        assert (report.failures, report.passes) == (1, 3 * 50 - 1)
        assert not report.all_pass
        assert report.max_discrepancy == pytest.approx(1e-9, rel=1e-3)

    def test_refuses_rows_past_the_trusted_range(self):
        # 200 rapidities of mean 2 sum past RAPIDITY_LIMIT = 350, which
        # BoundsColumns refuses everywhere
        with pytest.raises(RapidityOverflowError, match="exceeds trusted range 350"):
            equivalence_audit(n_max=200, trials=10, seed=13)


class TestRecursionAudit:
    def test_long_chain_with_an_opaque_peak_passes(self):
        # one barrier at theta 311.5 among 2122 thin ones: the recursion's
        # plain running sum drifts by ulps of S_n ~ 316, past an absolute 1e-12
        rng = np.random.default_rng(184)
        row = rng.uniform(0.0, 10.0 / 2123, 2123)
        row[rng.integers(2123)] = 311.5
        worst, failing = recursion_audit(BoundsColumns([row]))
        assert failing == []
        assert worst > 1e-12

    def test_flags_the_disagreeing_row(self, monkeypatch):
        rows = np.random.default_rng(4).uniform(0.0, 3.0, (5, 6))
        assert recursion_audit(BoundsColumns(rows))[1] == []
        recursion = compound_barriers.verify.b_n_iterative_rows
        middle = rows[3]

        def off(thetas):
            return recursion(thetas) + 1e-9 * (thetas == middle).all(axis=1)

        monkeypatch.setattr(compound_barriers.verify, "b_n_iterative_rows", off)
        worst, failing = recursion_audit(BoundsColumns(rows))
        assert failing == [3]
        assert worst == pytest.approx(1e-9, rel=1e-3)


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED_SCATTERING = [path for path in sorted(SCENARIO_DIR.glob("*.scn"))
                      if load_scenario(path).mode == "scattering"]


class TestScenarioContainmentAudit:
    def test_single_barrier_sits_on_both_edges(self):
        audit = scenario_containment_audit(
            [Rectangular(height=2.0, width=1.0)], np.linspace(0.5, 2.0, 20))
        assert audit.all_contained
        assert audit.t_low_margin == pytest.approx(0.0, abs=1e-12)
        assert audit.t_high_margin == pytest.approx(0.0, abs=1e-12)

    def test_double_barrier_stays_inside(self):
        specs = [Rectangular(height=2.0, width=1.0, position=0.0),
                 Rectangular(height=2.0, width=1.0, position=2.2)]
        audit = scenario_containment_audit(specs, np.linspace(0.4, 2.4, 120))
        assert audit.all_contained
        assert audit.t_low_margin >= -1e-12
        assert audit.t_high_margin >= -1e-12
        assert audit.k_at_max_t is not None

    def test_unequal_barriers_never_reach_the_upper_edge(self):
        specs = [Rectangular(height=2.0, width=1.0, position=0.0),
                 Rectangular(height=2.0, width=1.5, position=2.5)]
        audit = scenario_containment_audit(specs, np.linspace(0.4, 2.4, 120))
        assert audit.all_contained
        for row, t_upper in zip(audit.rows, audit.bounds.envelopes[1]):
            assert row.t_exact < t_upper
            assert t_upper < 1.0

    @pytest.mark.parametrize("path", SHIPPED_SCATTERING, ids=lambda path: path.stem)
    def test_columns_equal_the_rows_view(self, path):
        scenario = load_scenario(path)
        audit = scenario_containment_audit(scenario.barriers, scenario.k_values)
        columns = (audit.k, audit.t_exact, audit.r_exact, audit.n_exact, audit.contained)
        assert len(audit.rows) == len(scenario.k_values)
        for row, *fields in zip(audit.rows, *columns, strict=True):
            assert (row.k, row.t_exact, row.r_exact, row.n_exact, row.contained) == tuple(fields)
        assert list(audit.k) == list(scenario.k_values)

    @pytest.mark.parametrize("path", SHIPPED_SCATTERING, ids=lambda path: path.stem)
    def test_theta_exact_lies_within_its_band_of_a_60_digit_fold(self, path, monkeypatch):
        # the audit's theta_exact = asinh|beta_total| against the chain solved
        # from the wave equation, placed and folded with 60 digits
        # (oracles.mp_at_origin): the gap is rounding, which its band covers
        band, seen = compound_barriers.verify._containment_band, []

        def recorded(n, theta_exact, s):
            seen.append((theta_exact, band(n, theta_exact, s)))
            return seen[-1][1]

        monkeypatch.setattr(compound_barriers.verify, "_containment_band", recorded)
        scenario = load_scenario(path)
        scenario_containment_audit(scenario.barriers, scenario.k_values)
        ((thetas, widths),) = seen
        with mpmath.workdps(60):
            for k, theta, width in zip(scenario.k_values, thetas.tolist(), widths.tolist()):
                chain = mp_fold(mp_translate(mp_at_origin(spec, k), k, spec.position)
                                for spec in scenario.barriers)
                assert abs(theta - mpmath.asinh(abs(chain[0][1]))) <= width, k

    def test_mixed_kinds(self):
        specs = [Delta(strength=1.5, position=-2.0),
                 Rectangular(height=2.0, width=1.0, position=0.0),
                 Delta(strength=-0.8, position=2.0)]
        audit = scenario_containment_audit(specs, np.linspace(0.5, 2.0, 60))
        assert audit.all_contained
