"""Verification machinery: sweeps, grid extremes, attainment, audits."""

import math

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
    TargetOutOfRangeError,
    attain,
    b_n_closed,
    compose_sequence,
    equivalence_audit,
    extremal_phase_search,
    from_polar,
    random_phase_sweep,
    random_phase_sweeps,
    recursion_audit,
    s_n,
    scenario_containment_audit,
    to_polar,
)
from compound_barriers.transfer import compose_polar, gauge_rotors
from compound_barriers.errors import BoundViolationError
from compound_barriers.verify import _block_phases, _block_rng, _blocks, _theta_error

EPS = float(np.finfo(float).eps)


def seq(*thetas):
    return RapiditySequence(tuple(thetas))


def recompose_theta(sequence, assignment):
    return to_polar(compose_sequence(assignment.matrices(sequence))).theta


def mp_theta(thetas, phases, digits=50):
    """Rapidity of the product of the dressed factors (n, 2) phases, computed
    with ``digits`` digits (|alpha| below 1 by rounding clamped to 1)."""
    with mpmath.workdps(digits):
        a, b = mpmath.mpc(1), mpmath.mpc(0)
        for t, (pa, pb) in zip(thetas, phases):
            a2 = mpmath.cosh(t) * mpmath.expj(pa)
            b2 = mpmath.sinh(t) * mpmath.expj(pb)
            a, b = a * a2 + b * mpmath.conj(b2), a * b2 + b * mpmath.conj(a2)
        return float(mpmath.acosh(max(abs(a), 1)))


def assert_block_matches_mpmath(thetas, phases, samples=(), digits=50):
    """compose_polar of a (count, n, 2) phase block, at its argmin, its argmax
    and ``samples``, within the audit's rounding bound of mp_theta."""
    got = compose_polar(thetas, phases[:, :, 0], phases[:, :, 1])
    delta = 8.0 * len(thetas) * EPS * math.cosh(s_n(seq(*thetas)))
    for j in {int(np.argmin(got)), int(np.argmax(got)), *samples}:
        ref = mp_theta(thetas, phases[j], digits)
        assert abs(got[j] - ref) <= _theta_error(ref, delta), (j, got[j], ref)


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
                to_polar(compose_sequence(ms)).theta, rel=1e-12, abs=1e-9)


    @pytest.mark.parametrize("seed", range(5, 13))
    def test_matches_mpmath_at_scale(self, seed):
        # theta log-uniform up to the trusted range: the extreme samples of a
        # block sit within the audit's rounding bound of a 50-digit value.  At
        # seeds 7 and 12 an extreme lies within 0.01 ulp of theta of a rounding
        # midpoint, and the bound is below half an ulp of theta there
        for i, s in enumerate(log_uniform_sequences(seed)):
            assert_block_matches_mpmath(s.thetas, _block_phases(i, 0, 4096, len(s)))

    @pytest.mark.parametrize("thetas", [(25, 30), (0, 40, 0), (20, 1e-8, 22, 5),
                                        (60,) * 5, (100, 0.3, 100), (0, 0)])
    def test_matches_mpmath_where_tanh_rounds_to_one(self, thetas):
        # tanh(theta) is 1.0 in doubles from theta ~ 19.1 on, so the scaled
        # fold keeps no trace of 1 - tanh^2 there; the oracle needs the digits
        # of cosh(S_n) on top of its own 30
        digits = 30 + int(s_n(seq(*thetas)) / math.log(10))
        phases = _block_phases(len(thetas), 0, 4096, len(thetas))
        assert_block_matches_mpmath(thetas, phases, range(8), digits)

    def test_rotors_are_contiguous_and_in_place(self):
        # a second block-sized array per block is what pushes peak RSS up
        phases = _block_phases(3, 0, 4096, 16)
        rho = gauge_rotors(phases)
        assert rho.shape == (15, 4096)
        assert rho.flags.c_contiguous
        assert np.shares_memory(rho, phases)


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
            theta = to_polar(compose_sequence(ms)).theta
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
        s = seq(1.3, 0.6, 0.9)
        res = random_phase_sweep(s, samples=2000, seed=19)
        assert recompose_theta(s, res.argmin) == pytest.approx(
            res.theta_min_observed, rel=1e-11, abs=1e-9)
        assert recompose_theta(s, res.argmax) == pytest.approx(
            res.theta_max_observed, rel=1e-11, abs=1e-9)

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
            rng = _block_rng(seed, block)
            phases = rng.uniform(-math.pi, math.pi, size=(count, len(s), 2))
            thetas = compose_polar(s.thetas, phases[:, :, 0], phases[:, :, 1])
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
        rows = np.random.default_rng(n).uniform(0.0, 3.0, (5, n))
        samples, seed = 10_000, 41  # two full blocks and a partial one
        batch = random_phase_sweeps(BoundsColumns(rows), samples, seed)
        assert len(batch) == len(rows)
        for row, got in zip(rows, batch):
            one = random_phase_sweep(seq(*row), samples, seed)
            assert got.violation is None
            assert got.theta_min_observed == one.theta_min_observed
            assert got.theta_max_observed == one.theta_max_observed
            for (block, index), assignment in ((got.argmin_at, one.argmin),
                                               (got.argmax_at, one.argmax)):
                count = min(4096, samples - 4096 * block)
                drawn = _block_phases(seed, block, count, n)[index]
                assert tuple(map(tuple, drawn.tolist())) == assignment.phis

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
        assert str(batch[2].violation) == str(one.value)
        assert "in block" in str(one.value)
        assert math.isnan(batch[2].theta_min_observed)
        assert math.isnan(batch[2].theta_max_observed)
        assert batch[:2] + batch[3:] == clean[:2] + clean[3:]


class TestLibrarySeeds:
    @pytest.mark.parametrize("call", [
        lambda: random_phase_sweeps(BoundsColumns([[1.0, 2.0]]), 10, -1),
        lambda: random_phase_sweep(seq(1.0, 2.0), 10, -1),
        lambda: equivalence_audit(4, 5, -1),
    ], ids=["random_phase_sweeps", "random_phase_sweep", "equivalence_audit"])
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
            assert to_polar(compose_sequence(ms)).theta == pytest.approx(
                abs(signed), rel=1e-11, abs=1e-7)

    def test_peak_sign_flip_attains_the_floor(self):
        thetas = (2.5, 0.7, 0.9)  # 2 theta_peak > S
        s = seq(*thetas)
        ms = [from_polar(HyperbolicParams(thetas[0], 0.0, 0.0))]
        ms += [from_polar(HyperbolicParams(t, 0.0, math.pi)) for t in thetas[1:]]
        assert to_polar(compose_sequence(ms)).theta == pytest.approx(
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
        from compound_barriers import b_n_iterative
        assert b_n_iterative(z) == 0.0

    def test_counts_add_up(self):
        report = equivalence_audit(n_max=4, trials=50, seed=2)
        assert report.passes + report.failures == 3 * 50


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

    def test_mixed_kinds(self):
        specs = [Delta(strength=1.5, position=-2.0),
                 Rectangular(height=2.0, width=1.0, position=0.0),
                 Delta(strength=-0.8, position=2.0)]
        audit = scenario_containment_audit(specs, np.linspace(0.5, 2.0, 60))
        assert audit.all_contained
