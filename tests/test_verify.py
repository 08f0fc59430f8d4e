"""Verification machinery: sweeps, grid extremes, attainment, audits."""

import math

import numpy as np
import pytest

from compound_barriers import (
    Delta,
    DimensionError,
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
    s_n,
    scenario_containment_audit,
    to_polar,
)
from compound_barriers.transfer import compose_polar
from compound_barriers.verify import _block_rng, _blocks


def seq(*thetas):
    return RapiditySequence(tuple(thetas))


def recompose_theta(sequence, assignment):
    return to_polar(compose_sequence(assignment.matrices(sequence))).theta


class TestBatchKernel:
    def test_matches_object_algebra(self):
        # the batch kernel must agree with transfer.compose exactly (both
        # run transfer.product, on arrays and on complex numbers)
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
        for row in audit.rows:
            assert row.t_exact < row.report.t_interval[1]
            assert row.report.t_interval[1] < 1.0

    def test_mixed_kinds(self):
        specs = [Delta(strength=1.5, position=-2.0),
                 Rectangular(height=2.0, width=1.0, position=0.0),
                 Delta(strength=-0.8, position=2.0)]
        audit = scenario_containment_audit(specs, np.linspace(0.5, 2.0, 60))
        assert audit.all_contained
