"""Acceptance gate: every shipping criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  Tolerances are pinned here, not configurable.
"""

import contextlib
import math
import time
from functools import reduce

import numpy as np
import pytest

from compound_barriers import (
    Delta,
    PiecewiseConstant,
    Rectangular,
    RapiditySequence,
    WaveContext,
    amplitudes,
    attain,
    b_n_closed,
    compose,
    production_guaranteed,
    random_phase_sweep,
    s_n,
    scenario_transfer,
    to_polar,
    transfer_of,
)
from conftest import two_barrier_N, two_barrier_T
from oracles import (
    b_n_iterative,
    cosh_sum_acosh,
    cosh_sum_asinh,
    extremal_phase_search,
    matrices,
    ode_transmission,
    pieces_for,
    sech_sum_asech,
    sinh_sum_asinh,
    tanh_sum_atanh,
    two_barrier_N_bounds_rational,
    two_barrier_T_bounds_rational,
)


@contextlib.contextmanager
def criterion(number, name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"[criterion {number}] {name}: PASS ({elapsed:.2f} s)")


def test_1_bound_containment_under_random_phases():
    # 200 random rapidity sequences, 1e4 random phase assignments each;
    # every composed rapidity inside [B_n, S_n] up to a 1e-10 band
    with criterion(1, "bound containment under random phases"):
        started = time.perf_counter()
        rng = np.random.default_rng(20250809)
        for i in range(200):
            n = int(rng.integers(2, 9))
            seq = RapiditySequence(tuple(rng.uniform(0.0, 4.0, n)))
            # random_phase_sweep raises BoundViolationError on any escape
            res = random_phase_sweep(seq, samples=10_000, seed=int(rng.integers(2**32)))
            assert res.theta_min_observed >= b_n_closed(seq) - 1e-10
            assert res.theta_max_observed <= s_n(seq) + 1e-10
        assert time.perf_counter() - started < 30.0


def test_2_iterative_equals_closed_form():
    with criterion(2, "iterative == closed-form lower bound"):
        started = time.perf_counter()
        rng = np.random.default_rng(7)
        for n in range(2, 13):
            for _ in range(1000):
                seq = RapiditySequence(tuple(rng.uniform(0.0, 4.0, n)))
                assert abs(b_n_iterative(seq) - b_n_closed(seq)) <= 1e-12
        assert time.perf_counter() - started < 5.0


def test_3_permutation_symmetry():
    with criterion(3, "permutation symmetry of the lower bound"):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            thetas = rng.uniform(0.0, 4.0, n)
            reference = b_n_closed(RapiditySequence(tuple(thetas)))
            for _ in range(20):
                shuffled = RapiditySequence(tuple(rng.permutation(thetas)))
                assert abs(b_n_closed(shuffled) - reference) <= 1e-12


def test_4_sharpness_of_the_interval():
    # grid search reaches both edges; attain hits interior targets
    with criterion(4, "interval sharpness (grid extremes + attainment)"):
        for thetas in [(1.0, 1.0), (2.0, 0.5), (1.0, 1.0, 1.0), (1.3, 0.7, 0.4)]:
            seq = RapiditySequence(thetas)
            res = extremal_phase_search(seq, 720)
            assert abs(res.theta_min_observed - b_n_closed(seq)) <= 1e-3
            assert abs(res.theta_max_observed - s_n(seq)) <= 1e-3

        rng = np.random.default_rng(23)
        for n in (2, 3, 4, 5):
            for _ in range(100):
                seq = RapiditySequence(tuple(rng.uniform(0.2, 3.0, n)))
                target = rng.uniform(b_n_closed(seq), s_n(seq))
                assignment = attain(seq, target)
                achieved = to_polar(reduce(compose, matrices(assignment, seq))).theta
                assert abs(achieved - target) <= 1e-8


def test_5_two_barrier_closed_forms():
    with criterion(5, "two-barrier closed forms (hyperbolic vs rational)"):
        # the worked values reproduce exactly in the rational arrangement
        assert two_barrier_T_bounds_rational(0.5, 0.5) == (1.0 / 9.0, 1.0)
        assert two_barrier_N_bounds_rational(1.0, 1.0) == (0.0, 8.0)
        lo, hi = two_barrier_T(0.5, 0.5)
        assert lo == pytest.approx(1.0 / 9.0, rel=1e-15) and hi == 1.0
        lo, hi = two_barrier_N(1.0, 1.0)
        assert lo == 0.0 and hi == pytest.approx(8.0, rel=1e-15)

        rng = np.random.default_rng(31)
        for _ in range(10_000):
            t1, t2 = rng.uniform(1e-3, 1.0, 2)
            for h, r in zip(two_barrier_T(t1, t2),
                            two_barrier_T_bounds_rational(t1, t2)):
                assert math.isclose(h, r, rel_tol=1e-12, abs_tol=1e-15)
            n1, n2 = rng.uniform(0.0, 10.0, 2)
            for h, r in zip(two_barrier_N(n1, n2),
                            two_barrier_N_bounds_rational(n1, n2)):
                assert math.isclose(h, r, rel_tol=1e-12, abs_tol=1e-15)


def _spacing_sweep_max_T(left: Rectangular, right_height: float,
                         right_width: float, k: float, points: int) -> tuple[float, float]:
    """Max compound T over one full period of barrier spacing, plus T_upper."""
    ctx = WaveContext(k)
    t1 = amplitudes(transfer_of(left, ctx)).T
    t2 = amplitudes(transfer_of(Rectangular(height=right_height,
                                            width=right_width), ctx)).T
    _, t_upper = two_barrier_T(t1, t2)
    gap_min = 0.5 * (left.width + right_width) + 1e-3
    best = 0.0
    for d in np.linspace(gap_min, gap_min + math.pi / k, points):
        specs = [left, Rectangular(height=right_height, width=right_width,
                                   position=float(d))]
        best = max(best, amplitudes(scenario_transfer(specs, ctx)).T)
        assert best <= t_upper + 1e-9
    return best, t_upper


def test_6_resonance_necessity_in_a_physical_sweep():
    with criterion(6, "resonance necessity (equal vs unequal barriers)"):
        started = time.perf_counter()
        left = Rectangular(height=2.0, width=1.0, position=0.0)
        # equal transmissions: some spacing comes within 1e-3 of T = 1
        best, t_upper = _spacing_sweep_max_T(left, 2.0, 1.0, k=1.0, points=4001)
        assert t_upper == 1.0
        assert best > 1.0 - 1e-3
        # unequal transmissions: the sweep never beats T_upper < 1
        best, t_upper = _spacing_sweep_max_T(left, 2.0, 1.5, k=1.0, points=4001)
        predicted_gap = 1.0 - t_upper
        assert predicted_gap > 1e-3
        assert best <= 1.0 - predicted_gap + 1e-9
        assert time.perf_counter() - started < 10.0


def test_7_physical_oracle_agreement():
    # 50 random barriers: matrix T vs direct integration of the wave equation
    with criterion(7, "transfer matrices vs wave-equation integration"):
        rng = np.random.default_rng(99)
        cases = []
        for _ in range(20):
            cases.append(Rectangular(height=float(rng.uniform(-3, 4)),
                                     width=float(rng.uniform(0.1, 2.5))))
        for _ in range(15):
            cases.append(Delta(strength=float(rng.uniform(-2.5, 3.0))))
        for _ in range(15):
            segments = tuple((float(rng.uniform(-3, 4)), float(rng.uniform(0.1, 1.0)))
                             for _ in range(int(rng.integers(2, 4))))
            cases.append(PiecewiseConstant(segments=segments))
        for spec in cases:
            k = float(rng.uniform(0.3, 3.0))
            exact = amplitudes(transfer_of(spec, WaveContext(k))).T
            oracle = ode_transmission(pieces_for([spec]), k)
            assert exact == pytest.approx(oracle, rel=1e-6)


def test_8_identity_kernel():
    with criterion(8, "hyperbolic identity kernel vs transcendentals"):
        rng = np.random.default_rng(17)

        def agree(a, b):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)

        for _ in range(10_000):
            a, b = rng.uniform(0.0, 30.0, 2)
            agree(sinh_sum_asinh(a, b), math.sinh(math.asinh(a) + math.asinh(b)))
            agree(cosh_sum_asinh(a, b), math.cosh(math.asinh(a) + math.asinh(b)))
            a, b = rng.uniform(1.0, 30.0, 2)
            agree(cosh_sum_acosh(a, b), math.cosh(math.acosh(a) + math.acosh(b)))
            a, b = rng.uniform(0.0, 1.0 - 1e-6, 2)
            agree(tanh_sum_atanh(a, b), math.tanh(math.atanh(a) + math.atanh(b)))
            a, b = rng.uniform(1e-6, 1.0 - 1e-6, 2)
            agree(sech_sum_asech(a, b),
                  1.0 / math.cosh(math.acosh(1.0 / a) + math.acosh(1.0 / b)))


def test_9_production_criterion_soundness():
    with criterion(9, "production guarantee implies a positive floor"):
        rng = np.random.default_rng(41)
        for _ in range(10_000):
            n = int(rng.integers(1, 7))
            ns = rng.uniform(0.0, 10.0, n)
            ns[rng.random(n) < 0.1] = 0.0  # sprinkle silent episodes
            check = production_guaranteed(list(ns))
            if check.guaranteed:
                assert check.n_min > 0.0
        boundary = production_guaranteed([1.0, 1.0])
        assert not boundary.guaranteed
        assert boundary.n_min == 0.0
