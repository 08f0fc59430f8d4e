"""Physical barrier models against analytic contracts and the ODE oracle."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from compound_barriers import (
    NORM_TOL,
    Delta,
    DomainError,
    OverlapError,
    PiecewiseConstant,
    Rectangular,
    RapiditySequence,
    RapidityOverflowError,
    WaveContext,
    amplitudes,
    bounds_report,
    scenario_arrays,
    scenario_transfer,
    support,
    transfer_of,
    to_polar,
)
from compound_barriers import barriers
from compound_barriers.barriers import origin_arrays
from compound_barriers.scenario import Scenario, load_scenario
from compound_barriers.transfer import translate
from oracles import ode_transmission, pieces_for, slab_profile_two_branch

# frozen by high-precision evaluation (mpmath, 50 digits)
SECH2_1 = 0.4199743416140261          # rect V0=2 L=1 k=1
T_RECT_AT_TOP = 0.5                   # rect V0=1 L=2 k=1 (E = V0)
T_RECT_ABOVE = 0.9875777389320601     # rect V0=1 L=1.3 k=2 (E > V0)
T_WELL = 0.830153739743878            # rect V0=-1.5 L=0.8 k=1


def T_of(spec, k):
    return amplitudes(transfer_of(spec, WaveContext(k))).T


class TestContractValues:
    def test_switched_off_delta_is_identity(self):
        m = transfer_of(Delta(strength=0.0, position=0.7), WaveContext(1.3))
        assert m.alpha == 1.0 + 0.0j
        assert m.beta == 0.0j

    def test_delta_halves_transmission(self):
        # T = 1/(1 + (lam/2k)^2) = 1/2 at lam = 2, k = 1
        assert T_of(Delta(strength=2.0), 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_delta_wells_scatter_like_barriers(self):
        lam, k = -1.3, 0.7
        expected = 1.0 / (1.0 + (lam / (2 * k)) ** 2)
        assert T_of(Delta(strength=lam), k) == pytest.approx(expected, rel=1e-14)

    def test_rectangular_below_top(self):
        assert T_of(Rectangular(height=2.0, width=1.0), 1.0) == pytest.approx(
            SECH2_1, rel=1e-14)

    def test_rectangular_exactly_at_top(self):
        # removable singularity: T -> 1/(1 + k^2 L^2 / 4)
        assert T_of(Rectangular(height=1.0, width=2.0), 1.0) == pytest.approx(
            T_RECT_AT_TOP, rel=1e-12)

    def test_rectangular_above_top(self):
        assert T_of(Rectangular(height=1.0, width=1.3), 2.0) == pytest.approx(
            T_RECT_ABOVE, rel=1e-14)

    def test_rectangular_well(self):
        assert T_of(Rectangular(height=-1.5, width=0.8), 1.0) == pytest.approx(
            T_WELL, rel=1e-14)

    def test_matrices_are_normalized_on_both_branches(self):
        for height, k in [(2.0, 1.0), (1.0, 2.0), (-3.0, 0.5), (4.0, 1.999)]:
            m = transfer_of(Rectangular(height=height, width=1.1), WaveContext(k))
            assert abs(m.alpha) ** 2 - abs(m.beta) ** 2 == pytest.approx(1.0, abs=1e-12)

    @given(height=st.floats(min_value=-5.0, max_value=5.0),
           width=st.floats(min_value=0.01, max_value=3.0),
           k=st.floats(min_value=0.05, max_value=5.0),
           position=st.floats(min_value=-10.0, max_value=10.0))
    def test_every_barrier_matrix_passes_strict_validation(self, height, width, k, position):
        m = transfer_of(Rectangular(height=height, width=width, position=position),
                        WaveContext(k))
        assert abs(abs(m.alpha) ** 2 - abs(m.beta) ** 2 - 1.0) <= NORM_TOL


class TestPositioning:
    def test_probabilities_ignore_position(self):
        ctx = WaveContext(1.7)
        home = transfer_of(Rectangular(height=2.0, width=1.0), ctx)
        away = transfer_of(Rectangular(height=2.0, width=1.0, position=5.5), ctx)
        assert abs(away.alpha) == abs(home.alpha)
        assert to_polar(away).theta == to_polar(home).theta
        assert abs(away.beta) ** 2 == pytest.approx(abs(home.beta) ** 2, rel=1e-14)

    def test_positioning_is_exactly_the_shift_rule(self):
        ctx = WaveContext(0.9)
        home = transfer_of(Delta(strength=1.5), ctx)
        away = transfer_of(Delta(strength=1.5, position=-2.25), ctx)
        assert away.alpha == home.alpha
        assert away.beta == translate(home.beta, ctx.k, -2.25)

    def test_single_slab_equals_rectangular(self):
        ctx = WaveContext(1.2)
        slab = transfer_of(PiecewiseConstant(segments=((2.0, 1.0),), position=0.4), ctx)
        rect = transfer_of(Rectangular(height=2.0, width=1.0, position=0.4), ctx)
        assert slab.alpha == rect.alpha and slab.beta == rect.beta

    def test_supports(self):
        assert support(Rectangular(height=1.0, width=2.0, position=3.0)) == (2.0, 4.0)
        assert support(Delta(strength=1.0, position=-1.0)) == (-1.0, -1.0)
        assert support(PiecewiseConstant(segments=((1.0, 1.0), (2.0, 3.0)),
                                         position=0.0)) == (-2.0, 2.0)


class TestValidation:
    def test_nonpositive_width_rejected(self):
        with pytest.raises(DomainError):
            Rectangular(height=1.0, width=0.0)
        with pytest.raises(DomainError):
            PiecewiseConstant(segments=((1.0, -0.5),))

    def test_nonpositive_wavenumber_rejected(self):
        with pytest.raises(DomainError):
            WaveContext(0.0)
        with pytest.raises(DomainError):
            WaveContext(-1.0)

    @pytest.mark.parametrize("k", [-1.0, np.float64(-1.0), -0.0, np.float64(-0.0), math.nan],
                             ids=["float", "numpy", "-0.0", "numpy-0.0", "nan"])
    def test_refused_wavenumber_is_named_as_a_plain_float(self, k):
        # one rule (barriers.check_wavenumbers) behind the scenario and the
        # build, and a numpy scalar is named as the float it holds
        specs = (Delta(strength=1.0, position=0.0),)
        got = f"must be finite and > 0, got {float(k)!r}"
        for call, what in [(lambda: Scenario(barriers=specs, k_values=(0.5, k, -3.0)),
                            "wavenumbers"),
                           (lambda: origin_arrays(specs, [0.5, k, -3.0]), "wavenumbers"),
                           (lambda: scenario_arrays(specs, [0.5, k, -3.0]), "wavenumbers"),
                           (lambda: WaveContext(k), "wavenumber")]:
            with pytest.raises(DomainError) as err:
                call()
            assert str(err.value) == f"{what} {got}"

    @pytest.mark.parametrize("k", ["1.0", None])
    def test_wavenumber_that_is_no_number_stays_a_type_error(self, k):
        with pytest.raises(TypeError):
            Scenario(barriers=(Delta(strength=1.0, position=0.0),), k_values=(0.5, k))

    @pytest.mark.parametrize("spec, k", [
        (Rectangular(height=2.0, width=1.0), 1e300),
        (PiecewiseConstant(segments=((2.0, 0.5), (1.0, 0.5))), 1e160),
        (Rectangular(height=2.0, width=100.0), 1e152),
    ])
    def test_wavenumber_whose_energy_overflows_is_refused_by_name(self, spec, k):
        # E = k^2 (times L^3 in the slab series) overflows double precision:
        # refused before any arithmetic overflows, which the RuntimeWarning
        # filter would turn into a failure
        with pytest.raises(DomainError, match=re.escape(f"wavenumber k = {k!r} ")):
            transfer_of(spec, WaveContext(k))

    def test_slab_formula_holds_up_to_its_wavenumber_limit(self):
        from compound_barriers.barriers import _K_LIMIT
        for height, width in [(2.0, 1.0), (-1.5, 0.5), (2.0, 100.0)]:
            wide = max(1.0, width)
            k = _K_LIMIT / wide / math.sqrt(wide)  # k^2 max(1, L)^3 = an eighth of the largest double
            assert T_of(Rectangular(height=height, width=width), k) == pytest.approx(1.0)
        # delta barriers have no slab formula: nearly transparent at such k
        assert T_of(Delta(strength=1.5), 1e300) == 1.0

    @pytest.mark.parametrize("k", [1.0, 4.7e-297])
    def test_slab_too_wide_for_any_wavenumber_is_refused_by_its_width(self, k):
        # |V0| L^2 overflows at every k, so the width is at fault, not k; at
        # the smaller k the slab series overflowed, which the RuntimeWarning
        # filter turns into a failure
        with pytest.raises(DomainError, match=re.escape(
                "slab of height 2.0 and width 1e+300 is out of range")):
            transfer_of(Rectangular(height=2.0, width=1e300), WaveContext(k))

    @pytest.mark.parametrize("spec, named", [
        (Delta(1.0), "delta barrier of strength 1.0"),
        (Delta(-3.0, 2.0), "delta barrier of strength -3.0"),
        (Rectangular(height=1.0, width=1.0), "slab of height 1.0 and width 1.0"),
        (Rectangular(height=-9.0, width=0.5), "slab of height -9.0 and width 0.5"),
        (PiecewiseConstant(segments=((2.0, 0.5), (1.0, 0.5))), "slab of height 2.0 and width 0.5"),
    ])
    def test_wavenumber_whose_coupling_overflows_is_refused_by_name(self, spec, named):
        # lam / 2k and V0 S / 2k grow as 1/k and overflow below ~1e-308: one
        # error naming k and the barrier, where numpy warned (which the
        # RuntimeWarning filter turns into a failure) and NaN pairs named neither
        with pytest.raises(DomainError,
                           match=re.escape(f"k = 1e-310 is too small for a {named}:")):
            scenario_arrays([spec], [1.0, 1e-310])
        # at 1e-300 the coupling is finite and the rapidity past the trusted range
        with pytest.raises(RapidityOverflowError):
            scenario_arrays([spec], [1e-300])

    def test_position_whose_phase_overflows_is_refused_by_name(self):
        # 2 k a overflows double precision: refused, naming k and the position,
        # before any arithmetic overflows
        pair = [Delta(1.5), Delta(1.5, 2.0)]
        with pytest.raises(DomainError, match=re.escape("k = 1e+308 at position 0.0 ")):
            scenario_arrays(pair, [1e300, 1e308])
        with pytest.raises(DomainError, match=re.escape("k = 4e+307 at position 2.0 ")):
            scenario_arrays(pair, [1e300, 4e307])
        _, beta = scenario_arrays(pair, [1e300, 2e307])
        assert np.isfinite(beta).all()

    def test_build_at_the_origin_refuses_the_same_positions(self):
        # no 2 k a is formed at the origin, yet the positions are refused alike
        pair = [Delta(1.5), Delta(1.5, 2.0)]
        with pytest.raises(DomainError, match=re.escape("k = 1e+308 at position 0.0 ")):
            origin_arrays(pair, [1e300, 1e308])
        with pytest.raises(DomainError, match=re.escape("k = 4e+307 at position 2.0 ")):
            origin_arrays(pair, [1e300, 4e307])
        origin_arrays(pair, [1e300, 2e307])

    def test_named_refusals_come_before_the_pair_check(self):
        # the pairs are checked once, after every barrier is built: a later
        # barrier's position is named before an earlier barrier's |alpha|
        specs = [Delta(1e160), Delta(1.0, 1e308)]
        with pytest.raises(DomainError, match=re.escape("k = 1.0 at position 1e+308 ")):
            origin_arrays(specs, [1.0])
        with pytest.raises(RapidityOverflowError, match=re.escape("|alpha| = 5e+159 ")):
            origin_arrays(specs[:1], [1.0])

    def test_absurdly_opaque_slab_refused(self):
        from compound_barriers import RapidityOverflowError
        with pytest.raises(RapidityOverflowError):
            transfer_of(Rectangular(height=1e7, width=200.0), WaveContext(1.0))

    def test_overlapping_supports_rejected(self):
        specs = [Rectangular(height=1.0, width=2.0, position=0.0),
                 Rectangular(height=1.0, width=2.0, position=1.5)]
        with pytest.raises(OverlapError):
            scenario_transfer(specs, WaveContext(1.0))

    def test_touching_closed_supports_rejected(self):
        specs = [Rectangular(height=1.0, width=2.0, position=0.0),
                 Delta(strength=1.0, position=1.0)]
        with pytest.raises(OverlapError):
            scenario_transfer(specs, WaveContext(1.0))

    def test_unsorted_sequences_rejected(self):
        specs = [Delta(strength=1.0, position=2.0), Delta(strength=1.0, position=0.0)]
        with pytest.raises(OverlapError):
            scenario_transfer(specs, WaveContext(1.0))


class TestScenarioComposition:
    def test_single_barrier_passthrough(self):
        ctx = WaveContext(1.1)
        spec = Rectangular(height=2.0, width=1.0, position=0.3)
        alone = scenario_transfer([spec], ctx)
        direct = transfer_of(spec, ctx)
        assert alone.alpha == direct.alpha and alone.beta == direct.beta

    def test_two_deltas_are_periodic_in_separation(self):
        # beta's phase moves as e^{2ikd}: period pi/k in the separation
        k = 1.0
        period = math.pi / k

        def T(d):
            specs = [Delta(strength=2.0, position=0.0),
                     Delta(strength=2.0, position=d)]
            return amplitudes(scenario_transfer(specs, WaveContext(k))).T

        for d in (0.6, 1.1, 2.3):
            assert T(d) == pytest.approx(T(d + period), rel=1e-12)

    def test_double_rectangular_sweep_respects_envelopes(self):
        base = Rectangular(height=2.0, width=1.0, position=0.0)
        far = Rectangular(height=2.0, width=1.0, position=2.6)
        for k in np.linspace(0.4, 2.2, 40):
            ctx = WaveContext(float(k))
            matrices = [transfer_of(base, ctx), transfer_of(far, ctx)]
            report = bounds_report(RapiditySequence.from_matrices(matrices))
            exact = amplitudes(scenario_transfer([base, far], ctx)).T
            assert report.t_interval[0] - 1e-10 <= exact <= report.t_interval[1] + 1e-10


# the shipped scenarios with barriers (a production scenario has none)
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = [path for path in sorted(SCENARIO_DIR.glob("*.scn"))
           if load_scenario(path).mode == "scattering"]


def _two_branch_build(monkeypatch, specs, k):
    with monkeypatch.context() as patch:
        patch.setattr(barriers, "_slab_profile", slab_profile_two_branch)
        return scenario_arrays(specs, k)


def _same_bits(got, want):
    return all(np.array_equal(g.view(np.uint64), w.view(np.uint64)) for g, w in zip(got, want))


@pytest.mark.dispatch
class TestOriginBuild:
    """The bounds read origin_arrays, the audit scenario_arrays, which is
    origin_arrays plus translation: translation moves beta only, so both
    give every rapidity the same bits."""

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda path: path.stem)
    def test_alpha_equals_the_placed_alpha(self, path):
        scenario = load_scenario(path)
        at_origin, _ = origin_arrays(scenario.barriers, scenario.k_values)
        placed, _ = scenario_arrays(scenario.barriers, scenario.k_values)
        assert _same_bits([at_origin], [placed])

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda path: path.stem)
    def test_each_beta_is_translated_alone(self, path):
        # the placed columns equal one-barrier builds at the barrier's
        # position, whatever the layout of the whole build
        scenario = load_scenario(path)
        self.assert_translated_alone(scenario.barriers, scenario.k_values)

    def test_a_wide_build_is_translated_column_by_column(self):
        # 12000 k x 3 barriers: numpy computes an expression over a
        # temporary this large in place, which rounds the slabs' complex
        # products differently from the one-barrier builds
        specs = [Rectangular(height=4.0, width=1.3, position=-3.0),
                 PiecewiseConstant(((2.0, 0.4), (4.0, 0.7)), position=0.0),
                 PiecewiseConstant(((1.0, 0.3), (3.0, 0.5), (2.0, 0.2)), position=2.5)]
        self.assert_translated_alone(specs, np.linspace(0.3, 3.0, 12000))

    @staticmethod
    def assert_translated_alone(specs, k):
        _, placed = scenario_arrays(specs, k)
        for i, spec in enumerate(specs):
            _, alone = scenario_arrays([spec], k)
            assert _same_bits([np.ascontiguousarray(placed[:, i])], [alone[:, 0]]), i


@pytest.mark.dispatch
class TestSlabProfile:
    """Each slab branch runs only on its own entries; the pairs equal bit for
    bit those of the two-branch reference, which runs both over every entry
    (under either numpy dispatch, since the masked passes are elementwise)."""

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda path: path.stem)
    def test_shipped_scenarios_match_the_two_branch_reference(self, monkeypatch, path):
        scenario = load_scenario(path)
        got = scenario_arrays(scenario.barriers, scenario.k_values)
        assert _same_bits(got, _two_branch_build(monkeypatch, scenario.barriers, scenario.k_values))

    @pytest.mark.parametrize("k", [
        np.linspace(0.3, 3.0, 2001),  # both branches on every slab but the well
        np.array([1.5, 2.0, 2.5, math.sqrt(2.0)]),  # E = V0 = 4 exactly, E = 2 to an ulp: series
        np.linspace(0.1, 1.2, 50),  # below every top: the barriers' trigonometric mask is empty
        np.linspace(2.5, 40.0, 50),  # above every top: the hyperbolic mask is empty
    ], ids=["both", "at-top", "below", "above"])
    def test_branches_match_the_two_branch_reference(self, monkeypatch, k):
        # the well (V0 < 0) is trigonometric at every k
        specs = [Rectangular(height=4.0, width=1.3, position=-3.0),
                 Rectangular(height=-1.5, width=0.8, position=0.0),
                 PiecewiseConstant(((2.0, 0.4), (4.0, 0.7)), position=3.0)]
        got = scenario_arrays(specs, k)
        assert _same_bits(got, _two_branch_build(monkeypatch, specs, k))


class TestOdeOracle:
    def test_random_rectangulars_match_integration(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            height = rng.uniform(-3.0, 4.0)
            width = rng.uniform(0.1, 2.5)
            k = rng.uniform(0.3, 3.0)
            spec = Rectangular(height=height, width=width)
            oracle = ode_transmission(pieces_for([spec]), k)
            assert T_of(spec, k) == pytest.approx(oracle, rel=1e-6)

    def test_delta_matches_regularized_integration(self):
        spec = Delta(strength=2.0)
        oracle = ode_transmission(pieces_for([spec]), 1.0)
        assert T_of(spec, 1.0) == pytest.approx(oracle, rel=1e-6)

    def test_slab_matches_integration(self):
        spec = PiecewiseConstant(segments=((2.0, 0.5), (-1.0, 0.4), (1.0, 0.6)),
                                 position=0.2)
        oracle = ode_transmission(pieces_for([spec]), 1.1)
        assert T_of(spec, 1.1) == pytest.approx(oracle, rel=1e-6)

    def test_interference_pattern_matches_integration(self):
        # The decisive convention check: composed multi-barrier transmission
        # agrees with direct integration of the full potential, so barrier
        # phases, the shift rule and the composition order are mutually
        # consistent (resolves the reflection-phase convention question).
        specs = [Rectangular(height=2.0, width=1.0, position=-1.5),
                 Delta(strength=1.2, position=0.4),
                 Rectangular(height=1.5, width=0.8, position=1.6)]
        pieces = pieces_for(specs)
        for k in (0.6, 0.9, 1.3, 2.1):
            exact = amplitudes(scenario_transfer(specs, WaveContext(k))).T
            assert exact == pytest.approx(ode_transmission(pieces, k), rel=1e-6)
