"""Independent verification machinery for the rapidity-interval bounds.

Three kinds of evidence that [B_n, S_n] is both correct and sharp:

* random phase sweeps (vectorized, block-seeded, reproducible) that must
  never escape the interval;
* exhaustive grid searches over the reduced phase gauge for small n, whose
  extremes converge to the interval edges;
* an explicit constructor that realizes any interior target rapidity and
  is checked by recomposition through the exact algebra.

Phase gauge: only relative beta phases move the composed modulus (a common
shift of every phi_beta is a rigid translation of the whole arrangement,
and the phi_alpha can be absorbed barrier by barrier), so sweeps fix
phi_alpha = 0 and, for grids, phi_beta of the first barrier as well.  That
this loses nothing is itself covered by a test comparing full-phase random
sampling against reduced-gauge grid extremes.

Sampling contract: samples are split into fixed blocks of 4096; block j of
a sweep seeded s draws from PCG64(SeedSequence(s, spawn_key=(j,))).  The
reduction over blocks is order-independent, so any parallel schedule gives
bit-identical results; the implementation here is sequential.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .barriers import BarrierSpec, scenario_arrays
from .bounds import (
    BoundsReport,
    RapiditySequence,
    b_n_closed,
    b_n_iterative,
    bounds_report,
    s_n,
)
from .errors import (
    BoundViolationError,
    CompoundBarrierError,
    DimensionError,
    DomainError,
    EmptySequenceError,
    TargetOutOfRangeError,
)
from .transfer import (HyperbolicParams, compose, compose_polar, fold, from_polar, rapidity,
                       scattering_amplitudes, to_polar)

__all__ = [
    "PhaseAssignment",
    "SweepResult",
    "EquivalenceReport",
    "ContainmentRow",
    "ContainmentReport",
    "GENERATOR_NAME",
    "CONTAINMENT_BAND",
    "random_phase_sweep",
    "extremal_phase_search",
    "attain",
    "equivalence_audit",
    "scenario_containment_audit",
]

GENERATOR_NAME = "PCG64"
CONTAINMENT_BAND = 1e-10
_BLOCK = 4096
_C_EPS = 8.0 * float(np.finfo(float).eps)  # c eps of the audit's rounding bound


@dataclass(frozen=True, slots=True)
class PhaseAssignment:
    """(phi_alpha, phi_beta) per barrier; pairs with a RapiditySequence."""

    phis: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "phis", tuple((float(a), float(b)) for a, b in self.phis)
        )

    def __len__(self) -> int:
        return len(self.phis)

    def matrices(self, seq: RapiditySequence):
        """Dress the rapidities with these phases (exact object algebra)."""
        if len(self) != len(seq):
            raise DomainError(
                f"{len(self)} phase pairs for {len(seq)} rapidities"
            )
        return [
            from_polar(HyperbolicParams(t, pa, pb))
            for t, (pa, pb) in zip(seq.thetas, self.phis)
        ]


@dataclass(frozen=True, slots=True)
class SweepResult:
    """Observed rapidity extremes of a phase sweep."""

    theta_min_observed: float
    theta_max_observed: float
    argmin: PhaseAssignment
    argmax: PhaseAssignment
    sample_count: int
    seed: int | None

    def __post_init__(self):
        if self.theta_min_observed > self.theta_max_observed:
            raise DomainError("sweep extremes out of order")


def _blocks(samples: int) -> Iterator[tuple[int, int]]:
    full, rem = divmod(samples, _BLOCK)
    for j in range(full):
        yield j, _BLOCK
    if rem:
        yield full, rem


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(block,))))


def random_phase_sweep(seq: RapiditySequence, samples: int, seed: int,
                       band: float = CONTAINMENT_BAND) -> SweepResult:
    """Uniform random phases; every composed rapidity must stay in [B_n, S_n].

    Deterministic for a fixed seed regardless of how blocks would be
    scheduled.  A sample escaping the interval by more than ``band`` raises
    BoundViolationError: the bounds are theorems, so that is a bug, not a
    statistic.
    """
    if len(seq) == 0:
        raise EmptySequenceError("sweep needs at least one rapidity")
    if samples < 1:
        raise DomainError(f"need samples >= 1, got {samples!r}")
    b, s = b_n_closed(seq), s_n(seq)
    n = len(seq)

    theta_min, theta_max = math.inf, -math.inf
    arg_min = arg_max = None
    for block, count in _blocks(samples):
        rng = _block_rng(seed, block)
        phases = rng.uniform(-math.pi, math.pi, size=(count, n, 2))
        thetas = compose_polar(seq.thetas, phases[:, :, 0], phases[:, :, 1])
        lo_i, hi_i = int(np.argmin(thetas)), int(np.argmax(thetas))
        worst_low, worst_high = float(thetas[lo_i]), float(thetas[hi_i])
        if worst_low < b - band or worst_high > s + band:
            raise BoundViolationError(
                f"sampled rapidity escaped [{b}, {s}] (band {band}): "
                f"observed [{worst_low}, {worst_high}] in block {block}"
            )
        if worst_low < theta_min:
            theta_min = worst_low
            arg_min = phases[lo_i]
        if worst_high > theta_max:
            theta_max = worst_high
            arg_max = phases[hi_i]

    return SweepResult(
        theta_min_observed=theta_min,
        theta_max_observed=theta_max,
        argmin=PhaseAssignment(arg_min),
        argmax=PhaseAssignment(arg_max),
        sample_count=samples,
        seed=seed,
    )


def _grid_extreme(thetas: Sequence[float], grid: int, minimize: bool,
                  refine_rounds: int) -> tuple[float, np.ndarray]:
    """Grid search (plus optional local zoom) over the n-1 free beta phases."""
    n = len(thetas)
    free = n - 1
    centers = np.zeros(free)
    half_width = math.pi  # full circle on the first pass
    points = grid
    best_theta = None
    best_phis = centers

    for round_idx in range(refine_rounds + 1):
        axes = []
        for d in range(free):
            if round_idx == 0:
                axes.append(np.linspace(-math.pi, math.pi, points, endpoint=False))
            else:
                axes.append(np.linspace(centers[d] - half_width,
                                        centers[d] + half_width, points))
        mesh = np.meshgrid(*axes, indexing="ij")
        flat = np.stack([m.ravel() for m in mesh], axis=1)
        phi_beta = np.concatenate([np.zeros((flat.shape[0], 1)), flat], axis=1)
        phi_alpha = np.zeros_like(phi_beta)
        vals = compose_polar(thetas, phi_alpha, phi_beta)
        idx = int(np.argmin(vals) if minimize else np.argmax(vals))
        cand = float(vals[idx])
        if best_theta is None or (cand < best_theta if minimize else cand > best_theta):
            best_theta = cand
            best_phis = flat[idx]
        if round_idx == 0:
            half_width = math.pi / points
            points = 33
        else:
            half_width = 2.0 * half_width / (points - 1)
        centers = best_phis
    return best_theta, best_phis


def extremal_phase_search(seq: RapiditySequence, grid_points_per_phase: int,
                          refine_rounds: int = 3) -> SweepResult:
    """Deterministic search for the rapidity extremes over the reduced gauge.

    phi_alpha = 0 everywhere and phi_beta of the first barrier pinned to 0;
    the remaining n-1 phases are scanned on an even grid over (-pi, pi],
    then locally refined ``refine_rounds`` times around each extreme.  With
    refine_rounds = 0 this is the raw grid, whose extremes bracket
    [B_n, S_n] to first order in the phase step (error < pi * S_n / grid).
    Limited to n <= 4: the grid has (points)^(n-1) nodes.
    """
    n = len(seq)
    if n == 0:
        raise EmptySequenceError("search needs at least one rapidity")
    if n > 4:
        raise DimensionError(f"grid search supports n <= 4 phases, got n = {n}")
    if grid_points_per_phase < 2:
        raise DomainError("need at least 2 grid points per phase")

    if n == 1:
        theta = seq.thetas[0]
        trivial = PhaseAssignment(((0.0, 0.0),))
        return SweepResult(theta, theta, trivial, trivial, 1, None)

    lo, lo_phis = _grid_extreme(seq.thetas, grid_points_per_phase, True, refine_rounds)
    hi, hi_phis = _grid_extreme(seq.thetas, grid_points_per_phase, False, refine_rounds)
    count = grid_points_per_phase ** (n - 1) + (refine_rounds * 33 ** (n - 1)) * 2

    def as_assignment(free_phis: np.ndarray) -> PhaseAssignment:
        return PhaseAssignment(
            ((0.0, 0.0),) + tuple((0.0, float(p)) for p in free_phis)
        )

    return SweepResult(
        theta_min_observed=lo,
        theta_max_observed=hi,
        argmin=as_assignment(lo_phis),
        argmax=as_assignment(hi_phis),
        sample_count=count,
        seed=None,
    )


def attain(seq: RapiditySequence, target: float,
           tolerance: float = 1e-8) -> PhaseAssignment:
    """Construct phases whose composition has rapidity ``target``.

    Walks the barriers left to right; before absorbing barrier m it picks
    the next partial rapidity x inside the intersection of what one
    composition step can reach, |cur - theta_m| <= x <= cur + theta_m, and
    what keeps the target reachable with the barriers still to come.  The
    relative phase follows from |alpha_new|^2 = A^2 + B^2 + 2AB cos(psi)
    with A = cosh(cur) cosh(theta_m), B = sinh(cur) sinh(theta_m).  The
    result is verified by recomposition before being returned.
    """
    if len(seq) == 0:
        raise EmptySequenceError("attain needs at least one rapidity")
    if not math.isfinite(target):
        raise TargetOutOfRangeError(f"target must be finite, got {target!r}")
    b, s = b_n_closed(seq), s_n(seq)
    slack = 1e-9
    if target < b - slack or target > s + slack:
        raise TargetOutOfRangeError(
            f"target {target!r} outside attainable interval [{b!r}, {s!r}]"
        )
    target = min(max(target, b), s)

    thetas = seq.thetas
    n = len(thetas)
    rest_sum = [math.fsum(thetas[i:]) for i in range(n + 1)]
    phis: list[tuple[float, float]] = [(0.0, 0.0)]
    current = from_polar(HyperbolicParams(thetas[0], 0.0, 0.0))

    for i in range(1, n):
        cur = to_polar(current).theta
        t_i = thetas[i]
        after = thetas[i + 1:]
        sum_after = rest_sum[i + 1]
        max_after = max(after) if after else 0.0
        if not after:
            x = target
        else:
            lo = max(abs(cur - t_i), target - sum_after,
                     2.0 * max_after - sum_after - target)
            hi = min(cur + t_i, target + sum_after)
            if lo > hi:  # float slop at an interval corner
                lo = hi = 0.5 * (lo + hi)
            x = min(max(target, lo), hi)

        big_a = math.cosh(cur) * math.cosh(t_i)
        big_b = math.sinh(cur) * math.sinh(t_i)
        if big_b == 0.0:
            phi = 0.0
        else:
            cos_psi = (math.cosh(x) ** 2 - big_a * big_a - big_b * big_b) / (2.0 * big_a * big_b)
            psi = math.acos(min(1.0, max(-1.0, cos_psi)))
            phi = cmath.phase(current.beta) - cmath.phase(current.alpha) - psi
        phis.append((0.0, phi))
        current = compose(current, from_polar(HyperbolicParams(t_i, 0.0, phi)))

    achieved = to_polar(current).theta
    if abs(achieved - target) > tolerance:
        raise CompoundBarrierError(
            f"attain construction reached {achieved!r}, target {target!r} "
            f"(tolerance {tolerance})"
        )
    return PhaseAssignment(tuple(phis))


@dataclass(frozen=True, slots=True)
class EquivalenceReport:
    """Tally of iterative-vs-closed-form and shuffle-invariance checks."""

    n_values: tuple[int, ...]
    trials_per_n: int
    passes: int
    failures: int
    max_discrepancy: float
    seed: int

    @property
    def all_pass(self) -> bool:
        return self.failures == 0


def equivalence_audit(n_max: int, trials: int, seed: int,
                      tolerance: float = 1e-12) -> EquivalenceReport:
    """Random sequences: b_n_iterative == b_n_closed and shuffle invariance."""
    if n_max < 2:
        raise DomainError(f"need n_max >= 2, got {n_max!r}")
    if trials < 1:
        raise DomainError(f"need trials >= 1, got {trials!r}")
    rng = _block_rng(seed, 0)
    passes = failures = 0
    worst = 0.0
    ns = tuple(range(2, n_max + 1))
    for n in ns:
        for _ in range(trials):
            seq = RapiditySequence(tuple(rng.uniform(0.0, 4.0, size=n)))
            closed = b_n_closed(seq)
            gap = abs(b_n_iterative(seq) - closed)
            shuffled = RapiditySequence(tuple(rng.permutation(seq.thetas)))
            gap = max(gap, abs(b_n_closed(shuffled) - closed))
            worst = max(worst, gap)
            if gap <= tolerance:
                passes += 1
            else:
                failures += 1
    return EquivalenceReport(
        n_values=ns,
        trials_per_n=trials,
        passes=passes,
        failures=failures,
        max_discrepancy=worst,
        seed=seed,
    )


@dataclass(frozen=True, slots=True)
class ContainmentRow:
    """One wavenumber of a scenario audit: exact values vs envelopes (from ``seq``)."""

    k: float
    t_exact: float
    r_exact: float
    n_exact: float
    report: BoundsReport
    contained: bool
    thetas: np.ndarray = field(compare=False)  # row of the per-barrier rapidities

    @property
    def seq(self) -> RapiditySequence:
        return RapiditySequence(tuple(self.thetas.tolist()))


@dataclass(frozen=True, slots=True)
class ContainmentReport:
    """Scenario-wide audit, worst margins over the sweep; tolerance = widest band."""

    rows: tuple[ContainmentRow, ...]
    all_contained: bool
    t_low_margin: float
    t_high_margin: float
    r_low_margin: float
    r_high_margin: float
    n_low_margin: float
    n_high_margin: float
    k_at_max_t: float
    k_at_min_t: float
    tolerance: float


def _theta_error(theta, delta):
    """Error of theta = acosh|alpha| from an error delta on |alpha|:
    delta / sinh(theta), capped near 0 by acosh(1 + delta) <= sqrt(2 delta)."""
    return delta / np.maximum(np.sinh(theta), np.sqrt(0.5 * delta))


def _containment_band(thetas, theta_exact, s):
    """Rounding band: how far theta_exact can fall outside [B_n, S_n] by rounding.

    thetas (n_k, n) per barrier; theta_exact, s = S_n (n_k,); eps = machine
    epsilon.  Each factor's entries are off by a few eps relatively.  Step m
    of the fold adds a few eps of |alpha_acc||alpha_m| + |beta_acc||beta_m|
    = cosh(x + theta_m), x composed so far, and each later factor j scales
    that by at most e^{theta_j}: a few eps of e^{S_n} <= 2 cosh(S_n) per
    factor.  So |alpha_total| is off by at most delta = c n eps cosh(S_n)
    (c = 8, generous), i.e. _theta_error(theta_exact, delta) in rapidity.
    The edges carry the per-barrier errors _theta_error(theta_i, c eps
    cosh(theta_i)), at most three times their sum (B_n = 2 theta_peak -
    S_n); 4 eps S_n covers the last acosh, fsum and subtraction.  Relative
    to cosh(S_n), the band holds across the trusted range; an absolute N
    tolerance does not."""
    delta = _C_EPS * thetas.shape[-1] * np.cosh(s)
    edges = _theta_error(thetas, _C_EPS * np.cosh(thetas)).sum(axis=-1)
    return _theta_error(theta_exact, delta) + 3.0 * edges + _C_EPS / 2.0 * np.maximum(1.0, s)


def scenario_containment_audit(specs: Sequence[BarrierSpec],
                               k_sweep: Sequence[float]) -> ContainmentReport:
    """Exact compound T/R/N versus the six envelopes at every wavenumber.

    One scenario_arrays build gives each row's rapidities and envelopes
    and, folded, the exact compound pair.  A row is contained when
    theta_exact = acosh|alpha_total| lies in [B_n - band, S_n + band], the
    band from _containment_band (the widest is reported as ``tolerance``).
    The T/R/N margins, (exact - lower edge) and (upper edge - exact)
    minimized over the sweep, are reported as is.
    """
    if len(k_sweep) == 0:
        raise EmptySequenceError("audit needs at least one wavenumber")
    alpha, beta = scenario_arrays(specs, k_sweep)
    thetas = rapidity(alpha)
    reports = [bounds_report(RapiditySequence(tuple(row.tolist()))) for row in thetas]
    total_alpha, total_beta = fold(alpha, beta)
    del alpha, beta  # the (n_k, n) build is not needed past this point
    t, r = scattering_amplitudes(total_alpha, total_beta)
    exact = np.stack([np.abs(t) ** 2, np.abs(r) ** 2, np.abs(total_beta) ** 2], axis=1)
    edges = np.array([(*rep.t_interval, *rep.r_interval, *rep.n_interval) for rep in reports])
    # (T, R, N) x (low, high) worst margins, in ContainmentReport's field order
    margins = np.stack([exact - edges[:, 0::2], edges[:, 1::2] - exact], axis=-1).min(axis=0)
    theta_exact = rapidity(total_alpha)
    low, high = np.array([(rep.b_n, rep.s_n) for rep in reports]).T
    band = _containment_band(thetas, theta_exact, high)
    contained = (low - band <= theta_exact) & (theta_exact <= high + band)
    rows = tuple(ContainmentRow(k, *values, rep, ok, row) for k, values, rep, ok, row
                 in zip(k_sweep, exact.tolist(), reports, contained.tolist(), thetas))
    return ContainmentReport(rows, bool(contained.all()), *margins.ravel().tolist(),
                             k_at_max_t=k_sweep[int(np.argmax(exact[:, 0]))],
                             k_at_min_t=k_sweep[int(np.argmin(exact[:, 0]))],
                             tolerance=float(band.max()))
