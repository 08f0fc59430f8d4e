"""Independent verification machinery for the rapidity-interval bounds.

Three kinds of evidence that [B_n, S_n] is both correct and sharp:

* random phase sweeps (vectorized, block-seeded, reproducible) that must
  never escape the interval;
* exhaustive grid searches over the reduced phase gauge for small n, whose
  extremes converge to the interval edges;
* an explicit constructor that realizes any interior target rapidity and
  is checked by recomposition through the exact algebra.

Phase gauge: factor i is R(u_i) B(theta_i) R(v_i), with R(x) =
diag(e^{ix}, e^{-ix}), B(theta) the real boost, u = (phi_alpha + phi_beta)/2
and v = (phi_alpha - phi_beta)/2.  The outer R(u_1) and R(v_n) only rotate
alpha_total, so the composed modulus depends on the n-1 relative angles
w_i = v_i + u_{i+1} alone.  The arithmetic uses exactly that: a sweep turns
each sample's 2n phases into n-1 rotors e^{2i w_i} (transfer.gauge_rotors)
and folds the boosts through them (transfer.boost_fold).  The fold drops
more of what cannot change the modulus: at step i, the left phase e^{i w_i}
(it only rotates alpha_total) and the factor cosh(theta_i) (it only scales
it), leaving one complex multiply per sample and barrier; the product of
the cosh(theta_i) is put back at the end.  Grids fix
phi_alpha = 0 and phi_beta of the first barrier, leaving n-1 free angles.
That this loses nothing is itself covered by a test comparing full-phase
random sampling against reduced-gauge grid extremes.

Sampling contract: samples are split into fixed blocks of 4096; block j of
a sweep seeded s draws from PCG64(SeedSequence(s, spawn_key=(j,))).  Rows
swept together on one seed (random_phase_sweeps, one row per wavenumber)
share each block's draw: it is drawn and turned into rotors once, and only
the boost fold runs per row, so every row gets exactly the result of
random_phase_sweep on that row alone.  The reduction over blocks is
order-independent, so any parallel schedule gives bit-identical results;
the implementation here is sequential.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .barriers import BarrierSpec, scenario_arrays
from .bounds import BoundsColumns, RapiditySequence, b_n_closed, b_n_iterative_rows, s_n
from .errors import (
    BoundViolationError,
    CompoundBarrierError,
    DimensionError,
    DomainError,
    EmptySequenceError,
    TargetOutOfRangeError,
)
from .transfer import (HyperbolicParams, boost_fold, compose, compose_polar, fold, from_polar,
                       gauge_rotors, rapidity, scattering_amplitudes, to_polar)

__all__ = [
    "PhaseAssignment",
    "SweepResult",
    "RowSweep",
    "EquivalenceReport",
    "ContainmentRow",
    "ContainmentReport",
    "GENERATOR_NAME",
    "CONTAINMENT_BAND",
    "random_phase_sweep",
    "random_phase_sweeps",
    "extremal_phase_search",
    "attain",
    "equivalence_audit",
    "recursion_audit",
    "scenario_containment_audit",
]

GENERATOR_NAME = "PCG64"
CONTAINMENT_BAND = 1e-10
_BLOCK = 4096
_ATTAIN_TOLERANCE = 1e-8  # |achieved - target| that attain accepts on recomposition
_EQUIVALENCE_TOLERANCE = 1e-12  # largest B_n gap equivalence_audit counts as a pass
_EPS = float(np.finfo(float).eps)
_C_EPS = 8.0 * _EPS  # c eps of the audit's rounding bound


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
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(block,))))


def _block_phases(seed: int, block: int, count: int, n: int) -> np.ndarray:
    """The (count, n, 2) phases (phi_alpha, phi_beta) that block ``block`` draws."""
    return _block_rng(seed, block).uniform(-math.pi, math.pi, size=(count, n, 2))


@dataclass(frozen=True, slots=True)
class RowSweep:
    """One row of random_phase_sweeps: observed extremes, located as (block,
    index) in the seed's draws, or the violation that stopped the row (then
    the extremes are NaN and the locations None)."""

    theta_min_observed: float
    theta_max_observed: float
    argmin_at: tuple[int, int] | None
    argmax_at: tuple[int, int] | None
    violation: BoundViolationError | None


def random_phase_sweeps(bounds: BoundsColumns, samples: int, seed: int) -> list[RowSweep]:
    """random_phase_sweep of every row of the caller's BoundsColumns.

    Each block is drawn and reduced to rotors once for all rows; row j is
    bit-identical to random_phase_sweep(RapiditySequence(bounds.thetas[j])).
    The edges are the columns' [B_n, S_n].  A row escaping them by more
    than CONTAINMENT_BAND keeps its BoundViolationError (first escaping
    block) and is not sampled further; other rows go on.
    """
    thetas, n = bounds.thetas, bounds.thetas.shape[1]
    if samples < 1:
        raise DomainError(f"need samples >= 1, got {samples!r}")
    edges = list(zip(bounds.b_n, bounds.s_n))
    rows = len(edges)
    low, high = [math.inf] * rows, [-math.inf] * rows
    low_at: list[tuple[int, int] | None] = [None] * rows
    high_at: list[tuple[int, int] | None] = [None] * rows
    violations: list[BoundViolationError | None] = [None] * rows

    for block, count in _blocks(samples):
        rho = gauge_rotors(_block_phases(seed, block, count, n))
        for j, (b, s) in enumerate(edges):
            if violations[j] is not None:
                continue
            observed = boost_fold(thetas[j], rho)
            lo_i, hi_i = int(np.argmin(observed)), int(np.argmax(observed))
            worst_low, worst_high = float(observed[lo_i]), float(observed[hi_i])
            if worst_low < b - CONTAINMENT_BAND or worst_high > s + CONTAINMENT_BAND:
                violations[j] = BoundViolationError(
                    f"sampled rapidity escaped [{b}, {s}] (band {CONTAINMENT_BAND}): "
                    f"observed [{worst_low}, {worst_high}] in block {block}"
                )
                low[j] = high[j] = math.nan
                low_at[j] = high_at[j] = None
                continue
            if worst_low < low[j]:
                low[j], low_at[j] = worst_low, (block, lo_i)
            if worst_high > high[j]:
                high[j], high_at[j] = worst_high, (block, hi_i)

    return [RowSweep(*fields) for fields in zip(low, high, low_at, high_at, violations)]


def random_phase_sweep(seq: RapiditySequence, samples: int, seed: int) -> SweepResult:
    """Uniform random phases; every composed rapidity must stay in [B_n, S_n].

    Deterministic for a fixed seed regardless of how blocks would be
    scheduled.  A sample escaping the interval by more than CONTAINMENT_BAND
    raises BoundViolationError: the bounds are theorems, so that is a bug,
    not a statistic.  The one-row call of random_phase_sweeps; the extreme
    assignments are redrawn from their blocks.
    """
    (row,) = random_phase_sweeps(BoundsColumns([seq.thetas]), samples, seed)
    if row.violation is not None:
        raise row.violation

    def drawn(at: tuple[int, int]) -> PhaseAssignment:
        block, index = at
        count = min(_BLOCK, samples - block * _BLOCK)
        return PhaseAssignment(_block_phases(seed, block, count, len(seq))[index])

    return SweepResult(
        theta_min_observed=row.theta_min_observed,
        theta_max_observed=row.theta_max_observed,
        argmin=drawn(row.argmin_at),
        argmax=drawn(row.argmax_at),
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


def attain(seq: RapiditySequence, target: float) -> PhaseAssignment:
    """Construct phases whose composition has rapidity ``target``.

    Walks the barriers left to right; before absorbing barrier m it picks
    the next partial rapidity x inside the intersection of what one
    composition step can reach, |cur - theta_m| <= x <= cur + theta_m, and
    what keeps the target reachable with the barriers still to come.  The
    relative phase follows from |alpha_new|^2 = A^2 + B^2 + 2AB cos(psi)
    with A = cosh(cur) cosh(theta_m), B = sinh(cur) sinh(theta_m).  The
    result is verified by recomposition, to within 1e-8, before being
    returned.
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
            # at a reachable corner acos would turn one ulp of cos_psi into
            # ~1e-8 of phase; the corners are exactly aligned / anti-aligned.
            # x within the rounding of cur (i factors composed) is at the corner.
            slop = _theta_error(cur, _C_EPS * i * math.cosh(cur)) + _C_EPS * (cur + t_i)
            if x >= cur + t_i - slop:
                psi = 0.0
            elif x <= abs(cur - t_i) + slop:
                psi = math.pi
            else:
                cos_psi = (math.cosh(x) ** 2 - big_a * big_a - big_b * big_b) / (2.0 * big_a * big_b)
                psi = math.acos(min(1.0, max(-1.0, cos_psi)))
            phi = cmath.phase(current.beta) - cmath.phase(current.alpha) - psi
        phis.append((0.0, phi))
        current = compose(current, from_polar(HyperbolicParams(t_i, 0.0, phi)))

    achieved = to_polar(current).theta
    if abs(achieved - target) > _ATTAIN_TOLERANCE:
        raise CompoundBarrierError(
            f"attain construction reached {achieved!r}, target {target!r} "
            f"(tolerance {_ATTAIN_TOLERANCE})"
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


def equivalence_audit(n_max: int, trials: int, seed: int) -> EquivalenceReport:
    """Random sequences: the Heaviside recursion (b_n_iterative_rows, all of
    one n's trials at once) == b_n_closed, and shuffle invariance, each to
    within 1e-12."""
    if n_max < 2:
        raise DomainError(f"need n_max >= 2, got {n_max!r}")
    if trials < 1:
        raise DomainError(f"need trials >= 1, got {trials!r}")
    rng = _block_rng(seed, 0)
    passes = failures = 0
    worst = 0.0
    ns = tuple(range(2, n_max + 1))
    for n in ns:
        draws = []  # (sequence, its shuffle), drawn trial by trial
        for _ in range(trials):
            seq = RapiditySequence(tuple(rng.uniform(0.0, 4.0, size=n)))
            draws.append((seq, RapiditySequence(tuple(rng.permutation(seq.thetas)))))
        iterative = b_n_iterative_rows([seq.thetas for seq, _ in draws]).tolist()
        for (seq, shuffled), recursion in zip(draws, iterative):
            closed = b_n_closed(seq)
            gap = max(abs(recursion - closed), abs(b_n_closed(shuffled) - closed))
            worst = max(worst, gap)
            if gap <= _EQUIVALENCE_TOLERANCE:
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


def recursion_audit(bounds: BoundsColumns) -> tuple[float, list[int]]:
    """Each row's B_n against the Heaviside recursion (b_n_iterative_rows) on
    the row and on the reversed row.

    Returns the largest gap and the rows where it exceeds 2 n eps max(1, S_n).
    The recursion sums plainly: its running sum is off by at most (n - 1) u S_n
    (u = eps/2) and its n - 1 subtractions add at most (n - 1) u S_n, since
    B_{m+1} = max(t - S_m, B_m - t, 0) moves no more than its arguments; B_n
    (fsum, one subtraction) is off by at most 2 u S_n.  So the gap is at most
    n eps S_n, doubled for the tolerance.  An absolute tolerance fails long
    chains: 2123 barriers at S_n ~ 316 show gaps above 2e-12.
    """
    thetas, b = bounds.thetas, np.array(bounds.b_n)
    gaps = np.maximum(np.abs(b_n_iterative_rows(thetas) - b),
                      np.abs(b_n_iterative_rows(thetas[:, ::-1]) - b))
    tolerances = 2.0 * thetas.shape[1] * _EPS * np.maximum(1.0, bounds.s_n)
    return float(gaps.max(initial=0.0)), np.flatnonzero(gaps > tolerances).tolist()


@dataclass(frozen=True, slots=True)
class ContainmentRow:
    """One wavenumber of a scenario audit: the exact values and whether they
    lie within the row's envelopes (ContainmentReport.bounds)."""

    k: float
    t_exact: float
    r_exact: float
    n_exact: float
    contained: bool


@dataclass(frozen=True, slots=True)
class ContainmentReport:
    """Scenario-wide audit, worst margins over the sweep; tolerance = widest band;
    ``bounds`` holds the rows' [B_n, S_n] and envelopes as columns."""

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
    bounds: BoundsColumns = field(compare=False)


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

    One scenario_arrays build gives each row's rapidities, whose
    BoundsColumns give the edges and envelopes, and, folded, the exact
    compound pair.  A row is contained when
    theta_exact = acosh|alpha_total| lies in [B_n - band, S_n + band], the
    band from _containment_band (the widest is reported as ``tolerance``).
    The T/R/N margins, (exact - lower edge) and (upper edge - exact)
    minimized over the sweep, are reported as is.
    """
    if len(k_sweep) == 0:
        raise EmptySequenceError("audit needs at least one wavenumber")
    alpha, beta = scenario_arrays(specs, k_sweep)
    bounds = BoundsColumns(rapidity(alpha))
    total_alpha, total_beta = fold(alpha, beta)
    del alpha, beta  # the (n_k, n) build is not needed past this point
    t, r = scattering_amplitudes(total_alpha, total_beta)
    exact = np.stack([np.abs(t) ** 2, np.abs(r) ** 2, np.abs(total_beta) ** 2], axis=1)
    edges = np.array(bounds.envelopes).T
    # (T, R, N) x (low, high) worst margins, in ContainmentReport's field order
    margins = np.stack([exact - edges[:, 0::2], edges[:, 1::2] - exact], axis=-1).min(axis=0)
    theta_exact = rapidity(total_alpha)
    low, high = np.array(bounds.b_n), np.array(bounds.s_n)
    band = _containment_band(bounds.thetas, theta_exact, high)
    contained = (low - band <= theta_exact) & (theta_exact <= high + band)
    rows = tuple(ContainmentRow(k, *values, ok)
                 for k, values, ok in zip(k_sweep, exact.tolist(), contained.tolist()))
    return ContainmentReport(rows, bool(contained.all()), *margins.ravel().tolist(),
                             k_at_max_t=k_sweep[int(np.argmax(exact[:, 0]))],
                             k_at_min_t=k_sweep[int(np.argmin(exact[:, 0]))],
                             tolerance=float(band.max()), bounds=bounds)
