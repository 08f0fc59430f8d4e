"""Independent verification machinery for the rapidity-interval bounds.

Evidence that [B_n, S_n] is both correct and sharp:

* random phase sweeps (vectorized, block-seeded, reproducible) that must
  never escape the interval;
* an explicit constructor (attain) that reaches any target rapidity in
  [B_n, S_n], the edges included: it walks in angle form, composes on the
  group law (transfer.product) and checks the recomposed pair;
* audits of B_n against the Heaviside recursion (recursion_audit, on the
  caller's rows; equivalence_audit is recursion_audit on random rows), and
  of exact scenario compositions against the envelopes
  (scenario_containment_audit, whose report holds each per-wavenumber
  result as a column, the form the CLI writes, and builds rows only on
  request).

Phase gauge: factor i is R(u_i) B(theta_i) R(v_i), with R(x) =
diag(e^{ix}, e^{-ix}), B(theta) the real boost, u = (phi_alpha + phi_beta)/2
and v = (phi_alpha - phi_beta)/2.  The outer R(u_1) and R(v_n) only rotate
alpha_total, so the composed modulus depends on the n-1 relative angles
w_i = v_i + u_{i+1} alone.  The arithmetic uses exactly that: a sweep folds
the boosts through n-1 rotors e^{2i w_i} (transfer.boost_fold).  The fold
drops more of what cannot change the modulus: at step i, the left phase
e^{i w_i} (it only rotates alpha_total) and the factor cosh(theta_i) (it
only scales it), leaving one complex multiply per sample and barrier; the
product of the cosh(theta_i) is put back at the end, and the rapidity is
read from beta_total as asinh|beta_total|, exact at 0.  That this loses
nothing is covered by tests against full-phase composition and against the
extremes of an exhaustive reduced-gauge grid (tests/oracles.py).

Sampling contract (version 2): samples are split into fixed blocks of
4096; block j of a sweep seeded s draws from PCG64(SeedSequence(s,
spawn_key=(j,))) the quarter angles h ~ U[-pi/4, pi/4), an (n-1, count)
array (Generator.uniform, gap by gap), and sample c has the rotors
rho_i = e^{4i h_i}, the square of e^{2i h_i} = (1 + i t)^2 / (1 + t^2),
t = tan h_i, built in the memory of h and of rho alone, so the angles are
consumed (_block_angles, _quarter_rotors).  That is the law of uniform
phases: (phi_alpha, phi_beta) -> (phi_alpha - phi_beta, phi_alpha +
phi_beta) preserves the Haar measure of the torus, so with all 2n phases
independent and uniform the n-1 angles 2w_i = (phi_alpha_i - phi_beta_i)
+ (phi_alpha_{i+1} + phi_beta_{i+1}) mod 2 pi are independent and uniform
too, and so is 4h_i.  The law of |alpha_total|, and with it the
phase-averaged Landauer resistance (Anderson, Thouless, Abrahams & Fisher,
PRB 22, 3519 (1980)), is the same either way; a test checks the mean of a
bounded statistic of it against its exact value.  Drawing the angles takes
one uniform per rotor instead of 2n/(n-1), and one vectorized tan of
|h| <= pi/4 gives the whole rotor.  numpy picks its tan loop by CPU, so
the last bits of a rotor, and of the observed extremes, may differ between
machines and numpy builds, never between runs on one.  An extreme is
reported in the reduced gauge: phi_alpha = 0, phi_beta_1 = 0 and
phi_beta_{i+1} = phi_beta_i + 4 h_i.  (Version 1 drew the 2n phases
(phi_alpha, phi_beta) ~ U[-pi, pi) per sample and reduced them to the
rotors e^{2i w_i}; the CLI's rng metadata line names the version.)
Rows swept together on one seed (random_phase_sweeps, one row per
wavenumber) share each block's draw: only the boost fold runs per row, so
every row gets exactly the extremes of random_phase_sweep on that row
alone.

Schedule: random_phase_sweeps runs units of (block, row slice) on a thread
per CPU the process may use, up to two (its affinity mask, so taskset
narrows it; no option sets it), the calling thread among them.  A unit
draws its whole block's angles in one call (_block_angles), turns them
into rotors and folds its rows over them: no block is drawn in parts, and
none is drawn once and shared (a one-block sweep's row slices each draw
it).  numpy releases the GIL inside each call, and the calls are made long
(tiles of rows) so that threads rarely wait for it.  boost_fold runs its
broadcast passes with numpy's ufunc buffer cut to a row, so that rows
shorter than the 8192-element default (chain-verify's 2000 samples) are
not copied through it; calls that cheap need tiles of 24576 elements
(_TILE) to keep the waits rare.  A row's bits do not depend on the tile it
is folded in (boost_fold).  Each unit writes its rows' minima and maxima
into one (blocks, rows) pair of arrays, which the calling thread reduces in
array passes; a row's violation is the first block that escapes, however
the units ran.  The output is bit-identical under any number of threads.
random_phase_sweep, the one-row call, then draws and folds its row again to
locate each extreme at the first sample that attains it.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .barriers import BarrierSpec, origin_arrays, place
from .bounds import BoundsColumns, RapiditySequence, b_n_closed, b_n_iterative_rows, s_n
from .errors import (
    BoundViolationError,
    CompoundBarrierError,
    DomainError,
    EmptySequenceError,
    TargetOutOfRangeError,
)
from .transfer import ScatteringAmplitudes, boost_fold, check_pairs, fold, product

__all__ = [
    "PhaseAssignment",
    "SweepResult",
    "RowSweep",
    "EquivalenceReport",
    "ContainmentRow",
    "ContainmentReport",
    "GENERATOR_NAME",
    "SAMPLING_CONTRACT",
    "CONTAINMENT_BAND",
    "random_phase_sweep",
    "random_phase_sweeps",
    "attain",
    "equivalence_audit",
    "recursion_audit",
    "scenario_containment_audit",
]

GENERATOR_NAME = "PCG64"
SAMPLING_CONTRACT = "v2 (quarter angles h ~ U[-pi/4, pi/4) per gap, rotors e^{4ih})"
CONTAINMENT_BAND = 1e-10
_BLOCK = 4096
# Complex elements per fold call of a threaded sweep (a tile of rows x
# samples).  Measured in process on a 2-vCPU VM, interleaving 12288, 24576
# and 36864, with boost_fold's broadcast passes out of numpy's buffer: 24576
# was fastest on chain-verify's sweep (2 CPUs 149 / 118 / 119 ms, 1 CPU
# 196 / 182 / 200 ms) and tied with 36864 on phase-sweep's 16-barrier chain
# (88 / 68 / 67 ms, 123 / 119 / 118 ms).  Shorter tiles make the threads wait
# for the GIL between calls; longer ones gain nothing and cost scratch memory.
_TILE = 24576
_MAX_WORKERS = 2  # the most threads whose speed and memory were measured
_ATTAIN_TOLERANCE = 1e-8  # |achieved - target| that attain accepts on recomposition
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


def _block_angles(seed: int, block: int, count: int, n: int) -> np.ndarray:
    """The (n-1, count) quarter angles h ~ U[-pi/4, pi/4) that block ``block``
    draws for n barriers: row i is gap i, column c sample c."""
    return _block_rng(seed, block).uniform(-math.pi / 4, math.pi / 4, size=(n - 1, count))


def _quarter_rotors(h: np.ndarray) -> np.ndarray:
    """Rotors e^{4ih} of quarter angles h, as the C-contiguous complex array of
    h's shape that boost_fold reads.  With t = tan h (|t| <= 1),
    e^{2ih} = (1 + it)^2 / (1 + t^2), squared once more (|rho| is 1 within a
    few eps).  h is consumed: it holds t, then 1 + t^2, so that nothing but
    rho is allocated."""
    rho = np.empty(h.shape, complex)
    np.tan(h, out=h)
    rho.real.fill(1.0)
    rho.imag[...] = h
    rho *= rho
    h *= h
    h += 1.0
    rho.real /= h
    rho.imag /= h
    rho *= rho
    return rho


@dataclass(frozen=True, slots=True, eq=False)
class RowSweep:
    """random_phase_sweeps' columns, an array entry per row: the observed
    extremes (NaN where the row escaped) and sweep_ok; ``violations`` holds
    the escaping rows' BoundViolationErrors, in row order."""

    theta_min_observed: np.ndarray
    theta_max_observed: np.ndarray
    sweep_ok: np.ndarray
    violations: tuple[BoundViolationError, ...]


def _worker_count() -> int:
    """Threads a sweep may run on: the CPUs this process may use (its
    affinity mask, which taskset sets, where the OS has one; a cgroup CPU
    quota is not read), at most _MAX_WORKERS."""
    import os

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, _MAX_WORKERS))


def _spans(total: int, parts: int) -> list[tuple[int, int]]:
    """[0, total) cut into ``parts`` consecutive (start, stop) spans, as even as can be."""
    return [(total * i // parts, total * (i + 1) // parts) for i in range(parts)]


def _fold_extremes(thetas: np.ndarray, rho: np.ndarray, work: np.ndarray,
                   tile_size: int, low: np.ndarray, high: np.ndarray) -> None:
    """Per row of thetas (rows, n), the minimum and the maximum of boost_fold
    over a block's rotors rho, written into the caller's rows low and high.
    Rows are folded in tiles of at most tile_size complex elements (one row
    at least), which with _TILE keeps each fold call long enough to leave
    the GIL to the other threads; ``work``, if given, holds a tile's a, b
    and q."""
    rows = len(thetas)
    step = max(1, tile_size // rho.shape[1])
    for r0, r1 in _spans(rows, -(-rows // step)):
        observed = boost_fold(thetas[r0:r1], rho, work)
        observed.min(axis=1, out=low[r0:r1])
        observed.max(axis=1, out=high[r0:r1])


def _run_units(units: list, workers: int, make_worker) -> None:
    """Run every unit once on ``workers`` threads, the calling thread among
    them; a unit's result is what it writes.  ``make_worker()`` gives each
    thread its function of a unit (and so its own scratch).  A failure stops
    the other threads after their current unit and is raised here.  No name
    the benchmark's tracer wraps runs on these threads.  The calling thread
    works too: a concurrent.futures pool, whose caller only waits, was
    measured slower on both sweep workloads."""
    import threading

    failures: list[BaseException] = []
    pending = iter(units)
    lock = threading.Lock()

    def work() -> None:
        try:
            run = make_worker()
            while not failures:
                with lock:
                    unit = next(pending, None)
                if unit is None:
                    return
                run(unit)
        except BaseException as exc:
            failures.append(exc)

    # daemon: an interrupt while joining must not keep the process alive
    helpers = [threading.Thread(target=work, daemon=True) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if failures:
        raise failures[0]


def random_phase_sweeps(bounds: BoundsColumns, samples: int, seed: int) -> RowSweep:
    """random_phase_sweep of every row of the caller's BoundsColumns, as columns.

    Row j's extremes are bit-identical to random_phase_sweep(
    RapiditySequence(bounds.thetas[j]))'s.  The edges are the columns'
    [B_n, S_n].  A row escaping them by more than CONTAINMENT_BAND gets its
    BoundViolationError (first escaping block, whose extremes it names) and
    NaN extremes; other rows go on.

    Units of (block, row slice) run on _worker_count() threads.  Rows are
    sliced only when the sweep is one block.  Each unit draws its whole
    block through _block_angles, so a one-block sweep draws its block once
    per slice.  Each thread folds tiles of at most _TILE elements in a
    scratch of its own and writes its rows' extremes into its block's row of
    (blocks, rows) arrays, reduced here in passes over the block axis; the
    first escaping block is the first True of the escape mask.
    """
    thetas, n = bounds.thetas, bounds.thetas.shape[1]
    if samples < 1:
        raise DomainError(f"need samples >= 1, got {samples!r}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    rows = len(thetas)
    blocks = list(_blocks(samples))
    low, high = np.empty((2, len(blocks), rows))

    workers = _worker_count()
    slices = _spans(rows, min(rows, workers if len(blocks) == 1 else 1))
    units = [(block, count, first, stop) for block, count in blocks for first, stop in slices]
    width = min(samples, _BLOCK)

    def make_worker():
        work = np.empty(3 * min(rows * width, max(_TILE, width)), complex)

        def run(unit):
            block, count, first, stop = unit
            rho = _quarter_rotors(_block_angles(seed, block, count, n))
            _fold_extremes(thetas[first:stop], rho, work, _TILE,
                           low[block, first:stop], high[block, first:stop])

        return run

    _run_units(units, min(workers, len(units)), make_worker)
    escaped = (low < bounds.b_n - CONTAINMENT_BAND) | (high > bounds.s_n + CONTAINMENT_BAND)
    ok = ~escaped.any(axis=0)
    bad = np.flatnonzero(~ok)
    first_escape = escaped[:, bad].argmax(axis=0)
    theta_min, theta_max = low.min(axis=0), high.max(axis=0)
    theta_min[bad] = theta_max[bad] = math.nan
    violations = tuple(
        BoundViolationError(f"sampled rapidity escaped [{b}, {s}] (band {CONTAINMENT_BAND}): "
                            f"observed [{lo}, {hi}] in block {block}")
        for b, s, lo, hi, block in zip(bounds.b_n[bad].tolist(), bounds.s_n[bad].tolist(),
                                       low[first_escape, bad].tolist(),
                                       high[first_escape, bad].tolist(), first_escape.tolist()))
    return RowSweep(theta_min, theta_max, ok, violations)


def random_phase_sweep(seq: RapiditySequence, samples: int, seed: int) -> SweepResult:
    """Uniform random phases; every composed rapidity must stay in [B_n, S_n].

    Deterministic for a fixed seed regardless of how blocks would be
    scheduled.  A sample escaping the interval by more than CONTAINMENT_BAND
    raises BoundViolationError: the bounds are theorems, so that is a bug,
    not a statistic.  The one-row call of random_phase_sweeps.  Each extreme
    is located at the first sample that attains it, ties going to the
    earliest block and index: the row is folded again block by block as the
    sweep folds it, a (1, n) tile, so the values match bit for bit.  Its
    assignment is reported in the reduced gauge (the module docstring's
    sampling contract).
    """
    thetas = np.array([seq.thetas])
    sweep = random_phase_sweeps(BoundsColumns(thetas), samples, seed)
    if sweep.violations:
        raise sweep.violations[0]
    extremes = (float(sweep.theta_min_observed[0]), float(sweep.theta_max_observed[0]))
    found: list[PhaseAssignment | None] = [None, None]
    for block, count in _blocks(samples):
        h = _block_angles(seed, block, count, len(seq))
        observed = boost_fold(thetas, _quarter_rotors(h.copy()))[0]
        for i, extreme in enumerate(extremes):
            if found[i] is None and (hits := np.flatnonzero(observed == extreme)).size:
                steps = (4.0 * h[:, hits[0]]).tolist()
                found[i] = PhaseAssignment((0.0, phi)
                                           for phi in itertools.accumulate(steps, initial=0.0))
        if None not in found:
            break
    return SweepResult(*extremes, *found, sample_count=samples, seed=seed)


def attain(seq: RapiditySequence, target: float) -> PhaseAssignment:
    """Construct phases whose composition has rapidity ``target``, any target
    in [B_n, S_n], the edges included.

    Walks the barriers left to right, tracking the planned partial rapidity
    cur (theta_1 to start).  Before absorbing barrier i it picks the next
    partial rapidity x inside what one step can reach, low = |cur - theta_i|
    <= x <= high = cur + theta_i, and what keeps the target reachable with
    the barriers still to come.  The step's relative angle psi follows from
    the hyperbolic law of cosines, cosh 2x = cosh 2cur cosh 2theta_i +
    sinh 2cur sinh 2theta_i cos psi (O'Donnell & Visser, arXiv:1102.2001),
    in a form with no cancellation: cosh 2x - cosh 2low = 2 sinh(x - low)
    sinh(x + low) and cosh 2high - cosh 2x = 2 sinh(high - x) sinh(high + x)
    are sinh 2cur sinh 2theta_i times 2 cos^2(psi/2) and 2 sin^2(psi/2).  An
    x within 8 eps high of a corner is that corner, where psi is exactly 0 or
    pi.  The pair is composed by transfer.product in plain complex numbers,
    and barrier i gets phi_beta = arg beta - arg alpha - psi of the pair so
    far.  At the end the pair is checked once (check_pairs) and its
    rapidity, read as asinh|beta| so that a target of 0 is resolved, must be
    within 1e-8 of the target.
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
    cur = thetas[0]
    alpha, beta = complex(math.cosh(cur)), complex(math.sinh(cur))

    for i in range(1, n):
        t_i = thetas[i]
        after = thetas[i + 1:]
        low, high = abs(cur - t_i), cur + t_i
        x = target
        if after:
            sum_after = rest_sum[i + 1]
            lo = max(low, target - sum_after, 2.0 * max(after) - sum_after - target)
            x = min(max(target, lo), high, target + sum_after)
        corner = 8.0 * _EPS * high
        if x >= high - corner:
            x = high
        elif x <= low + corner:
            x = low
        cos_half = math.sqrt(math.sinh(x - low)) * math.sqrt(math.sinh(x + low))
        sin_half = math.sqrt(math.sinh(high - x)) * math.sqrt(math.sinh(high + x))
        phi = cmath.phase(beta) - cmath.phase(alpha) - 2.0 * math.atan2(sin_half, cos_half)
        phis.append((0.0, phi))
        alpha, beta = product(alpha, beta, complex(math.cosh(t_i)), cmath.rect(math.sinh(t_i), phi))
        cur = x

    check_pairs(alpha, beta)
    achieved = math.asinh(abs(beta))
    if abs(achieved - target) > _ATTAIN_TOLERANCE:
        raise CompoundBarrierError(
            f"attain construction reached {achieved!r}, target {target!r} "
            f"(tolerance {_ATTAIN_TOLERANCE})"
        )
    return PhaseAssignment(tuple(phis))


@dataclass(frozen=True, slots=True)
class EquivalenceReport:
    """Tally of recursion_audit over random rows: a row passes when its B_n
    matches the Heaviside recursion on it and on its reverse."""

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
    """recursion_audit of ``trials`` random rows theta_i ~ U[0, 4) for each n
    in 2 .. n_max, summed.  A row with S_n above RAPIDITY_LIMIT raises
    RapidityOverflowError, as BoundsColumns does everywhere."""
    if n_max < 2:
        raise DomainError(f"need n_max >= 2, got {n_max!r}")
    if trials < 1:
        raise DomainError(f"need trials >= 1, got {trials!r}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    rng = _block_rng(seed, 0)
    ns = tuple(range(2, n_max + 1))
    failures, worst = 0, 0.0
    for n in ns:
        gap, failing = recursion_audit(BoundsColumns(rng.uniform(0.0, 4.0, (trials, n))))
        failures += len(failing)
        worst = max(worst, gap)
    return EquivalenceReport(n_values=ns, trials_per_n=trials,
                             passes=len(ns) * trials - failures, failures=failures,
                             max_discrepancy=worst, seed=seed)


def recursion_audit(bounds: BoundsColumns) -> tuple[float, list[int]]:
    """Each row's B_n against the Heaviside recursion (b_n_iterative_rows) on
    the row and on the reversed row.

    Returns the largest gap and the rows where it exceeds 2 n eps max(1, S_n).
    The recursion sums plainly: its running sum is off by at most (n - 1) u S_n
    (u = eps/2) and its n - 1 subtractions add at most (n - 1) u S_n, since
    B_{m+1} = max(t - S_m, B_m - t, 0) moves no more than its arguments; B_n
    (correctly rounded S_n, one subtraction) is off by at most 2 u S_n.  So
    the gap is at most n eps S_n, doubled for the tolerance.  An absolute
    tolerance fails long chains: 2123 barriers at S_n ~ 316 show gaps above
    2e-12.
    """
    thetas, b = bounds.thetas, bounds.b_n
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


@dataclass(frozen=True, slots=True, eq=False)
class ContainmentReport:
    """Scenario-wide audit, worst margins over the sweep.

    The per-wavenumber results are columns, one array entry per k: the exact
    T, R and N and whether the row is contained; ``bounds`` holds the rows'
    [B_n, S_n] and envelopes as columns.  ``rows`` reads them as one
    ContainmentRow of Python values per k."""

    k: np.ndarray
    t_exact: np.ndarray
    r_exact: np.ndarray
    n_exact: np.ndarray
    contained: np.ndarray
    all_contained: bool
    t_low_margin: float
    t_high_margin: float
    r_low_margin: float
    r_high_margin: float
    n_low_margin: float
    n_high_margin: float
    k_at_max_t: float
    k_at_min_t: float
    bounds: BoundsColumns

    @property
    def rows(self) -> tuple[ContainmentRow, ...]:
        """The columns as one ContainmentRow per wavenumber, built on each access."""
        columns = (self.k, self.t_exact, self.r_exact, self.n_exact, self.contained)
        return tuple(map(ContainmentRow, *(column.tolist() for column in columns)))


def _theta_error(theta, delta):
    """Error of theta = asinh|beta| from an error delta on |beta|: delta /
    cosh(theta), asinh's slope there, which is at most 1 (at theta = 0)."""
    return delta / np.cosh(theta)


def _containment_band(n, theta_exact, s):
    """Rounding band: how far theta_exact can fall outside [B_n, S_n] by rounding.

    n barriers; theta_exact, s = S_n (n_k,); eps = machine epsilon.  Each
    factor's entries are off by a few eps of |alpha_i| = cosh(theta_i), and
    an error delta on |beta| moves asinh|beta| by delta / cosh(theta) at
    most (_theta_error; no cap at 0, where the slope is 1): c eps per
    theta_i.  Step m of the fold adds a few eps of |alpha_acc||alpha_m| +
    |beta_acc||beta_m| = cosh(x + theta_m), x composed so far, and each
    later factor j scales that by at most e^{theta_j}: a few eps of e^{S_n}
    <= 2 cosh(S_n) per factor.  So |beta_total| is off by at most delta = c
    n eps cosh(S_n) (c = 8, generous; it also covers the slope at a true
    value e below, up to e^e times larger), i.e. _theta_error(theta_exact,
    delta).  The edges carry 3 n c eps at most (B_n = 2 theta_peak - S_n);
    4 eps S_n covers the last asinh, the one rounding of the correctly
    rounded S_n and the subtraction.  Relative to cosh(S_n), the band holds
    across the trusted range; an absolute N tolerance does not."""
    delta = _C_EPS * n * np.cosh(s)
    return _theta_error(theta_exact, delta) + 3.0 * n * _C_EPS + _C_EPS / 2.0 * np.maximum(1.0, s)


def scenario_containment_audit(specs: Sequence[BarrierSpec],
                               k_sweep: Sequence[float]) -> ContainmentReport:
    """Exact compound T/R/N versus the six envelopes at every wavenumber.

    One origin_arrays build gives each row's rapidities theta_i =
    asinh|beta_i|, whose BoundsColumns give the edges and envelopes, and,
    placed and folded, the exact compound pair.  A row is contained when
    theta_exact = asinh|beta_total| lies in [B_n - band, S_n + band], the
    band from _containment_band.
    The T/R/N margins, (exact - lower edge) and (upper edge - exact)
    minimized over the sweep, are reported as is.
    """
    k = np.asarray(k_sweep, dtype=float)
    if k.size == 0:
        raise EmptySequenceError("audit needs at least one wavenumber")
    alpha, beta = origin_arrays(specs, k)
    bounds = BoundsColumns(np.arcsinh(np.abs(beta)))
    place(specs, k, beta)
    total_alpha, total_beta = fold(alpha, beta)
    del alpha, beta  # the (n_k, n) build is not needed past this point
    amps = ScatteringAmplitudes(1.0 / total_alpha, total_beta / total_alpha)
    modulus = np.abs(total_beta)
    t, r, n = amps.T, amps.R, np.square(modulus)
    exact = np.stack([t, r, n], axis=1)
    edges = np.stack(bounds.envelopes, axis=1)
    # (T, R, N) x (low, high) worst margins, in ContainmentReport's field order
    margins = np.stack([exact - edges[:, 0::2], edges[:, 1::2] - exact], axis=-1).min(axis=0)
    theta_exact = np.arcsinh(modulus)
    low, high = bounds.b_n, bounds.s_n
    band = _containment_band(len(specs), theta_exact, high)
    contained = (low - band <= theta_exact) & (theta_exact <= high + band)
    return ContainmentReport(k, t, r, n,
                             contained, bool(contained.all()), *margins.ravel().tolist(),
                             k_at_max_t=k[np.argmax(t)].item(),
                             k_at_min_t=k[np.argmin(t)].item(), bounds=bounds)
