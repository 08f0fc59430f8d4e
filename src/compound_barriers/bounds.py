"""Phase-free bounds on compound scattering and particle production.

Given only the per-barrier rapidities theta_i = asinh|beta_i| (equivalently
the individual T_i, R_i or N_i), the compound rapidity of any arrangement is
confined to the interval [B_n, S_n] with

    S_n = sum_i theta_i,
    B_n = max(2 theta_peak - S_n, 0),       theta_peak = max_i theta_i,

and B_n is also produced by a Heaviside recursion (kept as an independent
cross-check).  Converting the interval edges gives the six envelopes

    T in [sech^2 S_n, sech^2 B_n],   R in [tanh^2 B_n, tanh^2 S_n],
    N in [sinh^2 B_n, sinh^2 S_n].

Two barriers are the n = 2 row: T in [sech^2(theta_1 + theta_2),
sech^2(theta_1 - theta_2)], which bounds_report gives for a two-element
sequence.

All computation happens in rapidity space; probabilities appear only at the
report boundary, which avoids both cosh overflow and the cancellation that
plagues the rational forms near T -> 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, DomainError, EmptySequenceError, RapidityOverflowError
from .transfer import RAPIDITY_LIMIT, TransferMatrix

__all__ = [
    "RapiditySequence",
    "BoundsColumns",
    "BoundsReport",
    "ResonanceAssessment",
    "ProductionAssessment",
    "theta_from_T",
    "theta_from_R",
    "theta_from_N",
    "T_from_theta",
    "R_from_theta",
    "N_from_theta",
    "s_n",
    "b_n_iterative_rows",
    "b_n_closed",
    "bounds_report",
    "resonance_assessment",
    "resonance_possible",
    "production_guaranteed",
]


@dataclass(frozen=True, slots=True)
class RapiditySequence:
    """Per-barrier rapidities theta_i >= 0, one entry per barrier/episode."""

    thetas: tuple[float, ...]

    def __post_init__(self):
        ts = tuple(float(t) for t in self.thetas)
        for t in ts:
            if not math.isfinite(t) or t < 0.0:
                raise DomainError(f"rapidities must be finite and >= 0, got {t!r}")
        object.__setattr__(self, "thetas", ts)

    def __len__(self) -> int:
        return len(self.thetas)

    def __iter__(self):
        return iter(self.thetas)

    @classmethod
    def from_transmissions(cls, ts: Iterable[float]) -> "RapiditySequence":
        return cls(tuple(theta_from_T(t) for t in ts))

    @classmethod
    def from_particle_numbers(cls, ns: Iterable[float]) -> "RapiditySequence":
        return cls(tuple(theta_from_N(n) for n in ns))

    @classmethod
    def from_matrices(cls, ms: Iterable[TransferMatrix]) -> "RapiditySequence":
        """theta_i = asinh|beta_i|: the CLI's row, bit for bit, for matrices at the origin."""
        return cls(tuple(np.arcsinh(np.abs([m.beta for m in ms])).tolist()))


# ---------------------------------------------------------------------------
# theta <-> probability conversions (the hyperbolic "length" of a barrier)
# ---------------------------------------------------------------------------

def theta_from_T(T: float) -> float:
    """Rapidity from transmission probability: asech(sqrt T), T in (0, 1].

    Evaluated as asinh(sqrt((1-T)/T)), which is exact at T = 1 and avoids
    the acosh conditioning cliff near it.  T = 0 would map to infinity and
    is rejected.
    """
    if not math.isfinite(T) or not (0.0 < T <= 1.0):
        raise DomainError(f"transmission probability must lie in (0, 1], got {T!r}")
    return math.asinh(math.sqrt((1.0 - T) / T))


def theta_from_R(R: float) -> float:
    """Rapidity from reflection probability: atanh(sqrt R), R in [0, 1)."""
    if not math.isfinite(R) or not (0.0 <= R < 1.0):
        raise DomainError(f"reflection probability must lie in [0, 1), got {R!r}")
    return math.atanh(math.sqrt(R))


def theta_from_N(N: float) -> float:
    """Rapidity from particle number: asinh(sqrt N), N >= 0."""
    if not math.isfinite(N) or N < 0.0:
        raise DomainError(f"particle number must be finite and >= 0, got {N!r}")
    return math.asinh(math.sqrt(N))


# The three kernels take a checked rapidity array (BoundsColumns checks it).

def _sech2(t):
    """sech^2 t, overflow-free."""
    e = np.exp(-t)
    sech = 2.0 * e / (1.0 + e * e)
    return sech * sech


def _tanh2(t):
    th = np.tanh(t)
    return th * th


def _sinh2(t):
    s = np.sinh(t)
    return s * s


def T_from_theta(theta: float) -> float:
    """T = sech^2(theta), computed overflow-free: the one-row call of
    BoundsColumns ([theta] has S_n = theta)."""
    return BoundsColumns([[theta]]).t_min.item()


def R_from_theta(theta: float) -> float:
    """R = tanh^2(theta): the one-row call of BoundsColumns."""
    return BoundsColumns([[theta]]).envelopes[3].item()


def N_from_theta(theta: float) -> float:
    """N = sinh^2(theta): the one-row call of BoundsColumns."""
    return BoundsColumns([[theta]]).envelopes[5].item()


# ---------------------------------------------------------------------------
# the interval [B_n, S_n]; two barriers are its n = 2 row, B_2 = |theta_1 - theta_2|
# ---------------------------------------------------------------------------

def s_n(seq: RapiditySequence) -> float:
    """Upper edge S_n = sum of rapidities (exactly permutation invariant)."""
    return math.fsum(seq.thetas)


def b_n_iterative_rows(thetas) -> np.ndarray:
    """Lower edge B_n of every row of an (n_rows, n) rapidity array by the
    Heaviside recursion, one barrier column at a time, elementwise over rows:

        B_1 = theta_1,
        B_{m+1} = (t - S_m) H(t - S_m) + (B_m - t) H(B_m - t),  t = theta_{m+1},

    with H(0) = 0.  Kept literal as an independent route to b_n_closed.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2:
        raise DimensionError(f"need an (n_rows, n) rapidity array, got shape {thetas.shape}")
    if thetas.shape[1] == 0:
        raise EmptySequenceError("B_n needs at least one rapidity")
    b = thetas[:, 0].copy()
    s = thetas[:, 0]
    for t in thetas.T[1:]:
        b = (t - s) * np.heaviside(t - s, 0.0) + (b - t) * np.heaviside(b - t, 0.0)
        s = s + t
    return b


# Arrays of fewer rows take math.fsum row by row: the cascade's ~7 n numpy
# calls cost more than fsum's ~0.2-3 us a row there.  Measured in process
# on a 2-vCPU VM pinned to one CPU, best of 7 x 200 _row_sums calls, fsum
# against the cascade: n = 20 at 1 row 2 / 97 us, 64 rows 47 / 64 us, 96
# rows 74 / 63 us; n = 1 64 rows 14 / 14 us; n = 2 96 rows 24 / 25 us;
# n = 64 64 rows 123 / 173 us, 96 rows 189 / 175 us.  Every n crosses
# between 64 and 96 rows.
_CASCADE_MIN_ROWS = 80


def _fsum_rows(thetas: np.ndarray, rows) -> np.ndarray:
    """math.fsum of each listed row of a C-contiguous (n_rows, n) array.  It
    reads the row's memory: its floats are made one at a time as fsum reads
    them, not as nested lists first."""
    n, flat = thetas.shape[1], memoryview(thetas.reshape(-1))
    return np.fromiter((math.fsum(flat[i * n:i * n + n]) for i in rows), float, len(rows))


def _row_sums(thetas: np.ndarray) -> np.ndarray:
    """Each row's sum correctly rounded, bit for bit math.fsum's value, for a
    C-contiguous (n_rows, n) array of finite rapidities >= 0.

    A cascade of Knuth's error-free TwoSum down the columns carries each
    row's running sum hi and the plain sum lo of the exact rounding errors
    (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 1955 (2005), Sum2).  The
    double-double hi + lo lies within gamma_{n-1}^2 sum|theta_i| of the
    exact sum S, gamma_k = k u / (1 - k u), u = 2^-53; with theta_i >= 0
    that is ~(n - 1)^2 u^2 S.  Rounding it once gives s and the exact
    residual d = hi + lo - s; s is S correctly rounded when |d| plus that
    bound stays below half the gap from s down to the next float (the
    smaller of its two gaps), since every real that close to s rounds to
    it.  Rows this cannot decide (exact double-double ties, zero and
    subnormal sums, an overflowing sum) take math.fsum, as do arrays too
    small for the cascade to pay (_CASCADE_MIN_ROWS).
    """
    rows, n = thetas.shape
    if rows < _CASCADE_MIN_ROWS:
        return _fsum_rows(thetas, range(rows))
    columns = thetas.T
    hi, lo = columns[0], np.zeros(rows)
    with np.errstate(invalid="ignore", over="ignore"):  # an overflow is left to fsum
        for t in columns[1:]:  # TwoSum: total + the error lo takes == hi + t exactly
            total = hi + t
            back = total - hi
            lo += (hi - (total - back)) + (t - back)
            hi = total
        s = hi + lo
        back = s - hi
        residual = (hi - (s - back)) + (lo - back)
        # 2 (n-1)^2 u^2 s covers gamma_{n-1}^2 S and its own rounding; the
        # n 2^-1074 covers that product's underflow
        bound = 2.0 * (n - 1) ** 2 * 2.0 ** -106 * s + n * 2.0 ** -1074
        undecided = np.flatnonzero(~(np.abs(residual) + bound
                                     < 0.5 * (s - np.nextafter(s, 0.0))))
    s[undecided] = _fsum_rows(thetas, undecided.tolist())
    return s


class BoundsColumns:
    """[B_n, S_n], the six envelopes and the resonance verdict of every row of
    an (n_rows, n) rapidity array, one float (or bool) array per quantity,
    one entry per row.

    S_n (each row's sum correctly rounded, math.fsum's value bit for bit:
    an error-free TwoSum cascade over the columns, with fsum for the rows it
    cannot decide and for arrays of few rows, see _row_sums), theta_peak,
    B_n and the verdict are computed on construction, the other columns on
    first use, once.  Each column is one pass of this module's formula
    kernels over an array.  The float calls (T_from_theta, R_from_theta, N_from_theta, b_n_closed, bounds_report,
    resonance_assessment, production_guaranteed) are its one-row calls, so
    they give what entry j holds for row j.  Construction is the one check:
    a non-finite or negative rapidity is a DomainError, a row with S_n above
    RAPIDITY_LIMIT a RapidityOverflowError.  That covers every cell the
    kernels see: each theta_i, theta_peak and B_n lies in [0, S_n].
    """

    def __init__(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2:
            raise DimensionError(f"need an (n_rows, n) rapidity array, got shape {thetas.shape}")
        if thetas.shape[1] == 0:
            raise EmptySequenceError("bounds need at least one rapidity per row")
        bad = ~np.isfinite(thetas) | (thetas < 0.0)
        if bad.any():
            raise DomainError(f"rapidities must be finite and >= 0, got {float(thetas[bad][0])!r}")
        thetas = np.ascontiguousarray(thetas)
        s = _row_sums(thetas)  # correctly rounded: recursion_audit's tolerance assumes it
        over = s > RAPIDITY_LIMIT
        if over.any():
            raise RapidityOverflowError(f"S_n = {float(s[over][0])!r} exceeds trusted range "
                                        f"{RAPIDITY_LIMIT}")
        peak = thetas.max(axis=1) + 0.0  # a zero peak is 0.0, whichever signed zero max picks
        b = np.maximum(2.0 * peak - s, 0.0)
        self.thetas, self.s_n, self.theta_peak, self.b_n = thetas, s, peak, b
        self.possible = b == 0.0  # B_n = 0: T = 1 not excluded

    @cached_property
    def t_min(self) -> np.ndarray:
        return _sech2(self.s_n)

    @cached_property
    def envelopes(self) -> tuple[np.ndarray, ...]:
        """T_min, T_upper, R_low, R_high, N_low, N_high:

            T in [sech^2 S_n, sech^2 B_n]      R in [tanh^2 B_n, tanh^2 S_n]
            N in [sinh^2 B_n, sinh^2 S_n]
        """
        b, s = self.b_n, self.s_n
        return self.t_min, _sech2(b), _tanh2(b), _tanh2(s), _sinh2(b), _sinh2(s)

    @cached_property
    def resonance(self) -> tuple[np.ndarray, ...]:
        """T_peak = sech^2(theta_peak), T_min, threshold = 2 sqrt(T_min) / (1 +
        sqrt(T_min)) and margin = T_peak - threshold: see resonance_assessment."""
        t_peak, root = _sech2(self.theta_peak), np.sqrt(self.t_min)
        threshold = 2.0 * root / (1.0 + root)
        return t_peak, self.t_min, threshold, t_peak - threshold

    @cached_property
    def transmissions(self) -> np.ndarray:
        """Per-barrier T_i, shaped as thetas: row j, column i is T_i of row j."""
        return _sech2(self.thetas)

    @cached_property
    def t_classical(self) -> np.ndarray:
        """Particle (no-interference) limit of each row: the plain product of
        its T_i, in math.prod's order ((T_1 T_2) T_3) ..."""
        product = np.ones(len(self.s_n))
        for t in self.transmissions.T:
            product *= t
        return product


@dataclass(frozen=True, slots=True)
class BoundsReport:
    """Interval [b_n, s_n] and the derived T/R/N/|alpha|/|beta| envelopes."""

    s_n: float
    b_n: float
    theta_peak: float
    theta_off_peak: float
    t_interval: tuple[float, float]
    r_interval: tuple[float, float]
    n_interval: tuple[float, float]
    alpha_mod_interval: tuple[float, float]
    beta_mod_interval: tuple[float, float]

    def __post_init__(self):
        if not (0.0 <= self.b_n <= self.s_n):
            raise DomainError(f"need 0 <= B_n <= S_n, got B={self.b_n!r}, S={self.s_n!r}")
        for name in ("t_interval", "r_interval", "n_interval",
                     "alpha_mod_interval", "beta_mod_interval"):
            lo, hi = getattr(self, name)
            if not (lo <= hi):
                raise DomainError(f"{name} is not ordered: [{lo!r}, {hi!r}]")
        for name in ("t_interval", "r_interval"):
            lo, hi = getattr(self, name)
            if not (0.0 <= lo and hi <= 1.0):
                raise DomainError(f"{name} escapes [0, 1]: [{lo!r}, {hi!r}]")


def bounds_report(seq: RapiditySequence) -> BoundsReport:
    """Full envelope report for a barrier/episode sequence: the one-row call
    of BoundsColumns, plus

        |alpha| in [cosh B_n, cosh S_n]    |beta| in [sinh B_n, sinh S_n]
    """
    columns = BoundsColumns([seq.thetas])
    s, b, peak = columns.s_n.item(), columns.b_n.item(), columns.theta_peak.item()
    t_lo, t_hi, r_lo, r_hi, n_lo, n_hi = (column.item() for column in columns.envelopes)
    return BoundsReport(
        s_n=s,
        b_n=b,
        theta_peak=peak,
        theta_off_peak=s - peak,
        t_interval=(t_lo, t_hi),
        r_interval=(r_lo, r_hi),
        n_interval=(n_lo, n_hi),
        alpha_mod_interval=(math.cosh(b), math.cosh(s)),
        beta_mod_interval=(math.sinh(b), math.sinh(s)),
    )


def b_n_closed(seq: RapiditySequence) -> float:
    """Lower edge B_n = max(2 theta_peak - S_n, 0), closed form: the one-row
    call of BoundsColumns.

    A totally symmetric function of the rapidities; nonzero only when one
    barrier outweighs all the others combined.  Any argmax serves as the
    peak: the value is tie-independent.
    """
    return BoundsColumns([seq.thetas]).b_n.item()


# ---------------------------------------------------------------------------
# the resonance / production criteria
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ResonanceAssessment:
    """Outcome of the perfect-transmission necessary condition.

    t_peak is the transmission of the peak (most opaque) barrier, i.e. the
    smallest individual T_i = sech^2(theta_peak).
    """

    possible: bool
    margin: float
    t_peak: float
    t_min: float
    threshold: float


def resonance_assessment(seq: RapiditySequence) -> ResonanceAssessment:
    """Necessary (not sufficient) condition for a perfect resonance T = 1.

    Perfect transmission requires 2 theta_peak <= S_n, i.e. B_n = 0; the
    verdict is computed exactly in rapidity space.  In probabilities the
    same condition reads

        sech^2(theta_peak) >= 2 sqrt(T_min) / (1 + sqrt(T_min)),

    with T_min = sech^2(S_n) (sech^2 falls with theta, so the rapidity
    inequality flips when converted); margin = t_peak - threshold, so
    possible <=> margin >= 0 up to float rounding at the exact boundary.
    The one-row call of BoundsColumns.
    """
    columns = BoundsColumns([seq.thetas])
    t_peak, t_min, threshold, margin = (column.item() for column in columns.resonance)
    return ResonanceAssessment(
        possible=columns.possible.item(),
        margin=margin,
        t_peak=t_peak,
        t_min=t_min,
        threshold=threshold,
    )


def resonance_possible(ts: Sequence[float]) -> ResonanceAssessment:
    """resonance_assessment of the barriers' transmissions T_i."""
    return resonance_assessment(RapiditySequence.from_transmissions(ts))


@dataclass(frozen=True, slots=True)
class ProductionAssessment:
    """Outcome of the guaranteed-particle-production sufficient condition."""

    guaranteed: bool
    n_min: float
    n_peak: float
    n_max: float
    threshold: float


def production_guaranteed(ns: Sequence[float]) -> ProductionAssessment:
    """Sufficient condition for nonzero net production across episodes.

    Complete cancellation requires 2 theta_peak <= S_n, so B_n > 0 (checked
    exactly in rapidity space) guarantees N >= sinh^2(B_n) > 0.  In terms
    of the episode numbers this is N_peak > (sqrt(N_max + 1) - 1)/2 with
    N_max = sinh^2(S_n); that threshold is reported alongside.  The one-row
    call of BoundsColumns.
    """
    columns = BoundsColumns([RapiditySequence.from_particle_numbers(ns).thetas])
    b, n_min, n_max = (column.item() for column in (columns.b_n, *columns.envelopes[4:]))
    return ProductionAssessment(
        guaranteed=b > 0.0,
        n_min=n_min,
        n_peak=max(ns),
        n_max=n_max,
        threshold=(math.sqrt(n_max + 1.0) - 1.0) / 2.0,
    )
