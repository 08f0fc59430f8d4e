"""Phase-free bounds on compound scattering and particle production.

Given only the per-barrier rapidities theta_i = acosh|alpha_i| (equivalently
the individual T_i, R_i or N_i), the compound rapidity of any arrangement is
confined to the interval [B_n, S_n] with

    S_n = sum_i theta_i,
    B_n = max(2 theta_peak - S_n, 0),       theta_peak = max_i theta_i,

and B_n is also produced by a Heaviside recursion (kept as an independent
cross-check).  Converting the interval edges gives the six envelopes

    T in [sech^2 S_n, sech^2 B_n],   R in [tanh^2 B_n, tanh^2 S_n],
    N in [sinh^2 B_n, sinh^2 S_n].

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
from .transfer import RAPIDITY_LIMIT, TransferMatrix, to_polar

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
    "two_barrier_T_bounds",
    "two_barrier_R_bounds",
    "two_barrier_N_bounds",
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
        return cls(tuple(to_polar(m).theta for m in ms))


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


def _check_theta(theta: float) -> float:
    t = float(theta)
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"rapidity must be finite and >= 0, got {theta!r}")
    if t > RAPIDITY_LIMIT:
        raise RapidityOverflowError(f"rapidity {t!r} exceeds trusted range {RAPIDITY_LIMIT}")
    return t


def _sech2(t: float) -> float:
    """sech^2(t) for a checked t, overflow-free."""
    e = math.exp(-t)
    sech = 2.0 * e / (1.0 + e * e)
    return sech * sech


def _tanh2(t: float) -> float:
    th = math.tanh(t)
    return th * th


def _sinh2(t: float) -> float:
    s = math.sinh(t)
    return s * s


def T_from_theta(theta: float) -> float:
    """T = sech^2(theta), computed overflow-free."""
    return _sech2(_check_theta(theta))


def R_from_theta(theta: float) -> float:
    """R = tanh^2(theta)."""
    return _tanh2(_check_theta(theta))


def N_from_theta(theta: float) -> float:
    """N = sinh^2(theta)."""
    return _sinh2(_check_theta(theta))


# ---------------------------------------------------------------------------
# two-barrier closed forms
# ---------------------------------------------------------------------------

def _check_T(T: float, name: str) -> None:
    if not math.isfinite(T) or not (0.0 < T <= 1.0):
        raise DomainError(f"{name} must lie in (0, 1], got {T!r}")


def two_barrier_T_bounds(T1: float, T2: float) -> tuple[float, float]:
    """Attainable transmission interval for two barriers, phases unknown.

    [sech^2(theta1 + theta2), sech^2(theta1 - theta2)]; equal barriers give
    an upper edge of exactly 1 (the resonance condition).
    """
    _check_T(T1, "T1")
    _check_T(T2, "T2")
    t1, t2 = theta_from_T(T1), theta_from_T(T2)
    return T_from_theta(t1 + t2), T_from_theta(abs(t1 - t2))


def _check_R(R: float, name: str) -> None:
    if not math.isfinite(R) or not (0.0 <= R < 1.0):
        raise DomainError(f"{name} must lie in [0, 1), got {R!r}")


def two_barrier_R_bounds(R1: float, R2: float) -> tuple[float, float]:
    """Attainable reflection interval: [tanh^2(th1 - th2), tanh^2(th1 + th2)]."""
    _check_R(R1, "R1")
    _check_R(R2, "R2")
    t1, t2 = theta_from_R(R1), theta_from_R(R2)
    return R_from_theta(abs(t1 - t2)), R_from_theta(t1 + t2)


def _check_N(N: float, name: str) -> None:
    if not math.isfinite(N) or N < 0.0:
        raise DomainError(f"{name} must be finite and >= 0, got {N!r}")


def two_barrier_N_bounds(N1: float, N2: float) -> tuple[float, float]:
    """Attainable particle-production interval for two episodes.

    [sinh^2(th1 - th2), sinh^2(th1 + th2)] with th = asinh(sqrt N); equal
    episodes give a lower edge of exactly 0 (complete cancellation).
    """
    _check_N(N1, "N1")
    _check_N(N2, "N2")
    t1, t2 = theta_from_N(N1), theta_from_N(N2)
    return N_from_theta(abs(t1 - t2)), N_from_theta(t1 + t2)


# ---------------------------------------------------------------------------
# n-barrier interval [B_n, S_n]
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


def b_n_closed(seq: RapiditySequence) -> float:
    """Lower edge B_n = max(2 theta_peak - S_n, 0), closed form.

    A totally symmetric function of the rapidities; nonzero only when one
    barrier outweighs all the others combined.  Any argmax serves as the
    peak: the value is tie-independent.
    """
    if len(seq) == 0:
        raise EmptySequenceError("B_n needs at least one rapidity")
    return max(2.0 * max(seq.thetas) - math.fsum(seq.thetas), 0.0)


class BoundsColumns:
    """[B_n, S_n], the six envelopes and the resonance verdict of every row of
    an (n_rows, n) rapidity array, one list per quantity, one entry per row.

    S_n (math.fsum per row), B_n, theta_peak and the verdict are computed on
    construction; the other columns on first use, once, by mapping this
    module's formula kernels over the rows, so entry j equals bit for bit
    what bounds_report and resonance_assessment (the one-row calls) give
    for row j.  (numpy's exp/tanh/sinh/cosh differ from libm in the last
    ulp.)  A row with S_n above RAPIDITY_LIMIT is refused.  That check
    covers every cell the kernels see, so they skip the per-value checks of
    T_from_theta and friends: each theta_i, theta_peak and B_n lies in
    [0, S_n].
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
        rows = thetas.tolist()
        self.thetas = thetas
        self.s_n = list(map(math.fsum, rows))
        for s in self.s_n:
            if s > RAPIDITY_LIMIT:
                raise RapidityOverflowError(f"S_n = {s!r} exceeds trusted range {RAPIDITY_LIMIT}")
        self.theta_peak = list(map(max, rows))
        self.b_n = [max(2.0 * p - s, 0.0) for p, s in zip(self.theta_peak, self.s_n)]
        self.possible = [b == 0.0 for b in self.b_n]  # B_n = 0: T = 1 not excluded

    @cached_property
    def t_min(self) -> list[float]:
        return list(map(_sech2, self.s_n))

    @cached_property
    def envelopes(self) -> tuple[list[float], ...]:
        """T_min, T_upper, R_low, R_high, N_low, N_high:

            T in [sech^2 S_n, sech^2 B_n]      R in [tanh^2 B_n, tanh^2 S_n]
            N in [sinh^2 B_n, sinh^2 S_n]
        """
        b, s = self.b_n, self.s_n
        return (self.t_min, list(map(_sech2, b)), list(map(_tanh2, b)),
                list(map(_tanh2, s)), list(map(_sinh2, b)), list(map(_sinh2, s)))

    @cached_property
    def resonance(self) -> tuple[list[float], ...]:
        """T_peak = sech^2(theta_peak), T_min, threshold = 2 sqrt(T_min) / (1 +
        sqrt(T_min)) and margin = T_peak - threshold: see resonance_assessment."""
        t_peak = list(map(_sech2, self.theta_peak))
        threshold = [2.0 * root / (1.0 + root) for root in map(math.sqrt, self.t_min)]
        return t_peak, self.t_min, threshold, [t - h for t, h in zip(t_peak, threshold)]

    @cached_property
    def transmissions(self) -> list[list[float]]:
        """Per-barrier T_i, one column per barrier."""
        return [list(map(_sech2, column)) for column in self.thetas.T.tolist()]

    @property
    def t_classical(self) -> list[float]:
        """Particle (no-interference) limit of each row: the plain product of its T_i."""
        return list(map(math.prod, zip(*self.transmissions)))


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
    (s,), (b,), (peak,) = columns.s_n, columns.b_n, columns.theta_peak
    t_lo, t_hi, r_lo, r_hi, n_lo, n_hi = (column[0] for column in columns.envelopes)
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
    (t_peak,), (t_min,), (threshold,), (margin,) = columns.resonance
    return ResonanceAssessment(
        possible=columns.possible[0],
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
    (b,), (n_min,), (n_max,) = columns.b_n, *columns.envelopes[4:]
    return ProductionAssessment(
        guaranteed=b > 0.0,
        n_min=n_min,
        n_peak=max(ns),
        n_max=n_max,
        threshold=(math.sqrt(n_max + 1.0) - 1.0) / 2.0,
    )
