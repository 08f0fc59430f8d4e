"""Exact transfer matrices for concrete 1D barriers.

Units: hbar = 2m = 1, so a wave of wavenumber k > 0 has energy E = k^2 and
the stationary equation reads psi'' = (V - E) psi.

Each barrier is solved at the origin and then moved to its position with
the translation rule (beta picks up e^{+2ika}), which keeps T, R and N
independent of placement.  The matrices are written in the wave basis that
makes that rule hold; with the package's amplitude convention (t = 1/alpha)
the left-incidence amplitudes come out conjugated (t_phys = 1/alpha*), a
pure gauge difference with identical probabilities.  The documented
convention check lives in the test suite, which pins composed multi-barrier
transmission against direct numerical integration of the wave equation.

Supported shapes:

* Rectangular(height, width): V = V0 on an interval of width L (V0 < 0 is a
  well); E = V0 is handled by the analytic limit, E > V0 by the
  trigonometric branch, all through one stable formula.
* Delta(strength): V = lam * delta(x); lam < 0 allowed.
* PiecewiseConstant(segments): adjacent constant slabs, composed internally.

Every formula takes an array of wavenumbers.  One build at the origin
(origin_arrays) makes every refusal of a scenario, the phase range of each
position included, and checks its pairs once; the rapidities theta_i =
asinh|beta_i|, and so every T_i and bound, are read from it.  place
translates its betas, which only the exact compound values need, and
scenario_arrays is both; transfer_of / scenario_transfer are its one-k calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptySequenceError, OverlapError, RapidityOverflowError
from .transfer import (
    RAPIDITY_LIMIT,
    TransferMatrix,
    check_pairs,
    check_phase_range,
    fold,
    translate,
)

__all__ = [
    "Rectangular",
    "Delta",
    "PiecewiseConstant",
    "BarrierSpec",
    "WaveContext",
    "support",
    "transfer_of",
    "origin_arrays",
    "place",
    "scenario_arrays",
    "scenario_transfer",
]

# The slab formula takes k up to _K_LIMIT / max(1, L)^1.5: then E max(1, L)^3
# stays within an eighth of the largest double, so that E, 2E - V0 and the
# series term (V0 - E) L^3, evaluated at every k, are finite for any V0 of
# desk scale.
_MAX = float(np.finfo(float).max)
_K_LIMIT = math.sqrt(_MAX / 8.0)


@dataclass(frozen=True, slots=True)
class WaveContext:
    """Scattering wavenumber k > 0 (energy E = k^2)."""

    k: float

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k > 0.0):
            raise DomainError(f"wavenumber must be finite and > 0, got {float(self.k)!r}")


@dataclass(frozen=True, slots=True)
class Rectangular:
    """Rectangular barrier of height V0 and width L > 0, centered at position."""

    height: float
    width: float
    position: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.height, self.width, self.position)):
            raise DomainError("rectangular barrier parameters must be finite")
        if self.width <= 0.0:
            raise DomainError(f"barrier width must be > 0, got {self.width!r}")


@dataclass(frozen=True, slots=True)
class Delta:
    """Delta barrier V = strength * delta(x - position); wells allowed."""

    strength: float
    position: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.strength) and math.isfinite(self.position)):
            raise DomainError("delta barrier parameters must be finite")


@dataclass(frozen=True, slots=True)
class PiecewiseConstant:
    """Adjacent constant slabs (height, width), centered as a whole at position."""

    segments: tuple[tuple[float, float], ...]
    position: float = 0.0

    def __post_init__(self):
        segs = tuple((float(h), float(w)) for h, w in self.segments)
        if len(segs) == 0:
            raise DomainError("piecewise barrier needs at least one segment")
        for h, w in segs:
            if not (math.isfinite(h) and math.isfinite(w)):
                raise DomainError("slab parameters must be finite")
            if w <= 0.0:
                raise DomainError(f"slab width must be > 0, got {w!r}")
        if not math.isfinite(self.position):
            raise DomainError("position must be finite")
        object.__setattr__(self, "segments", segs)

    @property
    def total_width(self) -> float:
        return math.fsum(w for _, w in self.segments)


BarrierSpec = Rectangular | Delta | PiecewiseConstant


def support(spec: BarrierSpec) -> tuple[float, float]:
    """Closed support [lo, hi] of the barrier; a point for delta barriers."""
    if isinstance(spec, Rectangular):
        half = 0.5 * spec.width
        return spec.position - half, spec.position + half
    if isinstance(spec, Delta):
        return spec.position, spec.position
    if isinstance(spec, PiecewiseConstant):
        half = 0.5 * spec.total_width
        return spec.position - half, spec.position + half
    raise DomainError(f"unknown barrier kind: {spec!r}")


def _slab_profile(u: np.ndarray, length: float) -> tuple[np.ndarray, np.ndarray]:
    """C = cos-or-cosh(sqrt|u| L) and S = sin-or-sinh(sqrt|u| L)/sqrt|u|.

    u = V0 - E (one entry per wavenumber) selects the branch: cosh/sinh run
    on the entries with u > 0 only and cos/sin on the others only, so no
    entry pays for both pairs and cosh never sees a trigonometric argument.
    The u -> 0 limit (S -> L) is the E = V0 degeneracy, handled by series
    so there is no removable-singularity branch point.
    """
    series = np.abs(u) * length * length < 1e-12
    w = np.sqrt(np.abs(u))
    wl = w * length
    hyper = (u > 0.0) & ~series
    worst = wl[hyper].max(initial=0.0)
    if worst > RAPIDITY_LIMIT:
        raise RapidityOverflowError(f"slab opacity kappa*L = {float(worst)!r} exceeds trusted "
                                    f"range {RAPIDITY_LIMIT}")
    c, s = np.empty_like(u), np.empty_like(u)
    for branch, cos, sin in ((hyper, np.cosh, np.sinh), (~(hyper | series), np.cos, np.sin)):
        x = wl[branch]
        c[branch], s[branch] = cos(x), sin(x) / w[branch]
    # series in u L^2: C = 1 + uL^2/2, S = L (1 + uL^2/6)
    v = u[series]
    c[series] = 1.0 + 0.5 * v * length * length
    s[series] = length * (1.0 + v * length * length / 6.0)
    return c, s


def _rectangular_at_origin(height: float, width: float, k: np.ndarray):
    """(alpha, beta) of a centered slab of height V0 and width L.

        alpha = e^{-ikL} [C + i (2E - V0)/(2k) S],   beta = -i V0/(2k) S,

    with C, S from _slab_profile(V0 - E, L); |alpha|^2 - |beta|^2 = C^2 -
    (V0-E) S^2 = 1 identically on every branch.  A slab with |V0| max(1, L)^2
    above _K_LIMIT^2 is refused by its width and height, and then a k above
    _K_LIMIT / max(1, L)^1.5 before E = k^2 is formed, or one so small that a
    coupling overflows.
    """
    wide = max(1.0, width)
    if abs(height) > _K_LIMIT ** 2 / wide / wide:  # |u| L^2 >= |V0| L^2 overflows at every k
        raise DomainError(f"slab of height {height!r} and width {width!r} is out of range: "
                          f"V0 L^2 would overflow double precision at every wavenumber "
                          f"(|V0| max(1, L)^2 must not exceed {_K_LIMIT ** 2:.3g})")
    too_large = k > _K_LIMIT / wide / math.sqrt(wide)
    if too_large.any():
        raise DomainError(f"wavenumber k = {float(k[too_large][0])!r} is too large for a slab of "
                          f"width {width!r}: E = k^2 would overflow double precision (k must not "
                          f"exceed {_K_LIMIT:.3g} / max(1, L)^1.5)")
    e = k * k
    c, s = _slab_profile(height - e, width)
    # where V0 S / 2k overflows as k -> 0 depends on S (up to e^350 / kappa),
    # so the couplings are formed with overflow ignored, then refused by name
    with np.errstate(over="ignore", invalid="ignore"):
        half_through = 0.5 * (2.0 * e - height) / k * s
        half_coupling = 0.5 * height / k * s
    _refuse_small_k(k, ~(np.isfinite(half_through) & np.isfinite(half_coupling)),
                    f"a slab of height {height!r} and width {width!r}")
    return np.exp(-1j * k * width) * (c + 1j * half_through), -1j * half_coupling


def _refuse_small_k(k: np.ndarray, overflows: np.ndarray, what: str) -> None:
    """DomainError naming the first k at which ``overflows`` holds: the
    coupling of ``what`` grows as 1/k and there leaves double precision."""
    if overflows.any():
        raise DomainError(f"wavenumber k = {float(k[overflows][0])!r} is too small for {what}: "
                          f"its coupling, which grows as 1/k, would overflow double precision")


def _at_origin(spec: BarrierSpec, k: np.ndarray):
    """(alpha, beta) of the barrier centered at the origin.  Delta(lam): alpha =
    1 - i g, beta = -i g, g = lam/(2k), refusing a k at which g overflows; a
    slab checks its translated segments, then folds them."""
    if isinstance(spec, Rectangular):
        return _rectangular_at_origin(spec.height, spec.width, k)
    if isinstance(spec, Delta):
        # refused before dividing: above |lam| / MAX, g stays below 3/4 MAX
        # however the bound rounds
        _refuse_small_k(k, k < abs(spec.strength) / _MAX,
                        f"a delta barrier of strength {spec.strength!r}")
        g = 0.5 * spec.strength / k
        return 1.0 - 1j * g, -1j * g
    if isinstance(spec, PiecewiseConstant):
        left, alphas, betas = -0.5 * spec.total_width, [], []
        for h, w in spec.segments:
            alpha, beta = _rectangular_at_origin(h, w, k)
            alphas.append(alpha)
            betas.append(translate(beta, k, left + 0.5 * w))
            left += w
        alphas, betas = np.stack(alphas, axis=-1), np.stack(betas, axis=-1)
        check_pairs(alphas, betas)
        return fold(alphas, betas)
    raise DomainError(f"unknown barrier kind: {spec!r}")


def check_wavenumbers(k_values) -> None:
    """Refuse a sweep unless every k is finite and > 0, naming the first bad k
    as a float; a k that is not a number (no dtype) stays a TypeError."""
    k = np.asarray(k_values)
    bad = ~(np.isfinite(k) & (k > 0.0))
    if bad.any():
        raise DomainError(f"wavenumbers must be finite and > 0, got {float(k[bad][0])!r}")


def check_layout(specs: list[BarrierSpec] | tuple[BarrierSpec, ...]) -> None:
    """Reject sequences whose closed supports intersect or are out of order.

    Closed supports mean touching edges count as overlap; two delta
    barriers at the same point are likewise rejected.
    """
    for earlier, later in zip(specs, specs[1:]):
        lo_e, hi_e = support(earlier)
        lo_l, hi_l = support(later)
        if hi_e >= lo_l:
            raise OverlapError(
                f"barrier supports [{lo_e}, {hi_e}] and [{lo_l}, {hi_l}] "
                "intersect or are not position-sorted"
            )


def origin_arrays(specs: list[BarrierSpec] | tuple[BarrierSpec, ...],
                  k_sweep) -> tuple[np.ndarray, np.ndarray]:
    """Exact (alpha, beta) of every barrier centered at the origin, at every
    wavenumber, as complex arrays of shape (len(k_sweep), len(specs)).

    The one build of a scenario, with every refusal that placing makes: the
    wavenumbers, the layout, each barrier's named refusals at the origin and
    the phase range of its position (transfer.check_phase_range), barrier by
    barrier; then one check_pairs over the whole array.  Translation leaves
    alpha as it is and only turns beta (place), so theta_i = asinh|beta_i|,
    T_i and every bound are read here, before it."""
    k = np.asarray(k_sweep, dtype=float)
    check_wavenumbers(k)
    if len(specs) == 0:
        raise EmptySequenceError("a scenario needs at least one barrier")
    check_layout(specs)
    largest = float(np.max(k, initial=0.0))
    alpha = np.empty((k.size, len(specs)), dtype=complex)
    beta = np.empty_like(alpha)
    for i, spec in enumerate(specs):
        alpha[:, i], beta[:, i] = _at_origin(spec, k)
        check_phase_range(largest, spec.position)
    check_pairs(alpha, beta)
    return alpha, beta


def place(specs: list[BarrierSpec] | tuple[BarrierSpec, ...], k: np.ndarray,
          beta: np.ndarray) -> None:
    """Translate each beta column of an origin_arrays build, in place, to its
    barrier's position.  The pairs are not checked again: a unit phase moves
    |beta| by a few ulps.  A column is translated as the contiguous array
    translate takes, so its bits do not depend on the build's layout."""
    for i, spec in enumerate(specs):
        beta[:, i] = translate(np.ascontiguousarray(beta[:, i]), k, spec.position)


def scenario_arrays(specs: list[BarrierSpec] | tuple[BarrierSpec, ...],
                    k_sweep) -> tuple[np.ndarray, np.ndarray]:
    """Exact (alpha, beta) of every barrier at its position, at every
    wavenumber, as complex arrays of shape (len(k_sweep), len(specs)):
    origin_arrays, then place."""
    k = np.asarray(k_sweep, dtype=float)
    alpha, beta = origin_arrays(specs, k)
    place(specs, k, beta)
    return alpha, beta


def transfer_of(spec: BarrierSpec, ctx: WaveContext) -> TransferMatrix:
    """Exact transfer matrix of the barrier at its position (scenario_arrays
    at one k).  Contract values: Delta(lam) has T = 1/(1 + (lam/2k)^2);
    Rectangular(V0, L) below the barrier top has
    T = [1 + V0^2 sinh^2(kappa L) / (4E(V0-E))]^{-1}, kappa = sqrt(V0-E)."""
    alpha, beta = scenario_arrays((spec,), (ctx.k,))
    return TransferMatrix(alpha[0, 0], beta[0, 0])


def scenario_transfer(specs: list[BarrierSpec] | tuple[BarrierSpec, ...],
                      ctx: WaveContext) -> TransferMatrix:
    """Compound matrix of position-sorted, non-overlapping barriers; spatial
    order equals composition order (first barrier leftmost)."""
    alpha, beta = fold(*scenario_arrays(specs, (ctx.k,)))
    return TransferMatrix(alpha[0], beta[0])
