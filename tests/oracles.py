"""Independent numerical oracles used to freeze and cross-check expectations.

Nothing here goes through the bounds engine: the ODE oracle integrates the
stationary wave equation directly, the phase-grid oracles drive raw
complex arithmetic over an exhaustive relative-phase grid, and the
rational two-barrier forms rebuild the n = 2 row of bounds_report from the
five hyperbolic-sum identities (they check their arguments with the
bounds' theta_from_T/R/N, so both refuse the same inputs).  The
random-phase law gives the exact mean of a bounded statistic of the
composed rapidity, against which a sweep's
draw and fold are checked, together with the full-phase draw of sampling
contract version 1 (block_phases, reduced by gauge_rotors; compose_polar
folds it) and a faulty fold that the check must catch.  The exhaustive
reduced-gauge grid search (extremal_phase_search) brackets the interval
edges from the same fold, from_polar builds a matrix from its polar form,
matrices dresses rapidities with a phase assignment through it for the
exact object algebra, mp_theta recomposes one in mpmath, and b_n_iterative
is the plain loop of the Heaviside recursion, the bit-for-bit reference of
bounds.b_n_iterative_rows.
bounds_row_literal writes one row of BoundsColumns out in scalar libm
formulas, apart from the bounds' kernels, and slab_profile_two_branch is
the slab profile that evaluates both branch pairs over every entry, the
bit-for-bit reference of barriers._slab_profile.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import mpmath
import numpy as np
from scipy.integrate import solve_ivp

from compound_barriers import (
    Delta,
    DimensionError,
    DomainError,
    EmptySequenceError,
    HyperbolicParams,
    PhaseAssignment,
    PiecewiseConstant,
    RAPIDITY_LIMIT,
    RapidityOverflowError,
    RapiditySequence,
    Rectangular,
    SweepResult,
    TransferMatrix,
    support,
    theta_from_N,
    theta_from_R,
    theta_from_T,
)
from compound_barriers.transfer import boost_fold

# Width of the thin slab standing in for a delta barrier; the induced
# transmission error is O(width), far below the 1e-6 oracle tolerance.
DELTA_REGULARIZATION_WIDTH = 1e-7


def ode_transmission(pieces: list[tuple[float, float, float]], k: float) -> float:
    """T from direct integration of psi'' = (V - E) psi, E = k^2.

    ``pieces`` are (x_lo, x_hi, V) constant intervals, sorted and
    contiguous where it matters.  Integration runs right to left from a
    purely transmitted wave; the incident amplitude is read off on the
    left.
    """
    e = k * k
    x_right = pieces[-1][1]
    x_left = pieces[0][0]
    state = np.array([np.exp(1j * k * x_right), 1j * k * np.exp(1j * k * x_right)])
    for lo, hi, v in reversed(pieces):
        def rhs(x, y, v=v):
            return [y[1], (v - e) * y[0]]
        sol = solve_ivp(rhs, (hi, lo), state, rtol=1e-11, atol=1e-13, method="DOP853")
        state = sol.y[:, -1]
    psi, dpsi = state
    incident = 0.5 * (psi + dpsi / (1j * k)) * np.exp(-1j * k * x_left)
    return 1.0 / abs(incident) ** 2


def pieces_for(specs) -> list[tuple[float, float, float]]:
    """Constant-potential pieces (gaps included) covering a barrier list."""
    pieces: list[tuple[float, float, float]] = []
    cursor = None
    for spec in specs:
        lo, hi = support(spec)
        if cursor is not None and lo > cursor:
            pieces.append((cursor, lo, 0.0))
        if isinstance(spec, Rectangular):
            pieces.append((lo, hi, spec.height))
        elif isinstance(spec, Delta):
            w = DELTA_REGULARIZATION_WIDTH
            pieces.append((spec.position - 0.5 * w, spec.position + 0.5 * w,
                           spec.strength / w))
        elif isinstance(spec, PiecewiseConstant):
            x = lo
            for h, w in spec.segments:
                pieces.append((x, x + w, h))
                x += w
        else:
            raise TypeError(f"no oracle pieces for {spec!r}")
        cursor = support(spec)[1]
    return pieces


# ---------------------------------------------------------------------------
# the random-phase law
# ---------------------------------------------------------------------------

def block_phases(seed: int, block: int, count: int, n: int) -> np.ndarray:
    """Sampling contract version 1: the (count, n, 2) phases (phi_alpha,
    phi_beta) ~ U[-pi, pi) that block ``block`` of a sweep seeded ``seed``
    drew, to be reduced to rotors by gauge_rotors."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(block,))))
    return rng.uniform(-math.pi, math.pi, size=(count, n, 2))


def gauge_rotors(phases):
    """Rotors rho_i = e^{2i w_i} of (samples, n, 2) phases (phi_alpha, phi_beta):
    a C-contiguous (n-1, samples) complex array, so a fold reads each row in
    order, written over the block's own memory (the phases are consumed).

    Factor i is R(u_i) B(theta_i) R(v_i), with R(x) = diag(e^{ix}, e^{-ix}),
    B the real boost, u = (phi_alpha + phi_beta)/2, v = (phi_alpha - phi_beta)/2.
    The outer R(u_1), R(v_n) only rotate alpha_total, so |alpha_total| sees
    the n-1 relative angles w_i = v_i + u_{i+1} alone: one cos and one sin
    of w_i per gap, then squared (numpy's cos and sin take ~30% longer on
    2 w_i, whose range is twice as wide)."""
    samples, n = phases.shape[:2]
    w = np.add(phases[:, 1:, 0].T, phases[:, 1:, 1].T, out=np.empty((n - 1, samples)))
    w += phases[:, :-1, 0].T
    w -= phases[:, :-1, 1].T
    w *= 0.5
    rho = phases.reshape(-1)[:2 * w.size].view(complex).reshape(w.shape)
    np.cos(w, out=rho.real)
    np.sin(w, out=rho.imag)
    rho *= rho
    return rho


def compose_polar(thetas, phi_alpha, phi_beta):
    """Composed rapidity of each row of (samples, n) phase arrays, unguarded:
    factor i of row j is cosh(theta_i) e^{i phi_alpha[j,i]}, sinh(theta_i) e^{i phi_beta[j,i]}.
    Evaluated in the reduced gauge: boost_fold(thetas, gauge_rotors(...))."""
    return boost_fold(thetas, gauge_rotors(np.stack([phi_alpha, phi_beta], axis=-1, dtype=float)))


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


def legendre_half(theta):
    """P_{-1/2}(cosh 2 theta) = 1/AGM(1, cosh theta), in (0, 1], elementwise.

    The AGM lies between the two means, and the iteration converges
    quadratically; it stops once they agree to 1e-15 relatively."""
    a, g = np.ones_like(theta, dtype=float), np.cosh(theta)
    while np.any(np.abs(a - g) > 1e-15 * a):
        a, g = 0.5 * (a + g), np.sqrt(a * g)
    return 1.0 / a


def legendre_half_product(thetas) -> float:
    """E[P_{-1/2}(cosh 2 theta_total)] under uniform random phases.

    One composition step gives cosh 2x' = cosh 2x cosh 2t + sinh 2x sinh 2t
    cos psi with psi uniform, so by the product formula of the Legendre
    functions (DLMF 14.18) E[P_nu(cosh 2 theta_total)] = prod_i
    P_nu(cosh 2 theta_i) for every nu."""
    return math.prod(legendre_half(np.asarray(thetas, float)).tolist())


def fold_rotating_b(thetas, rho):
    """transfer.boost_fold with one fault: each step also rotates b by its
    rotor (b <- tau q + b rho, not tau q + b).  On (1, 0.2, 0.7, 0.5) its
    rapidities stay inside [B_n, S_n], so containment alone does not catch
    it there."""
    taus = np.tanh(np.asarray(thetas, float))
    a = np.ones(rho.shape[1:], complex)
    b = np.full(rho.shape[1:], taus[0], complex)
    for tau, r in zip(taus[1:], rho):
        q = a * r
        a, b = q + tau * b, tau * q + b * r
    return np.arcsinh(np.abs(b) * math.prod(np.cosh(thetas).tolist()))


def grid_T_interval(T1: float, T2: float, points: int = 20000) -> tuple[float, float]:
    """Exhaustive sweep of the one relevant phase for two barriers.

    Pure arithmetic: |alpha_i| = 1/sqrt(T_i), |beta_i| = sqrt((1-T_i)/T_i),
    |alpha_12(phi)| = |a1 a2 + b1 b2 e^{i phi}|, T = 1/|alpha_12|^2.
    """
    a1, a2 = 1.0 / math.sqrt(T1), 1.0 / math.sqrt(T2)
    b1, b2 = math.sqrt((1.0 - T1) / T1), math.sqrt((1.0 - T2) / T2)
    phi = np.linspace(-np.pi, np.pi, points, endpoint=False)
    mod2 = np.abs(a1 * a2 + b1 * b2 * np.exp(1j * phi)) ** 2
    t = 1.0 / mod2
    return float(t.min()), float(t.max())


def grid_N_interval(N1: float, N2: float, points: int = 20000) -> tuple[float, float]:
    """Same sweep for particle production: |beta_12(phi)|^2.

    |alpha_i| = sqrt(N_i + 1), |beta_i| = sqrt(N_i),
    |beta_12(phi)| = |a1 b2 + b1 a2 e^{i phi}|.
    """
    a1, a2 = math.sqrt(N1 + 1.0), math.sqrt(N2 + 1.0)
    b1, b2 = math.sqrt(N1), math.sqrt(N2)
    phi = np.linspace(-np.pi, np.pi, points, endpoint=False)
    n = np.abs(a1 * b2 + b1 * a2 * np.exp(1j * phi)) ** 2
    return float(n.min()), float(n.max())


# ---------------------------------------------------------------------------
# exact object algebra, the reduced-gauge grid and the literal recursion
# ---------------------------------------------------------------------------

def from_polar(p: HyperbolicParams) -> TransferMatrix:
    """The matrix cosh(theta) e^{i phi_alpha}, sinh(theta) e^{i phi_beta}, in
    plain complex arithmetic; refuses theta beyond RAPIDITY_LIMIT."""
    if p.theta > RAPIDITY_LIMIT:
        raise RapidityOverflowError(
            f"theta = {p.theta!r} exceeds trusted range {RAPIDITY_LIMIT}"
        )
    return TransferMatrix(
        cmath.rect(math.cosh(p.theta), p.phi_alpha),
        cmath.rect(math.sinh(p.theta), p.phi_beta),
    )


def matrices(assignment: PhaseAssignment, seq: RapiditySequence):
    """Dress the rapidities with these phases (exact object algebra)."""
    if len(assignment) != len(seq):
        raise DomainError(
            f"{len(assignment)} phase pairs for {len(seq)} rapidities"
        )
    return [
        from_polar(HyperbolicParams(t, pa, pb))
        for t, (pa, pb) in zip(seq.thetas, assignment.phis)
    ]


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


def b_n_iterative(seq: RapiditySequence) -> float:
    """Lower edge B_n by the Heaviside recursion.

        B_1 = theta_1,
        B_{m+1} = (t - S_m) H(t - S_m) + (B_m - t) H(B_m - t),  t = theta_{m+1}.

    Kept deliberately literal as an independent route to b_n_closed.
    """
    if len(seq) == 0:
        raise EmptySequenceError("B_n needs at least one rapidity")

    def heaviside(x: float) -> float:
        return 1.0 if x > 0.0 else 0.0

    b = seq.thetas[0]
    s = seq.thetas[0]
    for t in seq.thetas[1:]:
        b = (t - s) * heaviside(t - s) + (b - t) * heaviside(b - t)
        s += t
    return b


def bounds_row_literal(row: Sequence[float]) -> list[float]:
    """One row of BoundsColumns by the literal scalar formulas, libm per value:

        [S_n, B_n, theta_peak, T_min, T_upper, R_low, R_high, N_low, N_high,
         T_peak, threshold, T_classical, T_1, ..., T_n]

    with sech^2 t = (2 e / (1 + e^2))^2, e = exp(-t), S_n by fsum and
    T_classical by math.prod, written out apart from the bounds' kernels.
    """

    def sech2(t: float) -> float:
        e = math.exp(-t)
        sech = 2.0 * e / (1.0 + e * e)
        return sech * sech

    def tanh2(t: float) -> float:
        th = math.tanh(t)
        return th * th

    def sinh2(t: float) -> float:
        sh = math.sinh(t)
        return sh * sh

    s, peak = math.fsum(row), max(row)
    b = max(2.0 * peak - s, 0.0)
    ts = [sech2(t) for t in row]
    root = math.sqrt(sech2(s))
    return [s, b, peak, sech2(s), sech2(b), tanh2(b), tanh2(s), sinh2(b), sinh2(s),
            sech2(peak), 2.0 * root / (1.0 + root), math.prod(ts), *ts]


def slab_profile_two_branch(u: np.ndarray, length: float) -> tuple[np.ndarray, np.ndarray]:
    """barriers._slab_profile as it was before it took each branch only where
    it applies: both pairs, cosh/sinh and cos/sin, over every entry, picked by
    np.where; the bit-for-bit reference of the one-branch-per-entry form."""
    series = np.abs(u) * length * length < 1e-12
    w = np.sqrt(np.abs(u))
    wl = w * length
    hyper = (u > 0.0) & ~series
    worst = wl[hyper].max(initial=0.0)
    if worst > RAPIDITY_LIMIT:
        raise RapidityOverflowError(f"slab opacity kappa*L = {worst!r} exceeds trusted "
                                    f"range {RAPIDITY_LIMIT}")
    hyp, trig = np.where(hyper, wl, 0.0), np.where(hyper, 0.0, wl)  # no cosh overflow
    c = np.where(hyper, np.cosh(hyp), np.cos(trig))
    s = np.where(hyper, np.sinh(hyp), np.sin(trig)) / np.where(series, 1.0, w)
    # series in u L^2: C = 1 + uL^2/2, S = L (1 + uL^2/6)
    c = np.where(series, 1.0 + 0.5 * u * length * length, c)
    s = np.where(series, length * (1.0 + u * length * length / 6.0), s)
    return c, s


# ---------------------------------------------------------------------------
# closed forms of hyperbolic functions of summed inverses: the algebra that
# turns the rapidity-space bounds into rational expressions in T, R, N
# ---------------------------------------------------------------------------

def _check_finite(a: float, b: float) -> None:
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"arguments must be finite, got {a!r}, {b!r}")


def sinh_sum_asinh(a: float, b: float) -> float:
    """sinh(asinh a + asinh b) = a sqrt(1+b^2) + b sqrt(1+a^2)."""
    _check_finite(a, b)
    return a * math.sqrt(1.0 + b * b) + b * math.sqrt(1.0 + a * a)


def cosh_sum_asinh(a: float, b: float) -> float:
    """cosh(asinh a + asinh b) = sqrt(1+a^2) sqrt(1+b^2) + a b."""
    _check_finite(a, b)
    return math.sqrt(1.0 + a * a) * math.sqrt(1.0 + b * b) + a * b


def cosh_sum_acosh(a: float, b: float) -> float:
    """cosh(acosh a + acosh b) = a b + sqrt(a^2-1) sqrt(b^2-1), for a, b >= 1."""
    _check_finite(a, b)
    if a < 1.0 or b < 1.0:
        raise DomainError(f"acosh arguments must be >= 1, got {a!r}, {b!r}")
    return a * b + math.sqrt(a * a - 1.0) * math.sqrt(b * b - 1.0)


def tanh_sum_atanh(a: float, b: float) -> float:
    """tanh(atanh a + atanh b) = (a + b)/(1 + a b), for |a|, |b| < 1."""
    _check_finite(a, b)
    if abs(a) >= 1.0 or abs(b) >= 1.0:
        raise DomainError(f"atanh arguments must satisfy |x| < 1, got {a!r}, {b!r}")
    return (a + b) / (1.0 + a * b)


def sech_sum_asech(a: float, b: float) -> float:
    """sech(asech a + asech b) = a b / (1 + sqrt(1-a^2) sqrt(1-b^2)).

    Domain a, b in (0, 1].  Follows from the acosh identity applied to the
    reciprocals, which is what makes the rational transmission bound work.
    """
    _check_finite(a, b)
    if not (0.0 < a <= 1.0 and 0.0 < b <= 1.0):
        raise DomainError(f"asech arguments must lie in (0, 1], got {a!r}, {b!r}")
    return a * b / (1.0 + math.sqrt(1.0 - a * a) * math.sqrt(1.0 - b * b))


# ---------------------------------------------------------------------------
# rational two-barrier forms, cross-checks of bounds_report on two barriers
# ---------------------------------------------------------------------------

def two_barrier_T_bounds_rational(T1: float, T2: float) -> tuple[float, float]:
    """Rational-algebraic cross-check of the two-barrier T interval, the
    n = 2 row of bounds_report.

        T_low  = T1 T2 / (1 + sqrt(1-T1) sqrt(1-T2))^2
        T_high = min(1, T1 T2 / (1 - sqrt(1-T1) sqrt(1-T2))^2)

    The subtracted denominator is evaluated as
    (T1 + T2 - T1 T2) / (1 + sqrt(1-T1) sqrt(1-T2)) to dodge cancellation
    for small T.  T1 == T2 yields exactly 1 (the 0-width resonance case).
    """
    theta_from_T(T1)  # refuses what the bounds refuse
    theta_from_T(T2)
    s1s2 = math.sqrt(1.0 - T1) * math.sqrt(1.0 - T2)
    low = T1 * T2 / (1.0 + s1s2) ** 2
    if T1 == T2:
        high = 1.0
    else:
        denom = (T1 + T2 - T1 * T2) / (1.0 + s1s2)
        high = min(1.0, T1 * T2 / (denom * denom))
    return low, high


def two_barrier_R_bounds_rational(R1: float, R2: float) -> tuple[float, float]:
    """Rational-algebraic cross-check of the two-barrier R interval, the
    n = 2 row of bounds_report.

        R_high = ((sqrt R1 + sqrt R2) / (1 + sqrt(R1 R2)))^2
        R_low  = ((sqrt R1 - sqrt R2) / (1 - sqrt(R1 R2)))^2

    Differences are evaluated cancellation-free; equal reflections give an
    exact lower edge of 0 (total destructive interference is possible).
    """
    theta_from_R(R1)  # refuses what the bounds refuse
    theta_from_R(R2)
    r1, r2 = math.sqrt(R1), math.sqrt(R2)
    high = ((r1 + r2) / (1.0 + r1 * r2)) ** 2
    if R1 == R2:
        low = 0.0
    else:
        num = (R1 - R2) / (r1 + r2)
        den = (1.0 - R1 * R2) / (1.0 + r1 * r2)
        low = (num / den) ** 2
    return low, high


def two_barrier_N_bounds_rational(N1: float, N2: float) -> tuple[float, float]:
    """Rational-algebraic cross-check of the two-barrier N interval, the
    n = 2 row of bounds_report.

        N_hi/lo = (sqrt(N1 (N2+1)) +- sqrt(N2 (N1+1)))^2

    expanded to N1 + N2 + 2 N1 N2 +- 2 sqrt(N1 N2 (N1+1)(N2+1)), which for
    the difference is evaluated through (N1 - N2)/(x + y) to stay exact
    near N1 = N2.
    """
    theta_from_N(N1)  # refuses what the bounds refuse
    theta_from_N(N2)
    x = math.sqrt(N1 * (N2 + 1.0))
    y = math.sqrt(N2 * (N1 + 1.0))
    if x + y == 0.0:
        return 0.0, 0.0
    low = ((N1 - N2) / (x + y)) ** 2
    high = N1 + N2 + 2.0 * N1 * N2 + 2.0 * math.sqrt(N1 * N2 * (N1 + 1.0) * (N2 + 1.0))
    return low, high
