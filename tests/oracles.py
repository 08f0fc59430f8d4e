"""Independent numerical oracles used to freeze and cross-check expectations.

Nothing here goes through the bounds engine: the ODE oracle integrates the
stationary wave equation directly, the phase-grid oracle drives raw
complex arithmetic over an exhaustive relative-phase grid, and the
rational two-barrier forms rebuild the hyperbolic ones from the five
hyperbolic-sum identities (they share only the bounds' domain checks, so
both refuse the same inputs).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

from compound_barriers import Delta, DomainError, PiecewiseConstant, Rectangular, support
from compound_barriers.bounds import _check_N, _check_R, _check_T

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
# rational two-barrier forms, cross-checks of bounds.two_barrier_*_bounds
# ---------------------------------------------------------------------------

def two_barrier_T_bounds_rational(T1: float, T2: float) -> tuple[float, float]:
    """Rational-algebraic cross-check of two_barrier_T_bounds.

        T_low  = T1 T2 / (1 + sqrt(1-T1) sqrt(1-T2))^2
        T_high = min(1, T1 T2 / (1 - sqrt(1-T1) sqrt(1-T2))^2)

    The subtracted denominator is evaluated as
    (T1 + T2 - T1 T2) / (1 + sqrt(1-T1) sqrt(1-T2)) to dodge cancellation
    for small T.  T1 == T2 yields exactly 1 (the 0-width resonance case).
    """
    _check_T(T1, "T1")
    _check_T(T2, "T2")
    s1s2 = math.sqrt(1.0 - T1) * math.sqrt(1.0 - T2)
    low = T1 * T2 / (1.0 + s1s2) ** 2
    if T1 == T2:
        high = 1.0
    else:
        denom = (T1 + T2 - T1 * T2) / (1.0 + s1s2)
        high = min(1.0, T1 * T2 / (denom * denom))
    return low, high


def two_barrier_R_bounds_rational(R1: float, R2: float) -> tuple[float, float]:
    """Rational-algebraic cross-check of two_barrier_R_bounds.

        R_high = ((sqrt R1 + sqrt R2) / (1 + sqrt(R1 R2)))^2
        R_low  = ((sqrt R1 - sqrt R2) / (1 - sqrt(R1 R2)))^2

    Differences are evaluated cancellation-free; equal reflections give an
    exact lower edge of 0 (total destructive interference is possible).
    """
    _check_R(R1, "R1")
    _check_R(R2, "R2")
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
    """Rational-algebraic cross-check of two_barrier_N_bounds.

        N_hi/lo = (sqrt(N1 (N2+1)) +- sqrt(N2 (N1+1)))^2

    expanded to N1 + N2 + 2 N1 N2 +- 2 sqrt(N1 N2 (N1+1)(N2+1)), which for
    the difference is evaluated through (N1 - N2)/(x + y) to stay exact
    near N1 = N2.
    """
    _check_N(N1, "N1")
    _check_N(N2, "N2")
    x = math.sqrt(N1 * (N2 + 1.0))
    y = math.sqrt(N2 * (N1 + 1.0))
    if x + y == 0.0:
        return 0.0, 0.0
    low = ((N1 - N2) / (x + y)) ** 2
    high = N1 + N2 + 2.0 * N1 * N2 + 2.0 * math.sqrt(N1 * N2 * (N1 + 1.0) * (N2 + 1.0))
    return low, high
