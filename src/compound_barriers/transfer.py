"""Exact transfer-matrix algebra for 1D scattering / parametric excitation.

A barrier (or excitation episode) is represented by the pair of Bogoliubov
coefficients (alpha, beta) of the 2x2 matrix

    M = [[alpha, beta], [beta*, alpha*]],     |alpha|^2 - |beta|^2 = 1,

which always admits the polar form

    alpha = cosh(theta) e^{i phi_alpha},  beta = sinh(theta) e^{i phi_beta},

with rapidity theta = acosh|alpha| >= 0.  Conventions used throughout:

* compound systems compose left-to-right: the first matrix is the first
  barrier encountered, M_total = M_1 M_2 ... M_n (order matters);
* translating a barrier by a multiplies beta by e^{+2ika} and leaves alpha
  untouched, so theta, T, R and N are position independent;
* amplitudes are taken as t = 1/alpha = sech(theta) e^{-i phi_alpha} and
  r = beta/alpha = tanh(theta) e^{-i(phi_alpha - phi_beta)}.

The algebra is array-valued (an entry per wavenumber, sample, ...); the scalar
API wraps it.  No function keeps state, and each leaves its arguments as they
were, except gauge_rotors, which turns the phase block it is given into rotors
in place; so concurrent calls are safe unless they share such a block.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    DomainError,
    EmptySequenceError,
    NormalizationError,
    RapidityOverflowError,
)

# Absolute tolerance on |alpha|^2 - |beta|^2 - 1 for externally supplied
# coefficients (desk scale, theta <= 20 keeps doubles far inside this).
NORM_TOL = 1e-10

# Rapidities beyond this are refused outright: cosh overflows doubles near
# 710 and composition round-off is already enormous well before that.
RAPIDITY_LIMIT = 350.0

# Composition results are only rejected when the invariant error exceeds
# what honest double-precision round-off could produce, i.e. when the
# entries are numerically meaningless (catastrophic cancellation from a
# huge intermediate rapidity collapsing back to order one).
_SANITY_TOL = 1e-6

_TWO_PI = 2.0 * math.pi


def _wrap_angle(phi: float) -> float:
    """Reduce an angle to the principal branch (-pi, pi]."""
    m = math.fmod(phi, _TWO_PI)
    if m <= -math.pi:
        m += _TWO_PI
    elif m > math.pi:
        m -= _TWO_PI
    return m


def _finite(*zs) -> bool:
    return all(np.isfinite(z).all() for z in zs)


def product(a1, b1, a2, b2):
    """M1 M2 (M1 traversed first), unchecked: alpha = a1 a2 + b1 b2*, beta =
    a1 b2 + b1 a2*.  The one implementation of the group law, elementwise on
    complex numbers and broadcastable complex arrays alike."""
    return a1 * a2 + b1 * b2.conjugate(), a1 * b2 + b1 * a2.conjugate()


def check_pairs(alpha, beta) -> None:
    """Validate pairs elementwise, once per array: DomainError if non-finite,
    NormalizationError if | |alpha|^2 - |beta|^2 - 1 | > _SANITY_TOL max(1, |alpha|^2)."""
    if not _finite(alpha, beta):
        raise DomainError(f"non-finite Bogoliubov coefficients: alpha={alpha}, beta={beta}")
    with np.errstate(over="ignore", invalid="ignore"):
        a2 = alpha.real * alpha.real + alpha.imag * alpha.imag
        err = np.abs(a2 - (beta.real * beta.real + beta.imag * beta.imag) - 1.0)
        if (err > _SANITY_TOL * np.maximum(1.0, a2)).any():
            raise NormalizationError(f"|alpha|^2 - |beta|^2 off 1 by {np.max(err)!r}")


def _guarded_product(a1, b1, a2, b2):
    """product() under the guards of a composition step (RapidityOverflowError)."""
    with np.errstate(over="ignore", invalid="ignore"):
        alpha, beta = product(a1, b1, a2, b2)
    if not _finite(alpha, beta):
        raise RapidityOverflowError("composition overflowed double precision")
    if (np.abs(alpha) > math.cosh(RAPIDITY_LIMIT)).any():
        raise RapidityOverflowError(f"composed rapidity exceeds trusted range {RAPIDITY_LIMIT}")
    return alpha, beta


def fold(alpha, beta):
    """Left-to-right product along the last axis, (..., n) -> (...): every
    M1 M2 ... Mn at once, each step guarded and validated as compose does."""
    if np.shape(alpha)[-1] == 0:
        raise EmptySequenceError("cannot compose an empty sequence of matrices")
    a, b = alpha[..., 0], beta[..., 0]
    for i in range(1, np.shape(alpha)[-1]):
        a, b = _guarded_product(a, b, alpha[..., i], beta[..., i])
        check_pairs(a, b)
    return a, b


def rapidity(alpha):
    """theta = acosh|alpha| elementwise, float noise below |alpha| = 1 clamped."""
    return np.arccosh(np.maximum(np.abs(alpha), 1.0))


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


def boost_fold(thetas, rho):
    """Composed rapidity of B(theta_1) R(w_1) B(theta_2) ... R(w_{n-1}) B(theta_n)
    per column of the (n-1, samples) rotors rho = e^{2iw}, unguarded.

    Step i multiplies (a, b) by the pair (cosh theta_i e^{iw_i}, sinh theta_i
    e^{iw_i}); by product() that is cosh theta_i e^{-iw_i} (a rho_i + tau_i b,
    tau_i a rho_i + b) with tau = tanh theta.  The common phase is a left
    rotation and the common factor a scale, which only rotate and scale
    alpha_total, so each step drops both: q = a rho_i, a <- q + tau_i b,
    b <- tau_i q + b, one complex multiply per sample, and at the end
    |alpha_total| = |a| prod cosh theta_i.  From (1, tanh theta_1)."""
    taus = np.tanh(thetas)
    a = np.ones(rho.shape[1], complex)
    b = np.full_like(a, taus[0])
    q = np.empty_like(a)
    a_re, b_re, q_re = a.view(float), b.view(float), q.view(float)  # real scalings
    for tau, r in zip(taus[1:], rho):
        np.multiply(a, r, out=q)
        np.multiply(b_re, tau, out=a_re)
        a += q
        q_re *= tau
        b += q
    modulus = np.abs(a)
    modulus *= np.prod(np.cosh(thetas))
    return rapidity(modulus)


def compose_polar(thetas, phi_alpha, phi_beta):
    """Composed rapidity of each row of (samples, n) phase arrays, unguarded:
    factor i of row j is cosh(theta_i) e^{i phi_alpha[j,i]}, sinh(theta_i) e^{i phi_beta[j,i]}.
    Evaluated in the reduced gauge: boost_fold(thetas, gauge_rotors(...))."""
    return boost_fold(thetas, gauge_rotors(np.stack([phi_alpha, phi_beta], axis=-1, dtype=float)))


def translate(beta, k, a):
    """beta of the barrier moved by a at wavenumber k: beta e^{+2ika}."""
    return beta * np.exp(2j * k * a)


def scattering_amplitudes(alpha, beta):
    """t = 1/alpha, r = beta/alpha elementwise, checked as ScatteringAmplitudes."""
    t, r = 1.0 / alpha, beta / alpha
    _check_unitarity(t, r)
    return t, r


def _check_unitarity(t, r) -> None:
    if not _finite(t, r):
        raise DomainError("non-finite amplitudes")
    total = np.abs(t) ** 2 + np.abs(r) ** 2
    if (np.abs(total - 1.0) > 10 * NORM_TOL).any():
        raise NormalizationError(f"|t|^2 + |r|^2 off 1 by {np.max(np.abs(total - 1.0))!r}")


@dataclass(frozen=True, slots=True)
class TransferMatrix:
    """Validated Bogoliubov pair (alpha, beta) with |alpha|^2 - |beta|^2 = 1.

    Construction sanity-checks the invariant at a loose, scale-aware
    tolerance that only trips on numerically meaningless data; use
    :func:`make_transfer` to enforce the strict normalization contract on
    externally supplied coefficients.
    """

    alpha: complex
    beta: complex

    def __post_init__(self):
        a = complex(self.alpha)
        b = complex(self.beta)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        check_pairs(a, b)


@dataclass(frozen=True, slots=True)
class HyperbolicParams:
    """Polar form (theta, phi_alpha, phi_beta); phases stored in (-pi, pi].

    A phase whose modulus vanishes carries no information and is normalized
    to 0 by :func:`to_polar`.
    """

    theta: float
    phi_alpha: float
    phi_beta: float

    def __post_init__(self):
        t = float(self.theta)
        if not math.isfinite(t) or t < 0.0:
            raise DomainError(f"rapidity must be finite and >= 0, got {self.theta!r}")
        for name in ("phi_alpha", "phi_beta"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, _wrap_angle(v))
        object.__setattr__(self, "theta", t)


@dataclass(frozen=True, slots=True)
class ScatteringAmplitudes:
    """Transmission/reflection amplitude pair with |t|^2 + |r|^2 = 1."""

    t: complex
    r: complex

    def __post_init__(self):
        _check_unitarity(self.t, self.r)

    @property
    def T(self) -> float:
        return abs(self.t) ** 2

    @property
    def R(self) -> float:
        return abs(self.r) ** 2


def make_transfer(alpha: complex, beta: complex) -> TransferMatrix:
    """Validate raw Bogoliubov coefficients into a TransferMatrix.

    Raises NormalizationError when | |alpha|^2 - |beta|^2 - 1 | > NORM_TOL;
    this strict absolute check is meant for desk-scale input, construct via
    from_polar for large rapidities.
    """
    m = TransferMatrix(alpha, beta)
    err = abs(m.alpha) ** 2 - abs(m.beta) ** 2 - 1.0
    if abs(err) > NORM_TOL:
        raise NormalizationError(
            f"|alpha|^2 - |beta|^2 - 1 = {err!r} exceeds tolerance {NORM_TOL}"
        )
    return m


IDENTITY = TransferMatrix(1.0 + 0.0j, 0.0j)


def from_polar(p: HyperbolicParams) -> TransferMatrix:
    """Build the matrix cosh(theta) e^{i phi_alpha}, sinh(theta) e^{i phi_beta}.

    Normalized by construction; refuses theta beyond RAPIDITY_LIMIT.
    """
    if p.theta > RAPIDITY_LIMIT:
        raise RapidityOverflowError(
            f"theta = {p.theta!r} exceeds trusted range {RAPIDITY_LIMIT}"
        )
    return TransferMatrix(
        cmath.rect(math.cosh(p.theta), p.phi_alpha),
        cmath.rect(math.sinh(p.theta), p.phi_beta),
    )


def to_polar(m: TransferMatrix) -> HyperbolicParams:
    """Invert from_polar: theta = acosh|alpha| (clamped), phases = args.

    math's abs/acosh, not rapidity(): they can differ from numpy's in the
    last ulp, and attain's edge constructions turn one ulp of theta into
    ~1e-8 of phase.  beta == 0 yields phi_beta = 0.
    """
    theta = math.acosh(max(abs(m.alpha), 1.0))
    phi_alpha = _wrap_angle(cmath.phase(m.alpha))
    phi_beta = _wrap_angle(cmath.phase(m.beta)) if m.beta != 0 else 0.0
    return HyperbolicParams(theta, phi_alpha, phi_beta)


def compose(m1: TransferMatrix, m2: TransferMatrix) -> TransferMatrix:
    """Product M1 M2 (M1 traversed first, see :func:`product`); raises
    RapidityOverflowError beyond the trusted range, NormalizationError on
    catastrophic float loss."""
    return TransferMatrix(*_guarded_product(m1.alpha, m1.beta, m2.alpha, m2.beta))


def compose_sequence(ms: list[TransferMatrix] | tuple[TransferMatrix, ...]) -> TransferMatrix:
    """Left-to-right fold of compose; [M1, ..., Mn] -> M1 M2 ... Mn."""
    if len(ms) == 0:
        raise EmptySequenceError("cannot compose an empty sequence of matrices")
    return reduce(compose, ms)


def shift(m: TransferMatrix, k: float, a: float) -> TransferMatrix:
    """Translate the barrier by a at wavenumber k (see :func:`translate`);
    alpha (hence theta, T, R, N) is untouched."""
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(f"wavenumber must be finite and > 0, got {k!r}")
    if not math.isfinite(a):
        raise DomainError(f"displacement must be finite, got {a!r}")
    return TransferMatrix(m.alpha, translate(m.beta, k, a))


def amplitudes(m: TransferMatrix) -> ScatteringAmplitudes:
    """Amplitudes t = 1/alpha, r = beta/alpha (so T = 1/|alpha|^2, T + R = 1)."""
    return ScatteringAmplitudes(*scattering_amplitudes(m.alpha, m.beta))


def particle_number(m: TransferMatrix) -> float:
    """Quanta excited by this episode acting alone: N = |beta|^2 = sinh^2(theta)."""
    return abs(m.beta) ** 2
