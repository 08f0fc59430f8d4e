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

The algebra is array-valued (an entry per wavenumber, sample, ...).  The
scalar API (TransferMatrix, compose, to_polar, amplitudes) is its one-element
calls: numpy's loops give an element the same bits whatever the array's
length, so a scalar result equals the array entry bit for bit.  No function
keeps state, and each leaves its arguments as they were, except boost_fold,
which works in the scratch array it may be given; so concurrent calls are
safe unless they share such an array.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    EmptySequenceError,
    NormalizationError,
    RapidityOverflowError,
)

# Absolute tolerance on |alpha|^2 - |beta|^2 - 1 that desk-scale coefficients
# meet (theta <= 20 keeps doubles far inside this); amplitudes are checked to
# 10 NORM_TOL.
NORM_TOL = 1e-10

# Rapidities beyond this are refused outright: cosh overflows doubles near
# 710 and composition round-off is already enormous well before that.
RAPIDITY_LIMIT = 350.0

# Composition results are only rejected when the invariant error exceeds
# what honest double-precision round-off could produce, i.e. when the
# entries are numerically meaningless (catastrophic cancellation from a
# huge intermediate rapidity collapsing back to order one).
_SANITY_TOL = 1e-6

# |alpha|^2 above cosh^2(RAPIDITY_LIMIT) is refused; the 8 ulps of slack let
# every pair (cosh e^{i phi}, sinh e^{i psi}) at RAPIDITY_LIMIT pass, whatever
# its phase (|cosh e^{i phi}|^2 comes out up to 2 ulps above the rounded cosh^2).
_ALPHA2_LIMIT = math.cosh(RAPIDITY_LIMIT) ** 2 * (1.0 + 8 * float(np.finfo(float).eps))

_TWO_PI = 2.0 * math.pi

# translate takes k up to this / max(1, |a|), so that 2 k a stays within half
# the largest double.
_PHASE_LIMIT = float(np.finfo(float).max) / 4.0


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
    """Validate pairs elementwise, once per array (scalars are taken as
    arrays): DomainError if non-finite, RapidityOverflowError if |alpha|^2 >
    _ALPHA2_LIMIT, NormalizationError if | |alpha|^2 - |beta|^2 - 1 | >
    _SANITY_TOL max(1, |alpha|^2).  A checked pair has a finite |alpha|^2,
    so the product of two cannot overflow."""
    if not _finite(alpha, beta):
        raise DomainError(f"non-finite Bogoliubov coefficients: alpha={alpha}, beta={beta}")
    alpha, beta = np.asarray(alpha), np.asarray(beta)
    with np.errstate(over="ignore", invalid="ignore"):
        a2 = alpha.real * alpha.real + alpha.imag * alpha.imag
        if (a2 > _ALPHA2_LIMIT).any():
            raise RapidityOverflowError(f"|alpha| = {float(np.max(np.abs(alpha)))!r} exceeds "
                                        f"cosh({RAPIDITY_LIMIT}), the trusted range")
        err = np.abs(a2 - (beta.real * beta.real + beta.imag * beta.imag) - 1.0)
        if (err > _SANITY_TOL * np.maximum(1.0, a2)).any():
            raise NormalizationError(f"|alpha|^2 - |beta|^2 off 1 by {float(np.max(err))!r}")


def fold(alpha, beta):
    """Left-to-right product along the last axis, (..., n) -> (...): every
    M1 M2 ... Mn at once, of pairs that passed check_pairs, each step checked
    as compose does."""
    if np.shape(alpha)[-1] == 0:
        raise EmptySequenceError("cannot compose an empty sequence of matrices")
    a, b = alpha[..., 0], beta[..., 0]
    for i in range(1, np.shape(alpha)[-1]):
        a, b = product(a, b, alpha[..., i], beta[..., i])
        check_pairs(a, b)
    return a, b


def rapidity(alpha):
    """theta = acosh|alpha| elementwise, float noise below |alpha| = 1 clamped."""
    return np.arccosh(np.maximum(np.abs(alpha), 1.0))


def boost_fold(thetas, rho, work=None):
    """Composed rapidity of B(theta_1) R(w_1) B(theta_2) ... R(w_{n-1}) B(theta_n)
    per column of the (n-1, samples) rotors rho = e^{2iw}, unguarded.
    Rapidities (n,) give (samples,); (rows, n), one sequence per row, give
    (rows, samples), each row bit-identical to its own (n,) call, since every
    step is elementwise and runs numpy's same loop at any number of rows.

    Step i multiplies (a, b) by the pair (cosh theta_i e^{iw_i}, sinh theta_i
    e^{iw_i}); by product() that is cosh theta_i e^{-iw_i} (a rho_i + tau_i b,
    tau_i a rho_i + b) with tau = tanh theta.  The common phase is a left
    rotation and the common factor a scale, which only rotate and scale the
    pair, so each step drops both: q = a rho_i, a <- q + tau_i b,
    b <- tau_i q + b, one complex multiply per sample.  From (1, tanh
    theta_1), b ends as beta_total / prod cosh theta_i up to a phase, and the
    rapidity is read as asinh(|b| prod cosh theta_i).  That read resolves a
    rapidity near 0, where acosh|alpha| cannot tell less than sqrt(2 eps)
    from 0: a row of zeros gives b = 0 and exactly 0.

    a, b and q are consecutive thirds of ``work``, a complex scratch array
    of at least 3 rows samples elements, so a caller folding tile after tile
    passes one allocation for all of them (by default one is made).  With
    ``work`` the result is written over q's memory: a view into ``work``,
    valid until the next fold into it; without, it is an array of its own.

    Three passes per step broadcast an operand over the state: a rho row
    over the rows, and a tau column over the samples (twice), as does the
    final scaling by prod cosh theta_i.  numpy runs such a pass through its
    ufunc buffer (8192 elements by default) whenever a row is shorter than
    the buffer, copying the operands in and out; with the buffer no longer
    than a row it runs each row in place.  So the step loop and the final
    scaling run with the buffer cut to the row width, rounded down to a
    multiple of 16 (at least 16, at most 8192).  On one vCPU of a shared
    2-vCPU VM a step of a 6 x 2000 tile took 59 us against 97 us, of a
    12 x 1000 tile 47 us against 74 us.  Below ~48 samples a row, where an
    inner loop per row costs more than the copies, a step is slower (2x at
    16 samples), but such a sweep is short.  Every pass stays elementwise,
    so the bits are unchanged.  The size is set and restored here, on the
    calling thread: numpy keeps it per thread (a helper thread starts at the
    default), and np.errstate scopes it only from numpy 2."""
    taus = np.tanh(thetas)
    shape = taus.shape[:-1] + rho.shape[1:]
    size = math.prod(shape)
    own = work is None
    if own:
        work = np.empty(3 * size, complex)
    a, b, q = (work[i * size:(i + 1) * size].reshape(shape) for i in range(3))
    a.fill(1.0)
    b[...] = taus[..., :1]
    a_re, b_re, q_re = a.view(float), b.view(float), q.view(float)  # real scalings
    old = np.setbufsize(max(16, min(8192, shape[-1] // 16 * 16)))
    try:
        # rho_i as a row of the state's ndim: numpy multiplies a (1, 1) state
        # by a (1,) row in another loop, which rounds otherwise
        rho = np.expand_dims(rho, tuple(range(1, taus.ndim)))
        # tau_i as a column against the (..., samples) state
        for tau, r in zip(np.moveaxis(taus, -1, 0)[1:, ..., None], rho):
            np.multiply(a, r, out=q)
            np.multiply(b_re, tau, out=a_re)
            a += q
            q_re *= tau
            b += q
        # asinh(|b| prod cosh theta_i), written over q when work is the caller's
        theta = np.abs(b, out=None if own else q_re.reshape(-1)[:size].reshape(shape))
        theta *= np.prod(np.cosh(thetas), axis=-1)[..., None]
    finally:
        np.setbufsize(old)
    return np.arcsinh(theta, out=theta)


def check_phase_range(largest: float, a: float) -> None:
    """DomainError unless the phase 2ka of position a stays within double
    precision up to wavenumber ``largest``: k max(1, |a|) <= _PHASE_LIMIT."""
    if largest > _PHASE_LIMIT / max(1.0, abs(a)):
        raise DomainError(f"wavenumber k = {largest!r} at position {a!r} is out of "
                          f"range: the phase 2ka needs k max(1, |a|) <= {_PHASE_LIMIT:.3g} to "
                          f"stay within double precision")


def translate(beta, k, a):
    """beta of the barrier moved by a at wavenumber k: beta e^{+2ika}.  A k
    out of check_phase_range is refused before 2ka is formed."""
    check_phase_range(float(np.max(k, initial=0.0)), a)
    return beta * np.exp(2j * k * a)


@dataclass(frozen=True, slots=True)
class TransferMatrix:
    """Validated Bogoliubov pair (alpha, beta) with |alpha|^2 - |beta|^2 = 1.

    Construction sanity-checks the invariant at a loose, scale-aware
    tolerance that only trips on numerically meaningless data.
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
    """Transmission/reflection amplitudes with |t|^2 + |r|^2 = 1, a pair of
    scalars or of arrays, checked and squared elementwise in numpy.  T =
    |t|^2 and R = |r|^2 are squared once, by the check, and kept."""

    t: complex
    r: complex
    T: float = field(init=False, repr=False, compare=False)
    R: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _finite(self.t, self.r):
            raise DomainError("non-finite amplitudes")
        object.__setattr__(self, "T", np.square(np.abs(self.t)))
        object.__setattr__(self, "R", np.square(np.abs(self.r)))
        off = np.abs(self.T + self.R - 1.0)
        if (off > 10 * NORM_TOL).any():
            raise NormalizationError(f"|t|^2 + |r|^2 off 1 by {float(np.max(off))!r}")


def to_polar(m: TransferMatrix) -> HyperbolicParams:
    """Polar form: theta = rapidity(alpha) on one element, the CLI's
    acosh|alpha| (clamped) to the bit; phases = args.

    beta == 0 yields phi_beta = 0.
    """
    theta = rapidity(np.array([m.alpha]))[0]
    phi_beta = cmath.phase(m.beta) if m.beta != 0 else 0.0
    return HyperbolicParams(theta, cmath.phase(m.alpha), phi_beta)


def compose(m1: TransferMatrix, m2: TransferMatrix) -> TransferMatrix:
    """Product M1 M2 (M1 traversed first): product on one-element arrays, so
    reduce(compose, ms) equals fold to the bit.  Raises RapidityOverflowError
    beyond the trusted range, NormalizationError on catastrophic float loss."""
    alpha, beta = product(*np.array([[m1.alpha], [m1.beta], [m2.alpha], [m2.beta]]))
    return TransferMatrix(alpha[0], beta[0])


def amplitudes(m: TransferMatrix) -> ScatteringAmplitudes:
    """Amplitudes t = 1/alpha, r = beta/alpha (so T = 1/|alpha|^2, T + R = 1),
    divided on one element as the containment audit divides its arrays."""
    alpha = np.array([m.alpha])
    return ScatteringAmplitudes((1.0 / alpha)[0], (m.beta / alpha)[0])
