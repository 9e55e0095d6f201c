"""Polynomial views of a Toeplitz spec and the identities they satisfy.

The off-diagonal values define two trigonometric polynomials

    s(x) = sum_{k=1..N} a_k e^{ikx}       (positive frequencies)
    t(x) = sum_{k=1..N} a_{-k} e^{-ikx}   (negative frequencies)

and, for real entries, four algebraic polynomials p, q and their reversed
windows pr, qr with the degree-0 term always absent.  Normality is equivalent
to a two-variable product identity in s and t (checked here both sampled
and coefficient-wise), forces |s(x)| = |t(x)| pointwise, and in the real
case factors as (p^2 - q^2)(p^2 - qr^2) = 0, so one factor polynomial must
vanish identically.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import normality
from .scalar import ScalarPolicy, abs_sq
from .toeplitz import ToeplitzSpec

__all__ = [
    "CoeffPoly",
    "eval_at_point",
    "eval_trig",
    "factor_polys",
    "identity14_check",
    "identity16_holds",
    "identity8_coefficient_check",
    "identity8_residual",
    "identity9_residual",
    "is_zero_poly",
    "trig_coeffs",
]

POS = "pos"
NEG = "neg"


@dataclass(frozen=True)
class CoeffPoly:
    """Coefficient vector for degrees offset..offset+len-1 (no degree 0).

    ``tag`` records the frequency sign for trigonometric use; algebraic
    polynomials keep the default positive tag and it is simply ignored.
    """

    coeffs: tuple
    tag: str = POS
    degree_offset: int = 1

    def __post_init__(self):
        if self.tag not in (POS, NEG):
            raise ValueError(f"tag must be {POS!r} or {NEG!r}")
        if self.degree_offset < 1:
            raise ValueError("degree offset must be at least 1")
        if not self.coeffs:
            raise ValueError("a coefficient vector cannot be empty")

    @property
    def degree(self) -> int:
        return self.degree_offset + len(self.coeffs) - 1


def trig_coeffs(spec: ToeplitzSpec) -> tuple[CoeffPoly, CoeffPoly]:
    """(s, t): positive-frequency and negative-frequency coefficient views."""
    return CoeffPoly(spec.lower, POS), CoeffPoly(spec.upper, NEG)


def is_zero_poly(p: CoeffPoly, policy: ScalarPolicy, scale=0.0) -> bool:
    """Every coefficient zero under the policy at the given scale."""
    return all(policy.is_zero(c, scale) for c in p.coeffs)


def eval_trig(p: CoeffPoly, x):
    """Evaluate at angle(s) x in floating point; ndarray in, ndarray out."""
    ks = np.arange(p.degree_offset, p.degree_offset + len(p.coeffs))
    sign = 1.0 if p.tag == POS else -1.0
    c = np.asarray([complex(z) for z in p.coeffs])
    xs = np.asarray(x, dtype=float)
    vals = np.exp(1j * sign * np.multiply.outer(xs, ks)) @ c
    if np.ndim(x) == 0:
        return complex(vals)
    return vals


def eval_at_point(p: CoeffPoly, w):
    """Evaluate at a unit-circle scalar w, where e^{-ix} becomes conj(w).

    Works in both domains; with an exact unit-modulus w the result is exact.
    """
    base = w if p.tag == POS else w.conjugate()
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * base + c
    for _ in range(p.degree_offset):
        acc = acc * base
    return acc


def identity8_residual(spec: ToeplitzSpec, x: float, y: float) -> complex:
    """Two-variable residual that vanishes identically iff the spec is normal.

        s(x)conj(s(y)) - conj(t(x))t(y)
        + [conj(s(x))s(y) - t(x)conj(t(y))] e^{i(N+1)(x-y)}
    """
    s, t = trig_coeffs(spec)
    sx, sy = eval_trig(s, x), eval_trig(s, y)
    tx, ty = eval_trig(t, x), eval_trig(t, y)
    phase = cmath.exp(1j * (spec.n + 1) * (x - y))
    return (
        sx * sy.conjugate()
        - tx.conjugate() * ty
        + (sx.conjugate() * sy - tx * ty.conjugate()) * phase
    )


def identity9_residual(spec: ToeplitzSpec, x: float) -> float:
    """|s(x)|^2 - |t(x)|^2; zero everywhere on normal specs."""
    s, t = trig_coeffs(spec)
    return abs_sq(eval_trig(s, x)) - abs_sq(eval_trig(t, x))


def identity8_coefficient_check(spec: ToeplitzSpec, policy: ScalarPolicy) -> bool:
    """Coefficient-wise form of the two-variable identity.

    The coefficient of e^{imx}e^{-iny} in the residual is exactly the
    element-wise normality residual r(m, n), so this is the verdict of the
    residual scan, :func:`toepnorm.normality.is_normal`.
    """
    return normality.is_normal(spec, policy)


def _products(spec: ToeplitzSpec) -> tuple:
    """(p^2 - q^2, p^2 - qr^2, p*pr - q*qr) of a real spec, over degrees 2..2N.

    Each is a tuple of coefficients convolved from the halves of
    :attr:`ToeplitzSpec.array`: p = d[N+1:] (a_1..a_N), q = d[N-1::-1]
    (a_-1..a_-N) and their reversals, qr(x) = x^(N+1) q(1/x).  A float spec's
    are floats; an exact spec's are Python ints, each L^2 times the
    coefficient, L = ``spec.cleared[2]``.

    A one-limb exact array is float64 and its parts are below 2^k, with
    k = :func:`toepnorm.toeplitz._limb_bits`, so 2^2k <= 2^53 / (4N+4).
    Every sum of a convolution, in any order, is an integer below
    N 2^2k < 2^51, and every difference of two below 2^52, so float64 holds
    each one exactly.  Beyond one limb the array holds Python ints and the
    same expressions run in exact Python arithmetic.
    """
    if not spec.is_real:
        raise ValueError("the factor identity requires real entries")
    d, n = spec.array, spec.n
    p, q, qr = d[n + 1 :], d[n - 1 :: -1], d[:n]
    p2, cross = np.convolve(p, p), np.convolve(p, p[::-1]) - np.convolve(q, qr)
    out = p2 - np.convolve(q, q), p2 - np.convolve(qr, qr), cross
    if spec.is_exact:
        return tuple(tuple(map(int, x.tolist())) for x in out)
    return tuple(tuple(x.tolist()) for x in out)


def factor_polys(spec: ToeplitzSpec) -> tuple[CoeffPoly, CoeffPoly]:
    """(p^2 - q^2, p^2 - qr^2), each over degrees 2..2N."""
    f1, f2, _ = _products(spec)
    if spec.is_exact:
        den = spec.cleared[2] ** 2
        f1, f2 = (tuple(Fraction(c, den) for c in f) for f in (f1, f2))
    return CoeffPoly(f1, POS, 2), CoeffPoly(f2, POS, 2)


def identity14_check(spec: ToeplitzSpec, policy: ScalarPolicy) -> bool:
    """Formal identity p(x)p(y) - q(x)q(y) + pr(x)pr(y) - qr(x)qr(y) = 0.

    Verified through the coefficient of x^m y^n for all 1 <= m, n <= N,
    which is the real-entry residual
    a_m a_n - a_{-m} a_{-n} + a_{N+1-m} a_{N+1-n} - a_{-(N+1-m)} a_{-(N+1-n)},
    so this is the verdict of the residual scan on a real spec.
    """
    if not spec.is_real:
        raise ValueError("the real two-variable identity requires real entries")
    return normality.is_normal(spec, policy)


def identity16_holds(spec: ToeplitzSpec, policy: ScalarPolicy) -> bool:
    """For a normal real spec, one factor polynomial vanishes identically.

    Checks that p^2 - q^2 or p^2 - qr^2 is the zero polynomial and, as a
    sub-check, that p*pr = q*qr coefficient-wise.  Coefficients are compared
    at scale N * (max|a_k|)^2; an exact spec's are cleared integers, whose
    zeros are the coefficients' zeros.  A False on a normal input is a
    theorem-violation diagnostic, not an expected outcome.
    """
    scale = normality.residual_scale(spec)
    f1, f2, cross = (CoeffPoly(c, POS, 2) for c in _products(spec))
    if not is_zero_poly(cross, policy, scale):
        return False
    return is_zero_poly(f1, policy, scale) or is_zero_poly(f2, policy, scale)
