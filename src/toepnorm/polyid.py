"""Polynomial views of a Toeplitz spec and the identities they satisfy.

The off-diagonal values define two trigonometric polynomials

    s(x) = sum_{k=1..N} a_k e^{ikx}       (positive frequencies)
    t(x) = sum_{k=1..N} a_{-k} e^{-ikx}   (negative frequencies)

and, for real entries, four algebraic polynomials p, q and their
reciprocals with the degree-0 term always absent.  Normality is equivalent
to a two-variable product identity in s and t (checked here both sampled
and coefficient-wise), forces |s(x)| = |t(x)| pointwise, and in the real
case factors as (p^2 - q^2)(p^2 - qr^2) = 0, so one factor polynomial must
vanish identically.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import normality
from .scalar import ScalarPolicy, abs_sq
from .toeplitz import ToeplitzSpec

__all__ = [
    "CoeffPoly",
    "alg_polys",
    "eval_at_point",
    "eval_trig",
    "factor_polys",
    "identity14_check",
    "identity16_holds",
    "identity8_coefficient_check",
    "identity8_residual",
    "identity9_residual",
    "is_zero_poly",
    "poly_mul",
    "poly_sub",
    "reciprocal",
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


def reciprocal(p: CoeffPoly) -> CoeffPoly:
    """Reverse the coefficient window; an involution on any CoeffPoly."""
    return CoeffPoly(p.coeffs[::-1], p.tag, p.degree_offset)


def poly_mul(p: CoeffPoly, q: CoeffPoly) -> CoeffPoly:
    """Convolution product; degree offsets add (still no low-order terms).

    One numpy convolution in both domains: float coefficients in float64,
    all others as Python objects, so Fractions stay exact and ints never
    wrap.
    """
    floats = isinstance(p.coeffs[0], float) and isinstance(q.coeffs[0], float)
    dtype = float if floats else object
    out = np.convolve(np.array(p.coeffs, dtype), np.array(q.coeffs, dtype)).tolist()
    return CoeffPoly(tuple(out), POS, p.degree_offset + q.degree_offset)


def poly_sub(p: CoeffPoly, q: CoeffPoly) -> CoeffPoly:
    if p.degree_offset != q.degree_offset or len(p.coeffs) != len(q.coeffs):
        raise ValueError("can only subtract polynomials over the same window")
    return CoeffPoly(
        tuple(a - b for a, b in zip(p.coeffs, q.coeffs)), POS, p.degree_offset
    )


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


def _real_coeffs(spec: ToeplitzSpec, values) -> tuple:
    if spec.is_exact:
        return tuple(values)
    return tuple(v.real for v in values)


def alg_polys(spec: ToeplitzSpec) -> tuple[CoeffPoly, CoeffPoly, CoeffPoly, CoeffPoly]:
    """(p, q, pr, qr) for a real spec.

    p has coefficients a_1..a_N, q has a_{-1}..a_{-N}; pr and qr are their
    reciprocals (reversed windows), satisfying qr(x) = x^{N+1} q(1/x).
    """
    if not spec.is_real:
        raise ValueError("algebraic polynomial views require real entries")
    p = CoeffPoly(_real_coeffs(spec, spec.lower), POS)
    q = CoeffPoly(_real_coeffs(spec, spec.upper), POS)
    return p, q, reciprocal(p), reciprocal(q)


def factor_polys(spec: ToeplitzSpec) -> tuple[CoeffPoly, CoeffPoly]:
    """(p^2 - q^2, p^2 - qr^2), each over degrees 2..2N."""
    p, q, _, qr = alg_polys(spec)
    p2 = poly_mul(p, p)
    return poly_sub(p2, poly_mul(q, q)), poly_sub(p2, poly_mul(qr, qr))


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


def identity16_holds(spec: ToeplitzSpec, policy: ScalarPolicy, factors=None) -> bool:
    """For a normal real spec, one factor polynomial vanishes identically.

    Checks that p^2 - q^2 or p^2 - qr^2 is the zero polynomial and, as a
    sub-check, that p*pr = q*qr coefficient-wise.  Coefficients are compared
    at scale N * (max|a_k|)^2.  ``factors`` is the spec's
    :func:`factor_polys`, when the caller has built it already.  A False on
    a normal input is a theorem-violation diagnostic, not an expected
    outcome.
    """
    if not spec.is_real:
        raise ValueError("the factor identity requires real entries")
    scale = normality.residual_scale(spec)
    p, q, pr, qr = alg_polys(spec)
    cross = poly_sub(poly_mul(p, pr), poly_mul(q, qr))
    if not is_zero_poly(cross, policy, scale):
        return False
    f1, f2 = factor_polys(spec) if factors is None else factors
    return is_zero_poly(f1, policy, scale) or is_zero_poly(f2, policy, scale)
