"""Scalar domains and the comparison policy shared by every other module.

Two domains are supported and never mixed inside one matrix:

* exact -- Gaussian rationals (:class:`GaussianRational`), with plain
  ``int`` / ``fractions.Fraction`` values serving as the real subdomain.
  Arithmetic is closed and zero tests are literal equality.
* approximate -- built-in ``complex`` (``float`` for reals), compared
  under a relative tolerance with an absolute floor.

A value's type says which domain it lives in, so :class:`ScalarPolicy`
holds only the tolerances and applies them to float and complex values.

Algorithms elsewhere rely only on the tiny protocol all these types share:
``+ - * /``, ``conjugate()`` and the ``real`` / ``imag`` attributes.  That
keeps one arithmetic kernel for both domains, and for real and complex data.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

__all__ = [
    "GaussianRational",
    "ScalarPolicy",
    "SpecFormatError",
    "abs_sq",
    "clear_denominators",
    "rational_unit_circle",
    "scalar_from_json",
    "scalar_to_json",
]


class SpecFormatError(ValueError):
    """An input document or sequence does not match the expected layout."""


_HASH_IMAG = sys.hash_info.imag
_ZERO = Fraction(0)


def _coerce(value):
    """Lift an exact value to GaussianRational; refuse floats and complex."""
    if isinstance(value, GaussianRational):
        return value
    if type(value) is Fraction:
        return _of(value, _ZERO)
    if isinstance(value, Rational) and not isinstance(value, bool):
        return _of(Fraction(value), _ZERO)
    return None


class GaussianRational:
    """Complex number with exact rational real and imaginary parts.

    Construction accepts anything ``fractions.Fraction`` accepts, so
    ``GaussianRational(3, 4) / 5`` and ``GaussianRational("3/5", "4/5")``
    denote the same value.  Instances are immutable and hashable; mixing
    with ``float`` or ``complex`` operands is refused rather than silently
    degrading to floating point.

    Both parts are always exactly ``Fraction``, made canonical once when the
    value is created.  The constructor normalises its arguments; arithmetic
    builds its results through :meth:`_of`, since Fraction arithmetic on
    Fraction parts already returns canonical Fractions.
    """

    __slots__ = ("real", "imag")

    def __init__(self, real=0, imag=0):
        object.__setattr__(self, "real", Fraction(real))
        object.__setattr__(self, "imag", Fraction(imag))

    @classmethod
    def _of(cls, real: Fraction, imag: Fraction) -> "GaussianRational":
        """Wrap two parts that are already Fractions, without copying them."""
        z = object.__new__(cls)
        object.__setattr__(z, "real", real)
        object.__setattr__(z, "imag", imag)
        return z

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def conjugate(self) -> "GaussianRational":
        return _of(self.real, -self.imag)

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _of(self.real + o.real, self.imag + o.imag)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _of(self.real - o.real, self.imag - o.imag)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _of(o.real - self.real, o.imag - self.imag)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _of(
            self.real * o.real - self.imag * o.imag,
            self.real * o.imag + self.imag * o.real,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        # (e/f + g/h i) / (p/q + r/t i) = (e/f + g/h i)(p/q - r/t i) / |w|^2
        # with |w|^2 = (p^2 t^2 + r^2 q^2) / (q t)^2: each part is an integer
        # over f h (p^2 t^2 + r^2 q^2), normalised once as one Fraction.
        e, f = self.real.numerator, self.real.denominator
        g, h = self.imag.numerator, self.imag.denominator
        p, q = o.real.numerator, o.real.denominator
        r, t = o.imag.numerator, o.imag.denominator
        pt, rq = p * t, r * q
        d = pt * pt + rq * rq
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        eh, gf, qt, den = e * h, g * f, q * t, f * h * d
        return _of(
            Fraction((eh * pt + gf * rq) * qt, den), Fraction((gf * pt - eh * rq) * qt, den)
        )

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return _of(-self.real, -self.imag)

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            return NotImplemented
        if exponent < 0:
            return (_ONE / self) ** (-exponent)
        result = _ONE
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.real == other.real and self.imag == other.imag
        if isinstance(other, Rational) and not isinstance(other, bool):
            return self.imag == 0 and self.real == other
        return NotImplemented

    def __hash__(self):
        # Same combination CPython uses for complex, so a real-valued
        # GaussianRational hashes like the equal int/Fraction.
        return hash(self.real) + _HASH_IMAG * hash(self.imag)

    def __bool__(self):
        return bool(self.real) or bool(self.imag)

    def __abs__(self) -> float:
        return math.hypot(float(self.real), float(self.imag))

    def __complex__(self) -> complex:
        return complex(float(self.real), float(self.imag))

    def __repr__(self):
        return f"GaussianRational({str(self.real)!r}, {str(self.imag)!r})"

    def __str__(self):
        if self.imag == 0:
            return str(self.real)
        sign = "+" if self.imag >= 0 else "-"
        return f"{self.real}{sign}{abs(self.imag)}i"


_of = GaussianRational._of
_ONE = _of(Fraction(1), _ZERO)


def abs_sq(z):
    """Modulus squared z*conj(z), staying inside the scalar's own domain."""
    return z.real * z.real + z.imag * z.imag


def clear_denominators(values) -> tuple:
    """Exact values as Gaussian integers over one common denominator.

    Returns (re, im, L), two lists of ints and the lcm L of every
    denominator, with re[k] + i*im[k] = L * values[k].  Only numerators and
    denominators are read, so no Fraction is created.
    """
    count = len(values)
    parts = list(values)
    if any(isinstance(v, GaussianRational) for v in parts):
        parts = [v.real if isinstance(v, GaussianRational) else v for v in values]
        parts += [v.imag if isinstance(v, GaussianRational) else 0 for v in values]
    ratios = [x.as_integer_ratio() for x in parts]
    lcm = math.lcm(*[d for _, d in ratios])
    ints = [a * (lcm // d) for a, d in ratios]
    im = ints[count:] if len(ints) > count else [0] * count
    return ints[:count], im, lcm


def rational_unit_circle(u) -> GaussianRational:
    """Exact point ((1-u^2) + 2u*i) / (1+u^2) on the unit circle.

    The map is injective in u, so distinct rational parameters give distinct
    unit-modulus Gaussian rationals.
    """
    u = Fraction(u)
    d = 1 + u * u
    return _of((1 - u * u) / d, 2 * u / d)


@dataclass(frozen=True)
class ScalarPolicy:
    """How zero tests and unit-modulus tests are decided.

    The value's own domain picks the rule.  Exact values (GaussianRational,
    int, Fraction) compare by literal equality and the epsilons play no
    part.  A float or complex r measured at scale S counts as zero iff
    ``|r| <= max(eps_rel * S, eps_abs_floor)``.
    """

    eps_rel: float = 1e-10
    eps_abs_floor: float = 1e-12

    def __post_init__(self):
        if not (0 <= self.eps_rel < math.inf and 0 <= self.eps_abs_floor < math.inf):
            raise ValueError(f"tolerances must be finite and nonnegative: {self!r}")

    def threshold(self, scale) -> float:
        """The float tolerance at the given scale."""
        return max(self.eps_rel * scale, self.eps_abs_floor)

    def is_zero(self, z, scale=0.0) -> bool:
        if isinstance(z, (float, complex)):
            return abs(z) <= self.threshold(scale)
        return z == 0

    def equal(self, a, b, scale=0.0) -> bool:
        return self.is_zero(a - b, scale)

    def is_unit_modulus(self, z) -> bool:
        return self.is_zero(abs_sq(z) - 1, 1.0)


def scalar_to_json(z):
    """Encode a scalar: fraction strings for exact values, numbers otherwise."""
    if isinstance(z, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(z, GaussianRational):
        return {"re": str(z.real), "im": str(z.imag)}
    if isinstance(z, Rational):
        return {"re": str(Fraction(z)), "im": "0"}
    if isinstance(z, (float, complex)):
        z = complex(z)
        return {"re": z.real, "im": z.imag}
    raise TypeError(f"not a scalar: {z!r}")


def _json_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def scalar_from_json(obj):
    """Decode a scalar object; strings mean exact, numbers mean approximate."""
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise SpecFormatError(f"scalar must be an object with keys re/im, got {obj!r}")
    re, im = obj["re"], obj["im"]
    if isinstance(re, str) and isinstance(im, str):
        try:
            return GaussianRational._of(Fraction(re), Fraction(im))
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecFormatError(f"bad fraction string in scalar: {obj!r}") from exc
    if _json_number(re) and _json_number(im):
        try:
            z = complex(re, im)
        except OverflowError as exc:
            raise SpecFormatError(f"number out of float range in scalar: {obj!r}") from exc
        if not cmath.isfinite(z):
            raise SpecFormatError(f"non-finite number in scalar: {obj!r}")
        return z
    raise SpecFormatError(f"scalar parts must be both strings or both numbers: {obj!r}")
