"""Toeplitz matrix data model, dense form, and the commutator ground truth.

A matrix of order N+1 is described by its 2N+1 diagonal values a_k,
k = -N..N, with M[i][j] = a_{i-j}.  The principal diagonal a_0 is stored
and written back by :func:`spec_to_json`, but every analysis treats it as zero:
shifting by a multiple of the identity changes neither the commutator
T*T^H - T^H*T nor any structural property, so a_0 is forced to zero before
the dense products are formed.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .scalar import (
    GaussianRational,
    SpecFormatError,
    clear_denominators,
    scalar_from_json,
    scalar_to_json,
)

__all__ = [
    "ToeplitzSpec",
    "commutator_norm",
    "from_diagonals",
    "spec_from_json",
    "spec_to_json",
]


@dataclass(frozen=True)
class ToeplitzSpec:
    """Diagonal description of one Toeplitz matrix.

    ``diag`` holds the 2n+1 values in ascending index order a_{-n}..a_n and
    is canonical: all entries are Fraction (exact real), GaussianRational
    (exact complex) or complex (approximate).  Build instances through
    :func:`from_diagonals` or :func:`spec_from_json`, which produce that
    form.
    """

    n: int
    diag: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("matrix order must be at least 2 (n >= 1)")
        if len(self.diag) != 2 * self.n + 1:
            raise ValueError("diag must hold exactly 2n+1 entries")

    @property
    def dim(self) -> int:
        return self.n + 1

    @property
    def a0(self):
        return self.diag[self.n]

    @property
    def lower(self) -> tuple:
        """(a_1, ..., a_n): first column below the principal diagonal."""
        return self.diag[self.n + 1 :]

    @property
    def upper(self) -> tuple:
        """(a_{-1}, ..., a_{-n}): first row right of the principal diagonal."""
        return self.diag[self.n - 1 :: -1]

    @property
    def is_exact(self) -> bool:
        return not isinstance(self.diag[0], complex)

    @functools.cached_property
    def is_real(self) -> bool:
        """Every off-diagonal imaginary part is zero, of either sign; a_0 is ignored."""
        return all(z.imag == 0 for z in self.diag[: self.n] + self.diag[self.n + 1 :])

    @functools.cached_property
    def max_abs(self) -> float:
        """max |a_k| over k != 0, as a float (the natural Approx scale), computed once."""
        n, diag = self.n, self.diag
        return float(max(map(abs, diag[:n] + diag[n + 1 :])))

    def as_approx(self) -> "ToeplitzSpec":
        """The same matrix with every entry converted to complex.

        Built by :func:`from_diagonals`, so it raises :class:`SpecFormatError`
        when the entries lie beyond the float range the analyses accept.
        """
        return from_diagonals(_complex_entries(self.diag, self.n))

    @functools.cached_property
    def cleared(self) -> tuple:
        """Exact specs only: the diagonal as Gaussian integers, built once.

        Returns (re, im, L), two tuples of ints and the lcm L of every
        off-diagonal denominator, with re[k] + i*im[k] = L * a_{k-n} and
        a_0 forced to zero.  Ratios and (in)equalities of entries hold
        unchanged between the cleared integers, and a product of two
        entries is the integer product divided by L^2, so the exact scan,
        oracle and direct route all run on plain ints.
        """
        n = self.n
        re, im, lcm = clear_denominators(self.diag[:n] + (0,) + self.diag[n + 1 :])
        return tuple(re), tuple(im), lcm

    @functools.cached_property
    def array(self) -> np.ndarray:
        """The diagonal as the read-only array every kernel reads, a_0 = 0.

        The one place that picks real or complex arithmetic, in both domains:
        float64 of the real parts when no off-diagonal imaginary part is
        nonzero, whatever a zero's sign, else complex128; an exact spec's is
        :func:`_stack_array` of :attr:`cleared`.  On real parts each complex
        operation of the kernels reduces to the real one, and T T^H is T T^T,
        one symmetric rank-k update.  The witnesses, which print a zero's
        sign, are quotients of the spec's own values.
        """
        n = self.n
        if self.is_exact:
            d = _stack_array(self.cleared, n)
        else:
            d = np.array(self.diag, complex)
            d[n] = 0
            if not d.imag.any():
                d = d.real.copy()
        d.flags.writeable = False
        return d

    @functools.cached_property
    def _scan(self) -> tuple:
        """The residual scan's (max residual, worst pair), run once per spec.

        :func:`toepnorm.normality.fast_max_residual` is the kernel; every
        normality verdict on this spec reads this one result.
        """
        from . import normality  # normality imports this module

        return normality.fast_max_residual(self)


_SCALAR_TYPES = (int, Fraction, GaussianRational, float, complex)


def from_diagonals(entries: Sequence) -> ToeplitzSpec:
    """Build a spec from the 2N+1 diagonal values in ascending index order.

    The entry domain is normalized: any float or complex forces the whole
    matrix into the approximate domain; otherwise entries stay exact, as
    Fraction when every imaginary part is zero and GaussianRational else.
    Entries that are already canonical are kept as they are.  Float entries
    must convert, be finite and, a_0 aside, lie in the range
    :func:`spec_from_json` accepts (:func:`_float_range_problem`); else
    :class:`SpecFormatError` says which does not.
    """
    entries = tuple(entries)
    if len(entries) < 3 or len(entries) % 2 == 0:
        raise SpecFormatError(
            f"need an odd number of diagonals, at least 3, got {len(entries)}"
        )
    for e in entries:
        if isinstance(e, bool) or not isinstance(e, _SCALAR_TYPES):
            raise SpecFormatError(f"not a scalar entry: {e!r}")
    n = (len(entries) - 1) // 2
    if any(isinstance(e, (float, complex)) for e in entries):
        diag = _complex_entries(entries, n)
        bad = next((z for z in diag if not cmath.isfinite(z)), None)
        if bad is not None:
            raise SpecFormatError(f"non-finite entry: {bad!r}")
        problem = _float_range_problem(n, diag)
        if problem:
            raise SpecFormatError(problem)
    elif all(e.imag == 0 for e in entries):
        diag = tuple(map(_as_fraction, entries))
    else:
        diag = tuple(map(_as_gaussian, entries))
    return ToeplitzSpec(n, diag)


def _complex_entries(entries, n: int) -> tuple:
    """The entries as complex, or :class:`SpecFormatError` where one overflows."""
    try:
        return tuple(map(complex, entries))
    except OverflowError as exc:
        raise SpecFormatError(f"entries beyond float range for n={n}") from exc


def _as_fraction(e) -> Fraction:
    """An exact real entry in canonical form, reusing a Fraction it holds."""
    if isinstance(e, GaussianRational):
        return e.real
    return e if type(e) is Fraction else Fraction(e)


def _as_gaussian(e) -> GaussianRational:
    """An exact entry of a complex spec in canonical form."""
    return e if isinstance(e, GaussianRational) else GaussianRational(e)


def _stack_array(cleared: tuple, n: int) -> np.ndarray:
    """Cleared Gaussian integers (re, im, L) as one array the kernels test exactly.

    The rule of :attr:`ToeplitzSpec.array`: float64 of ``re`` when every
    ``im`` is 0, else complex128, while each part is below 2^k,
    k = :func:`_limb_bits` <= 25: a part of a residual is a sum of 8
    products of such parts, so the scan's table stays exact below 2^53;
    every commutator entry meets the oracle's 2^53 bound; every
    direct-route test is exact (see :func:`toepnorm.classify._direct_tests`).
    Otherwise an object array of Python ints, or of GaussianRationals when a
    part is imaginary, on which the same expressions run in exact Python
    arithmetic.
    """
    re, im, _ = cleared
    if max(map(abs, re + im)) >= 1 << _limb_bits(n):
        return np.fromiter(map(GaussianRational, re, im) if any(im) else re, object, len(re))
    if any(im):
        return np.fromiter(map(complex, re, im), complex, len(re))
    return np.fromiter(re, float, len(re))


def _dense_np(d: np.ndarray, n: int) -> np.ndarray:
    """Dense (n+1)x(n+1) T[i][j] = d[i - j + n], as a fresh C-ordered array.

    ``d`` is C-contiguous; its leading axes stack diagonals, each of which
    gets its own matrix.
    """
    s = d.itemsize
    shape, strides = d.shape[:-1] + (n + 1, n + 1), d.strides[:-1] + (s, -s)
    return np.ndarray(shape, d.dtype, d, n * s, strides).copy()


def _comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b^H - b^H @ a for Toeplitz a and b, from one product: the one dense
    kernel of the float oracle, the exact oracle and the census stacks.

    A Toeplitz matrix is persymmetric: J T J = T^T, with J the exchange
    matrix (ones on the anti-diagonal), since (J T J)[i][j] = T[N-i][N-j] =
    a_(j-i).  Hence (a b^H)^T = conj(b) a^T = conj(b) J a J, and
    J (a b^H)^T J = (J conj(b) J) a = conj(b^T) a = b^H a.  So with
    p = a b^H the commutator is p - J p^T J, whose (i, j) entry is
    p[i][j] - p[N-j][N-i].

    Integer parts stay exact: if every part of a and b is an integer of
    modulus at most B, each entry of p and each partial sum of it has parts
    at most 2(N+1) B^2 (4(N+1) B^2 with the 3M method), and a difference
    of two entries of p has parts at most 4(N+1) B^2, the bound that
    :func:`_limb_bits` keeps below 2^53.  Object arrays of exact values
    take the same expressions in Python arithmetic.

    With T = L + U, L strictly lower and U strictly upper triangular,
    ``_comm(T, T) = _comm(L, L) + _comm(U, U)``: [L, U^H] = [U, L^H] = 0,
    because lower-triangular Toeplitz matrices are polynomials in the shift
    Z and upper-triangular ones polynomials in Z^T, so each pair commutes.

    Works on the last two axes, so stacked matrices give stacked
    commutators.
    """
    p = a @ b.conj().swapaxes(-1, -2)
    # An explicit copy reuses the freed conjugate's memory; numpy's own
    # temporary for an in-place update from an overlapping view costs
    # about 30 more page faults per call at N = 128.
    p -= p.swapaxes(-1, -2)[..., ::-1, ::-1].copy()
    return p


def _limb_bits(n: int) -> int:
    """k = floor((53 - ceil(log2 4(N+1))) / 2): the bits of one oracle limb."""
    return (53 - (4 * n + 3).bit_length()) // 2  # 4n + 3 = 4(N+1) - 1


def _commutator_int(spec: ToeplitzSpec) -> tuple:
    """Exact commutator of the cleared integers, on float64 BLAS.

    Returns (flat, L^2): flat lists the integer entries row by row as
    re, im, re, im, ..., and each entry of the commutator is that Gaussian
    integer over L^2.

    A product of two dense matrices whose integer parts are at most B in
    modulus has every partial sum, in any order, at most 4(N+1) B^2 in
    modulus (2(N+1) B^2 per product, twice that with the 3M method), so
    float64 holds each one exactly when that is below 2^53.  With
    k = :func:`_limb_bits` = floor((53 - ceil(log2 4(N+1))) / 2),
    B = 2^k - 1 meets the bound.  Each integer is split by sign and
    magnitude into S limbs of k bits, so that T = sum_s 2^(ks) A_s and
    C = sum_g 2^(kg) sum_(s+t=g) comm(A_s, A_t) with every term exact
    (Ozaki, Ogita, Oishi & Rump, Numer. Algorithms 59, 2012).  Since
    comm(A_t, A_s) = comm(A_s, A_t)^H, C = H + H^H + D, where H holds the
    terms with s < t and D those with s = t: S(S+1)/2 products, not S^2.
    H + H^H and D of one g are summed in int64 by :func:`_group_sum` before
    the shift, so the Python ints see 2S - 1 passes.  S comes from the data;
    it is 1, and the one limb is :attr:`ToeplitzSpec.array`, float64 or
    complex128 by its rule, unless an integer exceeds 2^k - 1.
    """
    re, im, lcm = spec.cleared
    n = spec.n
    if spec.array.dtype != object:  # one limb, the usual case
        t = _dense_np(spec.array, n)
        return _int64(_comm(t, t)).tolist(), lcm * lcm
    m = 2 * n + 1
    k = _limb_bits(n)
    vals = re + im
    bits = max(max(vals), -min(vals)).bit_length()
    mask = (1 << k) - 1
    mats = []
    for shift in range(0, bits, k):
        limb = [x >> shift & mask if x >= 0 else -(-x >> shift & mask) for x in vals]
        mats.append(_dense_np(np.fromiter(map(complex, limb[:m], limb[m:]), complex, m), n))
    last, total = len(mats) - 1, [0] * (2 * (n + 1) ** 2)
    for g in range(2 * last + 1):
        pairs = range(max(0, g - last), (g + 1) // 2)
        terms = (_int64(_comm(mats[s], mats[g - s])) for s in pairs)
        a = mats[g // 2]
        d = _int64(_comm(a, a)) if g % 2 == 0 else 0
        total = [x + (y << k * g) for x, y in zip(total, _group_sum(terms, n + 1, d))]
    return total, lcm * lcm


def _int64(c: np.ndarray) -> np.ndarray:
    """A float64 or complex128 integer commutator as int64 re, im, ..., row by row."""
    return c.astype(complex, copy=False).view(float).astype(np.int64).ravel()


_GROUP = 511
_CONJ = np.array([1, -1])


def _group_sum(terms, dim: int, d=0) -> list:
    """d + sum of h + h^H over the int64 terms h, as Python ints.

    Each h and d lists a dim x dim matrix as in :func:`_int64`, with entries
    below 2^53 in modulus.  The terms are summed in int64 in groups of up to
    511; a group's sum, its conjugate transpose and d together hold at most
    2 * 511 + 1 such entries, and 1023 * 2^53 < 2^63, so every group adds
    exactly before it is flushed to Python ints.  d joins the first group.
    """
    total, acc, count = 0, 0, 0
    for h in terms:
        if count == _GROUP:
            total, acc, count, d = total + _with_mirror(acc, dim, d), 0, 0, 0
        acc, count = acc + h, count + 1
    return (total + _with_mirror(acc, dim, d)).tolist()


def _with_mirror(acc, dim: int, d) -> np.ndarray:
    """acc + acc^H + d in int64, as an object array of Python ints."""
    if isinstance(acc, int):  # no term h: g = 0 or g = 2(S - 1)
        return d.astype(object)
    x = acc.reshape(dim, dim, 2)
    return ((x + x.transpose(1, 0, 2) * _CONJ).ravel() + d).astype(object)


def commutator_norm(spec: ToeplitzSpec):
    """Frobenius norm of the dense T*T^H - T^H*T with a_0 forced to zero.

    This is the ground-truth normality oracle: it never shares code with the
    element-wise residual check in :mod:`toepnorm.normality`, beyond the
    cleared integers of an exact spec.  It returns a float; an exact spec
    gets the exact rational norm *squared* instead, since the square root
    generally leaves the field.

    The matrix is :attr:`ToeplitzSpec.array`'s, float64 or complex128, and a
    float spec's commutator C is formed from one product p = T T^H
    (:func:`_comm`).  With u = 2^-53, A = max|a_k|, gamma_m = m u / (1 - m u),
    m = (N+1)^2 and neither underflow nor overflow, the returned value x
    satisfies

        |x - ||C||_F| <= gamma_(m+2) ||C||_F + (1 + gamma_(m+2)) 7 (N+1)^3 u A^2

    whenever (N+1) u <= 0.005 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 3).  Each part of an entry of p is a real
    inner product of 2(N+1) terms whose moduli sum to at most (N+1) A^2,
    since |x_r y_r| + |x_i y_i| <= |x| |y|; in any order of summation it is
    within gamma_(2N+2) (N+1) A^2 of its value (eq. 3.5), so the entry is
    within e = sqrt(2) gamma_(2N+2) (N+1) A^2.  An entry of C is the
    rounded difference of two entries of p, each of modulus at most
    (N+1) A^2, so it is within 2e (1 + u) + 2u (N+1) A^2 <= 6.8 (N+1)^2 u A^2
    (Lemma 3.5 for the rounding of a complex sum), and the computed C lies
    within 7 (N+1)^3 u A^2 of C in the Frobenius norm.  Summing its squares
    and taking the root add a relative gamma_(m+2).  On a normal spec C = 0,
    so x <= (1 + gamma_(m+2)) 7 (N+1)^3 u A^2.
    """
    if spec.is_exact:
        flat, den = _commutator_int(spec)
        return Fraction(sum(map(operator.mul, flat, flat)), den * den)
    t = _dense_np(spec.array, spec.n)
    return float(np.linalg.norm(_comm(t, t)))


# Bound on (N+1) * c, c the largest off-diagonal |re| or |im|, under which
# every float the analyses form stays finite.  The oracle's Frobenius norm
# sums the squares of (N+1)^2 commutator entries of modulus at most
# 2(N+1) max|a_k|^2 <= 4(N+1) c^2, a sum below 16 ((N+1) c)^4.
_FLOAT_RANGE = sys.float_info.max**0.25 / 2


def _float_range_problem(n: int, entries) -> str | None:
    """Why float diagonal values are too large for the analyses, or None."""
    parts = np.abs(np.asarray(entries, complex).view(float))
    big = float(max(parts[: 2 * n].max(), parts[2 * n + 2 :].max()))
    limit = _FLOAT_RANGE / (n + 1)
    if big > limit:
        return (
            f"float entries too large for n={n}: largest component {big!r} "
            f"exceeds {limit:.3g}"
        )
    return None


def spec_to_json(spec: ToeplitzSpec) -> dict:
    return {"n": spec.n, "diag": [scalar_to_json(z) for z in spec.diag]}


def spec_from_json(obj) -> ToeplitzSpec:
    """Decode {"n": N, "diag": [...]} with uniformly encoded entries.

    One pass checks the shape of every entry (an object with exactly the
    keys re and im, both strings or both JSON numbers), then the parts are
    converted in bulk by domain: each string through Fraction once, or all
    numbers into one complex128 array.  A document that fails anywhere is
    read again entry by entry with :func:`scalar_from_json`, so the error
    names its first bad entry.
    """
    if not isinstance(obj, dict) or set(obj) != {"n", "diag"}:
        raise SpecFormatError("spec must be an object with keys n and diag")
    n, diag = obj["n"], obj["diag"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SpecFormatError(f"n must be a positive integer, got {n!r}")
    if not isinstance(diag, list) or len(diag) != 2 * n + 1:
        raise SpecFormatError(f"diag must list exactly {2 * n + 1} scalars")
    parts, spec = _entry_parts(diag), None
    if parts is not None:
        kinds = set(map(type, parts))
        if all(issubclass(t, str) for t in kinds):
            spec = _exact_spec(n, parts)
        elif all(issubclass(t, (int, float)) and not issubclass(t, bool) for t in kinds):
            spec = _float_spec(n, parts)
    if spec is None:
        for entry in diag:
            scalar_from_json(entry)  # raises the first bad entry's error
        raise SpecFormatError("diag mixes exact and floating entries")
    return spec


_RE_IM = operator.itemgetter("re", "im")


def _entry_parts(diag: list) -> list | None:
    """re, im, re, im, ... when every entry has exactly the keys re and im."""
    if not all(issubclass(t, dict) for t in set(map(type, diag))) or set(map(len, diag)) != {2}:
        return None
    try:
        return list(itertools.chain.from_iterable(map(_RE_IM, diag)))
    except KeyError:
        return None


def _exact_spec(n: int, parts: list) -> ToeplitzSpec | None:
    """The spec of fraction strings; Fractions unless some part is imaginary."""
    try:
        parts = list(map(Fraction, parts))
    except (ValueError, ZeroDivisionError):
        return None
    re, im = parts[::2], parts[1::2]
    return ToeplitzSpec(n, tuple(map(GaussianRational._of, re, im) if any(im) else re))


def _float_spec(n: int, parts: list) -> ToeplitzSpec | None:
    """The spec of JSON numbers, or None when one is not a finite float."""
    try:
        d = np.array(parts, dtype=float)
    except OverflowError:
        return None
    if not np.isfinite(d).all():
        return None
    d = d.view(complex)
    problem = _float_range_problem(n, d)
    if problem:
        raise SpecFormatError(problem)
    return ToeplitzSpec(n, tuple(d.tolist()))
