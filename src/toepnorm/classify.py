"""Structural classification of normal Toeplitz specs.

Every normal Toeplitz matrix (diagonal aside) satisfies at least one of

    type I :  [a_{-1}..a_{-N}] = alpha0 * [conj(a_1)..conj(a_N)], |alpha0| = 1
    type II:  [a_{-1}..a_{-N}] = beta0  * [a_N..a_1],             |beta0|  = 1

and a real normal matrix is symmetric, skew-symmetric, circulant or
skew-circulant (the alpha0/beta0 = +-1 specializations).  Two independent
routes produce the witnesses: the direct route ratios the coefficient
vectors, the proof route reconstructs alpha0 and beta0 from one sample of
the trig polynomials s and t where t does not vanish.  A normal spec that
matches neither condition is a theorem violation and raises, it is never
papered over.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction

import numpy as np

from .normality import _scan_report
from .polyid import eval_at_point, trig_coeffs
from .scalar import ScalarPolicy, abs_sq, rational_unit_circle, scalar_to_json
from .toeplitz import ToeplitzSpec

__all__ = [
    "ClassificationResult",
    "ProofTrace",
    "RealClassificationResult",
    "RealLabel",
    "TheoremViolation",
    "Verdict",
    "classification_to_json",
    "classify_complex",
    "classify_real",
    "classify_via_proof",
    "trace_to_json",
]


class Verdict(Enum):
    NOT_NORMAL = "NotNormal"
    DEGENERATE = "Degenerate"
    CLASSIFIED = "Classified"


class RealLabel(Enum):
    SYMMETRIC = "Symmetric"
    SKEW_SYMMETRIC = "SkewSymmetric"
    CIRCULANT = "Circulant"
    SKEW_CIRCULANT = "SkewCirculant"


_LABEL_ORDER = (
    RealLabel.SYMMETRIC,
    RealLabel.SKEW_SYMMETRIC,
    RealLabel.CIRCULANT,
    RealLabel.SKEW_CIRCULANT,
)
_TYPES = ("type_I", "type_II")


class TheoremViolation(RuntimeError):
    """A spec passed the normality check yet matched no structure condition.

    Mathematically impossible in exact arithmetic.  In approximate mode
    loose tolerances reach it, and so does valid input at scale 1e-6 and
    below: its residuals, products of two entries, fall under the absolute
    floor while its ratio deviations do not.  ``deviations`` maps each
    condition to the ``factor`` its verdict tested and one of ``margin``,
    ``entry`` or ``reason`` (see :class:`_Fit`).
    """

    def __init__(self, message, spec=None, report=None, deviations=None):
        super().__init__(message)
        self.spec = spec
        self.report = report
        self.deviations = dict(deviations or {})


@dataclass(frozen=True, eq=False)
class ClassificationResult:
    verdict: Verdict
    type_I: object = None
    type_II: object = None
    degenerate: bool = False
    normality: object = None


@dataclass(frozen=True, eq=False)
class RealClassificationResult:
    verdict: Verdict
    labels: frozenset
    degenerate: bool = False
    normality: object = None


@dataclass(frozen=True, eq=False)
class ProofTrace:
    """Where the proof route sampled and what it derived there."""

    x0: object = None
    point: object = None
    s_at_x0: object = None
    t_at_x0: object = None
    alpha: object = None
    beta: object = None
    alpha0: object = None
    beta0: object = None


# The pivot of a _ratio_pivots row that no unit-modulus ratio fits.
_NO_FIT = -1


def _ratio_pivots(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """The exact ratio test, one pivot per row of the stacked (B, N) arrays.

    A unit-modulus c with num_k = c * den_k for every k exists iff, at the
    first p with den_p != 0, |num_p|^2 = |den_p|^2 (c = num_p / den_p is
    unit-modulus) and num_k * den_p = num_p * den_k for every k (c fits).
    Returns p for such rows, else _NO_FIT, also where den is all zero.
    """
    nonzero = den != 0
    p = nonzero.argmax(axis=1)
    rows = np.arange(len(p))
    a, b = num[rows, p], den[rows, p]
    fits = (a * a.conj() == b * b.conj()) & (num * b[:, None] == a[:, None] * den).all(axis=1)
    return np.where(nonzero.any(axis=1) & fits, p, _NO_FIT)


def _direct_tests(up: np.ndarray, lo: np.ndarray, real: bool) -> np.ndarray:
    """The exact direct route on stacked off-diagonal halves of shape (B, N).

    ``up`` holds a_-1..a_-N and ``lo`` a_1..a_N, one spec per row, of one
    scale.  When ``real``, returns (B, 4) bools in _LABEL_ORDER: a_-k = a_k,
    a_-k = -a_k, a_-k = a_{N+1-k} and a_-k = -a_{N+1-k} for every k, all
    true on a row that is zero everywhere.  Otherwise (B, 2) pivots of
    :func:`_ratio_pivots`: type I (up against conj(lo)) and type II (up
    against lo reversed).  The census decides the real labels here; a
    single spec's classifier asks only for the pivots.

    The arrays are float64 or complex128, by the rule of
    :attr:`toepnorm.toeplitz.ToeplitzSpec.array`, holding Gaussian integers
    whose parts are below 2^k in modulus, k =
    :func:`toepnorm.toeplitz._limb_bits` <= 25, or object arrays of exact
    values.  On float64 or complex128 every test is exact:
    a product of two parts is below 2^50 in modulus, and each part of a
    complex product, and each |z|^2, is a sum of two such products, below
    2^51.  float64 holds every integer below 2^53, and a sum or product
    whose exact result is such an integer rounds to itself, so every
    multiplication, negation and comparison is the integer one.  On object
    arrays the same expressions run in exact Python arithmetic.
    """
    if real:
        rlo = lo[:, ::-1]
        return np.stack([up == lo, up == -lo, up == rlo, up == -rlo], axis=1).all(axis=2)
    # Row 2i tests spec i for type I, row 2i + 1 for type II.
    b, n = lo.shape
    den = np.stack([lo.conj(), lo[:, ::-1]], axis=1).reshape(2 * b, n)
    return _ratio_pivots(np.repeat(up, 2, axis=0), den).reshape(b, 2)


@dataclass(frozen=True, eq=False)
class _Fit:
    """How one condition target_k = factor * source_k fared.

    factor is the value tested, None where none was formed.  detail is
    ("margin", m) on float vectors, ("entry", k) on exact ones (k None where
    it holds) or ("reason", why) where no factor was tested entry by entry.
    """

    factor: object
    holds: bool
    detail: tuple


def _fit(target, source, factor, policy: ScalarPolicy, scale) -> _Fit:
    """Test target[k] = factor * source[k] for every k.

    Exact vectors are tuples and must match exactly; the record names the
    first k that does not.  Float ones are float64 or complex128 arrays,
    and each deviation is held to ``policy.threshold(scale)`` with the bits
    of Python's ``abs(t - factor * s)``: the parts
    re = t.re - (f.re * s.re - f.im * s.im) and
    im = t.im - (f.re * s.im + f.im * s.re), then ``np.hypot(re, im)``.
    numpy's complex128 ``*`` and ``np.abs`` round differently from Python's
    complex arithmetic in the last bit, so neither may appear here.  The
    margin is the largest deviation over the threshold, None where not
    finite; the verdict never reads it, since the threshold may be 0.
    """
    if not isinstance(target, np.ndarray):
        misses = (k for k, (t, s) in enumerate(zip(target, source)) if t - factor * s != 0)
        entry = next(misses, None)
        return _Fit(factor, entry is None, ("entry", entry))
    f = complex(factor)
    re = target.real - (f.real * source.real - f.imag * source.imag)
    im = target.imag - (f.real * source.imag + f.imag * source.real)
    worst, threshold = np.hypot(re, im).max(), policy.threshold(scale)
    with np.errstate(all="ignore"):
        margin = float(worst / threshold)
    margin = margin if math.isfinite(margin) else None
    return _Fit(factor, bool(worst <= threshold), ("margin", margin))


def _ratio_fit(target, source, quotient, policy: ScalarPolicy, scale: float) -> _Fit:
    """:func:`_fit` of float vectors at c = quotient(p).

    p is the largest |source[p]|, the first on a tie, where rounding
    perturbs the ratio least (np.hypot of the parts is Python's abs, bit
    for bit), and quotient(p) is target[p] / source[p] on the spec's own
    values.  A zero source[p] or a c off the unit circle is the reason.
    """
    p = int(np.argmax(np.hypot(source.real, source.imag)))
    if policy.is_zero(complex(source[p]), scale):
        return _Fit(None, False, ("reason", "zero pivot"))
    c = quotient(p)
    if not policy.is_unit_modulus(c):
        return _Fit(c, False, ("reason", "not unit-modulus"))
    return _fit(target, source, c, policy, scale)


def _direct(spec: ToeplitzSpec, policy: ScalarPolicy, real: bool) -> tuple:
    """The direct route on one spec: (degenerate, fits).

    fits holds a :class:`_Fit` per condition: the four labels in
    _LABEL_ORDER when ``real``, else type I and type II.  An exact spec is
    degenerate when every off-diagonal value is zero, a float one when each
    is zero at the absolute floor (scale 0); both store a_0 as zero.  The
    labels are the factors +-1, fitted by :func:`_fit` in both domains on
    :attr:`toepnorm.toeplitz.ToeplitzSpec.array`: an exact spec's cleared
    integers as Python scalars (the equations are homogeneous), a float
    one's array at scale ``spec.max_abs``.  A type I or type II witness is
    the spec's own quotient a_-(p+1) / conj(a_(p+1)) or a_-(p+1) / a_(N-p),
    which keeps each zero's sign: an exact one at the pivot p of one
    :func:`_direct_tests` call, a failing one carrying the kernel's verdict
    as its reason; a float one at the pivot of :func:`_ratio_fit`.
    """
    d, n = spec.array, spec.n
    up, lo = d[n - 1 :: -1], d[n + 1 :]
    if spec.is_exact:
        degenerate, scale, signs = not d.any(), 0.0, (1, -1)
    else:
        degenerate = bool((np.hypot(d.real, d.imag) <= policy.threshold(0.0)).all())
        scale, signs = spec.max_abs, (1.0, -1.0)
    if real:  # a_-k = +-a_k, then a_-k = +-a_{N+1-k}
        if spec.is_exact:
            up, lo = up.tolist(), lo.tolist()
        return degenerate, [_fit(up, s, f, policy, scale) for s in (lo, lo[::-1]) for f in signs]
    ups, los = spec.upper, spec.lower
    quotients = (lambda p: ups[p] / los[p].conjugate(), lambda p: ups[p] / los[-1 - p])
    if not spec.is_exact:
        pairs = zip((lo.conj(), lo[::-1]), quotients)
        return degenerate, [_ratio_fit(up, src, q, policy, scale) for src, q in pairs]
    pivots = _direct_tests(up[None], lo[None], False)[0].tolist()
    miss = _Fit(None, False, ("reason", "no unit-modulus factor fits"))
    return degenerate, [
        miss if p < 0 else _Fit(q(p), True, ("entry", None)) for p, q in zip(pivots, quotients)
    ]


def _violation(message: str, spec, report, names, fits) -> TheoremViolation:
    """The violation of a spec whose fits all fail, reporting each by name.

    A factor not formed, or not finite, is null, so the document the CLI
    prints holds no Infinity or NaN.
    """

    def factor(z):
        finite = not isinstance(z, (float, complex)) or cmath.isfinite(z)
        return _scalar_or_null(z) if finite else None

    deviations = {
        name: {"factor": factor(fit.factor), fit.detail[0]: fit.detail[1]}
        for name, fit in zip(names, fits)
    }
    return TheoremViolation(message, spec=spec, report=report, deviations=deviations)


def _conj_vec(v):
    return v.conj() if isinstance(v, np.ndarray) else tuple(z.conjugate() for z in v)


def classify_complex(spec: ToeplitzSpec, policy: ScalarPolicy) -> ClassificationResult:
    """Direct-route classification: ratio the coefficient vectors.

    The residual scan decides normality; the result carries its scan-only
    report (:func:`toepnorm.normality.check` adds the oracle's verdict).
    Both witnesses are always tested and reported; a normal non-degenerate
    spec matching neither raises :class:`TheoremViolation` with both fits.
    The degenerate flag and both fits come from one :func:`_direct` call: an
    exact witness is the spec's own quotient at the exact kernel's pivot, a
    float one the ratio at the largest entry of the denominator vector,
    verified at scale ``spec.max_abs``.
    """
    report = _scan_report(spec, policy)
    if not report.is_normal_fast:
        return ClassificationResult(Verdict.NOT_NORMAL, normality=report)
    degenerate, fits = _direct(spec, policy, False)
    if degenerate:
        return ClassificationResult(Verdict.DEGENERATE, degenerate=True, normality=report)
    if not any(fit.holds for fit in fits):
        message = "normal spec matched neither structure condition"
        raise _violation(message, spec, report, _TYPES, fits)
    alpha0, beta0 = (fit.factor if fit.holds else None for fit in fits)
    return ClassificationResult(
        Verdict.CLASSIFIED, type_I=alpha0, type_II=beta0, normality=report
    )


def _sample_points(spec: ToeplitzSpec):
    """M = 4(N+1) exact unit-circle samples, as (angle, point) pairs.

    t has at most 2N circle zeros (w^N t(w) is a degree-2N polynomial), so
    with M > 2N distinct points the scan must find t nonzero unless t is
    identically zero.  These are stereographic rational points, the only
    unit scalars available in the field.
    """
    m = 4 * (spec.n + 1)
    pts = []
    for j in range(m):
        w = rational_unit_circle(Fraction(2 * j - m, 8))
        pts.append((math.atan2(float(w.imag), float(w.real)), w))
    return pts


def _float_candidates(spec: ToeplitzSpec):
    """The angles 2*pi*j/M, M = 4(N+1), that may hold the largest Horner |t|.

    t(2*pi*j/M) = sum_k a_{-k} e^{-2*pi*i*jk/M} is entry j of the DFT of
    (0, a_{-1}, .., a_{-N}) zero-padded to length M, so one FFT gives every
    sample F_j.  With u = 2^-53 and D = sum_k |a_{-k}|, each F_j and the
    Horner value H_j at the rounded point cmath.exp(2*pi*i*j/M) lie within
    err = 64(N+1)*u*D of each other:
      - Horner in complex arithmetic: |H_j - t(w~_j)| <= ~4(N+1)*u*D;
      - the rounded angle and exp move the point by |w~_j - w_j| <= ~21u,
        which moves t by at most N*21u*D;
      - the normwise FFT bound c*u*log2(M)*|F|_2 (Higham, Accuracy and
        Stability of Numerical Algorithms, sec. 24.1; c ~ 7 for radix 2) with
        |F|_2 = sqrt(M)*|a|_2 <= sqrt(M)*D and log2(M)*sqrt(M) <= 1.1*M
        gives |F_j - t(w_j)| <= ~31(N+1)*u*D.
    The first Horner maximum j* then has |F_j*| >= |H_j*| - err >=
    max|H| - err >= max|F| - 2*err, and since max|F| <= D + err,
    |F_j*|^2 >= max|F|^2 - 4*err*D.  Every index tying the full scan's
    maximum passes that cut; the slack between 56 and 64 covers rounding
    in the squares and the cut itself.  Candidates come in index order.
    """
    n = spec.n
    m = 4 * (n + 1)
    coeffs = np.zeros(m, dtype=complex)
    coeffs[1 : n + 1] = spec.upper
    f = np.fft.fft(coeffs)
    mags = f.real * f.real + f.imag * f.imag
    d = float(np.abs(coeffs).sum())
    err = 64 * (n + 1) * 2.0**-53 * d
    keep = np.flatnonzero(mags >= mags.max() - 4 * err * d)
    return [(2 * math.pi * j / m, cmath.exp(2j * math.pi * j / m)) for j in keep.tolist()]


def _best_sample(spec: ToeplitzSpec, t):
    """(x0, w0, t(w0)) with the largest |t| on the grid; first index wins ties.

    Float specs only evaluate the FFT-screened :func:`_float_candidates`;
    the choice is the one a Horner scan of all 4(N+1) angles makes.
    """
    points = _sample_points(spec) if spec.is_exact else _float_candidates(spec)
    best = None
    best_mag = None
    for x, w in points:
        tv = eval_at_point(t, w)
        mag = abs_sq(tv)
        if best_mag is None or mag > best_mag:
            best, best_mag = (x, w, tv), mag
    return best


def classify_via_proof(spec: ToeplitzSpec, policy: ScalarPolicy):
    """Constructive route: derive both witnesses from one good sample of t.

    Takes x0 maximizing |t| over M = 4(N+1) sample points, the first on a
    tie.  Exact specs scan M rational unit points by Horner.  Float specs
    sample the angles 2*pi*j/M with one FFT of the zero-padded coefficients,
    keep the indices whose |t|^2 lies within a rounding margin of the FFT
    maximum (derived in :func:`_float_candidates`, proportional to
    sum|a_{-k}|), and let Horner decide among those few, so x0 is the point
    a Horner scan of all M angles picks.  At x0 alpha = s(x0)/t(x0) and
    beta = t(x0)/conj(t(x0)) yield the candidates alpha0 = alpha*beta and
    beta0 = conj(alpha) * w0^{N+1}, which are then verified
    coefficient-wise by :func:`_fit`, on a float spec's array.  A spec
    neither verifies raises :class:`TheoremViolation` with both fits.
    Returns (result, trace); the result carries the scan-only report.  A
    spec the residual scan finds not normal is returned as NotNormal with an
    empty trace.
    """
    report = _scan_report(spec, policy)
    if not report.is_normal_fast:
        return ClassificationResult(Verdict.NOT_NORMAL, normality=report), ProofTrace()
    s, t = trig_coeffs(spec)
    x0, w0, t0 = _best_sample(spec, t)
    t_scale = 0.0 if spec.is_exact else spec.n * spec.max_abs
    if policy.is_zero(t0, t_scale):
        # t vanishes on more points than its degree allows, so t = 0, and
        # normality forces s = 0 with it: everything off-diagonal is zero.
        return (
            ClassificationResult(Verdict.DEGENERATE, degenerate=True, normality=report),
            ProofTrace(),
        )
    s0 = eval_at_point(s, w0)
    alpha = s0 / t0
    beta = t0 / t0.conjugate()
    alpha0 = alpha * beta
    beta0 = alpha.conjugate() * w0 ** (spec.n + 1)
    trace = ProofTrace(
        x0=x0, point=w0, s_at_x0=s0, t_at_x0=t0,
        alpha=alpha, beta=beta, alpha0=alpha0, beta0=beta0,
    )
    d, n = spec.array, spec.n
    up, lo = (spec.upper, spec.lower) if spec.is_exact else (d[n - 1 :: -1], d[n + 1 :])
    scale = 0.0 if spec.is_exact else spec.max_abs
    pairs = ((_conj_vec(lo), alpha0), (lo[::-1], beta0))
    fits = [_fit(up, src, c, policy, scale) for src, c in pairs]
    if not any(fit.holds for fit in fits):
        message = "derived witnesses verify neither structure condition"
        raise _violation(message, spec, report, _TYPES, fits)
    type_I, type_II = (fit.factor if fit.holds else None for fit in fits)
    result = ClassificationResult(
        Verdict.CLASSIFIED, type_I=type_I, type_II=type_II, normality=report
    )
    return result, trace


def classify_real(spec: ToeplitzSpec, policy: ScalarPolicy) -> RealClassificationResult:
    """Label a real spec with every +-1 specialization that holds.

    Symmetric / SkewSymmetric are alpha0 = +1 / -1; Circulant /
    SkewCirculant are beta0 = +1 / -1.  The residual scan decides
    normality, and the result carries its scan-only report.  A normal
    non-degenerate real spec earning no label raises
    :class:`TheoremViolation` with the four fits.
    """
    if not spec.is_real:
        raise ValueError("real classification requires real entries")
    report = _scan_report(spec, policy)
    if not report.is_normal_fast:
        return RealClassificationResult(Verdict.NOT_NORMAL, frozenset(), normality=report)
    degenerate, fits = _direct(spec, policy, True)
    if degenerate:
        return RealClassificationResult(
            Verdict.DEGENERATE, frozenset(), degenerate=True, normality=report
        )
    labels = frozenset(label for label, fit in zip(_LABEL_ORDER, fits) if fit.holds)
    if not labels:
        names = [label.value for label in _LABEL_ORDER]
        raise _violation("normal real spec earned no structure label", spec, report, names, fits)
    return RealClassificationResult(Verdict.CLASSIFIED, labels, normality=report)


def _scalar_or_null(z):
    return None if z is None else scalar_to_json(z)


def trace_to_json(trace: ProofTrace):
    """The trace's fields in order: x0 as a number, the rest as scalars."""
    if trace is None or trace.point is None:
        return None
    rest = {f.name: _scalar_or_null(getattr(trace, f.name)) for f in fields(trace)[1:]}
    return {"x0": trace.x0, **rest}


def classification_to_json(
    result: ClassificationResult,
    real_result: RealClassificationResult | None = None,
    trace: ProofTrace | None = None,
) -> dict:
    real_labels = None
    if real_result is not None:
        real_labels = [l.value for l in _LABEL_ORDER if l in real_result.labels]
    return {
        "verdict": result.verdict.value,
        "type_I": _scalar_or_null(result.type_I),
        "type_II": _scalar_or_null(result.type_II),
        "real_labels": real_labels,
        "degenerate": result.degenerate,
        "trace": trace_to_json(trace),
    }
