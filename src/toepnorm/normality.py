"""Element-wise normality test and its agreement with the dense oracle.

A Toeplitz matrix is normal iff every residual

    r(m, n) = a_m*conj(a_n) - conj(a_{-m})*a_{-n}
              + conj(a_{N+1-m})*a_{N+1-n} - a_{-(N+1-m)}*conj(a_{-(N+1-n)})

vanishes for 1 <= m, n <= N.  That is an O(N^2) test with one kernel per
domain: Gaussian-integer pairs in exact mode, numpy outer products in
approximate mode.  The dense commutator from :mod:`toepnorm.toeplitz` is
the independent O(N^3) ground truth, and :func:`check` always runs both and
records whether they agree.  Both verdicts are taken at one threshold on
the scale N * max|a_k|^2 (:func:`residual_scale`).  The residuals form a
Hermitian table (r(m, n) = conj(r(n, m))), so failures always come in
conjugate pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .scalar import ScalarPolicy
from .toeplitz import ToeplitzSpec, commutator_norm

__all__ = [
    "NormalityReport",
    "check",
    "fast_max_residual",
    "is_normal",
    "report_to_json",
    "residual_scale",
]


def residual_scale(spec: ToeplitzSpec) -> float:
    """N * max|a_k|^2, the natural magnitude of one residual (0 when exact)."""
    return 0.0 if spec.is_exact else spec.n * spec.max_abs() ** 2


def _max_exact(spec: ToeplitzSpec):
    """Largest |r(m, n)|^2 and its first pair, on :attr:`ToeplitzSpec.cleared`.

    Every residual is the integer residual of the L-scaled entries divided
    by L^2, so |r|^2 is the integer maximum divided by L^4.  The table is
    Hermitian, so the first row-major maximum lies on or above the diagonal
    and only n >= m is scanned.
    """
    re, im, lcm = spec.cleared
    N = spec.n
    # Column n-1 holds a_n, a_{-n}, a_{N+1-n}, a_{-(N+1-n)} as (re, im).
    xr, xi = re[N + 1 :], im[N + 1 :]
    yr, yi = re[N - 1 :: -1], im[N - 1 :: -1]
    cols = list(zip(xr, xi, yr, yi, xr[::-1], xi[::-1], yr[::-1], yi[::-1]))
    best, pair = 0, (1, 1)
    for m in range(1, N + 1):
        ar, ai, br, bi, cr, ci, dr, di = cols[m - 1]
        for n, (pr, pi, qr, qi, ur, ui, vr, vi) in enumerate(cols[m - 1 :], start=m):
            # a_m conj(a_n) - conj(a_-m) a_-n + conj(a_{N+1-m}) a_{N+1-n}
            # - a_{-(N+1-m)} conj(a_{-(N+1-n)}), split into re and im
            rr = (ar * pr + ai * pi - br * qr - bi * qi
                  + cr * ur + ci * ui - dr * vr - di * vi)
            ri = (ai * pr - ar * pi - br * qi + bi * qr
                  + cr * ui - ci * ur - di * vr + dr * vi)
            s = rr * rr + ri * ri
            if s > best:
                best, pair = s, (m, n)
    return Fraction(best, lcm**4), pair


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[..., :, None] * y[..., None, :]


def _table_np(lo: np.ndarray, up: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Rows ``rows`` of the residual table from (a_1..a_N) and (a_-1..a_-N).

    Rows are m, columns n.  Leading axes stack specs, each with its own
    table.  The four outer products are accumulated in place, in the order
    of the formula, which gives the same bits as ``o1 - o2 + o3 - o4``.
    """
    clo, cup = lo.conj(), up.conj()
    t = _outer(lo[..., rows], clo)
    t -= _outer(cup[..., rows], up)
    t += _outer(clo[..., ::-1][..., rows], lo[..., ::-1])
    t -= _outer(up[..., ::-1][..., rows], cup[..., ::-1])
    return t


# Entries of one float scan block: 64 KB of complex128, so the block's
# temporaries are reused from request to request instead of being returned
# to the operating system and faulted in again.
_BLOCK = 4096


def fast_max_residual(spec: ToeplitzSpec):
    """Max-only residual scan: (magnitude, (m, n)) without keeping the table.

    Exact mode reports the squared magnitude (in-field); approximate mode the
    plain magnitude.  Ties resolve to the first pair in row-major order.  The
    float table is built in blocks of max(1, 4096 // N) rows; each block's
    first maximum replaces the running one only when strictly larger, so the
    value and pair are those of one scan over the whole table.
    """
    if spec.is_exact:
        return _max_exact(spec)
    N = spec.n
    lo, up = np.asarray(spec.lower, complex), np.asarray(spec.upper, complex)
    height = max(1, _BLOCK // N)
    best, pair = -1.0, None
    for start in range(0, N, height):
        mags = np.abs(_table_np(lo, up, slice(start, start + height)))
        flat = int(np.argmax(mags))
        value = float(mags.flat[flat])
        # np.argmax's own rule across blocks: the first NaN, else the first max
        if value > best or (value != value and best == best):
            m, n = divmod(flat, N)
            best, pair = value, (start + m + 1, n + 1)
    return best, pair


def _threshold(spec: ToeplitzSpec, policy: ScalarPolicy):
    return 0 if spec.is_exact else policy.threshold(residual_scale(spec))


def is_normal(spec: ToeplitzSpec, policy: ScalarPolicy) -> bool:
    """The element-wise verdict alone: every residual within the threshold."""
    return fast_max_residual(spec)[0] <= _threshold(spec, policy)


@dataclass(frozen=True, eq=False)
class NormalityReport:
    """Outcome of the dual normality check.

    ``max_residual`` and ``oracle_norm`` are exact rationals holding the
    squares when ``exact``, plain floats otherwise.  ``agrees`` records
    whether the element-wise verdict matched the dense-commutator verdict;
    a disagreement is surfaced, never reconciled.
    """

    max_residual: object
    worst_pair: tuple
    is_normal_fast: bool
    oracle_norm: object
    agrees: bool
    exact: bool


def check(spec: ToeplitzSpec, policy: ScalarPolicy) -> NormalityReport:
    """Run the element-wise test and the dense oracle, report both verdicts.

    The scan is judged at the threshold tau for :func:`residual_scale`
    (literal zero in exact mode).  The oracle measures the commutator C
    (0-based, (N+1) x (N+1)) in the Frobenius norm, so it is held to the
    bounds that tie ||C||_F to the residuals:

    - r(m, n) = C[m][n] - C[m-1][n-1] (up to sign), so max|r| <= 2||C||_F;
    - C is Hermitian and C[N-i][N-j] = -conj(C[i][j]), so each diagonal of
      C ends on the negative of its start: C[0][j] = -1/2 * (sum of the at
      most N residuals along that diagonal).  Every entry of C is then a
      half-difference of partial sums, |C[i][j]| <= N/2 * max|r|, and
      ||C||_F <= N(N+1)/2 * max|r|.

    So a scan that finds the spec normal agrees when
    oracle <= N(N+1)/2 * tau, and one that finds it not normal agrees when
    oracle > tau/2.  In exact mode tau = 0, so the oracle (its square) must
    be zero exactly when every residual is.
    """
    thresh = _threshold(spec, policy)
    best, pair = fast_max_residual(spec)
    fast_ok = best <= thresh
    oracle = commutator_norm(spec)
    if spec.is_exact:
        agrees = fast_ok == (oracle == 0)
    elif fast_ok:
        agrees = oracle <= spec.n * (spec.n + 1) / 2 * thresh
    else:
        agrees = oracle > thresh / 2
    return NormalityReport(
        max_residual=best,
        worst_pair=pair,
        is_normal_fast=fast_ok,
        oracle_norm=oracle,
        agrees=agrees,
        exact=spec.is_exact,
    )


def _real_to_json(value, exact: bool):
    return str(value) if exact else float(value)


def report_to_json(report: NormalityReport) -> dict:
    return {
        "normal": report.is_normal_fast,
        "max_residual": _real_to_json(report.max_residual, report.exact),
        "worst_pair": list(report.worst_pair),
        "oracle_norm": _real_to_json(report.oracle_norm, report.exact),
        "squared": report.exact,
        "agrees": report.agrees,
        "exact": report.exact,
    }
