"""Element-wise normality test and its agreement with the dense oracle.

A Toeplitz matrix is normal iff every residual

    r(m, n) = a_m*conj(a_n) - conj(a_{-m})*a_{-n}
              + conj(a_{N+1-m})*a_{N+1-n} - a_{-(N+1-m)}*conj(a_{-(N+1-n)})

vanishes for 1 <= m, n <= N.  That is an O(N^2) test with one kernel in
both domains, :func:`_table_np`: numpy outer products of the floats or
cleared Gaussian integers of :attr:`toepnorm.toeplitz.ToeplitzSpec.array`,
walked in row blocks.  Each spec object runs it once, whoever asks
(:attr:`toepnorm.toeplitz.ToeplitzSpec._scan`).  The dense commutator from
:mod:`toepnorm.toeplitz` is the independent O(N^3) ground truth, and
:func:`check` always runs both and records whether they agree; the
classifiers need the scan's verdict alone (:func:`_scan_report`).  Both
verdicts are taken at one threshold on the scale N * max|a_k|^2
(:func:`residual_scale`).  The residuals form a Hermitian table
(r(m, n) = conj(r(n, m))), so failures always come in conjugate pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    return 0.0 if spec.is_exact else spec.n * spec.max_abs ** 2


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[..., :, None] * y[..., None, :]


def _table_np(lo: np.ndarray, up: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Rows ``rows`` of the residual table from (a_1..a_N) and (a_-1..a_-N).

    Rows are m, columns n.  Leading axes stack specs, each with its own
    table.  The four outer products are accumulated in place, in the order
    of the formula, which gives the same bits as ``o1 - o2 + o3 - o4``.

    The table splits by half, ``_table_np(lo, up) = _table_np(lo, 0) +
    _table_np(0, up)``: terms 1 and 3 read only a_1..a_N, 2 and 4 only a_-1..a_-N.
    """
    clo, cup = lo.conj(), up.conj()
    t = _outer(lo[..., rows], clo)
    t -= _outer(cup[..., rows], up)
    t += _outer(clo[..., ::-1][..., rows], lo[..., ::-1])
    t -= _outer(up[..., ::-1][..., rows], cup[..., ::-1])
    return t


# Entries of one scan block: 64 KB of complex128 at most, so the block's
# temporaries are reused from request to request instead of being returned
# to the operating system and faulted in again.
_BLOCK = 4096


def _pick_float(t: np.ndarray, best: float):
    """(|r|, flat index) of the block's first NaN, else first max, if it beats ``best``."""
    mags = np.abs(t)
    flat = int(np.argmax(mags))
    value = float(mags.flat[flat])
    if value > best or (value != value and best == best):
        return value, flat


def _pick_exact(t: np.ndarray, best: int):
    """(|r|^2, flat index) of the block's first largest |r|^2 if above ``best``.

    ``t`` holds Gaussian integers, whose Python-int |r|^2 decide.  An object
    table tries every entry; a float64 or complex128 one (the rule of
    :attr:`toepnorm.toeplitz.ToeplitzSpec.array`) has exact parts below 2^53
    and tries the float |r|^2 at or above F (1 - 2^-49), F their maximum.
    Each term of fl(fl(re^2) + fl(im^2)) is rounded twice by a relative
    u = 2^-53, so it lies within a relative 2^-51 of the exact |r|^2.  With
    S the block's exact maximum, F <= S (1 + 2^-51), each tie of S has
    float |r|^2 >= S (1 - 2^-51), and the cut, rounded, is at most
    S (1 + 2^-51)(1 - 2^-49)(1 + 2^-53) < S (1 - 2^-51): every tie of S
    passes, in row-major order.  An all-zero block has nothing above ``best``.
    """
    if not t.any():
        return None
    if t.dtype == object:
        flats = np.arange(t.size)
    else:
        sq = t.real * t.real + t.imag * t.imag
        flats = np.flatnonzero(sq >= sq.max() * (1 - 2.0**-49))
    found = None
    for flat, z in zip(flats.tolist(), t.ravel()[flats].tolist()):
        value = int(z.real) ** 2 + int(z.imag) ** 2
        if value > best:
            best, found = value, (value, flat)
    return found


def fast_max_residual(spec: ToeplitzSpec):
    """Max-only residual scan: (magnitude, (m, n)) without keeping the table.

    Exact mode reports the squared magnitude (in-field); approximate mode the
    plain magnitude.  Ties resolve to the first pair in row-major order.
    The table of :attr:`ToeplitzSpec.array`, float64 or complex128 by that
    attribute's rule (an object array beyond one limb), is built in blocks of
    max(1, 4096 // N) rows; each block's first maximum replaces the running
    one only when strictly larger, so the value and pair are those of one
    scan over the whole table.  An exact spec's table holds its residuals
    times L^2, L the denominator of :attr:`ToeplitzSpec.cleared`.  Every
    call scans; the verdicts read the spec's cached :attr:`ToeplitzSpec._scan`.
    """
    d, N = spec.array, spec.n
    pick, best, pair = (_pick_exact, 0, (1, 1)) if spec.is_exact else (_pick_float, -1.0, None)
    # A contiguous copy builds the table faster than the reversed view, same bits.
    lo, up = d[N + 1 :], d[N - 1 :: -1].copy()
    height = max(1, _BLOCK // N)
    for start in range(0, N, height):
        found = pick(_table_np(lo, up, slice(start, start + height)), best)
        if found:
            best, flat = found
            m, n = divmod(flat, N)
            pair = (start + m + 1, n + 1)
    return (Fraction(best, spec.cleared[2] ** 4) if spec.is_exact else best), pair


def _threshold(spec: ToeplitzSpec, policy: ScalarPolicy):
    return 0 if spec.is_exact else policy.threshold(residual_scale(spec))


def is_normal(spec: ToeplitzSpec, policy: ScalarPolicy) -> bool:
    """The element-wise verdict alone: every residual within the threshold."""
    return spec._scan[0] <= _threshold(spec, policy)


@dataclass(frozen=True, eq=False)
class NormalityReport:
    """Outcome of the normality check.

    ``max_residual`` and ``oracle_norm`` are exact rationals holding the
    squares when ``exact``, plain floats otherwise.  ``agrees`` records
    whether the element-wise verdict matched the dense-commutator verdict;
    a disagreement is surfaced, never reconciled.  A scan-only report
    (:func:`_scan_report`) leaves ``oracle_norm`` and ``agrees`` None.
    """

    max_residual: object
    worst_pair: tuple
    is_normal_fast: bool
    oracle_norm: object
    agrees: bool
    exact: bool


def _scan_report(spec: ToeplitzSpec, policy: ScalarPolicy) -> NormalityReport:
    """The residual scan's verdict as a report, without the oracle.

    ``oracle_norm`` and ``agrees`` are None.  The classifiers take this
    report and read ``is_normal_fast`` alone; :func:`check` builds on it and
    adds the oracle.
    """
    best, pair = spec._scan
    return NormalityReport(
        max_residual=best,
        worst_pair=pair,
        is_normal_fast=best <= _threshold(spec, policy),
        oracle_norm=None,
        agrees=None,
        exact=spec.is_exact,
    )


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
    report = _scan_report(spec, policy)
    thresh = _threshold(spec, policy)
    oracle = commutator_norm(spec)
    if spec.is_exact:
        agrees = report.is_normal_fast == (oracle == 0)
    elif report.is_normal_fast:
        agrees = oracle <= spec.n * (spec.n + 1) / 2 * thresh
    else:
        agrees = oracle > thresh / 2
    return replace(report, oracle_norm=oracle, agrees=agrees)


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
