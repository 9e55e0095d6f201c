"""Reference forms of the package's quantities, for the tests only.

Each is written straight from its definition and shares as little as it can
with the kernels the tests check against it.  Not a test module: pytest
does not collect it.
"""

import itertools
from fractions import Fraction

import numpy as np

from toepnorm.classify import (
    _LABEL_ORDER,
    TheoremViolation,
    _best_sample,
    _direct_tests,
    classify_complex,
    classify_real,
)
from toepnorm.genlab import EnumReport, EnumRequest, _is_exact_value
from toepnorm.normality import _table_np
from toepnorm.polyid import eval_at_point, trig_coeffs
from toepnorm.scalar import GaussianRational, ScalarPolicy, clear_denominators
from toepnorm.toeplitz import (
    ToeplitzSpec,
    _comm,
    _commutator_int,
    _dense_np,
    _stack_array,
    from_diagonals,
    spec_to_json,
)


def entry(spec: ToeplitzSpec, k):
    """The diagonal value a_k, -n <= k <= n."""
    if not -spec.n <= k <= spec.n:
        raise ValueError(f"diagonal index {k} out of range for n={spec.n}")
    return spec.diag[k + spec.n]


def residual(spec: ToeplitzSpec, m: int, n: int):
    """Single residual r(m, n); indices must satisfy 1 <= m, n <= N.

    Written straight from the formula; it is the reference the scan is
    tested against.
    """
    N = spec.n
    if not (1 <= m <= N and 1 <= n <= N):
        raise ValueError(f"residual indices must lie in 1..{N}, got ({m}, {n})")

    def e(k):
        return entry(spec, k)

    return (
        e(m) * e(n).conjugate()
        - e(-m).conjugate() * e(-n)
        + e(N + 1 - m).conjugate() * e(N + 1 - n)
        - e(-(N + 1 - m)) * e(-(N + 1 - n)).conjugate()
    )


def _max_exact(spec: ToeplitzSpec):
    """Largest |r(m, n)|^2 and its first pair, on :attr:`ToeplitzSpec.cleared`.

    The exact scan as eight-component Python ints per pair.  Every residual
    is the integer residual of the L-scaled entries divided by L^2, so
    |r|^2 is the integer maximum divided by L^4.  The table is Hermitian,
    so the first row-major maximum lies on or above the diagonal and only
    n >= m is scanned.
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


def materialize(spec: ToeplitzSpec) -> list:
    """Dense (N+1)x(N+1) matrix with M[i][j] = a_{i-j} (stored a_0 included)."""
    n = spec.n
    return [[spec.diag[i - j + n] for j in range(spec.dim)] for i in range(spec.dim)]


def _commutator_exact(spec: ToeplitzSpec) -> list:
    flat, den = _commutator_int(spec)
    width = 2 * spec.dim
    rows = [flat[i : i + width] for i in range(0, len(flat), width)]
    if spec.is_real:
        return [[Fraction(r, den) for r in row[::2]] for row in rows]
    return [
        [
            GaussianRational._of(Fraction(r, den), Fraction(i, den))
            for r, i in zip(row[::2], row[1::2])
        ]
        for row in rows
    ]


def dense(spec: ToeplitzSpec) -> np.ndarray:
    """complex128 T[i][j] = a_(i-j) with a_0 forced to zero, by fancy indexing."""
    d = np.asarray(spec.diag, dtype=complex)
    d[spec.n] = 0
    i = np.arange(spec.dim)
    return d[np.subtract.outer(i, i) + spec.n]


def commutator(spec: ToeplitzSpec) -> list:
    """Dense T*T^H - T^H*T with a_0 forced to zero.

    An exact spec's is the oracle's own integer commutator over L^2, which
    the tests hold to a triple loop.  A float spec's is the two-product
    form in complex128, independent of the oracle's one-product kernel.
    """
    if spec.is_exact:
        return _commutator_exact(spec)
    t = dense(spec)
    th = t.conj().T
    return (t @ th - th @ t).tolist()


def identity8_residual_at_points(spec: ToeplitzSpec, w, z):
    """polyid.identity8_residual at unit-circle scalars; exact for exact w, z."""
    s, t = trig_coeffs(spec)
    sw, sz = eval_at_point(s, w), eval_at_point(s, z)
    tw, tz = eval_at_point(t, w), eval_at_point(t, z)
    phase = (w * z.conjugate()) ** (spec.n + 1)
    return (
        sw * sz.conjugate()
        - tw.conjugate() * tz
        + (sw.conjugate() * sz - tw * tz.conjugate()) * phase
    )


def poly_mul_loop(a, b) -> list:
    """The convolution of two coefficient sequences by the plain double loop."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def gaussian_quotient(z, w) -> GaussianRational:
    """z / w for exact z and w, by the Fraction formula on their parts.

    The former GaussianRational division: every product, sum and quotient
    is a normalised Fraction.
    """
    zr, zi = (z.real, z.imag) if isinstance(z, GaussianRational) else (Fraction(z), Fraction(0))
    wr, wi = (w.real, w.imag) if isinstance(w, GaussianRational) else (Fraction(w), Fraction(0))
    d = wr * wr + wi * wi
    if d == 0:
        raise ZeroDivisionError("division by zero GaussianRational")
    return GaussianRational._of((zr * wr + zi * wi) / d, (zi * wr - zr * wi) / d)


def max_deviation(target, source, factor) -> float:
    """The largest abs(t - factor * s) over the entries, in Python's complex arithmetic."""
    return max(abs(complex(t) - complex(factor) * complex(s)) for t, s in zip(target, source))


def condition_holds(target, source, factor, policy: ScalarPolicy, scale) -> bool:
    """The former condition test: target[k] = factor * source[k] for every k.

    One ``policy.is_zero`` per entry on Python scalars: Python's complex
    arithmetic for float vectors, literal equality for exact ones.
    """
    return all(policy.is_zero(t - factor * s, scale) for t, s in zip(target, source))


def float_unit_ratio(numer, denom, policy: ScalarPolicy):
    """The former float ratio test: unit-modulus c with numer = c * denom, or None.

    c is the quotient at the largest |denom[k]| (the first on a tie) and
    must fit every entry at the scale of the largest entry of both vectors.
    Where denom is zero at that entry no single c is reported: None whether
    numer vanishes too (every unit c fits) or not (none does).
    """
    scale = float(max(abs(x) for x in numer + denom))
    mags = [abs(x) for x in denom]
    pivot = mags.index(max(mags))
    if policy.is_zero(denom[pivot], scale):
        return None
    c = numer[pivot] / denom[pivot]
    if not policy.is_unit_modulus(c) or not condition_holds(numer, denom, c, policy, scale):
        return None
    return c


def float_direct(spec: ToeplitzSpec, policy: ScalarPolicy, real: bool) -> tuple:
    """The former float direct route: (degenerate, tests).

    degenerate when every off-diagonal value is zero at the absolute floor.
    tests are the type I and type II witnesses of :func:`float_unit_ratio`,
    or when ``real`` the four label conditions a_-k = +-a_k and
    a_-k = +-a_{N+1-k} in that order, at the scale of the largest entry.
    """
    up, lo = spec.upper, spec.lower
    degenerate = all(policy.is_zero(x) for x in lo + up)
    if not real:
        conj = tuple(z.conjugate() for z in lo)
        return degenerate, [float_unit_ratio(up, src, policy) for src in (conj, lo[::-1])]
    scale = float(max(abs(x) for x in up + lo))
    rlo = tuple(reversed(lo))
    conditions = ((lo, 1.0), (lo, -1.0), (rlo, 1.0), (rlo, -1.0))
    return degenerate, [condition_holds(up, src, f, policy, scale) for src, f in conditions]


def float_proof(spec: ToeplitzSpec, policy: ScalarPolicy) -> tuple:
    """The former float proof route on a spec taken as normal: (degenerate, witnesses, trace).

    It samples t where the package does (``classify._best_sample``), derives
    alpha0 and beta0 there and verifies them with :func:`condition_holds` on
    the spec's own values.  witnesses are [type I, type II], None where the
    witness fails; trace is (x0, point, s(x0), t(x0), alpha, beta, alpha0,
    beta0), or None for a degenerate spec.
    """
    up, lo = spec.upper, spec.lower
    scale = float(max(abs(x) for x in up + lo))
    s, t = trig_coeffs(spec)
    x0, w0, t0 = _best_sample(spec, t)
    if policy.is_zero(t0, spec.n * scale):
        return True, [None, None], None
    s0 = eval_at_point(s, w0)
    alpha = s0 / t0
    beta = t0 / t0.conjugate()
    alpha0 = alpha * beta
    beta0 = alpha.conjugate() * w0 ** (spec.n + 1)
    conj = tuple(z.conjugate() for z in lo)
    witnesses = [
        c if condition_holds(up, src, c, policy, scale) else None
        for src, c in ((conj, alpha0), (tuple(reversed(lo)), beta0))
    ]
    return False, witnesses, (x0, w0, s0, t0, alpha, beta, alpha0, beta0)


# Specs per stacked block, so that a census holds the same arrays however
# many specs it walks: a few hundred KB at N = 2.
_BLOCK = 256


def _stacked_verdicts(d: np.ndarray, n: int) -> tuple:
    """Scan and oracle normality verdicts for a stack of diagonals.

    ``d`` is (B, 2n+1) with a_0 = 0.  The scan finds a spec normal when its
    residual table is all zero, the oracle when its commutator is; the two
    share nothing beyond ``d``.
    """
    scan = (_table_np(d[:, n + 1 :], d[:, n - 1 :: -1]) == 0).all(axis=(1, 2))
    t = _dense_np(d, n)
    return scan, (_comm(t, t) == 0).all(axis=(1, 2))


def census_walk(req: EnumRequest) -> EnumReport:
    """The census as :func:`toepnorm.genlab.enumerate_and_verify` took it
    before the half-spec join: both verdicts on every spec.

    Exact domain only.  The specs are walked row-major over (a_-n..a_-1,
    a_1..a_n) in blocks of stacked arrays of the grid's exact values
    (:func:`toepnorm.toeplitz._stack_array`: float64 or complex128 by the
    rule of :attr:`toepnorm.toeplitz.ToeplitzSpec.array`, so real values
    run real with or without ``real_only``), where the residual scan and
    the dense oracle each give every spec a verdict.  The specs both find
    normal are gathered, at least a block's worth at a time: a row of zeros
    is degenerate, and the direct route's stacked kernel
    (:func:`toepnorm.classify._direct_tests`) gives each row its real labels
    when ``real_only``, otherwise its type I and type II pivots.  They are
    counted from these and never built.  After the walk, two kinds of spec
    are built and go through the per-spec classifier, in row-major order:
    those on which the two verdicts disagree, and normal non-degenerate ones
    the kernel finds no label or witness for.  Each lands in
    ``violations``, expected to stay empty: as a theorem violation where the
    classifier raises one, else as a scan/oracle disagreement or as a
    disagreement of the stacked and per-spec direct routes (the same kernel
    in a complex census, :func:`toepnorm.classify._fit` in a real one).
    """
    values = tuple(req.value_set)
    if not values:
        raise ValueError("value_set must not be empty")
    if not all(_is_exact_value(v) for v in values):
        raise ValueError("enumeration values must be exact scalars")
    if req.real_only and any(v.imag != 0 for v in values):
        raise ValueError("real enumeration needs real values")
    n = req.n
    total = len(values) ** (2 * n)
    if total > req.budget:
        raise ValueError(
            f"{len(values)}^{2 * n} = {total} instances exceed the budget "
            f"of {req.budget}; raise the budget to at least {total} to proceed"
        )
    policy = ScalarPolicy()
    classify = classify_real if req.real_only else classify_complex
    keys = [label.value for label in _LABEL_ORDER] if req.real_only else ["type_I", "type_II"]
    normal = classified = degenerate = 0
    counts = np.zeros(len(keys), np.int64)
    violations = []
    halves = list(itertools.product(values, repeat=n))
    grid = _stack_array(clear_denominators(values), n)
    half_arr = grid[np.array(list(itertools.product(range(len(values)), repeat=n)))]
    # Normal rows wait in ``held`` until a block's worth is ready for the
    # direct-route kernel.  ``disagree`` and ``undecided`` collect the row
    # numbers that take the per-spec path after the walk.
    held, held_at, held_count = [], [], 0
    disagree, undecided = set(), []
    for start in range(0, total, _BLOCK):
        rows, cols = np.divmod(np.arange(start, min(start + _BLOCK, total)), len(halves))
        d = np.zeros((len(rows), 2 * n + 1), grid.dtype)
        d[:, :n] = half_arr[rows]
        d[:, n + 1 :] = half_arr[cols]
        scan, oracle = _stacked_verdicts(d, n)
        disagree.update((start + np.flatnonzero(scan != oracle)).tolist())
        both = np.flatnonzero(scan & oracle)
        held.append(d[both])
        held_at.append(start + both)
        held_count += len(both)
        if held_count < _BLOCK and start + _BLOCK < total:
            continue
        stack, at = np.concatenate(held), np.concatenate(held_at)
        held, held_at, held_count = [], [], 0
        tests = _direct_tests(stack[:, n - 1 :: -1], stack[:, n + 1 :], req.real_only)
        degen = ~stack.any(axis=1)
        holds = (tests if req.real_only else tests >= 0) & ~degen[:, None]
        found = holds.any(axis=1)
        decided = degen | found
        normal += int(decided.sum())
        degenerate += int(degen.sum())
        classified += int(found.sum())
        counts += holds.sum(axis=0)
        undecided += at[~decided].tolist()
    for k in sorted(disagree.union(undecided)):
        i, j = divmod(k, len(halves))
        spec = from_diagonals(halves[i] + (0,) + halves[j])
        agree = k not in disagree
        try:
            classify(spec, policy)
        except TheoremViolation as exc:
            error = str(exc)
        else:
            error = (
                "stacked and per-spec direct routes disagree"
                if agree
                else "element-wise and dense-oracle verdicts disagree"
            )
        violations.append({"spec": spec_to_json(spec), "error": error})
    return EnumReport(
        total=total,
        normal=normal,
        classified=classified,
        degenerate=degenerate,
        violations=tuple(violations),
        label_histogram={key: count for key, count in zip(keys, counts.tolist()) if count},
    )
