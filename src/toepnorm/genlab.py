"""Deterministic spec generators, perturbation, and exhaustive enumeration.

Generators draw the free coefficients from a seeded RNG and derive the
dependent side from the requested structure, so every constrained kind is
normal by construction (exactly so in the exact domain).  Enumeration covers
every off-diagonal assignment over a finite value grid: the residual scan
and the dense oracle each run once per half-spec, lower and upper, in
stacked numpy passes, a join of the halves gives every spec both verdicts,
and the census classifies every normal instance and reports counts plus any
theorem violations (expected: none, ever).
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Rational

import numpy as np

from .classify import (
    _LABEL_ORDER,
    TheoremViolation,
    _direct_tests,
    classify_complex,
    classify_real,
)
from .normality import _table_np
from .scalar import (
    GaussianRational,
    ScalarPolicy,
    SpecFormatError,
    clear_denominators,
    rational_unit_circle,
)
from .toeplitz import (
    ToeplitzSpec,
    _comm,
    _dense_np,
    _stack_array,
    from_diagonals,
    spec_to_json,
)

__all__ = [
    "EnumReport",
    "EnumRequest",
    "GenRequest",
    "Kind",
    "enum_report_to_json",
    "enumerate_and_verify",
    "generate",
    "perturb",
]


class Kind(Enum):
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    SYMMETRIC = "Symmetric"
    SKEW_SYMMETRIC = "SkewSymmetric"
    CIRCULANT = "Circulant"
    SKEW_CIRCULANT = "SkewCirculant"
    UNCONSTRAINED = "Unconstrained"


_WITNESS_KINDS = (Kind.TYPE_I, Kind.TYPE_II)
_REAL_SIGNS = {
    Kind.SYMMETRIC: 1,
    Kind.SKEW_SYMMETRIC: -1,
    Kind.CIRCULANT: 1,
    Kind.SKEW_CIRCULANT: -1,
}
_REAL_KINDS = tuple(_REAL_SIGNS)


@dataclass(frozen=True)
class GenRequest:
    """What to generate: size, structure, witness, seed, value bound."""

    n: int
    kind: Kind
    witness: object = None
    seed: int = 0
    value_scale: object = 1
    exact: bool = False


# Denominator used for rational draws; keeps products small-integer fast.
_DRAW_DEN = 12


def _draw_real(rng: random.Random, bound, exact: bool):
    if exact:
        return bound * Fraction(rng.randint(-_DRAW_DEN, _DRAW_DEN), _DRAW_DEN)
    return rng.uniform(-bound, bound)


def _draw_complex(rng: random.Random, bound, exact: bool):
    # Component bound 7/10 of the modulus bound keeps |a| <= bound exactly,
    # since 2 * (7/10)^2 < 1.
    h = bound * Fraction(7, 10) if exact else bound * 0.7
    if exact:
        return GaussianRational(_draw_real(rng, h, True), _draw_real(rng, h, True))
    return complex(_draw_real(rng, h, False), _draw_real(rng, h, False))


def _default_witness(rng: random.Random, exact: bool):
    u = Fraction(rng.randint(-_DRAW_DEN, _DRAW_DEN), rng.randint(1, _DRAW_DEN))
    w = rational_unit_circle(u)
    return w if exact else complex(w)


def generate(req: GenRequest) -> ToeplitzSpec:
    """Deterministically build a spec of the requested kind.

    TypeI sets a_{-k} = alpha0 * conj(a_k); TypeII sets
    a_{-k} = beta0 * a_{N+1-k}.  The four real kinds are the +-1
    specializations with real draws.  A missing witness for TypeI/TypeII is
    derived from the seed via :func:`rational_unit_circle`, so it is
    unit-modulus in either domain; a given one must lie in the spec's domain
    (exact, or float/complex).  A float spec whose entries would exceed the
    range :func:`toepnorm.toeplitz.spec_from_json` accepts is refused.
    """
    if req.n < 1:
        raise ValueError("n must be at least 1")
    try:
        scale = Fraction(req.value_scale)  # refuses nan and inf
        if not req.exact:
            scale = float(scale)  # refuses values beyond float range
    except (OverflowError, ValueError):
        scale = 0
    if scale <= 0:
        raise ValueError(f"value_scale must be positive and finite, got {req.value_scale!r}")
    rng = random.Random(req.seed)
    witness = None
    if req.kind in _WITNESS_KINDS:
        witness = req.witness if req.witness is not None else _default_witness(rng, req.exact)
        if isinstance(witness, (float, complex)) == req.exact:
            domain = "exact" if req.exact else "float"
            raise ValueError(f"witness {witness!r} is not in the spec's {domain} domain")
        if not ScalarPolicy().is_unit_modulus(witness):
            raise ValueError(f"witness must be unit-modulus, got {witness!r}")
    elif req.witness is not None:
        raise ValueError(f"kind {req.kind.value} does not take a witness")

    if req.kind in _REAL_KINDS:
        lower = [_draw_real(rng, scale, req.exact) for _ in range(req.n)]
    else:
        lower = [_draw_complex(rng, scale, req.exact) for _ in range(req.n)]

    if req.kind is Kind.TYPE_I:
        upper = [witness * z.conjugate() for z in lower]
    elif req.kind is Kind.TYPE_II:
        upper = [witness * z for z in reversed(lower)]
    elif req.kind in _REAL_KINDS:
        sign = _REAL_SIGNS[req.kind]
        src = lower if req.kind in (Kind.SYMMETRIC, Kind.SKEW_SYMMETRIC) else list(reversed(lower))
        upper = [sign * z for z in src]
    else:
        upper = [_draw_complex(rng, scale, req.exact) for _ in range(req.n)]

    try:
        return from_diagonals(list(reversed(upper)) + [0] + lower)
    except SpecFormatError as exc:
        raise ValueError(f"value_scale {req.value_scale!r} is too large: {exc}") from exc


def perturb(spec: ToeplitzSpec, magnitude: float, seed: int = 0) -> ToeplitzSpec:
    """Add an independent complex bump of modulus <= magnitude off-diagonal.

    Approximate domain only; a_0 is left untouched.  A magnitude that is
    negative, NaN or infinite raises ValueError; bumped entries that
    :func:`toepnorm.toeplitz.from_diagonals` refuses raise its SpecFormatError.
    """
    if spec.is_exact:
        raise ValueError("perturb operates on approximate specs only")
    if not math.isfinite(magnitude):
        raise ValueError(f"magnitude must be finite, got {magnitude!r}")
    if magnitude < 0:
        raise ValueError("magnitude must be nonnegative")
    rng = random.Random(seed)
    diag = list(spec.diag)
    for k in range(len(diag)):
        if k == spec.n:
            continue
        r = magnitude * math.sqrt(rng.random())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        diag[k] = diag[k] + r * cmath.exp(1j * phi)
    return from_diagonals(diag)


@dataclass(frozen=True)
class EnumRequest:
    """Exhaustive grid walk over all off-diagonal assignments."""

    n: int
    value_set: tuple
    real_only: bool = False
    budget: int = 10_000_000


@dataclass(frozen=True)
class EnumReport:
    total: int
    normal: int
    classified: int
    degenerate: int
    violations: tuple
    label_histogram: dict


def _is_exact_value(v) -> bool:
    return not isinstance(v, bool) and isinstance(v, (Rational, GaussianRational))


# Normal specs per call of the direct route's stacked kernel, so that its
# arrays stay a few hundred KB at N = 2 however many a census finds.
_BLOCK = 256


def _join(parts: np.ndarray) -> set:
    """Numbers i * H + j, H = parts.shape[1], of the pairs with parts[0][j] == -parts[1][i].

    Float64 and complex128 rows key by their bytes after ``+ 0.0``, so a -0.0
    from the negation matches +0.0; object rows by their tuple.
    """
    lo, up = parts.reshape(2, parts.shape[1], -1)

    def keys(rows):
        return map(tuple, rows.tolist()) if rows.dtype == object else map(bytes, rows + 0.0)

    at = {}
    for j, key in enumerate(keys(lo)):
        at.setdefault(key, []).append(j)
    return {i * len(lo) + j for i, key in enumerate(keys(-up)) for j in at.get(key, ())}


def enumerate_and_verify(req: EnumRequest) -> EnumReport:
    """Check and classify every assignment of the 2N off-diagonal values.

    Exact domain only.  Spec k = i * H + j, H = |G|^N for the grid G, has
    upper half i (a_-n..a_-1) and lower half j (a_1..a_n): row-major order.
    The scan and the oracle each take the H lower and the H upper halves,
    the other side zero, in one stack of the grid's exact values
    (:func:`toepnorm.toeplitz._stack_array`).  Both verdicts split by half
    (:func:`toepnorm.normality._table_np`, :func:`toepnorm.toeplitz._comm`),
    so a spec is normal to one when its lower part equals its upper part
    negated, which one join finds: O(H N^3 + normal specs) work, O(H N^2)
    memory.  The specs both find normal go ``_BLOCK`` at a time to
    :func:`toepnorm.classify._direct_tests`, are counted from its labels or
    pivots (a row of zeros is degenerate), and are never built.  Specs on
    which the verdicts disagree, and normal non-degenerate ones the kernel
    finds nothing for, are built and go, in row-major order, through the
    per-spec classifier into ``violations`` (expected empty): as the theorem
    violation it raises, else as a scan/oracle disagreement or one of the
    stacked and per-spec direct routes (the same kernel in a complex census,
    :func:`toepnorm.classify._fit` in a real one).
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
    d = np.zeros((2, len(halves), 2 * n + 1), grid.dtype)
    lo, up = d  # row j of lo is lower half j, row i of up upper half i
    lo[:, n + 1 :] = up[:, :n] = half_arr
    scan = _join(_table_np(d[..., n + 1 :], d[..., n - 1 :: -1]))
    t = _dense_np(d, n)
    oracle = _join(_comm(t, t))
    disagree, undecided = scan ^ oracle, []
    both = np.array(sorted(scan & oracle), np.int64)
    for start in range(0, len(both), _BLOCK):
        at = both[start : start + _BLOCK]
        rows, cols = np.divmod(at, len(halves))
        stack = up[rows] + lo[cols]
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
        try:
            classify(spec, policy)
        except TheoremViolation as exc:
            error = str(exc)
        else:
            error = "element-wise and dense-oracle verdicts disagree"
            if k not in disagree:
                error = "stacked and per-spec direct routes disagree"
        violations.append({"spec": spec_to_json(spec), "error": error})
    return EnumReport(
        total=total,
        normal=normal,
        classified=classified,
        degenerate=degenerate,
        violations=tuple(violations),
        label_histogram={key: count for key, count in zip(keys, counts.tolist()) if count},
    )


def enum_report_to_json(report: EnumReport) -> dict:
    return {
        "total": report.total,
        "normal": report.normal,
        "classified": report.classified,
        "degenerate": report.degenerate,
        "violations": list(report.violations),
        "label_histogram": dict(sorted(report.label_histogram.items())),
    }
