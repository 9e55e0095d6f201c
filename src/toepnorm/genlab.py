"""Deterministic spec generators, perturbation, and exhaustive enumeration.

Generators draw the free coefficients from a seeded RNG and derive the
dependent side from the requested structure, so every constrained kind is
normal by construction (exactly so in the exact domain).  Enumeration walks
a finite value grid over all off-diagonal assignments, takes the residual
scan's and the dense oracle's verdicts on all of them in stacked numpy
passes, classifies every normal instance, and reports counts plus any
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
    if isinstance(v, bool):
        return False
    return isinstance(v, (Rational, GaussianRational))


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


def enumerate_and_verify(req: EnumRequest) -> EnumReport:
    """Check and classify every assignment of the 2N off-diagonal values.

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


def enum_report_to_json(report: EnumReport) -> dict:
    return {
        "total": report.total,
        "normal": report.normal,
        "classified": report.classified,
        "degenerate": report.degenerate,
        "violations": list(report.violations),
        "label_histogram": dict(sorted(report.label_histogram.items())),
    }
