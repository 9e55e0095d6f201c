"""Deterministic spec generators, perturbation, and exhaustive enumeration.

Generators draw the free coefficients from a seeded RNG and derive the
dependent side from the requested structure, so every constrained kind is
normal by construction (exactly so in the exact domain).  Enumeration walks
a finite value grid over all off-diagonal assignments, checks normality
with the dual-route checker, classifies every normal instance, and reports
counts plus any theorem violations (expected: none, ever).
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

from .classify import (
    TheoremViolation,
    Verdict,
    classify_complex,
    classify_real,
)
from .normality import check
from .scalar import GaussianRational, ScalarPolicy, rational_unit_circle
from .toeplitz import (
    ToeplitzSpec,
    _as_fraction,
    _as_gaussian,
    _float_range_problem,
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
_REAL_KINDS = (
    Kind.SYMMETRIC,
    Kind.SKEW_SYMMETRIC,
    Kind.CIRCULANT,
    Kind.SKEW_CIRCULANT,
)
_REAL_SIGNS = {
    Kind.SYMMETRIC: 1,
    Kind.SKEW_SYMMETRIC: -1,
    Kind.CIRCULANT: 1,
    Kind.SKEW_CIRCULANT: -1,
}


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

    diag = list(reversed(upper)) + [0] + lower
    problem = None if req.exact else _float_range_problem(req.n, diag)
    if problem:
        raise ValueError(f"value_scale {req.value_scale!r} is too large: {problem}")
    return from_diagonals(diag)


def perturb(spec: ToeplitzSpec, magnitude: float, seed: int = 0) -> ToeplitzSpec:
    """Add an independent complex bump of modulus <= magnitude off-diagonal.

    Approximate domain only; a_0 is left untouched.
    """
    if spec.is_exact:
        raise ValueError("perturb operates on approximate specs only")
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


def enumerate_and_verify(req: EnumRequest) -> EnumReport:
    """Check and classify every assignment of the 2N off-diagonal values.

    Exact domain only.  Runs the dual normality check on each instance and
    classifies the normal ones (real labels when ``real_only``, otherwise
    type witnesses).  Any theorem violation, or any fast/oracle verdict
    disagreement, lands in ``violations``; both are expected to stay empty.
    """
    values = tuple(req.value_set)
    if not values:
        raise ValueError("value_set must not be empty")
    if not all(_is_exact_value(v) for v in values):
        raise ValueError("enumeration values must be exact scalars")
    if req.real_only and not all(isinstance(v, Rational) for v in values):
        raise ValueError("real enumeration needs real values")
    total = len(values) ** (2 * req.n)
    if total > req.budget:
        raise ValueError(
            f"{len(values)}^{2 * req.n} = {total} instances exceed the budget "
            f"of {req.budget}; raise the budget to at least {total} to proceed"
        )
    policy = ScalarPolicy()
    normal = classified = degenerate = 0
    violations = []
    histogram = {}

    def bump(key):
        histogram[key] = histogram.get(key, 0) + 1

    # Each half of the off-diagonal, a_-n..a_-1 or a_1..a_n, is put once in
    # the canonical forms from_diagonals would give it: Fractions when the
    # whole spec is real, GaussianRationals else.
    halves = list(itertools.product(values, repeat=req.n))
    real = [all(v.imag == 0 for v in h) for h in halves]
    fracs = [tuple(map(_as_fraction, h)) if r else None for h, r in zip(halves, real)]
    gauss = [tuple(map(_as_gaussian, h)) for h in halves]
    zero_f, zero_g = (Fraction(0),), (GaussianRational(0),)
    for i, j in itertools.product(range(len(halves)), repeat=2):
        if real[i] and real[j]:
            diag = fracs[i] + zero_f + fracs[j]
        else:
            diag = gauss[i] + zero_g + gauss[j]
        spec = ToeplitzSpec(req.n, diag)
        report = check(spec, policy)
        try:
            if req.real_only:
                res = classify_real(spec, policy, report)
            else:
                res = classify_complex(spec, policy, report)
        except TheoremViolation as exc:
            violations.append({"spec": spec_to_json(spec), "error": str(exc)})
            continue
        if not report.agrees:
            violations.append(
                {
                    "spec": spec_to_json(spec),
                    "error": "element-wise and dense-oracle verdicts disagree",
                }
            )
            continue
        if res.verdict is Verdict.NOT_NORMAL:
            continue
        normal += 1
        if res.verdict is Verdict.DEGENERATE:
            degenerate += 1
        elif req.real_only:
            classified += 1
            for label in res.labels:
                bump(label.value)
        else:
            classified += 1
            if res.type_I is not None:
                bump("type_I")
            if res.type_II is not None:
                bump("type_II")
    return EnumReport(
        total=total,
        normal=normal,
        classified=classified,
        degenerate=degenerate,
        violations=tuple(violations),
        label_histogram=histogram,
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
