"""Seeded spec construction and the fixed request plan of each workload.

The benchmark builds its own specs instead of calling ``toepnorm generate``,
so the expected verdict of every spec comes from its construction:

* typeI:  a_{-k} = w * conj(a_k) with |w| = 1;
* typeII: a_{-k} = w * a_{N+1-k} with |w| = 1;
* symmetric / skew-symmetric: a_{-k} = +-a_k, real;
* circulant / skew-circulant: a_{-k} = +-a_{N+1-k}, real;
* unconstrained: both sides drawn independently, redrawn until the
  benchmark's own commutator is nonzero, so the expected verdict is
  "not normal".

Exact draws are nonzero multiples of 1/12 per component and exact
witnesses are the eight unit points (+-3 +-4i)/5, (+-4 +-3i)/5, so the size
of the numbers, and with it the cost of exact arithmetic, does not depend
on the seed.  Float draws are uniform in [-1, 1] per component.  The main
diagonal a_0 is drawn too (real for the real kinds): every analysis must
ignore it.

The plan of a workload is the same for every seed: which commands run, in
which order, on which (kind, N).  The seed changes only the values.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from fractions import Fraction

import checks

KINDS = (
    "typeI",
    "typeII",
    "symmetric",
    "skew-symmetric",
    "circulant",
    "skew-circulant",
    "unconstrained",
)
REAL_KINDS = ("symmetric", "skew-symmetric", "circulant", "skew-circulant")

# (kind, N) of each spec, every kind at every size.  The sizes keep a round
# near one second, so that a run holds dozens of rounds and the mean over
# them averages the machine's changes of speed (see README.md, "Steadiness").
EXACT_SIZES = [(k, n) for n in (3, 6, 12) for k in KINDS]
FLOAT_SIZES = [(k, n) for n in (64, 128) for k in KINDS]

# Unconstrained float specs scaled by 2^-24 (exact in binary floating
# point).  Their values do not depend on the seed.  Each is as far from
# normal as its unit-scale original, but toepnorm's absolute tolerance
# floor of 1e-12 outweighs the relative threshold at this scale, so every
# command on them fails: check says normal, classify exits 3.
TINY_SCALE_EXP = -24
TINY_SLICE = [(128, "tiny-scale-0"), (128, "tiny-scale-1")]

# enumerate calls per round as (n, value grid, real only).  The census
# calls walk every real spec over -2..2 at N = 2 (625 specs) and every
# Gaussian spec over {-1, 0, 1} + {-1, 0, 1}i at N = 1 (81 specs); the float
# workload makes one small call so that it reports enumerate_ms too.
ENUMERATE = {
    "exact-requests": [(2, "int2", True), (1, "gauss1", False)],
    "float-requests": [(1, "int2", True)],
}

_EXACT_WITNESSES = [
    (Fraction(a, 5), Fraction(b, 5))
    for a, b in ((3, 4), (4, 3))
    for a, b in ((a, b), (-a, b), (a, -b), (-a, -b))
]


def _exact_real(rng):
    v = rng.choice([k for k in range(-12, 13) if k])
    return Fraction(v, 12)


def _draw(rng, exact, real):
    if exact:
        return (_exact_real(rng), Fraction(0) if real else _exact_real(rng))
    return complex(rng.uniform(-1.0, 1.0), 0.0 if real else rng.uniform(-1.0, 1.0))


def _witness(rng, exact):
    if exact:
        return rng.choice(_EXACT_WITNESSES)
    return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _mul(w, z, exact):
    return checks.qmul(w, z) if exact else w * z


def _conj(z, exact):
    return checks.qconj(z) if exact else z.conjugate()


def _neg(z, exact):
    return (-z[0], -z[1]) if exact else -z


def build_spec(kind: str, n: int, exact: bool, rng: random.Random) -> dict:
    """A spec record: the off-diagonal data plus what its construction implies."""
    real = kind in REAL_KINDS
    lower = [_draw(rng, exact, real) for _ in range(n)]
    a0 = _draw(rng, exact, real)
    if kind == "typeI":
        w = _witness(rng, exact)
        upper = [_mul(w, _conj(z, exact), exact) for z in lower]
    elif kind == "typeII":
        w = _witness(rng, exact)
        upper = [_mul(w, z, exact) for z in reversed(lower)]
    elif kind in REAL_KINDS:
        src = lower if kind in ("symmetric", "skew-symmetric") else lower[::-1]
        upper = [_neg(z, exact) if kind.startswith("skew") else z for z in src]
    else:
        while True:
            upper = [_draw(rng, exact, False) for _ in range(n)]
            if _far_from_normal(lower, upper, exact):
                break
            lower = [_draw(rng, exact, False) for _ in range(n)]
    spec = {
        "kind": kind,
        "n": n,
        "exact": exact,
        "lower": lower,
        "upper": upper,
        "a0": a0,
        "normal": kind != "unconstrained",
        "tiny": False,
    }
    if not spec["normal"]:
        _add_reference_norms(spec)
    return spec


def _far_from_normal(lower, upper, exact) -> bool:
    if exact:
        ints, _ = checks.integer_diag(checks.full_diag(lower, upper))
        return not checks.commutator_is_zero(ints)
    # Far beyond any tolerance: a diagonal commutator entry of at least
    # 1e-3 of the natural residual scale N * max|a|^2.
    scale = len(lower) * max(abs(z) for z in lower + upper) ** 2
    return checks.commutator_diagonal_max(lower, upper) > Fraction(1e-3) * Fraction(scale)


def _add_reference_norms(spec):
    """Own commutator figures that the check output is compared against."""
    if spec["exact"]:
        spec["max_residual_sq"] = checks.max_residual_sq(spec["lower"], spec["upper"])
        spec["frobenius_sq"] = checks.commutator_frobenius_sq(spec["lower"], spec["upper"])
    else:
        spec["diag_max"] = checks.commutator_diagonal_max(spec["lower"], spec["upper"])
        spec["max_residual_abs"] = checks.max_residual_abs_float(spec["lower"], spec["upper"])


def tiny_spec(n: int, label: str) -> dict:
    """An unconstrained float spec scaled by 2^-24; its verdict is that of
    the unit-scale spec, which differs from it by an exact power of two."""
    unit = build_spec("unconstrained", n, False, random.Random(label))
    spec = dict(unit)
    spec["lower"] = [_ldexp(z) for z in unit["lower"]]
    spec["upper"] = [_ldexp(z) for z in unit["upper"]]
    spec["a0"] = _ldexp(unit["a0"])
    spec["tiny"] = True
    _add_reference_norms(spec)
    return spec


def _ldexp(z):
    return complex(math.ldexp(z.real, TINY_SCALE_EXP), math.ldexp(z.imag, TINY_SCALE_EXP))


def _scalar_json(z, exact):
    if exact:
        return {"re": str(z[0]), "im": str(z[1])}
    return {"re": z.real, "im": z.imag}


def spec_json(spec) -> dict:
    """The spec in toepnorm's input format: a_{-N}..a_N in ascending order."""
    diag = list(reversed(spec["upper"])) + [spec["a0"]] + list(spec["lower"])
    return {"n": spec["n"], "diag": [_scalar_json(z, spec["exact"]) for z in diag]}


def build_plan(workload: str, seed: int, spec_dir, root) -> tuple[list, list]:
    """(specs, ops) for one workload and seed; spec files go to ``spec_dir``.

    An op is {"cmd", "argv", "spec"}: ``spec`` indexes ``specs`` for the
    three request commands and is None for enumerate calls.  Paths in argv
    are relative to ``root``, where the requests run.
    """
    if workload == "exact-requests":
        sizes, exact = EXACT_SIZES, True
    elif workload == "float-requests":
        sizes, exact = FLOAT_SIZES, False
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    specs = [build_spec(kind, n, exact, rng) for kind, n in sizes]
    if workload == "float-requests":
        specs += [tiny_spec(n, label) for n, label in TINY_SLICE]
    ops = []
    for i, spec in enumerate(specs):
        path = spec_dir / f"{i:03d}-{spec['kind']}-n{spec['n']}.json"
        path.write_text(json.dumps(spec_json(spec)))
        path = path.relative_to(root)
        ops.append({"cmd": "check", "argv": ["check", str(path)], "spec": i})
        ops.append(
            {"cmd": "classify", "argv": ["classify", str(path), "--route", "both"], "spec": i}
        )
        ops.append(
            {
                "cmd": "identities",
                "argv": ["verify-identities", str(path), "--which", "all"],
                "spec": i,
            }
        )
    for n, grid, real in ENUMERATE[workload]:
        argv = ["enumerate", "--n", str(n), "--values", grid] + (["--real"] if real else [])
        ops.append({"cmd": "enumerate", "argv": argv, "spec": None, "census": (n, grid, real)})
    return specs, ops
