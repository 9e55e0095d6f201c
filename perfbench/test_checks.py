"""Tests of the benchmark's own construction and output checks.

    python3 -m pytest perfbench -q

They show that each check accepts a right output and rejects a wrong
verdict, a witness that is not unit-modulus or fails its structure
condition, a float worst pair that is not maximal, and a census count that
is off by one, and that the tracer refuses a missing function.  toepnorm
is not needed.
"""

import math
import random
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import corpus  # noqa: E402
import tracer  # noqa: E402


def _spec(kind, n=4, exact=True, seed=0):
    return corpus.build_spec(kind, n, exact, random.Random(seed))


def _scalar(z, exact):
    if exact:
        return {"re": str(z[0]), "im": str(z[1])}
    return {"re": z.real, "im": z.imag}


def _constructed_witness(spec):
    """The witness the construction used, recovered from a nonzero entry."""
    lo, up = spec["lower"], spec["upper"]
    if spec["kind"] in ("typeI", "symmetric", "skew-symmetric"):
        src = [checks.qconj(checks.to_pair(z)) for z in lo]
    else:
        src = [checks.to_pair(z) for z in reversed(lo)]
    u, s = checks.to_pair(up[0]), src[0]
    d = checks.qabs2(s)
    w = checks.qmul(u, checks.qconj(s))
    w = (w[0] / d, w[1] / d)
    return w if spec["exact"] else complex(float(w[0]), float(w[1]))


def _classify_doc(spec, witness):
    name = checks.KIND_WITNESS[spec["kind"]]
    side = {
        "verdict": "Classified",
        "type_I": None,
        "type_II": None,
        "real_labels": [checks.KIND_LABEL[spec["kind"]]] if spec["kind"] in checks.KIND_LABEL else None,
        "degenerate": False,
        "trace": None,
    }
    side[name] = _scalar(witness, spec["exact"])
    return {"route": "both", "direct": dict(side), "proof": dict(side), "agree": True}


@pytest.mark.parametrize("kind", corpus.KINDS)
@pytest.mark.parametrize("n", [1, 2, 5])
def test_construction_verdict_matches_own_commutator(kind, n):
    spec = _spec(kind, n, seed=n)
    ints, _ = checks.integer_diag(checks.full_diag(spec["lower"], spec["upper"]))
    assert checks.commutator_is_zero(ints) is spec["normal"]


def test_diagonal_commutator_entry_matches_full_commutator():
    spec = _spec("unconstrained", 5, seed=3)
    ints, den = checks.integer_diag(checks.full_diag(spec["lower"], spec["upper"]))
    entries = list(checks.commutator_entries(ints))
    dim = 6
    diag = max(abs(Fraction(entries[i * dim + i][0], den * den)) for i in range(dim))
    assert diag == checks.commutator_diagonal_max(spec["lower"], spec["upper"])


def test_check_accepts_right_and_rejects_wrong_verdict():
    spec = _spec("typeI")
    right = {"normal": True, "max_residual": "0", "worst_pair": [1, 1],
             "oracle_norm": "0", "squared": True, "agrees": True, "exact": True}
    assert checks.check_check(spec, right) == []
    assert checks.check_check(spec, dict(right, normal=False))
    assert checks.check_check(spec, dict(right, agrees=False))


def test_check_rejects_wrong_residual_on_non_normal_spec():
    spec = _spec("unconstrained", 3, seed=1)
    lo, up = spec["lower"], spec["upper"]
    best = max(
        ((m, k) for m in range(1, 4) for k in range(1, 4)),
        key=lambda p: checks.qabs2(checks.residual(lo, up, *p)),
    )
    right = {"normal": False, "max_residual": str(spec["max_residual_sq"]),
             "worst_pair": list(best), "oracle_norm": str(spec["frobenius_sq"]),
             "squared": True, "agrees": True, "exact": True}
    assert checks.check_check(spec, right) == []
    assert checks.check_check(spec, dict(right, normal=True))
    assert checks.check_check(spec, dict(right, max_residual=str(spec["max_residual_sq"] + 1)))
    assert checks.check_check(spec, dict(right, oracle_norm="1"))


def test_check_rejects_a_float_worst_pair_that_is_not_maximal():
    spec = _spec("unconstrained", 6, exact=False, seed=2)
    lo, up = spec["lower"], spec["upper"]
    pairs = [(m, k) for m in range(1, 7) for k in range(1, 7)]
    size = {p: math.sqrt(float(checks.qabs2(checks.residual(lo, up, *p)))) for p in pairs}
    best, other = max(pairs, key=size.get), min(pairs, key=size.get)
    assert math.isclose(spec["max_residual_abs"], size[best], rel_tol=1e-12)
    right = {"normal": False, "max_residual": size[best], "worst_pair": list(best),
             "oracle_norm": 2.0 * float(spec["diag_max"]), "squared": False,
             "agrees": True, "exact": False}
    assert checks.check_check(spec, right) == []
    # The residual reported at a non-maximal pair is right for that pair.
    wrong = dict(right, max_residual=size[other], worst_pair=list(other))
    assert any("does not carry" in p for p in checks.check_check(spec, wrong))


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("kind", ["typeI", "typeII", "symmetric", "skew-circulant"])
def test_classify_accepts_the_constructed_witness(kind, exact):
    spec = _spec(kind, 6, exact)
    assert checks.check_classify(spec, _classify_doc(spec, _constructed_witness(spec))) == []


@pytest.mark.parametrize("exact", [True, False])
def test_classify_rejects_a_witness_that_is_not_unit_modulus(exact):
    spec = _spec("typeI", 6, exact)
    w = _constructed_witness(spec)
    doubled = (2 * w[0], 2 * w[1]) if exact else 2 * w
    problems = checks.check_classify(spec, _classify_doc(spec, doubled))
    assert any("not unit-modulus" in p for p in problems)


@pytest.mark.parametrize("exact", [True, False])
def test_classify_rejects_a_witness_that_fails_its_structure_condition(exact):
    spec = _spec("typeII", 6, exact)
    w = _constructed_witness(spec)
    flipped = (-w[0], -w[1]) if exact else -w  # unit-modulus, wrong sign
    problems = checks.check_classify(spec, _classify_doc(spec, flipped))
    assert any("fails its structure condition" in p for p in problems)


def test_classify_rejects_wrong_verdict_missing_label_and_disagreement():
    spec = _spec("circulant", 5)
    doc = _classify_doc(spec, _constructed_witness(spec))
    assert checks.check_classify(spec, dict(doc, agree=False))
    wrong = dict(doc, direct=dict(doc["direct"], verdict="NotNormal"))
    assert checks.check_classify(spec, wrong)
    unlabeled = dict(doc, proof=dict(doc["proof"], real_labels=["Symmetric"]))
    assert checks.check_classify(spec, unlabeled)


def test_identities_reject_a_failed_identity_on_a_normal_spec():
    spec = _spec("symmetric", 4)
    right = {"n": 4, "which": ["8", "9", "14", "16"], "results": {
        "8": {"holds": True, "max_sampled_abs": 1e-15},
        "9": {"max_abs": 1e-15},
        "14": {"holds": True},
        "16": {"holds": True, "f1_is_zero": True, "f2_is_zero": False},
    }}
    assert checks.check_identities(spec, right) == []
    wrong = dict(right, results=dict(right["results"], **{"14": {"holds": False}}))
    assert checks.check_identities(spec, wrong)
    wrong = dict(right, results=dict(right["results"], **{"8": {"holds": False, "max_sampled_abs": 0.0}}))
    assert checks.check_identities(spec, wrong)


@pytest.mark.parametrize("key", ["total", "normal", "classified", "degenerate"])
def test_census_rejects_a_count_off_by_one(key):
    expected = checks.census(1, "gauss1", False)
    assert expected["normal"] == 33 and expected["label_histogram"] == {"type_I": 32, "type_II": 32}
    assert checks.check_census(expected, dict(expected)) == []
    assert checks.check_census(expected, dict(expected, **{key: expected[key] + 1}))


def test_census_rejects_a_histogram_off_by_one():
    expected = checks.census(1, "int2", True)
    hist = dict(expected["label_histogram"], Symmetric=expected["label_histogram"]["Symmetric"] - 1)
    assert checks.check_census(expected, dict(expected, label_histogram=hist))


def test_tiny_slice_is_an_exact_power_of_two_scaling():
    n, label = corpus.TINY_SLICE[0]
    tiny = corpus.tiny_spec(n, label)
    unit = corpus.build_spec("unconstrained", n, False, random.Random(label))
    assert tiny["tiny"] and not tiny["normal"]
    for a, b in zip(tiny["lower"] + tiny["upper"], unit["lower"] + unit["upper"]):
        assert a.real == math.ldexp(b.real, corpus.TINY_SCALE_EXP)
        assert a.imag == math.ldexp(b.imag, corpus.TINY_SCALE_EXP)
    assert checks.commutator_diagonal_max(tiny["lower"], tiny["upper"]) == tiny["diag_max"] > 0


def test_tracer_refuses_a_missing_function(monkeypatch):
    """A renamed function stops the traced run instead of reading 0."""
    traced = {}
    for table in (tracer.SPANNED, tracer.COUNTED):
        for short, names in table.items():
            traced.setdefault(short, []).extend(names)
    for short, names in traced.items():
        module = types.ModuleType(f"toepnorm.{short}")
        for name in names:
            setattr(module, name, lambda *args: None)
        monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.delattr(sys.modules["toepnorm.normality"], "check")
    with pytest.raises(LookupError, match="toepnorm.normality.check"):
        tracer.Tracer().install()
