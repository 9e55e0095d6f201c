"""Acceptance criteria, one test per criterion, run in order.

Each test prints one ``ACCEPTANCE <k> ...: PASS`` line on success (visible
with -s or in the captured output of a failing run); with ``pytest -v`` the
test name itself gives the per-criterion pass/fail line.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import GAUSS1, INT2
from toepnorm.classify import (
    RealLabel,
    Verdict,
    classify_complex,
    classify_real,
    classify_via_proof,
)
from toepnorm.genlab import EnumRequest, GenRequest, Kind, enumerate_and_verify, generate
from toepnorm.normality import check, fast_max_residual
from toepnorm.polyid import (
    eval_trig,
    identity14_check,
    identity16_holds,
    identity8_residual,
    identity9_residual,
    trig_coeffs,
)
from references import identity8_residual_at_points
from toepnorm.scalar import ScalarPolicy, rational_unit_circle
from toepnorm.toeplitz import commutator_norm, from_diagonals
from toepnorm import cli

POLICY = ScalarPolicy()

STRUCTURED = [
    Kind.TYPE_I,
    Kind.TYPE_II,
    Kind.SYMMETRIC,
    Kind.SKEW_SYMMETRIC,
    Kind.CIRCULANT,
    Kind.SKEW_CIRCULANT,
]


def _passed(k, text):
    print(f"ACCEPTANCE {k} {text}: PASS")


def test_criterion_1_exhaustive_gauss1_census_n1_n2_under_10s():
    started = time.perf_counter()
    small = enumerate_and_verify(EnumRequest(n=1, value_set=GAUSS1))
    large = enumerate_and_verify(EnumRequest(n=2, value_set=GAUSS1))
    elapsed = time.perf_counter() - started

    assert small.total == 81
    assert small.normal == 33
    assert small.classified == 32
    assert small.degenerate == 1
    assert small.violations == ()
    assert small.label_histogram == {"type_I": 32, "type_II": 32}

    assert large.total == 6561
    assert large.normal == 513
    assert large.classified == 512
    assert large.degenerate == 1
    assert large.violations == ()
    assert large.label_histogram == {"type_I": 320, "type_II": 320}

    assert elapsed < 10.0
    _passed(1, f"gauss1 census n=1,2 in {elapsed:.2f}s")


def _real_census(n, shared_cache):
    """Walk every real assignment, classify, and check the factor identity."""
    counts = {"total": 0, "normal": 0, "classified": 0, "degenerate": 0}
    histogram = {}
    normals = []
    for combo in itertools.product(INT2, repeat=2 * n):
        counts["total"] += 1
        spec = from_diagonals(combo[:n] + (Fraction(0),) + combo[n:])
        assert check(spec, POLICY).agrees
        res = classify_real(spec, POLICY)
        if res.verdict is Verdict.NOT_NORMAL:
            continue
        counts["normal"] += 1
        assert identity16_holds(spec, POLICY)
        if res.verdict is Verdict.DEGENERATE:
            counts["degenerate"] += 1
            continue
        counts["classified"] += 1
        normals.append((spec, res.labels))
        for label in res.labels:
            histogram[label.value] = histogram.get(label.value, 0) + 1
    shared_cache[f"real_n{n}"] = normals
    return counts, histogram


def test_criterion_2_exhaustive_real_census_with_factor_identity_under_30s(shared_cache):
    started = time.perf_counter()
    counts2, hist2 = _real_census(2, shared_cache)
    counts3, hist3 = _real_census(3, shared_cache)
    elapsed = time.perf_counter() - started

    assert counts2 == {"total": 625, "normal": 81, "classified": 80, "degenerate": 1}
    assert hist2 == {
        "Symmetric": 24,
        "SkewSymmetric": 24,
        "Circulant": 24,
        "SkewCirculant": 24,
    }
    assert counts3 == {"total": 15625, "normal": 441, "classified": 440, "degenerate": 1}
    assert hist3 == {
        "Symmetric": 124,
        "SkewSymmetric": 124,
        "Circulant": 124,
        "SkewCirculant": 124,
    }

    assert elapsed < 30.0
    _passed(2, f"real census n=2,3 plus factor identity in {elapsed:.2f}s")


def test_criterion_3_dual_route_agreement_on_random_exact_specs():
    rng = random.Random(99)
    kinds = [Kind.UNCONSTRAINED, Kind.UNCONSTRAINED, Kind.TYPE_I, Kind.TYPE_II]
    normal = not_normal = 0
    for _ in range(10_000):
        req = GenRequest(
            n=rng.randint(1, 8),
            kind=rng.choice(kinds),
            seed=rng.getrandbits(31),
            exact=True,
        )
        report = check(generate(req), POLICY)
        assert report.agrees
        if report.is_normal_fast:
            normal += 1
        else:
            not_normal += 1
    assert normal > 1000 and not_normal > 1000  # both verdicts well exercised
    _passed(3, f"10000 random exact specs, fast/oracle agree ({normal} normal)")


def _criterion_4_corpora():
    approx = [
        generate(GenRequest(n=(seed % 32) + 1, kind=kind, seed=seed))
        for kind in STRUCTURED
        for seed in range(1000)
    ]
    exact = [
        generate(GenRequest(n=(seed % 8) + 1, kind=kind, seed=seed, exact=True))
        for kind in STRUCTURED
        for seed in range(1000)
    ]
    return approx, exact


def test_criterion_4_generator_soundness(shared_cache):
    approx, exact = _criterion_4_corpora()
    for spec in approx:
        norm = commutator_norm(spec)
        assert norm <= 1e-10 * spec.n * spec.max_abs ** 2, spec
    for spec in exact:
        assert commutator_norm(spec) == 0, spec
        value, _ = fast_max_residual(spec)
        assert value == 0, spec
    shared_cache["criterion4_approx"] = approx
    shared_cache["criterion4_exact"] = exact
    _passed(4, "1000 specs per kind, commutator clean in both domains")


def _routes_agree(spec, policy):
    direct = classify_complex(spec, policy)
    proved, _ = classify_via_proof(spec, policy)
    if direct.verdict is not proved.verdict:
        return False
    for a, b in ((direct.type_I, proved.type_I), (direct.type_II, proved.type_II)):
        if (a is None) != (b is None):
            return False
        if a is not None and not policy.equal(a, b, 1.0):
            return False
    return True


def test_criterion_5_direct_and_constructive_routes_agree(shared_cache):
    if "criterion4_approx" not in shared_cache:  # criterion 4 deselected; rebuild
        approx, exact = _criterion_4_corpora()
        shared_cache["criterion4_approx"] = approx
        shared_cache["criterion4_exact"] = exact
    checked = 0
    for n in (1, 2):  # the same grid criterion 1 enumerates
        for combo in itertools.product(GAUSS1, repeat=2 * n):
            spec = from_diagonals(combo[:n] + (0,) + combo[n:])
            assert _routes_agree(spec, POLICY), spec
            checked += 1
    for spec in shared_cache["criterion4_exact"]:
        assert _routes_agree(spec, POLICY), spec
        checked += 1
    for spec in shared_cache["criterion4_approx"]:
        assert _routes_agree(spec, POLICY), spec
        checked += 1
    _passed(5, f"both classification routes agree on {checked} specs")


def test_criterion_6_identity_suite(shared_cache):
    # Pinned sample: a_1 = 1, a_-1 = 2 at the origin.
    pinned = from_diagonals([2.0, 0.0, 1.0])
    assert abs(identity8_residual(pinned, 0.0, 0.0) - (-6.0)) <= 1e-12

    if "criterion4_approx" not in shared_cache:  # criterion 4 deselected; rebuild
        approx, exact = _criterion_4_corpora()
        shared_cache["criterion4_approx"] = approx
        shared_cache["criterion4_exact"] = exact

    rng = random.Random(6)
    grid = np.arange(16) * (math.pi / 8.0)
    xs = np.asarray([rng.uniform(0.0, 2.0 * math.pi) for _ in range(64)])
    ys = np.asarray([rng.uniform(0.0, 2.0 * math.pi) for _ in range(64)])

    def sampled_residuals(spec):
        """Batched twin of identity9_residual / identity8_residual."""
        s, t = trig_coeffs(spec)
        sg, tg = eval_trig(s, grid), eval_trig(t, grid)
        nine = np.abs(sg) ** 2 - np.abs(tg) ** 2
        sx, sy = eval_trig(s, xs), eval_trig(s, ys)
        tx, ty = eval_trig(t, xs), eval_trig(t, ys)
        phase = np.exp(1j * (spec.n + 1) * (xs - ys))
        eight = sx * sy.conj() - tx.conj() * ty + (sx.conj() * sy - tx * ty.conj()) * phase
        return nine, eight

    probe = shared_cache["criterion4_approx"][0]
    nine, eight = sampled_residuals(probe)
    assert abs(nine[3] - identity9_residual(probe, float(grid[3]))) <= 1e-12
    assert abs(eight[5] - identity8_residual(probe, float(xs[5]), float(ys[5]))) <= 1e-12

    for spec in shared_cache["criterion4_approx"]:
        bound = POLICY.threshold(spec.n**2 * spec.max_abs ** 2)
        nine, eight = sampled_residuals(spec)
        assert float(np.max(np.abs(nine))) <= bound, spec
        assert float(np.max(np.abs(eight))) <= bound, spec

    # Exact arithmetic: the two-variable identity vanishes identically.
    points = [rational_unit_circle(Fraction(u, 4)) for u in (-3, 0, 2, 5)]
    for spec in shared_cache["criterion4_exact"][::31]:
        for w in points:
            for z in points:
                assert identity8_residual_at_points(spec, w, z) == 0

    # Real chain: the two-variable real identity and the factor identity
    # hold on every structured real spec and fail on a non-normal one.
    for kind in (Kind.SYMMETRIC, Kind.SKEW_SYMMETRIC, Kind.CIRCULANT, Kind.SKEW_CIRCULANT):
        for seed in range(25):
            spec = generate(GenRequest(n=(seed % 6) + 1, kind=kind, seed=seed, exact=True))
            assert identity14_check(spec, POLICY)
            assert identity16_holds(spec, POLICY)
    skewed = from_diagonals([2, 0, 1])
    assert not identity14_check(skewed, POLICY)
    assert not identity16_holds(skewed, POLICY)
    count = len(shared_cache["criterion4_approx"])
    _passed(6, f"product/modulus identities on {count} specs, real chain verified")


def test_criterion_7_real_witnesses_are_exactly_plus_minus_one(shared_cache):
    if "real_n2" not in shared_cache:  # criterion 2 deselected; rebuild n=2
        _real_census(2, shared_cache)
    pools = [shared_cache["real_n2"], shared_cache.get("real_n3", [])]
    one = Fraction(1)
    seen = 0
    expected = {
        RealLabel.SYMMETRIC: ("type_I", one),
        RealLabel.SKEW_SYMMETRIC: ("type_I", -one),
        RealLabel.CIRCULANT: ("type_II", one),
        RealLabel.SKEW_CIRCULANT: ("type_II", -one),
    }
    for specs in pools:
        for spec, labels in specs:
            res = classify_complex(spec, POLICY)
            assert res.verdict is Verdict.CLASSIFIED
            for witness in (res.type_I, res.type_II):
                if witness is not None:
                    assert isinstance(witness, Fraction)
                    assert witness == one or witness == -one
            assert res.type_I is not None or res.type_II is not None
            for label, (attr, value) in expected.items():
                if label in labels:
                    assert getattr(res, attr) == value, (spec, label)
            seen += 1
    assert seen >= 80
    for n in (2, 3):  # the lone all-zero normal spec stays witness-free
        zero = from_diagonals((Fraction(0),) * (2 * n + 1))
        res = classify_complex(zero, POLICY)
        assert res.verdict is Verdict.DEGENERATE
        assert res.type_I is None and res.type_II is None
    _passed(7, f"complex-route witnesses on {seen} real specs are exactly +-1")


def test_criterion_8_residual_scan_beats_dense_oracle_at_n_1024():
    rows = cli.run_bench([1024], repeat=3)
    assert len(rows) == 2
    for row in rows:
        assert row["fast_ms"] < row["oracle_ms"], row
    ratios = ", ".join(f"{row['kind']}: {row['ratio']:.1f}x" for row in rows)
    _passed(8, f"n=1024 scan faster than oracle ({ratios})")
