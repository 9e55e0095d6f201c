"""Both classification routes, witness extraction, the real labels."""

import cmath
import math
import random
from dataclasses import astuple, replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from toepnorm import classify, toeplitz
from toepnorm.classify import (
    ProofTrace,
    RealLabel,
    TheoremViolation,
    Verdict,
    classification_to_json,
    classify_complex,
    classify_real,
    classify_via_proof,
    trace_to_json,
)
from toepnorm.genlab import GenRequest, Kind, generate, perturb
from toepnorm.normality import check
from toepnorm.polyid import eval_at_point, trig_coeffs
from toepnorm.scalar import (
    GaussianRational,
    ScalarPolicy,
    abs_sq,
    clear_denominators,
    rational_unit_circle,
)
from toepnorm.toeplitz import from_diagonals
from references import condition_holds, float_direct, float_proof, max_deviation

POLICY = ScalarPolicy()

unit_params = st.fractions(min_value=-10, max_value=10, max_denominator=10)


def taken_as_normal():
    """Within this context the classifiers' scan-only report calls every spec normal."""
    original = classify._scan_report

    def normal(spec, policy):
        return replace(original(spec, policy), is_normal_fast=True)

    return mock.patch.object(classify, "_scan_report", normal)


def ratio_spec(numer, denom):
    """Type I ratios numer to denom here: a_-k = numer_k, a_k = conj(denom_k)."""
    return from_diagonals([*reversed(numer), 0, *(z.conjugate() for z in denom)])


def direct_tests(spec, real):
    """classify._direct's (degenerate, tests): label verdicts, or witnesses (None: no fit)."""
    degenerate, fits = classify._direct(spec, POLICY, real)
    return degenerate, [fit.holds if real else fit.factor if fit.holds else None for fit in fits]


def direct_ratio(numer, denom):
    """classify._direct's type I witness of :func:`ratio_spec`."""
    return direct_tests(ratio_spec(numer, denom), False)[1][0]


class TestExtractUnitRatio:
    """The ratio test through classify._direct, on exact and float vectors."""

    def test_known_witness(self):
        up = (GaussianRational(0, 1), GaussianRational(0, 2))
        den = (GaussianRational(1), GaussianRational(2))
        assert direct_ratio(up, den) == GaussianRational(0, 1)

    def test_non_unit_ratio_rejected(self):
        assert direct_ratio((Fraction(2),), (Fraction(1),)) is None

    def test_inconsistent_vectors_rejected(self):
        up = (GaussianRational(0, 1), GaussianRational(7))
        den = (GaussianRational(1), GaussianRational(2))
        assert direct_ratio(up, den) is None

    def test_zero_denominator_forces_zero_numerator(self):
        num = (GaussianRational(0), GaussianRational(0, 1))
        den = (GaussianRational(0), GaussianRational(1))
        assert direct_ratio(num, den) == GaussianRational(0, 1)
        bad = (GaussianRational(1), GaussianRational(0, 1))
        assert direct_ratio(bad, den) is None

    @pytest.mark.parametrize(
        "numer, denom, expected", [((2, -4), (2, -4), 1), ((3,), (-3,), -1)]
    )
    def test_int_vectors_give_a_fraction(self, numer, denom, expected):
        got = direct_ratio(numer, denom)
        assert got == expected and type(got) is Fraction

    def test_all_zero_means_any(self):
        """Every unit c fits two zero vectors: a degenerate spec, reported with no witness."""
        zeros = (Fraction(0), Fraction(0))
        assert direct_tests(ratio_spec(zeros, zeros), False) == (True, [None, None])
        assert direct_tests(ratio_spec((0j, 0j), (0j, 0j)), False) == (True, [None, None])

    def test_length_validation(self):
        """_direct relies on the spec's halves being nonempty and of equal length."""
        with pytest.raises(ValueError):
            from_diagonals([Fraction(1)])
        with pytest.raises(ValueError):
            from_diagonals([Fraction(1), 0, Fraction(1), Fraction(2)])

    def test_approx_tolerates_rounding(self):
        w = 0.6 + 0.8j
        den = (1 + 2j, 3 - 1j)
        num = tuple(w * d * (1 + 3e-12) for d in den)
        got = direct_ratio(num, den)
        assert got is not None and abs(got - w) < 1e-9


# Answer of the reference ratio tests where both vectors vanish: every unit c fits.
ANY = object()


def reference_ratio(numer, denom):
    """The former exact ratio: c = numer[p] / denom[p], checked on the values."""
    pivot = next((k for k, d in enumerate(denom) if d != 0), None)
    if pivot is None:
        return ANY if all(x == 0 for x in numer) else None
    c = numer[pivot] / denom[pivot]
    if abs_sq(c) != 1 or any(x - c * d != 0 for x, d in zip(numer, denom)):
        return None
    return c


def assert_same_witness(got, expected):
    if expected is None or expected is ANY:
        assert got is expected
    else:
        assert got == expected and type(got) is type(expected)


parts = st.fractions(min_value=-6, max_value=6, max_denominator=12)
exact_values = st.one_of(
    parts,
    st.builds(GaussianRational, parts, parts),
    st.sampled_from([Fraction(0), GaussianRational(0)]),
)
unit_values = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1), GaussianRational(0, 1), GaussianRational(-1)]),
    unit_params.map(rational_unit_circle),
)


@st.composite
def ratio_cases(draw):
    """(numer, denom): fitting, scaled, bumped, free and all-zero cases."""
    size = draw(st.integers(1, 5))
    vectors = st.lists(exact_values, min_size=size, max_size=size)
    denom = draw(st.one_of(vectors, st.just([Fraction(0)] * size)))
    c = draw(unit_values)
    shape = draw(st.sampled_from(["fits", "scaled", "bumped", "free", "zero"]))
    numer = [c * d for d in denom]
    if shape == "scaled":
        k = draw(parts.filter(lambda k: abs(k) != 1))
        numer = [k * x for x in numer]
    elif shape == "bumped":
        numer[draw(st.integers(0, size - 1))] += draw(exact_values)
    elif shape == "free":
        numer = draw(vectors)
    elif shape == "zero":
        numer = [Fraction(0)] * size
    return tuple(numer), tuple(denom)


@st.composite
def exact_specs(draw, max_n=4):
    """Generated exact specs of every kind, and free exact diagonals."""
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        kind = draw(st.sampled_from(list(Kind)))
        return generate(GenRequest(n=n, kind=kind, seed=draw(st.integers(0, 999)), exact=True))
    values = st.one_of(parts, st.builds(GaussianRational, parts, parts))
    return from_diagonals(draw(st.lists(values, min_size=2 * n + 1, max_size=2 * n + 1)))


class TestExactRatioOnIntegers:
    @given(ratio_cases())
    @settings(max_examples=300, deadline=None)
    def test_extract_matches_reference(self, case):
        """_direct's type I witness, on the spec's own canonical entries."""
        spec = ratio_spec(*case)
        up, lo = spec.upper, spec.lower
        degenerate, (got, _) = direct_tests(spec, False)
        expected = reference_ratio(up, tuple(z.conjugate() for z in lo))
        assert degenerate == (expected is ANY)
        assert_same_witness(got, None if expected is ANY else expected)

    @given(exact_specs())
    @settings(max_examples=200, deadline=None)
    def test_direct_witnesses_match_reference(self, spec):
        up, lo = spec.upper, spec.lower
        res = classify_complex(spec, POLICY)
        if res.verdict is Verdict.DEGENERATE:
            assert not any(up + lo)
        elif res.verdict is Verdict.CLASSIFIED:
            for got, src in ((res.type_I, [z.conjugate() for z in lo]), (res.type_II, lo[::-1])):
                expected = reference_ratio(up, tuple(src))
                assert expected is not ANY
                assert_same_witness(got, expected)

    @given(
        st.integers(1, 5),
        st.sampled_from(
            [Kind.SYMMETRIC, Kind.SKEW_SYMMETRIC, Kind.CIRCULANT, Kind.SKEW_CIRCULANT]
        ),
        st.integers(0, 999),
        st.fractions(min_value=Fraction(1, 7), max_value=5, max_denominator=7),
    )
    @settings(max_examples=100, deadline=None)
    def test_real_labels_match_reference(self, n, kind, seed, scale):
        spec = generate(GenRequest(n=n, kind=kind, seed=seed, value_scale=scale, exact=True))
        up, lo = spec.upper, spec.lower
        sources = (lo, lo, lo[::-1], lo[::-1])
        factors = (1, -1, 1, -1)
        expected = {
            label
            for label, src, f in zip(classify._LABEL_ORDER, sources, factors)
            if all(t - f * x == 0 for t, x in zip(up, src))
        }
        res = classify_real(spec, POLICY)
        if res.verdict is Verdict.CLASSIFIED:
            assert res.labels == expected and kind.value in {l.value for l in expected}
        else:
            assert res.verdict is Verdict.DEGENERATE and not any(spec.lower)


# Each condition a_-k = f * src_k as (conjugated, reversed, f): src_k is
# a_(k+1) or a_(N-k), conjugated or not; f is None for the witness the
# direct route computes (type I, type II), else the label's fixed +-1.
_CONDITIONS = (
    (True, False, None),
    (False, True, None),
    (False, False, 1),
    (False, False, -1),
    (False, True, 1),
    (False, True, -1),
)

# Unit witnesses: +-i, or e^(2 pi i j / p) for a prime p, whose parts are
# generic floats, so f * src_k rounds.
_UNIT_FACTORS = st.one_of(
    st.sampled_from([1j, -1j]),
    st.integers(1, 1_000_002).map(lambda j: cmath.exp(2j * math.pi * j / 1_000_003)),
)


def _at_deviation(p: complex, dev: float):
    """t with abs(t - p) == dev in Python arithmetic and t.imag = p.imag, or None."""
    x = p.real + dev
    for _ in range(8):
        got = abs(complex(x, p.imag) - p)
        if got == dev:
            return complex(x, p.imag)
        x = math.nextafter(x, math.inf if got < dev else -math.inf)
    return None


@st.composite
def boundary_cases(draw, n):
    """(spec, condition, holds): one deviation at the threshold or an ulp off.

    The spec meets _CONDITIONS[condition] except at one entry, and holds
    tells whether that entry's deviation is within the threshold.

    Every a_-j is f * src_j in Python arithmetic, with src_j of modulus at
    least 0.7 and f a unit factor (see _UNIT_FACTORS) for the type I and
    type II conditions, or a label's +-1.  At one k off the pivot, src_k is
    0.5i / f', f' the factor the direct route tests (the ratio at the pivot
    for a witness), so f' * src_k has a real part at most a rounding error;
    a_-k then lies at deviation |a_-k - f' * src_k| of exactly the
    threshold at the spec's scale, or one ulp below or above it.
    """
    rng = random.Random(draw(st.integers(0, 999)))
    # Half the draws test a computed witness, whose product can round.
    condition = draw(st.one_of(st.integers(0, 1), st.integers(2, len(_CONDITIONS) - 1)))
    conjugated, reversed_, f = _CONDITIONS[condition]
    factor = draw(_UNIT_FACTORS) if f is None else f
    lo = [complex(rng.choice((-1, 1)) * rng.uniform(0.7, 2), rng.uniform(-2, 2)) for _ in range(n)]
    src = [z.conjugate() if conjugated else z for z in (lo[::-1] if reversed_ else lo)]
    up = [factor * z for z in src]
    mags = [abs(z) for z in src]
    pivot = mags.index(max(mags))
    k = draw(st.integers(0, n - 2))
    k += k >= pivot
    tested = factor if f is not None else up[pivot] / src[pivot]
    sigma = 0.5j / tested
    lo[n - 1 - k if reversed_ else k] = sigma.conjugate() if conjugated else sigma
    up[k] = 0j
    scale = from_diagonals([*reversed(up), 0j, *lo]).max_abs
    thr = POLICY.threshold(scale)
    dev = draw(st.sampled_from([thr, math.nextafter(thr, 0), math.nextafter(thr, math.inf)]))
    up[k] = _at_deviation(tested * sigma, dev)
    assume(up[k] is not None)
    return from_diagonals([*reversed(up), 0j, *lo]), condition, dev <= thr


@st.composite
def float_specs(draw):
    """Generated float specs of every kind at N 1..64, as drawn or transformed.

    A transformed spec is perturbed by 0.5, 1 or 2 times the threshold at
    its scale, scaled by 2^k (exactly, down to below the absolute floor),
    or has its lower or upper half zeroed.  A boundary spec
    (:func:`boundary_cases`, N 2..64) puts one deviation at the threshold.
    A real spec may then have some imaginary parts at -0.0.
    """
    spec = draw(float_shapes())
    if spec.is_real and draw(st.booleans()):
        signs = draw(st.lists(st.booleans(), min_size=len(spec.diag), max_size=len(spec.diag)))
        spec = from_diagonals([complex(z.real, -0.0 if s else 0.0) for z, s in zip(spec.diag, signs)])
    return spec


@st.composite
def float_shapes(draw):
    n = draw(st.integers(1, 64))
    shape = draw(st.sampled_from(["plain", "perturbed", "scaled", "zero_half", "boundary"]))
    if shape == "boundary":
        return draw(boundary_cases(max(n, 2)))[0]
    kind = draw(st.sampled_from(list(Kind)))
    spec = generate(GenRequest(n=n, kind=kind, seed=draw(st.integers(0, 999))))
    if shape == "perturbed":
        size = draw(st.sampled_from([0.5, 1, 2])) * POLICY.threshold(spec.max_abs)
        return perturb(spec, size, seed=draw(st.integers(0, 999)))
    if shape == "scaled":
        k = draw(st.integers(-60, 60))
        return from_diagonals([z * 2.0**k for z in spec.diag])
    if shape == "zero_half":
        diag = list(spec.diag)
        half = slice(0, n) if draw(st.booleans()) else slice(n + 1, None)
        diag[half] = [0j] * n
        return from_diagonals(diag)
    return spec


class TestFloatDirectRoute:
    @given(float_specs(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_former_float_route(self, spec, real):
        """classify._direct on a float spec: the former float code's answers, bit for bit."""
        degenerate, tests = direct_tests(spec, real)
        want_degenerate, want = float_direct(spec, POLICY, real)
        assert degenerate == want_degenerate
        assert len(tests) == len(want)
        for got, expected in zip(tests, want):
            assert_same_bits(got, expected)

    @given(st.integers(2, 64).flatmap(boundary_cases))
    @settings(max_examples=100, deadline=None)
    def test_boundary_decided_by_one_ulp(self, case):
        """A deviation at the threshold passes, one ulp above it fails."""
        spec, condition, holds = case
        real = condition >= 2  # the four labels, in _LABEL_ORDER
        _, tests = direct_tests(spec, real)
        assert (tests[condition - 2] if real else tests[condition] is not None) == holds


class TestFitRecord:
    """classify._fit's record against the reference deviation and condition loop."""

    @given(float_specs(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_float_margin_is_the_reference_deviation(self, spec, real):
        """margin is max_deviation / threshold bit for bit; holds is deviation <= threshold."""
        up, lo = spec.upper, spec.lower
        conj = tuple(z.conjugate() for z in lo)
        sources = (lo, lo, lo[::-1], lo[::-1]) if real else (conj, lo[::-1])
        threshold = POLICY.threshold(spec.max_abs)
        _, fits = classify._direct(spec, POLICY, real)
        for fit, src in zip(fits, sources, strict=True):
            key, value = fit.detail
            if key == "reason":  # no factor was fitted: the witness's pivot failed first
                assert not real and not fit.holds
                assert value in ("zero pivot", "not unit-modulus")
                assert (fit.factor is None) == (value == "zero pivot")
                continue
            deviation = max_deviation(up, src, fit.factor)
            assert key == "margin" and value.hex() == (deviation / threshold).hex()
            assert fit.holds == (deviation <= threshold)

    def test_zero_threshold_reads_the_deviation(self):
        """At threshold 0 a float condition that fits exactly holds, its margin null."""
        spec = from_diagonals([1.0, 2.0, 0.0, 2.0, 1.0])  # symmetric, nothing else
        _, fits = classify._direct(spec, ScalarPolicy(0.0, 0.0), True)
        assert [fit.holds for fit in fits] == [True, False, False, False]
        assert [fit.detail for fit in fits] == [("margin", None)] * 4

    @given(ratio_cases(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_exact_entry_is_the_first_failure(self, case, data):
        """entry is the first k where the reference loop fails, None where it never does."""
        numer, denom = case
        pivot = next((k for k, d in enumerate(denom) if d != 0), None)
        ratio = unit_values if pivot is None else st.just(numer[pivot] / denom[pivot])
        factor = data.draw(ratio | unit_values)
        fit = classify._fit(numer, denom, factor, POLICY, 0.0)
        fails = (
            k
            for k in range(len(numer))
            if not condition_holds(numer[k : k + 1], denom[k : k + 1], factor, POLICY, 0.0)
        )
        entry = next(fails, None)
        assert fit.detail == ("entry", entry)
        assert fit.holds == (entry is None) and fit.factor is factor


def assert_same_bits(got, expected):
    """Equal values of one type; repr tells apart the signs of zeros."""
    assert type(got) is type(expected) and repr(got) == repr(expected)


class TestFloatProofRoute:
    @given(float_specs())
    @settings(max_examples=200, deadline=None)
    def test_matches_former_verification(self, spec):
        """classify_via_proof on a float spec taken as normal: the former loop's answers, bit for bit."""
        degenerate, witnesses, want_trace = float_proof(spec, POLICY)
        if witnesses == [None, None] and not degenerate:
            with taken_as_normal(), pytest.raises(TheoremViolation):
                classify_via_proof(spec, POLICY)
            return
        with taken_as_normal():
            result, trace = classify_via_proof(spec, POLICY)
        assert result.degenerate == degenerate
        assert result.verdict is (Verdict.DEGENERATE if degenerate else Verdict.CLASSIFIED)
        assert_same_bits(result.type_I, witnesses[0])
        assert_same_bits(result.type_II, witnesses[1])
        if degenerate:
            assert trace.point is None
        else:
            for got, expected in zip(astuple(trace), want_trace, strict=True):
                assert_same_bits(got, expected)


def reference_ratio_pivot(nr, ni, dr, di):
    """The former scalar ratio test on Gaussian integers N_k, D_k of one scale.

    Returns :data:`ANY` when both vectors vanish, None when no unit-modulus
    c fits N_k = c * D_k, else the first p with D_p != 0: c = N_p / D_p is
    unit-modulus iff |N_p|^2 = |D_p|^2 and fits iff N_k * D_p = N_p * D_k
    for every k.
    """
    p = next((k for k, (x, y) in enumerate(zip(dr, di)) if x or y), None)
    if p is None:
        return ANY if not any(nr) and not any(ni) else None
    a, b, c, d = nr[p], ni[p], dr[p], di[p]
    if a * a + b * b != c * c + d * d:
        return None
    for x, y, u, v in zip(nr, ni, dr, di):
        if x * c - y * d != a * u - b * v or x * d + y * c != a * v + b * u:
            return None
    return p


def reference_real_labels(ur, lr):
    """The former real labels: a_{-k} = +-a_k or +-a_{N+1-k}, on integer tuples."""
    neg = tuple(-x for x in lr)
    return [ur == lr, ur == neg, ur == lr[::-1], ur == neg[::-1]]


def _pivot_of(witness):
    return classify._NO_FIT if witness is None or witness is ANY else witness


_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _kernel_row(rng, n, top, real):
    """(up, lo) as Gaussian-integer pairs: one of the shapes the kernel tells apart."""

    def part():
        return rng.choice((0, 1, -1, top, -top))

    lo = [(part(), 0 if real else part()) for _ in range(n)]
    shape = rng.choice(("zero", "lead", "typeI", "typeII", "scaled", "bumped", "free"))
    if shape == "zero":
        lo = [(0, 0)] * n
    elif shape == "lead":  # leading zeros move the pivot
        lo = [(0, 0)] * rng.randint(0, n) + lo
        lo = lo[-n:] if rng.random() < 0.5 else lo[:n]
    ur, ui = rng.choice(_UNITS[:2] if real else _UNITS)
    src = lo[::-1] if shape == "typeII" else [(x, -y) for x, y in lo]
    if real and shape != "typeII":
        src = lo if rng.random() < 0.5 else lo[::-1]
    up = [(ur * x - ui * y, ur * y + ui * x) for x, y in src]
    if shape == "scaled":
        up = [(2 * x, 2 * y) for x, y in up]
    elif shape == "bumped":
        k = rng.randrange(n)
        up[k] = (up[k][0] + 1, up[k][1])
    elif shape == "free" or shape == "zero" and rng.random() < 0.5:
        up = [(part(), 0 if real else part()) for _ in range(n)]
    return up, lo


@st.composite
def kernel_stacks(draw):
    """Stacks of B in 1..300 rows at N in 1..16, with parts at a chosen size.

    The sizes are small, 2^k - 1 and 2^k for the one-limb width k (the
    largest parts complex128 may hold, and the smallest it may not), and up
    to 2^90, where the kernel runs on exact values.
    """
    n = draw(st.integers(1, 16))
    b = draw(st.integers(1, 300))
    real = draw(st.booleans())
    k = toeplitz._limb_bits(n)
    top = draw(st.sampled_from([2, 2**k - 1, 2**k, 2**90 - 1]))
    den = draw(st.sampled_from([1, 3]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = [_kernel_row(rng, n, top, real) for _ in range(b)]
    return n, real, top, den, rows


class TestStackedDirectKernel:
    """classify._direct_tests against the former scalar tests, row by row."""

    @given(kernel_stacks())
    @settings(max_examples=120, deadline=None)
    def test_matches_scalar_references(self, case):
        n, real, _, den, rows = case
        flat = [GaussianRational(Fraction(x, den), Fraction(y, den)) for up, lo in rows
                for x, y in up + lo]
        cleared = clear_denominators(flat)
        arr = toeplitz._stack_array(cleared, n)
        re, im, _ = cleared
        big = max(map(abs, re + im))
        one_limb = complex if any(im) else float
        assert arr.dtype == (one_limb if big < 2 ** toeplitz._limb_bits(n) else object)
        arr = arr.reshape(len(rows), 2 * n)
        tests = classify._direct_tests(arr[:, :n], arr[:, n:], real)
        assert tests.shape == (len(rows), 4 if real else 2)
        for (up, lo), got in zip(rows, tests.tolist()):
            (ur, ui), (lr, li) = zip(*up), zip(*lo)
            if real:
                assert got == reference_real_labels(ur, lr)
            else:
                want = [
                    reference_ratio_pivot(ur, ui, lr, tuple(-y for y in li)),
                    reference_ratio_pivot(ur, ui, lr[::-1], li[::-1]),
                ]
                assert got == [_pivot_of(w) for w in want]

    def test_sentinels_and_first_pivot(self):
        zero, one = 0j, 1 + 0j
        up = np.array([[zero, zero], [one, zero], [zero, one], [2 * one, 2 * one]])
        lo = np.array([[zero, zero], [zero, zero], [zero, one], [one, one]])
        # Both vectors zero: every ratio fits, and the kernel names no pivot.
        assert classify._direct_tests(up, lo, False).tolist() == [
            [classify._NO_FIT, classify._NO_FIT],
            [classify._NO_FIT, classify._NO_FIT],
            [1, classify._NO_FIT],
            [classify._NO_FIT, classify._NO_FIT],
        ]
        # a_-k = a_k at N = 3 with a_1 = 0: the pivot is the first nonzero a_k.
        row = np.array([[zero, one, one]])
        assert classify._direct_tests(row, row, False).tolist() == [[1, classify._NO_FIT]]

    def test_empty_stack(self):
        empty = np.zeros((0, 3), complex)
        for real in (False, True):
            tests = classify._direct_tests(empty, empty, real)
            assert tests.shape == (0, 4 if real else 2)


LABEL_KINDS = (
    Kind.SYMMETRIC,
    Kind.SKEW_SYMMETRIC,
    Kind.CIRCULANT,
    Kind.SKEW_CIRCULANT,
    Kind.UNCONSTRAINED,
)
# 2^40 and 10^30 clear to integers beyond one limb, held in object arrays.
LABEL_SCALES = (1, Fraction(1, 3), 2**40, Fraction(10**30, 7))


@st.composite
def exact_label_specs(draw):
    """Exact specs of a real kind or unconstrained, N in 1..12, some with one entry changed.

    Some are zero off the diagonal, and some have one nonzero entry there.
    """
    n = draw(st.integers(1, 12))
    scale = draw(st.sampled_from(LABEL_SCALES))
    kind, seed = draw(st.sampled_from(LABEL_KINDS)), draw(st.integers(0, 999))
    diag = list(generate(GenRequest(n, kind, seed=seed, value_scale=scale, exact=True)).diag)
    shape = draw(st.sampled_from(("kept", "changed", "zero", "one nonzero")))
    if shape in ("zero", "one nonzero"):
        diag = [diag[n] if k == n else 0 for k in range(2 * n + 1)]
    if shape in ("changed", "one nonzero"):
        value = draw(st.sampled_from([0, 1, -1, scale, -scale, GaussianRational(0, scale)]))
        diag[draw(st.integers(0, 2 * n))] = value
    return from_diagonals(diag)


@st.composite
def bumped_real_specs(draw):
    """Exact specs of the four real kinds, N 1..12, one off-diagonal entry bumped,
    whose cleared integers take about 1 to 60 oracle limbs."""
    n = draw(st.integers(1, 12))
    k = toeplitz._limb_bits(n)
    limbs = draw(st.integers(1, 60))
    scale = Fraction(2 ** (k * limbs - 6), draw(st.sampled_from([1, 3, 10])))
    kind, seed = draw(st.sampled_from(LABEL_KINDS[:4])), draw(st.integers(0, 999))
    diag = list(generate(GenRequest(n, kind, seed=seed, value_scale=scale, exact=True)).diag)
    at = draw(st.integers(0, 2 * n - 1))
    at += at >= n
    diag[at] += draw(st.sampled_from([1, -1, scale, Fraction(1, 7)]))
    return from_diagonals(diag)


class TestExactLabelPaths:
    """The per-spec label fits against the census kernel's real mode."""

    @given(exact_label_specs())
    @settings(max_examples=300, deadline=None)
    def test_fits_agree_with_the_kernel(self, spec):
        n, d = spec.n, spec.array
        degenerate, fits = classify._direct(spec, POLICY, True)
        kernel = classify._direct_tests(d[None, n - 1 :: -1], d[None, n + 1 :], True)[0].tolist()
        up, lo = spec.upper, spec.lower
        assert degenerate == (not any(up + lo))
        sources = (lo, lo, lo[::-1], lo[::-1])
        for fit, holds, sign, src in zip(fits, kernel, (1, -1, 1, -1), sources):
            misses = [k for k in range(n) if up[k] != sign * src[k]]
            assert fit.holds == holds == (not misses)
            assert fit.factor == sign
            assert fit.detail == ("entry", misses[0] if misses else None)

    @given(bumped_real_specs())
    @settings(max_examples=200, deadline=None)
    def test_fits_on_cleared_integers_equal_fits_on_values(self, spec):
        """The label fits, on spec.array's cleared integers, are _fit's on the spec's own values."""
        _, fits = classify._direct(spec, POLICY, True)
        up, lo = spec.upper, spec.lower
        want = [classify._fit(up, src, f, POLICY, 0.0) for src in (lo, lo[::-1]) for f in (1, -1)]
        assert [(f.factor, f.holds, f.detail) for f in fits] == [
            (f.factor, f.holds, f.detail) for f in want
        ]

    @pytest.mark.parametrize("scale", LABEL_SCALES[2:])
    def test_large_scales_run_on_object_arrays(self, scale):
        for kind in LABEL_KINDS:
            spec = generate(GenRequest(n=12, kind=kind, seed=0, value_scale=scale, exact=True))
            assert spec.array.dtype == object


class TestDirectRoute:
    def test_type1_example(self, type1_spec):
        res = classify_complex(type1_spec, POLICY)
        assert res.verdict is Verdict.CLASSIFIED
        assert res.type_I == GaussianRational(0, 1)
        assert res.type_II is None
        assert not res.degenerate
        assert check(type1_spec, POLICY).agrees

    def test_not_normal(self, fraction_spec):
        res = classify_complex(fraction_spec, POLICY)
        assert res.verdict is Verdict.NOT_NORMAL
        assert res.type_I is None and res.type_II is None

    def test_degenerate(self):
        spec = from_diagonals([0, 0, 7, 0, 0])
        res = classify_complex(spec, POLICY)
        assert res.verdict is Verdict.DEGENERATE
        assert res.degenerate

    def test_real_circulant_is_type2(self, circulant_spec):
        res = classify_complex(circulant_spec, POLICY)
        assert res.type_I is None
        assert res.type_II == Fraction(1)

    def test_n1_both_witnesses(self):
        spec = from_diagonals([GaussianRational(0, 1), 0, 1])
        res = classify_complex(spec, POLICY)
        assert res.type_I == GaussianRational(0, 1)
        assert res.type_II == GaussianRational(0, 1)

    @given(unit_params, st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_witness_round_trip(self, u, seed):
        w = rational_unit_circle(u)
        spec = generate(GenRequest(n=3, kind=Kind.TYPE_I, witness=w, seed=seed, exact=True))
        res = classify_complex(spec, POLICY)
        assert res.verdict in (Verdict.CLASSIFIED, Verdict.DEGENERATE)
        if res.verdict is Verdict.CLASSIFIED:
            assert res.type_I == w


class TestProofRoute:
    def test_trace_on_type1_example(self, type1_spec):
        res, trace = classify_via_proof(type1_spec, POLICY)
        assert res.verdict is Verdict.CLASSIFIED
        assert res.type_I == GaussianRational(0, 1)
        assert res.type_II is None
        assert trace.x0 == 0.0
        assert trace.point == GaussianRational(1)
        assert trace.s_at_x0 == GaussianRational(3)
        assert trace.t_at_x0 == GaussianRational(0, 3)
        assert trace.alpha == GaussianRational(0, -1)
        assert trace.beta == GaussianRational(-1)
        assert trace.alpha0 == GaussianRational(0, 1)

    def test_trace_on_approx_twin(self, type1_spec_approx):
        res, trace = classify_via_proof(type1_spec_approx, POLICY)
        assert res.verdict is Verdict.CLASSIFIED
        assert abs(res.type_I - 1j) < 1e-9
        assert abs_sq(trace.alpha0) == pytest.approx(1.0)

    def test_not_normal_short_circuits(self, fraction_spec):
        res, trace = classify_via_proof(fraction_spec, POLICY)
        assert res.verdict is Verdict.NOT_NORMAL
        assert trace.point is None

    def test_degenerate(self):
        res, trace = classify_via_proof(from_diagonals([0, 0, 0]), POLICY)
        assert res.verdict is Verdict.DEGENERATE
        assert trace.point is None

    def test_palindromic_gets_both(self, palindromic_spec):
        res, _ = classify_via_proof(palindromic_spec, POLICY)
        assert res.type_I == Fraction(1)
        assert res.type_II == Fraction(1)

    @given(unit_params, st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_direct_route(self, u, seed):
        w = rational_unit_circle(u)
        spec = generate(GenRequest(n=2, kind=Kind.TYPE_II, witness=w, seed=seed, exact=True))
        direct = classify_complex(spec, POLICY)
        proved, _ = classify_via_proof(spec, POLICY)
        assert direct.verdict is proved.verdict
        assert direct.type_I == proved.type_I
        assert direct.type_II == proved.type_II


def exact_verdicts(spec):
    """Everything the exact routes decide that neither transform below may change."""
    direct = classify_complex(spec, POLICY)
    proof, trace = classify_via_proof(spec, POLICY)
    real = classify_real(spec, POLICY).labels if spec.is_real else None
    return (
        direct.normality.is_normal_fast,
        (direct.verdict, direct.type_I, direct.type_II),
        real,
        (proof.verdict, trace.x0, trace.point, trace.alpha0, trace.beta0),
    )


class TestExactInvariance:
    """Scaling the off-diagonal values by a rational q, or replacing a_0, changes no verdict.

    Each condition a_-k = c * conj(a_k) or a_-k = c * a_(N+1-k) holds for q*a
    with the same c, normality is homogeneous, and every analysis ignores a_0.
    """

    @given(
        exact_specs(max_n=5),
        st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
        parts,
        parts.filter(bool),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_and_diagonal(self, spec, q, re, im):
        """A complex a_0 leaves a real spec real: its labels are still fitted."""
        diag = [q * z for z in spec.diag]
        diag[spec.n] = GaussianRational(re, im)
        moved = from_diagonals(diag)
        assert moved.is_real == spec.is_real
        assert exact_verdicts(moved) == exact_verdicts(spec)


def full_horner_scan(spec):
    """Reference float sample choice: Horner at all M = 4(N+1) angles."""
    _, t = trig_coeffs(spec)
    m = 4 * (spec.n + 1)
    best, best_mag = None, None
    for j in range(m):
        w = cmath.exp(2j * math.pi * j / m)
        tv = eval_at_point(t, w)
        if best_mag is None or abs_sq(tv) > best_mag:
            best, best_mag = (2 * math.pi * j / m, w, tv), abs_sq(tv)
    return best


def scaled(spec, k):
    return from_diagonals([z * 2.0**k for z in spec.diag])


@st.composite
def sampled_float_specs(draw):
    """Generated specs of every kind, optionally perturbed, scaled by 2^k."""
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**31))
    spec = generate(GenRequest(n=n, kind=draw(st.sampled_from(list(Kind))), seed=seed))
    bump = draw(st.sampled_from([0.0, 1e-13, 1e-6]))
    if bump:
        spec = perturb(spec, bump, seed)
    return scaled(spec, draw(st.integers(-60, 60)))


@st.composite
def single_term_specs(draw):
    """t has one term a_{-k} e^{-ikx}, so |t| is the same at every sample."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, n))
    diag = [0j] * (2 * n + 1)
    diag[n - k] = complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))
    return scaled(from_diagonals(diag), draw(st.integers(-60, 60)))


class TestFloatSampleScreen:
    @given(st.one_of(sampled_float_specs(), single_term_specs()))
    @settings(max_examples=150, deadline=None)
    def test_matches_full_horner_scan(self, spec):
        _, t = trig_coeffs(spec)
        x0, w0, t0 = classify._best_sample(spec, t)
        rx0, rw0, rt0 = full_horner_scan(spec)
        assert (x0, w0, t0) == (rx0, rw0, rt0)
        assert math.copysign(1, t0.real) == math.copysign(1, rt0.real)
        assert math.copysign(1, t0.imag) == math.copysign(1, rt0.imag)

    def test_few_horner_evaluations(self, monkeypatch):
        calls = []

        def counted(p, w):
            calls.append(w)
            return eval_at_point(p, w)

        monkeypatch.setattr(classify, "eval_at_point", counted)
        spec = generate(GenRequest(n=128, kind=Kind.TYPE_I, seed=0))
        res, _ = classify_via_proof(spec, POLICY)
        assert res.verdict is Verdict.CLASSIFIED
        assert len(calls) <= 3


class TestRealRoute:
    def test_single_labels(self, circulant_spec, symmetric_spec):
        assert classify_real(circulant_spec, POLICY).labels == {RealLabel.CIRCULANT}
        assert classify_real(symmetric_spec, POLICY).labels == {RealLabel.SYMMETRIC}

    def test_skew_labels(self):
        res = classify_real(from_diagonals([-2, -1, 0, 1, 2]), POLICY)
        assert res.labels == {RealLabel.SKEW_SYMMETRIC}
        res = classify_real(from_diagonals([-1, -2, 0, 1, 2]), POLICY)
        assert res.labels == {RealLabel.SKEW_CIRCULANT}

    def test_double_label(self, palindromic_spec):
        res = classify_real(palindromic_spec, POLICY)
        assert res.labels == {RealLabel.SYMMETRIC, RealLabel.CIRCULANT}

    def test_not_normal_and_degenerate(self, fraction_spec):
        assert classify_real(fraction_spec, POLICY).verdict is Verdict.NOT_NORMAL
        res = classify_real(from_diagonals([0, 0, 0]), POLICY)
        assert res.verdict is Verdict.DEGENERATE and res.labels == frozenset()

    def test_complex_input_rejected(self, type1_spec):
        with pytest.raises(ValueError):
            classify_real(type1_spec, POLICY)

    def test_approx(self, circulant_spec):
        res = classify_real(circulant_spec.as_approx(), POLICY)
        assert res.labels == {RealLabel.CIRCULANT}


class TestViolationDiagnostics:
    def test_exception_carries_context(self, fraction_spec):
        exc = TheoremViolation(
            "boom", spec=fraction_spec, report="r", deviations={"type_I": 0.5}
        )
        assert exc.spec is fraction_spec
        assert exc.report == "r"
        assert exc.deviations == {"type_I": 0.5}
        assert isinstance(exc, RuntimeError)


class TestJson:
    def test_classification_document(self, type1_spec):
        res = classify_complex(type1_spec, POLICY)
        doc = classification_to_json(res)
        assert doc["verdict"] == "Classified"
        assert doc["type_I"] == {"re": "0", "im": "1"}
        assert doc["type_II"] is None
        assert doc["real_labels"] is None
        assert doc["trace"] is None

    def test_real_labels_ordered(self, palindromic_spec):
        res = classify_complex(palindromic_spec, POLICY)
        real = classify_real(palindromic_spec, POLICY)
        doc = classification_to_json(res, real)
        assert doc["real_labels"] == ["Symmetric", "Circulant"]

    def test_trace_document(self, type1_spec):
        _, trace = classify_via_proof(type1_spec, POLICY)
        doc = trace_to_json(trace)
        assert doc["x0"] == 0.0
        assert doc["point"] == {"re": "1", "im": "0"}
        assert doc["alpha0"] == {"re": "0", "im": "1"}

    def test_empty_trace_is_null(self):
        assert trace_to_json(None) is None
        assert trace_to_json(ProofTrace()) is None
