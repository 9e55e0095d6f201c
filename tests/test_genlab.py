"""Structured generators, perturbation, and exhaustive grid verification."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import GAUSS1, INT2
from references import census_walk
from toepnorm import classify, genlab, normality, toeplitz
from toepnorm.genlab import (
    EnumRequest,
    GenRequest,
    Kind,
    enum_report_to_json,
    enumerate_and_verify,
    generate,
    perturb,
)
from toepnorm.normality import check, fast_max_residual
from toepnorm.classify import TheoremViolation, Verdict
from toepnorm.scalar import (
    GaussianRational,
    ScalarPolicy,
    SpecFormatError,
    abs_sq,
    clear_denominators,
)
from toepnorm.toeplitz import (
    _FLOAT_RANGE,
    commutator_norm,
    from_diagonals,
    spec_from_json,
    spec_to_json,
)

ALL_KINDS = list(Kind)
STRUCTURED = [k for k in ALL_KINDS if k is not Kind.UNCONSTRAINED]


def grid_array(values, n):
    """The census's array of a value grid."""
    return toeplitz._stack_array(clear_denominators(values), n)


class TestGenerate:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_deterministic(self, kind):
        a = generate(GenRequest(n=4, kind=kind, seed=5))
        b = generate(GenRequest(n=4, kind=kind, seed=5))
        c = generate(GenRequest(n=4, kind=kind, seed=6))
        assert a.diag == b.diag
        assert a.diag != c.diag

    @pytest.mark.parametrize("kind", STRUCTURED)
    def test_exact_soundness(self, kind):
        spec = generate(GenRequest(n=5, kind=kind, seed=1, exact=True))
        assert spec.is_exact
        assert commutator_norm(spec) == 0

    @pytest.mark.parametrize("kind", STRUCTURED)
    def test_approx_soundness(self, kind):
        spec = generate(GenRequest(n=16, kind=kind, seed=2))
        value, _ = fast_max_residual(spec)
        assert value <= 1e-10 * spec.n * spec.max_abs ** 2

    def test_real_kinds_stay_real(self):
        spec = generate(GenRequest(n=3, kind=Kind.SKEW_CIRCULANT, seed=9, exact=True))
        assert spec.is_real
        assert all(isinstance(z, Fraction) for z in spec.diag)

    def test_a0_is_zero(self):
        spec = generate(GenRequest(n=3, kind=Kind.UNCONSTRAINED, seed=4))
        assert spec.a0 == 0

    def test_witness_honored(self):
        w = GaussianRational(0, -1)
        spec = generate(GenRequest(n=2, kind=Kind.TYPE_I, witness=w, seed=0, exact=True))
        assert spec.upper == tuple(w * z.conjugate() for z in spec.lower)

    def test_default_witness_is_unit(self):
        spec = generate(GenRequest(n=2, kind=Kind.TYPE_II, seed=8, exact=True))
        up, lo = spec.upper, spec.lower
        pivot = next(k for k, z in enumerate(reversed(lo)) if z)
        w = up[pivot] / tuple(reversed(lo))[pivot]
        assert abs_sq(w) == 1

    def test_bad_witness_rejected(self):
        with pytest.raises(ValueError):
            generate(GenRequest(n=2, kind=Kind.TYPE_I, witness=GaussianRational(2), exact=True))
        with pytest.raises(ValueError):
            generate(GenRequest(n=2, kind=Kind.TYPE_I, witness=1.001))

    def test_witness_from_other_domain_rejected(self):
        with pytest.raises(ValueError, match="domain"):
            generate(GenRequest(n=2, kind=Kind.TYPE_I, witness=1.0 + 0j, exact=True))
        with pytest.raises(ValueError, match="domain"):
            generate(GenRequest(n=2, kind=Kind.TYPE_II, witness=GaussianRational(1)))

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    def test_non_finite_scale_rejected(self, scale, exact):
        with pytest.raises(ValueError, match="finite"):
            generate(GenRequest(n=2, kind=Kind.TYPE_I, value_scale=scale, exact=exact))

    def test_witness_on_real_kind_rejected(self):
        with pytest.raises(ValueError):
            generate(GenRequest(n=2, kind=Kind.SYMMETRIC, witness=GaussianRational(1)))
        with pytest.raises(ValueError):
            generate(GenRequest(n=2, kind=Kind.UNCONSTRAINED, witness=GaussianRational(1)))

    def test_value_scale_bounds_entries(self):
        spec = generate(GenRequest(n=6, kind=Kind.UNCONSTRAINED, seed=3, value_scale=5))
        assert spec.max_abs <= 5.0 + 1e-12
        tiny = generate(GenRequest(n=6, kind=Kind.UNCONSTRAINED, seed=3, value_scale="1/4", exact=True))
        assert tiny.max_abs <= 0.25 + 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_scale_beyond_float_range_rejected(self, kind):
        refusal = r"^value_scale 1e\+300 is too large: float entries too large for n=2: "
        with pytest.raises(ValueError, match=refusal) as info:
            generate(GenRequest(n=2, kind=kind, value_scale=1e300))
        assert type(info.value) is ValueError
        with pytest.raises(ValueError, match="finite"):
            generate(GenRequest(n=2, kind=kind, value_scale=10**400))
        assert generate(GenRequest(n=2, kind=kind, value_scale=10**400, exact=True)).is_exact

    @pytest.mark.parametrize("kind", [Kind.SYMMETRIC, Kind.TYPE_II, Kind.UNCONSTRAINED])
    def test_scale_just_past_the_range_limit_is_checked_once(self, kind):
        n, seed = 3, 5
        unit = generate(GenRequest(n=n, kind=kind, seed=seed))
        limit = _FLOAT_RANGE / (n + 1)
        edge = limit / np.abs(np.asarray(unit.diag).view(float)).max()
        calls = []
        original = toeplitz._float_range_problem

        def counted(*args):
            calls.append(1)
            return original(*args)

        with mock.patch.object(toeplitz, "_float_range_problem", counted):
            generate(GenRequest(n=n, kind=kind, seed=seed, value_scale=edge * (1 - 2**-30)))
            assert len(calls) == 1
            past = edge * (1 + 2**-30)
            with pytest.raises(ValueError) as info:
                generate(GenRequest(n=n, kind=kind, seed=seed, value_scale=past))
            assert len(calls) == 2
        prefix = f"value_scale {past!r} is too large: float entries too large for n={n}: largest component "
        message = str(info.value)
        assert type(info.value) is ValueError and message.startswith(prefix)
        big, tail = message[len(prefix) :].split(" ", 1)
        assert limit < float(big) < limit * (1 + 2**-29) and tail == f"exceeds {limit:.3g}"

    @given(
        st.integers(1, 8),
        st.sampled_from(ALL_KINDS),
        st.floats(1e70, 1e80),
        st.integers(0, 99),
    )
    @settings(max_examples=60, deadline=None)
    def test_generated_float_specs_decode(self, n, kind, scale, seed):
        """Either the spec decodes back unchanged, or the scale is too large."""
        try:
            spec = generate(GenRequest(n=n, kind=kind, seed=seed, value_scale=scale))
        except ValueError as exc:
            assert "too large" in str(exc)
            assert scale > _FLOAT_RANGE / (n + 1)
        else:
            assert spec_from_json(spec_to_json(spec)) == spec

    def test_request_validation(self):
        with pytest.raises(ValueError):
            generate(GenRequest(n=0, kind=Kind.TYPE_I))
        with pytest.raises(ValueError):
            generate(GenRequest(n=2, kind=Kind.TYPE_I, value_scale=0))

    @given(st.integers(0, 2**31), st.sampled_from(STRUCTURED))
    @settings(max_examples=30, deadline=None)
    def test_exact_soundness_random_seeds(self, seed, kind):
        spec = generate(GenRequest(n=3, kind=kind, seed=seed, exact=True))
        value, _ = fast_max_residual(spec)
        assert value == 0


class TestPerturb:
    def test_exact_rejected(self, fraction_spec):
        with pytest.raises(ValueError):
            perturb(fraction_spec, 1e-3)

    def test_negative_magnitude_rejected(self, fraction_spec_approx):
        with pytest.raises(ValueError):
            perturb(fraction_spec_approx, -1.0)

    @pytest.mark.parametrize("magnitude", [1e300])
    def test_bump_the_analyses_cannot_take_is_refused(self, fraction_spec_approx, magnitude):
        with pytest.raises(SpecFormatError):
            perturb(fraction_spec_approx, magnitude)

    @pytest.mark.parametrize("magnitude", [math.nan, math.inf, -math.inf])
    def test_non_finite_magnitude_is_refused(self, fraction_spec_approx, magnitude):
        with pytest.raises(ValueError, match=f"^magnitude must be finite, got {magnitude!r}$") as info:
            perturb(fraction_spec_approx, magnitude)
        assert type(info.value) is ValueError

    def test_bump_is_bounded_and_leaves_a0(self):
        spec = generate(GenRequest(n=5, kind=Kind.CIRCULANT, seed=7))
        bumped = perturb(spec, 1e-6, seed=3)
        assert bumped.a0 == spec.a0
        deltas = [abs(a - b) for a, b in zip(bumped.diag, spec.diag)]
        assert max(deltas) <= 1e-6
        assert max(deltas) > 0

    def test_deterministic(self):
        spec = generate(GenRequest(n=3, kind=Kind.TYPE_I, seed=2))
        assert perturb(spec, 1e-4, seed=5).diag == perturb(spec, 1e-4, seed=5).diag

    def test_breaks_normality_beyond_tolerance(self):
        spec = generate(GenRequest(n=4, kind=Kind.TYPE_II, seed=6))
        bumped = perturb(spec, 1e-5, seed=1)
        value, _ = fast_max_residual(bumped)
        assert value > 1e-10 * bumped.n * bumped.max_abs ** 2


def bump_lower_half(monkeypatch, lower):
    """Add 1 at entry (0, N) of the census's commutator of one lower half.

    The bump is not Hermitian, so that commutator equals no negated upper
    half's, and every spec with this lower half (a_1..a_N) is non-normal to
    the census's oracle alone.
    """
    n = len(lower)
    half = toeplitz._dense_np(np.array([0] * (n + 1) + list(lower), float), n)
    bump = np.zeros((n + 1, n + 1))
    bump[0, n] = 1
    original_comm = genlab._comm

    def comm(a, b):
        return original_comm(a, b) + (a == half).all(axis=(-2, -1))[..., None, None] * bump

    monkeypatch.setattr(genlab, "_comm", comm)


def scan_normal_with_lower_half(values, lower):
    """The specs of the grid with this lower half that the scan finds normal, row-major."""
    n = len(lower)
    specs = (
        from_diagonals(upper + (0,) + tuple(lower))
        for upper in itertools.product(values, repeat=n)
    )
    return [spec for spec in specs if check(spec, ScalarPolicy()).is_normal_fast]


class TestEnumerate:
    def test_gauss1_n1_census(self):
        report = enumerate_and_verify(EnumRequest(n=1, value_set=GAUSS1))
        assert report.total == 81
        assert report.normal == 33
        assert report.classified == 32
        assert report.degenerate == 1
        assert report.violations == ()
        assert report.label_histogram == {"type_I": 32, "type_II": 32}

    def test_int2_n1_real_census(self):
        report = enumerate_and_verify(EnumRequest(n=1, value_set=INT2, real_only=True))
        assert report.total == 25
        assert report.normal == 9
        assert report.classified == 8
        assert report.degenerate == 1
        assert report.violations == ()
        assert report.label_histogram == {
            "Circulant": 4,
            "SkewCirculant": 4,
            "SkewSymmetric": 4,
            "Symmetric": 4,
        }

    MIXED = (
        Fraction(1, 2),
        2,
        Fraction(-3, 4),
        GaussianRational(Fraction(-1, 3), 0),
        GaussianRational(0, Fraction(5, 6)),
    )

    @pytest.mark.parametrize(
        "n, values, real_only",
        [(1, GAUSS1, False), (1, INT2, True), (2, INT2, True), (1, MIXED, False)],
    )
    def test_census_specs_are_from_diagonals(self, monkeypatch, n, values, real_only):
        """The kernel decides each normal spec as the per-spec classifier does.

        Its rows are the normal specs in row-major order, as the grid array
        holds them, and each row's output matches classify_real or
        classify_complex on from_diagonals of that combination.
        """
        seen = []

        def recording(up, lo, real, _original=genlab._direct_tests):
            tests = _original(up, lo, real)
            seen.extend(zip(up.tolist(), lo.tolist(), tests.tolist()))
            return tests

        monkeypatch.setattr(genlab, "_direct_tests", recording)
        enumerate_and_verify(EnumRequest(n=n, value_set=values, real_only=real_only))
        grid = grid_array(values, n)
        wants = []
        for combo in itertools.product(range(len(values)), repeat=2 * n):
            diag = [values[i] for i in combo]
            spec = from_diagonals(diag[:n] + [0] + diag[n:])
            if check(spec, ScalarPolicy()).is_normal_fast:
                row = grid[list(combo)]
                wants.append((row[n - 1 :: -1].tolist(), row[n:].tolist(), spec))
        assert len(seen) == len(wants)
        for (up, lo, tests), (want_up, want_lo, spec) in zip(seen, wants):
            assert up == want_up and lo == want_lo
            if real_only:
                res = classify.classify_real(spec, ScalarPolicy())
                labels = {label for label, ok in zip(classify._LABEL_ORDER, tests) if ok}
            else:
                res = classify.classify_complex(spec, ScalarPolicy())
                assert [p >= 0 for p in tests] == [res.type_I is not None, res.type_II is not None]
            degenerate = res.verdict is Verdict.DEGENERATE
            assert degenerate == (not any(up + lo))
            if real_only:  # a zero row fits every label
                assert labels == (set(classify._LABEL_ORDER) if degenerate else res.labels)

    def test_agreeing_specs_are_never_built(self, monkeypatch):
        """Only a spec whose verdicts disagree is built and classified per spec."""
        want = [spec.diag for spec in scan_normal_with_lower_half(INT2, (2, 1))]
        built, classified = [], []
        original_init = toeplitz.ToeplitzSpec.__post_init__

        def counting_init(spec):
            built.append(spec)
            original_init(spec)

        monkeypatch.setattr(toeplitz.ToeplitzSpec, "__post_init__", counting_init)
        for name in ("classify_real", "classify_complex"):

            def recording(spec, policy, _original=getattr(genlab, name)):
                classified.append(spec)
                return _original(spec, policy)

            monkeypatch.setattr(genlab, name, recording)
        for req in (
            EnumRequest(n=2, value_set=INT2, real_only=True),
            EnumRequest(n=1, value_set=GAUSS1),
        ):
            report = enumerate_and_verify(req)
            assert report.normal > 0 and report.violations == ()
        assert built == [] and classified == []
        bump_lower_half(monkeypatch, (2, 1))
        report = enumerate_and_verify(EnumRequest(n=2, value_set=INT2, real_only=True))
        assert len(want) > 1 and len(report.violations) == len(want)
        assert [spec.diag for spec in built] == want
        assert [spec.diag for spec in classified] == want

    @pytest.mark.parametrize(
        "req, normal, histogram",
        [
            (
                EnumRequest(n=5, value_set=INT2, real_only=True),
                12201,
                dict.fromkeys(["Circulant", "SkewCirculant", "SkewSymmetric", "Symmetric"], 3124),
            ),
            (
                EnumRequest(n=4, value_set=GAUSS1, budget=9**8),
                51201,
                {"type_I": 26240, "type_II": 26240},
            ),
        ],
    )
    def test_censuses_beyond_the_walk(self, req, normal, histogram):
        """Two censuses too large for the walk here, each confirmed once against census_walk."""
        report = enumerate_and_verify(req)
        assert report.total == len(req.value_set) ** (2 * req.n)
        assert (report.normal, report.classified, report.degenerate) == (normal, normal - 1, 1)
        assert report.violations == ()
        assert report.label_histogram == histogram

    def test_budget_refusal(self):
        with pytest.raises(ValueError, match="budget"):
            enumerate_and_verify(EnumRequest(n=2, value_set=GAUSS1, budget=100))

    def test_value_set_validation(self):
        with pytest.raises(ValueError):
            enumerate_and_verify(EnumRequest(n=1, value_set=()))
        with pytest.raises(ValueError):
            enumerate_and_verify(EnumRequest(n=1, value_set=(0.5, 1.0)))
        with pytest.raises(ValueError, match="real enumeration needs real values"):
            enumerate_and_verify(EnumRequest(n=1, value_set=GAUSS1, real_only=True))

    def test_real_census_of_real_gaussian_rationals(self):
        gauss = tuple(GaussianRational(v) for v in (1, -1, 0))
        fracs = tuple(Fraction(v) for v in (1, -1, 0))
        for n in (1, 2):
            got = enumerate_and_verify(EnumRequest(n=n, value_set=gauss, real_only=True))
            want = enumerate_and_verify(EnumRequest(n=n, value_set=fracs, real_only=True))
            assert enum_report_to_json(got) == enum_report_to_json(want)
            assert got.classified > 0

    def test_report_json(self):
        report = enumerate_and_verify(EnumRequest(n=1, value_set=INT2, real_only=True))
        doc = enum_report_to_json(report)
        assert doc["total"] == 25
        assert doc["violations"] == []
        assert list(doc["label_histogram"]) == sorted(doc["label_histogram"])


def reference_census(req: EnumRequest) -> dict:
    """enum_report_to_json of the census by one dual check per spec.

    The per-spec loop the stacked census replaced: build each spec, run
    normality.check, classify, in the same row-major order.
    """
    values, n = tuple(req.value_set), req.n
    policy = ScalarPolicy()
    normal = classified = degenerate = 0
    violations, histogram = [], {}
    for combo in itertools.product(values, repeat=2 * n):
        spec = from_diagonals(combo[:n] + (0,) + combo[n:])
        report = normality.check(spec, policy)
        try:
            if req.real_only:
                res = classify.classify_real(spec, policy)
            else:
                res = classify.classify_complex(spec, policy)
        except TheoremViolation as exc:
            violations.append({"spec": spec_to_json(spec), "error": str(exc)})
            continue
        if not report.agrees:
            error = "element-wise and dense-oracle verdicts disagree"
            violations.append({"spec": spec_to_json(spec), "error": error})
            continue
        if res.verdict is Verdict.NOT_NORMAL:
            continue
        normal += 1
        if res.verdict is Verdict.DEGENERATE:
            degenerate += 1
            continue
        classified += 1
        if req.real_only:
            keys = [label.value for label in res.labels]
        else:
            keys = [k for k in ("type_I", "type_II") if getattr(res, k) is not None]
        for key in keys:
            histogram[key] = histogram.get(key, 0) + 1
    return enum_report_to_json(
        genlab.EnumReport(
            total=len(values) ** (2 * n),
            normal=normal,
            classified=classified,
            degenerate=degenerate,
            violations=tuple(violations),
            label_histogram=histogram,
        )
    )


small_ints = st.integers(-3, 3)
small_fracs = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4]))
real_values = st.one_of(small_ints, small_fracs, st.builds(GaussianRational, small_fracs))
exact_values = st.one_of(
    real_values, st.builds(GaussianRational, small_fracs, small_fracs)
)


@st.composite
def census_requests(draw):
    n = draw(st.integers(1, 2))
    real_only = draw(st.booleans())
    size = draw(st.integers(1, 4 if n == 2 else 6))
    part = real_values if real_only else exact_values
    values = draw(st.lists(part, min_size=size, max_size=size))
    return EnumRequest(n=n, value_set=tuple(values), real_only=real_only)


@st.composite
def split_stacks(draw):
    """A stack of diagonals with a_0 = 0 in float64, complex128 or object arrays.

    Float parts are integers below 2^10, on which the kernels are exact;
    object arrays hold ints beyond one limb or GaussianRationals of fractions.
    """
    n = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["float", "complex", "int", "gaussian"]))
    size = rows * (2 * n + 1)
    small = st.integers(-(2**10), 2**10)
    if kind == "float":
        d = np.array(draw(st.lists(small, min_size=size, max_size=size)), float)
    elif kind == "complex":
        parts = draw(st.lists(st.tuples(small, small), min_size=size, max_size=size))
        d = np.array([complex(*p) for p in parts])
    else:
        value = st.integers(-(2**70), 2**70)
        if kind == "gaussian":
            value = st.builds(GaussianRational, small_fracs, small_fracs)
        d = np.empty(size, object)
        d[:] = draw(st.lists(value, min_size=size, max_size=size))
    d = d.reshape(rows, 2 * n + 1)
    d[:, n] = 0
    return d, n


class TestHalfSplit:
    """Both verdicts split exactly into a lower-only and an upper-only part."""

    @given(split_stacks())
    @settings(max_examples=200, deadline=None)
    def test_residual_table(self, stack):
        d, n = stack
        lo, up = d[:, n + 1 :], d[:, n - 1 :: -1]
        zero = np.zeros_like(lo)
        whole = normality._table_np(lo, up)
        assert np.array_equal(whole, normality._table_np(lo, zero) + normality._table_np(zero, up))

    @given(split_stacks())
    @settings(max_examples=200, deadline=None)
    def test_commutator(self, stack):
        d, n = stack
        lo, up = np.zeros_like(d), np.zeros_like(d)
        lo[:, n + 1 :], up[:, :n] = d[:, n + 1 :], d[:, :n]
        t, low, high = (toeplitz._dense_np(x, n) for x in (d, lo, up))
        whole = toeplitz._comm(t, t)
        assert np.array_equal(whole, toeplitz._comm(low, low) + toeplitz._comm(high, high))


class TestStackedCensus:
    """The stacked census against the per-spec reference loop."""

    @given(census_requests(), st.sampled_from([1, 7, genlab._BLOCK]))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, req, block):
        with mock.patch.object(genlab, "_BLOCK", block):
            got = enum_report_to_json(enumerate_and_verify(req))
        assert got == enum_report_to_json(census_walk(req))
        assert got == reference_census(req)

    @pytest.mark.parametrize(
        "values, real_only",
        [
            ((0, 1, -(2**40), 2**40), True),
            ((Fraction(1, 10**12), 1, -1, 0), True),
            ((GaussianRational(2**40, 1), GaussianRational(0, -(2**40)), 1, 0), False),
        ],
    )
    @pytest.mark.parametrize("n", [1, 2])
    def test_beyond_one_limb_runs_on_exact_values(self, values, real_only, n):
        assert grid_array(values, n).dtype == object
        req = EnumRequest(n=n, value_set=values, real_only=real_only)
        got = enum_report_to_json(enumerate_and_verify(req))
        assert got == reference_census(req)
        assert got["classified"] > 0 and got["violations"] == []

    @pytest.mark.parametrize("n", [1, 2, 16])
    def test_largest_one_limb_grid_is_complex(self, n):
        top = 2 ** toeplitz._limb_bits(n) - 1
        assert grid_array((Fraction(top, 3), -1), n).dtype == float
        assert grid_array((GaussianRational(Fraction(top, 3), 1), -1), n).dtype == complex
        assert grid_array((Fraction(top + 1, 3), -1), n).dtype == object
        assert grid_array((GaussianRational(1, top + 1),), n).dtype == object

    @pytest.mark.parametrize(
        "values, real_only, dtype",
        [(INT2, True, float), (INT2, False, float), (GAUSS1, False, complex), ((0, 2**40), True, object)],
    )
    def test_real_census_runs_real(self, monkeypatch, values, real_only, dtype):
        """A grid of real one-limb values is float64, with or without real_only."""
        seen = set()
        for name in ("_table_np", "_comm", "_direct_tests"):

            def recorded(*args, _original=getattr(genlab, name)):
                seen.add(args[0].dtype)
                return _original(*args)

            monkeypatch.setattr(genlab, name, recorded)
        req = EnumRequest(n=1, value_set=values, real_only=real_only)
        assert enum_report_to_json(enumerate_and_verify(req)) == reference_census(req)
        assert seen == {np.dtype(dtype)}

    def test_forced_disagreement_and_violation_in_order(self, monkeypatch):
        """A tampered half's commutator and a tampered census kernel are both caught."""
        req = EnumRequest(n=2, value_set=INT2, real_only=True)
        # The oracle is made to see a non-Hermitian commutator for the lower
        # half (a_1, a_2) = (2, 1): every spec the scan finds normal with
        # it is a disagreement.  (2, -1, 0, 1, -2) is skew-symmetric: the
        # census's kernel is made to find no label for it, and classify_real,
        # which fits the labels itself, finds one.
        bump_lower_half(monkeypatch, (2, 1))
        original_tests = genlab._direct_tests

        def direct_tests(up, lo, real):
            tests = original_tests(up, lo, real)
            victim = (up == [-1, 2]).all(axis=1) & (lo == [1, -2]).all(axis=1)
            tests[victim] = False
            return tests

        monkeypatch.setattr(genlab, "_direct_tests", direct_tests)
        want = reference_census(req)
        # The census counts no spec it leaves undecided or finds in dispute.
        victim = from_diagonals([2, -1, 0, 1, -2])
        found = [(victim, "stacked and per-spec direct routes disagree")]
        disputed = scan_normal_with_lower_half(INT2, (2, 1))
        found += [(spec, "element-wise and dense-oracle verdicts disagree") for spec in disputed]
        for spec, _ in found:
            want["normal"] -= 1
            want["classified"] -= 1
            for label in classify.classify_real(spec, ScalarPolicy()).labels:
                want["label_histogram"][label.value] -= 1
        row_major = {combo: k for k, combo in enumerate(itertools.product(INT2, repeat=5))}
        found.sort(key=lambda pair: row_major[pair[0].diag])
        want["violations"] = [{"spec": spec_to_json(spec), "error": error} for spec, error in found]
        assert len(disputed) > 1 and all(want["label_histogram"].values())
        for block in (1, genlab._BLOCK):
            with mock.patch.object(genlab, "_BLOCK", block):
                got = enum_report_to_json(enumerate_and_verify(req))
            assert got == want

    def test_no_stacked_call_holds_more_than_one_block(self, monkeypatch):
        """Each verdict kernel sees each of the 5^2 halves once per side, and no full spec."""
        seen = {"_table_np": [], "_comm": []}

        def table(lo, up, _original=genlab._table_np):
            sides = lo.reshape(-1, *lo.shape[-2:]), up.reshape(-1, *up.shape[-2:])
            seen["_table_np"] += zip(*sides)
            return _original(lo, up)

        def comm(a, b, _original=genlab._comm):
            assert a is b
            for side in a.reshape(-1, *a.shape[-3:]):  # (a_1..a_N), (a_-1..a_-N) of each row
                seen["_comm"].append((side[:, 1:, 0], side[:, 0, 1:]))
            return _original(a, b)

        monkeypatch.setattr(genlab, "_table_np", table)
        monkeypatch.setattr(genlab, "_comm", comm)
        report = enumerate_and_verify(EnumRequest(n=2, value_set=INT2, real_only=True))
        assert report.total == 5**4
        every = sorted(itertools.product(range(-2, 3), repeat=2))
        zero = [(0, 0)] * len(every)
        for calls in seen.values():
            sides = [[sorted(map(tuple, rows.tolist())) for rows in call] for call in calls]
            assert sorted(sides) == sorted([[every, zero], [zero, every]])

    def test_kernel_takes_normal_specs_a_block_at_a_time(self, monkeypatch):
        """Every kernel call but the last holds at least one block, none two."""
        sizes = []

        def counted(up, lo, real, _original=genlab._direct_tests):
            sizes.append(len(up))
            return _original(up, lo, real)

        monkeypatch.setattr(genlab, "_direct_tests", counted)
        monkeypatch.setattr(genlab, "_BLOCK", 7)
        report = enumerate_and_verify(EnumRequest(n=2, value_set=INT2, real_only=True))
        assert sum(sizes) == report.normal == 81
        assert len(sizes) > 1 and min(sizes[:-1]) >= 7 and max(sizes) < 2 * 7
