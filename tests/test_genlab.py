"""Structured generators, perturbation, and exhaustive grid verification."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import GAUSS1, INT2
from toepnorm import genlab
from toepnorm.genlab import (
    EnumRequest,
    GenRequest,
    Kind,
    enum_report_to_json,
    enumerate_and_verify,
    generate,
    perturb,
)
from toepnorm.normality import fast_max_residual
from toepnorm.scalar import GaussianRational, ScalarPolicy, abs_sq
from toepnorm.toeplitz import (
    _FLOAT_RANGE,
    commutator_norm,
    from_diagonals,
    spec_from_json,
    spec_to_json,
)

ALL_KINDS = list(Kind)
STRUCTURED = [k for k in ALL_KINDS if k is not Kind.UNCONSTRAINED]


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
        assert value <= 1e-10 * spec.n * spec.max_abs() ** 2

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
        assert spec.max_abs() <= 5.0 + 1e-12
        tiny = generate(GenRequest(n=6, kind=Kind.UNCONSTRAINED, seed=3, value_scale="1/4", exact=True))
        assert tiny.max_abs() <= 0.25 + 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_scale_beyond_float_range_rejected(self, kind):
        with pytest.raises(ValueError, match="too large"):
            generate(GenRequest(n=2, kind=kind, value_scale=1e300))
        with pytest.raises(ValueError, match="finite"):
            generate(GenRequest(n=2, kind=kind, value_scale=10**400))
        assert generate(GenRequest(n=2, kind=kind, value_scale=10**400, exact=True)).is_exact

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
        assert value > 1e-10 * bumped.n * bumped.max_abs() ** 2


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
        seen = []
        original = genlab.check

        def recording(spec, policy):
            seen.append(spec)
            return original(spec, policy)

        monkeypatch.setattr(genlab, "check", recording)
        enumerate_and_verify(EnumRequest(n=n, value_set=values, real_only=real_only))
        combos = list(itertools.product(values, repeat=2 * n))
        assert len(seen) == len(combos)
        for spec, combo in zip(seen, combos):
            want = from_diagonals(combo[:n] + (0,) + combo[n:])
            assert spec.n == want.n and spec.diag == want.diag
            assert [type(z) for z in spec.diag] == [type(z) for z in want.diag]
            assert spec.cleared == want.cleared

    def test_budget_refusal(self):
        with pytest.raises(ValueError, match="budget"):
            enumerate_and_verify(EnumRequest(n=2, value_set=GAUSS1, budget=100))

    def test_value_set_validation(self):
        with pytest.raises(ValueError):
            enumerate_and_verify(EnumRequest(n=1, value_set=()))
        with pytest.raises(ValueError):
            enumerate_and_verify(EnumRequest(n=1, value_set=(0.5, 1.0)))
        with pytest.raises(ValueError):
            enumerate_and_verify(EnumRequest(n=1, value_set=GAUSS1, real_only=True))

    def test_report_json(self):
        report = enumerate_and_verify(EnumRequest(n=1, value_set=INT2, real_only=True))
        doc = enum_report_to_json(report)
        assert doc["total"] == 25
        assert doc["violations"] == []
        assert list(doc["label_histogram"]) == sorted(doc["label_histogram"])
