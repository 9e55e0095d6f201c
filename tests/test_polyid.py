"""Trigonometric and algebraic polynomial views and their identities."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from toepnorm.genlab import GenRequest, Kind, generate
from toepnorm.normality import residual_scale
from toepnorm.polyid import (
    NEG,
    POS,
    CoeffPoly,
    alg_polys,
    eval_at_point,
    eval_trig,
    factor_polys,
    identity14_check,
    identity16_holds,
    identity8_coefficient_check,
    identity8_residual,
    identity9_residual,
    is_zero_poly,
    poly_mul,
    poly_sub,
    reciprocal,
    trig_coeffs,
)
from toepnorm.scalar import (
    GaussianRational,
    ScalarPolicy,
    rational_unit_circle,
)
from toepnorm.toeplitz import from_diagonals
from references import identity8_residual_at_points, poly_mul_former, poly_mul_loop

small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=5)
coeff_vectors = st.lists(small_fractions, min_size=1, max_size=6)


class TestCoeffPoly:
    def test_degree_window(self):
        p = CoeffPoly((Fraction(1), Fraction(2)), POS)
        assert p.degree == 2
        assert CoeffPoly((1,), NEG, degree_offset=3).degree == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            CoeffPoly((), POS)
        with pytest.raises(ValueError):
            CoeffPoly((1,), "neither")
        with pytest.raises(ValueError):
            CoeffPoly((1,), POS, degree_offset=0)

    def test_trig_views(self, type1_spec):
        s, t = trig_coeffs(type1_spec)
        assert s.tag == POS and t.tag == NEG
        assert s.coeffs == type1_spec.lower
        assert t.coeffs == type1_spec.upper

    @given(coeff_vectors)
    def test_reciprocal_involution(self, coeffs):
        p = CoeffPoly(tuple(coeffs), POS)
        assert reciprocal(reciprocal(p)) == p

    def test_poly_mul_known(self):
        p = CoeffPoly((Fraction(1), Fraction(2)), POS)
        sq = poly_mul(p, p)
        assert sq.coeffs == (Fraction(1), Fraction(4), Fraction(4))
        assert sq.degree_offset == 2

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_poly_mul_matches_former(self, data):
        """Exact products equal the double loop's in value and type; float ones keep their bits."""
        scalars = data.draw(
            st.sampled_from(
                [
                    small_fractions,
                    st.integers(-(2**70), 2**70),
                    st.builds(GaussianRational, small_fractions, small_fractions),
                    st.floats(-1e6, 1e6, allow_nan=False),
                ]
            )
        )
        a, b = (data.draw(st.lists(scalars, min_size=1, max_size=64)) for _ in range(2))
        got = poly_mul(CoeffPoly(tuple(a), POS), CoeffPoly(tuple(b), POS)).coeffs
        want = poly_mul_former(a, b)
        assert list(map(type, got)) == list(map(type, want))
        assert list(map(repr, got)) == list(map(repr, want))

    def test_poly_sub_window_mismatch(self):
        p = CoeffPoly((1, 2), POS)
        with pytest.raises(ValueError):
            poly_sub(p, CoeffPoly((1,), POS))
        with pytest.raises(ValueError):
            poly_sub(p, CoeffPoly((1, 2), POS, degree_offset=2))

    def test_is_zero_poly(self):
        zero = CoeffPoly((Fraction(0), Fraction(0)), POS)
        assert is_zero_poly(zero, ScalarPolicy())
        assert not is_zero_poly(CoeffPoly((Fraction(1, 10**9),), POS), ScalarPolicy())
        near = CoeffPoly((1e-14, -1e-15), POS)
        assert is_zero_poly(near, ScalarPolicy(), scale=1.0)


class TestEvaluation:
    def test_eval_trig_known(self):
        p = CoeffPoly((1, 2), POS)
        assert eval_trig(p, math.pi) == pytest.approx(1.0)
        assert eval_trig(p, 0.0) == pytest.approx(3.0)

    def test_eval_trig_negative_tag(self, type1_spec):
        _, t = trig_coeffs(type1_spec)
        assert eval_trig(t, 0.0) == pytest.approx(3j)
        assert eval_trig(t, math.pi / 2) == pytest.approx(1 - 2j)

    def test_eval_trig_vectorized(self):
        p = CoeffPoly((1, 2), POS)
        xs = np.array([0.0, math.pi / 2, math.pi])
        vals = eval_trig(p, xs)
        assert vals.shape == (3,)
        for x, v in zip(xs, vals):
            assert v == pytest.approx(eval_trig(p, float(x)))

    def test_eval_at_point_exact(self, type1_spec):
        s, t = trig_coeffs(type1_spec)
        one = GaussianRational(1)
        i = GaussianRational(0, 1)
        assert eval_at_point(s, one) == GaussianRational(3)
        assert eval_at_point(t, one) == GaussianRational(0, 3)
        assert eval_at_point(s, i) == GaussianRational(-2, 1)
        assert eval_at_point(t, i) == GaussianRational(1, -2)

    def test_eval_at_point_matches_eval_trig(self, type1_spec):
        s, _ = trig_coeffs(type1_spec)
        w = rational_unit_circle(Fraction(2, 7))
        x = math.atan2(float(w.imag), float(w.real))
        assert complex(eval_at_point(s, w)) == pytest.approx(
            eval_trig(CoeffPoly(tuple(map(complex, s.coeffs)), POS), x)
        )

    @given(coeff_vectors, small_fractions)
    @settings(max_examples=40, deadline=None)
    def test_reciprocal_evaluation_law(self, coeffs, x):
        # pr(x) = x^{N+1} p(1/x) for p over degrees 1..N.
        if x == 0:
            return
        p = CoeffPoly(tuple(coeffs), POS)
        n = len(coeffs)
        lhs = eval_at_point(reciprocal(p), x)
        rhs = x ** (n + 1) * eval_at_point(p, 1 / x)
        assert lhs == rhs

    def test_reciprocal_evaluation_known(self):
        q = CoeffPoly((Fraction(1), Fraction(2)), POS)
        assert eval_at_point(reciprocal(q), Fraction(2)) == 8
        assert 8 * eval_at_point(q, Fraction(1, 2)) == 8


class TestProductIdentity:
    def test_known_residual_at_origin(self, fraction_spec_approx):
        assert identity8_residual(fraction_spec_approx, 0.0, 0.0) == pytest.approx(-6.0)

    def test_vanishes_on_normal(self, type1_spec_approx):
        rng_angles = np.linspace(0.0, 2 * math.pi, 7)
        for x in rng_angles:
            for y in rng_angles:
                assert abs(identity8_residual(type1_spec_approx, x, y)) < 1e-12

    def test_exact_points_vanish_on_normal(self, type1_spec):
        for u, v in [(0, 1), (Fraction(1, 2), Fraction(-3, 5)), (2, 3)]:
            w, z = rational_unit_circle(u), rational_unit_circle(v)
            assert identity8_residual_at_points(type1_spec, w, z) == GaussianRational(0)

    def test_exact_points_nonzero_off_normal(self, fraction_spec):
        w = rational_unit_circle(Fraction(0))
        assert identity8_residual_at_points(fraction_spec, w, w) == Fraction(-6)

    def test_coefficient_check(self, type1_spec, fraction_spec):
        assert identity8_coefficient_check(type1_spec, ScalarPolicy())
        assert not identity8_coefficient_check(fraction_spec, ScalarPolicy())

    def test_modulus_identity(self, fraction_spec_approx, type1_spec_approx):
        assert identity9_residual(fraction_spec_approx, 0.0) == pytest.approx(-3.0)
        for x in np.linspace(0.0, 2 * math.pi, 9):
            assert abs(identity9_residual(type1_spec_approx, float(x))) < 1e-12

    def test_sampled_zero_on_generated(self):
        spec = generate(GenRequest(n=5, kind=Kind.TYPE_II, seed=11))
        scale = spec.n**2 * spec.max_abs ** 2
        for x in np.linspace(0.0, 2 * math.pi, 5):
            for y in np.linspace(0.0, 2 * math.pi, 5):
                assert abs(identity8_residual(spec, float(x), float(y))) <= 1e-12 * scale


class TestRealIdentities:
    def test_alg_polys_require_real(self, type1_spec):
        with pytest.raises(ValueError):
            alg_polys(type1_spec)
        with pytest.raises(ValueError):
            identity14_check(type1_spec, ScalarPolicy())
        with pytest.raises(ValueError):
            identity16_holds(type1_spec, ScalarPolicy())

    def test_alg_polys_views(self, circulant_spec):
        p, q, pr, qr = alg_polys(circulant_spec)
        assert p.coeffs == (Fraction(1), Fraction(2))
        assert q.coeffs == (Fraction(2), Fraction(1))
        assert pr.coeffs == (Fraction(2), Fraction(1))
        assert qr.coeffs == (Fraction(1), Fraction(2))

    def test_factor_polys_known(self, circulant_spec):
        f1, f2 = factor_polys(circulant_spec)
        assert f1.coeffs == (Fraction(-3), Fraction(0), Fraction(3))
        assert f1.degree_offset == 2
        assert f2.coeffs == (Fraction(0), Fraction(0), Fraction(0))

    def test_identity14(self, circulant_spec, symmetric_spec, fraction_spec):
        assert identity14_check(circulant_spec, ScalarPolicy())
        assert identity14_check(symmetric_spec, ScalarPolicy())
        assert not identity14_check(fraction_spec, ScalarPolicy())

    def test_identity14_tracks_normality(self, palindromic_spec):
        assert identity14_check(palindromic_spec, ScalarPolicy())

    def test_identity16(self, circulant_spec, symmetric_spec, fraction_spec):
        assert identity16_holds(circulant_spec, ScalarPolicy())
        assert identity16_holds(symmetric_spec, ScalarPolicy())
        assert not identity16_holds(fraction_spec, ScalarPolicy())

    def test_identity16_approx(self, circulant_spec):
        assert identity16_holds(circulant_spec.as_approx(), ScalarPolicy())

    def test_cross_product_subcheck(self, symmetric_spec):
        p, q, pr, qr = alg_polys(symmetric_spec)
        assert poly_mul(p, pr).coeffs == poly_mul(q, qr).coeffs


def _reference_identity16(spec, policy):
    """(holds, f1 is zero, f2 is zero) with every product by the double loop."""
    p, q, pr, qr = (c.coeffs for c in alg_polys(spec))
    scale = residual_scale(spec)

    def zero_diff(u, v):
        return all(policy.is_zero(x - y, scale) for x, y in zip(u, v))

    p2 = poly_mul_loop(p, p)
    f1, f2 = zero_diff(p2, poly_mul_loop(q, q)), zero_diff(p2, poly_mul_loop(qr, qr))
    return zero_diff(poly_mul_loop(p, pr), poly_mul_loop(q, qr)) and (f1 or f2), f1, f2


class TestFloatIdentity16:
    """Float identity 16 on np.convolve gives the double loop's verdicts."""

    @given(
        st.integers(1, 300),
        st.sampled_from([Kind.SYMMETRIC, Kind.SKEW_SYMMETRIC, Kind.CIRCULANT, Kind.SKEW_CIRCULANT]),
        st.integers(0, 2**16),
        st.sampled_from([0.0, 1e-13, 1e-6]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_python_loop(self, n, kind, seed, bump):
        spec = generate(GenRequest(n=n, kind=kind, seed=seed))
        rng = random.Random(seed)
        spec = from_diagonals(
            [0.0 if k == n else z.real + bump * rng.uniform(-1, 1) for k, z in enumerate(spec.diag)]
        )
        policy = ScalarPolicy()
        f1, f2 = factor_polys(spec)
        assert all(type(c) is float for c in f1.coeffs + f2.coeffs)
        got = (
            identity16_holds(spec, policy),
            is_zero_poly(f1, policy, residual_scale(spec)),
            is_zero_poly(f2, policy, residual_scale(spec)),
        )
        assert got == _reference_identity16(spec, policy)
        if bump == 0.0:
            assert got[0]
