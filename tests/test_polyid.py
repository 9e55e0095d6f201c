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
    _products,
    eval_at_point,
    eval_trig,
    factor_polys,
    identity14_check,
    identity16_holds,
    identity8_coefficient_check,
    identity8_residual,
    identity9_residual,
    is_zero_poly,
    trig_coeffs,
)
from toepnorm.scalar import (
    GaussianRational,
    ScalarPolicy,
    rational_unit_circle,
)
from toepnorm.toeplitz import _limb_bits, from_diagonals
from references import identity8_residual_at_points, poly_mul_loop

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
        lhs = eval_at_point(CoeffPoly(p.coeffs[::-1], POS), x)
        rhs = x ** (n + 1) * eval_at_point(p, 1 / x)
        assert lhs == rhs

    def test_reciprocal_evaluation_known(self):
        q = CoeffPoly((Fraction(1), Fraction(2)), POS)
        assert eval_at_point(CoeffPoly(q.coeffs[::-1], POS), Fraction(2)) == 8
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
            factor_polys(type1_spec)
        with pytest.raises(ValueError):
            identity14_check(type1_spec, ScalarPolicy())
        with pytest.raises(ValueError):
            identity16_holds(type1_spec, ScalarPolicy())

    def test_alg_polys_views(self):
        """p = (a_1, a_2) = (1, 2) and q = (a_-1, a_-2) = (3, 5/2), cleared by L = 2.

        p^2 = (1, 4, 4), q^2 = (9, 15, 25/4), qr^2 = (25/4, 15, 9),
        p*pr = (2, 5, 2) and q*qr = (15/2, 61/4, 15/2).
        """
        spec = from_diagonals([Fraction(5, 2), 3, 0, 1, 2])
        assert reference_views(spec) == ((1, 2), (3, Fraction(5, 2)), (2, 1), (Fraction(5, 2), 3))
        f1, f2 = factor_polys(spec)
        assert f1.coeffs == (-8, -11, Fraction(-9, 4))
        assert f2.coeffs == (Fraction(-21, 4), -11, -5)
        assert _products(spec) == ((-32, -44, -9), (-21, -44, -20), (-22, -41, -22))

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
        p, q, pr, qr = reference_views(symmetric_spec)
        assert poly_mul_loop(p, pr) == poly_mul_loop(q, qr)
        assert _products(symmetric_spec)[2] == (0, 0, 0)
        assert not identity16_holds(from_diagonals([2, 1, 0, 1, 3]), ScalarPolicy())


def reference_views(spec):
    """(p, q, pr, qr) as tuples of the real parts of a_1..a_N and a_-1..a_-N."""
    p, q = (tuple(z.real for z in half) for half in (spec.lower, spec.upper))
    return p, q, p[::-1], q[::-1]


def reference_products(spec):
    """(p^2 - q^2, p^2 - qr^2, p*pr - q*qr), every product by the double loop."""
    p, q, pr, qr = reference_views(spec)

    def diff(u, v):
        return tuple(x - y for x, y in zip(u, v))

    p2 = poly_mul_loop(p, p)
    return (
        diff(p2, poly_mul_loop(q, q)),
        diff(p2, poly_mul_loop(qr, qr)),
        diff(poly_mul_loop(p, pr), poly_mul_loop(q, qr)),
    )


def reference_flags(products, policy, scale):
    """(holds, f1 is zero, f2 is zero) of the three :func:`reference_products`."""
    f1, f2, cross = (all(policy.is_zero(c, scale) for c in f) for f in products)
    return cross and (f1 or f2), f1, f2


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
        assert got == reference_flags(reference_products(spec), policy, residual_scale(spec))
        if bump == 0.0:
            assert got[0]


@st.composite
def exact_real_specs(draw):
    """Exact real specs, N 1..64: one of the four real kinds or unconstrained,
    with one entry redrawn.

    Parts are integers up to 2^(kS) - 1 for S limbs, k = _limb_bits(N), over a
    denominator D: at S = 1 up to the largest the float64 path holds, at
    S >= 2 on the object path.
    """
    n = draw(st.integers(1, 64))
    top = (1 << _limb_bits(n) * draw(st.sampled_from([1, 1, 2, 3, 60]))) - 1
    part = st.one_of(st.sampled_from([top, -top]), st.integers(-top, top))
    lower = draw(st.lists(part, min_size=n, max_size=n))
    structure = draw(st.sampled_from(["sym", "skew", "circ", "skewcirc", "free"]))
    if structure == "free":
        upper = draw(st.lists(part, min_size=n, max_size=n))
    else:
        sign = -1 if structure.startswith("skew") else 1
        upper = [sign * z for z in (lower[::-1] if structure.endswith("circ") else lower)]
    diag = upper[::-1] + [0] + lower
    if draw(st.booleans()):
        diag[draw(st.sampled_from([j for j in range(2 * n + 1) if j != n]))] = draw(part)
    den = draw(st.sampled_from([1, 3, 12]))
    return from_diagonals([Fraction(z, den) for z in diag])


def assert_matches_fraction_loop(spec):
    """_products, factor_polys and identity16_holds against the double loop on Fractions."""
    policy, want = ScalarPolicy(), reference_products(spec)
    lcm = spec.cleared[2]
    got = _products(spec)
    assert all(type(c) is int for f in got for c in f)
    assert tuple(tuple(Fraction(c, lcm * lcm) for c in f) for f in got) == want
    f1, f2 = factor_polys(spec)
    assert (f1.coeffs, f2.coeffs) == want[:2]
    assert all(type(c) is Fraction for c in f1.coeffs + f2.coeffs)
    assert f1.degree_offset == f2.degree_offset == 2
    scale = residual_scale(spec)
    flags = (
        identity16_holds(spec, policy),
        is_zero_poly(f1, policy, scale),
        is_zero_poly(f2, policy, scale),
    )
    assert flags == reference_flags(want, policy, scale)
    return flags


class TestExactIdentity16:
    """Exact identity 16 on the cleared integers gives the Fraction double loop's values."""

    @given(exact_real_specs())
    @settings(max_examples=40, deadline=None)
    def test_matches_fraction_loop(self, spec):
        assert_matches_fraction_loop(spec)

    @pytest.mark.parametrize("limbs", [1, 2, 60])
    @pytest.mark.parametrize("n", [1, 12, 64])
    def test_largest_parts(self, n, limbs):
        """Parts at +-(2^(kS) - 1) for S limbs: the float64 path at S = 1, else objects.

        The symmetric spec holds; with a_-1 = 0 it does not.
        """
        top = (1 << _limb_bits(n) * limbs) - 1
        lower = [top * (-1) ** j for j in range(n)]
        diag = lower[::-1] + [0] + lower
        for a_minus_1, want in [(lower[0], (True, True)), (0, (False, False))]:
            diag[n - 1] = a_minus_1
            spec = from_diagonals(diag)
            assert (spec.array.dtype == object) == (limbs > 1)
            assert assert_matches_fraction_loop(spec)[:2] == want

    def test_symmetric_256_holds(self):
        spec = generate(GenRequest(n=256, kind=Kind.SYMMETRIC, seed=1, exact=True))
        f1, f2 = factor_polys(spec)
        assert identity16_holds(spec, ScalarPolicy())
        assert is_zero_poly(f1, ScalarPolicy()) and not is_zero_poly(f2, ScalarPolicy())
