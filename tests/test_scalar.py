"""Scalar domains: Gaussian rationals, the comparison policy, JSON codecs."""

import math
import operator
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from toepnorm.classify import _best_sample
from toepnorm.genlab import GenRequest, Kind, generate
from toepnorm.polyid import trig_coeffs
from toepnorm.scalar import (
    GaussianRational,
    ScalarPolicy,
    SpecFormatError,
    abs_sq,
    clear_denominators,
    rational_unit_circle,
    scalar_from_json,
    scalar_to_json,
)
from references import gaussian_quotient

small_fractions = st.fractions(min_value=-30, max_value=30, max_denominator=12)
gaussians = st.builds(GaussianRational, small_fractions, small_fractions)


class TestGaussianRational:
    def test_construction_equivalences(self):
        assert GaussianRational(3, 4) / 5 == GaussianRational("3/5", "4/5")
        assert GaussianRational(Fraction(1, 2)) == GaussianRational("1/2", 0)

    def test_arithmetic_table(self):
        i = GaussianRational(0, 1)
        assert i * i == GaussianRational(-1)
        assert (GaussianRational(1, 2) * GaussianRational(3, -1)) == GaussianRational(5, 5)
        assert GaussianRational(5, 5) / GaussianRational(3, -1) == GaussianRational(1, 2)
        assert GaussianRational(1, 1) - 1 == i
        assert 2 + GaussianRational(0, 3) == GaussianRational(2, 3)
        assert -GaussianRational(1, -2) == GaussianRational(-1, 2)

    def test_pow(self):
        w = GaussianRational("3/5", "4/5")
        assert w ** 0 == GaussianRational(1)
        assert w ** 2 == w * w
        assert w ** 5 == w * w * w * w * w
        assert w ** -2 == GaussianRational(1) / (w * w)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1) / GaussianRational(0)

    def test_float_operands_refused(self):
        with pytest.raises(TypeError):
            GaussianRational(1) + 0.5
        with pytest.raises(TypeError):
            1.5 * GaussianRational(1)
        with pytest.raises(TypeError):
            GaussianRational(1) + complex(1)

    @pytest.mark.parametrize("other", [0.5, complex(1, 1)])
    @pytest.mark.parametrize(
        "op",
        [
            lambda z, x: z - x,
            lambda z, x: x - z,
            lambda z, x: z / x,
            lambda z, x: x / z,
            lambda z, x: z**x,
        ],
    )
    def test_inexact_operand_refused_by_every_operator(self, op, other):
        with pytest.raises(TypeError):
            op(GaussianRational(1, 2), other)

    def test_immutable(self):
        z = GaussianRational(1, 2)
        with pytest.raises(AttributeError):
            z.real = Fraction(3)

    def test_eq_and_hash_match_fraction(self):
        assert GaussianRational(7, 0) == Fraction(7)
        assert hash(GaussianRational("2/3", 0)) == hash(Fraction(2, 3))
        assert GaussianRational(1, 1) != Fraction(1)
        assert GaussianRational(1, 2) != "1+2i"

    def test_bool_abs_complex(self):
        assert not GaussianRational(0, 0)
        assert GaussianRational(0, "1/9")
        assert abs(GaussianRational(3, 4)) == 5.0
        assert complex(GaussianRational("1/2", "-1/4")) == 0.5 - 0.25j

    def test_repr_round_trips(self):
        z = GaussianRational("3/5", "-4/5")
        assert eval(repr(z)) == z

    @given(gaussians)
    def test_conjugate_involution(self, z):
        assert z.conjugate().conjugate() == z

    @given(gaussians, gaussians)
    def test_abs_sq_multiplicative(self, a, b):
        assert abs_sq(a * b) == abs_sq(a) * abs_sq(b)

    @given(gaussians, gaussians)
    def test_mul_matches_complex(self, a, b):
        got = complex(a * b)
        want = complex(a) * complex(b)
        assert got == pytest.approx(want, abs=1e-9)


exact_operands = st.one_of(gaussians, st.integers(-30, 30), small_fractions)


def _parts(x):
    if isinstance(x, GaussianRational):
        return x.real, x.imag
    return Fraction(x), Fraction(0)


def _reference(op, a, b):
    """(re, im) of a op b by the textbook Fraction formulas."""
    (ar, ai), (br, bi) = _parts(a), _parts(b)
    if op == "+":
        return ar + br, ai + bi
    if op == "-":
        return ar - br, ai - bi
    if op == "*":
        return ar * br - ai * bi, ar * bi + ai * br
    d = br * br + bi * bi
    return (ar * br + ai * bi) / d, (ai * br - ar * bi) / d


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def assert_canonical(z, want):
    """z is a GaussianRational with the wanted parts, both exactly Fraction."""
    assert type(z) is GaussianRational
    assert type(z.real) is Fraction and type(z.imag) is Fraction
    assert (z.real, z.imag) == want
    if z.imag == 0:
        assert z == z.real and hash(z) == hash(z.real)
        if z.real.denominator == 1:
            assert z == int(z.real) and hash(z) == hash(int(z.real))


wide_fractions = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**20))
wide_gaussians = st.builds(GaussianRational, wide_fractions, wide_fractions)
divisors = st.one_of(
    wide_gaussians,
    gaussians,
    st.integers(-(10**30), 10**30),
    wide_fractions,
    st.sampled_from([0, Fraction(0), GaussianRational(0)]),
)


class TestDivision:
    """Division on integer numerators and denominators, against the Fraction formula."""

    @given(st.one_of(wide_gaussians, gaussians), divisors, st.booleans())
    @settings(max_examples=400)
    def test_matches_former_formula(self, z, other, swap):
        a, b = (other, z) if swap else (z, other)
        if b == 0:
            with pytest.raises(ZeroDivisionError, match="division by zero GaussianRational"):
                a / b
            return
        got, want = a / b, gaussian_quotient(a, b)
        assert type(got) is GaussianRational
        assert type(got.real) is Fraction and type(got.imag) is Fraction
        assert [(x.numerator, x.denominator) for x in (got.real, got.imag)] == [
            (x.numerator, x.denominator) for x in (want.real, want.imag)
        ]


class TestCanonicalParts:
    """Every value keeps Fraction parts, though arithmetic never re-wraps them."""

    @given(gaussians, exact_operands, st.sampled_from(sorted(_OPS)), st.booleans())
    @settings(max_examples=300)
    def test_operators_match_fraction_formulas(self, z, other, op, swap):
        a, b = (other, z) if swap else (z, other)
        if op == "/" and _parts(b) == (0, 0):
            with pytest.raises(ZeroDivisionError):
                _OPS[op](a, b)
            return
        assert_canonical(_OPS[op](a, b), _reference(op, a, b))

    @given(gaussians, st.integers(-5, 5))
    def test_pow_and_negative_pow(self, z, k):
        if k < 0 and not z:
            with pytest.raises(ZeroDivisionError):
                z**k
            return
        want = (Fraction(1), Fraction(0))
        base = z if k >= 0 else GaussianRational._of(*_reference("/", 1, z))
        for _ in range(abs(k)):
            want = _reference("*", GaussianRational._of(*want), base)
        assert_canonical(z**k, want)

    @given(gaussians)
    def test_unary(self, z):
        assert_canonical(-z, (-z.real, -z.imag))
        assert_canonical(z.conjugate(), (z.real, -z.imag))
        assert +z is z

    @given(st.one_of(small_fractions, st.integers(-30, 30)))
    def test_unit_circle_point(self, u):
        f = Fraction(u)
        d = 1 + f * f
        assert_canonical(rational_unit_circle(u), ((1 - f * f) / d, 2 * f / d))

    def test_constructor_normalises_user_input(self):
        assert_canonical(GaussianRational(3, "4/6"), (Fraction(3), Fraction(2, 3)))
        assert_canonical(GaussianRational(Fraction(-2, 4)), (Fraction(-1, 2), Fraction(0)))

    @pytest.fixture
    def init_calls(self, monkeypatch):
        """Every GaussianRational.__init__ call made while the test runs."""
        calls = []
        original = GaussianRational.__init__

        def counted(self, *args):
            calls.append(args)
            original(self, *args)

        monkeypatch.setattr(GaussianRational, "__init__", counted)
        return calls

    def test_arithmetic_calls_no_constructor(self, init_calls):
        a, b = GaussianRational(3, "1/2"), GaussianRational("-2/7", 5)
        init_calls.clear()
        for op in _OPS.values():
            op(a, b), op(a, 2), op(Fraction(1, 3), b)
        -a, a.conjugate(), a**5, a**-3, rational_unit_circle(Fraction(3, 8))
        assert init_calls == []

    def test_best_sample_calls_no_constructor(self, init_calls):
        spec = generate(GenRequest(n=6, kind=Kind.UNCONSTRAINED, seed=1, exact=True))
        t = trig_coeffs(spec)[1]
        init_calls.clear()
        x0, w0, t0 = _best_sample(spec, t)
        assert init_calls == []
        assert type(t0.real) is Fraction and type(w0.imag) is Fraction


class TestUnitCircle:
    def test_known_points(self):
        assert rational_unit_circle(Fraction(1, 2)) == GaussianRational("3/5", "4/5")
        assert rational_unit_circle(1) == GaussianRational(0, 1)
        assert rational_unit_circle(0) == GaussianRational(1)

    @given(small_fractions)
    def test_always_on_the_circle(self, u):
        assert abs_sq(rational_unit_circle(u)) == 1

    @given(small_fractions, small_fractions)
    def test_injective(self, u, v):
        if u != v:
            assert rational_unit_circle(u) != rational_unit_circle(v)


class TestScalarPolicy:
    def test_two_tolerance_fields(self):
        assert [f.name for f in fields(ScalarPolicy)] == ["eps_rel", "eps_abs_floor"]
        assert ScalarPolicy() == ScalarPolicy(1e-10, 1e-12)

    def test_threshold_floor(self):
        p = ScalarPolicy(1e-10, 1e-12)
        assert p.threshold(0.0) == 1e-12
        assert p.threshold(100.0) == 1e-8

    def test_exact_zero_is_literal(self):
        p = ScalarPolicy()
        assert p.is_zero(Fraction(0))
        assert p.is_zero(GaussianRational(0))
        assert not p.is_zero(Fraction(1, 10**12))

    def test_approx_zero_scales(self):
        p = ScalarPolicy(1e-10, 1e-12)
        assert p.is_zero(5e-9, scale=100.0)
        assert not p.is_zero(5e-9, scale=1.0)
        assert p.is_zero(1e-13)

    def test_equal(self):
        p = ScalarPolicy()
        assert p.equal(1.0 + 0j, 1.0 + 1e-13j, 1.0)
        assert not p.equal(1.0, 1.01, 1.0)
        assert ScalarPolicy().equal(Fraction(1, 3), Fraction(1, 3))

    def test_unit_modulus_exact(self):
        p = ScalarPolicy()
        assert p.is_unit_modulus(rational_unit_circle(Fraction(5, 7)))
        assert not p.is_unit_modulus(GaussianRational(1, 1))
        assert p.is_unit_modulus(Fraction(-1))

    def test_unit_modulus_approx(self):
        p = ScalarPolicy()
        assert p.is_unit_modulus(complex(math.cos(1.0), math.sin(1.0)))
        assert not p.is_unit_modulus(1.0001)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            ScalarPolicy(-1e-10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ScalarPolicy(bad)
        with pytest.raises(ValueError, match="finite"):
            ScalarPolicy(1e-10, bad)

    def test_value_type_picks_the_rule(self):
        loose = ScalarPolicy(0.5, 0.5)
        assert not loose.is_zero(Fraction(1, 4))
        assert not loose.is_zero(GaussianRational(0, Fraction(1, 4)))
        assert loose.is_zero(0.25) and loose.is_zero(0.25j)
        assert not loose.is_unit_modulus(Fraction(4, 5))
        assert loose.is_unit_modulus(0.8)

    @given(small_fractions)
    def test_unit_modulus_agrees_across_modes(self, u):
        w = rational_unit_circle(u)
        assert ScalarPolicy().is_unit_modulus(w)
        assert ScalarPolicy().is_unit_modulus(complex(w))


class TestJson:
    def test_exact_round_trip(self):
        z = GaussianRational("3/5", "-4/5")
        doc = scalar_to_json(z)
        assert doc == {"re": "3/5", "im": "-4/5"}
        assert scalar_from_json(doc) == z

    def test_fraction_encodes_as_strings(self):
        assert scalar_to_json(Fraction(-7, 3)) == {"re": "-7/3", "im": "0"}

    def test_approx_round_trip(self):
        doc = scalar_to_json(1.5 - 2.0j)
        assert doc == {"re": 1.5, "im": -2.0}
        assert scalar_from_json(doc) == 1.5 - 2.0j

    @pytest.mark.parametrize(
        "doc",
        [
            {"re": "1/2"},
            {"re": "1/2", "im": 0.5},
            {"re": 1, "im": "0"},
            {"re": True, "im": False},
            {"re": "nonsense", "im": "0"},
            {"real": "1", "imag": "0"},
            ["1", "0"],
            "1+0i",
        ],
    )
    def test_malformed_documents(self, doc):
        with pytest.raises(SpecFormatError):
            scalar_from_json(doc)

    def test_bool_scalar_rejected(self):
        with pytest.raises(TypeError):
            scalar_to_json(True)


class TestClearDenominators:
    @given(
        st.lists(
            st.one_of(gaussians, small_fractions, st.integers(-9, 9)), min_size=1, max_size=8
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_parts_over_one_denominator(self, values):
        re, im, lcm = clear_denominators(values)
        assert lcm >= 1 and len(re) == len(im) == len(values)
        for v, r, i in zip(values, re, im):
            assert type(r) is int and type(i) is int
            assert GaussianRational(r, i) == GaussianRational(v.real, v.imag) * lcm
        dens = [Fraction(x).denominator for v in values for x in (v.real, v.imag)]
        assert lcm == math.lcm(*dens)
