"""Spec construction, the dense matrix, the commutator oracle, JSON codecs."""

import json
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from toepnorm import toeplitz
from toepnorm.genlab import GenRequest, Kind, generate, perturb
from toepnorm.scalar import GaussianRational, SpecFormatError, scalar_from_json
from toepnorm.toeplitz import (
    ToeplitzSpec,
    commutator_norm,
    from_diagonals,
    spec_from_json,
    spec_to_json,
)
from references import commutator, dense, entry, materialize

small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=4)

# Float values whose parts spread over 2^-60..2^60.
spread_parts = st.builds(
    lambda m, e: m * 2.0**e, st.floats(-2, 2, allow_subnormal=False), st.integers(-60, 60)
)
spread_complex = st.builds(complex, spread_parts, spread_parts)


def exact_diags(n):
    count = 2 * n + 1
    return st.lists(
        st.builds(GaussianRational, small_fractions, small_fractions),
        min_size=count,
        max_size=count,
    )


class TestConstruction:
    def test_int_entries_become_fractions(self):
        spec = from_diagonals([2, 0, 1])
        assert spec.n == 1
        assert spec.diag == (Fraction(2), Fraction(0), Fraction(1))
        assert spec.is_exact and spec.is_real

    def test_any_float_forces_approx(self):
        spec = from_diagonals([2, 0.0, 1])
        assert spec.diag == (2 + 0j, 0j, 1 + 0j)
        assert not spec.is_exact

    def test_mixed_int_gaussian_promotes(self):
        spec = from_diagonals([GaussianRational(0, 1), 0, 2])
        assert all(isinstance(z, GaussianRational) for z in spec.diag)
        assert spec.is_exact and not spec.is_real

    def test_real_gaussians_demote_to_fractions(self):
        spec = from_diagonals([GaussianRational(2), GaussianRational(0), 1])
        assert spec.diag == (Fraction(2), Fraction(0), Fraction(1))
        assert spec.is_real

    def test_canonical_entries_kept_as_they_are(self):
        half, unit = Fraction(1, 2), GaussianRational(0, 1)
        assert from_diagonals([half, 0, half]).diag[0] is half
        assert from_diagonals([unit, 0, half]).diag[0] is unit

    def test_real_gaussian_keeps_its_fraction(self):
        doc = {"re": "3/4", "im": "0"}
        spec = spec_from_json({"n": 1, "diag": [doc, doc, doc]})
        decoded = scalar_from_json(doc)
        assert type(decoded.real) is Fraction and type(decoded.imag) is Fraction
        assert spec.diag == (Fraction(3, 4),) * 3
        assert all(type(z) is Fraction for z in spec.diag)
        real_half = GaussianRational(Fraction(1, 2))
        assert from_diagonals([real_half, 0, real_half]).diag[0] is real_half.real

    @pytest.mark.parametrize("bad", [[], [1], [1, 2], [1, 2, 3, 4]])
    def test_bad_lengths(self, bad):
        with pytest.raises(SpecFormatError):
            from_diagonals(bad)

    @pytest.mark.parametrize("entry", [True, "1/2", None, [1]])
    def test_bad_entries(self, entry):
        with pytest.raises(SpecFormatError):
            from_diagonals([1, entry, 1])

    @pytest.mark.parametrize(
        "bad, match",
        [
            (math.inf, "non-finite entry"),
            (complex(0, -math.inf), "non-finite entry"),
            (math.nan, "non-finite entry"),
            (1e200, "too large"),
            (-1e200, "too large"),
            (10**400, "beyond float range"),
        ],
    )
    @pytest.mark.parametrize("where", [0, 2])  # a_-1, a_1
    def test_float_entries_the_analyses_cannot_take(self, bad, where, match):
        diag = [1.0, 0.0, 1.0]
        diag[where] = bad
        with pytest.raises(SpecFormatError, match=match):
            from_diagonals(diag)

    def test_a0_is_outside_the_range_check(self):
        assert from_diagonals([1.0, 1e200, 1.0]).a0 == 1e200 + 0j
        for bad in (math.nan, math.inf, 10**400):
            with pytest.raises(SpecFormatError):
                from_diagonals([1.0, bad, 1.0])

    def test_as_approx_refuses_what_from_diagonals_refuses(self):
        with pytest.raises(SpecFormatError, match="beyond float range"):
            from_diagonals([10**400, 0, 1]).as_approx()
        with pytest.raises(SpecFormatError, match="too large"):
            from_diagonals([10**200, 0, 1]).as_approx()
        assert from_diagonals([1, 10**200, 1]).as_approx().a0 == 1e200 + 0j

    def test_direct_dataclass_validation(self):
        with pytest.raises(ValueError):
            ToeplitzSpec(0, (Fraction(0),))
        with pytest.raises(ValueError):
            ToeplitzSpec(2, (Fraction(0),) * 3)


class TestAccessors:
    def test_entry_and_views(self, type1_spec):
        s = type1_spec
        assert s.dim == 3
        assert s.a0 == 0
        assert entry(s, 2) == 2
        assert entry(s, -2) == GaussianRational(0, 2)
        assert s.lower == (GaussianRational(1), GaussianRational(2))
        assert s.upper == (GaussianRational(0, 1), GaussianRational(0, 2))
        with pytest.raises(ValueError):
            entry(s, 3)

    def test_max_abs_skips_a0(self):
        spec = from_diagonals([1, 100, 2])
        assert spec.max_abs == 2.0

    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.one_of(
                st.lists(spread_complex, min_size=2 * n + 1, max_size=2 * n + 1),
                st.lists(small_fractions, min_size=2 * n + 1, max_size=2 * n + 1),
                exact_diags(n),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_max_abs_is_the_same_number_once(self, diag):
        """The cached max_abs is float(max |a_k|, k != 0) bit for bit, computed once per spec."""
        spec = from_diagonals(diag)
        n = spec.n
        want = float(max(abs(spec.diag[k]) for k in range(2 * n + 1) if k != n))
        got = spec.max_abs
        assert type(got) is float and got.hex() == want.hex()
        assert spec.max_abs is got

    def test_as_approx(self, fraction_spec):
        twin = fraction_spec.as_approx()
        assert not twin.is_exact
        assert twin.diag == (2 + 0j, 0j, 1 + 0j)

    def test_materialize_includes_stored_a0(self):
        m = materialize(from_diagonals([2, 5, 1]))
        assert m == [[Fraction(5), Fraction(2)], [Fraction(1), Fraction(5)]]


class TestCommutator:
    def test_known_commutator(self, fraction_spec):
        assert commutator(fraction_spec) == [
            [Fraction(3), Fraction(0)],
            [Fraction(0), Fraction(-3)],
        ]

    def test_known_norm_exact(self, fraction_spec):
        assert commutator_norm(fraction_spec) == Fraction(18)

    def test_known_norm_approx(self, fraction_spec_approx):
        norm = commutator_norm(fraction_spec_approx)
        assert isinstance(norm, float)
        assert norm == pytest.approx(18**0.5)

    def test_normal_spec_commutes(self, type1_spec):
        c = commutator(type1_spec)
        assert all(z == 0 for row in c for z in row)
        assert commutator_norm(type1_spec) == 0

    def test_stored_a0_does_not_matter(self):
        base = commutator(from_diagonals([2, 0, 1]))
        shifted = commutator(from_diagonals([2, 7, 1]))
        assert base == shifted

    @given(exact_diags(2))
    @settings(max_examples=40, deadline=None)
    def test_exact_matches_dense_float(self, diag):
        spec = from_diagonals(diag)
        got = np.array(
            [[complex(z) for z in row] for row in commutator(spec)]
        )
        want = np.array(
            [[complex(z) for z in row] for row in commutator(spec.as_approx())]
        )
        assert np.allclose(got, want, atol=1e-9)

    @given(exact_diags(3), small_fractions, small_fractions)
    @settings(max_examples=25, deadline=None)
    def test_a0_invariance(self, diag, a, b):
        spec_a = from_diagonals(diag[:3] + [GaussianRational(a, b)] + diag[4:])
        spec_b = from_diagonals(diag[:3] + [GaussianRational(b, a)] + diag[4:])
        assert commutator(spec_a) == commutator(spec_b)


def reference_commutator_int(spec):
    """Integer commutator grids (re, im, L^2), by the triple loop over ints."""
    dre, dim_, lcm = spec.cleared
    n, dim = spec.n, spec.dim
    out_re = []
    out_im = []
    for i in range(dim):
        row_re = []
        row_im = []
        for j in range(dim):
            acc_re = 0
            acc_im = 0
            for k in range(dim):
                xr, xi = dre[i - k + n], dim_[i - k + n]
                yr, yi = dre[j - k + n], dim_[j - k + n]
                acc_re += xr * yr + xi * yi
                acc_im += xi * yr - xr * yi
                ur, ui = dre[k - i + n], dim_[k - i + n]
                vr, vi = dre[k - j + n], dim_[k - j + n]
                acc_re -= ur * vr + ui * vi
                acc_im -= ur * vi - ui * vr
            row_re.append(acc_re)
            row_im.append(acc_im)
        out_re.append(row_re)
        out_im.append(row_im)
    return out_re, out_im, lcm * lcm


def reference_commutator(spec):
    out_re, out_im, den = reference_commutator_int(spec)
    if spec.is_real:
        return [[Fraction(r, den) for r in row] for row in out_re]
    return [
        [GaussianRational(Fraction(r, den), Fraction(i, den)) for r, i in zip(rr, ri)]
        for rr, ri in zip(out_re, out_im)
    ]


def reference_norm(spec):
    out_re, out_im, den = reference_commutator_int(spec)
    total = sum(r * r + i * i for rr, ri in zip(out_re, out_im) for r, i in zip(rr, ri))
    return Fraction(total, den * den)


def limb_bits(n):
    """Bits per oracle limb: k = floor((53 - ceil(log2 4(N+1))) / 2)."""
    return (53 - math.ceil(math.log2(4 * (n + 1)))) // 2


def assert_matches_reference(spec):
    got, want = commutator(spec), reference_commutator(spec)
    assert got == want
    assert [type(z) for row in got for z in row] == [type(z) for row in want for z in row]
    norm = commutator_norm(spec)
    assert type(norm) is Fraction and norm == reference_norm(spec)


big_numerators = st.one_of(st.integers(-20, 20), st.integers(-(2**90), 2**90))
denominators = st.sampled_from([1, 1, 2, 3, 7, 12, 35])
big_fractions = st.builds(Fraction, big_numerators, denominators)


@st.composite
def big_exact_specs(draw):
    n = draw(st.integers(1, 16))
    part = big_fractions if draw(st.booleans()) else st.builds(
        GaussianRational, big_fractions, big_fractions
    )
    return from_diagonals(draw(st.lists(part, min_size=2 * n + 1, max_size=2 * n + 1)))


class TestExactOracle:
    """The BLAS oracle against the triple loop over Python ints."""

    @given(big_exact_specs())
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_loop(self, spec):
        assert_matches_reference(spec)

    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("excess, limb_pairs", [(0, 1), (1, 4)])
    def test_largest_single_limb_and_one_above(
        self, monkeypatch, n, complex_, excess, limb_pairs
    ):
        # S limbs make S^2 pairs (s, t), but comm(A_t, A_s) = comm(A_s, A_t)^H,
        # so only the S(S+1)/2 pairs with s <= t take a dense product.
        limbs = math.isqrt(limb_pairs)
        products = limbs * (limbs + 1) // 2
        big = 2 ** limb_bits(n) - 1 + excess
        calls = []
        original = toeplitz._comm

        def counted(a, b):
            calls.append(1)
            return original(a, b)

        monkeypatch.setattr(toeplitz, "_comm", counted)
        lower = [big] + list(range(1, n))
        upper = [1 - big] + [-2 * k for k in range(1, n)]
        if complex_:
            lower = [GaussianRational(x, -big if k == 0 else k) for k, x in enumerate(lower)]
        spec = from_diagonals(upper[::-1] + [0] + lower)
        assert max(map(abs, spec.cleared[0] + spec.cleared[1])) == big
        assert_matches_reference(spec)
        assert len(calls) == 2 * products  # commutator and commutator_norm

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 100, 4095, 4096])
    def test_limb_bits(self, n):
        assert toeplitz._limb_bits(n) == limb_bits(n)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_400_digit_entries_56_limbs(self, complex_):
        lower = [Fraction(10**399 + 7, 3), Fraction(-(3**838), 7)]
        upper = [Fraction(-(10**399) * 3 + 1, 7), Fraction(2**1320 + 5, 3)]
        if complex_:
            lower = [GaussianRational(x, -y) for x, y in zip(lower, upper)]
        spec = from_diagonals(upper[::-1] + [0] + lower)
        bits = max(map(abs, spec.cleared[0] + spec.cleared[1])).bit_length()
        assert -(-bits // limb_bits(2)) == 56
        flat, den = toeplitz._commutator_int(spec)
        want_re, want_im, want_den = reference_commutator_int(spec)
        assert den == want_den
        assert flat[::2] == [x for row in want_re for x in row]
        assert flat[1::2] == [x for row in want_im for x in row]
        assert_matches_reference(spec)

    def test_group_sum_flushes_before_int64_overflow(self):
        # Terms h of a 2x2 matrix at +-(2^53 - 1); each group adds its
        # conjugate transpose, so a group of 1023 terms would overflow int64.
        top = 2**53 - 1
        rng = np.random.default_rng(0)
        terms = [
            np.concatenate(([top, -top], rng.choice([-top, top], size=6))) for _ in range(1100)
        ]
        d = np.array([top, 0, -top, top, -top, -top, top, 0])
        mirror = [0, 1, 4, 5, 2, 3, 6, 7]  # (i, j) <-> (j, i) in re, im pairs
        sign = [1, -1] * 4
        want = [
            int(d[i]) + sum(int(t[i]) + sign[i] * int(t[mirror[i]]) for t in terms)
            for i in range(8)
        ]
        got = toeplitz._group_sum(iter(terms), 2, d)
        assert got == want and all(type(x) is int for x in got)


def int_commutator(a, b):
    """a b^H - b^H a in int64 from the parts of integer-valued a and b: (re, im).

    The two-product form, exact while every partial sum stays below 2^63.
    """
    ar, ai = a.real.astype(np.int64), a.imag.astype(np.int64)
    br, bi = b.real.astype(np.int64), b.imag.astype(np.int64)
    brt, bit = br.swapaxes(-1, -2), bi.swapaxes(-1, -2)
    re = ar @ brt + ai @ bit - (brt @ ar + bit @ ai)
    im = ai @ brt - ar @ bit - (brt @ ai - bit @ ar)
    return re, im


@st.composite
def limb_matrices(draw):
    """(a, b): dense Toeplitz matrices of integer parts up to one oracle limb.

    Unstacked, in small stacks, or in a census block of 256; complex128, or
    float64 like a real census; b drawn apart from a, or a itself.  A third
    of the parts sit at the limb's extremes +-(2^k - 1).
    """
    n = draw(st.integers(1, 40))
    stack = draw(st.sampled_from([(), (3,), (2, 2), (256,)]))
    real = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    big = 2 ** toeplitz._limb_bits(n) - 1
    shape = stack + (2 * n + 1,)

    def diagonals():
        parts = rng.integers(-big, big, endpoint=True, size=(2,) + shape)
        edge = rng.random(parts.shape) < 1 / 3
        parts[edge] = big * rng.choice([-1, 1], size=int(edge.sum()))
        d = parts[0].astype(float) if real else parts[0] + 1j * parts[1]
        return toeplitz._dense_np(np.ascontiguousarray(d), n)

    a = diagonals()
    return a, (a if draw(st.booleans()) else diagonals())


class TestOneProductCommutator:
    """_comm's one product p - J p^T J against the two-product form."""

    @given(limb_matrices())
    @settings(max_examples=60, deadline=None)
    def test_exact_on_limb_matrices(self, ab):
        a, b = ab
        got = toeplitz._comm(a, b)
        re, im = int_commutator(a, b)
        assert got.dtype == a.dtype and got.shape == a.shape
        assert (got.real == re).all() and (got.imag == im).all()


class TestFloatOracleBits:
    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.lists(
                st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
                min_size=2 * n + 1,
                max_size=2 * n + 1,
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_norm_is_dense_product_norm(self, entries):
        self.assert_bits(from_diagonals(entries))

    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("n", [1, 8, 64, 128])
    def test_generated_specs(self, kind, n):
        self.assert_bits(generate(GenRequest(n=n, kind=kind, seed=n)))

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_stacked_rows_are_single_commutators_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        d = rng.standard_normal((5, 2 * n + 1)) + 1j * rng.standard_normal((5, 2 * n + 1))
        t = toeplitz._dense_np(d, n)
        stacked = toeplitz._comm(t, t)
        for row, diag in zip(stacked, d):
            single = toeplitz._dense_np(diag, n)
            assert row.tobytes() == toeplitz._comm(single, single).tobytes()

    @given(st.lists(exact_diags(2), min_size=1, max_size=3))
    @settings(max_examples=20, deadline=None)
    def test_stacked_exact_values_give_the_exact_commutator(self, diags):
        specs = [from_diagonals(diag[:2] + [0] + diag[3:]) for diag in diags]
        d = np.array([spec.diag for spec in specs], dtype=object)
        t = toeplitz._dense_np(d, 2)
        for row, spec in zip(toeplitz._comm(t, t), specs):
            assert row.tolist() == reference_commutator(spec)

    @staticmethod
    def assert_bits(spec):
        t = dense(spec)
        if not t.imag.any():
            t = t.real.copy()
        p = t @ t.conj().T
        one = np.linalg.norm(p - p.T[::-1, ::-1])
        got = commutator_norm(spec)
        assert got == float(one)
        two = float(np.linalg.norm(np.array(commutator(spec))))
        assert abs(got - two) <= apart_by_rounding(spec, two)


U = 2.0**-53


def gamma(m):
    return m * U / (1 - m * U)


def rounding_bound(spec, norm):
    """commutator_norm's bound on |x - ||C||_F| for a float spec, given ||C||_F.

    gamma_(m+2) ||C||_F + (1 + gamma_(m+2)) 7 (N+1)^3 u A^2, m = (N+1)^2,
    plus (N+1) 2^-536 for underflow, which the docstring excludes: that
    covers 2m squares that each lose less than 2^-1074, and much more
    than the underflow of the products.
    """
    dim, a = spec.dim, spec.max_abs
    g = gamma(dim * dim + 2)
    return g * norm + (1 + g) * 7 * dim**3 * U * a * a + dim * 2.0**-536


def apart_by_rounding(spec, y):
    """How far two values that each meet :func:`rounding_bound` may lie apart,
    given one of them, y: both lie within the bound of ||C||_F <= y + bound."""
    dim = spec.dim
    g = gamma(dim * dim + 2)
    norm = (y + rounding_bound(spec, 0.0)) / (1 - g)
    return 2 * rounding_bound(spec, norm)


def exact_twin(spec):
    """The exact spec of a float spec's values (every float is a dyadic rational)."""
    return from_diagonals(
        [GaussianRational(Fraction(z.real), Fraction(z.imag)) for z in spec.diag]
    )


class TestFloatOracleBound:
    """commutator_norm's docstring bound, against the exact commutator."""

    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("n", [1, 8, 64])
    @pytest.mark.parametrize("bump", [0.0, 1e-9])
    def test_generated_specs(self, kind, n, bump):
        spec = generate(GenRequest(n=n, kind=kind, seed=n))
        if bump:
            spec = perturb(spec, bump, seed=n)
        exact = math.sqrt(commutator_norm(exact_twin(spec)))  # within 2u of ||C||_F
        got = commutator_norm(spec)
        assert abs(got - exact) <= rounding_bound(spec, exact) + 2 * U * exact

    @given(st.integers(1, 12).flatmap(lambda n: st.lists(spread_complex, min_size=2 * n + 1, max_size=2 * n + 1)))
    @settings(max_examples=40, deadline=None)
    def test_spread_exponents(self, entries):
        spec = from_diagonals(entries)
        exact = math.sqrt(commutator_norm(exact_twin(spec)))
        assert abs(commutator_norm(spec) - exact) <= rounding_bound(spec, exact) + 2 * U * exact


class TestJson:
    def test_exact_round_trip(self, type1_spec):
        doc = spec_to_json(type1_spec)
        assert doc["n"] == 2
        assert doc["diag"][0] == {"re": "0", "im": "2"}
        back = spec_from_json(doc)
        assert back.n == type1_spec.n and back.diag == type1_spec.diag

    def test_approx_round_trip(self):
        spec = from_diagonals([2.0, 0.5j, 1.0])
        back = spec_from_json(spec_to_json(spec))
        assert back.diag == spec.diag

    def test_real_exact_round_trip(self, fraction_spec):
        back = spec_from_json(spec_to_json(fraction_spec))
        assert back.diag == fraction_spec.diag
        assert back.is_real

    @pytest.mark.parametrize(
        "doc",
        [
            {"diag": []},
            {"n": 1},
            {"n": 1, "diag": [], "extra": 1},
            {"n": 2, "diag": [{"re": "1", "im": "0"}] * 3},
            {"n": 1, "diag": [{"re": "1", "im": "0"}, {"re": 0.0, "im": 0.0}, {"re": "1", "im": "0"}]},
            {"n": 1, "diag": "nope"},
            17,
        ],
    )
    def test_malformed_documents(self, doc):
        with pytest.raises(SpecFormatError):
            spec_from_json(doc)


def reference_spec_from_json(obj):
    """The per-entry decoder: scalar_from_json on each entry, then from_diagonals."""
    if not isinstance(obj, dict) or set(obj) != {"n", "diag"}:
        raise SpecFormatError("spec must be an object with keys n and diag")
    n, diag = obj["n"], obj["diag"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SpecFormatError(f"n must be a positive integer, got {n!r}")
    if not isinstance(diag, list) or len(diag) != 2 * n + 1:
        raise SpecFormatError(f"diag must list exactly {2 * n + 1} scalars")
    entries = [scalar_from_json(e) for e in diag]
    if len({isinstance(e, complex) for e in entries}) > 1:
        raise SpecFormatError("diag mixes exact and floating entries")
    if isinstance(entries[0], complex):
        problem = toeplitz._float_range_problem(n, entries)
        if problem:
            raise SpecFormatError(problem)
    return from_diagonals(entries)


def decoded(decode, doc):
    """(n, entries as exact types and float bits) or the error text."""
    try:
        spec = decode(doc)
    except SpecFormatError as exc:
        return "error", str(exc)
    bits = [
        (z.real.hex(), z.imag.hex()) if isinstance(z, complex) else (type(z), z)
        for z in spec.diag
    ]
    return spec.n, [type(z) for z in spec.diag], bits


fraction_strings = st.one_of(
    st.fractions(max_denominator=50).map(str),
    st.integers(-(10**30), 10**30).map(str),
    st.sampled_from(["0", "-0", "0.5", "-1.25e3", " 3/4 ", "+7", "1e-5"]),
)
json_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e30, max_value=1e30),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0.0, -0.0, 0, 5e-324, -2.5e-310]),
)
BAD_ENTRIES = [
    {"re": 1.0},
    {"im": "1"},
    {"re": 1.0, "im": 0.0, "x": 0},
    {"re": True, "im": 0.0},
    {"re": "1", "im": False},
    {"re": "1", "im": 0.0},
    {"re": 0, "im": "1/2"},
    {"re": float("nan"), "im": 0.0},
    {"re": 0.0, "im": float("-inf")},
    {"re": float("inf"), "im": 1},
    {"re": 10**400, "im": 0},
    {"re": 1, "im": -(2**1024)},
    {"re": "1/0", "im": "0"},
    {"re": "abc", "im": "0"},
    {"re": None, "im": None},
    {"re": [1], "im": [0]},
    {"re": 1e200, "im": 0.0},
    {"re": "1", "im": "0"},
    {"re": 1.0, "im": 0.0},
    None,
    [1.0, 0.0],
    "1/2",
    3.5,
    True,
]


@st.composite
def spec_documents(draw):
    """A valid float or exact document, with up to three entries replaced."""
    n = draw(st.integers(1, 6))
    parts = draw(st.sampled_from([fraction_strings, json_numbers]))
    diag = [
        {"re": draw(parts), "im": draw(parts)} for _ in range(2 * n + 1)
    ]
    if draw(st.booleans()):
        imag_free = draw(st.booleans())
        for e in diag:
            e["im"] = "0" if isinstance(e["re"], str) else 0.0 if imag_free else e["im"]
    for _ in range(draw(st.integers(0, 3))):
        diag[draw(st.integers(0, 2 * n))] = draw(st.sampled_from(BAD_ENTRIES))
    if draw(st.integers(0, 9)) == 0:
        diag = diag[: draw(st.integers(0, 2 * n))] if draw(st.booleans()) else diag + [diag[0]]
    return {"n": n, "diag": diag}


class TestBulkDecode:
    """spec_from_json against the per-entry decoder it replaced."""

    @given(spec_documents())
    @settings(max_examples=600, deadline=None)
    def test_same_spec_or_same_error(self, doc):
        assert decoded(spec_from_json, doc) == decoded(reference_spec_from_json, doc)

    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("exact", [False, True])
    def test_generated_documents(self, kind, exact):
        spec = generate(GenRequest(n=40, kind=kind, seed=3, exact=exact))
        doc = json.loads(json.dumps(spec_to_json(spec)))
        got = decoded(spec_from_json, doc)
        assert got == decoded(reference_spec_from_json, doc)
        assert got[1] == [type(z) for z in spec.diag]

    def test_a0_is_outside_the_range_check(self):
        big = {"re": 1e200, "im": 0.0}
        small = {"re": 1.0, "im": 0.0}
        spec = spec_from_json({"n": 1, "diag": [small, big, small]})
        assert spec.a0 == 1e200 + 0j
        with pytest.raises(SpecFormatError, match="too large"):
            spec_from_json({"n": 1, "diag": [small, small, big]})

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"re": math.nan, "im": 0.0}, "non-finite number in scalar: {'re': nan, 'im': 0.0}"),
            ({"re": 0.0, "im": -math.inf}, "non-finite number in scalar: {'re': 0.0, 'im': -inf}"),
            (
                {"re": 1e200, "im": 0.0},
                "float entries too large for n=1: largest component 1e+200 exceeds 2.89e+76",
            ),
            (
                {"re": 10**400, "im": 0},
                f"number out of float range in scalar: {{'re': {10**400}, 'im': 0}}",
            ),
        ],
    )
    def test_float_refusals_keep_their_messages(self, entry, message):
        """The decoder's own messages, unchanged by from_diagonals refusing the same values."""
        one = {"re": 1.0, "im": 0.0}
        with pytest.raises(SpecFormatError) as info:
            spec_from_json({"n": 1, "diag": [entry, one, one]})
        assert str(info.value) == message

    def test_first_bad_entry_names_the_error(self):
        doc = {"n": 1, "diag": [{"re": "1", "im": "0"}, {"re": "1/0", "im": "0"}, None]}
        with pytest.raises(SpecFormatError, match="bad fraction string"):
            spec_from_json(doc)
        doc["diag"][1] = {"re": 1.0, "im": 0.0}
        with pytest.raises(SpecFormatError, match="keys re/im"):
            spec_from_json(doc)


mixed_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=12)


def _cleared_reference(spec):
    """L = lcm of the off-diagonal denominators, computed with Fractions."""
    parts = [z.real for k, z in enumerate(spec.diag) if k != spec.n]
    parts += [z.imag for k, z in enumerate(spec.diag) if k != spec.n]
    return math.lcm(*(Fraction(x).denominator for x in parts))


class TestClearedForm:
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.one_of(
                st.lists(mixed_fractions, min_size=2 * n + 1, max_size=2 * n + 1),
                st.lists(
                    st.builds(GaussianRational, mixed_fractions, mixed_fractions),
                    min_size=2 * n + 1,
                    max_size=2 * n + 1,
                ),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_cleared_parts_are_entries_times_lcm(self, entries):
        spec = from_diagonals(entries)
        re, im, lcm = spec.cleared
        assert lcm == _cleared_reference(spec)
        assert isinstance(re, tuple) and isinstance(im, tuple)
        assert len(re) == len(im) == len(spec.diag)
        for k, z in enumerate(spec.diag):
            if k == spec.n:
                assert re[k] == im[k] == 0
            else:
                assert type(re[k]) is int and re[k] == z.real * lcm
                assert type(im[k]) is int and im[k] == z.imag * lcm

    def test_built_once_per_spec(self):
        spec = from_diagonals([GaussianRational(1, 2), 5, Fraction(1, 3)])
        assert spec.cleared is spec.cleared
        assert spec.cleared == ((3, 0, 1), (6, 0, 0), 3)

    @pytest.mark.parametrize(
        "entries, dtype, want",
        [
            ([1 + 2j, 3.5, -4j], complex, [1 + 2j, 0j, -4j]),
            ([GaussianRational(1, 2), 5, Fraction(1, 3)], complex, [3 + 6j, 0j, 1 + 0j]),
            ([2**40, 5, -1], object, [2**40, 0, -1]),
            ([GaussianRational(2**40, 1), 5, 1], object, [GaussianRational(2**40, 1), 0, 1]),
            ([complex(1, -0.0), 3.5 + 2j, -4.0], float, [1.0, 0.0, -4.0]),
            ([Fraction(1, 2), 5, 3], float, [1.0, 0.0, 6.0]),
        ],
    )
    def test_array_holds_the_cleared_integers(self, entries, dtype, want):
        """One read-only array per spec, a_0 = 0: floats, or the cleared integers.

        float64 when no off-diagonal imaginary part is nonzero, whatever the
        sign of a zero or a_0's imaginary part.
        """
        spec = from_diagonals(entries)
        assert spec.array is spec.array and not spec.array.flags.writeable
        assert spec.array.dtype == dtype and spec.array.tolist() == want
