"""Element-wise residual test, its Hermitian structure, the dual check."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from toepnorm import normality
from toepnorm.classify import classify_complex, classify_real, classify_via_proof
from toepnorm.genlab import GenRequest, Kind, generate, perturb
from toepnorm.normality import (
    check,
    fast_max_residual,
    is_normal,
    report_to_json,
    residual_scale,
)
from toepnorm.scalar import GaussianRational, ScalarPolicy, abs_sq
from toepnorm.toeplitz import ToeplitzSpec, commutator_norm, from_diagonals
from references import _max_exact, residual

small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=4)
quarters = st.integers(-32, 32).map(lambda k: Fraction(k, 4))


def exact_specs(n, parts=small_fractions):
    count = 2 * n + 1
    return st.lists(
        st.builds(GaussianRational, parts, parts),
        min_size=count,
        max_size=count,
    ).map(from_diagonals)


def real_specs(n):
    count = 2 * n + 1
    return st.lists(small_fractions, min_size=count, max_size=count).map(from_diagonals)


def all_residuals(spec):
    return {
        (m, n): residual(spec, m, n)
        for m in range(1, spec.n + 1)
        for n in range(1, spec.n + 1)
    }


def brute_force_max(spec):
    """Largest residual magnitude (squared when exact) and its first pair."""
    size = abs_sq if spec.is_exact else np.abs
    best, pair = 0, (1, 1)
    for (m, n), r in sorted(all_residuals(spec).items()):
        if size(r) > best:
            best, pair = size(r), (m, n)
    return best, pair


def test_known_residual(fraction_spec):
    assert residual(fraction_spec, 1, 1) == Fraction(-6)


def test_known_residual_approx(fraction_spec_approx):
    assert residual(fraction_spec_approx, 1, 1) == pytest.approx(-6.0)


def test_residual_index_bounds(fraction_spec):
    for m, n in [(0, 1), (1, 0), (2, 1), (1, 2), (-1, 1)]:
        with pytest.raises(ValueError):
            residual(fraction_spec, m, n)


# a_1 = 1+2i, a_2 = 3, a_-1 = -i, a_-2 = 2-i, and every residual by hand.
HAND_SPEC = [GaussianRational(2, -1), GaussianRational(0, -1), 0, GaussianRational(1, 2), 3]
HAND_TABLE = {
    (1, 1): GaussianRational(8),
    (1, 2): GaussianRational(4, 8),
    (2, 1): GaussianRational(4, -8),
    (2, 2): GaussianRational(8),
}


def test_table_matches_pointwise():
    spec = from_diagonals(HAND_SPEC)
    assert all_residuals(spec) == HAND_TABLE
    assert fast_max_residual(spec) == (Fraction(80), (1, 2))


def test_table_approx_matches_pointwise():
    spec = from_diagonals(HAND_SPEC).as_approx()
    table = all_residuals(spec)
    for pair, value in HAND_TABLE.items():
        assert table[pair] == pytest.approx(complex(value), abs=1e-12)
    value, pair = fast_max_residual(spec)
    assert value == pytest.approx(80**0.5) and pair == (1, 2)


class TestStackedTable:
    """_table_np with a leading stack axis, as the census calls it."""

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_rows_are_single_tables_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        d = rng.standard_normal((6, 2 * n + 1)) + 1j * rng.standard_normal((6, 2 * n + 1))
        stacked = normality._table_np(d[:, n + 1 :], d[:, n - 1 :: -1])
        for row, diag in zip(stacked, d):
            lo, up = diag[n + 1 :], diag[n - 1 :: -1]
            rlo, rup = lo[::-1], up[::-1]
            outer = (
                np.outer(lo, lo.conj())
                - np.outer(up.conj(), up)
                + np.outer(rlo.conj(), rlo)
                - np.outer(rup, rup.conj())
            )
            assert row.tobytes() == outer.tobytes()

    @given(st.lists(exact_specs(2), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_exact_values_give_exact_residuals(self, specs):
        d = np.array([spec.diag for spec in specs], dtype=object)
        stacked = normality._table_np(d[:, 3:], d[:, 1::-1])
        for table, spec in zip(stacked, specs):
            got = {(m + 1, k + 1): z for (m, k), z in np.ndenumerate(table)}
            assert got == all_residuals(spec)


@given(exact_specs(3))
@settings(max_examples=40, deadline=None)
def test_table_is_hermitian_exact(spec):
    table = all_residuals(spec)
    for (m, n), r in table.items():
        assert r == table[n, m].conjugate()


@given(exact_specs(3))
@settings(max_examples=25, deadline=None)
def test_table_approx_is_hermitian_to_rounding(spec):
    table = all_residuals(spec.as_approx())
    scale = max(spec.n * spec.max_abs ** 2, 1e-30)
    for (m, n), r in table.items():
        assert abs(r - table[n, m].conjugate()) <= 1e-13 * scale


@given(exact_specs(2), small_fractions)
@settings(max_examples=25, deadline=None)
def test_stored_a0_never_enters(spec, a0):
    moved = from_diagonals(
        spec.diag[: spec.n] + (GaussianRational(a0, a0),) + spec.diag[spec.n + 1 :]
    )
    assert all_residuals(moved) == all_residuals(spec)
    assert fast_max_residual(moved) == fast_max_residual(spec)
    assert fast_max_residual(moved.as_approx()) == fast_max_residual(spec.as_approx())


@given(st.integers(1, 4).flatmap(exact_specs))
@settings(max_examples=60, deadline=None)
def test_scan_is_brute_force_max_exact_complex(spec):
    assert fast_max_residual(spec) == brute_force_max(spec)


@given(st.integers(1, 4).flatmap(real_specs))
@settings(max_examples=60, deadline=None)
def test_scan_is_brute_force_max_exact_real(spec):
    assert fast_max_residual(spec) == brute_force_max(spec)


@given(st.integers(1, 4).flatmap(lambda n: exact_specs(n, quarters)))
@settings(max_examples=60, deadline=None)
def test_scan_is_brute_force_max_float(spec):
    # Quarter-integer entries keep every float product and sum exact, so
    # both sides see identical residuals; the magnitudes use numpy's abs
    # on both, so the tie rule is comparable too.
    approx = spec.as_approx()
    assert fast_max_residual(approx) == brute_force_max(approx)


@st.composite
def exact_scan_specs(draw):
    """Exact specs of four kinds for the scan against :func:`_max_exact`.

    Generated specs of every kind up to N = 300, so the scan crosses row
    blocks; {-1, 0, 1} grids, real or Gaussian, full of ties; Gaussian
    entries whose cleared parts need two or more limbs, so the scan runs on
    an object array; and all-zero specs with any a_0.
    """
    kind = draw(st.sampled_from(["generated", "grid", "wide", "zero"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "generated":
        n = draw(st.integers(1, 300))
        spec = generate(GenRequest(n=n, kind=draw(st.sampled_from(list(Kind))), seed=rng.randrange(100), exact=True))
        if draw(st.booleans()):  # one residual row and column off zero
            diag = list(spec.diag)
            diag[rng.randrange(2 * n + 1)] += Fraction(1, 12)
            spec = from_diagonals(diag)
        return spec
    if kind == "grid":
        n = draw(st.integers(1, 300))
        unit = draw(st.sampled_from([1, GaussianRational(0, 1)]))
        return from_diagonals([rng.choice((-1, 0, 1)) + rng.choice((0, unit)) for _ in range(2 * n + 1)])
    if kind == "wide":
        n = draw(st.integers(1, 24))
        bits = draw(st.integers(26, 120))
        spec = from_diagonals(
            [GaussianRational(rng.randrange(-(2**bits), 2**bits), rng.randrange(-3, 4)) for _ in range(2 * n + 1)]
        )
        assume(spec.array.dtype == object)
        return spec
    n = draw(st.integers(1, 300))
    return from_diagonals([0] * n + [rng.choice((0, 1, GaussianRational(2, 3)))] + [0] * n)


@given(exact_scan_specs())
@settings(max_examples=80, deadline=None)
def test_exact_scan_is_the_reference_scan(spec):
    value, pair = fast_max_residual(spec)
    assert (value, pair) == _max_exact(spec)
    assert type(value) is Fraction


class TestFastMax:
    def test_exact_reports_square(self, fraction_spec):
        value, pair = fast_max_residual(fraction_spec)
        assert value == Fraction(36)
        assert pair == (1, 1)

    def test_approx_reports_magnitude(self, fraction_spec_approx):
        value, pair = fast_max_residual(fraction_spec_approx)
        assert value == pytest.approx(6.0)
        assert pair == (1, 1)

    def test_zero_for_normal(self, type1_spec):
        value, pair = fast_max_residual(type1_spec)
        assert value == 0
        assert pair == (1, 1)

    def test_tie_takes_first_row_major(self):
        # The residuals are Hermitian, so the (1,3)/(3,1) max ties; the scan
        # must settle on the row-major first of the two.
        spec = from_diagonals([2, 0, 0, 0, 1, 0, 2])
        assert abs(residual(spec, 1, 3)) == abs(residual(spec, 3, 1)) == 4
        value, pair = fast_max_residual(spec)
        assert value == Fraction(16)
        assert pair == (1, 3)
        value, pair = fast_max_residual(spec.as_approx())
        assert value == 4.0
        assert pair == (1, 3)


class TestExactPick:
    """normality._pick_exact on hand-made blocks of Gaussian integers."""

    def test_python_ints_decide_what_float_rounds_together(self):
        # |2^52|^2 = 2^104 and |2^52 + i|^2 = 2^104 + 1 are one float.
        block = np.array([[2.0**52, 2.0**52 + 1j]])
        assert (block.real**2 + block.imag**2).tolist() == [[2.0**104, 2.0**104]]
        assert normality._pick_exact(block, 0) == (2**104 + 1, 1)
        assert normality._pick_exact(block[:, ::-1].copy(), 0) == (2**104 + 1, 0)
        assert normality._pick_exact(block, 2**104 + 1) is None

    def test_zero_and_object_blocks(self):
        assert normality._pick_exact(np.zeros((2, 3), complex), 0) is None
        block = np.array([[2**70, GaussianRational(3, -4), GaussianRational(0, 2**70)]], dtype=object)
        assert normality._pick_exact(block, 0) == (2**140, 0)
        assert normality._pick_exact(block, 2**140) is None


def full_table_max(spec):
    """The float scan over the whole table at once, as it ran before row blocks."""
    lo, up = np.asarray(spec.lower, complex), np.asarray(spec.upper, complex)
    rlo, rup = lo[::-1], up[::-1]
    mags = np.abs(
        lo[:, None] * lo.conj()[None, :]
        - up.conj()[:, None] * up[None, :]
        + rlo.conj()[:, None] * rlo[None, :]
        - rup[:, None] * rup.conj()[None, :]
    )
    flat = int(np.argmax(mags))
    m, n = divmod(flat, spec.n)
    return float(mags.flat[flat]), (m + 1, n + 1)


def assert_scan_is_full_table(spec):
    (value, pair), (want, want_pair) = fast_max_residual(spec), full_table_max(spec)
    assert value.hex() == want.hex() and pair == want_pair


@st.composite
def float_scan_specs(draw, sizes=st.integers(1, 300)):
    """Generated float specs of every kind, maybe perturbed, scaled by 2^k."""
    n = draw(sizes)
    spec = generate(GenRequest(n=n, kind=draw(st.sampled_from(list(Kind))), seed=draw(st.integers(0, 99))))
    if draw(st.booleans()):
        spec = perturb(spec, draw(st.sampled_from([1e-14, 1e-9, 1e-3])), seed=draw(st.integers(0, 9)))
    scale = 2.0 ** draw(st.integers(-200, 200))
    return from_diagonals([z * scale for z in spec.diag])


def block_spec(lower, exact):
    """The spec with a_1..a_N = ``lower`` and zeros elsewhere, exact or float."""
    n = len(lower)
    return from_diagonals([0] * (n + 1) + (lower if exact else [float(x) for x in lower]))


def assert_scan_is_reference(spec):
    if spec.is_exact:
        assert fast_max_residual(spec) == _max_exact(spec)
    else:
        assert_scan_is_full_table(spec)


class TestBlockedScan:
    """The scan in row blocks against one float pass over the whole table, or _max_exact."""

    @given(float_scan_specs())
    @settings(max_examples=120, deadline=None)
    def test_equals_full_table(self, spec):
        assert_scan_is_full_table(spec)

    @given(float_scan_specs(st.sampled_from([64, 65, 127, 128, 129, 300])))
    @settings(max_examples=40, deadline=None)
    def test_equals_full_table_on_ragged_blocks(self, spec):
        assert_scan_is_full_table(spec)

    @pytest.mark.parametrize(
        "n, p, exact",
        [
            pytest.param(n, p, exact, id=f"{n}-{p}" + ("-exact" if exact else ""))
            for exact in (False, True)
            for n, p in [(65, 2), (100, 30), (129, 31), (300, 13)]
        ],
    )
    def test_tie_across_a_block_boundary_keeps_the_first(self, n, p, exact):
        # Only a_p is nonzero, so the table is zero but for r(p, p) = 1 and
        # r(N+1-p, N+1-p) = 1, which lie in different row blocks.
        lower = [0] * n
        lower[p - 1] = 1
        spec = block_spec(lower, exact)
        height = max(1, 4096 // n)
        assert (p - 1) // height != (n - p) // height
        assert fast_max_residual(spec) == (1, (p, p))
        assert_scan_is_reference(spec)

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_larger_value_in_a_later_block_wins(self, exact):
        n = 100
        lower = [0] * n
        # Rows 1-40 peak at |r(30, 50)| = 2; |r(50, 50)| = 4 in rows 41-80
        # wins (16 and 4 as exact squares).
        lower[29], lower[49] = 1, 2
        spec = block_spec(lower, exact)
        assert fast_max_residual(spec) == ((16, (50, 50)) if exact else (4.0, (50, 50)))
        assert_scan_is_reference(spec)

    @pytest.mark.parametrize("n", [65, 200])
    def test_nan_in_a_later_block_is_reported_like_argmax(self, n):
        rng = np.random.default_rng(n)
        diag = list(rng.standard_normal(2 * n + 1) + 0j)
        diag[2 * n] = complex("nan")  # a_N: rows 1 and N, columns 1 and N
        diag[n - 1] = 0j
        spec = ToeplitzSpec(n, tuple(map(complex, diag)))  # from_diagonals refuses NaN
        (value, pair), (want, want_pair) = fast_max_residual(spec), full_table_max(spec)
        assert np.isnan(value) and np.isnan(want) and pair == want_pair

    @pytest.mark.parametrize("n, calls, rows", [(64, 1, 64), (128, 4, 32), (129, 5, 31), (5000, 5000, 1)])
    def test_no_block_holds_more_than_4096_entries(self, monkeypatch, n, calls, rows):
        seen = []
        original = normality._table_np

        def recorded(lo, up, rows=slice(None)):
            table = original(lo, up, rows)
            seen.append(table.shape)
            return table

        monkeypatch.setattr(normality, "_table_np", recorded)
        rng = np.random.default_rng(n)
        spec = from_diagonals(list(rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)))
        fast_max_residual(spec)
        assert len(seen) == calls
        assert seen[0] == (rows, n) and sum(r for r, _ in seen) == n
        assert all(r * c <= max(4096, n) for r, c in seen)

    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_row_slices_are_rows_of_the_whole_table(self, n):
        rng = np.random.default_rng(n)
        d = rng.standard_normal((3, 2 * n + 1)) + 1j * rng.standard_normal((3, 2 * n + 1))
        lo, up = d[:, n + 1 :], d[:, n - 1 :: -1]
        whole = normality._table_np(lo, up)
        for start in range(0, n, 3):
            part = normality._table_np(lo, up, slice(start, start + 3))
            assert part.tobytes() == np.ascontiguousarray(whole[:, start : start + 3]).tobytes()


@st.composite
def real_float_specs(draw):
    """Float specs whose off-diagonal entries are real, with imaginary parts
    +0.0, and maybe a complex a_0; and the indices of some off-diagonal
    entries to flip to -0.0."""
    spec = draw(float_scan_specs(st.integers(1, 140)))
    entries = [complex(z.real, 0.0) for z in spec.diag]
    if draw(st.booleans()):
        entries[spec.n] = complex(draw(st.floats(-4, 4)), draw(st.floats(-4, 4)))
    off = [k for k in range(len(entries)) if k != spec.n]
    return from_diagonals(entries), draw(st.lists(st.sampled_from(off), min_size=1, unique=True))


@given(real_float_specs())
@settings(max_examples=80, deadline=None)
def test_real_float_scan_keeps_the_complex_scan_bits(case):
    """A real float spec runs on float64 whatever the signs of its zero
    imaginary parts, and its scan is the complex128 full table's, bit for bit.

    Flipping zeros to -0.0 leaves the array's bytes, the scan's value and
    pair and the oracle's value unchanged.
    """
    spec, flips = case
    entries = list(spec.diag)
    for k in flips:
        entries[k] = complex(entries[k].real, -0.0)
    flipped = from_diagonals(entries)
    assert spec.array.dtype == flipped.array.dtype == float
    assert spec.array.tobytes() == flipped.array.tobytes()
    assert_scan_is_full_table(spec)
    (value, pair), (want, want_pair) = fast_max_residual(flipped), fast_max_residual(spec)
    assert value.hex() == want.hex() and pair == want_pair
    assert commutator_norm(flipped).hex() == commutator_norm(spec).hex()


class TestOneScanPerSpec:
    @pytest.mark.parametrize("exact", [True, False])
    def test_every_verdict_reads_one_scan(self, monkeypatch, exact):
        """check, the classifiers and is_normal on one spec object run the kernel once.

        An equal spec object scans again, and the kernel itself never caches.
        """
        calls = []

        def counted(spec, _original=normality.fast_max_residual):
            calls.append(spec)
            return _original(spec)

        monkeypatch.setattr(normality, "fast_max_residual", counted)
        spec = generate(GenRequest(n=5, kind=Kind.SYMMETRIC, seed=2, exact=exact))
        policy = ScalarPolicy()
        report = check(spec, policy)
        results = [
            classify_complex(spec, policy),
            classify_real(spec, policy),
            classify_via_proof(spec, policy)[0],
        ]
        for res in results:
            scan = res.normality
            assert (scan.max_residual, scan.worst_pair) == (report.max_residual, report.worst_pair)
            assert scan.is_normal_fast and scan.oracle_norm is None and scan.agrees is None
        assert is_normal(spec, policy) and report.agrees
        twin = from_diagonals(spec.diag)
        assert is_normal(twin, policy)
        assert normality.fast_max_residual(spec) == (report.max_residual, report.worst_pair)
        assert [id(s) for s in calls] == [id(spec), id(twin), id(spec)]


class TestCheck:
    def test_not_normal_exact(self, fraction_spec):
        report = check(fraction_spec, ScalarPolicy())
        assert not report.is_normal_fast
        assert report.max_residual == Fraction(36)
        assert report.oracle_norm == Fraction(18)
        assert report.exact and report.agrees

    def test_normal_exact(self, type1_spec):
        report = check(type1_spec, ScalarPolicy())
        assert report.is_normal_fast
        assert report.max_residual == 0
        assert report.oracle_norm == 0
        assert report.agrees

    def test_not_normal_approx(self, fraction_spec_approx):
        report = check(fraction_spec_approx, ScalarPolicy())
        assert not report.is_normal_fast
        assert report.max_residual == pytest.approx(6.0)
        assert report.oracle_norm == pytest.approx(18**0.5)
        assert not report.exact
        assert report.agrees

    def test_normal_approx_generated(self):
        spec = generate(GenRequest(n=6, kind=Kind.TYPE_II, seed=3))
        report = check(spec, ScalarPolicy())
        assert report.is_normal_fast and report.agrees

    def test_oracle_agrees_on_perturbed_type1(self):
        # A normal verdict holds the oracle's Frobenius norm over (N+1)^2
        # entries to N(N+1)/2 * tau, not to the per-residual tau itself.
        policy = ScalarPolicy()
        for seed in range(50):
            spec = perturb(generate(GenRequest(n=8, kind=Kind.TYPE_I, seed=seed)), 1e-10, seed)
            assert check(spec, policy).agrees, seed

    @given(
        st.sampled_from(list(Kind)),
        st.integers(1, 10),
        st.integers(0, 2**31),
        st.integers(6, 14),
    )
    @settings(max_examples=60, deadline=None)
    def test_oracle_agrees_across_the_threshold(self, kind, n, seed, digits):
        spec = perturb(generate(GenRequest(n=n, kind=kind, seed=seed)), 10.0**-digits, seed)
        assert check(spec, ScalarPolicy()).agrees

    def test_report_json_exact(self, fraction_spec):
        doc = report_to_json(check(fraction_spec, ScalarPolicy()))
        assert doc == {
            "normal": False,
            "max_residual": "36",
            "worst_pair": [1, 1],
            "oracle_norm": "18",
            "squared": True,
            "agrees": True,
            "exact": True,
        }

    def test_report_json_approx_types(self, type1_spec_approx):
        doc = report_to_json(check(type1_spec_approx, ScalarPolicy()))
        assert doc["normal"] is True
        assert isinstance(doc["max_residual"], float)
        assert isinstance(doc["oracle_norm"], float)
        assert doc["squared"] is False

    def test_threshold_on_residual_scale(self, fraction_spec, fraction_spec_approx):
        # One residual of magnitude 6 at scale N * max|a_k|^2 = 4.
        assert residual_scale(fraction_spec) == 0.0
        assert residual_scale(fraction_spec_approx) == 4.0
        for eps, normal in ((1.5, True), (1.4, False)):
            policy = ScalarPolicy(eps)
            assert is_normal(fraction_spec_approx, policy) is normal
            assert check(fraction_spec_approx, policy).is_normal_fast is normal
        # An exact spec is judged literally, whatever the tolerances.
        assert not is_normal(fraction_spec, ScalarPolicy(1.5))
        assert not check(fraction_spec, ScalarPolicy(1.5)).is_normal_fast

    @given(exact_specs(2))
    @settings(max_examples=30, deadline=None)
    def test_routes_agree_on_random_exact(self, spec):
        assert check(spec, ScalarPolicy()).agrees
