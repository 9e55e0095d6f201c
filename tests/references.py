"""Reference forms of the package's quantities, for the tests only.

Each is written straight from its definition and shares as little as it can
with the kernels the tests check against it.  Not a test module: pytest
does not collect it.
"""

from fractions import Fraction

from toepnorm.polyid import eval_at_point, trig_coeffs
from toepnorm.scalar import GaussianRational
from toepnorm.toeplitz import ToeplitzSpec, _commutator_int, _commutator_np


def entry(spec: ToeplitzSpec, k):
    """The diagonal value a_k, -n <= k <= n."""
    if not -spec.n <= k <= spec.n:
        raise ValueError(f"diagonal index {k} out of range for n={spec.n}")
    return spec.diag[k + spec.n]


def residual(spec: ToeplitzSpec, m: int, n: int):
    """Single residual r(m, n); indices must satisfy 1 <= m, n <= N.

    Written straight from the formula; it is the reference the scan is
    tested against.
    """
    N = spec.n
    if not (1 <= m <= N and 1 <= n <= N):
        raise ValueError(f"residual indices must lie in 1..{N}, got ({m}, {n})")

    def e(k):
        return entry(spec, k)

    return (
        e(m) * e(n).conjugate()
        - e(-m).conjugate() * e(-n)
        + e(N + 1 - m).conjugate() * e(N + 1 - n)
        - e(-(N + 1 - m)) * e(-(N + 1 - n)).conjugate()
    )


def materialize(spec: ToeplitzSpec) -> list:
    """Dense (N+1)x(N+1) matrix with M[i][j] = a_{i-j} (stored a_0 included)."""
    n = spec.n
    return [[spec.diag[i - j + n] for j in range(spec.dim)] for i in range(spec.dim)]


def _commutator_exact(spec: ToeplitzSpec) -> list:
    flat, den = _commutator_int(spec)
    width = 2 * spec.dim
    rows = [flat[i : i + width] for i in range(0, len(flat), width)]
    if spec.is_real:
        return [[Fraction(r, den) for r in row[::2]] for row in rows]
    return [
        [
            GaussianRational._of(Fraction(r, den), Fraction(i, den))
            for r, i in zip(row[::2], row[1::2])
        ]
        for row in rows
    ]


def commutator(spec: ToeplitzSpec) -> list:
    """Dense T*T^H - T^H*T with a_0 forced to zero, as the oracle computes it."""
    if spec.is_exact:
        return _commutator_exact(spec)
    return _commutator_np(spec).tolist()


def identity8_residual_at_points(spec: ToeplitzSpec, w, z):
    """polyid.identity8_residual at unit-circle scalars; exact for exact w, z."""
    s, t = trig_coeffs(spec)
    sw, sz = eval_at_point(s, w), eval_at_point(s, z)
    tw, tz = eval_at_point(t, w), eval_at_point(t, z)
    phase = (w * z.conjugate()) ** (spec.n + 1)
    return (
        sw * sz.conjugate()
        - tw.conjugate() * tz
        + (sw.conjugate() * sz - tw * tz.conjugate()) * phase
    )
