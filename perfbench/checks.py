"""Independent arithmetic and output checks for the toepnorm benchmark.

Nothing here imports toepnorm.  Exact values are (re, im) pairs of
Fractions; float values are built-in complex.  A spec record describes the
off-diagonal data the way the paper splits it: ``lower[k-1] = a_k`` and
``upper[k-1] = a_{-k}`` for k = 1..N.  Every ``check_*`` function returns a
list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# Tolerances for float outputs.  They are the benchmark's own and loose
# against the program's 1e-10 policy: a float output is wrong only if it
# misses by far more than rounding explains.
UNIT_TOL = 1e-9
STRUCT_TOL = 1e-9
IDENTITY_TOL = 1e-9

# The witness each constructed kind must produce, its real label, and the
# identity-16 factor that vanishes for it (p^2 - q^2 when q = +-p,
# p^2 - qr^2 when q = +-reversed(p)).
KIND_WITNESS = {
    "typeI": "type_I",
    "typeII": "type_II",
    "symmetric": "type_I",
    "skew-symmetric": "type_I",
    "circulant": "type_II",
    "skew-circulant": "type_II",
    "unconstrained": None,
}
KIND_LABEL = {
    "symmetric": "Symmetric",
    "skew-symmetric": "SkewSymmetric",
    "circulant": "Circulant",
    "skew-circulant": "SkewCirculant",
}
KIND_FACTOR = {
    "symmetric": "f1_is_zero",
    "skew-symmetric": "f1_is_zero",
    "circulant": "f2_is_zero",
    "skew-circulant": "f2_is_zero",
}
# Real label -> (source vector, sign): the label holds iff upper = sign * source.
LABEL_RULE = {
    "Symmetric": ("lower", 1),
    "SkewSymmetric": ("lower", -1),
    "Circulant": ("reversed", 1),
    "SkewCirculant": ("reversed", -1),
}


# ---------------------------------------------------------------- arithmetic

def qmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def qconj(a):
    return (a[0], -a[1])


def qabs2(a):
    return a[0] * a[0] + a[1] * a[1]


def to_pair(z):
    """Exact (re, im) pair of Fractions for an exact pair or a float."""
    if isinstance(z, tuple):
        return (Fraction(z[0]), Fraction(z[1]))
    z = complex(z)
    return (Fraction(z.real), Fraction(z.imag))


def full_diag(lower, upper):
    """a_{-N}..a_N with a_0 = 0, as exact pairs."""
    zero = (Fraction(0), Fraction(0))
    return [to_pair(z) for z in reversed(upper)] + [zero] + [to_pair(z) for z in lower]


def integer_diag(diag):
    """Gaussian-integer pairs after clearing denominators, and the factor."""
    den = math.lcm(*(x.denominator for z in diag for x in z))
    return [(int(re * den), int(im * den)) for re, im in diag], den


def commutator_entries(diag):
    """Entries of T T^H - T^H T over Gaussian integers, row by row.

    ``diag`` holds integer pairs a_{-N}..a_N with a_0 zero, and
    T[i][j] = a_{i-j}.  A generator, so a caller can stop at the first
    nonzero entry.
    """
    n = (len(diag) - 1) // 2
    dim = n + 1
    for i in range(dim):
        for j in range(dim):
            re = im = 0
            for k in range(dim):
                ar, ai = diag[i - k + n]  # T[i][k]
                br, bi = diag[j - k + n]  # T[j][k]
                re += ar * br + ai * bi
                im += ai * br - ar * bi
                cr, ci = diag[k - i + n]  # T[k][i]
                dr, di = diag[k - j + n]  # T[k][j]
                re -= cr * dr + ci * di
                im -= cr * di - ci * dr
            yield re, im


def commutator_is_zero(int_diag) -> bool:
    return all(re == 0 and im == 0 for re, im in commutator_entries(int_diag))


def commutator_frobenius_sq(lower, upper) -> Fraction:
    """Exact squared Frobenius norm of the commutator (a_0 forced to zero)."""
    ints, den = integer_diag(full_diag(lower, upper))
    total = sum(re * re + im * im for re, im in commutator_entries(ints))
    return Fraction(total, den ** 4)


def commutator_diagonal_max(lower, upper) -> Fraction:
    """max_i |C_ii| in exact arithmetic, in O(N) by prefix sums.

    C_ii is the squared norm of row i of T minus that of column i, that is
    sum_{d=i-N..i} |a_d|^2 - sum_{d=-i..N-i} |a_d|^2.  A nonzero value
    proves the commutator nonzero.
    """
    diag = full_diag(lower, upper)
    n = len(lower)
    prefix = [Fraction(0)]
    for z in diag:
        prefix.append(prefix[-1] + qabs2(z))

    def window(lo, hi):  # sum of |a_d|^2 over lo <= d <= hi, within -N..N
        lo, hi = max(lo, -n), min(hi, n)
        return prefix[hi + n + 1] - prefix[lo + n] if hi >= lo else Fraction(0)

    return max(abs(window(i - n, i) - window(-i, n - i)) for i in range(n + 1))


def residual(lower, upper, m, k):
    """The element-wise residual r(m, k) of the paper, exact, 1 <= m, k <= N.

    r(m, k) = a_m conj(a_k) - conj(a_{-m}) a_{-k}
              + conj(a_{N+1-m}) a_{N+1-k} - a_{-(N+1-m)} conj(a_{-(N+1-k)})
    """
    n = len(lower)

    def a(j):
        return to_pair(lower[j - 1] if j > 0 else upper[-j - 1])

    terms = (
        qmul(a(m), qconj(a(k))),
        qmul(qconj(a(-m)), a(-k)),
        qmul(qconj(a(n + 1 - m)), a(n + 1 - k)),
        qmul(a(-(n + 1 - m)), qconj(a(-(n + 1 - k)))),
    )
    return (
        terms[0][0] - terms[1][0] + terms[2][0] - terms[3][0],
        terms[0][1] - terms[1][1] + terms[2][1] - terms[3][1],
    )


def max_residual_sq(lower, upper) -> Fraction:
    n = len(lower)
    return max(
        qabs2(residual(lower, upper, m, k))
        for m in range(1, n + 1)
        for k in range(1, n + 1)
    )


def max_residual_abs_float(lower, upper) -> float:
    """max |r(m, k)| over all pairs, in complex floating point."""
    n = len(lower)
    pos = [None] + [complex(z) for z in lower]  # pos[j] = a_j
    neg = [None] + [complex(z) for z in upper]  # neg[j] = a_{-j}
    best = 0.0
    for m in range(1, n + 1):
        am, cam = pos[m], neg[m].conjugate()
        bm, dm = pos[n + 1 - m].conjugate(), neg[n + 1 - m]
        for k in range(1, n + 1):
            r = (am * pos[k].conjugate() - cam * neg[k]
                 + bm * pos[n + 1 - k] - dm * neg[n + 1 - k].conjugate())
            best = max(best, abs(r))
    return best


# ------------------------------------------------------ structure conditions

def magnitude(z) -> float:
    if isinstance(z, tuple):
        return math.hypot(float(z[0]), float(z[1]))
    return abs(z)


def _off_diag_scale(spec) -> float:
    return max(magnitude(z) for z in spec["lower"] + spec["upper"])


def _matches(spec, src, factor) -> bool:
    """Does upper = factor * src hold, exactly or within STRUCT_TOL?"""
    if spec["exact"]:
        return all(u == qmul(factor, s) for u, s in zip(spec["upper"], src))
    tol = STRUCT_TOL * _off_diag_scale(spec)
    return all(abs(u - factor * s) <= tol for u, s in zip(spec["upper"], src))


def structure_holds(spec, witness_name, w) -> bool:
    """Does upper = w * conj(lower) (type I) or w * reversed(lower) (type II)?"""
    lower = spec["lower"]
    if witness_name == "type_II":
        return _matches(spec, lower[::-1], w)
    conj = qconj if spec["exact"] else complex.conjugate
    return _matches(spec, [conj(z) for z in lower], w)


def label_holds(spec, label) -> bool:
    rule, sign = LABEL_RULE[label]
    src = spec["lower"] if rule == "lower" else spec["lower"][::-1]
    return _matches(spec, src, (Fraction(sign), Fraction(0)) if spec["exact"] else sign)


def is_unit(spec, w) -> bool:
    if spec["exact"]:
        return qabs2(w) == 1
    return abs(abs(w) ** 2 - 1.0) <= UNIT_TOL


def decode_scalar(obj, exact):
    """A witness as printed by the CLI: fraction strings or numbers."""
    if exact:
        return (Fraction(obj["re"]), Fraction(obj["im"]))
    return complex(obj["re"], obj["im"])


# ------------------------------------------------------------ output checks

def check_check(spec, doc) -> list:
    out = []
    if doc.get("normal") is not spec["normal"]:
        out.append(f"normal is {doc.get('normal')!r}, construction says {spec['normal']}")
    if doc.get("agrees") is not True:
        out.append("residual scan and dense oracle disagree")
    if doc.get("exact") is not spec["exact"] or doc.get("squared") is not spec["exact"]:
        out.append("exact/squared flags do not match the spec's domain")
    if out:
        return out
    pair = doc.get("worst_pair")
    if spec["exact"]:
        if spec["normal"]:
            if doc["max_residual"] != "0" or doc["oracle_norm"] != "0":
                out.append("normal exact spec with a nonzero residual or oracle norm")
        else:
            got = Fraction(doc["max_residual"])
            if got != spec["max_residual_sq"]:
                out.append(f"max_residual {got} != own {spec['max_residual_sq']}")
            elif qabs2(residual(spec["lower"], spec["upper"], *pair)) != got:
                out.append(f"worst_pair {pair} does not carry the max residual")
            if Fraction(doc["oracle_norm"]) != spec["frobenius_sq"]:
                out.append("oracle_norm differs from own commutator norm")
    elif not spec["normal"]:
        at_pair = math.sqrt(float(qabs2(residual(spec["lower"], spec["upper"], *pair))))
        if not math.isclose(at_pair, doc["max_residual"], rel_tol=1e-6):
            out.append(f"max_residual {doc['max_residual']} != own {at_pair} at {pair}")
        elif not math.isclose(spec["max_residual_abs"], doc["max_residual"], rel_tol=1e-6):
            out.append(f"worst_pair {pair} does not carry the max residual")
        if doc["oracle_norm"] < float(spec["diag_max"]) * (1 - 1e-9):
            out.append("oracle_norm below an own commutator entry")
    return out


def _check_side(spec, side, doc) -> list:
    out = []
    verdict = "Classified" if spec["normal"] else "NotNormal"
    if doc.get("verdict") != verdict:
        return [f"{side}: verdict {doc.get('verdict')!r}, construction says {verdict}"]
    if doc.get("degenerate") is not False:
        out.append(f"{side}: degenerate flag set on a nondegenerate spec")
    for name in ("type_I", "type_II"):
        raw = doc.get(name)
        if raw is None:
            if spec["normal"] and KIND_WITNESS[spec["kind"]] == name:
                out.append(f"{side}: constructed {name} witness missing")
            continue
        if not spec["normal"]:
            out.append(f"{side}: {name} witness on a non-normal spec")
            continue
        w = decode_scalar(raw, spec["exact"])
        if not is_unit(spec, w):
            out.append(f"{side}: {name} witness {raw} is not unit-modulus")
        elif not structure_holds(spec, name, w):
            out.append(f"{side}: {name} witness {raw} fails its structure condition")
    labels = doc.get("real_labels")
    if spec["kind"] in KIND_LABEL:
        labels = labels or []
        if spec["normal"] and KIND_LABEL[spec["kind"]] not in labels:
            out.append(f"{side}: real labels {labels} miss {KIND_LABEL[spec['kind']]}")
        for label in labels:
            if label not in LABEL_RULE or not label_holds(spec, label):
                out.append(f"{side}: real label {label} does not hold")
    elif labels is not None:
        out.append(f"{side}: real labels on a complex spec")
    return out


def check_classify(spec, doc) -> list:
    if doc.get("route") != "both" or doc.get("agree") is not True:
        return ["classify --route both did not report agree: true"]
    return _check_side(spec, "direct", doc["direct"]) + _check_side(spec, "proof", doc["proof"])


def check_identities(spec, doc) -> list:
    real = spec["kind"] in KIND_LABEL
    want = ["8", "9", "14", "16"] if real else ["8", "9"]
    if doc.get("which") != want or doc.get("n") != spec["n"]:
        return [f"identities report which={doc.get('which')} n={doc.get('n')}"]
    res = doc["results"]
    out = []
    if res["8"]["holds"] is not spec["normal"]:
        out.append(f"identity 8 holds={res['8']['holds']}, construction says {spec['normal']}")
    if not spec["normal"]:
        return out
    bound = IDENTITY_TOL * (spec["n"] * _off_diag_scale(spec)) ** 2
    if not res["8"]["max_sampled_abs"] <= bound:
        out.append(f"identity 8 sampled residual {res['8']['max_sampled_abs']}")
    if not res["9"]["max_abs"] <= bound:
        out.append(f"identity 9 residual {res['9']['max_abs']}")
    if real:
        if res["14"]["holds"] is not True:
            out.append("identity 14 fails on a normal real spec")
        r16 = res["16"]
        if r16["holds"] is not True or r16[KIND_FACTOR[spec["kind"]]] is not True:
            out.append(f"identity 16 {r16} misses the constructed factor")
    return out


# ------------------------------------------------------------------ census

GRIDS = {
    "gauss1": [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)],
    "int2": [(v, 0) for v in range(-2, 3)],
}


def _unit_ratio_exists(up, src) -> bool:
    """Is up = c * src for some Gaussian rational c with |c| = 1?"""
    pivot = next((k for k, s in enumerate(src) if s != (0, 0)), None)
    if pivot is None:
        return False
    p, q = up[pivot], src[pivot]
    if qabs2(p) != qabs2(q):
        return False
    return all(qmul(u, q) == qmul(p, s) for u, s in zip(up, src))


def census(n: int, grid: str, real: bool) -> dict:
    """The enumerate report, recomputed with the benchmark's own tests."""
    values = GRIDS[grid]
    normal = degenerate = 0
    histogram = {}
    zero = (0, 0)
    for combo in itertools.product(values, repeat=2 * n):
        diag = list(combo[:n]) + [zero] + list(combo[n:])
        if not commutator_is_zero(diag):
            continue
        normal += 1
        if all(z == zero for z in combo):
            degenerate += 1
            continue
        up = list(reversed(combo[:n]))
        lo = list(combo[n:])
        if real:
            rlo = list(reversed(lo))
            found = [
                label
                for label, (rule, sign) in LABEL_RULE.items()
                if up == [(sign * s[0], 0) for s in (lo if rule == "lower" else rlo)]
            ]
        else:
            found = []
            if _unit_ratio_exists(up, [qconj(z) for z in lo]):
                found.append("type_I")
            if _unit_ratio_exists(up, list(reversed(lo))):
                found.append("type_II")
        for key in found:
            histogram[key] = histogram.get(key, 0) + 1
    return {
        "total": len(values) ** (2 * n),
        "normal": normal,
        "classified": normal - degenerate,
        "degenerate": degenerate,
        "violations": [],
        "label_histogram": dict(sorted(histogram.items())),
    }


def check_census(expected: dict, doc) -> list:
    out = []
    for key, want in expected.items():
        if doc.get(key) != want:
            out.append(f"census {key} is {doc.get(key)!r}, own enumeration gives {want!r}")
    return out
