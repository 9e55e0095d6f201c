"""Print a digest of every document in the CLI comparison set.

Each line is ``key sha256(exit code + stdout)``.  The set is ``check``,
``classify --route direct|proof|both`` and ``verify-identities --which all``
on ``generate`` specs of seven kinds, seeds 0-2, exact N in {1, 2, 3, 6, 12}
and float N in {1, 8, 64, 128}; ``check`` and ``classify --route direct`` on
exact specs of the same kinds and seeds at N in {24, 48}; ``verify-identities
--which all`` on float specs of the four real kinds, seeds 0-2, at N = 256;
``check`` and ``classify --route both`` on float typeI, symmetric and
unconstrained specs, seeds 0-1, at N in {300, 1000}, where the residual scan
runs in several row blocks, the last one short; all five commands on three hand-built exact specs whose cleared integers need
two or three limbs in the dense oracle; ``check`` and ``classify --route
direct`` on a hand-built N = 8 exact spec with 400-digit integers (59 limbs);
and the censuses ``enumerate --n 1|2|3 --values gauss1``, ``enumerate --n 2
--values int2`` and ``enumerate --n 2|3|4 --values int2 --real``: 1089
documents.  Float documents are included, and their bits depend on the BLAS
thread count, so the script pins BLAS to one thread before it imports
toepnorm; still compare runs made on one machine.  The whole output, whose
sha256 the script prints on stderr after the document count, hashes to
96056d36af4fc65a516119fdfb5178c895b4ef6c797b188f38e804fd389b3570 on a
2-core x86-64 machine with numpy 2.4.6 and its OpenBLAS 0.3.31.

Compare two trees with one diff:

    PYTHONPATH=src python tests/doc_set.py > new.txt
    PYTHONPATH=/path/to/other/src python tests/doc_set.py > old.txt
    diff old.txt new.txt

Not a test module: pytest does not collect it.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from toepnorm import cli  # noqa: E402  (after the BLAS thread pin)
from toepnorm.scalar import GaussianRational  # noqa: E402
from toepnorm.toeplitz import from_diagonals, spec_to_json  # noqa: E402

KINDS = (
    "typeI",
    "typeII",
    "symmetric",
    "skew-symmetric",
    "circulant",
    "skew-circulant",
    "unconstrained",
)
COMMANDS = (
    ["check"],
    ["classify", "--route", "direct"],
    ["classify", "--route", "proof"],
    ["classify", "--route", "both"],
    ["verify-identities", "--which", "all"],
)
SIZES = (
    ("--exact", (1, 2, 3, 6, 12), COMMANDS),
    ("--float", (1, 8, 64, 128), COMMANDS),
    ("--exact", (24, 48), COMMANDS[:2]),
)
REAL_KINDS = KINDS[2:6]
BLOCKED_KINDS = ("typeI", "symmetric", "unconstrained")

def _limb_specs():
    """Exact specs whose cleared integers exceed one oracle limb.

    A limb holds 24 bits at 2 <= n <= 4.  The symmetric spec (n = 2)
    clears to integers below 2^41, two limbs; the unconstrained one (n = 3)
    to integers below 2^66, three limbs; the type II one (n = 4,
    beta0 = (3+4i)/5) to integers below 2^42, two limbs.
    """
    sym = [Fraction(2**40 + 3, 7), Fraction(-(2**39) + 5, 3)]
    yield "symmetric_n2_2limbs", sym[::-1] + [0] + sym
    unc = [
        GaussianRational(Fraction(3**38, 3), Fraction(-(2**60), 5)),
        GaussianRational(Fraction(2**59 + 1, 7), 11),
        GaussianRational(-(5**25), Fraction(2**58, 3)),
    ]
    unc_upper = [
        GaussianRational(Fraction(-(7**21), 5), 2**57),
        GaussianRational(1, Fraction(-(3**36), 7)),
        GaussianRational(Fraction(2**60 - 1, 3), Fraction(5**26, 7)),
    ]
    yield "unconstrained_n3_3limbs", unc_upper[::-1] + [0] + unc
    beta = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    low = [
        GaussianRational(Fraction(2**35 + k, 11), Fraction(-(3**20) * k, 13))
        for k in range(1, 5)
    ]
    yield "typeII_n4_2limbs", [beta * z for z in low] + [0] + low


def _wide_spec():
    """A type II exact spec at n = 8 whose cleared integers have 400 digits."""
    beta = GaussianRational(Fraction(-4, 5), Fraction(3, 5))
    low = [
        GaussianRational(Fraction(10**399 * k + 3**k, 7), Fraction(-(3**838) + k, 11))
        for k in range(1, 9)
    ]
    return [beta * z for z in low] + [0] + low

CENSUSES = (
    ["enumerate", "--n", "1", "--values", "gauss1"],
    ["enumerate", "--n", "2", "--values", "int2", "--real"],
    ["enumerate", "--n", "3", "--values", "int2", "--real"],
    ["enumerate", "--n", "2", "--values", "gauss1"],
    ["enumerate", "--n", "2", "--values", "int2"],
    ["enumerate", "--n", "3", "--values", "gauss1"],
    ["enumerate", "--n", "4", "--values", "int2", "--real"],
)


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


def _digest(code, out):
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def _commands(spec_path: Path, prefix, commands):
    for command in commands:
        argv = [command[0], str(spec_path), *command[1:]]
        key = " ".join(prefix + ["|"] + command)
        yield key.replace(" ", "_"), _digest(*_run(argv))


def _generated(spec_path: Path, domain, kinds, sizes, commands, seeds=range(3)):
    for kind in kinds:
        for seed in seeds:
            for n in sizes:
                gen = ["generate", "--kind", kind, "--n", str(n), "--seed", str(seed)]
                if domain == "--exact":
                    gen.append("--exact")
                code, out = _run(gen)
                if code != 0:
                    raise SystemExit(f"{' '.join(gen)} exited {code}")
                spec_path.write_text(out)
                yield from _commands(spec_path, gen[1:], commands)


def _hand_built(spec_path: Path, name, diag, commands):
    spec_path.write_text(json.dumps(spec_to_json(from_diagonals(diag))))
    yield from _commands(spec_path, [name], commands)


def documents(spec_path: Path):
    """Yield (key, digest) for every document of the set, in a fixed order."""
    for domain, sizes, commands in SIZES:
        yield from _generated(spec_path, domain, KINDS, sizes, commands)
    yield from _generated(spec_path, "--float", REAL_KINDS, (256,), COMMANDS[4:])
    yield from _generated(
        spec_path, "--float", BLOCKED_KINDS, (300, 1000), (COMMANDS[0], COMMANDS[3]), range(2)
    )
    for name, diag in _limb_specs():
        yield from _hand_built(spec_path, name, diag, COMMANDS)
    yield from _hand_built(spec_path, "typeII_n8_400digits", _wide_spec(), COMMANDS[:2])
    for argv in CENSUSES:
        yield "_".join(argv), _digest(*_run(argv))


def main() -> int:
    count, listing = 0, hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for key, digest in documents(Path(tmp) / "spec.json"):
            line = f"{key} {digest}"
            print(line)
            listing.update(f"{line}\n".encode())
            count += 1
    print(f"{count} documents, sha256 {listing.hexdigest()}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
