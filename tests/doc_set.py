"""Print a digest of every document in the CLI comparison set.

Each line is ``key sha256(exit code + stdout)``.  The set is ``check``,
``classify --route direct|proof|both`` and ``verify-identities --which all``
on ``generate`` specs of seven kinds, seeds 0-2, exact N in {1, 2, 3, 6, 12}
and float N in {1, 8, 64, 128}, plus the censuses ``enumerate --n 1 --values
gauss1`` and ``enumerate --n 2|3 --values int2 --real``: 948 documents.
Float documents are included, so compare runs made on one machine.

Compare two trees with one diff:

    PYTHONPATH=src python tests/doc_set.py > new.txt
    PYTHONPATH=/path/to/other/src python tests/doc_set.py > old.txt
    diff old.txt new.txt

Not a test module: pytest does not collect it.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from toepnorm import cli

KINDS = (
    "typeI",
    "typeII",
    "symmetric",
    "skew-symmetric",
    "circulant",
    "skew-circulant",
    "unconstrained",
)
SIZES = (("--exact", (1, 2, 3, 6, 12)), ("--float", (1, 8, 64, 128)))
COMMANDS = (
    ["check"],
    ["classify", "--route", "direct"],
    ["classify", "--route", "proof"],
    ["classify", "--route", "both"],
    ["verify-identities", "--which", "all"],
)
CENSUSES = (
    ["enumerate", "--n", "1", "--values", "gauss1"],
    ["enumerate", "--n", "2", "--values", "int2", "--real"],
    ["enumerate", "--n", "3", "--values", "int2", "--real"],
)


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


def _digest(code, out):
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def documents(spec_path: Path):
    """Yield (key, digest) for every document of the set, in a fixed order."""
    for domain, sizes in SIZES:
        for kind in KINDS:
            for seed in range(3):
                for n in sizes:
                    gen = ["generate", "--kind", kind, "--n", str(n), "--seed", str(seed)]
                    if domain == "--exact":
                        gen.append("--exact")
                    code, out = _run(gen)
                    if code != 0:
                        raise SystemExit(f"{' '.join(gen)} exited {code}")
                    spec_path.write_text(out)
                    for command in COMMANDS:
                        argv = [command[0], str(spec_path), *command[1:]]
                        key = " ".join(gen[1:] + ["|"] + command)
                        yield key.replace(" ", "_"), _digest(*_run(argv))
    for argv in CENSUSES:
        yield "_".join(argv), _digest(*_run(argv))


def main() -> int:
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for key, digest in documents(Path(tmp) / "spec.json"):
            print(key, digest)
            count += 1
    print(f"{count} documents", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
