"""Exact-domain CLI documents stay byte-for-byte the same.

``golden/exact_documents.json`` maps each command below to the sha256 of
its exit code and stdout.  Float documents are left out: their last bits
depend on the BLAS build.  Rebuild the manifest, only when a document is
meant to change, with ``PYTHONPATH=src python tests/test_exact_documents.py``.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from toepnorm import cli

MANIFEST = Path(__file__).parent / "golden" / "exact_documents.json"

KINDS = (
    "typeI",
    "typeII",
    "symmetric",
    "skew-symmetric",
    "circulant",
    "skew-circulant",
    "unconstrained",
)


def _spec_commands():
    for kind in KINDS:
        for seed in range(3):
            for n in (1, 2, 3, 6):
                gen = ["generate", "--kind", kind, "--n", str(n), "--seed", str(seed), "--exact"]
                yield gen, ["check"]
                yield gen, ["classify", "--route", "both"]


CENSUSES = (
    ["enumerate", "--n", "1", "--values", "gauss1"],
    ["enumerate", "--n", "2", "--values", "int2", "--real"],
)


def _run(argv, capture):
    code = cli.main(argv)
    return code, capture()


def _digest(code, out):
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def documents(capture, spec_path):
    """Yield (key, digest) for every pinned command, in manifest order."""
    for gen, command in _spec_commands():
        code, out = _run(gen, capture)
        assert code == 0, gen
        spec_path.write_text(out)
        argv = [command[0], str(spec_path), *command[1:]]
        key = " ".join(gen[1:] + ["|"] + command)
        yield key, _digest(*_run(argv, capture))
    for argv in CENSUSES:
        yield " ".join(argv), _digest(*_run(argv, capture))


def test_exact_documents_match_manifest(tmp_path, capsys):
    expected = json.loads(MANIFEST.read_text())
    got = dict(documents(lambda: capsys.readouterr().out, tmp_path / "spec.json"))
    assert list(got) == list(expected)
    changed = [key for key in got if got[key] != expected[key]]
    assert not changed, changed


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    buf = io.StringIO()

    def capture():
        out = buf.getvalue()
        buf.seek(0)
        buf.truncate()
        return out

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(buf):
        manifest = dict(documents(capture, Path(tmp) / "spec.json"))
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {len(manifest)} digests to {MANIFEST}", file=sys.stderr)
