"""Exact-domain CLI documents stay byte-for-byte the same.

``golden/exact_documents.json`` maps each command below to the sha256 of
its exit code and stdout: every exact document of ``tests/doc_set.py``
that involves no float sampling.  Float documents and ``verify-identities``
are left out: their last bits depend on the BLAS build.  The manifest lists
the first 170 documents first, so their order never moved as more were
added.  Rebuild it, only when a document is meant to change, with
``PYTHONPATH=src python tests/test_exact_documents.py``.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from doc_set import CENSUSES, KINDS, _limb_specs, _wide_spec
from toepnorm import cli
from toepnorm.toeplitz import from_diagonals, spec_to_json

MANIFEST = Path(__file__).parent / "golden" / "exact_documents.json"

CHECK = ["check"]
DIRECT = ["classify", "--route", "direct"]
PROOF = ["classify", "--route", "proof"]
BOTH = ["classify", "--route", "both"]


def _run(argv, capture):
    code = cli.main(argv)
    return code, capture()


def _digest(code, out):
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def _generated(capture, spec_path, sizes, commands):
    for kind in KINDS:
        for seed in range(3):
            for n in sizes:
                gen = ["generate", "--kind", kind, "--n", str(n), "--seed", str(seed), "--exact"]
                for command in commands:
                    code, out = _run(gen, capture)
                    assert code == 0, gen
                    spec_path.write_text(out)
                    argv = [command[0], str(spec_path), *command[1:]]
                    key = " ".join(gen[1:] + ["|"] + command)
                    yield key, _digest(*_run(argv, capture))


def _hand_built(capture, spec_path, name, diag, commands):
    spec_path.write_text(json.dumps(spec_to_json(from_diagonals(diag))))
    for command in commands:
        argv = [command[0], str(spec_path), *command[1:]]
        yield f"{name} | {' '.join(command)}", _digest(*_run(argv, capture))


def _censuses(capture, censuses):
    for argv in censuses:
        yield " ".join(argv), _digest(*_run(argv, capture))


def documents(capture, spec_path):
    """Yield (key, digest) for every pinned command, in manifest order."""
    small = (1, 2, 3, 6)
    yield from _generated(capture, spec_path, small, (CHECK, BOTH))
    yield from _censuses(capture, CENSUSES[:2])
    yield from _generated(capture, spec_path, small, (DIRECT, PROOF))
    yield from _generated(capture, spec_path, (12,), (CHECK, DIRECT, PROOF, BOTH))
    yield from _generated(capture, spec_path, (24, 48), (CHECK, DIRECT))
    for name, diag in _limb_specs():
        yield from _hand_built(capture, spec_path, name, diag, (CHECK, DIRECT, PROOF, BOTH))
    wide = ("typeII_n8_400digits", _wide_spec())
    yield from _hand_built(capture, spec_path, *wide, (CHECK, DIRECT))
    yield from _censuses(capture, CENSUSES[2:])


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
