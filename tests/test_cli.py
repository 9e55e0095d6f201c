"""Command line behavior: exit codes, JSON documents, tolerance plumbing."""

import importlib
import io
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from toepnorm import classify, cli, genlab, normality, scalar, toeplitz
from toepnorm.classify import (
    ClassificationResult,
    TheoremViolation,
    Verdict,
    classify_complex,
)
from toepnorm.genlab import GenRequest, Kind, generate, perturb
from toepnorm.scalar import GaussianRational, ScalarPolicy
from toepnorm.toeplitz import _FLOAT_RANGE, from_diagonals, spec_from_json, spec_to_json
from doc_set import _wide_spec

GOLDEN = Path(__file__).parent / "golden"

FRACTION_DOC = {
    "n": 1,
    "diag": [
        {"re": "2", "im": "0"},
        {"re": "0", "im": "0"},
        {"re": "1", "im": "0"},
    ],
}

TYPE1_DOC = {
    "n": 2,
    "diag": [
        {"re": "0", "im": "2"},
        {"re": "0", "im": "1"},
        {"re": "0", "im": "0"},
        {"re": "1", "im": "0"},
        {"re": "2", "im": "0"},
    ],
}


@pytest.fixture
def spec_file(tmp_path):
    def write(doc, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def diagnostic(err):
    """The one line on stderr, which holds no traceback."""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1, err
    return lines[0]


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out else None
    return code, doc, captured.err


class TestCheck:
    def test_not_normal_document(self, spec_file, capsys):
        code, doc, err = run_cli(["check", spec_file(FRACTION_DOC)], capsys)
        assert code == 0
        assert doc == json.loads((GOLDEN / "check_fraction.json").read_text())
        assert err == ""

    def test_normal_document(self, spec_file, capsys):
        code, doc, _ = run_cli(["check", spec_file(TYPE1_DOC)], capsys)
        assert code == 0
        assert doc["normal"] is True and doc["agrees"] is True

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(TYPE1_DOC)))
        code, doc, _ = run_cli(["check", "-"], capsys)
        assert code == 0 and doc["normal"] is True

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["check", "/no/such/file.json"], capsys)
        assert code == 2 and "cannot read" in err

    def test_not_json(self, spec_file, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{half a document")
        code, _, err = run_cli(["check", str(path)], capsys)
        assert code == 2 and "not JSON" in err

    def test_wrong_shape(self, spec_file, capsys):
        code, _, _ = run_cli(["check", spec_file({"n": 1})], capsys)
        assert code == 2

    @pytest.mark.parametrize("n", [True, "1", 1.0, 0])
    def test_order_not_a_positive_integer(self, spec_file, capsys, n):
        code, out, err = run_cli(["check", spec_file({**FRACTION_DOC, "n": n})], capsys)
        assert code == 2 and out is None
        assert diagnostic(err) == f"toepnorm: n must be a positive integer, got {n!r}"

    def test_entry_with_unknown_key_is_named(self, spec_file, capsys):
        bad = {"re": "1", "xx": "0"}
        doc = {**FRACTION_DOC, "diag": [*FRACTION_DOC["diag"][:2], bad]}
        code, out, err = run_cli(["check", spec_file(doc)], capsys)
        assert code == 2 and out is None
        assert diagnostic(err) == f"toepnorm: scalar must be an object with keys re/im, got {bad!r}"


class TestDeeplyNestedJson:
    DEEP = "[" * 200_000

    def test_spec_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(self.DEEP)
        code, out, err = run_cli(["check", str(path)], capsys)
        assert code == 2 and out is None
        assert err == "toepnorm: input is not JSON: nested too deeply\n"

    def test_spec_on_stdin_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(self.DEEP))
        code, out, err = run_cli(["classify", "-", "--route", "both"], capsys)
        assert code == 2 and out is None
        assert err == "toepnorm: input is not JSON: nested too deeply\n"

    def test_witness_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "--kind", "typeI", "--n", "2", "--witness", self.DEEP])
        assert exc.value.code == 64
        assert "bad witness: nested too deeply" in capsys.readouterr().err


class TestClassify:
    def test_direct(self, spec_file, capsys):
        code, doc, _ = run_cli(["classify", spec_file(TYPE1_DOC)], capsys)
        assert code == 0
        assert doc["verdict"] == "Classified"
        assert doc["type_I"] == {"re": "0", "im": "1"}
        assert doc["type_II"] is None
        assert doc["trace"] is None

    def test_proof_has_trace(self, spec_file, capsys):
        code, doc, _ = run_cli(
            ["classify", spec_file(TYPE1_DOC), "--route", "proof"], capsys
        )
        assert code == 0
        assert doc["trace"]["point"] == {"re": "1", "im": "0"}
        assert doc["trace"]["alpha0"] == {"re": "0", "im": "1"}

    def test_both_routes_agree(self, spec_file, capsys):
        code, doc, _ = run_cli(
            ["classify", spec_file(TYPE1_DOC), "--route", "both"], capsys
        )
        assert code == 0
        assert doc == json.loads((GOLDEN / "classify_type1_both.json").read_text())

    def test_real_labels_attached(self, spec_file, capsys):
        doc_in = {
            "n": 2,
            "diag": [
                {"re": "1", "im": "0"},
                {"re": "2", "im": "0"},
                {"re": "0", "im": "0"},
                {"re": "1", "im": "0"},
                {"re": "2", "im": "0"},
            ],
        }
        code, doc, _ = run_cli(["classify", spec_file(doc_in)], capsys)
        assert code == 0
        assert doc["real_labels"] == ["Circulant"]

    def test_violation_exits_3(self, spec_file, capsys, monkeypatch):
        def boom(spec, policy):
            raise TheoremViolation("forced failure", deviations={"type_I": 1.0})

        monkeypatch.setattr(cli, "classify_complex", boom)
        code, doc, err = run_cli(["classify", spec_file(TYPE1_DOC)], capsys)
        assert code == 3
        assert doc["error"] == "theorem-violation"
        assert doc["deviations"] == {"type_I": 1.0}
        assert "forced failure" in err

    def test_route_disagreement_exits_3(self, spec_file, capsys, monkeypatch):
        def contrarian(spec, policy):
            return ClassificationResult(Verdict.NOT_NORMAL), None

        monkeypatch.setattr(cli, "classify_via_proof", contrarian)
        code, doc, _ = run_cli(
            ["classify", spec_file(TYPE1_DOC), "--route", "both"], capsys
        )
        assert code == 3
        assert doc["agree"] is False

    def test_small_leading_entry_classifies(self, spec_file, capsys):
        # a_1 = 3e-9 is policy-nonzero but tiny: a ratio taken there is off by
        # 2e-13 / 3e-9 = 6.7e-5, so the witness must come from the largest entry.
        lower = [3e-9, 1 + 0.5j]
        upper = [1j * z.conjugate() for z in lower]
        upper[0] += 2e-13
        doc = spec_to_json(from_diagonals(upper[::-1] + [0.5] + lower))
        code, out, _ = run_cli(["classify", spec_file(doc), "--route", "both"], capsys)
        assert code == 0 and out["agree"] is True
        assert abs(complex(out["direct"]["type_I"]["re"], out["direct"]["type_I"]["im"]) - 1j) < 1e-9

    def test_float_both_routes_golden(self, spec_file, capsys):
        assert cli.main(["generate", "--kind", "symmetric", "--n", "64", "--seed", "0"]) == 0
        path = spec_file(json.loads(capsys.readouterr().out))
        assert cli.main(["classify", path, "--route", "both"]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / "classify_symmetric64_both.json").read_text()


def forced_normal(monkeypatch):
    """The scan-only report the classifiers read calls every spec normal."""
    original = classify._scan_report

    def normal(spec, policy):
        return replace(original(spec, policy), is_normal_fast=True)

    monkeypatch.setattr(classify, "_scan_report", normal)


def kernel_misses(monkeypatch):
    """The exact direct kernel finds no type I or type II pivot."""
    original = classify._direct_tests

    def missed(up, lo, real):
        return np.full_like(original(up, lo, real), classify._NO_FIT)

    monkeypatch.setattr(classify, "_direct_tests", missed)


def complex_classifies(monkeypatch):
    """classify_complex passes, so a real spec reaches classify_real."""
    def classified(spec, policy):
        return ClassificationResult(Verdict.CLASSIFIED)

    monkeypatch.setattr(cli, "classify_complex", classified)


FLOAT_MISFIT = [0.5, 1.0, 0.0, 1.0, 1.0]  # a_-1 = a_1 = a_2 = 1, a_-2 = 0.5: no condition fits
TYPES = ["type_I", "type_II"]
LABELS = ["Symmetric", "SkewSymmetric", "Circulant", "SkewCirculant"]


class TestForcedViolation:
    """Each TheoremViolation raise site exits 3 with one strict JSON document.

    Per condition the document reports the factor its verdict tested and
    exactly one of margin (float), entry (exact) or reason.
    """

    def violation(self, spec_file, capsys, diag, route, flags=()):
        doc = spec_to_json(from_diagonals(diag))
        code = cli.main(["classify", spec_file(doc), "--route", route, *flags])
        out = capsys.readouterr().out
        assert code == 3
        doc = strict_json(out)  # one document: json.loads refuses trailing text
        assert doc["error"] == "theorem-violation"
        for condition in doc["deviations"].values():
            assert set(condition) - {"factor"} in ({"margin"}, {"entry"}, {"reason"})
        return doc["deviations"]

    def test_direct_float(self, spec_file, capsys, monkeypatch):
        forced_normal(monkeypatch)
        got = self.violation(spec_file, capsys, FLOAT_MISFIT, "direct")
        # The ratio at the largest denominator entry is 1; it misses a_-2 by 0.5.
        one = {"re": 1.0, "im": 0.0}
        assert got == {name: {"factor": one, "margin": 0.5 / 1e-10} for name in TYPES}

    def test_direct_exact(self, spec_file, capsys, monkeypatch):
        forced_normal(monkeypatch)
        got = self.violation(spec_file, capsys, [2, 0, 1], "direct")
        miss = {"factor": None, "reason": "no unit-modulus factor fits"}
        assert got == {name: miss for name in TYPES}

    def test_direct_exact_beyond_float_range(self, spec_file, capsys, monkeypatch):
        """The 400-digit type II spec of the document set reports without converting to float."""
        kernel_misses(monkeypatch)
        got = self.violation(spec_file, capsys, _wide_spec(), "direct")
        miss = {"factor": None, "reason": "no unit-modulus factor fits"}
        assert got == {name: miss for name in TYPES}

    def test_proof_float(self, spec_file, capsys, monkeypatch):
        forced_normal(monkeypatch)
        got = self.violation(spec_file, capsys, FLOAT_MISFIT, "proof")
        assert list(got) == TYPES and all(c["margin"] > 1 for c in got.values())

    def test_proof_exact(self, spec_file, capsys, monkeypatch):
        forced_normal(monkeypatch)
        got = self.violation(spec_file, capsys, [2, 0, 1], "proof")
        assert list(got) == TYPES and all(c["entry"] == 0 for c in got.values())
        assert all(isinstance(c["factor"]["re"], str) for c in got.values())

    def test_real_float(self, spec_file, capsys, monkeypatch):
        forced_normal(monkeypatch)
        complex_classifies(monkeypatch)
        got = self.violation(spec_file, capsys, FLOAT_MISFIT, "direct")
        # a_-2 = 0.5 misses +-a_2 by 0.5 or 1.5; a_-1 = 1 misses -a_1 by 2.
        margins = [0.5 / 1e-10, 2 / 1e-10, 0.5 / 1e-10, 2 / 1e-10]
        assert got == {
            label: {"factor": {"re": f, "im": 0.0}, "margin": m}
            for label, f, m in zip(LABELS, (1.0, -1.0, 1.0, -1.0), margins)
        }

    def test_real_exact(self, spec_file, capsys, monkeypatch):
        forced_normal(monkeypatch)
        complex_classifies(monkeypatch)
        got = self.violation(spec_file, capsys, [2, 0, 1], "direct")
        # a_-1 = 2 misses +-a_1 = +-1 at the first entry, for every label.
        assert got == {
            label: {"factor": {"re": f, "im": "0"}, "entry": 0}
            for label, f in zip(LABELS, ("1", "-1", "1", "-1"))
        }

    def test_real_exact_beyond_float_range(self, spec_file, capsys, monkeypatch):
        """400-digit entries report the first entry each label misses, without floats."""
        forced_normal(monkeypatch)
        complex_classifies(monkeypatch)
        b, c, d = 10**400 + 7, 3 * 10**400, 2 * 10**400 + 1
        # a_-1 = a_1 = b and a_-2 = c != +-a_2 = +-d: symmetric up to entry 1.
        got = self.violation(spec_file, capsys, [c, b, 0, b, d], "direct")
        assert got == {
            label: {"factor": {"re": f, "im": "0"}, "entry": k}
            for label, f, k in zip(LABELS, ("1", "-1", "1", "-1"), (1, 0, 0, 0))
        }

    @pytest.mark.parametrize("route", ["direct", "proof"])
    def test_zero_threshold(self, spec_file, capsys, monkeypatch, route):
        """At --eps 0 --eps-floor 0 a margin or factor that is not finite is null."""
        forced_normal(monkeypatch)
        flags = ("--eps", "0", "--eps-floor", "0")
        got = self.violation(spec_file, capsys, [1e70, 0.0, 1e-300], route, flags)
        if route == "direct":  # the ratio 1e70 / 1e-300 overflows
            assert got == {n: {"factor": None, "reason": "not unit-modulus"} for n in TYPES}
        else:
            assert all(c["margin"] is None for c in got.values())

    def test_unconstrained_spec_below_the_floor(self, spec_file, capsys):
        """Valid unconstrained input at scale 2^-24 reaches a violation unforced.

        Its residuals fall under the absolute floor, so the scan calls it
        normal; the ratios at both pivots are not unit-modulus.
        """
        spec = generate(GenRequest(n=3, kind=Kind.UNCONSTRAINED, seed=0, value_scale=2**-24))
        got = self.violation(spec_file, capsys, list(spec.diag), "direct")
        assert list(got) == TYPES
        assert all(c["factor"] and c["reason"] == "not unit-modulus" for c in got.values())


class TestVerifyIdentities:
    def test_real_runs_all_four(self, spec_file, capsys):
        code, doc, _ = run_cli(["verify-identities", spec_file(FRACTION_DOC)], capsys)
        assert code == 0
        assert doc["which"] == ["8", "9", "14", "16"]
        assert doc["results"]["8"]["holds"] is False
        assert doc["results"]["16"]["holds"] is False

    def test_complex_runs_trig_pair_only(self, spec_file, capsys):
        code, doc, _ = run_cli(["verify-identities", spec_file(TYPE1_DOC)], capsys)
        assert code == 0
        assert doc["which"] == ["8", "9"]
        assert doc["results"]["8"]["holds"] is True
        assert doc["results"]["9"]["max_abs"] < 1e-12

    def test_real_identity_on_complex_input(self, spec_file, capsys):
        for which in ("14", "16"):
            code, out, err = run_cli(
                ["verify-identities", spec_file(TYPE1_DOC), "--which", which], capsys
            )
            assert code == 2 and out is None
            assert diagnostic(err) == f"toepnorm: identity {which} needs a real spec"


def float_doc(value, n=1):
    """Float spec whose every off-diagonal entry is value."""
    entry = {"re": value, "im": value}
    zero = {"re": 0.0, "im": 0.0}
    return {"n": n, "diag": [entry] * n + [zero] + [entry] * n}


def all_numbers(doc):
    if isinstance(doc, dict):
        return [x for v in doc.values() for x in all_numbers(v)]
    if isinstance(doc, list):
        return [x for v in doc for x in all_numbers(v)]
    return [doc] if isinstance(doc, float) else []


COMMANDS = [
    ["check"],
    ["classify", "--route", "direct"],
    ["classify", "--route", "both"],
    ["verify-identities", "--which", "all"],
]


class TestFloatRange:
    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 1e200])
    def test_rejected_at_decode(self, spec_file, capsys, command, value):
        code, doc, err = run_cli([*command, spec_file(float_doc(value))], capsys)
        assert code == 2 and doc is None
        assert err.startswith("toepnorm: ") and err.count("\n") == 1

    def test_integer_beyond_float_rejected(self, spec_file, capsys):
        doc = float_doc(1.0)
        doc["diag"][0] = {"re": 10**400, "im": 0}
        code, _, err = run_cli(["check", spec_file(doc)], capsys)
        assert code == 2 and "float range" in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_largest_accepted_stays_finite(self, spec_file, capsys, command):
        n = 3
        limit = _FLOAT_RANGE / (n + 1)
        code, doc, _ = run_cli([*command, spec_file(float_doc(0.999 * limit, n))], capsys)
        assert code == 0
        assert all(math.isfinite(x) for x in all_numbers(doc))
        code, _, _ = run_cli([*command, spec_file(float_doc(1.001 * limit, n))], capsys)
        assert code == 2


def bound_calls(monkeypatch, original) -> list:
    """Record the first argument of each call of ``original``, through every toepnorm name bound to it."""
    calls = []

    def counted(first, *args):
        calls.append(first)
        return original(first, *args)

    for name, module in list(sys.modules.items()):
        if name == "toepnorm" or name.startswith("toepnorm."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def check_calls(monkeypatch):
    """The specs of the normality.check calls."""
    return bound_calls(monkeypatch, normality.check)


CIRCULANT_DOC = spec_to_json(generate(GenRequest(n=3, kind=Kind.CIRCULANT, seed=1, exact=True)))


def strict_json(text):
    """json.loads that refuses NaN and the infinities, which JSON lacks."""

    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=refuse)


def exact_big_doc(value):
    """Exact n = 2 spec with a_{-2} = a_2 = value and a_{-1} = a_1 = 1."""
    big, one, zero = ({"re": v, "im": "0"} for v in (value, "1", "0"))
    return {"n": 2, "diag": [big, one, zero, one, big]}


class TestExactBeyondFloatRange:
    @pytest.mark.parametrize("value", ["1e400", "1e200"])
    def test_identities_exit_2(self, spec_file, capsys, value):
        code = cli.main(["verify-identities", spec_file(exact_big_doc(value)), "--which", "all"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("toepnorm: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("value", ["1e400", "1e200", "1e70"])
    @pytest.mark.parametrize("command", [["check"], ["classify", "--route", "both"]])
    def test_exact_routes_still_answer(self, spec_file, capsys, value, command):
        code = cli.main([*command, spec_file(exact_big_doc(value))])
        assert code == 0
        strict_json(capsys.readouterr().out)

    @pytest.mark.parametrize("which", ["14", "16"])
    def test_exact_identities_need_no_float_view(self, spec_file, capsys, which):
        code = cli.main(["verify-identities", spec_file(exact_big_doc("1e400")), "--which", which])
        assert code == 0
        doc = strict_json(capsys.readouterr().out)
        assert list(doc["results"]) == [which]

    def test_one_float_view_per_request(self, monkeypatch, spec_file, capsys):
        calls = []

        def counted(spec, _original=toeplitz.ToeplitzSpec.as_approx):
            calls.append(spec)
            return _original(spec)

        monkeypatch.setattr(toeplitz.ToeplitzSpec, "as_approx", counted)
        code = cli.main(["verify-identities", spec_file(exact_big_doc("1e70")), "--which", "all"])
        assert code == 0 and len(calls) == 1

    def test_identities_below_the_bound(self, spec_file, capsys):
        code = cli.main(["verify-identities", spec_file(exact_big_doc("1e70")), "--which", "all"])
        assert code == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["which"] == ["8", "9", "14", "16"]
        assert all(math.isfinite(x) for x in all_numbers(doc))


@pytest.mark.parametrize(
    "kind, classifiers", [(Kind.SYMMETRIC, 2), (Kind.TYPE_I, 1)]  # real: complex + real
)
class TestOneDirectKernelCallPerClassifier:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Calls of the direct route and of its exact kernel, by name."""
        calls = {"_direct": 0, "_direct_tests": 0}
        for name in calls:

            def counted(*args, _name=name, _original=getattr(classify, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(classify, name, counted)
        return calls

    def test_classify_both(self, calls, spec_file, capsys, kind, classifiers):
        """Each classifier makes one _direct call; only classify_complex's runs the kernel."""
        spec = generate(GenRequest(n=4, kind=kind, seed=1, exact=True))
        code, doc, _ = run_cli(["classify", spec_file(spec_to_json(spec)), "--route", "both"], capsys)
        assert code == 0 and doc["agree"] and doc["direct"]["verdict"] == "Classified"
        assert calls == {"_direct": classifiers, "_direct_tests": 1}

    def test_float_classify_both(self, calls, spec_file, capsys, kind, classifiers):
        """A float spec's one _direct call per classifier runs no exact kernel."""
        spec = generate(GenRequest(n=4, kind=kind, seed=1))
        code, doc, _ = run_cli(["classify", spec_file(spec_to_json(spec)), "--route", "both"], capsys)
        assert code == 0 and doc["agree"] and doc["direct"]["verdict"] == "Classified"
        assert calls == {"_direct": classifiers, "_direct_tests": 0}


class TestOneNormalityCheckPerRequest:
    @pytest.mark.parametrize("doc", [FRACTION_DOC, TYPE1_DOC, CIRCULANT_DOC])
    @pytest.mark.parametrize(
        "command, reports_each",
        [
            (["check"], 1),
            (["classify", "--route", "direct"], 1),
            (["classify", "--route", "proof"], 1),
            (["classify", "--route", "both"], 1),
            (["verify-identities", "--which", "all"], 0),
        ],
    )
    def test_single_spec_commands(self, monkeypatch, spec_file, capsys, doc, command, reports_each):
        """Calls per request of each normality layer: report, residual scan, dense oracle.

        Every request scans once: the spec caches its scan.  ``check`` and
        each classifier it runs (``classify_real`` too on a real spec) take
        ``reports_each`` scan-only report; only ``check`` runs the oracle.
        ``verify-identities`` builds no report; identity 8, and identity 14
        on a real spec, each read the scan's verdict through
        ``normality.is_normal``.
        """
        report_calls = bound_calls(monkeypatch, normality._scan_report)
        scan_calls = bound_calls(monkeypatch, normality.fast_max_residual)
        oracle_calls = bound_calls(monkeypatch, toeplitz.commutator_norm)
        code, _, _ = run_cli([*command, spec_file(doc)], capsys)
        assert code == 0
        takers = 1
        if command[0] == "classify":
            takers = (2 if command[-1] == "both" else 1) + (doc is not TYPE1_DOC)
        oracles = 1 if command == ["check"] else 0
        assert (len(report_calls), len(scan_calls), len(oracle_calls)) == (
            reports_each * takers, 1, oracles
        )
        assert len({id(spec) for spec in scan_calls + report_calls}) <= 1

    @pytest.mark.parametrize(
        "argv, specs",
        [(["--values", "gauss1"], 81), (["--values", "int2", "--real"], 25)],
    )
    def test_enumerate_once_per_spec(self, monkeypatch, capsys, check_calls, argv, specs):
        """The census takes no per-spec check: the stacked kernels see each half once per side.

        At n = 1 a grid of sqrt(specs) values has as many halves on each side.
        """
        seen = {"_table_np": 0, "_comm": 0}
        for name in seen:

            def counted(*arrays, _name=name, _original=getattr(genlab, name)):
                seen[_name] += math.prod(arrays[0].shape[: -2 if _name == "_comm" else -1])
                return _original(*arrays)

            monkeypatch.setattr(genlab, name, counted)
        code, doc, _ = run_cli(["enumerate", "--n", "1", *argv], capsys)
        assert code == 0 and doc["total"] == specs
        assert check_calls == []
        halves = math.isqrt(specs)
        assert seen == {"_table_np": 2 * halves, "_comm": 2 * halves}


class TestDiagonalInvariance:
    """a_0 is ignored by every analysis, so no document reads it."""

    @pytest.mark.parametrize("a0", [0.5 + 0.5j, complex(-3, -0.0), -2j])
    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_float_documents(self, spec_file, capsys, n, kind, a0):
        spec = generate(GenRequest(n=n, kind=kind, seed=n))
        diag = list(spec.diag)
        diag[n] = a0
        moved = from_diagonals(diag)
        assert moved.is_real == spec.is_real
        for command in [*COMMANDS, ["classify", "--route", "proof"]]:
            docs = [run_cli([*command, spec_file(spec_to_json(s))], capsys) for s in (spec, moved)]
            assert docs[0] == docs[1]


@pytest.fixture
def clear_calls(monkeypatch):
    """The value lists of the scalar.clear_denominators calls."""
    return bound_calls(monkeypatch, scalar.clear_denominators)


class TestOneClearedFormPerSpec:
    @pytest.mark.parametrize("doc", [FRACTION_DOC, TYPE1_DOC, CIRCULANT_DOC])
    @pytest.mark.parametrize(
        "command",
        [
            ["check"],
            ["classify", "--route", "direct"],
            ["classify", "--route", "proof"],
            ["classify", "--route", "both"],
            ["verify-identities", "--which", "all"],
        ],
    )
    def test_exact_requests(self, spec_file, capsys, clear_calls, doc, command):
        code, _, _ = run_cli([*command, spec_file(doc)], capsys)
        assert code == 0
        assert len(clear_calls) == 1

    def test_classify_both_builds_one_array(self, monkeypatch, spec_file, capsys):
        """Scan, oracle and direct route all read the spec's one array."""
        calls = []

        def counted(*args, _original=toeplitz._stack_array):
            calls.append(args)
            return _original(*args)

        for module in (toeplitz, genlab):  # every binding of the name
            monkeypatch.setattr(module, "_stack_array", counted)
        spec = generate(GenRequest(n=6, kind=Kind.SYMMETRIC, seed=1, exact=True))
        code, doc, _ = run_cli(["classify", spec_file(spec_to_json(spec)), "--route", "both"], capsys)
        assert code == 0 and doc["direct"]["real_labels"] == ["Symmetric"]
        assert len(calls) == 1

    def test_float_request_clears_nothing(self, spec_file, capsys, clear_calls):
        spec = generate(GenRequest(n=3, kind=Kind.TYPE_I, seed=1))
        path = spec_file(spec_to_json(spec))
        code, _, _ = run_cli(["classify", "--route", "both", path], capsys)
        assert code == 0 and clear_calls == []

    @pytest.mark.parametrize(
        "argv, specs",
        [(["--values", "gauss1"], 81), (["--values", "int2", "--real"], 25)],
    )
    def test_enumerate_once_per_spec(self, monkeypatch, capsys, clear_calls, argv, specs):
        """One clearing for the grid, and none for the specs.

        Every spec's scan and oracle agree, so the stacked kernel decides
        each normal one and none reaches a per-spec classifier.
        """
        classified = []
        for name in ("classify_real", "classify_complex"):

            def recording(spec, policy, _original=getattr(genlab, name)):
                classified.append(spec)
                return _original(spec, policy)

            monkeypatch.setattr(genlab, name, recording)
        code, doc, _ = run_cli(["enumerate", "--n", "1", *argv], capsys)
        assert code == 0 and doc["total"] == specs
        assert 0 < doc["normal"] < specs and doc["degenerate"] == 1
        assert classified == []
        assert [len(values) for values in clear_calls] == [{81: 9, 25: 5}[specs]]  # the grid


class TestGenerate:
    def test_round_trip_through_classify(self, tmp_path, capsys):
        code = cli.main(["generate", "--kind", "typeII", "--n", "4", "--seed", "3", "--exact"])
        out = capsys.readouterr().out
        assert code == 0
        path = tmp_path / "gen.json"
        path.write_text(out)
        code, doc, _ = run_cli(["classify", str(path), "--route", "both"], capsys)
        assert code == 0 and doc["agree"] is True
        assert doc["direct"]["verdict"] == "Classified"

    def test_matches_library(self, capsys):
        code, doc, _ = run_cli(
            ["generate", "--kind", "circulant", "--n", "3", "--seed", "11"], capsys
        )
        assert code == 0
        assert doc == spec_to_json(generate(GenRequest(n=3, kind=Kind.CIRCULANT, seed=11)))

    def test_explicit_witness(self, capsys):
        code, doc, _ = run_cli(
            [
                "generate", "--kind", "typeI", "--n", "2", "--exact",
                "--witness", '{"re": "0", "im": "-1"}',
            ],
            capsys,
        )
        assert code == 0
        spec = spec_from_json(doc)
        res = classify_complex(spec, ScalarPolicy())
        assert res.type_I == GaussianRational(0, -1)

    def test_bad_scale_exits_2(self, capsys):
        code, _, _ = run_cli(
            ["generate", "--kind", "typeI", "--n", "2", "--scale", "0"], capsys
        )
        assert code == 2

    def test_witness_on_real_kind_exits_2(self, capsys):
        code, _, _ = run_cli(
            [
                "generate", "--kind", "symmetric", "--n", "2",
                "--witness", '{"re": "1", "im": "0"}',
            ],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize(
        "domain",
        [["--exact", "--witness", '{"re": 1.0, "im": 0.0}'], ["--witness", '{"re": "1", "im": "0"}']],
    )
    def test_witness_from_other_domain_exits_2(self, capsys, domain):
        code, out, err = run_cli(["generate", "--kind", "typeI", "--n", "2", *domain], capsys)
        assert code == 2 and out is None
        assert err.startswith("toepnorm: ") and err.count("\n") == 1 and "domain" in err

    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf"])
    def test_non_finite_scale_exits_2(self, capsys, scale, exact):
        code, out, err = run_cli(
            ["generate", "--kind", "typeI", "--n", "2", f"--scale={scale}", *exact], capsys
        )
        assert code == 2 and out is None
        assert err.startswith("toepnorm: ") and err.count("\n") == 1


    @pytest.mark.parametrize("kind", ["typeI", "symmetric", "unconstrained"])
    def test_scale_beyond_float_range_exits_2(self, capsys, kind):
        code, out, err = run_cli(
            ["generate", "--kind", kind, "--n", "2", "--scale", "1e300"], capsys
        )
        assert code == 2 and out is None
        assert err.startswith("toepnorm: ") and err.count("\n") == 1
        assert "too large" in err

    def test_scale_within_float_range_round_trips(self, spec_file, capsys):
        scale = str(_FLOAT_RANGE / 3 / 2)
        code, doc, _ = run_cli(
            ["generate", "--kind", "typeI", "--n", "2", "--scale", scale], capsys
        )
        assert code == 0
        code, _, _ = run_cli(["check", spec_file(doc)], capsys)
        assert code == 0


class TestEnumerate:
    def test_gauss1_census(self, capsys):
        code, doc, _ = run_cli(["enumerate", "--n", "1", "--values", "gauss1"], capsys)
        assert code == 0
        assert doc == json.loads((GOLDEN / "enum_gauss1_n1.json").read_text())

    def test_real_census(self, capsys):
        code, doc, _ = run_cli(
            ["enumerate", "--n", "1", "--values", "int2", "--real"], capsys
        )
        assert code == 0
        assert doc["normal"] == 9 and doc["classified"] == 8

    def test_stacked_kernel_miss_is_a_violation(self, monkeypatch, capsys):
        """A normal spec the stacked kernel leaves undecided is never counted quietly.

        The per-spec classifier fits its labels and decides it, so the two
        direct routes disagree.
        """

        def first_row_dropped(up, lo, real, _original=genlab._direct_tests):
            tests = _original(up, lo, real)
            tests[0] = False if real else classify._NO_FIT
            return tests

        monkeypatch.setattr(genlab, "_direct_tests", first_row_dropped)
        code, doc, _ = run_cli(["enumerate", "--n", "2", "--values", "int2", "--real"], capsys)
        assert code == 3
        assert [v["error"] for v in doc["violations"]] == [
            "stacked and per-spec direct routes disagree"
        ]
        assert doc["normal"] == 80 and doc["classified"] == 79  # 81 and 80 unharmed

    def test_budget_exits_2(self, capsys):
        code, _, err = run_cli(
            ["enumerate", "--n", "3", "--values", "int2", "--budget", "100"], capsys
        )
        assert code == 2 and "budget" in err


class TestBench:
    def test_document_shape(self, capsys):
        code, doc, _ = run_cli(["bench", "--n", "6", "--repeat", "1"], capsys)
        assert code == 0
        assert doc["repeat"] == 1
        assert {row["n"] for row in doc["results"]} == {6}
        for row in doc["results"]:
            assert row["fast_ms"] > 0 and row["oracle_ms"] > 0 and row["ratio"] > 0

    def test_run_bench_helper(self):
        rows = cli.run_bench([4], repeat=1)
        assert [r["kind"] for r in rows] == ["Unconstrained", "TypeI"]


class TestTolerancePlumbing:
    @pytest.fixture
    def near_normal_file(self, tmp_path):
        spec = perturb(generate(GenRequest(n=4, kind=Kind.CIRCULANT, seed=2)), 1e-6, seed=1)
        path = tmp_path / "near.json"
        path.write_text(json.dumps(spec_to_json(spec)))
        return str(path)

    def test_default_eps_rejects(self, near_normal_file, capsys):
        _, doc, _ = run_cli(["check", near_normal_file], capsys)
        assert doc["normal"] is False

    def test_env_var_loosens(self, near_normal_file, capsys, monkeypatch):
        monkeypatch.setenv("TOEPNORM_EPS", "1e-3")
        _, doc, _ = run_cli(["check", near_normal_file], capsys)
        assert doc["normal"] is True

    def test_flag_beats_env(self, near_normal_file, capsys, monkeypatch):
        monkeypatch.setenv("TOEPNORM_EPS", "1e-3")
        _, doc, _ = run_cli(["check", near_normal_file, "--eps", "1e-12"], capsys)
        assert doc["normal"] is False

    def test_garbage_env_exits_2(self, near_normal_file, capsys, monkeypatch):
        monkeypatch.setenv("TOEPNORM_EPS", "soon")
        code, _, err = run_cli(["check", near_normal_file], capsys)
        assert code == 2 and "TOEPNORM_EPS" in err

    @pytest.mark.parametrize("command", [["check"], ["classify", "--route", "both"]])
    @pytest.mark.parametrize(
        "flags, env",
        [
            (["--eps", "nan"], None),
            (["--eps", "inf"], None),
            (["--eps-floor", "nan"], None),
            (["--eps-floor", "inf"], None),
            ([], "nan"),
            ([], "inf"),
        ],
    )
    def test_non_finite_tolerance_exits_2(self, tmp_path, capsys, monkeypatch, command, flags, env):
        assert cli.main(["generate", "--kind", "typeI", "--n", "2", "--seed", "1"]) == 0
        path = tmp_path / "spec.json"
        path.write_text(capsys.readouterr().out)
        if env is not None:
            monkeypatch.setenv("TOEPNORM_EPS", env)
        code, out, err = run_cli([command[0], str(path), *command[1:], *flags], capsys)
        assert code == 2 and out is None
        assert err.startswith("toepnorm: ") and "finite" in err

    def test_exact_input_ignores_eps(self, spec_file, capsys, monkeypatch):
        monkeypatch.setenv("TOEPNORM_EPS", "soon")  # never parsed for exact specs
        code, doc, _ = run_cli(["check", spec_file(FRACTION_DOC)], capsys)
        assert code == 0 and doc["exact"] is True


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["classify", "--route", "sideways"],
            ["enumerate", "--n", "1", "--values", "gauss1", "--real"],
            ["enumerate", "--n", "0", "--values", "int2"],
            ["generate", "--kind", "typeI", "--n", "0"],
            ["generate", "--kind", "mystery", "--n", "2"],
            ["bench", "--repeat", "0"],
            ["bench", "--n", "4,x"],
            ["generate", "--kind", "typeI", "--n", "2", "--witness", "not json"],
            ["bench", "--n", "0"],
            ["bench", "--n", "0,a"],
        ],
    )
    def test_usage_exits_64(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 64
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if line.startswith("toepnorm")]) == 1


class TestSubprocess:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(TYPE1_DOC))
        proc = subprocess.run(
            [sys.executable, "-m", "toepnorm", "classify", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "Classified"

    def test_console_script_entry_point(self, tmp_path, monkeypatch, capsys):
        """The function pyproject.toml names as the toepnorm script runs check, installed or not."""
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
        module, _, function = pyproject["project"]["scripts"]["toepnorm"].partition(":")
        entry_point = getattr(importlib.import_module(module), function)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(FRACTION_DOC))
        monkeypatch.setattr(sys, "argv", ["toepnorm", "check", str(path)])
        with pytest.raises(SystemExit) as exc:
            entry_point()
        assert exc.value.code == 0
        assert json.loads(capsys.readouterr().out) == json.loads(
            (GOLDEN / "check_fraction.json").read_text()
        )

    @pytest.mark.skipif(shutil.which("toepnorm") is None, reason="script not on PATH")
    def test_console_script(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(FRACTION_DOC))
        proc = subprocess.run(
            ["toepnorm", "check", str(path)], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["normal"] is False
