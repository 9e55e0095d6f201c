"""Spans and counters around toepnorm's public functions, installed from outside.

The tracer replaces each traced function, in every loaded ``toepnorm``
module namespace that binds it, by a wrapper that records a span (name,
start, end, parent).  Nothing inside ``src/`` changes.  Spans stay in memory
until the run ends.  ``polyid.eval_at_point`` runs thousands of times per
request, so it only counts its calls; its time stays in the proof route's
self time.  A traced function that the program no longer has is an error,
so that no per-layer metric can silently read 0.
"""

from __future__ import annotations

import functools
import gc
import sys
from time import perf_counter

SPANNED = {
    "toeplitz": ("spec_from_json", "commutator_norm"),
    "normality": ("check",),
    "classify": ("classify_complex", "classify_real", "classify_via_proof"),
    "polyid": (
        "identity8_residual",
        "identity8_coefficient_check",
        "identity9_residual",
        "identity14_check",
        "identity16_holds",
        "factor_polys",
        "is_zero_poly",
    ),
    "genlab": ("enumerate_and_verify", "generate"),
    "cli": ("main",),
}
COUNTED = {"polyid": ("eval_at_point",)}

# Per-layer metric -> the spans whose self time it sums.
SELF_TIME_MS = {
    "toeplitz.decode_ms": ("toeplitz.spec_from_json",),
    "toeplitz.oracle_ms": ("toeplitz.commutator_norm",),
    "normality.scan_ms": ("normality.check",),
    "classify.direct_ms": ("classify.classify_complex", "classify.classify_real"),
    "classify.proof_ms": ("classify.classify_via_proof",),
    "polyid.identity8_ms": ("polyid.identity8_residual", "polyid.identity8_coefficient_check"),
    "polyid.identity9_ms": ("polyid.identity9_residual",),
    "polyid.identity14_ms": ("polyid.identity14_check",),
    "polyid.identity16_ms": (
        "polyid.identity16_holds",
        "polyid.factor_polys",
        "polyid.is_zero_poly",
    ),
    "genlab.enumerate_ms": ("genlab.enumerate_and_verify",),
    "cli.self_ms": ("cli.main",),
}
CALLS = {
    "toeplitz.oracle_calls": "toeplitz.commutator_norm",
    "normality.check_calls": "normality.check",
    "polyid.eval_at_point_calls": "polyid.eval_at_point",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.calls = {}
        self.gc_seconds = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0

    def install(self) -> None:
        for short, names in SPANNED.items():
            for name in names:
                self._replace(short, name, self._span_wrapper)
        for short, names in COUNTED.items():
            for name in names:
                self._replace(short, name, self._count_wrapper)
        gc.callbacks.append(self._on_gc)

    def _replace(self, short, name, make) -> None:
        module = sys.modules.get(f"toepnorm.{short}")
        original = getattr(module, name, None)
        if original is None:
            raise LookupError(f"tracer: toepnorm.{short}.{name} not found")
        wrapper = make(f"{short}.{name}", original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "toepnorm" or mod_name.startswith("toepnorm."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return wrapper

    def _count_wrapper(self, name, fn):
        calls = self.calls
        calls[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_seconds += perf_counter() - self._gc_start
            self.gc_collections += 1

    def snapshot(self) -> dict:
        return {
            "span": len(self.spans),
            "calls": dict(self.calls),
            "gc_seconds": self.gc_seconds,
            "gc_collections": self.gc_collections,
        }

    def summary(self, since: dict, rounds: int) -> dict:
        """Per-layer metrics per round over the spans recorded after ``since``."""
        first = since["span"]
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= first:
                child[parent - first] += end - start
        self_s, count = {}, {}
        for (name, start, end, _), inner in zip(spans, child):
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
            count[name] = count.get(name, 0) + 1
        calls = {k: v - since["calls"].get(k, 0) for k, v in self.calls.items()}
        calls.update(count)
        out = {
            metric: 1e3 * sum(self_s.get(n, 0.0) for n in names) / rounds
            for metric, names in SELF_TIME_MS.items()
        }
        out.update({metric: calls.get(n, 0) / rounds for metric, n in CALLS.items()})
        out["runtime.gc_ms"] = 1e3 * (self.gc_seconds - since["gc_seconds"]) / rounds
        out["runtime.gc_collections"] = (self.gc_collections - since["gc_collections"]) / rounds
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
