"""Benchmark of the toepnorm CLI: one workload, one seed, one result line.

    python3 perfbench/run.py --workload exact-requests --seed 1 --seconds 55 --trace 0

Run from the root of a toepnorm checkout.  The command builds the
workload's specs from the seed, starts one long-lived toepnorm process that
runs whole rounds of the workload's requests for ``--seconds`` seconds,
times set-up in fresh interpreters during the process's pauses, checks
every output against the benchmark's own arithmetic, and prints one JSON
object as its last line of standard output.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
Files go to ``.perfbench_out/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import corpus

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("exact-requests", "float-requests")

# Set-up is timed in this many fresh interpreters, one in each pause of the
# worker, spread evenly through the run, after one untimed interpreter that
# fills the bytecode cache; the median is reported.
SETUP_PROBES = 40
# The whole command must end within this many seconds.
DEADLINE_S = 170
BLAS_THREADS = "1"

REQUEST_CMDS = ("check", "classify", "identities")
CHECKERS = {
    "check": checks.check_check,
    "classify": checks.check_classify,
    "identities": checks.check_identities,
}


def child_env() -> dict:
    """Environment of every toepnorm process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # Bytecode is cached inside the checkout, as an installed package has
    # it, so set-up measures importing, not compiling.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("TOEPNORM_EPS", None)  # the default tolerance policy applies
    return env


def run_child(args, env, deadline) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("benchmark ran out of time")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return proc.stdout


def probe(env, deadline) -> float:
    return float(run_child(["probe"], env, deadline))


def serve(run_dir, env, deadline) -> list:
    """Run the long-lived worker; time one set-up probe in each of its pauses.

    Returns the probe times.  The worker is killed if the deadline passes.
    """
    err_path = run_dir / "worker.err"
    with open(err_path, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "serve",
             str(run_dir / "plan.json"), str(run_dir / "worker.json")],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=err,
            text=True,
        )
        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        samples = []
        try:
            for line in proc.stdout:
                if line != "pause\n":
                    raise RuntimeError(f"worker printed {line!r}")
                samples.append(probe(env, deadline))
                proc.stdin.write("go\n")
                proc.stdin.flush()
            proc.stdin.close()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        raise RuntimeError(f"worker serve exited {code}:\n{err_path.read_text()}")
    sys.stderr.write(err_path.read_text())
    return samples


def verify(specs, ops, rounds) -> tuple[list, list]:
    """Per round and op, whether it failed; plus problems that make the run
    incorrect: any failure outside the tiny-scale slice."""
    census_cache, seen = {}, {}
    failed, problems = [], []
    for r, results in enumerate(rounds):
        row = []
        for i, (op, (rc, _, out, err)) in enumerate(zip(ops, results)):
            key = (i, rc, out)
            if key not in seen:
                seen[key] = _problems(specs, op, rc, out, err, census_cache)
            found = seen[key]
            row.append(bool(found))
            spec = specs[op["spec"]] if op["spec"] is not None else None
            if found and not (spec and spec["tiny"]):
                problems.append(f"round {r} {' '.join(op['argv'])}: {'; '.join(found)}")
        failed.append(row)
    return failed, problems


def _problems(specs, op, rc, out, err, census_cache) -> list:
    if rc != 0:
        return [f"exit {rc}: {err.strip()[-300:]}"]
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if op["spec"] is not None:
        return CHECKERS[op["cmd"]](specs[op["spec"]], doc)
    key = tuple(op["census"])
    if key not in census_cache:
        census_cache[key] = checks.census(*key)
    return checks.check_census(census_cache[key], doc)


def end_to_end(ops, rounds, failed, setup_samples, worker) -> dict:
    """End-to-end metrics from the mean time of each op over the rounds.

    On a machine shared with other tenants the speed changes for seconds at
    a time; a mean over a whole run, like the median of set-up probes spread
    through it, averages those phases (README.md, "Steadiness").  It also
    holds each op's share of garbage collections.  An op that failed in any
    round has no latency and its spec does not count.
    """
    mean = [statistics.fmean(results[i][1] for results in rounds) for i in range(len(ops))]
    ok = [not any(bad[i] for bad in failed) for i in range(len(ops))]
    metrics = {"setup_s": (statistics.median(setup_samples), "s")}
    requests = [i for i, op in enumerate(ops) if op["cmd"] in REQUEST_CMDS]
    done = {}
    for i in requests:
        done[ops[i]["spec"]] = done.get(ops[i]["spec"], True) and ok[i]
    specs = sum(done.values())
    seconds = sum(mean[i] for i in requests)
    metrics["specs_per_s"] = (specs / seconds, "1/s")
    for cmd in REQUEST_CMDS + ("enumerate",):
        times = [mean[i] for i, op in enumerate(ops) if op["cmd"] == cmd and ok[i]]
        metrics[f"{cmd}_ms"] = (1e3 * statistics.median(times), "ms")
    metrics["peak_rss_mb"] = (worker["peak_rss_kb"] / 1024, "MB")
    return metrics


LAYER_UNITS = {"_ms": "ms", "_calls": "count", "_collections": "count"}


def per_layer(worker) -> dict:
    out = {}
    for name, value in worker["layers"].items():
        unit = next(u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix))
        out[name] = (value, unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "toepnorm" / "cli.py").is_file():
        print(f"perfbench: no toepnorm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "specs").mkdir(parents=True)
    specs, ops = corpus.build_plan(args.workload, args.seed, run_dir / "specs", ROOT)
    plan = {
        "ops": ops,
        "seconds": args.seconds,
        "pauses": 0 if args.trace else SETUP_PROBES,
        "trace": args.trace,
        "trace_file": str(run_dir / "spans.tsv"),
    }
    (run_dir / "plan.json").write_text(json.dumps(plan))

    env = child_env()
    probe(env, deadline)
    setup_samples = serve(run_dir, env, deadline)
    worker = json.loads((run_dir / "worker.json").read_text())
    if not Path(worker["toepnorm_file"]).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported toepnorm from {worker['toepnorm_file']}", file=sys.stderr)
        return 2
    rounds = worker["rounds"]
    failed, problems = verify(specs, ops, rounds)
    for line in problems[:20]:
        print(f"perfbench: WRONG {line}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(worker)
    else:
        metrics = end_to_end(ops, rounds, failed, setup_samples, worker)
    request_s = sum(r[1] for results in rounds for r in results) / len(rounds)
    print(
        f"perfbench: {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(rounds)} rounds of {len(ops)} ops, {request_s:.3f} s of requests per round",
        file=sys.stderr,
    )
    result = {
        "correct": not problems,
        "attempted": len(ops) * len(rounds),
        "failed": sum(map(sum, failed)),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
