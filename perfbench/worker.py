"""The long-lived toepnorm process of one workload, and the set-up probe.

Runs inside the program's interpreter and calls ``toepnorm.cli.main`` with
the argv a user types, one request at a time (a closed loop with a single
client).  It checks nothing: ``run.py`` verifies every output afterwards.

    worker.py probe              time set-up once, print seconds
    worker.py serve PLAN OUT     set up, run whole rounds of PLAN, write OUT

While serving, the worker stops between rounds at ``plan["pauses"]``
points spread evenly through the run: it prints ``pause`` and waits for a
line on standard input, so that ``run.py`` can time set-up in a fresh
interpreter while the worker is idle.

Set-up is importing ``toepnorm.cli`` (numpy included) and one warm-up pass:
``generate`` a small spec in each domain, then ``check``, ``classify --route
both`` and ``verify-identities`` on it, and one tiny ``enumerate``.  That
pays every lazy first-call cost before the first timed request.
"""

import contextlib
import io
import resource
import sys
from time import perf_counter


def call(main, argv, stdin_text=None):
    """(exit code, stdout, stderr, seconds) of one CLI request."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a traceback is a failed request, not a dead run
        rc = f"exception: {exc!r}"
    finally:
        seconds = perf_counter() - start
        sys.stdin = saved_stdin
    return rc, out.getvalue(), err.getvalue(), seconds


def _require_ok(argv, result):
    rc, out, err, _ = result
    if rc != 0:
        raise RuntimeError(f"warm-up request {argv} failed with {rc}: {err}")
    return out


def warm_up(main) -> None:
    for domain in (["--exact"], []):
        argv = ["generate", "--kind", "typeI", "--n", "2", "--seed", "1"] + domain
        spec = _require_ok(argv, call(main, argv))
        for argv in (
            ["check", "-"],
            ["classify", "-", "--route", "both"],
            ["verify-identities", "-", "--which", "all"],
        ):
            _require_ok(argv, call(main, argv, spec))
    argv = ["enumerate", "--n", "1", "--values", "int2", "--real"]
    _require_ok(argv, call(main, argv))


def probe() -> None:
    start = perf_counter()
    import toepnorm.cli

    warm_up(toepnorm.cli.main)
    print(perf_counter() - start)


def _pause() -> None:
    sys.stdout.write("pause\n")
    sys.stdout.flush()
    if sys.stdin.readline() != "go\n":
        sys.exit("worker: run.py went away during a pause")


def serve(plan_path, out_path) -> None:
    import json

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    import toepnorm.cli

    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    warm_up(toepnorm.cli.main)
    since = tracer.snapshot() if tracer else None

    main = toepnorm.cli.main
    argvs = [op["argv"] for op in plan["ops"]]
    # Pause j comes at the first round boundary after (j + 1/2) / pauses of
    # the run; pauses still owed when the time is up come at the end.
    pauses, seconds = plan["pauses"], plan["seconds"]
    paused = 0
    rounds = []
    loop_start = perf_counter()
    while True:
        results = []
        for argv in argvs:
            rc, out, err, elapsed = call(main, argv)
            results.append([rc, elapsed, out, err if rc != 0 else ""])
        rounds.append(results)
        now = perf_counter() - loop_start
        if paused < pauses and now >= (paused + 0.5) * seconds / pauses:
            _pause()
            paused += 1
        if perf_counter() - loop_start >= seconds:
            break
    for _ in range(paused, pauses):
        _pause()

    doc = {
        "toepnorm_file": toepnorm.__file__,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rounds": rounds,
        "layers": None,
    }
    if tracer:
        layers = tracer.summary(since, len(rounds))
        layers["genlab.generate_ms"] = 1e3 * sum(
            end - begin
            for name, begin, end, _ in tracer.spans[: since["span"]]
            if name == "genlab.generate"
        )
        doc["layers"] = layers
        tracer.write(plan["trace_file"])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    if sys.argv[1:2] == ["probe"]:
        probe()
    elif sys.argv[1:2] == ["serve"] and len(sys.argv) == 4:
        serve(sys.argv[2], sys.argv[3])
    else:
        sys.exit("usage: worker.py probe | worker.py serve PLAN OUT")
