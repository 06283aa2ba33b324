"""Closed-loop workload process: one process, one thread, one op at a time.

Started by the harness in a fresh interpreter.  It imports wkbspec, runs
the workload's warm-up, prints ``ready`` (the harness times set-up up to
that line), then sends each op to ``wkbspec.cli.main(argv)`` only after
the previous one has returned.  Every op runs inside a catch-all, so an
exception that escapes the CLI is recorded as a failed op and the run goes
on.  Outputs go to files named in each op's argv; checking them against
the oracles happens in the harness, after this process has exited.

    python3 perfbench/worker.py --src SRC --ops OPS.json --mode run \
        --trace 0 --result RESULT.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _run_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    rec = {"rc": None, "exc_type": None, "detail": ""}
    exc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rec["rc"] = cli.main(argv)
    except Exception as e:  # the CLI maps only some errors to exit 1; count the rest
        exc = e
    rec["latency_s"] = time.perf_counter() - t0
    if exc is not None:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        rec["exc_type"] = type(exc).__name__
        rec["detail"] = (f"{type(exc).__name__}: {exc} "
                         f"({os.path.basename(where.filename)}:{where.lineno} in {where.name})")
    elif rec["rc"] != 0:
        rec["detail"] = err.getvalue().strip()[-400:]
    return rec


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--src", required=True, help="directory holding the wkbspec package")
    p.add_argument("--ops", required=True, help="op list written by the harness")
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", default=None)
    args = p.parse_args()

    sys.path.insert(0, args.src)
    import wkbspec
    import wkbspec.cli

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    with open(args.ops, encoding="utf-8") as fh:
        plan = json.load(fh)
    for name, fn_args in plan["warmup"]:
        getattr(wkbspec, name)(*fn_args)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    records = []
    t_start = time.perf_counter()
    for op in plan["ops"]:
        if tracer is not None:
            tracer.op = op["id"]
        # look main up on every op so a traced run goes through the patched binding
        rec = _run_op(wkbspec.cli, op["argv"])
        rec["id"] = op["id"]
        records.append(rec)
    wall_s = time.perf_counter() - t_start

    result = {
        "ops": records,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
