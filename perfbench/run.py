"""wkbspec benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload geometry --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; the library is taken from ``src/``.
``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` prints the per-layer metrics of a traced run of the same op
list, with the tracing overhead against an untraced run made just before.
Failed ops are listed with their argv and the reason.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``correct`` is false when any op
returned an answer its oracle rejects.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness
import workloads


def _report(args, res) -> None:
    n = res["ops"]
    print(f"workload {args.workload}  seed {args.seed}  ops {n}  trace {args.trace}")
    for name, (value, unit) in res["metrics"].items():
        note = ""
        if name == "setup_s":
            note = "  median of " + ", ".join(f"{v:.4f}" for v in res["setup_samples"])
        elif name == "op_p50_s":
            note = f"  n={n}"
        elif name in res.get("absent_metrics", ()):
            note = "  absent"
        print(f"  {name:<28} {value:>16.6g} {unit}{note}")
    if "op_p90_s" in res:
        # a p90 needs at least 10 ops beyond it; it is not in the JSON because
        # only geometry has that many
        note = "" if n >= 100 else "  (fewer than 10 ops beyond it: not a percentile estimate)"
        print(f"  {'op_p90_s':<28} {res['op_p90_s']:>16.6g} s  n={n}{note}")
    print(f"  {'fail_frac':<28} {len(res['failed']) / n:>16.6g} ratio  ({len(res['failed'])}/{n})")
    if res.get("raised"):
        print("  spectrum.raised by type: " + ", ".join(f"{k}={v}" for k, v in sorted(res["raised"].items())))
    if res.get("absent"):
        print("  absent hooks (their metrics read 0): " + ", ".join(res["absent"]))
    for f in res["failed"]:
        print(f"  failed op {f['id']}: {' '.join(f['argv'])}\n      {f['reason'].splitlines()[0][:300]}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        if args.trace:
            res = harness.traced(args.workload, args.seed, args.seconds)
        else:
            res = harness.end_to_end(args.workload, args.seed, args.seconds)
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    _report(args, res)
    print(json.dumps({
        "correct": res["misses"] == 0,
        "attempted": res["ops"],
        "failed": len(res["failed"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
