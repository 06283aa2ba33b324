"""Counter determinism self-test for the traced run.

    python3 perfbench/selftest.py [--workloads geometry resolvent] [--seeds 1 2]

For each workload and seed it makes two traced runs and compares every
per-layer metric that is not a time: calls, right-hand-side evaluations,
rounds, hops, points, reuse shares, bytes.  A count may carry a claim only
if it repeats exactly, so any difference fails the test (exit 1).
"""

from __future__ import annotations

import argparse
import sys

import harness
import tracing
import workloads

TIME_UNITS = ("s", "us")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", nargs="+", default=sorted(workloads.WORKLOADS), choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    p.add_argument("--seconds", type=float, default=15.0)
    args = p.parse_args(argv)
    counters = [name for name, (unit, _) in tracing.PER_LAYER.items() if unit not in TIME_UNITS]
    ok = True
    for workload in args.workloads:
        for seed in args.seeds:
            first, second = (
                {k: v for k, (v, _) in harness.traced(workload, seed, args.seconds, baseline=False)["metrics"].items()}
                for _ in range(2)
            )
            diff = [k for k in counters if first[k] != second[k]]
            ok &= not diff
            print(f"{workload} seed {seed}: {'identical' if not diff else 'DIFFER'} over {len(counters)} counters")
            for k in diff:
                print(f"  {k}: {first[k]} vs {second[k]}")
            nonzero = {k: first[k] for k in counters if first[k]}
            print("  " + ", ".join(f"{k}={v:.6g}" for k, v in nonzero.items()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
