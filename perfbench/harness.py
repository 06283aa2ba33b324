"""Runs one workload for one seed: inputs, worker processes, oracles, metrics.

The harness itself never imports wkbspec.  It writes the op list and the
input files into a work directory inside the checkout
(``.perfbench_work/``), starts each workload process in a fresh
interpreter with BLAS threads capped at 1, and checks the outputs after
the process has exited.  Input generation and oracles are outside every
metric.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
DEADLINE_S = 170.0

_THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result (not a failed op)."""


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Session:
    """One workload and seed: owns the work directory and its worker runs."""

    def __init__(self, workload: str, seed: int, seconds: float):
        if not (SRC / "wkbspec" / "cli.py").is_file():
            raise BenchError(f"no wkbspec sources under {SRC}; run from a checkout of the repository")
        self.workload, self.seed = workload, seed
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "in").mkdir(parents=True)
        self.ops, warmup = workloads.build(workload, seed, seconds, str(self.dir / "in"))
        self.plan = self.dir / "plan.json"
        with open(self.plan, "w", encoding="utf-8") as fh:
            json.dump({"ops": [{"id": op["id"], "argv": op["argv"]} for op in self.ops], "warmup": warmup}, fh)
        self.oracle = oracles.Oracle()
        self.runs = 0
        self.t_start = time.monotonic()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.dir, ignore_errors=True)

    def launch(self, mode: str, trace: int):
        """Start a fresh worker; returns (set-up seconds, result or None, run dir)."""
        run_dir = self.dir / f"run{self.runs}"
        self.runs += 1
        run_dir.mkdir()
        result_path = run_dir / "result.json"
        env = dict(os.environ, PYTHONHASHSEED="0", **_THREAD_CAPS)
        cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC), "--ops", str(self.plan),
               "--mode", mode, "--trace", str(trace), "--result", str(result_path)]
        with open(run_dir / "stderr.txt", "w+", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=run_dir, env=env, stdout=subprocess.PIPE, stderr=err, text=True)
            try:
                ready = proc.stdout.readline()
                setup_s = time.perf_counter() - t0
                proc.communicate(timeout=max(1.0, DEADLINE_S - (time.monotonic() - self.t_start)))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError(f"{self.workload} seed {self.seed}: worker exceeded the {DEADLINE_S:.0f} s deadline")
            if ready.strip() != "ready" or proc.returncode != 0:
                err.seek(0)
                raise BenchError(f"worker failed (exit {proc.returncode}):\n{err.read()[-2000:]}")
        if mode == "setup":
            return setup_s, None, run_dir
        with open(result_path, encoding="utf-8") as fh:
            return setup_s, json.load(fh), run_dir

    def account(self, result: dict, run_dir: Path):
        """Failed ops (with input and reason) and the number of oracle misses.

        An escaped exception, a nonzero exit and an oracle miss each fail the
        op; only an oracle miss means the program returned a wrong answer.
        """
        failed, misses = [], 0
        for op, rec in zip(self.ops, result["ops"]):
            if rec["exc_type"] is not None:
                reason = f"uncaught {rec['detail']}"
            elif rec["rc"] != 0:
                reason = f"exit {rec['rc']}: {rec['detail']}"
            else:
                try:
                    reason = self.oracle.check(op, str(run_dir / op["out"]))
                except Exception as exc:  # an unreadable output is a wrong answer
                    reason = f"output unreadable: {type(exc).__name__}: {exc}"
                if reason is not None:
                    misses += 1
                    reason = f"oracle: {reason}"
            if reason is not None:
                failed.append({"id": op["id"], "argv": op["argv"], "reason": reason})
        return failed, misses


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """Untraced run: set-up repeated SETUP_REPEATS times, then the op list."""
    with Session(workload, seed, seconds) as s:
        setups = [s.launch("setup", 0)[0] for _ in range(SETUP_REPEATS - 1)]
        setup_s, result, run_dir = s.launch("run", 0)
        setups.append(setup_s)
        failed, misses = s.account(result, run_dir)
        lat = [rec["latency_s"] for rec in result["ops"]]
        return {
            "ops": len(lat), "failed": failed, "misses": misses, "setup_samples": setups,
            "op_p90_s": percentile(lat, 0.9),
            "metrics": {
                "setup_s": (statistics.median(setups), "s"),
                "wall_s": (result["wall_s"], "s"),
                "op_p50_s": (statistics.median(lat), "s"),
                "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            },
        }


def traced(workload: str, seed: int, seconds: float, baseline: bool = True) -> dict:
    """Traced run, preceded (when baseline) by an untraced one for the overhead."""
    with Session(workload, seed, seconds) as s:
        base_misses = 0
        if baseline:
            _, base, base_dir = s.launch("run", 0)
            base_misses = s.account(base, base_dir)[1]
        _, result, run_dir = s.launch("run", 1)
        failed, misses = s.account(result, run_dir)
        dump = result["trace"]
        values = tracing.layer_metrics(dump)
        values["cli.bytes_out"] = sum((run_dir / op["out"]).stat().st_size
                                      for op in s.ops if (run_dir / op["out"]).exists())
        values["trace.wall_s"] = result["wall_s"]
        values["trace.overhead_s"] = result["wall_s"] - base["wall_s"] if baseline else 0.0
        WORK.mkdir(exist_ok=True)
        with open(WORK / f"trace-{workload}.json", "w", encoding="utf-8") as fh:
            json.dump({"seed": seed, "ops": s.ops, **dump}, fh)
        absent = tracing.absent_hooks(dump)
        return {
            "ops": len(result["ops"]), "failed": failed, "misses": misses + base_misses,
            "raised": dump["raised"], "absent": sorted(absent),
            "absent_metrics": [name for name, (_, hook) in tracing.PER_LAYER.items() if hook in absent],
            "metrics": {name: (values[name], unit) for name, (unit, _) in tracing.PER_LAYER.items()},
        }
