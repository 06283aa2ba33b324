#!/usr/bin/env python3
"""Golden corpus of CLI outputs: a fixed list of argv and the bytes each prints.

Usage: python scripts/golden.py [--write]

Each case runs through wkbspec.cli.main in a scratch working directory
that holds a copy of tests/golden/resolvent_input.csv, so every relative
path in argv, and with it every '# argv:' header, is the same on every
run.  Without --write, compares the outputs with tests/golden/, prints
the first differing line of each file that differs and exits 1 if any
does; with --write, rewrites them and the platform record
tests/golden/PLATFORM.  tests/test_golden.py runs the same cases.
"""

from __future__ import annotations

import contextlib
import io
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
INPUT = "resolvent_input.csv"

# (name, argv, file that argv writes or None); stdout goes to name.out
CASES = [
    ("spectrum_alpha23", ["spectrum", "--alpha", "0.6666666666666666", "--c=1,0.5", "--n", "3"], None),
    ("spectrum_alpha2", ["spectrum", "--alpha", "2", "--c=0.3,0.9", "--n", "8"], None),
    ("theta0", ["theta0", "--tol", "1e-12"], None),
    ("theta0_json", ["theta0", "--tol", "1e-12", "--out", "theta0.json"], "theta0.json"),
    ("verify", ["verify", "--per-regime", "50"], None),
    ("stokes_psi03", ["stokes", "--psi", "0.3", "--format", "json"], None),
    ("stokes_psi21_gamma04", ["stokes", "--psi", "2.1", "--gamma", "0.4"], None),
    ("stokes_t09_03", ["stokes", "--t-form=0.9,0.3", "--format", "json"], None),
    ("stokes_t16_07", ["stokes", "--t-form=1.6,0.7", "--format", "json"], None),
    ("scan", ["scan", "--from", "0", "--to", "0.52", "--steps", "60"], None),
    ("resolvent", ["resolvent", "--alpha", "0.6666666666666666", "--c=0.5,0.8660254037844386",
                   "--input", INPUT], None),
]


def platform_record() -> str:
    """What the bytes of the corpus depend on besides the code."""
    return (f"python {platform.python_version()}\nnumpy {np.__version__}\n"
            f"machine {platform.machine()} {platform.system()}\n")


def outputs_of(case, workdir) -> dict:
    """{file name in tests/golden: text} of one case, run in workdir."""
    from wkbspec.cli import main

    name, argv, written = case
    shutil.copy(GOLDEN / INPUT, Path(workdir) / INPUT)
    stdout, here = io.StringIO(), os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(list(argv))
        outputs = {f"{name}.out": stdout.getvalue()}
        if written is not None:
            outputs[f"{name}{Path(written).suffix}"] = Path(written).read_bytes().decode("utf-8")
    finally:
        os.chdir(here)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return outputs


def first_difference(want: str, got: str) -> str:
    """'' when equal, else the first differing line of the two texts."""
    if want == got:
        return ""
    a, b = want.splitlines(keepends=True), got.splitlines(keepends=True)
    k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return (f"line {k + 1}: expected {a[k] if k < len(a) else '<end>'!r}, "
            f"got {b[k] if k < len(b) else '<end>'!r}")


def main(argv) -> int:
    write = argv == ["--write"]
    if argv and not write:
        print(__doc__, file=sys.stderr)
        return 2
    failures = 0
    with tempfile.TemporaryDirectory() as workdir:
        for case in CASES:
            for fname, text in outputs_of(case, workdir).items():
                path = GOLDEN / fname
                if write:
                    path.write_bytes(text.encode("utf-8"))
                    continue
                diff = first_difference(path.read_bytes().decode("utf-8"), text)
                if diff:
                    failures += 1
                    print(f"{fname}: {diff}", file=sys.stderr)
    if write:
        (GOLDEN / "PLATFORM").write_text(platform_record(), encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
