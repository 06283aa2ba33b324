"""Command-line surface: every computation as a reproducible run.

Subcommands: theta0, scan, stokes, spectrum, resolvent, verify.  Output is
deterministic byte for byte (fixed float formatting, fixed ordering, no
timestamps); exit code 0 on success, 1 on failed verification or numerical
error, 2 on argument errors.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .actions import PotentialQuadratic
from .errors import NumericsError
from .spectrum import (
    OperatorSpec,
    SampledFunction,
    apply_inverse,
    complex_spectrum,
    s_numbers,
    t_asymptotic,
)
from .stokes import build_stokes_graph, classify_crossings
from .svgplot import render_stokes_svg
from .threshold import f_theta, route_equivalence, solve_theta0, verify_threshold_bounds

_FMT = "{:.15e}"


def _num(x: float) -> str:
    return _FMT.format(float(x))


def _parse_complex(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected RE,IM, got {text!r}") from exc


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _angle(value: float, degrees: bool) -> float:
    if not math.isfinite(value):
        raise ValueError(f"angles must be finite, got {value}")
    return math.radians(value) if degrees else value


def _mod_2pi(x: float) -> float:
    """x mod 2 pi in [0, 2 pi): a tiny negative x rounds up to 2 pi, taken as 0."""
    r = x % (2 * math.pi)
    return 0.0 if r == 2 * math.pi else r


def _emit(text: str, out: Optional[str]):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_header(argv: List[str]) -> List[str]:
    return [
        f"# argv: {' '.join(argv)}",
        f"# version: wkbspec {__version__}",
    ]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_theta0(args, argv) -> int:
    report = solve_theta0(args.tol)
    payload = {
        "theta0": report.theta0,
        "enclosure": [report.enclosure.lo, report.enclosure.hi],
        "f_at_lo": report.f_lo,
        "f_at_hi": report.f_hi,
        "interval": [math.pi / 10.0, math.pi / 9.0],
        "sector_half_angle": math.pi / 2.0 + report.theta0,
        "checks": {c.name: {"passed": c.passed, "value": c.value, "bound": c.bound}
                   for c in report.identity_checks},
        "f_samples": [[t, v] for t, v in report.f_samples],
        "argv": argv,
        "version": __version__,
    }
    print(f"theta0 = {report.theta0:.12f} rad")
    print(f"enclosure = ({report.enclosure.lo:.12f}, {report.enclosure.hi:.12f})")
    print(f"F(pi/10) = {_num(report.f_lo)}  F(pi/9) = {_num(report.f_hi)}")
    print(f"completeness sector: |arg c| < pi/2 + theta0 = {math.pi/2 + report.theta0:.12f}")
    if args.out:
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_scan(args, argv) -> int:
    lo = _angle(args.lo, args.degrees)
    hi = _angle(args.hi, args.degrees)
    rows = _csv_header(argv) + ["theta,f"]
    for k in range(args.steps):
        theta = lo + (hi - lo) * k / max(args.steps - 1, 1)
        rows.append(f"{_num(theta)},{_num(f_theta(theta))}")
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def _cmd_stokes(args, argv) -> int:
    if args.t_form is not None:
        pot = PotentialQuadratic.t_form(args.t_form)
    else:
        pot = PotentialQuadratic.z_form(_mod_2pi(_angle(args.psi, args.degrees)))
    graph = build_stokes_graph(pot, max_arclen=args.max_arclen)
    ray = None
    if args.gamma is not None:
        gamma = _angle(args.gamma, args.degrees)
        ray = gamma - (pot.psi if pot.kind == "z" else cmath.phase(pot.mu))
    if args.format == "json":
        payload = {
            "kind": pot.kind,
            "psi": pot.psi if pot.kind == "z" else _mod_2pi(cmath.phase(pot.mu)),
            "compound": graph.compound,
            "curves": [
                {
                    "origin": [c.origin.real, c.origin.imag],
                    "direction_index": c.direction_index,
                    "initial_angle": c.initial_angle,
                    "terminal": c.terminal,
                    "asymptotic_angle": c.asymptotic_angle,
                    "points": [[z.real, z.imag] for z in c.points],
                }
                for c in graph.curves
            ],
            "argv": argv,
            "version": __version__,
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit(render_stokes_svg(graph, ray), args.out)
    return 0


def _cmd_spectrum(args, argv) -> int:
    spec = OperatorSpec.for_modes(args.c, args.alpha, args.n)
    result = complex_spectrum(spec, args.n)
    sn = s_numbers(spec, args.n)
    rows = _csv_header(argv) + ["n,t_n,lambda_re,lambda_im,t_asymptotic,deviation,s_n"]
    for i in range(args.n):
        lam = result.eigenvalues[i]
        rows.append(
            ",".join(
                [
                    str(i + 1),
                    _num(result.t_values[i]),
                    _num(lam.real),
                    _num(lam.imag),
                    _num(t_asymptotic(i + 1, args.alpha)),
                    _num(result.asymptotic_deviation[i]),
                    _num(sn.values[i]),
                ]
            )
        )
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def _cmd_resolvent(args, argv) -> int:
    data = np.loadtxt(args.input, delimiter=",", comments="#")
    if data.ndim != 2 or data.shape[1] < 2:
        raise NumericsError("input CSV must have columns x,f_re[,f_im]")
    xs = data[:, 0]
    f_vals = data[:, 1] + (1j * data[:, 2] if data.shape[1] > 2 else 0.0)
    h = xs[1] - xs[0]
    if not np.allclose(np.diff(xs), h, rtol=0, atol=1e-9 * max(h, 1.0)) or abs(xs[0]) > 1e-12:
        raise NumericsError("input grid must be uniform and start at x = 0")
    spec = OperatorSpec(c=args.c, alpha=args.alpha, X=float(xs[-1]), grid_n=len(xs))
    y = apply_inverse(spec, SampledFunction(xs, f_vals))
    # forward-operator residual by central differences on the interior
    ypp = (y.values[:-2] - 2.0 * y.values[1:-1] + y.values[2:]) / h**2
    res = -ypp + args.c * xs[1:-1] ** args.alpha * y.values[1:-1] - f_vals[1:-1]
    rel = float(np.max(np.abs(res)) / np.max(np.abs(f_vals)))
    rows = _csv_header(argv) + [
        f"# residual_max_rel: {_num(rel)}",
        f"# y_at_zero: {_num(abs(y.values[0]))}",
        "x,y_re,y_im",
    ]
    row = ",".join([_FMT] * 3).format
    rows += map(row, xs.tolist(), y.values.real.tolist(), y.values.imag.tolist())
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def _cmd_verify(args, argv) -> int:
    failures = 0
    lines = [f"# wkbspec {__version__} verification report"]
    for chk in verify_threshold_bounds():
        status = "PASS" if chk.passed else "FAIL"
        failures += 0 if chk.passed else 1
        lines.append(f"{status} {chk.name}: value={_num(chk.value)} bound={_num(chk.bound)}")

    routes_worst = route_equivalence(25)
    ok = routes_worst < 1e-11
    failures += 0 if ok else 1
    lines.append(f"{'PASS' if ok else 'FAIL'} route_equivalence: worst={_num(routes_worst)} bound={_num(1e-11)}")

    gamma = _angle(args.gamma, args.degrees)
    checks = classify_crossings(gamma, args.per_regime)
    bad = sum(1 for chk in checks if not chk.matches)
    failures += bad
    lines.append(
        f"{'PASS' if bad == 0 else 'FAIL'} crossing_classification: {len(checks) - bad}/{len(checks)} "
        f"psi points match (gamma={gamma:.12f})"
    )

    extremum_worst = max((chk.extremum_error for chk in checks if chk.extremum_error is not None), default=0.0)
    ok = extremum_worst < 1e-8
    failures += 0 if ok else 1
    lines.append(f"{'PASS' if ok else 'FAIL'} extremum_location: worst={_num(extremum_worst)} bound={_num(1e-8)}")

    lines.append(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failure(s)")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: parse_args keeps no state."""
    p = argparse.ArgumentParser(prog="wkbspec", description=__doc__)
    p.add_argument("--version", action="version", version=f"wkbspec {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("theta0", help="solve the threshold equation")
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--out", default=None, help="write the JSON report here")
    sp.set_defaults(func=_cmd_theta0)

    sp = sub.add_parser("scan", help="tabulate F(theta) on a grid")
    sp.add_argument("--from", dest="lo", type=float, required=True)
    sp.add_argument("--to", dest="hi", type=float, required=True)
    sp.add_argument("--steps", type=_positive_int, required=True)
    sp.add_argument("--degrees", action="store_true")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_scan)

    sp = sub.add_parser("stokes", help="trace a Stokes graph")
    sp.add_argument("--psi", type=float, default=0.0)
    sp.add_argument("--t-form", type=_parse_complex, default=None, metavar="RE,IM",
                    help="use p(t) = t^2 - mu t with this mu instead of the z-form")
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--degrees", action="store_true")
    sp.add_argument("--max-arclen", type=float, default=12.0,
                    help="arclength cap of an escaping curve, in units of max(1, |t2 - t1|), the "
                         "distance between the turning points (1 for the z-form, max(1, |mu|) "
                         "for the t-form); default 12")
    sp.add_argument("--format", choices=("svg", "json"), default="svg")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_stokes)

    sp = sub.add_parser("spectrum", help="eigenvalue table")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--c", type=_parse_complex, required=True, metavar="RE,IM")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("resolvent", help="apply the inverse operator to sampled data")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--c", type=_parse_complex, required=True, metavar="RE,IM")
    sp.add_argument("--input", required=True, help="CSV with columns x,f_re[,f_im]")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_resolvent)

    sp = sub.add_parser("verify", help="threshold identities plus the geometric sweep")
    sp.add_argument("--per-regime", type=_positive_int, default=50)
    sp.add_argument("--gamma", type=float, default=math.pi / 8.0)
    sp.add_argument("--degrees", action="store_true")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_verify)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, argv)
    except (NumericsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
