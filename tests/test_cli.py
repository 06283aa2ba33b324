import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wkbspec
from wkbspec import OperatorSpec, SampledFunction, __version__, apply_inverse
from wkbspec._table import fmt_columns
from wkbspec.cli import _build_parser, _num, main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_theta0_stdout_and_json(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, _ = run(["theta0", "--tol", "1e-10", "--out", str(out_file)], capsys)
    assert code == 0
    assert "theta0 = 0.318939790" in out
    payload = json.loads(out_file.read_text())
    assert math.pi / 10.0 < payload["theta0"] < math.pi / 9.0
    assert payload["f_at_lo"] < 0.0 < payload["f_at_hi"]
    assert len(payload["f_samples"]) == 100


def test_scan_csv_deterministic(capsys):
    argv = ["scan", "--from", "0", "--to", "0.5", "--steps", "11"]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2  # identical argv, byte-identical output
    lines = [l for l in out1.splitlines() if not l.startswith("#")]
    assert lines[0] == "theta,f"
    assert len(lines) == 12
    theta0, f0 = (float(v) for v in lines[1].split(","))
    assert theta0 == 0.0
    assert abs(f0 + math.sqrt(2.0) * math.pi / 16.0) < 1e-14


def test_scan_header_records_argv(tmp_path):
    f1 = tmp_path / "a.csv"
    main(["scan", "--from", "0", "--to", "0.1", "--steps", "2", "--out", str(f1)])
    head = f1.read_text().splitlines()[:2]
    assert head[0].startswith("# argv: scan --from 0 --to 0.1")
    assert head[1].startswith("# version: wkbspec ")


def test_stokes_svg(tmp_path, capsys):
    out_file = tmp_path / "graph.svg"
    code, _, _ = run(
        ["stokes", "--psi", "0.6283", "--gamma", "0.3927", "--out", str(out_file)], capsys
    )
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("<?xml")
    assert "<svg" in text and "</svg>" in text
    assert text.count("<polyline") == 6
    assert text.count("<circle") == 2
    assert "stroke-dasharray" in text  # the ray overlay


def test_stokes_json(tmp_path, capsys):
    out_file = tmp_path / "graph.json"
    code, _, _ = run(
        ["stokes", "--t-form", "0.809,0.588", "--format", "json", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert len(payload["curves"]) == 6
    assert payload["compound"] is False
    assert all(len(c["points"]) > 10 for c in payload["curves"])


def test_spectrum_table(tmp_path, capsys):
    out_file = tmp_path / "spec.csv"
    code, _, _ = run(
        ["spectrum", "--alpha", "2", "--c", "1,0", "--n", "3", "--out", str(out_file)], capsys
    )
    assert code == 0
    rows = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
    assert rows[0].split(",")[:2] == ["n", "t_n"]
    t_vals = [float(r.split(",")[1]) for r in rows[1:]]
    np.testing.assert_allclose(t_vals, [3.0, 7.0, 11.0], atol=1e-7)
    s_vals = [float(r.split(",")[6]) for r in rows[1:]]
    np.testing.assert_allclose(s_vals, [1 / 3, 1 / 7, 1 / 11], atol=1e-7)


def test_resolvent_roundtrip(tmp_path, capsys):
    xs = np.linspace(0.0, 12.0, 6001)
    f_csv = tmp_path / "f.csv"
    np.savetxt(f_csv, np.column_stack([xs, np.exp(-4.0 * (xs - 3.0) ** 2)]), delimiter=",", fmt="%.15e")
    out_file = tmp_path / "y.csv"
    code, _, _ = run(
        [
            "resolvent",
            "--alpha", "0.6666666666666666",
            "--c", "0.5,0.8660254037844386",
            "--input", str(f_csv),
            "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    text = out_file.read_text().splitlines()
    resid_line = next(l for l in text if l.startswith("# residual_max_rel:"))
    assert float(resid_line.split(":")[1]) < 1e-5
    zero_line = next(l for l in text if l.startswith("# y_at_zero:"))
    assert float(zero_line.split(":")[1]) == 0.0
    # the table, 6001 rows over six chunks of fmt_columns, against one _num per float
    xs, f = np.loadtxt(f_csv, delimiter=",").T
    spec = OperatorSpec(c=0.5 + 0.8660254037844386j, alpha=0.6666666666666666, X=float(xs[-1]), grid_n=len(xs))
    y = apply_inverse(spec, SampledFunction(xs, f)).values
    rows = [f"{_num(a)},{_num(b)},{_num(c)}" for a, b, c in zip(xs, y.real, y.imag)]
    assert text[text.index("x,y_re,y_im") + 1:] == rows


def _per_row(*cols):
    return "".join(",".join(map(_num, row)) + "\n" for row in zip(*cols))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda k: st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * k), min_size=1, max_size=30)))
def test_fmt_columns_matches_per_row_formatting(rows):
    cols = list(zip(*rows))
    assert fmt_columns(*cols) == _per_row(*cols)


def test_fmt_columns_edge_values():
    edges = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             1e23, 9.999999999999999e-05, 12345678901234565.0, 0.5, 2.5, 1e16 - 2.0,
             1234567890123456.5, 1234567890123457.5]  # the last two are ties, to even
    for k in range(-300, 301):
        p = float(f"1e{k}")
        edges += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    edges = np.array(edges)
    assert fmt_columns(edges, -edges) == _per_row(edges, -edges)
    assert fmt_columns([1e23]) == "9.999999999999999e+22\n"
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            fmt_columns([1.0, bad])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_resolvent_zero_rhs(tmp_path, capsys):
    xs = np.linspace(0.0, 12.0, 1201)
    f_csv = tmp_path / "f.csv"
    np.savetxt(f_csv, np.column_stack([xs, 0.0 * xs]), delimiter=",")
    code, out, err = run(["resolvent", "--alpha", "0.6666666666666666", "--c", "0.5,0.8660254037844386",
                          "--input", str(f_csv)], capsys)
    assert code == 0, err
    assert "# residual_max_rel: 0.000000000000000e+00\n" in out
    table = np.array([row.split(",") for row in out.split("x,y_re,y_im\n")[1].splitlines()], dtype=float)
    assert table.shape == (len(xs), 3) and not np.any(table[:, 1:])
    assert "-0." not in out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_resolvent_overflowing_rhs_exits_1(tmp_path, capsys):
    xs = np.linspace(0.0, 12.0, 1201)
    f_csv = tmp_path / "f.csv"
    np.savetxt(f_csv, np.column_stack([xs, 1e307 * np.exp(-((xs - 3.0) ** 2))]), delimiter=",")
    code, _, err = run(["resolvent", "--alpha", "0.6666666666666666", "--c", "0.5,0.8660254037844386",
                        "--input", str(f_csv)], capsys)
    assert code == 1
    assert "Green-kernel result y overflowed" in err


def test_resolvent_rejects_bad_grid(tmp_path, capsys):
    xs = np.linspace(1.0, 2.0, 64)  # does not start at 0
    f_csv = tmp_path / "f.csv"
    np.savetxt(f_csv, np.column_stack([xs, xs]), delimiter=",", fmt="%.15e")
    code, _, err = run(
        ["resolvent", "--alpha", "1", "--c", "1,0", "--input", str(f_csv)], capsys
    )
    assert code == 1
    assert "error:" in err


def test_verify_deterministic_and_green(tmp_path, capsys):
    f1, f2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
    assert main(["verify", "--per-regime", "3", "--out", str(f1)]) == 0
    assert main(["verify", "--per-regime", "3", "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert "OK: 0 failure(s)" in f1.read_text()


def test_verify_large_gamma(tmp_path):
    # the extremum scan window grows like 1/sin(4 gamma), and the crossings come from
    # the closed-form action with no arclength budget, so gamma in
    # [0.75, pi/4), where the crossings recede like 1/sin(4 gamma), passes
    out = tmp_path / "v.txt"
    for gamma in ("0.73", "0.76", "0.78"):
        assert main(["verify", "--per-regime", "3", "--gamma", gamma, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert all(ln.startswith("PASS") for ln in lines[1:-1]) and lines[-1] == "OK: 0 failure(s)"


def test_stokes_near_axis_mu_is_not_compound(tmp_path):
    # arg mu = -3.9e-4: Re S(mu) is 7.8e-4 of |S(mu)|, so no finite curve
    # joins the turning points, although a curve from 0 passes 8.6e-3 from mu
    out = tmp_path / "graph.json"
    argv = ["stokes", "--t-form=1.4514109985470574,-0.0005641672065444371", "--format", "json"]
    assert main(argv + ["--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["compound"] is False
    assert [c["terminal"] for c in payload["curves"]] == ["infinity"] * 6


@pytest.mark.parametrize(
    "argv", [["--t-form=1000,0.3"], ["--t-form=100,0"], ["--psi", "0.3", "--max-arclen", "1e8"]],
    ids=["mu-1000", "mu-100", "arclen-1e8"],
)
def test_stokes_far_apart_and_far_out(argv, tmp_path):
    # the closed-form action lost S to cancellation next to the launch when
    # the turning points are far apart, and took the log of 0 at |z| ~ 3e7
    out = tmp_path / "graph.json"
    assert main(["stokes", *argv, "--format", "json", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["curves"]) == 6


@pytest.mark.parametrize(
    "argv, ref_argv",
    [
        (["--psi=-1e-20"], ["--psi=0"]),
        (["--psi=-1e-18", "--degrees"], ["--psi=0"]),
        (["--t-form=1,-1e-20"], ["--t-form=1,0"]),
    ],
    ids=["psi", "psi-degrees", "t-form"],
)
def test_stokes_psi_just_below_zero_is_zero(argv, ref_argv, capsys):
    # x % (2 pi) rounds up to exactly 2 pi for a tiny negative x
    code, out, err = run(["stokes", *argv, "--format", "json"], capsys)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["psi"] == 0.0
    _, ref, _ = run(["stokes", *ref_argv, "--format", "json"], capsys)
    ref = json.loads(ref)
    assert payload["compound"] == ref["compound"]
    for curve, ref_curve in zip(payload["curves"], ref["curves"], strict=True):
        assert curve["terminal"] == ref_curve["terminal"]
        assert curve["asymptotic_angle"] == ref_curve["asymptotic_angle"]
        np.testing.assert_allclose(curve["points"], ref_curve["points"], rtol=0, atol=1e-12)


def test_bad_arguments_exit_2(capsys):
    assert main(["spectrum", "--alpha", "2"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["spectrum", "--alpha", "2", "--c", "zz", "--n", "1"]) == 2
    # counts that would verify or tabulate nothing
    for count in ("0", "-1"):
        assert main(["verify", "--per-regime", count]) == 2
        assert main(["scan", "--from", "0", "--to", "0.1", "--steps", count]) == 2


def test_theta0_nan_tolerance_exits_1(capsys):
    code, out, err = run(["theta0", "--tol", "nan"], capsys)
    assert code == 1
    assert "theta0 =" not in out and "error:" in err


@pytest.mark.parametrize("arclen", ["0", "-1", "nan", "inf"])
def test_stokes_rejects_bad_max_arclen(arclen, capsys):
    for psi in ("0", "0.3"):
        code, out, err = run(["stokes", "--psi", psi, "--max-arclen", arclen, "--format", "json"], capsys)
        assert code == 1
        assert out == "" and "max_arclen" in err


@pytest.mark.parametrize("flag", ["--psi", "--gamma"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_stokes_rejects_non_finite_angles(flag, value, tmp_path, capsys):
    out_file = tmp_path / "g.svg"
    code, out, err = run(["stokes", f"{flag}={value}", "--out", str(out_file)], capsys)
    assert code == 1
    assert "finite" in err and not out_file.exists()


def _scan_thetas(out):
    return [float(l.split(",")[0]) for l in out.splitlines() if l[:1].isdigit()]


def test_parser_reused_without_state(tmp_path, capsys):
    # one parser serves every call; no option of one call leaks into the next
    assert _build_parser() is _build_parser()
    code, out, _ = run(["scan", "--from", "0", "--to", "20", "--steps", "2", "--degrees"], capsys)
    assert code == 0 and _scan_thetas(out) == [0.0, math.radians(20.0)]
    code, out, _ = run(["scan", "--from", "0", "--to", "0.3", "--steps", "2"], capsys)
    assert code == 0 and _scan_thetas(out) == [0.0, 0.3]

    svg = tmp_path / "ray.svg"
    assert main(["stokes", "--psi", "0.6", "--gamma", "0.4", "--out", str(svg)]) == 0
    assert "stroke-dasharray" in svg.read_text()
    assert main(["stokes", "--psi", "0.6", "--out", str(svg)]) == 0
    assert "stroke-dasharray" not in svg.read_text()

    code, out, err = run(["scan", "--from", "zero", "--to", "0.3", "--steps", "2"], capsys)
    assert code == 2 and out == "" and "--from" in err
    code, out, _ = run(["scan", "--from", "0.1", "--to", "0.3", "--steps", "3"], capsys)
    assert code == 0 and _scan_thetas(out) == [0.1, 0.2, 0.3]

    for _ in range(2):
        code, out, _ = run(["--version"], capsys)
        assert code == 0 and out == f"wkbspec {__version__}\n"


def test_parser_not_built_at_import():
    src = os.path.dirname(os.path.dirname(wkbspec.__file__))
    code = ("import sys, wkbspec.cli as c; assert c._build_parser.cache_info().currsize == 0; "
            "assert 'wkbspec._table' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})
