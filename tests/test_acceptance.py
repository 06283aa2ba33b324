"""Acceptance suite: one criterion per test, executed in order, each
printing a single PASS/FAIL line (run with -s to see them live).

Shared heavy computations (the alpha = 2/3 reference spectrum) are cached
by the library itself, so later criteria reuse the earlier work; criterion
5 clears that cache first so its runtime bound is measured cold.
"""

import cmath
import math
import time

import numpy as np
import pytest

from wkbspec.cli import main as cli_main
from wkbspec.spectrum import (
    OperatorSpec,
    SampledFunction,
    _real_spectrum_cached,
    apply_inverse,
    homogeneous_pair,
    real_spectrum,
    complex_spectrum,
    s_numbers,
    t_asymptotic,
)
from wkbspec.stokes import classify_crossings
from wkbspec.threshold import f_theta, route_equivalence, solve_theta0, verify_threshold_bounds

GAMMA = math.pi / 8.0
ALPHA_23 = 2.0 / 3.0


def _report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_theta0_enclosure():
    t0 = time.perf_counter()
    rep = solve_theta0(1e-10)
    elapsed = time.perf_counter() - t0
    ok = (
        math.pi / 10.0 < rep.theta0 < math.pi / 9.0
        and rep.enclosure.lo >= math.pi / 10.0
        and rep.enclosure.hi <= math.pi / 9.0
        and rep.enclosure.width < 1e-10
        and rep.f_lo < 0.0 < rep.f_hi
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"theta0={rep.theta0:.12f} in (pi/10, pi/9), F(pi/10)={rep.f_lo:.3e} < 0 < "
        f"F(pi/9)={rep.f_hi:.3e}, {elapsed:.2f} s",
    )


def test_criterion_02_f_at_zero():
    err = abs(f_theta(0.0) + math.sqrt(2.0) * math.pi / 16.0)
    _report(2, err < 1e-12, f"|F(0) + sqrt(2) pi/16| = {err:.2e} < 1e-12")


def test_criterion_03_route_equivalence():
    t0 = time.perf_counter()
    worst = route_equivalence(100)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-11 and elapsed < 5.0
    _report(3, ok, f"three routes agree to {worst:.2e} on 100 thetas, {elapsed:.2f} s")


def test_criterion_04_identity_suite():
    checks = verify_threshold_bounds()
    by_name = {c.name: c for c in checks}
    ok = all(c.passed for c in checks)
    ok = ok and by_name["quotient_pi_9"].value < 1.0
    ok = ok and by_name["final_inequality_1"].value < -10.0
    ok = ok and by_name["final_inequality_2"].value < 10.0
    detail = ", ".join(f"{c.name}={'ok' if c.passed else 'BAD'}" for c in checks)
    _report(4, ok, detail)


def test_criterion_05_exactly_solvable_spectra():
    _real_spectrum_cached.cache_clear()
    t0 = time.perf_counter()
    t_alpha2 = real_spectrum(2.0, 10)
    t_alpha1 = real_spectrum(1.0, 1)[0]
    elapsed = time.perf_counter() - t0
    worst2 = max(abs(t - (4.0 * n - 1.0)) for n, t in enumerate(t_alpha2, start=1))

    # independent Airy oracle: Maclaurin series + bisection
    def airy(x):
        f_t = f_s = 1.0
        g_t = g_s = x
        x3 = x**3
        for k in range(60):
            f_t *= x3 / ((3 * k + 2) * (3 * k + 3))
            f_s += f_t
            g_t *= x3 / ((3 * k + 3) * (3 * k + 4))
            g_s += g_t
        return (
            3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0) * f_s
            - 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0) * g_s
        )

    lo, hi = 2.0, 3.0
    flo = airy(-lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if flo * airy(-mid) <= 0.0:
            hi = mid
        else:
            lo, flo = mid, airy(-mid)
    airy_zero = 0.5 * (lo + hi)
    err1 = abs(t_alpha1 - airy_zero)
    ok = worst2 < 1e-8 and err1 < 1e-7 and elapsed < 10.0
    _report(
        5,
        ok,
        f"alpha=2: max|t_n-(4n-1)|={worst2:.2e} (n<=10); alpha=1: |t_1-{airy_zero:.9f}|="
        f"{err1:.2e}; {elapsed:.2f} s",
    )


@pytest.fixture(scope="module")
def alpha23_reference():
    return real_spectrum(ALPHA_23, 40)


def test_criterion_06_asymptotic_law(alpha23_reference):
    dev = [
        abs(t / t_asymptotic(n, ALPHA_23) - 1.0)
        for n, t in enumerate(alpha23_reference[:20], start=1)
    ]
    ok = all(d < 0.02 for d in dev[4:]) and dev[19] < dev[4]
    _report(
        6,
        ok,
        f"alpha=2/3 deviation: n=5 {dev[4]:.4f}, n=20 {dev[19]:.4f}, all<0.02 for n>=5",
    )


def test_criterion_07_scaling_law(alpha23_reference):
    t_ref = alpha23_reference[:5]
    worst_t = worst_arg = 0.0
    for arg_c in (math.pi / 4.0, math.pi / 2.0, math.pi / 2.0 + 0.3):
        c = cmath.exp(1j * arg_c)
        spec = OperatorSpec.for_modes(c, ALPHA_23, 5)
        res = complex_spectrum(spec, 5)
        scale = cmath.exp(0.75 * cmath.log(c))
        for n, lam in enumerate(res.eigenvalues):
            worst_t = max(worst_t, abs(lam / scale - t_ref[n]) / t_ref[n])
            worst_arg = max(worst_arg, abs(cmath.phase(lam) - 0.75 * arg_c))
    ok = worst_t < 1e-6 and worst_arg < 1e-6
    _report(
        7,
        ok,
        f"|lambda_n/c^(3/4) - t_n|/t_n <= {worst_t:.2e}, |arg lambda - (3/4) arg c| <= {worst_arg:.2e}",
    )


def test_criterion_08_crossing_classification():
    n = 50
    checks = classify_crossings(GAMMA, n)
    assert [chk.regime for chk in checks] == [1] * n + [2] * n + [3] * n
    bad = sum(1 for chk in checks if not chk.matches)
    worst_ext = max(chk.extremum_error for chk in checks if chk.regime != 2)
    ok = bad == 0 and worst_ext < 1e-8
    _report(
        8,
        ok,
        f"{3 * n - bad}/{3 * n} psi points classified correctly; extremum match {worst_ext:.2e}",
    )


def test_criterion_09_resolvent():
    c = cmath.exp(1j * math.pi / 3.0)
    spec = OperatorSpec(c=c, alpha=ALPHA_23, X=12.0, grid_n=6001)
    xs = spec.grid()
    f_vals = np.exp(-4.0 * (xs - 3.0) ** 2).astype(complex)
    y = apply_inverse(spec, SampledFunction(xs, f_vals))
    h = xs[1] - xs[0]
    ypp = (y.values[:-2] - 2.0 * y.values[1:-1] + y.values[2:]) / h**2
    residual = -ypp + c * xs[1:-1] ** ALPHA_23 * y.values[1:-1] - f_vals[1:-1]
    rel = float(np.max(np.abs(residual)) / np.max(np.abs(f_vals)))
    u, up, v, vp = homogeneous_pair(spec)
    w = v * up - vp * u
    w0 = w[len(w) // 2]
    drift = float(np.max(np.abs(w - w0)) / abs(w0))
    ok = rel < 1e-5 and y.values[0] == 0.0 and drift < 1e-6
    _report(
        9,
        ok,
        f"forward-difference residual {rel:.2e} < 1e-5, y(0) = {abs(y.values[0]):.1e} exactly, "
        f"Wronskian drift {drift:.2e} < 1e-6",
    )


def test_criterion_10_s_number_decay(alpha23_reference):
    spec = OperatorSpec.for_modes(1.0 + 0j, ALPHA_23, 40)
    rep = s_numbers(spec, 40)
    ns = np.arange(10, 41, dtype=float)
    slope = float(np.polyfit(np.log(ns), np.log(np.array(rep.values[9:41])), 1)[0])
    ok = abs(slope + 0.5) < 0.05
    _report(10, ok, f"log-log slope over n in [10,40]: {slope:.4f} = -1/2 +/- 0.05")


def test_criterion_11_verify_determinism(tmp_path):
    f1, f2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
    code1 = cli_main(["verify", "--per-regime", "4", "--out", str(f1)])
    code2 = cli_main(["verify", "--per-regime", "4", "--out", str(f2)])
    same = f1.read_bytes() == f2.read_bytes()
    ok = code1 == 0 and code2 == 0 and same
    _report(11, ok, f"two verify runs exit {code1},{code2} and are byte-identical: {same}")
