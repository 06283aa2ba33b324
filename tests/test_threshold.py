import cmath
import math

import pytest

from wkbspec.actions import half_line_integral_split
from wkbspec import threshold
from wkbspec.errors import SignAnomalyError
from wkbspec.threshold import (
    THETA_HI,
    THETA_LO,
    completeness_verdict,
    f_theta,
    f_theta_routes,
    route_equivalence,
    solve_theta0,
    verify_threshold_bounds,
)


def test_f_at_zero_exact():
    assert abs(f_theta(0.0) + math.sqrt(2.0) * math.pi / 16.0) < 1e-12


def test_f_domain():
    with pytest.raises(ValueError):
        f_theta(-0.1)
    with pytest.raises(ValueError):
        f_theta(math.pi / 6.0)


def test_endpoint_signs():
    assert f_theta(THETA_LO) < 0.0
    assert f_theta(THETA_HI) > 0.0


def test_upper_limit_positive():
    # theta -> pi/6: F tends to the positive real integral value
    re_i, _ = half_line_integral_split(1.0 / math.sqrt(3.0))
    assert abs(f_theta(math.pi / 6.0 - 1e-9) - re_i) < 1e-6
    assert re_i > 0.0


_MP_THETAS = [0.0, 1e-12, 1e-8, 1e-3, 0.1, math.pi / 10.0, 0.3189, math.pi / 9.0, 0.45, math.pi / 6.0 - 1e-12]


@pytest.mark.parametrize("theta", _MP_THETAS)
def test_f_theta_matches_mpmath(theta):
    # F from I = int_0^{tan theta} sqrt(t^2 - i t) dt by tanh-sinh quadrature
    # at 40 digits; both the closed form and the split quadrature are within
    # 6.4e-17 at these points
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        th = mpmath.mpf(theta)
        psi2 = 2 * (mpmath.pi / 8 - 3 * th / 4)
        i_val = mpmath.quad(lambda t: mpmath.sqrt(t * t - 1j * t), [0, mpmath.tan(th)])
        ref = -mpmath.sin(psi2) * (mpmath.pi / 8 + i_val.imag) + mpmath.cos(psi2) * i_val.real
        assert abs(f_theta(theta) - ref) < 2e-16
        assert abs(f_theta_routes(theta)["split"] - ref) < 2e-16


@pytest.mark.parametrize("theta", _MP_THETAS)
def test_split_route_is_the_split_quadrature(theta):
    # the split route must stay the quadrature, not the closed form of f_theta
    psi2 = 2.0 * (math.pi / 8.0 - 0.75 * theta)
    re_i, im_i = half_line_integral_split(math.tan(theta))
    expected = -math.sin(psi2) * (math.pi / 8.0 + im_i) + math.cos(psi2) * re_i
    assert f_theta_routes(theta)["split"] == expected


def test_elementary_check_uses_the_split_quadrature(monkeypatch):
    # check (h) compares the elementary F(pi/10) with the quadrature, not with
    # the closed form that f_theta shares with it
    seen = []

    def spy(x):
        seen.append(x)
        return half_line_integral_split(x)

    monkeypatch.setattr(threshold, "half_line_integral_split", spy)
    verify_threshold_bounds()
    assert math.tan(THETA_LO) in seen


@pytest.mark.parametrize("theta", [0.0, 0.05, THETA_LO, 0.32, THETA_HI, 0.5])
def test_route_equivalence_pointwise(theta):
    routes = f_theta_routes(theta)
    assert abs(routes["split"] - routes["action"]) < 1e-11
    assert abs(routes["split"] - routes["closed"]) < 1e-11


def test_solve_theta0_report():
    rep = solve_theta0(1e-10)
    assert THETA_LO <= rep.enclosure.lo < rep.theta0 < rep.enclosure.hi <= THETA_HI
    assert rep.enclosure.width < 1e-10
    assert rep.f_lo < 0.0 < rep.f_hi
    assert abs(f_theta(rep.theta0)) < 1e-9
    assert len(rep.f_samples) == 100


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
def test_solve_theta0_rejects_bad_tolerance(tol):
    # a NaN tolerance passes every `tol <= 0` check and ends bisection at once
    with pytest.raises(ValueError):
        solve_theta0(tol)


def test_solve_theta0_refuses_tolerance_below_float_spacing():
    # the float spacing at pi/9 is 5.6e-17; before, 1e-17 ran all rounds and then
    # raised ConvergenceError
    with pytest.raises(ValueError, match="ulp"):
        solve_theta0(1e-17)
    assert solve_theta0(2e-16).enclosure.width <= 2e-16


def test_solve_theta0_tolerance_stability():
    t1 = solve_theta0(1e-8).theta0
    t2 = solve_theta0(5e-9).theta0
    assert abs(t1 - t2) < 1e-8


def test_grid_monotone_single_sign_change():
    rep = solve_theta0(1e-8)
    vals = [v for _, v in rep.f_samples]
    assert all(b > a for a, b in zip(vals[:-1], vals[1:]))
    changes = sum(1 for a, b in zip(vals[:-1], vals[1:]) if (a < 0.0) != (b < 0.0))
    assert changes == 1


def test_verdicts():
    v = completeness_verdict(1j)
    assert v.complete_by_threshold
    assert not v.classical_sector
    assert v.margin == pytest.approx(v.theta0)

    v = completeness_verdict(1.0)
    assert v.classical_sector and v.complete_by_threshold

    v = completeness_verdict(cmath.exp(1j * (math.pi / 2.0 + math.pi / 9.0)))
    assert not v.complete_by_threshold

    # classical sector always implies the threshold verdict
    for arg in (0.0, 0.3, 1.2, 1.5):
        v = completeness_verdict(cmath.exp(1j * arg))
        if v.classical_sector:
            assert v.complete_by_threshold


def test_verdict_domain():
    with pytest.raises(ValueError):
        completeness_verdict(0.0)
    with pytest.raises(ValueError):
        completeness_verdict(-2.0)


@pytest.mark.parametrize("c", [complex(math.nan, 1.0), complex(1.0, math.inf), math.inf, math.nan])
def test_verdict_rejects_non_finite_c(c):
    with pytest.raises(ValueError, match="c must be finite"):
        completeness_verdict(c)


def test_route_equivalence_is_the_worst_route_gap():
    # the sweep shared by `verify` and criterion 3: the worst of both gaps
    # to the split route, at theta_k = (pi/6 - 1e-9) k/(n - 1)
    n = 5
    expected = 0.0
    for k in range(n):
        r = f_theta_routes((math.pi / 6.0 - 1e-9) * k / (n - 1))
        expected = max(expected, abs(r["split"] - r["action"]), abs(r["split"] - r["closed"]))
    assert route_equivalence(n) == expected
    for bad in (0, 1):
        with pytest.raises(ValueError):
            route_equivalence(bad)


def test_all_threshold_checks_pass():
    checks = verify_threshold_bounds()
    assert len(checks) == 9
    for chk in checks:
        assert chk.passed, f"{chk.name}: value={chk.value}, bound={chk.bound}"


def test_threshold_consistency_with_enclosure():
    rep = solve_theta0(1e-12)
    # the root is strictly inside (pi/10, pi/9), not at either endpoint
    assert rep.theta0 - THETA_LO > 1e-3
    assert THETA_HI - rep.theta0 > 1e-3


def test_solve_theta0_matches_mpmath():
    # independent oracle: F at 30 digits by tanh-sinh quadrature, zero by
    # mpmath.findroot on the same bracket
    mpmath = pytest.importorskip("mpmath")

    def f_mp(th):
        psi2 = 2 * (mpmath.pi / 8 - 3 * th / 4)
        i_val = mpmath.quad(lambda t: mpmath.sqrt(t * t - 1j * t), [0, mpmath.tan(th)])
        return -mpmath.sin(psi2) * (mpmath.pi / 8 + i_val.imag) + mpmath.cos(psi2) * i_val.real

    with mpmath.workdps(30):
        ref = mpmath.findroot(f_mp, (mpmath.pi / 10, mpmath.pi / 9), solver="anderson")
        rep = solve_theta0(1e-12)
        assert abs(rep.theta0 - float(ref)) < 1e-12
        assert rep.enclosure.lo <= ref <= rep.enclosure.hi
        assert rep.enclosure.width <= 1e-12
