import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wkbspec.errors import BracketError, OverflowGuardError
from wkbspec.numerics import (
    Bracket,
    Contour,
    refine_brackets,
)
from wkbspec.spectrum import _cosh_sinhc, _magnus, _magnus_terms, _shoot_many, _shooting_mesh


# ---------------------------------------------------------------------------
# contour and bracket types
# ---------------------------------------------------------------------------

def test_contour_validation():
    with pytest.raises(ValueError):
        Contour([1.0])
    with pytest.raises(ValueError):
        Contour([1.0, 1.0])
    with pytest.raises(ValueError):
        Contour([0.0, complex("inf")])
    assert Contour([0, 1, 1 + 1j]).nodes == (0j, 1 + 0j, 1 + 1j)


def test_bracket_validation():
    with pytest.raises(ValueError):
        Bracket(2.0, 1.0)
    assert Bracket(1.0, 2.0).width == 1.0


# ---------------------------------------------------------------------------
# Magnus transfer kernel
# ---------------------------------------------------------------------------

def _chain(c, alpha, nodes, lams, y, yp):
    """Apply the kernel's matrices over consecutive nodes, one interval at a time."""
    m = _magnus(_magnus_terms(c, alpha, nodes[:-1, None], nodes[1:, None]), np.asarray(lams)[None, :])
    for a, b, cc, d in zip(*m):
        y, yp = a * y + b * yp, cc * y + d * yp
    return y, yp


def test_ode_exponential():
    # c = 0, lam = -1: y'' = y, where a Magnus step is exact
    y, yp = _chain(0.0, 1.0, np.array([0.0, 0.4, 1.0]), [-1.0], 1.0, 1.0)
    assert abs(y[0] - math.e) < 1e-14 and abs(yp[0] - math.e) < 1e-14


def test_ode_linear_two_state():
    y, yp = _chain(0.0, 1.0, np.array([0.0, 2.5]), [0.0], 0.0, 1.0)
    assert_allclose([y[0], yp[0]], [2.5, 1.0], atol=1e-15)


def test_magnus_airy_ratio_matches_mpmath():
    # y'' = (x - lam) y: the solution decaying at infinity is Ai(x - lam),
    # integrated inward from its leading WKB pair at X = 16
    lams = np.array([1.0, 3.0, 5.0, 2.0 + 1.0j, 4.0 - 0.5j])
    X = 16.0
    y, yp = _chain(1.0, 1.0, np.linspace(X, 0.0, 4001), lams, (X - lams) ** -0.25, -((X - lams) ** 0.25))
    for lam, got in zip(lams, y / yp):
        want = complex(mpmath.airyai(-lam) / mpmath.airyai(-lam, derivative=1))
        assert abs(got - want) < 1e-9 * abs(want)


def test_magnus_sixth_order_convergence():
    # alpha = 2, lam = 3: exact eigenfunction x exp(-x^2/2), so y(0) = 0;
    # each halving of the step divides the error by about 2^6 = 64
    X = 6.0
    seed = (X * math.exp(-X * X / 2), (1.0 - X * X) * math.exp(-X * X / 2))
    errs = []
    for n in (25, 50, 100, 200):
        y, yp = _chain(1.0, 2.0, np.linspace(X, 0.0, n + 1), [3.0], *seed)
        errs.append(abs(y[0] / yp[0]))
    for coarse, fine in zip(errs[:-1], errs[1:]):
        assert 56.0 < coarse / fine < 72.0


@pytest.mark.parametrize("z", [0.0, 1e-3, -0.05, 1.0, -30.0, 200.0, 3.0 + 4.0j, -50.0 + 10.0j])
def test_cosh_sinhc_matches_mpmath(z):
    cosh, sinhc = _cosh_sinhc(np.array([z], dtype=complex))
    m = mpmath.sqrt(mpmath.mpc(z))
    want_cosh = complex(mpmath.cosh(m))
    want_sinhc = complex(mpmath.sinh(m) / m) if z != 0 else 1.0
    assert abs(cosh[0] - want_cosh) < 1e-14 * abs(want_cosh)
    assert abs(sinhc[0] - want_sinhc) < 1e-14 * abs(want_sinhc)


def test_shoot_overflow_guard():
    # lam = -1e12 grows like exp(1e6 x) inward: one step of the mesh grows by
    # about e^20000, past the double range before its factor can cancel it
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OverflowGuardError):
            _shoot_many(_shooting_mesh(2.0, 10.0), np.array([-1e12]))


# ---------------------------------------------------------------------------
# real roots
# ---------------------------------------------------------------------------

def _refine_one(f, lo, hi, tol):
    """refine_brackets on a single bracket; returns the final (lo, hi)."""
    (a,), (b,) = refine_brackets(np.vectorize(f, otypes=[float]), [lo], [hi], [f(lo)], [f(hi)], tol)
    return a, b


def test_root_sqrt2():
    lo, hi = _refine_one(lambda x: x * x - 2.0, 1.0, 2.0, 1e-12)
    assert abs(0.5 * (lo + hi) - math.sqrt(2.0)) < 1e-10
    assert lo <= math.sqrt(2.0) <= hi


def test_root_cos():
    lo, hi = _refine_one(math.cos, 1.0, 2.0, 1e-12)
    assert abs(0.5 * (lo + hi) - math.pi / 2.0) < 1e-10


def test_root_no_sign_change():
    with pytest.raises(BracketError):
        _refine_one(lambda x: x * x + 1.0, -1.0, 1.0, 1e-10)


@settings(deadline=None, max_examples=60)
@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=0.01, max_value=3.0),
    st.floats(min_value=0.01, max_value=3.0),
)
def test_root_stays_inside_bracket(r0, off_lo, off_hi):
    f = lambda x: (x - r0) * (1.0 + (x - r0) ** 2)
    b = Bracket(r0 - off_lo, r0 + off_hi)
    lo, hi = _refine_one(f, b.lo, b.hi, 1e-10)
    assert b.lo <= lo < hi <= b.hi
    assert hi - lo <= 1e-10
    assert f(lo) * f(hi) <= 0.0
    assert abs(0.5 * (lo + hi) - r0) < 1e-9


def test_refine_brackets_vectorized():
    targets = np.array([1.0, 2.0, 3.0])

    def f_many(xs):
        return (np.asarray(xs) - targets) ** 3 + (np.asarray(xs) - targets)

    lo = targets - 0.7
    hi = targets + 0.9
    lo, hi = refine_brackets(f_many, lo, hi, f_many(lo), f_many(hi), 1e-12)
    assert np.all(hi - lo <= 1e-12)
    assert_allclose(0.5 * (lo + hi), targets, atol=1e-10)


def test_refine_brackets_leaves_bisection_after_one_step():
    # a bisection halves the bracket, which never counts as the secant
    # shrinking it; the lane goes back to the secant after each bisection
    f = lambda xs: np.exp(10.0 * np.asarray(xs)) - math.exp(5.0)
    calls = []

    def f_many(xs):
        calls.append(len(xs))
        return f(xs)

    lo, hi = refine_brackets(f_many, [0.0], [1.0], f([0.0]), f([1.0]), 1e-12)
    assert len(calls) <= 20
    assert lo[0] <= 0.5 <= hi[0] and hi[0] - lo[0] <= 1e-12


def test_refine_brackets_evaluates_only_open_lanes():
    # the second bracket starts tol wide, so its lane is never shot
    seen = []

    def f_many(xs):
        seen.append(np.array(xs))
        return (xs - 0.3) * (xs - 0.6)

    lo, hi = np.array([0.0, 0.6 - 5e-13]), np.array([0.45, 0.6 + 5e-13])
    tol = hi[1] - lo[1]
    out_lo, out_hi = refine_brackets(f_many, lo, hi, f_many(lo), f_many(hi), tol)
    seen = seen[2:]  # the two end-value calls above
    assert seen and all(len(xs) == 1 and not lo[1] <= xs[0] <= hi[1] for xs in seen)
    assert out_lo[1] == lo[1] and out_hi[1] == hi[1]
    assert out_lo[0] <= 0.3 <= out_hi[0] and out_hi[0] - out_lo[0] <= tol


def test_refine_brackets_tiny_values():
    # the product of two values below ~1e-162 underflows to 0; the sides
    # must be chosen by sign
    f_many = lambda xs: 1e-200 * (np.asarray(xs) - 0.3)
    lo, hi = refine_brackets(f_many, [0.0], [1.0], f_many([0.0]), f_many([1.0]), 1e-12)
    assert lo[0] <= 0.3 <= hi[0] and hi[0] - lo[0] <= 1e-12
    with pytest.raises(BracketError):
        refine_brackets(f_many, [0.5], [1.0], f_many([0.5]), f_many([1.0]), 1e-12)


def test_refine_brackets_superlinear():
    # interpolation steps: far fewer calls than the 47 bisections from [1, 2] to 1e-14
    calls = []

    def f_many(xs):
        calls.append(len(xs))
        return np.asarray(xs) ** 2 - 2.0

    lo, hi = refine_brackets(f_many, [1.0], [2.0], [-1.0], [2.0], 1e-14)
    assert len(calls) <= 10
    assert lo[0] <= math.sqrt(2.0) <= hi[0] and hi[0] - lo[0] <= 1e-14
    # the last point lands just past the interpolated root: the bracket is far below tol
    assert abs(0.5 * (lo[0] + hi[0]) - math.sqrt(2.0)) < 1e-15


def test_refine_brackets_exact_zero_keeps_an_open_bracket():
    # the first (secant) step hits the root 0.5 exactly; the bracket must not collapse
    f_many = lambda xs: np.asarray(xs) - 0.5
    lo, hi = refine_brackets(f_many, [0.0], [1.0], [-0.5], [0.5], 1e-12)
    assert lo[0] < hi[0] and lo[0] <= 0.5 <= hi[0] and hi[0] - lo[0] <= 1e-12


def test_refine_brackets_refuses_tol_below_float_spacing():
    # ulp(15927) = 1.8e-12: no bracket of floats there narrows to 1e-12
    calls = []

    def f_many(xs):
        calls.append(len(xs))
        return np.asarray(xs) - 15927.3

    with pytest.raises(ValueError, match="ulp"):
        refine_brackets(f_many, [15927.0], [15928.0], [-0.3], [0.7], 1e-12)
    assert calls == []
    # one ulp is reachable: the bracket closes on two neighbouring floats
    ulp = float(np.spacing(15928.0))
    lo, hi = refine_brackets(f_many, [15927.0], [15928.0], [-0.3], [0.7], ulp)
    assert 0.0 < hi[0] - lo[0] <= ulp and lo[0] <= 15927.3 <= hi[0]


def test_solvers_reject_nan_tolerance():
    with pytest.raises(ValueError):
        refine_brackets(lambda x: x * x - 2.0, [1.0], [2.0], [-1.0], [2.0], math.nan)
