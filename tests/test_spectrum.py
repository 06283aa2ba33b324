import cmath
import gc
import math
import time
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from wkbspec.errors import BracketError, OverflowGuardError, WronskianError
from wkbspec.spectrum import (
    OperatorSpec,
    SampledFunction,
    apply_inverse,
    bs_constant,
    complex_spectrum,
    default_truncation,
    eigenfunction,
    homogeneous_pair,
    real_spectrum,
    s_numbers,
    t_asymptotic,
)
from wkbspec.spectrum import (
    _admit,
    _magnus,
    _magnus_terms,
    _march_nodes,
    _mesh,
    _mesh_size,
    _mode_window,
    _oscillation_count,
    _prufer_sine,
    _shoot_many,
    _shooting_mesh,
)

ALPHA_23 = 2.0 / 3.0


# ---------------------------------------------------------------------------
# independent oracle: Airy function by Maclaurin series + bisection
# ---------------------------------------------------------------------------

def airy_series(x: float) -> float:
    """Ai(x) from its Maclaurin series (stdlib gamma only)."""
    f_term, f_sum = 1.0, 1.0
    g_term, g_sum = x, x
    x3 = x * x * x
    for k in range(0, 60):
        f_term *= x3 / ((3 * k + 2) * (3 * k + 3))
        f_sum += f_term
        g_term *= x3 / ((3 * k + 3) * (3 * k + 4))
        g_sum += g_term
        if abs(f_term) < 1e-18 and abs(g_term) < 1e-18:
            break
    ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    aip0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
    return ai0 * f_sum + aip0 * g_sum


def first_airy_zero() -> float:
    lo, hi = 2.0, 3.0
    flo = airy_series(-lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = airy_series(-mid)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def test_airy_oracle_sanity():
    # the series oracle itself, pinned against the classical value
    assert abs(first_airy_zero() - 2.33810741045977) < 1e-11
    assert abs(airy_series(0.0) - 0.3550280538878172) < 1e-14


# ---------------------------------------------------------------------------
# Bohr-Sommerfeld constant and asymptotics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "alpha, expected",
    [(2.0, math.pi / 4.0), (1.0, 2.0 / 3.0), (ALPHA_23, 3.0 * math.pi / 16.0)],
)
def test_bs_constant_closed_values(alpha, expected):
    assert_allclose(bs_constant(alpha), expected, rtol=1e-13)


@pytest.mark.parametrize("alpha", [0.3, 0.5, ALPHA_23, 1.0, 1.5, 2.0, 3.0, 7.0])
def test_bs_constant_vs_quadrature(alpha):
    # mpmath's tanh-sinh rule handles the sqrt end-point singularity at u = 1
    exact = mpmath.quad(lambda u: mpmath.sqrt(1 - u**alpha), [0, 1])
    assert abs(bs_constant(alpha) - float(exact)) < 1e-12


def test_t_asymptotic_alpha2_is_exact_odd_oscillator():
    for n in range(1, 8):
        assert_allclose(t_asymptotic(n, 2.0), 4.0 * n - 1.0, rtol=1e-13)


def test_t_asymptotic_values():
    assert_allclose(t_asymptotic(1, ALPHA_23), 2.0, rtol=1e-13)
    assert_allclose(t_asymptotic(1, 1.0), (0.75 * 1.5 * math.pi) ** (2.0 / 3.0), rtol=1e-13)


def test_t_asymptotic_alpha1_tracks_airy_zeros():
    # [(n - 1/4) 3 pi / 2]^{2/3} is the classical Airy-zero expansion; the
    # residual decays like n^{-2}
    for n, a_n in ((1, 2.33810741045977), (2, 4.08794944413097), (3, 5.52055982809555)):
        assert abs(t_asymptotic(n, 1.0) / a_n - 1.0) < 1e-2 / n**2


# ---------------------------------------------------------------------------
# real spectrum
# ---------------------------------------------------------------------------

def test_real_spectrum_alpha2_odd_oscillator():
    ts = real_spectrum(2.0, 5)
    assert_allclose(ts, [3.0, 7.0, 11.0, 15.0, 19.0], atol=1e-8)


def test_real_spectrum_alpha1_first_airy_zero():
    t1 = real_spectrum(1.0, 1)[0]
    assert abs(t1 - first_airy_zero()) < 1e-7


def test_real_spectrum_truncation_robustness():
    t_hi = 1.3 * t_asymptotic(3, ALPHA_23)
    x_def = default_truncation(ALPHA_23, t_hi)
    a = real_spectrum(ALPHA_23, 3, X=x_def)
    b = real_spectrum(ALPHA_23, 3, X=1.3 * x_def)
    for ta, tb in zip(a, b):
        assert abs(ta - tb) < 1e-8


def test_real_spectrum_rejects_small_truncation():
    with pytest.raises(ValueError):
        real_spectrum(2.0, 3, X=2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_inputs_rejected(bad):
    with pytest.raises(ValueError, match="alpha"):
        OperatorSpec(c=1.0, alpha=bad, X=10.0)
    with pytest.raises(ValueError, match="X"):
        OperatorSpec(c=1.0, alpha=ALPHA_23, X=bad)
    for c in (complex(bad, 0.0), complex(1.0, bad), bad):
        with pytest.raises(ValueError, match="c must be finite"):
            OperatorSpec(c=c, alpha=ALPHA_23, X=10.0)
        with pytest.raises(ValueError, match="c must be finite"):
            OperatorSpec.for_modes(c, ALPHA_23, 3)
    with pytest.raises(ValueError, match="alpha"):
        bs_constant(bad)
    with pytest.raises(ValueError, match="alpha"):
        t_asymptotic(3, bad)
    with pytest.raises(ValueError, match="alpha"):
        real_spectrum(bad, 3)
    with pytest.raises(ValueError, match="alpha"):
        default_truncation(bad, 5.0)
    with pytest.raises(ValueError, match="t_top"):
        default_truncation(ALPHA_23, bad)


def test_spectra_reject_nan_tolerance():
    with pytest.raises(ValueError):
        real_spectrum(2.0, 3, tol=math.nan)


def test_real_spectrum_alpha1_airy_zeros():
    # independent oracle: t_n = -a_n, the zeros of Ai
    ts = real_spectrum(1.0, 20)
    for n, t in enumerate(ts, start=1):
        assert abs(t + float(mpmath.airyaizero(n))) < 1e-9


def test_real_spectrum_alpha1_airy_zeros_to_mode_100():
    # the mesh grows with the window top, so high modes keep their accuracy
    ts = np.array(real_spectrum(1.0, 100))
    airy = -np.array([float(mpmath.airyaizero(n)) for n in range(1, 101)])
    assert np.max(np.abs(ts / airy - 1.0)) < 1e-11


def test_real_spectrum_alpha2_exact_to_mode_100():
    ts = np.array(real_spectrum(2.0, 100))
    assert np.max(np.abs(ts / (4.0 * np.arange(1, 101) - 1.0) - 1.0)) < 1e-11


def test_real_spectrum_refuses_tol_below_float_spacing():
    # t_100 is about 15927 at alpha 10, where the float spacing is 1.8e-12; before,
    # all 90 rounds ran and then ConvergenceError was raised
    with pytest.raises(ValueError, match="ulp"):
        real_spectrum(10.0, 100, tol=1e-12)


@pytest.mark.parametrize("alpha, n", [(20.0, 450), (10.0, 2000), (2.0, 10**7)])
def test_real_spectrum_refuses_tol_below_float_spacing_before_the_count(alpha, n):
    # 1e-10 is below one ulp of t_450 (1.16e-10) and of t_2000 (4.66e-10); the
    # refusal used to come from refine_brackets, after the mesh and the count
    # (0.6 s and 3.9 s), and the n + 1 bracket points of (2, 10**7) took 160 MB
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match="below the float spacing"):
            real_spectrum(alpha, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.05
    assert peak < 1e6


@pytest.mark.parametrize(
    "c, alpha, n, size",
    [(1.0, ALPHA_23, 3, 1000), (2.0, 1.0, 7, 1000), (0.5, 2.0, 8, 1000), (1.0, 2.0, 100, 2335), (1.0, 20.0, 100, 4033)],
)
def test_mesh_size_follows_the_rule(c, alpha, n, size):
    # N = max(1000, ceil(3 X sqrt(lam_top)), ceil(X sqrt|c X^a| / 8)), with lam_top the
    # window top |c|^{2/(a+2)} t_top, or |c| (X/1.5)^a where X is longer than it needs
    X = OperatorSpec.for_modes(c, alpha, n).X
    top = max(abs(c) ** (2.0 / (alpha + 2.0)) * _mode_window(alpha, n)[0], abs(c) * (X / 1.5) ** alpha)
    rule = max(1000, math.ceil(3.0 * X * math.sqrt(top)), math.ceil(X * math.sqrt(abs(c) * X**alpha) / 8.0))
    assert _mesh_size(c, alpha, X) == rule == size


def test_meshes_over_the_budget_are_refused_before_any_allocation():
    # 8.5e9 and 1.3e9 intervals: both calls ran out of memory inside numpy
    start = time.perf_counter()
    with pytest.raises(ValueError, match="8531831893 intervals"):
        real_spectrum(100.0, 20)
    spec = OperatorSpec(c=1.0, alpha=40.0, X=3.0)
    with pytest.raises(ValueError, match="1307544151 intervals"):
        apply_inverse(spec, SampledFunction(spec.grid(), np.zeros(spec.grid_n)))
    # near the top of the double range 3 X sqrt(L) or (X/1.5)^a overflowed,
    # and a bare OverflowError escaped
    for solve in (
        lambda: homogeneous_pair(OperatorSpec(1.0, ALPHA_23, 1e300)),
        lambda: eigenfunction(OperatorSpec(1.0, ALPHA_23, 1e300), 2.0),
        lambda: real_spectrum(ALPHA_23, 5, X=1e300),
        lambda: homogeneous_pair(OperatorSpec(1.0, 2.0, 1e155)),
    ):
        with pytest.raises(ValueError, match="the mesh would need inf intervals"):
            solve()
    assert time.perf_counter() - start < 1.0


def test_mesh_does_not_depend_on_the_batch(monkeypatch):
    # one solve builds one mesh, and the count and every refinement round,
    # whatever its batch, run on it
    import wkbspec.spectrum as spectrum

    built, used = [], []

    def recorded(name):
        fn = getattr(spectrum, name)
        if name == "_shooting_mesh":
            return lambda *key: built.append(fn(*key)) or built[-1]
        return lambda mesh, ts: used.append(mesh) or fn(mesh, ts)

    for name in ("_shooting_mesh", "_oscillation_count", "_shoot_many"):
        monkeypatch.setattr(spectrum, name, recorded(name))
    spectrum._real_spectrum_cached.cache_clear()
    real_spectrum(2.0, 100)
    spectrum._real_spectrum_cached.cache_clear()
    assert len(built) == 1 and len(built[0][0]) == 2335 + 1
    assert len(used) >= 3 and all(mesh is built[0] for mesh in used)


def test_the_mesh_is_dropped_with_the_solve(monkeypatch):
    # a cache of meshes kept 64 bytes per interval alive after the call
    import wkbspec.spectrum as spectrum

    refs, build = [], spectrum._shooting_mesh

    def recorded(*key):
        mesh = build(*key)
        refs.append(weakref.ref(mesh[0]))
        return mesh

    monkeypatch.setattr(spectrum, "_shooting_mesh", recorded)
    spectrum._real_spectrum_cached.cache_clear()
    real_spectrum(2.0, 4)
    spectrum._real_spectrum_cached.cache_clear()
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None


def test_asymptotic_trend_alpha1():
    ts = real_spectrum(1.0, 20)
    dev = [abs(t / t_asymptotic(n, 1.0) - 1.0) for n, t in enumerate(ts, start=1)]
    assert all(d < 0.02 for d in dev[4:])
    assert dev[19] < dev[4]


def test_real_spectrum_noninteger_alpha():
    # fractional exponents above 1 stress the boundary clamp at x = 0
    ts = real_spectrum(1.5, 3)
    dev = [abs(t / t_asymptotic(n, 1.5) - 1.0) for n, t in enumerate(ts, start=1)]
    assert all(t > 0 for t in ts)
    assert dev[2] < dev[1] < dev[0] < 0.01


@pytest.mark.parametrize("alpha, n", [(ALPHA_23, 40), (1.0, 20), (2.0, 10), (0.5, 10)])
def test_oscillation_count_around_each_eigenvalue(alpha, n):
    # Sturm: y(.; t) has as many zeros on (0, X) as there are eigenvalues below t
    ts = np.array(real_spectrum(alpha, n))
    X = default_truncation(alpha, _mode_window(alpha, n)[0])
    mesh = _shooting_mesh(alpha, X)
    below, _ = _oscillation_count(mesh, ts * (1.0 - 1e-7))
    above, _ = _oscillation_count(mesh, ts * (1.0 + 1e-7))
    assert below.tolist() == list(range(n))
    assert above.tolist() == list(range(1, n + 1))


def test_oscillation_count_returns_the_proxy():
    # the proxy refined in real_spectrum: the Prufer sine of the shot pair at 0
    for alpha in (2.0, ALPHA_23, 0.5):
        # the asymptotic-law points T_{1/2}, T_{3/2}, T_{5/2}; 1, 5, 9 at alpha 2
        ts = ((np.arange(3) + 0.25) * (math.pi / bs_constant(alpha))) ** (2.0 * alpha / (alpha + 2.0))
        mesh = _shooting_mesh(alpha, default_truncation(alpha, 10.0))
        counts, sines = _oscillation_count(mesh, ts)
        assert counts.tolist() == [0, 1, 2]
        assert_allclose(sines, _prufer_sine(ts, *_shoot_many(mesh, ts)), rtol=1e-10)


def test_prufer_sine_keeps_the_sign_of_y():
    rng = np.random.default_rng(3)
    t = 10.0 ** rng.uniform(-2, 3, size=200)
    y = rng.standard_normal(200) * 10.0 ** rng.uniform(-150, 150, size=200)
    yp = rng.standard_normal(200) * 10.0 ** rng.uniform(-150, 150, size=200)
    y[:6], yp[:6] = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300], [1.0, -1.0, 1e-10, 1e-10, 1e-300, 1.0]
    s = _prufer_sine(t, y, yp)
    assert np.array_equal(np.sign(s), np.sign(y))
    assert np.all(np.abs(s) <= 1.0)


@pytest.mark.parametrize("factor", [1e-200, 1e200])
def test_prufer_sine_ignores_a_positive_factor(factor):
    # the per-interval factors of the shoot drop out of the refined proxy
    rng = np.random.default_rng(4)
    t = 10.0 ** rng.uniform(-2, 3, size=50)
    y, yp = rng.standard_normal(50), rng.standard_normal(50)
    assert_allclose(_prufer_sine(t, factor * y, factor * yp), _prufer_sine(t, y, yp), rtol=4e-16, atol=0)


def test_prufer_sine_refuses_an_underflowed_pair():
    # 0/0 would be NaN, which refine_brackets would quietly put on one side
    with pytest.raises(BracketError, match=r"t = 2\.0 underflows"):
        _prufer_sine(np.array([1.0, 2.0]), np.array([1.0, 0.0]), np.array([0.0, 0.0]))
    with pytest.raises(BracketError, match="underflows"):
        _prufer_sine(np.array([1.0]), np.array([1e-310]), np.array([-1e-309]))
    with pytest.raises(BracketError, match="underflows"):
        _prufer_sine(np.array([1.0]), np.array([np.nan]), np.array([1.0]))


@pytest.mark.parametrize("alpha, n, most", [(2.0, 10, 3), (ALPHA_23, 40, 9), (1.0, 100, 8)])
def test_real_spectrum_refinement_rounds(monkeypatch, alpha, n, most):
    # on y(0; t) itself, whose size changes by orders of magnitude across
    # each bracket, these take 11, 13 and 13 rounds
    import wkbspec.spectrum as spectrum

    rounds = []
    refine = spectrum.refine_brackets

    def counted(f_many, *args):
        return refine(lambda t: rounds.append(len(t)) or f_many(t), *args)

    monkeypatch.setattr(spectrum, "refine_brackets", counted)
    spectrum._real_spectrum_cached.cache_clear()
    real_spectrum(alpha, n)
    spectrum._real_spectrum_cached.cache_clear()
    assert rounds[0] == n and len(rounds) <= most


@pytest.mark.parametrize("alpha, n, below", [(0.2, 22, 21), (ALPHA_23, 93, 90), (0.2, 30, 22)])
def test_real_spectrum_solves_high_modes(alpha, n, below):
    # a shoot damped by a factor that ignores t underflows at 0 from these n
    # on; the modes shared with the shorter truncation of n = below agree
    # with it, and the new ones follow the asymptotic law ever closer
    ts = np.array(real_spectrum(alpha, n))
    assert_allclose(ts[:below], real_spectrum(alpha, below), rtol=1e-10, atol=0.0)
    dev = np.abs(ts / np.array([t_asymptotic(k, alpha) for k in range(1, n + 1)]) - 1.0)
    assert np.all(np.diff(dev[below - 1 :]) < 0.0) and dev[-1] < 1e-4


@pytest.mark.parametrize("alpha, n, top", [(0.2, 21, 2.561683078021068), (ALPHA_23, 90, 21.878530643862444)])
def test_real_spectrum_below_the_underflow(alpha, n, top):
    # top is t_n as refined on y(0; t) itself, not on the Prufer sine
    assert abs(real_spectrum(alpha, n)[-1] - top) < 1e-10


def test_oscillation_count_rejects_coarse_mesh():
    # max(h) sqrt(t) >= pi: one mesh interval could hold two zeros
    with pytest.raises(BracketError, match="too coarse"):
        _oscillation_count(_shooting_mesh(1.0, 1e3), np.array([1.0, 1e4]))


def test_real_spectrum_refuses_a_disagreeing_count(monkeypatch):
    import wkbspec.spectrum as spectrum

    count = spectrum._oscillation_count

    def miscount(mesh, ts):
        counts, y0 = count(mesh, ts)
        counts[2:] += 1  # as if two eigenvalues shared [T_{3/2}, T_{5/2}]
        return counts, y0

    monkeypatch.setattr(spectrum, "_oscillation_count", miscount)
    with pytest.raises(BracketError, match=r"has 3 zeros at t = 8\.99.* \(k = 2\.5\), need 2"):
        real_spectrum(2.0, 4, tol=1e-9)


def test_real_spectrum_alpha2_exact_to_mode_300():
    # a shoot damped by a factor that ignores t underflows at 0 from n = 212 on
    ts = np.array(real_spectrum(2.0, 300))
    assert np.max(np.abs(ts / (4.0 * np.arange(1, 301) - 1.0) - 1.0)) < 1e-12


def test_real_spectrum_roots_are_sign_changes_of_the_proxy():
    # the proxy is below 1e-162 at many of these roots, where a product of
    # two values underflows to 0
    ts = np.array(real_spectrum(ALPHA_23, 60))
    mesh = _shooting_mesh(ALPHA_23, default_truncation(ALPHA_23, _mode_window(ALPHA_23, 60)[0]))
    lo = _shoot_many(mesh, ts * (1.0 - 1e-9))[0]
    hi = _shoot_many(mesh, ts * (1.0 + 1e-9))[0]
    assert np.all(np.sign(lo) * np.sign(hi) < 0)


# ---------------------------------------------------------------------------
# determinant proxy
# ---------------------------------------------------------------------------

def test_det_vanishes_at_eigenvalue_alpha2():
    X = OperatorSpec.for_modes(1.0, 2.0, 4).X
    d_eig, d_off = _shoot_many(_shooting_mesh(2.0, X), np.array([3.0, 2.0]))[0]
    assert abs(d_eig) < 1e-7 * abs(d_off)


def test_det_nonzero_at_origin():
    X = OperatorSpec.for_modes(1.0, 2.0, 4).X
    d0, d_half = _shoot_many(_shooting_mesh(2.0, X), np.array([0.0, 1.0]))[0]
    assert abs(d0) > 1e-3 * abs(d_half)


def _decaying_ratio(spec, lam):
    # y(0)/y'(0) of the undamped inward march at lam, on the path eigenfunction takes
    nodes = np.sort(np.concatenate((spec.grid(), _admit(spec.c, spec.alpha, spec.X, lam)[0])))
    y, yp = _march_nodes(spec, nodes, inward=True, lam=lam)
    return y[0] / yp[0]


def test_det_zero_at_scaled_eigenvalue_complex_c():
    # lambda_1 = c^{3/4} t_1 on the real axis: the ratio y(0)/y'(0) of the
    # undamped complex march vanishes there (measured 1.9e-11 of its value
    # 2 % away, at every angle)
    t1 = real_spectrum(ALPHA_23, 1)[0]
    for arg in (math.pi / 3.0, 1.2, 1.6, -1.6):
        c = cmath.exp(1j * arg)
        spec = OperatorSpec.for_modes(c, ALPHA_23, 5)
        lam = cmath.exp(0.75 * cmath.log(c)) * t1
        on, off = (_decaying_ratio(spec, z) for z in (lam, 1.02 * lam))
        assert abs(on) < 1e-6 * abs(off), arg


@pytest.mark.parametrize("arg", [1.2, 1.6, -1.6])
def test_rotated_and_unrotated_proxies_share_zeros(arg):
    # x = r e^{i phi} turns y'' = (c x^a - lam) y into
    # y'' = (c e^{i(a+2)phi} r^a - lam e^{2i phi}) y with the same eigenvalues:
    # the undamped march of every rotated proxy vanishes at lam e^{2i phi}
    c = cmath.exp(1j * arg)
    eigs = cmath.exp(0.75j * arg) * np.array(real_spectrum(ALPHA_23, 3))
    for target in (arg, math.copysign(1.0, arg), math.copysign(0.5, arg)):
        phi = (target - arg) / (ALPHA_23 + 2.0)
        c_ray, turn = c * cmath.exp(1j * (ALPHA_23 + 2.0) * phi), cmath.exp(2j * phi)
        spec = OperatorSpec.for_modes(c_ray, ALPHA_23, 5)
        for lam in eigs * turn:
            on, off = (_decaying_ratio(spec, z) for z in (lam, 1.02 * lam))
            assert abs(on) < 1e-6 * abs(off), (target, lam)


def test_shoot_does_not_depend_on_the_batch():
    # block boundaries follow the lane count; the values must not
    ts = np.array([t_asymptotic(k, ALPHA_23) for k in range(1, 41)])
    mesh = _shooting_mesh(ALPHA_23, OperatorSpec.for_modes(1.0, ALPHA_23, 40).X)
    for lanes in (1, 9, 40):
        batch = _shoot_many(mesh, ts[:lanes])[0]
        single = np.array([_shoot_many(mesh, ts[k : k + 1])[0][0] for k in range(lanes)])
        assert np.max(np.abs(batch - single)) <= 1e-12 * np.max(np.abs(batch))


def test_det_sign_changes_across_real_roots():
    # eigenvalues at 3 and 7: sign flips across each, none between 4 and 6
    X = OperatorSpec.for_modes(1.0, 2.0, 3).X
    d = _shoot_many(_shooting_mesh(2.0, X), np.array([2.0, 4.0, 6.0, 8.0]))[0]
    assert d[0] * d[1] < 0.0 and d[1] * d[2] > 0.0 and d[2] * d[3] < 0.0


# ---------------------------------------------------------------------------
# complex spectrum
# ---------------------------------------------------------------------------

def _fd_eigenvalues(c, alpha, length, intervals, shifts, steps=3):
    """Eigenvalues near each shift of the second-order finite-difference
    matrix A of -d^2/dx^2 + c x^a on [0, length], Dirichlet at both ends,
    with step h = length/intervals.

    A is complex symmetric and tridiagonal.  Shifted inverse iteration, with
    one Thomas factorization of A - shift per lane, gives each eigenvector v,
    and the unconjugated quotient v^T A v / v^T v its eigenvalue.
    """
    h = length / intervals
    x = h * np.arange(1, intervals)
    off = -1.0 / h**2
    diag = 2.0 / h**2 + c * x**alpha
    piv = diag[:, None] - np.asarray(shifts)[None, :]
    mult = np.zeros_like(piv)
    for i in range(1, len(x)):
        mult[i] = off / piv[i - 1]
        piv[i] -= mult[i] * off
    v = np.ones_like(piv)
    for _ in range(steps):
        for i in range(1, len(x)):
            v[i] -= mult[i] * v[i - 1]
        v[-1] /= piv[-1]
        for i in range(len(x) - 2, -1, -1):
            v[i] = (v[i] - off * v[i + 1]) / piv[i]
        v /= np.max(np.abs(v), axis=0)
    av = diag[:, None] * v
    av[1:] += off * v[:-1]
    av[:-1] += off * v[1:]
    return np.sum(v * av, axis=0) / np.sum(v * v, axis=0)


def _collocation_eigenvalues(c, points, length):
    """Eigenvalues of -y'' + c x^{2/3} y on [0, length^3], Dirichlet at both
    ends, by Chebyshev collocation.

    x = s^3 turns the problem into -(y_ss - 2 y_s/s) + 9 c s^6 y = 9 lam s^4 y
    on [0, length], smooth at s = 0 where x^{2/3} is not.  The
    differentiation matrix on points Chebyshev points (Trefethen, Spectral
    Methods in MATLAB, 2000, cheb) acts on the interior values, and the
    interior rows divided by 9 s^4 give lam as the eigenvalues of one dense
    matrix.  Shares no code with the library.
    """
    n = points - 1
    x = np.cos(np.pi * np.arange(n + 1) / n)
    w = np.where(np.arange(n + 1) % 2, -1.0, 1.0) * np.r_[2.0, np.ones(n - 1), 2.0]
    d = np.outer(w, 1.0 / w) / (x[:, None] - x[None, :] + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    d *= 2.0 / length  # s = length (1 + x)/2
    inner = slice(1, n)
    s = 0.5 * length * (1.0 + x[inner])
    op = -((d @ d)[inner, inner] - 2.0 * d[inner, inner] / s[:, None]) + np.diag(9.0 * c * s**6)
    return np.linalg.eigvals(op / (9.0 * s**4)[:, None])


def _assert_collocation_agrees(eigenvalues, c, points, length, bound):
    oracle = _collocation_eigenvalues(c, points, length)
    for lam in eigenvalues:
        assert np.min(np.abs(oracle - lam)) < bound * abs(lam), (c, lam)


def _served(res, n):
    return len(res.eigenvalues) == n and all(cmath.isfinite(z) for z in res.eigenvalues)


@pytest.mark.parametrize("arg", [0.5, 1.0, 1.5, 1.8, -1.8])
def test_complex_spectrum_matches_finite_differences_on_the_real_axis(arg):
    # an oracle that shares no code with the library: the operator itself on
    # [0, 1.3 X] at 1000 and 2000 intervals, Richardson on the h^2 error.
    # Measured: within 1.2e-8 relative for n <= 5 at each of these angles
    c = cmath.exp(1j * arg)
    spec = OperatorSpec.for_modes(c, ALPHA_23, 5)
    lam = np.array(complex_spectrum(spec, 5).eigenvalues)
    coarse, fine = (_fd_eigenvalues(c, ALPHA_23, 1.3 * spec.X, n, lam) for n in (1000, 2000))
    assert np.max(np.abs((4.0 * fine - coarse) / 3.0 / lam - 1.0)) < 5e-8


def test_complex_spectrum_alpha2_real_coupling():
    spec = OperatorSpec.for_modes(1.0 + 0j, 2.0, 4)
    res = complex_spectrum(spec, 3)
    assert_allclose(res.t_values, [3.0, 7.0, 11.0], atol=1e-7)


def test_complex_spectrum_does_not_depend_on_the_truncation():
    # X = 3 is far below the turning point of lambda_40 (123.5 at |c| = 1): the
    # eigenvalues are c^{3/4} t_n, and they used to be refused there
    short = complex_spectrum(OperatorSpec(1j, ALPHA_23, 3.0), 40)
    assert short.eigenvalues == complex_spectrum(OperatorSpec.for_modes(1j, ALPHA_23, 40), 40).eigenvalues


def test_complex_spectrum_rotation():
    # arg c = 2.05 lies past pi/2 + theta0 ~ 1.89, the paper's sector edge.
    # Collocation on 260 points of [0, 5.2] measured 1.8e-11 and 1.9e-10 off
    for c, bound in ((1j, 1e-9), (cmath.exp(2.05j), 3e-9)):
        res = complex_spectrum(OperatorSpec.for_modes(c, ALPHA_23, 4), 3)
        _assert_collocation_agrees(res.eigenvalues, c, 260, 5.2, bound)


# arg c -> (points, length, modes, bound): collocation resolves fewer modes
# as arg c grows; measured 1.9e-10, 4.6e-9 and 5e-12 off
_DEEP_COLLOCATION = {2.05: (260, 5.2, 4, 3e-9), 2.2: (320, 5.2, 4, 3e-8), 2.6: (400, 6.0, 1, 1e-9)}


@pytest.mark.parametrize("arg", [2.05, 2.2, 2.6, 3.0])
def test_complex_spectrum_deep_in_the_sector(arg):
    # the dilation identity holds up to |arg c| < pi.  At 3.0 no
    # double-precision oracle is known, so the input is only checked served
    c = cmath.exp(1j * arg)
    res = complex_spectrum(OperatorSpec.for_modes(c, ALPHA_23, 5), 5)
    assert _served(res, 5)
    if arg in _DEEP_COLLOCATION:
        points, length, modes, bound = _DEEP_COLLOCATION[arg]
        _assert_collocation_agrees(res.eigenvalues[:modes], c, points, length, bound)


def test_complex_spectrum_solves_high_modes_off_the_real_axis():
    # collocation on 260 points of [0, 5.2] resolves n <= 5 here (measured
    # 2e-11 off) but not the top modes (1.5e-5 off at n = 20, arg 1, and 0.16
    # at n = 30, arg 1.5), which are only checked served, as is alpha = 1/2
    for n, arg in ((20, 1.0), (30, 1.5), (20, 0.5)):
        for modulus in (1.0, 1.3):
            c = modulus * cmath.exp(1j * arg)
            res = complex_spectrum(OperatorSpec.for_modes(c, ALPHA_23, n), n)
            assert _served(res, n)
            _assert_collocation_agrees(res.eigenvalues[:5], c, 260, 5.2, 1e-9)
    for c in (1.0, cmath.exp(1.0j)):
        assert _served(complex_spectrum(OperatorSpec.for_modes(c, 0.5, 40), 40), 40)


def test_complex_spectrum_simplicity_separation():
    # each of the first four eigenvalues at c = i has one collocation
    # eigenvalue within 1e-9 of it and the next more than 10 % away
    lams = np.array(complex_spectrum(OperatorSpec.for_modes(1j, ALPHA_23, 4), 4).eigenvalues)
    dist = np.sort(np.abs(_collocation_eigenvalues(1j, 260, 5.2)[None, :] - lams[:, None]), axis=1)
    assert np.all(dist[:, 0] < 1e-9 * np.abs(lams)) and np.all(dist[:, 1] > 0.1 * np.abs(lams))


# ---------------------------------------------------------------------------
# inverse operator
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def resolvent_spec():
    return OperatorSpec(c=cmath.exp(1j * math.pi / 3.0), alpha=ALPHA_23, X=12.0, grid_n=6001)


def test_apply_inverse_manufactured(resolvent_spec):
    spec = resolvent_spec
    xs = spec.grid()
    bump = np.exp(-((xs - 3.0) ** 2))
    phi = xs * bump
    phi_pp = (-4.0 * (xs - 3.0) + xs * (4.0 * (xs - 3.0) ** 2 - 2.0)) * bump
    f_vals = -phi_pp + spec.c * xs**spec.alpha * phi
    y = apply_inverse(spec, SampledFunction(xs, f_vals))
    assert y.values[0] == 0.0
    assert np.max(np.abs(y.values - phi)) / np.max(np.abs(phi)) < 1e-8


def test_apply_inverse_eigenrelation(resolvent_spec):
    spec = resolvent_spec
    res = complex_spectrum(spec, 1)
    lam1 = res.eigenvalues[0]
    y1 = eigenfunction(spec, lam1)
    out = apply_inverse(spec, y1)
    err = np.max(np.abs(out.values - y1.values / lam1)) / np.max(np.abs(y1.values / lam1))
    assert err < 1e-6


def test_apply_inverse_wronskian_constancy(resolvent_spec):
    for spec in (resolvent_spec, OperatorSpec(c=2.0 + 0j, alpha=1.0, X=10.0, grid_n=2001)):
        u, up, v, vp = homogeneous_pair(spec)
        w = v * up - vp * u
        w0 = w[len(w) // 2]
        assert np.max(np.abs(w - w0)) / abs(w0) < 1e-6


def test_march_origin_ratio_grid_independent():
    # the march runs on the grid merged with the shooting mesh, whose
    # intervals shrink toward x = 0 where x^a is only Holder, so refining the
    # grid does not move v'(0)/v(0)
    ratios = []
    for grid_n in (3001, 24001):
        spec = OperatorSpec(c=cmath.exp(1j * math.pi / 3.0), alpha=ALPHA_23, X=12.0, grid_n=grid_n)
        _u, _up, v, vp = homogeneous_pair(spec)
        ratios.append(vp[0] / v[0])
    assert abs(ratios[0] - ratios[1]) < 1e-10 * abs(ratios[1])


@pytest.mark.parametrize("grid_n", [2001, 2002])  # merged paths of 6001 and 6002 intervals
@pytest.mark.parametrize("inward", [True, False])
def test_march_matches_sequential_magnus_chain(grid_n, inward):
    # the blocked down-sweep against one matrix at a time on the same path
    spec = OperatorSpec(c=cmath.exp(1j * math.pi / 3.0), alpha=ALPHA_23, X=12.0, grid_n=grid_n)
    xs = spec.grid()
    nodes = np.sort(np.concatenate((xs, _mesh(spec.X))))
    if inward:
        path = nodes[::-1]
        y, yp = spec.X ** (-0.25 * spec.alpha), -cmath.sqrt(spec.c) * spec.X ** (0.25 * spec.alpha)
    else:
        path, y, yp = nodes, 0.0, 1.0
    ys, yps = [y], [yp]
    for a, b, cc, d in zip(*_magnus(_magnus_terms(spec.c, spec.alpha, path[:-1], path[1:]), 0.0)):
        y, yp = a * y + b * yp, cc * y + d * yp
        ys.append(y)
        yps.append(yp)
    ys, yps = np.array(ys), np.array(yps)
    if inward:
        ys, yps = ys[::-1], yps[::-1]
    pick = np.searchsorted(nodes, xs)
    march_y, march_yp = _march_nodes(spec, nodes, inward)
    assert np.max(np.abs(march_y - ys[pick])) < 1e-13 * np.max(np.abs(ys))
    assert np.max(np.abs(march_yp - yps[pick])) < 1e-13 * np.max(np.abs(yps))


@pytest.mark.parametrize("arg", [2.3, -2.3, 1.0])
def test_eigenfunction_inside_the_supported_range(arg):
    # S = 2 int_0^X Re sqrt(c x^a - lambda_1) is 27 at |arg c| = 2.3, 85 at 1
    c = cmath.exp(1j * arg)
    spec = OperatorSpec.for_modes(c, ALPHA_23, 3)
    lam = cmath.exp(0.75 * cmath.log(c)) * real_spectrum(ALPHA_23, 3)[0]
    y = eigenfunction(spec, lam)
    assert abs(y.values[0]) < 1e-10


@pytest.mark.parametrize("arg", [2.6, 3.0, -3.0])
def test_eigenfunction_refuses_deep_in_the_sector(arg):
    # S = 9.1 at 2.6 and -15 at 3.0: the samples were 4e-7 and 1.0 off, with no error
    c = cmath.exp(1j * arg)
    spec = OperatorSpec.for_modes(c, ALPHA_23, 3)
    lam = cmath.exp(0.75 * cmath.log(c)) * real_spectrum(ALPHA_23, 3)[0]
    with pytest.raises(ValueError, match="supported range"):
        eigenfunction(spec, lam)


def test_eigenfunction_refuses_a_large_stretch_gain():
    # lambda_10 at arg c = 2.4 on twice the truncation: S = 31, but the other
    # solution gains 53 e-folds on a stretch and the samples were 8e-4 off
    c = cmath.exp(2.4j)
    spec = OperatorSpec.for_modes(c, ALPHA_23, 10)
    spec = OperatorSpec(c=c, alpha=ALPHA_23, X=2.0 * spec.X)
    lam = cmath.exp(0.75 * cmath.log(c)) * real_spectrum(ALPHA_23, 10)[9]
    with pytest.raises(ValueError, match="loses up to 5"):
        eigenfunction(spec, lam)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eigenfunction_refuses_an_overflowing_march_before_it_runs(monkeypatch):
    # at X = 300 the decaying solution grows by exp(1435) marching in from X;
    # the march raised a bare RuntimeWarning, or OverflowGuardError after it ran
    lam = real_spectrum(ALPHA_23, 1)[0]
    assert abs(eigenfunction(OperatorSpec(c=1.0, alpha=ALPHA_23, X=169.0), lam).values[0]) < 1e-10

    def no_march(*args, **kwargs):
        raise AssertionError("the march ran")

    monkeypatch.setattr("wkbspec.spectrum._march_nodes", no_march)
    for X in (200.0, 300.0):
        with pytest.raises(OverflowGuardError, match="past the double range"):
            eigenfunction(OperatorSpec(c=1.0, alpha=ALPHA_23, X=X), lam)


def test_apply_inverse_grid_mismatch(resolvent_spec):
    xs = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        apply_inverse(resolvent_spec, SampledFunction(xs, np.zeros(11)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_apply_inverse_refuses_an_overflowing_result(resolvent_spec):
    xs = resolvent_spec.grid()
    with pytest.raises(OverflowGuardError, match="overflowed"):
        apply_inverse(resolvent_spec, SampledFunction(xs, 1e307 * np.exp(-((xs - 3.0) ** 2))))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_apply_inverse_refuses_an_overflowing_pair():
    # G = 300^{4/3}/(4/3) = 1506: the march overflowed inside numpy
    spec = OperatorSpec(c=1.0, alpha=ALPHA_23, X=300.0)
    with pytest.raises(OverflowGuardError, match=r"exp\(1506\)"):
        apply_inverse(spec, SampledFunction(spec.grid(), np.exp(-((spec.grid() - 3.0) ** 2))))


def test_an_overflowing_pair_is_refused_before_the_march():
    # G = 1.4e6 on a mesh of 1.9e6 intervals: the march took 0.93 s and 456 MB
    spec = OperatorSpec(c=cmath.exp(0.5j), alpha=20.0, X=4.5)
    start = time.perf_counter()
    with pytest.raises(OverflowGuardError, match="past the double range"):
        homogeneous_pair(spec)
    assert time.perf_counter() - start < 0.1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_wkb_amplitudes_refuse_an_overflowing_march_before_it_runs(monkeypatch):
    # at c = 1e12 the growth alone (G = 680 for the pair, 686.7 for lambda_1)
    # let both marches run, and _guard refused them after; the WKB factors at
    # the ends add 12.1 and 5.4 e-folds.  The longest X served stays served.
    lam = 1e12**0.75 * real_spectrum(ALPHA_23, 1)[0]
    homogeneous_pair(OperatorSpec(1e12, ALPHA_23, 0.00521))
    eigenfunction(OperatorSpec(1e12, ALPHA_23, 0.00549), lam)

    def no_march(*args, **kwargs):
        raise AssertionError("the march ran")

    monkeypatch.setattr("wkbspec.spectrum._march_nodes", no_march)
    with pytest.raises(OverflowGuardError, match=r"amplitude of about exp\(692\.1\)"):
        homogeneous_pair(OperatorSpec(1e12, ALPHA_23, 0.005225))
    with pytest.raises(OverflowGuardError, match=r"amplitude of about exp\(692\.1\)"):
        eigenfunction(OperatorSpec(1e12, ALPHA_23, 0.00551), lam)


# ---------------------------------------------------------------------------
# singular values
# ---------------------------------------------------------------------------

def test_s_numbers_alpha2():
    spec = OperatorSpec.for_modes(1.0 + 0j, 2.0, 6)
    rep = s_numbers(spec, 5)
    assert_allclose(rep.values, [1.0 / 3.0, 1.0 / 7.0, 1.0 / 11.0, 1.0 / 15.0, 1.0 / 19.0], atol=1e-8)
    assert all(b < a for a, b in zip(rep.values[:-1], rep.values[1:]))


def test_s_numbers_coupling_scaling():
    spec1 = OperatorSpec.for_modes(1.0 + 0j, ALPHA_23, 4)
    spec4 = OperatorSpec.for_modes(4.0 + 0j, ALPHA_23, 4)
    r1 = s_numbers(spec1, 4)
    r4 = s_numbers(spec4, 4)
    for a, b in zip(r1.values, r4.values):
        assert abs(b - a * 4.0 ** (-0.75)) < 1e-8
    assert r1.expected_exponent == pytest.approx(-0.5)
