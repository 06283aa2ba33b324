import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose

from wkbspec.errors import TurningPointError
from wkbspec.numerics import Contour
from wkbspec.actions import (
    PotentialQuadratic,
    _closed_action,
    action_with_phase,
    half_line_integral_split,
    segment_integral_closed,
)


def test_potential_forms():
    z = PotentialQuadratic.z_form(0.3)
    assert z(2.0) == pytest.approx(cmath.exp(1.2j) * 2.0, abs=1e-15)
    assert z.turning_points() == [0.0, 1.0]
    t = PotentialQuadratic.t_form(cmath.exp(1j * math.pi / 5))
    assert t.turning_points()[1] == cmath.exp(1j * math.pi / 5)
    with pytest.raises(ValueError):
        PotentialQuadratic.t_form(0.0)
    with pytest.raises(ValueError):
        PotentialQuadratic.z_form(7.0)
    # one form for both: P = leading (z - t1)(z - t2), P' = leading (2 z - t1 - t2)
    h = 1e-5
    for pot in (z, t):
        t1, t2 = pot.turning_points()
        for w in (2.0, -0.4 + 1.3j, 0.7 - 2.2j):
            assert pot(w) == pytest.approx(pot.leading * (w - t1) * (w - t2), rel=1e-15, abs=1e-15)
            central = (pot(w + h) - pot(w - h)) / (2.0 * h)
            assert pot.slope_at(w) == pytest.approx(central, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("mu", [math.nan, math.inf, complex(1.0, math.nan), complex(-math.inf, 1.0)])
def test_non_finite_mu_rejected(mu):
    with pytest.raises(ValueError, match="mu"):
        PotentialQuadratic.t_form(mu)


# ---------------------------------------------------------------------------
# branch tracking: the arg P that action_with_phase carries along the path
# ---------------------------------------------------------------------------

def _sqrt_x2_minus_x_antiderivative(x):
    # d/dx of this is sqrt(x^2 - x) wherever x^2 - x > 0
    r = math.sqrt(x * x - x)
    return 0.25 * (2.0 * x - 1.0) * r - 0.125 * math.log(abs(2.0 * x - 1.0 + 2.0 * r))


def test_branch_value_at_anchor():
    # z-form, psi = 0: P = x (x - 1) > 0 on [2, 2.5]; anchor 0 picks the
    # positive square root, anchor 2*pi the other sheet
    pot = PotentialQuadratic.z_form(0.0)
    exact = _sqrt_x2_minus_x_antiderivative(2.5) - _sqrt_x2_minus_x_antiderivative(2.0)
    s0, ph0 = action_with_phase(pot, Contour([2.0, 2.5]), 0.0)
    s1, ph1 = action_with_phase(pot, Contour([2.0, 2.5]), 2.0 * math.pi)
    assert abs(s0 - exact) < 1e-12
    assert abs(s1 + exact) < 1e-12
    assert abs(ph0) < 1e-14 and abs(ph1 - 2.0 * math.pi) < 1e-14


def test_branch_t_form_both_sheets():
    # t-form, mu = 1: p = t^2 - t > 0 on [-1.5, -1]; the path runs leftward
    pot = PotentialQuadratic.t_form(1.0)
    base = cmath.phase(pot(-1.0))
    exact = _sqrt_x2_minus_x_antiderivative(-1.5) - _sqrt_x2_minus_x_antiderivative(-1.0)
    for shift, sign in ((0.0, 1.0), (2.0 * math.pi, -1.0)):
        s, ph = action_with_phase(pot, Contour([-1.0, -1.5]), base + shift)
        assert abs(s - sign * exact) < 1e-12
        assert abs(ph - (base + shift)) < 1e-14


def test_monodromy_single_turning_point():
    # a loop around z = 1 only: arg P winds once, the sheet flips
    pot = PotentialQuadratic.z_form(0.0)
    loop = Contour([2.0, 1.0 + 0.8j, 0.2, 1.0 - 0.8j, 2.0])
    start = cmath.phase(pot(2.0))
    _, end = action_with_phase(pot, loop, start)
    assert abs(abs(end - start) - 2.0 * math.pi) < 1e-12


def test_monodromy_both_turning_points():
    # a loop around both zeros: arg P winds twice, the sheet comes back
    pot = PotentialQuadratic.z_form(0.0)
    loop = Contour([2.0, 0.5 + 2.0j, -1.0, 0.5 - 2.0j, 2.0])
    start = cmath.phase(pot(2.0))
    _, end = action_with_phase(pot, loop, start)
    assert abs(abs(end - start) - 4.0 * math.pi) < 1e-12


@settings(deadline=None, max_examples=40)
@given(
    st.floats(min_value=0.0, max_value=6.28),
    st.floats(min_value=-1.5, max_value=2.5),
    st.floats(min_value=0.05, max_value=1.8),
    st.floats(min_value=-1.5, max_value=2.5),
    st.floats(min_value=0.05, max_value=1.8),
)
def test_branch_square_recovers_potential(psi, x0, y0, x1, y1):
    # the carried phase is an argument of P at the end point, and the two
    # legs of a split path hand the same phase on
    pot = PotentialQuadratic.z_form(psi)
    a, b = complex(x0, y0), complex(x1, y1)
    assume(abs(a - b) > 1e-3)
    m = 0.5 * (a + b)
    _, ph_b = action_with_phase(pot, Contour([a, b]), cmath.phase(pot(a)))
    p = pot(b)
    w = math.sqrt(abs(p)) * cmath.exp(0.5j * ph_b)
    assert abs(w * w - p) <= 1e-12 * max(1.0, abs(p))
    _, ph_m = action_with_phase(pot, Contour([a, m]), cmath.phase(pot(a)))
    _, ph_b2 = action_with_phase(pot, Contour([m, b]), ph_m)
    assert abs(ph_b2 - ph_b) < 1e-12


def test_turning_point_proximity_rejected():
    pot = PotentialQuadratic.z_form(0.0)
    with pytest.raises(TurningPointError):
        action_with_phase(pot, Contour([-1.0, 2.0]), 0.0)  # passes through both zeros
    with pytest.raises(TurningPointError):
        action_with_phase(pot, Contour([-1.0 + 1e-12j, 2.0 + 1e-12j]), 0.0)
    # two faults: the anchor picks no sheet on the first segment, and the
    # second passes 1e-12 from z = 1; every segment is checked before any
    # is integrated, so the clearance fault is the one reported
    with pytest.raises(TurningPointError):
        action_with_phase(pot, Contour([2.0, 2.5, 0.5 + 1e-12j]), cmath.phase(pot(2.0)) + math.pi)


def test_inconsistent_anchor_phase_rejected():
    # an initial_arg off by pi names neither square-root sheet; the
    # subdivision cannot reconcile it and must fail loudly
    from wkbspec.errors import PhaseTrackingError

    pot = PotentialQuadratic.z_form(0.0)
    with pytest.raises(PhaseTrackingError):
        action_with_phase(pot, Contour([2.0, 2.5]), cmath.phase(pot(2.0)) + math.pi)


def test_reversal_through_turning_point_rejected():
    # a path that runs straight through a turning point can pass it on
    # either side; no sheet is picked, so the continuation must refuse
    from wkbspec.errors import PhaseTrackingError

    pot = PotentialQuadratic.z_form(0.0)
    with pytest.raises(PhaseTrackingError):
        action_with_phase(pot, Contour([-1.0, 0.0, 1.0]), cmath.phase(pot(-1.0)))


@pytest.mark.parametrize("t", [0.0, 1.0])
@pytest.mark.parametrize("psi", [0.0, 1.3])
@pytest.mark.parametrize("a", [2 + 1j, -0.5 + 0.7j, 0.3 - 1.2j, 1.5 - 0.2j])
def test_phase_at_turning_point_end(t, psi, a):
    # arriving on a turning point t along [a, t], P ~ P'(t) (z - t), so the
    # one-sided limit of arg P is arg P'(t) + arg(a - t)
    pot = PotentialQuadratic.z_form(psi)
    _, phase = action_with_phase(pot, Contour([a, t]), cmath.phase(pot(a)))
    expected = cmath.phase(pot.slope_at(t)) + cmath.phase(a - t)
    assert abs(math.remainder(phase - expected, 2.0 * math.pi)) < 1e-12


def test_segment_closed_rejects_negative():
    with pytest.raises(ValueError):
        segment_integral_closed(-0.1)
    with pytest.raises(ValueError):
        half_line_integral_split(-1.0)


# ---------------------------------------------------------------------------
# the action integral
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("psi", [0.0, 0.3, 1.2, 2.5, 4.4, 5.9])
def test_action_between_turning_points(psi):
    # int_0^1 of the branch i e^{2 i psi} sqrt(x(1-x)) equals e^{2 i psi} i pi/8
    pot = PotentialQuadratic.z_form(psi)
    val = action_with_phase(pot, Contour([0.0, 1.0]), 4.0 * psi + math.pi)[0]
    assert abs(val - cmath.exp(2j * psi) * 1j * math.pi / 8.0) < 1e-11


def _chord(a, b, pieces=8):
    # one straight chord cut into collinear pieces: a single Gauss panel loses
    # accuracy where the chord passes near the other turning point
    return Contour([a + (b - a) * k / pieces for k in range(pieces + 1)])


@pytest.mark.parametrize(
    "pot",
    [PotentialQuadratic.z_form(psi) for psi in (0.0, 1.3, 4.0)]
    + [PotentialQuadratic.t_form(mu) for mu in (1.0 + 0.3j, 0.62j, -0.62)],
    ids=lambda pot: f"{pot.kind}-{pot.psi if pot.kind == 'z' else pot.mu}",
)
def test_closed_action_matches_quadrature(pot):
    rng = np.random.default_rng(7)
    tps = pot.turning_points()
    for tp in tps:
        at = _closed_action(pot, tp)
        other = [t for t in tps if t != tp]
        checked = 0
        while checked < 8:
            z = complex(*rng.uniform(-2.5, 2.5, 2))
            w = z + complex(*rng.uniform(-1.0, 1.0, 2))
            if not (
                _segment_clear_of_turning_points(tp, z, 0.1, other)
                and _segment_clear_of_turning_points(z, w, 0.1, tps)
            ):
                continue
            checked += 1
            # a chord that starts on the turning point, where S = 0
            phase0 = cmath.phase(pot.slope_at(tp)) + cmath.phase(z - tp)
            s_z, _, phase, lg = at(tp, phase0, 0j, z)
            ref = action_with_phase(pot, _chord(tp, z), phase0)[0]
            assert abs(s_z - ref) <= 1e-13 * max(1.0, abs(ref))
            # and a chord between ordinary points, continued from there
            s_w = at(z, phase, lg, w)[0]
            ref = action_with_phase(pot, _chord(z, w), phase)[0]
            assert abs(s_w - s_z - ref) <= 1e-13 * max(1.0, abs(ref))


def test_long_chords_from_turning_points_match_closed_action():
    # chords from a turning point to a random point of [-3, 3]^2, many of
    # them passing close by the other turning point, and one of length 3.05
    # that passes 0.054 from the turning point 0
    pots = [PotentialQuadratic.z_form(psi) for psi in (0.0, 0.7, 1.3, 2.2, 3.1, 4.0, 5.5)]
    pots += [PotentialQuadratic.t_form(mu) for mu in (1.0 + 0.3j, 0.62j, -0.62, 1.5 - 1.2j)]
    rng = np.random.default_rng(440)
    chords = [
        (pot, tp, complex(*rng.uniform(-3.0, 3.0, 2)))
        for pot in pots
        for tp in pot.turning_points()
        for _ in range(20)
    ]
    chords.append((PotentialQuadratic.z_form(0.0), 1.0, -2.0422 + 0.1643j))
    for pot, tp, z in chords:
        phase0 = cmath.phase(pot.slope_at(tp)) + cmath.phase(z - tp)
        s_z = _closed_action(pot, tp)(tp, phase0, 0j, z)[0]
        assert abs(action_with_phase(pot, Contour([tp, z]), phase0)[0] - s_z) <= 1e-11 * max(1.0, abs(s_z))


@pytest.mark.parametrize(
    "pot",
    [PotentialQuadratic.z_form(psi) for psi in (0.3, 2.0)]
    + [PotentialQuadratic.t_form(mu) for mu in (1e4 * cmath.exp(0.3j), -300j)],
    ids=lambda pot: f"{pot.kind}-{pot.psi if pot.kind == 'z' else pot.mu}",
)
def test_closed_action_near_and_far_from_the_turning_point(pot):
    # next to tp the two terms of the closed form are |t2 - t1| / |z - tp|
    # times S and cancel (1.7e-9 relative at |mu| = 1e4); far out
    # u + q / sqrt(k) cancels, to exactly 0 on some of these chords.  The
    # near points sit by the turning point 0 only: next to t2 = mu, z - mu
    # keeps just the absolute precision of mu
    t1, t2 = pot.turning_points()
    scale = abs(t2 - t1)
    far = [r * max(1.0, scale) for r in (1e8, 1e10)]
    for tp, radii in ((t1, [r * scale for r in (1e-5, 3e-3, 0.05)] + far), (t2, far)):
        at = _closed_action(pot, tp)
        for r in radii:
            for j in range(8):
                z = tp + r * cmath.exp(1j * (0.1 + j * math.pi / 4.0))
                phase0 = cmath.phase(pot.slope_at(tp)) + cmath.phase(z - tp)
                s_z = at(tp, phase0, 0j, z)[0]
                ref = action_with_phase(pot, Contour([tp, z]), phase0)[0]
                assert abs(s_z - ref) <= 1e-11 * max(1.0, abs(ref)), (tp, z, s_z, ref)


def test_degenerate_contour_rejected():
    # a zero-length path cannot be built; the empty integral is the caller's 0
    with pytest.raises(ValueError):
        Contour([0.7, 0.7])


def _segment_clear_of_turning_points(a, b, margin=0.05, tps=(0.0, 1.0)):
    for tp in tps:
        d = b - a
        t = min(1.0, max(0.0, ((tp - a) * d.conjugate()).real / abs(d) ** 2))
        if abs(tp - (a + t * d)) < margin:
            return False
    return True


def test_action_additivity_hundred_random_paths():
    rng = np.random.default_rng(20240811)
    count = 0
    worst = 0.0
    while count < 100:
        psi = rng.uniform(0.0, 2.0 * math.pi)
        pot = PotentialQuadratic.z_form(psi)
        pts = rng.uniform(-1.5, 2.5, size=3) + 1j * rng.uniform(-2.0, 2.0, size=3)
        a, b, c = (complex(z) for z in pts)
        if abs(a - b) < 1e-2 or abs(b - c) < 1e-2:
            continue
        if not (_segment_clear_of_turning_points(a, b) and _segment_clear_of_turning_points(b, c)):
            continue
        anchor = cmath.phase(pot(a))
        whole = action_with_phase(pot, Contour([a, b, c]), anchor)[0]
        first, phase_b = action_with_phase(pot, Contour([a, b]), anchor)
        second, _ = action_with_phase(pot, Contour([b, c]), phase_b)
        worst = max(worst, abs(whole - (first + second)))
        count += 1
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_segment_closed_at_zero():
    assert segment_integral_closed(0.0) == 0.0


def test_segment_closed_arcsin_decomposition():
    # at tau = tan(pi/10) the arcsin value decomposes in elementary terms
    tau = math.tan(math.pi / 10.0)
    w = cmath.asin(1.0 + 2j * tau)
    a_val = math.atan(math.sqrt(math.sqrt(5.0) / 2.0))
    b_val = -0.5 * math.log(
        1.0 + 4.0 * math.sqrt(5.0) / 5.0 - 4.0 * math.sqrt((math.sqrt(5.0) + 2.0) / 10.0)
    )
    assert abs(w.real - a_val) < 1e-14
    assert abs(w.imag - b_val) < 1e-14
    # and the closed form is consistent with its own arcsin piece
    seg = segment_integral_closed(tau)
    rebuilt = 0.25 * (1 + 2j * tau) * cmath.sqrt(tau**2 - 1j * tau) + 0.125 * w - math.pi / 16.0
    assert abs(seg - rebuilt) < 1e-15


def test_segment_closed_vs_composite_gauss():
    # 64 panels on [1, 1 + 0.3 i], graded toward the sqrt zero at z = 1
    tau = 0.3
    x, w = leggauss(24)
    total = 0.0 + 0.0j
    for k in range(64):
        a = 1.0 + 1j * tau * (k / 64.0) ** 3
        b = 1.0 + 1j * tau * ((k + 1) / 64.0) ** 3
        z = 0.5 * (a + b) + 0.5 * (b - a) * x
        total += 0.5 * (b - a) * np.sum(w * np.sqrt(z * (1.0 - z) + 0j))
    assert abs(total - segment_integral_closed(tau)) < 1e-12


@pytest.mark.parametrize("tau", [0.05 * k for k in range(21)])
def test_segment_closed_vs_quadrature_grid(tau):
    # substitute z = 1 + i t: integrand sqrt(t^2 - i t), graded quadrature
    if tau == 0.0:
        assert segment_integral_closed(tau) == 0.0
        return
    re_i, im_i = half_line_integral_split(tau)
    assert abs(segment_integral_closed(tau) - 1j * complex(re_i, im_i)) < 1e-10


def test_half_line_split_zero():
    assert half_line_integral_split(0.0) == (0.0, 0.0)


@pytest.mark.parametrize("x", [0.1, 0.3, 0.7, 1.0, 1.5, 2.0])
def test_half_line_split_vs_complex_quadrature(x):
    re_i, im_i = half_line_integral_split(x)
    nodes, w = leggauss(24)
    total = 0.0 + 0.0j
    for k in range(64):
        a = x * (k / 64.0) ** 2
        b = x * ((k + 1) / 64.0) ** 2
        t = 0.5 * (a + b) + 0.5 * (b - a) * nodes
        total += 0.5 * (b - a) * np.sum(w * np.sqrt(t * t - 1j * t))
    assert abs(complex(re_i, im_i) - total) < 1e-10


@pytest.mark.parametrize("x", [0.2, 0.5, 1.0, 1.7])
def test_half_line_split_signs_and_argument_window(x):
    re_i, im_i = half_line_integral_split(x)
    assert re_i > 0.0 and im_i < 0.0
    theta = math.atan(x)
    arg = cmath.phase(complex(re_i, im_i))
    assert -math.pi / 4.0 < arg < -math.pi / 4.0 + theta / 2.0


def test_half_line_split_lower_bound_at_pi_9():
    re_i, _ = half_line_integral_split(1.0 / math.sqrt(3.0))
    assert re_i > (math.sqrt(2.0) / 3.0) * (math.pi / 9.0) ** 1.5


def test_half_line_split_monotonicity_by_differences():
    xs = [0.05 * k for k in range(1, 41)]
    vals = [half_line_integral_split(x) for x in xs]
    for (r0, i0), (r1, i1) in zip(vals[:-1], vals[1:]):
        assert r1 > r0
        assert i1 < i0
