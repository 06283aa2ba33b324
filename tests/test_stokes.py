import cmath
import math
import warnings

import numpy as np
import pytest

from wkbspec.actions import PotentialQuadratic, action_with_phase
from wkbspec.numerics import Contour, refine_brackets
from wkbspec.stokes import (
    build_stokes_graph,
    classify_crossings,
    launch_angles,
    ray_crossing_report,
    ray_extremum,
    trace_stokes_curve,
    _ray_extrema,
)

GAMMA = math.pi / 8.0


def test_turning_points():
    assert PotentialQuadratic.z_form(1.1).turning_points() == [0.0, 1.0]
    assert PotentialQuadratic.t_form(1.0).turning_points() == [0.0, 1.0]
    mu = cmath.exp(1j * math.pi / 5.0)
    assert PotentialQuadratic.t_form(mu).turning_points()[1] == mu


def _angle_set_matches(angles, expected, tol=1e-6):
    for a in angles:
        assert any(
            abs(math.remainder(a - e, 2.0 * math.pi)) < tol for e in expected
        ), f"angle {a} not in expected set"


@pytest.mark.parametrize("psi", [0.3, 1.1, 2.7, 4.6])
def test_launch_angles_t_form(psi):
    pot = PotentialQuadratic.t_form(cmath.exp(1j * psi))
    got = launch_angles(pot, 0.0)
    expected = [-psi / 3.0 + 2.0 * math.pi * k / 3.0 for k in range(3)]
    _angle_set_matches(got, expected)
    # three-fold emission: separations of 2 pi / 3
    d1 = math.remainder(got[1] - got[0], 2.0 * math.pi)
    d2 = math.remainder(got[2] - got[1], 2.0 * math.pi)
    assert abs(abs(d1) - 2.0 * math.pi / 3.0) < 1e-12
    assert abs(abs(d2) - 2.0 * math.pi / 3.0) < 1e-12


def test_launch_angles_z_form_affine_image():
    psi = math.pi / 5.0
    pot_z = PotentialQuadratic.z_form(psi)
    pot_t = PotentialQuadratic.t_form(cmath.exp(1j * psi))
    got_z = launch_angles(pot_z, 0.0)
    shifted_t = [a - psi for a in launch_angles(pot_t, 0.0)]
    _angle_set_matches(got_z, shifted_t, tol=1e-12)


def test_finite_stokes_curve_real_mu():
    curve = trace_stokes_curve(PotentialQuadratic.t_form(1.0), 0.0, 0)
    assert curve.terminal == "turning_point"
    assert curve.reaches == 1.0
    # the finite curve is the real segment [0, 1]
    assert max(abs(z.imag) for z in curve.points) < 1e-9
    assert curve.initial_angle == pytest.approx(0.0, abs=1e-12)


def test_asymptotic_directions_simple_graph():
    graph = build_stokes_graph(PotentialQuadratic.t_form(cmath.exp(1j * math.pi / 5.0)))
    assert not graph.compound
    for c in graph.curves:
        assert c.terminal == "infinity"
        k = (c.asymptotic_angle - math.pi / 4.0) / (math.pi / 2.0)
        assert abs(k - round(k)) * math.pi / 2.0 < 1e-3
        # the reported angle is exact; the traced tail must point along it
        tail = cmath.phase(c.points[-1] - c.points[-2])
        assert abs(math.remainder(tail - c.asymptotic_angle, 2.0 * math.pi)) < 2e-2


def test_compound_flag_quarter_turn():
    # on-axis mu joins the turning points by the finite curve [0, mu]; at
    # these moduli a predictor step along it can land beyond mu
    for mu in (1j, 0.525, 0.62j, -0.725, -0.925j, 0.92):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert build_stokes_graph(PotentialQuadratic.t_form(mu)).compound
    assert not build_stokes_graph(PotentialQuadratic.t_form(cmath.exp(1j * math.pi / 5.0))).compound


@pytest.mark.parametrize("mu", [13j, 20j, 20.0, -15j, 70.0])
def test_compound_flag_far_apart_turning_points(mu):
    # the arclength cap scales with |mu|, so the finite curve [0, mu] is
    # traced to its end however long it is
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        graph = build_stokes_graph(PotentialQuadratic.t_form(mu))
    assert graph.compound
    assert sum(c.terminal == "turning_point" for c in graph.curves) == 2


@pytest.mark.parametrize("mu", [1e-13, 1e-6, 1e-3, 0.005, 0.001j, 0.01, 0.1])
def test_compound_close_turning_points(mu):
    # the launch distance and the capture radius scale with |mu| itself, so
    # only the two curves on [0, mu] end at a turning point
    graph = build_stokes_graph(PotentialQuadratic.t_form(mu))
    assert graph.compound
    finite = [c for c in graph.curves if c.terminal == "turning_point"]
    assert len(finite) == 2
    assert {(c.origin, c.reaches) for c in finite} == {(0.0, mu), (mu, 0.0)}


def test_turning_points_too_close_to_trace_rejected():
    # refused at once: next to the launch sqrt(P)^3 underflows to 0
    with pytest.raises(ValueError):
        build_stokes_graph(PotentialQuadratic.t_form(1e-200))


def test_re_s_conserved_along_curves():
    # recompute the action independently along the stored polylines
    psi = math.pi / 5.0
    pot = PotentialQuadratic.z_form(psi)
    graph = build_stokes_graph(pot)
    for curve in graph.curves[:2]:
        pts = list(curve.points)
        for frac in (0.35, 1.0):
            m = max(2, int(len(pts) * frac))
            val = action_with_phase(pot, Contour(pts[:m]), cmath.phase(pot(pts[1])))[0]
            assert abs(val.real) < 1e-8


@pytest.mark.parametrize(
    "pot",
    [PotentialQuadratic.z_form(psi) for psi in (0.3, 1.3, 2.9, 4.0, 5.9)]
    + [PotentialQuadratic.t_form(mu) for mu in (0.725, 0.62j, 1.0 + 0.3j)],
    ids=lambda pot: f"{pot.kind}-{pot.psi if pot.kind == 'z' else pot.mu}",
)
def test_re_s_vanishes_at_every_vertex(pot):
    for curve in build_stokes_graph(pot).curves:
        for b, s_val in _vertex_actions(pot, curve.points):
            assert abs(s_val.real) <= 1e-10, f"Re S = {s_val.real:.2e} at {b} on the curve from {curve.origin}"


def _vertex_actions(pot, pts):
    """(vertex, S there) along the polyline from its turning point pts[0]:
    graded Gauss action along each prefix, chord by chord."""
    phase = cmath.phase(pot.slope_at(pts[0])) + cmath.phase(pts[1] - pts[0])
    s_val = 0.0j
    for a, b in zip(pts[:-1], pts[1:]):
        part, phase = action_with_phase(pot, Contour([a, b]), phase)
        s_val += part
        yield b, s_val


@pytest.mark.parametrize("modulus", [100.0, 1e3, 1e4])
@pytest.mark.parametrize("arg", [0.0, 0.3, 2.0])
def test_far_apart_turning_points_trace(modulus, arg):
    # next to the launch the two terms of the closed-form action are about
    # |t2 - t1| / |z - t1| times S and cancelled; Newton failed there from
    # |mu| ~ 60 on, so the action is summed as a series about t1
    pot = PotentialQuadratic.t_form(modulus * cmath.exp(1j * arg))
    graph = build_stokes_graph(pot)
    assert graph.compound == (arg == 0.0)
    assert sum(c.terminal == "turning_point" for c in graph.curves) == (2 if graph.compound else 0)
    longest = max((graph.curves[i] for i in graph.complex1), key=lambda c: len(c.points))
    for b, s_val in _vertex_actions(pot, longest.points):
        assert abs(s_val.real) <= 1e-10 * max(1.0, abs(s_val)), f"Re S = {s_val.real:.2e} at {b}"


@pytest.mark.parametrize("mu", [40 + 300j, 300 + 950j, -200 + 50j])
def test_trace_from_a_far_turning_point(mu):
    # z next to mu is rounded to eps |mu|, which moves S by |sqrt(P)| times
    # that: near the launch more than 1e-13 max(1, |S|), which Newton can
    # then not reach
    pot = PotentialQuadratic.t_form(mu)
    for k in range(3):
        curve = trace_stokes_curve(pot, mu, k)
        assert curve.terminal == "infinity"
        for b, s_val in _vertex_actions(pot, curve.points):
            assert abs(s_val.real) <= 1e-10 * max(1.0, abs(s_val)), f"Re S = {s_val.real:.2e} at {b}"


def test_re_s_conserved_far_out():
    # at |z| ~ 3e7, u + q / sqrt(k) in the closed-form action cancelled to
    # exactly 0 and its log raised; it is now taken as a^2 / (u - q / sqrt(k))
    pot = PotentialQuadratic.z_form(0.3)
    graph = build_stokes_graph(pot, max_arclen=1e8)
    for curve in graph.curves[:3]:
        assert curve.terminal == "infinity" and abs(curve.points[-1]) > 5e7
        for b, s_val in _vertex_actions(pot, curve.points):
            assert abs(s_val.real) <= 1e-10 * max(1.0, abs(s_val)), f"Re S = {s_val.real:.2e} at {b}"


def test_asymptotic_angle_along_the_negative_axis_is_pi():
    # psi = pi/4 + m pi/2 all give P = -z (z - 1), with one curve from 0
    # along the negative real axis; the sign of the rounding in its last
    # chord used to report -pi for three of the four
    for m in range(4):
        graph = build_stokes_graph(PotentialQuadratic.z_form(math.pi / 4.0 + m * math.pi / 2.0))
        assert [c.asymptotic_angle for c in graph.curves].count(math.pi) == 1
        assert -math.pi not in [c.asymptotic_angle for c in graph.curves]


_REFLECTED = (
    [PotentialQuadratic.z_form(j * math.pi / 16.0) for j in range(32)]  # every multiple of pi/8 is compound
    + [PotentialQuadratic.z_form(psi) for psi in (0.3, 1.1, 2.9, 6.2)]
    + [PotentialQuadratic.t_form(mu) for mu in (0.725, -0.725, 0.62j, -0.925j, 20.0, 13j, 1e-6, 0.001j)]
    + [PotentialQuadratic.t_form(mu) for mu in (1.2 + 0.7j, 0.809 + 0.588j, -3.0 - 0.4j, 0.05 - 0.01j, 4.0 - 2.5j)]
)


@pytest.mark.parametrize("pot", _REFLECTED, ids=lambda pot: f"{pot.kind}-{pot.psi if pot.kind == 'z' else pot.mu}")
def test_second_complex_is_the_reflection_of_the_first(pot):
    # the graph reflects the first complex through (t1 + t2)/2; an
    # independent trace from t2 must give the same curves
    graph = build_stokes_graph(pot)
    t1, t2 = pot.turning_points()
    for k, i in enumerate(graph.complex2):
        got, ref = graph.curves[i], trace_stokes_curve(pot, t2, k)
        fields = ("origin", "direction_index", "initial_angle", "terminal", "asymptotic_angle", "reaches")
        assert [getattr(got, f) for f in fields] == [getattr(ref, f) for f in fields]
        assert len(got.points) == len(ref.points)
        assert got.points[0] == t2 and (got.reaches is None or got.points[-1] == t1)
        gap = np.max(np.abs(np.subtract(got.points, ref.points)))
        assert gap <= 1e-6 * max(1.0, abs(t2 - t1)), (k, gap)


@pytest.mark.parametrize("max_arclen", [0.0, -1.0, math.nan, math.inf])
def test_bad_max_arclen_rejected(max_arclen):
    pot = PotentialQuadratic.z_form(0.3)
    with pytest.raises(ValueError):
        trace_stokes_curve(pot, 0.0, 0, max_arclen)
    with pytest.raises(ValueError):
        build_stokes_graph(pot, max_arclen)


@pytest.mark.parametrize("sag_tol", [0.0, -1.0, math.nan, math.inf])
def test_bad_sag_tol_rejected(sag_tol):
    # 0 made every step 0 (an endless loop), nan and inf dropped out of the
    # step caps, and a negative value failed inside the loop
    for pot in (PotentialQuadratic.z_form(0.3), PotentialQuadratic.t_form(1.2 + 0.7j)):
        with pytest.raises(ValueError, match="sag_tol"):
            trace_stokes_curve(pot, 0.0, 0, sag_tol=sag_tol)
        with pytest.raises(ValueError, match="sag_tol"):
            build_stokes_graph(pot, sag_tol=sag_tol)


def test_re_s_conserved_at_every_stored_point():
    # cumulative 4-node Gauss with sign-continued sqrt, written from scratch
    nodes = [-0.861136311594053, -0.339981043584856, 0.339981043584856, 0.861136311594053]
    weights = [0.347854845137454, 0.652145154862546, 0.652145154862546, 0.347854845137454]
    psi = 1.3
    pot = PotentialQuadratic.z_form(psi)
    graph = build_stokes_graph(pot)
    for curve in graph.curves:
        pts = curve.points
        w_ref = cmath.sqrt(pot(pts[1]))
        s_val = action_with_phase(pot, Contour(pts[:2]), cmath.phase(pot(pts[1])))[0]
        worst = abs(s_val.real)
        for a, b in zip(pts[1:-1], pts[2:]):
            if a == b:
                continue
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            inc = 0.0j
            for xk, wk in zip(nodes, weights):
                w = cmath.sqrt(pot(mid + half * xk))
                if abs(w - w_ref) > abs(w + w_ref):
                    w = -w
                w_ref = w
                inc += wk * w
            s_val += half * inc
            worst = max(worst, abs(s_val.real))
        assert worst < 1e-8, f"Re S drift {worst:.2e} on curve from {curve.origin}"


def test_initial_inclination_recorded_vs_launch_segment():
    pot = PotentialQuadratic.z_form(math.pi / 5.0)
    for k in range(3):
        curve = trace_stokes_curve(pot, 0.0, k)
        expected = launch_angles(pot, 0.0)[k]
        assert abs(curve.initial_angle - expected) < 1e-6
        # the first chord differs from the tangent by O(launch * curvature)
        seg = cmath.phase(curve.points[1] - curve.points[0])
        assert abs(math.remainder(seg - expected, 2.0 * math.pi)) < 1e-3


def test_graph_deterministic_ordering():
    # the graph keeps trace order, so each complex lists its turning point's
    # curves by increasing launch angle
    pots = [PotentialQuadratic.z_form(psi) for psi in (0.0, 0.9, 3.5, 6.2)] + [PotentialQuadratic.t_form(1.2 + 0.7j)]
    for pot in pots:
        g1 = build_stokes_graph(pot)
        g2 = build_stokes_graph(pot)
        assert [c.initial_angle for c in g1.curves] == [c.initial_angle for c in g2.curves]
        assert g1.complex1 == (0, 1, 2) and g1.complex2 == (3, 4, 5)
        tps = pot.turning_points()
        for cx, tp in ((g1.complex1, tps[0]), (g1.complex2, tps[1])):
            angles = [g1.curves[i].initial_angle for i in cx]
            assert angles == sorted(angles) and len(set(angles)) == 3, (pot, angles)
            assert all(g1.curves[i].origin == tp for i in cx), pot


def _poly_distance(p, polylines):
    best = math.inf
    for pts in polylines:
        arr = np.asarray(pts)
        a, b = arr[:-1], arr[1:]
        d = b - a
        t = np.clip(((p - a) * d.conjugate()).real / np.abs(d) ** 2, 0.0, 1.0)
        best = min(best, float(np.min(np.abs(p - (a + t * d)))))
    return best


def test_affine_equivalence_hausdorff():
    # z-form graph at psi equals the t-form graph at mu = e^{i psi} under z = t/mu
    psi = math.pi / 5.0
    mu = cmath.exp(1j * psi)
    gz = build_stokes_graph(PotentialQuadratic.z_form(psi), sag_tol=1e-7)
    gt = build_stokes_graph(PotentialQuadratic.t_form(mu), sag_tol=1e-7)
    z_polys = [c.points for c in gz.curves]
    worst = 0.0
    for c in gt.curves:
        for p in c.points[::5]:
            worst = max(worst, _poly_distance(p / mu, z_polys))
    for c in gz.curves:
        for p in c.points[::5]:
            worst = max(worst, _poly_distance(p * mu, [c2.points for c2 in gt.curves]))
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# ray extremum
# ---------------------------------------------------------------------------

def test_ray_extremum_monotone_regime():
    assert ray_extremum(GAMMA, math.pi) is None
    assert ray_extremum(GAMMA, 2.0 * math.pi - 3.0 * GAMMA) is None


@pytest.mark.parametrize("psi", [math.pi, 2.0 * math.pi - 3.0 * GAMMA - 0.05])
def test_numerical_ray_extremum_monotone_regime(psi):
    # regime 2: Re S is monotone along the ray, the scan finds no extremum
    assert ray_extremum(GAMMA, psi) is None
    assert _ray_extrema([psi], GAMMA)[0] == math.inf


def test_ray_extremum_formula_value():
    tau0, beta0 = ray_extremum(GAMMA, math.pi / 16.0)
    assert tau0 == pytest.approx(math.sin(7.0 * math.pi / 16.0), abs=1e-15)
    assert beta0 > 0.0


@pytest.mark.parametrize("psi", [math.pi / 16.0, 2.0 * math.pi - 3.0 * GAMMA + 0.01])
def test_ray_extremum_matches_numerical(psi):
    tau0, _ = ray_extremum(GAMMA, psi)
    tnum = _ray_extrema([psi], GAMMA)[0]
    assert abs(tau0 - tnum) < 1e-8


@pytest.mark.parametrize("gamma, psi", [(0.01, 6.253485307179586), (0.02, 6.223785)])
def test_numerical_ray_extremum_small_tau0(gamma, psi):
    # the first regime-3 psi of a 50-per-regime sweep: tau0 = 0.0075, so the
    # slope scan must start well below it
    tau0, _ = ray_extremum(gamma, psi)
    assert abs(tau0 - _ray_extrema([psi], gamma)[0]) < 1e-10


@pytest.mark.parametrize("gamma", [0.01, GAMMA, 0.78])
def test_sweep_records_carry_the_extremum_error(gamma, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(len(args[1]))
        return refine_brackets(*args)

    monkeypatch.setattr("wkbspec.stokes.refine_brackets", counted)
    n = 20
    checks = classify_crossings(gamma, n)
    # one call refines the crossings, one every extremum of the sweep
    assert len(calls) == 2 and calls[1] == 2 * n
    for chk in checks:
        if chk.regime == 2:
            assert chk.extremum_error is None
            continue
        assert chk.extremum_error < 1e-8
        # the one-psi sweep takes the same path: its lane lies on [0, 1]
        # instead of [2 j, 2 j + 1], which moves the refined root by a few
        # ulp of the lane abscissa times the scan interval
        tau0 = chk.report.extremum[0]
        assert abs(abs(tau0 - _ray_extrema([chk.psi], gamma)[0]) - chk.extremum_error) <= 1e-12 * tau0


def test_extremum_dichotomy_on_psi_grid():
    # presence/absence of the closed-form extremum against the sign test of
    # d(Re S)/d tau sampled along the ray at 1000 points
    pots = {}
    for k in range(200):
        psi = (k + 0.5) * 2.0 * math.pi / 200.0
        if abs(psi - GAMMA) < 1e-9:
            continue
        pot = PotentialQuadratic.z_form(psi)
        d = cmath.exp(1j * (GAMMA - psi))
        phase = 3.0 * psi + GAMMA + math.pi
        z_prev = 1e-9 * d
        signs = []
        for j in range(1, 1001):
            tau = 3.0 * j / 1000.0
            z = tau * d
            raw = cmath.phase(pot(z))
            phase = raw + 2.0 * math.pi * round((phase - raw) / (2.0 * math.pi))
            w = math.sqrt(abs(pot(z))) * cmath.exp(0.5j * phase)
            signs.append((w * d).real > 0.0)
        has_sign_change = any(a != b for a, b in zip(signs[:-1], signs[1:]))
        assert has_sign_change == (ray_extremum(GAMMA, psi) is not None), psi


# ---------------------------------------------------------------------------
# ray crossing classification
# ---------------------------------------------------------------------------

def _ray_polyline_crossings(direction, points, r_min=1e-6):
    """(radius, index of the chord) where the polyline crosses the ray
    {tau*direction, tau>0}, outside r_min.

    Points lying on the ray to within roundoff (the ambiguous case of a
    crossing at a polyline node) are resolved by the signs of the nearest
    off-ray neighbors: opposite signs count as one crossing at the node,
    equal signs as a tangential touch that does not count.
    """
    rot = direction.conjugate()
    pts = [z * rot for z in points]
    eps = 1e-12 * max(1.0, max(abs(z) for z in pts))
    signs = [0 if abs(z.imag) <= eps else (1 if z.imag > 0.0 else -1) for z in pts]
    out = []
    i = 0
    n = len(pts)
    while i < n - 1:
        si = signs[i]
        if si == 0:
            i += 1
            continue
        j = i + 1
        while j < n and signs[j] == 0:
            j += 1
        if j >= n:
            break
        if signs[j] != si:
            if j == i + 1:
                ia, ib = pts[i].imag, pts[j].imag
                t = ia / (ia - ib)
                radius = (pts[i] + t * (pts[j] - pts[i])).real
            else:
                # the crossing sits on the on-ray node(s) between i and j
                radius = pts[(i + j) // 2].real
            if radius > r_min:
                out.append((radius, i))
        i = j
    return out


def _oracle_arclen(gamma):
    # the extremum tau0 <= 1/sin(4 gamma) moves out as gamma nears pi/4, and
    # the crossings with it; the length depends on gamma alone, not on the
    # radii of the walk under test
    return 12.0 + 8.0 / math.sin(4.0 * gamma)


def _traced_crossings(psi, gamma):
    """Crossing radii of the ray with the traced polylines of each complex."""
    graph = build_stokes_graph(PotentialQuadratic.z_form(psi), _oracle_arclen(gamma))
    direction = cmath.exp(1j * (gamma - psi))
    return [
        sorted(r for idx in cx for r, _ in _ray_polyline_crossings(direction, graph.curves[idx].points))
        for cx in (graph.complex1, graph.complex2)
    ]


@pytest.mark.parametrize("gamma", [0.1, 0.318939790429, 0.5, 0.73, 0.76, 0.78])
def test_crossing_counts_match_traced_curves(gamma):
    # the closed-form walk against the traced oracle at every psi midpoint
    for chk in classify_crossings(gamma, 30):
        traced = _traced_crossings(chk.psi, gamma)
        rep = chk.report
        assert (rep.count_complex1, rep.count_complex2) == tuple(map(len, traced)), chk.psi


@pytest.mark.parametrize("psi", [0.5 * math.pi, math.pi, 1.5 * math.pi])
@pytest.mark.parametrize("gamma", [0.1, math.pi / 8.0, 0.6, 0.73, 0.78])
def test_crossing_counts_match_traced_curves_compound(psi, gamma):
    # at psi = m pi/2 the strip has zero width; counting it as the limit of a
    # thin one gave (1, 1) at (3 pi/2, 0.6), where the traced graph has (1, 0)
    rep = ray_crossing_report(psi, gamma)
    traced = _traced_crossings(psi, gamma)
    assert (rep.count_complex1, rep.count_complex2) == tuple(map(len, traced))
    pot = PotentialQuadratic.z_form(psi)
    direction = cmath.exp(1j * (gamma - psi))
    for r in rep.crossings_complex1:
        fine = [h[0] for k in range(3)
                for h in _ray_polyline_crossings(direction, trace_stokes_curve(pot, 0j, k, _oracle_arclen(gamma), sag_tol=1e-10).points)]
        assert min(abs(f - r) for f in fine) <= 1e-6 * r


def test_crossing_radii_match_fine_traces():
    # each crossing curve traced again at sag_tol 1e-10, just past the
    # crossing; the default sag_tol 1e-4 puts some crossings 1e-1 off
    for chk in classify_crossings(GAMMA, 3):
        pot = PotentialQuadratic.z_form(chk.psi)
        direction = cmath.exp(1j * (GAMMA - chk.psi))
        graph = build_stokes_graph(pot)
        rep = chk.report
        for cx, radii in ((graph.complex1, rep.crossings_complex1), (graph.complex2, rep.crossings_complex2)):
            for r in radii:
                curve, (_, i) = min(
                    ((graph.curves[idx], hit) for idx in cx
                     for hit in _ray_polyline_crossings(direction, graph.curves[idx].points)),
                    key=lambda ch: abs(ch[1][0] - r),
                )
                reach = sum(abs(b - a) for a, b in zip(curve.points[: i + 1], curve.points[1 : i + 2]))
                fine = trace_stokes_curve(pot, curve.origin, curve.direction_index, reach + 0.1, sag_tol=1e-10)
                r_fine = min((h[0] for h in _ray_polyline_crossings(direction, fine.points)), key=lambda x: abs(x - r))
                assert abs(r_fine - r) <= 1e-6 * r, (chk.psi, r, r_fine)


def test_crossings_regime_one():
    rep = ray_crossing_report(math.pi / 16.0, GAMMA)
    assert rep.count_complex1 == 0
    assert rep.count_complex2 == 2
    lo, hi = rep.crossings_complex2
    assert lo < rep.extremum[0] < hi


def test_crossings_regime_two():
    rep = ray_crossing_report(math.pi, GAMMA)
    assert rep.count_complex1 == 0
    assert rep.count_complex2 <= 1


def test_crossings_regime_three():
    rep = ray_crossing_report(2.0 * math.pi - 3.0 * GAMMA + 0.05, GAMMA)
    assert rep.count_complex1 == 1
    assert rep.count_complex2 <= 1


def test_crossing_report_argument_validation():
    with pytest.raises(ValueError):
        ray_crossing_report(0.5, 1.0)  # gamma outside (0, pi/4)
    with pytest.raises(ValueError):
        _ray_extrema([0.5], math.pi / 4.0)
    with pytest.raises(ValueError):
        ray_extremum(GAMMA, GAMMA)
