"""Stokes curves of the quadratic potentials: tracing the level lines
Re S = 0 emanating from turning points, assembling the two Stokes
complexes, and classifying how the ray at angle gamma - psi meets them.

A Stokes curve launched from a simple turning point tp leaves along one of
three analytically known directions (separated by 2*pi/3).  The tracer
follows the level set of Re S with a tangent predictor (the direction along
which sqrt(P) dz is purely imaginary) and a Newton corrector that projects
back onto Re S = 0, accumulating S incrementally so the conservation
invariant |Re S| stays at roundoff level.  The tracer carries arg P and
continues it along each step's chord with the exact chord rule of
wkbspec.actions, so every sqrt(P) it uses lies on one sheet.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .actions import PotentialQuadratic, _chord_arg, action
from .errors import TracingError
from .numerics import Contour, refine_brackets

__all__ = [
    "CrossingCheck",
    "RayCrossingReport",
    "StokesCurve",
    "StokesGraph",
    "build_stokes_graph",
    "classify_crossings",
    "launch_angles",
    "ray_crossing_report",
    "ray_extremum",
    "trace_stokes_curve",
]

TO_INFINITY = "infinity"
TO_TURNING_POINT = "turning_point"

_LAUNCH_DISTANCE = 1e-4
_DEFAULT_MAX_ARCLEN = 12.0
_THETA_MAX = 0.02  # direction change per step, radians


@dataclass(frozen=True)
class StokesCurve:
    """One traced Stokes curve."""

    origin: complex
    direction_index: int
    initial_angle: float
    points: tuple
    terminal: str
    asymptotic_angle: Optional[float] = None
    reaches: Optional[complex] = None

    @property
    def arclength(self) -> float:
        return float(sum(abs(b - a) for a, b in zip(self.points[:-1], self.points[1:])))


@dataclass(frozen=True)
class StokesGraph:
    potential: PotentialQuadratic
    curves: tuple
    complex1: tuple  # indices of curves attached to turning point 0
    complex2: tuple  # indices of curves attached to the other turning point
    compound: bool


@dataclass(frozen=True)
class RayCrossingReport:
    gamma: float
    psi: float
    crossings_complex1: tuple  # radii of crossings outside the origin
    crossings_complex2: tuple
    crossing_points_complex1: tuple
    crossing_points_complex2: tuple
    extremum: Optional[Tuple[float, float]]  # (tau0, beta0) when present

    @property
    def count_complex1(self) -> int:
        return len(self.crossings_complex1)

    @property
    def count_complex2(self) -> int:
        return len(self.crossings_complex2)


@dataclass(frozen=True)
class CrossingCheck:
    """One psi of the classification sweep and whether it fits its regime."""

    psi: float
    regime: int  # 1: psi in (0, gamma); 2: (gamma, 2 pi - 3 gamma); 3: (2 pi - 3 gamma, 2 pi)
    report: RayCrossingReport
    matches: bool


# ---------------------------------------------------------------------------
# launch directions
# ---------------------------------------------------------------------------

def launch_angles(pot: PotentialQuadratic, tp: complex) -> List[float]:
    """The three Stokes-curve inclinations at a simple turning point.

    With P(z) ~ C (z - tp) near the zero, Re S = 0 leaves along
    pi/3 - arg(C)/3 + 2 pi k / 3.
    """
    arg_c = cmath.phase(pot.slope_at(tp))
    return [math.pi / 3.0 - arg_c / 3.0 + 2.0 * math.pi * k / 3.0 for k in range(3)]


def _other_turning_point(pot: PotentialQuadratic, tp: complex) -> complex:
    a, b = pot.turning_points()
    return b if abs(tp - a) < abs(tp - b) else a


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

# Python floats: arithmetic on numpy scalars would dominate the step cost
_G3_X, _G3_W = (v.tolist() for v in np.polynomial.legendre.leggauss(3))


def _continue(pot, z0, phase0, z1):
    """(sqrt(P), arg P) at z1, continued along the chord from arg P = phase0 at z0."""
    phase = phase0 + float(_chord_arg(pot, z0, z1, z1))
    return cmath.rect(math.sqrt(abs(pot(z1))), 0.5 * phase), phase


def _tangent(w, prev_dir):
    """Unit tangent of the level curve, oriented along prev_dir."""
    t = 1j * w.conjugate() / abs(w)
    if (t * prev_dir.conjugate()).real < 0.0:
        t = -t
    return t


def _segment_increment(pot, z0, phase0, z1):
    """3-point Gauss increment of S over [z0, z1] on the sheet continued from z0."""
    mid = 0.5 * (z0 + z1)
    half = 0.5 * (z1 - z0)
    total = 0.0j
    for xk, wk in zip(_G3_X, _G3_W):
        total += wk * _continue(pot, z0, phase0, mid + half * xk)[0]
    return half * total


def trace_stokes_curve(
    pot: PotentialQuadratic,
    tp: complex,
    k: int,
    max_arclen: float = _DEFAULT_MAX_ARCLEN,
    step: Optional[float] = None,
    sag_tol: float = 1e-4,
) -> StokesCurve:
    """Trace the k-th Stokes curve from the turning point tp.

    Predictor: midpoint step along the unit tangent (sqrt(P) times the
    tangent is purely imaginary on the curve).  Corrector: Newton projection
    back onto Re S = 0 using the accumulated action.  The step adapts to the
    local direction change (cap _THETA_MAX) and to the chord sagitta
    (cap sag_tol) so the stored polyline stays close to the true curve.

    Terminates either past max_arclen (TO_INFINITY, with the asymptotic
    angle fitted from the outer tail) or within 10 steps of the other
    turning point (TO_TURNING_POINT).
    """
    tp = complex(tp)
    angles = launch_angles(pot, tp)
    phi = angles[k % 3]
    other = _other_turning_point(pot, tp)
    scale = max(1.0, abs(pot.turning_points()[1] - pot.turning_points()[0]))
    step0 = step if step is not None else 1e-3 * scale
    capture_radius = 10.0 * step0

    z = tp + _LAUNCH_DISTANCE * scale * cmath.exp(1j * phi)
    phase = cmath.phase(pot(z))
    s_acc = action(pot, Contour([tp, z]), phase)
    w = cmath.sqrt(pot(z))
    t0 = _tangent(w, cmath.exp(1j * phi))
    # tiny Newton cleanup of the launch point
    for _ in range(3):
        slope = (w * (1j * t0)).real
        if abs(slope) < 1e-30:
            break
        dz = -s_acc.real / slope * (1j * t0)
        s_acc += w * dz
        w, phase = _continue(pot, z, phase, z + dz)
        z += dz

    points = [tp, z]
    arclen = abs(z - tp)
    h = step0
    prev_dir = t0
    fails = 0
    terminal = TO_INFINITY
    reaches = None

    while arclen < max_arclen:
        t_here = _tangent(w, prev_dir)
        zm = z + 0.5 * h * t_here
        t_mid = _tangent(cmath.sqrt(pot(zm)), t_here)  # a tangent is the same on both sheets
        z_new = z + h * t_mid
        s_new = s_acc + _segment_increment(pot, z, phase, z_new)
        w_new, phase_new = _continue(pot, z, phase, z_new)
        t_new = _tangent(w_new, t_mid)
        # Newton projection onto Re S = 0 along the normal
        ok = True
        for _ in range(3):
            n_hat = 1j * t_new
            slope = (w_new * n_hat).real
            if abs(slope) < 1e-30:
                ok = False
                break
            delta = -s_new.real / slope
            if abs(delta) > 0.1 * h:
                ok = False
                break
            s_new += w_new * delta * n_hat
            w_new, phase_new = _continue(pot, z_new, phase_new, z_new + delta * n_hat)
            z_new += delta * n_hat
            t_new = _tangent(w_new, t_mid)
            if abs(s_new.real) < 1e-12 * max(1.0, abs(s_new.imag)):
                break
        dtheta = abs(cmath.phase(t_new * prev_dir.conjugate()))
        if not ok or dtheta > _THETA_MAX:
            h *= 0.5
            fails += 1
            if fails >= 5 and not ok:
                raise TracingError(
                    f"corrector stalled at z={z:.6g} after 5 consecutive failures"
                )
            if h < 1e-9 * scale:
                raise TracingError(f"step underflow while tracing at z={z:.6g}")
            continue
        fails = 0
        points.append(z_new)
        arclen += abs(z_new - z)
        z, w, phase, s_acc, prev_dir = z_new, w_new, phase_new, s_new, t_new
        if abs(z - other) < capture_radius:
            terminal = TO_TURNING_POINT
            reaches = other
            points.append(other)
            break
        # step adaptation: direction-change target plus sagitta control
        if dtheta > 0.0:
            h_sag = math.sqrt(8.0 * sag_tol * h / dtheta)
        else:
            h_sag = 4.0 * h
        h_theta = h * min(2.0, max(0.3, 0.5 * _THETA_MAX / max(dtheta, 1e-12)))
        h = min(h_theta, h_sag, 0.35 * scale * (1.0 + 0.25 * abs(z - tp)))
        # never step across the other turning point: on the finite curve
        # [0, mu] of an on-axis t-form the predictor would jump past it
        h = min(h, 0.5 * abs(z - other))

    asym = None
    if terminal == TO_INFINITY:
        asym = _fit_asymptotic_angle(pot, points)
    return StokesCurve(
        origin=tp,
        direction_index=k % 3,
        initial_angle=phi,
        points=tuple(points),
        terminal=terminal,
        asymptotic_angle=asym,
        reaches=reaches,
    )


def _fit_asymptotic_angle(pot: PotentialQuadratic, points) -> float:
    """Least-squares fit of the escaping tail direction.

    The tangent angle approaches the asymptote like (a + b log r)/r^2 with
    r the distance from the centroid of the turning points; fitting that
    model on the outer tail removes the slowly decaying bias.
    """
    tps = pot.turning_points()
    anchor = 0.5 * (tps[0] + tps[1])
    mids = [(0.5 * (a + b)) for a, b in zip(points[:-1], points[1:])]
    raw = [cmath.phase(b - a) for a, b in zip(points[:-1], points[1:])]
    # unwrap the chord angles
    ang = [raw[0]]
    for v in raw[1:]:
        ang.append(v + 2.0 * math.pi * round((ang[-1] - v) / (2.0 * math.pi)))
    r = np.array([abs(m - anchor) for m in mids])
    ang = np.array(ang)
    r_max = float(r[-1])
    theta = None
    for frac in (0.45, 0.25):
        mask = r >= max(2.0, frac * r_max)
        if int(mask.sum()) >= 8:
            a_mat = np.column_stack(
                [np.ones(int(mask.sum())), 1.0 / r[mask] ** 2, np.log(r[mask]) / r[mask] ** 2]
            )
            coef, *_ = np.linalg.lstsq(a_mat, ang[mask], rcond=None)
            theta = float(coef[0])
            break
    if theta is None:
        theta = float(ang[-1])
    # principal value
    return math.atan2(math.sin(theta), math.cos(theta))


# ---------------------------------------------------------------------------
# graph assembly
# ---------------------------------------------------------------------------

def build_stokes_graph(
    pot: PotentialQuadratic,
    max_arclen: float = _DEFAULT_MAX_ARCLEN,
    sag_tol: float = 1e-4,
) -> StokesGraph:
    """Trace all six Stokes curves and group them into the two complexes.

    The compound flag is set when a finite Stokes curve joins the turning
    points.  For the t-form potential this happens exactly at
    arg mu = 0 mod pi/2; the geometric detection wins on disagreement and
    the mismatch is reported as a diagnostic.
    """
    tps = pot.turning_points()
    curves = []
    for tp in tps:
        for k in range(3):
            curves.append(trace_stokes_curve(pot, tp, k, max_arclen, sag_tol=sag_tol))
    # deterministic order: by origin (0 first), then launch angle
    order = sorted(
        range(len(curves)),
        key=lambda i: (abs(curves[i].origin - tps[0]) > 1e-12, curves[i].initial_angle),
    )
    curves = [curves[i] for i in order]
    c1 = tuple(i for i, c in enumerate(curves) if abs(c.origin - tps[0]) < 1e-12)
    c2 = tuple(i for i, c in enumerate(curves) if abs(c.origin - tps[1]) < 1e-12)
    geometric_compound = any(c.terminal == TO_TURNING_POINT for c in curves)
    if pot.kind == "t":
        psi = cmath.phase(pot.mu) % (2.0 * math.pi)
    else:
        psi = pot.psi
    analytic_compound = min(psi % (math.pi / 2.0), math.pi / 2.0 - psi % (math.pi / 2.0)) < 1e-9
    if geometric_compound != analytic_compound:
        import warnings

        warnings.warn(
            f"compound-complex detection disagrees (geometric={geometric_compound}, "
            f"analytic={analytic_compound}); keeping the geometric result",
            RuntimeWarning,
            stacklevel=2,
        )
    return StokesGraph(
        potential=pot,
        curves=tuple(curves),
        complex1=c1,
        complex2=c2,
        compound=geometric_compound,
    )


# ---------------------------------------------------------------------------
# ray analysis
# ---------------------------------------------------------------------------

def ray_extremum(gamma: float, psi: float) -> Optional[Tuple[float, float]]:
    """Location of the single extremum of Re S along the ray gamma - psi.

    Returns (tau0, beta0) with tau0 = sin(3 gamma + psi)/sin(4 gamma) and
    beta0 = sin(gamma - psi)/sin(4 gamma) when both are positive (psi in
    (0, gamma) or (2 pi - 3 gamma, 2 pi)); None otherwise, meaning Re S is
    monotone along the ray.
    """
    if not 0.0 < gamma < math.pi / 4.0:
        raise ValueError("gamma must lie in (0, pi/4)")
    if not 0.0 < psi < 2.0 * math.pi:
        raise ValueError("psi must lie in (0, 2*pi)")
    if psi == gamma:
        raise ValueError("psi = gamma is excluded")
    s4 = math.sin(4.0 * gamma)
    tau0 = math.sin(3.0 * gamma + psi) / s4
    beta0 = math.sin(gamma - psi) / s4
    if tau0 > 0.0 and beta0 > 0.0:
        return tau0, beta0
    return None


def numerical_ray_extremum(
    psi: float, gamma: float, tau_hi: float = 3.0, tol: float = 1e-11
) -> Optional[float]:
    """Locate the extremum of Re S along the ray by a root of its slope.

    Independent of the closed-form ray_extremum: evaluates the action from
    the origin to tau * e^{i(gamma - psi)} by branch-tracked quadrature and
    finds an interior extremum bracket on a scan.  Returns None when the
    scan sees no interior extremum (monotone case).
    """
    pot = PotentialQuadratic.z_form(psi)
    d = cmath.exp(1j * (gamma - psi))
    # arg P at the start of the ray: P ~ -e^{4 i psi} z with z = tau e^{i(gamma-psi)}
    anchor = 3.0 * psi + gamma + math.pi

    def f(tau: float) -> float:
        return action(pot, Contour([0.0, tau * d]), anchor).real

    taus = [tau_hi * (k / 48.0) ** 2 for k in range(1, 49)]
    vals = [f(t) for t in taus]
    i_max = max(range(len(vals)), key=vals.__getitem__)
    i_min = min(range(len(vals)), key=vals.__getitem__)
    if 0 < i_max < len(vals) - 1:
        idx = i_max
    elif 0 < i_min < len(vals) - 1:
        idx = i_min
    else:
        return None

    # the extremum is the root of d(Re S)/d tau = Re(sqrt(P) * direction): a
    # value-based search alone is limited to sqrt(eps/|S''|) and the extremum
    # can be nearly flat close to the regime boundaries
    def slope(tau):
        z = tau * d
        phase = anchor + _chord_arg(pot, 0.0, tau_hi * d, z)
        return (np.sqrt(np.abs(pot(z))) * np.exp(0.5j * phase) * d).real

    ends = np.array([taus[idx - 1], taus[idx + 1]])
    g = slope(ends)
    (lo,), (hi,) = refine_brackets(slope, ends[:1], ends[1:], g[:1], g[1:], tol)
    return 0.5 * (lo + hi)


def _ray_polyline_crossings(direction: complex, curve: StokesCurve, r_min: float):
    """Radii and points where the curve crosses the ray {tau*direction, tau>0}.

    Points lying on the ray to within roundoff (the ambiguous case of a
    crossing at a polyline node) are resolved by the signs of the nearest
    off-ray neighbors: opposite signs count as one crossing at the node,
    equal signs as a tangential touch that does not count.
    """
    rot = direction.conjugate()
    pts = [z * rot for z in curve.points]
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
                zc = pts[i] + t * (pts[j] - pts[i])
                radius = zc.real
            else:
                # the crossing sits on the on-ray node(s) between i and j
                radius = pts[(i + j) // 2].real
            if radius > r_min:
                out.append((radius, radius * direction))
        i = j
    return out


def ray_crossing_report(
    psi: float,
    gamma: float,
    max_arclen: float = _DEFAULT_MAX_ARCLEN,
    graph: Optional[StokesGraph] = None,
) -> RayCrossingReport:
    """Count intersections of the ray at angle gamma - psi with both
    Stokes complexes of P(z) = e^{4 i psi} z (z - 1).

    Curves of the first complex start at the origin, which lies on the
    closure of the ray; crossings inside a small exclusion radius do not
    count ("outside z = 0").
    """
    if not 0.0 < gamma < math.pi / 4.0:
        raise ValueError("gamma must lie in (0, pi/4)")
    if not 0.0 < psi < 2.0 * math.pi or psi == gamma:
        raise ValueError("psi must lie in (0, 2*pi), psi != gamma")
    if graph is None:
        graph = build_stokes_graph(PotentialQuadratic.z_form(psi), max_arclen)
    direction = cmath.exp(1j * (gamma - psi))
    r_min = 1e-6
    hits1, hits2 = [], []
    for idx in graph.complex1:
        hits1.extend(_ray_polyline_crossings(direction, graph.curves[idx], r_min))
    for idx in graph.complex2:
        hits2.extend(_ray_polyline_crossings(direction, graph.curves[idx], r_min))
    hits1.sort(key=lambda rc: rc[0])
    hits2.sort(key=lambda rc: rc[0])
    return RayCrossingReport(
        gamma=gamma,
        psi=psi,
        crossings_complex1=tuple(r for r, _ in hits1),
        crossings_complex2=tuple(r for r, _ in hits2),
        crossing_points_complex1=tuple(p for _, p in hits1),
        crossing_points_complex2=tuple(p for _, p in hits2),
        extremum=ray_extremum(gamma, psi),
    )


def _fits_regime(regime: int, rep: RayCrossingReport) -> bool:
    if regime == 1:
        # two crossings with the second complex, straddling the extremum
        return (
            rep.count_complex1 == 0
            and rep.count_complex2 == 2
            and rep.crossings_complex2[0] < rep.extremum[0] < rep.crossings_complex2[1]
        )
    if regime == 2:
        return rep.count_complex1 == 0 and rep.count_complex2 <= 1 and rep.extremum is None
    return rep.count_complex1 == 1 and rep.count_complex2 <= 1 and rep.extremum is not None


def classify_crossings(gamma: float, per_regime: int) -> List[CrossingCheck]:
    """Check the crossing pattern of the ray at angle gamma - psi on a psi sweep.

    per_regime midpoint samples of psi in each of the three regimes
    (0, gamma), (gamma, 2 pi - 3 gamma) and (2 pi - 3 gamma, 2 pi), in that
    order.  Regime 1: no crossing with the first complex, two with the
    second, and the extremum of Re S between them.  Regime 2: no crossing
    with the first complex, at most one with the second, Re S monotone.
    Regime 3: one crossing with the first complex, at most one with the
    second, and an extremum.
    """
    regimes = (
        (1, 0.0, gamma),
        (2, gamma, 2.0 * math.pi - 4.0 * gamma),
        (3, 2.0 * math.pi - 3.0 * gamma, 3.0 * gamma),
    )
    out = []
    for regime, start, span in regimes:
        for i in range(per_regime):
            psi = start + (i + 0.5) * span / per_regime
            rep = ray_crossing_report(psi, gamma)
            out.append(CrossingCheck(psi, regime, rep, _fits_regime(regime, rep)))
    return out
