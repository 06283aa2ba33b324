"""Stokes curves of the quadratic potentials: tracing the level lines
Re S = 0 emanating from turning points, assembling the two Stokes
complexes, and classifying how the ray at angle gamma - psi meets them.

A Stokes curve launched from a simple turning point tp leaves along one of
three analytically known directions (separated by 2*pi/3).  The action S
from tp has a closed form for a quadratic P (wkbspec.actions), so the
tracer continues the curve as the level set S(z) = i s: each step advances
the real parameter s and solves for z by Newton, with no quadrature and no
accumulated error.  It carries arg P and the branch of the log in S, and
continues both along each step's chord (arg P by the exact chord rule of
wkbspec.actions), so every sqrt(P) it uses lies on one sheet.  Escaping
curves are reported with their exact asymptotic direction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .actions import PotentialQuadratic, _chord_arg, _closed_action
from .errors import TracingError
from .numerics import refine_brackets

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
_CAPTURE_RADIUS = 1e-2  # a curve this close to the other turning point ends there
_DEFAULT_MAX_ARCLEN = 12.0
_NEWTON_TOL = 1e-13
_NEWTON_MAX = 8


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

def _solve(at, z0, phase0, log0, z, target):
    """Newton on S(z) = target from the guess z; S is continued from the point z0."""
    for _ in range(_NEWTON_MAX):
        s_val, q, phase, lg = at(z0, phase0, log0, z)
        res = s_val - target
        if abs(res) <= _NEWTON_TOL * max(1.0, abs(target)):
            return z, q, phase, lg
        z -= res / q  # dS/dz = sqrt(P)
    raise TracingError(f"Newton on S(z) = {target:.6g} did not converge near z={z:.6g}")


def trace_stokes_curve(
    pot: PotentialQuadratic,
    tp: complex,
    k: int,
    max_arclen: float = _DEFAULT_MAX_ARCLEN,
    sag_tol: float = 1e-4,
) -> StokesCurve:
    """Trace the k-th Stokes curve from the turning point tp.

    The curve is the level set S(z) = i s, s real, of the closed-form action
    S from tp.  Each step advances s by h |sqrt(P)|, predicts along the
    tangent and solves S(z) = i s by Newton, so every stored point meets
    |S - i s| <= 1e-13 max(1, |s|).  The step h is capped by the distance
    to tp, by half the distance to the other turning point (so no chord
    passes near either), by the chord sagitta sag_tol at the exact
    curvature of the level line, and by an arclength cap that grows with
    the distance from tp.

    Terminates past an arclength of max_arclen times the scale
    max(1, |t2 - t1|) of the step caps (TO_INFINITY, with the exact
    asymptotic direction pi/4 - arg(k)/4 + j pi/2 nearest the last chord),
    or close to the other turning point (TO_TURNING_POINT).  So a finite
    curve between far-apart turning points is never cut short.
    """
    if not (math.isfinite(max_arclen) and max_arclen > 0.0):
        raise ValueError("max_arclen must be finite and positive")
    tp = complex(tp)
    phi = launch_angles(pot, tp)[k % 3]
    other = _other_turning_point(pot, tp)
    scale = max(1.0, abs(other - tp))
    at = _closed_action(pot, tp)

    # launch on the chord from tp, where arg P -> arg P'(tp) + phi, and
    # clean up onto S = i Im S
    z = tp + _LAUNCH_DISTANCE * scale * cmath.exp(1j * phi)
    s_val, q, phase, lg = at(tp, cmath.phase(pot.slope_at(tp)) + phi, 0j, z)
    s = s_val.imag
    z, q, phase, lg = _solve(at, z, phase, lg, z - s_val.real / q, 1j * s)
    sigma = 1.0 if s > 0.0 else -1.0  # |s| grows away from tp

    points = [tp, z]
    arclen = abs(z - tp)
    terminal = TO_INFINITY
    reaches = None
    while arclen < max_arclen * scale:
        dp = pot.slope_at(z)
        kappa = abs(q) * abs((dp / (2.0 * q**3)).real)
        h = min(
            abs(z - tp),
            0.5 * abs(z - other),
            math.sqrt(8.0 * sag_tol / kappa) if kappa > 0.0 else math.inf,
            0.35 * scale * (1.0 + 0.25 * abs(z - tp)),
        )
        ds = sigma * h * abs(q)
        s += ds
        dz = 1j * ds / q
        # second-order predictor, from S'' = P' / (2 sqrt(P))
        guess = z + dz - dp * dz * dz / (4.0 * q * q)
        z_new, q, phase, lg = _solve(at, z, phase, lg, guess, 1j * s)
        points.append(z_new)
        arclen += abs(z_new - z)
        z = z_new
        if abs(z - other) < _CAPTURE_RADIUS * scale:
            terminal = TO_TURNING_POINT
            reaches = other
            points.append(other)
            break

    asym = None
    if terminal == TO_INFINITY:
        base = math.pi / 4.0 - cmath.phase(pot.leading) / 4.0
        j = round((cmath.phase(points[-1] - points[-2]) - base) / (0.5 * math.pi))
        asym = math.remainder(base + 0.5 * math.pi * j, 2.0 * math.pi)
    return StokesCurve(
        origin=tp,
        direction_index=k % 3,
        initial_angle=phi,
        points=tuple(points),
        terminal=terminal,
        asymptotic_angle=asym,
        reaches=reaches,
    )


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


def numerical_ray_extremum(psi: float, gamma: float, tau_hi: float = 3.0) -> Optional[float]:
    """Locate the extremum of Re S along the ray by a root of its slope.

    Independent of the closed-form ray_extremum: d(Re S)/d tau =
    Re(sqrt(P) e^{i(gamma - psi)}), with sqrt(P) continued from the origin
    by the chord rule, is scanned on 48 taus in (0, tau_hi] and refined at
    its first sign change to a bracket 1e-11 wide (a value-based search
    alone is limited to sqrt(eps/|S''|), and the extremum can be nearly
    flat close to the regime boundaries).  Returns None when the scan sees
    no sign change (monotone case).
    """
    pot = PotentialQuadratic.z_form(psi)
    d = cmath.exp(1j * (gamma - psi))
    # arg P at the start of the ray: P ~ -e^{4 i psi} z with z = tau e^{i(gamma-psi)}
    anchor = 3.0 * psi + gamma + math.pi

    def slope(tau):
        z = tau * d
        phase = anchor + _chord_arg(pot, 0.0, tau_hi * d, z)
        return (np.sqrt(np.abs(pot(z))) * np.exp(0.5j * phase) * d).real

    taus = tau_hi * (np.arange(1, 49) / 48.0) ** 2
    g = slope(taus)
    change = np.flatnonzero(np.sign(g[:-1]) != np.sign(g[1:]))
    if len(change) == 0:
        return None
    i = change[:1]
    (lo,), (hi,) = refine_brackets(slope, taus[i], taus[i + 1], g[i], g[i + 1], 1e-11)
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


def ray_crossing_report(psi: float, gamma: float) -> RayCrossingReport:
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
    graph = build_stokes_graph(PotentialQuadratic.z_form(psi))
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
