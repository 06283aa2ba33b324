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
curves are reported with their exact asymptotic direction.  Only the first
turning point's three curves are traced: P(t1 + t2 - z) = P(z), so the
second complex is their point reflection through (t1 + t2)/2.  Whether a
finite curve joins the turning points (the compound flag) is decided in
closed form, from Re S at the other turning point.

The ray crossings trace nothing: they follow the same closed form along
the ray through the strip and half-plane domains that the Stokes curves
cut the plane into (see ray_crossing_report).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .actions import PotentialQuadratic, _closed_action
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
_CAPTURE_RADIUS = 1e-2  # on a compound potential, a curve this close to the other turning point ends there
_DEFAULT_MAX_ARCLEN = 12.0
_NEWTON_TOL = 1e-13
_NEWTON_MAX = 8
_ROUNDING = 4.0 * np.finfo(float).eps  # Newton's floor on |S - target| per |z| |sqrt(P)| (_solve)


@dataclass(frozen=True)
class StokesCurve:
    """One Stokes curve: traced, or the point reflection of a traced one."""

    origin: complex
    direction_index: int
    initial_angle: float
    points: tuple
    terminal: str
    asymptotic_angle: Optional[float] = None
    reaches: Optional[complex] = None


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
    extremum_error: Optional[float]  # |tau0 - numerical tau0| in regimes 1 and 3 (inf if not found), else None


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


def _compound(pot: PotentialQuadratic) -> bool:
    """Whether a finite Stokes curve joins the turning points: Re S(t2) = 0.

    The action from t1 at t2 is S = +-i pi sqrt(k) a^2 / 2, a = (t2 - t1)/2,
    and |Re S| / |S| = |sin(arg k / 2 + 2 arg a)|; the 2e-9 bound is the
    same as arg mu = 0 mod pi/2 to 1e-9 rad in the t-form.
    """
    t1, t2 = pot.turning_points()
    s_other = 1j * math.pi * cmath.sqrt(pot.leading) * (0.5 * (t2 - t1)) ** 2 / 2.0
    return abs(s_other.real) <= 2e-9 * abs(s_other)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _solve(at, z0, phase0, log0, z, target):
    """Newton on S(z) = target from the guess z; S is continued from the point z0.

    Accepts |S - target| <= max(1e-13 max(1, |target|), 4 eps |z| |sqrt(P)|),
    the second bound taken at the guess: z itself is rounded to eps |z|,
    which moves S by |sqrt(P)| times that, so next to a turning point far
    from 0, where |target| is small, the first bound is out of reach.
    """
    tol = _NEWTON_TOL * max(1.0, abs(target))
    for i in range(_NEWTON_MAX):
        s_val, q, phase, lg = at(z0, phase0, log0, z)
        if not i:
            tol = max(tol, _ROUNDING * abs(z) * abs(q))
        res = s_val - target
        if abs(res) <= tol:
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
    |S - i s| <= 1e-13 max(1, |s|), or the rounding 4 eps |z| |sqrt(P)|
    of S where that is larger (_solve).  The step h is capped by the distance
    to tp, by half the distance to the other turning point (so no chord
    passes near either), by the chord sagitta sag_tol at the exact
    curvature of the level line, and by an arclength cap that grows with
    the distance from tp.

    Terminates past an arclength of max_arclen times the scale
    max(1, |t2 - t1|) of the step caps (TO_INFINITY, with the exact
    asymptotic direction pi/4 - arg(k)/4 + j pi/2 nearest the last chord),
    or, on a compound potential (see _compound), within 1e-2 |t2 - t1| of
    the other turning point (TO_TURNING_POINT); the launch is 1e-4 |t2 - t1|
    from tp.  So no finite curve is cut short, and no curve is taken for
    one, however far apart or close the turning points are.
    """
    if not (math.isfinite(max_arclen) and max_arclen > 0.0):
        raise ValueError("max_arclen must be finite and positive")
    if not (math.isfinite(sag_tol) and sag_tol > 0.0):
        raise ValueError("sag_tol must be finite and positive")
    tp = complex(tp)
    other = max(pot.turning_points(), key=lambda t: abs(t - tp))
    dist = abs(other - tp)  # sizes the launch and the capture radius
    if dist < 1e-100:  # sqrt(P)^3, about (1e-2 dist)^3 at the launch, would underflow
        raise ValueError(f"turning points {dist:.3g} apart are too close to trace")
    phi = launch_angles(pot, tp)[k % 3]
    scale = max(1.0, dist)  # sizes the step and arclength caps
    compound = _compound(pot)
    at = _closed_action(pot, tp)

    # launch on the chord from tp, where arg P -> arg P'(tp) + phi, and
    # clean up onto S = i Im S
    z = tp + _LAUNCH_DISTANCE * dist * cmath.exp(1j * phi)
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
        if compound and abs(z - other) < _CAPTURE_RADIUS * dist:
            terminal = TO_TURNING_POINT
            reaches = other
            points.append(other)
            break

    return StokesCurve(
        origin=tp,
        direction_index=k % 3,
        initial_angle=phi,
        points=tuple(points),
        terminal=terminal,
        asymptotic_angle=_asymptotic_angle(pot, points) if terminal == TO_INFINITY else None,
        reaches=reaches,
    )


def _asymptotic_angle(pot: PotentialQuadratic, points) -> float:
    """The exact direction pi/4 - arg(k)/4 + j pi/2 nearest the last chord,
    in (-pi, pi]: a curve along the negative real axis gets pi whichever
    sign the rounding gives the imaginary part of its last chord."""
    base = math.pi / 4.0 - cmath.phase(pot.leading) / 4.0
    j = round((cmath.phase(points[-1] - points[-2]) - base) / (0.5 * math.pi))
    angle = math.remainder(base + 0.5 * math.pi * j, 2.0 * math.pi)
    return math.pi if angle == -math.pi else angle


# ---------------------------------------------------------------------------
# graph assembly
# ---------------------------------------------------------------------------

def build_stokes_graph(
    pot: PotentialQuadratic,
    max_arclen: float = _DEFAULT_MAX_ARCLEN,
    sag_tol: float = 1e-4,
) -> StokesGraph:
    """Trace the first turning point's three Stokes curves, reflect them
    into the second complex, and group the six into the two complexes.

    P(t1 + t2 - z) = P(z) for P = k (z - t1)(z - t2), so z -> t1 + t2 - z
    maps the Stokes curves from t1 onto those from t2 (Strebel, Quadratic
    Differentials, 1984), and the tracer's step caps are invariant under it.
    The k-th curve from t2 is the image of the t1 curve whose launch angle
    plus pi is launch_angles(pot, t2)[k]: it keeps that curve's terminal,
    reaches t1 where it reaches t2, and its end points are the turning
    points exactly (t1 = 0 in both forms).  The compound flag is set when
    a finite Stokes curve joins the turning points, decided in closed form
    by Re S(t2) = 0 (for the t-form, arg mu = 0 mod pi/2); only then does
    a curve end at the other turning point.
    """
    t1, t2 = pot.turning_points()
    # trace order is the graph order: the first turning point's curves by
    # increasing launch angle (launch_angles grows with k), then the second's
    first = [trace_stokes_curve(pot, t1, k, max_arclen, sag_tol=sag_tol) for k in range(3)]
    second = []
    for k, phi in enumerate(launch_angles(pot, t2)):
        partner = first[round((phi - math.pi - first[0].initial_angle) / (2.0 * math.pi / 3.0)) % 3]
        points = tuple(t1 + t2 - z for z in partner.points)  # t1 = 0: exact at the turning points
        finite = partner.terminal == TO_TURNING_POINT
        second.append(StokesCurve(
            origin=t2,
            direction_index=k,
            initial_angle=phi,
            points=points,
            terminal=partner.terminal,
            asymptotic_angle=None if finite else _asymptotic_angle(pot, points),
            reaches=t1 if finite else None,
        ))
    return StokesGraph(pot, tuple(first + second), (0, 1, 2), (3, 4, 5), _compound(pot))


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


_R_MIN = 1e-6  # crossings this close to z = 0 do not count ("outside z = 0"); the extremum scan starts here


def _refine_lanes(f, lo, hi, f_lo, f_hi) -> np.ndarray:
    """The zero of f(j, tau) in (lo[j], hi[j]) for every lane j, with one
    refine_brackets call.

    refine_brackets hands f_many the abscissae of the open lanes only, and
    every lane has its own function.  So lane j is refined on [2 j, 2 j + 1],
    the affine image of its bracket, and x // 2 names the lane of x.  The
    tolerance is 1e-12 of a bracket, or 4 ulp of the largest abscissa on
    sweeps of 2^10 lanes or more.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    x_lo = 2.0 * np.arange(len(lo))

    def f_many(x):
        j = (x // 2.0).astype(int)
        return f(j, lo[j] + (x % 2.0) * (hi[j] - lo[j]))

    a, b = refine_brackets(f_many, x_lo, x_lo + 1.0, f_lo, f_hi, max(1e-12, 4.0 * np.spacing(2.0 * len(lo))))
    return lo + (0.5 * (a + b) - x_lo) * (hi - lo)


def _ray_extrema(psis: List[float], gamma: float) -> np.ndarray:
    """The extremum tau0 of Re S along the ray of every psi, by a root of its
    slope, with one refine_brackets call; inf where there is none.

    Independent of the closed-form ray_extremum: d(Re S)/d tau =
    Re(sqrt(P) e^{i(gamma - psi)}), sqrt(P) continued from the origin along
    the ray, is scanned on 48 taus spaced geometrically from 1e-6 (tau0 -> 0
    at psi -> 2 pi - 3 gamma) to max(3, 2/sin(4 gamma)) (tau0 <= 1/sin(4
    gamma)), and its first sign change is refined to 1e-12 of its scan
    interval (a value-based search alone is limited to sqrt(eps/|S''|), and
    the extremum can be nearly flat close to the regime boundaries).  A
    psi whose scan sees no sign change (the monotone case) gets inf.
    """
    if not 0.0 < gamma < math.pi / 4.0:
        raise ValueError("gamma must lie in (0, pi/4)")

    def slope(psi, tau):
        # arg P starts at 3 psi + gamma + pi (P ~ -e^{4 i psi} z near 0), and
        # along the ray only its factor z - 1 turns, by Arg(1 - z)
        d = np.exp(1j * (gamma - psi))
        z = tau * d
        phase = 3.0 * psi + gamma + math.pi + np.angle(1.0 - z)
        return (np.sqrt(tau * np.abs(1.0 - z)) * np.exp(0.5j * phase) * d).real

    psi = np.asarray(psis, dtype=float)
    taus = np.geomspace(_R_MIN, max(3.0, 2.0 / math.sin(4.0 * gamma)), 48)
    g = slope(psi[:, None], taus)
    change = np.sign(g[:, :-1]) != np.sign(g[:, 1:])
    rows = np.flatnonzero(change.any(axis=1))
    i = change[rows].argmax(axis=1)  # the first sign change of each row
    out = np.full(len(psi), math.inf)
    out[rows] = _refine_lanes(
        lambda j, tau: slope(psi[rows[j]], tau), taus[i], taus[i + 1], g[rows, i], g[rows, i + 1]
    )
    return out


@dataclass(frozen=True)
class _Ray:
    """The ray tau e^{i(gamma - psi)} for the crossing walk.

    s_ray(tau) is the action from 0 continued along the ray; levels are S
    at the turning points, 0 at 0 and the two values +-sigma S can take at
    1.  A domain is None for the strip, or (level index of its turning
    point, sign of Im(S - S_tp) on the curve it shares with the strip) for
    a half-plane domain; start holds the first domain and, when the ray
    starts in the strip, the index of the level of its second complex.
    brackets hold (lo, hi, f_lo, f_hi, level index, the way Re S_ray moves)
    for every zero of Re S_ray - Re level on each monotone piece; on a
    compound potential only level 0, which all three levels equal.
    """

    psi: float
    compound: bool
    direction: complex
    s_ray: Callable[[float], complex]
    levels: tuple
    start: tuple
    extremum: Optional[Tuple[float, float]]
    brackets: tuple


def _ray(psi: float, gamma: float) -> _Ray:
    extremum = ray_extremum(gamma, psi)  # validates gamma and psi
    pot = PotentialQuadratic.z_form(psi)
    theta = gamma - psi
    direction = cmath.exp(1j * theta)
    at = _closed_action(pot, 0j)
    phase0 = cmath.phase(pot.slope_at(0j)) + theta  # one chord from 0 holds the whole ray

    def s_ray(tau):
        return at(0j, phase0, 0j, tau * direction)[0]

    sigma = 1j * math.pi * cmath.exp(2j * psi) / 8.0
    levels = (0j, sigma, -sigma)
    side = 1.0 if s_ray(_R_MIN).real > 0.0 else -1.0  # the way Re S_ray moves up to tau0
    # sectors at 0 between launch directions, counter-clockwise from the ray's to the strip's
    phi0 = launch_angles(pot, 0j)[0]
    offset = (math.floor(-phi0 / (2.0 * math.pi / 3.0)) - math.floor((theta - phi0) / (2.0 * math.pi / 3.0))) % 3
    if offset == 0:
        start = (None, 1 if sigma.real * side > 0.0 else 2)
    else:
        start = ((0, side if offset == 1 else -side), None)

    ends = [_R_MIN] + ([extremum[0]] if extremum else [])
    moves = [side, -side][: len(ends)]
    tail = max(2.0 * ends[-1], 1.0)
    while moves[-1] * s_ray(tail).real <= abs(sigma.real):
        tail *= 2.0  # |Re S_ray| grows like cos(2 gamma) tau^2 / 2
    ends.append(tail)
    vals = [s_ray(t).real for t in ends]
    compound = _compound(pot)
    brackets = tuple(
        (ends[i], ends[i + 1], vals[i] - lev.real, vals[i + 1] - lev.real, k, moves[i])
        for i in range(len(moves))
        for k, lev in enumerate(levels[:1] if compound else levels)
        if (vals[i] - lev.real) * (vals[i + 1] - lev.real) < 0.0
    )
    return _Ray(psi, compound, direction, s_ray, levels, start, extremum, brackets)


def _walk(ray: _Ray, radii) -> Tuple[list, list]:
    """Crossing radii with the first and the second complex, from the zeros
    (radii, one per bracket of ray) in the order the ray meets them.

    A zero at a level the current domain does not own is interior.  On a
    compound potential (P = z (z - 1), the strip has zero width) every
    zero is a crossing, and it belongs to the first complex exactly when
    Re z < 1/2: z -> 1 - z maps P to itself and swaps the turning points,
    so no curve to infinity crosses Re z = 1/2.
    """
    hits = ([], [])
    if ray.compound:
        for radius in sorted(radii):
            hits[int((radius * ray.direction).real > 0.5)].append(radius)
        return hits
    half, k_sigma = ray.start
    for radius, (_, _, _, _, k, move) in sorted(zip(radii, ray.brackets)):
        if k not in ((0, k_sigma) if half is None else half[:1]):
            continue
        hits[k != 0].append(radius)
        curve = 1.0 if (ray.s_ray(radius) - ray.levels[k]).imag > 0.0 else -1.0
        if half is None:
            half = (k, curve)  # into the half-plane domain on that curve
        elif curve == half[1]:
            half = None  # back into the strip, which lies the way Re S_ray moves
            if k == 0:
                k_sigma = 1 if ray.levels[1].real * move > 0.0 else 2
        else:
            # into the neighbouring half-plane domain of the same turning
            # point, past tau0 (a half-plane is left only after Re S_ray
            # turns), so Re S_ray moves away from its level for good
            break
    return hits


def _crossing_reports(psis: List[float], gamma: float) -> List[RayCrossingReport]:
    """ray_crossing_report for every psi, with one refine_brackets call."""
    rays = [_ray(psi, gamma) for psi in psis]
    lanes = [(ray, b) for ray in rays for b in ray.brackets]

    def level_gap(js, taus):
        out = np.empty(len(taus))
        for i, (j, tau) in enumerate(zip(js, taus)):
            ray, (_, _, _, _, k, _) = lanes[j]
            out[i] = ray.s_ray(tau).real - ray.levels[k].real
        return out

    ends = np.array([b[:4] for _, b in lanes], dtype=float).reshape(-1, 4)  # lo, hi, f_lo, f_hi
    radii = _refine_lanes(level_gap, *ends.T)
    reports, i = [], 0
    for ray in rays:
        hits = _walk(ray, radii[i : i + len(ray.brackets)])
        i += len(ray.brackets)
        reports.append(RayCrossingReport(
            gamma=gamma,
            psi=ray.psi,
            crossings_complex1=tuple(hits[0]),
            crossings_complex2=tuple(hits[1]),
            extremum=ray.extremum,
        ))
    return reports


def ray_crossing_report(psi: float, gamma: float) -> RayCrossingReport:
    """Count intersections of the ray at angle gamma - psi with both
    Stokes complexes of P(z) = e^{4 i psi} z (z - 1), from the closed-form
    action along the ray; no curve is traced.

    S_ray(tau) is the action from the turning point 0 at tau e^{i(gamma -
    psi)}, continued along the ray.  The Stokes curves cut the plane into
    one strip domain and four half-plane domains, two at each turning point
    (Strebel, Quadratic Differentials, 1984).  S maps the strip onto the
    strip between Re S = 0, where the curves of the first complex lie, and
    Re S = Re sigma, where those of the second lie, with sigma = S(1) =
    +-i pi e^{2 i psi}/8 (the sign whose real part lies the way Re S_ray
    moves as the ray enters the strip); it maps each half-plane domain onto
    one side of its turning point's level.  The segment [0, 1] lies in the
    strip, so the ray starts there exactly when its angle and 0 lie in the
    same sector between the launch directions at 0.  Re S_ray is monotone
    on (0, tau0) and on (tau0, inf), tau0 from ray_extremum, so on each
    piece every level has at most one zero, refined by refine_brackets.  At
    a zero of the current domain's level, the sign of Im(S_ray - S_tp) names
    the curve crossed: from the strip the ray enters the half-plane domain
    on that curve; from a half-plane domain it enters the strip across the
    curve they share, or else the neighbouring half-plane domain of the
    same turning point.  Crossings inside r_min = 1e-6 do not count
    ("outside z = 0").
    """
    return _crossing_reports([psi], gamma)[0]


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
    regime_psis = [
        (regime, start + (i + 0.5) * span / per_regime)
        for regime, start, span in regimes
        for i in range(per_regime)
    ]
    reports = _crossing_reports([psi for _, psi in regime_psis], gamma)
    tnums = iter(_ray_extrema([rep.psi for rep in reports if rep.extremum], gamma))
    return [
        CrossingCheck(psi, regime, rep, _fits_regime(regime, rep),
                      float(abs(rep.extremum[0] - next(tnums))) if rep.extremum else None)
        for (regime, psi), rep in zip(regime_psis, reports)
    ]
