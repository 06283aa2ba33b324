"""Branch-tracked action integrals S(z) = int sqrt(P) dz for the quadratic
potentials P(z) = e^{4 i psi} z (z - 1) and p(t) = t^2 - mu t, plus the
closed forms used to cross-check them.

The square root of P is multivalued; every routine here carries an explicit
continuous argument of P along the contour ("sheet phase") instead of
trusting any principal branch.  Along each straight chord the phase follows
one exact rule (_chord_arg, also used by wkbspec.stokes): for P = k (z - t1)
(z - t2), arg P changes by the sum of the principal arguments of
(z - t_j)/(a - t_j), with no subdivision.  Turning points (the zeros of P)
are the branch points: interior path points must keep a distance of at
least TURNING_POINT_CLEARANCE from them, while contour endpoints may sit
exactly on a turning point, in which case graded quadrature panels absorb
the integrable sqrt singularity.  The panels of a segment are evaluated as
one array.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import PhaseTrackingError, TurningPointError
from .numerics import Contour, _leggauss

__all__ = [
    "PotentialQuadratic",
    "action_with_phase",
    "half_line_integral_split",
    "segment_integral_closed",
]

TURNING_POINT_CLEARANCE = 1e-8
_ON_TP = 1e-12  # an endpoint this close to a turning point sits on it
_GRADING_FACTOR = 4.0
_GRADING_DEPTH = 20
_PANEL_NODES = 32


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

Z_FORM = "z"
T_FORM = "t"


@dataclass(frozen=True)
class PotentialQuadratic:
    """P(z) = leading (z - t1)(z - t2), with leading and _zeros = (t1, t2) set
    once from e^{4 i psi} z (z - 1) (kind "z") or t^2 - mu t (kind "t")."""

    kind: str
    psi: float = 0.0
    mu: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.kind == Z_FORM:
            if not 0.0 <= self.psi < 2.0 * math.pi:
                raise ValueError("psi must lie in [0, 2*pi)")
            k, t2 = cmath.exp(4j * self.psi), 1.0 + 0.0j
        elif self.kind == T_FORM:
            if not cmath.isfinite(self.mu) or self.mu == 0:
                raise ValueError(f"t-form potential needs a finite mu != 0, got {self.mu}")
            k, t2 = 1.0 + 0.0j, complex(self.mu)
        else:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        object.__setattr__(self, "leading", k)
        object.__setattr__(self, "_zeros", (0.0 + 0.0j, t2))

    @classmethod
    def z_form(cls, psi: float) -> "PotentialQuadratic":
        return cls(Z_FORM, psi=float(psi))

    @classmethod
    def t_form(cls, mu: complex) -> "PotentialQuadratic":
        return cls(T_FORM, mu=complex(mu))

    def __call__(self, z):
        return self.leading * (z - self._zeros[0]) * (z - self._zeros[1])

    def turning_points(self) -> List[complex]:
        return list(self._zeros)

    def slope_at(self, z: complex) -> complex:
        """dP/dz at z (both zeros are simple)."""
        return self.leading * (2.0 * z - self._zeros[0] - self._zeros[1])


# ---------------------------------------------------------------------------
# the sheet of sqrt(P) along a chord
# ---------------------------------------------------------------------------

def _unwrap(raw: float, ref: float) -> float:
    return raw + 2.0 * math.pi * round((ref - raw) / (2.0 * math.pi))


def _on_turning_point(pot: PotentialQuadratic, z: complex):
    """The turning point that z sits on, or None."""
    return next((tp for tp in pot._zeros if abs(z - tp) < _ON_TP), None)


def _chord_arg(pot: PotentialQuadratic, a: complex, b: complex, z):
    """Continuous change of arg P from a to the points z of the chord [a, b].

    With P = k (z - t1)(z - t2), each ratio r_j = (z - t_j)/(a - t_j) runs
    along a line that starts at 1 and meets the negative real axis only if
    the chord passes through t_j.  So the change is exactly sum_j Arg r_j,
    with principal arguments and no subdivision.  A turning point at a is
    measured against the chord direction b - a, which fixes the argument of
    its factor along the whole chord; at z = b on a turning point the factor
    takes its chord limit 0 (the argument of a computed zero is arbitrary).
    """
    atan2 = np.arctan2 if isinstance(z, np.ndarray) else math.atan2  # numpy is slow on scalars
    total = 0.0
    for tp in pot._zeros:
        r = (z - tp) / (b - a if abs(a - tp) < _ON_TP else a - tp)
        arg = atan2(r.imag, r.real)
        if abs(b - tp) < _ON_TP:
            arg = np.where(z == b, 0.0, arg)
        total = total + arg
    return total


# Near t1, S = q (z - t1) (2/3) 2F1(1, -1/2; 5/2; y) with y = (z - t1)/(z - t2):
# coefficients d_n = d_{n-1} (n - 3/2)/(n + 3/2) from d_0 = 2/3, highest first;
# 8 terms leave less than 1e-19 of the sum at |z - t1| < _SERIES_RADIUS |t2 - t1|
_SERIES_RADIUS = 0.01
_SERIES = tuple(2.0 / 3.0 * math.prod((j - 1.5) / (j + 1.5) for j in range(1, n + 1)) for n in reversed(range(8)))


def _closed_action(pot: PotentialQuadratic, tp: complex):
    """S(z) = int_tp^z sqrt(P) dz in closed form, continued chord by chord.

    With P = k (z - t1)(z - t2), t1 = tp, m = (t1 + t2)/2, a = (t2 - t1)/2
    and u = z - m, S = u q / 2 - (sqrt(k) a^2 / 2) L, where q = sqrt(P) and
    L = log((u + q / sqrt(k)) / (t1 - m)); so S(t1) = 0.  Returns
    at(z0, phase0, log0, z) -> (S, q, arg P, L) at z, with arg P continued
    along the chord from arg P = phase0 at z0 and L from log0 by whole
    multiples of 2 pi i (u + q / sqrt(k) never vanishes: its product with
    u - q / sqrt(k) is a^2, and the smaller of the two is taken as a^2 over
    the larger).  From z0 = tp, phase0 is the one-sided limit
    arg P'(tp) + arg(z - tp) and log0 = 0.

    Within |z - t1| < 0.01 |t2 - t1| the two terms of S cancel to about
    |z - t1| / |t2 - t1| of their size, so S is summed there from its
    series about t1 instead, plus c times the whole turns L has made.
    """
    t1, t2 = sorted(pot.turning_points(), key=lambda t: abs(t - tp))
    k = pot.leading
    root_k = cmath.sqrt(k)
    m = 0.5 * (t1 + t2)
    a2 = (0.5 * (t2 - t1)) ** 2
    c = -0.5 * root_k * a2
    base = t1 - m
    near = _SERIES_RADIUS * abs(t2 - t1)

    def at(z0, phase0, log0, z):
        phase = phase0 + _chord_arg(pot, z0, z, z)
        dz1, dz2 = z - t1, z - t2
        q = cmath.rect(math.sqrt(abs(k * dz1 * dz2)), 0.5 * phase)
        u, v = z - m, q / root_k
        w = u + v if (u * v.conjugate()).real >= 0.0 else a2 / (u - v)
        lg0 = cmath.log(w / base)
        lg = complex(lg0.real, _unwrap(lg0.imag, log0.imag))
        if abs(dz1) < near:
            y, f = dz1 / dz2, 0.0
            for coeff in _SERIES:
                f = f * y + coeff
            return q * dz1 * f + c * (lg - lg0), q, phase, lg
        return 0.5 * u * q + c * lg, q, phase, lg

    return at


def _start_arg(pot: PotentialQuadratic, a: complex, b: complex, initial_arg: float) -> float:
    """arg P at the start of the chord [a, b] on the sheet initial_arg picks.

    An ordinary start snaps arg P(a) to initial_arg by whole turns and rejects
    an anchor pi/2 or more off, which picks neither sheet.  A turning-point
    start takes the one-sided limit arg P'(t) + arg(b - a) at the nearest
    turn; only a path that reverses through the turning point is ambiguous.
    """
    tp = _on_turning_point(pot, a)
    if tp is None:
        raw, limit = cmath.phase(pot(a)), 0.5 * math.pi
    else:
        raw, limit = cmath.phase(pot.slope_at(tp)) + cmath.phase(b - a), math.pi - 1e-9
    phase = _unwrap(raw, initial_arg)
    if abs(phase - initial_arg) >= limit:
        raise PhaseTrackingError(
            f"initial arg P {initial_arg:.6g} picks no sheet of sqrt(P) at {a}:"
            f" the nearest arg P there is {phase:.6g}"
        )
    return phase


# ---------------------------------------------------------------------------
# action integral
# ---------------------------------------------------------------------------

def _graded_breakpoints(a: complex, b: complex, grade_a: bool, grade_b: bool):
    """Panel breakpoints on [a, b], geometrically refined toward graded ends.

    The depth is capped so the innermost panel (and its interior quadrature
    nodes) stays representably far from the graded endpoint; a sliver of
    relative size 4^-d contributes O((4^-d)^{3/2}) of the sqrt integral, so
    even the capped depth is far below the 1e-11 accuracy target.
    """
    if grade_a and grade_b:
        mid = 0.5 * (a + b)
        return _graded_breakpoints(a, mid, True, False)[:-1] + _graded_breakpoints(mid, b, False, True)
    if grade_b:
        rev = _graded_breakpoints(b, a, True, False)
        return rev[::-1]
    if grade_a:
        seg_len = abs(b - a)
        floor = 1e5 * 2.3e-16 * max(1.0, abs(a))
        depth = int(math.log(max(seg_len / floor, 16.0)) / math.log(_GRADING_FACTOR))
        depth = max(4, min(_GRADING_DEPTH, depth))
        pts = [a + (b - a) * _GRADING_FACTOR ** float(-k) for k in range(depth, 0, -1)]
        return [a] + pts + [b]
    return [a, b]


def _graded_quad(f, a, b, grade_a: bool, grade_b: bool):
    """Integral of f over [a, b] on the graded panels, all nodes in one array.

    f maps a (panels, _PANEL_NODES) array of nodes to values.
    """
    p = np.array(_graded_breakpoints(a, b, grade_a, grade_b))
    x, w = _leggauss(_PANEL_NODES)
    mid, half = 0.5 * (p[1:] + p[:-1]), 0.5 * (p[1:] - p[:-1])
    return np.sum(half * (f(mid[:, None] + half[:, None] * x) @ w))


def _chord_splits(pot: PotentialQuadratic, a: complex, b: complex) -> List[complex]:
    """The quadrature splits of the chord [a, b], ordered from a.

    Each turning point is projected once.  A chord passing within
    TURNING_POINT_CLEARANCE of one raises TurningPointError, unless it sits
    on an end and the chord leaves it forward.  One projecting into the
    interior, within |b - a|/4, and off both ends splits the chord there.
    """
    d = b - a
    splits = []
    for tp in pot._zeros:
        t = ((tp - a) * d.conjugate()).real / abs(d) ** 2
        foot = a + min(1.0, max(0.0, t)) * d
        dist, to_end = abs(tp - foot), min(abs(tp - a), abs(tp - b))
        if dist < TURNING_POINT_CLEARANCE and not (to_end < 1e-15 and -1e-12 <= t <= 1.0 + 1e-12):
            raise TurningPointError(f"path segment [{a}, {b}] passes within {dist:.2e} of turning point {tp}")
        if 0.0 < t < 1.0 and dist < 0.25 * abs(d) and to_end >= _ON_TP:
            splits.append(foot)
    return sorted(splits, key=lambda z: abs(z - a))


def _action_over_segment(pot, a, b, splits, phase_in):
    """(integral of sqrt(P), arg P at b) over one straight segment.

    The pieces between the splits are graded toward each split and each end
    on a turning point; at a turning point b the phase is the one-sided limit.
    """
    phase_a = _start_arg(pot, a, b, phase_in)

    def sqrt_p(z):
        phase = phase_a + _chord_arg(pot, a, b, z)
        return np.sqrt(np.abs(pot(z))) * np.exp(0.5j * phase)

    ends = [a, *splits, b]
    graded = [_on_turning_point(pot, a) is not None, *[True] * len(splits), _on_turning_point(pot, b) is not None]
    total = sum(_graded_quad(sqrt_p, *ends[i : i + 2], *graded[i : i + 2]) for i in range(len(ends) - 1))
    return complex(total), phase_a + float(_chord_arg(pot, a, b, b))


def action_with_phase(
    pot: PotentialQuadratic, path: Contour, initial_arg: float
) -> Tuple[complex, float]:
    """Integral of the branch-tracked sqrt(P) along the path, and the final
    tracked arg P, with which a caller continues the branch on a further leg.

    Composite Gauss panels with geometric grading toward contour endpoints
    that sit on turning points and toward the closest approach of a turning
    point that a segment passes near; accuracy target 1e-11 max(1, |S|).
    Every segment is checked for clearance before any is integrated.
    """
    chords = [(a, b, _chord_splits(pot, a, b)) for a, b in path.segments()]
    total, phase = 0.0 + 0.0j, float(initial_arg)
    for a, b, splits in chords:
        part, phase = _action_over_segment(pot, a, b, splits, phase)
        total += part
    return total, phase


# ---------------------------------------------------------------------------
# closed forms on the vertical segment z = 1 + i t and the split real forms
# ---------------------------------------------------------------------------

def segment_integral_closed(tau: float) -> complex:
    """int_1^{1+i tau} sqrt(z (1 - z)) dz in elementary functions.

    Principal branches of the square root and of
    arcsin w = -i log(i w + sqrt(1 - w^2)) throughout; tau >= 0.
    """
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    if tau == 0.0:
        return 0.0 + 0.0j
    w = 1.0 + 2j * tau
    return (
        0.25 * w * cmath.sqrt(tau * tau - 1j * tau)
        + 0.125 * cmath.asin(w)
        - math.pi / 16.0
    )


def half_line_integral_split(x: float) -> Tuple[float, float]:
    """(Re, Im) of int_0^x sqrt(t^2 - i t) dt via the explicit real split.

    Re = int sqrt((t sqrt(t^2+1) + t^2)/2), Im = -int sqrt((t sqrt(t^2+1) - t^2)/2);
    the principal square root of t^2 - i t has positive real and negative
    imaginary part for t > 0.
    """
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 0.0, 0.0

    def f_re(t):
        return np.sqrt((t * np.sqrt(t * t + 1.0) + t * t) / 2.0)

    def f_im(t):
        return np.sqrt(np.maximum((t * np.sqrt(t * t + 1.0) - t * t) / 2.0, 0.0))

    return float(_graded_quad(f_re, 0.0, x, True, False)), -float(_graded_quad(f_im, 0.0, x, True, False))
