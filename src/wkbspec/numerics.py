"""Self-contained numerical kernels: Gamma, Gauss-Legendre quadrature,
adaptive Runge-Kutta integration along complex contours, and root finding
(one bracketed refiner for real roots, one batched Muller for complex ones).

All functions are pure; nothing here keeps module-level mutable state, so
everything is safe to call concurrently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import BracketError, ConvergenceError, StepUnderflowError

__all__ = [
    "Bracket",
    "Contour",
    "gamma_fn",
    "gauss_legendre",
    "integrate_ode_contour",
    "muller_many",
    "refine_brackets",
]


# ---------------------------------------------------------------------------
# basic value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bracket:
    """Real interval [lo, hi] known to contain a root."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("bracket endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class Contour:
    """Oriented piecewise-linear path in the complex plane.

    Consecutive nodes must be distinct; integration routines treat each
    consecutive pair as a straight segment.
    """

    nodes: tuple

    def __init__(self, nodes: Sequence[complex]):
        pts = tuple(complex(z) for z in nodes)
        if len(pts) < 2:
            raise ValueError("contour needs at least 2 nodes")
        for z in pts:
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError("contour nodes must be finite")
        for a, b in zip(pts[:-1], pts[1:]):
            if a == b:
                raise ValueError("consecutive contour nodes must be distinct")
        object.__setattr__(self, "nodes", pts)

    @property
    def arclength(self) -> float:
        return sum(abs(b - a) for a, b in self.segments())

    def segments(self):
        return list(zip(self.nodes[:-1], self.nodes[1:]))


# ---------------------------------------------------------------------------
# Gamma function (Lanczos, g = 7, 9 terms)
# ---------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-06,
    1.5056327351493116e-07,
)


def gamma_fn(x: float) -> float:
    """Gamma(x) for real x > 0, relative error below 1e-13 on (0, 30]."""
    if not (isinstance(x, (int, float)) and math.isfinite(x)):
        raise ValueError("gamma_fn expects a finite real argument")
    if x <= 0.0:
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    if x < 0.5:
        # recurrence keeps the Lanczos core on its accurate range
        return gamma_fn(x + 1.0) / x
    z = x - 1.0
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc


# ---------------------------------------------------------------------------
# Gauss-Legendre quadrature on a straight segment
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _leggauss(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


def gauss_legendre(f: Callable, seg: Contour, n: int) -> complex:
    """Integrate f over a single straight segment with n-point Gauss-Legendre.

    Exact (to rounding) for polynomials of degree <= 2n - 1.  The integrand
    is called with a numpy array of nodes; a scalar-only integrand is
    evaluated pointwise instead.
    """
    if len(seg.nodes) != 2:
        raise ValueError("gauss_legendre expects a 2-node segment")
    if n < 2:
        raise ValueError("need at least 2 quadrature nodes")
    a, b = seg.nodes
    x, w = _leggauss(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    z = mid + half * x
    try:
        vals = np.asarray(f(z), dtype=complex)
        if vals.shape != z.shape:
            raise TypeError
    except TypeError:
        vals = np.array([f(zk) for zk in z], dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned non-finite values on the segment")
    return complex(half * np.sum(w * vals))


# ---------------------------------------------------------------------------
# adaptive Dormand-Prince 5(4) along a contour
# ---------------------------------------------------------------------------

# Dormand-Prince 5(4) tableau, stages unrolled for speed
_E1 = 35 / 384 - 5179 / 57600
_E3 = 500 / 1113 - 7571 / 16695
_E4 = 125 / 192 - 393 / 640
_E5 = -2187 / 6784 + 92097 / 339200
_E6 = 11 / 84 - 187 / 2100
_E7 = -1 / 40

_MIN_STEP_FRACTION = 1e-14


def _dp_step(rhs, s, y, h, k1):
    """One Dormand-Prince 5(4) step; returns (y5, err_vec, k_last)."""
    k2 = rhs(s + 0.2 * h, y + (0.2 * h) * k1)
    k3 = rhs(s + 0.3 * h, y + h * (0.075 * k1 + 0.225 * k2))
    k4 = rhs(s + 0.8 * h, y + h * ((44 / 45) * k1 + (-56 / 15) * k2 + (32 / 9) * k3))
    k5 = rhs(
        s + (8 / 9) * h,
        y + h * ((19372 / 6561) * k1 + (-25360 / 2187) * k2 + (64448 / 6561) * k3 + (-212 / 729) * k4),
    )
    k6 = rhs(
        s + h,
        y
        + h
        * (
            (9017 / 3168) * k1
            + (-355 / 33) * k2
            + (46732 / 5247) * k3
            + (49 / 176) * k4
            + (-5103 / 18656) * k5
        ),
    )
    y5 = y + h * (
        (35 / 384) * k1 + (500 / 1113) * k3 + (125 / 192) * k4 + (-2187 / 6784) * k5 + (11 / 84) * k6
    )
    k7 = rhs(s + h, y5)
    err = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
    return y5, err, k7


def _default_scale(y):
    return np.maximum(1.0, np.abs(y))


def integrate_ode_contour(
    field: Callable,
    start,
    path: Contour,
    tol: float,
    *,
    scale: Optional[Callable] = None,
    max_steps: int = 500_000,
):
    """Integrate state' = field(z, state) along a polyline contour.

    The path is parameterized by arclength; on each straight segment the
    chain rule supplies the constant direction factor.  Embedded 5(4)
    Dormand-Prince pair with PI step-size control; the local error estimate
    per step is kept below tol componentwise (measured against
    max(1, |state|) by default, or against scale(state) when given).

    Raises StepUnderflowError when the required step drops below 1e-14 of
    the total arclength, which signals stiffness or a singularity on the
    path.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    scalar_input = np.isscalar(start) or isinstance(start, complex)
    y = np.atleast_1d(np.asarray(start, dtype=complex)).copy()
    shape = y.shape
    y = y.reshape(-1)
    sc_fn = scale if scale is not None else _default_scale
    total_len = path.arclength
    hmin = _MIN_STEP_FRACTION * total_len
    nsteps = 0

    for a, b in path.segments():
        seg_len = abs(b - a)
        direction = (b - a) / seg_len

        def rhs(s, v, _a=a, _u=direction):
            out = np.asarray(field(_a + _u * s, v.reshape(shape)), dtype=complex)
            return _u * out.reshape(-1)

        s = 0.0
        h = min(seg_len, max(100.0 * hmin, 0.01 * seg_len))
        k1 = rhs(s, y)
        err_prev = 1.0
        rejected = False
        while s < seg_len:
            h = min(h, seg_len - s)
            y5, err_vec, k_last = _dp_step(rhs, s, y, h, k1)
            sc_raw = np.asarray(sc_fn(y5.reshape(shape)), dtype=float)
            sc = np.broadcast_to(sc_raw, shape).reshape(-1)
            err = float(np.max(np.abs(err_vec) / np.maximum(sc, 1e-300))) / tol
            if not math.isfinite(err):
                err = 10.0
            if err <= 1.0:
                s += h
                y = y5
                k1 = k_last
                if err == 0.0:
                    fac = 5.0
                else:
                    fac = 0.9 * err ** -0.14 * err_prev ** 0.08
                if rejected:
                    fac = min(fac, 1.0)
                h *= min(5.0, max(0.2, fac))
                err_prev = max(err, 1e-4)
                rejected = False
            else:
                h *= max(0.1, 0.9 * err ** -0.2)
                rejected = True
            if h < hmin:
                raise StepUnderflowError(
                    f"step {h:.3e} below resolvable fraction of arclength {total_len:.3e}"
                )
            nsteps += 1
            if nsteps > max_steps:
                raise ConvergenceError("ODE step budget exhausted")

    if not np.all(np.isfinite(y)):
        raise ConvergenceError("non-finite state after contour integration")
    out = y.reshape(shape)
    if scalar_input:
        return complex(out[()] if out.shape == () else out[0])
    return out


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def refine_brackets(
    f_many: Callable,
    lo: np.ndarray,
    hi: np.ndarray,
    flo: np.ndarray,
    fhi: np.ndarray,
    tol: float,
    max_rounds: int = 90,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized bracketed root refinement of a real function.

    f_many maps an array of abscissae to an array of values, one call per
    round, so a batch of roots converges in lockstep; k = 1 is the scalar
    case.  Secant steps clipped into the bracket, with a bisection wherever
    the secant stopped shrinking the bracket for two rounds.  Returns the
    final (lo, hi) arrays: every bracket still holds a sign change, lies
    inside its initial one and is at most tol wide.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    flo = np.array(flo, dtype=float)
    fhi = np.array(fhi, dtype=float)
    if np.any(flo * fhi > 0.0):
        raise BracketError("refine_brackets requires sign changes in every bracket")
    stall = np.zeros(len(lo), dtype=int)
    for _ in range(max_rounds):
        width = hi - lo
        active = width > tol
        if not np.any(active):
            break
        denom = fhi - flo
        safe = np.abs(denom) > 0
        mid = 0.5 * (lo + hi)
        sec = np.where(safe, (lo * fhi - hi * flo) / np.where(safe, denom, 1.0), mid)
        sec = np.clip(sec, lo + 0.02 * width, hi - 0.02 * width)
        # fall back to bisection only where the secant stopped shrinking
        x = np.where(stall >= 2, mid, sec)
        fx = np.asarray(f_many(x), dtype=float)
        left = flo * fx <= 0.0
        new_hi = np.where(active & left, x, hi)
        new_fhi = np.where(active & left, fx, fhi)
        new_lo = np.where(active & ~left, x, lo)
        new_flo = np.where(active & ~left, fx, flo)
        shrunk = (new_hi - new_lo) < 0.4 * width
        stall = np.where(shrunk | ~active, 0, stall + 1)
        lo, hi, flo, fhi = new_lo, new_hi, new_flo, new_fhi
    if np.any((hi - lo) > tol):
        raise ConvergenceError("bracket refinement did not reach tolerance")
    return lo, hi


def _muller_step(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Next Muller iterate per column of the (3, k) point and value arrays.

    Falls back to a secant step where the parabola degenerates, and to a
    small relative nudge of the newest point where that is undefined too.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        h1 = x[1] - x[0]
        h2 = x[2] - x[1]
        d1 = (f[1] - f[0]) / h1
        d2 = (f[2] - f[1]) / h2
        dd = (d2 - d1) / (h2 + h1)
        b = d2 + h2 * dd
        disc = np.sqrt(b * b - 4.0 * f[2] * dd)
        den = np.where(np.abs(b + disc) >= np.abs(b - disc), b + disc, b - disc)
        secant = x[2] - f[2] * (x[2] - x[1]) / (f[2] - f[1])
        nxt = np.where(den == 0, secant, x[2] - 2.0 * f[2] / den)
    return np.where(np.isfinite(nxt), nxt, x[2] * (1.0 + 1e-6))


def muller_many(
    f_many: Callable, seeds, tol: float, max_iter: int = 60
) -> Tuple[np.ndarray, np.ndarray]:
    """Muller's method for a batch of complex roots, one per seed.

    f_many maps an array of points to an array of values; each round makes
    one call with the unconverged lanes only, and the probe triangle around
    every seed is evaluated in a single call.  k = 1 is the scalar case.
    A lane converges when |f| < tol * median |f| over its probe triangle,
    or when its step falls below 1e-12 |x| while that scaled residual is
    below sqrt(tol): a function evaluated with relative noise can floor out
    above tol * median while the iterate is resolved to machine precision.

    Returns (roots, scaled_residuals); raises ConvergenceError when a lane
    has not converged after max_iter rounds.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    seeds = np.atleast_1d(np.asarray(seeds, dtype=complex))
    k = len(seeds)
    h = 1e-3 * np.maximum(1.0, np.abs(seeds))
    turn = cmath.exp(2j * math.pi / 3)
    pts = np.stack([seeds + h, seeds + h * turn, seeds + h * turn.conjugate()])
    vals = np.asarray(f_many(pts.reshape(-1)), dtype=complex).reshape(3, k)
    f_scale = np.median(np.abs(vals), axis=0)
    f_scale = np.where(f_scale > 0, f_scale, 1.0)

    roots = seeds.copy()
    resid = np.full(k, np.inf)
    active = np.arange(k)
    for _ in range(max_iter):
        if active.size == 0:
            break
        cand = _muller_step(pts[:, active], vals[:, active])
        fc = np.asarray(f_many(cand), dtype=complex)
        step = np.abs(cand - pts[2, active])
        pts[:, active] = np.stack([pts[1, active], pts[2, active], cand])
        vals[:, active] = np.stack([vals[1, active], vals[2, active], fc])
        r = np.abs(fc) / f_scale[active]
        stalled = (step < 1e-12 * np.maximum(1.0, np.abs(cand))) & (r < math.sqrt(tol))
        done = (r < tol) | stalled
        roots[active[done]] = cand[done]
        resid[active[done]] = r[done]
        active = active[~done]
    if active.size:
        raise ConvergenceError(
            f"{active.size} of {k} Muller lane(s) did not converge after {max_iter} rounds"
        )
    return roots, resid


