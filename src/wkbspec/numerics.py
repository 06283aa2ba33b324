"""Self-contained numerical kernels: Gamma, cached Gauss-Legendre nodes,
contour and bracket types, and root finding (one bracketed refiner for real
roots, one batched Muller for complex ones).  The ODE solves live with
their only user, the Magnus transfer kernel in wkbspec.spectrum.

All functions are pure; nothing here keeps module-level mutable state, so
everything is safe to call concurrently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import BracketError, ConvergenceError

__all__ = [
    "Bracket",
    "Contour",
    "gamma_fn",
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
# Gauss-Legendre nodes and weights
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _leggauss(n: int):
    nodes, weights = leggauss(n)
    return nodes, weights


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

_REFINE_ROUNDS = 90


def refine_brackets(
    f_many: Callable,
    lo: np.ndarray,
    hi: np.ndarray,
    flo: np.ndarray,
    fhi: np.ndarray,
    tol: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized bracketed root refinement of a real function.

    f_many maps an array of abscissae to an array of values, one call per
    round with only the lanes whose bracket is still wider than tol, so a
    batch of roots converges in lockstep; k = 1 is the scalar case.  Secant
    steps clipped into the bracket, with a bisection wherever the secant
    stopped shrinking the bracket for two rounds.  Sides are
    chosen by the signs of the values, so values of any magnitude work.
    Returns the final (lo, hi) arrays: every bracket still holds a sign
    change, lies inside its initial one and is at most tol wide, or
    ConvergenceError is raised after _REFINE_ROUNDS rounds.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    flo = np.array(flo, dtype=float)
    fhi = np.array(fhi, dtype=float)
    # signs, not products: a product of two values below ~1e-162 underflows to 0
    if np.any(np.sign(flo) * np.sign(fhi) > 0.0):
        raise BracketError("refine_brackets requires sign changes in every bracket")
    stall = np.zeros(len(lo), dtype=int)
    for _ in range(_REFINE_ROUNDS):
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
        bisect = stall >= 2
        x = np.where(bisect, mid, sec)
        fx = np.zeros_like(x)  # closed lanes are not evaluated and do not move
        fx[active] = np.asarray(f_many(x[active]), dtype=float)
        left = np.sign(flo) * np.sign(fx) <= 0.0
        new_hi = np.where(active & left, x, hi)
        new_fhi = np.where(active & left, fx, fhi)
        new_lo = np.where(active & ~left, x, lo)
        new_flo = np.where(active & ~left, fx, flo)
        shrunk = (new_hi - new_lo) < 0.4 * width
        # a bisection halves the bracket, which the 0.4 test never counts as
        # shrinking, so the secant gets its next two tries after each one
        stall = np.where(shrunk | bisect | ~active, 0, stall + 1)
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
    if not tol > 0.0:
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


