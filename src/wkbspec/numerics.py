"""Self-contained numerical kernels: Gamma, cached Gauss-Legendre nodes,
contour and bracket types, and one bracketed root refiner for real roots
(complex eigenvalues need none: they are scaled real ones).  The ODE
solves live with their only user, the Magnus transfer kernel in
wkbspec.spectrum.

All functions are pure; nothing here keeps module-level mutable state, so
everything is safe to call concurrently.
"""

from __future__ import annotations

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
    batch of roots converges in lockstep; k = 1 is the scalar case.  Each
    lane takes Chandrupatla's step (Adv. Eng. Softw. 28, 1997): inverse
    quadratic interpolation through the bracket ends and the point dropped
    last, where its acceptance test says the three values are monotone
    enough, and bisection otherwise; the first step is the secant.  A new
    point keeps tol/64, and at least one ulp, from both ends: once the
    interpolation has found a root to within that of an end, the next
    point lands just past it and closes a bracket about tol/64 wide, so
    its midpoint is good to far better than tol; an exact zero leaves
    lo < hi the same way.  Sides are chosen by the signs of the values,
    so values of any magnitude work.  Returns the final (lo, hi) arrays: every bracket still holds a
    sign change, lies inside its initial one and is at most tol wide, or
    ConvergenceError is raised after _REFINE_ROUNDS rounds.  A tol below
    the float spacing (one ulp) at the larger bracket end, which no
    bracket of floats need reach, raises ValueError before the first
    round.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    a = np.array(lo, dtype=float)  # the newest point of each lane
    b = np.array(hi, dtype=float)  # the other end of its bracket
    fa = np.array(flo, dtype=float)
    fb = np.array(fhi, dtype=float)
    # signs, not products: a product of two values below ~1e-162 underflows to 0
    if np.any(np.sign(fa) * np.sign(fb) > 0.0):
        raise BracketError("refine_brackets requires sign changes in every bracket")
    ulp = float(np.max(np.spacing(np.maximum(np.abs(a), np.abs(b))), initial=0.0))
    if tol < ulp:
        raise ValueError(f"tol {tol!r} is below the float spacing (ulp {ulp:.3g}) at the bracket ends")
    with np.errstate(divide="ignore", invalid="ignore"):
        t = fa / (fa - fb)  # secant: the fraction of the way from a to b
    for _ in range(_REFINE_ROUNDS):
        open_ = np.flatnonzero(np.abs(b - a) > tol)
        if not open_.size:
            break
        ao, bo, fao, fbo = a[open_], b[open_], fa[open_], fb[open_]
        hop = np.maximum(tol / 64.0, np.spacing(np.maximum(np.abs(ao), np.abs(bo))))
        tl = hop / np.abs(bo - ao)
        to = np.where(np.isfinite(t[open_]), t[open_], 0.5)
        x = ao + np.clip(to, tl, 1.0 - tl) * (bo - ao)
        fx = np.asarray(f_many(x), dtype=float)
        # the new point replaces the end of its own sign, which becomes c,
        # the point dropped last; the other end stays
        same = np.sign(fx) == np.sign(fao)
        co, fco = np.where(same, ao, bo), np.where(same, fao, fbo)
        bo, fbo = np.where(same, bo, ao), np.where(same, fbo, fao)
        ao, fao = x, fx
        a[open_], fa[open_], b[open_], fb[open_] = ao, fao, bo, fbo
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (ao - bo) / (co - bo)
            phi = (fao - fbo) / (fco - fbo)
            iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
            # inverse quadratic interpolation through a, b and c, as a fraction of b - a
            t_iqi = fao / (fbo - fao) * fco / (fbo - fco)
            t_iqi += (co - ao) / (bo - ao) * fao / (fco - fao) * fbo / (fco - fbo)
        t[open_] = np.where(iqi, t_iqi, 0.5)
    if np.any(np.abs(b - a) > tol):
        raise ConvergenceError("bracket refinement did not reach tolerance")
    return np.minimum(a, b), np.maximum(a, b)
