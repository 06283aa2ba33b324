"""Spectra of the half-line Dirichlet operator -y'' + c x^a y.

For |arg c| < pi the complex dilation x -> c^{-1/(a+2)} x maps the operator
onto c^{2/(a+2)} times the c = 1 one, and the family is holomorphic of
type A (Reed & Simon IV, section XIII.10; Davies, Proc. R. Soc. A 455,
1999), so lambda_n = c^{2/(a+2)} t_n exactly, with t_n > 0 the real
reference spectrum (c = 1).  That spectrum anchors everything: the complex
eigenvalues are its scaled values, the inverse operator acts through the
Green kernel built from the two distinguished homogeneous solutions, and
s_numbers reports 1/|lambda_n|, which are the singular values of the
inverse only for c > 0, where the operator is self-adjoint.

Every ODE solve goes through one kernel, the sixth-order three-point Gauss
Magnus transfer matrix of y'' = (c x^a - lambda) y over an interval
(_magnus), on one mesh x = X s^2 whose size follows the problem's spectral
window (_mesh_size), never the batch, and is refused above a fixed budget.
The reference spectrum shoots the solution that decays at infinity inward
from the truncation radius X with a WKB seed, each step damped by its own
WKB growth (scaled shooting; Pryce, Numerical Solution of Sturm-Liouville
Problems, 1993), so (y, y') stays in range at 0 for every t up to a
positive factor common to both.  It is bracketed between asymptotic-law
points, and each bracket is certified by a Sturm oscillation count: the
number of zeros of the decaying solution y(.; t) on (0, X), counted as sign
changes at the mesh nodes, is the number of eigenvalues below t; the roots
are refined on the Prufer sine of (y, y') at 0, which has the sign of
y(0; t) but no spread of magnitudes.  Every chain of matrices comes from
one generator of blocks (_blocks), which slices the lambda-free terms of
the step, built once per path: one shooting mesh per reference solve
(_shooting_mesh), shared by the count and every shoot and dropped with the
solve.  The shoot multiplies each block pairwise, and the count, the
Green-kernel pair and the eigenfunctions take every node value from a
prefix product over the same blocks (_node_values).  The pair and the
eigenfunctions march undamped at the complex c, on the mesh joined with
the caller's grid, after one admission check (_admit) has sized the march
and bounded its amplitude, before any of its arrays exists.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .errors import BracketError, OverflowGuardError, WronskianError
from .numerics import _leggauss, refine_brackets

__all__ = [
    "OperatorSpec",
    "SNumberReport",
    "SampledFunction",
    "SpectrumResult",
    "apply_inverse",
    "bs_constant",
    "complex_spectrum",
    "default_truncation",
    "eigenfunction",
    "homogeneous_pair",
    "real_spectrum",
    "s_numbers",
    "t_asymptotic",
]

_OVERFLOW_BOUND = 1e300
# log of the largest amplitude an undamped march is admitted to reach (_admit)
_LOG_AMPLITUDE_LIMIT = 691.5
# bytes of each matrix-entry array in one block of _blocks: 4096 complex or
# 8192 real (interval, lambda) pairs
_BLOCK_BYTES = 1 << 16
# fewest and most intervals of a mesh (_mesh_size)
_MIN_INTERVALS = 1000
_MAX_INTERVALS = 1 << 21
# e-folds the decaying solution must keep on the other one in eigenfunction
_SUPPRESSION = 16.0


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorSpec:
    """Problem description: coupling c, exponent alpha, truncation X, grid."""

    c: complex
    alpha: float
    X: float
    grid_n: int = 4001

    def __post_init__(self):
        c = complex(self.c)
        object.__setattr__(self, "c", c)
        if not cmath.isfinite(c):
            raise ValueError(f"c must be finite, got {c}")
        if c == 0 or abs(cmath.phase(c)) >= math.pi - 1e-15:
            raise ValueError("need a nonzero c with |arg c| < pi")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be finite and positive")
        if not (math.isfinite(self.X) and self.X > 0):
            raise ValueError("X must be finite and positive")
        if self.grid_n < 16:
            raise ValueError("grid_n too small")

    @classmethod
    def for_modes(cls, c: complex, alpha: float, n_max: int) -> "OperatorSpec":
        """Spec with the truncation radius sized for the first n_max modes.

        The scaling x -> |c|^{-1/(a+2)} x maps the problem to unit
        coupling, so the unit-coupling radius is rescaled the same way.
        """
        x_unit = default_truncation(alpha, _mode_window(alpha, n_max)[0])
        return cls(c=c, alpha=alpha, X=x_unit * abs(complex(c)) ** (-1.0 / (alpha + 2.0)))

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.X, self.grid_n)


@dataclass(frozen=True)
class SampledFunction:
    """Function values on the uniform grid of an OperatorSpec."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if g.shape != v.shape or g.ndim != 1:
            raise ValueError("grid and values must be 1-d arrays of equal length")
        if not np.all(np.isfinite(v)):
            raise ValueError("sampled values must be finite")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: Tuple[complex, ...]
    t_values: Tuple[float, ...]
    asymptotic_deviation: Tuple[float, ...]


@dataclass(frozen=True)
class SNumberReport:
    values: Tuple[float, ...]
    expected_exponent: float


# ---------------------------------------------------------------------------
# Bohr-Sommerfeld constant and eigenvalue asymptotics
# ---------------------------------------------------------------------------

def bs_constant(alpha: float) -> float:
    """int_0^1 sqrt(1 - u^alpha) du via the Gamma identity,
    Gamma(1/alpha) sqrt(pi) / ((alpha + 2) Gamma(1/alpha + 1/2)).
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError("alpha must be finite and positive")
    ratio = math.exp(math.lgamma(1.0 / alpha) - math.lgamma(1.0 / alpha + 0.5))
    return ratio * math.sqrt(math.pi) / (alpha + 2.0)


def t_asymptotic(n: int, alpha: float) -> float:
    """Large-n eigenvalue law for the c = 1 reference problem,
    t_n ~ [(n - 1/4) A]^{2 alpha/(alpha+2)} with A = pi / bs_constant(alpha):
    the Bohr-Sommerfeld rule int_0^{t^{1/a}} sqrt(t - x^a) dx = (n - 1/4) pi.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    return ((n - 0.25) * (math.pi / bs_constant(alpha))) ** (2.0 * alpha / (alpha + 2.0))


def _mode_window(alpha: float, n_max: int) -> Tuple[float, float]:
    """(t_top, radius) for the first n_max modes at unit coupling.

    t_top = 1.3 t_asymptotic(n_max) bounds every eigenvalue searched for,
    and radius = 1.5 t_top^{1/a}, half again the turning point of t_top, is
    the smallest truncation accepted.
    """
    t_top = 1.3 * t_asymptotic(n_max, alpha)
    return t_top, 1.5 * t_top ** (1.0 / alpha)


def default_truncation(alpha: float, t_top: float) -> float:
    """Truncation radius for eigenvalues up to t_top.

    At least 1.5 times the outermost turning point, enlarged until the
    WKB suppression exponent 2 int_{x_t}^{X} sqrt(x^a - t) dx exceeds 40,
    so the lambda-free seed direction error dies out before the turning
    point.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError("alpha must be finite and positive")
    if not (math.isfinite(t_top) and t_top > 0):
        raise ValueError("t_top must be finite and positive")
    x_t = t_top ** (1.0 / alpha)
    xg, wg = _leggauss(24)

    def suppression(s: float) -> float:
        # u = 1 + v^2 removes the sqrt singularity at the turning point
        vmax = math.sqrt(s - 1.0)
        v = 0.5 * vmax * (xg + 1.0)
        u = 1.0 + v * v
        g = float(np.sum(wg * np.sqrt(u**alpha - 1.0) * 2.0 * v) * 0.5 * vmax)
        return 2.0 * t_top ** ((2.0 + alpha) / (2.0 * alpha)) * g

    s = 1.5
    while suppression(s) < 40.0 and s < 40.0:
        s *= 1.2
    return s * x_t


# ---------------------------------------------------------------------------
# Magnus transfer kernel and the spectral-determinant proxy
# ---------------------------------------------------------------------------

# three-point Gauss nodes 1/2 -+ sqrt15/10 and 1/2, as offsets from the midpoint
_GAUSS_OFFSET = math.sqrt(15.0) / 10.0
# Taylor coefficients of (cosh(sqrt z) - 1)/z and sinh(sqrt z)/sqrt z, highest first
_COSHM1_TAYLOR = [1.0 / math.factorial(2 * k + 2) for k in range(6, -1, -1)]
_SINHC_TAYLOR = [1.0 / math.factorial(2 * k + 1) for k in range(6, -1, -1)]


def _cosh_sinhc(z):
    """cosh(sqrt z) and sinh(sqrt z)/sqrt z; both are entire in z.

    Degree-6 Taylor polynomials on |z| <= 1/16 (truncation below 1e-18
    relative), carried to larger |z| by cosh(2m) - 1 = 2 sinh(m)^2 and
    sinh(2m) = 2 sinh(m) cosh(m), which only multiply.  Real z stays in
    real arithmetic.
    """
    # 4^doublings >= 16 max|z|; a non-finite z gives 0 and stays non-finite
    doublings = max(0, (math.frexp(16.0 * float(np.max(np.abs(z), initial=0.0)))[1] + 1) // 2)
    z = z * 0.25**doublings
    coshm1 = np.full_like(z, _COSHM1_TAYLOR[0])
    sinhc = np.full_like(z, _SINHC_TAYLOR[0])
    for a, b in zip(_COSHM1_TAYLOR[1:], _SINHC_TAYLOR[1:]):
        coshm1 *= z
        coshm1 += a
        sinhc *= z
        sinhc += b
    coshm1 *= z
    for _ in range(doublings):
        coshm1, sinhc = 2.0 * z * sinhc * sinhc, sinhc * (1.0 + coshm1)
        z = 4.0 * z
    return 1.0 + coshm1, sinhc


def _magnus_terms(c, alpha: float, x0, x1):
    """The lambda-free terms of the Magnus-6 step of y'' = (c x^a - lam) y
    from x0 to x1 (_magnus): (e, w0, w1, f0, f1, h, c q2), with
    w = w0 + w1 p and f = f0 + f1 p for p = h (c q2 - lam).

    Three-point Gauss Magnus step (Blanes, Casas & Ros, BIT 40, 2000): with
    q1, q2, q3 the potential c x^a - lam at the nodes 1/2 -+ sqrt15/10, 1/2
    of the interval in the direction of travel, h = x1 - x0 (negative
    inward) and the basis E = [[0, 1], [0, 0]], F = [[0, 0], [1, 0]],
    H = diag(1, -1),
    a1 = h (E + q2 F), a2 = (sqrt15 h/3)(q3 - q1) F, a3 = (10h/3)(q3 - 2q2 + q1) F,
    Omega = a1 + a3/12 + [-20 a1 - a3 + [a1, a2], a2 - [a1, 2 a3 + [a1, a2]]/60]/240.
    Omega stays in span{E, F, H}.  Written out with p = h q2, r and s the
    coefficients of F in a2 and a3, u = h r and v = h s (lam cancels from
    r, s, u and v), Omega = [[w, e], [f, -w]] with
    e = h (1 + (u^2 - 20 v)/3600),  w = u (v - 600 + 40 h p)/7200,
    f = p (1 + (u^2 + 20 v)/3600) + s/12 + (s v - 30 u r)/3600.
    x0 and x1 broadcast against each other, and so does every term.
    """
    h = x1 - x0
    mid = 0.5 * (x0 + x1)
    cq1 = c * (mid - _GAUSS_OFFSET * h) ** alpha
    cq2 = c * mid**alpha
    cq3 = c * (mid + _GAUSS_OFFSET * h) ** alpha
    r = (math.sqrt(15.0) / 3.0) * h * (cq3 - cq1)
    s = (10.0 / 3.0) * h * (cq3 - 2.0 * cq2 + cq1)
    u, v = h * r, h * s
    e = h * (1.0 + (u * u - 20.0 * v) / 3600.0)
    w0, w1 = u * (v - 600.0) / 7200.0, h * u / 180.0
    f0 = s / 12.0 + (s * v - 30.0 * u * r) / 3600.0
    f1 = 1.0 + (u * u + 20.0 * v) / 3600.0
    return e, w0, w1, f0, f1, h, cq2


def _magnus(terms, lam, damped=False):
    """Magnus-6 transfer matrices of y'' = (c x^a - lam) y from the
    _magnus_terms of their intervals.

    w and f are affine in p = h (c q2 - lam), the only factor that varies
    with lam, and exp(Omega) = cosh(mu) I + sinh(mu)/mu Omega with
    mu^2 = w^2 + e f.  The terms and lam broadcast against each other.
    Returns the entries (m11, m12, m21, m22) mapping (y, y') at x0 to
    (y, y') at x1; undamped, each has determinant 1.  damped, for real
    terms and lam only, multiplies each matrix by
    exp(-|h| sqrt(max(c q2 - lam, 0))) = exp(-sqrt(max(h p, 0))), the
    inverse of the step's WKB growth at its midpoint, which is 1 where the
    solution oscillates.
    """
    e, w0, w1, f0, f1, h, cq2 = terms
    p = h * (cq2 - lam)
    w = w0 + w1 * p
    f = f0 + f1 * p
    cosh, sinhc = _cosh_sinhc(w * w + e * f)
    if damped:  # real arithmetic, in place: this runs on every (interval, lambda)
        growth = h * p
        np.maximum(growth, 0.0, out=growth)
        np.sqrt(growth, out=growth)
        scale = np.exp(np.negative(growth, out=growth), out=growth)
        cosh *= scale
        sinhc *= scale
    sw = sinhc * w
    return cosh + sw, sinhc * e, sinhc * f, cosh - sw


def _mesh_size(c, alpha: float, X: float, lam_top: float = 0.0) -> int:
    """Number of intervals of the shooting mesh of a problem.

    N = max(1000, ceil(3 X sqrt(L)), ceil(X sqrt|c X^a| / 8)), where L, the
    top of the spectral window, is the larger of lam_top and |c| (X/1.5)^a.
    A spectrum's truncation is at least 1.5 times the turning point of its
    window top |c|^{2/(a+2)} t_top (_mode_window), and exactly that unless
    the WKB suppression asks for more, so L is that top or above it.  The
    longest step of _mesh, 2X/N at X, then turns the phase of the solution
    by at most 2/3 below L, and spans at most 16 e-foldings of the WKB
    growth at X, which the damping of each step (_magnus), taken at its
    midpoint, cancels only in part.  N depends on the problem (c, alpha, X
    and lam_top) only, never on the spectral parameters of one batch.  Every
    shoot, count and march sizes its mesh here, in numpy floats that go to
    inf, not raise, so any N above _MAX_INTERVALS raises ValueError first.
    """
    with np.errstate(over="ignore"):
        x = np.float64(X)
        top = max(np.float64(lam_top), abs(c) * (x / 1.5) ** alpha)
        n = max(3.0 * x * np.sqrt(top), x * np.sqrt(abs(c) * x**alpha) / 8.0)
    if not n <= _MAX_INTERVALS:
        raise ValueError(
            f"the mesh would need {math.ceil(n) if math.isfinite(n) else n} intervals, above the budget "
            f"of {_MAX_INTERVALS}: alpha = {alpha!r}, |c| = {abs(c)!r} and X = {X!r} are too large together"
        )
    return max(_MIN_INTERVALS, math.ceil(n))


def _mesh(X: float, n: int = _MIN_INTERVALS) -> np.ndarray:
    """The shooting mesh x = X s^2, s uniform on n intervals, X down to 0.

    Intervals shrink like x^{1/2} toward the origin, where x^a is only
    Holder for a < 1 and the low modes oscillate.  _mesh_size gives n.
    """
    return X * np.linspace(1.0, 0.0, n + 1) ** 2


def _guard(values: np.ndarray) -> np.ndarray:
    top = np.max(np.abs(values), initial=0.0)
    if not top <= _OVERFLOW_BOUND:
        raise OverflowGuardError("shooting amplitude is non-finite or exceeded 1e300")
    return values


def _wkb_seed(c, alpha: float, X: float):
    """(y, y') at X of the solution that decays at infinity: the WKB pair
    (c x^a)^{-1/4} exp(-sqrt(c) x^{a/2+1}/(a/2+1)) with the common factor
    c^{-1/4} exp(...) dropped."""
    return X ** (-0.25 * alpha), -(c**0.5) * X ** (0.25 * alpha)


def _blocks(terms, lam, damped=False):
    """Magnus matrices of y'' = (c x^a - lam) y on the intervals of a path, by blocks.

    terms holds the _magnus_terms of every interval of the path (a shooting
    mesh's come from _shooting_mesh), and each block takes its slice of
    them.  lam is a scalar or a 1-d array of spectral parameters, the
    trailing axis of every matrix entry; damped is as in _magnus, and each
    factor depends on its own (interval, lambda) only, never on the block.
    A block spans as many intervals as fit _BLOCK_BYTES in each entry
    array, and at least 8; consecutive blocks share their end node.
    """
    lane = (slice(None),) + (None,) * np.ndim(lam)  # intervals down, lambdas across
    cq2 = terms[-1]
    rows = max(8, _BLOCK_BYTES // (np.result_type(cq2, lam).itemsize * max(1, np.size(lam))))
    for i in range(0, len(cq2), rows):
        yield _magnus(tuple(t[i : i + rows][lane] for t in terms), lam, damped)


def _shooting_mesh(alpha: float, X: float):
    """(xs, terms, seed) of the shooting mesh of a reference spectrum at
    c = 1: the nodes _mesh(X, _mesh_size(1, alpha, X)), the real
    _magnus_terms of its intervals and the WKB seed at X (_wkb_seed).

    None of it depends on lambda.  real_spectrum builds one mesh per solve
    and passes it to the count and every shoot; it is dropped with the solve.
    """
    xs = _mesh(X, _mesh_size(1.0, alpha, X))
    return xs, _magnus_terms(1.0, alpha, xs[:-1], xs[1:]), _wkb_seed(1.0, alpha, X)


def _shoot_many(mesh, lams: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Damped real (y(0; t), y'(0; t)) at c = 1 for a batch of real t = lams.

    Chains Magnus transfer matrices from the WKB seed at X down to 0 on a
    _shooting_mesh, which the batch does not change.  Every step is damped
    by its own WKB growth (_magnus), so the pair stays in range, up to a
    positive factor that depends on t and cancels from the signs and the
    Prufer sine.  The matrices of each block of _blocks are multiplied
    pairwise in log depth, one level replacing the last.  Both values pass
    _guard.
    """
    lams = np.asarray(lams, dtype=float).reshape(-1)
    _xs, terms, (y, yp) = mesh
    for m in _blocks(terms, lams, damped=True):
        while len(m[0]) > 1:
            m = _pair_products(m)
        a, b, cc, d = (e[0] for e in m)
        y, yp = a * y + b * yp, cc * y + d * yp
    return _guard(y), _guard(yp)


def _pair_products(m):
    """Products of consecutive matrices (later @ earlier), halving the count."""
    a, b, c, d = m
    n = len(a) // 2 * 2
    a0, b0, c0, d0 = a[0:n:2], b[0:n:2], c[0:n:2], d[0:n:2]
    a1, b1, c1, d1 = a[1:n:2], b[1:n:2], c[1:n:2], d[1:n:2]
    prod = (a1 * a0 + b1 * c0, a1 * b0 + b1 * d0, c1 * a0 + d1 * c0, c1 * b0 + d1 * d0)
    if n == len(a):
        return prod
    return tuple(np.concatenate((p, e[n:])) for p, e in zip(prod, m))


def _node_values(terms, lam, y, yp, damped=False):
    """Values (y, y') of y'' = (c x^a - lam) y at the nodes of a path, by blocks.

    y and yp hold the values at its first node; terms, lam and damped are as
    in _blocks.  Yields (ys, yps) for each block of _blocks: the values
    from its first node to its last, which is the first node of the next
    block.  The up-sweep keeps every level of the pairwise products, and
    the down-sweep applies the level-l products to the values known at
    multiples of 2^(l+1), which fills in the odd multiples of 2^l (the
    prefix product of Blelloch, 1990, in log depth).
    """
    for m in _blocks(terms, lam, damped):
        levels = [m]
        while len(levels[-1][0]) > 1:
            levels.append(_pair_products(levels[-1]))
        ys = np.empty((len(m[0]) + 1,) + m[0].shape[1:], dtype=np.result_type(m[0], y))
        yps = np.empty_like(ys)
        ys[0], yps[0] = y, yp
        a, b, cc, d = (e[0] for e in levels[-1])
        ys[-1], yps[-1] = a * y + b * yp, cc * y + d * yp
        for level in range(len(levels) - 2, -1, -1):
            # an odd leftover at the end only passes through: its end is known
            step, pairs = 2 << level, len(levels[level][0]) // 2
            src = slice(0, pairs * step, step)
            dst = slice(step // 2, step // 2 + pairs * step, step)
            a, b, cc, d = (e[0 : 2 * pairs : 2] for e in levels[level])
            ys[dst], yps[dst] = a * ys[src] + b * yps[src], cc * ys[src] + d * yps[src]
        yield ys, yps
        y, yp = ys[-1], yps[-1]


# ---------------------------------------------------------------------------
# real reference spectrum (c = 1)
# ---------------------------------------------------------------------------

def _prufer_sine(t: np.ndarray, y: np.ndarray, yp: np.ndarray) -> np.ndarray:
    """sin theta = sqrt(t) y / hypot(sqrt(t) y, y'), the modified Prufer sine.

    theta is the Prufer angle of (y, y') with scale sqrt(t), the
    wavenumber where x^a vanishes (Prufer, Math. Ann. 95, 1926; Pryce,
    Numerical Solution of Sturm-Liouville Problems, 1993).  It has the sign
    of y, so its zeros in t are those of y, and a positive factor on
    (y, y') leaves it unchanged.  At x = 0 and c = 1, theta is monotone in
    t and sweeps about pi between consecutive asymptotic-law points, where
    y itself changes size by orders of magnitude.  Raises BracketError when
    the radius hypot(sqrt(t) y, y') is NaN or below the smallest normal
    float: the pair has underflowed and its sign no longer follows t.
    """
    ky = np.sqrt(t) * y
    radius = np.hypot(ky, yp)
    lost = np.flatnonzero(~(radius >= np.finfo(float).tiny))
    if lost.size:
        j = int(lost[0])
        raise BracketError(
            f"(y, y')(0; t) at t = {float(t[j])!r} underflows: its radius "
            f"{float(radius[j]):.3g} is below the smallest normal float, so its sign is undefined"
        )
    return ky / radius


def _oscillation_count(mesh, ts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Zeros of the decaying solution y(.; t) on (0, X) at c = 1, and its
    Prufer sine at 0 (_prufer_sine).

    The Sturm oscillation theorem makes the count the number of eigenvalues
    below t.  y is the shooting solution of _shoot_many (WKB seed at X, the
    same _shooting_mesh and damping), marched to every mesh node for all t
    at once by _node_values; the sign changes between consecutive nodes
    are summed block by block, so only one block of node values is ever
    held.  Zeros of y'' = (x^a - t) y lie at least pi/sqrt(t) apart, so on
    a mesh with max(h) sqrt(t) < pi no interval holds two of them and the
    node count is exact; the count asks for max(h) sqrt(t) < 2, which
    leaves the discrete node values a margin.  _mesh_size keeps that bound
    below 2/3 up to the window top of X, and below 1 at every point of
    real_spectrum.  The damping of each step is positive, so it moves no
    sign.  Raises BracketError when the bound fails, a node value is
    exactly 0 or (y, y') underflows at 0, and OverflowGuardError when a node
    value is not finite.
    """
    ts = np.asarray(ts, dtype=float)
    xs, terms, seed = mesh
    bound = float(np.max(xs[:-1] - xs[1:])) * math.sqrt(float(np.max(ts)))
    if not bound < 2.0:
        raise BracketError(
            f"mesh too coarse to count zeros: max(h) sqrt(t) = {bound:.3g} is not below 2"
        )
    counts = np.zeros(ts.shape, dtype=int)
    for y, yp in _node_values(terms, ts, *seed, damped=True):
        _guard(y)
        zero = np.flatnonzero(np.any(y == 0.0, axis=0))
        if zero.size:
            raise BracketError(
                f"y(.; t) at t = {float(ts[zero[0]])!r} is exactly 0 at a node, so its sign is undefined "
                f"(the damped amplitude underflows on the truncation X = {float(xs[0])!r})"
            )
        counts += np.count_nonzero(np.signbit(y[1:]) != np.signbit(y[:-1]), axis=0)
    return counts, _prufer_sine(ts, y[-1], _guard(yp[-1]))


def real_spectrum(
    alpha: float,
    n_max: int,
    X: Optional[float] = None,
    tol: float = 1e-10,
) -> List[float]:
    """First n_max Dirichlet eigenvalues of -y'' + x^a y on the half line.

    Inward shooting from X with the WKB-decaying seed; eigenvalues are the
    zeros of t -> y(0; t).  The brackets are the asymptotic-law points
    T_k = ((k - 1/4) A)^{2a/(a+2)} at k = 1/2, 3/2, ..., n_max + 1/2, and
    each is certified by an oscillation count: y(.; T_k) must have exactly
    k - 1/2 zeros on (0, X), so [T_{k-1/2}, T_{k+1/2}] holds t_k and no other
    eigenvalue.  A count that disagrees raises BracketError, naming the
    first point.  The brackets are refined by Chandrupatla's interpolation
    with a bisection fallback (refine_brackets) on the Prufer sine of
    (y, y') at 0 (_prufer_sine), which has the zeros of y(0; t) but is
    close to linear across a bracket, so 2-8 rounds suffice where y(0; t)
    itself takes 9-13.  The damping of the shoot leaves the sine unchanged
    and keeps (y, y') in range at 0 up to the top mode.  A tol below the
    float spacing at the top bracket end, or a mesh over the budget, raises
    ValueError before anything of size n_max or of the mesh is built.
    Results are memoized per (alpha, n_max, X, tol); all is deterministic.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    return list(_real_spectrum_cached(float(alpha), int(n_max), X, float(tol)))


@lru_cache(maxsize=32)
def _real_spectrum_cached(alpha: float, n_max: int, X: Optional[float], tol: float) -> Tuple[float, ...]:
    t_hi, x_needed = _mode_window(alpha, n_max)
    if X is None:
        X = default_truncation(alpha, t_hi)
    elif X < x_needed:
        raise ValueError(f"X={X} below the safe truncation {x_needed:.3f}")

    # refine_brackets makes the same check at the top bracket end, but only after the count
    ulp = float(np.spacing(t_asymptotic(n_max + 0.5, alpha)))
    if tol < ulp:
        raise ValueError(f"tol {tol!r} is below the float spacing (ulp {ulp:.3g}) at the bracket ends")
    mesh = _shooting_mesh(alpha, X)  # sized first: over the budget, nothing is built
    # t_asymptotic at the half-integers n - 1/2 = 1/2, ..., n_max + 1/2
    ts = ((np.arange(n_max + 1) + 0.25) * (math.pi / bs_constant(alpha))) ** (2.0 * alpha / (alpha + 2.0))
    counts, sines = _oscillation_count(mesh, ts)
    bad = np.flatnonzero(counts != np.arange(n_max + 1))
    if bad.size:
        j = int(bad[0])
        raise BracketError(
            f"y(.; t) has {counts[j]} zeros at t = {float(ts[j])!r} (k = {j + 0.5}), need {j}: "
            f"the asymptotic law does not separate the eigenvalues there, or X = {X!r} is too short"
        )

    def prufer_sine(t):
        return _prufer_sine(t, *_shoot_many(mesh, t))

    lo, hi = refine_brackets(prufer_sine, ts[:-1], ts[1:], sines[:-1], sines[1:], tol)
    return tuple(float(r) for r in 0.5 * (lo + hi))


# ---------------------------------------------------------------------------
# complex spectrum by the dilation identity
# ---------------------------------------------------------------------------

def complex_spectrum(spec: OperatorSpec, n_max: int) -> SpectrumResult:
    """First n_max eigenvalues of -y'' + c x^a y: lambda_n = c^{2/(a+2)} t_n.

    The identity is exact for |arg c| < pi (module docstring), with the
    principal power and t_n the memoized c = 1 reference spectrum
    (real_spectrum), so the eigenvalues carry its accuracy, scaled by
    |c|^{2/(a+2)}.  Nothing here depends on the truncation spec.X.
    """
    alpha = spec.alpha
    scale_c = cmath.exp((2.0 / (alpha + 2.0)) * cmath.log(spec.c))
    t_ref = np.array(real_spectrum(alpha, n_max))
    t_asym = np.array([t_asymptotic(n, alpha) for n in range(1, n_max + 1)])
    return SpectrumResult(
        eigenvalues=tuple((scale_c * t_ref).tolist()),
        t_values=tuple(t_ref.tolist()),
        asymptotic_deviation=tuple(np.abs(t_ref / t_asym - 1.0).tolist()),
    )


# ---------------------------------------------------------------------------
# inverse operator (Green kernel) and singular values
# ---------------------------------------------------------------------------

def _march_nodes(spec: OperatorSpec, nodes: np.ndarray, inward: bool, lam: complex = 0.0):
    """Values (y, y') of a solution of y'' = (c x^a - lam) y at the grid nodes.

    Outward (u): u(0) = 0, u'(0) = 1.  Inward (v): WKB pair at X with the
    common exponential factor dropped.  nodes is the path, ascending: the
    grid merged with the march mesh of _admit (a node on both is a step of
    length 0, whose matrix is the identity), with one Magnus step per
    interval; every step has determinant 1, so the Wronskian of u and v is
    conserved to rounding.  The terms of the whole path are built at once,
    and the node values come from the blocked prefix product _node_values.
    """
    c, alpha = spec.c, spec.alpha
    path = nodes[::-1] if inward else nodes
    seed = _wkb_seed(c, alpha, spec.X) if inward else (0.0, 1.0)
    terms = _magnus_terms(c, alpha, path[:-1], path[1:])
    blocks = zip(*_node_values(terms, lam, *seed))
    # consecutive blocks share their end node
    ys, yps = (np.concatenate([v[0][:1]] + [b[1:] for b in v]) for v in blocks)
    _guard(ys)
    _guard(yps)
    if inward:
        ys, yps = ys[::-1], yps[::-1]
    pick = np.searchsorted(nodes, spec.grid())
    return ys[pick], yps[pick]


def _admit(c, alpha: float, X: float, lam: complex = 0.0, outward: bool = False):
    """Admission check of an undamped march of y'' = (c x^a - lam) y on [0, X],
    inward from X (and outward from 0 too if outward), before any array of it.

    Returns (mesh, S, drop, amplitude); mesh = _mesh(X, _mesh_size(c, alpha,
    X, |lam|)), whose budget is checked first.  With w = sqrt(c x^a - lam)
    on the branch that decays at infinity, the log-ratio of the other
    solution to the decaying one changes by -2 Re w dx along the march.  For
    g(x) = 2 int_0^x Re w (midpoint rule on the mesh), S = g(X) is the
    suppression at 0 of the error of the WKB seed at X, and drop the largest
    fall of g over any stretch [x, x'], by which a rounding error at x' can
    grow relative to the solution by x.  w = sqrt(c) x^{a/2}
    sqrt(1 - lam/(c x^a)), principal root: lam/(c x^a) runs along one ray
    from 0 as x comes in from infinity, which meets the cut [1, inf) of
    sqrt(1 - z) only if lam/c > 0, at a turning point, where either sign
    continues w.

    amplitude is the log of the largest |y| or |y'| reached.  A WKB solution
    grows by exp(top/2), top = max g, times K^{-+1/4} for the squared
    wavenumber K where it ends: |c| X^a at X, and K0 = max(|lam|,
    |c|^{2/(a+2)}) at 0, held at the natural length |c|^{-1/(a+2)} of c x^a.
    The decaying solution goes from |c|^{1/4} (K^{-1/4}, K^{1/4}) at X
    (_wkb_seed) to about |c|^{1/4} (K0^{-1/4}, K0^{1/4}) exp(top/2) at 0, and
    u from (0, 1) at 0 to about K0^{-1/4} (K^{-1/4}, K^{1/4}) exp(top/2) at
    X (K at least K0).  All are logarithms, so no finite input overflows
    them; above _LOG_AMPLITUDE_LIMIT, OverflowGuardError.  That limit is the
    largest amplitude served, bisected in X: 690.05-691.45 on 32 pair
    families (691.47 as alpha -> 0) and 686.84-690.47 on 192 eigenfunction
    families, |c| 1e-9 to 1e12, |arg c| <= 2.2, alpha 0.05-15; past a
    family's own boundary the march runs and _guard refuses it.
    """
    mesh = _mesh(X, _mesh_size(c, alpha, X, abs(lam)))
    xs = mesh[::-1]
    xm = 0.5 * (xs[1:] + xs[:-1])
    w = cmath.sqrt(c) * xm ** (0.5 * alpha)
    if lam:  # the factor is 1 at lam = 0, where x^a may underflow to 0 near 0
        w = w * np.sqrt(1.0 - lam / (c * xm**alpha))
    g = np.concatenate(([0.0], np.cumsum(2.0 * np.diff(xs) * w.real)))
    top = float(np.max(g))
    log_c = math.log(abs(c))
    log_k = log_c + alpha * math.log(X)
    log_k0 = max(math.log(abs(lam)) if lam else -math.inf, 2.0 * log_c / (alpha + 2.0))
    amplitude = max(0.25 * (log_c + abs(log_k)), 0.5 * top + 0.25 * (log_c + abs(log_k0)))
    if outward:
        amplitude = max(amplitude, 0.5 * top + 0.25 * (abs(max(log_k, log_k0)) - log_k0))
    if amplitude > _LOG_AMPLITUDE_LIMIT:
        raise OverflowGuardError(
            f"the march at lambda = {complex(lam):.6g} grows by about exp({0.5 * top:.4g}) across "
            f"[0, X = {X!r}] and reaches an amplitude of about exp({amplitude:.4g}), past the double "
            f"range (limit exp({_LOG_AMPLITUDE_LIMIT:g})): X is too long for this c and lambda"
        )
    return mesh, float(g[-1]), float(np.max(np.maximum.accumulate(g) - g)), amplitude


@lru_cache(maxsize=8)
def homogeneous_pair(spec: OperatorSpec):
    """Grid samples (u, u', v, v') of the distinguished homogeneous pair,
    marched on one path after the admission check (_admit)."""
    mesh = _admit(spec.c, spec.alpha, spec.X, outward=True)[0]
    nodes = np.sort(np.concatenate((spec.grid(), mesh)))
    u, up = _march_nodes(spec, nodes, inward=False)
    v, vp = _march_nodes(spec, nodes, inward=True)
    return u, up, v, vp


def eigenfunction(spec: OperatorSpec, lam: complex) -> SampledFunction:
    """Grid samples of the decaying solution at lam, scaled to unit maximum.

    At an eigenvalue this is the eigenfunction (the boundary value y(0)
    vanishes there); away from eigenvalues it is simply the subdominant
    solution.  The march runs undamped on the real axis, at the c of spec,
    after the admission check (_admit).

    Supported range: the decaying solution must outgrow the other one by
    S >= 16 e-folds across [0, X], and the other one may gain at most 16
    e-folds on it over any stretch of [0, X] (_admit); otherwise
    ValueError is raised before the march.  Measured at eigenvalues,
    |y(0)|/max|y| is about 1e-3 exp(-S), the seed error (6e-12 at S = 21,
    2e-10 at 15.6, 4e-7 at 9), plus a rounding error that grows with the
    stretch gain (up to 7e-11 at 16, 1e-9 at 22, 1e-6 at 32).  Both bounds
    fail deep in the sector, where Re sqrt(c) = |c|^{1/2} cos(arg c / 2) is
    small: on OperatorSpec.for_modes(c, 2/3, 3), lambda_1 is supported up
    to about |arg c| = 2.45 and lambda_3 up to about 1.95.  A longer
    truncation X raises S but not the stretch gain.
    """
    lam = complex(lam)
    mesh, S, drop, _amplitude = _admit(spec.c, spec.alpha, spec.X, lam)
    if not (S >= _SUPPRESSION and drop <= _SUPPRESSION):
        raise ValueError(
            f"eigenfunction at lambda = {lam:.6g} is out of the supported range: the decaying "
            f"solution gains S = {S:.3g} e-folds on the other one over [0, X] (need {_SUPPRESSION:g}) "
            f"and loses up to {drop:.3g} on a stretch (limit {_SUPPRESSION:g}); |arg c| is too "
            f"close to pi for this lambda, or X = {spec.X!r} is too short"
        )
    y, _yp = _march_nodes(spec, np.sort(np.concatenate((spec.grid(), mesh))), inward=True, lam=lam)
    return SampledFunction(spec.grid(), y / np.max(np.abs(y)))


def _cumulative_quad(g: np.ndarray, h: float, backward: bool = False) -> np.ndarray:
    """Cumulative integral of grid samples with a 4-point rule whose local
    error has one sign (no parity sawtooth), so finite differences of the
    result stay clean."""
    n = len(g)
    inc = np.empty(n - 1, dtype=complex)
    inc[0] = h * (9.0 * g[0] + 19.0 * g[1] - 5.0 * g[2] + g[3]) / 24.0
    inc[-1] = h * (9.0 * g[-1] + 19.0 * g[-2] - 5.0 * g[-3] + g[-4]) / 24.0
    inc[1:-1] = h * (-g[:-3] + 13.0 * g[1:-2] + 13.0 * g[2:-1] - g[3:]) / 24.0
    out = np.empty(n, dtype=complex)
    if backward:
        out[-1] = 0.0
        out[:-1] = inc[::-1].cumsum()[::-1]
    else:
        out[0] = 0.0
        out[1:] = inc.cumsum()
    return out


def apply_inverse(spec: OperatorSpec, f: SampledFunction) -> SampledFunction:
    """Green-kernel action of the inverse operator on sampled data:
    y(x) = [v(x) int_0^x u f + u(x) int_x^X v f] / W, with u(0) = 0,
    v decaying at infinity, W = v u' - v' u their Wronskian.

    The infinite tail of the second integral is truncated at X, which the
    super-exponential decay of v justifies.  y(0) = 0 exactly by
    construction.  The Wronskian is checked constant to relative 1e-6
    across the grid.  Data large enough that y overflows (|f| near the top
    of the double range) raise OverflowGuardError.
    """
    xs = spec.grid()
    if f.grid.shape != xs.shape or not np.allclose(f.grid, xs, rtol=0, atol=1e-12 * spec.X):
        raise ValueError(
            f"sampled function must live on a uniform grid from 0 to X = {spec.X!r}: "
            f"{spec.grid_n} points, each within {1e-12 * spec.X:.3g} of linspace(0, X, {spec.grid_n})"
        )
    u, up, v, vp = homogeneous_pair(spec)
    w_all = v * up - vp * u
    w0 = w_all[len(w_all) // 2]
    scale = np.max(np.abs(v) * np.abs(up))
    if abs(w0) < 1e-10 * scale:
        raise WronskianError(f"degenerate Wronskian {w0!r}")
    drift = float(np.max(np.abs(w_all - w0))) / abs(w0)
    if drift > 1e-6:
        raise WronskianError(f"Wronskian drift {drift:.3e} exceeds 1e-6")
    h = xs[1] - xs[0]
    with np.errstate(over="ignore", invalid="ignore"):
        a_part = _cumulative_quad(u * f.values, h)
        b_part = _cumulative_quad(v * f.values, h, backward=True)
        y = (v * a_part + u * b_part) / w0
    y += 0.0  # -0.0 + 0.0 is +0.0: a zero f prints no signed zeros
    y[0] = 0.0
    if not np.all(np.isfinite(y)):
        raise OverflowGuardError(
            f"the Green-kernel result y overflowed (max |f| = {np.max(np.abs(f.values)):.3e})")
    return SampledFunction(xs, y)


def s_numbers(spec: OperatorSpec, n_max: int) -> SNumberReport:
    """s_n = 1/|lambda_n|, the singular values of the inverse operator for c > 0.

    Uses the exact factorization |lambda_n| = |c|^{2/(a+2)} t_n with the
    c = 1 reference t_n.  For complex c the inverse is not normal and its
    singular values differ: a dense SVD at alpha = 2 gives s_6 |lambda_6| =
    1.016, 1.066 and 1.162 at arg c 0.5, 1.0 and 1.5.  The values decay
    like n^expected_exponent, with expected_exponent = -2 alpha/(alpha + 2)
    from the large-n law of t_asymptotic; a caller fits the measured slope
    over the range it needs.
    """
    t_ref = real_spectrum(spec.alpha, n_max)
    pref = abs(spec.c) ** (-2.0 / (spec.alpha + 2.0))
    return SNumberReport(
        values=tuple(pref / t for t in t_ref),
        expected_exponent=-2.0 * spec.alpha / (spec.alpha + 2.0),
    )
