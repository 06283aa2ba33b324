"""Oracles for every op, independent of the code under test.

They run in the harness after the workload process has exited, so their
cost is in no metric.  Each check returns None when the op's output is
right, or a one-line reason when it is not.

Sources of truth:

* alpha = 2 spectra are exact, t_n = 4n - 1;
* alpha = 1 spectra are Airy zeros, from ``mpmath.airyaizero``;
* alpha = 2/3 eigenvalues come from an outward shooting of our own in the
  variable s = x^(1/3), where the equation has polynomial coefficients and
  classical RK4 converges at fourth order (checked by step doubling);
* F(theta) and theta0 come from ``mpmath.quad`` and ``mpmath.findroot``;
* the resolvent residual is recomputed from the output file;
* Stokes output is checked for its six curves and, in the t-form, for the
  analytic compound rule arg mu = 0 (mod pi/2).
"""

from __future__ import annotations

import cmath
import json
import math
import xml.etree.ElementTree as ET

import mpmath
import numpy as np


def t_asymptotic(n: int, alpha: float) -> float:
    """Bohr-Sommerfeld law for the c = 1 problem, from math.gamma."""
    base = (n - 0.25) * math.sqrt(math.pi) * (alpha + 2.0) * math.gamma(1.0 / alpha + 0.5) / math.gamma(1.0 / alpha)
    return base ** (2.0 * alpha / (alpha + 2.0))


# ---------------------------------------------------------------------------
# alpha = 2/3 reference spectrum
# ---------------------------------------------------------------------------

def _shoot_s(ts: np.ndarray, s_max: float, steps: int) -> np.ndarray:
    """u(s_max) for -y'' + x^(2/3) y = t y, y(0) = 0, y'(0) = 1, with x = s^3.

    With u(s) = y(s^3) and p(s) = y'(s^3): u' = 3 s^2 p, p' = 3 s^2 (s^2 - t) u.
    The value is scaled down as it grows; only its sign is used.
    """
    h = s_max / steps
    u = np.zeros_like(ts)
    p = np.ones_like(ts)

    def f(s, u, p):
        g = 3.0 * s * s
        return g * p, g * (s * s - ts) * u

    for k in range(steps):
        s = k * h
        a1, b1 = f(s, u, p)
        a2, b2 = f(s + 0.5 * h, u + 0.5 * h * a1, p + 0.5 * h * b1)
        a3, b3 = f(s + 0.5 * h, u + 0.5 * h * a2, p + 0.5 * h * b2)
        a4, b4 = f(s + h, u + h * a3, p + h * b3)
        u = u + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        p = p + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        big = np.maximum(np.abs(u), np.abs(p))
        if big.max() > 1e100:
            u, p = u / big, p / big
    return u


def _roots_alpha23(n_max: int, steps: int) -> np.ndarray:
    t_top = 1.2 * t_asymptotic(n_max, 2.0 / 3.0)
    # decaying solution is e^-40 below the growing one well before s_max
    s_max = (2.0 * t_top ** 1.5 + 12.0) ** (1.0 / 3.0)
    grid = np.linspace(0.5 * t_asymptotic(1, 2.0 / 3.0), t_top, 40 * n_max)
    vals = _shoot_s(grid, s_max, steps)
    idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0][:n_max]
    if len(idx) < n_max:
        raise RuntimeError(f"alpha=2/3 reference found {len(idx)} of {n_max} sign changes")
    lo, hi = grid[idx], grid[idx + 1]
    flo = vals[idx]
    # multisection: 32 interior points per bracket and round
    for _ in range(8):
        frac = np.linspace(0.0, 1.0, 34)[1:-1]
        pts = lo[:, None] + (hi - lo)[:, None] * frac[None, :]
        fp = _shoot_s(pts.reshape(-1), s_max, steps).reshape(pts.shape)
        new_lo, new_hi, new_flo = lo.copy(), hi.copy(), flo.copy()
        for j in range(len(lo)):
            row = np.concatenate(([flo[j]], fp[j]))
            xs = np.concatenate(([lo[j]], pts[j], [hi[j]]))
            flips = np.nonzero(np.sign(row) != np.sign(flo[j]))[0]
            k = int(flips[0]) if len(flips) else len(row)  # else the root is past the last point
            new_lo[j], new_hi[j], new_flo[j] = xs[k - 1], xs[k], row[k - 1]
        lo, hi, flo = new_lo, new_hi, new_flo
        if np.max(hi - lo) < 1e-12:
            break
    return 0.5 * (lo + hi)


def alpha23_reference(n_max: int) -> np.ndarray:
    """First n_max eigenvalues of -y'' + x^(2/3) y on the half line.

    Computed at two step sizes; they must agree to 1e-9 relative, a
    thousandth of the 1e-6 the spectrum checks allow.
    """
    coarse = _roots_alpha23(n_max, 1500)
    fine = _roots_alpha23(n_max, 3000)
    if np.max(np.abs(coarse - fine) / fine) > 1e-9:
        raise RuntimeError(f"alpha=2/3 reference not converged: {coarse} vs {fine}")
    return fine


# ---------------------------------------------------------------------------
# threshold function in high precision
# ---------------------------------------------------------------------------

def _f_mp(th):
    psi2 = 2 * (mpmath.pi / 8 - 3 * th / 4)
    integral = mpmath.quad(lambda t: mpmath.sqrt(t * t - 1j * t), [0, mpmath.tan(th)])
    return -mpmath.sin(psi2) * (mpmath.pi / 8 + integral.imag) + mpmath.cos(psi2) * integral.real


def f_theta_mp(theta: float) -> float:
    """F(theta) = -sin(2 psi)(pi/8 + Im I) + cos(2 psi) Re I, psi = pi/8 - 3 theta/4,
    I = int_0^{tan theta} sqrt(t^2 - i t) dt, by tanh-sinh quadrature at 30 digits."""
    with mpmath.workdps(30):
        return float(_f_mp(mpmath.mpf(theta)))


def theta0_mp() -> float:
    """The zero of F in [pi/10, pi/9], at 30 digits."""
    with mpmath.workdps(30):
        return float(mpmath.findroot(_f_mp, (mpmath.pi / 10, mpmath.pi / 9), solver="anderson"))


# ---------------------------------------------------------------------------
# per-op checks
# ---------------------------------------------------------------------------

def _csv_rows(path: str):
    """Data rows of a wkbspec CSV (comment lines and the column header dropped)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    return [[float(v) for v in ln.split(",")] for ln in lines[1:]]


class Oracle:
    """Checks for one run; expensive references are computed once and kept."""

    def __init__(self):
        self._alpha23 = {}
        self._airy = {}
        self._f = {}
        self._theta0 = None

    def alpha23(self, n_max: int) -> np.ndarray:
        if n_max not in self._alpha23:
            self._alpha23[n_max] = alpha23_reference(n_max)
        return self._alpha23[n_max]

    def airy_zero(self, n: int) -> float:
        if n not in self._airy:
            self._airy[n] = -float(mpmath.airyaizero(n))
        return self._airy[n]

    def f_theta(self, theta: float) -> float:
        if theta not in self._f:
            self._f[theta] = f_theta_mp(theta)
        return self._f[theta]

    def theta0(self) -> float:
        if self._theta0 is None:
            self._theta0 = theta0_mp()
        return self._theta0

    def check(self, op: dict, out_path: str):
        return getattr(self, "_check_" + op["kind"])(op["check"], out_path)

    # -- spectra ---------------------------------------------------------------
    def _check_spectrum(self, chk, path):
        alpha, n = chk["alpha"], chk["n"]
        c = complex(*chk["c"])
        rows = _csv_rows(path)
        if [int(r[0]) for r in rows] != list(range(1, n + 1)):
            return f"expected rows n = 1..{n}, got {len(rows)} rows"
        p = 2.0 / (alpha + 2.0)
        c_p = cmath.exp(p * cmath.log(c))
        ts = [r[1] for r in rows]
        for k, (_, t, lam_re, lam_im, _ta, _dev, s_n) in enumerate(rows, start=1):
            lam = complex(lam_re, lam_im)
            if abs(lam / c_p - t) > 1e-6 * t:
                return f"n={k}: lambda/c^{p:.4f} = {lam / c_p} but t_n = {t!r}"
            if abs(cmath.phase(lam) - p * cmath.phase(c)) > 1e-6:
                return f"n={k}: arg lambda = {cmath.phase(lam)!r}, expected {p * cmath.phase(c)!r}"
            if abs(s_n * abs(lam) - 1.0) > 1e-6:
                return f"n={k}: s_n = {s_n!r} but 1/|lambda_n| = {1.0 / abs(lam)!r}"
        if alpha == 2.0:
            worst = max(abs(t - (4 * k - 1)) for k, t in enumerate(ts, start=1))
            if worst > 1e-8:
                return f"alpha=2: max |t_n - (4n-1)| = {worst:.2e} > 1e-8"
        elif alpha == 1.0:
            worst = max(abs(t - self.airy_zero(k)) for k, t in enumerate(ts, start=1))
            if worst > 1e-7:
                return f"alpha=1: max |t_n - airy zero| = {worst:.2e} > 1e-7"
        else:
            if any(b <= a for a, b in zip(ts, ts[1:])):
                return "t_n not strictly increasing"
            for k, t in enumerate(ts, start=1):
                if k >= 5 and abs(t / t_asymptotic(k, alpha) - 1.0) > 0.02:
                    return f"n={k}: t_n = {t!r} more than 2% off the asymptotic law"
            if chk.get("reference"):
                ref = self.alpha23(n)
                worst = float(np.max(np.abs(np.array(ts) - ref) / ref))
                if worst > 1e-6:
                    return f"t_n off the real-axis reference by {worst:.2e} > 1e-6"
        return None

    # -- resolvent -----------------------------------------------------------------
    def _check_resolvent(self, chk, path):
        data = np.loadtxt(chk["input"], delimiter=",", comments="#")
        xs, f = data[:, 0], data[:, 1] + 1j * data[:, 2]
        out = np.array(_csv_rows(path))
        if out.shape != (len(xs), 3) or np.max(np.abs(out[:, 0] - xs)) > 1e-12 * xs[-1]:
            return f"output grid {out.shape} does not match the input grid"
        y = out[:, 1] + 1j * out[:, 2]
        if y[0] != 0:
            return f"y(0) = {y[0]} is not 0"
        c, alpha = complex(*chk["c"]), chk["alpha"]
        h = xs[1] - xs[0]
        ypp = (y[:-2] - 2.0 * y[1:-1] + y[2:]) / h**2
        res = -ypp + c * xs[1:-1] ** alpha * y[1:-1] - f[1:-1]
        rel = float(np.max(np.abs(res)) / np.max(np.abs(f)))
        if not rel < 1e-5:
            return f"forward residual {rel:.2e} >= 1e-5"
        return None

    # -- geometry ------------------------------------------------------------------
    def _check_theta0(self, chk, path):
        with open(path, encoding="utf-8") as fh:
            rep = json.load(fh)
        ref = self.theta0()
        if abs(rep["theta0"] - ref) > 1e-12:
            return f"theta0 = {rep['theta0']!r}, mpmath gives {ref!r}"
        lo, hi = rep["enclosure"]
        if not (lo - 1e-12 <= ref <= hi + 1e-12):
            return f"enclosure ({lo!r}, {hi!r}) misses {ref!r}"
        return None

    def _check_scan(self, chk, path):
        rows = _csv_rows(path)
        if len(rows) != chk["steps"]:
            return f"{len(rows)} rows, expected {chk['steps']}"
        for k in chk["sample_rows"]:
            theta, f = rows[k]
            ref = self.f_theta(theta)
            if abs(f - ref) > 1e-11:
                return f"row {k}: F({theta!r}) = {f!r}, mpmath gives {ref!r}"
        return None

    def _check_stokes(self, chk, path):
        if chk["format"] == "svg":
            root = ET.parse(path).getroot()
            curves = root.findall("{http://www.w3.org/2000/svg}polyline")
            if not root.tag.endswith("svg") or len(curves) != 6:
                return f"SVG with {len(curves)} curves, expected 6"
            return None
        with open(path, encoding="utf-8") as fh:
            graph = json.load(fh)
        if len(graph["curves"]) != 6:
            return f"{len(graph['curves'])} curves, expected 6"
        if chk.get("mu") is not None:
            arg = math.atan2(chk["mu"][1], chk["mu"][0]) % (2.0 * math.pi)
            r = arg % (math.pi / 2.0)
            analytic = min(r, math.pi / 2.0 - r) < 1e-9
            if graph["compound"] != analytic:
                return f"compound = {graph['compound']}, analytic rule gives {analytic} (arg mu = {arg!r})"
        return None

    def _check_verify(self, chk, path):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        bad = [ln for ln in lines if ln.startswith("FAIL")]
        if bad:
            return bad[0]
        if not lines or not lines[-1].startswith("OK"):
            return "report does not end with OK"
        return None
