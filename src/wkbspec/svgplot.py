"""Minimal deterministic SVG 1.1 line art for Stokes graphs."""

from __future__ import annotations

import cmath

from .stokes import StokesGraph

# fixed viewport in plane coordinates: x in [-1.5, 2.5], y in [-2, 2]
_VIEW = (-1.5, -2.0, 4.0, 4.0)
_CURVE_COLORS = ("#1f6feb", "#d29922")  # complex of tp 0, complex of the other


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _pt(z: complex) -> str:
    # SVG y axis points down
    return f"{_fmt(z.real)},{_fmt(-z.imag)}"


def render_stokes_svg(graph: StokesGraph, ray_angle: float | None = None) -> str:
    """SVG of the traced graph: curves as polylines, turning points as
    filled circles, optionally the ray from the origin (dashed)."""
    x0, y0, w, h = _VIEW
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="800" height="800" '
        f'viewBox="{x0} {y0} {w} {h}">',
        f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" fill="white"/>',
    ]
    for ci, idxs in ((0, graph.complex1), (1, graph.complex2)):
        color = _CURVE_COLORS[ci]
        for i in idxs:
            pts = " ".join(_pt(z) for z in graph.curves[i].points)
            lines.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="0.012"/>'
            )
    if ray_angle is not None:
        far = 6.0 * cmath.exp(1j * ray_angle)
        lines.append(
            f'<line x1="0" y1="0" x2="{_fmt(far.real)}" y2="{_fmt(-far.imag)}" '
            'stroke="#bf3989" stroke-width="0.012" stroke-dasharray="0.08,0.05"/>'
        )
    for tp in graph.potential.turning_points():
        lines.append(
            f'<circle cx="{_fmt(tp.real)}" cy="{_fmt(-tp.imag)}" r="0.03" fill="#24292f"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
