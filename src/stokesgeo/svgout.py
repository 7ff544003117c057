"""Minimal deterministic SVG rendering of graphs, geodesics and strips."""

from __future__ import annotations

import cmath
import math

from .pathint import douglas_peucker
from .strips import ChoppedStrip, visible_pairs
from .tracer import StokesGraph


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _path(points, stroke, width, dash=None, opacity=None) -> str:
    d = "M " + " L ".join(f"{_fmt(p.real)} {_fmt(-p.imag)}" for p in points)
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    extra += f' stroke-opacity="{opacity}"' if opacity else ""
    return (f'<path d="{d}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}"{extra}/>')


def _document(elements, bounds) -> str:
    margin = 0.08
    x0, x1, y0, y1 = bounds
    dx = max(x1 - x0, 1e-6)
    dy = max(y1 - y0, 1e-6)
    x0 -= margin * dx
    x1 += margin * dx
    y0 -= margin * dy
    y1 += margin * dy
    view = f"{_fmt(x0)} {_fmt(-y1)} {_fmt(x1 - x0)} {_fmt(y1 - y0)}"
    body = "\n".join(elements)
    return ('<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}" '
            'width="720" height="720">\n'
            f"{body}\n</svg>\n")


def render_stokes_graph(graph: StokesGraph, decimate: float | None = None,
                        geodesics=None) -> str:
    """Turning points as dots, finite edges thick, escaping edges thin,
    asymptotic rays dashed; optional geodesic overlay."""
    r = graph.scales.r_escape
    elements = []
    lw = r / 400.0
    for k, ray in enumerate(graph.rays):
        end = r * cmath.exp(1j * ray)
        elements.append(_path([0j, end], "#999999", lw,
                              dash=f"{_fmt(r / 40)} {_fmt(r / 40)}"))
    for e in graph.edges:
        pts = list(e.polyline)
        if decimate:
            pts = douglas_peucker(pts, decimate)
        if e.kind == "finite":
            elements.append(_path(pts, "#cc2222", 3.0 * lw))
        elif e.kind == "escape":
            elements.append(_path(pts, "#2244cc", lw))
        else:
            elements.append(_path(pts, "#cc8800", lw, dash=f"{_fmt(r/80)}"))
    if geodesics:
        for g in geodesics:
            pts = list(g.polyline)
            if decimate:
                pts = douglas_peucker(pts, decimate)
            elements.append(_path(pts, "#119933", 2.5 * lw, opacity="0.8"))
    for loc, mult in graph.turning_points.points:
        elements.append(
            f'<circle cx="{_fmt(loc.real)}" cy="{_fmt(-loc.imag)}" '
            f'r="{_fmt(4 * lw * math.sqrt(mult))}" fill="#000000"/>')
    return _document(elements, (-r, r, -r, r))


def render_strip(strip: ChoppedStrip) -> str:
    """Nodes, vertical cut rays and the cut-avoiding visible segments."""
    nodes = [(float(x), float(y)) for x, y in strip.nodes]
    xs = [x for x, _ in nodes]
    ys = [y for _, y in nodes]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    ray_len = 0.6 * span
    elements = []
    for (i, j) in visible_pairs(strip):
        a = complex(*nodes[i])
        b = complex(*nodes[j])
        elements.append(_path([a, b], "#119933", span / 300))
    for k, direction in enumerate(strip.cuts):
        x, y = nodes[k + 1]
        sign = 1.0 if direction == "up" else -1.0
        elements.append(_path([complex(x, y), complex(x, y + sign * ray_len)],
                              "#cc2222", span / 200))
    for x, y in nodes:
        elements.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(-y)}" '
                        f'r="{_fmt(span / 120)}" fill="#000000"/>')
    y_lo = min(ys) - ray_len
    y_hi = max(ys) + ray_len
    return _document(elements, (min(xs), max(xs), y_lo, y_hi))
