"""Stokes-line tracing and graph assembly.

Trajectories solve dz/ds = i * conj(w) / |w| with w = sqrt(P(z)) continued
along the trace, which moves at unit speed while keeping Re xi constant
(d xi / ds = i |w|).  Each accepted step of the output-quality tracer adds
the chord integral of sqrt(P) to a running drift estimate and projects the
new vertex back onto the Re xi level set of the launch point, so emitted
polylines stay on the Stokes line in the canonical chart.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .config import DEFAULT_CONFIG, RunConfig, Scales
from .errors import NumericalError
from .polynomial import (ComplexPolynomial, PolyContext, StokesSectorSet,
                         TurningPointSet, wrap_angle, wrap_positive)
from .pathint import (_KRONROD_NODES, _KRONROD_WEIGHTS, _deflate,
                      integrate_chord_from_root)

# Dormand-Prince 5(4) coefficients: nodes _C, stages _A, weights _B5, _B4
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)


@dataclass(frozen=True)
class HitTurningPoint:
    target: int
    final_distance: float


@dataclass(frozen=True)
class EscapedToRay:
    ray: int
    exit_point: complex


@dataclass(frozen=True)
class Truncated:
    arc_length: float


def emanating_directions(poly: ComplexPolynomial, root: complex,
                         mult: int) -> list[float]:
    """The m+2 local Stokes directions at a turning point of multiplicity m.

    With c the leading local coefficient P^(m)(root)/m!, the directions are
    theta_k = (pi (2k+1) - arg c) / (m+2), where Re of the local primitive
    of sqrt(P) vanishes.
    """
    # P / (z - root)^m evaluated at the root
    c = _deflate(poly, root, mult).evaluate(root)
    argc = cmath.phase(c)
    n = mult + 2
    return [wrap_positive((math.pi * (2 * k + 1) - argc) / n) for k in range(n)]


def _branch_step(poly, z, w_ref, z_new):
    """Sign-matched sqrt(P)(z_new) against a nearby reference value."""
    w = cmath.sqrt(poly.evaluate(z_new))
    if w.real * w_ref.real + w.imag * w_ref.imag < 0.0:
        w = -w
    return w


def _chord_re_integral(poly, z0, w0, z1):
    """Re of the GK15 chord integral of sqrt(P), branch continued from w0.
    The chord is assumed branch-safe (one RK step long)."""
    dz = z1 - z0
    acc = 0.0
    w_prev = w0
    for k in range(15):
        s = 0.5 + 0.5 * _KRONROD_NODES[k]
        w = _branch_step(poly, z0, w_prev, z0 + s * dz)
        w_prev = w
        acc += _KRONROD_WEIGHTS[k] * (w.real * dz.real - w.imag * dz.imag)
    return 0.5 * acc, w_prev


def trace_stokes_line(poly: ComplexPolynomial, root_index: int, direction: float,
                      config: RunConfig = DEFAULT_CONFIG,
                      context: PolyContext | None = None,
                      track_drift: bool = True,
                      tol_shrink: float = 1.0,
                      max_length: float | None = None,
                      hit_radius: float | None = None):
    """Trace one Stokes line from a turning point.

    Returns (polyline, fate).  Terminates on: reaching another turning
    point within ``hit_radius`` (default delta_hit, HitTurningPoint),
    leaving the escape radius moving outward (EscapedToRay, with the final
    vertex landed exactly on the escape circle), or exceeding the length
    cap (Truncated).
    """
    ctx = context if context is not None else PolyContext.of(poly, config)
    locs, scales = ctx.locs, ctx.scales
    r0 = locs[root_index]
    _, rho_other = ctx.nearest_root(r0, skip=root_index)
    if not math.isfinite(rho_other):
        rho_other = scales.d_unit
    eps = min(1e-3 * scales.d_unit, 0.2 * rho_other)
    z = r0 + eps * cmath.exp(1j * direction)

    p = poly.evaluate(z)
    w = cmath.sqrt(p)
    v = 1j * w.conjugate() / abs(w)
    if v.real * math.cos(direction) + v.imag * math.sin(direction) < 0.0:
        w = -w

    delta_hit = scales.delta_hit
    hit_r = hit_radius if hit_radius is not None else delta_hit
    r_escape = scales.r_escape
    l_max = max_length if max_length is not None else scales.l_max
    atol = config.trace_tol * scales.d_unit * tol_shrink

    polyline = [r0]
    drift = 0.0
    # put the launch point on the Re xi level of the root itself; the raw
    # offset point sits O(eps^{(m+4)/2}) off the separatrix, which is more
    # than a hit radius away once transported to the far endpoint
    head = integrate_chord_from_root(poly, locs, r0, ctx.mults[root_index],
                                     z, w, rel_tol=1e-12)
    z = z - head.real * w.conjugate() / (abs(w) ** 2)
    w = _branch_step(poly, z, w, z)
    polyline.append(z)

    def field(z_pt, w_ref):
        w_here = _branch_step(poly, z_pt, w_ref, z_pt)
        return 1j * w_here.conjugate() / abs(w_here), w_here

    s_total = 0.0
    h = eps / 4.0
    exclusion = 12.0 * eps
    prev_dists: list[tuple[float, int, float]] = []

    guard = 0
    while True:
        guard += 1
        if guard > 200000:
            raise NumericalError("trace exceeded step budget", residuals=[z])
        near_idx, near_d = ctx.nearest_root(z)
        if s_total > exclusion or near_idx != root_index:
            if near_d <= hit_r:
                polyline.append(locs[near_idx])
                return polyline, HitTurningPoint(near_idx, near_d)
        h = min(h, max(near_d, delta_hit) / 4.0)
        if h < 1e-15 * scales.d_unit:
            raise NumericalError("step-size underflow during trace",
                                 residuals=[z])
        # one embedded Dormand-Prince step
        k = [0j] * 7
        v0, w0 = field(z, w)
        k[0] = v0
        for i in range(1, 6):
            zi = z
            for j, aij in enumerate(_A[i]):
                zi += h * aij * k[j]
            vi, _ = field(zi, w0)
            k[i] = vi
        z5 = z + h * sum(b * ki for b, ki in zip(_B5, k[:6]))
        v6, w6 = field(z5, w0)
        k[6] = v6
        z4 = z + h * sum(b * ki for b, ki in zip(_B4, k))
        err = abs(z5 - z4)
        if err > atol and h > 4e-15 * scales.d_unit:
            h *= max(0.2, 0.9 * (atol / max(err, 1e-300)) ** 0.2)
            continue
        # accept; escaping steps land exactly on the circle first
        if abs(z5) >= r_escape:
            vz, _ = field(z5, w6)
            if z5.real * vz.real + z5.imag * vz.imag > 0.0:
                z_land, w_land = _land_on_circle(poly, z, w, z5, r_escape)
                if track_drift:
                    inc, _ = _chord_re_integral(poly, z, w, z_land)
                    dr = drift + inc
                    corr = -dr * w_land.conjugate() / (abs(w_land) ** 2)
                    z_land = z_land + corr
                    w_land = _branch_step(poly, z_land, w_land, z_land)
                polyline.append(z_land)
                ray = ctx.sectors.nearest_ray_index(cmath.phase(z_land))
                return polyline, EscapedToRay(ray, z_land)
        w_new = _branch_step(poly, z5, w6, z5)
        if track_drift:
            inc, _ = _chord_re_integral(poly, z, w, z5)
            drift += inc
            if abs(drift) > 1e-13 * scales.d_unit:
                corr = -drift * w_new.conjugate() / (abs(w_new) ** 2)
                z5 = z5 + corr
                drift += (w_new * corr).real
                w_new = _branch_step(poly, z5, w_new, z5)
        s_total += h
        z, w = z5, w_new
        polyline.append(z)
        if err > 0:
            h = h * min(5.0, max(0.2, 0.9 * (atol / err) ** 0.2))
        else:
            h = h * 5.0

        # distance local-minimum detection with quadratic interpolation
        nid, nd = ctx.nearest_root(z)
        if not (s_total <= exclusion and nid == root_index):
            prev_dists.append((s_total, nid, nd))
            if len(prev_dists) > 3:
                prev_dists.pop(0)
            if len(prev_dists) == 3:
                (s1, i1, d1), (s2, i2, d2), (s3, i3, d3) = prev_dists
                if i1 == i2 == i3 and d2 < d1 and d2 < d3:
                    dmin = _parabola_min(s1, d1, s2, d2, s3, d3)
                    if dmin <= hit_r:
                        polyline.append(locs[i2])
                        return polyline, HitTurningPoint(i2, max(dmin, 0.0))
        else:
            prev_dists.clear()

        if s_total >= l_max:
            return polyline, Truncated(s_total)


def _parabola_min(s1, d1, s2, d2, s3, d3):
    denom = (s1 - s2) * (s1 - s3) * (s2 - s3)
    if denom == 0:
        return d2
    a = (s3 * (d2 - d1) + s2 * (d1 - d3) + s1 * (d3 - d2)) / denom
    b = (s3 * s3 * (d1 - d2) + s2 * s2 * (d3 - d1) + s1 * s1 * (d2 - d3)) / denom
    if a <= 0:
        return d2
    s_min = -b / (2 * a)
    if not (min(s1, s3) <= s_min <= max(s1, s3)):
        return d2
    c = ((d1 - a * s1 * s1 - b * s1) + (d2 - a * s2 * s2 - b * s2)
         + (d3 - a * s3 * s3 - b * s3)) / 3.0
    return a * s_min * s_min + b * s_min + c


def _land_on_circle(poly, z_prev, w_prev, z_over, radius):
    """Move the final vertex onto |z| = radius by bisection on the chord."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        zm = z_prev + mid * (z_over - z_prev)
        if abs(zm) >= radius:
            hi = mid
        else:
            lo = mid
    z_land = z_prev + hi * (z_over - z_prev)
    w_land = _branch_step(poly, z_prev, w_prev, z_land)
    return z_land, w_land


# --- graph assembly -----------------------------------------------------------

@dataclass(frozen=True)
class StokesEdge:
    """One edge of the Stokes graph.

    Finite edges carry both endpoint stubs (root index, local direction
    index); escaping edges carry the asymptotic ray index and end exactly
    on the escape circle.
    """

    kind: str                      # "finite" | "escape" | "truncated"
    origin: int
    direction_index: int
    polyline: tuple[complex, ...]
    target: int | None = None
    target_direction_index: int | None = None
    ray: int | None = None
    flagged: bool = False


@dataclass(frozen=True)
class StokesGraph:
    poly: ComplexPolynomial
    turning_points: TurningPointSet
    sectors: StokesSectorSet
    edges: tuple[StokesEdge, ...]
    complexes: tuple[frozenset, ...]
    incomplete: bool
    scales: Scales

    @property
    def rays(self) -> tuple[float, ...]:
        return self.sectors.ray_angles

    @property
    def finite_edges(self) -> tuple[StokesEdge, ...]:
        return tuple(e for e in self.edges if e.kind == "finite")


def build_stokes_graph(poly: ComplexPolynomial,
                       config: RunConfig = DEFAULT_CONFIG,
                       track_drift: bool = True) -> StokesGraph:
    """Trace every emanating Stokes line and assemble the graph.

    Opposite half-traces of a finite Stokes line (a hits b, b hits a) are
    merged into a single finite edge; a one-sided hit is accepted but
    flagged.  Any truncated trajectory marks the graph incomplete.
    """
    ctx = PolyContext.of(poly, config)
    raw = []  # (origin, dir_index, direction, polyline, fate)
    for ridx, (root, mult) in enumerate(ctx.tps.points):
        dirs = emanating_directions(poly, root, mult)
        for kdir, theta in enumerate(dirs):
            pl, fate = trace_stokes_line(poly, ridx, theta, config=config,
                                         context=ctx, track_drift=track_drift)
            raw.append((ridx, kdir, theta, tuple(pl), fate))

    edges = []
    incomplete = False
    consumed = set()
    hits = {}
    for idx, (ridx, kdir, theta, pl, fate) in enumerate(raw):
        if isinstance(fate, HitTurningPoint):
            hits.setdefault((ridx, fate.target), []).append(idx)
    for idx, (ridx, kdir, theta, pl, fate) in enumerate(raw):
        if idx in consumed:
            continue
        if isinstance(fate, HitTurningPoint):
            partners = [p for p in hits.get((fate.target, ridx), [])
                        if p not in consumed and p != idx]
            if partners:
                pidx = partners[0]
                consumed.add(idx)
                consumed.add(pidx)
                edges.append(StokesEdge(
                    kind="finite", origin=ridx, direction_index=kdir,
                    polyline=pl, target=fate.target,
                    target_direction_index=raw[pidx][1], flagged=False))
            else:
                consumed.add(idx)
                tgt_dirs = emanating_directions(
                    poly, ctx.locs[fate.target], ctx.mults[fate.target])
                arr = cmath.phase(pl[-2] - ctx.locs[fate.target])
                kt = min(range(len(tgt_dirs)),
                         key=lambda m: abs(wrap_angle(tgt_dirs[m] - arr)))
                edges.append(StokesEdge(
                    kind="finite", origin=ridx, direction_index=kdir,
                    polyline=pl, target=fate.target,
                    target_direction_index=kt, flagged=True))
        elif isinstance(fate, EscapedToRay):
            consumed.add(idx)
            edges.append(StokesEdge(
                kind="escape", origin=ridx, direction_index=kdir,
                polyline=pl, ray=fate.ray))
        else:
            consumed.add(idx)
            incomplete = True
            edges.append(StokesEdge(
                kind="truncated", origin=ridx, direction_index=kdir,
                polyline=pl, flagged=True))

    # complexes: connected components over finite edges
    parent = list(range(len(ctx.locs)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        if e.kind == "finite" and e.target is not None:
            ra, rb = find(e.origin), find(e.target)
            if ra != rb:
                parent[ra] = rb
    groups: dict[int, set] = {}
    for ridx in range(len(ctx.locs)):
        groups.setdefault(find(ridx), set()).add(ridx)
    complexes = tuple(frozenset(g) for _, g in sorted(
        (min(g), g) for g in groups.values()))

    return StokesGraph(poly=poly, turning_points=ctx.tps, sectors=ctx.sectors,
                       edges=tuple(edges), complexes=complexes,
                       incomplete=incomplete, scales=ctx.scales)


def classify_complexes(graph: StokesGraph) -> list[tuple[frozenset, bool]]:
    """(component, is_simple) for every Stokes complex; simple means the
    component contains exactly one turning point."""
    if graph.incomplete:
        raise NumericalError("cannot classify complexes of an incomplete graph")
    return [(comp, len(comp) == 1) for comp in graph.complexes]
