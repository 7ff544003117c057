"""Stokes-line tracing and graph assembly.

Trajectories solve dz/ds = i * conj(w) / |w| with w = sqrt(P(z)) continued
along the trace, which moves at unit speed while keeping Re xi constant
(d xi / ds = i |w|).  The tracer is a predictor-corrector that follows the
level set Re xi = Re xi(root).  An embedded Dormand-Prince 5(4) step
predicts the next vertex; its error bound (``RunConfig.trace_tol``) only
spaces the vertices, because nearly all of a step's local error lies
normal to the line.  The corrector adds the chord integral of sqrt(P) to
a running drift estimate and projects the vertex back onto the level set
along the normal, so emitted polylines stay on the Stokes line in the
canonical chart.  The chord integral is a Gauss-Lobatto rule whose end
values are the step's own, so it costs 4 new evaluations.  An escaping
trace ends where its last step chord meets the escape circle, moved onto
the line by Newton passes of the same projection.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .config import DEFAULT_CONFIG, RunConfig, Scales
from .errors import NumericalError
from .polynomial import (ComplexPolynomial, PolyContext, StokesSectorSet,
                         TurningPointSet, wrap_angle, wrap_positive)
from .pathint import _deflate, integrate_chord_from_root

# Dormand-Prince 5(4) coefficients: stages _A, weights _B5, _B4 (the
# field is autonomous, so the nodes are not needed)
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
(_A10,), (_A20, _A21), (_A30, _A31, _A32), (_A40, _A41, _A42, _A43), \
    (_A50, _A51, _A52, _A53, _A54) = _A[1:]
_B50, _B51, _B52, _B53, _B54, _B55 = _B5
_B40, _B41, _B42, _B43, _B44, _B45, _B46 = _B4

# 6-point Gauss-Lobatto rule on [-1, 1] (Abramowitz-Stegun 25.4.32), exact
# to degree 9: the ends carry weight 1/15, the inner nodes
# +-sqrt(1/3 -+ 2 sqrt(7)/21) carry (14 +- sqrt(7))/30.  The inner nodes are
# stored as chord fractions (1 + x)/2 in order along the chord.
_LOBATTO_END = 1 / 15
_LOBATTO_INNER = tuple(
    (0.5 + 0.5 * x, wk) for x, wk in (
        (-math.sqrt(1 / 3 + 2 * math.sqrt(7) / 21), (14 - math.sqrt(7)) / 30),
        (-math.sqrt(1 / 3 - 2 * math.sqrt(7) / 21), (14 + math.sqrt(7)) / 30),
        (math.sqrt(1 / 3 - 2 * math.sqrt(7) / 21), (14 + math.sqrt(7)) / 30),
        (math.sqrt(1 / 3 + 2 * math.sqrt(7) / 21), (14 - math.sqrt(7)) / 30)))

# attempts of one trace before it gives up, and Newton passes that put an
# escaping trace's last vertex on its line
_MAX_STEP_ATTEMPTS = 200000
_LANDING_PASSES = 8


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


def _branch_step(poly, w_ref, z_new):
    """Sign-matched sqrt(P)(z_new) against a nearby reference value."""
    w = cmath.sqrt(poly.evaluate(z_new))
    if w.real * w_ref.real + w.imag * w_ref.imag < 0.0:
        w = -w
    return w


def _chord_re_integral(poly, z0, w0, z1, w1):
    """Re of the 6-point Gauss-Lobatto chord integral of sqrt(P) from z0 to
    z1.  The ends take the caller's branch values w0 and w1; each inner
    value is branch continued from the node before it.  The chord is
    assumed branch-safe (one RK step long)."""
    evaluate = poly.evaluate
    dz = z1 - z0
    acc = _LOBATTO_END * ((w0.real + w1.real) * dz.real
                          - (w0.imag + w1.imag) * dz.imag)
    w_prev = w0
    for uk, wk in _LOBATTO_INNER:
        w = cmath.sqrt(evaluate(z0 + uk * dz))
        if w.real * w_prev.real + w.imag * w_prev.imag < 0.0:
            w = -w
        w_prev = w
        acc += wk * (w.real * dz.real - w.imag * dz.imag)
    return 0.5 * acc


def _dp5_step(poly, z, w, k0, h):
    """One embedded Dormand-Prince 5(4) step of dz/ds = i conj(v) / |v|,
    v = sqrt(P)(z), from z with step h.

    ``w`` is the caller's branch of sqrt(P) at z and ``k0`` the field
    i conj(w) / |w| there; every later stage's branch is matched to ``w``.
    Returns (z5, err, w6, k6): the fifth-order point, its distance from
    the fourth-order point, and the branch and field at z5.  The pair is
    first same as last: an accepted step's (w6, k6) are the next step's
    (w, k0) unless the caller moves z5.  The stages are written out; sums
    are formed in the order of the loop over ``_A`` and of ``sum`` over
    ``_B5`` and ``_B4``."""
    evaluate = poly.evaluate
    wr, wi = w.real, w.imag

    v = cmath.sqrt(evaluate(z + h * _A10 * k0))
    if v.real * wr + v.imag * wi < 0.0:
        v = -v
    k1 = 1j * v.conjugate() / abs(v)

    v = cmath.sqrt(evaluate(z + h * _A20 * k0 + h * _A21 * k1))
    if v.real * wr + v.imag * wi < 0.0:
        v = -v
    k2 = 1j * v.conjugate() / abs(v)

    v = cmath.sqrt(evaluate(z + h * _A30 * k0 + h * _A31 * k1
                            + h * _A32 * k2))
    if v.real * wr + v.imag * wi < 0.0:
        v = -v
    k3 = 1j * v.conjugate() / abs(v)

    v = cmath.sqrt(evaluate(z + h * _A40 * k0 + h * _A41 * k1
                            + h * _A42 * k2 + h * _A43 * k3))
    if v.real * wr + v.imag * wi < 0.0:
        v = -v
    k4 = 1j * v.conjugate() / abs(v)

    v = cmath.sqrt(evaluate(z + h * _A50 * k0 + h * _A51 * k1
                            + h * _A52 * k2 + h * _A53 * k3 + h * _A54 * k4))
    if v.real * wr + v.imag * wi < 0.0:
        v = -v
    k5 = 1j * v.conjugate() / abs(v)

    z5 = z + h * (0 + _B50 * k0 + _B51 * k1 + _B52 * k2 + _B53 * k3
                  + _B54 * k4 + _B55 * k5)
    w6 = cmath.sqrt(evaluate(z5))
    if w6.real * wr + w6.imag * wi < 0.0:
        w6 = -w6
    k6 = 1j * w6.conjugate() / abs(w6)
    z4 = z + h * (0 + _B40 * k0 + _B41 * k1 + _B42 * k2 + _B43 * k3
                  + _B44 * k4 + _B45 * k5 + _B46 * k6)
    return z5, abs(z5 - z4), w6, k6


def trace_stokes_line(poly: ComplexPolynomial, root_index: int, direction: float,
                      config: RunConfig = DEFAULT_CONFIG,
                      context: PolyContext | None = None):
    """Trace one Stokes line from a turning point.

    Returns (polyline, fate).  Terminates on: reaching another turning
    point within delta_hit (HitTurningPoint),
    leaving the escape radius moving outward (EscapedToRay; the final
    vertex is on the line and off the escape circle only by the
    projection's move, measured at most 1.3e-7 r_escape), or exceeding
    the length cap l_max (Truncated).  Tolerances and scales come from
    ``context``, which defaults to the context of ``poly`` under
    ``config``.  A trace that needs more than ``_MAX_STEP_ATTEMPTS`` step
    attempts, or a step below 1e-15 D, raises ``NumericalError`` naming
    the root, the launch direction and the arc length reached.
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
    r_escape = scales.r_escape
    atol = ctx.config.trace_tol * scales.d_unit
    drift_tol = 1e-13 * scales.d_unit

    polyline = [r0]
    drift = 0.0
    # put the launch point on the Re xi level of the root itself; the raw
    # offset point sits O(eps^{(m+4)/2}) off the separatrix, which is more
    # than a hit radius away once transported to the far endpoint
    head = integrate_chord_from_root(poly, locs, r0, ctx.mults[root_index],
                                     z, w, rel_tol=1e-12)
    z = z - head.real * w.conjugate() / (abs(w) ** 2)
    w = _branch_step(poly, w, z)
    k = 1j * w.conjugate() / abs(w)
    polyline.append(z)

    s_total = 0.0
    h = eps / 4.0
    exclusion = 12.0 * eps
    prev_dists: list[tuple[float, int, float]] = []

    # nearest turning point to the current vertex; rejected steps keep it
    near_idx, near_d = ctx.nearest_root(z)
    guard = 0
    while True:
        guard += 1
        if guard > _MAX_STEP_ATTEMPTS:
            raise NumericalError(
                f"trace from root {root_index} along {direction:.12g} "
                f"exceeded step budget at arc length {s_total:.6g}",
                residuals=[z])
        if s_total > exclusion or near_idx != root_index:
            if near_d <= delta_hit:
                polyline.append(locs[near_idx])
                return polyline, HitTurningPoint(near_idx, near_d)
        h = min(h, max(near_d, delta_hit) / 4.0)
        if h < 1e-15 * scales.d_unit:
            raise NumericalError(
                f"step-size underflow during trace from root {root_index} "
                f"along {direction:.12g} at arc length {s_total:.6g}",
                residuals=[z])
        z5, err, w6, k6 = _dp5_step(poly, z, w, k, h)
        if err > atol and h > 4e-15 * scales.d_unit:
            h *= max(0.2, 0.9 * (atol / max(err, 1e-300)) ** 0.2)
            continue
        # accept; an outward step past the escape circle ends on the
        # circle, projected onto the line
        if abs(z5) >= r_escape:
            if z5.real * k6.real + z5.imag * k6.imag > 0.0:
                z_land, w_land = _land_on_circle(poly, z, w, z5, r_escape)
                if z_land != z:
                    z_land = _project_landing(poly, z, w, z_land, w_land,
                                              drift, drift_tol)
                    polyline.append(z_land)
                ray = ctx.sectors.nearest_ray_index(cmath.phase(z_land))
                return polyline, EscapedToRay(ray, z_land)
        inc = _chord_re_integral(poly, z, w, z5, w6)
        drift += inc
        if abs(drift) > drift_tol:
            corr = -drift * w6.conjugate() / (abs(w6) ** 2)
            z5 = z5 + corr
            drift += (w6 * corr).real
            w6 = _branch_step(poly, w6, z5)
            k6 = 1j * w6.conjugate() / abs(w6)
        s_total += h
        z, w, k = z5, w6, k6
        polyline.append(z)
        if err > 0:
            h = h * min(5.0, max(0.2, 0.9 * (atol / err) ** 0.2))
        else:
            h = h * 5.0

        # distance local-minimum detection with quadratic interpolation
        near_idx, near_d = ctx.nearest_root(z)
        if not (s_total <= exclusion and near_idx == root_index):
            prev_dists.append((s_total, near_idx, near_d))
            if len(prev_dists) > 3:
                prev_dists.pop(0)
            if len(prev_dists) == 3:
                (s1, i1, d1), (s2, i2, d2), (s3, i3, d3) = prev_dists
                if i1 == i2 == i3 and d2 < d1 and d2 < d3:
                    dmin = _parabola_min(s1, d1, s2, d2, s3, d3)
                    if dmin <= delta_hit:
                        polyline.append(locs[i2])
                        return polyline, HitTurningPoint(i2, max(dmin, 0.0))
        else:
            prev_dists.clear()

        if s_total >= scales.l_max:
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
    """The point where the step chord from z_prev to z_over meets
    |z| = radius, and the branch of sqrt(P) there: z_prev + t (z_over -
    z_prev) with t the root in [0, 1] of |z_prev + t dz|^2 = radius^2,
    clamped to z_prev when that vertex is not inside the circle."""
    dz = z_over - z_prev
    a = dz.real * dz.real + dz.imag * dz.imag
    b = z_prev.real * dz.real + z_prev.imag * dz.imag
    r_prev = abs(z_prev)
    c = (r_prev - radius) * (r_prev + radius)
    if c >= 0.0:
        return z_prev, w_prev
    q = math.sqrt(b * b - a * c)
    # the larger root, in the form without cancellation
    t = min(-c / (b + q) if b > 0.0 else (q - b) / a, 1.0)
    z_land = z_prev + t * dz
    return z_land, _branch_step(poly, w_prev, z_land)


def _project_landing(poly, z, w, z_land, w_land, drift, drift_tol):
    """Move a landing vertex onto the Re xi level: Newton passes of the
    chord integral from the last vertex (z, w), which carries ``drift``,
    until the drift at the landing vertex is within ``drift_tol``.  The
    landing vertex sits on the step chord, off the curved line by up to
    the chord's sagitta, so one linear projection leaves a quadratic
    remainder; two or three passes clear it.  Where the rounding of a
    long chord's integral keeps the drift above ``drift_tol``, the passes
    stop once a correction no longer moves the vertex."""
    for _ in range(_LANDING_PASSES):
        dr = drift + _chord_re_integral(poly, z, w, z_land, w_land)
        if abs(dr) <= drift_tol:
            break
        z_next = z_land - dr * w_land.conjugate() / (abs(w_land) ** 2)
        if z_next == z_land:
            break
        z_land = z_next
        w_land = _branch_step(poly, w_land, z_land)
    return z_land


# --- graph assembly -----------------------------------------------------------

@dataclass(frozen=True)
class StokesEdge:
    """One edge of the Stokes graph.

    Finite edges carry both endpoint stubs (root index, local direction
    index); escaping edges carry the asymptotic ray index and end on the
    escape circle up to the landing's projection (see
    ``trace_stokes_line``).
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


def build_stokes_graph(poly: ComplexPolynomial,
                       config: RunConfig = DEFAULT_CONFIG) -> StokesGraph:
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
            pl, fate = trace_stokes_line(poly, ridx, theta, context=ctx)
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
