"""Admissible domains: faces of the Stokes graph, half-plane/strip
classification, strip widths, and weighted chord diagrams.

The plane is compactified to the disk |z| <= R_escape: escaping edges end
exactly on that circle, circle arcs between consecutive crossings close
the picture, and the faces of the resulting planar subdivision are the
admissible domains (plus one outer face, discarded).  A face meeting the
circle in one arc run opens into a single angular sector (half-plane
type); a face with two arc runs has two ends squeezed onto Stokes rays
(strip type).

Strip widths use the canonical chart: any path inside a face connects two
boundary points without winding around turning points, so the
branch-tracked integral of sqrt(P) between a vertex on each boundary
component has |Re| equal to the width of the strip's image.  It is
integrated once, on first read, not when the face set is built.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

from .config import DEFAULT_CONFIG, RunConfig
from .errors import IncompleteGraphError, NonGenericError
from .pathint import integrate_polyline, min_clearance
from .polynomial import ComplexPolynomial, wrap_positive
from .tracer import StokesGraph, build_stokes_graph

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class AdmissibleDomain:
    """One face of the subdivision.  ``edge_ids`` index into graph.edges;
    for strips, ``boundary_roots`` lists the turning points on each of the
    two boundary components, ``polygon`` is a sampled closed outline of
    the face (used for interior tests) and ``measure`` the width."""

    kind: str                      # "HalfPlane" | "Strip"
    edge_ids: tuple[int, ...]
    incident_rays: tuple[int, ...]
    boundary_roots: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    polygon: tuple[complex, ...] | None = None
    measure: Callable[[], float] | None = field(default=None, repr=False,
                                                compare=False)

    @cached_property
    def width(self) -> float | None:
        """A strip's width, integrated on first read; None otherwise."""
        return self.measure() if self.measure else None


@dataclass(frozen=True)
class ChordDiagram:
    """Strip domains of a generic potential as weighted chords of the
    (d+2)-gon of Stokes rays."""

    n_vertices: int
    chords: tuple[tuple[tuple[int, int], float], ...]


def chords_cross(n: int, a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Strict crossing of two chords of an n-gon; shared endpoints do not
    count as crossing."""
    a0, a1 = a
    b0, b1 = b
    if len({a0, a1, b0, b1}) < 4:
        return False

    def between(x, lo, hi):
        return (x - lo) % n < (hi - lo) % n and x != lo

    in0 = between(b0, a0, a1)
    in1 = between(b1, a0, a1)
    return in0 != in1


class _HalfEdge:
    __slots__ = ("tail", "head", "dep", "twin", "kind", "ref", "pline")

    def __init__(self, tail, head, dep, kind, ref, pline):
        self.tail = tail
        self.head = head
        self.dep = dep
        self.kind = kind      # "tree" | "arc"
        self.ref = ref        # graph edge index for tree halves
        self.pline = pline    # oriented vertex list (tree) or None (arc)
        self.twin = -1


@dataclass
class FaceSet:
    graph: StokesGraph
    domains: list[AdmissibleDomain]
    n_vertices: int
    n_edges: int
    n_faces: int              # including the outer face

    @property
    def strips(self) -> list[AdmissibleDomain]:
        return [dom for dom in self.domains if dom.kind == "Strip"]

    @property
    def half_planes(self) -> list[AdmissibleDomain]:
        return [dom for dom in self.domains if dom.kind == "HalfPlane"]


def _arc_samples(radius, b0, b1):
    span = (b1 - b0) % TWO_PI
    if span == 0.0:
        span = TWO_PI
    n = max(2, int(span / 0.08) + 1)
    return [radius * cmath.exp(1j * (b0 + span * k / n)) for k in range(n + 1)]


def build_face_set(graph: StokesGraph, config: RunConfig = DEFAULT_CONFIG) -> FaceSet:
    """Planar subdivision of the escape disk by the Stokes graph."""
    if graph.incomplete:
        raise IncompleteGraphError(
            "cannot enumerate faces of a graph with truncated trajectories")
    radius = graph.scales.r_escape
    locs = graph.turning_points.locations

    crossings = []   # (beta, graph edge index)
    for idx, e in enumerate(graph.edges):
        if e.kind == "escape":
            crossings.append((wrap_positive(cmath.phase(e.polyline[-1])), idx))
    crossings.sort()
    boundary_pos = {("b", k): radius * cmath.exp(1j * beta)
                    for k, (beta, _) in enumerate(crossings)}
    cross_vertex = {edge_idx: ("b", k)
                    for k, (_, edge_idx) in enumerate(crossings)}
    betas = [beta for beta, _ in crossings]

    halves: list[_HalfEdge] = []

    def add_pair(h1: _HalfEdge, h2: _HalfEdge):
        h1.twin = len(halves) + 1
        h2.twin = len(halves)
        halves.append(h1)
        halves.append(h2)

    for idx, e in enumerate(graph.edges):
        pl = list(e.polyline)
        if e.kind == "finite":
            u, v = ("r", e.origin), ("r", e.target)
            dep_f = cmath.phase(pl[1] - pl[0])
            dep_b = cmath.phase(pl[-2] - pl[-1])
            add_pair(_HalfEdge(u, v, dep_f, "tree", idx, pl),
                     _HalfEdge(v, u, dep_b, "tree", idx, pl[::-1]))
        elif e.kind == "escape":
            u, v = ("r", e.origin), cross_vertex[idx]
            dep_f = cmath.phase(pl[1] - pl[0])
            dep_b = cmath.phase(pl[-2] - pl[-1])
            add_pair(_HalfEdge(u, v, dep_f, "tree", idx, pl),
                     _HalfEdge(v, u, dep_b, "tree", idx, pl[::-1]))

    m = len(crossings)
    for k in range(m):
        k2 = (k + 1) % m
        b0, b1 = betas[k], betas[k2]
        # ref = (arc start index, arc end index, orientation)
        ccw = _HalfEdge(("b", k), ("b", k2), b0 + math.pi / 2, "arc",
                        (k, k2, +1), None)
        cw = _HalfEdge(("b", k2), ("b", k), b1 - math.pi / 2, "arc",
                       (k, k2, -1), None)
        add_pair(ccw, cw)

    # rotation system: outgoing half-edges sorted CCW at each vertex
    rotation: dict = {}
    for hid, h in enumerate(halves):
        rotation.setdefault(h.tail, []).append(hid)
    for vid, lst in rotation.items():
        lst.sort(key=lambda hid: wrap_positive(halves[hid].dep))

    def next_in_face(hid: int) -> int:
        h = halves[hid]
        lst = rotation[h.head]
        pos = lst.index(h.twin)
        return lst[pos - 1]

    faces = []
    seen = [False] * len(halves)
    for start in range(len(halves)):
        if seen[start]:
            continue
        cycle = []
        hid = start
        guard = 0
        while True:
            guard += 1
            if guard > len(halves) + 4:
                raise NonGenericError("face walk failed to close")
            seen[hid] = True
            cycle.append(hid)
            hid = next_in_face(hid)
            if hid == start:
                break
        faces.append(cycle)

    def face_polygon(cycle):
        pts = []
        for hid in cycle:
            h = halves[hid]
            if h.kind == "tree":
                pts.extend(h.pline[:-1])
            else:
                k0, k1, orient = h.ref
                samples = _arc_samples(radius, betas[k0], betas[k1])
                if orient < 0:
                    samples = samples[::-1]
                pts.extend(samples[:-1])
        return pts

    def signed_area(pts):
        acc = 0.0
        for i in range(len(pts)):
            a, b = pts[i], pts[(i + 1) % len(pts)]
            acc += a.real * b.imag - a.imag * b.real
        return 0.5 * acc

    domains = []
    n_interior = 0
    for cycle in faces:
        poly_pts = face_polygon(cycle)
        if signed_area(poly_pts) <= 0.0:
            continue   # outer face
        n_interior += 1
        dom = _classify_face(graph, halves, betas, cycle, poly_pts, config)
        domains.append(dom)

    n_vertices = len(locs) + m
    n_edges = len(halves) // 2
    n_faces = len(faces)
    return FaceSet(graph=graph, domains=domains, n_vertices=n_vertices,
                   n_edges=n_edges, n_faces=n_faces)


def _cyclic_runs(flags):
    """Maximal cyclic runs of True values; returns list of index lists."""
    n = len(flags)
    if all(flags):
        return [list(range(n))]
    if not any(flags):
        return []
    start = 0
    while flags[start]:
        start += 1
    runs = []
    cur = None
    for off in range(n):
        i = (start + off) % n
        if flags[i]:
            if cur is None:
                cur = []
            cur.append(i)
        else:
            if cur is not None:
                runs.append(cur)
                cur = None
    if cur is not None:
        runs.append(cur)
    return runs


def _classify_face(graph, halves, betas, cycle, poly_pts, config):
    is_arc = [halves[hid].kind == "arc" for hid in cycle]
    runs = _cyclic_runs(is_arc)
    tree_ids = tuple(sorted({halves[hid].ref for hid in cycle
                             if halves[hid].kind == "tree"}))
    if len(runs) == 0:
        raise NonGenericError("bounded admissible domain encountered")
    if len(runs) > 2:
        raise NonGenericError(
            f"face with {len(runs)} ends at infinity (expected 1 or 2)")

    def run_rays(run):
        # interior faces traverse the circle counterclockwise, so the run
        # covers the CCW interval from its first tail to its last head
        first = halves[cycle[run[0]]]
        last = halves[cycle[run[-1]]]
        b_start = betas[first.tail[1]]
        b_end = betas[last.head[1]]
        span = (b_end - b_start) % TWO_PI
        mid = b_start + 0.5 * span
        return (graph.sectors.nearest_ray_index(b_start),
                graph.sectors.nearest_ray_index(b_end),
                graph.sectors.nearest_ray_index(mid))

    if len(runs) == 1:
        r_start, r_end, _ = run_rays(runs[0])
        return AdmissibleDomain(kind="HalfPlane", edge_ids=tree_ids,
                                incident_rays=(r_start, r_end),
                                polygon=tuple(poly_pts))

    # strip: two ends; each arc run straddles a single ray
    _, _, ray_a = run_rays(runs[0])
    _, _, ray_b = run_rays(runs[1])
    # boundary components: tree runs between the arc runs
    arc_flags = is_arc
    comp_roots = []
    comp_plines = []
    n = len(cycle)
    for run, other in ((runs[0], runs[1]), (runs[1], runs[0])):
        i = (run[-1] + 1) % n
        roots = []
        plines = []
        while not arc_flags[i]:
            h = halves[cycle[i]]
            plines.append(h.pline)
            if h.tail[0] == "r":
                roots.append(h.tail[1])
            if h.head[0] == "r":
                roots.append(h.head[1])
            i = (i + 1) % n
        comp_roots.append(tuple(sorted(set(roots))))
        comp_plines.append(plines)
    return AdmissibleDomain(
        kind="Strip", edge_ids=tree_ids, incident_rays=(ray_a, ray_b),
        boundary_roots=(comp_roots[0], comp_roots[1]), polygon=tuple(poly_pts),
        measure=partial(_strip_width, graph, *comp_plines, poly_pts, config))


def _point_in_polygon(pts, z: complex) -> bool:
    inside = False
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        if (a.imag > z.imag) != (b.imag > z.imag):
            x = a.real + (z.imag - a.imag) * (b.real - a.real) / (b.imag - a.imag)
            if x > z.real:
                inside = not inside
    return inside


def _strip_width(graph, side_a, side_b, poly_pts, config) -> float:
    """|Re| of the branch-tracked integral of sqrt(P) along an in-face path
    joining the two boundary components, endpoints on traced vertices."""
    poly = graph.poly
    locs = graph.turning_points.locations
    va = [z for pl in side_a for z in pl]
    vb = [z for pl in side_b for z in pl]
    delta = graph.scales.delta_path

    def interior_vertices(chain):
        good = [z for z in chain
                if min(abs(z - r) for r in locs) > 2.0 * delta
                and abs(z) < 0.98 * graph.scales.r_escape]
        if not good:
            good = chain
        idxs = [len(good) // 2, len(good) // 4, (3 * len(good)) // 4,
                len(good) // 8, (7 * len(good)) // 8]
        return [good[i] for i in sorted(set(min(i, len(good) - 1) for i in idxs))]

    candidates = []
    for za in interior_vertices(va):
        zb = min(vb, key=lambda q: abs(q - za))
        candidates.append((abs(zb - za), za, zb))
    candidates.sort(key=lambda c: c[0])

    for _, za, zb in candidates:
        if _segment_inside(za, zb, poly_pts, locs, delta):
            (val,), _, _ = integrate_polyline(poly, locs, [za, zb],
                                              rel_tol=config.quad_rel_tol)
            return abs(val.real)
    raise NonGenericError(
        "no straight in-face segment joins the two sides of a strip")


def _segment_inside(za, zb, poly_pts, locs, delta) -> bool:
    if min_clearance([za, zb], locs) < 0.5 * delta:
        return False
    for k in range(1, 24):
        z = za + (zb - za) * k / 24.0
        if not _point_in_polygon(poly_pts, z):
            return False
    return True


def _boundary_edge(graph: StokesGraph, dom: AdmissibleDomain, root: int) -> int:
    """The lowest-indexed edge of ``dom``'s boundary that ends at ``root``."""
    return next(e for e in dom.edge_ids
                if root in (graph.edges[e].origin, graph.edges[e].target))


def cross_strip(graph: StokesGraph, dom: AdmissibleDomain, r_from: int,
                r_to: int, config: RunConfig = DEFAULT_CONFIG,
                exit_edge: int | None = None):
    """Transport the canonical coordinate from r_from to r_to through one
    strip: out along r_from's boundary edge, straight across the face
    interior, and back along the exit edge (default r_to's boundary edge),
    in one walk.  No turning point is passed, so the branch is unambiguous
    given the anchor seed.

    Returns (xi(r_to) - xi(r_from), Im[xi(b*) - xi(r_to)]) where b* is the
    crossing's landing vertex on the exit edge; the first is the period of
    the strip's standard saddle class, the imaginary part gives the chart
    direction in which the exit edge leaves the node.
    """
    locs = graph.turning_points.locations
    mults = [m for _, m in graph.turning_points.points]
    if exit_edge is None:
        exit_edge = _boundary_edge(graph, dom, r_to)
    e_in = graph.edges[_boundary_edge(graph, dom, r_from)]
    e_out = graph.edges[exit_edge]
    pl_in = list(e_in.polyline)
    if e_in.origin != r_from:
        pl_in = pl_in[::-1]
    pl_out = list(e_out.polyline)
    if e_out.origin != r_to:
        pl_out = pl_out[::-1]

    face_pts = list(dom.polygon or ())
    if not face_pts:
        raise NonGenericError("strip face polygon unavailable")

    best = None
    n_in = len(pl_in)
    n_out = len(pl_out)
    for fa in (0.5, 0.3, 0.7, 0.15, 0.85):
        ia = max(1, min(n_in - 1, int(fa * n_in)))
        a_star = pl_in[ia]
        for fb in (0.5, 0.3, 0.7, 0.15, 0.85):
            ib = max(1, min(n_out - 1, int(fb * n_out)))
            b_star = pl_out[ib]
            if _segment_inside(a_star, b_star, face_pts, locs,
                               graph.scales.delta_path):
                best = (ia, ib)
                break
        if best:
            break
    if best is None:
        raise NonGenericError("no interior crossing segment found")
    ia, ib = best

    # out along the entry edge to a*, straight across the face to b*, then
    # back along the exit edge to r_to; running[ia] ends at b*
    (delta,), _, running = integrate_polyline(
        graph.poly, locs, pl_in[:ia + 1] + pl_out[ib::-1],
        rel_tol=config.quad_rel_tol, start=(locs[r_from], mults[r_from]),
        end=(locs[r_to], mults[r_to]))
    return delta, (running[ia][0] - delta).imag


def admissible_domains(graph: StokesGraph,
                       config: RunConfig = DEFAULT_CONFIG) -> list[AdmissibleDomain]:
    """Faces of the completed Stokes graph, classified by type."""
    return build_face_set(graph, config).domains


def chord_diagram(poly: ComplexPolynomial,
                  config: RunConfig = DEFAULT_CONFIG) -> tuple[ChordDiagram, ChordDiagram]:
    """Weighted chord diagrams of the Stokes graph and of the graph of the
    quarter-turn rotation (whose trajectories are the orthogonal family).

    Requires genericity: exactly d-1 strip domains on both sides.
    """
    d = poly.degree
    out = []
    for member in (poly, poly.rotate(math.pi / 2)):
        graph = build_stokes_graph(member, config)
        fs = build_face_set(graph, config)
        strips = fs.strips
        if len(strips) != d - 1:
            raise NonGenericError(
                f"expected {d - 1} strip domains, found {len(strips)} "
                "(non-generic potential)")
        chords = []
        for dom in strips:
            i, j = dom.incident_rays
            if graph.sectors.are_neighboring_rays(i, j):
                raise NonGenericError(
                    f"strip attached to neighboring rays {i}, {j}")
            if not dom.width or dom.width <= 0:
                raise NonGenericError("strip with nonpositive width")
            chords.append(((min(i, j), max(i, j)), dom.width))
        chords.sort()
        diagram = ChordDiagram(n_vertices=d + 2, chords=tuple(chords))
        for a in range(len(chords)):
            for b in range(a + 1, len(chords)):
                if chords_cross(d + 2, chords[a][0], chords[b][0]):
                    raise NonGenericError(
                        f"crossing chords {chords[a][0]} and {chords[b][0]}")
        out.append(diagram)
    return out[0], out[1]
