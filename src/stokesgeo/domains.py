"""Admissible domains: faces of the Stokes graph, half-plane/strip
classification, strip widths, strip bases and their mutation walk, and
weighted chord diagrams.

The plane is compactified to the disk |z| <= R_escape: escaping edges end
on that circle (to rounding; only the phase of an end is read), circle
arcs between consecutive crossings close the picture, and the faces of
the resulting planar subdivision are the admissible domains, plus the
outer face, which runs around the circle on clockwise arcs alone and is
discarded.  A face meeting the circle in one arc run opens into a single
angular sector (half-plane type); a face with two arc runs has two ends
squeezed onto Stokes rays (strip type).

A strip is crossed by ``cross_strip`` alone, from one of its boundary
roots to the other.  Near each root the walk takes one turning-point chord
into a disk that holds no other root, then follows the traced vertices of
a boundary edge to the ends of a straight segment inside the face.  It
passes no turning point, so it integrates the period of the strip's saddle
class, whose |Re| is the strip's width (``strip_width``).

A generic graph has d-1 strips.  Their chords triangulate the (d+2)-gon
of Stokes rays, and their periods Z_s, taken with Re Z_s > 0, are a basis
of the saddle classes (``strip_basis``).  As e^{2it} P turns, the strips
change only by flips of that triangulation, each when a basis class turns
vertical; ``mutation_walk`` follows them from the periods and the exchange
matrix alone (Bridgeland-Smith, arXiv:1302.7030).  The survey walks a
half-turn from a generic start; ``chord_diagram`` traces the graph at
t = 0 and walks a quarter-turn to the orthogonal family's diagram; and
``strips.is_very_flat`` chains the strips at t = 0 into a chopped strip.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import (IncompleteGraphError, NonGenericError, NumericalError,
                     in_context)
from .pathint import integrate_polyline, min_clearance
from .polynomial import ComplexPolynomial, wrap_positive
from .tracer import StokesGraph, build_stokes_graph

PI = math.pi
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class AdmissibleDomain:
    """One face of the subdivision.  ``edge_ids`` index into graph.edges;
    for strips, ``boundary_roots`` lists the turning points on each of the
    two boundary components and ``polygon`` is a sampled closed outline
    of the face (used for interior tests)."""

    kind: str                      # "HalfPlane" | "Strip"
    edge_ids: tuple[int, ...]
    incident_rays: tuple[int, ...]
    boundary_roots: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    polygon: tuple[complex, ...] | None = None


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


def _arc_samples(radius, b0, span):
    """Points of the counterclockwise arc of ``span`` rad from phase b0 on
    the circle of ``radius``, both ends included."""
    n = max(2, int(span / 0.08) + 1)
    return [radius * cmath.exp(1j * (b0 + span * k / n)) for k in range(n + 1)]


def build_face_set(graph: StokesGraph) -> FaceSet:
    """Planar subdivision of the escape disk by the Stokes graph, from its
    edges' vertices (``StokesEdge.vertices``): the lines at a root are
    ordered by the directions to their second vertices, a face's outline
    runs along the vertices, and each arc between two ends on the escape
    circle spans their phase difference, none for two ends at one phase
    and the whole circle for a lone end."""
    if graph.incomplete:
        raise IncompleteGraphError(
            "cannot enumerate faces of a graph with truncated trajectories")
    radius = graph.scales.r_escape
    locs = graph.turning_points.locations

    crossings = []   # (beta, graph edge index)
    for idx, e in enumerate(graph.edges):
        if e.kind == "escape":
            crossings.append((wrap_positive(cmath.phase(e.vertices[-1])), idx))
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
        pl = list(e.vertices)
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
                # two ends at one phase span no arc; one end alone, all of it
                span = (TWO_PI if k0 == k1
                        else (betas[k1] - betas[k0]) % TWO_PI)
                samples = _arc_samples(radius, betas[k0], span)
                if orient < 0:
                    samples = samples[::-1]
                pts.extend(samples[:-1])
        return pts

    domains = []
    for cycle in faces:
        # the outer face runs around the circle on the clockwise arcs alone
        if all(halves[hid].kind == "arc" and halves[hid].ref[2] < 0
               for hid in cycle):
            continue
        domains.append(_classify_face(graph, halves, betas, cycle,
                                      face_polygon(cycle)))

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


def _classify_face(graph, halves, betas, cycle, poly_pts):
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
    comp_roots = []
    n = len(cycle)
    for run in runs:
        i = (run[-1] + 1) % n
        roots = set()
        while not is_arc[i]:
            h = halves[cycle[i]]
            roots.update(v[1] for v in (h.tail, h.head) if v[0] == "r")
            i = (i + 1) % n
        comp_roots.append(tuple(sorted(roots)))
    return AdmissibleDomain(
        kind="Strip", edge_ids=tree_ids, incident_rays=(ray_a, ray_b),
        boundary_roots=(comp_roots[0], comp_roots[1]), polygon=tuple(poly_pts))


def _segment_inside(za, zb, poly_pts, locs, delta) -> bool:
    """Whether the segment za -> zb keeps 0.5 delta from the roots and its
    points za + (zb - za) k/24, k = 1..23, lie inside the closed outline
    ``poly_pts`` (odd number of outline edges crossed by the ray in +x)."""
    if min_clearance([za, zb], locs) < 0.5 * delta:
        return False
    pts = [za + (zb - za) * k / 24.0 for k in range(1, 24)]
    lo = min(z.imag for z in pts)
    hi = max(z.imag for z in pts)
    # an edge whose ends both lie above hi, or both at or below lo, spans
    # none of the points' heights
    edges = [(a, b) for a, b in zip(poly_pts, poly_pts[1:] + poly_pts[:1])
             if (a.imag <= hi or b.imag <= hi)
             and (a.imag > lo or b.imag > lo)]
    for z in pts:
        inside = False
        for a, b in edges:
            if (a.imag > z.imag) != (b.imag > z.imag):
                x = (a.real + (z.imag - a.imag) * (b.real - a.real)
                     / (b.imag - a.imag))
                if x > z.real:
                    inside = not inside
        if not inside:
            return False
    return True


def _edges_at(graph: StokesGraph, root: int, edge_ids):
    """Each of the edges ``edge_ids`` that ends at ``root`` as (pl, k): the
    edge's vertices pl ordered outward from the root, and the index k of
    the last vertex before pl first leaves the root's reach
    (``SeriesAtRoot.reach``, half the distance to the nearest other root;
    k >= 1), so that a chord from the root to pl[k] integrates on the
    root's series unsplit.  A walk from the root reaches pl[i] by one chord
    to pl[min(i, k)] and then the traced vertices; (pl, k, i) is that
    walk's stop."""
    radius = graph.turning_points.at_roots[root].reach
    out = []
    for e in (graph.edges[j] for j in edge_ids):
        if root not in (e.origin, e.target):
            continue
        pl = e.vertices if e.origin == root else e.vertices[::-1]
        k = 1
        while k + 1 < len(pl) and abs(pl[k + 1] - pl[0]) <= radius:
            k += 1
        out.append((pl, k))
    return out


def _vertex_table(edges, reverse_first=False):
    """The traced vertices pl[1:] of ``edges`` laid end to end (the first
    edge's taken back toward the root when ``reverse_first``): their
    points, and the edge and index i of each."""
    index = [np.arange(1, len(pl)) for pl, _ in edges]
    if reverse_first:
        index[0] = index[0][::-1]
    return (np.concatenate([np.asarray(pl)[i]
                            for (pl, _), i in zip(edges, index)]),
            np.concatenate([np.full(len(i), e) for e, i in enumerate(index)]),
            np.concatenate(index))


def cross_strip(graph: StokesGraph, dom: AdmissibleDomain, r_from: int,
                r_to: int, config: RunConfig = DEFAULT_CONFIG) -> complex:
    """Transport the canonical coordinate from r_from to r_to through one
    strip, in one walk that passes no turning point.

    From each root, one chord runs to the last traced vertex of a boundary
    edge that lies within half the root's distance to its nearest other
    root; chord and skipped edge piece share a disk with no other root, so
    they give the same integral.  The walk then follows the edge's traced
    vertices to a*, crosses the face on the straight segment a* -> b*, and
    follows r_to's edge back.  The a* are the traced vertices of r_from's
    boundary edges clear of the roots and the escape circle, each paired
    with the nearest vertex b* of r_to's; the first pair whose segment
    lies inside the face, in order of the traced vertices walked, is used.

    Returns xi(r_to) - xi(r_from), the period of the strip's saddle class.
    """
    locs = graph.turning_points.locations
    at_roots = graph.turning_points.at_roots
    delta = graph.scales.delta_path
    froms = _edges_at(graph, r_from, dom.edge_ids)
    tos = _edges_at(graph, r_to, dom.edge_ids)

    # r_from's edges laid end to end through the root, as in the face
    # outline, and their vertices clear of the roots and the escape circle
    za, a_edge, a_index = _vertex_table(froms, reverse_first=True)
    clear = np.flatnonzero(
        (np.abs(za[:, None] - np.array(locs)).min(axis=1) > 2.0 * delta)
        & (np.abs(za) < 0.98 * graph.scales.r_escape))
    zb, b_edge, b_index = _vertex_table(tos)

    # each clear vertex a* with the first of its nearest vertices b*, in
    # order of the traced vertices walked from the roots, max(i - k, 0) a
    # side
    near = np.abs(za[clear][:, None] - zb[None, :]).argmin(axis=1)
    a_k = np.array([k for _, k in froms])[a_edge[clear]]
    b_k = np.array([k for _, k in tos])[b_edge[near]]
    walked = (np.maximum(a_index[clear] - a_k, 0)
              + np.maximum(b_index[near] - b_k, 0))
    for j in np.argsort(walked, kind="stable"):
        a, b = clear[j], near[j]
        (pa, ka), ia = froms[a_edge[a]], int(a_index[a])
        (pb, kb), ib = tos[b_edge[b]], int(b_index[b])
        if _segment_inside(pa[ia], pb[ib], dom.polygon, locs, delta):
            break
    else:
        raise NonGenericError(
            f"no interior crossing segment found in the strip between roots "
            f"{r_from} at {locs[r_from]:.6g} and {r_to} at "
            f"{locs[r_to]:.6g} (incident rays {dom.incident_rays})")

    head = [locs[r_from], *pa[min(ia, ka):ia + 1]]
    tail = [locs[r_to], *pb[min(ib, kb):ib + 1]]
    (period,), _, _ = integrate_polyline(
        graph.poly, locs, head + tail[::-1], rel_tol=config.quad_rel_tol,
        start=at_roots[r_from], end=at_roots[r_to])
    return period


def strip_width(graph: StokesGraph, dom: AdmissibleDomain,
                config: RunConfig = DEFAULT_CONFIG) -> float:
    """The width of a strip: |Re| of its crossing's period."""
    (r_from, *_), (r_to, *_) = dom.boundary_roots
    return abs(cross_strip(graph, dom, r_from, r_to, config).real)


def admissible_domains(graph: StokesGraph) -> list[AdmissibleDomain]:
    """Faces of the completed Stokes graph, classified by type."""
    return build_face_set(graph).domains


# --- strip bases and their mutation walk -------------------------------------

def _exchange_matrix(n: int, chords):
    """Exchange matrix of the triangulation of the n-gon by ``chords``:
    B[x][y] = +1 when side y follows side x in the cyclic order (p, q),
    (q, r), (r, p) of a triangle p < q < r, summed over triangles.
    Raises NonGenericError when the chords cross or do not triangulate."""
    for a in range(len(chords)):
        for b in range(a + 1, len(chords)):
            if chords_cross(n, chords[a], chords[b]):
                raise NonGenericError(
                    f"crossing chords {chords[a]} and {chords[b]}")
    index = {chord: k for k, chord in enumerate(chords)}
    B = [[0] * len(chords) for _ in chords]
    triangles = 0
    for p in range(n):
        for q in range(p + 1, n):
            for r in range(q + 1, n):
                sides = ((p, q), (q, r), (p, r))
                if not all(s in index or s[1] - s[0] in (1, n - 1)
                           for s in sides):
                    continue
                triangles += 1
                for x, y in ((0, 1), (1, 2), (2, 0)):
                    if sides[x] in index and sides[y] in index:
                        B[index[sides[x]]][index[sides[y]]] += 1
                        B[index[sides[y]]][index[sides[x]]] -= 1
    if triangles != n - 2:
        raise NonGenericError(
            f"strip chords {sorted(chords)} do not triangulate the {n}-gon")
    return B


def strip_basis(poly: ComplexPolynomial, t0: float, config: RunConfig):
    """(sides, periods, chords, B) of the strip decomposition of e^{2it0} P:
    the boundary roots of each strip, the period of its saddle class with
    Re > 0, its chord of the (d+2)-gon of Stokes rays, and the exchange
    matrix.  Raises NonGenericError when the decomposition is not
    generic."""
    graph = build_stokes_graph(poly.rotate(t0), config)
    strips = build_face_set(graph).strips
    d = poly.degree
    if len(strips) != d - 1:
        raise NonGenericError(f"{len(strips)} strip domains, need {d - 1}")
    sides, periods = [], []
    for dom in strips:
        ra, rb = dom.boundary_roots
        if len(ra) != 1 or len(rb) != 1:
            raise NonGenericError(f"strip sides with roots {ra}, {rb}")
        z = cross_strip(graph, dom, ra[0], rb[0], config)
        if z.real == 0:
            raise NonGenericError(
                f"strip between roots {ra[0]} and {rb[0]} has zero width")
        sides.append((ra[0], rb[0]))
        periods.append(z if z.real > 0 else -z)
    chords = [tuple(sorted(dom.incident_rays)) for dom in strips]
    return sides, periods, chords, _exchange_matrix(d + 2, chords)


def _mutate(B, k: int):
    """Matrix mutation of B at k."""
    m = len(B)
    return [[-B[i][j] if k in (i, j) else
             B[i][j] + (abs(B[i][k]) * B[k][j] + B[i][k] * abs(B[k][j])) // 2
             for j in range(m)] for i in range(m)]


def mutation_walk(periods, B, stop: float):
    """The mutation walk of a strip basis from its angle t0 to t0 + stop.

    Turning t by T turns every period by e^{iT}.  A class n turns vertical
    at its exit time T = pi/2 - arg sum n_s Z_s; when basis class k does,
    its strip flips, and the basis mutates (gamma_k -> -gamma_k, gamma_j
    -> gamma_j + [-B_jk]_+ gamma_k), and so does B.  Returns (states,
    basis): (T, k, class) for each class that leaves before ``stop``, in
    order of T, and the basis at ``stop``; a class is an integer vector
    over the starting strips."""
    m = len(periods)

    def exit_time(n):
        z = sum(c * p for c, p in zip(n, periods))
        return (PI / 2 - cmath.phase(z)) % TWO_PI

    basis = [tuple(int(i == k) for i in range(m)) for k in range(m)]
    states = []
    while m:
        times = [exit_time(n) for n in basis]
        k = min(range(m), key=times.__getitem__)
        if times[k] >= stop:
            break
        if len(states) == m * (m + 1) // 2:
            raise NumericalError(
                f"mutation walk to {stop:.12f} leaves more than "
                f"{len(states)} classes")
        gk = basis[k]
        states.append((times[k], k, gk))
        basis = [tuple(-x for x in gk) if j == k else
                 tuple(x + max(-B[j][k], 0) * y for x, y in zip(n, gk))
                 for j, n in enumerate(basis)]
        B = _mutate(B, k)
    return states, basis


def _flip(n: int, chords, k: int) -> tuple[int, int]:
    """Chord k of a triangulation of the n-gon flipped: the other diagonal
    of the quadrilateral that its two triangles form."""
    edges = set(chords)

    def joined(p, q):
        return (min(p, q), max(p, q)) in edges or (p - q) % n in (1, n - 1)

    a, b = chords[k]
    c, e = [v for v in range(n)
            if v not in (a, b) and joined(a, v) and joined(b, v)]
    return (c, e)


def chord_diagram(poly: ComplexPolynomial,
                  config: RunConfig = DEFAULT_CONFIG) -> tuple[ChordDiagram, ChordDiagram]:
    """Weighted chord diagrams of the Stokes graph and of the graph of the
    quarter-turn rotation (whose trajectories are the orthogonal family).

    One graph is traced, at t = 0.  Its strip basis gives the Stokes
    diagram: each strip's chord, weighted by its width Re Z_s.  The
    basis's mutation walk to pi/2 gives the other: each class that leaves
    flips its chord, the chords are renumbered by the rays of e^{i pi} P,
    and each is weighted by |Im sum n_s Z_s| of its class at pi/2.

    Raises NonGenericError when the decomposition at t = 0 is not generic
    (other than d-1 strips, crossing chords or chords between neighbouring
    rays), or when a class leaves within 1e-9 of pi/2, where the
    quarter-turn graph has a saddle connection.  A NumericalError from the
    strip basis is raised again as "strip basis at t=0: ...", keeping its
    residuals.
    """
    n = poly.degree + 2
    try:
        _, periods, chords, B = strip_basis(poly, 0.0, config)
    except NumericalError as exc:
        raise in_context(exc, "strip basis at t=0") from exc
    stokes = sorted(zip(chords, (z.real for z in periods)))
    states, basis = mutation_walk(periods, B, PI / 2 + 1e-9)
    for T, k, n_k in states:
        if T > PI / 2 - 1e-9:
            raise NonGenericError(
                f"class {n_k} of chord {chords[k]} leaves at t = {T:.12f}, "
                "within 1e-9 of the quarter turn")
        chords[k] = _flip(n, chords, k)
    # the walk numbers the rays of e^{2it} P from arg a0 + 2t; the graph of
    # e^{i pi} P from that angle at t = pi/2 wrapped to (-pi, pi]
    shift = round((poly.phi0 + PI - poly.rotate(PI / 2).phi0) / TWO_PI)
    anti = sorted((tuple(sorted((v - shift) % n for v in chord)),
                   abs(sum(c * p for c, p in zip(n_k, periods)).imag))
                  for chord, n_k in zip(chords, basis))
    return (ChordDiagram(n_vertices=n, chords=tuple(stokes)),
            ChordDiagram(n_vertices=n, chords=tuple(anti)))
