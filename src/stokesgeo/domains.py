"""Admissible domains: faces of the Stokes graph, half-plane/strip
classification, strip bases and their mutation walk, and weighted chord
diagrams.

The faces are read off the graph's combinatorics alone: the direction
index of each line at its root, the ray each escaping line runs out
along, and the complexes that finite edges join.  A walk around each
complex meets its escaping lines in cyclic order, and each consecutive
pair, on rays p and q, bounds one side of the complex's cell.  A face
with one end at infinity (half-plane type) is one cell's side on
neighbouring rays; a face with two ends squeezed onto Stokes rays (strip
type) is the side on rays p and q that two cells share.

A strip is crossed by ``cross_strip`` alone, from one of its boundary
roots to the other.  Near each root the walk takes one turning-point chord
into a disk that holds no other root, then follows the traced vertices of
a boundary edge to the ends of a straight segment inside the face.  It
passes no turning point, so it integrates the period of the strip's saddle
class, whose |Re| is the strip's width.

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
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import (IncompleteGraphError, NonGenericError, NumericalError,
                     in_context)
from .pathint import integrate_polyline, min_clearance
from .polynomial import PI, TWO_PI, ComplexPolynomial, wrap_positive
from .tracer import StokesGraph, build_stokes_graph


@dataclass(frozen=True)
class AdmissibleDomain:
    """One face of the Stokes graph.  ``edge_ids`` index into graph.edges,
    and ``incident_rays`` are the rays its ends run out along; for
    strips, ``boundary_roots`` lists the turning points on each of the
    two boundary components."""

    kind: str                      # "HalfPlane" | "Strip"
    edge_ids: tuple[int, ...]
    incident_rays: tuple[int, ...]
    boundary_roots: tuple[tuple[int, ...], tuple[int, ...]] | None = None


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


@dataclass
class FaceSet:
    graph: StokesGraph
    domains: list[AdmissibleDomain]

    @property
    def strips(self) -> list[AdmissibleDomain]:
        return [dom for dom in self.domains if dom.kind == "Strip"]


def build_face_set(graph: StokesGraph) -> FaceSet:
    """The faces of the Stokes graph, read off the cells of its complexes
    (``StokesGraph.complexes``).

    Each complex is walked around: at a root the walk turns
    counterclockwise from one line to the next (direction index k to
    k + 1, as ``emanating_directions`` numbers them), and along a finite
    edge it goes on at the far end's next line.  Between two escaping
    lines, on rays p and q, it walks one side (p, q) of the complex's
    cell.  A side on neighbouring rays that one cell owns is a half-plane,
    one on other rays that two cells own is a strip, and anything else
    raises NonGenericError.

    Along a side the walk passes the halves of the graph's edges, 2j along
    edge j from its origin and 2j + 1 back to it, each with the face on
    its left.  The faces come in order of their smallest half, and a
    strip's ``incident_rays`` and second ``boundary_roots`` are those of
    the side that holds it."""
    if graph.incomplete:
        raise IncompleteGraphError(
            "cannot enumerate faces of a graph with truncated trajectories")
    n_dirs = [m + 2 for _, m in graph.turning_points.points]
    ends = {}   # (root, direction index) -> (half out, half in, far end, ray)
    for j, e in enumerate(graph.edges):
        near = (e.origin, e.direction_index)
        stubs = [(near, 2 * j, 2 * j + 1, None, e.ray)]
        if e.kind == "finite":
            far = (e.target, e.target_direction_index)
            stubs = [(near, 2 * j, 2 * j + 1, far, None),
                     (far, 2 * j + 1, 2 * j, near, None)]
        for stub, *end in stubs:
            if stub in ends:
                raise NonGenericError(
                    f"two lines leave root {stub[0]} along its direction "
                    f"{stub[1]}")
            ends[stub] = end

    sides = {}  # rays {p, q} -> [(smallest half, p, q, roots, edge ids)]
    for roots in graph.complexes:
        walk, stub = [], (min(roots), 0)
        while stub not in walk:
            if stub not in ends:
                raise NonGenericError(
                    f"root {stub[0]} has no line along its direction "
                    f"{stub[1]}")
            walk.append(stub)
            r, k = ends[stub][2] or stub
            stub = (r, (k + 1) % n_dirs[r])
        escapes = [i for i, s in enumerate(walk) if ends[s][2] is None]
        if len(walk) < sum(n_dirs[r] for r in roots) or not escapes:
            raise NonGenericError(
                f"roots {sorted(roots)} bound a face with no end at infinity")
        walk = walk[escapes[0]:] + walk[:escapes[0] + 1]
        i0 = 0
        for i in range(1, len(walk)):
            if ends[walk[i]][2] is None:
                side = walk[i0:i + 1]
                halves = [ends[side[0]][0], *(ends[s][1] for s in side[1:])]
                p, q = ends[side[0]][3], ends[side[-1]][3]
                sides.setdefault(tuple(sorted((p, q))), []).append(
                    (min(halves), p, q, tuple(sorted({r for r, _ in side})),
                     {h // 2 for h in halves}))
                i0 = i

    n = len(graph.rays)
    faces = []
    for owners in sides.values():
        owners.sort()
        key, p, q, roots, _ = owners[0]
        half_plane = (q - p) % n in (1, n - 1)
        if p == q or len(owners) != (1 if half_plane else 2):
            raise NonGenericError(
                f"{len(owners)} cell side(s) run from ray {p} to ray {q}, "
                f"at roots {[o[3] for o in owners]}")
        faces.append((key, AdmissibleDomain(
            kind="HalfPlane" if half_plane else "Strip",
            edge_ids=tuple(sorted(set().union(*(o[4] for o in owners)))),
            incident_rays=(p, q),
            boundary_roots=None if half_plane else (owners[1][3], roots))))
    faces.sort(key=lambda face: face[0])
    return FaceSet(graph=graph, domains=[dom for _, dom in faces])


def _traced_chords(graph: StokesGraph):
    """The chords between consecutive traced vertices of the graph's
    edges, as arrays of their starts and ends."""
    return (np.concatenate([e.vertices[:-1] for e in graph.edges]),
            np.concatenate([e.vertices[1:] for e in graph.edges]))


def _segment_inside(za, zb, chords, locs, delta) -> bool:
    """Whether the segment za -> zb keeps 0.5 delta from the roots and
    properly crosses none of ``chords`` (starts, ends); a chord that
    touches it at za or zb does not cross it."""
    if min_clearance([za, zb], locs) < 0.5 * delta:
        return False
    a, b = chords

    def side(u, v, w):
        # the sign of the turn u -> v -> w, exactly 0 when w is u or v
        d, e = v - u, w - u
        return np.sign(d.real * e.imag - d.imag * e.real)

    return not np.any((side(za, zb, a) * side(za, zb, b) < 0)
                      & (side(a, b, za) * side(a, b, zb) < 0))


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
    with the nearest vertex b* of r_to's; the first pair, in order of the
    traced vertices walked, whose segment keeps clear of the roots and
    crosses no traced chord of the graph is used.  That segment lies in
    one face, which borders an edge of r_from and one of r_to; the other
    faces of those two edges differ, so it is the strip.

    Returns xi(r_to) - xi(r_from), the period of the strip's saddle class.
    """
    locs = graph.turning_points.locations
    at_roots = graph.turning_points.at_roots
    delta = graph.scales.delta_path
    froms = _edges_at(graph, r_from, dom.edge_ids)
    tos = _edges_at(graph, r_to, dom.edge_ids)

    # r_from's edges laid end to end through the root, as the strip's
    # side runs, and their vertices clear of the roots and the escape
    # circle
    za, a_edge, a_index = _vertex_table(froms, reverse_first=True)
    clear = np.flatnonzero(
        (np.abs(za[:, None] - np.array(locs)).min(axis=1) > 2.0 * delta)
        & (np.abs(za) < 0.98 * graph.scales.r_escape))
    zb, b_edge, b_index = _vertex_table(tos)

    # each clear vertex a* with the first of its nearest vertices b*, in
    # order of the traced vertices walked from the roots, max(i - k, 0) a
    # side
    near = np.abs(za[clear][:, None] - zb[None, :]).argmin(axis=1)
    chords = _traced_chords(graph)
    a_k = np.array([k for _, k in froms])[a_edge[clear]]
    b_k = np.array([k for _, k in tos])[b_edge[near]]
    walked = (np.maximum(a_index[clear] - a_k, 0)
              + np.maximum(b_index[near] - b_k, 0))
    for j in np.argsort(walked, kind="stable"):
        a, b = clear[j], near[j]
        (pa, ka), ia = froms[a_edge[a]], int(a_index[a])
        (pb, kb), ib = tos[b_edge[b]], int(b_index[b])
        if _segment_inside(pa[ia], pb[ib], chords, locs, delta):
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
        return wrap_positive(PI / 2 - cmath.phase(z))

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
