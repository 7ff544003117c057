"""Chopped vertical strips: the combinatorial shadow of a very flat
potential.

A chopped strip is d planar nodes with strictly increasing x and pairwise
distinct y, plus a vertical cut ray (up or down) at each interior node.
Node pairs whose open straight segment misses every cut correspond to the
short geodesics of a very flat differential, so counting them is exact
combinatorics: all predicates here run on rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .config import DEFAULT_CONFIG, RunConfig
from .domains import build_face_set, cross_strip, strip_width
from .errors import NonGenericError, StokesGeoError
from .polynomial import ComplexPolynomial, turning_points
from .tracer import build_stokes_graph


class ExactTieError(StokesGeoError):
    """A visibility predicate landed exactly on a cut base (collinear
    nodes); the input is not in general position."""


@dataclass(frozen=True)
class ChoppedStrip:
    """Nodes ordered by x; cuts[j] belongs to interior node j+1."""

    nodes: tuple[tuple[Fraction, Fraction], ...]
    cuts: tuple[str, ...]

    def __post_init__(self):
        nodes = tuple((Fraction(x), Fraction(y)) for x, y in self.nodes)
        object.__setattr__(self, "nodes", nodes)
        d = len(nodes)
        if d < 2:
            raise ValueError("need at least two nodes")
        xs = [x for x, _ in nodes]
        ys = [y for _, y in nodes]
        if any(xs[i] >= xs[i + 1] for i in range(d - 1)):
            raise ValueError("x coordinates must be strictly increasing")
        if len(set(ys)) != d:
            raise ValueError("y coordinates must be pairwise distinct")
        if len(self.cuts) != max(d - 2, 0):
            raise ValueError(f"expected {d - 2} cuts, got {len(self.cuts)}")
        if any(c not in ("up", "down") for c in self.cuts):
            raise ValueError("cuts must be 'up' or 'down'")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def to_json_obj(self) -> dict:
        return {"nodes": [[float(x), float(y)] for x, y in self.nodes],
                "cuts": list(self.cuts)}


def visible_pairs(strip: ChoppedStrip) -> list[tuple[int, int]]:
    """All node pairs whose open segment crosses no cut ray.

    A segment endpoint coinciding with a cut's base node does not block;
    a segment passing exactly through another cut base is a tie and is
    reported instead of silently resolved.
    """
    nodes = strip.nodes
    d = len(nodes)
    out = []
    for i in range(d):
        for j in range(i + 1, d):
            if not _blocked(nodes, strip.cuts, i, j):
                out.append((i, j))
    return out


def _blocked(nodes, cuts, i, j) -> bool:
    xi, yi = nodes[i]
    xj, yj = nodes[j]
    for k in range(1, len(nodes) - 1):
        if k == i or k == j:
            continue
        xk, yk = nodes[k]
        if not (xi < xk < xj):
            continue
        y_seg = yi + (yj - yi) * (xk - xi) / (xj - xi)
        if y_seg == yk:
            raise ExactTieError(
                f"segment {i}-{j} passes through the cut base at node {k}")
        direction = cuts[k - 1]
        if direction == "up" and y_seg > yk:
            return True
        if direction == "down" and y_seg < yk:
            return True
    return False


# --- realizing every admissible count ------------------------------------------

def realize_count(d: int, k: int) -> ChoppedStrip:
    """A chopped strip with exactly k visible pairs, d-1 <= k <= d(d-1)/2.

    Low counts come from induction: hide a fresh node behind a cut through
    the previous last node so only the new consecutive pair is visible.
    High counts use nodes on a rising concave chain (all pairs visible
    under upward cuts) with one downward cut whose blocking power is tuned
    by the height of the first node.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    if not (d - 1 <= k <= d * (d - 1) // 2):
        raise ValueError(f"k={k} outside [{d - 1}, {d * (d - 1) // 2}]")
    strip = _realize(d, k)
    got = len(visible_pairs(strip))
    if got != k:
        raise NonGenericError(
            f"construction for (d={d}, k={k}) produced {got} visible pairs")
    return strip


def _realize(d: int, k: int) -> ChoppedStrip:
    if d == 2:
        return ChoppedStrip(nodes=((Fraction(0), Fraction(0)),
                                   (Fraction(1), Fraction(1))), cuts=())
    if d == 3:
        if k == 2:
            return ChoppedStrip(nodes=((Fraction(0), Fraction(0)),
                                       (Fraction(1), Fraction(-1)),
                                       (Fraction(2), Fraction(1))),
                                cuts=("up",))
        return ChoppedStrip(nodes=((Fraction(0), Fraction(-4)),
                                   (Fraction(1), Fraction(-1)),
                                   (Fraction(2), Fraction(0))),
                            cuts=("up",))
    if k <= (d - 1) * (d - 2) // 2 + 1:
        return _append_hidden(_realize(d - 1, k - 1))
    return _concave_with_flip(d, d * (d - 1) // 2 - k)


def _append_hidden(strip: ChoppedStrip) -> ChoppedStrip:
    """Add one node behind an upward cut through the old last node; every
    segment from an earlier node to the new one crosses that cut, so
    exactly the new consecutive pair becomes visible."""
    nodes = list(strip.nodes)
    x_last, y_last = nodes[-1]
    x_new = x_last + 1
    bound = y_last
    for xi, yi in nodes[:-1]:
        # y_new making the segment (i, new) pass the old-last column at
        # exactly y_last; anything above blocks
        bound = max(bound, yi + (y_last - yi) * (x_new - xi) / (x_last - xi))
    y_new = bound + 1
    cuts = tuple(strip.cuts) + ("up",)
    # nudging upward preserves every blocking inequality, so break any
    # exact collinearity with earlier nodes by small rational shifts
    for attempt in range(64):
        candidate = ChoppedStrip(nodes=tuple(nodes + [(x_new, y_new)]),
                                 cuts=cuts)
        try:
            visible_pairs(candidate)
            return candidate
        except ExactTieError:
            y_new += Fraction(1, 997 + 2 * attempt)
    raise NonGenericError("could not break ties while appending a node")


def _concave_with_flip(d: int, kill: int) -> ChoppedStrip:
    """Rising concave chain y_j = -4^(d-1-j): chords pass below interior
    nodes, so upward cuts block nothing and all pairs are visible.
    Flipping the first interior cut downward blocks pairs from node 0;
    raising node 0 between consecutive blocking thresholds keeps exactly
    ``kill`` of them blocked.  The geometric growth keeps the concavity
    margins far above the threshold spread, so no other pair is
    disturbed."""
    if not (0 <= kill <= d - 3):
        raise ValueError("concave construction needs 0 <= kill <= d-3")
    ys = [-Fraction(4) ** (d - 1 - j) for j in range(d)]
    cuts = ["up"] * (d - 2)
    if kill == 0:
        return ChoppedStrip(nodes=tuple((Fraction(j), ys[j])
                                        for j in range(d)),
                            cuts=tuple(cuts))
    cuts[0] = "down"
    y1 = ys[1]
    # pair (0, l) is blocked by the downward cut at node 1 iff
    # y0 <= tau_l := (y1 * l - y_l) / (l - 1); tau_l increases with l
    taus = [(y1 * l - ys[l]) / (l - 1) for l in range(2, d)]
    l_star = d - 1 - kill          # block l = l_star + 1 .. d - 1
    lo = taus[l_star - 2]
    hi = taus[l_star - 1]
    y0 = (lo + hi) / 2
    for attempt in range(64):
        ys[0] = y0
        candidate = ChoppedStrip(nodes=tuple((Fraction(j), ys[j])
                                             for j in range(d)),
                                 cuts=tuple(cuts))
        try:
            visible_pairs(candidate)
            return candidate
        except (ExactTieError, ValueError):
            y0 = y0 + (hi - y0) / 7        # stay inside (lo, hi)
    raise NonGenericError("could not break ties in the concave construction")


# --- projection of a very flat potential ----------------------------------------

@dataclass(frozen=True)
class VeryFlatResult:
    flag: bool
    strip: ChoppedStrip | None
    reason: str


def is_very_flat(poly: ComplexPolynomial,
                 config: RunConfig = DEFAULT_CONFIG) -> VeryFlatResult:
    """Check the very-flat conditions and project to a chopped strip.

    Very flat: (a) all roots simple, (b) exactly d-1 strip domains,
    (c) every root on the closure of at most 2 strip domains.  The
    projection transports the canonical coordinate across each strip
    through its interior (no turning-point corners), normalizes each
    crossing to march rightward, and reads every cut direction off the
    transported image of the edge shared by consecutive strips.
    """
    d = poly.degree
    tps = turning_points(poly, config.root_tol)
    if not tps.all_simple:
        return VeryFlatResult(False, None, "repeated roots")
    graph = build_stokes_graph(poly, config)
    fs = build_face_set(graph)
    strips = fs.strips
    if len(strips) != d - 1:
        return VeryFlatResult(
            False, None, f"{len(strips)} strip domains (need {d - 1})")

    # roots per strip side; generic graphs have one root per side
    sides = []
    incidence: dict[int, list[int]] = {}
    for s_idx, dom in enumerate(strips):
        ra, rb = dom.boundary_roots
        if len(ra) != 1 or len(rb) != 1:
            return VeryFlatResult(False, None,
                                  "strip boundary with multiple roots")
        a, b = ra[0], rb[0]
        sides.append((a, b))
        incidence.setdefault(a, []).append(s_idx)
        incidence.setdefault(b, []).append(s_idx)
    if any(len(v) > 2 for v in incidence.values()):
        return VeryFlatResult(False, None,
                              "a root borders more than 2 strip domains")

    # the strip-adjacency graph must be a path visiting all d roots
    endpoints = [r for r, v in incidence.items() if len(v) == 1]
    if len(incidence) != d or len(endpoints) != 2:
        return VeryFlatResult(False, None, "strip adjacencies do not chain")
    start = min(endpoints, key=lambda r: (tps.locations[r].real,
                                          tps.locations[r].imag))
    chain = [start]
    chain_strips = []
    used = set()
    while len(chain_strips) < d - 1:
        cur = chain[-1]
        nxt_strip = None
        for s_idx in incidence[cur]:
            if s_idx not in used:
                nxt_strip = s_idx
                break
        if nxt_strip is None:
            return VeryFlatResult(False, None, "broken strip chain")
        used.add(nxt_strip)
        a, b = sides[nxt_strip]
        chain.append(b if a == cur else a)
        chain_strips.append(nxt_strip)

    try:
        nodes, cuts = _project_chain(graph, strips, chain, chain_strips,
                                     config)
    except StokesGeoError as exc:
        return VeryFlatResult(False, None, f"projection failed: {exc}")
    try:
        strip = ChoppedStrip(
            nodes=tuple((Fraction(x), Fraction(y)) for x, y in nodes),
            cuts=tuple(cuts))
    except ValueError as exc:
        return VeryFlatResult(False, None, f"degenerate projection: {exc}")
    return VeryFlatResult(True, strip, "very flat")


def _project_chain(graph, strips, chain, chain_strips, config):
    edges = graph.edges
    xs = [0.0]
    ys = [0.0]
    cuts = []
    for step, s_idx in enumerate(chain_strips):
        dom = strips[s_idx]
        r_from = chain[step]
        r_to = chain[step + 1]
        # edge of r_to shared with the next strip in the chain (the image
        # of that edge is the seam where consecutive strips touch)
        shared_edge = None
        if step + 1 < len(chain_strips):
            nxt = strips[chain_strips[step + 1]].edge_ids
            shared_edge = next(
                (e for e in dom.edge_ids
                 if e in nxt and r_to in (edges[e].origin, edges[e].target)),
                None)
            if shared_edge is None:
                raise NonGenericError(
                    f"no shared edge between consecutive strips at root {r_to}")
        delta, e_dir_im = cross_strip(graph, dom, r_from, r_to, config,
                                      exit_edge=shared_edge)
        if delta.real < 0:
            delta = -delta
            e_dir_im = -e_dir_im
        xs.append(xs[-1] + delta.real)
        ys.append(ys[-1] + delta.imag)
        if shared_edge is not None:
            # the exit-edge crossing against the strip's default crossing;
            # the last strip's crossing is a default crossing already
            width = strip_width(graph, dom, config)
            if abs(delta.real - width) > 1e-5 * (1.0 + width):
                raise NonGenericError(
                    "transported width disagrees with face width "
                    f"({abs(delta.real):.8f} vs {width:.8f})")
            # the shared seam leaves the node upward or downward; the cut
            # (the slit where two half-planes attach) is the opposite ray
            cuts.append("down" if e_dir_im > 0 else "up")
    nodes = list(zip(xs, ys))
    return nodes, cuts
