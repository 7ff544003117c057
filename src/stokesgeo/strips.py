"""Chopped vertical strips: the combinatorial shadow of a very flat
potential.

A chopped strip is d planar nodes with strictly increasing x and pairwise
distinct y, plus a vertical cut ray (up or down) at each interior node.
Node pairs whose open straight segment misses every cut correspond to the
short geodesics of a very flat differential, so counting them is exact
combinatorics: all predicates here run on rationals.  ``is_very_flat``
reads the strip of a very flat potential off its strip basis: nodes from
the strip periods, cuts from the exchange matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .config import DEFAULT_CONFIG, RunConfig
from .domains import strip_basis
from .errors import NonGenericError, NumericalError, StokesGeoError, in_context
from .polynomial import ComplexPolynomial, turning_points


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

    Very flat: (a) all roots simple, (b) a generic strip basis at t = 0
    (``domains.strip_basis``; its NonGenericError means "not very flat"),
    (c) every root on at most 2 strips.  The strips then chain the roots;
    from the chain's leftmost end, each node is the last plus the period
    Z_s (Re Z_s > 0) of the strip crossed to it.  The two strips at an
    interior node are two sides of its root's triangle, so their
    exchange-matrix entry is +1 (cut up) or -1 (cut down).  A
    NumericalError is raised again as "strip basis at t=0: ...", keeping
    its residuals.
    """
    d = poly.degree
    tps = turning_points(poly, config.root_tol)
    if not tps.all_simple:
        return VeryFlatResult(False, None, "repeated roots")
    try:
        sides, periods, _, B = strip_basis(poly, 0.0, config)
    except NonGenericError as exc:
        return VeryFlatResult(False, None, str(exc))
    except NumericalError as exc:
        raise in_context(exc, "strip basis at t=0") from exc

    incidence: dict[int, list[int]] = {}
    for s_idx, (a, b) in enumerate(sides):
        incidence.setdefault(a, []).append(s_idx)
        incidence.setdefault(b, []).append(s_idx)
    if any(len(v) > 2 for v in incidence.values()):
        return VeryFlatResult(False, None,
                              "a root borders more than 2 strip domains")

    # the strips must chain all d roots: walk them from the leftmost end
    ends = [r for r, v in incidence.items() if len(v) == 1]
    if not ends:
        return VeryFlatResult(False, None, "strip adjacencies do not chain")
    root, chain = min(ends, key=lambda r: (tps.locations[r].real,
                                           tps.locations[r].imag)), []
    while nxt := [s_idx for s_idx in incidence[root] if s_idx not in chain]:
        chain.append(nxt[0])
        a, b = sides[nxt[0]]
        root = b if a == root else a
    if len(chain) != d - 1:
        return VeryFlatResult(False, None, "strip adjacencies do not chain")

    nodes = accumulate((periods[s] for s in chain), initial=0j)
    cuts = ["up" if B[s][t] > 0 else "down" for s, t in zip(chain, chain[1:])]
    try:
        strip = ChoppedStrip(
            nodes=tuple((z.real, z.imag) for z in nodes),
            cuts=tuple(cuts))
    except ValueError as exc:
        return VeryFlatResult(False, None, f"degenerate projection: {exc}")
    return VeryFlatResult(True, strip, "very flat")
