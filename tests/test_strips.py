import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from stokesgeo import (BranchError, ChoppedStrip, ExactTieError,
                       NumericalError, build_face_set, build_stokes_graph,
                       domains, is_very_flat, realize_count,
                       survey_short_geodesics, visible_pairs)
from stokesgeo.pathint import integrate_polyline
from tests.conftest import random_simple_poly

F = Fraction


def brute_force_visible(nodes, cuts):
    """Independent oracle: cuts may contain None for 'no cut here'."""
    out = []
    d = len(nodes)
    for i in range(d):
        for j in range(i + 1, d):
            xi, yi = nodes[i]
            xj, yj = nodes[j]
            ok = True
            for k in range(1, d - 1):
                if k in (i, j) or cuts[k - 1] is None:
                    continue
                xk, yk = nodes[k]
                if not (xi < xk < xj):
                    continue
                y_seg = yi + (yj - yi) * (xk - xi) / (xj - xi)
                if cuts[k - 1] == "up" and y_seg > yk:
                    ok = False
                if cuts[k - 1] == "down" and y_seg < yk:
                    ok = False
            if ok:
                out.append((i, j))
    return out


def test_two_nodes():
    s = ChoppedStrip(nodes=((0, 0), (1, 1)), cuts=())
    assert visible_pairs(s) == [(0, 1)]


def test_three_nodes_cut_above_segment():
    # upward cut whose base sits above the 0-2 segment does not block it
    s = ChoppedStrip(nodes=((0, 0), (1, 1), (2, F(1, 7))), cuts=("up",))
    assert visible_pairs(s) == [(0, 1), (0, 2), (1, 2)]


def test_three_nodes_cut_blocking():
    s = ChoppedStrip(nodes=((0, 0), (1, -1), (2, F(1, 7))), cuts=("up",))
    assert visible_pairs(s) == [(0, 1), (1, 2)]


def test_endpoint_on_cut_base_not_blocking():
    # segments ending at the cut's own base node are never blocked by it
    s = ChoppedStrip(nodes=((0, 0), (1, 2), (2, 5)), cuts=("up",))
    assert (0, 1) in visible_pairs(s)
    assert (1, 2) in visible_pairs(s)


def test_exact_tie_reported():
    s = ChoppedStrip(nodes=((0, 0), (1, 1), (2, 2)), cuts=("up",))
    with pytest.raises(ExactTieError):
        visible_pairs(s)


def test_invariants_enforced():
    with pytest.raises(ValueError):
        ChoppedStrip(nodes=((0, 0), (0, 1)), cuts=())
    with pytest.raises(ValueError):
        ChoppedStrip(nodes=((0, 0), (1, 0)), cuts=())
    with pytest.raises(ValueError):
        ChoppedStrip(nodes=((0, 0), (1, 1), (2, 2)), cuts=())
    with pytest.raises(ValueError):
        ChoppedStrip(nodes=((0, 0), (1, 1), (2, 3)), cuts=("sideways",))


def test_realize_range_validation():
    with pytest.raises(ValueError):
        realize_count(4, 2)
    with pytest.raises(ValueError):
        realize_count(4, 7)


def test_realize_all_counts_small():
    for d in range(2, 7):
        for k in range(d - 1, d * (d - 1) // 2 + 1):
            strip = realize_count(d, k)
            pairs = visible_pairs(strip)
            assert len(pairs) == k
            # constructions keep all consecutive pairs visible
            for i in range(d - 1):
                assert (i, i + 1) in pairs
            # and agree with the independent brute-force predicate
            assert sorted(pairs) == sorted(
                brute_force_visible(strip.nodes, list(strip.cuts)))


@st.composite
def random_strip(draw):
    d = draw(st.integers(3, 7))
    ys = draw(st.lists(st.integers(-40, 40), min_size=d, max_size=d,
                       unique=True))
    cuts = tuple(draw(st.sampled_from(["up", "down"])) for _ in range(d - 2))
    nodes = tuple((F(3 * j), F(ys[j])) for j in range(d))
    return ChoppedStrip(nodes=nodes, cuts=cuts)


@settings(max_examples=60, deadline=None)
@given(random_strip(), st.data())
def test_cut_deletion_monotone(strip, data):
    try:
        full = visible_pairs(strip)
    except ExactTieError:
        return
    assert sorted(full) == sorted(
        brute_force_visible(strip.nodes, list(strip.cuts)))
    k = data.draw(st.integers(0, len(strip.cuts) - 1))
    relaxed = list(strip.cuts)
    relaxed[k] = None
    assert len(brute_force_visible(strip.nodes, relaxed)) >= len(full)


def test_very_flat_examples(osc):
    assert not is_very_flat(osc).flag
    res = is_very_flat(osc.rotate(0.3))
    assert res.flag
    assert res.strip is not None and len(res.strip.nodes) == 2
    from stokesgeo import ComplexPolynomial
    dbl = ComplexPolynomial.from_roots(1.0, [0, 0, 1, 2])
    out = is_very_flat(dbl)
    assert not out.flag and "repeated" in out.reason


def _very_flat_samples():
    """(poly, very-flat result) of random cubics, quartics and quintics."""
    rng = random.Random(42)
    for d in (3, 4, 5):
        for _ in range(4):
            poly = random_simple_poly(rng, d, min_sep=0.6)
            yield poly, is_very_flat(poly)


def test_very_flat_count_matches_geodesics():
    checked = 0
    for poly, res in _very_flat_samples():
        if not res.flag:
            continue
        assert len(visible_pairs(res.strip)) == len(
            survey_short_geodesics(poly).geodesics)
        checked += 1
    assert checked >= 10


def test_projection_crosses_the_last_strip_once(monkeypatch):
    # the projection reads the strip basis: each of the d - 1 strips is
    # crossed once, between its two boundary roots, and none again along
    # the edge it shares with the next strip of the chain
    crossings = []
    cross_strip = domains.cross_strip

    def counted(graph, dom, r_from, r_to, *args):
        crossings.append((dom, r_from, r_to))
        return cross_strip(graph, dom, r_from, r_to, *args)
    monkeypatch.setattr(domains, "cross_strip", counted)
    checked = 0
    # the samples are drawn lazily, so ``crossings`` holds the crossings
    # of the sample in hand
    for poly, res in _very_flat_samples():
        if res.flag:
            assert len(crossings) == poly.degree - 1
            assert len({id(dom) for dom, _, _ in crossings}) == poly.degree - 1
            for dom, r_from, r_to in crossings:
                assert dom.boundary_roots == ((r_from,), (r_to,))
            checked += 1
        crossings.clear()
    assert checked >= 10


def test_projection_keeps_numerical_errors(monkeypatch):
    # only a NonGenericError of the strip basis means "not very flat"; a
    # NumericalError is raised again with its stage and residuals, and a
    # BranchError as it is
    poly = next(poly for poly, res in _very_flat_samples() if res.flag)

    def failing(*args):
        raise NumericalError("crossing did not converge",
                             residuals=[0.25, 0.5])
    monkeypatch.setattr(domains, "cross_strip", failing)
    with pytest.raises(NumericalError, match="^strip basis at t=0: crossing "
                       "did not converge$") as info:
        is_very_flat(poly)
    assert info.value.residuals == [0.25, 0.5]

    def branch(*args):
        raise BranchError("walk cannot step past a turning point")
    monkeypatch.setattr(domains, "cross_strip", branch)
    with pytest.raises(BranchError, match="^walk cannot step"):
        is_very_flat(poly)


def _segment_width(graph, dom):
    """|Re| of sqrt(P) integrated along a straight segment inside the
    strip between polyline points of its two sides: points at 1/8 .. 7/8
    of one side, each paired with the nearest point of the other side,
    the shortest pair whose segment crosses no chord of the polylines
    first."""
    locs = graph.turning_points.locations
    delta = graph.scales.delta_path
    chords = domains._traced_chords(replace(graph, edges=tuple(
        replace(e, vertices=e.polyline, landing=None) for e in graph.edges)))
    va, vb = ([z for e in dom.edge_ids if root in (graph.edges[e].origin,
                                                    graph.edges[e].target)
               for z in graph.edges[e].polyline]
              for (root, *_) in dom.boundary_roots)
    clear = [z for z in va if min(abs(z - r) for r in locs) > 2.0 * delta
             and abs(z) < 0.98 * graph.scales.r_escape]
    n = len(clear)
    pairs = []
    for i in {n // 2, n // 4, 3 * n // 4, n // 8, 7 * n // 8}:
        zb = min(vb, key=lambda z: abs(z - clear[i]))
        pairs.append((abs(zb - clear[i]), clear[i], zb))
    for _, za, zb in sorted(pairs, key=lambda pair: pair[0]):
        if domains._segment_inside(za, zb, chords, locs, delta):
            (val,), _, _ = integrate_polyline(graph.poly, locs, [za, zb],
                                              rel_tol=1e-9)
            return abs(val.real)
    raise AssertionError("no straight in-face segment joins the sides")


def test_face_widths_match_transported_periods():
    # the README's bound: each node gap is the |Re| of a strip period
    # Z_s, which must be the width read off the face geometry, a straight
    # in-face segment between the strip's two sides
    checked = 0
    for poly, res in _very_flat_samples():
        if not res.flag:
            continue
        xs = [float(x) for x, _ in res.strip.nodes]
        gaps = sorted(b - a for a, b in zip(xs, xs[1:]))
        graph = build_stokes_graph(poly)
        widths = sorted(_segment_width(graph, dom)
                        for dom in build_face_set(graph).strips)
        assert len(gaps) == len(widths)
        for gap, width in zip(gaps, widths):
            assert abs(gap - width) <= 2e-11 * width
            checked += 1
    assert checked >= 28
