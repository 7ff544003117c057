import cmath
import itertools
import math
import random
from dataclasses import replace

import pytest

from stokesgeo import (NonGenericError, NumericalError, build_face_set,
                       build_stokes_graph, chord_diagram, domains,
                       parse_poly_text, pathint, tracer)
from stokesgeo.cli import main
from stokesgeo.domains import chords_cross
from stokesgeo.pathint import period_for_pair
from stokesgeo.polynomial import PolyContext, SeriesAtRoot, wrap_positive
from stokesgeo.tracer import emanating_directions
from tests.conftest import (_far_root_draw, criterion_6_polys,
                            random_simple_poly, stream_polys)


def test_airy_faces():
    fs = build_face_set(build_stokes_graph(parse_poly_text("1,0")))
    assert [d.kind for d in fs.domains] == ["HalfPlane"] * 3
    assert fs.n_vertices - fs.n_edges + fs.n_faces == 2


def test_oscillator_connected_faces(osc):
    fs = build_face_set(build_stokes_graph(osc))
    kinds = sorted(d.kind for d in fs.domains)
    assert kinds == ["HalfPlane"] * 4
    assert fs.n_vertices - fs.n_edges + fs.n_faces == 2


def test_rotated_oscillator_strip(osc):
    fs = build_face_set(build_stokes_graph(osc.rotate(0.3)))
    kinds = sorted(d.kind for d in fs.domains)
    assert kinds == ["HalfPlane"] * 4 + ["Strip"]
    strip = fs.strips[0]
    # width of the canonical-chart image: |Re(e^{it} w)| with w = i pi/2
    expected = (math.pi / 2) * math.sin(0.3)
    assert domains.strip_width(fs.graph, strip) == pytest.approx(expected,
                                                                 rel=1e-12)
    assert not fs.graph.sectors.are_neighboring_rays(*strip.incident_rays)
    assert fs.n_vertices - fs.n_edges + fs.n_faces == 2


def test_strip_boundary_roots(osc):
    fs = build_face_set(build_stokes_graph(osc.rotate(0.3)))
    strip = fs.strips[0]
    sides = sorted(strip.boundary_roots)
    assert sides == [(0,), (1,)]


def test_chord_diagram_oscillator(osc):
    stokes, anti = chord_diagram(osc.rotate(0.3))
    assert stokes.n_vertices == 4 and anti.n_vertices == 4
    (pair, weight), = stokes.chords
    assert (pair[1] - pair[0]) % 4 == 2      # opposite vertices
    assert weight == pytest.approx((math.pi / 2) * math.sin(0.3), rel=1e-12)
    (apair, aweight), = anti.chords
    assert aweight == pytest.approx((math.pi / 2) * math.cos(0.3), rel=1e-12)


def test_chord_diagram_raises_on_nongeneric(osc):
    with pytest.raises(NonGenericError):
        chord_diagram(osc)   # finite edge at t = 0: zero strip domains


def test_random_cubic_pentagon():
    rng = random.Random(321)
    p = random_simple_poly(rng, 3)
    stokes, anti = chord_diagram(p)
    for diag in (stokes, anti):
        assert diag.n_vertices == 5
        assert len(diag.chords) == 2
        (a, _), (b, _) = diag.chords
        assert not chords_cross(5, a, b)
        for (i, j), w in diag.chords:
            assert (j - i) % 5 not in (0, 1, 4)
            assert w > 0


def test_chord_diagram_numerical_errors_name_their_context(osc, monkeypatch,
                                                          capsys, tmp_path):
    # a NumericalError from a trace of the t = 0 strip basis comes out of
    # chord_diagram with its stage and angle, keeping its residuals and
    # chained to the original; the command line prints it and the
    # residuals on stderr and exits 3
    def fail(*args, **kwargs):
        raise NumericalError("trace failed", residuals=[0.25, 0.5])
    monkeypatch.setattr(tracer, "trace_stokes_line", fail)
    with pytest.raises(NumericalError) as info:
        chord_diagram(osc)
    assert str(info.value) == "strip basis at t=0: trace failed"
    assert info.value.residuals == [0.25, 0.5]
    assert str(info.value.__cause__) == "trace failed"
    assert main(["chords", "--poly", "1,0,-1", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: strip basis at t=0: trace failed\n"
        "residuals: 0.25, 0.5\n")


def test_chord_diagram_crosses_each_strip_once(monkeypatch):
    # building a face set crosses no strip; the diagram traces one graph,
    # at t = 0, and crosses each of its d - 1 strips once.  The quarter
    # turn comes from the mutation walk of that strip basis
    graphs, members = [], []
    build, cross_strip = domains.build_stokes_graph, domains.cross_strip

    def traced(poly, *args):
        graphs.append(poly)
        return build(poly, *args)

    def counted(graph, *args):
        members.append(graph.poly)
        return cross_strip(graph, *args)
    monkeypatch.setattr(domains, "build_stokes_graph", traced)
    monkeypatch.setattr(domains, "cross_strip", counted)
    p = random_simple_poly(random.Random(321), 3)
    chord_diagram(p)
    assert graphs == [p]
    assert members == [p, p]


def test_strip_crossings_take_the_root_rule_unsplit(monkeypatch):
    # on the criterion-6 inputs and their quarter turns, every strip
    # crossing ends its walk within the reach of both roots: one _gk15
    # call walks the crossing's regular vertices alone, and its two root
    # chords are the root series' primitive at verts[1] and verts[-2].  No
    # other walk runs in the graphs (the traces' root chords are all
    # unsplit), and no walk has a vertex on a root
    walks, primitives, crossings = [], [], []
    for owner, name, calls in ((pathint, "_gk15", walks),
                               (SeriesAtRoot, "xi", primitives)):
        def spy(*args, original=getattr(owner, name), calls=calls):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(owner, name, spy)
    integrate = domains.integrate_polyline

    def crossing(poly, roots, verts, **kwargs):
        n_walks, n_primitives = len(walks), len(primitives)
        out = integrate(poly, roots, verts, **kwargs)
        crossings.append((verts, walks[n_walks:],
                          primitives[n_primitives:]))
        return out
    monkeypatch.setattr(domains, "integrate_polyline", crossing)
    rng = random.Random(5150)
    for d in (3, 4, 5):
        for _ in range(30):
            poly = random_simple_poly(rng, d, min_sep=0.5, radius=1.5)
            for member in (poly, poly.rotate(math.pi / 2)):
                graph = build_stokes_graph(member)
                for strip in build_face_set(graph).strips:
                    domains.strip_width(graph, strip)
    assert len(crossings) == 2 * 30 * (2 + 3 + 4)
    for verts, (walk,), (first, last) in crossings:
        assert walk[2] == verts[1:-1]
        assert (first[2], last[2]) == (verts[1], verts[-2])
    assert len(walks) == len(crossings)
    for _, roots, verts, *_ in walks:
        assert min(abs(z - r) for z in verts for r in roots) > 0.0


def test_quarter_turn_diagram_matches_the_traced_graph(monkeypatch):
    # on the criterion-6 inputs, the Stokes diagram is the traced t = 0
    # graph's, bit for bit, and the mutation walk of its strip basis gives
    # the traced quarter turn's chords, with widths within 1e-12 relative.
    # After every flip the flipped chords' exchange matrix is the mutated B
    bases = []
    strip_basis = domains.strip_basis

    def recorded(*args):
        out = strip_basis(*args)
        _, periods, chords, B = out
        bases.append((periods, list(chords), B))
        return out
    monkeypatch.setattr(domains, "strip_basis", recorded)

    def traced(member):
        graph = build_stokes_graph(member)
        return sorted((tuple(sorted(dom.incident_rays)),
                       domains.strip_width(graph, dom))
                      for dom in build_face_set(graph).strips)

    rng = random.Random(5150)
    flips = 0
    for d in (3, 4, 5):
        for _ in range(30):
            poly = random_simple_poly(rng, d, min_sep=0.5, radius=1.5)
            stokes, anti = chord_diagram(poly)
            assert list(stokes.chords) == traced(poly)
            want = traced(poly.rotate(math.pi / 2))
            assert [c for c, _ in anti.chords] == [c for c, _ in want]
            for (_, w), (_, w_traced) in zip(anti.chords, want):
                assert abs(w - w_traced) <= 1e-12 * w_traced
            periods, chords, B = bases.pop()
            states, _ = domains.mutation_walk(periods, B, math.pi / 2)
            for _, k, _ in states:
                chords[k] = domains._flip(d + 2, chords, k)
                B = domains._mutate(B, k)
                assert domains._exchange_matrix(d + 2, chords) == B
                flips += 1
    assert flips == 209


@pytest.mark.parametrize("off", [1e-12, -1e-12])
def test_quarter_turn_on_a_wall_is_refused(osc, off):
    # z^2 - 1 turned by pi/2 - off: its quarter turn is off from the wall
    # where roots -1 and 1 connect, and the traced graph there has no strip
    poly = osc.rotate(math.pi / 2 - off)
    (strip,) = build_face_set(build_stokes_graph(poly)).strips
    graph = build_stokes_graph(poly.rotate(math.pi / 2))
    assert build_face_set(graph).strips == []
    with pytest.raises(NonGenericError) as info:
        chord_diagram(poly)
    assert str(info.value) == (
        f"class (1,) of chord {tuple(sorted(strip.incident_rays))} leaves at "
        f"t = {math.pi / 2 + off:.12f}, within 1e-9 of the quarter turn")


def test_exchange_matrix_refuses_what_does_not_triangulate():
    # of the sets of n - 3 chords of the n-gon, n = 4 .. 6, those that
    # repeat a chord, join neighbouring rays or cross raise
    # NonGenericError; the rest are the triangulations, Catalan many
    for n, catalan in ((4, 2), (5, 5), (6, 14)):
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        accepted = []
        for chords in itertools.combinations_with_replacement(pairs, n - 3):
            try:
                domains._exchange_matrix(n, list(chords))
            except NonGenericError:
                continue
            accepted.append(chords)
        assert len(accepted) == catalan
        for chords in accepted:
            assert len(set(chords)) == n - 3
            assert all((j - i) % n not in (0, 1, n - 1) for i, j in chords)
            assert not any(chords_cross(n, a, b)
                           for a, b in itertools.combinations(chords, 2))


def test_failed_crossing_names_its_strip(osc, monkeypatch):
    graph = build_stokes_graph(osc.rotate(0.3))
    (strip,) = build_face_set(graph).strips
    (ra,), (rb,) = strip.boundary_roots
    locs = graph.turning_points.locations
    assert {ra, rb} == {0, 1}
    monkeypatch.setattr(domains, "_segment_inside", lambda *args: False)
    with pytest.raises(NonGenericError) as info:
        domains.strip_width(graph, strip)
    assert str(info.value) == (
        f"no interior crossing segment found in the strip between roots "
        f"{ra} at {locs[ra]:.6g} and {rb} at {locs[rb]:.6g} (incident "
        f"rays {strip.incident_rays})")


def test_thin_strip_width_is_the_pair_period():
    # the strip between roots 2 and 0 of this quintic is 3.6e-4 wide, under
    # 3e-3 of the others.  Its width is |Re| of the pair period walked from
    # root to root without the traced edges
    poly = stream_polys(20260808, 50)[104]
    stokes, _ = chord_diagram(poly)
    width = dict(stokes.chords)[(3, 5)]
    want = abs(period_for_pair(poly, 0, 2).value.real)
    assert abs(width - want) <= 1e-12 * want


def test_one_chord_landings_give_the_same_faces():
    # the face sets read only the traces' vertices, where the launch is one
    # chord from the root and an escape one chord from the vertex that
    # decided it to its end on the escape circle; with the full polylines,
    # every rung and ladder circle landed, the faces are the same.  The
    # members are far-root draw 15 at the survey's first three start
    # angles, where lines leave within 1e-9 rad of each other, and the
    # criterion-6 inputs.  At each root, the launch rung orders the m + 2
    # lines, and the entering vertices of the lines that hit it, as the
    # first rung does
    def faces(graph):
        return sorted((dom.kind, dom.edge_ids, dom.incident_rays,
                       dom.boundary_roots) for dom in
                      build_face_set(graph).domains)

    def order_at_roots(graph, points):
        # each root's lines, in the cyclic order of the directions in
        # which they leave it toward their second points at either end,
        # from its smallest edge index
        at = {}
        for idx, e in enumerate(graph.edges):
            pl = getattr(e, points)
            at.setdefault(e.origin, []).append((pl[0], pl[1], idx))
            if e.kind == "finite":
                at.setdefault(e.target, []).append((pl[-1], pl[-2], idx))
        orders = {}
        for root, lines in at.items():
            ids = [idx for *_, idx in sorted(
                lines, key=lambda x: wrap_positive(cmath.phase(x[1] - x[0])))]
            k = ids.index(min(ids))
            orders[root] = ids[k:] + ids[:k]
        return orders

    draw = _far_root_draw(15)
    members = [draw.rotate(t0) for t0 in (1.652141764589, 0.120355611373,
                                          2.716108120204)]
    checked = 0
    for n, member in enumerate(members + criterion_6_polys()):
        graph = build_stokes_graph(member)
        landed = replace(graph, edges=tuple(
            replace(e, vertices=e.polyline, landing=None)
            for e in graph.edges))
        traced = faces(graph)
        if n < len(members):
            assert sum(kind == "Strip" for kind, *_ in traced) == 4
        assert faces(landed) == traced
        # the vertices run root, launch, ..., entering vertex, root, and a
        # polyline from the root to its first rung at either end
        assert (order_at_roots(graph, "vertices")
                == order_at_roots(graph, "polyline"))
        assert all(e.vertices[1] == e.polyline[tracer._RUNGS]
                   for e in graph.edges)
        checked += len(graph.edges)
    assert checked > 1000


def test_two_ends_at_one_phase_keep_their_strip(osc, monkeypatch):
    # z^2 - 1 at t = 0.3: the lines from roots 0 and 1 along ray 3 bound
    # the strip and reach the escape circle 1.2e-3 rad apart.  Moved onto
    # one point, the arc between their ends has zero span: the strip's
    # outline runs along no circle there, where a full circle around the
    # disk would put every crossing segment outside it.  Its width is
    # still (pi/2) sin t
    poly = osc.rotate(0.3)
    ctx = PolyContext.of(poly)
    theta = {root: emanating_directions(poly, ctx.locs[root], 1)[2]
             for root in (0, 1)}
    trace = tracer.trace_stokes_line
    end = trace(poly, 0, theta[0], context=ctx)[0][-1]

    def snapped(poly, root_index, direction, **kwargs):
        vertices, fate = trace(poly, root_index, direction, **kwargs)
        if root_index == 1 and direction == theta[1]:
            assert abs(vertices[-1] - end) < 2e-3 * abs(end)
            vertices[-1] = end
        return vertices, fate
    monkeypatch.setattr(tracer, "trace_stokes_line", snapped)
    graph = build_stokes_graph(poly)
    assert [e.ray for e in graph.edges] == [1, 2, 3, 0, 1, 3]
    assert graph.edges[2].polyline[-1] == graph.edges[5].polyline[-1]
    (strip,) = build_face_set(graph).strips
    assert strip.edge_ids == (0, 2, 4, 5)
    assert domains.strip_width(graph, strip) == pytest.approx(
        (math.pi / 2) * math.sin(0.3), rel=1e-12)


def test_chords_cross_predicate():
    assert chords_cross(6, (0, 3), (1, 4))
    assert not chords_cross(6, (0, 2), (3, 5))
    assert not chords_cross(6, (0, 3), (0, 2))   # shared endpoint
    assert not chords_cross(6, (0, 2), (2, 4))


def test_admissible_domains_surface(osc):
    from stokesgeo import admissible_domains
    doms = admissible_domains(build_stokes_graph(osc.rotate(0.3)))
    assert sorted(d.kind for d in doms) == ["HalfPlane"] * 4 + ["Strip"]


def test_generic_face_counts_random():
    # generic potentials: d+2 half-planes and d-1 strips
    rng = random.Random(99)
    for d in (3, 4):
        p = random_simple_poly(rng, d)
        fs = build_face_set(build_stokes_graph(p))
        assert len(fs.half_planes) == d + 2
        assert len(fs.strips) == d - 1


def test_thin_strip_is_crossed_where_its_sides_part():
    # far-root draw 19 at t = 0: the strip between roots 4 and 0 is 0.019
    # wide and 22.8 long, and its sides run closer than their traced steps
    # are long, so its outline crosses itself.  Among all the clear traced
    # vertices, in order of the vertices walked, the crossing finds a
    # segment inside it, and its period is the one crossed on the full
    # polylines to rounding
    poly = _far_root_draw(19)
    graph = build_stokes_graph(poly)
    landed = replace(graph, edges=tuple(
        replace(e, vertices=e.polyline, landing=None) for e in graph.edges))
    periods = []
    for g in (graph, landed):
        (strip,) = [dom for dom in build_face_set(g).strips
                    if dom.boundary_roots == ((4,), (0,))]
        periods.append(domains.cross_strip(g, strip, 4, 0)[0])
    z, z_full = periods
    assert 0 < z.real < 1e-3 * abs(z)
    assert abs(z - z_full) <= 1e-13 * abs(z)
    stokes, _ = chord_diagram(poly)
    assert len(stokes.chords) == 4
