import cmath
import math
import random
import re

import pytest

from stokesgeo import geodesics, pathint, tracer
from stokesgeo.config import DEFAULT_CONFIG, RunConfig, Scales
from stokesgeo.errors import ClearanceError, NonGenericError
from stokesgeo.polynomial import PolyContext, TurningPointSet, wrap_angle
from stokesgeo import (ComplexPolynomial, EscapedToRay, HitTurningPoint,
                       NumericalError, build_stokes_graph, chord_diagram,
                       emanating_directions, parse_poly_text, stokes_sectors,
                       survey_short_geodesics, trace_stokes_line,
                       turning_points)
from tests.conftest import (_far_root_draw, _root_chord_reference,
                            criterion_6_polys, random_simple_poly,
                            re_xi_drift, stream_polys)


def _angdiff(a, b):
    d = math.fmod(a - b, 2 * math.pi)
    if d > math.pi:
        d -= 2 * math.pi
    if d < -math.pi:
        d += 2 * math.pi
    return abs(d)


def test_emanating_directions_simple_root(osc):
    dirs = emanating_directions(osc, 1.0, 1)
    assert dirs == pytest.approx([math.pi / 3, math.pi, 5 * math.pi / 3])


def test_emanating_directions_airy():
    p = parse_poly_text("1,0")
    assert emanating_directions(p, 0.0, 1) == pytest.approx(
        [math.pi / 3, math.pi, 5 * math.pi / 3])


def test_emanating_directions_double_root():
    p = parse_poly_text("1,0,0")
    assert emanating_directions(p, 0.0, 2) == pytest.approx(
        [math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4, 7 * math.pi / 4])


def test_emanating_directions_kill_re_xi(osc):
    # along each direction Re xi vanishes to second order: launching there
    # and transporting xi must give a tiny real part
    drift, arc = re_xi_drift(osc, [1.0, 1.0 + 3e-3 * cmath.exp(1j * math.pi / 3)])
    assert drift < 1e-6


def test_trace_finite_edge(osc):
    pl, fate = trace_stokes_line(PolyContext.of(osc), 1, math.pi)
    assert isinstance(fate, HitTurningPoint) and fate.target == 0
    assert max(abs(z.imag) for z in pl) < 1e-6
    assert all(-1.0 - 1e-9 <= z.real <= 1.0 + 1e-9 for z in pl)


def test_trace_escape_lands_on_ray(osc):
    pl, fate = trace_stokes_line(PolyContext.of(osc), 1, math.pi / 3)
    assert isinstance(fate, EscapedToRay)
    sectors = stokes_sectors(osc)
    ray = sectors.ray_angles[fate.ray]
    # even degree carries a log(r)/r^2 angular tail at the escape radius
    r = abs(fate.exit_point)
    assert _angdiff(cmath.phase(fate.exit_point), ray) < 2.0 * math.log(r) / r ** 2


def test_airy_three_escapes():
    p = parse_poly_text("1,0")
    sectors = stokes_sectors(p)
    rays_hit = []
    ctx = PolyContext.of(p)
    for theta in emanating_directions(p, 0.0, 1):
        pl, fate = trace_stokes_line(ctx, 0, theta)
        assert isinstance(fate, EscapedToRay)
        rays_hit.append(fate.ray)
        assert _angdiff(cmath.phase(fate.exit_point),
                        sectors.ray_angles[fate.ray]) < 1e-3
    assert sorted(rays_hit) == [0, 1, 2]


def test_graph_oscillator(osc):
    g = build_stokes_graph(osc)
    kinds = sorted(e.kind for e in g.edges)
    assert kinds == ["escape"] * 4 + ["finite"]
    assert g.complexes == (frozenset({0, 1}),)


def test_graph_one_sided_hit_is_flagged(osc, monkeypatch):
    # root 1's trace along pi is made to escape, so root 0's hit on root 1
    # has no partner half: the edge keeps root 0's trace, takes its target
    # direction from the arrival angle, and is flagged
    def finite(graph):
        return [(e.origin, e.direction_index, e.target,
                 e.target_direction_index, e.flagged)
                for e in graph.edges if e.kind == "finite"]

    assert finite(build_stokes_graph(osc)) == [(0, 2, 1, 1, False)]
    original = tracer.trace_stokes_line

    def trace(ctx, root_index, direction):
        if root_index == 1 and abs(direction - math.pi) < 1e-12:
            return [1.0, -10.0j], EscapedToRay(3, -10.0j)
        return original(ctx, root_index, direction)

    monkeypatch.setattr(tracer, "trace_stokes_line", trace)
    assert finite(build_stokes_graph(osc)) == [(0, 2, 1, 1, True)]


def test_graph_airy():
    g = build_stokes_graph(parse_poly_text("1,0"))
    assert [e.kind for e in g.edges] == ["escape"] * 3
    assert g.complexes == (frozenset({0}),)


def test_graph_rotated_oscillator(osc):
    g = build_stokes_graph(osc.rotate(0.3))
    assert all(e.kind == "escape" for e in g.edges)
    assert g.complexes == (frozenset({0}), frozenset({1}))


def test_graph_cubic_unity_counts(cubic_unity):
    g = build_stokes_graph(cubic_unity)
    n_finite = sum(1 for e in g.edges if e.kind == "finite")
    n_escape = sum(1 for e in g.edges if e.kind == "escape")
    # every root emits 3 half-lines; merged finite edges absorb two each
    assert 2 * n_finite + n_escape == 9
    covered = set()
    for comp in g.complexes:
        covered |= comp
    assert covered == {0, 1, 2}
    assert not g.incomplete


def test_drift_invariant_on_graph_edges(osc, cubic_unity):
    for poly in (osc, cubic_unity, osc.rotate(0.3)):
        g = build_stokes_graph(poly)
        for e in g.edges:
            drift, arc = re_xi_drift(poly, e.polyline)
            assert drift <= 1e-6 * (1.0 + arc)


def test_fate_stability_under_tiny_rotation(osc):
    base = build_stokes_graph(osc.rotate(0.3))
    pert = build_stokes_graph(osc.rotate(0.3 + 1e-7))
    sig_a = sorted((e.origin, e.kind, e.ray) for e in base.edges)
    sig_b = sorted((e.origin, e.kind, e.ray) for e in pert.edges)
    assert sig_a == sig_b


def test_edge_count_rule():
    # quartic with well-separated roots: total emitted half-lines is
    # sum over roots of (multiplicity + 2)
    p = ComplexPolynomial.from_roots(1.0, [-1.5, 0.5j, 1.5, -0.5j])
    g = build_stokes_graph(p.rotate(0.2))
    n_finite = sum(1 for e in g.edges if e.kind == "finite")
    n_escape = sum(1 for e in g.edges if e.kind == "escape")
    assert 2 * n_finite + n_escape == sum(
        m + 2 for _, m in turning_points(p).points)


def _reference_dp5_step(poly, z, w, h, flips):
    """The stage loop over _A with sum() over _B5 and _B4; appends to
    ``flips`` whether each stage's branch was negated."""
    def field(z_pt, w_ref):
        w_here = cmath.sqrt(poly.evaluate(z_pt))
        flip = w_here.real * w_ref.real + w_here.imag * w_ref.imag < 0.0
        flips.append(flip)
        if flip:
            w_here = -w_here
        return 1j * w_here.conjugate() / abs(w_here), w_here

    k = [0j] * 7
    k[0], w0 = field(z, w)
    for i in range(1, 6):
        zi = z
        for j, aij in enumerate(tracer._A[i]):
            zi += h * aij * k[j]
        k[i], _ = field(zi, w0)
    z5 = z + h * sum(b * ki for b, ki in zip(tracer._B5, k[:6]))
    k[6], w6 = field(z5, w0)
    z4 = z + h * sum(b * ki for b, ki in zip(tracer._B4, k))
    return (z5, abs(z5 - z4), w6, k[6]), (w0, k[0])


@pytest.mark.parametrize("coeffs", ["1,0,0.3+0.2i,-1",
                                    "1,0.2,-1,0.5i,0.4,-0.7+0.1i"])
def test_dp5_step_bitwise_matches_stage_loop(coeffs):
    poly = parse_poly_text(coeffs)
    rng = random.Random(31)
    start_flips = cut_crossings = 0
    for _ in range(200):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        w = cmath.rect(1.0, rng.uniform(-math.pi, math.pi))
        h = 10 ** rng.uniform(-4, 0)
        flips = []
        expected, (w0, k0) = _reference_dp5_step(poly, z, w, h, flips)
        assert tracer._dp5_step(poly, z, w0, k0, h) == expected
        start_flips += flips[0]
        cut_crossings += any(f != flips[0] for f in flips[1:])
    # the start branch was negated, and some steps crossed the cut of the
    # principal root, so that later stages flipped against the start
    assert start_flips > 50 and cut_crossings >= 3


def _spy_on_tracer(monkeypatch):
    """Counts P evaluations, the tracer helpers' calls, the drift chords
    that take the 7-point rule and the evaluations made by the hit
    decisions and by the landings (on the roots' rungs and on the escape
    ladder); records the (z, w, k0) of every ``_dp5_step`` attempt."""
    counts = {"evals": 0, "approach_evals": 0, "land_evals": 0,
              "_dp5_step": 0, "_chord_re_integral": 0, "_branch_step": 0,
              "_closest_approach": 0, "_land": 0, "lobatto_7": 0}
    steps = []
    evaluate = ComplexPolynomial.evaluate

    def counted(self, z):
        counts["evals"] += 1
        return evaluate(self, z)
    monkeypatch.setattr(ComplexPolynomial, "evaluate", counted)

    def spy(name, evals=None):
        original = getattr(tracer, name)

        def wrapped(*args, **kwargs):
            counts[name] += 1
            if name == "_dp5_step":
                steps.append(args[1:4])
            if name == "_chord_re_integral" and args[5] is tracer._LOBATTO_7:
                counts["lobatto_7"] += 1
            before = counts["evals"]
            out = original(*args, **kwargs)
            if evals is not None:
                counts[evals] += counts["evals"] - before
            return out
        monkeypatch.setattr(tracer, name, wrapped)
    for name in ("_dp5_step", "_chord_re_integral", "_branch_step"):
        spy(name)
    spy("_closest_approach", "approach_evals")
    spy("_land", "land_evals")
    return counts, steps


def test_trace_evaluates_p_six_times_per_step_attempt(osc, monkeypatch):
    # first same as last: the stage-0 field is the previous step's last
    # stage, so a step attempt evaluates P at its 5 inner stages and at z5.
    # The line from root 0 of the oscillator turned by 1e-5 runs past root
    # 1 (one hit decision, a miss) and escapes
    poly = osc.rotate(1e-5)
    ctx = PolyContext.of(poly)
    theta = emanating_directions(poly, ctx.locs[0], 1)[2]
    counts, _ = _spy_on_tracer(monkeypatch)
    _, fate = trace_stokes_line(ctx, 0, theta)
    assert isinstance(fate, EscapedToRay)
    assert counts["_dp5_step"] > 50 and counts["_closest_approach"] == 1
    # the step attempts, the drift chords (the inner Lobatto nodes: 4, or 5
    # on a step longer than a fifth of its distance to the nearest root;
    # the ends are the step's own values), the branch updates (at the
    # launch vertex and after a drift correction) and the two landings,
    # the launch's and the escape's, which evaluate P and P' once per
    # Halley pass.  The hit decision takes xi from the root's series and
    # evaluates P nowhere
    assert counts["approach_evals"] == 0
    assert counts["_land"] == 2 and counts["land_evals"] % 2 == 0
    assert counts["evals"] == (6 * counts["_dp5_step"]
                               + 4 * counts["_chord_re_integral"]
                               + counts["lobatto_7"]
                               + counts["_branch_step"]
                               + counts["land_evals"])
    assert counts["_chord_re_integral"] > 50


def _gk15_chord_re_integral(poly, z0, w0, z1):
    """Re of the Gauss-Kronrod 15-point chord integral of sqrt(P), each
    node's branch continued from the node before, starting from w0."""
    dz = z1 - z0
    acc = 0.0
    w_prev = w0
    for xk, wk in zip(pathint._KRONROD_NODES, pathint._KRONROD_WEIGHTS):
        w = cmath.sqrt(poly.evaluate(z0 + (0.5 + 0.5 * xk) * dz))
        if w.real * w_prev.real + w.imag * w_prev.imag < 0.0:
            w = -w
        w_prev = w
        acc += wk * (w * dz).real
    return 0.5 * acc


@pytest.fixture(scope="module")
def stream_graphs():
    """The Stokes graphs of both quarter-turn members of the first twelve
    polynomials per degree of stream 5150, with the arguments of every
    drift chord their traces integrated and the number of their DP5 step
    attempts."""
    chords = []
    attempts = 0
    chord, dp5_step = tracer._chord_re_integral, tracer._dp5_step

    def recorded(*args):
        chords.append(args)
        return chord(*args)

    def counted(*args):
        nonlocal attempts
        attempts += 1
        return dp5_step(*args)
    graphs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tracer, "_chord_re_integral", recorded)
        mp.setattr(tracer, "_dp5_step", counted)
        for poly in stream_polys(5150, 12):
            for member in (poly, poly.rotate(math.pi / 2)):
                graphs.append((member, build_stokes_graph(member)))
    return graphs, chords, attempts


def test_drift_chord_matches_gauss_kronrod(stream_graphs):
    # every drift chord of the stream graphs: the Lobatto rule on the
    # step's own end values agrees with a GK15 rule that evaluates all its
    # nodes.  A step longer than a fifth of its distance to the nearest
    # root takes the 7-point rule (worst 1.2e-15 here, where the 6-point
    # rule reaches 1.6e-13), the others the 6-point rule (worst 3.8e-15)
    _, chords, _ = stream_graphs
    assert len(chords) > 5000
    chord = tracer._chord_re_integral
    for poly, z0, w0, z1, w1, rule in chords:
        gap = (chord(poly, z0, w0, z1, w1, rule)
               - _gk15_chord_re_integral(poly, z0, w0, z1))
        assert abs(gap) <= 1e-13 * abs(w0) * abs(z1 - z0)


def test_stream_graph_edges_keep_their_level(stream_graphs, osc):
    # the drift projection holds every vertex on its root's Re xi level,
    # and the landing puts its vertices on that level too, the last one on
    # the escape circle; the README's z^2 - 1 at t = 0.3 and its quarter
    # turn join the stream graphs
    graphs, _, _ = stream_graphs
    readme = [(member, build_stokes_graph(member))
              for member in (osc.rotate(0.3), osc.rotate(0.3 + math.pi / 2))]
    escapes = 0
    for poly, graph in graphs + readme:
        r_escape = graph.scales.r_escape
        for e in graph.edges:
            drift, arc = re_xi_drift(poly, e.polyline)
            assert drift <= 1e-12 * (1.0 + arc)
            if e.kind == "escape":
                escapes += 1
                assert abs(abs(e.polyline[-1]) - r_escape) <= 1e-7 * r_escape
    assert escapes > 50


def test_stream_graphs_step_at_the_root_distance_cap(stream_graphs):
    # most steps are as long as the cap h <= near_d/4 allows, and the
    # error bound trace_tol rejects few attempts: 5,599 attempts for 5,578
    # accepted steps here, where trace_tol = 3e-9 made 8,776 attempts and
    # the arcsin bound's cone radius 8,787.  The ceiling is 2 % above the
    # count, so a change that brings back error-bound stepping or the
    # arcsin radius fails
    _, chords, attempts = stream_graphs
    assert len(chords) <= attempts <= 5711


def test_every_criterion_6_escape_is_certified(monkeypatch):
    # on both quarter-turn members of the criterion-6 inputs, every escape
    # is decided by the trapping-cone certificate inside the escape circle.
    # With the certificate off (r_c = inf) the same trace steps on to the
    # escape circle: each edge keeps its fate, target and ray, and each
    # landing its phase (worst 4.4e-16 here)
    certified = []
    in_cone = tracer._in_cone

    def spy(*args):
        certified.append(in_cone(*args))
        return certified[-1]
    monkeypatch.setattr(tracer, "_in_cone", spy)
    escapes = 0
    for poly in criterion_6_polys():
        for member in (poly, poly.rotate(math.pi / 2)):
            cone = PolyContext.of(member).tps.at_infinity
            certified.clear()
            on = build_stokes_graph(member)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cone, "cone_radius", math.inf)
                off = build_stokes_graph(member)
            n = sum(e.kind == "escape" for e in on.edges)
            assert certified.count(True) == n
            escapes += n
            for a, b in zip(on.edges, off.edges):
                assert (a.kind, a.origin, a.direction_index, a.target,
                        a.ray) == (b.kind, b.origin, b.direction_index,
                                   b.target, b.ray)
                if a.kind == "escape":
                    assert _angdiff(cmath.phase(a.polyline[-1]),
                                    cmath.phase(b.polyline[-1])) <= 1e-9
    assert escapes == 2160


def test_cone_certificate_boundary(osc):
    # z^2 - 1 at r = 10: p_k = 2 for even k and 0 for odd k, so the
    # power-sum bound is Phi = -1/2 log(1 - 10^-2) = 0.0050252, below the
    # arcsin bound arcsin(0.1), and the certificate holds while
    # |psi| < pi/2 - Phi = 1.5657711, on either side of a ray
    ctx = PolyContext.of(osc)
    cone = ctx.tps.at_infinity
    assert cone.phi(10.0) == pytest.approx(-0.5 * math.log(1.0 - 1e-2),
                                           rel=1e-12)
    assert cone.phi(10.0) == pytest.approx(0.0050252, abs=1e-7)
    ray = ctx.sectors.ray_angles[2]
    for psi, holds in ((1.5655, True), (1.5660, False), (-1.5655, True),
                       (-1.5660, False), (0.0, True)):
        z = cmath.rect(10.0, ray + psi / 2.0)
        assert tracer._in_cone(cone, ctx.sectors, z, 10.0) is holds


def _arcsin_cone_radius(cone):
    """The cone radius from the arcsin bound alone,
    1/2 sum m_i arcsin(|r_i|/r) < pi/4, with the 9/8 R0 floor."""
    def arcsin_phi(r):
        return 0.5 * sum(m * math.asin(a / r) for a, m in cone.moduli)
    lo = hi = 1.125 * cone.r0
    if arcsin_phi(hi) < 0.25 * math.pi:
        return hi
    while arcsin_phi(hi) >= 0.25 * math.pi:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if arcsin_phi(mid) < 0.25 * math.pi else (mid, hi)
    return hi


def test_power_sum_bound_holds_and_shrinks_the_cone():
    # on the criterion-3 stream polynomials, the far-root draws and a
    # degree-20 draw at the census radius, Phi(r) bounds |arg S| sampled
    # from the series at infinity on the circles r_c, 1.5 r_c, 2 r_c and
    # 4 r_c (worst 0.977 Phi here, on the degree-20 draw), falls across
    # them, and puts r_c inside the arcsin bound's radius on every input:
    # at 1.125-1.20 R0 on the stream polynomials, where the arcsin bound
    # alone reached pi/4 at a median 1.81 R0, and at 1.17 R0 against
    # 7.93 R0 at degree 20
    polys = (stream_polys(20260808, 5) + stream_polys(1, 5)
             + [_far_root_draw(k) for k in range(40)]
             + [random_simple_poly(random.Random(4242), 20,
                                   radius=1.5 * math.sqrt(20 / 8))])
    for poly in polys:
        cone = turning_points(poly).at_infinity
        r_c = cone.cone_radius
        assert 1.125 * cone.r0 <= r_c < _arcsin_cone_radius(cone)
        phis = []
        for r in (r_c, 1.5 * r_c, 2.0 * r_c, 4.0 * r_c):
            phis.append(cone.phi(r))
            arg_s = max(abs(cmath.phase(cone.chart(cmath.rect(
                r, 2 * math.pi * (k + 0.5) / 64))[0])) for k in range(64))
            assert arg_s <= phis[-1]
        assert phis[0] < 0.25 * math.pi
        assert phis == sorted(phis, reverse=True)


def test_certificate_refuses_by_the_angle_beyond_the_cone_radius(
        monkeypatch):
    # the first cubic of stream 5150, root 0, direction 1: one outward
    # vertex at 1.015 r_c has Phi = 0.667 < pi/4, so only the angle
    # condition max(|psi|, Phi) + Phi < pi/2 refuses it.  The line escapes
    # later, and no later vertex comes back inside r_c
    poly = stream_polys(5150, 1)[0]
    ctx = PolyContext.of(poly)
    cone = ctx.tps.at_infinity
    refused = []
    in_cone = tracer._in_cone

    def spy(cone_, sectors, z, r):
        holds = in_cone(cone_, sectors, z, r)
        if not holds:
            refused.append(z)
        return holds
    monkeypatch.setattr(tracer, "_in_cone", spy)
    root, mult = ctx.tps.points[0]
    direction = emanating_directions(poly, root, mult)[1]
    pl, fate = trace_stokes_line(ctx, 0, direction)
    assert len(refused) == 1
    z = refused[0]
    r = abs(z)
    phi = cone.phi(r)
    assert 1.0 < r / cone.cone_radius < 1.03
    assert phi < 0.25 * math.pi and phi == pytest.approx(0.667, abs=1e-3)
    ray = ctx.sectors.ray_angles[ctx.sectors.nearest_ray_index(
        cmath.phase(z))]
    psi = 0.5 * (poly.degree + 2) * abs(wrap_angle(cmath.phase(z) - ray))
    assert psi + phi >= 0.5 * math.pi
    assert isinstance(fate, EscapedToRay)
    assert min(abs(v) for v in pl[pl.index(z):]) > cone.cone_radius


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_cone_landing_on_z_power_d(d):
    # P = z^d: Phi = 0 and r_c = 0, and the lines are Re z^{(d+2)/2} = c,
    # on which sin(psi) r^{(d+2)/2} is constant.  A landing that starts at
    # the edge of the cone, where |psi| is just below pi/2 and the line
    # barely moves outward, follows that law onto each circle
    poly = ComplexPolynomial.from_roots(1.0, [0.0] * d)
    # the exact root set, where the root finder's cluster lies 1e-13 off 0
    tps = TurningPointSet(((0j, d),), coeffs=poly.coeffs)
    ctx = PolyContext(poly=poly, config=DEFAULT_CONFIG, tps=tps,
                      scales=Scales.from_roots(tps.locations),
                      sectors=stokes_sectors(poly))
    cone = tps.at_infinity
    assert cone.cone_radius == 0.0 and cone.phi(1e-3) == 0.0
    half = 0.5 * (d + 2)
    ray = ctx.sectors.ray_angles[1]
    for psi0 in (math.pi / 2 - 1e-3, -(math.pi / 2 - 1e-3), 0.3):
        z0 = cmath.rect(0.7, ray + psi0 / half)
        assert tracer._in_cone(cone, ctx.sectors, z0, abs(z0))
        w0 = cmath.sqrt(poly.evaluate(z0))
        if (z0 * w0).imag < 0.0:    # the outward branch
            w0 = -w0
        radii = [0.7 * 2 ** j for j in range(1, 6)]
        landed, _ = tracer._land(ctx, cone, z0, w0, 0.0, radii, 0, 0.0)
        for z, rho in zip(landed, radii):
            assert abs(abs(z) - rho) <= 1e-15 * rho
            psi = half * wrap_angle(cmath.phase(z) - ray)
            assert abs(math.sin(psi) - math.sin(psi0) * (0.7 / rho) ** half
                       ) <= 1e-14
    # a traced line of z^d is a ray, certified at its first vertex
    steps = []
    dp5 = tracer._dp5_step
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tracer, "_dp5_step",
                   lambda *args: steps.append(0) or dp5(*args))
        for theta in emanating_directions(poly, 0.0, d):
            steps.clear()
            pl, fate = trace_stokes_line(ctx, 0, theta)
            assert isinstance(fate, EscapedToRay) and len(steps) == 1
            assert abs(abs(pl[-1]) - ctx.scales.r_escape) <= 1e-15 * abs(
                pl[-1])
            for z in pl[1:]:
                assert _angdiff(cmath.phase(z), theta) <= 1e-14


def test_escape_circle_inside_the_cone_radius(monkeypatch):
    # five roots in a row from 0.4 to 1, turned by 0.1, with
    # r_escape_factor 1: their phases nearly align, so both bounds of Phi
    # stay above pi/4 out to r_c = 2.29, and the escape circle, radius 2,
    # lies inside the cone radius.  No trace is certified; each lands back
    # on the circle from its first vertex past it, on the ray and the line
    # of the default configuration's trace.  (On z^4 - 1 the power sums
    # put r_c at the 9/8 R0 floor; on z^4 - 20^4, whose escape circle
    # 1.05 R0 lies inside the floor, the lines meet it before they turn
    # onto their rays.)
    poly = ComplexPolynomial.from_roots(
        1.0, [0.4, 0.55 + 0.1j, 0.7, 0.85 - 0.1j, 1.0]).rotate(0.1)
    config = RunConfig(r_escape_factor=1.0)
    assert PolyContext.of(poly).tps.at_infinity.cone_radius > 2.2
    in_cone = tracer._in_cone
    monkeypatch.setattr(tracer, "_in_cone", lambda *args: pytest.fail(
        "certificate tested inside the escape circle") or in_cone(*args))
    near = build_stokes_graph(poly, config)
    monkeypatch.undo()
    far = build_stokes_graph(poly)
    assert [e.ray for e in near.edges] == [e.ray for e in far.edges]
    for e in near.edges:
        assert e.kind == "escape"
        assert abs(abs(e.polyline[-1]) - near.scales.r_escape) <= 1e-15
        drift, arc = re_xi_drift(poly, e.polyline)
        assert drift <= 1e-14 * (1.0 + arc)


def test_landing_that_does_not_converge_raises(monkeypatch):
    # one Halley pass per circle cannot reach the line from the leading
    # term's first angle on the escape ladder of z + 1; its lone root's
    # series is exact, so the launch lands in that one pass
    monkeypatch.setattr(tracer, "_LANDING_PASSES", 1)
    with pytest.raises(NumericalError,
                       match=r"^landing of the trace from root 0 along "
                             r"1\.0471975512 on \|z\| = \S+ did not "
                             r"converge \(residual \S+\)$") as info:
        trace_stokes_line(PolyContext.of(parse_poly_text("1,1")), 0,
                          math.pi / 3)
    assert len(info.value.residuals) == 1


def test_root_landing_that_does_not_converge_raises(osc, monkeypatch):
    # nor on the launch rung of root 1 of the oscillator, landed directly
    # from the first rung's point of the local model, nor, when the
    # polyline is read, on that first rung
    vertices, fate = trace_stokes_line(PolyContext.of(osc), 1, math.pi / 3)
    monkeypatch.setattr(tracer, "_LANDING_PASSES", 1)
    with pytest.raises(NumericalError,
                       match=r"^landing of the trace from root 1 along "
                             r"1\.0471975512 on \|z - r1\| = 1 did "
                             r"not converge \(residual \S+\)$"):
        trace_stokes_line(PolyContext.of(osc), 1, math.pi / 3)
    with pytest.raises(NumericalError,
                       match=r"^landing of the trace from root 1 along "
                             r"1\.0471975512 on \|z - r1\| = 0\.166667 did "
                             r"not converge \(residual \S+\)$"):
        tracer.land_polyline(vertices, (PolyContext.of(osc), 1, math.pi / 3,
                                        fate))


def test_trace_errors_name_root_direction_and_arc(osc, monkeypatch):
    # the line from root 0 of the oscillator turned by 1e-5, which runs
    # past root 1 before it escapes
    poly = osc.rotate(1e-5)
    ctx = PolyContext.of(poly)
    theta = emanating_directions(poly, ctx.locs[0], 1)[2]
    where = re.escape(f"from root 0 along {theta:.12g}")

    def arc_reached(info):
        return float(str(info.value).rsplit(" ", 1)[1])

    # the arc length counts the launch, the chord from the root to it
    launch = trace_stokes_line(ctx, 0, theta)[0][:2]
    launch_arc = abs(launch[1] - launch[0])

    # a step whose error estimate is always huge is shrunk to underflow,
    # with at most one forced step at the floor accepted on the way
    with monkeypatch.context() as mp:
        mp.setattr(tracer, "_dp5_step", lambda poly, z, w, k0, h:
                   (z + h * k0, 1e300, w, k0))
        with pytest.raises(NumericalError,
                           match=f"^step-size underflow during trace {where} "
                                 f"at arc length ") as info:
            trace_stokes_line(ctx, 0, theta)
    assert str(info.value).endswith(f" {launch_arc:.6g}")
    assert abs(info.value.residuals[0] - launch[-1]) < 1e-14

    # the trace escapes after 61 attempts
    monkeypatch.setattr(tracer, "_MAX_STEP_ATTEMPTS", 20)
    with pytest.raises(NumericalError,
                       match=f"^trace {where} exceeded step budget at arc "
                             f"length ") as info:
        trace_stokes_line(ctx, 0, theta)
    assert arc_reached(info) > launch_arc


@pytest.mark.parametrize("coeffs", ["1,0,-1", "1,0,0.3+0.2i,-1"])
def test_dp5_step_receives_sign_matched_branch(coeffs, monkeypatch):
    poly = parse_poly_text(coeffs)
    _, steps = _spy_on_tracer(monkeypatch)
    checked = 0
    # the graphs of the members turned by k pi/32, k = 0..31
    for member in (poly.rotate(k * math.pi / 32) for k in range(32)):
        steps.clear()
        build_stokes_graph(member)
        for z, w, k0 in steps:
            v = cmath.sqrt(member.evaluate(z))
            if v.real * w.real + v.imag * w.imag < 0.0:
                v = -v
            assert repr(v) == repr(w)
            assert repr(k0) == repr(1j * w.conjugate() / abs(w))
        checked += len(steps)
    assert checked > 300


@pytest.mark.parametrize("t", [1e-3, 1e-4, 1e-5])
def test_closest_approach_model_matches_the_traced_miss(osc, t):
    # the oscillator turned by t: the line from root 0 runs past root 1 at
    # the level delta = (pi/2) sin t, enters its reach once and misses it;
    # the local model's d_min is the traced line's closest approach to
    # within the model's O(d_min / rho) error (0.1-0.9 % here)
    poly = osc.rotate(t)
    ctx = PolyContext.of(poly)
    theta = emanating_directions(poly, ctx.locs[0], 1)[2]
    decisions = []
    approach = tracer._closest_approach

    def spy(*args):
        decisions.append(approach(*args))
        return decisions[-1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tracer, "_closest_approach", spy)
        pl, fate = trace_stokes_line(ctx, 0, theta)
    assert isinstance(fate, EscapedToRay)
    ((delta, d_min),) = decisions
    assert abs(abs(delta) - 0.5 * math.pi * math.sin(t)) <= 1e-12
    traced = min(abs(z - ctx.locs[1]) for z in pl)
    assert d_min <= traced <= 1.02 * d_min


def test_disk_decisions_keep_their_margins(monkeypatch):
    # every hit decision of the surveys, made on entering a root's reach: a
    # hit's modelled closest approach is far inside delta_hit, a miss's far
    # outside (worst 3.4e-5 and 3.3e3 delta_hit here, 4.7e-5 and 3.3e3 over
    # all 300 surveys of both streams)
    decisions = []
    approach = tracer._closest_approach

    def spy(*args):
        out = approach(*args)
        decisions.append(out[1])
        return out
    monkeypatch.setattr(tracer, "_closest_approach", spy)
    hits = misses = 0
    for poly in stream_polys(20260808, 6) + stream_polys(1, 6):
        decisions.clear()
        survey = survey_short_geodesics(poly)
        delta_hit = PolyContext.of(poly).scales.delta_hit
        assert len(survey.geodesics) == sum(
            d <= delta_hit for d in decisions)
        for d_min in decisions:
            if d_min <= delta_hit:
                hits += 1
                assert d_min <= 1e-2 * delta_hit
            else:
                misses += 1
                assert d_min >= 1e2 * delta_hit
    assert hits > 150 and misses >= 3


def test_vertex_near_a_missed_root_raises(osc, monkeypatch):
    # a disk decision that wrongly says "miss" on the finite edge of the
    # oscillator: the trace walks on into root 0, and its first vertex
    # within delta_hit raises, naming the root, delta and d_min
    monkeypatch.setattr(tracer, "_closest_approach",
                        lambda *args: (0.25, 0.5))
    with pytest.raises(NumericalError,
                       match=r"^trace from root 1 along 3\.14159265359 comes "
                             r"within \S+ of root 0, whose reach decided a "
                             r"miss \(delta 0\.25, d_min 0\.5\) at arc "
                             r"length ") as info:
        trace_stokes_line(PolyContext.of(osc), 1, math.pi)
    within = float(str(info.value).split()[8])
    assert within <= PolyContext.of(osc).scales.delta_hit


def test_root_series_match_sqrt_p_and_the_root_rule():
    # within the reach of each root of the stream polynomials, the series
    # of sqrt(P) about the root gives +-sqrt(P), and its primitive the
    # integral from the root of the chart's adaptive panel loop at a
    # tolerance of 1e-14 (worst 3.4e-15 and 4.8e-15 relative here)
    rng = random.Random(7)
    for poly in stream_polys(20260808, 2):
        ctx = PolyContext.of(poly)
        a0 = poly.coeffs[0]
        for series in ctx.tps.at_roots:
            r = series.center
            for _ in range(10):
                zeta = cmath.rect(rng.uniform(0.05, 0.5) * series.rho,
                                  rng.uniform(-math.pi, math.pi))
                s_sum, e_sum = series.chart(zeta)
                w = cmath.sqrt(a0 * series.lead * zeta) * s_sum
                xi = cmath.sqrt(a0 * series.lead * zeta) * zeta * e_sum
                p = poly.evaluate(r + zeta)
                assert abs(w * w - p) <= 1e-14 * abs(p)
                ref = _root_chord_reference(poly, ctx.locs, r, 1, r + zeta,
                                            w, rel_tol=1e-14, abs_floor=0.0)
                assert abs(xi - ref) <= 1e-14 * abs(xi)


def test_root_landing_on_the_oscillator_closed_form(osc):
    # z^2 - 1 about its root 1: xi = (z w - log(z + w)) / 2 with
    # w = sqrt(z^2 - 1).  Lines at several levels land on circles of up to
    # the reach, each point on its circle and its level to rounding
    ctx = PolyContext.of(osc)
    series = ctx.tps.at_roots[1]
    assert series.center == 1.0 and series.rho == 2.0
    assert series.reach == 1.0
    radii = [k / 6 for k in range(1, 6)] + [1.0 - 1e-9]
    for theta in emanating_directions(osc, 1.0, 1):
        for level in (0.0, 1e-3, -1e-3):
            zeta = cmath.rect(radii[0], theta)
            w0 = cmath.sqrt(2.0 * zeta)
            if (1j * w0.conjugate() * zeta.conjugate()).real < 0.0:
                w0 = -w0
            landed, _ = tracer._land(ctx, series, 1.0 + zeta, w0, level,
                                     radii, 1, theta)
            for z, rho in zip(landed, radii):
                w = cmath.sqrt(z * z - 1.0)
                xi = 0.5 * (z * w - cmath.log(z + w))
                assert abs(abs(z - 1.0) - rho) <= 1e-15
                assert abs(abs(xi.real) - abs(level)) <= 1e-15
                # on the line that leaves the root along theta
                assert _angdiff(cmath.phase(z - 1.0), theta) < 0.2


@pytest.mark.parametrize("m", [1, 2, 3])
def test_root_landing_on_a_power_closed_form(m):
    # c (z - r)^m: xi = c^{1/2} (z - r)^{(m+2)/2} / half with half =
    # (m+2)/2, so the line Re xi = level meets |z - r| = rho at the angle
    # phi with |c|^{1/2} rho^half cos(arg c^{1/2} + half phi) = half level;
    # at level 0 the lines are the rays of the emanating directions
    c, r = 0.7 - 1.3j, 0.4 + 0.2j
    poly = ComplexPolynomial.from_roots(c, [r] * m)
    tps = TurningPointSet(((r, m),), coeffs=poly.coeffs)
    ctx = PolyContext(poly=poly, config=DEFAULT_CONFIG, tps=tps,
                      scales=Scales.from_roots(tps.locations),
                      sectors=stokes_sectors(poly))
    series = tps.at_roots[0]
    assert series.rho == math.inf and series.lead == 1.0
    # a lone root's reach is half of D
    assert series.reach == math.inf
    assert ctx.reaches == (0.5 * ctx.scales.d_unit,)
    half = 0.5 * (m + 2)
    radii = [0.1, 0.2, 0.4, 0.8, 1.6]
    # levels up to half of the one that just touches the first circle
    touch = abs(c) ** 0.5 * radii[0] ** half / half
    for theta in emanating_directions(poly, r, m):
        for level in (0.0, 0.3 * touch, -0.5 * touch):
            zeta = cmath.rect(radii[0], theta)
            w0 = cmath.sqrt(c * zeta ** m)
            if (1j * w0.conjugate() * zeta.conjugate()).real < 0.0:
                w0 = -w0
            landed, _ = tracer._land(ctx, series, r + zeta, w0, level,
                                     radii, 0, theta)
            arg_c = 0.5 * cmath.phase(c)
            for z, rho in zip(landed, radii):
                assert abs(abs(z - r) - rho) <= 4e-16 * rho
                # either sign of c^{1/2} and of the half power
                ratio = half * level / (abs(c) ** 0.5 * rho ** half)
                phis = [(s * math.acos(sign * ratio) - arg_c) / half
                        for s in (1, -1) for sign in (1, -1)]
                assert min(_angdiff(cmath.phase(z - r), phi + 2 * math.pi
                                    * k / half)
                           for phi in phis for k in range(m + 2)) <= 4e-15
                if level == 0.0:
                    assert _angdiff(cmath.phase(z - r), theta) <= 4e-15


def test_lone_root_launch_is_on_its_ray():
    # the lone root of c (z - r): no other root bounds its reach, so the
    # launch radius is half of d_unit; the rungs' points lie on the ray of
    # each emanating direction, the launch just inside that radius
    c, r = 0.7 - 1.3j, 0.4 + 0.2j
    poly = ComplexPolynomial.from_roots(c, [r])
    ctx = PolyContext.of(poly)
    assert ctx.locs == (r,)
    reach = 0.5 * ctx.scales.d_unit
    for theta in emanating_directions(poly, r, 1):
        vertices, fate = trace_stokes_line(ctx, 0, theta)
        assert isinstance(fate, EscapedToRay) and vertices[0] == r
        pl = tracer.land_polyline(vertices, (ctx, 0, theta, fate))
        assert pl[tracer._RUNGS] == vertices[1]
        rungs = [abs(z - r) for z in pl[1:1 + tracer._RUNGS]]
        assert rungs[:-1] == pytest.approx(
            [reach * k / tracer._RUNGS for k in range(1, tracer._RUNGS)],
            rel=1e-15)
        assert reach * (1 - 2e-9) < rungs[-1] < reach
        for z in pl[1:1 + tracer._RUNGS]:
            assert _angdiff(cmath.phase(z - r), theta) <= 1e-15


def _chord_strays(poly, ctx, polyline, worst):
    """The stray |Re xi_r| / (|sqrt(P)| rho) at 1/4, 1/2 and 3/4 of each
    chord inside the reach of the root r at either end of ``polyline``,
    with xi_r the primitive of the root's series; the worst per end kind
    goes into ``worst``."""
    ends = [(polyline, "launch")]
    if polyline[-1] in ctx.locs:
        ends.append((polyline[::-1], "hit"))
    for pl, kind in ends:
        i = ctx.locs.index(pl[0])
        series = ctx.tps.at_roots[i]
        k = 1
        while k < len(pl) and abs(pl[k] - pl[0]) < 0.5 * series.rho:
            for f in (0.25, 0.5, 0.75):
                z = pl[k - 1] + f * (pl[k] - pl[k - 1])
                w = cmath.sqrt(poly.evaluate(z))
                xi = series.xi(poly.coeffs[0], z, w)
                worst[kind] = max(worst[kind],
                                  abs(xi.real) / (abs(w) * series.rho))
            k += 1


def test_chords_inside_a_reach_stay_near_the_line():
    # every chord inside a root's reach, at either end of an edge of the
    # criterion-6 graphs or of a criterion-3 geodesic, lies within 1.7e-3
    # rho of the line: the rungs are a sixth of the reach apart (worst
    # 1.5e-3 at the launch end and 8.3e-4 at the hit end here)
    worst = {"launch": 0.0, "hit": 0.0}
    for poly in criterion_6_polys():
        ctx = PolyContext.of(poly)
        for e in build_stokes_graph(poly).edges:
            _chord_strays(poly, ctx, e.polyline, worst)
    rng = random.Random(20260808)
    for d in (3, 4, 5):
        for _ in range(50):
            poly = random_simple_poly(rng, d, min_sep=0.5, radius=1.5)
            try:
                survey = survey_short_geodesics(poly)
            except (NonGenericError, ClearanceError):
                continue
            for g in survey.geodesics:
                rot = PolyContext.of(poly).rotate(g.t_star)
                _chord_strays(rot.poly, rot, g.polyline, worst)
    assert 0.0 < worst["launch"] <= 1.7e-3
    assert 0.0 < worst["hit"] <= 1.7e-3


def test_length_cap_comes_after_the_hit_decision():
    # on z^2 - 1 the line from root 1 toward root -1 enters that root's
    # reach on its first step; with the cap just past the launch's arc,
    # that step crosses the cap too, and the trace ends on its hit
    poly = ComplexPolynomial.from_roots(1.0, [1.0, -1.0])
    ctx = PolyContext.of(poly)
    src = min(range(2), key=lambda i: abs(ctx.locs[i] - 1.0))
    launch = trace_stokes_line(ctx, src, math.pi)[0][:2]
    launch_arc = abs(launch[1] - launch[0])
    config = RunConfig(l_max_factor=1.01 * launch_arc / ctx.scales.d_unit)
    capped = PolyContext.of(poly, config)
    polyline, fate = trace_stokes_line(capped, src, math.pi)
    assert isinstance(fate, HitTurningPoint) and fate.target == 1 - src
    assert polyline[:len(launch)] == launch
    assert polyline[-1] == ctx.locs[1 - src]
    # a cap below the launch's arc truncates the trace at its launch
    config = RunConfig(l_max_factor=0.99 * launch_arc / ctx.scales.d_unit)
    polyline, fate = trace_stokes_line(PolyContext.of(poly, config), src,
                                       math.pi)
    assert isinstance(fate, tracer.Truncated)
    assert fate.arc_length == launch_arc
    assert polyline == launch


def test_launch_that_does_not_land_directly_takes_the_rung_chain():
    # draw 0 of degree 20 of `geodesic_census.py --degrees 6,8,12,16,20
    # --trials 4 --seed 4242`, turned to the strip-basis angle its survey
    # tries last: one Halley solve from the local model's first-rung point
    # does not reach the launch rung of root 4 (residual 2.31e4), the chain
    # over every rung does, and the trace launches from its last point.
    # Without the chain the survey raised this NumericalError; with it,
    # the typed "face with 10 ends at infinity" of a degree-20 graph
    rng = random.Random(4242)
    for d in (6, 8, 12, 16, 20):
        radius = 1.5 if d <= 8 else 1.5 * math.sqrt(d / 8)
        draws = [random_simple_poly(rng, d, radius=radius)
                 for _ in range(1 if d == 20 else 4)]
    ctx = PolyContext.of(draws[0].rotate(2.090606372434))
    theta = 2.375495033946463
    own, z_c, w_c, rungs = tracer._launch_start(ctx, 4, theta)
    with pytest.raises(NumericalError, match=r"on \|z - r4\| = 0\.865089 "
                                             r"did not converge"):
        tracer._land(ctx, own, z_c, w_c, 0.0, rungs[-1:], 4, theta)
    chain = tracer._land(ctx, own, z_c, w_c, 0.0, rungs, 4, theta)[0]
    vertices, fate = trace_stokes_line(ctx, 4, theta)
    assert vertices[1] == chain[-1] and isinstance(fate, EscapedToRay)
    polyline = tracer.land_polyline(vertices, (ctx, 4, theta, fate))
    assert polyline[1:tracer._RUNGS + 1] == tuple(chain)


def test_surveys_and_diagrams_land_one_circle_per_launch_and_escape(
        monkeypatch):
    # chord_diagram and survey_short_geodesics land each trace's launch on
    # its outermost rung and an escape on the escape circle, one circle
    # each, and nothing at a hit; the inner rungs and ladder circles are
    # landed when a polyline is read, once
    landings, fates = [], []
    land, trace = tracer._land, tracer.trace_stokes_line

    def landed(ctx, series, z_c, w_c, level, radii, *args):
        landings.append((series.at_root, len(radii)))
        return land(ctx, series, z_c, w_c, level, radii, *args)

    def traced(*args, **kwargs):
        out = trace(*args, **kwargs)
        fates.append(out[1])
        return out
    monkeypatch.setattr(tracer, "_land", landed)
    monkeypatch.setattr(tracer, "trace_stokes_line", traced)
    monkeypatch.setattr(geodesics, "trace_stokes_line", traced)
    polys = stream_polys(20260808, 2)
    for poly in polys:
        chord_diagram(poly)
    surveys = [survey_short_geodesics(poly) for poly in polys]
    escapes = sum(isinstance(f, EscapedToRay) for f in fates)
    hits = sum(isinstance(f, HitTurningPoint) for f in fates)
    assert hits > 20 and escapes > 100 and hits + escapes == len(fates)
    assert all(n == 1 for _, n in landings)
    assert [at_root for at_root, _ in landings].count(True) == len(fates)
    assert [at_root for at_root, _ in landings].count(False) == escapes

    # a geodesic's polyline lands its launch's inner rungs, then the rungs
    # below its entering vertex at the partner
    landings.clear()
    geodesics_read = [g for survey in surveys for g in survey.geodesics]
    for g in geodesics_read:
        assert g.polyline[0] == g.vertices[0] and len(g.polyline) > len(
            g.vertices)
        assert g.polyline is g.polyline
    assert landings[::2] == [(True, tracer._RUNGS - 1)] * len(geodesics_read)
    assert all(at_root and 0 < n <= tracer._RUNGS
               for at_root, n in landings[1::2])


def test_read_polylines_are_the_chained_landings():
    # a read polyline's inner rungs and ladder points are those of one
    # chain of landings over every circle, bit for bit; the launch and the
    # escape's end, which the trace lands directly, agree with the chain's
    # last points to rounding (worst 4.1e-16 relative here).  The lines
    # are the graph edges and the geodesics of the first two stream
    # polynomials per degree
    lines = []
    for poly in stream_polys(20260808, 2):
        lines += build_stokes_graph(poly).edges
        lines += survey_short_geodesics(poly).geodesics
    worst = 0.0
    ends = {"hit": 0, "escape": 0}
    for line in lines:
        ctx, root, theta, fate = line.landing
        pl = line.polyline
        own, z_c, w_c, rungs = tracer._launch_start(ctx, root, theta)
        chain = tracer._land(ctx, own, z_c, w_c, 0.0, rungs, root, theta)[0]
        assert pl[1:tracer._RUNGS] == tuple(chain[:-1])
        worst = max(worst, abs(pl[tracer._RUNGS] - chain[-1])
                    / max(abs(chain[-1]), rungs[-1]))
        if isinstance(fate, EscapedToRay):
            ends["escape"] += 1
            ladder = [ctx.scales.r_escape]
            while 0.5 * ladder[-1] > abs(fate.vertex):
                ladder.append(0.5 * ladder[-1])
            chain = tracer._land(ctx, ctx.tps.at_infinity, fate.vertex,
                                 fate.w, fate.level, ladder[::-1], root,
                                 theta)[0]
            assert pl[-len(ladder):-1] == tuple(chain[:-1])
            worst = max(worst, abs(pl[-1] - chain[-1]) / abs(chain[-1]))
        else:
            ends["hit"] += 1
            target = ctx.locs[fate.target]
            below = [x for x in reversed(
                tracer._rungs(ctx.reaches[fate.target]))
                if x < abs(fate.vertex - target)]
            chain = tracer._land(ctx, ctx.tps.at_roots[fate.target],
                                 fate.vertex, fate.w, fate.level, below,
                                 root, theta)[0]
            assert pl[-1 - len(below):] == (*chain, target)
            assert pl[-2 - len(below)] == fate.vertex == line.vertices[-2]
    assert ends["hit"] > 10 and ends["escape"] > 50
    assert worst <= 1e-15
