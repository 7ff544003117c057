import cmath
import math
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from stokesgeo import domains, geodesics, tracer
from stokesgeo import (ComplexPolynomial, HitTurningPoint, NonGenericError,
                       NumericalError, PsiPolygon, ShortGeodesic,
                       candidate_angles, enumerate_short_geodesics,
                       re_xi_drift, survey_short_geodesics,
                       teichmuller_defect, verify_geodesic)
from stokesgeo.cli import main
from stokesgeo.pathint import root_to_root_period
from stokesgeo.polynomial import PolyContext
from tests.conftest import _far_root_draw, random_simple_poly, stream_polys

PI = math.pi


def _mod_pi_dist(a, b):
    d = math.fmod(a - b, PI)
    if d > PI / 2:
        d -= PI
    if d < -PI / 2:
        d += PI
    return abs(d)


def test_candidates_oscillator(osc):
    cands = candidate_angles(osc)
    assert len(cands) == 1
    pair, t, per = cands[0]
    assert pair == (0, 1)
    assert abs(t) < 1e-12


def test_candidates_cubic_unity(cubic_unity):
    cands = candidate_angles(cubic_unity)
    ts = sorted(t for _, t, _ in cands)
    assert len(ts) == 3
    diffs = [ts[1] - ts[0], ts[2] - ts[1], PI - ts[2] + ts[0]]
    for d in diffs:
        assert d == pytest.approx(PI / 3, abs=1e-9)


def test_candidates_odd_cubic(cubic_odd):
    # segment periods: (roots -1, 0) is real, (0, 1) purely imaginary
    cands = {pair: t for pair, t, _ in candidate_angles(cubic_odd)}
    assert _mod_pi_dist(cands[(1, 2)], 0.0) < 1e-10
    assert _mod_pi_dist(cands[(0, 1)], PI / 2) < 1e-10
    # the blocked pair gets the detour-path angle, strictly between
    assert 0.0 < cands[(0, 2)] < PI / 2


def test_verify_oscillator_connection(osc):
    geo = verify_geodesic(osc, (0, 1), 0.0, 1j * PI / 2)
    assert isinstance(geo, ShortGeodesic)
    assert abs(geo.t_star) < 1e-12
    assert max(abs(z.imag) for z in geo.polyline) < 1e-6
    # the period is the survey's, from the class of the mutation walk
    (geo,) = survey_short_geodesics(osc).geodesics
    assert geo.period == pytest.approx(1j * PI / 2, abs=1e-9)


def test_periods_match_the_traced_walk(stream_rays):
    # the class period e^{-it0} sum n_s Z_s is the walk of sqrt(P) along
    # the traced geodesic, sign included
    for poly, rays in stream_rays:
        ctx = PolyContext.of(poly)
        for ray in rays:
            geo = ray.geodesic
            walked = root_to_root_period(ctx, geo.polyline, *geo.pair)
            assert abs(geo.period - walked) <= 1e-12 * abs(walked)


def test_survey_crosses_each_strip_once_per_attempt(monkeypatch):
    # the survey reads no width: each decomposition it tries crosses its
    # d - 1 strips once, for their periods
    crossings = []
    cross_strip = domains.cross_strip

    def counted(graph, *args, **kwargs):
        crossings.append(graph)
        return cross_strip(graph, *args, **kwargs)
    monkeypatch.setattr(domains, "cross_strip", counted)
    outcomes = _record_decompositions(monkeypatch)
    for poly in stream_polys(20260808, 1):
        crossings.clear()
        outcomes.clear()
        survey = survey_short_geodesics(poly)
        assert len(survey.geodesics) >= poly.degree - 1
        assert outcomes == ["generic"]
        assert len(crossings) == poly.degree - 1


def test_direct_hit_stops_tracing_at_the_hit(cubic_unity, monkeypatch):
    pair = (0, 1)
    t, per = {p: (t, per) for p, t, per in candidate_angles(cubic_unity)}[pair]
    fates = []
    trace = geodesics.trace_stokes_line

    def spy(*args, **kwargs):
        pl, fate = trace(*args, **kwargs)
        fates.append(fate)
        return pl, fate
    monkeypatch.setattr(geodesics, "trace_stokes_line", spy)
    geo = verify_geodesic(cubic_unity, pair, t, per.value)
    assert isinstance(geo, ShortGeodesic) and geo.pair == pair
    # the first of the three traces hits the partner, and none runs after it
    assert len(fates) == 1
    assert isinstance(fates[0], HitTurningPoint)
    assert fates[0].target == pair[1]


def test_verify_falls_back_to_the_next_direction(cubic_unity, monkeypatch):
    # a decoy direction along arg(b - a) is tried first and escapes; the
    # loop goes on to the emanating directions and returns the partner hit
    pair = (0, 1)
    t, per = {p: (t, per) for p, t, per in candidate_angles(cubic_unity)}[pair]
    want = verify_geodesic(cubic_unity, pair, t, per.value)
    locs = PolyContext.of(cubic_unity).locs
    decoy = cmath.phase(locs[1] - locs[0])
    directions = geodesics.emanating_directions
    monkeypatch.setattr(geodesics, "emanating_directions",
                        lambda *args: directions(*args) + [decoy])
    tried = []
    trace = geodesics.trace_stokes_line

    def spy(poly, root, theta, **kwargs):
        tried.append(theta)
        if theta == decoy:
            return [locs[root]], tracer.EscapedToRay(0, 0j)
        return trace(poly, root, theta, **kwargs)
    monkeypatch.setattr(geodesics, "trace_stokes_line", spy)
    geo = verify_geodesic(cubic_unity, pair, t, per.value)
    assert tried[0] == decoy and len(tried) == 2
    assert geo == want


def test_verify_names_the_last_third_root_in_emanating_order(monkeypatch):
    # three directions from root 0 of a quartic: the first in emanating
    # order lands on root 2, the second on root 3, the third (tried first,
    # being nearest arg(b - a)) escapes
    poly = stream_polys(20260808, 1)[1]
    assert poly.degree == 4
    locs = PolyContext.of(poly).locs
    towards = cmath.phase(locs[1] - locs[0])
    dirs = [towards + 2.5, towards - 1.2, towards + 0.1]
    fates = {dirs[0]: HitTurningPoint(2, 0.0), dirs[1]: HitTurningPoint(3, 0.0),
             dirs[2]: tracer.EscapedToRay(0, 0j)}
    monkeypatch.setattr(geodesics, "emanating_directions",
                        lambda *args: list(dirs))
    tried = []

    def spy(poly, root, theta, **kwargs):
        tried.append(theta)
        return [locs[root]], fates[theta]
    monkeypatch.setattr(geodesics, "trace_stokes_line", spy)
    with pytest.raises(NonGenericError, match=r"hits third root 3$"):
        verify_geodesic(poly, (0, 1), 0.0, 1.0)
    # tried nearest arg(b - a) first, so root 2 was hit last
    assert tried == [dirs[2], dirs[1], dirs[0]]


def test_verification_traces_once_per_geodesic(monkeypatch):
    traces = []
    trace = geodesics.trace_stokes_line

    def counted(*args, **kwargs):
        traces.append(args)
        return trace(*args, **kwargs)
    monkeypatch.setattr(geodesics, "trace_stokes_line", counted)
    for poly in stream_polys(20260808, 4):
        traces.clear()
        survey = survey_short_geodesics(poly)
        assert len(traces) == len(survey.geodesics)


def test_verify_oscillator_miss_recovers_connection(osc):
    # the traces at 0.3 miss the partner; the survey's mutation walk puts
    # the connection at t* = 0
    assert verify_geodesic(osc, (0, 1), 0.3, 1j * PI / 2) is None
    (geo,) = survey_short_geodesics(osc).geodesics
    assert geo.pair == (0, 1)
    assert _mod_pi_dist(geo.t_star, 0.0) <= 1e-10


def test_verify_odd_cubic_blocked_pair(cubic_odd):
    # (0, 2) is blocked by root 1: its candidate angle connects nothing
    cands = {pair: (t, per.value)
             for pair, t, per in candidate_angles(cubic_odd)}
    try:
        res = verify_geodesic(cubic_odd, (0, 2), *cands[(0, 2)])
    except NonGenericError:
        return
    assert res is None


def test_enumerate_oscillator(osc):
    geos = enumerate_short_geodesics(osc)
    assert len(geos) == 1
    assert geos[0].pair == (0, 1)


def test_enumerate_cubic_unity(cubic_unity):
    geos = enumerate_short_geodesics(cubic_unity)
    assert len(geos) == 3
    ts = [g.t_star for g in geos]
    for a, b in zip(ts, ts[1:]):
        assert b - a == pytest.approx(PI / 3, abs=1e-8)


def test_enumerate_odd_cubic(cubic_odd):
    survey = survey_short_geodesics(cubic_odd)
    pairs = sorted(g.pair for g in survey.geodesics)
    assert pairs == [(0, 1), (1, 2)]
    ts = {g.pair: g.t_star for g in survey.geodesics}
    assert _mod_pi_dist(ts[(1, 2)], 0.0) < 1e-8
    assert _mod_pi_dist(ts[(0, 1)], PI / 2) < 1e-8


def test_count_real_rooted_quartic():
    p = ComplexPolynomial.from_roots(1.0, [-3.0, -1.0, 1.0, 3.0])
    survey = survey_short_geodesics(p)
    pairs = sorted(g.pair for g in survey.geodesics)
    assert pairs == [(0, 1), (1, 2), (2, 3)]      # consecutive segments only
    assert len(survey.geodesics) == p.degree - 1


def test_per_pair_uniqueness(cubic_unity):
    geos = enumerate_short_geodesics(cubic_unity)
    assert len({g.pair for g in geos}) == len(geos)


def test_candidate_consistency(osc, cubic_unity):
    for poly in (osc, cubic_unity):
        for g in enumerate_short_geodesics(poly):
            val = (g.period * complex(math.cos(g.t_star), math.sin(g.t_star)))
            assert abs(val.real) <= 1e-8 * abs(g.period)


def test_rotation_equivariance(osc, cubic_unity):
    s = 0.35
    for poly in (osc, cubic_unity):
        base = {g.pair: g.t_star for g in enumerate_short_geodesics(poly)}
        rot = {g.pair: g.t_star
               for g in enumerate_short_geodesics(poly.rotate(s))}
        assert set(base) == set(rot)
        for pair in base:
            assert _mod_pi_dist(rot[pair], base[pair] - s) < 1e-8


def test_geodesic_polyline_drift(osc, cubic_unity):
    for poly, s in ((osc, 0.0), (cubic_unity, 0.0)):
        for g in enumerate_short_geodesics(poly):
            rot = poly.rotate(g.t_star)
            drift, arc = re_xi_drift(rot, g.polyline)
            assert drift <= 1e-6 * (1.0 + arc)


def test_survey_below_lower_bound_raises(cubic_unity, monkeypatch):
    # a survey must not report a short count: a state of the mutation walk
    # whose trace misses its partner is a numerical failure that names the
    # pair, t* and the class
    def miss(poly, pair, t, period, config):
        return None

    monkeypatch.setattr(geodesics, "verify_geodesic", miss)
    with pytest.raises(NumericalError,
                       match=r"pair \(0, 1\), class \(1, 0\): no trace at "
                       r"t=1\.570796326795 hits root 1 "
                       r"\(t\* = 1\.570796326795\)"):
        survey_short_geodesics(cubic_unity)


def test_survey_below_lower_bound_non_generic(cubic_unity, monkeypatch):
    # a non-generic candidate explains the short count
    def land_on_third_root(poly, pair, t, period, config):
        raise NonGenericError("trace lands on a third root")

    monkeypatch.setattr(geodesics, "verify_geodesic", land_on_third_root)
    with pytest.raises(NonGenericError, match="fewer than the d-1 = 2"):
        survey_short_geodesics(cubic_unity)


@pytest.mark.parametrize("stage, where", [
    ("strip basis", "strip basis at t0=1.570796326795"),
    ("verification trace",
     "pair (0, 1), verification trace at t=0.000000000000"),
])
def test_survey_numerical_errors_name_their_context(osc, stage, where,
                                                    monkeypatch, capsys,
                                                    tmp_path):
    # a NumericalError from a trace of the strip basis or of a
    # verification comes out of the survey with its stage, its angle and
    # the pair verified, keeping its residuals and chained to the original;
    # the command line prints it and the residuals on stderr
    def fail(*args, **kwargs):
        raise NumericalError("trace failed", residuals=[0.25, 0.5])
    monkeypatch.setattr(tracer if stage == "strip basis" else geodesics,
                        "trace_stokes_line", fail)
    with pytest.raises(NumericalError) as info:
        survey_short_geodesics(osc)
    assert str(info.value) == f"{where}: trace failed"
    assert info.value.residuals == [0.25, 0.5]
    assert str(info.value.__cause__) == "trace failed"
    assert main(["geodesics", "--poly", "1,0,-1", "--out",
                 str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        f"numerical failure: {where}: trace failed\nresiduals: 0.25, 0.5\n")


def _count_traces(monkeypatch):
    """Counts of trace_stokes_line calls and of strip decompositions."""
    counts = {"traces": 0, "decompositions": 0}
    trace, graph = tracer.trace_stokes_line, domains.build_stokes_graph

    def counted_trace(*args, **kwargs):
        counts["traces"] += 1
        return trace(*args, **kwargs)

    def counted_graph(*args, **kwargs):
        counts["decompositions"] += 1
        return graph(*args, **kwargs)
    monkeypatch.setattr(tracer, "trace_stokes_line", counted_trace)
    monkeypatch.setattr(geodesics, "trace_stokes_line", counted_trace)
    monkeypatch.setattr(domains, "build_stokes_graph", counted_graph)
    return counts


def test_survey_work_does_not_depend_on_root_labels(monkeypatch):
    # turning the roots of a cubic by 2 pi k / 5 maps P dz^2 to itself and
    # only relabels the roots
    base = PolyContext.of(stream_polys(20260808, 1)[0]).locs
    counts = _count_traces(monkeypatch)
    reference, labels = None, set()
    for k in range(5):
        turn = cmath.exp(2j * PI * k / 5)
        poly = ComplexPolynomial.from_roots(1.0, [turn * r for r in base])
        locs = PolyContext.of(poly).locs
        label = [min(range(3), key=lambda j: abs(z / turn - base[j]))
                 for z in locs]
        labels.add(tuple(label))
        counts.update(traces=0, decompositions=0)
        survey = survey_short_geodesics(poly)
        assert counts["traces"] <= (3 * 3 * counts["decompositions"]
                                    + 3 * len(survey.geodesics))
        geos = {tuple(sorted((label[g.pair[0]], label[g.pair[1]]))): g.t_star
                for g in survey.geodesics}
        if reference is None:
            reference = geos
        assert set(geos) == set(reference)
        for pair, t_star in geos.items():
            assert _mod_pi_dist(t_star, reference[pair]) <= 1e-12
    assert len(labels) > 1


# survey pairs on the first 4 polynomials per degree of stream 20260808
# and on z^3 - z, as the trace-and-refute survey found them
REFERENCE_PAIRS = (
    [(0, 1), (1, 2)], [(0, 1), (0, 2), (1, 2)], [(0, 1), (0, 2), (1, 2)],
    [(0, 1), (1, 2)],
    [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)],
    [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)],
    [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)],
    [(0, 1), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
    [(0, 2), (0, 3), (1, 2), (1, 4), (2, 3), (2, 4)],
    [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4)],
    [(0, 1), (1, 2)],
)


def test_survey_pairs_follow_the_exchange_matrix_orientation(cubic_odd):
    # the other sign of B leaves different classes on 12 of these 13
    for poly, pairs in zip(stream_polys(20260808, 4) + [cubic_odd],
                           REFERENCE_PAIRS):
        survey = survey_short_geodesics(poly)
        assert sorted(g.pair for g in survey.geodesics) == pairs
        assert not survey.errors


def test_half_turn_must_end_on_negated_basis():
    # B = [[0, 1], [0, 0]] is no exchange matrix: its walk leaves gamma_1
    # and then stops on the class gamma_2 - gamma_1
    with pytest.raises(NumericalError, match=r"from t0=0\.250000000000 ends "
                       r"on basis \[\(-1, 1\), \(0, -1\)\]"):
        geodesics._half_turn([cmath.exp(0.5j), cmath.exp(-0.7j)],
                             [[0, 1], [0, 0]], 0.25)


def _record_decompositions(monkeypatch):
    outcomes = []
    strip_basis = geodesics.strip_basis

    def recorded(poly, t0, config):
        try:
            out = strip_basis(poly, t0, config)
        except NonGenericError as exc:
            outcomes.append(str(exc))
            raise
        outcomes.append("generic")
        return out
    monkeypatch.setattr(geodesics, "strip_basis", recorded)
    return outcomes


def test_start_angle_moves_to_next_gap(monkeypatch):
    # a strip of the decomposition at the widest gap that cannot be
    # crossed sends the survey to the next gap
    poly = stream_polys(1, 49)[2 * 49 + 48]
    cross_strip = domains.cross_strip
    calls = []

    def first_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise NonGenericError("no interior crossing segment found")
        return cross_strip(*args, **kwargs)
    monkeypatch.setattr(domains, "cross_strip", first_fails)
    outcomes = _record_decompositions(monkeypatch)
    survey = survey_short_geodesics(poly)
    assert outcomes == ["no interior crossing segment found", "generic"]
    assert sorted(g.pair for g in survey.geodesics) == [
        (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]


def test_degree_12_strips_are_crossed():
    # at all three start angles, this draw has a strip that no straight
    # segment between fixed fractions of its two boundary edges crosses
    # inside the face; walking the edges from the roots finds a crossing
    rng = random.Random(4242)
    poly = [random_simple_poly(rng, 12, radius=2.0) for _ in range(18)][17]
    survey = survey_short_geodesics(poly)
    assert 11 <= len(survey.geodesics) <= 66
    assert survey.errors == []


def test_far_root_draw_15_connects():
    # the diameter is 93 and the near roots are about 0.5 apart.  A launch
    # point 1e-3 D = 0.093 from root 3, projected once with its residual
    # Re xi = 9.3e-6 dropped, put the (3, 4) trace on a level that passes
    # root 4 at 1.07e-4, outside delta_hit = 9.3e-5.  Landed from the
    # local series of sqrt(P) about the root, the launch is on the root's
    # level to rounding (every hit of this draw is within 1.5e-3 delta_hit;
    # with the series from the product of the computed roots, 0.12)
    poly = _far_root_draw(15)
    assert poly.degree == 5
    survey = survey_short_geodesics(poly)
    assert survey.errors == []
    assert len(survey.geodesics) == 8
    assert (3, 4) in [g.pair for g in survey.geodesics]


def test_far_root_hits_keep_their_margins(monkeypatch):
    # the far root's reach is about 45 wide, where |xi| reaches 1e6, so
    # its launch must be on the level of P as its coefficients give it.
    # The local series, taken from the Taylor coefficients of P at the
    # root, keeps every hit of these draws within 1e-2 delta_hit (worst
    # 4.1e-3, draw 25); the series of the product of the computed roots,
    # whose near roots are off by 3e-11, reached 0.12 (draw 15)
    decisions = []
    approach = tracer._closest_approach

    def spy(*args):
        out = approach(*args)
        decisions.append(out[1])
        return out
    monkeypatch.setattr(tracer, "_closest_approach", spy)
    for k in (1, 5, 13, 15, 25):
        poly = _far_root_draw(k)
        decisions.clear()
        survey = survey_short_geodesics(poly)
        delta_hit = PolyContext.of(poly).scales.delta_hit
        hits = [d for d in decisions if d <= delta_hit]
        assert len(hits) == len(survey.geodesics)
        assert max(hits) <= 1e-2 * delta_hit


def test_start_angle_attempts_run_out(cubic_unity, monkeypatch):
    def no_crossing(*args, **kwargs):
        raise NonGenericError("no interior crossing segment found")
    monkeypatch.setattr(domains, "cross_strip", no_crossing)
    outcomes = _record_decompositions(monkeypatch)
    with pytest.raises(NonGenericError, match="no generic strip "
                       "decomposition"):
        survey_short_geodesics(cubic_unity)
    assert len(outcomes) == geodesics.START_ATTEMPTS == 3


def test_start_angles_skip_coinciding_candidates():
    # several pairs of the real quartic share the angles 0 and pi/2
    p = ComplexPolynomial.from_roots(1.0, [-3.0, -1.0, 1.0, 3.0])
    cands = [t for _, t, _ in candidate_angles(p)]
    assert len(set(cands)) < len(cands)
    starts = geodesics._start_angles(cands)
    assert len(starts) == len(set(cands))
    for t0 in starts:
        assert min(_mod_pi_dist(t0, t) for t in cands) > 0.3
    survey = survey_short_geodesics(p)
    assert sorted(g.pair for g in survey.geodesics) == [(0, 1), (1, 2),
                                                        (2, 3)]


def test_start_angles_order_equal_gaps_by_angle():
    # z^3 - 1 has the candidate angles pi/6 + k pi/3, here with the last
    # bits of one quadrature: the three gaps are equal, and the widest by
    # rounding (the last) must not go first
    cands = [0.5235987755982989, 1.5707963267948966, 2.617993877991494]
    widths = [b - a for a, b in zip(cands, cands[1:] + [cands[0] + PI])]
    assert max(widths) == widths[2]
    starts = geodesics._start_angles(cands)
    assert starts == pytest.approx([PI / 3, 2 * PI / 3, 0.0], abs=1e-12)


def test_survey_traces_at_t_star_when_candidate_is_off(monkeypatch):
    poly = stream_polys(20260808, 1)[0]
    expected = {g.pair: g.t_star
                for g in survey_short_geodesics(poly).geodesics}
    moved = min(expected)
    candidates = geodesics.candidate_angles

    def perturbed(poly, config):
        return [(pair, t + 1e-6 if pair == moved else t, per)
                for pair, t, per in candidates(poly, config)]
    monkeypatch.setattr(geodesics, "candidate_angles", perturbed)
    got = {g.pair: g.t_star for g in survey_short_geodesics(poly).geodesics}
    assert set(got) == set(expected)
    for pair, t_star in got.items():
        assert _mod_pi_dist(t_star, expected[pair]) <= 1e-12


def test_simple_roots_required():
    p = ComplexPolynomial.from_roots(1.0, [0.0, 0.0, 1.0])
    with pytest.raises(NonGenericError):
        enumerate_short_geodesics(p)


# --- defect identity -------------------------------------------------------------

def test_defect_two_simple_zero_edges():
    poly = PsiPolygon(vertices=((1, 0.0), (1, 0.0)), interior=())
    assert teichmuller_defect(poly) == pytest.approx(0.0)


def test_defect_double_zero_with_interior_pole():
    poly = PsiPolygon(vertices=((2, math.pi / 2),), interior=(-2,))
    assert teichmuller_defect(poly) == pytest.approx(0.0)


def test_defect_bigon_negative():
    theta1, theta2 = 0.4, 1.1
    poly = PsiPolygon(vertices=((1, theta1), (1, theta2)), interior=())
    assert teichmuller_defect(poly) == pytest.approx(
        -3.0 * (theta1 + theta2) / (2 * PI))
    assert teichmuller_defect(poly) < 0


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-6, 2 * PI), st.floats(1e-6, 2 * PI))
def test_defect_bigon_property(theta1, theta2):
    poly = PsiPolygon(vertices=((1, theta1), (1, theta2)), interior=())
    assert teichmuller_defect(poly) < 0


def test_polygon_validation():
    with pytest.raises(ValueError):
        PsiPolygon(vertices=((1, -0.1),))
    with pytest.raises(ValueError):
        PsiPolygon(vertices=((-2, 1.0),))
