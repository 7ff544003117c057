import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from stokesgeo import geodesics
from stokesgeo import (ComplexPolynomial, GeodesicRefutation, NonGenericError,
                       NumericalError, PsiPolygon, ShortGeodesic,
                       candidate_angles, enumerate_short_geodesics,
                       re_xi_drift, survey_short_geodesics,
                       teichmuller_defect, verify_geodesic)

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
    geo = verify_geodesic(osc, (0, 1), 0.0)
    assert isinstance(geo, ShortGeodesic)
    assert abs(geo.t_star) < 1e-12
    assert max(abs(z.imag) for z in geo.polyline) < 1e-6
    assert geo.period == pytest.approx(1j * PI / 2, abs=1e-9)


def test_direct_hit_stops_tracing_at_the_hit(cubic_unity, monkeypatch):
    pair = (0, 1)
    t = {p: t for p, t, _ in candidate_angles(cubic_unity)}[pair]

    def eager(vc, pair, t, track_drift, hit_radius=None):
        rot = vc.ctx.rotate(t)
        return [geodesics.trace_stokes_line(rot.poly, pair[0], theta,
                                            context=rot,
                                            track_drift=track_drift,
                                            hit_radius=hit_radius)
                for theta in vc.directions(rot, pair[0])]
    with monkeypatch.context() as m:
        m.setattr(geodesics._VerifyContext, "trace_all", eager)
        expected = verify_geodesic(cubic_unity, pair, t)

    drift_fates = []
    trace = geodesics.trace_stokes_line

    def spy(*args, **kwargs):
        pl, fate = trace(*args, **kwargs)
        if kwargs["track_drift"]:
            drift_fates.append(fate)
        return pl, fate
    monkeypatch.setattr(geodesics, "trace_stokes_line", spy)
    geo = verify_geodesic(cubic_unity, pair, t)
    assert isinstance(geo, ShortGeodesic) and repr(geo) == repr(expected)
    # the first of the three drift-mode traces hits the partner, and none
    # runs after it
    assert len(drift_fates) == 1
    assert drift_fates[0].target == pair[1]


def test_verify_oscillator_miss_recovers_connection(osc):
    # the trace at 0.3 misses; the bisected transition is the connection
    res = verify_geodesic(osc, (0, 1), 0.3)
    assert isinstance(res, ShortGeodesic)
    assert _mod_pi_dist(res.t_star, 0.0) <= 1e-10


def test_verify_odd_cubic_blocked_pair(cubic_odd):
    cands = {pair: t for pair, t, _ in candidate_angles(cubic_odd)}
    try:
        res = verify_geodesic(cubic_odd, (0, 2), cands[(0, 2)])
    except NonGenericError:
        return
    assert isinstance(res, GeodesicRefutation)


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
    assert all(r.pair == (0, 2) for r in survey.refutations)


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
    # d - 1 geodesics connect the turning points of a generic P; a survey
    # that verifies fewer must not report the short count.  With every
    # candidate generic, a connection was missed: a numerical failure
    def refute(poly, pair, t, config):
        return GeodesicRefutation(pair=pair, t_candidate=t,
                                  reason="unresolved")

    monkeypatch.setattr(geodesics, "verify_geodesic", refute)
    with pytest.raises(NumericalError, match="fewer than the d-1 = 2"):
        survey_short_geodesics(cubic_unity)


def test_survey_below_lower_bound_non_generic(cubic_unity, monkeypatch):
    # a non-generic candidate explains the short count
    def land_on_third_root(poly, pair, t, config):
        raise NonGenericError("trace lands on a third root")

    monkeypatch.setattr(geodesics, "verify_geodesic", land_on_third_root)
    with pytest.raises(NonGenericError, match="fewer than the d-1 = 2"):
        survey_short_geodesics(cubic_unity)


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
