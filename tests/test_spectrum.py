import cmath
import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from stokesgeo import (BranchError, ClearanceError, ComplexPolynomial,
                       NumericalError, accumulation_rays,
                       alpha_contour_integrals, eigenvalue_asymptotics,
                       parse_poly_text, survey_short_geodesics,
                       wronskian_eigenvalue_search)
from stokesgeo.pathint import contour_integral, sqrt_density
from stokesgeo.spectrum import wronskian_sectors
from stokesgeo import pathint, polynomial, spectrum
from stokesgeo.config import DEFAULT_CONFIG
from stokesgeo.geodesics import ShortGeodesic
from stokesgeo.polynomial import PolyContext, SeriesAtRoot
from tests.conftest import moving_zero_wronskian

PI = math.pi


def test_single_ray_oscillator(osc):
    rays = accumulation_rays(osc)
    assert len(rays) == 1
    assert abs(rays[0].angle) < 1e-10
    assert abs(rays[0].loop_period) == pytest.approx(PI, abs=1e-8)


def test_loop_period_matches_the_contour_walk(stream_rays):
    # L = +-2 period, signed by a branch-only walk, is the quadrature walk
    # of the stadium from the principal branch at its first vertex, which
    # the odd corrections share; entry 3 is the short stadium
    assert min(len(ray.contour) for ray in stream_rays[3][1]) == 37
    for poly, rays in stream_rays:
        for ray in rays:
            (walked,) = contour_integral(poly, ray.contour, [sqrt_density])
            assert abs(ray.loop_period - walked) <= 1e-12 * abs(walked)


def test_rays_integrate_nothing(cubic_unity, monkeypatch):
    # every quadrature runs through pathint's GK15 loop, for regular
    # chords, or the root series' primitive, for turning-point chords
    survey = survey_short_geodesics(cubic_unity)
    chords = []
    for owner, name in ((pathint, "_gk15"), (SeriesAtRoot, "xi")):
        def counted(*args, loop=getattr(owner, name), **kwargs):
            chords.append(args)
            return loop(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    rays = accumulation_rays(cubic_unity, survey=survey)
    assert len(rays) == 3 and chords == []
    # the corrections do walk the contour, through the same spy
    eigenvalue_asymptotics(cubic_unity, rays[0], 1, 1, order=1)
    assert chords


def test_corrections_refuse_a_flipped_loop_period(cubic_unity):
    ray = accumulation_rays(cubic_unity)[0]
    eigenvalue_asymptotics(cubic_unity, ray, 1, 2, order=1)
    flipped = replace(ray, loop_period=-ray.loop_period)
    with pytest.raises(NumericalError, match=re.escape(
            f"pair {ray.geodesic.pair}, ray angle {ray.angle:.12f}: the "
            "correction walk gives L")):
        eigenvalue_asymptotics(cubic_unity, flipped, 1, 2, order=1)
    # order 0 reads L alone and orients it by the ray
    assert eigenvalue_asymptotics(cubic_unity, flipped, 1, 2) == (
        eigenvalue_asymptotics(cubic_unity, ray, 1, 2))


def test_corrections_check_the_contour_as_alphas_do(osc):
    # the correction walk of eigenvalue_asymptotics is contour_integral's,
    # with its clearance and single-valuedness checks
    ray = accumulation_rays(osc)[0]
    delta = PolyContext.of(osc).scales.delta_path
    near = [(1.0 + 0.5 * delta) * cmath.exp(2j * PI * k / 128)
            for k in range(129)]
    odd = [1.0 + 0.5 * cmath.exp(2j * PI * k / 128) for k in range(129)]
    for contour, error, match in ((near, ClearanceError, "clearance"),
                                  (odd, BranchError, "not single-valued")):
        bad = replace(ray, contour=tuple(contour))
        with pytest.raises(error, match=match):
            eigenvalue_asymptotics(osc, bad, 1, 2, order=1)
        with pytest.raises(error, match=match):
            alpha_contour_integrals(osc, contour, 1)


def _straight_geodesic(poly, a, b):
    """ShortGeodesic along the 201-vertex segment between the roots a, b."""
    locs = PolyContext.of(poly).locs
    i, j = (min(range(len(locs)), key=lambda k: abs(locs[k] - r))
            for r in (a, b))
    return ShortGeodesic(pair=(i, j), t_star=0.0, period=1j,
                         vertices=tuple(a + (b - a) * k / 200
                                        for k in range(201)))


def test_loop_contour_clears_by_the_walk_rule():
    # a third root 0.0078 from the geodesic: the first stadium's nearest
    # vertex is 0.0027 from it but its nearest chord only 0.0018, below
    # 0.9 delta_path = 0.0018, so the stadium shrinks to 2.9 delta_path
    poly = ComplexPolynomial.from_roots(1.0, [-1.0, 1.0, 0.0078j])
    ctx = PolyContext.of(poly)
    assert ctx.scales.delta_path == pytest.approx(0.002)
    contour = spectrum._loop_contour(ctx, _straight_geodesic(poly, -1, 1))
    assert (pathint.min_clearance(contour, [0.0078j])
            >= 0.9 * ctx.scales.delta_path)
    (alpha0,) = alpha_contour_integrals(poly, contour, 0)
    assert alpha0 == pytest.approx(-1j * PI, abs=1e-8)
    # at 0.007 no stadium clears it
    poly = ComplexPolynomial.from_roots(1.0, [-1.0, 1.0, 0.007j])
    geo = _straight_geodesic(poly, -1, 1)
    with pytest.raises(ClearanceError, match=re.escape(
            f"could not build a loop contour around pair {geo.pair}")):
        spectrum._loop_contour(PolyContext.of(poly), geo)


def test_three_rays_cubic(cubic_unity):
    rays = accumulation_rays(cubic_unity)
    assert len(rays) == 3
    angles = [r.angle for r in rays]
    for a, b in zip(angles, angles[1:]):
        assert b - a == pytest.approx(PI / 3, abs=1e-6)


def test_ray_rotation_equivariance(osc):
    s = 0.4
    rays = accumulation_rays(osc.rotate(s))
    assert len(rays) == 1
    assert rays[0].angle == pytest.approx((0.0 - s) % PI, abs=1e-8)


def test_ray_count_matches_geodesics(cubic_odd):
    rays = accumulation_rays(cubic_odd)
    assert len(rays) == len(survey_short_geodesics(cubic_odd).geodesics)


def test_ray_root_lookups_use_config_tolerance(osc, monkeypatch):
    # every turning-point lookup behind the rays, the loop-period contour
    # included, uses the caller's root_tol
    original = polynomial.turning_points
    tols = []

    def spy(poly, tol=1e-10):
        tols.append(tol)
        return original(poly, tol)

    for name, mod in list(sys.modules.items()):
        if (name.startswith("stokesgeo")
                and getattr(mod, "turning_points", None) is original):
            monkeypatch.setattr(mod, "turning_points", spy)
    accumulation_rays(osc, config=replace(DEFAULT_CONFIG, root_tol=1e-8))
    assert tols and set(tols) == {1e-8}


def test_oscillator_order0_exact(osc):
    ray = accumulation_rays(osc)[0]
    ests = eigenvalue_asymptotics(osc, ray, 0, 10, order=0)
    for est in ests:
        # the README's order-0 bound
        assert abs(est.value - (2 * est.n + 1)) <= 2e-13
        assert est.converged


def test_oscillator_spacing(osc):
    ray = accumulation_rays(osc)[0]
    ests = eigenvalue_asymptotics(osc, ray, 5, 8, order=0)
    for a, b in zip(ests, ests[1:]):
        spacing = (b.value - a.value).real
        assert spacing == pytest.approx(2 * PI / abs(ray.loop_period), abs=1e-8)


def test_corrections_do_not_hurt(osc):
    ray = accumulation_rays(osc)[0]
    e0 = eigenvalue_asymptotics(osc, ray, 20, 20, order=0)[0]
    e2 = eigenvalue_asymptotics(osc, ray, 20, 20, order=2)[0]
    exact = 41.0
    assert abs(e2.value - exact) <= abs(e0.value - exact) + 1e-12

    # every loop correction vanishes for the oscillator; this cubic has
    # nonzero ones.  Ray 0 is pair (0, 2); the reference values are its
    # Wronskian zeros in sectors (0, 2)
    poly = parse_poly_text("1,0,0.3+0.2i,-1")
    ray = accumulation_rays(poly)[0]
    assert ray.geodesic.pair == (0, 2)
    reference = (2.409751700170 + 2.041435904407j,
                 4.003537013722 + 3.394387942230j,
                 5.600050592120 + 4.749262906136j)
    e0 = eigenvalue_asymptotics(poly, ray, 1, 3, order=0)
    e3 = eigenvalue_asymptotics(poly, ray, 1, 3, order=3)
    for lo, hi, exact in zip(e0, e3, reference):
        assert abs(hi.value - exact) < 0.1 * abs(lo.value - exact)


def test_forward_ray_invariant(osc, cubic_unity):
    for poly in (osc, cubic_unity):
        for ray in accumulation_rays(poly):
            for est in eigenvalue_asymptotics(poly, ray, 3, 6, order=1):
                fwd = est.value * complex(math.cos(-ray.angle),
                                          math.sin(-ray.angle))
                assert fwd.real > 0


def test_n_min_threshold_guard(osc):
    from stokesgeo import RunConfig
    ray = accumulation_rays(osc)[0]
    strict = RunConfig(lambda_min_modulus=5.0)
    with pytest.raises(ValueError):
        eigenvalue_asymptotics(osc, ray, 0, 1, order=0, config=strict)


def test_negative_n_min_rejected(osc):
    # the n_min term orients L: from n_min = -1 every n >= 0 estimate
    # would land on the backward ray
    ray = accumulation_rays(osc)[0]
    with pytest.raises(ValueError, match="n_min"):
        eigenvalue_asymptotics(osc, ray, -1, 2, order=0)


def test_subdominant_decays_outward(osc):
    scale = 1.0 + PolyContext.of(osc, DEFAULT_CONFIG).scales.max_modulus
    start = spectrum._sector_ray(osc, 0, 1.0, scale)
    *_, decay = spectrum._integrate_inward(osc, [1.0], [start], 0j, 1e-10)
    samples = decay[:, 0, 0]
    # integrated inward, so the log magnitude grows toward the matching
    # point: the solution decays along the outward ray.  It is exp(-z^2/2),
    # which from radius 6 gains exactly _DECAY_EFOLDS = 18 e-folds
    assert abs(start) == pytest.approx(6.0, rel=1e-12)
    assert all(b >= a for a, b in zip(samples, samples[1:]))
    assert abs(samples[-1] - spectrum._DECAY_EFOLDS) <= 1e-3


def test_batched_kernel_matches_closed_forms(osc):
    # exact eigenfunctions of z^2 - 1, subdominant in sectors 0 and 2:
    # exp(-z^2/2) at lambda = 1, z exp(-3 z^2/2) at lambda = 3 and
    # H_2(sqrt(5) z) exp(-5 z^2/2), H_2(x) = 4 x^2 - 2, at lambda = 5, at
    # rtol 1e-10 and at the rtol of the zero polishing.  The
    # matching point is off 0, so a Taylor shift that assumed z1 = 0
    # would miss
    scale = 1.0 + PolyContext.of(osc, DEFAULT_CONFIG).scales.max_modulus
    starts = [spectrum._sector_ray(osc, sector, 1.0, scale)
              for sector in (0, 2)]
    m = 0.3
    want = (-m, 1.0 / m - 3.0 * m, 40.0 * m / (20.0 * m * m - 2.0) - 5.0 * m)
    for rtol, tol in ((1e-10, 1e-8), (1e-11, 1e-10)):
        y, yp, _, _, _ = spectrum._integrate_inward(
            osc, np.array([1.0, 3.0, 5.0]), starts, complex(m), rtol)
        assert y.shape == (2, 3)
        for ratios in yp / y:
            for got, exact in zip(ratios, want):
                assert abs(got - exact) <= tol * abs(exact)


def test_kernel_steps_do_not_grow_with_lambda(osc):
    # a fixed-order step shrinks like 1/|lambda| (Dormand-Prince took 765
    # steps at lambda = 1 and 9,898 here); a Taylor step of order 30 spans
    # many local scales 1/|lambda sqrt(P)|
    scale = 1.0 + PolyContext.of(osc, DEFAULT_CONFIG).scales.max_modulus
    start = spectrum._sector_ray(osc, 0, 31.0, scale)
    steps = spectrum._integrate_inward(osc, [31.0], [start], 0j, 1e-11)[3]
    assert steps <= 100


def test_kernel_from_a_turning_point_raises_with_context(osc):
    # the WKB slope at a root of P is infinite: quartering the step cannot
    # make the series finite, so the error names the path and the lambdas
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(NumericalError) as info:
        spectrum._integrate_inward(osc, [1.0, 2.0], [1.0 + 0j], 0j, 1e-7)
    message = str(info.value)
    assert "non-finite state in subdominant integration" in message
    assert "from 1+0j to 0+0j at |lambda| 1..2" in message
    assert info.value.residuals == [0.0]


@pytest.mark.parametrize("coeffs, lam", [("1,0,-1", 1.0),
                                         ("1,0,0.3+0.2i,-1", 2.41 + 2.04j)])
def test_wronskian_batch_is_one_step_sequence(coeffs, lam, monkeypatch):
    # both sectors start at the same radius and share one integration,
    # which costs about as many steps as the harder sector alone
    poly = parse_poly_text(coeffs)
    original = spectrum._integrate_inward
    steps = []

    def spy(*args):
        out = original(*args)
        steps.append(out[3])
        return out

    monkeypatch.setattr(spectrum, "_integrate_inward", spy)
    spectrum._wronskian_batch(poly, [lam], (0, 2), DEFAULT_CONFIG, rtol=1e-7)
    assert len(steps) == 1
    scale = 1.0 + PolyContext.of(poly, DEFAULT_CONFIG).scales.max_modulus
    single = [original(poly, [lam], [spectrum._sector_ray(poly, k, lam,
                                                           scale)],
                       0j, 1e-7)[3] for k in (0, 2)]
    assert steps[0] <= 1.1 * max(single)


def test_search_integrates_each_lambda_once_per_group(osc, monkeypatch):
    # W's samples are kept per normalization group, one per lam_ref: a
    # group's first batch finds lam_ref itself, its later ones pass it, no
    # lambda is integrated twice in it, and a refinement asks only for the
    # midpoints of its winding's segments.  The interleaved phases still
    # count every zero
    original_batch = spectrum._wronskian_batch
    original_winding = spectrum._winding
    groups = {}
    refinements = []

    def batch(poly, lams, sectors, config, rtol, lam_ref=None):
        if rtol == 1e-7:
            if lam_ref is None:
                lam_ref = min(lams, key=abs)
                assert lam_ref not in groups
                groups[lam_ref] = set()
            group = groups[lam_ref]
            assert len(set(lams)) == len(lams) and group.isdisjoint(lams)
            group.update(lams)
        return original_batch(poly, lams, sectors, config, rtol,
                              lam_ref=lam_ref)

    def winding(sample, pts, where):
        wound = []

        def spy(lams):
            if wound:
                assert np.array_equal(lams, 0.5 * (wound[-1]
                                                   + np.roll(wound[-1], -1)))
                refinements.append(len(lams))
                wound.append(np.stack([wound[-1], lams], axis=1).ravel())
            else:
                wound.append(lams)
            return sample(lams)
        return original_winding(spy, pts, where)

    monkeypatch.setattr(spectrum, "_wronskian_batch", batch)
    monkeypatch.setattr(spectrum, "_winding", winding)
    zeros = wronskian_eigenvalue_search(osc, (0, 2), (0.5, 7.5, -1.0, 1.0))
    assert [round(z.real) for z in zeros] == [1, 3, 5, 7]
    assert refinements and len(groups) > 1
    # 1,850 winding lambdas; 4,177 when only an unrefined parent's
    # children kept its samples, 5,696 when every rectangle sampled afresh
    assert sum(map(len, groups.values())) <= 1850


def test_children_keep_a_refined_parents_final_samples(osc, monkeypatch):
    # on criterion 1's rectangle only the top rectangle, jittered retries
    # and the children that the modulus rule refuses sample their boundary
    # afresh: 5 fresh boundaries, 25 when the children of a refined parent
    # sampled afresh.  Every other child keeps its parent's final samples
    # on its outer edges and integrates only its cut line, at the parent's
    # final spacing, and no winding holds more than _MAX_SAMPLES samples
    original_points = spectrum._boundary_points
    original_winding = spectrum._winding
    original_batch = spectrum._wronskian_batch
    calls = [{"fresh": False}]   # per winding, the last one to come
    integrated = []              # lambdas of every winding batch, in order

    def points(r, m):
        calls[-1]["fresh"] = True
        return original_points(r, m)

    def batch(poly, lams, sectors, config, rtol, lam_ref=None):
        if rtol == 1e-7:
            integrated.extend(lams)
        return original_batch(poly, lams, sectors, config, rtol,
                              lam_ref=lam_ref)

    def winding(sample, pts, where):
        call = calls[-1]
        call.update(rect=tuple(map(float, re.search(
            r"rectangle \(([^)]*)\)", where).group(1).split(","))),
            first=pts, held=0)
        calls.append({"fresh": False})

        def spy(lams):
            before = len(integrated)
            out = sample(lams)
            if not call["held"]:
                call["new"] = integrated[before:]
            call["held"] += len(lams)
            assert call["held"] <= spectrum._MAX_SAMPLES
            return out
        wn, call["final"] = original_winding(spy, pts, where)
        return wn, call["final"]

    monkeypatch.setattr(spectrum, "_boundary_points", points)
    monkeypatch.setattr(spectrum, "_winding", winding)
    monkeypatch.setattr(spectrum, "_wronskian_batch", batch)
    rect = (0.5, 7.5, -1.0, 1.0)
    zeros = wronskian_eigenvalue_search(osc, (0, 2), rect)
    calls.pop()
    assert [round(z.real) for z in zeros] == [1, 3, 5, 7]
    assert calls[0]["fresh"] and calls[0]["rect"] == rect
    assert sum(call["fresh"] for call in calls) == 5

    children_of_refined = 0
    for k, call in enumerate(calls):
        if call["fresh"]:
            # a fresh boundary sets its group's lam_ref
            call["lam_ref"] = call["first"][np.argmin(np.abs(call["first"]))]
            if k == 0 or "final" not in calls[k - 1]:
                continue    # the top rectangle, or a retry of one that raised
        c = call["rect"]
        # the parent: the least earlier rectangle that passed, holds c and
        # shares three of its edges
        parent = min((p for p in calls[:k] if "final" in p and sum(
            a == b for a, b in zip(p["rect"], c)) == 3 and p["rect"][0]
            <= c[0] and c[1] <= p["rect"][1] and p["rect"][2] <= c[2]
            and c[3] <= p["rect"][3]),
            key=lambda p: (p["rect"][1] - p["rect"][0])
            * (p["rect"][3] - p["rect"][2]))
        if call["fresh"]:
            # the group's |lam_ref| is below half c's least modulus
            nearest = complex(min(max(0.0, c[0]), c[1]),
                              min(max(0.0, c[2]), c[3]))
            assert abs(parent["lam_ref"]) < 0.5 * abs(nearest)
            continue
        call["lam_ref"] = parent["lam_ref"]
        p, final = parent["rect"], parent["final"]
        # the cut runs at c[side], across the axis that side bounds
        side = next(i for i in range(4) if p[i] != c[i])
        fixed, free = (np.real, np.imag) if side < 2 else (np.imag, np.real)
        cut = call["first"][~np.isin(call["first"], final)]
        assert np.all(fixed(cut) == c[side])
        assert set(call["new"]) <= set(cut.tolist())
        if len(final) == len(parent["first"]):
            continue
        children_of_refined += 1
        steps = np.diff(np.sort(free(cut)))
        assert np.ptp(steps) <= 1e-12 * steps.max()
        # the parent's final spacing along its own edges parallel to the cut
        on_edge = np.isin(fixed(final), p[side & 2:(side & 2) + 2])
        both = on_edge & np.roll(on_edge, -1)
        spacing = np.abs(free(np.roll(final, -1) - final))[both].max()
        assert 0.5 * spacing < steps[0] <= spacing * (1.0 + 1e-9)
    assert children_of_refined > 0


@pytest.mark.parametrize("m, k, final", [(64, 85, 512), (300, 80, 300)])
def test_refinement_doubles_within_the_sample_cap(m, k, final):
    # W = lambda^k on the unit circle jumps 2 pi k / m between samples: 64
    # samples double to 512 before the jumps fall under 1.6, while 300
    # kept samples cannot double within _MAX_SAMPLES, so their jumps of
    # 1.68 pass as they are
    held = []

    def sample(lams):
        held.extend(lams)
        return lams ** k, np.zeros(len(lams))

    pts = np.exp(2j * PI * np.arange(m) / m)
    wn, ended = spectrum._winding(sample, pts, "of the unit circle")
    assert wn == k and len(ended) == len(held) == final


# (rect, zeros, lane-steps of _integrate_inward) of searches that sample
# most rectangles afresh or refine often, counted when the children of
# every unjittered winding keep its final samples (174,400, 146,390 and
# 120,272 when every rectangle sampled its boundary afresh); the zeros
# depend only on the windings
@pytest.mark.parametrize("coeffs, rect, want, lane_steps", [
    ("1,0,-1", (0.5, 7.5, -1.0, 1.0),
     [0.9999999999999994 - 3.366134987155688e-19j,
      2.999999999999999 + 3.190802679035878e-30j,
      4.999999999999999 + 1.2662819266803625e-29j,
      6.999999999999984 + 8.409434017675276e-30j], 80996),
    ("1,0,0.3+0.2i,-1", (1.8, 6.2, 1.5, 5.3),
     [2.4097517001707245 + 2.041435904407247j,
      4.003537013721734 + 3.3943879422300034j,
      5.6000505921181105 + 4.74926290613623j], 50414),
    ("1,0,-1", (1.0, 3.0, -1.0, 1.0),
     [0.9999999999999999 - 1.0726162528333497e-27j,
      2.9999999999999547 - 1.7985065674066876e-28j], 115238),
])
def test_kept_samples_change_no_zero_and_add_no_work(coeffs, rect, want,
                                                     lane_steps,
                                                     monkeypatch):
    original = spectrum._integrate_inward
    work = []

    def spy(poly, lams, starts, z1, rtol):
        out = original(poly, lams, starts, z1, rtol)
        work.append(out[3] * len(lams) * len(starts))
        return out

    monkeypatch.setattr(spectrum, "_integrate_inward", spy)
    zeros = wronskian_eigenvalue_search(parse_poly_text(coeffs), (0, 2),
                                        rect)
    assert zeros == want
    assert sum(work) <= lane_steps


def test_wronskian_zero_at_eigenvalue(osc):
    zeros = wronskian_eigenvalue_search(osc, (0, 2), (0.8, 1.2, -0.2, 0.2))
    assert len(zeros) == 1
    # the README's bound, 1e-12 relative to 1 + |lambda|
    assert abs(zeros[0] - 1.0) <= 1e-12 * 2.0


def test_cubic_zeros_match_collocation():
    # z^3 + (0.3+0.2i) z - 1 has corrections that do not vanish; the
    # references are the Chebyshev-collocation eigenvalues printed by
    # bench/reference.py
    zeros = wronskian_eigenvalue_search(parse_poly_text("1,0,0.3+0.2i,-1"),
                                        (0, 2), (1.8, 6.2, 1.5, 5.3))
    reference = (2.409751700171 + 2.041435904407j,
                 4.003537013722 + 3.394387942230j,
                 5.600050592120 + 4.749262906137j)
    assert len(zeros) == 3
    for got, exact in zip(zeros, reference):
        assert abs(got - exact) <= 1e-9


def test_polish_across_the_log_branch_cut():
    # -z^2+1, the oscillator turned by pi/2, has the eigenvalue 3i, and
    # arg W lies near pi there: the probes' principal logs wrap, which
    # turned the polishing steps away from the zero until it raised
    zeros = wronskian_eigenvalue_search(parse_poly_text("-1,0,1"), (1, 3),
                                        (-0.3, 0.4, 2.7, 3.35))
    assert len(zeros) == 1
    assert abs(zeros[0] - 3j) <= 1e-12 * 4.0


def test_wronskian_no_zero_off_spectrum(osc):
    zeros = wronskian_eigenvalue_search(osc, (0, 2), (1.6, 2.4, -0.3, 0.3))
    assert zeros == []


@pytest.mark.parametrize("rect, want", [((1.0, 3.0, -1.0, 1.0), [1.0, 3.0]),
                                        ((1.0, 1.6, -0.2, 0.2), [1.0])])
def test_zero_on_a_boundary_sample_is_found(osc, rect, want):
    # the eigenvalue 1 lies on a boundary sample of both rectangles: |W|
    # there drops far below its neighbours while its phase jumps stay
    # under the near-pi test, so only the dip sends the search to jitter
    zeros = wronskian_eigenvalue_search(osc, (0, 2), rect)
    assert len(zeros) == len(want)
    for got, exact in zip(zeros, want):
        assert abs(got - exact) <= 1e-9


def test_winding_failure_names_its_rectangle(osc, monkeypatch):
    # a stand-in Wronskian that vanishes at the first sample of every
    # perimeter, so no jitter moves the zero off the boundary: the error
    # names the rectangle, the sectors and the last cause
    def constant_zero(poly, lams, sectors, config, rtol, lam_ref=None):
        w = np.ones(len(lams), dtype=complex)
        w[0] = 0.0
        return w, np.zeros(len(lams))

    monkeypatch.setattr(spectrum, "_wronskian_batch", constant_zero)
    with pytest.raises(NumericalError) as info:
        wronskian_eigenvalue_search(osc, (0, 2), (0.8, 1.2, -0.2, 0.2))
    message = str(info.value)
    assert "winding failed on rectangle (0.8, 1.2, -0.2, 0.2)" in message
    assert "suspected zero on cell boundary" in message
    assert "in sectors (0, 2)" in message
    assert info.value.residuals == [math.inf]


def test_subdivision_budget_error_names_its_search(osc, monkeypatch):
    # a stand-in Wronskian sin(20 lambda) has 254 zeros in the rectangle,
    # more than 400 rectangles can isolate: the error names the sectors,
    # the rectangle and the zeros isolated so far
    def sine(poly, lams, sectors, config, rtol, lam_ref=None):
        return np.sin(20.0 * np.asarray(lams)), np.zeros(len(lams))

    monkeypatch.setattr(spectrum, "_wronskian_batch", sine)
    with pytest.raises(NumericalError, match=re.escape(
            "rectangle subdivision budget exceeded in sectors (0, 2) on "
            "rectangle (0.01, 40, -0.5, 0.5): 112 zeros isolated so far")):
        wronskian_eigenvalue_search(osc, (0, 2), (0.01, 40, -0.5, 0.5))


def test_wronskian_sectors_from_graph(osc):
    ray = accumulation_rays(osc)[0]
    assert wronskian_sectors(osc, ray, DEFAULT_CONFIG) == (0, 2)
    # the cubic's ray 2 (2 t* > pi) needs the renumbering from the graph's
    # wrapped sectors: unshifted it would give (0, 3)
    cubic = parse_poly_text("1,0,0.3+0.2i,-1")
    rays = accumulation_rays(cubic)
    pairs = [wronskian_sectors(cubic, ray, DEFAULT_CONFIG) for ray in rays]
    assert pairs == [(0, 2), (2, 4), (1, 4)]


def _sibuya_rotation(poly, s):
    """P_s(z) = w^{-2s} P(w^{-s} z), w = e^{2 pi i / (d+2)}: y(w^{-s} z)
    solves its equation when y solves P's, subdominant in sector j + s
    where y is in sector j (Sibuya, 1975)."""
    d = poly.degree
    omega = cmath.exp(2j * PI / (d + 2))
    return ComplexPolynomial(tuple(
        c * omega ** (-s * (d - i + 2)) for i, c in enumerate(poly.coeffs)))


def _quartic_ray_3_search():
    """(poly, sectors, rect) around the order-0 n = 1 estimate on ray 3 of
    a centred quartic; its rays 0-2 end at roots that escape to rays that
    are not neighbours, so they have no Wronskian sectors."""
    poly = ComplexPolynomial.from_roots(
        1.0, [0.9 + 0.2j, -0.7 + 0.6j, -0.5 - 0.8j, 0.3])
    ray = accumulation_rays(poly)[3]
    lam = eigenvalue_asymptotics(poly, ray, 1, 1)[0].value
    return (poly, wronskian_sectors(poly, ray, DEFAULT_CONFIG),
            (lam.real - 0.3, lam.real + 0.3, lam.imag - 0.3, lam.imag + 0.3))


@pytest.mark.parametrize("case, count", [("oscillator", 4), ("cubic", 3),
                                         ("quartic", 1)])
def test_zeros_come_back_under_sibuya_rotation(case, count):
    # W_{j,k}(lambda; P) and W_{j+s,k+s}(lambda; P_s) differ by a nonzero
    # factor, so every rotation s = 1..d+1 starts the search in other
    # directions, on other coefficients, and must find the same zeros
    # (worst 8.3e-16, 1.0e-14 and 8.5e-16 of 1 + |lambda| here)
    poly, sectors, rect = {
        "oscillator": lambda: (parse_poly_text("1,0,-1"), (0, 2),
                               (0.5, 7.5, -1.0, 1.0)),
        "cubic": lambda: (parse_poly_text("1,0,0.3+0.2i,-1"), (0, 2),
                          (1.8, 6.2, 1.5, 5.3)),
        "quartic": _quartic_ray_3_search}[case]()
    zeros = wronskian_eigenvalue_search(poly, sectors, rect)
    assert len(zeros) == count
    n = poly.degree + 2
    for s in range(1, n):
        rotated = wronskian_eigenvalue_search(
            _sibuya_rotation(poly, s), tuple((j + s) % n for j in sectors),
            rect)
        assert len(rotated) == count
        for lam in zeros:
            assert min(abs(z - lam) for z in rotated) <= 1e-12 * (1 + abs(lam))


def test_unconverged_polish_raises(osc, monkeypatch):
    monkeypatch.setattr(spectrum, "_wronskian_batch",
                        moving_zero_wronskian(1.0))
    with pytest.raises(NumericalError) as info:
        wronskian_eigenvalue_search(osc, (0, 2), (0.8, 1.2, -0.2, 0.2))
    # the last step jumps 0.02 from 0.99 to 1.01: 0.02 / (1 + 1.01)
    assert info.value.residuals == pytest.approx([0.02 / 2.01], rel=1e-9)


def test_adjacent_sectors_rejected(osc):
    with pytest.raises(ValueError):
        wronskian_eigenvalue_search(osc, (0, 1), (0.5, 1.5, -0.2, 0.2))


@pytest.mark.parametrize("rect", [(3.5, 0.5, -1.0, 1.0),   # re edges swapped
                                  (0.5, 3.5, 1.0, -1.0),   # im edges swapped
                                  (2.0, 2.0, -1.0, 1.0),   # zero width
                                  (0.5, 3.5, math.nan, 1.0)])
def test_malformed_rectangle_rejected(osc, rect):
    with pytest.raises(ValueError, match=re.escape(f"bad rectangle {rect}")):
        wronskian_eigenvalue_search(osc, (0, 2), rect)


def test_fixed_point_monotone_residuals(cubic_unity):
    for ray in accumulation_rays(cubic_unity):
        for est in eigenvalue_asymptotics(cubic_unity, ray, 2, 6, order=3):
            assert est.converged
            assert est.monotone
