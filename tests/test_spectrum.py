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
                       enumerate_short_geodesics, parse_poly_text,
                       survey_short_geodesics, wronskian_eigenvalue_search)
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
    assert len(rays) == len(enumerate_short_geodesics(cubic_odd))


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
    *_, decay = spectrum._integrate_inward(osc, [1.0], [start], 0j,
                                           DEFAULT_CONFIG.ode_rel_tol)
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
    # the default rtol and at the rtol of the zero polishing.  The
    # matching point is off 0, so a Taylor shift that assumed z1 = 0
    # would miss
    scale = 1.0 + PolyContext.of(osc, DEFAULT_CONFIG).scales.max_modulus
    starts = [spectrum._sector_ray(osc, sector, 1.0, scale)
              for sector in (0, 2)]
    m = 0.3
    want = (-m, 1.0 / m - 3.0 * m, 40.0 * m / (20.0 * m * m - 2.0) - 5.0 * m)
    for rtol, tol in ((DEFAULT_CONFIG.ode_rel_tol, 1e-8), (1e-11, 1e-10)):
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


def test_refinement_integrates_only_new_samples(osc, monkeypatch):
    # doubling the boundary samples integrates only the new odd-indexed
    # ones, from the start points of the winding's first batch, and the
    # interleaved phases still count every zero
    original = spectrum._wronskian_batch
    calls = []

    def spy(poly, lams, sectors, config, rtol, lam_ref=None):
        if rtol == 1e-7:
            calls.append((list(lams), lam_ref))
        return original(poly, lams, sectors, config, rtol, lam_ref=lam_ref)

    monkeypatch.setattr(spectrum, "_wronskian_batch", spy)
    zeros = wronskian_eigenvalue_search(osc, (0, 2), (0.5, 7.5, -1.0, 1.0))
    assert [round(z.real) for z in zeros] == [1, 3, 5, 7]
    assert any(lam_ref is not None for _, lam_ref in calls)
    for lams, lam_ref in calls:
        if lam_ref is None:
            assert len(lams) == 64
            seen, ref = set(lams), min(lams, key=abs)
        else:
            assert lam_ref == ref
            assert len(lams) == len(seen) and seen.isdisjoint(lams)
            seen.update(lams)


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
    def constant_zero(poly, lams, sectors, config, rtol):
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


def test_wronskian_sectors_from_graph(osc):
    ray = accumulation_rays(osc)[0]
    assert wronskian_sectors(osc, ray, DEFAULT_CONFIG) == (0, 2)
    # the cubic's ray 2 (2 t* > pi) needs the renumbering from the graph's
    # wrapped sectors: unshifted it would give (0, 3)
    cubic = parse_poly_text("1,0,0.3+0.2i,-1")
    rays = accumulation_rays(cubic)
    pairs = [wronskian_sectors(cubic, ray, DEFAULT_CONFIG) for ray in rays]
    assert pairs == [(0, 2), (2, 4), (1, 4)]


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
