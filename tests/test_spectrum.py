import math

import pytest

from stokesgeo import (accumulation_rays, eigenvalue_asymptotics,
                       enumerate_short_geodesics, parse_poly_text,
                       subdominant_solution, wronskian_eigenvalue_search)

PI = math.pi


def test_single_ray_oscillator(osc):
    rays = accumulation_rays(osc)
    assert len(rays) == 1
    assert abs(rays[0].angle) < 1e-10
    assert abs(rays[0].loop_period) == pytest.approx(PI, abs=1e-8)


def test_loop_period_is_twice_the_period(osc, cubic_unity):
    for poly in (osc, cubic_unity):
        for ray in accumulation_rays(poly):
            w = ray.geodesic.period
            err = min(abs(ray.loop_period - 2 * w),
                      abs(ray.loop_period + 2 * w))
            assert err <= 1e-8 * 2 * abs(w)


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


def test_oscillator_order0_exact(osc):
    ray = accumulation_rays(osc)[0]
    ests = eigenvalue_asymptotics(osc, ray, 0, 10, order=0)
    for est in ests:
        assert est.value.real == pytest.approx(2 * est.n + 1, abs=1e-6)
        assert abs(est.value.imag) < 1e-8
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


def test_subdominant_decays_outward(osc):
    sol = subdominant_solution(osc, 1.0, 0)
    # integrated inward, so the log magnitude grows toward the matching
    # point: the solution decays along the outward ray
    assert sol.decay_samples[-1] > sol.decay_samples[0]
    assert sol.steps > 10


def test_wronskian_zero_at_eigenvalue(osc):
    zeros = wronskian_eigenvalue_search(osc, (0, 2), (0.8, 1.2, -0.2, 0.2))
    assert len(zeros) == 1
    assert zeros[0] == pytest.approx(1.0, abs=1e-8)


def test_wronskian_no_zero_off_spectrum(osc):
    zeros = wronskian_eigenvalue_search(osc, (0, 2), (1.6, 2.4, -0.3, 0.3))
    assert zeros == []


def test_adjacent_sectors_rejected(osc):
    with pytest.raises(ValueError):
        wronskian_eigenvalue_search(osc, (0, 1), (0.5, 1.5, -0.2, 0.2))


def test_fixed_point_monotone_residuals(cubic_unity):
    for ray in accumulation_rays(cubic_unity):
        for est in eigenvalue_asymptotics(cubic_unity, ray, 2, 6, order=3):
            assert est.converged
            assert est.monotone
