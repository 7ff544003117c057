"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
The random suites use fixed seeds; tolerances are pinned in the asserts.
"""

import math
import random
import time

from stokesgeo import (ClearanceError, ComplexPolynomial, NonGenericError,
                       PsiPolygon, accumulation_rays, alpha_contour_integrals,
                       build_stokes_graph, chord_diagram,
                       eigenvalue_asymptotics, parse_poly_text, realize_count,
                       stokes_sectors, survey_short_geodesics,
                       teichmuller_defect, visible_pairs,
                       wronskian_eigenvalue_search)
from stokesgeo.domains import chords_cross
from tests.conftest import random_simple_poly, re_xi_drift

PI = math.pi


def _report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} ({detail}) {elapsed:.1f}s <= {budget}s")


def _mod_pi_dist(a, b):
    d = math.fmod(a - b, PI)
    if d > PI / 2:
        d -= PI
    if d < -PI / 2:
        d += PI
    return abs(d)


def test_criterion_1_harmonic_oscillator_oracle(osc):
    t0 = time.time()
    ray = accumulation_rays(osc)[0]
    ests = eigenvalue_asymptotics(osc, ray, 10, 50, order=0)
    max_err = max(abs(e.value - (2 * e.n + 1)) for e in ests)
    zeros = wronskian_eigenvalue_search(osc, (0, 2), (0.5, 7.5, -1.0, 1.0))
    zero_errs = [abs(z - e) for z, e in zip(zeros, (1.0, 3.0, 5.0, 7.0))]
    elapsed = time.time() - t0
    ok = (max_err <= 0.05 and len(zeros) == 4
          and max(zero_errs) <= 1e-6 and elapsed <= 60.0)
    _report(1, ok, f"order-0 max err {max_err:.2e}; "
            f"wronskian zero err {max(zero_errs):.2e}", elapsed, 60)
    assert max_err <= 0.05
    assert len(zeros) == 4 and max(zero_errs) <= 1e-6
    assert elapsed <= 60.0


def test_criterion_2_ray_detection(osc, cubic_unity):
    t0 = time.time()
    survey1 = survey_short_geodesics(osc)
    rays1 = accumulation_rays(osc, survey=survey1)
    assert len(rays1) == 1
    assert abs(rays1[0].angle) <= 1e-8

    survey3 = survey_short_geodesics(cubic_unity)
    rays3 = accumulation_rays(cubic_unity, survey=survey3)
    assert len(rays3) == 3
    angles = [r.angle for r in rays3]
    seps = [angles[1] - angles[0], angles[2] - angles[1],
            PI - angles[2] + angles[0]]
    assert all(abs(s - PI / 3) <= 1e-6 for s in seps)

    rng = random.Random(1001)
    max_dev = 0.0
    for _ in range(20):
        s = rng.uniform(0.0, PI)
        rays_s = accumulation_rays(osc.rotate(s))
        assert len(rays_s) == 1
        max_dev = max(max_dev, _mod_pi_dist(rays_s[0].angle, -s))
    elapsed = time.time() - t0
    ok = max_dev <= 1e-8 and elapsed <= 120.0
    _report(2, ok, f"1+3 rays as expected; rotation equivariance dev "
            f"{max_dev:.2e}", elapsed, 120)
    assert max_dev <= 1e-8
    assert elapsed <= 120.0


def test_criterion_3_counting_bounds():
    t0 = time.time()
    rng = random.Random(20260808)
    runs = 0
    # typed non-generic outcomes only; any other exception fails the test
    raised = {"NonGenericError": 0, "ClearanceError": 0}
    survey_errors = 0
    violations = []
    for d in (3, 4, 5):
        lo, hi = d - 1, d * (d - 1) // 2
        for _ in range(50):
            runs += 1
            poly = random_simple_poly(rng, d, min_sep=0.5, radius=1.5)
            try:
                survey = survey_short_geodesics(poly)
            except (NonGenericError, ClearanceError) as exc:
                raised[type(exc).__name__] += 1
                continue
            if survey.errors:
                survey_errors += 1
                continue
            pairs = [g.pair for g in survey.geodesics]
            if len(set(pairs)) != len(pairs):
                violations.append((d, "duplicate pair"))
            n = len(survey.geodesics)
            if not lo <= n <= hi:
                violations.append((d, f"count {n} outside [{lo}, {hi}]"))
    failures = sum(raised.values()) + survey_errors
    elapsed = time.time() - t0
    ok = (not violations and failures <= 0.10 * runs and elapsed <= 900.0)
    _report(3, ok, f"{runs} runs, {failures} non-generic failures "
            f"({raised['NonGenericError']} NonGenericError, "
            f"{raised['ClearanceError']} ClearanceError, {survey_errors} "
            f"with survey errors), {len(violations)} violations",
            elapsed, 900)
    assert not violations, violations
    assert failures <= 0.10 * runs
    assert elapsed <= 900.0


def test_criterion_4_constructive_realization():
    t0 = time.time()
    checked = 0
    for d in range(2, 9):
        for k in range(d - 1, d * (d - 1) // 2 + 1):
            strip = realize_count(d, k)
            assert len(visible_pairs(strip)) == k     # exact arithmetic
            checked += 1
    elapsed = time.time() - t0
    ok = elapsed <= 10.0
    _report(4, ok, f"{checked} (d, k) pairs realized exactly", elapsed, 10)
    assert elapsed <= 10.0


def test_criterion_5_correction_integrals(osc):
    t0 = time.time()

    def circle(radius, n=129):
        import cmath
        return [radius * cmath.exp(2j * PI * k / (n - 1)) for k in range(n)]

    a2 = alpha_contour_integrals(osc, circle(2.0), 3)
    a3 = alpha_contour_integrals(osc, circle(3.0), 3)
    alpha0_err = abs(a2[0] - (-1j * PI))
    deform_err = max(abs(x - y) for x, y in zip(a2, a3))
    elapsed = time.time() - t0
    ok = alpha0_err <= 1e-8 and deform_err <= 1e-8 and elapsed <= 10.0
    _report(5, ok, f"alpha_0 err {alpha0_err:.2e}; deformation dev "
            f"{deform_err:.2e}", elapsed, 10)
    assert alpha0_err <= 1e-8
    assert deform_err <= 1e-8
    assert elapsed <= 10.0


def test_criterion_6_chord_diagrams():
    t0 = time.time()
    rng = random.Random(5150)
    checked = 0
    for d in (3, 4, 5):
        for _ in range(30):
            poly = random_simple_poly(rng, d, min_sep=0.5, radius=1.5)
            stokes, anti = chord_diagram(poly)
            sectors = stokes_sectors(poly)
            for diag in (stokes, anti):
                assert len(diag.chords) == d - 1
                for (i, j), w in diag.chords:
                    assert w > 0
                    assert not sectors.are_neighboring_rays(i, j)
                for x in range(len(diag.chords)):
                    for y in range(x + 1, len(diag.chords)):
                        assert not chords_cross(d + 2, diag.chords[x][0],
                                                diag.chords[y][0])
            checked += 1
    elapsed = time.time() - t0
    ok = elapsed <= 600.0
    _report(6, ok, f"{checked} potentials, both diagrams clean", elapsed, 600)
    assert elapsed <= 600.0


def test_criterion_7_defect_identity():
    t0 = time.time()
    zero_cases = [
        PsiPolygon(vertices=((1, 0.0), (1, 0.0)), interior=()),
        PsiPolygon(vertices=((2, PI / 2),), interior=(-2,)),
        # bigon of simple zeros with pi/3 angles around a simple pole:
        # 2 (1 - 3 (pi/3) / (2 pi)) = 1 = 2 - 1
        PsiPolygon(vertices=((1, PI / 3), (1, PI / 3)), interior=(-1,)),
    ]
    for poly in zero_cases:
        assert abs(teichmuller_defect(poly)) < 1e-12
    worst = -math.inf
    for i in range(10):
        for j in range(10):
            t1 = (i + 1) * 2 * PI / 11
            t2 = (j + 1) * 2 * PI / 11
            val = teichmuller_defect(
                PsiPolygon(vertices=((1, t1), (1, t2)), interior=()))
            worst = max(worst, val)
            assert val < 0
    elapsed = time.time() - t0
    ok = elapsed <= 1.0
    _report(7, ok, f"tabulated identities hold; bigon defect < 0 on "
            f"100-pair grid (max {worst:.3f})", elapsed, 1)
    assert elapsed <= 1.0


def _traced_polylines():
    """(polynomial, polyline) pairs: the verified geodesics of the
    oscillator, z^3 - 1 and two seeded random potentials per degree 3-5,
    each with its rotated potential, plus every Stokes-graph edge of the
    unrotated potentials."""
    polys = [parse_poly_text("1,0,-1"), parse_poly_text("1,0,0,-1")]
    rng = random.Random(20260808)
    for d in (3, 4, 5):
        polys += [random_simple_poly(rng, d, min_sep=0.5, radius=1.5)
                  for _ in range(2)]
    traced = []
    for poly in polys:
        for g in survey_short_geodesics(poly).geodesics:
            traced.append((poly.rotate(g.t_star), g.polyline))
        traced += [(poly, e.polyline) for e in build_stokes_graph(poly).edges]
    return traced


def test_criterion_8_tracer_invariant():
    t0 = time.time()
    traced = _traced_polylines()
    worst_ratio = 0.0
    for poly, polyline in traced:
        drift, arc = re_xi_drift(poly, polyline)
        budget = 1e-9 * (1.0 + arc)
        worst_ratio = max(worst_ratio, drift / budget)
        assert drift <= budget
    elapsed = time.time() - t0
    _report(8, True, f"{len(traced)} polylines, worst drift/budget "
            f"{worst_ratio:.2e}", elapsed, 600)


def test_criterion_9_sector_scaling_invariance():
    t0 = time.time()
    polys = [parse_poly_text("1,0,-1"), parse_poly_text("1,0,0,-1"),
             ComplexPolynomial((1 + 2j, 0.3, -1.0, 0.5j))]
    for p in polys:
        base = stokes_sectors(p)
        for c in (2.0, 10.0, 0.5):
            scaled = ComplexPolynomial(tuple(complex(c) * a for a in p.coeffs))
            assert stokes_sectors(scaled) == base
    elapsed = time.time() - t0
    _report(9, True, "sectors exactly invariant under positive scaling",
            elapsed, 10)
