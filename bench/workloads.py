"""The three workloads: seeded inputs, the operation timed per item, the
checks of its output against computations made apart from stokesgeo
(``reference``) or against properties the method must have, and the
polynomials each item hands to the package (warmed up before timing).

Every ``check_*`` function returns a list of problems; an empty list means
the item's output is correct.
"""

from __future__ import annotations

import cmath
import functools
import math
import random

import numpy as np

import stokesgeo
from reference import CUBIC, collocation_eigenvalues, sqrt_p_integral

PI = math.pi


# --- inputs ------------------------------------------------------------------

def random_simple_roots(rng, d, min_sep=0.5, radius=1.5):
    """Roots of the acceptance-suite generator: centered, simple, pairwise
    at least ``min_sep`` apart, drawn from a square of half-side
    ``radius``."""
    while True:
        roots = [complex(rng.uniform(-radius, radius),
                         rng.uniform(-radius, radius)) for _ in range(d)]
        mean = sum(roots) / d
        roots = [r - mean for r in roots]
        if all(abs(roots[i] - roots[j]) >= min_sep
               for i in range(d) for j in range(i + 1, d)):
            return roots


def congruent_polys(base_seed, per_degree, seed):
    """Monic polynomials whose roots are the acceptance-suite roots drawn
    from ``base_seed``, scaled by c in [0.9, 1.1] and mirrored in the real
    axis with probability 1/2, with c and the mirror picked by ``seed``.

    Both maps take P(z) dz^2 to a positive multiple of P(u) du^2 or of its
    mirror image, so the Stokes graph, the short geodesics and the chord
    diagram are those of the base polynomial, scaled or mirrored, and the
    order of the roots by real part is kept: every seed gives new
    coefficients for the same geometric work.
    """
    base = random.Random(base_seed)
    rng = random.Random(seed)
    out = []
    for d in (3, 4, 5):
        for _ in range(per_degree):
            roots = random_simple_roots(base, d)
            c = rng.uniform(0.9, 1.1)
            mirror = rng.random() < 0.5
            moved = [c * (r.conjugate() if mirror else r) for r in roots]
            out.append(stokesgeo.ComplexPolynomial.from_roots(1.0, moved))
    return out


# --- ray_survey ----------------------------------------------------------------

SURVEY_BASE_SEED = 20260808     # the acceptance suite's counting seed
SURVEY_PER_DEGREE = 4
ESTIMATE_N = (1, 5)


def survey_inputs(seed):
    return congruent_polys(SURVEY_BASE_SEED, SURVEY_PER_DEGREE, seed)


def survey_polys(poly):
    return [poly]


def run_survey(poly):
    """The ``stokesgeo rays`` pipeline plus order-0 eigenvalue estimates."""
    survey = stokesgeo.survey_short_geodesics(poly)
    rays = stokesgeo.accumulation_rays(poly, survey=survey)
    alphas = [stokesgeo.alpha_contour_integrals(poly, ray.contour, 3)
              for ray in rays]
    estimates = [stokesgeo.eigenvalue_asymptotics(poly, ray, *ESTIMATE_N,
                                                  order=0)
                 for ray in rays]
    return survey, rays, alphas, estimates


def check_survey(poly, output):
    survey, rays, alphas, estimates = output
    d = poly.degree
    problems = []
    if survey.errors:
        problems.append(f"survey errors {survey.errors}")
    pairs = [g.pair for g in survey.geodesics]
    if not d - 1 <= len(pairs) <= d * (d - 1) // 2:
        problems.append(f"count {len(pairs)} outside [{d - 1}, {d * (d - 1) // 2}]")
    if len(set(pairs)) != len(pairs):
        problems.append("duplicate pair")
    if len(rays) != len(pairs):
        problems.append(f"{len(rays)} rays for {len(pairs)} geodesics")
    roots = np.roots(np.asarray(poly.coeffs))
    for ray, alpha, ests in zip(rays, alphas, estimates):
        g = ray.geodesic
        ends = [int(np.argmin(np.abs(roots - z)))
                for z in (g.polyline[0], g.polyline[-1])]
        for k, z in zip(ends, (g.polyline[0], g.polyline[-1])):
            if abs(roots[k] - z) > 1e-8 * (1.0 + abs(z)):
                problems.append(f"{g.pair}: end {z} is no root")
        if ends[0] == ends[1]:
            problems.append(f"{g.pair}: both ends at one root")
        w = sqrt_p_integral(poly.coeffs, g.polyline)
        dt = math.remainder(g.t_star - (PI / 2 - cmath.phase(w)), PI)
        if abs(dt) > 1e-8:
            problems.append(f"{g.pair}: t* off pi/2 - arg W by {dt:.2e}")
        loop = abs(ray.loop_period)
        if abs(loop - 2.0 * abs(w)) > 1e-7 * 2.0 * abs(w):
            problems.append(f"{g.pair}: |L| = {loop} but 2|W| = {2 * abs(w)}")
        if abs(alpha[0] + 1j * PI) > 1e-10:
            problems.append(f"{g.pair}: alpha_0 = {alpha[0]}")
        for est in ests:
            rhs = 2 * PI * est.n + PI
            if abs(math.remainder(cmath.phase(est.value) - ray.angle,
                                  2 * PI)) > 1e-9:
                problems.append(f"{g.pair}: n={est.n} off the ray")
            if abs(abs(est.value) * loop - rhs) > 1e-9 * rhs:
                problems.append(f"{g.pair}: n={est.n} |lambda L| != {rhs}")
    return problems


# --- chord_diagrams ------------------------------------------------------------

CHORD_BASE_SEED = 5150          # the acceptance suite's chord-diagram seed
CHORD_PER_DEGREE = 6


def chord_inputs(seed):
    return congruent_polys(CHORD_BASE_SEED, CHORD_PER_DEGREE, seed)


def chord_polys(poly):
    """chord_diagram also draws the quarter-turn member of the family."""
    return [poly, poly.rotate(PI / 2)]


def run_chords(poly):
    return stokesgeo.chord_diagram(poly)


def _crossing(n, a, b):
    """Two chords of an n-gon cross when exactly one end of b lies strictly
    inside the arc that runs counterclockwise from a[0] to a[1]."""
    if len({*a, *b}) < 4:
        return False
    arc = (a[1] - a[0]) % n
    return (0 < (b[0] - a[0]) % n < arc) != (0 < (b[1] - a[0]) % n < arc)


def check_chords(poly, output):
    d = poly.degree
    n = d + 2
    problems = []
    for label, diagram in zip(("stokes", "orthogonal"), output):
        chords = diagram.chords
        if diagram.n_vertices != n or len(chords) != d - 1:
            problems.append(f"{label}: {len(chords)} chords of a "
                            f"{diagram.n_vertices}-gon")
        for (i, j), weight in chords:
            if not weight > 0:
                problems.append(f"{label}: chord {(i, j)} weight {weight}")
            if (i - j) % n in (0, 1, n - 1):
                problems.append(f"{label}: chord {(i, j)} joins neighbours")
        for x in range(len(chords)):
            for y in range(x + 1, len(chords)):
                if _crossing(n, chords[x][0], chords[y][0]):
                    problems.append(f"{label}: chords {chords[x][0]} and "
                                    f"{chords[y][0]} cross")
    return problems


# --- wronskian_spectrum ----------------------------------------------------------

# (label, coefficients, an eigenvalue near which to search); the cubic's
# eigenvalue is rounded, its exact value comes from the collocation solve
SPECTRUM_CASES = (
    ("oscillator", (1.0, 0.0, -1.0), 1.0),
    ("oscillator", (1.0, 0.0, -1.0), 3.0),
    ("cubic", CUBIC, 2.41 + 2.04j),
)
# the rectangle runs from 0.25 below the eigenvalue to 0.55 above it in
# the real direction and to 0.51 above it in the imaginary one.  The search
# cuts the longer side first, at 0.538 of it, so the cut lines pass 0.18 and
# 0.16 from the zero; and the rectangle is wider than tall by more than the
# jitter can undo, so the subdivision is the same for every seed (a square
# one is cut one way or the other as the jitter falls)
RECT_BELOW, RECT_ABOVE_RE, RECT_ABOVE_IM = 0.25, 0.55, 0.51
RECT_JITTER = 1e-4


def spectrum_inputs(seed):
    """Rectangles around the eigenvalues of SPECTRUM_CASES, every edge
    moved by up to RECT_JITTER."""
    rng = random.Random(seed)
    out = []
    for label, coeffs, lam in SPECTRUM_CASES:
        rect = (lam.real - RECT_BELOW, lam.real + RECT_ABOVE_RE,
                lam.imag - RECT_BELOW, lam.imag + RECT_ABOVE_IM)
        moved = tuple(x + rng.uniform(-RECT_JITTER, RECT_JITTER) for x in rect)
        out.append((label, stokesgeo.ComplexPolynomial(coeffs), moved))
    return out


def spectrum_polys(item):
    return [item[1]]


def run_spectrum(item):
    _, poly, rect = item
    return stokesgeo.wronskian_eigenvalue_search(poly, (0, 2), rect)


@functools.lru_cache(maxsize=None)
def expected_zeros(label, coeffs, rect):
    """The oscillator's spectrum is the odd integers; the cubic's comes
    from the collocation solve."""
    re0, re1, im0, im1 = rect
    if label == "oscillator":
        return [complex(k) for k in range(1, 12, 2)
                if re0 <= k <= re1 and im0 <= 0.0 <= im1]
    return collocation_eigenvalues(coeffs, rect)


def check_spectrum(item, zeros):
    label, poly, rect = item
    expected = expected_zeros(label, poly.coeffs, rect)
    tol = 1e-9 if label == "oscillator" else 1e-8
    if len(zeros) != len(expected):
        return [f"{label}: {len(zeros)} zeros, expected {len(expected)}"]
    problems = []
    for z in zeros:
        err = min(abs(z - e) for e in expected)
        if err > tol:
            problems.append(f"{label}: zero {z} off by {err:.2e}")
    return problems
