import cmath
import math
import random

import numpy as np
import pytest

from stokesgeo import (BranchError, ComplexPolynomial, accumulation_rays,
                       parse_poly_text)
from stokesgeo import pathint


def random_simple_poly(rng, d, min_sep=0.5, radius=1.5):
    """Monic centered polynomial with simple, well-separated roots."""
    while True:
        roots = [complex(rng.uniform(-radius, radius),
                         rng.uniform(-radius, radius)) for _ in range(d)]
        mean = sum(roots) / d
        roots = [r - mean for r in roots]
        if all(abs(roots[i] - roots[j]) >= min_sep
               for i in range(d) for j in range(i + 1, d)):
            return ComplexPolynomial.from_roots(1.0, roots)


def stream_polys(seed, per_degree):
    """The first ``per_degree`` polynomials of each degree of the
    criterion-3 stream ``seed``, which draws 50 per degree."""
    rng = random.Random(seed)
    out = []
    for d in (3, 4, 5):
        polys = [random_simple_poly(rng, d, min_sep=0.5, radius=1.5)
                 for _ in range(50)]
        out.extend(polys[:per_degree])
    return out


def criterion_6_polys():
    """The 90 inputs of acceptance criterion 6, 30 per degree 3, 4, 5."""
    rng = random.Random(5150)
    return [random_simple_poly(rng, d, min_sep=0.5, radius=1.5)
            for d in (3, 4, 5) for _ in range(30)]


def _far_root_draw(k):
    """Draw k of the far-root generator: degree 4 + k % 2, d - 1 roots in
    [-1.5, 1.5]^2 at least 0.5 apart and one root at modulus 60-100,
    centred."""
    rng = random.Random(99)
    for draw in range(k + 1):
        d = 4 + draw % 2
        while True:
            roots = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                     for _ in range(d - 1)]
            if all(abs(roots[i] - roots[j]) >= 0.5
                   for i in range(d - 1) for j in range(i + 1, d - 1)):
                break
        roots.append(cmath.rect(rng.uniform(60, 100),
                                rng.uniform(0, 2 * math.pi)))
        mean = sum(roots) / d
    return ComplexPolynomial.from_roots(1.0, [r - mean for r in roots])


class _RecursiveWalker:
    """Reference continuation: each failed direct step recurses on its
    two halves, down to depth 60."""

    def __init__(self, poly, roots, z0, w0):
        self.poly, self.roots = poly, tuple(roots)
        self.z, self.w = complex(z0), complex(w0)

    def advance(self, z1):
        self.w = self._continue(self.z, self.w, complex(z1), 0)
        self.z = complex(z1)
        return self.w

    def _continue(self, z0, w0, z1, depth):
        if z1 == z0:
            return w0
        near = min((abs(z0 - r) for r in self.roots), default=float("inf"))
        p0 = w0 * w0
        if abs(z1 - z0) <= 0.25 * near:
            p1 = self.poly.evaluate(z1)
            if p1.real * p0.real + p1.imag * p0.imag > 0.0:
                w1 = cmath.sqrt(p1)
                if w1.real * w0.real + w1.imag * w0.imag < 0.0:
                    w1 = -w1
                return w1
        if depth > 60:
            raise BranchError("depth")
        zm = 0.5 * (z0 + z1)
        return self._continue(zm, self._continue(z0, w0, zm, depth + 1), z1,
                              depth + 1)


def _root_chord_reference(poly, roots, root, mult, z1, w1, rel_tol=1e-9,
                          abs_floor=1e-13):
    """The root chart z = root + (z1 - root) u^2 integrated by an adaptive
    GK15 panel stack, one node at a time: u runs from 1 down to 0 within
    each panel, panels are taken outer-first, and the Gauss-7 sum is formed
    in ascending u.  Each panel's tolerance is set against
    max(abs_floor, rel_tol |w1| |z1 - root|).  ``roots`` bound the
    continuation's steps; ``root`` is dropped from them.  It is the
    reference for the root series' primitive xi (``SeriesAtRoot.xi``)."""
    dz = complex(z1) - complex(root)
    q = poly.deflate(root, mult)
    other = tuple(r for r in roots if r != root)
    wq1 = cmath.sqrt(q.evaluate(z1))
    walker = _RecursiveWalker(q, other, z1, wq1)
    dz_half = cmath.exp(0.5 * mult * cmath.log(dz))
    check = dz_half * wq1
    sign = -1.0 if check.real * w1.real + check.imag * w1.imag < 0.0 else 1.0
    front = 2.0 * dz * dz_half * sign
    total = 0j
    stack = [(0.0, 1.0, max(abs_floor, rel_tol * abs(w1) * abs(dz)))]
    while stack:
        ua, ub, tol = stack.pop()
        anchor_z, anchor_w = walker.z, walker.w
        mid, half = 0.5 * (ua + ub), 0.5 * (ub - ua)
        i15, gauss_vals = 0j, []
        for k in range(14, -1, -1):
            u = mid + half * pathint._KRONROD_NODES[k]
            val = front * (u ** (mult + 1)) * walker.advance(root
                                                             + dz * u * u)
            i15 += pathint._KRONROD_WEIGHTS[k] * val
            if k % 2 == 1:
                gauss_vals.append(val)
        i7 = 0j
        for val, gw in zip(reversed(gauss_vals), pathint._GAUSS_WEIGHTS):
            i7 += gw * val
        i15 *= half
        i7 *= half
        if abs(i15 - i7) <= tol or (ub - ua) < 1e-12:
            total += i15
            if ua > 0.0:
                walker.advance(root + dz * ua * ua)
        else:
            walker.z, walker.w = anchor_z, anchor_w
            um = 0.5 * (ua + ub)
            stack.append((ua, um, 0.6 * tol))
            stack.append((um, ub, 0.6 * tol))
    return total


@pytest.fixture(scope="session")
def stream_rays():
    """(poly, rays) for the first 5 polynomials per degree of the
    criterion-3 streams 20260808 and 1.  Entry 3, the 4th cubic of
    20260808, has a stadium of 37 vertices: its clearance is about as long
    as its geodesic."""
    return [(poly, accumulation_rays(poly))
            for seed in (20260808, 1) for poly in stream_polys(seed, 5)]


def moving_zero_wronskian(zero):
    """Stand-in for ``spectrum._wronskian_batch``: a simple zero at ``zero``
    for the winding counts, moved by 0.01 to alternate sides on every
    polishing call (rtol 1e-11), so the polish cannot converge."""
    polish_calls = [0]

    def batch(poly, lams, sectors, config, rtol, lam_ref=None):
        lams = np.asarray(lams, dtype=complex)
        shift = 0.0
        if rtol == 1e-11:
            polish_calls[0] += 1
            shift = 0.01 * (-1) ** polish_calls[0]
        return lams - zero - shift, np.zeros(len(lams))
    return batch


@pytest.fixture
def osc():
    """z^2 - 1, the shifted harmonic oscillator."""
    return parse_poly_text("1,0,-1")


@pytest.fixture
def cubic_unity():
    """z^3 - 1."""
    return parse_poly_text("1,0,0,-1")


@pytest.fixture
def cubic_odd():
    """z^3 - z."""
    return parse_poly_text("1,0,-1,0")
