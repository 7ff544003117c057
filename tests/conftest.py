import random

import numpy as np
import pytest

from stokesgeo import ComplexPolynomial, accumulation_rays, parse_poly_text


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

    def batch(poly, lams, sectors, config, rtol):
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
