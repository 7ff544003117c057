import numpy as np
import pytest

from stokesgeo import ComplexPolynomial, parse_poly_text


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
