import cmath
import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from stokesgeo import (ComplexPolynomial, ParseError, parse_poly_text,
                       stokes_sectors, turning_points)
from stokesgeo.polynomial import (PolyContext, format_poly_text,
                                  parse_complex, wrap_angle, wrap_positive)
from tests.conftest import _far_root_draw, stream_polys

TWO_PI = 2 * math.pi


def test_evaluate():
    p = parse_poly_text("1,0,-1")
    assert p.evaluate(0) == -1
    assert p.evaluate(2) == 3
    p3 = parse_poly_text("1,0,-1,0")
    assert p3.evaluate(1j) == -2j


def test_roots_quadratic():
    tps = turning_points(parse_poly_text("1,0,-1"))
    locs = sorted(tps.locations, key=lambda z: z.real)
    assert abs(locs[0] + 1) < 1e-12
    assert abs(locs[1] - 1) < 1e-12
    assert [m for _, m in tps.points] == [1, 1]


def test_roots_cubic_unity():
    tps = turning_points(parse_poly_text("1,0,0,-1"))
    expected = sorted((cmath.exp(2j * math.pi * k / 3) for k in range(3)),
                      key=lambda z: (z.real, z.imag))
    got = sorted(tps.locations, key=lambda z: (z.real, z.imag))
    for a, b in zip(got, expected):
        assert abs(a - b) < 1e-12


def test_roots_with_multiplicity():
    # (z - 3)(z - 1 - i)^2 expanded
    p = ComplexPolynomial.from_roots(1.0, [3, 1 + 1j, 1 + 1j])
    tps = turning_points(p, tol=1e-8)
    by_mult = {m: r for r, m in tps.points}
    assert set(by_mult) == {1, 2}
    assert abs(by_mult[1] - 3) < 1e-8
    assert abs(by_mult[2] - (1 + 1j)) < 1e-8


def test_root_failure_reporting():
    # pathological scaling should either succeed or raise with residuals
    p = parse_poly_text("1,0,0,0,0,-1")
    tps = turning_points(p)
    assert tps.total_multiplicity == 5


def test_sectors_z2():
    s = stokes_sectors(parse_poly_text("1,0,0"))
    assert s.count == 4
    assert s.half_width == pytest.approx(math.pi / 4)
    assert list(s.centers) == pytest.approx([0, math.pi / 2, math.pi,
                                             3 * math.pi / 2])


def test_sectors_airy():
    s = stokes_sectors(parse_poly_text("1,0"))
    assert s.count == 3
    assert list(s.centers) == pytest.approx([0, 2 * math.pi / 3,
                                             4 * math.pi / 3])


def test_sector_positive_scaling_exact():
    p = parse_poly_text("1,0,-1,2")
    base = stokes_sectors(p)
    for c in (2.0, 10.0, 0.5):
        scaled = stokes_sectors(p.scaled(c))
        assert scaled == base


def test_ray_angle_equation():
    # each ray angle must satisfy cos(phi0/2 + (d+2) theta / 2) = 0
    p = ComplexPolynomial((1 + 2j, 0.5, -1))
    s = stokes_sectors(p)
    for theta in s.ray_angles:
        assert abs(math.cos(p.phi0 / 2 + (p.degree + 2) * theta / 2)) < 1e-12


def test_rotate():
    p = parse_poly_text("1,0,-1")
    assert p.rotate(0) == p
    q = p.rotate(math.pi / 2)
    assert abs(q.coeffs[0] + 1) < 1e-15
    assert abs(q.coeffs[2] - 1) < 1e-15
    r = parse_poly_text("1,0,0,-1")
    back = r.rotate(math.pi)
    assert max(abs(a - b) for a, b in zip(back.coeffs, r.coeffs)) < 1e-14


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_poly_text("1,,2")
    with pytest.raises(ParseError):
        parse_poly_text("")
    with pytest.raises(ValueError):
        ComplexPolynomial((0, 1))


def test_parse_complex_forms():
    assert parse_complex("1") == 1
    assert parse_complex("-2i") == -2j
    assert parse_complex("0.5+0.25i") == 0.5 + 0.25j
    assert parse_complex("1.5e-2-3i") == 0.015 - 3j


def test_format_roundtrip():
    p = ComplexPolynomial((1 + 0.5j, -2, 0.25j))
    assert parse_poly_text(format_poly_text(p)) == p


@st.composite
def separated_roots(draw):
    d = draw(st.integers(2, 6))
    roots = []
    for _ in range(40):
        z = complex(draw(st.floats(-2, 2)), draw(st.floats(-2, 2)))
        if all(abs(z - r) > 0.4 for r in roots):
            roots.append(z)
        if len(roots) == d:
            return roots
    return roots if len(roots) >= 2 else [0.0, 1.0]


@settings(max_examples=40, deadline=None)
@given(separated_roots(), st.floats(-3.0, 3.0))
def test_rotation_preserves_roots(roots, t):
    p = ComplexPolynomial.from_roots(1.0, roots)
    a = list(turning_points(p).locations)
    b = list(turning_points(p.rotate(t)).locations)
    for x in a:
        match = min(b, key=lambda y: abs(x - y))
        assert abs(x - match) < 1e-8
        b.remove(match)


@settings(max_examples=40, deadline=None)
@given(separated_roots())
def test_reconstruction_residual(roots):
    p = ComplexPolynomial.from_roots(1.0, roots)
    tps = turning_points(p)
    assert tps.reconstruction_residual(p) < 1e-8


@settings(max_examples=25, deadline=None)
@given(separated_roots(), st.floats(-1.5, 1.5))
def test_ray_shift_under_rotation(roots, t):
    # rays of the rotated member are the original ones shifted by
    # -2t/(d+2), up to cyclic relabeling
    p = ComplexPolynomial.from_roots(1.0, roots)
    d = p.degree
    base = stokes_sectors(p).ray_angles
    rot = stokes_sectors(p.rotate(t)).ray_angles
    shift = -2.0 * t / (d + 2)
    period = TWO_PI / (d + 2)
    for theta in rot:
        residue = (theta - (base[0] + shift)) % period
        assert min(residue, period - residue) < 1e-9


def test_context_rotation_keeps_roots_and_scales(cubic_odd):
    ctx = PolyContext.of(cubic_odd)
    rot = ctx.rotate(0.3)
    assert rot.tps is ctx.tps and rot.scales is ctx.scales
    assert rot.poly == cubic_odd.rotate(0.3)
    assert rot.sectors == stokes_sectors(cubic_odd.rotate(0.3))
    assert ctx.nearest_root(0.9) == (2, pytest.approx(0.1))
    assert ctx.nearest_root(0.9, skip=2)[0] == 1


def test_wrap_with_period():
    assert wrap_angle(3.0) == 3.0
    assert wrap_angle(2.0, math.pi) == pytest.approx(2.0 - math.pi)
    assert wrap_angle(-math.pi / 2, math.pi) == pytest.approx(math.pi / 2)
    assert wrap_positive(-0.5, math.pi) == pytest.approx(math.pi - 0.5)
    assert wrap_positive(7.0) == pytest.approx(7.0 - TWO_PI)


def test_series_at_infinity_squares_to_p():
    # a0 z^d S^2 from the series at infinity is P at the cone radius r_c
    # and at 2 r_c, to 1e-14 relative, on the stream polynomials and the
    # far-root draws (worst 8.3e-16 here; the series from the power sums
    # of the computed roots reached 7.4e-13 on the far-root draws)
    polys = (stream_polys(20260808, 5) + stream_polys(1, 5)
             + [_far_root_draw(k) for k in range(40)])
    worst = 0.0
    for poly in polys:
        series = turning_points(poly).at_infinity
        a0, d = poly.coeffs[0], poly.degree
        for r in (series.cone_radius, 2.0 * series.cone_radius):
            for k in range(16):
                z = cmath.rect(r, TWO_PI * (k + 0.5) / 16)
                s_sum, _ = series.chart(z)
                p = poly.evaluate(z)
                worst = max(worst, abs(a0 * z ** d * s_sum ** 2 - p) / abs(p))
    assert worst <= 1e-14
