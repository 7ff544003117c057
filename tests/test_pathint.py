import cmath
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from stokesgeo import (BranchError, ClearanceError, ComplexPolynomial,
                       accumulation_rays, alpha_contour_integrals,
                       pairwise_periods, parse_poly_text, turning_points,
                       winding_number)
from stokesgeo import pathint
from stokesgeo.polynomial import PolyContext, SeriesAtRoot, TurningPointSet
from stokesgeo.pathint import (build_stadium, integrate_polyline,
                               min_clearance, re_xi_drift)

from tests.conftest import (_RecursiveWalker, _root_chord_reference,
                            random_simple_poly)


PI = math.pi


def circle(center, radius, n=129):
    return [center + radius * cmath.exp(2j * math.pi * k / (n - 1))
            for k in range(n)]


def walk(poly, verts, start=False, end=False):
    """(total of sqrt(P) dz, branch values) of ``integrate_polyline``; with
    ``start`` (``end``) the first (last) vertex is the turning point nearest
    it, whose chord integrates on that root's series."""
    at_roots = turning_points(poly).at_roots if poly.degree else ()

    def series(v):
        return min(at_roots, key=lambda s: abs(s.center - v))
    (total,), branch, _ = integrate_polyline(
        poly, [s.center for s in at_roots], verts,
        start=series(verts[0]) if start else None,
        end=series(verts[-1]) if end else None)
    return total, branch


def _series(poly, points, i):
    """The local series of sqrt(P) about root i of the exact root set
    ``points``, (root, multiplicity) pairs."""
    return TurningPointSet(tuple(points), coeffs=poly.coeffs).at_roots[i]


def same_branch(w1, w2):
    """+1 when w1 and w2 are the same value of sqrt(P), -1 when opposite."""
    return 1 if (w1 * w2.conjugate()).real > 0 else -1


# --- branch continuation -------------------------------------------------------

def test_constant_potential():
    p = ComplexPolynomial((1 + 0j,))
    total, branch = walk(p, [0, 1, 1 + 1j])
    assert branch == [1, 1, 1]
    assert total == pytest.approx(1 + 1j)


def test_square_potential_single_valued():
    p = parse_poly_text("1,0,0")
    _, branch = walk(p, circle(0, 1.0, 65))
    assert abs(branch[0] - 1.0) < 1e-12 and abs(branch[-1] - 1.0) < 1e-12


def test_sqrt_z_monodromy():
    p = parse_poly_text("1,0")
    _, branch = walk(p, circle(0, 1.0, 65))
    assert branch[0] == 1.0
    assert abs(branch[-1] + 1.0) < 1e-8


def _reference_panel(walk, scale, sa, sb, f):
    """(i15, i7, nodes) of f(z, w) dz on the panel [sa, sb] of a chart,
    summed node by node in walk order: ``walk(mid, half)`` gives the
    (z, w) of the nodes mid + half x_k in order, and ``nodes`` are their z."""
    mid, half = 0.5 * (sa + sb), 0.5 * (sb - sa)
    i15 = i7 = 0j
    nodes = walk(mid, half)
    for k, (z, w) in enumerate(nodes):
        val = f(z, w)
        i15 += pathint._KRONROD_WEIGHTS[k] * val
        if k % 2 == 1:
            i7 += pathint._GAUSS_WEIGHTS[k // 2] * val
    return i15 * half * scale, i7 * half * scale, tuple(z for z, _ in nodes)


def _two_pass_chord(poly, roots, z0, w0, z1, f, rel_tol=1e-9,
                    abs_floor=1e-13):
    """Reference chord quadrature, one node at a time: the whole-chord
    panel is evaluated once for the tolerance and again as the first panel
    of the subdivision.  Returns (total, w at z1, the nodes of each panel
    of the tree, the sum of |i15| over the accepted panels)."""
    walker = _RecursiveWalker(poly, roots, z0, w0)
    dz = z1 - z0

    def walk(mid, half):
        return [(z, walker.advance(z)) for z in
                [z0 + (mid + half * x) * dz for x in pathint._KRONROD_NODES]]
    est15, _, _ = _reference_panel(walk, dz, 0.0, 1.0, f)
    target = max(abs_floor, rel_tol * abs(est15))
    walker.z, walker.w = complex(z0), complex(w0)
    total, size, panels = 0j, 0.0, []
    stack = [(0.0, 1.0, target)]
    while stack:
        sa, sb, tol = stack.pop()
        anchor_z, anchor_w = walker.z, walker.w
        i15, i7, nodes = _reference_panel(walk, dz, sa, sb, f)
        panels.append(nodes)
        if abs(i15 - i7) <= tol or (sb - sa) < 1e-12:
            total += i15
            size += abs(i15)
            walker.advance(z0 + sb * dz)
        else:
            walker.z, walker.w = anchor_z, anchor_w
            sm = 0.5 * (sa + sb)
            stack.append((sm, sb, 0.6 * tol))
            stack.append((sa, sm, 0.6 * tol))
    return total, walker.advance(z1), panels, size


def _recorded(f, panels):
    """The density f, recording the nodes of each panel it is evaluated on
    (one row of its z per panel)."""
    def density(z, w):
        panels.extend(tuple(row) for row in z.tolist())
        return f(z, w)
    return density


@pytest.mark.parametrize("z0, z1, one_panel", [
    (0.1 + 0.2j, -0.2 + 0.35j, True),
    (-0.2 - 0.3j, -0.6 - 0.1j, True),
    (1.5 + 0.003j, 0.5 + 0.003j, False),     # passes 0.003 from root 1
    (2.0 - 0.5j, -0.5 + 0.9j, False),        # passes 0.03 from root 1
])
def test_integrate_chord_bitwise_matches_two_pass(cubic_unity, z0, z1,
                                                  one_panel):
    # the batched walk sums the node values of the reference's panel tree,
    # each panel once: the nodes, hence the tree, agree bit for bit, and
    # the sums to the rounding of numpy's P, sqrt and summation order
    roots = [r for r, _ in turning_points(cubic_unity).points]
    # 2 delta_path of z^3-1 is 3.5e-3: the third chord must subdivide
    assert 2 * PolyContext.of(cubic_unity).scales.delta_path > 0.003
    w0 = cmath.sqrt(cubic_unity.evaluate(z0))
    for f in (lambda z, w: w, lambda z, w: z * w):
        seen = []
        [total], w1 = pathint.integrate_chord(cubic_unity, roots, z0, w0, z1,
                                              [_recorded(f, seen)])
        ref, ref_w1, panels, size = _two_pass_chord(cubic_unity, roots, z0,
                                                    w0, z1, f)
        assert Counter(seen) == Counter(panels)
        assert len(set(panels)) == len(panels)
        assert abs(total - ref) <= 1e-14 * size
        assert abs(w1 - ref_w1) <= 1e-14 * abs(ref_w1)
        if one_panel:
            assert len(panels) == 1
        else:
            assert len(panels) > 3


def test_walker_on_a_root_hits_the_depth_limit(cubic_unity):
    # a step from a root fails the distance rule, and so does each left
    # half down to depth 60: the error names the root, where the half that
    # fails past depth 60 starts
    roots = [r for r, _ in turning_points(cubic_unity).points]
    with pytest.raises(BranchError) as info:
        pathint.continue_branch(cubic_unity, roots,
                                [[roots[0], roots[0] + 0.5]], [0j])
    assert str(info.value) == (
        f"square-root continuation failed near z = {roots[0]:.6g} "
        "(path too close to a turning point?)")


def _arc_position(verts, p):
    """Position of the point p on the polyline ``verts``: chord index plus
    the fraction of that chord."""
    best = None
    for c, (a, b) in enumerate(zip(verts, verts[1:])):
        s = ((p - a) / (b - a)).real
        off = abs(p - (a + min(1.0, max(0.0, s)) * (b - a)))
        if best is None or off < best[0]:
            best = (off, c + min(1.0, max(0.0, s)))
    return best[1]


def test_batched_steps_pass_the_direct_step_rule(cubic_unity, monkeypatch):
    # the middle chord passes 0.003 from the root 1, so steps between its
    # nodes are halved inside the batch: every step walked, halves
    # included, is at most a quarter of its start's distance to the
    # nearest root and turns P by less than pi/2
    roots = [r for r, _ in turning_points(cubic_unity).points]
    verts = [2.0 + 0.5j, 1.5 + 0.003j, 0.5 + 0.003j, 0.2 + 0.4j]
    evaluate = ComplexPolynomial.evaluate
    calls = []       # per continuation: its walks and the points evaluated

    def recorded(self, z):
        if calls:
            calls[-1][1].append(np.ravel(z))
        return evaluate(self, z)

    def spy(poly, roots, z, w0):
        calls.append((np.asarray(z), []))
        return branch(poly, roots, z, w0)
    branch = pathint.continue_branch
    monkeypatch.setattr(ComplexPolynomial, "evaluate", recorded)
    monkeypatch.setattr(pathint, "continue_branch", spy)
    integrate_polyline(cubic_unity, roots, verts)
    halves = 0
    for walks, evaluated in calls:
        # the first evaluation is the walks' own points, the rest halves
        mids = [complex(m) for batch in evaluated[1:] for m in batch]
        halves += len(mids)
        for row in walks.tolist():
            lo, hi = _arc_position(verts, row[0]), _arc_position(verts, row[-1])
            chain = sorted(row + [m for m in mids
                                  if lo < _arc_position(verts, m) < hi],
                           key=lambda p: _arc_position(verts, p))
            for a, b in zip(chain, chain[1:]):
                assert abs(b - a) <= 0.25 * min(abs(a - r) for r in roots)
                pa, pb = evaluate(cubic_unity, a), evaluate(cubic_unity, b)
                assert (pb * pa.conjugate()).real > 0.0
    assert halves > 0 and len(calls) > 2


def test_clearance_enforced():
    # the circle encloses both roots, so sqrt(P) is single-valued on it,
    # but its vertex 1 + 0.5 delta_path passes too close to the root 1
    p = parse_poly_text("1,0,-1")
    delta = PolyContext.of(p).scales.delta_path
    with pytest.raises(ClearanceError):
        alpha_contour_integrals(p, circle(0, 1.0 + 0.5 * delta), 0)


def test_branch_continuity_invariant():
    p = parse_poly_text("1,0,0,-1")
    _, branch = walk(p, circle(0, 2.0, 200))
    for w1, w2 in zip(branch, branch[1:]):
        assert w1.real * w2.real + w1.imag * w2.imag > 0  # |d arg| < pi/2


# --- integrals from and to turning points -----------------------------------

def test_airy_segment_closed_form():
    p = parse_poly_text("1,0")
    val, _ = walk(p, [0.0, 1.0], start=True)
    assert val == pytest.approx(2.0 / 3.0, abs=1e-10)


def _spy(monkeypatch, name, calls, owner=pathint):
    """Record the arguments of each call of ``owner.<name>``: a function of
    ``pathint`` or, with ``owner=SeriesAtRoot``, the series' primitive
    ``xi`` (its arguments (series, a0, z, w))."""
    original = getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(owner, name, spy)


@pytest.mark.parametrize("coeffs, roots, mult, z1, splits", [
    ("1,0,-1", (1.0, -1.0), 1, 1.3 + 0.2j, False),
    ("1,0,-1", (1.0, -1.0), 1, -0.99 + 0.01j, True),    # ends 0.014 from -1
    ("1,-2,0,0", (0.0, 2.0), 2, 0.3 + 0.2j, False),
    ("1,-2,0,0", (0.0, 2.0), 2, 1.99 + 0.01j, True),    # ends 0.014 from 2
])
def test_root_chord_matches_its_own_panel_loop(coeffs, roots, mult, z1,
                                               splits, monkeypatch):
    # the root series' primitive, split where the chord leaves half the
    # distance to the other root, against the chart's adaptive panel loop
    # at a tolerance of 1e-13; within the reach the primitive is one call
    # and no walk, beyond it the outer part is one regular chord
    p = parse_poly_text(coeffs)
    root = roots[0]
    series = _series(p, [(root, mult), (roots[1], 1)], 0)
    walks, primitives = [], []
    _spy(monkeypatch, "_gk15", walks)
    _spy(monkeypatch, "xi", primitives, SeriesAtRoot)
    for w1 in (cmath.sqrt(p.evaluate(z1)), -cmath.sqrt(p.evaluate(z1))):
        walks.clear()
        primitives.clear()
        got = pathint.integrate_chord_from_root(p, roots, series, z1, w1)
        ref = _root_chord_reference(p, roots, root, mult, z1, w1,
                                    rel_tol=1e-13, abs_floor=0.0)
        assert abs(got - ref) <= 1e-12 * abs(ref)
        assert len(primitives) == 1
        if splits:
            (_, _, verts, *_), = walks
            assert verts[0] == z1 and abs(verts[1] - root) == (
                pytest.approx(0.5 * abs(roots[1] - root), rel=1e-15))
            assert primitives[0][2] == verts[1]
        else:
            assert walks == [] and primitives[0][2] == z1


@pytest.mark.parametrize("z1", [1.5 + 0.5j, 0.4 - 0.3j, 2.0 + 1e-3j])
def test_simple_root_chord_closed_form(osc, z1):
    # int_1^z sqrt(z^2 - 1) dz = (z w - log(z + w)) / 2, and z + w stays
    # off the negative real axis along these chords from 1
    series = _series(osc, [(1.0, 1), (-1.0, 1)], 0)
    for w1 in (cmath.sqrt(osc.evaluate(z1)), -cmath.sqrt(osc.evaluate(z1))):
        got = pathint.integrate_chord_from_root(osc, (-1.0, 1.0), series,
                                                z1, w1)
        expect = 0.5 * (z1 * w1 - cmath.log(z1 + w1))
        assert abs(got - expect) <= 1e-12 * abs(expect)


@pytest.mark.parametrize("z1", [0.5 + 0.5j, -0.7 + 0.4j, 1.5 + 0.1j])
def test_double_root_chord_closed_form(z1):
    # P = z^2 (z - 2), sqrt(P) = z v with v = sqrt(z - 2), and
    # F = (2/5) v^5 + (4/3) v^3 has F' = z v.  On these chords z - 2 stays
    # in the upper half-plane, where the principal v is continuous and
    # tends to i sqrt(2) at z = 0
    p = parse_poly_text("1,-2,0,0")
    series = _series(p, [(0.0, 2), (2.0, 1)], 0)
    v_principal = cmath.sqrt(z1 - 2.0)
    for sign in (1.0, -1.0):
        w1 = sign * z1 * v_principal
        got = pathint.integrate_chord_from_root(p, (0.0, 2.0), series, z1,
                                                w1)
        expect = 0.0
        for v, s in ((sign * v_principal, 1.0),
                     (sign * 1j * math.sqrt(2.0), -1.0)):
            expect += s * (0.4 * v ** 5 + (4.0 / 3.0) * v ** 3)
        assert abs(got - expect) <= 1e-12 * abs(expect)


def _sweep_chords(rng, n_polys):
    """(poly, roots, series, z1) for chords from a root of random
    polynomials of degree 3-12, at 0.1, 0.25 and 0.5 of the distance to
    the root's nearest other root, in random directions."""
    out = []
    polys = [random_simple_poly(rng, 3 + k % 10, min_sep=0.2, radius=1.5)
             for k in range(n_polys)]
    # a double root among simple ones
    polys.append(ComplexPolynomial.from_roots(
        1.0, [0.3 + 0.1j, 0.3 + 0.1j, -1.0, 1.2j, 0.9 - 0.7j]))
    for poly in polys:
        ctx = PolyContext.of(poly)
        series = ctx.tps.at_roots[rng.randrange(len(ctx.locs))]
        for frac in (0.1, 0.25, 0.5):
            z1 = series.center + frac * series.rho * cmath.exp(
                1j * rng.uniform(0, 2 * PI))
            out.append((poly, ctx.locs, series, z1))
    return out


def test_root_rule_matches_the_adaptive_chart():
    # the root series' primitive xi against the chart's adaptive panel
    # loop at a tolerance of 1e-14, up to the reach, the double root
    # included (worst 4.0e-15 |w1||z1 - r|; at 1e-15, below what GK15's
    # |i15 - i7| resolves, the reference refines into rounding noise for
    # 3.7e-15 in 200 times the time)
    rng = random.Random(2020)
    chords = _sweep_chords(rng, 30)
    assert any(series.power == 2 for _, _, series, _ in chords)
    for poly, roots, series, z1 in chords:
        root = series.center
        w1 = cmath.sqrt(poly.evaluate(z1))
        got = series.xi(poly.coeffs[0], z1, w1)
        ref = _root_chord_reference(poly, roots, root, series.power, z1, w1,
                                    rel_tol=1e-14, abs_floor=0.0)
        assert abs(got - ref) <= 1e-14 * abs(w1) * abs(z1 - root)


@pytest.mark.parametrize("z1", [3.0 + 1.0j, 10.0 + 3.0j, -0.5 + 2.0j])
def test_split_root_chord_closed_form(osc, z1, monkeypatch):
    # int_1^z sqrt(z^2 - 1) dz = (z w - log(z + w)) / 2, the log continued
    # from log 1 = 0 along the chord; these chords leave the reach (1, half
    # the distance to -1), so each is the series' primitive plus one
    # regular chord
    walks = []
    _spy(monkeypatch, "_gk15", walks)
    series = _series(osc, [(1.0, 1), (-1.0, 1)], 0)
    for w1 in (cmath.sqrt(osc.evaluate(z1)), -cmath.sqrt(osc.evaluate(z1))):
        got = pathint.integrate_chord_from_root(osc, (-1.0, 1.0), series,
                                                z1, w1)
        # z + w along the chord, from z1 back to 1, with w matched node
        # to node, and its argument unwrapped from 0 at z = 1
        ts = np.linspace(1.0, 0.0, 20001)
        zs = 1.0 + ts * (z1 - 1.0)
        ws = np.sqrt(zs * zs - 1.0)
        ws[0] = w1
        for k in range(1, len(ws)):
            if (ws[k] * ws[k - 1].conjugate()).real < 0.0:
                ws[k] = -ws[k]
        arg = np.unwrap(np.angle(zs + ws))
        log_end = math.log(abs(z1 + w1)) + 1j * (arg[0] - arg[-1])
        expect = 0.5 * (z1 * w1 - log_end)
        assert abs(got - expect) <= 1e-12 * abs(expect)
    assert len(walks) == 2


@pytest.mark.parametrize("c, root, mult", [
    (2.0 - 1.0j, 0.5 + 0.2j, 1),
    (1.0j, -1.0, 2),
    (0.3 + 0.4j, 0.25j, 3),
])
def test_lone_root_rule_at_any_length(c, root, mult, monkeypatch):
    # P = c (z - r)^m has no other root, so q = c, the series is S = 1
    # and its primitive holds at any length:
    # (2 / (m + 2)) sqrt(c) (z - r)^{(m+2)/2}, which is
    # 2 / (m + 2) (z1 - r) w1 on the branch of w1
    p = ComplexPolynomial.from_roots(c, [root] * mult)
    series = _series(p, [(root, mult)], 0)
    walks = []
    _spy(monkeypatch, "_gk15", walks)
    for z1 in (root + 0.3 - 0.1j, root - 40.0 + 75.0j):
        for sign in (1.0, -1.0):
            w1 = sign * cmath.sqrt(p.evaluate(z1))
            got = pathint.integrate_chord_from_root(p, (root,), series,
                                                    z1, w1)
            expect = 2.0 / (mult + 2) * (z1 - root) * w1
            assert abs(got - expect) <= 1e-13 * abs(expect)
    assert walks == []


@pytest.mark.parametrize("verts", [
    [-1.0, 0.5 + 2.5j, 1.5 + 2.0j, 1.0],
    [-1.0, 0.5 + 2.5j, 1.0],
])
def test_polyline_with_split_ends(osc, verts, monkeypatch):
    # both end chords leave the reach (1 from each root), so the walk
    # takes the two split points as well, in one _gk15 call.  branch keeps
    # one value per regular input vertex, the first the principal sqrt(P)
    # at verts[1], and running one total per input chord; each end chord
    # is the split chord of integrate_chord_from_root
    roots = (-1.0, 1.0)
    start, end = (_series(osc, [(-1.0, 1), (1.0, 1)], i) for i in (0, 1))
    walks = []
    _spy(monkeypatch, "_gk15", walks)
    (total,), branch, running = integrate_polyline(
        osc, roots, verts, start=start, end=end)
    assert len(walks) == 1 and len(walks[0][2]) == len(verts)
    assert len(branch) == len(verts) - 2
    assert branch[0] == cmath.sqrt(osc.evaluate(verts[1]))
    assert len(running) == len(verts) - 1
    assert running[-1] == [total]
    assert abs(total) == pytest.approx(PI / 2, rel=1e-12)
    # the walk is seeded at the first split point e, from where the
    # principal branch reaches verts[1] on the other sign: z^2 - 1 is
    # negative on the imaginary axis between them
    (_, _, walk, *_), = walks
    e, v1 = complex(walk[0]), complex(walk[1])
    assert e.real < 0.0 < v1.real
    continued = pathint.continue_branch(osc, roots, [[e, v1]],
                                        [cmath.sqrt(osc.evaluate(e))])
    assert same_branch(complex(continued[0, 1]), branch[0]) == -1
    # chord by chord, against the one-chord calls on the same branches
    walks.clear()
    expect = pathint.integrate_chord_from_root(osc, roots, start, verts[1],
                                               branch[0])
    assert abs(running[0][0] - expect) <= 1e-12 * abs(expect)
    for k in range(1, len(verts) - 2):
        [part], _ = pathint.integrate_chord(osc, roots, verts[k],
                                            branch[k - 1], verts[k + 1],
                                            [pathint.sqrt_density])
        expect += part
        assert abs(running[k][0] - expect) <= 1e-12 * abs(expect)
    expect -= pathint.integrate_chord_from_root(osc, roots, end, verts[-2],
                                                branch[-1])
    assert abs(total - expect) <= 1e-12 * abs(expect)


def test_reversal_negates():
    # P = z^3 - 1 crosses the negative real axis on this segment, so the
    # walk back starts on the other branch than the one it left on
    p = parse_poly_text("1,0,0,-1")
    fwd, fwd_branch = walk(p, [2.0, 2.0 + 3.6j])
    back, back_branch = walk(p, [2.0 + 3.6j, 2.0])
    assert same_branch(fwd_branch[-1], back_branch[0]) == -1
    assert abs(fwd - back) < 1e-12 * abs(fwd)


def test_root_start_defaults_to_principal_at_regular_vertex(osc):
    # a two-vertex path with a turning-point end is walked through its
    # midpoint, its first regular vertex.  With two root ends it is the
    # only one, and the walk starts there on the principal
    # sqrt(z^2 - 1) = i
    val, branch = walk(osc, [-1.0, 1.0], start=True, end=True)
    assert branch == [1j]
    assert val == pytest.approx(1j * math.pi / 2, abs=1e-12)
    # from one root end as well: the midpoint's principal value, continued
    # to the far vertex v, is minus the principal value there for these
    # three, so the walk from v, which starts on that one, runs on the
    # opposite branch and the two integrals agree
    p = parse_poly_text("1,0,0,-1")
    for v in (0.2 + 0.5j, 0.3 - 0.6j, -1 + 1e-3j):
        fwd, fwd_branch = walk(p, [1.0, v], start=True)
        back, back_branch = walk(p, [v, 1.0], end=True)
        assert fwd_branch[0] == cmath.sqrt(p.evaluate(0.5 * (1.0 + v)))
        assert back_branch[0] == cmath.sqrt(p.evaluate(v))
        assert same_branch(fwd_branch[-1], back_branch[0]) == -1
        assert abs(fwd - back) <= 1e-12 * abs(fwd)


def test_oscillator_period_closed_form(osc):
    per = pairwise_periods(osc)
    assert len(per) == 1
    assert per[0].value == pytest.approx(1j * math.pi / 2, abs=1e-12)


def test_period_sign_convention(osc, cubic_unity):
    for poly in (osc, cubic_unity, parse_poly_text("1,0,-1,0")):
        for p in pairwise_periods(poly):
            assert p.value.imag >= -1e-12 * abs(p.value)
            if abs(p.value.imag) <= 1e-12 * abs(p.value):
                assert p.value.real > 0


def test_cubic_unity_period_symmetry(cubic_unity):
    pers = pairwise_periods(cubic_unity)
    mods = [abs(p.value) for p in pers]
    assert max(mods) - min(mods) < 1e-8
    # squares are sign-free; their arguments step by 2*pi/3
    sq = [p.value ** 2 for p in pers]
    args = sorted(cmath.phase(s) for s in sq)
    for a, b in zip(args, args[1:]):
        assert abs(b - a - 2 * math.pi / 3) < 1e-8


def test_cubic_unity_period_against_unwrapped_quadrature(cubic_unity):
    # independent oracle: dense sampling with numpy phase unwrapping
    pers = [p.value for p in pairwise_periods(cubic_unity)]
    w1 = cmath.exp(2j * math.pi / 3)
    ts = np.linspace(0.0, 1.0, 400001)[1:-1]
    zs = 1.0 + (w1 - 1.0) * ts
    vals = zs ** 3 - 1.0
    phases = np.unwrap(np.angle(vals))
    sq = np.sqrt(np.abs(vals)) * np.exp(0.5j * phases)
    integral = np.trapezoid(sq, ts) * (w1 - 1.0)
    best = min(abs(integral - s * v) for v in pers for s in (1, -1))
    assert best < 1e-6


def test_odd_cubic_periods(cubic_odd):
    pers = {p.pair: p.value for p in pairwise_periods(cubic_odd)}
    # roots sorted -1, 0, 1: (0,1) is the left segment, (1,2) the right
    w_left = pers[(0, 1)]
    w_right = pers[(1, 2)]
    w_span = pers[(0, 2)]
    assert abs(w_left.imag) < 1e-10 * abs(w_left)      # real period
    assert abs(w_right.real) < 1e-10 * abs(w_right)    # imaginary period
    assert abs(w_span) > abs(w_left)
    # detour path around the middle root
    assert len([p for p in pairwise_periods(cubic_odd)
                if p.pair == (0, 2)][0].path) > 2
    # independent oracle for the segment integral
    xs = np.linspace(0.0, 1.0, 2000001)[1:-1]
    oracle = np.trapezoid(np.sqrt(xs - xs ** 3), xs)
    assert abs(w_right.imag - oracle) < 1e-6


def test_detour_clearance(cubic_odd):
    per = [p for p in pairwise_periods(cubic_odd) if p.pair == (0, 2)][0]
    # middle root must be cleared by the bent path
    assert min_clearance(list(per.path), [0.0]) > 1e-4


def test_rotation_covariance(osc):
    t = 0.37
    base = pairwise_periods(osc)[0].value
    rot = pairwise_periods(osc.rotate(t))[0].value
    expect = cmath.exp(1j * t) * base
    assert min(abs(rot - expect), abs(rot + expect)) < 1e-10


# --- correction densities --------------------------------------------------------

def test_alpha0_residues(osc):
    vals = alpha_contour_integrals(osc, circle(0, 2.0), 0)
    assert vals[0] == pytest.approx(-1j * math.pi, abs=1e-8)


def test_alpha_no_roots_enclosed(osc):
    vals = alpha_contour_integrals(osc, circle(3.0, 0.5), 2)
    assert all(abs(v) < 1e-9 for v in vals)


def test_alpha_deformation_invariance(osc):
    a = alpha_contour_integrals(osc, circle(0, 2.0), 3)
    b = alpha_contour_integrals(osc, circle(0, 3.0), 3)
    for x, y in zip(a, b):
        assert abs(x - y) < 1e-8


def test_alpha_big_circle_oracle(osc):
    # independent oracle: spectral trapezoid rule on a huge circle
    vals = alpha_contour_integrals(osc, circle(0, 2.5), 3)
    from stokesgeo.pathint import correction_numerators, _poly_eval
    qs = correction_numerators(osc, 3)
    n = 4096
    theta = np.linspace(0, 2 * math.pi, n, endpoint=False)
    z = 40.0 * np.exp(1j * theta)
    w = np.sqrt(z * z - 1.0)   # principal branch is fine far outside
    for j in range(4):
        integrand = _poly_eval(qs[j], z) * w ** (-(3 * j + 2))
        oracle = np.sum(integrand * 1j * z) * (2 * math.pi / n)
        assert abs(vals[j] - oracle) < 1e-8


def _first_quintic_of_counting_stream():
    rng = random.Random(20260808)
    for d in (3, 4):
        for _ in range(50):
            random_simple_poly(rng, d)
    return random_simple_poly(rng, 5)


@pytest.mark.parametrize("make_poly", [
    lambda: parse_poly_text("1,0,0.3+0.2i,-1"),
    _first_quintic_of_counting_stream,
])
def test_alpha_one_walk_matches_a_walk_per_order(make_poly):
    poly = make_poly()
    rays = accumulation_rays(poly)
    densities = pathint.alpha_densities(poly, 3)
    trees_differ = False
    for ray in rays:
        verts = list(ray.contour)
        per_order, trees = [], []
        for f in densities:
            tree = []
            per_order += pathint.contour_integral(poly, verts,
                                                  [_recorded(f, tree)])
            trees.append(Counter(tree))
        assert alpha_contour_integrals(poly, verts, 3) == per_order
        # one walk evaluates each panel of every order's tree once
        walked = []
        pathint.contour_integral(
            poly, verts, [_recorded(densities[0], walked)] + densities[1:])
        assert Counter(walked) == Counter(set().union(*trees))
        trees_differ |= any(tree != trees[0] for tree in trees)
    # the orders refine different panels, so one walk has to follow each
    # order's own tree
    assert trees_differ


@pytest.mark.parametrize("make_poly", [
    lambda: parse_poly_text("1,0,0.3+0.2i,-1"),
    _first_quintic_of_counting_stream,
])
def test_alpha_walk_matches_the_scalar_reference(make_poly):
    # each order's batched walk of each stadium against the reference
    # walk, one node and one chord at a time: the same panel trees, chord
    # by chord, and the same integrals up to rounding.  numpy's P differs
    # from the reference's by a few ulps of its Horner terms, cond(P) ulps
    # of P, which alpha_j = Q_j P^{-(3j+2)/2} scales by (3j+2)/2; so the
    # bound is 4 eps (3j+2)/2 cond(P) of the sum of |chord part|, with
    # cond(P) taken at the contour's vertices
    poly = make_poly()
    roots = PolyContext.of(poly).locs
    densities = pathint.alpha_densities(poly, 3)
    eps = np.finfo(float).eps
    for ray in accumulation_rays(poly):
        verts = list(ray.contour)
        cond = max(sum(abs(a) * abs(z) ** k
                       for k, a in enumerate(reversed(poly.coeffs)))
                   / abs(poly.evaluate(z)) for z in verts)
        alphas = alpha_contour_integrals(poly, verts, 3)
        for j, (f, alpha) in enumerate(zip(densities, alphas)):
            tree = []
            pathint.contour_integral(poly, verts, [_recorded(f, tree)])
            w = cmath.sqrt(poly.evaluate(verts[0]))
            total, size, panels = 0j, 0.0, []
            for a, b in zip(verts, verts[1:]):
                part, w, chord_panels, _ = _two_pass_chord(poly, roots, a, w,
                                                           b, f)
                total += part
                size += abs(part)
                panels += chord_panels
            assert Counter(tree) == Counter(panels)
            assert abs(alpha - total) <= 4 * eps * (1.5 * j + 1) * cond * size


def test_contour_integral_densities_odd_enclosure_rejected(osc):
    with pytest.raises(BranchError, match="not single-valued"):
        pathint.contour_integral(osc, circle(1.0, 0.5),
                                 pathint.alpha_densities(osc, 2))


def test_chord_guard_names_chord_and_density(cubic_unity):
    roots = [r for r, _ in turning_points(cubic_unity).points]
    z0, z1 = 0.1 + 0.2j, -0.2 + 0.35j
    rng = np.random.default_rng(5)

    def noise(z, w):
        return rng.random(z.shape) + 1j * rng.random(z.shape)
    w0 = cmath.sqrt(cubic_unity.evaluate(z0))
    with pytest.raises(BranchError) as info:
        pathint.integrate_chord(cubic_unity, roots, z0, w0, z1,
                                [lambda z, w: w, noise])
    assert str(info.value) == (
        "chord quadrature failed to converge on the chord "
        "0.1+0.2j -> -0.2+0.35j (density 1)")


def test_alpha_odd_multiplicity_rejected(osc):
    with pytest.raises(BranchError, match="not single-valued"):
        alpha_contour_integrals(osc, circle(1.0, 0.5), 1)


def test_alpha_even_multiplicity_double_root():
    p = ComplexPolynomial.from_roots(1.0, [1.0, 1.0, -2.0])
    vals = alpha_contour_integrals(p, circle(1.0, 0.8), 0)
    assert vals[0] == pytest.approx(-1j * math.pi, abs=1e-8)


def test_winding_number():
    assert winding_number(circle(0, 1.0), 0.2) == 1
    assert winding_number(circle(0, 1.0), 2.0) == 0
    assert winding_number(circle(0, 1.0)[::-1], 0.0) == -1


def test_stadium_contour(osc):
    contour = build_stadium([-1.0, 0.0, 1.0], 0.3)
    assert abs(contour[0] - contour[-1]) < 1e-12
    assert winding_number(contour, 0.0) == 1
    assert winding_number(contour, 2.0) == 0


def test_re_xi_drift_regular_segment(osc):
    # straight segment off the Stokes set accumulates genuine drift
    drift, arc = re_xi_drift(osc, [2.0, 2.0 + 1.0j])
    assert drift > 0.1
    assert arc == pytest.approx(1.0)


@settings(max_examples=30, deadline=None)
@given(st.floats(1.6, 4.0), st.floats(-1.0, 1.0), st.floats(0.3, 2.0))
def test_reversal_property(x, y, h):
    # a regular segment and a path from the root 1 through it, each walked
    # both ways: on one branch the integral back is minus the one out
    p = parse_poly_text("1,0,0,-1")
    a = complex(x, y)
    b = a + complex(0.1, h)
    for verts, root in (([a, b], False), ([1.0, a, b], True)):
        fwd, fwd_branch = walk(p, verts, start=root)
        back, back_branch = walk(p, verts[::-1], end=root)
        sign = same_branch(fwd_branch[-1], back_branch[0])
        assert abs(fwd + sign * back) < 1e-10


def test_branched_path_samples_square_to_p():
    p = parse_poly_text("1,0,0,-1")
    verts = circle(0, 2.0, 80)
    _, branch = walk(p, verts)
    assert len(branch) == len(verts)
    for z, w in zip(verts, branch):
        assert abs(w * w - p.evaluate(z)) < 1e-9 * (1.0 + abs(p.evaluate(z)))


def test_period_positive_modulus(cubic_odd):
    for per in pairwise_periods(cubic_odd):
        assert abs(per.value) > 0


def test_alpha0_partial_enclosure(cubic_odd):
    # stadium-like circle enclosing two of the three roots: the log
    # residue counts the enclosed multiplicity
    contour = [complex(-0.5, 0) + 0.8 * cmath.exp(2j * math.pi * k / 128)
               for k in range(129)]
    vals = alpha_contour_integrals(cubic_odd, contour, 0)
    assert vals[0] == pytest.approx(-1j * math.pi, abs=1e-8)


def test_correction_numerators_are_computed_once_per_polynomial():
    # one computation per coefficient tuple and order, shared by every ray
    # of a polynomial; the cached numerators are the computed ones
    poly = parse_poly_text("1,0,0.3+0.2i,-1")
    qs = pathint.correction_numerators(poly, 3)
    assert pathint.correction_numerators(parse_poly_text("1,0,0.3+0.2i,-1"),
                                         3) is qs
    assert qs == pathint._correction_numerators_cached.__wrapped__(
        poly.coeffs, 3)
    assert pathint.correction_numerators(poly, 2) == qs[:3]
