"""Branch-tracked square-root continuation and path integrals.

Everything here integrates expressions in w = sqrt(P(z)) along polylines,
with the branch of w continued analytically.  The continuation rule is:
between consecutive sample points the chord must stay short relative to
the distance to the nearest zero of P *and* P itself must rotate by less
than pi/2; under those two conditions the sign of the principal square
root closest to the previous value is the analytic continuation.

Chords that start or end at a turning point of multiplicity m are
reparametrized by s = u^2 after deflating the root factor, which turns
the (z - r)^{m/2} endpoint singularity into a smooth integrand.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .config import DEFAULT_CONFIG, RunConfig
from .errors import BranchError, ClearanceError, DegeneratePairError
from .polynomial import ComplexPolynomial, PolyContext, turning_points

# --- Gauss-Kronrod 7-15 rule on [-1, 1] -----------------------------------

_KRONROD_NODES = (
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
)
_KRONROD_WEIGHTS = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
)
# Gauss-7 nodes are the odd-index Kronrod nodes
_GAUSS_WEIGHTS = (
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
)


def _min_root_dist(z: complex, roots) -> float:
    if not roots:
        return float("inf")
    return min(abs(z - r) for r in roots)


class BranchWalker:
    """Carries an analytically continued value of sqrt(P) along chords."""

    __slots__ = ("poly", "roots", "z", "w")

    def __init__(self, poly: ComplexPolynomial, roots, z0: complex, w0: complex):
        self.poly = poly
        self.roots = tuple(roots)
        self.z = complex(z0)
        self.w = complex(w0)

    def advance(self, z1: complex) -> complex:
        w1 = self._continue(self.z, self.w, complex(z1), 0)
        self.z = complex(z1)
        self.w = w1
        return w1

    def _continue(self, z0, w0, z1, depth) -> complex:
        if z1 == z0:
            return w0
        step = abs(z1 - z0)
        near = _min_root_dist(z0, self.roots)
        p0 = w0 * w0
        if step <= 0.25 * near:
            p1 = self.poly.evaluate(z1)
            # endpoint rotation < pi/2 guarantees an unambiguous sign choice
            if p1.real * p0.real + p1.imag * p0.imag > 0.0:
                w1 = cmath.sqrt(p1)
                if w1.real * w0.real + w1.imag * w0.imag < 0.0:
                    w1 = -w1
                return w1
        if depth > 60:
            raise BranchError(
                f"square-root continuation failed near z = {z0:.6g} "
                "(path too close to a turning point?)"
            )
        zm = 0.5 * (z0 + z1)
        wm = self._continue(z0, w0, zm, depth + 1)
        return self._continue(zm, wm, z1, depth + 1)


def _principal_seed(poly: ComplexPolynomial, z: complex) -> complex:
    return cmath.sqrt(poly.evaluate(z))


# --- adaptive chord quadrature ---------------------------------------------

def _panel_values(walker: BranchWalker, z0, z1, sa, sb, fvals):
    """Evaluate fvals at the 15 Kronrod nodes of the sub-interval [sa, sb]
    of the chord z0 -> z1.  Leaves the walker at the last node."""
    dz = z1 - z0
    mid = 0.5 * (sa + sb)
    half = 0.5 * (sb - sa)
    i15 = 0j
    i7 = 0j
    gi = 0
    for k, xk in enumerate(_KRONROD_NODES):
        s = mid + half * xk
        z = z0 + s * dz
        w = walker.advance(z)
        val = fvals(z, w)
        i15 += _KRONROD_WEIGHTS[k] * val
        if k % 2 == 1:
            i7 += _GAUSS_WEIGHTS[gi] * val
            gi += 1
    scale = half * dz
    return i15 * scale, i7 * scale


def integrate_chord(poly, roots, z0, w0, z1, fvals, rel_tol=1e-9, abs_floor=1e-13):
    """Adaptive GK15 of fvals(z, w) dz along the chord z0 -> z1.

    w0 is the branch value at z0; returns (integral, w_at_z1).
    """
    walker = BranchWalker(poly, roots, z0, w0)
    est15, _ = _panel_values(walker, z0, z1, 0.0, 1.0, fvals)
    target = max(abs_floor, rel_tol * abs(est15))
    walker.z, walker.w = complex(z0), complex(w0)

    total = 0j
    stack = [(0.0, 1.0, target)]
    guard = 0
    while stack:
        guard += 1
        if guard > 4000:
            raise BranchError("chord quadrature failed to converge")
        sa, sb, tol = stack.pop()
        anchor_z, anchor_w = walker.z, walker.w
        i15, i7 = _panel_values(walker, z0, z1, sa, sb, fvals)
        err = abs(i15 - i7)
        if err <= tol or (sb - sa) < 1e-12:
            total += i15
            walker.advance(z0 + sb * (z1 - z0))
        else:
            walker.z, walker.w = anchor_z, anchor_w
            sm = 0.5 * (sa + sb)
            stack.append((sm, sb, 0.6 * tol))
            stack.append((sa, sm, 0.6 * tol))
    w_end = walker.advance(z1)
    return total, w_end


def _deflate(poly: ComplexPolynomial, root: complex, mult: int) -> ComplexPolynomial:
    """Synthetic division of P by (z - root)^mult, remainder dropped."""
    cs = list(poly.coeffs)
    for _ in range(mult):
        out = [cs[0]]
        for c in cs[1:]:
            out.append(out[-1] * root + c)
        cs = out[:-1]
    return ComplexPolynomial(tuple(cs))


def integrate_chord_from_root(poly, roots, root, mult, z1, w1,
                              rel_tol=1e-9, abs_floor=1e-13) -> complex:
    """Integral of sqrt(P) dz from a turning point ``root`` to z1.

    The branch is pinned by ``w1``, the value of sqrt(P) at z1.  The
    substitution z = root + (z1 - root) u^2 together with deflation of
    the root factor yields the smooth integrand
    2 u^{m+1} (z1-root)^{m/2+1} sqrt(q(z(u))), q = P / (z - root)^m.
    """
    dz = complex(z1) - complex(root)
    if dz == 0:
        return 0j
    q = _deflate(poly, root, mult)
    other = tuple(r for r in roots if r != root)
    wq1 = cmath.sqrt(q.evaluate(z1))
    walker = BranchWalker(q, other, z1, wq1)

    dz_half = cmath.exp(0.5 * mult * cmath.log(dz))
    check = dz_half * wq1
    sign = 1.0
    if check.real * w1.real + check.imag * w1.imag < 0.0:
        sign = -1.0
    front = 2.0 * dz * dz_half * sign

    total = 0j
    target = max(abs_floor, rel_tol * abs(w1) * abs(dz))
    # panels processed outer-first so the branch walks inward only
    stack = [(0.0, 1.0, target)]
    guard = 0
    while stack:
        guard += 1
        if guard > 4000:
            raise BranchError("singular chord quadrature failed to converge")
        ua, ub, tol = stack.pop()
        anchor_z, anchor_w = walker.z, walker.w
        mid = 0.5 * (ua + ub)
        half = 0.5 * (ub - ua)
        i15 = 0j
        gauss_vals = []
        for k in range(14, -1, -1):
            u = mid + half * _KRONROD_NODES[k]
            z = root + dz * u * u
            wq = walker.advance(z)
            val = front * (u ** (mult + 1)) * wq
            i15 += _KRONROD_WEIGHTS[k] * val
            if k % 2 == 1:
                gauss_vals.append(val)
        i7 = 0j
        for val, gw in zip(reversed(gauss_vals), _GAUSS_WEIGHTS):
            i7 += gw * val
        i15 *= half
        i7 *= half
        err = abs(i15 - i7)
        if err <= tol or (ub - ua) < 1e-12:
            total += i15
            if ua > 0.0:
                walker.advance(root + dz * ua * ua)
        else:
            walker.z, walker.w = anchor_z, anchor_w
            um = 0.5 * (ua + ub)
            stack.append((ua, um, 0.6 * tol))
            stack.append((um, ub, 0.6 * tol))
    return total


# --- polyline-level API -----------------------------------------------------

@dataclass(frozen=True)
class BranchedPath:
    """Continuously branched sqrt(P) samples along a path."""

    samples: tuple[tuple[complex, complex], ...]
    total_integral: complex


def polyline_length(vertices) -> float:
    return sum(abs(vertices[k + 1] - vertices[k]) for k in range(len(vertices) - 1))


def min_clearance(vertices, points) -> float:
    """Min distance from a polyline to a set of points."""
    best = float("inf")
    for p in points:
        for k in range(len(vertices) - 1):
            a, b = vertices[k], vertices[k + 1]
            ab = b - a
            den = ab.real * ab.real + ab.imag * ab.imag
            if den == 0:
                d = abs(p - a)
            else:
                t = ((p - a).real * ab.real + (p - a).imag * ab.imag) / den
                t = min(1.0, max(0.0, t))
                d = abs(p - (a + t * ab))
            best = min(best, d)
    return best


def _check_clearance(vertices, roots, delta):
    if roots and min_clearance(vertices, roots) < 0.9 * delta:
        raise ClearanceError(f"path clearance below delta_path = {delta:.3e}")


def _context(poly: ComplexPolynomial, config: RunConfig) -> PolyContext | None:
    """Context of ``poly``; a constant potential has no turning points."""
    return PolyContext.of(poly, config) if poly.degree >= 1 else None


def _root_end(v: complex, points, tol: float):
    """(root, multiplicity) of the turning point that ``v`` sits on, else None."""
    for r, m in points:
        if abs(v - r) <= tol * (1.0 + abs(r)):
            return r, m
    return None


def _sqrt_density(z, w):
    return w


def integrate_polyline(poly, roots, verts, w, fvals=_sqrt_density,
                       rel_tol=1e-9, abs_floor=1e-13, start=None, end=None):
    """Branch-tracked integral of fvals(z, w) dz along the polyline ``verts``.

    ``roots`` are the turning-point locations that bound the branch
    continuation steps, and ``w`` is the branch of sqrt(P) at the first
    regular vertex.  ``start``
    and ``end`` are (root, multiplicity) pairs when the first or last
    vertex is that turning point; the chord at such an end is integrated
    by the singular endpoint rule, which supports fvals = sqrt(P) only.
    ``abs_floor`` applies to the regular chords.

    Returns (total, branch values at the regular vertices, running total
    after each chord).
    """
    w = complex(w)
    first = 1 if start is not None else 0
    last = len(verts) - 2 if end is not None else len(verts) - 1
    branch = [w]
    running = []
    total = 0j
    if start is not None:
        total = integrate_chord_from_root(poly, roots, start[0], start[1],
                                          verts[1], w, rel_tol=rel_tol)
        running.append(total)
    for k in range(first, last):
        part, w = integrate_chord(poly, roots, verts[k], w, verts[k + 1],
                                  fvals, rel_tol=rel_tol, abs_floor=abs_floor)
        total += part
        branch.append(w)
        running.append(total)
    if end is not None:
        total -= integrate_chord_from_root(poly, roots, end[0], end[1],
                                           verts[last], w, rel_tol=rel_tol)
        running.append(total)
    return total, branch, running


def sqrt_continuation(poly: ComplexPolynomial, path, seed: complex,
                      config: RunConfig = DEFAULT_CONFIG) -> BranchedPath:
    """Continuous branch of sqrt(P) along a polyline, with its integral.

    ``seed`` must square to P at the first vertex and the path must clear
    every turning point by delta_path.
    """
    verts = [complex(v) for v in path]
    if len(verts) < 2:
        raise ValueError("path needs at least two vertices")
    p_start = poly.evaluate(verts[0])
    if abs(seed * seed - p_start) > 1e-6 * (1.0 + abs(p_start)):
        raise BranchError("seed does not square to P at the path start")
    ctx = _context(poly, config)
    roots = ctx.locs if ctx else ()
    if ctx:
        _check_clearance(verts, roots, ctx.scales.delta_path)
    total, branch, _ = integrate_polyline(poly, roots, verts, seed,
                                          rel_tol=config.quad_rel_tol)
    return BranchedPath(samples=tuple(zip(verts, branch)), total_integral=total)


def canonical_parameter_integral(poly: ComplexPolynomial, path,
                                 seed: complex | None = None,
                                 config: RunConfig = DEFAULT_CONFIG) -> complex:
    """Integral of sqrt(P) dz along the path, branch pinned by ``seed``.

    Paths may start or end exactly at a turning point; the square-root
    singularity there is absorbed by reparametrization, and the seed then
    pins the branch at the first regular vertex (``None`` takes the
    principal value there).
    """
    verts = [complex(v) for v in path]
    if len(verts) < 2:
        raise ValueError("path needs at least two vertices")
    ctx = _context(poly, config)
    points = ctx.tps.points if ctx else ()
    start = _root_end(verts[0], points, 1e-12)
    end = _root_end(verts[-1], points, 1e-12)
    if start is None and end is None:
        if seed is None:
            seed = _principal_seed(poly, verts[0])
        return sqrt_continuation(poly, verts, seed, config).total_integral

    if len(verts) == 2 and start is not None and end is not None:
        verts = [verts[0], 0.5 * (verts[0] + verts[1]), verts[1]]
    first = 1 if start is not None else 0
    last = len(verts) - 2 if end is not None else len(verts) - 1
    if first >= len(verts) - 1 and end is not None:
        verts.insert(1, 0.5 * (verts[0] + verts[1]))
        last = len(verts) - 2
    ends = [e[0] for e in (start, end) if e is not None]
    _check_clearance(verts[first:last + 1],
                     [r for r in ctx.locs if r not in ends],
                     ctx.scales.delta_path)
    w = _principal_seed(poly, verts[first])
    if seed is not None and (seed.real * w.real + seed.imag * w.imag) < 0.0:
        w = -w
    total, _, _ = integrate_polyline(poly, ctx.locs, verts, w,
                                     rel_tol=config.quad_rel_tol,
                                     start=start, end=end)
    return total


@dataclass(frozen=True)
class Period:
    """Branch-tracked integral of sqrt(P) between two turning points."""

    pair: tuple[int, int]
    path: tuple[complex, ...]
    value: complex
    branch_seed: complex


def pair_path(poly, locations, i: int, j: int, delta: float,
              flip_side: bool = False):
    """Straight segment between roots i and j, bent by semicircular
    detours of radius 2*delta around any other root it passes too close
    to.  The detour side is the one with smaller |P| at the arc midpoint,
    ties toward positive orientation."""
    a, b = locations[i], locations[j]
    seg = b - a
    length = abs(seg)
    if length == 0:
        raise DegeneratePairError(f"coincident turning points {i}, {j}")
    direction = seg / length
    radius = 2.0 * delta
    blockers = []
    for k, r in enumerate(locations):
        if k in (i, j):
            continue
        t = ((r - a).real * seg.real + (r - a).imag * seg.imag) / (length * length)
        if t <= 0.0 or t >= 1.0:
            continue
        dist = abs(r - (a + t * seg))
        if dist < delta:
            blockers.append((t, r, dist))
    blockers.sort(key=lambda blk: blk[0])
    verts = [a]
    for t, r, dist in blockers:
        half_chord = math.sqrt(max(radius * radius - dist * dist, 1e-300))
        foot = a + t * seg
        z_in = foot - half_chord * direction
        z_out = foot + half_chord * direction
        th_in = cmath.phase(z_in - r)
        th_out = cmath.phase(z_out - r)
        d_ccw = (th_out - th_in) % (2 * math.pi)
        d_cw = d_ccw - 2 * math.pi
        mid_ccw = r + radius * cmath.exp(1j * (th_in + 0.5 * d_ccw))
        mid_cw = r + radius * cmath.exp(1j * (th_in + 0.5 * d_cw))
        choose_ccw = abs(poly.evaluate(mid_ccw)) <= abs(poly.evaluate(mid_cw))
        if flip_side:
            choose_ccw = not choose_ccw
        span = d_ccw if choose_ccw else d_cw
        n_arc = max(8, int(abs(span) / 0.2) + 1)
        verts.append(z_in)
        for s in range(1, n_arc):
            verts.append(r + radius * cmath.exp(1j * (th_in + span * s / n_arc)))
        verts.append(z_out)
    verts.append(b)
    return verts


def _integrate_root_to_root(poly, locs, mults, verts, ia, ib, rel_tol):
    """Integral of sqrt(P) along ``verts`` running from root ia to root ib.
    Returns (integral, branch anchor value at the first interior vertex)."""
    a, b = verts[0], verts[-1]
    if len(verts) == 2:
        verts = [a, 0.5 * (a + b), b]
    w_anchor = _principal_seed(poly, verts[1])
    total, _, _ = integrate_polyline(poly, locs, verts, w_anchor,
                                     rel_tol=rel_tol, start=(a, mults[ia]),
                                     end=(b, mults[ib]))
    return total, w_anchor


def _normalize_period_sign(value: complex, seed: complex):
    """Im w >= 0; real w resolved toward Re w > 0."""
    if abs(value.imag) <= 1e-12 * abs(value):
        flip = value.real < 0
    else:
        flip = value.imag < 0
    return (-value, -seed) if flip else (value, seed)


def period_for_pair(poly: ComplexPolynomial, i: int, j: int,
                    config: RunConfig = DEFAULT_CONFIG,
                    flip_side: bool = False) -> Period:
    ctx = PolyContext.of(poly, config)
    locs = ctx.locs
    delta = ctx.scales.delta_path
    verts = pair_path(poly, locs, i, j, delta, flip_side=flip_side)
    _check_clearance(verts, [r for k, r in enumerate(locs) if k not in (i, j)],
                     delta)
    value, seed = _integrate_root_to_root(poly, locs, ctx.mults, verts, i, j,
                                          config.quad_rel_tol)
    value, seed = _normalize_period_sign(value, seed)
    return Period(pair=(i, j), path=tuple(verts), value=value, branch_seed=seed)


def pairwise_periods(poly: ComplexPolynomial,
                     config: RunConfig = DEFAULT_CONFIG) -> list[Period]:
    """One period per unordered pair of distinct turning points."""
    if poly.degree < 2:
        raise ValueError("pairwise periods need degree >= 2")
    tps = turning_points(poly, config.root_tol)
    if len(tps.points) < 2:
        raise DegeneratePairError("fewer than two distinct turning points")
    out = []
    for i in range(len(tps.points)):
        for j in range(i + 1, len(tps.points)):
            out.append(period_for_pair(poly, i, j, config))
    return out


# --- winding numbers and closed contours -------------------------------------

def winding_number(vertices, point: complex) -> int:
    total = 0.0
    for k in range(len(vertices) - 1):
        a = vertices[k] - point
        b = vertices[k + 1] - point
        cross = a.real * b.imag - a.imag * b.real
        dot = a.real * b.real + a.imag * b.imag
        total += math.atan2(cross, dot)
    return int(round(total / (2.0 * math.pi)))


def contour_integral(poly: ComplexPolynomial, vertices, fvals,
                     rel_tol=1e-9, seed: complex | None = None,
                     roots=None) -> complex:
    """Adaptive branch-tracked integral of fvals(z, w) dz along a polyline.

    For a closed contour the branch must return to its seed; a mismatch
    means sqrt(P) is not single-valued along the contour.
    """
    verts = [complex(v) for v in vertices]
    if roots is None:
        ctx = _context(poly, DEFAULT_CONFIG)
        roots = ctx.locs if ctx else ()
    w0 = seed if seed is not None else _principal_seed(poly, verts[0])
    total, branch, _ = integrate_polyline(poly, roots, verts, w0, fvals,
                                          rel_tol=rel_tol)
    w_end = branch[-1]
    closed = abs(verts[0] - verts[-1]) < 1e-12 * (1.0 + abs(verts[0]))
    if closed and abs(w_end - w0) > 0.5 * max(abs(w0), abs(w_end)):
        raise BranchError(
            "sqrt(P) is not single-valued along this closed contour "
            "(odd enclosed multiplicity?)"
        )
    return total


# --- correction densities -----------------------------------------------------

def _pmul(a, b):
    out = [0j] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def _padd(a, b):
    la, lb = len(a), len(b)
    n = max(la, lb)
    out = [0j] * n
    for i, ai in enumerate(a):
        out[n - la + i] += ai
    for i, bi in enumerate(b):
        out[n - lb + i] += bi
    while len(out) > 1 and out[0] == 0:
        out.pop(0)
    return tuple(out)


def _pscale(a, c):
    return tuple(c * ai for ai in a)


def _pderiv(a):
    d = len(a) - 1
    if d == 0:
        return (0j,)
    return tuple(a[k] * (d - k) for k in range(d))


def _poly_eval(coeffs, z):
    acc = 0j
    for c in coeffs:
        acc = acc * z + c
    return acc


def correction_numerators(poly: ComplexPolynomial, j_max: int):
    """Polynomials Q_j with alpha_j = Q_j(z) * w^{-(3j+2)}, w = sqrt(P):
    Q_0 = -P'/4 and
    Q_j = -1/2 [ sum_{m<j} Q_m Q_{j-1-m} + Q_{j-1}' P - (3j-1)/2 Q_{j-1} P' ].
    """
    p = poly.coeffs
    dp = _pderiv(p)
    qs = [_pscale(dp, -0.25)]
    for j in range(1, j_max + 1):
        acc = (0j,)
        for m in range(j):
            acc = _padd(acc, _pmul(qs[m], qs[j - 1 - m]))
        acc = _padd(acc, _pmul(_pderiv(qs[j - 1]), p))
        acc = _padd(acc, _pscale(_pmul(qs[j - 1], dp), -(3 * j - 1) / 2.0))
        qs.append(_pscale(acc, -0.5))
    return qs


def alpha_contour_integrals(poly: ComplexPolynomial, contour, j_max: int,
                            config: RunConfig = DEFAULT_CONFIG) -> list[complex]:
    """Loop integrals of the correction densities alpha_0 .. alpha_{j_max}.

    The contour must be closed, clear every turning point by delta_path
    and enclose roots of even total multiplicity (so that sqrt(P) is
    single-valued along it).
    """
    verts = [complex(v) for v in contour]
    if abs(verts[0] - verts[-1]) > 1e-9 * (1.0 + abs(verts[0])):
        raise ValueError("contour is not closed")
    ctx = _context(poly, config)
    roots = ctx.locs if ctx else ()
    if ctx:
        _check_clearance(verts, roots, ctx.scales.delta_path)
        enclosed = sum(m * winding_number(verts, r) for r, m in ctx.tps.points)
        if enclosed % 2 != 0:
            raise BranchError(f"contour encloses odd total multiplicity {enclosed}")
    qs = correction_numerators(poly, j_max)
    out = []
    for j in range(j_max + 1):
        power = 3 * j + 2
        qj = qs[j]

        def f(z, w, _qj=qj, _p=power):
            return _poly_eval(_qj, z) * w ** (-_p)

        out.append(contour_integral(poly, verts, f, rel_tol=config.quad_rel_tol,
                                    roots=roots))
    return out


# --- stadium contours around a short trajectory -------------------------------

def resample_polyline(vertices, spacing: float):
    out = [vertices[0]]
    carry = 0.0
    for k in range(len(vertices) - 1):
        a, b = vertices[k], vertices[k + 1]
        seg = abs(b - a)
        if seg == 0:
            continue
        direction = (b - a) / seg
        pos = carry
        while pos + spacing <= seg:
            pos += spacing
            out.append(a + pos * direction)
        carry = pos - seg
    if out[-1] != vertices[-1]:
        out.append(vertices[-1])
    return out


def build_stadium(polyline, clearance: float, n_cap: int = 16):
    """Closed CCW offset contour at distance ``clearance`` around an open
    polyline (left side forward, cap, right side back, cap)."""
    pts = resample_polyline([complex(v) for v in polyline],
                            max(clearance, 1e-9))
    if len(pts) < 2:
        raise ValueError("degenerate polyline")
    tangents = []
    for k in range(len(pts)):
        if k == 0:
            t = pts[1] - pts[0]
        elif k == len(pts) - 1:
            t = pts[-1] - pts[-2]
        else:
            t = pts[k + 1] - pts[k - 1]
        tangents.append(t / abs(t))
    left = [pts[k] + 1j * clearance * tangents[k] for k in range(len(pts))]
    right = [pts[k] - 1j * clearance * tangents[k] for k in range(len(pts))]
    out = list(left)
    t_end = tangents[-1]
    for s in range(1, n_cap):
        ang = math.pi / 2 - math.pi * s / n_cap
        out.append(pts[-1] + clearance * t_end * cmath.exp(1j * ang))
    out.extend(reversed(right))
    t0 = tangents[0]
    for s in range(1, n_cap):
        ang = -math.pi / 2 - math.pi * s / n_cap
        out.append(pts[0] + clearance * t0 * cmath.exp(1j * ang))
    out.append(out[0])
    out.reverse()  # counterclockwise
    return out


# --- canonical-coordinate drift of a traced polyline --------------------------

def re_xi_drift(poly: ComplexPolynomial, vertices, root_tol: float = 1e-10,
                rel_tol: float = 1e-12) -> tuple[float, float]:
    """Max |Re xi| drift along a polyline, xi transported from its start.

    Endpoints sitting on turning points use the singular endpoint rule.
    Returns (max_drift, arc_length).
    """
    verts = [complex(v) for v in vertices]
    if len(verts) < 2:
        return 0.0, 0.0
    points = turning_points(poly, root_tol).points if poly.degree >= 1 else ()
    arc = polyline_length(verts)
    start = _root_end(verts[0], points, 1e-9)
    end = _root_end(verts[-1], points, 1e-9)
    if len(verts) == 2 and (start is not None or end is not None):
        verts = [verts[0], 0.5 * (verts[0] + verts[1]), verts[1]]
    w = _principal_seed(poly, verts[1 if start is not None else 0])
    _, _, running = integrate_polyline(
        poly, tuple(r for r, _ in points), verts, w, rel_tol=rel_tol,
        abs_floor=1e-14, start=start, end=end)
    # partial integrals measured from verts[0], where xi = 0
    return max(abs(x.real) for x in running), arc


def douglas_peucker(vertices, tol: float):
    """Polyline decimation for JSON/SVG export."""
    verts = [complex(v) for v in vertices]
    if len(verts) < 3:
        return verts
    keep = [False] * len(verts)
    keep[0] = keep[-1] = True
    stack = [(0, len(verts) - 1)]
    while stack:
        i0, i1 = stack.pop()
        a, b = verts[i0], verts[i1]
        ab = b - a
        den = abs(ab)
        worst, worst_d = -1, tol
        for k in range(i0 + 1, i1):
            if den == 0:
                d = abs(verts[k] - a)
            else:
                d = abs((verts[k] - a).real * ab.imag
                        - (verts[k] - a).imag * ab.real) / den
            if d > worst_d:
                worst, worst_d = k, d
        if worst >= 0:
            keep[worst] = True
            stack.append((i0, worst))
            stack.append((worst, i1))
    return [v for v, kept in zip(verts, keep) if kept]
