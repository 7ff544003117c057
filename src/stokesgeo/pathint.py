"""Branch-tracked square-root continuation and path integrals.

Everything here integrates expressions in w = sqrt(P(z)) along polylines,
with the branch of w continued analytically by one rule,
``continue_branch``: between consecutive points of a walk the step must
stay within a quarter of the distance from its start to the nearest zero
of P *and* P itself must rotate by less than pi/2 along it; under those
two conditions the square root of P nearest the previous value is the
analytic continuation.  A step that fails is halved.  The rule runs on
numpy arrays: P and its principal square root are evaluated at every
point of a walk at once, the steps are checked (and the failed ones
halved) all together, and each point's sign is the running parity of the
per-step sign flips along the walk.

Regular quadrature runs through one adaptive Gauss-Kronrod 7-15 loop,
``_gk15``, over straight chords.  It takes every chord of a walk together
and evaluates each level of all their panel trees in one pass.  A chord
from a turning point r needs no quadrature: within the root's reach (half
the distance rho to its nearest other root) sqrt(P) has the local normal
form c^{1/2} (z - r)^{m/2} S with S a power series in (z - r)/rho, and
the chord's integral is the primitive of that series,
``SeriesAtRoot.xi``, exact to rounding there, on the branch of the
chord's far end.  A longer root chord is split at the reach, and its outer
part is a regular chord.  Closed contours are walked by
``contour_integral``, which checks closure, clearance and
single-valuedness.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import BranchError, ClearanceError, DegeneratePairError
from .polynomial import (TWO_PI, ComplexPolynomial, PolyContext,
                         turning_points, wrap_positive)

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
_NODES = np.array(_KRONROD_NODES)
# rows: the Kronrod weights, and the Gauss weights on the odd nodes
_RULES = np.zeros((2, 15))
_RULES[0] = _KRONROD_WEIGHTS
_RULES[1, 1::2] = _GAUSS_WEIGHTS
_CENTER = 7     # the node at the panel's midpoint

def continue_branch(poly: ComplexPolynomial, roots, z, w0):
    """sqrt(P) continued along each row of the 2-d array ``z``, a walk
    that starts on the branch value w0[row] at z[row, 0]; returns sqrt(P)
    at every point of ``z``.

    A step is taken directly when it is at most a quarter of the distance
    from its start to the nearest of ``roots`` and P rotates by less than
    pi/2 along it; the square root of P nearest the value at its start
    then continues the branch.  Every other step is halved, all of them
    together, down to 60 levels (BranchError beyond)."""
    z = np.asarray(z, dtype=complex)
    w = np.empty(z.shape, dtype=complex)
    w[:, 0] = w0
    np.sqrt(poly.evaluate(z[:, 1:]), out=w[:, 1:])
    flips = _step_flips(poly, np.asarray(roots, dtype=complex), z[:, :-1],
                        w[:, :-1], z[:, 1:], w[:, 1:])
    # a point's sign flips with the parity of the flips since the start
    odd = np.logical_xor.accumulate(flips, axis=1)
    np.negative(w[:, 1:], out=w[:, 1:], where=odd)
    return w


def _step_flips(poly, roots, za, wa, zb, wb):
    """True where the step za -> zb carries the branch value wa onto -wb,
    for wb a square root of P(zb).  With x = wb conj(wa), P rotates by
    less than pi/2 when Re x^2 > 0, and the step flips when Re x < 0.
    Failed steps are halved."""
    owner = None
    while True:
        near = (np.abs(za[..., None] - roots).min(axis=-1) if len(roots)
                else math.inf)
        x = wb * wa.conj()
        ok = np.abs(zb - za) <= 0.25 * near
        ok &= (x * x).real > 0.0
        flip = x.real < 0.0
        if owner is None:
            if ok.all():
                return flip
            # from here on the steps are flat, each with the index of the
            # step it is part of
            shape = za.shape
            za, wa, zb, wb, ok, flip = (a.ravel() for a in
                                        (za, wa, zb, wb, ok, flip))
            owner, flips, depth = np.arange(za.size), np.zeros(za.size,
                                                               np.intp), 0
        flips += np.bincount(owner[ok & flip], minlength=len(flips))
        failed = ~ok
        if not failed.any():
            return (flips % 2 == 1).reshape(shape)
        if depth > 60:
            raise BranchError(
                f"square-root continuation failed near z = "
                f"{complex(za[failed][0]):.6g} "
                "(path too close to a turning point?)")
        depth += 1
        za, wa, zb, wb, owner = (a[failed] for a in (za, wa, zb, wb, owner))
        zm = 0.5 * (za + zb)
        wm = np.sqrt(poly.evaluate(zm))
        # each failed step becomes its two halves
        za, zb = np.concatenate((za, zm)), np.concatenate((zm, zb))
        wa, wb = np.concatenate((wa, wm)), np.concatenate((wm, wb))
        owner = np.concatenate((owner, owner))


def sqrt_density(z, w):
    return w


# --- adaptive quadrature over chords ------------------------------------------

def _gk15(poly, roots, verts, w0, densities, rel_tol=1e-9, abs_floor=1e-13):
    """Adaptive GK15 of each density f(z, w) dz along each chord
    z = verts[c] + s (verts[c+1] - verts[c]), s in [0, 1], of the polyline
    ``verts``, from one walk that starts on w0 at verts[0], one pass per
    level of all the chords' panel trees.

    The walk runs through the chords' whole-chord panels; a density's
    tolerance on a chord is max(abs_floor, rel_tol |i15|) of its
    whole-chord panel.  Each density refines its own panel tree, a child
    panel getting 0.6 of its parent's tolerance; panels narrower than
    1e-12 are accepted and a 4001st on one chord raises BranchError.  A
    panel is walked once for all the densities, from the branch value at
    its start, which is its parent's start or middle node.  The value at a
    node is +-sqrt(P(node)) whatever walk reached it, and each density is
    evaluated node by node, so a density's totals do not depend on the
    densities beside it.

    Returns (integrals, chords x densities; sqrt(P) at the vertices)."""
    verts = np.asarray(verts, dtype=complex)
    z0, dz = verts[:-1], verts[1:] - verts[:-1]
    n, n_dens = len(dz), len(densities)
    roots = np.asarray(roots, dtype=complex)
    chord = np.arange(n)
    sa, sb = np.zeros(n), np.ones(n)
    s = (0.5 + 0.5 * _NODES)[None]
    z = z0[chord[:, None]] + s * dz[chord[:, None]]
    # the whole-chord panels, chord after chord
    walk = np.concatenate((z0[:, None], z), axis=1)
    first = continue_branch(poly, roots,
                            np.concatenate((walk.ravel(), verts[n:]))[None],
                            [w0])[0]
    w = first[:16 * n].reshape(n, 16)
    panels = np.ones((n, n_dens), dtype=np.intp)
    # every density is active on the whole-chord panels
    active, totals, tols = True, None, None
    while True:
        vals = np.empty((len(chord), n_dens, 15), dtype=complex)
        for d, f in enumerate(densities):
            vals[:, d] = f(z, w[:, 1:])
        sums = (vals[:, :, None, :] * _RULES).sum(axis=-1)
        weight = (0.5 * (sb - sa) * dz[chord])[:, None]
        i15 = sums[:, :, 0] * weight
        err = np.abs(i15 - sums[:, :, 1] * weight)
        if tols is None:
            tols = np.maximum(abs_floor, rel_tol * np.abs(i15))
        accept = (err <= tols) | (np.abs(sb - sa) < 1e-12)[:, None]
        accepted = np.where(active & accept, i15, 0j)
        if totals is None:
            totals = accepted
        else:
            np.add.at(totals, chord, accepted)
        refine = active & ~accept
        keep = refine.any(axis=1).nonzero()[0]
        if not len(keep):
            return totals, first[::16]
        # the halves of each refined panel: left ones, then right ones
        chord = np.concatenate((chord[keep], chord[keep]))
        active = np.concatenate((refine[keep], refine[keep]))
        np.add.at(panels, chord, active)
        if panels.max() > 4000:
            c, d = np.argwhere(panels > 4000)[0]
            which = f" (density {d})" if n_dens > 1 else ""
            raise BranchError(
                f"chord quadrature failed to converge on the chord "
                f"{complex(verts[c]):.6g} -> {complex(verts[c + 1]):.6g}"
                f"{which}")
        tols = 0.6 * tols[keep]
        tols = np.concatenate((tols, tols))
        mid = 0.5 * (sa[keep] + sb[keep])
        sa, sb = (np.concatenate((sa[keep], mid)),
                  np.concatenate((mid, sb[keep])))
        s = 0.5 * (sa + sb)[:, None] + 0.5 * (sb - sa)[:, None] * _NODES
        z = z0[chord[:, None]] + s * dz[chord[:, None]]
        # each half is walked from its start: the panel's start or middle
        walk = np.concatenate((np.concatenate((walk[keep, 0],
                                               walk[keep, 1 + _CENTER])
                                              )[:, None], z), axis=1)
        w = continue_branch(poly, roots, walk,
                            np.concatenate((w[keep, 0], w[keep, 1 + _CENTER])))


def integrate_chord(poly, roots, z0, w0, z1, densities, rel_tol=1e-9,
                    abs_floor=1e-13):
    """Adaptive GK15 of each density f(z, w) dz along the chord z0 -> z1:
    the one-chord case of a polyline's walk.  w0 is the branch value at
    z0; returns (integrals, w_at_z1), one integral per density."""
    parts, branch = _gk15(poly, roots, [z0, z1], w0, densities, rel_tol,
                          abs_floor)
    return parts[0].tolist(), complex(branch[1])


def _split_point(series, z1):
    """Where a chord from the root of ``series`` to z1 leaves the root's
    reach, or None when it stays within it."""
    dz = z1 - series.center
    if abs(dz) <= series.reach:
        return None
    return series.center + series.reach * (dz / abs(dz))


def integrate_chord_from_root(poly, roots, series, z1, w1,
                              rel_tol=1e-9) -> complex:
    """Integral of sqrt(P) dz from the turning point of ``series`` (its
    ``SeriesAtRoot``) to z1, on the branch pinned by ``w1``, the value of
    sqrt(P) at z1.

    Within the root's reach it is the series' primitive xi.  A longer
    chord is split where it leaves the reach, at e: the regular chord
    z1 -> e, walked from w1 by the adaptive loop at ``rel_tol``, carries
    the branch to e, and xi is taken at e.
    """
    a0, z1 = poly.coeffs[0], complex(z1)
    e = _split_point(series, z1)
    if e is None:
        return series.xi(a0, z1, w1)
    parts, branch = _gk15(poly, roots, [z1, e], w1, (sqrt_density,), rel_tol)
    return series.xi(a0, e, complex(branch[1])) - complex(parts[0, 0])


# --- polyline-level API -----------------------------------------------------

def min_clearance(vertices, points) -> float:
    """Min distance from a polyline to a set of points."""
    p = np.asarray(points, dtype=complex).reshape(-1, 1)
    v = np.asarray(vertices, dtype=complex)
    a, ab = v[:-1], v[1:] - v[:-1]
    if not (p.size and a.size):
        return math.inf
    # each point's projection onto each segment, clamped to it; a
    # zero-length segment (ab = 0) projects onto its vertex, t = 0
    den = ab.real * ab.real + ab.imag * ab.imag
    t = (((p.real - a.real) * ab.real + (p.imag - a.imag) * ab.imag)
         / np.where(den == 0, 1.0, den))
    t = np.minimum(1.0, np.maximum(0.0, t))
    return float(np.hypot(p.real - (a.real + t * ab.real),
                          p.imag - (a.imag + t * ab.imag)).min())


def _check_clearance(vertices, locs, skip, delta, what):
    """ClearanceError when the polyline ``vertices`` (``what`` names it)
    passes within 0.9 delta of a turning point ``locs[k]``, k not in
    ``skip``; the message names the nearest such root and its distance."""
    others = [k for k in range(len(locs)) if k not in skip]
    if others and min_clearance(
            vertices, [locs[k] for k in others]) < 0.9 * delta:
        dist, k = min((min_clearance(vertices, [locs[k]]), k)
                      for k in others)
        raise ClearanceError(
            f"{what} passes {dist:.3e} from root {k}: clearance below "
            f"delta_path = {delta:.3e}")


def integrate_polyline(poly, roots, verts, densities=(sqrt_density,),
                       rel_tol=1e-9, abs_floor=1e-13, start=None, end=None):
    """Branch-tracked integrals of each density f(z, w) dz along the
    polyline ``verts``, from one walk that starts on the principal value
    of sqrt(P) at the first regular vertex.

    ``roots`` are the turning-point locations that bound the branch
    continuation steps.  ``start`` and ``end`` are the local series
    (``SeriesAtRoot``) of the turning point that the first or last vertex
    is; the integrals then support the single density sqrt(P) only, and a
    two-vertex path gets its midpoint as the regular vertex.  A chord at
    such an end is integrated from the root on its series, as the
    primitive xi, split where it leaves the root's reach: its outer part
    joins the regular chords, which are integrated together in one walk,
    one pass per level of their panel trees.  ``abs_floor`` applies to the
    regular chords.

    Returns (totals, branch values at the regular vertices, running totals
    after each chord), with one total per density.
    """
    if len(verts) == 2 and (start is not None or end is not None):
        verts = [verts[0], 0.5 * (verts[0] + verts[1]), verts[1]]
    first = 1 if start is not None else 0
    last = len(verts) - 2 if end is not None else len(verts) - 1
    w = cmath.sqrt(poly.evaluate(verts[first]))
    # the regular walk, with the points where the end chords leave the
    # roots' reaches
    walk = list(verts[first:last + 1])
    head = tail = None
    if start is not None:
        head = _split_point(start, walk[0])
    if end is not None:
        tail = _split_point(end, walk[-1])
    if head is not None:
        walk.insert(0, head)
    if tail is not None:
        walk.append(tail)
    split = head is not None
    parts, ws = [], [w]
    if len(walk) > 1:
        seed = cmath.sqrt(poly.evaluate(head)) if split else w
        parts, ws = _gk15(poly, roots, walk, seed, densities, rel_tol,
                          abs_floor)
        # seeded at the split point, the walk may reach verts[first] on
        # the other sign: negating every part and value is exact
        if split and (ws[1] * w.conjugate()).real < 0.0:
            parts, ws = -parts, -ws
        parts, ws = parts.tolist(), ws.tolist()
    branch = [w] + ws[split + 1:split + last - first + 1]
    running = []
    totals = [0j] * len(densities)
    if start is not None:
        totals[0] = start.xi(poly.coeffs[0], walk[0], ws[0])
        if split:
            totals[0] += parts.pop(0)[0]
        running.append(totals[:])
    for row in parts[:last - first]:
        for d, part in enumerate(row):
            totals[d] += part
        running.append(totals[:])
    if end is not None:
        if tail is not None:
            totals[0] += parts[-1][0]
        totals[0] -= end.xi(poly.coeffs[0], walk[-1], ws[-1])
        running.append(totals[:])
    return totals, branch, running


@dataclass(frozen=True)
class Period:
    """Branch-tracked integral of sqrt(P) between two turning points."""

    pair: tuple[int, int]
    path: tuple[complex, ...]
    value: complex


def pair_path(poly, locations, i: int, j: int, delta: float):
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
        d_ccw = wrap_positive(th_out - th_in)
        d_cw = d_ccw - TWO_PI
        mid_ccw = r + radius * cmath.exp(1j * (th_in + 0.5 * d_ccw))
        mid_cw = r + radius * cmath.exp(1j * (th_in + 0.5 * d_cw))
        choose_ccw = abs(poly.evaluate(mid_ccw)) <= abs(poly.evaluate(mid_cw))
        span = d_ccw if choose_ccw else d_cw
        n_arc = max(8, int(abs(span) / 0.2) + 1)
        verts.append(z_in)
        for s in range(1, n_arc):
            verts.append(r + radius * cmath.exp(1j * (th_in + span * s / n_arc)))
        verts.append(z_out)
    verts.append(b)
    return verts


def root_to_root_period(ctx: PolyContext, verts, i: int, j: int):
    """Integral of sqrt(P) along ``verts``, which runs from root i to root
    j, signed by ``period_sign_flips``."""
    (value,), _, _ = integrate_polyline(
        ctx.poly, ctx.locs, verts, rel_tol=ctx.config.quad_rel_tol,
        start=ctx.tps.at_roots[i], end=ctx.tps.at_roots[j])
    return -value if period_sign_flips(value) else value


def period_sign_flips(value: complex) -> bool:
    """Whether the sign convention of periods, Im > 0 (Re > 0 when Im
    vanishes to 1e-12 relative), negates ``value``."""
    if abs(value.imag) <= 1e-12 * abs(value):
        return value.real < 0
    return value.imag < 0


def period_for_pair(poly: ComplexPolynomial, i: int, j: int,
                    config: RunConfig = DEFAULT_CONFIG) -> Period:
    ctx = PolyContext.of(poly, config)
    locs = ctx.locs
    delta = ctx.scales.delta_path
    verts = pair_path(poly, locs, i, j, delta)
    _check_clearance(verts, locs, (i, j), delta, f"path of pair ({i}, {j})")
    return Period(pair=(i, j), path=tuple(verts),
                  value=root_to_root_period(ctx, verts, i, j))


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
    v = np.asarray(vertices, dtype=complex) - point
    a, b = v[:-1], v[1:]
    cross = a.real * b.imag - a.imag * b.real
    dot = a.real * b.real + a.imag * b.imag
    return int(round(float(np.arctan2(cross, dot).sum()) / TWO_PI))


def contour_integral(poly: ComplexPolynomial, contour, densities,
                     config: RunConfig = DEFAULT_CONFIG) -> list[complex]:
    """Loop integrals of each density f(z, w) dz around the closed
    polyline ``contour``, one per density, from one walk that starts on
    the principal sqrt(P) at its first vertex.  The contour must be closed
    (ValueError) and clear every turning point by 0.9 delta_path
    (ClearanceError), and the branch must return to its seed, as it does
    exactly when even total multiplicity is enclosed (BranchError)."""
    verts = [complex(v) for v in contour]
    if abs(verts[0] - verts[-1]) > 1e-9 * (1.0 + abs(verts[0])):
        raise ValueError("contour is not closed")
    roots = ()
    if poly.degree >= 1:
        ctx = PolyContext.of(poly, config)
        roots = ctx.locs
        _check_clearance(verts, roots, (), ctx.scales.delta_path, "contour")
    totals, branch, _ = integrate_polyline(poly, roots, verts,
                                           densities=densities,
                                           rel_tol=config.quad_rel_tol)
    w0, w_end = branch[0], branch[-1]
    if abs(w_end - w0) > 0.5 * max(abs(w0), abs(w_end)):
        raise BranchError("sqrt(P) is not single-valued along this closed "
                          "contour (odd enclosed multiplicity?)")
    return totals


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
    Computed once per coefficient tuple and j_max.
    """
    return _correction_numerators_cached(poly.coeffs, j_max)


@lru_cache(maxsize=512)
def _correction_numerators_cached(p: tuple[complex, ...], j_max: int):
    dp = _pderiv(p)
    qs = [_pscale(dp, -0.25)]
    for j in range(1, j_max + 1):
        acc = (0j,)
        for m in range(j):
            acc = _padd(acc, _pmul(qs[m], qs[j - 1 - m]))
        acc = _padd(acc, _pmul(_pderiv(qs[j - 1]), p))
        acc = _padd(acc, _pscale(_pmul(qs[j - 1], dp), -(3 * j - 1) / 2.0))
        qs.append(_pscale(acc, -0.5))
    return tuple(qs)


def alpha_densities(poly: ComplexPolynomial, j_max: int):
    """The densities alpha_j(z, w) = Q_j(z) w^{-(3j+2)}, j = 0 .. j_max."""
    def density(qj, power):
        return lambda z, w: _poly_eval(qj, z) * w ** (-power)
    return [density(qj, 3 * j + 2)
            for j, qj in enumerate(correction_numerators(poly, j_max))]


def alpha_contour_integrals(poly: ComplexPolynomial, contour, j_max: int,
                            config: RunConfig = DEFAULT_CONFIG) -> list[complex]:
    """Loop integrals of the correction densities alpha_0 .. alpha_{j_max},
    all from one walk of the contour, checked as ``contour_integral``
    checks it."""
    return contour_integral(poly, contour, alpha_densities(poly, j_max),
                            config)


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


def build_stadium(polyline, clearance: float):
    """Closed CCW offset contour at distance ``clearance`` around an open
    polyline (left side forward, cap, right side back, cap)."""
    n_cap = 16            # chords per semicircular end cap
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
