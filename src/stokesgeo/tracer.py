"""Stokes-line tracing and graph assembly.

Trajectories solve dz/ds = i * conj(w) / |w| with w = sqrt(P(z)) continued
along the trace, which moves at unit speed while keeping Re xi constant
(d xi / ds = i |w|).  The tracer is a predictor-corrector that follows the
level set Re xi = Re xi(root).  An embedded Dormand-Prince 5(4) step
predicts the next vertex.  A step is at most a quarter of its start's
distance to the nearest root, and that cap sets most steps: the error
bound (``RunConfig.trace_tol``) is loose, and it only spaces the
vertices, because nearly all of a step's local error lies normal to the
line.  The corrector adds the chord integral of sqrt(P) to a running
drift estimate and projects the vertex back onto the level set along the
normal, so emitted polylines stay on the Stokes line in the canonical
chart.  The chord integral is a Gauss-Lobatto rule whose end
values are the step's own, so it costs 4 new evaluations (5 on the
longer steps, below, which the cap makes most of them).

Each turning point owns one radius, its reach (``SeriesAtRoot.reach``):
half the distance rho to its nearest other root (half of D for a lone
root, ``PolyContext.reaches``).
Inside it the local normal form of P dz^2 holds (Strebel, Quadratic
Differentials, 1984, ch. III), sqrt(P) = c^{1/2} (z - r)^{m/2} S with S a
power series in (z - r)/rho (``polynomial.SeriesAtRoot``), and no step is
needed: a polyline's vertices there are the line's points on six rungs
|z - r| = k reach / 6, the last just inside the reach, landed on the
series.  A trace lands only the last of its own root's, on the root's
level: the launch, where it starts to step.  On entering another root's
reach it decides once: the level offset delta of the line from that
root's level, from that root's series, gives the line's closest approach
in the local model, and within the hit radius the trace ends with the
entering vertex, then the root; otherwise it steps on.  A step longer
than a fifth of its distance to the nearest root integrates its drift
chord by a 7-point Gauss-Lobatto rule, which keeps it as accurate as the
shorter steps' 6-point rule.

Near the pole at infinity the lines are trapped in cones about the d+2
rays (Strebel, Quadratic Differentials, 1984, ch. III).  Beyond the cone
radius r_c, where Phi(r) = 1/2 sum m_i arcsin(|r_i|/r) < pi/4 bounds the
phase of sqrt(P) / z^{d/2}, an outward vertex whose angle psi from the
nearest ray, scaled by (d+2)/2, has max(|psi|, Phi) + Phi < pi/2 is
certain to escape along that ray.  The trace ends there, on the line's
point on the escape circle, landed from that vertex with xi from the
Laurent series of sqrt(P) at infinity (``polynomial.SeriesAtInfinity``).
A vertex past the escape circle before the certificate holds is moved
back onto that circle the same way.

The trace's vertices fix the line's combinatorics: its fate, and the
order of the lines at each root and on the escape circle.  They are all
that the face sets and the strip crossings read (``domains``).  The
fates keep where the trace would have landed the rest from, and
``land_polyline`` lands it when a polyline is read
(``StokesEdge.polyline``, ``ShortGeodesic.polyline``): the launch's
inner rungs, a hit's rungs below its entering vertex, and an escape's
ladder of circles r_escape 2^-j, the same for every line, from the first
circle above its vertex.  Each is the chain of landings that a trace
landing every circle makes, so a read polyline is that trace's bit for
bit, but for the launch and the escape's end, which differ from the
chain's last points by rounding.  Every landing, at a root or at
infinity, is one routine, ``_land``: Halley's method in the angle on
each circle.  Both series pin their branch to the trace's by one method,
``pinned``, which pathint's root chords share.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

from .config import DEFAULT_CONFIG, RunConfig, Scales
from .errors import NumericalError
from .polynomial import (ComplexPolynomial, PolyContext, StokesSectorSet,
                         TurningPointSet, wrap_angle, wrap_positive)

# Dormand-Prince 5(4) coefficients: stages _A, weights _B5, _B4 (the
# field is autonomous, so the nodes are not needed)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)
(_A10,), (_A20, _A21), (_A30, _A31, _A32), (_A40, _A41, _A42, _A43), \
    (_A50, _A51, _A52, _A53, _A54) = _A[1:]
_B50, _B51, _B52, _B53, _B54, _B55 = _B5
_B40, _B41, _B42, _B43, _B44, _B45, _B46 = _B4

# Gauss-Lobatto rules on [-1, 1] (Abramowitz-Stegun 25.4.32) as (end
# weight, inner nodes), each inner node stored as its chord fraction
# (1 + x)/2 with its weight, in order along the chord.  6 points, exact to
# degree 9: the inner nodes +-sqrt(1/3 -+ 2 sqrt(7)/21) carry
# (14 +- sqrt(7))/30 and the ends 1/15.  7 points, exact to degree 11: the
# inner nodes 0 and +-sqrt(5/11 -+ (2/11) sqrt(5/3)) carry 256/525 and
# (124 +- 7 sqrt(15))/350, and the ends 1/21.
_LOBATTO_6 = (1 / 15, tuple(
    (0.5 + 0.5 * x, wk) for x, wk in (
        (-math.sqrt(1 / 3 + 2 * math.sqrt(7) / 21), (14 - math.sqrt(7)) / 30),
        (-math.sqrt(1 / 3 - 2 * math.sqrt(7) / 21), (14 + math.sqrt(7)) / 30),
        (math.sqrt(1 / 3 - 2 * math.sqrt(7) / 21), (14 + math.sqrt(7)) / 30),
        (math.sqrt(1 / 3 + 2 * math.sqrt(7) / 21), (14 - math.sqrt(7)) / 30))))
_LOBATTO_7 = (1 / 21, tuple(
    (0.5 + 0.5 * x, wk) for x, wk in (
        (-math.sqrt(5 / 11 + 2 / 11 * math.sqrt(5 / 3)),
         (124 - 7 * math.sqrt(15)) / 350),
        (-math.sqrt(5 / 11 - 2 / 11 * math.sqrt(5 / 3)),
         (124 + 7 * math.sqrt(15)) / 350),
        (0.0, 256 / 525),
        (math.sqrt(5 / 11 - 2 / 11 * math.sqrt(5 / 3)),
         (124 + 7 * math.sqrt(15)) / 350),
        (math.sqrt(5 / 11 + 2 / 11 * math.sqrt(5 / 3)),
         (124 - 7 * math.sqrt(15)) / 350))))

# attempts of one trace before it gives up, and Halley passes that put a
# landing point on its circle
_MAX_STEP_ATTEMPTS = 200000
_LANDING_PASSES = 8
# rungs inside a root's reach, and the launch rung's fraction of the reach
_RUNGS = 6
_LAUNCH = 1.0 - 1e-9


@dataclass(frozen=True)
class HitTurningPoint:
    """The trace reached turning point ``target``: ``final_distance`` is
    the closest approach of its line to that root in the root's local
    model, d_min, decided on entering the root's reach.  ``vertex`` is
    that entering vertex, and ``w`` and ``level`` are sqrt(P) there, on
    the branch of the line that leaves the target, and the line's level
    in the target's chart: where ``land_polyline`` lands the rungs below
    the vertex from."""

    target: int
    final_distance: float
    vertex: complex = field(default=0j, compare=False, repr=False)
    w: complex = field(default=0j, compare=False, repr=False)
    level: float = field(default=0.0, compare=False, repr=False)


@dataclass(frozen=True)
class EscapedToRay:
    """The trace escaped along ``ray`` to ``exit_point`` on the escape
    circle.  ``vertex`` is the vertex the escape was decided at, and ``w``
    and ``level`` are sqrt(P) there and the line's level offset in the
    chart at infinity: where ``land_polyline`` lands the inner ladder
    circles from."""

    ray: int
    exit_point: complex
    vertex: complex = field(default=0j, compare=False, repr=False)
    w: complex = field(default=0j, compare=False, repr=False)
    level: float = field(default=0.0, compare=False, repr=False)


@dataclass(frozen=True)
class Truncated:
    arc_length: float


def emanating_directions(poly: ComplexPolynomial, root: complex,
                         mult: int) -> list[float]:
    """The m+2 local Stokes directions at a turning point of multiplicity m.

    With c the leading local coefficient P^(m)(root)/m!, the directions are
    theta_k = (pi (2k+1) - arg c) / (m+2), where Re of the local primitive
    of sqrt(P) vanishes.
    """
    # P / (z - root)^m evaluated at the root
    c = poly.deflate(root, mult).evaluate(root)
    argc = cmath.phase(c)
    n = mult + 2
    return [wrap_positive((math.pi * (2 * k + 1) - argc) / n) for k in range(n)]


def _branch_step(poly, w_ref, z_new):
    """Sign-matched sqrt(P)(z_new) against a nearby reference value."""
    w = cmath.sqrt(poly.evaluate(z_new))
    if w.real * w_ref.real + w.imag * w_ref.imag < 0.0:
        w = -w
    return w


def _chord_re_integral(poly, z0, w0, z1, w1, rule=_LOBATTO_6):
    """Re of the Gauss-Lobatto ``rule``'s chord integral of sqrt(P) from z0
    to z1.  The ends take the caller's branch values w0 and w1; each inner
    value is branch continued from the node before it.  The chord is
    assumed branch-safe (one RK step long)."""
    evaluate = poly.evaluate
    dz = z1 - z0
    end, inner = rule
    acc = end * ((w0.real + w1.real) * dz.real
                 - (w0.imag + w1.imag) * dz.imag)
    w_prev = w0
    for uk, wk in inner:
        w = cmath.sqrt(evaluate(z0 + uk * dz))
        if w.real * w_prev.real + w.imag * w_prev.imag < 0.0:
            w = -w
        w_prev = w
        acc += wk * (w.real * dz.real - w.imag * dz.imag)
    return 0.5 * acc


def _dp5_step(poly, z, w, k0, h):
    """One embedded Dormand-Prince 5(4) step of dz/ds = i conj(v) / |v|,
    v = sqrt(P)(z), from z with step h.

    ``w`` is the caller's branch of sqrt(P) at z and ``k0`` the field
    i conj(w) / |w| there; every later stage's branch is matched to ``w``.
    Returns (z5, err, w6, k6): the fifth-order point, its distance from
    the fourth-order point, and the branch and field at z5.  The pair is
    first same as last: an accepted step's (w6, k6) are the next step's
    (w, k0) unless the caller moves z5.  The stages are written out; sums
    are formed in the order of the loop over ``_A`` and of ``sum`` over
    ``_B5`` and ``_B4``."""
    evaluate = poly.evaluate
    wr, wi = w.real, w.imag

    v = cmath.sqrt(evaluate(z + h * _A10 * k0))
    if v.real * wr + v.imag * wi < 0.0:
        v = -v
    k1 = 1j * v.conjugate() / abs(v)

    v = cmath.sqrt(evaluate(z + h * _A20 * k0 + h * _A21 * k1))
    if v.real * wr + v.imag * wi < 0.0:
        v = -v
    k2 = 1j * v.conjugate() / abs(v)

    v = cmath.sqrt(evaluate(z + h * _A30 * k0 + h * _A31 * k1
                            + h * _A32 * k2))
    if v.real * wr + v.imag * wi < 0.0:
        v = -v
    k3 = 1j * v.conjugate() / abs(v)

    v = cmath.sqrt(evaluate(z + h * _A40 * k0 + h * _A41 * k1
                            + h * _A42 * k2 + h * _A43 * k3))
    if v.real * wr + v.imag * wi < 0.0:
        v = -v
    k4 = 1j * v.conjugate() / abs(v)

    v = cmath.sqrt(evaluate(z + h * _A50 * k0 + h * _A51 * k1
                            + h * _A52 * k2 + h * _A53 * k3 + h * _A54 * k4))
    if v.real * wr + v.imag * wi < 0.0:
        v = -v
    k5 = 1j * v.conjugate() / abs(v)

    z5 = z + h * (0 + _B50 * k0 + _B51 * k1 + _B52 * k2 + _B53 * k3
                  + _B54 * k4 + _B55 * k5)
    w6 = cmath.sqrt(evaluate(z5))
    if w6.real * wr + w6.imag * wi < 0.0:
        w6 = -w6
    k6 = 1j * w6.conjugate() / abs(w6)
    z4 = z + h * (0 + _B40 * k0 + _B41 * k1 + _B42 * k2 + _B43 * k3
                  + _B44 * k4 + _B45 * k5 + _B46 * k6)
    return z5, abs(z5 - z4), w6, k6


def _rungs(reach):
    """The circles |z - r| = rung on which a polyline has its vertices
    inside the reach of the root r, outward: ``_RUNGS`` equal steps, the
    last, the launch rung, just inside the reach, so that a root chord to
    it integrates on the root's series unsplit."""
    return [reach * k / _RUNGS for k in range(1, _RUNGS)] + [reach * _LAUNCH]


def _launch_start(ctx, root_index, direction):
    """Where every landing of the line that leaves root ``root_index``
    along ``direction`` starts: the local model's point of that line on
    the first rung, and sqrt(P) there on the branch whose field points
    along it; with the root's series and rungs."""
    own = ctx.tps.at_roots[root_index]
    rungs = _rungs(ctx.reaches[root_index])
    zeta = cmath.rect(rungs[0], direction)
    w = cmath.sqrt(ctx.poly.coeffs[0] * own.lead * zeta ** own.power)
    if (1j * w.conjugate() * zeta.conjugate()).real < 0.0:
        w = -w
    return own, ctx.locs[root_index] + zeta, w, rungs


def trace_stokes_line(poly: ComplexPolynomial, root_index: int, direction: float,
                      config: RunConfig = DEFAULT_CONFIG,
                      context: PolyContext | None = None):
    """Trace one Stokes line from a turning point.

    Returns (vertices, fate).  The trace steps only outside the roots'
    reaches (``PolyContext.reaches``, half the distance to the nearest
    other root; half of D for a lone root).  Its vertices are the root,
    the launch (the line's point on the root's outermost rung, landed
    from the root's local series), the stepped vertices, and an end: on
    entering the reach of another turning point whose local model puts
    the line within delta_hit of it (HitTurningPoint, with the model's
    closest approach), that root; on an outward vertex in the trapping
    cone at infinity or past the escape circle (EscapedToRay), the line's
    point on the escape circle, which replaces a vertex past it.  On
    reaching the length cap l_max (Truncated), checked after the launch,
    whose arc counts as the length of the chord to it, and after each
    step's decisions, there is no end.  ``land_polyline`` lands the
    rungs and ladder circles between them.  Tolerances and scales come
    from ``context``, which defaults to the context of ``poly`` under
    ``config``.  A trace that needs more than ``_MAX_STEP_ATTEMPTS`` step
    attempts, or a step below 1e-15 D, raises ``NumericalError`` naming
    the root, the launch direction and the arc length reached; so does a
    vertex within delta_hit of a root whose reach decided a miss, and a
    landing that does not converge.
    """
    ctx = context if context is not None else PolyContext.of(poly, config)
    locs, scales = ctx.locs, ctx.scales
    at_roots = ctx.tps.at_roots
    a0 = poly.coeffs[0]
    reaches = ctx.reaches
    r0 = locs[root_index]
    reach = reaches[root_index]

    delta_hit = scales.delta_hit
    r_escape = scales.r_escape
    cone = ctx.tps.at_infinity
    r_cone = cone.cone_radius
    atol = ctx.config.trace_tol * scales.d_unit
    drift_tol = 1e-13 * scales.d_unit

    # the launch: the line's point on the root's outermost rung, on the
    # root's own level, landed from the local model's point on the first
    # rung
    own, z_c, w_c, rungs = _launch_start(ctx, root_index, direction)
    (z,), w = _land(ctx, own, z_c, w_c, 0.0, rungs[-1:], root_index,
                    direction)
    w = _branch_step(poly, w, z)
    k = 1j * w.conjugate() / abs(w)
    drift = 0.0
    vertices = [r0, z]

    # the arc length so far, the launch's as the length of its chord
    s_total = abs(z - r0)
    h = reach / 4.0
    # nearest turning point to the current vertex; rejected steps keep it
    near_idx, near_d = ctx.nearest_root(z)
    # the other root whose reach holds the current vertex, with its decision
    inside, approach = -1, None
    guard = 0
    while True:
        # the length cap, after the launch and after each step's decisions
        if s_total >= scales.l_max:
            return vertices, Truncated(s_total)
        guard += 1
        if guard > _MAX_STEP_ATTEMPTS:
            raise NumericalError(
                f"trace from root {root_index} along {direction:.12g} "
                f"exceeded step budget at arc length {s_total:.6g}",
                residuals=[z])
        h = min(h, near_d / 4.0)
        if h < 1e-15 * scales.d_unit:
            raise NumericalError(
                f"step-size underflow during trace from root {root_index} "
                f"along {direction:.12g} at arc length {s_total:.6g}",
                residuals=[z])
        z5, err, w6, k6 = _dp5_step(poly, z, w, k, h)
        if err > atol and h > 4e-15 * scales.d_unit:
            h *= max(0.2, 0.9 * (atol / max(err, 1e-300)) ** 0.2)
            continue
        # accept, and project onto the line; a step longer than a fifth
        # of its distance to the nearest root takes the 7-point rule
        inc = _chord_re_integral(poly, z, w, z5, w6,
                                 _LOBATTO_7 if 5.0 * h > near_d else _LOBATTO_6)
        drift += inc
        if abs(drift) > drift_tol:
            corr = -drift * w6.conjugate() / (abs(w6) ** 2)
            z5 = z5 + corr
            drift += (w6 * corr).real
            w6 = _branch_step(poly, w6, z5)
            k6 = 1j * w6.conjugate() / abs(w6)
        s_total += h
        z, w, k = z5, w6, k6
        vertices.append(z)
        if err > 0:
            h = h * min(5.0, max(0.2, 0.9 * (atol / err) ** 0.2))
        else:
            h = h * 5.0

        # one hit decision on entering another root's reach
        near_idx, near_d = ctx.nearest_root(z)
        if near_idx != root_index and near_d < reaches[near_idx]:
            if near_idx != inside:
                inside = near_idx
                target = at_roots[near_idx]
                approach = _closest_approach(target, a0, z, w, drift)
                if approach[1] <= delta_hit:
                    vertices.append(locs[near_idx])
                    return vertices, HitTurningPoint(
                        near_idx, approach[1], z, -w, -approach[0])
            if near_d <= delta_hit:
                raise NumericalError(
                    f"trace from root {root_index} along {direction:.12g} "
                    f"comes within {near_d:.3g} of root {near_idx}, whose "
                    f"reach decided a miss (delta {approach[0]:.3g}, d_min "
                    f"{approach[1]:.3g}) at arc length {s_total:.6g}",
                    residuals=[z])
        else:
            inside = -1

        # an outward vertex in the trapping cone ends the trace on the
        # escape circle; one past that circle, uncertified, is moved back
        # onto it
        r = abs(z)
        if (z.real * k.real + z.imag * k.imag > 0.0
                and (r >= r_escape
                     or r > r_cone and _in_cone(cone, ctx.sectors, z, r))):
            if r >= r_escape:
                vertices.pop()   # its landing on the circle replaces it
            (end,), _ = _land(ctx, cone, z, w, -drift, [r_escape], root_index,
                              direction)
            vertices.append(end)
            return vertices, EscapedToRay(
                ctx.sectors.nearest_ray_index(cmath.phase(end)), end, z, w,
                -drift)


def _closest_approach(series, a0, z, w, drift):
    """(delta, d_min) for a trace at (z, w) whose level is ``drift`` off
    its own root's: delta = Re xi_b(z) - drift is the traced line's level
    measured from the root b of ``series`` (a ``SeriesAtRoot``; P of
    leading coefficient a0), and d_min its closest approach to b in the
    local model P ~ c (z - b)^m, c = a0 ``series.lead``, where
    |xi_b| = 2 |c|^{1/2} r^{(m+2)/2} / (m + 2) is smallest on the line at
    |xi_b| = |delta|."""
    delta = series.xi(a0, z, w).real - drift
    m = series.power
    c = abs(a0 * series.lead)
    return delta, ((m + 2) * abs(delta) / (2.0 * math.sqrt(c))) ** (
        2.0 / (m + 2))


def _in_cone(cone, sectors, z, r):
    """The trapping-cone certificate at the vertex z, |z| = r > r_c: with
    theta_k the ray nearest arg z and psi = ((d+2)/2) (arg z - theta_k),
    max(|psi|, Phi(r)) + Phi(r) < pi/2.  At an outward-moving vertex it
    proves that the line runs out to infinity along ray k with r growing:
    arg sqrt(P) = (d/2) arg z + phi with |phi| <= Phi(r), so
    dr/ds = cos(psi + phi) and dpsi/ds = -((d+2)/(2r)) sin(psi + phi),
    which keeps |psi| below max(|psi|, Phi) while Phi falls."""
    phi = cone.phi(r)
    theta = cmath.phase(z)
    ray = sectors.ray_angles[sectors.nearest_ray_index(theta)]
    psi = 0.5 * (cone.degree + 2) * abs(wrap_angle(theta - ray))
    return max(psi, phi) + phi < 0.5 * math.pi


def _land(ctx, series, z_c, w_c, level, radii, root_index, direction):
    """The points where the line Re xi = ``level`` of the potential of
    ``ctx`` meets the circles |z - center| = ``radii``, in order, and
    sqrt(P) at the last.

    xi comes from ``series``: the local series about a root
    (``polynomial.SeriesAtRoot``, center the root, xi measured from the
    root) or the Laurent series at infinity (``SeriesAtInfinity``, center
    0, xi measured from z_c), as xi = B zeta^{n/2 + 1} E (+ the log term
    of even d at infinity) with zeta = z - center and n the series' power.
    For odd n the half power is zeta^{(n-1)/2} sqrt(zeta_c)
    sqrt(zeta / zeta_c): integer powers of zeta and one square root that
    needs no cut near zeta_c.  B is (a0 ``series.lead``)^{1/2}, the square
    root of the leading coefficient (c about a root, a0 at infinity), with
    the sign (the branch) of w_c at z_c, where sqrt(P) = B zeta^{n/2} S.
    Along the line as it meets the circles, Im xi grows.

    Each circle's first angle is that of the leading term's level line
    through the last point, (zeta, w) with level offset res:
    Re[A ((zeta'/zeta)^{half} - 1)] = -res with A = zeta w / half and
    half = n/2 + 1.  Halley's method in the angle then solves
    f = Re xi - level = 0, with f' = -Im(zeta w) and
    f'' = -Re(zeta w + zeta^2 w'), w = sqrt(P) continued from the point
    before and w' = P'/(2w).  Each step rotates zeta; once a step times
    half is below 1e-6 rad it is the last, since the next error in the
    phase of xi is below 1e-18.  A circle on which it does not converge
    within ``_LANDING_PASSES`` raises ``NumericalError`` naming the trace,
    the circle, the radius and the residual."""
    evaluate, slope = ctx.poly.evaluate, ctx.slope.evaluate
    center = series.center
    h, odd = divmod(series.power, 2)
    half = series.half
    zeta_c = z_c - center
    s_c, e_c, zc_h, branch = series.pinned(ctx.poly.coeffs[0], zeta_c, w_c)
    t_c = zc_h * zeta_c * e_c
    # about a root xi is measured from the root, at infinity from z_c
    res = (branch * t_c).real - level if series.at_root else -level
    if series.at_root:
        t_c = 0j
    log_c = branch * series.log_coefficient()
    zeta, w = zeta_c, branch * zc_h * s_c
    out = []
    for rho in radii:
        a_lead = zeta * w / half
        ratio = (a_lead.real - res) / (abs(a_lead)
                                       * (rho / abs(zeta)) ** half)
        zeta = cmath.rect(rho, cmath.phase(zeta) + (
            math.acos(max(-1.0, min(1.0, ratio))) - cmath.phase(a_lead))
            / half)
        count = series.terms(rho)
        for _ in range(_LANDING_PASSES):
            zh = cmath.sqrt(zeta / zeta_c) if odd else 1.0
            if h:
                zh *= zeta ** h
            xi = branch * (zh * zeta * series.primitive(zeta, count) - t_c)
            if log_c:
                xi += log_c * cmath.log(zeta / zeta_c)
            res = xi.real - level
            z = center + zeta
            v = cmath.sqrt(evaluate(z))
            w = v if v.real * w.real + v.imag * w.imag >= 0.0 else -v
            zw = zeta * w
            d1 = -zw.imag
            d2 = -(zw + zeta * zeta * slope(z) / (2.0 * w)).real
            step = -2.0 * res * d1 / (2.0 * d1 * d1 - res * d2)
            if abs(step) * half <= 1e-6:
                break
            zeta *= cmath.rect(1.0, step)
        else:
            raise NumericalError(
                f"landing of the trace from root {root_index} along "
                f"{direction:.12g} on {series.circle} = {rho:.6g} did not "
                f"converge (residual {res:.3g})", residuals=[res])
        out.append(center + zeta * cmath.rect(1.0, step))
    return out, w


def land_polyline(vertices, landing):
    """The polyline of a trace from its ``vertices`` (``trace_stokes_line``)
    and its ``landing``, (context, root index, direction, fate): the
    line's points on the launch's inner rungs before the launch, and
    before the end those on the target's rungs below the entering vertex
    of a hit, or on the inner circles of the ladder r_escape 2^-j above
    the vertex an escape was decided at.  Each is landed by the chain of
    ``_land`` calls that a trace landing every circle makes, so the points
    are that chain's bit for bit; the launch and the escape's end, which
    the trace landed directly, agree with the chain's last points to
    rounding.  Without a landing the vertices are the polyline."""
    if landing is None:
        return tuple(vertices)
    ctx, root_index, direction, fate = landing
    own, z_c, w_c, rungs = _launch_start(ctx, root_index, direction)
    head = _land(ctx, own, z_c, w_c, 0.0, rungs[:-1], root_index,
                 direction)[0]
    if isinstance(fate, HitTurningPoint):
        near_d = abs(fate.vertex - ctx.locs[fate.target])
        radii = [x for x in reversed(_rungs(ctx.reaches[fate.target]))
                 if x < near_d]
        series = ctx.tps.at_roots[fate.target]
    elif isinstance(fate, EscapedToRay):
        ladder = [ctx.scales.r_escape]
        while 0.5 * ladder[-1] > abs(fate.vertex):
            ladder.append(0.5 * ladder[-1])
        radii = ladder[:0:-1]
        series = ctx.tps.at_infinity
    else:
        return (vertices[0], *head, *vertices[1:])
    tail = _land(ctx, series, fate.vertex, fate.w, fate.level, radii,
                 root_index, direction)[0] if radii else []
    return (vertices[0], *head, *vertices[1:-1], *tail, vertices[-1])


# --- graph assembly -----------------------------------------------------------

@dataclass(frozen=True)
class StokesEdge:
    """One edge of the Stokes graph.

    Finite edges carry both endpoint stubs (root index, local direction
    index); escaping edges carry the asymptotic ray index and end on the
    escape circle (see ``trace_stokes_line``).  ``vertices`` are the
    trace's: root, launch, stepped vertices and end.  ``polyline`` adds
    the rungs and ladder circles between them, landed from ``landing``
    on first read (``land_polyline``).
    """

    kind: str                      # "finite" | "escape" | "truncated"
    origin: int
    direction_index: int
    vertices: tuple[complex, ...]
    target: int | None = None
    target_direction_index: int | None = None
    ray: int | None = None
    flagged: bool = False
    landing: tuple | None = field(default=None, compare=False, repr=False)

    @cached_property
    def polyline(self) -> tuple[complex, ...]:
        return land_polyline(self.vertices, self.landing)


@dataclass(frozen=True)
class StokesGraph:
    poly: ComplexPolynomial
    turning_points: TurningPointSet
    sectors: StokesSectorSet
    edges: tuple[StokesEdge, ...]
    complexes: tuple[frozenset, ...]
    incomplete: bool
    scales: Scales

    @property
    def rays(self) -> tuple[float, ...]:
        return self.sectors.ray_angles


def build_stokes_graph(poly: ComplexPolynomial,
                       config: RunConfig = DEFAULT_CONFIG) -> StokesGraph:
    """Trace every emanating Stokes line and assemble the graph.

    Opposite half-traces of a finite Stokes line (a hits b, b hits a) are
    merged into a single finite edge; a one-sided hit is accepted but
    flagged.  Any truncated trajectory marks the graph incomplete.
    """
    ctx = PolyContext.of(poly, config)
    raw = []  # (origin, dir_index, direction, vertices, fate)
    for ridx, (root, mult) in enumerate(ctx.tps.points):
        dirs = emanating_directions(poly, root, mult)
        for kdir, theta in enumerate(dirs):
            pl, fate = trace_stokes_line(poly, ridx, theta, context=ctx)
            raw.append((ridx, kdir, theta, tuple(pl), fate))

    edges = []
    incomplete = False
    consumed = set()
    hits = {}
    for idx, (ridx, kdir, theta, pl, fate) in enumerate(raw):
        if isinstance(fate, HitTurningPoint):
            hits.setdefault((ridx, fate.target), []).append(idx)
    for idx, (ridx, kdir, theta, pl, fate) in enumerate(raw):
        if idx in consumed:
            continue
        landing = (ctx, ridx, theta, fate)
        if isinstance(fate, HitTurningPoint):
            partners = [p for p in hits.get((fate.target, ridx), [])
                        if p not in consumed and p != idx]
            if partners:
                pidx = partners[0]
                consumed.add(idx)
                consumed.add(pidx)
                edges.append(StokesEdge(
                    kind="finite", origin=ridx, direction_index=kdir,
                    vertices=pl, target=fate.target,
                    target_direction_index=raw[pidx][1], flagged=False,
                    landing=landing))
            else:
                consumed.add(idx)
                tgt_dirs = emanating_directions(
                    poly, ctx.locs[fate.target], ctx.mults[fate.target])
                # the arrival direction at the entering vertex
                arr = cmath.phase(pl[-2] - ctx.locs[fate.target])
                kt = min(range(len(tgt_dirs)),
                         key=lambda m: abs(wrap_angle(tgt_dirs[m] - arr)))
                edges.append(StokesEdge(
                    kind="finite", origin=ridx, direction_index=kdir,
                    vertices=pl, target=fate.target,
                    target_direction_index=kt, flagged=True,
                    landing=landing))
        elif isinstance(fate, EscapedToRay):
            consumed.add(idx)
            edges.append(StokesEdge(
                kind="escape", origin=ridx, direction_index=kdir,
                vertices=pl, ray=fate.ray, landing=landing))
        else:
            consumed.add(idx)
            incomplete = True
            edges.append(StokesEdge(
                kind="truncated", origin=ridx, direction_index=kdir,
                vertices=pl, flagged=True, landing=landing))

    # complexes: connected components over finite edges
    parent = list(range(len(ctx.locs)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        if e.kind == "finite" and e.target is not None:
            ra, rb = find(e.origin), find(e.target)
            if ra != rb:
                parent[ra] = rb
    groups: dict[int, set] = {}
    for ridx in range(len(ctx.locs)):
        groups.setdefault(find(ridx), set()).add(ridx)
    complexes = tuple(frozenset(g) for _, g in sorted(
        (min(g), g) for g in groups.values()))

    return StokesGraph(poly=poly, turning_points=ctx.tps, sectors=ctx.sectors,
                       edges=tuple(edges), complexes=complexes,
                       incomplete=incomplete, scales=ctx.scales)


def classify_complexes(graph: StokesGraph) -> list[tuple[frozenset, bool]]:
    """(component, is_simple) for every Stokes complex; simple means the
    component contains exactly one turning point."""
    if graph.incomplete:
        raise NumericalError("cannot classify complexes of an incomplete graph")
    return [(comp, len(comp) == 1) for comp in graph.complexes]
