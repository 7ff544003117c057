"""Stokes-line tracing and graph assembly.

Trajectories solve dz/ds = i * conj(w) / |w| with w = sqrt(P(z)) continued
along the trace, which moves at unit speed while keeping Re xi constant
(d xi / ds = i |w|).  The tracer is a predictor-corrector that follows the
level set Re xi = Re xi(root).  An embedded Dormand-Prince 5(4) step
predicts the next vertex; its error bound (``RunConfig.trace_tol``) only
spaces the vertices, because nearly all of a step's local error lies
normal to the line.  The corrector adds the chord integral of sqrt(P) to
a running drift estimate and projects the vertex back onto the level set
along the normal, so emitted polylines stay on the Stokes line in the
canonical chart.  The chord integral is a Gauss-Lobatto rule whose end
values are the step's own, so it costs 4 new evaluations.

Each turning point owns a disk, a tenth of the distance to its nearest
other root, where the local normal form of P dz^2 holds and no step is
needed.  A trace starts on the edge of its root's disk, put on the
root's level by one root-chart chord and Newton passes of the
projection, whose residual the drift carries.  On entering another
root's disk it decides once, from one root chord there: the level
offset delta of the line from that root's level gives the line's
closest approach in the local model, and within the hit radius the
trace ends on that root; otherwise it steps on.

Near the pole at infinity the lines are trapped in cones about the d+2
rays (Strebel, Quadratic Differentials, 1984, ch. III).  Beyond the cone
radius r_c, where Phi(r) = 1/2 sum m_i arcsin(|r_i|/r) < pi/4 bounds the
phase of sqrt(P) / z^{d/2}, an outward vertex whose angle psi from the
nearest ray, scaled by (d+2)/2, has max(|psi|, Phi) + Phi < pi/2 is
certain to escape along that ray.  The trace ends there.  Its last
vertices are the line's points on a ladder of circles r_escape 2^-j, the
same for every line, from the first circle above the vertex out to the
escape circle: Newton in the angle on the level of Re xi, with xi from
the Laurent series of sqrt(P) at infinity
(``polynomial.SeriesAtInfinity``).  A vertex past the escape circle
before the certificate holds is moved back onto that circle the same way.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .config import DEFAULT_CONFIG, RunConfig, Scales
from .errors import NumericalError
from .polynomial import (ComplexPolynomial, PolyContext, StokesSectorSet,
                         TurningPointSet, wrap_angle, wrap_positive)
from .pathint import _deflate, integrate_chord_from_root

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

# 6-point Gauss-Lobatto rule on [-1, 1] (Abramowitz-Stegun 25.4.32), exact
# to degree 9: the ends carry weight 1/15, the inner nodes
# +-sqrt(1/3 -+ 2 sqrt(7)/21) carry (14 +- sqrt(7))/30.  The inner nodes are
# stored as chord fractions (1 + x)/2 in order along the chord.
_LOBATTO_END = 1 / 15
_LOBATTO_INNER = tuple(
    (0.5 + 0.5 * x, wk) for x, wk in (
        (-math.sqrt(1 / 3 + 2 * math.sqrt(7) / 21), (14 - math.sqrt(7)) / 30),
        (-math.sqrt(1 / 3 - 2 * math.sqrt(7) / 21), (14 + math.sqrt(7)) / 30),
        (math.sqrt(1 / 3 - 2 * math.sqrt(7) / 21), (14 + math.sqrt(7)) / 30),
        (math.sqrt(1 / 3 + 2 * math.sqrt(7) / 21), (14 - math.sqrt(7)) / 30)))

# attempts of one trace before it gives up, and Newton passes that put a
# launch point on its line or a landing point on its circle
_MAX_STEP_ATTEMPTS = 200000
_NEWTON_PASSES = 8


@dataclass(frozen=True)
class HitTurningPoint:
    """The trace reached turning point ``target``: ``final_distance`` is
    the closest approach of its line to that root in the root's local
    model, d_min, decided on entering the root's disk."""

    target: int
    final_distance: float


@dataclass(frozen=True)
class EscapedToRay:
    ray: int
    exit_point: complex


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
    c = _deflate(poly, root, mult).evaluate(root)
    argc = cmath.phase(c)
    n = mult + 2
    return [wrap_positive((math.pi * (2 * k + 1) - argc) / n) for k in range(n)]


def _branch_step(poly, w_ref, z_new):
    """Sign-matched sqrt(P)(z_new) against a nearby reference value."""
    w = cmath.sqrt(poly.evaluate(z_new))
    if w.real * w_ref.real + w.imag * w_ref.imag < 0.0:
        w = -w
    return w


def _chord_re_integral(poly, z0, w0, z1, w1):
    """Re of the 6-point Gauss-Lobatto chord integral of sqrt(P) from z0 to
    z1.  The ends take the caller's branch values w0 and w1; each inner
    value is branch continued from the node before it.  The chord is
    assumed branch-safe (one RK step long)."""
    evaluate = poly.evaluate
    dz = z1 - z0
    acc = _LOBATTO_END * ((w0.real + w1.real) * dz.real
                          - (w0.imag + w1.imag) * dz.imag)
    w_prev = w0
    for uk, wk in _LOBATTO_INNER:
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


def trace_stokes_line(poly: ComplexPolynomial, root_index: int, direction: float,
                      config: RunConfig = DEFAULT_CONFIG,
                      context: PolyContext | None = None):
    """Trace one Stokes line from a turning point.

    Returns (polyline, fate).  The trace runs between root disks
    (``PolyContext.disk_radii``, a tenth of the distance to the nearest
    other root): it starts on the edge of its root's disk and ends on:
    entering the disk of another turning point whose local model puts the
    line within delta_hit of it (HitTurningPoint, with the model's closest
    approach), an outward vertex in the trapping cone at infinity or past
    the escape circle (EscapedToRay; ``_land`` adds the line's points on
    the circles r_escape 2^-j above the vertex, the last one on the escape
    circle), or exceeding the length cap l_max (Truncated).  Tolerances
    and scales come from ``context``, which defaults to the context of
    ``poly`` under ``config``.  A trace that needs more than
    ``_MAX_STEP_ATTEMPTS`` step attempts, or a step below 1e-15 D, raises
    ``NumericalError`` naming the root, the launch direction and the arc
    length reached; so does a vertex within delta_hit of a root whose
    disk decided a miss, and a landing that does not converge.
    """
    ctx = context if context is not None else PolyContext.of(poly, config)
    locs, mults, scales = ctx.locs, ctx.mults, ctx.scales
    disks = ctx.disk_radii
    r0 = locs[root_index]
    z = r0 + disks[root_index] * cmath.exp(1j * direction)

    w = cmath.sqrt(poly.evaluate(z))
    v = 1j * w.conjugate() / abs(w)
    if v.real * math.cos(direction) + v.imag * math.sin(direction) < 0.0:
        w = -w

    delta_hit = scales.delta_hit
    r_escape = scales.r_escape
    cone = ctx.tps.at_infinity
    r_cone = cone.cone_radius
    atol = ctx.config.trace_tol * scales.d_unit
    drift_tol = 1e-13 * scales.d_unit

    # put the launch point on the Re xi level of the root itself: one root
    # chord, then Newton passes along the normal
    head = integrate_chord_from_root(poly, locs, r0, mults[root_index],
                                     z, w, rel_tol=1e-12)
    z, w, drift = _newton_onto_level(poly, z, w, head.real, drift_tol)
    k = 1j * w.conjugate() / abs(w)
    polyline = [r0, z]

    s_total = 0.0
    h = disks[root_index] / 4.0
    # nearest turning point to the current vertex; rejected steps keep it
    near_idx, near_d = ctx.nearest_root(z)
    # the other root whose disk holds the current vertex, with its decision
    inside, approach = -1, None
    guard = 0
    while True:
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
        # accept, and project onto the line
        inc = _chord_re_integral(poly, z, w, z5, w6)
        drift += inc
        if abs(drift) > drift_tol:
            corr = -drift * w6.conjugate() / (abs(w6) ** 2)
            z5 = z5 + corr
            drift += (w6 * corr).real
            w6 = _branch_step(poly, w6, z5)
            k6 = 1j * w6.conjugate() / abs(w6)
        s_total += h
        z, w, k = z5, w6, k6
        polyline.append(z)
        if err > 0:
            h = h * min(5.0, max(0.2, 0.9 * (atol / err) ** 0.2))
        else:
            h = h * 5.0

        # one hit decision on entering another root's disk
        near_idx, near_d = ctx.nearest_root(z)
        if near_idx != root_index and near_d < disks[near_idx]:
            if near_idx != inside:
                inside = near_idx
                approach = _closest_approach(poly, locs[near_idx],
                                             mults[near_idx], locs, z, w,
                                             drift)
                if approach[1] <= delta_hit:
                    polyline.append(locs[near_idx])
                    return polyline, HitTurningPoint(near_idx, approach[1])
            if near_d <= delta_hit:
                raise NumericalError(
                    f"trace from root {root_index} along {direction:.12g} "
                    f"comes within {near_d:.3g} of root {near_idx}, whose "
                    f"disk decided a miss (delta {approach[0]:.3g}, d_min "
                    f"{approach[1]:.3g}) at arc length {s_total:.6g}",
                    residuals=[z])
        else:
            inside = -1

        # an outward vertex in the trapping cone ends the trace on the
        # ladder of circles r_escape 2^-j above it; one past the escape
        # circle, uncertified, is moved back onto that circle
        r = abs(z)
        if (z.real * k.real + z.imag * k.imag > 0.0
                and (r >= r_escape
                     or r > r_cone and _in_cone(cone, ctx.sectors, z, r))):
            rungs = [r_escape]
            while 0.5 * rungs[-1] > r:
                rungs.append(0.5 * rungs[-1])
            if r >= r_escape:
                polyline.pop()   # its landing on the circle replaces it
            polyline += _land(cone, poly.coeffs[0], z, w, drift, rungs[::-1],
                              root_index, direction)
            return polyline, EscapedToRay(
                ctx.sectors.nearest_ray_index(cmath.phase(polyline[-1])),
                polyline[-1])

        if s_total >= scales.l_max:
            return polyline, Truncated(s_total)


def _closest_approach(poly, root, mult, locs, z, w, drift):
    """(delta, d_min) for a trace at (z, w) whose level is ``drift`` off
    its own root's: delta = Re xi_b(z) - drift is the traced line's level
    measured from the root b = ``root`` (one root chord), and d_min its
    closest approach to b in the local model P ~ c (z - b)^m, where
    |xi_b| = 2 |c|^{1/2} r^{(m+2)/2} / (m + 2) is smallest on the line at
    |xi_b| = |delta|."""
    xi_b = integrate_chord_from_root(poly, locs, root, mult, z, w,
                                     rel_tol=1e-12)
    delta = xi_b.real - drift
    c = abs(_deflate(poly, root, mult).evaluate(root))
    return delta, ((mult + 2) * abs(delta) / (2.0 * math.sqrt(c))) ** (
        2.0 / (mult + 2))


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


def _land(cone, lead, z_c, w_c, drift, radii, root_index, direction):
    """The points where the line through the vertex (z_c, w_c), whose level
    is ``drift`` off its root's, meets the circles |z| = ``radii``, in
    order, for the potential of leading coefficient ``lead`` = a0; each by
    Newton in the angle on
    drift + Re[xi(z) - xi(z_c)] = 0, whose derivative is Re(i z sqrt(P)).

    xi comes from ``cone``'s Laurent series at infinity (see
    ``polynomial.SeriesAtInfinity``), as xi = B z^{(d+2)/2} E (+ the log
    term of even d) and sqrt(P) = B z^{d/2} S, where for odd d the half
    power is z^{(d-1)/2} sqrt(z_c) sqrt(z / z_c): integer powers of z and
    one square root that needs no cut near z_c.  B is sqrt(a0) with the
    sign (the branch) of the traced w_c.  Each circle's first angle is
    that of the leading term's level line through the last point
    evaluated, (z, w) with level offset res:
    Re[A ((z'/z)^{(d+2)/2} - 1)] = -res with A = 2 z w / (d+2).  Each step
    in the angle rotates z, and a step below 1e-9 rad is the last, since
    Newton's next error is below rounding.  A circle on which Newton does
    not converge raises ``NumericalError`` naming the trace, the radius
    and the residual."""
    d = cone.degree
    h, odd = divmod(d, 2)
    half = 0.5 * (d + 2)
    scale = cone.scale

    def series(z):
        """S and E at z, to as many terms as |z| needs."""
        count = cone.terms(abs(z))
        u = scale / z
        s_sum = e_sum = 0j
        for ck, ek in zip(cone.c[count - 1::-1], cone.e[count - 1::-1]):
            s_sum = s_sum * u + ck
            e_sum = e_sum * u + ek
        return s_sum, e_sum

    s_c, e_c = series(z_c)
    zc_h = z_c ** h
    branch = cmath.sqrt(lead) * (cmath.sqrt(z_c) if odd else 1.0)
    if (branch * zc_h * s_c * w_c.conjugate()).real < 0.0:
        branch = -branch
    t_c = zc_h * z_c * e_c
    # the log term of even degree, c_n s^n log z with n = (d+2)/2
    log_c = 0j if odd else branch * cone.c[h + 1] * scale ** (h + 1)
    z, w, res = z_c, w_c, drift
    out = []
    for rho in radii:
        a_lead = z * w / half
        ratio = (a_lead.real - res) / (abs(a_lead) * (rho / abs(z)) ** half)
        z = cmath.rect(rho, cmath.phase(z) + (
            math.acos(max(-1.0, min(1.0, ratio))) - cmath.phase(a_lead)) / half)
        for _ in range(_NEWTON_PASSES):
            s_sum, e_sum = series(z)
            zh = z ** h
            if odd:
                zh *= cmath.sqrt(z / z_c)
            w = branch * zh * s_sum
            res = drift + (branch * (zh * z * e_sum - t_c)
                           + log_c * cmath.log(z / z_c)).real
            step = res / (z * w).imag
            if abs(step) <= 1e-9:
                break
            z *= cmath.rect(1.0, step)
        else:
            raise NumericalError(
                f"landing of the trace from root {root_index} along "
                f"{direction:.12g} on |z| = {rho:.6g} did not converge "
                f"(residual {res:.3g})", residuals=[res])
        out.append(z * cmath.rect(1.0, step))
    return out


def _newton_onto_level(poly, z, w, drift, drift_tol):
    """Newton passes that move the vertex (z, w), whose level is ``drift``
    off its root's, onto the Re xi level along the normal.  Each pass adds
    the Lobatto chord integral of its own move to the drift, so the
    residual is carried, not dropped.  The passes stop once the drift
    is within ``drift_tol``, or once a move no longer changes the vertex
    (where rounding keeps the drift above that tolerance), after
    ``_NEWTON_PASSES`` at most.  Returns (z, w, drift)."""
    for _ in range(_NEWTON_PASSES):
        if abs(drift) <= drift_tol:
            break
        z_next = z - drift * w.conjugate() / (abs(w) ** 2)
        if z_next == z:
            break
        w_next = _branch_step(poly, w, z_next)
        drift += _chord_re_integral(poly, z, w, z_next, w_next)
        z, w = z_next, w_next
    return z, w, drift


# --- graph assembly -----------------------------------------------------------

@dataclass(frozen=True)
class StokesEdge:
    """One edge of the Stokes graph.

    Finite edges carry both endpoint stubs (root index, local direction
    index); escaping edges carry the asymptotic ray index and end on the
    escape circle (see ``trace_stokes_line``).
    """

    kind: str                      # "finite" | "escape" | "truncated"
    origin: int
    direction_index: int
    polyline: tuple[complex, ...]
    target: int | None = None
    target_direction_index: int | None = None
    ray: int | None = None
    flagged: bool = False


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
    raw = []  # (origin, dir_index, direction, polyline, fate)
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
        if isinstance(fate, HitTurningPoint):
            partners = [p for p in hits.get((fate.target, ridx), [])
                        if p not in consumed and p != idx]
            if partners:
                pidx = partners[0]
                consumed.add(idx)
                consumed.add(pidx)
                edges.append(StokesEdge(
                    kind="finite", origin=ridx, direction_index=kdir,
                    polyline=pl, target=fate.target,
                    target_direction_index=raw[pidx][1], flagged=False))
            else:
                consumed.add(idx)
                tgt_dirs = emanating_directions(
                    poly, ctx.locs[fate.target], ctx.mults[fate.target])
                arr = cmath.phase(pl[-2] - ctx.locs[fate.target])
                kt = min(range(len(tgt_dirs)),
                         key=lambda m: abs(wrap_angle(tgt_dirs[m] - arr)))
                edges.append(StokesEdge(
                    kind="finite", origin=ridx, direction_index=kdir,
                    polyline=pl, target=fate.target,
                    target_direction_index=kt, flagged=True))
        elif isinstance(fate, EscapedToRay):
            consumed.add(idx)
            edges.append(StokesEdge(
                kind="escape", origin=ridx, direction_index=kdir,
                polyline=pl, ray=fate.ray))
        else:
            consumed.add(idx)
            incomplete = True
            edges.append(StokesEdge(
                kind="truncated", origin=ridx, direction_index=kdir,
                polyline=pl, flagged=True))

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
