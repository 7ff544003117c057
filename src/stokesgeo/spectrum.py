"""Accumulation rays and eigenvalue asymptotics of -y'' + lambda^2 P y = 0,
plus an independent eigenvalue oracle via subdominant-solution Wronskians.

Quantization convention: with L the loop integral of sqrt(P) around a short
geodesic and I_j the loop integrals of the correction densities, eigenvalues
along the associated ray solve

    lambda L = i (2 pi n + pi) - sum_j lambda^{-j} I_j,

with the branch and orientation of L chosen so that the leading iterate
lies on the forward ray Re(e^{-i angle} lambda) > 0.  The factor i makes
the leading term land exactly on the ray of angle t_star (arg lambda =
pi/2 - arg L = t_star mod pi) and reproduces the harmonic-oscillator
spectrum, which pins the convention.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import ClearanceError, NonGenericError, NumericalError
from .geodesics import GeodesicSurvey, ShortGeodesic, survey_short_geodesics
from .pathint import (alpha_densities, build_stadium, continue_branch,
                      contour_integral, min_clearance, sqrt_density,
                      winding_number)
from .polynomial import (PI, TWO_PI, ComplexPolynomial, PolyContext,
                         stokes_sectors)
from .tracer import build_stokes_graph

# order of the Taylor series per step of _integrate_inward
_TAYLOR_ORDER = 30


@dataclass(frozen=True)
class AccumulationRay:
    """One ray of eigenvalue accumulation, generated by a short geodesic."""

    angle: float
    geodesic: ShortGeodesic
    loop_period: complex
    contour: tuple[complex, ...]


@dataclass(frozen=True)
class EigenvalueEstimate:
    n: int
    ray_angle: float
    value: complex
    order: int
    residual: float
    converged: bool = True
    monotone: bool = True     # residuals non-increasing after the 2nd step


def _loop_contour(ctx: PolyContext, geodesic: ShortGeodesic):
    """Stadium around the geodesic enclosing only its two endpoints.

    The clearance starts generous (quadrature of the correction densities
    degrades sharply when the contour hugs the square-root singularities)
    and shrinks toward 2.9 delta_path until no other turning point is
    enclosed or nearer than 0.9 delta_path to a chord, the clearance rule
    of the contour walk."""
    locs = ctx.locs
    scales = ctx.scales
    a, b = geodesic.pair
    others = [r for k, r in enumerate(locs) if k not in (a, b)]
    # with no other turning point, room is inf
    room = min_clearance(list(geodesic.polyline), others)
    clearance = max(3.0 * scales.delta_path, min(0.35 * scales.d_unit,
                                                 0.45 * room))
    for _ in range(6):
        contour = build_stadium(geodesic.polyline, clearance)
        windings = [winding_number(contour, r) for r in locs]
        enclosed_ok = all(
            abs(windings[k]) == (1 if k in (a, b) else 0)
            for k in range(len(locs)))
        clear_ok = min_clearance(contour, others) >= 0.9 * scales.delta_path
        if enclosed_ok and clear_ok:
            return contour
        clearance = max(0.5 * clearance, 2.9 * scales.delta_path)
    raise ClearanceError(
        f"could not build a loop contour around pair {geodesic.pair}")


def _loop_sign(ctx: PolyContext, geodesic: ShortGeodesic, contour) -> int:
    """+-1: the integral of sqrt(P) around ``contour`` from the principal
    branch at contour[0] is +-2 period.  Half of it is w dz along the
    geodesic on the contour's branch beside its right side, so the branch
    is carried along the contour, without quadrature, to the right-side
    vertex nearest a mid-geodesic point p and across to p."""
    pl = geodesic.polyline
    k = len(pl) // 2
    p, tangent = 0.5 * (pl[k - 1] + pl[k]), pl[k] - pl[k - 1]
    right = [i for i, v in enumerate(contour) if ((v - p) / tangent).imag < 0]
    stop = min(right, key=lambda i: abs(contour[i] - p))
    w = continue_branch(ctx.poly, ctx.locs, [[*contour[:stop + 1], p]],
                        [cmath.sqrt(ctx.poly.evaluate(contour[0]))])[0, -1]
    return 1 if (w * tangent * geodesic.period.conjugate()).real > 0 else -1


def accumulation_rays(poly: ComplexPolynomial,
                      config: RunConfig = DEFAULT_CONFIG,
                      survey: GeodesicSurvey | None = None) -> list[AccumulationRay]:
    """One ray per verified short geodesic; the ray angle is the geodesic's
    connection angle and the loop period is the integral of sqrt(P) around
    a stadium contour enclosing only the two endpoints, from the principal
    branch at its first vertex: +-2 period, with no quadrature."""
    if survey is None:
        survey = survey_short_geodesics(poly, config)
    ctx = PolyContext.of(poly, config)
    rays = []
    for geo in survey.geodesics:
        contour = _loop_contour(ctx, geo)
        rays.append(AccumulationRay(
            angle=geo.t_star, geodesic=geo,
            loop_period=2 * _loop_sign(ctx, geo, contour) * geo.period,
            contour=tuple(contour)))
    rays.sort(key=lambda r: r.angle)
    return rays


def eigenvalue_asymptotics(poly: ComplexPolynomial, ray: AccumulationRay,
                           n_min: int, n_max: int, order: int = 0,
                           config: RunConfig = DEFAULT_CONFIG) -> list[EigenvalueEstimate]:
    """Eigenvalue estimates along one accumulation ray by fixed-point
    iteration of the quantization relation, to ``order`` correction terms.
    Their contour walk also integrates sqrt(P), since the odd ones share
    L's branch: NumericalError if that differs from ``ray.loop_period`` by
    more than 1e-9 (or quad_rel_tol) relative."""
    if order < 0:
        raise ValueError("order must be >= 0")
    # the n_min term orients L, and only n >= 0 lies on the forward ray
    if n_min < 0:
        raise ValueError(f"n_min must be >= 0, got {n_min}")
    L = ray.loop_period
    corrections = []
    if order > 0:
        *alphas, loop = contour_integral(
            poly, ray.contour, alpha_densities(poly, order) + [sqrt_density],
            config)
        if abs(loop - L) > max(1e-9, config.quad_rel_tol) * abs(L):
            raise NumericalError(
                f"pair {ray.geodesic.pair}, ray angle {ray.angle:.12f}: the "
                f"correction walk gives L = {loop}, the ray carries {L}",
                residuals=[abs(loop - L) / abs(L)])
        corrections = alphas[1:order + 1]

    lead = 1j * (TWO_PI * n_min + PI) / L
    if (lead * cmath.exp(-1j * ray.angle)).real <= 0.0:
        L = -L
        corrections = [(-c if j % 2 == 1 else c)
                       for j, c in enumerate(corrections, start=1)]

    lam0_min = abs(1j * (TWO_PI * n_min + PI) / L)
    if lam0_min < config.lambda_min_modulus:
        raise ValueError(
            f"n_min={n_min} gives |lambda| = {lam0_min:.3g} below the "
            f"configured threshold {config.lambda_min_modulus}")

    out = []
    for n in range(n_min, n_max + 1):
        rhs0 = TWO_PI * n + PI
        lam = 1j * rhs0 / L
        residual = 0.0
        converged = False
        residuals = []
        for _ in range(50):
            acc = 1j * rhs0
            for j, cj in enumerate(corrections, start=1):
                acc -= cj / lam ** j
            lam_new = acc / L
            residual = abs(lam_new - lam) / max(abs(lam_new), 1e-300)
            residuals.append(residual)
            lam = lam_new
            if residual < 1e-12:
                converged = True
                break
        monotone = all(b <= a + 1e-15 for a, b in
                       zip(residuals[1:], residuals[2:]))
        out.append(EigenvalueEstimate(n=n, ray_angle=ray.angle, value=lam,
                                      order=order, residual=residual,
                                      converged=converged,
                                      monotone=monotone))
    return out


# --- subdominant solutions and Wronskians -------------------------------------

def _wkb_start(poly, lams, z0):
    """Decaying-branch WKB slope y0' at z0 per lambda, with y0 = 1."""
    p0 = poly.evaluate(z0)
    dp0 = poly.derivative().evaluate(z0) if poly.degree >= 1 else 0j
    sq = np.sqrt(lams * lams * p0)
    # decaying outward along arg z0: Re(sqrtQ * e^{i arg z0}) > 0
    phase = z0 / abs(z0)
    sq = np.where((sq * phase).real < 0, -sq, sq)
    return -sq - dp0 / (4.0 * p0)


def _taylor_coeffs(poly, z1):
    """t_0..t_d with P(z1 + u) = sum_k t_k u^k, by repeated synthetic
    division by (z - z1); at z1 = 0 they are the coefficients reversed."""
    c = list(poly.coeffs)
    out = []
    while c:
        acc = 0j
        q = []
        for a in c:
            acc = acc * z1 + a
            q.append(acc)
        out.append(q.pop())
        c = q
    return np.array(out)


def _integrate_inward(poly, lams, starts, z1, rtol):
    """Batched integration of y'' = lambda^2 P y from each start point to
    z1 along straight segments, by a Taylor series of order _TAYLOR_ORDER
    per step.  Every lambda runs from every start, and all these lanes
    share one step sequence in tau in [0, 1].

    On lane path z = z1 + s dz, s = tau - 1, the equation reads
    y'' = Q(tau) y in tau with Q = lambda^2 dz^2 P(z) = sum_k coef_k s^k,
    coef_k = lambda^2 dz^2 t_k dz^k and t_k the Taylor coefficients of P
    at z1: a lane table built once.  A step from tau re-expands Q about
    tau with one binomial shift matrix shared by all lanes, Q(tau + u) =
    sum_j q_j u^j, and builds the scaled coefficients b_k = a_k h^k of
    y(tau + u) = sum_k a_k u^k by the exact recurrence

        b_{k+2} = sum_{j <= min(k, d)} q_j h^{j+2} b_{k-j} / ((k+1)(k+2)).

    The step ends at y = sum_k b_k and h dy/dtau = sum_k k b_k.  The
    latter's last two terms bound the truncation error of both: its tail
    max((N-1)|b_{N-1}|, N|b_N|) / (|b_0| + |b_1|), maxed over the lanes,
    sets rho = (rtol / (2 tail))^(1/N).  A step of length rho h has the
    coefficients rho^k b_k, so a step shrinks without a new series unless
    rho falls below 1/4, and none is rejected: a step is taken once its
    tail meets rtol, and the next one grows by rho, at most 4-fold.  Every
    step divides each lane by its |y| + |dy/dtau| into ``logscale`` and
    takes a decay sample.

    Returns (y, dy/dz, logscale) of shape (len(starts), len(lams)), the
    step count, and the decay samples, one per step and one at the
    start, as an array of shape (samples, len(starts), len(lams))."""
    lams = np.asarray(lams, dtype=complex)
    starts = np.asarray(starts, dtype=complex)
    shape = (starts.shape[0], lams.shape[0])
    dz = np.repeat(z1 - starts, shape[1])
    lam = np.tile(lams, shape[0])
    n = lam.shape[0]
    d = poly.degree
    powers = np.arange(d + 1)
    coef = ((lam * lam * dz * dz)[:, None] * _taylor_coeffs(poly, z1)
            * dz[:, None] ** powers)
    # binom * s ** lag, entries C(k, j) s^(k-j), re-expands sum_k coef_k s^k
    # about s
    binom = np.array([[math.comb(k, j) for j in powers] for k in powers],
                     dtype=complex)
    lag = np.maximum(powers[:, None] - powers, 0)
    # a column, so that products with b run per row; the step-end sums
    # avoid matmul, whose threaded BLAS call costs more than the sum
    order = np.arange(_TAYLOR_ORDER + 1.0)[:, None]
    inv = 1.0 / ((order[:-2] + 1.0) * (order[:-2] + 2.0))

    def where():
        mods = np.abs(lams)
        return (f"from {', '.join(f'{z:.6g}' for z in starts)} to {z1:.6g} "
                f"at |lambda| {mods.min():.6g}..{mods.max():.6g}")

    y = np.ones(n, dtype=complex)
    yp = np.concatenate([_wkb_start(poly, lams, z0) for z0 in starts]) * dz
    logscale = np.zeros(n)
    decay = [np.zeros(n)]
    b = np.empty((_TAYLOR_ORDER + 1, n), dtype=complex)

    def tail():
        mag = np.abs(b[[0, 1, -2, -1]])
        return (np.maximum((_TAYLOR_ORDER - 1) * mag[2],
                           _TAYLOR_ORDER * mag[3])
                / (mag[0] + mag[1])).max()

    def series(q, h):
        b[0] = y
        b[1] = yp * h
        # g[k, i] = q_j h^(j+2) / ((k+1)(k+2)) with j = d - i, so that
        # b[k+2] is one product with the slice b[k-d..k]
        g = (q * h ** (powers + 2)).T[::-1] * inv[:, None]
        for k in range(_TAYLOR_ORDER - 1):
            lo = max(k - d, 0)
            np.add.reduce(g[k, d - k + lo:] * b[lo:k + 1], axis=0,
                          out=b[k + 2])
        return tail()

    def rho(err):
        # aims at rtol / 2: rho would round to 1 for err an ulp above rtol
        return (0.5 * rtol / err) ** (1.0 / _TAYLOR_ORDER)

    tau = 0.0
    h = 1.0
    steps = 0
    while tau < 1.0 - 1e-13:
        h = min(h, 1.0 - tau)
        q = coef @ (binom * (tau - 1.0) ** lag)
        err = series(q, h)
        while not err <= rtol:
            if not math.isfinite(err):
                if h <= 1e-12:
                    raise NumericalError(
                        "non-finite state in subdominant integration "
                        f"{where()}, at tau = {tau:.6g}", residuals=[tau])
                h *= 0.25
                err = series(q, h)
                continue
            shrink = rho(err)
            h *= shrink
            if shrink < 0.25:
                err = series(q, h)
            else:
                b *= shrink ** order
                err = tail()
        tau += h
        steps += 1
        y = b.sum(axis=0)
        yp = (order * b).sum(axis=0) / h
        mag = np.abs(y) + np.abs(yp)
        logscale += np.log(mag)
        y /= mag
        yp /= mag
        decay.append(logscale + np.log(np.abs(y) + 1e-300))
        if steps > 120000:
            raise NumericalError(
                f"subdominant integration stalled {where()}, at "
                f"tau = {tau:.6g} after {steps} steps", residuals=[tau])
        h *= min(4.0, rho(max(err, 1e-300)))
    return (y.reshape(shape), (yp / dz).reshape(shape),
            logscale.reshape(shape), steps,
            np.array(decay).reshape(-1, *shape))


_DECAY_EFOLDS = 18.0   # suppresses dominant-solution contamination to ~1e-16
_BOUNDARY_DIP = math.log(1e6)   # |W e^s| drop that marks a zero on a sample


def _sector_ray(poly, sector_index: int, lam_ref: complex, scale: float):
    """Start point of the inward integration path: on the midline of the
    requested sector of lambda^2 P, at a radius scaling like
    |lambda|^{-2/(d+2)} so the subdominant decay budget is uniform in
    lambda (Re xi(R) ~ (2 sqrt|a0| / (d+2)) R^{(d+2)/2})."""
    d = poly.degree
    phi0_q = poly.phi0 + 2.0 * cmath.phase(lam_ref)
    center = (TWO_PI * sector_index - phi0_q) / (d + 2)
    a0 = abs(poly.coeffs[0])
    radius = ((d + 2) * _DECAY_EFOLDS
              / (2.0 * abs(lam_ref) * math.sqrt(a0))) ** (2.0 / (d + 2))
    radius = max(2.0 * scale, radius)
    return radius * cmath.exp(1j * center)


def wronskian_sectors(poly: ComplexPolynomial, ray: AccumulationRay,
                      config: RunConfig) -> tuple[int, int]:
    """Sector pair of the Wronskian search along one accumulation ray.

    In the Stokes graph of e^{2it*} P, each end of the ray's geodesic sends
    its two other Stokes lines to neighbouring rays k and k+1; the sector
    k+1 between them is the one whose subdominant solution is matched at
    that end.
    """
    rot = poly.rotate(ray.angle)
    graph = build_stokes_graph(rot, config)
    locs = graph.turning_points.locations
    n = graph.sectors.count
    # the graph numbers sectors from arg of e^{2it*} a0 wrapped to (-pi, pi],
    # _sector_ray from arg a0 + 2 arg(lambda) = arg a0 + 2 t* on the ray
    shift = round((poly.phi0 + 2.0 * ray.angle - rot.phi0) / TWO_PI)
    pair = []
    for end in (ray.geodesic.polyline[0], ray.geodesic.polyline[-1]):
        root = min(range(len(locs)), key=lambda k: abs(locs[k] - end))
        rays = sorted(e.ray for e in graph.edges
                      if e.kind == "escape" and e.origin == root)
        if len(rays) != 2 or (rays[1] - rays[0]) % n not in (1, n - 1):
            raise NonGenericError(
                f"root {root} of the geodesic on the ray at "
                f"{ray.angle:.12g} escapes to rays {rays}, not to two "
                "neighbouring rays")
        k = rays[0] if rays[1] - rays[0] == 1 else rays[1]
        pair.append((k + 1 + shift) % n)
    return tuple(sorted(pair))


def _wronskian_batch(poly, lams, sectors, config, rtol, lam_ref=None):
    """Scaled Wronskian of the two subdominant solutions at the matching
    point z = 0; the dropped factor exp(s1+s2) is real positive, so zeros
    and phase winding are unaffected.  The start points come from
    ``lam_ref``, by default the lambda of least modulus: W's normalization
    depends on them, so batches whose phases are compared must share it."""
    lams = np.asarray(lams, dtype=complex)
    if lam_ref is None:
        lam_ref = lams[np.argmin(np.abs(lams))]
    scale = 1.0 + PolyContext.of(poly, config).scales.max_modulus
    starts = [_sector_ray(poly, sector, lam_ref, scale) for sector in sectors]
    (y1, y2), (yp1, yp2), (s1, s2), _, _ = _integrate_inward(
        poly, lams, starts, 0j, rtol)
    w = y1 * yp2 - yp1 * y2
    return w, s1 + s2


_FRESH_SAMPLES = 64     # boundary samples of a rectangle wound afresh
_MAX_SAMPLES = 512      # no winding holds more samples


def _boundary_points(r, m):
    """m samples counterclockwise around rectangle r from its corner
    (re_lo, im_lo), m/4 per side, corners included."""
    re0, re1, im0, im1 = r
    per = []
    for k in range(m):
        tpar = 4.0 * k / m
        if tpar < 1:
            per.append(complex(re0 + (re1 - re0) * tpar, im0))
        elif tpar < 2:
            per.append(complex(re1, im0 + (im1 - im0) * (tpar - 1)))
        elif tpar < 3:
            per.append(complex(re1 - (re1 - re0) * (tpar - 2), im1))
        else:
            per.append(complex(re0, im1 - (im1 - im0) * (tpar - 3)))
    return np.array(per)


def _winding(sample, pts, where):
    """Winding number of W around the closed counterclockwise polygon
    ``pts``, with ``sample(lams)`` giving W and s at lams, and the samples
    it ended with.  While a phase jump between neighbours reaches 1.6,
    every segment halves, as long as the doubled count stays within
    _MAX_SAMPLES."""
    w, s = sample(pts)
    while True:
        # a zero on a sample leaves |W e^s| there far below both
        # neighbours, while its phase jumps can stay under the near-pi
        # test below; e^s because raw |W| differs between lanes by the
        # renormalization
        with np.errstate(divide="ignore"):
            logmag = np.log(np.abs(w)) + s
        dip = np.minimum(np.roll(logmag, 1), np.roll(logmag, -1)) - logmag
        k = int(np.argmax(dip))
        if dip[k] > _BOUNDARY_DIP:
            raise NumericalError(
                f"suspected zero on cell boundary {where}: |W e^s| at "
                f"lambda = {pts[k]:.6g} lies e^{dip[k]:.3g} below both "
                "neighbours",
                residuals=[float(dip[k])])
        phases = np.angle(w)
        dphi = np.diff(np.concatenate([phases, phases[:1]]))
        dphi = (dphi + PI) % TWO_PI - PI
        worst = float(np.max(np.abs(dphi)))
        if worst < 1.6 or 2 * len(pts) > _MAX_SAMPLES:
            if worst >= 2.6:
                # a near-pi jump that refinement cannot tame marks a
                # zero sitting on (or next to) the boundary
                raise NumericalError(
                    f"suspected zero on cell boundary {where}: phase "
                    f"jump {worst:.3g} at {len(pts)} samples",
                    residuals=[worst])
            # the wrapped steps around a closed polygon sum to a multiple
            # of 2 pi up to rounding, about len(pts) * 1e-16
            return round(float(np.sum(dphi)) / TWO_PI), pts
        # the midpoints of the segments interleave with the samples so far
        mids = 0.5 * (pts + np.roll(pts, -1))
        w_mid, s_mid = sample(mids)
        pts = np.stack([pts, mids], axis=1).ravel()
        w = np.stack([w, w_mid], axis=1).ravel()
        s = np.stack([s, s_mid], axis=1).ravel()


def _arc(pts, inside):
    """The samples of the closed polygon ``pts`` where ``inside`` holds, in
    their order: one run, since a line cuts a rectangle's boundary twice."""
    first = int(np.flatnonzero(inside & ~np.roll(inside, 1))[0])
    return np.roll(pts, -first)[:int(inside.sum())]


def wronskian_eigenvalue_search(poly: ComplexPolynomial, sector_pair,
                                rect,
                                config: RunConfig = DEFAULT_CONFIG) -> list[complex]:
    """Zeros of the Wronskian of two subdominant solutions inside a
    rectangle, located by argument-principle subdivision and polished by
    pole extraction on log W.

    ``rect`` is (re_lo, re_hi, im_lo, im_hi), finite with re_lo < re_hi
    and im_lo < im_hi; the two sectors must be non-adjacent, otherwise the
    Wronskian has no zeros to find.

    W's samples are kept for the whole search in normalization groups,
    one per ``lam_ref`` (the start points, and so W's normalization,
    follow from it), and no lambda is integrated twice in a group.  A
    rectangle is wound afresh on _FRESH_SAMPLES boundary samples in the
    group of its least-modulus sample, and so is every jittered retry.  A
    child rectangle instead keeps the samples its parent's winding ended
    with on its three outer edges, refined or not, and adds its cut line at
    that final spacing, when the parent's winding passed unjittered and the
    group's |lam_ref| is at least half the child's least sample modulus;
    its sibling shares the cut line.
    """
    re0, re1, im0, im1 = rect
    if not (all(map(math.isfinite, rect)) and re0 < re1 and im0 < im1):
        raise ValueError(f"bad rectangle {tuple(rect)}: need finite "
                         "re_lo < re_hi and im_lo < im_hi")
    j1, j2 = sector_pair
    sectors = stokes_sectors(poly)
    if sectors.are_neighboring_rays(j1, j2):
        raise ValueError("sector pair must be non-adjacent")

    groups = {}   # lam_ref -> {lambda: (W, s)}

    def sample(lams, lam_ref):
        """W and s at lams in the group of lam_ref, integrating only the
        lambdas it lacks; a new group's first batch finds lam_ref itself."""
        group = groups.setdefault(lam_ref, {})
        new = [lam for lam in dict.fromkeys(lams.tolist())
               if lam not in group]
        if new:
            w, s = _wronskian_batch(poly, new, (j1, j2), config, rtol=1e-7,
                                    lam_ref=lam_ref if group else None)
            group.update(zip(new, zip(w.tolist(), s.tolist())))
        w, s = zip(*map(group.__getitem__, lams.tolist()))
        return np.array(w), np.array(s)

    def robust_winding(r, inherited):
        """The winding around r, and r's boundary (final samples, lam_ref
        and their spacing) when its children may keep it: wound
        unjittered."""
        base = max(r[1] - r[0], r[3] - r[2])
        for jit in (0.0, 1.7e-3 * base, 4.3e-3 * base):
            rj = (r[0] - jit, r[1] + jit, r[2] - jit, r[3] + jit)
            if jit == 0.0 and inherited is not None:
                pts, lam_ref, spacing = inherited
            else:
                pts = _boundary_points(rj, _FRESH_SAMPLES)
                lam_ref = complex(pts[np.argmin(np.abs(pts))])
                spacing = tuple(4.0 * (rj[k + 1] - rj[k]) / _FRESH_SAMPLES
                                for k in (0, 2))
            try:
                wn, final = _winding(
                    lambda lams: sample(lams, lam_ref), pts,
                    f"of rectangle {rj} in sectors ({j1}, {j2})")
            except NumericalError as exc:
                last = exc
                continue
            fold = len(final) // len(pts)
            return wn, (None if jit else (
                final, lam_ref, tuple(x / fold for x in spacing)))
        raise NumericalError(f"winding failed on rectangle {r}; last "
                             f"attempt: {last}",
                             residuals=last.residuals) from last

    zeros = []
    stack = [(tuple(rect), None)]
    guard = 0
    while stack:
        guard += 1
        if guard > 400:
            raise NumericalError(
                f"rectangle subdivision budget exceeded in sectors ({j1}, "
                f"{j2}) on rectangle {tuple(rect)}: {len(zeros)} zeros "
                "isolated so far")
        r, inherited = stack.pop()
        wn, boundary = robust_winding(r, inherited)
        if wn == 0:
            continue
        width = r[1] - r[0]
        height = r[3] - r[2]
        if wn == 1 and max(width, height) < 0.5:
            zeros.append(complex(0.5 * (r[0] + r[1]), 0.5 * (r[2] + r[3])))
            continue
        # split slightly off-center so symmetric spectra do not land zeros
        # exactly on the cut line, which runs counterclockwise around the
        # lower child (the left or bottom one)
        if width >= height:
            mid = r[0] + 0.53815 * width
            children = ((r[0], mid, r[2], r[3]), (mid, r[1], r[2], r[3]))
            ends, along, axis = (complex(mid, r[2]), complex(mid, r[3])), \
                np.real, 1
        else:
            mid = r[2] + 0.53815 * height
            children = ((r[0], r[1], r[2], mid), (r[0], r[1], mid, r[3]))
            ends, along, axis = (complex(r[1], mid), complex(r[0], mid)), \
                np.imag, 0
        if boundary is None:
            stack.extend((child, None) for child in children)
            continue
        pts, lam_ref, spacing = boundary
        # a cut as long as the side of the rectangle that set the spacing
        # gets as many segments as that side, despite rounding
        n = math.ceil(abs(ends[1] - ends[0]) / spacing[axis] - 1e-9)
        cut = np.linspace(*ends, max(n, 1) + 1)
        for child, inside, line in ((children[0], along(pts) < mid, cut),
                                    (children[1], along(pts) > mid,
                                     cut[::-1])):
            kept = np.concatenate([_arc(pts, inside), line])
            keep = abs(lam_ref) >= 0.5 * np.abs(kept).min()
            stack.append((child, (kept, lam_ref, spacing) if keep else None))

    # Polish by pole extraction on log W.  The numerically accessible
    # Wronskian is W_true times a normalization prefactor whose log is
    # nearly linear in lambda, so plain Newton on log W is biased.  With
    # u = lam - z and probes at lam + k*delta, k = -2..2, the symmetric
    # second difference kills any linear prefactor and gives |u|:
    #     d2 := l(+1) + l(-1) - 2 l(0) = log(1 - delta^2 / u^2),
    # while T := (l(+2) - l(-2)) - 2 (l(+1) - l(-1)) is drift-free and odd
    # in u, which resolves the sign.  Each log is principal, so a probe
    # whose phase crosses pi shifts t_meas by 2 pi i: compare modulo that.
    if not zeros:
        return []
    lam = np.array(zeros, dtype=complex)
    nz = len(lam)
    u_est = np.full(nz, 0.1) * (1.0 + np.abs(lam))

    def pole_T_miss(u, delta, t_meas):
        """|pole_T(u) - t_meas| with the imaginary part taken mod 2 pi."""
        d = (np.log((u + 2 * delta) / (u - 2 * delta))
             - 2.0 * np.log((u + delta) / (u - delta)) - t_meas)
        return np.hypot(d.real, (d.imag + PI) % TWO_PI - PI)

    for _ in range(20):
        delta = np.clip(0.45 * np.abs(u_est), 1e-7 * (1.0 + np.abs(lam)), 0.15)
        batch = np.concatenate([lam - 2 * delta, lam - delta, lam,
                                lam + delta, lam + 2 * delta])
        w, s = _wronskian_batch(poly, batch, (j1, j2), config, rtol=1e-11)
        logw = np.log(w) + s
        l_m2 = logw[:nz]
        l_m1 = logw[nz:2 * nz]
        l_0 = logw[2 * nz:3 * nz]
        l_p1 = logw[3 * nz:4 * nz]
        l_p2 = logw[4 * nz:]
        d2 = l_p1 + l_m1 - 2.0 * l_0
        # a hugely positive second difference means W(lam) ~ 0: converged
        done = d2.real > 200.0
        d2 = np.where(done, 0.0, d2)
        val = 1.0 - np.exp(d2)
        val = np.where(np.abs(val) < 1e-300, 1e-300, val)
        u = np.where(done, 2.0 * delta, delta / np.sqrt(val))
        t_meas = (l_p2 - l_m2) - 2.0 * (l_p1 - l_m1)
        pick_plus = (pole_T_miss(u, delta, t_meas)
                     <= pole_T_miss(-u, delta, t_meas))
        u = np.where(pick_plus, u, -u)
        u = np.where(done | ~np.isfinite(u), 0.0, u)
        cap = 0.45
        u = np.where(np.abs(u) > cap,
                     u * (cap / np.maximum(np.abs(u), 1e-300)), u)
        new_lam = lam - u
        new_lam = (np.clip(new_lam.real, re0 - 0.05, re1 + 0.05)
                   + 1j * np.clip(new_lam.imag, im0 - 0.05, im1 + 0.05))
        u_est = np.abs(new_lam - lam) + 1e-13 * (1.0 + np.abs(lam))
        lam = new_lam
        residuals = u_est / (1.0 + np.abs(lam))
        if np.max(residuals) < 1e-10:
            break
    else:
        raise NumericalError(f"zero polishing in sectors ({j1}, {j2}) did "
                             "not converge in 20 iterations",
                             residuals=[float(r) for r in residuals])
    out = []
    for z in lam:
        z = complex(z)
        if not any(abs(z - prev) < 1e-6 * (1.0 + abs(z)) for prev in out):
            out.append(z)
    out.sort(key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    return out
