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
from .errors import ClearanceError, NumericalError
from .geodesics import GeodesicSurvey, ShortGeodesic, survey_short_geodesics
from .pathint import (alpha_contour_integrals, build_stadium, contour_integral,
                      min_clearance, winding_number)
from .polynomial import ComplexPolynomial, PolyContext, stokes_sectors
from .tracer import _A, _B4, _B5, _C

TWO_PI = 2.0 * math.pi


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


@dataclass(frozen=True)
class SubdominantSolution:
    """Solution decaying in one Stokes sector, integrated inward to a
    matching point.  ``value`` and ``derivative`` carry the common factor
    exp(logscale)."""

    sector: int
    lam: complex
    start: complex
    match_point: complex
    value: complex
    derivative: complex
    logscale: float
    decay_samples: tuple[float, ...]
    steps: int


def _loop_contour(poly, geodesic: ShortGeodesic, config: RunConfig):
    """Stadium around the geodesic enclosing only its two endpoints.

    The clearance starts generous (quadrature of the correction densities
    degrades sharply when the contour hugs the square-root singularities)
    and shrinks toward 3 delta_path until no other turning point is
    enclosed or approached."""
    ctx = PolyContext.of(poly, config)
    locs = ctx.locs
    scales = ctx.scales
    a, b = geodesic.pair
    others = [r for k, r in enumerate(locs) if k not in (a, b)]
    room = scales.d_unit
    if others:
        room = min_clearance(list(geodesic.polyline), others)
    clearance = max(3.0 * scales.delta_path, min(0.35 * scales.d_unit,
                                                 0.45 * room))
    for _ in range(6):
        contour = build_stadium(geodesic.polyline, clearance)
        windings = [winding_number(contour, r) for r in locs]
        enclosed_ok = all(
            abs(windings[k]) == (1 if k in (a, b) else 0)
            for k in range(len(locs)))
        clear_ok = all(
            min(abs(v - r) for v in contour) >= 0.9 * scales.delta_path
            for k, r in enumerate(locs) if k not in (a, b))
        if enclosed_ok and clear_ok:
            return contour
        clearance = max(0.5 * clearance, 2.9 * scales.delta_path)
    raise ClearanceError(
        f"could not build a loop contour around pair {geodesic.pair}")


def accumulation_rays(poly: ComplexPolynomial,
                      config: RunConfig = DEFAULT_CONFIG,
                      survey: GeodesicSurvey | None = None) -> list[AccumulationRay]:
    """One ray per verified short geodesic; the ray angle is the geodesic's
    connection angle and the loop period is the integral of sqrt(P) around
    a stadium contour enclosing only the two endpoints."""
    if survey is None:
        survey = survey_short_geodesics(poly, config)
    rays = []
    for geo in survey.geodesics:
        contour = _loop_contour(poly, geo, config)
        loop = contour_integral(poly, contour, lambda z, w: w,
                                rel_tol=config.quad_rel_tol)
        rays.append(AccumulationRay(angle=geo.t_star, geodesic=geo,
                                    loop_period=loop,
                                    contour=tuple(contour)))
    rays.sort(key=lambda r: r.angle)
    return rays


def eigenvalue_asymptotics(poly: ComplexPolynomial, ray: AccumulationRay,
                           n_min: int, n_max: int, order: int = 0,
                           config: RunConfig = DEFAULT_CONFIG) -> list[EigenvalueEstimate]:
    """Eigenvalue estimates along one accumulation ray by fixed-point
    iteration of the quantization relation, to ``order`` correction terms."""
    if order < 0:
        raise ValueError("order must be >= 0")
    L = ray.loop_period
    corrections = []
    if order > 0:
        alphas = alpha_contour_integrals(poly, ray.contour, order, config)
        corrections = list(alphas[1:order + 1])

    lead = 1j * (TWO_PI * n_min + math.pi) / L
    if (lead * cmath.exp(-1j * ray.angle)).real <= 0.0:
        L = -L
        corrections = [(-c if j % 2 == 1 else c)
                       for j, c in enumerate(corrections, start=1)]

    lam0_min = abs(1j * (TWO_PI * n_min + math.pi) / L)
    if lam0_min < config.lambda_min_modulus:
        raise ValueError(
            f"n_min={n_min} gives |lambda| = {lam0_min:.3g} below the "
            f"configured threshold {config.lambda_min_modulus}")

    out = []
    for n in range(n_min, n_max + 1):
        rhs0 = TWO_PI * n + math.pi
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
    """Decaying-branch WKB data at z0: returns (y0', sqrtQ) per lambda with
    y0 normalized to 1."""
    p0 = poly.evaluate(z0)
    dp0 = poly.derivative().evaluate(z0) if poly.degree >= 1 else 0j
    sq = np.sqrt(lams * lams * p0)
    # decaying outward along arg z0: Re(sqrtQ * e^{i arg z0}) > 0
    phase = z0 / abs(z0)
    flip = (sq * phase).real < 0
    sq = np.where(flip, -sq, sq)
    yp = -sq - dp0 / (4.0 * p0)
    return yp, sq


def _integrate_inward(poly, lams, z0, z1, rtol):
    """Batched integration of y'' = lambda^2 P y from z0 to z1 along the
    straight segment, with projective renormalization.  Returns
    (y, dy/dz, logscale, steps)."""
    lams = np.asarray(lams, dtype=complex)
    n = lams.shape[0]
    dz = z1 - z0
    lam2dz2 = lams * lams * (dz * dz)

    def rhs(tau, state):
        z = z0 + tau * dz
        p = poly.evaluate(z)
        out = np.empty_like(state)
        out[:, 0] = state[:, 1]
        out[:, 1] = lam2dz2 * p * state[:, 0]
        return out

    state = np.empty((n, 2), dtype=complex)
    state[:, 0] = 1.0
    yp0, _ = _wkb_start(poly, lams, z0)
    state[:, 1] = yp0 * dz
    logscale = np.zeros(n)
    decay = [np.zeros(n)]

    tau = 0.0
    h = 1e-4
    steps = 0
    k1 = rhs(tau, state)
    while tau < 1.0 - 1e-13:
        h = min(h, 1.0 - tau)
        ks = [k1]
        for i in range(1, 6):
            acc = state + h * sum(a * k for a, k in zip(_A[i], ks))
            ks.append(rhs(tau + _C[i] * h, acc))
        y5 = state + h * sum(b * k for b, k in zip(_B5, ks))
        k7 = rhs(tau + h, y5)
        ks.append(k7)
        y4 = state + h * sum(b * k for b, k in zip(_B4, ks))
        scale = np.abs(y5[:, 0]) + np.abs(y5[:, 1]) + 1e-300
        err = np.max((np.abs(y5[:, 0] - y4[:, 0])
                      + np.abs(y5[:, 1] - y4[:, 1])) / scale)
        if not math.isfinite(err):
            if h <= 1e-12:
                raise NumericalError("non-finite state in subdominant "
                                     "integration")
            h *= 0.25
            continue
        if err <= rtol or h <= 1e-13:
            tau += h
            state = y5
            k1 = k7
            steps += 1
            mag = np.abs(state[:, 0]) + np.abs(state[:, 1])
            big = (mag > 1e100) | (mag < 1e-100)
            if np.any(big):
                f = np.where(big, mag, 1.0)
                state = state / f[:, None]
                k1 = k1 / f[:, None]
                logscale += np.log(f)
            if steps % 8 == 0:
                decay.append(logscale + np.log(np.abs(state[:, 0]) + 1e-300))
            if steps > 120000:
                raise NumericalError("subdominant integration stalled")
        factor = 0.9 * (rtol / max(err, 1e-300)) ** 0.2
        h = h * min(4.0, max(0.25, factor))
    decay.append(logscale + np.log(np.abs(state[:, 0]) + 1e-300))
    return state[:, 0], state[:, 1] / dz, logscale, steps, decay


_DECAY_EFOLDS = 18.0   # suppresses dominant-solution contamination to ~1e-16


def _sector_ray(poly, sector_index: int, lam_ref: complex, scale: float,
                config: RunConfig):
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


def subdominant_solution(poly: ComplexPolynomial, lam: complex,
                         sector_index: int, radius: float | None = None,
                         match_point: complex = 0j,
                         config: RunConfig = DEFAULT_CONFIG) -> SubdominantSolution:
    """Construct the solution subdominant in one Stokes sector of
    lambda^2 P and integrate it inward to the matching point."""
    scale = 1.0 + PolyContext.of(poly, config).scales.max_modulus
    z0 = _sector_ray(poly, sector_index, lam, scale, config)
    if radius is not None:
        z0 = z0 / abs(z0) * radius
    lams = np.array([lam], dtype=complex)
    y, yp, logscale, steps, decay = _integrate_inward(
        poly, lams, z0, complex(match_point), config.ode_rel_tol)
    samples = tuple(float(dv[0]) for dv in decay)
    return SubdominantSolution(sector=sector_index, lam=lam, start=z0,
                               match_point=complex(match_point),
                               value=complex(y[0]),
                               derivative=complex(yp[0]),
                               logscale=float(logscale[0]),
                               decay_samples=samples, steps=steps)


def _wronskian_batch(poly, lams, sectors, match_point, config, rtol=None):
    """Scaled Wronskian of the two subdominant solutions at the matching
    point; the dropped factor exp(s1+s2) is real positive, so zeros and
    phase winding are unaffected."""
    lams = np.asarray(lams, dtype=complex)
    scale = 1.0 + PolyContext.of(poly, config).scales.max_modulus
    lam_ref = lams[np.argmin(np.abs(lams))]
    if rtol is None:
        rtol = config.ode_rel_tol
    vals = []
    for sector in sectors:
        z0 = _sector_ray(poly, sector, lam_ref, scale, config)
        y, yp, logscale, _, _ = _integrate_inward(
            poly, lams, z0, complex(match_point), rtol)
        vals.append((y, yp, logscale))
    (y1, yp1, s1), (y2, yp2, s2) = vals
    w = y1 * yp2 - yp1 * y2
    return w, s1 + s2


def wronskian_eigenvalue_search(poly: ComplexPolynomial, sector_pair,
                                rect, n_boundary: int = 64,
                                match_point: complex = 0j,
                                config: RunConfig = DEFAULT_CONFIG) -> list[complex]:
    """Zeros of the Wronskian of two subdominant solutions inside a
    rectangle, located by argument-principle subdivision and polished by
    Newton iteration.

    ``rect`` is (re_lo, re_hi, im_lo, im_hi); the two sectors must be
    non-adjacent, otherwise the Wronskian has no zeros to find.
    """
    j1, j2 = sector_pair
    sectors = stokes_sectors(poly)
    if sectors.are_neighboring_rays(j1, j2):
        raise ValueError("sector pair must be non-adjacent")

    def wvals(lams, rtol=None):
        w, _ = _wronskian_batch(poly, lams, (j1, j2), match_point, config,
                                rtol=rtol)
        return w

    def boundary_points(r, m):
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
        return per

    def winding(r, jitter=0.0):
        r = (r[0] - jitter, r[1] + jitter, r[2] - jitter, r[3] + jitter)
        m = n_boundary
        while True:
            pts = boundary_points(r, m)
            phases = np.angle(wvals(np.array(pts), rtol=1e-7))
            dphi = np.diff(np.concatenate([phases, phases[:1]]))
            dphi = (dphi + math.pi) % TWO_PI - math.pi
            worst = float(np.max(np.abs(dphi)))
            if worst < 1.6 or m >= 8 * n_boundary:
                if worst >= 2.6:
                    # a near-pi jump that refinement cannot tame marks a
                    # zero sitting on (or next to) the boundary
                    raise NumericalError("suspected zero on cell boundary")
                total = float(np.sum(dphi))
                wn = total / TWO_PI
                if abs(wn - round(wn)) > 0.25:
                    raise NumericalError(f"inconsistent winding {wn:.3f}")
                return int(round(wn))
            m *= 2

    def robust_winding(r):
        base = max(r[1] - r[0], r[3] - r[2])
        for jit in (0.0, 1.7e-3 * base, 4.3e-3 * base):
            try:
                return winding(r, jitter=jit)
            except NumericalError:
                continue
        raise NumericalError(f"winding failed on rectangle {r}")

    zeros = []
    stack = [tuple(rect)]
    guard = 0
    while stack:
        guard += 1
        if guard > 400:
            raise NumericalError("rectangle subdivision budget exceeded")
        r = stack.pop()
        wn = robust_winding(r)
        if wn == 0:
            continue
        width = r[1] - r[0]
        height = r[3] - r[2]
        if wn == 1 and max(width, height) < 0.5:
            zeros.append(complex(0.5 * (r[0] + r[1]), 0.5 * (r[2] + r[3])))
            continue
        # split slightly off-center so symmetric spectra do not land zeros
        # exactly on the cut line
        if width >= height:
            mid = r[0] + 0.53815 * width
            stack.append((r[0], mid, r[2], r[3]))
            stack.append((mid, r[1], r[2], r[3]))
        else:
            mid = r[2] + 0.53815 * height
            stack.append((r[0], r[1], r[2], mid))
            stack.append((r[0], r[1], mid, r[3]))

    # Polish by pole extraction on log W.  The numerically accessible
    # Wronskian is W_true times a normalization prefactor whose log is
    # nearly linear in lambda, so plain Newton on log W is biased.  With
    # u = lam - z and probes at lam + k*delta, k = -2..2, the symmetric
    # second difference kills any linear prefactor and gives |u|:
    #     d2 := l(+1) + l(-1) - 2 l(0) = log(1 - delta^2 / u^2),
    # while T := (l(+2) - l(-2)) - 2 (l(+1) - l(-1)) is drift-free and odd
    # in u, which resolves the sign.
    if not zeros:
        return []
    lam = np.array(zeros, dtype=complex)
    nz = len(lam)
    u_est = np.full(nz, 0.1) * (1.0 + np.abs(lam))
    re0, re1, im0, im1 = rect

    def pole_T(u, delta):
        return (np.log((u + 2 * delta) / (u - 2 * delta))
                - 2.0 * np.log((u + delta) / (u - delta)))

    for it in range(20):
        delta = np.clip(0.45 * np.abs(u_est), 1e-7 * (1.0 + np.abs(lam)), 0.15)
        batch = np.concatenate([lam - 2 * delta, lam - delta, lam,
                                lam + delta, lam + 2 * delta])
        w, s = _wronskian_batch(poly, batch, (j1, j2), match_point, config,
                                rtol=1e-11)
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
        pick_plus = (np.abs(pole_T(u, delta) - t_meas)
                     <= np.abs(pole_T(-u, delta) - t_meas))
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
        if np.max(u_est / (1.0 + np.abs(lam))) < 1e-10:
            break
    out = []
    for z in lam:
        z = complex(z)
        if not any(abs(z - prev) < 1e-6 * (1.0 + abs(z)) for prev in out):
            out.append(z)
    out.sort(key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    return out
