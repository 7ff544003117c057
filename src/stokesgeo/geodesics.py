"""Short geodesics of P(z) dz^2 via the rotation family.

A finite Stokes line of e^{2it} P between turning points a, b forces the
period w_ab = int_a^b sqrt(P) to satisfy Re(e^{it} w_ab) = 0, i.e.
t = pi/2 - arg(w_ab) mod pi.  Candidates are generated from pairwise
periods and verified by tracing.  Misses are refined by bisection on the
discrete fate of a fixed emanating trajectory: the fate is piecewise
constant in t and jumps exactly where that trajectory runs into a root,
so a connection angle is the center of the small t-window over which the
trace registers a hit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .config import DEFAULT_CONFIG, RunConfig
from .errors import NonGenericError
from .pathint import (_integrate_root_to_root, _normalize_period_sign,
                      pairwise_periods, period_for_pair)
from .polynomial import (ComplexPolynomial, PolyContext, turning_points,
                         wrap_angle, wrap_positive)
from .tracer import (EscapedToRay, HitTurningPoint, emanating_directions,
                     trace_stokes_line)

PI = math.pi


@dataclass(frozen=True)
class ShortGeodesic:
    """A verified finite Stokes line of P_t between two turning points."""

    pair: tuple[int, int]
    t_star: float
    period: complex
    polyline: tuple[complex, ...]
    verified: bool = True


@dataclass(frozen=True)
class GeodesicRefutation:
    pair: tuple[int, int]
    t_candidate: float
    reason: str            # "no_transition" | "blocked" | "loop" | "unresolved"
    flanking: tuple[str, ...] = ()
    transition_t: float | None = None
    blocking_root: int | None = None


@dataclass
class GeodesicSurvey:
    geodesics: list[ShortGeodesic] = field(default_factory=list)
    refutations: list[GeodesicRefutation] = field(default_factory=list)
    errors: list[tuple[tuple[int, int], str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def candidate_angles(poly: ComplexPolynomial,
                     config: RunConfig = DEFAULT_CONFIG):
    """(pair, t, period) for every unordered pair of turning points,
    t = pi/2 - arg(w_ab) reduced mod pi."""
    out = []
    for per in pairwise_periods(poly, config):
        t = wrap_positive(PI / 2 - cmath.phase(per.value), PI)
        out.append((per.pair, t, per))
    out.sort(key=lambda item: (item[1], item[0]))
    return out


def _fate_signature(fate):
    if isinstance(fate, HitTurningPoint):
        return ("hit", fate.target)
    if isinstance(fate, EscapedToRay):
        return ("ray", fate.ray)
    return ("trunc",)


class _VerifyContext:
    """Probe and trace helpers for verifying connections of one
    polynomial; the root set is shared across the whole rotation family."""

    def __init__(self, poly: ComplexPolynomial, config: RunConfig):
        self.ctx = PolyContext.of(poly, config)
        # probes detect passes in a widened ball; connection angles are
        # recovered as hit-window centers, so the width only sets the
        # bracket size, not the final accuracy
        self.wide_radius = min(100.0 * self.ctx.scales.delta_hit,
                               0.05 * self.ctx.min_separation)

    def directions(self, rot: PolyContext, root_index: int):
        return emanating_directions(rot.poly, rot.locs[root_index],
                                    rot.mults[root_index])

    def best_direction(self, t: float, pair) -> float:
        """Launch angle at reference angle t best aligned with the partner."""
        a, b = pair
        locs = self.ctx.locs
        target = cmath.phase(locs[b] - locs[a])
        dirs = self.directions(self.ctx.rotate(t), a)
        k = min(range(len(dirs)),
                key=lambda m: abs(wrap_angle(dirs[m] - target)))
        return dirs[k]

    def probe(self, pair, t: float, theta_ref: float, t_ref: float,
              tol_shrink: float = 1.0):
        """Fate of the trajectory from pair[0] whose launch direction is the
        continuous rotation of theta_ref: the frame of emanating directions
        turns by -2 dt/(m+2), so following one fixed member avoids spurious
        index relabeling when arg of the local coefficient wraps."""
        a = pair[0]
        theta = theta_ref - 2.0 * (t - t_ref) / (self.ctx.mults[a] + 2)
        rot = self.ctx.rotate(t)
        _, fate = trace_stokes_line(rot.poly, a, theta,
                                    config=rot.config, context=rot,
                                    track_drift=False, tol_shrink=tol_shrink,
                                    hit_radius=self.wide_radius)
        return _fate_signature(fate)

    def trace_all(self, pair, t: float, track_drift: bool,
                  hit_radius: float | None = None):
        rot = self.ctx.rotate(t)
        return [trace_stokes_line(rot.poly, pair[0], theta,
                                  config=rot.config, context=rot,
                                  track_drift=track_drift,
                                  hit_radius=hit_radius)
                for theta in self.directions(rot, pair[0])]


def _geodesic_period(ctx: PolyContext, pair, polyline) -> complex:
    """Branch-tracked integral of sqrt(P) along the verified polyline for
    the unrotated potential, sign-normalized like pairwise periods."""
    value, seed = _integrate_root_to_root(ctx.poly, ctx.locs, ctx.mults,
                                          list(polyline), *pair,
                                          ctx.config.quad_rel_tol)
    value, _ = _normalize_period_sign(value, seed)
    return value


def _accept(vc: _VerifyContext, pair, t: float) -> ShortGeodesic | None:
    """Output-quality re-trace at angle t; geodesic if a trajectory from
    pair[0] hits pair[1] within the strict hit radius."""
    b = pair[1]
    for pl, fate in vc.trace_all(pair, t, track_drift=True):
        if isinstance(fate, HitTurningPoint) and fate.target == b:
            return ShortGeodesic(pair=pair, t_star=wrap_positive(t, PI),
                                 period=_geodesic_period(vc.ctx, pair, pl),
                                 polyline=tuple(pl))
    return None


def _bisect_signature(vc, pair, theta_ref, t_ref, lo, hi, sig_lo, sig_hi,
                      max_steps):
    """Shrink [lo, hi] with sig(lo) != sig(hi); returns refined bracket."""
    for _ in range(max_steps):
        mid = 0.5 * (lo + hi)
        shrink = 1e-3 if (hi - lo) < 1e-6 else 1.0
        s_mid = vc.probe(pair, mid, theta_ref, t_ref, tol_shrink=shrink)
        if s_mid == sig_lo:
            lo = mid
        else:
            hi, sig_hi = mid, s_mid
        if hi - lo < 1e-13:
            break
    return lo, hi, sig_lo, sig_hi


def _hit_window_center(vc, pair, theta_ref, t_ref, edge, hit_sig, forward):
    """The bisection converges onto one edge of the t-window over which the
    probe registers a hit; the connection angle is the window center.  Walk
    into the window from ``edge``, find the far edge, return the center."""
    sgn = 1.0 if forward else -1.0

    def inside(tv):
        shrink = 1e-3 if abs(tv - edge) < 1e-6 else 1.0
        return vc.probe(pair, tv, theta_ref, t_ref, tol_shrink=shrink) == hit_sig

    t_in = None
    step = 1e-8
    while step <= vc.ctx.config.eps_t:
        if inside(edge + sgn * step):
            t_in = edge + sgn * step
            break
        step *= 2.0
    if t_in is None:
        return None
    t_out = None
    while step <= 4.0 * vc.ctx.config.eps_t_max:
        step *= 2.0
        cand = edge + sgn * step
        if inside(cand):
            t_in = cand
        else:
            t_out = cand
            break
    if t_out is None:
        return None
    for _ in range(vc.ctx.config.bisect_max):
        mid = 0.5 * (t_in + t_out)
        if inside(mid):
            t_in = mid
        else:
            t_out = mid
        if abs(t_out - t_in) < 1e-13:
            break
    other_edge = 0.5 * (t_in + t_out)
    return 0.5 * (edge + other_edge)


def verify_geodesic(poly: ComplexPolynomial, pair, t: float,
                    config: RunConfig = DEFAULT_CONFIG):
    """Verify or refute a candidate connection angle for one root pair.

    A trace at t that reaches the partner verifies immediately.  Otherwise
    the angle is refined by bisection on the fate transition of a fixed
    emanating trajectory inside a widening bracket; a connection found at
    an angle far from t refutes the candidate but is recorded in
    ``transition_t``.

    Raises NonGenericError when a trace at the queried angle lands on a
    third turning point (a simultaneous connection at this t).
    """
    pair = (min(pair), max(pair))
    a, b = pair
    vc = _VerifyContext(poly, config)
    delta_hit = vc.ctx.scales.delta_hit

    hit_third = None
    hit_loop = False
    hit_b_wide = False
    for pl, fate in vc.trace_all(pair, t, track_drift=False,
                                 hit_radius=vc.wide_radius):
        if isinstance(fate, HitTurningPoint):
            if fate.target == b:
                hit_b_wide = True
            elif fate.target == a:
                hit_loop = hit_loop or fate.final_distance <= delta_hit
            elif fate.final_distance <= delta_hit:
                hit_third = fate.target
    if hit_b_wide:
        geo = _accept(vc, pair, t)
        if geo is not None:
            return geo
    if hit_third is not None:
        raise NonGenericError(
            f"trace from root {a} at t={t:.6f} hits third root {hit_third}")
    if hit_loop:
        return GeodesicRefutation(pair=pair, t_candidate=t, reason="loop",
                                  blocking_root=a)

    theta_ref = vc.best_direction(t, pair)
    sig_mid = vc.probe(pair, t, theta_ref, t)

    eps = config.eps_t
    bracket = None
    while bracket is None:
        s_lo = vc.probe(pair, t - eps, theta_ref, t)
        s_hi = vc.probe(pair, t + eps, theta_ref, t)
        if s_lo != sig_mid:
            bracket = (t - eps, t, s_lo, sig_mid)
        elif s_hi != sig_mid:
            bracket = (t, t + eps, sig_mid, s_hi)
        elif eps >= config.eps_t_max:
            return GeodesicRefutation(pair=pair, t_candidate=t,
                                      reason="no_transition",
                                      flanking=(str(s_lo), str(s_hi)))
        else:
            eps = min(4.0 * eps, config.eps_t_max)

    lo, hi, sig_lo, sig_hi = _bisect_signature(vc, pair, theta_ref, t,
                                               *bracket,
                                               max_steps=config.bisect_max)
    edge = 0.5 * (lo + hi)
    t_hat = edge
    if sig_hi[0] == "hit":
        centered = _hit_window_center(vc, pair, theta_ref, t, edge, sig_hi,
                                      forward=True)
        if centered is not None:
            t_hat = centered
    elif sig_lo[0] == "hit":
        centered = _hit_window_center(vc, pair, theta_ref, t, edge, sig_lo,
                                      forward=False)
        if centered is not None:
            t_hat = centered

    for pl, fate in vc.trace_all(pair, t_hat, track_drift=False,
                                 hit_radius=vc.wide_radius):
        if isinstance(fate, HitTurningPoint):
            if fate.target == b:
                if abs(wrap_angle(t_hat - t, PI)) <= config.eps_t:
                    geo = _accept(vc, pair, t_hat)
                    if geo is not None:
                        return geo
                return GeodesicRefutation(
                    pair=pair, t_candidate=t, reason="transition_elsewhere",
                    flanking=(str(sig_lo), str(sig_hi)),
                    transition_t=wrap_positive(t_hat, PI))
            if fate.target != a:
                return GeodesicRefutation(
                    pair=pair, t_candidate=t, reason="blocked",
                    flanking=(str(sig_lo), str(sig_hi)),
                    transition_t=wrap_positive(t_hat, PI),
                    blocking_root=fate.target)
    return GeodesicRefutation(pair=pair, t_candidate=t, reason="unresolved",
                              flanking=(str(sig_lo), str(sig_hi)),
                              transition_t=wrap_positive(t_hat, PI))


def survey_short_geodesics(poly: ComplexPolynomial,
                           config: RunConfig = DEFAULT_CONFIG) -> GeodesicSurvey:
    """Candidate generation plus verification over all pairs.

    At most one geodesic is reported per pair.  When fewer than d-1
    geodesics verify (the connectivity lower bound), refuted pairs are
    retried with opposite-side detour periods, which targets connections
    whose path class differs from the default detour choice.
    """
    tps = turning_points(poly, config.root_tol)
    if not tps.all_simple:
        raise NonGenericError("short-geodesic enumeration needs simple roots")
    d = poly.degree
    survey = GeodesicSurvey()
    if len(tps.points) < 2:
        return survey          # a single turning point connects nothing
    found_pairs = set()

    def handle(pair, t_cand):
        try:
            res = verify_geodesic(poly, pair, t_cand, config)
        except NonGenericError as exc:
            survey.errors.append((pair, str(exc)))
            return
        if isinstance(res, ShortGeodesic):
            if res.pair not in found_pairs:
                found_pairs.add(res.pair)
                survey.geodesics.append(res)
            return
        if res.reason == "transition_elsewhere" and res.transition_t is not None:
            try:
                retry = verify_geodesic(poly, pair, res.transition_t, config)
            except NonGenericError as exc:
                survey.errors.append((pair, str(exc)))
                return
            if isinstance(retry, ShortGeodesic) and retry.pair not in found_pairs:
                found_pairs.add(retry.pair)
                survey.geodesics.append(retry)
                return
        survey.refutations.append(res)

    for pair, t_cand, _per in candidate_angles(poly, config):
        if pair in found_pairs:
            continue
        handle(pair, t_cand)

    if len(survey.geodesics) < d - 1:
        for ref in list(survey.refutations):
            if ref.pair in found_pairs:
                continue
            per = period_for_pair(poly, *ref.pair, config=config,
                                  flip_side=True)
            t_cand = wrap_positive(PI / 2 - cmath.phase(per.value), PI)
            if abs(wrap_angle(t_cand - ref.t_candidate, PI)) > 1e-9:
                handle(ref.pair, t_cand)

    survey.geodesics.sort(key=lambda g: (g.t_star, g.pair))
    seen_t: dict[float, tuple[int, int]] = {}
    for g in survey.geodesics:
        for t_other, pair_other in seen_t.items():
            if abs(wrap_angle(g.t_star - t_other, PI)) < 1e-9:
                survey.warnings.append(
                    f"simultaneous connections at t={g.t_star:.9f}: "
                    f"pairs {pair_other} and {g.pair}")
        seen_t[g.t_star] = g.pair
    return survey


def enumerate_short_geodesics(poly: ComplexPolynomial,
                              config: RunConfig = DEFAULT_CONFIG) -> list[ShortGeodesic]:
    return survey_short_geodesics(poly, config).geodesics


def count_short_geodesics(poly: ComplexPolynomial,
                          config: RunConfig = DEFAULT_CONFIG) -> int:
    return len(enumerate_short_geodesics(poly, config))


# --- Teichmueller defect -------------------------------------------------------

@dataclass(frozen=True)
class PsiPolygon:
    """A closed curve of finite geodesics: boundary vertices carry the
    singularity order n_j and interior angle theta_j; ``interior`` lists
    the orders of singular points enclosed by the polygon."""

    vertices: tuple[tuple[int, float], ...]
    interior: tuple[int, ...] = ()

    def __post_init__(self):
        for n, theta in self.vertices:
            if n < -1:
                raise ValueError("vertex order must be >= -1")
            if not (0.0 <= theta <= 2.0 * PI):
                raise ValueError("interior angles must lie in [0, 2*pi]")


def teichmuller_defect(polygon: PsiPolygon) -> float:
    """sum_j (1 - (n_j + 2) theta_j / (2 pi)) - (2 + sum_i n_i).

    Zero for genuine polygons of a quadratic differential; a negative
    value certifies that no such polygon exists.
    """
    lhs = sum(1.0 - (n + 2) * theta / (2.0 * PI) for n, theta in polygon.vertices)
    rhs = 2.0 + sum(polygon.interior)
    return lhs - rhs
