"""Short geodesics of P(z) dz^2 via the rotation family.

A finite Stokes line of e^{2it} P between turning points a, b forces the
period w_ab = int_a^b sqrt(P) to satisfy Re(e^{it} w_ab) = 0, i.e.
t = pi/2 - arg(w_ab) mod pi.

The survey counts the connections by algebra.  At a generic angle t0 the
Stokes graph of e^{2it0} P cuts the plane into d-1 strips, each holding
one saddle class gamma_s from the root on one side to the root on the
other, with period Z_s across the face taken so that Re Z_s > 0.  These
classes are a basis of the lattice of saddle classes, and the strips'
chords triangulate the (d+2)-gon of Stokes rays, which defines the
exchange matrix B.  Turning t from t0 through pi turns every period by
e^{i(t - t0)}; each time a basis class turns vertical, its strip flips:
the class leaves with exit time T = pi/2 - arg Z, the basis mutates
(gamma_k -> -gamma_k, gamma_j -> gamma_j + [-B_jk]_+ gamma_k) and so does
B.  The classes that leave over the half-turn are the short geodesics,
each once, at t* = t0 + T (the mutation method for the BPS spectra of the
A_{d-1} theories, Alim-Cecotti-Cordova-Espahbodi-Rastogi-Vafa,
arXiv:1112.3984; strip decompositions as in Bridgeland-Smith,
arXiv:1302.7030).  The decomposition and the walk are
``domains.strip_basis`` and ``domains.mutation_walk``, which the chord
diagrams share.  A class's pair is the two roots of odd degree in its
support on the strip tree, and its period is e^{-it0} sum_s n_s Z_s over
its coefficients n_s.  Each is then traced once at its pair's candidate
angle, which is the output geodesic.

No trajectory from a simple zero returns to it: the Teichmueller defect
of such a monogon is 1 - 3 theta/(2 pi) - 2 < 0.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property

from .config import DEFAULT_CONFIG, RunConfig
from .domains import mutation_walk, strip_basis
from .errors import ClearanceError, NonGenericError, NumericalError, in_context
from .pathint import pairwise_periods, period_sign_flips
from .polynomial import (PI, TWO_PI, ComplexPolynomial, PolyContext,
                         turning_points, wrap_angle, wrap_positive)
from .tracer import (HitTurningPoint, emanating_directions, land_polyline,
                     trace_stokes_line)

# strip decompositions tried, at the widest gaps between candidate angles
START_ATTEMPTS = 3


@dataclass(frozen=True)
class ShortGeodesic:
    """A verified finite Stokes line of P_t between two turning points.
    ``vertices`` are its trace's (``trace_stokes_line``); ``polyline``
    adds the rungs at either root, landed from ``landing`` on first read
    (``tracer.land_polyline``)."""

    pair: tuple[int, int]
    t_star: float
    period: complex
    vertices: tuple[complex, ...]
    landing: tuple | None = field(default=None, compare=False, repr=False)

    @cached_property
    def polyline(self) -> tuple[complex, ...]:
        return land_polyline(self.vertices, self.landing)


@dataclass
class GeodesicSurvey:
    geodesics: list[ShortGeodesic] = field(default_factory=list)
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


def verify_geodesic(poly: ComplexPolynomial, pair, t: float, period: complex,
                    config: RunConfig = DEFAULT_CONFIG) -> ShortGeodesic | None:
    """Trace the Stokes lines of e^{2it} P from the lower root of ``pair``,
    stopping at the first that hits the other: that line is the geodesic,
    with ``period`` (its class's; the polyline is not integrated).  None
    when no line hits it.  The directions are tried nearest arg(b - a)
    first, so the line that hits b is usually the first traced.

    Raises NonGenericError when no line hits the partner but one lands on
    a third turning point (a simultaneous connection at this t); it names
    the third root of the last such direction in emanating order.
    """
    a, b = pair = (min(pair), max(pair))
    rot = PolyContext.of(poly, config).rotate(t)
    towards = cmath.phase(rot.locs[b] - rot.locs[a])
    dirs = emanating_directions(rot.poly, rot.locs[a], rot.mults[a])
    third = {}
    for k in sorted(range(len(dirs)),
                    key=lambda k: abs(wrap_angle(dirs[k] - towards))):
        pl, fate = trace_stokes_line(rot, a, dirs[k])
        if isinstance(fate, HitTurningPoint):
            if fate.target == b:
                return ShortGeodesic(pair=pair, t_star=wrap_positive(t, PI),
                                     period=period, vertices=tuple(pl),
                                     landing=(rot, a, dirs[k], fate))
            if fate.target != a:
                third[k] = fate.target
    if third:
        raise NonGenericError(
            f"trace from root {a} at t={t:.6f} hits third root "
            f"{third[max(third)]}")
    return None


def _start_angles(angles):
    """Midpoints of the gaps between the distinct angles mod pi, widest
    gap first; angles within 1e-9 of each other count as one, and gaps
    whose widths round alike to 1e-9 keep ascending order, so rounding
    does not pick among the equal gaps of a symmetric potential."""
    distinct = []
    for t in sorted(angles):
        if not distinct or t - distinct[-1] > 1e-9:
            distinct.append(t)
    if len(distinct) > 1 and distinct[0] + PI - distinct[-1] <= 1e-9:
        distinct.pop()
    ends = distinct[1:] + [distinct[0] + PI]
    gaps = sorted(((hi - lo, lo) for lo, hi in zip(distinct, ends)),
                  key=lambda g: -round(g[0], 9))
    return [wrap_positive(lo + 0.5 * width, PI) for width, lo in gaps]


def _half_turn(periods, B, t0: float):
    """(T, class) for each basis class that leaves over a half-turn from
    t0, in order of exit time T; a class is an integer vector over the
    starting strips.  The walk must end on the negated start basis."""
    states, basis = mutation_walk(periods, B, PI)
    m = len(periods)
    if sorted(basis) != sorted(tuple(-int(i == k) for i in range(m))
                               for k in range(m)):
        raise NumericalError(
            f"mutation walk from t0={t0:.12f} ends on basis {basis}, not "
            "the negated start basis")
    return [(T, n) for T, _, n in states]


def _class_pair(sides, n):
    """The two roots of odd degree in the support of class n on the strip
    tree."""
    odd = set()
    for side, c in zip(sides, n):
        if c % 2:
            odd ^= set(side)
    if len(odd) != 2:
        raise NumericalError(f"class {n} has odd-degree roots {sorted(odd)}")
    return tuple(sorted(odd))


def survey_short_geodesics(poly: ComplexPolynomial,
                           config: RunConfig = DEFAULT_CONFIG) -> GeodesicSurvey:
    """All short geodesics, from the mutation walk of one strip
    decomposition, each traced once.

    The decomposition is taken at the midpoint t0 of the widest gap
    between candidate angles, and at the next-widest gaps while it is not
    generic (other than d-1 strips, a strip side with other than one root,
    no interior crossing of a strip); NonGenericError after
    START_ATTEMPTS.  Each class of the walk is traced at its pair's
    candidate angle, or at its t* when the two differ by more than 1e-9.
    A trace that misses the partner raises NumericalError naming the
    pair, t* and the class; one that lands on a third root is recorded
    in ``errors``, and fewer than d-1 geodesics then raise
    NonGenericError.  Simultaneous connections are listed in
    ``warnings``.  A NumericalError from a strip basis or a verification
    trace is raised again with its stage and angle (t0 or t), and the
    pair of a verification, keeping its residuals.  A ClearanceError from
    the pair periods of the candidate angles is raised again with that
    stage.
    """
    tps = turning_points(poly, config.root_tol)
    if not tps.all_simple:
        raise NonGenericError("short-geodesic enumeration needs simple roots")
    d = poly.degree
    survey = GeodesicSurvey()
    if len(tps.points) < 2:
        return survey          # a single turning point connects nothing

    try:
        t_cand = {pair: t for pair, t, _ in candidate_angles(poly, config)}
    except ClearanceError as exc:
        raise ClearanceError(f"candidate angles: {exc}") from exc
    failures = []
    for t0 in _start_angles(t_cand.values())[:START_ATTEMPTS]:
        try:
            sides, periods, _, B = strip_basis(poly, t0, config)
            break
        except NonGenericError as exc:
            failures.append(f"t0={t0:.12f}: {exc}")
        except NumericalError as exc:
            raise in_context(exc, f"strip basis at t0={t0:.12f}") from exc
    else:
        raise NonGenericError(
            f"no generic strip decomposition: {'; '.join(failures)}")

    for T, n in _half_turn(periods, B, t0):
        pair = _class_pair(sides, n)
        period = cmath.exp(-1j * t0) * sum(c * p for c, p in zip(n, periods))
        if period_sign_flips(period):
            period = -period
        t_star = wrap_positive(t0 + T, PI)
        t = t_cand[pair]
        if abs(wrap_angle(t - t_star, PI)) > 1e-9:
            t = t_star
        try:
            geo = verify_geodesic(poly, pair, t, period, config)
        except NonGenericError as exc:
            survey.errors.append((pair, str(exc)))
            continue
        except NumericalError as exc:
            raise in_context(
                exc, f"pair {pair}, verification trace at t={t:.12f}") from exc
        if geo is None:
            raise NumericalError(
                f"pair {pair}, class {n}: no trace at t={t:.12f} hits root "
                f"{pair[1]} (t* = {t_star:.12f})")
        survey.geodesics.append(geo)

    if len(survey.geodesics) < d - 1:
        raise NonGenericError(
            f"{len(survey.geodesics)} short geodesic(s) verified, fewer than "
            f"the d-1 = {d - 1} that connect the turning points; errors "
            f"{survey.errors}")

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
            if not (0.0 <= theta <= TWO_PI):
                raise ValueError("interior angles must lie in [0, 2*pi]")


def teichmuller_defect(polygon: PsiPolygon) -> float:
    """sum_j (1 - (n_j + 2) theta_j / (2 pi)) - (2 + sum_i n_i).

    Zero for genuine polygons of a quadratic differential; a negative
    value certifies that no such polygon exists.
    """
    lhs = sum(1.0 - (n + 2) * theta / TWO_PI for n, theta in polygon.vertices)
    rhs = 2.0 + sum(polygon.interior)
    return lhs - rhs
