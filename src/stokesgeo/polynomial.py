"""Complex polynomials, turning points, Stokes sectors and the
per-polynomial context that bundles them.

Coefficients are stored highest degree first, so ``coeffs[0]`` is the
leading coefficient and ``coeffs[-1]`` the constant term.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

from .config import DEFAULT_CONFIG, RunConfig, Scales
from .errors import NumericalError, ParseError

PI = math.pi
TWO_PI = 2.0 * math.pi
# the root chart's reach: this fraction of a turning point's distance to
# its nearest other root, the one radius about a root
ROOT_REACH = 0.5


def wrap_angle(a: float, period: float = TWO_PI) -> float:
    """Wrap to (-period/2, period/2]."""
    a = math.fmod(a, period)
    half = 0.5 * period
    if a > half:
        a -= period
    elif a <= -half:
        a += period
    return a


def wrap_positive(a: float, period: float = TWO_PI) -> float:
    """Wrap to [0, period)."""
    a = math.fmod(a, period)
    return a + period if a < 0 else a


@dataclass(frozen=True)
class ComplexPolynomial:
    """A polynomial potential with nonzero leading coefficient."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("empty coefficient list")
        cs = tuple(complex(c) for c in self.coeffs)
        if cs[0] == 0:
            raise ValueError("leading coefficient must be nonzero")
        if any(not (math.isfinite(c.real) and math.isfinite(c.imag)) for c in cs):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def phi0(self) -> float:
        """Argument of the leading coefficient, in (-pi, pi]."""
        return cmath.phase(self.coeffs[0])

    def evaluate(self, z: complex) -> complex:
        p = 0j
        for a in self.coeffs:
            p = p * z + a
        return p

    def derivative(self) -> "ComplexPolynomial":
        if self.degree == 0:
            raise ValueError("derivative of a constant is the zero polynomial")
        d = self.degree
        return ComplexPolynomial(tuple(self.coeffs[k] * (d - k) for k in range(d)))

    def deflate(self, root: complex, mult: int) -> "ComplexPolynomial":
        """Synthetic division by (z - root)^mult, remainder dropped."""
        cs = list(self.coeffs)
        for _ in range(mult):
            out = [cs[0]]
            for c in cs[1:]:
                out.append(out[-1] * root + c)
            cs = out[:-1]
        return ComplexPolynomial(tuple(cs))

    def rotate(self, t: float) -> "ComplexPolynomial":
        """The member e^{2it} P of the rotation family. Roots are unchanged."""
        f = cmath.exp(2j * t)
        return ComplexPolynomial(tuple(f * c for c in self.coeffs))

    @classmethod
    def from_roots(cls, leading: complex, roots) -> "ComplexPolynomial":
        cs = [complex(leading)]
        for r in roots:
            r = complex(r)
            nxt = [0j] * (len(cs) + 1)
            for i, c in enumerate(cs):
                nxt[i] += c
                nxt[i + 1] -= c * r
            cs = nxt
        return cls(tuple(cs))

    def to_json_obj(self) -> dict:
        return {"coeffs": [[c.real, c.imag] for c in self.coeffs]}

    def __str__(self) -> str:
        return format_poly_text(self)


@dataclass(frozen=True)
class TurningPointSet:
    """Roots of the potential with multiplicities; multiplicities sum to d.

    ``coeffs`` are those of the polynomial the roots were found for, from
    which the local series about each root are taken."""

    points: tuple[tuple[complex, int], ...]
    coeffs: tuple[complex, ...] = field(compare=False, repr=False)

    @property
    def locations(self) -> tuple[complex, ...]:
        return tuple(p for p, _ in self.points)

    @property
    def all_simple(self) -> bool:
        return all(m == 1 for _, m in self.points)

    def reconstruction_residual(self, poly: ComplexPolynomial) -> float:
        """Max coefficient error of a0 * prod (z - r)^m against ``poly``."""
        flat = []
        for r, m in self.points:
            flat.extend([r] * m)
        rebuilt = ComplexPolynomial.from_roots(poly.coeffs[0], flat)
        scale = max(abs(c) for c in poly.coeffs)
        return max(abs(a - b) for a, b in zip(rebuilt.coeffs, poly.coeffs)) / max(scale, 1.0)

    @cached_property
    def at_infinity(self) -> "SeriesAtInfinity":
        """The trapping cone and the Laurent series of sqrt(P) at infinity,
        computed once per root set."""
        return SeriesAtInfinity(self.coeffs, self.points)

    @cached_property
    def at_roots(self) -> tuple["SeriesAtRoot", ...]:
        """The local series of sqrt(P) about each root, computed once per
        root set."""
        poly = ComplexPolynomial(self.coeffs)
        return tuple(SeriesAtRoot(poly, self.points, i)
                     for i in range(len(self.points)))


class _HalfPowerSeries:
    """The series S(u) = sum_k c[k] u^k of sqrt(P) in a local chart
    (``SeriesAtInfinity``, ``SeriesAtRoot``), with c[0] = 1, and the
    weights e[k] = c[k] / (half + sign k) of its primitive's series E; a
    zero denominator (the log term at infinity) gets e[k] = 0.  The c[k]
    are extended on demand, from the chart's S^2 = 1 + sum_j b[j] u^j
    (``squared`` holds b[1], b[2], ..., from P's coefficients) by the
    square-root recurrence 2 c[k] = b[k] - sum_{j=1..k-1} c[j] c[k-j].  S
    is prod (1 - a_i u)^{m_i/2} over ``factors`` (a_i, m_i) with every
    |a_i| <= 1, so sum |c[k]| <= ``bound`` = prod (2 - sqrt(1 - |a_i|))^{m_i}:
    a majorant of each factor's binomial series, taken at u = 1."""

    def __init__(self, factors, squared, half: float, sign: int):
        self._factors = tuple(factors)
        self._squared = squared
        self.half = half
        self._sign = sign
        self.bound = math.prod((2.0 - math.sqrt(max(0.0, 1.0 - abs(a))))
                               ** m for a, m in self._factors)
        self.c = [1.0 + 0j]
        self.e = [1.0 / half + 0j]

    def _terms(self, q: float, k_min: int) -> int:
        """A number of terms K >= k_min with bound q^K <= 5e-18: the series'
        tails at |u| = q are at most bound q^K / (1 - q) for S and twice
        that for E (|e[k]| <= 2 |c[k]|), so they are below 2e-17 at a
        root's reach (q = 1/2) and 9e-17 at 9/8 R0 (q = 8/9).  The
        coefficient lists hold at least K entries."""
        if q > 0.0 and self._factors:
            k_min = max(k_min, math.ceil(math.log(5e-18 / self.bound)
                                         / math.log(q)))
        self._extend(k_min)
        return k_min

    def _coefficient(self, k: int) -> complex:
        b = self._squared[k - 1] if k <= len(self._squared) else 0j
        c = self.c
        return 0.5 * (b - sum(map(operator.mul, c[1:k], reversed(c[1:k]))))

    def _extend(self, count: int) -> None:
        c, e = self.c, self.e
        while len(c) < count:
            k = len(c)
            ck = self._coefficient(k)
            c.append(ck)
            den = self.half + self._sign * k
            e.append(0j if den == 0 else ck / den)

    def chart(self, zeta: complex) -> tuple[complex, complex]:
        """S and E at ``zeta`` (z - center), to as many terms as |zeta|
        needs, by Horner's rule."""
        u, count = self.variable(zeta), self.terms(abs(zeta))
        s_sum = e_sum = 0j
        for ck, ek in zip(self.c[count - 1::-1], self.e[count - 1::-1]):
            s_sum = s_sum * u + ck
            e_sum = e_sum * u + ek
        return s_sum, e_sum

    def primitive(self, zeta: complex, count: int) -> complex:
        """E alone at ``zeta``, to ``count`` terms (``terms(|zeta|)``)."""
        u = self.variable(zeta)
        e_sum = 0j
        for ek in self.e[count - 1::-1]:
            e_sum = e_sum * u + ek
        return e_sum

    def pinned(self, a0: complex, zeta: complex, w: complex):
        """S, E and zeta^h at ``zeta`` = z - center, h = power // 2, and the
        branch constant B = (a0 lead)^{1/2} (times zeta^{1/2} for an odd
        power) signed so that B zeta^h S is the branch of sqrt(P) of w, for
        P of leading coefficient a0."""
        s_sum, e_sum = self.chart(zeta)
        h, odd = divmod(self.power, 2)
        zh = zeta ** h
        branch = cmath.sqrt(a0 * self.lead) * (cmath.sqrt(zeta) if odd
                                               else 1.0)
        if (branch * zh * s_sum * w.conjugate()).real < 0.0:
            branch = -branch
        return s_sum, e_sum, zh, branch


class SeriesAtInfinity(_HalfPowerSeries):
    """sqrt(P) near the pole at infinity, for |z| > R0 = max|root|.

    With P = a0 prod (z - r_i)^{m_i} and d = sum m_i,
    sqrt(P) = a0^{1/2} z^{d/2} S and S = prod (1 - r_i/z)^{m_i/2}
    = sum_k c[k] u^k in u = s/z, s = R0 (1 when every root is 0).  The
    primitive is xi = a0^{1/2} (z^{(d+2)/2} E + c_n s^n log z) with
    E = sum_k e[k] u^k, e[k] = c[k] / ((d+2)/2 - k), where for even d the
    index n = (d+2)/2 carries the log term and e[n] = 0.  The c[k] come
    from S^2 = P / (a0 z^d), so b[k] = a_k / (a0 s^k) for the coefficients
    a_k of P (``coeffs``, highest degree first); the roots' moduli give
    the series' tail bound and Phi's arcsin bound.

    Phi(r) bounds the phase of S, |arg S| <= Phi(|z|), by the smaller of
    two bounds that fall with r.  One is 1/2 sum m_i arcsin(|r_i|/r),
    which holds even if the phases of all the factors align.  The other
    comes from log S = -1/2 sum_k p_k / (k z^k), with the power sums
    p_k = sum m_i r_i^k: 1/2 sum_{k<=K} |p_k| / (k r^k), K = ``POWER_SUMS``,
    plus the tail 1/2 d q^{K+1} / ((K+1)(1 - q)), q = R0/r, as
    |p_k| <= d R0^k.  The p_k / s^k come from the b[k] by Newton's
    identities.  ``cone_radius`` is the trapping cone's radius r_c, the
    smallest r with Phi(r) < pi/4; but at least 9/8 R0, where the series
    needs at most about 400 terms (``terms``).  The arcsin bound reaches
    pi/4 at 1.5-2.5 R0 for degrees 3-5 and beyond 4 R0 from degree 12;
    the power-sum bound near 1.1-1.2 R0 at every degree, so r_c is
    mostly the floor."""

    POWER_SUMS = 40

    at_root = False
    center = 0j
    lead = 1.0
    circle = "|z|"

    def __init__(self, coeffs, points):
        self.degree = self.power = sum(m for _, m in points)
        r0 = max(abs(r) for r, _ in points)
        self.scale = r0 if r0 > 0.0 else 1.0
        self.r0 = r0
        self.moduli = tuple((abs(r), m) for r, m in points if r != 0)
        squared = [a / (coeffs[0] * self.scale ** k)
                   for k, a in enumerate(coeffs) if k]
        super().__init__(((r / self.scale, m) for r, m in points if r != 0),
                         squared, 0.5 * (self.degree + 2), -1)
        # Newton's identities for the scaled power sums t_k = p_k / s^k,
        # from (S^2)' / S^2 = -sum_k t_k u^{k-1}:
        # t_k = -k b[k] - sum_{j=1..k-1} b[j] t_{k-j}
        t = []
        for k in range(1, self.POWER_SUMS + 1):
            acc = -k * squared[k - 1] if k <= len(squared) else 0j
            for j in range(1, min(k, len(squared) + 1)):
                acc -= squared[j - 1] * t[k - 1 - j]
            t.append(acc)
        # Phi's power-sum weights 1/2 |t_k| / k, highest k first for Horner
        self._sum_weights = [0.5 * abs(t[k - 1]) / k
                             for k in range(self.POWER_SUMS, 0, -1)]
        self.cone_radius = self._cone_radius(r0)

    def phi(self, r: float) -> float:
        """Phi(r), for r > R0: the smaller of 1/2 sum m_i arcsin(|r_i|/r)
        and the truncated power-sum bound with its tail."""
        if not self.moduli:
            return 0.0
        arcsin = 0.5 * sum(m * math.asin(a / r) for a, m in self.moduli)
        q = self.r0 / r
        power = 0.0
        for wk in self._sum_weights:
            power = (power + wk) * q
        k = self.POWER_SUMS + 1
        power += 0.5 * self.degree * q ** k / (k * (1.0 - q))
        return min(arcsin, power)

    def _cone_radius(self, r0: float) -> float:
        if not self.moduli:
            return 0.0
        lo = hi = 1.125 * r0
        if self.phi(hi) < 0.25 * math.pi:
            return hi
        while self.phi(hi) >= 0.25 * math.pi:
            lo, hi = hi, 2.0 * hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if self.phi(mid) < 0.25 * math.pi:
                hi = mid
            else:
                lo = mid
        return hi

    def terms(self, r: float) -> int:
        """The terms that both series need at |z| = r > R0, with q = s/r;
        for even d the log term's index is among them."""
        return self._terms(self.scale / r, self.degree // 2 + 2)

    def variable(self, zeta: complex) -> complex:
        return self.scale / zeta

    def log_coefficient(self) -> complex:
        """c_n s^n, the log term's coefficient over a0^{1/2} (0 for odd
        d)."""
        h, odd = divmod(self.degree, 2)
        return 0j if odd else self.c[h + 1] * self.scale ** (h + 1)


class SeriesAtRoot(_HalfPowerSeries):
    """sqrt(P) about the root r = ``center`` of multiplicity m, within its
    ``reach``, ``ROOT_REACH`` times its distance rho to the nearest other
    root.

    With q = P / (z - r)^m (``ComplexPolynomial.deflate``) and c = q(r),
    sqrt(P) = c^{1/2} (z - r)^{m/2} S
    with S = (q(z) / c)^{1/2} = sum_k c[k] u^k in u = (z - r)/rho, and the
    primitive from r is xi = c^{1/2} (z - r)^{(m+2)/2} E,
    E = sum_k e[k] u^k, e[k] = c[k] / ((m+2)/2 + k): no log term.  The
    b[j] of S^2 = q(z)/c are the Taylor coefficients of q at r over c.
    ``lead`` = c / a0, so the members of the rotation family share the
    series.  The tail bound takes the other roots as the zeros of q:
    a_i = rho / (r_i - r).  A lone root has S = 1 and rho = reach = inf."""

    at_root = True

    def __init__(self, poly: ComplexPolynomial, points, index: int):
        self.center, self.power = r, m = points[index]
        self.circle = f"|z - r{index}|"
        others = [(x, k) for i, (x, k) in enumerate(points) if i != index]
        self.rho = min((abs(x - r) for x, _ in others), default=math.inf)
        self.reach = ROOT_REACH * self.rho
        # the Taylor coefficients of q at r: the remainders of repeated
        # division by (z - r)
        quotient = list(poly.deflate(r, m).coeffs)
        taylor = []
        while len(quotient) > 1:
            out = [quotient[0]]
            for a in quotient[1:]:
                out.append(out[-1] * r + a)
            quotient = out[:-1]
            taylor.append(out[-1])
        taylor.append(quotient[0])
        self.lead = taylor[0] / poly.coeffs[0]
        super().__init__(((self.rho / (x - r), k) for x, k in others),
                         [b * self.rho ** j / taylor[0]
                          for j, b in enumerate(taylor) if j],
                         0.5 * (m + 2), 1)

    def xi(self, a0: complex, z: complex, w: complex) -> complex:
        """The primitive xi(z), the integral of sqrt(P) dz from the root to
        z within the reach, on the branch whose value at z is ``w`` (to its
        sign), for P of leading coefficient a0."""
        zeta = z - self.center
        _, e_sum, zh, branch = self.pinned(a0, zeta, w)
        return branch * zh * zeta * e_sum

    def terms(self, r: float) -> int:
        """The terms that both series need at |z - center| = r <= reach,
        with q = r/rho."""
        return self._terms(r / self.rho, 1)

    def variable(self, zeta: complex) -> complex:
        return zeta / self.rho

    def log_coefficient(self) -> complex:
        return 0j


@dataclass(frozen=True)
class StokesSectorSet:
    """The d+2 open sectors at infinity and the ray angles separating them.

    Sector j is centered at (2*pi*j - phi0)/(d+2) with half-width
    pi/(d+2); ray k = (pi*(2k+1) - phi0)/(d+2) bounds sectors k and k+1.
    These are the directions along which Re of the primitive of sqrt(P)
    stays bounded, forced by the leading behaviour
    Re[(2 a0^{1/2} / (d+2)) z^{(d+2)/2}].
    """

    centers: tuple[float, ...]
    half_width: float
    ray_angles: tuple[float, ...]

    @property
    def count(self) -> int:
        return len(self.centers)

    def nearest_ray_index(self, angle: float) -> int:
        a = wrap_positive(angle)
        best, best_d = 0, float("inf")
        for k, r in enumerate(self.ray_angles):
            dist = abs(wrap_angle(a - r))
            if dist < best_d:
                best, best_d = k, dist
        return best

    def are_neighboring_rays(self, i: int, j: int) -> bool:
        n = len(self.ray_angles)
        return (i - j) % n in (0, 1, n - 1)


def stokes_sectors(poly: ComplexPolynomial) -> StokesSectorSet:
    d = poly.degree
    if d < 1:
        raise ValueError("Stokes sectors need degree >= 1")
    n = d + 2
    phi0 = poly.phi0
    centers = tuple(wrap_positive((TWO_PI * j - phi0) / n) for j in range(n))
    rays = tuple(wrap_positive((math.pi * (2 * k + 1) - phi0) / n) for k in range(n))
    return StokesSectorSet(centers=centers, half_width=math.pi / n, ray_angles=rays)


# ---------------------------------------------------------------------------
# Root finding: Aberth-Ehrlich simultaneous iteration with multiplicity
# clustering.  Initial guesses sit on a perturbed circle around the
# coefficient centroid; clusters of radius ~ tol^(1/m) are merged into a
# single root of multiplicity m at their centroid.
# ---------------------------------------------------------------------------

def _initial_guesses(coeffs: tuple[complex, ...]) -> list[complex]:
    d = len(coeffs) - 1
    centroid = -coeffs[1] / (d * coeffs[0]) if d > 0 else 0j
    # Fujiwara-style bound on root moduli of the centered polynomial
    radius = 0.0
    for k in range(1, d + 1):
        radius = max(radius, 2.0 * abs(coeffs[k] / coeffs[0]) ** (1.0 / k))
    radius = max(radius, 0.5)
    out = []
    for i in range(d):
        ang = TWO_PI * (i + 0.5) / d + 0.437
        r = radius * (0.85 + 0.1 * math.cos(3.17 * i + 1.0))
        out.append(centroid + r * cmath.exp(1j * ang))
    return out


def _aberth_iterate(coeffs: tuple[complex, ...], tol: float, max_iter: int) -> list[complex]:
    d = len(coeffs) - 1
    zs = _initial_guesses(coeffs)
    scale = 1.0 + max(abs(z) for z in zs)
    for _ in range(max_iter):
        moved = 0.0
        for i in range(d):
            z = zs[i]
            p = 0j
            dp = 0j
            for a in coeffs:
                dp = dp * z + p
                p = p * z + a
            if p == 0:
                continue
            if dp == 0:
                zs[i] = z + tol * scale * (1 + 1j)
                moved = max(moved, tol * scale)
                continue
            newton = p / dp
            s = 0j
            for j in range(d):
                if j != i:
                    diff = z - zs[j]
                    if diff == 0:
                        diff = tol * scale * (0.7 + 0.7j)
                    s += 1.0 / diff
            denom = 1.0 - newton * s
            step = newton if denom == 0 else newton / denom
            zs[i] = z - step
            moved = max(moved, abs(step))
        if moved < 0.01 * tol * scale:
            break
    return zs


def _cluster_roots(zs: list[complex], tol: float) -> list[tuple[complex, int]]:
    scale = 1.0 + max(abs(z) for z in zs)
    clusters = [[z] for z in zs]
    merged = True
    while merged and len(clusters) > 1:
        merged = False
        best = None
        best_d = float("inf")
        for i in range(len(clusters)):
            ci = sum(clusters[i]) / len(clusters[i])
            for j in range(i + 1, len(clusters)):
                cj = sum(clusters[j]) / len(clusters[j])
                dist = abs(ci - cj)
                if dist < best_d:
                    best_d, best = dist, (i, j)
        if best is not None:
            i, j = best
            m = len(clusters[i]) + len(clusters[j])
            # cluster radius scales like tol^(1/m): a root of multiplicity m
            # is resolved by simultaneous iteration only to that accuracy
            if best_d <= 10.0 * scale * tol ** (1.0 / m):
                clusters[i] = clusters[i] + clusters[j]
                del clusters[j]
                merged = True
    out = []
    for cl in clusters:
        centroid = sum(cl) / len(cl)
        out.append((centroid, len(cl)))
    out.sort(key=lambda pm: (pm[0].real, pm[0].imag))
    return out


@lru_cache(maxsize=512)
def _turning_points_cached(coeffs: tuple[complex, ...], tol: float) -> TurningPointSet:
    poly = ComplexPolynomial(coeffs)
    d = poly.degree
    if d == 1:
        r = -coeffs[1] / coeffs[0]
        return TurningPointSet(points=((r, 1),), coeffs=coeffs)
    zs = _aberth_iterate(coeffs, tol, max_iter=400)
    pts = TurningPointSet(points=tuple(_cluster_roots(zs, tol)), coeffs=coeffs)
    resid = pts.reconstruction_residual(poly)
    if resid > 1e4 * tol:
        raise NumericalError(
            f"root finding did not converge (reconstruction residual {resid:.3e})",
            residuals=[abs(poly.evaluate(z)) for z in zs],
        )
    return pts


def turning_points(poly: ComplexPolynomial, tol: float = 1e-10) -> TurningPointSet:
    """All d roots with multiplicity, each accurate to roughly ``tol``."""
    if poly.degree < 1:
        raise ValueError("turning points need degree >= 1")
    return _turning_points_cached(poly.coeffs, tol)


@dataclass(frozen=True)
class PolyContext:
    """Per-polynomial lookups shared by every pipeline: turning points,
    geometric scales and Stokes sectors.

    Members of the rotation family e^{2it} P share roots and scales, so
    :meth:`rotate` recomputes only the sectors.
    """

    poly: ComplexPolynomial
    config: RunConfig
    tps: TurningPointSet
    scales: Scales
    sectors: StokesSectorSet

    @classmethod
    def of(cls, poly: ComplexPolynomial,
           config: RunConfig = DEFAULT_CONFIG) -> "PolyContext":
        tps = turning_points(poly, config.root_tol)
        return cls(poly=poly, config=config, tps=tps,
                   scales=Scales.from_roots(tps.locations, config),
                   sectors=stokes_sectors(poly))

    @cached_property
    def locs(self) -> tuple[complex, ...]:
        return self.tps.locations

    @cached_property
    def mults(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.tps.points)

    @cached_property
    def reaches(self) -> tuple[float, ...]:
        """Each root's reach (``SeriesAtRoot.reach``); a lone root's, which
        is infinite, is ``ROOT_REACH`` times D instead."""
        return tuple(
            s.reach if s.reach < math.inf else ROOT_REACH * self.scales.d_unit
            for s in self.tps.at_roots)

    @cached_property
    def slope(self) -> ComplexPolynomial:
        """P', for the landing's Halley steps."""
        return self.poly.derivative()

    def rotate(self, t: float) -> "PolyContext":
        rot = self.poly.rotate(t)
        return replace(self, poly=rot, sectors=stokes_sectors(rot))

    def nearest_root(self, z: complex, skip: int = -1) -> tuple[int, float]:
        """(index, distance) of the turning point nearest to z, ignoring
        index ``skip``."""
        best, best_d = -1, float("inf")
        for idx, r in enumerate(self.locs):
            if idx == skip:
                continue
            d = abs(z - r)
            if d < best_d:
                best, best_d = idx, d
        return best, best_d


# ---------------------------------------------------------------------------
# Text / JSON formats
# ---------------------------------------------------------------------------

def parse_complex(text: str) -> complex:
    """Parse 're', 'imi' or 're+imi' coefficient notation (e.g. '1', '-2i', '0.5+0.25i')."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty coefficient")
    body = s.replace("i", "j")
    try:
        value = complex(body)
    except ValueError:
        raise ParseError(f"bad coefficient {text!r}") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ParseError(f"non-finite coefficient {text!r}")
    return value


def parse_poly_text(text: str) -> ComplexPolynomial:
    """Comma-separated coefficients, highest degree first: '1,0,-1' is z^2 - 1."""
    parts = text.split(",")
    try:
        coeffs = tuple(parse_complex(p) for p in parts)
        return ComplexPolynomial(coeffs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_poly_json(obj: dict) -> ComplexPolynomial:
    try:
        pairs = obj["coeffs"]
        coeffs = tuple(complex(float(re_), float(im)) for re_, im in pairs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad polynomial JSON: {exc}") from None
    try:
        return ComplexPolynomial(coeffs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _fmt_float(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def format_complex(c: complex) -> str:
    if c.imag == 0:
        return _fmt_float(c.real)
    if c.real == 0:
        return _fmt_float(c.imag) + "i"
    sign = "+" if c.imag >= 0 else "-"
    return f"{_fmt_float(c.real)}{sign}{_fmt_float(abs(c.imag))}i"


def format_poly_text(poly: ComplexPolynomial) -> str:
    return ",".join(format_complex(c) for c in poly.coeffs)
