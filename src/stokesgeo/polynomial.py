"""Complex polynomials, turning points, Stokes sectors and the
per-polynomial context that bundles them.

Coefficients are stored highest degree first, so ``coeffs[0]`` is the
leading coefficient and ``coeffs[-1]`` the constant term.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

from .config import DEFAULT_CONFIG, RunConfig, Scales
from .errors import NumericalError, ParseError

TWO_PI = 2.0 * math.pi


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

    def eval_with_derivs(self, z: complex) -> tuple[complex, complex, complex]:
        """Fused Horner evaluation of (P, P', P'')."""
        p = 0j
        dp = 0j
        ddp = 0j
        for a in self.coeffs:
            ddp = ddp * z + dp
            dp = dp * z + p
            p = p * z + a
        return p, dp, 2.0 * ddp

    def derivative(self) -> "ComplexPolynomial":
        if self.degree == 0:
            raise ValueError("derivative of a constant is the zero polynomial")
        d = self.degree
        return ComplexPolynomial(tuple(self.coeffs[k] * (d - k) for k in range(d)))

    def rotate(self, t: float) -> "ComplexPolynomial":
        """The member e^{2it} P of the rotation family. Roots are unchanged."""
        f = cmath.exp(2j * t)
        return ComplexPolynomial(tuple(f * c for c in self.coeffs))

    def scaled(self, c: complex) -> "ComplexPolynomial":
        return ComplexPolynomial(tuple(complex(c) * a for a in self.coeffs))

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
    """Roots of the potential with multiplicities; multiplicities sum to d."""

    points: tuple[tuple[complex, int], ...]

    @property
    def locations(self) -> tuple[complex, ...]:
        return tuple(p for p, _ in self.points)

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.points)

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

    def sector_index_near(self, angle: float) -> int:
        a = wrap_positive(angle)
        best, best_d = 0, float("inf")
        for j, c in enumerate(self.centers):
            dist = abs(wrap_angle(a - c))
            if dist < best_d:
                best, best_d = j, dist
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
        return TurningPointSet(points=((r, 1),))
    zs = _aberth_iterate(coeffs, tol, max_iter=400)
    pts = TurningPointSet(points=tuple(_cluster_roots(zs, tol)))
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
    def min_separation(self) -> float:
        """Smallest distance between two turning points (inf for one)."""
        locs = self.locs
        n = len(locs)
        return min((abs(locs[i] - locs[j])
                    for i in range(n) for j in range(i + 1, n)),
                   default=float("inf"))

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

_COMPLEX_RE = re.compile(
    r"""^\s*
        (?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?
        (?P<im>[+-]?(?:\d+\.?\d*|\.\d+)?(?:[eE][+-]?\d+)?)?
        (?P<i>i)?
        \s*$""",
    re.VERBOSE,
)


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
