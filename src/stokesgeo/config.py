"""Run configuration and per-polynomial geometric scales."""

from __future__ import annotations

from dataclasses import dataclass, asdict


@dataclass(frozen=True)
class RunConfig:
    """Tolerances and knobs shared by every pipeline.

    All length-like tolerances are dimensionless factors; they get
    multiplied by the root-set scale of the polynomial at hand (see
    :class:`Scales`), so behaviour is invariant under z -> c*z.
    """

    root_tol: float = 1e-10          # simultaneous-iteration root accuracy
    delta_path_factor: float = 1e-3  # path clearance, x max(root diameter, 1)
    delta_hit_factor: float = 1e-6   # trajectory hit radius, x D
    r_escape_factor: float = 10.0    # escape radius, x (1 + max|root|)
    l_max_factor: float = 50.0       # trajectory length cap, x D
    quad_rel_tol: float = 1e-9       # path-integral relative tolerance
    # tracer: bound on the DP5 local error |z5 - z4| of each step attempt,
    # x D (absolute, not per unit length).  It sets the vertex spacing, not
    # the vertices' accuracy: nearly all of that error lies normal to the
    # line, where the drift projection removes it after every step.  At
    # 1e-7 most steps are set by the cap h <= near_d/4 instead: on the
    # chord benchmark's inputs (seed 101) 2,138 attempts, 1,474 of them
    # cap-bound, where 3e-9 made 3,478 (424).  A sweep up to 1e-6 kept
    # every level, drift-chord and hit-margin bound; 1e-7 is the largest
    # value whose error control still rejects steps on both benchmark
    # workloads (ROADMAP item 10)
    trace_tol: float = 1e-7
    alpha_order: int = 3             # correction depth in reports
    lambda_min_modulus: float = 0.25
    svg_decimate_factor: float = 1e-3
    seed: int = 0
    out_dir: str = "out"
    formats: tuple[str, ...] = ("json", "svg")

    def __post_init__(self):
        for name in ("root_tol", "delta_path_factor", "delta_hit_factor",
                     "r_escape_factor", "l_max_factor", "quad_rel_tol",
                     "trace_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"RunConfig.{name} must be positive")
        if self.r_escape_factor < 1.0:
            raise ValueError(
                "RunConfig.r_escape_factor must be >= 1, so that the escape "
                "circle lies outside every root, where the series of sqrt(P) "
                "at infinity that lands escaping traces converges")
        if (not isinstance(self.alpha_order, int)
                or isinstance(self.alpha_order, bool)):
            raise ValueError("RunConfig.alpha_order must be an integer")
        if self.alpha_order < 0:
            raise ValueError("RunConfig.alpha_order must be >= 0")
        for name in ("lambda_min_modulus", "svg_decimate_factor"):
            if getattr(self, name) < 0:
                raise ValueError(f"RunConfig.{name} must be non-negative")
        bad = set(self.formats) - {"json", "svg", "csv"}
        if bad:
            raise ValueError(f"unknown output formats: {sorted(bad)}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["formats"] = list(self.formats)
        return d


DEFAULT_CONFIG = RunConfig()


@dataclass(frozen=True)
class Scales:
    """Geometric scales of a concrete root set, derived from a RunConfig."""

    max_modulus: float   # max |root|
    d_unit: float        # diameter + 1, the length unit for tolerances
    delta_path: float
    delta_hit: float
    r_escape: float
    l_max: float

    @classmethod
    def from_roots(cls, locations, config: RunConfig = DEFAULT_CONFIG) -> "Scales":
        locs = list(locations)
        if not locs:
            raise ValueError("need at least one root to derive scales")
        diam = 0.0
        for i in range(len(locs)):
            for j in range(i + 1, len(locs)):
                diam = max(diam, abs(locs[i] - locs[j]))
        maxmod = max(abs(z) for z in locs)
        d_unit = diam + 1.0
        return cls(
            max_modulus=maxmod,
            d_unit=d_unit,
            delta_path=config.delta_path_factor * max(diam, 1.0),
            delta_hit=config.delta_hit_factor * d_unit,
            r_escape=config.r_escape_factor * (1.0 + maxmod),
            l_max=config.l_max_factor * d_unit,
        )
