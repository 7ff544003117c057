"""Command-line frontend.

Subcommands: roots | stokes-graph | geodesics | rays | eigenvalues |
strip-realize | chords.  All outputs are deterministic for a fixed
configuration and seed; every JSON report embeds the effective RunConfig.

Exit codes: 0 success, 2 input parse error, 3 numerical failure,
4 incomplete Stokes graph (partial output written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .config import DEFAULT_CONFIG, RunConfig
from .domains import chord_diagram
from .errors import (IncompleteGraphError, NumericalError, ParseError,
                     StokesGeoError)
from .geodesics import survey_short_geodesics
from .pathint import douglas_peucker
from .polynomial import (ComplexPolynomial, PolyContext, parse_poly_json,
                         parse_poly_text)
from .spectrum import accumulation_rays, eigenvalue_asymptotics
from .strips import realize_count, visible_pairs
from .svgout import render_stokes_graph, render_strip
from .tracer import build_stokes_graph


def _c2j(z: complex):
    return [z.real, z.imag]


def _poly_from_arg(text: str) -> ComplexPolynomial:
    s = text.strip()
    if s.startswith("{"):
        return parse_poly_json(json.loads(s))
    if os.path.isfile(s):
        with open(s) as fh:
            return parse_poly_json(json.load(fh))
    return parse_poly_text(s)


def _load_config(args) -> RunConfig:
    values = {}
    if args.config:
        with open(args.config) as fh:
            values.update(json.load(fh))
    if args.seed is not None:
        values["seed"] = args.seed
    if args.out is not None:
        values["out_dir"] = args.out
    if args.format is not None:
        values["formats"] = tuple(args.format.split(","))
    if "formats" in values and not isinstance(values["formats"], tuple):
        values["formats"] = tuple(values["formats"])
    try:
        return dataclasses.replace(DEFAULT_CONFIG, **values)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad configuration: {exc}") from None


def _write_json(config: RunConfig, name: str, payload: dict) -> str:
    os.makedirs(config.out_dir, exist_ok=True)
    payload = dict(payload)
    payload["config"] = config.to_dict()
    path = os.path.join(config.out_dir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def _write_text(config: RunConfig, name: str, text: str) -> str:
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _graph_json(graph, config) -> dict:
    tol = config.svg_decimate_factor * graph.scales.d_unit
    edges = []
    for e in graph.edges:
        edges.append({
            "kind": e.kind,
            "origin": e.origin,
            "direction_index": e.direction_index,
            "target": e.target,
            "ray": e.ray,
            "flagged": e.flagged,
            "polyline": [_c2j(z) for z in douglas_peucker(e.polyline, tol)],
        })
    return {
        "turning_points": [[_c2j(r), m] for r, m in graph.turning_points.points],
        "rays": list(graph.rays),
        "edges": edges,
        "complexes": [sorted(c) for c in graph.complexes],
        "incomplete": graph.incomplete,
    }


def cmd_roots(args) -> int:
    config = _load_config(args)
    poly = _poly_from_arg(args.poly)
    ctx = PolyContext.of(poly, config)
    tps, sectors = ctx.tps, ctx.sectors
    print(f"polynomial: {poly}")
    for loc, mult in tps.points:
        print(f"  root {loc.real:+.12g}{loc.imag:+.12g}i  multiplicity {mult}")
    print(f"sectors: {sectors.count}, half-width {sectors.half_width:.12g}")
    for j, c in enumerate(sectors.centers):
        print(f"  sector {j}: center {c:.12g}")
    for k, r in enumerate(sectors.ray_angles):
        print(f"  ray {k}: angle {r:.12g}")
    if "json" in config.formats and args.out is not None:
        _write_json(config, "roots.json", {
            "polynomial": poly.to_json_obj(),
            "roots": [[_c2j(r), m] for r, m in tps.points],
            "sector_centers": list(sectors.centers),
            "ray_angles": list(sectors.ray_angles),
        })
    return 0


def cmd_stokes_graph(args) -> int:
    config = _load_config(args)
    poly = _poly_from_arg(args.poly).rotate(args.t)
    graph = build_stokes_graph(poly, config)
    if "json" in config.formats:
        path = _write_json(config, "stokes_graph.json", _graph_json(graph, config))
        print(f"wrote {path}")
    if "svg" in config.formats:
        tol = config.svg_decimate_factor * graph.scales.d_unit
        path = _write_text(config, "stokes_graph.svg",
                           render_stokes_graph(graph, decimate=tol))
        print(f"wrote {path}")
    n_finite = sum(1 for e in graph.edges if e.kind == "finite")
    print(f"edges: {len(graph.edges)} ({n_finite} finite), "
          f"complexes: {len(graph.complexes)}")
    if graph.incomplete:
        print("warning: graph incomplete (truncated trajectories)")
        return 4
    return 0


def cmd_geodesics(args) -> int:
    config = _load_config(args)
    poly = _poly_from_arg(args.poly).rotate(args.t)
    survey = survey_short_geodesics(poly, config)
    report = {
        "polynomial": poly.to_json_obj(),
        "count": len(survey.geodesics),
        "geodesics": [{
            "pair": list(g.pair),
            "t_star": g.t_star,
            "period": _c2j(g.period),
            "polyline": [_c2j(z) for z in douglas_peucker(
                g.polyline, config.svg_decimate_factor)],
        } for g in survey.geodesics],
        "errors": [{"pair": list(p), "message": m} for p, m in survey.errors],
        "warnings": survey.warnings,
    }
    for g in survey.geodesics:
        print(f"pair {g.pair}: t* = {g.t_star:.12f}, |w| = {abs(g.period):.12g}")
    if "json" in config.formats:
        print("wrote", _write_json(config, "geodesics.json", report))
    if "svg" in config.formats:
        graph = build_stokes_graph(poly, config)
        tol = config.svg_decimate_factor * graph.scales.d_unit
        print("wrote", _write_text(
            config, "geodesics.svg",
            render_stokes_graph(graph, decimate=tol,
                                geodesics=survey.geodesics)))
    return 0


def cmd_rays(args) -> int:
    config = _load_config(args)
    poly = _poly_from_arg(args.poly).rotate(args.t)
    rays = accumulation_rays(poly, config)
    from .pathint import alpha_contour_integrals
    entries = []
    for ray in rays:
        alphas = alpha_contour_integrals(poly, ray.contour,
                                         config.alpha_order, config)
        entries.append({
            "angle": ray.angle,
            "pair": list(ray.geodesic.pair),
            "loop_period": _c2j(ray.loop_period),
            "alpha_integrals": [_c2j(a) for a in alphas],
        })
        print(f"ray angle {ray.angle:.12f}  pair {ray.geodesic.pair}  "
              f"|loop| {abs(ray.loop_period):.12g}")
    if "json" in config.formats:
        print("wrote", _write_json(config, "rays.json", {"rays": entries}))
    return 0


def cmd_eigenvalues(args) -> int:
    config = _load_config(args)
    poly = _poly_from_arg(args.poly).rotate(args.t)
    rays = accumulation_rays(poly, config)
    if not rays:
        print("no accumulation rays")
        return 0
    if not (0 <= args.ray < len(rays)):
        raise ParseError(f"ray index {args.ray} out of range 0..{len(rays)-1}")
    try:
        n_min, n_max = (int(p) for p in args.n.split(".."))
    except ValueError:
        raise ParseError(f"bad --n range {args.n!r}; expected like 0..5") from None
    estimates = eigenvalue_asymptotics(poly, rays[args.ray], n_min, n_max,
                                       order=args.order, config=config)
    for est in estimates:
        print(f"n={est.n}: lambda = {est.value.real:+.12g}"
              f"{est.value.imag:+.12g}i  (residual {est.residual:.2g})")
    zeros = None
    if args.wronskian:
        try:
            parts = [float(x) for x in args.wronskian.split(",")]
            rect = (parts[0], parts[1], parts[2], parts[3])
        except (ValueError, IndexError):
            raise ParseError(
                f"bad --wronskian rectangle {args.wronskian!r}; expected "
                "re_lo,re_hi,im_lo,im_hi") from None
        from .spectrum import wronskian_eigenvalue_search, wronskian_sectors
        j1, j2 = wronskian_sectors(poly, rays[args.ray], config)
        zeros = wronskian_eigenvalue_search(poly, (j1, j2), rect,
                                            config=config)
        if not zeros:
            leading = estimates if args.order == 0 else eigenvalue_asymptotics(
                poly, rays[args.ray], n_min, n_max, order=0, config=config)
            inside = [e for e in leading
                      if rect[0] < e.value.real < rect[1]
                      and rect[2] < e.value.imag < rect[3]]
            if inside:
                raise NumericalError(
                    f"Wronskian search with sectors ({j1}, {j2}) found no "
                    f"zero in {rect}, where the order-0 asymptotics place "
                    f"{len(inside)} eigenvalue(s)")
        for z in zeros:
            print(f"wronskian zero: {z.real:+.12g}{z.imag:+.12g}i")
    if "json" in config.formats:
        payload = {
            "ray_angle": rays[args.ray].angle,
            "order": args.order,
            "estimates": [{
                "n": e.n, "value": _c2j(e.value),
                "residual": e.residual, "converged": e.converged,
            } for e in estimates],
        }
        if zeros is not None:
            payload["wronskian_zeros"] = [_c2j(z) for z in zeros]
        _write_json(config, "eigenvalues.json", payload)
    if "csv" in config.formats:
        lines = ["n,re_lambda,im_lambda"]
        lines += [f"{e.n},{e.value.real!r},{e.value.imag!r}"
                  for e in estimates]
        print("wrote", _write_text(config, "eigenvalues.csv",
                                   "\n".join(lines) + "\n"))
    return 0


def cmd_strip_realize(args) -> int:
    config = _load_config(args)
    strip = realize_count(args.d, args.k)
    count = len(visible_pairs(strip))
    print(f"d={args.d} k={args.k}: verified visible pairs = {count}")
    if "json" in config.formats:
        print("wrote", _write_json(config, "strip.json", strip.to_json_obj()))
    if "svg" in config.formats:
        print("wrote", _write_text(config, "strip.svg", render_strip(strip)))
    return 0


def cmd_chords(args) -> int:
    config = _load_config(args)
    poly = _poly_from_arg(args.poly).rotate(args.t)
    stokes, anti = chord_diagram(poly, config)

    def as_json(diag):
        return {"n_vertices": diag.n_vertices,
                "chords": [{"vertices": list(v), "weight": w}
                           for v, w in diag.chords]}

    print(f"stokes chords: {[(list(v), round(w, 9)) for v, w in stokes.chords]}")
    print(f"orthogonal chords: {[(list(v), round(w, 9)) for v, w in anti.chords]}")
    if "json" in config.formats:
        print("wrote", _write_json(config, "chords.json", {
            "stokes": as_json(stokes), "anti_stokes": as_json(anti)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokesgeo",
        description="Stokes graphs, short geodesics and spectral "
                    "accumulation rays of polynomial potentials")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, poly=True):
        if poly:
            sp.add_argument("--poly", required=True,
                            help="coefficients highest-first, e.g. '1,0,-1', "
                                 "or a JSON file/literal {\"coeffs\": ...}")
            sp.add_argument("--t", type=float, default=0.0,
                            help="rotation angle of the family member")
        sp.add_argument("--config", help="JSON file overriding RunConfig fields")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--format", help="comma-separated: json,svg,csv")
        sp.add_argument("--seed", type=int, help="seed recorded in reports")

    sp = sub.add_parser("roots", help="roots, multiplicities and sectors")
    common(sp)
    sp.set_defaults(func=cmd_roots)

    sp = sub.add_parser("stokes-graph", help="trace and dump the Stokes graph")
    common(sp)
    sp.set_defaults(func=cmd_stokes_graph)

    sp = sub.add_parser("geodesics", help="enumerate short geodesics")
    common(sp)
    sp.set_defaults(func=cmd_geodesics)

    sp = sub.add_parser("rays", help="accumulation rays and loop integrals")
    common(sp)
    sp.set_defaults(func=cmd_rays)

    sp = sub.add_parser("eigenvalues", help="eigenvalue asymptotics on a ray")
    common(sp)
    sp.add_argument("--ray", type=int, default=0, help="ray index")
    sp.add_argument("--n", default="0..10", help="index range, e.g. 0..5")
    sp.add_argument("--order", type=int, default=0,
                    help="number of correction terms")
    sp.add_argument("--wronskian", default=None, metavar="RECT",
                    help="also locate Wronskian zeros in the rectangle "
                         "re_lo,re_hi,im_lo,im_hi")
    sp.set_defaults(func=cmd_eigenvalues)

    sp = sub.add_parser("strip-realize",
                        help="chopped strip with a prescribed count")
    sp.add_argument("d", type=int)
    sp.add_argument("k", type=int)
    common(sp, poly=False)
    sp.set_defaults(func=cmd_strip_realize)

    sp = sub.add_parser("chords", help="weighted chord diagrams")
    common(sp)
    sp.set_defaults(func=cmd_chords)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IncompleteGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (NumericalError, StokesGeoError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        residuals = getattr(exc, "residuals", None)
        if residuals:
            shown = ", ".join(f"{r:.3g}" for r in residuals[:5])
            print(f"residuals: {shown}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
