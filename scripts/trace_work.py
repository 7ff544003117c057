#!/usr/bin/env python3
"""Work counts of the tracer over one pass of a benchmark workload's inputs.

    PYTHONPATH=src python3 scripts/trace_work.py --inputs chord --seed 101

Makes the inputs of the ``chord_diagrams`` (``--inputs chord``) or
``ray_survey`` (``--inputs survey``) workload with ``bench/workloads.py``,
runs each through that workload's operation once, and prints counts of
the tracer's work, which depend only on the inputs:

- traces;
- DP5 step attempts: accepted, rejected, and cap-bound, those whose step
  the root-distance cap h <= near_d/4 set;
- drift chords, by Gauss-Lobatto rule (6-point and 7-point);
- landings by kind (a trace's launch on its own root's rungs, a hit on the
  target's rungs, an escape on the ladder of circles at infinity), with
  the circles they land on and the Halley passes they make, apart for the
  landings made during a trace (its launch rung and its escape circle)
  and those made when a polyline is read (the inner rungs and ladder
  circles, ``tracer.land_polyline``).

The counts come from wrappers around the tracer's functions; nothing in
the package or the benchmark is changed.
"""

import argparse
import collections
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from stokesgeo import tracer  # noqa: E402
from stokesgeo.polynomial import (ComplexPolynomial, PolyContext,  # noqa: E402
                                  turning_points)

LANDING_KINDS = ("launch", "hit", "escape")


def count_work(run):
    """Call ``run()`` with the tracer's functions wrapped; return a
    Counter of the tracer's work."""
    counts = collections.Counter()
    current = []      # the context of the trace in progress
    landing = False   # inside _land, whose P evaluations are counted
    originals = {name: getattr(tracer, name) for name in
                 ("trace_stokes_line", "_dp5_step", "_chord_re_integral",
                  "_land")}
    evaluate = ComplexPolynomial.evaluate

    def trace(poly, root_index, direction, config=tracer.DEFAULT_CONFIG,
              context=None):
        counts["traces"] += 1
        current.append(context if context is not None
                       else PolyContext.of(poly, config))
        try:
            return originals["trace_stokes_line"](poly, root_index, direction,
                                                  config, context)
        finally:
            current.pop()

    def dp5_step(poly, z, w, k0, h):
        counts["attempts"] += 1
        # the tracer caps h at a quarter of the distance from the step's
        # start to the nearest root, computed the same way
        if h == current[-1].nearest_root(z)[1] / 4.0:
            counts["cap_bound"] += 1
        return originals["_dp5_step"](poly, z, w, k0, h)

    def chord(poly, z0, w0, z1, w1, rule=tracer._LOBATTO_6):
        counts["chords_7" if rule is tracer._LOBATTO_7 else "chords_6"] += 1
        return originals["_chord_re_integral"](poly, z0, w0, z1, w1, rule)

    def land(ctx, series, z_c, w_c, level, radii, root_index, direction):
        nonlocal landing
        if not series.at_root:
            kind = "escape"
        elif series is ctx.tps.at_roots[root_index]:
            kind = "launch"
        else:
            kind = "hit"
        if not current:
            kind = "read " + kind
        counts[kind] += 1
        counts[kind + "_circles"] += len(radii)
        before = counts["land_evals"]
        landing = True
        try:
            return originals["_land"](ctx, series, z_c, w_c, level, radii,
                                      root_index, direction)
        finally:
            landing = False
            # each Halley pass evaluates P and P' once
            counts[kind + "_passes"] += (counts["land_evals"] - before) // 2

    def counted_evaluate(self, z):
        if landing:
            counts["land_evals"] += 1
        return evaluate(self, z)

    # trace_stokes_line is also bound by name in the modules that import it
    holders = [module for name, module in list(sys.modules.items())
               if name.startswith("stokesgeo") and getattr(
                   module, "trace_stokes_line", None)
               is originals["trace_stokes_line"]]
    wrappers = {"_dp5_step": dp5_step, "_chord_re_integral": chord,
                "_land": land}
    try:
        for module in holders:
            module.trace_stokes_line = trace
        for name, wrapper in wrappers.items():
            setattr(tracer, name, wrapper)
        ComplexPolynomial.evaluate = counted_evaluate
        run()
    finally:
        ComplexPolynomial.evaluate = evaluate
        for module in holders:
            module.trace_stokes_line = originals["trace_stokes_line"]
        for name in wrappers:
            setattr(tracer, name, originals[name])
    counts["accepted"] = counts["chords_6"] + counts["chords_7"]
    counts["rejected"] = counts["attempts"] - counts["accepted"]
    return counts


def report(counts):
    """The printed lines of a Counter from ``count_work``."""
    lines = [
        f"traces {counts['traces']}",
        f"dp5 attempts {counts['attempts']}: accepted {counts['accepted']}, "
        f"rejected {counts['rejected']}, cap-bound {counts['cap_bound']}",
        f"drift chords {counts['accepted']}: 6-point {counts['chords_6']}, "
        f"7-point {counts['chords_7']}",
    ]
    for when in ("", "read "):
        for kind in LANDING_KINDS:
            kind = when + kind
            lines.append(f"landings {kind} {counts[kind]}: circles "
                         f"{counts[kind + '_circles']}, halley passes "
                         f"{counts[kind + '_passes']}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--inputs", choices=("chord", "survey"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    import workloads as wl
    make, run, polys = {
        "chord": (wl.chord_inputs, wl.run_chords, wl.chord_polys),
        "survey": (wl.survey_inputs, wl.run_survey, wl.survey_polys),
    }[args.inputs]
    items = make(args.seed)
    # the benchmark's set-up finds these roots before it times a pass
    for item in items:
        for poly in polys(item):
            turning_points(poly)
    counts = count_work(lambda: [run(item) for item in items])
    print(f"inputs {args.inputs} seed {args.seed}: {len(items)} "
          f"polynomials, one pass")
    print("\n".join(report(counts)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
