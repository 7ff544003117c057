#!/usr/bin/env python3
"""Work counts of the tracer or the Wronskian zero search over one pass of
a benchmark workload's inputs.

    PYTHONPATH=src python3 scripts/trace_work.py --inputs chord --seed 101

Makes the inputs of the ``chord_diagrams`` (``--inputs chord``),
``ray_survey`` (``--inputs survey``) or ``wronskian_spectrum``
(``--inputs spectrum``) workload with ``bench/workloads.py``, runs each
through that workload's operation once, and prints counts of the work,
which depend only on the inputs.  For the spectrum they are the windings
(boundaries wound) and, apart for the winding (rtol 1e-7) and the
polishing (rtol 1e-11), the subdominant integrations
(``spectrum._integrate_inward`` calls), their lambdas, Taylor steps and
lane-steps (steps times lambdas times start points).  For the others
they are the tracer's:

- traces;
- DP5 step attempts: accepted, rejected, and cap-bound, those whose step
  the root-distance cap h <= near_d/4 set;
- drift chords, by Gauss-Lobatto rule (6-point and 7-point);
- landings by kind (a trace's launch on its own root's rungs, a hit on the
  target's rungs, an escape on the ladder of circles at infinity), with
  the circles they land on and the Halley passes they make, apart for the
  landings made during a trace (its launch rung and its escape circle)
  and those made when a polyline is read (the inner rungs and ladder
  circles, ``tracer.land_polyline``);
- the trapping-cone certificate's checks and refusals, and where the
  traces' escapes are decided: the median and largest |z|/R0 of the
  vertices the certificate held at, and the escapes moved back from past
  the escape circle;
- the series terms that the traces' escape landings use: the chart at
  the deciding vertex (median and largest) and the primitive on the
  escape circle (largest).

The counts come from wrappers around the package's functions; nothing in
the package or the benchmark is changed.
"""

import argparse
import collections
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from stokesgeo import spectrum, tracer  # noqa: E402
from stokesgeo.polynomial import (ComplexPolynomial, PolyContext,  # noqa: E402
                                  turning_points)

LANDING_KINDS = ("launch", "hit", "escape")


def count_work(run):
    """Call ``run()`` with the tracer's functions wrapped; return a
    Counter of the tracer's work and, for each escape a trace landed, its
    deciding vertex's |z|/R0 (None when the vertex lay past the escape
    circle), the chart's terms there and the primitive's terms on the
    escape circle."""
    counts = collections.Counter()
    escapes = []
    current = []      # the context of the trace in progress
    landing = False   # inside _land, whose P evaluations are counted
    originals = {name: getattr(tracer, name) for name in
                 ("trace_stokes_line", "_dp5_step", "_chord_re_integral",
                  "_land", "_in_cone")}
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
        elif kind == "escape":
            r = abs(z_c)
            escapes.append((r / series.r0 if r < ctx.scales.r_escape
                            else None, series.terms(r),
                            max(map(series.terms, radii))))
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

    def in_cone(cone, sectors, z, r):
        counts["cone_checks"] += 1
        holds = originals["_in_cone"](cone, sectors, z, r)
        counts["cone_refused"] += not holds
        return holds

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
                "_land": land, "_in_cone": in_cone}
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
    return counts, escapes


def count_spectrum_work(run):
    """Call ``run()`` with the Wronskian search's winding and integration
    wrapped; return a Counter of their work, keyed by "windings" and by
    "winding" or "polishing" before " calls", " lambdas", " steps" and
    " lane-steps"."""
    counts = collections.Counter()
    originals = {name: getattr(spectrum, name)
                 for name in ("_winding", "_integrate_inward")}

    def winding(*args):
        counts["windings"] += 1
        return originals["_winding"](*args)

    def integrate(poly, lams, starts, z1, rtol):
        out = originals["_integrate_inward"](poly, lams, starts, z1, rtol)
        kind = "winding" if rtol == 1e-7 else "polishing"
        counts[kind + " calls"] += 1
        counts[kind + " lambdas"] += len(lams)
        counts[kind + " steps"] += out[3]
        counts[kind + " lane-steps"] += out[3] * len(lams) * len(starts)
        return out

    try:
        spectrum._winding = winding
        spectrum._integrate_inward = integrate
        run()
    finally:
        for name, original in originals.items():
            setattr(spectrum, name, original)
    return counts


def spectrum_report(counts):
    """The printed lines of the counts from ``count_spectrum_work``."""
    return [f"windings {counts['windings']}"] + [
        f"{kind} integrations {counts[kind + ' calls']}: lambdas "
        f"{counts[kind + ' lambdas']}, taylor steps {counts[kind + ' steps']}"
        f", lane-steps {counts[kind + ' lane-steps']}"
        for kind in ("winding", "polishing")]


def report(counts, escapes):
    """The printed lines of the counts and escapes from ``count_work``."""
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
    certified = [x for x, _, _ in escapes if x is not None]
    lines += [
        f"cone checks {counts['cone_checks']}: refused "
        f"{counts['cone_refused']}",
        f"escapes certified {len(certified)} at |z|/R0 median "
        f"{statistics.median(certified) if certified else 0.0:.2f}, max "
        f"{max(certified, default=0.0):.2f}; past the escape circle "
        f"{len(escapes) - len(certified)}",
        f"escape series terms: chart at the vertex median "
        f"{statistics.median_low([n for _, n, _ in escapes] or [0])}, max "
        f"{max((n for _, n, _ in escapes), default=0)}; primitive on the "
        f"circle max {max((n for _, _, n in escapes), default=0)}",
    ]
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--inputs", choices=("chord", "survey", "spectrum"),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    import workloads as wl
    make, run, polys = {
        "chord": (wl.chord_inputs, wl.run_chords, wl.chord_polys),
        "survey": (wl.survey_inputs, wl.run_survey, wl.survey_polys),
        "spectrum": (wl.spectrum_inputs, wl.run_spectrum, wl.spectrum_polys),
    }[args.inputs]
    items = make(args.seed)
    # the benchmark's set-up finds these roots before it times a pass
    for item in items:
        for poly in polys(item):
            turning_points(poly)

    def one_pass():
        for item in items:
            run(item)
    if args.inputs == "spectrum":
        lines = spectrum_report(count_spectrum_work(one_pass))
        noun = "searches"
    else:
        lines = report(*count_work(one_pass))
        noun = "polynomials"
    print(f"inputs {args.inputs} seed {args.seed}: {len(items)} {noun}, "
          "one pass")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
