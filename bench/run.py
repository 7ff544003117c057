"""Benchmark of stokesgeo: seeded workloads through the public API, with
every output checked, timed in one process and one thread.

    python3 bench/run.py --workload ray_survey --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The run repeats whole passes over the workload's inputs until
``--seconds`` have gone by (at least one pass), checks each output, and
prints one JSON object as the last line of standard output.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a run with spans around the package's public
functions, and it writes the spans to ``bench/out/``.  Times are scaled
to a fixed host speed measured around each timed operation (see
``hostspeed.py``); the measured times go to standard error.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

PROCESS_START = time.perf_counter()

# numpy and its BLAS run on one thread; children inherit the setting
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 7           # set-ups timed per run, in fresh interpreters
WORKLOAD_NAMES = ("ray_survey", "chord_diagrams", "wronskian_spectrum")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time "
                             "set-up in a fresh interpreter)")
    return parser.parse_args(argv)


def import_package():
    """Import stokesgeo from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "stokesgeo" / "__init__.py").is_file():
        sys.exit(f"bench: no stokesgeo sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import stokesgeo
    if Path(stokesgeo.__file__).resolve().parent != src / "stokesgeo":
        sys.exit(f"bench: imported stokesgeo from {stokesgeo.__file__}")
    return stokesgeo


def set_up(name, seed):
    """Import, make the inputs, and warm the root-finding cache with every
    polynomial the workload hands to the package."""
    stokesgeo = import_package()
    import workloads as wl
    make, run, check, polys = {
        "ray_survey": (wl.survey_inputs, wl.run_survey, wl.check_survey,
                       wl.survey_polys),
        "chord_diagrams": (wl.chord_inputs, wl.run_chords, wl.check_chords,
                           wl.chord_polys),
        "wronskian_spectrum": (wl.spectrum_inputs, wl.run_spectrum,
                               wl.check_spectrum, wl.spectrum_polys),
    }[name]
    items = make(seed)
    for item in items:
        for poly in polys(item):
            stokesgeo.turning_points(poly)
    return stokesgeo, items, run, check


def time_setups(args):
    """Median over fresh interpreters of the time from process start to
    the end of set-up, measured and scaled to the reference host speed."""
    import hostspeed
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]

    def set_up_child():
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            ready_s = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            sys.exit(f"bench: set-up child failed with code {code}")
        return ready_s

    samples, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        # the child runs while this process waits, so probe only around it;
        # the call also waits for the child to exit, which is not set-up
        ready_s, call_s, scaled_call_s, _ = hostspeed.timed(set_up_child,
                                                            inside=False)
        if isinstance(ready_s, Exception):
            raise ready_s
        samples.append(ready_s)
        scaled.append(ready_s * scaled_call_s / call_s)
    return statistics.median(scaled), statistics.median(samples)


def main(argv=None):
    args = parse_args(argv)
    stokesgeo, items, run, check = set_up(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    import hostspeed
    if not args.trace:
        setup_s, raw_setup_s = time_setups(args)

    recorder = None
    if args.trace:
        import tracing
        recorder = tracing.Recorder()
        recorder.install()

    attempted = failed = wrong = 0
    item_s, pass_s, raw_pass_s, pass_spans = [], [], [], []
    problems_seen = []
    t_start = time.perf_counter()
    while not pass_s or time.perf_counter() - t_start < args.seconds:
        first_span = len(recorder.spans) if recorder else 0
        outputs = []
        raw_pass = 0.0
        probe_s = None
        for item in items:
            attempted += 1
            # the trace's span times must not hold probes, so a traced run
            # probes only between items
            out, measured, scaled, probe_s = hostspeed.timed(
                run, item, before=probe_s, inside=not recorder)
            if (isinstance(out, Exception)
                    and not isinstance(out, stokesgeo.StokesGeoError)):
                raise out
            item_s.append(scaled)
            raw_pass += measured
            outputs.append(out)
        pass_s.append(sum(item_s[-len(items):]))
        raw_pass_s.append(raw_pass)
        if recorder:
            pass_spans.append((first_span, len(recorder.spans)))
        for item, out in zip(items, outputs):
            if isinstance(out, stokesgeo.StokesGeoError):
                failed += 1
                problems = [f"raised {type(out).__name__}: {out}"]
            else:
                problems = check(item, out)
                if problems:
                    failed += 1
                    wrong += 1
            problems_seen.extend(problems)

    for line in dict.fromkeys(problems_seen):
        print(f"bench: {args.workload}: {line}", file=sys.stderr)
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed}
    per_item = [statistics.median(item_s[k::len(items)])
                for k in range(len(items))]
    if recorder:
        per_pass = [tracing.pass_metrics(recorder.spans[a:b], s)
                    for (a, b), s in zip(pass_spans, pass_s)]
        result["metrics"] = {
            name: {"value": statistics.median(m[name] for m in per_pass),
                   "unit": unit}
            for name, unit in tracing.LAYER_METRICS}
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        recorder.write(out_dir / f"spans-{args.workload}-{args.seed}.csv")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"] = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(pass_s), "unit": "s"},
            "item_p50_s": {"value": statistics.median(per_item), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    print(f"bench: {args.workload} seed {args.seed}: "
          f"{time.perf_counter() - PROCESS_START:.1f} s in all"
          + ("" if args.trace else f"; set-up measured {raw_setup_s:.3f}")
          + "; passes measured "
          + " ".join(f"{s:.3f}" for s in raw_pass_s) + ", scaled "
          + " ".join(f"{s:.3f}" for s in pass_s) + "; scaled item medians "
          + " ".join(f"{s:.3f}" for s in per_item), file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
