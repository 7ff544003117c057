"""Spans around the public functions of stokesgeo, recorded from outside.

``Recorder.install()`` wraps the functions listed in ``TARGETS`` and puts
each wrapper in place of the original everywhere in the package, including
the modules that imported the function by name, and counts calls of
``ComplexPolynomial.evaluate`` against the innermost open span.  Spans are
kept in memory; ``pass_metrics`` turns the spans of one pass into the
per-layer metrics and ``write`` stores them as CSV at the end of a run.
"""

from __future__ import annotations

import csv
import functools
import inspect
import math
import sys
import time

# span fields
NAME, MODULE, START, END, PARENT, INFO, EVALS, INDEX = range(8)


def _trace_info(bound, result):
    polyline, fate = result
    kind = type(fate).__name__
    return (bool(bound.get("track_drift", True)), len(polyline), kind)


def _verify_info(bound, result):
    if type(result).__name__ != "ShortGeodesic":
        return False
    d = math.remainder(result.t_star - bound["t"], math.pi)
    return abs(d) <= 1e-12


def _face_info(result):
    return (len(result.domains), len(result.strips))


# (module, function, info extractor, extractor needs bound arguments); a
# function with no extractor is wrapped so that its self time counts in
# its own module rather than in its caller's
TARGETS = (
    ("polynomial", "turning_points", None, False),
    ("pathint", "period_for_pair", None, False),
    ("pathint", "pairwise_periods", None, False),
    ("pathint", "integrate_chord", None, False),
    ("pathint", "integrate_chord_from_root", None, False),
    ("pathint", "contour_integral", None, False),
    ("pathint", "alpha_contour_integrals", None, False),
    ("tracer", "trace_stokes_line", _trace_info, True),
    ("tracer", "build_stokes_graph", None, False),
    ("geodesics", "candidate_angles", len, False),
    ("geodesics", "verify_geodesic", _verify_info, True),
    ("geodesics", "survey_short_geodesics",
     lambda r: len(r.geodesics), False),
    ("domains", "build_face_set", _face_info, False),
    ("domains", "chord_diagram", None, False),
    ("spectrum", "accumulation_rays", len, False),
    ("spectrum", "eigenvalue_asymptotics", None, False),
    ("spectrum", "wronskian_eigenvalue_search", len, False),
)

LAYER_METRICS = (
    ("polynomial.root_calls", "count"),
    ("polynomial.root_s", "s"),
    ("pathint.periods", "count"),
    ("pathint.chords", "count"),
    ("pathint.root_chords", "count"),
    ("pathint.contours", "count"),
    ("pathint.evals", "count"),
    ("pathint.evals_per_chord", "evals/chord"),
    ("pathint.self_s", "s"),
    ("tracer.probe_traces", "count"),
    ("tracer.output_traces", "count"),
    ("tracer.vertices", "count"),
    ("tracer.hits", "count"),
    ("tracer.escapes", "count"),
    ("tracer.truncated", "count"),
    ("tracer.graphs", "count"),
    ("tracer.evals", "count"),
    ("tracer.evals_per_vertex", "evals/vertex"),
    ("tracer.s_per_trace", "s/trace"),
    ("tracer.self_s", "s"),
    ("geodesics.candidates", "count"),
    ("geodesics.verifications", "count"),
    ("geodesics.direct", "count"),
    ("geodesics.misses", "count"),
    ("geodesics.miss_s", "s"),
    ("geodesics.traces_per_verification", "traces/verif"),
    ("geodesics.found", "count"),
    ("geodesics.self_s", "s"),
    ("domains.face_sets", "count"),
    ("domains.faces", "count"),
    ("domains.strips", "count"),
    ("domains.self_s", "s"),
    ("spectrum.rays", "count"),
    ("spectrum.alpha_sets", "count"),
    ("spectrum.searches", "count"),
    ("spectrum.zeros", "count"),
    ("spectrum.evals", "count"),
    ("spectrum.s_per_eval", "s/eval"),
    ("spectrum.self_s", "s"),
    ("traced.wall_s", "s"),
)


class Recorder:
    """Span store: each span is a list indexed by the field constants."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._outside = [None, "", 0.0, 0.0, -1, None, 0, -1]
        self._top = self._outside       # takes evaluations outside spans

    def open(self, name: str, module: str) -> list:
        parent = self._stack[-1][INDEX] if self._stack else -1
        span = [name, module, 0.0, 0.0, parent, None, 0, len(self.spans)]
        self.spans.append(span)
        self._stack.append(span)
        self._top = span
        span[START] = time.perf_counter()
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()
        self._top = self._stack[-1] if self._stack else self._outside

    def _wrap(self, module, name, fn, info, needs_bound):
        rec = self
        sig = inspect.signature(fn) if needs_bound else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = rec.open(name, module)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(span)
            if info is not None:
                if needs_bound:
                    bound = sig.bind(*args, **kwargs).arguments
                    span[INFO] = info(bound, result)
                else:
                    span[INFO] = info(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target and the evaluation counter, package-wide."""
        pkg_modules = [m for n, m in sorted(sys.modules.items())
                       if n == "stokesgeo" or n.startswith("stokesgeo.")]
        for module, name, info, needs_bound in TARGETS:
            original = getattr(sys.modules["stokesgeo." + module], name)
            wrapper = self._wrap(module, name, original, info, needs_bound)
            for mod in pkg_modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        poly_cls = sys.modules["stokesgeo.polynomial"].ComplexPolynomial
        evaluate = poly_cls.evaluate
        rec = self

        def counted_evaluate(self_, z):
            rec._top[EVALS] += 1
            return evaluate(self_, z)

        poly_cls.evaluate = counted_evaluate

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "module", "start_s", "end_s",
                          "parent", "evals", "info"])
            t0 = self.spans[0][START] if self.spans else 0.0
            for span in self.spans:
                out.writerow([span[INDEX], span[NAME], span[MODULE],
                              f"{span[START] - t0:.9f}",
                              f"{span[END] - t0:.9f}", span[PARENT],
                              span[EVALS], "" if span[INFO] is None
                              else span[INFO]])


def pass_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one pass, from its spans (a contiguous slice
    of the recorder's spans, parents before children)."""
    first = spans[0][INDEX] if spans else 0
    n = len(spans)
    child_s = [0.0] * n
    under_verify = [False] * n
    for i, span in enumerate(spans):
        p = span[PARENT] - first
        if 0 <= p < n:
            child_s[p] += span[END] - span[START]
            under_verify[i] = (under_verify[p]
                               or spans[p][NAME] == "verify_geodesic")
    self_s: dict[str, float] = {}
    evals: dict[str, int] = {}
    calls: dict[str, int] = {}
    for i, span in enumerate(spans):
        mod = span[MODULE]
        self_s[mod] = self_s.get(mod, 0.0) + (span[END] - span[START]
                                              - child_s[i])
        evals[mod] = evals.get(mod, 0) + span[EVALS]
        calls[span[NAME]] = calls.get(span[NAME], 0) + 1

    def total(name, field=None):
        acc = 0
        for span in spans:
            if span[NAME] == name:
                if field is None:
                    acc += span[END] - span[START]
                elif span[INFO] is not None:
                    acc += field(span)
        return acc

    def ratio(a, b):
        return a / b if b else 0.0

    # a call that raised has no info; it counts as a trace of no vertices
    traces = [s if s[INFO] else s[:INFO] + [(False, 0, "raised")] + s[EVALS:]
              for s in spans if s[NAME] == "trace_stokes_line"]
    verifies = [s for s in spans if s[NAME] == "verify_geodesic"]
    misses = [s for s in verifies if not s[INFO]]
    vertices = sum(s[INFO][1] for s in traces)
    chords = calls.get("integrate_chord", 0)
    root_chords = calls.get("integrate_chord_from_root", 0)
    m = {
        "polynomial.root_calls": calls.get("turning_points", 0),
        "polynomial.root_s": total("turning_points"),
        "pathint.periods": calls.get("period_for_pair", 0),
        "pathint.chords": chords,
        "pathint.root_chords": root_chords,
        "pathint.contours": calls.get("contour_integral", 0),
        "pathint.evals": evals.get("pathint", 0),
        "pathint.evals_per_chord": ratio(evals.get("pathint", 0),
                                         chords + root_chords),
        "pathint.self_s": self_s.get("pathint", 0.0),
        "tracer.probe_traces": sum(1 for s in traces if not s[INFO][0]),
        "tracer.output_traces": sum(1 for s in traces if s[INFO][0]),
        "tracer.vertices": vertices,
        "tracer.hits": sum(1 for s in traces
                           if s[INFO][2] == "HitTurningPoint"),
        "tracer.escapes": sum(1 for s in traces
                              if s[INFO][2] == "EscapedToRay"),
        "tracer.truncated": sum(1 for s in traces
                                if s[INFO][2] == "Truncated"),
        "tracer.graphs": calls.get("build_stokes_graph", 0),
        "tracer.evals": evals.get("tracer", 0),
        "tracer.evals_per_vertex": ratio(evals.get("tracer", 0), vertices),
        "tracer.s_per_trace": ratio(total("trace_stokes_line"), len(traces)),
        "tracer.self_s": self_s.get("tracer", 0.0),
        "geodesics.candidates": total("candidate_angles", lambda s: s[INFO]),
        "geodesics.verifications": len(verifies),
        "geodesics.direct": len(verifies) - len(misses),
        "geodesics.misses": len(misses),
        "geodesics.miss_s": sum(s[END] - s[START] for s in misses),
        "geodesics.traces_per_verification": ratio(
            sum(1 for i, s in enumerate(spans)
                if s[NAME] == "trace_stokes_line" and under_verify[i]),
            len(verifies)),
        "geodesics.found": total("survey_short_geodesics", lambda s: s[INFO]),
        "geodesics.self_s": self_s.get("geodesics", 0.0),
        "domains.face_sets": calls.get("build_face_set", 0),
        "domains.faces": total("build_face_set", lambda s: s[INFO][0]),
        "domains.strips": total("build_face_set", lambda s: s[INFO][1]),
        "domains.self_s": self_s.get("domains", 0.0),
        "spectrum.rays": total("accumulation_rays", lambda s: s[INFO]),
        "spectrum.alpha_sets": calls.get("alpha_contour_integrals", 0),
        "spectrum.searches": calls.get("wronskian_eigenvalue_search", 0),
        "spectrum.zeros": total("wronskian_eigenvalue_search",
                                lambda s: s[INFO]),
        "spectrum.evals": evals.get("spectrum", 0),
        "spectrum.s_per_eval": ratio(self_s.get("spectrum", 0.0),
                                     evals.get("spectrum", 0)),
        "spectrum.self_s": self_s.get("spectrum", 0.0),
        "traced.wall_s": wall_s,
    }
    return m
