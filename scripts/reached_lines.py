#!/usr/bin/env python3
"""Statements of the package that a fixed traffic never reaches.

    PYTHONPATH=src python3 scripts/reached_lines.py [--quick]

Runs the traffic below under ``sys.settrace`` and prints, for each module
of ``src/stokesgeo``, how many of its functions were called and how many
of their statements ran, the functions that were never called, and for
each function that was called, the first lines of the statements that
never ran (an ``except`` clause counts as a statement; a compound
statement counts by its header alone).  The traffic is

- the README examples (the commands of ``tests/test_cli_golden.py``);
- one pass of each benchmark workload's seed-101 inputs, through the
  workload's operation (``bench/workloads.py`` ``run_*``);
- the survey and the very-flat projection of ``stream_polys(20260808,
  10)`` and ``stream_polys(1, 10)``;
- the chord diagram of every third ``criterion_6_polys()`` input;
- the survey of ``_far_root_draw(k)``, k = 0..39;
- the census draws of degrees 6, 8, 12 and 16, three each at seed 4242
  (``scripts/geodesic_census.py``), surveyed.

``--quick`` runs the README examples alone.  An input that fails with a
typed error (``StokesGeoError``) counts in the traffic line's failures
and the run goes on.  A line reached only in a failing call still counts
as reached.
"""

import argparse
import ast
import importlib.util
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stokesgeo"
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "bench")]

import stokesgeo  # noqa: E402
from stokesgeo import StokesGeoError  # noqa: E402
from tests.conftest import (_far_root_draw, criterion_6_polys,  # noqa: E402
                            random_simple_poly, stream_polys)
from tests.test_cli_golden import run_examples  # noqa: E402


def _readme_examples():
    with tempfile.TemporaryDirectory() as tmp:
        run_examples(Path(tmp))


def _census(seed=4242, degrees=(6, 8, 12, 16), trials=3):
    spec = importlib.util.spec_from_file_location(
        "geodesic_census", ROOT / "scripts" / "geodesic_census.py")
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    rng = random.Random(seed)
    return [random_simple_poly(rng, d, radius=census.census_radius(d))
            for d in degrees for _ in range(trials)]


def traffic(quick):
    """(label, operation, inputs) of each part of the traffic."""
    parts = [("README examples", lambda _: _readme_examples(), [None])]
    if quick:
        return parts
    import workloads as wl

    streams = stream_polys(20260808, 10) + stream_polys(1, 10)
    return parts + [
        ("ray_survey seed 101", wl.run_survey, wl.survey_inputs(101)),
        ("chord_diagrams seed 101", wl.run_chords, wl.chord_inputs(101)),
        ("wronskian_spectrum seed 101", wl.run_spectrum,
         wl.spectrum_inputs(101)),
        ("stream surveys", stokesgeo.survey_short_geodesics, streams),
        ("stream very-flat projections", stokesgeo.is_very_flat, streams),
        ("criterion-6 chord diagrams", stokesgeo.chord_diagram,
         criterion_6_polys()[::3]),
        ("far-root surveys", stokesgeo.survey_short_geodesics,
         [_far_root_draw(k) for k in range(40)]),
        ("census surveys", stokesgeo.survey_short_geodesics, _census()),
    ]


# --- the statements of each function ----------------------------------------------

def _span(node):
    """The lines of a statement that count for it: all of a simple
    statement's, a compound statement's up to its body (decorators
    included)."""
    start = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return start, max(start, body[0].lineno - 1)
    return start, node.end_lineno


def _functions(tree):
    """(qualified name, first line, statement spans) of every function in
    ``tree``; a nested function's statements are its own, and its ``def``
    is a statement of the function that holds it."""
    out = []

    def statements(body, spans, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                spans.append(_span(node))
                visit(node, prefix)
                continue
            if not isinstance(node, (ast.Global, ast.Nonlocal)):
                spans.append(_span(node))
            for field in ("body", "orelse", "finalbody"):
                statements(getattr(node, field, []), spans, prefix)
            for handler in getattr(node, "handlers", []):
                spans.append(_span(handler))
                statements(handler.body, spans, prefix)

    def visit(node, prefix):
        name = f"{prefix}{node.name}"
        body = node.body
        if isinstance(node, ast.ClassDef):
            for child in body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    visit(child, name + ".")
            return
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body = body[1:]
        spans = []
        out.append((name, _span(node)[0], spans))
        statements(body, spans, name + ".")

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            visit(node, "")
    return out


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def _lines(code):
    return {line for _, _, line in code.co_lines() if line is not None}


# --- the run -----------------------------------------------------------------------

def run_traced(parts):
    """Run the traffic; return the lines reached per file, the (file,
    first line) of each code object called, and the failures per part."""
    files = {str(p) for p in PACKAGE.glob("*.py")}
    reached = {f: set() for f in files}
    called = set()
    todo = {}   # code -> its lines not reached yet; none left, no tracing

    def global_trace(frame, event, arg):
        code = frame.f_code
        lines = reached.get(code.co_filename)
        if lines is None:
            return None
        called.add((code.co_filename, code.co_firstlineno))
        left = todo.get(code)
        if left is None:
            left = todo[code] = _lines(code) - {code.co_firstlineno}
        if not left:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
                left.discard(frame.f_lineno)
            return local
        return local

    failures = []
    for label, operation, inputs in parts:
        failed = 0
        sys.settrace(global_trace)
        try:
            for item in inputs:
                try:
                    operation(item)
                except StokesGeoError:
                    failed += 1
        finally:
            sys.settrace(None)
        failures.append((label, len(inputs), failed))
    return reached, called, failures


def report(reached, called):
    """Lines of the report, one module at a time."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        executable = set().union(*map(_lines, _code_objects(
            compile(source, str(path), "exec"))))
        lines = reached[str(path)]
        uncalled, missed = [], []
        n_stmts = n_reached = 0
        functions = _functions(ast.parse(source))
        for name, first, spans in functions:
            spans = [(a, b) for a, b in spans
                     if executable.intersection(range(a, b + 1))]
            hit = [bool(lines.intersection(range(a, b + 1)))
                   for a, b in spans]
            n_stmts += len(spans)
            n_reached += sum(hit)
            if (str(path), first) not in called:
                uncalled.append(f"{name} ({first})")
            elif not all(hit):
                missed.append(f"  {name} ({first}): " + ", ".join(
                    str(a) for (a, _), h in zip(spans, hit) if not h))
        out.append(f"{path.name}: {len(functions) - len(uncalled)} of "
                   f"{len(functions)} functions called, {n_reached} of "
                   f"{n_stmts} statements reached")
        if uncalled:
            out.append("  never called: " + ", ".join(uncalled))
        out.extend(missed)
    return out


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--quick", action="store_true",
                    help="run the README examples alone")
    args = ap.parse_args()
    reached, called, failures = run_traced(traffic(args.quick))
    print("traffic: " + "; ".join(
        f"{label} {n}" + (f" ({failed} failed)" if failed else "")
        for label, n, failed in failures))
    print("\n".join(report(reached, called)))


if __name__ == "__main__":
    main()
