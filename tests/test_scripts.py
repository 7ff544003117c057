import ast
import hashlib
import importlib
import importlib.util
import os
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from stokesgeo import survey_short_geodesics
from tests.conftest import random_simple_poly

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120)


def test_geodesic_census_runs():
    proc = _run_script("geodesic_census.py", "--degrees", "3", "--trials", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("degree 3: bounds [2, 3]")
    assert "failures 0" in proc.stdout
    assert "bound violations" not in proc.stdout
    assert "numerical failure" not in proc.stdout


def _census_script():
    spec = importlib.util.spec_from_file_location(
        "geodesic_census", ROOT / "scripts" / "geodesic_census.py")
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    return census


def test_census_draws_degree_20_in_a_second():
    # the census draws from degree 9 on at radius 1.5 sqrt(d/8), and at
    # the test suite's 1.5 up to degree 8; rejection at 1.5 took about a
    # minute for one degree-18 draw
    census = _census_script()
    assert [census.census_radius(d) for d in (3, 8)] == [1.5, 1.5]
    assert census.census_radius(18) == pytest.approx(2.25)
    start = time.perf_counter()
    poly = random_simple_poly(random.Random(777), 20,
                              radius=census.census_radius(20))
    assert time.perf_counter() - start < 1.0
    assert poly.degree == 20


def test_census_counts_at_degrees_20_and_24():
    # the first draws at degrees 20 and 24 of `geodesic_census.py
    # --degrees 6,8,12,16,20,24 --trials 4 --seed 4242`, where lines that
    # run out along one ray meet the escape circle at one phase to
    # rounding.  Each survey passes its mutation walk's check that a
    # half-turn ends on the negated start basis, and counts between the
    # connectivity bounds d - 1 and d(d - 1)/2
    census = _census_script()
    rng = random.Random(4242)
    draws = {d: [random_simple_poly(rng, d, radius=census.census_radius(d))
                 for _ in range(4)][0] for d in (6, 8, 12, 16, 20, 24)}
    for d in (20, 24):
        survey = survey_short_geodesics(draws[d])
        assert survey.errors == [] and survey.warnings == []
        assert d - 1 <= len(survey.geodesics) <= d * (d - 1) // 2


def _trace_work(inputs):
    """The first line and the counts that ``trace_work.py --inputs inputs
    --seed 101`` prints: (line, traces, (attempts, accepted, rejected,
    cap-bound), (chords, 6-point, 7-point), landings, escapes), the
    landings by kind, "read " before those made when a polyline is read,
    as [count, circles, Halley passes], and the escapes as [cone checks,
    refused, certified, median and largest |z|/R0 of the certifying
    vertex, escapes past the escape circle, median and largest terms of
    the chart at the vertex, largest terms of the primitive on the
    circle]."""
    proc = _run_script("trace_work.py", "--inputs", inputs, "--seed", "101")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # the counts, not the digits of "dp5", "6-point" or "R0"
    numbers = [[float(x) if "." in x else int(x) for x in re.findall(
        r"(?<![\w-])\d+(?:\.\d+)?(?![\w-])", line)] for line in lines[1:]]
    (traces,), steps, chords = numbers[:3]
    landings = {line.split(":")[0].split(maxsplit=1)[1].rsplit(" ", 1)[0]:
                counts for line, counts in zip(lines[4:], numbers[3:])
                if line.startswith("landings ")}
    escapes = [x for line, counts in zip(lines[1:], numbers)
               if line.startswith(("cone ", "escape")) for x in counts]
    return lines[0], traces, steps, chords, landings, escapes


def test_trace_work_counts_one_chord_pass():
    head, traces, (attempts, accepted, rejected, cap_bound), \
        (chords, six, seven), landings, escapes = _trace_work("chord")
    assert head == "inputs chord seed 101: 18 polynomials, one pass"
    assert sorted(landings) == ["escape", "hit", "launch", "read escape",
                                "read hit", "read launch"]
    # each accepted attempt integrates one drift chord, each trace lands
    # its launch on one circle and ends in a hit or an escape, an escape
    # lands on one circle, a hit on none, and a Halley pass lands each
    # circle at least once.  A chord diagram reads no polyline
    assert attempts == accepted + rejected and chords == accepted == six + seven
    assert landings["launch"][:2] == [traces, traces] and traces == 216
    assert landings["hit"] == [0, 0, 0]
    assert landings["escape"][0] == landings["escape"][1] == traces
    for count, circles, passes in landings.values():
        assert passes >= circles >= count
    assert all(landings["read " + kind] == [0, 0, 0]
               for kind in ("launch", "hit", "escape"))
    # 1,296 launch and 792 escape circles, with 4,403 passes, when a trace
    # landed every rung and ladder circle
    assert landings["launch"][2] + landings["escape"][2] <= 1300
    # steps at trace_tol = 1e-7 are mostly cap-bound, and the power-sum
    # cone radius ends most escapes near 1.2 R0: 1,339 attempts, where
    # the arcsin bound's radius made 2,138 and trace_tol = 3e-9 3,478.
    # The ceiling is 3 % above the count
    assert 0 < rejected and cap_bound > attempts / 2 and attempts <= 1380
    # each escape is certified inside the escape circle, at a median
    # 1.23 R0 (2.03 R0 with the arcsin radius); 14 of 230 certificate
    # checks refuse, by the angle condition.  At the 9/8 R0 floor the
    # chart at the certifying vertex takes at most about 400 terms
    checks, refused, certified, median, largest, past, chart_median, \
        chart_max, circle_max = escapes
    assert certified == traces and past == 0
    assert checks == certified + refused and 0 < refused <= 20
    assert 1.125 <= median <= 1.3 and median <= largest < 2.0
    assert chart_median <= chart_max <= 400 and circle_max <= 20


def test_trace_work_counts_read_landings_of_a_survey():
    # the survey's rays read each geodesic's polyline: the five inner rungs
    # of its launch and the rungs below its entering vertex are landed
    # then, one chain each, and its trace landed only its launch rung
    _, traces, _, _, landings, _ = _trace_work("survey")
    assert landings["launch"][:2] == [traces, traces]
    assert landings["hit"] == [0, 0, 0]
    geodesics = landings["read hit"][0]
    assert geodesics > 0 and landings["read launch"][:2] == [
        geodesics, 5 * geodesics]
    assert landings["read escape"] == [0, 0, 0]


def test_trace_work_counts_one_spectrum_pass():
    # the three searches wind 15 boundaries, 3 of them fresh: the others
    # keep their parent's final samples, refined or not, and integrate
    # only their cut lines (sampling every boundary afresh took 18 calls,
    # 1,152 lambdas and 17,536 lane-steps).  The polishing does not depend
    # on the windings
    proc = _run_script("trace_work.py", "--inputs", "spectrum", "--seed",
                       "101")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "inputs spectrum seed 101: 3 searches, one pass",
        "windings 15: fresh boundaries 3, kept 12",
        "winding integrations 10: lambdas 362, taylor steps 78, "
        "lane-steps 5778",
        "polishing integrations 12: lambdas 60, taylor steps 105, "
        "lane-steps 1050",
    ]


def test_output_parity_repeats():
    # a second run, on this checkout's own package, must print the same
    # lines
    proc = _run_script("output_parity.py", "--per-degree", "1",
                       "--against", str(ROOT))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith("all 69 lines agree")
    lines = proc.stdout.splitlines()
    # survey geodesics, its errors and warnings, rays, alphas, order-0 and
    # order-3 estimates, periods, drift, chords and the very-flat
    # projection for one polynomial of each degree 3, 4, 5, the survey of
    # the far-root draw 15 and its errors and warnings, the graphs of
    # z^3 - 1, z^2 (z - 1) and the far-root draw with a line for each of
    # their 9, 6 and 15 edges, and the Wronskian zeros on four rectangles,
    # whose lines also print the zeros after the hash
    assert len(lines) == 3 * 10 + 2 + 3 + 9 + 6 + 15 + 4
    edges = [line for line in lines if line.startswith("stokes_edge[")]
    assert len(edges) == 30
    assert all(len(line.split()[1]) == 64 for line in lines
               if line not in edges)
    for line in edges:
        name, kind, stub, target, ray, phase = line.split()
        assert kind in ("finite", "escape")
        assert phase.startswith("end_phase=")
        float(phase.split("=")[1])
    for line in lines[-4:]:
        name, digest, *zeros = line.split()
        assert name.startswith("wronskian[") and len(zeros) == 1
        assert hashlib.sha256(
            repr([complex(zeros[0])]).encode()).hexdigest() == digest


def test_output_parity_reports_a_difference(tmp_path):
    # a package whose Stokes graphs lose their last edge differs on the
    # three graph lines and lacks the line of each graph's last edge.  Its
    # far-root survey is refused, since its strip bases' graphs miss a
    # line, and the error is the line of the survey and of its notes
    shutil.copytree(ROOT / "src" / "stokesgeo", tmp_path / "src" / "stokesgeo",
                    ignore=shutil.ignore_patterns("__pycache__"))
    tracer = tmp_path / "src" / "stokesgeo" / "tracer.py"
    text = tracer.read_text()
    assert text.count("edges=tuple(edges),") == 1
    tracer.write_text(text.replace("edges=tuple(edges),",
                                   "edges=tuple(edges[:-1]),"))
    proc = _run_script("output_parity.py", "--per-degree", "0",
                       "--against", str(tmp_path))
    assert proc.returncode == 1, proc.stderr
    changed = [line.split()[0] for line in proc.stderr.splitlines()
               if line[:1] in "+-" and line[:3] not in ("+++", "---")]
    assert changed == ["-survey[far15]", "-survey_notes[far15]",
                       "-stokes_graph[z^3-1]", "+survey[far15]",
                       "+survey_notes[far15]", "+stokes_graph[z^3-1]",
                       "-stokes_graph[z^2(z-1)]", "+stokes_edge[z^3-1][8]",
                       "+stokes_graph[z^2(z-1)]", "-stokes_graph[far15]",
                       "+stokes_edge[z^2(z-1)][5]", "+stokes_graph[far15]",
                       "+stokes_edge[far15][14]"]
    assert proc.stderr.rstrip().endswith(
        f"the lines differ from those under {(tmp_path / 'src').resolve()}")
    refused = "NonGenericError: no generic strip decomposition: " + "; ".join(
        f"t0={t0}: root 4 has no line along its direction 2"
        for t0 in ("1.652141764589", "0.120355611373", "2.716108120204"))
    digest = hashlib.sha256(repr(refused).encode()).hexdigest()
    assert [line for line in proc.stderr.splitlines()
            if line.startswith("-survey")] == [
        f"-survey[far15] {digest}", f"-survey_notes[far15] {digest}"]


def test_reached_lines_quick_lists_what_the_examples_skip():
    # the README examples run every command of the CLI and no failure:
    # each module gets a summary line, cli.main is reported by exactly
    # the headers and statements of its except clauses, and the very-flat
    # projection, which no example runs, is never called
    proc = _run_script("reached_lines.py", "--quick")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "traffic: README examples 1"
    summaries = [re.fullmatch(r"(\w+\.py): (\d+) of (\d+) functions called, "
                              r"(\d+) of (\d+) statements reached", line)
                 for line in lines if not line.startswith(("traffic", " "))]
    assert all(summaries)
    assert [m[1] for m in summaries] == sorted(
        p.name for p in (ROOT / "src" / "stokesgeo").glob("*.py"))
    for m in summaries:
        assert int(m[2]) <= int(m[3]) and int(m[4]) <= int(m[5])
    tree = ast.parse((ROOT / "src" / "stokesgeo" / "cli.py").read_text())
    (main,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "main"]
    (handled,) = [node for node in main.body if isinstance(node, ast.Try)]
    expected = sorted({handler.lineno for handler in handled.handlers}
                      | {node.lineno for handler in handled.handlers
                         for stmt in handler.body for node in ast.walk(stmt)
                         if isinstance(node, ast.stmt)})
    (reported,) = [line for line in lines
                   if line.startswith(f"  main ({main.lineno}): ")]
    assert [int(x) for x in reported.split(": ")[1].split(", ")] == expected
    strips = lines.index(next(line for line in lines
                              if line.startswith("strips.py:")))
    assert lines[strips + 1].startswith("  never called: ")
    assert "is_very_flat (" in lines[strips + 1]


def test_bench_trace_targets_exist():
    # the benchmark's --trace run wraps each (module, name) of TARGETS in
    # bench/tracing.py by name, so deleting or renaming one breaks it
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    (targets,) = [node.value for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets]
                  == ["TARGETS"]]
    assert targets.elts
    for entry in targets.elts:
        module, name = (ast.literal_eval(e) for e in entry.elts[:2])
        target = getattr(importlib.import_module(f"stokesgeo.{module}"),
                         name, None)
        assert callable(target), f"stokesgeo.{module}.{name}"
