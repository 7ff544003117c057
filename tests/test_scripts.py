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


def test_census_draws_degree_20_in_a_second():
    # the census draws from degree 9 on at radius 1.5 sqrt(d/8), and at
    # the test suite's 1.5 up to degree 8; rejection at 1.5 took about a
    # minute for one degree-18 draw
    spec = importlib.util.spec_from_file_location(
        "geodesic_census", ROOT / "scripts" / "geodesic_census.py")
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    assert [census.census_radius(d) for d in (3, 8)] == [1.5, 1.5]
    assert census.census_radius(18) == pytest.approx(2.25)
    start = time.perf_counter()
    poly = random_simple_poly(random.Random(777), 20,
                              radius=census.census_radius(20))
    assert time.perf_counter() - start < 1.0
    assert poly.degree == 20


def _trace_work(inputs):
    """The first line and the counts that ``trace_work.py --inputs inputs
    --seed 101`` prints: (line, traces, (attempts, accepted, rejected,
    cap-bound), (chords, 6-point, 7-point), landings), the landings by
    kind, "read " before those made when a polyline is read, as [count,
    circles, Halley passes]."""
    proc = _run_script("trace_work.py", "--inputs", inputs, "--seed", "101")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # the counts, not the digits of "dp5" or "6-point"
    numbers = [[int(x) for x in re.findall(r"(?<![\w-])\d+(?![\w-])", line)]
               for line in lines[1:]]
    (traces,), steps, chords = numbers[:3]
    landings = {line.split(":")[0].split(maxsplit=1)[1].rsplit(" ", 1)[0]:
                counts for line, counts in zip(lines[4:], numbers[3:])}
    return lines[0], traces, steps, chords, landings


def test_trace_work_counts_one_chord_pass():
    head, traces, (attempts, accepted, rejected, cap_bound), \
        (chords, six, seven), landings = _trace_work("chord")
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
    # steps at trace_tol = 1e-7 are mostly cap-bound (3,478 attempts at 3e-9)
    assert 0 < rejected and cap_bound > attempts / 2 and attempts <= 2300


def test_trace_work_counts_read_landings_of_a_survey():
    # the survey's rays read each geodesic's polyline: the five inner rungs
    # of its launch and the rungs below its entering vertex are landed
    # then, one chain each, and its trace landed only its launch rung
    _, traces, _, _, landings = _trace_work("survey")
    assert landings["launch"][:2] == [traces, traces]
    assert landings["hit"] == [0, 0, 0]
    geodesics = landings["read hit"][0]
    assert geodesics > 0 and landings["read launch"][:2] == [
        geodesics, 5 * geodesics]
    assert landings["read escape"] == [0, 0, 0]


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
    # three graph lines and the far-root survey, which reads its graph's
    # edges, and lacks the line of each graph's last edge
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
    assert changed == ["-survey[far15]", "+survey[far15]",
                       "-stokes_graph[z^3-1]", "+stokes_graph[z^3-1]",
                       "-stokes_graph[z^2(z-1)]", "+stokes_edge[z^3-1][8]",
                       "+stokes_graph[z^2(z-1)]", "-stokes_graph[far15]",
                       "+stokes_edge[z^2(z-1)][5]", "+stokes_graph[far15]",
                       "+stokes_edge[far15][14]"]
    assert proc.stderr.rstrip().endswith(
        f"the lines differ from those under {(tmp_path / 'src').resolve()}")


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
