import ast
import hashlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

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


def test_output_parity_repeats():
    first, second = (_run_script("output_parity.py", "--per-degree", "1")
                     for _ in range(2))
    assert first.returncode == 0 and second.returncode == 0, first.stderr
    lines = first.stdout.splitlines()
    # survey geodesics, its errors and warnings, rays, alphas, order-0 and
    # order-3 estimates, periods, drift, chords and the very-flat
    # projection for one polynomial of each degree 3, 4, 5, the graph of
    # z^3 - 1, and the Wronskian zeros on four rectangles, whose lines
    # also print the zeros after the hash
    assert len(lines) == 3 * 10 + 1 + 4
    assert all(len(line.split()[1]) == 64 for line in lines)
    for line in lines[-4:]:
        name, digest, *zeros = line.split()
        assert name.startswith("wronskian[") and len(zeros) == 1
        assert hashlib.sha256(
            repr([complex(zeros[0])]).encode()).hexdigest() == digest
    assert first.stdout == second.stdout


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
