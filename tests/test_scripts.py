import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_geodesic_census_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "geodesic_census.py"),
         "--degrees", "3", "--trials", "2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("degree 3: bounds [2, 3]")
    assert "failures 0" in proc.stdout
    assert "bound violations" not in proc.stdout
    assert "numerical failure" not in proc.stdout
