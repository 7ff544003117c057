import json
import math

import numpy as np
import pytest

from stokesgeo import spectrum
from stokesgeo.cli import main
from tests.conftest import moving_zero_wronskian


def run(args):
    return main(args)


def test_roots_ok(capsys):
    assert run(["roots", "--poly", "1,0,-1"]) == 0
    out = capsys.readouterr().out
    assert "multiplicity 1" in out
    assert "sectors: 4" in out


def test_roots_cubic(capsys):
    assert run(["roots", "--poly", "1,0,0,-1"]) == 0
    assert "sectors: 5" in capsys.readouterr().out


def test_parse_error_exit_code(capsys):
    assert run(["roots", "--poly", "1,,2"]) == 2


def test_stokes_graph_finite_edge(tmp_path, capsys):
    code = run(["stokes-graph", "--poly", "1,0,-1",
                "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    data = json.loads((tmp_path / "stokes_graph.json").read_text())
    kinds = [e["kind"] for e in data["edges"]]
    assert kinds.count("finite") == 1
    assert data["complexes"] == [[0, 1]]
    assert "config" in data


def test_stokes_graph_rotated_no_finite(tmp_path):
    run(["stokes-graph", "--poly", "1,0,-1", "--t", "0.3",
         "--out", str(tmp_path), "--format", "json,svg"])
    data = json.loads((tmp_path / "stokes_graph.json").read_text())
    assert all(e["kind"] == "escape" for e in data["edges"])
    assert (tmp_path / "stokes_graph.svg").read_text().startswith("<?xml")


def test_stokes_graph_deterministic(tmp_path):
    args = ["stokes-graph", "--poly", "1,0,0,-1", "--t", "0.2",
            "--out", str(tmp_path), "--format", "json", "--seed", "7"]
    run(args)
    first = (tmp_path / "stokes_graph.json").read_bytes()
    run(args)
    assert (tmp_path / "stokes_graph.json").read_bytes() == first


def test_geodesics_report(tmp_path, capsys):
    code = run(["geodesics", "--poly", "1,0,-1", "--out", str(tmp_path),
                "--format", "json"])
    assert code == 0
    data = json.loads((tmp_path / "geodesics.json").read_text())
    assert data["count"] == 1
    assert data["geodesics"][0]["pair"] == [0, 1]
    assert abs(data["geodesics"][0]["t_star"]) < 1e-10


def test_rays_report(tmp_path, capsys):
    code = run(["rays", "--poly", "1,0,-1", "--out", str(tmp_path),
                "--format", "json"])
    assert code == 0
    data = json.loads((tmp_path / "rays.json").read_text())
    assert len(data["rays"]) == 1
    ray = data["rays"][0]
    assert abs(ray["angle"]) < 1e-10
    loop = complex(*ray["loop_period"])
    assert abs(abs(loop) - math.pi) < 1e-8
    # correction loop integrals vanish for the oscillator beyond alpha_0
    for re_im in ray["alpha_integrals"][1:]:
        assert abs(complex(*re_im)) < 1e-8


def test_eigenvalues_csv(tmp_path, capsys):
    code = run(["eigenvalues", "--poly", "1,0,-1", "--n", "0..5",
                "--order", "0", "--out", str(tmp_path),
                "--format", "json,csv"])
    assert code == 0
    lines = (tmp_path / "eigenvalues.csv").read_text().strip().splitlines()
    assert lines[0] == "n,re_lambda,im_lambda"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == pytest.approx([1, 3, 5, 7, 9, 11], abs=1e-6)


def test_eigenvalues_bad_range(tmp_path):
    assert run(["eigenvalues", "--poly", "1,0,-1", "--n", "five",
                "--out", str(tmp_path)]) == 2


def test_eigenvalues_negative_n_min(tmp_path, capsys):
    assert run(["eigenvalues", "--poly", "1,0,-1", "--n=-1..3",
                "--out", str(tmp_path)]) == 2
    assert "n_min" in capsys.readouterr().err


def test_eigenvalues_wronskian_cubic(tmp_path):
    # sectors from the Stokes graph at the ray's angle; the zero is the
    # Chebyshev-collocation eigenvalue of bench/reference.py
    code = run(["eigenvalues", "--poly", "1,0,0.3+0.2i,-1", "--n", "1..1",
                "--wronskian", "2.16,2.96,1.79,2.55", "--out", str(tmp_path),
                "--format", "json"])
    assert code == 0
    data = json.loads((tmp_path / "eigenvalues.json").read_text())
    zeros = [complex(*z) for z in data["wronskian_zeros"]]
    assert len(zeros) == 1
    assert abs(zeros[0] - (2.409751700170828 + 2.041435904407163j)) <= 1e-8


def test_eigenvalues_wronskian_cubic_wrapped_ray(tmp_path):
    # ray 2 has 2 t* > pi, so e^{2it*} a0 wraps and the graph's sector
    # numbers must be shifted to the search's; the zero is the collocation
    # eigenvalue of bench/reference.py at theta = 0.5, negated
    code = run(["eigenvalues", "--poly", "1,0,0.3+0.2i,-1", "--ray", "2",
                "--n", "1..1", "--wronskian=-3.25,-3.05,2.15,2.35",
                "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    data = json.loads((tmp_path / "eigenvalues.json").read_text())
    assert data["ray_angle"] > math.pi / 2
    zeros = [complex(*z) for z in data["wronskian_zeros"]]
    assert len(zeros) == 1
    assert abs(zeros[0] - (-3.146849466595979 + 2.253397302869331j)) <= 1e-8


def test_eigenvalues_wronskian_empty_search_fails(tmp_path, capsys,
                                                  monkeypatch):
    # the order-0 estimate for n = 0 lies in the rectangle, so a search
    # that finds no zero there must not pass as an empty spectrum
    def zero_free(poly, lams, sectors, config, rtol, lam_ref=None):
        return np.ones(len(lams), dtype=complex), np.zeros(len(lams))

    monkeypatch.setattr(spectrum, "_wronskian_batch", zero_free)
    code = run(["eigenvalues", "--poly", "1,0,-1", "--n", "0..0",
                "--wronskian", "0.8,1.2,-0.2,0.2", "--out", str(tmp_path)])
    assert code == 3
    assert "sectors (0, 2)" in capsys.readouterr().err


def test_eigenvalues_malformed_wronskian_rectangle(tmp_path, capsys):
    code = run(["eigenvalues", "--poly", "1,0,-1", "--n", "0..0",
                "--wronskian", "3.5,0.5,-1,1", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: bad rectangle (3.5, 0.5, -1.0, 1.0)")


def test_numerical_failure_shows_residuals(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(spectrum, "_wronskian_batch",
                        moving_zero_wronskian(1.0))
    code = run(["eigenvalues", "--poly", "1,0,-1", "--n", "0..0",
                "--wronskian", "0.8,1.2,-0.2,0.2", "--out", str(tmp_path)])
    assert code == 3
    captured = capsys.readouterr()
    assert "residuals: 0.00995\n" in captured.err
    assert "residuals" not in captured.out


def test_strip_realize(tmp_path, capsys):
    code = run(["strip-realize", "5", "7", "--out", str(tmp_path),
                "--format", "json,svg"])
    assert code == 0
    assert "verified visible pairs = 7" in capsys.readouterr().out
    data = json.loads((tmp_path / "strip.json").read_text())
    assert len(data["nodes"]) == 5
    assert len(data["cuts"]) == 3
    assert all(c in ("up", "down") for c in data["cuts"])


def test_strip_realize_out_of_range(tmp_path):
    assert run(["strip-realize", "4", "7", "--out", str(tmp_path)]) == 2


def test_chords_command(tmp_path, capsys):
    code = run(["chords", "--poly", "1,0,-1", "--t", "0.3",
                "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    data = json.loads((tmp_path / "chords.json").read_text())
    assert len(data["stokes"]["chords"]) == 1
    assert len(data["anti_stokes"]["chords"]) == 1
    assert data["stokes"]["n_vertices"] == 4


def test_chords_nongeneric_exit(tmp_path):
    assert run(["chords", "--poly", "1,0,-1", "--out", str(tmp_path)]) == 3


def test_config_file_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "out_dir": str(tmp_path / "o")}))
    code = run(["roots", "--poly", "1,0,-1", "--config", str(cfg),
                "--out", str(tmp_path / "o"), "--format", "json"])
    assert code == 0
    data = json.loads((tmp_path / "o" / "roots.json").read_text())
    assert data["config"]["seed"] == 3


@pytest.mark.parametrize("field, value", [
    ("alpha_order", -1), ("alpha_order", 2.5), ("lambda_min_modulus", -1.0),
    ("svg_decimate_factor", -1e-3), ("r_escape_factor", 0.5)])
def test_config_out_of_range_rejected(tmp_path, capsys, field, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: value}))
    assert run(["roots", "--poly", "1,0,-1", "--config", str(cfg)]) == 2
    assert f"RunConfig.{field}" in capsys.readouterr().err


def test_poly_json_literal(capsys):
    assert run(["roots", "--poly", '{"coeffs": [[1,0],[0,0],[-1,0]]}']) == 0
    assert "multiplicity 1" in capsys.readouterr().out


def test_truncated_graph_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"l_max_factor": 0.001}))
    code = run(["stokes-graph", "--poly", "1,0,-1", "--config", str(cfg),
                "--out", str(tmp_path), "--format", "json"])
    assert code == 4
    data = json.loads((tmp_path / "stokes_graph.json").read_text())
    assert data["incomplete"]


def test_bad_format_rejected(tmp_path):
    assert run(["roots", "--poly", "1,0,-1", "--format", "yaml"]) == 2


def test_geodesics_svg_overlay(tmp_path):
    code = run(["geodesics", "--poly", "1,0,-1", "--out", str(tmp_path),
                "--format", "json,svg"])
    assert code == 0
    svg = (tmp_path / "geodesics.svg").read_text()
    assert svg.startswith("<?xml") and "<circle" in svg and "<path" in svg


def test_strip_svg_render(tmp_path):
    run(["strip-realize", "6", "9", "--out", str(tmp_path),
         "--format", "svg"])
    svg = (tmp_path / "strip.svg").read_text()
    assert svg.count("<circle") == 6          # one dot per node
    assert svg.startswith("<?xml")
