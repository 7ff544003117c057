import math
import random

import pytest

from stokesgeo import (NonGenericError, build_face_set, build_stokes_graph,
                       chord_diagram, parse_poly_text)
from stokesgeo.domains import chords_cross
from tests.conftest import random_simple_poly


def test_airy_faces():
    fs = build_face_set(build_stokes_graph(parse_poly_text("1,0")))
    assert [d.kind for d in fs.domains] == ["HalfPlane"] * 3
    assert fs.n_vertices - fs.n_edges + fs.n_faces == 2


def test_oscillator_connected_faces(osc):
    fs = build_face_set(build_stokes_graph(osc))
    kinds = sorted(d.kind for d in fs.domains)
    assert kinds == ["HalfPlane"] * 4
    assert fs.n_vertices - fs.n_edges + fs.n_faces == 2


def test_rotated_oscillator_strip(osc):
    fs = build_face_set(build_stokes_graph(osc.rotate(0.3)))
    kinds = sorted(d.kind for d in fs.domains)
    assert kinds == ["HalfPlane"] * 4 + ["Strip"]
    strip = fs.strips[0]
    # width of the canonical-chart image: |Re(e^{it} w)| with w = i pi/2
    expected = (math.pi / 2) * math.sin(0.3)
    assert strip.width == pytest.approx(expected, abs=1e-6)
    assert not fs.graph.sectors.are_neighboring_rays(*strip.incident_rays)
    assert fs.n_vertices - fs.n_edges + fs.n_faces == 2


def test_strip_boundary_roots(osc):
    fs = build_face_set(build_stokes_graph(osc.rotate(0.3)))
    strip = fs.strips[0]
    sides = sorted(strip.boundary_roots)
    assert sides == [(0,), (1,)]


def test_chord_diagram_oscillator(osc):
    stokes, anti = chord_diagram(osc.rotate(0.3))
    assert stokes.n_vertices == 4 and anti.n_vertices == 4
    (pair, weight), = stokes.chords
    assert (pair[1] - pair[0]) % 4 == 2      # opposite vertices
    assert weight == pytest.approx((math.pi / 2) * math.sin(0.3), abs=1e-6)
    (apair, aweight), = anti.chords
    assert aweight == pytest.approx((math.pi / 2) * math.cos(0.3), abs=1e-6)


def test_chord_diagram_raises_on_nongeneric(osc):
    with pytest.raises(NonGenericError):
        chord_diagram(osc)   # finite edge at t = 0: zero strip domains


def test_random_cubic_pentagon():
    rng = random.Random(321)
    p = random_simple_poly(rng, 3)
    stokes, anti = chord_diagram(p)
    for diag in (stokes, anti):
        assert diag.n_vertices == 5
        assert len(diag.chords) == 2
        (a, _), (b, _) = diag.chords
        assert not chords_cross(5, a, b)
        for (i, j), w in diag.chords:
            assert (j - i) % 5 not in (0, 1, 4)
            assert w > 0


def test_chords_cross_predicate():
    assert chords_cross(6, (0, 3), (1, 4))
    assert not chords_cross(6, (0, 2), (3, 5))
    assert not chords_cross(6, (0, 3), (0, 2))   # shared endpoint
    assert not chords_cross(6, (0, 2), (2, 4))


def test_admissible_domains_surface(osc):
    from stokesgeo import admissible_domains
    doms = admissible_domains(build_stokes_graph(osc.rotate(0.3)))
    assert sorted(d.kind for d in doms) == ["HalfPlane"] * 4 + ["Strip"]


def test_generic_face_counts_random():
    # generic potentials: d+2 half-planes and d-1 strips
    rng = random.Random(99)
    for d in (3, 4):
        p = random_simple_poly(rng, d)
        fs = build_face_set(build_stokes_graph(p))
        assert len(fs.half_planes) == d + 2
        assert len(fs.strips) == d - 1
