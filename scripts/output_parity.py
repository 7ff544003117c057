#!/usr/bin/env python3
"""Fingerprints of the package's numerical outputs, one line per output.

Each line is a name and the sha256 of the output's ``repr``, which spells
every float and complex exactly, so two lines agree only when the outputs
agree bit for bit.  The outputs are

- the ``rays`` pipeline on the first ``--per-degree`` polynomials of each
  degree 3, 4, 5 of the counting stream 20260808: the survey's geodesics
  (pairs, t*, periods, polylines) and its errors and warnings, then the
  accumulation rays, their correction integrals alpha_0..alpha_3, order-0
  estimates for n = 1..5 and order-3 estimates for n = 1..3, the pairwise
  periods (pair, path and value of each) and the drift gauge
  ``re_xi_drift`` of the tests' conftest on each geodesic polyline;
- ``chord_diagram`` on as many polynomials of the chord stream 5150, and
  ``is_very_flat`` there as its flag, its cuts and its visible-pair count
  (the projected float nodes are left out);
- the survey of draw 15 of the far-root generator (the tests'
  ``_far_root_draw``: one root at modulus 60-100, the others within
  1.5), with its errors and warnings, so that a change shows how far the
  far-root outputs move;
- the edges of the Stokes graphs of z^3 - 1, of z^2 (z - 1), whose
  traces launch from the double root on its local series of
  multiplicity 2, and of the far-root draw 15, hashed together and then
  one line per edge with its fate, origin root and direction, target,
  ray and the ``repr`` of the phase of its end, so that a change which
  moves only the vertices along the lines shows that fates and end
  phases are kept;
- the Wronskian zeros in sectors (0, 2) on the ``wronskian_spectrum``
  benchmark rectangles without their seeded jitter, and in sectors (1, 3)
  of -z^2 + 1 on (-0.3, 0.4, 2.7, 3.35), where arg W lies near pi.

An output that raises a ``StokesGeoError`` is that error, its type and
message, so one refused output does not end the run.

After the hash, the survey lines also print the ``repr`` of each
geodesic period, the rays lines each loop period, the alphas lines each
alpha_j, the estimates and estimates3 lines each estimated eigenvalue,
the chords lines each chord weight (strip width) of both diagrams, and
the Wronskian lines each zero, so a diff shows how far a value moved.

The lines go to standard output.  With ``--against DIR`` the script also
runs the same fingerprints on the package in DIR/src, in a subprocess
alongside its own run, and checks that a change kept every count, pair
and number: it writes a unified diff of DIR's lines against its own to
standard error and exits 1 when any line differs, e.g.

    PYTHONPATH=src python3 scripts/output_parity.py --against ../old
"""

import argparse
import cmath
import difflib
import functools
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

from stokesgeo import (ComplexPolynomial, StokesGeoError, accumulation_rays,
                       alpha_contour_integrals, build_stokes_graph,
                       chord_diagram, eigenvalue_asymptotics, is_very_flat,
                       pairwise_periods, parse_poly_text,
                       survey_short_geodesics, visible_pairs,
                       wronskian_eigenvalue_search)

# the test suite's generator, so the streams are the acceptance streams,
# and the benchmark's spectrum cases
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "bench")]
from tests.conftest import (_far_root_draw, random_simple_poly,  # noqa: E402
                            re_xi_drift)
from workloads import (RECT_ABOVE_IM, RECT_ABOVE_RE, RECT_BELOW,  # noqa: E402
                       SPECTRUM_CASES)


def stream(seed, per_degree):
    """(label, poly) for the first ``per_degree`` polynomials of each
    degree drawn from ``seed`` as the acceptance tests draw them."""
    rng = random.Random(seed)
    for d in (3, 4, 5):
        for k in range(per_degree):
            yield f"{d}.{k}", random_simple_poly(rng, d)


def fingerprint(name, compute, shown=lambda value: ()):
    """``name``, the sha256 of the ``repr`` of the output ``compute()``
    and the ``repr`` of each of the numbers ``shown(output)``, so a
    numerical change shows its size and not only a changed hash.  A
    StokesGeoError that they raise is the output, as its type and
    message, and shows no number."""
    try:
        value = compute()
        numbers = shown(value)
    except StokesGeoError as exc:
        value, numbers = f"{type(exc).__name__}: {exc}", ()
    return " ".join([name, hashlib.sha256(repr(value).encode()).hexdigest(),
                     *map(repr, numbers)])


def fingerprints(per_degree):
    """The fingerprint lines, in order."""
    for label, poly in stream(20260808, per_degree):
        survey = functools.cache(lambda: survey_short_geodesics(poly))
        yield fingerprint(f"survey[{label}]", lambda: survey().geodesics,
                          lambda geos: [g.period for g in geos])
        yield fingerprint(f"survey_notes[{label}]",
                          lambda: (survey().errors, survey().warnings))
        rays = functools.cache(
            lambda: accumulation_rays(poly, survey=survey()))
        yield fingerprint(f"rays[{label}]", rays,
                          lambda rays: [r.loop_period for r in rays])
        yield fingerprint(
            f"alphas[{label}]",
            lambda: [alpha_contour_integrals(poly, ray.contour, 3)
                     for ray in rays()],
            lambda alphas: [a for ray_alphas in alphas for a in ray_alphas])
        for name, n_max, order in (("estimates", 5, 0), ("estimates3", 3, 3)):
            yield fingerprint(
                f"{name}[{label}]",
                lambda: [eigenvalue_asymptotics(poly, ray, 1, n_max,
                                                order=order)
                         for ray in rays()],
                lambda estimates: [e.value for ray_estimates in estimates
                                   for e in ray_estimates])
        yield fingerprint(f"periods[{label}]",
                          lambda: [(p.pair, p.path, p.value)
                                   for p in pairwise_periods(poly)])
        yield fingerprint(f"drift[{label}]",
                          lambda: [re_xi_drift(poly.rotate(g.t_star),
                                               g.polyline)
                                   for g in survey().geodesics])
    for label, poly in stream(5150, per_degree):
        yield fingerprint(f"chords[{label}]", lambda: chord_diagram(poly),
                          lambda diagrams: [width for diagram in diagrams
                                            for _, width in diagram.chords])

        def very_flat():
            flat = is_very_flat(poly)
            return ((flat.flag,) if flat.strip is None else
                    (flat.flag, flat.strip.cuts,
                     len(visible_pairs(flat.strip))))
        yield fingerprint(f"very_flat[{label}]", very_flat)
    far = _far_root_draw(15)
    survey = functools.cache(lambda: survey_short_geodesics(far))
    yield fingerprint("survey[far15]", lambda: survey().geodesics,
                      lambda geos: [g.period for g in geos])
    yield fingerprint("survey_notes[far15]",
                      lambda: (survey().errors, survey().warnings))
    for name, poly in (("z^3-1", parse_poly_text("1,0,0,-1")),
                       ("z^2(z-1)", parse_poly_text("1,-1,0,0")),
                       ("far15", far)):
        edges = functools.cache(lambda: build_stokes_graph(poly).edges)
        yield fingerprint(f"stokes_graph[{name}]", edges)
        try:
            listed = edges()
        except StokesGeoError:
            listed = ()     # the graph's line holds the error
        for k, e in enumerate(listed):
            yield (f"stokes_edge[{name}][{k}] {e.kind} {e.origin}."
                   f"{e.direction_index} target={e.target} ray={e.ray} "
                   f"end_phase={cmath.phase(e.polyline[-1])!r}")
    for label, coeffs, lam in SPECTRUM_CASES:
        rect = (lam.real - RECT_BELOW, lam.real + RECT_ABOVE_RE,
                lam.imag - RECT_BELOW, lam.imag + RECT_ABOVE_IM)
        yield fingerprint(f"wronskian[{label}@{lam:g}]",
                          lambda: wronskian_eigenvalue_search(
                              ComplexPolynomial(coeffs), (0, 2), rect),
                          lambda zeros: zeros)
    yield fingerprint("wronskian[-z^2+1]",
                      lambda: wronskian_eigenvalue_search(
                          parse_poly_text("-1,0,1"), (1, 3),
                          (-0.3, 0.4, 2.7, 3.35)),
                      lambda zeros: zeros)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--per-degree", type=int, default=2)
    ap.add_argument("--against", type=Path, metavar="DIR",
                    help="compare with the package in DIR/src")
    args = ap.parse_args()

    other = None
    if args.against is not None:
        src = (args.against / "src").resolve()
        if not (src / "stokesgeo").is_dir():
            ap.error(f"no package at {src / 'stokesgeo'}")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p)
        other = subprocess.Popen(
            [sys.executable, __file__, "--per-degree", str(args.per_degree)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
    lines = []
    for line in fingerprints(args.per_degree):
        print(line)
        lines.append(line)
    if other is None:
        return 0
    out, err = other.communicate()
    if other.returncode != 0:
        sys.stderr.write(err)
        print(f"the run under {src} failed", file=sys.stderr)
        return 2
    theirs = out.splitlines()
    diff = list(difflib.unified_diff(theirs, lines, str(src), "src",
                                     lineterm=""))
    for line in diff:
        print(line, file=sys.stderr)
    if diff:
        print(f"the lines differ from those under {src}", file=sys.stderr)
        return 1
    print(f"all {len(lines)} lines agree with those under {src}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
