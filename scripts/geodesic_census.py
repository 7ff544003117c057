#!/usr/bin/env python3
"""Census of short-geodesic counts over random polynomials.

Draws simple-rooted monic centered polynomials of the requested degrees,
enumerates their short geodesics and tabulates the counts against the
connectivity bounds d-1 <= count <= d(d-1)/2.  Under each degree's line
it prints every distinct typed-failure message with its count.

The roots are drawn as the test suite draws them, from a square of
half-side ``census_radius(d)``, pairwise at least 0.5 apart.
"""

import argparse
import collections
import math
import random
import sys
import time
from pathlib import Path

from stokesgeo import NumericalError, StokesGeoError, survey_short_geodesics

# the test suite's generator, so census and acceptance draw alike
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.conftest import random_simple_poly  # noqa: E402


def census_radius(d: int) -> float:
    """1.5, the test suite's radius, up to degree 8; from degree 9 on
    1.5 sqrt(d/8), so that the density of the roots stays that of degree
    8.  At a fixed radius the separation check rejects almost every draw
    from degree 18 on."""
    return 1.5 if d <= 8 else 1.5 * math.sqrt(d / 8)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--degrees", default="3,4,5")
    ap.add_argument("--trials", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    for d in (int(x) for x in args.degrees.split(",")):
        hist = collections.Counter()
        failed = collections.Counter()
        numerical = []
        t0 = time.time()
        for _ in range(args.trials):
            poly = random_simple_poly(rng, d, radius=census_radius(d))
            try:
                survey = survey_short_geodesics(poly)
            except NumericalError as exc:
                # a count below d-1 on generic input lands here
                numerical.append(str(exc))
                continue
            except StokesGeoError as exc:
                failed[f"{type(exc).__name__}: {exc}"] += 1
                continue
            if survey.errors:
                failed[f"survey errors: {survey.errors}"] += 1
                continue
            hist[len(survey.geodesics)] += 1
        lo, hi = d - 1, d * (d - 1) // 2
        print(f"degree {d}: bounds [{lo}, {hi}]  "
              f"counts {dict(sorted(hist.items()))}  "
              f"failures {sum(failed.values())}  ({time.time() - t0:.1f} s)")
        for msg, n in failed.most_common():
            print(f"  {n} x {msg}")
        bad = [k for k in hist if not lo <= k <= hi]
        if bad:
            print(f"  *** bound violations at counts {bad} ***")
        for msg in numerical:
            print(f"  *** numerical failure: {msg} ***")


if __name__ == "__main__":
    main()
