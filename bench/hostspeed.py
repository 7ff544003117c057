"""Host-speed probe, used to express measured times at a fixed host speed.

The benchmark runs on a shared virtual machine whose speed changes by up
to 2x in phases of seconds to minutes, as neighbours come and go.  The
package's own code slows with it, pure-Python and numpy alike, so a time
measured in a slow phase says more about the host than about the package.
The probe times a fixed piece of reference work, a pure-Python loop and a
loop of small numpy operations (the package's two kinds of work), before
and after each timed operation and, from a timer signal, every
``INTERVAL_S`` while it runs.  A measured time t with probe times
p_1..p_k around and inside it is reported as

    scaled time = t * REFERENCE_S * mean(1 / p_i),

the time the operation would have taken had the reference work run in
``REFERENCE_S`` seconds throughout.  The time spent in probes inside an
operation is left out of t.  The reference work depends on nothing in the
package, so a change to the package cannot change the probe.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# One run of the reference work took about this long on the 2-vCPU host
# that the baseline in README.md was measured on, in its fast phases.
REFERENCE_S = 0.006
PROBE_REPEATS = 2
INTERVAL_S = 0.25

_VEC = np.linspace(0.0, 1.0, 64) + 1j


def _reference_work():
    s = 0
    for i in range(50_000):
        s += i * i % 7
    z = _VEC
    for _ in range(400):
        z = z * 0.999 + np.sqrt(z) * 1e-3
    return s, z


def probe() -> float:
    """Mean time of one run of the reference work, over PROBE_REPEATS."""
    t0 = time.perf_counter()
    for _ in range(PROBE_REPEATS):
        _reference_work()
    return (time.perf_counter() - t0) / PROBE_REPEATS


def scaled(measured_s: float, probes: list[float]) -> float:
    """``measured_s`` at the host speed where the probe takes REFERENCE_S."""
    return measured_s * REFERENCE_S * statistics.fmean(1.0 / p for p in probes)


def timed(fn, *args, before: float | None = None, inside: bool = True):
    """Call ``fn(*args)``; return its result or the exception it raised,
    the measured and the scaled seconds, and the probe time taken after
    the call.  ``before`` is a probe time taken just before the call (the
    previous call's last one); without it, one is taken.  With ``inside``
    false the probe runs only before and after the call."""
    probes = [probe() if before is None else before]
    in_probes = 0.0

    def on_timer(signum, frame):
        nonlocal in_probes
        t0 = time.perf_counter()
        probes.append(probe())
        in_probes += time.perf_counter() - t0

    if inside:
        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:    # the caller decides which ones count
        out = exc
    finally:
        elapsed = time.perf_counter() - t0
        if inside:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    probes.append(probe())
    measured = elapsed - in_probes
    return out, measured, scaled(measured, probes), probes[-1]
