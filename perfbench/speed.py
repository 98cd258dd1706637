"""Scaling of wall times to a reference machine speed.

The benchmark runs on shared machines whose single-thread speed drifts by up
to ~2x, within a second and over minutes, with the load of other tenants.
That drift moves a raw wall time far more than the bounds in BENCHMARK.json
allow.  So every reported time is measured with a ``Meter``: it samples the
wall time r of a fixed reference loop (~0.2 ms) before the timed code, every
INTERVAL seconds while it runs (from a SIGALRM handler, in the same thread)
and after it, and reports

    seconds = (wall time - sampling time) * REF_S / mean(r),

where REF_S is the loop's time on the machine the benchmark was defined on
(Intel Xeon, 2 cores, Python 3.11).  A change to the package moves the timed
code and not the loop, so it moves the scaled time as it moves the raw one;
machine drift slows both and cancels.  The raw wall times are kept in the
result record.

The loop mixes what the workloads spend their time on in the interpreter:
complex elementary functions and arithmetic, float formatting, small-object
creation, calls, and list and dict building.
"""

from __future__ import annotations

import cmath
import gc
import signal
import statistics
import time

REF_S = 0.00022
INTERVAL = 0.02


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a = a
        self.b = b


def _affine(pair: _Pair, x: float) -> float:
    return pair.a * x + pair.b


def _loop_s() -> float:
    start = time.perf_counter()
    z, acc = 0.1 + 0.2j, 0j
    cells, rows, table = [], [], {}
    for i in range(150):
        z = cmath.tanh(z + 0.001 * i) + 0.5j
        cells.append(format(z.real, ".17g"))
        y = _affine(_Pair(i * 0.5, 1.0 + i), 0.25)
        acc = acc * (0.5 + 0.1j) + complex(y, -y) / (1.0 + i)
        table[i & 63] = y
        rows.append((i, y))
    ",".join(cells)
    sorted(rows, key=lambda row: -row[1])
    return time.perf_counter() - start


def reference_s() -> float:
    """Wall time of the reference loop: the faster of two runs, so that an
    interrupt during one run does not count as a slow machine.  The garbage
    collector is paused so that the size of the caller's heap cannot change
    the loop's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_loop_s(), _loop_s())
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Context manager timing its block; afterwards ``wall`` is the wall time
    net of sampling and ``seconds`` the time at reference speed.  Meters do
    not nest, and only the main thread can use one."""

    def __enter__(self) -> "Meter":
        self.samples = [reference_s()]
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._start = time.perf_counter()
        return self

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference_s())
        self.spent += time.perf_counter() - start

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall = time.perf_counter() - self._start - self.spent
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(reference_s())
        self.seconds = self.wall * REF_S / statistics.fmean(self.samples)
        return False
