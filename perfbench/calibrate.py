"""Machine-speed calibration: a fixed reference probe timed alongside the work.

The host this benchmark was built on shares its cores with other tenants,
and its speed drifts by 20-40% within minutes: the same `analyze` mix took
6.7 ms per operation in one ten-second window and 10.7 ms in the next.
Runs of identical code then disagree by more than any useful bound.  So
every run also times a reference probe, a fixed piece of work in this file
that the program under test never touches, and reports its timings scaled
to the probe's nominal speed:

    calibrated = measured * NOMINAL_PROBE_S / mean probe time around it

The probe has three parts, one for each kind of work the workloads do:
float map steps and ``repr`` in the interpreter (``maps``), Walsh
transforms of 8 x 256 integer tables in small numpy calls (the ``metrics``
battery and the ``generator`` climb), and CSV-like row rendering plus a
pass over a 2 MiB array (CSV output, larger working sets).  Its time is the
geometric mean of the three.  A change to the program does not move the
probe, so it moves calibrated times as it moves measured ones, while the
host's drift largely cancels out.
"""

import math
import signal
import statistics
import time

import numpy as np

# About the mean probe time on the reference machine (2 cores, Python
# 3.11.7, numpy 2.4.6), so calibrated seconds stay near measured ones there.
NOMINAL_PROBE_S = 1.0e-3
SAMPLE_INTERVAL_S = 0.1       # one probe per 100 ms of wall time, 3-4% of it
WINDOW_S = 1.0                # an op is scaled by the probes within 1 s of it

# Fixed inputs made by arithmetic, so that the probe adds little to the
# worker's peak RSS: numpy.random would load extension modules the program
# does not, and freeing a large temporary would raise glibc's mmap threshold
# and change how the program's own allocations are served.
_TABLE = (np.arange(8 * 256, dtype=np.int64).reshape(8, 256) * 7919 % 3) - 1
_ARRAY = np.arange(1 << 18, dtype=np.float64)      # 2 MiB, built in place, kept
_ARRAY *= 0.6180339887498949
_ARRAY %= 1.0


def _interpreter_part() -> int:
    x, n = 0.3, 0
    for _ in range(800):
        x = 3.9 * x * (1.0 - x)
        n += len(repr(x))
    return n


def _small_numpy_part() -> int:
    acc = 0
    for _ in range(6):
        a = _TABLE.copy()
        h = 1
        while h < 256:
            a = a.reshape(8, -1, 2 * h)
            x, y = a[..., :h].copy(), a[..., h:].copy()
            a[..., :h] = x + y
            a[..., h:] = x - y
            h *= 2
        acc += int(np.abs(a).max())
    return acc


def _memory_part() -> int:
    rows = [f"{v!r},{v * 0.5!r}" for v in _ARRAY[:800].tolist()]
    return len("\n".join(rows)) + int(np.argmax(_ARRAY))


def probe() -> float:
    """Seconds of one reference probe: geometric mean of its three parts."""
    parts = []
    for part in (_interpreter_part, _small_numpy_part, _memory_part):
        t0 = time.perf_counter()
        part()
        parts.append(time.perf_counter() - t0)
    return math.prod(parts) ** (1 / len(parts))


def mean_probe(count: int) -> float:
    """Mean of ``count`` probes after one untimed warm-up probe."""
    probe()
    return statistics.fmean(probe() for _ in range(count))


class Sampler:
    """Runs ``probe`` every ``SAMPLE_INTERVAL_S`` of wall time from SIGALRM.

    The handler runs in the main thread between bytecodes, so it can land
    inside a timed operation; ``spent`` sums the handler's own time so the
    caller can take it back out.  ``samples`` holds (perf_counter, probe s).
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append((t0, probe()))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scale(start: float, end: float, samples: list, fallback: float) -> float:
    """Factor that takes a time measured over [start, end] to nominal speed.

    An operation's time sums the host's slowness over its span, so the
    factor uses the mean, not the median, of the probes within
    ``WINDOW_S`` of the span; ``fallback`` (the run's mean probe) stands
    in when there are fewer than three.
    """
    near = [p for t, p in samples if start - WINDOW_S <= t <= end + WINDOW_S]
    local = statistics.fmean(near) if len(near) >= 3 else fallback
    return NOMINAL_PROBE_S / local
