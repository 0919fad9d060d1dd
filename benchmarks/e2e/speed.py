"""Machine-speed sampling, so timings are comparable across speed swings.

The virtual machines this benchmark runs on change speed by up to 2x
for tens of seconds at a time, for reasons invisible from inside (no
steal time is reported).  A run that lands in a slow phase reads slow
however long it measures.  So while a pass runs, a ``SIGPROF`` timer
interrupts it every :data:`INTERVAL_S` of CPU time and times one
*yardstick slice*: a fixed piece of pure-Python work that shares nothing
with the program.  The mean of ``REFERENCE_SLICE_S / slice time`` is the
pass's speed as a share of the reference machine, and the end-to-end
timings are reported at reference speed: measured seconds times that
share.  The program's own speed is untouched by this, so a change that
makes the program faster still reads faster.

The garbage collector is paused during a slice.  Otherwise the slice's
allocations set off collections of the program's young objects, and
the slice time followed the program's heap: inside one protocol sweep
the median slice varied from 1.9 to 2.6 ms between identical runs, with
outliers up to 10 ms, against 1.47 ms with the collector paused.

The slices cost under 1% of run time.  The yardstick imports nothing
beyond the standard library, so a cold start can time it before it
imports ``repro`` (and NumPy) without moving that import cost.
"""

from __future__ import annotations

import gc
import math
import signal
import time

#: CPU seconds between two samples.
INTERVAL_S = 0.25
#: Slice time of the reference machine at its usual speed: a 2-vCPU
#: Xeon VM at 2.0 GHz running CPython 3.11.
REFERENCE_SLICE_S = 1.47e-3
#: How cold-start time follows the yardstick: a cold start reads
#: ``raw * speed ** SETUP_SPEED_EXPONENT`` at reference speed.  Importing
#: (file reads, unmarshalling, loading NumPy and SciPy's shared objects)
#: slows less than pure-Python work when the machine slows: over 180 cold
#: starts at speed shares 0.40-1.11, log time fell with log speed at a
#: slope of 0.58-0.69.  Full normalization (exponent 1) moved the median
#: of ten runs by 22% between a slow and a fast pass; 0.7 by at most 9%.
SETUP_SPEED_EXPONENT = 0.7


def yardstick_slice() -> float:
    """Time one fixed slice of interpreter-bound work, seconds."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc, table, items = 0.0, {}, []
        for k in range(6000):
            x = (k * 2654435761) & 1023
            table[x] = table.get(x, 0) + 1
            acc += math.hypot(x, k & 31)
            if not k & 15:
                items.append((x, acc))
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def speed_share(samples: list[float]) -> float:
    """Mean speed of *samples* as a share of the reference machine."""
    return sum(REFERENCE_SLICE_S / s for s in samples) / len(samples)


class SpeedProbe:
    """Yardstick samples taken on a CPU-time timer while started."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(yardstick_slice())
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S)

    def start(self) -> None:
        """Sample now, then every :data:`INTERVAL_S` of CPU time."""
        self.samples.append(yardstick_slice())
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
        self.samples.append(yardstick_slice())
