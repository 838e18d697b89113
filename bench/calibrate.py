"""Pass times rescaled to the core's own speed, for hosts whose speed drifts.

On a shared host one core runs the same code at speeds up to about 1.7x
apart, depending on what other tenants run beside it, and a slow spell can
last from milliseconds to tens of seconds. A pass's plain wall time carries
that drift, so two runs of the same code minutes apart can differ by 30%.

``SpeedClock`` interleaves a fixed probe, a short pure-Python loop, with the
pass. It cuts the pass into segments at every entry to and exit from the
functions the tracer targets, and runs the probe at a cut when ``PROBE_EVERY_S``
has passed since the last one. The probe's time is left out of the segments.
Each segment is then measured in probe durations, taken as the mean of the
probes just before and just after it, and the pass's ``units`` are their sum.
``run.py`` turns units into reference seconds: units times
``REFERENCE_PROBE_S``, the probe's time in the core's fast state on the host
where the benchmark was written, so a pass reads as its wall time on that
core at its fastest. A fixed factor is steadier than this run's own
fast-state probe time (``fast_probe_s``, which ``run.py`` prints beside it):
a run that never meets the fast state would misjudge that, and it moved by
up to 10% between runs.
"""

from __future__ import annotations

import functools
import statistics
import time

PROBE_EVERY_S = 0.05
PROBE_LOOP = 10_000
# the probe's time in the fast state of a 2-vCPU Intel Xeon VM under
# Python 3.11, where it took 0.33-0.37 ms (slow state: about 0.55 ms)
REFERENCE_PROBE_S = 0.35e-3
FAST_QUANTILE = 50  # the fast state's probe time: the 2nd percentile


def probe(clock=time.perf_counter) -> float:
    """Duration of a fixed pure-Python loop."""
    start = clock()
    x = 0
    for i in range(PROBE_LOOP):
        x += i
    return clock() - start


def fast_probe_s(probes: list[float]) -> float:
    """Probe duration in the core's fast state: a low quantile of many probes."""
    return statistics.quantiles(probes, n=FAST_QUANTILE)[0]


class SpeedClock:
    """Segments a pass at calls into agencykit and probes the core's speed between them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.segments: list[float] = []
        self.probes: list[tuple[int, float]] = []  # (segments before it, seconds)
        self._segment_start: float | None = None
        self._last_probe = float("-inf")
        self._patches: list = []

    def cut(self, force_probe: bool = False) -> None:
        """End the current segment and start the next, probing in between if due."""
        now = self.clock()
        if self._segment_start is not None:
            self.segments.append(now - self._segment_start)
        if force_probe or now - self._last_probe >= PROBE_EVERY_S:
            self.probes.append((len(self.segments), probe(self.clock)))
            now = self._last_probe = self.clock()
        self._segment_start = now

    def wrap(self, fn, span_name: str):
        cut = self.cut

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            cut()
            try:
                return fn(*args, **kwargs)
            finally:
                cut()

        return timed

    def start(self) -> None:
        from tracer import patch_targets

        self._patches = patch_targets(self.wrap)
        self.cut(force_probe=True)

    def stop(self) -> None:
        from tracer import unpatch

        self.cut(force_probe=True)
        unpatch(self._patches)
        self._patches = []

    def units(self) -> float:
        """The pass's time in probe durations, segment by segment."""
        total = 0.0
        after = 0
        for k, seconds in enumerate(self.segments):
            # a probe with index i ran between segments i - 1 and i
            while self.probes[after][0] <= k:
                after += 1
            local = (self.probes[after - 1][1] + self.probes[after][1]) / 2
            total += seconds / local
        return total
