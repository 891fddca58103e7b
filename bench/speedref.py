"""How fast the host runs around each step a benchmark run times.

The benchmark shares a host whose speed drifts: the same code runs up to
1.7 times as slow for seconds or minutes at a time, with CPU time rising as
much as wall time. A run therefore also times a fixed kernel of the
benchmark's own, the reference, in short bursts between the program's
timed steps, and reports each step's time scaled to the reference's
nominal speed:

    reported = measured * NOMINAL_S / median(reference passes near the step)

where "near" is during the step or within WINDOW_S before it starts or
after it ends.

The reference touches nothing of ``ragplan``, so a change to the program
moves the reported times exactly as much as the measured ones, while a
slow stretch of the host moves the reference and the program together.
Its work is what most of the program's time goes to: interpreted Python
and numpy calls on small vectors.

The scaling is local because a run can switch between a fast and a slow
stretch within seconds. In one index-4k run, reads took about 1.1 s
while the reference took 0.56 ms, and about 1.5 s while it took 0.85 ms.
Scaled by the passes next to each read, both stretches gave 1.3-1.5 s at
the nominal speed.

A long step, such as ``ragplan train``, leaves no gap for passes, and
the few passes at its ends tell little of the host's speed over its
length: scaled by them, serve-demo's ``build_s`` spread 0.34 across five
seeds. So once a build or set-up step has run for SAMPLE_AFTER_S, a
second thread times one pass every SAMPLE_EVERY_S seconds until it ends.
It takes the interpreter lock for about a millisecond each time, so the
step loses under 1% of its time. Shorter steps get no passes inside
them: with passes taken alongside the numpy work of index-4k's 1.3 s
graph builds, their scaled ``build_s`` spread 0.19 across ten seeds,
and 0.10-0.17 when scaled by the passes around them.
"""

from __future__ import annotations

import bisect
import contextlib
import statistics
import threading
import time

import numpy as np

# Median time of one reference pass on the host the baseline was taken on
# (2-vCPU VM, Python 3.11, one OpenBLAS thread). Only the scale of the
# reported times depends on it.
NOMINAL_S = 0.75e-3
# Reference passes that start during a step, or within this many seconds
# before it starts or after it ends, scale its time.
WINDOW_S = 1.0
# From this many seconds into a build or set-up step, one pass every
# SAMPLE_EVERY_S seconds until the step ends.
SAMPLE_AFTER_S = 2.0
SAMPLE_EVERY_S = 0.2
# Between two ops the reference runs for about this share of the op's
# time, and at least once.
SHARE = 0.05
# Reference passes before and after each set-up or build repetition.
BURST = 5

now = time.perf_counter


class SpeedRef:
    """Reference passes timed through one run, as (start, seconds)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20250417)
        self._small = [rng.standard_normal(64) for _ in range(48)]
        self.samples: list[tuple[float, float]] = []

    def _kernel(self) -> float:
        total = 0.0
        for i in range(6000):
            total += i * 0.5
        table = {str(i): i for i in range(600)}
        total += len(table)
        first = self._small[0]
        for vector in self._small:
            total += float(np.dot(vector, first)) / (float(np.linalg.norm(vector)) + 1.0)
        return total

    def sample(self, times: int = BURST) -> None:
        for _ in range(times):
            t0 = now()
            self._kernel()
            self.samples.append((t0, now() - t0))

    @contextlib.contextmanager
    def sampling(self):
        """Time a pass every SAMPLE_EVERY_S seconds from a second thread,
        from SAMPLE_AFTER_S seconds into the body until it ends."""
        stop = threading.Event()

        def sample_until_stopped():
            if stop.wait(SAMPLE_AFTER_S):
                return
            while not stop.wait(SAMPLE_EVERY_S):
                self.sample(1)

        thread = threading.Thread(target=sample_until_stopped, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def after_op(self, op_seconds: float) -> None:
        self.sample(max(1, min(50, round(op_seconds * SHARE / NOMINAL_S))))

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the nominal speed. Call it
        once the burst after the step has run."""
        lo = bisect.bisect_left(self.samples, (start - WINDOW_S,))
        hi = bisect.bisect_right(self.samples, (start + seconds + WINDOW_S,))
        near = [d for _, d in self.samples[lo:hi]] or [d for _, d in self.samples]
        return seconds * NOMINAL_S / statistics.median(near)

    def summary(self) -> dict:
        return {"passes": len(self.samples),
                "median_ms": statistics.median(d for _, d in self.samples) * 1e3}
