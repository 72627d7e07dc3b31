"""A fixed reference kernel that tracks the machine's speed during a run.

On a shared machine the same code can run 40% slower for seconds to
minutes at a time, because of other tenants. The timed loop runs this
kernel after each operation, and scales the operation's time by how
long the kernel has recently taken against its nominal time, so runs
made while the machine is slow and runs made while it is fast agree.
The kernel mixes the kinds of work the package does: FFTs, elementwise
passes over megabytes of samples, and interpreted Python.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# the kernel's median time on the machine the bounds were set on (2-vCPU
# Intel Xeon at 2.0 GHz, numpy 2.4, Python 3.11), in its faster state
NOMINAL_S = 0.0035
# share of the program's time spent probing, and never less than one sample
PROBE_SHARE = 0.08
# fewest samples behind the scale applied to one operation
RECENT = 15


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._signal = rng.standard_normal(1 << 15)
        self._block = rng.standard_normal(1 << 17)
        self._samples = rng.standard_normal(1 << 19)
        self._out = np.empty_like(self._samples)
        self._words = [f"w{k % 97}" for k in range(4000)]
        self.samples = []
        self._taken_last = 0  # samples kept after the previous operation

    def _kernel(self) -> None:
        spec = np.fft.rfft(self._signal)
        np.fft.irfft(spec * np.conj(spec))
        float(np.sqrt(np.abs(self._block) + 1.0).sum())
        np.multiply(self._samples, 1.0001, out=self._out)
        np.add(self._out, self._samples, out=self._out)
        counts = {}
        for word in self._words:
            counts[word] = counts.get(word, 0) + 1
        json.dumps(counts, sort_keys=True)

    def sample(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    def follow(self, busy_s: float) -> float:
        """Probe for about PROBE_SHARE of the busy_s just spent; return
        the slowdown to scale that time by, from the samples kept just
        before and just after the operation (at least RECENT of them).

        The first run after an operation only brings the kernel's data
        back into the caches, which the operation may have evicted, and
        is not kept: otherwise the program's own memory use would leak
        into the scale."""
        self._kernel()
        before = len(self.samples)
        spent = self.sample()
        while spent < PROBE_SHARE * busy_s:
            spent += self.sample()
        taken = len(self.samples) - before
        window = max(RECENT, taken + self._taken_last)
        self._taken_last = taken
        return self.slowdown(window)

    def slowdown(self, recent: int = 0) -> float:
        """Median kernel time over its nominal time, 1.0 on the reference
        machine; over the last `recent` samples, or all of them."""
        return statistics.median(self.samples[-recent:]) / NOMINAL_S
