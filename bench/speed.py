"""A probe of how fast the machine runs memory-bound Python code right now.

On a shared host the same pass of a workload was measured to run up to
a third slower for spells of seconds to minutes, with CPU time equal to
wall time: other tenants compete for the caches and memory.  A short
compute loop barely notices those spells; a pointer chase through a
large random cycle of Python ints does, roughly in step with the
workloads, whose inner loops also walk scattered Python objects.

The harness samples the probe between ops (untimed): before an op when
the last sample is `every_s` old, and after every op that took longer.
Each op's time is scaled by `REFERENCE_S` over the mean of the samples
just before and just after it, which puts it in reference seconds.  On
a 2-vCPU Xeon VM, in noisy spells, this cut the spread of a workload's
time over six 50-second runs from 14-22% to 3-6% (middle half over
median); in calm spells it adds a few percent of its own.  The probe
touches no realcech code, so a change to the program moves the scaled
time as much as the raw one.
"""

import os
import random
import time

SIZE = 1 << 21          # entries of the cycle: a 16 MiB list and 64 MiB of ints
STEPS = 20000           # steps per sample, about 10 ms on a 2-vCPU Xeon VM
REFERENCE_S = 0.010     # the sample time at which a time is left unscaled


def _resident_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _cycle(size):
    """A list `nxt` such that 0 -> nxt[0] -> ... visits every index once
    (Sattolo's shuffle; one list, so no transient copy)."""
    nxt = list(range(size))
    rand = random.Random(0).random
    for i in range(size - 1, 0, -1):
        j = int(rand() * i)
        nxt[i], nxt[j] = nxt[j], nxt[i]
    return nxt


class SpeedProbe:
    def __init__(self, every_s=0.05):
        self.every_s = every_s
        rss0 = _resident_bytes()
        self._nxt = _cycle(SIZE)
        self.footprint_bytes = _resident_bytes() - rss0
        self._scaled = {}       # op key -> reference seconds, since take()
        self._pending = []      # (op key, seconds) since the last sample
        self._prev = None       # the last sample
        self._last = 0.0        # when it ended
        for _ in range(3):      # warm-up
            self.sample()

    def _chase(self):
        nxt, j = self._nxt, 0
        for _ in range(STEPS):
            j = nxt[j]
        return j

    def sample(self):
        t0 = time.perf_counter()
        self._chase()
        self._last = time.perf_counter()
        s = self._last - t0
        for key, seconds in self._pending:
            self._scaled[key] = seconds * 2 * REFERENCE_S / (self._prev + s)
        self._pending = []
        self._prev = s

    def before_op(self):
        if time.perf_counter() - self._last >= self.every_s:
            self.sample()

    def after_op(self, key, seconds):
        self._pending.append((key, seconds))
        if seconds >= self.every_s:
            self.sample()

    def take(self):
        """{op key: reference seconds} of the ops since the last take()."""
        self.sample()
        out, self._scaled = self._scaled, {}
        return out

    def around(self, fn):
        """Run fn() between two samples; returns its result and the factor
        that turns a time taken during it into reference seconds."""
        self.take()
        before = self._prev
        result = fn()
        self.take()
        return result, 2 * REFERENCE_S / (before + self._prev)
