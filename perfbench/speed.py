"""Host speed sampling, and times scaled to a reference host speed.

The shared host this benchmark runs on switches between a fast and a slow
state, about 1.8x apart, several times a second (NOTES.md, "Host speed").
A median over a run then measures how long the host spent in each state
more than it measures the program.  So every timed interval is scaled by
the host's speed at the time:

* while a ``SpeedSampler`` runs, an interval timer interrupts the process
  every ``PERIOD_S`` and times one run of each kernel in ``KERNELS``:
  fixed pieces of Python work shaped like the work they scale;
* an interval ``[t0, t1]`` is scaled to ``(t1 - t0 - own) * mean(ref /
  d)``, where ``own`` is the sampler's time inside the interval, ``ref``
  is the kernel's reference time, and the mean runs over the kernel's
  times ``d`` taken inside the interval and next to it, each the median of
  five neighbouring kernel runs.

The two kinds of work slow down by different amounts when the host does,
so each has its own kernel:

* ``cipher`` (the cipher, verification, import and key set-up): SHAKE-256
  of a short query, 8-byte probe words reduced modulo the key size, and
  key-bit gathers from a 125 KB table;
* ``bignum`` (the bound sweep): mpmath logarithms at the bounds module's
  240-bit precision, through ``mpmath.libmp`` so that no global context
  is touched.

A scaled interval reads as its length on a host where each kernel takes
its reference time: about the fast state of the 2-vCPU Xeon host the
benchmark was tuned on.  The kernels live here, so a change to the library
does not move them.
"""

import hashlib
import random
import signal
from statistics import median
from time import perf_counter_ns as now

from mpmath.libmp import from_int, mpf_div, mpf_log

PERIOD_S = 0.01
SMOOTH = 5
_KEY = random.Random(0).randbytes(125_001)


def cipher_kernel():
    nbits = len(_KEY) * 8
    bit = 0
    for r in range(4):
        query = b"\x01" + r.to_bytes(8, "big") + b"\x00\x10" + (r * 7919).to_bytes(2, "big")
        stream = hashlib.shake_256(query).digest(65)
        for j in range(8):
            p = int.from_bytes(stream[8 * j:8 * j + 8], "big") % nbits
            bit ^= _KEY[p // 8] >> (p % 8) & 1
    return bit


def bignum_kernel():
    return [mpf_log(mpf_div(from_int(i), from_int(7), 240, "n"), 240, "n")
            for i in (3, 5, 11, 13)]


# name: (kernel, reference time in ns)
KERNELS = {"cipher": (cipher_kernel, 25_000), "bignum": (bignum_kernel, 45_000)}


def speed_factor():
    """Reference time over the cipher kernel's time now, for a step too
    long or too memory-bound to sample inside: the median of the last 10
    of 20 back-to-back kernel runs, so that the first 10 warm the caches."""
    kernel, ref = KERNELS["cipher"]
    times = []
    for _ in range(20):
        t0 = now()
        kernel()
        times.append(now() - t0)
    return ref / median(times[10:])


class SpeedSampler:
    """Times each kernel every ``PERIOD_S`` while started (SIGALRM)."""

    def __init__(self):
        self.starts, self.owns = [], []
        self.durs = {name: [] for name in KERNELS}
        self.running = False
        for kernel, _ in KERNELS.values():
            for _ in range(3):
                kernel()

    def _tick(self, signum=None, frame=None):
        start = now()
        for name, (kernel, _) in KERNELS.items():
            t0 = now()
            kernel()
            self.durs[name].append(now() - t0)
        self.owns.append(now() - start)
        self.starts.append(start)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.running = True

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()
        self.running = False

    def paused(self, fn):
        """Call ``fn`` with the sampler stopped, e.g. while a child runs."""
        running = self.running
        if running:
            self.stop()
        try:
            return fn()
        finally:
            if running:
                self.start()

    def scaled_ns(self, t0, t1, kernel="cipher"):
        """Scale intervals ``[t0[i], t1[i]]`` (perf_counter ns) by ``kernel``.

        Returns a list of floats.  Every interval must lie in a stretch of
        time during which the sampler ran.
        """
        import numpy

        starts = numpy.asarray(self.starts, dtype=numpy.int64)
        durs = numpy.asarray(self.durs[kernel], dtype=numpy.float64)
        # A kernel run the OS preempted, or the first after a pause, reads
        # as a slow host: take the median of each kernel time and its
        # neighbours, ``SMOOTH`` in all, mirrored at the ends.
        h = SMOOTH // 2
        padded = numpy.concatenate((durs[h:0:-1], durs, durs[-2:-h - 2:-1]))
        durs = numpy.median([padded[i:len(padded) - 2 * h + i]
                             for i in range(2 * h + 1)], axis=0)
        own = numpy.concatenate(([0.0], numpy.cumsum(self.owns)))
        speed = numpy.concatenate(([0.0], numpy.cumsum(KERNELS[kernel][1] / durs)))
        t0 = numpy.asarray(t0, dtype=numpy.int64)
        t1 = numpy.asarray(t1, dtype=numpy.int64)
        j0 = numpy.searchsorted(starts, t0)
        j1 = numpy.searchsorted(starts, t1)
        lo = numpy.maximum(j0 - 1, 0)
        hi = numpy.minimum(j1 + 1, len(starts))
        factor = (speed[hi] - speed[lo]) / (hi - lo)
        return ((t1 - t0 - (own[j1] - own[j0])) * factor).tolist()
