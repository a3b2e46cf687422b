"""A gauge of how fast the machine runs while a pass is being timed.

On a shared host the speed of the same code drifts by tens of percent
within seconds and between minutes, and a pass of the `all` workload is
seconds long. `SpeedGauge` therefore interrupts the timed pass every
INTERVAL_S seconds (SIGALRM) and times a fixed snippet of pure-Python work
in the same process. The pass's time without the snippets, divided by the
mean snippet time, is a ratio that the host's drift mostly cancels out of;
the benchmark reports it times NOMINAL_S, in seconds.

The snippet imports nothing from amortcheck and allocates next to nothing
that the garbage collector tracks, so the program under test can neither
change it nor have its collector run inside it.
"""

import signal
import time

INTERVAL_S = 0.1
EDGE_SAMPLES = 4  # untimed samples just before and just after the block
NOMINAL_S = 0.004  # a typical snippet time on a 2-core Intel Xeon (2.1 GHz) VM

_ITEMS = [(i, "ab"[i & 1] * (i % 5), i * 7 % 13) for i in range(512)]
_TABLE = {f"{a}:{b}": c for a, b, c in _ITEMS}
# Past the small-object allocator's size limit, like the long states that
# the trace workload copies on every step.
_LONG = tuple("ab"[i & 1] for i in range(400))


def snippet(rounds=9):
    """Dict lookups, string formatting, int arithmetic and long tuple copies."""
    total = 0
    for _ in range(rounds):
        for a, b, c in _ITEMS:
            total += _TABLE[f"{a}:{b}"] + len(b) + (a ^ c)
        for i in range(0, 400, 8):
            total += len(_LONG[i:] + _LONG[:i])
    return total


class SpeedGauge:
    """Samples the snippet's time from a timer signal during a `with` block."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0  # time inside the handler, to subtract from the block

    def _sample(self):
        t0 = time.perf_counter()
        snippet()
        self.samples.append(time.perf_counter() - t0)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._sample()
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        for _ in range(EDGE_SAMPLES):  # so that even a short block is gauged
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_SAMPLES):
            self._sample()
        return False
