"""Machine-speed probe for the timed phase of a worker process.

The host the benchmark was built on changes speed by up to 1.9x within
seconds (the same pure-Python loop takes 0.5 ms in one quarter second and
0.95 ms in the next), with no steal time and user CPU time slowing by the
same factor, so raw wall times of identical processes spread by 10-16%.
The probe measures that speed while the program runs: every `INTERVAL_S`
a SIGALRM handler times a fixed kernel shaped like the program's inner
loop, a product of two small polynomials kept as dicts of exponent tuples
followed by a leading-monomial search under a grevlex-style key.

`norm_s(wall_s)` rescales a wall time to the speed at which the kernel
takes `REF_NS`: the timed phase holds `wall_s * mean(REF_NS / sample)`
seconds of work at that speed, each sample standing for one interval.
Its process-to-process spread on the same pair order is 2.5-4.5%.  The
handler costs about 0.6% of the timed phase, with or without an
optimisation of the program.
"""

import signal
import statistics
from time import perf_counter_ns

INTERVAL_S = 0.01
# the kernel's time in the fast phases of the reference machine (2-vCPU
# Intel Xeon VM, Python 3.11); a constant, so that a run's result does not
# depend on how fast the machine was while that run measured
REF_NS = 50_000

_PRECEDENCE = (3, 1, 0, 2, 5, 4, 7, 6)
_F = {tuple((i * j + 1) % 3 for j in range(8)): i + 1 for i in range(6)}
_G = {tuple((i + 2 * j) % 4 for j in range(8)): 2 * i + 1 for i in range(6)}


def _kernel():
    prod = {}
    for m1, c1 in _F.items():
        for m2, c2 in _G.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            prod[m] = (prod.get(m, 0) + c1 * c2) % 3
    return max(prod, key=lambda m: (sum(m), tuple(-m[i] for i in _PRECEDENCE)))


class SpeedProbe:
    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        start = perf_counter_ns()
        _kernel()
        self.samples.append(perf_counter_ns() - start)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def norm_s(self, wall_s):
        if not self.samples:  # a timed phase shorter than one interval
            return wall_s
        return wall_s * statistics.fmean(REF_NS / ns for ns in self.samples)
