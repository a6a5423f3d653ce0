"""The machine's current speed, sampled from inside the timed process.

On a shared machine the same pass can take a quarter longer or shorter from
one minute to the next, because other tenants compete for the cores and
caches.  ``SpeedSampler`` runs a fixed reference kernel every ``PERIOD``
seconds from a SIGALRM handler, in the main thread and between bytecodes of
whatever is running, so its samples see the same machine state as the work
they interrupt.  Dividing a pass's time by the mean kernel time during that
pass gives a cost that moves with the program and much less with the
machine.  The kernel is a few sparse products of dict polynomials mod 3^7,
the same kind of work as crystalcalc's series arithmetic, but it imports
nothing from crystalcalc, so a change to the program cannot change it.
"""

import signal
import time

PERIOD = 0.1        # seconds between samples; each sample takes about 1.5 ms

# Times measured on one machine are scaled to one on which the kernel takes
# this long, so that a slower or busier machine does not read as a regression.
REFERENCE_KERNEL_S = 0.001

_MOD = 3 ** 7
_FACTORS = [{(i, j): (7 * i + 3 * j + k) % _MOD
             for i in range(6) for j in range(6) if (i + j + k) % 3}
            for k in range(3)]


def reference_kernel():
    """A fixed amount of dict and integer work; returns its checksum."""
    acc = {(0, 0): 1}
    for factor in _FACTORS:
        out = {}
        for (a1, b1), c1 in acc.items():
            for (a2, b2), c2 in factor.items():
                key = (a1 + a2, b1 + b2)
                out[key] = (out.get(key, 0) + c1 * c2) % _MOD
        acc = out
    return sum(acc.values())


class SpeedSampler:
    """Collects reference-kernel durations while the ``with`` block runs."""

    def __init__(self, period=PERIOD):
        self.period = period
        self.samples = []

    def _tick(self, _signum, _frame):
        start = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
