"""Machine-speed scaling of the end-to-end times.

The machine this benchmark was tuned on is two vCPUs of a shared host. Its
speed flips between a fast and a slow state, about 1.6x apart, several
times a second, and the share of time spent in each state follows the other
tenants' load over minutes. The same pass took 2.6 s in one minute and
4.1 s in the next, so wall times of whole runs spread by 40%.

A Probe samples that speed while a pass runs: an interval timer raises
SIGALRM every PERIOD_S seconds of wall time, and the handler times
`reference()`, a fixed piece of pure-Python work that never calls the
program. The samples are uniform in wall time, so the mean of their rates
(1 / duration) is the machine's mean speed over the pass. A time T measured
under a probe, minus the time spent in the handler, is reported as
T * NOMINAL_S * mean(rate): the time the same work takes on a machine on
which one `reference()` takes NOMINAL_S. Raw wall times go to the record.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.01
# About the median duration of reference() on the 2-vCPU x86_64 VM above
# (Python 3.11); it only sets the scale, so scaled times there read close to
# wall times.
NOMINAL_S = 200e-6


def reference() -> int:
    """Fraction arithmetic, a set and a sort, like the program's inner loops; about 0.2 ms."""
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i, i + 7)
    return total.numerator + len(sorted({(i * 7) % 13 for i in range(200)}))


class Probe:
    """Samples the machine's speed while in a `with` block; see the module docstring."""

    def __init__(self) -> None:
        self.rates: list[float] = []
        self.spent = 0.0  # wall seconds spent in the handler
        self._busy = False
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        start = perf_counter()
        reference()
        took = perf_counter() - start
        self.rates.append(1.0 / took)
        self.spent += perf_counter() - start
        self._busy = False

    def __enter__(self) -> Probe:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.rates:  # a block shorter than one period: sample once, after it
            start = perf_counter()
            reference()
            self.rates.append(1.0 / (perf_counter() - start))

    def scale(self) -> float:
        """Factor from wall seconds on this machine, now, to seconds at the nominal speed."""
        return NOMINAL_S * statistics.fmean(self.rates)
