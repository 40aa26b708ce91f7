"""Timings corrected for the speed of a shared machine.

On a small VM that shares its host, the same code runs up to 1.6x slower
from one second to the next, whoever else is busy.  A ``SpeedProbe``
samples that speed while timed code runs: a timer interrupts the code
every ``interval`` seconds and runs one fixed burst of work.
``seconds(t0, t1)`` is the time between two clock readings, less the
bursts run in between, times the mean over those bursts of nominal over
measured burst duration.  So a timing reads in seconds of a machine on
which the burst takes its nominal time, and two runs at different times
of a busy host read alike.

A busy host slows some code more than other code, so the burst imitates
the code it corrects.  ``LAYER_BURST`` (a Python loop, then two tanh
layers on 512 x 64 arrays) is for training, whose time goes to numpy
products on activations of that size; ``LOOP_BURST`` (a Python loop, then
thirty 16 x 16 products) is for sampling, whose time goes to the
per-agent Python loop of ``orca_adjust``.  Over repeats of one workload on
a 2-vCPU VM, each burst took the uncorrected spread of repeat times
(quartile distance over median) from 9-21% down to 2-4% on its own kind
of code, and less well on the other kind.

The probe costs 1-2% of the timed code.  It runs Python code between the
program's bytecodes in the main thread and touches none of the program's
state.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np

clock = time.perf_counter

_rng = np.random.default_rng(0)
_ROWS = _rng.standard_normal((512, 64))
_WEIGHTS = 0.1 * _rng.standard_normal((64, 64))
_SMALL = _rng.standard_normal((16, 16))


def _python_loop() -> int:
    s = 0
    for i in range(3000):
        s += i * i % 7
    return s


def _layers() -> None:
    _python_loop()
    a = _ROWS
    for _ in range(2):
        a = np.tanh(a @ _WEIGHTS) + _ROWS


def _small_products() -> None:
    _python_loop()
    a = _SMALL
    for _ in range(30):
        a = np.tanh(a @ _SMALL * 0.1) + _SMALL


@dataclass(frozen=True)
class Burst:
    """A fixed piece of work and its duration on the reference machine,
    a quiet 2-vCPU Xeon VM."""

    work: object
    nominal_s: float


LAYER_BURST = Burst(_layers, 6.0e-4)
LOOP_BURST = Burst(_small_products, 3.3e-4)


class SpeedProbe:
    """Sample the machine's speed while a ``with`` block runs.

    Records ``(start, duration)`` of every burst.  Uses ``SIGALRM`` and the
    real-time interval timer, and puts back the previous handler and
    stops the timer on every way out of the block.
    """

    def __init__(self, burst: Burst, interval: float = 0.05):
        self.burst = burst
        self.interval = interval
        self.bursts: list[tuple[float, float]] = []
        self._previous = None

    def _handler(self, signum, frame):
        t0 = clock()
        self.burst.work()
        self.bursts.append((t0, clock() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self, t0: float = float("-inf"), t1: float = float("inf")) -> float:
        """Mean speed of the bursts that started in ``[t0, t1]``, relative to
        the nominal one; over all bursts if none did, 1 if there were none."""
        inside = [d for s, d in self.bursts if t0 <= s <= t1]
        durations = inside or [d for _, d in self.bursts]
        if not durations:
            return 1.0
        return float(np.mean([self.burst.nominal_s / d for d in durations]))

    def seconds(self, t0: float, t1: float) -> float:
        """Corrected seconds between the clock readings ``t0`` and ``t1``."""
        spent = sum(d for s, d in self.bursts if t0 <= s <= t1)
        return (t1 - t0 - spent) * self.speed(t0, t1)
