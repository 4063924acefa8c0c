"""How fast the host runs Python right now, sampled inside the timed process.

The benchmark shares a host whose speed drifts: the same pass can take half
as long again from one minute to the next with the code unchanged. So every
timed process also runs a fixed probe, well under a millisecond of
pure-Python work of the kind the library does (`Fraction` arithmetic,
tuples, a dict), from a SIGPROF handler after every `PERIOD_S` of the
process's CPU time. The handler runs on the process's own thread, between
bytecodes, so the probe sees the slowdowns of the work around it.

A process's time is then its CPU time, less the probes' and less any
untimed answer checks, scaled by `REF_PROBE_S` / (its mean probe time): the
time it would take on a host where a probe takes `REF_PROBE_S`. CPU time
rather than wall time, so that the time the process waits for a core while
other processes run is not counted; the workloads are single-threaded and do
no I/O to speak of, so on an idle host the two agree.

The probe uses only the standard library, so no change to `src/` changes
its speed. It runs with the garbage collector off, so that the library's
heap is not collected on the probe's time.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.05
# The probe's mean time measured on a 2-core x86_64 VM (Python 3.11.7) at
# its usual speed; it only sets the scale of the reported seconds.
REF_PROBE_S = 0.0006


def probe_work() -> int:
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(i % 11 + 1, 3 + i % 4)
    table: dict = {}
    for i in range(600):
        key = (i * 7919) % 211
        table[key] = table.get(key, 0) + i
    rows = tuple(tuple(sorted(table.values()))[k::8] for k in range(8))
    return acc.denominator + len(rows)


class Sampler:
    """Runs `probe_work` every PERIOD_S of CPU time while started.

    The thread clock times the probes: while a process-wide CPU timer is
    armed, Linux updates the process clock only at scheduler ticks.
    """

    def __init__(self):
        self.count = 0
        self.probe_s = 0.0
        self.paused = False

    def _tick(self, signum, frame):
        if self.paused:
            return
        collecting = gc.isenabled()
        gc.disable()
        start = time.thread_time()
        probe_work()
        self.probe_s += time.thread_time() - start
        self.count += 1
        if collecting:
            gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def totals(self) -> dict:
        """The probes run so far. If none has run yet, runs one now, so that
        a process too short for the timer still has a speed to scale by."""
        if not self.count:
            self._tick(signal.SIGPROF, None)
        return {"probe_count": self.count, "probe_s": self.probe_s}

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        return self.totals()


def scale(probes: dict) -> float:
    """REF_PROBE_S over the mean probe time: multiply a time by it to scale it."""
    if not probes.get("probe_count"):
        raise ValueError("the process ran no speed probe")
    return REF_PROBE_S * probes["probe_count"] / probes["probe_s"]
