"""Host-speed sampling inside a measured process.

On a shared host the speed of a core drifts by half within minutes, and
each core drifts on its own; CPU time tracks wall time, so the drift cannot
be subtracted as waiting. A reference loop timed between invocations, or in
another process, does not track it. A loop timed inside the measured
process, on the core it runs on and while it runs, does: `Sampler` runs a
fixed pure-Python loop from a CPU-time timer signal every INTERVAL_S of the
process's CPU time and records how long each loop took.

Each loop time over REF_QUIET_S, the loop's time on an uncontended core of
the host the baseline was measured on (see README), is the slowdown of the
moment it was taken. Samples are spread evenly over the process's CPU
time, which tracks its wall time, so the time the work would take on a
quiet core is its measured time times the mean of 1/slowdown: the measured
time divided by the harmonic mean of the slowdowns. The harmonic mean also
gives little weight to the rare loop that an interrupt stretches. The
loops' own time is subtracted first.

Only `signal` and `time` are imported, so that set-up probes import nothing
that `ultgen.cli` would not.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01
REF_QUIET_S = 25e-6
REF_ITERATIONS = 400


def _reference() -> int:
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i % 7
    return s


class Sampler:
    def __init__(self) -> None:
        self.samples: list[float] = []
        _reference()  # warm the loop's code before the first sample

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        _reference()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def spent_s(self) -> float:
        """Time taken by the reference loops themselves."""
        return sum(self.samples)

    def slowdown(self) -> float:
        """Harmonic mean of the loop times over the quiet-core time; 1.0
        with no sample."""
        if not self.samples:
            return 1.0
        return len(self.samples) / sum(REF_QUIET_S / t for t in self.samples)
