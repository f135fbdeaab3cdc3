"""Seconds of work at a reference host speed.

On a shared host the same work can take half as long again from one
minute to the next: on a 2-vCPU VM a pure-Python generation step took
0.6 s or 0.93 s, switching between the two every few tens of seconds,
and that swing alone spread the wall time of identical repeats by 31%
(interquartile range over median).  A benchmark that reports raw wall
time then measures the host, not the program.

A :class:`HostClock` probes the host's speed while the work runs: every
``PROBE_INTERVAL_S`` a timer signal interrupts the process and times
``PROBE_ROUNDS`` of a fixed pure-Python loop.  A stretch of work between
two probes is then scaled by ``(REFERENCE_PROBE_S / p) ** SLOWDOWN_EXPONENT``,
where *p* is the mean of the probe times on either side of it, giving the
seconds it would have taken on a host where the probe takes
``REFERENCE_PROBE_S``.  Probe time itself is left out of both the wall
and the reference seconds.

The exponent is there because the program slows down more than the probe
when the host does: fitting log wall time against log probe time over
34-46 repeats of each workload's body (2-2.7 s each, on the same VM)
gave slopes of 1.19 (ingest), 1.26 (reproduce) and 1.36 (sweep), with
correlations of 0.96-0.99.  On those repeats, scaling with exponent 1
cut the spread of wall times (interquartile range over median) from
0.23-0.37 to 0.06-0.09; exponent 1.25 cut it to about 0.045.

The probe is independent of ``repro``, so a change to the program still
moves the reference seconds in full.  The probes run in the measured
process itself: a probe on the other vCPU does not follow this one's
speed.  Python runs signal handlers between bytecodes, so a probe that
falls due inside a long C call runs when the call returns; the scaling
uses the times the probes actually ran.
"""

from __future__ import annotations

import signal
import time

#: Rounds of the probe loop: about 4 ms of pure Python.
PROBE_ROUNDS = 30_000
#: How often the probe runs (about 2% of the time).
PROBE_INTERVAL_S = 0.2
#: The probe time that defines reference speed.
REFERENCE_PROBE_S = 0.004
#: How much more steeply than the probe the program slows down (see above).
SLOWDOWN_EXPONENT = 1.25


def probe() -> tuple[float, float]:
    """Run the probe loop once; its start and end (``perf_counter``)."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ROUNDS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return start, time.perf_counter()


class HostClock:
    """Probe the host's speed from :meth:`start` to :meth:`stop`.

    :meth:`seconds` then converts any stretch between the two into wall
    and reference seconds.  Only one clock may run in a process at a
    time (it owns ``SIGALRM``).
    """

    def __init__(self):
        self.probes: list[tuple[float, float]] = []
        self._previous_handler = None

    def start(self) -> HostClock:
        self.probes.append(probe())
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def stop(self) -> None:
        """Stop probing (a second call does nothing)."""
        if self._previous_handler is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._previous_handler = None
        self.probes.append(probe())

    def __enter__(self) -> HostClock:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _on_alarm(self, _signum, _frame) -> None:
        self.probes.append(probe())

    def seconds(self, start: float, end: float) -> tuple[float, float]:
        """Wall and reference seconds of work from *start* to *end*.

        Both are ``perf_counter`` readings taken while the clock ran,
        between its first and last probe.
        """
        probes = self.probes
        if len(probes) < 2 or not probes[0][1] <= start <= end <= probes[-1][0]:
            raise ValueError("the stretch must lie inside the clock's run")
        wall = reference = 0.0
        for (s0, e0), (s1, e1) in zip(probes, probes[1:]):
            work = min(end, s1) - max(start, e0)
            if work > 0:
                wall += work
                speed = REFERENCE_PROBE_S / (((e0 - s0) + (e1 - s1)) / 2)
                reference += work * speed**SLOWDOWN_EXPONENT
        return wall, reference
