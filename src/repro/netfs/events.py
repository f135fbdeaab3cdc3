"""A heap-based discrete-event loop.

The rest of the repository replays traces *atemporally* — counters move,
the clock is just a timestamp carried on each record.  The network file
service cannot be simulated that way: queueing delay at the Ethernet and
at the server depends on what else is in flight *right now*.  This module
supplies the missing machinery: a classic discrete-event engine driving
the same :class:`repro.clock.Clock` the workload engine uses, so netfs
time and trace time share one axis.

Two sources feed the loop:

* **scheduled events** — :meth:`EventLoop.schedule` pushes a
  ``(time, seq, handle)`` tuple onto a heap.  ``seq`` is a running
  counter, so ``heapq`` orders entries by comparing plain tuples in C
  and never reaches the handle; events at the same time fire in the
  order they were scheduled, mirroring the ``(time, original event
  order)`` rule of :func:`repro.cache.stream.build_stream`.  Handles
  can be cancelled (lazily: cancelled entries are skipped when popped),
  which is how RPC retransmission timers are disarmed by replies.
* **arrivals** — a time-sorted stream handed to :meth:`EventLoop.run`
  (the trace's transfers and invalidations).  It is never pushed onto
  the heap: the loop merges it with the heap as it goes, so the heap
  holds only what is in flight, not the whole trace.

The tie rule between the two: an arrival fires when its time is ``<=``
the earliest heap entry's.  That is the order the loop had when every
trace item was pre-scheduled before the run — trace items then held the
lowest sequence numbers, so at equal times they fired ahead of anything
scheduled while running — and it keeps results bit-identical to it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Iterator

from ..clock import Clock

__all__ = ["EventHandle", "EventLoop"]


class EventHandle:
    """A scheduled callback; ``cancel()`` keeps it from firing."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.6f}, seq={self.seq}, {state})"


class EventLoop:
    """A monotonic, deterministic discrete-event scheduler."""

    __slots__ = (
        "clock",
        "_heap",
        "_seq",
        "_fired",
        "_arrivals",
        "_next_arrival",
        "_dispatch",
    )

    def __init__(self, clock: Clock | None = None):
        self.clock = clock if clock is not None else Clock()
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._seq = 0
        self._fired = 0
        # The pending arrival stream: its iterator, its next item (None
        # once drained) and the callback each item is dispatched to.
        self._arrivals: Iterator[Any] = iter(())
        self._next_arrival: Any = None
        self._dispatch: Callable[[Any], Any] | None = None

    @property
    def now(self) -> float:
        return self.clock.now()

    @property
    def events_fired(self) -> int:
        """Events executed so far, arrivals included (cancelled events
        excluded)."""
        return self._fired

    def schedule(self, time: float, fn: Callable[..., Any], *args) -> EventHandle:
        """Run ``fn(*args)`` at simulated *time* (>= now)."""
        if time < self.clock.now():
            raise ValueError(
                f"cannot schedule in the past ({time} < {self.clock.now()})"
            )
        seq = self._seq
        handle = EventHandle(time, seq, fn, args)
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, handle))
        return handle

    def call_after(self, delay: float, fn: Callable[..., Any], *args) -> EventHandle:
        """Run ``fn(*args)`` *delay* seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.schedule(self.clock.now() + delay, fn, *args)

    def run(
        self,
        until: float | None = None,
        arrivals: Iterable[Any] | None = None,
        dispatch: Callable[[Any], Any] | None = None,
    ) -> float:
        """Fire events in order until nothing is pending (or past *until*).

        *arrivals*, if given, is a stream of items with a ``time``
        attribute in non-decreasing time order; each fires as
        ``dispatch(item)`` at its time, ahead of any scheduled event at
        the same time (see the module docstring).  An arrival earlier
        than the current time raises ``ValueError``.  Arrivals left
        pending when *until* stops the loop stay pending: a later
        ``run()`` picks them up.

        Returns the final simulated time.  Callbacks may schedule further
        events; the loop keeps going until nothing is pending.
        """
        if arrivals is not None:
            if dispatch is None:
                raise ValueError("an arrival stream needs a dispatch callback")
            if self._next_arrival is not None:
                raise ValueError("an earlier arrival stream is still pending")
            self._arrivals = iter(arrivals)
            self._next_arrival = next(self._arrivals, None)
            self._dispatch = dispatch
        heap = self._heap
        heappop = heapq.heappop
        set_clock = self.clock.set
        source = self._arrivals
        dispatch = self._dispatch
        arrival = self._next_arrival
        try:
            while True:
                if arrival is not None and (not heap or arrival.time <= heap[0][0]):
                    time = arrival.time
                    if until is not None and time > until:
                        break
                    set_clock(time)
                    item = arrival
                    arrival = next(source, None)
                    self._fired += 1
                    dispatch(item)
                    continue
                if not heap:
                    break
                time, _seq, handle = heap[0]
                if until is not None and time > until:
                    break
                heappop(heap)
                if handle.cancelled:
                    continue
                set_clock(time)
                self._fired += 1
                handle.fn(*handle.args)
        finally:
            self._next_arrival = arrival
        return self.clock.now()
