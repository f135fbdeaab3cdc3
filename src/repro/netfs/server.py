"""The shared file server: bounded request queue + cache + disk.

The two-level simulation (`repro.cache.twolevel`) already knows *which*
blocks reach the server; this module adds *when they get serviced*.  The
server is a single service station: requests wait in a bounded FIFO
queue, the server cache (a :class:`BlockCacheSimulator`, delayed-write
like the 4.2 BSD buffer cache) decides which blocks actually touch the
platter, and each miss pays :meth:`repro.disk.DiskModel.service_time`.

A request that arrives to a full queue is *dropped* — the 1985 reality
of a diskless client hammering an overloaded server — and the RPC layer's
timeout/retransmit machinery is what recovers, exactly the dynamic that
made Sun put a duplicate-request cache in NFS servers.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from ..cache.policies import DELAYED_WRITE, PolicySpec
from ..cache.simulator import BlockCacheSimulator
from ..disk.model import FUJITSU_EAGLE, DiskModel
from .events import EventLoop
from .metrics import LatencySampler, QueueTracker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .rpc import Rpc

__all__ = ["FileServer"]


class FileServer:
    """One file server shared by every workstation on the segment."""

    def __init__(
        self,
        loop: EventLoop,
        cache_bytes: int = 16 * 1024 * 1024,
        block_size: int = 4096,
        policy: PolicySpec = DELAYED_WRITE,
        disk: DiskModel = FUJITSU_EAGLE,
        queue_limit: int = 64,
        cpu_overhead_s: float = 0.001,
    ):
        if queue_limit < 1:
            raise ValueError(f"queue limit must be >= 1, got {queue_limit}")
        self.loop = loop
        self.disk = disk
        self.block_size = block_size
        self.cpu_overhead_s = cpu_overhead_s
        self.queue_limit = queue_limit
        self.cache = BlockCacheSimulator(
            cache_bytes=cache_bytes, block_size=block_size, policy=policy
        )
        self._queue: deque[tuple["Rpc", float]] = deque()
        self._busy = False
        self._pending_ids: set[int] = set()
        self.queue_tracker = QueueTracker()
        self.queue_waits = LatencySampler()
        self.service_times = LatencySampler()
        self.disk_busy_seconds = 0.0
        self.queue_drops = 0
        self.duplicates_suppressed = 0
        #: Called with (rpc, finish_time) when a request completes.
        self.on_complete: Callable[["Rpc", float], None] | None = None

    # -- request intake --------------------------------------------------------

    def receive(self, rpc: "Rpc") -> bool:
        """A request frame arrived; returns False if it was dropped."""
        if rpc.rpc_id in self._pending_ids:
            # Duplicate-request cache: a retransmission of something we
            # are already working on is absorbed, not serviced twice.
            self.duplicates_suppressed += 1
            return True
        if len(self._queue) >= self.queue_limit:
            self.queue_drops += 1
            return False
        self._pending_ids.add(rpc.rpc_id)
        self._queue.append((rpc, self.loop.now))
        self.queue_tracker.update(self.loop.now, len(self._queue))
        if not self._busy:
            self._start_next()
        return True

    # -- the service station ---------------------------------------------------

    def _start_next(self) -> None:
        rpc, enqueued_at = self._queue.popleft()
        self.queue_tracker.update(self.loop.now, len(self._queue))
        wait = self.loop.now - enqueued_at
        self.queue_waits.add(wait)
        rpc.server_queue_wait += wait
        self._busy = True
        service = self._service_time(rpc)
        self.service_times.add(service)
        rpc.service_time += service
        self.loop.call_after(service, self._finish, rpc)

    def _service_time(self, rpc: "Rpc") -> float:
        """CPU overhead plus a disk visit for every server-cache miss."""
        before = self.cache.metrics.disk_ios
        self.cache.transfer(
            rpc.file_id, rpc.start, rpc.end, rpc.is_write, self.loop.now
        )
        misses = self.cache.metrics.disk_ios - before
        disk_time = misses * self.disk.service_time(self.block_size)
        self.disk_busy_seconds += disk_time
        return self.cpu_overhead_s + disk_time

    def _finish(self, rpc: "Rpc") -> None:
        self._pending_ids.discard(rpc.rpc_id)
        self._busy = False
        if self.on_complete is not None:
            self.on_complete(rpc, self.loop.now)
        if self._queue:
            self._start_next()

    def invalidate(self, file_id: int, from_byte: int = 0) -> None:
        """Drop a dead file's blocks from the server cache (free: the
        queue models data movement, not metadata bookkeeping)."""
        self.cache.drop_file(file_id, from_byte)

    def disk_utilization(self, duration: float) -> float:
        if duration <= 0:
            return 0.0
        return self.disk_busy_seconds / duration
