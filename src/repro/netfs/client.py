"""One diskless workstation.

A workstation owns a private block cache (the same
:class:`BlockCacheSimulator` the counting layers use, under the write
policy its consistency protocol dictates) and turns each billed transfer
from the trace into zero, one or two RPCs:

* a read miss fetches the missing blocks from the server (payload on the
  reply);
* a write-back ships dirty blocks to the server (payload on the
  request) — every written block under write-through, eviction victims
  under delayed-write.

A request's latency runs from its trace arrival to the completion of its
last RPC; a request the cache absorbs entirely costs only the local
overhead.  The request stream is open-loop — requests arrive when the
trace says they did, regardless of how far behind the server is — so a
saturated resource shows up as unbounded queueing rather than politely
throttled input, which is the honest failure mode for sizing questions.
"""

from __future__ import annotations

from ..analysis.accesses import Transfer
from ..cache.simulator import BlockCacheSimulator
from .consistency import ConsistencyProtocol
from .events import EventLoop
from .metrics import LatencySampler
from .rpc import Rpc, RpcLayer

__all__ = ["Workstation"]


class Workstation:
    """A client cache plus the RPC plumbing behind it."""

    def __init__(
        self,
        client_id: int,
        loop: EventLoop,
        rpc_layer: RpcLayer,
        protocol: ConsistencyProtocol,
        cache_bytes: int,
        block_size: int = 4096,
        local_overhead_s: float = 0.0002,
    ):
        self.client_id = client_id
        self.loop = loop
        self.rpc_layer = rpc_layer
        self.protocol = protocol
        self.block_size = block_size
        self.local_overhead_s = local_overhead_s
        self.cache = BlockCacheSimulator(
            cache_bytes=cache_bytes,
            block_size=block_size,
            policy=protocol.client_policy,
        )
        self.requests = 0
        self.local_hits = 0
        self.failed_requests = 0
        self.latencies = LatencySampler()

    # -- consistency hooks -----------------------------------------------------

    def drop_file(self, file_id: int, from_byte: int = 0) -> None:
        """Invalidate our cached copy (callback / lease revocation)."""
        self.cache.drop_file(file_id, from_byte, now=self.loop.now)

    def flush_file(self, file_id: int) -> int:
        """Write out our dirty blocks of *file_id*; returns block count."""
        return self.cache.flush_file(file_id)

    # -- the request path ------------------------------------------------------

    def submit(self, item: Transfer) -> None:
        """One billed transfer arrives from the trace, now."""
        arrived = self.loop.now
        self.requests += 1
        if item.is_write:
            self.protocol.note_write(self.client_id, item.file_id)
        else:
            self.protocol.note_read(self.client_id, item.file_id)

        before_reads = self.cache.metrics.disk_reads
        before_writes = self.cache.metrics.disk_writes
        self.cache.transfer(
            item.file_id, item.start, item.end, item.is_write, item.time
        )
        fetched = self.cache.metrics.disk_reads - before_reads
        written_back = self.cache.metrics.disk_writes - before_writes

        if not fetched and not written_back:
            self.local_hits += 1
            self.latencies.add(self.local_overhead_s)
            return

        # Mirror twolevel's range-capping: misses lie inside the item's
        # range, so bill contiguous runs from its first block.
        first = item.start // self.block_size
        outstanding = {"count": 0, "failed": False}

        def done(rpc: Rpc, ok: bool) -> None:
            if not ok:
                outstanding["failed"] = True
            outstanding["count"] -= 1
            if outstanding["count"] == 0:
                if outstanding["failed"]:
                    self.failed_requests += 1
                self.latencies.add(self.loop.now - arrived + self.local_overhead_s)

        if fetched:
            outstanding["count"] += 1
        if written_back:
            outstanding["count"] += 1
        if fetched:
            self.rpc_layer.call(
                client_id=self.client_id,
                file_id=item.file_id,
                start=first * self.block_size,
                end=(first + fetched) * self.block_size,
                is_write=False,
                on_done=done,
            )
        if written_back:
            self.rpc_layer.call(
                client_id=self.client_id,
                file_id=item.file_id,
                start=first * self.block_size,
                end=(first + written_back) * self.block_size,
                is_write=True,
                on_done=done,
            )
