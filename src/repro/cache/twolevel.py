"""Two-level (client / server) cache simulation.

The paper's stated goal was "designing a shared file system for a network
of personal workstations"; its successors (Sprite, NFS client caching)
put a cache on *each workstation* in front of the shared server's cache.
This module extends the trace-driven simulator to that topology:

* each user's transfers first hit a private **client cache** (keyed by
  the trace's user id — in the diskless-workstation reading, one user is
  one workstation);
* client misses (and the client write policy's write-backs) travel over
  the **network** to the server;
* the server runs its own cache in front of the disk.

The interesting outputs are the two traffic levels the paper's Sections
5.1 and 6 bound separately: network transfers per second (does the
10 Mbit Ethernet hold up?) and disk I/Os (how big must the server cache
be once clients absorb the re-reads?).

Consistency is out of scope, exactly as it was for the paper ("we did
not consider the problems of cache consistency"): invalidations are
broadcast to every cache, which is what a write-through-to-server scheme
with callbacks would achieve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..trace.log import TraceLog
from .metrics import CacheMetrics
from .policies import DELAYED_WRITE, WRITE_THROUGH, PolicySpec
from .simulator import BlockCacheSimulator
from .stream import Invalidation, StreamItem, Transfer, cached_stream

__all__ = ["TwoLevelResult", "simulate_two_level"]


@dataclass
class TwoLevelResult:
    """Traffic at both levels of a client/server cache hierarchy."""

    client_cache_bytes: int
    server_cache_bytes: int
    block_size: int
    clients: int = 0
    client_metrics: CacheMetrics = field(default_factory=CacheMetrics)
    server_metrics: CacheMetrics = field(default_factory=CacheMetrics)
    duration: float = 0.0
    #: Consistency control messages.  Always 0 here — this simulation
    #: broadcasts invalidations for free — but the field exists so
    #: two-level and netfs results render uniformly; ``repro.netfs``
    #: is the layer that bills these messages.
    consistency_messages: int = 0

    @property
    def network_blocks(self) -> int:
        """Blocks that crossed the network: client misses (reads fetched
        from the server) plus client write-backs."""
        return self.client_metrics.disk_reads + self.client_metrics.disk_writes

    @property
    def network_bytes_per_second(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.network_blocks * self.block_size / self.duration

    @property
    def disk_ios(self) -> int:
        return self.server_metrics.disk_ios

    def render(self) -> str:
        accesses = self.client_metrics.block_accesses
        if self.duration > 0:
            rate = f"{self.network_bytes_per_second / 1000:.1f} KB/s average"
        else:
            rate = "no duration: rate unavailable"
        return "\n".join(
            [
                f"{self.clients} client caches of "
                f"{self.client_cache_bytes // 1024} KB + one "
                f"{self.server_cache_bytes // (1024 * 1024)} MB server cache "
                f"({self.block_size // 1024} KB blocks):",
                f"  client level: {accesses:,} block accesses, "
                f"{self.network_blocks:,} crossed the network "
                f"({100 * self.network_blocks / max(1, accesses):.1f}%, "
                f"{rate})",
                f"  server level: {self.server_metrics.disk_ios:,} disk I/Os "
                f"({100 * self.server_metrics.disk_ios / max(1, accesses):.1f}% "
                f"of all block accesses)",
                f"  consistency messages: {self.consistency_messages:,} "
                "(invalidations broadcast for free; repro.netfs bills them)",
            ]
        )


def simulate_two_level(
    log: TraceLog,
    client_cache_bytes: int = 512 * 1024,
    server_cache_bytes: int = 16 * 1024 * 1024,
    block_size: int = 4096,
    client_policy: PolicySpec = WRITE_THROUGH,
    server_policy: PolicySpec = DELAYED_WRITE,
) -> TwoLevelResult:
    """Replay *log* through per-user client caches and a server cache.

    The client level is simulated per user; the items each client sends
    on (its read misses as reads, its write-backs as writes) form the
    server's input stream, replayed in time order.  A write-through
    client policy models the safe default (the server always has the
    data); delayed-write clients cut network traffic further at the cost
    the paper discusses in Section 6.2.
    """
    stream = cached_stream(log)
    result = TwoLevelResult(
        client_cache_bytes=client_cache_bytes,
        server_cache_bytes=server_cache_bytes,
        block_size=block_size,
        duration=log.duration,
    )

    clients: dict[int, BlockCacheSimulator] = {}

    def client_for(user_id: int) -> BlockCacheSimulator:
        sim = clients.get(user_id)
        if sim is None:
            sim = clients[user_id] = BlockCacheSimulator(
                cache_bytes=client_cache_bytes,
                block_size=block_size,
                policy=client_policy,
                flush_epoch=log.start_time,
            )
        return sim

    # The server sees one item per client-level miss/write-back.  We track
    # each client's counters before and after an item to learn what it
    # forwarded, then emit equivalent single-block transfers.
    server_stream: list[StreamItem] = []
    for item in stream:
        if isinstance(item, Invalidation):
            # Broadcast: every cache drops the dead blocks (callback-style
            # consistency); the server does too, below, via its own stream.
            # A flush-back scan that falls due first ships its blocks to
            # the server ahead of the invalidation; like write-backs below,
            # they are billed against the item at hand.
            for user_id, sim in clients.items():
                before_writes = sim.metrics.disk_writes
                sim.invalidate(item.file_id, item.from_byte, item.time)
                flushed = sim.metrics.disk_writes - before_writes
                if flushed:
                    server_stream.append(
                        Transfer(
                            time=item.time,
                            file_id=item.file_id,
                            user_id=user_id,
                            start=0,
                            end=flushed * block_size,
                            is_write=True,
                        )
                    )
            server_stream.append(item)
            continue
        sim = client_for(item.user_id)
        before_reads = sim.metrics.disk_reads
        before_writes = sim.metrics.disk_writes
        sim.transfer(item.file_id, item.start, item.end, item.is_write, item.time)
        fetched = sim.metrics.disk_reads - before_reads
        written_back = sim.metrics.disk_writes - before_writes
        # Client misses become server reads; write-backs server writes.
        # Exact block identities matter for the server's hit ratio, but a
        # miss can only be on a block inside the item's range, so we
        # replay the range capped to the observed counts.
        first = item.start // block_size
        if fetched:
            server_stream.append(
                Transfer(
                    time=item.time,
                    file_id=item.file_id,
                    user_id=item.user_id,
                    start=first * block_size,
                    end=(first + fetched) * block_size,
                    is_write=False,
                )
            )
        if written_back:
            server_stream.append(
                Transfer(
                    time=item.time,
                    file_id=item.file_id,
                    user_id=item.user_id,
                    start=first * block_size,
                    end=(first + written_back) * block_size,
                    is_write=True,
                )
            )

    server = BlockCacheSimulator(
        cache_bytes=server_cache_bytes,
        block_size=block_size,
        policy=server_policy,
    )
    result.server_metrics = server.run(server_stream)

    # Aggregate the client metrics.
    total = CacheMetrics()
    for sim in clients.values():
        snap = sim.metrics
        for name in (
            "read_accesses", "write_accesses", "disk_reads", "disk_writes",
            "evictions", "invalidated_blocks", "dirty_blocks_created",
            "dirty_blocks_discarded", "read_elisions",
        ):
            setattr(total, name, getattr(total, name) + getattr(snap, name))
    result.client_metrics = total
    result.clients = len(clients)
    return result
