"""Pre-decoded block-access streams (the sweep fast path's input).

:meth:`~repro.cache.simulator.BlockCacheSimulator.run` pays, for every
item of every configuration of every sweep, the same decode work: split
the byte range into blocks, build a ``(file_id, block)`` tuple key, and
evaluate the whole-block-overwrite / beyond-EOF coverage test against the
evolving known file size.  None of that depends on the cache
configuration — only on the stream and the block size — so
:func:`pack_stream` does it once, compiling the item stream into four
flat arrays (op code, packed 64-bit key, timestamp) that
:func:`simulate_packed` replays with a tight single loop.

The coverage test can be hoisted out of the simulator because the known
file size evolves deterministically from the stream alone (transfers
extend it, invalidations shrink it), independent of cache contents or
policy.  The packed key is ``(file_id << KEY_SHIFT) | block``, which
keeps per-access hashing to a single int and turns the "drop blocks at
or past the truncation point" scan into a plain integer comparison.

:func:`simulate_packed` is differentially tested to produce *bit-identical*
:class:`~repro.cache.metrics.CacheMetrics` against the reference
simulator (``tests/test_parallel.py``); the reference stays the oracle,
and every sweep replays through this module at any ``jobs``.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass

from ..cache.metrics import CacheMetrics
from ..cache.policies import DELAYED_WRITE, PolicySpec, WritePolicy
from ..cache.replacement import make_replacement, validate_replacement
from ..cache.stream import Invalidation, StreamItem, cached_stream, memoize_per_log
from ..trace.log import TraceLog
from ..trace.npview import resolve_engine

__all__ = [
    "OP_READ",
    "OP_WRITE",
    "OP_WRITE_COVERED",
    "OP_INVALIDATE",
    "KEY_SHIFT",
    "PackedStream",
    "PackedRun",
    "pack_stream",
    "cached_packed_stream",
    "simulate_packed",
]

OP_READ = 0
OP_WRITE = 1  # write whose miss would need a read-modify-write
OP_WRITE_COVERED = 2  # write covering the whole block (or beyond EOF)
OP_INVALIDATE = 3

#: Bits reserved for the block index inside a packed key.
KEY_SHIFT = 30
_BLOCK_LIMIT = 1 << KEY_SHIFT


@dataclass(frozen=True, slots=True)
class PackedStream:
    """One item stream compiled for one block size.

    ``ops``/``keys``/``times`` are parallel arrays, one row per block
    access or invalidation.  The whole object pickles compactly (flat
    buffers, no per-item Python objects), which is what lets the sweep
    executor ship it to worker processes once instead of per job.
    """

    block_size: int
    #: Trace start time — the flush-epoch anchor for flush-back policies.
    start_time: float
    ops: bytes
    keys: array  # 'q': (file_id << KEY_SHIFT) | block
    times: array  # 'd': item timestamps (every row of an item shares one)
    #: Block-access rows (equals ``count_block_accesses`` on the source
    #: stream; invalidation rows are not counted).
    n_accesses: int

    def __len__(self) -> int:
        return len(self.ops)


def pack_stream(
    stream: list[StreamItem],
    block_size: int,
    start_time: float = 0.0,
    engine: str = "auto",
) -> PackedStream:
    """Compile *stream* (from ``build_stream``) for *block_size*.

    *engine* selects the implementation: ``"auto"`` expands blocks with
    the numpy fast path (bit-identical packed streams;
    fuzz pillar 5 checks this continuously), ``"python"``/``"numpy"``
    force one side.
    """
    if resolve_engine(engine) == "numpy":
        from ..analysis.vectorized import VectorFallback, pack_stream_numpy

        try:
            return pack_stream_numpy(stream, block_size, start_time)
        except VectorFallback:
            pass
    if block_size <= 0:
        raise ValueError(f"block size must be positive, got {block_size}")
    bs = block_size
    ops = bytearray()
    keys = array("q")
    times = array("d")
    known: dict[int, int] = {}
    n_accesses = 0
    ops_append = ops.append
    keys_append = keys.append
    times_append = times.append

    for item in stream:
        if isinstance(item, Invalidation):
            fid = item.file_id
            k = known.get(fid, 0)
            known[fid] = k if k < item.from_byte else item.from_byte
            first_dead = -(-item.from_byte // bs)
            if first_dead > _BLOCK_LIMIT:
                # No real block index can reach this, so the comparison
                # below already drops nothing; clamp to keep fid bits clean.
                first_dead = _BLOCK_LIMIT
            ops_append(OP_INVALIDATE)
            keys_append((fid << KEY_SHIFT) + first_dead)
            times_append(item.time)
            continue
        fid = item.file_id
        start = item.start
        end = item.end
        k = known.get(fid, 0)
        first = start // bs
        last = (end - 1) // bs
        if last >= _BLOCK_LIMIT:
            raise ValueError(
                f"block index {last} does not fit a packed key "
                f"(file {fid}, {bs}-byte blocks); use the item-stream path"
            )
        base = fid << KEY_SHIFT
        t = item.time
        if item.is_write:
            for block in range(first, last + 1):
                bstart = block * bs
                covered = (start <= bstart and end >= bstart + bs) or bstart >= k
                ops_append(OP_WRITE_COVERED if covered else OP_WRITE)
                keys_append(base + block)
                times_append(t)
        else:
            for block in range(first, last + 1):
                ops_append(OP_READ)
                keys_append(base + block)
                times_append(t)
        n_accesses += last - first + 1
        if end > k:
            known[fid] = end
    return PackedStream(
        block_size=bs,
        start_time=start_time,
        ops=bytes(ops),
        keys=keys,
        times=times,
        n_accesses=n_accesses,
    )


def cached_packed_stream(
    log: TraceLog,
    block_size: int,
    include_paging: bool = False,
    engine: str = "auto",
) -> PackedStream:
    """Memoized :func:`pack_stream` per ``(log, block_size, paging, engine)``.

    The memo key carries the *resolved* engine, so a process mixing
    ``--engine python`` and ``--engine numpy`` runs can never be served
    the other engine's compile (they are bit-identical by contract —
    fuzz pillar 5 — but a differential harness must not have its two
    sides silently collapsed into one), while repeated ``auto`` calls
    still share one entry.
    """
    return memoize_per_log(
        log,
        ("packed", block_size, include_paging, resolve_engine(engine)),
        lambda: pack_stream(
            cached_stream(log, include_paging=include_paging),
            block_size,
            start_time=log.start_time,
            engine=engine,
        ),
    )


@dataclass(frozen=True, slots=True)
class PackedRun:
    """Result of one packed replay."""

    metrics: CacheMetrics
    checkpoint: CacheMetrics | None = None


def simulate_packed(
    packed: PackedStream,
    cache_bytes: int,
    policy: PolicySpec = DELAYED_WRITE,
    *,
    replacement: str = "lru",
    read_elision: bool = True,
    invalidate_on_delete: bool = True,
    checkpoint_time: float | None = None,
    flush_epoch: float | None = None,
) -> PackedRun:
    """Replay *packed* through one cache configuration.

    Semantically identical to ``BlockCacheSimulator(...).run(stream,
    checkpoint_time, flush_epoch)`` with the same knobs (the differential
    suite asserts equality field by field), minus the residency/exposure
    trackers, which need per-event hooks the tight loop does not pay for.
    """
    bs = packed.block_size
    capacity = cache_bytes // bs
    if capacity < 1:
        raise ValueError("cache smaller than one block")
    validate_replacement(replacement)
    if replacement not in ("lru", "fifo"):
        # The zoo policies replay through one generic loop driven by a
        # policy object — the same classes, and therefore the same
        # victim sequence, as the full simulator (fuzz pillar 6).
        return _simulate_packed_policy(
            packed,
            capacity,
            policy,
            replacement,
            read_elision=read_elision,
            invalidate_on_delete=invalidate_on_delete,
            checkpoint_time=checkpoint_time,
            flush_epoch=flush_epoch,
        )
    lru = replacement == "lru"
    write_through = policy.policy is WritePolicy.WRITE_THROUGH
    flushing = policy.policy is WritePolicy.FLUSH_BACK

    # Presence and recency order live in the OrderedDict; dirtiness in a
    # separate set, which makes a flush scan O(dirty blocks) instead of
    # O(cache) — the scans at 30 s intervals over a 16 MB cache otherwise
    # dominate the whole replay.
    cache: OrderedDict[int, bool] = OrderedDict()  # key -> True
    dirty_set: set[int] = set()
    by_file: dict[int, set[int]] = {}  # fid -> set of keys
    reads = writes = disk_reads = disk_writes = 0
    evictions = invalidated = 0
    dirty_created = dirty_discarded = elisions = 0
    checkpoint: CacheMetrics | None = None

    get = cache.get
    pop = cache.pop
    popitem = cache.popitem
    move = cache.move_to_end
    dirty_add = dirty_set.add
    dirty_has = dirty_set.__contains__
    dirty_drop = dirty_set.discard

    inf = float("inf")
    timed = flushing or checkpoint_time is not None
    cp_at = checkpoint_time if checkpoint_time is not None else inf
    interval = policy.flush_interval or 0.0
    if flushing:
        if flush_epoch is not None:
            next_flush = flush_epoch + interval
        elif len(packed.times):
            next_flush = packed.times[0] + interval
        else:
            next_flush = inf
    else:
        next_flush = inf

    keys = packed.keys.tolist()

    # Two loop bodies over the same rows: a generic one (flush scans,
    # checkpoints, FIFO, write-through), and a branch-free specialization
    # for the sweeps' hot case, LRU delayed-write with no clock at all.
    # They must stay behaviorally identical; the differential suite runs
    # both against the reference.
    if timed or not lru or write_through:
        for op, key, t in zip(packed.ops, keys, packed.times.tolist()):
            if t >= cp_at:
                checkpoint = CacheMetrics(
                    read_accesses=reads,
                    write_accesses=writes,
                    disk_reads=disk_reads,
                    disk_writes=disk_writes,
                    evictions=evictions,
                    invalidated_blocks=invalidated,
                    dirty_blocks_created=dirty_created,
                    dirty_blocks_discarded=dirty_discarded,
                    read_elisions=elisions,
                )
                cp_at = inf
            while t >= next_flush:
                if dirty_set:
                    disk_writes += len(dirty_set)
                    dirty_set.clear()
                next_flush += interval
            if op == OP_INVALIDATE:
                if invalidate_on_delete:
                    fid = key >> KEY_SHIFT
                    s = by_file.get(fid)
                    if s:
                        doomed = sorted(k for k in s if k >= key)
                        if doomed:
                            for k in doomed:
                                pop(k)
                                if dirty_has(k):
                                    dirty_drop(k)
                                    dirty_discarded += 1
                                s.discard(k)
                            invalidated += len(doomed)
                            if not s:
                                del by_file[fid]
                continue
            if get(key) is not None:
                # Hit.
                if lru:
                    move(key)
                if op:
                    writes += 1
                    if write_through:
                        disk_writes += 1
                    elif not dirty_has(key):
                        dirty_add(key)
                        dirty_created += 1
                else:
                    reads += 1
                continue
            # Miss.
            if op:
                writes += 1
                if op == OP_WRITE_COVERED and read_elision:
                    elisions += 1
                else:
                    disk_reads += 1
                if write_through:
                    disk_writes += 1
                else:
                    dirty_created += 1
                    dirty_add(key)
            else:
                reads += 1
                disk_reads += 1
            cache[key] = True
            fid = key >> KEY_SHIFT
            s = by_file.get(fid)
            if s is None:
                s = by_file[fid] = set()
            s.add(key)
            if len(cache) > capacity:
                vkey, _ = popitem(False)
                evictions += 1
                if dirty_has(vkey):
                    dirty_drop(vkey)
                    disk_writes += 1
                vfid = vkey >> KEY_SHIFT
                vs = by_file[vfid]
                vs.discard(vkey)
                if not vs:
                    del by_file[vfid]
    else:
        # LRU delayed-write, untimed: disk writes happen only at eviction.
        for op, key in zip(packed.ops, keys):
            if op == OP_INVALIDATE:
                if invalidate_on_delete:
                    fid = key >> KEY_SHIFT
                    s = by_file.get(fid)
                    if s:
                        doomed = sorted(k for k in s if k >= key)
                        if doomed:
                            for k in doomed:
                                pop(k)
                                if dirty_has(k):
                                    dirty_drop(k)
                                    dirty_discarded += 1
                                s.discard(k)
                            invalidated += len(doomed)
                            if not s:
                                del by_file[fid]
                continue
            if get(key) is not None:
                move(key)
                if op:
                    writes += 1
                    if not dirty_has(key):
                        dirty_add(key)
                        dirty_created += 1
                else:
                    reads += 1
                continue
            if op:
                writes += 1
                if op == OP_WRITE_COVERED and read_elision:
                    elisions += 1
                else:
                    disk_reads += 1
                dirty_created += 1
                dirty_add(key)
            else:
                reads += 1
                disk_reads += 1
            cache[key] = True
            fid = key >> KEY_SHIFT
            s = by_file.get(fid)
            if s is None:
                s = by_file[fid] = set()
            s.add(key)
            if len(cache) > capacity:
                vkey, _ = popitem(False)
                evictions += 1
                if dirty_has(vkey):
                    dirty_drop(vkey)
                    disk_writes += 1
                vfid = vkey >> KEY_SHIFT
                vs = by_file[vfid]
                vs.discard(vkey)
                if not vs:
                    del by_file[vfid]

    metrics = CacheMetrics(
        read_accesses=reads,
        write_accesses=writes,
        disk_reads=disk_reads,
        disk_writes=disk_writes,
        evictions=evictions,
        invalidated_blocks=invalidated,
        dirty_blocks_created=dirty_created,
        dirty_blocks_discarded=dirty_discarded,
        read_elisions=elisions,
    )
    return PackedRun(metrics=metrics, checkpoint=checkpoint)


def _simulate_packed_policy(
    packed: PackedStream,
    capacity: int,
    policy: PolicySpec,
    replacement: str,
    *,
    read_elision: bool,
    invalidate_on_delete: bool,
    checkpoint_time: float | None,
    flush_epoch: float | None,
) -> PackedRun:
    """The zoo replay: one generic loop around a policy object.

    Mirrors the generic timed branch of :func:`simulate_packed`, with
    the :class:`OrderedDict` recency bookkeeping replaced by a
    :class:`~repro.cache.replacement.ReplacementPolicy` driven through
    the exact operation sequence the full simulator uses (touch on hit,
    insert on fill, victim/remove on eviction, remove on invalidation)
    — which is what makes the two bit-identical for every policy.
    """
    replacer = make_replacement(replacement, capacity)
    touch = replacer.touch
    admit = replacer.insert
    choose = replacer.victim
    expel = replacer.remove

    write_through = policy.policy is WritePolicy.WRITE_THROUGH
    flushing = policy.policy is WritePolicy.FLUSH_BACK

    resident: set[int] = set()  # membership only; ordering is the policy's
    dirty_set: set[int] = set()
    by_file: dict[int, set[int]] = {}
    reads = writes = disk_reads = disk_writes = 0
    evictions = invalidated = 0
    dirty_created = dirty_discarded = elisions = 0
    checkpoint: CacheMetrics | None = None

    dirty_add = dirty_set.add
    dirty_has = dirty_set.__contains__
    dirty_drop = dirty_set.discard

    inf = float("inf")
    cp_at = checkpoint_time if checkpoint_time is not None else inf
    interval = policy.flush_interval or 0.0
    if flushing:
        if flush_epoch is not None:
            next_flush = flush_epoch + interval
        elif len(packed.times):
            next_flush = packed.times[0] + interval
        else:
            next_flush = inf
    else:
        next_flush = inf

    for op, key, t in zip(packed.ops, packed.keys.tolist(), packed.times.tolist()):
        if t >= cp_at:
            checkpoint = CacheMetrics(
                read_accesses=reads,
                write_accesses=writes,
                disk_reads=disk_reads,
                disk_writes=disk_writes,
                evictions=evictions,
                invalidated_blocks=invalidated,
                dirty_blocks_created=dirty_created,
                dirty_blocks_discarded=dirty_discarded,
                read_elisions=elisions,
            )
            cp_at = inf
        while t >= next_flush:
            if dirty_set:
                disk_writes += len(dirty_set)
                dirty_set.clear()
            next_flush += interval
        if op == OP_INVALIDATE:
            if invalidate_on_delete:
                fid = key >> KEY_SHIFT
                s = by_file.get(fid)
                if s:
                    doomed = sorted(k for k in s if k >= key)
                    if doomed:
                        for k in doomed:
                            resident.discard(k)
                            expel(k)
                            if dirty_has(k):
                                dirty_drop(k)
                                dirty_discarded += 1
                            s.discard(k)
                        invalidated += len(doomed)
                        if not s:
                            del by_file[fid]
            continue
        if key in resident:
            # Hit.
            touch(key)
            if op:
                writes += 1
                if write_through:
                    disk_writes += 1
                elif not dirty_has(key):
                    dirty_add(key)
                    dirty_created += 1
            else:
                reads += 1
            continue
        # Miss.
        if op:
            writes += 1
            if op == OP_WRITE_COVERED and read_elision:
                elisions += 1
            else:
                disk_reads += 1
            if write_through:
                disk_writes += 1
            else:
                dirty_created += 1
                dirty_add(key)
        else:
            reads += 1
            disk_reads += 1
        resident.add(key)
        admit(key)
        fid = key >> KEY_SHIFT
        s = by_file.get(fid)
        if s is None:
            s = by_file[fid] = set()
        s.add(key)
        if len(resident) > capacity:
            vkey = choose()
            resident.discard(vkey)
            expel(vkey, True)
            evictions += 1
            if dirty_has(vkey):
                dirty_drop(vkey)
                disk_writes += 1
            vfid = vkey >> KEY_SHIFT
            vs = by_file[vfid]
            vs.discard(vkey)
            if not vs:
                del by_file[vfid]

    metrics = CacheMetrics(
        read_accesses=reads,
        write_accesses=writes,
        disk_reads=disk_reads,
        disk_writes=disk_writes,
        evictions=evictions,
        invalidated_blocks=invalidated,
        dirty_blocks_created=dirty_created,
        dirty_blocks_discarded=dirty_discarded,
        read_elisions=elisions,
    )
    return PackedRun(metrics=metrics, checkpoint=checkpoint)
