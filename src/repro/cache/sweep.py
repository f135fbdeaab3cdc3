"""Parameter sweeps over the cache simulator (Figures 5–7, Tables VI–VII).

Every sweep, and :func:`simulate_cache`, is a list of :class:`SweepCell`
configurations handed to one planner, :func:`run_cells`.  The planner
compiles each (paging variant, block size) stream once into a
:class:`~repro.parallel.packed.PackedStream`, drops duplicate cells,
folds the write-through/LRU cells of each stream into a single one-pass
curve (:func:`~repro.parallel.veccache.stack_curve`), and replays every
other cell over its packed stream
(:func:`~repro.parallel.veccache.replay_packed`).  *jobs* only decides
where those jobs run — in-process at 1, on a process pool otherwise
(:func:`~repro.parallel.executor.run_jobs`) — never which algorithm
answers a cell.  The reference :class:`BlockCacheSimulator` stays the
differential oracle: ``tests/test_parallel.py`` and
``tests/test_veccache.py`` assert every cell of every sweep equals it
bit for bit.  Results come back as small dataclasses with ``render()``
methods that print the paper's table layouts.

*engine* selects the kernels (``None`` defers to the ambient
:func:`~repro.trace.npview.engine_context`); *pack_dir* spills each
compiled stream to a shared ``.bpack`` file so the payload workers
receive is a path, not pickled arrays — every process maps the same
page-cache copy (see :mod:`repro.parallel.bpack`).

Flush-back scans are anchored at the trace start (see
:meth:`BlockCacheSimulator.run` on why).
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from dataclasses import dataclass, field
from typing import Iterable

from ..analysis.report import render_table
from ..parallel.bpack import cached_bpack, write_bpack
from ..parallel.executor import run_jobs
from ..parallel.packed import PackedStream, cached_packed_stream
from ..parallel.veccache import replay_packed, stack_curve
from ..trace.log import TraceLog
from ..trace.npview import current_engine
from .metrics import CacheMetrics
from .policies import (
    DELAYED_WRITE,
    FLUSH_30S,
    FLUSH_5MIN,
    WRITE_THROUGH,
    PolicySpec,
    WritePolicy,
)
from .replacement import current_replacement, validate_replacement
from .stream import StreamItem, Transfer

__all__ = [
    "PAPER_CACHE_SIZES",
    "PAPER_POLICIES",
    "PAPER_BLOCK_SIZES",
    "PAPER_BLOCK_SWEEP_CACHES",
    "SweepCell",
    "run_cells",
    "simulate_cache",
    "CachePolicySweep",
    "BlockSizeSweep",
    "PagingComparison",
    "cache_size_policy_sweep",
    "block_size_sweep",
    "paging_comparison",
    "count_block_accesses",
]

#: Cache sizes of Figure 5 / Table VI (first entry is the UNIX default).
PAPER_CACHE_SIZES = (
    390 * 1024,
    1 * 1024 * 1024,
    2 * 1024 * 1024,
    4 * 1024 * 1024,
    8 * 1024 * 1024,
    16 * 1024 * 1024,
)

#: Write policies of Figure 5 / Table VI, in column order.
PAPER_POLICIES = (WRITE_THROUGH, FLUSH_30S, FLUSH_5MIN, DELAYED_WRITE)

#: Block sizes of Figure 6 / Table VII.
PAPER_BLOCK_SIZES = (1024, 2048, 4096, 8192, 16384, 32768)

#: Cache sizes of Figure 6 / Table VII.
PAPER_BLOCK_SWEEP_CACHES = (
    400 * 1024,
    2 * 1024 * 1024,
    4 * 1024 * 1024,
    8 * 1024 * 1024,
)


def _size_label(nbytes: int) -> str:
    if nbytes >= 1024 * 1024:
        value = nbytes / (1024 * 1024)
        return f"{value:g} Mbyte" + ("s" if value != 1 else "")
    return f"{nbytes // 1024} kbytes"


@dataclass(frozen=True)
class SweepCell:
    """One cache configuration to replay a trace through.

    *paging* picks the stream variant (execve page-ins included or
    not); the remaining fields are the :class:`BlockCacheSimulator`
    constructor arguments the replay honours.
    """

    cache_bytes: int
    policy: PolicySpec = DELAYED_WRITE
    block_size: int = 4096
    replacement: str = "lru"
    paging: bool = False
    read_elision: bool = True
    invalidate_on_delete: bool = True

    @property
    def stream(self) -> tuple[bool, int]:
        """The packed stream this cell replays: (paging, block size)."""
        return (self.paging, self.block_size)

    @property
    def on_curve(self) -> bool:
        """Write-through LRU: one point of its stream's stack curve."""
        return (
            self.policy.policy is WritePolicy.WRITE_THROUGH
            and self.replacement == "lru"
        )


def _sweep_worker(payload, job):
    """One planner job: a whole stack curve, or one packed replay.

    Module-level so the executor can ship it to worker processes.  A job
    is ``(curve, cells)``: a curve job answers every cell of its group
    (write-through LRU cells of one stream sharing the knobs) from one
    pass; a replay job holds one cell.  Returns one
    :class:`CacheMetrics` per cell, in order.
    """
    curve, cells = job
    first = cells[0]
    packed = payload["packed"][first.stream]
    engine = payload["engine"]
    if curve:
        result = stack_curve(
            packed,
            tuple(dict.fromkeys(cell.cache_bytes for cell in cells)),
            read_elision=first.read_elision,
            invalidate_on_delete=first.invalidate_on_delete,
            engine=engine,
        )
        return [result.metrics(cell.cache_bytes) for cell in cells]
    return [
        replay_packed(
            packed,
            first.cache_bytes,
            first.policy,
            replacement=first.replacement,
            read_elision=first.read_elision,
            invalidate_on_delete=first.invalidate_on_delete,
            flush_epoch=packed.start_time,
            engine=engine,
        ).metrics
    ]


class _SweepPayload:
    """The shared sweep payload: streams by key, or ``.bpack`` paths.

    Implements the executor's ``__payload_resolve__`` protocol: path
    entries are opened worker-side via the per-process
    :func:`~repro.parallel.bpack.cached_bpack`, so what crosses the
    process boundary is a few strings and every worker reads the same
    page-cache bytes.  Resolution is memoized per process (and dropped
    from the pickled state, so ``spawn`` workers resolve their own).
    """

    __slots__ = ("packed", "engine", "_resolved")

    def __init__(self, packed: dict, engine: str):
        self.packed = packed
        self.engine = engine
        self._resolved = None

    def __getstate__(self):
        return (self.packed, self.engine)

    def __setstate__(self, state):
        self.packed, self.engine = state
        self._resolved = None

    def __payload_resolve__(self):
        if self._resolved is None:
            self._resolved = {
                "packed": {
                    key: value
                    if isinstance(value, PackedStream)
                    else cached_bpack(value)
                    for key, value in self.packed.items()
                },
                "engine": self.engine,
            }
        return self._resolved


def _pack_ref(packed: PackedStream, pack_dir, trace_name: str):
    """*packed* itself, or its path inside the shared ``.bpack`` cache.

    Filenames carry the trace name, the block size, the row count and a
    crc of every column plus the start time, so a stale or colliding
    cache entry can never be mistaken for this stream — a miss writes
    the file (atomically), a hit reuses it byte-for-byte.
    """
    if pack_dir is None:
        return packed
    os.makedirs(pack_dir, exist_ok=True)
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", trace_name) or "trace"
    fp = zlib.crc32(struct.pack("<d", packed.start_time))
    for column in (packed.ops, packed.keys, packed.times):
        fp = zlib.crc32(bytes(column), fp)
    name = (
        f"{safe}-bs{packed.block_size}-{len(packed)}r-{fp:08x}.bpack"
    )
    path = os.path.join(os.fspath(pack_dir), name)
    if not os.path.exists(path):
        write_bpack(packed, path)
    return path


def _resolve_sweep_engine(engine: str | None) -> str:
    return engine if engine is not None else current_engine()


def run_cells(
    log: TraceLog,
    cells: Iterable[SweepCell],
    jobs: int | None = None,
    engine: str | None = None,
    pack_dir=None,
) -> dict[SweepCell, CacheMetrics]:
    """Replay *log* through every cell; metrics by cell.

    Duplicate cells run once.  The write-through LRU cells of each
    stream fold into one stack-curve job; every other cell is one packed
    replay.  *jobs* picks in-process (1) or a process pool (more);
    either way the answers equal :class:`BlockCacheSimulator`'s.
    """
    eng = _resolve_sweep_engine(engine)
    streams: dict[tuple[bool, int], object] = {}
    curves: dict[tuple, list[SweepCell]] = {}
    replays: list[tuple[bool, tuple[SweepCell, ...]]] = []
    for cell in dict.fromkeys(cells):
        if cell.stream not in streams:
            packed = cached_packed_stream(
                log, cell.block_size, include_paging=cell.paging, engine=eng
            )
            name = f"{log.name}-paged" if cell.paging else log.name
            streams[cell.stream] = _pack_ref(packed, pack_dir, name)
        if cell.on_curve:
            group = (cell.stream, cell.read_elision, cell.invalidate_on_delete)
            curves.setdefault(group, []).append(cell)
        else:
            replays.append((False, (cell,)))
    job_list = [(True, tuple(group)) for group in curves.values()] + replays
    payload = _SweepPayload(streams, eng)
    results: dict[SweepCell, CacheMetrics] = {}
    for (_, group), metrics in zip(
        job_list, run_jobs(_sweep_worker, job_list, payload=payload, jobs=jobs)
    ):
        results.update(zip(group, metrics))
    return results


def simulate_cache(
    log: TraceLog,
    cache_bytes: int,
    block_size: int = 4096,
    policy: PolicySpec = DELAYED_WRITE,
    include_paging: bool = False,
    *,
    replacement: str = "lru",
    read_elision: bool = True,
    invalidate_on_delete: bool = True,
) -> CacheMetrics:
    """One configuration over *log*: a one-cell :func:`run_cells`.

    The packed stream is memoized per log (see
    :func:`~repro.parallel.packed.cached_packed_stream`) and the
    flush-back schedule is anchored at the trace start.
    """
    cell = SweepCell(
        cache_bytes=cache_bytes,
        policy=policy,
        block_size=block_size,
        replacement=replacement,
        paging=include_paging,
        read_elision=read_elision,
        invalidate_on_delete=invalidate_on_delete,
    )
    return run_cells(log, [cell])[cell]


def _resolve_replacement(replacement: str | None) -> str:
    """*replacement*, or the ambient default (``repro-fs ... --policy``)."""
    if replacement is None:
        return current_replacement()
    return validate_replacement(replacement)


@dataclass
class CachePolicySweep:
    """Miss ratio as a function of cache size and write policy
    (Figure 5 / Table VI)."""

    trace_name: str
    block_size: int
    cache_sizes: tuple[int, ...]
    policies: tuple[PolicySpec, ...]
    replacement: str = "lru"
    results: dict[tuple[int, str], CacheMetrics] = field(default_factory=dict)

    def miss_ratio(self, cache_bytes: int, policy: PolicySpec) -> float:
        return self.results[(cache_bytes, policy.label)].miss_ratio

    def render(self) -> str:
        headers = ["Cache Size"] + [p.label for p in self.policies]
        rows = []
        for size in self.cache_sizes:
            row = [_size_label(size)]
            for policy in self.policies:
                row.append(f"{100 * self.miss_ratio(size, policy):.1f}%")
            rows.append(row)
        extra = "" if self.replacement == "lru" else f", {self.replacement}"
        return render_table(
            headers,
            rows,
            title=(
                f"Table VI: miss ratio vs cache size and write policy "
                f"({self.trace_name}, {self.block_size}-byte blocks{extra})"
            ),
        )


def cache_size_policy_sweep(
    log: TraceLog,
    cache_sizes: tuple[int, ...] = PAPER_CACHE_SIZES,
    policies: tuple[PolicySpec, ...] = PAPER_POLICIES,
    block_size: int = 4096,
    jobs: int | None = None,
    engine: str | None = None,
    pack_dir=None,
    replacement: str | None = None,
) -> CachePolicySweep:
    """Reproduce Figure 5 / Table VI on *log*.

    *replacement* selects the block-replacement policy (any name in
    :data:`~repro.cache.replacement.REPLACEMENT_NAMES`; ``None`` defers
    to the ambient :func:`~repro.cache.replacement.replacement_context`,
    default LRU — the paper's policy).
    """
    repl = _resolve_replacement(replacement)
    sweep = CachePolicySweep(
        trace_name=log.name,
        block_size=block_size,
        cache_sizes=tuple(cache_sizes),
        policies=tuple(policies),
        replacement=repl,
    )
    cells = {
        (size, policy.label): SweepCell(size, policy, block_size, repl)
        for size in cache_sizes
        for policy in policies
    }
    metrics = run_cells(log, cells.values(), jobs, engine, pack_dir)
    sweep.results = {key: metrics[cell] for key, cell in cells.items()}
    return sweep


def count_block_accesses(stream: list[StreamItem], block_size: int) -> int:
    """Total logical block accesses — the paper's "no cache" column in
    Table VII (with no cache every access is a disk I/O)."""
    total = 0
    for item in stream:
        if isinstance(item, Transfer):
            total += (item.end - 1) // block_size - item.start // block_size + 1
    return total


@dataclass
class BlockSizeSweep:
    """Disk I/Os as a function of block size and cache size
    (Figure 6 / Table VII, delayed-write policy)."""

    trace_name: str
    block_sizes: tuple[int, ...]
    cache_sizes: tuple[int, ...]
    no_cache: dict[int, int] = field(default_factory=dict)
    results: dict[tuple[int, int], CacheMetrics] = field(default_factory=dict)

    def disk_ios(self, block_size: int, cache_bytes: int) -> int:
        return self.results[(block_size, cache_bytes)].disk_ios

    def best_block_size(self, cache_bytes: int) -> int:
        """The block size minimizing disk I/O for a given cache size."""
        return min(
            self.block_sizes, key=lambda bs: self.disk_ios(bs, cache_bytes)
        )

    def render(self) -> str:
        headers = ["Block Size", "No Cache"] + [
            _size_label(c) + " Cache" for c in self.cache_sizes
        ]
        rows = []
        for bs in self.block_sizes:
            row = [f"{bs // 1024} kbytes", f"{self.no_cache[bs]:,}"]
            for cache in self.cache_sizes:
                row.append(f"{self.disk_ios(bs, cache):,}")
            rows.append(row)
        return render_table(
            headers,
            rows,
            title=(
                f"Table VII: disk I/Os vs block size and cache size "
                f"({self.trace_name}, delayed-write)"
            ),
        )


def block_size_sweep(
    log: TraceLog,
    block_sizes: tuple[int, ...] = PAPER_BLOCK_SIZES,
    cache_sizes: tuple[int, ...] = PAPER_BLOCK_SWEEP_CACHES,
    policy: PolicySpec = DELAYED_WRITE,
    jobs: int | None = None,
    engine: str | None = None,
    pack_dir=None,
    replacement: str | None = None,
) -> BlockSizeSweep:
    """Reproduce Figure 6 / Table VII on *log*."""
    repl = _resolve_replacement(replacement)
    sweep = BlockSizeSweep(
        trace_name=log.name,
        block_sizes=tuple(block_sizes),
        cache_sizes=tuple(cache_sizes),
    )
    cells = {
        (bs, cache): SweepCell(cache, policy, bs, repl)
        for bs in block_sizes
        for cache in cache_sizes
    }
    metrics = run_cells(log, cells.values(), jobs, engine, pack_dir)
    sweep.results = {key: metrics[cell] for key, cell in cells.items()}
    eng = _resolve_sweep_engine(engine)
    for bs in block_sizes:
        sweep.no_cache[bs] = cached_packed_stream(log, bs, engine=eng).n_accesses
    return sweep


@dataclass
class PagingComparison:
    """Miss ratios with and without the execve paging approximation
    (Figure 7: delayed-write, 4096-byte blocks)."""

    trace_name: str
    cache_sizes: tuple[int, ...]
    ignored: dict[int, CacheMetrics] = field(default_factory=dict)
    simulated: dict[int, CacheMetrics] = field(default_factory=dict)

    def render(self) -> str:
        headers = ["Cache Size", "Page-in ignored", "Page-in simulated"]
        rows = []
        for size in self.cache_sizes:
            rows.append(
                [
                    _size_label(size),
                    f"{100 * self.ignored[size].miss_ratio:.1f}%",
                    f"{100 * self.simulated[size].miss_ratio:.1f}%",
                ]
            )
        return render_table(
            headers,
            rows,
            title=(
                f"Figure 7: miss ratio with paging approximated "
                f"({self.trace_name}, delayed-write, 4096-byte blocks)"
            ),
        )


def paging_comparison(
    log: TraceLog,
    cache_sizes: tuple[int, ...] = PAPER_CACHE_SIZES,
    block_size: int = 4096,
    policy: PolicySpec = DELAYED_WRITE,
    jobs: int | None = None,
    engine: str | None = None,
    pack_dir=None,
    replacement: str | None = None,
) -> PagingComparison:
    """Reproduce Figure 7 on *log*."""
    repl = _resolve_replacement(replacement)
    cells = {
        (paging, size): SweepCell(size, policy, block_size, repl, paging)
        for size in cache_sizes
        for paging in (False, True)
    }
    metrics = run_cells(log, cells.values(), jobs, engine, pack_dir)
    return PagingComparison(
        trace_name=log.name,
        cache_sizes=tuple(cache_sizes),
        ignored={size: metrics[cells[False, size]] for size in cache_sizes},
        simulated={size: metrics[cells[True, size]] for size in cache_sizes},
    )
