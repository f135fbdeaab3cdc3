"""Per-layer spans and counts, recorded from outside the program.

A :class:`Tracer` wraps the public entry points of each ``repro`` layer
for the length of a ``with`` block and puts them back afterwards; no file
under ``src/`` knows it exists.  Following the paper's own tracer (log
logical events at open/close/seek, never each read or write), spans sit
only at layer boundaries -- a sweep, a replay, a generation, a file read
-- and never around a per-event or per-access call.  That rule is why
two callers are deliberately left unwrapped:

* ``repro.netfs`` and ``repro.cache.twolevel`` drive
  ``BlockCacheSimulator.run([item])`` once per access, so the traced
  simulator class is rebound everywhere *except* in those modules;
* ``BinaryTraceWriter.write`` is per event, so the spool write path is
  timed at ``TraceSpool._drain``, which runs once per buffer of events.

Spans stay in memory (``perf_counter_ns``) and are written out once, by
:meth:`Tracer.dump`, when the run ends.  Counts come from the result
objects the entry points return (``CacheMetrics``, ``NetfsResult``,
``GenerationResult``), never from inside a loop.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: Every per-layer metric a traced run reports, with its unit.  Keep in
#: step with ``per_layer`` in BENCHMARK.json.
LAYER_METRICS: dict[str, str] = {
    "netfs.sim_s": "s",
    "netfs.sims": "count",
    "netfs.requests": "count",
    "netfs.rpcs": "count",
    "netfs.frames": "count",
    "netfs.requests_per_s": "1/s",
    "parallel.curve_s": "s",
    "parallel.curves": "count",
    "parallel.replay_s": "s",
    "parallel.replays": "count",
    "cache.sim_s": "s",
    "cache.sim_runs": "count",
    "cache.sweep_s": "s",
    "cache.block_accesses": "count",
    "cache.accesses_per_s": "1/s",
    "cache.configs": "count",
    "cache.configs_unique": "count",
    "cache.stream_s": "s",
    "cache.stream_calls": "count",
    "cache.stream_builds": "count",
    "parallel.pack_s": "s",
    "parallel.packs": "count",
    "trace.columns_s": "s",
    "trace.columns_calls": "count",
    "trace.columns_builds": "count",
    "workload.generate_s": "s",
    "workload.events": "count",
    "workload.events_per_s": "1/s",
    "workload.resumptions": "count",
    "trace.write_s": "s",
    "trace.read_s": "s",
    "trace.read_columns_s": "s",
    "trace.bytes": "bytes",  # written, by write_binary or a generator spool
    "trace.validate_s": "s",
    "trace.stats_s": "s",
    "analysis.analyze_s": "s",
    "analysis.calls": "count",
    "analysis.vector_fallbacks": "count",
    "parallel.vector_fallbacks": "count",
    "parallel.dispatches": "count",
    "parallel.pool_dispatches": "count",
}

#: Spans whose summed self time is reported as ``<name>_s``.
_SELF_TIMED = (
    "netfs.sim",
    "parallel.curve",
    "parallel.replay",
    "cache.sim",
    "cache.sweep",
    "cache.stream",
    "parallel.pack",
    "trace.columns",
    "workload.generate",
    "trace.write",
    "trace.read",
    "trace.read_columns",
    "trace.validate",
    "trace.stats",
    "analysis.analyze",
)

#: The reference analyzers an exhibit may call, besides the fused
#: ``analyze_onepass``; each runs once per trace, not per event.
_ANALYZERS = (
    "reconstruct_accesses",
    "analyze_onepass",
    "analyze_activity",
    "analyze_sequentiality",
    "run_length_cdfs",
    "file_size_cdfs",
    "open_time_cdf",
    "collect_lifetimes",
    "lifetime_cdfs",
    "analyze_burstiness",
    "analyze_popularity",
    "per_user_summary",
    "headline",
)

#: Modules whose simulator calls are per access (see the module docstring).
_PER_ACCESS_SIM_MODULES = ("repro.netfs", "repro.cache.twolevel")


def experiment_metric(experiment_id: str) -> str:
    return f"experiments.{experiment_id}_s"


class Tracer:
    """Spans and counters for one traced run; a context manager.

    Entering imports the layers and installs the wrappers; leaving
    restores every original binding, even when the body raised.
    """

    def __init__(self, run_id: str = "run"):
        self.run_id = run_id
        #: ``[name, parent index or -1, start ns, end ns]``, in start order.
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list = []  # undo callbacks, run last-first
        self._configs: set[tuple] = set()
        self._kernel_depth = 0
        # Streams stay referenced so their ids cannot be reused while
        # they key ``cache.configs_unique``.
        self._streams: list[object] = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, parent, time.perf_counter_ns(), 0]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[3] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus what its children cover."""
        child_ns = [0] * len(self.spans)
        for _name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, _parent, start, end) in enumerate(self.spans):
            out[name] += (end - start - child_ns[i]) / 1e9
        return out

    def inclusive_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, _parent, start, end in self.spans:
            out[name] += (end - start) / 1e9
        return out

    def metrics(self, experiment_ids) -> dict[str, float]:
        """Every name in :data:`LAYER_METRICS` plus one inclusive
        ``experiments.<id>_s`` per registered exhibit."""
        own = self.self_times()
        incl = self.inclusive_times()
        c = self.counts
        out: dict[str, float] = {}
        for name in _SELF_TIMED:
            out[f"{name}_s"] = own.get(name, 0.0)
        for name, unit in LAYER_METRICS.items():
            if unit in ("count", "bytes"):
                out[name] = c.get(name, 0)
        out["cache.configs_unique"] = len(self._configs)

        def rate(num: float, secs: float) -> float:
            return num / secs if secs > 0 else 0.0

        out["netfs.requests_per_s"] = rate(c.get("netfs.requests", 0), out["netfs.sim_s"])
        out["cache.accesses_per_s"] = rate(
            c.get("cache.block_accesses", 0), out["cache.sim_s"]
        )
        out["workload.events_per_s"] = rate(
            c.get("workload.events", 0), out["workload.generate_s"]
        )
        for eid in experiment_ids:
            out[experiment_metric(eid)] = incl.get(f"experiments.{eid}", 0.0)
        return out

    def dump(self, path: str) -> None:
        """Write the in-memory spans and counts as one JSON document."""
        t0 = self.spans[0][2] if self.spans else 0
        doc = {
            "run_id": self.run_id,
            "counts": dict(self.counts),
            "spans": [
                {"name": n, "parent": p, "start_ns": s - t0, "end_ns": e - t0}
                for n, p, s, e in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._uninstall()

    def _set(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr]
        self._restore.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, value)

    def _uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _rebind(self, original, replacement, skip: tuple = ()) -> None:
        """Point every ``repro`` module global bound to *original* at
        *replacement* -- ``from x import f`` copies included."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "repro" or modname.startswith("repro.")):
                continue
            if modname.startswith(skip):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def _traced(self, fn, span: str, after=None):
        """*fn* inside a span; ``after(args, kwargs, result)`` then counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(span):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _wrap(self, module, attr: str, span: str, after=None) -> None:
        original = getattr(module, attr)
        self._rebind(original, self._traced(original, span, after))

    def _count_fallbacks(self, module, attr: str, counter: str, applies=None) -> None:
        from repro.analysis.vectorized import VectorFallback

        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            # Kernels call kernels (a replay evaluates a curve); only the
            # outermost decline is one fallback.
            tracer._kernel_depth += 1
            try:
                return original(*args, **kwargs)
            except VectorFallback:
                if tracer._kernel_depth == 1 and (
                    applies is None or applies(*args, **kwargs)
                ):
                    tracer.count(counter)
                raise
            finally:
                tracer._kernel_depth -= 1

        self._rebind(original, traced)

    def _install(self) -> None:
        import repro.experiments as experiments

        (
            analysis,
            vectorized,
            simulator,
            stream,
            sweep,
            netfs,
            executor,
            packed,
            veccache,
            columns,
            io_binary,
            stats,
            validate,
            generator,
        ) = (
            # By module path: a package attribute can shadow its submodule
            # (``repro.trace.validate`` is also a function).
            importlib.import_module(f"repro.{name}")
            for name in (
                "analysis",
                "analysis.vectorized",
                "cache.simulator",
                "cache.stream",
                "cache.sweep",
                "netfs.simulator",
                "parallel.executor",
                "parallel.packed",
                "parallel.veccache",
                "trace.columns",
                "trace.io_binary",
                "trace.stats",
                "trace.validate",
                "workload.generator",
            )
        )
        from repro.cache.policies import DELAYED_WRITE, WRITE_THROUGH, WritePolicy

        count = self.count

        # workload
        def generated(args, kwargs, result):
            if result.trace is not None:
                count("workload.events", len(result.trace))
            else:
                count("workload.events", result.events_spooled)
                count("trace.bytes", os.path.getsize(result.spool_path))
            count("workload.resumptions", result.engine_resumptions)

        self._wrap(generator, "generate", "workload.generate", generated)

        # trace I/O and first-order statistics
        self._wrap(
            io_binary,
            "write_binary",
            "trace.write",
            lambda a, k, written: count("trace.bytes", written),
        )
        self._wrap_method(io_binary.TraceSpool, "_drain", "trace.write")
        self._wrap(io_binary, "read_binary", "trace.read")
        self._wrap(io_binary, "read_binary_columns", "trace.read_columns")
        self._wrap(validate, "validate", "trace.validate")
        self._wrap(validate, "validate_columns", "trace.validate")
        self._wrap(stats, "compute_stats", "trace.stats")
        self._wrap(
            columns,
            "cached_columns",
            "trace.columns",
            lambda a, k, r: count("trace.columns_calls"),
        )
        self._wrap_method(
            columns.TraceColumns,
            "from_log",
            "trace.columns",
            lambda a, k, r: count("trace.columns_builds"),
        )

        # analysis
        for name in _ANALYZERS:
            self._wrap(
                analysis,
                name,
                "analysis.analyze",
                lambda a, k, r: count("analysis.calls"),
            )
        self._count_fallbacks(vectorized, "analyze_columns_numpy", "analysis.vector_fallbacks")
        self._count_fallbacks(vectorized, "validate_columns_numpy", "analysis.vector_fallbacks")

        # cache: item streams, sweeps, full-stream simulator runs
        self._wrap(
            stream,
            "cached_stream",
            "cache.stream",
            lambda a, k, r: count("cache.stream_calls"),
        )
        self._wrap(
            stream,
            "build_stream",
            "cache.stream",
            lambda a, k, r: count("cache.stream_builds"),
        )
        for name in ("cache_size_policy_sweep", "block_size_sweep", "paging_comparison"):
            self._wrap(sweep, name, "cache.sweep")
        self._rebind(
            simulator.BlockCacheSimulator,
            self._traced_simulator(simulator.BlockCacheSimulator),
            skip=_PER_ACCESS_SIM_MODULES,
        )

        # parallel: packs, curves, packed replays, executor dispatch
        self._wrap(packed, "pack_stream", "parallel.pack", lambda a, k, r: count("parallel.packs"))

        def curved(args, kwargs, result):
            # One curve answers one write-through LRU configuration per
            # size; each is counted as the replay it stands in for.
            count("parallel.curves")
            packed_stream, sizes = args[0], args[1]
            policy = args[2] if len(args) > 2 else kwargs.get("policy", WRITE_THROUGH)
            for size in sizes:
                self._config(
                    packed_stream,
                    size // packed_stream.block_size,
                    policy.label,
                    "lru",
                    kwargs.get("read_elision", True),
                    kwargs.get("invalidate_on_delete", True),
                    kwargs.get("checkpoint_time"),
                    None,
                )

        self._wrap(veccache, "stack_curve", "parallel.curve", curved)

        def replayed(args, kwargs, result):
            count("parallel.replays")
            policy = args[2] if len(args) > 2 else kwargs.get("policy", DELAYED_WRITE)
            self._config(
                args[0],
                args[1] // args[0].block_size,
                policy.label,
                kwargs.get("replacement", "lru"),
                kwargs.get("read_elision", True),
                kwargs.get("invalidate_on_delete", True),
                kwargs.get("checkpoint_time"),
                kwargs.get("flush_epoch"),
            )

        self._wrap(veccache, "replay_packed", "parallel.replay", replayed)
        self._count_fallbacks(vectorized, "pack_stream_numpy", "parallel.vector_fallbacks")
        self._count_fallbacks(veccache, "stack_curve_numpy", "parallel.vector_fallbacks")

        def lru_write_through(packed_stream, cache_bytes, policy=None, **kwargs):
            # Stateful configurations (delayed write, flush-back, any zoo
            # policy) are declined by design: only write-through LRU is a
            # curve evaluation, so only its decline is a fallback.
            return (
                policy is not None
                and policy.policy is WritePolicy.WRITE_THROUGH
                and kwargs.get("replacement", "lru") == "lru"
            )

        self._count_fallbacks(
            veccache, "simulate_packed_numpy", "parallel.vector_fallbacks", lru_write_through
        )
        self._wrap_dispatch(executor)

        # netfs
        def netfs_done(args, kwargs, result):
            count("netfs.sims")
            count("netfs.requests", result.requests)
            count("netfs.rpcs", result.rpcs)
            count("netfs.frames", result.frames)

        self._wrap(netfs, "simulate_netfs", "netfs.sim", netfs_done)

        # experiments: one inclusive span per registered exhibit
        for eid, exp in list(experiments.REGISTRY.items()):
            run = self._traced(exp.run, f"experiments.{eid}")
            self._set_item(experiments.REGISTRY, eid, dataclasses.replace(exp, run=run))

    def _config(
        self,
        stream,
        capacity_blocks: int,
        policy_label: str,
        replacement: str,
        read_elision: bool,
        invalidate_on_delete: bool,
        checkpoint_time,
        flush_epoch,
        block_size: int | None = None,
    ) -> None:
        """Count one simulated configuration, keyed by the stream replayed
        (an item stream, or a packed one with its block size built in)
        and every knob that changes the result.  Write-through never
        holds a dirty block, so its flush epoch changes nothing."""
        from repro.cache.policies import WRITE_THROUGH

        if policy_label == WRITE_THROUGH.label:
            flush_epoch = None
        self.count("cache.configs")
        self._streams.append(stream)
        self._configs.add(
            (
                id(stream),
                capacity_blocks,
                policy_label,
                replacement,
                read_elision,
                invalidate_on_delete,
                checkpoint_time,
                flush_epoch,
                block_size,
            )
        )

    def _set_item(self, mapping: dict, key, value) -> None:
        original = mapping[key]
        self._restore.append(lambda: mapping.__setitem__(key, original))
        mapping[key] = value

    def _wrap_method(self, cls, attr: str, span: str, after=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self._traced(raw.__func__, span, after)))
        else:
            self._set(cls, attr, self._traced(raw, span, after))

    def _wrap_dispatch(self, executor) -> None:
        original = executor.run_jobs
        tracer = self

        @functools.wraps(original)
        def traced(worker, jobs_list, payload=None, jobs=None, **kwargs):
            jobs_list = list(jobs_list)
            tracer.count("parallel.dispatches")
            if executor.resolve_jobs(jobs) > 1 and len(jobs_list) > 1:
                tracer.count("parallel.pool_dispatches")
            return original(worker, jobs_list, payload=payload, jobs=jobs, **kwargs)

        self._rebind(original, traced)

    def _traced_simulator(self, base):
        tracer = self

        class TracedBlockCacheSimulator(base):
            __slots__ = ()

            def run(self, stream, checkpoint_time=None, flush_epoch=None):
                with tracer.span("cache.sim"):
                    metrics = base.run(self, stream, checkpoint_time, flush_epoch)
                tracer.count("cache.sim_runs")
                tracer.count("cache.block_accesses", metrics.block_accesses)
                tracer._config(
                    stream,
                    self.capacity_blocks,
                    self.policy.label,
                    self.replacement,
                    self.read_elision,
                    self.invalidate_on_delete,
                    checkpoint_time,
                    flush_epoch,
                    self.block_size,
                )
                return metrics

        TracedBlockCacheSimulator.__name__ = base.__name__
        TracedBlockCacheSimulator.__qualname__ = base.__qualname__
        return TracedBlockCacheSimulator

