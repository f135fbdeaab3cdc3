"""Bench: the parallel sweep executor and the packed/curve fast paths.

Two jobs ride here:

* **Acceptance** — the Table VI policy sweep must run at least 2x faster
  at ``jobs=4`` than the serial reference (one
  :class:`~repro.cache.simulator.BlockCacheSimulator` run per cell), and
  the one-pass stack curve must reproduce the serial write-through
  miss counts *exactly* at every paper cache size.  Both are asserted, not
  just measured (timings are best-of-3 to ride out machine noise; the
  speedup on this 14k-access trace is ~2.2-2.9x, from the packed
  single-loop replay plus the one-pass stack curve).
* **Regression gate** — ``test_sweep_throughput`` is the number
  ``benchmarks/check_regression.py`` compares against the committed
  ``benchmarks/BENCH_2.json`` baseline in CI.
"""

from __future__ import annotations

import time

from repro.cache.simulator import BlockCacheSimulator
from repro.cache.stream import build_stream, cached_stream
from repro.cache.sweep import (
    PAPER_CACHE_SIZES,
    PAPER_POLICIES,
    cache_size_policy_sweep,
)
from repro.cache.policies import WRITE_THROUGH
from repro.parallel.packed import cached_packed_stream, simulate_packed
from repro.parallel.veccache import stack_curve


def _best_of(fn, rounds=3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _reference_sweep(trace):
    """Table VI's cells through the reference simulator, one run each."""
    stream = cached_stream(trace)
    return {
        (size, policy.label): BlockCacheSimulator(
            cache_bytes=size, policy=policy
        ).run(stream, flush_epoch=trace.start_time)
        for size in PAPER_CACHE_SIZES
        for policy in PAPER_POLICIES
    }


def test_sweep_speedup_jobs4_vs_serial(trace):
    """Acceptance: >= 2x on the Table VI sweep at jobs=4 vs the serial
    reference simulator."""
    # Warm the per-log memos so neither side pays stream construction.
    _reference_sweep(trace)
    cache_size_policy_sweep(trace, jobs=4)

    t_serial, serial = _best_of(lambda: _reference_sweep(trace))
    t_parallel, parallel = _best_of(
        lambda: cache_size_policy_sweep(trace, jobs=4)
    )
    speedup = t_serial / t_parallel

    def report():
        return (
            f"reference {t_serial:.3f}s  jobs=4 {t_parallel:.3f}s  "
            f"speedup {speedup:.2f}x"
        )

    print(report())
    assert serial == parallel.results, "parallel sweep diverged"
    assert speedup >= 2.0, f"speedup below acceptance bar: {report()}"


def test_stack_curve_exact_at_paper_sizes(trace, bench_once, benchmark):
    """Acceptance: the one-pass stack curve == serial WT miss counts."""
    stream = build_stream(trace)
    packed = cached_packed_stream(trace, 4096)

    curve = bench_once(stack_curve, packed, PAPER_CACHE_SIZES)
    for size in PAPER_CACHE_SIZES:
        sim = BlockCacheSimulator(cache_bytes=size, policy=WRITE_THROUGH)
        ref = sim.run(stream)
        got = curve.metrics(size)
        assert got == ref, f"stack curve diverged at {size} bytes"
        assert got.read_accesses + got.write_accesses == packed.n_accesses
    benchmark.extra_info["accesses"] = packed.n_accesses
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["accesses_per_s"] = round(
            packed.n_accesses / benchmark.stats.stats.min
        )


def test_sweep_throughput(trace, benchmark):
    """Regression-gated: parallel Table VI sweep wall time (jobs=4)."""
    cache_size_policy_sweep(trace, jobs=4)  # warm memos
    sweep = benchmark.pedantic(
        cache_size_policy_sweep, args=(trace,), kwargs=dict(jobs=4),
        rounds=3, iterations=1,
    )
    benchmark.extra_info["configs"] = len(sweep.results)
    assert len(sweep.results) == len(PAPER_CACHE_SIZES) * 4
    accesses = cached_packed_stream(trace, 4096).n_accesses
    benchmark.extra_info["accesses"] = accesses
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["accesses_per_s"] = round(
            len(sweep.results) * accesses / benchmark.stats.stats.min
        )


def test_packed_replay_throughput(trace, benchmark):
    """Regression-gated: one packed delayed-write replay at 390 KB."""
    packed = cached_packed_stream(trace, 4096)
    run = benchmark.pedantic(
        simulate_packed, args=(packed, 390 * 1024), rounds=3, iterations=1,
    )
    benchmark.extra_info["block_accesses"] = run.metrics.block_accesses
    assert run.metrics.block_accesses == packed.n_accesses
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["accesses_per_s"] = round(
            run.metrics.block_accesses / benchmark.stats.stats.min
        )
