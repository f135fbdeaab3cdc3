"""Bench: the vectorized cache engine and the zero-copy sweep fan-out.

Two jobs ride here, mirroring ``test_parallel.py``:

* **Acceptance** — the numpy miss-ratio-curve kernel must be at least
  10x faster than one packed replay per size on a dense size grid
  (~320 tracked sizes; the grids Figure 5-style exhibits actually
  want), while staying *bit-identical* at every size; and the
  write-through sweep must run at least 3x faster at ``jobs=4`` with
  shared ``.bpack`` streams than the serial reference (one
  ``BlockCacheSimulator`` run per cell), with the Python-engine sweep
  equal to that reference too.  Both bars are asserted, not just
  measured; the measured margins are wide.
* **Regression gate** — every benchmark here is compared by
  ``benchmarks/check_regression.py`` against ``benchmarks/BENCH_6.json``
  (``--gate veccache``).

Times and the ``*_per_s`` rates in ``extra_info`` are gated; the rates
let the checker catch a throughput regression even if a future change
also shrinks the measured work.
"""

from __future__ import annotations

import time

from repro.cache.policies import WRITE_THROUGH
from repro.cache.simulator import BlockCacheSimulator
from repro.cache.stream import cached_stream
from repro.cache.sweep import cache_size_policy_sweep
from repro.parallel.packed import cached_packed_stream, simulate_packed
from repro.parallel.veccache import stack_curve_numpy

#: ~320 geometrically spaced capacities from one block to 16 MB — the
#: grid density Figure 5-style exhibits want, where one replay per size
#: is what a whole-curve kernel saves.
DENSE_CAPS = sorted({round(4096 ** (i / 511)) for i in range(512)})
DENSE_SIZES = tuple(c * 4096 for c in DENSE_CAPS)

#: A write-through miss-ratio sweep: 20 cache sizes, one policy — the
#: configuration family whose replays the batched fast path collapses
#: into curve evaluations.
WT_SWEEP_SIZES = tuple(sorted(
    {(16 << 10) * (1 << i) for i in range(10)}
    | {(24 << 10) * (1 << i) for i in range(10)}
))


def _best_of(fn, rounds=3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_veccache_numpy_curve_speedup(trace, benchmark):
    """Acceptance + gate: >= 10x on the dense grid, bit-identical."""
    packed = cached_packed_stream(trace, 4096)
    stack_curve_numpy(packed, DENSE_SIZES)  # warm numpy first-touch costs
    # One round: the per-size replays take seconds, far above the noise.
    t_py, ref = _best_of(
        lambda: [
            simulate_packed(packed, size, WRITE_THROUGH).metrics
            for size in DENSE_SIZES
        ],
        rounds=1,
    )
    t_np, fast = _best_of(lambda: stack_curve_numpy(packed, DENSE_SIZES))
    for size, metrics in zip(DENSE_SIZES, ref):
        assert fast.metrics(size) == metrics, f"diverged at {size}"
    speedup = t_py / t_np
    print(f"replays {t_py * 1e3:.1f} ms  numpy {t_np * 1e3:.1f} ms  "
          f"speedup {speedup:.1f}x over {len(DENSE_SIZES)} sizes")
    assert speedup >= 10.0, f"curve speedup below acceptance bar: {speedup:.1f}x"

    benchmark.pedantic(
        stack_curve_numpy, args=(packed, DENSE_SIZES), rounds=3, iterations=1,
    )
    benchmark.extra_info["sizes"] = len(DENSE_SIZES)
    benchmark.extra_info["speedup_vs_replay"] = round(speedup, 1)
    if benchmark.stats is not None:
        benchmark.extra_info["accesses_per_s"] = round(
            packed.n_accesses / benchmark.stats.stats.min
        )


def _wt_sweep(trace, jobs, engine=None, pack_dir=None):
    return cache_size_policy_sweep(
        trace,
        cache_sizes=WT_SWEEP_SIZES,
        policies=(WRITE_THROUGH,),
        jobs=jobs,
        engine=engine,
        pack_dir=pack_dir,
    )


def _reference_wt_sweep(trace):
    """The same cells through the reference simulator, one run each."""
    stream = cached_stream(trace)
    return {
        (size, WRITE_THROUGH.label): BlockCacheSimulator(
            cache_bytes=size, policy=WRITE_THROUGH
        ).run(stream, flush_epoch=trace.start_time)
        for size in WT_SWEEP_SIZES
    }


def test_veccache_sweep_bpack_numpy(trace, benchmark, tmp_path):
    """Acceptance + gate: the numpy engine on the same sweep — >= 3x over
    serial, and faster than the Python workers it replaces."""
    _reference_wt_sweep(trace)  # warm memos
    _wt_sweep(trace, 4, engine="numpy", pack_dir=tmp_path)
    _wt_sweep(trace, 4, engine="python", pack_dir=tmp_path)

    t_serial, serial = _best_of(lambda: _reference_wt_sweep(trace))
    t_python, python = _best_of(
        lambda: _wt_sweep(trace, 4, engine="python", pack_dir=tmp_path)
    )
    t_fast, fast = _best_of(
        lambda: _wt_sweep(trace, 4, engine="numpy", pack_dir=tmp_path)
    )
    assert python.results == serial, "python bpack sweep diverged"
    assert fast.results == serial, "numpy sweep diverged"
    speedup = t_serial / t_fast
    vs_python = t_python / t_fast
    print(f"serial {t_serial * 1e3:.1f} ms  python {t_python * 1e3:.1f} ms  "
          f"numpy {t_fast * 1e3:.1f} ms  "
          f"({speedup:.1f}x serial, {vs_python:.1f}x python)")
    assert speedup >= 3.0, f"sweep speedup below acceptance bar: {speedup:.1f}x"
    assert vs_python >= 1.5, f"numpy workers barely beat python: {vs_python:.1f}x"

    sweep = benchmark.pedantic(
        lambda: _wt_sweep(trace, 4, engine="numpy", pack_dir=tmp_path),
        rounds=3, iterations=1,
    )
    packed = cached_packed_stream(trace, 4096)
    benchmark.extra_info["configs"] = len(sweep.results)
    benchmark.extra_info["speedup_vs_serial"] = round(speedup, 1)
    benchmark.extra_info["speedup_vs_python_workers"] = round(vs_python, 1)
    if benchmark.stats is not None:
        benchmark.extra_info["accesses_per_s"] = round(
            len(sweep.results) * packed.n_accesses / benchmark.stats.stats.min
        )
