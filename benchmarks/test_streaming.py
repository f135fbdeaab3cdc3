"""Bench: the streaming pipeline — spooled generation and the one-pass
analyzer.

Two jobs ride here, mirroring ``test_parallel.py``:

* **Acceptance** — ``analyze_onepass``'s fused Python loop
  (``engine="python"``) must produce the full report at least 3x faster
  than running the per-module reference analyses
  back-to-back (each reference call replays the trace through its own
  ``reconstruct_accesses``; the fused pass replays it once).  Equality
  of the results is pinned by ``tests/test_onepass.py``; here only the
  speedup is asserted, best-of-3 to ride out machine noise.
* **Regression gate** — ``test_generation_throughput`` and
  ``test_full_report_throughput`` are the numbers
  ``benchmarks/check_regression.py`` compares against the committed
  ``benchmarks/BENCH_3.json`` baseline in CI.  The full report runs the
  fused Python loop too: its committed number is also the pure-Python
  baseline that ``test_vectorized.py``'s 10x acceptance bar reads.
"""

from __future__ import annotations

import time

from repro.analysis.accesses import iter_transfers
from repro.analysis.activity import analyze_activity
from repro.analysis.burstiness import analyze_burstiness
from repro.analysis.lifetimes import (
    collect_lifetimes,
    daemon_spike_fraction,
    lifetime_cdfs,
)
from repro.analysis.onepass import analyze_onepass
from repro.analysis.opentimes import open_time_cdf
from repro.analysis.popularity import analyze_popularity
from repro.analysis.sequentiality import analyze_sequentiality, run_length_cdfs
from repro.analysis.sizes import file_size_cdfs
from repro.analysis.users import per_user_summary
from repro.trace.columns import TraceColumns
from repro.workload.generator import generate
from repro.workload.profiles import UCBARPA

GEN_DURATION = 1800.0  # simulated seconds per generation benchmark round


def _best_of(fn, rounds=3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _reference_suite(trace):
    """Every per-module analysis, standalone — what ``analyze all`` cost
    before the fused pass existed."""
    lifetimes = collect_lifetimes(trace)
    return (
        list(iter_transfers(trace)),
        analyze_activity(trace),
        analyze_sequentiality(trace),
        run_length_cdfs(trace),
        open_time_cdf(trace),
        file_size_cdfs(trace),
        analyze_popularity(trace),
        per_user_summary(trace),
        analyze_burstiness(trace),
        lifetime_cdfs(trace),
        daemon_spike_fraction(lifetimes),
    )


def test_onepass_speedup_vs_reference(trace):
    """Acceptance: >= 3x for the full report, fused pass vs per-module."""
    # Warm-up round each so neither side pays first-touch costs.
    _reference_suite(trace)
    analyze_onepass(TraceColumns.from_log(trace), engine="python")

    # Rounds are interleaved so machine noise lands on both sides alike;
    # column construction is charged to the fused side, making this the
    # whole cost of the report when starting from an in-memory log.
    t_reference = t_onepass = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        _reference_suite(trace)
        t_reference = min(t_reference, time.perf_counter() - t0)
        t0 = time.perf_counter()
        analyze_onepass(TraceColumns.from_log(trace), engine="python")
        t_onepass = min(t_onepass, time.perf_counter() - t0)
    speedup = t_reference / t_onepass

    def report():
        return (
            f"per-module {t_reference:.3f}s  one-pass {t_onepass:.3f}s  "
            f"speedup {speedup:.2f}x"
        )

    print(report())
    assert speedup >= 3.0, f"speedup below acceptance bar: {report()}"


def test_full_report_throughput(trace, benchmark):
    """Regression-gated: one full report via the fused pass (including
    the columnar build, so the number is end-to-end from a TraceLog)."""
    result = benchmark.pedantic(
        lambda: analyze_onepass(TraceColumns.from_log(trace), engine="python"),
        rounds=3, iterations=1,
    )
    benchmark.extra_info["events"] = len(trace)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["events_per_s"] = round(
            len(trace) / benchmark.stats.stats.min
        )
    assert result.accesses, "report came back empty"


def test_generation_throughput(tmp_path, benchmark):
    """Regression-gated: spool-mode generation wall time (30 simulated
    minutes streamed straight to disk, O(buffer) memory)."""
    out = tmp_path / "bench.btrace"

    def run():
        return generate(UCBARPA, seed=11, duration=GEN_DURATION,
                        spool=str(out), spool_buffer=8192)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["events"] = result.events_spooled
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["events_per_s"] = round(
            result.events_spooled / benchmark.stats.stats.min
        )
    assert result.events_spooled > 0
    assert result.peak_buffered <= 8192
