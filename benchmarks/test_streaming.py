"""Bench: the streaming pipeline — spooled generation.

``test_generation_throughput`` is the number
``benchmarks/check_regression.py`` compares against the committed
``benchmarks/BENCH_3.json`` baseline in CI.  The analyzer's gates live
in ``test_vectorized.py``: its acceptance bar against the per-module
reference analyses, and its BENCH_5 throughput gate.
"""

from __future__ import annotations

from repro.workload.generator import generate
from repro.workload.profiles import UCBARPA

GEN_DURATION = 1800.0  # simulated seconds per generation benchmark round


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
