"""Throughput benchmark for the discrete-event network file service.

Measures end-to-end ``simulate_netfs`` on the shared two-hour A5 trace
under both consistency protocols, and prints the rendered results so the
latency/utilization exhibit is visible with ``--benchmark-only -s``.
The requests-per-second figure is the engine's real currency: every RPC
is several heap operations, so this is the number that bounds how much
community one simulation run can model.  CI gates the times and the
``requests_per_s`` rates against ``BENCH_8.json``.
"""

from __future__ import annotations

import pytest

from repro.netfs import simulate_netfs


def _record(benchmark, result) -> None:
    benchmark.extra_info["requests"] = result.requests
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["requests_per_s"] = round(
            result.requests / benchmark.stats.stats.min
        )


@pytest.mark.parametrize("protocol", ["callbacks", "ownership"])
def test_netfs_simulation(trace, bench_once, benchmark, protocol):
    result = bench_once(simulate_netfs, trace, protocol=protocol)
    assert result.requests > 0
    assert result.rpcs > 0
    assert 0.0 <= result.ethernet_utilization < 1.0
    _record(benchmark, result)
    print()
    print(result.render())


def test_netfs_scaled_load(trace, bench_once, benchmark):
    """Eight communities on one wire: the contended configuration."""
    result = bench_once(
        simulate_netfs, trace, protocol="ownership", load_scale=8
    )
    assert result.requests > 0
    _record(benchmark, result)
    print()
    print(result.render())
