"""System experiments: exhibits that need the live kernel, not just the trace.

Three of the paper's discussions compare its trace-driven predictions
against the *running system*:

* **Section 6.4 (Leffler comparison)** — the measured kernel buffer-cache
  miss ratio vs. the simulator's prediction for the same cache size and
  the 30-second sync policy;
* **Section 8 (other accesses)** — how much disk I/O comes from things
  the traces exclude: name lookup, i-nodes and program page-in;
* **prior-work methodology** — what a static disk scan (Satyanarayanan's
  method) sees vs. the dynamic per-access measurements of Figure 2.

These take a :class:`~repro.workload.generator.GenerationResult` (trace +
live file system) rather than a bare trace, so they live in their own
registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..analysis.onepass import analyze_onepass
from ..analysis.staticscan import scan_disk
from ..cache.policies import FLUSH_30S
from ..cache.simulator import BlockCacheSimulator
from ..cache.sweep import simulate_cache
from ..cache.stream import build_stream
from ..trace.npview import current_engine
from ..trace.records import ExecEvent
from ..trace.stats import total_bytes_transferred
from ..workload.generator import GenerationResult
from .base import ExperimentResult

__all__ = [
    "SYSTEM_REGISTRY",
    "run_system_experiment",
    "all_system_ids",
    "leffler_comparison",
    "other_io_estimate",
    "static_vs_dynamic",
]


@dataclass(frozen=True)
class SystemExperiment:
    experiment_id: str
    title: str
    paper_claim: str
    run: Callable[[GenerationResult], ExperimentResult]


SYSTEM_REGISTRY: dict[str, SystemExperiment] = {}


def _register(experiment_id: str, title: str, paper_claim: str):
    def wrap(fn):
        SYSTEM_REGISTRY[experiment_id] = SystemExperiment(
            experiment_id=experiment_id, title=title, paper_claim=paper_claim,
            run=fn,
        )
        return fn

    return wrap


def all_system_ids() -> list[str]:
    return sorted(SYSTEM_REGISTRY)


def run_system_experiment(experiment_id: str, result: GenerationResult) -> ExperimentResult:
    try:
        experiment = SYSTEM_REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(all_system_ids())
        raise KeyError(
            f"unknown system experiment {experiment_id!r}; known: {known}"
        ) from None
    return experiment.run(result)


@_register(
    "leffler",
    "Measured kernel cache vs. trace-driven prediction (Section 6.4)",
    "Typical 4.2 BSD systems (400 KB cache, 30 s sync) should see about a "
    "2x disk-access reduction per the simulations, while Leffler et al. "
    "measured ~15% miss ratios — the gap comes from sub-block requests "
    "and from paging/directory/i-node accesses the traces exclude",
)
def leffler_comparison(result: GenerationResult) -> ExperimentResult:
    fs = result.fs
    live = fs.buffer_cache.stats
    simulated = simulate_cache(
        result.trace,
        cache_bytes=fs.buffer_cache.capacity_blocks * fs.buffer_cache.block_size,
        block_size=fs.buffer_cache.block_size,
        policy=FLUSH_30S,
    )
    rendered = "\n".join(
        [
            f"Live kernel buffer cache ({fs.buffer_cache.capacity_blocks} "
            f"blocks, 30 s sync):",
            f"  {live.accesses:,} block accesses, miss ratio "
            f"{100 * live.miss_ratio:.1f}% "
            f"(read hit ratio {100 * live.read_hit_ratio:.1f}%)",
            "Trace-driven simulation of the same configuration:",
            f"  {simulated.summary()}",
            f"Difference: {100 * abs(live.miss_ratio - simulated.miss_ratio):.1f} "
            f"percentage points (billing-time and request-granularity effects)",
        ]
    )
    return ExperimentResult(
        experiment_id="leffler",
        title="Measured kernel cache vs. trace-driven prediction",
        rendered=rendered,
        data={
            "live_miss_ratio": live.miss_ratio,
            "simulated_miss_ratio": simulated.miss_ratio,
            "live_accesses": live.accesses,
        },
    )


@_register(
    "other_io",
    "Disk I/O for things other than file data (Section 8)",
    "Program files hold 1.2-2.0x as many bytes as all logical file I/O; "
    "the directory cache hits ~85%; 'more than half of all disk block "
    "references could come from these other accesses'",
)
def other_io_estimate(result: GenerationResult) -> ExperimentResult:
    fs = result.fs
    trace = result.trace
    data_bytes = total_bytes_transferred(trace)
    exec_bytes = sum(
        e.size for e in trace.events if isinstance(e, ExecEvent)
    )
    exec_ratio = exec_bytes / data_bytes if data_bytes else 0.0

    dnlc = fs.resolver.dnlc.counters
    inode = fs.inode_cache.counters
    # Paper Section 3.2: each uncached pathname component costs a minimum
    # of two block accesses (the directory's descriptor and its contents).
    directory_ios = 2 * dnlc.misses
    inode_ios = inode.misses

    file_data_ios = simulate_cache(
        trace, cache_bytes=400 * 1024, policy=FLUSH_30S
    ).disk_ios
    other_ios = directory_ios + inode_ios
    other_fraction = other_ios / (other_ios + file_data_ios)

    rendered = "\n".join(
        [
            f"Logical file data moved: {data_bytes / 1e6:.1f} MB; program "
            f"images execve'd: {exec_bytes / 1e6:.1f} MB "
            f"({exec_ratio:.2f}x of file data — paper saw 1.2-2.0x)",
            f"Name lookup: DNLC hit ratio {100 * dnlc.hit_ratio:.0f}% "
            f"({dnlc.misses:,} misses -> ~{directory_ios:,} directory disk reads)",
            f"I-nodes: cache hit ratio {100 * inode.hit_ratio:.0f}% "
            f"({inode.misses:,} misses -> ~{inode_ios:,} i-node disk reads)",
            f"File-data disk I/Os (400 KB cache, 30 s sync): {file_data_ios:,}",
            f"Other accesses would be {100 * other_fraction:.0f}% of total disk "
            f"I/O even before paging — the paper's Section 8 point",
        ]
    )
    return ExperimentResult(
        experiment_id="other_io",
        title="Disk I/O for things other than file data",
        rendered=rendered,
        data={
            "exec_ratio": exec_ratio,
            "dnlc_hit_ratio": dnlc.hit_ratio,
            "inode_hit_ratio": inode.hit_ratio,
            "directory_ios": directory_ios,
            "inode_ios": inode_ios,
            "file_data_ios": file_data_ios,
            "other_fraction": other_fraction,
        },
    )


@_register(
    "static_scan",
    "Static disk scan vs. dynamic per-access measurement",
    "Prior studies scanned disks statically and so missed files living "
    "less than a day; Satyanarayanan's static sizes are nonetheless "
    "roughly comparable (~50% of files under 2.5 KB), while dynamic "
    "access-weighted sizes skew smaller still",
)
def static_vs_dynamic(result: GenerationResult) -> ExperimentResult:
    scan = scan_disk(result.fs)
    report = analyze_onepass(result.trace, engine=current_engine())
    dynamic = report.size_by_accesses
    rendered = "\n".join(
        [
            scan.render(),
            f"Dynamic (per-access, Figure 2a): "
            f"{100 * dynamic.fraction_at_or_below(10 * 1024):.0f}% of accesses "
            f"to files <= 10 KB (median {dynamic.median() / 1024:.1f} KB)",
            "The static scan cannot see the temporary files that dominate "
            "Figure 4 — they are born and dead between scans.",
        ]
    )
    return ExperimentResult(
        experiment_id="static_scan",
        title="Static disk scan vs. dynamic per-access measurement",
        rendered=rendered,
        data={
            "static_files": scan.file_count,
            "static_under_10k": scan.size_cdf.fraction_at_or_below(10 * 1024),
            "dynamic_under_10k": dynamic.fraction_at_or_below(10 * 1024),
            "static_median": scan.size_cdf.median(),
            "dynamic_median": dynamic.median(),
        },
    )
