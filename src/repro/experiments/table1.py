"""Table I: the paper's selected-results summary, recomputed."""

from __future__ import annotations

from ..analysis.accesses import reconstruct_accesses
from ..analysis.activity import analyze_activity
from ..analysis.lifetimes import collect_lifetimes, lifetime_cdfs
from ..analysis.opentimes import open_time_cdf
from ..analysis.sequentiality import analyze_sequentiality
from ..cache.policies import DELAYED_WRITE, WRITE_THROUGH
from ..cache.sweep import block_size_sweep, simulate_cache
from ..trace.log import TraceLog
from .base import ExperimentResult, register


@register(
    "table1",
    "Selected results (the paper's Table I)",
    "~300-600 bytes/sec per active user; ~70% whole-file accesses moving "
    "~50% of bytes; 75% of opens < 0.5 s, 90% < 10 s; 20-30% of new data "
    "dead in 30 s, ~50% in 5 min; a 4 MB cache removes 65-90% of disk "
    "accesses depending on write policy; best block size 8 KB at 400 KB "
    "cache, 16 KB at 4 MB",
)
def run(log: TraceLog) -> ExperimentResult:
    accesses = reconstruct_accesses(log)
    activity = analyze_activity(log)
    seq = analyze_sequentiality(log, accesses)
    opens = open_time_cdf(log, accesses)
    lifetimes = collect_lifetimes(log)
    _lt_files, lt_bytes = lifetime_cdfs(log, lifetimes)

    four_mb = 4 * 1024 * 1024
    wt = simulate_cache(log, four_mb, policy=WRITE_THROUGH)
    dw = simulate_cache(log, four_mb, policy=DELAYED_WRITE)
    blocks = block_size_sweep(
        log, cache_sizes=(400 * 1024, four_mb)
    )

    whole_accesses = seq.read.whole_file + seq.write.whole_file
    all_rw_accesses = seq.read.accesses + seq.write.accesses
    lines = [
        f"Per active user (10-minute intervals): "
        f"{activity.ten_minute.mean_user_throughput:.0f} bytes/second",
        f"Whole-file transfers: {100 * whole_accesses / max(1, all_rw_accesses):.0f}% "
        f"of accesses, {seq.percent_bytes_whole_file:.0f}% of bytes",
        f"Files open < 0.5 s: {100 * opens.fraction_at_or_below(0.5):.0f}%; "
        f"< 10 s: {100 * opens.fraction_at_or_below(10.0):.0f}%",
        f"New data dead within 30 s: "
        f"{100 * lt_bytes.fraction_at_or_below(30.0):.0f}% of bytes; "
        f"within 5 min: {100 * lt_bytes.fraction_at_or_below(300.0):.0f}%",
        f"4-Mbyte cache eliminates "
        f"{100 * (1 - dw.miss_ratio):.0f}% (delayed-write) to "
        f"{100 * (1 - wt.miss_ratio):.0f}% (write-through) of disk accesses",
        f"Best block size: {blocks.best_block_size(400 * 1024) // 1024} KB at a "
        f"400 KB cache, {blocks.best_block_size(four_mb) // 1024} KB at 4 MB",
    ]
    return ExperimentResult(
        experiment_id="table1",
        title="Selected results (the paper's Table I)",
        rendered="\n".join(lines),
        data={
            "per_user_bytes_sec": activity.ten_minute.mean_user_throughput,
            "whole_file_access_pct": 100 * whole_accesses / max(1, all_rw_accesses),
            "whole_file_bytes_pct": seq.percent_bytes_whole_file,
            "open_half_s": opens.fraction_at_or_below(0.5),
            "open_ten_s": opens.fraction_at_or_below(10.0),
            "bytes_dead_30s": lt_bytes.fraction_at_or_below(30.0),
            "bytes_dead_5min": lt_bytes.fraction_at_or_below(300.0),
            "eliminated_delayed_4mb": 1 - dw.miss_ratio,
            "eliminated_wt_4mb": 1 - wt.miss_ratio,
            "best_block_small": blocks.best_block_size(400 * 1024),
            "best_block_4mb": blocks.best_block_size(four_mb),
        },
    )
