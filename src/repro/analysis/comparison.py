"""Side-by-side trace comparison (the paper's Section 7 check).

"The generality of our conclusions is also supported by the similarity of
the results for the three different traces."  This module computes the
headline measurements for several traces at once and renders them as one
table, so the Section 7 argument can be re-made on any set of traces —
synthetic profiles, strace conversions, or slices of one long trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cache.policies import DELAYED_WRITE
from ..cache.sweep import simulate_cache
from ..trace.log import TraceLog
from .onepass import analyze_onepass
from .report import render_table

__all__ = ["TraceHeadline", "compare_traces", "headline", "render_comparison"]

_MB = 1024 * 1024


@dataclass(frozen=True)
class TraceHeadline:
    """The numbers Section 7 compares across machines."""

    name: str
    events: int
    per_user_bytes_sec: float
    whole_file_read_pct: float
    sequential_read_pct: float
    accesses_under_10k_pct: float
    opens_under_half_s_pct: float
    files_dead_200s_pct: float
    daemon_spike_pct: float
    miss_ratio_4mb: float


def headline(log: TraceLog) -> TraceHeadline:
    """Compute one trace's headline row (one fused analysis pass plus the
    cache simulation)."""
    r = analyze_onepass(log)
    cache = simulate_cache(log, 4 * _MB, policy=DELAYED_WRITE)
    return TraceHeadline(
        name=log.name,
        events=len(log),
        per_user_bytes_sec=r.activity.ten_minute.mean_user_throughput,
        whole_file_read_pct=r.sequentiality.read.percent_whole(),
        sequential_read_pct=r.sequentiality.read.percent_sequential(),
        accesses_under_10k_pct=100 * r.size_by_accesses.fraction_at_or_below(10 * 1024),
        opens_under_half_s_pct=100 * r.open_times.fraction_at_or_below(0.5),
        files_dead_200s_pct=100 * r.lifetime_by_files.fraction_at_or_below(200.0),
        daemon_spike_pct=100 * r.daemon_spike,
        miss_ratio_4mb=cache.miss_ratio,
    )


def compare_traces(logs: list[TraceLog]) -> str:
    """The Section 7 table for any set of traces."""
    return render_comparison([headline(log) for log in logs])


def render_comparison(headlines: list[TraceHeadline]) -> str:
    """The Section 7 table from precomputed headline rows."""
    rows = []
    for h in headlines:
        rows.append(
            (
                h.name,
                f"{h.events:,}",
                f"{h.per_user_bytes_sec:.0f}",
                f"{h.whole_file_read_pct:.0f}%",
                f"{h.sequential_read_pct:.0f}%",
                f"{h.accesses_under_10k_pct:.0f}%",
                f"{h.opens_under_half_s_pct:.0f}%",
                f"{h.files_dead_200s_pct:.0f}%",
                f"{100 * h.miss_ratio_4mb:.0f}%",
            )
        )
    return render_table(
        (
            "trace",
            "events",
            "B/s per user",
            "whole-file reads",
            "sequential reads",
            "accesses <= 10KB",
            "opens < 0.5s",
            "files dead < 200s",
            "4MB miss ratio",
        ),
        rows,
        title="Cross-trace comparison (the paper's Section 7 check)",
    )
