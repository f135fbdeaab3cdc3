"""Table IV: system activity and per-active-user throughput."""

from __future__ import annotations

from ..analysis.onepass import analyze_onepass
from ..trace.log import TraceLog
from ..trace.npview import current_engine
from .base import ExperimentResult, register


@register(
    "table4",
    "System activity: active users and throughput per active user",
    "A5: ~11.7 active users over 10-minute intervals at ~370 bytes/sec "
    "each; over 10-second intervals ~2.5 active users at a few "
    "kilobytes/sec each",
)
def run(log: TraceLog) -> ExperimentResult:
    report = analyze_onepass(log, engine=current_engine()).activity
    return ExperimentResult(
        experiment_id="table4",
        title="System activity: active users and throughput per active user",
        rendered=report.render(),
        data={
            "mean_throughput": report.mean_throughput,
            "total_users": report.total_users,
            "active_10min": report.ten_minute.mean_active_users,
            "active_10min_std": report.ten_minute.std_active_users,
            "per_user_10min": report.ten_minute.mean_user_throughput,
            "active_10s": report.ten_second.mean_active_users,
            "per_user_10s": report.ten_second.mean_user_throughput,
            "max_active_10min": report.ten_minute.max_active_users,
        },
    )
