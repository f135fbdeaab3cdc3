"""Burstiness (Sections 4, 5.1 and 8).

Not a numbered exhibit, but three quantified claims the paper makes about
burstiness are checked here: the peak open rate ("about 2-3 files were
opened per second" during peak hours), the per-user burst rates ("as high
as 10 kbytes/sec recorded for some users in some intervals"), and the
overall conclusion that "file system activity is bursty".
"""

from __future__ import annotations

from ..analysis.onepass import analyze_onepass
from ..trace.log import TraceLog
from ..trace.npview import current_engine
from .base import ExperimentResult, register


@register(
    "burstiness",
    "Activity burstiness: open rates and per-user extremes",
    "2-3 opens/second at peak; user bursts up to ~10 KB/s; activity is "
    "bursty (10-second rates far above 10-minute averages)",
)
def run(log: TraceLog) -> ExperimentResult:
    report = analyze_onepass(
        log, burst_window=10.0, engine=current_engine()
    ).burstiness
    return ExperimentResult(
        experiment_id="burstiness",
        title="Activity burstiness: open rates and per-user extremes",
        rendered=report.render(),
        data={
            "mean_open_rate": report.mean_open_rate,
            "peak_open_rate": report.peak_open_rate,
            "peak_to_mean": report.peak_to_mean,
            "idle_window_fraction": report.idle_window_fraction,
            "max_user_rate": report.max_user_rate,
        },
    )
