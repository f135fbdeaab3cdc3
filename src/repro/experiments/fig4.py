"""Figure 4: cumulative distributions of new-file lifetimes."""

from __future__ import annotations

from ..analysis.onepass import analyze_onepass
from ..analysis.report import render_cdf_ascii
from ..trace.log import TraceLog
from ..trace.npview import current_engine
from .base import ExperimentResult, register

#: X grid in seconds (the paper plots 0-500 seconds).
GRID = [10, 30, 60, 120, 178, 182, 200, 300, 400, 500]


@register(
    "fig4",
    "New-file lifetimes, by files (a) and by bytes created (b)",
    "~80% of new files die within ~200 seconds; 30-40% of lifetimes land "
    "at 179-181 s (network status daemons); data deleted within 200 s "
    "accounts for ~40% of bytes written to new files",
)
def run(log: TraceLog) -> ExperimentResult:
    report = analyze_onepass(log, engine=current_engine())
    by_files, by_bytes = report.lifetime_by_files, report.lifetime_by_bytes
    rendered = "\n".join(
        [
            "(a) weighted by number of files:",
            render_cdf_ascii(
                by_files, GRID, "lifetime", x_format=lambda x: f"{x:g} s"
            ),
            "",
            "(b) weighted by bytes created:",
            render_cdf_ascii(
                by_bytes, GRID, "lifetime", x_format=lambda x: f"{x:g} s"
            ),
            "",
            f"lifetimes in the 179-181 s daemon band: "
            f"{100 * report.daemon_spike:.0f}% of all new files",
        ]
    )
    return ExperimentResult(
        experiment_id="fig4",
        title="New-file lifetimes, by files (a) and by bytes created (b)",
        rendered=rendered,
        data={
            "files_under_200s": by_files.fraction_at_or_below(200.0),
            "bytes_under_200s": by_bytes.fraction_at_or_below(200.0),
            "daemon_spike": report.daemon_spike,
            "new_files": len(report.lifetimes),
            "curve_files": by_files.evaluate(GRID),
            "curve_bytes": by_bytes.evaluate(GRID),
        },
    )
