"""Figure 1: cumulative distributions of sequential run lengths."""

from __future__ import annotations

from ..analysis.onepass import analyze_onepass
from ..analysis.report import render_cdf_ascii
from ..trace.log import TraceLog
from ..trace.npview import current_engine
from .base import ExperimentResult, register

#: X grid in bytes (the paper plots 0-100 kilobytes).
GRID = [512, 1024, 2048, 4096, 8192, 16384, 25600, 51200, 102400]


def _kb(x: float) -> str:
    return f"{x / 1024:g} KB"


@register(
    "fig1",
    "Sequential run lengths, by runs (a) and by bytes (b)",
    "70-75% of runs are under 4 kbytes (jumps at 1 KB and 4 KB from stdio "
    "granules); 30-40% of all bytes move in runs longer than 25 kbytes",
)
def run(log: TraceLog) -> ExperimentResult:
    report = analyze_onepass(log, engine=current_engine())
    by_runs, by_bytes = report.run_length_by_runs, report.run_length_by_bytes
    rendered = "\n".join(
        [
            "(a) weighted by number of runs:",
            render_cdf_ascii(by_runs, GRID, "run length", x_format=_kb),
            "",
            "(b) weighted by bytes transferred:",
            render_cdf_ascii(by_bytes, GRID, "run length", x_format=_kb),
        ]
    )
    return ExperimentResult(
        experiment_id="fig1",
        title="Sequential run lengths, by runs (a) and by bytes (b)",
        rendered=rendered,
        data={
            "runs_under_4k": by_runs.fraction_at_or_below(4096),
            "bytes_over_25k": 1.0 - by_bytes.fraction_at_or_below(25 * 1024),
            "curve_runs": by_runs.evaluate(GRID),
            "curve_bytes": by_bytes.evaluate(GRID),
        },
    )
