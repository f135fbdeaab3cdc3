"""Figure 3: distribution of times files were open."""

from __future__ import annotations

from ..analysis.onepass import analyze_onepass
from ..analysis.report import render_cdf_ascii
from ..trace.log import TraceLog
from ..trace.npview import current_engine
from .base import ExperimentResult, register

#: X grid in seconds (the paper plots 0-10 seconds).
GRID = [0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 300.0]


@register(
    "fig3",
    "Distribution of times that files were open",
    "~75% of files are open less than 0.5 second and ~90% less than "
    "10 seconds; editor temporaries form a long tail",
)
def run(log: TraceLog) -> ExperimentResult:
    cdf = analyze_onepass(log, engine=current_engine()).open_times
    return ExperimentResult(
        experiment_id="fig3",
        title="Distribution of times that files were open",
        rendered=render_cdf_ascii(
            cdf, GRID, "open time", x_format=lambda x: f"{x:g} s"
        ),
        data={
            "under_half_second": cdf.fraction_at_or_below(0.5),
            "under_ten_seconds": cdf.fraction_at_or_below(10.0),
            "median": cdf.median(),
            "curve": cdf.evaluate(GRID),
        },
    )
