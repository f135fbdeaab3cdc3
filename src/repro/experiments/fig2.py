"""Figure 2: dynamic distribution of file sizes at close."""

from __future__ import annotations

from ..analysis.onepass import analyze_onepass
from ..analysis.report import render_cdf_ascii
from ..trace.log import TraceLog
from ..trace.npview import current_engine
from .base import ExperimentResult, register

#: X grid in bytes (the paper plots 0-200 kilobytes).
GRID = [
    1024,
    2048,
    4096,
    10 * 1024,
    20 * 1024,
    50 * 1024,
    100 * 1024,
    200 * 1024,
    1024 * 1024,
]


def _kb(x: float) -> str:
    return f"{x / 1024:g} KB"


@register(
    "fig2",
    "Dynamic file sizes at close, by accesses (a) and by bytes (b)",
    "80% of accesses are to files under 10 kbytes, but they carry only "
    "~30% of the bytes; a few ~1 MB administrative files account for "
    "almost 20% of accesses",
)
def run(log: TraceLog) -> ExperimentResult:
    report = analyze_onepass(log, engine=current_engine())
    by_accesses, by_bytes = report.size_by_accesses, report.size_by_bytes
    rendered = "\n".join(
        [
            "(a) weighted by number of file accesses:",
            render_cdf_ascii(by_accesses, GRID, "file size", x_format=_kb),
            "",
            "(b) weighted by bytes transferred:",
            render_cdf_ascii(by_bytes, GRID, "file size", x_format=_kb),
        ]
    )
    return ExperimentResult(
        experiment_id="fig2",
        title="Dynamic file sizes at close, by accesses (a) and by bytes (b)",
        rendered=rendered,
        data={
            "accesses_under_10k": by_accesses.fraction_at_or_below(10 * 1024),
            "bytes_under_10k": by_bytes.fraction_at_or_below(10 * 1024),
            "accesses_over_200k": 1.0 - by_accesses.fraction_at_or_below(200 * 1024),
            "curve_accesses": by_accesses.evaluate(GRID),
            "curve_bytes": by_bytes.evaluate(GRID),
        },
    )
