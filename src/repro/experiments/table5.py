"""Table V: sequentiality of file accesses."""

from __future__ import annotations

from ..analysis.onepass import analyze_onepass
from ..trace.log import TraceLog
from ..trace.npview import current_engine
from .base import ExperimentResult, register


@register(
    "table5",
    "Sequentiality: whole-file and sequential access fractions",
    "63-70% of read-only and 81-85% of write-only accesses are whole-file "
    "transfers carrying ~50% of all bytes; >90% of read-only and >96% of "
    "write-only accesses are sequential; read-write accesses are "
    "sequential only 19-35% of the time; ~67% of bytes move sequentially",
)
def run(log: TraceLog) -> ExperimentResult:
    report = analyze_onepass(log, engine=current_engine()).sequentiality
    return ExperimentResult(
        experiment_id="table5",
        title="Sequentiality: whole-file and sequential access fractions",
        rendered=report.render(),
        data={
            "whole_read_pct": report.read.percent_whole(),
            "whole_write_pct": report.write.percent_whole(),
            "seq_read_pct": report.read.percent_sequential(),
            "seq_write_pct": report.write.percent_sequential(),
            "seq_rw_pct": report.read_write.percent_sequential(),
            "rw_accesses": report.read_write.accesses,
            "bytes_whole_pct": report.percent_bytes_whole_file,
            "bytes_seq_pct": report.percent_bytes_sequential,
        },
    )
