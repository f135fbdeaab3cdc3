"""Section 7: the cross-machine comparison.

The paper's generality argument rests on running the same analyses on
three different machines (ucbarpa, ucbernie, ucbcad) and finding the
headline numbers similar.  This experiment re-makes that argument around
whatever trace it is given: it synthesizes companion traces for the other
two machine profiles — in parallel across processes when a ``--jobs``
context is active — and renders all three side by side.

The companion traces come from :func:`companion_traces`, which
``table6rev`` shares: both exhibits see the same traces, generated once
per input log, and the second one reuses the item and packed streams the
first built for them.
"""

from __future__ import annotations

from ..analysis.comparison import headline, render_comparison
from ..trace.log import TraceLog
from ..trace.memo import memoize_per_log
from ..workload.generator import generate_many
from ..workload.profiles import UCBARPA, UCBCAD, UCBERNIE
from .base import ExperimentResult, register

__all__ = ["companion_traces"]

_MACHINES = (UCBARPA, UCBERNIE, UCBCAD)

#: Seed for the synthesized companion traces (arbitrary but fixed).
_COMPANION_SEED = 7


def companion_traces(log: TraceLog) -> tuple[TraceLog, ...]:
    """Synthesized traces of the paper machines other than *log*'s.

    Long enough to be meaningful, short enough that an exhibit stays
    interactive even when the input trace spans days: *log*'s duration
    clamped to 10-30 minutes.  Memoized per *log*, so every exhibit that
    sets *log* beside the other machines shares one set of traces.
    """

    def build() -> tuple[TraceLog, ...]:
        duration = min(max(log.duration, 600.0), 1800.0)
        others = [p for p in _MACHINES if p.trace_name != log.name]
        return tuple(
            generate_many([(p, _COMPANION_SEED) for p in others], duration=duration)
        )

    return memoize_per_log(log, "companion_traces", build)


@register(
    "section7",
    "Cross-machine comparison of headline results",
    "Section 7: \"The generality of our conclusions is also supported by "
    "the similarity of the results for the three different traces\" — "
    "per-user throughput, sequentiality, size, open-time, lifetime and "
    "cache numbers agree across ucbarpa, ucbernie and ucbcad",
)
def run(log: TraceLog) -> ExperimentResult:
    logs = [log, *companion_traces(log)]
    heads = [headline(entry) for entry in logs]
    return ExperimentResult(
        experiment_id="section7",
        title="Cross-machine comparison of headline results",
        rendered=render_comparison(heads),
        data={
            h.name: {
                "events": h.events,
                "per_user_bytes_sec": h.per_user_bytes_sec,
                "whole_file_read_pct": h.whole_file_read_pct,
                "sequential_read_pct": h.sequential_read_pct,
                "accesses_under_10k_pct": h.accesses_under_10k_pct,
                "opens_under_half_s_pct": h.opens_under_half_s_pct,
                "files_dead_200s_pct": h.files_dead_200s_pct,
                "daemon_spike_pct": h.daemon_spike_pct,
                "miss_ratio_4mb": h.miss_ratio_4mb,
            }
            for h in heads
        },
    )
