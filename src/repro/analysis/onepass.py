"""Every reference-pattern result for a trace, from one entry point.

:func:`analyze_onepass` is the one analysis path every caller uses: the
exhibits, :func:`~repro.analysis.comparison.headline`, ``repro-fs
analyze`` and, segment by segment, :func:`repro.corpus.analyze_corpus`.
It returns one :class:`OnePassReport` holding the accesses, transfers,
lifetimes, Table IV activity, Table V sequentiality, the Figure 1–4
CDFs, popularity, per-user summaries and burstiness.

Two implementations sit behind it:

* the **fast engine**, :func:`~repro.analysis.vectorized.analyze_columns_numpy`,
  a whole-column numpy scan of the trace's columnar view;
* the **reference**, :func:`reference_report`, which calls the
  per-module analyzers (``reconstruct_accesses``, ``analyze_activity``,
  ...) one after another.  Those are the readable spec: the numpy
  engine is differenced against them field for field, bit for bit
  (``tests/test_onepass.py`` and fuzz pillars 2 and 5).

``engine="python"`` runs the reference; ``"numpy"``/``"auto"`` run the
fast engine and fall back to the reference whenever it raises
:class:`~repro.analysis.vectorized.VectorFallback` (inputs it cannot
replicate bit for bit, such as unsorted timestamps).  For a
:class:`TraceLog` the report is memoized per log and per
(windows, engine), so a run of every exhibit analyzes each log once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..trace.columns import TraceColumns, cached_columns
from ..trace.log import TraceLog
from ..trace.memo import memoize_per_log
from ..trace.npview import resolve_engine
from .accesses import (
    FileAccess,
    Transfer,
    reconstruct_accesses,
    transfers_from_accesses,
)
from .activity import ActivityReport, analyze_activity
from .burstiness import BurstinessReport, analyze_burstiness
from .cdf import Cdf
from .lifetimes import Lifetime, collect_lifetimes, daemon_spike_fraction, lifetime_cdfs
from .opentimes import open_time_cdf, open_time_summary
from .popularity import PopularityReport, analyze_popularity
from .sequentiality import SequentialityReport, analyze_sequentiality, run_length_cdfs
from .sizes import file_size_cdfs, size_summary
from .users import UserSummary, per_user_summary, render_user_table

__all__ = ["OnePassReport", "analyze_onepass", "reference_report"]


@dataclass
class OnePassReport:
    """Every reference-pattern result for one trace."""

    trace_name: str
    duration: float
    accesses: list[FileAccess]
    transfers: list[Transfer]
    lifetimes: list[Lifetime]
    activity: ActivityReport
    sequentiality: SequentialityReport
    run_length_by_runs: Cdf
    run_length_by_bytes: Cdf
    open_times: Cdf
    size_by_accesses: Cdf
    size_by_bytes: Cdf
    popularity: PopularityReport
    users: dict[int, UserSummary]
    burstiness: BurstinessReport
    lifetime_by_files: Cdf
    lifetime_by_bytes: Cdf
    daemon_spike: float

    # The vectorized engine defers the object-heavy fields (accesses,
    # transfers, lifetimes, popularity) behind thunks in ``_lazy``:
    # building tens of thousands of dataclass instances eagerly would
    # cost more than its entire scan.  Reports built by the reference
    # never carry ``_lazy`` and never enter this hook.
    def __getattr__(self, name: str):
        lazy = self.__dict__.get("_lazy")
        if lazy and name in lazy:
            value = lazy.pop(name)()
            setattr(self, name, value)
            return value
        raise AttributeError(name)

    def __getstate__(self):
        for name in ("accesses", "transfers", "lifetimes", "popularity"):
            getattr(self, name)  # materialize for pickling/copying
        state = dict(self.__dict__)
        state.pop("_lazy", None)
        return state

    def render(self) -> str:
        """The full report, section for section what ``repro-fs analyze
        all`` prints."""
        dead = [lt for lt in self.lifetimes if lt.lifetime is not None]
        return "\n".join(
            [
                self.activity.render(),
                self.sequentiality.render(),
                open_time_summary(self.open_times),
                size_summary(self.size_by_accesses, self.size_by_bytes),
                render_user_table(self.users),
                self.burstiness.render(),
                f"{len(self.lifetimes)} new files, {len(dead)} died during "
                f"the trace; {100 * self.daemon_spike:.0f}% of lifetimes in "
                "the 179-181 s daemon band",
            ]
        )


def reference_report(
    log: TraceLog,
    long_window: float = 600.0,
    short_window: float = 10.0,
    burst_window: float = 10.0,
) -> OnePassReport:
    """The report assembled from the per-module reference analyzers.

    This is the spec the numpy engine must reproduce exactly, and the
    path :func:`analyze_onepass` takes at ``engine="python"`` or when
    the engine declines an input.
    """
    accesses = reconstruct_accesses(log)
    lifetimes = collect_lifetimes(log)
    by_runs, by_bytes = run_length_cdfs(log, accesses)
    size_by_accesses, size_by_bytes = file_size_cdfs(log, accesses)
    lt_by_files, lt_by_bytes = lifetime_cdfs(log, lifetimes)
    return OnePassReport(
        trace_name=log.name,
        duration=log.duration,
        accesses=accesses,
        transfers=transfers_from_accesses(accesses),
        lifetimes=lifetimes,
        activity=analyze_activity(log, long_window, short_window),
        sequentiality=analyze_sequentiality(log, accesses),
        run_length_by_runs=by_runs,
        run_length_by_bytes=by_bytes,
        open_times=open_time_cdf(log, accesses),
        size_by_accesses=size_by_accesses,
        size_by_bytes=size_by_bytes,
        popularity=analyze_popularity(log, accesses),
        users=per_user_summary(log, accesses),
        burstiness=analyze_burstiness(log, burst_window),
        lifetime_by_files=lt_by_files,
        lifetime_by_bytes=lt_by_bytes,
        daemon_spike=daemon_spike_fraction(lifetimes),
    )


def analyze_onepass(
    source: Union[TraceLog, TraceColumns],
    long_window: float = 600.0,
    short_window: float = 10.0,
    burst_window: float = 10.0,
    engine: str = "auto",
) -> OnePassReport:
    """Run every reference-pattern analysis on *source*.

    Accepts a :class:`TraceLog` (columnarized through the per-log memo,
    and its report memoized per log: every caller gets the same object,
    so treat it as read-only) or a :class:`TraceColumns` directly, e.g.
    straight from :func:`~repro.trace.io_binary.read_binary_columns`.

    *engine* ``"auto"`` and ``"numpy"`` run the numpy engine, falling
    back to :func:`reference_report` when it cannot replicate an exotic
    input bit for bit; ``"python"`` runs the reference.  Both produce
    identical reports.
    """
    log = source if isinstance(source, TraceLog) else None

    def build() -> OnePassReport:
        if resolve_engine(engine) == "numpy":
            from .vectorized import VectorFallback, analyze_columns_numpy

            cols = source if log is None else cached_columns(log)
            try:
                return analyze_columns_numpy(
                    cols, long_window, short_window, burst_window
                )
            except VectorFallback:
                pass
        return reference_report(
            source.to_log() if log is None else log,
            long_window,
            short_window,
            burst_window,
        )

    if log is None:
        return build()
    key = ("onepass", long_window, short_window, burst_window, resolve_engine(engine))
    return memoize_per_log(log, key, build)
