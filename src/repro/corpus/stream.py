"""Streaming analysis and validation over a corpus, segment by segment.

:func:`analyze_corpus` feeds each segment to the numpy analyzer
(:class:`~repro.analysis.vectorized.VectorizedCollector`) and
:func:`validate_corpus` to the validator's state machines, so their
results are **bit-identical** to loading the whole corpus into one
``TraceColumns`` and running ``analyze_onepass`` / ``validate_columns``
on it, while peak memory stays O(segment) plus O(live analysis state).
The whole-trace facts the analyzer needs up front (start time and
duration, which size the burstiness windows) come from the footer
index, not from event data.  The analyzer's reference (at
``engine="python"`` or on ``VectorFallback``) loads the whole corpus.
"""

from __future__ import annotations

import os
from typing import Union

from ..analysis.onepass import OnePassReport, reference_report
from ..trace.npview import resolve_engine
from ..trace.validate import (
    DEFAULT_MAX_PROBLEMS,
    ValidationReport,
    _OpenTracker,
    validate_columns_into,
)
from .reader import CorpusReader

__all__ = ["analyze_corpus", "validate_corpus"]

_ReaderOrPath = Union[CorpusReader, str, os.PathLike]


def _open(src: _ReaderOrPath) -> tuple[CorpusReader, bool]:
    if isinstance(src, CorpusReader):
        return src, False
    return CorpusReader(src), True


def analyze_corpus(
    src: _ReaderOrPath,
    long_window: float = 600.0,
    short_window: float = 10.0,
    burst_window: float = 10.0,
    engine: str = "auto",
) -> OnePassReport:
    """Run the full reference-pattern analysis over a corpus.

    *src* is a :class:`CorpusReader` (left open) or a path (opened and
    closed here).  The report is bit-identical to
    ``analyze_onepass(reader.to_columns())`` — checked continuously by
    the fuzz harness's corpus pillar.  The numpy engine views each
    segment's columns zero-copy (straight into the mmap) and keeps only
    O(segment) plus the live analysis state in memory.  At
    ``engine="python"``, or when the engine declines the input, the
    reference runs instead on the **whole corpus loaded into memory**
    (``reader.to_columns()``): that path is not bounded-memory.
    """
    reader, own = _open(src)
    try:
        if resolve_engine(engine) == "numpy":
            from ..analysis.vectorized import VectorFallback, VectorizedCollector

            try:
                collector = VectorizedCollector(
                    reader,
                    long_window=long_window,
                    short_window=short_window,
                    burst_window=burst_window,
                )
                for cols in reader.iter_segments():
                    collector.feed(cols)
                return collector.finish()
            except VectorFallback:
                pass  # segments re-iterate cleanly; rerun the reference
        return reference_report(
            reader.to_columns().to_log(), long_window, short_window, burst_window
        )
    finally:
        if own:
            reader.close()


def validate_corpus(
    src: _ReaderOrPath,
    max_problems: int = DEFAULT_MAX_PROBLEMS,
    engine: str = "auto",
) -> ValidationReport:
    """Check every tracer invariant across a corpus, segment by segment.

    Problem messages carry global event indices (the tracker state and
    the index base persist across segment boundaries), so the report
    matches ``validate_columns(reader.to_columns())`` exactly.  *engine*
    picks the implementation; both produce identical reports.
    """
    reader, own = _open(src)
    try:
        if resolve_engine(engine) == "numpy":
            from ..analysis.vectorized import VectorizedValidator

            validator = VectorizedValidator(
                len(reader), max_problems=max_problems
            )
            base = 0
            for cols in reader.iter_segments():
                validator.feed(cols, base)
                base += len(cols.kinds)
            return validator.finish()
        report = ValidationReport(
            event_count=len(reader), max_problems=max_problems
        )
        tracker = _OpenTracker(report)
        base = 0
        for cols in reader.iter_segments():
            validate_columns_into(cols, tracker, base)
            base += len(cols.kinds)
        return tracker.finish()
    finally:
        if own:
            reader.close()
