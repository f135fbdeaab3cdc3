"""Open-duration analysis (paper Figure 3).

"Programs tend to open files, read or write their contents, then close the
files again very quickly": about 75% of opens last under half a second and
90% under ten seconds.  The short durations are what make the no-read-write
tracing approach sound — the open and close events bound the transfer
times tightly.  The exceptions (editor temporaries held open for a whole
session) form the long tail.
"""

from __future__ import annotations

from ..trace.log import TraceLog
from .accesses import FileAccess, reconstruct_accesses
from .cdf import Cdf

__all__ = ["open_time_cdf", "open_time_summary"]


def open_time_cdf(
    log: TraceLog, accesses: list[FileAccess] | None = None
) -> Cdf:
    """Figure 3: CDF of how long files stayed open."""
    if accesses is None:
        accesses = reconstruct_accesses(log)
    return Cdf.from_samples(a.duration for a in accesses)


def open_time_summary(cdf: Cdf) -> str:
    half = cdf.fraction_at_or_below(0.5) * 100
    ten = cdf.fraction_at_or_below(10.0) * 100
    return (
        f"{half:.0f}% of all files were open less than 0.5 second and "
        f"{ten:.0f}% less than 10 seconds "
        f"(median {cdf.median():.3f}s)"
    )
