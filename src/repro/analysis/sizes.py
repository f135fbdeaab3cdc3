"""Dynamic file-size analysis (paper Figure 2).

"Dynamic" means per access, not per disk scan: a file opened ten times
counts ten times, so heavily reused small files dominate Figure 2(a) while
the handful of ~1 MB administrative files — rarely large transfers, but
frequent accesses — put the plateau in the curve's tail.  Figure 2(b)
re-weights by bytes actually transferred in each access, which is what
shows that long files carry most of the data.
"""

from __future__ import annotations

from ..trace.log import TraceLog
from .accesses import FileAccess, reconstruct_accesses
from .cdf import Cdf

__all__ = ["file_size_cdfs", "size_summary"]


def file_size_cdfs(
    log: TraceLog, accesses: list[FileAccess] | None = None
) -> tuple[Cdf, Cdf]:
    """Figure 2: CDFs of file size at close.

    Returns ``(by_accesses, by_bytes)``: the first weights each access
    equally (Figure 2a), the second weights each access by the bytes it
    transferred (Figure 2b).
    """
    if accesses is None:
        accesses = reconstruct_accesses(log)
    sizes = [float(a.size_at_close) for a in accesses]
    weights = [float(a.bytes_transferred) for a in accesses]
    by_accesses = Cdf.from_samples(sizes)
    by_bytes = Cdf.from_samples(sizes, weights=weights)
    return by_accesses, by_bytes


def size_summary(by_accesses: Cdf, by_bytes: Cdf) -> str:
    """A one-paragraph summary in the paper's terms."""
    f10k = by_accesses.fraction_at_or_below(10 * 1024) * 100
    b10k = by_bytes.fraction_at_or_below(10 * 1024) * 100
    return (
        f"{f10k:.0f}% of file accesses were to files of 10 Kbytes or less, "
        f"but those accesses carried only {b10k:.0f}% of all bytes transferred "
        f"(median file size at close: {by_accesses.median() / 1024:.1f} KB)"
    )
