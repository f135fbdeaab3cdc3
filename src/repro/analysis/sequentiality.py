"""Sequentiality analysis (paper Table V and Figure 1).

Classifies every access as whole-file (read or written sequentially from
beginning to end), sequential (whole-file, or one initial reposition
followed by a single uninterrupted transfer), or non-sequential, split by
access mode; and measures the lengths of sequential runs two ways — by
run count (Figure 1a) and by bytes carried (Figure 1b).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..trace.log import TraceLog
from ..trace.records import AccessMode
from .accesses import FileAccess, reconstruct_accesses
from .cdf import Cdf

__all__ = [
    "ModeCounts",
    "SequentialityReport",
    "analyze_sequentiality",
    "run_length_cdfs",
]


@dataclass
class ModeCounts:
    """Tallies for one access mode (read-only / write-only / read-write)."""

    accesses: int = 0
    whole_file: int = 0
    sequential: int = 0
    bytes_total: int = 0
    bytes_whole_file: int = 0
    bytes_sequential: int = 0

    def percent_whole(self) -> float:
        return 100.0 * self.whole_file / self.accesses if self.accesses else 0.0

    def percent_sequential(self) -> float:
        return 100.0 * self.sequential / self.accesses if self.accesses else 0.0


@dataclass
class SequentialityReport:
    """The Table V numbers."""

    trace_name: str
    read: ModeCounts = field(default_factory=ModeCounts)
    write: ModeCounts = field(default_factory=ModeCounts)
    read_write: ModeCounts = field(default_factory=ModeCounts)

    def mode(self, mode: AccessMode) -> ModeCounts:
        return {
            AccessMode.READ: self.read,
            AccessMode.WRITE: self.write,
            AccessMode.READ_WRITE: self.read_write,
        }[mode]

    @property
    def total_bytes(self) -> int:
        return self.read.bytes_total + self.write.bytes_total + self.read_write.bytes_total

    @property
    def bytes_whole_file(self) -> int:
        return (
            self.read.bytes_whole_file
            + self.write.bytes_whole_file
            + self.read_write.bytes_whole_file
        )

    @property
    def bytes_sequential(self) -> int:
        return (
            self.read.bytes_sequential
            + self.write.bytes_sequential
            + self.read_write.bytes_sequential
        )

    @property
    def percent_bytes_whole_file(self) -> float:
        return 100.0 * self.bytes_whole_file / self.total_bytes if self.total_bytes else 0.0

    @property
    def percent_bytes_sequential(self) -> float:
        return 100.0 * self.bytes_sequential / self.total_bytes if self.total_bytes else 0.0

    def render(self) -> str:
        mb = 1e6
        rows = [
            ("Whole-file read transfers", f"{self.read.whole_file:,}",
             f"({self.read.percent_whole():.0f}% of all read-only accesses)"),
            ("Whole-file write transfers", f"{self.write.whole_file:,}",
             f"({self.write.percent_whole():.0f}% of all write-only accesses)"),
            ("Data in whole-file transfers",
             f"{self.bytes_whole_file / mb:.1f} MB",
             f"({self.percent_bytes_whole_file:.0f}% of all bytes)"),
            ("Sequential read-only accesses", f"{self.read.sequential:,}",
             f"({self.read.percent_sequential():.0f}%)"),
            ("Sequential write-only accesses", f"{self.write.sequential:,}",
             f"({self.write.percent_sequential():.0f}%)"),
            ("Sequential read-write accesses", f"{self.read_write.sequential:,}",
             f"({self.read_write.percent_sequential():.0f}% of "
             f"{self.read_write.accesses:,} read-write accesses)"),
            ("Data transferred sequentially",
             f"{self.bytes_sequential / mb:.1f} MB",
             f"({self.percent_bytes_sequential:.0f}%)"),
        ]
        width = max(len(r[0]) for r in rows)
        lines = [f"Sequentiality for trace {self.trace_name} (Table V)"]
        lines += [f"  {r[0]:<{width}}  {r[1]:>12}  {r[2]}" for r in rows]
        return "\n".join(lines)


def analyze_sequentiality(
    log: TraceLog, accesses: list[FileAccess] | None = None
) -> SequentialityReport:
    """Compute Table V.  Pass pre-reconstructed *accesses* to avoid a
    second replay when several analyses run on one trace."""
    if accesses is None:
        accesses = reconstruct_accesses(log)
    report = SequentialityReport(trace_name=log.name)
    for access in accesses:
        counts = report.mode(access.mode)
        nbytes = access.bytes_transferred
        counts.accesses += 1
        counts.bytes_total += nbytes
        if access.whole_file:
            counts.whole_file += 1
            counts.bytes_whole_file += nbytes
        if access.sequential:
            counts.sequential += 1
            counts.bytes_sequential += nbytes
    return report


def run_length_cdfs(
    log: TraceLog, accesses: list[FileAccess] | None = None
) -> tuple[Cdf, Cdf]:
    """Figure 1: CDFs of sequential-run lengths.

    Returns ``(by_runs, by_bytes)``: the first weights every run equally
    (Figure 1a), the second weights each run by the bytes it carried
    (Figure 1b).  Zero-length runs cannot occur by construction.
    """
    if accesses is None:
        accesses = reconstruct_accesses(log)
    lengths = [run.length for access in accesses for run in access.runs]
    by_runs = Cdf.from_samples(lengths)
    by_bytes = Cdf.from_samples(lengths, weights=lengths)
    return by_runs, by_bytes
