"""Burstiness analysis.

"Our final conclusion is that ... file system activity is bursty"
(Section 8), and Section 4 notes that "during the peak hours of the day,
about 2-3 files were opened per second".  This module quantifies both:
the open-rate profile over time windows (mean, peak, peak-to-mean ratio)
and the per-user byte-rate extremes the paper quotes in Section 5.1
("rates as high as 10 kbytes/sec recorded for some users in some
intervals").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..trace.log import TraceLog
from ..trace.records import OpenEvent
from .accesses import iter_transfers

__all__ = ["BurstinessReport", "analyze_burstiness", "assemble_burstiness"]


@dataclass
class BurstinessReport:
    """Open-rate and per-user-rate burstiness numbers."""

    window: float
    mean_open_rate: float  # opens/second averaged over the trace
    peak_open_rate: float  # hottest window
    peak_to_mean: float
    idle_window_fraction: float  # windows with no activity at all
    max_user_rate: float  # hottest (user, window) byte rate, bytes/sec

    def render(self) -> str:
        return "\n".join(
            [
                f"Burstiness over {self.window:.0f}-second windows:",
                f"  mean open rate: {self.mean_open_rate:.2f}/s; "
                f"peak {self.peak_open_rate:.2f}/s "
                f"({self.peak_to_mean:.1f}x the mean)",
                f"  {100 * self.idle_window_fraction:.0f}% of windows were "
                f"completely idle",
                f"  hottest single user hit {self.max_user_rate / 1000:.1f} "
                f"KB/s in one window",
            ]
        )


def analyze_burstiness(log: TraceLog, window: float = 10.0) -> BurstinessReport:
    """Window the trace and measure rate extremes."""
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    duration = max(log.duration, window)
    start = log.start_time
    n = max(1, math.ceil(duration / window))

    def slot(t: float) -> int:
        return min(n - 1, int((t - start) / window))

    opens = [0] * n
    busy = [False] * n
    for event in log.events:
        i = slot(event.time)
        busy[i] = True
        if isinstance(event, OpenEvent):
            opens[i] += 1

    user_bytes: dict[tuple[int, int], int] = {}
    for transfer in iter_transfers(log):
        key = (slot(transfer.time), transfer.user_id)
        user_bytes[key] = user_bytes.get(key, 0) + transfer.length

    return assemble_burstiness(window, duration, opens, busy, user_bytes)


def assemble_burstiness(
    window: float,
    duration: float,
    opens: list[int],
    busy: list[bool],
    user_bytes: dict[tuple[int, int], int],
) -> BurstinessReport:
    """Assemble the report from pre-windowed tallies (shared with the
    numpy analyzer, which fills the windows with whole-column counts)."""
    total_opens = sum(opens)
    mean_rate = total_opens / duration if duration else 0.0
    peak_rate = max(opens) / window if opens else 0.0
    max_user = max(user_bytes.values(), default=0) / window
    return BurstinessReport(
        window=window,
        mean_open_rate=mean_rate,
        peak_open_rate=peak_rate,
        peak_to_mean=peak_rate / mean_rate if mean_rate else 0.0,
        idle_window_fraction=busy.count(False) / len(busy),
        max_user_rate=max_user,
    )
