"""Per-user breakdowns.

The paper reports per-user numbers in aggregate (Table IV's throughput
per active user); a trace toolkit also wants the per-user detail — who
did how much, with what access mix — both to sanity-check a synthetic
workload (every simulated user should look like a plausible person) and
to slice real converted traces by process.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..trace.log import TraceLog
from ..trace.records import ExecEvent, OpenEvent
from .accesses import FileAccess, reconstruct_accesses
from .report import format_bytes, render_table

__all__ = [
    "UserSummary",
    "per_user_summary",
    "render_user_table",
]


@dataclass
class UserSummary:
    """One user's footprint in a trace."""

    user_id: int
    opens: int = 0
    execs: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    files_touched: set[int] = field(default_factory=set)
    first_event: float = float("inf")
    last_event: float = 0.0

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def span(self) -> float:
        """Seconds between the user's first and last event."""
        if self.last_event < self.first_event:
            return 0.0
        return self.last_event - self.first_event


def per_user_summary(
    log: TraceLog, accesses: list[FileAccess] | None = None
) -> dict[int, UserSummary]:
    """Summarize every user's activity."""
    if accesses is None:
        accesses = reconstruct_accesses(log)
    users: dict[int, UserSummary] = {}

    def summary(uid: int) -> UserSummary:
        user = users.get(uid)
        if user is None:
            user = users[uid] = UserSummary(user_id=uid)
        return user

    for event in log.events:
        if isinstance(event, OpenEvent):
            user = summary(event.user_id)
            user.opens += 1
        elif isinstance(event, ExecEvent):
            user = summary(event.user_id)
            user.execs += 1
        else:
            continue
        user.first_event = min(user.first_event, event.time)
        user.last_event = max(user.last_event, event.time)

    for access in accesses:
        user = summary(access.user_id)
        user.files_touched.add(access.file_id)
        nbytes = access.bytes_transferred
        if access.mode.writable:
            user.bytes_written += nbytes
        else:
            user.bytes_read += nbytes
        user.last_event = max(user.last_event, access.close_time)

    return users


def render_user_table(users: dict[int, UserSummary], top: int = 15) -> str:
    """The *top* users by bytes moved, as a text table."""
    ranked = sorted(users.values(), key=lambda u: u.bytes_total, reverse=True)
    rows = [
        (
            f"u{user.user_id}",
            f"{user.opens:,}",
            f"{user.execs:,}",
            f"{len(user.files_touched):,}",
            format_bytes(user.bytes_read),
            format_bytes(user.bytes_written),
            f"{user.span / 3600:.1f} h",
        )
        for user in ranked[:top]
    ]
    return render_table(
        ("user", "opens", "execs", "files", "read", "written", "active span"),
        rows,
        title=f"Top {min(top, len(ranked))} of {len(ranked)} users by bytes moved",
    )
