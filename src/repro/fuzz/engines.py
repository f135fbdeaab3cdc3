"""Pillar 5: the vectorized engine vs the pure-Python reference.

Every numpy kernel in :mod:`repro.analysis.vectorized` claims
bit-identity with its pure-Python twin; this pillar is the machine check
of that claim on every seeded trace:

* :func:`~repro.analysis.onepass.analyze_onepass` with
  ``engine="numpy"`` vs ``engine="python"``, field for field including
  the users dict order — single-shot and chunk-fed (the corpus segment
  shape) at seed-chosen chunk sizes;
* :func:`~repro.trace.validate.validate_columns` on the clean trace
  *and* on a deterministically spoiled copy (mutations drawn from the
  round seed hit every problem family: time regressions, out-of-range
  and NaN times, unknown kinds, bad flag bytes, negative fields,
  duplicated open ids), at several ``max_problems`` including the
  suppression boundary;
* :func:`~repro.parallel.packed.pack_stream` with both engines, row for
  row, at two block sizes;
* the vectorized cache engine (:mod:`repro.parallel.veccache`) vs
  :func:`~repro.parallel.packed.simulate_packed` at each size: the full
  miss/hit/eviction curve at seed-chosen cache sizes (small ones
  included — they maximize hole traffic), exact
  :class:`~repro.cache.metrics.CacheMetrics` per size, checkpoint
  snapshots and both simulator knobs; plus the batched write-through
  replay at one seed-chosen capacity.
"""

from __future__ import annotations

import random
from array import array

from ..analysis.onepass import analyze_onepass
from ..cache.policies import WRITE_THROUGH
from ..cache.stream import build_stream
from ..parallel.packed import pack_stream, simulate_packed
from ..parallel.veccache import simulate_packed_numpy, stack_curve_numpy
from ..trace.columns import KIND_CLOSE, KIND_OPEN, KIND_SEEK, TraceColumns
from ..trace.log import TraceLog
from ..trace.validate import validate_columns

__all__ = ["check_engines", "check_engines_all"]

#: Every OnePassReport field with a == comparison (the lazy object
#: fields materialize on access, which is the point: the differential
#: must cover them too).
_REPORT_FIELDS = (
    "accesses",
    "transfers",
    "lifetimes",
    "activity",
    "sequentiality",
    "run_length_by_runs",
    "run_length_by_bytes",
    "open_times",
    "size_by_accesses",
    "size_by_bytes",
    "popularity",
    "users",
    "burstiness",
    "lifetime_by_files",
    "lifetime_by_bytes",
    "daemon_spike",
)

_PACK_BLOCK_SIZES = (4096, 100)


def _reports_differ(fast, ref, label: str) -> str | None:
    for name in _REPORT_FIELDS:
        if getattr(fast, name) != getattr(ref, name):
            return f"{label}: numpy engine disagrees on {name}"
    if list(fast.users) != list(ref.users):
        return f"{label}: numpy engine orders the users dict differently"
    return None


def _slice_columns(cols: TraceColumns, lo: int, hi: int) -> TraceColumns:
    return TraceColumns(
        name=cols.name,
        kinds=cols.kinds[lo:hi],
        times=cols.times[lo:hi],
        open_ids=cols.open_ids[lo:hi],
        file_ids=cols.file_ids[lo:hi],
        user_ids=cols.user_ids[lo:hi],
        sizes=cols.sizes[lo:hi],
        positions=cols.positions[lo:hi],
        flags=cols.flags[lo:hi],
    )


def _chunked_report(cols: TraceColumns, size: int):
    from ..analysis.vectorized import VectorizedCollector

    n = len(cols)
    start = cols.times[0] if n else 0.0
    duration = (cols.times[-1] - start) if n else 0.0
    collector = VectorizedCollector(cols.name, start, duration)
    for lo in range(0, n, size):
        collector.feed(_slice_columns(cols, lo, lo + size))
    return collector.finish()


def _spoiled_copy(cols: TraceColumns, rng: random.Random) -> TraceColumns:
    """A mutated clone covering every validator problem family."""
    out = TraceColumns(
        name=cols.name,
        kinds=bytearray(cols.kinds),
        times=array("d", cols.times),
        open_ids=array("q", cols.open_ids),
        file_ids=array("q", cols.file_ids),
        user_ids=array("q", cols.user_ids),
        sizes=array("q", cols.sizes),
        positions=array("q", cols.positions),
        flags=bytearray(cols.flags),
    )
    n = len(out)
    for _ in range(max(4, n // 4)):
        r = rng.randrange(n)
        choice = rng.randrange(12)
        if choice == 0:
            out.times[r] = -rng.random() * 10.0
        elif choice == 1:
            out.times[r] = 2.0**33
        elif choice == 2:
            out.times[r] = float("nan")
        elif choice == 3:
            out.kinds[r] = rng.randrange(100, 256)
        elif choice == 4:
            out.flags[r] = rng.randrange(1, 256)
        elif choice == 5:
            out.flags[r] = 0  # open rows: no mode bits
        elif choice == 6:
            out.sizes[r] = -rng.randrange(1, 100)
        elif choice == 7:
            out.positions[r] = -rng.randrange(1, 100)
        elif choice == 8:
            out.open_ids[r] = out.open_ids[rng.randrange(n)]
        elif choice == 9:
            out.kinds[r] = KIND_CLOSE
        elif choice == 10:
            out.kinds[r] = KIND_SEEK
        else:
            out.kinds[r] = KIND_OPEN
            out.positions[r] = out.sizes[r] + rng.randrange(1, 1000)
    for _ in range(max(2, n // 16)):
        r = rng.randrange(1, n) if n > 1 else 0
        out.times[r] = out.times[r - 1] - 1.0
    return out


def _validators_differ(cols: TraceColumns, max_problems: int, label: str) -> str | None:
    fast = validate_columns(cols, max_problems=max_problems, engine="numpy")
    ref = validate_columns(cols, max_problems=max_problems, engine="python")
    if fast != ref:
        return (
            f"{label}: numpy validator disagrees at "
            f"max_problems={max_problems} ({fast} vs {ref})"
        )
    return None


def check_engines(log: TraceLog, seed: str = "0") -> str | None:
    """Compare every vectorized kernel against its Python twin on *log*.

    Returns ``None`` or a first-divergence description.  Deterministic
    per ``(log, seed)``.
    """
    rng = random.Random(f"engines:{seed}")
    cols = TraceColumns.from_log(log)
    n = len(cols)

    # Analyzer: single shot, then chunk-fed like a segmented corpus.
    ref = analyze_onepass(cols, engine="python")
    detail = _reports_differ(analyze_onepass(cols, engine="numpy"), ref, "analyze")
    if detail is not None:
        return detail
    if n > 1:
        size = rng.randrange(1, n)
        detail = _reports_differ(
            _chunked_report(cols, size), ref, f"analyze[chunk={size}]"
        )
        if detail is not None:
            return detail

    # Validator: the clean trace, then a spoiled copy at several caps
    # (the spoiled run crosses the suppression boundary).
    detail = _validators_differ(cols, 50, "validate[clean]")
    if detail is not None:
        return detail
    if n:
        spoiled = _spoiled_copy(cols, rng)
        for max_problems in (1, 8, 50):
            detail = _validators_differ(
                spoiled, max_problems, "validate[spoiled]"
            )
            if detail is not None:
                return detail

    # Packed-stream compiler: row-for-row equality at two block sizes.
    stream = build_stream(log)
    for bs in _PACK_BLOCK_SIZES:
        fast = pack_stream(stream, bs, start_time=log.start_time, engine="numpy")
        ref_p = pack_stream(stream, bs, start_time=log.start_time, engine="python")
        if fast != ref_p:
            return f"pack_stream(block_size={bs}): numpy engine diverges"
        detail = _curves_differ(ref_p, rng, f"veccache[bs={bs}]")
        if detail is not None:
            return detail
    return None


def _curves_differ(packed, rng: random.Random, label: str) -> str | None:
    """The vectorized cache engine vs per-size packed replays."""
    from ..analysis.vectorized import VectorFallback

    bs = packed.block_size
    # Seed-chosen capacities, small ones first: a 1-2 block cache keeps
    # the stack boundary pointers inside the hole churn, which is where
    # the vectorized removal-sequence reconstruction can go wrong.
    caps = sorted({1, 2, rng.randrange(1, 64), rng.randrange(1, 2048)})
    sizes = tuple(c * bs for c in caps)
    knobs = {
        "read_elision": rng.random() < 0.5,
        "invalidate_on_delete": rng.random() < 0.5,
    }
    if rng.random() < 0.5 and len(packed.times):
        lo = packed.times[0]
        hi = packed.times[-1]
        knobs["checkpoint_time"] = lo + rng.random() * (hi - lo)
    try:
        fast = stack_curve_numpy(packed, sizes, WRITE_THROUGH, **knobs)
    except VectorFallback:
        # The kernel declined this input (out-of-range keys); dispatch
        # would rerun the oracle, so there is nothing to compare.
        return None
    for size in sizes:
        ref = simulate_packed(packed, size, WRITE_THROUGH, **knobs)
        if fast.metrics(size) != ref.metrics:
            return f"{label}: curve metrics diverge at {size} bytes"
        if fast.checkpoint(size) != ref.checkpoint:
            return f"{label}: curve checkpoint diverges at {size} bytes"
    cache_bytes = rng.choice(sizes)
    rep_ref = simulate_packed(
        packed,
        cache_bytes,
        WRITE_THROUGH,
        flush_epoch=packed.start_time,
        **knobs,
    )
    rep_fast = simulate_packed_numpy(
        packed,
        cache_bytes,
        WRITE_THROUGH,
        flush_epoch=packed.start_time,
        **knobs,
    )
    if rep_fast.metrics != rep_ref.metrics:
        return f"{label}: write-through replay diverges at {cache_bytes} bytes"
    if rep_fast.checkpoint != rep_ref.checkpoint:
        return f"{label}: write-through replay checkpoint diverges"
    return None


def check_engines_all(log: TraceLog, seed: str = "0") -> tuple[str, str] | None:
    """:func:`check_engines` in the runner's ``(pillar, detail)`` shape."""
    detail = check_engines(log, seed=seed)
    if detail is not None:
        return ("engine", detail)
    return None
