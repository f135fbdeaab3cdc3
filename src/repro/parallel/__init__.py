"""Fast paths for parameter sweeps.

Three layers, composable but independent:

* :mod:`.packed` — compile a trace's item stream once per block size
  into flat arrays and replay them through a tight single-loop simulator
  (bit-identical metrics to the reference
  :class:`~repro.cache.simulator.BlockCacheSimulator`);
* :mod:`.veccache` — one-pass Mattson stack analysis (extended with
  deletion holes) in numpy, producing the whole cache-size curve in a
  single traversal, exact under write-through;
* :mod:`.executor` — fan independent (payload, job) pairs out to a
  process pool, payload shipped once, results in deterministic order,
  serial fallback when ``jobs=1`` or the pool dies.

The sweeps in :mod:`repro.cache.sweep` run every cell through these
fast paths at any ``jobs`` (which only picks in-process or pool); the
reference simulator stays the differential oracle the tests hold them
to.
"""

from .executor import auto_jobs, jobs_context, resolve_jobs, run_jobs
from .packed import (
    PackedRun,
    PackedStream,
    cached_packed_stream,
    pack_stream,
    simulate_packed,
)
from .veccache import StackCurve

__all__ = [
    "auto_jobs",
    "jobs_context",
    "resolve_jobs",
    "run_jobs",
    "PackedRun",
    "PackedStream",
    "cached_packed_stream",
    "pack_stream",
    "simulate_packed",
    "StackCurve",
]
