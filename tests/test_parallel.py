"""Differential tests for :mod:`repro.parallel`.

The packed fast path and the one-pass stack curve are only worth
having if they are *bit-identical* to the reference
:class:`~repro.cache.simulator.BlockCacheSimulator` — the sweeps swap
them in silently, so any divergence would corrupt exhibits.  These tests
pin that equivalence across policies, sizes, knobs, checkpoints and
flush anchoring, check every sweep cell against the reference at any
``jobs``, plus the executor's ordering/fallback contracts and the CLI's
``--jobs`` plumbing.
"""

from __future__ import annotations

import pytest

from repro.cache.policies import (
    DELAYED_WRITE,
    FLUSH_5MIN,
    FLUSH_30S,
    WRITE_THROUGH,
)
from repro.cache.simulator import BlockCacheSimulator
from repro.cache.stream import Invalidation, Transfer, build_stream, cached_stream
from repro.cache.sweep import (
    PAPER_CACHE_SIZES,
    block_size_sweep,
    cache_size_policy_sweep,
    count_block_accesses,
    paging_comparison,
    simulate_cache,
)
from repro.cli.main import main
from repro.experiments import run_one
from repro.parallel import executor as executor_module
from repro.parallel.executor import (
    auto_jobs,
    jobs_context,
    resolve_jobs,
    run_jobs,
)
from repro.parallel.packed import (
    cached_packed_stream,
    pack_stream,
    simulate_packed,
)
from repro.parallel.veccache import stack_curve
from repro.trace.records import UnlinkEvent

ALL_POLICIES = (WRITE_THROUGH, FLUSH_30S, FLUSH_5MIN, DELAYED_WRITE)
SIZES = (64 * 1024, 390 * 1024, 4 * 1024 * 1024)


@pytest.fixture(scope="module")
def stream(small_trace):
    return build_stream(small_trace)


@pytest.fixture(scope="module")
def packed(small_trace, stream):
    return pack_stream(stream, 4096, start_time=small_trace.start_time)


def _invalidation_heavy_stream():
    """A hand-built stream that churns files: overlapping writes, reads,
    truncations to varying points and full unlinks, so invalidations hit
    dirty blocks, clean blocks and absent blocks alike."""
    items = []
    t = 0.0
    for i in range(120):
        fid = i % 7
        end = 4096 * (1 + (i * 3) % 6)
        items.append(
            Transfer(time=t, file_id=fid, user_id=1 + i % 3,
                     start=(i % 2) * 4096, end=end, is_write=i % 3 != 2)
        )
        t += 1.0
        if i % 4 == 0:
            items.append(
                Invalidation(time=t, file_id=fid, from_byte=(i % 3) * 4096)
            )
            t += 0.5
    return items


# ---------------------------------------------------------------------------
# Packed stream construction and memoization
# ---------------------------------------------------------------------------


class TestPackedStream:
    def test_access_count_matches_reference(self, stream, packed):
        assert packed.n_accesses == count_block_accesses(stream, 4096)
        assert len(packed) >= packed.n_accesses  # invalidation rows extra

    def test_memoized_per_log_and_block_size(self, small_trace):
        a = cached_packed_stream(small_trace, 4096)
        assert cached_packed_stream(small_trace, 4096) is a
        assert cached_packed_stream(small_trace, 1024) is not a
        assert cached_packed_stream(small_trace, 4096, include_paging=True) is not a

    def test_cached_stream_identity(self, small_trace):
        assert cached_stream(small_trace) is cached_stream(small_trace)

    def test_append_invalidates_memo(self, small_trace, stream):
        import copy

        log = copy.deepcopy(small_trace)
        before = cached_packed_stream(log, 4096)
        assert cached_packed_stream(log, 4096) is before
        log.append(UnlinkEvent(time=log.events[-1].time + 1.0, file_id=1))
        after = cached_packed_stream(log, 4096)
        assert after is not before
        assert len(after) >= len(before)

    def test_in_place_replacement_invalidates_memo(self, small_trace):
        # Same length, same list object — only one element swapped for a
        # different event.  The stamp's id-sum term must catch this.
        import copy
        import dataclasses

        log = copy.deepcopy(small_trace)
        before = cached_stream(log)
        original = log.events[-1]  # keep alive so ids cannot collide
        log.events[-1] = dataclasses.replace(original)
        assert log.events[-1] is not original
        after = cached_stream(log)
        assert after is not before


# ---------------------------------------------------------------------------
# simulate_packed vs the reference simulator
# ---------------------------------------------------------------------------


class TestPackedEquivalence:
    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.label)
    @pytest.mark.parametrize("size", SIZES)
    def test_metrics_identical(self, small_trace, stream, packed, policy, size):
        sim = BlockCacheSimulator(cache_bytes=size, policy=policy)
        ref = sim.run(stream, flush_epoch=small_trace.start_time)
        got = simulate_packed(
            packed, size, policy, flush_epoch=packed.start_time
        )
        assert got.metrics == ref

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.label)
    def test_checkpoint_and_warm_delta(self, small_trace, stream, packed, policy):
        cp = small_trace.start_time + small_trace.duration / 2
        sim = BlockCacheSimulator(cache_bytes=390 * 1024, policy=policy)
        ref = sim.run(stream, checkpoint_time=cp,
                      flush_epoch=small_trace.start_time)
        got = simulate_packed(packed, 390 * 1024, policy,
                              checkpoint_time=cp,
                              flush_epoch=packed.start_time)
        assert got.metrics == ref
        assert got.checkpoint == sim.checkpoint
        # The warm (post-checkpoint) delta is what Figure 5 plots.
        assert (got.metrics.disk_reads - got.checkpoint.disk_reads
                == ref.disk_reads - sim.checkpoint.disk_reads)

    @pytest.mark.parametrize("kwargs", [
        dict(read_elision=False),
        dict(invalidate_on_delete=False),
        dict(replacement="fifo"),
        dict(read_elision=False, invalidate_on_delete=False,
             replacement="fifo"),
    ])
    def test_knobs_identical(self, stream, packed, kwargs):
        sim = BlockCacheSimulator(cache_bytes=128 * 1024,
                                  policy=DELAYED_WRITE, **kwargs)
        ref = sim.run(stream)
        got = simulate_packed(packed, 128 * 1024, DELAYED_WRITE, **kwargs)
        assert got.metrics == ref

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.label)
    def test_invalidation_heavy(self, policy):
        items = _invalidation_heavy_stream()
        packed = pack_stream(items, 4096)
        for size in (16 * 1024, 64 * 1024):
            sim = BlockCacheSimulator(cache_bytes=size, policy=policy)
            ref = sim.run(items)
            got = simulate_packed(packed, size, policy)
            assert got.metrics == ref
            assert got.metrics.invalidated_blocks > 0

    def test_flush_epoch_anchoring(self):
        # One dirty block at t=17, another at t=40, flush every 30 s.
        items = [
            Transfer(time=17.0, file_id=1, user_id=1, start=0, end=4096,
                     is_write=True),
            Transfer(time=40.0, file_id=2, user_id=1, start=0, end=4096,
                     is_write=True),
        ]
        packed = pack_stream(items, 4096, start_time=0.0)
        # Anchored to the trace start: a flush fires at t=30 and writes
        # the first block back.
        anchored = simulate_packed(packed, 1 << 20, FLUSH_30S, flush_epoch=0.0)
        assert anchored.metrics.disk_writes == 1
        # Legacy anchoring (first item time): first flush due at t=47,
        # after the trace ends, so nothing is written back.
        legacy = simulate_packed(packed, 1 << 20, FLUSH_30S)
        assert legacy.metrics.disk_writes == 0
        # Each matches the reference simulator under the same anchoring.
        for epoch, expected in ((0.0, anchored), (None, legacy)):
            sim = BlockCacheSimulator(cache_bytes=1 << 20, policy=FLUSH_30S)
            assert sim.run(items, flush_epoch=epoch) == expected.metrics


# ---------------------------------------------------------------------------
# The one-pass stack curve
# ---------------------------------------------------------------------------


class TestStackCurve:
    def test_matches_reference_across_paper_sizes(self, stream, packed):
        curve = stack_curve(packed, PAPER_CACHE_SIZES)
        for size in PAPER_CACHE_SIZES:
            sim = BlockCacheSimulator(cache_bytes=size, policy=WRITE_THROUGH)
            assert curve.metrics(size) == sim.run(stream)

    def test_checkpoints_match(self, small_trace, stream, packed):
        cp = small_trace.start_time + small_trace.duration / 2
        curve = stack_curve(packed, PAPER_CACHE_SIZES, checkpoint_time=cp)
        for size in (PAPER_CACHE_SIZES[0], PAPER_CACHE_SIZES[-1]):
            sim = BlockCacheSimulator(cache_bytes=size, policy=WRITE_THROUGH)
            ref = sim.run(stream, checkpoint_time=cp)
            assert curve.metrics(size) == ref
            assert curve.checkpoint(size) == sim.checkpoint

    def test_invalidation_heavy(self):
        items = _invalidation_heavy_stream()
        packed = pack_stream(items, 4096)
        sizes = (8 * 1024, 16 * 1024, 64 * 1024, 1 << 20)
        curve = stack_curve(packed, sizes)
        for size in sizes:
            sim = BlockCacheSimulator(cache_bytes=size, policy=WRITE_THROUGH)
            assert curve.metrics(size) == sim.run(items)

    def test_no_read_elision(self, stream, packed):
        curve = stack_curve(packed, (390 * 1024,), read_elision=False)
        sim = BlockCacheSimulator(cache_bytes=390 * 1024,
                                  policy=WRITE_THROUGH, read_elision=False)
        assert curve.metrics(390 * 1024) == sim.run(stream)

    def test_rejects_stateful_write_policies(self, packed):
        for policy in (FLUSH_30S, FLUSH_5MIN, DELAYED_WRITE):
            with pytest.raises(ValueError):
                stack_curve(packed, (64 * 1024,), policy=policy)

    def test_unknown_size_rejected(self, packed):
        curve = stack_curve(packed, (64 * 1024,))
        with pytest.raises(KeyError):
            curve.metrics(999)


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


def _scale(payload, job):
    return payload * job


def _boom(payload, job):
    raise RuntimeError("worker bug")


class TestExecutor:
    def test_serial_and_parallel_agree_in_order(self):
        jobs_list = list(range(20))
        serial = run_jobs(_scale, jobs_list, payload=3, jobs=1)
        parallel = run_jobs(_scale, jobs_list, payload=3, jobs=2)
        assert serial == parallel == [3 * j for j in jobs_list]

    def test_single_job_stays_serial(self):
        assert run_jobs(_scale, [5], payload=2, jobs=8) == [10]

    def test_resolve_jobs_validation(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)
        assert resolve_jobs(None) == 1  # serial without an ambient context

    def test_jobs_context_is_ambient_and_restored(self):
        with jobs_context(3):
            assert resolve_jobs(None) == 3
            with jobs_context(1):
                assert resolve_jobs(None) == 1
            assert resolve_jobs(None) == 3
        assert resolve_jobs(None) == 1

    def test_auto_jobs_bounds(self):
        assert 1 <= auto_jobs() <= executor_module.MAX_JOBS

    def test_dead_pool_falls_back_to_serial(self, monkeypatch):
        class DeadPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no processes for you")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", DeadPool)
        jobs_list = list(range(6))
        assert run_jobs(_scale, jobs_list, payload=2, jobs=4) == [
            2 * j for j in jobs_list
        ]

    def test_worker_bug_reraises_serially(self):
        with pytest.raises(RuntimeError, match="worker bug"):
            run_jobs(_boom, [1, 2], payload=None, jobs=2)

    def test_payload_global_cleared(self):
        run_jobs(_scale, list(range(4)), payload=7, jobs=2)
        assert executor_module._payload is None


# ---------------------------------------------------------------------------
# Sweeps: every cell == the reference simulator, at any jobs
# ---------------------------------------------------------------------------


def _reference(log, cache_bytes, policy, block_size=4096, paging=False):
    """One cell through :class:`BlockCacheSimulator`, anchored like a sweep."""
    sim = BlockCacheSimulator(cache_bytes=cache_bytes, block_size=block_size,
                              policy=policy)
    return sim.run(cached_stream(log, include_paging=paging),
                   flush_epoch=log.start_time)


class TestSweepParity:
    def test_policy_sweep(self, small_trace):
        serial = cache_size_policy_sweep(small_trace, jobs=1)
        for size in serial.cache_sizes:
            for policy in serial.policies:
                assert serial.results[(size, policy.label)] == _reference(
                    small_trace, size, policy
                ), (size, policy.label)
        parallel = cache_size_policy_sweep(small_trace, jobs=2)
        assert serial.results == parallel.results

    def test_block_size_sweep(self, small_trace):
        serial = block_size_sweep(small_trace, jobs=1)
        stream = cached_stream(small_trace)
        for bs in serial.block_sizes:
            assert serial.no_cache[bs] == count_block_accesses(stream, bs)
            for cache in serial.cache_sizes:
                assert serial.results[(bs, cache)] == _reference(
                    small_trace, cache, DELAYED_WRITE, block_size=bs
                ), (bs, cache)
        parallel = block_size_sweep(small_trace, jobs=2)
        assert serial.results == parallel.results
        assert serial.no_cache == parallel.no_cache

    def test_paging_comparison(self, small_trace):
        serial = paging_comparison(small_trace, jobs=1)
        for size in serial.cache_sizes:
            assert serial.ignored[size] == _reference(
                small_trace, size, DELAYED_WRITE
            ), size
            assert serial.simulated[size] == _reference(
                small_trace, size, DELAYED_WRITE, paging=True
            ), size
        parallel = paging_comparison(small_trace, jobs=2)
        assert serial.ignored == parallel.ignored
        assert serial.simulated == parallel.simulated


class TestOneSweepPath:
    """``jobs`` picks where sweep work runs, never which algorithm: at
    ``jobs=1`` too, no sweep cell touches the reference simulator."""

    @pytest.mark.parametrize("replacement", ["lru", "fifo", "arc"])
    def test_no_cell_runs_the_reference(self, small_trace, monkeypatch,
                                        replacement):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a sweep cell ran BlockCacheSimulator")

        monkeypatch.setattr(BlockCacheSimulator, "__init__", refuse)
        monkeypatch.setattr(BlockCacheSimulator, "run", refuse)
        kwargs = dict(jobs=1, replacement=replacement)
        assert cache_size_policy_sweep(small_trace, **kwargs).results
        assert block_size_sweep(small_trace, **kwargs).results
        assert paging_comparison(small_trace, **kwargs).simulated
        for policy in ALL_POLICIES:
            simulate_cache(small_trace, 390 * 1024, policy=policy,
                           replacement=replacement)
        assert run_one("table6rev", small_trace, jobs=1).data


# ---------------------------------------------------------------------------
# CLI --jobs plumbing
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("parallel_cli") / "a5.trace"
    rc = main(["generate", "--profile", "A5", "--hours", "0.2",
               "--seed", "3", "-o", str(path)])
    assert rc == 0
    return str(path)


class TestCLIJobs:
    def test_sweep_serial_jobs_flag(self, trace_file, capsys):
        assert main(["sweep", trace_file, "--kind", "policy",
                     "--jobs", "1"]) == 0
        assert "write-through" in capsys.readouterr().out

    def test_sweep_parallel_jobs_flag(self, trace_file, capsys):
        assert main(["sweep", trace_file, "--kind", "policy",
                     "--jobs", "2"]) == 0
        assert "write-through" in capsys.readouterr().out

    def test_experiment_jobs_flag(self, trace_file, capsys):
        assert main(["experiment", trace_file, "--id", "table6",
                     "--jobs", "1"]) == 0

    def test_rejects_nonpositive_jobs(self, trace_file, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", trace_file, "--kind", "policy", "--jobs", "0"])
