"""Differential tests for the vectorized cache engine and its plumbing.

:mod:`repro.parallel.veccache` claims bit-identity with the reference
:class:`~repro.cache.simulator.BlockCacheSimulator` run once per cache
size; the sweeps and the CLI swap the fast path in silently, so any
divergence would corrupt Figure 5/6/7 exhibits.  These tests pin that
equivalence where the kernel is most at risk — hole-heavy streams,
empty and single-block edges — and for the per-size replay that
``stack_curve`` falls back to, plus the ``.bpack`` on-disk format, the
zero-copy sweep fan-out (``pack_dir``/payload resolution), the
engine-keyed memo, and the ``--engine``/``--pack-cache`` CLI plumbing.
"""

from __future__ import annotations

import os
import random
from dataclasses import replace

import pytest

from repro.cache.policies import DELAYED_WRITE, FLUSH_30S, WRITE_THROUGH
from repro.cache.simulator import BlockCacheSimulator
from repro.cache.stream import (
    Invalidation,
    Transfer,
    build_stream,
    cached_stream,
)
from repro.cache.sweep import (
    block_size_sweep,
    cache_size_policy_sweep,
    count_block_accesses,
    paging_comparison,
)
from repro.cli.main import main
from repro.corpus import (
    CorpusReader,
    pack_trace,
    segment_pack_path,
    write_segment_packs,
)
from repro.fuzz.gen import random_trace
from repro.parallel.bpack import (
    BpackError,
    cached_bpack,
    read_bpack,
    write_bpack,
)
from repro.parallel.executor import resolve_payload
from repro.parallel.packed import cached_packed_stream, pack_stream
from repro.parallel.veccache import (
    replay_packed,
    simulate_packed_numpy,
    stack_curve,
    stack_curve_numpy,
)
from repro.trace.log import TraceLog
from repro.trace.npview import current_engine, engine_context
from repro.workload.generator import generate
from repro.workload.profiles import UCBARPA

SIZES = (4096, 8 * 4096, 64 * 4096)
KNOBS = (
    {},
    {"read_elision": False},
    {"invalidate_on_delete": False},
    {"read_elision": False, "invalidate_on_delete": False},
)


def _hole_heavy_stream():
    """Unlink/truncation-dominated: more invalidation rows than access
    rows, files deleted mid-flight and immediately recreated, truncation
    points walking through partially-cached files.  This maximizes hole
    traffic on the oracle stack — exactly where the vectorized
    removal-sequence reconstruction can go wrong."""
    items = []
    t = 0.0
    for i in range(160):
        fid = i % 5
        end = 4096 * (1 + (i * 7) % 9)
        items.append(
            Transfer(time=t, file_id=fid, user_id=1 + i % 2,
                     start=(i % 3) * 4096, end=end, is_write=i % 4 != 1)
        )
        t += 1.0
        # Two invalidations per access on average: a truncation to a
        # moving point, then every third round a full unlink.
        items.append(
            Invalidation(time=t, file_id=fid, from_byte=((i * 5) % 7) * 4096)
        )
        t += 0.25
        if i % 3 == 0:
            items.append(Invalidation(time=t, file_id=fid, from_byte=0))
            t += 0.25
        if i % 11 == 0:  # a file nobody cached, then its unlink
            items.append(
                Invalidation(time=t, file_id=100 + i, from_byte=0)
            )
            t += 0.25
    return items


def _assert_curves_identical(
    packed, items, sizes, curve_fn=stack_curve_numpy, **kwargs
):
    """*curve_fn*'s curve over *packed* (compiled from *items*) equals one
    :class:`BlockCacheSimulator` run per size on *items*, checkpoints
    included."""
    curve = curve_fn(packed, sizes, WRITE_THROUGH, **kwargs)
    checkpoint_time = kwargs.pop("checkpoint_time", None)
    for size in sizes:
        sim = BlockCacheSimulator(cache_bytes=size, block_size=packed.block_size,
                                  policy=WRITE_THROUGH, **kwargs)
        ref = sim.run(items, checkpoint_time=checkpoint_time)
        assert curve.metrics(size) == ref, f"size={size}"
        assert curve.checkpoint(size) == sim.checkpoint, f"size={size}"


def _python_curve(packed, sizes, policy, **kwargs):
    return stack_curve(packed, sizes, policy, engine="python", **kwargs)


# ---------------------------------------------------------------------------
# Hole-heavy and edge-case differentials
# ---------------------------------------------------------------------------


class TestHoleHeavyDifferential:
    @pytest.mark.parametrize("kwargs", KNOBS)
    def test_matches_oracle_across_knobs(self, kwargs):
        items = _hole_heavy_stream()
        _assert_curves_identical(pack_stream(items, 4096), items, SIZES, **kwargs)

    def test_matches_oracle_with_checkpoint(self):
        items = _hole_heavy_stream()
        packed = pack_stream(items, 4096)
        mid = packed.times[len(packed) // 2]
        _assert_curves_identical(packed, items, SIZES, checkpoint_time=mid)

    def test_random_traces_with_small_caches(self):
        # Tiny caches keep the stack boundaries inside the hole churn.
        sizes = tuple(c * 512 for c in (1, 2, 3, 7, 50))
        for seed in range(4):
            log = random_trace(random.Random(f"veccache:{seed}"), 300)
            items = build_stream(log)
            packed = pack_stream(items, 512, start_time=log.start_time)
            _assert_curves_identical(packed, items, sizes)


class TestEdgeCases:
    def test_empty_stream(self):
        packed = pack_stream([], 4096)
        _assert_curves_identical(packed, [], SIZES)
        run = simulate_packed_numpy(packed, 4096, WRITE_THROUGH)
        assert run.metrics.read_accesses == 0
        assert run.metrics.disk_reads == 0

    def test_invalidations_only(self):
        items = [
            Invalidation(time=float(i), file_id=i % 3, from_byte=0)
            for i in range(20)
        ]
        packed = pack_stream(items, 4096)
        assert packed.n_accesses == 0
        _assert_curves_identical(packed, items, SIZES)

    def test_single_block_single_access(self):
        items = [Transfer(time=0.0, file_id=1, user_id=1,
                          start=0, end=100, is_write=False)]
        packed = pack_stream(items, 4096)
        _assert_curves_identical(packed, items, (4096,))
        run = simulate_packed_numpy(packed, 4096, WRITE_THROUGH)
        assert run.metrics.disk_reads == 1

    def test_one_block_cache_thrash(self):
        # Alternating keys through a one-block cache: every access
        # misses and evicts; depth bookkeeping has no slack here.
        items = [
            Transfer(time=float(i), file_id=i % 2, user_id=1,
                     start=0, end=100, is_write=False)
            for i in range(30)
        ]
        packed = pack_stream(items, 4096)
        _assert_curves_identical(packed, items, (4096, 2 * 4096))


# ---------------------------------------------------------------------------
# The per-size replay behind stack_curve
# ---------------------------------------------------------------------------


def _wide_file_id_stream():
    """File ids at 2**32 and up: packable, but past the kernel's range."""
    base = 1 << 32
    items = [
        Transfer(time=float(i), file_id=base + i % 3, user_id=1,
                 start=(i % 2) * 4096, end=4096 * (1 + i % 4),
                 is_write=i % 3 == 0)
        for i in range(40)
    ]
    items.insert(20, Invalidation(time=19.5, file_id=base + 1, from_byte=4096))
    return items


class TestCurveFallback:
    def test_kernel_declines_wide_file_ids(self):
        from repro.analysis.vectorized import VectorFallback

        with pytest.raises(VectorFallback):
            stack_curve_numpy(pack_stream(_wide_file_id_stream(), 4096), SIZES)

    @pytest.mark.parametrize("kwargs", KNOBS)
    def test_declined_stream_matches_reference(self, kwargs):
        items = _wide_file_id_stream()
        packed = pack_stream(items, 4096)
        for checkpoint_time in (None, 10.0, packed.times[-1] + 1.0):
            _assert_curves_identical(
                packed, items, SIZES, curve_fn=stack_curve,
                checkpoint_time=checkpoint_time, **kwargs,
            )

    def test_python_engine_on_small_trace(self, small_trace):
        items = cached_stream(small_trace)
        packed = cached_packed_stream(small_trace, 4096)
        mid = small_trace.start_time + small_trace.duration / 2
        sizes = (4096, 64 * 1024, 390 * 1024, 390 * 1024 + 100, 4 << 20)
        _assert_curves_identical(
            packed, items, sizes, curve_fn=_python_curve, checkpoint_time=mid
        )

    @pytest.mark.parametrize("engine", ["python", "numpy"])
    @pytest.mark.parametrize(
        "sizes, policy, match",
        [
            ((), WRITE_THROUGH, "no cache sizes"),
            ((4096, 100), WRITE_THROUGH, "smaller than one block"),
            ((4096,), DELAYED_WRITE, "only under write-through"),
        ],
    )
    def test_same_errors_as_kernel(self, engine, sizes, policy, match):
        for items in (_hole_heavy_stream(), _wide_file_id_stream()):
            packed = pack_stream(items, 4096)
            with pytest.raises(ValueError, match=match):
                stack_curve(packed, sizes, policy, engine=engine)


# ---------------------------------------------------------------------------
# Dispatchers and the ambient engine
# ---------------------------------------------------------------------------


class TestDispatch:
    def test_python_engine_is_the_oracle(self):
        items = _hole_heavy_stream()
        _assert_curves_identical(
            pack_stream(items, 4096), items, SIZES, curve_fn=_python_curve
        )

    def test_auto_engine_matches_python(self):
        packed = pack_stream(_hole_heavy_stream(), 4096)
        for size in SIZES:
            assert (
                stack_curve(packed, SIZES, engine="auto").metrics(size)
                == stack_curve(packed, SIZES, engine="python").metrics(size)
            )

    def test_replay_stateful_policy_falls_back(self):
        from repro.cache.policies import DELAYED_WRITE
        from repro.parallel.packed import simulate_packed

        packed = pack_stream(_hole_heavy_stream(), 4096)
        ref = simulate_packed(packed, 8 * 4096, DELAYED_WRITE, flush_epoch=0.0)
        got = replay_packed(packed, 8 * 4096, DELAYED_WRITE, flush_epoch=0.0)
        assert got == ref

    def test_simulate_packed_numpy_rejects_stateful(self):
        from repro.analysis.vectorized import VectorFallback
        from repro.cache.policies import DELAYED_WRITE

        packed = pack_stream(_hole_heavy_stream(), 4096)
        with pytest.raises(VectorFallback):
            simulate_packed_numpy(packed, 8 * 4096, DELAYED_WRITE)

    def test_engine_context_is_ambient_and_restored(self):
        assert current_engine() == "auto"
        with engine_context("python"):
            assert current_engine() == "python"
            with engine_context("numpy"):
                assert current_engine() == "numpy"
            assert current_engine() == "python"
        assert current_engine() == "auto"

    def test_engine_context_rejects_unknown(self):
        with pytest.raises(ValueError):
            with engine_context("fortran"):
                pass


# ---------------------------------------------------------------------------
# Engine-keyed packed-stream memo
# ---------------------------------------------------------------------------


class TestEngineKeyedMemo:
    def test_same_engine_shares_one_entry(self, small_trace):
        a = cached_packed_stream(small_trace, 4096, engine="python")
        assert cached_packed_stream(small_trace, 4096, engine="python") is a

    def test_engines_never_collapse(self, small_trace):
        py = cached_packed_stream(small_trace, 4096, engine="python")
        fast = cached_packed_stream(small_trace, 4096, engine="numpy")
        assert fast is not py  # differential harness keeps two sides
        assert fast == py  # ... which are bit-identical by contract

    def test_auto_shares_the_resolved_entry(self, small_trace):
        fast = cached_packed_stream(small_trace, 4096, engine="numpy")
        assert cached_packed_stream(small_trace, 4096, engine="auto") is fast


# ---------------------------------------------------------------------------
# .bpack on-disk format
# ---------------------------------------------------------------------------


class TestBpack:
    @pytest.fixture()
    def packed(self):
        return pack_stream(_hole_heavy_stream(), 4096)

    def test_round_trip(self, tmp_path, packed):
        path = tmp_path / "s.bpack"
        write_bpack(packed, path)
        got = read_bpack(path)
        assert got == packed
        assert got.n_accesses == packed.n_accesses
        assert got.start_time == packed.start_time

    def test_round_trip_empty(self, tmp_path):
        path = tmp_path / "empty.bpack"
        empty = pack_stream([], 4096)
        write_bpack(empty, path)
        assert read_bpack(path) == empty

    def test_replay_from_disk_matches_memory(self, tmp_path, packed):
        path = tmp_path / "s.bpack"
        write_bpack(packed, path)
        disk = read_bpack(path)
        _assert_curves_identical(disk, _hole_heavy_stream(), SIZES)

    def test_truncated_file_rejected(self, tmp_path, packed):
        path = tmp_path / "s.bpack"
        write_bpack(packed, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(BpackError):
            read_bpack(path)

    def test_bad_magic_rejected(self, tmp_path, packed):
        path = tmp_path / "s.bpack"
        write_bpack(packed, path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(BpackError):
            read_bpack(path)

    def test_corrupt_body_fails_crc(self, tmp_path, packed):
        path = tmp_path / "s.bpack"
        write_bpack(packed, path)
        data = bytearray(path.read_bytes())
        data[60] ^= 0x01  # inside the keys column
        path.write_bytes(bytes(data))
        with pytest.raises(BpackError):
            read_bpack(path)

    def test_cached_bpack_identity_and_staleness(self, tmp_path, packed):
        path = tmp_path / "s.bpack"
        write_bpack(packed, path)
        a = cached_bpack(path)
        assert cached_bpack(path) is a
        smaller = pack_stream(_hole_heavy_stream()[:40], 4096)
        write_bpack(smaller, path)  # different size + mtime
        b = cached_bpack(path)
        assert b is not a
        assert b == smaller


# ---------------------------------------------------------------------------
# Corpus shards
# ---------------------------------------------------------------------------


class TestSegmentPacks:
    @pytest.fixture()
    def corpus(self, tmp_path):
        log = random_trace(random.Random("packs"), 400)
        dest = tmp_path / "t.bcorpus"
        pack_trace(log, dest, segment_events=64)
        return dest

    def test_one_shard_per_segment(self, corpus, tmp_path):
        paths = write_segment_packs(corpus, 4096, tmp_path / "packs")
        with CorpusReader(corpus) as reader:
            assert len(paths) == reader.segment_count
            cols = reader.segment(0)
            expected = segment_pack_path(tmp_path / "packs", cols.name, 0, 4096)
            log0 = cols.to_log()
        assert paths[0] == expected
        ref = pack_stream(
            build_stream(log0), 4096, start_time=log0.start_time
        )
        assert read_bpack(paths[0]) == ref

    def test_rerun_is_idempotent(self, corpus, tmp_path):
        out = tmp_path / "packs"
        paths = write_segment_packs(corpus, 4096, out)
        stamps = [os.stat(p).st_mtime_ns for p in paths]
        assert write_segment_packs(corpus, 4096, out) == paths
        assert [os.stat(p).st_mtime_ns for p in paths] == stamps
        rewritten = write_segment_packs(corpus, 4096, out, overwrite=True)
        assert rewritten == paths
        assert read_bpack(paths[0]) is not None


# ---------------------------------------------------------------------------
# Zero-copy sweep fan-out
# ---------------------------------------------------------------------------

SWEEP_SIZES = (64 * 1024, 394 * 1024)


def _reference(log, cache_bytes, policy, block_size=4096, paging=False):
    """One cell through :class:`BlockCacheSimulator`, anchored like a sweep."""
    sim = BlockCacheSimulator(cache_bytes=cache_bytes, block_size=block_size,
                              policy=policy)
    return sim.run(cached_stream(log, include_paging=paging),
                   flush_epoch=log.start_time)


class TestSweepFanout:
    @pytest.mark.parametrize("engine", ["python", "numpy"])
    def test_policy_sweep_parity(self, small_trace, tmp_path, engine):
        packed = cache_size_policy_sweep(
            small_trace, cache_sizes=SWEEP_SIZES, jobs=2,
            engine=engine, pack_dir=tmp_path,
        )
        for size in SWEEP_SIZES:
            for policy in packed.policies:
                assert packed.results[(size, policy.label)] == _reference(
                    small_trace, size, policy
                ), (size, policy.label)
        serial = cache_size_policy_sweep(
            small_trace, cache_sizes=SWEEP_SIZES, jobs=1
        )
        assert packed.results == serial.results
        assert any(p.endswith(".bpack") for p in os.listdir(tmp_path))

    def test_block_size_sweep_parity(self, small_trace, tmp_path):
        packed = block_size_sweep(
            small_trace, block_sizes=(1024, 4096),
            cache_sizes=SWEEP_SIZES, jobs=2, pack_dir=tmp_path,
        )
        stream = cached_stream(small_trace)
        for bs in (1024, 4096):
            assert packed.no_cache[bs] == count_block_accesses(stream, bs)
            for cache in SWEEP_SIZES:
                assert packed.results[(bs, cache)] == _reference(
                    small_trace, cache, DELAYED_WRITE, block_size=bs
                ), (bs, cache)
        serial = block_size_sweep(
            small_trace, block_sizes=(1024, 4096),
            cache_sizes=SWEEP_SIZES, jobs=1,
        )
        assert packed.results == serial.results
        assert packed.no_cache == serial.no_cache

    def test_paging_comparison_parity(self, small_trace, tmp_path):
        packed = paging_comparison(
            small_trace, cache_sizes=SWEEP_SIZES, jobs=2, pack_dir=tmp_path
        )
        for size in SWEEP_SIZES:
            assert packed.ignored[size] == _reference(
                small_trace, size, DELAYED_WRITE
            ), size
            assert packed.simulated[size] == _reference(
                small_trace, size, DELAYED_WRITE, paging=True
            ), size
        serial = paging_comparison(
            small_trace, cache_sizes=SWEEP_SIZES, jobs=1
        )
        assert packed.ignored == serial.ignored
        assert packed.simulated == serial.simulated

    def test_pack_dir_tells_retimed_traces_apart(self, tmp_path):
        # Same name and op/key sequence, every time doubled: only the
        # flush-back clock tells the two apart, so a pack cache keyed on
        # ops and keys alone would replay the second trace on the
        # first one's times.
        log = generate(UCBARPA, seed=3, duration=1800.0).trace
        slow = TraceLog(
            name=log.name,
            events=[replace(e, time=2 * e.time) for e in log.events],
        )
        key = (390 * 1024, FLUSH_30S.label)
        for trace in (log, slow):
            sweep = cache_size_policy_sweep(
                trace, cache_sizes=key[:1], policies=(FLUSH_30S,), jobs=2,
                pack_dir=tmp_path,
            )
            assert sweep.results[key] == _reference(trace, key[0], FLUSH_30S)
        assert len(os.listdir(tmp_path)) == 2

    def test_pack_dir_reused_across_runs(self, small_trace, tmp_path):
        cache_size_policy_sweep(
            small_trace, cache_sizes=SWEEP_SIZES[:1], jobs=2,
            pack_dir=tmp_path,
        )
        shards = sorted(tmp_path.iterdir())
        stamps = [s.stat().st_mtime_ns for s in shards]
        cache_size_policy_sweep(
            small_trace, cache_sizes=SWEEP_SIZES[:1], jobs=2,
            pack_dir=tmp_path,
        )
        assert sorted(tmp_path.iterdir()) == shards
        assert [s.stat().st_mtime_ns for s in shards] == stamps

    def test_resolve_payload_protocol(self):
        class Plain:
            pass

        plain = Plain()
        assert resolve_payload(plain) is plain
        assert resolve_payload(None) is None

        class Deferred:
            def __payload_resolve__(self):
                return {"resolved": True}

        assert resolve_payload(Deferred()) == {"resolved": True}


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("veccache_cli") / "a5.trace"
    rc = main(["generate", "--profile", "A5", "--hours", "0.2",
               "--seed", "3", "-o", str(path)])
    assert rc == 0
    return str(path)


class TestCLIEngine:
    def test_sweep_engine_and_pack_cache(self, trace_file, tmp_path, capsys):
        pack_dir = tmp_path / "packs"
        assert main(["sweep", trace_file, "--kind", "policy", "--jobs", "2",
                     "--engine", "python",
                     "--pack-cache", str(pack_dir)]) == 0
        assert "write-through" in capsys.readouterr().out
        assert any(
            name.endswith(".bpack") for name in os.listdir(pack_dir)
        )

    def test_sweep_numpy_engine_matches_python(self, trace_file, capsys):
        assert main(["sweep", trace_file, "--kind", "policy", "--jobs", "2",
                     "--engine", "numpy"]) == 0
        fast = capsys.readouterr().out
        assert main(["sweep", trace_file, "--kind", "policy", "--jobs", "2",
                     "--engine", "python"]) == 0
        assert capsys.readouterr().out == fast

    def test_experiment_engine_flag(self, trace_file, capsys):
        assert main(["experiment", trace_file, "--id", "table6",
                     "--jobs", "2", "--engine", "python"]) == 0

    def test_rejects_unknown_engine(self, trace_file):
        with pytest.raises(SystemExit):
            main(["sweep", trace_file, "--kind", "policy",
                  "--engine", "fortran"])
