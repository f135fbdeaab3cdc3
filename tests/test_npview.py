"""Tests for the zero-copy numpy views and the engine dispatch contract.

The vectorized engine's whole correctness story rests on two claims this
module pins down: the views really alias the column buffers (no copies,
native dtypes, writability inherited from the source — read-only over
``bytes`` and mmapped ``.bcorpus`` segments), and the
``auto``/``python``/``numpy`` dispatch resolves ``auto`` to numpy.
"""

import sys
from array import array

import numpy as np
import pytest

from repro.trace.columns import TraceColumns
from repro.trace.log import TraceLog
from repro.trace.npview import ENGINES, numpy_available, resolve_engine
from repro.trace.records import AccessMode, CloseEvent, OpenEvent


def _tiny_log() -> TraceLog:
    return TraceLog(
        name="tiny",
        events=[
            OpenEvent(time=1.0, open_id=1, file_id=10, user_id=3, size=4096,
                      mode=AccessMode.READ),
            CloseEvent(time=2.0, open_id=1, final_pos=4096),
        ],
    )


def _mutable_columns(log: TraceLog) -> TraceColumns:
    """A clone whose buffers allow item assignment (bytearray/array)."""
    cols = TraceColumns.from_log(log)
    return TraceColumns(
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


class TestEngineResolution:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("fortran")

    def test_python_always_resolves(self):
        assert resolve_engine("python") == "python"

    def test_auto_follows_availability(self):
        # numpy is required, so auto always lands on it.
        assert numpy_available()
        assert resolve_engine("auto") == "numpy"
        assert resolve_engine("numpy") == "numpy"

    def test_engine_names_are_the_cli_choices(self):
        assert ENGINES == ("auto", "python", "numpy")


class TestZeroCopyViews:
    def test_dtypes_endianness_and_alignment(self, small_trace):
        from repro.trace.npview import column_views

        v = column_views(TraceColumns.from_log(small_trace))
        assert v.times.dtype == np.dtype("=f8") and v.times.dtype.isnative
        for name in ("open_ids", "file_ids", "user_ids", "sizes", "positions"):
            col = getattr(v, name)
            assert col.dtype == np.dtype("=i8") and col.dtype.isnative
            assert col.itemsize == 8
        for name in ("kinds", "flags"):
            col = getattr(v, name)
            assert col.dtype == np.dtype("u1") and col.itemsize == 1
        for name in v.__slots__:
            col = getattr(v, name)
            assert col.flags["C_CONTIGUOUS"] and col.flags["ALIGNED"]
        assert len(v) == len(small_trace.events)

    def test_values_round_trip_exactly(self, small_trace):
        from repro.trace.npview import column_views

        cols = TraceColumns.from_log(small_trace)
        v = column_views(cols)
        assert v.times.tolist() == list(cols.times)
        assert v.open_ids.tolist() == list(cols.open_ids)
        assert v.file_ids.tolist() == list(cols.file_ids)
        assert v.sizes.tolist() == list(cols.sizes)
        assert v.positions.tolist() == list(cols.positions)
        assert v.kinds.tolist() == list(cols.kinds)
        assert v.flags.tolist() == list(cols.flags)

    def test_views_alias_mutable_buffers_both_ways(self):
        from repro.trace.npview import column_views

        cols = _mutable_columns(_tiny_log())
        v = column_views(cols)
        cols.times[0] = 123.5  # write through the array ...
        assert v.times[0] == 123.5  # ... is visible in the view
        v.sizes[1] = 777  # write through the view ...
        assert cols.sizes[1] == 777  # ... is visible in the array
        cols.kinds[0] = 9
        assert v.kinds[0] == 9

    def test_bytes_backed_views_are_read_only(self):
        from repro.trace.npview import column_views

        v = column_views(TraceColumns.from_log(_tiny_log()))
        assert not v.kinds.flags.writeable
        assert not v.flags.flags.writeable
        with pytest.raises(ValueError):
            v.kinds[0] = 1

    def test_empty_and_single_row_views(self):
        from repro.trace.npview import column_views

        assert len(column_views(TraceColumns())) == 0
        one = TraceLog(name="one", events=[_tiny_log().events[0]])
        v = column_views(TraceColumns.from_log(one))
        assert len(v) == 1 and v.times[0] == 1.0

    def test_mmap_segment_views_match_in_ram_and_are_read_only(
        self, small_trace, tmp_path
    ):
        from repro.corpus.reader import CorpusReader
        from repro.corpus.writer import pack_columns
        from repro.trace.npview import column_views

        cols = TraceColumns.from_log(small_trace)
        path = tmp_path / "t.bcorpus"
        pack_columns(cols, path, segment_events=max(1, len(cols) // 3))
        ram = column_views(cols)
        seen = 0
        with CorpusReader(path) as reader:
            for seg in reader.iter_segments():
                v = column_views(seg)
                n = len(v)
                assert np.array_equal(v.times, ram.times[seen:seen + n])
                assert np.array_equal(v.kinds, ram.kinds[seen:seen + n])
                assert np.array_equal(v.sizes, ram.sizes[seen:seen + n])
                if sys.byteorder == "little":
                    # ACCESS_READ mmap → the zero-copy views inherit
                    # read-only (big-endian hosts get byteswapped copies).
                    assert not v.times.flags.writeable
                seen += n
        assert seen == len(cols)


class TestVectorizedKernelEdges:
    """Empty and single-event traces through every vectorized kernel."""

    @pytest.mark.parametrize("n_events", [0, 1, 2])
    def test_tiny_traces_match_python(self, n_events):
        from repro.fuzz.engines import check_engines

        log = TraceLog(name="edge", events=_tiny_log().events[:n_events])
        assert check_engines(log, seed=f"edge:{n_events}") is None

    def test_empty_columns_through_each_kernel(self):
        from repro.analysis.onepass import analyze_onepass
        from repro.analysis.vectorized import (
            analyze_columns_numpy,
            pack_stream_numpy,
            validate_columns_numpy,
        )
        from repro.parallel.packed import pack_stream
        from repro.trace.validate import validate_columns

        empty = TraceColumns()
        assert analyze_columns_numpy(empty) == analyze_onepass(
            empty, engine="python"
        )
        assert validate_columns_numpy(empty) == validate_columns(
            empty, engine="python"
        )
        assert pack_stream_numpy([], 1024) == pack_stream(
            [], 1024, engine="python"
        )

    def test_fuzz_traces_match_python(self):
        import random

        from repro.fuzz.engines import check_engines
        from repro.fuzz.gen import random_trace

        for i in range(3):
            log = random_trace(random.Random(f"npview:{i}"), 80)
            assert check_engines(log, seed=f"npview:{i}") is None
