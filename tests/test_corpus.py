"""Tests for repro.corpus — the out-of-core sharded trace container.

Coverage map:

* format: schema digest registration, stat record round trip, padding;
* writer/reader: bit-exact round trips across segment-boundary sizes,
  unicode metadata, empty corpora, zero-copy views, verification;
* diagnostics: every corruption is a :class:`CorpusError` naming a byte
  offset — never a bare ``struct.error`` / ``IndexError``;
* streaming: ``analyze_corpus`` / ``validate_corpus`` field-identical to
  the in-RAM references, on both engines and on every input the numpy
  analyzer declines;
* parallel: ``map_segments`` deterministic across job counts;
* spool: the ``TraceSpool``-shaped sink contract;
* CLI: ``corpus pack/info/verify`` plus ``validate``/``analyze`` on
  ``.bcorpus`` inputs.
"""

from __future__ import annotations

import io
import random
import struct
import zlib

import pytest

from repro.analysis.onepass import analyze_onepass, reference_report
from repro.analysis.vectorized import VectorFallback, VectorizedCollector
from repro.cli.main import main
from repro.corpus import (
    CorpusError,
    CorpusReader,
    CorpusSpool,
    CorpusWriter,
    FORMAT_VERSION,
    SCHEMA_DIGESTS,
    map_segments,
    pack_columns,
    pack_trace,
    read_corpus_columns,
    schema_digest,
    segment_kind_counts,
    validate_corpus,
    verify_segment_job,
)
from repro.corpus.format import (
    BYTES_PER_EVENT,
    COLUMN_LAYOUT,
    SEGMENT_REC,
    SegmentStat,
    TRAILER,
    pad_to_8,
)
from repro.corpus.stream import analyze_corpus
from repro.fuzz.gen import random_trace
from repro.trace.columns import KIND_OPEN, TraceColumns
from repro.trace.io_binary import write_binary
from repro.trace.log import TraceLog
from repro.trace.records import CloseEvent, UnlinkEvent
from repro.trace.validate import validate_columns

from .conftest import assert_same_report

SEG = 8  # tiny segments so small traces span many of them


def fuzz_log(seed: str, n: int = 100) -> TraceLog:
    return random_trace(random.Random(f"corpus-test:{seed}"), n)


def pack_bytes(log: TraceLog, segment_events: int = SEG) -> bytes:
    buf = io.BytesIO()
    pack_columns(TraceColumns.from_log(log), buf, segment_events=segment_events)
    return buf.getvalue()


# -- format -----------------------------------------------------------------


class TestFormat:
    def test_registered_digest_matches_source(self):
        assert SCHEMA_DIGESTS[FORMAT_VERSION] == schema_digest()

    def test_magics_carry_the_version(self):
        from repro.corpus.format import END_MAGIC, FOOTER_MAGIC, MAGIC

        for magic in (MAGIC, FOOTER_MAGIC, END_MAGIC):
            assert len(magic) == 8
            assert magic[-1] == FORMAT_VERSION

    def test_bytes_per_event_matches_layout(self):
        widths = {"d": 8, "q": 8, "B": 1}
        assert BYTES_PER_EVENT == sum(
            widths[code] for _name, code in COLUMN_LAYOUT
        )

    def test_pad_to_8(self):
        assert [pad_to_8(n) for n in range(9)] == [0, 7, 6, 5, 4, 3, 2, 1, 0]

    def test_segment_stat_pack_round_trip(self):
        stat = SegmentStat(
            offset=64, count=3, time_first=0.5, time_last=9.25,
            user_lo=0, user_hi=12, file_lo=-1, file_hi=99,
            crc32=0xDEADBEEF, flag_hist=tuple(range(16)),
        )
        packed = stat.pack()
        assert len(packed) == SEGMENT_REC.size == 200
        again = SegmentStat.unpack_from(packed, 0)
        assert again == stat
        assert again.data_bytes == 3 * BYTES_PER_EVENT


# -- write / read round trips -----------------------------------------------


class TestRoundTrip:
    @pytest.mark.parametrize(
        "n", [1, SEG - 1, SEG, SEG + 1, 3 * SEG, 3 * SEG + 1]
    )
    def test_bit_exact_across_segment_boundaries(self, n):
        log = fuzz_log(f"boundary-{n}", n)
        cols = TraceColumns.from_log(log)
        with CorpusReader(pack_bytes(log)) as reader:
            expected_segments = -(-len(cols) // SEG)  # ceil
            assert reader.segment_count == expected_segments
            assert len(reader) == len(cols)
            back = reader.to_columns()
            assert back.kinds == cols.kinds
            assert back.flags == cols.flags
            for column in (
                "times", "open_ids", "file_ids", "user_ids", "sizes",
                "positions",
            ):
                assert list(getattr(back, column)) == list(
                    getattr(cols, column)
                )
            assert list(reader.iter_events()) == log.events

    def test_times_stored_exactly(self):
        # The corpus stores f64 times verbatim — unlike the centisecond
        # .btrace encoding there is no quantization to survive.
        log = TraceLog.from_events(
            [UnlinkEvent(time=0.1 + 0.2, file_id=1)], name="exact"
        )
        with CorpusReader(pack_bytes(log)) as reader:
            assert reader.segment(0).times[0] == 0.1 + 0.2
            assert reader.stats[0].time_first == 0.1 + 0.2

    def test_empty_corpus_round_trips(self):
        buf = io.BytesIO()
        with CorpusWriter(buf, name="empty", description="nothing"):
            pass
        with CorpusReader(buf.getvalue()) as reader:
            assert (reader.name, reader.description) == ("empty", "nothing")
            assert len(reader) == 0
            assert reader.segment_count == 0
            assert len(reader.to_columns()) == 0
            assert reader.verify() == 0

    def test_unicode_metadata_round_trips(self):
        log = fuzz_log("unicode", 5)
        buf = io.BytesIO()
        with CorpusWriter(buf, name="trace éé", description="☃") as w:
            w.extend(log.events)
        with CorpusReader(buf.getvalue()) as reader:
            assert reader.name == "trace éé"
            assert reader.description == "☃"

    def test_segments_are_8_aligned(self):
        log = fuzz_log("align", 3 * SEG + 1)
        with CorpusReader(pack_bytes(log)) as reader:
            for stat in reader.stats:
                assert stat.offset % 8 == 0

    def test_negative_segment_index(self):
        log = fuzz_log("negidx", 3 * SEG)
        with CorpusReader(pack_bytes(log)) as reader:
            count = reader.segment_count
            last = reader.segment(-1)
            assert list(last.times) == list(reader.segment(count - 1).times)
            with pytest.raises(IndexError, match="out of range"):
                reader.segment(count)

    def test_zero_copy_views_on_little_endian(self):
        log = fuzz_log("zerocopy", SEG)
        import sys

        with CorpusReader(pack_bytes(log)) as reader:
            cols = reader.segment(0)
            if sys.byteorder == "little":
                assert isinstance(cols.times, memoryview)
                assert cols.times.format == "d"
            # Views stay valid after close(): the buffer is released
            # lazily once the last view dies.
            reader.close()
            assert len(cols.times) == SEG

    def test_reader_from_path_uses_mmap(self, tmp_path):
        log = fuzz_log("mmap", 2 * SEG)
        path = tmp_path / "t.bcorpus"
        pack_columns(TraceColumns.from_log(log), path, segment_events=SEG)
        with CorpusReader(path) as reader:
            assert reader.path == str(path)
            assert list(reader.iter_events()) == log.events
            assert reader.verify() == reader.segment_count

    def test_pack_trace_from_btrace_streams(self, tmp_path):
        # .btrace quantizes times to centiseconds; pack from the decoded
        # stream must reproduce exactly what read_binary would see.
        from repro.fuzz.oracles import canonicalize_times
        from repro.trace.io_binary import read_binary

        log = canonicalize_times(fuzz_log("btrace", 2 * SEG + 3))
        src = tmp_path / "t.btrace"
        write_binary(log, str(src))
        dest = tmp_path / "t.bcorpus"
        writer = pack_trace(src, dest, segment_events=SEG)
        assert writer.events_written == len(log)
        decoded = read_binary(str(src))
        assert list(CorpusReader(dest).iter_events()) == decoded.events

    def test_pack_trace_from_log_and_columns(self, tmp_path):
        log = fuzz_log("packsrc", SEG + 2)
        a, b = tmp_path / "a.bcorpus", tmp_path / "b.bcorpus"
        pack_trace(log, a, segment_events=SEG)
        pack_trace(TraceColumns.from_log(log), b, segment_events=SEG)
        assert a.read_bytes() == b.read_bytes()

    def test_read_corpus_columns(self):
        log = fuzz_log("readcols", 2 * SEG)
        cols = read_corpus_columns(pack_bytes(log))
        assert cols.to_log().events == log.events

    def test_writer_rejects_use_after_close(self):
        writer = CorpusWriter(io.BytesIO(), segment_events=SEG)
        writer.close()
        with pytest.raises(CorpusError, match="closed"):
            writer.append(UnlinkEvent(time=1.0, file_id=1))

    def test_writer_rejects_unknown_event_type(self):
        with pytest.raises(CorpusError, match="cannot serialize"):
            CorpusWriter(io.BytesIO()).append(object())  # type: ignore[arg-type]

    def test_writer_rejects_bad_segment_size(self):
        with pytest.raises(ValueError, match="segment_events"):
            CorpusWriter(io.BytesIO(), segment_events=0)


# -- corruption diagnostics --------------------------------------------------


class TestDiagnostics:
    """Satellite: damaged corpora produce CorpusError naming byte offsets."""

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bcorpus"
        path.write_bytes(b"")
        with pytest.raises(CorpusError, match="empty file"):
            CorpusReader(path)

    def test_empty_buffer(self):
        with pytest.raises(CorpusError, match="bad magic at byte 0"):
            CorpusReader(b"")

    def test_bad_magic_names_offset(self):
        with pytest.raises(CorpusError, match="bad magic at byte 0"):
            CorpusReader(b"NOTACORP" + b"\x00" * 64)

    def test_shorter_than_trailer(self):
        data = pack_bytes(fuzz_log("short", SEG))
        with pytest.raises(CorpusError, match="shorter than"):
            CorpusReader(data[: TRAILER.size - 1])

    def test_truncation_names_trailer_offset(self):
        data = pack_bytes(fuzz_log("trunc", 2 * SEG))
        cut = len(data) - 5
        with pytest.raises(
            CorpusError, match=f"trailer at byte {cut - TRAILER.size}"
        ):
            CorpusReader(data[:cut])

    def test_footer_crc_mismatch_names_range(self):
        data = bytearray(pack_bytes(fuzz_log("fcrc", 2 * SEG)))
        footer_offset = struct.unpack_from("<Q", data, len(data) - TRAILER.size)[0]
        data[footer_offset + 12] ^= 0xFF
        with pytest.raises(CorpusError, match="footer checksum mismatch"):
            CorpusReader(bytes(data))

    def test_header_corruption_names_range(self):
        # Depending on the damaged byte this trips either the UTF-8
        # decode guard or the header crc; both must be CorpusError
        # diagnostics about the header, never a raw UnicodeDecodeError.
        data = bytearray(pack_bytes(fuzz_log("hcrc", SEG)))
        data[10] ^= 0xFF  # inside the trace-name bytes
        with pytest.raises(CorpusError, match="header"):
            CorpusReader(bytes(data))

    def test_segment_bit_flip_caught_by_verify(self):
        data = bytearray(pack_bytes(fuzz_log("segflip", 2 * SEG)))
        with CorpusReader(bytes(data)) as reader:
            at = reader.stats[1].offset + 3
        data[at] ^= 0x01
        with CorpusReader(bytes(data)) as reader:
            with pytest.raises(
                CorpusError, match="segment 1 checksum mismatch"
            ):
                reader.verify()

    def test_footer_lying_about_offsets(self):
        # Rebuild a trailer whose footer_offset points mid-file: the
        # reader must reject it, not misparse.
        data = pack_bytes(fuzz_log("lie", 2 * SEG))
        footer_offset, total, nseg, _crc, end = struct.unpack_from(
            "<QQII8s", data, len(data) - TRAILER.size
        )
        bogus_footer = data[footer_offset:-TRAILER.size]
        bad = (
            data[: len(data) - TRAILER.size]
            + struct.pack(
                "<QQII8s", footer_offset - 8, total, nseg,
                zlib.crc32(data[footer_offset - 8 : -TRAILER.size]), end,
            )
        )
        assert bogus_footer  # the fixture really has a footer
        with pytest.raises(CorpusError):
            CorpusReader(bad)

    def test_never_a_bare_struct_or_index_error(self):
        data = pack_bytes(fuzz_log("sweep", 2 * SEG))
        rng = random.Random("diag-sweep")
        for _ in range(64):
            cut = rng.randint(0, len(data) - 1)
            try:
                with CorpusReader(data[:cut]) as reader:
                    reader.verify()
                    reader.to_columns()
            except CorpusError:
                continue
            except Exception as exc:  # pragma: no cover - the regression
                pytest.fail(
                    f"truncation at byte {cut} leaked "
                    f"{type(exc).__name__}: {exc}"
                )
            pytest.fail(f"truncation at byte {cut} was accepted")


# -- streaming vs in-RAM ------------------------------------------------------


class TestStreaming:
    def test_analyze_corpus_bit_identical(self):
        log = fuzz_log("stream-analyze", 150)
        cols = TraceColumns.from_log(log)
        with CorpusReader(pack_bytes(log)) as reader:
            streamed = analyze_corpus(reader)
        assert_same_report(streamed, analyze_onepass(cols))

    def test_analyze_corpus_from_path(self, tmp_path):
        log = fuzz_log("stream-path", 60)
        path = tmp_path / "t.bcorpus"
        pack_columns(TraceColumns.from_log(log), path, segment_events=SEG)
        assert analyze_corpus(path).render() == analyze_onepass(log).render()

    def test_analyze_corpus_python_engine_matches_numpy(self):
        log = fuzz_log("stream-python", 120)
        with CorpusReader(pack_bytes(log)) as reader:
            fast = analyze_corpus(reader, engine="numpy")
            ref = analyze_corpus(reader, engine="python")
        assert "_lazy" not in vars(ref)  # the reference ran
        assert_same_report(fast, ref)
        assert_same_report(ref, reference_report(log))

    @pytest.mark.parametrize("spoil, why", [
        ("regress", "chunk times regress"),
        ("unsorted", "unsorted timestamps"),
    ])
    def test_declined_corpus_returns_reference(self, spoil, why):
        cols = TraceColumns.from_log(fuzz_log(f"stream-{spoil}", 120))
        times = cols.times
        if spoil == "regress":
            # Every segment stays sorted, but the second one starts
            # before the first ends (and not before the trace start).
            assert times[SEG - 1] > times[0]
            delta = times[SEG] - times[0]
            for i in range(SEG, len(times)):
                times[i] -= delta
        else:
            assert times[2] > times[1]
            times[1], times[2] = times[2], times[1]
        buf = io.BytesIO()
        pack_columns(cols, buf, segment_events=SEG)
        with CorpusReader(buf.getvalue()) as reader:
            collector = VectorizedCollector(reader)
            with pytest.raises(VectorFallback, match=why):
                for segment in reader.iter_segments():
                    collector.feed(segment)
            streamed = analyze_corpus(reader)
            reference = reference_report(reader.to_columns().to_log())
        assert_same_report(streamed, reference)
        assert_same_report(analyze_onepass(cols), reference)

    def test_open_without_mode_bits_is_rejected_by_the_reference(self):
        # The corpus layer stores the flag byte as given; the engine
        # declines such an open and the reference cannot materialize it.
        cols = TraceColumns.from_log(fuzz_log("stream-mode0", 60))
        cols.flags = bytearray(cols.flags)
        cols.flags[cols.kinds.index(KIND_OPEN)] = 0
        buf = io.BytesIO()
        pack_columns(cols, buf, segment_events=SEG)
        with pytest.raises(ValueError, match="AccessMode"):
            analyze_corpus(buf.getvalue())
        with pytest.raises(ValueError, match="AccessMode"):
            analyze_onepass(cols)

    def test_analyze_empty_corpus(self):
        buf = io.BytesIO()
        with CorpusWriter(buf):
            pass
        report = analyze_corpus(buf.getvalue())
        assert report.activity.total_bytes == 0
        assert report.users == {}

    def test_validate_corpus_matches_in_ram(self):
        log = fuzz_log("stream-validate", 150)
        cols = TraceColumns.from_log(log)
        with CorpusReader(pack_bytes(log)) as reader:
            streamed = validate_corpus(reader)
        in_ram = validate_columns(cols)
        assert streamed.problems == in_ram.problems
        assert streamed.event_count == in_ram.event_count
        assert streamed.open_count == in_ram.open_count
        assert streamed.unmatched_opens == in_ram.unmatched_opens

    def test_validate_problem_indices_are_global(self):
        # A close without a matching open in segment 2 must be reported
        # with its trace-wide event index, not its within-segment row.
        events = [
            UnlinkEvent(time=float(i), file_id=i + 1) for i in range(2 * SEG)
        ]
        events.append(CloseEvent(time=100.0, open_id=999, final_pos=0))
        log = TraceLog.from_events(events, name="global-idx")
        streamed = validate_corpus(pack_bytes(log))
        in_ram = validate_columns(TraceColumns.from_log(log))
        assert streamed.problems == in_ram.problems
        assert any(f"event {2 * SEG}" in p for p in streamed.problems)


# -- parallel-by-segment ------------------------------------------------------


class TestParallel:
    def test_map_segments_deterministic_across_job_counts(self, tmp_path):
        log = fuzz_log("par", 5 * SEG + 3)
        path = tmp_path / "t.bcorpus"
        pack_columns(TraceColumns.from_log(log), path, segment_events=SEG)
        serial = map_segments(segment_kind_counts, path, jobs=1)
        parallel = map_segments(segment_kind_counts, path, jobs=4)
        assert serial == parallel
        assert len(serial) == -(-len(log.events) // SEG)
        total = sum(sum(c.values()) for c in serial)
        assert total == len(log.events)

    def test_map_segments_subset(self, tmp_path):
        log = fuzz_log("par-subset", 4 * SEG)
        path = tmp_path / "t.bcorpus"
        pack_columns(TraceColumns.from_log(log), path, segment_events=SEG)
        subset = map_segments(segment_kind_counts, path, jobs=1, indices=[1, 3])
        full = map_segments(segment_kind_counts, path, jobs=1)
        assert subset == [full[1], full[3]]

    def test_verify_segment_job(self, tmp_path):
        log = fuzz_log("par-verify", 3 * SEG)
        path = tmp_path / "t.bcorpus"
        pack_columns(TraceColumns.from_log(log), path, segment_events=SEG)
        with CorpusReader(path) as reader:
            count = reader.segment_count
        assert map_segments(verify_segment_job, path, jobs=2) == ["ok"] * count


# -- spool --------------------------------------------------------------------


class TestSpool:
    def test_spool_bounded_buffer_and_round_trip(self):
        log = fuzz_log("spool", 4 * SEG + 1)
        buf = io.BytesIO()
        with CorpusSpool(buf, name=log.name, buffer_events=SEG) as spool:
            for event in log.events:
                spool.append(event)
            assert spool.peak_buffered <= SEG
        with CorpusReader(buf.getvalue()) as reader:
            assert list(reader.iter_events()) == log.events

    def test_spool_rejects_time_disorder(self):
        spool = CorpusSpool(io.BytesIO(), buffer_events=SEG)
        spool.append(UnlinkEvent(time=2.0, file_id=1))
        with pytest.raises(ValueError, match="time order"):
            spool.append(UnlinkEvent(time=1.0, file_id=2))

    def test_empty_spool_close_writes_valid_corpus(self):
        # Satellite regression: a synthesis that emits zero events must
        # still leave a readable (empty) corpus behind.
        buf = io.BytesIO()
        spool = CorpusSpool(buf, name="nothing", buffer_events=SEG)
        spool.close()
        with CorpusReader(buf.getvalue()) as reader:
            assert len(reader) == 0
            assert reader.name == "nothing"
        spool.close()  # idempotent
        with pytest.raises(CorpusError, match="closed"):
            spool.append(UnlinkEvent(time=0.0, file_id=1))

    def test_exactly_one_event_segments(self):
        log = fuzz_log("spool-one", 5)
        buf = io.BytesIO()
        with CorpusSpool(buf, buffer_events=1) as spool:
            spool.extend(log.events)
        with CorpusReader(buf.getvalue()) as reader:
            assert reader.segment_count == len(log.events)
            assert all(stat.count == 1 for stat in reader.stats)
            assert list(reader.iter_events()) == log.events


# -- CLI ----------------------------------------------------------------------


@pytest.fixture
def corpus_file(tmp_path):
    log = fuzz_log("cli", 3 * SEG + 2)
    path = tmp_path / "cli.bcorpus"
    pack_columns(TraceColumns.from_log(log), path, segment_events=SEG)
    return str(path), log


class TestCli:
    def test_corpus_pack_info_verify(self, tmp_path, capsys):
        from repro.fuzz.oracles import canonicalize_times

        log = canonicalize_times(fuzz_log("cli-pack", 2 * SEG))
        btrace = tmp_path / "in.btrace"
        write_binary(log, str(btrace))
        out = tmp_path / "out.bcorpus"
        assert main([
            "corpus", "pack", str(btrace), "-o", str(out),
            "--segment-events", str(SEG),
        ]) == 0
        printed = capsys.readouterr().out
        assert f"{len(log.events)} events" in printed
        assert "segment(s)" in printed

        assert main(["corpus", "info", str(out), "--segments"]) == 0
        printed = capsys.readouterr().out
        assert str(len(log.events)) in printed and "crc" in printed

        assert main(["corpus", "verify", str(out)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_corpus_pack_requires_bcorpus_suffix(self, tmp_path, capsys):
        rc = main(["corpus", "pack", "x.btrace", "-o", str(tmp_path / "y.bin")])
        assert rc == 2  # usage error, matching the other CLI guards
        assert ".bcorpus" in capsys.readouterr().err

    def test_corpus_verify_detects_damage(self, corpus_file, tmp_path, capsys):
        path, _log = corpus_file
        data = bytearray(open(path, "rb").read())
        with CorpusReader(path) as reader:
            data[reader.stats[0].offset] ^= 0x10
        bad = tmp_path / "bad.bcorpus"
        bad.write_bytes(bytes(data))
        assert main(["corpus", "verify", str(bad)]) == 1
        assert "corrupt" in capsys.readouterr().err

    def test_validate_accepts_bcorpus(self, corpus_file, capsys):
        path, _log = corpus_file
        assert main(["validate", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_analyze_accepts_bcorpus(self, corpus_file, capsys):
        path, log = corpus_file
        assert main(["analyze", path, "--report", "activity"]) == 0
        printed = capsys.readouterr().out
        assert str(len(log.events)) in printed

    def test_generate_spools_to_bcorpus(self, tmp_path, capsys):
        out = tmp_path / "gen.bcorpus"
        rc = main([
            "generate", "--profile", "A5", "--hours", "0.05",
            "--seed", "7", "-o", str(out), "--spool",
        ])
        assert rc == 0
        with CorpusReader(out) as reader:
            assert len(reader) > 0
            reader.verify()
