"""Differential tests: ``analyze_onepass`` must be bit-identical to the
per-module reference functions, on every engine and every fallback.

The per-module analyses are the spec and the oracle; any divergence —
even in the last bit of a float — is a bug in the numpy engine.  The
fallback and memo tests pin how the one entry point picks its path.
"""

import pytest

from repro.analysis.accesses import iter_transfers, reconstruct_accesses
from repro.analysis.activity import analyze_activity
from repro.analysis.burstiness import analyze_burstiness
from repro.analysis.lifetimes import (
    collect_lifetimes,
    daemon_spike_fraction,
    lifetime_cdfs,
)
from repro.analysis.onepass import analyze_onepass, reference_report
from repro.analysis.opentimes import open_time_cdf, open_time_summary
from repro.analysis.popularity import analyze_popularity
from repro.analysis.sequentiality import analyze_sequentiality, run_length_cdfs
from repro.analysis.sizes import file_size_cdfs, size_summary
from repro.analysis.users import per_user_summary, render_user_table
from repro.analysis.vectorized import VectorFallback, analyze_columns_numpy
from repro.trace.columns import TraceColumns
from repro.trace.log import TraceLog
from repro.trace.records import (
    AccessMode,
    CloseEvent,
    CreateEvent,
    ExecEvent,
    OpenEvent,
    SeekEvent,
    TruncateEvent,
    UnlinkEvent,
)

from .conftest import assert_same_report, make_simple_trace


def assert_matches_reference(log: TraceLog, source=None) -> None:
    """Field-for-field equality between ``analyze_onepass`` and the nine
    reference analyses, with no tolerance."""
    r = analyze_onepass(log if source is None else source)

    accesses = reconstruct_accesses(log)
    assert r.accesses == accesses
    assert r.transfers == list(iter_transfers(log))
    assert r.lifetimes == collect_lifetimes(log)
    assert r.activity == analyze_activity(log)
    assert r.sequentiality == analyze_sequentiality(log)
    assert (r.run_length_by_runs, r.run_length_by_bytes) == run_length_cdfs(log)
    assert r.open_times == open_time_cdf(log)
    assert (r.size_by_accesses, r.size_by_bytes) == file_size_cdfs(log)
    assert r.popularity == analyze_popularity(log)
    assert r.users == per_user_summary(log)
    assert list(r.users) == list(per_user_summary(log))  # dict insertion order
    assert r.burstiness == analyze_burstiness(log)
    assert (r.lifetime_by_files, r.lifetime_by_bytes) == lifetime_cdfs(log)
    assert r.daemon_spike == daemon_spike_fraction(collect_lifetimes(log))
    assert r.trace_name == log.name
    assert r.duration == log.duration


class TestDifferential:
    def test_generated_trace(self, small_trace):
        assert_matches_reference(small_trace)

    def test_simple_trace(self, simple_trace):
        assert_matches_reference(simple_trace)

    def test_empty_trace(self):
        assert_matches_reference(TraceLog(name="empty"))

    def test_accepts_columns_directly(self, simple_trace):
        cols = TraceColumns.from_log(simple_trace)
        assert_matches_reference(simple_trace, source=cols)

    def test_unclosed_open_is_ignored_like_reference(self):
        log = TraceLog.from_events(
            name="unclosed",
            events=[
                OpenEvent(time=0.0, open_id=1, file_id=5, user_id=1,
                          size=100, mode=AccessMode.READ),
                OpenEvent(time=0.1, open_id=2, file_id=6, user_id=2,
                          size=200, mode=AccessMode.WRITE, created=True,
                          new_file=True),
                CloseEvent(time=0.5, open_id=2, final_pos=200),
            ],
        )
        assert_matches_reference(log)

    def test_orphan_close_and_seek(self):
        log = TraceLog.from_events(
            name="orphans",
            events=[
                SeekEvent(time=0.1, open_id=99, prev_pos=0, new_pos=10),
                CloseEvent(time=0.2, open_id=98, final_pos=0),
                CreateEvent(time=0.3, file_id=7, user_id=1),
                UnlinkEvent(time=0.4, file_id=7),
            ],
        )
        assert_matches_reference(log)

    def test_truncate_and_exec(self):
        log = TraceLog.from_events(
            name="misc",
            events=[
                OpenEvent(time=0.0, open_id=1, file_id=5, user_id=3,
                          size=4096, mode=AccessMode.READ_WRITE),
                SeekEvent(time=0.2, open_id=1, prev_pos=2048, new_pos=0),
                CloseEvent(time=0.4, open_id=1, final_pos=4096),
                TruncateEvent(time=0.5, file_id=5, new_length=0),
                ExecEvent(time=0.6, file_id=8, user_id=3, size=65536),
            ],
        )
        assert_matches_reference(log)

    def test_duplicate_creating_opens(self):
        # Two creating opens for one file: the second must not reset the
        # lifetime, exactly as collect_lifetimes behaves.
        log = TraceLog.from_events(
            name="recreate",
            events=[
                OpenEvent(time=0.0, open_id=1, file_id=9, user_id=1,
                          size=0, mode=AccessMode.WRITE, created=True,
                          new_file=True),
                CloseEvent(time=0.2, open_id=1, final_pos=512),
                OpenEvent(time=1.0, open_id=2, file_id=9, user_id=1,
                          size=512, mode=AccessMode.WRITE, created=True,
                          new_file=False),
                CloseEvent(time=1.2, open_id=2, final_pos=1024),
                UnlinkEvent(time=5.0, file_id=9),
            ],
        )
        assert_matches_reference(log)

    def test_uid_zero_user(self):
        # uid 0 (root) must not be confused with "no owner".
        log = TraceLog.from_events(
            name="root-user",
            events=[
                OpenEvent(time=0.0, open_id=1, file_id=1, user_id=0,
                          size=100, mode=AccessMode.READ),
                CloseEvent(time=0.3, open_id=1, final_pos=100),
            ],
        )
        assert_matches_reference(log)

    def test_custom_windows(self, simple_trace):
        r = analyze_onepass(simple_trace, long_window=120.0,
                            short_window=5.0, burst_window=2.0)
        assert r.activity == analyze_activity(simple_trace, long_window=120.0,
                                              short_window=5.0)
        assert r.burstiness == analyze_burstiness(simple_trace, window=2.0)

    def test_bad_burst_window_rejected(self, simple_trace):
        with pytest.raises(ValueError, match="window must be positive"):
            analyze_onepass(simple_trace, burst_window=0.0)


class TestRender:
    def test_render_matches_per_module_sections(self, simple_trace):
        r = analyze_onepass(simple_trace)
        lifetimes = collect_lifetimes(simple_trace)
        dead = [lt for lt in lifetimes if lt.lifetime is not None]
        spike = daemon_spike_fraction(lifetimes)
        by_acc, by_bytes = file_size_cdfs(simple_trace)
        expected = "\n".join(
            [
                analyze_activity(simple_trace).render(),
                analyze_sequentiality(simple_trace).render(),
                open_time_summary(open_time_cdf(simple_trace)),
                size_summary(by_acc, by_bytes),
                render_user_table(per_user_summary(simple_trace)),
                analyze_burstiness(simple_trace).render(),
                f"{len(lifetimes)} new files, {len(dead)} died during the "
                f"trace; {100 * spike:.0f}% of lifetimes in the 179-181 s "
                "daemon band",
            ]
        )
        assert r.render() == expected


def test_simple_trace_spot_checks():
    """Absolute (not just differential) checks on the hand-built trace."""
    log = make_simple_trace()
    r = analyze_onepass(log)
    assert len(r.accesses) == 3
    assert len(r.lifetimes) == 1
    # born at the close of the creating open (2.4 s), unlinked at 30.0 s
    assert r.lifetimes[0].lifetime == pytest.approx(27.6)
    whole = [a for a in r.accesses if a.whole_file]
    assert len(whole) >= 1
    assert set(r.users) == {1, 2}


def _unsorted_log() -> TraceLog:
    # Built with the dataclass constructor, which (unlike from_events)
    # keeps the given order: one open lands after a later close.
    events = list(make_simple_trace().events)
    events[1], events[2] = events[2], events[1]
    assert events[1].time > events[2].time
    return TraceLog(name="unsorted", events=events)


def _huge_size_log() -> TraceLog:
    # Sizes past 2**53 leave the float64-exact window the engine needs.
    return TraceLog.from_events(
        name="huge",
        events=[
            OpenEvent(time=0.0, open_id=1, file_id=5, user_id=1,
                      size=2**60, mode=AccessMode.READ_WRITE),
            SeekEvent(time=0.2, open_id=1, prev_pos=0, new_pos=2**55),
            CloseEvent(time=0.4, open_id=1, final_pos=2**55 + 4096),
        ],
    )


class TestFallback:
    """Inputs the numpy engine declines come back as the reference report."""

    @pytest.mark.parametrize(
        "make_log, why",
        [(_unsorted_log, "unsorted"), (_huge_size_log, "float64-exact")],
    )
    def test_declined_input_returns_reference(self, make_log, why):
        log = make_log()
        cols = TraceColumns.from_log(log)
        with pytest.raises(VectorFallback, match=why):
            analyze_columns_numpy(cols)
        assert_matches_reference(log)
        assert_matches_reference(log, source=cols)
        reference = reference_report(log)
        for engine in ("auto", "numpy", "python"):
            assert_same_report(analyze_onepass(cols, engine=engine), reference)

    def test_open_without_mode_bits_is_rejected_by_the_reference(self):
        # Only hand-built columns (or a corpus packed from them) carry an
        # open row with no mode bits; the engine declines it and the
        # reference cannot materialize it as an OpenEvent.
        cols = TraceColumns.from_log(make_simple_trace())
        cols.flags = bytearray(cols.flags)
        cols.flags[0] = 0
        with pytest.raises(VectorFallback, match="no mode bits"):
            analyze_columns_numpy(cols)
        with pytest.raises(ValueError, match="AccessMode"):
            analyze_onepass(cols)


class TestMemo:
    def test_second_call_returns_the_memoized_report(self):
        log = make_simple_trace()
        assert analyze_onepass(log) is analyze_onepass(log)
        assert analyze_onepass(log, engine="auto") is analyze_onepass(
            log, engine="numpy"
        )

    def test_engines_do_not_share_an_entry(self):
        log = make_simple_trace()
        python = analyze_onepass(log, engine="python")
        numpy = analyze_onepass(log, engine="numpy")
        assert python is not numpy
        assert "_lazy" not in vars(python)  # built by the reference
        assert "_lazy" in vars(numpy)  # built by the numpy engine
        assert analyze_onepass(log, engine="python") is python
        assert_same_report(numpy, python)

    def test_windows_are_part_of_the_key(self):
        log = make_simple_trace()
        default = analyze_onepass(log)
        custom = analyze_onepass(log, burst_window=2.0)
        assert custom is not default
        assert custom.burstiness == analyze_burstiness(log, window=2.0)

    def test_appending_an_event_invalidates_the_entry(self):
        log = make_simple_trace()
        before = analyze_onepass(log)
        log.append(ExecEvent(time=log.end_time + 1.0, file_id=8, user_id=9,
                             size=1024))
        after = analyze_onepass(log)
        assert after is not before
        assert 9 in after.users

    def test_columns_are_not_memoized(self):
        cols = TraceColumns.from_log(make_simple_trace())
        assert analyze_onepass(cols) is not analyze_onepass(cols)
