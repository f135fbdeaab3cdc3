"""Tests for the discrete-event network file service (repro.netfs)."""

from __future__ import annotations

from typing import NamedTuple

import pytest

from repro.cache.simulator import BlockCacheSimulator
from repro.disk.model import DiskModel
from repro.netfs import (
    EthernetModel,
    EventLoop,
    RpcConfig,
    simulate_netfs,
)
from repro.netfs.metrics import LatencySampler, QueueTracker
from repro.netfs.network import Ethernet
from repro.trace.log import TraceLog
from repro.trace.records import AccessMode, CloseEvent, OpenEvent, UnlinkEvent


# ---------------------------------------------------------------------------
# Event engine
# ---------------------------------------------------------------------------


class Arrival(NamedTuple):
    time: float
    name: str



class TestEventLoop:
    def test_fires_in_time_order(self):
        loop = EventLoop()
        fired: list[str] = []
        loop.schedule(3.0, fired.append, "c")
        loop.schedule(1.0, fired.append, "a")
        loop.schedule(2.0, fired.append, "b")
        assert loop.run() == 3.0
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        loop = EventLoop()
        fired: list[int] = []
        for i in range(5):
            loop.schedule(1.0, fired.append, i)
        loop.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_callbacks_can_schedule_more(self):
        loop = EventLoop()
        fired: list[str] = []

        def first():
            fired.append("first")
            loop.call_after(0.5, lambda: fired.append("second"))

        loop.schedule(1.0, first)
        end = loop.run()
        assert fired == ["first", "second"]
        assert end == 1.5

    def test_cancelled_events_do_not_fire(self):
        loop = EventLoop()
        fired: list[str] = []
        handle = loop.schedule(1.0, fired.append, "dead")
        loop.schedule(2.0, fired.append, "alive")
        handle.cancel()
        loop.run()
        assert fired == ["alive"]

    def test_cannot_schedule_in_past(self):
        loop = EventLoop()
        loop.schedule(5.0, lambda: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.schedule(1.0, lambda: None)
        with pytest.raises(ValueError):
            loop.call_after(-1.0, lambda: None)

    def test_run_until_stops_early(self):
        loop = EventLoop()
        fired: list[int] = []
        loop.schedule(1.0, fired.append, 1)
        loop.schedule(10.0, fired.append, 10)
        loop.run(until=5.0)
        assert fired == [1]
        loop.run()
        assert fired == [1, 10]

    def test_events_fired_excludes_cancelled(self):
        loop = EventLoop()
        handle = loop.schedule(1.0, lambda: None)
        loop.schedule(2.0, lambda: None)
        handle.cancel()
        loop.run()
        assert loop.events_fired == 1

    # -- the merged arrival stream ---------------------------------------------

    @staticmethod
    def _arrivals(*times: float) -> list[Arrival]:
        return [Arrival(t, f"arrival@{t:g}#{i}") for i, t in enumerate(times)]

    def test_arrival_fires_before_scheduled_event_at_same_time(self):
        loop = EventLoop()
        fired: list[str] = []
        loop.schedule(1.0, fired.append, "scheduled")

        def dispatch(item: Arrival) -> None:
            fired.append(item.name)
            if item.name == "arrival@1#0":
                # Scheduled while running, for the same instant: it still
                # waits behind the second arrival at that time.
                loop.schedule(1.0, fired.append, "scheduled-later")

        loop.run(arrivals=self._arrivals(1.0, 1.0, 2.0), dispatch=dispatch)
        assert fired == [
            "arrival@1#0",
            "arrival@1#1",
            "scheduled",
            "scheduled-later",
            "arrival@2#2",
        ]

    def test_cancelled_handle_never_fires_with_arrivals(self):
        loop = EventLoop()
        fired: list[str] = []
        handle = loop.schedule(2.0, fired.append, "dead")

        def dispatch(item: Arrival) -> None:
            fired.append(item.name)
            handle.cancel()

        end = loop.run(arrivals=self._arrivals(1.0, 3.0), dispatch=dispatch)
        assert fired == ["arrival@1#0", "arrival@3#1"]
        assert end == 3.0

    def test_until_stops_with_arrivals_pending(self):
        loop = EventLoop()
        fired: list[str] = []

        def dispatch(item: Arrival) -> None:
            fired.append(item.name)

        loop.schedule(4.0, fired.append, "scheduled")
        loop.run(
            until=6.0, arrivals=self._arrivals(1.0, 5.0, 10.0), dispatch=dispatch
        )
        assert fired == ["arrival@1#0", "scheduled", "arrival@5#1"]
        assert loop.now == 5.0
        loop.run()  # the pending arrival is picked up
        assert fired[-1] == "arrival@10#2"
        assert loop.now == 10.0

    def test_events_fired_counts_arrivals(self):
        loop = EventLoop()
        loop.schedule(0.5, lambda: None)
        loop.schedule(1.5, lambda: None).cancel()
        loop.run(arrivals=self._arrivals(1.0, 2.0, 3.0), dispatch=lambda item: None)
        assert loop.events_fired == 4

    def test_arrival_stream_must_be_in_time_order(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            loop.run(arrivals=self._arrivals(2.0, 1.0), dispatch=lambda item: None)
        with pytest.raises(ValueError):
            EventLoop().run(arrivals=self._arrivals(1.0))  # no dispatch


# ---------------------------------------------------------------------------
# Ethernet model
# ---------------------------------------------------------------------------


class TestEthernet:
    def test_wire_time_includes_overhead(self):
        model = EthernetModel()
        assert model.wire_time(1000) == pytest.approx((1000 + 38) * 8 / 10e6)

    def test_small_frames_are_padded(self):
        model = EthernetModel()
        assert model.wire_time(1) == pytest.approx(64 * 8 / 10e6)

    def test_large_payloads_fragment(self):
        model = EthernetModel()
        assert model.frames_for(4000) == 3
        assert model.wire_time(4000) == pytest.approx((4000 + 3 * 38) * 8 / 10e6)

    def test_fifo_queueing_delay(self):
        ether = Ethernet()
        start1, finish1 = ether.send(0.0, 1500)
        start2, finish2 = ether.send(0.0, 1500)
        assert start1 == 0.0
        assert start2 == finish1  # waited for the wire
        assert ether.queue_delays[1] == pytest.approx(finish1)
        assert ether.frames_sent == 2

    def test_utilization(self):
        ether = Ethernet()
        ether.send(0.0, 10_000)
        busy = ether.busy_seconds
        assert ether.utilization(busy * 2) == pytest.approx(0.5)
        assert ether.utilization(0.0) == 0.0


# ---------------------------------------------------------------------------
# RPC configuration
# ---------------------------------------------------------------------------


class TestRpcConfig:
    def test_backoff_doubles_and_caps(self):
        config = RpcConfig(timeout_s=0.1, backoff_factor=2.0, backoff_cap_s=0.5)
        assert config.timeout_for_attempt(1) == pytest.approx(0.1)
        assert config.timeout_for_attempt(2) == pytest.approx(0.2)
        assert config.timeout_for_attempt(3) == pytest.approx(0.4)
        assert config.timeout_for_attempt(4) == pytest.approx(0.5)  # capped
        assert config.timeout_for_attempt(10) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            RpcConfig(timeout_s=0.0)
        with pytest.raises(ValueError):
            RpcConfig(max_retries=-1)
        with pytest.raises(ValueError):
            RpcConfig(backoff_factor=0.5)


# ---------------------------------------------------------------------------
# Metrics helpers
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_percentiles_nearest_rank(self):
        sampler = LatencySampler()
        for value in range(1, 101):
            sampler.add(float(value))
        summary = sampler.summarize()
        assert summary.p50 == 50.0
        assert summary.p95 == 95.0
        assert summary.p99 == 99.0
        assert summary.max == 100.0
        assert summary.mean == pytest.approx(50.5)

    def test_empty_sampler(self):
        summary = LatencySampler().summarize()
        assert summary.count == 0
        assert summary.p99 == 0.0
        assert "no samples" in summary.render("x")

    def test_queue_tracker_time_weighted_mean(self):
        tracker = QueueTracker()
        tracker.update(0.0, 2)
        tracker.update(1.0, 4)  # depth 2 held for 1 s
        tracker.update(3.0, 0)  # depth 4 held for 2 s
        assert tracker.max_depth == 4
        assert tracker.mean_depth(10.0) == pytest.approx((2 * 1 + 4 * 2) / 10.0)
        assert tracker.mean_depth(0.0) == 0.0


# ---------------------------------------------------------------------------
# Cache control additions (drop_file / flush_file)
# ---------------------------------------------------------------------------


class TestCacheControl:
    def _loaded_cache(self) -> BlockCacheSimulator:
        from repro.analysis.accesses import Transfer

        sim = BlockCacheSimulator(cache_bytes=64 * 1024, block_size=4096)
        sim.run([
            Transfer(time=0.0, file_id=1, user_id=1, start=0, end=16384,
                     is_write=True),
            Transfer(time=0.1, file_id=2, user_id=1, start=0, end=8192,
                     is_write=False),
        ])
        return sim

    def test_flush_file_writes_dirty_blocks(self):
        sim = self._loaded_cache()
        before = sim.metrics.disk_writes
        assert sim.flush_file(1) == 4
        assert sim.metrics.disk_writes == before + 4
        assert sim.flush_file(1) == 0  # now clean
        assert sim.flush_file(2) == 0  # never dirty
        assert sim.flush_file(99) == 0  # unknown file

    def test_drop_file_invalidates_without_forgetting_size(self):
        sim = self._loaded_cache()
        sim.drop_file(1, now=1.0)
        assert sim.metrics.invalidated_blocks == 4
        assert sim.metrics.dirty_blocks_discarded == 4
        # The file still has its known size: a later partial write of an
        # interior block must re-read it (no beyond-EOF elision).
        assert sim._known_size[1] == 16384


# ---------------------------------------------------------------------------
# Synthetic traces
# ---------------------------------------------------------------------------


def _write_heavy_trace(bursts: int = 40, reread_every: int = 5) -> TraceLog:
    """User 2 rewrites one 16 KB file over and over; user 1 re-reads it
    now and then, keeping the sharing (and the consistency traffic) alive."""
    events = []
    open_id = 0
    t = 0.0
    events.append(OpenEvent(time=t, open_id=open_id, file_id=10, user_id=1,
                            size=16384, mode=AccessMode.READ))
    events.append(CloseEvent(time=t + 0.2, open_id=open_id, final_pos=16384))
    open_id += 1
    t = 1.0
    for burst in range(bursts):
        events.append(OpenEvent(time=t, open_id=open_id, file_id=10, user_id=2,
                                size=16384, mode=AccessMode.WRITE))
        events.append(CloseEvent(time=t + 0.2, open_id=open_id,
                                 final_pos=16384))
        open_id += 1
        t += 1.0
        if burst % reread_every == reread_every - 1:
            events.append(OpenEvent(time=t, open_id=open_id, file_id=10,
                                    user_id=1, size=16384,
                                    mode=AccessMode.READ))
            events.append(CloseEvent(time=t + 0.2, open_id=open_id,
                                     final_pos=16384))
            open_id += 1
            t += 1.0
    return TraceLog(name="write-heavy", events=events)


def _burst_trace(users: int = 8, file_kb: int = 64) -> TraceLog:
    """Many users each whole-file-read a distinct file at the same instant:
    maximal simultaneous demand on the server queue."""
    events = []
    for user in range(1, users + 1):
        events.append(OpenEvent(time=0.0, open_id=user, file_id=100 + user,
                                user_id=user, size=file_kb * 1024,
                                mode=AccessMode.READ))
        events.append(CloseEvent(time=0.01, open_id=user,
                                 final_pos=file_kb * 1024))
    return TraceLog(name="burst", events=events)


# ---------------------------------------------------------------------------
# Consistency protocols
# ---------------------------------------------------------------------------


class TestConsistency:
    def test_ownership_beats_callbacks_when_write_heavy(self):
        trace = _write_heavy_trace()
        callbacks = simulate_netfs(trace, protocol="callbacks")
        ownership = simulate_netfs(trace, protocol="ownership")
        # The tentpole claim: leases collapse a write storm into a grant
        # plus occasional recalls, where callbacks bill every write.
        assert ownership.network_messages < callbacks.network_messages
        assert ownership.rpcs < callbacks.rpcs

    def test_callbacks_sends_callbacks(self):
        result = simulate_netfs(_write_heavy_trace(), protocol="callbacks")
        assert result.consistency.get("callback", 0) > 0
        assert result.consistency_messages == sum(result.consistency.values())

    def test_ownership_grants_and_recalls(self):
        result = simulate_netfs(_write_heavy_trace(), protocol="ownership")
        assert result.consistency.get("grant", 0) > 0
        assert result.consistency.get("recall", 0) > 0

    def test_unlink_broadcasts_invalidations(self):
        events = [
            OpenEvent(time=0.0, open_id=1, file_id=5, user_id=1, size=8192,
                      mode=AccessMode.READ),
            CloseEvent(time=0.1, open_id=1, final_pos=8192),
            OpenEvent(time=1.0, open_id=2, file_id=5, user_id=2, size=8192,
                      mode=AccessMode.READ),
            CloseEvent(time=1.1, open_id=2, final_pos=8192),
            UnlinkEvent(time=5.0, file_id=5),
        ]
        result = simulate_netfs(TraceLog(name="unlink", events=events),
                                protocol="callbacks")
        assert result.consistency.get("invalidate", 0) >= 2

    def test_unknown_protocol_rejected(self, small_trace):
        with pytest.raises(ValueError, match="unknown protocol"):
            simulate_netfs(small_trace, protocol="nope")


# ---------------------------------------------------------------------------
# RPC retry / timeout behaviour
# ---------------------------------------------------------------------------


SLOW_DISK = DiskModel(name="slow", avg_seek_s=0.5, rotation_s=0.1,
                      transfer_bytes_per_s=1e5, locality=0.0)


class TestRetries:
    def test_overload_causes_drops_and_retries(self):
        result = simulate_netfs(
            _burst_trace(users=8),
            server_queue_limit=1,
            disk=SLOW_DISK,
            rpc=RpcConfig(timeout_s=0.05, max_retries=14,
                          backoff_cap_s=60.0, retry_jitter_s=0.0),
        )
        assert result.queue_drops > 0
        assert result.timeouts > 0
        assert result.retries > 0
        # Bounded backoff eventually squeezes everyone through.
        assert result.failures == 0

    def test_exhausted_retries_fail(self):
        result = simulate_netfs(
            _burst_trace(users=8),
            server_queue_limit=1,
            disk=SLOW_DISK,
            rpc=RpcConfig(timeout_s=0.01, max_retries=0,
                          retry_jitter_s=0.0),
        )
        assert result.failures > 0

    def test_uncontended_run_needs_no_retries(self, small_trace):
        result = simulate_netfs(
            small_trace,
            rpc=RpcConfig(timeout_s=60.0, max_retries=2),
        )
        assert result.retries == 0
        assert result.timeouts == 0
        assert result.failures == 0


# ---------------------------------------------------------------------------
# End-to-end simulation
# ---------------------------------------------------------------------------


class TestSimulateNetfs:
    @pytest.fixture(scope="class", params=["callbacks", "ownership"])
    def result(self, request, small_trace):
        return simulate_netfs(small_trace, protocol=request.param)

    def test_every_transfer_becomes_a_request(self, result, small_trace):
        from repro.cache.stream import Invalidation, build_stream

        transfers = [
            item for item in build_stream(small_trace)
            if not isinstance(item, Invalidation)
        ]
        assert result.requests == len(transfers)

    def test_latency_accounts_every_request(self, result):
        assert result.request_latency.count == result.requests
        assert result.request_latency.mean > 0
        assert result.request_latency.p99 >= result.request_latency.p50

    def test_utilizations_sane(self, result):
        assert 0.0 < result.ethernet_utilization < 1.0
        assert 0.0 < result.disk_utilization < 1.0

    def test_local_hits_cost_no_rpc(self, result):
        assert result.local_hits > 0
        assert result.local_hits < result.requests

    def test_render_reports_the_headline_numbers(self, result):
        text = result.render()
        assert "request latency" in text
        assert "Ethernet" in text
        assert "server disk" in text
        assert "consistency messages" in text

    def test_determinism(self, small_trace):
        first = simulate_netfs(small_trace, protocol="ownership", seed=9)
        second = simulate_netfs(small_trace, protocol="ownership", seed=9)
        assert first == second

    def test_clients_fold_users(self, small_trace):
        result = simulate_netfs(small_trace, clients=4)
        assert result.clients == 4

    def test_load_scale_multiplies_demand(self, small_trace):
        one = simulate_netfs(small_trace)
        three = simulate_netfs(small_trace, load_scale=3)
        assert three.requests == 3 * one.requests
        assert three.clients == 3 * one.clients
        assert three.ethernet_utilization > one.ethernet_utilization

    def test_bigger_client_caches_cut_rpcs(self, small_trace):
        small = simulate_netfs(small_trace, client_cache_bytes=128 * 1024)
        big = simulate_netfs(small_trace, client_cache_bytes=2 * 1024 * 1024)
        assert big.rpcs <= small.rpcs

    def test_load_scale_validation(self, small_trace):
        with pytest.raises(ValueError):
            simulate_netfs(small_trace, load_scale=0)

    def test_clients_validation(self, small_trace):
        with pytest.raises(ValueError):
            simulate_netfs(small_trace, clients=0)
