"""Tests for the extension modules: the disk service-time model, the
two-level client/server cache, and the file-popularity analysis."""

import pytest

from repro.analysis.popularity import analyze_popularity
from repro.cache.metrics import CacheMetrics
from repro.cache.policies import DELAYED_WRITE, FLUSH_30S, WRITE_THROUGH
from repro.cache.simulator import simulate_cache
from repro.cache.twolevel import simulate_two_level
from repro.disk.model import FUJITSU_EAGLE, DiskModel, DiskTimeEstimate
from repro.trace.log import TraceLog
from repro.trace.records import AccessMode, CloseEvent, OpenEvent


class TestDiskModel:
    def test_service_time_components(self):
        model = DiskModel(
            name="t", avg_seek_s=0.02, rotation_s=0.01,
            transfer_bytes_per_s=1e6, locality=0.0,
        )
        # 0.02 seek + 0.005 half-rotation + 0.01 transfer of 10 KB.
        assert model.service_time(10_000) == pytest.approx(0.035)

    def test_locality_discounts_seek(self):
        base = DiskModel("t", 0.02, 0.01, 1e6, locality=0.0)
        local = DiskModel("t", 0.02, 0.01, 1e6, locality=0.5)
        assert local.service_time(0) == pytest.approx(base.service_time(0) - 0.01)

    def test_bigger_transfers_take_longer(self):
        assert FUJITSU_EAGLE.service_time(32768) > FUJITSU_EAGLE.service_time(4096)

    def test_large_blocks_cost_less_per_byte(self):
        small = FUJITSU_EAGLE.service_time(4096) / 4096
        large = FUJITSU_EAGLE.service_time(32768) / 32768
        assert large < small

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskModel("t", -1, 0.01, 1e6)
        with pytest.raises(ValueError):
            DiskModel("t", 0.01, 0.01, 0)
        with pytest.raises(ValueError):
            DiskModel("t", 0.01, 0.01, 1e6, locality=1.0)
        with pytest.raises(ValueError):
            FUJITSU_EAGLE.service_time(-1)

    def test_estimate_from_metrics(self, small_trace):
        metrics = simulate_cache(small_trace, 1024 * 1024)
        estimate = DiskTimeEstimate.from_metrics(
            metrics, 4096, small_trace.duration
        )
        assert estimate.busy_seconds == pytest.approx(
            metrics.disk_ios * FUJITSU_EAGLE.service_time(4096)
        )
        assert 0 <= estimate.utilization < 1
        assert "utilization" in estimate.render()

    def test_block_size_time_tradeoff_visible(self, medium_trace):
        """Counting I/Os, huge blocks look nearly free; in disk *time* the
        transfer term pushes the optimum back toward smaller blocks."""
        from repro.cache.sweep import block_size_sweep

        sweep = block_size_sweep(
            medium_trace, block_sizes=(4096, 32768),
            cache_sizes=(4 * 1024 * 1024,),
        )
        cache = 4 * 1024 * 1024
        ios_ratio = sweep.disk_ios(32768, cache) / sweep.disk_ios(4096, cache)
        time_ratio = (
            sweep.disk_ios(32768, cache) * FUJITSU_EAGLE.service_time(32768)
        ) / (sweep.disk_ios(4096, cache) * FUJITSU_EAGLE.service_time(4096))
        assert time_ratio > ios_ratio  # time penalizes the big blocks


class TestTwoLevel:
    @pytest.fixture(scope="class")
    def result(self, medium_trace):
        return simulate_two_level(medium_trace)

    def test_client_caches_absorb_traffic(self, result):
        assert result.network_blocks < result.client_metrics.block_accesses

    def test_server_cache_absorbs_more(self, result):
        assert result.server_metrics.disk_ios < result.network_blocks

    def test_one_client_per_user(self, result, medium_trace):
        assert result.clients == len(medium_trace.user_ids())

    def test_network_rate_fits_ethernet(self, result):
        # The paper's conclusion: a 10 Mbit/s network (~1.25 MB/s) carries
        # this easily.
        assert result.network_bytes_per_second < 1.25e6 / 2

    def test_delayed_client_policy_cuts_network_writes(self, medium_trace):
        wt = simulate_two_level(medium_trace, client_policy=WRITE_THROUGH)
        dw = simulate_two_level(medium_trace, client_policy=DELAYED_WRITE)
        assert dw.client_metrics.disk_writes < wt.client_metrics.disk_writes
        assert dw.network_blocks < wt.network_blocks

    def test_flush_back_clients_flush(self, medium_trace):
        # Regression: each client cache is driven one access at a time;
        # flush-back clients used to never flush and gave exactly the
        # delayed-write numbers.
        fb = simulate_two_level(medium_trace, client_policy=FLUSH_30S)
        dw = simulate_two_level(medium_trace, client_policy=DELAYED_WRITE)
        assert fb.client_metrics.disk_writes > dw.client_metrics.disk_writes
        # Every block a client fetches or writes back reaches the server.
        for result in (fb, dw):
            assert result.server_metrics.read_accesses == (
                result.client_metrics.disk_reads
            )
            assert result.server_metrics.write_accesses == (
                result.client_metrics.disk_writes
            )

    def test_bigger_client_caches_cut_network_traffic(self, medium_trace):
        small = simulate_two_level(medium_trace, client_cache_bytes=128 * 1024)
        big = simulate_two_level(medium_trace, client_cache_bytes=2 * 1024 * 1024)
        assert big.network_blocks <= small.network_blocks

    def test_render(self, result):
        text = result.render()
        assert "client" in text and "server" in text


class TestPopularity:
    def test_counts_and_ranking(self):
        events = []
        t = 0.0
        for i, fid in enumerate([7, 7, 7, 8]):
            events.append(OpenEvent(time=t, open_id=i, file_id=fid, user_id=1,
                                    size=1000, mode=AccessMode.READ))
            events.append(CloseEvent(time=t + 0.1, open_id=i, final_pos=1000))
            t += 1.0
        report = analyze_popularity(TraceLog.from_events(events))
        assert report.total_accesses == 4
        assert report.files[0].file_id == 7
        assert report.files[0].accesses == 3
        assert report.top_fraction(1) == pytest.approx(0.75)

    def test_large_file_access_fraction(self):
        events = [
            OpenEvent(time=0.0, open_id=1, file_id=1, user_id=1,
                      size=1024 * 1024, mode=AccessMode.READ),
            CloseEvent(time=0.1, open_id=1, final_pos=2048),
            OpenEvent(time=1.0, open_id=2, file_id=2, user_id=1,
                      size=100, mode=AccessMode.READ),
            CloseEvent(time=1.1, open_id=2, final_pos=100),
        ]
        report = analyze_popularity(TraceLog.from_events(events))
        assert report.large_file_access_fraction() == pytest.approx(0.5)

    def test_generated_trace_shows_concentration(self, medium_trace):
        report = analyze_popularity(medium_trace)
        # A hot minority takes a large share (Zipf-ish), like the paper's
        # administrative files and shared headers.
        assert report.top_fraction(10) > 0.15
        # And the big-file share resembles "almost 20% of all accesses".
        assert 0.05 <= report.large_file_access_fraction() <= 0.35

    def test_render(self, small_trace):
        assert "accesses" in analyze_popularity(small_trace).render()


class TestDiskModelEdges:
    """Edge cases: zero-I/O metrics and the locality bounds."""

    def test_zero_io_estimate(self):
        estimate = DiskTimeEstimate.from_metrics(
            CacheMetrics(), 4096, trace_seconds=3600.0
        )
        assert estimate.disk_ios == 0
        assert estimate.busy_seconds == 0.0
        assert estimate.utilization == 0.0
        assert "0.0% utilization" in estimate.render()

    def test_zero_duration_guard(self):
        metrics = CacheMetrics(disk_reads=100)
        estimate = DiskTimeEstimate.from_metrics(metrics, 4096, trace_seconds=0.0)
        assert estimate.busy_seconds > 0
        assert estimate.utilization == 0.0  # guarded, not a ZeroDivisionError

    def test_locality_zero_pays_full_seek(self):
        model = DiskModel("t", avg_seek_s=0.02, rotation_s=0.01,
                          transfer_bytes_per_s=1e6, locality=0.0)
        assert model.service_time(0) == pytest.approx(0.02 + 0.005)

    def test_locality_approaching_one_leaves_rotation_only(self):
        model = DiskModel("t", avg_seek_s=0.02, rotation_s=0.01,
                          transfer_bytes_per_s=1e6, locality=1.0 - 1e-9)
        assert model.service_time(0) == pytest.approx(0.005, rel=1e-6)

    def test_locality_one_is_rejected(self):
        with pytest.raises(ValueError):
            DiskModel("t", 0.02, 0.01, 1e6, locality=1.0)
        with pytest.raises(ValueError):
            DiskModel("t", 0.02, 0.01, 1e6, locality=-0.1)


class TestTwoLevelClientCounts:
    """Single-client vs many-client paths, and the render/rate guards."""

    def test_single_client(self, medium_trace):
        from repro.trace.ops import filter_users

        user = sorted(medium_trace.user_ids())[0]
        solo = filter_users(medium_trace, [user])
        result = simulate_two_level(solo)
        assert result.clients == 1
        assert result.network_blocks <= result.client_metrics.block_accesses

    def test_many_clients_see_more_total_traffic_than_one(self, medium_trace):
        from repro.trace.ops import filter_users

        user = sorted(medium_trace.user_ids())[0]
        solo = simulate_two_level(filter_users(medium_trace, [user]))
        everyone = simulate_two_level(medium_trace)
        assert everyone.clients > 1
        assert everyone.network_blocks > solo.network_blocks

    def test_zero_duration_guards(self):
        from repro.cache.twolevel import TwoLevelResult

        result = TwoLevelResult(
            client_cache_bytes=512 * 1024,
            server_cache_bytes=16 * 1024 * 1024,
            block_size=4096,
            duration=0.0,
        )
        assert result.network_bytes_per_second == 0.0
        assert "rate unavailable" in result.render()

    def test_consistency_messages_default(self, medium_trace):
        result = simulate_two_level(medium_trace)
        assert result.consistency_messages == 0
        assert "consistency messages: 0" in result.render()
