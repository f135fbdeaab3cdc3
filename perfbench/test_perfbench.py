"""Tests of the benchmark itself, on inputs a few hundred events long.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, experiment_metric  # noqa: E402
from worker import measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Shrinks every workload to a few hundred events (ingest: two traces of
#: a quarter of an hour).
SMALL_INPUTS = {
    "REPRODUCE_HOURS": 0.1,
    "REPRODUCE_EVENTS": 200,
    "SWEEP_HOURS": 0.1,
    "SWEEP_EVENTS": 300,
    "INGEST_PIECES": 2,
    "INGEST_HOURS": 0.25,
}


def _shrink(mp: pytest.MonkeyPatch) -> None:
    for name, value in SMALL_INPUTS.items():
        mp.setattr(workloads, name, value)


@pytest.fixture(autouse=True)
def small_inputs(monkeypatch):
    _shrink(monkeypatch)


def _input_digest(workload: str, seed: int, tmp_path) -> str:
    wl = WORKLOADS[workload]()
    workdir = tmp_path / f"{workload}-{seed}"
    workdir.mkdir(parents=True)
    inp = wl.setup(seed, str(workdir))
    if workload == "ingest":
        from workloads import Ops

        out = wl.body(inp, Ops())
        return wl.input_record(inp, out)[1]
    return wl.input_record(inp, {})[1]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_determines_input(workload, tmp_path):
    first = _input_digest(workload, 3, tmp_path / "a")
    assert first == _input_digest(workload, 3, tmp_path / "b")
    assert first != _input_digest(workload, 4, tmp_path / "c")


def test_seed_short_of_the_cut_is_an_error():
    from repro.workload import UCBARPA

    with pytest.raises(ValueError, match="fewer than"):
        workloads.fixed_size_trace(UCBARPA, 3, 0.01, 1_000_000)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced repeat of each workload (shared: they are the slow part)."""
    out = tmp_path_factory.mktemp("out")
    with pytest.MonkeyPatch.context() as mp:
        _shrink(mp)
        return {w: measure(w, 2, True, str(out)) for w in sorted(WORKLOADS)}


def _zero_layer(record: dict, prefix: str) -> dict:
    return {k: v for k, v in record["layers"].items() if k.startswith(prefix) and v}


def test_traced_run_emits_every_layer_metric(traced):
    from repro.experiments import all_ids

    expected = set(LAYER_METRICS) | {experiment_metric(e) for e in all_ids()}
    assert len(all_ids()) == 19
    for record in traced.values():
        assert set(record["layers"]) == expected
        assert record["failed"] == 0, record["failures"]
    rep = traced["reproduce"]["layers"]
    for name in ("netfs.sim_s", "cache.sim_s", "parallel.replay_s", "analysis.analyze_s"):
        assert rep[name] > 0, name
    assert all(rep[experiment_metric(e)] > 0 for e in all_ids())


def test_curve_sizes_count_as_configs():
    # A stack curve answers one write-through LRU configuration per size;
    # replaying one of them again is a repeat, whatever its flush epoch.
    import repro.parallel.veccache as veccache
    from repro.cache import WRITE_THROUGH, build_stream
    from repro.parallel import pack_stream
    from repro.workload import UCBARPA

    from tracer import Tracer

    log = workloads.fixed_size_trace(UCBARPA, 3, 0.1, 200)
    packed = pack_stream(build_stream(log), 4096, start_time=log.start_time)
    sizes = (64 * 1024, 256 * 1024, 1024 * 1024)
    with Tracer() as tracer:
        veccache.stack_curve(packed, sizes)
        veccache.replay_packed(packed, sizes[0], WRITE_THROUGH, flush_epoch=log.start_time)
    layers = tracer.metrics(())
    assert layers["parallel.curves"] == 1
    assert (layers["cache.configs"], layers["cache.configs_unique"]) == (4, 3)


def test_summary_names_match_benchmark_json(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    rec = traced["sweep"]
    plain = dict(rec, traced=False)
    layers = run.summarize([plain, rec], trace=True)["metrics"]
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    ends = run.summarize([plain, plain], trace=False)["metrics"]
    assert set(ends) == {m["name"] for m in spec["end_to_end"]}
    for group in ("per_layer", "end_to_end"):
        emitted = layers if group == "per_layer" else ends
        for m in spec[group]:
            assert emitted[m["name"]]["unit"] == m["unit"], m["name"]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_layers_that_a_workload_bypasses_read_zero(traced):
    assert _zero_layer(traced["sweep"], "netfs.") == {}
    assert _zero_layer(traced["ingest"], "netfs.") == {}
    assert _zero_layer(traced["ingest"], "cache.") == {}
    assert traced["sweep"]["layers"]["cache.sim_runs"] > 0
    assert traced["ingest"]["layers"]["workload.events"] > 0


def test_tracer_restores_every_binding(traced):
    import repro.cache.simulator as simulator
    import repro.cache.sweep as sweep
    import repro.trace as trace
    import repro.trace.io_binary as io_binary
    from repro.experiments import REGISTRY

    assert sweep.BlockCacheSimulator is simulator.BlockCacheSimulator
    assert trace.read_binary is io_binary.read_binary
    assert not hasattr(io_binary.read_binary, "__wrapped__")
    assert all(not hasattr(e.run, "__wrapped__") for e in REGISTRY.values())


def _corrupt_table6(out):
    for metrics in out["table6"].results.values():
        metrics.disk_reads += 1


def _corrupt_exhibit(out):
    out["results"][0].rendered = ""


def _corrupt_report(out):
    out["pieces"][1]["report"].problems.append("corrupted by the test")


@pytest.mark.parametrize(
    "workload, corrupt, op",
    [
        ("sweep", _corrupt_table6, "table6"),
        ("reproduce", _corrupt_exhibit, None),
        ("ingest", _corrupt_report, "validate[1]"),
    ],
)
def test_corrupted_result_counts_as_failed(workload, corrupt, op, tmp_path):
    record = measure(workload, 2, False, str(tmp_path), corrupt=corrupt)
    assert record["failed"] == 1, record["failures"]
    if op is not None:
        assert op in record["failures"]


def test_digest_mismatch_between_repeats_counts_as_failed():
    base = {
        "ops": 3,
        "failed": 0,
        "input_digest": "in",
        "output_digest": "out",
        "total_s": 1.0,
        "setup_s": 0.5,
        "peak_rss_mb": 50.0,
    }
    same = run.summarize([base, dict(base)], trace=False)
    assert (same["attempted"], same["failed"], same["correct"]) == (7, 0, True)
    differs = run.summarize([base, dict(base, output_digest="other")], trace=False)
    assert (differs["failed"], differs["correct"]) == (1, False)


def test_host_clock_scales_work_by_the_probe_times():
    import hostclock

    clock = hostclock.HostClock()
    ref = hostclock.REFERENCE_PROBE_S
    # Work up to 1.0 s between probes of 2*ref and 4*ref, then up to
    # 2.0 s between probes of 4*ref and 2*ref: both stretches ran at a
    # third of reference speed.  Probe time counts in neither figure.
    clock.probes = [(0.0, 2 * ref), (1.0, 1.0 + 4 * ref), (2.0, 2.0 + 2 * ref)]
    wall, reference = clock.seconds(2 * ref, 2.0)
    assert wall == pytest.approx(2.0 - 2 * ref - 4 * ref)
    third = (1 / 3) ** hostclock.SLOWDOWN_EXPONENT
    assert reference == pytest.approx(wall * third)
    wall, reference = clock.seconds(0.5, 0.75)
    assert (wall, reference) == pytest.approx((0.25, 0.25 * third))
    with pytest.raises(ValueError):
        clock.seconds(0.0, 1.5)


def test_host_clock_probes_while_running_and_restores_the_handler():
    import signal
    import time

    import hostclock

    before = signal.getsignal(signal.SIGALRM)
    with hostclock.HostClock() as clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 3 * hostclock.PROBE_INTERVAL_S:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(clock.probes) >= 3
    wall, reference = clock.seconds(start, end)
    assert 0 < wall < end - start
    assert reference > 0
