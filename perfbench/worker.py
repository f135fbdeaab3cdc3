"""One measured repeat of one workload, in a fresh process.

Usage (normally started by ``run.py``)::

    python3 perfbench/worker.py --workload sweep --seed 1 --trace 0 --out-dir DIR

Set-up time runs from the start of this script -- the import of
``repro`` included -- to the start of the body.  The body is timed with
tracing off unless ``--trace 1``, in which case the spans are written to
``DIR`` when the repeat ends.  Both times are kept in wall seconds and in
seconds at a reference host speed (``hostclock.py``); the metrics are the
latter.  The last line of standard output is one JSON record.
"""

from __future__ import annotations

import time

if __name__ == "__main__":
    from hostclock import HostClock

    _CLOCK = HostClock().start()
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402

from hostclock import HostClock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Ops  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Iterations of the calibration loop (about 0.1 s of pure Python).
CALIBRATION_ROUNDS = 1_000_000


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a machine-speed reading
    taken around the body, so drift in the host can be told apart from
    a change in the program.  A diagnostic, not a metric."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ROUNDS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


def _environment() -> dict:
    from repro.cache import current_replacement
    from repro.parallel import resolve_jobs
    from repro.trace.npview import current_engine, numpy_available, resolve_engine

    numpy_version = None
    if numpy_available():
        import numpy

        numpy_version = numpy.__version__
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "jobs": resolve_jobs(None),
        "engine": current_engine(),
        "engine_resolved": resolve_engine(current_engine()),
        "replacement": current_replacement(),
    }


def measure(
    workload: str,
    seed: int,
    trace: bool,
    out_dir: str,
    clock: HostClock | None = None,
    started: float | None = None,
    corrupt=None,
) -> dict:
    """Set up, time and check one repeat; return its record.

    *clock* is a running :class:`HostClock`, which this stops; without
    one, a clock runs for the length of the call.  *started* is when
    set-up began (this process's start when run as a script).
    *corrupt*, if given, is applied to the body's outputs before the
    checks -- the tests use it to prove a wrong result is counted.
    """
    if clock is None:
        clock = HostClock().start()
    if started is None:
        started = time.perf_counter()
    import repro.experiments  # noqa: F401  (set-up includes importing repro)

    wl = WORKLOADS[workload]()
    ops = Ops()
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir)
    tracer = Tracer(run_id=f"{workload}-seed{seed}-pid{os.getpid()}") if trace else None
    span = tracer.span if tracer is not None else (lambda _name: nullcontext())
    try:
        with tracer if tracer is not None else nullcontext():
            with span("bench.setup"):
                inp = wl.setup(seed, workdir)
            setup_end = time.perf_counter()
            calibration_before = calibrate()
            body_start = time.perf_counter()
            with span("bench.body"):
                out = wl.body(inp, ops)
            body_end = time.perf_counter()
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        calibration_after = calibrate()
        clock.stop()
        wall_setup_s, setup_s = clock.seconds(started, setup_end)
        wall_total_s, total_s = clock.seconds(body_start, body_end)
        if corrupt is not None:
            corrupt(out)
        wl.check(out, seed, ops)
        input_events, input_digest = wl.input_record(inp, out)
        record = {
            "workload": workload,
            "seed": seed,
            "traced": trace,
            "total_s": total_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "wall_total_s": wall_total_s,
            "wall_setup_s": wall_setup_s,
            "probes": len(clock.probes),
            "ops": ops.attempted,
            "failed": ops.failed,
            "failures": ops.failures(),
            "input_events": input_events,
            "input_digest": input_digest,
            "output_digest": wl.digest(out),
            "calibration_s": [calibration_before, calibration_after],
            **_environment(),
        }
        if tracer is not None:
            from repro.experiments import all_ids

            record["layers"] = tracer.metrics(all_ids())
            spans_path = os.path.join(out_dir, f"spans-{tracer.run_id}.json")
            tracer.dump(spans_path)
            record["spans_file"] = os.path.relpath(spans_path, ROOT)
        return record
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    record = measure(
        args.workload,
        args.seed,
        bool(args.trace),
        args.out_dir,
        clock=_CLOCK,
        started=_STARTED,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
