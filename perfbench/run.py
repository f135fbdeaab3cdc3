"""End-to-end benchmark of the trace-driven file-system reproduction.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 35 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``reproduce`` (read
an A5 trace, render all 19 exhibits), ``sweep`` (Tables VI and VII, the
paging comparison and a policy-zoo row on E3) and ``ingest`` (spool four C4
traces, read each back both ways, validate, count, analyze).

Each repeat runs in a fresh process (``worker.py``): it builds its input
from the seed, times the body, then checks the outputs.  Repeats go on
until ``--seconds`` would be exceeded, with at least two, so set-up is
measured several times and every repeat's output digest can be compared
with the first.  Every repeat's full record -- input event count, input
and output digests, calibration-loop times, core count, versions, jobs,
engine -- is printed as one JSON line; the last line is the summary::

    {"correct": true, "attempted": 41, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
repeats): ``total_s`` (time of the body), ``setup_s`` (a fresh
process's time before the body: importing ``repro`` and, for
``reproduce`` and ``sweep``, generating and writing the input trace) and
``peak_rss_mb``.  Both times are seconds at a reference host speed
(``hostclock.py``): the wall time of each stretch of work, scaled by how
fast a probe loop ran around it, so that the host speeding up or slowing
down between runs does not read as a change in the program.  Each
record keeps the raw wall times too (``wall_total_s``,
``wall_setup_s``).  Failed operations are the summary's ``failed`` out
of ``attempted``: an op is one exhibit, sweep call, replay or ingest
stage, plus one per repeat after the first for its digests matching the
first's.  With ``--trace 1`` repeats alternate untraced and traced, and
the metrics are the per-layer split from the traced ones plus
``bench.trace_overhead_s`` (traced minus untraced ``total_s``); spans
are written under ``perfbench/out/``.

The calibration-loop times in each record, taken before and after the
body, show host-speed drift: on a shared 2-vCPU VM the 0.1 s loop alone
was seen to swing between 0.09 and 0.20 s over a few minutes.

The exit status is nonzero, with no summary, when a repeat cannot run at
all (for instance when ``src/`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import LAYER_METRICS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Every run ends well inside the three minutes one run is allowed.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"total_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _worker(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        str(int(traced)),
        "--out-dir",
        OUT_DIR,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: a {workload} repeat ran past the deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: a {workload} repeat exited with {proc.returncode}")
    return json.loads(lines[-1])


def _repeats(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Run repeats until the next would overrun *seconds* (at least two).

    Traced runs alternate untraced and traced repeats and stop on a
    whole pair.
    """
    start = time.perf_counter()
    step = 2 if trace else 1
    records: list[dict] = []
    while True:
        remaining = DEADLINE_S - (time.perf_counter() - start)
        traced = trace and len(records) % 2 == 1
        record = _worker(workload, seed, traced, remaining)
        print(json.dumps(record), flush=True)
        records.append(record)
        if len(records) % step:
            continue
        elapsed = time.perf_counter() - start
        if len(records) >= 2 and elapsed * (1 + step / len(records)) > seconds:
            return records


def summarize(records: list[dict], trace: bool) -> dict:
    """The summary line: op counts, digest agreement and metrics."""
    attempted = sum(r["ops"] for r in records)
    failed = sum(r["failed"] for r in records)
    first = records[0]
    for r in records[1:]:
        attempted += 1
        if (r["input_digest"], r["output_digest"]) != (
            first["input_digest"],
            first["output_digest"],
        ):
            failed += 1
    if trace:
        traced = [r for r in records if r["traced"]]
        plain = [r for r in records if not r["traced"]]
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        values["bench.trace_overhead_s"] = statistics.median(
            r["total_s"] for r in traced
        ) - statistics.median(r["total_s"] for r in plain)
        metrics = {
            name: {"value": value, "unit": LAYER_METRICS.get(name, "s")}
            for name, value in values.items()
        }
    else:
        metrics = {
            name: {"value": statistics.median(r[name] for r in records), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.makedirs(OUT_DIR, exist_ok=True)
    records = _repeats(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(summarize(records, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
