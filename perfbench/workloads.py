"""The three benchmark workloads: set-up, timed body, output checks.

Each workload is a set-up (the input trace, made from the seed), a body
(the timed part, driving ``repro`` only through public functions at
library defaults: serial, engine ``auto``, replacement ``lru``) and a
set of checks that run after the body.  The body records one *op* per
exhibit, sweep call, replay or ingest stage; an op fails when it raises
or when a check rejects its result.

* ``reproduce`` -- what a user runs to reproduce the paper: read a UCBARPA
  (A5) trace and render all 19 exhibits.  netfs and the cache sweeps and
  policy zoo do most of the work.
* ``sweep`` -- the cache half alone on UCBERNIE (E3), the busiest machine:
  Tables VI and VII, the paging comparison and one zoo row.  netfs,
  analysis and the generator do nothing here, so a cache gain shows
  undiluted and a netfs change must read as no change.
* ``ingest`` -- the trace half alone on UCBCAD (C4): spool generated
  traces to ``.btrace`` (the write path), read each back both ways (the
  read path), validate, count and analyze.  The cache and netfs do
  nothing here.

The input of ``reproduce`` and ``sweep`` is generated for a fixed
simulated duration and cut to a fixed number of events, so every seed
asks for the same simulated time and the same body.  A trace generated for
a fixed duration varies by up to 40% in event count from seed to seed,
so each duration is long enough for the sparsest seed seen.

``ingest`` cannot cut its input, since generating it is the body.  The
time to generate 48 simulated hours of C4 varied by 16% (interquartile
range over median, seeds 1-8) with the seed, far more than the event
count did: one trace's draws decide much of its cost.  So the body
generates four independent 12 h traces from seeds derived from the
benchmark's seed, which halved that spread to 8%.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random

#: Input sizes: simulated hours generated and the events kept, for the
#: read-back workloads; traces and simulated hours per trace for
#: ``ingest`` (whose body is the generation itself).  Seeds 1-100 gave
#: A5 14,275-19,726 events in 2.25 h and seeds 1-40 gave E3
#: 37,346-48,012 in 5 h, so each cut leaves a fifth of margin.
REPRODUCE_HOURS = 2.25
REPRODUCE_EVENTS = 12_000
SWEEP_HOURS = 5.0
SWEEP_EVENTS = 30_000
INGEST_PIECES = 4
INGEST_HOURS = 12.0

#: The zoo row of ``sweep``: one delayed-write replay per policy.
ZOO_CACHE_BYTES = 2 * 1024 * 1024
ZOO_BLOCK_SIZE = 4096


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_text(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _metrics_text(metrics) -> str:
    return repr(dataclasses.astuple(metrics))


class Ops:
    """Op outcomes in attempt order: name -> error message, or None."""

    def __init__(self):
        self.errors: dict[str, str | None] = {}

    def run(self, name: str, fn, *args, **kwargs):
        """Attempt one op; a raised exception fails it and returns None."""
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the benchmark must count, not crash
            self.errors[name] = f"{type(exc).__name__}: {exc}"
            return None
        self.errors[name] = None
        return result

    def ok(self, name: str) -> None:
        self.errors.setdefault(name, None)

    def fail(self, name: str, why: str) -> None:
        """*name* could not run, or a check rejected its result (the first
        reason is kept)."""
        if self.errors.get(name) is None:
            self.errors[name] = why

    @property
    def attempted(self) -> int:
        return len(self.errors)

    @property
    def failed(self) -> int:
        return sum(err is not None for err in self.errors.values())

    def failures(self) -> dict[str, str]:
        return {k: v for k, v in self.errors.items() if v is not None}


def fixed_size_trace(profile, seed: int, hours: float, events: int):
    """The first *events* events of *profile*'s trace for *seed*, run
    for *hours* of simulated time.

    A prefix of a trace is the trace the tracer would have logged had it
    stopped there (files still open at the end are legal).  A seed that
    falls short is an error, not a retry, so set-up work never depends
    on the seed.
    """
    from repro.trace import TraceLog
    from repro.workload import generate

    log = generate(profile, seed=seed, duration=hours * 3600).trace
    if len(log) < events:
        raise ValueError(
            f"{profile.name} seed {seed} gave {len(log)} events in {hours} h, "
            f"fewer than the {events} the benchmark cuts"
        )
    return TraceLog(name=log.name, description=log.description, events=log.events[:events])


def _write_input(profile, seed: int, hours: float, events: int, workdir: str) -> dict:
    from repro.trace import write_binary

    path = os.path.join(workdir, "input.btrace")
    log = fixed_size_trace(profile, seed, hours, events)
    write_binary(log, path)
    return {"path": path, "events": len(log), "digest": sha256_file(path)}


class Reproduce:
    name = "reproduce"

    def setup(self, seed: int, workdir: str) -> dict:
        from repro.workload import UCBARPA

        return _write_input(UCBARPA, seed, REPRODUCE_HOURS, REPRODUCE_EVENTS, workdir)

    def body(self, inp: dict, ops: Ops) -> dict:
        from repro.experiments import all_ids, run_all
        from repro.trace import read_binary

        log = ops.run("read", read_binary, inp["path"])
        ids = all_ids()
        results = None
        if log is None:
            for eid in ids:
                ops.fail(eid, "input trace not read")
        else:
            # run_all is one call, so an exception in it fails every exhibit.
            try:
                results = run_all(log)
            except Exception as exc:  # the benchmark must count, not crash
                for eid in ids:
                    ops.fail(eid, f"run_all raised {type(exc).__name__}: {exc}")
            else:
                for eid in ids:
                    ops.ok(eid)
        rendered = {} if results is None else {r.experiment_id: str(r) for r in results}
        return {"rendered": rendered, "results": results}

    def check(self, out: dict, seed: int, ops: Ops) -> None:
        from repro.experiments import all_ids

        results = out["results"]
        if results is None:
            return
        by_id = {r.experiment_id: r for r in results}
        for eid in all_ids():
            result = by_id.get(eid)
            if result is None:
                ops.fail(eid, "missing from run_all")
            elif not result.rendered.strip():
                ops.fail(eid, "rendered empty")

    def digest(self, out: dict) -> str:
        return sha256_text(out["rendered"][k] for k in sorted(out["rendered"]))

    def input_record(self, inp: dict, out: dict) -> tuple[int, str]:
        return inp["events"], inp["digest"]


class Sweep:
    name = "sweep"

    def setup(self, seed: int, workdir: str) -> dict:
        from repro.workload import UCBERNIE

        return _write_input(UCBERNIE, seed, SWEEP_HOURS, SWEEP_EVENTS, workdir)

    def body(self, inp: dict, ops: Ops) -> dict:
        from repro.cache import (
            DELAYED_WRITE,
            REPLACEMENT_NAMES,
            block_size_sweep,
            cache_size_policy_sweep,
            paging_comparison,
            simulate_cache,
        )
        from repro.trace import read_binary

        log = ops.run("read", read_binary, inp["path"])
        out: dict = {"log": log, "table6": None, "table7": None, "paging": None, "zoo": {}}
        sweeps = (
            ("table6", cache_size_policy_sweep),
            ("table7", block_size_sweep),
            ("paging", paging_comparison),
        )
        if log is None:
            for op in [name for name, _ in sweeps] + [f"zoo.{r}" for r in REPLACEMENT_NAMES]:
                ops.fail(op, "input trace not read")
            return out
        for name, fn in sweeps:
            out[name] = ops.run(name, fn, log)
        for repl in REPLACEMENT_NAMES:
            out["zoo"][repl] = ops.run(
                f"zoo.{repl}",
                simulate_cache,
                log,
                ZOO_CACHE_BYTES,
                ZOO_BLOCK_SIZE,
                DELAYED_WRITE,
                replacement=repl,
            )
        return out

    def check(self, out: dict, seed: int, ops: Ops) -> None:
        """Re-run one seed-sampled cell of each sweep, and one zoo policy,
        through the reference simulator on a freshly built stream; check
        conservation everywhere and the LRU write-through inclusion
        property on Table VI."""
        from repro.cache import DELAYED_WRITE, WRITE_THROUGH, BlockCacheSimulator, build_stream

        log = out["log"]
        if log is None:
            return
        rng = random.Random(seed)
        plain = build_stream(log)

        def reference(stream, cache_bytes, block_size, policy, replacement="lru"):
            return BlockCacheSimulator(
                cache_bytes=cache_bytes,
                block_size=block_size,
                policy=policy,
                replacement=replacement,
            ).run(stream, flush_epoch=log.start_time)

        def conserve(op, cells):
            for metrics in cells:
                if metrics.disk_ios > metrics.block_accesses:
                    ops.fail(op, "more disk I/Os than block accesses")

        t6 = out["table6"]
        if t6 is not None:
            size = rng.choice(t6.cache_sizes)
            policy = rng.choice(t6.policies)
            if reference(plain, size, t6.block_size, policy) != t6.results[(size, policy.label)]:
                ops.fail("table6", f"cell ({size}, {policy.label}) differs from the reference")
            conserve("table6", t6.results.values())
            ratios = [t6.miss_ratio(s, WRITE_THROUGH) for s in sorted(t6.cache_sizes)]
            if any(b > a for a, b in zip(ratios, ratios[1:])):
                ops.fail("table6", "LRU write-through miss ratio rises with cache size")
        t7 = out["table7"]
        if t7 is not None:
            bs = rng.choice(t7.block_sizes)
            cache = rng.choice(t7.cache_sizes)
            if reference(plain, cache, bs, DELAYED_WRITE) != t7.results[(bs, cache)]:
                ops.fail("table7", f"cell ({bs}, {cache}) differs from the reference")
            conserve("table7", t7.results.values())
            for (bs, _cache), metrics in t7.results.items():
                if metrics.disk_ios > t7.no_cache[bs]:
                    ops.fail("table7", "more disk I/Os than the no-cache column")
        pg = out["paging"]
        if pg is not None:
            size = rng.choice(pg.cache_sizes)
            paged = build_stream(log, include_paging=True)
            if (
                reference(plain, size, 4096, DELAYED_WRITE) != pg.ignored[size]
                or reference(paged, size, 4096, DELAYED_WRITE) != pg.simulated[size]
            ):
                ops.fail("paging", f"size {size} differs from the reference")
            conserve("paging", [*pg.ignored.values(), *pg.simulated.values()])
        zoo = {k: v for k, v in out["zoo"].items() if v is not None}
        for repl, metrics in zoo.items():
            conserve(f"zoo.{repl}", [metrics])
        if zoo:
            repl = rng.choice(sorted(zoo))
            ref = reference(plain, ZOO_CACHE_BYTES, ZOO_BLOCK_SIZE, DELAYED_WRITE, repl)
            if ref != zoo[repl]:
                ops.fail(f"zoo.{repl}", "differs from the reference")

    def digest(self, out: dict) -> str:
        parts = []
        t6, t7, pg = out["table6"], out["table7"], out["paging"]
        if t6 is not None:
            parts += [f"t6{k}{_metrics_text(m)}" for k, m in sorted(t6.results.items())]
        if t7 is not None:
            parts += [f"t7{k}{_metrics_text(m)}" for k, m in sorted(t7.results.items())]
            parts += [f"nc{k}={v}" for k, v in sorted(t7.no_cache.items())]
        if pg is not None:
            for size in pg.cache_sizes:
                parts.append(f"pg{size}{_metrics_text(pg.ignored[size])}")
                parts.append(f"pg{size}{_metrics_text(pg.simulated[size])}")
        parts += [f"zoo{k}{_metrics_text(m)}" for k, m in out["zoo"].items() if m is not None]
        return sha256_text(parts)

    def input_record(self, inp: dict, out: dict) -> tuple[int, str]:
        return inp["events"], inp["digest"]


class Ingest:
    name = "ingest"

    def setup(self, seed: int, workdir: str) -> dict:
        """One spool path and one generator seed per trace; the seeds of
        different benchmark seeds never overlap."""
        return {
            "paths": [os.path.join(workdir, f"spool{k}.btrace") for k in range(INGEST_PIECES)],
            "seeds": [seed * INGEST_PIECES + k for k in range(INGEST_PIECES)],
        }

    def body(self, inp: dict, ops: Ops) -> dict:
        return {
            "pieces": [
                self._piece(path, seed, f"[{k}]", ops)
                for k, (path, seed) in enumerate(zip(inp["paths"], inp["seeds"]))
            ]
        }

    @staticmethod
    def _piece(path: str, seed: int, tag: str, ops: Ops) -> dict:
        from repro.analysis import analyze_onepass
        from repro.trace import compute_stats, read_binary, read_binary_columns, validate
        from repro.workload import UCBCAD, generate

        out: dict = {}
        out["generation"] = ops.run(
            "generate" + tag, generate, UCBCAD, seed=seed, duration=INGEST_HOURS * 3600, spool=path
        )
        stages = (
            ("log", "read", read_binary, "generation"),
            ("columns", "read_columns", read_binary_columns, "generation"),
            ("report", "validate", validate, "columns"),
            ("stats", "stats", compute_stats, "log"),
            ("analysis", "analyze", analyze_onepass, "columns"),
        )
        for key, op, fn, needs in stages:
            if out[needs] is None:
                ops.fail(op + tag, f"no {needs}")
                out[key] = None
                continue
            arg = path if needs == "generation" else out[needs]
            out[key] = ops.run(op + tag, fn, arg)
        out["rendered"] = None
        if out["analysis"] is not None:
            # The vectorized analyzer defers its object-heavy fields until
            # they are read; rendering the report, as ``repro-fs analyze``
            # does, keeps that work inside the timed body.
            out["rendered"] = ops.run("analyze" + tag, out["analysis"].render)
        return out

    def check(self, out: dict, seed: int, ops: Ops) -> None:
        for k, piece in enumerate(out["pieces"]):
            self._check_piece(piece, f"[{k}]", ops)

    @staticmethod
    def _check_piece(out: dict, tag: str, ops: Ops) -> None:
        gen, log, cols = out["generation"], out["log"], out["columns"]
        report, stats, analysis = out["report"], out["stats"], out["analysis"]
        if report is not None and report.problems:
            ops.fail("validate" + tag, f"{len(report.problems)} problems: {report.problems[0]}")
        counts = {
            op + tag: count(value)
            for op, value, count in (
                ("generate", gen, lambda g: g.events_spooled),
                ("read", log, len),
                ("read_columns", cols, len),
                ("validate", report, lambda r: r.event_count),
                ("stats", stats, lambda s: s.record_count),
            )
            if value is not None
        }
        if len(set(counts.values())) > 1:
            for op in counts:
                ops.fail(op, f"event counts disagree: {counts}")
        if analysis is not None and report is not None:
            # One access per open (creates included) that the trace closes.
            closed = report.open_count - report.unmatched_opens
            if len(analysis.accesses) != closed:
                ops.fail(
                    "analyze" + tag,
                    f"analyzer rebuilt {len(analysis.accesses)} accesses, "
                    f"the validator counts {closed} closed opens",
                )

    def digest(self, out: dict) -> str:
        parts = []
        for piece in out["pieces"]:
            if piece["report"] is not None:
                parts.append(str(piece["report"]))
            if piece["stats"] is not None:
                parts.append(repr(piece["stats"].as_rows()))
            if piece["rendered"] is not None:
                parts.append(piece["rendered"])
        return sha256_text(parts)

    def input_record(self, inp: dict, out: dict) -> tuple[int, str]:
        """The input is the spooled traces the body generated."""
        events, digests = 0, []
        for path, piece in zip(inp["paths"], out.get("pieces", ())):
            gen = piece["generation"]
            if gen is None or not os.path.exists(path):
                return 0, ""
            events += gen.events_spooled
            digests.append(sha256_file(path))
        return events, sha256_text(digests)


WORKLOADS = {w.name: w for w in (Reproduce, Sweep, Ingest)}
