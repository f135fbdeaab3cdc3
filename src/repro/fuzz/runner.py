"""The fuzz driver behind ``repro-fs fuzz``.

One *round* = one seeded burst through all six pillars:

1. generate a random-but-valid syscall sequence, execute it on a fresh
   traced kernel with the :class:`~repro.fuzz.replay.ReplayChecker`
   running after every step, a full validate+reconstruct+fsck check at
   the end;
2. run the differential oracles (I/O, analysis, cache) on the kernel's
   own trace *and* on an independently generated random well-formed
   trace (which exercises event shapes the kernel never emits —
   CreateEvents, orphan closes survive slicing, etc.);
3. corrupt the synthetic trace's serialization per the round's
   :class:`~repro.fuzz.faults.FaultPlan`, and periodically run the netfs
   fault-convergence check;
4. shard the synthetic trace through the out-of-core corpus codec
   (:mod:`repro.fuzz.corpus`): write-path equivalence, bit-exact
   read-back, streamed-vs-in-RAM analyze/validate, and a
   :class:`~repro.fuzz.corpus.CorpusFaultPlan` corruption schedule;
5. compare the vectorized (numpy) analysis engine against its
   pure-Python twin on the synthetic trace (:mod:`repro.fuzz.engines`):
   analyzer, validator (clean and spoiled), and packed-stream compiler,
   all required bit-identical.
6. replay the synthetic trace through every replacement policy in the
   zoo (:mod:`repro.fuzz.policies`): the packed replayer vs the full
   simulator, the engine dispatcher's two legs, and the three-way
   arc/lru/2q no-reuse oracle — all required bit-identical.

Every round is a pure function of ``(seed, round_index)``, so any
failure is replayable; failures are ddmin-shrunk to a minimal event
list or op list and written to the corpus, which later runs replay
first.  The budget counts work items (syscalls executed, events pushed
through oracles, corruption cases) so ``--budget 2000`` means the same
amount of fuzzing on any machine; ``--time-budget`` additionally stops
at a wall-clock deadline for CI jobs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

from ..trace.log import TraceLog
from .corpus import CorpusFaultPlan, check_corpus_all, check_corpus_corruption
from .engines import check_engines_all
from .faults import FaultPlan, check_corruption, check_netfs_convergence
from .gen import SyscallOp, apply_ops, random_ops, random_trace
from .oracles import Divergence, canonicalize_times, check_all
from .policies import check_policies_all
from .replay import ReplayChecker
from .shrink import ddmin, replay_corpus, write_corpus_entry

__all__ = ["FuzzConfig", "FuzzReport", "run_fuzz"]

#: Work items per round, split across the pillars.
OPS_PER_ROUND = 120
EVENTS_PER_ROUND = 120
CORRUPTIONS_PER_ROUND = 16

#: Run the (comparatively slow) netfs convergence oracle every N rounds.
NETFS_EVERY = 8

#: Full validate+fsck cadence during pillar 1, in executed ops.
FULL_CHECK_EVERY = 16


@dataclass
class FuzzConfig:
    """Knobs of one fuzz run (mirrors the CLI flags)."""

    seed: int = 0
    budget: int = 1000
    corpus: str | None = None
    time_budget: float | None = None


@dataclass
class FuzzReport:
    """What a fuzz run did and found."""

    seed: int = 0
    rounds: int = 0
    steps: int = 0  # work items consumed against the budget
    ops_executed: int = 0
    events_checked: int = 0
    corruption_cases: int = 0
    corpus_events: int = 0
    corpus_corruptions: int = 0
    netfs_checks: int = 0
    engine_events: int = 0
    policy_events: int = 0
    corpus_replayed: int = 0
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.divergences)} divergence(s)"
        return (
            f"fuzz: {status}; seed {self.seed}, {self.rounds} rounds, "
            f"{self.steps} steps ({self.ops_executed} syscalls, "
            f"{self.events_checked} events through oracles, "
            f"{self.corruption_cases} corruptions, "
            f"{self.corpus_events} events through the corpus codec, "
            f"{self.corpus_corruptions} corpus corruptions, "
            f"{self.netfs_checks} netfs convergence runs, "
            f"{self.engine_events} events through the engine differential, "
            f"{self.policy_events} events through the policy zoo, "
            f"{self.corpus_replayed} corpus repros replayed)"
        )


def _check_ops(ops: list[SyscallOp]) -> tuple[str, str] | None:
    """Run one op sequence through the kernel with the replay oracle."""
    failure: list[tuple[str, str]] = []

    def on_step(result, op) -> None:
        if failure:
            return
        if checker[0] is None:
            checker[0] = ReplayChecker(result.fs, result.tracer.log)
        chk = checker[0]
        for entry in result.fs.fds.open_files():
            chk.note_entry(entry)
        if result.executed % FULL_CHECK_EVERY == 0:
            detail = chk.check_full()
        else:
            detail = chk.check_step()
        if detail is not None:
            failure.append(("replay", detail))

    checker: list[ReplayChecker | None] = [None]
    result = apply_ops(ops, on_step=on_step)
    if failure:
        return failure[0]
    if checker[0] is not None:
        detail = checker[0].check_full()
        if detail is not None:
            return ("replay", detail)
    # The kernel's own trace must satisfy the differential oracles too.
    kernel_log = canonicalize_times(result.tracer.log)
    return check_all(kernel_log)


def _shrink_ops(
    ops: list[SyscallOp], pillar: str
) -> tuple[list[SyscallOp], str]:
    def still_fails(candidate: list[SyscallOp]) -> bool:
        result = _check_ops(candidate)
        return result is not None and result[0] == pillar

    shrunk = ddmin(ops, still_fails)
    result = _check_ops(shrunk)
    detail = result[1] if result is not None else "shrunk repro stopped failing"
    return shrunk, detail


def _shrink_events(
    events: list, pillar: str, check: Callable = check_all
) -> tuple[list, str]:
    def still_fails(candidate: list) -> bool:
        result = check(TraceLog(name="shrink", events=candidate))
        return result is not None and result[0] == pillar

    shrunk = ddmin(events, still_fails)
    result = check(TraceLog(name="shrink", events=shrunk))
    detail = result[1] if result is not None else "shrunk repro stopped failing"
    return shrunk, detail


def run_fuzz(
    config: FuzzConfig,
    progress: Callable[[str], None] | None = None,
) -> FuzzReport:
    """Run the full harness until the budget (or deadline) is spent."""
    report = FuzzReport(seed=config.seed)
    say = progress if progress is not None else lambda _msg: None
    deadline = None
    if config.time_budget is not None:
        # Wall-clock deadline for CI jobs; the fuzzed inputs themselves
        # remain pure functions of (seed, round).
        deadline = time.monotonic() + config.time_budget  # repro: allow[REP-D001] -- CI budget knob, never reaches generated inputs

    def out_of_budget() -> bool:
        if report.steps >= config.budget:
            return True
        return deadline is not None and time.monotonic() > deadline  # repro: allow[REP-D001] -- CI budget knob, never reaches generated inputs

    # -- corpus first: yesterday's repros are today's regression tests ----------
    if config.corpus:
        replayed, failing = replay_corpus(
            config.corpus,
            check_events=lambda log: (
                check_all(canonicalize_times(log))
                or check_corpus_all(canonicalize_times(log))
                or check_engines_all(canonicalize_times(log))
                or check_policies_all(canonicalize_times(log))
            ),
            check_ops=_check_ops,
        )
        report.corpus_replayed = replayed
        for name, pillar, detail in failing:
            report.divergences.append(
                Divergence(
                    pillar=pillar,
                    detail=detail,
                    seed=f"corpus:{name}",
                    corpus_entry=name,
                )
            )
        if replayed:
            say(
                f"corpus: {replayed} repro(s) replayed, "
                f"{len(failing)} still failing"
            )

    # -- rounds ------------------------------------------------------------------
    round_index = 0
    while not out_of_budget():
        round_index += 1
        report.rounds = round_index
        round_seed = f"{config.seed}:{round_index}"

        # Pillar 1: syscall fuzzing under the replay oracle.
        ops = random_ops(random.Random(f"ops:{round_seed}"), OPS_PER_ROUND)
        result = _check_ops(ops)
        report.ops_executed += len(ops)
        report.steps += len(ops)
        if result is not None:
            pillar, detail = result
            say(f"round {round_index}: FAIL [{pillar}] {detail}; shrinking ...")
            shrunk, detail = _shrink_ops(ops, pillar)
            entry = None
            if config.corpus:
                entry = write_corpus_entry(
                    config.corpus,
                    name=f"ops-{config.seed}-{round_index}",
                    pillar=pillar,
                    detail=detail,
                    seed=round_seed,
                    ops=shrunk,
                )
            report.divergences.append(
                Divergence(
                    pillar=pillar,
                    detail=detail,
                    seed=round_seed,
                    shrunk_ops=len(shrunk),
                    corpus_entry=entry,
                )
            )

        if out_of_budget():
            break

        # Pillar 2: differential oracles on an independent synthetic trace.
        synthetic = random_trace(
            random.Random(f"trace:{round_seed}"), EVENTS_PER_ROUND
        )
        result = check_all(synthetic)
        report.events_checked += len(synthetic.events)
        report.steps += len(synthetic.events)
        if result is not None:
            pillar, detail = result
            say(f"round {round_index}: FAIL [{pillar}] {detail}; shrinking ...")
            shrunk, detail = _shrink_events(list(synthetic.events), pillar)
            entry = None
            if config.corpus:
                entry = write_corpus_entry(
                    config.corpus,
                    name=f"trace-{config.seed}-{round_index}",
                    pillar=pillar,
                    detail=detail,
                    seed=round_seed,
                    events=shrunk,
                )
            report.divergences.append(
                Divergence(
                    pillar=pillar,
                    detail=detail,
                    seed=round_seed,
                    shrunk_events=len(shrunk),
                    corpus_entry=entry,
                )
            )

        # Pillar 3: corrupted artifacts must be rejected, not crash.
        plan = FaultPlan(seed=round_seed, cases=CORRUPTIONS_PER_ROUND)
        detail, cases = check_corruption(synthetic, plan)
        report.corruption_cases += cases
        report.steps += cases
        if detail is not None:
            entry = None
            if config.corpus:
                entry = write_corpus_entry(
                    config.corpus,
                    name=f"fault-{config.seed}-{round_index}",
                    pillar="fault",
                    detail=detail,
                    seed=round_seed,
                    events=list(synthetic.events),
                )
            report.divergences.append(
                Divergence(
                    pillar="fault",
                    detail=detail,
                    seed=round_seed,
                    corpus_entry=entry,
                )
            )

        # Pillar 4: the out-of-core corpus codec, on the same synthetic
        # trace — write-path equivalence, streamed-vs-in-RAM
        # differentials, then its own corruption schedule.
        result = check_corpus_all(synthetic)
        report.corpus_events += len(synthetic.events)
        report.steps += len(synthetic.events)
        if result is not None:
            pillar, detail = result
            say(f"round {round_index}: FAIL [{pillar}] {detail}; shrinking ...")
            shrunk, detail = _shrink_events(
                list(synthetic.events), pillar, check=check_corpus_all
            )
            entry = None
            if config.corpus:
                entry = write_corpus_entry(
                    config.corpus,
                    name=f"corpus-{config.seed}-{round_index}",
                    pillar=pillar,
                    detail=detail,
                    seed=round_seed,
                    events=shrunk,
                )
            report.divergences.append(
                Divergence(
                    pillar=pillar,
                    detail=detail,
                    seed=round_seed,
                    shrunk_events=len(shrunk),
                    corpus_entry=entry,
                )
            )

        corpus_plan = CorpusFaultPlan(seed=round_seed, cases=CORRUPTIONS_PER_ROUND)
        detail, cases = check_corpus_corruption(synthetic, corpus_plan)
        report.corpus_corruptions += cases
        report.steps += cases
        if detail is not None:
            entry = None
            if config.corpus:
                entry = write_corpus_entry(
                    config.corpus,
                    name=f"corpus-fault-{config.seed}-{round_index}",
                    pillar="corpus",
                    detail=detail,
                    seed=round_seed,
                    events=list(synthetic.events),
                )
            report.divergences.append(
                Divergence(
                    pillar="corpus",
                    detail=detail,
                    seed=round_seed,
                    corpus_entry=entry,
                )
            )

        # Pillar 5: the vectorized engine vs the pure-Python reference,
        # on the same synthetic trace.
        check = lambda log: check_engines_all(log, seed=round_seed)  # noqa: E731
        result = check(synthetic)
        report.engine_events += len(synthetic.events)
        report.steps += len(synthetic.events)
        if result is not None:
            pillar, detail = result
            say(f"round {round_index}: FAIL [{pillar}] {detail}; shrinking ...")
            shrunk, detail = _shrink_events(
                list(synthetic.events), pillar, check=check
            )
            entry = None
            if config.corpus:
                entry = write_corpus_entry(
                    config.corpus,
                    name=f"engine-{config.seed}-{round_index}",
                    pillar=pillar,
                    detail=detail,
                    seed=round_seed,
                    events=shrunk,
                )
            report.divergences.append(
                Divergence(
                    pillar=pillar,
                    detail=detail,
                    seed=round_seed,
                    shrunk_events=len(shrunk),
                    corpus_entry=entry,
                )
            )

        # Pillar 6: the replacement-policy zoo — every policy replayed
        # through the full simulator and the packed replayer (plus the
        # engine dispatcher and the no-reuse arc/lru/2q oracle).
        policy_check = lambda log: check_policies_all(log, seed=round_seed)  # noqa: E731
        result = policy_check(synthetic)
        report.policy_events += len(synthetic.events)
        report.steps += len(synthetic.events)
        if result is not None:
            pillar, detail = result
            say(f"round {round_index}: FAIL [{pillar}] {detail}; shrinking ...")
            shrunk, detail = _shrink_events(
                list(synthetic.events), pillar, check=policy_check
            )
            entry = None
            if config.corpus:
                entry = write_corpus_entry(
                    config.corpus,
                    name=f"policy-{config.seed}-{round_index}",
                    pillar=pillar,
                    detail=detail,
                    seed=round_seed,
                    events=shrunk,
                )
            report.divergences.append(
                Divergence(
                    pillar=pillar,
                    detail=detail,
                    seed=round_seed,
                    shrunk_events=len(shrunk),
                    corpus_entry=entry,
                )
            )

        # Pillar 3, network half: lossy RPC must converge (periodically —
        # the event-loop run is the most expensive oracle here).
        if round_index % NETFS_EVERY == 1:
            detail = check_netfs_convergence(synthetic, seed=config.seed)
            report.netfs_checks += 1
            report.steps += len(synthetic.events)
            if detail is not None:
                report.divergences.append(
                    Divergence(pillar="netfs", detail=detail, seed=round_seed)
                )

        if round_index % 10 == 0:
            say(
                f"round {round_index}: {report.steps}/{config.budget} steps, "
                f"{len(report.divergences)} divergence(s)"
            )

    say(report.summary())
    return report
