"""Run experiments against a trace.

``run_all`` reproduces every registered exhibit; ``run_one`` a single
one.  ``paper_vs_measured`` renders the side-by-side record used in
``EXPERIMENTS.md``.

All three accept ``jobs``: experiment entry points take only a trace, so
the worker count travels as an ambient default
(:func:`~repro.parallel.executor.jobs_context`) that the sweeps beneath
pick up.  ``jobs=None`` runs every sweep job in-process, with the same
results; the derived streams are memoized per trace, so back-to-back
experiments stop rebuilding them either way.
"""

from __future__ import annotations

from ..parallel.executor import jobs_context
from ..trace.log import TraceLog
from .base import REGISTRY, ExperimentResult, all_ids, get

__all__ = ["run_one", "run_all", "paper_vs_measured"]


def run_one(
    experiment_id: str, log: TraceLog, jobs: int | None = None
) -> ExperimentResult:
    """Run one experiment by id."""
    if jobs is None:
        return get(experiment_id).run(log)
    with jobs_context(jobs):
        return get(experiment_id).run(log)


def run_all(log: TraceLog, jobs: int | None = None) -> list[ExperimentResult]:
    """Run every registered experiment, in id order."""
    if jobs is None:
        return [REGISTRY[eid].run(log) for eid in all_ids()]
    with jobs_context(jobs):
        return [REGISTRY[eid].run(log) for eid in all_ids()]


def paper_vs_measured(log: TraceLog, jobs: int | None = None) -> str:
    """Every exhibit with the paper's claim next to our measurement."""
    sections: list[str] = []
    for result in run_all(log, jobs=jobs):
        experiment = REGISTRY[result.experiment_id]
        sections.append(
            "\n".join(
                [
                    f"## {result.experiment_id}: {experiment.title}",
                    "",
                    f"**Paper:** {experiment.paper_claim}",
                    "",
                    "**Measured:**",
                    "```",
                    result.rendered,
                    "```",
                ]
            )
        )
    return "\n\n".join(sections)
