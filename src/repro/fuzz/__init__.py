"""Differential fuzzing and fault injection for the whole pipeline.

The repo's correctness story is a chain of bit-identical pairs: the
event and columnar binary writers, the nine per-module reference
analyzers versus the numpy engine behind
:func:`~repro.analysis.onepass.analyze_onepass`, and
:class:`~repro.cache.simulator.BlockCacheSimulator` versus the packed
replayer and the Mattson LRU stack.  This package turns each asserted
pair into a continuously machine-checked invariant over *generated*
inputs:

* :mod:`repro.fuzz.gen` — one seeded input model (random well-formed
  traces and random-but-valid syscall sequences) shared by the fuzzer
  and the hypothesis property tests;
* :mod:`repro.fuzz.replay` — the kernel oracle: after every fuzzed
  syscall the emitted Table II records must replay to the kernel's own
  logical state, and ``fsck`` must stay clean;
* :mod:`repro.fuzz.oracles` — the differential oracles over trace I/O,
  analysis and cache simulation;
* :mod:`repro.fuzz.faults` — :class:`FaultPlan` corruption of serialized
  traces (truncation, bit flips, header lies) plus netfs fault injection
  (dropped/duplicated RPCs, disk stalls) with a convergence check;
* :mod:`repro.fuzz.corpus` — the out-of-core corpus codec pillar:
  write-path equivalence, bit-exact segment round-trips,
  streamed-vs-in-RAM analyze/validate differentials, and
  :class:`CorpusFaultPlan` corruption schedules;
* :mod:`repro.fuzz.engines` — the vectorized-engine pillar: each numpy
  kernel of :mod:`repro.analysis.vectorized` (analyzer, validator,
  packed-stream compiler) versus its one pure-Python reference (for the
  analyzer, the per-module analyzers that
  :func:`~repro.analysis.onepass.reference_report` assembles), required
  bit-identical;
* :mod:`repro.fuzz.policies` — the replacement-policy pillar: every zoo
  policy (:mod:`repro.cache.replacement`) replayed through the full
  simulator and the packed replayer, the engine dispatcher's two legs,
  and a three-way arc/lru/2q no-reuse oracle, all bit-identical;
* :mod:`repro.fuzz.shrink` — ddmin-style reduction of failing event and
  op sequences, and the on-disk repro corpus;
* :mod:`repro.fuzz.runner` — the budgeted driver behind ``repro-fs
  fuzz``.
"""

from .corpus import (
    CorpusFaultPlan,
    check_corpus_all,
    check_corpus_corruption,
    check_corpus_roundtrip,
    check_corpus_streaming,
)
from .engines import check_engines
from .faults import FaultPlan, NetfsFaults
from .gen import SyscallOp, random_ops, random_trace
from .oracles import Divergence
from .policies import check_policies
from .runner import FuzzConfig, FuzzReport, run_fuzz

__all__ = [
    "CorpusFaultPlan",
    "Divergence",
    "FaultPlan",
    "FuzzConfig",
    "FuzzReport",
    "NetfsFaults",
    "SyscallOp",
    "check_corpus_all",
    "check_corpus_corruption",
    "check_corpus_roundtrip",
    "check_corpus_streaming",
    "check_engines",
    "check_policies",
    "random_ops",
    "random_trace",
    "run_fuzz",
]
