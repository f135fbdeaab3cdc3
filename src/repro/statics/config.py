"""Scope lists for the domain rules.

The linter encodes *this repository's* invariants, so the scopes are
named here rather than guessed per file.  Rules consult these tuples via
:func:`in_packages`; tests monkeypatch them to point at fixture modules.
"""

from __future__ import annotations

__all__ = [
    "DETERMINISM_PACKAGES",
    "ORDER_PINNED_PACKAGES",
    "SIMULATOR_PACKAGES",
    "HOT_MODULES",
    "TRACE_COLUMN_ATTRS",
    "PACKED_COLUMN_ATTRS",
    "COLUMN_ATTRS",
    "COLUMN_ORACLE_MODULES",
    "COLUMN_RULE_EXEMPT_PACKAGES",
    "UNIT_PACKAGES",
    "RNG_PARAM_NAMES",
    "ENGINE_GATE_NAMES",
    "FAST_PATH_SUFFIXES",
    "FAST_PATH_PREFIXES",
    "FUZZ_PACKAGES",
    "CALLGRAPH_CACHE",
    "SCOPED_RUN",
    "apply_overrides",
    "in_packages",
]

#: Packages whose output is pinned by differential oracles and the
#: paper-figure reproductions: wall-clock reads and unseeded randomness
#: here silently corrupt Figures between runs.
DETERMINISM_PACKAGES: tuple[str, ...] = (
    "repro.unixfs",
    "repro.cache",
    "repro.netfs",
    "repro.workload",
    "repro.analysis",
    "repro.fuzz",  # every failure must be replayable from (seed, round)
)

#: Packages whose *iteration order* feeds bit-identical comparisons
#: (the one-pass analyzer and packed replayer are pinned to reference
#: modules field by field).  Iterating a bare ``set`` there trades on
#: hash order.
ORDER_PINNED_PACKAGES: tuple[str, ...] = DETERMINISM_PACKAGES + (
    "repro.parallel",
    "repro.trace",
)

#: Simulator code where a float ``==``/``!=`` is a latent epsilon bug:
#: simulated clocks are sums of float intervals.
SIMULATOR_PACKAGES: tuple[str, ...] = (
    "repro.cache",
    "repro.netfs",
    "repro.disk",
    "repro.parallel",
)

#: Modules on replay/simulation hot paths: every class here must declare
#: ``__slots__`` (directly or via ``@dataclass(slots=True)``) so
#: per-instance dicts never show up millions of times in a sweep.
HOT_MODULES: tuple[str, ...] = (
    "repro.cache.replacement",
    "repro.cache.simulator",
    "repro.cache.stream",
    "repro.parallel.packed",
    "repro.netfs.events",
    "repro.trace.columns",
    "repro.trace.records",
)


#: The eight column attributes of ``TraceColumns`` (the struct-of-arrays
#: row layout shared with ``.bcorpus`` segments and the numpy views).
TRACE_COLUMN_ATTRS: frozenset[str] = frozenset(
    {
        "kinds",
        "times",
        "open_ids",
        "file_ids",
        "user_ids",
        "sizes",
        "positions",
        "flags",
    }
)

#: The flat columns of ``PackedStream`` (one row per block access or
#: invalidation).  ``times`` is shared with the trace layout above, so
#: only the two packed-specific names are listed; together they widen
#: ``REP-H003`` to the cache-simulation half (:mod:`repro.parallel`),
#: where a new per-op Python loop outside the oracle modules is exactly
#: the regression the vectorized engine exists to prevent.
PACKED_COLUMN_ATTRS: frozenset[str] = frozenset({"ops", "keys"})

#: Every column attribute ``REP-H003`` tracks (trace + packed layouts).
COLUMN_ATTRS: frozenset[str] = TRACE_COLUMN_ATTRS | PACKED_COLUMN_ATTRS

#: Modules allowed to loop row-at-a-time over trace columns: the
#: columnar store and codecs themselves, plus the pure-Python reference
#: implementations the vectorized engine is differenced against (the
#: oracle discipline of DESIGN.md — the slow path must stay readable
#: and row-at-a-time *because* it is the spec).  Everywhere else a
#: per-event loop over a column is a latent hot-path regression: route
#: it through :mod:`repro.analysis.vectorized` or justify it with a
#: ``repro: allow[REP-H003]`` comment.
COLUMN_ORACLE_MODULES: tuple[str, ...] = (
    "repro.analysis.onepass",
    "repro.corpus.reader",
    "repro.corpus.stream",
    "repro.corpus.writer",
    "repro.parallel.packed",
    "repro.trace.columns",
    "repro.trace.io_binary",
    "repro.trace.validate",
)


#: Packages ``REP-H003`` skips outright.  The linter itself walks
#: Python ASTs, whose node fields (``ast.Compare.ops``,
#: ``ast.Dict.keys``) collide with the packed-stream column names —
#: and nothing in it ever touches a trace.
COLUMN_RULE_EXEMPT_PACKAGES: tuple[str, ...] = ("repro.statics",)


#: Packages where the unit-taint rule (``REP-U001``) runs: the codecs
#: and corpus layers, where u32-centisecond columns (the on-disk and
#: packed layouts) meet float-seconds event times.  Mixing the two in
#: an arithmetic or comparison expression without an explicit
#: ``* 100`` / ``/ 100`` conversion is exactly the overflow class the
#: fuzzer once found dynamically in ``read_binary_columns``.
UNIT_PACKAGES: tuple[str, ...] = (
    "repro.trace",
    "repro.corpus",
)

#: Parameter names the RNG-taint lattice treats as a *seeded* generator
#: handed in by the caller (the repo's convention for threading
#: determinism).  Annotations mentioning Random/Generator count too.
RNG_PARAM_NAMES: tuple[str, ...] = ("rng", "rnd", "prng", "generator")

#: Functions whose ``== "numpy"`` comparison marks an engine-dispatch
#: gate for the call graph (matched on the last dotted segment).
ENGINE_GATE_NAMES: tuple[str, ...] = ("resolve_engine",)

#: Naming conventions for vectorized fast paths; the engine-parity
#: rules pair every ``*_numpy`` function / ``Vectorized*`` class with
#: its pure-Python oracle twin via the dispatch sites.
FAST_PATH_SUFFIXES: tuple[str, ...] = ("_numpy",)
FAST_PATH_PREFIXES: tuple[str, ...] = ("Vectorized",)

#: Packages that count as differential coverage for ``REP-E002``: each
#: dispatch pair must be driven from here (the fuzz pillars).
FUZZ_PACKAGES: tuple[str, ...] = ("repro.fuzz",)

#: Where the cross-module rules persist per-file call-graph facts
#: between runs (``repro-fs lint --callgraph-cache``); ``None`` means
#: rebuild from scratch every run.
CALLGRAPH_CACHE: str | None = None

#: True while the engine runs on a subset of the tree (``--changed``).
#: Whole-program rules (stale suppressions, engine parity) are skipped
#: then: absence of a caller in a partial scan proves nothing.
SCOPED_RUN: bool = False


#: ``[tool.repro.statics]`` keys the CLI may map onto this module, with
#: the expected shape ("str_tuple" coerces a list of strings).
_OVERRIDABLE: dict[str, str] = {
    "determinism_packages": "DETERMINISM_PACKAGES",
    "unit_packages": "UNIT_PACKAGES",
    "rng_param_names": "RNG_PARAM_NAMES",
    "engine_gate_names": "ENGINE_GATE_NAMES",
    "fast_path_suffixes": "FAST_PATH_SUFFIXES",
    "fast_path_prefixes": "FAST_PATH_PREFIXES",
    "fuzz_packages": "FUZZ_PACKAGES",
    "hot_modules": "HOT_MODULES",
    "column_oracle_modules": "COLUMN_ORACLE_MODULES",
    "callgraph_cache": "CALLGRAPH_CACHE",
    "scoped_run": "SCOPED_RUN",
}


def apply_overrides(overrides: dict[str, object]) -> dict[str, object]:
    """Apply ``[tool.repro.statics]`` lattice/scope overrides.

    Returns the previous values so callers can restore them (the engine
    applies overrides around one run, not process-wide).  Unknown keys
    raise ``ValueError`` rather than being silently ignored: a typo in
    pyproject.toml should not quietly disable a rule family.
    """
    saved: dict[str, object] = {}
    module = globals()
    for key, value in overrides.items():
        attr = _OVERRIDABLE.get(key)
        if attr is None:
            raise ValueError(f"unknown [tool.repro.statics] option: {key!r}")
        if attr == "CALLGRAPH_CACHE":
            if value is not None and not isinstance(value, str):
                raise ValueError("callgraph_cache must be a string path")
        elif attr == "SCOPED_RUN":
            if not isinstance(value, bool):
                raise ValueError("scoped_run must be a boolean")
        else:
            if isinstance(value, str) or not isinstance(value, (list, tuple)):
                raise ValueError(f"{key} must be a list of strings")
            if not all(isinstance(item, str) for item in value):
                raise ValueError(f"{key} must be a list of strings")
            value = tuple(value)
        saved[attr] = module[attr]
        module[attr] = value
    return saved


def restore(saved: dict[str, object]) -> None:
    """Undo :func:`apply_overrides` using its return value."""
    globals().update(saved)


def in_packages(module: str, packages: tuple[str, ...]) -> bool:
    """True when dotted *module* is one of *packages* or inside one."""
    return any(
        module == pkg or module.startswith(pkg + ".") for pkg in packages
    )
