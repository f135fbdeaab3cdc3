"""Engine-parity rules (cross-module, call-graph based).

The repo's fast-path discipline (DESIGN.md §12–13) is a three-way
contract around every ``resolve_engine`` dispatch:

1. the numpy branch calls a convention-named kernel (``*_numpy`` /
   ``Vectorized*``);
2. a pure-Python **oracle twin** remains reachable at
   ``engine="python"`` and on ``VectorFallback``, accepting the same
   knobs (the slow path *is* the spec);
3. a :mod:`repro.fuzz` pillar drives both engines differentially, so
   "bit-identical" stays an enforced property rather than a comment.

Until now only humans checked 2 and 3 at review time.  These rules
check them from the project call graph
(:mod:`repro.statics.callgraph`):

* ``REP-E001`` — structural parity.  Fires when a dispatch function
  has no pure-Python fallback path, when a fast-path kernel takes a
  parameter that neither the dispatcher nor any fallback callee
  accepts (signature drift: a knob the oracle can no longer mirror),
  or when a public convention-named kernel is never referenced from
  any dispatch numpy branch (an orphan fast path nothing can reach).
* ``REP-E002`` — differential coverage.  Fires when no module in the
  fuzz packages calls (or passes by reference) either the dispatch
  function or one of its fast-path kernels.

Both rules are whole-program statements, so they are skipped on scoped
runs (``repro-fs lint --changed``) and ``REP-E002`` additionally
requires at least one fuzz-package module in the scanned set — the
absence of a caller in a partial scan proves nothing.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Iterator

from . import config
from .callgraph import CallGraph, load_or_build
from .findings import Finding, Severity
from .registry import cross_rule

__all__ = ["check_engine_parity", "check_fuzz_coverage", "shared_graph"]

#: One-slot memo so the two cross rules (and tests) share a build per
#: identical file set; keyed by (path, mtime_ns, size) signatures so a
#: rewritten fixture invalidates it.
_memo: dict = {"key": None, "graph": None}


def _stat_key(files: list[Path]) -> tuple:
    sig = []
    for path in files:
        try:
            st = os.stat(path)
            sig.append((str(path), st.st_mtime_ns, st.st_size))
        except OSError:
            sig.append((str(path), -1, -1))
    return tuple(sig)


def shared_graph(files: Iterable[str | Path]) -> CallGraph:
    """The call graph for *files*, memoized across rules in one run."""
    files = sorted({Path(f) for f in files if str(f).endswith(".py")})
    key = _stat_key(files)
    if _memo["key"] != key:
        _memo["graph"] = load_or_build(files, cache=config.CALLGRAPH_CACHE)
        _memo["key"] = key
    return _memo["graph"]


def _is_fast_name(name: str) -> bool:
    base = name.rsplit(".", 1)[-1]
    return base.endswith(tuple(config.FAST_PATH_SUFFIXES)) or base.startswith(
        tuple(config.FAST_PATH_PREFIXES)
    )


def _strip(param: str) -> str:
    return param.lstrip("*")


def _finding(
    path: str, line: int, rule_id: str, message: str
) -> Finding:
    return Finding(
        rule_id=rule_id,
        path=path,
        line=line,
        col=1,
        severity=Severity.ERROR,
        message=message,
    )


def _fast_callees(graph: CallGraph, qname: str) -> list[str]:
    """Resolved convention-named callees inside the numpy branch."""
    out: list[str] = []
    for site in graph.callees_of(qname):
        if site.branch != "numpy" or not site.resolved:
            continue
        sym = graph.symbol(site.callee)
        if sym is not None and _is_fast_name(sym.name) and site.callee not in out:
            out.append(site.callee)
    return out


def check_engine_parity(files: Iterable[str | Path]) -> Iterator[Finding]:
    """``REP-E001``: fallback exists, signatures match, no orphans."""
    graph = shared_graph(files)
    numpy_branch_targets: set[str] = set()
    for dispatch in graph.iter_dispatches():
        if not dispatch.has_fallback:
            yield _finding(
                dispatch.path,
                dispatch.lineno,
                "REP-E001",
                f"`{dispatch.qname}` dispatches to numpy but has no "
                "pure-Python fallback path (no `else` branch and no "
                "trailing statements); the oracle twin is the spec — "
                "keep it reachable",
            )
        # Knobs the python side accepts: the dispatcher's own signature
        # plus everything any fallback-branch callee takes.
        dispatch_sym = graph.symbol(dispatch.qname)
        pool: set[str] = set()
        if dispatch_sym is not None:
            pool.update(_strip(p) for p in dispatch_sym.params)
        for site in graph.callees_of(dispatch.qname):
            if site.branch == "fallback" and site.resolved:
                sym = graph.symbol(site.callee)
                if sym is not None:
                    pool.update(_strip(p) for p in sym.params)
        for fast in _fast_callees(graph, dispatch.qname):
            numpy_branch_targets.add(fast)
            fast_sym = graph.symbol(fast)
            if fast_sym is None:
                continue
            params = [_strip(p) for p in fast_sym.params]
            # The leading positional is the data (columns/stream/packed)
            # and `engine` is the dispatcher's own knob.
            checkable = [p for p in params[1:] if p != "engine"]
            missing = sorted(p for p in checkable if p not in pool)
            if missing:
                yield _finding(
                    dispatch.path,
                    dispatch.lineno,
                    "REP-E001",
                    f"fast path `{fast}` takes parameter(s) "
                    f"{', '.join(missing)} that neither `{dispatch.qname}` "
                    "nor any pure-Python fallback callee accepts; the "
                    "oracle twin's signature has drifted",
                )
    # Orphans: a public convention-named kernel no dispatch can reach.
    if graph.dispatches:
        for site in (s for s in graph.calls if s.branch == "numpy" and s.resolved):
            numpy_branch_targets.add(site.callee)
        for qname, sym in sorted(graph.symbols.items()):
            if sym.kind == "method" or not _is_fast_name(sym.name):
                continue
            if sym.name.rsplit(".", 1)[-1].startswith("_"):
                continue
            if qname not in numpy_branch_targets:
                yield _finding(
                    sym.path,
                    sym.lineno,
                    "REP-E001",
                    f"public fast path `{qname}` is never referenced from "
                    "any `resolve_engine` numpy branch; either wire it "
                    "into a dispatcher or mark it private",
                )


def check_fuzz_coverage(files: Iterable[str | Path]) -> Iterator[Finding]:
    """``REP-E002``: every dispatch pair is driven from a fuzz pillar."""
    graph = shared_graph(files)
    if not any(
        config.in_packages(mod, config.FUZZ_PACKAGES) for mod in graph.modules
    ):
        return  # partial scan: coverage cannot be judged
    for dispatch in graph.iter_dispatches():
        targets = [dispatch.qname, *_fast_callees(graph, dispatch.qname)]
        covered = any(
            config.in_packages(mod, config.FUZZ_PACKAGES)
            for target in targets
            for mod in graph.calling_modules(target)
        )
        if not covered:
            yield _finding(
                dispatch.path,
                dispatch.lineno,
                "REP-E002",
                f"engine dispatch `{dispatch.qname}` has no differential "
                "in any fuzz pillar "
                f"({', '.join(config.FUZZ_PACKAGES)}): neither it nor its "
                "fast path(s) are called there; register an "
                "engine-vs-oracle differential",
            )


@cross_rule("REP-E001", "engine dispatch without a pure-python oracle twin")
def rule_engine_parity(files: Iterable[Path]) -> Iterator[Finding]:
    if config.SCOPED_RUN:
        return
    yield from check_engine_parity(files)


@cross_rule("REP-E002", "engine dispatch without a fuzz differential")
def rule_fuzz_coverage(files: Iterable[Path]) -> Iterator[Finding]:
    if config.SCOPED_RUN:
        return
    yield from check_fuzz_coverage(files)
