"""Tests for repro.statics — the AST-based invariant linter.

Every rule gets both true-positive fixtures (the violation fires) and
false-positive traps (the idiomatic fix does not).  Fixture files are
written under a ``repro/<pkg>/`` directory inside tmp_path so
:func:`module_name_for` maps them into the scoped packages the rules
guard; files written at the tmp root land outside every scope.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.cli.main import main
from repro.statics import (
    check_corpus_schema,
    check_trace_schema,
    collect_files,
    config,
    lint_paths,
    load_baseline,
    render_json,
    render_text,
    rule_catalog,
    write_baseline,
)
from repro.statics.context import ModuleContext, module_name_for

REPO_SRC = Path(__file__).resolve().parents[1] / "src"
TRACE_DIR = REPO_SRC / "repro" / "trace"


def _write(root: Path, relpath: str, source: str) -> Path:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def _lint_source(tmp_path: Path, relpath: str, source: str):
    return lint_paths([_write(tmp_path, relpath, source)])


def _rule_ids(report) -> list[str]:
    return [f.rule_id for f in report.findings]


# -- context / scoping ------------------------------------------------------


def test_module_name_anchored_at_repro(tmp_path):
    path = _write(tmp_path, "repro/cache/mod.py", "x = 1\n")
    assert module_name_for(path) == "repro.cache.mod"
    init = _write(tmp_path, "repro/cache/__init__.py", "")
    assert module_name_for(init) == "repro.cache"
    outside = _write(tmp_path, "helper.py", "x = 1\n")
    assert module_name_for(outside) == "helper"


def test_import_alias_resolution(tmp_path):
    ctx = ModuleContext(
        tmp_path / "m.py",
        "import random as rnd\nfrom time import time as now\n",
    )
    import ast

    assert ctx.resolve(ast.parse("rnd.random", mode="eval").body) == (
        "random.random"
    )
    assert ctx.resolve(ast.parse("now", mode="eval").body) == "time.time"
    # Chains rooted at runtime values do not resolve.
    assert ctx.resolve(ast.parse("self.rng.random", mode="eval").body) is None


def test_collect_files_skips_pycache_and_dedupes(tmp_path):
    _write(tmp_path, "pkg/a.py", "x = 1\n")
    _write(tmp_path, "pkg/__pycache__/a.py", "x = 1\n")
    files = collect_files([tmp_path, tmp_path / "pkg" / "a.py"])
    assert [f.name for f in files] == ["a.py"]


def test_rule_catalog_covers_documented_ids():
    ids = {rule_id for rule_id, _severity, _title in rule_catalog()}
    assert {
        "REP-D001",
        "REP-D002",
        "REP-D003",
        "REP-P001",
        "REP-P002",
        "REP-H001",
        "REP-H002",
        "REP-H003",
        "REP-S001",
        "REP-S002",
        "REP-A000",
    } <= ids


# -- REP-D001: wall clock ---------------------------------------------------


def test_wall_clock_flagged_in_scope(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cache/clocky.py",
        "import time\n\ndef f():\n    return time.time()\n",
    )
    assert _rule_ids(report) == ["REP-D001"]
    assert "repro.clock" in report.findings[0].message


def test_wall_clock_alias_and_from_import_flagged(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/netfs/clocky.py",
        "import time as t\nfrom datetime import datetime\n"
        "a = t.monotonic()\nb = datetime.now()\n",
    )
    assert _rule_ids(report) == ["REP-D001", "REP-D001"]


def test_wall_clock_ignored_outside_scope(tmp_path):
    report = _lint_source(
        tmp_path, "bench.py", "import time\nstart = time.time()\n"
    )
    assert report.ok


# -- REP-D002: unseeded randomness ------------------------------------------


def test_module_level_random_flagged(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/workload/rand.py",
        "import random\nx = random.random()\n",
    )
    assert _rule_ids(report) == ["REP-D002"]


def test_unseeded_random_instance_flagged(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/workload/rand.py",
        "import random\nrng = random.Random()\n",
    )
    assert _rule_ids(report) == ["REP-D002"]


def test_seeded_random_instance_is_not_flagged(tmp_path):
    # The canonical false-positive trap: the *fix* must lint clean.
    report = _lint_source(
        tmp_path,
        "repro/workload/rand.py",
        "import random\nrng = random.Random(42)\nx = rng.random()\n",
    )
    assert report.ok


def test_system_random_always_flagged(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cache/rand.py",
        "import random\nrng = random.SystemRandom()\n",
    )
    assert _rule_ids(report) == ["REP-D002"]
    assert "never be" in report.findings[0].message


# -- REP-D003: hash-order iteration -----------------------------------------


def test_for_over_set_literal_flagged(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/parallel/iter.py",
        "for x in {1, 2, 3}:\n    print(x)\n",
    )
    assert _rule_ids(report) == ["REP-D003"]


def test_for_over_inferred_set_name_flagged(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/trace/iter.py",
        "def f(live: set):\n    out = []\n"
        "    for k in live:\n        out.append(k)\n    return out\n",
    )
    assert _rule_ids(report) == ["REP-D003"]


def test_comprehension_over_set_flagged(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cache/iter.py",
        "s = {1, 2}\ndoomed = [k for k in s if k > 1]\n",
    )
    assert _rule_ids(report) == ["REP-D003"]


def test_sorted_wrapped_set_iteration_is_not_flagged(tmp_path):
    # The idiomatic fix — sorted(...) around the comprehension — and a
    # set comprehension (orderless result) must both pass.
    report = _lint_source(
        tmp_path,
        "repro/cache/iter.py",
        "s = {1, 2}\n"
        "doomed = sorted(k for k in s if k > 1)\n"
        "total = sum(k for k in s)\n"
        "alive = {k for k in s if k > 0}\n",
    )
    assert report.ok


def test_bare_popitem_flagged_but_directed_popitem_passes(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/unixfs/lru.py",
        "from collections import OrderedDict\n"
        "d = OrderedDict()\n"
        "def evict():\n    return d.popitem(last=False)\n"
        "def bad():\n    return d.popitem()\n",
    )
    assert _rule_ids(report) == ["REP-D003"]
    assert report.findings[0].line == 6


def test_set_iteration_ignored_outside_order_pinned_scope(tmp_path):
    report = _lint_source(
        tmp_path, "script.py", "for x in {1, 2}:\n    print(x)\n"
    )
    assert report.ok


# -- REP-P001: unpicklable workers ------------------------------------------


def test_lambda_worker_flagged(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cli/sweepy.py",
        "from repro.parallel.executor import run_jobs\n"
        "results = run_jobs(lambda job, payload: job, [1], None)\n",
    )
    assert _rule_ids(report) == ["REP-P001"]
    assert "lambda" in report.findings[0].message


def test_nested_function_worker_flagged(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cli/sweepy.py",
        "from repro.parallel.executor import run_jobs\n"
        "def sweep(jobs):\n"
        "    def work(job, payload):\n        return job\n"
        "    return run_jobs(work, jobs, None)\n",
    )
    assert _rule_ids(report) == ["REP-P001"]
    assert "closure" in report.findings[0].message


def test_bound_method_worker_flagged(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cli/sweepy.py",
        "from repro.parallel import executor\n"
        "class Sweep:\n"
        "    def work(self, job, payload):\n        return job\n"
        "    def run(self, jobs):\n"
        "        return executor.run_jobs(self.work, jobs, None)\n",
    )
    assert _rule_ids(report) == ["REP-P001"]
    assert "bound method" in report.findings[0].message


def test_module_level_worker_passes(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cli/sweepy.py",
        "from repro.parallel.executor import run_jobs\n"
        "def work(job, payload):\n    return job\n"
        "def sweep(jobs):\n    return run_jobs(work, jobs, None)\n",
    )
    assert report.ok


def test_partial_over_lambda_flagged(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cli/sweepy.py",
        "import functools\n"
        "from repro.parallel.executor import run_jobs\n"
        "r = run_jobs(functools.partial(lambda j, p: j), [1], None)\n",
    )
    assert _rule_ids(report) == ["REP-P001"]


# -- REP-P002: worker global mutation ---------------------------------------


def test_worker_assigning_global_flagged(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cli/sweepy.py",
        "from repro.parallel.executor import run_jobs\n"
        "TOTAL = 0\n"
        "def work(job, payload):\n"
        "    global TOTAL\n    TOTAL = TOTAL + job\n    return job\n"
        "r = run_jobs(work, [1], None)\n",
    )
    assert _rule_ids(report) == ["REP-P002"]


def test_worker_mutating_module_container_flagged(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cli/sweepy.py",
        "from repro.parallel.executor import run_jobs\n"
        "RESULTS = []\n"
        "def work(job, payload):\n    RESULTS.append(job)\n    return job\n"
        "r = run_jobs(work, [1], None)\n",
    )
    assert _rule_ids(report) == ["REP-P002"]


def test_worker_returning_results_passes(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cli/sweepy.py",
        "from repro.parallel.executor import run_jobs\n"
        "def work(job, payload):\n    local = []\n"
        "    local.append(job)\n    return local\n"
        "r = run_jobs(work, [1], None)\n",
    )
    assert report.ok


# -- REP-H001 / REP-H002: hot-path hygiene ----------------------------------


@pytest.fixture
def hot_fixture_module(monkeypatch):
    monkeypatch.setattr(
        config, "HOT_MODULES", config.HOT_MODULES + ("repro.cache.hotfix",)
    )
    return "repro/cache/hotfix.py"


def test_hot_class_without_slots_warned(tmp_path, hot_fixture_module):
    report = _lint_source(
        tmp_path,
        hot_fixture_module,
        "class Entry:\n    def __init__(self):\n        self.x = 1\n",
    )
    assert _rule_ids(report) == ["REP-H001"]
    assert report.findings[0].severity.value == "warning"


def test_slots_and_slotted_dataclass_pass(tmp_path, hot_fixture_module):
    report = _lint_source(
        tmp_path,
        hot_fixture_module,
        "from dataclasses import dataclass\n"
        "class Entry:\n    __slots__ = ('x',)\n"
        "@dataclass(frozen=True, slots=True)\n"
        "class Row:\n    x: int\n"
        "class BadTrace(ValueError):\n    pass\n",
    )
    assert report.ok


def test_float_equality_flagged_in_simulator_code(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/netfs/srv.py",
        "def due(t):\n    return t == 1.5\n",
    )
    assert _rule_ids(report) == ["REP-H002"]


def test_int_equality_and_out_of_scope_float_pass(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/netfs/srv.py",
        "def due(t):\n    return t == 1\n",
    )
    assert report.ok
    report = _lint_source(
        tmp_path, "plot.py", "ok = 0.5 == x\n" "x = 1.0\n"
    )
    assert report.ok


# -- suppressions and REP-A000 ----------------------------------------------


def test_same_line_suppression_with_justification(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cache/clocky.py",
        "import time\n"
        "t0 = time.time()  # repro: allow[REP-D001] -- progress logging only\n",
    )
    assert report.ok
    assert report.suppressed_count == 1
    assert report.suppressed[0].rule_id == "REP-D001"
    assert "progress logging" in report.suppressed[0].suppressed_by


def test_preceding_line_suppression(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cache/clocky.py",
        "import time\n"
        "# repro: allow[REP-D001] -- wall time reported to the user\n"
        "t0 = time.time()\n",
    )
    assert report.ok
    assert report.suppressed_count == 1


def test_suppression_without_justification_is_an_error(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cache/clocky.py",
        "import time\nt0 = time.time()  # repro: allow[REP-D001]\n",
    )
    assert "REP-A000" in _rule_ids(report)


def test_suppression_naming_unknown_rule_is_an_error(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cache/clocky.py",
        "x = 1  # repro: allow[REP-X999] -- does not exist\n",
    )
    assert _rule_ids(report) == ["REP-A000"]
    assert "REP-X999" in report.findings[0].message


def test_suppression_for_other_rule_does_not_mask(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cache/clocky.py",
        "import time\n"
        "t0 = time.time()  # repro: allow[REP-D002] -- wrong rule id\n",
    )
    assert "REP-D001" in _rule_ids(report)


# -- baseline ---------------------------------------------------------------


def test_baseline_round_trip_and_grandfathering(tmp_path):
    fixture = _write(
        tmp_path,
        "repro/cache/clocky.py",
        "import time\nt0 = time.time()\n",
    )
    first = lint_paths([fixture])
    assert not first.ok

    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, first.findings)
    fingerprints = load_baseline(baseline_path)
    assert fingerprints == {f.fingerprint for f in first.findings}

    second = lint_paths([fixture], baseline=fingerprints)
    assert second.ok
    assert second.baselined_count == 1

    # A *new* finding still fails against the old baseline.
    fixture.write_text(
        "import time\nt0 = time.time()\nt1 = time.monotonic()\n",
        encoding="utf-8",
    )
    third = lint_paths([fixture], baseline=fingerprints)
    assert not third.ok
    assert third.baselined_count == 1
    assert len(third.findings) == 1


def test_fingerprint_survives_line_shifts(tmp_path):
    fixture = _write(
        tmp_path, "repro/cache/clocky.py", "import time\nt0 = time.time()\n"
    )
    before = lint_paths([fixture]).findings[0].fingerprint
    fixture.write_text(
        "import time\n\n\n# pushed down\nt0 = time.time()\n", encoding="utf-8"
    )
    after = lint_paths([fixture]).findings[0].fingerprint
    assert before == after


# -- reporters and engine ---------------------------------------------------


def test_text_reporter_mentions_rule_and_location(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cache/clocky.py",
        "import time\nt0 = time.time()\n",
    )
    text = render_text(report)
    assert "REP-D001" in text
    assert "clocky.py:2" in text
    assert "1 error(s)" in text


def test_json_reporter_is_machine_readable(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cache/clocky.py",
        "import time\nt0 = time.time()\n",
    )
    payload = json.loads(render_json(report))
    assert payload["files_scanned"] == 1
    (finding,) = payload["findings"]
    assert finding["rule"] == "REP-D001"
    assert finding["severity"] == "error"
    assert finding["line"] == 2
    assert finding["fingerprint"]


def test_unparsable_file_reported_not_crashed(tmp_path):
    report = _lint_source(tmp_path, "repro/cache/broken.py", "def f(:\n")
    assert _rule_ids(report) == ["REP-A002"]
    assert "parse" in report.findings[0].message


# -- CLI --------------------------------------------------------------------


def test_cli_lint_exit_codes(tmp_path, capsys):
    clean = _write(tmp_path, "clean/repro/cache/mod.py", "x = 1\n")
    dirty = _write(
        tmp_path,
        "dirty/repro/cache/mod.py",
        "import time\nt0 = time.time()\n",
    )
    assert main(["lint", str(clean.parent)]) == 0
    assert main(["lint", str(dirty.parent)]) == 1
    out = capsys.readouterr().out
    assert "REP-D001" in out


def test_cli_lint_json_and_baseline_flow(tmp_path, capsys):
    dirty = _write(
        tmp_path,
        "repro/cache/mod.py",
        "import time\nt0 = time.time()\n",
    )
    baseline = tmp_path / "baseline.json"
    assert main(
        ["lint", str(dirty), "--write-baseline", str(baseline)]
    ) == 0
    capsys.readouterr()
    rc = main(
        ["lint", str(dirty), "--baseline", str(baseline), "--format", "json"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["baselined"] == 1
    assert payload["findings"] == []


def test_cli_lint_reads_pyproject_defaults(tmp_path, monkeypatch, capsys):
    # With no paths/--baseline on the command line, [tool.repro.statics]
    # in the nearest pyproject.toml supplies both (3.11+; on 3.10 the
    # config is skipped and the default `src` path scans nothing here —
    # either way the run is clean).
    _write(
        tmp_path,
        "pyproject.toml",
        "[tool.repro.statics]\n"
        'baseline = "lint-baseline.json"\n'
        'paths = ["code"]\n',
    )
    dirty = _write(
        tmp_path,
        "code/repro/cache/mod.py",
        "import time\nt0 = time.time()\n",
    )
    monkeypatch.chdir(tmp_path)
    assert main(
        ["lint", str(dirty), "--write-baseline", "lint-baseline.json"]
    ) == 0
    capsys.readouterr()
    assert main(["lint", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    try:
        import tomllib  # noqa: F401
    except ImportError:
        return
    assert payload["files_scanned"] == 1
    assert payload["baselined"] == 1


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "REP-D001" in out and "REP-S001" in out


# -- REP-H003: per-event loops over trace columns ---------------------------


def test_column_loop_flagged_outside_oracles(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/analysis/hotloop.py",
        "def f(cols):\n    for t in cols.times:\n        print(t)\n",
    )
    assert _rule_ids(report) == ["REP-H003"]
    assert report.findings[0].severity.value == "warning"


def test_column_loop_through_alias_and_range_len_flagged(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/analysis/hotloop.py",
        "def f(cols):\n"
        "    kinds = cols.kinds\n"
        "    for i in range(len(kinds)):\n"
        "        print(kinds[i])\n",
    )
    assert _rule_ids(report) == ["REP-H003"]


def test_column_comprehension_and_zip_flagged(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/analysis/hotloop.py",
        "def f(cols):\n"
        "    a = [t for t in cols.times]\n"
        "    b = 0\n"
        "    for fid, size in zip(cols.file_ids, cols.sizes):\n"
        "        b += fid * size\n"
        "    return a, b\n",
    )
    assert _rule_ids(report) == ["REP-H003", "REP-H003"]


def test_column_loop_allowed_in_oracle_modules(tmp_path):
    source = "def f(cols):\n    for t in cols.times:\n        print(t)\n"
    for oracle in ("repro/trace/validate.py", "repro/analysis/onepass.py"):
        assert _lint_source(tmp_path, oracle, source).ok


def test_column_loop_suppressed_with_allow_comment(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/analysis/hotloop.py",
        "def f(cols):\n"
        "    for t in cols.times:  "
        "# repro: allow[REP-H003] -- reference path\n"
        "        print(t)\n",
    )
    assert report.ok


def test_column_loop_out_of_package_and_non_column_pass(tmp_path):
    source = "def f(cols):\n    for t in cols.times:\n        print(t)\n"
    assert _lint_source(tmp_path, "plot.py", source).ok
    report = _lint_source(
        tmp_path,
        "repro/analysis/hotloop.py",
        "def f(log):\n    for e in log.events:\n        print(e)\n",
    )
    assert report.ok


def test_packed_column_loop_and_tolist_alias_flagged(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/cache/hotloop.py",
        "def f(packed):\n"
        "    keys = packed.keys.tolist()\n"
        "    for key in keys:\n"
        "        print(key)\n"
        "    for op in packed.ops:\n"
        "        print(op)\n",
    )
    assert _rule_ids(report) == ["REP-H003", "REP-H003"]


def test_packed_column_loop_allowed_in_stack_oracle_and_statics(tmp_path):
    source = "def f(packed):\n    for k in packed.keys:\n        print(k)\n"
    assert _lint_source(tmp_path, "repro/parallel/packed.py", source).ok
    # The linter's own AST walks (`node.ops`, `node.keys`) collide with
    # the packed column names; the package is exempt.
    assert _lint_source(tmp_path, "repro/statics/newrule.py", source).ok


def test_column_loop_in_nested_function_reported_once(tmp_path):
    report = _lint_source(
        tmp_path,
        "repro/analysis/hotloop.py",
        "def outer(cols):\n"
        "    def inner():\n"
        "        for t in cols.times:\n"
        "            print(t)\n"
        "    return inner\n",
    )
    assert _rule_ids(report) == ["REP-H003"]


# -- REP-S001: trace-schema drift -------------------------------------------


def _schema_copies(tmp_path: Path) -> dict[str, Path]:
    out = {}
    for name in ("records.py", "columns.py", "io_binary.py"):
        out[name] = Path(shutil.copy(TRACE_DIR / name, tmp_path / name))
    return out


def _mutate(path: Path, old: str, new: str) -> None:
    source = path.read_text(encoding="utf-8")
    assert old in source, f"schema fixture drifted: {old!r} not in {path.name}"
    path.write_text(source.replace(old, new), encoding="utf-8")


def test_schema_rule_passes_on_real_tree(tmp_path):
    copies = _schema_copies(tmp_path)
    findings = list(
        check_trace_schema(
            copies["records.py"], copies["columns.py"], copies["io_binary.py"]
        )
    )
    assert findings == []


def test_field_dropped_from_columnar_codec_fails(tmp_path):
    # The acceptance-criterion regression: remove one field from the
    # columnar builder and the drift rule must fire.
    copies = _schema_copies(tmp_path)
    _mutate(
        copies["columns.py"],
        "                initial_pos=self.positions[i],\n",
        "",
    )
    findings = list(
        check_trace_schema(
            copies["records.py"], copies["columns.py"], copies["io_binary.py"]
        )
    )
    assert any(
        f.rule_id == "REP-S001"
        and "initial_pos" in f.message
        and "never passed" in f.message
        for f in findings
    )


def test_field_unread_by_columnar_reader_fails(tmp_path):
    copies = _schema_copies(tmp_path)
    _mutate(
        copies["columns.py"],
        "                positions[i] = event.initial_pos\n",
        "",
    )
    findings = list(
        check_trace_schema(
            copies["records.py"], copies["columns.py"], copies["io_binary.py"]
        )
    )
    assert any(
        "initial_pos" in f.message and "never read" in f.message
        for f in findings
    )


def test_field_deleted_from_records_fails_both_codecs(tmp_path):
    copies = _schema_copies(tmp_path)
    _mutate(copies["records.py"], "    initial_pos: int = 0\n", "")
    findings = list(
        check_trace_schema(
            copies["records.py"], copies["columns.py"], copies["io_binary.py"]
        )
    )
    drifted = [f for f in findings if "initial_pos" in f.message]
    assert {f.path for f in drifted} == {
        str(copies["columns.py"]),
        str(copies["io_binary.py"]),
    }
    assert any("not a field of the record" in f.message for f in drifted)


def test_schema_rule_triggers_through_lint_paths(tmp_path):
    copies = _schema_copies(tmp_path)
    _mutate(
        copies["columns.py"],
        "                initial_pos=self.positions[i],\n",
        "",
    )
    report = lint_paths([tmp_path])
    assert any(f.rule_id == "REP-S001" for f in report.findings)
    # An incomplete artifact trio (no records.py) is not checked.
    copies["records.py"].unlink()
    assert lint_paths([tmp_path]).ok


# -- REP-S002: corpus schema drift ------------------------------------------

CORPUS_FORMAT = REPO_SRC / "repro" / "corpus" / "format.py"


def _corpus_copy(tmp_path: Path) -> Path:
    target = tmp_path / "corpus" / "format.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    return Path(shutil.copy(CORPUS_FORMAT, target))


def test_corpus_schema_rule_passes_on_real_tree(tmp_path):
    copy = _corpus_copy(tmp_path)
    assert list(check_corpus_schema(copy)) == []


def test_corpus_layout_edit_without_version_bump_fails(tmp_path):
    # The acceptance-criterion regression: grow the stat record (a new
    # field without bumping FORMAT_VERSION) and the rule must fire.
    copy = _corpus_copy(tmp_path)
    _mutate(copy, '    "flag_hist",\n', '    "flag_hist",\n    "reserved2",\n')
    findings = list(check_corpus_schema(copy))
    assert any(
        f.rule_id == "REP-S002"
        and "drifted" in f.message
        and "bump FORMAT_VERSION" in f.message
        for f in findings
    )


def test_corpus_version_bump_requires_new_digest_and_magics(tmp_path):
    copy = _corpus_copy(tmp_path)
    _mutate(copy, "FORMAT_VERSION = 1\n", "FORMAT_VERSION = 2\n")
    messages = [f.message for f in check_corpus_schema(copy)]
    assert any("no entry for FORMAT_VERSION" in m for m in messages)
    # All three magics still carry the old version byte.
    assert sum("version byte" in m for m in messages) == 3


def test_corpus_non_literal_registry_is_an_error(tmp_path):
    copy = _corpus_copy(tmp_path)
    _mutate(
        copy,
        "SCHEMA_DIGESTS = {1: _SCHEMA_DIGEST_V1}\n",
        "SCHEMA_DIGESTS = _compute_digests()\n",
    )
    findings = list(check_corpus_schema(copy))
    assert len(findings) == 1
    assert "cannot recompute" in findings[0].message


def test_corpus_schema_rule_triggers_through_lint_paths(tmp_path):
    copy = _corpus_copy(tmp_path)
    _mutate(copy, "BYTES_PER_EVENT = 50\n", "BYTES_PER_EVENT = 58\n")
    report = lint_paths([tmp_path])
    assert any(f.rule_id == "REP-S002" for f in report.findings)
    # format.py outside a corpus/ directory is not checked.
    other = tmp_path / "elsewhere" / "format.py"
    other.parent.mkdir()
    shutil.copy(copy, other)
    copy.unlink()
    assert lint_paths([tmp_path]).ok


# -- self-lint: the repository must hold its own invariants -----------------


def test_repository_source_lints_clean():
    report = lint_paths([REPO_SRC])
    assert report.findings == [], render_text(report)


def test_repository_tests_lint_clean():
    report = lint_paths([Path(__file__).resolve().parent])
    assert report.findings == [], render_text(report)
