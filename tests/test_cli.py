"""End-to-end tests for the repro-fs command-line interface."""

import textwrap

import pytest

from repro.cli.main import main
from repro.trace.io_binary import read_binary
from repro.trace.io_text import read_text


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "a5.trace"
    rc = main(["generate", "--profile", "A5", "--hours", "0.2",
               "--seed", "3", "-o", str(path)])
    assert rc == 0
    return str(path)


class TestGenerate:
    def test_writes_readable_trace(self, trace_file):
        log = read_text(trace_file)
        assert len(log) > 100
        assert log.name == "A5"

    def test_binary_output_by_extension(self, tmp_path):
        out = tmp_path / "c4.btrace"
        rc = main(["generate", "--profile", "C4", "--hours", "0.1",
                   "--seed", "1", "-o", str(out)])
        assert rc == 0
        assert read_binary(str(out)).name == "C4"

    def test_spool_streams_to_binary(self, tmp_path, capsys):
        out = tmp_path / "a5.btrace"
        rc = main(["generate", "--profile", "A5", "--hours", "0.05",
                   "--seed", "2", "-o", str(out), "--spool",
                   "--spool-buffer", "256"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "events spooled" in printed
        assert "peak" in printed
        assert len(read_binary(str(out))) > 0

    def test_spool_output_matches_unspooled(self, tmp_path):
        spooled = tmp_path / "s.btrace"
        direct = tmp_path / "d.btrace"
        common = ["generate", "--profile", "A5", "--hours", "0.05",
                  "--seed", "2"]
        assert main([*common, "-o", str(spooled), "--spool"]) == 0
        assert main([*common, "-o", str(direct)]) == 0
        assert spooled.read_bytes() == direct.read_bytes()

    def test_spool_requires_btrace_output(self, tmp_path, capsys):
        rc = main(["generate", "--profile", "A5", "--hours", "0.05",
                   "-o", str(tmp_path / "a5.trace"), "--spool"])
        assert rc == 2
        assert ".btrace" in capsys.readouterr().err

    def test_multi_seed_generates_one_file_per_seed(self, tmp_path):
        out = tmp_path / "many.btrace"
        rc = main(["generate", "--profile", "A5", "--hours", "0.05",
                   "--seed", "10", "--seeds", "3", "--jobs", "2",
                   "-o", str(out)])
        assert rc == 0
        for seed in (10, 11, 12):
            path = tmp_path / f"many-s{seed}.btrace"
            assert path.exists(), path
            assert read_binary(str(path)).name == "A5"

    def test_multi_seed_seed_placeholder(self, tmp_path):
        template = tmp_path / "t{seed}.btrace"
        rc = main(["generate", "--profile", "A5", "--hours", "0.05",
                   "--seeds", "2", "--spool", "-o", str(template)])
        assert rc == 0
        assert (tmp_path / "t0.btrace").exists()
        assert (tmp_path / "t1.btrace").exists()


class TestReadOnlyCommands:
    def test_stats(self, trace_file, capsys):
        assert main(["stats", trace_file]) == 0
        out = capsys.readouterr().out
        assert "Number of trace records" in out

    def test_validate_ok(self, trace_file, capsys):
        assert main(["validate", trace_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_trace_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("close\t1.00\t99\t0\n")
        assert main(["validate", str(bad)]) == 1
        assert "unknown open_id" in capsys.readouterr().out

    def test_analyze_all(self, trace_file, capsys):
        assert main(["analyze", trace_file]) == 0
        out = capsys.readouterr().out
        assert "Sequentiality" in out
        assert "throughput" in out

    def test_analyze_single_report(self, trace_file, capsys):
        assert main(["analyze", trace_file, "--report", "lifetimes"]) == 0
        assert "new files" in capsys.readouterr().out


class TestSimulation:
    def test_simulate(self, trace_file, capsys):
        rc = main(["simulate", trace_file, "--cache-mb", "1",
                   "--policy", "delayed-write"])
        assert rc == 0
        assert "miss ratio" in capsys.readouterr().out

    def test_simulate_with_paging(self, trace_file, capsys):
        assert main(["simulate", trace_file, "--paging"]) == 0

    def test_sweep_policy(self, trace_file, capsys):
        assert main(["sweep", trace_file, "--kind", "policy"]) == 0
        assert "write-through" in capsys.readouterr().out

    def test_sweep_blocksize(self, trace_file, capsys):
        assert main(["sweep", trace_file, "--kind", "blocksize"]) == 0
        assert "No Cache" in capsys.readouterr().out


class TestExperiments:
    def test_single_experiment(self, trace_file, capsys):
        assert main(["experiment", trace_file, "--id", "table5"]) == 0
        assert "Sequentiality" in capsys.readouterr().out

    def test_missing_id_lists_options(self, trace_file, capsys):
        assert main(["experiment", trace_file]) == 2
        assert "table6" in capsys.readouterr().err


class TestConvertStrace:
    def test_convert(self, tmp_path, capsys):
        strace = tmp_path / "s.log"
        strace.write_text(textwrap.dedent("""\
            1 1.000000 openat(AT_FDCWD, "/etc/passwd", O_RDONLY) = 3
            1 1.100000 read(3, "x", 4096) = 1000
            1 1.200000 close(3) = 0
        """))
        out = tmp_path / "out.trace"
        rc = main(["convert-strace", str(strace), "-o", str(out)])
        assert rc == 0
        log = read_text(str(out))
        assert log.count("open") == 1
        assert log.count("close") == 1
