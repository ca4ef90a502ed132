"""CLI behavior: commands, exit codes, and atomic file output."""

from __future__ import annotations

import os
import stat

import pytest

from specqueue import cli
from specqueue.cli import build_parser, main
from specqueue.simulator import parse_workload


@pytest.fixture
def workload_file(tmp_path):
    path = tmp_path / "w.txt"
    assert main(["gen-workload", "--n-changes", "40", "--seed", "7",
                 "--out", str(path)]) == 0
    return path


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


class TestCdf:
    def test_short_behind_long_worked_example(self, capsys):
        code, out = run_cli(capsys, [
            "cdf", "--at-x", "0", "--mu-x", "35", "--var-x", "36",
            "--at-y", "1", "--mu-y", "15", "--var-y", "9",
        ])
        assert code == 0
        z = float(out.splitlines()[0].split("=")[1])
        p = float(out.splitlines()[1].split("=")[1])
        assert z == pytest.approx(2.83, abs=0.01)
        assert p == pytest.approx(0.9977, abs=0.0005)

    @pytest.mark.parametrize(
        "override",
        [
            ["--mu-x", "nan"],
            ["--at-x", "nan"],
            ["--at-y", "inf"],
            ["--var-y", "nan"],
            ["--mu-x", "inf", "--var-x", "inf"],
        ],
    )
    def test_non_finite_input_is_usage_error(self, capsys, override):
        argv = [
            "cdf", "--at-x", "0", "--mu-x", "35", "--var-x", "36",
            "--at-y", "1", "--mu-y", "15", "--var-y", "9",
        ]
        code, out = run_cli(capsys, argv + override)
        assert code == 1
        assert out == ""


class TestGenWorkload:
    def test_writes_parseable_file(self, workload_file):
        w = parse_workload(workload_file.read_text())
        assert len(w.changes) == 40
        assert w.seed == 7

    def test_stdout_when_no_out_flag(self, capsys):
        code, out = run_cli(capsys, ["gen-workload", "--n-changes", "5"])
        assert code == 0
        assert len(parse_workload(out).changes) == 5


class TestSimulate:
    def test_prints_metrics_csv(self, capsys, workload_file):
        code, out = run_cli(capsys, ["simulate", "--workload", str(workload_file)])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("strategy,builds_started")
        assert lines[1].startswith("enhanced,")
        assert len(lines) == 2

    def test_strategy_override(self, capsys, workload_file):
        code, out = run_cli(capsys, [
            "simulate", "--workload", str(workload_file), "--strategy", "baseline",
        ])
        assert code == 0
        assert out.splitlines()[1].startswith("baseline,")

    def test_repeat_runs_write_identical_files(self, capsys, workload_file, tmp_path):
        argv = [
            "simulate", "--workload", str(workload_file),
            "--out-metrics", str(tmp_path / "m.csv"),
            "--out-trace", str(tmp_path / "t.log"),
        ]
        assert main(argv) == 0
        first = ((tmp_path / "m.csv").read_bytes(), (tmp_path / "t.log").read_bytes())
        assert main(argv) == 0
        second = ((tmp_path / "m.csv").read_bytes(), (tmp_path / "t.log").read_bytes())
        assert first == second
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_config_flags_take_their_field_types(self, command):
        args = build_parser().parse_args([
            command, "--workload", "w.txt", "--delta", "1", "--tau", "0.5",
            "--epsilon", "0.1", "--capacity", "3", "--depth-cap", "2",
        ])
        expected = {"delta": 1.0, "tau": 0.5, "epsilon": 0.1, "capacity": 3, "depth_cap": 2}
        for dest, value in expected.items():
            assert getattr(args, dest) == value
            assert type(getattr(args, dest)) is type(value)

    def test_config_overrides_change_the_run(self, capsys, workload_file):
        _, default_out = run_cli(capsys, ["simulate", "--workload", str(workload_file)])
        _, starved = run_cli(capsys, [
            "simulate", "--workload", str(workload_file), "--capacity", "1",
        ])
        assert default_out != starved


class TestCompare:
    def test_two_strategy_table(self, capsys, workload_file):
        code, out = run_cli(capsys, ["compare", "--workload", str(workload_file)])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("baseline,")
        assert lines[2].startswith("enhanced,")

    def test_delta_sweep_labels_rows(self, capsys, workload_file):
        code, out = run_cli(capsys, [
            "compare", "--workload", str(workload_file),
            "--strategies", "enhanced", "--deltas", "0,0.3,0.7",
        ])
        assert code == 0
        labels = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert labels == ["delta=0", "delta=0.3", "delta=0.7"]

    def test_out_metrics_holds_the_printed_table(self, capsys, workload_file, tmp_path):
        path = tmp_path / "m.csv"
        code, out = run_cli(capsys, [
            "compare", "--workload", str(workload_file), "--out-metrics", str(path),
        ])
        assert code == 0
        assert path.read_text() == out


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, _ = run_cli(capsys, ["gen-workload", "--n-changes", "2"])
        assert code == 0

    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["bogus"],
            [],
            ["simulate"],  # missing --workload
            ["simulate", "--workload", "w.txt", "--strategy", "greedy"],
        ],
    )
    def test_usage_errors_are_one(self, argv, capsys):
        assert main(argv) == 1
        capsys.readouterr()

    def test_threshold_out_of_range_is_usage_error(self, capsys, workload_file):
        assert main(["simulate", "--workload", str(workload_file),
                     "--delta", "1.5"]) == 1
        capsys.readouterr()

    def test_single_variant_compare_is_usage_error(self, capsys, workload_file):
        assert main(["compare", "--workload", str(workload_file),
                     "--strategies", "enhanced"]) == 1
        capsys.readouterr()

    def test_unknown_compare_strategy_fails_before_any_run(
        self, capsys, workload_file, monkeypatch
    ):
        runs, real_run = [], cli.run

        def counted_run(*args):
            runs.append(args)
            return real_run(*args)

        monkeypatch.setattr(cli, "run", counted_run)
        assert main(["compare", "--workload", str(workload_file),
                     "--strategies", "enhanced,bogus"]) == 1
        assert "unknown strategy 'bogus'" in capsys.readouterr().err
        assert runs == []

    def test_missing_file_is_two(self, capsys, tmp_path):
        assert main(["simulate", "--workload", str(tmp_path / "nope.txt")]) == 2
        capsys.readouterr()

    def test_malformed_workload_is_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage line\n")
        assert main(["simulate", "--workload", str(bad)]) == 2
        capsys.readouterr()

    def test_bad_generator_params_are_two(self, capsys, tmp_path):
        assert main(["gen-workload", "--density", "1.5",
                     "--out", str(tmp_path / "x.txt")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_undecodable_workload_is_two(self, capsys, tmp_path, command):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("change C0 caf\xe9\n".encode("latin-1"))
        assert main([command, "--workload", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err

    @pytest.mark.parametrize("rate", ["inf", "nan"])
    def test_non_finite_arrival_rate_is_two(self, capsys, tmp_path, rate):
        out = tmp_path / "x.txt"
        assert main(["gen-workload", "--arrival-rate", rate, "--out", str(out)]) == 2
        assert "arrival_rate must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestAtomicOutput:
    def test_failed_run_leaves_no_files(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage line\n")
        out = tmp_path / "metrics.csv"
        assert main(["simulate", "--workload", str(bad),
                     "--out-metrics", str(out)]) == 2
        capsys.readouterr()
        assert not out.exists()
        leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".specqueue-")]
        assert leftovers == []

    def test_out_path_naming_a_directory_is_two_and_leaves_no_temp_file(
        self, capsys, workload_file, tmp_path
    ):
        taken = tmp_path / "taken"
        taken.mkdir()
        (taken / "keep.txt").write_text("kept\n")
        assert main(["simulate", "--workload", str(workload_file),
                     "--out-metrics", str(taken)]) == 2
        capsys.readouterr()
        assert os.listdir(taken) == ["keep.txt"]
        assert (taken / "keep.txt").read_text() == "kept\n"
        leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".specqueue-")]
        assert leftovers == []

    @pytest.fixture
    def umask_027(self):
        """Run under umask 027, restoring the process umask afterwards."""
        previous = os.umask(0o027)
        try:
            yield
        finally:
            os.umask(previous)

    def test_new_files_get_the_umask_mode(self, capsys, tmp_path, umask_027):
        workload = tmp_path / "w.txt"
        metrics = tmp_path / "m.csv"
        assert main(["gen-workload", "--n-changes", "5", "--out", str(workload)]) == 0
        assert main(["simulate", "--workload", str(workload),
                     "--out-metrics", str(metrics)]) == 0
        capsys.readouterr()
        for path in (workload, metrics):
            assert stat.S_IMODE(path.stat().st_mode) == 0o640, path

    def test_an_overwritten_file_keeps_its_mode(self, capsys, tmp_path, umask_027):
        out = tmp_path / "w.txt"
        out.write_text("old\n")
        out.chmod(0o604)
        assert main(["gen-workload", "--n-changes", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        assert stat.S_IMODE(out.stat().st_mode) == 0o604
        assert out.read_text() != "old\n"
