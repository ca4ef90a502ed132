"""CLI behavior: commands, exit codes, and atomic file output."""

from __future__ import annotations

import csv
import io
import os
import stat
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from specqueue import cli
from specqueue.cli import build_parser, main
from specqueue.simulator import (
    GeneratorParams,
    format_workload,
    generate_workload,
    parse_workload,
    reports_to_csv,
    run,
)

from oracles import GENERATORS, gen_workload_argv


@pytest.fixture
def workload_file(tmp_path):
    path = tmp_path / "w.txt"
    assert main(["gen-workload", "--n-changes", "40", "--seed", "7",
                 "--out", str(path)]) == 0
    return path


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.fixture
def runs(monkeypatch):
    """The argument tuples of every `run` the CLI makes from here on."""
    calls, real_run = [], cli.run

    def counted_run(*args):
        calls.append(args)
        return real_run(*args)

    monkeypatch.setattr(cli, "run", counted_run)
    return calls


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

    def test_flag_defaults_are_the_generator_defaults(self, capsys):
        code, out = run_cli(capsys, ["gen-workload"])
        assert code == 0
        assert out == format_workload(generate_workload(GeneratorParams()))


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

    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        # target names are strings in sets, so their iteration order moves
        # with the hash seed; a bridged stream joins components through
        # long changes' second targets
        script = (
            "import sys\n"
            "from specqueue.cli import main\n"
            "out = sys.argv[1]\n"
            "assert main(['gen-workload', '--n-changes', '200', '--seed', '3',\n"
            "             '--long-target-bias', '1', '--long-second-link', '1',\n"
            "             '--out', out + '/w.txt']) == 0\n"
            "for s in ('enhanced', 'baseline'):\n"
            "    assert main(['simulate', '--workload', out + '/w.txt',\n"
            "                 '--strategy', s, '--out-metrics', f'{out}/{s}.csv',\n"
            "                 '--out-trace', f'{out}/{s}.log']) == 0\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        outputs = []
        for seed in ("0", "1"):
            out = tmp_path / seed
            out.mkdir()
            path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
            subprocess.run(
                [sys.executable, "-c", script, str(out)],
                env=env, check=True, capture_output=True,
            )
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(outputs[0]) == 5
        assert outputs[0] == outputs[1]

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


class TestParserReuse:
    """main builds one parser per process and keeps nothing of a call."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The parsers built from here on, counting from a fresh process."""
        built, real_build = [], cli.build_parser

        def counted_build():
            built.append(real_build())
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", counted_build)
        cli._parser.cache_clear()
        yield built
        cli._parser.cache_clear()

    def test_simulate_calls_in_one_process(self, capsys, builds, workload_file,
                                           tmp_path):
        def bare(tag):
            metrics, trace = tmp_path / f"m{tag}.csv", tmp_path / f"t{tag}.log"
            assert main(["simulate", "--workload", str(workload_file),
                         "--out-metrics", str(metrics), "--out-trace", str(trace)]) == 0
            capsys.readouterr()
            return metrics.read_bytes(), trace.read_bytes()

        first = bare(1)
        code, out = run_cli(capsys, [
            "simulate", "--workload", str(workload_file), "--seed", "9",
            "--strategy", "baseline", "--capacity", "3", "--delta", "0.5",
        ])
        w = parse_workload(workload_file.read_text())
        overridden = replace(w, seed=9, config=replace(
            w.config, executor_capacity=3, speculation_threshold=0.5))
        assert code == 0
        assert out == reports_to_csv([run(overridden, "baseline")[0]])
        assert main(["simulate", "--workload", str(workload_file),
                     "--capacity", "three"]) == 1
        assert main(["simulate", "--help"]) == 0
        assert "--out-trace" in capsys.readouterr().out
        assert bare(2) == first
        assert len(builds) == 1

    def test_gen_workload_flags_then_defaults(self, capsys, builds):
        code, out = run_cli(capsys, [
            "gen-workload", "--n-changes", "30", "--arrival-rate", "0.5",
            "--density", "0.6", "--short-fraction", "0.4", "--fail-rate", "0.2",
            "--breaker-rate", "0.5", "--seed", "11",
        ])
        assert code == 0
        assert out == format_workload(generate_workload(GeneratorParams(
            n_changes=30, arrival_rate=0.5, conflict_density=0.6,
            short_fraction=0.4, fail_rate=0.2, breaker_rate=0.5, seed=11,
        )))
        # the criterion-5 stream, which sets the two long-change knobs
        params = GENERATORS["criterion-5"]
        code, out = run_cli(capsys, gen_workload_argv(params))
        assert code == 0
        assert out == format_workload(generate_workload(params))
        code, out = run_cli(capsys, ["gen-workload"])
        assert code == 0
        assert out == format_workload(generate_workload(GeneratorParams()))
        assert len(builds) == 1


def test_gen_workload_has_one_flag_per_generator_field():
    assert sorted(cli.GENERATOR_FLAGS.values()) == sorted(
        f.name for f in fields(GeneratorParams)
    )


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

    def test_strategy_by_delta_sweep_keeps_the_columns(self, capsys, workload_file):
        code, out = run_cli(capsys, [
            "compare", "--workload", str(workload_file), "--deltas", "0,0.3",
        ])
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert [row[0] for row in rows] == [
            "baseline delta=0", "baseline delta=0.3",
            "enhanced delta=0", "enhanced delta=0.3",
        ]
        assert all(len(row) == len(header) for row in rows)

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

    def test_depth_cap_over_sixteen_is_usage_error(self, capsys, workload_file, runs):
        assert main(["simulate", "--workload", str(workload_file),
                     "--depth-cap", "17"]) == 1
        assert "depth_cap must be <= 16" in capsys.readouterr().err
        assert runs == []

    def test_single_variant_compare_is_usage_error(self, capsys, workload_file):
        assert main(["compare", "--workload", str(workload_file),
                     "--strategies", "enhanced"]) == 1
        capsys.readouterr()

    def test_unknown_compare_strategy_fails_before_any_run(
        self, capsys, workload_file, runs
    ):
        assert main(["compare", "--workload", str(workload_file),
                     "--strategies", "enhanced,bogus"]) == 1
        assert "unknown strategy 'bogus'" in capsys.readouterr().err
        assert runs == []

    def test_delta_with_deltas_fails_before_any_run(self, capsys, workload_file, runs):
        assert main(["compare", "--workload", str(workload_file),
                     "--delta", "0.9", "--deltas", "0.1,0.2"]) == 1
        assert "--delta and --deltas" in capsys.readouterr().err
        assert runs == []

    @pytest.mark.parametrize(
        "variants, repeated",
        [
            (["--strategies", "enhanced,enhanced"], "strategy 'enhanced'"),
            (["--strategies", "enhanced", "--deltas", "0.3,0.3"], "delta 0.3"),
            (["--strategies", "enhanced", "--deltas", "0.3,0.3000001"], "delta 0.3"),
        ],
    )
    def test_repeated_compare_variant_fails_before_any_run(
        self, capsys, workload_file, runs, variants, repeated
    ):
        assert main(["compare", "--workload", str(workload_file), *variants]) == 1
        assert f"repeated {repeated}" in capsys.readouterr().err
        assert runs == []

    @pytest.mark.parametrize("metrics, trace", [("p", "p"), ("./p", "p")])
    def test_two_outputs_naming_one_file_fail_before_any_run(
        self, capsys, workload_file, runs, monkeypatch, metrics, trace
    ):
        monkeypatch.chdir(workload_file.parent)
        before = workload_file.read_bytes()
        assert main(["simulate", "--workload", str(workload_file),
                     "--out-metrics", metrics, "--out-trace", trace]) == 1
        assert "--out-trace names the same file as --out-metrics" in (
            capsys.readouterr().err
        )
        assert runs == []
        assert os.listdir(workload_file.parent) == ["w.txt"]
        assert workload_file.read_bytes() == before

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_an_output_naming_the_workload_fails_before_any_run(
        self, capsys, workload_file, runs, command
    ):
        before = workload_file.read_bytes()
        assert main([command, "--workload", str(workload_file),
                     "--out-metrics", str(workload_file)]) == 1
        assert "--out-metrics names the same file as --workload" in (
            capsys.readouterr().err
        )
        assert runs == []
        assert workload_file.read_bytes() == before

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

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize(
        "predictor, variance",
        [("oracle bias=1e200", "4.0"), ("oracle bias=0.5", "1e308")],
        ids=["bias", "variance"],
    )
    def test_a_predictor_that_overflows_an_estimate_is_two(
        self, capsys, tmp_path, command, predictor, variance
    ):
        # the file parses; the estimate overflows once a run is set up
        path = tmp_path / "w.txt"
        path.write_text(
            f"predictor {predictor}\n"
            f"change id=C0 at=0.0 targets=a mu=10.0 var={variance}\n"
        )
        out = tmp_path / "m.csv"
        assert main([command, "--workload", str(path),
                     "--out-metrics", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: predictor OracleWithNoise(")
        assert "overflows a duration estimate" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["inf", "nan"])
    def test_non_finite_arrival_rate_is_two(self, capsys, tmp_path, rate):
        out = tmp_path / "x.txt"
        assert main(["gen-workload", "--arrival-rate", rate, "--out", str(out)]) == 2
        assert "arrival_rate must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_a_stream_too_late_to_simulate_is_two(self, capsys, tmp_path):
        # its last arrival would be near 3e291 minutes, where a time cannot
        # keep a build's duration
        out = tmp_path / "x.txt"
        generate = ["--seed", "3", "--n-changes", "30", "--arrival-rate", "1e-290"]
        assert main(["gen-workload", *generate, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        message = "arrival_rate 1e-290 draws arrivals past 2**45 minutes"
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
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

    def test_an_unwritable_output_is_two_and_named_as_given(
        self, capsys, workload_file, tmp_path
    ):
        trace = tmp_path / "missing" / "t.log"
        assert main(["simulate", "--workload", str(workload_file),
                     "--out-trace", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(trace) in err
        assert ".specqueue-" not in err

    def test_one_failed_output_leaves_no_other_output(
        self, capsys, workload_file, tmp_path
    ):
        metrics = tmp_path / "m.csv"
        assert main(["simulate", "--workload", str(workload_file),
                     "--out-metrics", str(metrics),
                     "--out-trace", str(tmp_path / "missing" / "t.log")]) == 2
        assert capsys.readouterr().out == ""
        assert sorted(os.listdir(tmp_path)) == ["w.txt"]

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
