"""End-to-end tests of the command-line pipeline.

Most tests drive ``cli.main`` in-process and inspect the emitted report
files. Three run the CLI in a subprocess: one as ``python -m quickdetect.cli``,
one so under the C locale, and one through the ``quickdetect`` console script
declared in ``pyproject.toml``. That test resolves the declared target to ``cli.main``,
calls it the way the generated wrapper does (checking exit codes 0 and 2),
and, where a ``quickdetect`` distribution is installed, also requires its
entry-point metadata to match and the command to be on ``PATH``.
"""

import csv
import dataclasses
import datetime
import hashlib
import importlib.metadata
import io
import json
import math
import os
import pkgutil
import shutil
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quickdetect import cli, detect, models, offline, renewal, series
from quickdetect.cli import Report, ReportEntry, RunConfig, UsageError, _parse_schema


CHANGE_AT = 220  # index of the injected mean/scale change in the fixture


@pytest.fixture
def price_csv(make_csv):
    """Two-regime price series: 220 quiet differences, then 120 shifted ones."""
    rng = np.random.default_rng(7)
    diffs = np.concatenate(
        [rng.normal(0.0, 0.5, CHANGE_AT), rng.normal(0.6, 0.7, 120)]
    )
    prices = np.round(100.0 + np.concatenate([[0.0], np.cumsum(diffs)]), 6)
    return make_csv(prices)


def run_cli(args, out):
    return cli.main([*args, "--out", str(out)])


def load_report(out, command):
    paths = sorted(Path(out).glob(f"{command}-*.report.json"))
    assert len(paths) == 1, f"expected one JSON report, found {paths}"
    return json.loads(paths[0].read_text())


def entry_map(report, section):
    return {e["name"]: e for e in report["sections"][section]}


def read_table(out, command, name):
    paths = sorted(Path(out).glob(f"{command}-*.{name}.csv"))
    assert len(paths) == 1, f"expected one {name} table, found {paths}"
    with paths[0].open(newline="") as handle:
        return list(csv.DictReader(handle))


def run_fresh(code, *args):
    """``python -c code *args`` in a fresh interpreter that imports this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    )}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )


class TestSchemaFlag:
    def test_full_mapping(self):
        parsed = _parse_schema("date=Day,close=Px,format=%m/%d/%Y")
        assert parsed == {
            "date_column": "Day",
            "price_column": "Px",
            "date_format": "%m/%d/%Y",
        }

    def test_partial_mapping_and_whitespace(self):
        assert _parse_schema(" close = Adj Close ") == {"price_column": "Adj Close"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown schema key"):
            _parse_schema("price=Close")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            _parse_schema("date")


class TestConfigParsing:
    def test_flags_populate_config(self):
        config = cli.parse_config(
            ["diagnose", "--input", "x.csv", "--seed", "4", "--bins", "12",
             "--lags", "1,5", "--schema", "date=Day,close=Px"]
        )
        assert config.command == "diagnose"
        assert config.input == "x.csv"
        assert config.seed == 4
        assert config.bins == 12
        assert config.lags == (1, 5)
        assert config.date_column == "Day"
        assert config.price_column == "Px"

    def test_defaults_without_flags(self):
        config = cli.parse_config(["returns"])
        assert config.seed == 0
        assert config.kind == "both"
        assert config.out == "."

    def test_config_file_merges_and_flags_win(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 9, "bins": 7, "input": "file.csv"}))
        config = cli.parse_config(
            ["diagnose", "--config", str(path), "--seed", "3"]
        )
        assert config.seed == 3  # flag beats file
        assert config.bins == 7  # file fills the gap
        assert config.input == "file.csv"

    def test_schema_in_config_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"schema": "date=Day,close=Px"}))
        config = cli.parse_config(["returns", "--config", str(path)])
        assert (config.date_column, config.price_column) == ("Day", "Px")

    def test_schema_flag_beats_config_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"schema": "date=A,close=B"}))
        config = cli.parse_config(
            ["returns", "--config", str(path), "--schema", "date=C,close=D"]
        )
        assert (config.date_column, config.price_column) == ("C", "D")

    def test_lags_list_in_config_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"lags": [2, 4]}))
        config = cli.parse_config(["diagnose", "--config", str(path)])
        assert config.lags == (2, 4)

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"replicas": 10}))
        with pytest.raises(ValueError, match="unknown config keys.*replicas"):
            cli.parse_config(["returns", "--config", str(path)])

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            cli.parse_config(["returns", "--config", str(tmp_path / "nope.json")])

    def test_malformed_config_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            cli.parse_config(["returns", "--config", str(path)])

    def test_non_object_config_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            cli.parse_config(["returns", "--config", str(path)])

    @pytest.mark.parametrize(
        "key,value",
        [
            ("seed", "1"),
            ("seed", 1.5),
            ("seed", True),
            ("multi_cyclic", "no"),
            ("multi_cyclic", 0),
            ("gamma", "100"),
            ("gamma", False),
            ("bins", None),
            ("lags", [1, "2"]),
            ("input", 5),
            ("schema", {"date": "Day"}),
        ],
    )
    def test_wrong_value_type_is_usage_error(self, price_csv, tmp_path, capsys, key, value):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: value}))
        code = run_cli(["returns", "--input", str(price_csv), "--config", str(path)], tmp_path)
        assert code == 2
        assert f"usage error: config file {path}: {key!r} takes" in capsys.readouterr().err

    def test_value_types_that_fit(self, tmp_path):
        # each file holds keys of its own command only
        given = {
            "simulate": {"gamma": 100, "mu_pre": None, "seed": 3},
            "detect": {"multi_cyclic": True, "mu_pre": None},
            "diagnose": {"lags": "2,4", "seed": 3},
        }
        configs = {}
        for command, values in given.items():
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(values))
            configs[command] = cli.parse_config([command, "--config", str(path)])
        simulate, detect, diagnose = configs.values()
        assert (simulate.gamma, simulate.mu_pre, simulate.seed) == (100, None, 3)
        assert (detect.multi_cyclic, detect.mu_pre) == (True, None)
        assert (diagnose.lags, diagnose.seed) == ((2, 4), 3)

    @pytest.mark.parametrize(
        "command,values,named",
        [
            ("calibrate", {"bins": 5, "nu": 7, "threshold_a": 3.0},
             "['bins', 'nu', 'threshold_a']"),
            ("returns", {"date_column": "Day"}, "['date_column']"),
            ("constants", {"mode": "exact"}, "['mode']"),
            ("segment", {"config": "other.json"}, "['config']"),
        ],
        ids=["flags-of-other-commands", "schema-field", "constants-mode", "config"],
    )
    def test_file_keys_that_are_not_flags_of_the_command_are_refused(
        self, price_csv, tmp_path, capsys, command, values, named
    ):
        # as flags these settings are usage errors; a file key is no different
        path = tmp_path / "run.json"
        path.write_text(json.dumps(values))
        args = {
            "calibrate": ["--q", "1", "--delta", "1", "--gamma", "100", "--replications", "400"],
            "constants": ["--q", "1", "--delta", "1"],
        }.get(command, ["--input", str(price_csv)])
        assert run_cli([command, *args, "--config", str(path)], tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"usage error: unknown config keys: {named} ({command} reads only" in err
        assert not (tmp_path / "o").exists()


#: the Python type of each annotation base of a ``RunConfig`` field
FIELD_TYPES = {"int": int, "float": float, "str": str, "bool": bool, "tuple[int, ...]": tuple}
#: a flag value of each base (an integer spelling for floats); ``kind`` and
#: ``mode`` take one of their words
FLAG_TEXT = {"int": "2", "float": "2", "str": "x", "tuple[int, ...]": "1,2",
             "kind": "sr", "mode": "exact"}


def field_bases():
    return {f.name: f.type.partition(" | ")[0] for f in dataclasses.fields(RunConfig)}


def float_flags():
    """``(command, field)`` for every float field of every subcommand."""
    bases = field_bases()
    return [
        (name, flag)
        for name, command in cli._COMMANDS.items()
        for flag in command.flags
        if bases.get(flag) == "float"
    ]


class TestCommandTable:
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_help_exits_zero(self, command, capsys):
        assert cli.main([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: quickdetect {command} ")

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_flags_parse_to_their_field_types(self, command):
        bases = field_bases()
        given = [f for f in cli._COMMANDS[command].flags if f in bases]
        argv = [command]
        for flag in given:
            argv.append("--" + flag.replace("_", "-"))
            if bases[flag] != "bool":
                argv.append(FLAG_TEXT.get(flag, FLAG_TEXT[bases[flag]]))
        config = cli.parse_config(argv)
        for flag in given:
            assert type(getattr(config, flag)) is FIELD_TYPES[bases[flag]], flag

    @pytest.mark.parametrize("command,field", float_flags())
    def test_float_field_file_and_flag_hash_alike(self, tmp_path, command, field):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({field: 2}))
        from_file = cli.parse_config([command, "--config", str(path)])
        from_flag = cli.parse_config([command, "--" + field.replace("_", "-"), "2"])
        assert type(getattr(from_file, field)) is float
        assert Report(from_file, ()).render_json() == Report(from_flag, ()).render_json()

    def test_file_integer_gamma_writes_the_flag_bytes(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"gamma": 100}))
        args = ["calibrate", "--q", "1", "--delta", "1", "--replications", "200"]
        outputs = []
        for i, given in enumerate((["--config", str(path)], ["--gamma", "100"])):
            assert run_cli([*args, *given], tmp_path / f"out{i}") == 0
            outputs.append({p.name: p.read_bytes() for p in (tmp_path / f"out{i}").iterdir()})
        assert outputs[0] and outputs[0] == outputs[1]

    def test_file_integer_too_large_for_a_float(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text('{"gamma": 1' + "0" * 400 + "}")
        code = run_cli(["calibrate", "--q", "1", "--delta", "1", "--config", str(path)], tmp_path)
        assert code == 2
        assert f"usage error: config file {path}: 'gamma' takes" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_non_finite_gamma_is_named(self, tmp_path, capsys, source):
        path = tmp_path / "run.json"
        path.write_text('{"gamma": 1e400}')  # JSON reads it as inf
        given = ["--gamma", "inf"] if source == "flag" else ["--config", str(path)]
        code = run_cli(["calibrate", "--q", "1", "--delta", "1", *given], tmp_path / "out")
        assert code == 1
        assert "error: gamma must be finite, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize("command,field", float_flags())
    def test_float_flag_error_names_float(self, capsys, command, field):
        flag = "--" + field.replace("_", "-")
        assert cli.main([command, flag, "x"]) == 2
        assert f"argument {flag}: invalid float value: 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["constants"],
            ["calibrate", "--gamma", "10"],
            ["simulate", "--gamma", "10"],
            ["calibrate", "--gamma", "10", "--mode", "score", "--mu-pre", "0", "--sigma-pre", "1",
             "--mu-post", "1", "--sigma-post", "1"],
            ["detect", "--threshold-h", "5", "--mode", "score"],
        ],
    )
    def test_q_not_positive_is_runtime_error(self, price_csv, tmp_path, capsys, args):
        if args[0] == "detect":
            args = [*args, "--input", str(price_csv)]
        code = run_cli([*args, "--q", "0", "--delta", "1"], tmp_path / "o")
        assert code == 1
        assert "error: q must be a positive finite real" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestRunConfigValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            RunConfig(command="detect", kind="page")

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            RunConfig(command="detect", mode="bayes")

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            RunConfig(command="returns", seed=-1)

    def test_canonical_excludes_output_directory(self):
        config = RunConfig(command="returns", out="/somewhere", seed=2)
        canonical = config.canonical()
        assert "out" not in canonical
        assert list(canonical) == sorted(canonical)
        assert canonical["seed"] == 2


class TestReportRendering:
    @staticmethod
    def report(seed=0, out="."):
        config = RunConfig(command="returns", seed=seed, out=out)
        entries = (
            ReportEntry("count", 3, "observations"),
            ReportEntry("mean", 0.25, "price units", 0.125),
        )
        table = ("tbl", ("a", "b"), ([1, 2], [0.1, 0.2]))
        return Report(
            config=config,
            sections=(("series", entries),),
            tables=(table,),
            notes=("a note",),
        )

    def test_hash_is_short_hex_and_stable(self):
        a, b = self.report(), self.report()
        assert a.config_hash == b.config_hash
        assert len(a.config_hash) == 12
        assert set(a.config_hash) <= set("0123456789abcdef")

    def test_hash_ignores_output_directory(self):
        assert self.report(out="x").config_hash == self.report(out="y").config_hash

    def test_hash_tracks_semantic_fields(self):
        assert self.report(seed=1).config_hash != self.report(seed=2).config_hash

    def test_text_layout(self):
        text = self.report(seed=5).render_text()
        lines = text.splitlines()
        assert lines[0] == "command: returns"
        assert lines[1].startswith("config-hash: ")
        assert lines[2] == "seed: 5"
        assert "[series]" in lines
        assert "count: 3 observations" in lines
        assert "mean: 0.25 price units (se 0.125)" in lines
        assert "[notes]" in lines
        assert "- a note" in lines

    def test_json_roundtrip(self):
        report = self.report()
        payload = json.loads(report.render_json())
        assert payload["command"] == "returns"
        assert payload["config_hash"] == report.config_hash
        assert payload["config"]["seed"] == 0
        assert payload["sections"]["series"][1]["std_error"] == 0.125
        assert payload["tables"] == {"tbl": 2}
        assert payload["notes"] == ["a note"]

    def test_emit_writes_all_files(self, tmp_path):
        report = self.report()
        paths = cli.emit(report, tmp_path / "deep" / "dir")
        names = sorted(p.name for p in paths)
        stem = f"returns-{report.config_hash}"
        assert names == sorted(
            [f"{stem}.report.txt", f"{stem}.report.json", f"{stem}.tbl.csv"]
        )
        for p in paths:
            assert p.is_file()
        csv_lines = (paths[-1]).read_text().splitlines()
        assert csv_lines[0] == "a,b"
        assert csv_lines[1] == "1,0.1"  # repr() keeps floats exact

    def test_unequal_columns_refused(self):
        config = RunConfig(command="returns")
        with pytest.raises(ValueError, match="'tbl'"):
            Report(config, (), tables=(("tbl", ("a", "b"), ([1, 2], [0.1])),))
        with pytest.raises(ValueError, match="'tbl'"):
            Report(config, (), tables=(("tbl", ("a", "b"), ([1, 2],)),))


class TestExitCodes:
    def test_success(self, price_csv, tmp_path):
        assert run_cli(["returns", "--input", str(price_csv)], tmp_path / "o") == 0

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "subcommand" in capsys.readouterr().out.lower() or True

    def test_no_subcommand_is_usage_error(self):
        assert cli.main([]) == 2

    def test_unknown_flag_is_usage_error(self):
        assert cli.main(["returns", "--frobnicate"]) == 2

    @pytest.mark.parametrize(
        "command,key", [("constants", "truncation"), ("simulate", "horizon"),
                        ("calibrate", "max_iterations"), ("calibrate", "relative_tolerance"),
                        ("simulate", "relative_tolerance")],
    )
    def test_settings_worked_out_by_the_program_are_refused(
        self, tmp_path, capsys, command, key
    ):
        # the renewal walks run until they settle and a threshold is the step
        # of the ARL curve nearest gamma: neither a flag nor a config-file key
        # sets them
        args = [command, "--q", "1", "--delta", "1", "--replications", "50"]
        if command != "constants":
            args += ["--gamma", "10"]
        flag = "--" + key.replace("_", "-")
        assert run_cli([*args, flag, "100"], tmp_path / "o") == 2
        assert f"unrecognized arguments: {flag} 100" in capsys.readouterr().err
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: 100}))
        assert run_cli([*args, "--config", str(path)], tmp_path / "o") == 2
        assert f"usage error: unknown config keys: [{key!r}]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    MOMENTS = ["--mu-pre", "0", "--sigma-pre", "0.5", "--mu-post", "0.6", "--sigma-post", "0.7"]

    @pytest.mark.parametrize(
        "args,named",
        [
            (["calibrate", "--mode", "score", *MOMENTS, "--q", "0.5"], "--q"),
            (["simulate", "--delta", "1"], "--delta"),
            (["detect", "--q", "0.9", "--train-end", "100"], "--q"),
            (["detect", "--mode", "score", *MOMENTS, "--q", "1", "--delta", "1"],
             "--mu-pre/--sigma-pre/--mu-post/--sigma-post"),
            (["detect", "--mode", "score", "--mu-pre", "0", "--train-end", "100"], "--mu-pre"),
            (["detect", "--mode", "exact", *MOMENTS, "--train-end", "100"], "--train-end"),
            (["detect", "--mode", "exact", *MOMENTS, "--q", "1", "--delta", "1"], "--q/--delta"),
            (["detect", "--mode", "exact", "--q", "1", "--delta", "1"], "--q/--delta"),
            (["constants", *MOMENTS, "--q", "1", "--delta", "1"], "--q/--delta"),
            (["calibrate", "--mode", "exact", *MOMENTS, "--q", "1", "--delta", "1"],
             "--q/--delta"),
            (["simulate", "--mode", "exact", *MOMENTS, "--q", "1", "--delta", "1"],
             "--q/--delta"),
            (["detect", "--mode", "exact", *MOMENTS, "--kind", "cusum", "--threshold-a", "100"],
             "--threshold-a"),
            # the --threshold-h that every detect case is given
            (["detect", "--mode", "exact", *MOMENTS, "--kind", "sr"], "--threshold-h"),
        ],
        ids=["calibrate-lone-q", "simulate-lone-delta", "detect-lone-q", "detect-score-moments",
             "detect-score-one-moment", "detect-exact-train-end", "detect-exact-design",
             "detect-exact-design-alone", "constants-design", "calibrate-exact-design",
             "simulate-exact-design", "detect-unselected-threshold-a",
             "detect-unselected-threshold-h"],
    )
    def test_model_flags_the_run_would_not_read_are_refused(
        self, price_csv, tmp_path, capsys, args, named
    ):
        # each of these ran before with the flag silently ignored: the same
        # output as without it, under another configuration hash
        if args[0] == "detect":
            args = [*args, "--input", str(price_csv), "--threshold-h", "5"]
        elif args[0] != "constants":
            args = [*args, "--gamma", "10", "--replications", "50"]
        assert run_cli(args, tmp_path / "o") == 2
        assert f"usage error: {named} would be ignored: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_schema_is_usage_error(self, capsys):
        assert cli.main(["returns", "--schema", "price=Close"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_missing_input_flag(self, tmp_path, capsys):
        assert run_cli(["returns"], tmp_path) == 2
        assert "needs --input" in capsys.readouterr().err

    def test_missing_input_file_is_runtime_error(self, tmp_path, capsys):
        code = run_cli(["returns", "--input", str(tmp_path / "nope.csv")], tmp_path)
        assert code == 1
        assert "error: no such file" in capsys.readouterr().err

    def test_malformed_csv_is_runtime_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert run_cli(["returns", "--input", str(bad)], tmp_path) == 1

    def test_refusal_comes_before_the_input_is_read(self, tmp_path, capsys):
        args = ["detect", "--mode", "exact", "--q", "1", "--delta", "1",
                "--input", str(tmp_path / "missing.csv"), "--threshold-h", "5"]
        assert run_cli(args, tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "usage error: --q/--delta would be ignored: " in err
        assert "no such file" not in err
        # a run with no threshold for its kind is refused before the input is read too
        args = ["detect", "--mode", "exact", *self.MOMENTS, "--kind", "sr",
                "--input", str(tmp_path / "missing.csv")]
        assert run_cli(args, tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "usage error: no detector to run: give --threshold-a (sr)" in err
        assert "no such file" not in err

    @pytest.mark.parametrize(
        "args",
        [
            ["detect", "--mode", "score", "--multi-cyclic", "--threshold-a", "10",
             "--threshold-h", "1"],
            ["calibrate", "--gamma", "10", "--replications", "50"],
            ["simulate", "--gamma", "10", "--replications", "50"],
            ["constants"],
        ],
        ids=["detect", "calibrate", "simulate", "constants"],
    )
    def test_no_change_design_is_refused_by_every_command(
        self, price_csv, tmp_path, capsys, args
    ):
        # every increment of q=1, delta=0 is zero, so SR would alarm every A
        # steps on any data; detect ran it, and the others refused it apart
        if args[0] == "detect":
            args = [*args, "--input", str(price_csv)]
        assert run_cli([*args, "--q", "1", "--delta", "0"], tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert "error: q=1, delta=0 is the no-change design" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "design,constant,interval",
        [
            ([], "train", "[0, 100)"),
            ([], "post", "[100, 199)"),
            (["--q", "0.9", "--delta", "0.5"], "train", "[0, 100)"),
        ],
        ids=["fitted-train", "fitted-post", "given-design-train"],
    )
    def test_constant_stretch_names_its_interval(
        self, make_csv, tmp_path, capsys, design, constant, interval
    ):
        # an unchanged close repeats its price exactly: a difference of 0.0
        diffs = np.random.default_rng(3).normal(0.0, 1.0, 199)
        diffs[slice(0, 100) if constant == "train" else slice(100, None)] = 0.0
        csv_path = make_csv(100.0 + np.concatenate([[0.0], np.cumsum(diffs)]))
        args = ["detect", "--input", str(csv_path), *design, "--train-end", "100",
                "--threshold-h", "5"]
        assert run_cli(args, tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert f"error: differences {interval} have zero variance" in err
        assert not (tmp_path / "o").exists()

    def test_partial_moment_flags(self, tmp_path, capsys):
        code = run_cli(
            ["constants", "--mu-pre", "0", "--sigma-pre", "1"], tmp_path
        )
        assert code == 2
        assert "all four" in capsys.readouterr().err

    def test_no_model_at_all(self, tmp_path):
        assert run_cli(["constants"], tmp_path) == 2

    def test_calibrate_without_gamma(self, tmp_path, capsys):
        code = run_cli(["calibrate", "--q", "1", "--delta", "1"], tmp_path)
        assert code == 2
        assert "--gamma" in capsys.readouterr().err

    def test_detect_without_thresholds(self, price_csv, tmp_path, capsys):
        code = run_cli(
            ["detect", "--input", str(price_csv), "--mode", "exact",
             "--mu-pre", "0", "--sigma-pre", "0.5",
             "--mu-post", "0.6", "--sigma-post", "0.7"],
            tmp_path,
        )
        assert code == 2
        assert "no detector to run" in capsys.readouterr().err

    def test_detect_score_without_design(self, price_csv, tmp_path, capsys):
        code = run_cli(
            ["detect", "--input", str(price_csv), "--threshold-h", "5"],
            tmp_path,
        )
        assert code == 2
        assert "--q/--delta or --train-end" in capsys.readouterr().err

    @pytest.mark.parametrize("design", [["--q", "0.714", "--delta", "1.2"], []])
    def test_detect_train_end_below_two(self, price_csv, tmp_path, capsys, design):
        # both score-design branches: standardizing moments with --q/--delta,
        # and the fitted design without them
        code = run_cli(
            ["detect", "--input", str(price_csv), *design, "--train-end", "0",
             "--threshold-h", "5"],
            tmp_path / "o",
        )
        assert code == 2
        assert "--train-end must be at least 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("threshold", ["nan", "-1"])
    def test_segment_threshold_not_positive(self, price_csv, tmp_path, capsys, threshold):
        code = run_cli(
            ["segment", "--input", str(price_csv), "--bd-threshold", threshold], tmp_path / "o"
        )
        assert code == 1
        assert "significance_threshold must be positive" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_emitted_paths_printed(self, price_csv, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli(["returns", "--input", str(price_csv)], out) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 3  # txt + json + returns.csv
        for line in printed:
            assert Path(line).is_file()


class TestDeterminism:
    def test_rerun_is_byte_identical(self, price_csv, tmp_path):
        args = ["segment", "--input", str(price_csv), "--seed", "11"]
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert run_cli(args, out1) == 0
        assert run_cli(args, out2) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2 and files1
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_input_hashed_by_contents_not_path(self, price_csv, tmp_path, monkeypatch):
        # one CSV read through two spellings of its path and through a
        # byte-identical copy elsewhere: same report names and bytes
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        shutil.copyfile(price_csv, tmp_path / "a" / "p.csv")
        shutil.copyfile(price_csv, tmp_path / "b" / "p.csv")
        monkeypatch.chdir(tmp_path)
        outputs = []
        for i, spelling in enumerate(("a/p.csv", "./a/p.csv", "b/p.csv")):
            out = tmp_path / f"out{i}"
            assert run_cli(["segment", "--input", spelling, "--seed", "11"], out) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] and outputs[1] == outputs[0] and outputs[2] == outputs[0]
        report = load_report(tmp_path / "out0", "segment")
        digest = hashlib.sha256(price_csv.read_bytes()).hexdigest()
        assert report["config"]["input"] == f"sha256:{digest}"
        # one changed byte in the file changes the hash
        data = bytearray(price_csv.read_bytes())
        data[-2] = ord("9") if data[-2] != ord("9") else ord("8")
        (tmp_path / "b" / "p.csv").write_bytes(bytes(data))
        out = tmp_path / "changed"
        assert run_cli(["segment", "--input", "b/p.csv", "--seed", "11"], out) == 0
        assert load_report(out, "segment")["config_hash"] != report["config_hash"]

    def test_filename_hash_matches_report(self, price_csv, tmp_path):
        out = tmp_path / "o"
        run_cli(["returns", "--input", str(price_csv)], out)
        path = next(out.glob("returns-*.report.json"))
        payload = json.loads(path.read_text())
        assert path.name == f"returns-{payload['config_hash']}.report.json"

    def test_seed_changes_filename(self, price_csv, tmp_path):
        out = tmp_path / "o"
        run_cli(["returns", "--input", str(price_csv), "--seed", "1"], out)
        run_cli(["returns", "--input", str(price_csv), "--seed", "2"], out)
        assert len(list(out.glob("returns-*.report.txt"))) == 2


class TestReturnsCommand:
    def test_matches_library_values(self, price_csv, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["returns", "--input", str(price_csv)], out) == 0
        report = load_report(out, "returns")
        entries = entry_map(report, "series")

        prices = series.load_csv(price_csv, series.CsvSchema())
        returns = series.to_returns(prices)
        moments = series.estimate_moments(returns)
        assert entries["rows"]["value"] == len(prices)
        assert entries["differences"]["value"] == len(returns)
        assert entries["mean"]["value"] == moments.mean
        assert entries["sd"]["value"] == moments.sd
        assert entries["first-date"]["value"] == prices.timestamps[0].isoformat()

        csv_path = next(out.glob("returns-*.returns.csv"))
        rows = csv_path.read_text().splitlines()
        assert rows[0] == "date,difference"
        assert len(rows) == len(returns) + 1
        date, value = rows[1].split(",")
        assert date == returns.dates[0].isoformat()
        assert float(value) == returns.values[0]


class TestDiagnoseCommand:
    def test_split_moments_and_tables(self, price_csv, tmp_path):
        out = tmp_path / "o"
        code = run_cli(
            ["diagnose", "--input", str(price_csv), "--split", str(CHANGE_AT),
             "--bins", "12", "--max-lag", "10", "--lags", "1,2"],
            out,
        )
        assert code == 0
        report = load_report(out, "diagnose")
        moments = entry_map(report, "moments")
        assert moments["pre-count"]["value"] == CHANGE_AT
        assert moments["post-count"]["value"] == 120
        # the injected change must be visible in the split moments
        assert moments["post-mean"]["value"] > moments["pre-mean"]["value"] + 0.3
        assert moments["post-sd"]["value"] > moments["pre-sd"]["value"]

        acf_section = entry_map(report, "autocorrelation")
        assert acf_section["max-lag"]["value"] == 10
        assert acf_section["white-noise-band"]["value"] > 0.0
        assert report["tables"] == {
            "acf": 11, "histogram": 12, "qq": 340, "lag1": 339, "lag2": 338
        }
        for name in ("acf", "histogram", "qq", "lag1", "lag2"):
            assert any(out.glob(f"diagnose-*.{name}.csv"))

    def test_full_range_moments_without_split(self, price_csv, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["diagnose", "--input", str(price_csv)], out) == 0
        moments = entry_map(load_report(out, "diagnose"), "moments")
        assert moments["full-count"]["value"] == 340


class TestSegmentCommand:
    def test_finds_the_injected_change(self, price_csv, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["segment", "--input", str(price_csv)], out) == 0
        report = load_report(out, "segment")
        estimate = entry_map(report, "estimate")
        assert abs(estimate["best-split"]["value"] - CHANGE_AT) <= 25
        count = estimate["change-points"]["value"]
        assert count >= 1
        splits = [
            estimate[f"change-point-{i}"]["value"] for i in range(1, count + 1)
        ]
        assert any(abs(s - CHANGE_AT) <= 25 for s in splits)
        # decision log covers the recursion, and the trace has one row per split
        assert any("exceeds the null threshold" in note for note in report["notes"])
        assert report["tables"] == {"bd-trace": 339}

    def test_bd_trace_csv_reads_back(self, price_csv, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["segment", "--input", str(price_csv)], out) == 0
        rows = read_table(out, "segment", "bd-trace")
        returns = series.to_returns(series.load_csv(price_csv, series.CsvSchema()))
        _, trace = offline.bd_estimate(returns)
        assert [int(row["split"]) for row in rows] == list(range(1, 340))
        assert [float(row["statistic"]) for row in rows] == trace.values.tolist()

    def test_seed_changes_only_the_config_hash(self, price_csv, tmp_path):
        # the null threshold is a deterministic solve: nothing in a segment
        # run draws random numbers, but the seed is still a recorded setting
        reports = []
        for seed in ("0", "11"):
            out = tmp_path / seed
            assert run_cli(["segment", "--input", str(price_csv), "--seed", seed], out) == 0
            reports.append(load_report(out, "segment"))
        assert reports[0]["config_hash"] != reports[1]["config_hash"]
        assert reports[0]["sections"] == reports[1]["sections"]
        assert reports[0]["notes"] == reports[1]["notes"]
        assert any("exceeds the null threshold" in note for note in reports[0]["notes"])

    def test_null_replications_refused(self, price_csv, tmp_path, capsys):
        # the null threshold simulates no series, so nothing sets a count of them
        args = ["segment", "--input", str(price_csv)]
        assert run_cli([*args, "--null-replications", "199"], tmp_path / "o") == 2
        assert "unrecognized arguments: --null-replications 199" in capsys.readouterr().err
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"null_replications": 199}))
        assert run_cli([*args, "--config", str(path)], tmp_path / "o") == 2
        assert "usage error: unknown config keys: ['null_replications']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_explicit_threshold_disables_splitting(self, price_csv, tmp_path):
        out = tmp_path / "o"
        code = run_cli(
            ["segment", "--input", str(price_csv), "--bd-threshold", "1e9"], out
        )
        assert code == 0
        estimate = entry_map(load_report(out, "segment"), "estimate")
        assert estimate["change-points"]["value"] == 0


class TestDetectCommand:
    MODEL = ["--mu-pre", "0", "--sigma-pre", "0.5", "--mu-post", "0.6", "--sigma-post", "0.7"]

    def test_exact_mode_alarms_shortly_after_change(self, price_csv, tmp_path):
        out = tmp_path / "o"
        code = run_cli(
            ["detect", "--input", str(price_csv), "--mode", "exact", *self.MODEL,
             "--threshold-h", "5", "--threshold-a", "150"],
            out,
        )
        assert code == 0
        report = load_report(out, "detect")
        for kind in ("cusum", "sr"):
            entries = entry_map(report, kind)
            assert entries["alarms"]["value"] >= 1
            step = entries["alarm-1-step"]["value"]
            assert CHANGE_AT < step <= CHANGE_AT + 40
            assert entries["alarm-1-statistic"]["value"] >= entries["threshold"]["value"]
        # trace table rows = observations consumed; dates align with the series
        returns = series.to_returns(series.load_csv(price_csv, series.CsvSchema()))
        cusum = entry_map(report, "cusum")
        assert report["tables"]["cusum-trace"] == cusum["observations"]["value"]
        step = cusum["alarm-1-step"]["value"]
        assert cusum["alarm-1-date"]["value"] == returns.dates[step - 1].isoformat()

    def test_score_mode_with_fitted_design(self, price_csv, tmp_path):
        out = tmp_path / "o"
        code = run_cli(
            ["detect", "--input", str(price_csv), "--train-end", str(CHANGE_AT),
             "--threshold-h", "5", "--kind", "cusum"],
            out,
        )
        assert code == 0
        report = load_report(out, "detect")
        assert any("score design fitted" in note for note in report["notes"])
        entries = entry_map(report, "cusum")
        assert entries["alarms"]["value"] >= 1
        assert entries["alarm-1-step"]["value"] > CHANGE_AT

    def test_score_mode_with_explicit_design(self, price_csv, tmp_path):
        out = tmp_path / "o"
        code = run_cli(
            ["detect", "--input", str(price_csv), "--q", "0.714", "--delta", "1.2",
             "--threshold-h", "3", "--kind", "cusum"],
            out,
        )
        assert code == 0
        report = load_report(out, "detect")
        assert any("standardized by moments" in note for note in report["notes"])

    def test_multi_cyclic_consumes_everything(self, price_csv, tmp_path):
        out = tmp_path / "o"
        code = run_cli(
            ["detect", "--input", str(price_csv), "--mode", "exact", *self.MODEL,
             "--threshold-h", "3", "--kind", "cusum", "--multi-cyclic"],
            out,
        )
        assert code == 0
        entries = entry_map(load_report(out, "detect"), "cusum")
        assert entries["observations"]["value"] == 340
        assert entries["alarms"]["value"] >= 1

    def test_trace_csv_reads_back(self, price_csv, tmp_path):
        out = tmp_path / "o"
        code = run_cli(
            ["detect", "--input", str(price_csv), "--mode", "exact", *self.MODEL,
             "--threshold-h", "3", "--threshold-a", "30", "--multi-cyclic"],
            out,
        )
        assert code == 0
        report = load_report(out, "detect")
        returns = series.to_returns(series.load_csv(price_csv, series.CsvSchema()))
        increments = models.llr(models.GaussianChangeModel(0.0, 0.5, 0.6, 0.7), returns.values)
        for kind, threshold in (("cusum", 3.0), ("sr", 30.0)):
            rows = read_table(out, "detect", f"{kind}-trace")
            assert [int(row["step"]) for row in rows] == list(range(1, 341))
            assert [row["date"] for row in rows] == [d.isoformat() for d in returns.dates]
            trace = detect.multi_cyclic_run(increments, kind=kind, threshold=threshold)
            assert [float(row["statistic"]) for row in rows] == trace.statistics.tolist()
            entries = entry_map(report, kind)
            alarm_steps = [
                entries[f"alarm-{i}-step"]["value"]
                for i in range(1, entries["alarms"]["value"] + 1)
            ]
            assert len(alarm_steps) >= 2
            flagged = [int(row["step"]) for row in rows if row["alarm"] == "1"]
            assert flagged == alarm_steps
            assert {row["alarm"] for row in rows} == {"0", "1"}

    def test_single_kind_via_threshold(self, price_csv, tmp_path):
        out = tmp_path / "o"
        code = run_cli(
            ["detect", "--input", str(price_csv), "--mode", "exact", *self.MODEL,
             "--threshold-a", "150"],
            out,
        )
        assert code == 0
        report = load_report(out, "detect")
        assert set(report["sections"]) == {"sr"}

    def test_outlier_keeps_the_report_valid_json(self, make_csv, tmp_path):
        # one difference of 100 has a log-likelihood ratio near 1e4, far past
        # float range once exponentiated; the SR statistic must stay finite
        prices = [100.0, 100.0, 200.0, 200.0, 200.0]
        out = tmp_path / "o"
        code = run_cli(
            ["detect", "--input", str(make_csv(prices)), "--mode", "exact", *self.MODEL,
             "--threshold-a", "1e6", "--multi-cyclic"],
            out,
        )
        assert code == 0

        def reject(token):
            raise ValueError(f"non-finite JSON token {token}")

        path = next(Path(out).glob("detect-*.report.json"))
        report = json.loads(path.read_text(), parse_constant=reject)
        entries = entry_map(report, "sr")
        assert entries["alarm-1-step"]["value"] == 2
        assert math.isfinite(entries["alarm-1-statistic"]["value"])


def cell_by_cell_csv(header, rows) -> bytes:
    """A table as ``csv.writer`` writes it one row at a time, ``repr`` on every float."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buffer.getvalue().encode()


class TestTableBytes:
    """Every CSV table equals a row-by-row rendering of the library's values."""

    MODEL = TestDetectCommand.MODEL

    def assert_tables(self, args, out, expected):
        report = cli.execute(cli.parse_config(args))
        cli.emit(report, out)
        assert {name: len(columns[0]) for name, _, columns in report.tables} == {
            name: len(rows) for name, (_, rows) in expected.items()
        }
        for _, header, columns in report.tables:
            assert len(columns) == len(header)
            assert {len(column) for column in columns} == {len(columns[0])}
        # columns stay whole: arrays, ranges and the returns' tuple of dates
        for _, _, columns in report.tables:
            for column in columns:
                assert isinstance(column, (np.ndarray, range, tuple)), type(column)
                if isinstance(column, tuple):
                    assert {type(d) for d in column} == {datetime.date}
        for name, (header, rows) in expected.items():
            path = next(Path(out).glob(f"{args[0]}-*.{name}.csv"))
            assert path.read_bytes() == cell_by_cell_csv(header, rows), name

    def returns_of(self, price_csv):
        return series.to_returns(series.load_csv(price_csv))

    def test_returns(self, price_csv, tmp_path):
        returns = self.returns_of(price_csv)
        rows = [(d.isoformat(), float(v)) for d, v in zip(returns.dates, returns.values)]
        expected = {"returns": (("date", "difference"), rows)}
        self.assert_tables(["returns", "--input", str(price_csv)], tmp_path, expected)

    def test_diagnose(self, price_csv, tmp_path):
        returns = self.returns_of(price_csv)
        correl = series.acf(returns, 10)
        bundle = series.diagnostics(returns, bins=12, lags=(1, 3))
        hist = bundle.histogram
        expected = {
            "acf": (
                ("lag", "autocorrelation", "band"),
                [
                    (int(k), float(v), float(correl.band))
                    for k, v in zip(correl.lags, correl.values)
                ],
            ),
            "histogram": (
                ("left_edge", "right_edge", "count"),
                [
                    (float(lo), float(hi), int(c))
                    for lo, hi, c in zip(hist.edges[:-1], hist.edges[1:], hist.counts)
                ],
            ),
            "qq": (
                ("theoretical", "empirical"),
                [(float(t), float(e)) for t, e in zip(bundle.qq.theoretical, bundle.qq.empirical)],
            ),
        }
        for lag, (x, y) in bundle.lag_pairs.items():
            expected[f"lag{lag}"] = (("x", "y"), [(float(a), float(b)) for a, b in zip(x, y)])
        args = ["--bins", "12", "--max-lag", "10", "--lags", "1,3"]
        self.assert_tables(["diagnose", "--input", str(price_csv), *args], tmp_path, expected)

    def test_segment(self, price_csv, tmp_path):
        _, trace = offline.bd_estimate(self.returns_of(price_csv))
        rows = [(int(n), float(v)) for n, v in zip(trace.split_indices, trace.values)]
        expected = {"bd-trace": (("split", "statistic"), rows)}
        self.assert_tables(["segment", "--input", str(price_csv)], tmp_path, expected)

    @pytest.mark.parametrize("multi_cyclic", [False, True])
    def test_detect(self, price_csv, tmp_path, multi_cyclic):
        args = ["detect", "--input", str(price_csv), "--mode", "exact", *self.MODEL,
                "--threshold-h", "3", "--threshold-a", "30"]
        returns = self.returns_of(price_csv)
        increments = models.llr(models.GaussianChangeModel(0.0, 0.5, 0.6, 0.7), returns.values)
        runner = detect.multi_cyclic_run if multi_cyclic else detect.run_detector
        expected = {}
        for kind, threshold in (("cusum", 3.0), ("sr", 30.0)):
            trace = runner(increments, kind=kind, threshold=threshold)
            alarm_steps = set(trace.alarms.tolist())
            assert alarm_steps
            rows = [
                (step, returns.dates[step - 1].isoformat(), float(v), int(step in alarm_steps))
                for step, v in enumerate(trace.statistics, start=1)
            ]
            expected[f"{kind}-trace"] = (("step", "date", "statistic", "alarm"), rows)
        self.assert_tables(args + ["--multi-cyclic"] * multi_cyclic, tmp_path, expected)


    def test_detect_traces_of_one_length_share_steps_and_dates(self, price_csv):
        # emit turns a column that several tables hold into text once per block
        args = ["detect", "--input", str(price_csv), "--mode", "exact", *self.MODEL,
                "--threshold-h", "3", "--threshold-a", "30", "--multi-cyclic"]
        (_, _, cusum), (_, _, sr) = cli.execute(cli.parse_config(args)).tables
        assert cusum[0] is sr[0] and cusum[1] is sr[1]


class TestEmitBlocks:
    """``emit`` writes tables a block of rows at a time, each block as ``csv`` would."""

    TRACE = ("step", "date", "statistic", "alarm")

    @staticmethod
    def report(columns, header=TRACE):
        return Report(RunConfig(command="detect"), (), tables=(("trace", header, columns),))

    def emitted(self, tmp_path, columns, header=TRACE):
        paths = cli.emit(self.report(columns, header), tmp_path)
        return next(p for p in paths if p.name.endswith(".trace.csv"))

    @pytest.mark.parametrize("rows", [1, 4095, 4096, 4097, 8193])
    def test_block_edges_match_csv(self, tmp_path, rows):
        assert cli._EMIT_ROWS == 4096
        rng = np.random.default_rng(rows)
        statistics = (rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, rows)).tolist()
        statistics[0] = -0.0
        statistics[-1] = float("inf")
        dates = [f"{2000 + k // 366:04d}-01-{k % 28 + 1:02d}" for k in range(rows)]
        alarms = rng.integers(0, 2, rows).tolist()
        columns = (range(1, rows + 1), dates, statistics, alarms)
        path = self.emitted(tmp_path, columns)
        expected = cell_by_cell_csv(("step", "date", "statistic", "alarm"), zip(*columns))
        assert path.read_bytes() == expected

    @pytest.mark.parametrize("rows", [1, 4095, 4096, 4097, 8193])
    def test_array_and_date_columns_match_csv_of_lists(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        specials = [-0.0, math.inf, 1e16, 5e-324]
        # four float64 columns, so that one row holds every special value
        floats = rng.standard_normal((4, rows)) * 10.0 ** rng.integers(-20, 20, (4, rows))
        floats[:, 0] = specials
        floats[:, -1] = specials[::-1]
        counts = rng.integers(-(2**63), 2**63 - 1, rows, dtype=np.int64, endpoint=True)
        counts[0], counts[-1] = 0, -(2**63)
        start = datetime.date(1800, 1, 1)
        dates = tuple(start + datetime.timedelta(days=int(k)) for k in rng.integers(0, 80_000, rows))
        header = ("step", "date", "w", "x", "y", "z", "count")
        columns = (range(1, rows + 1), dates, *floats, counts)
        assert {c.dtype for c in (*floats, counts)} == {np.dtype(np.float64), np.dtype(np.int64)}
        path = self.emitted(tmp_path, columns, header)
        as_lists = (list(range(1, rows + 1)), list(dates), *(c.tolist() for c in (*floats, counts)))
        assert path.read_bytes() == cell_by_cell_csv(header, zip(*as_lists))

    def test_two_dimensional_array_column_is_refused(self):
        with pytest.raises(ValueError, match="'trace'.*not one-dimensional"):
            self.report((range(3), ("d",) * 3, np.zeros((3, 1)), np.zeros(3)))

    @pytest.mark.parametrize("cell", ["a,b", 'say "hi"', "two\nlines", "cr\r"])
    def test_cell_that_csv_quotes_is_refused(self, tmp_path, cell):
        rows = 5000
        dates = ["2020-01-02"] * rows
        dates[4500] = cell
        columns = (range(1, rows + 1), dates, [0.5] * rows, [0] * rows)
        with pytest.raises(ValueError, match="'trace'.*quote"):
            self.emitted(tmp_path, columns)

    def test_text_array_cell_that_csv_quotes_is_refused(self, tmp_path):
        # numeric arrays and ranges skip the scan for marks; text arrays do not
        rows = 5000
        dates = np.full(rows, "2020-01-02")
        dates[4500] = "a,b"
        columns = (range(1, rows + 1), dates, np.full(rows, 0.5), np.zeros(rows, np.int8))
        with pytest.raises(ValueError, match="'trace'.*quote"):
            self.emitted(tmp_path, columns)

    @pytest.mark.parametrize("rows", [1, 4096, 8193])
    def test_a_column_two_tables_hold_is_sliced_once_per_block(self, tmp_path, rows):
        class CountedDates(tuple):
            slices = 0

            def __getitem__(self, key):
                if isinstance(key, slice):
                    CountedDates.slices += 1
                return super().__getitem__(key)

        start = datetime.date(2000, 1, 1)
        dates = CountedDates(start + datetime.timedelta(days=k) for k in range(rows))
        steps = range(1, rows + 1)
        rng = np.random.default_rng(rows)
        statistics = rng.standard_normal((2, rows))
        flags = (statistics >= 0.0).astype(np.int8)
        tables = tuple(
            (name, self.TRACE, (steps, dates, statistics[k], flags[k]))
            for k, name in enumerate(("cusum-trace", "sr-trace"))
        )
        paths = cli.emit(Report(RunConfig(command="detect"), (), tables=tables), tmp_path)
        assert CountedDates.slices == -(-rows // cli._EMIT_ROWS)
        for k, name in enumerate(("cusum-trace", "sr-trace")):
            path = next(p for p in paths if p.name.endswith(f".{name}.csv"))
            as_lists = (list(steps), list(dates), statistics[k].tolist(), flags[k].tolist())
            assert path.read_bytes() == cell_by_cell_csv(self.TRACE, zip(*as_lists))


class TestConstantsCommand:
    def test_equal_variances_use_the_exact_route(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli(
            ["constants", "--q", "1", "--delta", "1",
             "--replications", "300"],
            out,
        )
        assert code == 0
        report = load_report(out, "constants")
        entries = entry_map(report, "constants")
        assert entries["i-f"]["value"] == pytest.approx(0.5)
        assert entries["i-g"]["value"] == pytest.approx(0.5)
        assert entries["zeta"]["value"] == pytest.approx(0.5604, abs=2e-3)
        assert entries["varkappa"]["value"] == pytest.approx(0.718, abs=3e-3)
        assert entries["zeta"]["std_error"] is None  # exact, not Monte Carlo
        for name, sign in (("beta0", -1.0), ("beta-inf", 1.0)):
            assert entries[name]["std_error"] is None
            assert entries[name]["value"] == pytest.approx(sign * 0.5320627119653165, abs=1e-9)
        assert report["notes"] == [
            "zeta/varkappa/beta0/beta-inf computed exactly",
            "c0/c-inf estimated by Monte Carlo (300 replications)",
        ]

    def test_unequal_variances_use_monte_carlo(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli(
            ["constants", "--mu-pre", "0", "--sigma-pre", "1",
             "--mu-post", "0.3", "--sigma-post", "1.3",
             "--replications", "300"],
            out,
        )
        assert code == 0
        report = load_report(out, "constants")
        entries = entry_map(report, "constants")
        assert 0.0 < entries["zeta"]["value"] < 1.0
        for name in ("zeta", "varkappa", "beta0", "beta-inf"):
            assert entries[name]["std_error"] > 0.0, name
        assert report["notes"] == [
            "zeta/varkappa/beta0/beta-inf/c0/c-inf estimated by Monte Carlo (300 replications)"
        ]


class TestCalibrateCommand:
    def test_exact_cusum_threshold_hits_gamma(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli(
            ["calibrate", "--q", "1", "--delta", "1", "--mode", "exact",
             "--kind", "cusum", "--gamma", "15", "--replications", "600",
             "--seed", "5"],
            out,
        )
        assert code == 0
        report = load_report(out, "calibrate")
        entries = entry_map(report, "cusum")
        assert 0.0 < entries["threshold"]["value"] <= np.log(15.0) + 1e-12
        assert abs(entries["monte-carlo-arl"]["value"] - 15.0) <= 0.3 + 1e-9
        assert entries["monte-carlo-arl"]["std_error"] > 0.0
        assert entries["cap-hits"]["value"] <= 6  # accepted solution: at most 1%
        assert any("gamma=15" in note for note in report["notes"])

    def test_gamma_below_every_reachable_arl_names_its_cause(self, tmp_path, capsys):
        # as h -> 0 this CUSUM alarms at the first increment above 0, i.e. at
        # x > 1.5, so no threshold has an ARL below 1/P(x > 1.5), about 15
        out = tmp_path / "o"
        code = run_cli(
            ["calibrate", "--q", "1", "--delta", "3", "--gamma", "1.5", "--mode", "exact",
             "--kind", "cusum", "--replications", "200"],
            out,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error: gamma=1.5 is below every ARL this detector reaches" in err
        # the ARL on the lowest step with positive thresholds: 1/P(x > 1.5) is 14.97
        assert "at every positive threshold the ARL is at least 14.47" in err
        assert not out.exists()


class TestSimulateCommand:
    def test_cusum_report_is_complete_and_consistent(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli(
            ["simulate", "--q", "1", "--delta", "1", "--mode", "exact",
             "--kind", "cusum", "--gamma", "20", "--replications", "500",
             "--nu", "250", "--seed", "3"],
            out,
        )
        assert code == 0
        report = load_report(out, "simulate")
        assert set(report["sections"]) == {"constants", "cusum"}
        entries = entry_map(report, "cusum")
        for name in ("threshold", "monte-carlo-arl", "approx-arl",
                     "monte-carlo-sadd", "approx-sadd",
                     "monte-carlo-stadd", "approx-add-inf"):
            assert name in entries, name
        arl = entries["monte-carlo-arl"]["value"]
        sadd = entries["monte-carlo-sadd"]["value"]
        stadd = entries["monte-carlo-stadd"]["value"]
        assert abs(arl - 20.0) <= 0.02 * 20.0 + 1e-9
        assert 1.0 <= sadd < arl
        assert 1.0 <= stadd <= sadd + 3.0 * entries["monte-carlo-stadd"]["std_error"]
        assert any("stationary delay" in note for note in report["notes"])

    MODEL = ["--mu-pre", "0", "--sigma-pre", "1", "--mu-post", "1", "--sigma-post", "1"]

    def test_score_design_other_than_the_model_gets_the_designs_arl_constants(self, tmp_path):
        # the score of --q 1 --delta 2 is the LLR of N(0, 1) -> N(2, 1), not of
        # the model N(0, 1) -> N(1, 1); with the model's constants SR's
        # approx-arl read 57.86 against a Monte Carlo 101.28 +- 3.11
        out = tmp_path / "o"
        args = ["simulate", "--mode", "score", *self.MODEL, "--q", "1", "--delta", "2",
                "--gamma", "100", "--nu", "500", "--replications", "1000", "--seed", "1"]
        assert run_cli(args, out) == 0
        report = load_report(out, "simulate")
        for kind in ("cusum", "sr"):
            entries = entry_map(report, kind)
            arl = entries["monte-carlo-arl"]
            assert abs(entries["approx-arl"]["value"] - arl["value"]) <= 3 * arl["std_error"], kind
            assert [n for n in entries if n.startswith("approx-")] == ["approx-arl"], kind
        assert any(note.startswith("no approx delay lines") for note in report["notes"])

    def test_score_design_of_other_variance_takes_approx_arl_from_three_numbers(
        self, tmp_path, monkeypatch
    ):
        # approx-arl reads I_f, I_g and zeta of the design, so the design's
        # c0/c_inf walks are never drawn; each approx-arl equals the one the
        # design's full constants give
        drawn = []
        path_functionals = renewal.path_functionals
        monkeypatch.setattr(
            renewal, "path_functionals",
            lambda model, policy=None: drawn.append(model) or path_functionals(model, policy),
        )
        q, delta, reps, seed = 0.5966, 0.3303, 300, 5
        model = ["--mu-pre", "0", "--sigma-pre", "1", "--mu-post", "0.3", "--sigma-post", "1.6"]
        args = ["simulate", "--mode", "score", *model, "--q", repr(q), "--delta", repr(delta),
                "--gamma", "20", "--nu", "100", "--replications", str(reps), "--seed", str(seed)]
        assert run_cli(args, tmp_path) == 0
        report = load_report(tmp_path, "simulate")
        assert drawn == [models.GaussianChangeModel(0.0, 1.0, 0.3, 1.6)]
        design = models.GaussianChangeModel(0.0, 1.0, delta, 1.0 / q)
        full = renewal.estimate_constants(design, renewal.EstimationPolicy(reps, seed))
        zeta = full.zeta.value
        assert full.zeta.replications == reps  # unequal variances: the walk route
        for kind in ("cusum", "sr"):
            entries = entry_map(report, kind)
            h = entries["threshold"]["value"]
            expected = (
                math.exp(h) / (full.i_g * zeta * zeta) - h / full.i_f - 1.0 / (full.i_g * zeta)
                if kind == "cusum" else h / zeta
            )
            assert entries["approx-arl"]["value"] == expected, kind
            assert [n for n in entries if n.startswith("approx-")] == ["approx-arl"], kind

    def test_score_design_equal_to_the_model_keeps_the_delay_lines(self, tmp_path):
        out = tmp_path / "o"
        args = ["simulate", "--mode", "score", *self.MODEL, "--q", "1", "--delta", "1",
                "--kind", "sr", "--gamma", "20", "--nu", "100", "--replications", "200"]
        assert run_cli(args, out) == 0
        report = load_report(out, "simulate")
        assert {"approx-sadd", "approx-stadd"} <= set(entry_map(report, "sr"))
        assert not any("design" in note for note in report["notes"])

    ROUNDED = ["--mu-pre", "-0.009", "--sigma-pre", "0.954", "--mu-post", "0.303",
               "--sigma-post", "1.599"]
    # sigma_pre/sigma_post and (mu_post - mu_pre)/sigma_pre of ROUNDED in Python;
    # 1/q then differs from the standardized sigma_post in the last bit
    ROUNDED_Q, ROUNDED_DELTA = 0.5966228893058161, 0.32704402515723274

    def rounded_design_run(self, out, *design):
        args = ["simulate", "--mode", "score", *self.ROUNDED, *design, "--gamma", "20",
                "--nu", "100", "--replications", "200", "--seed", "3"]
        assert run_cli(args, out) == 0
        return load_report(out, "simulate")

    def test_score_design_equal_to_the_model_up_to_rounding_keeps_the_delay_lines(self, tmp_path):
        design = ["--q", repr(self.ROUNDED_Q), "--delta", repr(self.ROUNDED_DELTA)]
        report = self.rounded_design_run(tmp_path / "design", *design)
        plain = self.rounded_design_run(tmp_path / "plain")
        assert not any("design" in note for note in report["notes"])
        for kind, delays in (("cusum", {"approx-sadd", "approx-add-inf"}),
                             ("sr", {"approx-sadd", "approx-stadd"})):
            entries = entry_map(report, kind)
            assert delays <= set(entries), kind
            # the score's last-bit rounding moves the threshold by an ulp
            assert entries["approx-arl"]["value"] == pytest.approx(
                entry_map(plain, kind)["approx-arl"]["value"], rel=1e-12
            ), kind

    def test_score_design_one_percent_off_the_model_keeps_the_note(self, tmp_path):
        design = ["--q", repr(self.ROUNDED_Q), "--delta", repr(self.ROUNDED_DELTA * 1.01)]
        report = self.rounded_design_run(tmp_path / "o", *design)
        assert any(note.startswith("no approx delay lines") for note in report["notes"])
        for kind in ("cusum", "sr"):
            assert [n for n in entry_map(report, kind) if n.startswith("approx-")] == ["approx-arl"]


class TestMemoryGuard:
    """Each added row of a long series costs a command few traced bytes.

    Tables stay numpy columns (and the returns' tuple of dates) until
    ``emit`` writes them a block at a time, so the traced peak of ``cli.main``
    grows with the series by the columns themselves, not by per-cell objects.
    """

    #: traced bytes per added row each command may hold at its peak
    BOUNDS = {"segment": 128, "detect": 128, "diagnose": 208}
    ROWS = (20_000, 40_000)

    @staticmethod
    def args(command, csv_path):
        if command == "detect":
            q, delta = 0.2266 / 0.2306, (0.0199 + 0.0029) / 0.2266
            return ["detect", "--input", str(csv_path), "--multi-cyclic", "--mode", "score",
                    "--q", repr(q), "--delta", repr(delta), "--train-end", "300",
                    "--threshold-h", "1.97", "--threshold-a", "917.0"]
        return [command, "--input", str(csv_path)]

    @staticmethod
    def traced_peak(args, out) -> int:
        tracemalloc.start()
        try:
            assert run_cli(args, out) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("command", sorted(BOUNDS))
    def test_traced_peak_per_added_row(self, make_csv, price_csv, tmp_path, command):
        rng = np.random.default_rng(11)
        path = np.cumsum(rng.normal(0.0, 0.2266, max(self.ROWS)))
        prices = 100.0 + path - min(0.0, float(path.min()))
        # a first run leaves lazy imports and caches out of the measured runs
        assert run_cli(self.args(command, price_csv), tmp_path / "warm") == 0
        peaks = [
            self.traced_peak(
                self.args(command, make_csv(prices[:rows], name=f"p{rows}.csv")), tmp_path / f"o{rows}"
            )
            for rows in self.ROWS
        ]
        per_row = (peaks[1] - peaks[0]) / (self.ROWS[1] - self.ROWS[0])
        assert per_row <= self.BOUNDS[command], (command, peaks, per_row)

    def test_input_hashed_and_parsed_in_one_chunked_read(self, make_csv, tmp_path):
        # the file's own bytes (about 30 a row here) are never held whole:
        # loading peaks at the parsed columns plus a row's worth of parsing
        rng = np.random.default_rng(11)
        prices = 100.0 + np.abs(np.cumsum(rng.normal(0.0, 0.2266, max(self.ROWS))))
        paths = [make_csv(prices[:rows], name=f"p{rows}.csv") for rows in self.ROWS]
        RunConfig("returns", input=str(paths[0])).loaded_input  # imports and caches
        peaks = []
        for path in paths:
            tracemalloc.start()
            try:
                digest, _ = RunConfig("returns", input=str(path)).loaded_input
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        per_row = (peaks[1] - peaks[0]) / (self.ROWS[1] - self.ROWS[0])
        assert per_row <= 80, (peaks, per_row, paths[1].stat().st_size / self.ROWS[1])


class TestEntryPoint:
    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs about a second to import and only the Q-Q plot
        # and the exact renewal constants use it, so they import it themselves
        result = run_fresh("import sys, quickdetect.cli; sys.exit('scipy.stats' in sys.modules)")
        assert result.returncode == 0, result.stderr or "scipy.stats was imported"

    def test_import_loads_no_numpy_submodule(self):
        # numpy.random and the like load on first use: importing the CLI after
        # numpy itself costs only the package's own modules
        code = textwrap.dedent(
            """
            import sys
            import numpy
            before = set(sys.modules)
            import quickdetect.cli
            new = sorted(m for m in set(sys.modules) - before if m.startswith("numpy."))
            sys.exit(f"import quickdetect.cli loaded {new}" if new else 0)
            """
        )
        result = run_fresh(code)
        assert result.returncode == 0, result.stderr

    def test_import_loads_only_cli_and_detect(self):
        # every module a process imports is compiled from source when no
        # bytecode cache exists, so the CLI defers all but the detector kinds
        code = (
            "import json, sys, quickdetect.cli; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('quickdetect'))))"
        )
        result = run_fresh(code)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == ["quickdetect", "quickdetect.cli", "quickdetect.detect"]

    #: modules each command must finish without loading
    UNLOADED = {
        "calibrate": ("series", "offline", "renewal"),
        "simulate": ("series", "offline"),
        "segment": ("calib", "models", "renewal", "_rand"),
        "detect": ("calib", "offline", "renewal", "_rand"),
    }

    @pytest.mark.parametrize("command", sorted(UNLOADED))
    def test_command_loads_only_the_modules_it_runs(self, command, price_csv, tmp_path):
        args = {
            "calibrate": ["--q", "1", "--delta", "1", "--gamma", "10", "--replications", "200"],
            "simulate": ["--q", "1", "--delta", "1", "--mode", "exact", "--kind", "cusum",
                         "--gamma", "10", "--replications", "200", "--nu", "100"],
            "segment": ["--input", str(price_csv)],
            "detect": ["--input", str(price_csv), "--q", "1", "--delta", "1",
                       "--train-end", "100", "--threshold-h", "3", "--threshold-a", "30"],
        }[command]
        code = textwrap.dedent(
            """
            import json, sys
            import numpy

            # numpy before 2.0 imports numpy.ma with itself; a command must not
            preloaded = set(sys.modules)
            from quickdetect.cli import main

            code = main(json.loads(sys.argv[1]))
            added = {"numpy.ma"} & (set(sys.modules) - preloaded)
            print(json.dumps(sorted(m for m in sys.modules if m.startswith("quickdetect.")) + sorted(added)))
            sys.exit(code)
            """
        )
        result = run_fresh(code, json.dumps([command, *args, "--out", str(tmp_path)]))
        assert result.returncode == 0, result.stderr
        assert list(tmp_path.glob(f"{command}-*.report.json"))
        loaded = json.loads(result.stdout.splitlines()[-1])
        assert "quickdetect.cli" in loaded
        assert sorted({f"quickdetect.{m}" for m in self.UNLOADED[command]} & set(loaded)) == []
        # numpy.ma costs about 10 ms and 1 MB at run time, and no command needs it
        assert "numpy.ma" not in loaded

    def test_package_names_load_their_home_module_on_first_use(self):
        code = textwrap.dedent(
            """
            import importlib, sys
            import quickdetect

            public = [name for name in quickdetect.__all__ if name != "__version__"]
            assert public and sorted(m for m in sys.modules if m.startswith("quickdetect.")) == []
            assert set(quickdetect.__all__) <= set(dir(quickdetect))
            space = {}
            exec("from quickdetect import *", space)
            assert set(quickdetect.__all__) <= set(space)
            exported = {name for names in quickdetect._EXPORTS.values() for name in names}
            assert exported == set(public) and exported <= set(space)
            for name in public:
                obj = getattr(quickdetect, name)
                assert obj.__module__.startswith("quickdetect."), (name, obj.__module__)
                home = importlib.import_module(obj.__module__)
                assert getattr(home, name) is obj, name
                assert space[name] is obj, name
            """
        )
        result = run_fresh(code)
        assert result.returncode == 0, result.stderr

    def test_unknown_package_attribute_raises(self):
        code = textwrap.dedent(
            """
            import quickdetect

            try:
                quickdetect.no_such_name
            except AttributeError as err:
                assert "no_such_name" in str(err), err
            else:
                raise SystemExit("quickdetect.no_such_name resolved")
            try:
                from quickdetect import no_such_name
            except ImportError:
                pass
            else:
                raise SystemExit("from quickdetect import no_such_name succeeded")
            """
        )
        result = run_fresh(code)
        assert result.returncode == 0, result.stderr

    def test_commands_leave_scipy_stats_unloaded(self, price_csv, tmp_path):
        # the exact renewal series take the normal tail from math.erfc and the
        # Q-Q plot its quantiles from statistics.NormalDist, so every command
        # runs, and writes its report, with any import of scipy failing
        model = ["--mu-pre", "0", "--sigma-pre", "0.5", "--mu-post", "0.6", "--sigma-post", "0.7"]
        commands = [
            ["returns", "--input", str(price_csv)],
            ["diagnose", "--input", str(price_csv)],
            ["segment", "--input", str(price_csv), "--seed", "11"],
            ["detect", "--input", str(price_csv), "--mode", "exact", *model,
             "--threshold-h", "3", "--threshold-a", "30", "--multi-cyclic"],
            ["calibrate", "--q", "1", "--delta", "1", "--mode", "exact",
             "--kind", "cusum", "--gamma", "10", "--replications", "200", "--seed", "5"],
            ["simulate", "--q", "1", "--delta", "1", "--mode", "exact",
             "--kind", "cusum", "--gamma", "10", "--replications", "200",
             "--nu", "100", "--seed", "1"],
            ["constants", "--q", "1", "--delta", "1", "--replications", "50"],
            ["constants", "--mu-pre", "0", "--sigma-pre", "1",
             "--mu-post", "0.3", "--sigma-post", "1.3", "--replications", "300"],
        ]
        code = textwrap.dedent(
            """
            import json, sys

            class NoScipy:
                def find_spec(self, name, path=None, target=None):
                    if name == "scipy" or name.startswith("scipy."):
                        raise ImportError(f"{name} is blocked")
                    return None

            sys.meta_path.insert(0, NoScipy())
            from quickdetect.cli import main

            codes = [main(args + ["--out", sys.argv[1]]) for args in json.loads(sys.argv[2])]
            print(codes)
            loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
            sys.exit(codes != [0] * len(codes) or loaded or "scipy.stats" in sys.modules)
            """
        )
        result = run_fresh(code, str(tmp_path / "o"), json.dumps(commands))
        assert result.returncode == 0, result.stdout + result.stderr
        for command, count in (("returns", 1), ("diagnose", 1), ("segment", 1), ("detect", 1),
                               ("calibrate", 1), ("simulate", 1), ("constants", 2)):
            reports = list((tmp_path / "o").glob(f"{command}-*.report.json"))
            assert len(reports) == count, command

    def test_module_invocation(self, price_csv, tmp_path):
        out = tmp_path / "o"
        result = subprocess.run(
            [sys.executable, "-m", "quickdetect.cli", "returns",
             "--input", str(price_csv), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert any(out.glob("returns-*.report.txt"))

    def test_inputs_decode_as_utf8_under_the_c_locale(self, tmp_path):
        # the same input bytes give the same series on every host: the CSV
        # and the config file are read as UTF-8, not in the locale's encoding
        csv_path = tmp_path / "prices.csv"
        csv_path.write_bytes("Date,Clôse\n2021-01-04,10\n2021-01-05,11.5\n2021-01-06,11\n".encode())
        config = tmp_path / "run.json"
        config.write_bytes('{"schema": "date=Date,close=Clôse"}'.encode())
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])
        )}
        out = tmp_path / "o"
        result = subprocess.run(
            [sys.executable, "-m", "quickdetect.cli", "returns", "--input", str(csv_path),
             "--config", str(config), "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert entry_map(load_report(out, "returns"), "series")["rows"]["value"] == 3

    def test_console_script_installed(self, price_csv, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["quickdetect"]
        assert pkgutil.resolve_name(target) is cli.main

        # The body of the wrapper script that installers generate for a
        # console-script entry point: import the target, exit with its result.
        module, attr = target.split(":")
        wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        out = tmp_path / "o"
        result = subprocess.run(
            [sys.executable, "-c", wrapper, "returns",
             "--input", str(price_csv), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert any(out.glob("returns-*.report.txt"))
        usage = subprocess.run(
            [sys.executable, "-c", wrapper, "returns"], capture_output=True, text=True
        )
        assert usage.returncode == 2, usage.stderr

        dist = next(iter(importlib.metadata.distributions(name="quickdetect")), None)
        if dist is not None:
            scripts = dist.entry_points.select(group="console_scripts", name="quickdetect")
            assert [ep.value for ep in scripts] == [target]
            assert shutil.which("quickdetect") is not None
