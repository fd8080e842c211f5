"""Driver tests: configuration, determinism, report shapes, exit-code
semantics, and the pinned example outputs."""

import ast
import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oneloop
import oneloop.cli
from oneloop.cli import (_COMMANDS, _FLAGS, ConfigError, RunConfig, _build_parser, _read_argv,
                         build_config, main)
from oneloop.fields import killing_residuals
from oneloop.geometry import (
    ModelParams, _gram_from_chart, _metric_second_derivatives,
    metric_first_derivatives,
)
from oneloop.params import c_compatible


EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()
ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The flags that each command reads and takes, besides --out.
FLAGS = {
    "verify-killing": ("n", "c", "c_exact", "seed", "points", "format"),
    "curvature": ("n", "c", "c_exact", "seed", "points"),
    "structure": ("n",),
    "center": ("n", "c"),
    "lattice": ("c_exact", "bound", "format"),
    "volume-table": ("n", "c", "c_exact", "grid", "format"),
}
# Every flag, and the retired --step, --vd and --config, which no command takes.
ALL_FLAGS = ("n", "c", "c_exact", "seed", "points", "step", "bound", "out", "format",
             "grid", "vd", "config")


def option(flag):
    return "--" + flag.replace("_", "-")


class TestConfig:
    def test_defaults(self):
        config = build_config(["structure"])
        assert config.command == "structure"
        assert config.n == 2
        assert config.c == 1.0
        assert config.seed == 42
        assert config.points == 20
        assert config.bound == 3
        assert config.format is None
        assert config.effective_format == "json"
        assert config.grid == (1.0, 2.0, 4.0)

    def test_default_formats_per_command(self):
        assert build_config(["lattice"]).effective_format == "csv"
        assert build_config(["volume-table"]).effective_format == "csv"
        assert build_config(["center"]).effective_format == "json"

    def test_c_exact_parsing_and_resolution(self):
        config = build_config(["curvature", "--c-exact", "1/2:3:7"])
        assert config.c_exact == (Fraction(1, 2), 3, 7)
        expected = c_compatible(Fraction(1, 2), 3, 7)
        assert config.effective_c == expected

    def test_c_exact_echoed_in_config(self):
        config = build_config(["curvature", "--c-exact", "1:2:3"])
        echo = config.echo()
        assert echo["c_exact"] == {"lam": "1", "a": 2, "b": 3}
        assert echo["c"] == config.effective_c

    def test_grid_parsing(self):
        config = build_config(["volume-table", "--grid", "1,2.5,4"])
        assert config.grid == (1.0, 2.5, 4.0)

    def test_malformed_c_exact_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_config(["curvature", "--c-exact", "1:2"])

    def test_validation_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            RunConfig(command="structure", n=0)
        with pytest.raises(ConfigError):
            RunConfig(command="structure", c=-1.0)
        with pytest.raises(ConfigError):
            RunConfig(command="structure", seed=-1)
        with pytest.raises(ConfigError):
            RunConfig(command="structure", points=0)
        with pytest.raises(ConfigError):
            RunConfig(command="lattice", bound=0)
        with pytest.raises(ConfigError):
            RunConfig(command="volume-table", grid=(1.0, -2.0))
        with pytest.raises(ConfigError, match="algebra parameters"):
            RunConfig(command="lattice", c_exact=(Fraction(1), 0, 3))
        # LAM is checked where it is read, so lattice, which reads only A:B,
        # takes a negative one.
        config = RunConfig(command="curvature", c_exact=(Fraction(-1), 2, 3))
        with pytest.raises(ConfigError, match="scaling factor must be nonnegative"):
            config.effective_c

    def test_json_only_commands_reject_csv(self, capsys, monkeypatch):
        # A command that reports JSON only takes no --format.
        for command in ("structure", "center", "curvature"):
            code, out, err = run_parser(capsys, monkeypatch, [command, "--format", "csv"])
            assert (code, out) == (2, "")
            assert err.endswith("\noneloop: error: unrecognized arguments: --format csv\n")

    def test_validation_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["structure", "--n", "0"])
        assert code == 2
        assert "positive integer" in err

    @pytest.mark.parametrize(
        "args, field",
        [
            (["verify-killing", "--n", "1", "--points", "2", "--c", "nan",
              "--format", "csv"], "c"),
            (["curvature", "--n", "1", "--points", "1", "--c", "nan"], "c"),
            (["volume-table", "--grid", "nan"], "grid"),
            (["volume-table", "--grid", "1,inf"], "grid"),
            (["volume-table", "--grid", "1,-inf"], "grid"),
            (["curvature", "--n", "1", "--points", "1", "--c", "inf"], "c"),
            (["center", "--n", "2", "--c", "nan"], "c"),
            (["center", "--n", "2", "--c", "inf"], "c"),
            (["volume-table", "--n", "1", "--c", "inf"], "c"),
            (["volume-table", "--n", "1", "--c", "nan"], "c"),
        ],
    )
    def test_non_finite_values_rejected(self, capsys, args, field):
        code, out, err = run_cli(capsys, args)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {field} must be")


class TestDeterminism:
    def test_same_config_same_bytes(self, capsys):
        args = ["structure", "--n", "3"]
        _, out_a, _ = run_cli(capsys, args)
        _, out_b, _ = run_cli(capsys, args)
        assert out_a == out_b

    def test_volume_table_deterministic(self, capsys):
        args = ["volume-table", "--n", "2", "--c", "1", "--grid", "1,3,9"]
        _, out_a, _ = run_cli(capsys, args)
        _, out_b, _ = run_cli(capsys, args)
        assert out_a == out_b

    @pytest.mark.parametrize("args", [
        ["verify-killing", "--n", "2", "--points", "2"],
        ["curvature", "--n", "1", "--points", "1"],
        ["volume-table", "--n", "2", "--format", "json"]], ids=lambda args: args[0])
    def test_echo_does_not_depend_on_how_c_is_written(self, capsys, args):
        # A negative zero echoes as 0.0.
        outputs = {run_cli(capsys, args + ["--c", c])[1] for c in ("-0.0", "0")}
        assert len(outputs) == 1

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        _, out, _ = run_cli(capsys, ["center", "--n", "4", "--out", str(path)])
        assert path.read_text(encoding="utf-8") == out

    @pytest.mark.parametrize("target", ["missing/report.json", "."],
                             ids=["missing-directory", "directory"])
    def test_unwritable_out_path_exits_2(self, capsys, tmp_path, target):
        path = tmp_path / target
        code, out, err = run_cli(capsys, ["center", "--n", "2", "--out", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1


# Strings that exercise every escape rule: the quote, the backslash, the C0
# controls (the short escapes and the \u forms), DEL and the line and
# paragraph separators, which stay as they are, and non-ASCII text.
JSON_TEXT = st.text(st.one_of(
    st.sampled_from('"\\\x00\x01\x08\t\n\x0b\x0c\r\x1f\x7f\u2028\u2029 a\u00e9\u4e2d\U0001d53e'),
    st.characters()))
JSON_FLOAT = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 1e16]),
    st.floats())
JSON_VALUE = st.recursive(
    st.one_of(JSON_TEXT, st.integers(), st.booleans(), st.none(), JSON_FLOAT),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(JSON_TEXT, children, max_size=4)),
    max_leaves=24)


class TestJsonText:
    """cli renders its reports without the json package, byte for byte as
    ``json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False)``."""

    @given(JSON_VALUE)
    @settings(max_examples=400, deadline=None)
    def test_matches_json_dumps(self, value):
        expected = json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        assert oneloop.cli._json_text(value) == expected

    @pytest.mark.parametrize("value", [
        {1: "a"}, {1.5: "a"}, {True: "a"}, {None: "a"}, {("a",): 1},
        {"a": [{"b": 1, 2: 3}]}, {"a": 1, 2: "b"},
    ], ids=["int", "float", "bool", "none", "tuple", "nested", "mixed"])
    def test_non_str_key_raises_type_error(self, value):
        with pytest.raises(TypeError):
            oneloop.cli._json_text(value)

    @pytest.mark.parametrize("value", [{"a": {1, 2}}, [object()], Fraction(1, 2)],
                             ids=["set", "object", "fraction"])
    def test_unserializable_value_raises_type_error_as_json_does(self, value):
        with pytest.raises(TypeError):
            json.dumps(value)
        with pytest.raises(TypeError):
            oneloop.cli._json_text(value)

    def test_out_file_is_stdout_is_the_json_rendering(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        _, out, _ = run_cli(capsys, ["verify-killing", "--n", "2", "--points", "2",
                                     "--out", str(path)])
        assert path.read_bytes() == out.encode("utf-8")
        report = json.loads(out)
        assert out == json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


class TestStructureCommand:
    def test_n2_all_pairs_clean(self, capsys):
        code, out, _ = run_cli(capsys, ["structure", "--n", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "structure"
        assert report["pairs_checked"] == 81
        assert report["mismatch_count"] == 0
        assert report["mismatches"] == []
        assert report["all_pass"] is True


class TestCenterCommand:
    def test_n2_pinned_generators(self, capsys):
        code, out, _ = run_cli(capsys, ["center", "--n", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["F"] == "(0,0,4πc)"
        assert report["Fprime"] == "(0,0,4πc)"
        assert report["kernel"][0]["human"] == "(2π,0,4πc)"
        assert report["c_positive"] is True
        assert report["ker_cap_su"] is not None

    def test_n1_has_no_discrete_slot_or_fprime(self, capsys):
        code, out, _ = run_cli(capsys, ["center", "--n", "1"])
        assert code == 0
        report = json.loads(out)
        assert report["Fprime"] is None
        assert report["ker_cap_su"] is None
        assert len(report["kernel"]) == 1
        assert report["kernel"][0]["human"] == "(2π,4πc)"

    def test_zero_deformation_trivializes_fiber_subgroups(self, capsys):
        code, out, _ = run_cli(capsys, ["center", "--n", "2", "--c", "0"])
        assert code == 0
        report = json.loads(out)
        assert report["c_positive"] is False
        assert report["F"] == "(0,0,0)"


class TestKillingCommand:
    def test_exact_rows_pass_and_translation_rows_fail(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify-killing", "--n", "1", "--c", "0.5", "--points", "2"]
        )
        report = json.loads(out)
        rows = {row["generator"]: row for row in report["rows"]}
        for label in ("YC", "T", "C1", "C2"):
            assert rows[label]["pass"] is True
            assert rows[label]["max_residual"] <= 1e-6
        # The fiber-translation family carries a different angle
        # normalization than the metric cross-terms, so its rows report
        # honest failures and the suite exits nonzero.
        assert rows["re V(0)"]["pass"] is False
        assert rows["re V(0)"]["max_residual"] > 1e-3
        assert report["control"]["exceeds_threshold"] is True
        assert report["all_pass"] is False
        assert code == 1

    def test_csv_format_has_control_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify-killing", "--n", "1", "--c", "0.5", "--points", "2",
             "--format", "csv"],
        )
        lines = out.strip().split("\n")
        assert lines[0] == "generator,max_residual,tolerance,pass"
        assert lines[1].startswith("YC,") and lines[1].endswith(",true")
        assert lines[-1].startswith("radial control") and lines[-1].endswith(",false")
        assert code == 1

    def test_csv_quotes_labels_with_commas(self, capsys):
        args = ["verify-killing", "--n", "2", "--points", "1"]
        _, csv_out, _ = run_cli(capsys, args + ["--format", "csv"])
        _, json_out, _ = run_cli(capsys, args)
        rows = list(csv.reader(io.StringIO(csv_out)))
        assert all(len(row) == 4 for row in rows)
        report = json.loads(json_out)
        labels = [row["generator"] for row in report["rows"]]
        assert [row[0] for row in rows[1:]] == labels + [report["control"]["generator"]]
        assert "re Comm(1,1)" in labels

    @pytest.mark.parametrize("c", ["1e8", "1e12"])
    def test_yc_passes_at_large_c(self, capsys, c):
        # The metric does not depend on phi_tilde, so d_phi g is stored as an
        # exact 0.0 and YC's angle component -2c multiplies no stencil
        # rounding: its residual stays at rounding level instead of growing
        # in proportion to c.
        _, out, _ = run_cli(capsys, ["verify-killing", "--n", "1", "--points", "3", "--c", c])
        rows = {row["generator"]: row for row in json.loads(out)["rows"]}
        for label in ("YC", "T", "C1", "C2"):
            assert rows[label]["pass"] is True
            assert rows[label]["max_residual"] <= 1e-12
        assert rows["T"]["max_residual"] == 0.0

    def test_tolerances_embedded(self, capsys):
        _, out, _ = run_cli(
            capsys, ["verify-killing", "--n", "1", "--c", "0", "--points", "2"]
        )
        report = json.loads(out)
        assert all(row["tolerance"] == 1e-6 for row in report["rows"])
        assert report["control"]["threshold"] == 1e-2


class TestCurvatureCommand:
    def test_n1_einstein_constant(self, capsys):
        code, out, _ = run_cli(
            capsys, ["curvature", "--n", "1", "--c", "1", "--points", "2"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["all_pass"] is True
        assert report["max_residual"] <= 1e-4
        assert abs(report["lambda_mean"] + 6.0) < 1e-4
        assert report["lambda_spread_relative"] <= 1e-4
        assert report["tolerance"] == 1e-4
        assert len(report["rows"]) == 2

    def test_nan_residual_fails_the_run(self, capsys, monkeypatch):
        # One NaN residual between finite ones is an error naming its point,
        # not a reported result.
        calls = iter([(-6.0, 0.0), (-6.0, float("nan")), (-6.0, 0.0)])
        monkeypatch.setattr(
            "oneloop.geometry.einstein_diagnostic", lambda p, params: next(calls)
        )
        code, out, err = run_cli(capsys, ["curvature", "--n", "1", "--points", "3"])
        assert (code, out) == (2, "")
        assert err == ("error: curvature at point 1 leaves the float range at c = 1.0: "
                       "lambda = -6.0, residual = nan\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_c_is_an_error(self, capsys):
        # The Gram matrix turns NaN at c = 1e308; the run must not print the
        # NaN rows as if they were results (stdout would not be JSON), and
        # its stderr is the error line alone, without numpy's warnings.
        code, out, err = run_cli(
            capsys, ["curvature", "--n", "1", "--points", "1", "--c", "1e308"])
        assert (code, out) == (2, "")
        assert err == "error: Gram matrix leaves the float range at c = 1e+308\n"


class TestStencilErrors:
    """The stencils behind each float command raise one OverflowError when a
    stencil point leaves the float range, which main reports as exit 2; no
    seeded point reaches it."""

    @pytest.mark.parametrize("command", ["curvature", "verify-killing"])
    def test_overflowing_step(self, command):
        # The Gram entries are finite at this rho, but rho + 2h, h = 1e-3 rho,
        # squares past the float range.
        params = ModelParams(1, 1.0)
        q = [1.34e154, 0.5, 0.5, 0.3]  # w = 0.5 + 0.5i, phi_tilde = 0.3
        assert all(map(math.isfinite, _gram_from_chart(q, params)))
        calls = {"curvature": [lambda: metric_first_derivatives(q, params),
                               lambda: _metric_second_derivatives(q, params)],
                 "verify-killing": [lambda: killing_residuals(params, [q])]}[command]
        prefix = ("finite-difference stencil leaves the float range: "
                  "rho**2 overflows at chart coordinate rho = ")
        for call in calls:
            with pytest.raises(OverflowError) as info:
                call()
            message = str(info.value)
            assert message.startswith(prefix)
            assert float(message[len(prefix):]) > 1.34e154  # a shifted rho


def child_env():
    """This environment with the package on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(oneloop.__file__))
    return env


def run_python(script):
    """Exit code, stdout and stderr of a fresh interpreter running script,
    in child_env()."""
    result = subprocess.run([sys.executable, "-c", script], env=child_env(),
                            capture_output=True, text=True)
    return result.returncode, result.stdout, result.stderr


# The package modules that a fresh process running each command loads.
MODULE_BUDGET = {
    "center": {"liealg"},
    "structure": {"liealg", "matrices", "polyfields", "generators", "exact", "params"},
    "verify-killing": {"fields", "generators", "geometry", "params"},
    "curvature": {"geometry", "params"},
    "lattice": {"quatarith", "heis", "exact", "params"},
    "volume-table": {"volume", "params"},
}
SMALL_RUNS = {
    "center": ["--n", "2"], "structure": ["--n", "1"],
    "verify-killing": ["--n", "1", "--points", "1"],
    "curvature": ["--n", "1", "--points", "1"],
    "lattice": ["--bound", "1"], "volume-table": ["--n", "1"],
}


def loaded_modules(argv, preamble=""):
    """The oneloop modules, without the package prefix, in sys.modules of a
    fresh interpreter that runs preamble and then main(argv)."""
    script = (
        "import contextlib, io, sys\n"
        f"{preamble}\n"
        "from oneloop.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) in (0, 1)\n"
        "print(*sorted(name for name in sys.modules if name.split('.')[0] == 'oneloop'))\n"
    )
    code, out, err = run_python(script)
    assert code == 0, err
    return {name.partition(".")[2] or name for name in out.split()}


class TestProcessStart:
    @pytest.mark.parametrize("command, extra", [
        *(pytest.param(command, [], id=command) for command in sorted(MODULE_BUDGET)),
        *(pytest.param(command, ["--c-exact", "1:2:3"], id=f"{command} --c-exact")
          for command in ("curvature", "verify-killing", "volume-table")),
    ])
    def test_module_budget(self, command, extra):
        # Each process compiles only what its command runs: center loads
        # neither the exact rings nor the matrix model, and the metric
        # commands read the c of --c-exact from params, with no lattice layer.
        assert sorted(MODULE_BUDGET) == sorted(_COMMANDS)
        loaded = loaded_modules([command, *SMALL_RUNS[command], *extra])
        assert loaded == {"oneloop", "cli", "record"} | MODULE_BUDGET[command]

    def test_module_budget_check_can_fail(self):
        # A module loaded before the run shows up in the set.
        loaded = loaded_modules(["center", "--n", "2"], "import oneloop.matrices")
        assert loaded - {"oneloop", "cli", "record"} - MODULE_BUDGET["center"] == {
            "matrices", "polyfields", "generators", "exact", "params"}

    def test_json_and_fractions_load_only_when_used(self):
        # No command loads json: cli renders every report itself, in
        # --format json too.  The CSV tables need no fractions, and
        # lattice's default algebra needs only fractions; the last lines
        # show that the check can fail.
        json_runs = [[command, *args, *(["--format", "json"] * ("format" in FLAGS[command]))]
                     for command, args in SMALL_RUNS.items()]
        json_runs.append(["volume-table", "--n", "1", "--c-exact", "1:2:3", "--format", "json"])
        script = (
            "import contextlib, io, sys\n"
            "import oneloop.cli\n"
            "assert not {'json', 'fractions'} & set(sys.modules)\n"
            "for argv, absent in ((['volume-table', '--n', '3'], {'json', 'fractions'}),\n"
            "                     (['lattice', '--bound', '2'], {'json'})):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert oneloop.cli.main(argv) == 0, argv\n"
            "    assert not absent & set(sys.modules), (argv, absent & set(sys.modules))\n"
            f"for argv in {json_runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "        assert oneloop.cli.main(argv) in (0, 1), argv\n"
            "    assert out.getvalue().startswith('{'), argv\n"
            "assert 'json' not in sys.modules\n"
            "assert 'fractions' in sys.modules\n"
            "import json\n"
            "assert 'json' in sys.modules\n"
        )
        assert sorted(SMALL_RUNS) == sorted(_COMMANDS)
        code, _, err = run_python(script)
        assert code == 0, err

    def test_verify_killing_loads_no_fractions(self):
        # The float catalogue is built from Gaussian-integer pairs, and the
        # seeded points and their checks need math alone, not cmath; the
        # last lines show that the check can fail.
        script = (
            "import contextlib, io, sys\n"
            "from oneloop.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['verify-killing', '--n', '3', '--points', '1']) in (0, 1)\n"
            "    assert main(['curvature', '--n', '2', '--points', '1']) == 0\n"
            "assert not {'fractions', 'cmath'} & set(sys.modules)\n"
            "import cmath, oneloop.polyfields\n"
            "assert {'fractions', 'cmath'} <= set(sys.modules)\n"
        )
        code, _, err = run_python(script)
        assert code == 0, err

    def test_argparse_loads_only_for_help_and_errors(self):
        # A well-formed argv is read from the flag table: no process that
        # runs one loads argparse, or the gettext and locale it brings.  Help
        # and a rejected flag still go through argparse.
        parser_modules = {"argparse", "gettext", "locale"}
        script = (
            "import contextlib, io, sys\n"
            "from oneloop.cli import main\n"
            f"for argv in {[[command, *args] for command, args in SMALL_RUNS.items()]!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) in (0, 1), argv\n"
            f"print(*sorted({parser_modules!r} & set(sys.modules)))\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            "        main(sys.argv[1:])\n"
            "    except SystemExit:\n"
            "        pass\n"
            f"print(*sorted({parser_modules!r} & set(sys.modules)))\n"
        )
        assert sorted(SMALL_RUNS) == sorted(_COMMANDS)
        for rejected in (["--help"], ["center", "--bound", "3"]):
            result = subprocess.run([sys.executable, "-c", script, *rejected],
                                    env=child_env(), capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            before, after = result.stdout.splitlines()
            assert (before, after) == ("", "argparse gettext locale"), rejected

    def test_no_command_loads_numpy(self):
        # Every subcommand, the float ones included, runs in plain Python:
        # no process has numpy in sys.modules.  The last lines show that the
        # check can fail: importing numpy puts it there.
        script = (
            "import contextlib, io, sys\n"
            "import oneloop.cli\n"
            "for argv in (['verify-killing', '--n', '2', '--points', '2'],\n"
            "             ['curvature', '--n', '1', '--points', '1'],\n"
            "             ['center', '--n', '2'], ['structure', '--n', '1'],\n"
            "             ['lattice', '--bound', '2'], ['volume-table', '--n', '1']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert oneloop.cli.main(argv) in (0, 1), argv\n"
            "    assert 'numpy' not in sys.modules, argv\n"
            "import numpy\n"
            "assert 'numpy' in sys.modules\n"
        )
        assert sorted(_COMMANDS) == ["center", "curvature", "lattice", "structure",
                                     "verify-killing", "volume-table"]
        code, _, err = run_python(script)
        assert code == 0, err

    @pytest.mark.parametrize("command, n, c", [
        ("curvature", "1", "1e308"), ("verify-killing", "1", "1e308"),
        ("verify-killing", "2", "1e160"), ("verify-killing", "3", "1e155"),
    ])
    def test_float_range_error_is_the_only_stderr_line(self, command, n, c):
        # A warning would go to the process's stderr, which the in-process
        # runs of GOLDEN do not see.
        script = ("import sys\n"
                  "from oneloop.cli import main\n"
                  f"sys.exit(main([{command!r}, '--n', {n!r}, '--points', '1', "
                  f"'--c', {c!r}]))\n")
        code, out, err = run_python(script)
        assert (code, out) == (2, "")
        assert err == f"error: Gram matrix leaves the float range at c = {float(c)!r}\n"


def run_module(args, env, **kwargs):
    """The finished ``python -m oneloop.cli args`` child, its streams as UTF-8 text."""
    return subprocess.run([sys.executable, "-m", "oneloop.cli", *args], env=env,
                          encoding="utf-8", **kwargs)


class TestProcessExit:
    """``python -m oneloop.cli`` and the ``oneloop`` script end the process
    through ``run``, which skips interpreter teardown once the output is
    flushed; what a caller sees must be what ``main`` gives in process."""

    @pytest.mark.parametrize("args, code", [
        (["center", "--n", "2"], 0),
        (["volume-table", "--n", "1", "--format", "csv"], 0),
        (["verify-killing", "--n", "1", "--points", "2"], 1),
        (["center", "--n", "0"], 2),
        (["curvature", "--n", "1", "--points", "1", "--c", "1e308"], 2),
        (["lattice", "--bound", "2", "--out"], 0),
    ], ids=lambda value: " ".join(value) if isinstance(value, list) else str(value))
    def test_module_run_matches_main(self, capsys, tmp_path, args, code):
        out_file = tmp_path / "report"
        if args[-1] == "--out":
            args = args + [str(out_file)]
        child = run_module(args, child_env(), capture_output=True)
        if "--out" in args:
            assert out_file.read_text(encoding="utf-8") == child.stdout
        assert (child.returncode, child.stdout, child.stderr) == run_cli(capsys, args)
        assert child.returncode == code

    @pytest.mark.parametrize("args", [["lattice", "--bound", "2"], ["center", "--n", "2"]],
                             ids=" ".join)
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_pipe_takes_the_ordinary_exit(self, args, unbuffered):
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = run_module(args, env, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        lines = child.stderr.splitlines()
        if unbuffered:
            # The write in main raises, and its traceback ends the process.
            assert child.returncode == 1
            assert lines[0] == "Traceback (most recent call last):"
            assert lines[-3].endswith(", in main")
            assert lines[-2:] == ["    sys.stdout.write(text)",
                                  "BrokenPipeError: [Errno 32] Broken pipe"]
        else:
            # main returns; the failed flush is reported once, by teardown.
            assert child.returncode == 120
            assert len(lines) == 2
            assert lines[0].startswith(
                "Exception ignored in: <_io.TextIOWrapper name='<stdout>' ")
            assert lines[1] == "BrokenPipeError: [Errno 32] Broken pipe"

    def test_script_and_module_share_one_exit_function(self, capsys):
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
        module, _, name = pyproject["project"]["scripts"]["oneloop"].partition(":")
        tree = ast.parse(Path(oneloop.cli.__file__).read_text(encoding="utf-8"))
        blocks = [node.body for node in tree.body if isinstance(node, ast.If)
                  and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert [[ast.unparse(statement) for statement in body] for body in blocks] == [
            [f"{name}()"]]
        assert getattr(importlib.import_module(module), name) is oneloop.cli.run
        # main itself returns its code: this process is still running.
        assert run_cli(capsys, ["center", "--n", "0"])[0] == 2
        assert run_cli(capsys, ["center", "--n", "2"])[0] == 0


class TestLatticeCommand:
    def test_default_algebra_all_flags_true(self, capsys):
        code, out, err = run_cli(capsys, ["lattice", "--bound", "2"])
        assert code == 0
        assert err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "q0,q1,q2,q3,norm,su11_ok,preserves_gamma2"
        assert len(lines) == 15  # header + 14 norm-one elements
        assert all(line.endswith("true,true") for line in lines[1:])
        # a = 1 or b = 1 folds that root into the rational part of the
        # radical ring; the flags must still hold (both configurations also
        # print a division-algebra warning).
        for c_exact in ("1:1:3", "1:2:1"):
            code, out, _ = run_cli(
                capsys, ["lattice", "--c-exact", c_exact, "--bound", "2"]
            )
            assert code == 0
            lines = out.strip().split("\n")
            assert len(lines) > 1
            assert all(line.endswith("true,true") for line in lines[1:])

    def test_residue_warning_still_enumerates(self, capsys):
        code, out, err = run_cli(
            capsys, ["lattice", "--c-exact", "1:4:7", "--bound", "1"]
        )
        assert code == 0
        assert "is_nonresidue(4, 7) = false" in err
        assert "enumeration still runs" in err
        assert len(out.strip().split("\n")) >= 2

    def test_composite_second_parameter_warns(self, capsys):
        code, out, err = run_cli(
            capsys, ["lattice", "--c-exact", "1:2:6", "--bound", "1"]
        )
        assert code == 0
        assert "not a prime" in err
        assert len(out.strip().split("\n")) >= 2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, ["lattice", "--bound", "1", "--format", "json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["a"] == 2 and report["b"] == 3
        assert report["all_pass"] is True
        found = {tuple(r[k] for k in ("q0", "q1", "q2", "q3")) for r in report["rows"]}
        units = {(1, 0, 0, 0), (-1, 0, 0, 0)}
        mixed = {(0, s1, s2, s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)}
        assert found == units | mixed
        assert all(r["su11_ok"] and r["preserves_gamma2"] for r in report["rows"])


class TestVolumeTableCommand:
    def test_pinned_undeformed_tail_column(self, capsys):
        code, out, _ = run_cli(
            capsys, ["volume-table", "--n", "1", "--c", "0", "--grid", "1,2,4"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "rho,density,closed_tail,quadrature_tail,ratio_to_asymptote"
        tails = [float(line.split(",")[2]) for line in lines[1:]]
        assert tails == [0.5, 0.125, 0.03125]
        ratios = [float(line.split(",")[4]) for line in lines[1:]]
        assert ratios == [1.0, 1.0, 1.0]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["volume-table", "--n", "1", "--c", "0", "--grid", "1,2", "--format", "json"],
        )
        assert code == 0
        report = json.loads(out)
        assert sorted(report) == ["all_pass", "command", "config", "rows", "tolerance"]
        assert [row["closed_tail"] for row in report["rows"]] == [0.5, 0.125]
        assert report["all_pass"] is True
        assert report["tolerance"] == 1e-12


    @pytest.mark.parametrize("grid", ["1e80", "1e-50"])
    def test_grid_outside_float_range_names_the_value(self, capsys, grid):
        code, out, err = run_cli(
            capsys, ["volume-table", "--n", "3", "--grid", f"1,{grid}"]
        )
        assert code == 2
        assert out == ""
        assert err == f"error: rho = {float(grid)!r} leaves the float range at n = 3\n"


class TestOneRecord:
    @pytest.mark.parametrize("args", [
        ["verify-killing", "--n", "1", "--c", "0.5", "--points", "2"],
        ["lattice", "--bound", "1"],
        ["volume-table", "--n", "3", "--grid", "0.5,1,7"],
    ], ids=lambda args: args[0])
    def test_csv_rows_are_the_json_rows_formatted(self, capsys, args):
        columns = _COMMANDS[args[0]][3]
        csv_code, csv_out, _ = run_cli(capsys, args + ["--format", "csv"])
        json_code, json_out, _ = run_cli(capsys, args + ["--format", "json"])
        assert csv_code == json_code
        report = json.loads(json_out)
        rows = report["rows"]
        if args[0] == "verify-killing":
            control = report["control"]
            rows = rows + [dict(control, tolerance=control["threshold"])]
        reader = csv.DictReader(io.StringIO(csv_out))
        assert list(reader) == [
            {name: fmt(row[name]) for name, fmt in columns} for row in rows
        ]
        assert reader.fieldnames == [name for name, _ in columns]


# sha256 of stdout, exit code and exact stderr of fixed invocations, taken
# from the parent of the change that introduced this table.  They pin the
# byte-identical output contract across changes, not only within one run.
# The volume-table rows are float quadrature sums, so a platform whose libm
# rounds differently may move their last digits.
GOLDEN = [
    (["center", "--n", "2"], 0,
     "5cada451a0062a06c972269b0913bd36dba51c549b205736f92f9d12698d073d", ""),
    (["center", "--n", "2", "--c", "0"], 0,
     "018d13605f9d2224f5cc2234dbb786ed86f3b21f94de9132e2ca4a171c5e3c7f", ""),
    (["center", "--n", "6"], 0,
     "60a035c63559c34cd71a482ee22c9a441aaebfeba4d256d215f5a5e901a55988", ""),
    (["structure", "--n", "1"], 0,
     "381e6c04cd909d9cf497c14c7211f1e3c3cdeb814db6f8168500f9687e31cddf", ""),
    (["structure", "--n", "2"], 0,
     "28ba1c31fa20cf461828470c52a5533b56c680014a85358fc0b4b9e6347c0526", ""),
    (["structure", "--n", "3"], 0,
     "50265bb421c7f3274df023696870877ec6836235afe5e7a632f693ae2bfdafe0", ""),
    (["structure", "--n", "4"], 0,
     "b90c76842e8c79c83320450e7a021aec546b9a65a8fc717289f8f5fac49cba69", ""),
    # Past the benchmark's sizes: 1296 and 2401 ordered pairs.
    (["structure", "--n", "5"], 0,
     "9f6b7df4c5375772ccc3d729dbf5c78279c882da057d964ed04d8921297991ad", ""),
    (["structure", "--n", "6"], 0,
     "0b96f0a3e36af2c401fa143ecf31fd847971d076e0344e0160797db0e439f0a7", ""),
    (["lattice", "--bound", "2"], 0,
     "42f7d76e728d3be4fddf67933ee0a53ecb65d0160dd8df4626d10276feca767b", ""),
    (["lattice", "--bound", "2", "--format", "json"], 0,
     "4f93b2be53e81bdc12048c6288a251ad4115e9ad90eb4e53b6a26b7526ace2d8", ""),
    (["lattice", "--c-exact", "1:3:7", "--bound", "3", "--format", "json"], 0,
     "21ac942a7c78be62ea960102c674879be620d2abb4c12aca560feef3e96a0478", ""),
    # The three lattice jobs of the benchmark's exact workload.
    (["lattice", "--c-exact", "1:2:3", "--bound", "5"], 0,
     "4f1d03faa1a60526603bae70e004d63029de2158e73f34635354394f057fc262", ""),
    (["lattice", "--c-exact", "1:2:5", "--bound", "6"], 0,
     "e4bd9bcbfc6f7006babdb7c77cf85cde3842a97ad1f40a89419c224413b640ee", ""),
    (["lattice", "--c-exact", "1:3:7", "--bound", "8"], 0,
     "4b6e98736fdc5248b72b71002fe7e5aa567030419f1a8acea817b5e543ec731b", ""),
    (["lattice", "--c-exact", "1:2:1", "--bound", "2"], 0,
     "58ccf65d937a5d2a1fe703773ac1159b351b25caa4f0cff133f6eb52ceb2b1f1",
     "warning: b = 1 is not a prime (division-algebra hypothesis unmet); "
     "enumeration still runs\n"),
    # The two volume-table jobs of the benchmark's cold-cli workload.
    (["volume-table", "--n", "1"], 0,
     "6767c8d60f68f07278f9bd27c00d04b6d152e58f16f5c461cd591afbdc77fcf8", ""),
    (["volume-table", "--n", "1", "--format", "json"], 0,
     "86da9487a64aae7b54781d2631a772057af1e841bd3403e5108e1815585f9903", ""),
    (["volume-table", "--n", "3"], 0,
     "72b695e9d8ee50ddd18521fc13c327e6f098f8da3db592bf85afea777fc9919e", ""),
    (["volume-table", "--n", "3", "--format", "json"], 0,
     "98c4a057c6ed01a36ae28bc51accabb19cd5f8738b2ba97d72dacc7fb807a779", ""),
    (["volume-table", "--n", "2", "--c-exact", "1:3:7", "--format", "json"], 0,
     "1b6304794c1297c0c9384f988ed43bd68914ab667ecb73bf1377c7adeb50d0d5", ""),
    # Twelve decades of rho at n = 6.
    (["volume-table", "--n", "6", "--c", "2.5", "--grid", "1e-6,1e-3,1,1e3,1e6"], 0,
     "4569f75c90cfd8fc448890bbef432567d3decc8879f4b036c6c23f1247806829", ""),
    # Every entry of these rows is a normal float, though rho^(n+1+k) on its
    # own is not; a density of 1.5625e-308 is subnormal.
    (["volume-table", "--n", "6", "--c", "0", "--grid", "1e-30,1e30"], 0,
     "874512be1902b6aee0f406cc855f40a797db50ccab7d84f263af1a8a669697b4", ""),
    (["volume-table", "--n", "3", "--grid", "1,1e60"], 0,
     "61390e842f7655e232276464fd83d3c1e009ff7a6a8989055f43ad8fbce9b626", ""),
    # H's coefficients reach 2^1000 here, and Horner's partial sums would
    # leave the float range before H does; this exited 2 before they were
    # scaled.
    (["volume-table", "--n", "1039", "--c", "0.5", "--grid", "1"], 0,
     "98f4f4c60f31d5ff9bf42412ae048eb3c42615c04edfb373cd5d1f5a6ee2f357", ""),
    (["volume-table", "--n", "1", "--c", "0", "--grid", "4e102"], 2, EMPTY_SHA256,
     "error: rho = 4e+102 leaves the float range at n = 1\n"),
    # center reads only whether c > 0, and takes --c alone.
    (["center", "--n", "2", "--c-exact", "1e400:2:3"], 2, EMPTY_SHA256,
     "usage: oneloop [-h]\n"
     "               {verify-killing,structure,center,curvature,lattice,volume-table}\n"
     "               ...\n"
     "oneloop: error: unrecognized arguments: --c-exact 1e400:2:3\n"),
    # A LAM whose c leaves the float range.
    (["verify-killing", "--n", "1", "--points", "1", "--c-exact", "1e400:2:3"], 2,
     EMPTY_SHA256, "error: c-exact 1e+400:2:3 gives a c that leaves the float range\n"),
    (["curvature", "--n", "1", "--points", "1", "--c-exact", "1e400:2:3"], 2,
     EMPTY_SHA256, "error: c-exact 1e+400:2:3 gives a c that leaves the float range\n"),
    (["volume-table", "--n", "1", "--c-exact", "1e400:2:3"], 2,
     EMPTY_SHA256, "error: c-exact 1e+400:2:3 gives a c that leaves the float range\n"),
    # A positive LAM whose c underflows to 0.0.
    (["verify-killing", "--n", "1", "--points", "1", "--c-exact", "1e-400:2:3"], 2,
     EMPTY_SHA256, "error: c-exact 1e-400:2:3 gives a c that leaves the float range\n"),
    (["curvature", "--n", "1", "--points", "1", "--c-exact", "1e-400:2:3"], 2,
     EMPTY_SHA256, "error: c-exact 1e-400:2:3 gives a c that leaves the float range\n"),
    (["volume-table", "--n", "1", "--c-exact", "1e-400:2:3"], 2,
     EMPTY_SHA256, "error: c-exact 1e-400:2:3 gives a c that leaves the float range\n"),
    # Each part of --c-exact is checked where it is read: lattice reads A:B
    # alone, and prints the bytes of LAM = 1; a command that reads c refuses
    # a negative LAM.
    (["lattice", "--c-exact=-1:2:3", "--bound", "1"], 0,
     "ef6ba21309c6c391f460736864542e1ff81201233a8195af20e4ceacf64ed5a6", ""),
    (["verify-killing", "--n", "1", "--points", "1", "--c-exact=-1:2:3"], 2,
     EMPTY_SHA256, "error: c-exact scaling factor must be nonnegative\n"),
    (["lattice", "--c-exact", "1:0:3", "--bound", "1"], 2, EMPTY_SHA256,
     "error: c-exact algebra parameters must be positive integers\n"),
    # Two flags that set c.
    (["verify-killing", "--n", "1", "--points", "1", "--c", "5", "--c-exact", "1:2:3"], 2,
     EMPTY_SHA256, "error: --c and --c-exact both set c; give one of them\n"),
    # A command that reports JSON only takes no --format.
    (["structure", "--format", "csv"], 2, EMPTY_SHA256,
     "usage: oneloop [-h]\n"
     "               {verify-killing,structure,center,curvature,lattice,volume-table}\n"
     "               ...\n"
     "oneloop: error: unrecognized arguments: --format csv\n"),
    (["center", "--n", "0"], 2, EMPTY_SHA256,
     "error: n must be a positive integer, got 0\n"),
    (["center", "--n", "2", "--c", "nan"], 2, EMPTY_SHA256,
     "error: c must be a finite non-negative real, got nan\n"),
    # d_phi g is an exact zero, so YC's angle component -2c multiplies no
    # stencil rounding: a report, not a float-range error.
    (["verify-killing", "--n", "1", "--points", "1", "--c", "1e300"], 0,
     "c3695ec6a29433a670b229a0f9b2ab10406c27d6a0d3f0e9d3fd91857d1d2559", ""),
    (["curvature", "--n", "1", "--points", "1", "--c", "1e308"], 2, EMPTY_SHA256,
     "error: Gram matrix leaves the float range at c = 1e+308\n"),
    (["verify-killing", "--n", "1", "--points", "1", "--c", "1e308"], 2, EMPTY_SHA256,
     "error: Gram matrix leaves the float range at c = 1e+308\n"),
    (["verify-killing", "--n", "2", "--points", "1", "--c", "1e160"], 2, EMPTY_SHA256,
     "error: Gram matrix leaves the float range at c = 1e+160\n"),
    (["verify-killing", "--n", "3", "--points", "1", "--c", "1e155"], 2, EMPTY_SHA256,
     "error: Gram matrix leaves the float range at c = 1e+155\n"),
    # At this seed the Gram matrix stays finite and c**2 overflows first.
    (["verify-killing", "--n", "2", "--points", "1", "--c", "1.5e154", "--seed", "99"],
     2, EMPTY_SHA256,
     "error: symmetry field terms leave the float range at c = 1.5e+154: "
     "a power of degree <= 2 overflows\n"),
    # Finite, but the Cholesky test fails in floating point.
    (["verify-killing", "--n", "2", "--points", "1", "--c", "1e103"], 2, EMPTY_SHA256,
     "error: Gram matrix at c = 1e+103, n = 2, rho = 1.9767263688984464 is finite "
     "but fails the floating-point positive-definiteness test: it is too "
     "ill-conditioned at this c and rho\n"),
    (["curvature", "--n", "2", "--points", "1", "--c", "1e103"], 2, EMPTY_SHA256,
     "error: Gram matrix at c = 1e+103, n = 2, rho = 1.9767263688984464 is finite "
     "but fails the floating-point positive-definiteness test: it is too "
     "ill-conditioned at this c and rho\n"),
    (["curvature", "--n", "3", "--points", "1", "--c", "1e155"], 2, EMPTY_SHA256,
     "error: Gram matrix leaves the float range at c = 1e+155\n"),
]


@pytest.mark.parametrize("args, code, digest, err", GOLDEN,
                         ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_output(capsys, monkeypatch, args, code, digest, err):
    monkeypatch.setenv("COLUMNS", "80")  # the width of argparse's usage lines
    try:
        got_code = main(args)
    except SystemExit as stop:  # an invocation that argparse rejects
        got_code = stop.code
    captured = capsys.readouterr()
    assert (got_code, hashlib.sha256(captured.out.encode("utf-8")).hexdigest(),
            captured.err) == (code, digest, err)
    # The exit status follows the printed verdict, and the report names the
    # command it ran.
    if got_code in (0, 1) and captured.out.startswith("{"):
        report = json.loads(captured.out)
        assert got_code == (1 if report.get("all_pass") is False else 0)
        assert report["command"] == args[0]


def run_parser(capsys, monkeypatch, args):
    """Exit code, stdout and stderr of a run that argparse itself ends."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main(args)
    captured = capsys.readouterr()
    return stop.value.code, captured.out, captured.err


# sha256 of the --help text at 80 columns (Python 3.11; another argparse
# version may lay help out differently).  The top-level text is the one from
# before the flags moved onto one shared parent parser; each subcommand's
# text lists the flags that command takes.
HELP_SHA256 = {
    (): "9913284e225edbadca4fefde66826506f9ab95355fdb11db1b52b0cf8c289f68",
    ("verify-killing",): "ee78bea18c7f81f811ccdc87854184e48829acf13fde538369729f55fca13047",
    ("structure",): "2c0cc8a7eee382fbf89e1889934e44a474b42a796e3198d416139e12139ac20e",
    ("center",): "5aede827fe57e7b39c383d5ddcee3c0a8775274c262c441e8efb63c865444b33",
    ("curvature",): "932c55bbb3752ec83f141f271cad0dba74ffdbdb494ff40cda9f184f003993dc",
    ("lattice",): "f5f91d2efca12cd4774232824efea917a9e6ce6d5ec854ac5bd9fcce03dcbbe6",
    ("volume-table",): "3dea0e2c0500374dcd5896b57d2ae3afb8d53cc59b293e4edb7fa3d5807e16b2",
}


class TestArgparseOutput:
    def test_every_command_has_a_pinned_help(self):
        assert set(HELP_SHA256) == {()} | {(name,) for name in _COMMANDS}

    @pytest.mark.parametrize("command", list(HELP_SHA256),
                             ids=lambda command: " ".join(command) or "top")
    def test_help(self, capsys, monkeypatch, command):
        code, out, err = run_parser(capsys, monkeypatch, list(command) + ["--help"])
        assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest(), err) == (
            0, HELP_SHA256[command], "")

    def test_unknown_flag(self, capsys, monkeypatch):
        assert run_parser(capsys, monkeypatch, ["lattice", "--bogus"]) == (2, "", (
            "usage: oneloop [-h]\n"
            "               {verify-killing,structure,center,curvature,lattice,volume-table}\n"
            "               ...\n"
            "oneloop: error: unrecognized arguments: --bogus\n"))

    @pytest.mark.parametrize("args, rest", [
        (["lattice", "--bou", "1"], "--bou 1"),
        (["structure", "--n", "1", "--c", "7"], "--c 7"),
        # --c is no prefix of --c-exact where --c is not taken.
        (["lattice", "--c", "7"], "--c 7"),
    ], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
    def test_no_prefix_abbreviations(self, capsys, monkeypatch, args, rest):
        code, out, err = run_parser(capsys, monkeypatch, args)
        assert (code, out) == (2, "")
        assert err.endswith(f"\noneloop: error: unrecognized arguments: {rest}\n")

    def test_invalid_choice(self, capsys, monkeypatch):
        assert run_parser(capsys, monkeypatch, ["lattice", "--format", "xml"]) == (2, "", (
            "usage: oneloop lattice [-h] [--c-exact LAM:A:B] [--bound BOUND]\n"
            "                       [--format {json,csv}] [--out OUT]\n"
            "oneloop lattice: error: argument --format: invalid choice: 'xml' "
            "(choose from 'json', 'csv')\n"))


def parse_with_argparse(parser, argv):
    """vars() of argparse's namespace for argv, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


# Tokens of argv: every command, every flag spelling and spellings that no
# command takes, and values that convert, fail to convert or start with "-".
ARGV_COMMANDS = sorted(_COMMANDS) + ["bogus"]
ARGV_FLAGS = sorted(option(flag) for flag in _FLAGS) + ["--c_exact", "--n=2", "-h", "--",
                                                         "--poi"]
ARGV_VALUES = ["1", "2", "0", "-1", "-0.0", "", " 3", "03", "1e300", "nan", "1:2", "1/2:3:7",
               "1:2:3", "-1:2:3", "1,2", "json", "csv", "xml", "a b"]


class TestTableRead:
    """build_config reads well-formed argv from _COMMANDS and _FLAGS and
    leaves the rest to argparse, with the same values."""

    PARSER = _build_parser()

    @given(st.tuples(
        st.sampled_from(ARGV_COMMANDS),
        st.lists(st.one_of(
            st.tuples(st.sampled_from(ARGV_FLAGS), st.sampled_from(ARGV_VALUES)),
            st.tuples(st.sampled_from(ARGV_COMMANDS + ARGV_FLAGS + ARGV_VALUES))),
            max_size=5)))
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_argparse(self, parts):
        command, pairs = parts
        argv = [command, *(token for pair in pairs for token in pair)]
        read = _read_argv(argv)
        expected = parse_with_argparse(self.PARSER, argv)
        # repr: NaN values compare equal, and the key order counts too.
        assert read is None or repr(read) == repr(expected), argv

    @pytest.mark.parametrize("argv", [
        ["center", "--n", "2"], ["structure"], ["lattice", "--bound", "1", "--out", ""],
        ["verify-killing", "--points", "03", "--n", " 3", "--c", "nan", "--format", "csv"],
        ["curvature", "--c-exact", "1/2:3:7", "--seed", "7"],
        ["volume-table", "--grid", "1,2", "--c", "1e300", "--out", "a b"],
    ], ids=" ".join)
    def test_reads_well_formed_argv(self, argv):
        read = _read_argv(argv)
        assert read is not None
        assert repr(read) == repr(parse_with_argparse(self.PARSER, argv))

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["-h"], ["center", "-h"], ["center", "--help"],
        ["center", "--n=2"], ["center", "--n", "-1"], ["center", "--c", "-0.0"],
        ["lattice", "--c-exact", "-1:2:3"], ["center", "--n", "2", "--n", "3"],
        ["center", "--poi", "1"], ["center", "--c_exact", "1:2:3"],
        ["center", "--bound", "3"], ["structure", "--format", "json"],
        ["center", "--n", "1.5"], ["center", "--n", ""], ["center", "--n"],
        ["lattice", "--c-exact", "1:2"], ["volume-table", "--grid", "a b"],
        ["lattice", "--format", "xml"], ["center", "--", "--n", "2"],
    ], ids=lambda argv: " ".join(argv) or "empty")
    def test_declines_other_argv(self, argv):
        assert _read_argv(argv) is None


# Two values of each flag at which every command that reads the flag reports
# differently, and the smallest sizes of the other flags.
VALUES = {"n": ("1", "2"), "c": ("0", "1"), "c_exact": ("0:2:3", "1:3:7"),
          "seed": ("1", "2"), "points": ("1", "2"), "step": ("1e-3", "2e-3"),
          "bound": ("1", "2"), "grid": ("1", "2"), "vd": ("1", "2"),
          "config": ("cfg.json", "other.json"), "format": ("json", "csv")}
SMALL = {"n": "1", "points": "1", "bound": "1"}


class TestFlagTable:
    """Each command takes the flags it reads and no other."""

    def test_table(self):
        assert {name: entry[1] for name, entry in _COMMANDS.items()} == FLAGS
        assert sum(len(flags) + 1 for flags in FLAGS.values()) == 28
        for _, flags, _, columns in _COMMANDS.values():
            assert ("format" in flags) == (columns is not None)

    def test_readme_table(self):
        # README's flag table lists, row by row, what _COMMANDS declares.
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("Each subcommand takes the flags that it reads", 1)[1]
        table = section.split("\n\n")[1].splitlines()
        rows = [re.fullmatch(r"\| `([a-z-]+)` \| `([^`]*)` \|", line) for line in table[2:]]
        assert all(rows), table
        assert sorted(row.groups() for row in rows) == sorted(
            (name, " ".join(map(option, entry[1]))) for name, entry in _COMMANDS.items())

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in FLAGS.items() for flag in flags
        if flag != "format"])
    def test_every_declared_flag_is_read(self, capsys, command, flag):
        base = [command, *(["--format", "json"] if "format" in FLAGS[command] else [])]
        base += [arg for name, value in SMALL.items()
                 if name in FLAGS[command] and name != flag for arg in (option(name), value)]
        reports = []
        for value in VALUES[flag]:
            code, out, _ = run_cli(capsys, base + [option(flag), value])
            report = json.loads(out)
            report.pop("config", None)
            reports.append((code, report))
        assert reports[0] != reports[1]

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in FLAGS.items() for flag in ALL_FLAGS
        if flag not in flags + ("out",)])
    def test_every_undeclared_flag_is_rejected(self, capsys, monkeypatch, command, flag):
        value = VALUES[flag][0]
        code, out, err = run_parser(capsys, monkeypatch, [command, option(flag), value])
        assert (code, out) == (2, "")
        assert err.endswith(f"\noneloop: error: unrecognized arguments: {option(flag)} {value}\n")
