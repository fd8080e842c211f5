"""Driver tests: configuration precedence, determinism, report shapes,
exit-code semantics, and the pinned example outputs."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import oneloop
from oneloop.cli import _COMMANDS, ConfigError, RunConfig, build_config, main
from oneloop.quatarith import QuatParams, c_compatible


EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()


def run_cli(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    def test_defaults(self):
        config = build_config(["structure"])
        assert config.command == "structure"
        assert config.n == 2
        assert config.c == 1.0
        assert config.seed == 42
        assert config.points == 20
        assert config.step == 1e-3
        assert config.bound == 3
        assert config.format is None
        assert config.effective_format == "json"
        assert config.grid == (1.0, 2.0, 4.0)
        assert config.vd == 1.0

    def test_default_formats_per_command(self):
        assert build_config(["lattice"]).effective_format == "csv"
        assert build_config(["volume-table"]).effective_format == "csv"
        assert build_config(["center"]).effective_format == "json"

    def test_c_exact_parsing_and_resolution(self):
        config = build_config(["curvature", "--c-exact", "1/2:3:7"])
        assert config.c_exact == (Fraction(1, 2), 3, 7)
        expected = c_compatible(QuatParams(3, 7), Fraction(1, 2))
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
            RunConfig(command="structure", step=0.0)
        with pytest.raises(ConfigError):
            RunConfig(command="lattice", bound=0)
        with pytest.raises(ConfigError):
            RunConfig(command="volume-table", vd=0.0)
        with pytest.raises(ConfigError):
            RunConfig(command="volume-table", grid=(1.0, -2.0))
        with pytest.raises(ConfigError):
            RunConfig(command="nonsense")

    def test_json_only_commands_reject_csv(self, capsys):
        for command in ("structure", "center", "curvature"):
            code, out, err = run_cli(capsys, [command, "--format", "csv"])
            assert code == 2
            assert "JSON only" in err
            assert out == ""

    def test_validation_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["structure", "--n", "0"])
        assert code == 2
        assert "positive integer" in err

    @pytest.mark.parametrize(
        "args, field",
        [
            (["verify-killing", "--n", "1", "--points", "2", "--step", "nan",
              "--format", "csv"], "step"),
            (["curvature", "--n", "1", "--points", "1", "--step", "inf"], "step"),
            (["volume-table", "--grid", "nan"], "grid"),
            (["volume-table", "--grid", "1,inf"], "grid"),
            (["volume-table", "--vd", "inf"], "vd"),
            (["volume-table", "--vd", "nan"], "vd"),
        ],
    )
    def test_non_finite_values_rejected(self, capsys, args, field):
        code, out, err = run_cli(capsys, args)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {field} must be")


class TestConfigFile:
    def test_file_values_used_and_flags_override(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 1, "c": 0.0, "vd": 2.0, "grid": [9, 9]}))
        code_a, out_a, _ = run_cli(
            capsys, ["volume-table", "--config", str(path), "--grid", "1,2"]
        )
        code_b, out_b, _ = run_cli(
            capsys, ["volume-table", "--n", "1", "--c", "0", "--vd", "2", "--grid", "1,2"]
        )
        assert code_a == code_b == 0
        assert out_a == out_b
        assert "9" not in out_a.split("\n")[1]

    def test_c_exact_in_file(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"c_exact": "1:2:3", "bound": 1}))
        code, out, _ = run_cli(capsys, ["lattice", "--config", str(path)])
        assert code == 0
        assert out.startswith("q0,q1,q2,q3,norm,su11_ok,preserves_gamma2\n")
        # header + the two units + the eight (0,±1,±1,±1) elements of norm
        # 0 - a - b + ab = 1
        assert len(out.strip().split("\n")) == 11

    def test_c_exact_lam_string_parsed_as_the_flag(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"c_exact": {"lam": "0.1", "a": 2, "b": 3}}))
        from_file = run_cli(capsys, ["volume-table", "--format", "json",
                                     "--config", str(path)])
        from_flag = run_cli(capsys, ["volume-table", "--format", "json",
                                     "--c-exact", "0.1:2:3"])
        assert from_file == from_flag
        assert json.loads(from_file[1])["config"]["c_exact"]["lam"] == "1/10"

    @pytest.mark.parametrize("command", [
        ["verify-killing", "--n", "1", "--points", "2"],
        ["volume-table"],
    ])
    @pytest.mark.parametrize("payload, field", [
        ({"step": "abc"}, "step"),
        ({"grid": "1,2"}, "grid"),
        ({"grid": [1, "2"]}, "grid"),
        ({"c": [1]}, "c"),
        ({"vd": True}, "vd"),
        ({"out": 5}, "out"),
        ({"c_exact": "1:2"}, "c_exact"),
        ({"c_exact": {"lam": 1, "a": 2}}, "c_exact"),
        ({"c_exact": {"lam": 1, "a": 2.7, "b": 3}}, "c-exact algebra parameters"),
        ({"c_exact": {"lam": float("inf"), "a": 2, "b": 3}}, "c_exact"),
        ({"c_exact": {"lam": True, "a": 2, "b": 3}}, "c_exact"),
        ({"bound": True}, "bound"),
        ({"seed": True}, "seed"),
        ({"c_exact": {"lam": 0.1, "a": 2, "b": 3}}, "c_exact"),
    ])
    def test_wrong_type_is_a_config_error(self, capsys, tmp_path, command, payload, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, command + ["--config", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {field} must be")

    def test_unknown_key_is_a_config_error(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"pointz": 3, "n": 1, "sead": 1}))
        code, out, err = run_cli(
            capsys, ["verify-killing", "--points", "1", "--config", str(path)]
        )
        assert code == 2
        assert out == ""
        assert err == "error: unknown config keys: 'pointz', 'sead'\n"

    @pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"])
    def test_unreadable_file_is_a_config_error(self, capsys, tmp_path, text):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        code, out, err = run_cli(capsys, ["volume-table", "--config", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err


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
            "oneloop.geometry.einstein_diagnostic", lambda p, params, step: next(calls)
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
    """A stencil that leaves the chart or the float range exits 2 with one
    line on stderr and nothing on stdout."""

    @pytest.mark.parametrize("command", ["curvature", "verify-killing"])
    def test_overflowing_step(self, capsys, command):
        code, out, err = run_cli(
            capsys, [command, "--n", "1", "--points", "1", "--step", "1e200"])
        assert (code, out) == (2, "")
        prefix = ("error: finite-difference stencil leaves the float range: "
                  "rho**2 overflows at chart coordinate rho = ")
        assert err.startswith(prefix) and err.endswith("\n")
        assert float(err[len(prefix):]) > 1e154  # the shifted rho, squared past the range

    @pytest.mark.parametrize("command", ["curvature", "verify-killing"])
    def test_step_leaving_the_chart(self, capsys, command):
        code, out, err = run_cli(
            capsys, [command, "--n", "1", "--points", "1", "--step", "0.7"])
        assert (code, out) == (2, "")
        assert err.startswith("error: finite-difference stencil leaves the chart: "
                              "rho must be positive, got -")
        assert err.count("\n") == 1 and err.endswith("\n")


def run_python(script, blas_threads=None):
    """Exit code, stdout and stderr of a fresh interpreter running script
    with this package on its path and OPENBLAS_NUM_THREADS = blas_threads
    (unset for None)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(oneloop.__file__))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True)
    return result.returncode, result.stdout, result.stderr


class TestProcessStart:
    def test_json_and_fractions_load_only_when_used(self):
        # The CSV tables need neither json nor fractions, and lattice's
        # default algebra needs only fractions; the last lines show that
        # the check can fail.
        script = (
            "import contextlib, io, sys\n"
            "import oneloop.cli\n"
            "assert not {'json', 'fractions'} & set(sys.modules)\n"
            "for argv, absent in ((['volume-table', '--n', '3'], {'json', 'fractions'}),\n"
            "                     (['lattice', '--bound', '2'], {'json'})):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert oneloop.cli.main(argv) == 0, argv\n"
            "    assert not absent & set(sys.modules), (argv, absent & set(sys.modules))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    oneloop.cli.main(['center', '--n', '1', '--c-exact', '1:2:3'])\n"
            "assert {'json', 'fractions'} <= set(sys.modules)\n"
        )
        code, _, err = run_python(script)
        assert code == 0, err

    def test_float_commands_leave_numpy_random_unloaded(self):
        # The points come from the standard library's random; the last lines
        # show that the check can fail: any read of numpy.random loads it.
        script = (
            "import contextlib, io, sys\n"
            "import oneloop.cli\n"
            "for argv in (['verify-killing', '--n', '2', '--points', '2'],\n"
            "             ['curvature', '--n', '1', '--points', '1']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert oneloop.cli.main(argv) in (0, 1), argv\n"
            "    assert 'numpy' in sys.modules, argv\n"
            "    assert 'numpy.random' not in sys.modules, argv\n"
            "import numpy\n"
            "numpy.random\n"
            "assert 'numpy.random' in sys.modules\n"
        )
        code, _, err = run_python(script)
        assert code == 0, err

    @pytest.mark.parametrize("command, n, c", [
        ("curvature", "1", "1e308"), ("verify-killing", "1", "1e308"),
        ("verify-killing", "2", "1e160"), ("verify-killing", "3", "1e155"),
    ])
    def test_float_range_error_is_the_only_stderr_line(self, command, n, c):
        # numpy's RuntimeWarnings would go to the process's stderr, which the
        # in-process runs of GOLDEN do not see.
        script = ("import sys\n"
                  "from oneloop.cli import main\n"
                  f"sys.exit(main([{command!r}, '--n', {n!r}, '--points', '1', "
                  f"'--c', {c!r}]))\n")
        code, out, err = run_python(script)
        assert (code, out) == (2, "")
        assert err == f"error: Gram matrix leaves the float range at c = {float(c)!r}\n"

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
    def test_one_blas_thread_unless_preset(self, preset, expected):
        # Importing the package leaves the variable alone; main sets it.
        script = (
            "import contextlib, io, os\n"
            "import oneloop.cli\n"
            f"assert os.environ.get('OPENBLAS_NUM_THREADS') == {preset!r}\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    oneloop.cli.main(['curvature', '--n', '1', '--points', '1'])\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
        )
        code, out, err = run_python(script, preset)
        assert (code, out) == (0, expected + "\n"), err


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
            ["volume-table", "--n", "1", "--c", "0", "--grid", "1,2", "--vd", "2",
             "--format", "json"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["vd"] == 2.0
        assert [row["closed_tail"] for row in report["rows"]] == [1.0, 0.25]


    @pytest.mark.parametrize("grid", ["1e60", "1e-50"])
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
        columns = _COMMANDS[args[0]][2]
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
    (["lattice", "--bound", "2"], 0,
     "42f7d76e728d3be4fddf67933ee0a53ecb65d0160dd8df4626d10276feca767b", ""),
    (["lattice", "--bound", "2", "--format", "json"], 0,
     "4f93b2be53e81bdc12048c6288a251ad4115e9ad90eb4e53b6a26b7526ace2d8", ""),
    (["lattice", "--c-exact", "1:3:7", "--bound", "3", "--format", "json"], 0,
     "21ac942a7c78be62ea960102c674879be620d2abb4c12aca560feef3e96a0478", ""),
    (["lattice", "--c-exact", "1:2:1", "--bound", "2"], 0,
     "58ccf65d937a5d2a1fe703773ac1159b351b25caa4f0cff133f6eb52ceb2b1f1",
     "warning: b = 1 is not a prime (division-algebra hypothesis unmet); "
     "enumeration still runs\n"),
    (["volume-table", "--n", "3"], 0,
     "72b695e9d8ee50ddd18521fc13c327e6f098f8da3db592bf85afea777fc9919e", ""),
    (["volume-table", "--n", "3", "--format", "json"], 0,
     "a71f996065e5fe486c808a6b5a949eb20784114e82eae10bb1c9a5a9721ce2eb", ""),
    (["volume-table", "--n", "2", "--c-exact", "1:3:7", "--format", "json"], 0,
     "db58e4e5296d82f83cc06c9cd69519f3a5e28e6dea8ff0cb6829b0cffdc02f3a", ""),
    (["structure", "--format", "csv"], 2, EMPTY_SHA256,
     "error: command 'structure' reports JSON only\n"),
    (["center", "--n", "0"], 2, EMPTY_SHA256,
     "error: n must be a positive integer, got 0\n"),
    (["verify-killing", "--n", "1", "--points", "1", "--c", "1e300"], 2, EMPTY_SHA256,
     "error: Killing residual of YC leaves the float range at c = 1e+300: inf\n"),
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
]


@pytest.mark.parametrize("args, code, digest, err", GOLDEN,
                         ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_output(capsys, args, code, digest, err):
    got_code, out, got_err = run_cli(capsys, args)
    assert (got_code, hashlib.sha256(out.encode("utf-8")).hexdigest(), got_err) == (
        code, digest, err)


def run_parser(capsys, monkeypatch, args):
    """Exit code, stdout and stderr of a run that argparse itself ends."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main(args)
    captured = capsys.readouterr()
    return stop.value.code, captured.out, captured.err


# sha256 of the --help text at 80 columns, taken from the parent of the
# change that moved the flags onto one shared parent parser (Python 3.11;
# another argparse version may lay help out differently).
HELP_SHA256 = {
    (): "9913284e225edbadca4fefde66826506f9ab95355fdb11db1b52b0cf8c289f68",
    ("verify-killing",): "6f48045ef97a22dcc97ac5ddfac71d39a72f8f894d7292ef11b8a737e3908341",
    ("structure",): "cd16be82a465e27dbd994d91b544873a9ed2cedc88c5e103fb45b3c0ddeaf755",
    ("center",): "c73de415eb4f2b16e95d1ce4f9a3c253e77fe8f38a854df9dc640027db8990d1",
    ("curvature",): "ee0bb025140b12a9cf82aa6f4c9f2ec2b94bdedfbe49f8cb978f393dc8513ee5",
    ("lattice",): "0e72a275c42568d402005c9c055cd8eb46e69cea8a1e2b4b2a28e5499afd7157",
    ("volume-table",): "69b886b5d7844cf556ae8150919a990edfc9a486eb6849e7a2e5efab86ef7176",
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

    def test_invalid_choice(self, capsys, monkeypatch):
        assert run_parser(capsys, monkeypatch, ["lattice", "--format", "xml"]) == (2, "", (
            "usage: oneloop lattice [-h] [--n N] [--c C] [--c-exact LAM:A:B] [--seed SEED]\n"
            "                       [--points POINTS] [--step STEP] [--bound BOUND]\n"
            "                       [--out OUT] [--format {json,csv}] [--grid R1,R2,...]\n"
            "                       [--vd VD] [--config CONFIG]\n"
            "oneloop lattice: error: argument --format: invalid choice: 'xml' "
            "(choose from 'json', 'csv')\n"))
