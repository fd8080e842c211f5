"""Batch driver for the verification suites and table generators.

Subcommands:

* ``verify-killing``: Lie-derivative residuals of every catalogued symmetry
  generator at seeded points, with the radial derivative as a negative
  control.
* ``structure``: exact structure-constant comparison between the matrix
  model of the symmetry algebra and the vector-field realization.
* ``center``: the center lattices (kernel generators, special-unitary
  intersection, and the two fiber-lattice generators) by exact solves.
* ``curvature``: Einstein-condition diagnostics from finite-difference
  Ricci tensors at seeded points.
* ``lattice``: norm-one quaternion enumeration with unitary and
  lattice-stabilization flags, as CSV.
* ``volume-table``: fiber-volume density and tail-volume table over a rho
  grid, as CSV.

Each command returns one record (JSON report, CSV rows, exit code), and
``main`` renders it once, as JSON or through the command's CSV columns.
Every report embeds the tolerances it used and the full numeric
configuration, so identical configurations (including the seed) produce
byte-identical output.  The seeded points come from Python's ``random``,
whose sequence Python keeps across versions, so that holds across numpy
versions too.  The process exit status is 0 exactly when every
check in the invoked suite passes; table generators exit 0 when all row
flags verify (lattice) or unconditionally on success (volume-table).
Invalid input and an ``--out`` path that cannot be written exit 2, with
nothing on stdout.

Configuration may come from flags or from a JSON file (``--config``) whose
keys match the flag names with underscores (any other key is an error);
explicit flags win.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from .params import ModelParams
from .record import fields, record

if TYPE_CHECKING:  # json and fractions load only where they are used
    from fractions import Fraction

__all__ = ["RunConfig", "ConfigError", "main"]

KILLING_TOLERANCE = 1e-6
CONTROL_THRESHOLD = 1e-2
EINSTEIN_TOLERANCE = 1e-4

# A CSV column: its header name and the formatter of its cells.
Column = Tuple[str, Callable[[object], str]]
# What every command returns: the JSON report, its CSV rows (None for a
# JSON-only command) and the exit code.
Record = Tuple[Dict, Optional[List[Dict]], int]


class ConfigError(ValueError):
    """A configuration value failed validation before dispatch."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@record(frozen=True)
class RunConfig:
    """Validated inputs of one driver invocation."""

    command: str
    n: int = 2
    c: float = 1.0
    c_exact: Optional[Tuple[Fraction, int, int]] = None
    seed: int = 42
    points: int = 20
    step: float = 1e-3
    bound: int = 3
    out: Optional[str] = None
    format: Optional[str] = None
    grid: Tuple[float, ...] = (1.0, 2.0, 4.0)
    vd: float = 1.0

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        for name in ("c", "step", "vd"):
            value = getattr(self, name)
            if not _is_number(value):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be a path, got {self.out!r}")
        if not _is_int(self.n) or self.n < 1:
            raise ConfigError(f"n must be a positive integer, got {self.n!r}")
        if self.c < 0:
            raise ConfigError(f"c must be nonnegative, got {self.c!r}")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit integer, got {self.seed!r}")
        if not _is_int(self.points) or self.points < 1:
            raise ConfigError(f"points must be a positive integer, got {self.points!r}")
        if not (math.isfinite(self.step) and self.step > 0):
            raise ConfigError(f"step must be positive and finite, got {self.step!r}")
        if not _is_int(self.bound) or self.bound < 1:
            raise ConfigError(f"bound must be a positive integer, got {self.bound!r}")
        if self.format is not None and self.format not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {self.format!r}")
        if not self.grid or not all(
            _is_number(r) and math.isfinite(r) and r > 0 for r in self.grid
        ):
            raise ConfigError(
                "grid must be a nonempty list of positive finite rho values"
            )
        if not (math.isfinite(self.vd) and self.vd > 0):
            raise ConfigError(f"vd must be positive and finite, got {self.vd!r}")
        if self.c_exact is not None:
            lam, a, b = self.c_exact
            if lam < 0:
                raise ConfigError("c-exact scaling factor must be nonnegative")
            if not (_is_int(a) and a > 0 and _is_int(b) and b > 0):
                raise ConfigError("c-exact algebra parameters must be positive integers")

    @property
    def effective_c(self) -> float:
        if self.c_exact is not None:
            from .quatarith import QuatParams, c_compatible

            lam, a, b = self.c_exact
            return c_compatible(QuatParams(a, b), lam)
        return self.c

    @property
    def effective_format(self) -> str:
        return self.format or _COMMANDS[self.command][1]

    def echo(self) -> Dict:
        """The numeric configuration, embedded in every report."""
        payload = {
            "n": self.n,
            "c": self.effective_c,
            "seed": self.seed,
            "points": self.points,
            "step": self.step,
        }
        if self.c_exact is not None:
            lam, a, b = self.c_exact
            payload["c_exact"] = {"lam": str(lam), "a": a, "b": b}
        return payload


# Each default is written once, on the RunConfig field.
_DEFAULTS = {name: getattr(RunConfig, name) for name in fields(RunConfig) if name != "command"}


def _json_text(report: Dict) -> str:
    import json

    return json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _csv_field(text: str) -> str:
    """A CSV field, quoted when it holds a comma, quote or line break."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_text(columns: Sequence[Column], rows: Sequence[Dict]) -> str:
    lines = [",".join(_csv_field(name) for name, _ in columns)]
    lines += [",".join(_csv_field(fmt(row[name])) for name, fmt in columns)
              for row in rows]
    return "\n".join(lines) + "\n"


def _flag(value: bool) -> str:
    return "true" if value else "false"


# ---------------------------------------------------------------------------
# commands: each returns a Record (JSON report, CSV rows or None, exit code)
#
# Each command imports the modules it needs inside its body, so a process
# compiles and loads only its own suite; above all, numpy (through fields and
# geometry) loads only for the float commands.
# ---------------------------------------------------------------------------


def cmd_verify_killing(config: RunConfig) -> Record:
    import numpy as np

    from .fields import killing_residuals
    from .geometry import seeded_points

    params = ModelParams(n=config.n, c=config.effective_c)
    points = seeded_points(params, config.points, seed=config.seed)
    # A value that leaves the float range is an error below, not a warning.
    with np.errstate(all="ignore"):
        residuals, control = killing_residuals(params, points, step=config.step)
    rows = [
        {
            "generator": label,
            "max_residual": value,
            "tolerance": KILLING_TOLERANCE,
            "pass": value <= KILLING_TOLERANCE,
        }
        for label, value in residuals.items()
    ]
    control_row = {
        "generator": "radial control (d/d rho)",
        "max_residual": control,
        "threshold": CONTROL_THRESHOLD,
        "exceeds_threshold": control > CONTROL_THRESHOLD,
        "pass": False,
    }
    for row in rows + [control_row]:
        if not math.isfinite(row["max_residual"]):
            raise OverflowError(
                f"Killing residual of {row['generator']} leaves the float range "
                f"at c = {params.c!r}: {row['max_residual']!r}")
    all_pass = all(row["pass"] for row in rows) and control_row["exceeds_threshold"]
    report = {
        "command": "verify-killing",
        "config": config.echo(),
        "rows": rows,
        "control": control_row,
        "all_pass": all_pass,
    }
    csv_rows = rows + [dict(control_row, tolerance=CONTROL_THRESHOLD)]
    return report, csv_rows, 0 if all_pass else 1


def cmd_structure(config: RunConfig) -> Record:
    from .liealg import structure_check

    params = ModelParams(n=config.n, c=config.effective_c)
    report = structure_check(params)
    payload = {
        "command": "structure",
        "n": config.n,
        "pairs_checked": report.pairs_checked,
        "mismatch_count": len(report.mismatches),
        "mismatches": [list(pair) for pair in report.mismatches],
        "all_pass": report.ok,
    }
    return payload, None, 0 if report.ok else 1


def _center_entry(vector, n1: bool) -> Dict:
    return {"human": vector.human(n1=n1), "coordinates": vector.serialize()}


def cmd_center(config: RunConfig) -> Record:
    from .liealg import (
        f_generator,
        fprime_generator,
        ker_cap_su,
        kernel_generators,
        kernel_generators_n1,
    )

    n = config.n
    positive_c = config.effective_c > 0
    n1 = n == 1
    if n1:
        kernel = [kernel_generators_n1()]
        ker_cap = None
        fprime = None
    else:
        kernel = list(kernel_generators(n))
        ker_cap = ker_cap_su(n)
        fprime = fprime_generator(n, positive_c=positive_c)
    f_vec = f_generator(n, positive_c=positive_c)
    payload = {
        "command": "center",
        "n": n,
        "c_positive": positive_c,
        "kernel": [_center_entry(v, n1) for v in kernel],
        "ker_cap_su": None if ker_cap is None else _center_entry(ker_cap, n1),
        "F": f_vec.human(n1=n1),
        "F_coordinates": f_vec.serialize(),
        "Fprime": None if fprime is None else fprime.human(n1=n1),
        "Fprime_coordinates": None if fprime is None else fprime.serialize(),
    }
    return payload, None, 0


def cmd_curvature(config: RunConfig) -> Record:
    import numpy as np

    from .geometry import einstein_diagnostic, seeded_points

    params = ModelParams(n=config.n, c=config.effective_c)
    points = seeded_points(params, config.points, seed=config.seed)
    rows = []
    lambdas = []
    max_residual = 0.0
    for index, p in enumerate(points):
        # A value that leaves the float range is an error, not a warning.
        with np.errstate(all="ignore"):
            lam, residual = einstein_diagnostic(p, params, step=config.step)
        if not (math.isfinite(lam) and math.isfinite(residual)):
            raise OverflowError(
                f"curvature at point {index} leaves the float range at "
                f"c = {params.c!r}: lambda = {lam!r}, residual = {residual!r}")
        rows.append({"lambda": lam, "residual": residual})
        lambdas.append(lam)
        max_residual = max(max_residual, residual)
    mean_lambda = sum(lambdas) / len(lambdas)
    spread = (max(lambdas) - min(lambdas)) / abs(mean_lambda) if mean_lambda else float("inf")
    all_pass = (
        max_residual <= EINSTEIN_TOLERANCE
        and mean_lambda < 0
        and spread <= EINSTEIN_TOLERANCE
    )
    payload = {
        "command": "curvature",
        "config": config.echo(),
        "tolerance": EINSTEIN_TOLERANCE,
        "rows": rows,
        "lambda_mean": mean_lambda,
        "lambda_spread_relative": spread,
        "max_residual": max_residual,
        "all_pass": all_pass,
    }
    return payload, None, 0 if all_pass else 1


def cmd_lattice(config: RunConfig) -> Record:
    from .quatarith import QuatParams, is_nonresidue, norm_one_rows

    if config.c_exact is not None:
        lam, a, b = config.c_exact
    else:
        from fractions import Fraction

        lam, a, b = Fraction(1), 2, 3
    warning = None
    try:
        if not is_nonresidue(a, b):
            warning = (
                f"warning: is_nonresidue({a}, {b}) = false "
                "(division-algebra hypothesis unmet); enumeration still runs"
            )
    except ValueError as exc:
        warning = f"warning: {exc} (division-algebra hypothesis unmet); enumeration still runs"
    if warning is not None:
        print(warning, file=sys.stderr)
    rows = norm_one_rows(QuatParams(a, b), config.bound)
    all_pass = all(row["su11_ok"] and row["preserves_gamma2"] for row in rows)
    report = {
        "command": "lattice",
        "a": a,
        "b": b,
        "bound": config.bound,
        "nonresidue_warning": warning,
        "rows": rows,
        "all_pass": all_pass,
    }
    return report, rows, 0 if all_pass else 1


def cmd_volume_table(config: RunConfig) -> Record:
    from .volume import volume_rows

    params = ModelParams(n=config.n, c=config.effective_c)
    # JSON carries the same 12 significant digits as the CSV columns.
    rows = [
        {name: float(fmt(row[name])) for name, fmt in _VOLUME_COLUMNS}
        for row in volume_rows(config.grid, params, config.vd)
    ]
    report = {
        "command": "volume-table",
        "config": config.echo(),
        "vd": config.vd,
        "rows": rows,
    }
    return report, rows, 0


_VOLUME_COLUMNS = tuple(
    (name, "{:.12g}".format)
    for name in ("rho", "density", "closed_tail", "quadrature_tail", "ratio_to_asymptote")
)

# name: (handler, default format, CSV columns or None for JSON only)
_COMMANDS = {
    "verify-killing": (cmd_verify_killing, "json", (
        ("generator", str),
        ("max_residual", "{:.6e}".format),
        ("tolerance", "{:.1e}".format),
        ("pass", _flag),
    )),
    "structure": (cmd_structure, "json", None),
    "center": (cmd_center, "json", None),
    "curvature": (cmd_curvature, "json", None),
    "lattice": (cmd_lattice, "csv", (
        ("q0", str), ("q1", str), ("q2", str), ("q3", str), ("norm", str),
        ("su11_ok", _flag), ("preserves_gamma2", _flag),
    )),
    "volume-table": (cmd_volume_table, "csv", _VOLUME_COLUMNS),
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parse_c_exact(text: str) -> Tuple[Fraction, int, int]:
    from fractions import Fraction

    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "expected lam:a:b, e.g. 1:2:3 or 1/2:3:7"
        )
    try:
        lam = Fraction(parts[0])
        a = int(parts[1])
        b = int(parts[2])
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad lam:a:b value: {exc}") from exc
    return lam, a, b


def _parse_grid(text: str) -> Tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad rho grid: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    # The flags are declared once, on a parent that every subcommand copies;
    # an absent flag reads None, so that build_config can tell it was not given.
    common = argparse.ArgumentParser(add_help=False)
    add = common.add_argument
    add("--n", type=int, help="complex dimension parameter")
    add("--c", type=float, help="deformation parameter")
    add("--c-exact", type=_parse_c_exact, metavar="LAM:A:B",
        help="exact deformation: c solves 4*pi*c = LAM*sqrt(A*B)/2; "
        "also selects the quaternion algebra for 'lattice'")
    add("--seed", type=int, help="PRNG seed")
    add("--points", type=int, help="seeded point count")
    add("--step", type=float, help="finite-difference step")
    add("--bound", type=int, help="enumeration bound")
    add("--out", help="also write output to this path")
    add("--format", choices=("json", "csv"))
    add("--grid", type=_parse_grid, metavar="R1,R2,...", help="rho grid for volume-table")
    add("--vd", type=float, help="fundamental-domain volume")
    add("--config", help="JSON file with the same keys as the flags (flags win)")
    parser = argparse.ArgumentParser(
        prog="oneloop",
        description="Verification suites and tables for the one-loop "
        "deformed metric family and its arithmetic lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def _load_config_file(path: str) -> Dict:
    """The JSON object of a config file, with c_exact and grid parsed.

    Unreadable files, unknown keys and values that cannot be parsed raise
    ConfigError naming the field; the other fields are checked by RunConfig.
    """
    import json
    from fractions import Fraction

    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    unknown = sorted(set(data) - set(_DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(map(repr, unknown))}")
    raw = data.get("c_exact")
    if raw is not None:
        try:
            if isinstance(raw, str):
                data["c_exact"] = _parse_c_exact(raw)
            elif _is_int(raw["lam"]) or isinstance(raw["lam"], str):
                # A JSON float is rejected: Fraction would take its binary value.
                data["c_exact"] = (Fraction(raw["lam"]), raw["a"], raw["b"])
            else:
                raise TypeError("lam must be an integer or a string")
        except (argparse.ArgumentTypeError, KeyError, TypeError, ValueError,
                ArithmeticError) as exc:
            raise ConfigError(f"c_exact must be 'lam:a:b' or an object with lam "
                              f"(an integer or a string such as '1/10'), a and b, "
                              f"got {raw!r}") from exc
    grid = data.get("grid")
    if grid is not None:
        if not (isinstance(grid, list) and all(_is_number(r) for r in grid)):
            raise ConfigError(f"grid must be a list of numbers, got {grid!r}")
        data["grid"] = tuple(float(r) for r in grid)
    return data


def build_config(argv: Sequence[str]) -> RunConfig:
    args = _build_parser().parse_args(argv)
    file_values: Dict = {}
    if args.config is not None:
        file_values = _load_config_file(args.config)
    merged = {}
    for key, default in _DEFAULTS.items():
        explicit = getattr(args, key)
        if explicit is not None:
            merged[key] = explicit
        elif key in file_values and file_values[key] is not None:
            merged[key] = file_values[key]
        else:
            merged[key] = default
    config = RunConfig(command=args.command, **merged)
    if config.format == "csv" and _COMMANDS[config.command][2] is None:
        raise ConfigError(f"command {config.command!r} reports JSON only")
    return config


def main(argv: Optional[Sequence[str]] = None) -> int:
    # No matrix here is larger than 16x16, so an OpenBLAS worker thread only
    # spins; set before any command imports numpy, and a preset value wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        config = build_config(list(sys.argv[1:] if argv is None else argv))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    handler, _, columns = _COMMANDS[config.command]
    try:
        report, rows, code = handler(config)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.effective_format == "csv":
        text = _csv_text(columns, rows)
    else:
        text = _json_text(report)
    if config.out is not None:
        try:
            with open(config.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {config.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
