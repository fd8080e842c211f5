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

Each command's handler, ``cmd_<command>`` in the module of the suite it
runs, takes the ``RunConfig`` and returns the JSON report and its CSV rows
(None for a JSON-only command).  ``main`` imports that one module at
dispatch, sets the report's ``command`` field and renders the report once,
as JSON or through the command's CSV columns.  ``main`` alone derives the
exit status: 1 exactly when the report's ``all_pass`` is False, else 0.  No
suite imports this module: under ``python -m oneloop.cli`` this file runs as
``__main__``, and such an import would compile it a second time.

Every report embeds the tolerances it used and the numeric configuration
that its command read, so identical configurations (including the seed) produce
byte-identical output.  The seeded points come from Python's ``random``,
whose sequence Python keeps across versions, and the float commands run in
plain Python floats, with no numpy.  Every report but ``center``'s carries
``all_pass``, True exactly when every check in the invoked suite passes: for
the table generators, when all row flags verify (lattice) or each row's
closed tail agrees with its quadrature (volume-table).  Invalid input and an
``--out`` path that cannot be written exit 2, with nothing on stdout.

Every value comes from argv.  Each subcommand takes only the flags it reads,
listed in its ``_COMMANDS`` entry, plus ``--out``.  An argv of the form
``COMMAND (--flag VALUE)*`` is read straight from ``_COMMANDS`` and
``_FLAGS``, so such a process never loads argparse.  Anything else (help,
``--flag=value``, a value that starts with ``-``, a flag given twice, a flag
the command does not take or a prefix of one, a value that does not convert)
goes to the argparse parser built from the same tables, which gives the same
values or exits 2 with its usage message.  A flag that is not given keeps its
``RunConfig`` default, and ``RunConfig`` decides what the run reads once: c is
the c of ``--c-exact`` on a command that takes ``--c``, and the format the
command's default unless ``--format`` names one.
"""

from __future__ import annotations

import math
import os
import sys
from typing import TYPE_CHECKING, Callable, Dict, NoReturn, Optional, Sequence, Tuple

from .record import record

if TYPE_CHECKING:  # argparse and fractions load only where they are used
    import argparse
    from fractions import Fraction

__all__ = ["RunConfig", "main", "run"]

# A CSV column: its header name and the formatter of its cells.
Column = Tuple[str, Callable[[object], str]]


@record(frozen=True)
class RunConfig:
    """Validated inputs of one driver invocation, as its command runs them."""

    command: str
    n: int = 2
    c: float = 1.0
    c_exact: Optional[Tuple[Fraction, int, int]] = None
    seed: int = 42
    points: int = 20
    bound: int = 3
    out: Optional[str] = None
    format: Optional[str] = None
    grid: Tuple[float, ...] = (1.0, 2.0, 4.0)

    def __post_init__(self):
        # No negative zero: the echo of --c -0.0 must read 0.0, as --c 0 does.
        object.__setattr__(self, "c", self.c + 0.0)
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not (math.isfinite(self.c) and self.c >= 0):
            raise ValueError(f"c must be a finite non-negative real, got {self.c!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit integer, got {self.seed!r}")
        if self.points < 1:
            raise ValueError(f"points must be a positive integer, got {self.points!r}")
        if self.bound < 1:
            raise ValueError(f"bound must be a positive integer, got {self.bound!r}")
        if not self.grid or not all(math.isfinite(r) and r > 0 for r in self.grid):
            raise ValueError("grid must be a nonempty list of positive finite rho values")
        # Every command that takes --c-exact reads A:B; only those that take
        # --c read LAM, checked below, so lattice accepts any LAM.
        if self.c_exact is not None and not (self.c_exact[1] > 0 and self.c_exact[2] > 0):
            raise ValueError("c-exact algebra parameters must be positive integers")
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        _, flags, default_format, _ = _COMMANDS[self.command]
        object.__setattr__(self, "format", self.format or default_format)
        if self.c_exact is not None and "c" in flags:
            from .params import c_compatible

            lam, a, b = self.c_exact
            if lam < 0:
                raise ValueError("c-exact scaling factor must be nonnegative")
            try:
                c = c_compatible(lam, a, b)
            except OverflowError:  # LAM, A or B leaves the float range
                c = math.inf
            # A positive LAM whose c underflows to 0.0 would run the
            # undeformed metric.
            if not math.isfinite(c) or (c == 0 and lam > 0):
                from decimal import Decimal

                shown = (Decimal(lam.numerator) / lam.denominator).normalize()
                raise ValueError(f"c-exact {shown:.6g}:{a}:{b} gives a c that leaves the "
                                 "float range")
            object.__setattr__(self, "c", c)

    def echo(self) -> Dict:
        """The numeric configuration that decided the report: the command's
        own flags among n, seed and points, then c and any c_exact."""
        flags = _COMMANDS[self.command][1]
        payload = {name: getattr(self, name)
                   for name in ("n", "seed", "points") if name in flags}
        payload["c"] = self.c
        if self.c_exact is not None:
            lam, a, b = self.c_exact
            payload["c_exact"] = {"lam": str(lam), "a": a, "b": b}
        return payload


# The escapes of json.dumps(..., ensure_ascii=False): quote, backslash and
# the C0 controls; every other character, DEL and U+2028 included, is kept.
_JSON_ESCAPES = {i: f"\\u{i:04x}" for i in range(0x20)}
_JSON_ESCAPES.update({ord(char): "\\" + code for char, code in zip('"\\\b\f\n\r\t', '"\\bfnrt')})


def _json_value(value, indent: str) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2,
    ensure_ascii=False)`` renders it, nested at ``indent``: the same
    escapes, float reprs (NaN and Infinity for the non-finite), key order
    and layout.  A dict key must be a str."""
    if isinstance(value, str):
        return '"' + value.translate(_JSON_ESCAPES) + '"'
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items = [_json_value(item, inner) for item in value]
        ends = "[]"
    elif isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("report keys must be str")
        items = [_json_value(key, inner) + ": " + _json_value(value[key], inner)
                 for key in sorted(value)]
        ends = "{}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return ends
    return ends[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + ends[1]


def _json_text(report: Dict) -> str:
    return _json_value(report, "") + "\n"


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


# name: ((module, handler), the flags it reads besides --out, default
# format, CSV columns or None for JSON only).  The handler returns the report
# and CSV rows; main adds the command field and exits 1 exactly when
# all_pass is False.  The handler lives next to the suite it runs; main
# imports its module at dispatch, so a process compiles and loads only its
# own command: the float commands geometry (and fields), the exact ones
# liealg, quatarith or volume.  No command loads numpy; the float commands'
# matrices are at most 12x12 at the n they run.
_COMMANDS = {
    "verify-killing": (("fields", "cmd_verify_killing"),
                       ("n", "c", "c_exact", "seed", "points", "format"), "json", (
        ("generator", str),
        ("max_residual", "{:.6e}".format),
        ("tolerance", "{:.1e}".format),
        ("pass", _flag),
    )),
    "structure": (("liealg", "cmd_structure"), ("n",), "json", None),
    "center": (("liealg", "cmd_center"), ("n", "c"), "json", None),
    "curvature": (("geometry", "cmd_curvature"),
                  ("n", "c", "c_exact", "seed", "points"), "json", None),
    "lattice": (("quatarith", "cmd_lattice"), ("c_exact", "bound", "format"), "csv", (
        ("q0", str), ("q1", str), ("q2", str), ("q3", str), ("norm", str),
        ("su11_ok", _flag), ("preserves_gamma2", _flag),
    )),
    "volume-table": (("volume", "cmd_volume_table"),
                     ("n", "c", "c_exact", "grid", "format"), "csv", tuple(
        (name, "{:.12g}".format)
        for name in ("rho", "density", "closed_tail", "quadrature_tail", "ratio_to_asymptote")
    )),
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parse_c_exact(text: str) -> Tuple[Fraction, int, int]:
    from fractions import Fraction

    parts = text.split(":")
    if len(parts) != 3:
        import argparse

        raise argparse.ArgumentTypeError(
            "expected lam:a:b, e.g. 1:2:3 or 1/2:3:7"
        )
    try:
        lam = Fraction(parts[0])
        a = int(parts[1])
        b = int(parts[2])
    except (ValueError, ZeroDivisionError) as exc:
        import argparse

        raise argparse.ArgumentTypeError(f"bad lam:a:b value: {exc}") from exc
    return lam, a, b


def _parse_grid(text: str) -> Tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        import argparse

        raise argparse.ArgumentTypeError(f"bad rho grid: {exc}") from exc


# The argparse arguments of each flag, declared once.  A subcommand gets the
# flags of its _COMMANDS entry, plus --out; an absent flag reads None, so
# that build_config can tell it was not given.
_FLAGS = {
    "n": dict(type=int, help="complex dimension parameter"),
    "c": dict(type=float, help="deformation parameter"),
    "c_exact": dict(type=_parse_c_exact, metavar="LAM:A:B",
                    help="exact deformation: c solves 4*pi*c = LAM*sqrt(A*B)/2; "
                    "also selects the quaternion algebra for 'lattice'"),
    "seed": dict(type=int, help="PRNG seed"),
    "points": dict(type=int, help="seeded point count"),
    "bound": dict(type=int, help="enumeration bound"),
    "out": dict(help="also write output to this path"),
    "format": dict(choices=("json", "csv")),
    "grid": dict(type=_parse_grid, metavar="R1,R2,...", help="rho grid for volume-table"),
}

# Help text of a flag that one command reads differently from the others.
_COMMAND_HELP = {
    ("lattice", "c_exact"): "'lattice' reads only A:B, the quaternion algebra; LAM is unused",
}


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    # No prefix abbreviations: --c would otherwise read as --c-exact on
    # lattice, which does not take --c.
    parser = argparse.ArgumentParser(
        prog="oneloop",
        description="Verification suites and tables for the one-loop "
        "deformed metric family and its arithmetic lattices.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags, _, _) in _COMMANDS.items():
        command = sub.add_parser(name, allow_abbrev=False)
        for flag in flags + ("out",):
            options = dict(_FLAGS[flag])
            if (name, flag) in _COMMAND_HELP:
                options["help"] = _COMMAND_HELP[name, flag]
            command.add_argument("--" + flag.replace("_", "-"), **options)
    return parser


def _read_argv(argv: Sequence[str]) -> Optional[Dict[str, object]]:
    """``vars(_build_parser().parse_args(argv))`` read from the tables, for
    argv of the form COMMAND (--flag VALUE)*: each flag spelled in full, one
    that the command takes, given once, and each value not starting with "-"
    and converted by its flag's type or among its choices.  None for any
    other argv, which argparse then parses."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    flags = _COMMANDS[argv[0]][1] + ("out",)
    args = {"command": argv[0], **dict.fromkeys(flags)}
    unread = {"--" + flag.replace("_", "-"): flag for flag in flags}
    for option, text in zip(argv[1::2], argv[2::2]):
        flag = unread.pop(option, None)
        if flag is None or text.startswith("-"):
            return None
        spec = _FLAGS[flag]
        try:
            value = spec.get("type", str)(text)
        except Exception:  # argparse calls the same type on the same text
            return None  # and reports the failure, or raises it, as before
        if "choices" in spec and value not in spec["choices"]:
            return None
        args[flag] = value
    return args


def build_config(argv: Sequence[str]) -> RunConfig:
    args = _read_argv(argv)
    if args is None:
        args = vars(_build_parser().parse_args(argv))
    if args.get("c") is not None and args.get("c_exact") is not None:
        raise ValueError("--c and --c-exact both set c; give one of them")
    # A flag that is not given keeps its RunConfig default.
    return RunConfig(**{key: value for key, value in args.items() if value is not None})


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = build_config(list(sys.argv[1:] if argv is None else argv))
        (module, name), _, _, columns = _COMMANDS[config.command]
        # The relative __import__ of the handler's module, not
        # importlib.import_module, which python -X importtime does not time.
        handler = getattr(__import__(module, globals(), None, (name,), 1), name)
        report, rows = handler(config)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report["command"] = config.command
    text = _csv_text(columns, rows) if config.format == "csv" else _json_text(report)
    if config.out is not None:
        try:
            with open(config.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {config.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    sys.stdout.write(text)
    return 1 if report.get("all_pass") is False else 0


def run() -> NoReturn:
    """Run ``main`` and end the process with its exit code.

    The entry point of ``python -m oneloop.cli`` and of the ``oneloop``
    script.  Once the report and any ``error:`` line are flushed, the process
    ends with ``os._exit``: interpreter teardown would only free modules and
    objects that the OS reclaims anyway.  So no atexit hook runs.  A
    ``main`` that raises, or a flush that fails (a closed pipe), takes the
    ordinary ``sys.exit`` path, whose teardown reports the error as any
    Python program does.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
