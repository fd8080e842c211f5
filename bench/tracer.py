"""Outside-in tracing of the ``oneloop`` modules, from the benchmark's files.

The tracer rebinds public functions and scalar-operator methods of the
already imported package to timing wrappers, in every namespace that bound
them (``metric_first_derivatives`` lives in both ``geometry`` and
``fields``, ``lattice_coordinates`` in both ``heis`` and ``quatarith``), and
restores the originals afterwards. Nothing under ``src/`` changes.

* A function span records name, start, end, self time, parent span and job
  id. Spans stay in memory until the run writes them out.
* A scalar-operator wrapper only adds to a call count and a self time, so
  that hundreds of thousands of ``QI`` products stay cheap to trace.

Self time is a call's duration minus the durations of the traced calls made
inside it, so the self times of one job sum to its ``cli.main`` span.
"""

from __future__ import annotations

import functools
import importlib
import re
import statistics
import subprocess
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

MODULES = ("exact", "geometry", "fields", "liealg", "heis", "quatarith", "volume", "cli")

# (span name, module, function name) of every traced function.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("cli.main", "cli", "main"),
    ("cli.build_config", "cli", "build_config"),
    ("geometry.ricci_fd", "geometry", "ricci_fd"),
    ("geometry.einstein_diagnostic", "geometry", "einstein_diagnostic"),
    ("geometry.metric_first_derivatives", "geometry", "metric_first_derivatives"),
    ("geometry.metric_gram", "geometry", "metric_gram"),
    ("geometry.seeded_points", "geometry", "seeded_points"),
    ("fields.killing_residuals", "fields", "killing_residuals"),
    ("fields.real_killing_catalogue", "fields", "real_killing_catalogue"),
    ("liealg.structure_check", "liealg", "structure_check"),
    ("liealg.kernel_generators", "liealg", "kernel_generators"),
    ("liealg.kernel_generators_n1", "liealg", "kernel_generators_n1"),
    ("liealg.ker_cap_su", "liealg", "ker_cap_su"),
    ("liealg.f_generator", "liealg", "f_generator"),
    ("liealg.fprime_generator", "liealg", "fprime_generator"),
    ("exact.solve_rational", "exact", "solve_rational"),
    ("exact.integer_solution", "exact", "integer_solution"),
    ("heis.lattice_coordinates", "heis", "lattice_coordinates"),
    ("quatarith.enumerate_norm_one", "quatarith", "enumerate_norm_one"),
    ("quatarith.su11_check", "quatarith", "su11_check"),
    ("quatarith.preserves_gamma2", "quatarith", "preserves_gamma2"),
    ("quatarith.norm_one_csv", "quatarith", "norm_one_csv"),
    ("volume.tail_quadrature", "volume", "tail_quadrature"),
    ("volume.volume_table_csv", "volume", "volume_table_csv"),
)

# (aggregate name, class in oneloop.exact, method) of every traced operator.
# Reflected aliases bound to the same function (QI.__rmul__ is QI.__mul__)
# are found by identity and share the aggregate.
SCALAR_OPS: Tuple[Tuple[str, str, str], ...] = (
    ("exact.QI.mul", "QI", "__mul__"),
    ("exact.QI.add", "QI", "__add__"),
    ("exact.Poly.mul", "Poly", "__mul__"),
    ("exact.Poly.add", "Poly", "__add__"),
    ("exact.Rad.mul", "Rad", "__mul__"),
    ("exact.RadC.mul", "RadC", "__mul__"),
)

CENTER_SPANS = (
    "liealg.kernel_generators",
    "liealg.kernel_generators_n1",
    "liealg.ker_cap_su",
    "liealg.f_generator",
    "liealg.fprime_generator",
)
GRAM_SPANS = ("geometry.ricci_fd", "geometry.metric_first_derivatives", "geometry.metric_gram")

# (name, unit, better) of every per-layer metric the traced run reports.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("import.oneloop_s", "s", "lower"),
    ("import.scipy_s", "s", "lower"),
    ("import.numpy_s", "s", "lower"),
    ("cli.main.calls", "count", "higher"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.build_config.self_s", "s", "lower"),
    ("geometry.ricci_fd.calls", "count", "lower"),
    ("geometry.ricci_fd.self_s", "s", "lower"),
    ("geometry.einstein_diagnostic.self_s", "s", "lower"),
    ("geometry.gram_evals", "count", "lower"),
    ("geometry.gram_evals_per_s", "1/s", "higher"),
    ("geometry.metric_first_derivatives.calls", "count", "lower"),
    ("geometry.metric_first_derivatives.self_s", "s", "lower"),
    ("geometry.metric_gram.calls", "count", "lower"),
    ("geometry.metric_gram.self_s", "s", "lower"),
    ("geometry.seeded_points.self_s", "s", "lower"),
    ("fields.killing_residuals.calls", "count", "lower"),
    ("fields.killing_residuals.self_s", "s", "lower"),
    ("fields.real_killing_catalogue.self_s", "s", "lower"),
    ("fields.killing_pairs", "count", "higher"),
    ("exact.QI.mul.calls", "count", "lower"),
    ("exact.QI.mul.self_s", "s", "lower"),
    ("exact.QI.mul.us_per_call", "us", "lower"),
    ("exact.QI.add.calls", "count", "lower"),
    ("exact.QI.add.self_s", "s", "lower"),
    ("exact.Poly.mul.calls", "count", "lower"),
    ("exact.Poly.mul.self_s", "s", "lower"),
    ("exact.Poly.add.calls", "count", "lower"),
    ("exact.Poly.add.self_s", "s", "lower"),
    ("liealg.structure_check.calls", "count", "lower"),
    ("liealg.structure_check.self_s", "s", "lower"),
    ("liealg.pairs_checked", "count", "higher"),
    ("exact.Rad.mul.calls", "count", "lower"),
    ("exact.Rad.mul.self_s", "s", "lower"),
    ("exact.Rad.mul.us_per_call", "us", "lower"),
    ("exact.RadC.mul.calls", "count", "lower"),
    ("exact.RadC.mul.self_s", "s", "lower"),
    ("exact.solve_rational.calls", "count", "lower"),
    ("exact.solve_rational.self_s", "s", "lower"),
    ("exact.integer_solution.calls", "count", "lower"),
    ("exact.integer_solution.self_s", "s", "lower"),
    ("heis.lattice_coordinates.calls", "count", "lower"),
    ("heis.lattice_coordinates.self_s", "s", "lower"),
    ("quatarith.enumerate_norm_one.self_s", "s", "lower"),
    ("quatarith.candidates", "count", "lower"),
    ("quatarith.found", "count", "higher"),
    ("quatarith.yield", "ratio", "higher"),
    ("quatarith.su11_check.calls", "count", "lower"),
    ("quatarith.su11_check.self_s", "s", "lower"),
    ("quatarith.preserves_gamma2.calls", "count", "lower"),
    ("quatarith.preserves_gamma2.self_s", "s", "lower"),
    ("quatarith.norm_one_csv.self_s", "s", "lower"),
    ("liealg.center.self_s", "s", "lower"),
    ("volume.tail_quadrature.calls", "count", "lower"),
    ("volume.tail_quadrature.self_s", "s", "lower"),
    ("volume.volume_table_csv.self_s", "s", "lower"),
    ("inproc.pass_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("oracle.marginal_flips", "count", "lower"),
)


# --- computed work counts ----------------------------------------------------
# These are derived from call arguments and results, not counted inside the
# program; reports label them "computed".

def ricci_gram_evals(n: int) -> int:
    """Gram evaluations of one ``ricci_fd`` call, d = 4n chart coordinates.

    One at the point, 4d for the first-derivative stencils, 5d for the
    diagonal second derivatives and 16 for each of the d(d-1)/2 mixed pairs.
    """
    d = 4 * n
    return 1 + 9 * d + 8 * d * (d - 1)


def first_derivative_gram_evals(dim: int) -> int:
    """Gram evaluations of one ``metric_first_derivatives`` call (dim = 4n)."""
    return 4 * dim


def norm_one_candidates(bound: int) -> int:
    """Quaternions ``enumerate_norm_one`` scans at a bound: (2B+1)^4."""
    return (2 * bound + 1) ** 4


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Per traced function: what to record from its arguments and result.
_INFO: Dict[str, Callable] = {
    "geometry.ricci_fd": lambda a, k, r: {"n": _arg(a, k, 1, "params").n},
    "geometry.metric_first_derivatives": lambda a, k, r: {"dim": len(_arg(a, k, 0, "q"))},
    "fields.killing_residuals": lambda a, k, r: {
        "points": len(_arg(a, k, 1, "points")), "catalogue": len(r[0])},
    "liealg.structure_check": lambda a, k, r: {"pairs": r.pairs_checked},
    "quatarith.enumerate_norm_one": lambda a, k, r: {
        "bound": _arg(a, k, 1, "bound"), "found": len(r)},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    self_s: float
    parent: Optional[int]
    job: Optional[int]
    info: Optional[dict]


class Tracer:
    """Installs and removes the wrappers; owns the spans and aggregates."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"oneloop.{name}") for name in MODULES}
        self.spans: List[Span] = []
        self.ops: Dict[str, List[float]] = {name: [0, 0.0] for name, _, _ in SCALAR_OPS}
        self.job: Optional[int] = None
        self._child = [0.0]   # per open call: traced time spent in its callees
        self._open: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        child, open_, spans = self._child, self._open, self.spans
        info_of = _INFO.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else None
            open_.append(index)
            child.append(0.0)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                inner = child.pop()
                open_.pop()
                child[-1] += end - start
                info = info_of(args, kwargs, result) if info_of and result is not None else None
                spans[index] = Span(name, start, end, end - start - inner, parent, self.job, info)

        return wrapper

    def _op_wrapper(self, stat: List[float], fn):
        child = self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args):
            child.append(0.0)
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                inner = child.pop()
                child[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed - inner

        return wrapper

    def _rebind_everywhere(self, target, wrapper) -> None:
        """Rebind every module global or class attribute that is ``target``."""
        namespaces = []
        for module in self.modules.values():
            namespaces.append(module)
            namespaces += [v for v in vars(module).values()
                           if isinstance(v, type) and v.__module__ == module.__name__]
        for owner in namespaces:
            for attr, value in list(vars(owner).items()):
                if value is target:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module, attr in FUNCTIONS:
            target = getattr(self.modules[module], attr)
            self._rebind_everywhere(target, self._span_wrapper(name, target))
        exact = self.modules["exact"]
        for name, cls, method in SCALAR_OPS:
            target = vars(getattr(exact, cls))[method]
            self._rebind_everywhere(target, self._op_wrapper(self.ops[name], target))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def ops_snapshot(self) -> Dict[str, Tuple[int, float]]:
        return {name: (stat[0], stat[1]) for name, stat in self.ops.items()}


def op_delta(before, after) -> Dict[str, Tuple[int, float]]:
    return {name: (after[name][0] - before[name][0], after[name][1] - before[name][1])
            for name in after}


# --- per-layer metrics ---------------------------------------------------------

def layer_metrics(spans: Sequence[Span], ops: Dict[str, Tuple[int, float]],
                  pass_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (its spans and operator deltas)."""
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + span.self_s
    for name, (count, seconds) in ops.items():
        calls[name] = count
        self_s[name] = seconds

    gram_evals = 0
    killing_pairs = pairs_checked = candidates = found = 0
    for span in spans:
        info = span.info or {}
        if span.name == "geometry.ricci_fd":
            gram_evals += ricci_gram_evals(info["n"])
        elif span.name == "geometry.metric_first_derivatives":
            parent = spans[span.parent] if span.parent is not None else None
            if parent is None or parent.name != "geometry.ricci_fd":
                gram_evals += first_derivative_gram_evals(info["dim"])
        elif span.name == "geometry.metric_gram":
            gram_evals += 1
        elif span.name == "fields.killing_residuals":
            killing_pairs += info["points"] * info["catalogue"]
        elif span.name == "liealg.structure_check":
            pairs_checked += info["pairs"]
        elif span.name == "quatarith.enumerate_norm_one":
            candidates += norm_one_candidates(info["bound"])
            found += info["found"]

    out: Dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        for suffix, table in ((".calls", calls), (".self_s", self_s)):
            if name.endswith(suffix):
                out[name] = table.get(name[: -len(suffix)], 0)
    for op in ("exact.QI.mul", "exact.Rad.mul"):
        n = calls.get(op, 0)
        out[f"{op}.us_per_call"] = 1e6 * self_s[op] / n if n else 0.0
    gram_time = sum(self_s.get(name, 0.0) for name in GRAM_SPANS)
    out["geometry.gram_evals"] = gram_evals
    out["geometry.gram_evals_per_s"] = gram_evals / gram_time if gram_time else 0.0
    out["fields.killing_pairs"] = killing_pairs
    out["liealg.pairs_checked"] = pairs_checked
    out["quatarith.candidates"] = candidates
    out["quatarith.found"] = found
    out["quatarith.yield"] = found / candidates if candidates else 0.0
    out["liealg.center.self_s"] = sum(self_s.get(name, 0.0) for name in CENTER_SPANS)
    below_main = sum(s for name, s in self_s.items() if name != "cli.main")
    out["trace.coverage"] = below_main / pass_s
    return out


# Clock resolution allowed when self times are compared.
SLACK_S = 1e-6


def check_spans(spans: Sequence[Span],
                ops_by_job: Dict[int, Dict[str, Tuple[int, float]]]) -> List[str]:
    """Invariant violations of a traced pass (empty when it is consistent).

    Every self time is >= 0, and within each job the self times of all
    spans and operator aggregates sum to the job's ``cli.main`` span.
    """
    problems = []
    per_job: Dict[int, float] = {}
    main_s: Dict[int, float] = {}
    for span in spans:
        if span.self_s < -SLACK_S:
            problems.append(f"negative self time {span.self_s} in {span.name}")
        per_job[span.job] = per_job.get(span.job, 0.0) + span.self_s
        if span.name == "cli.main":
            main_s[span.job] = span.end - span.start
    for job, ops in ops_by_job.items():
        for name, (_, seconds) in ops.items():
            if seconds < -SLACK_S:
                problems.append(f"negative self time {seconds} in {name}")
            per_job[job] = per_job.get(job, 0.0) + seconds
    for job, total in per_job.items():
        if job not in main_s:
            problems.append(f"job {job} has spans but no cli.main span")
        elif abs(total - main_s[job]) > SLACK_S + 1e-9 * main_s[job]:
            problems.append(
                f"job {job}: self times sum to {total}, cli.main took {main_s[job]}")
    return problems


# --- import time -------------------------------------------------------------------

_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_times(stderr: str) -> Dict[str, float]:
    """oneloop / scipy / numpy seconds from ``python -X importtime`` output.

    ``import.oneloop_s`` is the cumulative time of importing ``oneloop.cli``
    with everything it pulls in; scipy and numpy are the summed self times
    of their modules, which are parts of it.
    """
    self_us = {"scipy": 0, "numpy": 0}
    oneloop_us = 0
    for match in _IMPORTTIME.finditer(stderr):
        own, cumulative, module = int(match[1]), int(match[2]), match[4]
        top = module.split(".")[0]
        if top in self_us:
            self_us[top] += own
        if module.startswith("oneloop") and len(match[3]) <= 1:
            oneloop_us += cumulative
    return {
        "import.oneloop_s": oneloop_us / 1e6,
        "import.scipy_s": self_us["scipy"] / 1e6,
        "import.numpy_s": self_us["numpy"] / 1e6,
    }


def measure_imports(python: str, env: Dict[str, str], repeats: int) -> Dict[str, float]:
    """Median import times over ``repeats`` fresh interpreters."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import oneloop.cli"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            check=True, timeout=120,
        )
        samples.append(import_times(proc.stderr))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
