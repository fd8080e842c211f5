"""Time-to-verdict benchmark of the ``oneloop`` command-line driver.

Closed loop, one client: one ``python -m oneloop.cli ...`` subprocess runs at
a time, and the next starts when the previous has exited. A run repeats the
workload's job list (one *pass*) a fixed number of times for ``--seconds``,
checks every verdict against the pinned oracle, and prints the end-to-end
metrics. Timings are reported at a reference host speed: a bare interpreter
start is timed before every child, and the run's timings are scaled by how
long those took (see ``host_scale``).
With ``--trace 1`` it instead imports the package once, alternates untraced
and traced in-process passes through ``oneloop.cli.main`` for the same time,
and prints the per-layer metrics.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload numeric-fd --seed 1 --seconds 27 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 27 --trace 0

The last line of stdout is one JSON object (correct, attempted, failed,
metrics); a human-readable table comes before it. Every run also writes a
result file with its provenance, raw samples and job argv under
``.bench_out/``. See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, job_key, make_jobs, pass_count  # noqa: E402

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CPU_LIMIT_S = 90  # a job that burns this much CPU is killed and counts as a timeout
TAIL_BEYOND = 10
MAX_SLOWDOWN = 4

# Median spawn-to-exit time of the reference spawn on the baseline host (bench/README.md).
REFERENCE_NOMINAL_S = 0.060

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("verdict_s.p50", "s"),
    ("verdict_s.tail", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("flag_ok_ratio", "ratio"),
)


class CheckoutError(RuntimeError):
    """The directory holds no program to benchmark."""


@dataclass
class Invocation:
    argv: List[str]
    pass_index: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    exit_code: int
    failure: Optional[str]
    marginal_flips: int


# --- environment -----------------------------------------------------------------

def child_env() -> Dict[str, str]:
    if not os.path.isfile(os.path.join(SRC, "oneloop", "cli.py")):
        raise CheckoutError(f"no oneloop package under {SRC}")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _loadavg() -> Optional[str]:
    try:
        with open("/proc/loadavg", "r", encoding="ascii") as handle:
            return handle.read().strip()
    except OSError:
        return None


def _version(dist: str) -> Optional[str]:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git() -> Dict[str, object]:
    """SHA and dirty flag when the checkout is a git work tree, else nulls."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--", "src", "bench"],
                                capture_output=True, text=True, check=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(status.strip())}


def _tree_digest(top: str) -> str:
    """sha256 over the paths and bytes of the Python sources under ``top``."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(top):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def provenance(args, jobs: List[List[str]]) -> Dict[str, object]:
    return {
        "git": _git(),
        "src_sha256": _tree_digest(SRC),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": [[sys.executable, "-m", "oneloop.cli", *argv] for argv in jobs],
    }


# --- untraced run: subprocesses ----------------------------------------------------

def _limit_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT_S, CPU_LIMIT_S + 5))


def spawn(argv: List[str], env: Dict[str, str], scratch):
    """(wall s, cpu s, maxrss MB, exit code, stdout) of one child process.

    Wall time runs from before the spawn to after the exit has been reaped;
    CPU time and peak RSS come from the child's rusage.
    """
    scratch.seek(0)
    scratch.truncate()
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=scratch,
                            stderr=subprocess.DEVNULL, preexec_fn=_limit_cpu)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    scratch.seek(0)
    stdout = scratch.read().decode("utf-8", errors="replace")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode, stdout


def reference_spawn(env: Dict[str, str], scratch) -> float:
    """Wall time of a bare interpreter start, spawned before every measured child.

    It runs no code of the package, so no change to the program moves it; only the host does.
    """
    wall, _, _, code, _ = spawn([sys.executable, "-c", "pass"], env, scratch)
    if code != 0:
        raise RuntimeError(f"the reference interpreter exited {code}")
    return wall


def host_scale(reference: List[float]) -> float:
    """Factor that turns a run's timings into timings at the baseline's host speed.

    The host's CPUs are shared, and their speed moves by 10-50 % in phases
    that last from seconds to minutes, often longer than a run. Interpreter
    start slows with the host as the jobs do, so a timing divided by the
    run's median reference time, and multiplied by the nominal one, no longer
    depends on the phase the run fell in. Raw timings stay in the result file.
    """
    return REFERENCE_NOMINAL_S / statistics.median(reference)


def measure_setup(env: Dict[str, str], scratch, reference: List[float]) -> List[float]:
    """Wall times of SETUP_REPEATS spawns that only import the package."""
    samples = []
    for _ in range(SETUP_REPEATS):
        reference.append(reference_spawn(env, scratch))
        wall, _, _, code, _ = spawn([sys.executable, "-c", "import oneloop.cli"], env, scratch)
        if code != 0:
            raise RuntimeError(f"import oneloop.cli exited {code}")
        samples.append(wall)
    return samples


def tail(values: List[float]):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def pass_count_reached(done: int, elapsed: float, seconds: float) -> bool:
    """Stop a traced run after whole passes, once under half a pass is left."""
    return done >= 1 and elapsed + 0.5 * elapsed / done >= seconds


def tail_passes(jobs: int) -> int:
    """Fewest passes that leave a percentile with TAIL_BEYOND invocations beyond it."""
    return -(-(TAIL_BEYOND + 1) // jobs)


def run_untraced(args, jobs, pins, env) -> Dict:
    # A fixed pass count, so the parent and a change do the same work and report
    # the same order statistics; a change that slows the program a lot stops
    # early (but keeps its tail) rather than run long.
    minimum = tail_passes(len(jobs))
    planned = max(minimum, pass_count(args.workload, args.seconds))
    os.makedirs(OUT_DIR, exist_ok=True)
    reference: List[float] = []
    with tempfile.TemporaryFile(dir=OUT_DIR) as scratch:
        setup = measure_setup(env, scratch, reference)
        invocations: List[Invocation] = []
        passes: List[List[Invocation]] = []
        start = time.perf_counter()
        while len(passes) < minimum or (
                len(passes) < planned
                and time.perf_counter() - start < MAX_SLOWDOWN * args.seconds):
            current = []
            for argv in jobs:
                reference.append(reference_spawn(env, scratch))
                full = [sys.executable, "-m", "oneloop.cli", *argv]
                wall, cpu, rss, code, stdout = spawn(full, env, scratch)
                failure, flips = oracle.check(pins, job_key(argv), argv, code, stdout)
                current.append(Invocation(argv, len(passes), wall, cpu, rss, code, failure, flips))
            passes.append(current)
            invocations += current

    walls = [inv.wall_s for inv in invocations]
    tail_value, tail_pct = tail(walls)
    raw = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(i.wall_s for i in p) for p in passes),
        "verdict_s.p50": statistics.median(walls),
        "verdict_s.tail": tail_value,
        "cpu_s": statistics.median(sum(i.cpu_s for i in p) for p in passes),
    }
    scale = host_scale(reference)
    failed = sum(1 for inv in invocations if inv.failure)
    flips = sum(inv.marginal_flips for inv in invocations)
    killing_rows = sum(len(pins[job_key(inv.argv)]["rows"]) for inv in invocations
                       if inv.argv[0] == "verify-killing")
    metrics = {name: scale * value for name, value in raw.items()}
    metrics.update({
        "peak_rss_mb": max(inv.maxrss_mb for inv in invocations),
        "ok_ratio": (len(invocations) - failed) / len(invocations),
        "flag_ok_ratio": 1 - flips / killing_rows if killing_rows else 1.0,
    })
    return {
        "metrics": metrics,
        "raw_metrics": raw,
        "host_scale": scale,
        "units": dict(END_TO_END),
        "attempted": len(invocations),
        "failed": failed,
        "correct": failed == 0,
        "notes": {
            "verdict_s.tail": f"p{tail_pct:.1f} of {len(invocations)} invocations",
            "wall_s": f"median of {len(passes)} passes",
            "setup_s": f"median of {len(setup)} spawns",
            "flag_ok_ratio": f"{flips} marginal flips in {killing_rows} Killing rows",
        },
        "marginal_flips": flips,
        "failures": [{"argv": inv.argv, "reason": inv.failure} for inv in invocations if inv.failure],
        "samples": {
            "setup_s": setup,
            "reference_s": reference,
            "invocations": [inv.__dict__ for inv in invocations],
        },
        "tail": {"percentile": tail_pct, "samples": len(invocations)},
    }


# --- traced run: in process ----------------------------------------------------------

def _clear_caches(modules) -> None:
    """Empty the package's memo caches, so each pass starts as a fresh process would."""
    for module in modules.values():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _in_process_pass(main, jobs, pins, modules, tracer=None):
    """(pass seconds, stdout per job, failures, marginal flips, ops per job)."""
    _clear_caches(modules)
    outputs, failures, flips, ops_by_job = [], [], 0, {}
    elapsed = 0.0
    for index, argv in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
            before = tracer.ops_snapshot()
        start = time.perf_counter()
        code, stdout = oracle.run_in_process(main, argv)
        elapsed += time.perf_counter() - start
        if tracer is not None:
            ops_by_job[index] = tracing.op_delta(before, tracer.ops_snapshot())
            tracer.job = None
        failure, job_flips = oracle.check(pins, job_key(argv), argv, code, stdout)
        outputs.append(stdout)
        flips += job_flips
        if failure:
            failures.append({"argv": argv, "reason": failure})
    return elapsed, outputs, failures, flips, ops_by_job


def run_traced(args, jobs, pins, env) -> Dict:
    imports = tracing.measure_imports(sys.executable, env, IMPORT_REPEATS)
    sys.path.insert(0, SRC)
    import oneloop.cli  # imported once; every pass calls cli.main

    if not os.path.abspath(oneloop.cli.__file__).startswith(SRC + os.sep):
        raise CheckoutError(f"imported {oneloop.cli.__file__}, not the checkout's package")
    tracer = tracing.Tracer()
    cli = tracer.modules["cli"]
    _in_process_pass(cli.main, jobs, pins, tracer.modules)  # warm-up, discarded

    untraced_s, traced_s, per_pass, problems, failures = [], [], [], [], []
    attempted = flips = 0
    start = time.perf_counter()
    while not pass_count_reached(len(traced_s), time.perf_counter() - start, args.seconds):
        plain_s, plain_out, plain_fail, plain_flips, _ = _in_process_pass(
            cli.main, jobs, pins, tracer.modules)
        first_span = len(tracer.spans)
        tracer.install()
        try:
            # cli.main is looked up after install, so the job runs inside its span.
            seconds, out, fail, job_flips, ops_by_job = _in_process_pass(
                lambda argv: cli.main(argv), jobs, pins, tracer.modules, tracer)
        finally:
            tracer.uninstall()
        spans = tracer.spans[first_span:]
        for index, (a, b) in enumerate(zip(plain_out, out)):
            if a != b:
                problems.append(f"traced stdout differs from untraced for {jobs[index]}")
        problems += tracing.check_spans(spans, ops_by_job)
        ops = {name: (sum(d[name][0] for d in ops_by_job.values()),
                      sum(d[name][1] for d in ops_by_job.values()))
               for name, _, _ in tracing.SCALAR_OPS}
        per_pass.append(tracing.layer_metrics(_rebase(spans, first_span), ops, seconds))
        untraced_s.append(plain_s)
        traced_s.append(seconds)
        attempted += 2 * len(jobs)
        failures += plain_fail + fail
        flips += plain_flips + job_flips

    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    metrics.update(imports)
    metrics["inproc.pass_s"] = statistics.median(untraced_s)
    metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced_s, untraced_s))
    metrics["oracle.marginal_flips"] = flips
    _write_spans(args, tracer.spans)
    return {
        "metrics": {name: metrics[name] for name, _, _ in tracing.PER_LAYER},
        "units": {name: unit for name, unit, _ in tracing.PER_LAYER},
        "attempted": attempted,
        "failed": len(failures),
        "correct": not failures and not problems,
        "notes": {
            "geometry.gram_evals": "computed from call arguments",
            "quatarith.candidates": "computed: (2B+1)^4 per enumeration",
            "fields.killing_pairs": "computed: points x catalogue size",
            "passes": f"{len(traced_s)} traced and {len(untraced_s)} untraced in-process passes",
        },
        "marginal_flips": flips,
        "failures": failures,
        "trace_problems": problems,
        "samples": {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s},
    }


def _rebase(spans, offset):
    """Spans of one pass with parent indices relative to the pass."""
    return [tracing.Span(s.name, s.start, s.end, s.self_s,
                         None if s.parent is None else s.parent - offset, s.job, s.info)
            for s in spans]


def _write_spans(args, spans) -> None:
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([s.__dict__ for s in spans], handle)


# --- entry point -------------------------------------------------------------------

def run_workload(args, workload: str, env) -> Dict:
    sub = argparse.Namespace(**{**vars(args), "workload": workload})
    jobs = make_jobs(workload, args.seed)
    pins = oracle.load_pins()
    load_before = _loadavg()
    runner = run_traced if args.trace else run_untraced
    result = runner(sub, jobs, pins, env)
    result["provenance"] = {**provenance(sub, jobs), "loadavg_before": load_before,
                            "loadavg_after": _loadavg()}
    os.makedirs(OUT_DIR, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(OUT_DIR, f"{workload}-seed{args.seed}-trace{args.trace}-{stamp}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    result["path"] = path
    return result


def print_table(workload: str, result: Dict) -> None:
    print(f"== {workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}, marginal flips {result['marginal_flips']}")
    raw = result.get("raw_metrics", {})
    for name, value in result["metrics"].items():
        note = result["notes"].get(name)
        if name in raw:
            note = f"raw {raw[name]:.4g} s" + (f", {note}" if note else "")
        print(f"  {name:42s} {value:>14.6g} {result['units'][name]:6s}"
              + (f"  ({note})" if note else ""))
    for failure in result["failures"][:5]:
        print(f"  FAILED {' '.join(failure['argv'])}: {failure['reason']}")
    for problem in result.get("trace_problems", [])[:5]:
        print(f"  TRACE PROBLEM {problem}")
    prov = result["provenance"]
    scale = f"host scale {result['host_scale']:.4f}, " if "host_scale" in result else ""
    print(f"  {scale}loadavg {prov['loadavg_before']} -> {prov['loadavg_after']}")
    print(f"  result file {os.path.relpath(result['path'], ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        env = child_env()
        oracle.load_pins()
    except (CheckoutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for workload in names:
        results[workload] = run_workload(args, workload, env)
        print_table(workload, results[workload])
    if len(names) == 1:
        only = results[names[0]]
        metrics = {name: {"value": value, "unit": only["units"][name]}
                   for name, value in only["metrics"].items()}
    else:
        metrics = {f"{w}/{name}": {"value": value, "unit": r["units"][name]}
                   for w, r in results.items() for name, value in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
