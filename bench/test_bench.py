"""Self-tests of the benchmark: computed counts, tracing invariants, oracle.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import BASE_SECONDS, PASSES, WORKLOADS, job_key, make_jobs, pass_count  # noqa: E402

from oneloop import cli, fields, geometry, quatarith  # noqa: E402
from oneloop.geometry import ModelParams  # noqa: E402
from oneloop.quatarith import QuatParams  # noqa: E402

SMALL_JOBS = [
    ["center", "--n", "3"],
    ["structure", "--n", "2"],
    ["verify-killing", "--n", "2", "--points", "3", "--seed", "7"],
    ["curvature", "--n", "1", "--points", "1", "--seed", "7"],
    ["lattice", "--c-exact", "1:2:3", "--bound", "2"],
    ["volume-table", "--n", "2"],
]


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    yield t
    t.uninstall()


def traced_pass(t, jobs):
    """(spans, operator totals, ops per job, pass seconds, stdouts) of one traced pass."""
    t.install()
    try:
        seconds, outputs, _, _, ops_by_job = run._in_process_pass(
            lambda argv: cli.main(argv), jobs, {}, t.modules, t)
    finally:
        t.uninstall()
    ops = {name: (sum(d[name][0] for d in ops_by_job.values()),
                  sum(d[name][1] for d in ops_by_job.values()))
           for name, _, _ in tracing.SCALAR_OPS}
    return t.spans, ops, ops_by_job, seconds, outputs


# --- computed counts -------------------------------------------------------------

def test_ricci_gram_evals_formula():
    assert [tracing.ricci_gram_evals(n) for n in (1, 2, 3)] == [133, 521, 1165]
    assert tracing.first_derivative_gram_evals(4) == 16


def test_computed_gram_evals_match_counted_evaluations(tracer, monkeypatch):
    counted = [0]
    original = geometry._gram_from_chart

    def counting(q, params):
        counted[0] += 1
        return original(q, params)

    monkeypatch.setattr(geometry, "_gram_from_chart", counting)
    jobs = [["curvature", "--n", "2", "--points", "1", "--seed", "3"],
            ["verify-killing", "--n", "1", "--points", "2", "--seed", "3"]]
    spans, ops, _, seconds, _ = traced_pass(tracer, jobs)
    metrics = tracing.layer_metrics(spans, ops, seconds)
    # curvature: 1 ricci_fd (521) + 1 metric_gram; killing: 2 x (16 + 1)
    assert metrics["geometry.gram_evals"] == counted[0] == 521 + 1 + 2 * 17


def test_candidates_formula_matches_the_scan(monkeypatch):
    counted = [0]
    original = quatarith.reduced_norm

    def counting(q):
        counted[0] += 1
        return original(q)

    monkeypatch.setattr(quatarith, "reduced_norm", counting)
    quatarith.enumerate_norm_one(QuatParams(2, 3), 2)
    assert counted[0] == tracing.norm_one_candidates(2) == 5 ** 4


def test_killing_pairs_is_points_times_catalogue(tracer):
    jobs = [["verify-killing", "--n", "2", "--points", "3", "--seed", "1"]]
    spans, ops, _, seconds, _ = traced_pass(tracer, jobs)
    metrics = tracing.layer_metrics(spans, ops, seconds)
    catalogue = fields.real_killing_catalogue(ModelParams(n=2, c=1.0))
    assert metrics["fields.killing_pairs"] == 3 * len(catalogue)


# --- tracing ------------------------------------------------------------------------

def test_trace_invariants_and_stdout_contract(tracer):
    _, plain, _, _, _ = run._in_process_pass(cli.main, SMALL_JOBS, {}, tracer.modules)
    spans, ops, ops_by_job, seconds, traced = traced_pass(tracer, SMALL_JOBS)
    assert traced == plain  # tracing never touches stdout
    assert all(span.self_s >= 0 for span in spans)
    assert all(s >= 0 for d in ops_by_job.values() for _, s in d.values())
    assert tracing.check_spans(spans, ops_by_job) == []
    mains = [s for s in spans if s.name == "cli.main"]
    assert len(mains) == len(SMALL_JOBS)
    for job, main in enumerate(mains):
        total = sum(s.self_s for s in spans if s.job == job)
        total += sum(sec for _, sec in ops_by_job[job].values())
        assert total == pytest.approx(main.end - main.start, rel=1e-9, abs=1e-9)
    metrics = tracing.layer_metrics(spans, ops, seconds)
    assert metrics["cli.main.calls"] == len(SMALL_JOBS)
    assert metrics["trace.coverage"] >= 0.9


def test_wrappers_cover_every_binding_and_are_removed(tracer):
    original = geometry.metric_first_derivatives
    tracer.install()
    assert geometry.metric_first_derivatives is fields.metric_first_derivatives
    assert geometry.metric_first_derivatives is not original
    assert quatarith.lattice_coordinates is tracer.modules["heis"].lattice_coordinates
    exact = tracer.modules["exact"]
    assert exact.QI.__rmul__ is exact.QI.__mul__
    tracer.uninstall()
    assert geometry.metric_first_derivatives is original
    assert fields.metric_first_derivatives is original


def test_check_spans_reports_inconsistency():
    spans = [tracing.Span("cli.main", 0.0, 1.0, 0.5, None, 0, None),
             tracing.Span("geometry.metric_gram", 0.1, 0.2, -0.1, 0, 0, None)]
    problems = tracing.check_spans(spans, {0: {}})
    assert any("negative self time" in p for p in problems)
    assert any("sum to" in p for p in problems)


def test_import_time_parser():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:      1656 |      40694 | site\n"
        "import time:       900 |       1000 |     numpy.core\n"
        "import time:      2000 |       3000 |   numpy\n"
        "import time:      4000 |       5000 |   scipy.integrate\n"
        "import time:       260 |        260 |   oneloop\n"
        "import time:      8704 |     817185 | oneloop.cli\n"
    )
    got = tracing.import_times(stderr)
    assert got == {"import.oneloop_s": 0.817185, "import.scipy_s": 0.004,
                   "import.numpy_s": 0.0029}


# --- oracle and workloads ---------------------------------------------------------------

def test_every_workload_job_is_pinned():
    pins = oracle.load_pins()
    for workload in WORKLOADS:
        for argv in make_jobs(workload, 0):
            assert job_key(argv) in pins


def test_seed_fixes_jobs_and_order():
    assert make_jobs("numeric-fd", 5) == make_jobs("numeric-fd", 5)
    assert make_jobs("numeric-fd", 5) != make_jobs("numeric-fd", 6)
    assert sorted(map(job_key, make_jobs("cold-cli", 1))) == sorted(
        " ".join(t) for t in WORKLOADS["cold-cli"])


def test_oracle_accepts_pinned_and_rejects_wrong_verdicts():
    pins = oracle.load_pins()
    argv = ["verify-killing", "--n", "1", "--points", "3", "--seed", "11"]
    key = job_key(argv)
    code, stdout = oracle.run_in_process(cli.main, argv)
    assert code == 1  # fails by design: the fiber-translation rows
    assert oracle.check(pins, key, argv, code, stdout) == (None, 0)

    report = json.loads(stdout)
    report["rows"][0]["pass"] = not report["rows"][0]["pass"]
    flipped = json.dumps(report)
    assert oracle.check(pins, key, argv, code, flipped)[0] == "verdict differs from the pin"
    report["rows"].pop()
    assert oracle.check(pins, key, argv, code, json.dumps(report))[0] is not None
    assert oracle.check(pins, key, argv, 0, stdout)[0] is not None  # exit status pinned
    assert oracle.check(pins, key, argv, 2, stdout)[0] == "exit 2 (error)"
    assert oracle.check(pins, key, argv, -9, stdout)[0].startswith("crash")
    assert oracle.check(pins, key, argv, code, "not json")[0].startswith("unparseable")


def test_oracle_counts_marginal_killing_flips_apart():
    pins = oracle.load_pins()
    argv = ["verify-killing", "--n", "1", "--points", "3", "--seed", "11"]
    code, stdout = oracle.run_in_process(cli.main, argv)
    report = json.loads(stdout)
    key = job_key(argv)
    row = next(r for r in report["rows"] if r["pass"])
    row["max_residual"] = 1.2 * row["tolerance"]  # undecided by finite differences
    row["pass"] = False
    assert oracle.check(pins, key, argv, code, json.dumps(report)) == (None, 1)
    row["max_residual"] = 2.5 * row["tolerance"]  # beyond the observed defect
    assert oracle.check(pins, key, argv, code, json.dumps(report))[0] is not None
    row["max_residual"] = 10 * row["tolerance"]  # decided: a real regression
    assert oracle.check(pins, key, argv, code, json.dumps(report))[0] is not None

    report = json.loads(stdout)
    row = next(r for r in report["rows"] if not r["pass"])  # fails by design
    row["max_residual"] = 0.9 * row["tolerance"]
    row["pass"] = True
    assert oracle.check(pins, key, argv, code, json.dumps(report))[0] is not None


def test_lattice_and_table_verdicts_compare_exactly_and_within_tolerance():
    pins = oracle.load_pins()
    argv = ["lattice", "--bound", "2"]
    code, stdout = oracle.run_in_process(cli.main, argv)
    assert oracle.check(pins, job_key(argv), argv, code, stdout) == (None, 0)
    broken = stdout.replace("true", "false", 1)
    assert oracle.check(pins, job_key(argv), argv, code, broken)[0] is not None
    argv = ["volume-table", "--n", "1"]
    code, stdout = oracle.run_in_process(cli.main, argv)
    assert oracle.check(pins, job_key(argv), argv, code, stdout) == (None, 0)
    assert oracle.check(pins, job_key(argv), argv, code, stdout.replace("0.25", "0.26"))[0]


# --- benchmark definition ------------------------------------------------------------------

def test_tail_is_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 26)]
    assert run.tail(values) == (15.0, 60.0)


def test_host_scale_maps_median_reference_time_to_nominal():
    nominal = run.REFERENCE_NOMINAL_S
    assert run.host_scale([nominal] * 3) == 1.0
    assert run.host_scale([2 * nominal, 2 * nominal, 9 * nominal]) == 0.5


def test_pass_count_is_fixed_by_seconds_alone():
    for workload in WORKLOADS:
        assert pass_count(workload, BASE_SECONDS) == PASSES[workload]
        assert pass_count(workload, 2 * BASE_SECONDS) == 2 * PASSES[workload]
        assert pass_count(workload, 1) == 1


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER)
