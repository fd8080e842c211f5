"""Job lists of the benchmark workloads.

A job is the argv of one ``oneloop`` invocation (without the program name).
Templates below carry no ``--seed``; the commands that sample points get one
drawn from the run seed, which also fixes the job order. Every pass of a run
repeats the same generated list, so passes do identical work.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

SEEDED_COMMANDS = frozenset({"verify-killing", "curvature"})

# Why each workload exists is documented in bench/README.md; in short:
#   cold-cli    smallest instance of every subcommand: import, cli and volume
#   numeric-fd  the float path: finite-difference Gram derivatives and Ricci
#   exact       the exact layer: Gaussian rationals under Poly (structure) and
#               radical rings (lattice), in one pass so that a change to the
#               scalar tower that speeds one and slows the other moves both
#               of their per-layer metrics in the same traced run
WORKLOADS: Dict[str, Tuple[Tuple[str, ...], ...]] = {
    "cold-cli": (
        ("center", "--n", "2"),
        ("center", "--n", "6"),
        ("structure", "--n", "1"),
        ("verify-killing", "--n", "1", "--points", "3"),
        ("curvature", "--n", "1", "--points", "1"),
        ("lattice", "--bound", "2"),
        ("volume-table", "--n", "1"),
        ("volume-table", "--n", "3"),
    ),
    "numeric-fd": (
        ("verify-killing", "--n", "1", "--points", "30"),
        ("verify-killing", "--n", "2", "--points", "30"),
        ("verify-killing", "--n", "3", "--points", "30"),
        ("curvature", "--n", "2", "--points", "2"),
        ("curvature", "--n", "3", "--points", "2"),
    ),
    "exact": (
        ("structure", "--n", "3"),
        ("structure", "--n", "4"),
        ("lattice", "--c-exact", "1:2:3", "--bound", "5"),
        ("lattice", "--c-exact", "1:2:5", "--bound", "6"),
        ("lattice", "--c-exact", "1:3:7", "--bound", "8"),
    ),
}

# Passes of one run at --seconds BASE_SECONDS (the run_seconds of BENCHMARK.json).
# On the baseline host a run, set-up and reference spawns included, takes
# 24-37 s on cold-cli and numeric-fd and 34-44 s on exact, whose fourth pass
# keeps its tail (the 11th-largest of 20 invocations) inside one cluster of
# similar jobs. Other --seconds scale the count. It never depends on how fast
# the program is, so the parent and a change do the same work and report the
# same order statistics.
BASE_SECONDS = 30
PASSES = {"cold-cli": 3, "numeric-fd": 5, "exact": 4}


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(PASSES[workload] * seconds / BASE_SECONDS))


def job_key(argv: List[str]) -> str:
    """The oracle key of a job: its argv without the ``--seed`` value."""
    out = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
        elif arg == "--seed":
            skip = True
        else:
            out.append(arg)
    return " ".join(out)


def make_jobs(workload: str, seed: int) -> List[List[str]]:
    """The generated job list of one workload for one run seed."""
    rng = random.Random(seed)
    jobs = []
    for template in WORKLOADS[workload]:
        argv = list(template)
        if argv[0] in SEEDED_COMMANDS:
            argv += ["--seed", str(rng.randrange(2**32))]
        jobs.append(argv)
    rng.shuffle(jobs)
    return jobs
