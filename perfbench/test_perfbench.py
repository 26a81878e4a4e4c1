"""Self-tests of the benchmark: traced jobs print exactly what untraced jobs
print, their counts repeat exactly, and the counts known for the reference
implementation hold.  Run with `python3 -m pytest -q perfbench`."""

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import run

# (job metric, trace key) -> count on the reference implementation.
KNOWN_COUNTS = {
    ("muller_tight_s", "operators.ell_power.calls"): 1460,
    ("muller_tight_s", "partition.coeff_matrix.calls"): 2,
    ("muller_tight_s", "partition.coeff_matrix.distinct"): 1,
    ("closure_s", "poly.Poly.to_basis.calls"): 13858,
    ("orbit_decide_s", "perms.partition_stabilizer.order"): 40320,
    ("orbit_decide_s", "perms.orbit_partition.generators"): 40320,
    ("enumerate_srp_s", "srp.enumerate_strongly_regular.partitions"): 93,
}


@pytest.fixture(scope="module")
def work():
    run.WORK_ROOT.mkdir(exist_ok=True)
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        yield Path(tmp)


def counts(job):
    return {k: v for k, v in job["trace"].items() if not k.endswith("_s")}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_jobs_match_untraced_output_and_repeat(workload, work):
    fields = run.write_inputs(7, work)
    expected = run.load_expected()
    deadline = time.perf_counter() + 600
    first, second = (run.run_round(run.WORKLOADS[workload], fields, expected, work, deadline,
                                   trace=True)
                     for _ in range(2))
    for metric, job in first.items():
        assert job["ok"], f"{metric}: traced output differs from the untraced reference"
        assert job["trace"]["cli.main.calls"] >= 1
        assert counts(job) == counts(second[metric])
    for (metric, key), value in KNOWN_COUNTS.items():
        if metric in first:
            assert first[metric]["trace"][key] == value, (metric, key)
    layers = run.layer_metrics(first)
    listed = {m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert listed == set(layers) | set(run.JOB_METRICS) | {"host.ref_s", "trace.overhead_ratio"}
    if workload == "tight-family":
        assert layers["partition.coeff_matrix.repeat_ratio"] == 2.0


def test_fails_without_goa_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "identity-suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert b'"metrics"' not in proc.stdout
