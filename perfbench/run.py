"""Benchmark of the goa command line.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed list of goa CLI jobs.  A job is one or more
`python3 -m goa.cli ...` invocations, run one child process at a time;
its exit codes and stdout digests are checked against expected.json.
Jobs repeat in rounds until the next round would end past S seconds
(at least one round).  The last stdout line is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
See README.md for the workloads and the metric map.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

CERTIFY_REPEATS = 8     # counterexample + merged decision take ~0.4 s a pair
REF_LOOP_ITERATIONS = 3_000_000
SETUP_SPAWNS = 9
JOB_CAP_S = 60.0        # a job exceeding this is killed and counted as failed
RUN_CAP_S = 150.0       # jobs still running this long after measuring starts are killed

# (per-job metric, CLI invocations); "{name}" fields are filled from the
# seeded inputs.  A stabilizer change should move orbit_decide_s only.
WORKLOADS = {
    "tight-family": (
        ("muller_tight_s", (("muller-tight", "--r", "6"),)),
        ("closure_s", (("verify", "--partition", "{closure}", "--closure"),)),
    ),
    "identity-suite": (
        ("identities_s", (("--seed", "{seed}", "identities", "--n", "7"),)),
    ),
    "realizability": (
        ("orbit_decide_s", (("is-orbit-algebra", "--partition", "{levels}"),)),
        ("certify_s", (("counterexample",),
                       ("is-orbit-algebra", "--partition", "{merged}")) * CERTIFY_REPEATS),
        ("enumerate_srp_s", (("enumerate-srp", "--n", "5"),)),
    ),
}
JOB_METRICS = [metric for jobs in WORKLOADS.values() for metric, _ in jobs]

# Per-layer metrics reported from the traced round: (span name, extra stats).
LAYERS = (
    ("cli.main", ()),
    ("recon.lovasz_tight_instance", ()),
    ("recon.reconstruction_pairs", ()),
    ("recon.muller_check", ()),
    ("partition.coeff_matrix", ("repeat_ratio",)),
    ("partition.verify_strongly_regular", ()),
    ("partition.upward_count", ()),
    ("partition.verify_goa_closure", ()),
    ("partition.Partition.from_blocks", ()),
    ("partition.parse_partition_text", ()),
    ("operators.ell_power", ()),
    ("operators.complementation", ()),
    ("operators.derivation", ()),
    ("operators.epsilon_map", ()),
    ("operators.LinearOperator.__call__", ()),
    ("poly.Poly.to_basis", ()),
    ("poly.Poly.__mul__", ()),
    ("poly.Poly.__eq__", ()),
    ("linalg.mat_mul", ()),
    ("linalg.mat_eq", ()),
    ("linalg.rank", ()),
    ("linalg.solve_exact", ()),
    ("terwilliger.verify_terwilliger_generation", ()),
    ("identities.identity_suite", ()),
    ("perms.close_generators", ()),
    ("perms.orbit_partition", ("generators",)),
    ("perms.partition_stabilizer", ("order",)),
    ("srp.enumerate_strongly_regular", ("partitions",)),
    ("srp.is_orbit_partition", ()),
    ("srp.build_counterexample", ()),
)


@dataclass
class Invocation:
    """One finished child process: wall time, exit code, output, peak RSS."""

    seconds: float
    code: int
    stdout: bytes
    stderr: bytes
    rss_mb: float
    timed_out: bool


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(cmd, work, timeout):
    """Run cmd from the checkout root; wall time from spawn to reap, with
    the child's peak RSS from wait4.  The child is killed after timeout."""
    out_path, err_path = work / "stdout", work / "stderr"
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(seconds, proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                      usage.ru_maxrss / 1024, killed.is_set())


def reference_loop():
    """A fixed pure-Python loop, timed next to every job to record host drift."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_LOOP_ITERATIONS):
        total += i
    return time.perf_counter() - start


# goa is imported inside functions: it is found only once run() has put
# the checkout's src on sys.path.
def relabel(partition, rng):
    """The same partition with its ground-set points permuted by rng."""
    from goa.partition import Partition
    n = partition.g.n
    image = list(range(n))
    rng.shuffle(image)

    def move(mask):
        return sum(1 << image[i] for i in range(n) if mask >> i & 1)

    return Partition.from_blocks(partition.g, [[move(m) for m in b] for b in partition.blocks])


def write_inputs(seed, work):
    """Partition files for the jobs in work, built with goa's public
    constructors and relabelled by the seed.  Returns the template fields."""
    from goa.partition import Partition, format_partition
    from goa.perms import orbit_partition
    from goa.recon import lovasz_tight_instance
    from goa.srp import build_counterexample
    from goa.subsets import GroundSet, popcount

    group, _, _ = lovasz_tight_instance(4, pad=1)
    g8 = GroundSet(8)
    bases = {
        "closure": orbit_partition(group),
        "levels": Partition.from_blocks(
            g8, [[m for m in g8.masks() if popcount(m) == k] for k in range(9)]),
        "merged": build_counterexample()[0],
    }
    rng = random.Random(seed)
    fields = {"seed": str(seed)}
    for name, partition in bases.items():
        path = work / f"{name}.txt"
        path.write_text(format_partition(relabel(partition, rng)) + "\n")
        fields[name] = str(path)
    return fields


def load_expected():
    with open(BENCH / "expected.json") as f:
        return json.load(f)


def passes(expected, template, inv):
    want = expected[" ".join(template)]
    return (not inv.timed_out and inv.code == want["exit"]
            and hashlib.sha256(inv.stdout).hexdigest() == want["stdout_sha256"]
            and b"Traceback" not in inv.stderr)


def run_round(jobs, fields, expected, work, deadline, trace=False):
    """Run every job once.  Returns {metric: job result}, where a job result
    holds seconds, ok, ref_s, rss_mb and, when traced, the summed span counts."""
    results = {}
    for metric, commands in jobs:
        ref_s = reference_loop()
        job = {"seconds": 0.0, "ok": True, "ref_s": ref_s, "rss_mb": 0.0, "trace": {}}
        for template in commands:
            args = [a.format(**fields) for a in template]
            timeout = min(JOB_CAP_S, deadline - time.perf_counter())
            if timeout <= 0:
                job["ok"] = False
                break
            if trace:
                trace_path = work / "trace.json"
                trace_path.unlink(missing_ok=True)
                inv = spawn([sys.executable, str(BENCH / "trace_child.py"), str(trace_path),
                             *args], work, timeout)
                if trace_path.exists():
                    for key, value in json.loads(trace_path.read_text()).items():
                        job["trace"][key] = job["trace"].get(key, 0) + value
            else:
                inv = spawn([sys.executable, "-m", "goa.cli", *args], work, timeout)
            job["seconds"] += inv.seconds
            job["rss_mb"] = max(job["rss_mb"], inv.rss_mb)
            if not passes(expected, template, inv):
                job["ok"] = False
                sys.stderr.write(f"job {metric} failed: goa {' '.join(args)} -> exit {inv.code}, "
                                 f"stdout sha256 {hashlib.sha256(inv.stdout).hexdigest()}"
                                 f"{', timed out' if inv.timed_out else ''}\n"
                                 + inv.stderr.decode(errors="replace")[-2000:])
        results[metric] = job
    return results


def measure_setup(work):
    """Median time for a child to start Python and import goa.cli, after
    one warm-up spawn that fills the bytecode cache."""
    cmd = [sys.executable, "-c", "import goa.cli"]
    times = []
    for i in range(SETUP_SPAWNS + 1):
        inv = spawn(cmd, work, JOB_CAP_S)
        if inv.code != 0:
            raise RuntimeError("cannot import goa.cli:\n" + inv.stderr.decode(errors="replace"))
        if i:
            times.append(inv.seconds)
    return statistics.median(times)


def layer_metrics(traced_round):
    """Per-layer metrics summed over the jobs of one traced round."""
    totals = {}
    for job in traced_round.values():
        for key, value in job["trace"].items():
            totals[key] = totals.get(key, 0) + value
    out = {}
    for span, extras in LAYERS:
        out[f"{span}.calls"] = totals.get(f"{span}.calls", 0)
        out[f"{span}.self_s"] = totals.get(f"{span}.self_s", 0.0)
        for stat in extras:
            if stat == "repeat_ratio":
                distinct = totals.get(f"{span}.distinct", 0)
                out[f"{span}.repeat_ratio"] = out[f"{span}.calls"] / distinct if distinct else 0.0
            else:
                out[f"{span}.{stat}"] = totals.get(f"{span}.{stat}", 0)
    return out


def measure(jobs, fields, expected, work, seconds, trace):
    """Untraced rounds (each followed by a traced one when trace is set)
    until the next would end past seconds; returns both lists of rounds."""
    start = time.perf_counter()
    deadline = start + RUN_CAP_S
    plain, traced = [], []
    while True:
        round_start = time.perf_counter()
        plain.append(run_round(jobs, fields, expected, work, deadline))
        if trace:
            traced.append(run_round(jobs, fields, expected, work, deadline, trace=True))
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return plain, traced


def run(workload, seed, seconds, trace):
    jobs = WORKLOADS[workload]
    expected = load_expected()
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        work = Path(tmp)
        fields = write_inputs(seed, work)
        setup_s = measure_setup(work)
        plain, traced = measure(jobs, fields, expected, work, seconds, trace)

    rounds = plain + traced
    attempted = sum(len(r) for r in rounds)
    failed = sum(not job["ok"] for r in rounds for job in r.values())
    job_s = {m: statistics.median(r[m]["seconds"] for r in plain) for m, _ in jobs}
    wall_s = statistics.median(sum(j["seconds"] for j in r.values()) for r in plain)
    ref_s = statistics.median(j["ref_s"] for r in rounds for j in r.values())
    print(f"workload: {workload}  seed: {seed}  rounds: {len(plain)} untraced, {len(traced)} traced")
    for metric, value in job_s.items():
        print(f"{metric}: {value:.4f} s")
    print(f"host.ref_s: {ref_s:.4f} s")
    print(f"fail_ratio: {failed / attempted} ({failed} of {attempted} jobs)")

    if trace:
        metrics = {}
        layers = [layer_metrics(r) for r in traced]
        for key in layers[0]:
            unit = "s" if key.endswith("_s") else "ratio" if key.endswith("ratio") else "count"
            metrics[key] = {"value": statistics.median(m[key] for m in layers), "unit": unit}
        for metric in JOB_METRICS:
            metrics[metric] = {"value": job_s.get(metric, 0.0), "unit": "s"}
        metrics["host.ref_s"] = {"value": ref_s, "unit": "s"}
        traced_wall = statistics.median(sum(j["seconds"] for j in r.values()) for r in traced)
        metrics["trace.overhead_ratio"] = {"value": traced_wall / wall_s, "unit": "ratio"}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": max(j["rss_mb"] for r in plain for j in r.values()),
                            "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main():
    ap = argparse.ArgumentParser(description="goa CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "goa" / "cli.py").is_file():
        sys.exit(f"no goa sources at {SRC}: run from a goa checkout")
    run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
