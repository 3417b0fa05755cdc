"""Benchmark for the orient-duality calculator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in its own fresh
interpreter (``worker.py``), one at a time, with ``ORIENT_DUALITY_THREADS``
unset.  The last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it is the run record (machine, revision,
failures by name, digests).  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 165
IMPORT_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import orient_duality\n"
    "print(repr(time.perf_counter() - t))\n"
)

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def child_env():
    env = dict(os.environ)
    env.pop("ORIENT_DUALITY_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env):
    """Median time to import the package in a fresh interpreter.  One
    untimed import first writes the bytecode cache, as an installed
    package would have it."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
        )
        if i:
            samples.append(float(done.stdout.strip()))
    return statistics.median(samples), samples


def percentile(values, q):
    """Linear interpolation between closest ranks; defined for one value."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def code_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "orient_duality").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_revision():
    """HEAD of the checkout, if it is a git repository; git does not look
    above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def agree_with_earlier_runs(record):
    """Every earlier run in this checkout with the same code and inputs
    must have produced the same outputs.  Returns a problem or None."""
    log = OUT / "records.jsonl"
    if log.exists():
        for line in log.read_text().splitlines():
            old = json.loads(line)
            same_case = (old["workload"], old["code_digest"], old["inputs_digest"]) == (
                record["workload"],
                record["code_digest"],
                record["inputs_digest"],
            )
            if same_case and old["outputs_digest"] != record["outputs_digest"]:
                return "outputs differ from an earlier run with the same code and inputs"
    with log.open("a") as fh:
        fh.write(json.dumps(record) + "\n")
    return None


def run_workload(workload, seed, seconds, trace, spec):
    OUT.mkdir(exist_ok=True)
    env = child_env()
    setup_s, setup_samples = (None, [])
    if not trace:
        setup_s, setup_samples = measure_setup(env)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(OUT / ("spans-%s.jsonl.gz" % workload))]
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit("worker for %s exited with %d" % (workload, done.returncode))
    res = json.loads(done.stdout.strip().splitlines()[-1])

    # The mean round time is the run's measured time per round.  The host
    # changes speed for tens of seconds at a time; a mean over the run
    # averages the speeds it saw, where a median would take one of them.
    run_s = statistics.mean(res["round_times"])
    if trace:
        values = dict(res["layers"])
        values["trace.run_s"] = run_s
        metrics = {m["name"]: values[m["name"]] for m in spec["per_layer"]}
    else:
        lat = res["latencies"]
        values = {
            "setup_s": setup_s,
            "run_s": run_s,
            "query_p50_ms": 1000 * percentile(lat, 0.5),
            "query_p90_ms": 1000 * percentile(lat, 0.9),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {m["name"]: values[m["name"]] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "code_digest": code_digest(),
        "inputs_digest": res["inputs_digest"],
        "outputs_digest": res["outputs_digest"],
        "rounds": res["rounds"],
        "queries": len(res["latencies"]),
        "round_times_s": res["round_times"],
        "setup_samples_s": setup_samples,
        "latency_by_label_ms": res["latency_by_label_ms"],
        "failed_by_name": res["failed_by_name"],
        "problems": res["problems"],
    }
    problem = agree_with_earlier_runs(record)
    if problem:
        record["problems"].append(problem)
    result = {
        "correct": not record["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return record, result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "orient_duality" / "__init__.py").is_file():
        raise SystemExit("no orient_duality package under %s; run from a checkout of the repository" % (ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        record, result = run_workload(name, args.seed, args.seconds, args.trace, spec)
        for problem in record["problems"]:
            sys.stderr.write("%s: %s\n" % (name, problem))
        print(json.dumps({"record": record}))
        print(json.dumps(result))


if __name__ == "__main__":
    main()
