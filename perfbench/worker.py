"""Runs one workload in this (fresh) interpreter and prints a JSON summary
as its last line.  ``run.py`` starts it; it is not meant to be run alone.

The workload's operations are CLI argv lists passed to
``orient_duality.cli.main`` in-process, one at a time (a closed loop with
one client).  Whole rounds run while the next one is expected to end
within ``--seconds`` (at least one round runs).  Every round repeats the
same argv lists; the first round's outputs are checked by the oracle and
later rounds must print exactly the same.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
from time import perf_counter

import oracle
import workloads


def call(cli, argv):
    """One CLI invocation: (exit code, stdout, stderr, uncaught exception)."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception as e:  # the real CLI would die with a traceback here
            rc, exc = None, "%s: %s" % (type(e).__name__, e)
    return rc, out.getvalue(), err.getvalue(), exc


def run_rounds(cli, queries, seconds, tracer):
    first, latencies, round_times = [], [], []
    changed = 0
    start = perf_counter()
    while True:
        r0 = perf_counter()
        for i, q in enumerate(queries):
            if tracer is not None:
                tracer.op = "r%dq%d" % (len(round_times), i)
            t0 = perf_counter()
            res = call(cli, q.argv)
            latencies.append(perf_counter() - t0)
            if not round_times:
                first.append(res)
            elif res != first[i]:
                changed += 1
        now = perf_counter()
        round_times.append(now - r0)
        # Stop before a round that would end past the deadline: a run
        # outlasts ``seconds`` only when a single round does.
        if now - start + round_times[-1] > seconds:
            return first, latencies, round_times, changed


def latency_by_label(queries, latencies):
    """Median latency per kind of query, over every round."""
    by = {}
    for i, dt in enumerate(latencies):
        by.setdefault(queries[i % len(queries)].label, []).append(dt)
    return {k: round(1000 * statistics.median(v), 3) for k, v in sorted(by.items())}


def judge_verify(q, res):
    """(ops per round, failed per round, problems) for a verify workload,
    whose operations are the (check, theory, space) cells."""
    rc, out, _err, exc = res
    ops = len(q.cells)
    try:
        rows = json.loads(out) if exc is None else None
    except json.JSONDecodeError:
        rows = None
    if not isinstance(rows, list):
        return ops, ops, ["verify printed no report (%s)" % (exc or "rc %r" % rc)]
    problems = []
    if [(r.get("check"), r.get("theory"), r.get("space")) for r in rows] != list(q.cells):
        problems.append("report rows are not one per (check, theory, space) cell")
    failed = sum(1 for r in rows if r.get("status") != "pass")
    if rc != (0 if failed == 0 else 1):
        problems.append("exit code %r does not match %d failed cells" % (rc, failed))
    return ops, failed, problems


def judge_mix(queries, results, checker):
    """(ops per round, failed per round, failures by name, problems)."""
    failed, by_name, problems = 0, {}, []
    for q, (rc, out, err, exc) in zip(queries, results):
        if exc is not None or rc != q.expect_rc:
            failed += 1
            name = q.fault or "unexpected-%s" % q.op
            by_name[name] = by_name.get(name, 0) + 1
            if not q.fault:
                problems.append("%s exited %r (%s): %s" % (q.op, rc, exc, " ".join(q.argv)[:200]))
            continue
        if q.op == "malformed":
            if out or not err.strip():
                problems.append("malformed input printed a result: %s" % " ".join(q.argv)[:200])
        elif q.op != "fault":
            reason = checker.check(q, out)
            if reason:
                problems.append("%s: %s: %s" % (q.op, reason, " ".join(q.argv)[:200]))
    return len(queries), failed, by_name, problems


def self_test(queries, results, checker):
    """Flip one coefficient of one output per query kind; the oracle must
    reject every flipped output."""
    tried, problems = set(), []
    for q, (rc, out, _err, exc) in zip(queries, results):
        if q.op in tried or q.op in ("malformed", "fault") or exc is not None or rc != q.expect_rc:
            continue
        flipped = oracle.flip_one_sign(out, q)
        if flipped is None:
            continue
        tried.add(q.op)
        if checker.check(q, flipped) is None:
            problems.append("oracle accepted a flipped %s output" % q.op)
    if not tried:
        problems.append("oracle self-test found no output to flip")
    return problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    from orient_duality import cli

    queries = workloads.round_queries(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    first, latencies, round_times, changed = run_rounds(cli, queries, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds = len(round_times)

    checker = oracle.Oracle(args.seed)
    problems = []
    if changed:
        problems.append("%d outputs changed between rounds" % changed)
    if args.workload == "cli-query-mix":
        ops, failed, by_name, found = judge_mix(queries, first, checker)
    else:
        ops, failed, found = judge_verify(queries[0], first[0])
        by_name = {"failed-cell": failed} if failed else {}
    problems += found + self_test(queries, first, checker)

    summary = {
        "rounds": rounds,
        "attempted": ops * rounds,
        "failed": failed * rounds,
        "failed_by_name": {k: v * rounds for k, v in sorted(by_name.items())},
        "problems": problems,
        "round_times": round_times,
        "latencies": latencies,
        "peak_rss_mb": peak_rss_mb,
        "latency_by_label_ms": latency_by_label(queries, latencies),
        "inputs_digest": hashlib.sha256(json.dumps([q.argv for q in queries]).encode()).hexdigest(),
        "outputs_digest": hashlib.sha256(json.dumps([r[:2] for r in first]).encode()).hexdigest(),
    }
    if tracer is not None:
        summary["layers"] = tracer.layer_metrics(rounds)
        if args.spans:
            tracer.write_spans(args.spans)
    sys.stdout.write(json.dumps(summary) + "\n")


if __name__ == "__main__":
    main()
