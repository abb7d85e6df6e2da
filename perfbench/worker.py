"""One workload process: set-up, then the timed (or traced) phase.

Started by run.py with BLAS pinned and ``src`` on PYTHONPATH in its
environment. It prints ``READY`` once set-up is done (run.py times set-up up
to that line), and in full mode ends with one JSON line of raw results for
run.py to turn into metrics.

    PYTHONPATH=src python3 perfbench/worker.py --workload tall3v --seed 1 \
        --seconds 20 --trace 0 --work-dir perfbench/work [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

from reference import CheckFailed
from tracer import Tracer
from workloads import WORKLOADS


def run_op(wl, op):
    """(seconds, score or None); None when the operation raised or failed a check."""
    t0 = time.perf_counter()
    try:
        out = wl.run(op)
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - t0, None
    dt = time.perf_counter() - t0
    try:
        return dt, wl.check(op, out)
    except CheckFailed as exc:
        print(f"{wl.name}: check failed: {exc}", file=sys.stderr)
        return dt, None


def timed_rounds(wl, seconds, run=run_op):
    """Whole rounds of the operation list until ``seconds`` have passed.

    Returns (elapsed, per-operation records); a record is (round, time, score).
    """
    records = []
    start = time.perf_counter()
    rnd = 0
    while True:
        for op in wl.ops:
            dt, score = run(wl, op)
            records.append((rnd, dt, score))
        rnd += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed, records


def traced_phase(wl, seconds, trace_path):
    """One untraced round, then traced rounds; per-layer metrics and checks."""
    _, plain = timed_rounds(wl, 0.0)
    tracer = Tracer()
    roots = []

    def traced(wl, op):
        with tracer.operation(len(roots), wl.root) as idx:
            _, score = run_op(wl, op)
        roots.append(idx)
        start, end = tracer.spans[idx][1:3]
        return (end - start) / 1e9, score

    tracer.install()
    try:
        _, records = timed_rounds(wl, seconds, traced)
    finally:
        tracer.uninstall()
    tracer.dump(trace_path)
    for name in tracer.absent:
        print(f"trace: hook target {name} is absent; its metrics read 0", file=sys.stderr)

    # Self times of an operation's spans must add up to its root span.
    selfs = tracer.self_times()
    per_op = [0] * len(roots)
    for span, s in zip(tracer.spans, selfs):
        per_op[span[4]] += s
    partition_ok = all(per_op[k] == tracer.spans[idx][2] - tracer.spans[idx][1]
                       for k, idx in enumerate(roots))
    if not partition_ok:
        print("trace: layer self times do not add up to the operation time", file=sys.stderr)

    metrics = tracer.metrics(len(records))
    first = [dt for rnd, dt, _ in records if rnd == 0]
    metrics["trace.overhead_pct"] = 100.0 * (sum(first) / sum(dt for _, dt, _ in plain) - 1.0)
    return records + plain, metrics, partition_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, os.path.join(args.work_dir, "inputs"))
    _, warm_score = run_op(wl, wl.warmup)
    print("READY", flush=True)
    if args.setup_only:
        return 0 if warm_score is not None else 3

    if args.trace:
        trace_path = os.path.join(args.work_dir, f"trace-{wl.name}-seed{args.seed}.json")
        records, layer_metrics, run_ok = traced_phase(wl, args.seconds, trace_path)
        elapsed = None
    else:
        elapsed, records = timed_rounds(wl, args.seconds)
        layer_metrics, run_ok = None, True
    done = [dt for _, dt, score in records if score is not None]
    first_round = [score for rnd, _, score in records if rnd == 0]
    print(json.dumps({
        "correct": run_ok and warm_score is not None and len(done) == len(records),
        "attempted": len(records),
        "failed": len(records) - len(done),
        "elapsed_s": elapsed,
        "ops_done": len(done),
        "op_p50_s": statistics.median(done) if done else None,
        "f_x10": (sum(first_round) / len(first_round)
                  if None not in first_round else None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layer_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
