"""ppdecomp benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload table1_grid|wide_cli|tall3v \
        --seed N --seconds S --trace 0|1

The workload runs in a fresh worker process with BLAS pinned to one thread
through the environment, importing ppdecomp from ``src/`` of the current
directory. Set-up (interpreter start, imports, inputs, CSV writing and one
untimed warm-up operation) is repeated in SETUP_RUNS fresh processes and
``setup_s`` is their median; the last of them goes on to the timed phase.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer metrics of a traced run with ``--trace 1``.
Generated inputs, outputs and traces go to ``perfbench/work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 3
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("table1_grid", "wide_cli", "tall3v")
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB",
         "f_x10": "F_x10"}


def layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_gflop"):
        return "GFLOP"
    if name.endswith("_pct"):
        return "%"
    return "count"


def start_worker(args, work_dir, env, setup_only):
    """Start one worker; return (set-up seconds, its other stdout lines, exit code)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    setup = None
    lines = []
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env) as proc:
        for line in proc.stdout:
            if setup is None and line.strip() == "READY":
                setup = time.perf_counter() - t0
            else:
                lines.append(line)
        code = proc.wait()
    return setup, lines, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "ppdecomp", "__init__.py")):
        print("error: run from the repository root; src/ppdecomp not found", file=sys.stderr)
        return 2
    work_dir = os.path.join(HERE, "work")
    os.makedirs(work_dir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0",
               **{name: BLAS_THREADS for name in BLAS_ENV})

    setups = []
    warm_ok = True
    for k in range(1 if args.trace else SETUP_RUNS):
        last = k == (0 if args.trace else SETUP_RUNS - 1)
        setup, lines, code = start_worker(args, work_dir, env, setup_only=not last)
        if last:
            sys.stdout.writelines(lines[:-1])
        if setup is None or code not in (0, 3) or (last and (code or not lines)):
            print(f"error: {args.workload} worker failed (exit {code})", file=sys.stderr)
            return 1
        warm_ok = warm_ok and code == 0
        setups.append(setup)
    raw = json.loads(lines[-1])

    if args.trace:
        metrics = {name: {"value": value, "unit": layer_units(name)}
                   for name, value in raw["layers"].items()}
    else:
        values = {"setup_s": statistics.median(setups),
                  "ops_per_s": raw["ops_done"] / raw["elapsed_s"],
                  "op_p50_s": raw["op_p50_s"],
                  "peak_rss_mb": raw["peak_rss_mb"],
                  "f_x10": raw["f_x10"]}
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    correct = raw["correct"] and warm_ok and all(
        m["value"] is not None for m in metrics.values())
    print(f"blas_threads={BLAS_THREADS} nproc={os.cpu_count()} setups_s={setups}",
          file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
