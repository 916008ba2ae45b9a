"""ferrospin benchmark.

    python3 perfbench/run.py --workload walk-marginals --seed 1 --seconds 20 --trace 0

Run from the root of a ferrospin checkout; the library is imported from its
`src/`.  Workloads: walk-marginals, region-sweeps, mixing-tour, or `all`
(each in turn).  The workload's inputs are made from `--seed` in a fresh
child process whose OpenBLAS/OpenMP thread count is fixed at BLAS_THREADS;
that child then drives ferrospin in a closed loop for `--seconds` and
checks every op's output.  Op timings are given in `ref`, the time of the
reference loop (reference.py) run between the ops.  Set-up runs SETUP_REPEATS times in fresh
children and `setup_s` is their median.

Prints every metric by name with its unit, then, as its last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}.  `--trace 0` reports
the end-to-end metrics; `--trace 1` reports the per-layer metrics and writes
the spans to .bench_build/perfbench/spans-<workload>-s<seed>.jsonl.
Scratch files live under .bench_build/perfbench/ and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("walk-marginals", "region-sweeps", "mixing-tour")
BLAS_THREADS = 2
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0
SCRATCH = os.path.join(".bench_build", "perfbench")

END_TO_END = {  # name -> unit
    "ops_per_kref": "1/kref",
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_share": "ratio",
}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion (killed at the deadline); return the
    JSON object on its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("time limit reached before a child could start")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")] + args,
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        env=_child_env(), timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 deadline: float) -> dict:
    base = os.path.join(SCRATCH, f"{workload}-s{seed}-{os.getpid()}")
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds), "--trace", str(int(trace))]
    spans = os.path.join(SCRATCH, f"spans-{workload}-s{seed}.jsonl")
    try:
        setups = [_child(common + ["--workdir", os.path.join(base, f"setup{k}"),
                                   "--setup-only"], deadline)["setup_s"]
                  for k in range(SETUP_REPEATS - 1)]
        result = _child(common + ["--workdir", os.path.join(base, "run"),
                                  "--spans", spans], deadline)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    setups.append(result["setup_s"])
    result["setup_s"] = statistics.median(setups)
    result["pass_share"] = 1.0 - result["failed"] / result["attempted"]
    if trace:
        result["spans"] = spans
    return result


def report(workload: str, seed: int, trace: bool, result: dict) -> dict:
    """Print the metric table; return the result object."""
    print(f"{workload} seed={seed}: {result['passes']} passes of "
          f"{result['ops_per_pass']} ops ("
          + ", ".join(f"{s:.2f}" for s in result["pass_seconds"])
          + f" s), {result['failed']} of "
          f"{result['attempted']} ops failed, correct={result['correct']}")
    if trace:
        import layers

        units = layers.metric_units()
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in result["layers"].items()}
        for name in result["absent"]:
            print(f"  absent: {name}")
        print(f"  spans written to {result['spans']}")
    else:
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        print(f"  op_tail_ref is the p{result['tail_percentile']:.1f} of "
              f"{result['ops_per_pass']} per-op latencies (10 ops beyond it); "
              f"one ref (reference loop) took {result['reference_ms']:.3f} ms "
              f"in the median")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print("  time share by op kind: " + ", ".join(
        f"{k} {100 * v:.1f}%" for k, v in result["kind_share"].items()))
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join("src", "ferrospin", "__init__.py")):
        print("error: run from the root of a ferrospin checkout "
              "(src/ferrospin/ not found)", file=sys.stderr)
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(report(name, args.seed, bool(args.trace), result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
