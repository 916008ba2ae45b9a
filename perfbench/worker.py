"""Benchmark child process: set up, run whole passes, report one JSON line.

Started by run.py with the BLAS thread count fixed in its environment.
Set-up (timed as `setup_s`) is the ferrospin import from the checkout's
`src/`, writing the seeded input files, and a BLAS warm-up.  With
`--setup-only` the child stops there.

A pass runs every op of the workload once, in a closed loop (one client,
the next op starts when the previous one returns), in an order fixed by
the pass number, with the reference loop (`reference.py`) run before the
first op and after each op.  Passes repeat while one more pass is expected
to end nearer to `--seconds` than stopping now (there is always at least
one), so a run measures `--seconds` give or take half a pass.  Every op of
a pass is identical to the same op of the previous pass, so every count
repeats exactly per pass.

An op's latency in a pass is its time over the median reference time
around it: the three reference times before it, those taken while it ran
(every 0.05 s) and the three after it (unit `ref`).  Its latency in the run
is the mean of the faster half of its passes.  The machine's speed changes
by up to 1.5x for seconds to minutes at a time (other work on a shared
host), nearly the same for the op and the loop around it, so the ratio
stays put where the seconds do not; what is left of that noise slows the
op more often than the loop, hence the faster half.  The end-to-end timings all derive from these per-op latencies:
`ops_per_kref` is ops per pass over their sum, per 1000 reference loops.

With `--trace 1` the first pass runs untraced, as the baseline for the
tracing overhead, and the following passes run traced.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

import reference

# reference times taken on each side of an op (one between every two ops)
REF_WINDOW = 3


def _args() -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args()


def _import_ferrospin() -> None:
    """Import ferrospin from the checkout, never from an installed copy."""
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import ferrospin

    if not os.path.abspath(ferrospin.__file__).startswith(src + os.sep):
        raise SystemExit(f"ferrospin was imported from {ferrospin.__file__}, "
                         f"not from {src}")


def _warm_blas() -> None:
    import numpy as np

    a = np.full((256, 256), 1.0 / 256)
    for _ in range(4):
        a = a @ a
    np.linalg.eigvalsh(a + a.T)


def tail_index(count: int) -> int:
    """Index (in ascending order) of the highest percentile with at least
    ten values beyond it."""
    if count < 11:
        raise ValueError(f"a tail needs at least 11 ops, got {count}")
    return count - 11


def faster_half_mean(values: list[float]) -> float:
    """Mean of the smaller half of `values` (at least one value)."""
    return statistics.mean(sorted(values)[:max(1, len(values) // 2)])


def _pass(ops, workdir, run_op, number, tracer=None):
    """Run pass `number`; returns (latencies, ratios, outcomes, references,
    seconds), the first three indexed like `ops`.  Each pass visits the ops
    in its own fixed shuffled order, so an op's samples fall at different
    times of the run.  An op's ratio is its latency over the median of the
    REF_WINDOW reference times before it, those while it ran and the
    REF_WINDOW after it.  Traced passes sample no reference inside an op,
    which would count towards the traced function's own time."""
    order = list(range(len(ops)))
    random.Random(number).shuffle(order)
    latencies, ratios = [0.0] * len(ops), [0.0] * len(ops)
    outcomes = [None] * len(ops)
    inside = [[] for _ in ops]
    sampler = reference.Sampler() if tracer is None else None
    start = time.perf_counter()
    references = [reference.timed()]
    for i in order:
        if tracer is not None:
            tracer.op_id = ops[i]["id"]
        spent = 0.0
        t0 = time.perf_counter()
        if sampler is not None:
            sampler.start()
        outcomes[i] = run_op(ops[i], workdir)
        if sampler is not None:
            sampler.stop()
            inside[i], spent = sampler.samples, sampler.spent
        latencies[i] = time.perf_counter() - t0 - spent
        references.append(reference.timed())
    for j, i in enumerate(order):
        around = references[max(0, j + 1 - REF_WINDOW):j + 1 + REF_WINDOW]
        ratios[i] = latencies[i] / statistics.median(around + inside[i])
    return (latencies, ratios, outcomes, references,
            time.perf_counter() - start)


def main() -> int:
    args = _args()
    t0 = time.perf_counter()
    _import_ferrospin()
    import ops as ops_mod
    import workloads

    ops = workloads.generate(args.workload, args.seed, args.workdir)
    _warm_blas()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        base_lat, _, base_out, _, _ = _pass(ops, args.workdir,
                                            ops_mod.run_op, -1)
        tracer = tracing.Tracer()
        tracer.install()
    latencies, ratios, outcomes, references, pass_seconds = [], [], [], [], []
    start = time.perf_counter()
    while not pass_seconds or (time.perf_counter() - start + statistics.mean(
            pass_seconds) / 2 <= args.seconds):
        lat, rat, out, refs, secs = _pass(ops, args.workdir, ops_mod.run_op,
                                          len(pass_seconds), tracer)
        latencies.append(lat)
        ratios.append(rat)
        outcomes.append(out)
        references += refs
        pass_seconds.append(secs)
    if tracer is not None:
        tracer.uninstall()
        latencies.insert(0, base_lat)
        outcomes.insert(0, base_out)

    attempted = sum(len(out) for out in outcomes)
    failed = sum(1 for out in outcomes for o in out if not o.ok)
    wrong = [(op["id"], o.detail) for out in outcomes
             for op, o in zip(ops, out) if o.wrong]
    # every pass must reproduce the first pass's deterministic results
    unstable = [op["id"] for i, op in enumerate(ops)
                if len({repr(out[i].value) for out in outcomes}) > 1]
    for op_id, detail in wrong[:5]:
        print(f"op {op_id} wrong: {detail.strip()}", file=sys.stderr)
    if unstable:
        print(f"ops {unstable} gave different results across passes",
              file=sys.stderr)

    per_op = [faster_half_mean([rat[i] for rat in ratios])
              for i in range(len(ops))]
    order = sorted(per_op)
    kinds: dict[str, float] = {}
    for op, t in zip(ops, per_op):
        key = f"{op['kind']}:{op['stratum']}"
        kinds[key] = kinds.get(key, 0.0) + t
    result = {
        "setup_s": setup_s,
        "correct": not wrong and not unstable,
        "attempted": attempted,
        "failed": failed,
        "ops_per_pass": len(ops),
        "passes": len(pass_seconds),
        "pass_seconds": pass_seconds,
        "ops_per_kref": 1000.0 * len(ops) / sum(per_op),
        "op_p50_ref": statistics.median(per_op),
        "op_tail_ref": order[tail_index(len(order))],
        "reference_ms": 1000.0 * statistics.median(references),
        "tail_percentile": 100.0 * (tail_index(len(order)) + 1) / len(order),
        "kind_share": {k: v / sum(per_op) for k, v in sorted(kinds.items())},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        import layers

        result["layers"] = layers.per_layer(
            tracer, ops, outcomes[1:], latencies[1:],
            untraced_ops_per_s=len(ops) / sum(base_lat))
        result["absent"] = tracer.absent
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
