"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a ferrospin checkout.  Checks that one seed gives
byte-identical inputs and op lists, that corrupted replies count as failed,
that an op which raises does not stop a run, that the reference loop
counts every walk, that mid region centres are chosen by the walk count
the library reports and the capped centre reaches the library's cap, that
tracing wraps and restores every binding, and that BENCHMARK.json names
exactly the metrics the benchmark reports.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import ferrospin  # noqa: E402
import layers  # noqa: E402
import ops  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SCRATCH = os.path.join(run.SCRATCH, "selftest")


def _files(directory: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_one_seed_gives_identical_inputs():
    for name in workloads.WORKLOADS:
        a, b = os.path.join(SCRATCH, "a"), os.path.join(SCRATCH, "b")
        ops_a = workloads.generate(name, 7, a)
        ops_b = workloads.generate(name, 7, b)
        assert json.dumps(ops_a) == json.dumps(ops_b), name
        assert _files(a) == _files(b), name
        assert len(ops_a) >= 11, name
        other = os.path.join(SCRATCH, "c")
        workloads.generate(name, 8, other)
        assert _files(a) != _files(other), name
        for d in (a, b, other):
            shutil.rmtree(d)


def test_corrupted_replies_fail():
    good = {"p0": 0.25, "p1": 0.75, "discrepancy": 0.0}
    assert ops.check_saw(0, json.dumps(good)).ok
    bad = ops.check_saw(0, json.dumps(dict(good, discrepancy=0.5)))
    assert not bad.ok and bad.wrong
    assert not ops.check_saw(1, "").ok

    record = {"verification": {"ok": True, "partial": False,
                               "nodes_visited": 10}}
    assert ops.check_region(0, json.dumps(record)).ok
    record["verification"]["partial"] = True
    partial = ops.check_region(0, json.dumps(record))
    assert not partial.ok and not partial.wrong
    record["verification"].update(partial=False, ok=False)
    assert not ops.check_region(3, json.dumps(record)).ok

    csv = "# seed=1\nstep,hamming_weight,coupled_flag\n1,3,0\n2,4,1\n"
    assert ops.check_sample(0, csv, 2).ok
    short = ops.check_sample(0, csv, 3)
    assert not short.ok and short.wrong


def test_mid_region_walk_counts_match_the_library():
    """Mid centres are chosen by `workloads.verify_walk`; it must count the
    nodes `verify_region` visits."""
    workdir = os.path.join(SCRATCH, "mid")
    mid = [op for op in workloads.generate("region-sweeps", 7, workdir)
           if op["stratum"] == "mid"]
    assert len(mid) == workloads.REGION_MID[0]
    for op in mid[::6]:
        outcome = ops.run_op(op, workdir)
        assert outcome.ok and outcome.value == op["nodes"], op
    shutil.rmtree(workdir)


def test_capped_region_centre_reaches_the_cap():
    workdir = os.path.join(SCRATCH, "capped")
    capped = [op for op in workloads.generate("region-sweeps", 7, workdir)
              if op["stratum"] == "capped"]
    assert len(capped) == workloads.REGION_CAPPED[0]
    outcome = ops.run_op(capped[0], workdir)
    assert not outcome.ok and not outcome.wrong
    assert outcome.value > ferrospin.constants.REGION_NODE_CAP
    shutil.rmtree(workdir)


def test_an_op_that_raises_is_counted_not_fatal():
    outcome = ops.run_op({"kind": "mix-exact", "file": "missing.json"},
                         SCRATCH)
    assert not outcome.ok and outcome.wrong
    outcome = ops.run_op({"kind": "saw", "format": "instance",
                          "file": "missing.json", "center": 0, "pin": ""},
                         SCRATCH)
    assert not outcome.ok


def test_reference_loop_counts_every_walk():
    assert reference.walk_count() == reference.NODES
    assert reference.timed() > 0.0


def test_tail_index():
    assert worker.tail_index(11) == 0
    assert worker.tail_index(44) == 33
    try:
        worker.tail_index(10)
    except ValueError:
        pass
    else:
        raise AssertionError("a tail needs at least 11 ops")


def test_tracer_wraps_every_binding_and_restores():
    original = ferrospin.cli.verify_region
    saved = tracing.TRACED
    tracing.TRACED = saved + (("regions", "no_such_function"),)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert ferrospin.cli.verify_region is not original
        assert ferrospin.regions.verify_region is ferrospin.cli.verify_region
        assert ferrospin.verify_region is ferrospin.cli.verify_region
        assert tracer.absent == ["regions.no_such_function"]
        mu = ferrospin.gibbs_distribution(
            ferrospin.instance_family("path", 4, 1.0, 2.0, 1.0))
        assert abs(mu.probs.sum() - 1.0) < 1e-12
    finally:
        tracer.uninstall()
        tracing.TRACED = saved
    assert ferrospin.cli.verify_region is original
    assert [s[0] for s in tracer.spans] == ["exact.gibbs_distribution"]


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == layers.metric_units())


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        for name, fn in tests:
            fn()
            print(f"ok   {name}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
