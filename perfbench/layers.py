"""Per-layer metrics of a traced run, each given per pass.

Counts (calls, tree nodes, verification nodes, partial verdicts, kernel
sizes, mixing steps, coupled steps) repeat exactly from run to run; times
do not.  A function the library no longer defines reads 0 and is listed
as absent by the run.
"""

from __future__ import annotations

from tracing import LAYERS
from workloads import SCHEDULES

CALLS_AND_SELF = (
    "sawtree.build_saw_tree", "sawtree.evaluate_ratios",
    "exact.conditional_marginal", "regions.construct_region",
    "regions.verify_region", "exact.spectral_report",
    "exact.exact_mixing_time", "samplers.monotone_coupled_step",
    "samplers.coupling_time", "samplers.field_dynamics_step", "model.tilt",
)
SELF_ONLY = (
    "cli.main", "model.load_instance", "model.instance_hash",
    "sawtree.pin_saw_tree", "sawtree.prune_pinned_leaves",
    "exact.gibbs_distribution", "exact.glauber_matrix",
    "exact.alternating_scan_matrix", "harness.coupling_mixing_estimate",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "sawtree.tree_nodes": "count", "sawtree.nodes_per_s": "1/s",
        "regions.verify_nodes": "count", "regions.verify_nodes_per_s": "1/s",
        "regions.verify_partial": "count",
        "regions.verify_complete_ratio": "ratio",
        "exact.kernel_states": "count", "exact.kernel_bytes": "bytes",
        "exact.mixing_steps": "count", "samplers.coupled_steps": "count",
    })
    for schedule in SCHEDULES:
        units[f"samplers.steps_per_s.{schedule}"] = "1/s"
    for layer in LAYERS + ("outside",):
        units[f"layer.{layer}.self_share"] = "ratio"
    units.update({"trace.ops_per_s": "1/s", "trace.untraced_ops_per_s": "1/s",
                  "trace.overhead_ratio": "ratio", "bench.fail_share": "ratio"})
    return units


def per_layer(tracer, ops, outcomes, latencies,
              untraced_ops_per_s: float) -> dict[str, float]:
    """`latencies` holds one list of op seconds per traced pass; shares and
    rates are of the time spent in ops (the reference loops between them
    are left out)."""
    passes = len(latencies)
    traced_s = sum(sum(lat) for lat in latencies)
    times = tracer.self_times()
    res = tracer.results

    def total(name):
        return times.get(name, [0, 0.0, 0.0])[1]

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m: dict[str, float] = {}
    for name in SELF_ONLY + CALLS_AND_SELF:
        row = times.get(name, [0, 0.0, 0.0])
        m[f"{name}.calls"] = row[0] / passes
        m[f"{name}.self_s"] = row[2] / passes
    nodes = sum(res.get("sawtree.build_saw_tree", []))
    m["sawtree.tree_nodes"] = nodes / passes
    m["sawtree.nodes_per_s"] = rate(nodes, total("sawtree.build_saw_tree"))
    vers = res.get("regions.verify_region", [])
    vnodes = sum(v[0] for v in vers)
    partial = sum(1 for v in vers if v[1])
    m["regions.verify_nodes"] = vnodes / passes
    m["regions.verify_nodes_per_s"] = rate(vnodes, total("regions.verify_region"))
    m["regions.verify_partial"] = partial / passes
    m["regions.verify_complete_ratio"] = (
        (len(vers) - partial) / len(vers) if vers else 0.0)
    kernels = (res.get("exact.glauber_matrix", [])
               + res.get("exact.alternating_scan_matrix", []))
    m["exact.kernel_states"] = sum(2 ** n for n in kernels) / passes
    m["exact.kernel_bytes"] = sum(8 * 4 ** n for n in kernels) / passes
    m["exact.mixing_steps"] = sum(res.get("exact.exact_mixing_time", [])) / passes
    m["samplers.coupled_steps"] = sum(res.get("samplers.coupling_time", [])) / passes
    for schedule in SCHEDULES:
        steps = seconds = 0.0
        for i, op in enumerate(ops):
            if op["kind"] == "sample" and op["schedule"] == schedule:
                steps += op["steps"] * passes
                seconds += sum(lat[i] for lat in latencies)
        m[f"samplers.steps_per_s.{schedule}"] = rate(steps, seconds)
    share = {layer: 0.0 for layer in LAYERS}
    for name, row in times.items():
        share[name.split(".")[0]] += row[2] / traced_s
    for layer in LAYERS:
        m[f"layer.{layer}.self_share"] = share[layer]
    m["layer.outside.self_share"] = 1.0 - sum(share.values())
    m["trace.ops_per_s"] = len(ops) * passes / traced_s
    m["trace.untraced_ops_per_s"] = untraced_ops_per_s
    m["trace.overhead_ratio"] = untraced_ops_per_s / m["trace.ops_per_s"]
    attempted = sum(len(out) for out in outcomes)
    m["bench.fail_share"] = sum(
        1 for out in outcomes for o in out if not o.ok) / attempted
    units = metric_units()
    return {name: m[name] for name in units}
