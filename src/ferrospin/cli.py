"""Command-line front end.

Subcommands: sample (chain trajectories), exact (enumeration summaries),
saw (walk-tree marginals), region (neighbourhood construction), verify
(named verification suites), sweep (influence/decay regime sweeps).

Exit codes: 0 success, 1 input error, 2 capacity error, 3 at least one
verification row failed (the report is still written).  All randomness flows
from --seed, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import constants
from .errors import (
    CapacityError,
    FerrospinError,
    InputError,
    NonconvergenceError,
)
from .exact import _gibbs_and_marginals, conditional_marginal
from .harness import (
    ExperimentConfig,
    MixingReport,
    decay_probe,
    emit_report,
    influence_regime_sweep,
    report_csv_text,
    run_suite,
    SUITE_NAMES,
)
from .model import (
    ParamClass,
    Pinning,
    TwoSpinSystem,
    config_to_index,
    instance_hash,
    lambda_c,
    load_instance,
    load_rbm,
    rbm_to_two_spin,
)
from .regions import RegionParams, construct_region, verify_region
from .samplers import UpdateSchedule, trajectory_csv
from .sawtree import saw_marginal

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAPACITY = 2
EXIT_VERIFY = 3

SCHEDULE_NAMES = ("glauber", "heat-bath", "systematic-scan",
                  "alternating-scan", "field")
# flags a subcommand cannot run without; argparse does not enforce them,
# because a config file may supply them and is applied after the first parse
_REQUIRED_FLAGS = {"saw": ("--center",), "region": ("--center",),
                  "verify": ("--suite",)}


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so the exit-code contract
    stays ours."""

    def error(self, message):
        raise InputError(message)


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        path = Path(out)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        except OSError as exc:
            raise InputError(f"cannot write output file {out}: {exc}") from exc


def _load_system(args) -> TwoSpinSystem:
    if args.instance and args.rbm:
        raise InputError("give either --instance or --rbm, not both")
    if args.rbm:
        return rbm_to_two_spin(load_rbm(args.rbm))
    if args.instance:
        return load_instance(args.instance)
    raise InputError("an --instance or --rbm file is required")


def _depth_parity_parts(system: TwoSpinSystem) -> tuple[tuple[int, ...],
                                                        tuple[int, ...]]:
    """BFS two-coloring; on a non-bipartite graph the first color assigned
    wins and the samplers reject the parts with their own message."""
    color: dict[int, int] = {}
    for root in range(system.n):
        if root in color:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            u = queue.pop(0)
            for w, _ in system.adjacency[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    queue.append(w)
    even = tuple(v for v in range(system.n) if color[v] == 0)
    odd = tuple(v for v in range(system.n) if color[v] == 1)
    return even, odd


def _parse_vertex_list(text: str, what: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise InputError(f"{what} must be a comma-separated vertex list, "
                         f"got {text!r}")


def _schedule_from_args(system: TwoSpinSystem, args) -> UpdateSchedule:
    name = args.schedule
    censor = None
    if getattr(args, "censor", None):
        censor = frozenset(_parse_vertex_list(args.censor, "--censor"))
    singletons = tuple((v,) for v in range(system.n))
    if name == "glauber":
        return UpdateSchedule(kind="single-site-glauber", censor=censor)
    if name == "heat-bath":
        return UpdateSchedule(kind="heat-bath-block", blocks=singletons,
                              censor=censor)
    if name == "systematic-scan":
        return UpdateSchedule(kind="systematic-scan-block", blocks=singletons,
                              censor=censor)
    if name == "alternating-scan":
        return UpdateSchedule(kind="alternating-scan",
                              blocks=_depth_parity_parts(system),
                              censor=censor)
    if name == "field":
        return UpdateSchedule(kind="field-dynamics", theta=args.theta,
                              censor=censor)
    raise InputError(f"unknown schedule {name!r}; choose from "
                     f"{', '.join(SCHEDULE_NAMES)}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_sample(args) -> int:
    system = _load_system(args)
    schedule = _schedule_from_args(system, args)
    if args.steps < 1:
        raise InputError("--steps must be positive")
    text = trajectory_csv(system, schedule, args.steps, args.seed)
    _write_out(text, args.out)
    return EXIT_OK


def cmd_exact(args) -> int:
    system = _load_system(args)
    mu, marginals = _gibbs_and_marginals(system)
    payload = {
        "instance": instance_hash(system),
        "n": system.n,
        "log_partition": mu.log_z,
        "marginal_p1": marginals,
        "all_ones_mass": float(mu.probs[config_to_index([1] * system.n)]),
    }
    _write_out(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_saw(args) -> int:
    system = _load_system(args)
    pin = Pinning()
    if args.pin:
        assignments = {}
        for tok in args.pin.split(","):
            parts = tok.split(":")
            if len(parts) != 2:
                raise InputError(f"--pin entries look like v:s, got {tok!r}")
            try:
                v, s = int(parts[0]), int(parts[1])
            except ValueError:
                raise InputError(f"--pin entries look like v:s, got {tok!r}")
            if v in assignments:
                raise InputError(f"--pin names vertex {v} more than once")
            assignments[v] = s
        pin = Pinning(assignments)
    p0, p1, tree_nodes = saw_marginal(system, args.center, pin)
    payload = {
        "instance": instance_hash(system),
        "center": args.center,
        "p0": p0,
        "p1": p1,
        "tree_nodes": tree_nodes,
    }
    if system.n <= constants.VECTOR_LIMIT:
        _, exact_p1 = conditional_marginal(system, pin, args.center)
        payload["enumeration_p1"] = exact_p1
        payload["discrepancy"] = abs(p1 - exact_p1)
    _write_out(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def _region_record(system: TwoSpinSystem, center: int,
                   params: RegionParams) -> dict:
    region = construct_region(system, center, params)
    ver = verify_region(system, region, params)
    return {
        "region": {
            "center": region.center,
            "members": sorted(region.members),
            "boundary": sorted(region.boundary),
            "d1": region.d1,
            "d2": region.d2,
        },
        "verification": {
            "ok": bool(ver),
            "size_ok": ver.size_ok,
            "boundary_ok": ver.boundary_ok,
            "partial": ver.partial,
            "nodes_visited": ver.nodes_visited,
            "leaves_checked": ver.leaves_checked,
        },
    }


def cmd_region(args) -> int:
    system = _load_system(args)
    if (args.d1 is None) != (args.d2 is None):
        raise InputError("give both --d1 and --d2, or neither")
    if args.d1 is None:
        params = RegionParams.from_n(system.n)
    else:
        params = RegionParams(d1=args.d1, d2=args.d2)
    if args.center == "all":
        centers = list(range(system.n))
    else:
        try:
            centers = [int(args.center)]
        except ValueError:
            raise InputError(f"--center must be a vertex or 'all', "
                             f"got {args.center!r}")
    records = [_region_record(system, c, params) for c in centers]
    text = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)
    _write_out(text, args.out)
    all_ok = all(rec["verification"]["ok"] for rec in records)
    return EXIT_OK if all_ok else EXIT_VERIFY


def _write_report(report: MixingReport, out: str | None) -> int:
    """CSV to stdout, or the CSV + JSON pair at `out`; exit 3 if a row
    failed."""
    if out is None:
        sys.stdout.write(report_csv_text(report))
    else:
        emit_report(report, out)
    return EXIT_OK if report.all_passed else EXIT_VERIFY


def cmd_verify(args) -> int:
    config = ExperimentConfig(seed=args.seed, eps=args.eps,
                              trials=args.trials, max_n=args.max_n)
    return _write_report(run_suite(args.suite, config), args.out)


def cmd_sweep(args) -> int:
    try:
        sizes = tuple(int(tok) for tok in args.sizes.split(","))
        factors = tuple(float(tok) for tok in args.lambda_facs.split(","))
    except ValueError:
        raise InputError("--sizes and --lambda-facs are comma-separated "
                         "numbers")
    rows = list(influence_regime_sweep(args.family, sizes, args.beta,
                                       args.gamma, factors))
    lam = factors[0] * lambda_c(ParamClass(beta=args.beta, gamma=args.gamma,
                                           lambda_bound=1.0))
    probe = decay_probe(args.beta, args.gamma, lam,
                        lengths=range(2, args.max_length + 1))
    rows.extend(probe.rows)
    # the sweep draws nothing and reads no eps; its header keeps the defaults
    return _write_report(MixingReport(suite="sweep", seed=0,
                                      eps=constants.DEFAULT_EPS,
                                      rows=tuple(rows)),
                         args.out)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(prog="ferrospin",
                     description="Ferromagnetic two-spin systems: exact "
                                 "checks, samplers, walk trees, regions.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}

    def add_common_flags(p):
        p.add_argument("--config",
                       help="JSON file of defaults; flags override it")
        p.add_argument("--out", help="output path (default: stdout)")

    def add_instance_flags(p):
        # only the subcommands that load a system take an instance
        p.add_argument("--instance", help="instance JSON file")
        p.add_argument("--rbm", help="RBM JSON file")
        add_common_flags(p)

    p = registry["sample"] = sub.add_parser(
        "sample", help="run a chain, dump the trajectory")
    add_instance_flags(p)
    p.add_argument("--schedule", default="glauber", choices=SCHEDULE_NAMES)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--theta", type=float, default=0.5,
                   help="field-dynamics parameter in (0, 1]")
    p.add_argument("--censor", help="comma-separated vertices kept active "
                   "(block schedules only)")
    p.set_defaults(func=cmd_sample)

    p = registry["exact"] = sub.add_parser(
        "exact", help="enumeration summary of one instance")
    add_instance_flags(p)
    p.set_defaults(func=cmd_exact)

    p = registry["saw"] = sub.add_parser(
        "saw", help="walk-tree marginal of one vertex")
    add_instance_flags(p)
    p.add_argument("--center", type=int,
                   help="the vertex (required; --config may give it)")
    p.add_argument("--pin", help="comma-separated v:s assignments")
    p.set_defaults(func=cmd_saw)

    p = registry["region"] = sub.add_parser(
        "region", help="construct + verify a neighbourhood")
    add_instance_flags(p)
    p.add_argument("--center", help="a vertex, or 'all' for a sweep "
                   "(required; --config may give it)")
    p.add_argument("--d1", type=int)
    p.add_argument("--d2", type=int)
    p.set_defaults(func=cmd_region)

    p = registry["verify"] = sub.add_parser(
        "verify", help="run a named verification suite")
    add_common_flags(p)
    p.add_argument("--suite", choices=SUITE_NAMES,
                   help="(required; --config may give it)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=constants.DEFAULT_EPS)
    p.add_argument("--trials", type=int, default=40)
    p.add_argument("--max-n", dest="max_n", type=int, default=6)
    p.set_defaults(func=cmd_verify)

    p = registry["sweep"] = sub.add_parser(
        "sweep", help="influence + decay regime sweep")
    add_common_flags(p)
    p.add_argument("--family", default="path")
    p.add_argument("--sizes", default="4,8")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--lambda-facs", dest="lambda_facs", default="0.5")
    p.add_argument("--max-length", dest="max_length", type=int, default=10)
    p.set_defaults(func=cmd_sweep)

    return parser, registry


def _apply_config_file(sub: argparse.ArgumentParser, path: str) -> None:
    """Config file values become defaults of the subcommand being run;
    explicit flags then override them during the real parse.  A key that
    subcommand does not take is an error, even where another one takes it."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise InputError("config file must hold a JSON object")
    for key, value in doc.items():
        if value is None or isinstance(value, (dict, list)):
            raise InputError(f"config option {key!r} needs a number or a "
                             f"string, got {value!r}")
    dests = {a.dest for a in sub._actions if a.option_strings} - {"help"}
    unknown = set(doc) - dests
    if unknown:
        raise InputError(f"config file mentions unknown options for "
                         f"{sub.prog}: {sorted(unknown)}")
    # string defaults go through each option's own type conversion
    sub.set_defaults(**{k: str(v) for k, v in doc.items()})


@functools.cache
def _shared_parser() -> _Parser:
    """The parser every call starts on: parsing leaves no state on it, so
    one tree serves the whole process."""
    return build_parser()[0]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _shared_parser().parse_args(argv)
        # argparse has resolved every spelling of --config (--config=PATH,
        # abbreviations); its values become defaults, so such a call parses
        # again on a tree of its own
        config = getattr(args, "config", None)
        if config is not None:
            parser, registry = build_parser()
            _apply_config_file(registry[args.subcommand], config)
            args = parser.parse_args(argv)
        missing = [flag for flag in _REQUIRED_FLAGS.get(args.subcommand, ())
                   if getattr(args, flag[2:]) is None]
        if missing:
            raise InputError("the following arguments are required: "
                             + ", ".join(missing))
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (CapacityError, NonconvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except FerrospinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
