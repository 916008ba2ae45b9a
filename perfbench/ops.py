"""Run one benchmark op against ferrospin and check its output.

The surface the ops use is `ferrospin.cli.main` plus top-level names of the
`ferrospin` package: the ones `demos/mixing_time_tour.py` imports, and
`load_instance` and `alternating_scan_matrix`, which the CLI does not reach
for dense kernels at n >= 8.  Every name is looked up at call time, so a
tracer that rebinds module attributes sees each call.

`run_op` returns an `Outcome`.  An op *fails* when its exit code is not 0,
it raises, its output check fails, or its region verdict is partial (a
computation that stopped at a cap is never a pass).  It is *wrong* only
when its output check fails or it raises: a partial verdict is a failure
the program itself reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import traceback
from dataclasses import dataclass

import ferrospin
import ferrospin.cli
from ferrospin.constants import INEQUALITY_SLACK, SAW_ORACLE_TOL

EPS = 1.0 / (4.0 * math.e)
STATIONARITY_TOL = 1e-10


@dataclass
class Outcome:
    ok: bool
    wrong: bool = False
    detail: str = ""
    value: object = None  # deterministic result compared across passes


def _cli(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of one in-process CLI call; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = ferrospin.cli.main(argv)
    return code, out.getvalue()


def _wrong(detail: str) -> Outcome:
    return Outcome(ok=False, wrong=True, detail=detail)


def check_saw(code: int, stdout: str) -> Outcome:
    if code != 0:
        return Outcome(ok=False, detail=f"exit code {code}")
    reply = json.loads(stdout)
    if "discrepancy" not in reply:
        return _wrong("reply carries no enumeration check")
    if not reply["discrepancy"] <= SAW_ORACLE_TOL:
        return _wrong(f"discrepancy {reply['discrepancy']!r} > {SAW_ORACLE_TOL}")
    if not abs(reply["p0"] + reply["p1"] - 1.0) <= 1e-12:
        return _wrong("p0 + p1 != 1")
    return Outcome(ok=True, value=reply["p1"])


def check_region(code: int, stdout: str) -> Outcome:
    if code not in (0, 3):  # 3: a verification failed, records written
        return Outcome(ok=False, detail=f"exit code {code}")
    records = [json.loads(line) for line in stdout.splitlines() if line]
    if len(records) != 1:
        return _wrong(f"{len(records)} region records for one centre")
    ver = records[0]["verification"]
    if ver["partial"]:
        return Outcome(ok=False, detail="partial verification (cap reached)",
                       value=ver["nodes_visited"])
    if code != 0 or not ver["ok"]:
        return Outcome(ok=False, detail=f"exit code {code}, ok={ver['ok']}")
    return Outcome(ok=True, value=ver["nodes_visited"])


def check_sample(code: int, stdout: str, steps: int) -> Outcome:
    if code != 0:
        return Outcome(ok=False, detail=f"exit code {code}")
    lines = [ln for ln in stdout.splitlines() if not ln.startswith("#")]
    if not lines or lines[0] != "step,hamming_weight,coupled_flag":
        return _wrong("missing CSV header")
    rows = lines[1:]
    if len(rows) != steps:
        return _wrong(f"{len(rows)} CSV rows for {steps} steps")
    for i, row in enumerate(rows, start=1):
        if not row.startswith(f"{i},"):
            return _wrong(f"row {i} reads {row!r}")
    return Outcome(ok=True, value=rows[-1])


def _mix_exact(system) -> Outcome:
    mu = ferrospin.gibbs_distribution(system)
    P = ferrospin.glauber_matrix(system)
    spec = ferrospin.spectral_report(P, mu, "glauber")
    t = ferrospin.exact_mixing_time(P, mu, EPS)
    # the bracket demos/mixing_time_tour.py prints
    gap = spec.gap
    upper = math.log(1.0 / (EPS ** 2 * float(mu.probs.min()))) / gap
    lower = (1.0 / gap - 1.0) * math.log(1.0 / (2.0 * EPS))
    if not (lower - INEQUALITY_SLACK <= t <= upper + INEQUALITY_SLACK):
        return _wrong(f"t_mix {t} outside spectral bounds [{lower}, {upper}]")
    return Outcome(ok=True, value=t)


def _mix_scan(system, parts) -> Outcome:
    mu = ferrospin.gibbs_distribution(system)
    Q = ferrospin.alternating_scan_matrix(system, (tuple(parts[0]),
                                                   tuple(parts[1])))
    spec = ferrospin.spectral_report(Q, mu, "alternating_scan")
    drift = float(abs(mu.probs @ Q.entries - mu.probs).sum())
    if not drift <= STATIONARITY_TOL:
        return _wrong(f"scan kernel moves the Gibbs law by {drift:.3e}")
    if not (0.0 < spec.gap <= 1.0 and math.isfinite(spec.relaxation_time)):
        return _wrong(f"scan gap {spec.gap!r}")
    return Outcome(ok=True, value=round(spec.gap, 9))


def _mix_coupling(system, trials: int, seed: int) -> Outcome:
    schedule = ferrospin.UpdateSchedule(kind="single-site-glauber")
    row, estimate = ferrospin.coupling_mixing_estimate(
        system, schedule, EPS, trials=trials, seed=seed)
    if estimate is None or not row.passed or estimate < 1:
        return _wrong(f"coupling estimate {estimate!r}")
    return Outcome(ok=True, value=estimate)


def _run(op: dict, workdir: str) -> Outcome:
    path = os.path.join(workdir, op["file"])
    kind = op["kind"]
    if kind == "saw":
        argv = ["saw", f"--{op['format']}", path, "--center", str(op["center"])]
        if op["pin"]:
            argv += ["--pin", op["pin"]]
        return check_saw(*_cli(argv))
    if kind == "region":
        return check_region(*_cli(["region", "--instance", path,
                                   "--center", str(op["center"])]))
    if kind == "sample":
        return check_sample(*_cli(["sample", "--instance", path,
                                   "--schedule", op["schedule"],
                                   "--steps", str(op["steps"]),
                                   "--seed", str(op["seed"])]), op["steps"])
    system = ferrospin.load_instance(path)
    if kind == "mix-exact":
        return _mix_exact(system)
    if kind == "mix-scan":
        return _mix_scan(system, op["parts"])
    if kind == "mix-coupling":
        return _mix_coupling(system, op["trials"], op["seed"])
    raise ValueError(f"unknown op kind {kind!r}")


def run_op(op: dict, workdir: str) -> Outcome:
    """Run and check one op; an op that raises is a wrong, failed op and
    does not stop the run."""
    try:
        return _run(op, workdir)
    except Exception:
        return _wrong(traceback.format_exc(limit=3))
