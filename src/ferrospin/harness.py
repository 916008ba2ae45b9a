"""Desk-scale verification harness.

Spectral and mixing-time inequality checks, coupling-time estimation,
influence and correlation-decay probes, and deterministic report emission.
Every check here is exact at small n (dense kernels, full enumeration);
randomized estimates draw from a fixed counter-based stream and are summarized
with Wilson score intervals at the 99% level, so a given configuration always
produces byte-identical reports.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import constants
from .errors import InputError, NumericError
from .exact import (
    TransitionMatrix,
    _all_to_one,
    _check_capacity,
    _mixing_time_and_distance,
    _table,
    alternating_scan_matrix,
    censored_glauber_matrix,
    conditional_marginal,
    exact_mixing_time,
    field_kernel_matrix,
    gibbs_distribution,
    glauber_matrix,
    pinned_glauber_matrix,
    spectral_report,
    stationarity_residual,
    detailed_balance_residual,
    tv_from_start,
)
from .model import (
    ParamClass,
    Pinning,
    TwoSpinSystem,
    _check_config,
    _integer,
    config_to_index,
    instance_hash,
    lambda_c,
    tilt,
)
from .regions import RegionParams, construct_region, verify_region
from .samplers import UpdateSchedule, _philox as _rng, coupling_times
from .sawtree import Phi, decay_factor, derive_potential, g_value, phi, saw_marginal

SCHEMA_VERSION = 1
SCOPE_NOTE = ("exact desk-scale verification; asymptotic constants are out "
              "of scope")

_FORBIDDEN_TEXT = set(",\n\r")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every suite.

    trials scales the number of instances / simulation repetitions, max_n the
    largest exactly-enumerated system.
    """

    seed: int = 0
    eps: float = constants.DEFAULT_EPS
    trials: int = 40
    max_n: int = 6

    def __post_init__(self):
        if not (0.0 < self.eps < 0.5):
            raise InputError(f"eps must lie in (0, 1/2), got {self.eps}")
        if _integer(self.trials, "trials") < 1:
            raise InputError("trials must be positive")
        if _integer(self.max_n, "max_n") < 2:
            raise InputError("max_n must be at least 2")


@dataclass(frozen=True)
class ReportRow:
    """One verified claim: pass holds iff slack >= -tolerance."""

    claim: str
    instance: str
    lhs: float
    rhs: float
    slack: float
    tolerance: float
    passed: bool
    detail: str = ""

    def __post_init__(self):
        for text in (self.claim, self.instance, self.detail):
            if any(ch in _FORBIDDEN_TEXT for ch in text):
                raise InputError("row text may not contain commas or newlines")


@dataclass(frozen=True)
class MixingReport:
    suite: str
    seed: int
    eps: float
    rows: tuple[ReportRow, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def failures(self) -> tuple[ReportRow, ...]:
        return tuple(r for r in self.rows if not r.passed)


def inequality_row(claim: str, instance: str, lhs: float, rhs: float,
                   tolerance: float = constants.INEQUALITY_SLACK,
                   detail: str = "") -> ReportRow:
    """Assert lhs <= rhs; slack = rhs - lhs."""
    slack = float(rhs) - float(lhs)
    return ReportRow(claim, instance, float(lhs), float(rhs), slack,
                     float(tolerance), slack >= -tolerance, detail)


def equality_row(claim: str, instance: str, lhs: float, rhs: float,
                 tolerance: float, detail: str = "") -> ReportRow:
    """Assert lhs == rhs up to tolerance; slack = -|lhs - rhs|."""
    slack = -abs(float(lhs) - float(rhs))
    return ReportRow(claim, instance, float(lhs), float(rhs), slack,
                     float(tolerance), slack >= -tolerance, detail)


def value_row(claim: str, instance: str, value: float,
              detail: str = "") -> ReportRow:
    """Informational row; always passes."""
    return ReportRow(claim, instance, float(value), float(value), 0.0, 0.0,
                     True, detail)


def wilson_upper(failures: int, trials: int) -> float:
    """Upper end of the Wilson score interval for a binomial proportion, at
    z = `constants.WILSON_Z`."""
    if _integer(trials, "trials") < 1:
        raise InputError("wilson interval needs at least one trial")
    if not 0 <= _integer(failures, "failure count") <= trials:
        raise InputError("failure count out of range")
    p_hat = failures / trials
    z = constants.WILSON_Z
    z2 = z * z
    centre = p_hat + z2 / (2.0 * trials)
    radius = z * math.sqrt(p_hat * (1.0 - p_hat) / trials
                           + z2 / (4.0 * trials * trials))
    return min(1.0, (centre + radius) / (1.0 + z2 / trials))


# ---------------------------------------------------------------------------
# random instances


def _is_connected(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def random_connected_graph(rng: np.random.Generator, n: int,
                           p: float) -> list[tuple[int, int]]:
    """Edge list of G(n, p) conditioned on connectivity (rejection)."""
    if _integer(n, "vertex count") < 1:
        raise InputError("graph needs at least one vertex")
    if not (0.0 <= p <= 1.0):
        raise InputError(f"edge probability must lie in [0,1], got {p}")
    if n == 1:
        return []
    iu, iv = np.triu_indices(n, 1)
    for _ in range(100000):
        mask = rng.random(len(iu)) < p
        edges = [(int(u), int(v)) for u, v in zip(iu[mask], iv[mask])]
        if _is_connected(n, edges):
            return edges
    raise InputError(f"no connected draw of G({n}, {p}) after 100000 tries")


def random_ferro_instance(rng: np.random.Generator, n: int, p: float = 0.6,
                          lambda_bound: float = 1.5) -> TwoSpinSystem:
    """Connected instance with beta_e ~ U[0.5, 1],
    gamma_e ~ U(1/beta_e + 0.1, 5], lambda_v ~ U(0, lambda_bound)."""
    edges = random_connected_graph(rng, n, p)
    spec = []
    for u, v in edges:
        b = float(rng.uniform(0.5, 1.0))
        g = float(rng.uniform(1.0 / b + 0.1, 5.0))
        spec.append((u, v, b, g))
    lam = [float(x) for x in rng.uniform(1e-6, lambda_bound, n)]
    return TwoSpinSystem.from_params(n, lam, spec)


def class_instance(rng: np.random.Generator, n: int,
                   pc: ParamClass) -> TwoSpinSystem:
    """Connected instance of G(n, 0.6) at the class edge bound: every edge
    carries (pc.beta, pc.gamma); lambda_v ~ U(0, pc.lambda_bound)."""
    edges = random_connected_graph(rng, n, 0.6)
    spec = [(u, v, pc.beta, pc.gamma) for u, v in edges]
    lam = [float(x) for x in rng.uniform(1e-6, pc.lambda_bound, n)]
    return TwoSpinSystem.from_params(n, lam, spec)


def random_tree_instance(rng: np.random.Generator, n: int,
                         lambda_bound: float = 1.5
                         ) -> tuple[TwoSpinSystem, tuple[tuple[int, ...],
                                                         tuple[int, ...]]]:
    """Random labelled tree plus its depth-parity bipartition."""
    if _integer(n, "vertex count") < 1:
        raise InputError("tree needs at least one vertex")
    depth = {0: 0}
    spec = []
    for v in range(1, n):
        parent = int(rng.integers(0, v))
        b = float(rng.uniform(0.5, 1.0))
        g = float(rng.uniform(1.0 / b + 0.1, 5.0))
        spec.append((parent, v, b, g))
        depth[v] = depth[parent] + 1
    lam = [float(x) for x in rng.uniform(1e-6, lambda_bound, n)]
    even = tuple(v for v in range(n) if depth[v] % 2 == 0)
    odd = tuple(v for v in range(n) if depth[v] % 2 == 1)
    return TwoSpinSystem.from_params(n, lam, spec), (even, odd)


def instance_family(name: str, n: int, beta: float, gamma: float,
                    lam: float) -> TwoSpinSystem:
    """Uniform-parameter families: edgeless, path, cycle, star,
    complete-bipartite (balanced parts)."""
    if _integer(n, "vertex count") < 1:
        raise InputError("family instance needs at least one vertex")
    if name == "edgeless":
        edges: list[tuple[int, int]] = []
    elif name == "path":
        edges = [(v, v + 1) for v in range(n - 1)]
    elif name == "cycle":
        if n < 3:
            raise InputError("cycle needs at least three vertices")
        edges = [(v, (v + 1) % n) for v in range(n)]
    elif name == "star":
        if n < 2:
            raise InputError("star needs at least two vertices")
        edges = [(0, v) for v in range(1, n)]
    elif name == "complete-bipartite":
        if n < 2:
            raise InputError("complete-bipartite needs at least two vertices")
        half = n // 2
        edges = [(u, v) for u in range(half) for v in range(half, n)]
    else:
        raise InputError(f"unknown family {name!r}")
    return TwoSpinSystem.from_params(
        n, [lam] * n, [(u, v, beta, gamma) for u, v in edges])


# ---------------------------------------------------------------------------
# spectral / mixing inequality checks


def verify_relaxation_inequality(system: TwoSpinSystem,
                                 bipartition: tuple[Sequence[int],
                                                    Sequence[int]]
                                 ) -> ReportRow:
    """Alternating-scan relaxation time (through the multiplicative
    reversiblization) is at most twice the inverse single-site gap."""
    mu = gibbs_distribution(system)
    scan = spectral_report(alternating_scan_matrix(system, bipartition), mu,
                           "alternating_scan")
    single = spectral_report(glauber_matrix(system), mu, "glauber")
    return inequality_row(
        "scan-relaxation-time-at-most-two-over-single-site-gap",
        instance_hash(system), scan.relaxation_time, 2.0 / single.gap,
        detail=f"single_site_gap={single.gap!r}")


def verify_scan_mixing_bound(system: TwoSpinSystem,
                             bipartition: tuple[Sequence[int], Sequence[int]],
                             start: Sequence[int],
                             eps: float = constants.DEFAULT_EPS) -> ReportRow:
    """After ceil(T_rel * log(4 e^2 / (eps^2 mu(start)))) scan steps the
    distance to stationarity from that start is at most eps."""
    if not (0.0 < eps < 1.0):
        raise InputError(f"eps must lie in (0,1), got {eps}")
    _check_config(start, system.n, "start")
    mu = gibbs_distribution(system)
    Q = alternating_scan_matrix(system, bipartition)
    t_rel = spectral_report(Q, mu, "alternating_scan").relaxation_time
    idx = config_to_index(start)
    mass = float(mu.probs[idx])
    steps = max(1, math.ceil(t_rel * math.log(4.0 * math.e ** 2
                                              / (eps * eps * mass))))
    tv = tv_from_start(Q, mu, idx, steps)
    return inequality_row(
        "scan-distance-below-eps-after-relaxation-log-steps",
        instance_hash(system), tv, eps,
        detail=f"steps={steps} relaxation_time={t_rel!r} start_mass={mass!r}")


def verify_gap_mixing_relations(system: TwoSpinSystem,
                                eps: float = constants.DEFAULT_EPS
                                ) -> list[ReportRow]:
    """Exact worst-start mixing time against its spectral bounds.

    Upper: t(eps) <= (1/gap) log(1/(eps^2 mu_min)).  Lower: t(eps) >=
    (1/gap - 1) log(1/(2 eps)).  Both get one step of integer-rounding
    allowance.  A third row checks the reference-level product rule
    t(eps') <= t(1/(4e)) log(1/eps') at eps' = 1/(32e)."""
    mu = gibbs_distribution(system)
    P = glauber_matrix(system)
    gap = spectral_report(P, mu, "glauber").gap
    h = instance_hash(system)
    mu_min = float(mu.probs.min())
    t_eps = exact_mixing_time(P, mu, eps)
    rows = [
        inequality_row(
            "mixing-time-at-most-log-inverse-mass-over-gap", h,
            t_eps, math.log(1.0 / (eps * eps * mu_min)) / gap + 1.0,
            detail=f"gap={gap!r} eps={eps!r}"),
        inequality_row(
            "mixing-time-at-least-inverse-gap-log", h,
            (1.0 / gap - 1.0) * math.log(1.0 / (2.0 * eps)), t_eps + 1.0,
            detail=f"gap={gap!r} eps={eps!r}"),
    ]
    eps_small = constants.DEFAULT_EPS / 8.0
    t_ref = (t_eps if eps == constants.DEFAULT_EPS
             else exact_mixing_time(P, mu, constants.DEFAULT_EPS))
    t_small = exact_mixing_time(P, mu, eps_small)
    rows.append(inequality_row(
        "mixing-time-product-rule-from-reference-level", h,
        t_small, t_ref * math.log(1.0 / eps_small),
        detail=f"reference_time={t_ref} target_eps={eps_small!r}"))
    return rows


# ---------------------------------------------------------------------------
# coupling estimates


def coupling_mixing_estimate(system: TwoSpinSystem, schedule: UpdateSchedule,
                             eps: float = constants.DEFAULT_EPS,
                             trials: int = 40, seed: int = 0,
                             cap: int = constants.MIXING_STEP_CAP
                             ) -> tuple[ReportRow, int | None]:
    """Smallest t whose Wilson 99% upper bound on Pr[not merged by t] is
    below eps, from `trials` grand couplings started at the extreme pair.

    Returns (row, estimate); the estimate is None and the row fails when the
    step cap censors too many runs for the bound to drop below eps."""
    if _integer(trials, "trials") < 1:
        raise InputError("estimate needs at least one trial")
    if not (0.0 < eps < 1.0):
        raise InputError(f"eps must lie in (0,1), got {eps}")
    times = coupling_times(system, schedule,
                           [seed + 1000003 * i for i in range(trials)], cap)
    censored = times.count(None)
    merged = sorted(t for t in times if t is not None)
    estimate: int | None = None
    for t in merged:
        # runs not merged by t: the censored ones and those merging later
        not_merged = trials - bisect.bisect_right(merged, t)
        if wilson_upper(not_merged, trials) < eps:
            estimate = t
            break
    detail = (f"trials={trials} censored={censored} eps={eps!r} "
              f"seed={seed} cap={cap}")
    if estimate is None:
        # zero-failure floor of the interval: below this eps no trial count
        # this small can certify anything
        detail += (" censored-estimate"
                   f" floor={wilson_upper(0, trials)!r}")
    row = ReportRow("wilson-bounded-coupling-time-estimate",
                    instance_hash(system),
                    float(cap if estimate is None else estimate), float(cap),
                    float(0 if estimate is None else cap - estimate), 0.0,
                    estimate is not None, detail)
    return row, estimate


def coupling_failure_fraction(system: TwoSpinSystem,
                              schedule: UpdateSchedule, t: int, trials: int,
                              seed: int = 0) -> float:
    """Fraction of independent grand couplings not merged after t steps."""
    if _integer(t, "step count") < 1:
        raise InputError("step count must be positive")
    if _integer(trials, "trials") < 1:
        raise InputError("need at least one trial")
    times = coupling_times(system, schedule,
                           [seed + 1000003 * i for i in range(trials)], t)
    return times.count(None) / trials


def coupling_dominance_row(system: TwoSpinSystem, schedule: UpdateSchedule,
                           kernel: TransitionMatrix,
                           eps: float = constants.DEFAULT_EPS,
                           trials: int = 200, seed: int = 0) -> ReportRow:
    """At the exact mixing time of `kernel`, the empirical non-merge
    probability plus three plug-in standard errors dominates the exact
    worst-start distance (any coupling upper-bounds total variation)."""
    mu = gibbs_distribution(system)
    t_star, tv = _mixing_time_and_distance(kernel, mu, eps,
                                           constants.MIXING_STEP_CAP)
    frac = coupling_failure_fraction(system, schedule, t_star, trials, seed)
    sigma = math.sqrt(frac * (1.0 - frac) / trials)
    return inequality_row(
        "coupling-failure-dominates-worst-start-distance",
        instance_hash(system), tv, frac + 3.0 * sigma, tolerance=0.0,
        detail=f"t={t_star} trials={trials} fraction={frac!r}")


# ---------------------------------------------------------------------------
# field-dynamics boost


def gamma_min_pinned(tilted: TwoSpinSystem) -> float:
    """Smallest single-site gap over all proper pinnings of the tilted
    system: the chain still picks v uniformly from all of V and idles on
    pinned vertices.  Pinning everything gives the identity chain, so the
    full pinning is excluded."""
    n = tilted.n
    _check_capacity(n, constants.FIELD_KERNEL_LIMIT, "pinned-gap sweep")
    best = math.inf
    for mask in range(2 ** n - 1):
        pinned = [v for v in range(n) if mask >> v & 1]
        for assign in range(2 ** len(pinned)):
            pin = Pinning({v: assign >> i & 1 for i, v in enumerate(pinned)})
            P, mu = pinned_glauber_matrix(tilted, pin)
            best = min(best, spectral_report(P, mu, "glauber").gap)
    return best


def field_boost_check(system: TwoSpinSystem, pc: ParamClass,
                      theta: float | None = None) -> list[ReportRow]:
    """Three rows: tilted fields sit below one half; the single-site gap is
    at least the field-dynamics gap times the worst pinned tilted gap; the
    all-ones configuration keeps mass at least (2 lambda_c)^-n."""
    lc = lambda_c(pc)
    if theta is None:
        theta = 1.0 / (2.0 * lc)
    tilted = tilt(system, theta)  # refuses a theta outside (0, 1]
    n = system.n
    h = instance_hash(system)
    rows = []
    try:
        lam_max = math.exp(max(system.log_lambda))
    except OverflowError:  # a field past the float range fails the row
        lam_max = math.inf
    rows.append(inequality_row("tilted-fields-below-one-half", h,
                               lam_max * theta, 0.5, tolerance=0.0,
                               detail=f"theta={theta!r}"))
    mu = gibbs_distribution(system)
    gap_single = spectral_report(glauber_matrix(system), mu, "glauber").gap
    gap_field = spectral_report(field_kernel_matrix(system, theta), mu,
                                "glauber").gap
    g_min = gamma_min_pinned(tilted)
    rows.append(inequality_row(
        "single-site-gap-at-least-field-gap-times-min-pinned-gap", h,
        gap_field * g_min, gap_single,
        detail=f"field_gap={gap_field!r} min_pinned_gap={g_min!r}"))
    ones = float(mu.probs[config_to_index([1] * n)])
    rows.append(inequality_row("all-ones-mass-at-least-inverse-power", h,
                               (2.0 * lc) ** (-n), ones, tolerance=0.0,
                               detail=f"lambda_c={lc!r}"))
    return rows


# ---------------------------------------------------------------------------
# influence sweep and decay probe


def max_all_to_one_influence(system: TwoSpinSystem) -> float:
    """Worst vertex: max_v sum_u |Pr[X_v=0|X_u=0] - Pr[X_v=0|X_u=1]|, every
    vertex read from one log-weight table."""
    table = _table(system)
    return max(_all_to_one(table, v) for v in range(system.n))


def influence_regime_sweep(family: str, sizes: Sequence[int], beta: float,
                           gamma: float, lam_factors: Sequence[float]
                           ) -> list[ReportRow]:
    """All-to-one influence across sizes, one block per field level.

    lam_factors are multiples of the uniqueness-style threshold; below 1 the
    sweep asserts boundedness (influence at 2m at most
    `constants.INFLUENCE_GROWTH_FACTOR` times influence at m) and
    stabilization at the top two sizes (to
    `constants.INFLUENCE_STABILIZATION_TOL`).  At or above 1
    the values and growth ratios are reported without assertion."""
    if len(sizes) < 2 or list(sizes) != sorted(set(sizes)):
        raise InputError("sizes must be strictly increasing, at least two")
    if not lam_factors:
        raise InputError("need at least one field factor")
    lc = lambda_c(ParamClass(beta=beta, gamma=gamma, lambda_bound=1.0))
    if lc == math.inf:
        raise InputError(f"lambda_c of beta {beta!r}, gamma {gamma!r} passes "
                         f"the float range")
    rows = []
    for factor in lam_factors:
        lam = factor * lc
        vals: dict[int, float] = {}
        for n in sizes:
            sys_n = instance_family(family, n, beta, gamma, lam)
            vals[n] = max_all_to_one_influence(sys_n)
            rows.append(value_row(
                "all-to-one-influence", f"{family}-n{n}", vals[n],
                detail=f"lambda={lam!r} factor={factor!r}"))
        asserted = factor < 1.0
        for m in sizes:
            if 2 * m not in vals:
                continue
            if asserted:
                rows.append(inequality_row(
                    "influence-bounded-under-size-doubling",
                    f"{family}-n{2 * m}", vals[2 * m],
                    constants.INFLUENCE_GROWTH_FACTOR * vals[m],
                    detail=f"factor={factor!r} base_size={m}"))
            else:
                ratio = vals[2 * m] / vals[m] if vals[m] > 0.0 else math.inf
                rows.append(value_row(
                    "influence-growth-ratio-reported", f"{family}-n{2 * m}",
                    min(ratio, 1e308),
                    detail=f"factor={factor!r} base_size={m} reported-only"))
        if asserted:
            a, b = sizes[-2], sizes[-1]
            rows.append(equality_row(
                "influence-stabilizes-at-largest-sizes", f"{family}-n{b}",
                vals[b], vals[a], constants.INFLUENCE_STABILIZATION_TOL,
                detail=f"factor={factor!r} smaller_size={a}"))
    return rows


@dataclass(frozen=True)
class DecayProbeResult:
    rows: tuple[ReportRow, ...]
    lengths: tuple[int, ...]
    discrepancies: tuple[float, ...]
    slope: float
    intercept: float
    r_squared: float


def endpoint_influence_on_path(beta: float, gamma: float, lam: float,
                               length: int) -> float:
    """|Pr[X_0=0 | X_len=0] - Pr[X_0=0 | X_len=1]| on a uniform path."""
    if length < 1:
        raise InputError("path probe needs length >= 1")
    system = instance_family("path", length + 1, beta, gamma, lam)
    a, _ = conditional_marginal(system, Pinning({length: 0}), 0)
    b, _ = conditional_marginal(system, Pinning({length: 1}), 0)
    return abs(a - b)


def decay_probe(beta: float, gamma: float, lam: float,
                lengths: Sequence[int] = tuple(range(2, 13))
                ) -> DecayProbeResult:
    """Endpoint influence versus distance on uniform paths, with a
    log-linear fit.  Passing requires a negative slope with r^2 at least
    `constants.DECAY_MIN_R_SQUARED`; the adjacent case must dominate every
    longer distance."""
    lens = [_integer(x, "length") for x in lengths]
    if len(lens) < 2 or lens != sorted(set(lens)) or lens[0] < 2:
        raise InputError("lengths must be strictly increasing, all >= 2")
    disc = [endpoint_influence_on_path(beta, gamma, lam, x) for x in lens]
    if min(disc) <= 0.0:
        raise NumericError("endpoint influence underflowed; shorten the probe")
    h = instance_hash(instance_family("path", lens[-1] + 1, beta, gamma, lam))
    rows = [value_row("endpoint-influence-at-distance", f"{h}-l{x}", d,
                      detail=f"length={x}")
            for x, d in zip(lens, disc)]
    anchor = endpoint_influence_on_path(beta, gamma, lam, 1)
    rows.append(inequality_row("adjacent-endpoint-influence-is-maximal", h,
                               max(disc), anchor,
                               tolerance=constants.REL_TOL))
    x = np.array(lens, dtype=float)
    y = np.log(np.array(disc))
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    floor = constants.DECAY_MIN_R_SQUARED
    rows.append(ReportRow(
        "endpoint-influence-decays-log-linearly", h, float(slope), 0.0,
        float(-slope), 0.0, bool(slope < 0.0 and r2 >= floor),
        f"r_squared={r2!r} min_r_squared={floor!r}"))
    return DecayProbeResult(tuple(rows), tuple(lens), tuple(disc),
                            float(slope), float(intercept), float(r2))


# ---------------------------------------------------------------------------
# suites


def _suite_saw_oracle(cfg: ExperimentConfig) -> list[ReportRow]:
    rng = _rng(cfg.seed)
    rows = []
    top = min(cfg.max_n, 7)
    for i in range(cfg.trials):
        n = 2 + (i % (top - 1)) if top > 2 else 2
        sys_i = random_ferro_instance(rng, n)
        v = int(rng.integers(0, n))
        pin = Pinning()
        if n >= 3 and i % 2 == 1:
            u = (v + 1 + int(rng.integers(0, n - 1))) % n
            pin = Pinning({u: int(rng.integers(0, 2))})
        p1_walk = saw_marginal(sys_i, v, pin).p1
        _, p1_exact = conditional_marginal(sys_i, pin, v)
        rows.append(equality_row(
            "walk-tree-marginal-matches-enumeration", instance_hash(sys_i),
            p1_walk, p1_exact, constants.SAW_ORACLE_TOL,
            detail=f"v={v} pinned={len(pin)}"))
    return rows


def _suite_stationarity(cfg: ExperimentConfig) -> list[ReportRow]:
    rng = _rng(cfg.seed)
    rows = []
    top = min(cfg.max_n, 8)
    for i in range(cfg.trials):
        n = 2 + i % (top - 1)
        sys_i = random_ferro_instance(rng, n)
        h = instance_hash(sys_i)
        mu = gibbs_distribution(sys_i)
        P = glauber_matrix(sys_i)
        rows.append(equality_row("single-site-kernel-fixes-gibbs", h,
                                 stationarity_residual(P, mu), 0.0,
                                 constants.STATIONARITY_TOL))
        rows.append(equality_row("single-site-kernel-detailed-balance", h,
                                 detailed_balance_residual(P, mu), 0.0,
                                 constants.BALANCE_TOL))
        S = [v for v in range(n) if rng.integers(0, 2)] or [0]
        rows.append(equality_row(
            "censored-kernel-fixes-gibbs", h,
            stationarity_residual(censored_glauber_matrix(sys_i, S), mu), 0.0,
            constants.STATIONARITY_TOL, detail=f"censor_size={len(S)}"))
        tree, parts = random_tree_instance(rng, n)
        mu_t = gibbs_distribution(tree)
        rows.append(equality_row(
            "alternating-scan-fixes-gibbs", instance_hash(tree),
            stationarity_residual(alternating_scan_matrix(tree, parts), mu_t),
            0.0, constants.STATIONARITY_TOL))
        if n <= min(cfg.max_n, constants.FIELD_KERNEL_LIMIT):
            rows.append(equality_row(
                "field-dynamics-fixes-gibbs", h,
                stationarity_residual(field_kernel_matrix(sys_i, 0.5), mu),
                0.0, constants.STATIONARITY_TOL, detail="theta=0.5"))
    return rows


def _suite_relaxation(cfg: ExperimentConfig) -> list[ReportRow]:
    rng = _rng(cfg.seed)
    rows = []
    top = min(cfg.max_n, 6)
    for i in range(cfg.trials):
        n = 2 + i % (top - 1)
        tree, parts = random_tree_instance(rng, n, lambda_bound=1.0)
        rows.append(verify_relaxation_inequality(tree, parts))
        start = tuple(int(b) for b in rng.integers(0, 2, n))
        rows.append(verify_scan_mixing_bound(tree, parts, start, cfg.eps))
        rows.extend(verify_gap_mixing_relations(tree, cfg.eps))
    return rows


def _suite_coupling(cfg: ExperimentConfig) -> list[ReportRow]:
    rng = _rng(cfg.seed)
    rows = []
    top = min(cfg.max_n, 6)
    schedule = UpdateSchedule(kind="single-site-glauber")
    for i in range(6):
        n = 2 + i % (top - 1)
        sys_i = random_ferro_instance(rng, n, lambda_bound=1.0)
        seed_i = cfg.seed + 7919 * (i + 1)
        est_row, _ = coupling_mixing_estimate(
            sys_i, schedule, cfg.eps, trials=max(120, cfg.trials),
            seed=seed_i, cap=10 ** 5)
        rows.append(est_row)
        rows.append(coupling_dominance_row(
            sys_i, schedule, glauber_matrix(sys_i), cfg.eps,
            trials=max(100, cfg.trials), seed=seed_i + 1))
    return rows


def _suite_potential(cfg: ExperimentConfig) -> list[ReportRow]:
    rng = _rng(cfg.seed)
    rows = []
    grid = max(200, 25 * cfg.trials)
    for beta in (0.6, 1.0):
        for gamma in (2.0, 3.5):
            lc = lambda_c(ParamClass(beta=beta, gamma=gamma,
                                     lambda_bound=1.0))
            for frac in (0.3, 0.9):
                pc = ParamClass(beta=beta, gamma=gamma,
                                lambda_bound=frac * lc)
                pp = derive_potential(pc)
                lam = pc.lambda_bound
                label = f"class-b{beta}-g{gamma}-f{frac}"
                rows.append(inequality_row(
                    "contraction-margin-positive", label, 0.0, pp.alpha,
                    tolerance=0.0, detail=f"alpha={pp.alpha!r}"))
                xs = [lam * (j + 0.5) / grid for j in range(grid)]
                max_g = max(g_value(x, pc, beta, gamma) for x in xs)
                rows.append(inequality_row(
                    "per-edge-contraction-below-one-minus-margin", label,
                    max_g, 1.0 - pp.alpha,
                    tolerance=constants.POTENTIAL_SLACK,
                    detail=f"grid={grid}"))
                phis = [phi(x, pp, lam) for x in xs]
                rows.append(inequality_row(
                    "potential-density-at-most-upper-constant", label,
                    max(phis), pp.c_max,
                    tolerance=constants.POTENTIAL_SLACK))
                rows.append(inequality_row(
                    "potential-density-at-least-lower-constant", label,
                    pp.c_min, min(phis),
                    tolerance=constants.POTENTIAL_SLACK))
                worst = 0.0
                for d in (1, 2, 3, 4):
                    for _ in range(25):
                        xv = [float(t) for t in
                              rng.uniform(1e-4 * lam, lam * (1 - 1e-9), d)]
                        lam_u = float(rng.uniform(1e-6, lam))
                        worst = max(worst, decay_factor(
                            xv, lam_u, [(beta, gamma)] * d, pp, lam))
                rows.append(inequality_row(
                    "decay-factor-below-one-minus-margin", label, worst,
                    1.0 - pp.alpha, tolerance=constants.POTENTIAL_SLACK,
                    detail="arities=1..4 samples=25"))
                sep = lam / 10.0
                worst_hi = -math.inf
                worst_lo = math.inf
                for _ in range(40):
                    a = float(rng.uniform(0.0, lam - sep))
                    b = float(rng.uniform(a + sep, lam * (1 - 1e-12)))
                    ratio = (Phi(b, pp, lam) - Phi(a, pp, lam)) / (b - a)
                    worst_hi = max(worst_hi, ratio)
                    worst_lo = min(worst_lo, ratio)
                rows.append(inequality_row(
                    "potential-increments-at-most-upper-constant", label,
                    worst_hi, pp.c_max, tolerance=constants.POTENTIAL_SLACK))
                rows.append(inequality_row(
                    "potential-increments-at-least-lower-constant", label,
                    pp.c_min, worst_lo, tolerance=constants.POTENTIAL_SLACK))
    return rows


def _suite_region(cfg: ExperimentConfig) -> list[ReportRow]:
    rng = _rng(cfg.seed)
    rows = []
    for i in range(cfg.trials):
        n = int(rng.integers(20, 201))
        adj = {v: [] for v in range(n)}
        # mean degree log(n)+1 keeps the connectivity rejection cheap
        for u, v in random_connected_graph(rng, n, (math.log(n) + 1.0) / n):
            adj[u].append(v)
            adj[v].append(u)
        params = RegionParams.from_n(n)
        center = int(rng.integers(0, n))
        label = f"gnp-n{n}-i{i}"
        region = construct_region(adj, center, params)
        ver = verify_region(adj, region, params)
        rows.append(inequality_row(
            "region-size-within-exponential-bound", label,
            len(region.members), math.exp(params.d1) * params.d2,
            tolerance=0.0, detail=f"d1={params.d1} d2={params.d2}"))
        rows.append(equality_row(
            "region-boundary-walks-satisfy-growth-conditions", label,
            1.0 if bool(ver) else 0.0, 1.0, 0.0,
            detail=(f"leaves={ver.leaves_checked} nodes={ver.nodes_visited} "
                    f"partial={ver.partial}")))
    star = {0: [v for v in range(1, 6)],
            **{v: [0] for v in range(1, 6)}}
    wide = construct_region(star, 0, RegionParams(d1=3, d2=10))
    rows.append(equality_row("star-region-flushes-every-leaf", "star-5",
                             len(wide.members), 6.0, 0.0, detail="d1=3 d2=10"))
    tight = construct_region(star, 0, RegionParams(d1=3, d2=4))
    rows.append(equality_row("star-region-stops-at-center", "star-5",
                             len(tight.members), 1.0, 0.0, detail="d1=3 d2=4"))
    return rows


def _suite_field(cfg: ExperimentConfig) -> list[ReportRow]:
    rng = _rng(cfg.seed)
    pc = ParamClass(beta=1.0, gamma=2.0, lambda_bound=1.0)
    rows = []
    top = min(cfg.max_n, 4)
    for i in range(min(cfg.trials, 12)):
        n = 2 + i % (top - 1)
        rows.extend(field_boost_check(class_instance(rng, n, pc), pc))
    return rows


_SUITES = {
    "saw-oracle": _suite_saw_oracle,
    "stationarity": _suite_stationarity,
    "coupling": _suite_coupling,
    "relaxation": _suite_relaxation,
    "potential": _suite_potential,
    "region": _suite_region,
    "field": _suite_field,
}

SUITE_NAMES = tuple(sorted(_SUITES))


def run_suite(name: str,
              config: ExperimentConfig = ExperimentConfig()) -> MixingReport:
    if name not in _SUITES:
        raise InputError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(SUITE_NAMES)}")
    rows = _SUITES[name](config)
    return MixingReport(suite=name, seed=config.seed, eps=config.eps,
                        rows=tuple(rows))


# ---------------------------------------------------------------------------
# report emission


def report_csv_text(report: MixingReport) -> str:
    lines = [
        f"# ferrospin report schema={SCHEMA_VERSION} suite={report.suite} "
        f"seed={report.seed} eps={report.eps!r}",
        f"# {SCOPE_NOTE}",
        "claim,instance,lhs,rhs,slack,tolerance,passed,detail",
    ]
    for r in report.rows:
        lines.append(",".join([
            r.claim, r.instance, repr(r.lhs), repr(r.rhs), repr(r.slack),
            repr(r.tolerance), "true" if r.passed else "false", r.detail]))
    return "\n".join(lines) + "\n"


def report_json_text(report: MixingReport) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "scope": SCOPE_NOTE,
        "suite": report.suite,
        "seed": report.seed,
        "eps": report.eps,
        "all_passed": report.all_passed,
        "rows": [asdict(r) for r in report.rows],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def emit_report(report: MixingReport, out: str | Path) -> tuple[Path, Path]:
    """Write <out>.csv and <out>.json; returns both paths.  Output carries no
    timestamps, so identical reports serialize identically."""
    base = Path(out)
    if base.suffix in (".csv", ".json"):
        base = base.with_suffix("")
    base.parent.mkdir(parents=True, exist_ok=True)
    csv_path = base.with_suffix(".csv")
    json_path = base.with_suffix(".json")
    csv_path.write_text(report_csv_text(report))
    json_path.write_text(report_json_text(report))
    return csv_path, json_path
