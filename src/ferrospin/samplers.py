"""Stochastic dynamics: single-site and block heat bath, systematic and
alternating scans, censored variants, field dynamics, and the monotone grand
coupling on shared uniforms.

Randomness discipline: every schedule step consumes one step vector
r in [0,1]^(n+1) -- r[0] selects the block, r[1:] are per-vertex thresholds
for the updated block's vertices in increasing vertex order.  A vertex is set
to 1 iff its threshold is <= its conditional probability of 1, where the
conditional pins everything already decided and marginalizes the undecided
remainder of the block.  Two chains fed the same vectors therefore couple
monotonically, and a censored chain with S = V reproduces the uncensored
trajectory bit for bit.

One step path serves every chain: the schedule is compiled once per run
(`_compile`), one update resamples a block in one chain or a coupled pair
(`_update`), and one loop (`_run`), which checks a pair's order once per
step, drives `coupling_time`, `trajectory_csv` and the one-step wrappers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import constants
from .errors import (CapacityError, CouplingInvariantError, InputError)
from .exact import check_bipartition
from .model import TwoSpinSystem, tilt

SCHEDULE_KINDS = ("single-site-glauber", "heat-bath-block",
                  "systematic-scan-block", "alternating-scan",
                  "field-dynamics")


@dataclass(frozen=True)
class ChainState:
    config: tuple[int, ...]
    step: int = 0

    def __post_init__(self):
        if any(s not in (0, 1) for s in self.config):
            raise InputError("configuration entries must be 0/1")
        if self.step < 0:
            raise InputError("step must be nonnegative")


class RandomSource:
    """Seeded counter-based uniform stream (identical seed => identical
    trajectory, independent of platform)."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        if not (0 <= self.seed < 2 ** 128):
            raise InputError(f"seed must lie in [0, 2^128), got {self.seed}")
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))
        self.position = 0

    def uniforms(self, k: int) -> np.ndarray:
        self.position += int(k)
        return self._gen.random(int(k))

    def step_vector(self, n: int) -> np.ndarray:
        """The shared r in [0,1]^(n+1): selector + per-vertex thresholds."""
        return self.uniforms(n + 1)


@dataclass(frozen=True)
class UpdateSchedule:
    """What one chain step does.

    blocks: required for the block kinds; for alternating-scan it is the
    bipartition (exactly two blocks).  censor: optional vertex set S for the
    block kinds; every chosen block is replaced by its intersection with S.
    """

    kind: str
    blocks: tuple[tuple[int, ...], ...] | None = None
    theta: float | None = None
    censor: frozenset[int] | None = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise InputError(f"unknown schedule kind {self.kind!r}")
        if self.blocks is not None:
            norm = tuple(tuple(sorted(set(b))) for b in self.blocks)
            object.__setattr__(self, "blocks", norm)
            if self.kind == "alternating-scan" and len(norm) != 2:
                raise InputError("alternating-scan needs exactly two parts")
        if self.kind == "field-dynamics":
            if self.theta is None or not (0.0 < self.theta <= 1.0):
                raise InputError("field-dynamics needs theta in (0, 1]")
            if self.censor is not None:
                raise InputError("field-dynamics chooses its own block; it "
                                 "takes no censor")
        if self.censor is not None:
            object.__setattr__(self, "censor", frozenset(self.censor))


@dataclass(frozen=True)
class CoupledPair:
    upper: ChainState
    lower: ChainState

    def __post_init__(self):
        if len(self.upper.config) != len(self.lower.config):
            raise InputError("coupled chains must share a vertex set")
        if self.upper.step != self.lower.step:
            raise InputError("coupled chains must share a clock")
        if not dominates(self.upper.config, self.lower.config):
            raise CouplingInvariantError("lower does not precede upper")

    @property
    def merged(self) -> bool:
        return self.upper.config == self.lower.config


def dominates(tau: Sequence[int], sigma: Sequence[int]) -> bool:
    """sigma <= tau coordinatewise."""
    return all(s <= t for s, t in zip(sigma, tau, strict=True))


def site_conditional(system: TwoSpinSystem, config: Sequence[int],
                     v: int) -> float:
    """p(sigma_v = 1 | rest of config) from the local factor ratio, in log
    space: log ratio0/1 = log lambda_v + sum_{nbr=0} log beta - sum_{nbr=1}
    log gamma."""
    if not (0 <= v < system.n):
        raise InputError(f"vertex {v} out of range")
    log_ratio = system.log_lambda[v]
    for (w, e) in system.neighbors(v):
        if config[w] == 0:
            log_ratio += system.log_beta[e]
        else:
            log_ratio -= system.log_gamma[e]
    # p1 = 1/(1+ratio), stable for either sign of log_ratio
    if log_ratio >= 0.0:
        return math.exp(-log_ratio) / (1.0 + math.exp(-log_ratio))
    return 1.0 / (1.0 + math.exp(log_ratio))


def _marginalized_conditional(system: TwoSpinSystem, config: Sequence[int],
                              v: int, undecided: Iterable[int]) -> float:
    """p(sigma_v = 1 | all decided spins), marginalizing the undecided set.

    Enumerates local factors over U = {v} + undecided; factors not touching
    U cancel in the ratio.
    """
    U = sorted(set(undecided) | {v})
    m = len(U)
    if m > constants.BLOCK_ENUM_LIMIT:
        raise CapacityError(
            f"conditional enumeration over {m} vertices exceeds "
            f"{constants.BLOCK_ENUM_LIMIT}")
    pos = {u: i for i, u in enumerate(U)}
    inside = set(U)
    c0 = np.array([system.log_lambda[u] for u in U])
    c1 = np.zeros(m)
    in_edges = []
    for i, u in enumerate(U):
        for (w, e) in system.neighbors(u):
            if w in inside:
                if w > u:  # count each internal edge once
                    in_edges.append((i, pos[w], system.log_beta[e],
                                     system.log_gamma[e]))
            elif config[w] == 0:
                c0[i] += system.log_beta[e]
            else:
                c1[i] += system.log_gamma[e]
    size = 1 << m
    bits = ((np.arange(size)[:, None] >> np.arange(m)) & 1).astype(np.float64)
    logw = bits @ c1 + (1.0 - bits) @ c0
    for (i, j, lb, lg) in in_edges:
        bi, bj = bits[:, i], bits[:, j]
        logw += np.where((bi == 0) & (bj == 0), lb, 0.0)
        logw += np.where((bi == 1) & (bj == 1), lg, 0.0)
    w = np.exp(logw - logw.max())
    onemask = bits[:, pos[v]] == 1.0
    s1 = float(w[onemask].sum())
    s0 = float(w[~onemask].sum())
    return s1 / (s0 + s1)


def _is_independent(system: TwoSpinSystem, block: Sequence[int]) -> bool:
    bset = set(block)
    return not any(w in bset for u in block for (w, _) in system.neighbors(u))


def _compile(system: TwoSpinSystem, schedule: UpdateSchedule):
    """Check a block schedule against `system` once per run.

    Returns select(step, selector) -> (block, independent): the censored
    block that step updates, in increasing vertex order, and whether it is an
    independent set.  Cyclic kinds take block step mod b; the others choose
    uniformly, selector in [(i-1)/b, i/b) picking block i."""
    if schedule.kind == "field-dynamics":
        raise InputError("field dynamics has no block list")
    if schedule.kind == "single-site-glauber":
        blocks = [(v,) for v in range(system.n)]
    elif not schedule.blocks:
        raise InputError(f"{schedule.kind} needs an explicit block list")
    else:
        blocks = list(schedule.blocks)
        for b in blocks:
            for v in b:
                if not (0 <= v < system.n):
                    raise InputError(f"block vertex {v} out of range")
        if schedule.kind == "alternating-scan":
            check_bipartition(system, blocks)
    if schedule.censor is not None:
        blocks = [tuple(v for v in b if v in schedule.censor) for b in blocks]
    compiled = [(b, _is_independent(system, b)) for b in blocks]
    k = len(compiled)
    if schedule.kind in ("systematic-scan-block", "alternating-scan"):
        return lambda step, selector: compiled[step % k]
    return lambda step, selector: compiled[min(int(selector * k), k - 1)]


def _update(system: TwoSpinSystem, configs: tuple[tuple[int, ...], ...],
            block: tuple[int, ...], independent: bool,
            thresholds: Sequence[float]) -> tuple[tuple[int, ...], ...]:
    """Exact heat-bath resample of `block` in each of one or two
    configurations on the same thresholds, one per vertex in increasing
    vertex order (inverse-CDF chain rule)."""
    out = []
    for config in configs:
        new = list(config)
        for k, v in enumerate(block):
            if independent:
                # depends only on the (unchanged) outside configuration
                p1 = site_conditional(system, config, v)
            else:
                p1 = _marginalized_conditional(system, new, v, block[k + 1:])
            new[v] = 1 if thresholds[k] <= p1 else 0
        out.append(tuple(new))
    return tuple(out)


def _run(system: TwoSpinSystem, schedule: UpdateSchedule,
         starts: tuple[tuple[int, ...], ...], rng: RandomSource,
         step: int = 0):
    """Advance one chain, or a coupled pair on shared vectors, from `starts`
    and yield the configurations after each step.  The schedule is compiled,
    and a field-dynamics system tilted, once per run; a pair's order is
    checked once per step."""
    n = system.n
    if schedule.kind == "field-dynamics":
        if len(starts) != 1:
            raise InputError("field dynamics is not a shared-vector block kind")
        theta = schedule.theta
        target = tilt(system, theta)

        def draw(step, config):
            # S: every 1-vertex surely, each 0-vertex with probability theta
            coins = rng.uniforms(n)  # one per vertex, in increasing order
            block = tuple(v for v in range(n)
                          if config[v] == 1 or coins[v] <= theta)
            return (block, _is_independent(target, block),
                    rng.uniforms(len(block)))
    else:
        target, select = system, _compile(system, schedule)

        def draw(step, config):
            r = rng.step_vector(n)
            return (*select(step, r[0]), r[1:])
    configs = starts
    while True:
        block, independent, thresholds = draw(step, configs[0])
        configs = _update(target, configs, block, independent, thresholds)
        if len(configs) == 2 and not dominates(*configs):
            raise CouplingInvariantError(
                f"order violated after updating block {block}")
        step += 1
        yield configs


def schedule_step(system: TwoSpinSystem, schedule: UpdateSchedule,
                  state: ChainState, rng: RandomSource) -> ChainState:
    """One step of the scheduled dynamics (one block for block kinds)."""
    if len(state.config) != system.n:
        raise InputError("state size mismatch")
    (config,) = next(_run(system, schedule, (state.config,), rng, state.step))
    return ChainState(config=config, step=state.step + 1)


def monotone_coupled_step(system: TwoSpinSystem, pair: CoupledPair,
                          schedule: UpdateSchedule,
                          r: Sequence[float]) -> CoupledPair:
    """Advance both chains on the shared vector r in [0,1]^(n+1).

    Both chains update the same block, vertex by vertex in increasing order,
    each setting the vertex to 1 iff the shared threshold is <= its own
    conditional.  Ferromagnetic conditionals are monotone in the decided
    spins, so the coordinatewise order survives; violation raises (checked
    once, by `CoupledPair`)."""
    if len(r) != system.n + 1:
        raise InputError(f"shared vector must have length {system.n + 1}")
    block, independent = _compile(system, schedule)(pair.upper.step, r[0])
    up, low = _update(system, (pair.upper.config, pair.lower.config),
                      block, independent, r[1:])
    return CoupledPair(upper=ChainState(up, pair.upper.step + 1),
                       lower=ChainState(low, pair.lower.step + 1))


def field_dynamics_step(system: TwoSpinSystem, theta: float,
                        state: ChainState, rng: RandomSource) -> ChainState:
    """Select S (every 1-vertex surely, each 0-vertex with probability
    theta), then resample X(S) exactly from the theta-tilted conditional."""
    return schedule_step(system, UpdateSchedule(kind="field-dynamics",
                                                theta=theta), state, rng)


def coupling_time(system: TwoSpinSystem, schedule: UpdateSchedule, seed: int,
                  cap: int = constants.MIXING_STEP_CAP) -> int | None:
    """First step at which the grand coupling from (all-one, all-zero)
    merges; None if the cap is hit first."""
    n = system.n
    chains = _run(system, schedule, ((1,) * n, (0,) * n), RandomSource(seed))
    for t, (up, low) in zip(range(1, cap + 1), chains):
        if up == low:
            return t
    return None


def warm_start_check(system: TwoSpinSystem, config: Sequence[int],
                     N: int | None = None) -> tuple[bool, list[tuple]]:
    """Flag tiny-field vertices sitting at 0 and huge-gamma edges with a 0
    endpoint.  N is the instance size the thresholds refer to (defaults to
    the system's own)."""
    if len(config) != system.n:
        raise InputError("configuration has wrong length")
    N = system.n if N is None else N
    cut = 100.0 * N ** 5
    violations: list[tuple] = []
    for v in range(system.n):
        if config[v] == 0 and system.lam(v) <= 1.0 / cut:
            violations.append(("vertex", v))
    for e, (u, v) in enumerate(system.edges):
        if system.gamma(e) >= cut and (config[u] == 0 or config[v] == 0):
            violations.append(("edge", u, v))
    return not violations, violations


def trajectory_csv(system: TwoSpinSystem, schedule: UpdateSchedule,
                   steps: int, seed: int) -> str:
    """Reproducible trajectory dump: header with the full run recipe, then
    one (step, hamming_weight, coupled_flag) row per step of the chain from
    all-ones.  The coupled flag tracks the grand coupling from (all-one,
    all-zero) on the same seed and is empty for field dynamics."""
    lines = [f"# seed={seed}", f"# kind={schedule.kind}",
             f"# blocks={schedule.blocks!r}", f"# theta={schedule.theta!r}",
             f"# censor={sorted(schedule.censor) if schedule.censor else None!r}",
             f"# steps={steps}", "step,hamming_weight,coupled_flag"]
    n = system.n
    coupled = schedule.kind != "field-dynamics"
    starts = ((1,) * n, (0,) * n) if coupled else ((1,) * n,)
    chains = _run(system, schedule, starts, RandomSource(seed))
    for t, configs in zip(range(1, steps + 1), chains):
        flag = (1 if configs[0] == configs[1] else 0) if coupled else ""
        lines.append(f"{t},{sum(configs[0])},{flag}")
    return "\n".join(lines) + "\n"
