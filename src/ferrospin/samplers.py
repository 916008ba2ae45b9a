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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    bipartition (exactly two blocks).  censor: optional vertex set S; every
    chosen block is replaced by its intersection with S.
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


def _apply_block(system: TwoSpinSystem, config: tuple[int, ...],
                 block: Sequence[int],
                 thresholds: Sequence[float]) -> tuple[int, ...]:
    """Exact heat-bath resample of `block`, one threshold per vertex in
    increasing vertex order (inverse-CDF chain rule)."""
    block = sorted(set(block))
    if len(thresholds) < len(block):
        raise InputError("not enough thresholds for the block")
    if not block:
        return config
    out = list(config)
    if _is_independent(system, block):
        # conditionals depend only on the (unchanged) outside configuration
        for k, v in enumerate(block):
            out[v] = 1 if thresholds[k] <= site_conditional(system, config, v) else 0
        return tuple(out)
    if len(block) > constants.BLOCK_ENUM_LIMIT:
        raise CapacityError(
            f"dependent block of size {len(block)} exceeds "
            f"{constants.BLOCK_ENUM_LIMIT}")
    for k, v in enumerate(block):
        p1 = _marginalized_conditional(system, out, v, block[k + 1:])
        out[v] = 1 if thresholds[k] <= p1 else 0
    return tuple(out)


def _resolve_blocks(system: TwoSpinSystem,
                    schedule: UpdateSchedule) -> list[tuple[int, ...]]:
    if schedule.kind == "single-site-glauber":
        return [(v,) for v in range(system.n)]
    if schedule.kind == "field-dynamics":
        raise InputError("field dynamics has no block list")
    if schedule.blocks is None:
        raise InputError(f"{schedule.kind} needs an explicit block list")
    for b in schedule.blocks:
        for v in b:
            if not (0 <= v < system.n):
                raise InputError(f"block vertex {v} out of range")
    if schedule.kind == "alternating-scan":
        check_bipartition(system, schedule.blocks)
    return list(schedule.blocks)


def _select_block(schedule: UpdateSchedule, blocks: list[tuple[int, ...]],
                  step: int, selector: float) -> tuple[int, ...]:
    if schedule.kind in ("systematic-scan-block", "alternating-scan"):
        return blocks[step % len(blocks)]
    # uniform block choice: selector in [(i-1)/b, i/b) picks block i
    return blocks[min(int(selector * len(blocks)), len(blocks) - 1)]


def schedule_step(system: TwoSpinSystem, schedule: UpdateSchedule,
                  state: ChainState, rng: RandomSource) -> ChainState:
    """One step of the scheduled dynamics (one block for block kinds)."""
    if len(state.config) != system.n:
        raise InputError("state size mismatch")
    if schedule.kind == "field-dynamics":
        return field_dynamics_step(system, schedule.theta, state, rng)
    blocks = _resolve_blocks(system, schedule)
    r = rng.step_vector(system.n)
    block = _select_block(schedule, blocks, state.step, r[0])
    if schedule.censor is not None:
        block = tuple(v for v in block if v in schedule.censor)
    config = _apply_block(system, state.config, block, r[1:])
    return ChainState(config=config, step=state.step + 1)


def monotone_coupled_step(system: TwoSpinSystem, pair: CoupledPair,
                          schedule: UpdateSchedule,
                          r: Sequence[float]) -> CoupledPair:
    """Advance both chains on the shared vector r in [0,1]^(n+1).

    Both chains update the same block, vertex by vertex in increasing order,
    each setting the vertex to 1 iff the shared threshold is <= its own
    conditional.  Ferromagnetic conditionals are monotone in the decided
    spins, so the coordinatewise order survives; violation raises."""
    if schedule.kind == "field-dynamics":
        raise InputError("field dynamics is not a shared-vector block kind")
    if len(r) != system.n + 1:
        raise InputError(f"shared vector must have length {system.n + 1}")
    if not dominates(pair.upper.config, pair.lower.config):
        raise CouplingInvariantError("precondition: lower must precede upper")
    blocks = _resolve_blocks(system, schedule)
    block = _select_block(schedule, blocks, pair.upper.step, r[0])
    if schedule.censor is not None:
        block = tuple(v for v in block if v in schedule.censor)
    up = _apply_block(system, pair.upper.config, block, r[1:])
    low = _apply_block(system, pair.lower.config, block, r[1:])
    if not dominates(up, low):
        raise CouplingInvariantError(
            f"order violated after updating block {tuple(block)}")
    return CoupledPair(upper=ChainState(up, pair.upper.step + 1),
                       lower=ChainState(low, pair.lower.step + 1))


def field_dynamics_step(system: TwoSpinSystem, theta: float,
                        state: ChainState, rng: RandomSource) -> ChainState:
    """Select S (every 1-vertex surely, each 0-vertex with probability
    theta), then resample X(S) exactly from the theta-tilted conditional."""
    if not (0.0 < theta <= 1.0):
        raise InputError(f"theta must lie in (0,1], got {theta}")
    n = system.n
    coins = rng.uniforms(n)  # one per vertex, in increasing order
    S = [v for v in range(n)
         if state.config[v] == 1 or coins[v] <= theta]
    tilted = tilt(system, theta)
    thresholds = rng.uniforms(len(S))
    config = _apply_block(tilted, state.config, S, thresholds)
    return ChainState(config=config, step=state.step + 1)


def run_chain(system: TwoSpinSystem, schedule: UpdateSchedule, steps: int,
              seed: int, start: Sequence[int] | None = None,
              collect_occupation: bool = False):
    """Run `steps` schedule steps from `start` (default all-ones).

    Returns the final ChainState, or (state, per-vertex occupation counts)
    when collect_occupation is set; counts tally the configuration after
    each step."""
    if steps < 0:
        raise InputError("steps must be nonnegative")
    config = tuple(1 for _ in range(system.n)) if start is None else tuple(start)
    state = ChainState(config=config, step=0)
    if len(state.config) != system.n:
        raise InputError("start configuration has wrong length")
    rng = RandomSource(seed)
    counts = np.zeros(system.n, dtype=np.int64)
    for _ in range(steps):
        state = schedule_step(system, schedule, state, rng)
        if collect_occupation:
            counts += np.asarray(state.config)
    if collect_occupation:
        return state, counts
    return state


def coupling_time(system: TwoSpinSystem, schedule: UpdateSchedule, seed: int,
                  cap: int = constants.MIXING_STEP_CAP) -> int | None:
    """First step at which the grand coupling from (all-one, all-zero)
    merges; None if the cap is hit first."""
    n = system.n
    pair = CoupledPair(upper=ChainState(tuple(1 for _ in range(n))),
                       lower=ChainState(tuple(0 for _ in range(n))))
    rng = RandomSource(seed)
    for t in range(1, cap + 1):
        pair = monotone_coupled_step(system, pair, schedule,
                                     rng.step_vector(n))
        if pair.merged:
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
                   steps: int, seed: int,
                   start: Sequence[int] | None = None) -> str:
    """Reproducible trajectory dump: header with the full run recipe, then
    one (step, hamming_weight, coupled_flag) row per step.  The coupled flag
    tracks the grand coupling from (all-one, all-zero) on the same seed and
    is empty for field dynamics."""
    lines = [f"# seed={seed}", f"# kind={schedule.kind}",
             f"# blocks={schedule.blocks!r}", f"# theta={schedule.theta!r}",
             f"# censor={sorted(schedule.censor) if schedule.censor else None!r}",
             f"# steps={steps}", "step,hamming_weight,coupled_flag"]
    coupled = schedule.kind != "field-dynamics"
    if coupled:
        n = system.n
        pair = CoupledPair(upper=ChainState(tuple(1 for _ in range(n))),
                           lower=ChainState(tuple(0 for _ in range(n))))
        rng = RandomSource(seed)
        for t in range(1, steps + 1):
            pair = monotone_coupled_step(system, pair, schedule,
                                         rng.step_vector(n))
            weight = sum(pair.upper.config)
            lines.append(f"{t},{weight},{1 if pair.merged else 0}")
    else:
        rng = RandomSource(seed)
        config = tuple(1 for _ in range(system.n)) if start is None else tuple(start)
        state = ChainState(config=config)
        for t in range(1, steps + 1):
            state = schedule_step(system, schedule, state, rng)
            lines.append(f"{t},{sum(state.config)},")
    return "\n".join(lines) + "\n"
