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

One compiled kernel serves every chain.  `_compile` checks the schedule once
per run and returns a `_Kernel`: the blocks, each marked independent or not,
how a step picks one, and every vertex's site table (`_site`, built with the
kernel): a neighbour bitmask and a `_Memo` over log lambda_v and the (bit,
log beta_e, log gamma_e) terms of its neighbours.  The one-step calls
(`schedule_step`, `monotone_coupled_step`, `field_dynamics_step`) take their
kernel from a small cache that the system holds by schedule (`_kernel`), so
repeated steps compile once.  Chains carry configurations as int bitmasks
(`model.config_to_index`: bit v is sigma_v), so a pair's order check is
`low & ~up == 0`, the merge check `up == low` and the Hamming weight
`bit_count()`.  A site conditional depends only on `config & mask[v]`; v's
`_Memo` keeps it by that pattern for the whole run while v has at most
`_MEMO_MAX_DEGREE` (8) neighbours, and computes it on every lookup
otherwise.  Every conditional is the float of the one scalar formula
`_site_p1`.  A dependent block builds one 2^m log-weight table per chain per
update and decides its vertices in order, each from the two halves of what
is left.

One update (`_Kernel.update`) resamples a block in one chain or a coupled
pair.  One loop (`_run`) drives `trajectory_csv`, every field-dynamics step
and every coupling that the lockstep does not take.  For the block kinds it
draws step-major arrays (steps x (n+1)) by the one refill rule (`_refill`:
twice the last refill, starting at 32 steps, within `_DRAW_UNIFORMS` uniforms
over the live rows, at least four steps per row, never past what is left),
picks the blocks of a whole array at once from column 0 and turns into floats
only the columns that the widest chosen block reads; field dynamics draws
step by step.  A block-kind `schedule_step` updates on the next n+1 uniforms
of its source, `monotone_coupled_step` on the vector it is given.
`coupling_times` (`coupling_time` is its one-seed form) takes
`_LOCKSTEP_ROWS` seeds at a time.  When every block is an independent set of
vertices of degree at most `_MEMO_MAX_DEGREE`, a batch runs in lockstep
(`_lockstep`) as rows of a 2 x K x (n+1) spin array, all updated each step in
one gather and compare (`_Lanes`, filled from the kernel's `_Memo`s);
otherwise each seed's pair runs through `_run`.
`_philox`, the one constructor of a keyed generator (here and for the
harness's random instances), checks the seed and keys the stream of
`np.random.Philox(key=seed)`.  `RandomSource` hands it out in order straight
from the generator, flat (`uniforms`) or step-major (`steps`); concatenated
draws equal one draw, so no split of the draws changes a trajectory.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import starmap
from typing import Iterable, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import constants
from .errors import (CapacityError, CouplingInvariantError, InputError)
from .exact import check_bipartition
from .model import (TwoSpinSystem, _check_config, _integer, config_to_index,
                    index_to_config, tilt)

# site tables memoise p(sigma_v = 1) only for vertices of at most this many
# neighbours, so a table holds at most 2^8 entries however long the run
_MEMO_MAX_DEGREE = 8
# the most uniforms per step-vector refill, unless four steps a row need more
_DRAW_UNIFORMS = 1 << 16
# seeds that coupling_times advances together
_LOCKSTEP_ROWS = 256
# compiled kernels a system keeps for the one-step calls
_KERNELS_PER_SYSTEM = 4
_WORD = (1 << 64) - 1

SCHEDULE_KINDS = ("single-site-glauber", "heat-bath-block",
                  "systematic-scan-block", "alternating-scan",
                  "field-dynamics")


@dataclass(frozen=True)
class ChainState:
    config: tuple[int, ...]
    step: int = 0

    def __post_init__(self):
        if not all(map((0, 1).__contains__, self.config)):
            raise InputError("configuration entries must be 0/1")
        if _integer(self.step, "step") < 0:
            raise InputError("step must be nonnegative")


class _Keyless(ISeedSequence):
    """Stands in for a SeedSequence when a Philox is built, so that building
    one reads no OS entropy; `_philox` sets the key right after."""

    __slots__ = ()

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype=dtype)


def _philox(seed: int) -> np.random.Generator:
    """The stream of `np.random.Philox(key=seed)`, keyed through `state`;
    a seed that is not an integer in [0, 2^128) is an input error."""
    seed = _integer(seed, "seed")
    if not 0 <= seed < 2 ** 128:
        raise InputError(f"seed must lie in [0, 2^128), got {seed}")
    bits = np.random.Philox(_Keyless())
    bits.state = {"bit_generator": "Philox",
                  "state": {"counter": np.zeros(4, dtype=np.uint64),
                            "key": np.array([seed & _WORD, seed >> 64],
                                            dtype=np.uint64)},
                  "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                  "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bits)


class RandomSource:
    """Seeded counter-based uniform stream (identical seed => identical
    trajectory, independent of platform), handed out in order straight
    from the Philox generator; `position` counts the uniforms handed out."""

    def __init__(self, seed: int):
        self._gen = _philox(seed)
        self.seed = operator.index(seed)
        self.position = 0

    def uniforms(self, k: int) -> np.ndarray:
        k = _integer(k, "uniform count")
        if k < 0:
            raise InputError(f"cannot draw {k} uniforms")
        self.position += k
        return self._gen.random(k)

    def steps(self, count: int, width: int) -> np.ndarray:
        """The next count * width uniforms as a count x width array, one
        row per step."""
        count, width = _integer(count, "step count"), _integer(width, "width")
        if count < 0 or width < 0:
            raise InputError(f"cannot draw count={count} x width={width}")
        self.position += count * width
        return self._gen.random((count, width))


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
            norm = tuple(tuple(sorted({_integer(v, "block vertex") for v in b}))
                         for b in self.blocks)
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
            object.__setattr__(self, "censor", frozenset(
                _integer(v, "censored vertex") for v in self.censor))


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
    return all(starmap(operator.le, zip(sigma, tau, strict=True)))


def _site_p1(log_ratio: float, terms, pattern: int) -> float:
    """p(sigma_v = 1) from log lambda_v, v's (bit, log beta, log gamma)
    terms in neighbour order and the neighbours' spins as a bitmask: log
    ratio0/1 = log lambda_v + sum_{nbr=0} log beta - sum_{nbr=1} log
    gamma."""
    for bit, lb, lg in terms:
        if pattern & bit:
            log_ratio -= lg
        else:
            log_ratio += lb
    # p1 = 1/(1+ratio), stable for either sign of log_ratio
    if log_ratio >= 0.0:
        return math.exp(-log_ratio) / (1.0 + math.exp(-log_ratio))
    return 1.0 / (1.0 + math.exp(log_ratio))


def site_conditional(system: TwoSpinSystem, config: Sequence[int],
                     v: int) -> float:
    """p(sigma_v = 1 | rest of config) from the local factor ratio, in log
    space."""
    _integer(v, "vertex", system.n)
    _check_config(config, system.n, "config")
    mask, memo = _site(system, v)
    return memo[config_to_index(config) & mask]


class _Memo(dict):
    """p(sigma_v = 1) by neighbour pattern from `_site_p1`, each entry kept
    once computed while v has at most `_MEMO_MAX_DEGREE` neighbours, and
    computed on every lookup otherwise, so a table never holds more than
    2^8 entries however long the run."""

    __slots__ = ("log_lambda", "terms", "keep")

    def __init__(self, log_lambda: float, terms):
        self.log_lambda, self.terms = log_lambda, terms
        self.keep = len(terms) <= _MEMO_MAX_DEGREE

    def __missing__(self, pattern: int) -> float:
        p1 = _site_p1(self.log_lambda, self.terms, pattern)
        if self.keep:
            self[pattern] = p1
        return p1


def _site(system: TwoSpinSystem, v: int) -> tuple[int, _Memo]:
    """v's site table: (bitmask of v's neighbours, `_Memo` over log lambda_v
    and (1 << w, log beta_e, log gamma_e) for each neighbour w, increasing)."""
    lb, lg = system.log_beta, system.log_gamma
    terms = tuple([(1 << w, lb[e], lg[e]) for w, e in system.adjacency[v]])
    return sum([b for b, _, _ in terms]), _Memo(system.log_lambda[v], terms)


class _Kernel:
    """One schedule compiled against one system, shared by every chain of a
    run: the (block, independent) pairs and how a step picks one (None for
    field dynamics, which draws its block from the state and runs on the
    tilted system), and every vertex's site table (`_site`), built with the
    kernel; `update`, `independent`, `block_table` and `_Lanes` read them."""

    __slots__ = ("system", "blocks", "cyclic", "theta", "sites")

    def __init__(self, system: TwoSpinSystem, theta: float | None = None):
        self.system, self.theta = system, theta
        # set by _compile for the block kinds
        self.blocks, self.cyclic = None, False
        self.sites = [_site(system, v) for v in range(system.n)]

    def select(self, step: int, selector: float) -> tuple:
        """(block, independent) of one step.  Cyclic kinds take block step
        mod b; the others choose uniformly, selector in [(i-1)/b, i/b)
        picking block i."""
        k = len(self.blocks)
        return self.blocks[step % k if self.cyclic
                           else min(int(selector * k), k - 1)]

    def picks(self, steps, selectors: np.ndarray):
        """`select`'s block indices for an array of selectors, at `steps`
        (one step for all of them, or an array as long as `selectors`): the
        same float products and truncations."""
        k = len(self.blocks)
        if self.cyclic:
            return steps % k
        return np.minimum((selectors * k).astype(np.intp), k - 1)

    def independent(self, block: Sequence[int]) -> bool:
        inside = sum(1 << v for v in block)
        return not any(self.sites[v][0] & inside for v in block)

    def update(self, configs: tuple[int, ...], block: tuple[int, ...],
               independent: bool, thresholds: Sequence[float]
               ) -> tuple[int, ...]:
        """Exact heat-bath resample of `block` in each of one or two
        bitmask configurations on the same thresholds, one per vertex in
        increasing vertex order (inverse-CDF chain rule)."""
        out = []
        if independent:
            # a vertex's conditional reads only spins outside the block
            sites = self.sites
            for config in configs:
                for v, th in zip(block, thresholds):
                    mask, table = sites[v]
                    if th <= table[config & mask]:
                        config |= 1 << v
                    else:
                        config &= ~(1 << v)
                out.append(config)
            return tuple(out)
        if len(block) > constants.BLOCK_ENUM_LIMIT:
            raise CapacityError(
                f"conditional enumeration over {len(block)} vertices exceeds "
                f"{constants.BLOCK_ENUM_LIMIT}")
        for config in configs:
            # keep the half that matches each decision, so the table always
            # ranges over the undecided rest of the block
            table = self.block_table(config, block)
            for v, th in zip(block, thresholds):
                if th <= _first_p1(table):
                    config |= 1 << v
                    table = table[1]
                else:
                    config &= ~(1 << v)
                    table = table[0]
            out.append(config)
        return tuple(out)

    def block_table(self, config: int, block: tuple[int, ...]) -> np.ndarray:
        """Log weights of the 2^m fillings of `block` (m vertices in
        increasing order) given the spins of `config` outside it, one 0/1
        axis per block vertex in block order.  Factors not touching the
        block cancel in every conditional and are left out."""
        inside = sum(1 << u for u in block)
        logw = np.zeros(())
        in_edges = []
        for a, u in enumerate(block):
            memo = self.sites[u][1]
            x0, x1 = memo.log_lambda, 0.0
            for bit, lb, lg in memo.terms:
                if bit & inside:
                    if bit >> u > 1:  # count each internal edge once
                        in_edges.append(
                            (a, (inside & (bit - 1)).bit_count(), lb, lg))
                elif config & bit:
                    x1 += lg
                else:
                    x0 += lb
            logw = np.add.outer(logw, (x0, x1))
        for a, b, lb, lg in in_edges:
            both = [slice(None)] * len(block)
            both[a] = both[b] = 0
            logw[tuple(both)] += lb
            both[a] = both[b] = 1
            logw[tuple(both)] += lg
        return logw


def _first_p1(table: np.ndarray) -> float:
    """p(first axis = 1) under a log-weight table: the mass of table[1]."""
    w = np.exp(table - table.max())
    s1 = float(w[1].sum())
    return s1 / (float(w[0].sum()) + s1)


def _compile(system: TwoSpinSystem, schedule: UpdateSchedule) -> _Kernel:
    """Compile `schedule` against `system` once per run.

    For the block kinds the kernel's blocks are the censored blocks in
    increasing vertex order, each with whether it is an independent set;
    `_Kernel.select` and `_Kernel.picks` choose among them."""
    if schedule.kind == "field-dynamics":
        return _Kernel(tilt(system, schedule.theta), theta=schedule.theta)
    if schedule.kind == "single-site-glauber":
        blocks = [(v,) for v in range(system.n)]
    elif not schedule.blocks:
        raise InputError(f"{schedule.kind} needs an explicit block list")
    else:
        blocks = list(schedule.blocks)
        for b in blocks:
            for v in b:
                _integer(v, "block vertex", system.n)
        if schedule.kind == "alternating-scan":
            check_bipartition(system, blocks)
    if schedule.censor is not None:
        for v in schedule.censor:
            _integer(v, "censored vertex", system.n)
        blocks = [tuple(v for v in b if v in schedule.censor) for b in blocks]
    kernel = _Kernel(system)
    kernel.blocks = [(b, kernel.independent(b)) for b in blocks]
    kernel.cyclic = schedule.kind in ("systematic-scan-block",
                                      "alternating-scan")
    return kernel


def _kernel(system: TwoSpinSystem, schedule: UpdateSchedule) -> _Kernel:
    """The compiled kernel that the one-step calls share, from a cache the
    system holds by schedule (the oldest of `_KERNELS_PER_SYSTEM` goes
    first)."""
    kernels = system._sampler_kernels
    kernel = kernels.get(schedule)
    if kernel is None:
        kernel = _compile(system, schedule)
        if len(kernels) >= _KERNELS_PER_SYSTEM:
            del kernels[next(iter(kernels))]
        kernels[schedule] = kernel
    return kernel


def _refill(last: int, rows: int, width: int, left: int) -> int:
    """Steps per row of the next refill of `rows` rows of `width` uniforms:
    twice the `last` (16 before the first), within `_DRAW_UNIFORMS` in all
    (at least four), never past the `left` steps still to run."""
    return min(2 * last, left, max(4, _DRAW_UNIFORMS // (rows * width)))


def _run(kernel: _Kernel, starts: tuple[int, ...], rng: RandomSource,
         steps: int):
    """Advance one chain, or a coupled pair on shared vectors, from the
    bitmask configurations `starts` for `steps` steps and yield the
    configurations after each step.  The block kinds draw step-major arrays
    by `_refill`, so a run stopped early has drawn about what it read, pick
    the blocks of a whole draw at once from column 0 and turn into floats
    only the columns that the widest chosen block reads.  A pair's order is
    checked once per step until the pair merges."""
    n = kernel.system.n
    update = kernel.update
    configs = starts
    if kernel.blocks is None:
        if len(starts) != 1:
            raise InputError("field dynamics is not a shared-vector block kind")
        uniforms, theta = rng.uniforms, kernel.theta
        for _ in range(steps):
            # S: every 1-vertex surely, each 0-vertex with probability theta
            config = configs[0]
            coins = uniforms(n).tolist()  # one per vertex, in increasing order
            block = tuple(v for v in range(n)
                          if config >> v & 1 or coins[v] <= theta)
            configs = update(configs, block, kernel.independent(block),
                             uniforms(len(block)).tolist())
            yield configs
        return
    blocks, width = kernel.blocks, n + 1
    step, count = 0, 16
    while steps > 0:
        count = _refill(count, 1, width, steps)
        steps -= count
        r = rng.steps(count, width)
        first = step % len(blocks)
        chosen = [blocks[i] for i in kernel.picks(
            np.arange(first, first + count), r[:, 0]).tolist()]
        reach = max([len(block) for block, _ in chosen])
        for (block, independent), thresholds in zip(
                chosen, r[:, 1:reach + 1].tolist()):
            if len(configs) == 2 and configs[0] == configs[1]:
                # a merged pair stays merged: one update serves both chains
                (config,) = update(configs[:1], block, independent,
                                   thresholds)
                configs = (config, config)
            else:
                configs = update(configs, block, independent, thresholds)
                if len(configs) == 2 and configs[1] & ~configs[0]:
                    raise CouplingInvariantError(
                        f"order violated after updating block {block}")
            step += 1
            yield configs


def schedule_step(system: TwoSpinSystem, schedule: UpdateSchedule,
                  state: ChainState, rng: RandomSource) -> ChainState:
    """One step of the scheduled dynamics (one block for block kinds)."""
    if len(state.config) != system.n:
        raise InputError("state size mismatch")
    kernel = _kernel(system, schedule)
    configs = (config_to_index(state.config),)
    if kernel.blocks is None:
        (config,) = next(_run(kernel, configs, rng, 1))
    else:
        r = rng.uniforms(system.n + 1).tolist()
        block, independent = kernel.select(state.step, r[0])
        (config,) = kernel.update(configs, block, independent, r[1:])
    return ChainState(config=index_to_config(config, system.n),
                      step=state.step + 1)


def monotone_coupled_step(system: TwoSpinSystem, pair: CoupledPair,
                          schedule: UpdateSchedule,
                          r: Sequence[float]) -> CoupledPair:
    """Advance both chains on the shared vector r in [0,1]^(n+1).

    Both chains update the same block, vertex by vertex in increasing order,
    each setting the vertex to 1 iff the shared threshold is <= its own
    conditional.  Ferromagnetic conditionals are monotone in the decided
    spins, so the coordinatewise order survives; violation raises (checked
    once, by `CoupledPair`)."""
    n = system.n
    if len(pair.upper.config) != n:
        raise InputError("state size mismatch")
    if len(r) != n + 1:
        raise InputError(f"shared vector must have length {n + 1}")
    if schedule.kind == "field-dynamics":
        raise InputError("field dynamics has no block list")
    kernel = _kernel(system, schedule)
    r = np.asarray(r, dtype=np.float64).tolist()  # floats compare fastest
    block, independent = kernel.select(pair.upper.step, r[0])
    up, low = kernel.update((config_to_index(pair.upper.config),
                             config_to_index(pair.lower.config)),
                            block, independent, r[1:])
    return CoupledPair(
        upper=ChainState(index_to_config(up, n), pair.upper.step + 1),
        lower=ChainState(index_to_config(low, n), pair.lower.step + 1))


def field_dynamics_step(system: TwoSpinSystem, theta: float,
                        state: ChainState, rng: RandomSource) -> ChainState:
    """Select S (every 1-vertex surely, each 0-vertex with probability
    theta), then resample X(S) exactly from the theta-tilted conditional."""
    return schedule_step(system, UpdateSchedule(kind="field-dynamics",
                                                theta=theta), state, rng)


class _Lanes:
    """The blocks of a lockstep kernel (each an independent set of vertices
    of degree at most `_MEMO_MAX_DEGREE`) as dense arrays.  Column n of a
    spin row is a dummy vertex that stays 0: it pads neighbour lists and
    blocks, and its one p1 entry of -1 fails every threshold.

    p1[start[v] + c] is p(sigma_v = 1) when bit i of c is the spin of v's
    i-th neighbour; a vertex of degree d owns 2^d entries (`owner`).  An
    entry is NaN until a step first reads it, and is then copied from v's
    `_Memo` in the kernel (`fill`), so it is the float that `_Kernel.update`
    compares with, each pattern is computed once for both routes, and a
    short run computes no more conditionals than the memo would.  nbrs[v]
    lists v's neighbours, weights[i] is 2^i and members[b] lists block b's
    vertices."""

    __slots__ = ("sites", "p1", "start", "owner", "nbrs", "weights",
                 "members")

    def __init__(self, kernel: _Kernel):
        self.sites = kernel.sites
        n, adjacency = kernel.system.n, kernel.system.adjacency
        blocks = [block for block, _ in kernel.blocks]
        vertices = sorted(set().union(*blocks)) + [n]
        nbrs = [[w for w, _ in adjacency[v]] for v in vertices[:-1]] + [[n]]
        self.nbrs = np.full((n + 1, max(map(len, nbrs))), n, dtype=np.intp)
        for v, row in zip(vertices, nbrs):
            self.nbrs[v, :len(row)] = row
        sizes = [1 << len(row) for row in nbrs[:-1]] + [1]
        self.start = np.zeros(n + 1, dtype=np.intp)
        self.start[vertices] = np.cumsum([0] + sizes[:-1])
        self.owner = np.repeat(vertices, sizes)
        self.p1 = np.full(self.owner.size, np.nan)
        self.p1[-1] = -1.0
        self.weights = 1 << np.arange(self.nbrs.shape[1], dtype=np.intp)
        self.members = np.full(
            (len(blocks), max([len(b) for b in blocks] + [1])), n,
            dtype=np.intp)
        for b, block in enumerate(blocks):
            self.members[b, :len(block)] = block

    def fill(self, entries: np.ndarray) -> None:
        """Copy the p1 entries `entries` from their vertices' `_Memo`s."""
        for e in np.unique(entries).tolist():
            v = int(self.owner[e])
            c = e - int(self.start[v])
            memo = self.sites[v][1]
            self.p1[e] = memo[sum([bit for i, (bit, _, _)
                                   in enumerate(memo.terms) if c >> i & 1])]

    def update(self, spins: np.ndarray, picked: np.ndarray,
               thresholds: np.ndarray) -> None:
        """Resample block picked[i] of both chains of each row i in place,
        on that row's thresholds: one gather and compare for every block
        vertex of every row at once (the vertices of an independent block
        read only spins outside it)."""
        rows = np.arange(spins.shape[1])
        members = self.members[picked]
        patterns = spins[:, rows[:, None, None], self.nbrs[members]]
        entries = self.start[members] + patterns.dot(self.weights)
        p1 = self.p1[entries]
        unread = np.isnan(p1)
        if unread.any():
            self.fill(entries[unread])
            p1 = self.p1[entries]
        spins[:, rows[:, None], members] = (
            thresholds[:, :members.shape[1]] <= p1)


def _lockstep(kernel: _Kernel, lanes: _Lanes, sources: list[RandomSource],
              cap: int) -> tuple[list[int | None], tuple | None]:
    """Merge times of the pairs from (all-one, all-zero) fed by `sources`,
    all advanced together step by step, and the (row, block) of the lowest
    row whose order broke, if any.  `coupling_times` sends a kernel here
    only when `lanes` holds all its blocks.

    The pairs are rows of a 2 x rows x (n+1) spin array.  Each refill draws
    every live row's next step vectors (`_refill`) as one step-major block,
    so a row reads its stream exactly as `_run` does.  Each step every row
    updates at once (`_Lanes.update`); a row leaves when it merges, reaches
    `cap` or breaks the order."""
    n = kernel.system.n
    width, blocks = n + 1, kernel.blocks
    times: list[int | None] = [None] * len(sources)
    broken = None
    spins = np.zeros((2, len(sources), width), dtype=np.uint8)
    spins[0, :, :n] = 1
    ids = np.arange(len(sources))
    t, size = 0, 16
    while ids.size and t < cap:
        size = _refill(size, ids.size, width, cap - t)
        draws = np.stack([sources[i].steps(size, width)
                          for i in ids.tolist()])
        live = np.arange(ids.size)
        for j in range(size):
            step_draws = draws[live, j]
            picked = kernel.picks(t, step_draws[:, 0])
            t += 1
            if kernel.cyclic:
                picked = np.full(ids.size, picked)
            lanes.update(spins, picked, step_draws[:, 1:])
            up, low = spins
            broke = (low > up).any(axis=1)
            merged = (low == up).all(axis=1)
            done = broke | merged
            if done.any():
                for i in broke.nonzero()[0].tolist():
                    if broken is None or ids[i] < broken[0]:
                        broken = (int(ids[i]), blocks[picked[i]][0])
                for i in merged.nonzero()[0].tolist():
                    times[ids[i]] = t
                keep = ~done
                ids, live, spins = ids[keep], live[keep], spins[:, keep]
            if not ids.size or t == cap:
                break
    return times, broken


def coupling_times(system: TwoSpinSystem, schedule: UpdateSchedule,
                   seeds: Iterable[int],
                   cap: int = constants.MIXING_STEP_CAP) -> list[int | None]:
    """`coupling_time` for each seed, `_LOCKSTEP_ROWS` seeds at a time on
    one compiled kernel; each batch builds its seeds' sources before any
    step.  When every block is an independent set of vertices of degree at
    most `_MEMO_MAX_DEGREE`, a batch runs in lockstep (`_lockstep`);
    otherwise its seeds run one after another through `_run`.  A broken
    order raises for the first seed that breaks it."""
    cap = _integer(cap, "cap")
    kernel = _compile(system, schedule)
    if kernel.blocks is None:
        raise InputError("field dynamics is not a shared-vector block kind")
    lanes = (_Lanes(kernel) if all(
        independent and all(kernel.sites[v][1].keep for v in block)
        for block, independent in kernel.blocks) else None)
    seeds, top = list(seeds), (1 << system.n) - 1
    times: list[int | None] = []
    for lo in range(0, len(seeds), _LOCKSTEP_ROWS):
        sources = [RandomSource(s) for s in seeds[lo:lo + _LOCKSTEP_ROWS]]
        if lanes is None:
            for source in sources:
                chains = enumerate(_run(kernel, (top, 0), source, cap), 1)
                times.append(next((t for t, (up, low) in chains if up == low),
                                  None))
            continue
        batch, broken = _lockstep(kernel, lanes, sources, cap)
        if broken is not None:
            raise CouplingInvariantError(
                f"order violated after updating block {broken[1]}")
        times += batch
    return times


def coupling_time(system: TwoSpinSystem, schedule: UpdateSchedule, seed: int,
                  cap: int = constants.MIXING_STEP_CAP) -> int | None:
    """First step at which the grand coupling from (all-one, all-zero)
    merges; None if the cap is hit first."""
    return coupling_times(system, schedule, (seed,), cap)[0]


def warm_start_check(system: TwoSpinSystem, config: Sequence[int],
                     N: int | None = None) -> tuple[bool, list[tuple]]:
    """Flag tiny-field vertices sitting at 0 and huge-gamma edges with a 0
    endpoint, comparing logs.  N is the instance size the thresholds refer
    to (defaults to the system's own)."""
    _check_config(config, system.n, "config")
    N = system.n if N is None else N
    if N < 1:
        raise InputError(f"instance size must be positive, got {N}")
    log_cut = math.log(100.0) + 5 * math.log(N)
    violations: list[tuple] = []
    for v in range(system.n):
        if config[v] == 0 and system.log_lambda[v] <= -log_cut:
            violations.append(("vertex", v))
    for e, (u, v) in enumerate(system.edges):
        if system.log_gamma[e] >= log_cut and 0 in (config[u], config[v]):
            violations.append(("edge", u, v))
    return not violations, violations


def trajectory_csv(system: TwoSpinSystem, schedule: UpdateSchedule,
                   steps: int, seed: int) -> str:
    """Reproducible trajectory dump: header with the full run recipe, then
    one (step, hamming_weight, coupled_flag) row per step of the chain from
    all-ones.  The coupled flag tracks the grand coupling from (all-one,
    all-zero) on the same seed and is empty for field dynamics.  More than
    `constants.MIXING_STEP_CAP` steps is a capacity error."""
    if _integer(steps, "steps") < 0:
        raise InputError(f"steps must be at least 0, got {steps}")
    if steps > constants.MIXING_STEP_CAP:
        raise CapacityError(f"{steps} chain steps exceed the step cap "
                            f"{constants.MIXING_STEP_CAP}")
    lines = [f"# seed={seed}", f"# kind={schedule.kind}",
             f"# blocks={schedule.blocks!r}", f"# theta={schedule.theta!r}",
             f"# censor={sorted(schedule.censor) if schedule.censor else None!r}",
             f"# steps={steps}", "step,hamming_weight,coupled_flag"]
    top = (1 << system.n) - 1
    coupled = schedule.kind != "field-dynamics"
    starts = (top, 0) if coupled else (top,)
    chains = _run(_compile(system, schedule), starts, RandomSource(seed),
                  steps=steps)
    for t, configs in zip(range(1, steps + 1), chains):
        flag = (1 if configs[0] == configs[1] else 0) if coupled else ""
        lines.append(f"{t},{configs[0].bit_count()},{flag}")
    return "\n".join(lines) + "\n"
