"""Good-neighbourhood regions and aggregate influence at the centre vertex.

A region S_v around a centre v is grown by a depth-first search over the
self-avoiding-walk tree of the graph (with cycle-closing copies removed).
The walk stops early once the accumulated branching along the path reaches
d1, flushing all children of the stopping node when there are fewer than d2
of them.  The resulting boundary admits two per-leaf path conditions that
this module re-checks on a second pass over the walks, a notion of "good"
boundary configuration, and an exact aggregate-influence computation over
all good configurations at desk scale, from one log-weight table of the
region's induced subsystem.  Growth and verification both run on
`sawtree._walks`, the one self-avoiding-walk enumerator, as callbacks that
list each walk's extensions (last neighbour first).  A system's adjacency
map is built once per system and shared, read-only, by every call.

Verification reads two tables built once per call over the region: each
member's region neighbours in visiting order, and its number of boundary
neighbours.  A walk stays inside the region, so no boundary vertex is ever
on it, and the leaf conditions depend only on the walk's F-sum and largest
child count: one comparison per walk decides all of its boundary leaves.
Only a failing walk replays its neighbours in adjacency order, to name the
first failing leaf as the witness.

Pinnings on walk-tree leaves below are *ratio* pinnings: value inf stands
for spin 0 and value 0.0 for spin 1.  The dominance slacks take every good
boundary of a walk tree in one call, as rows of 0/1 spins, and read their
ratios from `sawtree._ratio_rows`: they only subtract, take abs and minima.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import constants, exact
from .errors import CapacityError, FerrospinError, InputError
from .model import (Pinning, TwoSpinSystem, ParamClass, _integer,
                    induced_subsystem, lambda0)
from .sawtree import SawTree, _ratio_rows, _walks


@dataclass(frozen=True)
class RegionParams:
    """Growth thresholds: stop the walk DFS at accumulated branching d1,
    flush children only when fewer than d2 of them."""

    d1: int
    d2: int

    def __post_init__(self) -> None:
        if _integer(self.d1, "d1") < 1 or _integer(self.d2, "d2") < self.d1:
            raise InputError("need 1 <= d1 <= d2")

    @classmethod
    def from_n(cls, n: int) -> "RegionParams":
        """d1 = ceil(REGION_C_D * ln ln n), d2 = ceil((ln n)^3), natural
        logs, clamped so that 1 <= d1 <= d2 for tiny n."""
        if _integer(n, "vertex count") < 2:
            raise InputError("need at least two vertices to derive parameters")
        d1 = max(1, math.ceil(constants.REGION_C_D * math.log(math.log(n))))
        d2 = max(d1, math.ceil(math.log(n) ** 3))
        return cls(d1=d1, d2=d2)


@dataclass(frozen=True)
class Region:
    center: int
    members: frozenset[int]
    boundary: frozenset[int]
    d1: int
    d2: int

    def __post_init__(self) -> None:
        if _integer(self.center, "centre vertex") not in self.members:
            raise InputError("centre must belong to the region")
        if self.members & self.boundary:
            raise InputError("region and boundary overlap")
        RegionParams(self.d1, self.d2)


def adjacency_map(graph) -> Mapping[int, tuple[int, ...]]:
    """Normalize a graph argument to {vertex: sorted neighbor tuple}.

    Accepts a TwoSpinSystem, whose map is built once per system and shared
    as a read-only view, or a mapping vertex -> iterable of neighbors,
    checked and normalized on every call.
    """
    if isinstance(graph, TwoSpinSystem):
        return MappingProxyType(graph._neighbor_map)
    if isinstance(graph, Mapping):
        adj = {v: tuple(sorted(set(ws))) for v, ws in graph.items()}
        for v, ws in adj.items():
            for w in ws:
                if w == v:
                    raise InputError(f"self-loop at {v}")
                if w not in adj or v not in adj[w]:
                    raise InputError(f"edge ({v},{w}) is not symmetric")
        return adj
    raise InputError("graph must be a TwoSpinSystem or an adjacency mapping")


def construct_region(graph, center: int, params: RegionParams,
                     node_cap: int = constants.REGION_NODE_CAP) -> Region:
    """Grow S_v by DFS over the walk tree without cycle-closing copies.

    At each tree node u (a self-avoiding walk ending at u), the children are
    the neighbors not yet on the walk.  Stop once the branching accumulated
    along the walk reaches d1; when stopping with fewer than d2 children,
    flush them all into the region.
    """
    adj = adjacency_map(graph)
    center = _integer(center, "centre vertex")
    if center not in adj:
        raise InputError(f"vertex {center} is not in the graph")
    members: set[int] = {center}
    work = 0

    def expand(walk, pos, prefix):
        # prefix: branching sum strictly above the walk's endpoint
        nonlocal work
        work += 1
        if work > node_cap:
            raise CapacityError(
                f"region growth from vertex {center} reached {work} "
                f"walk-tree nodes, over node cap {node_cap}")
        u = walk[-1]
        members.add(u)
        cld = []
        for x in adj[u]:
            if x not in pos:
                cld.append(x)
        if not cld:
            return ()
        degsum = prefix + len(cld)
        if degsum >= params.d1:
            if len(cld) < params.d2:
                members.update(cld)
                work += len(cld)
            return ()
        exts = []
        for x in reversed(cld):
            exts.append((x, degsum))
        return exts

    _walks(center, 0, expand)
    boundary = {w for u in members for w in adj[u] if w not in members}
    return Region(center=center, members=frozenset(members),
                  boundary=frozenset(boundary), d1=params.d1, d2=params.d2)


@dataclass(frozen=True)
class RegionVerification:
    ok: bool                 # every checked boundary leaf satisfied a condition
    size_ok: bool            # |S_v| <= exp(d1) * d2
    boundary_ok: bool        # stored boundary equals the recomputation
    partial: bool            # a cap stopped the walk-tree sweep early
    nodes_visited: int
    leaves_checked: int
    witness: tuple[int, ...] | None  # root-to-leaf walk violating both conditions

    def __bool__(self) -> bool:
        return self.ok and self.size_ok and self.boundary_ok


def verify_region(graph, region: Region, params: RegionParams,
                  depth_cap: int = constants.SAW_DEPTH_CAP,
                  node_cap: int = constants.REGION_NODE_CAP) -> RegionVerification:
    """Re-check the region's promises on the walk tree from `region.center`
    with the boundary cut.

    Every leaf that is a copy of a boundary vertex must satisfy at least one
    of: (1) the branching into region copies summed over its strict ancestors,
    parent excluded, reaches d1; (2) some ancestor has at least d2
    non-cycle-closing children.  Caps yield a partial report, not a failure.
    """
    adj = adjacency_map(graph)
    S, B = region.members, region.boundary
    for v in sorted(S | B):
        if v not in adj:
            raise InputError(f"region vertex {v} is not in the graph")
    recomputed = {w for u in S for w in adj[u] if w not in S}
    boundary_ok = recomputed == B
    size_ok = len(S) <= math.exp(params.d1) * params.d2
    if not boundary_ok:
        return RegionVerification(ok=False, size_ok=size_ok, boundary_ok=False,
                                  partial=False, nodes_visited=0,
                                  leaves_checked=0, witness=None)
    # per member: region neighbours in visiting order, boundary count
    inner = {u: tuple(x for x in reversed(adj[u]) if x in S) for u in S}
    n_boundary = {u: len(adj[u]) - len(inner[u]) for u in S}
    d1, d2 = params.d1, params.d2
    nodes = 0
    leaves = 0
    partial = False
    witness: tuple[int, ...] | None = None

    def expand(walk, pos, state):
        # state: (F-sum, max non-cycle-closing child count), strict ancestors
        nonlocal nodes, leaves, partial, witness
        nodes += 1
        if nodes > node_cap:
            partial = True
            return None
        fsum, maxcc = state
        u = walk[-1]
        ext = []
        for x in inner[u]:
            if x not in pos:
                ext.append(x)
        f_u = len(ext)
        nb = n_boundary[u]
        if f_u + nb > maxcc:
            maxcc = f_u + nb
        if nb:
            # one comparison decides every boundary leaf of this node
            if fsum < d1 and maxcc < d2:
                # replay in adjacency order up to the first boundary leaf
                for x in adj[u]:
                    if x in B:
                        leaves += 1
                        witness = tuple(walk) + (x,)
                        return None
                    if x not in pos and len(walk) > depth_cap:
                        partial = True
            leaves += nb
        if not f_u:
            return ()
        if len(walk) > depth_cap:
            partial = True
            return ()
        child_state = (fsum + f_u, maxcc)
        exts = []
        for x in ext:
            exts.append((x, child_state))
        return exts

    _walks(region.center, (0, 0), expand)
    return RegionVerification(ok=witness is None, size_ok=size_ok,
                              boundary_ok=True, partial=partial,
                              nodes_visited=nodes, leaves_checked=leaves,
                              witness=witness)


# ---------------------------------------------------------------------------
# good boundary configurations

@dataclass(frozen=True)
class GoodBoundarySpec:
    """Frozen view of a region inside a host graph of n vertices, with the
    boundary neighbourhood of every region vertex precomputed."""

    region: Region
    n: int
    boundary_neighbors: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        _log_n(self.n)

    @classmethod
    def build(cls, graph, region: Region, n: int) -> "GoodBoundarySpec":
        adj = adjacency_map(graph)
        rows = [(u, tuple(w for w in adj[u] if w in region.boundary))
                for u in sorted(region.members)]
        return cls(region=region, n=n,
                   boundary_neighbors=tuple(row for row in rows if row[1]))


def _log_n(n: int) -> float:
    """log n of a host graph's vertex count, an integer n >= 2."""
    if _integer(n, "global vertex count") < 2:
        raise InputError("global vertex count must be at least 2")
    return math.log(n)


def is_good_boundary(spec: GoodBoundarySpec, sigma: Pinning) -> bool:
    """True iff every region vertex with more than d2/3 boundary neighbors
    sees at least (count / ln n) + 2 of them carrying spin 1."""
    if set(sigma.domain) != set(spec.region.boundary):
        raise InputError("configuration must cover exactly the boundary")
    log_n = math.log(spec.n)
    return all(len(nbrs) <= spec.region.d2 / 3
               or sum(sigma[w] for w in nbrs) >= len(nbrs) / log_n + 2
               for _, nbrs in spec.boundary_neighbors)


# number of set bits of every byte value
_BYTE_ONES = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _good_masks(spec: GoodBoundarySpec) -> np.ndarray:
    """Every good boundary configuration as a mask, in increasing order: bit
    i is the spin of the i-th boundary vertex in increasing order.  Each
    region vertex's rule in `is_good_boundary` is a threshold on a popcount,
    evaluated here on all 2^|B| masks at once."""
    bset = sorted(spec.region.boundary)
    if len(bset) > constants.BLOCK_ENUM_LIMIT:
        raise CapacityError(
            f"boundary of size {len(bset)} is too large to enumerate: over "
            f"BLOCK_ENUM_LIMIT = {constants.BLOCK_ENUM_LIMIT}")
    masks = np.arange(1 << len(bset), dtype=np.uint32)
    good = np.ones(masks.size, dtype=bool)
    bit = {w: 1 << i for i, w in enumerate(bset)}
    log_n = math.log(spec.n)
    for _, nbrs in spec.boundary_neighbors:
        if len(nbrs) > spec.region.d2 / 3:
            seen = masks & sum(bit[w] for w in nbrs)
            ones = sum(_BYTE_ONES[seen >> shift & 0xFF]
                       for shift in range(0, len(bset), 8))
            good &= ones >= len(nbrs) / log_n + 2
    return masks[good].astype(np.int64)


def _boundary_leaves(tree: SawTree) -> list[int]:
    """The boundary copies that are leaves, in node order."""
    return [u for u in range(len(tree))
            if tree.boundary_copy[u] and tree.is_leaf(u)]


def is_good_tree_boundary(tree: SawTree, spins: Mapping[int, int], d2: int,
                          n: int) -> bool:
    """Walk-tree analogue: every non-leaf node with more than d2/3 children
    among the boundary copies needs at least (count / ln n) + 1 of them at
    spin 1."""
    log_n, d2 = _log_n(n), RegionParams(1, d2).d2
    if ({_integer(u, "tree node", len(tree)) for u in spins}
            != set(_boundary_leaves(tree))):
        raise InputError("spins must cover exactly the boundary copies")
    spins = {u: _integer(s, "spin", 2) for u, s in spins.items()}
    kids = ([c for c in cs if c in spins] for cs in tree.children)
    return all(len(k) <= d2 / 3
               or sum(spins[c] for c in k) >= len(k) / log_n + 1 for k in kids)


# ---------------------------------------------------------------------------
# influence of boundary vertices on the centre

def _centre_p1(sub: TwoSpinSystem, centre: int,
               boundary: list[int]) -> np.ndarray:
    """p1[b] = P(sigma_centre = 1 | boundary configuration b) for every b,
    bit i of b being the spin of boundary[i], from one log-weight table of
    `sub` reduced in log space onto (centre, boundary): the other vertices
    are summed out, each cell shifted by its own maximum."""
    n = sub.n
    table = exact._table(sub)
    kept = [n - 1 - centre] + [n - 1 - w for w in reversed(boundary)]
    inner = tuple(a for a in range(n) if a not in kept)
    top = table.max(axis=inner, keepdims=True)
    logz = np.log(np.exp(table - top).sum(axis=inner, keepdims=True)) + top
    l0, l1 = np.transpose(logz, kept + list(inner)).reshape(2, -1)
    top = np.maximum(l0, l1)
    w0, w1 = np.exp(l0 - top), np.exp(l1 - top)
    return w1 / (w0 + w1)


def _influences(system: TwoSpinSystem, spec: GoodBoundarySpec,
                us: list[int]) -> list[float]:
    """influence_a_u for each u in `us`, from one table: a_u is the largest
    |p1[b] - p1[b ^ bit(u)]| over the good boundary configurations b."""
    if not us:
        return []
    region = spec.region
    keep = sorted(region.members | region.boundary)
    sub, relabel = induced_subsystem(system, keep)
    bset = sorted(region.boundary)
    good = _good_masks(spec)
    if good.size == 0:
        return [0.0] * len(us)
    p1 = _centre_p1(sub, relabel[region.center], [relabel[w] for w in bset])
    return [float(np.abs(p1[good] - p1[good ^ (1 << bset.index(u))]).max())
            for u in us]


def influence_a_u(system: TwoSpinSystem, u: int,
                  spec: GoodBoundarySpec) -> float:
    """max over good boundary configurations sigma of the spec's region of
    |P(center = 1 | sigma with u forced 0) - P(center = 1 | u forced 1)|.

    Conditioning on the full boundary screens off the rest of the graph, so
    the computation runs on the induced subsystem of region + boundary.
    """
    if u not in spec.region.boundary:
        raise InputError(f"vertex {u} is not on the region boundary")
    return _influences(system, spec, [u])[0]


def assm_sum(system: TwoSpinSystem, spec: GoodBoundarySpec) -> float:
    """Aggregate influence of the boundary of the spec's region on its
    centre; the asymptotic target for this sum is 1/20, reported rather
    than asserted at desk scale.  One table serves every boundary vertex."""
    return sum(_influences(system, spec, sorted(spec.region.boundary)))


def shortest_path_closure_check(spec: GoodBoundarySpec, sigma: Pinning,
                                tau: Pinning) -> list[Pinning]:
    """Hamming-geodesic interpolation that never leaves the good set:
    raise all 0->1 differences first, then lower the 1->0 ones.

    Returns the full path sigma = eta_0, ..., eta_t = tau.
    """
    for end in (sigma, tau):
        if not is_good_boundary(spec, end):
            raise InputError("both endpoints must be good boundary configurations")
    up = sorted(v for v in spec.region.boundary if sigma[v] == 0 and tau[v] == 1)
    down = sorted(v for v in spec.region.boundary if sigma[v] == 1 and tau[v] == 0)
    path = [sigma]
    current = dict(sigma.items())
    for v in up + down:
        current[v] = tau[v]
        eta = Pinning(current)
        if not is_good_boundary(spec, eta):
            raise FerrospinError(
                "interpolation left the good set; this contradicts the "
                "one-count minimum along the path")
        path.append(eta)
    return path


# ---------------------------------------------------------------------------
# universal worst-case pinning on the walk tree

def universal_pinning(tree: SawTree, system: TwoSpinSystem, d2: int,
                      n: int) -> dict[int, float]:
    """Ratio pinning on the boundary copies that maximizes the root ratio
    among good configurations.

    Children-of-u rule: with at most d2/3 boundary children, all get ratio
    inf; otherwise sort by increasing edge log beta + log gamma (ties by node
    id) and pin the first floor(count / ln n) to ratio 0, the rest to inf.
    """
    log_n, d2 = _log_n(n), RegionParams(1, d2).d2
    leaves = set(_boundary_leaves(tree))
    e, lb, lg = tree.edge_to_parent, system.log_beta, system.log_gamma
    sigma: dict[int, float] = {}
    for children in tree.children:
        kids = sorted((c for c in children if c in leaves),
                      key=lambda c: (lb[e[c]] + lg[e[c]], c))
        cut = math.floor(len(kids) / log_n) if len(kids) > d2 / 3 else 0
        sigma |= {c: 0.0 if i < cut else math.inf for i, c in enumerate(kids)}
    return sigma


def _boundary_leaf(tree: SawTree, w) -> int:
    """Tree node w, which must be a boundary copy leaf."""
    w = _integer(w, "tree node", len(tree))
    if w not in _boundary_leaves(tree):
        raise InputError(f"node {w} is not a boundary copy leaf")
    return w


def _mixture_ratios(tree: SawTree, system: TwoSpinSystem,
                    boundaries: np.ndarray, sigma_star: Mapping[int, float],
                    w: int, levels: list[int]) -> np.ndarray:
    """R at every node, as an array (level, c, boundary, node): each
    boundary (a row of 0/1 spins of `boundaries`, one column per boundary
    copy leaf in node order) with the universal pinning `sigma_star` on the
    leaves strictly above each level of `levels` (level 0 leaves the
    boundary as it is), and the boundary copy leaf w at ratio c = 0, inf."""
    leaves = _boundary_leaves(tree)
    spins = np.asarray(boundaries)
    if (spins.ndim != 2 or spins.shape[1] != len(leaves)
            or spins.dtype.kind not in "iu"):
        raise InputError(f"boundaries must be integers of shape (count, "
                         f"{len(leaves)}), got {spins.dtype} {spins.shape}")
    bad = spins[(spins != 0) & (spins != 1)]
    if bad.size:
        raise InputError(f"boundary spin {bad[0]} out of range")
    pinned = {_integer(u, "tree node", len(tree)) for u in sigma_star}
    if pinned != set(leaves):
        raise InputError("sigma_star must pin exactly the boundary copy "
                         "leaves")
    star = [sigma_star[u] for u in leaves]
    for ratio in star:
        if ratio.__class__ is bool or not (ratio == 0.0 or ratio == math.inf):
            raise InputError(f"sigma_star ratios must be 0.0 or inf, "
                             f"got {ratio!r}")
    above = (np.array([tree.depth[u] for u in leaves])
             < np.array(levels)[:, None])
    pins = np.full((len(levels), 2, len(spins), len(tree)), math.nan)
    pins[..., leaves] = np.where(above[:, None, None], star,
                                 np.where(spins == 0, math.inf, 0.0))
    pins[..., w] = [[0.0], [math.inf]]
    return _ratio_rows(tree, system, pins.reshape(-1, len(tree))).reshape(
        pins.shape)


def ratio_dominance_slack(tree: SawTree, system: TwoSpinSystem,
                          boundaries: np.ndarray,
                          sigma_star: Mapping[int, float],
                          w: int) -> np.ndarray:
    """min over non-leaf nodes u of R^{tau, w<-c}_u - R^{sigma, w<-c}_u for
    every boundary sigma (a row of `boundaries`, 0/1 spins over the boundary
    copy leaves in node order), level k = 1, ..., depth of w and c = 0, inf,
    as an array (boundary, k - 1, c): tau mixes the universal pinning
    `sigma_star` of the tree above level k into sigma, and w is a boundary
    copy leaf.  Nonnegative when the universal pinning dominates."""
    w = _boundary_leaf(tree, w)
    R = _mixture_ratios(tree, system, boundaries, sigma_star, w,
                        list(range(tree.depth[w] + 1)))
    inner = [u for u in range(len(tree)) if not tree.is_leaf(u)]
    slack = R[1:, ..., inner] - R[:1, ..., inner]
    return slack.min(axis=3).transpose(2, 0, 1)


def monotone_potential_slack(tree: SawTree, system: TwoSpinSystem,
                             pc: ParamClass, w: int, boundaries: np.ndarray,
                             sigma_star: Mapping[int, float]) -> np.ndarray:
    """Slack of the worst-pinning inequality at the root for every boundary
    rho (a row of `boundaries`, as in `ratio_dominance_slack`):
    |R^{sigma_w, w<-inf} - R^{sigma_w, w<-0}| - |R^{rho, w<-inf} - R^{rho, w<-0}|,
    where sigma_w replaces rho by the universal pinning `sigma_star` of the
    tree strictly above w's level.  Requires lambda strictly below
    sqrt(gamma/beta)."""
    if not pc.lambda_bound < lambda0(pc):
        raise InputError(
            "worst-pinning dominance needs lambda below sqrt(gamma/beta)")
    w = _boundary_leaf(tree, w)
    R = _mixture_ratios(tree, system, boundaries, sigma_star, w,
                        [tree.depth[w], 0])
    spread = abs(R[:, 1, :, 0] - R[:, 0, :, 0])
    return spread[0] - spread[1]


# ---------------------------------------------------------------------------
# scalar one-step comparison

def one_step_ratio_factor(beta: float, gamma: float, x: float,
                          y: float) -> float:
    """(beta*x + 1)(y + gamma) / ((x + gamma)(beta*y + 1)): the one-step
    multiplier of the ratio x/y through an edge of parameters (beta, gamma)."""
    return (beta * x + 1.0) * (y + gamma) / ((x + gamma) * (beta * y + 1.0))


def check_one_step_relation(pc: ParamClass, x: float, y: float, xp: float,
                            yp: float) -> float:
    """Slack of the ordered-pair comparison: factor(x, y) - factor(x', y').

    Hypotheses enforced: lambda >= x > y > 0, lambda >= x' > y' > 0,
    x >= x', y >= y', x/y >= x'/y', and lambda < sqrt(gamma/beta).
    Nonnegative slack is the claimed conclusion.
    """
    if not pc.lambda_bound < lambda0(pc):
        raise InputError(
            "one-step comparison needs lambda below sqrt(gamma/beta)")
    lam = pc.lambda_bound
    if not (lam >= x > y > 0 and lam >= xp > yp > 0):
        raise InputError("need lambda >= x > y > 0 and lambda >= x' > y' > 0")
    if not (x >= xp and y >= yp and x / y >= xp / yp):
        raise InputError("need x >= x', y >= y', and x/y >= x'/y'")
    return (one_step_ratio_factor(pc.beta, pc.gamma, x, y)
            - one_step_ratio_factor(pc.beta, pc.gamma, xp, yp))
