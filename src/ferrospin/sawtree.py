"""Self-avoiding-walk computation trees and the potential-function apparatus.

A node of the walk tree is a self-avoiding walk from the root vertex; its
preimage is the walk's endpoint.  Walks stop at boundary vertices (boundary
copies), at revisits of an earlier walk vertex (cycle-closing copies), or at
dead ends.  The module's one self-avoiding-walk enumerator, `_walks`, is a
depth-first pass over one shared walk; the walk tree here and region growth
and region verification in `regions` are each a callback that lists a
walk's extensions.

Marginals of the root come from the ratio recursion

    R_u = lambda_u * prod_i (beta_i x_i + 1) / (x_i + gamma_i)

over the children.  `saw_marginal` folds it on log R and stores no tree: a
spin-0 leaf (x = inf) adds exactly log beta_i, a spin-1 leaf (x = 0)
exactly -log gamma_i, and `_fold`, the module's one log-space edge factor,
folds every finished subtree into its parent.  It has two routes with one
result, bit for bit:

- a pass of `_walks`: a per-vertex table, built once per call, holds each
  neighbour's edge, its pinned leaf term (or None), log beta_e and -log
  gamma_e, so a walk reads its leaf terms without a lookup per neighbour;
- `_level_fold`, which reads the same table and builds the tree level by
  level as int32 arrays of walks (one column per walk), then folds it
  bottom-up: each node's leaf terms in neighbour order, then its children's
  `_fold` terms in child order, as the pass adds them.

The pass runs first.  It checks its route on passing a quarter, a half
and all of its budget of `_ARRAY_NODES` (2048) nodes: each time it
estimates the size of its tree from the share it has finished, and hands a
tree estimated at 2.5 times the budget or more to the arrays; past the last
check it finishes the tree.  On random regular graphs with random
ferromagnetic parameters (2-core Xeon, CPU time, least of 54 runs) the pass
took 0.80 against the arrays' 1.13 ms on a 1,186-node tree, 1.70 against
1.55 ms at 2,462 nodes, 3.6 against 2.2 ms at 5,406, 9.7 against 3.2 ms at
20,615 and 36 against 11 ms at 79,745, and the arrays alone took about 4
times as long as the pass on a 218-node tree.  A tree handed over at the
first check pays the pass to 512 nodes as well, about 0.25 ms: the
6,209-node tree of a 4-regular bipartite graph took 1.7 ms, against 1.4 ms
as arrays alone and 2.4 ms with a first check at 2,048 nodes.  The
estimate assumes sibling subtrees alike; at the first check, on the 89
trees of the benchmark's walk queries (seeds 1 to 5) that reach it, it read
0.83 to 1.34 of the true size.  A tree whose pass walks a thin branch
first reads low there, and a later check hands it over.  The budget, and so
every check, grows with n past 16 vertices, since the tree has up to n
levels and each costs the arrays a fixed time.  numpy does only the IEEE +,
-, abs and comparisons of the array route; its exp and log1p differ from
libm's in the last bit (in about 5% of arguments), so the route calls
`math.exp` and `math.log1p`, once per distinct argument of a level.

`_ratio_rows` folds log R the same way over a tree `build_saw_tree` stored,
for a rows x nodes array of ratio pins at once (spin 0 is ratio inf, spin 1
ratio 0, as `pin_saw_tree` gives them): `evaluate_ratios` is one row, the
dominance slacks of `regions` all good boundaries of a tree.
`prune_pinned_leaves` folds spin leaves into their parents' log fields.

The second half of the module builds the contraction potential for a
parameter class: the edge functions g, the threshold x0, the exponent alpha,
the scale t, phi = min{1/t, 1/(x log(lambda/x))} and its primitive Phi, the
per-node decay factor, and the geometric single-term bound.  All are closed
forms: x0 and phi's two kinks are roots x = -c / W_k(-c/lambda) of
x log(lambda/x) = c on the Lambert-W branches k = -1, 0; Phi is x/t, plus
-log log(lambda/s) between the kinks; c_max = 1/t, c_min = min{1/t, e/lambda}.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import constants
from .errors import CapacityError, InputError, NumericError
from .model import (ParamClass, Pinning, TwoSpinSystem, _integer,
                    _log_lambda_c, lambda_c)


@dataclass
class SawTree:
    """Walk tree of one root vertex, nodes in creation order: the root is
    node 0, and its vertex is preimage[0].

    Children of every node are ordered by increasing preimage vertex, and a
    node's id is always smaller than its descendants', so a reverse-id sweep
    is a valid post-order.  A boundary copy's vertex is its preimage.
    """

    preimage: list[int]
    parent: list[int]            # -1 at the root
    children: list[list[int]]
    depth: list[int]
    boundary_copy: list[bool]
    cycle_closing: list[bool]
    cycle_spin: list[int | None]  # spin forced on a cycle-closing copy
    edge_to_parent: list[int | None]  # edge index in G

    def __len__(self) -> int:
        return len(self.preimage)

    def is_leaf(self, node: int) -> bool:
        return not self.children[node]


def _walks(root: int, state: Any,
           expand: Callable[..., Iterable[tuple[int, Any]] | None]) -> None:
    """Depth-first pass over the self-avoiding walks from `root`.

    `walk` (vertices in walk order) and `pos` (vertex -> index in `walk`) are
    one pair, pushed on descent, popped on return and only read by `expand`.
    On each walk, `expand(walk, pos, state)` returns the walk's extensions,
    `(vertex off the walk, child_state)` pairs in visiting order, or None to
    end the whole pass.  Every walk-tree and region routine is a callback.
    """
    walk: list[int] = []
    pos: dict[int, int] = {}
    # pending[0] holds the root; pending[i + 1], walk[i]'s unvisited extensions
    pending = [iter([(root, state)])]
    while pending:
        for v, child_state in pending[-1]:
            pos[v] = len(walk)
            walk.append(v)
            exts = expand(walk, pos, child_state)
            if exts:
                pending.append(iter(exts))
                break
            if exts is None:
                return
            del pos[walk.pop()]
        else:
            pending.pop()
            if walk:
                del pos[walk.pop()]


def _closing_spin(walk: list[int], i: int) -> int:
    """Spin forced on the copy of walk[i] that closes a cycle from the
    walk's endpoint: 0 if the walk left walk[i] through a larger vertex than
    the endpoint it now returns through, else 1."""
    return 0 if walk[i + 1] > walk[-1] else 1


def _check_root(system: TwoSpinSystem, root: int, boundary) -> None:
    for b in boundary:
        _integer(b, "boundary vertex", system.n)
    _integer(root, "root vertex", system.n)
    if root in boundary:
        raise InputError(f"root vertex {root} lies on the boundary")


def build_saw_tree(system: TwoSpinSystem, root: int,
                   boundary: Sequence[int] | frozenset[int] = (),
                   node_cap: int = constants.REGION_NODE_CAP) -> SawTree:
    """Enumerate all self-avoiding walks from `root`.

    Walks stop on reaching a boundary vertex or revisiting a walk vertex.
    Exceeding `node_cap` raises CapacityError rather than silently
    truncating.
    """
    bset = frozenset(boundary)
    _check_root(system, root, bset)

    tree = SawTree(preimage=[root], parent=[-1], children=[[]], depth=[0],
                   boundary_copy=[False], cycle_closing=[False],
                   cycle_spin=[None], edge_to_parent=[None])

    def new_node(pre, par, dep, bc, cc, spin, eidx):
        nid = len(tree.preimage)
        if nid >= node_cap:
            raise CapacityError(f"saw tree of vertex {root} reached "
                                f"{nid + 1} nodes, over node cap {node_cap}")
        # one value per `SawTree` field, in field order
        for column, value in zip(vars(tree).values(),
                                 (pre, par, [], dep, bc, cc, spin, eidx)):
            column.append(value)
        tree.children[par].append(nid)
        return nid

    def expand(walk, pos, node):
        # all children of `node` get ids now; only plain walk steps descend
        p = walk[-1]
        d = len(walk)
        parent_pre = walk[-2] if d > 1 else None
        descend = []
        for (w, eidx) in system.adjacency[p]:  # increasing vertex order
            if w == parent_pre:
                continue
            if w in bset:
                new_node(w, node, d, True, False, None, eidx)
            elif w in pos:
                new_node(w, node, d, False, True, _closing_spin(walk, pos[w]),
                         eidx)
            else:
                descend.append((w, new_node(w, node, d, False, False, None,
                                            eidx)))
        return descend

    _walks(root, 0, expand)
    return tree


def pin_saw_tree(tree: SawTree, sigma: Pinning) -> dict[int, float]:
    """Ratio pinning of the spin leaves: boundary copies take sigma at their
    preimage; a cycle-closing copy takes the spin forced by the walk
    successor of its first visit (0 if the successor is larger in the vertex
    order, else 1).  Spin 0 is ratio inf, spin 1 ratio 0."""
    pins: dict[int, float] = {}
    for u in range(len(tree)):
        if tree.boundary_copy[u]:
            pre = tree.preimage[u]
            if pre not in sigma:
                raise InputError(f"boundary vertex {pre} missing from pinning")
            s = sigma[pre]
        elif tree.cycle_closing[u]:
            s = tree.cycle_spin[u]
        else:
            continue
        pins[u] = math.inf if s == 0 else 0.0
    return pins


def prune_pinned_leaves(tree: SawTree, system: TwoSpinSystem,
                        ratio_pin: dict[int, float]
                        ) -> tuple[SawTree, dict[int, float]]:
    """Fold every leaf pinned to ratio inf or 0 into its parent's log field
    and drop it.

    A leaf at inf adds log beta_e to the parent's log field, one at 0
    -log gamma_e; any other pinned ratio is refused.  Returns the reduced
    tree (same node ids, pinned leaves detached) and the map node -> log
    field for the nodes that changed, the `log_fields` of `evaluate_ratios`.
    """
    log_fields: dict[int, float] = {}
    for u, x in ratio_pin.items():
        if _integer(u, "tree node", len(tree)) == 0 or not tree.is_leaf(u):
            raise InputError(f"pinned node {u} is not a leaf below the root")
        if x != math.inf and x != 0.0:
            raise InputError(f"pinned ratio at node {u} must be 0 or inf to "
                             f"fold, got {x!r}")
        par, e = tree.parent[u], tree.edge_to_parent[u]
        base = log_fields.get(par, system.log_lambda[tree.preimage[par]])
        log_fields[par] = (base + system.log_beta[e] if x else
                           base - system.log_gamma[e])
    reduced = replace(tree, children=[[c for c in cs if c not in ratio_pin]
                                      for cs in tree.children])
    return reduced, log_fields


def evaluate_ratios(tree: SawTree, system: TwoSpinSystem,
                    ratio_pin: dict[int, float] | None = None,
                    log_fields: dict[int, float] | None = None
                    ) -> dict[int, float]:
    """Ratio at every evaluated node, one row of `_ratio_rows`: `ratio_pin`
    maps tree nodes to ratios in [0, inf] (a pinned node's subtree is
    skipped), `log_fields` tree nodes to the log lambda they override."""
    pins = np.full((1, len(tree)), math.nan)
    for u, x in (ratio_pin or {}).items():
        if not (x >= 0.0):  # rejects nan and negatives
            raise InputError(f"pinned ratio at node {u} must be in [0, inf]")
        pins[0, _integer(u, "tree node", len(tree))] = x
    row = _ratio_rows(tree, system, pins, log_fields)[0].tolist()
    return {u: r for u, r in enumerate(row) if not math.isnan(r)}


def _ratio_rows(tree: SawTree, system: TwoSpinSystem, pins: np.ndarray,
                log_fields: dict[int, float] | None = None) -> np.ndarray:
    """R at every node under each row of `pins` (rows x nodes ratio pins in
    [0, inf], nan where unpinned), folded on log R bottom-up.

    A node's log R starts at its log field (log lambda of its preimage
    unless `log_fields` overrides it) and gains its children's terms in
    child order: exactly log beta_e for a child at ratio inf, -log gamma_e
    for one at 0, and the `_fold_terms` term, `_fold`'s to the bit, for
    any other.  A pinned node reads its pin, a node below a pin or detached
    by `prune_pinned_leaves` nan.  A ratio past the float range raises
    NumericError naming the node, its vertex and log R."""
    pins = np.ascontiguousarray(pins.T)  # a row per node
    pinned = ~np.isnan(pins)
    # log R, at a pin inf and -inf exactly and any other through math.log
    log_r = np.where(pins > 0.0, math.inf, -math.inf)
    finite = pinned & (pins > 0.0) & (pins < math.inf)
    log_r[finite] = [math.log(x) for x in pins[finite].tolist()]
    base = [system.log_lambda[v] for v in tree.preimage]
    for u, f in (log_fields or {}).items():
        base[_integer(u, "tree node", len(tree))] = f
    # a node is evaluated if the path from the root reaches it unpinned
    live = np.zeros_like(pinned)
    live[0] = True
    for u, children in enumerate(tree.children):  # parents come first
        live[children] = live[u] & ~pinned[u]
    lb, lg = system.log_beta, system.log_gamma
    R = np.where(live & pinned, pins, math.nan)
    for u in reversed(range(len(tree))):
        acc = np.full(pins.shape[1], base[u])
        for c in tree.children[u]:
            x, e = log_r[c], tree.edge_to_parent[c]
            term = np.where(x > 0.0, lb[e], -lg[e])
            inner = np.isfinite(x)
            if inner.any():
                term[inner] = _fold_terms(x[inner], lb[e], lg[e])
            acc += term
        log_r[u] = np.where(pinned[u], log_r[u], acc)
        free = live[u] & ~pinned[u]
        logs = acc[free].tolist()
        try:
            R[u, free] = [math.exp(y) for y in logs]
        except OverflowError:
            raise NumericError(
                f"node {u} (vertex {tree.preimage[u]}): ratio = exp("
                f"{max(logs)!r}) overflows the float range") from None
    return R.T


def _fold(acc: list[float], via: list[int], depth: int,
          log_beta: Sequence[float], log_gamma: Sequence[float]) -> None:
    """Fold the frames of `acc` deeper than `depth` into their parents.

    A frame holds log x = log R of a finished subtree and `via` its edge; the
    parent gains log((beta x + 1)/(x + gamma)), a difference of two
    log-sum-exps, so log x = inf adds exactly log beta and -inf exactly
    -log gamma.
    """
    exp, log1p = math.exp, math.log1p
    while len(acc) > depth:
        x = acc.pop()
        f = via.pop()
        if x > 0.0:  # log(beta + 1/x) - log(1 + gamma/x)
            a, b, c, d = log_beta[f], -x, 0.0, log_gamma[f] - x
        else:        # log(1 + beta x) - log(x + gamma)
            a, b, c, d = 0.0, log_beta[f] + x, x, log_gamma[f]
        acc[-1] += ((b if b > a else a) + log1p(exp(-abs(a - b)))
                    - (d if d > c else c) - log1p(exp(-abs(c - d))))


# The depth-first pass that passes a quarter, a half or all of this many
# nodes estimates its tree's size, and hands a tree estimated at 2.5 times
# as many nodes or more to the level-order arrays (`_level_fold`); the
# budget scales with n/_ARRAY_LEVELS past _ARRAY_LEVELS vertices: the tree
# has at most n levels, and each costs the arrays a fixed time, so a deep
# narrow tree stays depth first (a 3000-cycle: 11 ms depth first, 0.8 s as
# arrays).  See the module docstring.
_ARRAY_NODES = 2048
_ARRAY_LEVELS = 16
# walk vertices of one level expanded at once by `_level_fold`
_CELLS = 1 << 16


class SawMarginal(NamedTuple):
    p0: float
    p1: float
    tree_nodes: int


def saw_marginal(system: TwoSpinSystem, v: int,
                 spin_pin: Pinning = Pinning()) -> SawMarginal:
    """Exact (p0, p1) of vertex v given the pinning, and the node count of
    its walk tree (boundary = pin domain).

    A pass of `_walks` folds the tree depth first: `acc[i]` is log R of
    walk[:i + 1] so far, started at log lambda of its endpoint; each
    boundary or cycle-closing copy adds its spin's factor, read from a
    per-vertex table built once per call.  A walk of length d shows that the
    frames from depth d - 1 on are finished, and `_fold` folds each into its
    parent.  On passing a quarter, a half and all of the budget of
    `_ARRAY_NODES`, the pass estimates the tree's size; a tree estimated at
    2.5 times the budget ends the pass and is folded again, bit for bit, by
    `_level_fold`, and past the last check the pass finishes the tree.
    Over `REGION_NODE_CAP` nodes raise CapacityError.
    """
    if v in spin_pin:
        raise InputError(f"vertex {v} is pinned")
    pins = dict(spin_pin.items())
    _check_root(system, v, pins)
    lb, lg, log_lam = system.log_beta, system.log_gamma, system.log_lambda
    # per vertex, per neighbour w over edge e: (w, e, the pinned leaf's
    # term or None, log beta_e, -log gamma_e), neighbours increasing
    table = [tuple([(w, e, None if w not in pins
                     else lb[e] if pins[w] == 0 else -lg[e], lb[e], -lg[e])
                    for w, e in nbrs]) for nbrs in system.adjacency]
    # children of a walk ending at u: every neighbour but the one it came from
    children = [len(nbrs) - (u != v) for u, nbrs in enumerate(system.adjacency)]
    node_cap = constants.REGION_NODE_CAP
    budget = _ARRAY_NODES * max(1.0, system.n / _ARRAY_LEVELS)
    # the pass checks its route on passing a quarter, a half and all of the
    # budget, then runs to the cap; `checks` holds the limits, last first
    checks = [node_cap, budget, budget / 2, budget / 4]
    limit = min(node_cap, checks.pop())
    handed = False
    acc: list[float] = []
    via: list[int] = []  # via[i]: edge from walk[i - 1] to walk[i]
    nodes = 1

    def expand(walk, pos, e):
        nonlocal nodes, limit, handed
        d = len(walk)
        if len(acc) >= d:
            _fold(acc, via, d - 1, lb, lg)
        p = walk[-1]
        nodes += children[p]
        if nodes > limit:
            if nodes > node_cap:
                raise CapacityError(f"saw tree of vertex {v} reached {nodes} "
                                    f"nodes, over node cap {node_cap}")
            if nodes > 2.5 * budget * _finished_share(walk, pos, table):
                handed = True
                return None  # `_level_fold` takes the tree
            limit = min(node_cap, checks.pop())
        prev = walk[-2] if d > 1 else -1
        log_r = log_lam[p]
        descend = []
        for w, f, pinned, lb_f, mlg_f in table[p]:
            if pinned is not None:
                log_r += pinned
            elif w != prev:
                i = pos.get(w)
                if i is None:
                    descend.append((w, f))
                else:  # the spin `_closing_spin` names
                    log_r += lb_f if walk[i + 1] > p else mlg_f
        acc.append(log_r)
        via.append(e)
        return descend

    _walks(v, -1, expand)
    if handed:
        log_r, nodes = _level_fold(system, v, table, children, node_cap)
    else:
        _fold(acc, via, 1, lb, lg)
        log_r = acc[0]
    # p0 = R/(1 + R) and p1 = 1/(1 + R) without forming R = exp(log_r)
    t = math.exp(-abs(log_r))
    pair = (1.0 / (1.0 + t), t / (1.0 + t))
    return SawMarginal(*(pair if log_r > 0.0 else pair[::-1]), nodes)


def _finished_share(walk: list[int], pos: dict[int, int],
                    table: list[tuple]) -> float:
    """Share of the walk tree that the depth-first pass has finished on
    reaching `walk`, if sibling subtrees are alike (Knuth, "Estimating the
    efficiency of backtrack programs", 1975): walk[:i + 1] has finished the
    children before walk[i + 1].  `table` is `saw_marginal`'s."""
    share, weight = 0.0, 1.0
    for i in range(len(walk) - 1):
        prev = walk[i - 1] if i else -1
        kids = [w for w, _, pinned, _, _ in table[walk[i]]
                if pinned is None and w != prev and pos.get(w, i + 1) > i]
        weight /= len(kids)
        share += weight * kids.index(walk[i + 1])
    return share


# a sum of log terms past the float range is +-inf, as in `_fold`
@np.errstate(over="ignore")
def _level_fold(system: TwoSpinSystem, v: int, table: list[tuple],
                children: list[int], node_cap: int) -> tuple[float, int]:
    """log R of the root and the node count of v's walk tree, the tree built
    level by level as int32 arrays and folded bottom-up.

    A level holds its walks, one column each (vertices in walk order down
    the column), in the order of the depth-first pass: each walk's children
    follow in neighbour order, so a parent's children are contiguous.  A
    walk's log R starts at log lambda of its endpoint, gains its boundary
    and cycle-closing leaf terms in neighbour order, then its children's
    `_fold` terms in child order, by one ordered scatter per level: the sums
    of the depth-first pass, in its order.  The node count of a level's
    children is summed before the level is expanded, so the cap fires on
    exactly the trees it fires on in the depth-first pass.  `table` and
    `children` are `saw_marginal`'s.
    """
    n = system.n
    width = max(map(len, table))
    # `table` as (field, slot, vertex) arrays: a pad is neighbour -1, and a
    # slot without a pinned leaf term reads nan
    cells = np.full((n, width, 5), (-1, 0, math.nan, 0.0, 0.0))
    for u, row in enumerate(table):
        if row:
            cells[u, :len(row)] = [(w, e, math.nan if t is None else t, b, g)
                                   for w, e, t, b, g in row]
    nbr, edge = np.ascontiguousarray(cells[..., :2].T, np.int32)
    leaf, lb, mlg = np.ascontiguousarray(cells[..., 2:].T)
    pinned = ~np.isnan(leaf)
    slots = _Slots(nbr, leaf, pinned, ~pinned & (nbr >= 0), edge, lb, mlg,
                   np.array(system.log_lambda, float))
    children = np.array(children)
    log_beta = np.array(system.log_beta, float)
    log_gamma = np.array(system.log_gamma, float)

    nodes = 1
    walks = np.full((1, 1), v, np.int32)
    # per level: the log R of its walks, and of each one the column of its
    # parent on the level above and the edge to the parent
    levels = []
    up = via = np.zeros(1, np.intp)
    while walks.shape[1]:
        nodes += int(children[walks[-1]].sum())
        if nodes > node_cap:
            raise CapacityError(f"saw tree of vertex {v} reached {nodes} "
                                f"nodes, over node cap {node_cap}")
        chunk = max(1, _CELLS // len(walks))
        if walks.shape[1] <= chunk:
            log_r, walks, cols, edges = _expand(walks, 0, slots)
        else:
            parts = [_expand(walks[:, lo:lo + chunk], lo, slots)
                     for lo in range(0, walks.shape[1], chunk)]
            log_r, walks, cols, edges = (
                np.concatenate(q, axis)
                for q, axis in zip(zip(*parts), (0, 1, 0, 0)))
        levels.append((log_r, up, via))
        up, via = cols, edges

    for depth in range(len(levels) - 1, 0, -1):
        x, up, via = levels[depth]
        # add.at is unbuffered and goes in index order, and a parent's
        # children are contiguous, in the pass's order: each parent gains
        # its children's terms in child order
        np.add.at(levels[depth - 1][0], up,
                  _fold_terms(x, log_beta[via], log_gamma[via]))
    return float(levels[0][0][0]), nodes


class _Slots(NamedTuple):
    """Per neighbour slot and vertex, neighbours increasing: the neighbour
    (-1 pads), its pinned leaf term, whether it is pinned, whether it is
    free to walk to, the edge, log beta_e and -log gamma_e; log lambda per
    vertex."""
    nbr: np.ndarray
    leaf: np.ndarray
    pinned: np.ndarray
    free: np.ndarray
    edge: np.ndarray
    lb: np.ndarray
    mlg: np.ndarray
    log_lam: np.ndarray


def _expand(walks: np.ndarray, lo: int, slots: _Slots) -> tuple[np.ndarray, ...]:
    """Walks lo, lo + 1, ... of a level: each one's log R with its leaf terms
    added in neighbour order, and its children's walks, parent columns and
    edges, in neighbour order."""
    p = walks[-1]
    # (slot, walk) tables; take keeps them C-ordered, as the walks are
    nbr, leaf, has, step = (a.take(p, 1) for a in slots[:4])
    if len(walks) > 1:
        step &= nbr != walks[-2]
        hit = walks[:-1] == nbr[:, None, :]  # slot x walk position x walk
        closing = step & hit.any(1)
        # the copy of walk[i] that closes a cycle has spin 0 if walk[i + 1]
        # is larger than the endpoint
        spin0 = (hit & (walks[1:] > p)).any(1)
        np.copyto(leaf, np.where(spin0, slots.lb.take(p, 1),
                                 slots.mlg.take(p, 1)), where=closing)
        has |= closing
        step &= ~closing
    log_r = slots.log_lam[p]
    for k in range(len(nbr)):
        np.add(log_r, leaf[k], out=log_r, where=has[k])
    cols, ks = np.nonzero(step.T)
    grown = np.empty((len(walks) + 1, len(cols)), np.int32)
    np.take(walks, cols, 1, out=grown[:-1])
    grown[-1] = nbr[ks, cols]
    return log_r, grown, cols + lo, slots.edge[ks, p[cols]]


def _fold_terms(x: np.ndarray, log_beta: np.ndarray,
                log_gamma: np.ndarray) -> np.ndarray:
    """`_fold`'s term for each finished subtree log R = x over its edge.

    numpy does only the IEEE +, -, abs and comparisons; exp and log1p are
    math's, one call per distinct gap, read back for every equal one, since
    numpy's differ from libm in the last bit.  So each term is `_fold`'s to
    the bit.
    """
    big = x > 0.0
    a = np.where(big, log_beta, 0.0)
    b = np.where(big, -x, log_beta + x)
    c = np.where(big, 0.0, x)
    d = np.where(big, log_gamma - x, log_gamma)
    gaps, inverse = np.unique(-np.abs(np.concatenate((a - b, c - d))),
                              return_inverse=True)
    soft = np.fromiter(map(math.log1p, map(math.exp, gaps.tolist())), float,
                       len(gaps))[inverse]
    m = len(x)
    return np.where(b > a, b, a) + soft[:m] - np.where(d > c, d, c) - soft[m:]


# ---------------------------------------------------------------------------
# contraction potential

@dataclass(frozen=True)
class PotentialParams:
    """Derived potential constants for one parameter class."""

    t: float
    alpha: float
    x0: float
    c_min: float
    c_max: float

    def __post_init__(self):
        if not (self.t > 0.0):
            raise InputError(f"t must be positive, got {self.t}")
        if not (0.0 < self.alpha < 1.0):
            raise InputError(f"alpha must lie in (0,1), got {self.alpha}")
        if not (0.0 < self.c_min <= self.c_max):
            raise InputError("need 0 < c_min <= c_max")


def g_value(x: float, pc: ParamClass, beta_e: float, gamma_e: float) -> float:
    """Per-edge contraction function at x in (0, lambda)."""
    lam = pc.lambda_bound
    if not (0.0 < x < lam):
        raise InputError(f"g needs x in (0, lambda), got {x}")
    num = (beta_e * gamma_e - 1.0) * x * math.log(lam / x)
    # (x+gamma)/(beta x+1) = 1 + ((1-beta)x + gamma - 1)/(beta x + 1); the
    # log1p form survives x so large that x+gamma rounds to x+1
    log_ratio = math.log1p(((1.0 - beta_e) * x + gamma_e - 1.0)
                           / (beta_e * x + 1.0))
    den = (beta_e * x + 1.0) * (x + gamma_e) * log_ratio
    return num / den


def _roots(c: float, lam: float) -> tuple[float, float]:
    """Rising and falling root of x log(lam/x) = c, for 0 < c <= lam/e.

    y = log(lam/x) solves y e^-y = c/lam: y = -W_k(-c/lam) on the Lambert-W
    branches k = -1 (root c/y) and k = 0 (root lam e^-y).  v = log y solves
    expm1(v) - v = d = log(lam/c) - 1 >= 0, convex in v, so six Newton steps
    from log1p(d + sqrt(2d)) and -sqrt(2d) end on both roots to the last
    bits, also next to the branch point d = 0 and where c/lam underflows.
    """
    z = c / lam
    d = -1.0 - (math.log(z) if z >= sys.float_info.min
                else math.log(c) - math.log(lam))
    if d <= 0.0:
        return lam / math.e, lam / math.e
    vs = []
    for v in (math.log1p(d + math.sqrt(2.0 * d)), -math.sqrt(2.0 * d)):
        for _ in range(6):
            v -= (math.expm1(v) - v - d) / math.expm1(v)
        vs.append(v)
    return c * math.exp(-vs[0]), lam * math.exp(-math.exp(vs[1]))


def derive_potential(pc: ParamClass) -> PotentialParams:
    """Build the potential constants for a class with lambda < lambda_c.

    x0 is the largest point with (beta gamma - 1) x log(lambda/x) <= norm/2
    on (0, x0], norm = log((lambda+gamma)/(lambda+1)): the rising root, or
    lambda (1 - 1e-9) when the peak lambda/e meets the bound (an x0 below
    the normal float range raises NumericError).  Then

        alpha = 1 - max{1/2, (log lambda - log x0)/(log lambda_c - log x0)}
        t = (1-alpha) gamma/(beta gamma - 1) * log((lambda+gamma)/(beta lambda+1))

    and phi (1/t at 0, e/lambda at the peak) has c_max = 1/t and
    c_min = min{1/t, e/lambda}.
    """
    lam = pc.lambda_bound
    lc = lambda_c(pc)
    if lam >= lc:
        raise InputError(
            f"potential needs lambda < lambda_c ({lc!r}), got {lam!r}")
    beta, gamma = pc.beta, pc.gamma
    bound = (0.5 * math.log1p((gamma - 1.0) / (lam + 1.0))
             / (beta * gamma - 1.0))
    x0 = lam * (1.0 - 1e-9) if lam / math.e <= bound else _roots(bound, lam)[0]
    if x0 < sys.float_info.min:
        raise NumericError(f"x0 = {x0!r} of lambda = {lam!r} falls below "
                           f"the normal float range")
    log_x0 = math.log(x0)
    ratio = (math.log(lam) - log_x0) / (_log_lambda_c(pc) - log_x0)
    alpha = 1.0 - max(0.5, ratio)
    t = ((1.0 - alpha) * gamma / (beta * gamma - 1.0)
         * math.log1p(((1.0 - beta) * lam + gamma - 1.0) / (beta * lam + 1.0)))
    return PotentialParams(t=t, alpha=alpha, x0=x0,
                           c_min=min(1.0 / t, math.e / lam), c_max=1.0 / t)


def phi(x: float, pp: PotentialParams, lam: float) -> float:
    """min{1/t, 1/(x log(lambda/x))} on [0, lambda), with phi(0) = 1/t."""
    if not (0.0 <= x < lam):
        raise InputError(f"phi needs x in [0, lambda), got {x}")
    if x == 0.0:
        return 1.0 / pp.t
    s = x * math.log(lam / x)
    return 1.0 / pp.t if s <= pp.t else 1.0 / s


def Phi(x: float, pp: PotentialParams, lam: float) -> float:
    """Integral of phi from 0 to x in closed form: phi is 1/t up to the
    kink k1, 1/(s log(lambda/s)) with primitive -log log(lambda/s) up to the
    kink k2, then 1/t again.  The kinks are the roots of s log(lambda/s) = t;
    there are none (Phi = x/t) when t >= lambda/e."""
    if not (0.0 <= x < lam):
        raise InputError(f"Phi needs x in [0, lambda), got {x}")
    t = pp.t
    if t >= lam / math.e:
        return x / t
    k1, k2 = _roots(t, lam)
    if x <= k1:
        return x / t
    return (k1 / t + math.log(math.log(lam / k1) / math.log(lam / min(x, k2)))
            + max(x - k2, 0.0) / t)


def decay_factor(x: Sequence[float], lambda_u: float,
                 edge_params: Sequence[tuple[float, float]],
                 pp: PotentialParams, lam: float) -> float:
    """phi(F_u(x)) * sum_i |dF_u/dx_i| / phi(x_i) at a strictly interior x,
    where F_u(x) = lambda_u prod_i (beta_i x_i + 1)/(x_i + gamma_i) and
    dF_u/dx_i = F_u (beta_i gamma_i - 1)/((beta_i x_i + 1)(x_i + gamma_i))."""
    if len(x) != len(edge_params):
        raise InputError("x and edge params disagree in length")
    for xi in x:
        if not (0.0 < xi < lam):
            raise InputError(f"decay factor needs interior x, got {xi}")
    if not x:
        return 0.0
    value = math.prod(((b * xi + 1.0) / (xi + g)
                       for (b, g), xi in zip(edge_params, x)), start=lambda_u)
    if not (0.0 <= value < lam):
        raise InputError(f"recursion value {value} escapes [0, lambda)")
    total = sum(abs(b * g - 1.0) / ((b * xi + 1.0) * (xi + g))
                / phi(xi, pp, lam) for (b, g), xi in zip(edge_params, x))
    return phi(value, pp, lam) * value * total


def trivial_term_bound(lambda_u: float, d: int, pp: PotentialParams,
                       pc: ParamClass) -> float:
    """Uniform bound on any single term of the decay-factor sum at arity d:
    (c_max/c_min) (beta gamma - 1)/gamma^2 * lambda_u *
    ((beta lambda + 1)/(lambda + gamma))^(d-1)."""
    if _integer(d, "arity") < 1:
        raise InputError("term bound needs arity d >= 1")
    beta, gamma, lam = pc.beta, pc.gamma, pc.lambda_bound
    c_trl = (pp.c_max / pp.c_min) * (beta * gamma - 1.0) / gamma ** 2
    return c_trl * lambda_u * ((beta * lam + 1.0) / (lam + gamma)) ** (d - 1)
