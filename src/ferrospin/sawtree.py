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

over the children.  `saw_marginal` folds it on log R in one pass of `_walks`
and stores no tree: a spin-0 leaf (x = inf) adds exactly log beta_i, a
spin-1 leaf (x = 0) exactly -log gamma_i.  A per-vertex table, built once
per call, holds each neighbour's edge, its pinned leaf term (or None), log
beta_e and -log gamma_e, so a walk reads its leaf terms without a lookup
per neighbour, and `_fold`, the module's one log-space edge factor, folds
every finished subtree into its parent.  `evaluate_ratios` folds log R the
same way, bottom-up over a tree `build_saw_tree` stored, with ratio pins, or
with the spins `pin_saw_tree` attaches, which `prune_pinned_leaves` can fold
into their parents' fields.

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
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, NamedTuple, Sequence

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
    pinned_spin: dict[int, int] = field(default_factory=dict)

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
        tree.preimage.append(pre)
        tree.parent.append(par)
        tree.children.append([])
        tree.depth.append(dep)
        tree.boundary_copy.append(bc)
        tree.cycle_closing.append(cc)
        tree.cycle_spin.append(spin)
        tree.edge_to_parent.append(eidx)
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


def pin_saw_tree(tree: SawTree, sigma: Pinning) -> SawTree:
    """Attach spins: boundary copies take sigma at their preimage; a
    cycle-closing copy takes the spin forced by the walk successor of its
    first visit (0 if the successor is larger in the vertex order, else 1)."""
    spins: dict[int, int] = {}
    for u in range(len(tree)):
        if tree.boundary_copy[u]:
            pre = tree.preimage[u]
            if pre not in sigma:
                raise InputError(f"boundary vertex {pre} missing from pinning")
            spins[u] = sigma[pre]
        elif tree.cycle_closing[u]:
            spins[u] = tree.cycle_spin[u]
    return replace(tree, pinned_spin=spins)


def prune_pinned_leaves(tree: SawTree,
                        system: TwoSpinSystem) -> tuple[SawTree, dict[int, float]]:
    """Fold every pinned leaf into its parent's field and drop it.

    A pinned-0 leaf multiplies the parent field by beta_e, a pinned-1 leaf by
    1/gamma_e.  Returns the reduced tree (same node ids, pinned leaves
    detached) and the map node -> effective lambda for nodes that changed.
    A field past the float range, above or below the normal floats, is a
    NumericError naming its node and log field.
    """
    log_fields: dict[int, float] = {}
    dropped = set()
    for u, s in tree.pinned_spin.items():
        if not tree.is_leaf(u):
            raise InputError(f"pinned node {u} is not a leaf")
        par = tree.parent[u]
        e = tree.edge_to_parent[u]
        base = log_fields.get(par, system.log_lambda[tree.preimage[par]])
        if s == 0:
            log_fields[par] = base + system.log_beta[e]
        else:
            log_fields[par] = base - system.log_gamma[e]
        dropped.add(u)
    reduced = replace(
        tree,
        children=[[c for c in cs if c not in dropped] for cs in tree.children],
        pinned_spin={})
    try:
        fields = {u: math.exp(lw) for u, lw in log_fields.items()}
    except OverflowError:
        u = max(log_fields, key=log_fields.get)
        raise NumericError(
            f"node {u} (vertex {tree.preimage[u]}): field = exp("
            f"{log_fields[u]!r}) overflows the float range") from None
    for u, f in fields.items():
        if f < sys.float_info.min:
            raise NumericError(
                f"node {u} (vertex {tree.preimage[u]}): field = exp("
                f"{log_fields[u]!r}) falls below the normal float range")
    return reduced, fields


def tree_recursion_step(lambda_u: float,
                        edge_params: Sequence[tuple[float, float]],
                        child_ratios: Sequence[float]) -> float:
    """lambda_u * prod (beta x + 1)/(x + gamma), with the limit conventions
    x = inf -> beta and x = 0 -> 1/gamma taken exactly."""
    if len(edge_params) != len(child_ratios):
        raise InputError("edge params and child ratios disagree in length")
    out = lambda_u
    for (beta, gamma), x in zip(edge_params, child_ratios):
        if math.isinf(x):
            out *= beta
        elif x == 0.0:
            out *= 1.0 / gamma
        else:
            out *= (beta * x + 1.0) / (x + gamma)
    return out


def _log_ratio(val: float, what: str, u: int) -> float:
    """log of a ratio or field in [0, inf] at node u; -inf at 0."""
    if not (val >= 0.0):  # rejects nan and negatives
        raise InputError(f"{what} at node {u} must be in [0, inf]")
    return math.log(val) if val > 0.0 else -math.inf


def evaluate_ratios(tree: SawTree, system: TwoSpinSystem,
                    ratio_pin: dict[int, float] | None = None,
                    fields: dict[int, float] | None = None) -> dict[int, float]:
    """Bottom-up ratio at every evaluated node, folded on log R.

    `ratio_pin` pins nodes to ratio values in [0, inf] (their subtrees are
    skipped); spin pinnings on the tree give ratio inf for spin 0 and 0 for
    spin 1; `fields` overrides per-node lambda.  A pinned node comes back as
    its pin exactly.  A child at ratio inf adds exactly log beta_e, one at 0
    exactly -log gamma_e, and `_fold` folds in any other.  A ratio past the
    float range on the way out raises NumericError naming the node, its
    vertex and log R.
    """
    # spin 0 is ratio inf, spin 1 ratio 0; a ratio pin wins over a spin
    pins = {u: math.inf if s == 0 else 0.0
            for u, s in tree.pinned_spin.items()} | (ratio_pin or {})
    fields = fields or {}
    lb, lg = system.log_beta, system.log_gamma
    # nodes below a pin are never evaluated; parents come before children
    order = [0]
    for u in order:
        if u not in pins:
            order.extend(tree.children[u])
    R: dict[int, float] = {}
    log_r: dict[int, float] = {}
    for u in reversed(order):
        if u in pins:
            R[u], log_r[u] = pins[u], _log_ratio(pins[u], "pinned ratio", u)
            continue
        acc = [_log_ratio(fields[u], "field", u) if u in fields
               else system.log_lambda[tree.preimage[u]]]
        via = [-1]
        for c in tree.children[u]:
            x, e = log_r[c], tree.edge_to_parent[c]
            if x == math.inf:
                acc[0] += lb[e]
            elif x == -math.inf:
                acc[0] -= lg[e]
            else:
                acc.append(x)
                via.append(e)
                _fold(acc, via, 1, lb, lg)
        log_r[u] = acc[0]
        try:
            R[u] = math.exp(acc[0])
        except OverflowError:
            raise NumericError(
                f"node {u} (vertex {tree.preimage[u]}): ratio = exp("
                f"{acc[0]!r}) overflows the float range") from None
    return R


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


class SawMarginal(NamedTuple):
    p0: float
    p1: float
    tree_nodes: int


def saw_marginal(system: TwoSpinSystem, v: int,
                 spin_pin: Pinning = Pinning()) -> SawMarginal:
    """Exact (p0, p1) of vertex v given the pinning, and the node count of
    its walk tree (boundary = pin domain), in one pass of `_walks`.

    `acc[i]` is log R of walk[:i + 1] so far, started at log lambda of its
    endpoint; each boundary or cycle-closing copy adds its spin's factor,
    read from a per-vertex table built once per call.  A walk of length d
    shows that the frames from depth d - 1 on are finished, and `_fold`
    folds each into its parent.  Over `REGION_NODE_CAP` nodes raise
    CapacityError.
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
    acc: list[float] = []
    via: list[int] = []  # via[i]: edge from walk[i - 1] to walk[i]
    nodes = 1

    def expand(walk, pos, e):
        nonlocal nodes
        d = len(walk)
        if len(acc) >= d:
            _fold(acc, via, d - 1, lb, lg)
        p = walk[-1]
        nodes += children[p]
        if nodes > node_cap:
            raise CapacityError(f"saw tree of vertex {v} reached {nodes} "
                                f"nodes, over node cap {node_cap}")
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
    _fold(acc, via, 1, lb, lg)
    # p0 = R/(1 + R) and p1 = 1/(1 + R) without forming R = exp(acc[0])
    t = math.exp(-abs(acc[0]))
    pair = (1.0 / (1.0 + t), t / (1.0 + t))
    return SawMarginal(*(pair if acc[0] > 0.0 else pair[::-1]), nodes)


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
    """phi(F_u(x)) * sum_i |dF_u/dx_i| / phi(x_i) at a strictly interior x;
    dF_u/dx_i = F_u (beta_i gamma_i - 1)/((beta_i x_i + 1)(x_i + gamma_i))."""
    if len(x) != len(edge_params):
        raise InputError("x and edge params disagree in length")
    for xi in x:
        if not (0.0 < xi < lam):
            raise InputError(f"decay factor needs interior x, got {xi}")
    if not x:
        return 0.0
    value = tree_recursion_step(lambda_u, edge_params, x)
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
    if d < 1:
        raise InputError("term bound needs arity d >= 1")
    beta, gamma, lam = pc.beta, pc.gamma, pc.lambda_bound
    c_trl = (pp.c_max / pp.c_min) * (beta * gamma - 1.0) / gamma ** 2
    return c_trl * lambda_u * ((beta * lam + 1.0) / (lam + gamma)) ** (d - 1)
