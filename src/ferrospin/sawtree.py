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
spin-1 leaf (x = 0) exactly -log gamma_i.  `evaluate_ratios` runs it in
linear scale on a tree `build_saw_tree` stored, with ratio pins, or with the
spins `pin_saw_tree` attaches, which `prune_pinned_leaves` can fold into
their parents' fields.

The second half of the module builds the contraction potential for a
parameter class: the edge functions g, the threshold x0, the exponent alpha,
the scale t, phi = min{1/t, 1/(x log(lambda/x))} and its primitive Phi, the
per-node decay factor, and the geometric single-term bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from scipy.optimize import minimize_scalar

from . import constants
from .errors import CapacityError, InputError, NumericError
from .model import ParamClass, Pinning, TwoSpinSystem, lambda_c


@dataclass
class SawTree:
    """Walk tree rooted at `root_vertex`, nodes in creation order (root = 0).

    Children of every node are ordered by increasing preimage vertex, and a
    node's id is always smaller than its descendants', so a reverse-id sweep
    is a valid post-order.
    """

    root_vertex: int
    boundary: frozenset[int]
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
        if not (0 <= b < system.n):
            raise InputError(f"boundary vertex {b} out of range")
    if not (0 <= root < system.n):
        raise InputError(f"root vertex {root} out of range")
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

    tree = SawTree(root_vertex=root, boundary=bset, preimage=[root],
                   parent=[-1], children=[[]], depth=[0],
                   boundary_copy=[False], cycle_closing=[False],
                   cycle_spin=[None], edge_to_parent=[None])

    def new_node(pre, par, dep, bc, cc, spin, eidx):
        nid = len(tree.preimage)
        if nid >= node_cap:
            raise CapacityError(f"saw tree exceeds node cap {node_cap}")
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
        for (w, eidx) in system.neighbors(p):  # increasing vertex order
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
            spins[u] = sigma.value(pre)
        elif tree.cycle_closing[u]:
            spins[u] = tree.cycle_spin[u]
    return replace(tree, pinned_spin=spins)


def prune_pinned_leaves(tree: SawTree,
                        system: TwoSpinSystem) -> tuple[SawTree, dict[int, float]]:
    """Fold every pinned leaf into its parent's field and drop it.

    A pinned-0 leaf multiplies the parent field by beta_e, a pinned-1 leaf by
    1/gamma_e.  Returns the reduced tree (same node ids, pinned leaves
    detached) and the map node -> effective lambda for nodes that changed.
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
    fields = {u: math.exp(lw) for u, lw in log_fields.items()}
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


def evaluate_ratios(tree: SawTree, system: TwoSpinSystem,
                    ratio_pin: dict[int, float] | None = None,
                    fields: dict[int, float] | None = None) -> dict[int, float]:
    """Bottom-up ratio at every evaluated node.

    `ratio_pin` pins nodes to ratio values in [0, inf] (their subtrees are
    skipped); spin pinnings on the tree give ratio inf for spin 0 and 0 for
    spin 1; `fields` overrides per-node lambda.
    """
    ratio_pin = ratio_pin or {}
    fields = fields or {}
    # forward pass: nodes strictly below a pinned node are never evaluated
    active = [False] * len(tree)
    active[0] = True
    for u in range(1, len(tree)):
        par = tree.parent[u]
        active[u] = (active[par] and par not in ratio_pin
                     and par not in tree.pinned_spin)
    R: dict[int, float] = {}
    for u in range(len(tree) - 1, -1, -1):
        if not active[u]:
            continue
        if u in ratio_pin:
            val = ratio_pin[u]
            if not (val >= 0.0):  # rejects nan and negatives
                raise InputError(f"pinned ratio at node {u} must be in [0, inf]")
            R[u] = val
            continue
        if u in tree.pinned_spin:
            R[u] = math.inf if tree.pinned_spin[u] == 0 else 0.0
            continue
        try:
            lam_u = fields.get(u, system.lam(tree.preimage[u]))
        except OverflowError:
            v = tree.preimage[u]
            raise NumericError(
                f"vertex {v}: lambda = exp({system.log_lambda[v]!r}) "
                f"overflows the linear-scale walk-tree recursion") from None
        if tree.is_leaf(u):
            R[u] = lam_u
            continue
        params = []
        ratios = []
        try:
            for c in tree.children[u]:
                e = tree.edge_to_parent[c]
                params.append((system.beta(e), system.gamma(e)))
                ratios.append(R[c])
        except OverflowError:
            a, b = system.edges[e]
            name, x = max(("beta", system.log_beta[e]),
                          ("gamma", system.log_gamma[e]), key=lambda t: t[1])
            raise NumericError(
                f"edge {e} ({a},{b}): {name} = exp({x!r}) overflows the "
                f"linear-scale walk-tree recursion") from None
        try:
            R[u] = tree_recursion_step(lam_u, params, ratios)
        except ZeroDivisionError:  # a ratio-0 child over an underflowed gamma
            e = next(tree.edge_to_parent[c] for c, (_, g), x in
                     zip(tree.children[u], params, ratios) if g == x == 0.0)
            a, b = system.edges[e]
            raise NumericError(
                f"edge {e} ({a},{b}): gamma = exp({system.log_gamma[e]!r}) "
                f"underflows the linear-scale walk-tree recursion") from None
    return R


def _log_edge_factor(log_x: float, log_beta: float, log_gamma: float) -> float:
    """log((beta x + 1)/(x + gamma)) from log x, as a difference of two
    log-sum-exps; log x = inf gives log beta and -inf gives -log gamma."""
    if log_x > 0.0:  # log(beta + 1/x) - log(1 + gamma/x)
        a, b, c, d = log_beta, -log_x, 0.0, log_gamma - log_x
    else:            # log(1 + beta x) - log(x + gamma)
        a, b, c, d = 0.0, log_beta + log_x, log_x, log_gamma
    return (max(a, b) + math.log1p(math.exp(-abs(a - b)))
            - max(c, d) - math.log1p(math.exp(-abs(c - d))))


class SawMarginal(NamedTuple):
    p0: float
    p1: float
    tree_nodes: int


def saw_marginal(system: TwoSpinSystem, v: int,
                 spin_pin: Pinning = Pinning()) -> SawMarginal:
    """Exact (p0, p1) of vertex v given the pinning, and the node count of
    its walk tree (boundary = pin domain), in one pass of `_walks`.

    `acc[i]` is log R of walk[:i + 1] so far, started at log lambda of its
    endpoint; each boundary or cycle-closing copy adds its spin's factor.  A
    walk of length d shows that the frames from depth d - 1 on are finished,
    and each folds into its parent.  Over `REGION_NODE_CAP` nodes raise
    CapacityError.
    """
    if v in spin_pin:
        raise InputError(f"vertex {v} is pinned")
    pins = dict(spin_pin.items())
    _check_root(system, v, pins)
    lb, lg, adj = system.log_beta, system.log_gamma, system.adjacency
    node_cap = constants.REGION_NODE_CAP
    acc: list[float] = []
    via: list[int] = []  # via[i]: edge from walk[i - 1] to walk[i]
    nodes = 1

    def fold(depth):
        while len(acc) > depth:
            f = via.pop()
            x = acc.pop()
            acc[-1] += _log_edge_factor(x, lb[f], lg[f])

    def expand(walk, pos, e):
        nonlocal nodes
        d = len(walk)
        fold(d - 1)
        p = walk[-1]
        nodes += len(adj[p]) - (d > 1)
        if nodes > node_cap:
            raise CapacityError(f"saw tree exceeds node cap {node_cap}")
        prev = walk[-2] if d > 1 else -1
        log_r = system.log_lambda[p]
        descend = []
        for w, f in adj[p]:
            if w == prev:
                continue
            s = pins.get(w)
            if s is None:
                i = pos.get(w)
                if i is None:
                    descend.append((w, f))
                    continue
                s = _closing_spin(walk, i)
            log_r += lb[f] if s == 0 else -lg[f]
        acc.append(log_r)
        via.append(e)
        return descend

    _walks(v, -1, expand)
    fold(1)
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


def _bisect(f: Callable[[float], float], lo: float, hi: float,
            iters: int = 200) -> float:
    flo = f(lo)
    if flo > 0.0:
        raise NumericError("bisection bracket does not straddle the root")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def derive_potential(pc: ParamClass) -> PotentialParams:
    """Build the potential constants for a class with lambda < lambda_c.

    x0 is the largest point such that (beta gamma - 1) x log(lambda/x),
    normalized by log((lambda+gamma)/(lambda+1)), stays <= 1/2 on (0, x0];
    since x log(lambda/x) increases up to lambda/e, this is a bisection on
    the rising branch (or essentially all of (0, lambda) when even the peak
    satisfies the bound).  Then

        alpha = 1 - max{1/2, (log lambda - log x0)/(log lambda_c - log x0)}
        t = (1-alpha) gamma/(beta gamma - 1) * log((lambda+gamma)/(beta lambda+1))

    and c_min/c_max bracket phi over [0, lambda) by 1-D optimization.
    """
    lam = pc.lambda_bound
    lc = lambda_c(pc)
    if lam >= lc:
        raise InputError(
            f"potential needs lambda < lambda_c ({lc!r}), got {lam!r}")
    beta, gamma = pc.beta, pc.gamma
    norm = math.log1p((gamma - 1.0) / (lam + 1.0))

    def h(x):
        return (beta * gamma - 1.0) * x * math.log(lam / x) / norm - 0.5

    peak = lam / math.e
    if h(peak) <= 0.0:
        x0 = lam * (1.0 - 1e-9)
    else:
        # x log(lam/x) rises on (0, lam/e]; bracket from far below the peak
        x0 = _bisect(h, max(lam * 1e-300, 5e-324), peak)
    ratio = (math.log(lam) - math.log(x0)) / (math.log(lc) - math.log(x0))
    alpha = 1.0 - max(0.5, ratio)
    t = ((1.0 - alpha) * gamma / (beta * gamma - 1.0)
         * math.log1p(((1.0 - beta) * lam + gamma - 1.0) / (beta * lam + 1.0)))

    def phi_t(x):
        if x <= 0.0:
            return 1.0 / t
        s = x * math.log(lam / x)
        return 1.0 / t if s <= t else 1.0 / s

    lo_res = minimize_scalar(phi_t, bounds=(lam * 1e-12, lam * (1 - 1e-12)),
                             method="bounded")
    hi_res = minimize_scalar(lambda x: -phi_t(x),
                             bounds=(lam * 1e-12, lam * (1 - 1e-12)),
                             method="bounded")
    c_min = min(float(lo_res.fun), 1.0 / t)
    c_max = max(float(-hi_res.fun), 1.0 / t)
    return PotentialParams(t=t, alpha=alpha, x0=x0, c_min=c_min, c_max=c_max)


def phi(x: float, pp: PotentialParams, lam: float) -> float:
    """min{1/t, 1/(x log(lambda/x))} on [0, lambda), with phi(0) = 1/t."""
    if not (0.0 <= x < lam):
        raise InputError(f"phi needs x in [0, lambda), got {x}")
    if x == 0.0:
        return 1.0 / pp.t
    s = x * math.log(lam / x)
    return 1.0 / pp.t if s <= pp.t else 1.0 / s


def _adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                      tol: float) -> float:
    def rec(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        if depth <= 0:
            raise NumericError("adaptive quadrature failed to converge")
        return (rec(a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
                + rec(m, b, fm, frm, fb, right, 0.5 * tol, depth - 1))

    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return rec(a, b, fa, fm, fb, whole, tol, 60)


def Phi(x: float, pp: PotentialParams, lam: float,
        tol: float = constants.QUADRATURE_ABS_TOL) -> float:
    """Integral of phi from 0 to x, split at the kinks where the min switches."""
    if not (0.0 <= x < lam):
        raise InputError(f"Phi needs x in [0, lambda), got {x}")
    f = lambda s: phi(s, pp, lam)
    peak = lam / math.e
    cuts = [0.0]
    if peak * math.log(lam / peak) > pp.t:  # two kink points straddle lam/e
        k = lambda s: s * math.log(lam / s) - pp.t
        k1 = _bisect(k, lam * 1e-30, peak)                   # rising branch
        k2 = _bisect(lambda s: -k(s), peak, lam * (1.0 - 1e-15))  # falling
        cuts += [k1, k2]
    cuts = sorted(c for c in cuts if c < x) + [x]
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        total += _adaptive_simpson(f, a, b, tol * (b - a) / max(x, 1e-300))
    return total


def decay_factor(x: Sequence[float], lambda_u: float,
                 edge_params: Sequence[tuple[float, float]],
                 pp: PotentialParams, lam: float) -> float:
    """phi(F_u(x)) * sum_i |dF_u/dx_i| / phi(x_i) at a strictly interior x.

    The partial derivative is evaluated in closed form:
    lambda_u (beta_i gamma_i - 1)/(x_i+gamma_i)^2 * prod_{j != i}
    (beta_j x_j + 1)/(x_j + gamma_j).
    """
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
    factors = [(b * xi + 1.0) / (xi + g) for (b, g), xi in zip(edge_params, x)]
    total = 0.0
    for i, ((b, g), xi) in enumerate(zip(edge_params, x)):
        partial = lambda_u * (b * g - 1.0) / (xi + g) ** 2
        for j, fj in enumerate(factors):
            if j != i:
                partial *= fj
        total += abs(partial) / phi(xi, pp, lam)
    return phi(value, pp, lam) * total


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
