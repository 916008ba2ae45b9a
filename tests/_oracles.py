"""Independent brute-force oracles for the test suite.

Everything here is deliberately primitive: pure-Python linear-space products
over explicit configuration tuples (log-space sums where the products would
overflow), no numpy, no imports from the package under test.  Slow past n ~ 12, which is the point — these are ground truth,
not production code.

Conventions: a system is (n, lam, edges) with lam a list of per-vertex
fields and edges a list of (u, v, beta, gamma) tuples; a configuration is a
tuple of n ints in {0, 1}.

The linear walk-tree recursion, `evaluate_ratios`, is the library's own
route as it stood before it folded log R: it reads the package's stored tree
and system, multiplies the factors of its own linear step,
`recursion_step`, in linear scale, and raises the package's errors where a
factor leaves the float range.

One exception is the multiplicative reversiblization, a dense matrix
product on numpy arrays.  The other is the reference chain at the end: the
samplers' step as it was before the compiled kernel, on configuration
tuples with one conditional computed per call.  It reads the package's system object and
keeps the samplers' own numpy enumeration for dependent blocks, so the
compiled kernel has to match it bit for bit.

The exact-layer references near the end are the per-configuration routes
the library used before it read every conditional and influence from one
log-weight table: a numpy bit mask and two scipy `logsumexp` calls per
pinning, on the package's own `log_weights` table, which they receive as an
argument (its doubling construction, which builds each edge's terms by
gathering on the index bits, is kept beside them).  Beside them is the
normalisation by one scipy `logsumexp`, the reference for the package's
own numpy log-sum-exp.

`first_block_scan` is the scan kernel's route as it stood before it ran one
start per sector of its first block: the first block's heat bath scattered
into a full zero matrix by the package's `_add_heatbath`, then each later
block right-multiplied into the full matrix by its `_then_heatbath`.

The contraction-potential oracles work in mpmath: the roots of
x log(lambda/x) = c from mpmath's Lambert W at 30 digits, and Phi by
`mp.quad` of the definition phi = min{1/t, 1/(x log(lambda/x))} at 20.
"""

from __future__ import annotations

import itertools
import math
import random

import mpmath as mp
import numpy as np
from scipy.special import logsumexp

from ferrospin.errors import InputError, NumericError
from ferrospin.exact import _add_heatbath, _then_heatbath, _weights


def all_configs(n):
    return list(itertools.product((0, 1), repeat=n))


def weight(n, lam, edges, sigma):
    w = 1.0
    for v in range(n):
        if sigma[v] == 0:
            w *= lam[v]
    for (u, v, beta, gamma) in edges:
        if sigma[u] == 0 and sigma[v] == 0:
            w *= beta
        elif sigma[u] == 1 and sigma[v] == 1:
            w *= gamma
    return w


def gibbs(n, lam, edges):
    """Exact Gibbs table as {config tuple: probability}, plus Z."""
    table = {s: weight(n, lam, edges, s) for s in all_configs(n)}
    z = sum(table.values())
    return {s: w / z for s, w in table.items()}, z


def conditional(n, lam, edges, pin, v):
    """(p0, p1) for vertex v given the partial assignment `pin` (dict)."""
    assert v not in pin
    w0 = w1 = 0.0
    for s in all_configs(n):
        if any(s[u] != x for u, x in pin.items()):
            continue
        w = weight(n, lam, edges, s)
        if s[v] == 0:
            w0 += w
        else:
            w1 += w
    tot = w0 + w1
    return w0 / tot, w1 / tot


def marginal(n, lam, edges, v):
    return conditional(n, lam, edges, {}, v)


def log_conditional(n, log_weight, pin, v):
    """(p0, p1) for vertex v given `pin` (dict), where `log_weight(sigma)` is
    a configuration's log weight: for parameters whose linear products
    overflow.  Sums are shifted by the largest log weight of each spin."""
    assert v not in pin
    logs = {0: [], 1: []}
    for s in all_configs(n):
        if all(s[u] == x for u, x in pin.items()):
            logs[s[v]].append(log_weight(s))
    m0, m1 = max(logs[0]), max(logs[1])
    # log of the weight sums of v = 0 and v = 1
    l0 = m0 + math.log(sum(math.exp(x - m0) for x in logs[0]))
    l1 = m1 + math.log(sum(math.exp(x - m1) for x in logs[1]))
    t = math.exp(-abs(l1 - l0))
    if l1 >= l0:
        return t / (1.0 + t), 1.0 / (1.0 + t)
    return 1.0 / (1.0 + t), t / (1.0 + t)


def log_weight_fn(n, log_lam, log_edges):
    """sigma -> log weight, with log_edges as (u, v, log beta, log gamma)."""
    def log_weight(sigma):
        total = sum(log_lam[u] for u in range(n) if sigma[u] == 0)
        for (u, v, lb, lg) in log_edges:
            if sigma[u] == sigma[v]:
                total += lb if sigma[u] == 0 else lg
        return total
    return log_weight


def rbm_log_weight_fn(w, theta):
    """sigma -> energy sum_{u<v} w_uv s_u s_v + sum_v theta_v s_v, the log
    weight of an RBM configuration."""
    n = len(theta)

    def log_weight(sigma):
        total = sum(theta[u] for u in range(n) if sigma[u])
        for u in range(n):
            for v in range(u + 1, n):
                if sigma[u] and sigma[v]:
                    total += w[u][v]
        return total
    return log_weight


def tv(p, q):
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def influence(n, lam, edges, u, v):
    """Pr[X_v=1 | X_u=1] - Pr[X_v=1 | X_u=0]."""
    _, p1_given1 = conditional(n, lam, edges, {u: 1}, v)
    _, p1_given0 = conditional(n, lam, edges, {u: 0}, v)
    return p1_given1 - p1_given0


def all_to_one(n, lam, edges, v):
    """Sum over u != v of |Pr[X_v=0|X_u=0] - Pr[X_v=0|X_u=1]|."""
    total = 0.0
    for u in range(n):
        if u == v:
            continue
        p0_given0, _ = conditional(n, lam, edges, {u: 0}, v)
        p0_given1, _ = conditional(n, lam, edges, {u: 1}, v)
        total += abs(p0_given0 - p0_given1)
    return total


def site_conditional_p1(n, lam, edges, sigma, v):
    """p(sigma_v = 1 | rest of sigma) from the local factor ratio."""
    ratio = lam[v]  # weight(sigma_v=0) / weight(sigma_v=1), local factors only
    for (a, b, beta, gamma) in edges:
        if a == v or b == v:
            other = b if a == v else a
            if sigma[other] == 0:
                ratio *= beta
            else:
                ratio /= gamma
    return 1.0 / (1.0 + ratio)


def glauber_row(n, lam, edges, sigma):
    """One-step Glauber distribution {tau: prob} from sigma."""
    row = {}
    for v in range(n):
        p1 = site_conditional_p1(n, lam, edges, sigma, v)
        up = tuple(1 if u == v else sigma[u] for u in range(n))
        down = tuple(0 if u == v else sigma[u] for u in range(n))
        row[up] = row.get(up, 0.0) + p1 / n
        row[down] = row.get(down, 0.0) + (1.0 - p1) / n
    return row


def block_row(n, lam, edges, sigma, block):
    """Heat-bath resample of `block` given sigma outside it: {tau: prob}."""
    block = sorted(block)
    rest = [v for v in range(n) if v not in block]
    weights = {}
    for vals in itertools.product((0, 1), repeat=len(block)):
        tau = list(sigma)
        for v, x in zip(block, vals):
            tau[v] = x
        tau = tuple(tau)
        weights[tau] = weight(n, lam, edges, tau)
    z = sum(weights.values())
    return {tau: w / z for tau, w in weights.items()}


def apply_row_fn(dist, row_fn):
    """Push a distribution {sigma: p} through a one-step kernel."""
    out = {}
    for sigma, p in dist.items():
        if p == 0.0:
            continue
        for tau, q in row_fn(sigma).items():
            out[tau] = out.get(tau, 0.0) + p * q
    return out


def scan_row(n, lam, edges, sigma, blocks):
    """Row of the systematic-scan kernel: blocks resampled in list order."""
    dist = {sigma: 1.0}
    for block in blocks:
        dist = apply_row_fn(dist, lambda s: block_row(n, lam, edges, s, block))
    return dist


def mixing_time(n, lam, edges, row_fn, eps, cap=10000):
    """min t with max-over-starts TV(P^t(s,.), mu) < eps."""
    mu, _ = gibbs(n, lam, edges)
    dists = {s: {s: 1.0} for s in all_configs(n)}
    for t in range(1, cap + 1):
        dists = {s: apply_row_fn(d, row_fn) for s, d in dists.items()}
        if max(tv(d, mu) for d in dists.values()) < eps:
            return t
    raise RuntimeError("oracle mixing time exceeded cap")


def multiplicative_reversiblization(Q, mu):
    """R(Q) = Q Q* as a dense array, with Q*(s,t) = mu(t) Q(t,s) / mu(s), for
    a kernel array Q and a strictly positive stationary vector mu; R is
    reversible wrt mu."""
    qstar = (Q.T * mu[None, :]) / mu[:, None]
    return Q @ qstar


def glauber_lambda2(P, mu):
    """Second eigenvalue of a reversible kernel array P with strictly
    positive stationary vector mu, by a full eigvalsh of the symmetrized
    (S + S^T)/2, S = D^(1/2) P D^(-1/2): the dense route of
    spectral_report(kind="glauber"), the reference of its Lanczos route."""
    d = np.sqrt(mu)
    S = (d[:, None] * P) / d[None, :]
    return float(np.linalg.eigvalsh((S + S.T) / 2.0)[-2])


# ---------------------------------------------------------------------------
# random instances

def random_connected_graph(rng: random.Random, n, p=0.5):
    """Edge list of a connected G(n,p); a random spanning tree guarantees
    connectivity, extra edges added with probability p."""
    verts = list(range(n))
    rng.shuffle(verts)
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        u, v = verts[i], verts[j]
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < p:
                edges.add((u, v))
    return sorted(edges)


def random_ferro_params(rng: random.Random, pairs, lambda_bound=1.5):
    """Per-edge (beta, gamma) with beta*gamma > 1, heterogeneous."""
    edges = []
    for (u, v) in pairs:
        beta = rng.uniform(0.5, 1.0)
        gamma = rng.uniform(1.0 / beta + 0.1, 5.0)
        edges.append((u, v, beta, gamma))
    return edges


def random_instance(rng: random.Random, n, p=0.5, lambda_bound=1.5):
    pairs = random_connected_graph(rng, n, p)
    edges = random_ferro_params(rng, pairs)
    lam = [rng.uniform(1e-3, lambda_bound) for _ in range(n)]
    return n, lam, edges


def random_uniform_instance(rng: random.Random, n, beta, gamma, lambda_bound, p=0.5):
    """Single (beta, gamma) on every edge, lam_v < lambda_bound strictly."""
    pairs = random_connected_graph(rng, n, p)
    edges = [(u, v, beta, gamma) for (u, v) in pairs]
    lam = [rng.uniform(1e-3, lambda_bound * (1 - 1e-9)) for _ in range(n)]
    return n, lam, edges


# ---------------------------------------------------------------------------
# self-avoiding walks (adj: {vertex: iterable of neighbours})

def self_avoiding_walks(adj, root, stop=(), max_edges=None):
    """Every self-avoiding walk from `root` as a vertex tuple.  A walk is not
    extended past a vertex of `stop` (other than the root) or beyond
    `max_edges` edges."""
    walks = []

    def extend(walk):
        walks.append(walk)
        if len(walk) > 1 and walk[-1] in stop:
            return
        if max_edges is not None and len(walk) > max_edges:
            return
        for w in adj[walk[-1]]:
            if w not in walk:
                extend(walk + (w,))

    extend((root,))
    return walks


def saw_tree_nodes(adj, root, boundary=()):
    """Walk-tree nodes keyed by their walk:
    {walk: (boundary_copy, cycle_closing, cycle_spin, is_leaf)}.

    A cycle-closing copy extends a walk ending at u by an earlier walk vertex
    w other than u's predecessor; its spin is 0 when the walk first left w
    towards a larger vertex than u, else 1.
    """
    flags = {}
    for walk in self_avoiding_walks(adj, root, stop=boundary):
        u = walk[-1]
        on_boundary = len(walk) > 1 and u in boundary
        flags[walk] = (on_boundary, False, None)
        if on_boundary:
            continue
        for w in adj[u]:
            if w in walk[:-2]:
                spin = 0 if walk[walk.index(w) + 1] > u else 1
                flags[walk + (w,)] = (False, True, spin)
    inner = {walk[:-1] for walk in flags}
    return {walk: f + (walk not in inner,) for walk, f in flags.items()}


def _off_walk(adj, walk, j):
    """Neighbours of walk[j] that are not among walk[0..j]."""
    return [w for w in adj[walk[j]] if w not in walk[:j + 1]]


def grown_region(adj, center, d1, d2):
    """Members of the region grown from `center`.

    With b_j the number of neighbours of a walk's j-th vertex off its first
    j+1 vertices and B_j = b_0 + ... + b_j, growth extends a walk past its
    j-th vertex while B_j < d1; stopping there with b_j < d2 it takes all b_j
    of them.  So a walk's endpoint joins iff B_{k-2} < d1 and (B_{k-1} < d1
    or b_{k-1} < d2), k its edge count.  Every extension adds at least 1 to
    B, so no reached walk has more than d1 edges.
    """
    members = set()
    for walk in self_avoiding_walks(adj, center, max_edges=d1):
        k = len(walk) - 1
        b = [len(_off_walk(adj, walk, j)) for j in range(k)]
        B = [sum(b[:j + 1]) for j in range(k)]
        if k >= 2 and B[k - 2] >= d1:
            continue
        if k == 0 or B[k - 1] < d1 or b[k - 1] < d2:
            members.add(walk[-1])
    return members


def region_boundary_walks(adj, center, members, d1, d2):
    """{walk: passes} over the walks from `center` through `members` that
    end on their first vertex outside `members`.

    With f_j (c_j) the member (all) neighbours of a walk's j-th vertex off
    its first j+1 vertices, a walk of k edges passes when
    f_0 + ... + f_{k-2} >= d1 or max(c_0, ..., c_{k-1}) >= d2.
    """
    outside = set(adj) - set(members)
    out = {}
    for walk in self_avoiding_walks(adj, center, stop=outside):
        if walk[-1] in members:
            continue
        k = len(walk) - 1
        off = [_off_walk(adj, walk, j) for j in range(k)]
        fsum = sum(1 for j in range(k - 1) for w in off[j] if w in members)
        maxcc = max(len(o) for o in off)
        out[walk] = fsum >= d1 or maxcc >= d2
    return out


class _StopWalk(Exception):
    pass


def region_verification(adj, center, members, boundary, d1, d2, depth_cap,
                        node_cap):
    """Reference for `verify_region`: (ok, size_ok, boundary_ok, partial,
    nodes_visited, leaves_checked, witness).

    A plain recursion over the walks from `center` through `members`,
    children last neighbour first.  At each walk every neighbour off the walk
    is a child: a `boundary` one is a leaf, checked in adjacency order, and
    the first leaf that meets neither path condition is the witness and ends
    the pass; a member child is walked into unless the walk has more than
    `depth_cap` vertices, which marks the pass partial.  Visiting walk
    `node_cap + 1` marks it partial and ends it.
    """
    size_ok = len(members) <= math.exp(d1) * d2
    if {w for u in members for w in adj[u] if w not in members} != boundary:
        return (False, size_ok, False, False, 0, 0, None)
    out = {"nodes": 0, "leaves": 0, "partial": False, "witness": None}

    def visit(walk, fsum, maxcc):
        out["nodes"] += 1
        if out["nodes"] > node_cap:
            out["partial"] = True
            raise _StopWalk
        off = [w for w in adj[walk[-1]] if w not in walk]
        maxcc = max(maxcc, len(off))
        inner = []
        for w in off:
            if w in boundary:
                out["leaves"] += 1
                if fsum < d1 and maxcc < d2:
                    out["witness"] = walk + (w,)
                    raise _StopWalk
            elif len(walk) > depth_cap:
                out["partial"] = True
            else:
                inner.append(w)
        f_u = sum(1 for w in off if w in members)
        for w in reversed(inner):
            visit(walk + (w,), fsum + f_u, maxcc)

    try:
        visit((center,), 0, 0)
    except _StopWalk:
        pass
    return (out["witness"] is None, size_ok, True, out["partial"],
            out["nodes"], out["leaves"], out["witness"])


# ---------------------------------------------------------------------------
# stored walk trees

def verify_tree_invariants(tree, system):
    """Structural checks on a stored walk tree: a non-leaf node's tree degree
    equals its preimage's degree in the graph, and every leaf is exactly one
    of boundary copy / cycle-closing copy / dead end (degree-1 preimage, or
    an isolated root).  `tree` and `system` are read by attribute only."""
    for u in range(len(tree)):
        tree_deg = len(tree.children[u]) + (1 if tree.parent[u] >= 0 else 0)
        g_deg = len(system.adjacency[tree.preimage[u]])
        assert not (tree.boundary_copy[u] and tree.cycle_closing[u]), (
            f"node {u}: both boundary and cycle-closing")
        if tree.children[u]:
            assert not (tree.boundary_copy[u] or tree.cycle_closing[u]), (
                f"node {u}: flagged copy is not a leaf")
            assert tree_deg == g_deg, (
                f"node {u}: tree degree {tree_deg} != graph degree {g_deg}")
        elif not (tree.boundary_copy[u] or tree.cycle_closing[u]):
            assert (g_deg == 1 and tree.parent[u] >= 0) or g_deg == 0, (
                f"node {u}: unexplained leaf (degree {g_deg})")


def recursion_step(lambda_u, edge_params, child_ratios):
    """lambda_u * prod (beta x + 1)/(x + gamma) in linear scale, with the
    limits x = inf -> beta and x = 0 -> 1/gamma taken exactly."""
    out = lambda_u
    for (beta, gamma), x in zip(edge_params, child_ratios, strict=True):
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
    """Bottom-up ratio at every evaluated node, in linear scale: the
    library's recursion before it folded log R, kept as the reference.

    `ratio_pin` pins nodes to ratio values in [0, inf] (their subtrees are
    skipped); `fields` overrides per-node lambda, in linear scale.
    """
    ratio_pin = ratio_pin or {}
    fields = fields or {}
    # forward pass: nodes strictly below a pinned node are never evaluated
    active = [False] * len(tree)
    active[0] = True
    for u in range(1, len(tree)):
        par = tree.parent[u]
        active[u] = active[par] and par not in ratio_pin
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
        try:
            lam_u = fields.get(
                u, math.exp(system.log_lambda[tree.preimage[u]]))
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
                params.append((math.exp(system.log_beta[e]),
                               math.exp(system.log_gamma[e])))
                ratios.append(R[c])
        except OverflowError:
            a, b = system.edges[e]
            name, x = max(("beta", system.log_beta[e]),
                          ("gamma", system.log_gamma[e]), key=lambda t: t[1])
            raise NumericError(
                f"edge {e} ({a},{b}): {name} = exp({x!r}) overflows the "
                f"linear-scale walk-tree recursion") from None
        try:
            R[u] = recursion_step(lam_u, params, ratios)
        except ZeroDivisionError:  # a ratio-0 child over an underflowed gamma
            e = next(tree.edge_to_parent[c] for c, (_, g), x in
                     zip(tree.children[u], params, ratios) if g == x == 0.0)
            a, b = system.edges[e]
            raise NumericError(
                f"edge {e} ({a},{b}): gamma = exp({system.log_gamma[e]!r}) "
                f"underflows the linear-scale walk-tree recursion") from None
    return R


# ---------------------------------------------------------------------------
# exact-layer references: `logw` is a log-weight table over 2^n
# configurations, bit v of the index being sigma_v; pinnings are dicts

def gathered_log_weights(system):
    """`exact.log_weights` with each edge's terms gathered on the index bits
    of the lower endpoint; the same additions in the same order."""
    n = system.n
    lower = [[] for _ in range(n)]
    for e, (u, v) in enumerate(system.edges):
        lower[max(u, v)].append((min(u, v), e))
    logw = np.zeros(1)
    shift = 0.0
    for v in range(n):
        ll = system.log_lambda[v]
        top = max(ll, 0.0)
        shift += top
        half0 = np.full(logw.size, ll - top)
        half1 = np.full(logw.size, -top)
        idx = np.arange(logw.size)
        for u, e in lower[v]:
            lb, lg = system.log_beta[e], system.log_gamma[e]
            top = max(lb, lg, 0.0)
            shift += top
            bu = (idx >> u) & 1
            half0 += np.array([lb - top, -top])[bu]
            half1 += np.array([-top, lg - top])[bu]
        logw = np.concatenate((logw + half0, logw + half1))
    top = float(logw.max())
    return logw - top, shift + top


def scipy_distribution(logw, shift):
    """(probs, log_z) of a `log_weights` table by one scipy `logsumexp`: the
    route of `exact.gibbs_distribution` before its numpy log-sum-exp."""
    log_z = float(logsumexp(logw))
    return np.exp(logw - log_z), log_z + shift


def masked_conditional(logw, n, pin, v):
    """(p0, p1) of sigma_v given `pin`, by masked log-sum-exp over the whole
    table."""
    idx = np.arange(2 ** n, dtype=np.int64)
    mask = np.ones(idx.shape, dtype=bool)
    for u, s in pin.items():
        mask &= ((idx >> u) & 1) == s
    ones = ((idx >> v) & 1) == 1
    l0 = logsumexp(logw[mask & ~ones])
    l1 = logsumexp(logw[mask & ones])
    m = max(l0, l1)
    w0, w1 = math.exp(l0 - m), math.exp(l1 - m)
    return w0 / (w0 + w1), w1 / (w0 + w1)


def pinned_influence_pair(logw, n, u, v):
    """Pr[X_v=1 | X_u=1] - Pr[X_v=1 | X_u=0], one masked sum per pin."""
    return (masked_conditional(logw, n, {u: 1}, v)[1]
            - masked_conditional(logw, n, {u: 0}, v)[1])


def pinned_all_to_one(logw, n, v):
    """sum_{u != v} |Pr[X_v=0|X_u=0] - Pr[X_v=0|X_u=1]|, one masked sum per
    pin."""
    total = 0.0
    for u in range(n):
        if u != v:
            total += abs(masked_conditional(logw, n, {u: 0}, v)[0]
                         - masked_conditional(logw, n, {u: 1}, v)[0])
    return total


def per_config_a_u(logw, n, centre, u, good):
    """max over the boundary configurations in `good` (dicts over the whole
    boundary) of |P(centre = 1 | u forced 0) - P(centre = 1 | u forced 1)|,
    two masked sums per configuration."""
    best = 0.0
    for sigma in good:
        p1 = [masked_conditional(logw, n, {**sigma, u: c}, centre)[1]
              for c in (0, 1)]
        best = max(best, abs(p1[0] - p1[1]))
    return best


# ---------------------------------------------------------------------------
# reference chain: `system` is a ferrospin TwoSpinSystem (read through n,
# log_lambda, log_beta, log_gamma and neighbors), `schedule` anything with
# kind / blocks / theta / censor; draws come straight from a Philox
# generator, one call per use

def chain_site_conditional(system, config, v):
    """p(sigma_v = 1 | rest of config), neighbour terms in adjacency order."""
    log_ratio = system.log_lambda[v]
    for (w, e) in system.adjacency[v]:
        if config[w] == 0:
            log_ratio += system.log_beta[e]
        else:
            log_ratio -= system.log_gamma[e]
    if log_ratio >= 0.0:
        return math.exp(-log_ratio) / (1.0 + math.exp(-log_ratio))
    return 1.0 / (1.0 + math.exp(log_ratio))


def chain_marginalized_conditional(system, config, v, undecided):
    """p(sigma_v = 1 | decided spins), enumerating the local factors over
    U = {v} + undecided with tables built afresh on every call."""
    U = sorted(set(undecided) | {v})
    m = len(U)
    pos = {u: i for i, u in enumerate(U)}
    inside = set(U)
    c0 = np.array([system.log_lambda[u] for u in U])
    c1 = np.zeros(m)
    in_edges = []
    for i, u in enumerate(U):
        for (w, e) in system.adjacency[u]:
            if w in inside:
                if w > u:
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


def _chain_independent(system, block):
    bset = set(block)
    return not any(w in bset for u in block for (w, _) in system.adjacency[u])


def chain_update(system, configs, block, independent, thresholds):
    """Resample `block` in each configuration on the shared thresholds."""
    out = []
    for config in configs:
        new = list(config)
        for k, v in enumerate(block):
            if independent:
                p1 = chain_site_conditional(system, config, v)
            else:
                p1 = chain_marginalized_conditional(system, new, v,
                                                    block[k + 1:])
            new[v] = 1 if thresholds[k] <= p1 else 0
        out.append(tuple(new))
    return tuple(out)


def chain_run(system, schedule, starts, seed):
    """Yield the configurations after each step from `starts` (one chain or
    a pair on shared draws); a pair leaving the order raises
    AssertionError."""
    n = system.n
    gen = np.random.Generator(np.random.Philox(key=seed))
    if schedule.kind == "field-dynamics":
        lam = [ll + math.log(schedule.theta) for ll in system.log_lambda]
        target = type(system)(n=n, edges=system.edges,
                              log_beta=system.log_beta,
                              log_gamma=system.log_gamma,
                              log_lambda=tuple(lam))
    else:
        target = system
        if schedule.kind == "single-site-glauber":
            blocks = [(v,) for v in range(n)]
        else:
            blocks = [tuple(sorted(set(b))) for b in schedule.blocks]
        if schedule.censor is not None:
            blocks = [tuple(v for v in b if v in schedule.censor)
                      for b in blocks]
        cyclic = schedule.kind in ("systematic-scan-block", "alternating-scan")
    configs, step = tuple(starts), 0
    while True:
        if schedule.kind == "field-dynamics":
            coins = gen.random(n)
            block = tuple(v for v in range(n)
                          if configs[0][v] == 1 or coins[v] <= schedule.theta)
            thresholds = gen.random(len(block))
        else:
            r = gen.random(n + 1)
            k = len(blocks)
            block = blocks[step % k if cyclic else min(int(r[0] * k), k - 1)]
            thresholds = r[1:]
        configs = chain_update(target, configs, block,
                               _chain_independent(target, block), thresholds)
        if len(configs) == 2:
            assert all(a >= b for a, b in zip(*configs)), "order violated"
        step += 1
        yield configs


def chain_coupling_time(system, schedule, seed, cap):
    """First step at which the pair from (all-one, all-zero) merges, or
    None within `cap` steps."""
    n = system.n
    runs = chain_run(system, schedule, ((1,) * n, (0,) * n), seed)
    for t, (up, low) in zip(range(1, cap + 1), runs):
        if up == low:
            return t
    return None


# ---------------------------------------------------------------------------
# scan kernel over the full matrix

def first_block_scan(system, blocks):
    """Entries of the scan kernel of `blocks` (blocks[0] first) on a ferrospin
    TwoSpinSystem: the first block's operator, then each later one."""
    w = _weights(system)
    out = np.zeros((w.size, w.size))
    _add_heatbath(out, w, blocks[0], 1.0)
    for b in blocks[1:]:
        out = _then_heatbath(out, w, b)
    return out


# ---------------------------------------------------------------------------
# contraction potential in mpmath, from the definitions alone

def potential_roots(c, lam):
    """(rising, falling) roots of x log(lam/x) = c, 0 < c <= lam/e, as mpf:
    -c / W_k(-c/lam) on the Lambert-W branches k = -1, 0.  mpf exponents do
    not underflow, so -c/lam keeps all its digits at any lam."""
    with mp.workdps(30):
        c, lam = mp.mpf(c), mp.mpf(lam)
        return tuple(-c / mp.re(mp.lambertw(-c / lam, k)) for k in (-1, 0))


def potential_Phi(x, t, lam):
    """Integral over (0, x) of phi = min{1/t, 1/(s log(lam/s))}.

    phi is 1/t outside the kinks (the roots for c = t); between them `quad`
    integrates phi in u = log s, split where log(lam/s) drops fourfold, so
    the tanh-sinh rule sees a smooth integrand on every stretch."""
    with mp.workdps(20):
        x, t, lam = mp.mpf(x), mp.mpf(t), mp.mpf(lam)
        if t >= lam / mp.e:
            return x / t
        k1, k2 = potential_roots(t, lam)
        total = min(x, k1) / t + max(x - k2, 0) / t
        if x > k1:
            big, y_end = mp.log(lam), mp.log(lam / min(x, k2))
            ys = [mp.log(lam / k1)]
            while ys[-1] / 4 > y_end:
                ys.append(ys[-1] / 4)
            ys.append(y_end)
            total += mp.quad(
                lambda u: min(1 / t, 1 / (mp.exp(u) * (big - u))) * mp.exp(u),
                [big - y for y in ys])
        return total
