"""Independent brute-force oracles for the test suite.

Everything here is deliberately primitive: pure-Python linear-space products
over explicit configuration tuples (log-space sums where the products would
overflow), no numpy, no imports from the package under test.  Slow past n ~ 12, which is the point — these are ground truth,
not production code.

Conventions: a system is (n, lam, edges) with lam a list of per-vertex
fields and edges a list of (u, v, beta, gamma) tuples; a configuration is a
tuple of n ints in {0, 1}.
"""

from __future__ import annotations

import itertools
import math
import random


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
        g_deg = system.degree(tree.preimage[u])
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
