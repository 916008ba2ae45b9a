"""Release gates: thirteen end-to-end checks at desk scale.

Each test prints one `criterion NN PASS/FAIL` line (visible under pytest -s)
and asserts the stated tolerance.  Brute-force references here enumerate
configurations directly with numpy bit arithmetic, independent of the
library's log-domain code paths and of the recursive walk-tree machinery
they are checking.
"""

import itertools
import math
import random
import time

import networkx as nx
import numpy as np

import _oracles as ora
from ferrospin.exact import (
    alternating_scan_matrix,
    all_to_one_influence,
    censored_glauber_matrix,
    conditional_marginal,
    detailed_balance_residual,
    field_kernel_matrix,
    gibbs_distribution,
    glauber_matrix,
    influence_pair,
    stationarity_residual,
)
from ferrospin.harness import (
    class_instance,
    coupling_dominance_row,
    decay_probe,
    field_boost_check,
    instance_family,
    max_all_to_one_influence,
    random_connected_graph,
    random_ferro_instance,
    random_tree_instance,
    verify_relaxation_inequality,
    verify_scan_mixing_bound,
    _rng,
)
from ferrospin.model import (
    ParamClass,
    Pinning,
    TwoSpinSystem,
    apply_pinning,
    lambda0,
    lambda_c,
)
from ferrospin.regions import (
    RegionParams,
    check_one_step_relation,
    construct_region,
    is_good_tree_boundary,
    monotone_potential_slack,
    ratio_dominance_slack,
    universal_pinning,
    verify_region,
)
from ferrospin.samplers import (
    ChainState,
    CoupledPair,
    UpdateSchedule,
    dominates,
    monotone_coupled_step,
)
from ferrospin.sawtree import (
    Phi,
    build_saw_tree,
    decay_factor,
    derive_potential,
    g_value,
    phi,
    saw_marginal,
)

DEFAULT_EPS = 1.0 / (4.0 * math.e)


def _line(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {status} - {label}{extra}")
    assert ok, f"criterion {num:02d} failed: {label}{extra}"


# ---------------------------------------------------------------------------
# independent enumeration oracle (numpy bit arithmetic, no library calls)

def _np_table(n, lam, edges):
    """(bits, weights): per-configuration 0/1 matrix and Gibbs weights."""
    idx = np.arange(2 ** n)
    bits = (idx[:, None] >> np.arange(n)) & 1
    logw = (bits == 0).astype(float) @ np.log(np.asarray(lam, dtype=float))
    for (u, v, b, g) in edges:
        bu, bv = bits[:, u], bits[:, v]
        logw = logw + np.where((bu == 0) & (bv == 0), math.log(b), 0.0)
        logw = logw + np.where((bu == 1) & (bv == 1), math.log(g), 0.0)
    w = np.exp(logw - logw.max())
    return bits, w


def _np_marginal_p1(n, lam, edges, v):
    bits, w = _np_table(n, lam, edges)
    return float(w[bits[:, v] == 1].sum() / w.sum())


def _np_conditional_table(n, lam, edges, pin):
    """Probability vector over the free vertices (ascending id, low bit
    first), conditioned on the pinned spins."""
    bits, w = _np_table(n, lam, edges)
    sel = np.ones(2 ** n, dtype=bool)
    for v, s in pin.items():
        sel &= bits[:, v] == s
    free = [v for v in range(n) if v not in pin]
    sub_bits = bits[sel][:, free]
    j = sub_bits @ (1 << np.arange(len(free)))
    table = np.zeros(2 ** len(free))
    table[j] = w[sel]
    return table / table.sum()


# ---------------------------------------------------------------------------
# 1. walk-tree marginal equals enumeration on every small connected graph

def test_gate_01_walk_tree_matches_enumeration_on_all_small_graphs():
    t0 = time.monotonic()
    atlas = [g for g in nx.graph_atlas_g()
             if g.number_of_nodes() >= 1
             and (g.number_of_nodes() == 1 or nx.is_connected(g))]
    assert len(atlas) == 996  # connected isomorphism classes, n <= 7
    worst = 0.0
    checked = 0
    for gi, g in enumerate(atlas):
        n = g.number_of_nodes()
        order = {node: i for i, node in enumerate(sorted(g.nodes()))}
        pairs = sorted((min(order[a], order[b]), max(order[a], order[b]))
                       for a, b in g.edges())
        rnd = random.Random(100 + gi)
        for t in range(20):
            edges = ora.random_ferro_params(rnd, pairs)
            lam = [rnd.uniform(0.05, 1.4) for _ in range(n)]
            system = TwoSpinSystem.from_params(n, lam, edges)
            v = t % n
            p1 = saw_marginal(system, v).p1
            worst = max(worst, abs(p1 - _np_marginal_p1(n, lam, edges, v)))
            checked += 1
        if gi % 97 == 0:  # keep the two enumeration routes honest
            _, q1 = ora.marginal(n, lam, edges, v)
            assert abs(q1 - _np_marginal_p1(n, lam, edges, v)) <= 1e-12
    elapsed = time.monotonic() - t0
    _line(1, "walk-tree marginal equals enumeration on all connected n<=7",
          worst <= 1e-9 and elapsed < 120.0,
          f"graphs=996 checks={checked} max|diff|={worst:.3e} {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. pinning a system reproduces the conditional law exactly

def test_gate_02_pinning_reproduces_conditional_tables():
    worst = 0.0
    rnd = random.Random(202)
    for i in range(200):
        n = 2 + i % 6
        n_, lam, edges = ora.random_instance(random.Random(7000 + i), n)
        system = TwoSpinSystem.from_params(n_, lam, edges)
        k = rnd.randrange(n)  # pin size 0..n-1, at least one vertex free
        pinned = rnd.sample(range(n), k)
        pin = {v: rnd.randint(0, 1) for v in pinned}
        reduced = apply_pinning(system, Pinning(pin))
        got = gibbs_distribution(reduced).probs
        want = _np_conditional_table(n, lam, edges, pin)
        rel = np.max(np.abs(got - want) / want)
        worst = max(worst, float(rel))
    _line(2, "pinned-system tables equal brute conditionals",
          worst <= 1e-12, f"pairs=200 max rel err={worst:.3e}")


# ---------------------------------------------------------------------------
# 3. stationarity of every kernel; reversibility of the single-site kernel

def test_gate_03_stationarity_and_balance_of_all_kernels():
    worst_stat = 0.0
    worst_bal = 0.0
    rows = 0
    for i in range(16):
        rng = _rng(300 + i)
        system = random_ferro_instance(rng, 3 + i % 8, p=0.5)
        mu = gibbs_distribution(system)
        P = glauber_matrix(system)
        worst_stat = max(worst_stat, stationarity_residual(P, mu))
        worst_bal = max(worst_bal, detailed_balance_residual(P, mu))
        rows += 1
    for i in range(8):
        rng = _rng(330 + i)
        system, parts = random_tree_instance(rng, 3 + i)
        mu = gibbs_distribution(system)
        P = alternating_scan_matrix(system, parts)
        worst_stat = max(worst_stat, stationarity_residual(P, mu))
        rows += 1
    rnd = random.Random(340)
    for i in range(8):
        rng = _rng(350 + i)
        n = 3 + i
        system = random_ferro_instance(rng, n, p=0.5)
        size = rnd.randint(1, n - 1)
        subset = rnd.sample(range(n), size)
        mu = gibbs_distribution(system)
        P = censored_glauber_matrix(system, subset)
        worst_stat = max(worst_stat, stationarity_residual(P, mu))
        rows += 1
    pc = ParamClass(1.0, 2.0, 1.0)
    for i, n in enumerate(range(2, 7)):
        rng = _rng(360 + i)
        system = class_instance(rng, n, pc)
        mu = gibbs_distribution(system)
        for theta in (0.5, 1.0 / (2.0 * lambda_c(pc))):
            P = field_kernel_matrix(system, theta)
            worst_stat = max(worst_stat, stationarity_residual(P, mu))
            rows += 1
    _line(3, "all kernels stationary; single-site kernel reversible",
          worst_stat <= 1e-10 and worst_bal <= 1e-12,
          f"kernels={rows} max|muP-mu|_1={worst_stat:.3e} "
          f"max balance={worst_bal:.3e}")


# ---------------------------------------------------------------------------
# 4. scan relaxation-time inequality and the scan step-count bound

def _random_bipartite_system(rnd, n):
    a = rnd.randint(1, n - 1)
    left, right = list(range(a)), list(range(a, n))
    while True:
        pairs = [(u, v) for u in left for v in right if rnd.random() < 0.7]
        adj = {v: set() for v in range(n)}
        for u, v in pairs:
            adj[u].add(v)
            adj[v].add(u)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == n:
            break
    edges = ora.random_ferro_params(rnd, sorted(pairs))
    lam = [rnd.uniform(1e-3, 1.5) for _ in range(n)]
    return (TwoSpinSystem.from_params(n, lam, edges),
            (tuple(left), tuple(right)))


def test_gate_04_scan_relaxation_and_step_count_bounds():
    worst_slack = math.inf
    all_tv_ok = True
    for i in range(50):
        n = 4 + i % 7
        if i % 2 == 0:
            system, parts = random_tree_instance(_rng(400 + i), n)
        else:
            system, parts = _random_bipartite_system(random.Random(430 + i), n)
        row = verify_relaxation_inequality(system, parts)
        worst_slack = min(worst_slack, row.slack)
        rnd = random.Random(460 + i)
        start = tuple(rnd.randint(0, 1) for _ in range(n))
        tv_row = verify_scan_mixing_bound(system, parts, start, DEFAULT_EPS)
        all_tv_ok = all_tv_ok and tv_row.passed
    _line(4, "scan relaxation time within twice inverse gap; scan bound mixes",
          worst_slack >= -1e-9 and all_tv_ok,
          f"instances=50 worst slack={worst_slack:.3e}")


# ---------------------------------------------------------------------------
# 5. the shared-randomness coupling preserves order and never decouples

def test_gate_05_monotone_coupling_order_safety():
    steps = 10 ** 4
    merged_count = 0
    for i in range(50):
        rng = _rng(500 + i)
        n = 3 + i % 4
        system = random_ferro_instance(rng, n, p=0.6)
        if i < 40:
            sched = UpdateSchedule(kind="single-site-glauber")
        elif i < 45:
            sched = UpdateSchedule(kind="heat-bath-block",
                                   blocks=tuple((v,) for v in range(n)))
        else:
            system, parts = random_tree_instance(rng, n)
            sched = UpdateSchedule(kind="alternating-scan", blocks=parts)
        pair = CoupledPair(ChainState(tuple([1] * n)),
                           ChainState(tuple([0] * n)))
        shared = rng.random((steps, n + 1))
        merged_at = None
        for t in range(steps):
            pair = monotone_coupled_step(system, pair, sched, shared[t])
            assert dominates(pair.upper.config, pair.lower.config)
            if merged_at is None:
                if pair.merged:
                    merged_at = t
            else:
                assert pair.merged, f"decoupled after merging at step {t}"
        if merged_at is not None:
            merged_count += 1
    _line(5, "coupled chains keep order over 10^4 steps and stay merged",
          True, f"instances=50 merged={merged_count}")


# ---------------------------------------------------------------------------
# 6. censoring shifts the law upward / downward from the extreme starts

def _random_up_sets(rnd, n, count):
    sets = []
    size = 2 ** n
    idx = np.arange(size)
    for _ in range(count):
        gens = [rnd.randrange(size) for _ in range(rnd.randint(1, 4))]
        member = np.zeros(size, dtype=bool)
        for g in gens:
            member |= (idx & g) == g
        sets.append(member.astype(float))
    return sets


def test_gate_06_censoring_preserves_stochastic_order():
    worst = math.inf
    events = 0
    for i in range(2):
        rng = _rng(600 + i)
        n = 5
        system = random_ferro_instance(rng, n, p=0.6)
        rnd = random.Random(660 + i)
        size = rnd.randint(1, n - 1)
        subset = rnd.sample(range(n), size)
        P = glauber_matrix(system).entries
        C = censored_glauber_matrix(system, subset).entries
        ups = _random_up_sets(rnd, n, 100)
        top = np.zeros(2 ** n)
        top[-1] = 1.0
        bot = np.zeros(2 ** n)
        bot[0] = 1.0
        x_plus, x_minus, y_plus, y_minus = top, bot, top, bot
        for _ in range(8):
            x_plus, x_minus = x_plus @ P, x_minus @ P
            y_plus, y_minus = y_plus @ C, y_minus @ C
            for e in ups:
                a, b = float(x_minus @ e), float(x_plus @ e)
                lo, hi = float(y_minus @ e), float(y_plus @ e)
                worst = min(worst, a - lo, b - a, hi - b)
                events += 1
    _line(6, "censored chain sandwiches the free chain on increasing events",
          worst >= -1e-9, f"events checked={events} worst margin={worst:.3e}")


# ---------------------------------------------------------------------------
# 7. potential constants: contraction margin, decay factors, increment bounds

# beta*gamma >= 1.3 throughout: as the product approaches 1 the critical
# activity blows past 1e13; test_sawtree checks the closed-form potential
# there, up to lambda = 1e300, against an mpmath oracle
_POTENTIAL_REGIMES = [
    (0.5, 2.6), (0.5, 3.0), (0.5, 4.5), (0.6, 2.4), (0.6, 3.2),
    (0.7, 2.0), (0.7, 2.6), (0.7, 4.0), (0.8, 1.8), (0.8, 2.4),
    (0.85, 3.6), (0.9, 1.6), (0.9, 2.0), (0.9, 5.0), (1.0, 1.4),
    (1.0, 1.5), (1.0, 2.0), (1.0, 3.0), (1.0, 4.2), (1.0, 5.0),
]


def test_gate_07_potential_constants_hold_on_grids():
    fracs = itertools.cycle((0.99, 0.9, 0.7, 0.5, 0.3))
    worst_g = -math.inf
    worst_decay = -math.inf
    worst_phi = math.inf
    worst_inc = math.inf
    rnd = random.Random(700)
    for (beta, gamma), frac in zip(_POTENTIAL_REGIMES, fracs):
        lam = frac * lambda_c(ParamClass(beta, gamma, 1.0))
        pc = ParamClass(beta, gamma, lam)
        pp = derive_potential(pc)
        bound = 1.0 - pp.alpha
        xs = lam * (np.arange(1, 10_001) / 10_002.0)
        worst_g = max(worst_g,
                      max(g_value(float(x), pc, beta, gamma) - bound
                          for x in xs))
        for d in range(1, 7):
            for _ in range(10_000 // 6):
                x = [rnd.uniform(1e-3 * lam, (1.0 - 1e-6) * lam)
                     for _ in range(d)]
                lam_u = lam if rnd.random() < 0.25 else rnd.uniform(
                    0.3 * lam, lam)
                eps = []
                for _ in range(d):
                    if rnd.random() < 0.25:
                        eps.append((beta, gamma))
                    else:
                        be = beta * rnd.uniform(0.6, 1.0)
                        eps.append((be, rnd.uniform(gamma,
                                                    beta * gamma / be)))
                cfd = decay_factor(x, lam_u, eps, pp, lam)
                worst_decay = max(worst_decay, cfd - bound)
        for _ in range(50):  # increment sandwich, 50 pairs x 20 regimes
            while True:
                x = rnd.uniform(1e-6 * lam, (1.0 - 1e-6) * lam)
                y = rnd.uniform(1e-6 * lam, (1.0 - 1e-6) * lam)
                if abs(x - y) >= lam / 100.0:
                    break
            for z in (x, y):
                worst_phi = min(worst_phi, phi(z, pp, lam) - pp.c_min,
                                pp.c_max - phi(z, pp, lam))
            gap = abs(Phi(x, pp, lam) - Phi(y, pp, lam))
            worst_inc = min(worst_inc, gap - pp.c_min * abs(x - y),
                            pp.c_max * abs(x - y) - gap)
    _line(7, "contraction and decay constants hold across 20 field regimes",
          (worst_g <= 0.0 and worst_decay <= 1e-9
           and worst_phi >= -1e-9 and worst_inc >= -1e-8),
          f"max g excess={worst_g:.3e} max decay excess={worst_decay:.3e} "
          f"phi margin={worst_phi:.3e} increment margin={worst_inc:.3e}")


# ---------------------------------------------------------------------------
# 8. neighbourhood construction: size bound and boundary walk conditions

def test_gate_08_region_size_and_walk_conditions():
    rnd = random.Random(800)
    worst_fill = 0.0
    partial = 0
    for i in range(100):
        n = rnd.randint(20, 200)
        rng = _rng(810 + i)
        pairs = random_connected_graph(rng, n, (math.log(n) + 1.0) / n)
        adj = {v: [] for v in range(n)}
        for u, v in pairs:
            adj[u].append(v)
            adj[v].append(u)
        params = RegionParams.from_n(n)
        center = rnd.randrange(n)
        region = construct_region(adj, center, params)
        cap = math.exp(params.d1) * params.d2
        assert len(region.members) <= cap
        worst_fill = max(worst_fill, len(region.members) / cap)
        ver = verify_region(adj, region, params)
        assert bool(ver)  # every walk checked within the node cap passed
        partial += int(ver.partial)
    # exact fixtures: a five-leaf star flushes or stops at the hub
    star = {0: [1, 2, 3, 4, 5], 1: [0], 2: [0], 3: [0], 4: [0], 5: [0]}
    wide = construct_region(star, 0, RegionParams(d1=3, d2=10))
    assert wide.members == frozenset(range(6)) and wide.boundary == frozenset()
    tight = construct_region(star, 0, RegionParams(d1=3, d2=4))
    assert tight.members == frozenset({0})
    assert tight.boundary == frozenset(range(1, 6))
    _line(8, "region size within exp(d1)*d2 and walk conditions verified",
          True, f"graphs=100 max fill ratio={worst_fill:.3f} "
          f"capped sweeps={partial}")


# ---------------------------------------------------------------------------
# 9. worst-boundary dominance on rooted trees, exhaustively per tree

def _tree_shapes(leaves):
    """Canonical rooted shapes, every internal node >= 2 children."""
    if leaves == 1:
        return [()]

    def parts(total, minimum):
        if total == 0:
            yield ()
            return
        for p in range(minimum, total + 1):
            for rest in parts(total - p, p):
                yield (p,) + rest

    shapes = set()
    for split in parts(leaves, 1):
        if len(split) < 2:
            continue
        for combo in itertools.product(*[_tree_shapes(p) for p in split]):
            shapes.add(tuple(sorted(combo)))
    return sorted(shapes)


def _realize_shape(shape, beta_e, gammas, lam):
    adj = {0: []}
    leaves = []
    queue = [(0, shape)]
    nxt = 1
    while queue:
        u, sh = queue.pop(0)
        for child in sh:
            adj[u].append(nxt)
            adj[nxt] = [u]
            if child == ():
                leaves.append(nxt)
            else:
                queue.append((nxt, child))
            nxt += 1
    pairs = sorted((u, v) for u in adj for v in adj[u] if u < v)
    edges = [(u, v, beta_e, gammas[i % len(gammas)])
             for i, (u, v) in enumerate(pairs)]
    return TwoSpinSystem.from_params(nxt, [lam] * nxt, edges), leaves


def _tree_dominance_slacks(system, leaves, pc):
    tree = build_saw_tree(system, 0, frozenset(leaves))
    lam_nodes = [u for u in range(len(tree))
                 if tree.boundary_copy[u] and tree.is_leaf(u)]
    sigma_star = universal_pinning(tree, system, 9, n=21)
    spins = [[(mask >> i) & 1 for i in range(len(lam_nodes))]
             for mask in range(2 ** len(lam_nodes))]
    good = np.array([s for s in spins if is_good_tree_boundary(
        tree, dict(zip(lam_nodes, s)), d2=9, n=21)])
    worst_mix = min(ratio_dominance_slack(tree, system, good, sigma_star,
                                          w).min() for w in lam_nodes)
    worst_pot = min(monotone_potential_slack(tree, system, pc, w, good,
                                             sigma_star).min()
                    for w in lam_nodes)
    return float(worst_mix), float(worst_pot)


def test_gate_09_worst_boundary_dominance_on_rooted_trees():
    pc = ParamClass(0.9, 2.5, 1.5 + 1e-9)
    lam = 0.9 * lambda0(pc)  # = 1.5 exactly
    gammas = (2.5, 2.63, 2.71, 2.8)  # beta_e * max gamma_e <= beta * gamma
    family = []
    for leaves in range(2, 7):  # every branching shape up to six leaves
        family.extend(_tree_shapes(leaves))
    for wide in (((),) * 8, ((),) * 10, ((),) * 12):  # stars at the cap
        family.append(wide)
    two_level = [(2, 4), (4, 2), (2, 5), (5, 2), (3, 3), (2, 6), (3, 4)]
    for a, b in two_level:
        family.append(tuple(sorted((((),) * b,) * a)))
    family.append(tuple((tuple(((((),) * 3),) * 2),) * 2))  # depth three
    worst_mix, worst_pot = math.inf, math.inf
    for shape in family:
        system, leaves = _realize_shape(shape, 0.8, gammas, lam)
        assert len(leaves) <= 12
        wm, wp = _tree_dominance_slacks(system, leaves, pc)
        worst_mix = min(worst_mix, wm)
        worst_pot = min(worst_pot, wp)
    rnd = random.Random(900)
    worst_rel = math.inf
    accepted = 0
    while accepted < 100_000:
        x = rnd.uniform(1e-9, lam)
        y = rnd.uniform(0.0, x)
        xp = rnd.uniform(0.0, x)
        yp = rnd.uniform(0.0, min(y, xp))
        if not (y > 0.0 and yp > 0.0 and x / y >= xp / yp):
            continue
        worst_rel = min(worst_rel, check_one_step_relation(pc, x, y, xp, yp))
        accepted += 1
    _line(9, "worst-boundary pinning dominates on rooted trees",
          worst_mix >= -1e-10 and worst_pot >= -1e-10 and worst_rel >= -1e-10,
          f"trees={len(family)} mixture slack={worst_mix:.3e} "
          f"potential slack={worst_pot:.3e} scalar slack={worst_rel:.3e}")


# ---------------------------------------------------------------------------
# 10. pair influence sign, distance decay, and size stabilization

def test_gate_10_influence_sign_decay_and_stabilization():
    worst_pair = math.inf
    for i in range(30):
        n = 2 + i % 5
        if i < 25:
            n_, lam, edges = ora.random_instance(random.Random(1000 + i), n)
            system = TwoSpinSystem.from_params(n_, lam, edges)
        else:  # two components: cross-component influence must vanish
            rnd = random.Random(1050 + i)
            _, lam_a, edges_a = ora.random_instance(rnd, 3)
            _, lam_b, edges_b = ora.random_instance(rnd, 3)
            shifted = [(u + 3, v + 3, b, g) for (u, v, b, g) in edges_b]
            system = TwoSpinSystem.from_params(6, lam_a + lam_b,
                                               edges_a + shifted)
        for u in range(system.n):
            for v in range(system.n):
                if u != v:
                    worst_pair = min(worst_pair, influence_pair(system, u, v))
    decays_ok = True
    for beta, gamma in ((1.0, 2.0), (0.9, 3.0), (0.8, 4.0)):
        lam = 0.9 * lambda0(ParamClass(beta, gamma, 1.0))
        probe = decay_probe(beta, gamma, lam)
        decays_ok = (decays_ok and probe.slope < 0.0
                     and probe.r_squared >= 0.9
                     and all(r.passed for r in probe.rows))
    base = ParamClass(1.0, 2.0, 1.0)
    l0, lc = lambda0(base), lambda_c(base)
    worst_diff = 0.0
    for fam, lams in (("path", (0.5 * l0, 0.9 * l0, 0.5 * lc, 0.9 * lc)),
                      ("star", (0.25 * l0, 0.5 * l0, 0.75 * l0))):
        for lam in lams:
            ten = max_all_to_one_influence(instance_family(fam, 10, 1.0,
                                                           2.0, lam))
            twelve = max_all_to_one_influence(instance_family(fam, 12, 1.0,
                                                              2.0, lam))
            worst_diff = max(worst_diff, abs(ten - twelve))
    _line(10, "influence nonnegative; decays on paths; stabilizes in size",
          worst_pair >= -1e-12 and decays_ok and worst_diff <= 0.05,
          f"min pair influence={worst_pair:.3e} "
          f"max size-10-vs-12 diff={worst_diff:.4f}")


# ---------------------------------------------------------------------------
# 11. simulated coupling failure dominates the exact distance at mixing time

def test_gate_11_coupling_failure_dominates_exact_distance():
    sched = UpdateSchedule(kind="single-site-glauber")
    passed = 0
    for i in range(40):
        rng = _rng(1100 + i)
        system = random_ferro_instance(rng, 3 + i % 4, p=0.6)
        kernel = glauber_matrix(system)
        row = coupling_dominance_row(system, sched, kernel, DEFAULT_EPS,
                                     trials=200, seed=1137 + i)
        passed += int(row.passed)
    _line(11, "coupling failure upper-bounds exact distance within 3 sigma",
          passed >= 38, f"instances passing={passed}/40")


# ---------------------------------------------------------------------------
# 12. tilting by half the critical activity boosts the single-site gap

def test_gate_12_field_tilt_gap_product_inequality():
    rnd = random.Random(1200)
    all_ok = True
    worst_tilt = 0.0
    for i in range(20):
        beta = rnd.uniform(0.7, 1.0)
        gamma = rnd.uniform(1.0 / beta + 0.1, 4.0)
        pc = ParamClass(beta, gamma, rnd.uniform(0.3, 1.5))
        system = class_instance(_rng(1210 + i), 2 + i % 3, pc)
        rows = field_boost_check(system, pc)
        all_ok = all_ok and all(r.passed for r in rows)
        theta = 1.0 / (2.0 * lambda_c(pc))
        worst_tilt = max(worst_tilt,
                         max(math.exp(system.log_lambda[v]) * theta
                             for v in range(system.n)))
    _line(12, "tilted-field gap product inequality on 20 instances",
          all_ok and worst_tilt < 0.5,
          f"max tilted field={worst_tilt:.4f}")


# ---------------------------------------------------------------------------
# 13. repeated command-line runs are byte-identical

def test_gate_13_cli_runs_are_byte_identical(tmp_path):
    import json as _json

    from ferrospin.cli import main
    from ferrospin.model import instance_dict

    system = instance_family("path", 5, 1.0, 2.0, 0.8)
    inst = tmp_path / "inst.json"
    inst.write_text(_json.dumps(instance_dict(system)))
    outputs = []
    for run in range(2):
        base = tmp_path / f"run{run}"
        base.mkdir()
        for schedule in ("glauber", "heat-bath", "systematic-scan",
                         "alternating-scan", "field"):
            assert main(["sample", "--instance", str(inst), "--schedule",
                         schedule, "--steps", "400", "--seed", "11",
                         "--out", str(base / f"traj-{schedule}.csv")]) == 0
        assert main(["sample", "--instance", str(inst), "--schedule",
                     "heat-bath", "--censor", "0,2,3", "--steps", "400",
                     "--seed", "11", "--out", str(base / "traj-censor.csv")]) == 0
        assert main(["verify", "--suite", "field", "--seed", "3",
                     "--trials", "3", "--max-n", "3",
                     "--out", str(base / "rep")]) == 0
        assert main(["region", "--instance", str(inst), "--center", "all",
                     "--d1", "2", "--d2", "5",
                     "--out", str(base / "regions.jsonl")]) == 0
        outputs.append(tuple(sorted(
            (p.name, p.read_bytes()) for p in base.iterdir())))
    _line(13, "repeated CLI invocations produce byte-identical outputs",
          outputs[0] == outputs[1],
          f"files compared={len(outputs[0])}")
