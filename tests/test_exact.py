"""Dense enumeration module vs. the independent brute-force oracles."""

import dataclasses
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as ora
from ferrospin import constants, exact
from ferrospin.cli import main
from ferrospin.errors import CapacityError, InputError, NonconvergenceError, NumericError
from ferrospin.harness import _rng, random_tree_instance
from ferrospin.exact import (
    DistributionTable,
    TransitionMatrix,
    all_to_one_influence,
    alternating_scan_matrix,
    censored_glauber_matrix,
    conditional_marginal,
    detailed_balance_residual,
    exact_mixing_time,
    gibbs_distribution,
    glauber_matrix,
    heatbath_matrix,
    influence_pair,
    log_weights,
    pinned_glauber_matrix,
    scan_matrix,
    spectral_report,
    stationarity_residual,
    tv_from_start,
)
from ferrospin.model import (
    Pinning,
    RbmParams,
    TwoSpinSystem,
    config_to_index,
    index_to_config,
    instance_dict,
    rbm_to_two_spin,
)
from ferrospin.regions import GoodBoundarySpec, Region, assm_sum
from ferrospin.sawtree import saw_marginal


def to_system(inst):
    n, lam, edges = inst
    return TwoSpinSystem.from_params(n, lam, edges)


def oracle_probs_vector(n, lam, edges):
    table, _ = ora.gibbs(n, lam, edges)
    out = np.zeros(2 ** n)
    for s, p in table.items():
        out[config_to_index(s)] = p
    return out


# ---------------------------------------------------------------------------
# distribution tables

def test_gibbs_single_vertex():
    sys1 = TwoSpinSystem.from_params(1, [1.0], [])
    table = gibbs_distribution(sys1)
    assert table.probs == pytest.approx([0.5, 0.5])
    assert table.log_z == pytest.approx(math.log(2.0))


def test_gibbs_single_edge():
    # lam = (1,1), beta = 1, gamma = 2: weights 1,1,1,2 over 00,10,01,11
    sys2 = TwoSpinSystem.from_params(2, [1.0, 1.0], [(0, 1, 1.0, 2.0)])
    table = gibbs_distribution(sys2)
    assert table.probs == pytest.approx([0.2, 0.2, 0.2, 0.4])
    assert table.log_z == pytest.approx(math.log(5.0))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 6))
def test_gibbs_matches_oracle(seed, n):
    rng = random.Random(seed)
    inst = ora.random_instance(rng, n)
    table = gibbs_distribution(to_system(inst))
    assert np.abs(table.probs - oracle_probs_vector(*inst)).max() < 1e-12
    assert abs(float(table.probs.sum()) - 1.0) <= constants.PROB_SUM_TOL


def test_gibbs_survives_extreme_weights():
    # log-space internals: a naive product would overflow at gamma = e^700
    sys2 = TwoSpinSystem.from_params(2, [1e-300, 1e-300],
                                     [(0, 1, 1.0, math.exp(700))])
    table = gibbs_distribution(sys2)
    assert table.probs[3] == pytest.approx(1.0)


def _extreme_rbm(rng, n):
    # the weight and bias sets of the rational-arithmetic oracle's RBMs
    n0 = rng.randint(1, n - 1)
    w = [[0.0] * n for _ in range(n)]
    for u in range(n0):
        for v in range(n0, n):
            if rng.random() < 0.6:
                w[u][v] = w[v][u] = rng.choice(
                    (0.1, 2.0, 1000.0, 1e300, 1e-300))
    theta = tuple(rng.choice((0.0, 0.1, -0.3, 2.0, 1000.0, -1000.0, 1e300,
                              -1e300, 1e-300)) for _ in range(n))
    return rbm_to_two_spin(RbmParams(n0=n0, n1=n - n0,
                                     interaction=tuple(map(tuple, w)),
                                     theta=theta))


def test_logsumexp_is_bitwise_scipy_on_tables_and_edge_cases():
    # the numpy log-sum-exp replaced scipy's; every table keeps every bit
    rng = random.Random(11)
    systems = [to_system(ora.random_instance(rng, rng.randint(1, 12)))
               for _ in range(1200)]
    systems += [_extreme_rbm(rng, rng.randint(2, 12)) for _ in range(800)]
    for system in systems:
        logw, shift = log_weights(system)
        assert exact._logsumexp(logw) == float(ora.logsumexp(logw))
        probs, log_z = ora.scipy_distribution(logw, shift)
        mu = gibbs_distribution(system)
        assert np.array_equal(mu.probs, probs) and mu.log_z == log_z
    inf = math.inf
    for a in ([0.0, -1.5, 0.0, 0.0, -3.0],  # ties at the max
              [-inf, 2.0, -inf, -7.25],
              [4.5],
              [0.0, -745.5, -800.0, -1e300],  # exp underflows to 0
              [-inf, 3.0, -inf, 3.0, -inf],  # the tied max and nothing else
              [1e308, 1e308, 1e308],  # log(m) at the top of the float range
              [-inf, -inf],  # nothing: log 0
              [inf, 0.0]):
        a = np.array(a)
        assert exact._logsumexp(a) == float(ora.logsumexp(a)), a


def test_gibbs_capacity():
    big = TwoSpinSystem.from_params(constants.VECTOR_LIMIT + 1,
                                    [1.0] * (constants.VECTOR_LIMIT + 1), [])
    with pytest.raises(CapacityError):
        gibbs_distribution(big)


def test_distribution_table_validation():
    with pytest.raises(NumericError):
        DistributionTable(n=1, probs=np.array([0.7, 0.7]), log_z=0.0)
    with pytest.raises(NumericError):
        DistributionTable(n=1, probs=np.array([-0.1, 1.1]), log_z=0.0)
    with pytest.raises(InputError):
        DistributionTable(n=2, probs=np.array([0.5, 0.5]), log_z=0.0)


# ---------------------------------------------------------------------------
# conditionals and influences

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 6))
def test_conditional_matches_oracle(seed, n):
    rng = random.Random(seed)
    inst = ora.random_instance(rng, n)
    pinned = {v: rng.randint(0, 1) for v in range(n) if rng.random() < 0.4}
    free = [v for v in range(n) if v not in pinned]
    if not free:
        pinned.pop(next(iter(pinned)))
        free = [v for v in range(n) if v not in pinned]
    v = rng.choice(free)
    p0, p1 = conditional_marginal(to_system(inst), Pinning(pinned), v)
    o0, o1 = ora.conditional(*inst, pinned, v)
    assert p0 == pytest.approx(o0, abs=1e-12)
    assert p1 == pytest.approx(o1, abs=1e-12)
    assert p0 + p1 == pytest.approx(1.0, abs=constants.PROB_SUM_TOL)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(3, 6))
def test_conditional_agrees_with_pinned_subsystem(seed, n):
    # two independent routes: masked summation vs. reduction to a smaller system
    from ferrospin.model import apply_pinning, surviving_vertices

    rng = random.Random(seed)
    inst = ora.random_instance(rng, n)
    system = to_system(inst)
    pinned = {0: rng.randint(0, 1)}
    pin = Pinning(pinned)
    v = rng.randrange(1, n)
    p0, _ = conditional_marginal(system, pin, v)

    reduced = apply_pinning(system, pin)
    new_of_old = {o: i for i, o in enumerate(surviving_vertices(n, pin))}
    q0, _ = conditional_marginal(reduced, Pinning({}), new_of_old[v])
    assert p0 == pytest.approx(q0, abs=1e-12)


def test_conditional_rejects_pinned_target():
    sys2 = TwoSpinSystem.from_params(2, [1.0, 1.0], [(0, 1, 1.0, 2.0)])
    with pytest.raises(InputError):
        conditional_marginal(sys2, Pinning({0: 1}), 0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 5))
def test_influences_match_oracle(seed, n):
    rng = random.Random(seed)
    inst = ora.random_instance(rng, n)
    system = to_system(inst)
    u, v = rng.sample(range(n), 2)
    assert influence_pair(system, u, v) == pytest.approx(
        ora.influence(*inst, u, v), abs=1e-12)
    assert all_to_one_influence(system, v) == pytest.approx(
        ora.all_to_one(*inst, v), abs=1e-12)


def test_one_table_routes_match_the_per_pin_references():
    # 240 seeded systems, half of them pinned; every fifth carries a field of
    # log 800 at a vertex pinned to 1, a pin of mass about e^-800 that a
    # table shifted only by its global maximum would lose entirely
    rng = random.Random(2026)
    for k in range(240):
        n = rng.randint(2, 8)
        system = to_system(ora.random_instance(rng, n))
        v = rng.randrange(n)
        others = [w for w in range(n) if w != v]
        pin = {}
        if k % 2:
            pin = {u: rng.randint(0, 1)
                   for u in rng.sample(others, rng.randint(1, n - 1))}
        if k % 5 == 0:
            u = rng.choice(others)
            log_lambda = list(system.log_lambda)
            log_lambda[u] = 800.0
            system = dataclasses.replace(system, log_lambda=tuple(log_lambda))
            pin[u] = 1
        logw = log_weights(system)[0]
        assert conditional_marginal(system, Pinning(pin), v) == pytest.approx(
            ora.masked_conditional(logw, n, pin, v), abs=1e-12)
        u = rng.choice(others)
        assert influence_pair(system, u, v) == pytest.approx(
            ora.pinned_influence_pair(logw, n, u, v), abs=1e-12)
        assert all_to_one_influence(system, v) == pytest.approx(
            ora.pinned_all_to_one(logw, n, v), abs=1e-12)


def test_each_exact_route_builds_one_table(monkeypatch, tmp_path):
    # a table per pin or per vertex would be invisible in the results
    builds = []
    real = exact.log_weights

    def counted(system):
        builds.append(system.n)
        return real(system)

    monkeypatch.setattr(exact, "log_weights", counted)
    system = TwoSpinSystem.from_params(
        10, [0.3] * 10, [(0, leaf, 1.0, 2.5) for leaf in range(1, 10)])
    region = Region(center=0, members=frozenset({0}),
                    boundary=frozenset(range(1, 10)), d1=1, d2=9)
    assm_sum(system, GoodBoundarySpec.build(system, region, 21))
    assert builds == [10]
    builds.clear()
    all_to_one_influence(system, 0)
    assert builds == [10]
    builds.clear()
    path = tmp_path / "star.json"
    path.write_text(json.dumps(instance_dict(system)))
    assert main(["exact", "--instance", str(path),
                 "--out", str(tmp_path / "exact.json")]) == 0
    assert builds == [10]


def test_influence_nonnegative_on_ferro():
    # positive association: conditioning a neighbour up never drags v down
    rng = random.Random(7)
    for _ in range(10):
        inst = ora.random_instance(rng, 5)
        system = to_system(inst)
        for u in range(5):
            for v in range(5):
                if u != v:
                    assert influence_pair(system, u, v) >= -1e-12


# ---------------------------------------------------------------------------
# kernels

def glauber_row_vector(inst, sigma):
    n = inst[0]
    row = np.zeros(2 ** n)
    for tau, p in ora.glauber_row(*inst, sigma).items():
        row[config_to_index(tau)] += p
    return row


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 5))
def test_glauber_matrix_matches_oracle(seed, n):
    rng = random.Random(seed)
    inst = ora.random_instance(rng, n)
    P = glauber_matrix(to_system(inst))
    for idx in range(2 ** n):
        sigma = index_to_config(idx, n)
        assert np.abs(P.entries[idx] - glauber_row_vector(inst, sigma)).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 6))
def test_glauber_stationarity_and_balance(seed, n):
    rng = random.Random(seed)
    system = to_system(ora.random_instance(rng, n))
    P = glauber_matrix(system)
    mu = gibbs_distribution(system)
    assert stationarity_residual(P, mu) <= constants.STATIONARITY_TOL
    assert detailed_balance_residual(P, mu) <= constants.BALANCE_TOL


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 6))
def test_glauber_is_positive_semidefinite(seed, n):
    # average of projections: all eigenvalues in [0, 1], so gap <= 1
    rng = random.Random(seed)
    system = to_system(ora.random_instance(rng, n))
    P = glauber_matrix(system)
    mu = gibbs_distribution(system)
    d = np.sqrt(mu.probs)
    S = (d[:, None] * P.entries) / d[None, :]
    eigs = np.linalg.eigvalsh((S + S.T) / 2)
    assert eigs.min() >= -1e-10
    assert eigs.max() <= 1.0 + 1e-10


def test_glauber_capacity():
    n = constants.MATRIX_LIMIT + 1
    big = TwoSpinSystem.from_params(n, [1.0] * n, [])
    with pytest.raises(CapacityError):
        glauber_matrix(big)


def test_censored_glauber_capacity():
    # checked before the 2^n x 2^n output is allocated
    n = constants.MATRIX_LIMIT + 1
    big = TwoSpinSystem.from_params(n, [1.0] * n, [])
    with pytest.raises(CapacityError):
        censored_glauber_matrix(big, [0])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 5))
def test_pinned_glauber_matrix_matches_oracle(seed, n):
    # rows on the reduced space: each free vertex resampled with weight 1/n
    # on the full instance, and a stay with weight k/n
    rng = random.Random(seed)
    inst = ora.random_instance(rng, n)
    pin = {v: rng.randint(0, 1) for v in rng.sample(range(n), rng.randrange(n))}
    free = [v for v in range(n) if v not in pin]
    P, mu = pinned_glauber_matrix(to_system(inst), Pinning(pin))
    m = len(free)
    assert P.n == mu.n == m

    def full(r):
        sigma = [0] * n
        for v, s in pin.items():
            sigma[v] = s
        for i, v in enumerate(free):
            sigma[v] = (r >> i) & 1
        return tuple(sigma)

    weights = np.array([ora.weight(*inst, full(r)) for r in range(2 ** m)])
    assert np.abs(mu.probs - weights / weights.sum()).max() < 1e-12
    for r in range(2 ** m):
        row = np.zeros(2 ** m)
        row[r] += len(pin) / n
        for v in free:
            for tau, p in ora.block_row(*inst, full(r), [v]).items():
                row[config_to_index([tau[u] for u in free])] += p / n
        assert np.abs(P.entries[r] - row).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 5))
def test_block_matrix_matches_oracle(seed, n):
    rng = random.Random(seed)
    inst = ora.random_instance(rng, n)
    block = [v for v in range(n) if rng.random() < 0.5]
    P = scan_matrix(to_system(inst), [block])
    for idx in range(2 ** n):
        sigma = index_to_config(idx, n)
        row = np.zeros(2 ** n)
        for tau, p in ora.block_row(*inst, sigma, block).items():
            row[config_to_index(tau)] = p
        if not block:
            row[idx] = 1.0
        assert np.abs(P.entries[idx] - row).max() < 1e-12


def test_block_matrix_is_projection():
    # resampling a block twice is the same as once: P_B P_B = P_B
    rng = random.Random(3)
    system = to_system(ora.random_instance(rng, 5))
    P = scan_matrix(system, [[0, 2, 4]]).entries
    assert np.abs(P @ P - P).max() < 1e-12


def test_block_matrix_single_site_average_is_glauber():
    rng = random.Random(11)
    system = to_system(ora.random_instance(rng, 5))
    avg = heatbath_matrix(system, [[v] for v in range(5)])
    P = glauber_matrix(system)
    assert np.abs(avg.entries - P.entries).max() < 1e-12


def test_block_matrix_rejects_bad_vertex():
    sys2 = TwoSpinSystem.from_params(2, [1.0, 1.0], [(0, 1, 1.0, 2.0)])
    with pytest.raises(InputError):
        scan_matrix(sys2, [[2]])


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 5))
def test_scan_matrix_matches_oracle(seed, n):
    rng = random.Random(seed)
    inst = ora.random_instance(rng, n)
    verts = list(range(n))
    rng.shuffle(verts)
    cut = rng.randrange(1, n)
    blocks = [verts[:cut], verts[cut:]]
    Q = scan_matrix(to_system(inst), blocks)
    for idx in range(2 ** n):
        sigma = index_to_config(idx, n)
        row = np.zeros(2 ** n)
        for tau, p in ora.scan_row(*inst, sigma, blocks).items():
            row[config_to_index(tau)] = p
        assert np.abs(Q.entries[idx] - row).max() < 1e-11


def test_scan_matrix_order_is_first_block_first():
    # after scanning [ {0}, {1} ], vertex 1 was resampled last, so its
    # conditional given the new sigma_0 must hold exactly in every row
    sys2 = TwoSpinSystem.from_params(2, [0.3, 0.8], [(0, 1, 0.9, 3.0)])
    Q = scan_matrix(sys2, [[0], [1]]).entries
    P0 = scan_matrix(sys2, [[0]]).entries
    P1 = scan_matrix(sys2, [[1]]).entries
    assert np.abs(Q - P0 @ P1).max() == 0.0
    assert np.abs(Q - P1 @ P0).max() > 1e-3


def test_alternating_scan_requires_independent_parts():
    tri = TwoSpinSystem.from_params(3, [1.0] * 3,
                                    [(0, 1, 1.0, 2.0), (1, 2, 1.0, 2.0),
                                     (0, 2, 1.0, 2.0)])
    with pytest.raises(InputError, match="independent"):
        alternating_scan_matrix(tri, ([0, 2], [1]))
    path = TwoSpinSystem.from_params(3, [1.0] * 3,
                                     [(0, 1, 1.0, 2.0), (1, 2, 1.0, 2.0)])
    with pytest.raises(InputError, match="partition"):
        alternating_scan_matrix(path, ([0], [1]))
    alternating_scan_matrix(path, ([0, 2], [1]))  # fine


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 6))
def test_scan_stationarity(seed, n):
    rng = random.Random(seed)
    inst = ora.random_instance(rng, n)
    system = to_system(inst)
    mu = gibbs_distribution(system)
    evens = [v for v in range(n) if v % 2 == 0]
    odds = [v for v in range(n) if v % 2 == 1]
    Q = scan_matrix(system, [evens, odds])
    assert stationarity_residual(Q, mu) <= constants.STATIONARITY_TOL


def test_alternating_scan_on_path_resamples_all():
    # independent bipartition on a path: kernel rows are proper distributions
    # and mu is stationary even though Q itself is not reversible
    path = to_system((4, [0.5, 1.2, 0.8, 0.3],
                      [(0, 1, 0.9, 2.0), (1, 2, 0.8, 3.0), (2, 3, 1.0, 1.5)]))
    mu = gibbs_distribution(path)
    Q = alternating_scan_matrix(path, ([0, 2], [1, 3]))
    assert stationarity_residual(Q, mu) <= constants.STATIONARITY_TOL
    flow = mu.probs[:, None] * Q.entries
    assert np.abs(flow - flow.T).max() > 1e-6  # genuinely non-reversible


# ---------------------------------------------------------------------------
# reversiblization and spectra

@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 5))
def test_reversiblization_properties(seed, n):
    rng = random.Random(seed)
    system = to_system(ora.random_instance(rng, n))
    mu = gibbs_distribution(system)
    evens = [v for v in range(n) if v % 2 == 0]
    odds = [v for v in range(n) if v % 2 == 1]
    Q = scan_matrix(system, [evens, odds])
    R = ora.multiplicative_reversiblization(Q.entries, mu.probs)
    # reversible wrt mu, and positive semidefinite in the mu inner product
    assert detailed_balance_residual(TransitionMatrix(n, R), mu) <= 1e-9
    d = np.sqrt(mu.probs)
    S = (d[:, None] * R) / d[None, :]
    eigs = np.linalg.eigvalsh((S + S.T) / 2)
    assert eigs.min() >= -1e-10


def test_spectral_report_independent_spins():
    # no edges: Glauber eigenvalues are 1 - |S|/n, so the gap is exactly 1/n
    system = TwoSpinSystem.from_params(3, [0.4, 1.7, 0.9], [])
    mu = gibbs_distribution(system)
    rep = spectral_report(glauber_matrix(system), mu, "glauber")
    assert rep.gap == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.relaxation_time == pytest.approx(3.0, abs=1e-9)
    # scanning both halves of an edgeless system resamples everything: the
    # scan kernel has rank one and its reversiblization has zero second eig
    rep2 = spectral_report(alternating_scan_matrix(system, ([0, 2], [1])),
                           mu, "alternating_scan")
    assert rep2.second_eigenvalue == pytest.approx(0.0, abs=1e-12)
    # 1/(1 - sqrt(lam2)) amplifies eigenvalue noise by a square root
    assert rep2.relaxation_time == pytest.approx(1.0, abs=1e-6)


def test_spectral_report_single_vertex():
    system = TwoSpinSystem.from_params(1, [3.0], [])
    mu = gibbs_distribution(system)
    rep = spectral_report(glauber_matrix(system), mu, "glauber")
    assert rep.gap == pytest.approx(1.0, abs=1e-12)


def test_spectral_report_rejects_non_reversible_as_glauber():
    path = to_system((3, [0.5, 1.2, 0.8],
                      [(0, 1, 0.9, 2.0), (1, 2, 0.8, 3.0)]))
    mu = gibbs_distribution(path)
    Q = alternating_scan_matrix(path, ([0, 2], [1]))
    with pytest.raises(NumericError):
        spectral_report(Q, mu, "glauber")
    with pytest.raises(InputError):
        spectral_report(Q, mu, "no-such-kind")


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 5))
def test_scan_relaxation_order_invariant(seed, n):
    # spectrum of R(Q) away from zero does not depend on which part goes first
    rng = random.Random(seed)
    inst = ora.random_instance(rng, n)
    system = to_system(inst)
    mu = gibbs_distribution(system)
    evens = [v for v in range(n) if v % 2 == 0]
    odds = [v for v in range(n) if v % 2 == 1]
    Qa = scan_matrix(system, [evens, odds])
    Qb = scan_matrix(system, [odds, evens])
    ra = spectral_report(Qa, mu, "alternating_scan")
    rb = spectral_report(Qb, mu, "alternating_scan")
    assert ra.second_eigenvalue == pytest.approx(rb.second_eigenvalue, abs=1e-9)


# ---------------------------------------------------------------------------
# mixing

def test_mixing_time_rank_one_chain():
    # single vertex: one Glauber step resamples it, so TV hits 0 at t = 1
    system = TwoSpinSystem.from_params(1, [2.5], [])
    mu = gibbs_distribution(system)
    P = glauber_matrix(system)
    assert exact_mixing_time(P, mu, 0.01) == 1


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 4))
def test_mixing_time_matches_oracle(seed, n):
    rng = random.Random(seed)
    inst = ora.random_instance(rng, n)
    system = to_system(inst)
    mu = gibbs_distribution(system)
    P = glauber_matrix(system)
    eps = constants.DEFAULT_EPS
    got = exact_mixing_time(P, mu, eps)
    want = ora.mixing_time(*inst, lambda s: ora.glauber_row(*inst, s), eps)
    assert got == want


def test_mixing_time_cap():
    # symmetric double well (00 and 11 both weight e^20, saddle e^10):
    # escaping either well costs ~e^-10 per step, far beyond the cap
    system = TwoSpinSystem.from_params(
        2, [math.exp(10), math.exp(10)], [(0, 1, 1.0, math.exp(20))])
    mu = gibbs_distribution(system)
    P = glauber_matrix(system)
    with pytest.raises(NonconvergenceError):
        exact_mixing_time(P, mu, 1e-3, cap=50)


# ---------------------------------------------------------------------------
# fast paths against their dense routes

MIXING_EPS = (1.0 / (4.0 * math.e), 1.0 / (32.0 * math.e), 0.01)
LINEAR_CAP = 400


def linear_scan_tvs(P, mu, eps, cap):
    """Worst-start TV d(1), d(2), ... by one dense product per step, up to
    the first d(t) < eps or t = cap."""
    tvs = []
    M = P.entries.copy()
    for _ in range(cap):
        tvs.append(0.5 * float(np.abs(M - mu.probs[None, :]).sum(axis=1).max()))
        if tvs[-1] < eps:
            break
        M = M @ P.entries
    return tvs


def random_bipartite_system(rng, n, edgeless=False):
    """Random ferromagnetic system on a random bipartite graph, with its
    bipartition."""
    side = [rng.randrange(2) for _ in range(n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if side[u] != side[v] and not edgeless and rng.random() < 0.6]
    lam = [rng.uniform(1e-3, 1.5) for _ in range(n)]
    system = to_system((n, lam, ora.random_ferro_params(rng, pairs)))
    return system, tuple([v for v in range(n) if side[v] == k] for k in (0, 1))


@pytest.mark.parametrize("seed", range(40))
def test_mixing_time_matches_linear_scan(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    system = to_system(ora.random_instance(rng, n))
    censor = rng.sample(range(n), rng.randint(1, n))
    scanned, parts = random_bipartite_system(rng, n)
    kernels = [(glauber_matrix(system), gibbs_distribution(system)),
               (censored_glauber_matrix(system, censor),
                gibbs_distribution(system)),
               (alternating_scan_matrix(scanned, parts),
                gibbs_distribution(scanned))]
    for P, mu in kernels:
        tvs = linear_scan_tvs(P, mu, min(MIXING_EPS), LINEAR_CAP)
        for eps in MIXING_EPS:
            want = next((t for t, d in enumerate(tvs, 1) if d < eps), None)
            if want is None:
                # not mixed within the reference's cap (a censored kernel
                # with S != V never mixes): the search must stop there too
                with pytest.raises(NonconvergenceError) as err:
                    exact_mixing_time(P, mu, eps, cap=LINEAR_CAP)
                assert err.value.steps == LINEAR_CAP
                assert err.value.residual == pytest.approx(tvs[-1], abs=1e-12)
                continue
            assert exact_mixing_time(P, mu, eps) == want
            assert exact_mixing_time(P, mu, eps, cap=want) == want
            if want > 1:
                with pytest.raises(NonconvergenceError) as err:
                    exact_mixing_time(P, mu, eps, cap=want - 1)
                assert err.value.steps == want - 1
                assert err.value.residual == pytest.approx(tvs[want - 2],
                                                           abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_alternating_scan_is_the_product_of_its_block_factors(seed):
    rng = random.Random(seed)
    system, parts = random_bipartite_system(rng, rng.randint(1, 8))
    Q = alternating_scan_matrix(system, parts).entries
    P0 = scan_matrix(system, [parts[0]]).entries
    P1 = scan_matrix(system, [parts[1]]).entries
    assert np.array_equal(Q, P0 @ P1)


@pytest.mark.parametrize("seed", range(40))
def test_scan_matrix_matches_dense_product(seed):
    # blocks may be empty, overlap, or repeat
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    system = to_system(ora.random_instance(rng, n))
    blocks = [rng.sample(range(n), rng.randint(0, n))
              for _ in range(rng.randint(1, 4))]
    if len(blocks) > 1 and rng.random() < 0.3:
        blocks[-1] = blocks[0]
    want = scan_matrix(system, blocks[:1]).entries
    for b in blocks[1:]:
        want = want @ scan_matrix(system, [b]).entries
    assert np.abs(scan_matrix(system, blocks).entries - want).max() <= 1e-15


def test_scan_matrix_keeps_the_bits_of_the_full_matrix_route(monkeypatch):
    # one start per sector of the first block gives every entry of the
    # route that scattered the first block into a full matrix; the mixture
    # operator is no longer part of a scan
    def refused(*args):
        raise AssertionError("scan_matrix called _add_heatbath")

    monkeypatch.setattr(exact, "_add_heatbath", refused)
    rng = random.Random(2024)
    for _ in range(240):
        # blocks may be empty, overlap, or repeat
        n = rng.randint(1, 8)
        system = to_system(ora.random_instance(rng, n))
        blocks = [rng.sample(range(n), rng.randint(0, n))
                  for _ in range(rng.randint(1, 4))]
        if len(blocks) > 1 and rng.random() < 0.3:
            blocks[-1] = blocks[0]
        assert np.array_equal(scan_matrix(system, blocks).entries,
                              ora.first_block_scan(system, blocks))
    for n in range(8, 11):
        system, parts = random_bipartite_system(rng, n)
        assert np.array_equal(alternating_scan_matrix(system, parts).entries,
                              ora.first_block_scan(system, parts))


@pytest.mark.parametrize("n", [9, 10, 11])
def test_alternating_scan_peaks_below_one_and_a_half_kernels(n):
    # a path's parts are its even and odd vertices, so the first part has
    # 2^(n - ceil(n/2)) sectors: the rows that run through the blocks are a
    # small share of the kernel
    path = to_system((n, [0.7] * n,
                      [(v, v + 1, 0.8, 2.0) for v in range(n - 1)]))
    parts = (list(range(0, n, 2)), list(range(1, n, 2)))
    gibbs_distribution(path)
    tracemalloc.start()
    try:
        alternating_scan_matrix(path, parts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * 4 ** n


@pytest.mark.parametrize("seed", range(30))
def test_scan_gap_matches_dense_reversiblization(seed):
    rng = random.Random(seed)
    system, parts = random_bipartite_system(rng, rng.randint(1, 7),
                                            edgeless=seed % 5 == 0)
    mu = gibbs_distribution(system)
    Q = alternating_scan_matrix(system, parts)
    R = ora.multiplicative_reversiblization(Q.entries, mu.probs)
    d = np.sqrt(mu.probs)
    S = (d[:, None] * R) / d[None, :]
    eigs = np.linalg.eigvalsh((S + S.T) / 2)
    want = min(max(float(eigs[-2]), 0.0), 1.0)
    rep = spectral_report(Q, mu, "alternating_scan")
    assert abs(rep.second_eigenvalue - want) <= 1e-12
    if seed % 5 == 0:
        # edgeless: one scan resamples every spin, so Q has rank one
        assert rep.second_eigenvalue <= 1e-12


def test_scan_spectrum_rejects_non_stationary_kernel():
    path = to_system((3, [0.5, 1.2, 0.8],
                      [(0, 1, 0.9, 2.0), (1, 2, 0.8, 3.0)]))
    other = to_system((3, [1.5, 0.2, 0.8],
                       [(0, 1, 0.9, 2.0), (1, 2, 0.8, 3.0)]))
    Q = alternating_scan_matrix(path, ([0, 2], [1]))
    with pytest.raises(NumericError, match="stationary"):
        spectral_report(Q, gibbs_distribution(other), "alternating_scan")


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 4), st.integers(1, 6))
def test_tv_from_start_matches_matrix_power(seed, n, steps):
    rng = random.Random(seed)
    system = to_system(ora.random_instance(rng, n))
    mu = gibbs_distribution(system)
    P = glauber_matrix(system)
    start = rng.randrange(2 ** n)
    want = 0.5 * float(
        np.abs(np.linalg.matrix_power(P.entries, steps)[start] - mu.probs).sum())
    assert tv_from_start(P, mu, start, steps) == pytest.approx(want, abs=1e-12)


def test_tv_from_start_refuses_a_negative_step_count():
    system = to_system((2, [0.5, 1.2], [(0, 1, 0.9, 2.0)]))
    P, mu = glauber_matrix(system), gibbs_distribution(system)
    with pytest.raises(InputError, match="steps must be at least 0, got -3"):
        tv_from_start(P, mu, 0, -3)


def test_transition_matrix_validation():
    with pytest.raises(NumericError):
        TransitionMatrix(n=1, entries=np.array([[0.5, 0.6], [0.5, 0.5]]))
    with pytest.raises(InputError):
        TransitionMatrix(n=2, entries=np.eye(2))


def test_log_weights_index_convention():
    # bit v of the index is sigma_v
    sys2 = TwoSpinSystem.from_params(2, [0.25, 4.0], [])
    lw, shift = log_weights(sys2)
    lw = lw + shift
    assert lw[0] == pytest.approx(math.log(0.25) + math.log(4.0))
    assert lw[1] == pytest.approx(math.log(4.0))   # sigma = (1, 0)
    assert lw[2] == pytest.approx(math.log(0.25))  # sigma = (0, 1)
    assert lw[3] == pytest.approx(0.0)


def test_log_weights_match_the_gathered_construction():
    # the strided views add the same terms in the same order: bit-identical
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 9)
        system = to_system(ora.random_instance(rng, n))
        lw, shift = log_weights(system)
        ref, ref_shift = ora.gathered_log_weights(system)
        assert np.array_equal(lw, ref) and shift == ref_shift


def test_log_weights_keep_small_terms_next_to_huge_ones():
    # theta_1 = -1e300 adds log lambda_1 = 1e300 to every sigma_1 = 0 weight;
    # summed unshifted it absorbed the other terms and gave p1(0) = 0.5
    system = rbm_to_two_spin(RbmParams(
        n0=1, n1=2, interaction=((0, 0.5, 0.2), (0.5, 0, 0), (0.2, 0, 0)),
        theta=(0.1, -1e300, 0.2)))
    for v in range(3):
        _, p1 = conditional_marginal(system, Pinning(), v)
        assert p1 == pytest.approx(saw_marginal(system, v, Pinning()).p1,
                                   abs=constants.SAW_ORACLE_TOL)
    mu = gibbs_distribution(system)
    assert float(mu.probs.sum()) == pytest.approx(1.0, abs=constants.PROB_SUM_TOL)
    assert mu.log_z == 1e300


def test_log_weights_when_largest_options_conflict():
    # sigma_0 = 0 and the edge (0,3) at (1,1) each add 1e300 but exclude
    # each other, so the heaviest configurations sit far below 0 before the
    # table is renormalized; three of them tie: (0,1,1,0), (0,1,1,1), (1,1,1,1)
    system = rbm_to_two_spin(RbmParams(
        n0=2, n1=2,
        interaction=((0, 0, 0, 1e300), (0, 0, 1e300, 0),
                     (0, 1e300, 0, 0), (1e300, 0, 0, 0)),
        theta=(-1e300, 1e300, -0.3, 1e-300)))
    probs = gibbs_distribution(system).probs
    heavy = [config_to_index(c) for c in ((0, 1, 1, 0), (0, 1, 1, 1),
                                          (1, 1, 1, 1))]
    assert probs[heavy] == pytest.approx([1 / 3] * 3)
    for v, p1 in enumerate((1 / 3, 1.0, 1.0, 2 / 3)):
        assert conditional_marginal(system, Pinning(), v)[1] == pytest.approx(p1)


# ---------------------------------------------------------------------------
# the Lanczos route of the Glauber spectrum

def uniform_ring(rng, n, closed):
    """A path or cycle with one lambda and one (beta, gamma) everywhere: its
    Glauber spectrum repeats eigenvalues."""
    pairs = [(v, v + 1) for v in range(n - 1)] + ([(0, n - 1)] if closed else [])
    beta = rng.uniform(0.5, 1.0)
    gamma = rng.uniform(1.0 / beta + 0.1, 4.0)
    return to_system((n, [rng.uniform(0.2, 1.5)] * n,
                      [(u, v, beta, gamma) for u, v in pairs]))


def lanczos_kernels(count):
    """(kind, P, mu) of `count` seeded reversible kernels with 512 to 1024
    states, at or above constants.LANCZOS_MIN_STATES."""
    rng = random.Random(1917)
    for i in range(count):
        kind = ("random", "ring", "censored", "pinned", "edgeless")[i % 5]
        n = 10 if i % 100 == 0 else 9
        if kind == "ring":
            system = uniform_ring(rng, n, closed=i % 2 == 0)
        elif kind == "edgeless":
            system = to_system((n, [rng.uniform(1e-3, 1.5) for _ in range(n)],
                                []))
        else:
            system = to_system(ora.random_instance(rng, n + (kind == "pinned"),
                                                   p=rng.uniform(0.1, 0.6)))
        mu = gibbs_distribution(system)
        if kind == "censored":
            P = censored_glauber_matrix(system,
                                        rng.sample(range(n), rng.randrange(1, n)))
        elif kind == "pinned":
            P, mu = pinned_glauber_matrix(system,
                                          Pinning({rng.randrange(n + 1):
                                                   rng.randint(0, 1)}))
        else:
            P = glauber_matrix(system)
        yield kind, P, mu


def test_lanczos_lambda2_matches_the_dense_reference():
    for i, (kind, P, mu) in enumerate(lanczos_kernels(200)):
        assert 2 ** P.n >= constants.LANCZOS_MIN_STATES
        rep = spectral_report(P, mu, "glauber")
        if i < 5:  # a fixed start vector: reruns repeat every bit
            assert spectral_report(P, mu, "glauber") == rep
        want = ora.glauber_lambda2(P.entries, mu.probs)
        assert abs(rep.second_eigenvalue - want) <= 1e-12, (i, kind)
        if kind == "censored":  # S != V: reducible, so the gap is 0
            assert abs(rep.gap) <= 1e-12
        if kind == "edgeless":  # eigenvalues 1 - |S|/n
            assert abs(rep.gap - 1.0 / P.n) <= 1e-12


def test_lanczos_route_refuses_a_non_reversible_kernel():
    # an alternating scan passed as "glauber" at 2^9 states: S = D^(1/2) Q
    # D^(-1/2) is not symmetric, as on the dense route
    n = 9
    path = to_system((n, [0.5 + 0.1 * v for v in range(n)],
                      [(v, v + 1, 0.9, 2.0) for v in range(n - 1)]))
    Q = alternating_scan_matrix(path, (list(range(0, n, 2)),
                                       list(range(1, n, 2))))
    with pytest.raises(NumericError, match="not reversible"):
        spectral_report(Q, gibbs_distribution(path), "glauber")


def test_spectra_and_distances_refuse_a_bad_measure():
    path = to_system((3, [0.5, 1.2, 0.8],
                      [(0, 1, 0.9, 2.0), (1, 2, 0.8, 3.0)]))
    P = glauber_matrix(path)
    zero = DistributionTable(n=3, probs=np.array([0.5, 0.5] + [0.0] * 6),
                             log_z=0.0)
    with pytest.raises(InputError, match="strictly positive"):
        spectral_report(P, zero, "glauber")
    small = gibbs_distribution(to_system((2, [0.5, 1.2], [(0, 1, 0.9, 2.0)])))
    for kind in ("glauber", "alternating_scan"):
        with pytest.raises(InputError, match="size mismatch"):
            spectral_report(P, small, kind)
    with pytest.raises(InputError, match="size mismatch"):
        exact_mixing_time(P, small, 0.1)
    with pytest.raises(InputError, match="size mismatch"):
        tv_from_start(P, small, 0, 3)


def test_tables_refuse_non_finite_entries():
    with pytest.raises(NumericError, match="probability of state 1"):
        DistributionTable(n=1, probs=np.array([1.0, np.nan]), log_z=0.0)
    for bad in (np.nan, np.inf):
        entries = np.full((4, 4), 0.25)
        entries[2, 1] = bad
        with pytest.raises(NumericError, match="in row 2"):
            TransitionMatrix(n=2, entries=entries)


def test_underflowing_heat_bath_sectors_are_a_numeric_error():
    # lambda = e^400 on a 3-vertex path: the sectors of states 3, 5, 6 and
    # 7 have weights that underflow, and their heat-bath rows divide 0 by 0;
    # the NaN rows used to pass validation, and exact_mixing_time returned 2
    path = to_system((3, [math.exp(400.0)] * 3,
                      [(0, 1, 1.0, 1.5), (1, 2, 1.0, 1.5)]))
    with np.errstate(invalid="ignore"), pytest.raises(NumericError,
                                                      match="row 3"):
        glauber_matrix(path)


def test_mixing_time_near_powers_of_two_at_n_9_and_10():
    # eps between d(t - 1) and d(t) of the linear scan puts the mixing time
    # at t: just below, at and just above a power of two, where the search's
    # squaring stops and its bisection starts (the scan mixes by t = 12)
    rng = random.Random(4)
    glauber9 = to_system(ora.random_instance(rng, 9, p=0.3))
    scanned, parts = random_bipartite_system(rng, 9)
    glauber10 = to_system(ora.random_instance(rng, 10, p=0.3))
    cases = [(glauber_matrix(glauber9), gibbs_distribution(glauber9),
              (15, 16, 17, 31, 32, 33), True),
             (alternating_scan_matrix(scanned, parts),
              gibbs_distribution(scanned), (3, 4, 5, 7, 8, 9), True),
             (glauber_matrix(glauber10), gibbs_distribution(glauber10),
              (31, 33), False)]
    for P, mu, targets, with_caps in cases:
        tvs = linear_scan_tvs(P, mu, 0.0, max(targets))
        for t in targets:
            assert tvs[t - 2] > tvs[t - 1]
            eps = 0.5 * (tvs[t - 2] + tvs[t - 1])
            assert exact_mixing_time(P, mu, eps) == t
            if with_caps:
                assert exact_mixing_time(P, mu, eps, cap=t) == t
                with pytest.raises(NonconvergenceError) as err:
                    exact_mixing_time(P, mu, eps, cap=t - 1)
                assert err.value.residual == pytest.approx(tvs[t - 2],
                                                           abs=1e-12)
    # the search refuses a measure the kernel does not keep
    uniform = DistributionTable(n=9, probs=np.full(512, 1.0 / 512), log_z=0.0)
    with pytest.raises(NumericError, match="not stationary"):
        exact_mixing_time(cases[0][0], uniform, 0.1)


def test_mixing_search_keeps_starts_within_the_drift_margin():
    # P swaps the two states with probability 0.9, and mu sits 2.5e-11 off
    # its stationary (1/2, 1/2): a residual of 9e-11, within
    # STATIONARITY_TOL.  d_s(t) = |0.8^t / 2 -+ 2.5e-11| alternates between
    # the starts, so a start below eps at an even t is back above it at the
    # next odd t, while the worst-start distance 0.8^t / 2 + 2.5e-11 first
    # falls below eps at t = 110.  Dropping a start without the drift
    # margin answers 109.
    P = TransitionMatrix(n=1, entries=np.array([[0.1, 0.9], [0.9, 0.1]]))
    mu = DistributionTable(n=1, probs=np.array([0.5 + 2.5e-11,
                                                0.5 - 2.5e-11]), log_z=0.0)
    assert 0.0 < stationarity_residual(P, mu) <= constants.STATIONARITY_TOL
    eps = 3.75e-11
    assert len(linear_scan_tvs(P, mu, eps, 1000)) == 110
    assert exact_mixing_time(P, mu, eps) == 110


# ---------------------------------------------------------------------------
# scans from the first block's column weights

@pytest.mark.parametrize("blocks", [[(0, 1)], [(), (2,)], [(1,), (0, 2), (3,)]])
def test_scan_matrix_runs_only_the_later_blocks(monkeypatch, blocks):
    # the rows after blocks[0] are its column weights, set in one scatter;
    # only the later blocks pass through _then_heatbath
    system = to_system(ora.random_instance(random.Random(2), 4))
    calls, then_heatbath = [], exact._then_heatbath

    def counted(A, w, block):
        calls.append(block)
        return then_heatbath(A, w, block)

    monkeypatch.setattr(exact, "_then_heatbath", counted)
    entries = scan_matrix(system, blocks).entries
    assert calls == blocks[1:]
    assert np.array_equal(entries, ora.first_block_scan(system, blocks))


# ---------------------------------------------------------------------------
# integer arguments: checked, not truncated

def _glauber_tree():
    # the tree of the cases below: 4 vertices, Glauber kernel and its mu
    system = random_tree_instance(_rng(1), 4)[0]
    return system, glauber_matrix(system), gibbs_distribution(system)


@pytest.mark.parametrize("cap", [2.5, True, math.nan])
def test_exact_mixing_time_refuses_a_cap_that_is_not_an_integer(cap):
    # cap=2.5 used to answer 3 where the mixing time is 13
    _, P, mu = _glauber_tree()
    assert exact_mixing_time(P, mu, 0.1) == 13
    assert exact_mixing_time(P, mu, 0.1, cap=np.int64(13)) == 13
    with pytest.raises(InputError, match=f"cap must be an integer, got {cap!r}"):
        exact_mixing_time(P, mu, 0.1, cap=cap)


def test_censored_glauber_matrix_refuses_a_fractional_vertex():
    # [1.5] used to censor to vertex 1
    system, _, _ = _glauber_tree()
    with pytest.raises(InputError,
                       match="censored vertex must be an integer, got 1.5"):
        censored_glauber_matrix(system, [1.5])
    with pytest.raises(InputError, match="censored vertex 4 out of range"):
        censored_glauber_matrix(system, [0, 4])
    assert np.array_equal(censored_glauber_matrix(system, [np.int64(1)]).entries,
                          censored_glauber_matrix(system, [1]).entries)


@pytest.mark.parametrize("start, steps, fragment", [
    (0, 2.5, "steps must be an integer, got 2.5"),
    (1.5, 2, "start state must be an integer, got 1.5"),
])
def test_tv_from_start_refuses_fractional_arguments(start, steps, fragment):
    _, P, mu = _glauber_tree()
    with pytest.raises(InputError, match=fragment):
        tv_from_start(P, mu, start, steps)


@pytest.mark.parametrize("call, fragment", [
    (lambda s: conditional_marginal(s, Pinning(), 1.5),
     "vertex must be an integer, got 1.5"),
    (lambda s: heatbath_matrix(s, [(1.5,)]),
     "block vertex must be an integer, got 1.5"),
], ids=["conditional_marginal", "heatbath_matrix"])
def test_exact_refuses_a_fractional_vertex(call, fragment):
    system, _, _ = _glauber_tree()
    with pytest.raises(InputError, match=fragment):
        call(system)


# ---------------------------------------------------------------------------
# error branches

@pytest.mark.parametrize("call, error, fragment", [
    (lambda s, P, mu: TransitionMatrix(
        n=1, entries=np.array([[1.5, -0.5], [0.0, 1.0]])),
     NumericError, "negative transition probability"),
    (lambda s, P, mu: influence_pair(s, 1, 1), InputError,
     "two distinct vertices"),
    (lambda s, P, mu: heatbath_matrix(s, []), InputError,
     "need at least one block"),
    (lambda s, P, mu: scan_matrix(s, []), InputError,
     "need at least one block"),
    (lambda s, P, mu: pinned_glauber_matrix(
        s, Pinning({v: 0 for v in range(s.n)})),
     InputError, "at least one free vertex"),
    (lambda s, P, mu: detailed_balance_residual(
        P, gibbs_distribution(TwoSpinSystem.from_params(1, [1.0], []))),
     InputError, "size mismatch"),
    (lambda s, P, mu: tv_from_start(P, mu, 16, 1), InputError,
     "start state 16 out of range"),
    (lambda s, P, mu: exact_mixing_time(P, mu, 0.0), InputError,
     r"eps must lie in \(0,1\), got 0.0"),
    (lambda s, P, mu: exact_mixing_time(P, mu, 1.0), InputError,
     r"eps must lie in \(0,1\), got 1.0"),
], ids=["negative-entry", "influence-self", "heatbath-no-blocks",
        "scan-no-blocks", "pin-every-vertex", "balance-size", "start-range",
        "eps-zero", "eps-one"])
def test_exact_error_branches(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call(*_glauber_tree())
