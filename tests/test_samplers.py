"""Stochastic dynamics vs. the exact kernels and the brute-force oracles."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

import _oracles as ora
from ferrospin import constants, harness, samplers
from ferrospin.errors import CapacityError, CouplingInvariantError, InputError
from ferrospin.exact import (
    alternating_scan_matrix,
    conditional_marginal,
    field_kernel_matrix,
    gibbs_distribution,
    glauber_matrix,
    heatbath_matrix,
    scan_matrix,
    stationarity_residual,
)
from ferrospin.model import (
    Pinning, RbmParams, TwoSpinSystem, config_to_index, index_to_config,
    rbm_to_two_spin)
from ferrospin.samplers import (
    ChainState,
    CoupledPair,
    RandomSource,
    UpdateSchedule,
    coupling_time,
    coupling_times,
    dominates,
    field_dynamics_step,
    monotone_coupled_step,
    schedule_step,
    trajectory_csv,
    warm_start_check,
)


def to_system(inst):
    n, lam, edges = inst
    return TwoSpinSystem.from_params(n, lam, edges)


def chi2_accepts(counts, probs, trials, level=0.999):
    """Pearson goodness-of-fit with small-expectation states lumped."""
    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(probs, dtype=float) * trials
    big = expected >= 5.0
    obs = list(counts[big])
    exp = list(expected[big])
    if float(expected[~big].sum()) > 0.0:
        obs.append(float(counts[~big].sum()))
        exp.append(float(expected[~big].sum()))
    stat = sum((o - e) ** 2 / e for o, e in zip(obs, exp) if e > 0)
    dof = max(len(exp) - 1, 1)
    return stat <= chi2.ppf(level, dof)


GLAUBER = UpdateSchedule(kind="single-site-glauber")


def one_block(block):
    """Schedule whose every step resamples `block` (a one-block heat bath)."""
    return UpdateSchedule(kind="heat-bath-block", blocks=(tuple(block),))


def censored(schedule, censor):
    return UpdateSchedule(kind=schedule.kind, blocks=schedule.blocks,
                          theta=schedule.theta, censor=frozenset(censor))


def chain_states(system, schedule, start, steps, seed):
    """The states after each of `steps` schedule steps from `start`."""
    state, rng = ChainState(tuple(start)), RandomSource(seed)
    states = []
    for _ in range(steps):
        state = schedule_step(system, schedule, state, rng)
        states.append(state)
    return states


def one_step_counts(step_fn, n, trials, seed=0):
    """Empirical distribution of a single step repeated from a fixed state."""
    rng = RandomSource(seed)
    counts = np.zeros(2 ** n, dtype=np.int64)
    for _ in range(trials):
        out = step_fn(rng)
        counts[config_to_index(out.config)] += 1
    return counts


# ---------------------------------------------------------------------------
# conditionals

def site_p1(system, config, v):
    """p(sigma_v = 1 | rest of config), read from v's site table, the one
    the compiled kernel builds (`samplers._site`)."""
    mask, memo = samplers._site(system, v)
    return memo[config_to_index(config) & mask]


def test_site_conditional_trivia():
    pair = TwoSpinSystem.from_params(2, [1.0, 1.0], [(0, 1, 1.0, 2.0)])
    assert site_p1(pair, (0, 1), 0) == pytest.approx(2 / 3)
    solo = TwoSpinSystem.from_params(1, [3.0], [])
    assert site_p1(solo, (0,), 0) == pytest.approx(1 / 4)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 7))
def test_site_conditional_matches_exact(seed, n):
    rng = random.Random(seed)
    inst = ora.random_instance(rng, n)
    system = to_system(inst)
    config = tuple(rng.randint(0, 1) for _ in range(n))
    v = rng.randrange(n)
    pin = Pinning({u: config[u] for u in range(n) if u != v})
    _, p1 = conditional_marginal(system, pin, v)
    assert site_p1(system, config, v) == pytest.approx(p1, abs=1e-12)
    assert site_p1(system, config, v) == pytest.approx(
        ora.site_conditional_p1(*inst, config, v), abs=1e-12)


def test_site_conditional_extreme_logs_stay_finite():
    system = TwoSpinSystem.from_params(2, [1.0, 1.0], [(0, 1, 1.0, math.exp(600))])
    assert site_p1(system, (0, 1), 0) == pytest.approx(1.0)
    tiny = TwoSpinSystem.from_params(1, [math.exp(700)], [])
    assert site_p1(tiny, (1,), 0) == pytest.approx(0.0)


def _walk_block_table(system, config, block):
    """(v, p(sigma_v = 1)) at every position of `block`, read from one
    block table, keeping the half that matches config[v] each time."""
    table = samplers._Kernel(system).block_table(config_to_index(config),
                                                 block)
    for v in block:
        yield v, samplers._first_p1(table)
        table = table[config[v]]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(3, 6))
def test_marginalized_conditional_matches_exact(seed, n):
    # chain rule over a block: pin the outside and the decided prefix,
    # marginalize the rest of the block
    rng = random.Random(seed)
    inst = ora.random_instance(rng, n)
    system = to_system(inst)
    config = tuple(rng.randint(0, 1) for _ in range(n))
    block = tuple(sorted(rng.sample(range(n), rng.randint(2, n))))
    for k, (v, got) in enumerate(_walk_block_table(system, config, block)):
        decided = {u: config[u] for u in range(n) if u not in block[k:]}
        _, p1 = conditional_marginal(system, Pinning(decided), v)
        assert got == pytest.approx(p1, abs=1e-12)


# ---------------------------------------------------------------------------
# plumbing

def test_random_source_determinism():
    a, b = RandomSource(42), RandomSource(42)
    assert np.array_equal(a.uniforms(100), b.uniforms(100))
    assert a.position == b.position == 100
    assert not np.array_equal(RandomSource(42).uniforms(8),
                              RandomSource(43).uniforms(8))
    assert len(RandomSource(0).uniforms(6)) == 6


def test_state_and_schedule_validation():
    with pytest.raises(InputError):
        ChainState(config=(0, 2))
    with pytest.raises(InputError):
        ChainState(config=(0, 1), step=-1)
    with pytest.raises(InputError):
        UpdateSchedule(kind="metropolis")
    with pytest.raises(InputError):
        UpdateSchedule(kind="alternating-scan", blocks=((0,), (1,), (2,)))
    with pytest.raises(InputError):
        UpdateSchedule(kind="field-dynamics")  # no theta
    with pytest.raises(InputError):
        UpdateSchedule(kind="field-dynamics", theta=1.5)
    with pytest.raises(InputError):
        schedule_step(to_system(ora.random_instance(random.Random(0), 3)),
                      UpdateSchedule(kind="heat-bath-block"),
                      ChainState((1, 1, 1)), RandomSource(0))


def test_coupled_pair_validation():
    with pytest.raises(CouplingInvariantError):
        CoupledPair(upper=ChainState((0, 1)), lower=ChainState((1, 0)))
    with pytest.raises(InputError):
        CoupledPair(upper=ChainState((1,), step=1), lower=ChainState((0,)))
    assert CoupledPair(upper=ChainState((1, 1)), lower=ChainState((1, 1))).merged
    assert dominates((1, 1, 0), (1, 0, 0)) and not dominates((0, 1), (1, 1))


# ---------------------------------------------------------------------------
# single-site dynamics

def test_glauber_fair_coin():
    solo = TwoSpinSystem.from_params(1, [1.0], [])
    rng = RandomSource(7)
    state = ChainState((1,))
    ones = 0
    steps = 10 ** 5
    for _ in range(steps):
        state = schedule_step(solo, GLAUBER, state, rng)
        ones += state.config[0]
    sigma = math.sqrt(0.25 / steps)
    assert abs(ones / steps - 0.5) <= 3 * sigma + 0.002


def test_glauber_determinism():
    system = to_system(ora.random_instance(random.Random(3), 5))
    runs = []
    for _ in range(2):
        rng = RandomSource(99)
        state = ChainState((1,) * 5)
        traj = []
        for _ in range(50):
            state = schedule_step(system, GLAUBER, state, rng)
            traj.append(state.config)
        runs.append(traj)
    assert runs[0] == runs[1]


def test_glauber_empirical_kernel_matches_matrix():
    rng0 = random.Random(11)
    inst = ora.random_instance(rng0, 4)
    system = to_system(inst)
    start = ChainState((1, 0, 1, 0))
    trials = 10 ** 5
    counts = one_step_counts(
        lambda r: schedule_step(system, GLAUBER, start, r), 4, trials,
        seed=5)
    row = glauber_matrix(system).entries[config_to_index(start.config)]
    assert chi2_accepts(counts, row, trials)


# ---------------------------------------------------------------------------
# block dynamics

def test_block_resample_empty_and_oversized():
    system = to_system(ora.random_instance(random.Random(1), 4))
    state = ChainState((1, 0, 1, 0))
    out = schedule_step(system, one_block([]), state, RandomSource(0))
    assert out.config == state.config
    chain = to_system((22, [1.0] * 22,
                       [(i, i + 1, 1.0, 2.0) for i in range(21)]))
    with pytest.raises(CapacityError):
        schedule_step(chain, one_block(range(21)), ChainState((1,) * 22),
                      RandomSource(0))


def test_block_resample_independent_block_factorizes():
    # edgeless pair: joint law of the block is the product of site laws
    system = TwoSpinSystem.from_params(2, [0.5, 2.0], [])
    start = ChainState((0, 0))
    trials = 4 * 10 ** 4
    counts = one_step_counts(
        lambda r: schedule_step(system, one_block([0, 1]), start, r), 2,
        trials, seed=3)
    p0, p1 = 1 / (1 + 0.5), 1 / (1 + 2.0)  # per-site p(1)
    probs = np.array([(1 - p0) * (1 - p1), p0 * (1 - p1),
                      (1 - p0) * p1, p0 * p1])
    assert chi2_accepts(counts, probs, trials)


def test_block_resample_dependent_block_matches_matrix():
    rng0 = random.Random(8)
    inst = ora.random_instance(rng0, 4, p=1.0)
    system = to_system(inst)
    start = ChainState((0, 1, 1, 0))
    trials = 6 * 10 ** 4
    counts = one_step_counts(
        lambda r: schedule_step(system, one_block([0, 1, 3]), start, r), 4,
        trials, seed=2)
    row = scan_matrix(system, [[0, 1, 3]]).entries[
        config_to_index(start.config)]
    assert chi2_accepts(counts, row, trials)


def test_heat_bath_block_schedule_matches_average_kernel():
    inst = ora.random_instance(random.Random(15), 4)
    system = to_system(inst)
    blocks = ((0, 2), (1, 3), (2, 3))
    sched = UpdateSchedule(kind="heat-bath-block", blocks=blocks)
    start = ChainState((1, 1, 0, 0))
    trials = 6 * 10 ** 4
    counts = one_step_counts(
        lambda r: schedule_step(system, sched, start, r), 4, trials, seed=9)
    row = heatbath_matrix(system, list(blocks)).entries[
        config_to_index(start.config)]
    assert chi2_accepts(counts, row, trials)


# ---------------------------------------------------------------------------
# scans

def test_alternating_scan_part_rule():
    path = to_system((4, [1.0] * 4,
                      [(0, 1, 0.9, 2.0), (1, 2, 0.8, 3.0), (2, 3, 1.0, 1.5)]))
    sched = UpdateSchedule(kind="alternating-scan", blocks=((0, 2), (1, 3)))
    rng = RandomSource(1)
    s0 = ChainState((1, 1, 1, 1))
    s1 = schedule_step(path, sched, s0, rng)
    assert (s1.config[1], s1.config[3]) == (1, 1)  # part 1 untouched at t=0
    s2 = schedule_step(path, sched, s1, rng)
    assert (s2.config[0], s2.config[2]) == (s1.config[0], s1.config[2])


def test_alternating_scan_requires_independent_parts():
    tri = to_system((3, [1.0] * 3, [(0, 1, 1.0, 2.0), (1, 2, 1.0, 2.0),
                                    (0, 2, 1.0, 2.0)]))
    with pytest.raises(InputError):
        schedule_step(tri, UpdateSchedule(kind="alternating-scan",
                                          blocks=((0, 2), (1,))),
                      ChainState((1, 1, 1)), RandomSource(0))


def test_full_scan_matches_scan_kernel():
    inst = (3, [0.7, 1.3, 0.4], [(0, 1, 0.9, 2.5), (1, 2, 0.6, 3.0)])
    system = to_system(inst)
    bip = ((0, 2), (1,))
    start = ChainState((1, 1, 1))
    trials = 6 * 10 ** 4
    sched = UpdateSchedule(kind="alternating-scan", blocks=bip)

    def full_scan(r):
        mid = schedule_step(system, sched, start, r)
        return schedule_step(system, sched, mid, r)

    counts = one_step_counts(full_scan, 3, trials, seed=13)
    row = alternating_scan_matrix(system, bip).entries[
        config_to_index(start.config)]
    assert chi2_accepts(counts, row, trials)


def test_full_scan_on_edgeless_graph_is_exact_sample():
    system = TwoSpinSystem.from_params(3, [0.4, 1.0, 2.5], [])
    bip = ((0, 2), (1,))
    start = ChainState((0, 0, 0))
    trials = 4 * 10 ** 4
    sched = UpdateSchedule(kind="alternating-scan", blocks=bip)

    def full_scan(r):
        mid = schedule_step(system, sched, start, r)
        return schedule_step(system, sched, mid, r)

    counts = one_step_counts(full_scan, 3, trials, seed=17)
    mu = gibbs_distribution(system)
    assert chi2_accepts(counts, mu.probs, trials)


# ---------------------------------------------------------------------------
# censoring

def test_censored_full_set_reproduces_base_trajectory():
    inst = ora.random_instance(random.Random(23), 5)
    system = to_system(inst)
    sched = UpdateSchedule(kind="heat-bath-block", blocks=((0, 1, 2), (2, 3, 4)))
    a, b = RandomSource(31), RandomSource(31)
    sa = sb = ChainState((1,) * 5)
    for _ in range(200):
        sa = schedule_step(system, sched, sa, a)
        sb = schedule_step(system, censored(sched, range(5)), sb, b)
        assert sa.config == sb.config


def test_censored_empty_set_freezes():
    inst = ora.random_instance(random.Random(29), 4)
    system = to_system(inst)
    sched = UpdateSchedule(kind="single-site-glauber")
    state = ChainState((1, 0, 1, 0))
    rng = RandomSource(2)
    for _ in range(50):
        state = schedule_step(system, censored(sched, []), state, rng)
        assert state.config == (1, 0, 1, 0)
    # the dropped updates still consumed randomness (no-op coupling)
    assert rng.position == 50 * 5


def test_censored_never_touches_outside():
    inst = ora.random_instance(random.Random(37), 5)
    system = to_system(inst)
    sched = censored(GLAUBER, [0, 2])
    state = ChainState((1, 1, 1, 1, 1))
    rng = RandomSource(4)
    for _ in range(300):
        state = schedule_step(system, sched, state, rng)
        assert state.config[1] == state.config[3] == state.config[4] == 1


def test_censored_kernel_stationarity():
    # blocks intersected with S: mu and the S-sector conditional both stay put
    inst = ora.random_instance(random.Random(41), 4)
    system = to_system(inst)
    blocks = [(0, 1), (1, 2), (2, 3)]
    censor = {1, 2}
    cut = [tuple(v for v in b if v in censor) for b in blocks]
    P = heatbath_matrix(system, cut)
    mu = gibbs_distribution(system)
    assert stationarity_residual(P, mu) <= constants.STATIONARITY_TOL
    # conditional on the outside spins sigma_0 = 1, sigma_3 = 0
    idx = np.arange(16)
    sector = ((idx >> 0) & 1 == 1) & ((idx >> 3) & 1 == 0)
    nu = np.where(sector, mu.probs, 0.0)
    nu /= nu.sum()
    assert float(np.abs(nu @ P.entries - nu).sum()) <= constants.STATIONARITY_TOL


def test_censoring_dominance_sandwich():
    # exact distribution evolution: censored from all-one dominates the base
    # chain, which dominates the censored chain from all-zero
    rng = random.Random(53)
    for _ in range(3):
        n = rng.randint(3, 5)
        inst = ora.random_instance(rng, n)
        system = to_system(inst)
        k = rng.randint(2, 4)
        blocks = []
        for _ in range(k):
            b = tuple(sorted(rng.sample(range(n), rng.randint(1, n - 1))))
            blocks.append(b)
        covered = set().union(*blocks)
        blocks += [(v,) for v in range(n) if v not in covered]
        censor = set(rng.sample(range(n), rng.randint(1, n - 1)))
        P = heatbath_matrix(system, blocks).entries
        Pc = heatbath_matrix(
            system, [tuple(v for v in b if v in censor) for b in blocks]).entries
        size = 2 ** n
        top, bot = np.zeros(size), np.zeros(size)
        top[size - 1] = 1.0
        bot[0] = 1.0
        xs_plus, xs_minus, ys_plus, ys_minus = top.copy(), bot.copy(), top.copy(), bot.copy()
        events = []
        for _ in range(200):
            gens = [rng.randrange(size) for _ in range(rng.randint(1, 3))]
            member = np.zeros(size, dtype=bool)
            for s in range(size):
                member[s] = any((s & g) == g for g in gens)
            events.append(member)
        for _ in range(6):
            for member in events:
                py_minus = float(ys_minus[member].sum())
                px_minus = float(xs_minus[member].sum())
                px_plus = float(xs_plus[member].sum())
                py_plus = float(ys_plus[member].sum())
                assert py_minus <= px_minus + 1e-9
                assert px_minus <= px_plus + 1e-9
                assert px_plus <= py_plus + 1e-9
            xs_plus, xs_minus = xs_plus @ P, xs_minus @ P
            ys_plus, ys_minus = ys_plus @ Pc, ys_minus @ Pc


# ---------------------------------------------------------------------------
# monotone coupling

def test_coupled_single_vertex_merges_in_one_step():
    solo = TwoSpinSystem.from_params(1, [1.7], [])
    sched = UpdateSchedule(kind="single-site-glauber")
    for seed in range(10):
        pair = CoupledPair(upper=ChainState((1,)), lower=ChainState((0,)))
        pair = monotone_coupled_step(solo, pair, sched,
                                     RandomSource(seed).uniforms(2))
        assert pair.merged


def test_coupling_order_preserved_and_merge_is_final():
    rng = random.Random(61)
    for trial in range(5):
        n = rng.randint(2, 6)
        inst = ora.random_instance(rng, n)
        system = to_system(inst)
        sched = UpdateSchedule(kind="single-site-glauber")
        pair = CoupledPair(upper=ChainState((1,) * n),
                           lower=ChainState((0,) * n))
        src = RandomSource(trial)
        merged_at = None
        for t in range(2000):
            pair = monotone_coupled_step(system, pair, sched,
                                         src.uniforms(n + 1))
            assert dominates(pair.upper.config, pair.lower.config)
            if merged_at is None and pair.merged:
                merged_at = t
            if merged_at is not None:
                assert pair.merged  # shared randomness: never decouple
        assert merged_at is not None


def test_coupled_step_rejects_bad_precondition():
    system = TwoSpinSystem.from_params(2, [1.0, 1.0], [(0, 1, 1.0, 2.0)])
    sched = UpdateSchedule(kind="single-site-glauber")
    good = CoupledPair(upper=ChainState((1, 1)), lower=ChainState((0, 0)))
    with pytest.raises(InputError):
        monotone_coupled_step(system, good, sched, [0.5, 0.5])  # wrong length
    with pytest.raises(InputError):
        monotone_coupled_step(
            system, good, UpdateSchedule(kind="field-dynamics", theta=0.5),
            [0.1, 0.2, 0.3])


def test_coupled_step_rejects_a_pair_of_the_wrong_size():
    # a 2-spin pair on a 3-vertex path is refused as schedule_step refuses
    # a state of the wrong size
    path = TwoSpinSystem.from_params(
        3, [1.0, 1.0, 1.0], [(0, 1, 0.5, 3.0), (1, 2, 0.5, 3.0)])
    pair = CoupledPair(upper=ChainState((1, 1)), lower=ChainState((0, 0)))
    for sched in (GLAUBER, one_block([0, 1, 2])):
        with pytest.raises(InputError, match="state size mismatch"):
            monotone_coupled_step(path, pair, sched, [0.9, 0.1, 0.2, 0.3])


def test_antiferromagnetic_coupling_breaks_order_and_raises():
    # beta = gamma = 0.1: upper (1,1) and lower (0,0) pull a vertex the
    # opposite ways, so a threshold between their conditionals flips order
    system = TwoSpinSystem.from_params(2, [1.0, 1.0], [(0, 1, 0.1, 0.1)])
    pair = CoupledPair(upper=ChainState((1, 1)), lower=ChainState((0, 0)))
    with pytest.raises(CouplingInvariantError):
        monotone_coupled_step(system, pair, GLAUBER, [0.0, 0.5, 0.5])
    with pytest.raises(CouplingInvariantError, match="order violated"):
        coupling_time(system, GLAUBER, seed=0)


def test_coupling_works_for_block_schedules():
    inst = ora.random_instance(random.Random(67), 5)
    system = to_system(inst)
    sched = UpdateSchedule(kind="heat-bath-block",
                           blocks=((0, 1, 2), (2, 3, 4), (0, 4)))
    pair = CoupledPair(upper=ChainState((1,) * 5), lower=ChainState((0,) * 5))
    src = RandomSource(5)
    for _ in range(3000):
        pair = monotone_coupled_step(system, pair, sched, src.uniforms(6))
        if pair.merged:
            break
    assert pair.merged


# ---------------------------------------------------------------------------
# field dynamics

def test_field_theta_one_resamples_everything():
    inst = ora.random_instance(random.Random(71), 3)
    system = to_system(inst)
    start = ChainState((0, 0, 0))
    trials = 4 * 10 ** 4
    counts = one_step_counts(
        lambda r: field_dynamics_step(system, 1.0, start, r), 3, trials, seed=19)
    mu = gibbs_distribution(system)  # tilt by theta=1 is the identity
    assert chi2_accepts(counts, mu.probs, trials)


def test_field_small_theta_keeps_zeros_frozen():
    inst = ora.random_instance(random.Random(73), 5)
    system = to_system(inst)
    state = ChainState((0, 1, 0, 1, 0))
    rng = RandomSource(3)
    theta = 1e-12  # selection of a 0-vertex is essentially impossible
    out = field_dynamics_step(system, theta, state, rng)
    assert out.config[0] == out.config[2] == out.config[4] == 0


def test_field_step_matches_exact_kernel():
    inst = ora.random_instance(random.Random(79), 3)
    system = to_system(inst)
    theta = 0.35
    start = ChainState((1, 0, 1))
    trials = 5 * 10 ** 4
    counts = one_step_counts(
        lambda r: field_dynamics_step(system, theta, start, r), 3, trials, seed=23)
    row = field_kernel_matrix(system, theta).entries[config_to_index(start.config)]
    assert chi2_accepts(counts, row, trials)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 4),
       st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
def test_field_kernel_against_independent_enumeration(seed, n, theta):
    # independent oracle: enumerate selection sets and tilted conditionals
    # directly on the (n, lam, edges) tuples
    inst = ora.random_instance(random.Random(seed), n)
    _, lam, edges = inst
    tilted = (n, [l * theta for l in lam], edges)
    size = 2 ** n
    want = np.zeros((size, size))
    for idx in range(size):
        sigma = index_to_config(idx, n)
        zeros = [v for v in range(n) if sigma[v] == 0]
        for tmask in range(2 ** len(zeros)):
            T = [zeros[i] for i in range(len(zeros)) if (tmask >> i) & 1]
            S = sorted([v for v in range(n) if sigma[v] == 1] + T)
            w = theta ** len(T) * (1 - theta) ** (len(zeros) - len(T))
            for tau, p in ora.block_row(*tilted, sigma, S).items():
                want[idx][config_to_index(tau)] += w * p
    got = field_kernel_matrix(to_system(inst), theta).entries
    assert np.abs(got - want).max() < 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 5))
def test_field_kernel_stationarity(seed, n):
    rng = random.Random(seed)
    inst = ora.random_instance(rng, n)
    system = to_system(inst)
    theta = rng.uniform(0.05, 1.0)
    P = field_kernel_matrix(system, theta)
    mu = gibbs_distribution(system)
    assert stationarity_residual(P, mu) <= constants.STATIONARITY_TOL


def test_field_kernel_capacity_and_domain():
    big = TwoSpinSystem.from_params(7, [1.0] * 7, [])
    with pytest.raises(CapacityError):
        field_kernel_matrix(big, 0.5)
    solo = TwoSpinSystem.from_params(1, [1.0], [])
    with pytest.raises(InputError):
        field_kernel_matrix(solo, 0.0)
    with pytest.raises(InputError):
        field_dynamics_step(solo, 1.2, ChainState((1,)), RandomSource(0))


# ---------------------------------------------------------------------------
# chains end to end

def test_schedule_step_chain_basics():
    inst = ora.random_instance(random.Random(83), 4)
    system = to_system(inst)
    sched = UpdateSchedule(kind="single-site-glauber")
    a = chain_states(system, sched, (1, 1, 1, 1), 500, seed=9)
    b = chain_states(system, sched, (1, 1, 1, 1), 500, seed=9)
    assert a == b and a[-1].step == 500
    c = chain_states(system, sched, (0, 0, 0, 0), 500, seed=10)
    assert c[-1].step == 500
    assert [s.step for s in c] == list(range(1, 501))


def test_schedule_step_occupation_matches_marginals():
    inst = ora.random_instance(random.Random(89), 5)
    system = to_system(inst)
    sched = UpdateSchedule(kind="single-site-glauber")
    steps = 2 * 10 ** 5
    counts = np.zeros(5, dtype=np.int64)
    state, rng = ChainState((1,) * 5), RandomSource(12)
    for _ in range(steps):
        state = schedule_step(system, sched, state, rng)
        counts += state.config
    mu = gibbs_distribution(system)
    idx = np.arange(2 ** 5)
    for v in range(5):
        exact = float(mu.probs[((idx >> v) & 1) == 1].sum())
        assert abs(counts[v] / steps - exact) <= 0.02


def test_coupling_time_trivia():
    solo = TwoSpinSystem.from_params(1, [0.9], [])
    sched = UpdateSchedule(kind="single-site-glauber")
    for seed in range(5):
        assert coupling_time(solo, sched, seed) == 1
    # double well: cap reached
    frozen = TwoSpinSystem.from_params(
        2, [math.exp(12), math.exp(12)], [(0, 1, 1.0, math.exp(24))])
    assert coupling_time(frozen, sched, 0, cap=30) is None


def test_coupling_time_edgeless_is_coupon_collector():
    n = 5
    system = TwoSpinSystem.from_params(n, [1.3] * n, [])
    sched = UpdateSchedule(kind="single-site-glauber")
    times = [coupling_time(system, sched, seed) for seed in range(400)]
    # independent-site chains merge exactly when every vertex has been hit
    rng = random.Random(1234)
    sim = []
    for _ in range(400):
        seen, t = set(), 0
        while len(seen) < n:
            seen.add(rng.randrange(n))
            t += 1
        sim.append(t)
    # coupon-collector mean for n=5 is ~11.4; compare empirically
    assert abs(np.mean(times) - np.mean(sim)) <= 1.5


def test_warm_start_check():
    inst = (4, [1.0, 1e-12, 1.0, 1.0], [(0, 1, 1.0, 2.0), (2, 3, 1.0, 1e6)])
    system = to_system(inst)
    ok, violations = warm_start_check(system, (1, 1, 1, 1))
    assert ok and violations == []
    ok, violations = warm_start_check(system, (1, 0, 1, 0))
    assert not ok
    assert ("vertex", 1) in violations          # 1e-12 <= 1/(100*4^5)
    assert ("edge", 2, 3) in violations         # 1e6 >= 100*4^5, endpoint 0
    ok3, v3 = warm_start_check(system, (1, 0, 1, 0), N=3)
    assert not ok3 and ("vertex", 1) in v3
    # parameters past float range are compared in log space
    huge_gamma = rbm_to_two_spin(RbmParams(1, 1, ((0, 800), (800, 0)), (0, 0)))
    assert warm_start_check(huge_gamma, (0, 1)) == (False, [("edge", 0, 1)])
    assert warm_start_check(huge_gamma, (1, 1)) == (True, [])
    huge_field = rbm_to_two_spin(RbmParams(1, 1, ((0, 0), (0, 0)), (-800, 800)))
    assert warm_start_check(huge_field, (0, 1)) == (True, [])
    assert warm_start_check(huge_field, (1, 0)) == (False, [("vertex", 1)])
    with pytest.raises(InputError):
        warm_start_check(system, (1, 1, 1, 1), N=0)


def test_trajectory_csv_deterministic():
    inst = ora.random_instance(random.Random(97), 4)
    system = to_system(inst)
    sched = UpdateSchedule(kind="single-site-glauber")
    a = trajectory_csv(system, sched, 200, seed=77)
    assert a == trajectory_csv(system, sched, 200, seed=77)
    lines = a.strip().split("\n")
    assert "# seed=77" in lines[0]
    assert lines[6] == "step,hamming_weight,coupled_flag"
    assert len(lines) == 7 + 200
    # the coupled flag is monotone 0 -> 1 and reaches 1 eventually
    flags = [int(row.split(",")[2]) for row in lines[7:]]
    assert flags[-1] == 1
    assert all(b >= a_ for a_, b in zip(flags, flags[1:]))


PATH5 = TwoSpinSystem.from_params(
    5, [0.7, 1.3, 0.9, 1.1, 0.6],
    [(0, 1, 1.2, 1.5), (1, 2, 0.8, 2.0), (2, 3, 1.0, 1.7), (3, 4, 1.4, 1.1)])
PATH5_SCHEDULES = [
    GLAUBER,
    UpdateSchedule(kind="heat-bath-block",
                   blocks=((0, 1, 2), (2, 3, 4), (0, 4))),
    UpdateSchedule(kind="systematic-scan-block",
                   blocks=((0, 1), (2,), (3, 4))),
    UpdateSchedule(kind="alternating-scan", blocks=((0, 2, 4), (1, 3))),
    censored(UpdateSchedule(kind="heat-bath-block",
                            blocks=((0, 1, 2), (2, 3, 4), (0, 4))), {0, 2, 3}),
    censored(GLAUBER, range(5)),
]


@pytest.mark.parametrize("sched", PATH5_SCHEDULES,
                         ids=lambda s: s.kind + ("+censor" if s.censor else ""))
def test_trajectory_upper_chain_is_the_schedule_step_chain(sched):
    steps = 300
    for seed in range(4):
        rows = trajectory_csv(PATH5, sched, steps, seed).strip().split("\n")[7:]
        chain = chain_states(PATH5, sched, (1,) * 5, steps, seed)
        assert [int(r.split(",")[1]) for r in rows] == [
            sum(s.config) for s in chain]
        flags = [int(r.split(",")[2]) for r in rows]
        first = flags.index(1) + 1 if 1 in flags else None
        assert first == coupling_time(PATH5, sched, seed, cap=steps)


def test_field_trajectory_is_the_schedule_step_chain():
    sched = UpdateSchedule(kind="field-dynamics", theta=0.4)
    rows = trajectory_csv(PATH5, sched, 200, 3).strip().split("\n")[7:]
    chain = chain_states(PATH5, sched, (1,) * 5, 200, 3)
    assert rows == [f"{t},{sum(s.config)}," for t, s in enumerate(chain, 1)]


def counting(monkeypatch, name):
    """Replace samplers.<name> by a wrapper that counts its calls."""
    calls = []
    inner = getattr(samplers, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)
    monkeypatch.setattr(samplers, name, wrapper)
    return calls


def test_each_run_compiles_and_tilts_once(monkeypatch):
    bipartitions = counting(monkeypatch, "check_bipartition")
    tilts = counting(monkeypatch, "tilt")
    scan = UpdateSchedule(kind="alternating-scan", blocks=((0, 2, 4), (1, 3)))
    trajectory_csv(PATH5, scan, 1000, seed=5)
    assert len(bipartitions) == 1
    coupling_time(PATH5, scan, seed=5)
    assert len(bipartitions) == 2
    field = UpdateSchedule(kind="field-dynamics", theta=0.5)
    trajectory_csv(PATH5, field, 1000, seed=5)
    assert len(tilts) == 1


def test_one_step_calls_compile_once_per_system_and_schedule(monkeypatch):
    compiles = counting(monkeypatch, "_compile")
    tilts = counting(monkeypatch, "tilt")
    fresh = TwoSpinSystem.from_params(  # PATH5, with its own kernel cache
        5, [0.7, 1.3, 0.9, 1.1, 0.6],
        [(0, 1, 1.2, 1.5), (1, 2, 0.8, 2.0), (2, 3, 1.0, 1.7),
         (3, 4, 1.4, 1.1)])
    schedules = PATH5_SCHEDULES[:4]
    states = [ChainState((1,) * 5)] * 4
    rngs = [RandomSource(seed) for seed in range(4)]
    for _ in range(150):  # the four schedules interleaved
        states = [schedule_step(fresh, sched, state, rng)
                  for sched, state, rng in zip(schedules, states, rngs)]
    assert len(compiles) == 4
    for seed, sched, state in zip(range(4), schedules, states):
        want = ora.chain_run(fresh, sched, ((1,) * 5,), seed)
        for _ in range(150):
            (last,) = next(want)
        assert state.config == last
    # an equal schedule hits the cache; a fifth one evicts the oldest
    schedule_step(fresh, UpdateSchedule(kind="single-site-glauber"),
                  states[0], rngs[0])
    assert len(compiles) == 4
    schedule_step(fresh, PATH5_SCHEDULES[4], states[0], rngs[0])
    schedule_step(fresh, GLAUBER, states[0], rngs[0])
    assert len(compiles) == 6
    assert len(fresh._sampler_kernels) == samplers._KERNELS_PER_SYSTEM
    # field dynamics tilts once; the coupled step reuses its kernel too
    state, rng = ChainState((1,) * 5), RandomSource(9)
    for _ in range(100):
        state = field_dynamics_step(fresh, 0.4, state, rng)
    assert len(compiles) == 7 and len(tilts) == 1
    pair = CoupledPair(ChainState((1,) * 5), ChainState((0,) * 5))
    src = RandomSource(11)
    want = ora.chain_run(fresh, schedules[1], ((1,) * 5, (0,) * 5), 11)
    for _ in range(200):
        pair = monotone_coupled_step(fresh, pair, schedules[1],
                                     src.uniforms(6))
        assert (pair.upper.config, pair.lower.config) == next(want)
    assert len(compiles) == 8


def _state(gen):
    """A generator's bit-generator state with its arrays as lists."""
    def plain(d):
        return {k: plain(v) if isinstance(v, dict) else
                v.tolist() if isinstance(v, np.ndarray) else v
                for k, v in d.items()}
    return plain(gen.bit_generator.state)


def test_random_source_keys_its_philox_through_the_state():
    # any split of the draws, flat or step-major, is the stream of
    # np.random.Philox(key=seed), and the harness keys its instance
    # generator through the same constructor
    for seed in (0, 1, 2 ** 64 + 5, 2 ** 128 - 1):
        src = RandomSource(seed)
        got = np.concatenate([src.uniforms(5), src.steps(7, 11).ravel(),
                              src.uniforms(0), src.steps(0, 4).ravel(),
                              src.uniforms(300), src.steps(1, 3).ravel(),
                              src.steps(100, 21).ravel(), src.uniforms(20000),
                              src.steps(20000, 1).ravel(), src.uniforms(9)])
        reference = np.random.Generator(np.random.Philox(key=seed))
        assert _state(harness._rng(seed)) == _state(reference)
        want = reference.random(got.size)
        assert np.array_equal(got, want)
        assert src.position == got.size
    outside = r"seed must lie in \[0, 2\^128\)"
    for seed in (-1, 2 ** 128):
        with pytest.raises(InputError, match=outside):
            RandomSource(seed)
        with pytest.raises(InputError, match=outside):
            harness._rng(seed)


def test_field_dynamics_takes_no_censor_and_no_coupling():
    with pytest.raises(InputError):
        UpdateSchedule(kind="field-dynamics", theta=0.5, censor={0})
    with pytest.raises(InputError):
        coupling_time(PATH5, UpdateSchedule(kind="field-dynamics", theta=0.5),
                      seed=0)


# ---------------------------------------------------------------------------
# the compiled kernel against the reference chain of tests/_oracles.py

def test_random_source_hands_out_one_stream():
    # any split of the draws into flat and step-major ones is one Philox draw
    sizes = [1, 5, 0, 127, 300, 7, 9000, 2, 20000, 64]
    src = RandomSource(2024)
    got = np.concatenate([src.uniforms(k) if i % 2 else
                          src.steps(k, 1).ravel() for i, k in enumerate(sizes)])
    want = np.random.Generator(np.random.Philox(key=2024)).random(sum(sizes))
    assert np.array_equal(got, want)
    assert src.position == sum(sizes)
    with pytest.raises(InputError):
        src.uniforms(-1)


def _bipartite_instance(rng, n):
    """A random tree (bipartite by depth parity) plus chords between the
    parity classes; returns the instance and its two parts."""
    parent = {v: rng.randrange(v) for v in range(1, n)}
    depth = {0: 0}
    for v in range(1, n):
        depth[v] = depth[parent[v]] + 1
    parts = tuple(tuple(v for v in range(n) if depth[v] % 2 == side)
                  for side in (0, 1))
    pairs = {(parent[v], v) for v in range(1, n)}
    for u in parts[0]:
        for w in parts[1]:
            if rng.random() < 0.2:
                pairs.add((min(u, w), max(u, w)))
    edges = ora.random_ferro_params(rng, sorted(pairs))
    lam = [rng.uniform(1e-3, 1.5) for _ in range(n)]
    return (n, lam, edges), parts


def _random_blocks(rng, n):
    blocks = [tuple(sorted(rng.sample(range(n), rng.randint(1, min(4, n)))))
              for _ in range(rng.randint(1, 4))]
    covered = set().union(*blocks)
    blocks += [(v,) for v in range(n) if v not in covered]
    rng.shuffle(blocks)
    return tuple(blocks)


BLOCK_KINDS = ("single-site-glauber", "heat-bath-block",
               "systematic-scan-block", "alternating-scan")


def _reference_case(case):
    """Seeded (system, schedule, cap): every block kind, censored or not,
    n 2-12, some stars (centre degree above the memo bound)."""
    rng = random.Random(7100 + case)
    n = rng.randint(2, 12)
    kind = BLOCK_KINDS[case % 4]
    if kind == "alternating-scan":
        inst, blocks = _bipartite_instance(rng, n)
    elif case % 6 == 2:
        n = max(n, 10)
        inst = (n, [rng.uniform(0.2, 1.5) for _ in range(n)],
                ora.random_ferro_params(rng, [(0, v) for v in range(1, n)]))
        blocks = None if kind == "single-site-glauber" else _random_blocks(
            rng, n)
    else:
        inst = ora.random_instance(rng, n, p=rng.uniform(0.1, 0.8))
        blocks = None if kind == "single-site-glauber" else _random_blocks(
            rng, n)
    censor = (frozenset(rng.sample(range(n), rng.randint(0, n)))
              if case % 8 >= 4 else None)
    sched = UpdateSchedule(kind=kind, blocks=blocks, censor=censor)
    return to_system(inst), sched, rng.choice((3, 12, 60)), rng


def _wide_reference_case(case):
    """Seeded cases past int64 bitmasks (n 63-70): the alternating scan on
    a tree plus chords, where some vertices exceed the memo degree; Glauber
    and a block heat bath with dependent blocks on a sparse graph with a hub
    of degree 12; one of them censored."""
    rng = random.Random(7200 + case)
    n = rng.randint(63, 70)
    if case % 3 == 0:
        inst, blocks = _bipartite_instance(rng, n)
        sched = UpdateSchedule(kind="alternating-scan", blocks=blocks)
    else:
        pairs = {(rng.randrange(v), v) for v in range(1, n)}
        pairs |= {(0, v) for v in rng.sample(range(1, n), 12)}
        inst = (n, [rng.uniform(0.05, 1.5) for _ in range(n)],
                ora.random_ferro_params(rng, sorted(pairs)))
        sched = (GLAUBER if case % 3 == 1 else UpdateSchedule(
            kind="heat-bath-block", blocks=_random_blocks(rng, n)))
    if case == 2:
        sched = censored(sched, rng.sample(range(n), n // 2))
    return to_system(inst), sched, (2, 400, 60)[case], rng


def test_coupling_times_match_the_reference_chain():
    # 64 seeds per case run in lockstep; caps censor some of them
    seen, routes = set(), set()
    merged = censored_runs = mixed = 0
    cases = [_reference_case(case) for case in range(48)]
    cases += [_wide_reference_case(case) for case in range(3)]
    for case, (system, sched, cap, rng) in enumerate(cases):
        seeds = [rng.randrange(2 ** 40) for _ in range(64)]
        want = [ora.chain_coupling_time(system, sched, s, cap) for s in seeds]
        assert coupling_times(system, sched, seeds, cap) == want, case
        assert coupling_time(system, sched, seeds[0], cap) == want[0]
        seen.add((sched.kind, sched.censor is not None))
        kernel = samplers._compile(system, sched)
        if not all(independent for _, independent in kernel.blocks):
            routes.add("dependent block")
        if any(len(system.adjacency[v]) > samplers._MEMO_MAX_DEGREE
               for block, _ in kernel.blocks for v in block):
            routes.add("above the memo degree")
        if system.n > 64:
            routes.add("past bit 63")
        merged += sum(t is not None for t in want)
        censored_runs += want.count(None)
        mixed += 0 < want.count(None) < len(want)
    assert seen == {(k, c) for k in BLOCK_KINDS for c in (False, True)}
    assert routes == {"dependent block", "above the memo degree",
                      "past bit 63"}
    assert merged >= 600 and censored_runs >= 600 and mixed >= 8


def test_chains_match_the_reference_chain_step_by_step():
    # both configurations of the pair after every step, and the one chain of
    # field dynamics, bit for bit
    for case in range(48):
        system, sched, _, rng = _reference_case(case)
        n = system.n
        starts = ((1,) * n, (0,) * n)
        if case % 4 == 3:
            sched = UpdateSchedule(kind="field-dynamics",
                                   theta=rng.uniform(0.05, 1.0))
            starts = starts[:1]
        seed = rng.randrange(2 ** 40)
        kernel = samplers._compile(system, sched)
        got = samplers._run(kernel, tuple(config_to_index(c) for c in starts),
                            RandomSource(seed), 80)
        want = ora.chain_run(system, sched, starts, seed)
        for t, configs, ref in zip(range(80), got, want):
            assert configs == tuple(config_to_index(c) for c in ref), (
                case, t)


def test_trajectories_match_the_reference_chain():
    # upper chain and coupled flag of every kind, field dynamics included
    for case in range(16):
        system, sched, _, rng = _reference_case(case)
        if case % 4 == 3:
            sched = UpdateSchedule(kind="field-dynamics",
                                   theta=rng.uniform(0.05, 1.0))
        n, seed = system.n, rng.randrange(2 ** 40)
        coupled = sched.kind != "field-dynamics"
        starts = ((1,) * n, (0,) * n) if coupled else ((1,) * n,)
        rows = trajectory_csv(system, sched, 60, seed).split("\n")[7:-1]
        ref = ora.chain_run(system, sched, starts, seed)
        want = [f"{t},{sum(configs[0])},"
                + (str(int(configs[0] == configs[1])) if coupled else "")
                for t, configs in zip(range(1, 61), ref)]
        assert rows == want, case


def test_block_table_conditionals_match_the_oracle():
    rng = random.Random(7300)
    for trial in range(300):
        n = rng.randint(2, 14)
        system = to_system(ora.random_instance(rng, n,
                                               p=rng.uniform(0.2, 1.0)))
        block = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        config = tuple(rng.randint(0, 1) for _ in range(n))
        for k, (v, got) in enumerate(_walk_block_table(system, config, block)):
            want = ora.chain_marginalized_conditional(system, config, v,
                                                      block[k + 1:])
            assert got == pytest.approx(want, abs=1e-14), (trial, block, k)


def test_a_block_above_the_enumeration_limit_raises_before_any_table(
        monkeypatch):
    m = constants.BLOCK_ENUM_LIMIT + 1
    path = TwoSpinSystem.from_params(
        m, [1.0] * m, [(v, v + 1, 0.9, 1.5) for v in range(m - 1)])

    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(samplers._Kernel, "block_table", no_table)
    message = (f"conditional enumeration over {m} vertices exceeds "
               f"{constants.BLOCK_ENUM_LIMIT}")
    with pytest.raises(CapacityError, match=message):
        schedule_step(path, UpdateSchedule(kind="heat-bath-block",
                                           blocks=(tuple(range(m)),)),
                      ChainState((1,) * m), RandomSource(0))
    # from all-ones, field dynamics resamples every vertex
    with pytest.raises(CapacityError, match=message):
        field_dynamics_step(path, 0.5, ChainState((1,) * m), RandomSource(0))


def test_coupling_times_raise_on_an_order_violation():
    # beta = gamma = 0.1 is antiferromagnetic: the pair leaves the order
    anti = TwoSpinSystem.from_params(3, [1.0] * 3,
                                     [(0, 1, 0.1, 0.1), (1, 2, 0.1, 0.1)])
    for sched in (GLAUBER,
                  UpdateSchedule(kind="heat-bath-block",
                                 blocks=((0, 1), (2,))),
                  UpdateSchedule(kind="alternating-scan",
                                 blocks=((0, 2), (1,)))):
        with pytest.raises(AssertionError, match="order violated"):
            ora.chain_coupling_time(anti, sched, 0, 50)
        with pytest.raises(CouplingInvariantError, match="order violated"):
            coupling_times(anti, sched, [0, 1], cap=50)


def _order_break(system, sched, seed, cap):
    """(step, message) at which one seed's pair, run alone by `_run`,
    leaves the order, or None if it merges or reaches `cap` first."""
    top = (1 << system.n) - 1
    chains = samplers._run(samplers._compile(system, sched), (top, 0),
                           RandomSource(seed), steps=cap)
    t = 0
    try:
        for t, (up, low) in zip(range(1, cap + 1), chains):
            if up == low:
                return None
    except CouplingInvariantError as err:
        return t + 1, str(err)
    return None


@pytest.mark.parametrize("rows", [samplers._LOCKSTEP_ROWS, 3])
def test_an_antiferromagnetic_batch_raises_for_its_first_breaking_seed(
        monkeypatch, rows):
    # seeds one after another raise for the first seed that breaks the
    # order, even when a later seed breaks it at an earlier step, in
    # another block; so must the lockstep batch, in one batch or several
    monkeypatch.setattr(samplers, "_LOCKSTEP_ROWS", rows)
    anti = TwoSpinSystem.from_params(
        6, [1.0, 0.8, 1.2, 1.0, 0.9, 1.1],
        [(v, v + 1, 0.7, 0.8) for v in range(5)] + [(0, 5, 0.7, 0.8)])
    overtaken = 0
    for sched in (GLAUBER,
                  UpdateSchedule(kind="heat-bath-block",
                                 blocks=((0, 1), (2, 3, 4), (5,))),
                  UpdateSchedule(kind="alternating-scan",
                                 blocks=((0, 2, 4), (1, 3, 5)))):
        breaks = {seed: _order_break(anti, sched, seed, 50)
                  for seed in range(40)}
        broken = [seed for seed in breaks if breaks[seed]]
        first, second = next(
            ((a, b) for a in broken for b in broken
             if breaks[b][0] < breaks[a][0] and breaks[b][1] != breaks[a][1]),
            broken[:2])
        overtaken += breaks[second][0] < breaks[first][0]
        seeds = [s for s in breaks if breaks[s] is None][:4] + [first, second]
        with pytest.raises(CouplingInvariantError) as err:
            coupling_times(anti, sched, seeds, cap=50)
        assert str(err.value) == breaks[first][1]
        assert str(err.value).startswith(
            "order violated after updating block (")
    assert overtaken == 2


def test_numpy_spins_past_bit_63_convert_exactly():
    # numpy ints shift in 64 bits; the chain's bitmasks must not
    n = 70
    path = to_system((n, [1.0] * n, [(v, v + 1, 1.0, 2.0)
                                     for v in range(n - 1)]))
    spins = np.ones(n, dtype=np.int64)
    spins[3] = 0
    plain = ChainState(tuple(int(s) for s in spins))
    assert config_to_index(tuple(spins)) == config_to_index(plain.config)
    for step in range(5):
        a = schedule_step(path, GLAUBER, ChainState(tuple(spins), step),
                          RandomSource(step))
        b = schedule_step(path, GLAUBER, ChainState(plain.config, step),
                          RandomSource(step))
        assert a == b


def test_site_memo_stays_bounded():
    # a star: the centre's 2^11 neighbour patterns exceed the memo bound and
    # are computed on every lookup, so its memo stays empty; each leaf
    # memoises at most 2 patterns
    n = 12
    star = TwoSpinSystem.from_params(
        n, [0.9] * n, [(0, v, 0.9, 1.6) for v in range(1, n)])
    kernel = samplers._compile(star, GLAUBER)
    for _ in samplers._run(kernel, ((1 << n) - 1, 0), RandomSource(5), 20000):
        pass
    assert len(kernel.sites[0][1]) == 0
    for v in range(1, n):
        table = kernel.sites[v][1]
        assert isinstance(table, samplers._Memo) and 1 <= len(table) <= 2


def _route_calls(monkeypatch):
    """Counts of the `_lockstep`, `_run` and `_Kernel.update` calls made
    from here on."""
    calls = dict.fromkeys(("_lockstep", "_run", "update"), 0)

    def spy(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    for name in ("_lockstep", "_run"):
        monkeypatch.setattr(samplers, name, spy(name, getattr(samplers, name)))
    monkeypatch.setattr(samplers._Kernel, "update",
                        spy("update", samplers._Kernel.update))
    return calls


def _tour_graph(rng, family, n):
    """Edges of a mixing-tour-style graph: path, cycle, random tree or a
    connected G(n, 2.5/(n-1))."""
    if family == "path":
        return [(v, v + 1) for v in range(n - 1)]
    if family == "cycle":
        return [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)]
    if family == "tree":
        return [(rng.randrange(v), v) for v in range(1, n)]
    return harness.random_connected_graph(
        np.random.default_rng(rng.randrange(2 ** 32)), n, 2.5 / (n - 1))


def test_coupling_times_take_the_lockstep_only_where_every_block_vectorises(
        monkeypatch):
    rng = random.Random(1606)
    seeds = [rng.randrange(2 ** 40) for _ in range(6)]
    tours = []
    for family in ("path", "cycle", "tree", "gnp"):
        for n in (8, 9, 10):
            tours.append(to_system((n, [rng.uniform(0.8, 1.2)] * n,
                                    ora.random_ferro_params(
                                        rng, _tour_graph(rng, family, n)))))
    path = to_system((6, [0.9] * 6, ora.random_ferro_params(
        rng, [(v, v + 1) for v in range(5)])))
    star = to_system((10, [0.9] * 10, ora.random_ferro_params(
        rng, [(0, v) for v in range(1, 10)])))
    routes = [(system, GLAUBER, "_lockstep") for system in tours]
    routes += [(path, UpdateSchedule(kind="heat-bath-block",
                                     blocks=((0, 1), (2,), (3, 5), (4,))),
                "_run"),
               (star, GLAUBER, "_run")]
    for system, sched, route in routes:
        want = [ora.chain_coupling_time(system, sched, s, 300) for s in seeds]
        calls = _route_calls(monkeypatch)
        assert coupling_times(system, sched, seeds, 300) == want
        assert calls["_lockstep"] == (route == "_lockstep")
        assert calls["_run"] == (len(seeds) if route == "_run" else 0)
        if route == "_lockstep":
            assert calls["update"] == 0
        # every source of a batch is built before its first step
        calls.update(dict.fromkeys(calls, 0))
        with pytest.raises(InputError, match="seed must lie"):
            coupling_times(system, sched, seeds + [2 ** 128], 300)
        assert calls == dict.fromkeys(calls, 0)
        monkeypatch.undo()


def test_both_sampler_routes_read_one_site_table(monkeypatch):
    # the lockstep's dense table copies each entry from the kernel's memo,
    # so no (vertex, neighbour pattern) is computed twice across the routes
    system, _ = harness.random_tree_instance(harness._rng(2020), 8)
    kernel = samplers._compile(system, GLAUBER)
    vertex = {id(kernel.sites[v][1].terms): v for v in range(system.n)}
    computed = {}
    real = samplers._site_p1

    def counted(log_ratio, terms, pattern):
        key = (vertex[id(terms)], pattern)
        computed[key] = computed.get(key, 0) + 1
        return real(log_ratio, terms, pattern)

    monkeypatch.setattr(samplers, "_site_p1", counted)
    lanes = samplers._Lanes(kernel)
    samplers._lockstep(kernel, lanes, [RandomSource(s) for s in range(16)],
                       constants.MIXING_STEP_CAP)
    top = (1 << system.n) - 1
    for _ in samplers._run(kernel, (top, 0), RandomSource(99), 200):
        pass
    assert computed and max(computed.values()) == 1
    read = np.flatnonzero(~np.isnan(lanes.p1[:-1])).tolist()
    assert read
    for e in read:
        v = int(lanes.owner[e])
        c = e - int(lanes.start[v])
        memo = kernel.sites[v][1]
        pattern = sum([1 << int(w) for i, w in enumerate(lanes.nbrs[v])
                       if c >> i & 1])
        assert memo.get(pattern) == lanes.p1[e]


def test_random_source_refuses_a_negative_step_count():
    source = RandomSource(0)
    with pytest.raises(InputError, match="count=-1 x width=3"):
        source.steps(-1, 3)
    assert source.position == 0


def test_trajectory_csv_refuses_a_negative_step_count():
    system, _ = harness.random_tree_instance(harness._rng(1), 4)
    with pytest.raises(InputError, match="steps must be at least 0, got -5"):
        trajectory_csv(system, GLAUBER, -5, 0)


# ---------------------------------------------------------------------------
# integer arguments: checked, not truncated

@pytest.mark.parametrize("seed", [1.5, True, math.nan, "1"])
def test_random_source_refuses_a_seed_that_is_not_an_integer(seed):
    # RandomSource(1.5) used to stream seed 1
    with pytest.raises(InputError, match=f"seed must be an integer, got {seed!r}"):
        RandomSource(seed)


@pytest.mark.parametrize("draw, fragment", [
    (lambda source: source.uniforms(2.5),
     "uniform count must be an integer, got 2.5"),
    (lambda source: source.steps(2.5, 3),
     "step count must be an integer, got 2.5"),
], ids=["uniforms", "steps"])
def test_random_source_refuses_a_fractional_draw(draw, fragment):
    # uniforms(2.5) used to draw 2
    source = RandomSource(0)
    with pytest.raises(InputError, match=fragment):
        draw(source)
    assert source.position == 0
    # numpy integers are integers
    source = RandomSource(np.uint64(3))
    assert source.seed == 3 and type(source.seed) is int
    want = RandomSource(3).uniforms(10)
    assert np.array_equal(source.uniforms(np.int64(4)), want[:4])
    assert np.array_equal(source.steps(np.int32(2), np.int8(3)),
                          want[4:].reshape(2, 3))


@pytest.mark.parametrize("steps, seed, fragment", [
    (5, 2.7, "seed must be an integer, got 2.7"),
    (2.5, 0, "steps must be an integer, got 2.5"),
], ids=["seed", "steps"])
def test_trajectory_csv_refuses_fractional_arguments(steps, seed, fragment):
    # seed 2.7 used to write "# seed=2.7" over the stream of seed 2
    system, _ = harness.random_tree_instance(harness._rng(1), 4)
    with pytest.raises(InputError, match=fragment):
        trajectory_csv(system, GLAUBER, steps, seed)


@pytest.mark.parametrize("seeds, cap, fragment", [
    ([2.7], 100, "seed must be an integer, got 2.7"),
    ([True], 100, "seed must be an integer, got True"),
    ([1], 2.5, "cap must be an integer, got 2.5"),
], ids=["fractional-seed", "bool-seed", "cap"])
def test_coupling_times_refuses_fractional_arguments(seeds, cap, fragment):
    # [2.7] used to answer for seed 2, and [True] for seed 1
    system, _ = harness.random_tree_instance(harness._rng(1), 4)
    with pytest.raises(InputError, match=fragment):
        coupling_times(system, GLAUBER, seeds, cap)
    assert (coupling_times(system, GLAUBER, [np.int64(2)], np.int64(100))
            == coupling_times(system, GLAUBER, [2], 100))


# ---------------------------------------------------------------------------
# error branches

@pytest.mark.parametrize("call, fragment", [
    (lambda s: CoupledPair(upper=ChainState((1, 1)), lower=ChainState((0,))),
     "coupled chains must share a vertex set"),
    (lambda s: schedule_step(
        s, UpdateSchedule(kind="heat-bath-block", blocks=((0, 9),)),
        ChainState((1, 1, 1, 1)), RandomSource(0)),
     "block vertex 9 out of range"),
    (lambda s: schedule_step(s, GLAUBER, ChainState((1, 1, 1)),
                             RandomSource(0)), "state size mismatch"),
], ids=["pair-size", "block-vertex-range",
        "step-state-size"])
def test_sampler_error_branches(call, fragment):
    system, _ = harness.random_tree_instance(harness._rng(1), 4)
    with pytest.raises(InputError, match=fragment):
        call(system)
