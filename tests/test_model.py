import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ferrospin.errors import InputError, NumericError
from ferrospin.exact import (censored_glauber_matrix, conditional_marginal,
                             field_kernel_matrix, gibbs_distribution,
                             log_weights)
from ferrospin.harness import (ExperimentConfig, coupling_failure_fraction,
                               instance_family, random_ferro_instance,
                               random_tree_instance, run_suite, wilson_upper)
from ferrospin.model import (
    ParamClass,
    Pinning,
    RbmParams,
    TwoSpinSystem,
    apply_pinning,
    config_to_index,
    index_to_config,
    induced_subsystem,
    instance_dict,
    instance_hash,
    lambda0,
    lambda_c,
    load_instance,
    load_rbm,
    rbm_to_two_spin,
    surviving_vertices,
    tilt,
)
from ferrospin.regions import RegionParams, construct_region
from ferrospin.samplers import ChainState, UpdateSchedule, trajectory_csv
from ferrospin.sawtree import saw_marginal

import _oracles as oracle


def make(n, lam, edges):
    return TwoSpinSystem.from_params(n, lam, edges)


def log_weight(system, sigma):
    """sigma's log weight, read from the library's table `exact.log_weights`."""
    logw, shift = log_weights(system)
    return float(logw[config_to_index(sigma)]) + shift


def weight(system, sigma):
    return math.exp(log_weight(system, sigma))


def gibbs_prob(system, sigma):
    return float(gibbs_distribution(system).probs[config_to_index(sigma)])


# ---------------------------------------------------------------------------
# construction and validation

def test_edges_canonicalized():
    s = make(3, [1.0, 1.0, 1.0], [(2, 0, 0.5, 3.0), (1, 0, 1.0, 2.0)])
    assert s.edges == ((0, 1), (0, 2))
    assert math.exp(s.log_beta[1]) == pytest.approx(0.5, rel=1e-12)
    assert math.exp(s.log_gamma[0]) == pytest.approx(2.0, rel=1e-12)


def test_rejects_self_loop_and_parallel():
    with pytest.raises(InputError):
        make(2, [1.0, 1.0], [(0, 0, 1.0, 2.0)])
    with pytest.raises(InputError):
        make(2, [1.0, 1.0], [(0, 1, 1.0, 2.0), (1, 0, 1.0, 2.0)])


def test_rejects_nonpositive_params():
    with pytest.raises(InputError):
        make(1, [0.0], [])
    with pytest.raises(InputError):
        make(2, [1.0, 1.0], [(0, 1, -1.0, 2.0)])


def test_adjacency_structure():
    s = make(4, [1.0] * 4, [(0, 1, 1.0, 2.0), (1, 2, 1.0, 2.0), (1, 3, 1.0, 2.0)])
    assert [w for w, _ in s.adjacency[1]] == [0, 2, 3]
    assert s.adjacency[3] == ((1, 2),)


# ---------------------------------------------------------------------------
# configurations and weights

@pytest.mark.parametrize("n", [1, 63, 64, 70])
def test_config_index_round_trip(n):
    rnd = __import__("random").Random(n)
    configs = [[0] * n, [1] * n] + [[rnd.randint(0, 1) for _ in range(n)]
                                    for _ in range(20)]
    for c in configs:
        idx = config_to_index(c)
        assert idx == sum(s << v for v, s in enumerate(c))
        assert index_to_config(idx, n) == tuple(c)
        spins = np.array(c, dtype=np.int64)
        assert config_to_index(spins) == idx
        assert config_to_index(list(spins)) == idx  # numpy int scalars
        assert index_to_config(config_to_index(spins), n) == tuple(c)


def test_weight_single_vertex():
    s = make(1, [0.5], [])
    assert weight(s, (0,)) == pytest.approx(0.5, rel=1e-12)
    assert weight(s, (1,)) == pytest.approx(1.0, rel=1e-12)


def test_weight_single_edge_four_configs():
    s = make(2, [1.0, 1.0], [(0, 1, 1.0, 2.0)])
    got = [weight(s, index_to_config(i, 2)) for i in range(4)]
    assert got == pytest.approx([1.0, 1.0, 1.0, 2.0], rel=1e-12)


def test_weight_triangle_all_ones():
    edges = [(0, 1, 1.0, 2.0), (0, 2, 1.0, 2.0), (1, 2, 1.0, 2.0)]
    s = make(3, [1.0] * 3, edges)
    assert weight(s, (1, 1, 1)) == pytest.approx(8.0, rel=1e-12)


@given(st.integers(0, 2**5 - 1), st.randoms(use_true_random=False))
def test_weight_matches_oracle(idx, rnd):
    n, lam, edges = oracle.random_instance(rnd, 5)
    s = make(n, lam, edges)
    sigma = index_to_config(idx, n)
    assert weight(s, sigma) == pytest.approx(
        oracle.weight(n, lam, edges, sigma), rel=1e-10)


def test_log_weight_no_overflow():
    # gamma = exp(800) overflows linear doubles; the log route must not.
    s = TwoSpinSystem(n=2, edges=((0, 1),), log_beta=(0.0,),
                      log_gamma=(800.0,), log_lambda=(0.0, 0.0))
    assert log_weight(s, (1, 1)) == pytest.approx(800.0)
    assert not math.isnan(log_weight(s, (0, 0)))


# ---------------------------------------------------------------------------
# pinning

def test_pinning_validation():
    with pytest.raises(InputError):
        Pinning({0: 2})
    p = Pinning({3: 1, 1: 0})
    assert p.items() == ((1, 0), (3, 1))
    assert p.domain == frozenset({1, 3})
    assert 3 in p and 0 not in p


def test_apply_pinning_single_edge():
    s = make(2, [1.0, 1.0], [(0, 1, 1.0, 2.0)])
    pinned = apply_pinning(s, Pinning({1: 1}))
    assert pinned.n == 1 and pinned.edges == ()
    assert math.exp(pinned.log_lambda[0]) == pytest.approx(0.5, rel=1e-12)
    # pin to 0 with beta = 1: field unchanged
    pinned0 = apply_pinning(s, Pinning({1: 0}))
    assert math.exp(pinned0.log_lambda[0]) == pytest.approx(1.0, rel=1e-12)


def test_apply_pinning_triangle_conditional_matches_bruteforce():
    edges = [(0, 1, 1.0, 2.0), (0, 2, 1.0, 2.0), (1, 2, 1.0, 2.0)]
    n, lam = 3, [1.0, 1.0, 1.0]
    s = make(n, lam, edges)
    pinned = apply_pinning(s, Pinning({2: 1}))
    assert math.exp(pinned.log_lambda[0]) == pytest.approx(0.5, rel=1e-12)
    assert math.exp(pinned.log_lambda[1]) == pytest.approx(0.5, rel=1e-12)
    # conditional distribution over (sigma_0, sigma_1) given sigma_2 = 1
    table, _ = oracle.gibbs(n, lam, edges)
    for s01 in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        cond = table[s01 + (1,)] / sum(
            table[t + (1,)] for t in [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert gibbs_prob(pinned, s01) == pytest.approx(cond, rel=1e-12)


def test_apply_pinning_composition():
    rnd = __import__("random").Random(7)
    n, lam, edges = oracle.random_instance(rnd, 6)
    s = make(n, lam, edges)
    p1, p2 = Pinning({0: 1, 3: 0}), Pinning({5: 1})
    once = apply_pinning(s, Pinning(p1.items() + p2.items()))
    twice_a = apply_pinning(s, p1)
    # renumber p2's vertex into twice_a's numbering
    surv = surviving_vertices(n, p1)
    twice = apply_pinning(twice_a, Pinning({surv.index(5): 1}))
    assert once.edges == twice.edges
    for v in range(once.n):
        assert math.exp(once.log_lambda[v]) == pytest.approx(
            math.exp(twice.log_lambda[v]), rel=1e-12)


def test_apply_pinning_out_of_range():
    s = make(2, [1.0, 1.0], [(0, 1, 1.0, 2.0)])
    with pytest.raises(InputError):
        apply_pinning(s, Pinning({5: 0}))


def test_induced_subsystem_keeps_internal_edges():
    edges = [(0, 1, 0.9, 2.0), (1, 2, 0.8, 3.0), (2, 3, 1.0, 2.5)]
    s = make(4, [1.0, 0.5, 0.7, 0.9], edges)
    sub, remap = induced_subsystem(s, [1, 2, 3])
    assert sub.n == 3
    assert sub.edges == ((0, 1), (1, 2))
    assert math.exp(sub.log_lambda[remap[2]]) == pytest.approx(0.7, rel=1e-12)


# ---------------------------------------------------------------------------
# tilt

def test_tilt_identity_and_scalar():
    s = make(1, [2.0], [])
    assert math.exp(tilt(s, 1.0).log_lambda[0]) == pytest.approx(2.0, rel=1e-12)
    assert math.exp(tilt(s, 0.25).log_lambda[0]) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(InputError):
        tilt(s, 0.0)
    with pytest.raises(InputError):
        tilt(s, 1.5)


@pytest.mark.parametrize("theta, value", [(np.float32(0.5), 0.5),
                                          (np.float64(0.25), 0.25),
                                          (np.int64(1), 1.0),
                                          (np.array(0.5), 0.5)])
def test_tilt_numpy_scalar_is_the_python_float(theta, value):
    s = make(3, [2.0, 0.5, 1.5], [(0, 1, 0.9, 2.0), (1, 2, 0.8, 3.0)])
    assert tilt(s, theta) == tilt(s, value)


def test_tilt_matches_reweighting():
    rnd = __import__("random").Random(3)
    n, lam, edges = oracle.random_instance(rnd, 4)
    s = make(n, lam, edges)
    theta = 0.3
    tilted = tilt(s, theta)
    base, _ = oracle.gibbs(n, lam, edges)
    rew = {c: p * theta ** sum(1 for x in c if x == 0) for c, p in base.items()}
    z = sum(rew.values())
    for c in rew:
        assert gibbs_prob(tilted, c) == pytest.approx(rew[c] / z, rel=1e-10)


# ---------------------------------------------------------------------------
# parameter classes

def test_thresholds_closed_form():
    pc = ParamClass(beta=1.0, gamma=4.0, lambda_bound=1.0)
    assert lambda0(pc) == pytest.approx(2.0, rel=1e-12)
    assert lambda_c(pc) == pytest.approx(16.0, rel=1e-12)


def test_param_class_validation():
    with pytest.raises(InputError):
        ParamClass(beta=1.2, gamma=2.0, lambda_bound=1.0)
    with pytest.raises(InputError):
        ParamClass(beta=0.5, gamma=1.0, lambda_bound=1.0)
    with pytest.raises(InputError):
        ParamClass(beta=0.5, gamma=1.5, lambda_bound=1.0)  # product < 1


def test_lambda_c_past_the_float_range_is_inf():
    # beta gamma just above 1 with beta < 1: the power passes 1.8e308
    assert lambda_c(ParamClass(0.5, 2.0001, 1.0)) == math.inf
    assert lambda_c(ParamClass(0.5, 2.1, 1.0)) < math.inf


@given(st.randoms(use_true_random=False))
def test_lambda_c_at_least_lambda0(rnd):
    beta = rnd.uniform(0.3, 1.0)
    gamma = rnd.uniform(1.0 / beta + 0.05, 6.0)
    pc = ParamClass(beta=beta, gamma=gamma, lambda_bound=1.0)
    assert lambda_c(pc) >= lambda0(pc) - 1e-12


# ---------------------------------------------------------------------------
# RBM

def test_rbm_validation():
    with pytest.raises(InputError):
        RbmParams(n0=1, n1=1, interaction=((0.0, 1.0), (2.0, 0.0)), theta=(0.0, 0.0))
    with pytest.raises(InputError):
        RbmParams(n0=1, n1=1, interaction=((1.0, 0.5), (0.5, 0.0)), theta=(0.0, 0.0))
    with pytest.raises(InputError):
        RbmParams(n0=2, n1=1,
                  interaction=((0.0, 0.7, 0.0), (0.7, 0.0, 0.0), (0.0, 0.0, 0.0)),
                  theta=(0.0, 0.0, 0.0))


def test_rbm_to_two_spin_single_pair():
    c = 1.3
    p = RbmParams(n0=1, n1=1, interaction=((0.0, c), (c, 0.0)), theta=(0.0, 0.0))
    s = rbm_to_two_spin(p)
    assert s.edges == ((0, 1),)
    assert math.exp(s.log_beta[0]) == pytest.approx(1.0, rel=1e-15)
    assert math.exp(s.log_gamma[0]) == pytest.approx(math.exp(c), rel=1e-15)
    assert math.exp(s.log_lambda[0]) == pytest.approx(1.0, rel=1e-15)


def test_rbm_zero_weight_no_edge():
    p = RbmParams(n0=1, n1=2,
                  interaction=((0.0, 0.0, 0.4), (0.0, 0.0, 0.0), (0.4, 0.0, 0.0)),
                  theta=(0.0, math.log(2.0), 0.0))
    s = rbm_to_two_spin(p)
    assert s.edges == ((0, 2),)
    assert math.exp(s.log_lambda[1]) == pytest.approx(0.5, rel=1e-12)


def test_energy_values():
    # the energies 0, 0.3 and 1.8 of (0,0), (1,0) and (1,1) are the log
    # weights of the reparameterized system, up to one constant
    p = RbmParams(n0=1, n1=1, interaction=((0.0, 1.5), (1.5, 0.0)), theta=(0.3, 0.0))
    s = rbm_to_two_spin(p)
    base = log_weight(s, (0, 0))
    assert log_weight(s, (1, 0)) - base == pytest.approx(0.3)
    assert log_weight(s, (1, 1)) - base == pytest.approx(1.8)


def test_weight_proportional_to_exp_energy():
    rnd = __import__("random").Random(11)
    n0, n1 = 2, 3
    n = n0 + n1
    w = [[0.0] * n for _ in range(n)]
    for u in range(n0):
        for v in range(n0, n):
            c = rnd.uniform(0.0, 2.0) if rnd.random() < 0.8 else 0.0
            w[u][v] = w[v][u] = c
    theta = tuple(rnd.uniform(-1.0, 1.0) for _ in range(n))
    p = RbmParams(n0=n0, n1=n1,
                  interaction=tuple(tuple(r) for r in w), theta=theta)
    s = rbm_to_two_spin(p)
    energy = oracle.rbm_log_weight_fn(w, theta)
    logw, _ = log_weights(s)
    ratios = [logw[i] - energy(index_to_config(i, n)) for i in range(2 ** n)]
    spread = max(ratios) - min(ratios)
    assert spread <= 1e-10


# ---------------------------------------------------------------------------
# file formats

def test_instance_roundtrip(tmp_path):
    doc = {"n": 3, "lambda": [1.0, 0.5, 0.25],
           "edges": [{"u": 0, "v": 1, "beta": 1.0, "gamma": 2.0},
                     {"u": 2, "v": 1, "beta": 0.9, "gamma": 3.0}]}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    s = load_instance(str(path))
    assert s.n == 3 and s.edges == ((0, 1), (1, 2))
    assert instance_hash(s) == instance_hash(load_instance(str(path)))


def test_instance_dict_round_trips_and_refuses_what_floats_cannot_hold(
        tmp_path):
    # a written instance_dict loads back as the system (each parameter
    # through exp and log, so to the last bits)
    rnd = np.random.default_rng(11)
    for trial in range(20):
        n = int(rnd.integers(1, 7))
        edges = [(u, v, float(rnd.uniform(0.2, 1.0)),
                  float(rnd.uniform(1.0, 40.0)))
                 for u in range(n) for v in range(u + 1, n)
                 if rnd.random() < 0.5]
        system = make(n, rnd.uniform(1e-3, 1e3, n).tolist(), edges)
        path = tmp_path / f"inst{trial}.json"
        path.write_text(json.dumps(instance_dict(system)))
        back = load_instance(str(path))
        assert (back.n, back.edges) == (system.n, system.edges)
        for name in ("log_lambda", "log_beta", "log_gamma"):
            assert getattr(back, name) == pytest.approx(
                getattr(system, name), rel=1e-15, abs=1e-15)
    # gamma = e^800 overflows a float and gamma = e^-800 underflows to 0,
    # which load_instance would refuse; so does lambda = e^-800
    for log_gamma in (800.0, -800.0):
        wide = TwoSpinSystem(n=2, edges=((0, 1),), log_beta=(0.0,),
                             log_gamma=(log_gamma,), log_lambda=(0.0, 0.0))
        with pytest.raises(NumericError,
                           match=rf"gamma of edge \(0,1\) has log value "
                                 rf"{log_gamma!r}"):
            instance_dict(wide)
    tiny = TwoSpinSystem(n=2, edges=(), log_beta=(), log_gamma=(),
                         log_lambda=(0.0, -800.0))
    with pytest.raises(NumericError, match="lambda of vertex 1 has log value"):
        instance_dict(tiny)


def test_instance_loader_reports_identity(tmp_path):
    doc = {"n": 2, "lambda": [1.0, 1.0],
           "edges": [{"u": 0, "v": 0, "beta": 1.0, "gamma": 2.0}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match=r"\(0,0\)"):
        load_instance(str(path))


def test_rbm_loader(tmp_path):
    doc = {"n0": 1, "n1": 1, "W": [[0.0, 0.7], [0.7, 0.0]], "theta": [0.0, 0.1]}
    path = tmp_path / "rbm.json"
    path.write_text(json.dumps(doc))
    p = load_rbm(str(path))
    assert p.n == 2 and p.interaction[0][1] == 0.7


@pytest.mark.parametrize("field, value", [
    ("n", 3.9), ("n", 3.0), ("n", True), ("n", "3"), ("u", 0.7),
    ("v", 1.2), ("u", False)])
def test_instance_loader_refuses_non_integer_indices(tmp_path, field, value):
    # int() would truncate "n": 3.9 to 3 and an edge (0.7, 1.2) to (0, 1)
    doc = {"n": 3, "lambda": [1.0, 0.5, 0.25],
           "edges": [{"u": 0, "v": 1, "beta": 1.0, "gamma": 2.0}]}
    (doc if field == "n" else doc["edges"][0])[field] = value
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    where = "" if field == "n" else "edge record 0 "
    with pytest.raises(InputError, match=rf'^{where}"{field}" must be a JSON '
                       rf'integer, got {re.escape(repr(value))}$'):
        load_instance(str(path))


@pytest.mark.parametrize("field, value", [
    ("n0", 1.5), ("n1", 1.0), ("n0", True), ("n1", "1")])
def test_rbm_loader_refuses_non_integer_counts(tmp_path, field, value):
    doc = {"n0": 1, "n1": 1, "W": [[0.0, 0.7], [0.7, 0.0]], "theta": [0.0, 0.1]}
    doc[field] = value
    path = tmp_path / "rbm.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match=rf'^"{field}" must be a JSON '
                       rf'integer, got {re.escape(repr(value))}$'):
        load_rbm(str(path))


def test_missing_file_is_input_error():
    with pytest.raises(InputError):
        load_instance("/nonexistent/path.json")


# ---------------------------------------------------------------------------
# error branches

def _system(n=2, edges=((0, 1),), log_beta=(0.0,), log_gamma=(0.5,)):
    return TwoSpinSystem(n=n, edges=edges, log_beta=log_beta,
                         log_gamma=log_gamma, log_lambda=(0.0,) * max(n, 0))


@pytest.mark.parametrize("call, fragment", [
    (lambda: _system(n=0, edges=(), log_beta=(), log_gamma=()),
     "vertex count must be >= 1, got 0"),
    (lambda: _system(log_beta=()), "edge arrays have mismatched lengths"),
    (lambda: _system(edges=((0, 2),)), r"edge 0 \(0,2\): vertex 2 out of range"),
    (lambda: _system(edges=((1, 0),)),
     r"edge 0 \(1,0\): not in canonical \(min,max\) order"),
    (lambda: _system(log_gamma=(math.inf,)), r"log_gamma\[0\] is not finite"),
    (lambda: tilt(_system(), [0.5]), "theta vector has 1 entries for n=2"),
    (lambda: induced_subsystem(_system(), [0, 2]),
     "vertex 2 out of range"),
], ids=["n", "edge-arrays", "edge-range", "edge-order", "edge-finite",
        "tilt-length", "induced-range"])
def test_model_error_branches(call, fragment):
    with pytest.raises(InputError, match=fragment):
        call()


@pytest.mark.parametrize("load, what", [(load_instance, "instance"),
                                        (load_rbm, "RBM")])
def test_loaders_refuse_a_file_that_is_not_json(tmp_path, load, what):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2,')
    with pytest.raises(InputError, match=f"{what} file .* is not valid JSON"):
        load(str(path))


# ---------------------------------------------------------------------------
# one integer rule: every layer reads a vertex, spin or count through
# model._integer

GLAUBER = UpdateSchedule("single-site-glauber")


def _path5():
    return instance_family("path", 5, 1.0, 2.0, 1.0)


@pytest.mark.parametrize("x", [True, np.True_, 1.0, 1.5, math.nan, -1, 5],
                         ids=["True", "np.True_", "1.0", "1.5", "nan", "-1",
                              "n"])
def test_every_layer_refuses_what_is_not_a_vertex_or_spin(x):
    s = _path5()
    with pytest.raises(InputError):
        censored_glauber_matrix(s, [x])
    with pytest.raises(InputError):
        trajectory_csv(s, UpdateSchedule("single-site-glauber", censor=[x]),
                       3, 0)
    with pytest.raises(InputError):
        Pinning({0: x})
    with pytest.raises(InputError):
        construct_region(s, x, RegionParams(d1=2, d2=4))
    if not (type(x) is int and x == s.n):
        with pytest.raises(InputError):
            Pinning({x: 0})
        return
    # a pinning knows no vertex count: vertex n is refused by every route
    # that applies it to a system of n vertices
    pin = Pinning({x: 0})
    for call in (lambda: apply_pinning(s, pin),
                 lambda: conditional_marginal(s, pin, 0),
                 lambda: saw_marginal(s, 0, pin)):
        with pytest.raises(InputError, match="vertex 5 out of range"):
            call()


def test_numpy_integer_pin_is_the_python_int_pin():
    s = random_ferro_instance(np.random.default_rng(3), 6)
    pin = Pinning({np.int64(1): 0, 4: np.int64(1)})
    same = Pinning({1: 0, 4: 1})
    assert pin == same and hash(pin) == hash(same)
    assert [type(x) for pair in pin.items() for x in pair] == [int] * 4
    assert conditional_marginal(s, pin, 2) == conditional_marginal(s, same, 2)
    assert saw_marginal(s, 2, pin) == saw_marginal(s, 2, same)
    assert apply_pinning(s, pin) == apply_pinning(s, same)


@pytest.mark.parametrize("call, fragment", [
    (lambda: conditional_marginal(_path5(), Pinning({1: 1.0}), 0),
     "pinned vertex 1: spin must be an integer, got 1.0"),
    (lambda: Pinning({True: 1}), "pinned vertex must be an integer, got True"),
    (lambda: coupling_failure_fraction(_path5(), GLAUBER, 5, 2.5),
     "trials must be an integer, got 2.5"),
    (lambda: coupling_failure_fraction(_path5(), GLAUBER, 5, True),
     "trials must be an integer, got True"),
    (lambda: coupling_failure_fraction(_path5(), GLAUBER, 5.0, 3),
     "step count must be an integer, got 5.0"),
    (lambda: instance_family("path", 2.5, 1.0, 2.0, 1.0),
     "vertex count must be an integer, got 2.5"),
    (lambda: random_tree_instance(np.random.default_rng(0), 3.0),
     "vertex count must be an integer, got 3.0"),
    (lambda: run_suite("potential", ExperimentConfig(trials=2.5)),
     "trials must be an integer, got 2.5"),
    (lambda: ExperimentConfig(max_n=6.0), "max_n must be an integer, got 6.0"),
    (lambda: TwoSpinSystem.from_params(True, [1.0], []),
     "vertex count must be an integer, got True"),
    (lambda: RbmParams(1, 1.0, ((0.0, 1.0), (1.0, 0.0)), (0.0, 0.0)),
     "n1 must be an integer, got 1.0"),
    (lambda: RegionParams(d1=True, d2=3), "d1 must be an integer, got True"),
    (lambda: RegionParams.from_n(100.5),
     "vertex count must be an integer, got 100.5"),
    (lambda: UpdateSchedule("heat-bath-block", blocks=[(1, True)]),
     "block vertex must be an integer, got True"),
    (lambda: UpdateSchedule("single-site-glauber", censor=[1.0]),
     "censored vertex must be an integer, got 1.0"),
    (lambda: wilson_upper(1, 2.5), "trials must be an integer, got 2.5"),
    (lambda: wilson_upper(True, 3),
     "failure count must be an integer, got True"),
    (lambda: ChainState((0, 1), 2.5), "step must be an integer, got 2.5"),
], ids=["pin-spin", "pin-vertex", "failure-trials", "failure-trials-bool",
        "failure-t", "family-n", "tree-n", "suite-trials", "config-max-n",
        "system-n", "rbm-n1", "region-d1", "region-from-n", "block-bool",
        "censor-float", "wilson-trials", "wilson-failures-bool",
        "chain-step"])
def test_integer_arguments_refused_with_their_name_and_value(call, fragment):
    with pytest.raises(InputError, match=fragment):
        call()


def test_numpy_scalar_theta_runs_every_field_route():
    s = _path5()
    assert (field_kernel_matrix(s, np.float32(0.5)).entries
            == field_kernel_matrix(s, 0.5).entries).all()
    rows = [trajectory_csv(s, UpdateSchedule("field-dynamics", theta=theta),
                           20, 4).splitlines()[6:]
            for theta in (np.float32(0.5), 0.5)]
    assert rows[0] == rows[1]
