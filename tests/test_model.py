import contextlib
import hashlib
import io
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from ferrospin.regions import (GoodBoundarySpec, Region, RegionParams,
                               construct_region, is_good_tree_boundary,
                               monotone_potential_slack, ratio_dominance_slack,
                               universal_pinning)
from ferrospin.samplers import (ChainState, UpdateSchedule, trajectory_csv,
                                warm_start_check)
from ferrospin.sawtree import (build_saw_tree, derive_potential, saw_marginal,
                               trivial_term_bound)

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
# derived systems, pinned byte for byte

_DERIVED_VALUES = (1e-300, 1e-5, 0.3, 1.0, 2.0, 1e5, 1e300)


def _derived_text() -> str:
    """The reprs of `apply_pinning`, `tilt` and `induced_subsystem` results
    and the bytes of `log_weights` (table and shift) on 420 seeded systems,
    n 1..11, every parameter drawn from `_DERIVED_VALUES`; an input error
    (a pinning of every vertex) enters as its message."""
    rng = random.Random(9201)
    out = []

    def record(make):
        try:
            out.append(repr(make()))
        except InputError as exc:
            out.append(f"InputError: {exc}")

    def table(system):
        logw, shift = log_weights(system)
        out.append(logw.tobytes().hex() + " " + repr(shift))

    for i in range(420):
        n = 1 + i % 11
        pairs = oracle.random_connected_graph(rng, n, rng.choice([0.2, 0.5, 1.0]))
        system = make(n, [rng.choice(_DERIVED_VALUES) for _ in range(n)],
                      [(u, v, rng.choice(_DERIVED_VALUES),
                        rng.choice(_DERIVED_VALUES)) for u, v in pairs])
        table(system)
        pin = Pinning({v: rng.randint(0, 1) for v in range(n)
                       if rng.random() < rng.choice([0.2, 0.5, 1.0])})
        record(lambda: apply_pinning(system, pin))
        if len(pin) < n:
            table(apply_pinning(system, pin))
        theta = rng.choice([1e-200, 0.3, 1.0])
        record(lambda: tilt(system, theta))
        table(tilt(system, theta))
        record(lambda: tilt(system, [rng.choice([1e-200, 0.3, 1.0])
                                     for _ in range(n)]))
        record(lambda: induced_subsystem(
            system, [v for v in range(n) if rng.random() < 0.6]))
    return "\n".join(out)


def test_derived_systems_are_pinned():
    """Recorded at commit 815de9d, before `apply_pinning` went through
    `induced_subsystem` and `log_weights` through `adjacency`."""
    digest = hashlib.sha256(_derived_text().encode()).hexdigest()
    assert digest == (
        "11d62cd45bb536f777df9b47db305219b1e1e164ff543db20d9d37e7f943035e")


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
    # no value of x is a spin
    with pytest.raises(InputError):
        ChainState((0, x, 1, 0, 1))
    with pytest.raises(InputError):
        warm_start_check(s, (0, x, 1, 0, 1))
    if not (type(x) is int and x == s.n):
        with pytest.raises(InputError):
            Pinning({x: 0})
        with pytest.raises(InputError):
            warm_start_check(s, (0, 1, 1, 0, 1), N=x)
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
    # a chain state keeps its spins as checked Python ints too
    state = ChainState((np.int64(1), 0))
    assert state == ChainState((1, 0)) and type(state.config[0]) is int


def _star3():
    """A star with centre 0 and leaves 1-3, and its walk tree from the centre
    with the leaves on the boundary: node i is a copy of leaf i."""
    return make(4, [1.0] * 4, [(0, leaf, 1.0, 2.0) for leaf in (1, 2, 3)])


def _star3_tree():
    return build_saw_tree(_star3(), 0, {1, 2, 3})


def _star3_spec(n):
    region = Region(center=0, members=frozenset({0}),
                    boundary=frozenset({1, 2, 3}), d1=1, d2=3)
    return GoodBoundarySpec.build(_star3(), region, n)


def _dominance(w, boundaries=((1, 1, 1),)):
    return ratio_dominance_slack(_star3_tree(), _star3(),
                                 np.array(boundaries),
                                 {1: math.inf, 2: math.inf, 3: math.inf}, w)


def _potential(w, boundaries=((1, 1, 1),)):
    return monotone_potential_slack(_star3_tree(), _star3(),
                                    ParamClass(1.0, 2.0, 1.0), w,
                                    np.array(boundaries),
                                    {1: math.inf, 2: math.inf, 3: math.inf})


def _term_bound(d):
    pc = ParamClass(1.0, 4.0, 1.0)
    return trivial_term_bound(0.5, d, derive_potential(pc), pc)


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
    (lambda: _star3_spec(2.5),
     "global vertex count must be an integer, got 2.5"),
    (lambda: _star3_spec(math.nan),
     "global vertex count must be an integer, got nan"),
    (lambda: universal_pinning(_star3_tree(), _star3(), 3, 2.5),
     "global vertex count must be an integer, got 2.5"),
    (lambda: universal_pinning(_star3_tree(), _star3(), 2.5, 21),
     "d2 must be an integer, got 2.5"),
    (lambda: is_good_tree_boundary(_star3_tree(), {1: 1, 2: 1, 3: 1}, 3, 2.5),
     "global vertex count must be an integer, got 2.5"),
    (lambda: is_good_tree_boundary(_star3_tree(), {1: 5, 2: 0, 3: 0}, 3, 21),
     "spin 5 out of range"),
    (lambda: is_good_tree_boundary(_star3_tree(), {1: True, 2: 0, 3: 0}, 3,
                                   21),
     "spin must be an integer, got True"),
    (lambda: is_good_tree_boundary(_star3_tree(), {1: 1.0, 2: 0, 3: 0}, 3,
                                   21),
     "spin must be an integer, got 1.0"),
    (lambda: is_good_tree_boundary(_star3_tree(), {1: -3, 2: 0, 3: 0}, 3, 21),
     "spin -3 out of range"),
    (lambda: _potential(-1), "tree node -1 out of range"),
    (lambda: _potential(True), "tree node must be an integer, got True"),
    (lambda: _potential(99), "tree node 99 out of range"),
    (lambda: _dominance(0), "node 0 is not a boundary copy leaf"),
    (lambda: _dominance(99), "tree node 99 out of range"),
    (lambda: _dominance(1, [[1, 1, 1.0]]),
     r"boundaries must be integers of shape \(count, 3\), got float64 "
     r"\(1, 3\)"),
    (lambda: _dominance(1, [[1, 2, 1]]), "boundary spin 2 out of range"),
    (lambda: _potential(1, [[True, True, True]]),
     r"boundaries must be integers of shape \(count, 3\), got bool"),
    (lambda: _potential(1, [1, 1, 1]),
     r"boundaries must be integers of shape \(count, 3\), got int\d+ "
     r"\(3,\)"),
    (lambda: Region(center=True, members=frozenset({1}),
                    boundary=frozenset({0, 2}), d1=1, d2=2),
     "centre vertex must be an integer, got True"),
    (lambda: Region(center=1, members=frozenset({1}),
                    boundary=frozenset({0, 2}), d1=1.5, d2=2),
     "d1 must be an integer, got 1.5"),
    (lambda: Region(center=1, members=frozenset({1}),
                    boundary=frozenset({0, 2}), d1=1, d2=2.5),
     "d2 must be an integer, got 2.5"),
    (lambda: is_good_tree_boundary(_star3_tree(), {1: 1, 2: 1, 3: 1}, True,
                                   21),
     "d2 must be an integer, got True"),
    (lambda: is_good_tree_boundary(_star3_tree(), {1: 1, 2: 1, 3: 1}, 2.5,
                                   21),
     "d2 must be an integer, got 2.5"),
    (lambda: is_good_tree_boundary(_star3_tree(), {1: 1, 2: 1, 3: 1}, -3,
                                   21),
     r"need 1 <= d1 <= d2"),
    (lambda: _term_bound(2.5), "arity must be an integer, got 2.5"),
    (lambda: _term_bound(True), "arity must be an integer, got True"),
], ids=["pin-spin", "pin-vertex", "failure-trials", "failure-trials-bool",
        "failure-t", "family-n", "tree-n", "suite-trials", "config-max-n",
        "system-n", "rbm-n1", "region-d1", "region-from-n", "block-bool",
        "censor-float", "wilson-trials", "wilson-failures-bool",
        "chain-step", "spec-n", "spec-n-nan", "universal-n", "universal-d2-float",
        "tree-boundary-n",
        "tree-spin-5", "tree-spin-bool", "tree-spin-float",
        "tree-spin-negative",
        "potential-w-negative", "potential-w-bool", "potential-w-past",
        "dominance-w-root", "dominance-w-past", "dominance-boundary-float",
        "dominance-boundary-2", "potential-boundary-bool",
        "potential-boundary-1d", "region-centre-bool", "region-d1-float",
        "region-d2-float", "tree-boundary-d2-bool", "tree-boundary-d2-float",
        "tree-boundary-d2-negative", "term-arity-float", "term-arity-bool"])
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


# ---------------------------------------------------------------------------
# one check at the boundary: the public route checks each outside value
# once, and derived systems are built without a second check

def _reference_from_params(n, lam, edges):
    """The per-edge loop that the one-pass check replaced, kept as the
    reference for the values, their order and the first message: canonical
    pairs sorted, each positive finite value logged, then the system checked
    edge by edge."""
    canon = []
    for u, v, beta, gamma in edges:
        a, b = (u, v) if u <= v else (v, u)
        for what, x in (("beta", beta), ("gamma", gamma)):
            if not (x > 0.0) or math.isinf(x):
                raise InputError(f"{what} of edge ({u},{v}) must be positive "
                                 f"and finite, got {x!r}")
        canon.append(((a, b), math.log(beta), math.log(gamma)))
    canon.sort(key=lambda item: item[0])
    log_lambda = []
    for i, x in enumerate(lam):
        if not (x > 0.0) or math.isinf(x):
            raise InputError(f"lambda of vertex {i} must be positive and "
                             f"finite, got {x!r}")
        log_lambda.append(math.log(x))
    if type(n) is bool or not isinstance(n, int):
        raise InputError(f"vertex count must be an integer, got {n!r}")
    if n < 1:
        raise InputError(f"vertex count must be >= 1, got {n}")
    if len(log_lambda) != n:
        raise InputError(f"lambda has {len(log_lambda)} entries for n={n}")
    seen = set()
    for i, ((u, v), _, _) in enumerate(canon):
        for x in (u, v):
            if not 0 <= x < n:
                raise InputError(f"edge {i} ({u},{v}): vertex {x} out of range")
        if u == v:
            raise InputError(f"edge {i} ({u},{v}): self-loop")
        if (u, v) in seen:
            raise InputError(f"edge {i} ({u},{v}): parallel edge")
        seen.add((u, v))
    return (n, tuple(pair for pair, _, _ in canon),
            tuple(lb for _, lb, _ in canon), tuple(lg for _, _, lg in canon),
            tuple(log_lambda))


def _fields(system):
    return (system.n, system.edges, system.log_beta, system.log_gamma,
            system.log_lambda)


def _bits(system):
    """Each entry of each field of `system` as (type, value), a float by its
    hex form, so that equal bits are asserted and not equal values."""
    def entry(x):
        return type(x).__name__, x.hex() if type(x) is float else x
    return ([entry(system.n)], [tuple(map(entry, e)) for e in system.edges],
            *[list(map(entry, field)) for field in _fields(system)[2:]])


_VALUES = st.sampled_from([0.5, 1.0, 2.5, 1e-300, 1e300, 0.0, -1.0,
                           math.inf, math.nan])


@settings(max_examples=300, deadline=None)
@given(st.integers(-1, 5), st.lists(_VALUES, max_size=6),
       st.lists(st.tuples(st.integers(-1, 5), st.integers(-1, 5), _VALUES,
                          _VALUES), max_size=8))
def test_from_params_matches_the_per_edge_loop(n, lam, edges):
    # every system the loop builds is built bit for bit, and every input it
    # refuses is refused with its first message
    try:
        expected = _reference_from_params(n, lam, edges)
    except InputError as exc:
        with pytest.raises(InputError) as caught:
            TwoSpinSystem.from_params(n, lam, edges)
        assert str(caught.value) == str(exc)
        return
    system = TwoSpinSystem.from_params(n, lam, edges)
    assert _fields(system) == expected
    assert _bits(system) == _bits(TwoSpinSystem(*expected))


@pytest.mark.parametrize("u, message", [
    (np.int64(1), None), (1.0, "edge 0 (0,1.0): vertex must be an integer, "
                               "got 1.0"),
    (True, "edge 0 (0,True): vertex must be an integer, got True"),
    (2 ** 70, f"edge 0 (0,{2 ** 70}): vertex {2 ** 70} out of range")])
def test_endpoints_that_are_no_python_int_take_the_per_edge_rule(u, message):
    # the screens pass only Python ints; a numpy integer is walked and kept,
    # anything else is named by the per-edge rule
    edges = [(0, u, 1.0, 2.0), (1, 2, 1.0, 2.0)]
    if message is None:
        system = TwoSpinSystem.from_params(3, [1.0] * 3, edges)
        assert system == make(3, [1.0] * 3, [(0, 1, 1.0, 2.0),
                                             (1, 2, 1.0, 2.0)])
        return
    for route in (lambda: TwoSpinSystem.from_params(3, [1.0] * 3, edges),
                  lambda: TwoSpinSystem(3, ((0, u), (1, 2)), (0.0, 0.0),
                                        (0.5, 0.5), (0.0,) * 3)):
        with pytest.raises(InputError) as caught:
            route()
        assert str(caught.value) == message


# (n, lambda, edges as (u, v, beta, gamma), the message every route gives)
MALFORMED_SYSTEMS = [
    (0, [], [], "vertex count must be >= 1, got 0"),
    (3, [1.0, 1.0], [], "lambda has 2 entries for n=3"),
    (3, [1.0] * 3, [(0, 1, 1.0, 2.0), (1, 3, 1.0, 2.0)],
     r"edge 1 (1,3): vertex 3 out of range"),
    (3, [1.0] * 3, [(-1, 1, 1.0, 2.0)], r"edge 0 (-1,1): vertex -1 out of range"),
    (3, [1.0] * 3, [(0, 1, 1.0, 2.0), (2, 2, 1.0, 2.0)],
     r"edge 1 (2,2): self-loop"),
    (3, [1.0] * 3, [(0, 1, 1.0, 2.0), (0, 1, 0.5, 3.0)],
     r"edge 1 (0,1): parallel edge"),
    # two bad edges: the first in edge order is named, whatever its fault
    (4, [1.0] * 4, [(0, 1, 1.0, 2.0), (1, 1, 1.0, 2.0), (2, 9, 1.0, 2.0)],
     r"edge 1 (1,1): self-loop"),
    (4, [1.0] * 4, [(0, 2, 1.0, 2.0), (0, 2, 1.0, 2.0), (1, 1, 1.0, 2.0)],
     r"edge 1 (0,2): parallel edge"),
    # a size fault comes before every edge fault
    (0, [], [(0, 0, 1.0, 2.0)], "vertex count must be >= 1, got 0"),
]


@pytest.mark.parametrize("n, lam, edges, message", MALFORMED_SYSTEMS)
def test_malformed_systems_get_one_message_on_every_route(tmp_path, n, lam,
                                                          edges, message):
    from ferrospin.cli import main
    routes = {
        "constructor": lambda: TwoSpinSystem(
            n=n, edges=tuple((u, v) for u, v, _, _ in edges),
            log_beta=tuple(math.log(b) for _, _, b, _ in edges),
            log_gamma=tuple(math.log(g) for _, _, _, g in edges),
            log_lambda=tuple(math.log(x) for x in lam)),
        "from_params": lambda: TwoSpinSystem.from_params(n, lam, edges),
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "n": n, "lambda": lam,
        "edges": [{"u": u, "v": v, "beta": b, "gamma": g}
                  for u, v, b, g in edges]}))
    routes["load_instance"] = lambda: load_instance(str(path))
    for name, route in routes.items():
        with pytest.raises(InputError) as caught:
            route()
        assert str(caught.value) == message, name
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["exact", "--instance", str(path)])
    assert (code, err.getvalue()) == (1, f"error: {message}\n")


@pytest.mark.parametrize("value", [0.0, -2.0, math.inf, math.nan])
@pytest.mark.parametrize("where", ["beta", "gamma", "lambda"])
def test_bad_values_name_their_edge_or_vertex_on_every_route(tmp_path, where,
                                                             value):
    # the second edge (2,1) and vertex 1 carry the value; the linear routes
    # name the edge as given
    lam = [1.0, value if where == "lambda" else 1.0, 1.0]
    edges = [(0, 1, 1.0, 2.0),
             (2, 1, value if where == "beta" else 1.0,
              value if where == "gamma" else 2.0)]
    label = "vertex 1" if where == "lambda" else "edge (2,1)"
    message = (f"{where} of {label} must be positive and finite, "
               f"got {value!r}")
    with pytest.raises(InputError) as caught:
        TwoSpinSystem.from_params(3, lam, edges)
    assert str(caught.value) == message
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "n": 3, "lambda": lam,
        "edges": [{"u": u, "v": v, "beta": b, "gamma": g}
                  for u, v, b, g in edges]}))
    with pytest.raises(InputError) as caught:
        load_instance(str(path))
    assert str(caught.value) == message


@pytest.mark.parametrize("doc, message", [
    ({"lambda": ["1.5", 1.0]}, r'"lambda"[0] must be a JSON number, got '
                               r"'1.5'"),
    ({"lambda": [1.0, True]}, r'"lambda"[1] must be a JSON number, got True'),
    ({"lambda": "12"}, r'"lambda"[0] must be a JSON number, got '
                       r"'1'"),
    ({"lambda": [1.0, None]}, r'"lambda"[1] must be a JSON number, got None'),
    ({"edges": [{"u": 0, "v": 1, "beta": "0.5", "gamma": 3.0}]},
     r'edge record 0 "beta" must be a JSON number, got '
     r"'0.5'"),
    ({"edges": [{"u": 0, "v": 1, "beta": 0.5, "gamma": 3.0},
                {"u": 0, "v": 2, "beta": 0.5, "gamma": False}]},
     r'edge record 1 "gamma" must be a JSON number, got False'),
    ({"edges": [{"u": 0, "v": 1, "beta": [0.5], "gamma": 3.0}]},
     r'edge record 0 "beta" must be a JSON number, got [0.5]'),
    # the first bad record is named, its fields read in order
    ({"edges": [{"u": 0, "v": 1, "beta": 1.0, "gamma": "3"},
                {"u": 0.5, "v": 1, "beta": 1.0, "gamma": 2.0}]},
     r'edge record 0 "gamma" must be a JSON number, got '
     r"'3'"),
    ({"edges": [{"u": 0, "v": 1, "beta": 1.0, "gamma": 2.0},
                {"u": 0, "v": 2, "beta": 1.0}]},
     r"edge record 1 malformed: 'gamma'"),
    ({"edges": [{"u": 0, "v": 1, "beta": 1.0, "gamma": 2.0}, [0, 2]]},
     "edge record 1 malformed: list indices must be integers or slices, "
     "not str"),
    ({"edges": [{"u": 0, "v": 1, "beta": 10 ** 400, "gamma": 2.0}]},
     "edge record 0 malformed: int too large to convert to float"),
    ({"lambda": 5}, "instance document malformed: 'int' object is not "
                    "iterable"),
])
def test_instance_loader_reads_numbers_by_the_json_number_rule(tmp_path, doc,
                                                               message):
    # a JSON string or bool is no number: float() would read "0.5" and True
    base = {"n": 3, "lambda": [1.0, 0.5, 0.25],
            "edges": [{"u": 0, "v": 1, "beta": 0.5, "gamma": 3.0}]}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(base, **doc)))
    with pytest.raises(InputError) as caught:
        load_instance(str(path))
    assert str(caught.value) == message


@pytest.mark.parametrize("doc, message", [
    ({"W": [[0.0, "0.5"], [0.5, 0.0]]},
     r'"W"[0][1] must be a JSON number, got '
     r"'0.5'"),
    ({"W": [[0.0, 0.5], [0.5, False]]},
     r'"W"[1][1] must be a JSON number, got False'),
    ({"theta": [True, 0.1]}, r'"theta"[0] must be a JSON number, got True'),
    ({"theta": [0.0, "0.1"]}, r'"theta"[1] must be a JSON number, got '
                              r"'0.1'"),
    ({"W": [[0.0, 0.5], 7]}, "RBM document malformed: 'int' object is not "
                             "iterable"),
])
def test_rbm_loader_reads_numbers_by_the_json_number_rule(tmp_path, doc,
                                                          message):
    base = {"n0": 1, "n1": 1, "W": [[0.0, 0.7], [0.7, 0.0]],
            "theta": [0.0, 0.1]}
    path = tmp_path / "rbm.json"
    path.write_text(json.dumps(dict(base, **doc)))
    with pytest.raises(InputError) as caught:
        load_rbm(str(path))
    assert str(caught.value) == message


def test_json_integers_load_as_the_floats_they_name(tmp_path):
    # a JSON integer is a number: 2 reads as 2.0, bit for bit
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "n": 2, "lambda": [1, 0.5],
        "edges": [{"u": 1, "v": 0, "beta": 1, "gamma": 3}]}))
    system = load_instance(str(path))
    assert _bits(system) == _bits(
        TwoSpinSystem.from_params(2, [1.0, 0.5], [(1, 0, 1.0, 3.0)]))


def test_derived_systems_are_their_public_construction():
    # a derived system skips the checks, so it must be exactly the system
    # the public constructor builds from its values: field by field, type by
    # type and bit for bit, with any adjacency it kept equal to a fresh one
    rng = random.Random(27)
    for i in range(60):
        n = 2 + i % 9
        pairs = oracle.random_connected_graph(rng, n, rng.choice([0.3, 0.7]))
        system = make(n, [rng.choice(_DERIVED_VALUES) for _ in range(n)],
                      [(v, u, rng.choice(_DERIVED_VALUES),
                        rng.choice(_DERIVED_VALUES)) for u, v in pairs])
        system.adjacency, system._neighbor_map  # cached, for tilt to keep
        pin = Pinning({v: rng.randint(0, 1) for v in range(n)
                       if rng.random() < 0.3 and v})
        theta = [rng.choice([1e-200, 0.3, 1.0]) for _ in range(n)]
        weights = [[0.0] * n for _ in range(n)]
        for u, v in pairs:
            if (u < n // 2) != (v < n // 2):
                weights[u][v] = weights[v][u] = rng.choice([-2.0, 0.5, 3.0])
        rbm = RbmParams(n // 2, n - n // 2, tuple(map(tuple, weights)),
                        tuple(rng.choice([-1.0, 0.0, 2.0]) for _ in range(n)))
        derived = [apply_pinning(system, pin), tilt(system, theta),
                   tilt(system, 0.5),
                   induced_subsystem(system, [v for v in range(n)
                                              if rng.random() < 0.6] or [0])[0],
                   rbm_to_two_spin(rbm)]
        # a tilt keeps its parent's graph, cached maps and all
        for tilted in derived[1:3]:
            assert tilted.adjacency is system.adjacency
            assert tilted._neighbor_map is system._neighbor_map
        for d in derived:
            public = TwoSpinSystem(*_fields(d))
            assert d == public and _bits(d) == _bits(public)
            assert d.adjacency == public.adjacency
            assert d._neighbor_map == public._neighbor_map
            assert d._sampler_kernels == {}


def test_derived_systems_keep_the_checks_of_their_new_values():
    s = make(3, [1.0, 1.0, 1.0], [(0, 1, 1.0, 2.0), (1, 2, 1.0, 2.0)])
    with pytest.raises(InputError, match="^vertex count must be >= 1, got 0$"):
        apply_pinning(s, Pinning({0: 0, 1: 1, 2: 0}))
    with pytest.raises(InputError, match="^vertex count must be >= 1, got 0$"):
        induced_subsystem(s, [])
    # a field that absorbs its pinned neighbours can overflow a float
    huge = TwoSpinSystem(n=3, edges=((0, 1), (1, 2)), log_beta=(1e308, 1e308),
                         log_gamma=(0.0, 0.0), log_lambda=(0.0, 1e308, 0.0))
    with pytest.raises(InputError, match=r"^log_lambda\[0\] is not finite$"):
        apply_pinning(huge, Pinning({0: 0, 2: 0}))
    with pytest.raises(InputError, match="theta of vertex 0 must lie in"):
        tilt(s, 1.5)
    # an RBM weight or bias past the float range is no finite log
    for w, theta, name in ((math.inf, 0.0, "log_gamma"),
                           (0.5, -math.inf, "log_lambda")):
        rbm = RbmParams(1, 1, ((0.0, w), (w, 0.0)), (0.0, theta))
        with pytest.raises(InputError, match=rf"^{name}\[\d\] is not finite$"):
            rbm_to_two_spin(rbm)


@pytest.mark.parametrize("sigma_star, message", [
    ({1: math.inf, 2: math.inf},
     "sigma_star must pin exactly the boundary copy leaves"),
    ({0: math.inf, 1: math.inf, 2: math.inf, 3: 0.0},
     "sigma_star must pin exactly the boundary copy leaves"),
    ({1: math.inf, 2: math.inf, 3: 7.5},
     "sigma_star ratios must be 0.0 or inf, got 7.5"),
    ({1: -math.inf, 2: math.inf, 3: 0.0},
     "sigma_star ratios must be 0.0 or inf, got -inf"),
    ({1: math.nan, 2: math.inf, 3: 0.0},
     "sigma_star ratios must be 0.0 or inf, got nan"),
    ({1: True, 2: math.inf, 3: 0.0},
     "sigma_star ratios must be 0.0 or inf, got True"),
    ({True: math.inf, 2: math.inf, 3: 0.0},
     "tree node must be an integer, got True"),
])
def test_dominance_slacks_refuse_what_is_no_universal_pinning(sigma_star,
                                                              message):
    # a missing leaf raised a raw KeyError, and 7.5 was folded as a ratio
    tree, system, rows = _star3_tree(), _star3(), np.array([[1, 1, 1]])
    for call in (
            lambda: ratio_dominance_slack(tree, system, rows, sigma_star, 1),
            lambda: monotone_potential_slack(
                tree, system, ParamClass(1.0, 2.0, 1.0), 1, rows,
                sigma_star)):
        with pytest.raises(InputError) as caught:
            call()
        assert str(caught.value) == message
    # the universal pinning itself, and 0 and inf spelled as ints and
    # numpy floats, pass
    for star in (universal_pinning(tree, system, 3, 21),
                 {1: np.float64(math.inf), 2: 0, 3: math.inf}):
        assert ratio_dominance_slack(tree, system, rows, star, 1).shape \
            == (1, 1, 2)
