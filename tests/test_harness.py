"""Verification harness vs. independent routes: row algebra, Wilson bounds,
instance generators, inequality checks, estimates, probes, suites, reports."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as ora
from ferrospin import constants, exact
from ferrospin.errors import CapacityError, InputError, NumericError
from ferrospin.exact import (
    _mixing_time_and_distance,
    all_to_one_influence,
    censored_glauber_matrix,
    exact_mixing_time,
    gibbs_distribution,
    glauber_matrix,
    spectral_report,
    stationarity_residual,
)
from ferrospin.harness import (
    ExperimentConfig,
    ReportRow,
    SUITE_NAMES,
    class_instance,
    coupling_dominance_row,
    coupling_failure_fraction,
    coupling_mixing_estimate,
    decay_probe,
    emit_report,
    endpoint_influence_on_path,
    equality_row,
    field_boost_check,
    gamma_min_pinned,
    inequality_row,
    influence_regime_sweep,
    instance_family,
    max_all_to_one_influence,
    random_connected_graph,
    random_ferro_instance,
    random_tree_instance,
    report_csv_text,
    report_json_text,
    run_suite,
    value_row,
    verify_gap_mixing_relations,
    verify_relaxation_inequality,
    verify_scan_mixing_bound,
    wilson_upper,
)
from ferrospin.model import ParamClass, Pinning, TwoSpinSystem
from ferrospin.samplers import UpdateSchedule


def rng_for(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def sys_tuple(system):
    """(n, lam, edges) view for the oracles."""
    n = system.n
    lam = [math.exp(system.log_lambda[v]) for v in range(n)]
    edges = [(u, v, math.exp(system.log_beta[e]),
              math.exp(system.log_gamma[e]))
             for e, (u, v) in enumerate(system.edges)]
    return n, lam, edges


# ---------------------------------------------------------------------------
# rows


def test_inequality_row_semantics():
    row = inequality_row("a-b", "x", 1.0, 2.0, tolerance=0.5)
    assert row.passed and row.slack == 1.0
    assert inequality_row("a-b", "x", 2.0, 1.0, tolerance=0.5).passed is False
    # inside the tolerance band
    assert inequality_row("a-b", "x", 1.3, 1.0, tolerance=0.5).passed


def test_equality_row_semantics():
    assert equality_row("a", "x", 1.0, 1.0 + 1e-12, 1e-10).passed
    row = equality_row("a", "x", 1.0, 1.1, 1e-10)
    assert not row.passed and row.slack == pytest.approx(-0.1)


def test_value_row_always_passes():
    row = value_row("seen", "x", -3.5, detail="anything")
    assert row.passed and row.slack == 0.0 and row.tolerance == 0.0


def test_row_text_rejects_commas_and_newlines():
    with pytest.raises(InputError):
        ReportRow("bad,claim", "x", 0, 0, 0, 0, True)
    with pytest.raises(InputError):
        inequality_row("fine", "inst\n", 0.0, 1.0)
    with pytest.raises(InputError):
        value_row("fine", "x", 0.0, detail="a,b")


@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(0, 10.0))
@settings(max_examples=60, deadline=None)
def test_pass_iff_slack_at_least_minus_tolerance(lhs, rhs, tol):
    row = inequality_row("c", "i", lhs, rhs, tolerance=tol)
    assert row.passed == (row.slack >= -row.tolerance)
    row = equality_row("c", "i", lhs, rhs, tol)
    assert row.passed == (row.slack >= -row.tolerance)


# ---------------------------------------------------------------------------
# wilson score interval


def test_wilson_upper_solves_the_score_equation():
    # the upper end p satisfies (p_hat - p)^2 = z^2 p (1-p) / n
    for k, n in [(0, 40), (3, 40), (17, 100), (99, 100)]:
        p = wilson_upper(k, n)
        if p < 1.0:
            lhs = (k / n - p) ** 2
            rhs = constants.WILSON_Z ** 2 * p * (1 - p) / n
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_wilson_upper_edge_cases():
    assert wilson_upper(40, 40) == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < wilson_upper(0, 40) < 0.2
    # monotone in the failure count
    vals = [wilson_upper(k, 60) for k in range(0, 61, 5)]
    assert vals == sorted(vals)
    with pytest.raises(InputError):
        wilson_upper(5, 0)
    with pytest.raises(InputError):
        wilson_upper(7, 6)


def test_wilson_upper_covers_true_proportion():
    # 99% interval: simulated coverage over 400 binomial draws stays high
    rng = random.Random(11)
    p_true, n, covered = 0.3, 50, 0
    for _ in range(400):
        k = sum(rng.random() < p_true for _ in range(n))
        if wilson_upper(k, n) >= p_true:
            covered += 1
    assert covered >= 380


# ---------------------------------------------------------------------------
# generators


def test_random_connected_graph_is_connected_and_simple():
    rng = rng_for(2)
    for n, p in [(1, 0.5), (2, 0.9), (8, 0.4), (25, 0.2)]:
        edges = random_connected_graph(rng, n, p)
        assert len(set(edges)) == len(edges)
        assert all(0 <= u < v < n for u, v in edges)
        # oracle connectivity: BFS over an adjacency dict
        adj = {v: set() for v in range(n)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        seen, stack = {0}, [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert len(seen) == n


def test_random_connected_graph_p_one_is_complete():
    edges = random_connected_graph(rng_for(0), 5, 1.0)
    assert len(edges) == 10


def test_random_connected_graph_rejects_bad_input():
    with pytest.raises(InputError):
        random_connected_graph(rng_for(0), 0, 0.5)
    with pytest.raises(InputError):
        random_connected_graph(rng_for(0), 3, 1.5)


def test_random_ferro_instance_parameter_ranges():
    rng = rng_for(7)
    for _ in range(20):
        system = random_ferro_instance(rng, 6, lambda_bound=0.8)
        for e in range(len(system.edges)):
            b, g = math.exp(system.log_beta[e]), math.exp(system.log_gamma[e])
            assert 0.5 <= b <= 1.0 and g <= 5.0 + 1e-12
            assert g >= 1.0 / b + 0.1 - 1e-12
            assert b * g > 1.0
        assert all(0.0 < math.exp(system.log_lambda[v]) <= 0.8 for v in range(6))


def test_class_instance_sits_at_the_class_edge_bound():
    pc = ParamClass(beta=0.8, gamma=2.5, lambda_bound=1.2)
    system = class_instance(rng_for(3), 5, pc)
    assert all(math.exp(system.log_beta[e]) == pytest.approx(0.8) and
               math.exp(system.log_gamma[e]) == pytest.approx(2.5)
               for e in range(len(system.edges)))
    assert all(math.exp(system.log_lambda[v]) < 1.2 for v in range(5))


def test_random_tree_instance_shape_and_bipartition():
    from ferrospin.exact import check_bipartition
    for seed in range(4):
        system, parts = random_tree_instance(rng_for(seed), 7)
        assert len(system.edges) == 6
        check_bipartition(system, parts)  # raises on a bad split


def test_instance_family_shapes():
    assert len(instance_family("edgeless", 4, 1.0, 2.0, 0.5).edges) == 0
    assert len(instance_family("path", 5, 1.0, 2.0, 0.5).edges) == 4
    assert len(instance_family("cycle", 5, 1.0, 2.0, 0.5).edges) == 5
    assert len(instance_family("star", 5, 1.0, 2.0, 0.5).edges) == 4
    assert len(instance_family("complete-bipartite", 5, 1.0, 2.0, 0.5).edges) == 6
    with pytest.raises(InputError):
        instance_family("cycle", 2, 1.0, 2.0, 0.5)
    with pytest.raises(InputError):
        instance_family("petersen", 10, 1.0, 2.0, 0.5)


# ---------------------------------------------------------------------------
# spectral / mixing inequalities


def test_relaxation_inequality_row_on_random_trees():
    rng = rng_for(21)
    for _ in range(6):
        system, parts = random_tree_instance(rng, 5)
        row = verify_relaxation_inequality(system, parts)
        assert row.passed, row


def test_relaxation_row_lhs_matches_independent_reversiblization():
    # rebuild T_rel by hand: R = Q Q* with Q*(x,y) = mu(y) Q(y,x) / mu(x)
    system, parts = random_tree_instance(rng_for(4), 4)
    from ferrospin.exact import alternating_scan_matrix
    mu = gibbs_distribution(system).probs
    Q = alternating_scan_matrix(system, parts).entries
    Qstar = (Q * mu[:, None]).T / mu[:, None]
    R = Q @ Qstar
    sym = R * np.sqrt(mu)[:, None] / np.sqrt(mu)[None, :]
    lam2 = sorted(np.linalg.eigvalsh((sym + sym.T) / 2))[-2]
    expected = 1.0 / (1.0 - math.sqrt(max(lam2, 0.0)))
    row = verify_relaxation_inequality(system, parts)
    assert row.lhs == pytest.approx(expected, rel=1e-9)


def test_scan_mixing_bound_row():
    rng = rng_for(31)
    for _ in range(4):
        system, parts = random_tree_instance(rng, 5)
        start = tuple(int(b) for b in rng.integers(0, 2, 5))
        row = verify_scan_mixing_bound(system, parts, start, eps=0.05)
        assert row.passed and row.lhs <= 0.05
        assert "steps=" in row.detail
    with pytest.raises(InputError):
        verify_scan_mixing_bound(system, parts, start, eps=1.5)


def test_scan_mixing_bound_refuses_a_start_of_another_size_or_spin():
    system, parts = random_tree_instance(rng_for(1), 4)
    for start in ((1, 1, 1, 1, 1), (1, 1), (2, 0, 0, 0)):
        with pytest.raises(InputError, match=r"start must be 4 spins of 0 "
                                             r"or 1: \(%d, " % start[0]):
            verify_scan_mixing_bound(system, parts, start)


def test_gap_mixing_relations_rows_pass_and_match_oracle_time():
    rng = random.Random(5)
    for _ in range(5):
        inst = ora.random_instance(rng, 4, lambda_bound=1.0)
        n, lam, edges = inst
        system = TwoSpinSystem.from_params(n, lam, edges)
        rows = verify_gap_mixing_relations(system, eps=0.05)
        assert [r.passed for r in rows] == [True, True, True]
        t_oracle = ora.mixing_time(n, lam, edges,
                                   lambda s: ora.glauber_row(n, lam, edges, s),
                                   0.05)
        assert rows[0].lhs == t_oracle  # exact integer agreement


def test_gap_mixing_relations_single_vertex_degenerates_consistently():
    system = TwoSpinSystem.from_params(1, [0.7], [])
    rows = verify_gap_mixing_relations(system, eps=0.05)
    assert all(r.passed for r in rows)
    assert rows[0].lhs == 1.0  # one sweep mixes exactly


# ---------------------------------------------------------------------------
# coupling estimates


def test_coupling_estimate_single_vertex_merges_in_one_step():
    system = TwoSpinSystem.from_params(1, [1.0], [])
    sched = UpdateSchedule(kind="single-site-glauber")
    row, t_hat = coupling_mixing_estimate(system, sched, trials=200, seed=3)
    assert t_hat == 1 and row.passed


def test_coupling_estimate_censors_under_tiny_cap():
    system, _ = random_tree_instance(rng_for(6), 4)
    sched = UpdateSchedule(kind="single-site-glauber")
    row, t_hat = coupling_mixing_estimate(system, sched, trials=30, seed=1,
                                          cap=1)
    assert t_hat is None and not row.passed
    assert "censored-estimate" in row.detail and "floor=" in row.detail


def test_coupling_estimate_input_validation():
    system = TwoSpinSystem.from_params(1, [1.0], [])
    sched = UpdateSchedule(kind="single-site-glauber")
    with pytest.raises(InputError):
        coupling_mixing_estimate(system, sched, trials=0)
    with pytest.raises(InputError):
        coupling_mixing_estimate(system, sched, eps=0.0)


def test_coupling_failure_fraction_extremes():
    single = TwoSpinSystem.from_params(1, [1.0], [])
    sched = UpdateSchedule(kind="single-site-glauber")
    assert coupling_failure_fraction(single, sched, 1, 50, seed=2) == 0.0
    # near-frozen double well: two huge-gamma edges, negligible fields
    frozen = TwoSpinSystem.from_params(
        2, [math.exp(12)] * 2, [(0, 1, 1.0, math.exp(24))])
    assert coupling_failure_fraction(frozen, sched, 3, 30, seed=2) == 1.0
    with pytest.raises(InputError):
        coupling_failure_fraction(single, sched, 0, 5)


def test_coupling_dominance_rows_hold_on_small_instances():
    rng = rng_for(17)
    sched = UpdateSchedule(kind="single-site-glauber")
    for i in range(5):
        system = random_ferro_instance(rng, 3 + i % 2, lambda_bound=1.0)
        row = coupling_dominance_row(system, sched, glauber_matrix(system),
                                     trials=300, seed=100 + i)
        assert row.passed, row


def test_coupling_dominance_distance_matches_the_matrix_power_route():
    # gate 11's instances: the distance at the exact mixing time, read off
    # the search's last stored power, is the worst-start TV of P^t
    for i in range(40):
        system = random_ferro_instance(rng_for(1100 + i), 3 + i % 4, p=0.6)
        kernel = glauber_matrix(system)
        mu = gibbs_distribution(system)
        eps = constants.DEFAULT_EPS
        t, tv = _mixing_time_and_distance(kernel, mu, eps,
                                          constants.MIXING_STEP_CAP)
        assert t == exact_mixing_time(kernel, mu, eps)
        M = np.linalg.matrix_power(kernel.entries, t)
        want = float(0.5 * np.abs(M - mu.probs[None, :]).sum(axis=1).max())
        assert abs(tv - want) <= 1e-12
        assert tv < eps


# ---------------------------------------------------------------------------
# field boost


def test_gamma_min_pinned_two_vertices_closed_form():
    # any single-free-vertex padded chain on n=2 has eigenvalues {1, 1/2}
    system = random_ferro_instance(rng_for(9), 2, lambda_bound=0.9)
    mu = gibbs_distribution(system)
    full_gap = spectral_report(glauber_matrix(system), mu, "glauber").gap
    assert gamma_min_pinned(system) == pytest.approx(min(full_gap, 0.5),
                                                     abs=1e-12)


def test_gamma_min_pinned_respects_capacity():
    # the same class of error, and the same limit, as the field kernel's
    system = instance_family("path", 7, 1.0, 2.0, 0.5)
    with pytest.raises(CapacityError, match=r"n <= 6, got n = 7"):
        gamma_min_pinned(system)


def test_field_boost_rows_pass_on_class_instances():
    pc = ParamClass(beta=1.0, gamma=2.0, lambda_bound=1.0)
    rng = rng_for(23)
    for i in range(6):
        system = class_instance(rng, 2 + i % 3, pc)
        rows = field_boost_check(system, pc)
        assert [r.claim for r in rows] == [
            "tilted-fields-below-one-half",
            "single-site-gap-at-least-field-gap-times-min-pinned-gap",
            "all-ones-mass-at-least-inverse-power",
        ]
        assert all(r.passed for r in rows), rows
        assert rows[0].lhs < 0.5


def test_field_boost_rejects_bad_theta():
    pc = ParamClass(beta=1.0, gamma=2.0, lambda_bound=1.0)
    system = class_instance(rng_for(0), 2, pc)
    with pytest.raises(InputError):
        field_boost_check(system, pc, theta=0.0)


def test_field_boost_fails_a_field_past_the_float_range():
    # log lambda = 800 on both vertices, balanced by log beta = -800 and
    # log gamma = 800: every configuration weighs e^800, so mu is uniform and
    # only the linear field max passes the float range
    pc = ParamClass(beta=1.0, gamma=2.0, lambda_bound=1.0)
    system = TwoSpinSystem(n=2, edges=((0, 1),), log_beta=(-800.0,),
                           log_gamma=(800.0,), log_lambda=(800.0, 800.0))
    rows = field_boost_check(system, pc)
    assert rows[0].claim == "tilted-fields-below-one-half"
    assert rows[0].lhs == math.inf and not rows[0].passed
    assert len(rows) == 3


# ---------------------------------------------------------------------------
# influence sweep


def test_max_all_to_one_matches_oracle():
    rng = random.Random(13)
    inst = ora.random_instance(rng, 5, lambda_bound=1.0)
    n, lam, edges = inst
    system = TwoSpinSystem.from_params(n, lam, edges)
    expected = max(ora.all_to_one(n, lam, edges, v) for v in range(n))
    assert max_all_to_one_influence(system) == pytest.approx(expected,
                                                             abs=1e-11)


def test_max_all_to_one_reads_every_vertex_from_one_table(monkeypatch):
    # one log-weight table serves every vertex, and each vertex's sum is
    # the float that all_to_one_influence returns
    rng = random.Random(1604)
    built = []
    log_weights = exact.log_weights

    def counted(system):
        built.append(system)
        return log_weights(system)

    for _ in range(12):
        family = rng.choice(["path", "cycle", "star", "complete-bipartite"])
        system = instance_family(family, rng.randint(3, 9),
                                 rng.uniform(0.5, 1.0), rng.uniform(1.2, 3.0),
                                 rng.uniform(0.2, 1.5))
        want = max(all_to_one_influence(system, v) for v in range(system.n))
        monkeypatch.setattr(exact, "log_weights", counted)
        built.clear()
        assert max_all_to_one_influence(system) == want
        assert built == [system]
        monkeypatch.setattr(exact, "log_weights", log_weights)


def test_influence_sweep_edgeless_is_flat_zero():
    rows = influence_regime_sweep("edgeless", (2, 4, 8), 1.0, 2.0, (0.5,))
    assert all(r.passed for r in rows)
    vals = [r.lhs for r in rows if r.claim == "all-to-one-influence"]
    assert vals == [0.0, 0.0, 0.0]


def test_influence_sweep_path_below_threshold_asserts_and_passes():
    rows = influence_regime_sweep("path", (4, 8), 1.0, 2.0, (0.2, 0.6))
    assert all(r.passed for r in rows)
    claims = {r.claim for r in rows}
    assert "influence-bounded-under-size-doubling" in claims
    assert "influence-stabilizes-at-largest-sizes" in claims


def test_influence_sweep_above_threshold_reports_only():
    rows = influence_regime_sweep("complete-bipartite", (2, 4), 1.0, 3.0,
                                  (2.5,))
    assert all(r.passed for r in rows)  # nothing asserted above the threshold
    assert any(r.claim == "influence-growth-ratio-reported" for r in rows)
    assert not any(r.claim == "influence-bounded-under-size-doubling"
                   for r in rows)


def test_influence_sweep_input_validation():
    with pytest.raises(InputError):
        influence_regime_sweep("path", (4,), 1.0, 2.0, (0.5,))
    with pytest.raises(InputError):
        influence_regime_sweep("path", (8, 4), 1.0, 2.0, (0.5,))
    with pytest.raises(InputError):
        influence_regime_sweep("path", (4, 8), 1.0, 2.0, ())


# ---------------------------------------------------------------------------
# decay probe


def test_endpoint_influence_matches_oracle():
    n, beta, gamma, lam = 5, 0.9, 2.2, 0.7
    edges = [(v, v + 1, beta, gamma) for v in range(n - 1)]
    got = endpoint_influence_on_path(beta, gamma, lam, n - 1)
    p0_0, _ = ora.conditional(n, [lam] * n, edges, {n - 1: 0}, 0)
    p0_1, _ = ora.conditional(n, [lam] * n, edges, {n - 1: 1}, 0)
    assert got == pytest.approx(abs(p0_0 - p0_1), abs=1e-12)


def test_decay_probe_fits_a_negative_slope():
    res = decay_probe(1.0, 2.5, 0.8, lengths=range(2, 11))
    assert res.slope < 0.0 and res.r_squared >= 0.9
    assert res.rows[-1].passed
    assert list(res.discrepancies) == sorted(res.discrepancies, reverse=True)


def test_decay_probe_adjacent_case_dominates():
    res = decay_probe(0.8, 2.0, 0.6, lengths=range(2, 9))
    anchor_row = [r for r in res.rows
                  if r.claim == "adjacent-endpoint-influence-is-maximal"][0]
    assert anchor_row.passed
    assert endpoint_influence_on_path(0.8, 2.0, 0.6, 1) >= max(
        res.discrepancies)


def test_decay_probe_shallower_for_stronger_edges():
    # larger gamma = stronger correlations = slower decay along the path
    weak = decay_probe(1.0, 1.6, 0.6, lengths=range(2, 9))
    strong = decay_probe(1.0, 3.2, 0.6, lengths=range(2, 9))
    assert strong.slope > weak.slope
    assert strong.slope < 0.0


def test_decay_probe_validates_lengths():
    with pytest.raises(InputError):
        decay_probe(1.0, 2.0, 0.5, lengths=(1, 2, 3))
    with pytest.raises(InputError):
        decay_probe(1.0, 2.0, 0.5, lengths=(4,))
    with pytest.raises(InputError):
        decay_probe(1.0, 2.0, 0.5, lengths=(4, 3))


# ---------------------------------------------------------------------------
# censored kernel helper


def test_censored_kernel_full_set_equals_plain_kernel():
    system = random_ferro_instance(rng_for(14), 4)
    C = censored_glauber_matrix(system, range(4))
    P = glauber_matrix(system)
    assert np.allclose(C.entries, P.entries, atol=1e-15)


def test_censored_kernel_empty_set_is_identity():
    system = random_ferro_instance(rng_for(15), 3)
    C = censored_glauber_matrix(system, [])
    assert np.allclose(C.entries, np.eye(8), atol=0.0)


def test_censored_kernel_keeps_gibbs_stationary():
    rng = rng_for(16)
    for _ in range(5):
        system = random_ferro_instance(rng, 5)
        mu = gibbs_distribution(system)
        C = censored_glauber_matrix(system, [0, 2])
        assert stationarity_residual(C, mu) <= constants.STATIONARITY_TOL


def test_censored_kernel_rejects_unknown_vertices():
    system = random_ferro_instance(rng_for(0), 3)
    with pytest.raises(InputError):
        censored_glauber_matrix(system, [5])


# ---------------------------------------------------------------------------
# config, suites, reports


def test_experiment_config_validation():
    with pytest.raises(InputError):
        ExperimentConfig(eps=0.5)
    with pytest.raises(InputError):
        ExperimentConfig(trials=0)
    with pytest.raises(InputError):
        ExperimentConfig(max_n=1)


def test_run_suite_rejects_unknown_name():
    with pytest.raises(InputError):
        run_suite("spectral-disco")


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_runs_green_at_desk_scale(name):
    cfg = ExperimentConfig(seed=41, trials=4, max_n=4)
    report = run_suite(name, cfg)
    assert report.suite == name and len(report.rows) > 0
    assert report.all_passed, report.failures()[:3]
    # the row invariant holds across every suite
    for r in report.rows:
        assert r.passed == (r.slack >= -r.tolerance)


def test_suites_are_deterministic():
    cfg = ExperimentConfig(seed=8, trials=3, max_n=4)
    for name in ("saw-oracle", "coupling", "region"):
        a = report_csv_text(run_suite(name, cfg))
        b = report_csv_text(run_suite(name, cfg))
        assert a == b


def test_report_texts_and_emission(tmp_path):
    report = run_suite("saw-oracle", ExperimentConfig(seed=2, trials=3))
    csv_text = report_csv_text(report)
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("# ferrospin report schema=1 suite=saw-oracle")
    assert "asymptotic constants" in lines[1]
    assert lines[2] == "claim,instance,lhs,rhs,slack,tolerance,passed,detail"
    assert len(lines) == 3 + len(report.rows)
    payload = json.loads(report_json_text(report))
    assert payload["schema_version"] == 1
    assert payload["all_passed"] is True
    assert len(payload["rows"]) == len(report.rows)
    csv_path, json_path = emit_report(report, tmp_path / "out.csv")
    assert csv_path.read_text() == csv_text
    assert json.loads(json_path.read_text()) == payload
    # byte-identical on re-emission
    again = emit_report(report, tmp_path / "out")
    assert again == (csv_path, json_path)
    assert csv_path.read_text() == csv_text


def test_mixing_report_failure_listing():
    rows = (inequality_row("ok", "x", 0.0, 1.0),
            inequality_row("bad", "x", 2.0, 1.0, tolerance=0.0))
    report = run_suite("saw-oracle", ExperimentConfig(seed=2, trials=2))
    assert report.failures() == ()
    from ferrospin.harness import MixingReport
    rep = MixingReport(suite="manual", seed=0, eps=0.1, rows=rows)
    assert not rep.all_passed and rep.failures() == (rows[1],)


# ---------------------------------------------------------------------------
# integer arguments and error branches

def test_decay_probe_refuses_fractional_lengths():
    # [2.5, 3.5] used to report lengths 2 and 3
    with pytest.raises(InputError, match="length must be an integer, got 2.5"):
        decay_probe(1.0, 2.0, 0.5, lengths=[2.5, 3.5])
    assert (decay_probe(1.0, 2.0, 0.5, lengths=np.arange(2, 5)).lengths
            == (2, 3, 4))


def test_coupling_mixing_estimate_refuses_fractional_trials():
    system, _ = random_tree_instance(rng_for(1), 4)
    with pytest.raises(InputError, match="trials must be an integer, got 2.5"):
        coupling_mixing_estimate(system, UpdateSchedule("single-site-glauber"),
                                 trials=2.5)


@pytest.mark.parametrize("call, fragment", [
    (lambda: instance_family("path", 0, 1.0, 2.0, 1.0),
     "family instance needs at least one vertex"),
    (lambda: random_tree_instance(rng_for(0), 0),
     "tree needs at least one vertex"),
    (lambda: coupling_failure_fraction(
        random_tree_instance(rng_for(1), 4)[0],
        UpdateSchedule("single-site-glauber"), 5, 0),
     "need at least one trial"),
], ids=["family-n", "tree-n", "failure-trials"])
def test_harness_error_branches(call, fragment):
    with pytest.raises(InputError, match=fragment):
        call()
