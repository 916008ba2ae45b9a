"""Exit-code contract, determinism, config merging, and output shapes of the
command-line front end."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from ferrospin import cli, constants, harness
from ferrospin.cli import main
from ferrospin.model import TwoSpinSystem, instance_dict
from ferrospin.sawtree import build_saw_tree


def write_instance(tmp_path, name, n, lam, edges):
    system = TwoSpinSystem.from_params(n, lam, edges)
    path = tmp_path / name
    path.write_text(json.dumps(instance_dict(system)))
    return path


@pytest.fixture
def path5(tmp_path):
    """A five-vertex path instance file."""
    return write_instance(
        tmp_path, "path5.json", 5, [0.7, 0.4, 0.9, 0.5, 0.6],
        [(0, 1, 1.0, 2.0), (1, 2, 0.9, 2.5), (2, 3, 1.0, 3.0),
         (3, 4, 0.8, 2.2)])


@pytest.fixture
def triangle(tmp_path):
    return write_instance(
        tmp_path, "tri.json", 3, [0.5, 0.5, 0.5],
        [(0, 1, 1.0, 2.0), (1, 2, 1.0, 2.0), (0, 2, 1.0, 2.0)])


# ---------------------------------------------------------------------------
# exit codes


def test_sample_success_writes_csv(path5, tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["sample", "--instance", str(path5), "--schedule", "glauber",
                 "--steps", "50", "--seed", "7", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[6] == "step,hamming_weight,coupled_flag"
    assert len(lines) == 7 + 50


def test_missing_instance_file_names_the_path(tmp_path, capsys):
    bad = tmp_path / "nothere.json"
    assert main(["exact", "--instance", str(bad)]) == 1
    assert str(bad) in capsys.readouterr().err


def test_alternating_scan_on_non_bipartite_is_input_error(triangle, capsys):
    code = main(["sample", "--instance", str(triangle),
                 "--schedule", "alternating-scan", "--steps", "3"])
    assert code == 1
    assert "parts not independent sets" in capsys.readouterr().err


def test_capacity_error_exits_two(tmp_path):
    big = write_instance(tmp_path, "big.json", 25, [0.5] * 25, [])
    assert main(["exact", "--instance", str(big)]) == 2


def test_verification_failure_exits_three_but_writes_report(
        tmp_path, monkeypatch):
    bad_row = harness.inequality_row("forced-failure", "x", 2.0, 1.0,
                                     tolerance=0.0)
    monkeypatch.setitem(harness._SUITES, "saw-oracle", lambda cfg: [bad_row])
    out = tmp_path / "rep"
    code = main(["verify", "--suite", "saw-oracle", "--out", str(out)])
    assert code == 3
    text = (tmp_path / "rep.csv").read_text()
    assert "forced-failure" in text and ",false," in text.replace("false",
                                                                  ",false,")
    assert (tmp_path / "rep.json").exists()


def test_unknown_flag_is_input_error_not_system_exit(path5):
    assert main(["sample", "--instance", str(path5), "--bogus"]) == 1


def test_bad_d1_message(path5, capsys):
    code = main(["region", "--instance", str(path5), "--center", "0",
                 "--d1", "0", "--d2", "3"])
    assert code == 1
    assert "d1 must be >= 1" in capsys.readouterr().err


def test_instance_and_rbm_are_mutually_exclusive(path5, capsys):
    assert main(["exact", "--instance", str(path5), "--rbm", str(path5)]) == 1
    assert main(["exact"]) == 1


# ---------------------------------------------------------------------------
# determinism


def test_sample_is_byte_deterministic(path5, tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["sample", "--instance", str(path5), "--schedule",
                     "alternating-scan", "--steps", "40", "--seed", "13",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_verify_report_is_byte_deterministic(tmp_path):
    blobs = []
    for name in ("r1", "r2"):
        assert main(["verify", "--suite", "field", "--trials", "3",
                     "--max-n", "3", "--seed", "5",
                     "--out", str(tmp_path / name)]) == 0
        blobs.append(((tmp_path / f"{name}.csv").read_bytes(),
                      (tmp_path / f"{name}.json").read_bytes()))
    assert blobs[0] == blobs[1]


def test_region_sweep_deterministic_across_reruns(path5, tmp_path):
    outputs = []
    for run in ("1", "2"):
        out = tmp_path / f"regions-{run}.jsonl"
        assert main(["region", "--instance", str(path5), "--center", "all",
                     "--d1", "2", "--d2", "3", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# config file


def test_config_file_supplies_defaults_and_flags_override(path5, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 3, "seed": 9,
                               "instance": str(path5)}))
    out1 = tmp_path / "c1.csv"
    assert main(["sample", "--config", str(cfg), "--out", str(out1)]) == 0
    assert "# seed=9" in out1.read_text()
    assert out1.read_text().count("\n") == 7 + 3
    out2 = tmp_path / "c2.csv"
    assert main(["sample", "--config", str(cfg), "--steps", "5",
                 "--out", str(out2)]) == 0
    assert out2.read_text().count("\n") == 7 + 5


def test_config_file_rejects_unknown_keys(path5, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"stepz": 3}))
    assert main(["sample", "--config", str(cfg),
                 "--instance", str(path5)]) == 1
    assert "unknown options" in capsys.readouterr().err


def test_config_file_must_be_valid_json(path5, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["sample", "--config", str(cfg),
                 "--instance", str(path5)]) == 1


def test_config_defaults_do_not_leak_into_later_calls(path5, tmp_path,
                                                     monkeypatch):
    # a --config call builds its own parser; plain calls share one and see
    # the built-in defaults
    def plain(name):
        out = tmp_path / name
        assert main(["sample", "--instance", str(path5), "--out",
                     str(out)]) == 0
        return out.read_text()

    before = plain("before.csv")
    assert "# seed=0" in before and before.count("\n") == 7 + 1000
    built = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or real_build())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 3, "seed": 9}))
    out = tmp_path / "config.csv"
    assert main(["sample", "--config", str(cfg), "--instance", str(path5),
                 "--out", str(out)]) == 0
    assert "# seed=9" in out.read_text()
    assert out.read_text().count("\n") == 7 + 3
    assert plain("after.csv") == before
    assert built == [1]


def test_an_error_call_leaves_the_next_call_fresh(path5, tmp_path, capsys):
    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().err

    good = ["region", "--instance", str(path5), "--center", "all",
            "--d1", "2", "--d2", "3"]
    outs = []
    for bad in (["region", "--instance", str(path5), "--d1", "x"],
                ["sample", "--instance", str(path5), "--bogus"],
                ["region", "--instance", str(path5), "--center", "1",
                 "--d1", "0", "--d2", "3"]):
        first = run(bad)
        assert first[0] == 1 and first[1].startswith("error: ")
        out = tmp_path / f"r{len(outs)}.jsonl"
        assert run(good + ["--out", str(out)]) == (0, "")
        outs.append(out.read_bytes())
        assert run(bad) == first
    assert outs[0] == outs[1] == outs[2]


# ---------------------------------------------------------------------------
# per-subcommand output shapes


def test_exact_payload_fields(path5, tmp_path):
    out = tmp_path / "exact.json"
    assert main(["exact", "--instance", str(path5), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 5 and len(doc["marginal_p1"]) == 5
    assert 0.0 < doc["all_ones_mass"] < 1.0
    assert all(0.0 <= p <= 1.0 for p in doc["marginal_p1"])


def test_saw_reports_zero_discrepancy_at_desk_scale(path5, tmp_path):
    out = tmp_path / "saw.json"
    assert main(["saw", "--instance", str(path5), "--center", "2",
                 "--pin", "0:1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["p0"] + doc["p1"] == pytest.approx(1.0, abs=1e-12)
    assert doc["discrepancy"] <= 1e-9


def test_saw_reports_its_walk_tree_size(tmp_path):
    # a 5-cycle with a chord, pinned at vertex 2 or not
    edges = [(0, 1, 1.0, 2.0), (1, 2, 0.9, 2.5), (2, 3, 1.0, 3.0),
             (3, 4, 0.8, 2.2), (0, 4, 1.0, 1.8), (1, 3, 0.95, 2.7)]
    path = write_instance(tmp_path, "chord.json", 5, [0.7] * 5, edges)
    system = TwoSpinSystem.from_params(5, [0.7] * 5, edges)
    for center, pin, boundary in ((0, [], ()), (4, ["--pin", "2:1"], (2,))):
        out = tmp_path / f"saw{center}.json"
        assert main(["saw", "--instance", str(path), "--center", str(center),
                     "--out", str(out)] + pin) == 0
        doc = json.loads(out.read_text())
        assert doc["tree_nodes"] == len(build_saw_tree(system, center, boundary))


def test_saw_rejects_malformed_pin_and_center(path5):
    assert main(["saw", "--instance", str(path5), "--center", "9"]) == 1
    assert main(["saw", "--instance", str(path5), "--center", "1",
                 "--pin", "0=1"]) == 1


def test_region_single_center_record(path5, tmp_path):
    out = tmp_path / "region.jsonl"
    assert main(["region", "--instance", str(path5), "--center", "2",
                 "--d1", "2", "--d2", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["region"]["center"] == 2
    assert rec["verification"]["ok"] is True


def test_region_sweep_emits_one_record_per_center(path5, tmp_path):
    out = tmp_path / "sweep.jsonl"
    assert main(["region", "--instance", str(path5), "--center", "all",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert [json.loads(l)["region"]["center"] for l in lines] == list(range(5))


def test_region_flag_validation(path5):
    assert main(["region", "--instance", str(path5), "--center", "0",
                 "--d1", "2"]) == 1
    assert main(["region", "--instance", str(path5), "--center", "x"]) == 1
    assert main(["region", "--instance", str(path5), "--center", "11"]) == 1


def test_verify_stdout_mode_prints_csv(capsys):
    assert main(["verify", "--suite", "saw-oracle", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# ferrospin report schema=1 suite=saw-oracle")
    assert "walk-tree-marginal-matches-enumeration" in out


def test_sweep_runs_and_writes_report(tmp_path):
    assert main(["sweep", "--sizes", "3,6", "--max-length", "6",
                 "--out", str(tmp_path / "sw")]) == 0
    text = (tmp_path / "sw.csv").read_text()
    assert "all-to-one-influence" in text
    assert "endpoint-influence-decays-log-linearly" in text
    assert main(["sweep", "--sizes", "3;6"]) == 1


def test_sample_field_schedule_and_censor(path5, tmp_path):
    out = tmp_path / "f.csv"
    assert main(["sample", "--instance", str(path5), "--schedule", "field",
                 "--theta", "0.4", "--steps", "5", "--out", str(out)]) == 0
    assert main(["sample", "--instance", str(path5), "--schedule", "glauber",
                 "--censor", "0,2", "--steps", "5",
                 "--out", str(tmp_path / "c.csv")]) == 0
    assert main(["sample", "--instance", str(path5), "--censor", "0,9",
                 "--steps", "5"]) == 1
    assert main(["sample", "--instance", str(path5), "--schedule", "field",
                 "--censor", "0", "--steps", "5"]) == 1
    assert main(["sample", "--instance", str(path5), "--steps", "0"]) == 1


def test_rbm_input_path(tmp_path):
    rbm = {"n0": 2, "n1": 2, "theta": [0.3, -0.2, 0.1, 0.4],
           "W": [[0, 0, 0.5, 0.2], [0, 0, 0.1, 0.3],
                 [0.5, 0.1, 0, 0], [0.2, 0.3, 0, 0]]}
    path = tmp_path / "rbm.json"
    path.write_text(json.dumps(rbm))
    out = tmp_path / "rbm-exact.json"
    assert main(["exact", "--rbm", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 4


# exp(800) overflows a float: the log-space routes must still answer
LARGE_WEIGHT_RBM = {"n0": 1, "n1": 1, "W": [[0, 800], [800, 0]],
                    "theta": [0.1, 0.2]}


def test_exact_rbm_with_overflowing_weight(tmp_path):
    path = tmp_path / "rbm.json"
    path.write_text(json.dumps(LARGE_WEIGHT_RBM))
    out = tmp_path / "exact.json"
    code, err = run_main(["exact", "--rbm", str(path), "--out", str(out)])
    assert (code, err) == (0, "")
    doc = json.loads(out.read_text())
    assert len(doc["marginal_p1"]) == 2
    assert all(math.isfinite(p) and 0.0 <= p <= 1.0
               for p in doc["marginal_p1"])


def test_saw_rbm_with_overflowing_weight(tmp_path):
    path = tmp_path / "rbm.json"
    path.write_text(json.dumps(LARGE_WEIGHT_RBM))
    assert main(["exact", "--rbm", str(path),
                 "--out", str(tmp_path / "exact.json")]) == 0
    exact_p1 = json.loads((tmp_path / "exact.json").read_text())["marginal_p1"]
    for center in (0, 1):
        out = tmp_path / f"saw{center}.json"
        code, err = run_main(["saw", "--rbm", str(path), "--center",
                              str(center), "--out", str(out)])
        assert (code, err) == (0, "")
        doc = json.loads(out.read_text())
        assert abs(doc["p1"] - exact_p1[center]) <= constants.SAW_ORACLE_TOL
        assert doc["discrepancy"] <= constants.SAW_ORACLE_TOL


# ---------------------------------------------------------------------------
# malformed input documents

VALID_INSTANCE = {"n": 3, "lambda": [0.7, 0.4, 0.9],
                  "edges": [{"u": 0, "v": 1, "beta": 1.0, "gamma": 2.0},
                            {"u": 1, "v": 2, "beta": 0.9, "gamma": 2.5}]}
VALID_RBM = {"n0": 1, "n1": 2, "W": [[0, 0.5, 0.2], [0.5, 0, 0], [0.2, 0, 0]],
             "theta": [0.1, -0.3, 0.2]}
# Integers stay small so that a fuzzed `steps` runs quickly; floats reach
# weights and fields whose exponentials overflow or underflow a float.
JSON_LEAVES = (st.none() | st.booleans() | st.integers(-3, 60)
               | st.floats(-2.0, 4.0)
               | st.sampled_from([1000.0, -1000.0, 1e300, -1e300, 1e-300,
                                  -1e-300, 1e400, -1e400])
               | st.sampled_from(["", "x", "0,1", "glauber", "field", "1:0"]))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["u", "v", "beta", "gamma", "n", "x"]),
                      kids, max_size=3),
    max_leaves=6)


def json_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from json_paths(child, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """`doc` with the value at one path (the root included) replaced by an
    arbitrary JSON value, or deleted."""
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(json_paths(doc))))
    if not path:
        return draw(JSON_VALUES)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON_VALUES)
    return doc


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_contract(code, err):
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    error_lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(error_lines) == (0 if code == 0 else 1)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(mutated(VALID_INSTANCE), mutated(VALID_RBM))
@example(dict(VALID_INSTANCE, edges=5), VALID_RBM)
def test_malformed_documents_keep_the_exit_contract(fuzz_dir, inst, rbm):
    (fuzz_dir / "inst.json").write_text(json.dumps(inst))
    (fuzz_dir / "rbm.json").write_text(json.dumps(rbm))
    for flag, name in (("--instance", "inst.json"), ("--rbm", "rbm.json")):
        path = str(fuzz_dir / name)
        assert_contract(*run_main(["exact", flag, path]))
        out = fuzz_dir / "saw.json"
        code, err = run_main(["saw", flag, path, "--center", "0",
                              "--out", str(out)])
        assert_contract(code, err)
        if code == 0:
            doc = json.loads(out.read_text())
            assert 0.0 <= doc["p1"] <= 1.0
            assert doc["p0"] + doc["p1"] == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(
    st.sampled_from(["schedule", "steps", "seed", "theta", "censor", "rbm",
                     "center", "trials", "bogus"]),
    JSON_VALUES, max_size=4) | JSON_VALUES)
@example({"seed": -1})
@example({"steps": [3]})
def test_malformed_config_keeps_the_exit_contract(fuzz_dir, doc):
    (fuzz_dir / "cfg.json").write_text(json.dumps(doc))
    (fuzz_dir / "inst.json").write_text(json.dumps(VALID_INSTANCE))
    assert_contract(*run_main([
        "sample", "--instance", str(fuzz_dir / "inst.json"),
        "--config", str(fuzz_dir / "cfg.json"),
        "--out", str(fuzz_dir / "traj.csv")]))
