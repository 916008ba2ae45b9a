"""Exit-code contract, determinism, config merging, and output shapes of the
command-line front end."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from ferrospin import cli, constants, harness
from ferrospin.cli import main
from ferrospin.model import TwoSpinSystem, instance_dict, load_instance
from ferrospin.regions import RegionParams, construct_region
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


@pytest.mark.parametrize("flag, doc", [
    ("--instance", {"n": 3.9, "lambda": [1.0, 1.0, 1.0],
                    "edges": [{"u": 0.7, "v": 1.2, "beta": 1.0,
                               "gamma": 2.0}]}),
    ("--rbm", {"n0": 1.5, "n1": 1, "W": [[0, 0.5], [0.5, 0]],
               "theta": [0.1, 0.2]})])
def test_non_integer_counts_exit_one(tmp_path, flag, doc):
    # the loaders read counts and indices as JSON integers, never truncated
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, err = run_main(["exact", flag, str(path)])
    assert code == 1
    assert err.splitlines() == [
        f'error: "{"n" if flag == "--instance" else "n0"}" must be a JSON '
        f'integer, got {doc.get("n", doc.get("n0"))!r}']


def test_alternating_scan_on_non_bipartite_is_input_error(triangle, capsys):
    code = main(["sample", "--instance", str(triangle),
                 "--schedule", "alternating-scan", "--steps", "3"])
    assert code == 1
    assert "parts not independent sets" in capsys.readouterr().err


def test_sweep_past_the_float_range_of_lambda_c_is_input_error(capsys):
    # lambda_c of beta 0.5, gamma 2.0001 passes 1.8e308: an error line, not
    # an OverflowError traceback
    assert main(["sweep", "--beta", "0.5", "--gamma", "2.0001"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: lambda_c of beta 0.5, gamma 2.0001 passes the float range")


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
    assert capsys.readouterr().err == "error: need 1 <= d1 <= d2\n"


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


def test_config_file_rejects_keys_of_other_subcommands(tmp_path, capsys):
    # `instance` belongs to sample, exact, saw and region, `steps` to sample
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instance": str(tmp_path / "nothere.json"),
                               "steps": 5}))
    assert main(["verify", "--suite", "saw-oracle", "--trials", "2",
                 "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "'instance'" in err[0] and "'steps'" in err[0]


def test_config_keys_of_the_subcommand_stay_defaults(path5, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instance": str(path5), "d1": 2, "d2": 3}))
    assert main(["region", "--config", str(cfg), "--center", "1"]) == 0
    record = json.loads(capsys.readouterr().out)["region"]
    assert (record["center"], record["d1"], record["d2"]) == (1, 2, 3)
    assert main(["region", "--config", str(cfg), "--center", "1",
                 "--d2", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["region"]["d2"] == 4


def _required_flag_case(sub, path5):
    """(file keys, flag, file value, flag value, value read back) for a
    subcommand with a required flag."""
    if sub == "verify":
        return ({"trials": 2}, "--suite", "saw-oracle", "field",
                lambda out: out.split("suite=")[1].split()[0])
    keys = {"instance": str(path5)}
    if sub == "region":
        keys.update(d1=2, d2=3)
        return (keys, "--center", 1, "2",
                lambda out: json.loads(out)["region"]["center"])
    return keys, "--center", 1, "2", lambda out: json.loads(out)["center"]


@pytest.mark.parametrize("sub", ["saw", "region", "verify"])
def test_config_file_supplies_required_flags(path5, tmp_path, capsys, sub):
    keys, flag, in_file, on_line, read = _required_flag_case(sub, path5)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**keys, flag[2:]: in_file}))
    assert main([sub, "--config", str(cfg)]) == 0
    assert str(read(capsys.readouterr().out)) == str(in_file)
    # a flag on the command line overrides the file
    assert main([sub, "--config", str(cfg), flag, on_line]) == 0
    assert str(read(capsys.readouterr().out)) == on_line
    # missing from both: the argparse error line and exit 1
    cfg.write_text(json.dumps(keys))
    for argv in ([sub, "--config", str(cfg)], [sub]):
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: the following arguments are required: {flag}\n")


def test_config_file_must_be_valid_json(path5, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["sample", "--config", str(cfg),
                 "--instance", str(path5)]) == 1


@pytest.mark.parametrize("spelling", ["equals", "abbreviated"])
def test_config_file_is_read_in_every_spelling(path5, tmp_path, capsys,
                                                spelling):
    def config_flag(cfg):
        if spelling == "equals":
            return [f"--config={cfg}"]
        return ["--conf", str(cfg)]

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 3, "seed": 9}))
    out = tmp_path / "c.csv"
    assert main(["sample", "--instance", str(path5), *config_flag(cfg),
                 "--out", str(out)]) == 0
    assert "# seed=9" in out.read_text()
    assert out.read_text().count("\n") == 7 + 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"stepz": 3}))
    capsys.readouterr()
    assert main(["sample", "--instance", str(path5), *config_flag(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unknown options" in err


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


def test_saw_capacity_error_names_the_count_and_the_cap(path5, monkeypatch,
                                                        capsys):
    # the walk tree of the path from vertex 2 has 5 nodes; the walk 2-1
    # brings the count to 4, past a cap of 3
    monkeypatch.setattr(constants, "REGION_NODE_CAP", 3)
    assert main(["saw", "--instance", str(path5), "--center", "2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: saw tree of vertex 2 reached 4 nodes, "
                   "over node cap 3"]


def test_sample_refuses_steps_past_the_step_cap(path5, monkeypatch, capsys,
                                                tmp_path):
    # the count is checked before any draw, so a run past the cap exits 2
    # at once instead of growing its CSV without end
    monkeypatch.setattr(constants, "MIXING_STEP_CAP", 10)
    assert main(["sample", "--instance", str(path5), "--steps", "11"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: 11 chain steps exceed the step cap 10"]
    out = tmp_path / "traj.csv"
    assert main(["sample", "--instance", str(path5), "--steps", "10",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 7 + 10
    monkeypatch.undo()
    assert main(["sample", "--instance", str(path5),
                 "--steps", str(10 ** 20)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {10 ** 20} chain steps exceed the step cap "
        f"{constants.MIXING_STEP_CAP}"]


def test_saw_rejects_malformed_pin_and_center(path5):
    assert main(["saw", "--instance", str(path5), "--center", "9"]) == 1
    assert main(["saw", "--instance", str(path5), "--center", "1",
                 "--pin", "0=1"]) == 1


def test_saw_refuses_a_vertex_pinned_twice(tmp_path, capsys):
    # two spins for one vertex contradict each other: an error naming it,
    # not an answer for one of them
    path3 = write_instance(tmp_path, "path3.json", 3, [1.0, 1.0, 1.0],
                           [(0, 1, 0.5, 3.0), (1, 2, 0.5, 3.0)])
    assert main(["saw", "--instance", str(path3), "--center", "0",
                 "--pin", "2:0,2:1"]) == 1
    assert capsys.readouterr().err == (
        "error: --pin names vertex 2 more than once\n")


def test_the_module_entry_point_keeps_the_exit_contract(tmp_path):
    # seeds outside [0, 2^128) and a doubly pinned vertex end in one error
    # line and exit 1 when the CLI runs as a program, never a traceback
    path3 = write_instance(tmp_path, "path3.json", 3, [1.0, 1.0, 1.0],
                           [(0, 1, 0.5, 3.0), (1, 2, 0.5, 3.0)])
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["verify", "--suite", "saw-oracle", "--seed", "-1"],
                 ["verify", "--suite", "saw-oracle", "--seed", str(2 ** 128)],
                 ["sample", "--instance", str(path3), "--seed", "-1"],
                 ["saw", "--instance", str(path3), "--center", "0",
                  "--pin", "2:0,2:1"]):
        proc = subprocess.run([sys.executable, "-m", "ferrospin.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 1, (argv, proc.stderr)
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (
            argv, proc.stderr)
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, line", [
    (["saw", "--center", "99"], "error: root vertex 99 out of range"),
    (["region", "--center", "-1"], "error: vertex -1 is not in the graph"),
    (["sample", "--censor", "99"], "error: censored vertex 99 out of range"),
], ids=["saw-center", "region-center", "sample-censor"])
def test_the_library_range_checks_keep_the_exit_contract(path5, argv, line):
    # the CLI leaves a vertex's range to the library, whose InputError still
    # ends the program in exit 1 and one error line, never a traceback
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "ferrospin.cli", argv[0], "--instance",
         str(path5), *argv[1:]],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines() == [line]
    assert "Traceback" not in proc.stderr


def test_no_subcommand_loads_scipy(path5, tmp_path):
    # the library needs numpy only: scipy is a test dependency, and loading
    # it would cost every process its import time and a second BLAS
    runs = [["exact", "--instance", str(path5)],
            ["saw", "--instance", str(path5), "--center", "2"],
            *(["sample", "--instance", str(path5), "--schedule", schedule,
               "--steps", "20"] for schedule in cli.SCHEDULE_NAMES),
            ["region", "--instance", str(path5), "--center", "2",
             "--d1", "2", "--d2", "3"],
            ["verify", "--suite", "saw-oracle", "--trials", "2"]]
    script = (
        "import json, sys\n"
        "import ferrospin, ferrospin.cli\n"
        "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
        "    out = f'{sys.argv[2]}/out{i}'\n"
        "    assert ferrospin.cli.main([*argv, '--out', out]) == 0, argv\n"
        "print(json.dumps([m for m in sys.modules\n"
        "                  if m.split('.')[0] == 'scipy']))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs), str(tmp_path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_region_single_center_record(path5, tmp_path):
    out = tmp_path / "region.jsonl"
    assert main(["region", "--instance", str(path5), "--center", "2",
                 "--d1", "2", "--d2", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["region"]["center"] == 2
    assert rec["verification"]["ok"] is True


def test_region_record_lists_the_region(path5, tmp_path):
    # on the path 0-1-2-3-4 the walk from 2 stops at branching 2 = d1 and
    # flushes its two children (fewer than d2 = 3)
    out = tmp_path / "region.jsonl"
    assert main(["region", "--instance", str(path5), "--center", "2",
                 "--d1", "2", "--d2", "3", "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["region"] == {"center": 2, "members": [1, 2, 3],
                             "boundary": [0, 4], "d1": 2, "d2": 3}
    region = construct_region(load_instance(str(path5)), 2,
                              RegionParams(d1=2, d2=3))
    assert rec["region"]["members"] == sorted(region.members)
    assert rec["region"]["boundary"] == sorted(region.boundary)


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


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "saw-oracle", "--trials", "2"],
    ["sweep", "--sizes", "3,6", "--max-length", "6"],
], ids=["verify", "sweep"])
@pytest.mark.parametrize("flag", ["--instance", "--rbm"])
def test_commands_without_a_system_reject_instance_flags(argv, flag, capsys):
    # verify and sweep build their own instances; a system file given to
    # them would be ignored, so argparse refuses it
    assert main(argv + [flag, "/nonexistent.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err


def test_sweep_runs_and_writes_report(tmp_path):
    assert main(["sweep", "--sizes", "3,6", "--max-length", "6",
                 "--out", str(tmp_path / "sw")]) == 0
    text = (tmp_path / "sw.csv").read_text()
    assert "all-to-one-influence" in text
    assert "endpoint-influence-decays-log-linearly" in text
    assert main(["sweep", "--sizes", "3;6"]) == 1


@pytest.mark.parametrize("argv", [["--eps", "0.1"], ["--seed", "3"]])
def test_sweep_takes_no_seed_and_no_eps(argv, tmp_path, capsys):
    # the sweep draws nothing and reads no eps; its report header keeps the
    # defaults
    assert main(["sweep", *argv]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["sweep", "--sizes", "3,4", "--max-length", "3",
                 "--out", str(tmp_path / "sw")]) == 0
    head = (tmp_path / "sw.csv").read_text().splitlines()[0]
    assert f"seed=0 eps={constants.DEFAULT_EPS!r}" in head


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
