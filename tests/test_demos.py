"""The demo scripts run clean against the library in `src/`."""

import functools
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ("field_tilt_boost.py", "mixing_time_tour.py", "walk_tree_marginals.py")


@functools.lru_cache(maxsize=None)
def run_demo(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_clean(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip()


def test_mixing_tour_exact_time_sits_in_gap_bracket():
    proc = run_demo("mixing_time_tour.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split()[:3] == ["field", "exact", "t_mix"]
    rows = [line.split() for line in lines[1:] if line.strip()]
    rows = [r for r in rows if len(r) == 5 and r[1].isdigit()]
    assert len(rows) == 5
    for _, t_exact, lower, upper, _ in rows:
        assert float(lower) <= int(t_exact) <= float(upper)
