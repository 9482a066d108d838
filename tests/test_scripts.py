import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_morse_index_sweep_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "morse_index_sweep.py"), "--base", "disk:1", "--t-max", "2", "--samples", "5"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "degeneracy scalings below t = 2.0" in proc.stdout
    rows = [line.split() for line in proc.stdout.splitlines() if line[:1] == " " and line.split()[0][0].isdigit()]
    ms = [int(row[1]) for row in rows]
    assert len(ms) == 5 and ms == sorted(ms)


def test_bifurcation_experiment_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bifurcation_experiment.py"), "--grid", "32", "--steps", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "direction +1: 2 points" in proc.stdout
    assert "backtrack toward t = " in proc.stdout
