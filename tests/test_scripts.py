import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_hardness_sweep_script_runs():
    r = subprocess.run(
        [sys.executable, "scripts/hardness_sweep.py"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    assert "partition-monotone" in r.stdout
    assert "min_ratio=0.333333" in r.stdout  # alpha=3.0 decline equality


def test_fractional_convergence_script_runs():
    r = subprocess.run(
        [sys.executable, "scripts/fractional_convergence.py"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert r.returncode == 0, r.stderr
    assert "continuous floor 1/alpha = 0.3178" in r.stdout
    assert "delta=1/100" in r.stdout


def test_ratio_experiment_script_imports():
    # a full run takes tens of seconds; loading the module checks its imports
    code = "import runpy; ns = runpy.run_path('scripts/ratio_experiment.py'); assert callable(ns['main'])"
    r = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    assert r.returncode == 0, r.stderr
