"""Self-tests of the benchmark: each checker rejects a doctored output, and
the smoke size runs every workload, traced and untraced, in seconds.

    python3 -m pytest bench -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def oracle(name):
    return checks.ModelOracle.from_file(os.path.join(BENCH, "configs", name))


def exact_path(orc, n=64, seed=3):
    """A path that meets the implicit equation exactly: choose y, derive z."""
    t = np.linspace(0.0, 1.0, n + 1)
    rng = np.random.default_rng(seed)
    lo, hi = orc.phi(t), orc.psi(t)
    mid = 0.5 * (lo + hi) if hi is not None else lo + 1.0
    y = mid + 0.3 * np.tanh(rng.standard_normal(n + 1))
    z = y[1:] - orc.drift(t[1:], y[1:]) * (t[1] - t[0])
    noise = np.concatenate([[0.0], np.cumsum(z - y[:-1])])
    return t, y, noise


@pytest.mark.parametrize("name", ["cir_fbm.json", "tsb_fbm.json", "power_mbm.json"])
def test_sandwich_check_rejects_a_value_on_a_barrier(name):
    orc = oracle(name)
    t, y, _ = exact_path(orc)
    assert checks.sandwich_violations(orc, t, y) == 0
    y[7] = orc.phi(t[7])
    assert checks.sandwich_violations(orc, t, y) == 1
    if orc.psi(t) is not None:
        y[9] = orc.psi(t[9]) + 1e-3
        assert checks.sandwich_violations(orc, t, y) == 2


@pytest.mark.parametrize("name", ["cir_fbm.json", "tsb_fbm.json", "power_mbm.json"])
def test_residual_check_rejects_a_step_above_tol(name):
    orc = oracle(name)
    t, y, noise = exact_path(orc)
    assert checks.residual_violations(orc, t, y, noise, 1e-12) == 0
    y[20] += 1e-9
    # The perturbed value breaks its own step and the next one.
    assert checks.residual_violations(orc, t, y, noise, 1e-12) == 2


def test_residual_check_rechecks_with_the_exact_drift():
    orc = oracle("cir_fbm.json")
    t, y, noise = exact_path(orc)
    y[20] += 1e-9
    assert checks.residual_violations(orc, t, y, noise, 1e-12,
                                      exact_drift=lambda s, v: 1.0 / v - v) == 2

    def off_domain(s, v):
        raise ValueError("outside")

    assert checks.residual_violations(orc, t, y, noise, 1e-12,
                                      exact_drift=off_domain) == 2


def test_slope_check_rejects_a_slope_outside_the_band():
    deltas = 1.0 / np.array([64, 128, 256, 512, 1024])
    assert abs(checks.fitted_slope(deltas, 0.3 * deltas ** 0.69) - 0.69) < 1e-12
    assert checks.slope_problem("cir", 0.69) is None
    assert checks.slope_problem("cir", 0.5) is not None
    assert checks.slope_problem("cir", 0.9) is not None


def test_containment_check_needs_99_percent():
    assert checks.containment_problem("tsb", 99, 100) is None
    assert checks.containment_problem("tsb", 98, 100) is not None
    assert checks.containment_problem("tsb", 0, 0) is not None


def test_cli_check_rejects_a_missing_csv(tmp_path):
    seeds = [5, 6]
    manifest = {"paths": [{"seed": s, "file": f"path_{s}.csv", "sandwich_ok": True}
                          for s in seeds]}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    for s in seeds:
        (tmp_path / f"path_{s}.csv").write_text("t,y\n0.0,1.0\n1.0,1.5\n")
    assert checks.cli_output_problems(str(tmp_path), seeds) == []
    os.unlink(tmp_path / "path_6.csv")
    assert checks.cli_output_problems(str(tmp_path), seeds) == ["path_6.csv is missing"]
    os.unlink(tmp_path / "manifest.json")
    assert checks.cli_output_problems(str(tmp_path), seeds)


def test_reference_check_allows_reordering_but_not_drift():
    ref = {"path:x": [1.0, 0.5, 0.0]}
    assert checks.reference_problems({"path:x": [1.0 + 1e-13, 0.5, 1e-14]}, ref) == []
    assert checks.reference_problems({"path:x": [1.0, 0.5 * (1 + 1e-6), 0.0]}, ref)
    assert checks.reference_problems({"path:y": [1.0]}, ref)


def test_tail_keeps_ten_samples_beyond_it():
    value, pct, n = checks.tail(range(1, 101))
    assert (value, n) == (90, 100) and pct == 89.0
    value, pct, n = checks.tail(range(1, 13))  # too few: the median rank
    assert (value, pct, n) == (6, 500 / 12, 12)


def test_smoke_run_covers_every_workload_and_metric():
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == {"smoke_ok": True}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert f"{workload['name']}  {metric['name']} " in proc.stdout


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli_fbm_closed",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
