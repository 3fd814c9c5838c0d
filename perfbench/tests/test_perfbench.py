"""Tests of the benchmark itself: its checks, its counts and its names.

    python3 -m pytest perfbench/tests

The cli and trace tests run the program, so the file takes about a
minute.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from checks import CheckError  # noqa: E402

SEED = 5


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- counts and names --------------------------------------------------------

def test_no_p90_below_100_operations():
    assert "op_s.p90" not in run.op_percentiles([0.1] * 99)
    stats = run.op_percentiles([0.1] * 90 + [0.2] * 10)
    assert stats["op_s.p50"]["value"] == 0.1
    assert "op_s.p90" in stats


def test_names_and_units_match_benchmark_json():
    bench = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_cli_pass_counts_the_wigner_crash():
    """A pass attempts the seven README commands; the 256-node wigner
    command crashes and is the one failure."""
    res = _run("--workload", "cli", "--seed", str(SEED), "--seconds", "0",
               "--trace", "0")
    assert (res["correct"], res["attempted"], res["failed"]) == (True, 7, 1)
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_prints_every_layer_metric():
    res = _run("--workload", "ensemble", "--seed", str(SEED), "--seconds",
               "0", "--trace", "1")
    assert (res["correct"], res["attempted"], res["failed"]) == (True, 100, 0)
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        dict(run.PER_LAYER)
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["dynamics.hamiltonian_flow.steps"] == 100 * round(
        wl.ENSEMBLE_T / wl.ENSEMBLE_DT)
    assert m["thermo.partition_single_direct.calls"] == 0
    assert m["dynamics.hamiltonian_flow.self_s"] > 0


# --- each check rejects a perturbed output -----------------------------------

@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    """The README commands run in-process into one directory each."""
    from ncplane import cli
    base = tmp_path_factory.mktemp("cli")
    dirs = {}
    for name, argv in wl.cli_pass(SEED):
        if name == "wigner":
            continue
        dirs[name] = str(base / name)
        assert cli.main(argv + ["--out-dir", dirs[name]]) == 0
    return dirs


def _edit_csv(path, row, col, fn):
    with open(path) as fh:
        lines = fh.read().split("\n")
    cells = lines[row + 1].split(",")
    cells[col] = repr(fn(float(cells[col])))
    lines[row + 1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def _rejects(name, out_dir, relpath, row, col, fn, match):
    checks.check_cli_command(name, out_dir, SEED)
    _edit_csv(os.path.join(out_dir, relpath), row, col, fn)
    with pytest.raises(CheckError, match=match):
        checks.check_cli_command(name, out_dir, SEED)


def test_trajectory_check_rejects_a_moved_point(cli_outputs):
    _rejects("classical_simulate", cli_outputs["classical_simulate"],
             "trajectory.csv", 7000, 1, lambda v: v + 1e-6, "exact flow")


def test_energy_check_rejects_a_wrong_energy():
    z = checks.linear_flow((0.3, -0.2, 0.5, 0.1), np.linspace(0, 2, 50),
                           1.0, 1.0, 0.3)
    H = checks.oscillator_energy(z, 1.0, 1.0)
    checks.check_energy(z, H, 1.0, 1.0)
    H[10] *= 1 + 1e-9
    with pytest.raises(CheckError, match="H column"):
        checks.check_energy(z, H, 1.0, 1.0)
    z[20:, 0] += 1e-6               # energy no longer conserved
    with pytest.raises(CheckError, match="drift"):
        checks.check_energy(z, checks.oscillator_energy(z, 1.0, 1.0),
                            1.0, 1.0)


def test_spectrum_check_rejects_a_shifted_level(cli_outputs):
    _rejects("spectrum", cli_outputs["spectrum"], "spectrum.csv", 9, 2,
             lambda v: v * (1 + 1e-10), "a\\(n\\+1\\)")


def test_eigenfunction_check_rejects_a_wrong_norm(cli_outputs):
    k = 128 * wl.EIGEN_NODES + 128          # next to the peak
    _rejects("eigenfunction", cli_outputs["eigenfunction"],
             "eigenfunction.csv", k, 2, lambda v: v * 1.01, "norm")


def test_thermo_check_rejects_each_broken_property(cli_outputs):
    rows = checks.read_csv(
        os.path.join(cli_outputs["thermo_sweep"], "thermo_sweep.csv"),
        "T,theta,Z1,A,S,U,Cv,S_per_NkB")

    def run_check(r):
        checks.check_thermo(r, 1.0, 1.0, 1.0, 1.0, np.random.default_rng(0))

    run_check(rows)
    bad = rows.copy()
    bad[500, 5] *= 1 + 1e-8                     # U != A + TS
    with pytest.raises(CheckError, match="U = A"):
        run_check(bad)
    bad = rows.copy()
    low = np.flatnonzero(bad[:, 0] == bad[:, 0].min())
    bad[low[-1], 4] = bad[low[0], 4]            # S flat in theta at low T
    bad[low[-1], 3] = bad[low[-1], 5] - bad[low[-1], 0] * bad[low[-1], 4]
    with pytest.raises(CheckError, match="entropy"):
        run_check(bad)
    bad = rows.copy()
    bad[:, 2] *= 1 + 1e-9                       # Z1 off the level sum
    with pytest.raises(CheckError, match="level sum"):
        run_check(bad)


def test_level_sum_is_the_cosh_form():
    a, b = checks.level_scales(1.0, 1.0, 0.7, 1.0)
    T = 0.8
    closed = 1.0 / (2.0 * (math.cosh(a / T) - math.cosh(b / T)))
    assert abs(checks.level_sum(T, 1.0, 1.0, 0.7) - closed) <= 1e-13 * closed


def test_symmetry_and_algebra_checks_reject_wrong_reports(cli_outputs):
    for name, fname, key, value in (
            ("classical_symmetries", "symmetries.json", "dimension", 4),
            ("algebra_check", "algebra_check.json", "ok", False)):
        path = os.path.join(cli_outputs[name], fname)
        checks.check_cli_command(name, cli_outputs[name], SEED)
        rep = checks.read_json(path)
        rep[key] = value
        with open(path, "w") as fh:
            json.dump(rep, fh)
        with pytest.raises(CheckError):
            checks.check_cli_command(name, cli_outputs[name], SEED)


def test_conserved_bilinears_collapse_from_four_to_two():
    assert checks.conserved_bilinear_dimension(1.0, 1.0, 0.0) == 4
    assert checks.conserved_bilinear_dimension(1.0, 1.0, 0.5) == 2


def test_wigner_bound_rejects_a_value_above_one_over_pi_squared():
    checks.check_wigner_bound([0.1, -0.05], 1.0)
    with pytest.raises(CheckError):
        checks.check_wigner_bound([0.1, 1.0 / math.pi ** 2 * 1.001], 1.0)


def test_selftest_check_rejects_a_failed_line(tmp_path):
    lines = [f"[PASS] {n}: fine (0.10s)" for n in checks.SELFTEST_NAMES]
    rep = {"ok": True, "seed": 1,
           "checks": {n: {"passed": True, "detail": ""}
                      for n in checks.SELFTEST_NAMES}}
    (tmp_path / "selftest.json").write_text(json.dumps(rep))
    checks.check_selftest_output("\n".join(lines), str(tmp_path))
    lines[4] = lines[4].replace("[PASS]", "[FAIL]")
    with pytest.raises(CheckError):
        checks.check_selftest_output("\n".join(lines), str(tmp_path))


@pytest.fixture(scope="module")
def ensemble_round():
    from worker import Ensemble
    return Ensemble(SEED).round()[1]


@pytest.mark.parametrize("key,k,delta,match", [
    ("z_end", 3, 1e-7, "exact flow"),
    ("H_end", 5, 1e-6, "H column"),
    ("W_end", 7, 1e-6, "Liouville"),
])
def test_ensemble_check_rejects_a_perturbed_round(ensemble_round, key, k,
                                                  delta, match):
    checks.check_ensemble_round(ensemble_round, SEED)
    bad = json.loads(json.dumps(ensemble_round))
    if key == "z_end":
        bad[key][k][0] += delta
    else:
        bad[key][k] += delta
    with pytest.raises(CheckError, match=match):
        checks.check_ensemble_round(bad, SEED)


def test_inputs_follow_the_seed():
    assert np.array_equal(wl.ensemble_points(3), wl.ensemble_points(3))
    assert not np.array_equal(wl.ensemble_points(3), wl.ensemble_points(4))
    assert wl.cli_pass(3) == wl.cli_pass(3)
    wig = [a for n, a in wl.cli_pass(3) if n == "wigner"]
    assert wig == [a for n, a in wl.cli_pass(4) if n == "wigner"]
