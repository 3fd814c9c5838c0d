"""CLI behavior: config handling, determinism, file formats, exit codes."""

import argparse
import json
import math
import pathlib
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from ncplane import (cli, dynamics, phasespace, selftest, spectra, thermo,
                     wigner)
from ncplane.cli import ConfigError, RunConfig, build_config, parse_config_file
from ncplane.params import CheckFailure, NCParams
from ncplane.phasespace import FieldEvaluationError, PhasePoint


def _args(**kw):
    ns = argparse.Namespace(config=None)
    for k in cli._FIELD_TYPES:
        setattr(ns, k, None)
    for k, v in kw.items():
        setattr(ns, k, v)
    return ns


def test_config_file_parsing(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("theta = 0.5\n\n# comment\nsamples=50   # trailing\nseed = 7\n")
    assert parse_config_file(str(f)) == {"theta": 0.5, "samples": 50, "seed": 7}


def test_config_file_rejects_unknown_key(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("not_a_key = 3\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_file(str(f))


def test_config_file_rejects_bad_value(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("theta = abc\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_file(str(f))


def test_config_file_rejects_missing_equals(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("just some words\n")
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config_file(str(f))


def test_config_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file("/nonexistent/nothing.cfg")


def test_default_seed_is_42():
    assert RunConfig().seed == 42
    assert build_config(_args()).seed == 42


def test_flag_beats_config_and_env(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("seed = 7\ntheta = 0.5\nsamples = 5\n")
    cfg = build_config(_args(config=str(f), seed=3, theta=1.5))
    assert cfg.seed == 3 and cfg.theta == 1.5 and cfg.samples == 5


COMMANDS = (["algebra-check"], ["spectrum"], ["eigenfunction"], ["wigner"],
            ["selftest"], ["classical", "simulate"],
            ["classical", "symmetries"], ["thermo", "sweep"])


def _documented_keys():
    """(key, type) rows of the config-key table in docs/formats.md."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "docs"
            / "formats.md").read_text(encoding="utf-8")
    table = text.split("All keys, their types", 1)[1].split("\n\n", 2)[1]
    rows = [[c.strip() for c in line.strip("|").split("|")]
            for line in table.splitlines()[2:]]
    return [(k, kind) for keys, kind, *_ in rows for k in keys.split(",")]


def test_documented_keys_are_the_config_fields():
    assert _documented_keys() == [(f.name, f.type) for f in fields(RunConfig)]


def test_every_config_field_is_a_typed_flag():
    parser, samples = cli.build_parser(), {int: "3", float: "0.25", str: "abc"}
    for f in fields(RunConfig):
        kind = {"int": int, "float": float, "str": str}[f.type]
        flag = "--" + f.name.replace("_", "-")
        for cmd in COMMANDS:
            args = parser.parse_args(cmd + [flag, samples[kind]])
            got = getattr(args, f.name)
            assert type(got) is kind and got == kind(samples[kind]), flag
            assert build_config(args) == replace(RunConfig(),
                                                 **{f.name: got})


def test_algebra_check_writes_report_and_exits_zero(tmp_path, capsys):
    rc = cli.main(["algebra-check", "--theta", "0.7", "--samples", "100",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "algebra_check.json").read_text())
    assert report["ok"] is True
    assert report["max_residual"] < 1e-9
    assert len(report["checks"]) == 8
    assert "ok" in capsys.readouterr().out


def test_algebra_check_fails_on_unreachable_tolerance(tmp_path, capsys):
    # theta != 0 leaves float-rounding residuals, which 1e-20 cannot pass
    rc = cli.main(["algebra-check", "--theta", "0.7", "--tol", "1e-20",
                   "--out-dir", str(tmp_path)])
    assert rc == 1
    report = json.loads((tmp_path / "algebra_check.json").read_text())
    assert report["ok"] is False


def test_non_finite_bracket_is_a_check_failure(tmp_path, capsys):
    # m^2 overflows in {k1,k2}; before, this was an internal error (exit 3)
    rc = cli.main(["algebra-check", "--m", "1e200", "--theta", "0.5",
                   "--samples", "2", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "check failed: field '{k1,k2}' returned nan")


def test_non_finite_charge_is_a_check_failure(tmp_path, capsys):
    # px^2 overflows in H_osc and J; before, this wrote inf/nan columns and a
    # bare NaN into charge_drift.json, with RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["classical", "simulate", "--px0", "1e200", "--t1", "1",
                       "--dt", "0.1", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "check failed: field 'H_osc' returned inf")
    assert list(tmp_path.iterdir()) == []


def test_free_particle_far_out_is_exact(tmp_path):
    # at omega = 0, H_osc evaluated 0 * (x^2 + y^2) = 0 * inf = nan at
    # x = 1e200 and the run exited 1
    rc = cli.main(["classical", "simulate", "--omega", "0", "--x0", "1e200",
                   "--t1", "1", "--dt", "0.1", "--out-dir", str(tmp_path)])
    assert rc == 0
    rows = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
    px, py, H = rows[:, 3], rows[:, 4], rows[:, 5]
    assert np.array_equal(H, (px * px + py * py) * 0.5)


@pytest.mark.parametrize("n", ["-3", "0"])
def test_too_few_samples_exit_two_naming_the_key(tmp_path, capsys, n):
    rc = cli.main(["algebra-check", "--samples", n, "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.strip() == (
        f"configuration error: samples must be at least 1, got {n}")


@pytest.mark.parametrize("argv", [["selftest"], ["algebra-check"]])
def test_negative_seed_exits_two_naming_the_key(tmp_path, capsys, argv):
    # selftest exited 3 with numpy's "expected non-negative integer"
    rc = cli.main([*argv, "--seed", "-1", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "seed" in err and err.startswith("configuration error: ")


def test_low_temperature_sweep_is_the_zero_temperature_limit(tmp_path):
    # kB T^2 underflows below T = 1.5e-162: this sweep crashed with
    # ZeroDivisionError (exit 3)
    rc = cli.main(["thermo", "sweep", "--tmin", "1e-300", "--tmax", "1e-299",
                   "--grid", "2x2", "--out-dir", str(tmp_path)])
    assert rc == 0
    rows = np.loadtxt(tmp_path / "thermo_sweep.csv", delimiter=",", skiprows=1)
    assert rows.shape == (4, 8)
    assert np.all(rows[:, [4, 6, 7]] == 0.0)      # S, Cv, S_per_NkB


def test_underflowing_kB_T_exits_two(tmp_path, capsys):
    rc = cli.main(["thermo", "sweep", "--kB", "1e-300", "--tmin", "1e-30",
                   "--tmax", "1e-29", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: kB*T = 0.0 underflows")
    assert list(tmp_path.iterdir()) == []


def test_overflowing_beta_hbar_omega_exits_two(tmp_path, capsys):
    # this exited 2 blaming kB*T*T; at theta = 0.3 the same point was a row
    # with A = inf
    rc = cli.main(["thermo", "sweep", "--hbar", "10", "--tmin", "1e-308",
                   "--tmax", "2e-308", "--grid", "2x2",
                   "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "configuration error: beta*hbar*omega = inf at T=1e-308")
    assert list(tmp_path.iterdir()) == []


def test_high_temperature_sweep_reaches_equipartition(tmp_path):
    # from T = 1e8 this sweep exited 2 with "math domain error"
    rc = cli.main(["thermo", "sweep", "--tmin", "1e7", "--tmax", "1e12",
                   "--grid", "3x3", "--out-dir", str(tmp_path)])
    assert rc == 0
    rows = np.loadtxt(tmp_path / "thermo_sweep.csv", delimiter=",", skiprows=1)
    assert rows.shape == (9, 8)
    T, U, Cv = rows[:, 0], rows[:, 5], rows[:, 6]
    NkB = 1.0                                   # the defaults N = kB = 1
    assert np.all(np.abs(Cv - 2.0 * NkB) <= 1e-6)
    assert np.all(np.abs(U - 2.0 * NkB * T) <= 1e-6 * 2.0 * NkB * T)


def test_non_finite_bracket_still_writes_a_report(tmp_path, capsys):
    out = tmp_path / "new"              # the run must create it
    rc = cli.main(["algebra-check", "--m", "1e200", "--theta", "0.5",
                   "--samples", "2", "--out-dir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("check failed: ")
    report = json.loads((out / "algebra_check.json").read_text())
    assert report == {
        "ok": False, "error": err[len("check failed: "):].rstrip("\n"),
        "tol": 1e-9, "samples": 2, "seed": 42,
        "params": {"m": 1e200, "theta": 0.5}}


def test_unknown_config_key_exits_two(tmp_path, capsys):
    f = tmp_path / "run.cfg"
    f.write_text("bogus = 1\n")
    rc = cli.main(["algebra-check", "--config", str(f),
                   "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err


def test_invalid_level_exits_two(tmp_path, capsys):
    rc = cli.main(["eigenfunction", "--n", "2", "--two-j", "1",
                   "--out-dir", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("argv", [["spectrum"], ["eigenfunction"], ["wigner"],
                                  ["thermo", "sweep"],
                                  ["classical", "symmetries"]])
def test_oscillator_commands_need_omega(tmp_path, capsys, argv):
    rc = cli.main([*argv, "--omega", "0", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "requires omega > 0" in capsys.readouterr().err


def test_unexpected_exception_exits_three(tmp_path, capsys, monkeypatch):
    def boom(cfg):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(cli, "cmd_spectrum", boom)
    rc = cli.main(["spectrum", "--out-dir", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.strip() == "internal error: RuntimeError: injected fault"


@pytest.mark.parametrize("name, message", [
    ("entropy", "thermodynamic identity U = A + TS violated"),
    ("heat_capacity", "negative heat capacity"),
])
def test_thermo_check_failure_exits_one(tmp_path, capsys, monkeypatch,
                                        name, message):
    kernel = thermo._closed_forms

    def broken(T, tp):
        # the kernel returns (ln Z1, U, S, Cv); spoil S or Cv
        forms = list(kernel(T, tp))
        forms[{"entropy": 2, "heat_capacity": 3}[name]] = -1e6
        return tuple(forms)

    monkeypatch.setattr(thermo, "_closed_forms", broken)
    rc = cli.main(["thermo", "sweep", "--grid", "2x2",
                   "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"check failed: {message}")


def test_wigner_realness_failure_exits_one(tmp_path, capsys, monkeypatch):
    corr = wigner.QuadratureWigner._corr

    def tilted(self, i, j, out, r):
        return np.multiply(corr(self, i, j, out, r), 1j, out=out)

    monkeypatch.setattr(wigner.QuadratureWigner, "_corr", tilted)
    rc = cli.main(["wigner", "--n", "0", "--two-j", "0", "--nodes", "65",
                   "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "check failed: transform lost realness")


@pytest.mark.parametrize("exc", [IndexError("index 9 is out of bounds"),
                                 ValueError("operands could not broadcast")])
def test_selftest_fault_exits_three(tmp_path, capsys, monkeypatch, exc):
    @selftest._check("faulty")
    def faulty(seed):
        raise exc

    monkeypatch.setattr(selftest, "ALL_CHECKS", (faulty,))
    rc = cli.main(["selftest", "--out-dir", str(tmp_path)])
    assert rc == 3
    out = capsys.readouterr()
    assert out.err.startswith(f"internal error: {type(exc).__name__}: ")
    assert "[FAIL]" not in out.out


def test_selftest_check_failure_prints_fail_and_exits_one(tmp_path, capsys,
                                                         monkeypatch):
    @selftest._check("missed")
    def missed(seed):
        raise CheckFailure("residual 1e-3 above 1e-9")

    monkeypatch.setattr(selftest, "ALL_CHECKS", (missed,))
    rc = cli.main(["selftest", "--out-dir", str(tmp_path)])
    assert rc == 1
    out = capsys.readouterr().out
    assert out.startswith("[FAIL] missed: raised CheckFailure(")
    assert json.loads((tmp_path / "selftest.json").read_text())["ok"] is False


def test_failed_check_keeps_its_name(monkeypatch):
    # a CheckFailure is reported under the name the check passes with
    def non_finite(*args, **kwargs):
        raise FieldEvaluationError("bracket value is not finite")

    monkeypatch.setattr(phasespace, "verify_algebra", non_finite)
    r = selftest.check_algebra(seed=42)
    assert (r.name, r.passed) == ("galilei-algebra", False)
    assert r.detail.startswith("raised FieldEvaluationError(")
    assert selftest.check_algebra.__name__ == "check_algebra"
    monkeypatch.setattr(selftest, "ALL_CHECKS", (selftest.check_algebra,))
    assert [r.name for r in selftest.run_all()] == ["galilei-algebra"]


def test_spectrum_csv_round_trips_energies(tmp_path, capsys):
    rc = cli.main(["spectrum", "--n-max", "3", "--theta", "1",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "n,two_j,E"
    assert len(lines) == 1 + 10
    p = NCParams(m=1.0, omega=1.0, theta=1.0)
    for line in lines[1:]:
        n, two_j, E = line.split(",")
        assert float(E) == spectra.energy(int(n), int(two_j), p)


def test_trajectory_csv_shape_and_header(tmp_path, capsys):
    rc = cli.main(["classical", "simulate", "--theta", "0.3", "--t1", "0.5",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x,y,px,py,H,p1,p2,J,k1,k2"
    assert len(lines) == 1 + 501
    drift = json.loads((tmp_path / "charge_drift.json").read_text())
    assert drift["energy_conserved"] is True
    assert drift["drift"]["H"] < 1e-8


def test_free_particle_simulate_conserves_all_charges(tmp_path, capsys):
    rc = cli.main(["classical", "simulate", "--omega", "0", "--theta", "0.4",
                   "--t1", "2", "--out-dir", str(tmp_path)])
    assert rc == 0
    drift = json.loads((tmp_path / "charge_drift.json").read_text())
    assert all(v < 1e-10 for v in drift["drift"].values())


def test_symmetries_report(tmp_path, capsys):
    rc = cli.main(["classical", "symmetries", "--theta", "0.5",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "symmetries.json").read_text())
    assert rep["dimension"] == 2 and rep["expected_dimension"] == 2
    assert rep["membership_residual"] < 1e-10
    rc = cli.main(["classical", "symmetries", "--theta", "0",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "symmetries.json").read_text())
    assert rep["dimension"] == 4


def test_eigenfunction_outputs(tmp_path, capsys):
    # the 1e-6 residual gate is calibrated for the default 256-node grid
    rc = cli.main(["eigenfunction", "--n", "1", "--two-j", "-1",
                   "--theta", "0.3", "--out-dir", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "eigenfunction.json").read_text())
    assert rep["ok"] is True and rep["residual_H"] < 1e-6
    lines = (tmp_path / "eigenfunction.csv").read_text().splitlines()
    assert lines[0] == "px,py,re,im"
    assert len(lines) == 1 + 256 * 256


def test_eigenfunction_coarse_grid_fails_residual_gate(tmp_path, capsys):
    rc = cli.main(["eigenfunction", "--n", "1", "--two-j", "-1",
                   "--theta", "0.3", "--nodes", "65",
                   "--out-dir", str(tmp_path)])
    assert rc == 1
    rep = json.loads((tmp_path / "eigenfunction.json").read_text())
    assert rep["ok"] is False


def test_eigenfunction_on_seven_nodes_exits_two(tmp_path, capsys):
    # the stencil band of 3 left one interior node: an IndexError, exit 3
    rc = cli.main(["eigenfunction", "--nodes", "7", "--out-dir",
                   str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == ("configuration error: band 3 leaves "
                                       "under two interior nodes\n")
    # eight nodes keep two interior nodes and miss the residual gate
    with pytest.warns(RuntimeWarning, match="coarse"):
        rc = cli.main(["eigenfunction", "--nodes", "8", "--out-dir",
                       str(tmp_path)])
    assert rc == 1


def test_unallocatable_time_grid_exits_two_naming_dt(tmp_path, capsys):
    # numpy refuses 1e300 steps before allocating anything
    rc = cli.main(["classical", "simulate", "--t1", "1", "--dt", "1e-300",
                   "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "configuration error: dt = 1e-300 on [0.0, 1.0] needs 1e+300 "
        "steps, a time grid too large to allocate\n")
    assert not (tmp_path / "trajectory.csv").exists()


def test_wigner_negativity_search(tmp_path, capsys):
    rc = cli.main(["wigner", "--n", "1", "--two-j", "1", "--theta", "0.3",
                   "--nodes", "65", "--out-dir", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "wigner.json").read_text())
    assert rep["negative_region_found"] is True
    assert rep["min_W"] == pytest.approx(-1.0 / math.pi ** 2, rel=1e-6)
    lines = (tmp_path / "wigner_slice.csv").read_text().splitlines()
    assert lines[0] == "c1,c2,W"


def test_wigner_readme_line_at_default_nodes(tmp_path, capsys):
    # the README's line as written: 256 nodes, py = 0 between nodes
    rc = cli.main(["wigner", "--n", "1", "--two-j", "1", "--theta", "0.3",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "wigner.json").read_text())
    assert rep["negative_region_found"] is True
    rows = np.loadtxt(tmp_path / "wigner_slice.csv", delimiter=",",
                      skiprows=1)
    assert rows.shape == (86 * 41, 3)
    assert np.abs(rows[:, 2]).max() <= 1.0 / math.pi ** 2


def test_wigner_ground_state_stays_positive(tmp_path, capsys):
    rc = cli.main(["wigner", "--nodes", "65", "--theta", "0.3",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "wigner.json").read_text())
    assert rep["negative_region_found"] is False


def test_thermo_sweep_files(tmp_path, capsys):
    rc = cli.main(["thermo", "sweep", "--tmin", "0.1", "--tmax", "2",
                   "--theta-max", "1", "--grid", "6x5", "--N", "3",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "thermo_sweep.csv").read_text().splitlines()
    assert lines[0] == "T,theta,Z1,A,S,U,Cv,S_per_NkB"
    assert len(lines) == 1 + 6 * 5
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.1 and first[1] == 0.0
    assert first[7] == pytest.approx(first[4] / 3.0, rel=1e-15)
    surface = (tmp_path / "entropy_surface.gp").read_text()
    curves = (tmp_path / "entropy_curves.gp").read_text()
    assert "thermo_sweep.csv" in surface and "splot" in surface
    assert "thermo_sweep.csv" in curves and curves.count("title") == 3


@pytest.mark.parametrize("argv, key, value, written", [
    (["classical", "simulate", "--t1", "inf"], "t1", "inf", "trajectory.csv"),
    (["classical", "simulate", "--dt", "nan"], "dt", "nan", "trajectory.csv"),
    (["thermo", "sweep", "--grid", "2x2", "--tmax", "nan"], "tmax", "nan",
     "thermo_sweep.csv"),
    (["thermo", "sweep", "--grid", "2x2", "--tmax", "inf"], "tmax", "inf",
     "thermo_sweep.csv"),
    (["algebra-check", "--tol", "nan"], "tol", "nan", "algebra_check.json")])
def test_non_finite_value_is_a_configuration_error(tmp_path, capsys, argv,
                                                   key, value, written):
    # these reached the physics: exit 3 (OverflowError), exit 2 with a
    # message naming no value, exit 0 with an all-NaN CSV, exit 1 as a
    # missed tolerance
    assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: {key} must be finite, got {value}" in err
    assert not (tmp_path / written).exists()


def test_build_config_rejects_non_finite_floats(tmp_path):
    for key in (k for k, kind in cli._FIELD_TYPES.items() if kind is float):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match=f"^{key} must be finite"):
                build_config(_args(**{key: bad}))
    f = tmp_path / "run.cfg"
    f.write_text("tmax = nan\n")
    with pytest.raises(ConfigError, match="tmax must be finite"):
        build_config(_args(config=str(f)))


def test_thermo_sweep_bad_grid_exits_two(tmp_path, capsys):
    assert cli.main(["thermo", "sweep", "--grid", "oops",
                     "--out-dir", str(tmp_path)]) == 2
    assert cli.main(["thermo", "sweep", "--tmin", "2", "--tmax", "1",
                     "--out-dir", str(tmp_path)]) == 2


def test_outputs_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["thermo", "sweep", "--grid", "5x4",
                         "--out-dir", str(out)]) == 0
        assert cli.main(["spectrum", "--theta", "0.3",
                         "--out-dir", str(out)]) == 0
        assert cli.main(["classical", "simulate", "--t1", "0.2",
                         "--theta", "0.3", "--out-dir", str(out)]) == 0
    for name in ("thermo_sweep.csv", "spectrum.csv", "trajectory.csv",
                 "charge_drift.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def _oracle_csv(header, rows):
    """The per-value rule the writer must reproduce: %.17g for floats and
    str() for everything else, one comma-joined line per row."""
    fmt = lambda v: f"{v:.17g}" if isinstance(v, float) else str(v)
    return header + "\n" + "".join(
        ",".join(fmt(v) for v in row) + "\n" for row in rows)


_SPECIAL = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1, 1e300,
            np.float64(2.0) / 3.0]


@pytest.mark.parametrize("n", [0, 1, cli._BLOCK - 1, cli._BLOCK,
                               cli._BLOCK + 1])
def test_writer_matches_per_value_formatting(tmp_path, n):
    floats = [_SPECIAL[i % len(_SPECIAL)] for i in range(n)]
    # %.17g would print 2**62 + 1 in exponent form; %d must not
    ints = np.array([(-1) ** i * (i + (2 ** 62 if i % 5 == 0 else 0))
                     for i in range(n)], dtype=np.int64)
    other = np.random.default_rng(n).standard_normal(n) * 1e-300
    path = tmp_path / "out.csv"
    cli._write_csv(str(path), "f,i,g", floats, ints, other)
    rows = [(floats[k], ints[k], other[k]) for k in range(n)]
    assert path.read_bytes() == _oracle_csv("f,i,g", rows).encode()


def _grid_rows(a, b, values):
    return [(a[i], b[j], *values(i, j))
            for i in range(a.size) for j in range(b.size)]


def test_csv_row_layout_of_every_command(tmp_path, capsys):
    # 33 nodes fail the eigenfunction residual gate (exit 1) but write the
    # CSV; the Wigner transform needs 65 to pass its alias guard
    for argv, rc in ((["eigenfunction", "--nodes", "33"], 1),
                     (["wigner", "--nodes", "65"], 0), (["spectrum"], 0),
                     (["thermo", "sweep", "--grid", "5x4"], 0),
                     (["classical", "simulate", "--t1", "0.2"], 0)):
        assert cli.main([*argv, "--out-dir", str(tmp_path)]) == rc
    p = NCParams()
    axes = spectra.momentum_grid(p, 33, 8.0)
    psi = spectra.eigenfunction(0, 0, p, axes).values
    expected = {"eigenfunction.csv": _oracle_csv("px,py,re,im", _grid_rows(
        *axes, lambda i, j: (psi[i, j].real, psi[i, j].imag)))}

    axes = spectra.momentum_grid(p, 65, 8.0)
    phi = spectra.transform(spectra.eigenfunction(0, 0, p, axes), "xpy", p)
    xs = phi.axis1
    pxs = np.linspace(-4.0 * p.width, 4.0 * p.width, 41)
    W = wigner.QuadratureWigner(phi, p).at(xs[:, None], 0.0, pxs[None, :],
                                           0.0)
    expected["wigner_slice.csv"] = _oracle_csv(
        "c1,c2,W", _grid_rows(xs, pxs, lambda i, j: (W[i, j],)))

    expected["spectrum.csv"] = _oracle_csv(
        "n,two_j,E", [(e.n, e.two_j, e.E) for e in spectra.spectrum(4, p)])

    sweep = thermo.entropy_sweep(
        [float(T) for T in np.linspace(0.1, 5.0, 5)],
        thermo.ThermoParams(nc=p),
        thetas=[float(t) for t in np.linspace(0.0, 2.0, 4)])
    expected["thermo_sweep.csv"] = _oracle_csv(
        "T,theta,Z1,A,S,U,Cv,S_per_NkB",
        [(r.T, r.theta, r.Z1, r.A, r.S, r.U, r.Cv, r.S_per_NkB)
         for r in sweep])

    H = dynamics.oscillator_hamiltonian(p)
    traj = dynamics.hamiltonian_flow(H, PhasePoint(1.0, -0.5, 0.2, 0.8),
                                     0.0, 0.2, 1e-3, p)
    q = dynamics.noether_charges(traj, p, hamiltonian=H).charges
    expected["trajectory.csv"] = _oracle_csv(
        "t,x,y,px,py,H,p1,p2,J,k1,k2",
        [(t, *z, *(q[k][i] for k in ("H", "p1", "p2", "J", "k1", "k2")))
         for i, (t, z) in enumerate(zip(traj.times, traj.points))])

    for name, text in expected.items():
        assert (tmp_path / name).read_bytes() == text.encode(), name
