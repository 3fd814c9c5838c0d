"""Command-line frontend: verification suites, sweeps, CSV/JSON artifacts.

Every command reads an optional plain-text config file (key = value lines),
applies command-line flags on top (flags win), and writes deterministic
files: identical config and seed give byte-identical output.  Values are
printed with %.17g (integer columns with %d) so they round-trip exactly.

Exit codes: 0 all checks passed, 1 a named check failed its tolerance or a
numerical consistency check raised CheckFailure (divergence, a non-finite
field value or gradient, U = A + TS, Cv >= 0, Wigner realness), 2
configuration error (bad config, non-finite or invalid parameters), 3
internal error (an unexpected exception, one stderr line, no traceback).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace

# OpenBLAS starts its thread pool when numpy loads; every product here is
# small, so one thread is the default unless the user names a count
if "numpy" not in sys.modules and not os.environ.keys() & {
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .params import CheckFailure, NCParams


class ConfigError(Exception):
    """Bad key, bad value, or unreadable config file."""


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of every command, with its default.

    m, omega, theta, hbar, kB, N: physical parameters.
    dt, t1, x0..py0: integrator step, end time and initial conditions.
    samples, seed, tol: verification controls.
    n_max, n, two_j, nodes, radius: spectral settings (grid is nodes^2
    spanning +-radius natural momentum widths).
    grid, tmin, tmax, theta_max: thermodynamic sweep shape.
    out_dir: where output files go.
    """

    m: float = 1.0
    omega: float = 1.0
    theta: float = 0.0
    hbar: float = 1.0
    kB: float = 1.0
    N: int = 1
    dt: float = 1e-3
    t1: float = 20.0
    x0: float = 1.0
    y0: float = -0.5
    px0: float = 0.2
    py0: float = 0.8
    samples: int = 100
    seed: int = 42
    tol: float = 1e-9
    n_max: int = 4
    n: int = 0
    two_j: int = 0
    nodes: int = 256
    radius: float = 8.0
    grid: str = "40x40"
    tmin: float = 0.1
    tmax: float = 5.0
    theta_max: float = 2.0
    out_dir: str = "."

    def nc(self) -> NCParams:
        return NCParams(m=self.m, omega=self.omega, theta=self.theta,
                        hbar=self.hbar, kB=self.kB)


# the one type map behind config-file values and command-line flags
_FIELD_TYPES = {f.name: {"int": int, "float": float, "str": str}[f.type]
                for f in fields(RunConfig)}
_FLAG_HELP = {"out_dir": "output directory", "seed": "PRNG seed (default 42)",
              "N": "number of oscillators",
              "grid": "sweep grid as TxTHETA, e.g. 40x40"}


def _convert(key: str, raw: str):
    try:
        return _FIELD_TYPES[key](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def parse_config_file(path: str) -> dict:
    """key = value lines; # comments; unknown keys are errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    out = {}
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, raw = (s.strip() for s in text.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = _convert(key, raw)
    return out


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then flags; every float finite."""
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {k: v for k, v in vars(args).items()
                 if k in _FIELD_TYPES and v is not None}
    values = {**file_values, **overrides}
    for key, v in values.items():
        if _FIELD_TYPES[key] is float and not math.isfinite(v):
            raise ConfigError(f"{key} must be finite, got {v!r}")
    if values.get("seed", 0) < 0:
        raise ConfigError(f"seed must be non-negative, got {values['seed']}")
    return replace(RunConfig(), **values)


_BLOCK = 1024  # rows formatted per write; bounds the lists held at once


def _write_csv(path: str, header: str, *cols):
    """Write equal-length columns: %d for integer arrays, %.17g otherwise."""
    cols = [np.asarray(c) for c in cols]
    line = ",".join("%d" if c.dtype.kind in "iu" else "%.17g"
                    for c in cols) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for a in range(0, len(cols[0]), _BLOCK):
            block = zip(*(c[a:a + _BLOCK].tolist() for c in cols))
            fh.write("".join(line % row for row in block))


def _write_json(path: str, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _reserve(key: str, value, rows: int, what: str, cols: int):
    """Allocate the untouched output first: numpy refuses an impossible size."""
    try:
        np.empty((rows, cols))
    except (MemoryError, ValueError) as exc:
        raise MemoryError(f"{key} = {value} asks for {rows} {what}: "
                          f"{exc}") from None


def _out(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def cmd_algebra_check(cfg: RunConfig) -> int:
    from .phasespace import FieldEvaluationError, sample_points, verify_algebra
    pts, p = sample_points(cfg.samples, seed=cfg.seed), cfg.nc()
    run = {"tol": cfg.tol, "samples": cfg.samples, "seed": cfg.seed,
           "params": {"m": cfg.m, "theta": cfg.theta}}
    try:
        report = verify_algebra(p, samples=pts, tol=cfg.tol)
    except FieldEvaluationError as exc:  # no residuals, but still a report
        _write_json(_out(cfg, "algebra_check.json"),
                    {**run, "error": str(exc), "ok": False})
        raise
    for name, r, ok in report.rows():
        print(f"  {'ok ' if ok else 'FAIL'} {name:24s} {r:.3e}")
    _write_json(_out(cfg, "algebra_check.json"), {
        "checks": {name: {"residual": r, "ok": ok}
                   for name, r, ok in report.rows()},
        "max_residual": report.max_residual(),
        **run,
        "ok": report.ok,
    })
    print(f"algebra-check: max residual {report.max_residual():.3e} "
          f"(tol {cfg.tol:g}) -> {'ok' if report.ok else 'FAIL'}")
    return 0 if report.ok else 1


def cmd_classical_simulate(cfg: RunConfig) -> int:
    from . import dynamics
    from .phasespace import PhasePoint
    p = cfg.nc()
    z0 = PhasePoint(cfg.x0, cfg.y0, cfg.px0, cfg.py0)
    H = dynamics.oscillator_hamiltonian(p)  # the free particle at omega = 0
    traj = dynamics.hamiltonian_flow(H, z0, 0.0, cfg.t1, cfg.dt, p)
    traj = dynamics.noether_charges(traj, p, hamiltonian=H)
    names = ("H", "p1", "p2", "J", "k1", "k2")
    _write_csv(_out(cfg, "trajectory.csv"), "t,x,y,px,py,H,p1,p2,J,k1,k2",
               traj.times, *traj.points.T, *(traj.charges[k] for k in names))
    drift = dynamics.charge_drift(traj)
    # the generating Hamiltonian must be conserved by the integrator
    ok = drift["H"] < 1e-8
    _write_json(_out(cfg, "charge_drift.json"), {
        "drift": drift,
        "conserved_tol": 1e-8,
        "energy_conserved": ok,
        "steps": len(traj) - 1,
        "dt": cfg.dt,
    })
    for k in names:
        print(f"  drift {k:3s} {drift[k]:.3e}")
    print(f"classical simulate: {len(traj) - 1} steps, energy drift "
          f"{drift['H']:.3e} -> {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_classical_symmetries(cfg: RunConfig) -> int:
    from . import symmetries
    p = cfg.nc()
    basis = symmetries.conserved_bilinears(p)
    probes = symmetries.expected_conserved(p)
    expected = len(probes)
    member = max(symmetries.membership_check(S, basis) for S in probes)
    c, res = symmetries.structure_constants(basis.forms, p)
    ok = basis.dimension == expected and member < 1e-10
    _write_json(_out(cfg, "symmetries.json"), {
        "dimension": basis.dimension,
        "expected_dimension": expected,
        "membership_residual": member,
        "structure_constants": [[[float(v) for v in row] for row in mat]
                                for mat in c],
        "closure_residual": float(np.max(res)),
        "theta": p.theta,
        "ok": ok,
    })
    print(f"classical symmetries: dimension {basis.dimension} "
          f"(expected {expected}), membership {member:.3e} "
          f"-> {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_spectrum(cfg: RunConfig) -> int:
    from . import spectra
    p = cfg.nc()
    _reserve("n_max", cfg.n_max, max(cfg.n_max + 1, 0) * (cfg.n_max + 2) // 2,
             "levels", 3)
    entries = spectra.spectrum(cfg.n_max, p)
    _write_csv(_out(cfg, "spectrum.csv"), "n,two_j,E",
               *zip(*((e.n, e.two_j, e.E) for e in entries)))
    print(f"spectrum: {len(entries)} levels up to n = {cfg.n_max}, "
          f"ground energy {entries[0].E:.17g}")
    return 0


def cmd_eigenfunction(cfg: RunConfig) -> int:
    from . import spectra
    p = cfg.nc()
    axes = spectra.momentum_grid(p, cfg.nodes, cfg.radius)
    psi = spectra.eigenfunction(cfg.n, cfg.two_j, p, axes)
    rh, rj = spectra.eigen_residuals(psi, cfg.n, cfg.two_j, p)
    vals = psi.grid().values.ravel()  # row-major: py varies fastest
    _write_csv(_out(cfg, "eigenfunction.csv"), "px,py,re,im",
               np.repeat(axes[0], axes[1].size),
               np.tile(axes[1], axes[0].size), vals.real, vals.imag)
    ok = rh < 1e-6 and rj < 1e-6
    _write_json(_out(cfg, "eigenfunction.json"), {
        "n": cfg.n,
        "two_j": cfg.two_j,
        "energy": spectra.energy(cfg.n, cfg.two_j, p),
        "residual_H": rh,
        "residual_J": rj,
        "tail_ratio": spectra.tail_ratio(vals.reshape(axes[0].size, -1)),
        "tol": 1e-6,
        "nodes": cfg.nodes,
        "radius": cfg.radius,
        "ok": ok,
    })
    print(f"eigenfunction ({cfg.n},{cfg.two_j}): residuals H {rh:.3e}, "
          f"J {rj:.3e} -> {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_wigner(cfg: RunConfig) -> int:
    from . import spectra, wigner
    p = cfg.nc()
    axes = spectra.momentum_grid(p, cfg.nodes, cfg.radius)
    W = wigner.QuadratureWigner(
        spectra.eigenfunction(cfg.n, cfg.two_j, p, axes), p)
    stride = max(1, (cfg.nodes - 1) // 64)
    xs = axes[0][::stride]
    pxs = np.linspace(-cfg.radius * p.width / 2, cfg.radius * p.width / 2, 41)
    vals = W.at(xs[:, None], 0.0, pxs[None, :], 0.0)
    _write_csv(_out(cfg, "wigner_slice.csv"), "c1,c2,W",
               np.repeat(xs, pxs.size), np.tile(pxs, xs.size), vals.ravel())
    kmin = np.unravel_index(np.argmin(vals), vals.shape)
    wmin = float(vals[kmin])
    negative = wmin < -1e-12 / (math.pi * p.hbar) ** 2
    _write_json(_out(cfg, "wigner.json"), {
        "n": cfg.n,
        "two_j": cfg.two_j,
        "slice": "W(x, 0, px, 0)",
        "min_W": wmin,
        "W_origin": W.at(0.0, 0.0, 0.0, 0.0),
        "min_at": {"x": float(xs[kmin[0]]), "px": float(pxs[kmin[1]])},
        "negative_region_found": negative,
    })
    print(f"wigner ({cfg.n},{cfg.two_j}): slice minimum {wmin:.6g} at "
          f"x={xs[kmin[0]]:.4g}, px={pxs[kmin[1]]:.4g}; negativity "
          f"{'found' if negative else 'not found'}")
    return 0


def _parse_grid(spec: str):
    try:
        a, b = spec.lower().split("x")
        nt, nth = int(a), int(b)
    except ValueError as exc:
        raise ConfigError(f"bad grid {spec!r}, expected like 40x40") from exc
    if nt < 2 or nth < 2:
        raise ConfigError(f"grid must be at least 2x2, got {spec!r}")
    return nt, nth


def cmd_thermo_sweep(cfg: RunConfig) -> int:
    from . import thermo
    nt, nth = _parse_grid(cfg.grid)
    if cfg.tmin <= 0 or cfg.tmax <= cfg.tmin:
        raise ConfigError("need 0 < tmin < tmax")
    _reserve("grid", cfg.grid, nt * nth, "rows", 8)
    temps = np.linspace(cfg.tmin, cfg.tmax, nt)
    thetas = np.linspace(0.0, cfg.theta_max, nth)
    rows = thermo.entropy_sweep([float(T) for T in temps], cfg.nc(),
                                thetas=[float(t) for t in thetas], N=cfg.N)
    csv_name = "thermo_sweep.csv"
    header = "T,theta,Z1,A,S,U,Cv,S_per_NkB"
    _write_csv(_out(cfg, csv_name), header,
               *([getattr(r, k) for r in rows] for k in header.split(",")))
    picks = sorted({thetas[0], thetas[nth // 2], thetas[-1]})
    _write_surface_script(_out(cfg, "entropy_surface.gp"), csv_name, nt, nth)
    _write_curves_script(_out(cfg, "entropy_curves.gp"), csv_name, picks)
    print(f"thermo sweep: {len(rows)} rows over T in [{cfg.tmin:g}, "
          f"{cfg.tmax:g}] x theta in [0, {cfg.theta_max:g}]")
    return 0


def _write_surface_script(path, csv_name, nt, nth):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            "# Normalized entropy surface over temperature and deformation\n"
            "set datafile separator ','\n"
            "set xlabel 'T'\n"
            "set ylabel 'theta'\n"
            "set zlabel 'S/(N kB)'\n"
            f"set dgrid3d {nth},{nt}\n"
            "set hidden3d\n"
            f"splot '{csv_name}' every ::1 using 1:2:8 with lines notitle\n"
            "pause -1\n")


def _write_curves_script(path, csv_name, picks):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            "# Normalized entropy vs temperature at fixed deformation\n"
            "set datafile separator ','\n"
            "set xlabel 'T'\n"
            "set ylabel 'S/(N kB)'\n"
            "set key left top\n")
        parts = [
            f"'{csv_name}' every ::1 using 1:(abs($2 - {t:.17g}) < 1e-12 ? "
            f"$8 : 1/0) with lines title 'theta = {t:g}'"
            for t in picks]
        fh.write("plot " + ", \\\n     ".join(parts) + "\n")
        fh.write("pause -1\n")


def cmd_selftest(cfg: RunConfig) -> int:
    from . import selftest
    try:
        results = selftest.run_all(seed=cfg.seed)
    except ValueError as exc:  # build_config checked the seed: a fault
        return _internal(exc)
    for r in results:
        print(r.line())
    total = sum(r.seconds for r in results)
    ok = all(r.passed for r in results)
    _write_json(_out(cfg, "selftest.json"), {
        "checks": {r.name: {"passed": r.passed, "detail": r.detail}
                   for r in results},
        "seed": cfg.seed,
        "ok": ok,
    })
    print(f"selftest: {sum(r.passed for r in results)}/{len(results)} "
          f"passed in {total:.1f}s -> {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def _add_shared(parser: argparse.ArgumentParser):
    """--config plus one --key flag per RunConfig field, typed as the field."""
    g = parser.add_argument_group("shared parameters")
    g.add_argument("--config", help="plain-text key = value config file")
    for name, kind in _FIELD_TYPES.items():
        g.add_argument("--" + name.replace("_", "-"), type=kind,
                       help=_FLAG_HELP.get(name))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncplane",
        description="Classical and quantum mechanics on the "
                    "noncommutative plane: verification suites and sweeps.")
    # (command words, function, help); a group without a function takes
    # the subcommands listed after it
    commands = (
        ("algebra-check", cmd_algebra_check,
         "verify all eight bracket relations at random points"),
        ("spectrum", cmd_spectrum, "tabulate oscillator energies up to n-max"),
        ("eigenfunction", cmd_eigenfunction,
         "evaluate one eigenfunction on a grid and its operator residuals"),
        ("wigner", cmd_wigner, "quadrature Wigner slice and negativity search"),
        ("selftest", cmd_selftest, "run the full deterministic check suite"),
        ("classical", None, "classical dynamics tools"),
        ("classical simulate", cmd_classical_simulate,
         "integrate a trajectory and track charges"),
        ("classical symmetries", cmd_classical_symmetries,
         "conserved-bilinear nullspace and structure constants"),
        ("thermo", None, "thermodynamics tools"),
        ("thermo sweep", cmd_thermo_sweep, "entropy sweep over (T, theta)"),
    )
    subs = {"": parser.add_subparsers(dest="command", required=True)}
    for words, fn, help_text in commands:
        group, _, name = words.rpartition(" ")
        sp = subs[group].add_parser(name, help=help_text)
        if fn is None:
            subs[name] = sp.add_subparsers(dest="subcommand", required=True)
        else:
            _add_shared(sp)
            sp.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        return args.fn(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a --nodes grid of 1e12 points
        print(f"configuration error: {str(exc) or 'out of memory'}: the "
              "result is too large to allocate", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault in the program, not a missed tolerance
        return _internal(exc)


def _internal(exc: Exception) -> int:
    print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
