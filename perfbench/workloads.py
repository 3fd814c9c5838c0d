"""Inputs of the three workloads, made from the benchmark seed.

Only the generated inputs reach the program: command lines for the CLI
workloads and a batch of phase points for the in-process ensemble.  This
module imports numpy but never ncplane, so the harness stays apart from
the code it measures.
"""

from __future__ import annotations

import math

import numpy as np

# ensemble: the theta = 0.3 oscillator, a displaced ground state
ENSEMBLE_PARAMS = {"m": 1.0, "omega": 1.0, "theta": 0.3, "hbar": 1.0}
ENSEMBLE_CENTER = (0.5, -0.3, 0.2, 0.4)
ENSEMBLE_POINTS = 100
ENSEMBLE_T = 0.5
ENSEMBLE_DT = 1e-3

# the README's command lines; classical simulate also gets a seeded
# initial point and algebra-check a seeded sample set
SIMULATE_PARAMS = {"m": 1.0, "omega": 1.0, "theta": 0.3}
SIMULATE_T1, SIMULATE_DT = 20.0, 1e-3
SYMMETRIES_THETA = 0.5
SPECTRUM_N_MAX, SPECTRUM_THETA = 4, 1.0
EIGEN_NODES = 256           # the program's default --nodes
THERMO_GRID = 100

CLI_COMMANDS = ("algebra_check", "classical_simulate", "classical_symmetries",
                "spectrum", "eigenfunction", "wigner", "thermo_sweep")
SELFTEST_CHECKS = ("algebra", "oscillator", "symmetries", "spectrum",
                   "wigner", "thermo")


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def program_seed(seed: int) -> int:
    """The seed handed to the program's own `--seed` flag."""
    return int(_rng(seed).integers(1, 2 ** 31 - 1))


def simulate_start(seed: int) -> tuple:
    """Initial phase point of `classical simulate`, of order one."""
    rng = _rng(seed + 1)
    return tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=4))


def _flag(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def cli_pass(seed: int) -> list:
    """(name, argv) for one pass over the README's command lines.

    The wigner line is the README's own and does not depend on the seed:
    at the default 256 nodes it crashes today, and it stays in the pass
    so that the crash is counted on every run.
    """
    x0, y0, px0, py0 = simulate_start(seed)
    return [
        ("algebra_check", ["algebra-check", "--theta", "0.7", "--samples",
                           "100", "--seed", str(program_seed(seed))]),
        ("classical_simulate", [
            "classical", "simulate",
            "--theta", _flag(SIMULATE_PARAMS["theta"]),
            "--t1", _flag(SIMULATE_T1), "--dt", _flag(SIMULATE_DT),
            "--x0", _flag(x0), "--y0", _flag(y0),
            "--px0", _flag(px0), "--py0", _flag(py0)]),
        ("classical_symmetries", ["classical", "symmetries", "--theta",
                                  _flag(SYMMETRIES_THETA)]),
        ("spectrum", ["spectrum", "--n-max", _flag(SPECTRUM_N_MAX),
                      "--theta", _flag(SPECTRUM_THETA)]),
        ("eigenfunction", ["eigenfunction", "--n", "2", "--two-j", "0",
                           "--theta", "0.3"]),
        ("wigner", ["wigner", "--n", "1", "--two-j", "1", "--theta", "0.3"]),
        ("thermo_sweep", ["thermo", "sweep", "--tmin", "0.05", "--tmax", "5",
                          "--theta-max", "2",
                          "--grid", f"{THERMO_GRID}x{THERMO_GRID}"]),
    ]


def selftest_argv(seed: int) -> list:
    return ["selftest", "--seed", str(program_seed(seed))]


def effective_frequency(m, omega, theta) -> float:
    """w = omega / sqrt(1 + (m omega theta / 2)^2)."""
    return omega / math.sqrt(1.0 + (m * omega * theta) ** 2 / 4.0)


def ground_state_widths(m, omega, theta, hbar):
    """(momentum sigma, shifted-position sigma) of the ground-state Wigner
    Gaussian exp{-p^2/(m hbar w) - (m w/hbar)[(x + theta py/2)^2
    + (y - theta px/2)^2]}."""
    w = effective_frequency(m, omega, theta)
    return math.sqrt(m * hbar * w / 2.0), math.sqrt(hbar / (2.0 * m * w))


def ensemble_points(seed: int) -> np.ndarray:
    """(ENSEMBLE_POINTS, 4) phase points drawn from the displaced
    ground-state Wigner Gaussian, which is positive, so a density."""
    p = ENSEMBLE_PARAMS
    sp, sq = ground_state_widths(p["m"], p["omega"], p["theta"], p["hbar"])
    rng = _rng(seed + 2)
    px, py = rng.normal(0.0, sp, size=(2, ENSEMBLE_POINTS))
    u, v = rng.normal(0.0, sq, size=(2, ENSEMBLE_POINTS))
    x = u - 0.5 * p["theta"] * py
    y = v + 0.5 * p["theta"] * px
    return np.column_stack([x, y, px, py]) + np.asarray(ENSEMBLE_CENTER)
