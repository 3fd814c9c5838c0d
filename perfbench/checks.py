"""Output checks made apart from the program.

Every check recomputes what it compares against from the paper's
formulas with numpy alone, or tests a property the method must have; no
check compares against a stored copy of an earlier output.  A failed
check raises CheckError.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import workloads as wl


class CheckError(AssertionError):
    """An output of the program is wrong."""


def require(ok, msg: str):
    if not ok:
        raise CheckError(msg)


# --- parsing -----------------------------------------------------------------

def read_csv(path: str, header: str) -> np.ndarray:
    """A `%.17g` CSV as a float array, after checking its header line."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    first, _, body = text.partition("\n")
    require(first == header, f"{os.path.basename(path)}: header {first!r}")
    ncol = header.count(",") + 1
    vals = np.array(body.replace("\n", ",").split(",")[:-1], dtype=float)
    require(vals.size % ncol == 0, f"{os.path.basename(path)}: ragged rows")
    return vals.reshape(-1, ncol)


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# --- the linear flow z' = J(theta) A z ---------------------------------------

def bracket_tensor(theta: float) -> np.ndarray:
    """J(theta) in (x, y, px, py) order: {x, y} = theta, {q_i, p_j} = delta."""
    return np.array([[0.0, theta, 1.0, 0.0],
                     [-theta, 0.0, 0.0, 1.0],
                     [-1.0, 0.0, 0.0, 0.0],
                     [0.0, -1.0, 0.0, 0.0]])


def oscillator_form(m: float, omega: float) -> np.ndarray:
    """A with H = z.A.z / 2 for the isotropic oscillator."""
    k = m * omega * omega
    return np.diag([k, k, 1.0 / m, 1.0 / m])


def linear_flow(z0, times, m, omega, theta) -> np.ndarray:
    """exp(t J(theta) A) z0 for every t, from an eigen-decomposition of the
    4x4 generator; rows of the result are (x, y, px, py)."""
    G = bracket_tensor(theta) @ oscillator_form(m, omega)
    lam, V = np.linalg.eig(G)
    c = np.linalg.solve(V, np.asarray(z0, dtype=complex))
    t = np.atleast_1d(np.asarray(times, dtype=float))
    return ((np.exp(np.outer(t, lam)) * c) @ V.T).real


def oscillator_energy(z, m, omega) -> np.ndarray:
    z = np.atleast_2d(z)
    return (0.5 * (z[:, 2] ** 2 + z[:, 3] ** 2) / m
            + 0.5 * m * omega ** 2 * (z[:, 0] ** 2 + z[:, 1] ** 2))


def check_flow(points, z0, times, m, omega, theta, tol):
    """RK4 states agree with the exact linear flow to `tol` (absolute,
    scaled by the size of the start point)."""
    exact = linear_flow(z0, times, m, omega, theta)
    err = float(np.max(np.abs(np.asarray(points) - exact)))
    scale = max(1.0, float(np.max(np.abs(z0))))
    require(err <= tol * scale,
            f"flow end points off the exact flow by {err:.3e}")
    return err


def check_energy(points, H_col, m, omega, drift_tol=1e-8):
    """The H column equals the energy recomputed from (x, y, px, py), and
    the energy is conserved along the path."""
    E = oscillator_energy(points, m, omega)
    H_col = np.asarray(H_col, dtype=float)
    err = float(np.max(np.abs(H_col - E) / np.maximum(1.0, np.abs(E))))
    require(err <= 1e-12, f"H column differs from recomputed energy by {err:.3e}")
    drift = float(np.max(np.abs(E - E[0])) / max(1.0, abs(E[0])))
    require(drift <= drift_tol, f"energy drift {drift:.3e} > {drift_tol:g}")
    return drift


# --- spectrum and thermodynamics ---------------------------------------------

def level_scales(m, omega, theta, hbar):
    """(a, b) of E(n, two_j) = a (n + 1) - b two_j, from the paper."""
    a = hbar * omega * math.sqrt(1.0 + (m * omega * theta) ** 2 / 4.0)
    b = hbar * m * theta * omega ** 2 / 2.0
    return a, b


def check_spectrum(rows, n_max, m, omega, theta, hbar):
    want = [(n, tj) for n in range(n_max + 1) for tj in range(-n, n + 1, 2)]
    got = [(int(n), int(tj)) for n, tj, _ in rows]
    require(got == want, f"spectrum levels {got} != {want}")
    a, b = level_scales(m, omega, theta, hbar)
    E = np.array([a * (n + 1) - b * tj for n, tj in want])
    err = float(np.max(np.abs(rows[:, 2] - E) / np.abs(E)))
    require(err <= 1e-12, f"spectrum off a(n+1) - b two_j by {err:.3e}")
    return err


def level_sum(T, m, omega, theta, hbar=1.0, kB=1.0):
    """Z1 = sum over n >= 0 and two_j of exp(-E(n, two_j) / kB T), summed
    term by term until the slowest direction is below 1e-17."""
    a, b = level_scales(m, omega, theta, hbar)
    beta = 1.0 / (kB * T)
    n_max = math.ceil(40.0 / (beta * (a - abs(b)))) + 10
    terms = [math.exp(-beta * (a * (n + 1) - b * tj))
             for n in range(n_max + 1) for tj in range(-n, n + 1, 2)]
    return math.fsum(terms)


def check_thermo(rows, m, omega, hbar, kB, rng, picks=4):
    """U = A + T S row by row, entropy rising with theta at the lowest T,
    and Z1 against a direct level sum at a few seeded rows."""
    T, th, Z1, A, S, U = (rows[:, k] for k in range(6))
    scale = np.maximum(np.maximum(np.abs(U), np.abs(A)), 1e-300)
    err = float(np.max(np.abs(U - (A + T * S)) / scale))
    require(err <= 1e-9, f"U = A + TS violated by {err:.3e}")
    low = T == T.min()
    s_low = S[low][np.argsort(th[low])]
    require(s_low.size > 1 and bool(np.all(np.diff(s_low) > 0)),
            "entropy does not rise with theta at the lowest temperature")
    worst = 0.0
    for k in rng.choice(np.flatnonzero(Z1 > 1e-300), size=picks,
                        replace=False):
        zd = level_sum(T[k], m, omega, th[k], hbar, kB)
        worst = max(worst, abs(Z1[k] - zd) / zd)
    require(worst <= 1e-11, f"Z1 off the direct level sum by {worst:.3e}")
    return worst


# --- states and Wigner functions ---------------------------------------------

def trapezoid(axis: np.ndarray) -> np.ndarray:
    w = np.full(axis.size, axis[1] - axis[0])
    w[0] = w[-1] = 0.5 * w[0]
    return w


def check_eigenfunction(rows, nodes):
    """Unit norm under a trapezoid sum over the (px, py) grid."""
    require(rows.shape[0] == nodes * nodes, "eigenfunction grid size")
    px = rows[::nodes, 0]
    py = rows[:nodes, 1]
    require(np.allclose(np.diff(px), px[1] - px[0]), "px axis not uniform")
    dens = (rows[:, 2] ** 2 + rows[:, 3] ** 2).reshape(nodes, nodes)
    norm = float(trapezoid(px) @ dens @ trapezoid(py))
    require(abs(norm - 1.0) <= 1e-9, f"eigenfunction norm {norm!r} != 1")
    return norm


def check_wigner_bound(values, hbar):
    """|W| <= 1 / (pi hbar)^2 holds for the Wigner function of any pure state."""
    bound = 1.0 / (math.pi * hbar) ** 2
    worst = float(np.max(np.abs(values)))
    require(worst <= bound * (1.0 + 1e-9),
            f"|W| = {worst!r} exceeds 1/(pi hbar)^2 = {bound!r}")
    return worst


def ground_state_wigner(z, m, omega, theta, hbar, center):
    """The ground-state Wigner Gaussian displaced to `center`."""
    x, y, px, py = (np.atleast_2d(z) - np.asarray(center)).T
    w = wl.effective_frequency(m, omega, theta)
    q = (-(px * px + py * py) / (m * hbar * w)
         - (m * w / hbar) * ((x + 0.5 * theta * py) ** 2
                             + (y - 0.5 * theta * px) ** 2))
    return np.exp(q) / (math.pi * hbar) ** 2


def check_liouville(w_end, z0, m, omega, theta, hbar, center):
    """W_t(z_t) = W_0(z_0): the evolved distribution is constant along
    each trajectory."""
    w0 = ground_state_wigner(z0, m, omega, theta, hbar, center)
    err = float(np.max(np.abs(np.asarray(w_end) - w0))) * (math.pi * hbar) ** 2
    require(err <= 1e-9, f"Liouville invariance broken by {err:.3e}")
    return err


# --- conserved bilinears -----------------------------------------------------

def conserved_bilinear_dimension(m, omega, theta) -> int:
    """Dimension of {M symmetric : M J A - A J M = 0}, the quadratic forms
    z.M.z whose deformed bracket with H vanishes."""
    J, A = bracket_tensor(theta), oscillator_form(m, omega)
    basis = []
    for i in range(4):
        for j in range(i, 4):
            E = np.zeros((4, 4))
            E[i, j] = E[j, i] = 1.0
            basis.append(E)
    L = np.array([(E @ J @ A - A @ J @ E).ravel() for E in basis]).T
    s = np.linalg.svd(L, compute_uv=False)
    return int(np.sum(s <= 1e-10 * s[0]))


# --- whole commands ----------------------------------------------------------

SELFTEST_NAMES = ("galilei-algebra", "classical-oscillator",
                  "symmetry-collapse", "quantum-spectrum", "wigner",
                  "thermodynamics")


def check_selftest_output(stdout: str, out_dir: str):
    """Six [PASS] lines and a selftest.json with ok = true."""
    passed = [ln for ln in stdout.splitlines() if ln.startswith("[PASS] ")]
    require(len(passed) == 6, f"{len(passed)} [PASS] lines, want 6")
    rep = read_json(os.path.join(out_dir, "selftest.json"))
    require(rep.get("ok") is True, "selftest.json is not ok")
    require(tuple(sorted(rep["checks"])) == tuple(sorted(SELFTEST_NAMES)),
            f"selftest checks {sorted(rep['checks'])}")
    require(all(c["passed"] for c in rep["checks"].values()),
            "a selftest check did not pass")


def check_cli_command(name: str, out_dir: str, seed: int):
    """Check the files one README command wrote into `out_dir`."""
    path = lambda f: os.path.join(out_dir, f)  # noqa: E731
    if name == "algebra_check":
        rep = read_json(path("algebra_check.json"))
        require(rep["ok"] is True and len(rep["checks"]) == 8,
                "algebra-check: not all eight relations closed")
        require(rep["max_residual"] < 1e-9,
                f"algebra-check residual {rep['max_residual']!r}")
    elif name == "classical_simulate":
        p = wl.SIMULATE_PARAMS
        rows = read_csv(path("trajectory.csv"),
                        "t,x,y,px,py,H,p1,p2,J,k1,k2")
        n = round(wl.SIMULATE_T1 / wl.SIMULATE_DT) + 1
        require(rows.shape[0] == n, f"trajectory has {rows.shape[0]} rows")
        z0 = wl.simulate_start(seed)
        require(tuple(rows[0, 1:5]) == z0, "trajectory does not start at z0")
        check_flow(rows[:, 1:5], z0, rows[:, 0], p["m"], p["omega"],
                   p["theta"], 1e-7)
        check_energy(rows[:, 1:5], rows[:, 5], p["m"], p["omega"])
        require(read_json(path("charge_drift.json"))["energy_conserved"],
                "charge_drift.json: energy not conserved")
    elif name == "classical_symmetries":
        rep = read_json(path("symmetries.json"))
        want = conserved_bilinear_dimension(1.0, 1.0, wl.SYMMETRIES_THETA)
        require(rep["dimension"] == want,
                f"symmetries: dimension {rep['dimension']} != {want}")
        require(rep["closure_residual"] < 1e-10, "symmetries: no closure")
    elif name == "spectrum":
        rows = read_csv(path("spectrum.csv"), "n,two_j,E")
        check_spectrum(rows, wl.SPECTRUM_N_MAX, 1.0, 1.0,
                       wl.SPECTRUM_THETA, 1.0)
    elif name == "eigenfunction":
        rows = read_csv(path("eigenfunction.csv"), "px,py,re,im")
        check_eigenfunction(rows, wl.EIGEN_NODES)
    elif name == "wigner":
        rows = read_csv(path("wigner_slice.csv"), "c1,c2,W")
        check_wigner_bound(rows[:, 2], 1.0)
    elif name == "thermo_sweep":
        rows = read_csv(path("thermo_sweep.csv"),
                        "T,theta,Z1,A,S,U,Cv,S_per_NkB")
        require(rows.shape[0] == wl.THERMO_GRID ** 2, "thermo: grid size")
        check_thermo(rows, 1.0, 1.0, 1.0, 1.0,
                     np.random.default_rng(seed + 3))
    else:
        raise KeyError(name)


def check_ensemble_round(out: dict, seed: int):
    """End points, energies and Wigner values of one ensemble round."""
    p = wl.ENSEMBLE_PARAMS
    m, omega, theta, hbar = p["m"], p["omega"], p["theta"], p["hbar"]
    z0 = wl.ensemble_points(seed)
    z_end = np.asarray(out["z_end"])
    require(z_end.shape == z0.shape, "ensemble: wrong number of end points")
    for k in range(z0.shape[0]):
        check_flow(z_end[k:k + 1], z0[k], [wl.ENSEMBLE_T], m, omega, theta,
                   1e-9)
    H = np.column_stack([out["H_start"], out["H_end"]])
    for k in range(z0.shape[0]):
        check_energy(np.vstack([z0[k], z_end[k]]), H[k], m, omega)
    check_wigner_bound(out["W_end"], hbar)
    check_liouville(out["W_end"], z0, m, omega, theta, hbar,
                    wl.ENSEMBLE_CENTER)
    require(out["algebra_residual"] < 1e-9,
            f"ensemble: bracket residual {out['algebra_residual']!r}")
