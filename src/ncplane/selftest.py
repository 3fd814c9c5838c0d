"""Deterministic end-to-end checks, shared by the test suite and the CLI.

Each check_* function exercises one advertised guarantee of the library
at fixed tolerances and returns a CheckResult; run_all executes the lot.
Nothing here is random beyond the fixed default seed, so two runs on the
same machine produce the same numbers.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import dynamics, phasespace, spectra, symmetries, thermo, wigner
from .params import CheckFailure, NCParams
from .phasespace import PhasePoint


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: {self.detail} ({self.seconds:.2f}s)"


def _check(name: str):
    """Turn a body returning (passed, detail) into a timed check reported
    under name, whether it passes, misses or raises CheckFailure."""
    def decorate(body):
        @functools.wraps(body)
        def check(seed: int = 42) -> CheckResult:
            t0 = time.perf_counter()
            try:
                passed, detail = body(seed)
            except CheckFailure as exc:
                passed, detail = False, f"raised {exc!r}"
            return CheckResult(name, bool(passed), detail,
                               time.perf_counter() - t0)
        return check
    return decorate


@_check("galilei-algebra")
def check_algebra(seed: int):
    """All eight bracket relations close at 100 seeded points per (m, theta)."""
    samples = phasespace.sample_points(100, seed=seed)
    worst = 0.0
    for m in (1.0, 2.0):
        for theta in (0.0, 0.5, -0.3):
            rep = phasespace.verify_algebra(NCParams(m=m, theta=theta),
                                            samples=samples, tol=1e-9)
            worst = max(worst, rep.max_residual())
    return (worst < 1e-9,
            f"max bracket residual {worst:.3e} < 1e-09 "
            f"(6 parameter sets, 100 points, two times)")


@_check("classical-oscillator")
def check_oscillator(seed: int):
    """RK4 follows the closed form; phi - chi = lam tests the mode roots."""
    p = NCParams(m=1.0, omega=1.0, theta=0.3)
    z0 = PhasePoint(1.0, -0.5, 0.2, 0.8)
    traj = dynamics.hamiltonian_flow(dynamics.oscillator_hamiltonian(p),
                                     z0, 0.0, 20.0 / p.omega, 1e-3, p)
    path = dynamics.oscillator_path(z0, 0.0, 20.0 / p.omega, 1e-3, p)
    pos_err = float(np.max(np.abs(traj.points[:, :2] - path.points[:, :2])))

    id_err = max(abs(p.phi * p.chi - p.omega ** 2),
                 abs((p.phi - p.chi) - p.lam))

    # halving the deformation must quarter the residual rotation error
    zr = PhasePoint(0.0, 0.0, 0.7, 0.3)
    p0 = NCParams(m=1.0, omega=1.0, theta=0.0)
    t_grid = np.linspace(0.0, 6.0, 31)[1:]
    ref = [dynamics.oscillator_solution(zr, t, p0) for t in t_grid]

    def mismatch(th):
        pt = NCParams(m=1.0, omega=1.0, theta=th)
        lam = pt.lam
        worst = 0.0
        for t, zc in zip(t_grid, ref):
            zt = dynamics.oscillator_solution(zr, t, pt)
            rot = complex(zc.x, zc.y) * complex(math.cos(lam * t / 2),
                                                -math.sin(lam * t / 2))
            worst = max(worst, abs(complex(zt.x, zt.y) - rot))
        return worst

    ratio = mismatch(2e-3) / mismatch(1e-3)
    ok = pos_err < 1e-6 and id_err < 1e-12 and abs(ratio - 4.0) < 0.4
    return (ok,
            f"rk4 position error {pos_err:.3e} < 1e-06, frequency "
            f"identities {id_err:.3e} < 1e-12, rotation-error ratio "
            f"{ratio:.3f} ~ 4")


@_check("symmetry-collapse")
def check_symmetries(seed: int):
    """Nullspace dimensions, multiplet membership, su(2) constants, Casimir."""
    p0 = NCParams(m=1.0, omega=1.0, theta=0.0)
    p5 = NCParams(m=1.0, omega=1.0, theta=0.5)
    b0 = symmetries.conserved_bilinears(p0)
    b5 = symmetries.conserved_bilinears(p5)
    dims_ok = (b0.dimension, b5.dimension) == (4, 2)

    member = 0.0
    for p, basis in ((p0, b0), (p5, b5)):
        for S in symmetries.expected_conserved(p):
            member = max(member, symmetries.membership_check(S, basis))

    c, res = symmetries.structure_constants(
        list(symmetries.su2_standard_forms(p0)), p0)
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k], eps[j, i, k] = 1.0, -1.0
    sc_err = max(float(np.max(np.abs(c - eps))), float(np.max(res)))

    S123 = symmetries.su2_standard_forms(p0)
    Hf = symmetries.hamiltonian_form(p0)
    cas = 0.0
    for z in phasespace.sample_points(100, seed=seed):
        lhs = sum(Si.value(z) ** 2 for Si in S123)
        rhs = Hf.value(z) ** 2 / (4.0 * p0.omega ** 2)
        cas = max(cas, abs(lhs - rhs) / max(abs(rhs), 1.0))

    ok = dims_ok and member < 1e-10 and sc_err < 1e-10 and cas < 1e-10
    return (ok,
            f"nullspace dims ({b0.dimension},{b5.dimension}) = (4,2), "
            f"membership {member:.2e} < 1e-10, structure constants "
            f"{sc_err:.2e} < 1e-10, Casimir {cas:.2e} < 1e-10")


@_check("quantum-spectrum")
def check_spectrum(seed: int):
    """Eigen-residuals below 1e-6 for n <= 4, plus an orthonormal n <= 3 Gram."""
    worst_h = worst_j = 0.0
    family = []                     # the theta = 0.3, n <= 3 states
    for theta in (0.0, 0.3, 1.0):
        p = NCParams(m=1.0, omega=1.0, theta=theta)
        axes = spectra.momentum_grid(p, 256)
        for n in range(5):
            for two_j in range(-n, n + 1, 2):
                psi = spectra.eigenfunction(n, two_j, p, axes)
                rh, rj = spectra.eigen_residuals(psi, n, two_j, p)
                worst_h = max(worst_h, rh)
                worst_j = max(worst_j, rj)
                if theta == 0.3 and n < 4:
                    family.append(psi)

    gram = np.array([[a.inner(b) for b in family] for a in family])
    gram_err = float(np.max(np.abs(gram - np.eye(len(family)))))

    ok = worst_h < 1e-6 and worst_j < 1e-6 and gram_err < 2e-6
    return (ok,
            f"eigen-residuals H {worst_h:.3e}, J {worst_j:.3e} < 1e-06 "
            f"(45 levels on 256^2), Gram deviation {gram_err:.3e} < 2e-06")


@_check("wigner")
def check_wigner(seed: int):
    """Factor sum vs closed form, normalization, marginals, purity,
    a negative region for the first excited state, and flow stationarity."""
    p = NCParams(m=1.0, omega=1.0, theta=0.3)
    axes = spectra.momentum_grid(p, 65)
    psi0 = spectra.eigenfunction(0, 0, p, axes)
    Wq = wigner.QuadratureWigner(psi0, p)
    W0 = wigner.GroundStateWigner(p)

    xa = axes[0][8:-8]
    slice_err = float(np.max(np.abs(Wq.at(xa, 0.0, 0.37, 0.0)
                                    - W0.at(xa, 0.0, 0.37, 0.0))))
    ya = np.linspace(-3.0, 3.0, 21)
    x0, py0 = axes[0][32], axes[1][40]
    slice_err = max(slice_err, float(np.max(np.abs(
        Wq.at(x0, ya, -0.8, py0) - W0.at(x0, ya, -0.8, py0)))))

    ta = np.linspace(-4.8, 4.8, 41)
    table_axes = (axes[0], ta, ta, axes[1])
    # the factor-sum rows go straight into the sums: no table is stored
    sums = wigner.table_sums(wigner.quadrature_rows(Wq, table_axes),
                             table_axes, p)
    norm_err = abs(sums.integral - 1.0)
    purity_err = abs(sums.purity - 1.0)
    # each marginal against |psi|^2 in its own basis; p from the factors
    off = psi0.grid((ta, axes[1]))
    marg_err = max(float(np.max(np.abs(
        sums.marginal(psi.basis).values - np.abs(psi.values) ** 2)))
        for psi in (spectra.transform(psi0.grid(), "xpy", p), off,
                    spectra.transform(off, "ypx", p, q=ta)))

    # parity: W(0) = -1/(pi hbar)^2 for every n = 1 state, its minimum
    witness = wigner.QuadratureWigner(spectra.eigenfunction(1, 1, p, axes),
                                      p).at(0.0, 0.0, 0.0, 0.0)

    rng = np.random.default_rng(seed)
    pts = rng.uniform(-3.0, 3.0, size=(50, 4))
    stat = 0.0
    for t in (0.7, 1.7, 4.1):
        Wt = wigner.EvolvedWigner(W0, p, t)
        drift = np.abs(Wt.at(*pts.T) - W0.at(*pts.T))
        stat = max(stat, float(np.max(drift)))

    ok = (slice_err < 1e-8 and norm_err < 1e-6 and marg_err < 1e-6
          and purity_err < 1e-6 and witness < -1e-3 and stat < 1e-8)
    return (ok,
            f"slice error {slice_err:.2e} < 1e-08, normalization "
            f"{norm_err:.1e} and marginals {marg_err:.1e} < 1e-06, "
            f"purity off by {purity_err:.1e} < 1e-06, excited-state "
            f"minimum {witness:.4f} < 0, flow drift {stat:.2e} < 1e-08")


@_check("thermodynamics")
def check_thermo(seed: int):
    """Closed-form partition function vs direct sums plus both asymptotics."""
    temps = np.logspace(math.log10(0.1), math.log10(5.0), 20)
    oracle = 0.0
    for theta in np.linspace(0.0, 2.0, 20):
        p = NCParams(m=1.0, omega=1.0, theta=float(theta))
        for T in temps:
            z = thermo.thermo_point(float(T), p).Z1
            zd = thermo.partition_single_direct(float(T), p)
            oracle = max(oracle, abs(z - zd) / zd)

    p1 = NCParams(m=1.0, omega=1.0, theta=1.0)
    T = 100.0
    pred = 2.0 * T + (2.0 + 1.0) / (12.0 * T)
    hi = abs(thermo.thermo_point(T, p1).U - pred) / pred

    lo = abs(thermo.thermo_point(0.01, p1).U / p1.a - 1.0)

    S = [thermo.thermo_point(0.2, NCParams(m=1.0, omega=1.0, theta=th)).S
         for th in np.linspace(0.1, 2.0, 12).tolist()]
    slope_ok = all(b > a for a, b in zip(S, S[1:]))

    ok = oracle < 1e-12 and hi < 1e-6 and lo < 1e-10 and slope_ok
    return (ok,
            f"partition oracle {oracle:.2e} < 1e-12 (20x20 grid), "
            f"high-T energy {hi:.2e} < 1e-06, low-T energy {lo:.2e} "
            f"< 1e-10, entropy grows with theta at low T: {slope_ok}")


ALL_CHECKS = (check_algebra, check_oscillator, check_symmetries,
              check_spectrum, check_wigner, check_thermo)


def run_all(seed: int = 42) -> list[CheckResult]:
    """Run every check; only a CheckFailure becomes a failed result."""
    return [check(seed=seed) for check in ALL_CHECKS]
