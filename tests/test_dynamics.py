"""Flows and closed forms: RK4 order, closed-form consistency, charges."""

import math
from dataclasses import astuple

import numpy as np
import pytest

from ncplane.dynamics import flow_matrix
from ncplane.phasespace import FieldEvaluationError
from ncplane import (
    NCParams,
    PhasePoint,
    ScalarField,
    Trajectory,
    DivergenceError,
    hamiltonian_flow,
    oscillator_hamiltonian,
    oscillator_solution,
    oscillator_path,
    noether_charges,
    charge_drift,
    galilei_generators,
)

P = NCParams(m=1.0, omega=1.0, theta=0.3)
Z0 = PhasePoint(1.0, -0.5, 0.2, 0.8)
# (m, omega, theta) sets for the bit-level closed-form checks
KERNEL_SETS = [(1.0, 1.0, 0.3), (1.3, 0.8, -0.7), (2.0, 0.0, 0.5)]


def test_free_particle_rk4_exact():
    # linear flow: RK4 is exact up to roundoff
    p = NCParams(m=2.0, omega=0.0, theta=0.7)
    H = oscillator_hamiltonian(p)
    traj = hamiltonian_flow(H, Z0, 0.0, 5.0, 0.01, p)
    z_end = oscillator_solution(Z0, 5.0, p)
    assert np.allclose(traj.points[-1], np.array(astuple(z_end)), atol=1e-12)


def test_frequency_identities():
    for m, w, th in [(1.0, 1.0, 0.3), (2.0, 0.7, -0.4), (1.5, 2.0, 0.0)]:
        p = NCParams(m=m, omega=w, theta=th)
        phi, chi = p.phi, p.chi
        assert phi * chi == pytest.approx(w * w, rel=1e-12)
        assert phi - chi == pytest.approx(m * th * w * w, rel=1e-12, abs=1e-12)
        assert phi + chi == pytest.approx(2.0 * w * math.sqrt(1.0 + p.u), rel=1e-12)


def test_frequencies_require_omega():
    p = NCParams(m=1.0, omega=0.0, theta=0.3)
    for name in ("phi", "chi"):
        with pytest.raises(ValueError):
            getattr(p, name)


def test_closed_form_initial_point_exact():
    z = oscillator_solution(Z0, 0.0, P)
    assert astuple(z) == astuple(Z0)
    # one t == 0 rule in the closed form, for both branches and both zeros
    for p in (P, NCParams(m=1.3, omega=0.0, theta=0.4)):
        for t in (0.0, -0.0):
            M = flow_matrix(p, t)
            assert M.dtype == float and np.array_equal(M, np.eye(4))
            z = astuple(oscillator_solution((-0.0, 1.0, 0.2, -0.0), t, p))
            assert z == (-0.0, 1.0, 0.2, -0.0)
            assert [math.copysign(1.0, v) for v in z] == [-1.0, 1.0, 1.0, -1.0]
        path = oscillator_path((-0.0, 1.0, 0.2, -0.0), 0.0, 1.0, 0.1, p)
        assert list(np.signbit(path.points[0])) == [True, False, False, True]


def test_closed_form_satisfies_equations_of_motion():
    # independent check: finite-difference the closed form in t and compare
    # with the bracket right-hand side
    H = oscillator_hamiltonian(P)
    th = P.theta
    for t0 in (0.5, 2.37, 7.0, 15.9):
        dt = 1e-5
        zm = np.array(astuple(oscillator_solution(Z0, t0 - dt, P)))
        zc = np.array(astuple(oscillator_solution(Z0, t0, P)))
        zp = np.array(astuple(oscillator_solution(Z0, t0 + dt, P)))
        num = (zp - zm) / (2 * dt)
        hx, hy, hpx, hpy = H.partials(*zc, t0)
        rhs = np.array([hpx + th * hy, hpy - th * hx, -hx, -hy])
        assert np.max(np.abs(num - rhs)) < 1e-8


def test_rk4_matches_closed_form():
    H = oscillator_hamiltonian(P)
    traj = hamiltonian_flow(H, Z0, 0.0, 20.0, 1e-3, P)
    idx = [0, len(traj) // 3, len(traj) // 2, len(traj) - 1]
    for i in idx:
        zc = np.array(astuple(oscillator_solution(Z0, traj.times[i], P)))
        assert np.max(np.abs(traj.points[i] - zc)) < 1e-9


def test_rk4_fourth_order_convergence():
    H = oscillator_hamiltonian(P)
    zc = np.array(astuple(oscillator_solution(Z0, 10.0, P)))

    def err(dt):
        tr = hamiltonian_flow(H, Z0, 0.0, 10.0, dt, P)
        return np.max(np.abs(tr.points[-1] - zc))

    coarse, fine = err(0.05), err(0.025)
    assert 12.0 < coarse / fine < 20.0


def test_energy_conservation_along_rk4():
    H = oscillator_hamiltonian(P)
    traj = hamiltonian_flow(H, Z0, 0.0, 20.0, 1e-3, P)
    traj = noether_charges(traj, P)
    drift = charge_drift(traj)
    assert drift["H"] < 1e-10
    assert drift["J"] < 1e-10


def test_free_flow_conserves_all_galilei_charges():
    p = NCParams(m=1.3, omega=0.0, theta=-0.6)
    H = oscillator_hamiltonian(p)
    traj = hamiltonian_flow(H, Z0, 0.0, 8.0, 1e-3, p)
    drift = charge_drift(noether_charges(traj, p))
    # boosts are explicitly time dependent yet conserved along the flow
    for name in ("H", "p1", "p2", "J", "k1", "k2"):
        assert drift[name] < 1e-10, name


def test_oscillator_momenta_not_conserved():
    traj = noether_charges(oscillator_path(Z0, 0.0, 5.0, 1e-2, P), P)
    drift = charge_drift(traj)
    assert drift["p1"] > 1e-2  # sanity: the table reports, it does not assume


def test_charges_take_one_array_pass():
    traj = oscillator_path(Z0, 0.0, 1.0, 0.1, P)
    # a constant field broadcasts along the path
    C = ScalarField(lambda x, y, px, py, t: 2.5, "C")
    got = noether_charges(traj, P, hamiltonian=C).charges["H"]
    assert got.shape == traj.times.shape and np.all(got == 2.5)
    # a closure written for scalars fails loudly instead of looping over rows
    E = ScalarField(lambda x, y, px, py, t: math.exp(px), "E")
    S = ScalarField(lambda x, y, px, py, t: 1.0 if x > 0 else -1.0, "S")
    for f, err in ((E, TypeError), (S, ValueError)):
        with pytest.raises(err):
            noether_charges(traj, P, hamiltonian=f)


def test_other_errors_on_arrays_propagate():
    def fn(x, y, px, py, t):
        if isinstance(x, np.ndarray):
            raise RuntimeError("array path is broken")
        return px * px

    traj = oscillator_path(Z0, 0.0, 1.0, 0.1, P)
    with pytest.raises(RuntimeError, match="array path is broken"):
        noether_charges(traj, P, hamiltonian=ScalarField(fn, "H_bad"))


def test_non_finite_charge_raises_and_finite_ones_keep_their_bits():
    traj = oscillator_path(Z0, 0.0, 1.0, 0.1, P)
    got = noether_charges(traj, P).charges
    for name, f in zip(("p1", "p2", "J", "k1", "k2"), galilei_generators(P)[1:]):
        assert np.array_equal(got[name], f.fn(*traj.points.T, traj.times))
    huge = oscillator_path((1.0, -0.5, 1e200, 0.8), 0.0, 1.0, 0.1, P)
    with pytest.raises(FieldEvaluationError, match="field 'H_osc' returned inf"):
        noether_charges(huge, P)


def test_oscillator_path_matches_pointwise_solution():
    for m, w, th in KERNEL_SETS:
        p = NCParams(m=m, omega=w, theta=th)
        traj = oscillator_path(Z0, 0.0, 6.0, 1e-2, p)
        for t, z in zip(traj.times, traj.points):
            assert np.array_equal(z, astuple(oscillator_solution(Z0, t, p)))


def test_flow_matrix_columns_are_pointwise_solutions():
    for m, w, th in KERNEL_SETS:
        p = NCParams(m=m, omega=w, theta=th)
        for t in (0.4, -1.9, 7.3):
            M = flow_matrix(p, t)
            for j, e in enumerate(np.eye(4)):
                zj = np.array(astuple(oscillator_solution(PhasePoint(*e), t, p)))
                assert np.array_equal(M[:, j], zj), (m, w, th, t, j)


def test_free_particle_is_the_exact_shear():
    p = NCParams(m=1.3, omega=0.0, theta=0.4)
    for t in (0.7, -2.5, 11.0):
        z = oscillator_solution(Z0, t, p)
        assert list(astuple(z)) == [Z0.x + Z0.px / p.m * t,
                                    Z0.y + Z0.py / p.m * t, Z0.px, Z0.py]


def test_closed_form_takes_four_trig_calls(monkeypatch):
    calls = []
    for name in ("cos", "sin"):
        fn = getattr(np, name)
        monkeypatch.setattr(np, name, lambda a, _f=fn: calls.append(1) or _f(a))
    oscillator_path(Z0, 0.0, 6.0, 1e-2, P)
    assert len(calls) == 4


def test_small_theta_rotation_is_second_order():
    # the deformed orbit is the commutative one slowly rotated by angle
    # -m*theta*omega^2*t/2; from the origin with pure velocity the residual
    # after removing that rotation shrinks quadratically in the deformation
    z0 = PhasePoint(0.0, 0.0, 0.7, 0.3)
    p0 = NCParams(m=1.0, omega=1.0, theta=0.0)
    t_grid = np.linspace(0.0, 6.0, 61)[1:]
    ref = [oscillator_solution(z0, t, p0) for t in t_grid]

    def mismatch(th):
        p = NCParams(m=1.0, omega=1.0, theta=th)
        lam = p.m * th * p.omega ** 2
        worst = 0.0
        for t, z0t in zip(t_grid, ref):
            zt = oscillator_solution(z0, t, p)
            rot = complex(z0t.x, z0t.y) * complex(math.cos(lam * t / 2),
                                                  -math.sin(lam * t / 2))
            worst = max(worst, abs(complex(zt.x, zt.y) - rot))
        return worst

    coarse, fine = mismatch(2e-3), mismatch(1e-3)
    assert coarse / fine == pytest.approx(4.0, rel=0.1)


def test_divergence_raises_with_time():
    # dt = 1.5 is past RK4's stability limit for omega = 2
    p = NCParams(m=0.5, omega=2.0, theta=0.3)
    H = oscillator_hamiltonian(p)
    with pytest.raises(DivergenceError) as ei:
        hamiltonian_flow(H, PhasePoint(1.0, 0.0, 1.0, 0.0), 0.0, 1e4, 1.5, p)
    assert 0.0 < ei.value.t_last < 1e4


def test_flow_rejects_a_non_quadratic_or_time_dependent_hamiltonian():
    Hosc = oscillator_hamiltonian(P)
    k1 = galilei_generators(P)[4]
    for H in (ScalarField(lambda x, y, px, py, t: x * x * px, "H_cubic"), k1,
              ScalarField(lambda x, y, px, py, t: Hosc.fn(x, y, px, py, t)
                          + t * x * x, "H_ramp")):
        with pytest.raises(ValueError, match=f"field '{H.name}'"):
            hamiltonian_flow(H, Z0, 0.0, 1.0, 0.1, P)


def test_flows_validate_the_start_point():
    # a non-finite start blamed the integrator (DivergenceError) or gave a
    # NaN path; a short one failed to unpack
    H = oscillator_hamiltonian(P)
    flows = (lambda z: hamiltonian_flow(H, z, 0.0, 1.0, 0.1, P),
             lambda z: oscillator_path(z, 0.0, 1.0, 0.1, P),
             lambda z: oscillator_solution(z, 1.0, P))
    for flow in flows:
        for z, message in (((0.0, 0.0, math.inf, 0.0), "px is not finite"),
                           (np.array([0.0, math.nan, 0.0, 0.0]), "y is not finite"),
                           ((1.0, 0.0, 0.0), "got 3")):
            with pytest.raises(ValueError, match=message):
                flow(z)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0, 1.5]), np.zeros((3, 4)))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, -1.0]), np.zeros((2, 4)))


def test_flow_argument_validation():
    # the closed-form path shares the RK4 flow's time grid and its checks
    # (it divided by zero at dt = 0 and returned two points at dt < 0)
    H = oscillator_hamiltonian(P)
    for t0, t1, dt, message in ((0.0, 1.0, 0.0, "dt must be positive"),
                                (0.0, 1.0, -0.1, "dt must be positive"),
                                (1.0, 1.0, 0.1, "need t1 > t0"),
                                (1.0, 0.0, 0.1, "need t1 > t0")):
        with pytest.raises(ValueError, match=message):
            hamiltonian_flow(H, Z0, t0, t1, dt, P)
        with pytest.raises(ValueError, match=message):
            oscillator_path(Z0, t0, t1, dt, P)


@pytest.mark.parametrize("t0, t1, dt, name", [
    (0.0, math.inf, 1e-3, "t1"), (0.0, 1.0, math.nan, "dt"),
    (math.nan, 1.0, 1e-3, "t0"), (-math.inf, 1.0, 1e-3, "t0"),
    (0.0, math.nan, 1e-3, "t1"), (0.0, 1.0, math.inf, "dt")])
def test_non_finite_flow_times_are_named(t0, t1, dt, name):
    # t1 = inf overflowed in round(), dt = nan failed converting NaN to int
    H = oscillator_hamiltonian(P)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        hamiltonian_flow(H, Z0, t0, t1, dt, P)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        oscillator_path(Z0, t0, t1, dt, P)


@pytest.mark.parametrize("t", (math.nan, math.inf, -math.inf))
def test_closed_form_rejects_a_non_finite_time(t):
    # a NaN time used to surface as "phase-space coordinate x is not finite"
    for p in (P, NCParams(m=1.0, omega=0.0, theta=0.3)):
        with pytest.raises(ValueError, match="t must be finite"):
            oscillator_solution(Z0, t, p)
