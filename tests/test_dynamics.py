"""Flows and closed forms: RK4 order, closed-form consistency, charges."""

import math

import numpy as np
import pytest

from ncplane import (
    NCParams,
    PhasePoint,
    ScalarField,
    Trajectory,
    DivergenceError,
    hamiltonian_flow,
    free_particle_solution,
    free_particle_hamiltonian,
    oscillator_hamiltonian,
    oscillator_solution,
    oscillator_path,
    OscillatorClosedForm,
    noether_charges,
    charge_drift,
)

P = NCParams(m=1.0, omega=1.0, theta=0.3)
Z0 = PhasePoint(1.0, -0.5, 0.2, 0.8)


def test_free_particle_rk4_exact():
    # linear flow: RK4 is exact up to roundoff
    p = NCParams(m=2.0, theta=0.7)
    H = free_particle_hamiltonian(p)
    traj = hamiltonian_flow(H, Z0, 0.0, 5.0, 0.01, p)
    z_end = free_particle_solution(Z0, 5.0, p)
    assert np.allclose(traj.points[-1], z_end.as_array(), atol=1e-12)


def test_frequency_identities():
    for m, w, th in [(1.0, 1.0, 0.3), (2.0, 0.7, -0.4), (1.5, 2.0, 0.0)]:
        p = NCParams(m=m, omega=w, theta=th)
        cf = OscillatorClosedForm(p)
        phi, chi = cf.phi, cf.chi
        assert phi * chi == pytest.approx(w * w, rel=1e-12)
        assert phi - chi == pytest.approx(m * th * w * w, rel=1e-12, abs=1e-12)
        assert phi + chi == pytest.approx(w * cf.Theta_sc, rel=1e-12)


def test_frequencies_require_omega():
    with pytest.raises(ValueError):
        OscillatorClosedForm(NCParams(m=1.0, omega=0.0, theta=0.3))


def test_closed_form_initial_point_exact():
    z = oscillator_solution(Z0, 0.0, P)
    assert z.as_array().tolist() == Z0.as_array().tolist()


def test_closed_form_satisfies_equations_of_motion():
    # independent check: finite-difference the closed form in t and compare
    # with the bracket right-hand side
    H = oscillator_hamiltonian(P)
    th = P.theta
    for t0 in (0.5, 2.37, 7.0, 15.9):
        dt = 1e-5
        zm = oscillator_solution(Z0, t0 - dt, P).as_array()
        zc = oscillator_solution(Z0, t0, P).as_array()
        zp = oscillator_solution(Z0, t0 + dt, P).as_array()
        num = (zp - zm) / (2 * dt)
        hx, hy, hpx, hpy = H.partials(*zc, t0)
        rhs = np.array([hpx + th * hy, hpy - th * hx, -hx, -hy])
        assert np.max(np.abs(num - rhs)) < 1e-8


def test_rk4_matches_closed_form():
    H = oscillator_hamiltonian(P)
    traj = hamiltonian_flow(H, Z0, 0.0, 20.0, 1e-3, P)
    idx = [0, len(traj) // 3, len(traj) // 2, len(traj) - 1]
    for i in idx:
        zc = oscillator_solution(Z0, traj.times[i], P).as_array()
        assert np.max(np.abs(traj.points[i] - zc)) < 1e-9


def test_rk4_fourth_order_convergence():
    H = oscillator_hamiltonian(P)
    zc = oscillator_solution(Z0, 10.0, P).as_array()

    def err(dt):
        tr = hamiltonian_flow(H, Z0, 0.0, 10.0, dt, P)
        return np.max(np.abs(tr.points[-1] - zc))

    e1, e2 = err(0.05), err(0.025)
    assert 12.0 < e1 / e2 < 20.0


def test_energy_conservation_along_rk4():
    H = oscillator_hamiltonian(P)
    traj = hamiltonian_flow(H, Z0, 0.0, 20.0, 1e-3, P)
    traj = noether_charges(traj, P)
    drift = charge_drift(traj)
    assert drift["H"] < 1e-10
    assert drift["J"] < 1e-10


def test_free_flow_conserves_all_galilei_charges():
    p = NCParams(m=1.3, theta=-0.6)
    H = free_particle_hamiltonian(p)
    traj = hamiltonian_flow(H, Z0, 0.0, 8.0, 1e-3, p)
    drift = charge_drift(noether_charges(traj, p))
    # boosts are explicitly time dependent yet conserved along the flow
    for name in ("H", "p1", "p2", "J", "k1", "k2"):
        assert drift[name] < 1e-10, name


def test_oscillator_momenta_not_conserved():
    traj = noether_charges(oscillator_path(Z0, 0.0, 5.0, 1e-2, P), P)
    drift = charge_drift(traj)
    assert drift["p1"] > 1e-2  # sanity: the table reports, it does not assume


def test_oscillator_path_matches_pointwise_solution():
    traj = oscillator_path(Z0, 0.0, 6.0, 1e-2, P)
    for i in (0, 150, 600):
        zc = oscillator_solution(Z0, traj.times[i], P).as_array()
        assert np.allclose(traj.points[i], zc, atol=1e-12)


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

    e1, e2 = mismatch(2e-3), mismatch(1e-3)
    assert e1 / e2 == pytest.approx(4.0, rel=0.1)


def test_divergence_raises_with_time():
    p = NCParams()
    H = ScalarField(lambda x, y, px, py, t: x * x * px, "H_blow")
    with pytest.raises(DivergenceError) as ei:
        hamiltonian_flow(H, PhasePoint(1.0, 0.0, 1.0, 0.0), 0.0, 5.0, 1e-3, p)
    assert 0.0 < ei.value.t_last < 5.0


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0, 1.5]), np.zeros((3, 4)), P)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, -1.0]), np.zeros((2, 4)), P)


def test_flow_argument_validation():
    H = oscillator_hamiltonian(P)
    with pytest.raises(ValueError):
        hamiltonian_flow(H, Z0, 0.0, 1.0, -0.1, P)
    with pytest.raises(ValueError):
        hamiltonian_flow(H, Z0, 1.0, 0.0, 0.1, P)
