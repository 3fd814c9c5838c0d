"""Classical dynamics under the deformed bracket.

Fixed-step RK4 for the bracket equations of motion, the closed-form free
particle and isotropic-oscillator solutions and Noether-charge monitoring.
The integrator is deliberately not symplectic: the deformed bracket is
non-canonical and is left that way, so runs are certified by charge drift
instead of by structure preservation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import CheckFailure, NCParams
from .phasespace import PhasePoint, ScalarField, galilei_generators, _coords


class DivergenceError(CheckFailure):
    """Integration produced a non-finite state."""

    def __init__(self, t_last):
        super().__init__(f"state became non-finite; last valid time t={t_last!r}")
        self.t_last = t_last


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled path: times (n,), points (n, 4) as (x, y, px, py)."""

    times: np.ndarray
    points: np.ndarray
    params: NCParams
    hamiltonian: ScalarField | None = None
    charges: dict | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        z = np.asarray(self.points, dtype=float)
        if t.ndim != 1 or z.shape != (t.size, 4):
            raise ValueError(f"shape mismatch: times {t.shape}, points {z.shape}")
        if t.size >= 2:
            dt = np.diff(t)
            if np.any(dt <= 0):
                raise ValueError("times must be strictly increasing")
            if not np.allclose(dt, dt[0], rtol=1e-9, atol=1e-12 * abs(dt[0])):
                raise ValueError("time step must be uniform")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "points", z)

    def __len__(self):
        return self.times.size

    def with_charges(self, charges):
        return Trajectory(self.times, self.points, self.params,
                          self.hamiltonian, charges)


def _rhs(H, theta, x, y, px, py, t):
    hx, hy, hpx, hpy = H.partials(x, y, px, py, t)
    return (hpx + theta * hy, hpy - theta * hx, -hx, -hy)


def hamiltonian_flow(H: ScalarField, z0, t0, t1, dt, p: NCParams) -> Trajectory:
    """Integrate dq_i/dt = dH/dp_i + theta eps_ij dH/dq_j, dp_i/dt = -dH/dq_i.

    Classical RK4 with a fixed step; the requested dt is rounded so the
    final time lands exactly on t1.  Raises DivergenceError if the state
    leaves the finite floats.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    n = max(1, round((t1 - t0) / dt))
    h = (t1 - t0) / n
    th = p.theta

    out = np.empty((n + 1, 4))
    x, y, px, py = _coords(z0)
    out[0] = (x, y, px, py)
    t = t0
    half = 0.5 * h
    sixth = h / 6.0
    isfinite = math.isfinite
    for k in range(n):
        a1, b1, c1, d1 = _rhs(H, th, x, y, px, py, t)
        a2, b2, c2, d2 = _rhs(H, th, x + half * a1, y + half * b1,
                              px + half * c1, py + half * d1, t + half)
        a3, b3, c3, d3 = _rhs(H, th, x + half * a2, y + half * b2,
                              px + half * c2, py + half * d2, t + half)
        a4, b4, c4, d4 = _rhs(H, th, x + h * a3, y + h * b3,
                              px + h * c3, py + h * d3, t + h)
        x += sixth * (a1 + 2.0 * (a2 + a3) + a4)
        y += sixth * (b1 + 2.0 * (b2 + b3) + b4)
        px += sixth * (c1 + 2.0 * (c2 + c3) + c4)
        py += sixth * (d1 + 2.0 * (d2 + d3) + d4)
        if not (isfinite(x) and isfinite(y) and isfinite(px) and isfinite(py)):
            raise DivergenceError(t)
        t = t0 + (k + 1) * h
        out[k + 1] = (x, y, px, py)

    times = t0 + h * np.arange(n + 1)
    times[-1] = t1
    return Trajectory(times, out, p, hamiltonian=H)


def free_particle_hamiltonian(p: NCParams) -> ScalarField:
    inv2m = 0.5 / p.m
    return ScalarField(lambda x, y, px, py, t: (px * px + py * py) * inv2m, "H_free")


def oscillator_hamiltonian(p: NCParams) -> ScalarField:
    inv2m = 0.5 / p.m
    k = 0.5 * p.m * p.omega ** 2
    return ScalarField(
        lambda x, y, px, py, t: (px * px + py * py) * inv2m + k * (x * x + y * y),
        "H_osc")


def free_particle_solution(z0, t, p: NCParams) -> PhasePoint:
    """Straight-line motion; the deformation drops out for q-independent H."""
    x, y, px, py = _coords(z0)
    return PhasePoint(x + px / p.m * t, y + py / p.m * t, px, py)


@dataclass(frozen=True)
class OscillatorClosedForm:
    """The two mixing frequencies and the four coefficient functions.

    phi*chi = omega^2 and phi - chi = p.lam (signed); for theta >= 0,
    phi >= chi > 0.  Theta_sc = 2 sqrt(1 + p.u) = (phi + chi) / omega.
    """

    p: NCParams
    phi: float = field(init=False)
    chi: float = field(init=False)
    Theta_sc: float = field(init=False)

    def __post_init__(self):
        Theta_sc = 2.0 * math.sqrt(1.0 + self.p.u)      # requires omega > 0
        w, lam = self.p.omega, self.p.lam
        disc = math.sqrt(lam * lam + 4.0 * w * w)
        object.__setattr__(self, "phi", 0.5 * (lam + disc))
        object.__setattr__(self, "chi", 0.5 * (-lam + disc))
        object.__setattr__(self, "Theta_sc", Theta_sc)

    # coefficient functions; T2' = T1 and T4' = omega^2 T3 hold identically
    def T1(self, t):
        return 0.5 * (np.cos(self.phi * t) + np.cos(self.chi * t))

    def T2(self, t):
        return (self.phi * np.sin(self.chi * t) + self.chi * np.sin(self.phi * t)) \
            / (2.0 * self.p.omega ** 2)

    def T3(self, t):
        return (np.cos(self.chi * t) - np.cos(self.phi * t)) \
            / (2.0 * self.p.omega * self.Theta_sc)

    def T4(self, t):
        return (self.phi * np.sin(self.chi * t) - self.chi * np.sin(self.phi * t)) \
            / (2.0 * self.p.omega * self.Theta_sc)

    def dT1(self, t):
        return -0.5 * (self.phi * np.sin(self.phi * t) + self.chi * np.sin(self.chi * t))

    def dT3(self, t):
        return (self.phi * np.sin(self.phi * t) - self.chi * np.sin(self.chi * t)) \
            / (2.0 * self.p.omega * self.Theta_sc)


def velocity_from_momentum(z0, p: NCParams):
    """(vx, vy) of the oscillator flow at a phase point."""
    x, y, px, py = _coords(z0)
    return px / p.m + p.lam * y, py / p.m - p.lam * x


def momentum_from_velocity(x, y, vx, vy, p: NCParams):
    return p.m * (vx - p.lam * y), p.m * (vy + p.lam * x)


def oscillator_solution_xy(x0, y0, vx0, vy0, t, p: NCParams):
    """Positions and velocities at time t from initial positions/velocities.

    Vectorized over t.  This is the paper-facing parameterization; the
    phase-point version below wraps it with the velocity relation.
    """
    cf = OscillatorClosedForm(p)
    lam = p.lam
    mt = p.m * p.theta
    T1, T2, T3, T4 = cf.T1(t), cf.T2(t), cf.T3(t), cf.T4(t)
    dT1, dT3 = cf.dT1(t), cf.dT3(t)
    w2 = p.omega ** 2

    ax, bx = lam * x0 + 2.0 * vy0, mt * vx0 + 2.0 * y0
    ay, by = lam * y0 - 2.0 * vx0, mt * vy0 - 2.0 * x0
    x = T1 * x0 + T2 * vx0 + T3 * ax - T4 * bx
    y = T1 * y0 + T2 * vy0 + T3 * ay - T4 * by
    vx = dT1 * x0 + T1 * vx0 + dT3 * ax - w2 * T3 * bx
    vy = dT1 * y0 + T1 * vy0 + dT3 * ay - w2 * T3 * by
    return x, y, vx, vy


def oscillator_solution(z0, t, p: NCParams) -> PhasePoint:
    """Closed-form oscillator state at time t from phase-space data at 0."""
    p.require_omega()
    x0, y0, px0, py0 = _coords(z0)
    if t == 0.0:
        # keep the initial point bit-exact; the velocity round trip costs an ulp
        return PhasePoint(x0, y0, px0, py0)
    vx0, vy0 = velocity_from_momentum(z0, p)
    x, y, vx, vy = oscillator_solution_xy(x0, y0, vx0, vy0, t, p)
    px, py = momentum_from_velocity(x, y, vx, vy, p)
    return PhasePoint(float(x), float(y), float(px), float(py))


def oscillator_path(z0, t0, t1, dt, p: NCParams) -> Trajectory:
    """Closed-form solution sampled on a uniform grid, as a Trajectory."""
    p.require_omega()
    n = max(1, round((t1 - t0) / dt))
    h = (t1 - t0) / n
    times = t0 + h * np.arange(n + 1)
    times[-1] = t1
    x0, y0, px0, py0 = _coords(z0)
    vx0, vy0 = velocity_from_momentum(z0, p)
    # closed form is written from t=0; shift if t0 != 0
    x, y, vx, vy = oscillator_solution_xy(x0, y0, vx0, vy0, times - t0, p)
    px, py = momentum_from_velocity(x, y, vx, vy, p)
    pts = np.column_stack([x, y, px, py])
    pts[0] = (x0, y0, px0, py0)
    return Trajectory(times, pts, p, hamiltonian=oscillator_hamiltonian(p))


def _field_on_rows(f: ScalarField, times, points):
    """Evaluate a scalar field along a path, vectorized when the closure allows."""
    x, y, px, py = points.T
    try:
        v = f.fn(x, y, px, py, times)
        v = np.asarray(v, dtype=float)
        if v.shape == times.shape:
            return v
    except Exception:
        pass
    return np.array([f.fn(*row, t) for row, t in zip(points, times)], dtype=float)


def noether_charges(traj: Trajectory, p: NCParams, hamiltonian=None) -> Trajectory:
    """Attach H, p1, p2, J, k1, k2 sampled along the trajectory.

    The H column is the trajectory's generating Hamiltonian when known
    (energy of the flow); the remaining five are always the Galilei
    generators, conserved only for Galilei-invariant flows.
    """
    Hfree, P1, P2, J, K1, K2 = galilei_generators(p)
    H = hamiltonian or traj.hamiltonian or Hfree
    charges = {}
    for name, f in (("H", H), ("p1", P1), ("p2", P2),
                    ("J", J), ("k1", K1), ("k2", K2)):
        charges[name] = _field_on_rows(f, traj.times, traj.points)
    return traj.with_charges(charges)


def charge_drift(traj: Trajectory):
    """Max |Q(t) - Q(0)| / max(1, |Q(0)|) per attached charge."""
    if traj.charges is None:
        raise ValueError("trajectory has no charges attached")
    out = {}
    for name, q in traj.charges.items():
        out[name] = float(np.max(np.abs(q - q[0])) / max(1.0, abs(q[0])))
    return out
