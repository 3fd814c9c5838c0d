"""Classical dynamics under the deformed bracket.

Fixed-step RK4 for the bracket equations of motion of a quadratic H on its
gradient map read once by duals, the closed-form flow of the isotropic
oscillator (the free particle is its omega = 0 case) in one elementwise
kernel behind the point, path and matrix forms, and Noether-charge monitoring.
The integrator is deliberately not symplectic: the deformed bracket is
non-canonical and is left that way, so runs are certified by charge drift
instead of by structure preservation.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .params import CheckFailure, NCParams
from .phasespace import COORD_NAMES, PhasePoint, ScalarField, galilei_generators


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
        return Trajectory(self.times, self.points, charges)


def _time_grid(t0, t1, dt):
    """(n, h, times): n steps of h from t0, dt rounded so that the last
    of the n + 1 times lands exactly on t1."""
    for name, v in (("t0", t0), ("t1", t1), ("dt", dt)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    n = (t1 - t0) / dt
    try:
        n = max(1, round(n))            # OverflowError when n is inf
        h = (t1 - t0) / n
        times = t0 + h * np.arange(n + 1)
    except (OverflowError, MemoryError, ValueError) as exc:
        raise ValueError(f"dt = {dt} on [{t0}, {t1}] needs {n:.3g} steps, "
                         f"a time grid too large to allocate") from exc
    times[-1] = t1
    return n, h, times


def _start(z0):
    """A flow's start point as four unconverted scalars, checked like a PhasePoint."""
    z = astuple(z0) if isinstance(z0, PhasePoint) else tuple(z0)
    if len(z) != 4:
        raise ValueError(f"a start point has 4 coordinates {COORD_NAMES}, got {len(z)}")
    PhasePoint(*z)     # names a non-finite coordinate
    return z


def _gradient_map(H, t0):
    """(G, g) with grad H(z) = G z + g at t0, read by duals at 0 and each e_j."""
    g = np.array(H.partials(0.0, 0.0, 0.0, 0.0, t0))
    return np.array([H.partials(*e, t0) for e in np.eye(4).tolist()]).T - g[:, None], g


def _require_linear(H, G, g, z, t):
    """ValueError unless grad H at (z, t) is G z + g to 1e-12 of |G| |z| + |g|."""
    err = np.abs(np.subtract(H.partials(*z, t), G @ z + g))
    off = ~(err <= 1e-12 * (np.abs(G) @ np.abs(z) + np.abs(g)))
    if off.any():
        raise ValueError(f"field {H.name!r} is not quadratic and free of t: its d/d"
                         f"{COORD_NAMES[off.argmax()]} at t={t!r} is off G z + g")


def hamiltonian_flow(H: ScalarField, z0, t0, t1, dt, p: NCParams) -> Trajectory:
    """Integrate dq_i/dt = dH/dp_i + theta eps_ij dH/dq_j, dp_i/dt = -dH/dq_i.

    Classical RK4 with a fixed step; the requested dt is rounded so the
    final time lands exactly on t1.  H must be quadratic in z and free of
    t: its gradient G z + g is read once by duals, and every stage runs on
    that map (bit-equal to dual gradients for oscillator_hamiltonian short
    of overflow).  ValueError if the dual gradient at the start or the end
    is off the map; DivergenceError if the state leaves the finite floats.
    """
    x, y, px, py = z = _start(z0)
    n, h, times = _time_grid(t0, t1, dt)
    th = p.theta
    G, g = _gradient_map(H, t0)
    _require_linear(H, G, g, z, t0)
    (G00, G01, G02, G03, g0), (G10, G11, G12, G13, g1), (G20, G21, G22, G23, g2), \
        (G30, G31, G32, G33, g3) = np.column_stack([G, g]).tolist()

    def rhs(x, y, px, py):
        hx = G00 * x + G01 * y + G02 * px + G03 * py + g0
        hy = G10 * x + G11 * y + G12 * px + G13 * py + g1
        return (G20 * x + G21 * y + G22 * px + G23 * py + g2 + th * hy,
                G30 * x + G31 * y + G32 * px + G33 * py + g3 - th * hx, -hx, -hy)

    out = np.empty((n + 1, 4))
    out[0] = z
    half, sixth, isfinite = 0.5 * h, h / 6.0, math.isfinite
    for k in range(n):
        a1, b1, c1, d1 = rhs(x, y, px, py)
        a2, b2, c2, d2 = rhs(x + half * a1, y + half * b1,
                             px + half * c1, py + half * d1)
        a3, b3, c3, d3 = rhs(x + half * a2, y + half * b2,
                             px + half * c2, py + half * d2)
        a4, b4, c4, d4 = rhs(x + h * a3, y + h * b3, px + h * c3, py + h * d3)
        x += sixth * (a1 + 2.0 * (a2 + a3) + a4)
        y += sixth * (b1 + 2.0 * (b2 + b3) + b4)
        px += sixth * (c1 + 2.0 * (c2 + c3) + c4)
        py += sixth * (d1 + 2.0 * (d2 + d3) + d4)
        if not (isfinite(x) and isfinite(y) and isfinite(px) and isfinite(py)):
            raise DivergenceError(float(times[k]))
        out[k + 1] = (x, y, px, py)

    _require_linear(H, G, g, (x, y, px, py), t1)
    return Trajectory(times, out)


def oscillator_hamiltonian(p: NCParams) -> ScalarField:
    inv2m = 0.5 / p.m
    k = 0.5 * p.m * p.omega ** 2
    if k == 0:      # the free particle: no 0 * inf at far positions
        return ScalarField(lambda x, y, px, py, t: (px * px + py * py) * inv2m, "H_osc")
    return ScalarField(
        lambda x, y, px, py, t: (px * px + py * py) * inv2m + k * (x * x + y * y),
        "H_osc")


def _closed_form(x0, y0, px0, py0, t, p: NCParams):
    """(x, y, px, py) at time t of the flow of oscillator_hamiltonian(p)
    from (x0, y0, px0, py0) at 0, elementwise over arrays.

    At omega = 0 this is the free shear: the deformation drops out for a
    q-independent H.  Otherwise the momenta map to the velocities
    v = p/m + lam eps q, the coefficient functions T1..T4 (T2' = T1,
    T4' = omega^2 T3) move positions and velocities, and v maps back.
    Wherever t == 0 the start itself comes back, bit for bit: the velocity
    round trip costs an ulp and x0 + 0.0 loses the sign of a zero.
    """
    if not np.all(np.isfinite(t)):
        raise ValueError(f"t must be finite, got {t!r}")
    z0, m = (x0, y0, px0, py0), p.m
    if p.omega == 0:
        z = (x0 + px0 / m * t, y0 + py0 / m * t, px0, py0)
        return tuple(np.where(t == 0, a, b) for a, b in zip(z0, z))
    phi, chi, w, lam = p.phi, p.chi, p.omega, p.lam
    cos_p, cos_c = np.cos(phi * t), np.cos(chi * t)
    sin_p, sin_c = np.sin(phi * t), np.sin(chi * t)
    T1 = 0.5 * (cos_p + cos_c)
    T2 = (phi * sin_c + chi * sin_p) / (2.0 * w ** 2)
    den = 2.0 * w * (2.0 * math.sqrt(1.0 + p.u))
    T3 = (cos_c - cos_p) / den
    T4 = (phi * sin_c - chi * sin_p) / den
    dT1 = -0.5 * (phi * sin_p + chi * sin_c)
    dT3 = (phi * sin_p - chi * sin_c) / den

    vx0, vy0 = px0 / m + lam * y0, py0 / m - lam * x0
    mt, w2 = m * p.theta, w ** 2
    ax, bx = lam * x0 + 2.0 * vy0, mt * vx0 + 2.0 * y0
    ay, by = lam * y0 - 2.0 * vx0, mt * vy0 - 2.0 * x0
    x = T1 * x0 + T2 * vx0 + T3 * ax - T4 * bx
    y = T1 * y0 + T2 * vy0 + T3 * ay - T4 * by
    vx = dT1 * x0 + T1 * vx0 + dT3 * ax - w2 * T3 * bx
    vy = dT1 * y0 + T1 * vy0 + dT3 * ay - w2 * T3 * by
    z = (x, y, m * (vx - lam * y), m * (vy + lam * x))
    return tuple(np.where(t == 0, a, b) for a, b in zip(z0, z))


def oscillator_solution(z0, t, p: NCParams) -> PhasePoint:
    """Closed-form state at time t from phase-space data at 0; omega = 0
    is the free particle."""
    return PhasePoint(*map(float, _closed_form(*_start(z0), t, p)))


def oscillator_path(z0, t0, t1, dt, p: NCParams) -> Trajectory:
    """Closed-form solution sampled on a uniform grid, as a Trajectory."""
    _, _, times = _time_grid(t0, t1, dt)
    # closed form is written from t=0; shift if t0 != 0
    pts = np.stack(np.broadcast_arrays(*_closed_form(*_start(z0), times - t0, p)),
                   axis=1)
    return Trajectory(times, pts)


def flow_matrix(p: NCParams, t: float) -> np.ndarray:
    """The closed-form flow as a linear map z(t) = M z(0): column j is the
    state at t reached from the unit vector e_j."""
    return np.array(_closed_form(*np.eye(4), t, p))


def noether_charges(traj: Trajectory, p: NCParams, hamiltonian) -> Trajectory:
    """Attach H, p1, p2, J, k1, k2 sampled along the trajectory.

    The H column is the hamiltonian ScalarField, the energy of the flow it
    generates; the remaining five are always the Galilei generators,
    conserved only for Galilei-invariant flows.  Each field is
    evaluated once on the whole path, so it must accept arrays; any
    exception it raises propagates, and a non-finite charge raises
    FieldEvaluationError.
    """
    _, P1, P2, J, K1, K2 = galilei_generators(p)
    charges = {}
    for name, f in (("H", hamiltonian), ("p1", P1), ("p2", P2),
                    ("J", J), ("k1", K1), ("k2", K2)):
        v = np.asarray(f.value(traj.points.T, traj.times), dtype=float)
        charges[name] = np.broadcast_to(v, traj.times.shape)
    return traj.with_charges(charges)


def charge_drift(traj: Trajectory):
    """Max |Q(t) - Q(0)| / max(1, |Q(0)|) per attached charge."""
    if traj.charges is None:
        raise ValueError("trajectory has no charges attached")
    out = {}
    for name, q in traj.charges.items():
        out[name] = float(np.max(np.abs(q - q[0])) / max(1.0, abs(q[0])))
    return out
