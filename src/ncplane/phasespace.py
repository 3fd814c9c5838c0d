"""The theta-deformed symplectic structure of the 2D noncommutative plane.

Coordinates are ordered (x, y, px, py).  The only deformation sits in the
position block, {x, y} = theta; mixed and momentum brackets are canonical.
Derivatives are exact (forward-mode duals), never symbolic and never finite
differences (those live in the test suite as an independent oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .duals import Dual
from .params import CheckFailure, NCParams

COORD_NAMES = ("x", "y", "px", "py")
# sample_points draws each coordinate uniformly from [-_BOX, _BOX]
_BOX = 10.0


class FieldEvaluationError(CheckFailure):
    """A scalar field produced a non-finite value or gradient (exit 1)."""


@dataclass(frozen=True)
class PhasePoint:
    x: float
    y: float
    px: float
    py: float

    def __post_init__(self):
        for name in COORD_NAMES:
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"phase-space coordinate {name} is not finite: {v!r}")


def _coords(z):
    """Accept PhasePoint, sequence, or ndarray; return 4 scalars."""
    if isinstance(z, PhasePoint):
        return z.x, z.y, z.px, z.py
    x, y, px, py = z
    return x, y, px, py


class ScalarField:
    """A differentiable function f(x, y, px, py, t) on phase space.

    ``fn`` must be generic arithmetic: it is evaluated on floats, on numpy
    arrays of points and on dual numbers with either kind of part, which is
    where the exact gradient comes from.  A closure that only takes scalars
    (say, ``duals.exp`` or ``if x > 0``) fails on an array query.
    """

    __slots__ = ("fn", "name")

    def __init__(self, fn, name="f"):
        self.fn = fn
        self.name = name

    def __repr__(self):
        return f"ScalarField({self.name})"

    def value(self, z, t=0.0):
        """f at one point or at each column of a (4, n) array; a non-finite
        result raises FieldEvaluationError naming the first bad sample."""
        x, y, px, py = _coords(z)
        with np.errstate(all="ignore"):     # reported below instead
            v = self.fn(x, y, px, py, t)
        if isinstance(v, Dual) or np.all(np.isfinite(v)):
            return v
        if np.ndim(x):
            v, *cols = np.broadcast_arrays(v, x, y, px, py)
            k = np.flatnonzero(~np.isfinite(v))[0]
            v, z = float(v.flat[k]), PhasePoint(*(float(c.flat[k]) for c in cols))
        raise FieldEvaluationError(f"field {self.name!r} returned {v!r} at {z}")

    def partials(self, x, y, px, py, t=0.0):
        """The four phase-space partial derivatives at one point: one
        single-seed dual pass of ``fn`` per coordinate, the others left as
        plain numbers.  Four passes are cheap enough because no caller
        differentiates per step or per point: a flow reads grad H seven
        times in all, and a bracket once over a whole array of points.

        When any input already carries a dual (a nested differentiation in
        progress), every argument, t included, is lifted as a constant of
        the new level; mixing levels would silently conflate the two seeds.
        """
        z = (x, y, px, py, t)
        args = tuple(map(Dual, z)) if any(isinstance(v, Dual) for v in z) else z
        grad = []
        for i in range(4):
            r = self.fn(*args[:i], Dual(z[i], 1.0), *args[i + 1:])
            grad.append(r.eps if isinstance(r, Dual) else 0.0)
        return grad


def bracket_field(f, g, theta):
    """{f, g} as a new ScalarField, evaluable at dual points (nestable):
    the canonical bracket plus theta (f_x g_y - f_y g_x)."""
    th = float(theta)

    def fn(x, y, px, py, t):
        fx, fy, fpx, fpy = f.partials(x, y, px, py, t)
        gx, gy, gpx, gpy = g.partials(x, y, px, py, t)
        return fx * gpx + fy * gpy - fpx * gx - fpy * gy + th * (fx * gy - fy * gx)

    return ScalarField(fn, f"{{{f.name},{g.name}}}")


def galilei_generators(p: NCParams):
    """The free-particle Galilei generators H, p1, p2, J, k1, k2.

    J carries the theta/2 p.p tail and the boosts the m*theta eps_ij p_j
    tail; k_i depend on time explicitly.
    """
    m, th = p.m, p.theta
    inv2m = 0.5 / m

    H = ScalarField(lambda x, y, px, py, t: (px * px + py * py) * inv2m, "H")
    P1 = ScalarField(lambda x, y, px, py, t: px, "p1")
    P2 = ScalarField(lambda x, y, px, py, t: py, "p2")
    J = ScalarField(
        lambda x, y, px, py, t: x * py - y * px + 0.5 * th * (px * px + py * py), "J")
    K1 = ScalarField(lambda x, y, px, py, t: m * x - px * t + m * th * py, "k1")
    K2 = ScalarField(lambda x, y, px, py, t: m * y - py * t - m * th * px, "k2")
    return H, P1, P2, J, K1, K2


@dataclass(frozen=True)
class AlgebraReport:
    """Max residual per Galilei bracket relation over a set of sample points."""

    residuals: dict
    tol: float

    @property
    def ok(self):
        return all(r < self.tol for r in self.residuals.values())

    def rows(self):
        for name, r in self.residuals.items():
            yield name, r, r < self.tol

    def max_residual(self):
        return max(self.residuals.values())


def sample_points(n, seed=42):
    if n < 1:
        raise ValueError(f"samples must be at least 1, got {n!r}")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-_BOX, _BOX, size=(n, 4))
    return [PhasePoint(*map(float, row)) for row in pts]


# the boosts k_i depend on t explicitly: the algebra is checked at each time
_TIMES = (0.0, 1.3)


def verify_algebra(p: NCParams, samples=None, tol=1e-9):
    """Evaluate all eight Galilei bracket relations at every sample point
    and every time of _TIMES; each residual is the worst of them.

    ``samples`` is a sequence of points (PhasePoints or rows), stacked once
    per time into one (4, 2n) array so each bracket and each right-hand
    side is evaluated once over all of them.  The expected right-hand sides
    include the central extensions m and m^2*theta; a failing relation
    shows up as a large residual, a non-finite bracket as a
    FieldEvaluationError.
    """
    if samples is None:
        samples = sample_points(100)
    if len(samples) == 0:
        raise ValueError("verify_algebra needs at least one sample point")
    Z = np.array([_coords(z) for z in samples], dtype=float).T
    Z, t = np.tile(Z, len(_TIMES)), np.repeat(_TIMES, len(samples))
    m, th = p.m, p.theta
    H, P1, P2, J, K1, K2 = galilei_generators(p)
    # each case (f, g, c, G) states {f, g} = c G, or {f, g} = c if G is None
    relations = {
        "{p_i,H}=0": [(P1, H, 0.0, None), (P2, H, 0.0, None)],
        "{p_i,p_j}=0": [(P1, P2, 0.0, None)],
        "{J,H}=0": [(J, H, 0.0, None)],
        "{J,p_i}=eps_ij p_j": [(J, P1, 1.0, P2), (J, P2, -1.0, P1)],
        "{k_j,H}=p_j": [(K1, H, 1.0, P1), (K2, H, 1.0, P2)],
        "{k_j,p_i}=m delta_ji": [(K1, P1, m, None), (K1, P2, 0.0, None),
                                 (K2, P1, 0.0, None), (K2, P2, m, None)],
        "{J,k_i}=eps_ij k_j": [(J, K1, 1.0, K2), (J, K2, -1.0, K1)],
        "{k_i,k_j}=-m^2 theta eps_ij": [(K1, K2, -m * m * th, None)],
    }

    return AlgebraReport({
        name: max(float(np.max(np.abs(bracket_field(f, g, th).value(Z, t)
                                      - (c if G is None else c * G.value(Z, t)))))
                  for f, g, c, G in cases)
        for name, cases in relations.items()}, tol)
