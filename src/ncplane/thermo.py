"""Einstein-solid thermodynamics built on the deformed oscillator levels.

With E(n, two_j) = a (n + 1) - b two_j, where a = hbar w sqrt(1 + u),
b = hbar m theta w^2 / 2 and u = (m w theta)^2 / 4 (the NCParams
properties), the single-site partition function has the closed form

    Z1 = 1 / (2 [cosh(a beta) - cosh(b beta)]),

even in theta because b enters through cosh only.  A solid of N
independent sites multiplies free energies.  The kernel _closed_forms,
behind thermo_point, accepts dual numbers in T, so temperature
derivatives can be cross-checked against the analytic entropy and heat
capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import duals
from .duals import value
from .params import CheckFailure, NCParams
from .spectra import _level_energy

# beyond this the exponential form of cosh is exact to double precision
_LOG_SWITCH = 30.0
# partition_single_direct sums until the slowest term falls below this
DIRECT_TOL = 1e-14


@dataclass(frozen=True)
class ThermoParams:
    """Oscillator parameters plus the number of independent sites."""

    nc: NCParams
    N: int = 1

    def __post_init__(self):
        self.nc.require_omega()
        if not isinstance(self.N, int) or isinstance(self.N, bool) or self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N!r}")


def _beta(T, p: NCParams):
    if not 0.0 < value(T) < math.inf:
        raise ValueError(f"temperature must be positive and finite, got {T!r}")
    kT = p.kB * T
    if value(kT) == 0.0 or 1.0 / value(kT) == math.inf:
        raise ValueError(f"kB*T = {value(kT)!r} underflows at kB={p.kB!r}, "
                         f"T={value(T)!r}: beta = 1/(kB*T) is not finite")
    return 1.0 / kT


def _closed_forms(T, tp: ThermoParams):
    """(ln Z1, U, S, Cv) at T from one set of Boltzmann factors."""
    N, kB = tp.N, tp.nc.kB
    a, b = tp.nc.a, abs(tp.nc.b)      # every quantity is even in b
    beta = _beta(T, tp.nc)
    ab, bb = a * beta, b * beta
    e2a = duals.exp(-2.0 * ab)        # = ep em
    ep = duals.exp(-(ab - bb))
    em = duals.exp(-(ab + bb))
    if value(ab) < _LOG_SWITCH:
        c = duals.cosh(ab) - duals.cosh(bb)
        lnZ = -duals.log(2.0 * c)
        U = N * (a * duals.sinh(ab) - b * duals.sinh(bb)) / c
        S = N * kB * lnZ + U / T
    else:
        # cosh x = e^x (1 + e^{-2x}) / 2: scaled by 2 e^{-a beta}, every
        # remaining exponent is negative; a > |b| keeps the bracket positive
        lnZ = -(ab + duals.log1p(e2a - ep - em))
        den = 1.0 + e2a - ep - em
        U = N * (a * (1.0 - e2a) - b * (ep - em)) / den
        # N kB ln Z1 and U / T each grow like a beta while S decays, so
        # beta (U1 - a) is written without forming U1 - a by subtraction
        tail = beta * ((a - b) * ep + (a + b) * em - 2.0 * a * e2a) / den
        S = N * kB * (tail - duals.log1p(e2a - ep - em))
    # Cv = dU/dT.  dU1/dbeta = num2/den - (num1/den)^2 cancels O(a^2)
    # pieces down to an exponentially small difference at low T, so
    # num1^2 - num2 den is expanded by hand into terms all of the size of
    # the answer, and den factors as (1 - ep)(1 - em).
    num = ((a * a + b * b) * ((1.0 + e2a) * (ep + em) - 4.0 * e2a)
           - 2.0 * a * b * (1.0 - e2a) * (ep - em))
    den = duals.expm1(-(ab - bb)) * duals.expm1(-(ab + bb))
    kTT = kB * T * T
    if value(kTT) == 0.0:
        # T -> 0, where Cv ~ num / kTT underflows along with num itself
        if value(num) != 0.0:
            raise ValueError(f"kB*T*T underflows to 0 at T={value(T)!r}")
        return lnZ, U, S, 0.0
    return lnZ, U, S, N * num / (den * den) / kTT


def partition_single_direct(T, tp: ThermoParams):
    """Brute-force oracle: sum e^{-beta E} over levels until terms vanish.

    It shares the level scales (a, b) of NCParams with the closed form, so
    what it pins is the cosh resummation alone; the scales themselves are
    pinned against the normal modes of J(theta) A in the tests.  The
    slowest series direction decays like e^{-beta (a - b) n}, which sets
    the cut-off.  The ladder up to n_max is laid out as integer arrays and
    the terms are added one by one with math.fsum.
    """
    a, b = tp.nc.a, tp.nc.b
    beta = _beta(T, tp.nc)
    gap = a - abs(b)
    if gap <= 0:
        raise ValueError("level ladder is not bounded below")
    n_max = math.ceil(math.log(1.0 / DIRECT_TOL) / (beta * gap)) + 10
    n, k = np.tril_indices(n_max + 1)      # row n, two_j = 2k - n
    E = _level_energy(n, 2 * k - n, tp.nc)
    return math.fsum(np.exp(-beta * E).tolist())


@dataclass(frozen=True)
class ThermoPoint:
    """One consistent (T, theta) row of the equation of state."""

    T: float
    theta: float
    Z1: float
    A: float
    S: float
    U: float
    Cv: float
    S_per_NkB: float

    def __post_init__(self):
        scale = max(abs(self.U), abs(self.A), 1e-300)
        if abs(self.U - (self.A + self.T * self.S)) > 1e-10 * scale:
            raise CheckFailure(
                f"thermodynamic identity U = A + TS violated at T={self.T}: "
                f"U={self.U!r} vs {self.A + self.T * self.S!r}")
        if self.Cv < -1e-9:
            raise CheckFailure(f"negative heat capacity {self.Cv!r} at T={self.T}")


def thermo_point(T: float, tp: ThermoParams) -> ThermoPoint:
    """The equation-of-state row at T, from one closed-form evaluation."""
    lnZ, U, S, Cv = _closed_forms(T, tp)
    return ThermoPoint(T=float(T), theta=tp.nc.theta, Z1=duals.exp(lnZ),
                       A=-tp.N * tp.nc.kB * T * lnZ, S=S, U=U, Cv=Cv,
                       S_per_NkB=S / (tp.N * tp.nc.kB))


def entropy_sweep(temps, tp: ThermoParams, thetas) -> list[ThermoPoint]:
    """Equation-of-state rows over temperatures crossed with thetas, theta
    outermost; tp.nc.theta is replaced by each theta in turn."""
    rows = []
    for theta in thetas:
        tpt = replace(tp, nc=replace(tp.nc, theta=float(theta)))
        rows.extend(thermo_point(T, tpt) for T in temps)
    return rows
