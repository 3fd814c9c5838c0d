"""Einstein-solid thermodynamics built on the deformed oscillator levels.

With E(n, two_j) = a (n + 1) - b two_j, where a = hbar w sqrt(1 + u),
b = hbar m theta w^2 / 2 and u = (m w theta)^2 / 4 (the NCParams
properties), the single-site partition function has the closed form

    Z1 = 1 / (2 [cosh(a beta) - cosh(b beta)]),

even in theta because b enters through cosh only.  A solid of N
independent sites multiplies free energies.  All scalar routines accept
dual numbers in T, so temperature derivatives can be cross-checked
against the analytic entropy and heat capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import duals
from .duals import value
from .params import CheckFailure, NCParams
from .spectra import _level_energy

# beyond this the exponential form of cosh is exact to double precision
_LOG_SWITCH = 30.0


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
    if value(T) <= 0.0:
        raise ValueError(f"temperature must be positive, got {T!r}")
    return 1.0 / (p.kB * T)


def _log_denominator(beta, a, b):
    """log{ 2 [cosh(a beta) - cosh(b beta)] }, overflow-safe."""
    ab = a * beta
    bb = abs(b) * beta
    if value(ab) < _LOG_SWITCH:
        return duals.log(2.0 * (duals.cosh(ab) - duals.cosh(bb)))
    # cosh x = e^x (1 + e^{-2x}) / 2; a > |b| keeps the bracket positive
    return ab + duals.log1p(duals.exp(-2.0 * ab) - duals.exp(-(ab - bb))
                            - duals.exp(-(ab + bb)))


def log_partition_single(T, tp: ThermoParams):
    """ln Z1; prefer this to partition_single at low temperature."""
    return -_log_denominator(_beta(T, tp.nc), tp.nc.a, tp.nc.b)


def partition_single(T, tp: ThermoParams):
    return duals.exp(log_partition_single(T, tp))


def free_energy(T, tp: ThermoParams):
    """A = -N kB T ln Z1."""
    return -tp.N * tp.nc.kB * T * log_partition_single(T, tp)


def internal_energy(T, tp: ThermoParams):
    """U = N [a sinh(a beta) - b sinh(b beta)] / [cosh(a beta) - cosh(b beta)]."""
    a, b = tp.nc.a, tp.nc.b
    beta = _beta(T, tp.nc)
    ab, bb = a * beta, b * beta
    if value(ab) < _LOG_SWITCH:
        num = a * duals.sinh(ab) - b * duals.sinh(bb)
        den = duals.cosh(ab) - duals.cosh(bb)
        return tp.N * num / den
    # scaled by 2 e^{-a beta}: every remaining exponent is negative
    e2a = duals.exp(-2.0 * ab)
    ep = duals.exp(-(ab - bb))
    em = duals.exp(-(ab + bb))
    num = a * (1.0 - e2a) - b * (ep - em)
    den = 1.0 + e2a - ep - em
    return tp.N * num / den


def entropy(T, tp: ThermoParams):
    """S = N kB ln Z1 + U / T = -dA/dT, arranged to vanish cleanly at T -> 0.

    Below the switch the two terms are evaluated directly.  At low
    temperature each grows like a beta while their sum decays, so the
    residual pieces are kept explicitly instead.
    """
    a, b = tp.nc.a, tp.nc.b
    beta = _beta(T, tp.nc)
    ab, bb = a * beta, abs(b) * beta
    if value(ab) < _LOG_SWITCH:
        return tp.N * tp.nc.kB * log_partition_single(T, tp) \
            + internal_energy(T, tp) / T
    e2a = duals.exp(-2.0 * ab)
    ep = duals.exp(-(ab - bb))
    em = duals.exp(-(ab + bb))
    den = 1.0 + e2a - ep - em
    # beta (U1 - a) written without forming U1 - a by subtraction
    tail = beta * ((a - abs(b)) * ep + (a + abs(b)) * em - 2.0 * a * e2a) / den
    return tp.N * tp.nc.kB * (tail - duals.log1p(e2a - ep - em))


def heat_capacity(T, tp: ThermoParams):
    """Cv = dU/dT in closed form.

    dU1/dbeta = num2/den - (num1/den)^2 contains a cancellation between
    O(a^2) pieces whose difference is exponentially small at low T, so
    the combination num1^2 - num2 den is expanded by hand.  With
    e2 = e^{-2 a beta}, ep = e^{-(a-|b|) beta}, em = e^{-(a+|b|) beta}
    (note ep em = e2) it collapses to terms that are all of the size of
    the answer, and den factors as (1 - ep)(1 - em).
    """
    a, b = tp.nc.a, tp.nc.b
    beta = _beta(T, tp.nc)
    ab, bb = a * beta, abs(b) * beta
    e2a = duals.exp(-2.0 * ab)
    ep = duals.exp(-(ab - bb))
    em = duals.exp(-(ab + bb))
    num = ((a * a + b * b) * ((1.0 + e2a) * (ep + em) - 4.0 * e2a)
           - 2.0 * a * abs(b) * (1.0 - e2a) * (ep - em))
    den = duals.expm1(-(ab - bb)) * duals.expm1(-(ab + bb))
    return tp.N * num / (den * den) / (tp.nc.kB * T * T)


def partition_single_direct(T, tp: ThermoParams, tol: float = 1e-14):
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
    n_max = math.ceil(math.log(1.0 / tol) / (beta * gap)) + 10
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
    S = entropy(T, tp)
    return ThermoPoint(
        T=float(T),
        theta=tp.nc.theta,
        Z1=partition_single(T, tp),
        A=free_energy(T, tp),
        S=S,
        U=internal_energy(T, tp),
        Cv=heat_capacity(T, tp),
        S_per_NkB=S / (tp.N * tp.nc.kB),
    )


def entropy_sweep(temps, tp: ThermoParams, thetas=None) -> list[ThermoPoint]:
    """Equation-of-state rows over temperatures, optionally crossed with thetas."""
    rows = []
    if thetas is None:
        return [thermo_point(T, tp) for T in temps]
    base = tp.nc
    for theta in thetas:
        nc = NCParams(m=base.m, omega=base.omega, theta=float(theta),
                      hbar=base.hbar, kB=base.kB)
        tpt = ThermoParams(nc=nc, N=tp.N)
        rows.extend(thermo_point(T, tpt) for T in temps)
    return rows
