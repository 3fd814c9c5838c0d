"""Einstein-solid thermodynamics built on the deformed oscillator levels.

The levels E(n, two_j) = a (n + 1) - b two_j (a, b the NCParams scales)
are those of two ordinary oscillators, the normal modes of J(theta) A,
with quanta a +- |b| = hbar phi and hbar chi.  So the single-site
partition function is a product of two geometric series,

    Z1 = e^{-beta a} / ((1 - e^{-beta hbar phi}) (1 - e^{-beta hbar chi})),

even in theta because theta -> -theta swaps the modes.  _closed_forms sums
ln Z1, U, S and Cv over the two modes in forms that cancel at no
temperature, and accepts dual numbers in T.  A solid of N independent
sites multiplies free energies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import duals
from .duals import value
from .params import CheckFailure, NCParams

# partition_single_direct sums until the slowest term falls below this
DIRECT_TOL = 1e-14


def _beta(T, p: NCParams):
    if not 0.0 < value(T) < math.inf:
        raise ValueError(f"temperature must be positive and finite, got {T!r}")
    kT = p.kB * T
    if value(kT) == 0.0 or 1.0 / value(kT) == math.inf:
        raise ValueError(f"kB*T = {value(kT)!r} underflows at kB={p.kB!r}, "
                         f"T={value(T)!r}: beta = 1/(kB*T) is not finite")
    return 1.0 / kT


def _closed_forms(T, p: NCParams, N: int):
    """(ln Z1, U, S, Cv) at T for N sites, summed over the two normal modes."""
    kB, a = p.kB, p.a
    beta = _beta(T, p)
    lnZ, U, S, Cv = -beta * a, N * a, 0.0, 0.0   # the zero-point part
    # the larger quantum first, so that theta -> -theta keeps every bit
    for e in sorted((p.hbar * p.phi, p.hbar * p.chi), reverse=True):
        x2 = beta * e                     # 2x = beta hbar omega of the mode
        if not 0.0 < value(x2) < math.inf:
            raise ValueError(f"beta*hbar*omega = {value(x2)!r} at "
                             f"T={value(T)!r} is not finite and positive")
        q, d = duals.exp(-x2), -duals.expm1(-x2)      # d = 1 - q
        r = q / d                         # the mode's mean occupation
        ln_d = duals.log1p(-q) if value(q) < 0.5 else duals.log(d)
        lnZ = lnZ - ln_d
        U = U + N * e * r
        S = S + N * kB * (x2 * r - ln_d)
        # 4 x^2 q / d^2, grouped so that no x^2 overflows and no 0 * inf occurs
        Cv = Cv + N * kB * (x2 * (x2 * r) / d)
    return lnZ, U, S, Cv


def partition_single_direct(T, p: NCParams):
    """Brute-force oracle: sum e^{-beta E} over levels until terms vanish.

    It builds the levels from the scales (a, b) of NCParams, while the
    closed form takes its mode quanta from phi and chi: the two share only
    the zero-point scale a, so a wrong level spacing on either side shows.
    The slowest series direction decays like e^{-beta (a - b) n}, which
    sets the cut-off.  np.add.reduceat sums each shell n of the ladder (its
    n + 1 values of two_j) and math.fsum adds the n_max + 1 shell sums."""
    a, b = p.a, p.b
    beta = _beta(T, p)
    gap = a - abs(b)
    if gap <= 0:
        raise ValueError("level ladder is not bounded below")
    n_max = math.ceil(math.log(1.0 / DIRECT_TOL) / (beta * gap)) + 10
    n, k = np.tril_indices(n_max + 1)      # row n, two_j = 2k - n
    E = p.level(n, 2 * k - n)
    shells = np.add.reduceat(np.exp(-beta * E), np.flatnonzero(k == 0))
    return math.fsum(shells.tolist())


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
        for name, v in vars(self).items():   # NaN passes both checks below
            if not math.isfinite(v):
                raise CheckFailure(f"non-finite {name} = {v!r} at T={self.T}")
        scale = max(abs(self.U), abs(self.A), 1e-300)
        if abs(self.U - (self.A + self.T * self.S)) > 1e-10 * scale:
            raise CheckFailure(
                f"thermodynamic identity U = A + TS violated at T={self.T}: "
                f"U={self.U!r} vs {self.A + self.T * self.S!r}")
        if self.Cv < -1e-9:
            raise CheckFailure(f"negative heat capacity {self.Cv!r} at T={self.T}")


def thermo_point(T: float, p: NCParams, N: int = 1) -> ThermoPoint:
    """The equation-of-state row of N sites at T, from one closed-form
    evaluation."""
    if not isinstance(N, int) or isinstance(N, bool) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    lnZ, U, S, Cv = _closed_forms(T, p, N)
    try:
        Z1 = math.exp(lnZ)
    except OverflowError:
        raise ValueError(f"Z1 = exp({lnZ!r}) overflows at T={T!r}") from None
    return ThermoPoint(T=float(T), theta=p.theta, Z1=Z1,
                       A=-N * p.kB * T * lnZ, S=S, U=U, Cv=Cv,
                       S_per_NkB=S / (N * p.kB))


def entropy_sweep(temps, p: NCParams, thetas, N: int = 1) -> list[ThermoPoint]:
    """Equation-of-state rows of N sites over temperatures crossed with
    thetas, theta outermost; p.theta is replaced by each theta in turn."""
    rows = []
    for theta in thetas:
        p_theta = replace(p, theta=float(theta))
        rows.extend(thermo_point(T, p_theta, N) for T in temps)
    return rows
