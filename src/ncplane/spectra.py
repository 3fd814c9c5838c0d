"""Oscillator eigensystem and basis changes in the deformed momentum bases.

In the (p_x, p_y) representation the position operators read
x = i hbar d/dp_x - (theta/2) p_y and y = i hbar d/dp_y + (theta/2) p_x,
so the oscillator Hamiltonian becomes a commutative oscillator of the
reduced frequency w_eff = omega / sqrt(1 + u), u = (m omega theta)^2 / 4,
plus a term proportional to the angular momentum.  Eigenstates are
labelled by (n, two_j) with |two_j| <= n and two_j = n (mod 2):

    E = a (n + 1) - b two_j,  a = hbar omega sqrt(1 + u),
                              b = hbar m theta omega^2 / 2,

where u, w_eff, a and b are read from the NCParams properties.

Two conventions here fix known misprints in the source formulas and are
forced by the eigen-residual checks: Hermite arguments carry
p / sqrt(m hbar w_eff) (not p / (m hbar w_eff)), and the kinetic Laplacian
acts on both momentum axes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .params import NCParams
from .grids import (
    BASES,
    GridError,
    GridFunction,
    first_derivative,
    second_derivative,
    stencil_band,
    trapezoid_weights,
    uniform_axis,
)


class TruncationError(ValueError):
    """Grid boundary truncates the state beyond tolerance."""


class AliasingError(ValueError):
    """Source grid too coarse to resolve the transform kernel."""


@dataclass(frozen=True)
class SpectrumEntry:
    n: int
    two_j: int
    E: float


def validate_level(n: int, two_j: int):
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    if not isinstance(two_j, (int, np.integer)) or isinstance(two_j, bool):
        raise ValueError(f"two_j must be an integer, got {two_j!r}")
    if abs(two_j) > n or (n - two_j) % 2 != 0:
        raise ValueError(
            f"two_j must satisfy |two_j| <= n and two_j = n (mod 2); "
            f"got (n, two_j) = ({n}, {two_j})")


def energy(n: int, two_j: int, p: NCParams) -> float:
    validate_level(n, two_j)
    return _level_energy(n, two_j, p)


def _level_energy(n, two_j, p: NCParams):
    """E(n, two_j) unchecked; elementwise on integer arrays of levels."""
    return p.a * (n + 1) - p.b * two_j


def spectrum(n_max: int, p: NCParams) -> list[SpectrumEntry]:
    """All levels with n <= n_max, ordered by n then two_j ascending."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    out = []
    for n in range(n_max + 1):
        for two_j in range(-n, n + 1, 2):
            out.append(SpectrumEntry(n, two_j, energy(n, two_j, p)))
    return out


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n by the three-term recurrence."""
    if n < 0:
        raise ValueError(f"hermite order must be >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    h0 = np.ones_like(x)
    if n == 0:
        return h0
    h1 = 2.0 * x
    for k in range(1, n):
        h0, h1 = h1, 2.0 * x * h1 - 2.0 * k * h0
    return h1


def momentum_grid(p: NCParams, n_nodes: int = 256, radius: float = 8.0):
    """Square (p_x, p_y) axes spanning radius Gaussian widths sqrt(m hbar w_eff)."""
    ax = uniform_axis(-radius * p.width, radius * p.width, n_nodes)
    return ax, ax.copy()


def eigenfunction(n: int, two_j: int, p: NCParams, axes=None,
                  tail_tol: float = 1e-10) -> GridFunction:
    """Joint (H, J) eigenstate psi_{n, j} on a (p_x, p_y) grid, unit L2 norm.

    Evaluates the double binomial sum over products of Hermite functions of
    P = p / sqrt(m hbar w_eff), then renormalizes numerically.  Raises
    TruncationError when the boundary amplitude exceeds tail_tol relative
    to the peak (grid too small for the state).
    """
    validate_level(n, two_j)
    if axes is None:
        axes = momentum_grid(p)
    pxa, pya = axes
    Px = np.asarray(pxa, dtype=float) / p.width
    Py = np.asarray(pya, dtype=float) / p.width

    a = (n + two_j) // 2
    b = (n - two_j) // 2
    # precompute the Hermite ladder on both axes once
    Hx = [hermite(k, Px) for k in range(n + 1)]
    Hy = [hermite(k, Py) for k in range(n + 1)]
    i_pow = (1.0, 1.0j, -1.0, -1.0j)
    acc = np.zeros((Px.size, Py.size), dtype=complex)
    for r in range(a + 1):
        for q in range(b + 1):
            k = r + q
            c = math.comb(a, r) * math.comb(b, q) * (-1) ** q * i_pow[k % 4]
            acc += c * np.outer(Hx[n - k], Hy[k])
    gauss = np.exp(-0.5 * Px ** 2)[:, None] * np.exp(-0.5 * Py ** 2)[None, :]
    psi = GridFunction(pxa, pya, acc * gauss, "p").normalized()

    peak = float(np.abs(psi.values).max())
    if psi.boundary_max() > tail_tol * peak:
        raise TruncationError(
            f"boundary amplitude {psi.boundary_max():.3e} exceeds "
            f"{tail_tol:.1e} of the peak; enlarge the grid")
    return psi


def _require_p_basis(psi: GridFunction):
    if psi.basis != "p":
        raise GridError(f"operator defined on the (p_x, p_y) basis, "
                        f"got {psi.basis!r}")


def _nyquist_check(psi: GridFunction, p: NCParams):
    h = max(psi.step1, psi.step2)
    if h > 0.5 * p.width:
        warnings.warn(
            f"grid step {h:.3g} is coarse against the oscillator width "
            f"{p.width:.3g}; differential operators lose accuracy",
            RuntimeWarning, stacklevel=3)


def apply_hamiltonian(psi: GridFunction, p: NCParams,
                      order: int = 6) -> GridFunction:
    """Oscillator Hamiltonian in the momentum representation.

    H psi = (1 + u) p^2/2m psi - (hbar^2 m w^2/2) lap(psi)
            - (i hbar theta m w^2 / 2)(p_y d/dp_x - p_x d/dp_y) psi,
    with u = m^2 w^2 theta^2 / 4.  Differencing is centered of the given
    order with the boundary band left zero; callers exclude that band from
    norms.  The default order 6 is what holds eigen-residuals below 1e-6 on
    256^2 grids up to n = 4; order 4 is available but a factor ~30 looser.
    """
    _require_p_basis(psi)
    _nyquist_check(psi, p)
    px = psi.axis1[:, None]
    py = psi.axis2[None, :]
    F = psi.values
    lap = (second_derivative(F, psi.step1, 0, order)
           + second_derivative(F, psi.step2, 1, order))
    dpx = first_derivative(F, psi.step1, 0, order)
    dpy = first_derivative(F, psi.step2, 1, order)
    out = ((1.0 + p.u) / (2.0 * p.m) * (px ** 2 + py ** 2) * F
           - 0.5 * p.hbar ** 2 * p.m * p.omega ** 2 * lap
           - 0.5j * p.hbar * p.lam * (py * dpx - px * dpy))
    return psi.with_values(out)


def apply_angular_momentum(psi: GridFunction, p: NCParams,
                           order: int = 6) -> GridFunction:
    """J psi = i hbar (p_y d/dp_x - p_x d/dp_y) psi."""
    _require_p_basis(psi)
    px = psi.axis1[:, None]
    py = psi.axis2[None, :]
    dpx = first_derivative(psi.values, psi.step1, 0, order)
    dpy = first_derivative(psi.values, psi.step2, 1, order)
    return psi.with_values(1j * p.hbar * (py * dpx - px * dpy))


def operator_residual(applied: GridFunction, psi: GridFunction,
                      eigenvalue: float, order: int = 6) -> float:
    """Relative interior L2 residual ||A psi - lambda psi|| / ||psi||."""
    band = stencil_band(order)
    diff = applied.with_values(applied.values - eigenvalue * psi.values)
    return diff.interior_norm(band) / psi.interior_norm(band)


def eigen_residuals(n: int, two_j: int, p: NCParams, axes=None,
                    order: int = 6):
    """(H-residual, J-residual) for psi_{n, j} on the given or default grid."""
    psi = eigenfunction(n, two_j, p, axes)
    rH = operator_residual(apply_hamiltonian(psi, p, order), psi,
                           energy(n, two_j, p), order)
    rJ = operator_residual(apply_angular_momentum(psi, p, order), psi,
                           p.hbar * two_j, order)
    return rH, rJ


# --- quadrature transforms -------------------------------------------------

def _alias_guard(step: float, reach: float, hbar: float, what: str):
    """reach = largest |conjugate coordinate| the kernel oscillates against."""
    if reach > 0 and step > math.pi * hbar / reach:
        raise AliasingError(
            f"source step {step:.3g} undersamples the kernel for {what} "
            f"out to {reach:.3g} (limit {math.pi * hbar / reach:.3g})")


def _amax(a) -> float:
    return float(np.abs(a).max())


def _phase_outer(a, b, hbar, sign=1.0):
    return np.exp((1j * sign / hbar) * np.outer(a, b))


# Per basis: the (p_x, p_y) slot k on the grid's first axis, and the sign s
# of its half shear.  A mixed basis (s != 0) trades p_k for its conjugate
# position q, with <q, p_other | p'> = delta(p_other - p_other')
# e^{i[q p_k' + s theta p_x' p_y' / 2]/hbar} / sqrt(2 pi hbar).
_BASIS = {"p": (0, 0.0), "xpy": (0, 1.0), "ypx": (1, -1.0)}
_NAMES = (("p_x", "x"), ("p_y", "y"))


def _slots(k, a, b):
    """Grid-ordered pair (a, b) in (p_x, p_y) slot order, or back."""
    return (b, a) if k else (a, b)


def transform(psi: GridFunction, to_basis: str, p: NCParams,
              axes=None) -> GridFunction:
    """Change of representation by trapezoid quadrature of the flat kernels.

    Every change runs through (p_x, p_y).  Leaving a mixed basis integrates
    its position against the traded momentum; entering one integrates that
    momentum against the new position.  The shear phase between them is
    the difference of the two half shears, so mixed to mixed applies one
    theta phase, <x, p_y | y, p_x> = e^{i[x p_x - y p_y + theta p_x p_y]/hbar}
    / (2 pi hbar), and its second alias guard counts the full |theta| shear.

    Delta-matched coordinates keep the source axis; a genuinely conjugate
    target axis defaults to the numeric range of its source partner (good
    for states whose widths are near 1 in the working units; pass explicit
    axes otherwise).  Raises AliasingError when the source grid cannot
    resolve the kernel oscillation over the requested target axis.
    """
    if to_basis not in BASES:
        raise GridError(f"unknown target basis {to_basis!r}")
    if to_basis == psi.basis:
        return psi
    hbar, th = p.hbar, p.theta
    (k0, s0), (k1, s1) = _BASIS[psi.basis], _BASIS[to_basis]
    src = _slots(k0, psi.axis1, psi.axis2)
    step = _slots(k0, psi.step1, psi.step2)
    want = _slots(k1, axes[0], axes[1]) if axes is not None else src
    traded = {k for k, s in ((k0, s0), (k1, s1)) if s}
    for i in {0, 1} - traded:
        if not np.array_equal(np.asarray(want[i], float), src[i]):
            raise GridError(f"{_NAMES[i][0]} is delta-matched; target axis"
                            f"{i + 1 if to_basis == 'p' else 2} must equal source")
    # target axes in slot order, and the (p_x, p_y) axes passed in between
    tgt = [np.array(want[i], float) if i in traded else src[i] for i in (0, 1)]
    mom = [tgt[i] if s0 and i == k0 else src[i] for i in (0, 1)]

    v = psi.values
    if s0:                          # leave: integrate q against p_k0
        _alias_guard(step[k0], _amax(mom[k0]), hbar, _NAMES[k0][0])
        w = trapezoid_weights(src[k0])
        v = _phase_outer(mom[k0], src[k0], hbar, -1.0) @ (w[:, None] * v)
    if k0 != k1:
        v = v.T
    shear = _phase_outer(mom[k1], 0.5 * (s1 - s0) * th * mom[1 - k1], hbar)
    rt = math.sqrt(2.0 * math.pi * hbar)
    if not s1:
        return GridFunction(mom[0], mom[1], v * shear / rt, "p")
    # enter: integrate p_k1 against the target position
    reach = _amax(tgt[k1]) + 0.5 * abs(s1 - s0) * abs(th) * _amax(mom[1 - k1])
    _alias_guard(step[k1], reach, hbar, _NAMES[k1][1])
    w = trapezoid_weights(mom[k1])
    v = _phase_outer(tgt[k1], mom[k1], hbar) @ ((w[:, None] * shear) * v)
    return GridFunction(tgt[k1], tgt[1 - k1],
                        v / (2.0 * math.pi * hbar if s0 else rt), to_basis)
