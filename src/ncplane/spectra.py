"""Oscillator eigensystem and basis changes in the deformed momentum bases.

In the (p_x, p_y) representation the position operators read
x = i hbar d/dp_x - (theta/2) p_y and y = i hbar d/dp_y + (theta/2) p_x,
so the oscillator Hamiltonian becomes a commutative oscillator of the
reduced frequency w_eff = omega / sqrt(1 + m^2 omega^2 theta^2 / 4) plus a
term proportional to the angular momentum.  Eigenstates are labelled by
(n, two_j) with |two_j| <= n and two_j = n (mod 2):

    E = hbar omega sqrt(1 + m^2 omega^2 theta^2/4) (n+1)
        - theta m omega^2 hbar (two_j/2).

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


class GaugeError(ValueError):
    """Only the flat simply-connected gauge is representable."""


@dataclass(frozen=True)
class GaugeChoice:
    """Measure densities and gauge fields of the representation.

    Only the flat choice (unit measures, vanishing fields) is supported;
    it exists as a type so the restriction is explicit at call sites.
    """

    g: float = 1.0
    h: float = 1.0
    gamma: float = 1.0
    A: float = 0.0
    C: float = 0.0
    Fx: float = 0.0
    Fy: float = 0.0

    @property
    def is_flat(self) -> bool:
        return (self.g == self.h == self.gamma == 1.0
                and self.A == self.C == self.Fx == self.Fy == 0.0)

    def require_flat(self):
        if not self.is_flat:
            raise GaugeError("non-flat gauge data is not supported")


FLAT_GAUGE = GaugeChoice()


@dataclass(frozen=True)
class SpectrumEntry:
    n: int
    two_j: int
    E: float


def effective_frequency(p: NCParams) -> float:
    """w_eff = omega / sqrt(1 + m^2 omega^2 theta^2 / 4); <= omega always."""
    p.require_omega()
    u = (p.m * p.omega * p.theta) ** 2 / 4.0
    return p.omega / math.sqrt(1.0 + u)


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
    p.require_omega()
    return _level_energy(n, two_j, p)


def _level_energy(n, two_j, p: NCParams):
    """E(n, two_j) unchecked; elementwise on integer arrays of levels."""
    u = (p.m * p.omega * p.theta) ** 2 / 4.0
    return (p.hbar * p.omega * math.sqrt(1.0 + u) * (n + 1)
            - p.theta * p.m * p.omega ** 2 * p.hbar * (two_j / 2.0))


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
    s = math.sqrt(p.m * p.hbar * effective_frequency(p))
    ax = uniform_axis(-radius * s, radius * s, n_nodes)
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
    scale = math.sqrt(p.m * p.hbar * effective_frequency(p))
    Px = np.asarray(pxa, dtype=float) / scale
    Py = np.asarray(pya, dtype=float) / scale

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
    width = math.sqrt(p.m * p.hbar * effective_frequency(p))
    h = max(psi.step1, psi.step2)
    if h > 0.5 * width:
        warnings.warn(
            f"grid step {h:.3g} is coarse against the oscillator width "
            f"{width:.3g}; differential operators lose accuracy",
            RuntimeWarning, stacklevel=3)


def apply_hamiltonian(psi: GridFunction, p: NCParams, order: int = 6,
                      gauge: GaugeChoice = FLAT_GAUGE) -> GridFunction:
    """Oscillator Hamiltonian in the momentum representation.

    H psi = (1 + u) p^2/2m psi - (hbar^2 m w^2/2) lap(psi)
            - (i hbar theta m w^2 / 2)(p_y d/dp_x - p_x d/dp_y) psi,
    with u = m^2 w^2 theta^2 / 4.  Differencing is centered of the given
    order with the boundary band left zero; callers exclude that band from
    norms.  The default order 6 is what holds eigen-residuals below 1e-6 on
    256^2 grids up to n = 4; order 4 is available but a factor ~30 looser.
    """
    gauge.require_flat()
    _require_p_basis(psi)
    p.require_omega()
    _nyquist_check(psi, p)
    u = (p.m * p.omega * p.theta) ** 2 / 4.0
    px = psi.axis1[:, None]
    py = psi.axis2[None, :]
    F = psi.values
    lap = (second_derivative(F, psi.step1, 0, order)
           + second_derivative(F, psi.step2, 1, order))
    dpx = first_derivative(F, psi.step1, 0, order)
    dpy = first_derivative(F, psi.step2, 1, order)
    out = ((1.0 + u) / (2.0 * p.m) * (px ** 2 + py ** 2) * F
           - 0.5 * p.hbar ** 2 * p.m * p.omega ** 2 * lap
           - 0.5j * p.hbar * p.theta * p.m * p.omega ** 2 * (py * dpx - px * dpy))
    return psi.with_values(out)


def apply_angular_momentum(psi: GridFunction, p: NCParams, order: int = 6,
                           gauge: GaugeChoice = FLAT_GAUGE) -> GridFunction:
    """J psi = i hbar (p_y d/dp_x - p_x d/dp_y) psi."""
    gauge.require_flat()
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


def free_particle_eigencheck(px0: float, py0: float, p: NCParams,
                             axes=None, order: int = 6) -> float:
    """Residual of the free-particle eigenvalue problem in the (x, p_y) basis.

    Builds the separable state e^{i x px0 / hbar} times a grid spike at the
    p_y node nearest py0 and applies
    H = -(hbar^2/2m) d^2/dx^2 + p_y^2/2m, which carries no theta at all;
    theta-independence is asserted by construction and re-checked here.
    """
    if axes is None:
        L = 8.0 * p.hbar / max(abs(px0), 1.0)
        xa = uniform_axis(-max(L, 8.0), max(L, 8.0), 256)
        pya = uniform_axis(py0 - 8.0, py0 + 8.0, 256)
    else:
        xa, pya = axes
    xa = np.asarray(xa, float)
    pya = np.asarray(pya, float)
    j0 = int(np.argmin(np.abs(pya - py0)))
    vals = np.zeros((xa.size, pya.size), dtype=complex)
    vals[:, j0] = np.exp(1j * xa * px0 / p.hbar)
    psi = GridFunction(xa, pya, vals, "xpy")

    # the free Hamiltonian in this basis is theta-free: the deformation
    # enters position operators only, and H contains none
    d2 = second_derivative(psi.values, psi.step1, 0, order)
    py = psi.axis2[None, :]
    applied = psi.with_values(-0.5 * p.hbar ** 2 / p.m * d2
                              + py ** 2 / (2.0 * p.m) * psi.values)
    E = (px0 ** 2 + float(pya[j0]) ** 2) / (2.0 * p.m)
    return operator_residual(applied, psi, E, order)


# --- basis-change kernels (flat gauge) ------------------------------------

def kernel_xpy_ypx(x, py, y, px, p: NCParams,
                   gauge: GaugeChoice = FLAT_GAUGE) -> complex:
    """<x, p_y | y, p_x> = e^{i[x p_x - p_y y + theta p_y p_x]/hbar}/(2 pi hbar)."""
    gauge.require_flat()
    ph = (x * px - py * y + p.theta * py * px) / p.hbar
    return np.exp(1j * ph) / (2.0 * math.pi * p.hbar)


def kernel_xpy_p(x, py, px_p, py_p, p: NCParams,
                 gauge: GaugeChoice = FLAT_GAUGE) -> complex:
    """Phase factor of <x, p_y | p'>; the delta(p_y - p_y') is implicit.

    Full kernel: delta(p_y - p_y') e^{i[x px' + (theta/2) py' px']/hbar}
    / sqrt(2 pi hbar).  Grid transforms realize the delta as row matching.
    """
    gauge.require_flat()
    del py  # enters only through the implicit delta
    ph = (x * px_p + 0.5 * p.theta * py_p * px_p) / p.hbar
    return np.exp(1j * ph) / math.sqrt(2.0 * math.pi * p.hbar)


def kernel_ypx_p(y, px, px_p, py_p, p: NCParams,
                 gauge: GaugeChoice = FLAT_GAUGE) -> complex:
    """Phase factor of <y, p_x | p'>; the delta(p_x - p_x') is implicit."""
    gauge.require_flat()
    del px
    ph = (y * py_p - 0.5 * p.theta * py_p * px_p) / p.hbar
    return np.exp(1j * ph) / math.sqrt(2.0 * math.pi * p.hbar)


def basis_kernel(src: str, dst: str, p: NCParams, gauge=FLAT_GAUGE, **coords):
    """Kernel <dst coords | src coords> for any representable basis pair.

    Coordinate keywords: x, y, px, py for the mixed bases and px_p, py_p
    for the momentum eigenvalue.  Delta factors of the momentum kernels are
    implicit (documented per kernel).
    """
    pair = (src, dst)
    if src not in BASES or dst not in BASES:
        raise GridError(f"unknown basis pair {pair}")
    if pair == ("ypx", "xpy"):
        return kernel_xpy_ypx(coords["x"], coords["py"], coords["y"],
                              coords["px"], p, gauge)
    if pair == ("xpy", "ypx"):
        return np.conj(kernel_xpy_ypx(coords["x"], coords["py"], coords["y"],
                                      coords["px"], p, gauge))
    if pair == ("p", "xpy"):
        return kernel_xpy_p(coords["x"], coords.get("py"),
                            coords["px_p"], coords["py_p"], p, gauge)
    if pair == ("xpy", "p"):
        return np.conj(kernel_xpy_p(coords["x"], coords.get("py"),
                                    coords["px_p"], coords["py_p"], p, gauge))
    if pair == ("p", "ypx"):
        return kernel_ypx_p(coords["y"], coords.get("px"),
                            coords["px_p"], coords["py_p"], p, gauge)
    if pair == ("ypx", "p"):
        return np.conj(kernel_ypx_p(coords["y"], coords.get("px"),
                                    coords["px_p"], coords["py_p"], p, gauge))
    raise GridError(f"no kernel between {src!r} and {dst!r}")


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


def transform(psi: GridFunction, to_basis: str, p: NCParams, axes=None,
              gauge: GaugeChoice = FLAT_GAUGE) -> GridFunction:
    """Change of representation by trapezoid quadrature of the flat kernels.

    Delta-matched coordinates keep the source axis; a genuinely conjugate
    target axis defaults to the numeric range of its source partner (good
    for states whose widths are near 1 in the working units; pass explicit
    axes otherwise).  Raises AliasingError when the source grid cannot
    resolve the kernel oscillation over the requested target axis.
    """
    gauge.require_flat()
    if to_basis not in BASES:
        raise GridError(f"unknown target basis {to_basis!r}")
    if to_basis == psi.basis:
        return psi
    hbar, th = p.hbar, p.theta
    rt = math.sqrt(2.0 * math.pi * hbar)
    pair = (psi.basis, to_basis)

    if pair == ("p", "xpy"):
        pxa, pya = psi.axis1, psi.axis2
        xa = np.asarray(axes[0], float) if axes else pxa.copy()
        if axes and not np.array_equal(np.asarray(axes[1], float), pya):
            raise GridError("p_y is delta-matched; target axis2 must equal source")
        _alias_guard(psi.step1, _amax(xa) + 0.5 * abs(th) * _amax(pya),
                     hbar, "x")
        w = trapezoid_weights(pxa)
        B = _phase_outer(pxa, 0.5 * th * pya, hbar)
        out = _phase_outer(xa, pxa, hbar) @ (w[:, None] * B * psi.values)
        return GridFunction(xa, pya, out / rt, "xpy")

    if pair == ("xpy", "p"):
        xa, pya = psi.axis1, psi.axis2
        pxa = np.asarray(axes[0], float) if axes else xa.copy()
        if axes and not np.array_equal(np.asarray(axes[1], float), pya):
            raise GridError("p_y is delta-matched; target axis2 must equal source")
        _alias_guard(psi.step1, _amax(pxa), hbar, "p_x")
        w = trapezoid_weights(xa)
        out = _phase_outer(pxa, xa, hbar, sign=-1.0) @ (w[:, None] * psi.values)
        out = out * _phase_outer(pxa, 0.5 * th * pya, hbar, sign=-1.0)
        return GridFunction(pxa, pya, out / rt, "p")

    if pair == ("p", "ypx"):
        pxa, pya = psi.axis1, psi.axis2
        ya = np.asarray(axes[0], float) if axes else pya.copy()
        if axes and not np.array_equal(np.asarray(axes[1], float), pxa):
            raise GridError("p_x is delta-matched; target axis2 must equal source")
        _alias_guard(psi.step2, _amax(ya) + 0.5 * abs(th) * _amax(pxa),
                     hbar, "y")
        w = trapezoid_weights(pya)
        K = _phase_outer(ya, pya, hbar) * w[None, :]
        S = _phase_outer(pya, 0.5 * th * pxa, hbar, sign=-1.0) * psi.values.T
        return GridFunction(ya, pxa, (K @ S) / rt, "ypx")

    if pair == ("ypx", "p"):
        ya, pxa = psi.axis1, psi.axis2
        pya = np.asarray(axes[1], float) if axes else ya.copy()
        if axes and not np.array_equal(np.asarray(axes[0], float), pxa):
            raise GridError("p_x is delta-matched; target axis1 must equal source")
        _alias_guard(psi.step1, _amax(pya), hbar, "p_y")
        w = trapezoid_weights(ya)
        T = psi.values.T @ (w[:, None] * _phase_outer(ya, pya, hbar, sign=-1.0))
        T = T * _phase_outer(pxa, 0.5 * th * pya, hbar)
        return GridFunction(pxa, pya, T / rt, "p")

    if pair == ("xpy", "ypx"):
        xa, pya = psi.axis1, psi.axis2
        if axes:
            ya, pxa = (np.asarray(a, float) for a in axes)
        else:
            ya, pxa = pya.copy(), xa.copy()
        _alias_guard(psi.step1, _amax(pxa), hbar, "p_x")
        _alias_guard(psi.step2, _amax(ya) + abs(th) * _amax(pxa), hbar, "y")
        wx = trapezoid_weights(xa)
        wp = trapezoid_weights(pya)
        G = _phase_outer(pxa, xa, hbar, sign=-1.0) @ (wx[:, None] * psi.values)
        Hm = (wp[:, None] * _phase_outer(pya, th * pxa, hbar, sign=-1.0)) * G.T
        out = _phase_outer(ya, pya, hbar) @ Hm
        return GridFunction(ya, pxa, out / (2.0 * math.pi * hbar), "ypx")

    if pair == ("ypx", "xpy"):
        ya, pxa = psi.axis1, psi.axis2
        if axes:
            xa, pya = (np.asarray(a, float) for a in axes)
        else:
            xa, pya = pxa.copy(), ya.copy()
        _alias_guard(psi.step1, _amax(pya), hbar, "p_y")
        _alias_guard(psi.step2, _amax(xa) + abs(th) * _amax(pya), hbar, "x")
        wy = trapezoid_weights(ya)
        wp = trapezoid_weights(pxa)
        G = _phase_outer(pya, ya, hbar, sign=-1.0) @ (wy[:, None] * psi.values)
        Hm = (wp[:, None] * _phase_outer(pxa, th * pya, hbar)) * G.T
        out = _phase_outer(xa, pxa, hbar) @ Hm
        return GridFunction(xa, pya, out / (2.0 * math.pi * hbar), "xpy")

    raise GridError(f"no transform from {psi.basis!r} to {to_basis!r}")
