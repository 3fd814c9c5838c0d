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

An eigenstate is kept as n + 1 products of functions of p_x and of p_y.
H and J are sums of products of one-axis operators, so every stencil acts
on (nodes x (n + 1)) factor matrices and a residual is one matrix product.

Two conventions here fix known misprints in the source formulas and are
forced by the eigen-residual checks: Hermite arguments carry
p / sqrt(m hbar w_eff) (not p / (m hbar w_eff)), and the kinetic Laplacian
acts on both momentum axes.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .params import NCParams
from .grids import (BASES, STENCIL_BAND, GridError, GridFunction,
                    first_derivative, interior_norm, second_derivative,
                    trapezoid_weights, uniform_axis)

# eigenfunction rejects a state whose edge exceeds this share of its peak
TAIL_TOL = 1e-10


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
    return p.level(n, two_j)


def spectrum(n_max: int, p: NCParams) -> list[SpectrumEntry]:
    """All levels with n <= n_max, ordered by n then two_j ascending."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    return [SpectrumEntry(n, two_j, energy(n, two_j, p))
            for n in range(n_max + 1) for two_j in range(-n, n + 1, 2)]


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n by the three-term recurrence."""
    if n < 0:
        raise ValueError(f"hermite order must be >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    h0, h1 = np.zeros_like(x), np.ones_like(x)      # H_{-1} = 0, H_0 = 1
    for k in range(n):
        h0, h1 = h1, 2.0 * x * h1 - 2.0 * k * h0
    return h1


def hermite_functions(orders, width: float, p) -> np.ndarray:
    """h_m(P) = H_m(P) e^{-P^2/2}, P = p / width, for m in orders on a new
    last axis: the eigenstates' factor columns at any momenta p."""
    P = np.asarray(p, dtype=float) / width
    return (np.stack([hermite(m, P) for m in orders], -1)
            * np.exp(-0.5 * P ** 2)[..., None])


def momentum_grid(p: NCParams, n_nodes: int = 256, radius: float = 8.0):
    """Square (p_x, p_y) axes spanning radius Gaussian widths sqrt(m hbar w_eff)."""
    ax = uniform_axis(-radius * p.width, radius * p.width, n_nodes)
    return ax, ax.copy()


@dataclass(frozen=True)
class Separable:
    """psi(p_x, p_y) = sum_k c_k X[:, k] Y[:, k] on the (p_x, p_y) axes;
    columns, if known, maps each axis's momenta (any shape, on or off the
    grid) to its factor columns, on a new last axis."""

    X: np.ndarray
    Y: np.ndarray
    c: np.ndarray
    axes: tuple
    columns: tuple | None = None

    def grid(self) -> GridFunction:
        return GridFunction(*self.axes, (self.X * self.c) @ self.Y.T, "p")

    def inner(self, other: "Separable") -> complex:
        """<self|other> on shared axes: c^H ((X^H W X') o (Y^H W Y')) c'."""
        wx, wy = (trapezoid_weights(a) for a in self.axes)
        G = (((self.X.conj().T * wx) @ other.X)
             * ((self.Y.conj().T * wy) @ other.Y))
        return complex(self.c.conj() @ G @ other.c)


def eigenfunction(n: int, two_j: int, p: NCParams, axes=None) -> Separable:
    """Joint (H, J) eigenstate psi_{n, j} on a (p_x, p_y) grid, unit L2 norm:
    n + 1 products h_{n-k}(P_x) h_k(P_y) of h_m(P) = H_m(P) e^{-P^2/2},
    P = p / sqrt(m hbar w_eff), with numerically renormalized coefficients.
    Raises TruncationError when the boundary amplitude exceeds TAIL_TOL
    relative to the peak (grid too small for the state)."""
    validate_level(n, two_j)
    if axes is None:
        axes = momentum_grid(p)
    # c_k = i^k [t^k] (1 + t)^a (1 - t)^b, a + b = n, a - b = two_j
    a, b = (n + two_j) // 2, (n - two_j) // 2
    c = np.convolve([math.comb(a, r) for r in range(a + 1)],
                    [(-1) ** q * math.comb(b, q) for q in range(b + 1)])
    c = c * np.array([1, 1j, -1, -1j])[np.arange(n + 1) % 4]
    cols = tuple(functools.partial(hermite_functions, tuple(orders), p.width)
                 for orders in (range(n, -1, -1), range(n + 1)))
    psi = Separable(*(f(ax) for f, ax in zip(cols, axes)), c, axes, cols)
    psi = replace(psi, c=c / math.sqrt(psi.inner(psi).real))
    v = (psi.X * psi.c) @ psi.Y.T
    edge = max(np.abs(e).max() for e in (v[0], v[-1], v[:, 0], v[:, -1]))
    if edge > TAIL_TOL * np.abs(v).max():
        raise TruncationError(f"boundary amplitude {edge:.3e} exceeds "
                              f"{TAIL_TOL:.1e} of the peak; enlarge the grid")
    return psi


def _operator_terms(psi: Separable, p: NCParams, e: float = 0.0,
                    two_j: int = 0):
    """Factor pairs (U, V) with U V^T = (H / (hbar omega) - e) psi and
    (J / hbar - two_j) psi, for H = (1 + u) p^2/2m - (hbar^2 m w^2/2) lap
    - (i hbar lam/2) L and J = i hbar L, L = p_y d/dp_x - p_x d/dp_y.  The
    coefficients are divided by hbar omega before they multiply a factor;
    the stencils leave a band of STENCIL_BAND nodes that norms exclude."""
    (px, py), (hx, hy) = psi.axes, (a[1] - a[0] for a in psi.axes)
    if max(hx, hy) > 0.5 * p.width:
        warnings.warn(
            f"grid step {max(hx, hy):.3g} is coarse against the oscillator "
            f"width {p.width:.3g}; differential operators lose accuracy",
            RuntimeWarning, stacklevel=3)
    kin = (1.0 + p.u) / (2.0 * p.m * p.hbar * p.omega)
    lap = 0.5 * p.m * p.hbar * p.omega
    X, Y = psi.X * psi.c, psi.Y
    KX, KY = (kin * a[:, None] ** 2 * F - lap * second_derivative(F, h, 0)
              for a, F, h in ((px, X, hx), (py, Y, hy)))
    iUL = 1j * np.hstack([first_derivative(X, hx, 0), -px[:, None] * X])
    VL = np.hstack([py[:, None] * Y, first_derivative(Y, hy, 0)])
    rot = -0.5 * (p.lam / p.omega) * iUL
    return ((np.hstack([KX - e * X, X, rot]), np.hstack([Y, KY, VL])),
            (np.hstack([iUL, -two_j * X]), np.hstack([VL, Y])))


def eigen_residuals(psi: Separable, n: int, two_j: int, p: NCParams):
    """(H-residual, J-residual) of the state psi at level (n, two_j): the
    interior L2 residuals ||A psi - lambda psi|| / ||psi|| of A = H in units
    of hbar omega and of A = J in units of hbar, each assembled as one
    product U V^T before its norm is taken."""
    norm = interior_norm((psi.X * psi.c) @ psi.Y.T, psi.axes, STENCIL_BAND)
    e = energy(n, two_j, p) / (p.hbar * p.omega)
    with np.errstate(all="ignore"):
        terms = _operator_terms(psi, p, e, two_j)
    if not all(np.isfinite(F).all() for pair in terms for F in pair):
        raise ValueError(f"stencils overflow on grid step "
                         f"{psi.axes[0][1] - psi.axes[0][0]:.3g} at width "
                         f"sqrt(m hbar w_eff) = {p.width:.3g}")
    return tuple(interior_norm(U @ V.T, psi.axes, STENCIL_BAND) / norm
                 for U, V in terms)


def apply_hamiltonian(psi: Separable, p: NCParams) -> Separable:
    """H psi = (1 + u) p^2/2m psi - (hbar^2 m w^2/2) lap psi - i hbar lam L/2
    psi, the oscillator Hamiltonian in the momentum representation, as a
    separable state on psi's axes."""
    U, V = _operator_terms(psi, p)[0]
    return Separable(p.hbar * p.omega * U, V, np.ones(V.shape[1]), psi.axes)


def apply_angular_momentum(psi: Separable, p: NCParams) -> Separable:
    """J psi = i hbar (p_y d/dp_x - p_x d/dp_y) psi, a separable state."""
    U, V = _operator_terms(psi, p)[1]
    return Separable(p.hbar * U, V, np.ones(V.shape[1]), psi.axes)


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
