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
from .grids import (STENCIL_BAND, GridError, GridFunction,
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

    def grid(self, axes=None) -> GridFunction:
        """The values on the state's axes, or from its columns on axes."""
        if axes is None:
            return GridFunction(*self.axes, (self.X * self.c) @ self.Y.T, "p")
        if self.columns is None:
            raise GridError("a state without columns has no values off its "
                            "own axes")
        X, Y = (f(a) for f, a in zip(self.columns, axes))
        return GridFunction(*axes, (X * self.c) @ Y.T, "p")

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
    relative to the peak (grid too small for the state), or when the grid
    gives the state no positive finite norm (grid step too coarse)."""
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
    with np.errstate(all="ignore"):     # far out the factors are 0 or nan
        psi = Separable(*(f(ax) for f, ax in zip(cols, axes)), c, axes, cols)
        norm2 = psi.inner(psi).real
    if not 0.0 < norm2 < math.inf:
        h = max(ax[1] - ax[0] for ax in axes)
        raise TruncationError(f"grid step {h:.3g} samples none of the state "
                              f"of width sqrt(m hbar w_eff) = {p.width:.3g}")
    psi = replace(psi, c=c / math.sqrt(norm2))
    ratio = tail_ratio((psi.X * psi.c) @ psi.Y.T)
    if not ratio <= TAIL_TOL:
        raise TruncationError(f"boundary amplitude {ratio:.3e} of the peak "
                              f"exceeds {TAIL_TOL:.1e}; enlarge the grid")
    return psi


def tail_ratio(values) -> float:
    """Largest |value| on the boundary of a grid over the largest of all."""
    v = np.abs(values)
    return float(max(v[[0, -1]].max(), v[:, [0, -1]].max()) / v.max())


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


def _phase_outer(a, b, hbar):
    return np.exp((1j / hbar) * np.outer(a, b))


# Per mixed basis: the (p_x, p_y) slot k that it trades for its conjugate
# position q, and the sign s of its half shear, <q, p_other | p'> =
# delta(p_other - p_other') e^{i[q p_k' + s theta p_x' p_y' / 2]/hbar}
# / sqrt(2 pi hbar).
_BASIS = {"xpy": (0, 1.0), "ypx": (1, -1.0)}


def transform(psi: GridFunction, to_basis: str, p: NCParams,
              axes=None) -> GridFunction:
    """A (p_x, p_y) state in the mixed basis (x, p_y) or (y, p_x), by
    trapezoid quadrature of the flat kernel: the traded momentum p_k is
    integrated against the position q on axes[0], which defaults to the
    numeric range of p_k (pass explicit axes for states whose widths are
    far from 1 in the working units).  The kept momentum keeps its axis,
    which a given axes[1] must repeat exactly.  Raises AliasingError when
    the source grid cannot resolve the kernel oscillation out to max|q|.
    """
    if psi.basis != "p" or to_basis not in _BASIS:
        raise GridError(f"transform maps basis 'p' into 'xpy' or 'ypx', "
                        f"not {psi.basis!r} into {to_basis!r}")
    hbar, th = p.hbar, p.theta
    k, s = _BASIS[to_basis]
    traded, keep, v = ((psi.axis2, psi.axis1, psi.values.T) if k
                       else (psi.axis1, psi.axis2, psi.values))
    q = traded if axes is None else np.array(axes[0], float)
    if axes is not None and not np.array_equal(np.asarray(axes[1], float),
                                               keep):
        raise GridError(f"p_{to_basis[2]} is delta-matched; target axis2 "
                        f"must equal source")
    _alias_guard(traded[1] - traded[0], np.abs(q).max()
                 + 0.5 * abs(th) * np.abs(keep).max(), hbar, to_basis[0])
    shear = _phase_outer(traded, 0.5 * s * th * keep, hbar)
    w = trapezoid_weights(traded)
    v = _phase_outer(q, traded, hbar) @ ((w[:, None] * shear) * v)
    return GridFunction(q, keep, v / math.sqrt(2.0 * math.pi * hbar),
                        to_basis)
