"""Complex wave functions on uniform 2D grids, plus sixth-order stencils.

Three representations share one container, tagged by basis:
  "p"   -> axes (p_x, p_y)
  "xpy" -> axes (x,  p_y)
  "ypx" -> axes (y,  p_x)
All integrals are trapezoid quadrature.  The centered derivative stencils
are of sixth order only; they leave a boundary band of STENCIL_BAND nodes
at zero, and residual norms exclude that band.
"""

from __future__ import annotations

import numpy as np

BASES = ("p", "xpy", "ypx")


class GridError(ValueError):
    pass


def uniform_axis(lo: float, hi: float, n: int) -> np.ndarray:
    if n < 2 or not hi > lo:
        raise GridError(f"bad axis spec [{lo}, {hi}] with {n} nodes")
    return np.linspace(lo, hi, n)


def _check_axis(a, name):
    a = np.array(a, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise GridError(f"{name} must be a 1D array with >= 2 nodes")
    d = np.diff(a)
    if np.any(d <= 0):
        raise GridError(f"{name} must be strictly increasing")
    if np.max(np.abs(d - d[0])) > 1e-12 * abs(d[0]) * max(1.0, a.size):
        raise GridError(f"{name} must be uniform")
    return a


def trapezoid_weights(a: np.ndarray) -> np.ndarray:
    h = a[1] - a[0]
    w = np.full(a.size, h)
    w[0] = w[-1] = 0.5 * h
    return w


class GridFunction:
    """psi(axis1, axis2) as a complex array with a basis tag."""

    __slots__ = ("axis1", "axis2", "values", "basis")

    def __init__(self, axis1, axis2, values, basis):
        if basis not in BASES:
            raise GridError(f"unknown basis {basis!r}; expected one of {sorted(BASES)}")
        a1 = _check_axis(axis1, "axis1")
        a2 = _check_axis(axis2, "axis2")
        v = np.array(values, dtype=complex)
        if v.shape != (a1.size, a2.size):
            raise GridError(f"values shape {v.shape} != ({a1.size}, {a2.size})")
        if not np.isfinite(v).all():
            raise GridError("values contain non-finite entries")
        for arr in (a1, a2, v):     # copies: the caller's stay writeable
            arr.setflags(write=False)
        self.axis1, self.axis2, self.values, self.basis = a1, a2, v, basis


def interior_norm(values, axes, band: int) -> float:
    """Trapezoid L2 norm of grid values on axes (axis1, axis2), leaving
    out a boundary band of band nodes on every side."""
    n1, n2 = np.shape(values)
    if band < 0 or 2 * band + 2 > min(n1, n2):
        raise GridError(f"band {band} leaves under two interior nodes")
    v = values[band:n1 - band, band:n2 - band]
    w1, w2 = (trapezoid_weights(a[band:len(a) - band]) for a in axes)
    return float(np.sqrt(np.einsum("i,j,ij->", w1, w2, np.abs(v) ** 2)))


# sixth-order centered coefficients as (offset, weight); they reach
# STENCIL_BAND nodes to each side, and that band of the output stays zero
_D1 = ((-3, -1.0 / 60), (-2, 9.0 / 60), (-1, -45.0 / 60),
       (1, 45.0 / 60), (2, -9.0 / 60), (3, 1.0 / 60))
_D2 = ((-3, 2.0 / 180), (-2, -27.0 / 180), (-1, 270.0 / 180), (0, -490.0 / 180),
       (1, 270.0 / 180), (2, -27.0 / 180), (3, 2.0 / 180))
STENCIL_BAND = 3


def _apply_stencil(coeffs, F, h, axis, power):
    b, n = STENCIL_BAND, F.shape[axis]
    if n <= 2 * b:
        raise GridError(f"grid too small for the order-{2*b} stencil band")
    F = np.moveaxis(F, axis, 0)
    out = np.zeros_like(F)
    for k, c in coeffs:
        out[b:n - b] += c * F[b + k:n - b + k]
    return np.moveaxis(out, 0, axis) / h ** power


def first_derivative(F: np.ndarray, h: float, axis: int):
    """Centered sixth-order d/dx along the given axis; boundary band zero."""
    return _apply_stencil(_D1, F, h, axis, 1)


def second_derivative(F: np.ndarray, h: float, axis: int):
    """Centered sixth-order d2/dx2 along the given axis; boundary band zero."""
    return _apply_stencil(_D2, F, h, axis, 2)
