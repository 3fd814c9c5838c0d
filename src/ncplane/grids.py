"""Complex wave functions on uniform 2D grids, plus centered stencils.

Three representations share one container, tagged by basis:
  "p"   -> axes (p_x, p_y)
  "xpy" -> axes (x,  p_y)
  "ypx" -> axes (y,  p_x)
All integrals are trapezoid quadrature; residual norms exclude a boundary
band where the stencils cannot reach full order.
"""

from __future__ import annotations

import numpy as np

BASES = {"p": ("px", "py"), "xpy": ("x", "py"), "ypx": ("y", "px")}


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

    @property
    def step1(self):
        return float(self.axis1[1] - self.axis1[0])

    @property
    def step2(self):
        return float(self.axis2[1] - self.axis2[0])

    @property
    def coordinate_names(self):
        return BASES[self.basis]

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.axis1, self.axis2, values, self.basis)

    def inner(self, other: "GridFunction") -> complex:
        if other.basis != self.basis:
            raise GridError(f"basis mismatch: {self.basis} vs {other.basis}")
        if (self.axis1.shape != other.axis1.shape
                or not np.array_equal(self.axis1, other.axis1)
                or not np.array_equal(self.axis2, other.axis2)):
            raise GridError("grids do not match")
        w1 = trapezoid_weights(self.axis1)
        w2 = trapezoid_weights(self.axis2)
        return complex(np.einsum("i,j,ij,ij->", w1, w2,
                                 np.conj(self.values), other.values))

    def norm(self) -> float:
        return float(np.sqrt(self.inner(self).real))

    def normalized(self) -> "GridFunction":
        n = self.norm()
        if n == 0.0:
            raise GridError("cannot normalize the zero function")
        return self.with_values(self.values / n)

    def interior_norm(self, band: int) -> float:
        """Trapezoid L2 norm over the grid minus a boundary band."""
        if band < 0 or 2 * band >= min(self.axis1.size, self.axis2.size):
            raise GridError(f"band {band} leaves no interior")
        if band == 0:
            return self.norm()
        a1 = self.axis1[band:-band]
        a2 = self.axis2[band:-band]
        v = self.values[band:-band, band:-band]
        w1 = trapezoid_weights(a1)
        w2 = trapezoid_weights(a2)
        s = np.einsum("i,j,ij->", w1, w2, np.abs(v) ** 2)
        return float(np.sqrt(s))

    def boundary_max(self) -> float:
        """Largest |psi| anywhere on the outermost rows and columns."""
        v = np.abs(self.values)
        return float(max(v[0].max(), v[-1].max(), v[:, 0].max(), v[:, -1].max()))


_D1 = {
    4: ((-2, 1.0 / 12), (-1, -8.0 / 12), (1, 8.0 / 12), (2, -1.0 / 12)),
    6: ((-3, -1.0 / 60), (-2, 9.0 / 60), (-1, -45.0 / 60),
        (1, 45.0 / 60), (2, -9.0 / 60), (3, 1.0 / 60)),
}
_D2 = {
    4: ((-2, -1.0 / 12), (-1, 16.0 / 12), (0, -30.0 / 12),
        (1, 16.0 / 12), (2, -1.0 / 12)),
    6: ((-3, 2.0 / 180), (-2, -27.0 / 180), (-1, 270.0 / 180), (0, -490.0 / 180),
        (1, 270.0 / 180), (2, -27.0 / 180), (3, 2.0 / 180)),
}


def stencil_band(order: int) -> int:
    if order not in _D1:
        raise GridError(f"unsupported stencil order {order}; use 4 or 6")
    return order // 2


def _apply_stencil(coeffs, F, h, axis, power):
    b = max(abs(k) for k, _ in coeffs)
    n = F.shape[axis]
    if n <= 2 * b:
        raise GridError(f"grid too small for the order-{2*b} stencil band")
    out = np.zeros_like(F)
    core = slice(b, n - b)
    for k, c in coeffs:
        src = slice(b + k, n - b + k)
        if axis == 0:
            out[core, :] += c * F[src, :]
        else:
            out[:, core] += c * F[:, src]
    return out / h ** power


def first_derivative(F: np.ndarray, h: float, axis: int, order: int = 4):
    """Centered d/dx along the given axis; boundary band left at zero."""
    stencil_band(order)
    return _apply_stencil(_D1[order], F, h, axis, 1)


def second_derivative(F: np.ndarray, h: float, axis: int, order: int = 4):
    """Centered d2/dx2 along the given axis; boundary band left at zero."""
    stencil_band(order)
    return _apply_stencil(_D2[order], F, h, axis, 2)
