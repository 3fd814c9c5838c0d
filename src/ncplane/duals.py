"""Forward-mode automatic differentiation with dual numbers.

A dual number val + eps*e (e**2 = 0) carries the exact first derivative
for one seed: d f/dx at x is f(Dual(x, 1.0)).eps.  Components may
themselves be Dual, which is how second derivatives (nested brackets,
Jacobi identity) fall out of the same machinery; grid code differentiates
with stencils instead.  Every value part is computed by the same float
operation as on plain numbers.

Parts may be numpy arrays, so one pass covers an array of points; numpy
rounds + - * / as Python floats do, so each element equals its scalar pass.
``ndarray op Dual`` gives a Dual, not an object array.  The elementary
functions below are scalar only.
"""

from __future__ import annotations

import math

import numpy as np

_NUM = (int, float, np.ndarray)


class Dual:
    """val + eps e, carrying d(val)/d(seed) in eps."""

    __slots__ = ("val", "eps")
    __array_ufunc__ = None   # ndarray op Dual defers to Dual's reflected op

    def __init__(self, val, eps=0.0):
        self.val = val
        self.eps = eps

    def __repr__(self):
        return f"Dual({self.val!r}, {self.eps!r})"

    def __add__(self, o):
        if isinstance(o, Dual):
            return Dual(self.val + o.val, self.eps + o.eps)
        if isinstance(o, _NUM):
            return Dual(self.val + o, self.eps)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Dual):
            return Dual(self.val - o.val, self.eps - o.eps)
        if isinstance(o, _NUM):
            return Dual(self.val - o, self.eps)
        return NotImplemented

    def __rsub__(self, o):
        if isinstance(o, _NUM):
            return Dual(o - self.val, -self.eps)
        return NotImplemented

    def __mul__(self, o):
        if isinstance(o, Dual):
            return Dual(self.val * o.val, self.val * o.eps + self.eps * o.val)
        if isinstance(o, _NUM):
            return _chain(self, self.val * o, o)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, o):
        # (s / o)' = s' / o - (s / o) o' / o, both terms scaled by 1 / o
        if isinstance(o, Dual):
            v = self.val / o.val
            inv = 1.0 / o.val
            return Dual(v, self.eps * inv + -v * inv * o.eps)
        if isinstance(o, _NUM):
            return _chain(self, self.val / o, 1.0 / o)
        return NotImplemented

    def __rtruediv__(self, o):
        if isinstance(o, _NUM):
            v = o / self.val
            return _chain(self, v, -v * (1.0 / self.val))
        return NotImplemented

    def __neg__(self):
        return Dual(-self.val, -self.eps)

    def __pos__(self):
        return self

    def __pow__(self, n):
        if not isinstance(n, (int, float)):     # one exponent for every element
            return NotImplemented
        d = n * self.val ** (n - 1) if n != 0 else 0.0
        return _chain(self, self.val ** n, d)


def _chain(x, fx, d):
    """f(x) as a Dual, given f's value fx and derivative d at x.val."""
    return Dual(fx, d * x.eps)


def value(x):
    """Strip all dual layers, returning the underlying float."""
    while isinstance(x, Dual):
        x = x.val
    return x


# elementary functions, recursive so that nested duals work


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.val)
        return _chain(x, e, e)
    return math.exp(x)


def expm1(x):
    if isinstance(x, Dual):
        return _chain(x, expm1(x.val), exp(x.val))
    return math.expm1(x)


def log(x):
    if isinstance(x, Dual):
        return _chain(x, log(x.val), 1.0 / x.val)
    return math.log(x)


def log1p(x):
    if isinstance(x, Dual):
        return _chain(x, log1p(x.val), 1.0 / (1.0 + x.val))
    return math.log1p(x)
