"""Forward-mode automatic differentiation with dual numbers.

A Dual is a value plus four tangent lanes (eps, e1, e2, e3), infinitesimals
whose pairwise products vanish, so one evaluation carries the exact first
derivatives for four independent seeds.  Lane 0 is ``eps``: Dual(val, eps)
is the ordinary one-seed dual number, so d f/dx at x is f(Dual(x, 1.0)).eps.
Components may themselves be Dual, which is how second derivatives (nested
brackets, Jacobi identity) fall out of the same machinery; grid code
differentiates with stencils instead.

Every value part is computed by the same float operation as on plain
numbers, and one rule serves all lanes, so a lane that is zero in an operand
adds only exact zeros: one four-seed pass reproduces four one-seed passes
bit for bit (up to the sign of a zero) while the values stay finite.

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
    """val plus the tangent lanes eps (lane 0), e1, e2 and e3."""

    __slots__ = ("val", "eps", "e1", "e2", "e3")
    __array_ufunc__ = None   # ndarray op Dual defers to Dual's reflected op

    def __init__(self, val, eps=0.0, e1=0.0, e2=0.0, e3=0.0):
        self.val = val
        self.eps = eps
        self.e1 = e1
        self.e2 = e2
        self.e3 = e3

    def __repr__(self):
        return (f"Dual({self.val!r}, {self.eps!r}, {self.e1!r}, "
                f"{self.e2!r}, {self.e3!r})")

    def __add__(self, o):
        if isinstance(o, Dual):
            return Dual(self.val + o.val, self.eps + o.eps, self.e1 + o.e1,
                        self.e2 + o.e2, self.e3 + o.e3)
        if isinstance(o, _NUM):
            return Dual(self.val + o, self.eps, self.e1, self.e2, self.e3)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Dual):
            return Dual(self.val - o.val, self.eps - o.eps, self.e1 - o.e1,
                        self.e2 - o.e2, self.e3 - o.e3)
        if isinstance(o, _NUM):
            return Dual(self.val - o, self.eps, self.e1, self.e2, self.e3)
        return NotImplemented

    def __rsub__(self, o):
        if isinstance(o, _NUM):
            return Dual(o - self.val, -self.eps, -self.e1, -self.e2, -self.e3)
        return NotImplemented

    def __mul__(self, o):
        if isinstance(o, Dual):
            a, b = self.val, o.val
            return Dual(a * b, a * o.eps + self.eps * b, a * o.e1 + self.e1 * b,
                        a * o.e2 + self.e2 * b, a * o.e3 + self.e3 * b)
        if isinstance(o, _NUM):
            return _chain(self, self.val * o, o)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, o):
        # lanes s' / b - (v / b) o', which reduce exactly to the one-dual
        # rules below when either operand's lane is zero
        if isinstance(o, Dual):
            b = o.val
            v = self.val / b
            inv = 1.0 / b
            d = -v * inv
            return Dual(v, self.eps * inv + d * o.eps, self.e1 * inv + d * o.e1,
                        self.e2 * inv + d * o.e2, self.e3 * inv + d * o.e3)
        if isinstance(o, _NUM):
            return _chain(self, self.val / o, 1.0 / o)
        return NotImplemented

    def __rtruediv__(self, o):
        if isinstance(o, _NUM):
            v = o / self.val
            return _chain(self, v, -v * (1.0 / self.val))
        return NotImplemented

    def __neg__(self):
        return Dual(-self.val, -self.eps, -self.e1, -self.e2, -self.e3)

    def __pos__(self):
        return self

    def __pow__(self, n):
        if not isinstance(n, (int, float)):     # one exponent for every element
            return NotImplemented
        d = n * self.val ** (n - 1) if n != 0 else 0.0
        return _chain(self, self.val ** n, d)

    # comparisons act on the value part; handy for range guards in fields
    def __lt__(self, o):
        return self.val < (o.val if isinstance(o, Dual) else o)

    def __gt__(self, o):
        return self.val > (o.val if isinstance(o, Dual) else o)


def _chain(x, fx, d):
    """f(x) as a Dual, given f's value fx and derivative d at x.val: the
    chain rule, written once for every lane."""
    return Dual(fx, d * x.eps, d * x.e1, d * x.e2, d * x.e3)


def value(x):
    """Strip all dual layers, returning the underlying float."""
    while isinstance(x, Dual):
        x = x.val
    return x


# elementary functions, recursive so that nested duals work


def sin(x):
    if isinstance(x, Dual):
        return _chain(x, sin(x.val), cos(x.val))
    return math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return _chain(x, cos(x.val), -sin(x.val))
    return math.cos(x)


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


def sqrt(x):
    if isinstance(x, Dual):
        r = sqrt(x.val)
        return _chain(x, r, 0.5 / r)
    return math.sqrt(x)


def sinh(x):
    if isinstance(x, Dual):
        return _chain(x, sinh(x.val), cosh(x.val))
    return math.sinh(x)


def cosh(x):
    if isinstance(x, Dual):
        return _chain(x, cosh(x.val), sinh(x.val))
    return math.cosh(x)


def tanh(x):
    if isinstance(x, Dual):
        t = tanh(x.val)
        return _chain(x, t, 1.0 - t * t)
    return math.tanh(x)
