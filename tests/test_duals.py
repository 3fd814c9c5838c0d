"""Dual-number forward-mode derivatives against stdlib math oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncplane import duals
from ncplane.duals import Dual, value


def derivative(f, x):
    """d f / d x at a scalar x by seeding a single dual pass."""
    out = f(Dual(x, 1.0))
    return out.eps if isinstance(out, Dual) else 0.0


def second_derivative(f, x):
    """d2 f / d x2 via one level of nesting."""
    inner = f(Dual(Dual(x, 1.0), 1.0))
    if not isinstance(inner, Dual):
        return 0.0
    e = inner.eps
    return e.eps if isinstance(e, Dual) else 0.0


def fd(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


def test_arithmetic_values():
    a = Dual(3.0, 1.0)
    assert value(a + 2.0) == 5.0
    assert value(2.0 - a) == -1.0
    assert value(a * a) == 9.0
    assert value(1.0 / a) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert (a ** 0).val == 1.0 and (a ** 0).eps == 0.0


def test_polynomial_derivative():
    # d/dx (x^3 - 2x + 5) = 3x^2 - 2
    f = lambda x: x ** 3 - 2.0 * x + 5.0
    assert derivative(f, 1.7) == pytest.approx(3 * 1.7 ** 2 - 2, rel=1e-15)


def test_elementary_function_derivatives():
    x = 0.7
    assert derivative(duals.sin, x) == pytest.approx(math.cos(x), rel=1e-15)
    assert derivative(duals.cos, x) == pytest.approx(-math.sin(x), rel=1e-15)
    assert derivative(duals.exp, x) == pytest.approx(math.exp(x), rel=1e-15)
    assert derivative(duals.log, x) == pytest.approx(1.0 / x, rel=1e-15)
    assert derivative(duals.sqrt, x) == pytest.approx(0.5 / math.sqrt(x), rel=1e-15)
    assert derivative(duals.log1p, x) == pytest.approx(1.0 / (1.0 + x), rel=1e-15)
    assert derivative(duals.sinh, x) == pytest.approx(math.cosh(x), rel=1e-15)
    assert derivative(duals.cosh, x) == pytest.approx(math.sinh(x), rel=1e-15)
    assert derivative(duals.tanh, x) == pytest.approx(1 - math.tanh(x) ** 2, rel=1e-14)


def test_float_power():
    f = lambda x: x ** 2.5
    assert derivative(f, 2.0) == pytest.approx(2.5 * 2.0 ** 1.5, rel=1e-14)
    g = lambda x: x ** -2
    assert derivative(g, 3.0) == pytest.approx(-2.0 / 27.0, rel=1e-14)


def test_second_derivative():
    assert second_derivative(duals.exp, 0.3) == pytest.approx(math.exp(0.3), rel=1e-14)
    f = lambda x: x ** 4
    assert second_derivative(f, 1.5) == pytest.approx(12 * 1.5 ** 2, rel=1e-14)


def test_nested_duals_are_independent():
    # d/dy (x*y) with x itself carrying an outer seed: x must be lifted to a
    # constant of the inner level, else the outer seed leaks into the inner
    # derivative (classic perturbation confusion)
    x = Dual(2.0, 1.0)
    lifted = Dual(x, 0.0)
    inner = lifted * Dual(Dual(3.0, 0.0), 1.0)
    # inner.eps is d/dy (x*y) = x, still dual in the outer seed
    assert inner.eps.val == 2.0 and inner.eps.eps == 1.0
    # mixing levels without the lift would give 3.0 + x here instead


def test_value_strips_nesting():
    assert value(Dual(Dual(1.5, 2.0), 3.0)) == 1.5
    assert value(4.25) == 4.25


@given(st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=60, deadline=None)
def test_product_rule_matches_fd(a, b):
    f = lambda x: (x * x + a) * duals.sin(b * x) if isinstance(x, Dual) \
        else (x * x + a) * math.sin(b * x)
    x0 = 0.9
    assert derivative(f, x0) == pytest.approx(fd(f, x0), abs=1e-7)


@given(st.floats(0.1, 3.0))
@settings(max_examples=40, deadline=None)
def test_chain_rule_matches_fd(x0):
    f = lambda x: duals.exp(duals.sqrt(x)) if isinstance(x, Dual) \
        else math.exp(math.sqrt(x))
    assert derivative(f, x0) == pytest.approx(fd(f, x0), rel=1e-6, abs=1e-8)


def test_division_derivative():
    f = lambda x: 1.0 / (1.0 + x * x)
    x0 = 0.6
    exact = -2 * x0 / (1 + x0 ** 2) ** 2
    assert derivative(f, x0) == pytest.approx(exact, rel=1e-14)


def test_array_operands_give_array_duals():
    # ndarray op Dual defers to Dual's reflected operators: a Dual with array
    # parts, each part equal to the scalar pass at that element
    a = np.array([0.5, -1.25, 3.0])
    d = Dual(1.5, -0.5)
    for op in (lambda u, v: u + v, lambda u, v: u - v,
               lambda u, v: u * v, lambda u, v: u / v):
        for got in (op(a, d), op(d, a)):
            assert isinstance(got, Dual)
        for k, ak in enumerate(a.tolist()):
            for got, want in ((op(a, d), op(ak, d)), (op(d, a), op(d, ak))):
                assert [np.asarray(c)[k] if np.ndim(c) else c for c in
                        (got.val, got.eps)] == [want.val, want.eps]
    with pytest.raises(TypeError):
        d ** a
