"""Grid container and finite-difference stencil checks.

Derivative accuracy is pinned by Richardson ratios against closed-form
derivatives of smooth functions, and by polynomial exactness (a centered
stencil of order k differentiates low-degree polynomials exactly).
"""

import math

import numpy as np
import pytest

from ncplane.grids import (
    GridError,
    GridFunction,
    first_derivative,
    interior_norm,
    second_derivative,
    STENCIL_BAND,
    trapezoid_weights,
    uniform_axis,
)


def test_uniform_axis_endpoints_and_step():
    ax = uniform_axis(-2.0, 3.0, 11)
    assert ax[0] == -2.0 and ax[-1] == 3.0
    assert np.allclose(np.diff(ax), 0.5, rtol=0, atol=1e-15)


def test_trapezoid_weights_literal():
    ax = np.array([0.0, 1.0, 2.0, 3.0])
    assert np.array_equal(trapezoid_weights(ax), [0.5, 1.0, 1.0, 0.5])
    # integral of x on [0, 3]
    assert trapezoid_weights(ax) @ ax == pytest.approx(4.5, abs=1e-15)


def test_axis_validation():
    good = uniform_axis(0.0, 1.0, 8)
    vals = np.zeros((8, 8))
    with pytest.raises(GridError):
        GridFunction(good[::-1], good, vals, "p")
    bad = good.copy()
    bad[3] += 1e-3
    with pytest.raises(GridError):
        GridFunction(bad, good, vals, "p")
    with pytest.raises(GridError):
        GridFunction(np.array([0.0]), good, np.zeros((1, 8)), "p")
    with pytest.raises(GridError):
        GridFunction(good, good, np.zeros((7, 8)), "p")
    with pytest.raises(GridError):
        GridFunction(good, good, vals, "nope")


def test_values_are_read_only():
    ax = uniform_axis(0.0, 1.0, 4)
    F = GridFunction(ax, ax, np.ones((4, 4)), "p")
    with pytest.raises(ValueError):
        F.values[0, 0] = 2.0


def test_callers_arrays_stay_writeable():
    # only the GridFunction's own arrays are frozen, even when the caller's
    # already have the right dtype and no conversion copy is made
    ax = uniform_axis(0.0, 1.0, 4)
    v = np.ones((4, 4), dtype=complex)
    F = GridFunction(ax, ax, v, "p")
    assert ax.flags.writeable and v.flags.writeable
    assert not (F.values.flags.writeable or F.axis1.flags.writeable
                or F.axis2.flags.writeable)
    v[0, 0] = 2.0
    ax[0] = -1.0
    assert F.values[0, 0] == 1.0 and F.axis1[0] == 0.0


def test_transposed_values_are_checked_elementwise():
    # a complex transpose has a strided last axis: finiteness must be read
    # per element, not through a float view of the buffer
    ax = uniform_axis(0.0, 1.0, 5)
    v = np.arange(25.0).reshape(5, 5) * (1.0 - 0.5j)
    F = GridFunction(ax, ax, v.T, "p")
    assert np.array_equal(F.values, v.T)
    for bad in (np.nan, complex(0.0, np.inf)):
        w = v.copy()
        w[1, 3] = bad
        with pytest.raises(GridError):
            GridFunction(ax, ax, w.T, "p")


def test_norm_of_a_gaussian():
    # |F|^2 = e^{-(x^2 + y^2)} integrates to pi over the plane; with no
    # band left out the interior norm is the whole grid's
    ax = uniform_axis(-8.0, 8.0, 101)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    assert interior_norm(np.exp(-(X**2 + Y**2) / 2), (ax, ax), 0) == \
        pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_interior_norm_excludes_boundary_band():
    ax = uniform_axis(0.0, 1.0, 16)
    vals = np.zeros((16, 16))
    vals[:2, :] = 100.0
    vals[:, -2:] = 100.0
    vals[8, 8] = 3.0
    h = ax[1] - ax[0]
    assert interior_norm(vals, (ax, ax), 2) == pytest.approx(3.0 * h,
                                                             rel=1e-12)


@pytest.mark.parametrize("n, band, interior", [(7, 3, 1), (5, 2, 1), (8, 4, 0),
                                               (8, 3, 2), (6, 2, 2)])
def test_interior_norm_needs_two_interior_nodes(n, band, interior):
    # one interior node left trapezoid_weights reading past its axis
    ax = uniform_axis(0.0, 1.0, n)
    if interior < 2:
        with pytest.raises(GridError, match=f"band {band} leaves under two"):
            interior_norm(np.ones((n, n)), (ax, ax), band)
    else:
        # the trapezoid over two nodes is one step: sqrt(h * h * 1)
        assert interior_norm(np.ones((n, n)), (ax, ax), band) == \
            pytest.approx(ax[1] - ax[0], rel=1e-12)


def test_stencil_band_widths():
    # both stencils leave exactly STENCIL_BAND = 3 edge nodes at zero
    assert STENCIL_BAND == 3
    F = np.random.default_rng(7).normal(size=(12, 12)) + 2.0
    for D in (first_derivative, second_derivative):
        for axis in (0, 1):
            got = np.moveaxis(D(F, 0.1, axis), axis, 0)
            zero = np.all(got == 0, axis=1)
            assert zero.tolist() == [True] * 3 + [False] * 6 + [True] * 3


# an order-k centered stencil reaches k / 2 nodes to each side
@pytest.mark.parametrize("order,deg", [(6, 6)])
def test_first_derivative_polynomial_exactness(order, deg):
    ax = uniform_axis(-1.0, 1.0, 41)
    h = ax[1] - ax[0]
    F = (ax**deg)[:, None] * np.ones((1, 5))
    expect = (deg * ax ** (deg - 1))[:, None] * np.ones((1, 5))
    got = first_derivative(F, h, 0)
    band = order // 2
    assert np.abs(got[band:-band] - expect[band:-band]).max() < 1e-12
    assert np.all(got[:band] == 0) and np.all(got[-band:] == 0)


@pytest.mark.parametrize("order,deg", [(6, 7)])
def test_second_derivative_polynomial_exactness(order, deg):
    ax = uniform_axis(-1.0, 1.0, 41)
    h = ax[1] - ax[0]
    F = np.ones((5, 1)) * (ax**deg)[None, :]
    expect = np.ones((5, 1)) * (deg * (deg - 1) * ax ** (deg - 2))[None, :]
    got = second_derivative(F, h, 1)
    band = order // 2
    sl = slice(band, -band)
    assert np.abs(got[:, sl] - expect[:, sl]).max() < 1e-10


@pytest.mark.parametrize("order", [6])
def test_first_derivative_richardson_order(order):
    # halving h must shrink the error by ~2^order
    errs = []
    for n in (101, 201):
        ax = uniform_axis(-3.0, 3.0, n)
        h = ax[1] - ax[0]
        F = np.sin(2.0 * ax)[:, None] * np.ones((1, 3))
        got = first_derivative(F, h, 0)
        band = order // 2
        exact = (2.0 * np.cos(2.0 * ax))[:, None]
        errs.append(np.abs(got - exact)[band:-band].max())
    ratio = errs[0] / errs[1]
    # n=101 -> 201 near-halves h; allow slack for the inexact halving
    assert 0.5 * 2**order < ratio < 2.5 * 2**order


@pytest.mark.parametrize("order", [6])
def test_second_derivative_richardson_order(order):
    errs = []
    for n in (101, 201):
        ax = uniform_axis(-3.0, 3.0, n)
        h = ax[1] - ax[0]
        F = np.ones((3, 1)) * np.exp(np.sin(ax))[None, :]
        got = second_derivative(F, h, 1)
        band = order // 2
        exact = (np.exp(np.sin(ax)) * (np.cos(ax)**2 - np.sin(ax)))[None, :]
        err = np.abs(got - exact)[:, band:-band].max()
        errs.append(err)
    ratio = errs[0] / errs[1]
    assert 0.5 * 2**order < ratio < 2.5 * 2**order


def test_derivative_rejects_tiny_grid():
    for D in (first_derivative, second_derivative):
        with pytest.raises(GridError):
            D(np.ones((6, 7)), 0.1, 0)
        D(np.ones((7, 6)), 0.1, 0)      # one interior node is enough
