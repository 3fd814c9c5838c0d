"""Grid container and finite-difference stencil checks.

Derivative accuracy is pinned by Richardson ratios against closed-form
derivatives of smooth functions, and by polynomial exactness (a centered
stencil of order k differentiates low-degree polynomials exactly).
"""

import numpy as np
import pytest

from ncplane.grids import (
    GridError,
    GridFunction,
    first_derivative,
    second_derivative,
    stencil_band,
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


def test_coordinate_names_per_basis():
    ax = uniform_axis(0.0, 1.0, 4)
    F = GridFunction(ax, ax, np.ones((4, 4)), "xpy")
    assert F.coordinate_names == ("x", "py")


def test_inner_product_of_constants():
    ax = uniform_axis(0.0, 1.0, 33)
    F = GridFunction(ax, ax, np.full((33, 33), 2.0), "p")
    G = GridFunction(ax, ax, np.full((33, 33), 3.0), "p")
    # integral of 2*3 over the unit square
    assert F.inner(G) == pytest.approx(6.0, rel=1e-14)
    assert F.norm() == pytest.approx(2.0, rel=1e-14)


def test_inner_conjugates_first_argument():
    ax = uniform_axis(0.0, 1.0, 17)
    F = GridFunction(ax, ax, 1j * np.ones((17, 17)), "p")
    G = GridFunction(ax, ax, np.ones((17, 17)), "p")
    assert F.inner(G) == pytest.approx(-1j, rel=1e-14)


def test_inner_requires_matching_grid_and_basis():
    ax = uniform_axis(0.0, 1.0, 9)
    F = GridFunction(ax, ax, np.ones((9, 9)), "p")
    G = GridFunction(ax, ax, np.ones((9, 9)), "xpy")
    with pytest.raises(GridError):
        F.inner(G)
    ax2 = uniform_axis(0.0, 2.0, 9)
    H = GridFunction(ax2, ax, np.ones((9, 9)), "p")
    with pytest.raises(GridError):
        F.inner(H)


def test_normalized_gaussian():
    ax = uniform_axis(-8.0, 8.0, 101)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    F = GridFunction(ax, ax, np.exp(-(X**2 + Y**2) / 2), "p").normalized()
    assert F.norm() == pytest.approx(1.0, abs=1e-13)


def test_interior_norm_excludes_boundary_band():
    ax = uniform_axis(0.0, 1.0, 16)
    vals = np.zeros((16, 16))
    vals[:2, :] = 100.0
    vals[:, -2:] = 100.0
    vals[8, 8] = 3.0
    F = GridFunction(ax, ax, vals, "p")
    h = F.step1
    assert F.interior_norm(2) == pytest.approx(3.0 * h, rel=1e-12)
    assert F.boundary_max() == 100.0


def test_stencil_band_widths():
    assert stencil_band(4) == 2
    assert stencil_band(6) == 3
    with pytest.raises(ValueError):
        stencil_band(5)


@pytest.mark.parametrize("order,deg", [(4, 4), (6, 6)])
def test_first_derivative_polynomial_exactness(order, deg):
    ax = uniform_axis(-1.0, 1.0, 41)
    h = ax[1] - ax[0]
    F = (ax**deg)[:, None] * np.ones((1, 5))
    expect = (deg * ax ** (deg - 1))[:, None] * np.ones((1, 5))
    got = first_derivative(F, h, 0, order)
    band = stencil_band(order)
    assert np.abs(got[band:-band] - expect[band:-band]).max() < 1e-12
    assert np.all(got[:band] == 0) and np.all(got[-band:] == 0)


@pytest.mark.parametrize("order,deg", [(4, 5), (6, 7)])
def test_second_derivative_polynomial_exactness(order, deg):
    ax = uniform_axis(-1.0, 1.0, 41)
    h = ax[1] - ax[0]
    F = np.ones((5, 1)) * (ax**deg)[None, :]
    expect = np.ones((5, 1)) * (deg * (deg - 1) * ax ** (deg - 2))[None, :]
    got = second_derivative(F, h, 1, order)
    band = stencil_band(order)
    sl = slice(band, -band)
    assert np.abs(got[:, sl] - expect[:, sl]).max() < 1e-10


@pytest.mark.parametrize("order", [4, 6])
def test_first_derivative_richardson_order(order):
    # halving h must shrink the error by ~2^order
    errs = []
    for n in (101, 201):
        ax = uniform_axis(-3.0, 3.0, n)
        h = ax[1] - ax[0]
        F = np.sin(2.0 * ax)[:, None] * np.ones((1, 3))
        got = first_derivative(F, h, 0, order)
        band = stencil_band(order)
        exact = (2.0 * np.cos(2.0 * ax))[:, None]
        errs.append(np.abs(got - exact)[band:-band].max())
    ratio = errs[0] / errs[1]
    # n=101 -> 201 near-halves h; allow slack for the inexact halving
    assert 0.5 * 2**order < ratio < 2.5 * 2**order


@pytest.mark.parametrize("order", [4, 6])
def test_second_derivative_richardson_order(order):
    errs = []
    for n in (101, 201):
        ax = uniform_axis(-3.0, 3.0, n)
        h = ax[1] - ax[0]
        F = np.ones((3, 1)) * np.exp(np.sin(ax))[None, :]
        got = second_derivative(F, h, 1, order)
        band = stencil_band(order)
        exact = (np.exp(np.sin(ax)) * (np.cos(ax)**2 - np.sin(ax)))[None, :]
        err = np.abs(got - exact)[:, band:-band].max()
        errs.append(err)
    ratio = errs[0] / errs[1]
    assert 0.5 * 2**order < ratio < 2.5 * 2**order


def test_derivative_rejects_bad_order_and_tiny_grid():
    ax = uniform_axis(0.0, 1.0, 4)
    F = np.ones((4, 4))
    with pytest.raises(ValueError):
        first_derivative(F, 0.1, 0, order=3)
    with pytest.raises(GridError):
        first_derivative(np.ones((5, 5)), 0.1, 0, order=6)


def test_with_values_keeps_grid():
    ax = uniform_axis(0.0, 1.0, 8)
    F = GridFunction(ax, ax, np.ones((8, 8)), "ypx")
    G = F.with_values(2.0 * F.values)
    assert G.basis == "ypx" and G.values[0, 0] == 2.0
    assert np.array_equal(G.axis1, F.axis1)
    with pytest.raises(GridError):
        F.with_values(np.ones((7, 8)))
