"""Oscillator spectrum, eigenfunctions, operators, and basis transforms.

Oracles used here: numpy's Hermite evaluator for the recurrence, closed
Gaussian integrals for transforms of the ground state, explicit kernel
quadrature loops (independent of the factored matrix products inside
transform), a trapezoid double sum over the grid for inner products, and
the energy formula evaluated by hand at pinned points.
"""

import math
import tracemalloc

import numpy as np
import pytest

from ncplane.params import NCParams
from ncplane.grids import (
    GridError,
    GridFunction,
    first_derivative,
    interior_norm,
    second_derivative,
    STENCIL_BAND,
    uniform_axis,
)
from ncplane.spectra import (
    AliasingError,
    Separable,
    SpectrumEntry,
    TruncationError,
    apply_angular_momentum,
    apply_hamiltonian,
    eigen_residuals,
    eigenfunction,
    energy,
    hermite_functions,
    momentum_grid,
    spectrum,
    transform,
    validate_level,
)

P03 = NCParams(m=1.0, omega=1.0, theta=0.3)


def _like(g, values):
    """A grid function with g's axes and basis and new values."""
    return GridFunction(g.axis1, g.axis2, values, g.basis)


def _trapezoid(a):
    h = a[1] - a[0]
    w = np.full(a.size, h)
    w[0] = w[-1] = h / 2
    return w


def _inner(f, g):
    """<f|g> of two grid functions on one grid: the trapezoid double sum."""
    assert f.basis == g.basis and np.array_equal(f.axis1, g.axis1) \
        and np.array_equal(f.axis2, g.axis2)
    return complex(np.einsum("i,j,ij,ij->", _trapezoid(f.axis1),
                             _trapezoid(f.axis2), f.values.conj(), g.values))


def _norm(f):
    return math.sqrt(_inner(f, f).real)


def _step(axis):
    return axis[1] - axis[0]


# --- spectrum ---------------------------------------------------------------

def test_effective_frequency_literals():
    assert NCParams(m=1, omega=1, theta=0.0).w_eff == 1.0
    # u = (m w theta)^2/4 = 1 at theta = 2
    assert NCParams(m=1, omega=1, theta=2.0).w_eff == \
        pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert P03.w_eff <= P03.omega


def test_validate_level():
    validate_level(0, 0)
    validate_level(3, -1)
    validate_level(4, 4)
    for n, tj in [(-1, 0), (2, 3), (2, 1), (1, -3), (0, 2)]:
        with pytest.raises(ValueError):
            validate_level(n, tj)
    with pytest.raises(ValueError):
        validate_level(2.0, 0)


def test_energy_literal_theta_one():
    # m = w = hbar = 1, theta = 1: sqrt(1 + 1/4) = sqrt(5)/2, so
    # E(2, two_j) = 3 sqrt(5)/2 - two_j/2
    p = NCParams(m=1, omega=1, theta=1.0)
    r = 3.0 * math.sqrt(5.0) / 2.0
    assert energy(2, -2, p) == pytest.approx(r + 1.0, rel=1e-15)
    assert energy(2, 0, p) == pytest.approx(r, rel=1e-15)
    assert energy(2, 2, p) == pytest.approx(r - 1.0, rel=1e-15)


def test_energy_commutative_limit_equal_spacing():
    p = NCParams(m=2.0, omega=1.5, theta=0.0, hbar=0.7)
    for n in range(5):
        for tj in range(-n, n + 1, 2):
            assert energy(n, tj, p) == pytest.approx(
                p.hbar * p.omega * (n + 1), rel=1e-15)


def test_energy_splitting_is_linear_in_j():
    # within a level, E steps by -theta m w^2 hbar per unit of j
    step = P03.theta * P03.m * P03.omega**2 * P03.hbar
    es = [energy(4, tj, P03) for tj in range(-4, 5, 2)]
    assert np.allclose(np.diff(es), -step, rtol=1e-14)


def test_spectrum_enumeration():
    entries = spectrum(3, P03)
    assert len(entries) == 1 + 2 + 3 + 4
    assert entries[0] == SpectrumEntry(0, 0, energy(0, 0, P03))
    ns = [(e.n, e.two_j) for e in entries]
    assert ns == sorted(ns)
    with pytest.raises(ValueError):
        spectrum(-1, P03)


def test_hermite_against_numpy():
    # one recurrence run serves every order, asked for in any order
    width = 0.7
    p = np.linspace(-3.0, 3.0, 41) * width
    orders = (8, 0, 5, 3, 1, 7, 2, 6, 4)
    got = hermite_functions(orders, width, p)
    assert got.shape == (41, 9)
    for col, n in enumerate(orders):
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        expect = (np.polynomial.hermite.hermval(p / width, coeffs)
                  * np.exp(-0.5 * (p / width) ** 2))
        assert np.allclose(got[:, col], expect, rtol=1e-12, atol=1e-12)


def test_hermite_literals():
    # H_0 = 1, H_1(x) = 2x, H_2(x) = 4x^2 - 2, H_3(x) = 8x^3 - 12x
    g = np.exp(-0.5 * 0.25)
    assert hermite_functions((0,), 1.0, 0.5)[0] == g
    assert hermite_functions((1,), 1.0, 0.5)[0] == 1.0 * g
    assert hermite_functions((2,), 1.0, 1.0)[0] == 2.0 * np.exp(-0.5)
    assert hermite_functions((3,), 2.0, 4.0)[0] == (8 * 8 - 24) * np.exp(-2.0)
    # the columns stack on a new last axis of any input shape
    assert hermite_functions((3, 0), 1.0, np.zeros((2, 5))).shape == (2, 5, 2)


# --- eigenfunctions ---------------------------------------------------------

def test_momentum_grid_span():
    ax1, ax2 = momentum_grid(P03, 128, 8.0)
    s = P03.width
    assert ax1[0] == pytest.approx(-8.0 * s) and ax1[-1] == pytest.approx(8.0 * s)
    assert len(ax1) == 128 and np.array_equal(ax1, ax2)


def test_ground_state_is_gaussian():
    # psi_00 = exp(-p^2 / (2 m hbar w_eff)) / sqrt(pi m hbar w_eff)
    psi = eigenfunction(0, 0, P03).grid()
    s2 = P03.m * P03.hbar * P03.w_eff
    Px, Py = np.meshgrid(psi.axis1, psi.axis2, indexing="ij")
    expect = np.exp(-(Px**2 + Py**2) / (2 * s2)) / math.sqrt(math.pi * s2)
    assert np.abs(psi.values - expect).max() < 1e-12
    assert _norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_eigenfunctions_are_normalized():
    for (n, tj) in [(1, 1), (3, -1), (4, 0)]:
        psi = eigenfunction(n, tj, P03).grid()
        assert _norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_gram_matrix_is_identity():
    axes = momentum_grid(P03, 256, 8.0)
    states = [eigenfunction(n, tj, P03, axes).grid()
              for n in range(4) for tj in range(-n, n + 1, 2)]
    G = np.array([[_inner(a, b) for b in states] for a in states])
    assert np.abs(G - np.eye(10)).max() < 2e-6


def test_factor_gram_matches_the_grid_inner_product():
    # the selftest's theta = 0.3 family: (X^H W X') o (Y^H W Y') contracted
    # with the coefficients against the trapezoid sum over the 256^2 grid
    axes = momentum_grid(P03, 256)
    states = [eigenfunction(n, tj, P03, axes)
              for n in range(4) for tj in range(-n, n + 1, 2)]
    grids = [s.grid() for s in states]
    factor = np.array([[a.inner(b) for b in states] for a in states])
    grid = np.array([[_inner(a, b) for b in grids] for a in grids])
    assert np.abs(factor - grid).max() < 1e-14
    assert np.abs(factor - np.eye(10)).max() < 1e-14


def test_truncation_error_on_small_grid():
    axes = momentum_grid(P03, 64, 3.0)
    with pytest.raises(TruncationError):
        eigenfunction(4, 0, P03, axes)
    # same level fits comfortably on the default grid
    eigenfunction(4, 0, P03)


@pytest.mark.parametrize("lo, hi", [(-1.0, 8.0), (-8.0, 1.0)])
@pytest.mark.parametrize("axis", [0, 1])
def test_truncation_error_reads_each_edge(axis, lo, hi):
    # a grid that cuts the ground state at one edge, one width from its
    # peak, raises; the other three edges lie eight widths out
    w = P03.width
    axes = [uniform_axis(-8.0 * w, 8.0 * w, 161)] * 2
    eigenfunction(0, 0, P03, tuple(axes))
    axes[axis] = uniform_axis(lo * w, hi * w, 161)
    with pytest.raises(TruncationError, match="boundary amplitude"):
        eigenfunction(0, 0, P03, tuple(axes))


def test_level_validation_reaches_eigenfunction():
    with pytest.raises(ValueError):
        eigenfunction(2, 1, P03)


# --- operators --------------------------------------------------------------

@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n,two_j", [(0, 0), (2, -2), (4, 4), (4, 0)])
def test_eigen_residuals_spot_checks(theta, n, two_j):
    p = NCParams(m=1.0, omega=1.0, theta=theta)
    axes = momentum_grid(p, 256, 8.0)
    rH, rJ = eigen_residuals(eigenfunction(n, two_j, p, axes), n, two_j, p)
    assert rH < 1e-6
    assert rJ < 1e-6


def _separate_h(psi, p):
    """H psi as a standalone application computes it, stencils and all."""
    px, py, F = psi.axis1[:, None], psi.axis2[None, :], psi.values
    hx, hy = _step(psi.axis1), _step(psi.axis2)
    lap = second_derivative(F, hx, 0) + second_derivative(F, hy, 1)
    dpx = first_derivative(F, hx, 0)
    dpy = first_derivative(F, hy, 1)
    return _like(
        psi, (1.0 + p.u) / (2.0 * p.m) * (px ** 2 + py ** 2) * F
        - 0.5 * p.hbar ** 2 * p.m * p.omega ** 2 * lap
        - 0.5j * p.hbar * p.lam * (py * dpx - px * dpy))


def _separate_j(psi, p):
    px, py = psi.axis1[:, None], psi.axis2[None, :]
    dpx = first_derivative(psi.values, _step(psi.axis1), 0)
    dpy = first_derivative(psi.values, _step(psi.axis2), 1)
    return _like(psi, 1j * p.hbar * (py * dpx - px * dpy))


def _separate_residual(applied, psi, eigenvalue):
    axes = (psi.axis1, psi.axis2)
    return (interior_norm(applied.values - eigenvalue * psi.values, axes,
                          STENCIL_BAND)
            / interior_norm(psi.values, axes, STENCIL_BAND))


def _grid_residuals(psi, n, two_j, p):
    """The residuals by 2-D stencils on the synthesized grid, in units of
    hbar omega and hbar."""
    g = psi.grid()
    return (_separate_residual(_separate_h(g, p), g, energy(n, two_j, p))
            / (p.hbar * p.omega),
            _separate_residual(_separate_j(g, p), g, p.hbar * two_j) / p.hbar)


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0])
def test_factor_residuals_match_the_grid_stencils(theta):
    # the 45 selftest levels: the factor kernel against the 2-D stencils
    p = NCParams(m=1.0, omega=1.0, theta=theta)
    axes = momentum_grid(p, 256)
    for n in range(5):
        for two_j in range(-n, n + 1, 2):
            psi = eigenfunction(n, two_j, p, axes)
            got = eigen_residuals(psi, n, two_j, p)
            want = _grid_residuals(psi, n, two_j, p)
            assert got == pytest.approx(want, rel=1e-6), (n, two_j)


def test_factor_residuals_match_the_grid_stencils_off_unit():
    # hbar omega != 1 and a 200-node grid: the unit enters each coefficient
    p = NCParams(m=1.3, omega=1.0, theta=0.4, hbar=0.9)
    psi = eigenfunction(3, 3, p, momentum_grid(p, 200))
    got = eigen_residuals(psi, 3, 3, p)
    assert got == pytest.approx(_grid_residuals(psi, 3, 3, p), rel=1e-6)


@pytest.mark.parametrize("hbar", [1e-100, 1e-200])
def test_residuals_are_dimensionless_at_a_tiny_hbar(hbar):
    # in units of hbar omega and hbar the residuals do not scale with hbar;
    # in energy units the wrong-level check below read 6.8e-109 at 1e-100
    # and 0.0 at 1e-200
    p1, p = P03, NCParams(m=1.0, omega=1.0, theta=0.3, hbar=hbar)
    for n, two_j in ((1, 1), (4, 2)):
        got = eigen_residuals(eigenfunction(n, two_j, p), n, two_j, p)
        ref = eigen_residuals(eigenfunction(n, two_j, p1), n, two_j, p1)
        assert max(got) < 1e-6
        assert got == pytest.approx(ref, rel=1e-5)
    # a state checked against the wrong level misses by O(1), not by 0.0
    wrong = eigen_residuals(eigenfunction(1, 1, p), 0, 0, p)
    assert all(0.5 < r < 2.0 for r in wrong)


@pytest.mark.parametrize("p, nodes, n, two_j", [
    *((NCParams(m=1.0, omega=1.0, theta=th), 256, n, tj)
      for th in (0.3, 1.0) for n, tj in ((2, 0), (4, -2))),
    (NCParams(m=1.3, omega=0.8, theta=0.4, hbar=0.9), 200, 3, 3),
], ids=["0.3-(2,0)", "0.3-(4,-2)", "1-(2,0)", "1-(4,-2)", "off-unit-(3,3)"])
def test_factor_operators_match_the_grid_stencils(p, nodes, n, two_j):
    # H psi in units of hbar omega max|psi| and J psi in units of hbar
    # max|psi| against the 2-D stencils on the interior band; omega != 1
    # in the off-unit case pins the unit of H
    psi = eigenfunction(n, two_j, p, momentum_grid(p, nodes))
    g, b = psi.grid(), STENCIL_BAND
    peak = np.abs(g.values).max()
    for apply, oracle, unit in ((apply_hamiltonian, _separate_h,
                                 p.hbar * p.omega),
                                (apply_angular_momentum, _separate_j, p.hbar)):
        diff = apply(psi, p).grid().values - oracle(g, p).values
        assert np.abs(diff[b:-b, b:-b]).max() < 1e-11 * unit * peak


def test_energy_expectation_matches_eigenvalue():
    psi = eigenfunction(3, 1, P03)
    Hpsi = apply_hamiltonian(psi, P03)
    assert psi.inner(Hpsi) == pytest.approx(energy(3, 1, P03), rel=1e-8)
    Jpsi = apply_angular_momentum(psi, P03)
    assert psi.inner(Jpsi) == pytest.approx(P03.hbar * 1.0, abs=1e-7)


def test_hamiltonian_commutes_with_angular_momentum():
    # on a superposition of eigenstates both operator orders agree in the
    # continuum; the discrete mismatch is pure stencil error
    axes = momentum_grid(P03, 256, 8.0)
    a, b = (eigenfunction(n, tj, P03, axes) for n, tj in ((2, 0), (3, 1)))
    mix = Separable(np.hstack([a.X, b.X]), np.hstack([a.Y, b.Y]),
                    np.concatenate([a.c, b.c]) / math.sqrt(2.0), axes)
    HJ = apply_hamiltonian(apply_angular_momentum(mix, P03), P03).grid()
    JH = apply_angular_momentum(apply_hamiltonian(mix, P03), P03).grid()
    comm = interior_norm(HJ.values - JH.values, axes, 6)
    scale = _norm(apply_hamiltonian(mix, P03).grid()) * P03.hbar
    assert comm / scale < 1e-5


def test_apply_hamiltonian_allocates_factors_not_grids():
    # as a 256^2 grid times a 256 x 256 identity it peaked at 18.5 MiB
    psi = eigenfunction(2, 0, P03, momentum_grid(P03, 256))
    apply_hamiltonian(psi, P03)
    tracemalloc.start()
    try:
        apply_hamiltonian(psi, P03)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_coarse_grid_is_refused_where_the_state_is_built(monkeypatch):
    # a step over MAX_STEP widths is refused before any factor is built;
    # it used to warn from the operators only, which the Wigner path
    # never called
    monkeypatch.setattr("ncplane.spectra.hermite_functions", None)
    with pytest.raises(TruncationError) as err:
        eigenfunction(0, 0, P03, momentum_grid(P03, 12, 8.0))
    assert str(err.value) == ("grid step 1.45 widths sqrt(m hbar w_eff) "
                              "exceeds 0.5; refine the grid")


def test_grid_that_misses_the_state_is_refused():
    # a fine grid 100 widths off the origin samples only zeros
    w = P03.width
    axes = (uniform_axis(100.0 * w, 140.0 * w, 161),) * 2
    with pytest.raises(TruncationError,
                       match="the grid samples none of the state"):
        eigenfunction(0, 0, P03, axes)


def test_overflowing_factors_are_named_not_the_step():
    # H_170 overflows at 30 widths, so the norm is not finite; the message
    # used to blame the grid step
    with pytest.raises(TruncationError) as err:
        eigenfunction(170, 0, P03, momentum_grid(P03, 1024, 30.0))
    assert str(err.value) == ("the Hermite factors of order 170 overflow on "
                              "a grid out to 30 widths")


# --- kernels and transforms -------------------------------------------------

def _gaussian_xpy_literal(x, py, p):
    """Closed-form (x, p_y) wave function of the ground state."""
    s2 = p.m * p.hbar * p.w_eff
    u = x + 0.5 * p.theta * py
    return ((s2 / (math.pi * p.hbar**2)) ** 0.25
            * np.exp(-u**2 * s2 / (2 * p.hbar**2))
            * np.exp(-py**2 / (2 * s2)) / (math.pi * s2) ** 0.25)


def _gaussian_ypx_literal(y, px, p):
    s2 = p.m * p.hbar * p.w_eff
    u = y - 0.5 * p.theta * px
    return ((s2 / (math.pi * p.hbar**2)) ** 0.25
            * np.exp(-u**2 * s2 / (2 * p.hbar**2))
            * np.exp(-px**2 / (2 * s2)) / (math.pi * s2) ** 0.25)


@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_transform_ground_state_to_xpy_matches_gaussian(theta):
    p = NCParams(m=1.0, omega=1.0, theta=theta)
    psi = eigenfunction(0, 0, p, momentum_grid(p, 257, 8.0)).grid()
    f = transform(psi, "xpy", p)
    X, PY = np.meshgrid(f.axis1, f.axis2, indexing="ij")
    expect = _gaussian_xpy_literal(X, PY, p)
    assert np.abs(f.values - expect).max() < 1e-10
    assert _norm(f) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_transform_ground_state_to_ypx_matches_gaussian(theta):
    p = NCParams(m=1.0, omega=1.0, theta=theta)
    psi = eigenfunction(0, 0, p, momentum_grid(p, 257, 8.0)).grid()
    f = transform(psi, "ypx", p)
    Y, PX = np.meshgrid(f.axis1, f.axis2, indexing="ij")
    expect = _gaussian_ypx_literal(Y, PX, p)
    assert np.abs(f.values - expect).max() < 1e-10


def test_transform_preserves_norm():
    psi = eigenfunction(2, 0, P03, momentum_grid(P03, 161, 8.0)).grid()
    for dst in ("xpy", "ypx"):
        assert _norm(transform(psi, dst, P03)) == pytest.approx(1.0,
                                                               abs=1e-6)


def test_transform_is_linear():
    axes = momentum_grid(P03, 97, 8.0)
    a = eigenfunction(0, 0, P03, axes).grid()
    b = eigenfunction(2, 2, P03, axes).grid()
    mix = _like(a, 0.3 * a.values - 1.7j * b.values)
    lhs = transform(mix, "xpy", P03).values
    rhs = (0.3 * transform(a, "xpy", P03).values
           - 1.7j * transform(b, "xpy", P03).values)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_transform_identity_and_unknown_basis():
    # transform only enters a mixed basis from (p_x, p_y): a "p" target,
    # an unknown basis and a mixed source are refused, naming both bases
    psi = eigenfunction(0, 0, P03, momentum_grid(P03, 65, 8.0)).grid()
    xpy = transform(psi, "xpy", P03)
    for src, dst in ((psi, "p"), (psi, "q"), (xpy, "ypx"), (xpy, "p")):
        with pytest.raises(GridError,
                           match=f"not '{src.basis}' into '{dst}'"):
            transform(src, dst, P03)


def test_transform_against_explicit_kernel_quadrature():
    # independent route: loop the kernel phase against trapezoid weights
    p = P03
    psi = eigenfunction(1, 1, p, momentum_grid(p, 65, 8.0)).grid()
    f = transform(psi, "xpy", p)
    pxa, pya = psi.axis1, psi.axis2
    h = pxa[1] - pxa[0]
    w = np.full(pxa.size, h)
    w[0] = w[-1] = h / 2
    rt = math.sqrt(2 * math.pi * p.hbar)
    for i in (0, 13, 40):
        for j in (5, 32, 60):
            x, py = f.axis1[i], f.axis2[j]
            ker = np.exp(1j * (x * pxa + 0.5 * p.theta * py * pxa) / p.hbar)
            expect = (w * ker * psi.values[:, j]).sum() / rt
            assert f.values[i, j] == pytest.approx(expect, abs=1e-13)


def _ket_xpy_p(x, px, py, p):
    """<x, p_y | p'> at p_y = p_y'; the delta(p_y - p_y') is row matching."""
    return (np.exp(1j * (x * px + 0.5 * p.theta * py * px) / p.hbar)
            / math.sqrt(2 * math.pi * p.hbar))


def _ket_ypx_p(y, px, py, p):
    """<y, p_x | p'> at p_x = p_x'."""
    return (np.exp(1j * (y * py - 0.5 * p.theta * py * px) / p.hbar)
            / math.sqrt(2 * math.pi * p.hbar))


@pytest.mark.parametrize("src,dst", [("p", "xpy"), ("p", "ypx")])
def test_every_pair_matches_explicit_kernel_quadrature(src, dst):
    # psi_{1,1} e^{0.9 i p_x} has no reflection symmetry, so a wrong shear
    # sign or a swapped axis shows
    p = P03
    base = eigenfunction(1, 1, p, momentum_grid(p, 65, 8.0)).grid()
    psi = GridFunction(base.axis1, base.axis2,
                       base.values * np.exp(0.9j * base.axis1)[:, None], src)
    f = transform(psi, dst, p)
    a1, a2, v = psi.axis1, psi.axis2, psi.values
    w1, w2 = _trapezoid(a1), _trapezoid(a2)
    for i, j in [(3, 50), (20, 7), (32, 32), (47, 61)]:
        u, s = f.axis1[i], f.axis2[j]
        if dst == "xpy":                    # (x, p_y), p_y = a2[j]
            expect = (w1 * _ket_xpy_p(u, a1, s, p) * v[:, j]).sum()
        else:                               # (y, p_x), p_x = a1[j]
            expect = (w2 * _ket_ypx_p(u, s, a2, p) * v[j, :]).sum()
        assert f.values[i, j] == pytest.approx(expect, abs=1e-12)


def test_momentum_phase_translates_position():
    # multiplying by exp(-i a p_x / hbar) shifts the x wave function by a
    p = P03
    psi = eigenfunction(0, 0, p, momentum_grid(p, 257, 8.0)).grid()
    a = 0.8
    shifted = _like(
        psi, psi.values * np.exp(-1j * a * psi.axis1 / p.hbar)[:, None])
    f = transform(shifted, "xpy", p)
    X, PY = np.meshgrid(f.axis1, f.axis2, indexing="ij")
    expect = _gaussian_xpy_literal(X - a, PY, p)
    assert np.abs(f.values - expect).max() < 1e-10


def test_target_axis_given_as_a_list_matches_the_array_form():
    # q is any sequence of positions; the kept momentum keeps its axis
    psi = eigenfunction(0, 0, P03, momentum_grid(P03, 33, 8.0)).grid()
    qs = uniform_axis(-3.0, 3.0, 33)
    for dst, keep in (("xpy", psi.axis2), ("ypx", psi.axis1)):
        want = transform(psi, dst, P03, q=qs)
        got = transform(psi, dst, P03, q=list(qs))
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.axis1, qs)
        assert np.array_equal(got.axis2, keep)


def test_aliasing_guard_fires():
    axes = momentum_grid(P03, 33, 8.0)
    psi = eigenfunction(0, 0, P03, axes).grid()
    wide = uniform_axis(-60.0, 60.0, 64)
    with pytest.raises(AliasingError):
        transform(psi, "xpy", P03, q=wide)


def test_grid_on_the_states_own_axes_is_bit_identical():
    psi = eigenfunction(3, -1, P03, momentum_grid(P03, 65, 8.0))
    a, b = psi.grid(), psi.grid(psi.axes)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.axis1, b.axis1) and a.basis == b.basis == "p"


def test_grid_off_the_axes_matches_an_eigenfunction_there():
    # the factors read at other p_x nodes against a state built on them;
    # the coefficients differ only by the two grids' normalization sums
    axes = momentum_grid(P03, 65, 8.0)
    ta = uniform_axis(-8.5 * P03.width, 8.5 * P03.width, 53)
    for n, two_j in ((0, 0), (3, -1)):
        got = eigenfunction(n, two_j, P03, axes).grid((ta, axes[1]))
        want = eigenfunction(n, two_j, P03, (ta, axes[1])).grid()
        assert np.array_equal(got.axis1, ta)
        assert np.abs(got.values - want.values).max() < 1e-13


def test_grid_off_the_axes_needs_columns():
    axes = momentum_grid(P03, 33, 8.0)
    psi = eigenfunction(1, 1, P03, axes)
    bare = Separable(psi.X, psi.Y, psi.c, axes)
    assert np.array_equal(bare.grid().values, psi.grid().values)
    with pytest.raises(GridError, match="no values off its own axes"):
        bare.grid(axes)
