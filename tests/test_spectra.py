"""Oscillator spectrum, eigenfunctions, operators, and basis transforms.

Oracles used here: numpy's Hermite evaluator for the recurrence, closed
Gaussian integrals for transforms of the ground state, explicit kernel
quadrature loops (independent of the factored matrix products inside
transform), and the energy formula evaluated by hand at pinned points.
"""

import math
import warnings

import numpy as np
import pytest

from ncplane.params import NCParams
from ncplane.grids import GridError, GridFunction, uniform_axis
from ncplane.spectra import (
    AliasingError,
    SpectrumEntry,
    TruncationError,
    apply_angular_momentum,
    apply_hamiltonian,
    eigen_residuals,
    eigenfunction,
    energy,
    hermite,
    momentum_grid,
    spectrum,
    transform,
    validate_level,
)

P03 = NCParams(m=1.0, omega=1.0, theta=0.3)


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
    x = np.linspace(-3.0, 3.0, 41)
    for n in range(9):
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        expect = np.polynomial.hermite.hermval(x, coeffs)
        got = hermite(n, x)
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-12)


def test_hermite_literals():
    assert hermite(0, 0.3) == 1.0
    assert hermite(1, 0.5) == 1.0
    assert hermite(2, 1.0) == 2.0
    # H_3(x) = 8x^3 - 12x at x = 2
    assert hermite(3, 2.0) == 8 * 8 - 24
    with pytest.raises(ValueError):
        hermite(-1, 0.0)


# --- eigenfunctions ---------------------------------------------------------

def test_momentum_grid_span():
    ax1, ax2 = momentum_grid(P03, 128, 8.0)
    s = P03.width
    assert ax1[0] == pytest.approx(-8.0 * s) and ax1[-1] == pytest.approx(8.0 * s)
    assert len(ax1) == 128 and np.array_equal(ax1, ax2)


def test_ground_state_is_gaussian():
    # psi_00 = exp(-p^2 / (2 m hbar w_eff)) / sqrt(pi m hbar w_eff)
    psi = eigenfunction(0, 0, P03)
    s2 = P03.m * P03.hbar * P03.w_eff
    Px, Py = np.meshgrid(psi.axis1, psi.axis2, indexing="ij")
    expect = np.exp(-(Px**2 + Py**2) / (2 * s2)) / math.sqrt(math.pi * s2)
    assert np.abs(psi.values - expect).max() < 1e-12
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)


def test_eigenfunctions_are_normalized():
    for (n, tj) in [(1, 1), (3, -1), (4, 0)]:
        psi = eigenfunction(n, tj, P03)
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)


def test_gram_matrix_is_identity():
    axes = momentum_grid(P03, 256, 8.0)
    states = [eigenfunction(n, tj, P03, axes)
              for n in range(4) for tj in range(-n, n + 1, 2)]
    G = np.array([[a.inner(b) for b in states] for a in states])
    assert np.abs(G - np.eye(10)).max() < 2e-6


def test_truncation_error_on_small_grid():
    axes = momentum_grid(P03, 64, 3.0)
    with pytest.raises(TruncationError):
        eigenfunction(4, 0, P03, axes)
    # same level fits comfortably on the default grid
    eigenfunction(4, 0, P03)


def test_level_validation_reaches_eigenfunction():
    with pytest.raises(ValueError):
        eigenfunction(2, 1, P03)


# --- operators --------------------------------------------------------------

@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n,two_j", [(0, 0), (2, -2), (4, 4), (4, 0)])
def test_eigen_residuals_spot_checks(theta, n, two_j):
    p = NCParams(m=1.0, omega=1.0, theta=theta)
    axes = momentum_grid(p, 256, 8.0)
    rH, rJ = eigen_residuals(n, two_j, p, axes)
    assert rH < 1e-6
    assert rJ < 1e-6


def test_order_four_is_coarser_than_order_six():
    axes = momentum_grid(P03, 256, 8.0)
    rH4, _ = eigen_residuals(4, 0, P03, axes, order=4)
    rH6, _ = eigen_residuals(4, 0, P03, axes, order=6)
    assert rH6 < 1e-6 < rH4 < 1e-3


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
    a = eigenfunction(2, 0, P03, axes)
    b = eigenfunction(3, 1, P03, axes)
    mix = a.with_values((a.values + b.values) / math.sqrt(2.0))
    HJ = apply_hamiltonian(apply_angular_momentum(mix, P03), P03)
    JH = apply_angular_momentum(apply_hamiltonian(mix, P03), P03)
    comm = HJ.with_values(HJ.values - JH.values)
    scale = apply_hamiltonian(mix, P03).norm() * P03.hbar
    assert comm.interior_norm(6) / scale < 1e-5


def test_operators_require_momentum_basis():
    ax = uniform_axis(-4.0, 4.0, 32)
    F = GridFunction(ax, ax, np.ones((32, 32), complex), "xpy")
    with pytest.raises(GridError):
        apply_hamiltonian(F, P03)
    with pytest.raises(GridError):
        apply_angular_momentum(F, P03)


def test_coarse_grid_warns():
    ax = uniform_axis(-8.0, 8.0, 12)
    F = GridFunction(ax, ax, np.ones((12, 12), complex), "p")
    with pytest.warns(RuntimeWarning):
        apply_hamiltonian(F, P03)


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
    psi = eigenfunction(0, 0, p, momentum_grid(p, 257, 8.0))
    f = transform(psi, "xpy", p)
    X, PY = np.meshgrid(f.axis1, f.axis2, indexing="ij")
    expect = _gaussian_xpy_literal(X, PY, p)
    assert np.abs(f.values - expect).max() < 1e-10
    assert f.norm() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_transform_ground_state_to_ypx_matches_gaussian(theta):
    p = NCParams(m=1.0, omega=1.0, theta=theta)
    psi = eigenfunction(0, 0, p, momentum_grid(p, 257, 8.0))
    f = transform(psi, "ypx", p)
    Y, PX = np.meshgrid(f.axis1, f.axis2, indexing="ij")
    expect = _gaussian_ypx_literal(Y, PX, p)
    assert np.abs(f.values - expect).max() < 1e-10


def test_transform_roundtrips():
    psi = eigenfunction(1, 1, P03, momentum_grid(P03, 161, 8.0))
    for mid in ("xpy", "ypx"):
        back = transform(transform(psi, mid, P03), "p", P03)
        assert np.abs(back.values - psi.values).max() < 1e-6
        assert back.basis == "p"


def test_transform_preserves_norm():
    psi = eigenfunction(2, 0, P03, momentum_grid(P03, 161, 8.0))
    for dst in ("xpy", "ypx"):
        assert transform(psi, dst, P03).norm() == pytest.approx(1.0, abs=1e-6)


def test_transform_composition_consistency():
    psi = eigenfunction(1, -1, P03, momentum_grid(P03, 161, 8.0))
    via = transform(transform(psi, "xpy", P03), "ypx", P03)
    direct = transform(psi, "ypx", P03)
    assert np.abs(via.values - direct.values).max() < 1e-6


def test_transform_is_linear():
    axes = momentum_grid(P03, 97, 8.0)
    a = eigenfunction(0, 0, P03, axes)
    b = eigenfunction(2, 2, P03, axes)
    mix = a.with_values(0.3 * a.values - 1.7j * b.values)
    lhs = transform(mix, "xpy", P03).values
    rhs = (0.3 * transform(a, "xpy", P03).values
           - 1.7j * transform(b, "xpy", P03).values)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_transform_identity_and_unknown_basis():
    psi = eigenfunction(0, 0, P03, momentum_grid(P03, 65, 8.0))
    assert transform(psi, "p", P03) is psi
    with pytest.raises(GridError):
        transform(psi, "q", P03)


def test_transform_against_explicit_kernel_quadrature():
    # independent route: loop the kernel phase against trapezoid weights
    p = P03
    psi = eigenfunction(1, 1, p, momentum_grid(p, 65, 8.0))
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


def test_mixed_transform_against_double_quadrature():
    p = P03
    psi = eigenfunction(1, -1, p, momentum_grid(p, 65, 8.0))
    F = transform(psi, "xpy", p)
    G = transform(F, "ypx", p)
    xa, pya = F.axis1, F.axis2
    hx = xa[1] - xa[0]
    wx = np.full(xa.size, hx)
    wx[0] = wx[-1] = hx / 2
    wp = np.full(pya.size, hx)
    wp[0] = wp[-1] = hx / 2
    for a, b in [(3, 50), (32, 32), (60, 10)]:
        y, px = G.axis1[a], G.axis2[b]
        # <y, px | x, py> = conj of the xpy->ypx overlap kernel
        ker = np.exp(-1j * (xa[:, None] * px - np.outer(np.ones_like(xa), pya) * y
                            + p.theta * np.outer(np.ones_like(xa), pya) * px)
                     / p.hbar) / (2 * math.pi * p.hbar)
        expect = (wx[:, None] * wp[None, :] * ker * F.values).sum()
        assert G.values[a, b] == pytest.approx(expect, abs=1e-12)


def _trapezoid(a):
    h = a[1] - a[0]
    w = np.full(a.size, h)
    w[0] = w[-1] = h / 2
    return w


def _ket_xpy_p(x, px, py, p):
    """<x, p_y | p'> at p_y = p_y'; the delta(p_y - p_y') is row matching."""
    return (np.exp(1j * (x * px + 0.5 * p.theta * py * px) / p.hbar)
            / math.sqrt(2 * math.pi * p.hbar))


def _ket_ypx_p(y, px, py, p):
    """<y, p_x | p'> at p_x = p_x'."""
    return (np.exp(1j * (y * py - 0.5 * p.theta * py * px) / p.hbar)
            / math.sqrt(2 * math.pi * p.hbar))


def _ket_xpy_ypx(x, py, y, px, p):
    """<x, p_y | y, p_x>."""
    return (np.exp(1j * (x * px - py * y + p.theta * py * px) / p.hbar)
            / (2 * math.pi * p.hbar))


@pytest.mark.parametrize("src,dst", [("p", "xpy"), ("xpy", "p"), ("p", "ypx"),
                                     ("ypx", "p"), ("xpy", "ypx"),
                                     ("ypx", "xpy")])
def test_every_pair_matches_explicit_kernel_quadrature(src, dst):
    # psi_{1,1} e^{0.9 i p_x} has no reflection symmetry, so a wrong shear
    # sign or a swapped axis shows; its values serve as a source state in
    # every basis
    p = P03
    base = eigenfunction(1, 1, p, momentum_grid(p, 65, 8.0))
    kicked = base.values * np.exp(0.9j * base.axis1)[:, None]
    psi = GridFunction(base.axis1, base.axis2, kicked, src)
    f = transform(psi, dst, p)
    a1, a2, v = psi.axis1, psi.axis2, psi.values
    w1, w2 = _trapezoid(a1), _trapezoid(a2)
    for i, j in [(3, 50), (20, 7), (32, 32), (47, 61)]:
        u, s = f.axis1[i], f.axis2[j]
        if (src, dst) == ("p", "xpy"):      # (x, p_y), p_y = a2[j]
            expect = (w1 * _ket_xpy_p(u, a1, s, p) * v[:, j]).sum()
        elif (src, dst) == ("xpy", "p"):    # (p_x, p_y), p_y = a2[j]
            expect = (w1 * np.conj(_ket_xpy_p(a1, u, s, p)) * v[:, j]).sum()
        elif (src, dst) == ("p", "ypx"):    # (y, p_x), p_x = a1[j]
            expect = (w2 * _ket_ypx_p(u, s, a2, p) * v[j, :]).sum()
        elif (src, dst) == ("ypx", "p"):    # (p_x, p_y), p_x = a2[i]
            expect = (w1 * np.conj(_ket_ypx_p(a1, u, s, p)) * v[:, i]).sum()
        elif (src, dst) == ("ypx", "xpy"):  # (x, p_y) from (y, p_x)
            K = _ket_xpy_ypx(u, s, a1[:, None], a2[None, :], p)
            expect = (w1[:, None] * w2[None, :] * K * v).sum()
        else:                               # (y, p_x) from (x, p_y)
            K = np.conj(_ket_xpy_ypx(a1[:, None], a2[None, :], u, s, p))
            expect = (w1[:, None] * w2[None, :] * K * v).sum()
        assert f.values[i, j] == pytest.approx(expect, abs=1e-12)


def test_mixed_to_mixed_alias_guard_counts_the_full_shear():
    # fine x step, coarse p_y step (limit pi hbar / 0.5 = 6.28): the target
    # reach |y| + |theta| |p_x| is 8 at theta = 1, while a composition of
    # two half shears would guard only |y| + |theta| |p_x| / 2 = 5
    xa = uniform_axis(-2.0, 2.0, 81)
    pya = uniform_axis(-4.0, 4.0, 17)
    vals = np.exp(-xa[:, None] ** 2 - pya[None, :] ** 2 / 4.0)
    psi = GridFunction(xa, pya, vals, "xpy")
    axes = (uniform_axis(-2.0, 2.0, 21), uniform_axis(-6.0, 6.0, 25))
    with pytest.raises(AliasingError, match="for y"):
        transform(psi, "ypx", NCParams(m=1.0, omega=1.0, theta=1.0), axes)
    assert transform(psi, "ypx", NCParams(m=1.0, omega=1.0, theta=0.5),
                     axes).basis == "ypx"


def test_momentum_phase_translates_position():
    # multiplying by exp(-i a p_x / hbar) shifts the x wave function by a
    p = P03
    psi = eigenfunction(0, 0, p, momentum_grid(p, 257, 8.0))
    a = 0.8
    shifted = psi.with_values(
        psi.values * np.exp(-1j * a * psi.axis1 / p.hbar)[:, None])
    f = transform(shifted, "xpy", p)
    X, PY = np.meshgrid(f.axis1, f.axis2, indexing="ij")
    expect = _gaussian_xpy_literal(X - a, PY, p)
    assert np.abs(f.values - expect).max() < 1e-10


def test_axes_given_as_one_array_match_the_tuple_form():
    psi = eigenfunction(0, 0, P03, momentum_grid(P03, 33, 8.0))
    xs = uniform_axis(-3.0, 3.0, 33)
    xpy = transform(psi, "xpy", P03, axes=(xs, psi.axis2))
    for src, dst, axes in ((psi, "xpy", (xs, psi.axis2)),
                           (xpy, "ypx", (xs, xs)),
                           (xpy, "p", (psi.axis1, psi.axis2))):
        want = transform(src, dst, P03, axes=axes)
        got = transform(src, dst, P03, axes=np.array(axes))
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.axis1, want.axis1)
        assert np.array_equal(got.axis2, want.axis2)


def test_delta_matched_axes_must_agree():
    psi = eigenfunction(0, 0, P03, momentum_grid(P03, 65, 8.0))
    other = uniform_axis(-3.0, 3.0, 65)
    with pytest.raises(GridError):
        transform(psi, "xpy", P03, axes=(psi.axis1, other))


def test_aliasing_guard_fires():
    axes = momentum_grid(P03, 16, 8.0)
    psi = eigenfunction(0, 0, P03, axes)
    wide = uniform_axis(-60.0, 60.0, 64)
    with pytest.raises(AliasingError):
        transform(psi, "xpy", P03, axes=(wide, psi.axis2))
