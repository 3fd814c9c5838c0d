"""Wigner functions: the factor sum, tables, mixed-state tables, and
Liouville transport.

The factor sum is checked against the closed Gaussian form, against the
(x, p_y) quadrature it replaced (kept here as an oracle), and against the
parity value at the origin; marginals against |psi|^2 in all three bases
(the mixed ones computed by the basis transforms, an independent code
path, and the momentum one from the factors off the grid), overlaps of
two tables (a plain trapezoid sum here) against wave-function inner
products, and the evolution against the deformed bracket.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from ncplane import selftest, wigner
from ncplane.params import CheckFailure, NCParams
from ncplane.phasespace import PhasePoint, ScalarField, bracket_field
from ncplane.dynamics import flow_matrix, oscillator_hamiltonian
from ncplane.grids import trapezoid_weights, uniform_axis
from ncplane.spectra import (
    AliasingError,
    Separable,
    eigenfunction,
    momentum_grid,
    transform,
)
from ncplane.wigner import (
    MAX_OFFSETS,
    EvolvedWigner,
    GroundStateWigner,
    QuadratureWigner,
    WignerError,
    evolve_liouville,
    quadrature_rows,
    table_sums,
    wigner_ground_state,
    wigner_table,
)

P = NCParams(m=1.0, omega=1.0, theta=0.3)
P_FREE = NCParams(m=1.0, omega=0.0, theta=0.3)     # the free flow
SCALE = 1.0 / (math.pi * P.hbar) ** 2


@pytest.fixture(scope="module")
def ground():
    return eigenfunction(0, 0, P, momentum_grid(P, 65, 8.0))


@pytest.fixture(scope="module")
def excited():
    return eigenfunction(1, 1, P, momentum_grid(P, 65, 8.0))


@pytest.fixture(scope="module")
def ground_xpy(ground):
    return transform(ground.grid(), "xpy", P)


@pytest.fixture(scope="module")
def table_axes(ground):
    side = uniform_axis(-4.8, 4.8, 41)
    return (ground.axes[0], side, side.copy(), ground.axes[1])


@pytest.fixture(scope="module")
def ground_table(ground, table_axes):
    return wigner_table(QuadratureWigner(ground, P), table_axes)


@pytest.fixture(scope="module")
def excited_table(excited, table_axes):
    return wigner_table(QuadratureWigner(excited, P), table_axes)


def integrate(values, axes):
    """Plain trapezoid integral of a table over dx dy dpx dpy."""
    w = [trapezoid_weights(a) for a in axes]
    return float(np.einsum("i,j,k,l,ijkl->", *w, values))


def overlap(a, b, axes):
    """(2 pi hbar)^2 integral W1 W2, |<psi1|psi2>|^2 for two pure states."""
    return (2.0 * math.pi * P.hbar) ** 2 * integrate(a * b, axes)


def _superpose(a, b, weight):
    """a + weight b as one separable state: the columns of both, side by
    side (not renormalized)."""
    cols = tuple(lambda p, fa=fa, fb=fb: np.concatenate([fa(p), fb(p)], -1)
                 for fa, fb in zip(a.columns, b.columns))
    return Separable(np.hstack([a.X, b.X]), np.hstack([a.Y, b.Y]),
                     np.concatenate([a.c, weight * b.c]), a.axes, cols)


def _displaced_gaussian(axes, d, p):
    """The ground state displaced by d = (x, y, px, py) in phase space, so
    that its Wigner function is W0(z - d).  In (p_x, p_y) it is a product
    of Gaussians about (px, py), each carrying the phase exp(-i q0 p/hbar)
    of its sheared position q0: X0 = x + theta py/2, Y0 = y - theta px/2.
    Its factors are complex."""
    shifts = ((d[2], d[0] + 0.5 * p.theta * d[3]),
              (d[3], d[1] - 0.5 * p.theta * d[2]))
    cols = tuple(
        lambda q, p0=p0, q0=q0: np.exp(-0.5 * ((q - p0) / p.width) ** 2
                                       - 1j * q0 * q / p.hbar)[..., None]
        for p0, q0 in shifts)
    psi = Separable(cols[0](axes[0]), cols[1](axes[1]), np.ones(1), axes,
                    cols)
    return Separable(psi.X, psi.Y, psi.c / math.sqrt(psi.inner(psi).real),
                     axes, cols)


def test_ground_state_peak_literal():
    W = wigner_ground_state(P)
    assert W.at(0.0, 0.0, 0.0, 0.0) == pytest.approx(
        1.0 / (math.pi * P.hbar) ** 2, rel=1e-15)


def test_quadrature_matches_closed_form_on_slices(ground):
    Wq = QuadratureWigner(ground, P)
    Wc = wigner_ground_state(P)
    pxs = np.linspace(-2.5, 2.5, 41)
    X, PX = np.meshgrid(ground.axes[0], pxs, indexing="ij")
    assert np.abs(Wq.at(X, 0.0, PX, 0.0)
                  - Wc.at(X, 0.0, PX, 0.0)).max() < 1e-13 * SCALE
    ys = np.linspace(-2.0, 2.0, 31)
    Y, PY = np.meshgrid(ys, ground.axes[1], indexing="ij")
    x0 = ground.axes[0][32]
    assert np.abs(Wq.at(x0, Y, 0.37, PY)
                  - Wc.at(x0, Y, 0.37, PY)).max() < 1e-13 * SCALE


def test_table_matches_pointwise_quadrature_without_reflection_symmetry():
    # a parity mix with a complex weight: W(-z) is no multiple of W(z), so
    # a reversed or conjugated pair shows here
    pgrid = momentum_grid(P, 33, 8.0)
    mix = _superpose(eigenfunction(2, 2, P, pgrid),
                     eigenfunction(1, 1, P, pgrid), 0.5 * cmath.exp(0.7j))
    Wq = QuadratureWigner(mix, P)
    axes = (uniform_axis(-4.5, 4.5, 33), uniform_axis(-1.5, 1.2, 4),
            uniform_axis(-0.8, 1.1, 3), pgrid[1])
    tab = wigner_table(Wq, axes)
    pointwise = Wq.at(*np.meshgrid(*axes, indexing="ij"))
    assert np.abs(tab).max() > 0.1 * SCALE
    assert np.abs(tab - pointwise).max() < 1e-12 * SCALE
    flipped = Wq.at(*(-z for z in np.meshgrid(*axes, indexing="ij")))
    assert np.abs(tab - flipped).max() > 0.01 * SCALE


def test_readme_slice_reaches_the_last_x_node():
    # the README's state and grid: 256 nodes, none at p_y = 0
    psi = eigenfunction(1, 1, P, momentum_grid(P, 256, 8.0))
    Wq = QuadratureWigner(psi, P)
    vals = Wq.at(psi.axes[0][-1], 0.0, np.linspace(-2.5, 2.5, 41), 0.0)
    assert np.all(np.isfinite(vals))
    assert np.abs(vals).max() <= SCALE


def test_readme_ground_slice_matches_the_closed_form():
    # the `wigner` command's slice on its default 256 nodes; the (x, p_y)
    # quadrature interpolated between p_y nodes here and missed by 1.0e-4
    axes = momentum_grid(P, 256, 8.0)
    xs = axes[0][::3]
    pxs = np.linspace(-4.0 * P.width, 4.0 * P.width, 41)
    got = QuadratureWigner(eigenfunction(0, 0, P, axes), P).at(
        xs[:, None], 0.0, pxs[None, :], 0.0)
    expect = GroundStateWigner(P).at(xs[:, None], 0.0, pxs[None, :], 0.0)
    assert np.abs(got - expect).max() < 1e-13


@pytest.mark.parametrize("nodes", [65, 256])
@pytest.mark.parametrize("p", [P, NCParams(m=1.3, omega=0.8, theta=0.7,
                                           hbar=0.9)])
def test_parity_value_at_the_origin(nodes, p):
    # W(0) = (-1)^n / (pi hbar)^2 for every level: a node at 0 on 65 nodes,
    # none on 256
    axes = momentum_grid(p, nodes, 8.0)
    for n, two_j in ((1, 1), (1, -1), (2, 0), (3, 1)):
        W = QuadratureWigner(eigenfunction(n, two_j, p, axes), p)
        w0 = W.at(0.0, 0.0, 0.0, 0.0) * (math.pi * p.hbar) ** 2
        assert w0 == pytest.approx((-1) ** n, rel=1e-13), (n, two_j)


def test_pointwise_matches_table_at_every_x_node_of_64():
    psi = eigenfunction(1, 1, P, momentum_grid(P, 64, 8.0))
    Wq = QuadratureWigner(psi, P)
    axes = (psi.axes[0], uniform_axis(-1.0, 1.0, 3),
            uniform_axis(-0.9, 0.6, 3), psi.axes[1])
    tab = wigner_table(Wq, axes)
    cols = np.arange(0, 64, 9)
    X, Y, PX, PY = np.meshgrid(axes[0], axes[1], axes[2], axes[3][cols],
                               indexing="ij")
    assert np.abs(tab).max() > 0.1 * SCALE
    assert np.abs(Wq.at(X, Y, PX, PY) - tab[..., cols]).max() < 1e-12 * SCALE


def test_pointwise_reads_the_factors_off_the_grid(excited):
    # queries between the momentum nodes and beyond the grid's span are
    # exact: the factors are Hermite functions, read at any momentum, so
    # grids of 65 and 64 nodes, which share no interior node, agree
    pts = np.random.default_rng(8).uniform(-2.0, 2.0, (4, 30))
    W64 = QuadratureWigner(eigenfunction(1, 1, P, momentum_grid(P, 64, 8.0)),
                           P)
    assert np.abs(QuadratureWigner(excited, P).at(*pts)
                  - W64.at(*pts)).max() < 1e-13 * SCALE
    W0 = QuadratureWigner(eigenfunction(0, 0, P, momentum_grid(P, 64, 8.0)),
                          P)
    h = W0.psi.axes[0][1] - W0.psi.axes[0][0]
    q = np.array([[0.0, 0.0, 0.0, 0.0], [0.3, -0.2, 0.61 * h, -0.37 * h],
                  [9.5, 0.1, -0.2, 0.4], [0.2, 0.3, 8.3, -0.1],
                  [-0.4, 0.2, 0.5, -8.4]]).T
    assert np.abs(W0.at(*q) - GroundStateWigner(P).at(*q)).max() \
        < 1e-13 * SCALE


def _quadrature_oracle(psi, p, i, y, px, j):
    """The (x, p_y) quadrature this package used before the factor sum, at
    the node (x_i, p_y[j]) of the (x, p_y) state psi: the trapezoid double
    sum of

        W = (pi hbar)^-2 integral dzeta deta
            exp{2i [zeta px - eta (y - theta px)] / hbar}
            psi(x - zeta, py - eta) psi*(x + zeta, py + eta)

    over the node offsets, zero off the grid (|k| <= (nx - 1) // 2 and |l|
    <= (ny - 1) // 2 hold every term that is not)."""
    nx, ny = psi.values.shape
    K, L = (nx - 1) // 2, (ny - 1) // 2
    pad = np.pad(psi.values, ((K, K), (L, L)))
    block = pad[i:i + 2 * K + 1, j:j + 2 * L + 1]   # psi(x + zeta, py + eta)
    M = block[::-1, ::-1] * block.conj()
    h1, h2 = psi.axis1[1] - psi.axis1[0], psi.axis2[1] - psi.axis2[0]
    zeta = np.arange(-K, K + 1) * h1
    eta = np.arange(-L, L + 1) * h2
    S = (np.exp(2j * zeta * px / p.hbar) @ M
         @ np.exp(-2j * eta * (y - p.theta * px) / p.hbar))
    W = h1 * h2 * S / (math.pi * p.hbar) ** 2
    assert abs(W.imag) < 1e-14 / p.hbar ** 2
    return W.real


def test_pointwise_matches_term_by_term_oracle():
    # every level n <= 3 at three parameter sets, at points whose x, p_x
    # and p_y are grid nodes and whose y is not
    rng = np.random.default_rng(3)
    for p in (P, NCParams(m=1.3, omega=0.8, theta=0.7, hbar=0.9),
              NCParams(m=1.0, omega=1.0, theta=-0.4)):
        axes = momentum_grid(p, 65, 8.0)
        scale = 1.0 / (math.pi * p.hbar) ** 2
        for n in range(4):
            for two_j in range(-n, n + 1, 2):
                psi = eigenfunction(n, two_j, p, axes)
                xpy = transform(psi.grid(), "xpy", p)
                i, k, j = rng.integers(24, 41, (3, 6))
                y = rng.uniform(-1.5, 1.5, 6)
                got = QuadratureWigner(psi, p).at(xpy.axis1[i], y,
                                                  axes[0][k], xpy.axis2[j])
                expect = [_quadrature_oracle(xpy, p, *q)
                          for q in zip(i, y, axes[0][k], j)]
                assert np.abs(expect).max() > 1e-3 * scale
                assert np.abs(got - expect).max() < 1e-12 * scale, (n, two_j)


def _full_lattice(psi, p, x, y, px, py):
    """The factor sum written out term by term: every pair (k, l), not
    k <= l doubled, and on each axis of n nodes every offset of the full
    lattice, |r| <= n - 1, at the grid's own step."""
    w = []
    for cols, ax, m, q in ((psi.columns[0], psi.axes[0], px,
                            x + 0.5 * p.theta * py),
                           (psi.columns[1], psi.axes[1], py,
                            y - 0.5 * p.theta * px)):
        h = ax[1] - ax[0]
        zeta = np.arange(1 - len(ax), len(ax)) * h
        phase = np.exp(-2j * zeta * q / p.hbar)[:, None]
        w.append(h * (cols(m - zeta) * phase).T @ np.conj(cols(m + zeta)))
    W = psi.c @ (w[0] * w[1]) @ np.conj(psi.c) / (math.pi * p.hbar) ** 2
    assert abs(W.imag) < 1e-13 / p.hbar ** 2
    return W.real


@pytest.mark.parametrize("nx, ny", [(9, 7), (8, 6)])
def test_half_lattice_offsets_lose_no_term(nx, ny):
    # on coarse grids of odd and even node counts the offsets stop at
    # |r| <= (n - 1) // 2: past that both factors of a term lie beyond the
    # state's support, so the full lattice adds nothing; queries keep
    # |X|, |Y| small enough that the step is not refined.  eigenfunction
    # refuses steps this coarse, so the state's factors are read on them
    axes = (uniform_axis(-8.0 * P.width, 8.0 * P.width, nx),
            uniform_axis(-8.0 * P.width, 8.0 * P.width, ny))
    fine = eigenfunction(3, 1, P)
    psi = Separable(*(f(a) for f, a in zip(fine.columns, axes)), fine.c,
                    axes, fine.columns)
    pts = np.random.default_rng(nx * ny).uniform(-0.3, 0.3, (4, 12))
    pts[2:] *= 3.0
    got = QuadratureWigner(psi, P).at(*pts)
    expect = np.array([_full_lattice(psi, P, *q) for q in pts.T])
    assert np.abs(expect).max() > 0.05 * SCALE
    assert np.abs(got - expect).max() < 1e-13 * SCALE


@pytest.mark.parametrize("coord", range(4))
def test_non_finite_query_names_its_coordinate(ground, table_axes, coord):
    Wq = QuadratureWigner(ground, P)
    name = ("x", "y", "p_x", "p_y")[coord]
    for bad in (math.nan, math.inf):
        q = [0.0, 0.0, 0.0, 0.0]
        q[coord] = bad
        with pytest.raises(WignerError, match=f"non-finite {name} "):
            Wq.at(*q)
        axes = list(table_axes)
        axes[coord] = np.array([0.0, bad])
        with pytest.raises(WignerError, match=f"non-finite {name} "):
            wigner_table(Wq, axes)


def test_empty_query_returns_empty_array_of_its_shape(ground):
    Wq = QuadratureWigner(ground, P)
    assert Wq.at(np.array([]), 0.0, 0.0, 0.0).shape == (0,)
    got = Wq.at(np.zeros((3, 1)), 0.0, np.zeros((1, 0)), 0.0)
    assert got.shape == (3, 0) and got.dtype == float


def test_empty_table_axis_gives_empty_table(ground, table_axes):
    Wq = QuadratureWigner(ground, P)
    for k in range(4):
        axes = list(table_axes)
        axes[k] = np.array([])
        tab = wigner_table(Wq, axes)
        assert tab.shape[k] == 0 and tab.size == 0


def _tilt(monkeypatch):
    """Every cross-Wigner kernel turned by a quarter period: the diagonal
    kernels w_kk, which are real, come out imaginary."""
    kernel = QuadratureWigner._kernel
    monkeypatch.setattr(QuadratureWigner, "_kernel",
                        staticmethod(lambda F, phase: 1j * kernel(F, phase)))


def test_table_realness_check_catches_a_tilted_kernel(ground, table_axes,
                                                      monkeypatch):
    _tilt(monkeypatch)
    with pytest.raises(CheckFailure, match="factor sum lost realness"):
        wigner_table(QuadratureWigner(ground, P), table_axes)
    with pytest.raises(CheckFailure, match="factor sum lost realness"):
        QuadratureWigner(ground, P).at(0.3, 0.0, 0.1, 0.2)


def test_streamed_realness_check_catches_a_tilted_kernel(ground, table_axes,
                                                         monkeypatch):
    _tilt(monkeypatch)
    rows = quadrature_rows(QuadratureWigner(ground, P), table_axes)
    with pytest.raises(CheckFailure, match="factor sum lost realness"):
        table_sums(rows, table_axes, P)


def test_table_holds_one_table_sized_array(ground, table_axes):
    # the realness scale is a running maximum, not |W| over the whole table
    Wq = QuadratureWigner(ground, P)
    tracemalloc.start()
    try:
        table = wigner_table(Wq, table_axes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * table.nbytes


def test_purity_forms_no_table_sized_product(ground_table, table_axes):
    # the purity sums one x-row of W^2 at a time
    tracemalloc.start()
    try:
        table_sums(ground_table, table_axes, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * ground_table.nbytes


TABLE_BYTES = 65 * 41 * 41 * 65 * 8     # check_wigner's table: 54.19 MiB


def _record_table_builds(monkeypatch):
    calls = []
    table = wigner.wigner_table
    monkeypatch.setattr(wigner, "wigner_table",
                        lambda W, axes: calls.append(axes) or table(W, axes))
    return calls


def test_check_wigner_peak_stays_near_one_table(monkeypatch):
    # the rows stream into the sums: the peak is a few rows, not a table
    calls = _record_table_builds(monkeypatch)
    tracemalloc.start()
    try:
        assert selftest.check_wigner(seed=42).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < 0.35 * TABLE_BYTES


def test_check_wigner_builds_one_table(monkeypatch):
    # the excited-state witness is the parity value W(0), not a table, and
    # the ground state's sums are taken from the streamed rows
    calls = _record_table_builds(monkeypatch)
    r = selftest.check_wigner(seed=42)
    assert r.passed and "excited-state minimum -0.1013 < 0" in r.detail
    assert calls == []


def test_table_normalization(ground_table, table_axes):
    sums = table_sums(ground_table, table_axes, P)
    assert sums.integral == pytest.approx(1.0, abs=1e-6)


def test_marginals_match_densities(ground, ground_table, ground_xpy,
                                   table_axes):
    # the p marginal against the factors read at the table's p_x, the
    # (y, p_x) one through the p -> ypx kernel from there
    _, ya, pxa, pya = table_axes
    sums = table_sums(ground_table, table_axes, P)
    m = sums.marginal("xpy")
    assert np.abs(m.values - np.abs(ground_xpy.values) ** 2).max() < 1e-6
    psi_p = ground.grid((pxa, pya))
    m = sums.marginal("p")
    assert np.abs(m.values - np.abs(psi_p.values) ** 2).max() < 1e-6
    psi_ypx = transform(psi_p, "ypx", P, q=ya)
    m = sums.marginal("ypx")
    assert np.abs(m.values - np.abs(psi_ypx.values) ** 2).max() < 1e-6
    with pytest.raises(WignerError):
        sums.marginal("q")


def test_excited_marginals_too(excited_table, excited, table_axes):
    m = table_sums(excited_table, table_axes, P).marginal("xpy")
    excited_xpy = transform(excited.grid(), "xpy", P)
    assert np.abs(m.values - np.abs(excited_xpy.values) ** 2).max() < 1e-6


def test_streamed_sums_equal_the_stored_table_sums(ground, ground_table,
                                                   table_axes):
    streamed = table_sums(quadrature_rows(QuadratureWigner(ground, P),
                                          table_axes), table_axes, P)
    stored = table_sums(ground_table, table_axes, P)
    assert streamed.integral == stored.integral
    assert streamed.purity == stored.purity
    for keep in ("xpy", "ypx", "p"):
        assert np.array_equal(streamed.marginal(keep).values,
                              stored.marginal(keep).values)


def test_row_sums_match_whole_table_contractions(ground_table, table_axes):
    w = [trapezoid_weights(a) for a in table_axes]
    sums = table_sums(ground_table, table_axes, P)
    assert sums.integral == pytest.approx(integrate(ground_table, table_axes),
                                          rel=1e-13)
    whole = (2.0 * math.pi * P.hbar) ** 2 * integrate(ground_table ** 2,
                                                      table_axes)
    assert sums.purity == pytest.approx(whole, rel=1e-13)
    for keep, spec, a, b in (("xpy", "j,k,ijkl->il", 1, 2),
                             ("ypx", "i,l,ijkl->jk", 0, 3),
                             ("p", "i,j,ijkl->kl", 0, 1)):
        expect = np.einsum(spec, w[a], w[b], ground_table)
        assert np.abs(sums.marginal(keep).values - expect).max() < 1e-13


def test_purity_of_pure_states(ground_table, excited_table, table_axes):
    for table in (ground_table, excited_table):
        purity = table_sums(table, table_axes, P).purity
        assert purity == pytest.approx(1.0, abs=1e-6)


def test_orthogonal_states_have_zero_overlap(ground_table, excited_table,
                                             table_axes):
    assert overlap(ground_table, excited_table, table_axes) == pytest.approx(
        0.0, abs=1e-8)


def test_mixture_purity(ground_table, excited_table, table_axes):
    mixed = table_sums(0.5 * ground_table + 0.5 * excited_table, table_axes, P)
    assert mixed.integral == pytest.approx(1.0, abs=1e-6)
    assert mixed.purity == pytest.approx(0.5, abs=1e-6)


def test_first_excited_is_negative_at_origin(excited, excited_table):
    Wq = QuadratureWigner(excited, P)
    # the n=1 state dips to exactly -1/(pi hbar)^2 at the origin
    assert Wq.at(0.0, 0.0, 0.0, 0.0) == pytest.approx(-SCALE, rel=1e-13)
    assert excited_table.min() < -0.09 / P.hbar**2


@pytest.mark.parametrize("p", [
    NCParams(m=1.0, omega=1.0, theta=0.3, hbar=0.7),
    NCParams(m=1.3, omega=0.8, theta=-0.7, hbar=1.6)])
def test_quadrature_prefactor_away_from_unit_hbar(p):
    # (pi hbar)^2 and pi^2 hbar agree at hbar = 1 only
    scale = (math.pi * p.hbar) ** 2
    grid = momentum_grid(p, 65, 8.0)
    X, PX, PY = np.meshgrid(grid[0][8:57:4], np.linspace(-1.5, 1.5, 7),
                            grid[1][8:57:4], indexing="ij")
    vq = QuadratureWigner(eigenfunction(0, 0, p, grid), p).at(X, 0.0, PX, PY)
    vc = GroundStateWigner(p).at(X, 0.0, PX, PY)
    assert np.abs(vq - vc).max() * scale < 1e-12
    # the parity value of the (1, 1) state
    w0 = QuadratureWigner(eigenfunction(1, 1, p, grid), p).at(0.0, 0.0, 0.0,
                                                              0.0)
    assert w0 * scale == pytest.approx(-1.0, abs=1e-12)


def test_purity_away_from_unit_hbar():
    # (2 pi hbar)^2 and (2 pi)^2 hbar agree at hbar = 1 only; the first
    # parameter set above, streamed through small y and p_x axes
    p = NCParams(m=1.0, omega=1.0, theta=0.3, hbar=0.7)
    grid = momentum_grid(p, 65, 8.0)
    side = uniform_axis(-4.8, 4.8, 25) * math.sqrt(p.hbar)
    axes = (grid[0], side, side.copy(), grid[1])
    rows = quadrature_rows(QuadratureWigner(eigenfunction(0, 0, p, grid), p),
                           axes)
    sums = table_sums(rows, axes, p)
    assert sums.integral == pytest.approx(1.0, abs=1e-6)
    assert sums.purity == pytest.approx(1.0, abs=1e-6)


def test_displaced_closed_form_matches_quadrature(ground):
    # complex factors: the pairing w_lk = conj(w_kl) holds for them too
    d = (0.6, -0.4, 0.3, 0.5)
    Wq = QuadratureWigner(_displaced_gaussian(ground.axes, d, P), P)
    Wc = wigner_ground_state(P, center=d)
    pts = np.random.default_rng(11).uniform(-1.5, 1.5, (40, 4)).T
    assert np.abs(Wq.at(*pts) - Wc.at(*pts)).max() < 1e-13 * SCALE


def test_displaced_overlap_matches_inner_product(ground, ground_table,
                                                 table_axes):
    d = (0.9, -0.5, 0.4, 0.6)
    disp = _displaced_gaussian(ground.axes, d, P)
    fidelity = abs(ground.inner(disp)) ** 2
    tab_d = wigner_table(QuadratureWigner(disp, P), table_axes)
    assert overlap(ground_table, tab_d, table_axes) == pytest.approx(
        fidelity, abs=1e-6)


def test_center_accepts_phase_point():
    z = PhasePoint(0.3, -0.2, 0.1, 0.4)
    W1 = wigner_ground_state(P, center=z)
    W2 = wigner_ground_state(P, center=(0.3, -0.2, 0.1, 0.4))
    assert W1.at(1.0, 1.0, 0.0, 0.0) == W2.at(1.0, 1.0, 0.0, 0.0)
    # the displacement is z - center, bit for bit
    assert W1.at(1.0, 1.0, 0.0, 0.0) == wigner_ground_state(P).at(
        1.0 - 0.3, 1.0 + 0.2, 0.0 - 0.1, 0.0 - 0.4)


@pytest.mark.parametrize("center, message", [
    ((0.3, math.nan, 0.1, 0.4), "coordinate y is not finite"),
    ((0.3, -0.2, 0.1), "4 coordinates"),
    ((0.3, -0.2, 0.1, 0.4, 0.0), "4 coordinates")])
def test_bad_center_is_rejected_at_construction(center, message):
    # a NaN center gave NaN everywhere; a wrong length failed only in at
    with pytest.raises(ValueError, match=message):
        GroundStateWigner(P, center=center)


@pytest.mark.parametrize("t", (math.nan, math.inf, -math.inf))
def test_evolved_wigner_rejects_a_non_finite_time(t):
    # NaN used to give NaN at every point, inf NaN with RuntimeWarnings
    with pytest.raises(ValueError, match="t must be finite"):
        EvolvedWigner(GroundStateWigner(P), P, t)


def test_liouville_stationary_ground_state():
    W0 = wigner_ground_state(P)
    rng = np.random.default_rng(5)
    zs = rng.uniform(-2.0, 2.0, (50, 4))
    for t in (0.7, 1.7, 4.1):
        Wt = evolve_liouville(W0, P, t)
        assert np.abs(Wt.at(*zs.T) - W0.at(*zs.T)).max() < 1e-8


def test_ground_state_depends_only_on_conserved_charges():
    # exponent reduces to a combination of the energy and the deformed
    # angular momentum, which is why the state is flow-invariant
    W0 = wigner_ground_state(P)
    weff = P.w_eff
    u = (P.m * P.omega * P.theta) ** 2 / 4
    rng = np.random.default_rng(6)
    x, y, px, py = rng.uniform(-2.0, 2.0, (4, 60))
    H = (px**2 + py**2) / (2 * P.m) + 0.5 * P.m * P.omega**2 * (x**2 + y**2)
    Jcl = x * py - y * px + 0.5 * P.theta * (px**2 + py**2)
    form = np.exp(-2 * H / (P.hbar * weff * (1 + u))
                  - P.m * weff * P.theta * Jcl / P.hbar) / (math.pi * P.hbar)**2
    assert np.abs(W0.at(x, y, px, py) - form).max() < 1e-12


def test_liouville_equation_from_bracket():
    # d/dt at t=0 of the transported distribution equals {H, W}
    d = (0.6, -0.4, 0.3, 0.5)
    Wd = wigner_ground_state(P, center=d)
    Hf = oscillator_hamiltonian(P)
    Wf = ScalarField(lambda x, y, px, py, t: Wd.at(x, y, px, py), "W")
    rng = np.random.default_rng(7)
    dt = 1e-6
    for z in rng.uniform(-1.0, 1.0, (50, 4)):
        lhs = (evolve_liouville(Wd, P, dt).at(*z)
               - evolve_liouville(Wd, P, -dt).at(*z)) / (2 * dt)
        rhs = bracket_field(Hf, Wf, P.theta).value(PhasePoint(*z))
        assert abs(lhs - rhs) < 1e-5


def test_flow_matrix_preserves_volume():
    for p in (P, P_FREE):
        for t in (0.4, 1.9, 7.3):
            M = flow_matrix(p, t)
            assert abs(np.linalg.det(M) - 1.0) < 1e-10
            Mi = flow_matrix(p, -t)
            assert np.abs(Mi @ M - np.eye(4)).max() < 1e-10


def average(tab, axes, A):
    """Plain phase-space average integral W(z) A(z) d^4 z over a table;
    A broadcasts over (x, y, px, py)."""
    z = np.meshgrid(*axes, indexing="ij", sparse=True)
    return integrate(A(*z) * tab, axes)


def test_free_flow_shears_position_variance():
    W0 = wigner_ground_state(P)
    t = 1.3
    Wt = evolve_liouville(W0, P_FREE, t)
    axq = uniform_axis(-9.0, 9.0, 49)
    axp = uniform_axis(-5.0, 5.0, 49)
    axes = (axq, axq, axp, axp)
    tab = wigner_table(Wt, axes)
    weff = P.w_eff
    var0 = P.hbar / (2 * P.m * weff) + P.theta**2 * P.m * P.hbar * weff / 8
    expect = var0 + (t / P.m) ** 2 * (P.m * P.hbar * weff / 2)
    sums = table_sums(tab, axes, P)
    assert sums.integral == pytest.approx(1.0, abs=1e-6)
    assert sums.purity == pytest.approx(1.0, abs=1e-6)
    assert average(tab, axes, lambda x, y, px, py: x**2) == pytest.approx(
        expect, rel=1e-6)


def test_expectation_unit_and_odd_moments(ground_table, table_axes):
    assert average(ground_table, table_axes,
                   lambda x, y, px, py: 1.0 + 0 * x) == \
        pytest.approx(1.0, abs=1e-6)
    for mono in (lambda x, y, px, py: x,
                 lambda x, y, px, py: y * px**2,
                 lambda x, y, px, py: py**3):
        assert abs(average(ground_table, table_axes, mono)) < 1e-7


def test_commutative_energy_expectation():
    p0 = NCParams(m=1.0, omega=1.0, theta=0.0)
    W = wigner_ground_state(p0)
    ax = uniform_axis(-6.0, 6.0, 61)
    axes = (ax, ax, ax, ax)
    tab = wigner_table(W, axes)
    H = oscillator_hamiltonian(p0)
    assert average(tab, axes, lambda *z: H.fn(*z, 0.0)) == pytest.approx(
        p0.hbar * p0.omega, rel=1e-5)


def test_quadrature_requires_known_factors(ground):
    # the factor sum reads the factors off the grid: a grid function, or a
    # separable state known only by its samples, cannot serve
    for psi in (ground.grid(), Separable(ground.X, ground.Y, ground.c,
                                         ground.axes)):
        with pytest.raises(WignerError, match="factors off its grid"):
            QuadratureWigner(psi, P)


def test_table_validation(ground, ground_table, table_axes):
    with pytest.raises(WignerError):
        wigner_table(QuadratureWigner(ground, P), table_axes[:3])
    # table_sums checks each row against the axes, and the row count
    for rows in (np.zeros((2, 2, 2, 2)), ground_table[:, :, :, :-1],
                 ground_table[:-1], [*ground_table, ground_table[0]],
                 ground_table[0]):
        with pytest.raises(WignerError):
            table_sums(rows, table_axes, P)
    with pytest.raises(WignerError, match="four axes"):
        table_sums(ground_table, table_axes[:3], P)


def test_wild_arguments_match_the_closed_form(ground):
    # the (x, p_y) quadrature refused these with an AliasingError; the
    # factor sum refines its step to h / 8 for them and stays exact
    Wq, Wc = QuadratureWigner(ground, P), GroundStateWigner(P)
    assert abs(Wq.at(0.0, 40.0, 0.0, 0.0)) < 1e-13 * SCALE
    wide = uniform_axis(-40.0, 40.0, 21)
    axes = (ground.axes[0][::4], wide, wide, ground.axes[1][::4])
    assert np.abs(wigner_table(Wq, axes) - wigner_table(Wc, axes)).max() \
        < 1e-13 * SCALE
    # hundreds of widths out the refinement would pass MAX_OFFSETS
    with pytest.raises(AliasingError, match=f"limit {MAX_OFFSETS}"):
        Wq.at(0.0, 1e4, 0.0, 0.0)


def test_table_step_resolves_the_sheared_y():
    # on 33 nodes (step 0.497) the y - theta p_x = 3.75 of this table needs
    # the step halved, where y + theta p_x = 2.85 would not: unrefined, the
    # trapezoid sum folds Y onto Y - pi hbar / h = -2.57
    grid = momentum_grid(P, 33, 8.0)
    Wq = QuadratureWigner(eigenfunction(0, 0, P, grid), P)
    axes = (np.array([0.0, 0.4]), np.array([3.3]), np.array([-3.0]),
            np.array([0.0, 0.3]))
    assert np.abs(wigner_table(Wq, axes)
                  - wigner_table(GroundStateWigner(P), axes)).max() \
        < 1e-13 * SCALE


def test_evolved_wigner_composes():
    d = (0.5, 0.0, -0.3, 0.2)
    Wd = wigner_ground_state(P, center=d)
    once = evolve_liouville(evolve_liouville(Wd, P, 0.9), P, 0.6)
    direct = evolve_liouville(Wd, P, 1.5)
    rng = np.random.default_rng(9)
    zs = rng.uniform(-1.5, 1.5, (30, 4))
    assert np.abs(once.at(*zs.T) - direct.at(*zs.T)).max() < 1e-12
