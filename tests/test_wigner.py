"""Wigner transform, tables, mixed-state tables, and Liouville transport.

The quadrature evaluator is checked against the closed Gaussian form,
marginals against |psi|^2 in all three bases (computed by the basis
transforms, an independent code path), overlaps of two tables (a plain
trapezoid sum here) against wave-function inner products, and the
evolution against the deformed bracket.
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
from ncplane.grids import GridFunction, trapezoid_weights, uniform_axis
from ncplane.spectra import (
    AliasingError,
    eigenfunction,
    momentum_grid,
    transform,
)
from ncplane.wigner import (
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


def _like(g, values):
    """A grid function with g's axes and basis and new values."""
    return GridFunction(g.axis1, g.axis2, values, g.basis)
P_FREE = NCParams(m=1.0, omega=0.0, theta=0.3)     # the free flow


@pytest.fixture(scope="module")
def ground_xpy():
    psi_p = eigenfunction(0, 0, P, momentum_grid(P, 65, 8.0)).grid()
    return transform(psi_p, "xpy", P)


@pytest.fixture(scope="module")
def excited_xpy():
    psi_p = eigenfunction(1, 1, P, momentum_grid(P, 65, 8.0)).grid()
    return transform(psi_p, "xpy", P)


@pytest.fixture(scope="module")
def table_axes(ground_xpy):
    side = uniform_axis(-4.8, 4.8, 41)
    return (ground_xpy.axis1, side, side.copy(), ground_xpy.axis2)


@pytest.fixture(scope="module")
def ground_table(ground_xpy, table_axes):
    return wigner_table(QuadratureWigner(ground_xpy, P), table_axes)


@pytest.fixture(scope="module")
def excited_table(excited_xpy, table_axes):
    return wigner_table(QuadratureWigner(excited_xpy, P), table_axes)


def integrate(values, axes):
    """Plain trapezoid integral of a table over dx dy dpx dpy."""
    w = [trapezoid_weights(a) for a in axes]
    return float(np.einsum("i,j,k,l,ijkl->", *w, values))


def overlap(a, b, axes):
    """(2 pi hbar)^2 integral W1 W2, |<psi1|psi2>|^2 for two pure states."""
    return (2.0 * math.pi * P.hbar) ** 2 * integrate(a * b, axes)


def _displaced_gaussian(psi0, d, p):
    """Ground state displaced by d = (x, y, px, py) in phase space."""
    a, al, b = d[0], d[2], d[3]
    be = p.theta * d[2] - d[1]
    weff = p.w_eff
    s2 = p.m * p.hbar * weff
    X, PY = np.meshgrid(psi0.axis1, psi0.axis2, indexing="ij")
    U = (X - a) + 0.5 * p.theta * (PY - b)
    base = ((s2 / (math.pi * p.hbar**2)) ** 0.25
            * np.exp(-U**2 * s2 / (2 * p.hbar**2))
            * np.exp(-(PY - b)**2 / (2 * s2)) / (math.pi * s2) ** 0.25)
    return _like(psi0, base * np.exp(1j * (al * X + be * PY) / p.hbar))


def test_ground_state_peak_literal():
    W = wigner_ground_state(P)
    assert W.at(0.0, 0.0, 0.0, 0.0) == pytest.approx(
        1.0 / (math.pi * P.hbar) ** 2, rel=1e-15)


def test_quadrature_matches_closed_form_on_slices(ground_xpy):
    Wq = QuadratureWigner(ground_xpy, P)
    Wc = wigner_ground_state(P)
    pxs = np.linspace(-2.5, 2.5, 41)
    X, PX = np.meshgrid(ground_xpy.axis1, pxs, indexing="ij")
    assert np.abs(Wq.at(X, 0.0, PX, 0.0) - Wc.at(X, 0.0, PX, 0.0)).max() < 1e-8
    ys = np.linspace(-2.0, 2.0, 31)
    Y, PY = np.meshgrid(ys, ground_xpy.axis2, indexing="ij")
    x0 = ground_xpy.axis1[32]
    assert np.abs(Wq.at(x0, Y, 0.37, PY) - Wc.at(x0, Y, 0.37, PY)).max() < 1e-8


def test_table_matches_pointwise_quadrature_without_reflection_symmetry():
    # a parity mix with a momentum kick: psi(-x, -py) is no multiple of
    # psi(x, py), so a reversed or shifted correlation window shows here
    pgrid = momentum_grid(P, 33, 8.0)
    mix = eigenfunction(2, 2, P, pgrid).grid()
    mix = _like(mix, mix.values
                + 0.5 * eigenfunction(1, 1, P, pgrid).grid().values)
    psi = transform(mix, "xpy", P,
                    axes=(uniform_axis(-4.5, 4.5, 33), mix.axis2))
    psi = _like(psi, psi.values
                * np.exp(0.9j * psi.axis1[:, None] / P.hbar))
    Wq = QuadratureWigner(psi, P)
    axes = (psi.axis1, uniform_axis(-1.5, 1.2, 4), uniform_axis(-0.8, 1.1, 3),
            psi.axis2)
    tab = wigner_table(Wq, axes)
    pointwise = Wq.at(*np.meshgrid(*axes, indexing="ij"))
    scale = 1.0 / (math.pi * P.hbar) ** 2
    assert np.abs(tab).max() > 0.1 * scale
    assert np.abs(tab - pointwise).max() < 1e-12 * scale


def _excited_state(nodes):
    psi_p = eigenfunction(1, 1, P, momentum_grid(P, nodes, 8.0)).grid()
    return transform(psi_p, "xpy", P)


def test_readme_slice_reaches_the_last_x_node():
    # 256 nodes put py = 0 halfway between nodes: the README's own query
    psi = _excited_state(256)
    Wq = QuadratureWigner(psi, P)
    vals = Wq.at(psi.axis1[-1], 0.0, np.linspace(-2.5, 2.5, 41), 0.0)
    assert np.all(np.isfinite(vals))
    assert np.abs(vals).max() <= 1.0 / (math.pi * P.hbar) ** 2


def test_readme_slice_computes_its_phases_once(monkeypatch):
    # the `wigner` command's slice on 65 nodes: every x node, 41 p_x
    psi = _excited_state(65)
    Wq = QuadratureWigner(psi, P)
    xs, pxs = psi.axis1, np.linspace(-4.0 * P.width, 4.0 * P.width, 41)
    phases, calls = QuadratureWigner._phases, []

    def counted(self, px, u):
        calls.append(px.size)
        return phases(self, px, u)

    monkeypatch.setattr(QuadratureWigner, "_phases", counted)
    vals = Wq.at(xs[:, None], 0.0, pxs[None, :], 0.0)
    assert calls == [41]
    # one query per pair rebuilds the phases each time, to the same bits
    loop = np.array([Wq.at(x, 0.0, pxs, 0.0) for x in xs])
    assert len(calls) == 1 + xs.size
    assert np.array_equal(vals, loop)
    # -0.0 and 0.0 columns hold different bytes: no reuse across them
    del calls[:]
    Wq.at(xs[:2, None], 0.0, np.array([[0.0], [-0.0]]), 0.0)
    assert calls == [1, 1]


def test_pointwise_matches_table_at_every_x_node_of_64():
    # on 64 nodes (x - x_0)/h lands just below the node index at 60 of
    # the 64 x nodes; each must snap onto its node
    psi = _excited_state(64)
    Wq = QuadratureWigner(psi, P)
    axes = (psi.axis1, uniform_axis(-1.0, 1.0, 3), uniform_axis(-0.9, 0.6, 3),
            psi.axis2)
    tab = wigner_table(Wq, axes)
    cols = np.arange(0, 64, 9)
    X, Y, PX, PY = np.meshgrid(axes[0], axes[1], axes[2], axes[3][cols],
                               indexing="ij")
    scale = 1.0 / (math.pi * P.hbar) ** 2
    assert np.abs(tab).max() > 0.1 * scale
    assert np.abs(Wq.at(X, Y, PX, PY) - tab[..., cols]).max() \
        < 1e-12 * scale


def test_pointwise_vanishes_off_the_state_grid(excited_xpy):
    Wq = QuadratureWigner(excited_xpy, P)
    x, py = excited_xpy.axis1, excited_xpy.axis2
    assert Wq.at(x[-1] + 1.0, 0.0, 0.1, py[3]) == 0.0
    assert Wq.at(x[5], 0.0, 0.1, py[-1] + 0.5 * excited_xpy.step2) == 0.0
    assert Wq.at(x[0] - 0.3, 0.2, -0.1, py[7]) == 0.0
    assert Wq.at(x[9], 0.2, -0.1, py[0] - 2.0) == 0.0
    # in- and off-grid queries mix in one call
    vals = Wq.at(np.array([x[-1] + 1.0, 0.0]), 0.0, 0.0, 0.0)
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(-1.0 / (math.pi * P.hbar) ** 2, rel=1e-8)


def _oracle(psi, x, y, px, py):
    """Trapezoid double sum of the defining integral, term by term.

    The state product psi(x' - zeta, py' - eta) psi*(x' + zeta, py' + eta)
    is read at the four (x', py') nodes around the query, zero off the
    grid, and weighted bilinearly.
    """
    nx, ny = psi.values.shape
    h1, h2 = psi.step1, psi.step2
    fi = (x - psi.axis1[0]) / h1
    fj = (py - psi.axis2[0]) / h2
    i, j = int(math.floor(fi + 1e-9)), int(math.floor(fj + 1e-9))
    fx, fy = max(fi - i, 0.0), max(fj - j, 0.0)
    corners = [(i, j, (1 - fx) * (1 - fy)), (i + 1, j, fx * (1 - fy)),
               (i, j + 1, (1 - fx) * fy), (i + 1, j + 1, fx * fy)]

    def amp(a, b):
        inside = 0 <= a < nx and 0 <= b < ny
        return complex(psi.values[a, b]) if inside else 0j

    total = 0j
    for k in range(-(nx - 1), nx):
        wk = 0.5 if abs(k) == nx - 1 else 1.0
        for l in range(-(ny - 1), ny):
            wl = 0.5 if abs(l) == ny - 1 else 1.0
            prod = sum(w * amp(a - k, b - l) * amp(a + k, b + l).conjugate()
                       for a, b, w in corners)
            phase = cmath.exp(2j * (k * h1 * px - l * h2 * (y - P.theta * px))
                              / P.hbar)
            total += wk * wl * phase * prod
    total *= h1 * h2 / (math.pi * P.hbar) ** 2
    assert abs(total.imag) < 1e-14 / P.hbar ** 2
    return total.real


@pytest.fixture(scope="module")
def kicked_mix():
    """A 19 x 17 parity mix with a momentum kick: it has no reflection
    symmetry, so a reversed or shifted correlation window shows."""
    pgrid = momentum_grid(P, 33, 8.0)
    mix = eigenfunction(2, 2, P, pgrid).grid()
    mix = _like(mix, mix.values
                + 0.5 * eigenfunction(1, 1, P, pgrid).grid().values)
    psi = transform(mix, "xpy", P,
                    axes=(uniform_axis(-3.6, 3.6, 19), mix.axis2))
    return GridFunction(psi.axis1, psi.axis2[::2],
                        psi.values[:, ::2]
                        * np.exp(0.9j * psi.axis1[:, None] / P.hbar), "xpy")


def test_pointwise_matches_term_by_term_oracle(kicked_mix):
    psi = kicked_mix
    Wq = QuadratureWigner(psi, P)
    h1, h2 = psi.step1, psi.step2
    queries = [(psi.axis1[9], 0.3, 0.4, psi.axis2[8]),
               (psi.axis1[7], -0.6, 0.9, psi.axis2[10]),
               (psi.axis1[0], 0.1, -0.2, psi.axis2[16]),
               (psi.axis1[8] + 0.37 * h1, -0.2, 0.5, psi.axis2[9]),
               (psi.axis1[11], 0.7, -0.3, psi.axis2[6] + 0.61 * h2),
               (psi.axis1[6] + 0.25 * h1, 0.0, 0.8, psi.axis2[12] + 0.8 * h2),
               (psi.axis1[17] + 0.5 * h1, 0.4, 0.2, psi.axis2[15] + 0.3 * h2)]
    scale = 1.0 / (math.pi * P.hbar) ** 2
    got = Wq.at(*np.array(queries).T)
    expect = np.array([_oracle(psi, *q) for q in queries])
    assert np.abs(expect).max() > 0.1 * scale
    assert np.abs(got - expect).max() < 1e-13 * scale


def test_queries_within_tolerance_snap_onto_edge_nodes():
    # a state that is large on its edges: a query 1e-10 steps outside an
    # edge node must read that node, not the zero beyond the grid
    rng = np.random.default_rng(4)
    vals = rng.normal(size=(9, 7)) + 1j * rng.normal(size=(9, 7))
    psi = GridFunction(uniform_axis(-2.0, 2.0, 9), uniform_axis(-1.5, 1.5, 7),
                       vals, "xpy")
    Wq = QuadratureWigner(psi, P)
    x, py, h1, h2 = psi.axis1, psi.axis2, psi.step1, psi.step2
    for xn, pyn, dx, dpy in ((x[-1], py[2], 1e-10 * h1, 0.0),
                             (x[0], py[4], -1e-10 * h1, 0.0),
                             (x[3], py[-1], 0.0, 1e-10 * h2),
                             (x[5], py[0], 0.0, -1e-10 * h2),
                             (x[-1], py[1] + 0.5 * h2, 1e-10 * h1, 0.0)):
        on = Wq.at(xn, 0.2, 0.3, pyn)
        assert abs(on) > 1e-3
        assert Wq.at(xn + dx, 0.2, 0.3, pyn + dpy) == pytest.approx(
            on, rel=1e-14)


@pytest.mark.parametrize("nx, ny", [(9, 7), (8, 6)])
def test_half_lattice_offsets_lose_no_term(nx, ny):
    # random states that are large on their edges: the offsets stop at
    # (n - 1) // 2, and the term-by-term oracle runs over the full lattice
    rng = np.random.default_rng(nx * ny)
    vals = rng.normal(size=(nx, ny)) + 1j * rng.normal(size=(nx, ny))
    psi = GridFunction(uniform_axis(-2.0, 2.0, nx),
                       uniform_axis(-1.5, 1.5, ny), vals, "xpy")
    Wq = QuadratureWigner(psi, P)
    ya, pxa = np.array([-0.4, 0.7]), np.array([-0.5, 0.9])
    tab = wigner_table(Wq, (psi.axis1, ya, pxa, psi.axis2))
    expect = np.array([[[[_oracle(psi, x, y, px, py) for py in psi.axis2]
                         for px in pxa] for y in ya] for x in psi.axis1])
    scale = 1.0 / (math.pi * P.hbar) ** 2
    assert np.abs(expect).max() > 0.1 * scale
    assert np.abs(tab - expect).max() < 1e-13 * scale

    x, py, h1, h2 = psi.axis1, psi.axis2, psi.step1, psi.step2
    queries = [(x[0], 0.3, 0.4, py[2]), (x[-1], -0.6, 0.9, py[-1]),
               (x[0] + 0.4 * h1, 0.1, -0.2, py[1] + 0.7 * h2),
               (x[-2] + 0.7 * h1, 0.5, 0.2, py[-1]),
               (x[nx // 2] + 0.5 * h1, -0.2, 0.6, py[0] + 0.3 * h2)]
    got = Wq.at(*np.array(queries).T)
    expect = np.array([_oracle(psi, *q) for q in queries])
    assert np.abs(got - expect).max() < 1e-13 * scale


@pytest.mark.parametrize("coord", range(4))
def test_non_finite_query_names_its_coordinate(ground_xpy, table_axes, coord):
    Wq = QuadratureWigner(ground_xpy, P)
    name = ("x", "y", "p_x", "p_y")[coord]
    for bad in (math.nan, math.inf):
        q = [0.0, 0.0, 0.0, 0.0]
        q[coord] = bad
        with pytest.raises(WignerError, match=f"non-finite {name} "):
            Wq.at(*q)
    if coord in (1, 2):
        axes = list(table_axes)
        axes[coord] = np.array([0.0, math.nan])
        with pytest.raises(WignerError, match=f"non-finite {name} "):
            wigner_table(Wq, axes)


def test_empty_query_returns_empty_array_of_its_shape(ground_xpy):
    Wq = QuadratureWigner(ground_xpy, P)
    assert Wq.at(np.array([]), 0.0, 0.0, 0.0).shape == (0,)
    got = Wq.at(np.zeros((3, 1)), 0.0, np.zeros((1, 0)), 0.0)
    assert got.shape == (3, 0) and got.dtype == float


def test_empty_table_axis_gives_empty_table(ground_xpy, table_axes):
    Wq = QuadratureWigner(ground_xpy, P)
    for k in (1, 2):
        axes = list(table_axes)
        axes[k] = np.array([])
        tab = wigner_table(Wq, axes)
        assert tab.shape[k] == 0 and tab.size == 0


def test_table_realness_check_catches_a_tilted_kernel(ground_xpy, table_axes,
                                                      monkeypatch):
    contract = QuadratureWigner._contract

    def tilted(self, M, A, F):
        return contract(self, 1j * M, A, F)

    monkeypatch.setattr(QuadratureWigner, "_contract", tilted)
    with pytest.raises(CheckFailure, match="transform lost realness"):
        wigner_table(QuadratureWigner(ground_xpy, P), table_axes)


def test_streamed_realness_check_catches_a_tilted_kernel(ground_xpy,
                                                         table_axes,
                                                         monkeypatch):
    contract = QuadratureWigner._contract

    def tilted(self, M, A, F):
        return contract(self, 1j * M, A, F)

    monkeypatch.setattr(QuadratureWigner, "_contract", tilted)
    rows = quadrature_rows(QuadratureWigner(ground_xpy, P), table_axes)
    with pytest.raises(CheckFailure, match="transform lost realness"):
        table_sums(rows, table_axes, P)


def test_table_holds_one_table_sized_array(ground_xpy, table_axes):
    # the realness scale is a running maximum, not |W| over the whole table
    Wq = QuadratureWigner(ground_xpy, P)
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


def test_marginals_match_densities(ground_table, ground_xpy, table_axes):
    _, ya, pxa, _ = table_axes
    sums = table_sums(ground_table, table_axes, P)
    m = sums.marginal("xpy")
    assert np.abs(m.values - np.abs(ground_xpy.values) ** 2).max() < 1e-6
    psi_p = transform(ground_xpy, "p", P, axes=(pxa, ground_xpy.axis2))
    m = sums.marginal("p")
    assert np.abs(m.values - np.abs(psi_p.values) ** 2).max() < 1e-6
    psi_ypx = transform(ground_xpy, "ypx", P, axes=(ya, pxa))
    m = sums.marginal("ypx")
    assert np.abs(m.values - np.abs(psi_ypx.values) ** 2).max() < 1e-6
    with pytest.raises(WignerError):
        sums.marginal("q")


def test_excited_marginals_too(excited_table, excited_xpy, table_axes):
    m = table_sums(excited_table, table_axes, P).marginal("xpy")
    assert np.abs(m.values - np.abs(excited_xpy.values) ** 2).max() < 1e-6


def test_streamed_sums_equal_the_stored_table_sums(ground_xpy, ground_table,
                                                   table_axes):
    streamed = table_sums(quadrature_rows(QuadratureWigner(ground_xpy, P),
                                          table_axes), table_axes, P)
    stored = table_sums(ground_table, table_axes, P)
    assert streamed.integral == stored.integral
    assert streamed.purity == stored.purity
    for keep in ("xpy", "ypx", "p"):
        assert np.array_equal(streamed.marginal(keep).values,
                              stored.marginal(keep).values)


def test_table_values_equal_the_row_by_row_fill(ground_xpy, table_axes):
    # the fill loop as it stood before the rows became a stream, kept as
    # the oracle the streamed table must match bit for bit
    W = QuadratureWigner(ground_xpy, P)
    xa, ya, pxa, pya = table_axes
    A, F = W._phases(pxa, W._guard(xa, ya[None, :], pxa[:, None], pya))
    (nx, ny), K = ground_xpy.values.shape, W._K
    M = np.empty((2 * K + 1, ny, 2 * W._L + 1), dtype=complex)
    expect = np.empty((nx, len(ya), len(pxa), ny))
    for i in range(nx):
        r = min(i, nx - 1 - i)
        S = W._contract(W._corr(i, slice(None), M[:2 * r + 1], r),
                        A[:, K - r:K + r + 1], F)
        expect[i] = np.transpose(S.real, (2, 0, 1))
    assert np.array_equal(wigner_table(W, table_axes), expect)


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


def test_first_excited_is_negative_at_origin(excited_xpy, excited_table):
    Wq = QuadratureWigner(excited_xpy, P)
    # the n=1 state dips to exactly -1/(pi hbar)^2 at the origin
    assert Wq.at(0.0, 0.0, 0.0, 0.0) == pytest.approx(
        -1.0 / (math.pi * P.hbar) ** 2, rel=1e-8)
    assert excited_table.min() < -0.09 / P.hbar**2


@pytest.mark.parametrize("p", [
    NCParams(m=1.0, omega=1.0, theta=0.3, hbar=0.7),
    NCParams(m=1.3, omega=0.8, theta=-0.7, hbar=1.6)])
def test_quadrature_prefactor_away_from_unit_hbar(p):
    # (pi hbar)^2 and pi^2 hbar agree at hbar = 1 only.  Queries sit on the
    # state's (x, p_y) nodes: off them the bilinear fallback misses by 1e-2
    scale = (math.pi * p.hbar) ** 2
    grid = momentum_grid(p, 65, 8.0)
    ground = transform(eigenfunction(0, 0, p, grid).grid(), "xpy", p)
    X, PX, PY = np.meshgrid(ground.axis1[8:57:4], np.linspace(-1.5, 1.5, 7),
                            ground.axis2[8:57:4], indexing="ij")
    vq = QuadratureWigner(ground, p).at(X, 0.0, PX, PY)
    vc = GroundStateWigner(p).at(X, 0.0, PX, PY)
    assert np.abs(vq - vc).max() * scale < 1e-12
    # the parity value of the (1, 1) state
    excited = transform(eigenfunction(1, 1, p, grid).grid(), "xpy", p)
    w0 = QuadratureWigner(excited, p).at(0.0, 0.0, 0.0, 0.0)
    assert w0 * scale == pytest.approx(-1.0, abs=1e-12)


def test_purity_away_from_unit_hbar():
    # (2 pi hbar)^2 and (2 pi)^2 hbar agree at hbar = 1 only; the first
    # parameter set above, streamed through small y and p_x axes
    p = NCParams(m=1.0, omega=1.0, theta=0.3, hbar=0.7)
    psi = transform(eigenfunction(0, 0, p, momentum_grid(p, 65, 8.0)).grid(),
                    "xpy", p)
    side = uniform_axis(-4.8, 4.8, 25) * math.sqrt(p.hbar)
    axes = (psi.axis1, side, side.copy(), psi.axis2)
    sums = table_sums(quadrature_rows(QuadratureWigner(psi, p), axes), axes, p)
    assert sums.integral == pytest.approx(1.0, abs=1e-6)
    assert sums.purity == pytest.approx(1.0, abs=1e-6)


def test_displaced_closed_form_matches_quadrature(ground_xpy):
    d = (0.6, -0.4, 0.3, 0.5)
    disp = _displaced_gaussian(ground_xpy, d, P)
    Wq = QuadratureWigner(disp, P)
    Wc = wigner_ground_state(P, center=d)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.5, 1.5, (40, 4))
    ii = np.argmin(np.abs(ground_xpy.axis1[None, :] - pts[:, 0:1]), axis=1)
    jj = np.argmin(np.abs(ground_xpy.axis2[None, :] - pts[:, 3:4]), axis=1)
    xs, pys = ground_xpy.axis1[ii], ground_xpy.axis2[jj]
    vq = Wq.at(xs, pts[:, 1], pts[:, 2], pys)
    vc = Wc.at(xs, pts[:, 1], pts[:, 2], pys)
    assert np.abs(vq - vc).max() < 1e-10


def test_displaced_overlap_matches_inner_product(ground_xpy, ground_table,
                                                 table_axes):
    d = (0.9, -0.5, 0.4, 0.6)
    disp = _displaced_gaussian(ground_xpy, d, P)
    fidelity = abs(ground_xpy.inner(disp)) ** 2
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


def test_bilinear_fallback_off_nodes(ground_xpy):
    Wq = QuadratureWigner(ground_xpy, P)
    Wc = wigner_ground_state(P)
    h1, h2 = ground_xpy.step1, ground_xpy.step2
    x = ground_xpy.axis1[30] + 0.37 * h1
    py = ground_xpy.axis2[34] + 0.61 * h2
    got = Wq.at(x, 0.2, -0.4, py)
    expect = Wc.at(x, 0.2, -0.4, py)
    # interpolation of the state is second order in the grid step
    assert abs(got - expect) < 5e-3 / P.hbar**2
    assert abs(got - expect) > 1e-12


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


def test_quadrature_requires_xpy_basis():
    psi_p = eigenfunction(0, 0, P, momentum_grid(P, 33, 8.0)).grid()
    with pytest.raises(WignerError):
        QuadratureWigner(psi_p, P)


def test_table_validation(ground_xpy, ground_table, table_axes):
    Wq = QuadratureWigner(ground_xpy, P)
    bad = (uniform_axis(-1.0, 1.0, 11),) + table_axes[1:]
    with pytest.raises(WignerError):
        wigner_table(Wq, bad)
    with pytest.raises(WignerError):
        wigner_table(Wq, table_axes[:3])
    # table_sums checks each row against the axes, and the row count
    for rows in (np.zeros((2, 2, 2, 2)), ground_table[:, :, :, :-1],
                 ground_table[:-1], [*ground_table, ground_table[0]],
                 ground_table[0]):
        with pytest.raises(WignerError):
            table_sums(rows, table_axes, P)
    with pytest.raises(WignerError, match="four axes"):
        table_sums(ground_table, table_axes[:3], P)


def test_alias_guard_rejects_wild_arguments(ground_xpy):
    Wq = QuadratureWigner(ground_xpy, P)
    with pytest.raises(AliasingError):
        Wq.at(0.0, 40.0, 0.0, 0.0)
    wide = uniform_axis(-40.0, 40.0, 21)
    with pytest.raises(AliasingError):
        wigner_table(Wq, (ground_xpy.axis1, wide, wide, ground_xpy.axis2))



def test_evolved_wigner_composes(ground_xpy):
    d = (0.5, 0.0, -0.3, 0.2)
    Wd = wigner_ground_state(P, center=d)
    once = evolve_liouville(evolve_liouville(Wd, P, 0.9), P, 0.6)
    direct = evolve_liouville(Wd, P, 1.5)
    rng = np.random.default_rng(9)
    zs = rng.uniform(-1.5, 1.5, (30, 4))
    assert np.abs(once.at(*zs.T) - direct.at(*zs.T)).max() < 1e-12
