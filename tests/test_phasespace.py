"""Deformed bracket, field gradients, Jacobi identity, Galilei algebra.

The independent oracle for gradients is central finite differences on the
plain (float) field evaluations; brackets are then cross-checked against
the dual-number path.
"""

import itertools
import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncplane import (
    DivergenceError,
    Dual,
    NCParams,
    PhasePoint,
    ScalarField,
    bracket_field,
    galilei_generators,
    verify_algebra,
    sample_points,
    FieldEvaluationError,
    hamiltonian_flow,
    oscillator_hamiltonian,
)
from ncplane import duals, phasespace
from ncplane.wigner import GroundStateWigner


X = ScalarField(lambda x, y, px, py, t: x, "x")
Y = ScalarField(lambda x, y, px, py, t: y, "y")
PX = ScalarField(lambda x, y, px, py, t: px, "px")
PY = ScalarField(lambda x, y, px, py, t: py, "py")


def jacobi_residual(f, g, h, z, theta, t=0.0):
    """{f,{g,h}} - {{f,g},h} - {g,{f,h}} at (z, t), nested bracket_field."""
    b = lambda u, v: bracket_field(u, v, theta)
    return (b(f, b(g, h)).value(z, t) - b(b(f, g), h).value(z, t)
            - b(g, b(f, h)).value(z, t))


def fd_gradient(f, z, t=0.0, h=6e-6):
    c = np.array(astuple(z) if isinstance(z, PhasePoint) else z, dtype=float)
    g = np.zeros(4)
    for i in range(4):
        hi = h * max(1.0, abs(c[i]))
        zp = c.copy(); zp[i] += hi
        zm = c.copy(); zm[i] -= hi
        g[i] = (f.fn(*zp, t) - f.fn(*zm, t)) / (2 * hi)
    return g


def fd_bracket(f, g, z, theta, t=0.0):
    df, dg = fd_gradient(f, z, t), fd_gradient(g, z, t)
    s = df[0] * dg[2] + df[1] * dg[3] - df[2] * dg[0] - df[3] * dg[1]
    return s + theta * (df[0] * dg[1] - df[1] * dg[0])


Z1 = PhasePoint(0.4, -1.1, 0.8, 2.3)


def test_gradient_matches_fd():
    f = ScalarField(lambda x, y, px, py, t: x * px ** 2 - 3.0 * y * py + x * y * px)
    assert np.allclose(f.partials(*astuple(Z1)), fd_gradient(f, Z1), atol=1e-8)


def test_gradient_of_a_boost_reads_the_time():
    # k1 = m x - px t + m theta py carries t in its px slope
    p = NCParams(m=1.5, theta=0.4)
    K1 = galilei_generators(p)[4]
    assert K1.partials(*astuple(Z1), 2.0) == [1.5, 0.0, -2.0, 1.5 * 0.4]
    assert K1.partials(*astuple(Z1)) == [1.5, 0.0, 0.0, 1.5 * 0.4]


def test_coordinate_brackets():
    p = NCParams(theta=0.7)
    # the deformation lives entirely in the position-position bracket
    assert bracket_field(X, Y, p.theta).value(Z1) == pytest.approx(0.7, abs=0)
    assert bracket_field(X, PX, p.theta).value(Z1) == 1.0
    assert bracket_field(Y, PY, p.theta).value(Z1) == 1.0
    assert bracket_field(X, PY, p.theta).value(Z1) == 0.0
    assert bracket_field(PX, PY, p.theta).value(Z1) == 0.0
    assert bracket_field(Y, X, p.theta).value(Z1) == -0.7


def test_angular_momentum_literal():
    # J = x py - y px + (theta/2)(px^2 + py^2) at (0,0,1,0), theta=2 -> 1.0
    p = NCParams(theta=2.0)
    _, _, _, J, _, _ = galilei_generators(p)
    assert J.value(PhasePoint(0.0, 0.0, 1.0, 0.0)) == 1.0


def test_bracket_antisymmetry_and_bilinearity():
    p = NCParams(theta=0.4)
    fn = lambda x, y, px, py, t: x * x * py + y * px
    gn = lambda x, y, px, py, t: px * py - 2.0 * x * y
    f, g = ScalarField(fn), ScalarField(gn)
    ab = bracket_field(f, g, p.theta).value(Z1)
    assert bracket_field(g, f, p.theta).value(Z1) == pytest.approx(-ab, rel=1e-15)
    h2 = ScalarField(lambda *z: 2.5 * fn(*z) + gn(*z))
    lhs = bracket_field(h2, g, p.theta).value(Z1)
    assert lhs == pytest.approx(2.5 * ab + 0.0, rel=1e-13, abs=1e-13)


def test_leibniz_rule():
    p = NCParams(theta=-0.3)
    f = ScalarField(lambda x, y, px, py, t: x * py - y * y)
    gn = lambda x, y, px, py, t: px + 2.0 * y
    hn = lambda x, y, px, py, t: x * px * py
    g, h = ScalarField(gn), ScalarField(hn)
    gh = ScalarField(lambda *z: gn(*z) * hn(*z))
    lhs = bracket_field(f, gh, p.theta).value(Z1)
    rhs = (bracket_field(f, g, p.theta).value(Z1) * h.value(Z1)
           + g.value(Z1) * bracket_field(f, h, p.theta).value(Z1))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_bracket_matches_fd_oracle():
    theta = 0.6
    f = ScalarField(lambda x, y, px, py, t: x * x * y + px * py ** 2)
    g = ScalarField(lambda x, y, px, py, t: y * px - x * py + x ** 3)
    want = fd_bracket(f, g, Z1, theta)
    got = bracket_field(f, g, theta).value(Z1)
    assert got == pytest.approx(want, rel=1e-7, abs=1e-7)


def test_jacobi_identity_polynomials():
    p = NCParams(m=1.5, theta=0.9)
    H, P1, P2, J, K1, K2 = galilei_generators(p)
    for trip in [(J, K1, H), (K1, K2, J), (H, J, K2), (P1, J, K1)]:
        r = jacobi_residual(*trip, Z1, p.theta, t=0.8)
        assert abs(r) < 1e-10


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
       st.floats(-1, 1))
@settings(max_examples=50, deadline=None)
def test_jacobi_identity_random_quadratics(a, b, c, d, theta):
    f = ScalarField(lambda x, y, px, py, t: a * x * px + b * y * y)
    g = ScalarField(lambda x, y, px, py, t: c * px * py + d * x * y)
    h = ScalarField(lambda x, y, px, py, t: x * py + a * px * px)
    r = jacobi_residual(f, g, h, Z1, theta=theta)
    assert abs(r) < 1e-9


def test_bracket_field_nests():
    # {x, {x, J}} probes second derivatives through the nested field
    p = NCParams(theta=0.5)
    _, _, _, J, _, _ = galilei_generators(p)
    inner = bracket_field(X, J, p.theta)
    outer = bracket_field(X, inner, p.theta)
    # {x, J} = dJ/dpx + theta dJ/dy = (-y + theta px) - theta px = -y,
    # so {x, {x, J}} = {x, -y} = -theta
    assert inner.value(Z1) == pytest.approx(-Z1.y, rel=1e-15)
    assert outer.value(Z1) == pytest.approx(-p.theta, rel=1e-13)


def test_verify_algebra_grid():
    for m in (1.0, 2.0):
        for theta in (0.0, 0.5, -0.3):
            p = NCParams(m=m, theta=theta)
            rep = verify_algebra(p, tol=1e-9)
            assert rep.ok, (m, theta, rep.residuals)
            assert rep.max_residual() < 1e-9


def _worst_over_times(p, samples, generators=None):
    """Per relation, the larger pointwise residual of t = 0 and t = 1.3."""
    r0, r1 = (_pointwise_algebra(p, t, samples, generators) for t in (0.0, 1.3))
    return {k: max(v, r1[k]) for k, v in r0.items()}


def test_verify_algebra_time_dependence():
    # boost generators depend on t explicitly; both sampled times must pass
    p = NCParams(m=2.0, theta=0.5)
    rep = verify_algebra(p)
    assert rep.ok
    assert rep.residuals == _worst_over_times(p, sample_points(100))


def test_verify_algebra_sees_a_wrong_time_coefficient(monkeypatch):
    # k1 = m x - 2 px t + m theta py: {J, k1} = k2 holds at t = 0 only
    right = phasespace.galilei_generators

    def wrong_boost(p):
        m, th = p.m, p.theta
        K1 = ScalarField(
            lambda x, y, px, py, t: m * x - 2.0 * px * t + m * th * py, "k1")
        return right(p)[:4] + (K1,) + right(p)[5:]

    monkeypatch.setattr(phasespace, "galilei_generators", wrong_boost)
    p = NCParams(m=1.5, theta=0.4)
    rows = {name: ok for name, _, ok in verify_algebra(p).rows()}
    assert rows["{J,k_i}=eps_ij k_j"] is False

    # each generator plus eps times each coordinate in turn breaks some
    # relation; every residual equals the loop's, and each case of the
    # relation table sets its relation's residual under one of these, so a
    # dropped case shows
    points = sample_points(20)
    for i, f in enumerate(right(p)):
        for c in range(4):
            bent = ScalarField(lambda *z, f=f, c=c: f.fn(*z) + 1e-6 * z[c], f.name)
            generators = right(p)[:i] + (bent,) + right(p)[i + 1:]
            monkeypatch.setattr(phasespace, "galilei_generators",
                                lambda p, g=generators: g)
            rep = verify_algebra(p, samples=points)
            assert rep.ok is False, (f.name, c)
            assert rep.residuals == _worst_over_times(p, points, generators)


def _per_case_lambdas(p, samples):
    """verify_algebra as it was written before the relation table: one
    lambda per right-hand side, an eps table and a zero helper."""
    Z = np.array([astuple(z) for z in samples], dtype=float).T
    Z, t = np.tile(Z, 2), np.repeat((0.0, 1.3), len(samples))
    m, th = p.m, p.theta
    H, P1, P2, J, K1, K2 = galilei_generators(p)
    Ps, Ks = (P1, P2), (K1, K2)
    eps = ((0.0, 1.0), (-1.0, 0.0))
    zero = lambda z, t: 0.0
    relations = {
        "{p_i,H}=0": [(Pi, H, zero) for Pi in Ps],
        "{p_i,p_j}=0": [(P1, P2, zero)],
        "{J,H}=0": [(J, H, zero)],
        "{J,p_i}=eps_ij p_j": [
            (J, P1, lambda z, t: eps[0][1] * P2.value(z, t)),
            (J, P2, lambda z, t: eps[1][0] * P1.value(z, t))],
        "{k_j,H}=p_j": [(Kj, H, lambda z, t, Pj=Pj: Pj.value(z, t))
                        for Kj, Pj in zip(Ks, Ps)],
        "{k_j,p_i}=m delta_ji": [
            (Ks[j], Ps[i], lambda z, t, d=(m if i == j else 0.0): d)
            for j in range(2) for i in range(2)],
        "{J,k_i}=eps_ij k_j": [
            (J, K1, lambda z, t: eps[0][1] * K2.value(z, t)),
            (J, K2, lambda z, t: eps[1][0] * K1.value(z, t))],
        "{k_i,k_j}=-m^2 theta eps_ij": [(K1, K2, lambda z, t: -m * m * th)],
    }
    return {name: max(float(np.max(np.abs(
        bracket_field(f, g, th).value(Z, t) - rhs(Z, t)))) for f, g, rhs in cases)
        for name, cases in relations.items()}


@pytest.mark.parametrize("n", (7, 100))
def test_verify_algebra_equals_the_per_case_lambdas(n):
    # the selftest's six (m, theta) sets; 1.0 * x, -1.0 * x and - 0.0 are
    # exact, so the table gives the same floats as one lambda per case
    samples = sample_points(n)
    for m in (1.0, 2.0):
        for theta in (0.0, 0.5, -0.3):
            p = NCParams(m=m, theta=theta)
            want = _per_case_lambdas(p, samples)
            assert list(want) == [
                "{p_i,H}=0", "{p_i,p_j}=0", "{J,H}=0", "{J,p_i}=eps_ij p_j",
                "{k_j,H}=p_j", "{k_j,p_i}=m delta_ji", "{J,k_i}=eps_ij k_j",
                "{k_i,k_j}=-m^2 theta eps_ij"]
            got = verify_algebra(p, samples=samples).residuals
            assert list(got.items()) == list(want.items())


def test_sample_points_deterministic():
    a = sample_points(10, seed=123)
    b = sample_points(10, seed=123)
    assert all(pa == pb for pa, pb in zip(a, b))
    c = sample_points(10, seed=124)
    assert any(pa != pb for pa, pb in zip(a, c))


def test_theta_zero_reduces_to_canonical():
    f = ScalarField(lambda x, y, px, py, t: x * y + px * y)
    g = ScalarField(lambda x, y, px, py, t: y * py - x * px)
    p0 = NCParams(theta=0.0)
    canonical = fd_bracket(f, g, Z1, 0.0)
    assert bracket_field(f, g, p0.theta).value(Z1) == pytest.approx(canonical, rel=1e-7)


def test_nonfinite_field_value_raises():
    bad = ScalarField(lambda x, y, px, py, t: 1e308 * (px + 1e308))
    with pytest.raises(FieldEvaluationError):
        bad.value(Z1)


def test_phase_point_validation():
    with pytest.raises(ValueError):
        PhasePoint(float("nan"), 0.0, 0.0, 0.0)
    # sample points hold Python floats, not numpy scalars
    z = sample_points(1)[0]
    assert [type(v) for v in astuple(z)] == [float] * 4


def test_params_validation():
    with pytest.raises(ValueError):
        NCParams(m=0.0)
    with pytest.raises(ValueError):
        NCParams(hbar=-1.0)
    p = NCParams(omega=0.0)
    with pytest.raises(ValueError):
        p.require_omega()


# --- the dual gradient against finite differences and through whole flows ---

def _rational(x, y, px, py, t):
    # + - * / with their reflected forms, unary +/-, int and float powers;
    # x seeds both sides of the first quotient
    a = (x * y - 2.0 * px) / (1.5 + py * py + x * x) - x / 3
    b = 3.0 / (2.0 + x * x) - (0.5 - y) * px ** 3 + (2.0 + y * y) ** -2
    c = -(px * t) + 1 - (1.0 + py * py) ** 1.5 / (x * x + 1.0) + +py
    return a + b * c * 0.25 + 2 * x ** 0 - 1 / (3.0 + y * px * px)


def _transcendental(x, y, px, py, t):
    # nested so that no pair collapses (expm1(log1p(u)) would be u)
    return (duals.exp(0.3 * px - duals.log1p(x * x)) - duals.expm1(0.2 * x * y)
            + duals.log(1.0 + y * y + duals.exp(0.5 * (py - t)))
            + duals.log1p(px * px) * duals.expm1(0.4 * duals.log(2.0 + py * py))
            + duals.log1p(duals.exp(x - py)) * duals.exp(-duals.expm1(-y * y)))


_W = GroundStateWigner(NCParams(m=1.3, omega=0.8, theta=0.3, hbar=0.9),
                       center=(0.2, -0.1, 0.3, 0.05))

ORACLE_FIELDS = (
    ScalarField(_rational, "rational"),
    ScalarField(_transcendental, "transcendental"),
    ScalarField(lambda x, y, px, py, t: _W.at(x, y, px, py), "W"),
    oscillator_hamiltonian(NCParams(theta=0.3)),
    ScalarField(lambda x, y, px, py, t: 2.5, "2.5"),
) + galilei_generators(NCParams(m=1.5, theta=0.9))


@pytest.mark.parametrize("point", ((0.4, -1.1, 0.8, 2.3, 0.7),
                                   (-1.7, 0.0, 2.9, -0.6, 0.0)))
def test_partials_match_fd_for_every_oracle_field(point):
    for f in ORACLE_FIELDS:
        got = f.partials(*point)
        assert np.allclose(got, fd_gradient(f, point[:4], point[4]),
                           rtol=1e-7, atol=1e-8), f.name


def test_partials_lift_an_outer_dual_to_a_constant():
    # d/dy (x y) at x = Dual(2, 1) is x itself, still dual in the outer
    # seed; without the lift the outer seed would leak in and give 5.0
    xy = ScalarField(lambda x, y, px, py, t: x * y, "xy")
    dy = xy.partials(Dual(2.0, 1.0), 3.0, 0.0, 0.0)[1]
    assert isinstance(dy, Dual)
    assert (dy.val, dy.eps) == (2.0, 1.0)


def _oracle_flow(H, z0, t1, dt, theta):
    """The RK4 path of dynamics.hamiltonian_flow from t = 0, with the dual
    gradient H.partials evaluated at every stage (the flow itself reads a
    linear gradient map once)."""
    n = max(1, round(t1 / dt))
    h = t1 / n
    half, sixth = 0.5 * h, h / 6.0

    def rhs(x, y, px, py, t):
        hx, hy, hpx, hpy = H.partials(x, y, px, py, t)
        return hpx + theta * hy, hpy - theta * hx, -hx, -hy

    x, y, px, py = z0
    path, t = [(x, y, px, py)], 0.0
    for k in range(n):
        a1, b1, c1, d1 = rhs(x, y, px, py, t)
        a2, b2, c2, d2 = rhs(x + half * a1, y + half * b1,
                             px + half * c1, py + half * d1, t + half)
        a3, b3, c3, d3 = rhs(x + half * a2, y + half * b2,
                             px + half * c2, py + half * d2, t + half)
        a4, b4, c4, d4 = rhs(x + h * a3, y + h * b3, px + h * c3, py + h * d3, t + h)
        x += sixth * (a1 + 2.0 * (a2 + a3) + a4)
        y += sixth * (b1 + 2.0 * (b2 + b3) + b4)
        px += sixth * (c1 + 2.0 * (c2 + c3) + c4)
        py += sixth * (d1 + 2.0 * (d2 + d3) + d4)
        if not all(map(math.isfinite, (x, y, px, py))):
            raise DivergenceError(t)
        t = (k + 1) * h
        path.append((x, y, px, py))
    return np.array(path)


def test_rk4_flow_equals_four_pass_oracle_at_ensemble_settings():
    p = NCParams(m=1.0, omega=1.0, hbar=1.0, theta=0.3)
    H = oscillator_hamiltonian(p)
    for z0 in np.random.default_rng(3).normal(0.0, 1.5, size=(3, 4)).tolist():
        traj = hamiltonian_flow(H, z0, 0.0, 0.5, 1e-3, p)
        assert np.array_equal(traj.points, _oracle_flow(H, z0, 0.5, 1e-3, 0.3))


@pytest.mark.parametrize("m,omega,theta", [(1.0, 1.0, 0.3), (1.3, 0.8, 0.7),
                                           (1.0, 1.0, -0.4), (2.0, 0.0, 0.5),
                                           (0.7, 1.9, 1e-3), (1.0, 1.0, 0.0)])
def test_rk4_flow_on_the_gradient_map_equals_four_pass_oracle(m, omega, theta):
    # the flow reads grad H once as a linear map; every stage must still
    # match the per-stage dual gradient bit for bit, numpy-float starts too
    p = NCParams(m=m, omega=omega, theta=theta)
    H = oscillator_hamiltonian(p)
    rows = np.random.default_rng(11).normal(0.0, 1.5, size=(2, 4))
    for z0 in (rows[0].tolist(), rows[1]):      # Python and numpy floats
        traj = hamiltonian_flow(H, z0, 0.0, 0.3, 1e-2, p)
        want = _oracle_flow(H, z0, 0.3, 1e-2, theta)
        assert np.array_equal(traj.points, want)
        assert np.array_equal(np.signbit(traj.points), np.signbit(want))


@pytest.mark.parametrize("t1", (1e-2, 1.0))
def test_flow_reads_the_gradient_seven_times_at_any_step_count(t1, monkeypatch):
    # five reads build the map, two check it at the start and the end
    calls = []
    partials = ScalarField.partials

    def counted(self, *args):
        calls.append(self.name)
        return partials(self, *args)

    monkeypatch.setattr(ScalarField, "partials", counted)
    p = NCParams(theta=0.3)
    traj = hamiltonian_flow(oscillator_hamiltonian(p), Z1, 0.0, t1, 1e-3, p)
    assert len(traj) - 1 == round(t1 / 1e-3)
    assert calls == ["H_osc"] * 7


def test_jacobi_residuals_equal_four_pass_oracle():
    p = NCParams(m=1.5, theta=0.9)

    def bracket(f, g):
        def fn(x, y, px, py, t):
            fx, fy, fpx, fpy = f.partials(x, y, px, py, t)
            gx, gy, gpx, gpy = g.partials(x, y, px, py, t)
            return (fx * gpx + fy * gpy - fpx * gx - fpy * gy
                    + p.theta * (fx * gy - fy * gx))
        return ScalarField(fn)

    for f, g, h in itertools.combinations(galilei_generators(p), 3):
        for z in (Z1, PhasePoint(-0.3, 2.0, -1.2, 0.6)):
            want = (bracket(f, bracket(g, h)).value(z, 0.8)
                    - bracket(bracket(f, g), h).value(z, 0.8)
                    - bracket(g, bracket(f, h)).value(z, 0.8))
            assert jacobi_residual(f, g, h, z, p.theta, t=0.8) == want


def test_nonfinite_gradients_still_raise():
    # an RK4 step past its stability limit; at (m, omega) = (0.5, 2) both k
    # and 1/(2m) are 1, so the dual lane k (x + x) and the map's 2k x
    # overflow on the same step
    z0 = (1.0, 0.0, 1.0, 0.0)
    for theta in (0.0, 0.3):
        p = NCParams(m=0.5, omega=2.0, theta=theta)
        H = oscillator_hamiltonian(p)
        with pytest.raises(DivergenceError) as got:
            hamiltonian_flow(H, z0, 0.0, 1e4, 1.5, p)
        with pytest.raises(DivergenceError) as want:
            _oracle_flow(H, z0, 1e4, 1.5, theta)
        assert got.value.t_last == want.value.t_last
    huge = ScalarField(lambda x, y, px, py, t: 1e300 * x * x * py, "huge")
    with pytest.raises(FieldEvaluationError):
        bracket_field(huge, X, 0.0).value((1e10, 0.0, 0.0, 1.0))


# --- one array pass against a loop over points ---------------------------------

ARRAY_Z = np.random.default_rng(7).uniform(-3.0, 3.0, size=(4, 200))


def _columns(Z):
    return [PhasePoint(*col) for col in Z.T.tolist()]


@pytest.mark.parametrize("theta", (0.0, 0.3, -1.1))
def test_brackets_on_arrays_equal_pointwise_values(theta):
    p = NCParams(m=1.3, omega=0.8, theta=theta)
    fields = galilei_generators(p) + (oscillator_hamiltonian(p),)
    # each seed of a doubly nested bracket reruns both inner gradients, so
    # those are compared on every 4th column only
    every, fourth = ARRAY_Z, ARRAY_Z[:, ::4]
    for f, g in itertools.combinations(fields, 2):
        fg = bracket_field(f, g, theta)
        for b, Z in ((fg, every), (bracket_field(fg, g, theta), fourth),
                     (bracket_field(f, fg, theta), fourth)):
            for t in (0.0, 1.3):
                got = np.broadcast_to(b.value(Z, t), Z.shape[1:])
                want = [b.value(z, t) for z in _columns(Z)]
                assert np.array_equal(got, want), (b.name, t)


def _pointwise_algebra(p, t, samples, generators=None):
    """The Galilei relations, one scalar bracket per sample point, for
    galilei_generators(p) or the given six fields."""
    m, th = p.m, p.theta
    H, P1, P2, J, K1, K2 = generators or galilei_generators(p)
    neg = lambda f: ScalarField(lambda *z: -1.0 * f.fn(*z))
    relations = {
        "{p_i,H}=0": [(P1, H, None), (P2, H, None)],
        "{p_i,p_j}=0": [(P1, P2, None)],
        "{J,H}=0": [(J, H, None)],
        "{J,p_i}=eps_ij p_j": [(J, P1, P2), (J, P2, neg(P1))],
        "{k_j,H}=p_j": [(K1, H, P1), (K2, H, P2)],
        "{k_j,p_i}=m delta_ji": [(K1, P1, m), (K1, P2, 0.0),
                                 (K2, P1, 0.0), (K2, P2, m)],
        "{J,k_i}=eps_ij k_j": [(J, K1, K2), (J, K2, neg(K1))],
        "{k_i,k_j}=-m^2 theta eps_ij": [(K1, K2, -m * m * th)],
    }
    out = {}
    for name, cases in relations.items():
        worst = 0.0
        for f, g, rhs in cases:
            for z in samples:
                want = (0.0 if rhs is None else rhs if isinstance(rhs, float)
                        else rhs.value(z, t))
                worst = max(worst, abs(bracket_field(f, g, th).value(z, t) - want))
        out[name] = worst
    return out


@pytest.mark.parametrize("m, theta", [(1.0, 0.0), (2.0, 0.5), (1.3, -0.3)])
def test_verify_algebra_equals_a_loop_over_samples(m, theta):
    p = NCParams(m=m, theta=theta)
    points = sample_points(40, seed=5)
    rows = np.array([astuple(z) for z in points])
    want = _worst_over_times(p, points)
    assert verify_algebra(p, samples=points).residuals == want
    assert verify_algebra(p, samples=rows).residuals == want


@pytest.mark.parametrize("n", (7, 100))
def test_verify_algebra_differentiates_once_per_bracket(n, monkeypatch):
    # 15 brackets over eight relations, two partials passes each
    calls = []
    partials = ScalarField.partials

    def counted(self, *args):
        calls.append(self.name)
        return partials(self, *args)

    monkeypatch.setattr(ScalarField, "partials", counted)
    verify_algebra(NCParams(m=1.5, theta=0.4), samples=sample_points(n))
    assert len(calls) == 30


def _first_pointwise_error(f, Z, t=0.0):
    for z in _columns(Z):
        try:
            f.value(z, t)
        except FieldEvaluationError as exc:
            return str(exc)
    raise AssertionError("no sample fails")


def test_array_value_errors_name_the_first_bad_sample():
    # a constant bracket that overflows: m^2 at m = 1e200
    K1, K2 = galilei_generators(NCParams(m=1e200, theta=0.5))[4:]
    k12 = bracket_field(K1, K2, 0.5)
    # a field that overflows only at the middle sample
    Z = ARRAY_Z[:, :9].copy()
    Z[0, 4] = 1e10
    huge = ScalarField(lambda x, y, px, py, t: 1e300 * x * x, "huge")
    for f, pts in ((k12, ARRAY_Z), (huge, Z)):
        with pytest.raises(FieldEvaluationError) as got:
            f.value(pts)
        assert str(got.value) == _first_pointwise_error(f, pts)
    assert "x=10000000000.0" in _first_pointwise_error(huge, Z)


def test_array_overflow_is_reported_not_warned():
    # numpy warns on overflow where Python floats stay silent; value()
    # reports the non-finite result itself
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FieldEvaluationError, match=r"field '\{J,k1\}' returned nan"):
            verify_algebra(NCParams(m=1e308, theta=0.1), samples=sample_points(20))
