"""Einstein-solid thermodynamics: closed forms vs direct sums and duals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncplane import spectra, thermo
from ncplane.duals import Dual
from ncplane.params import CheckFailure, NCParams
from ncplane.thermo import ThermoParams


P = NCParams(m=1.3, omega=0.9, theta=0.4)
TP = ThermoParams(nc=P, N=3)


def _tp(theta, m=1.0, omega=1.0, N=1, hbar=1.0, kB=1.0):
    return ThermoParams(nc=NCParams(m=m, omega=omega, theta=theta,
                                    hbar=hbar, kB=kB), N=N)


def test_level_scales_literals():
    # m = omega = hbar = 1, theta = 2: u = 1, so a = sqrt(2), b = 1
    p = NCParams(m=1.0, omega=1.0, theta=2.0)
    a, b = p.a, p.b
    assert a == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert b == pytest.approx(1.0, rel=1e-15)


def test_level_scale_identity():
    # a^2 - b^2 = (hbar omega)^2 regardless of theta
    for theta in (0.0, 0.7, 2.5, -1.2):
        p = NCParams(m=1.7, omega=0.6, theta=theta, hbar=0.9)
        a, b = p.a, p.b
        assert a * a - b * b == pytest.approx((p.hbar * p.omega) ** 2, rel=1e-14)


def test_partition_matches_direct_sum_on_grid():
    temps = np.logspace(math.log10(0.1), math.log10(5.0), 20)
    thetas = np.linspace(0.0, 2.0, 20)
    for theta in thetas:
        tp = _tp(float(theta))
        for T in temps:
            z = thermo.thermo_point(float(T), tp).Z1
            zd = thermo.partition_single_direct(float(T), tp)
            assert abs(z - zd) <= 1e-12 * zd


def test_partition_direct_sum_low_temperature_branch():
    # a beta ~ 40 exercises the scaled logarithm
    tp = _tp(0.5)
    T = 0.025
    z = thermo.thermo_point(T, tp).Z1
    zd = thermo.partition_single_direct(T, tp)
    assert abs(z - zd) <= 1e-12 * zd
    assert thermo._closed_forms(T, tp)[0] == pytest.approx(math.log(zd),
                                                           rel=1e-12)


def _scalar_level_sum(T, tp, tol=1e-14):
    """The oracle as a plain Python loop over (n, two_j), one level at a time."""
    a, b = tp.nc.a, tp.nc.b
    beta = 1.0 / (tp.nc.kB * T)
    n_max = math.ceil(math.log(1.0 / tol) / (beta * (a - abs(b)))) + 10
    return math.fsum(math.exp(-beta * spectra.energy(n, two_j, tp.nc))
                     for n in range(n_max + 1)
                     for two_j in range(-n, n + 1, 2))


@pytest.mark.parametrize("T, theta", [
    (1.0, -0.7),     # b < 0
    (0.025, 0.5),    # low-temperature branch of the closed form
    (5.0, 2.0),      # n_max ~ 400
    (0.7, 0.0),
])
def test_partition_direct_matches_scalar_level_loop(T, theta):
    tp = _tp(theta)
    ref = _scalar_level_sum(T, tp)
    assert abs(thermo.partition_single_direct(T, tp) - ref) <= 1e-15 * ref


def test_commutative_partition_geometric_form():
    # theta = 0 reduces to two modes: Z1 = x / (1 - x)^2 with x = e^{-beta hw}
    tp = _tp(0.0, m=2.0, omega=1.5, hbar=0.7)
    for T in (0.2, 0.9, 3.0):
        x = math.exp(-tp.nc.hbar * tp.nc.omega / (tp.nc.kB * T))
        assert thermo.thermo_point(T, tp).Z1 == pytest.approx(
            x / (1.0 - x) ** 2, rel=1e-14)


def test_commutative_internal_energy_coth_form():
    tp = _tp(0.0, m=2.0, omega=1.5, hbar=0.7, N=4)
    for T in (0.3, 1.1):
        half = tp.nc.hbar * tp.nc.omega / (2.0 * tp.nc.kB * T)
        expected = tp.N * tp.nc.hbar * tp.nc.omega / math.tanh(half)
        assert thermo.thermo_point(T, tp).U == pytest.approx(expected,
                                                             rel=1e-13)


def test_partition_even_in_theta():
    for T in (0.2, 1.0, 3.0):
        for theta in (0.5, 1.7):
            zp = thermo.thermo_point(T, _tp(theta)).Z1
            zm = thermo.thermo_point(T, _tp(-theta)).Z1
            assert abs(zp - zm) <= 1e-12 * zp
    # ln Z1, U, S and Cv bit for bit, on both sides of the low-T switch
    for T in (0.02, 0.5):
        for theta in (0.5, 1.7):
            assert (thermo._closed_forms(T, _tp(theta))
                    == thermo._closed_forms(T, _tp(-theta)))


def test_high_temperature_internal_energy():
    p, tp = P, TP
    for T in (50.0, 200.0):
        lead = 2.0 * tp.N * p.kB * T
        corr = (p.hbar ** 2 * p.omega ** 2 * tp.N
                * (2.0 + p.m ** 2 * p.omega ** 2 * p.theta ** 2)
                / (12.0 * p.kB * T))
        U = thermo.thermo_point(T, tp).U
        assert abs(U - (lead + corr)) <= 1e-6 * U


def test_low_temperature_internal_energy():
    # U/N -> a = hbar omega sqrt(1 + (m omega theta)^2 / 4)
    p, tp = P, TP
    u = (p.m * p.omega * p.theta) ** 2 / 4.0
    a = p.hbar * p.omega * math.sqrt(1.0 + u)
    for T in (0.01, 0.005):
        U = thermo.thermo_point(T, tp).U
        assert U / tp.N == pytest.approx(a, rel=1e-10)


def _dual_forms(T0):
    # the kernel differentiated in T: (ln Z1, U, S, Cv) as dual numbers
    return thermo._closed_forms(Dual(T0, 1.0), TP)


def test_entropy_matches_dual_derivative_of_free_energy():
    for T0 in (0.02, 0.11, 0.7, 4.6, 40.0):
        A = -TP.N * P.kB * Dual(T0, 1.0) * _dual_forms(T0)[0]
        s = thermo.thermo_point(T0, TP).S
        assert s == pytest.approx(-A.eps, rel=1e-9, abs=1e-12)


def test_heat_capacity_matches_dual_derivative_of_energy():
    for T0 in (0.11, 0.7, 4.6, 40.0, 500.0):
        dc = _dual_forms(T0)[1].eps
        assert thermo.thermo_point(T0, TP).Cv == pytest.approx(dc, rel=1e-9)


def test_heat_capacity_equals_T_dS_dT():
    for T0 in (0.2, 0.9, 3.7, 25.0):
        ds = _dual_forms(T0)[2].eps
        assert thermo.thermo_point(T0, TP).Cv == pytest.approx(T0 * ds,
                                                               rel=1e-8)


def test_heat_capacity_nonnegative_and_equipartition():
    for T in np.logspace(-4, 4, 60):
        assert thermo.thermo_point(float(T), TP).Cv >= 0.0
    # 2 quadratic coordinate + 2 momentum modes per site
    assert thermo.thermo_point(1e4, TP).Cv == pytest.approx(
        2.0 * TP.N * P.kB, rel=1e-6)


def test_entropy_vanishes_at_zero_and_grows():
    assert 0.0 <= thermo.thermo_point(1e-3, TP).S < 1e-12
    assert thermo.thermo_point(1e-4, TP).S == 0.0
    Ts = np.logspace(-2, 2, 40)
    Ss = [thermo.thermo_point(float(T), TP).S for T in Ts]
    assert all(b >= a for a, b in zip(Ss, Ss[1:]))


def test_entropy_increases_with_theta_at_low_temperature():
    h = 1e-5
    for T in (0.1, 0.2):
        for theta in (0.3, 1.0):
            sp = thermo.thermo_point(T, _tp(theta + h)).S
            sm = thermo.thermo_point(T, _tp(theta - h)).S
            assert (sp - sm) / (2.0 * h) > 0.0


def test_free_energy_sign_and_scaling_in_N():
    a1 = thermo.thermo_point(0.8, _tp(0.3, N=1)).A
    a5 = thermo.thermo_point(0.8, _tp(0.3, N=5)).A
    assert a5 == pytest.approx(5.0 * a1, rel=1e-14)


def test_thermo_point_fields_consistent():
    pt = thermo.thermo_point(0.9, TP)
    assert pt.T == 0.9 and pt.theta == P.theta
    lnZ, U, S, Cv = thermo._closed_forms(0.9, TP)
    assert (pt.Z1, pt.U, pt.S, pt.Cv) == (math.exp(lnZ), U, S, Cv)
    assert pt.A == -TP.N * P.kB * 0.9 * lnZ
    assert pt.S_per_NkB == pytest.approx(pt.S / (TP.N * P.kB), rel=1e-15)
    assert pt.U == pytest.approx(pt.A + pt.T * pt.S, rel=1e-12)


def test_thermo_point_rejects_inconsistent_rows():
    with pytest.raises(CheckFailure):
        thermo.ThermoPoint(T=1.0, theta=0.0, Z1=1.0, A=1.0, S=1.0,
                           U=5.0, Cv=1.0, S_per_NkB=1.0)
    with pytest.raises(CheckFailure):
        thermo.ThermoPoint(T=1.0, theta=0.0, Z1=1.0, A=1.0, S=1.0,
                           U=2.0, Cv=-1.0, S_per_NkB=1.0)


def test_thermo_point_evaluates_the_kernel_once(monkeypatch):
    calls = []
    kernel = thermo._closed_forms
    monkeypatch.setattr(thermo, "_closed_forms",
                        lambda T, tp: calls.append(T) or kernel(T, tp))
    thermo.thermo_point(0.9, TP)
    assert calls == [0.9]
    thermo.entropy_sweep([0.5, 1.0, 2.0], TP, thetas=[0.0, 0.5])
    assert len(calls) == 1 + 6


def test_entropy_sweep_rows_and_theta_cross():
    rows = thermo.entropy_sweep([0.5, 1.0], TP, thetas=[0.0, 0.5])
    assert [(r.T, r.theta) for r in rows] == [
        (0.5, 0.0), (1.0, 0.0), (0.5, 0.5), (1.0, 0.5)]
    # every other parameter, N included, is carried over from TP
    want = ThermoParams(nc=NCParams(m=1.3, omega=0.9, theta=0.5), N=3)
    assert rows[3] == thermo.thermo_point(1.0, want)


def test_parameter_validation():
    with pytest.raises(ValueError):
        ThermoParams(nc=P, N=0)
    with pytest.raises(ValueError):
        ThermoParams(nc=P, N=1.5)
    with pytest.raises(ValueError):
        ThermoParams(nc=P, N=True)
    with pytest.raises(ValueError):
        thermo.thermo_point(0.0, TP)
    with pytest.raises(ValueError):
        thermo.thermo_point(-1.0, TP)
    with pytest.raises(ValueError):
        ThermoParams(nc=NCParams(m=1.0, omega=0.0, theta=0.1))


@pytest.mark.parametrize("T", [math.nan, math.inf])
def test_non_finite_temperature_is_rejected(T):
    # nan passed the positivity test and gave an all-NaN row; inf raised a
    # bare "math domain error"
    message = f"temperature must be positive and finite, got .*{T}"
    with pytest.raises(ValueError, match=message):
        thermo.thermo_point(T, TP)
    with pytest.raises(ValueError, match=message):
        thermo._closed_forms(Dual(T, 1.0), TP)
    with pytest.raises(ValueError, match=message):
        thermo.entropy_sweep([0.5, T], TP, thetas=[0.0])
    # a finite dual temperature still differentiates
    assert thermo._closed_forms(Dual(0.7, 1.0), TP)[2].eps > 0.0


@pytest.mark.parametrize("T", [1e-300, 1e-299, 1e-163, 1e-160])
def test_zero_temperature_limit_where_kB_T_squared_underflows(T):
    # kB T^2 underflows below about 1.5e-162, where Cv = num / (kB T^2)
    # was 0 / 0; the row is the T -> 0 limit that T = 1e-160 already gave
    row = thermo.thermo_point(T, TP)
    a = TP.nc.a
    assert (row.Cv, row.S, row.S_per_NkB, row.Z1) == (0.0, 0.0, 0.0, 0.0)
    assert row.U == TP.N * a
    assert thermo._closed_forms(T, TP)[3] == 0.0


def test_underflowing_kB_T_is_a_value_error():
    # beta = 1 / (kB T) was a ZeroDivisionError at kB T = 0 and inf just above
    for kB, T in ((1e-300, 1e-30), (1e-300, 1e-10)):
        with pytest.raises(ValueError, match=r"kB\*T = .* underflows"):
            thermo.thermo_point(T, _tp(0.3, kB=kB))
    # kB T finite but kB T^2 underflowing while Cv's numerator has not
    with pytest.raises(ValueError, match=r"kB\*T\*T underflows"):
        thermo.thermo_point(1e-320, _tp(0.3, kB=1e300, hbar=1e-18))


@settings(max_examples=60, deadline=None)
@given(T=st.floats(0.05, 50.0),
       theta=st.floats(0.0, 3.0),
       N=st.integers(1, 7))
def test_equation_of_state_rows_always_consistent(T, theta, N):
    # thermo_point enforces U = A + TS and Cv >= 0 on construction
    pt = thermo.thermo_point(T, _tp(theta, N=N))
    assert pt.Z1 > 0.0 and pt.S >= -1e-13
