"""Einstein-solid thermodynamics: closed forms vs direct sums and duals."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncplane import spectra, thermo
from ncplane.duals import Dual
from ncplane.params import CheckFailure, NCParams


P = NCParams(m=1.3, omega=0.9, theta=0.4)
SITES = 3   # the solid of P: N = 3 independent sites


def _p(theta, m=1.0, omega=1.0, hbar=1.0, kB=1.0):
    return NCParams(m=m, omega=omega, theta=theta, hbar=hbar, kB=kB)


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
        p = _p(float(theta))
        for T in temps:
            z = thermo.thermo_point(float(T), p).Z1
            zd = thermo.partition_single_direct(float(T), p)
            assert abs(z - zd) <= 1e-12 * zd


def test_partition_direct_sum_low_temperature_branch():
    # a beta ~ 41: Z1 is its ground-state term to within about 3e-14
    p = _p(0.5)
    T = 0.025
    z = thermo.thermo_point(T, p).Z1
    zd = thermo.partition_single_direct(T, p)
    assert abs(z - zd) <= 1e-12 * zd
    assert thermo._closed_forms(T, p, 1)[0] == pytest.approx(math.log(zd),
                                                             rel=1e-12)


def _scalar_level_sum(T, p, tol=1e-14):
    """The oracle as a plain Python loop over (n, two_j), one level at a time."""
    a, b = p.a, p.b
    beta = 1.0 / (p.kB * T)
    n_max = math.ceil(math.log(1.0 / tol) / (beta * (a - abs(b)))) + 10
    return math.fsum(math.exp(-beta * spectra.energy(n, two_j, p))
                     for n in range(n_max + 1)
                     for two_j in range(-n, n + 1, 2))


@pytest.mark.parametrize("T, theta", [
    (1.0, -0.7),     # b < 0
    (0.025, 0.5),    # a beta ~ 41
    (5.0, 2.0),      # n_max ~ 400
    (0.7, 0.0),
])
def test_partition_direct_matches_scalar_level_loop(T, theta):
    p = _p(theta)
    ref = _scalar_level_sum(T, p)
    assert abs(thermo.partition_single_direct(T, p) - ref) <= 1e-15 * ref


def test_commutative_partition_geometric_form():
    # theta = 0 reduces to two modes: Z1 = x / (1 - x)^2 with x = e^{-beta hw}
    p = _p(0.0, m=2.0, omega=1.5, hbar=0.7)
    for T in (0.2, 0.9, 3.0):
        x = math.exp(-p.hbar * p.omega / (p.kB * T))
        assert thermo.thermo_point(T, p).Z1 == pytest.approx(
            x / (1.0 - x) ** 2, rel=1e-14)


def test_commutative_internal_energy_coth_form():
    p = _p(0.0, m=2.0, omega=1.5, hbar=0.7)
    for T in (0.3, 1.1):
        half = p.hbar * p.omega / (2.0 * p.kB * T)
        expected = 4 * p.hbar * p.omega / math.tanh(half)
        assert thermo.thermo_point(T, p, 4).U == pytest.approx(expected,
                                                               rel=1e-13)


def test_partition_even_in_theta():
    for T in (0.2, 1.0, 3.0):
        for theta in (0.5, 1.7):
            zp = thermo.thermo_point(T, _p(theta)).Z1
            zm = thermo.thermo_point(T, _p(-theta)).Z1
            assert abs(zp - zm) <= 1e-12 * zp
    # ln Z1, U, S and Cv bit for bit, from the ground state to the classical
    # regime: theta -> -theta swaps the two modes, summed larger one first
    for T in (0.02, 0.5, 1e6):
        for theta in (0.5, 1.7):
            assert (thermo._closed_forms(T, _p(theta), 1)
                    == thermo._closed_forms(T, _p(-theta), 1))


def _decimal_forms(T, p, N):
    """(ln Z1, U, S, Cv) of N sites' two modes at 60 digits.

    The mode quanta are a +- |b| of the level scales written out in
    Decimal, where the kernel takes hbar phi and hbar chi from NCParams.
    ln(1 - q) is its series while q is too small for 1 - q to hold it.
    """
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        m, w, th, hb, kB = (D(v) for v in (p.m, p.omega, p.theta, p.hbar, p.kB))
        a = hb * w * (1 + (m * w * th) ** 2 / 4).sqrt()
        b = abs(hb * m * th * w * w / 2)
        beta, N = 1 / (kB * D(T)), D(N)
        lnZ, U, S, Cv = -beta * a, N * a, D(0), D(0)
        for e in (a + b, a - b):
            y = beta * e
            q = (-y).exp()
            ln_d = ((1 - q).ln() if q > D("1e-12")
                    else -sum(q ** k / k for k in range(1, 7)))
            r = q / (1 - q)
            lnZ -= ln_d
            U += N * e * r
            S += N * kB * (y * r - ln_d)
            Cv += N * kB * y * y * r / (1 - q)
        return lnZ, U, S, Cv


@pytest.mark.parametrize("theta", [0.0, 0.3, 2.0])
def test_closed_forms_match_a_decimal_reference(theta):
    # the cosh form was off by 3e-8 at T = 1e4 and 6e-2 at 1e7, raised
    # from T = 1e8, and cancelled in S at a beta in [5, 30); the bound
    # grows with beta hbar phi, which amplifies the last-bit rounding of beta
    p = _p(theta)
    points = [(10.0 ** k, range(4)) for k in range(-2, 13)]
    points += [(p.a / (p.kB * k), [2]) for k in range(5, 30)]
    for T, which in points:
        got, ref = thermo._closed_forms(T, p, 3), _decimal_forms(T, p, 3)
        bound = 1e-14 * max(1.0, p.hbar * p.phi / (p.kB * T) / 30)
        for i in which:
            err = abs(decimal.Decimal(got[i]) - ref[i]) / abs(ref[i])
            assert float(err) <= bound, (T, i, float(err))


def test_high_temperature_internal_energy():
    p = P
    for T in (50.0, 200.0):
        lead = 2.0 * SITES * p.kB * T
        corr = (p.hbar ** 2 * p.omega ** 2 * SITES
                * (2.0 + p.m ** 2 * p.omega ** 2 * p.theta ** 2)
                / (12.0 * p.kB * T))
        U = thermo.thermo_point(T, p, SITES).U
        assert abs(U - (lead + corr)) <= 1e-6 * U


def test_low_temperature_internal_energy():
    # U/N -> a = hbar omega sqrt(1 + (m omega theta)^2 / 4)
    p = P
    u = (p.m * p.omega * p.theta) ** 2 / 4.0
    a = p.hbar * p.omega * math.sqrt(1.0 + u)
    for T in (0.01, 0.005):
        U = thermo.thermo_point(T, p, SITES).U
        assert U / SITES == pytest.approx(a, rel=1e-10)


def _dual_forms(T0):
    # the kernel differentiated in T: (ln Z1, U, S, Cv) as dual numbers
    return thermo._closed_forms(Dual(T0, 1.0), P, SITES)


def test_entropy_matches_dual_derivative_of_free_energy():
    for T0 in (0.02, 0.11, 0.7, 4.6, 40.0):
        A = -SITES * P.kB * Dual(T0, 1.0) * _dual_forms(T0)[0]
        s = thermo.thermo_point(T0, P, SITES).S
        assert s == pytest.approx(-A.eps, rel=1e-9, abs=1e-12)


def test_heat_capacity_matches_dual_derivative_of_energy():
    for T0 in (0.11, 0.7, 4.6, 40.0, 500.0):
        dc = _dual_forms(T0)[1].eps
        assert thermo.thermo_point(T0, P, SITES).Cv == pytest.approx(
            dc, rel=1e-9)


def test_heat_capacity_equals_T_dS_dT():
    for T0 in (0.2, 0.9, 3.7, 25.0):
        ds = _dual_forms(T0)[2].eps
        assert thermo.thermo_point(T0, P, SITES).Cv == pytest.approx(
            T0 * ds, rel=1e-8)


def test_heat_capacity_nonnegative_and_equipartition():
    for T in np.logspace(-4, 4, 60):
        assert thermo.thermo_point(float(T), P, SITES).Cv >= 0.0
    # 2 quadratic coordinate + 2 momentum modes per site
    assert thermo.thermo_point(1e4, P, SITES).Cv == pytest.approx(
        2.0 * SITES * P.kB, rel=1e-6)


def test_entropy_vanishes_at_zero_and_grows():
    assert 0.0 <= thermo.thermo_point(1e-3, P, SITES).S < 1e-12
    assert thermo.thermo_point(1e-4, P, SITES).S == 0.0
    Ts = np.logspace(-2, 2, 40)
    Ss = [thermo.thermo_point(float(T), P, SITES).S for T in Ts]
    assert all(b >= a for a, b in zip(Ss, Ss[1:]))


def test_entropy_increases_with_theta_at_low_temperature():
    h = 1e-5
    for T in (0.1, 0.2):
        for theta in (0.3, 1.0):
            sp = thermo.thermo_point(T, _p(theta + h)).S
            sm = thermo.thermo_point(T, _p(theta - h)).S
            assert (sp - sm) / (2.0 * h) > 0.0


def _dS_dtheta(T, p):
    """Closed-form dS/dtheta per site: the modes phi and chi obey
    d ln phi = -d ln chi = m omega^2 / sqrt(lam^2 + 4 omega^2) dtheta and
    dS/d(beta hbar e) of one mode is -g(x) / (2 x), x = beta hbar e / 2, so

        dS/dtheta = kB [g(x_chi) - g(x_phi)] m omega^2 / sqrt(lam^2 + 4 w^2)

    with w = omega and g(x) = x^2 / sinh^2 x, one mode's Cv / kB.  T may
    be an array."""
    half_beta_hbar = p.hbar / (2.0 * p.kB * np.asarray(T))
    g = lambda x: (x / np.sinh(x)) ** 2
    return (p.kB * (g(half_beta_hbar * p.chi) - g(half_beta_hbar * p.phi))
            * p.m * p.omega ** 2 / math.hypot(p.lam, 2.0 * p.omega))


@pytest.mark.parametrize("m, omega, theta, hbar, kB", [
    (1.0, 1.0, 0.3, 1.0, 1.0),
    (1.3, 0.8, 0.7, 0.9, 1.0),
    (1.0, 1.0, 1.0, 1.0, 2.0),
])
def test_dS_dtheta_closed_form_matches_central_differences(m, omega, theta,
                                                           hbar, kB):
    h = 1e-5
    for T in (0.3, 0.7, 1.0, 2.0, 5.0):
        sp, sm = (thermo.thermo_point(T, _p(theta + s, m, omega, hbar, kB)).S
                  for s in (h, -h))
        exact = _dS_dtheta(T, _p(theta, m, omega, hbar, kB))
        assert (sp - sm) / (2.0 * h) == pytest.approx(exact, rel=1e-6)


def test_dS_dtheta_reaches_its_high_temperature_asymptote():
    # g(x_chi) - g(x_phi) -> (x_phi^2 - x_chi^2) / 3 as T grows, so
    # dS/dtheta -> kB hbar^2 m^2 omega^4 theta / (12 (kB T)^2)
    p, T = _p(1.0), 50.0
    asymptote = (p.kB * p.hbar ** 2 * p.m ** 2 * p.omega ** 4 * p.theta
                 / (12.0 * (p.kB * T) ** 2))
    assert float(_dS_dtheta(T, p)) == pytest.approx(asymptote, rel=1e-3)


def test_dS_dtheta_is_positive_at_every_temperature():
    # the paper's low-temperature claim, over five decades of T
    Ts = np.logspace(-2, 3, 100)
    slopes = [_dS_dtheta(Ts, _p(theta)) for theta in np.linspace(0.02, 2, 100)]
    assert np.min(slopes) > 0.0


def test_free_energy_sign_and_scaling_in_N():
    a1 = thermo.thermo_point(0.8, _p(0.3), N=1).A
    a5 = thermo.thermo_point(0.8, _p(0.3), N=5).A
    assert a5 == pytest.approx(5.0 * a1, rel=1e-14)


def test_thermo_point_fields_consistent():
    pt = thermo.thermo_point(0.9, P, SITES)
    assert pt.T == 0.9 and pt.theta == P.theta
    lnZ, U, S, Cv = thermo._closed_forms(0.9, P, SITES)
    assert (pt.Z1, pt.U, pt.S, pt.Cv) == (math.exp(lnZ), U, S, Cv)
    assert pt.A == -SITES * P.kB * 0.9 * lnZ
    assert pt.S_per_NkB == pytest.approx(pt.S / (SITES * P.kB), rel=1e-15)
    assert pt.U == pytest.approx(pt.A + pt.T * pt.S, rel=1e-12)


def test_thermo_point_rejects_inconsistent_rows():
    with pytest.raises(CheckFailure):
        thermo.ThermoPoint(T=1.0, theta=0.0, Z1=1.0, A=1.0, S=1.0,
                           U=5.0, Cv=1.0, S_per_NkB=1.0)
    with pytest.raises(CheckFailure):
        thermo.ThermoPoint(T=1.0, theta=0.0, Z1=1.0, A=1.0, S=1.0,
                           U=2.0, Cv=-1.0, S_per_NkB=1.0)
    # NaN is false under both comparisons above, so this row constructed
    with pytest.raises(CheckFailure, match="non-finite A = nan at T=1.0"):
        thermo.ThermoPoint(T=1.0, theta=0.0, Z1=1.0, A=math.nan, S=math.nan,
                           U=1.0, Cv=math.nan, S_per_NkB=math.nan)


def test_thermo_point_evaluates_the_kernel_once(monkeypatch):
    calls = []
    kernel = thermo._closed_forms
    monkeypatch.setattr(thermo, "_closed_forms",
                        lambda T, p, N: calls.append(T) or kernel(T, p, N))
    thermo.thermo_point(0.9, P, SITES)
    assert calls == [0.9]
    thermo.entropy_sweep([0.5, 1.0, 2.0], P, thetas=[0.0, 0.5], N=SITES)
    assert len(calls) == 1 + 6


def test_entropy_sweep_rows_and_theta_cross():
    rows = thermo.entropy_sweep([0.5, 1.0], P, thetas=[0.0, 0.5], N=SITES)
    assert [(r.T, r.theta) for r in rows] == [
        (0.5, 0.0), (1.0, 0.0), (0.5, 0.5), (1.0, 0.5)]
    # N and every parameter other than theta carry over to each row
    want = NCParams(m=1.3, omega=0.9, theta=0.5)
    assert rows[3] == thermo.thermo_point(1.0, want, SITES)
    assert rows[3] != thermo.thermo_point(1.0, want)


def test_parameter_validation():
    for N in (0, 1.5, True):
        with pytest.raises(ValueError,
                           match=f"N must be a positive integer, got {N!r}"):
            thermo.thermo_point(1.0, P, N)
    with pytest.raises(ValueError):
        thermo.thermo_point(0.0, P, SITES)
    with pytest.raises(ValueError):
        thermo.thermo_point(-1.0, P, SITES)
    free = NCParams(m=1.0, omega=0.0, theta=0.1)
    with pytest.raises(ValueError, match="operation requires omega > 0"):
        thermo.thermo_point(1.0, free)
    with pytest.raises(ValueError, match="operation requires omega > 0"):
        thermo.partition_single_direct(1.0, free)


@pytest.mark.parametrize("T", [math.nan, math.inf])
def test_non_finite_temperature_is_rejected(T):
    # nan passed the positivity test and gave an all-NaN row; inf raised a
    # bare "math domain error"
    message = f"temperature must be positive and finite, got .*{T}"
    with pytest.raises(ValueError, match=message):
        thermo.thermo_point(T, P, SITES)
    with pytest.raises(ValueError, match=message):
        thermo._closed_forms(Dual(T, 1.0), P, SITES)
    with pytest.raises(ValueError, match=message):
        thermo.entropy_sweep([0.5, T], P, thetas=[0.0], N=SITES)
    # a finite dual temperature still differentiates
    assert thermo._closed_forms(Dual(0.7, 1.0), P, SITES)[2].eps > 0.0


@pytest.mark.parametrize("T", [1e-300, 1e-299, 1e-163, 1e-160])
def test_zero_temperature_limit_where_kB_T_squared_underflows(T):
    # kB T^2 underflows below about 1.5e-162, where Cv = num / (kB T^2)
    # was 0 / 0; the row is the T -> 0 limit that T = 1e-160 already gave
    row = thermo.thermo_point(T, P, SITES)
    a = P.a
    assert (row.Cv, row.S, row.S_per_NkB, row.Z1) == (0.0, 0.0, 0.0, 0.0)
    assert row.U == SITES * a
    assert thermo._closed_forms(T, P, SITES)[3] == 0.0


def test_underflowing_kB_T_is_a_value_error():
    # beta = 1 / (kB T) was a ZeroDivisionError at kB T = 0 and inf just above
    for kB, T in ((1e-300, 1e-30), (1e-300, 1e-10)):
        with pytest.raises(ValueError, match=r"kB\*T = .* underflows"):
            thermo.thermo_point(T, _p(0.3, kB=kB))
    # kB T finite while kB T^2 underflows: this raised, but no division by
    # kB T^2 is left, so the row is finite, at its zero-point limit
    p = _p(0.3, kB=1e300, hbar=1e-18)
    row = thermo.thermo_point(1e-320, p)
    assert all(math.isfinite(v) for v in vars(row).values())
    assert row.S >= 0.0 and row.Cv >= 0.0
    assert row.U == pytest.approx(p.a, rel=1e-15)


@pytest.mark.parametrize("T, hbar, theta, message", [
    # A = inf, which passed U = A + TS because its scale was inf too
    (1e-308, 10.0, 0.3, r"beta\*hbar\*omega = inf at T=1e-308"),
    # a beta - b beta = inf - inf, reported as "kB*T*T underflows"
    (1e-308, 10.0, 2.0, r"beta\*hbar\*omega = inf at T=1e-308"),
    (1e10, 1e-320, 0.3, r"beta\*hbar\*omega = 0.0 at T=10000000000.0"),
    (1e155, 1.0, 0.3, r"Z1 = exp\(.*\) overflows at T=1e\+155"),
], ids=["A-inf", "nan", "mode-underflow", "Z1-overflow"])
def test_unrepresentable_mode_factor_is_a_value_error(T, hbar, theta, message):
    with pytest.raises(ValueError, match=message):
        thermo.thermo_point(T, _p(theta, hbar=hbar))


@settings(max_examples=60, deadline=None)
@given(T=st.floats(0.05, 50.0),
       theta=st.floats(0.0, 3.0),
       N=st.integers(1, 7))
def test_equation_of_state_rows_always_consistent(T, theta, N):
    # thermo_point enforces U = A + TS and Cv >= 0 on construction
    pt = thermo.thermo_point(T, _p(theta), N)
    assert pt.Z1 > 0.0 and pt.S >= -1e-13
