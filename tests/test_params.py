"""The oscillator scales on NCParams against the normal modes of J(theta) A.

The flow z' = J(theta) A z has eigenvalues +-i phi, +-i chi, computed here
numerically from the bracket tensor and the Hamiltonian matrix alone.  Every
derived scale is a function of (phi, chi): a = hbar (phi + chi)/2,
b = hbar (phi - chi)/2, w_eff = 2 phi chi / (phi + chi),
omega / w_eff = (phi + chi) / (2 omega), Theta_sc = (phi + chi) / omega and
lam = phi - chi.
"""

import math

import numpy as np
import pytest

from ncplane.dynamics import OscillatorClosedForm
from ncplane.params import NCParams
from ncplane.symmetries import deformed_symplectic, hamiltonian_matrix

THETAS = np.linspace(-2.0, 2.0, 41)


def _normal_modes(p):
    """(phi, chi) with phi - chi carrying the sign of theta."""
    K = deformed_symplectic(p.theta) @ hamiltonian_matrix(p)
    f = np.sort(np.linalg.eigvals(K).imag)[2:]           # the two positive
    lo, hi = float(f[0]), float(f[1])
    return (lo, hi) if p.theta < 0 else (hi, lo)


@pytest.mark.parametrize("m, omega, hbar", [(1.3, 0.8, 0.9), (1.0, 1.0, 1.0)])
def test_scales_are_the_normal_modes_of_J_A(m, omega, hbar):
    for theta in THETAS:
        p = NCParams(m=m, omega=omega, theta=float(theta), hbar=hbar)
        phi, chi = _normal_modes(p)
        cf = OscillatorClosedForm(p)
        # as energies: frequencies times hbar, pure numbers times hbar omega
        pairs = (
            (p.a, hbar * (phi + chi) / 2),
            (p.b, hbar * (phi - chi) / 2),
            (hbar * p.w_eff, hbar * 2 * phi * chi / (phi + chi)),
            (hbar * p.omega * (p.omega / p.w_eff), hbar * (phi + chi) / 2),
            (hbar * p.omega * math.sqrt(1 + p.u), hbar * (phi + chi) / 2),
            (hbar * p.omega * cf.Theta_sc, hbar * (phi + chi)),
            (hbar * p.lam, hbar * (phi - chi)),
            (hbar * cf.phi, hbar * phi),
            (hbar * cf.chi, hbar * chi),
            (p.width ** 2 / p.m, hbar * 2 * phi * chi / (phi + chi)),
        )
        for k, (got, want) in enumerate(pairs):
            assert abs(got - want) <= 1e-14 * p.a, (theta, k, got, want)
