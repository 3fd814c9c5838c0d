"""Conserved-bilinear solver: dimensions, spans, su(2), and cross-oracles.

The solver works in exact matrix algebra; every conservation claim is
re-verified here through the independent dual-number bracket path.
"""

import numpy as np
import pytest

from ncplane import (NCParams, PhasePoint, ScalarField, bracket_field,
                     sample_points)
from ncplane.dynamics import oscillator_path
from ncplane.symmetries import (
    BilinearForm,
    SymmetryBasis,
    angular_momentum_form,
    conserved_bilinears,
    deformed_symplectic,
    hamiltonian_form,
    membership_check,
    structure_constants,
    su2_standard_forms,
    sym_basis,
)

P0 = NCParams(m=1.0, omega=1.0, theta=0.0)
P5 = NCParams(m=1.0, omega=1.0, theta=0.5)


def quadratic_field(form, name="S"):
    """1/2 z^T M z in + and * only, so the dual bracket can differentiate it:
    the oracle adapter from a form's matrix to the autodiff path."""
    M = form.M.tolist()
    return ScalarField(lambda *z: 0.5 * sum(
        z[a] * sum(M[a][b] * z[b] for b in range(4)) for a in range(4)), name)


def test_nullspace_dimensions():
    assert conserved_bilinears(P0).dimension == 4
    assert conserved_bilinears(P5).dimension == 2


def test_dimension_two_across_theta_range():
    for th in (1e-6, 1e-3, 0.1, 1.0, 10.0):
        basis = conserved_bilinears(NCParams(theta=th))
        assert basis.dimension == 2, th


def test_svd_gap():
    for p in (P0, P5):
        assert conserved_bilinears(p).svd_gap() > 1e4


def test_hamiltonian_in_span():
    for p in (P0, P5):
        basis = conserved_bilinears(p)
        assert membership_check(hamiltonian_form(p), basis) < 1e-10


def test_su2_multiplet_in_span_at_theta_zero():
    basis = conserved_bilinears(P0)
    for S in su2_standard_forms(P0):
        assert membership_check(S, basis) < 1e-10


def test_angular_momentum_in_span_at_nonzero_theta():
    basis = conserved_bilinears(P5)
    assert membership_check(angular_momentum_form(P5), basis) < 1e-10


def test_commutative_multiplet_breaks_at_nonzero_theta():
    basis = conserved_bilinears(P5)
    _, S2, _ = su2_standard_forms(P5)
    assert membership_check(S2, basis) > 0.1
    # independent confirmation: S2 drifts along an actual deformed orbit
    traj = oscillator_path(PhasePoint(1.0, -0.5, 0.2, 0.8), 0.0, 5.0, 1e-2, P5)
    vals = [S2.value(traj.points[i]) for i in range(0, len(traj), 50)]
    assert max(vals) - min(vals) > 1e-3


def test_su2_structure_constants():
    c, res = structure_constants(list(su2_standard_forms(P0)), P0)
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k], eps[j, i, k] = 1.0, -1.0
    assert np.max(np.abs(c - eps)) < 1e-10
    assert np.max(res) < 1e-10


def test_deformed_pair_is_abelian():
    forms = [hamiltonian_form(P5), angular_momentum_form(P5)]
    c, res = structure_constants(forms, P5)
    assert np.max(np.abs(c)) < 1e-12
    assert np.max(res) < 1e-12


def test_casimir_relation():
    S = su2_standard_forms(P0)
    H = hamiltonian_form(P0)
    w = P0.omega
    for z in sample_points(100, seed=11):
        lhs = sum(Si.value(z) ** 2 for Si in S)
        rhs = H.value(z) ** 2 / (4 * w * w)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_basis_elements_conserved_by_dual_bracket():
    # cross-oracle: the nullspace comes from matrix algebra; verify each
    # returned form against the autodiff bracket with H at random points
    for p in (P0, P5):
        basis = conserved_bilinears(p)
        Hf = quadratic_field(hamiltonian_form(p), "H")
        for f in basis.forms:
            Sf = quadratic_field(f)
            for z in sample_points(100, seed=3):
                r = bracket_field(Hf, Sf, p.theta).value(z)
                assert abs(r) / (1.0 + abs(Sf.value(z))) < 1e-9


def test_matrix_bracket_matches_dual_bracket():
    rng = np.random.default_rng(5)
    for _ in range(5):
        A = rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 4))
        f1 = BilinearForm(A + A.T)
        f2 = BilinearForm(B + B.T)
        fb = f1.bracket(f2, P5.theta)
        # five points from the cube [-3, 3]^4
        for row in np.random.default_rng(8).uniform(-3.0, 3.0, size=(5, 4)):
            z = PhasePoint(*map(float, row))
            want = bracket_field(quadratic_field(f1), quadratic_field(f2),
                                 P5.theta).value(z)
            assert fb.value(z) == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_symplectic_tensor_entries():
    J = deformed_symplectic(0.7)
    assert J[0, 1] == 0.7 and J[1, 0] == -0.7
    assert J[0, 2] == 1.0 and J[1, 3] == 1.0
    assert np.all(J == -J.T)


def test_sym_basis_orthonormal():
    mats = sym_basis()
    assert len(mats) == 10
    gram = np.array([[np.sum(a * b) for b in mats] for a in mats])
    assert np.allclose(gram, np.eye(10), atol=1e-15)


def test_requires_positive_omega():
    with pytest.raises(ValueError):
        conserved_bilinears(NCParams(omega=0.0))


def test_basis_orthonormality_enforced():
    f = hamiltonian_form(P0)
    with pytest.raises(ValueError):
        SymmetryBasis((f, f), 2, np.ones(10))


def test_membership_rejects_degenerate_input():
    basis = conserved_bilinears(P0)
    with pytest.raises(ValueError):
        membership_check(BilinearForm(np.zeros((4, 4))), basis)
