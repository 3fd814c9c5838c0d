"""Conserved-bilinear solver: dimensions, spans, su(2), and cross-oracles.

The solver row-reduces the conservation operator in exact rationals, so
its dimension is exact at every scale of theta.  Every conservation claim
is re-verified here through the independent dual-number bracket path, and
the span at theta != 0 against span{A, A K^2} with K = J(theta) A.
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
    bracket_matrix,
    conserved_bilinears,
    deformed_symplectic,
    hamiltonian_form,
    hamiltonian_matrix,
    membership_check,
    structure_constants,
    su2_standard_forms,
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
    # a relative cut-off on singular values, which shrink with theta, took
    # rank 4 at theta = 1e6 and 1e200; the exact row reduction has no cut-off
    for th in (1e-300, -1e-100, 1e-6, 1e-3, 0.1, 1.0, 10.0, -1e6, 1e100,
               1e200):
        p = NCParams(theta=th)
        basis = conserved_bilinears(p)
        assert basis.dimension == 2, th
        for S in (hamiltonian_form(p), angular_momentum_form(p)):
            assert membership_check(S, basis) < 1e-10, th


@pytest.mark.parametrize("p", [P5, NCParams(m=1.3, omega=0.8, theta=-1.2),
                               NCParams(m=0.4, omega=2.0, theta=3.0)],
                         ids=["theta0.5", "m1.3-w0.8", "m0.4-w2"])
def test_span_is_A_and_A_K_squared(p):
    # the projectors onto K's two modes are linear in K^2, so the conserved
    # span at theta != 0 is span{A, A K^2}; at small theta A and A K^2 are
    # near-parallel, so the check suits moderate theta only
    A = hamiltonian_matrix(p)
    K = deformed_symplectic(p.theta) @ A
    pair = [BilinearForm(A), BilinearForm(A @ K @ K)]
    unit = [f.M / np.linalg.norm(f.M) for f in pair]
    assert abs(np.sum(unit[0] * unit[1])) < 0.99  # independent, so a plane
    basis = conserved_bilinears(p)
    assert basis.dimension == 2
    for S in pair:
        assert membership_check(S, basis) < 1e-14


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
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k], eps[j, i, k] = 1.0, -1.0
    # off (m, omega) = (1, 1) the multiplet is not Frobenius-orthonormal,
    # so projections onto it would miss eps_ijk; the least-squares fit not
    for p in (P0, NCParams(m=1.3, omega=0.8, theta=0.0)):
        c, res = structure_constants(su2_standard_forms(p), p)
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
        fb = BilinearForm(bracket_matrix(f1.M, f2.M, P5.theta))
        # five points from the cube [-3, 3]^4
        for row in np.random.default_rng(8).uniform(-3.0, 3.0, size=(5, 4)):
            z = PhasePoint(*map(float, row))
            want = bracket_field(quadratic_field(f1), quadratic_field(f2),
                                 P5.theta).value(z)
            assert fb.value(z) == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_structure_constants_at_theta_zero_in_the_canonical_basis():
    # the free columns of the row echelon form, with the entries M_ab taken
    # diagonal by diagonal, give (x^2 + px^2)/(2 sqrt 2),
    # (y^2 + py^2)/(2 sqrt 2), (x y + px py)/2 and (x py - y px)/2
    basis = conserved_bilinears(P0)
    r = 1.0 / np.sqrt(2.0)
    want = np.zeros((4, 4, 4))
    for i, j, k, v in [(0, 2, 3, r), (0, 3, 2, -r), (1, 2, 3, -r),
                       (1, 3, 2, r), (2, 3, 0, r), (2, 3, 1, -r)]:
        want[i, j, k], want[j, i, k] = v, -v
    c, res = structure_constants(basis.forms, P0)
    assert np.max(np.abs(c - want)) <= 1e-15
    assert np.max(res) < 1e-14


def test_symplectic_tensor_entries():
    J = deformed_symplectic(0.7)
    assert J[0, 1] == 0.7 and J[1, 0] == -0.7
    assert J[0, 2] == 1.0 and J[1, 3] == 1.0
    assert np.all(J == -J.T)


def test_requires_positive_omega():
    with pytest.raises(ValueError):
        conserved_bilinears(NCParams(omega=0.0))


def test_basis_orthonormality_enforced():
    f = hamiltonian_form(P0)
    with pytest.raises(ValueError):
        SymmetryBasis((f, f))


def test_membership_rejects_degenerate_input():
    basis = conserved_bilinears(P0)
    with pytest.raises(ValueError):
        membership_check(BilinearForm(np.zeros((4, 4))), basis)
