"""Bilinear conserved quantities of the deformed oscillator.

A quadratic observable S(z) = 1/2 z^T M z is conserved iff the matrix
A J M - M J A vanishes, where A is the oscillator coefficient matrix and J
the deformed bracket tensor over (x, y, px, py).  Conservation is therefore
a linear condition on the 10-dimensional space of symmetric M; the solver
assembles that operator exactly, reads the conserved span off its SVD
nullspace and fixes a basis of it that depends on the span alone.  At
theta = 0 the span is four dimensional (the su(2) family plus H); any
theta != 0 collapses it to two (H and the deformed angular momentum), and
the commutative symmetry is not recovered as theta -> 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import NCParams
from .phasespace import _coords

_N = 4
SVD_THRESHOLD = 1e-10  # relative to sigma_max; smaller singular values are null
# symmetric coordinates: the diagonal, then the pairs a < b scaled by sqrt 2
_PAIRS = [(a, a) for a in range(_N)] + [
    (a, b) for a in range(_N) for b in range(a + 1, _N)]


def deformed_symplectic(theta: float) -> np.ndarray:
    """Bracket tensor J_ab = {z_a, z_b} over (x, y, px, py)."""
    J = np.zeros((_N, _N))
    J[0, 1], J[1, 0] = theta, -theta
    J[0, 2], J[2, 0] = 1.0, -1.0
    J[1, 3], J[3, 1] = 1.0, -1.0
    return J


def hamiltonian_matrix(p: NCParams) -> np.ndarray:
    """H = 1/2 z^T A z for the isotropic oscillator."""
    k = p.m * p.omega ** 2
    return np.diag([k, k, 1.0 / p.m, 1.0 / p.m])


def sym_basis() -> list[np.ndarray]:
    """Frobenius-orthonormal basis of the symmetric 4x4 matrices."""
    out = []
    for a, b in _PAIRS:
        E = np.zeros((_N, _N))
        E[a, b] = E[b, a] = 1.0 if a == b else 1.0 / np.sqrt(2.0)
        out.append(E)
    return out


def _vec(M: np.ndarray) -> np.ndarray:
    """Coordinates of a symmetric matrix in the orthonormal basis above."""
    return np.array([M[a, b] if a == b else np.sqrt(2.0) * M[a, b]
                     for a, b in _PAIRS])


def bracket_matrix(M1, M2, theta: float) -> np.ndarray:
    """{S1, S2} is again quadratic; its matrix is M1 J M2 - M2 J M1."""
    J = deformed_symplectic(theta)
    return M1 @ J @ M2 - M2 @ J @ M1


class BilinearForm:
    """Quadratic observable S(z) = 1/2 z^T M z with M real symmetric."""

    __slots__ = ("M",)

    def __init__(self, M):
        M = np.array(M, dtype=float)
        if M.shape != (_N, _N):
            raise ValueError(f"coefficient matrix must be 4x4, got {M.shape}")
        if not np.allclose(M, M.T, atol=1e-12 * max(1.0, np.abs(M).max())):
            raise ValueError("coefficient matrix must be symmetric")
        self.M = 0.5 * (M + M.T)

    def value(self, z) -> float:
        c = np.array(_coords(z))
        return float(0.5 * c @ self.M @ c)

    def norm(self) -> float:
        return float(np.linalg.norm(self.M))

    def __repr__(self):
        return f"BilinearForm({self.M.round(12).tolist()})"


@dataclass(frozen=True)
class SymmetryBasis:
    """Orthonormal span of conserved bilinears plus the SVD diagnostics."""

    forms: tuple
    dimension: int
    singular_values: np.ndarray

    def __post_init__(self):
        G = np.array([_vec(f.M) for f in self.forms])  # Frobenius coordinates
        if not np.allclose(G @ G.T, np.eye(len(G)), atol=1e-10):
            raise ValueError("basis is not Frobenius-orthonormal")


def conservation_operator(p: NCParams) -> np.ndarray:
    """Matrix of M -> matrix of {H, S_M} over the orthonormal symmetric basis."""
    A = hamiltonian_matrix(p)
    return np.column_stack([_vec(bracket_matrix(A, E, p.theta))
                            for E in sym_basis()])


def span_basis(null_rows: np.ndarray) -> np.ndarray:
    """Orthonormal rows with the row span of N = null_rows, fixed by the span:
    Gram-Schmidt on the columns of the projector N^T N, one step per row of
    N, each taking the first column whose remainder is at least half the
    largest (so rounding-level remainders never become pivots)."""
    R = null_rows.T @ null_rows
    Q = np.zeros_like(null_rows)
    for i in range(len(Q)):
        norms = np.linalg.norm(R, axis=0)
        k = np.argmax(norms >= 0.5 * norms.max())
        Q[i] = R[:, k] / norms[k]
        R -= np.outer(Q[i], Q[i] @ R)
    return Q


def conserved_bilinears(p: NCParams) -> SymmetryBasis:
    """Orthonormal basis of conserved quadratic forms via an SVD nullspace.

    Relative threshold: directions with singular value below
    SVD_THRESHOLD * sigma_max are declared null.  The operator is exact
    rational in (m, omega, theta), so the spectral gap is enormous and the
    rank decision is stable.  `span_basis`, not the SVD, picks the forms.
    """
    p.require_omega()
    L = conservation_operator(p)
    _, s, Vt = np.linalg.svd(L)
    mats = sym_basis()
    forms = tuple(BilinearForm(sum(c * E for c, E in zip(row, mats)))
                  for row in span_basis(Vt[s < SVD_THRESHOLD * s[0]]))
    return SymmetryBasis(forms, len(forms), s)


def expected_conserved(p: NCParams) -> tuple:
    """Forms the conserved span must hold, one per dimension: the su(2)
    multiplet and H at theta = 0, the deformed J and H otherwise."""
    if p.theta == 0.0:
        return (*su2_standard_forms(p), hamiltonian_form(p))
    return angular_momentum_form(p), hamiltonian_form(p)


def membership_check(S: BilinearForm, basis: SymmetryBasis) -> float:
    """Frobenius distance from S to span(basis), normalized by ||S||."""
    if not basis.forms:
        raise ValueError("basis is empty")
    nrm = S.norm()
    if nrm == 0.0:
        raise ValueError("zero form has no direction to check")
    R = S.M.copy()
    for f in basis.forms:
        R -= np.sum(S.M * f.M) * f.M
    return float(np.linalg.norm(R) / nrm)


def structure_constants(basis, p: NCParams):
    """Least-squares c_ijk with {S_i, S_j} = sum_k c_ijk S_k, in one solve.

    Returns (c, residual) where residual[i, j] is the out-of-span
    Frobenius norm of the bracket, scaled by 1 + ||bracket||.  The forms
    need not be orthonormal.
    """
    n = len(basis)
    G = np.column_stack([_vec(f.M) for f in basis])  # 10 x n
    B = np.column_stack([_vec(bracket_matrix(f.M, g.M, p.theta))
                         for f in basis for g in basis])  # 10 x n^2
    c = np.linalg.lstsq(G, B, rcond=None)[0]
    res = np.linalg.norm(B - G @ c, axis=0) / (1.0 + np.linalg.norm(B, axis=0))
    return c.T.reshape(n, n, n), res.reshape(n, n)


def hamiltonian_form(p: NCParams) -> BilinearForm:
    return BilinearForm(hamiltonian_matrix(p))


def angular_momentum_form(p: NCParams) -> BilinearForm:
    """J = x py - y px + (theta/2)(px^2 + py^2) as a quadratic form."""
    M = np.zeros((_N, _N))
    M[0, 3] = M[3, 0] = 1.0
    M[1, 2] = M[2, 1] = -1.0
    M[2, 2] = M[3, 3] = p.theta
    return BilinearForm(M)


def su2_standard_forms(p: NCParams):
    """The commutative-oscillator multiplet (S1, S2, S3), normalized so that
    {S_i, S_j}_0 = eps_ijk S_k and S1^2+S2^2+S3^2 = H^2/4w^2."""
    p.require_omega()
    m, w = p.m, p.omega
    a = 1.0 / (2.0 * m * w)
    S1 = np.zeros((_N, _N))
    S1[2, 3] = S1[3, 2] = a          # px py / (2 m w)
    S1[0, 1] = S1[1, 0] = a * (m * w) ** 2
    S2 = np.zeros((_N, _N))
    S2[3, 3] = a                      # (py^2 - px^2)/(4 m w) -> M/2 diag
    S2[2, 2] = -a
    S2[1, 1] = a * (m * w) ** 2
    S2[0, 0] = -a * (m * w) ** 2
    S3 = np.zeros((_N, _N))
    S3[0, 3] = S3[3, 0] = 0.5         # (x py - y px)/2
    S3[1, 2] = S3[2, 1] = -0.5
    return BilinearForm(S1), BilinearForm(S2), BilinearForm(S3)
