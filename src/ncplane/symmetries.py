"""Bilinear conserved quantities of the deformed oscillator.

A quadratic observable S(z) = 1/2 z^T M z is conserved iff A J M - M J A
vanishes, where A is the oscillator coefficient matrix and J the deformed
bracket tensor over (x, y, px, py): a linear condition on the 10 entries
M_ab, a <= b, whose coefficients are exact rationals in the float entries
of A and J.  The solver row-reduces it exactly, so the dimension is exact
and the basis depends on the span alone.  At theta = 0 the span is four
dimensional (the su(2) family plus H); any theta != 0 collapses it to two
(H and the deformed angular momentum), and the commutative symmetry is not
recovered as theta -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .params import NCParams
from .phasespace import _coords

_N = 4
# the entries M_ab, a <= b, diagonal by diagonal: the main one first
_PAIRS = [(a, a + k) for k in range(_N) for a in range(_N - k)]
_ROWS, _COLS = np.array(_PAIRS).T


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


def _vec(M: np.ndarray) -> np.ndarray:
    """Frobenius-orthonormal coordinates of a symmetric matrix: the entries
    M_ab, a <= b, with those off the diagonal scaled by sqrt 2."""
    return np.where(_ROWS == _COLS, 1.0, math.sqrt(2.0)) * M[_ROWS, _COLS]


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

    def __repr__(self):
        return f"BilinearForm({self.M.round(12).tolist()})"


@dataclass(frozen=True)
class SymmetryBasis:
    """Frobenius-orthonormal span of conserved bilinears."""

    forms: tuple

    def __post_init__(self):
        G = np.array([_vec(f.M) for f in self.forms])  # Frobenius coordinates
        if not np.allclose(G @ G.T, np.eye(len(G)), atol=1e-10):
            raise ValueError("basis is not Frobenius-orthonormal")

    @property
    def dimension(self) -> int:
        return len(self.forms)


def _null_space(L: list) -> list:
    """Exact null vectors of the rational matrix L (a list of rows), one per
    free column of its reduced row echelon form, in column order."""
    R, pivots, n = [list(row) for row in L], [], len(L[0])
    for c in range(n):
        k = len(pivots)
        r = next((i for i in range(k, len(R)) if R[i][c] != 0), None)
        if r is None:
            continue
        R[k], R[r] = R[r], R[k]
        R[k] = [v / R[k][c] for v in R[k]]
        for i in range(len(R)):
            f = R[i][c]
            if i != k and f != 0:
                R[i] = [u - f * v for u, v in zip(R[i], R[k])]
        pivots.append(c)
    return [[-R[pivots.index(c)][f] if c in pivots else Fraction(c == f)
             for c in range(n)] for f in range(n) if f not in pivots]


def conserved_bilinears(p: NCParams) -> SymmetryBasis:
    """Orthonormal basis of the conserved quadratic forms, solved exactly.

    M -> A J M - M J A = X + X^T, X = A J M, is built in Fractions and
    row-reduced; each null vector is divided by its largest entry, turned
    to float and orthonormalized in order by Frobenius Gram-Schmidt."""
    p.require_omega()
    exact = np.vectorize(Fraction, otypes=[object])
    K = exact(hamiltonian_matrix(p)) @ exact(deformed_symplectic(p.theta))
    cols = []
    for a, b in _PAIRS:
        X = np.zeros((_N, _N), dtype=object)  # X = K E, E_ab = E_ba = 1
        X[:, b], X[:, a] = K[:, a], K[:, b]
        cols.append((X + X.T)[_ROWS, _COLS])
    forms = []
    for v in _null_space(np.column_stack(cols).tolist()):
        top = max(map(abs, v))
        M = np.zeros((_N, _N))
        M[_ROWS, _COLS] = M[_COLS, _ROWS] = [float(x / top) for x in v]
        for Q in forms:
            M -= np.sum(M * Q) * Q
        forms.append(M / math.sqrt(np.sum(M * M)))
    return SymmetryBasis(tuple(BilinearForm(M) for M in forms))


def expected_conserved(p: NCParams) -> tuple:
    """Forms the conserved span must hold, one per dimension: the su(2)
    multiplet and H at theta = 0, the deformed J and H otherwise."""
    if p.theta == 0.0:
        return (*su2_standard_forms(p), hamiltonian_form(p))
    return angular_momentum_form(p), hamiltonian_form(p)


def membership_check(S: BilinearForm, basis: SymmetryBasis) -> float:
    """Frobenius distance from S to span(basis), normalized by ||S||.  S is
    first divided by its largest entry, so no norm overflows."""
    if not basis.forms:
        raise ValueError("basis is empty")
    top = np.abs(S.M).max()
    if top == 0.0:
        raise ValueError("zero form has no direction to check")
    M = S.M / top
    R = M - sum(np.sum(M * f.M) * f.M for f in basis.forms)
    return float(np.linalg.norm(R) / np.linalg.norm(M))


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
