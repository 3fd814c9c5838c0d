"""Phase-space quasi-distributions for the deformed plane.

The Wigner transform acts on wave functions in the (x, p_y) basis:

    W(x, y, px, py) = (1/pi^2 hbar^2) * integral dzeta deta
        exp{2i [zeta px - eta (y - theta px)] / hbar}
        psi(x - zeta, py - eta) psi*(x + zeta, py + eta)

The theta-dependent phase shift makes the y marginal land on the
commuting combination y - theta px, which is what reproduces |psi|^2 in
all three mixed bases at once.  Evaluation strategies: exact closed form
for the (possibly displaced) ground state, trapezoid quadrature of the
defining integral for grid states, and backward transport along the
closed-form classical flow for time evolution.  The quadrature stops the
offsets at |k| <= (nx - 1) // 2, |l| <= (ny - 1) // 2: past that one state
factor always lies off the grid, so every term left out is an exact zero.
A table is a plain 4-D array, or the stream of its x-rows that
quadrature_rows yields, and table_sums is its one reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import duals
from .duals import Dual
from .params import CheckFailure, NCParams
from .dynamics import _start, flow_matrix
from .grids import GridFunction, trapezoid_weights
from .spectra import _alias_guard


class WignerError(ValueError):
    """Ill-posed Wigner construction or evaluation request."""


def _pi_hbar_squared(hbar: float) -> float:
    """(pi hbar)^2, or a WignerError naming hbar when the Wigner scale
    1/(pi hbar)^2 is not a finite float."""
    s = (math.pi * hbar) ** 2
    if not s or not math.isfinite(1.0 / s):
        raise WignerError(f"hbar = {hbar!r} is too small: the Wigner scale "
                          f"1/(pi hbar)^2 overflows")
    return s


class GroundStateWigner:
    """Closed-form ground-state distribution, optionally displaced.

    W(z) = (1/pi^2 hbar^2) exp{ -p^2/(m hbar w_eff)
          - (m w_eff/hbar) [(x + theta py/2)^2 + (y - theta px/2)^2] }
    evaluated at z - center.  Accepts floats, numpy arrays, or dual
    numbers in any coordinate, so it can be differentiated in place.
    """

    def __init__(self, params: NCParams, center=None):
        self.params = params
        self._s2 = params.m * params.hbar * params.w_eff
        self._k = params.m * params.w_eff / params.hbar
        self._pi_hbar2 = _pi_hbar_squared(params.hbar)
        if center is None:
            center = (0.0, 0.0, 0.0, 0.0)
        # a PhasePoint or four finite coordinates, checked as a flow's start
        self.center = tuple(float(c) for c in _start(center))

    def at(self, x, y, px, py):
        p = self.params
        cx, cy, cpx, cpy = self.center
        x, y, px, py = x - cx, y - cy, px - cpx, py - cpy
        q = (-(px * px + py * py) / self._s2
             - self._k
             * ((x + 0.5 * p.theta * py) ** 2 + (y - 0.5 * p.theta * px) ** 2))
        e = duals.exp(q) if isinstance(q, Dual) else np.exp(q)
        return e / self._pi_hbar2


class QuadratureWigner:
    """Wigner transform of an (x, p_y) grid state by direct quadrature.

    The state is treated as zero outside its grid (valid when the
    boundary amplitude is negligible), so W = 0 exactly for any (x, py)
    off the grid.  At node (i, j) both factors of psi(x - zeta_k, py - eta_l)
    psi*(x + zeta_k, py + eta_l) lie on the grid only for |k| <= min(i,
    nx - 1 - i) and |l| <= min(j, ny - 1 - j), so the offsets stop at
    K = (nx - 1) // 2, L = (ny - 1) // 2: the full sum, not a truncation,
    since every term left out is zero.  An (x, py) within 1e-9 grid steps
    of a node is snapped onto it; other off-node requests interpolate the
    correlation bilinearly between the four surrounding nodes.
    """

    def __init__(self, psi: GridFunction, params: NCParams):
        if psi.basis != "xpy":
            raise WignerError(
                f"the transform consumes (x, p_y) wave functions, "
                f"got basis {psi.basis!r}")
        self.psi = psi
        self.params = params
        nx, ny = psi.values.shape
        self._K, self._L = (nx - 1) // 2, (ny - 1) // 2
        pad = np.pad(psi.values.astype(complex), ((self._K,), (self._L,)))
        # win[r, j, l] = pad[r, j + l]: exactly ny windows of 2L+1 columns
        self._win = np.lib.stride_tricks.sliding_window_view(
            pad, 2 * self._L + 1, axis=1)
        self._zeta = np.arange(-self._K, self._K + 1) * psi.step1
        self._eta = np.arange(-self._L, self._L + 1) * psi.step2
        self._pi_hbar2 = _pi_hbar_squared(params.hbar)
        self._pref = psi.step1 * psi.step2 / self._pi_hbar2

    def _guard(self, x, y, px, py):
        """Reject non-finite coordinates and grid steps over half a period
        of exp{2i[zeta px - eta u]/hbar}; returns u = y - theta px."""
        for name, v in (("x", x), ("y", y), ("p_x", px), ("p_y", py)):
            if not np.isfinite(v).all():
                raise WignerError(f"non-finite {name} in a Wigner query")
        u, hbar = y - self.params.theta * px, self.params.hbar
        _alias_guard(self.psi.step1, 2.0 * float(np.abs(px).max(initial=0)),
                     hbar, "p_x")
        _alias_guard(self.psi.step2, 2.0 * float(np.abs(u).max(initial=0)),
                     hbar, "y - theta p_x")
        return u

    def _corr(self, i, j, out, r):
        """M[k, ..., l] = psi(x_i - zeta_k, py_j - eta_l) psi*(x_i + zeta_k,
        py_j + eta_l) for row i, column(s) j and |k| <= r, written into out;
        rows holds psi(x_i + zeta_k, py_j + eta_l), its k, l reversal the
        first factor."""
        rows = self._win[i + self._K - r:i + self._K + r + 1, j]
        M = np.conjugate(rows, out=out)
        return np.multiply(rows[::-1, ..., ::-1], M, out=M)

    def _phases(self, px, u):
        """A[a, k] = exp(2i zeta_k px_a/hbar) and
        F[a, l, b] = exp(-2i eta_l u[a, b]/hbar), u = y - theta px."""
        hbar = self.params.hbar
        return (np.exp(2j * np.outer(px, self._zeta) / hbar),
                np.exp(-2j * (self._eta[:, None] * u[:, None, :]) / hbar))

    def _contract(self, M, A, F):
        """pref sum_kl A[a, k] M[k, ..., l] F[a, l, ...], zeta sum first.  A
        table row M[k, j, l] takes the eta sum as a batched matmul; a point's
        M[k, l] keeps einsum's running sum, the order at has always used."""
        T = np.tensordot(A, M, axes=(1, 0))
        S = np.matmul(T, F) if M.ndim == 3 else np.einsum("al,al->a", T, F)
        return S * self._pref

    def at(self, x, y, px, py):
        x, y, px, py = np.broadcast_arrays(
            *(np.asarray(v, dtype=float) for v in (x, y, px, py)))
        shape, u = x.shape, self._guard(x, y, px, py)
        xf, uf, pxf, pyf = (v.ravel() for v in (x, u, px, py))
        nx, ny = self.psi.values.shape
        out = np.zeros(xf.size, dtype=complex)
        M = np.empty((2 * self._K + 1, 2 * self._L + 1), dtype=complex)
        C = np.empty_like(M)
        pairs, memo = {}, (None, None)
        for n in range(xf.size):
            pairs.setdefault((xf[n], pyf[n]), []).append(n)
        for (xq, pyq), idx in pairs.items():
            fi = _snap((xq - self.psi.axis1[0]) / self.psi.step1)
            fj = _snap((pyq - self.psi.axis2[0]) / self.psi.step2)
            if not (0 <= fi <= nx - 1 and 0 <= fj <= ny - 1):
                continue  # the state vanishes off its grid
            i, j = math.floor(fi), math.floor(fj)
            fx, fy = fi - i, fj - j
            # bilinear in (x, py); a zero weight reads nothing, so an
            # in-grid query never leaves the padded state
            M.fill(0.0)
            for di, wx in ((0, 1 - fx), (1, fx)):
                for dj, wy in ((0, 1 - fy), (1, fy)):
                    if wx * wy != 0.0:
                        self._corr(i + di, j + dj, C, self._K)
                        C *= wx * wy
                        M += C
            # a slice repeats one (px, u) column per pair: reuse the last
            # phases when its bytes match (so -0.0 and 0.0 differ)
            key = pxf[idx].tobytes(), uf[idx].tobytes()
            if key != memo[0]:
                memo = key, self._phases(pxf[idx], uf[idx][:, None])
            A, F = memo[1]
            out[idx] = self._contract(M, A, F[:, :, 0])
        self._check_real(float(np.abs(out.imag).max(initial=0)),
                         float(np.abs(out.real).max(initial=0)))
        return out.real.reshape(shape) if shape else float(out[0].real)

    def _check_real(self, worst_imag: float, worst_real: float) -> None:
        """W is real up to round-off, or the quadrature itself is wrong;
        takes running maxima of |Im W| and |Re W|, the latter the scale."""
        scale = max(worst_real, 1.0 / self._pi_hbar2)
        if worst_imag > 1e-10 * scale:
            raise CheckFailure(f"transform lost realness: imaginary part "
                               f"{worst_imag:.3e} against scale {scale:.3e}")


def _snap(f: float) -> float:
    """A fractional grid index, rounded onto a node within 1e-9 of it."""
    r = round(f)
    return r if abs(f - r) < 1e-9 else f


class EvolvedWigner:
    """W(z, t) = W0(flow^{-t} z): backward transport along the exact flow."""

    def __init__(self, base, params: NCParams, t: float):
        self.base = base
        self._back = flow_matrix(params, -float(t)).tolist()

    def at(self, x, y, px, py):
        M = self._back
        # explicit linear combination keeps dual numbers usable
        z0 = [M[i][0] * x + M[i][1] * y + M[i][2] * px + M[i][3] * py
              for i in range(4)]
        return self.base.at(*z0)


# the names the benchmark's ensemble calls
wigner_ground_state = GroundStateWigner
evolve_liouville = EvolvedWigner


@dataclass(frozen=True)
class TableSums:
    """A table's integral, purity and marginals (keyed by basis name)."""

    integral: float
    purity: float
    marginals: dict

    def marginal(self, keep: str) -> GridFunction:
        if keep not in self.marginals:
            raise WignerError(f"unknown marginal {keep!r}")
        return self.marginals[keep]


def _shape(axes) -> tuple:
    if len(axes) != 4:
        raise WignerError("need four axes (x, y, px, py)")
    return tuple(len(a) for a in axes)


def table_sums(rows, axes, p: NCParams) -> TableSums:
    """Every reduction of a table in one pass over its x-rows R_i[y, px, py],
    a stored table or a quadrature_rows stream: the integral and marginals
    in dx dy dpx dpy, and the purity (2 pi hbar)^2 integral W^2, which is 1
    for a pure state and is clipped to [0, 1] after a 1e-6 tolerance."""
    shape = _shape(axes)
    w = [trapezoid_weights(a) for a in axes]
    pure, xpy, ypx, pp = [], [], 0.0, 0.0
    # rows is read to its end, which runs a stream's realness check
    for i, R in enumerate(rows):
        if i >= shape[0] or np.shape(R) != shape[1:]:
            raise WignerError(f"row {i} of shape {np.shape(R)} does not fit "
                              f"a table of shape {shape}")
        # sum_jkl w1_j w2_k w3_l R[j, k, l]^2: no table-sized product
        pure.append(w[1] @ ((R * R) @ w[3]) @ w[2])
        P = np.tensordot(w[1], R, 1)            # (px, py): y summed out
        xpy.append(w[2] @ P)
        ypx = ypx + w[0][i] * (R @ w[3])
        pp = pp + w[0][i] * P
    if len(pure) != shape[0]:
        raise WignerError(f"{len(pure)} rows for {shape[0]} x nodes")
    purity = (2.0 * math.pi * p.hbar) ** 2 * float(w[0] @ pure)
    if purity > 1.0 + 1e-6:
        raise WignerError(f"purity {purity!r} exceeds 1 beyond tolerance")
    # the integral is that of the (x, py) marginal
    return TableSums(float(w[0] @ (xpy @ w[3])), min(max(purity, 0.0), 1.0), {
        "xpy": GridFunction(axes[0], axes[3], np.array(xpy), "xpy"),
        "ypx": GridFunction(axes[1], axes[2], ypx, "ypx"),
        "p": GridFunction(axes[2], axes[3], pp, "p")})


def wigner_table(W, axes) -> np.ndarray:
    """W sampled on the (x, y, px, py) product grid of axes, a 4-D array: a
    grid state stores the rows of quadrature_rows, a closed-form evaluator
    accepts any axes."""
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    shape = _shape(axes)
    if isinstance(W, QuadratureWigner):
        vals = np.empty(shape)
        for i, row in enumerate(quadrature_rows(W, axes)):
            vals[i] = row
        return vals
    z = np.meshgrid(*axes, indexing="ij", sparse=True)
    return np.broadcast_to(np.asarray(W.at(*z)), shape).copy()


def quadrature_rows(W: QuadratureWigner, axes):
    """Yield the x-rows R_i[y, px, py] of W's table on axes (x and py those
    of the state grid), each a fresh array.  Row x_i sums the correlation
    psi(x - zeta_k, py - eta_l) psi*(x + zeta_k, py + eta_l) only over |k|
    <= min(i, nx - 1 - i), where both factors lie on the grid (the rest are
    exact zeros); the realness check reads running maxima of |Im S| and
    |Re S| kept per row and runs after the last row."""
    psi = W.psi
    xa, ya, pxa, pya = axes
    if not np.array_equal(xa, psi.axis1) or not np.array_equal(pya, psi.axis2):
        raise WignerError(
            "table axes 0 and 3 must coincide with the state grid")
    A, F = W._phases(pxa, W._guard(xa, ya[None, :], pxa[:, None], pya))
    (nx, ny), K = psi.values.shape, W._K
    M = np.empty((2 * K + 1, ny, 2 * W._L + 1), dtype=complex)
    worst_imag = worst_real = 0.0
    for i in range(nx):
        r = min(i, nx - 1 - i)      # the rest of the zeta lattice reads zeros
        S = W._contract(W._corr(i, slice(None), M[:2 * r + 1], r),
                        A[:, K - r:K + r + 1], F)            # (na, ny, nb)
        worst_imag = max(worst_imag, float(np.abs(S.imag).max(initial=0)))
        worst_real = max(worst_real, float(np.abs(S.real).max(initial=0)))
        yield np.ascontiguousarray(np.transpose(S.real, (2, 0, 1)))
    W._check_real(worst_imag, worst_real)
