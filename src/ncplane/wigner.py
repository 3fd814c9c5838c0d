"""Phase-space quasi-distributions for the deformed plane.

The Wigner transform acts on wave functions in the (x, p_y) basis:

    W(x, y, px, py) = (1/pi^2 hbar^2) * integral dzeta deta
        exp{2i [zeta px - eta (y - theta px)] / hbar}
        psi(x - zeta, py - eta) psi*(x + zeta, py + eta)

The theta-dependent phase shift makes the y marginal land on the
commuting combination y - theta px, which is what reproduces |psi|^2 in
all three mixed bases at once.  In the (p_x, p_y) basis the same W is the
commutative Wigner function at the sheared positions x + theta py/2 and
y - theta px/2.  Evaluation strategies: exact closed form for the
(possibly displaced) ground state, trapezoid quadrature over the factors
of a separable state, and backward transport along the closed-form
classical flow for time evolution.  A table is a plain 4-D array, or the
stream of its x-rows that quadrature_rows yields, and table_sums is its
one reduction.
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
from .spectra import AliasingError, Separable


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
    """Wigner function of psi = sum_k c_k f_k(p_x) g_k(p_y), a separable
    state, by trapezoid quadrature over its factors at the sheared
    positions X = x + theta p_y/2, Y = y - theta p_x/2:

        W = (pi hbar)^-2 Re sum_kl c_k c_l* w^f_kl(X, p_x) w^g_kl(Y, p_y)
        w^f_kl(X, p) = h' sum_r f_k(p - zeta_r) f_l*(p + zeta_r) e^{-2i zeta_r X/hbar}

    with zeta_r = r h', |r| <= s (n - 1) // 2 on an axis of n nodes and
    step h.  The factors are read at any momentum (Separable.columns), so
    h' = h / s for the least s with h' <= pi hbar / (2 max|X|) over the
    request: the sum never aliases.  As w^f_lk = conj(w^f_kl), a pair k <
    l is summed once and doubled, and W is real when each w_kk is."""

    def __init__(self, psi: Separable, params: NCParams):
        if getattr(psi, "columns", None) is None:
            raise WignerError("the factor sum reads the state's factors off "
                              "its grid; pass a state that knows them")
        self.psi, self.params = psi, params
        self._pi_hbar2 = _pi_hbar_squared(params.hbar)
        k, l = self._pairs = np.triu_indices(len(psi.c))
        # c_k c_l* w^f w^g is O(1) at every scale: 1/(pi hbar)^2 comes last
        self._coef = np.where(k == l, 1.0, 2.0) * psi.c[k] * np.conj(psi.c[l])
        self._diag = np.flatnonzero(k == l)

    def _side(self, i, p, q):
        """(F, zeta) on axis i at momenta p, F[a, m, r] = h' f_k(p_m - zeta_r)
        f_l*(p_m + zeta_r), h' resolving exp(-2i zeta q/hbar) at all q."""
        ax, hbar = self.psi.axes[i], self.params.hbar
        h, reach = float(ax[1] - ax[0]), 2.0 * float(np.abs(q).max(initial=0))
        s = math.ceil(min(h * reach / (math.pi * hbar), MAX_OFFSETS)) or 1
        s += reach > 0 and h / s > math.pi * hbar / reach   # ceil's round-off
        R = s * ((len(ax) - 1) // 2)
        if 2 * R + 1 > MAX_OFFSETS:
            raise AliasingError(f"{('X', 'Y')[i]} out to {reach / 2:.3g} needs "
                                f"{2 * R + 1} momentum offsets, over the "
                                f"limit {MAX_OFFSETS}")
        zeta = np.arange(-R, R + 1) * (h / s)
        f = self.psi.columns[i](np.subtract.outer(p, zeta))   # (m, r, k)
        # f(p + zeta_r) = f(p - zeta_{-r}): the same samples, r reversed
        F = f[..., self._pairs[0]] * np.conj(f[:, ::-1, self._pairs[1]])
        return np.moveaxis(F, -1, 0) * (h / s), zeta

    @staticmethod
    def _kernel(F, phase):
        """w[a, m, q] = sum_r F[a, m, r] phase[r, q]; a real F reads phase as
        floats."""
        if np.isrealobj(F):
            return (F @ phase.view(float)).view(complex)
        return F @ phase

    def _points(self, i, p, q):
        """w[a, n] at momenta p[n], sheared positions q[n], by blocks of points
        in q order on the grid of their distinct p and q."""
        up, ip = np.unique(p, return_inverse=True)
        F, zeta = self._side(i, up, q)
        w = np.empty((len(F), q.size), dtype=complex)
        order = np.argsort(q, kind="stable")
        for b in range(0, q.size, _BLOCK):
            n = order[b:b + _BLOCK]
            uq, jq = np.unique(q[n], return_inverse=True)
            um, jm = np.unique(ip[n], return_inverse=True)
            phase = np.exp(np.outer((-2j / self.params.hbar) * zeta, uq))
            w[:, n] = self._kernel(F[:, um], phase)[:, jm, jq]
        self._check_real(self._imag(w), F)
        return w

    def at(self, x, y, px, py):
        x, y, px, py = np.broadcast_arrays(
            *(np.asarray(v, dtype=float) for v in (x, y, px, py)))
        _finite(x=x, y=y, p_x=px, p_y=py)
        th = self.params.theta
        wf = self._points(0, px.ravel(), (x + 0.5 * th * py).ravel())
        wg = self._points(1, py.ravel(), (y - 0.5 * th * px).ravel())
        out = (self._coef @ (wf * wg)).real / self._pi_hbar2
        return out.reshape(x.shape) if x.shape else float(out[0])

    def _imag(self, w) -> float:    # max|Im w_kk|
        return float(np.abs(w[self._diag].imag).max(initial=0))

    def _check_real(self, worst_imag: float, F) -> None:
        """Each w_kk is real up to round-off, against its largest sum of
        |terms| in F, or the factor sum itself is wrong."""
        scale = float(np.abs(F[self._diag]).sum(-1).max(initial=0))
        if worst_imag > 1e-10 * scale:
            raise CheckFailure(f"factor sum lost realness: imaginary part "
                               f"{worst_imag:.3e} against scale {scale:.3e}")


MAX_OFFSETS = 4096  # per axis; past it a query is hundreds of widths out
_BLOCK = 64         # points per block of a pointwise query


def _finite(**coords):
    for name, v in coords.items():
        if not np.isfinite(v).all():
            raise WignerError(f"non-finite {name} in a Wigner query")


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
    factor sum stores the rows of quadrature_rows, a closed-form evaluator
    its values on the broadcast grid."""
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
    """Yield the x-rows R_i[y, px, py] of W's table on any axes, fresh
    arrays: w^g[a, y, px, py] once, then per row w^f[a, px, py] in one
    matmul; the realness check reads running maxima after the last row."""
    xa, ya, pxa, pya = (np.asarray(a, dtype=float) for a in axes)
    _finite(x=xa, y=ya, p_x=pxa, p_y=pya)
    th, hbar = W.params.theta, W.params.hbar
    Ff, zf = W._side(0, pxa, np.add.outer(xa, 0.5 * th * pya))
    Fg, zg = W._side(1, pya, np.subtract.outer(ya, 0.5 * th * pxa))
    # exp(-2i zeta Y/hbar) = exp(-2i zeta y/hbar) exp(i theta zeta px/hbar)
    phase = (np.exp(np.outer((-2j / hbar) * zg, ya))[:, :, None]
             * np.exp(np.outer((1j * th / hbar) * zg, pxa))[:, None, :])
    wg = W._kernel(Fg, phase.reshape(zg.size, -1))      # (a, py, y px)
    W._check_real(W._imag(wg), Fg)
    wg = np.moveaxis(wg.reshape(len(Fg), pya.size, ya.size, pxa.size), 1, -1)
    # Re(v w) = Re v Re w - Im v Im w: the pairs' real parts, stacked
    G = np.concatenate([wg.real, -wg.imag]) / W._pi_hbar2
    # exp(-2i zeta X/hbar) = exp(-2i zeta x_i/hbar) exp(-i theta zeta py/hbar)
    half = np.exp(np.outer((-1j * th / hbar) * zf, pya))       # (r, py)
    worst = 0.0
    for x in xa:
        wf = W._kernel(Ff, np.exp((-2j / hbar) * x * zf)[:, None] * half)
        worst = max(worst, W._imag(wf))
        wf *= W._coef[:, None, None]
        yield np.einsum("aypq,apq->ypq", G, np.concatenate([wf.real, wf.imag]))
    W._check_real(worst, Ff)
