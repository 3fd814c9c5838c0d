"""Phase-space quasi-distributions for the deformed plane.

The Wigner transform acts on wave functions in the (x, p_y) basis:

    W(x, y, px, py) = (1/pi^2 hbar^2) * integral dzeta deta
        exp{2i [zeta px - eta (y - theta px)] / hbar}
        psi(x - zeta, py - eta) psi*(x + zeta, py + eta)

The theta-dependent phase shift makes the y marginal land on the
commuting combination y - theta px, which is what reproduces |psi|^2 in
all three mixed bases at once.  Evaluation strategies: exact closed form
for the (possibly displaced) ground state, trapezoid quadrature of the
defining integral for grid states, convex mixtures, and backward
transport along the closed-form classical flow for time evolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import duals
from .duals import Dual
from .params import CheckFailure, NCParams
from .phasespace import PhasePoint, ScalarField
from .dynamics import oscillator_solution
from .grids import GridFunction, trapezoid_weights
from .spectra import AliasingError, effective_frequency


class WignerError(ValueError):
    """Ill-posed Wigner construction or evaluation request."""


def _exp(q):
    if isinstance(q, Dual):
        return duals.exp(q)
    return np.exp(q)


class GroundStateWigner:
    """Closed-form ground-state distribution, optionally displaced.

    W(z) = (1/pi^2 hbar^2) exp{ -p^2/(m hbar w_eff)
          - (m w_eff/hbar) [(x + theta py/2)^2 + (y - theta px/2)^2] }
    evaluated at z - center.  Accepts floats, numpy arrays, or dual
    numbers in any coordinate, so it can be differentiated in place.
    """

    def __init__(self, params: NCParams, center=None):
        params.require_omega()
        self.params = params
        if center is None:
            center = (0.0, 0.0, 0.0, 0.0)
        elif isinstance(center, PhasePoint):
            center = (center.x, center.y, center.px, center.py)
        self.center = tuple(float(c) for c in center)

    def at(self, x, y, px, py):
        p = self.params
        cx, cy, cpx, cpy = self.center
        x, y, px, py = x - cx, y - cy, px - cpx, py - cpy
        weff = effective_frequency(p)
        s2 = p.m * p.hbar * weff
        q = (-(px * px + py * py) / s2
             - (p.m * weff / p.hbar)
             * ((x + 0.5 * p.theta * py) ** 2 + (y - 0.5 * p.theta * px) ** 2))
        return _exp(q) / (math.pi * p.hbar) ** 2

    def as_scalar_field(self, name="W"):
        return ScalarField(lambda x, y, px, py, t: self.at(x, y, px, py), name)


class QuadratureWigner:
    """Wigner transform of an (x, p_y) grid state by direct quadrature.

    zeta and eta run over the full lattice of grid offsets.  The state is
    treated as zero outside its grid (valid when the boundary amplitude
    is negligible), so W = 0 exactly for any (x, py) off the grid.  An
    (x, py) within 1e-9 grid steps of a node is snapped onto it; other
    off-node requests interpolate the correlation
    psi(x - zeta, py - eta) psi*(x + zeta, py + eta) bilinearly between
    the four surrounding nodes, which is exact on the nodes.
    """

    def __init__(self, psi: GridFunction, params: NCParams):
        if psi.basis != "xpy":
            raise WignerError(
                f"the transform consumes (x, p_y) wave functions, "
                f"got basis {psi.basis!r}")
        self.psi = psi
        self.params = params
        nx, ny = psi.values.shape
        self._K, self._L = nx - 1, ny - 1
        pad = np.zeros((3 * nx - 2, 3 * ny - 2), dtype=complex)
        pad[self._K:self._K + nx, self._L:self._L + ny] = psi.values
        # win[r, j, l] = pad[r, j + l]: exactly ny windows of 2L+1 columns
        self._win = np.lib.stride_tricks.sliding_window_view(
            pad, 2 * self._L + 1, axis=1)
        self._zeta = np.arange(-self._K, self._K + 1) * psi.step1
        self._eta = np.arange(-self._L, self._L + 1) * psi.step2
        self._pref = psi.step1 * psi.step2 / (math.pi * params.hbar) ** 2

    def _alias_guard(self, y, px):
        """The integrand oscillates as exp{2i[zeta px - eta(y - theta px)]/hbar};
        both grid steps must stay under half a period of it."""
        p = self.params
        r1 = float(np.abs(px).max())
        r2 = float(np.abs(np.asarray(y) - p.theta * np.asarray(px)).max())
        lim1 = math.pi * p.hbar / (2.0 * r1) if r1 > 0 else math.inf
        lim2 = math.pi * p.hbar / (2.0 * r2) if r2 > 0 else math.inf
        if self.psi.step1 > lim1 or self.psi.step2 > lim2:
            raise AliasingError(
                f"state grid steps ({self.psi.step1:.3g}, {self.psi.step2:.3g}) "
                f"cannot resolve the transform phase out to |px| = {r1:.3g}, "
                f"|y - theta px| = {r2:.3g} (limits {lim1:.3g}, {lim2:.3g})")

    def _corr(self, i, j, out):
        """M[k, ..., l] = psi(x_i - zeta_k, py_j - eta_l)
        psi*(x_i + zeta_k, py_j + eta_l) for node row i and node column(s) j,
        written into out.

        rows[k, ..., l] = psi(x_i + zeta_k, py_j + eta_l); reversing k and l
        turns it into psi(x_i - zeta_k, py_j - eta_l), all as views."""
        rows = self._win[i:i + 2 * self._K + 1, j]
        M = np.conjugate(rows, out=out)
        return np.multiply(rows[::-1, ..., ::-1], M, out=M)

    def at(self, x, y, px, py):
        p = self.params
        x, y, px, py = np.broadcast_arrays(
            *(np.asarray(v, dtype=float) for v in (x, y, px, py)))
        self._alias_guard(y, px)
        shape = x.shape
        xf, yf, pxf, pyf = (v.ravel() for v in (x, y, px, py))
        nx, ny = self.psi.values.shape
        out = np.zeros(xf.size)
        M = np.empty((2 * self._K + 1, 2 * self._L + 1), dtype=complex)
        C = np.empty_like(M)
        worst_imag = 0.0
        pairs = {}
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
                        self._corr(i + di, j + dj, C)
                        C *= wx * wy
                        M += C
            idx = np.asarray(idx)
            A = np.exp(2j * np.outer(pxf[idx], self._zeta) / p.hbar)
            E = np.exp(-2j * np.outer(yf[idx] - p.theta * pxf[idx],
                                      self._eta) / p.hbar)
            vals = np.einsum("nl,nl->n", A @ M, E) * self._pref
            worst_imag = max(worst_imag, float(np.abs(vals.imag).max()))
            out[idx] = vals.real
        scale = max(float(np.abs(out).max()), 1.0 / (math.pi * p.hbar) ** 2)
        if worst_imag > 1e-10 * scale:
            raise CheckFailure(
                f"transform lost realness: imaginary part {worst_imag:.3e} "
                f"against scale {scale:.3e}")
        return out.reshape(shape) if shape else float(out[0])


def _snap(f: float) -> float:
    """A fractional grid index, rounded onto a node within 1e-9 of it."""
    r = round(f)
    return r if abs(f - r) < 1e-9 else f


class MixedWigner:
    """Convex mixture of pure-state evaluators."""

    def __init__(self, components):
        comps = [(float(w), ev) for w, ev in components]
        if not comps:
            raise WignerError("a mixture needs at least one component")
        if any(w < 0 for w, _ in comps):
            raise WignerError("mixture weights must be non-negative")
        total = sum(w for w, _ in comps)
        if abs(total - 1.0) > 1e-12:
            raise WignerError(f"mixture weights sum to {total!r}, not 1")
        self.components = comps

    def at(self, x, y, px, py):
        acc = 0.0
        for w, ev in self.components:
            acc = acc + w * ev.at(x, y, px, py)
        return acc


def flow_matrix(p: NCParams, t: float, kind: str = "oscillator") -> np.ndarray:
    """Linear phase-space flow map z(t) = M z(0) for the closed-form motions."""
    if kind == "free":
        M = np.eye(4)
        M[0, 2] = M[1, 3] = t / p.m
        return M
    if kind == "oscillator":
        cols = []
        for k in range(4):
            e = np.zeros(4)
            e[k] = 1.0
            cols.append(oscillator_solution(PhasePoint(*e), t, p).as_array())
        return np.column_stack(cols)
    raise WignerError(f"unknown flow kind {kind!r}")


class EvolvedWigner:
    """W(z, t) = W0(flow^{-t} z): backward transport along the exact flow."""

    def __init__(self, base, params: NCParams, t: float,
                 kind: str = "oscillator"):
        self.base = base
        self.params = params
        self.t = float(t)
        self.kind = kind
        self._back = flow_matrix(params, -self.t, kind).tolist()

    def at(self, x, y, px, py):
        M = self._back
        # explicit linear combination keeps dual numbers usable
        z0 = [M[i][0] * x + M[i][1] * y + M[i][2] * px + M[i][3] * py
              for i in range(4)]
        return self.base.at(*z0)


def wigner_from_state(psi: GridFunction, p: NCParams) -> QuadratureWigner:
    return QuadratureWigner(psi, p)


def wigner_ground_state(p: NCParams, center=None) -> GroundStateWigner:
    return GroundStateWigner(p, center)


def evolve_liouville(W, p: NCParams, t: float,
                     kind: str = "oscillator") -> EvolvedWigner:
    return EvolvedWigner(W, p, t, kind)


# --- dense tables -----------------------------------------------------------

@dataclass(frozen=True)
class WignerTable:
    """W sampled on an (x, y, px, py) product grid, with quadrature helpers."""

    axes: tuple
    values: np.ndarray
    params: NCParams

    def __post_init__(self):
        if len(self.axes) != 4:
            raise WignerError("need four axes (x, y, px, py)")
        shape = tuple(len(a) for a in self.axes)
        if self.values.shape != shape:
            raise WignerError(
                f"values shape {self.values.shape} does not match axes {shape}")

    def _weights(self):
        return [trapezoid_weights(a) for a in self.axes]

    def integral(self) -> float:
        w = self._weights()
        return float(np.einsum("i,j,k,l,ijkl->", *w, self.values))

    def expectation(self, A) -> float:
        """Plain phase-space average integral W(z) A(z) d^4 z.

        A is a ScalarField or a broadcasting callable of (x, y, px, py).
        """
        fn = A if not isinstance(A, ScalarField) else (
            lambda x, y, px, py: A(x, y, px, py, 0.0))
        X = self.axes[0][:, None, None, None]
        Y = self.axes[1][None, :, None, None]
        PX = self.axes[2][None, None, :, None]
        PY = self.axes[3][None, None, None, :]
        vals = np.asarray(fn(X, Y, PX, PY)) * self.values
        w = self._weights()
        return float(np.einsum("i,j,k,l,ijkl->", *w, vals))

    def overlap(self, other: "WignerTable") -> float:
        """(2 pi hbar)^2 integral W1 W2, clipped to the fidelity range."""
        if any(not np.array_equal(a, b)
               for a, b in zip(self.axes, other.axes)):
            raise WignerError("overlap needs identical table axes")
        w = self._weights()
        raw = (2.0 * math.pi * self.params.hbar) ** 2 * float(
            np.einsum("i,j,k,l,ijkl->", *w, self.values * other.values))
        if raw > 1.0 + 1e-6:
            raise WignerError(f"overlap {raw!r} exceeds 1 beyond tolerance")
        return min(max(raw, 0.0), 1.0)

    def purity(self) -> float:
        return self.overlap(self)

    def minimum(self) -> float:
        return float(self.values.min())

    def marginal(self, keep: str) -> GridFunction:
        """Integrate out the complementary pair; keep is a basis name."""
        w = self._weights()
        if keep == "xpy":
            vals = np.einsum("j,k,ijkl->il", w[1], w[2], self.values)
            return GridFunction(self.axes[0], self.axes[3], vals, "xpy")
        if keep == "ypx":
            vals = np.einsum("i,l,ijkl->jk", w[0], w[3], self.values)
            return GridFunction(self.axes[1], self.axes[2], vals, "ypx")
        if keep == "p":
            vals = np.einsum("i,j,ijkl->kl", w[0], w[1], self.values)
            return GridFunction(self.axes[2], self.axes[3], vals, "p")
        raise WignerError(f"unknown marginal {keep!r}")


def wigner_table(W, axes, params: NCParams | None = None) -> WignerTable:
    """Sample an evaluator on a product grid.

    Grid states require the x and py axes to coincide with the state grid;
    each x row then takes the correlation psi(x - zeta, py - eta)
    psi*(x + zeta, py + eta) for every py node from the same strided
    window that QuadratureWigner.at reads one (x, py) at a time, and
    contracts it in two matrix products.  Closed-form evaluators accept
    any axes.
    """
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    if len(axes) != 4:
        raise WignerError("need four axes (x, y, px, py)")
    if isinstance(W, MixedWigner):
        p = params or W.components[0][1].params
        vals = 0.0
        for wgt, ev in W.components:
            vals = vals + wgt * wigner_table(ev, axes, p).values
        return WignerTable(axes, vals, p)
    if isinstance(W, QuadratureWigner):
        return _quadrature_table(W, axes)
    p = params or W.params
    X = axes[0][:, None, None, None]
    Y = axes[1][None, :, None, None]
    PX = axes[2][None, None, :, None]
    PY = axes[3][None, None, None, :]
    vals = np.broadcast_to(np.asarray(W.at(X, Y, PX, PY)),
                           tuple(len(a) for a in axes)).copy()
    return WignerTable(axes, vals, p)


def _quadrature_table(W: QuadratureWigner, axes) -> WignerTable:
    psi, p = W.psi, W.params
    xa, ya, pxa, pya = axes
    if not np.array_equal(xa, psi.axis1) or not np.array_equal(pya, psi.axis2):
        raise WignerError(
            "table axes 0 and 3 must coincide with the state grid")
    W._alias_guard(ya[:, None], pxa[None, :])
    nx, ny = psi.values.shape
    K, L = W._K, W._L
    A = np.exp(2j * np.outer(pxa, W._zeta) / p.hbar)      # (na, 2K+1)
    D = np.exp(2j * p.theta * np.outer(pxa, W._eta) / p.hbar)
    E = np.exp(-2j * np.outer(W._eta, ya) / p.hbar)       # (2L+1, nb)
    M = np.empty((2 * K + 1, ny, 2 * L + 1), dtype=complex)
    out = np.empty((nx, len(ya), len(pxa), ny))
    worst_imag = 0.0
    for i in range(nx):
        W._corr(i, slice(None), M)                        # (2K+1, ny, 2L+1)
        T = np.tensordot(A, M, axes=(1, 0))               # (na, ny, 2L+1)
        T *= D[:, None, :]
        S = np.tensordot(T, E, axes=(2, 0))               # (na, ny, nb)
        worst_imag = max(worst_imag, float(np.abs(S.imag).max()) * W._pref)
        out[i] = np.transpose(S.real, (2, 0, 1)) * W._pref
    scale = max(float(np.abs(out).max()), 1.0 / (math.pi * p.hbar) ** 2)
    if worst_imag > 1e-10 * scale:
        raise CheckFailure(
            f"transform lost realness: imaginary part {worst_imag:.3e}")
    return WignerTable(tuple(axes), out, p)
