"""Shared physical parameters of the noncommutative plane, and the error
every numerical consistency check raises."""

from __future__ import annotations

import math
from dataclasses import dataclass


class CheckFailure(RuntimeError):
    """A computed result missed a numerical consistency check (exit 1)."""


@dataclass(frozen=True)
class NCParams:
    """Mass, oscillator frequency, NC parameter theta, hbar and kB.

    theta carries units of area/action classically; the quantum position
    commutator is [x, y] = i*hbar*theta.  omega is consulted only by the
    oscillator-dependent operations and may be 0 for free-particle work.
    """

    m: float = 1.0
    omega: float = 1.0
    theta: float = 0.0
    hbar: float = 1.0
    kB: float = 1.0

    def __post_init__(self):
        for name in ("m", "omega", "theta", "hbar", "kB"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.m <= 0:
            raise ValueError(f"m must be positive, got {self.m}")
        if self.omega < 0:
            raise ValueError(f"omega must be nonnegative, got {self.omega}")
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if self.kB <= 0:
            raise ValueError(f"kB must be positive, got {self.kB}")

    def require_omega(self):
        if self.omega <= 0:
            raise ValueError("operation requires omega > 0")
        return self.omega

    # Oscillator scales.  The flow z' = J(theta) A z has eigenvalues +-i phi,
    # +-i chi with phi chi = omega^2 and phi - chi = lam; the levels are
    # E(n, two_j) = a (n + 1) - b two_j.

    @property
    def lam(self) -> float:
        """lam = m theta omega^2 = phi - chi (signed)."""
        return self.m * self.theta * self.omega ** 2

    @property
    def u(self) -> float:
        """u = (m omega theta)^2 / 4; sqrt(1 + u) = (phi + chi) / (2 omega)."""
        self.require_omega()
        return (self.m * self.omega * self.theta) ** 2 / 4.0

    @property
    def w_eff(self) -> float:
        """w_eff = omega / sqrt(1 + u) <= omega, the reduced frequency."""
        return self.omega / math.sqrt(1.0 + self.u)

    @property
    def width(self) -> float:
        """sqrt(m hbar w_eff), the ground state's momentum width."""
        return math.sqrt(self.m * self.hbar * self.w_eff)

    @property
    def a(self) -> float:
        """a = hbar omega sqrt(1 + u) = hbar (phi + chi) / 2."""
        return self.hbar * self.omega * math.sqrt(1.0 + self.u)

    @property
    def b(self) -> float:
        """b = hbar lam / 2 = hbar (phi - chi) / 2."""
        return self.hbar * self.lam / 2.0
