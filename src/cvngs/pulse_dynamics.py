"""Post-pulse covariance matrix and derived rates for the red-detuned pulsed protocol.

Frequencies are specified the way experiments quote them, as nu = omega/2pi in
MHz; only ratios and the product G*tau enter the state, so the covariance code
works with the /2pi values directly while tau conversions restore SI seconds.
"""

from __future__ import annotations

import math
import warnings
from copy import copy
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainError, NumericalDomainError
from .gaussian_core import (CovMatrix, SqueezeSpec, check_physical,
                            epr_steering_MtoC, initial_covariance,
                            logarithmic_negativity)

TWO_PI_MHZ = 2.0 * math.pi * 1e6


@dataclass(frozen=True)
class SystemParams:
    """Physical rates of the optomechanical system.

    g_mhz, kappa_mhz, gamma_mhz are the linearized coupling, cavity decay and
    mechanical decay as (rate/2pi) in MHz.
    """

    g_mhz: float
    kappa_mhz: float
    gamma_mhz: float = 0.0
    n_m: float = 0.0
    squeeze: SqueezeSpec = field(default_factory=lambda: SqueezeSpec(1.0))

    def __post_init__(self):
        if not self.g_mhz > 0 or not self.kappa_mhz > 0:
            raise DomainError("g and kappa must be positive")
        if self.gamma_mhz < 0:
            raise DomainError("gamma must be >= 0")
        if self.n_m < 0:
            raise DomainError("thermal occupation must be >= 0")
        if self.kappa_mhz < 3.0 * self.g_mhz:
            warnings.warn("kappa < 3 g: bad-cavity approximation degrades",
                          RuntimeWarning, stacklevel=3)

    @property
    def G_mhz(self) -> float:
        """Effective mechanical decay rate, G = g^2/kappa + gamma (as /2pi MHz)."""
        return self.g_mhz ** 2 / self.kappa_mhz + self.gamma_mhz

    @property
    def G_rad(self) -> float:
        """G in angular units, rad/s."""
        return self.G_mhz * TWO_PI_MHZ

    @property
    def cooperativity(self) -> float:
        """C_om = g^2 / (kappa gamma); infinite for gamma = 0."""
        if self.gamma_mhz == 0.0:
            return math.inf
        return self.g_mhz ** 2 / (self.kappa_mhz * self.gamma_mhz)

    def with_squeeze_db(self, db: float) -> "SystemParams":
        out = copy(self)        # replace() would re-run __post_init__ and its warning
        object.__setattr__(out, "squeeze", SqueezeSpec.from_db(db))
        return out


@dataclass(frozen=True)
class PulseSpec:
    """Pulse duration / effective beam-splitter reflectivity, R = exp(-2 G tau)."""

    R: float

    def __post_init__(self):
        if not 0.0 < self.R <= 1.0:
            raise DomainError(f"reflectivity must lie in (0, 1], got {self.R}")

    @classmethod
    def from_tau(cls, tau_s: float, params: SystemParams) -> "PulseSpec":
        if tau_s < 0:
            raise DomainError(f"duration must be >= 0, got {tau_s}")
        return cls(math.exp(-2.0 * params.G_rad * tau_s))

    def tau_s(self, params: SystemParams) -> float:
        return -math.log(self.R) / (2.0 * params.G_rad)

    @property
    def T(self) -> float:
        return 1.0 - self.R


def covariance_after_pulse(params: SystemParams, pulse: PulseSpec) -> CovMatrix:
    """Two-mode covariance of (M_out, C_out) after the pulsed interaction.

    Built from the closed-form blocks in terms of r1 = g^2/(kappa G),
    r2 = gamma/G, R = exp(-2 G tau), T = 1 - R and the input squeezing.
    """
    R, T = pulse.R, pulse.T
    s = params.squeeze.linear
    occ = 1.0 + 2.0 * params.n_m
    if R == 1.0:
        return initial_covariance(params.n_m, s)

    r1 = params.g_mhz ** 2 / (params.kappa_mhz * params.G_mhz)
    r2 = params.gamma_mhz / params.G_mhz
    two_g_tau = -math.log(R)
    # 2 G tau / T has a removable singularity at T -> 0; series below T < 1e-6
    if T < 1e-6:
        tq = 1.0 + T / 2.0 + T * T / 3.0
    else:
        tq = two_g_tau / T

    Sm = np.diag([s, 1.0 / s])
    I2 = np.eye(2)
    VM = 0.5 * (T * r1 * Sm + (R + r2 * T) * occ * I2)
    VMC = math.sqrt(r1 * T * R) / 2.0 * (
        (r1 + r2 * tq) * Sm - (1.0 + r2 * (tq - 1.0)) * occ * I2)
    VC = 0.5 * (
        (r1 * r1 * R + r2 * r2 + 2.0 * r1 * r2 * tq * R) * Sm
        + (r1 * T + r1 * r2 * (R + 1.0 - 2.0 * tq * R)) * occ * I2)

    V = np.zeros((4, 4))
    V[:2, :2] = VM
    V[2:, 2:] = VC
    V[:2, 2:] = VMC
    V[2:, :2] = VMC.T
    out = CovMatrix(V)
    ok, nu = check_physical(out)
    if not ok:
        raise NumericalDomainError(
            f"post-pulse covariance unphysical (min symplectic eig {nu:.3e}) "
            f"at R={R}, S_in={s}, params={params}")
    return out


def correlation_sweep(params: SystemParams, r_grid, squeeze_db_grid) -> list[dict]:
    """Rows of (R, tau_s, S_in_dB, E_N, steering_MC) over the grid, in input order."""
    r_grid = list(r_grid)
    squeeze_db_grid = list(squeeze_db_grid)
    if not r_grid or not squeeze_db_grid:
        raise DomainError("sweep grids must be non-empty")
    rows = []
    for db in squeeze_db_grid:
        p = params.with_squeeze_db(db)
        for r in r_grid:
            pulse = PulseSpec(r)
            V = covariance_after_pulse(p, pulse)
            rows.append({
                "R": float(r),
                "tau_s": pulse.tau_s(p),
                "S_in_dB": float(db),
                "E_N": logarithmic_negativity(V),
                "steering_MC": epr_steering_MtoC(V),
            })
    return rows
