"""Tunneling two-state system and its coarse-grained mass-density statistics.

A particle confined near two potential minima reduces, at macroscopic
resolution, to a qubit: |+> = (1, 0)^T localized in the right well and
|-> = (0, 1)^T in the left.  Tunneling at angular rate nu with phase chi
evolves the well projectors, and the mass density sampled over the well
regions inherits the qubit's quantum statistics.  Everything here is closed
form on 2x2 matrices; natural units hbar = 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class TunnelingParams:
    """Tunneling rate nu and phase chi of the double-well qubit."""

    nu: float
    chi: float = 0.0

    def __post_init__(self):
        if not 0 <= self.nu < np.inf:
            raise ValueError(f"tunneling rate must be nonnegative and finite, got {self.nu}")
        if not abs(self.chi) < np.inf:
            raise ValueError(f"tunneling phase must be finite, got {self.chi}")


@dataclass(frozen=True)
class QubitState:
    """Well amplitudes (c_plus, c_minus), normalized to 1 within 1e-12.

    The Bloch-type parameters are always recomputed, never stored: delta is
    the population asymmetry and (beta, gamma) are the real and imaginary
    parts of 2 conj(c_plus) c_minus e^{i chi}, so they depend on the
    tunneling phase chi.
    """

    c_plus: complex
    c_minus: complex

    def __post_init__(self):
        n2 = abs(self.c_plus) ** 2 + abs(self.c_minus) ** 2
        if not abs(n2 - 1.0) <= _NORM_TOL:
            raise ValueError(f"amplitudes have squared norm {n2}, expected 1")

    @property
    def delta(self) -> float:
        return abs(self.c_plus) ** 2 - abs(self.c_minus) ** 2

    def bloch(self, chi: float) -> tuple[float, float, float]:
        """(delta, beta, gamma) for tunneling phase chi."""
        cross = 2.0 * np.conj(self.c_plus) * self.c_minus * np.exp(1j * chi)
        return self.delta, float(cross.real), float(cross.imag)


@dataclass(frozen=True)
class SmearedDensityParams:
    """Particle mass m and smearing scale ell of the well-region sampling."""

    m: float
    ell: float

    def __post_init__(self):
        if not 0 < self.m < np.inf:
            raise ValueError(f"mass must be positive and finite, got {self.m}")
        if not 0 < self.ell < np.inf:
            raise ValueError(f"smearing scale must be positive and finite, got {self.ell}")


def _check_sign(a) -> None:
    labels = np.asarray(a)
    if not np.all((labels == 1) | (labels == -1)):
        raise ValueError(f"well label must be +1 or -1, got {a!r}")


def mean_density(
    state: QubitState,
    density: SmearedDensityParams,
    a,
    params: TunnelingParams,
    t,
) -> float | np.ndarray:
    """Mean smeared mass density read off well a at time t.

    (m / 2 ell^3) [1 + a (delta cos(nu t) + beta sin(nu t))]; the sum over
    both wells is m / ell^3 identically.  Arrays of a and t broadcast.
    """
    _check_sign(a)
    delta, beta, _ = state.bloch(params.chi)
    nt = params.nu * t
    bracket = 1.0 + a * (delta * np.cos(nt) + beta * np.sin(nt))
    val = density.m / (2.0 * density.ell**3) * bracket
    return float(val) if np.ndim(val) == 0 else val


def two_time_quantum_corr(
    state: QubitState,
    density: SmearedDensityParams,
    a1,
    a2,
    params: TunnelingParams,
    t1,
    t2,
) -> complex | np.ndarray:
    """Quantum two-time density correlation <mu(a2, t2) mu(a1, t1)>.

    Equals (m^2/ell^6) <P(a2, t2) P(a1, t1)> with Heisenberg projectors; the
    lag term a1 a2 (cos(nu (t2-t1)) - i gamma sin(nu (t2-t1))) carries unit
    weight, as the projector product algebra requires.  Times must be
    ordered t1 <= t2.  Arrays of labels and times broadcast.
    """
    _check_sign(a1)
    _check_sign(a2)
    if not np.all(np.less_equal(t1, t2)):
        raise ValueError(f"times must be ordered t1 <= t2, got {t1} > {t2}")
    delta, beta, gamma = state.bloch(params.chi)
    nu = params.nu
    x1 = delta * np.cos(nu * t1) + beta * np.sin(nu * t1)
    x2 = delta * np.cos(nu * t2) + beta * np.sin(nu * t2)
    lag = nu * (t2 - t1)
    bracket = (
        1.0
        + a1 * x1
        + a2 * x2
        + a1 * a2 * (np.cos(lag) - 1j * gamma * np.sin(lag))
    )
    val = density.m**2 / (4.0 * density.ell**6) * bracket
    return complex(val) if np.ndim(val) == 0 else val


def two_time_statistical_corr(
    state: QubitState,
    density: SmearedDensityParams,
    a1,
    a2,
    params: TunnelingParams,
    t1,
    t2,
) -> float | np.ndarray:
    """Statistical (measured) two-time correlation of the well densities.

    Equals (m^2/ell^6) P_2(a1, t1; a2, t2) where P_2 is the two-step
    projective measurement probability for outcome a1 at t1 followed by a2
    at t2.  Real by construction; marginalizing over a2 returns
    (m^2/ell^6) P_1(a1, t1).  Arrays of labels and times broadcast.
    """
    _check_sign(a1)
    _check_sign(a2)
    if not np.all(np.less_equal(t1, t2)):
        raise ValueError(f"times must be ordered t1 <= t2, got {t1} > {t2}")
    delta, beta, _ = state.bloch(params.chi)
    nu = params.nu
    x1 = delta * np.cos(nu * t1) + beta * np.sin(nu * t1)
    lag_cos = np.cos(nu * (t2 - t1))
    bracket = 1.0 + a1 * x1 + a2 * lag_cos * x1 + a1 * a2 * lag_cos
    val = density.m**2 / (4.0 * density.ell**6) * bracket
    return float(val) if np.ndim(val) == 0 else val
