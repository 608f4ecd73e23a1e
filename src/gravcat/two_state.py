"""Tunneling two-state system and its coarse-grained mass-density statistics.

A particle confined near two potential minima reduces, at macroscopic
resolution, to a qubit: |+> = (1, 0)^T localized in the right well and
|-> = (0, 1)^T in the left.  Tunneling at angular rate nu with phase chi
evolves the well projectors, and the mass density sampled over the well
regions has a closed-form mean (`mean_density`) and quantum and statistical
two-time correlations (`two_time_correlations`); natural units hbar = 1.
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

    def bloch(self, chi: float) -> tuple[float, float, float]:
        """(delta, beta, gamma) for tunneling phase chi."""
        cross = 2.0 * np.conj(self.c_plus) * self.c_minus * np.exp(1j * chi)
        delta = abs(self.c_plus) ** 2 - abs(self.c_minus) ** 2
        return delta, float(cross.real), float(cross.imag)


@dataclass(frozen=True)
class SmearedDensityParams:
    """Particle mass m and smearing scale ell of the well-region sampling."""

    m: float
    ell: float


def _check_sign(a) -> None:
    labels = np.asarray(a)
    if not np.all((labels == 1) | (labels == -1)):
        raise ValueError(f"well label must be +1 or -1, got {a!r}")


def _polarization(delta, beta, nu, t):
    """delta cos(nu t) + beta sin(nu t): the well asymmetry at time t."""
    nt = nu * t
    return delta * np.cos(nt) + beta * np.sin(nt)


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
    val = density.m / (2.0 * density.ell**3) * (1.0 + a * _polarization(delta, beta, params.nu, t))
    return float(val) if np.ndim(val) == 0 else val


def two_time_correlations(
    state: QubitState,
    density: SmearedDensityParams,
    a1,
    a2,
    params: TunnelingParams,
    t1,
    t2,
) -> tuple[complex | np.ndarray, float | np.ndarray]:
    """(quantum, statistical) two-time correlations of the well densities.

    quantum = <mu(a2, t2) mu(a1, t1)> = (m^2/ell^6) <P(a2, t2) P(a1, t1)>
    with Heisenberg projectors, the analogue of the noise kernel; its lag
    term a1 a2 (cos(nu (t2-t1)) - i gamma sin(nu (t2-t1))) carries unit
    weight, as the projector product algebra requires.  statistical =
    (m^2/ell^6) P_2(a1, t1; a2, t2), the probability of outcome a1 at t1 and
    then a2 at t2 in two projective readings: real, and its sum over a2 is
    (m^2/ell^6) P_1(a1, t1).  Times must be ordered t1 <= t2.  Arrays of
    labels and times broadcast; all-scalar calls return (complex, float).
    """
    _check_sign(a1)
    _check_sign(a2)
    if not np.all(np.less_equal(t1, t2)):
        raise ValueError(f"times must be ordered t1 <= t2, got {t1} > {t2}")
    delta, beta, gamma = state.bloch(params.chi)
    x1, lag = _polarization(delta, beta, params.nu, t1), params.nu * (t2 - t1)
    lag_cos = np.cos(lag)
    scale = density.m**2 / (4.0 * density.ell**6)
    quantum = scale * (1.0 + a1 * x1 + a2 * _polarization(delta, beta, params.nu, t2)
                       + a1 * a2 * (lag_cos - 1j * gamma * np.sin(lag)))
    statistical = scale * (1.0 + a1 * x1 + a2 * lag_cos * x1 + a1 * a2 * lag_cos)
    if np.ndim(quantum) == 0:  # both have the broadcast shape of all four arguments
        return complex(quantum), float(statistical)
    return quantum, statistical
