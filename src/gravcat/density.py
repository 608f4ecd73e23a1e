"""Mass-density statistics of a single nonrelativistic particle.

The mass density m |psi|^2 of a quantum particle fluctuates, and its
two-point function is complex: the real part (the noise kernel) is the
candidate classical correlation, the connected part eta measures genuine
fluctuation strength.  This module provides the pointwise correlators built
from the free propagator, their smeared phase-space evaluation through the
Wigner function of the initial state, and the static-limit closed forms for
zero-mean-momentum packets.

Phase-space evaluation is one-dimensional (per axis); separable 3D states
factorize, with the 3D density being m times the product of per-axis
|psi|^2 factors.  Natural units hbar = 1; Newton's constant G defaults to 1
and is a plain parameter otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import gauss_legendre
from .wigner import PhaseSpaceGrid


def newtonian_force(m: float, m0: float, R, x, G: float = 1.0) -> np.ndarray:
    """Newtonian force on a probe of mass m0 at R from a source m at x."""
    R = np.asarray(R, dtype=float)
    x = np.asarray(x, dtype=float)
    d = R - x
    r = float(np.linalg.norm(d))
    if r == 0.0:
        raise ValueError("probe and source positions coincide")
    return -G * m * m0 * d / r**3


def free_propagator_1d(m: float, x, t: float, x2, t2: float):
    """1D free-particle kernel <x2| exp(-i H (t2 - t)) |x>.

    (m / (2 pi i (t2-t)))^(1/2) exp(i m (x - x2)^2 / (2 (t2-t))), principal
    branch.  Positions may be complex (used by contour-rotated quadrature
    checks); times must differ.
    """
    dt = t2 - t
    if dt == 0.0:
        raise ValueError("propagator undefined at equal times (delta-function limit)")
    pref = np.sqrt(m / (2.0j * np.pi * dt))
    diff = np.asarray(x) - np.asarray(x2)
    return pref * np.exp(1j * m * diff**2 / (2.0 * dt))


def free_propagator(m: float, r, t: float, r2, t2: float) -> complex:
    """3D free-particle kernel; modulus (m / (2 pi |t2 - t|))^(3/2)."""
    dt = t2 - t
    if dt == 0.0:
        raise ValueError("propagator undefined at equal times (delta-function limit)")
    r = np.asarray(r, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    dist_sq = float(np.sum((r - r2) ** 2))
    pref = np.power(m / (2.0j * np.pi * dt), 1.5)
    return complex(pref * np.exp(1j * m * dist_sq / (2.0 * dt)))


@dataclass(frozen=True)
class MassDensityCorrelator:
    """Two-point mass-density correlation with its derived pieces.

    `noise_kernel` is the real part, `connected` subtracts the product of
    the one-point means at the two arguments.
    """

    value: complex
    mean_left: float
    mean_right: float

    @property
    def noise_kernel(self) -> float:
        return float(self.value.real)

    @property
    def connected(self) -> complex:
        return self.value - self.mean_left * self.mean_right


def density_mean(state, r, t: float = 0.0, m: float = 1.0) -> float:
    """Mean mass density m |psi(r, t)|^2 of a normalized 3D state."""
    return m * float(np.abs(state.psi(r, t, m)) ** 2)


def density_corr(state, r, t: float, r2, t2: float, m: float = 1.0) -> MassDensityCorrelator:
    """Two-point mass-density correlation at distinct times.

    value = m^2 conj(psi(r, t)) psi(r2, t2) G(r, t; r2, t2); swapping the
    arguments conjugates the value, so the noise kernel is symmetric.
    """
    amp_left = complex(state.psi(r, t, m))
    amp_right = complex(state.psi(r2, t2, m))
    kernel = free_propagator(m, r, t, r2, t2)
    value = m**2 * np.conj(amp_left) * amp_right * kernel
    return MassDensityCorrelator(
        value=complex(value),
        mean_left=density_mean(state, r, t, m),
        mean_right=density_mean(state, r2, t2, m),
    )


def static_limit_mean(state, r, m: float = 1.0) -> float:
    """Smeared mean density of a zero-mean-momentum packet: m |psi(r, 0)|^2,
    time independent in the narrow-momentum regime."""
    return m * float(np.abs(state.psi(r, 0.0)) ** 2)


def static_limit_corr(state, smear, r, r2, m: float = 1.0) -> float:
    """Static-limit smeared two-point function m^2 |psi(r)|^2 f(r - r2),
    the sharp-density delta replaced by the smearing profile f; at r = r2
    this is (m / ell^3) times the smeared mean."""
    r = np.asarray(r, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    u_sq = float(np.sum((r - r2) ** 2))
    return m**2 * float(np.abs(state.psi(r, 0.0)) ** 2) * float(smear.f3(u_sq))


def fluctuation_ratio(
    state, smear, r, m: float = 1.0, density_exponent: int = 2
) -> float:
    """Relative size of equal-point density fluctuations.

    Built from the module's own static-limit moments: the second moment is
    (m / ell^3) x mean (sampling-profile identity), so
    C = |eta| / mean^2 = |1 / (ell^3 |psi|^2) - 1|.  `density_exponent=3`
    evaluates the variant with |psi|^3 in the denominator instead, kept for
    comparison; 2 is the derived value.
    """
    mean = static_limit_mean(state, r, m)
    if mean == 0.0:
        raise ValueError("fluctuation ratio undefined where the density vanishes")
    ell3 = smear.ell**3
    dens = mean / m  # |psi(r)|^2
    if density_exponent == 2:
        if mean**2 == 0.0:
            raise ValueError("fluctuation ratio undefined where the squared density underflows")
        second = (m / ell3) * mean
        eta = second - mean**2
        return abs(eta) / mean**2
    if density_exponent == 3:
        denominator = ell3 * dens**1.5
        if denominator == 0.0:
            raise ValueError("fluctuation ratio undefined where ell^3 |psi|^3 underflows")
        return abs(1.0 / denominator - 1.0)
    raise ValueError(f"density_exponent must be 2 or 3, got {density_exponent}")


def _require_grid(w0) -> PhaseSpaceGrid:
    if not isinstance(w0, PhaseSpaceGrid):
        raise TypeError(f"expected a PhaseSpaceGrid, got {type(w0)!r}")
    return w0


def smeared_mean_phase_space(w0: PhaseSpaceGrid, r, t: float, m: float = 1.0):
    """1D smeared mean density from the initial Wigner function W0:
    (m / 2 pi) Integral dp W0(r - p t / m, p)  (delta-limit form).

    `r` may be an array (the result has its shape); a scalar `r` gives a
    float.  Each element equals the scalar call bit for bit."""
    w0 = _require_grid(w0)
    r = np.asarray(r, dtype=float)
    vals = w0.evaluate(r[..., None] - w0.p * t / m, w0.p)
    mean = m * np.trapezoid(vals, w0.p, axis=-1) / (2.0 * np.pi)
    return float(mean) if mean.ndim == 0 else mean


def smeared_corr_phase_space(
    w0: PhaseSpaceGrid,
    smear,
    r: float,
    t: float,
    r2: float,
    t2: float,
    m: float = 1.0,
    method: str = "delta",
) -> tuple[float, float]:
    """1D smeared (mean, two-point) pair from the initial Wigner function.

    method="delta" uses the sampling-width -> 0 limit: the mean is the
    free-streamed momentum integral and the correlation collapses onto the
    time-of-flight point,

        corr = m^3 / (2 pi |t - t2|) * W0(x*, p*),
        p* = m (r - r2) / (t - t2),
        x* = (r + r2)/2 - p* (t + t2) / (2 m),

    valid when observation scales far exceed the sampling width (and t !=
    t2).  method="quadrature" integrates the finite-width Gaussian sampling
    kernel against W0 directly and has no such restriction; its correlation
    is smeared_corr_quadrature.
    """
    w0 = _require_grid(w0)
    if method == "delta":
        if t == t2:
            raise ValueError("delta-limit correlation undefined at equal times")
        mean = smeared_mean_phase_space(w0, r, t, m)
        p_star = m * (r - r2) / (t - t2)
        x_star = 0.5 * (r + r2) - p_star * (t + t2) / (2.0 * m)
        corr = m**3 / (2.0 * np.pi * abs(t - t2)) * float(w0.evaluate(x_star, p_star))
        return mean, corr

    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")

    s = smear.s_x
    ell = smear.ell

    # Mean: (m / ell) (1/2pi) Int dx dp W0(x, p) g(r - x - p t / m).
    # The x integral is a Gaussian window of width s riding along x = r - p t / m.
    p_nodes, p_weights = gauss_legendre(w0.p[0], w0.p[-1], 32)
    u_nodes, u_weights = gauss_legendre(-8.0 * s, 8.0 * s, 8)
    xx = (r - p_nodes[:, None] * t / m) + u_nodes[None, :]
    g_vals = np.exp(-(u_nodes**2) / (2.0 * s**2))
    integrand = w0.evaluate(xx, p_nodes[:, None]) * g_vals[None, :]
    mean = m / ell * float(p_weights @ integrand @ u_weights) / (2.0 * np.pi)

    return mean, smeared_corr_quadrature(w0, smear, r, t, r2, t2, m)


def smeared_corr_quadrature(
    w0: PhaseSpaceGrid, smear, r: float, t: float, r2: float, t2: float, m: float = 1.0
) -> float:
    """1D smeared two-point function from the initial Wigner function: the
    finite-width Gaussian sampling kernel integrated against W0 (the
    correlation half of smeared_corr_phase_space(method="quadrature")).

    (m^2 / ell^2) (1/2pi) Int dx dp W0 exp(-A^2/s^2 - C (p - p*)^2) with
    A = x - (r + r2)/2 + p (t + t2) / (2 m); needs t != t2.
    """
    w0 = _require_grid(w0)
    if t == t2:
        raise ValueError("two-point quadrature needs distinct times")
    s = smear.s_x
    p_star = m * (r - r2) / (t - t2)
    p_width = 2.0 * m * s / abs(t - t2)
    p_nodes, p_weights = gauss_legendre(p_star - 8.0 * p_width, p_star + 8.0 * p_width, 12)
    u_nodes, u_weights = gauss_legendre(-8.0 * s, 8.0 * s, 8)
    c_coef = (t - t2) ** 2 / (4.0 * m**2 * s**2)
    xx = (0.5 * (r + r2) - p_nodes[:, None] * (t + t2) / (2.0 * m)) + u_nodes[None, :]
    f_vals = np.exp(-(u_nodes[None, :] ** 2) / s**2 - c_coef * (p_nodes[:, None] - p_star) ** 2)
    integrand = w0.evaluate(xx, p_nodes[:, None]) * f_vals
    return m**2 / smear.ell**2 * float(p_weights @ integrand @ u_weights) / (2.0 * np.pi)
