"""Mass-density statistics of a single nonrelativistic particle.

The mass density m |psi|^2 of a quantum particle fluctuates, and its
two-point function is complex: the real part (the noise kernel) is the
candidate classical correlation, the connected part eta measures genuine
fluctuation strength.  This module provides the pointwise mean density,
the smeared correlators' phase-space evaluation through the Wigner function
of the initial state, and the static-limit fluctuation ratio of
zero-mean-momentum packets.  The phase-space forms are closed form: the
state's Wigner terms (`wigner.wigner_terms`) times Gaussian sampling
kernels are Gaussian integrals (`states.GaussianTerms`).  The pointwise
two-point correlator built from the free propagator is a test oracle
(`tests/oracles.py`).

Every state is a `states.Packet`.  Phase-space evaluation is
one-dimensional (per axis); a 3D packet whose branches differ along one
axis factorizes, with the 3D density being m times the product of its
per-axis |psi|^2 factors (`Packet.axis_state`).  Natural units hbar = 1.
"""

from __future__ import annotations

import numpy as np

from .states import GaussianTerms
from .wigner import wigner_terms


def density_mean(state, r, t: float = 0.0, m: float = 1.0):
    """Mean mass density m |psi(r, t)|^2 of a 3D `Packet` at one point r
    (3,) or at an array of points (..., 3); of a 1D packet at a position or
    an array of them.  Each point of an array call equals the single-point
    call bit for bit.  For a 1D packet it is also the delta-limit smeared
    mean at any t, and at t = 0 the static-limit smeared mean."""
    # float_power squares with the C library's pow, as Python's float **
    # does, so a point of an array call squares as the single-point call
    mean = m * np.float_power(np.abs(state.psi(r, t, m)), 2.0)
    return float(mean) if mean.ndim == 0 else mean


def fluctuation_ratio(state, smear, r, m: float = 1.0):
    """Relative size of equal-point density fluctuations at one point r (3,)
    or at an array of points (..., 3).

    In the static limit the mean is `density_mean` at t = 0 and the second
    moment is (m / ell^3) x mean (sampling-profile identity), so
    C = |eta| / mean^2 = |1 / (ell^3 |psi|^2) - 1|.  C is undefined where
    the density or its square vanishes: such a point is NaN in an array
    result, and a single such point raises ValueError.
    """
    mean = density_mean(state, r, 0.0, m)
    square = np.float_power(mean, 2.0)
    if square.ndim == 0 and not square > 0.0:
        if mean == 0.0:
            raise ValueError("fluctuation ratio undefined where the density vanishes")
        raise ValueError("fluctuation ratio undefined where the squared density underflows")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(square > 0.0, np.abs((m / smear.ell**3) * mean - square) / square, np.nan)
    return float(ratio) if ratio.ndim == 0 else ratio


def _time_of_flight(r: float, t: float, r2: float, t2: float, m: float):
    """(x*, p*): the free classical path from x* at momentum p* passes r
    at t and r2 at t2 (t != t2)."""
    p_star = m * (r - r2) / (t - t2)
    return 0.5 * (r + r2) - p_star * (t + t2) / (2.0 * m), p_star


def smeared_corr_phase_space(
    state, r: float, t: float, r2: float, t2: float, m: float = 1.0
) -> tuple[float, float]:
    """1D smeared (mean, two-point) pair from the initial Wigner function of
    a 1D state in the sampling-width -> 0 limit: the mean is the
    free-streamed line (m / 2 pi) Integral dp W0(r - p t / m, p), which is
    m |psi(r, t)|^2 and is taken from the evolved packet (`density_mean`;
    the Wigner-line integral cancels huge terms for narrow packets and is a
    test oracle), and the correlation collapses onto the time-of-flight
    point,

        corr = m^3 / (2 pi |t - t2|) * W0(x*, p*),
        p* = m (r - r2) / (t - t2),
        x* = (r + r2)/2 - p* (t + t2) / (2 m),

    valid when observation scales far exceed the sampling width (and t !=
    t2).  smeared_corr_quadrature integrates the finite-width Gaussian
    sampling kernel against W0 instead and has no such restriction.
    """
    if t == t2:
        raise ValueError("delta-limit correlation undefined at equal times")
    mean = density_mean(state, r, t, m)
    w0 = float(np.sum(wigner_terms(state).pullback(np.zeros((2, 0)),
                                                    _time_of_flight(r, t, r2, t2, m))
                      .integral()).real)
    return mean, m**3 / (2.0 * np.pi * abs(t - t2)) * w0


def smeared_corr_quadrature(
    state, smear, r: float, t: float, r2: float, t2: float, m: float = 1.0
) -> float:
    """1D smeared two-point function from the initial Wigner function of a
    1D state: the finite-width Gaussian sampling kernel integrated against
    W0,

    (m^2 / ell^2) (1/2pi) Int dx dp W0 exp(-A^2/s^2 - C (p - p*)^2) with
    A = x - (r + r2)/2 + p (t + t2) / (2 m) and C = (t - t2)^2 / (4 m^2 s^2),
    one 2D Gaussian integral per Wigner term; needs t != t2.

    Integrating a term cancels its constant against the square it
    completes, losing digits in proportion to the constant, so the
    integral is taken about whichever pivot gives the smaller constants:
    the origin, where W0 is moderate (a kernel wide against W0), or the
    time-of-flight point (x*, p*), where the kernels are centred (a kernel
    narrow against W0).  Either pivot alone lost every digit at one end of
    s_x: the origin at s_x 1e-9, (x*, p*) at 1e13 with r = 10 s_x.
    """
    if t == t2:
        raise ValueError("two-point quadrature needs distinct times")
    s, k = smear.s_x, (t + t2) / (2.0 * m)
    x_star, p_star = _time_of_flight(r, t, r2, t2, m)
    w0 = wigner_terms(state)
    # the integrand as a function of (x, p) - pivot, for each pivot
    about = [w0.pullback(np.eye(2), pivot)
             * GaussianTerms.packet(1.0, 0.0, 0.25 * s**2).pullback([[1.0, k]], shift)
             * GaussianTerms.packet(1.0, p_star - pivot[1], (m * s / (t - t2)) ** 2)
             .pullback([[0.0, 1.0]])
             for pivot, shift in (((0.0, 0.0), -0.5 * (r + r2)), ((x_star, p_star), 0.0))]
    terms = min(about, key=lambda g: np.max(np.abs(g.c.real)))
    return m**2 / smear.ell**2 * float(np.sum(terms.integral()).real) / (2.0 * np.pi)
