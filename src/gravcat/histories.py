"""Two-time position records and their marginalization defect.

A history is a sequence of finite-width position samplings of a freely
evolving particle; multi-time record probabilities use the square-root
sampling rule P_n = || sqrt(P_n) ... sqrt(P_1) |psi> ||^2.  Failure of the
marginalization (additivity) identity Sum_{r1} P_2 = P_1 is the
quantitative signature that these records do not form a classical
stochastic process.  `additivity_defect` measures it in closed form for
Gaussian sampling: a sampled Gaussian branch, freely evolved, stays
Gaussian (`states.GaussianTerms`), so each record probability is a finite
sum of Gaussian integrals, with no grid.  The grid routes (FFT free
evolution, the decoherence functional, the smeared moments and the comb
propagation) are its oracles in `tests/oracles.py`.
"""

from __future__ import annotations

import numpy as np

from .states import GaussianTerms, SmearingParams


def partition_points(center: float, half_width: float, spacing: float) -> np.ndarray:
    """Uniform comb of sampling centers covering [center - hw, center + hw]."""
    n = int(np.floor(half_width / spacing))
    return center + spacing * np.arange(-n, n + 1)


def _comb_weight(sampling, r1_values: np.ndarray) -> float:
    """Partition weight of a uniform comb (one lone center counts as width ell)."""
    spacing = float(r1_values[1] - r1_values[0]) if r1_values.size > 1 else sampling.ell
    return sampling.partition_weight(spacing)


def additivity_defect(state, sampling: SmearingParams, t1: float, t2: float, r1_values,
                      r2_values, m: float = 1.0) -> float:
    """Kolmogorov marginalization defect of two-sampling records.

    max over r2 of | Sum_{r1} w P_2(r1, t1; r2, t2) - P_1(r2, t2) |, with the
    first sampling marginalized over an exhaustive comb.  Zero only when the
    sampling operators commute with the evolution between t1 and t2.

    Closed form for Gaussian sampling of a 1D `Packet`: P_2 is the integral of
    g(x - r2) |U(t2 - t1)[sqrt_g(x - r1) psi(x, t1)]|^2, one Gaussian
    integral per branch pair, evaluated for every comb centre and r2 at once.
    """
    if not t2 > t1:
        raise ValueError(f"sampling times must be strictly increasing, got {[t1, t2]}")
    if not isinstance(sampling, SmearingParams):
        raise TypeError(f"the closed form needs Gaussian sampling, got {type(sampling)!r}")
    s2 = sampling.s_x**2
    r1 = np.asarray(r1_values, dtype=float)
    r2 = np.atleast_1d(np.asarray(r2_values, dtype=float))
    sampled = GaussianTerms.packet(1.0, r1[:, None], s2) * state.terms(t1, m)
    sampled = sampled.evolve(t2 - t1, m)
    g2 = GaussianTerms.packet(1.0, r2[:, None, None], 0.5 * s2)  # axes (r2, r1, term)
    joint = np.sum((sampled * sampled.conj() * g2).integral(), axis=(-2, -1)).real
    psi2 = state.terms(t2, m)
    single = np.sum((psi2 * psi2.conj() * g2).integral(), axis=(-2, -1)).real
    return float(np.max(np.abs(_comb_weight(sampling, r1) * joint - single)))
