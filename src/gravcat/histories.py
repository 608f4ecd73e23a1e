"""Position-history numerics on a 1D spatial grid.

A history is a sequence of finite-width position samplings of a freely
evolving particle.  The decoherence functional D(r, t; r2, t2)
= <psi| P_{r t} P_{r2 t2} |psi> (Heisenberg-picture sampling operators)
measures interference between a pair of one-record histories; multi-time
record probabilities use the square-root sampling rule
P_n = || sqrt(P_n) ... sqrt(P_1) |psi> ||^2.  Failure of the marginalization
(additivity) identity Sum_{r1} P_2 = P_1 is the quantitative signature that
these records do not form a classical stochastic process.
`additivity_defect` measures it in closed form for Gaussian sampling: a
sampled Gaussian branch, freely evolved, stays Gaussian
(`states.GaussianTerms`), so each record probability is a finite sum of
Gaussian integrals, with no grid (its grid oracles live in the test suite).

The other functions work on a 1D grid: free evolution between samplings is
exact in momentum space (FFT); the initial state is laid down analytically
at the first sampling time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import GaussianTerms, SmearingParams
from .wigner import MAX_GRID_ELEMENTS, GridAliasingError


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform 1D grid; FFT wavenumbers derived from the spacing."""

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 1 or x.size < 8:
            raise ValueError("grid must be a 1D array with at least 8 points")
        steps = np.diff(x)
        # linspace rounds each coordinate by up to eps |x|, so far from the
        # origin a step can be off by 2 eps max|x|; allow four times that
        atol = 8.0 * np.finfo(float).eps * float(np.max(np.abs(x)))
        if not np.allclose(steps, steps[0], rtol=1e-12, atol=atol):
            raise ValueError("grid must be uniform")
        object.__setattr__(self, "x", x)

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def k(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.x.size, d=self.dx)


def uniform_grid(lo: float, hi: float, n: int) -> SpatialGrid:
    return SpatialGrid(np.linspace(lo, hi, n, endpoint=False))


def auto_grid(state, sampling=None, t_max: float = 0.0, m: float = 1.0) -> SpatialGrid:
    """Grid covering the state support at all times up to t_max, with a
    margin of 2 on either side, in at least 4096 points and resolved well
    below the sampling width.

    Raises GridAliasingError, before allocating, if that takes more than
    MAX_GRID_ELEMENTS points."""
    lo, hi = state.support(t_max, m)
    lo0, hi0 = state.support(0.0, m)
    lo, hi = min(lo, lo0) - 2.0, max(hi, hi0) + 2.0
    n = 4096
    if sampling is not None:
        width = getattr(sampling, "s_x", None) or getattr(sampling, "half_width")
        needed = np.ceil((hi - lo) / (width / 4.0))
        if not needed <= MAX_GRID_ELEMENTS:
            raise GridAliasingError(
                f"{needed:.4g} points needed to resolve the sampling width over "
                f"[{lo:.4g}, {hi:.4g}] exceed the bound of {MAX_GRID_ELEMENTS} grid points"
            )
        n = max(n, int(needed))
    n = 1 << int(np.ceil(np.log2(n)))
    return uniform_grid(lo, hi, n)


def free_evolve(psi: np.ndarray, grid: SpatialGrid, dt: float, m: float = 1.0) -> np.ndarray:
    """Exact free evolution by dt (either sign) via momentum-space phases."""
    if dt == 0.0:
        return psi.copy()
    phases = np.exp(-1j * grid.k**2 * dt / (2.0 * m))
    spectrum = np.fft.fft(psi)
    np.multiply(phases, spectrum, out=spectrum)
    return np.fft.ifft(spectrum, out=spectrum)


def position_probability(state, sampling, r: float, t: float, m: float = 1.0,
                         grid: SpatialGrid | None = None) -> float:
    """Single-sampling probability <P_{r t}> = Integral g(x - r) |psi(x, t)|^2."""
    if grid is None:
        grid = auto_grid(state, sampling, t, m)
    psi_t = state.psi(grid.x, t, m)
    return float(np.sum(sampling.g(grid.x - r) * np.abs(psi_t) ** 2) * grid.dx)


def decoherence_functional(state, sampling, r: float, t: float, r2: float, t2: float,
                           m: float = 1.0, grid: SpatialGrid | None = None) -> complex:
    """<psi| P_{r t} P_{r2 t2} |psi> for Heisenberg-picture samplings.

    Evaluated as <psi(t)| g_r U(t - t2) [g_{r2} psi(t2)]>; equal-time
    diagonal values reproduce the position-sampling probability up to the
    approximate-projector correction, and equal-time off-diagonal values
    vanish once |r - r2| exceeds a few sampling widths.
    """
    if grid is None:
        grid = auto_grid(state, sampling, max(abs(t), abs(t2)), m)
    right = sampling.g(grid.x - r2) * state.psi(grid.x, t2, m)
    right = free_evolve(right, grid, t - t2, m)
    left = state.psi(grid.x, t, m)
    return complex(np.sum(np.conj(left) * sampling.g(grid.x - r) * right) * grid.dx)


def smeared_mean(state, sampling, r: float, t: float = 0.0, m: float = 1.0,
                 grid: SpatialGrid | None = None) -> float:
    """1D smeared mean density (m / ell) <P_{r t}>."""
    return m / sampling.ell * position_probability(state, sampling, r, t, m, grid)


def smeared_second_moment(state, sampling, r: float, t: float = 0.0, m: float = 1.0,
                          grid: SpatialGrid | None = None) -> float:
    """Equal-point equal-time second moment (m/ell)^2 <P_{r t}^2>.

    For sharp (box) sampling, g^2 = g makes this exactly (m/ell) times the
    smeared mean.
    """
    if grid is None:
        grid = auto_grid(state, sampling, t, m)
    psi_t = state.psi(grid.x, t, m)
    g = sampling.g(grid.x - r)
    val = float(np.sum(g * g * np.abs(psi_t) ** 2) * grid.dx)
    return (m / sampling.ell) ** 2 * val


def smeared_two_point(state, sampling, r: float, t: float, r2: float, t2: float,
                      m: float = 1.0, grid: SpatialGrid | None = None) -> complex:
    """1D smeared two-point density correlation (m/ell)^2 D(r, t; r2, t2)."""
    return (m / sampling.ell) ** 2 * decoherence_functional(
        state, sampling, r, t, r2, t2, m, grid
    )


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

    Closed form for Gaussian sampling of a 1D state: P_2 is the integral of
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
