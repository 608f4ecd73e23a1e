"""Position-history numerics on a 1D spatial grid.

A history is a sequence of finite-width position samplings of a freely
evolving particle.  The decoherence functional D(r, t; r2, t2)
= <psi| P_{r t} P_{r2 t2} |psi> (Heisenberg-picture sampling operators)
measures interference between a pair of one-record histories; multi-time
record probabilities use the square-root sampling rule
P_n = || sqrt(P_n) ... sqrt(P_1) |psi> ||^2.  Failure of the marginalization
(additivity) identity Sum_{r1} P_2 = P_1 is the quantitative signature that
these records do not form a classical stochastic process.

Free evolution between samplings is exact in momentum space (FFT); the
initial state is laid down analytically at the first sampling time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def auto_grid(state, sampling=None, t_max: float = 0.0, m: float = 1.0,
              margin: float = 2.0, min_points: int = 4096) -> SpatialGrid:
    """Grid covering the state support at all times up to t_max, resolved
    well below the sampling width."""
    lo, hi = state.support(t_max, m)
    lo0, hi0 = state.support(0.0, m)
    lo, hi = min(lo, lo0) - margin, max(hi, hi0) + margin
    n = min_points
    if sampling is not None:
        width = getattr(sampling, "s_x", None) or getattr(sampling, "half_width")
        needed = int(np.ceil((hi - lo) / (width / 4.0)))
        n = max(n, needed)
    n = 1 << int(np.ceil(np.log2(n)))
    return uniform_grid(lo, hi, n)


def free_evolve(psi: np.ndarray, grid: SpatialGrid, dt: float, m: float = 1.0) -> np.ndarray:
    """Exact free evolution by dt (either sign) via momentum-space phases."""
    if dt == 0.0:
        return psi.copy()
    phases = np.exp(-1j * grid.k**2 * dt / (2.0 * m))
    return np.fft.ifft(phases * np.fft.fft(psi))


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


def _record_probabilities(state, sampling, r1_values, t1: float, events_tail, m: float,
                          grid: SpatialGrid | None) -> np.ndarray:
    """P(r1, t1; tail...) for every first-sampling center r1, the records
    propagated together as one (len(r1_values), n_x) array."""
    times = [t1] + [t for _, t in events_tail]
    if any(t_next <= t_prev for t_prev, t_next in zip(times, times[1:])):
        raise ValueError(f"sampling times must be strictly increasing, got {times}")
    if grid is None:
        grid = auto_grid(state, sampling, max(times), m)
    r1_values = np.asarray(r1_values, dtype=float)
    cur = state.psi(grid.x, t1, m) * sampling.sqrt_g(grid.x - r1_values[:, None])
    t_prev = t1
    for r_i, t_i in events_tail:
        cur = free_evolve(cur, grid, t_i - t_prev, m)
        cur = cur * sampling.sqrt_g(grid.x - r_i)
        t_prev = t_i
    return np.sum(np.abs(cur) ** 2, axis=1) * grid.dx


def n_time_probability(state, sampling, events, m: float = 1.0,
                       grid: SpatialGrid | None = None) -> float:
    """Probability of the record ((r_1, t_1), ..., (r_n, t_n)).

    Square-root sampling rule: the state is multiplied by sqrt(g)(x - r_i)
    at each strictly increasing t_i, freely evolving in between; the final
    squared norm is the record probability.
    """
    events = list(events)
    if not events:
        raise ValueError("need at least one sampling event")
    (r1, t1), *tail = events
    return float(_record_probabilities(state, sampling, [r1], t1, tail, m, grid)[0])


def partition_points(center: float, half_width: float, spacing: float) -> np.ndarray:
    """Uniform comb of sampling centers covering [center - hw, center + hw]."""
    n = int(np.floor(half_width / spacing))
    return center + spacing * np.arange(-n, n + 1)


def partition_probability_sum(state, sampling, events_tail, r1_values: np.ndarray,
                              t1: float, m: float = 1.0,
                              grid: SpatialGrid | None = None) -> float:
    """Sum_{r1} w P(r1, t1; tail...) over an exhaustive first-sampling comb.

    `events_tail` may be empty, in which case this is the total single-
    sampling probability of the partition (1 up to comb truncation error).
    """
    r1_values = np.asarray(r1_values, dtype=float)
    spacing = float(r1_values[1] - r1_values[0]) if r1_values.size > 1 else sampling.ell
    w = sampling.partition_weight(spacing)
    total = 0.0
    for prob in _record_probabilities(state, sampling, r1_values, t1, events_tail, m,
                                      grid).tolist():
        total += w * prob
    return total


def additivity_defect(state, sampling, t1: float, t2: float, r1_values: np.ndarray,
                      r2_values, m: float = 1.0,
                      grid: SpatialGrid | None = None) -> float:
    """Kolmogorov marginalization defect of two-sampling records.

    max over r2 of | Sum_{r1} w P_2(r1, t1; r2, t2) - P_1(r2, t2) |, with the
    first sampling marginalized over an exhaustive comb.  Zero only when the
    sampling operators commute with the evolution between t1 and t2.
    """
    if grid is None:
        grid = auto_grid(state, sampling, t2, m)
    worst = 0.0
    for r2 in np.atleast_1d(np.asarray(r2_values, dtype=float)):
        summed = partition_probability_sum(
            state, sampling, [(float(r2), t2)], r1_values, t1, m, grid
        )
        single = n_time_probability(state, sampling, [(float(r2), t2)], m, grid)
        worst = max(worst, abs(summed - single))
    return worst
