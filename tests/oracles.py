"""Independent routes that exist only to check the library.

Each function here is an alternative to a route in `gravcat`: a
scaling-and-squaring matrix exponential (against the `eigh`-built
displacement), a step integrator of the full probe Hamiltonian (against
the spectral `jc.evolve_rows`), a stationarity residual of the pointer
states, a direct binomial sum for the small-angle conditional law, one
FFT autocorrelation per force record (against the estimator's one per
distinct record), a record-by-record flip count of the geometric-gap
marks (against the sampler's running xor over a boolean block), an
enumeration of all 2^(n-1) later-outcome tails (against the closed-form
Kolmogorov defect), multi-time record probabilities propagated record by
record (against the one comb propagation of `histories.additivity_defect`),
and the finite-width
quadrature of the smeared mean (against the delta-limit mean of
`density.smeared_corr_phase_space`).  None of them runs in a CLI
experiment.
"""

from itertools import product
from math import comb

import numpy as np
from scipy.linalg import expm

from gravcat.density import _require_grid
from gravcat.fock import FockOperator, FockSpace
from gravcat.histories import SpatialGrid, _comb_weight, auto_grid, free_evolve
from gravcat.jc import (
    CompositeState,
    JCParams,
    pointer_state,
    total_hamiltonian,
)
from gravcat.measurement import _STREAM_BLOCK, MeasurementSchedule, _rare_cells
from gravcat.quadrature import gauss_legendre
from gravcat.two_state import TunnelingParams, tunneling_propagator
from gravcat.wigner import PhaseSpaceGrid

MAX_STEP_NORM = 0.1


def matrix_exponential(op: FockOperator, scale: complex = 1.0) -> FockOperator:
    """exp(scale * op) by scaling-and-squaring (Pade); no eigendecomposition.

    Raises OverflowError if the result is not finite (pathological norms).
    """
    result = expm(scale * op.matrix)
    if not np.all(np.isfinite(result.view(float))):
        raise OverflowError("matrix exponential overflowed; rescale the operator")
    return FockOperator(result, op.space)


def stationary_state_check(params: JCParams, space: FockSpace, t: float,
                           sign: int) -> float:
    """Residual || e^{-i H0 t} |s zeta_0, s> - e^{i g^2 t / omega} |s zeta_0, s> ||.

    H0 is the nu = 0 Hamiltonian integrated by matrix exponential; the
    residual is a pure truncation diagnostic (<= 1e-8 at D = 64 for
    |zeta_0| <= 2).
    """
    h0 = total_hamiltonian(JCParams(0.0, params.omega, params.g), space)
    psi = pointer_state(params, space, sign).as_vector()
    evolved = expm(-1j * h0 * t) @ psi
    expected = np.exp(1j * params.g**2 * t / params.omega) * psi
    return float(np.linalg.norm(evolved - expected))


def hamiltonian_step_count(params: JCParams, space: FockSpace, t: float,
                           max_step_norm: float = MAX_STEP_NORM) -> int:
    """Smallest step count with ||H|| t / steps <= max_step_norm."""
    h_norm = float(np.linalg.norm(total_hamiltonian(params, space), 2))
    return max(1, int(np.ceil(h_norm * abs(t) / max_step_norm)))


def exact_propagate(params: JCParams, space: FockSpace, state: CompositeState,
                    t: float, steps: int) -> CompositeState:
    """Integrate the full H by repeated application of exp(-i H t / steps).

    Requires ||H|| (t / steps) <= 0.1 (step-size contract); the step
    exponential is exactly unitary, so the norm is preserved.  Its cost
    grows as ||H|| t.
    """
    h = total_hamiltonian(params, space)
    h_norm = float(np.linalg.norm(h, 2))
    if h_norm * abs(t) / steps > MAX_STEP_NORM * (1.0 + 1e-9):
        raise ValueError(
            f"step too large: ||H|| t / steps = {h_norm * abs(t) / steps:.3g} "
            f"> {MAX_STEP_NORM}; need steps >= {hamiltonian_step_count(params, space, t)}"
        )
    u_step = expm(-1j * h * (t / steps))
    vec = state.as_vector()
    for _ in range(steps):
        vec = u_step @ vec
    return CompositeState.from_vector(space, vec)


def conditional_g_series(a2: int, a1: int, m_steps: int,
                         sched: MeasurementSchedule) -> float:
    """Direct binomial-sum evaluation of the approximate conditional:
    sum over even (same outcome) or odd (flipped) jump numbers n of
    C(m, n) (sin^2(nu tau)/4)^n, times cos^(2m)(nu tau/2)."""
    if m_steps < 0:
        raise ValueError(f"step lag must be nonnegative, got {m_steps}")
    x = 0.25 * np.sin(sched.nu * sched.tau) ** 2
    start = 0 if a1 == a2 else 1
    total = sum(comb(m_steps, n) * x**n for n in range(start, m_steps + 1, 2))
    return float(np.cos(0.5 * sched.nu * sched.tau) ** (2 * m_steps) * total)


def per_record_force_corr(readings: np.ndarray, f0: float, max_lag: int):
    """The estimator's lag sums, correlation and its standard error with one
    FFT autocorrelation per record, summed row by row in 1 MiB blocks.

    Returns (sum_a, sum_a2, corr, corr_stderr) for `measurement`'s
    `_lag_sums` and `estimate_force_statistics` to match exactly.
    """
    count, length = readings.shape
    n_fft = 1 << int(np.ceil(np.log2(2 * length)))
    sum_a = np.zeros(max_lag + 1)
    sum_a2 = np.zeros(max_lag + 1)
    block = max(1, (1 << 20) // (16 * n_fft))
    for lo in range(0, count, block):
        chunk = readings[lo : lo + block]
        if np.any(np.abs(chunk) != 1):
            raise ValueError("readings must be +1 or -1")
        spec = np.fft.rfft(chunk, n=n_fft, axis=1)
        power = spec.real**2 + spec.imag**2
        auto = np.rint(np.fft.irfft(power, n=n_fft, axis=1)[:, : max_lag + 1])
        sum_a += auto.sum(axis=0)
        sum_a2 += (auto**2).sum(axis=0)
    scale = f0**2 / (count * (length - np.arange(max_lag + 1)))
    corr = scale * sum_a
    dof = max(count - 1, 1)
    corr_stderr = scale * np.sqrt(np.maximum(count * sum_a2 - sum_a**2, 0.0) / dof)
    return sum_a, sum_a2, corr, corr_stderr


def gap_route_records(sched: MeasurementSchedule, count: int, seed: int) -> np.ndarray:
    """Records of `sample_trajectories` on its geometric-gap route (q <= 0.2).

    The marks come from the sampler's own per-block streams and its mark
    generator `_rare_cells`, so this checks only how marks become readings,
    not the marks themselves.  Record by record, the marks are split off
    by row, taken as the flips (p <= 1/2) or the stays (p > 1/2), and the
    reading after step k is (-1) ** (number of flips in steps 1..k).
    """
    n, p = sched.n_steps, sched.flip_probability
    q = min(p, 1.0 - p)
    readings = np.ones((count, n + 1), dtype=np.int8)
    for b, lo in enumerate(range(0, count, _STREAM_BLOCK)):
        rows = min(_STREAM_BLOCK, count - lo)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(b,))))
        marks = _rare_cells(rng, rows * n, q) if q > 0.0 else np.empty(0, dtype=np.int64)
        row_of, step_of = np.divmod(marks, n)
        bounds = np.searchsorted(row_of, np.arange(rows + 1))
        for r in range(rows):
            marked = np.zeros(n, dtype=np.int64)
            marked[step_of[bounds[r] : bounds[r + 1]]] = 1
            flips = 1 - marked if p > 0.5 else marked
            readings[lo + r, 1:] = np.where(np.cumsum(flips) % 2 == 0, 1, -1)
    return readings


def kolmogorov_defect_enumerated(sched: MeasurementSchedule, n_steps: int) -> float:
    """max over every tail of n - 1 later outcomes of
    | Sum_{a1} P_n - P_{n-1} |, each record probability a product of
    transition probabilities along the tail."""
    if n_steps < 2:
        raise ValueError(f"need at least two measurements, got {n_steps}")
    params = TunnelingParams(sched.nu, 0.0)
    u_tau = tunneling_propagator(params, sched.tau)
    u_2tau = tunneling_propagator(params, 2.0 * sched.tau)
    idx = {1: 0, -1: 1}
    # transition[b, a] = |<b| U_tau |a>|^2 ; start vectors from |+>
    trans = np.abs(u_tau) ** 2
    v1 = np.abs(u_tau[:, 0]) ** 2        # first measurement at tau
    v2 = np.abs(u_2tau[:, 0]) ** 2       # first measurement at 2 tau instead
    worst = 0.0
    for tail in product((1, -1), repeat=n_steps - 1):
        ids = [idx[a] for a in tail]
        chain = 1.0
        for prev, nxt in zip(ids, ids[1:]):
            chain *= trans[nxt, prev]
        with_first = sum(v1[a1] * trans[ids[0], a1] for a1 in (0, 1)) * chain
        without_first = v2[ids[0]] * chain
        worst = max(worst, abs(with_first - without_first))
    return worst


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


def partition_probability_sum(state, sampling, events_tail, r1_values: np.ndarray,
                              t1: float, m: float = 1.0,
                              grid: SpatialGrid | None = None) -> float:
    """Sum_{r1} w P(r1, t1; tail...) over an exhaustive first-sampling comb.

    `events_tail` may be empty, in which case this is the total single-
    sampling probability of the partition (1 up to comb truncation error).
    """
    r1_values = np.asarray(r1_values, dtype=float)
    w = _comb_weight(sampling, r1_values)
    total = 0.0
    for prob in _record_probabilities(state, sampling, r1_values, t1, events_tail, m,
                                      grid).tolist():
        total += w * prob
    return total


def smeared_mean_quadrature(w0: PhaseSpaceGrid, smear, r: float, t: float,
                            m: float = 1.0) -> float:
    """1D smeared mean density with the finite-width Gaussian sampling
    kernel integrated against the initial Wigner function W0."""
    w0 = _require_grid(w0)
    s = smear.s_x
    ell = smear.ell

    # Mean: (m / ell) (1/2pi) Int dx dp W0(x, p) g(r - x - p t / m).
    # The x integral is a Gaussian window of width s riding along x = r - p t / m.
    p_nodes, p_weights = gauss_legendre(w0.p[0], w0.p[-1], 32)
    u_nodes, u_weights = gauss_legendre(-8.0 * s, 8.0 * s, 8)
    xx = (r - p_nodes[:, None] * t / m) + u_nodes[None, :]
    g_vals = np.exp(-(u_nodes**2) / (2.0 * s**2))
    integrand = w0.evaluate(xx, p_nodes[:, None]) * g_vals[None, :]
    return m / ell * float(p_weights @ integrand @ u_weights) / (2.0 * np.pi)
