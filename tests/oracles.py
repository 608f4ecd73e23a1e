"""Independent routes that exist only to check the library.

Each function here is an alternative to a route in `gravcat`: a
scaling-and-squaring matrix exponential (against the `eigh`-built
displacement), a step integrator of the full probe Hamiltonian (against
the spectral `jc.evolve_series`), a stationarity residual of the pointer
states, a direct binomial sum for the small-angle conditional law, and one
FFT autocorrelation per force record (against the estimator's one per
distinct record), and an enumeration of all 2^(n-1) later-outcome tails
(against the closed-form Kolmogorov defect).  None of them runs in a CLI
experiment.
"""

from itertools import product
from math import comb

import numpy as np
from scipy.linalg import expm

from gravcat.fock import FockOperator, FockSpace
from gravcat.jc import (
    CompositeState,
    JCParams,
    pointer_state,
    total_hamiltonian,
)
from gravcat.measurement import MeasurementSchedule
from gravcat.two_state import TunnelingParams, tunneling_propagator

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
