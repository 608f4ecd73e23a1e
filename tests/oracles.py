"""Independent routes that exist only to check the library.

Each function here is an alternative to a route in `gravcat`, or a closed
form that no CLI run reports and that a test compares a run's route
against: a scaling-and-squaring matrix exponential (against the
`eigh`-built displacement), the closed-form qubit propagator and
Heisenberg well projectors (against `two_state`'s correlations), the
closed-form nu = 0 and first-order interaction-picture propagators of the
probe (against `jc.first_order_probability_series`), the probe
Hamiltonian as a sum of Kronecker products (against the in-place
`jc.total_hamiltonian`), a step integrator of
the full probe Hamiltonian and a transition series (against the spectral
`jc.evolve_rows`), the probe's entangled cat state and its reduced purity
(against `jc.reduced_purity`), a stationarity residual of the pointer
states, the record law and its small-angle jump weight, the conditionals
and the discrete and continuum force laws (against the sampled records
and their estimates), a direct binomial sum for the small-angle
conditional law, one FFT autocorrelation per force record (against the
estimator's one per distinct record), a record-by-record flip count of
the geometric-gap marks and a running product of signs over the uniforms
(against the sampler's prefix xor over packed words), a bit-by-bit packer
of +/-1 readings into those words (the estimator's input), the
closed-form Kolmogorov defect of projective records and an enumeration
of all 2^(n-1) later-outcome tails that checks it, the pointwise
density correlators from the free propagator, sharp box sampling, the
square root of each sampling profile and position
histories on a spatial grid (FFT free evolution, the decoherence
functional and the smeared moments), multi-time record probabilities
propagated record by record and the FFT comb route on a spatial grid
(against the closed-form `histories.additivity_defect`), the
Gauss-Legendre Wigner transform and its interpolating spline (against the
closed-form `wigner.wigner_function`), the closed-form Wigner-line
integral of the delta-limit mean (against the evolved packet's
`density.density_mean`), and Gauss-Legendre quadrature over
that spline of the finite-width smeared mean and two-point function, and
a 2D trapezoid over the written-out cat W (against the delta-limit mean
and the closed-form `density.smeared_corr_quadrature`), and the
static-limit two-point function from the 3D smearing profile (against
the second moment that `density.fluctuation_ratio` takes from the
sampling-profile identity).  None of them runs in a CLI experiment, and
`test_reachability.py` keeps `gravcat` free of any route that none does.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import product
from math import comb

import numpy as np
from scipy.linalg import expm

from gravcat.density import density_mean
from gravcat.fock import FockSpace, coherent_state, displacement, ladder_operators
from gravcat.histories import _comb_weight
from gravcat.jc import (
    JCParams,
    evolve_rows,
    pointer_path,
    pointer_state,
    total_hamiltonian,
)
from gravcat.measurement import _STREAM_BLOCK, MeasurementSchedule, _rare_cells
from gravcat.states import Packet
from gravcat.two_state import TunnelingParams, _check_sign
from gravcat.wigner import (
    MAX_GRID_ELEMENTS,
    GridAliasingError,
    PhaseSpaceGrid,
    default_axes,
    wigner_terms,
)

MAX_STEP_NORM = 0.1

# Bytes of the first-sampling comb that `comb_additivity_defect` propagates
# at once; a 49 x 4096 complex comb (3.2 MB) is one block.
_COMB_BLOCK_BYTES = 1 << 22


# ---------------------------------------------------------------------------
# composite Gauss-Legendre quadrature

_RULE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _RULE_CACHE:
        _RULE_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _RULE_CACHE[order]


def gauss_legendre(lo: float, hi: float, n_panels: int, order: int = 16):
    """Nodes and weights of a composite Gauss-Legendre rule on [lo, hi].

    The interval is split into `n_panels` equal panels with an
    `order`-point rule on each; total node count is n_panels * order.
    """
    if hi <= lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if n_panels < 1:
        raise ValueError("need at least one panel")
    base_x, base_w = _rule(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    centers = 0.5 * (edges[:-1] + edges[1:])
    nodes = (centers[:, None] + half * base_x[None, :]).ravel()
    weights = np.broadcast_to(half * base_w, (n_panels, order)).ravel()
    return nodes, weights


# Panels every oscillation rule starts from, and the nodes it spends per
# cycle of the fastest oscillation on top of them.
_MIN_PANELS = 8
_NODES_PER_CYCLE = 6.0


def panels_for_oscillation(lo: float, hi: float, max_wavenumber: float,
                           order: int = 16) -> int:
    """Panel count so an integrand oscillating up to e^{i k x}, |k| <=
    max_wavenumber, is resolved with at least _NODES_PER_CYCLE nodes per
    cycle."""
    cycles = abs(max_wavenumber) * (hi - lo) / (2.0 * np.pi)
    needed = int(np.ceil(cycles * _NODES_PER_CYCLE / order)) + _MIN_PANELS
    return max(_MIN_PANELS, needed)


# ---------------------------------------------------------------------------
# closed-form qubit and oscillator propagators, and the probe's cat state


IDENTITY_2 = np.eye(2, dtype=complex)


PAULI_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def number_operator(space: FockSpace) -> np.ndarray:
    """a^dag a as a (D, D) diagonal array."""
    return np.diag(np.arange(space.dim, dtype=complex))


def kron_hamiltonian(params: JCParams, space: FockSpace) -> np.ndarray:
    """nu sigma_1 (x) 1 + omega 1 (x) a^dag a + g sigma_3 (x) (a + a^dag) as
    a sum of three Kronecker products (against `jc.total_hamiltonian`,
    which fills the blocks in place)."""
    a, adag = ladder_operators(space)
    return (params.nu * np.kron(PAULI_1, np.eye(space.dim))
            + params.omega * np.kron(np.eye(2), number_operator(space))
            + params.g * np.kron(PAULI_3, a + adag))


def whole_triangle_correlations(state, density, params: TunnelingParams,
                                times: np.ndarray) -> list:
    """The columns of g2s-correlations' correlations.csv built at once over
    the whole upper triangle t1 <= t2, (a1, a2) innermost, with the closed
    forms evaluated on four label rows a pair (against the runner's
    block-by-block stream)."""
    from gravcat import two_state as ts

    i, j = np.triu_indices(times.size)
    a1, a2 = np.tile([1, 1, -1, -1], i.size), np.tile([1, -1, 1, -1], i.size)
    t1, t2 = np.repeat(times[i], 4), np.repeat(times[j], 4)
    q = ts.two_time_quantum_corr(state, density, a1, a2, params, t1, t2)
    stat = ts.two_time_statistical_corr(state, density, a1, a2, params, t1, t2)
    return [a1, a2, t1, t2, q.real, q.imag, stat]


def tunneling_hamiltonian(params: TunnelingParams) -> np.ndarray:
    """Effective qubit Hamiltonian nu (cos(chi) sigma_1 + sin(chi) sigma_2)."""
    return params.nu * (np.cos(params.chi) * PAULI_1 + np.sin(params.chi) * PAULI_2)


def tunneling_propagator(params: TunnelingParams, t: float) -> np.ndarray:
    """Unitary evolution over time t >= 0.

    [[ cos(nu t / 2),             sin(nu t / 2) e^{i chi} ],
     [-sin(nu t / 2) e^{-i chi},  cos(nu t / 2)           ]]
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    half = 0.5 * params.nu * t
    c, s = np.cos(half), np.sin(half)
    phase = np.exp(1j * params.chi)
    return np.array([[c, s * phase], [-s / phase, c]], dtype=complex)


def heisenberg_projector(a: int, params: TunnelingParams, t: float) -> np.ndarray:
    """Heisenberg-picture well projector (1 + a S_t) / 2.

    S_t = [[cos(nu t), sin(nu t) e^{i chi}], [sin(nu t) e^{-i chi}, -cos(nu t)]]
    squares to the identity, so the output is an exact rank-1 projector.
    """
    _check_sign(a)
    c, s = np.cos(params.nu * t), np.sin(params.nu * t)
    phase = np.exp(1j * params.chi)
    s_t = np.array([[c, s * phase], [s / phase, -c]], dtype=complex)
    return 0.5 * (IDENTITY_2 + a * s_t)


def vacuum(space: FockSpace) -> np.ndarray:
    amp = np.zeros(space.dim, dtype=complex)
    amp[0] = 1.0
    return amp


class RegimeWarning(UserWarning):
    """Parameters outside the validity regime of a closed-form result."""


def _blockdiag(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    d = upper.shape[0]
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    out[:d, :d] = upper
    out[d:, d:] = lower
    return out


def adiabatic_propagator(params: JCParams, space: FockSpace, t: float) -> np.ndarray:
    """Closed-form propagator of the nu = 0 Hamiltonian.

    exp(i g^2 t / omega) diag( D^dag(g/w) e^{-i w n t} D(g/w),
                               D(g/w) e^{-i w n t} D^dag(g/w) ).
    Ignores params.nu (valid in the nu << omega regime).
    """
    d_op = displacement(space, params.g / params.omega)
    rot = np.diag(np.exp(-1j * params.omega * np.arange(space.dim) * t))
    upper = d_op.conj().T @ rot @ d_op
    lower = d_op @ rot @ d_op.conj().T
    phase = np.exp(1j * params.g**2 * t / params.omega)
    return phase * _blockdiag(upper, lower)


def perturbative_propagator(params: JCParams, space: FockSpace, t: float) -> np.ndarray:
    """First-order interaction-picture correction O_t to the nu = 0 flow.

    [[cos(nu t) 1,           -i sin(nu t) D(2 zeta_0)],
     [-i sin(nu t) D(-2 zeta_0),          cos(nu t) 1]]
    The full propagator is adiabatic_propagator(t) @ O_t.  This is the
    paper's first-order result: it replaces the time average of the rotating
    displacement by the identity, so the swap runs at the bare rate nu.
    Exact dynamics matches it only when 2 |zeta_0|^2 << 1; otherwise it runs
    at the dressed rate nu exp(-2 |zeta_0|^2).  For nu > 0 a RegimeWarning
    flags nu > 0.1 omega or 0 < omega t < 2 pi.
    """
    if params.nu > 0 and (params.nu > 0.1 * params.omega
                          or (t > 0 and params.omega * t < 2.0 * np.pi)):
        warnings.warn(
            f"first-order propagator outside its regime (nu/omega = "
            f"{params.nu / params.omega:.3g}, omega t = {params.omega * t:.3g})",
            RegimeWarning,
            stacklevel=2,
        )
    d = space.dim
    z2 = 2.0 * params.zeta0
    d_plus = displacement(space, z2)
    d_minus = displacement(space, -z2)
    c, s = np.cos(params.nu * t), np.sin(params.nu * t)
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    out[:d, :d] = c * np.eye(d)
    out[d:, d:] = c * np.eye(d)
    out[:d, d:] = -1j * s * d_plus
    out[d:, :d] = -1j * s * d_minus
    return out


def evolved_cat(c_plus: complex, c_minus: complex, params: JCParams,
                space: FockSpace, t: float) -> np.ndarray:
    """Vacuum-started oscillator entangled with the well qubit at nu = 0, as
    a (2D,) composite vector.

    Global phase exp(i (g/omega)^2 (omega t - sin omega t)); the up block is
    c_plus |zeta(t)>, the down block c_minus |-zeta(t)>.
    """
    zeta = complex(pointer_path(params, t))
    phase = np.exp(1j * (params.g / params.omega) ** 2 * (params.omega * t - np.sin(params.omega * t)))
    up = phase * c_plus * coherent_state(space, zeta)
    down = phase * c_minus * coherent_state(space, -zeta)
    return np.concatenate([up, down])


def reduced_oscillator_state(state: np.ndarray) -> np.ndarray:
    """Oscillator density matrix after tracing out the qubit from a (2D,)
    composite vector.

    The partial trace of a block state is up up^dag + down down^dag; branch
    cross terms do not survive it.
    """
    up, down = np.split(state, 2)
    return np.outer(up, up.conj()) + np.outer(down, down.conj())


def purity(rho: np.ndarray) -> float:
    return float(np.trace(rho @ rho).real)


def transition_probability_series(params: JCParams, space: FockSpace,
                                  times: np.ndarray,
                                  initial: np.ndarray | None = None,
                                  target: np.ndarray | None = None) -> np.ndarray:
    """|<target | U(t) | initial>|^2 along a uniform time series.

    Defaults: initial = |+zeta_0, +>, target = |-zeta_0, -> (the pointer
    swap channel).
    """
    if initial is None:
        initial = pointer_state(params, space, +1)
    if target is None:
        target = pointer_state(params, space, -1)
    amp = evolve_rows(params, space, initial, times) @ target.conj()
    return amp.real**2 + amp.imag**2


def interaction_picture_potential(params: JCParams, space: FockSpace,
                                  t: float) -> np.ndarray:
    """Interaction-picture tunneling term nu e^{i H0 t} sigma_1 e^{-i H0 t}.

    Off-diagonal blocks are S_t = D(zeta_0) e^{i w n t} D(-2 zeta_0)
    e^{-i w n t} D(zeta_0), assembled from exactly unitary factors, so the
    result is Hermitian with unitary blocks by construction.
    """
    s_t = _tunneling_block(params, space, t)
    d = space.dim
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    out[:d, d:] = params.nu * s_t
    out[d:, :d] = params.nu * s_t.conj().T
    return out


def _tunneling_block(params: JCParams, space: FockSpace, t: float) -> np.ndarray:
    d_z = displacement(space, params.zeta0)
    rot = np.exp(1j * params.omega * np.arange(space.dim) * t)
    d_mid = displacement(space, -2.0 * params.zeta0)
    inner = (rot[:, None] * d_mid) * rot.conj()[None, :]
    return d_z @ inner @ d_z


def tunneling_block_time_average(params: JCParams, space: FockSpace, t: float,
                                 nodes: int = 4000) -> np.ndarray:
    """(1/t) Integral_0^t S(s) ds by the trapezoid rule.

    Quantifies how far the averaged interaction-picture tunneling block is
    from the bare pointer-swap displacement D(2 zeta_0): the average
    converges instead to the dressed block whose pointer matrix element is
    exp(-2 |zeta_0|^2).
    """
    if t <= 0:
        raise ValueError("average needs a positive time window")
    ss = np.linspace(0.0, t, nodes)
    d_z = displacement(space, params.zeta0)
    d_mid = displacement(space, -2.0 * params.zeta0)
    # Element (m, n) of the rotated block carries e^{i omega (m - n) s}, so
    # the average is d_mid times one kernel over level differences m - n.
    d = space.dim
    lags = np.arange(1 - d, d)
    kernel = np.trapezoid(np.exp(1j * params.omega * np.outer(ss, lags)), ss, axis=0) / t
    levels = np.arange(d)
    return d_z @ (d_mid * kernel[np.subtract.outer(levels, levels) + d - 1]) @ d_z


def matrix_exponential(op: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * op) by scaling-and-squaring (Pade); no eigendecomposition.

    Raises OverflowError if the result is not finite (pathological norms).
    """
    result = expm(scale * op)
    if not np.all(np.isfinite(result.view(float))):
        raise OverflowError("matrix exponential overflowed; rescale the operator")
    return result


def stationary_state_check(params: JCParams, space: FockSpace, t: float,
                           sign: int) -> float:
    """Residual || e^{-i H0 t} |s zeta_0, s> - e^{i g^2 t / omega} |s zeta_0, s> ||.

    H0 is the nu = 0 Hamiltonian integrated by matrix exponential; the
    residual is a pure truncation diagnostic (<= 1e-8 at D = 64 for
    |zeta_0| <= 2).
    """
    h0 = total_hamiltonian(JCParams(0.0, params.omega, params.g), space)
    psi = pointer_state(params, space, sign)
    evolved = expm(-1j * h0 * t) @ psi
    expected = np.exp(1j * params.g**2 * t / params.omega) * psi
    return float(np.linalg.norm(evolved - expected))


def hamiltonian_step_count(params: JCParams, space: FockSpace, t: float,
                           max_step_norm: float = MAX_STEP_NORM) -> int:
    """Smallest step count with ||H|| t / steps <= max_step_norm."""
    h_norm = float(np.linalg.norm(total_hamiltonian(params, space), 2))
    return max(1, int(np.ceil(h_norm * abs(t) / max_step_norm)))


def exact_propagate(params: JCParams, space: FockSpace, state: np.ndarray,
                    t: float, steps: int) -> np.ndarray:
    """Integrate the full H by repeated application of exp(-i H t / steps)
    to a (2D,) composite vector.

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
    for _ in range(steps):
        state = u_step @ state
    return state


# ---------------------------------------------------------------------------
# closed forms of the force records


_FORMS = ("exact", "approximate")


def jump_weight(sched: MeasurementSchedule) -> float:
    """Per-step jump weight lambda = nu^2 tau^2 / 4 of the small-angle law."""
    return sched.nu**2 * sched.tau**2 / 4.0


def sequence_probability(record: np.ndarray, sched: MeasurementSchedule,
                         small_angle: bool = False) -> float:
    """Probability of a full record, a (N+1,) array of +/-1 readings
    starting from the right well.

    Exact: (cos^2(nu tau/2))^(N-n) (sin^2(nu tau/2))^n for n jumps over N
    transitions.  With small_angle=True, the nu tau << 1 law
    lambda^n exp(-lambda (N-n)) is returned instead.
    """
    if len(record) != sched.n_steps + 1:
        raise ValueError(
            f"record has {len(record)} readings, schedule expects {sched.n_steps + 1}"
        )
    if record[0] != 1:
        raise ValueError("records start from the right well (+1 first reading)")
    n = np.count_nonzero(record[1:] != record[:-1])
    big_n = sched.n_steps
    if small_angle:
        lam = jump_weight(sched)
        return float(lam**n * np.exp(-lam * (big_n - n)))
    p_flip = sched.flip_probability
    return float((1.0 - p_flip) ** (big_n - n) * p_flip**n)


def _check_form(form: str):
    if form not in _FORMS:
        raise ValueError(f"form must be one of {_FORMS}, got {form!r}")


def conditional_g(a2: int, a1: int, m_steps: int, sched: MeasurementSchedule,
                  form: str = "exact") -> float:
    """Conditional probability g(a2, a1; m) of reading a2 a lag of m steps
    after reading a1.

    form="exact" sums the record law directly: (1 +/- cos^m(nu tau)) / 2,
    a properly normalized telegraph conditional.  form="approximate" is the
    small-angle closed form
        (cos^2(nu tau/2))^m [ (1 + sin^2(nu tau)/4)^m +/- (1 - sin^2(nu tau)/4)^m ] / 2
    whose per-jump weight sin^2(nu tau)/4 only matches the exact
    tan^2(nu tau / 2) to leading order; its conditional law is not
    normalized at finite nu tau.  Symmetric wells: g(-,-) = g(+,+) and
    g(+,-) = g(-,+).
    """
    if a1 not in (1, -1) or a2 not in (1, -1):
        raise ValueError("well labels must be +1 or -1")
    if m_steps < 0:
        raise ValueError(f"step lag must be nonnegative, got {m_steps}")
    _check_form(form)
    same = a1 == a2
    if form == "exact":
        base = np.cos(sched.nu * sched.tau) ** m_steps
        return float(0.5 * (1.0 + base) if same else 0.5 * (1.0 - base))
    c2m = np.cos(0.5 * sched.nu * sched.tau) ** (2 * m_steps)
    x = 0.25 * np.sin(sched.nu * sched.tau) ** 2
    plus, minus = (1.0 + x) ** m_steps, (1.0 - x) ** m_steps
    return float(0.5 * c2m * (plus + minus if same else plus - minus))


def force_mean_steps(m_step: int, sched: MeasurementSchedule, f0: float,
                     form: str = "exact") -> float:
    """Discrete mean force at step m for a right-well start.

    exact: -f0 cos^m(nu tau); approximate:
    -f0 [cos^2(nu tau/2) (1 - sin^2(nu tau)/4)]^m.
    """
    _check_form(form)
    if form == "exact":
        return float(-f0 * np.cos(sched.nu * sched.tau) ** m_step)
    base = np.cos(0.5 * sched.nu * sched.tau) ** 2 * (
        1.0 - 0.25 * np.sin(sched.nu * sched.tau) ** 2
    )
    return float(-f0 * base**m_step)


def force_corr_steps(m1: int, m2: int, sched: MeasurementSchedule, f0: float,
                     form: str = "exact") -> float:
    """Discrete two-time force correlation <F(m2) F(m1)>, m1 <= m2.

    exact: f0^2 cos^(m2-m1)(nu tau) -- stationary in the lag alone.
    approximate: f0^2 (cos^2(nu tau/2))^m2 (1 - sin^2(nu tau)/4)^(m2-m1)
    (1 + sin^2(nu tau)/4)^m1, which carries an m1-dependent prefactor
    (cos^2(nu tau/2))^m1 (1 + sin^2(nu tau)/4)^m1 and is therefore not a
    function of the lag alone.
    """
    if m2 < m1:
        raise ValueError(f"steps must be ordered m1 <= m2, got {m1} > {m2}")
    _check_form(form)
    if form == "exact":
        return float(f0**2 * np.cos(sched.nu * sched.tau) ** (m2 - m1))
    c2 = np.cos(0.5 * sched.nu * sched.tau) ** 2
    x = 0.25 * np.sin(sched.nu * sched.tau) ** 2
    return float(f0**2 * c2**m2 * (1.0 - x) ** (m2 - m1) * (1.0 + x) ** m1)


def analytic_force_mean(t: float, sched: MeasurementSchedule, f0: float) -> float:
    """Continuum mean force -f0 exp(-Gamma t), Gamma = nu^2 tau / 2."""
    return float(-f0 * np.exp(-sched.gamma * t))


def analytic_force_corr(t1: float, t2: float, sched: MeasurementSchedule,
                        f0: float) -> float:
    """Continuum two-time force correlation f0^2 exp(-Gamma |t2 - t1|)."""
    return float(f0**2 * np.exp(-sched.gamma * abs(t2 - t1)))


def kolmogorov_defect(sched: MeasurementSchedule, n_steps: int) -> float:
    """Marginalization defect of projective well-measurement records.

    Records at times tau, 2 tau, ..., n tau from a right-well start:
    max over later outcomes of | Sum_{a1} P_n - P_{n-1} |, where P_{n-1}
    drops the first measurement.  Both sides share the chain of n - 2 later
    transition probabilities, so the defect is the first-step difference
    max_b |(T v1)_b - v2_b| times the largest chain max(p, 1 - p)^(n-2),
    with T the one-step transition matrix, p = cos^2(nu tau / 2) its
    diagonal, and v1, v2 the well probabilities at tau and 2 tau.
    Vanishes when the evolution commutes with the well projectors (nu = 0)
    and shrinks as nu tau -> 0.
    """
    if n_steps < 2:
        raise ValueError(f"need at least two measurements, got {n_steps}")
    params = TunnelingParams(sched.nu, 0.0)
    # trans[b, a] = |<b| U_tau |a>|^2, symmetric with entries p and 1 - p
    trans = np.abs(tunneling_propagator(params, sched.tau)) ** 2
    v2 = np.abs(tunneling_propagator(params, 2.0 * sched.tau)[:, 0]) ** 2
    first = np.max(np.abs(trans @ trans[:, 0] - v2))
    return float(first * trans.max() ** (n_steps - 2))


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


def uniform_route_records(sched: MeasurementSchedule, count: int, seed: int) -> np.ndarray:
    """Records of `sample_trajectories` on its one-uniform-per-step route
    (q > 0.2): each block's uniforms, row by row, flip where below p, and
    the readings are the running product of the flips' signs."""
    n, p = sched.n_steps, sched.flip_probability
    readings = np.ones((count, n + 1), dtype=np.int8)
    for b, lo in enumerate(range(0, count, _STREAM_BLOCK)):
        rows = min(_STREAM_BLOCK, count - lo)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(b,))))
        signs = np.where(rng.random((rows, n)) < p, -1, 1)
        readings[lo : lo + rows, 1:] = np.cumprod(signs, axis=1)
    return readings


def pack_readings(readings: np.ndarray) -> np.ndarray:
    """The (rows, ceil(length / 64)) uint64 sign-bit words of a 2-D int8
    block of +/-1 readings, as `sample_trajectories` yields them: reading t
    sets bit t % 64 of word t // 64 when it is -1.  Set bit by bit, so it
    shares no step with the sampler's packing, and it refuses anything but
    a 2-D int8 block of +/-1 readings, the estimator's input before its
    blocks were packed."""
    if not (isinstance(readings, np.ndarray) and readings.dtype == np.int8
            and readings.ndim == 2):
        raise ValueError("each block must be a 2-D int8 array of readings")
    if np.count_nonzero(readings == 1) + np.count_nonzero(readings == -1) != readings.size:
        raise ValueError("readings must be +1 or -1")
    words = np.zeros((readings.shape[0], -(-readings.shape[1] // 64)), dtype=np.uint64)
    for t, column in enumerate(readings.T):
        words[:, t // 64] |= (column < 0).astype(np.uint64) << np.uint64(t % 64)
    return words


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


# ---------------------------------------------------------------------------
# pointwise density correlators, and position histories on a spatial grid


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


def gaussian(sigma: float, centre=0.0) -> Packet:
    """One Gaussian branch at `centre`, a float (1D) or an (x, y, z) triple (3D)."""
    return Packet(sigma, (centre,))


def cat(sigma: float, L) -> Packet:
    """Equal-weight branches at +/- L / 2, L a float (1D) or an (x, y, z)
    triple (3D)."""
    half = 0.5 * np.asarray(L, dtype=float)
    return Packet(sigma, (half.tolist(), (-half).tolist()))


@dataclass(frozen=True)
class BoxSampling:
    """Sharp box sampling of half-width h: g is a 0/1 indicator (g^2 = g)."""

    half_width: float

    def __post_init__(self):
        if not 0 < self.half_width < np.inf:
            raise ValueError(f"half-width must be positive and finite, got {self.half_width}")

    @property
    def ell(self) -> float:
        return 2.0 * self.half_width

    def partition_weight(self, spacing: float) -> float:
        return spacing / self.ell


def g(sampling, u):
    """The sampling profile: the box's 0/1 indicator, or exp(-u^2 / 2 s_x^2)
    for Gaussian `SmearingParams`."""
    if isinstance(sampling, BoxSampling):
        return (np.abs(np.asarray(u, dtype=float)) <= sampling.half_width).astype(float)
    return np.exp(-np.asarray(u, dtype=float) ** 2 / (2.0 * sampling.s_x**2))


def sqrt_g(sampling, u):
    """Square root of the sampling profile g: the box's own indicator
    (g^2 = g), or exp(-u^2 / 4 s_x^2) for Gaussian `SmearingParams`."""
    if isinstance(sampling, BoxSampling):
        return g(sampling, u)
    return np.exp(-np.asarray(u, dtype=float) ** 2 / (4.0 * sampling.s_x**2))


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
    return float(np.sum(g(sampling, grid.x - r) * np.abs(psi_t) ** 2) * grid.dx)


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
    right = g(sampling, grid.x - r2) * state.psi(grid.x, t2, m)
    right = free_evolve(right, grid, t - t2, m)
    left = state.psi(grid.x, t, m)
    return complex(np.sum(np.conj(left) * g(sampling, grid.x - r) * right) * grid.dx)


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
    weight = g(sampling, grid.x - r)
    val = float(np.sum(weight * weight * np.abs(psi_t) ** 2) * grid.dx)
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
    cur = state.psi(grid.x, t1, m) * sqrt_g(sampling, grid.x - r1_values[:, None])
    t_prev = t1
    for r_i, t_i in events_tail:
        cur = free_evolve(cur, grid, t_i - t_prev, m)
        cur = cur * sqrt_g(sampling, grid.x - r_i)
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


# ---------------------------------------------------------------------------
# the numerical Wigner transform and its interpolating spline


@dataclass
class SplineGrid(PhaseSpaceGrid):
    """A sampled W(x, p) read off the nodes through its tensor-product cubic
    interpolating spline, the one FITPACK's regrid fits at s = 0 (Dierckx,
    Curve and Surface Fitting with Splines, 1993), with B-splines from de
    Boor's recursion (A Practical Guide to Splines, 1978)."""

    _spline: object = field(default=None, repr=False, compare=False)

    def evaluate(self, x, p):
        """Tensor-product cubic interpolating spline (the s = 0 spline of
        FITPACK's regrid); `x` and `p` broadcast, zero outside the grid."""
        if self._spline is None:
            tx, tp = _knots(self.x), _knots(self.p)
            coef = _collocation_solve(tx, self.x, self.values)
            coef = _collocation_solve(tp, self.p, coef.T).T
            self._spline = (tx, tp, coef.ravel())
        tx, tp, coef = self._spline
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        # B-splines of each input as given; the sum broadcasts them
        ix, bx = _basis(tx, x)
        ip, bp = _basis(tp, p)
        # coef is the row-major (x, p) coefficient table, flattened
        corner = ix * self.p.size + ip
        out = np.zeros(corner.shape)
        for i in range(4):
            for j in range(4):
                out += coef[corner + (i * self.p.size + j)] * bx[i] * bp[j]
        inside = (
            (x >= self.x[0]) & (x <= self.x[-1]) & (p >= self.p[0]) & (p <= self.p[-1])
        )
        return np.where(inside, out, 0.0)


def _knots(axis: np.ndarray) -> np.ndarray:
    """Knots of the cubic interpolating spline on `axis` that FITPACK's
    regrid builds at s = 0: axis[2:-2] between the two end points, each
    end point repeated four times."""
    if axis.size < 4:
        raise ValueError(f"cubic spline needs at least 4 points per axis, got {axis.size}")
    return np.concatenate([np.repeat(axis[0], 4), axis[2:-2], np.repeat(axis[-1], 4)])


def _basis(t: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, list]:
    """The four cubic B-splines that can be nonzero at each of `x`: the
    index of the first and their four value arrays, by de Boor's recursion
    in the form of FITPACK's fpbspl.  Points are clamped to the knot span."""
    n_coef = t.size - 4
    x = np.clip(x, t[3], t[n_coef])
    # interval t[l] <= x < t[l + 1]; the right end joins the last interval
    left = np.clip(np.searchsorted(t, x, side="right") - 1, 3, n_coef - 1)
    knot = {d: t[left + d] for d in range(-2, 4)}
    h = [np.ones(x.shape)]
    for j in range(1, 4):
        nxt = [np.zeros(x.shape)]
        for i in range(j):
            t_right, t_left = knot[i + 1], knot[i + 1 - j]
            f = h[i] / (t_right - t_left)
            nxt[i] += f * (t_right - x)
            nxt.append(f * (x - t_left))
        h = nxt
    return left - 3, h


def _collocation_solve(t: np.ndarray, nodes: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Coefficients c with sum_j c[j] B_j(nodes[i]) = rhs[i] for every row
    of `rhs`.  The collocation matrix has at most four nonzeros per row and
    a band of three on either side of the diagonal; it is totally positive,
    so Gaussian elimination without pivoting is stable (de Boor and Pinkus,
    1977) and costs O(n) per right-hand side."""
    n = nodes.size
    first, vals = _basis(t, nodes)
    rows = np.arange(n)[:, None]
    band = np.zeros((n, 7))  # band[i, 3 + j - i] = B_j(nodes[i])
    band[rows, 3 + first[:, None] + np.arange(4) - rows] = np.column_stack(vals)
    c = np.array(rhs, dtype=float)
    for k in range(n - 1):
        for i in range(k + 1, min(k + 4, n)):
            f = band[i, 3 + k - i] / band[k, 3]
            if f != 0.0:
                band[i, 3 + k - i:7 + k - i] -= f * band[k, 3:]
                c[i] -= f * c[k]
    for k in range(n - 1, -1, -1):
        for j in range(k + 1, min(k + 4, n)):
            c[k] -= band[k, 3 + j - k] * c[j]
        c[k] /= band[k, 3]
    return c


def wigner_transform(
    state,
    x_axis: np.ndarray | None = None,
    p_axis: np.ndarray | None = None,
) -> SplineGrid:
    """Numerical Wigner transform of a pure 1D state, by composite
    Gauss-Legendre quadrature in y with the panel count tied to the largest
    requested |p|, so under-resolved grids fail the normalization check
    rather than silently aliasing.

    Raises GridAliasingError when the result is not real within 1e-9 or its
    normalization misses 1 by more than 1e-6 (both symptoms
    of an inadequate grid), and, before allocating, when a psi array or the
    phase matrix would exceed MAX_GRID_ELEMENTS.
    """
    if x_axis is None or p_axis is None:
        xd, pd = default_axes(state)
        x_axis = xd if x_axis is None else np.asarray(x_axis, dtype=float)
        p_axis = pd if p_axis is None else np.asarray(p_axis, dtype=float)
    else:
        x_axis = np.asarray(x_axis, dtype=float)
        p_axis = np.asarray(p_axis, dtype=float)

    lo, hi = state.support()
    y_half = hi - lo
    p_max = float(np.max(np.abs(p_axis))) if p_axis.size else 0.0
    order = 16  # Gauss-Legendre nodes per y panel
    panels = panels_for_oscillation(-y_half, y_half, p_max, order=order)
    n_y = panels * order
    if max(x_axis.size, p_axis.size) * n_y > MAX_GRID_ELEMENTS:
        raise GridAliasingError(
            f"transform needs a {x_axis.size} x {n_y} psi array and a {n_y} x "
            f"{p_axis.size} phase matrix, beyond the bound of {MAX_GRID_ELEMENTS} "
            "elements; the state is too fine for its support"
        )
    y, wy = gauss_legendre(-y_half, y_half, panels, order)

    psi_minus = state.psi(x_axis[:, None] - 0.5 * y[None, :])
    psi_plus = state.psi(x_axis[:, None] + 0.5 * y[None, :])
    integrand = psi_minus * np.conj(psi_plus) * wy[None, :]
    phases = np.exp(1j * np.outer(y, p_axis))
    w_complex = integrand @ phases

    imag_max = float(np.max(np.abs(w_complex.imag)))
    if imag_max > 1e-9:
        raise GridAliasingError(
            f"Wigner transform has imaginary residue {imag_max:.3g}; "
            "grid or quadrature under-resolved"
        )
    grid = SplineGrid(
        x_axis,
        p_axis,
        w_complex.real,
        meta={"state": repr(state), "y_panels": panels},
    )
    norm = grid.normalization()
    if abs(norm - 1.0) > 1e-6:
        raise GridAliasingError(
            f"Wigner normalization {norm!r} deviates from 1 beyond 1e-6; "
            "grid does not capture the state"
        )
    grid.meta["normalization"] = norm
    return grid


def wigner_line_mean(state, r, t: float, m: float = 1.0):
    """Delta-limit smeared mean (m / 2 pi) Integral dp W0(r - p t / m, p) of
    a 1D state, each Wigner term's p integral in closed form (against
    `density.density_mean`, which takes m |psi(r, t)|^2).  For
    narrow packets the terms are huge and cancel; normal widths only."""
    r = np.asarray(r, dtype=float)
    shift = np.stack([r, np.zeros_like(r)], axis=-1)[..., None, :]
    line = wigner_terms(state).pullback([[-t / m], [1.0]], shift)
    return m * np.sum(line.integral(), axis=-1).real / (2.0 * np.pi)


def smeared_mean_quadrature(w0: SplineGrid, smear, r: float, t: float,
                            m: float = 1.0) -> float:
    """1D smeared mean density with the finite-width Gaussian sampling
    kernel integrated against the initial Wigner function W0."""
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


def corr_quadrature_on_grid(w0: SplineGrid, smear, r: float, t: float, r2: float,
                            t2: float, m: float = 1.0) -> float:
    """`density.smeared_corr_quadrature` by Gauss-Legendre quadrature of the
    spline of W0: 12 panels in p over p* +/- 8 momentum widths, 8 in
    x over +/- 8 s_x around the time-of-flight line."""
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


def cat_wigner(x, p, sigma, sep):
    """W of the even two-branch cat at +/- sep/2, written out (Schleich);
    sep = 0 is the Gaussian."""
    a = 0.5 * sep
    n2 = 1.0 / (1.0 + np.exp(-(a**2) / (2.0 * sigma**2)))
    lobes = np.exp(-((x - a) ** 2) / (2 * sigma**2)) + np.exp(-((x + a) ** 2) / (2 * sigma**2))
    fringe = 2.0 * np.exp(-(x**2) / (2 * sigma**2)) * np.cos(2.0 * a * p)
    return n2 * (lobes + fringe) * np.exp(-2 * sigma**2 * p**2)


def trapezoid_corr(sigma, sep, s, r, t, r2, t2, m=1.0):
    """The finite-width two-point function by a 2D trapezoid over the exact
    W, in (u, p) with u = x - (r + r2)/2 + p (t + t2) / 2m, on p* +/- 4 and
    u in +/- 8 s."""
    p_star = m * (r - r2) / (t - t2)
    u = np.linspace(-8.0 * s, 8.0 * s, 801)[:, None]
    p = np.linspace(p_star - 4.0, p_star + 4.0, 4001)[None, :]
    x = u + 0.5 * (r + r2) - p * (t + t2) / (2.0 * m)
    c_coef = (t - t2) ** 2 / (4.0 * m**2 * s**2)
    f = cat_wigner(x, p, sigma, sep) * np.exp(-(u**2) / s**2 - c_coef * (p - p_star) ** 2)
    ell = np.sqrt(2.0 * np.pi) * s
    return m**2 / ell**2 * np.trapezoid(np.trapezoid(f, u[:, 0], axis=0), p[0]) / (2.0 * np.pi)


def static_limit_corr(state, smear, r, r2, m: float = 1.0) -> float:
    """Static-limit smeared two-point function m^2 |psi(r)|^2 f(r - r2) of a
    zero-mean-momentum 3D state, the sharp-density delta replaced by the
    3D smearing profile f(u) = exp(-u^2 / 2 s_x^2) / ell^3; at r = r2 it is
    the second moment that `density.fluctuation_ratio` takes as
    (m / ell^3) x mean."""
    u_sq = float(np.sum((np.asarray(r, dtype=float) - np.asarray(r2, dtype=float)) ** 2))
    profile = np.exp(-u_sq / (2.0 * smear.s_x**2)) / smear.ell**3
    return m**2 * float(np.abs(state.psi(r, 0.0)) ** 2) * float(profile)


# ---------------------------------------------------------------------------
# the additivity defect by comb propagation on a spatial grid


def _comb_marginal_density(state, sampling, r1_values: np.ndarray, t1: float, t2: float,
                           m: float, grid: SpatialGrid) -> np.ndarray:
    """rho(x) = w Sum_{r1} |U(t2 - t1)[sqrt_g(x - r1) psi(x, t1)]|^2, the
    comb propagated _COMB_BLOCK_BYTES at a time."""
    psi1 = state.psi(grid.x, t1, m)
    rows = max(1, _COMB_BLOCK_BYTES // (16 * grid.x.size))
    rho = np.zeros(grid.x.size)
    for lo in range(0, r1_values.size, rows):
        cur = psi1 * sqrt_g(sampling, grid.x - r1_values[lo:lo + rows, None])
        cur = free_evolve(cur, grid, t2 - t1, m)
        rho += np.sum(cur.real**2 + cur.imag**2, axis=0)
    return rho * _comb_weight(sampling, r1_values)


def comb_additivity_defect(state, sampling, t1: float, t2: float, r1_values: np.ndarray,
                           r2_values, m: float = 1.0,
                           grid: SpatialGrid | None = None) -> float:
    """`histories.additivity_defect` on a spatial grid, for any sampling
    profile: the comb is propagated once by FFT into its marginal density
    rho(x) (_comb_marginal_density); each r2 then reads Integral
    sqrt_g(x - r2)^2 rho dx against Integral sqrt_g(x - r2)^2 |psi(x, t2)|^2 dx.
    """
    if not t2 > t1:
        raise ValueError(f"sampling times must be strictly increasing, got {[t1, t2]}")
    if grid is None:
        grid = auto_grid(state, sampling, t2, m)
    rho = _comb_marginal_density(state, sampling, np.asarray(r1_values, dtype=float), t1, t2,
                                 m, grid)
    psi2 = state.psi(grid.x, t2, m)
    density2 = psi2.real**2 + psi2.imag**2
    worst = 0.0
    for r2 in np.atleast_1d(np.asarray(r2_values, dtype=float)).tolist():
        g2 = sqrt_g(sampling, grid.x - r2) ** 2
        summed = float(np.sum(g2 * rho) * grid.dx)
        worst = max(worst, abs(summed - float(np.sum(g2 * density2) * grid.dx)))
    return worst
