"""Quantum oscillator probe of the two-well system.

The well qubit couples to an oscillator probe through the Newtonian force:
H = nu sigma_1 + omega a^dag a + g sigma_3 (a + a^dag) with
g = -f0 / sqrt(2 m0 omega).  For nu << omega the conditional dynamics is a
displaced rotation solvable in closed form (each well drags the oscillator
around a circle of center zeta_0 = -g/omega in phase space), and the probe
resolves the wells once the pointer coherent states are distinguishable,
|<zeta_0|-zeta_0>|^2 = exp(-4 |zeta_0|^2) << 1.  Tunneling-induced
transitions between the pointer states are computed from the full H,
diagonalised once (`evolve_rows`, one composite vector per time), and from
a first-order interaction-picture propagator
(`first_order_probability_series` evaluates it for a whole time series),
the paper's result: a pointer swap at the bare rate nu.  Exact dynamics
matches the first-order law only when 2 |zeta_0|^2 << 1; in general the
swap runs at the polaron-dressed rate nu exp(-2 |zeta_0|^2), the tunneling
matrix element being weighted by the pointer overlap <zeta_0|-zeta_0>.
The propagator matrices, the step integrator and the time-averaged
interaction-picture block that shows the dressing are test oracles
(`tests/oracles.py`).

Composite states are (2D,) complex vectors ordered (qubit |+> block,
qubit |-> block), each block a (D,) Fock vector; composite operators are
2D x 2D dense arrays in the kron(qubit, oscillator) order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, coherent_state, displacement

# Largest element count of one (2D x 2D) composite matrix: 4.2M complex values
# (67 MB), so D <= 1024.  The tests and the benchmark build at most 128 x 128.
MAX_MATRIX_ELEMENTS = 1 << 22


@dataclass(frozen=True)
class JCParams:
    """Tunneling rate nu, oscillator frequency omega, coupling g.

    A probe of mass m0 under a force of amplitude f0 couples with
    g = -f0 / sqrt(2 m0 omega); the pointer displacement is
    zeta_0 = -g / omega.
    """

    nu: float
    omega: float
    g: float

    def __post_init__(self):
        if not 0 < self.omega < np.inf:
            raise ValueError(f"oscillator frequency must be positive and finite, got {self.omega}")
        if not 0 <= self.nu < np.inf:
            raise ValueError(f"tunneling rate must be nonnegative and finite, got {self.nu}")
        if not abs(self.g) < np.inf:
            raise ValueError(f"coupling must be finite, got {self.g}")

    @property
    def zeta0(self) -> float:
        """Pointer displacement -g / omega (center of the dragged orbit)."""
        return -self.g / self.omega


def pointer_state(params: JCParams, space: FockSpace, sign: int) -> np.ndarray:
    """|+zeta_0, +> or |-zeta_0, ->, the two conditional rest states, as
    (2D,) composite vectors."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    coh = coherent_state(space, sign * params.zeta0)
    zero = np.zeros_like(coh)
    return np.concatenate([coh, zero] if sign == 1 else [zero, coh])


def _composite(space: FockSpace, vec) -> np.ndarray:
    """`vec` as a complex array, checked to be a (2D,) composite vector."""
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (2 * space.dim,):
        raise ValueError(f"composite vector has shape {vec.shape}, expected ({2 * space.dim},)")
    return vec


def total_hamiltonian(params: JCParams, space: FockSpace) -> np.ndarray:
    """nu sigma_1 (x) 1 + omega 1 (x) a^dag a + g sigma_3 (x) (a + a^dag),
    filled into one (2D, 2D) array: omega n + g (a + a^dag) and
    omega n - g (a + a^dag) in the diagonal blocks, nu 1 in the others."""
    d = space.dim
    h = np.zeros((2, d, 2, d), dtype=complex)
    n = np.arange(d)
    coupling = params.g * np.sqrt(n[1:])  # <n-1| g (a + a^dag) |n>
    for block, sign in enumerate((1.0, -1.0)):
        h[block, n, block, n] = params.omega * n
        h[block, n[:-1], block, n[1:]] = h[block, n[1:], block, n[:-1]] = sign * coupling
        h[block, n, 1 - block, n] = params.nu
    return h.reshape(2 * d, 2 * d)


def pointer_path(params: JCParams, t) -> complex | np.ndarray:
    """Coherent-state label zeta(t) = -(g/omega)(1 - e^{-i omega t}) of the
    vacuum-started oscillator conditioned on the up well."""
    return -(params.g / params.omega) * (1.0 - np.exp(-1j * params.omega * np.asarray(t)))


def reduced_purity(up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """tr rho^2 of rho = u u^dag + d d^dag for each row of the block arrays.

    tr rho^2 = |u|^4 + |d|^4 + 2 |<u, d>|^2, so no density matrix is built;
    `up` and `down` are (..., D) block amplitudes, as the rows of
    `evolve_rows` split at D.
    """
    n_up = np.einsum("...i,...i->...", up.conj(), up).real
    n_down = np.einsum("...i,...i->...", down.conj(), down).real
    cross = np.einsum("...i,...i->...", up.conj(), down)
    return n_up**2 + n_down**2 + 2.0 * (cross.real**2 + cross.imag**2)


# Pointer overlap below which the probe resolves the wells.
_PROBE_OK_OVERLAP = 1e-2


def distinguishability(params: JCParams) -> dict:
    """Pointer overlap exp(-4 |zeta_0|^2), whether it is below
    _PROBE_OK_OVERLAP, and the probe-quality inequality it implies, as the
    record `distinguishability.json` holds.

    `coupling_scale` = 2 |zeta_0|^2 omega^3 (equal to f0^2 / m0 when the
    coupling comes from a force amplitude); the probe resolves the wells
    when `omega_cubed` is far below it, equivalently when `overlap` is small.
    """
    overlap = float(np.exp(-4.0 * abs(params.zeta0) ** 2))
    return {
        "overlap": overlap,
        "probe_ok": overlap < _PROBE_OK_OVERLAP,
        "threshold": _PROBE_OK_OVERLAP,
        "omega_cubed": params.omega**3,
        "coupling_scale": 2.0 * abs(params.zeta0) ** 2 * params.omega**3,
        "zeta0": params.zeta0,
    }


def rabi_probability(params: JCParams, t) -> float | np.ndarray:
    """First-order pointer-swap probability sin^2(nu t).

    The paper's first-order law at the bare rate nu.  Exact dynamics matches
    it only when 2 |zeta_0|^2 << 1; in general it follows
    sin^2(nu exp(-2 |zeta_0|^2) t).
    """
    val = np.sin(params.nu * np.asarray(t)) ** 2
    return float(val) if np.ndim(t) == 0 else val


def first_order_probability_series(params: JCParams, space: FockSpace,
                                   times: np.ndarray, initial: np.ndarray,
                                   target: np.ndarray) -> np.ndarray:
    """|<target | A(t) O_t | initial>|^2 for every t in `times`, the
    first-order law: A(t) is the closed-form nu = 0 propagator and O_t the
    first-order interaction-picture correction
    [[cos(nu t) 1, -i sin(nu t) D(2 zeta_0)], [-i sin(nu t) D(-2 zeta_0), cos(nu t) 1]].

    With D = D(g/omega) and R(t) = diag(e^{-i omega n t}), A(t) is the phase
    e^{i g^2 t / omega} times blockdiag(D^dag R D, D R D^dag), so the
    amplitude is sum_n e^{-i omega n t} [cos(nu t) stay_n - i sin(nu t) swap_n]
    with
        stay = conj(D u_t) (D u_i) + conj(D^dag d_t) (D^dag d_i),
        swap = conj(D u_t) (D D(2 zeta_0) d_i) + conj(D^dag d_t) (D^dag D(-2 zeta_0) u_i)
    for blocks (u, d) of the (2D,) composite vectors target and initial; the
    global phase drops out of the modulus.  The pointer swap channel is
    initial = |+zeta_0, +>, target = |-zeta_0, ->.  It does not warn outside
    the first-order regime, as `rabi_probability` does not.
    """
    d = space.dim
    initial, target = _composite(space, initial), _composite(space, target)
    times = np.asarray(times, dtype=float)
    d_op = displacement(space, params.g / params.omega)
    d_adj = d_op.conj().T
    z2 = 2.0 * params.zeta0
    up_i, down_i = initial[:d], initial[d:]
    up_t = (d_op @ target[:d]).conj()
    down_t = (d_adj @ target[d:]).conj()
    stay = up_t * (d_op @ up_i) + down_t * (d_adj @ down_i)
    swap = (up_t * (d_op @ (displacement(space, z2) @ down_i))
            + down_t * (d_adj @ (displacement(space, -z2) @ up_i)))
    rot = np.exp(-1j * params.omega * np.outer(times, np.arange(d)))
    stay_t, swap_t = (rot @ np.stack([stay, swap], axis=1)).T
    amp = np.cos(params.nu * times) * stay_t - 1j * np.sin(params.nu * times) * swap_t
    return amp.real**2 + amp.imag**2


def evolve_rows(params: JCParams, space: FockSpace, state: np.ndarray,
                times: np.ndarray) -> np.ndarray:
    """Composite vectors V e^{-i E t} V^dag psi0 of the (2D,) composite
    vector psi0 = `state`, one row per time, at uniformly spaced times
    starting at times[0] = 0, from one diagonalisation H = V diag(E) V^dag.
    Shape (len(times), 2 D)."""
    state = _composite(space, state)
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0:
        raise ValueError("time series must start at 0")
    if times.size < 2:
        return state[None, :].copy()
    seg = np.diff(times)
    if not np.allclose(seg, seg[0], rtol=1e-9, atol=0.0):
        raise ValueError("time series must be uniformly spaced")
    energies, vecs = np.linalg.eigh(total_hamiltonian(params, space))
    coeffs = vecs.conj().T @ state
    return (np.exp(-1j * np.outer(times, energies)) * coeffs) @ vecs.T
