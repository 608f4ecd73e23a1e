"""Truncated harmonic-oscillator Hilbert space.

Dense linear algebra on the number basis |0>, ..., |D-1> with hbar = 1
and <n-1|a|n> = sqrt(n): operators are plain (D, D) arrays and states (D,)
complex vectors, and the cutoff is the integer D.  The truncated generator
w a^dag - conj(w) a equals -i |w| P X P^dag with the real tridiagonal
X = a + a^dag and P = diag(e^{i n arg w} i^n), so every displacement of a
cutoff acts through one cached real eigendecomposition X = V diag(E) V^T:
D(w) v = P V e^{-i |w| E} V^T P^dag v, two real matrix-vector products and
elementwise phases, and no D x D displacement is ever built.  It is unitary
to machine precision regardless of the cutoff.  Truncation error instead
shows up as leakage of displaced states past the top level, which
`vacuum_truncation_leak` quantifies analytically.

One rule judges a cutoff: D is adequate for a displacement w while the
vacuum image D(w)|0> leaks at most TRUNCATION_LEAK_BOUND past the top
level.  `displacement` warns beyond it, and jc-suite rejects a run whose
largest displacement exceeds it.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np


# Largest vacuum leak past the cutoff at which a displacement is faithful.
TRUNCATION_LEAK_BOUND = 1e-6


class TruncationInadequateWarning(UserWarning):
    """Displacement pushes significant amplitude past the Fock cutoff."""


def quadrature(d: int) -> np.ndarray:
    """a + a^dag as a real (D, D) tridiagonal array, sqrt(n) beside the
    diagonal."""
    off = np.sqrt(np.arange(1.0, d))
    return np.diag(off, 1) + np.diag(off, -1)


def vacuum_truncation_leak(d: int, w: complex) -> float:
    """Probability weight of D(w)|0> beyond the top retained level.

    This is the Poisson tail P(N >= D) with mean |w|^2.  Below the mean it
    is summed upward from k = D; at or above it, one minus the head summed
    downward from k = D - 1.  Either way the terms fall monotonically from
    the first, which is taken from `math.lgamma`, and the sum stops at the
    first term below 1e-17 of it, so a huge cutoff costs no more than a
    small one.  An infinite |w| gives NaN.
    """
    lam = abs(w) * abs(w)  # * gives inf where ** would raise
    if lam == 0.0:
        return 0.0
    log_lam = math.log(lam)
    if lam < d:
        k, term, total = d, 1.0, 0.0
        while term > 1e-17 * total:
            total += term
            k += 1
            term *= lam / k
        return math.exp(d * log_lam - lam - math.lgamma(d + 1)) * total
    k, term, total = d - 1, 1.0, 0.0
    while term > 1e-17 * total:
        total += term
        term *= k / lam
        k -= 1
    return 1.0 - math.exp((d - 1) * log_lam - lam - math.lgamma(d)) * total


def displacement(d: int, w: complex, vec: np.ndarray) -> np.ndarray:
    """D(w) vec, the displacement exp(w a^dag - conj(w) a) on the truncated
    space applied to the (D,) vector `vec`, as a new complex vector.

    Unitary to machine precision, and exactly the identity at w = 0 (a copy
    of `vec`).  Emits TruncationInadequateWarning on every call whose vacuum
    leak past the cutoff exceeds TRUNCATION_LEAK_BOUND, i.e. when displaced
    states are no longer faithfully represented.
    """
    leak = vacuum_truncation_leak(d, w)
    if leak > TRUNCATION_LEAK_BOUND:
        warnings.warn(
            f"displacement |w|^2 = {abs(w)**2:.3g} leaks {leak:.3g} of the "
            f"vacuum image past cutoff D = {d}; increase the cutoff",
            TruncationInadequateWarning,
            stacklevel=2,
        )
    vec = np.asarray(vec, dtype=complex)
    if w == 0:
        return vec.copy()
    energies, modes = _generator_eigh(d)
    n = np.arange(d)
    phase = np.exp(1j * np.angle(w) * n) * 1j ** (n % 4)  # exact powers of i
    coeffs = np.exp(-1j * abs(w) * energies) * _real_product(modes.T, phase.conj() * vec)
    return phase * _real_product(modes, coeffs)


def _real_product(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Real `mat` times contiguous complex `vec` as one real product over its
    (D, 2) real and imaginary columns, without a complex copy of `mat`."""
    return (mat @ vec.view(float).reshape(-1, 2)).view(complex)[:, 0]


@functools.lru_cache(maxsize=8)
def _generator_eigh(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Real eigendecomposition of a + a^dag, which diag(i^n) carries into i (a^dag - a)."""
    return np.linalg.eigh(quadrature(d))


def coherent_state(d: int, zeta: complex) -> np.ndarray:
    """Coherent state D(zeta)|0> as a (D,) vector; its unit norm is checked
    to 1e-10 (a NaN norm fails too)."""
    vacuum = np.zeros(d, dtype=complex)
    vacuum[0] = 1.0
    amp = displacement(d, zeta, vacuum)
    norm = np.linalg.norm(amp)
    if not abs(norm - 1.0) <= 1e-10:
        raise ValueError(f"coherent state has norm {norm!r}, expected 1")
    return amp
