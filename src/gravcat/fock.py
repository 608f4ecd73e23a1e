"""Truncated harmonic-oscillator Hilbert space.

Dense complex linear algebra on the number basis |0>, ..., |D-1> with
hbar = 1 and <n-1|a|n> = sqrt(n): operators are plain (D, D) complex
arrays and states (D,) vectors, and `FockSpace` carries the cutoff.  The
truncated displacement generator w a^dag - conj(w) a equals
-i |w| R K R^dag with the Hermitian K = i (a^dag - a) and the phase
rotation R = diag(e^{i n arg w}), so every displacement of a cutoff is
built from one cached eigendecomposition of K:
D(w) = R V e^{-i |w| E} V^dag R^dag.  The result is unitary to machine
precision regardless of the cutoff.  Truncation error instead shows up as
leakage of displaced states past the top level, which
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
from dataclasses import dataclass

import numpy as np


# Largest vacuum leak past the cutoff at which a displacement is faithful.
TRUNCATION_LEAK_BOUND = 1e-6


class TruncationInadequateWarning(UserWarning):
    """Displacement pushes significant amplitude past the Fock cutoff."""


@dataclass(frozen=True)
class FockSpace:
    """Oscillator Hilbert space truncated to the first `dim` number states."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"Fock cutoff must be at least 2, got {self.dim}")


def ladder_operators(space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation and creation operators (a, a^dag) as (D, D) arrays."""
    d = space.dim
    a = np.zeros((d, d), dtype=complex)
    ns = np.arange(1, d)
    a[ns - 1, ns] = np.sqrt(ns)
    return a, a.conj().T


def vacuum_truncation_leak(space: FockSpace, w: complex) -> float:
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
    d = space.dim
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


def displacement(space: FockSpace, w: complex) -> np.ndarray:
    """Displacement operator exp(w a^dag - conj(w) a) on the truncated space.

    Unitary to machine precision, and exactly the identity at w = 0.
    Emits TruncationInadequateWarning when the vacuum leak past the cutoff
    exceeds TRUNCATION_LEAK_BOUND, i.e. when displaced states are no longer
    faithfully represented.  The matrix is built once per (D, w) and shared
    between calls, so it is read-only.
    """
    d = space.dim
    leak = vacuum_truncation_leak(space, w)
    if leak > TRUNCATION_LEAK_BOUND:
        warnings.warn(
            f"displacement |w|^2 = {abs(w)**2:.3g} leaks {leak:.3g} of the "
            f"vacuum image past cutoff D = {d}; increase the cutoff",
            TruncationInadequateWarning,
            stacklevel=2,
        )
    return _displacement_matrix(d, w)


@functools.lru_cache(maxsize=32)
def _displacement_matrix(d: int, w: complex) -> np.ndarray:
    if w == 0:
        mat = np.eye(d, dtype=complex)
    else:
        energies, vecs = _generator_eigh(d)
        rotated = np.exp(1j * np.angle(w) * np.arange(d))[:, None] * vecs
        mat = (rotated * np.exp(-1j * abs(w) * energies)) @ rotated.conj().T
    mat.setflags(write=False)
    return mat


@functools.lru_cache(maxsize=8)
def _generator_eigh(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the Hermitian generator K = i (a^dag - a)."""
    a, adag = ladder_operators(FockSpace(d))
    return np.linalg.eigh(1j * (adag - a))


def coherent_state(space: FockSpace, zeta: complex) -> np.ndarray:
    """Coherent state D(zeta)|0> as a (D,) vector; its unit norm is checked
    to 1e-10 (a NaN norm fails too)."""
    amp = displacement(space, zeta)[:, 0].copy()
    norm = np.linalg.norm(amp)
    if not abs(norm - 1.0) <= 1e-10:
        raise ValueError(f"coherent state has norm {norm!r}, expected 1")
    return amp
