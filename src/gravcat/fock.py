"""Truncated harmonic-oscillator Hilbert space.

Dense complex linear algebra on the number basis |0>, ..., |D-1> with
hbar = 1 and <n-1|a|n> = sqrt(n).  The truncated displacement generator
w a^dag - conj(w) a equals -i |w| R K R^dag with the Hermitian
K = i (a^dag - a) and the phase rotation R = diag(e^{i n arg w}), so every
displacement of a cutoff is built from one cached eigendecomposition of K:
D(w) = R V e^{-i |w| E} V^dag R^dag.  The result is unitary to machine
precision regardless of the cutoff.  Truncation error instead shows up as
leakage of displaced states past the top level, which
`vacuum_truncation_leak` quantifies analytically.

Rule of thumb used throughout: a cutoff D is adequate for displacements w
with |w|^2 <= D/4 (coherent-state occupation tail beyond D is then far
below double precision).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np


class TruncationInadequateWarning(UserWarning):
    """Displacement pushes significant amplitude past the Fock cutoff."""


@dataclass(frozen=True)
class FockSpace:
    """Oscillator Hilbert space truncated to the first `dim` number states."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"Fock cutoff must be at least 2, got {self.dim}")


@dataclass
class FockVector:
    """Complex amplitude vector on a truncated Fock space.

    If `normalized` is set, unit norm is enforced at construction
    (tolerance 1e-10).
    """

    amplitudes: np.ndarray
    space: FockSpace
    normalized: bool = False

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.space.dim,):
            raise ValueError(
                f"amplitude vector has shape {amp.shape}, expected ({self.space.dim},)"
            )
        if not np.all(np.isfinite(amp.view(float))):
            raise ValueError("amplitude vector contains non-finite entries")
        self.amplitudes = amp
        if self.normalized and abs(self.norm() - 1.0) > 1e-10:
            raise ValueError(f"vector flagged normalized has norm {self.norm()!r}")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def inner(self, other: "FockVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def overlap(self, other: "FockVector") -> float:
        """Fidelity |<self|other>|^2."""
        return abs(self.inner(other)) ** 2


@dataclass
class FockOperator:
    """Dense D x D operator on a truncated Fock space."""

    matrix: np.ndarray
    space: FockSpace

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.space.dim
        if mat.shape != (d, d):
            raise ValueError(f"operator has shape {mat.shape}, expected ({d}, {d})")
        self.matrix = mat

    def apply(self, vec: FockVector) -> FockVector:
        return FockVector(self.matrix @ vec.amplitudes, self.space)

    def expectation(self, vec: FockVector) -> complex:
        return complex(np.vdot(vec.amplitudes, self.matrix @ vec.amplitudes))

    def __matmul__(self, other):
        if isinstance(other, FockOperator):
            return FockOperator(self.matrix @ other.matrix, self.space)
        if isinstance(other, FockVector):
            return self.apply(other)
        return NotImplemented


def ladder_operators(space: FockSpace) -> tuple[FockOperator, FockOperator]:
    """Annihilation and creation operators (a, a^dag)."""
    d = space.dim
    a = np.zeros((d, d), dtype=complex)
    ns = np.arange(1, d)
    a[ns - 1, ns] = np.sqrt(ns)
    return FockOperator(a, space), FockOperator(a.conj().T, space)


def number_operator(space: FockSpace) -> FockOperator:
    return FockOperator(np.diag(np.arange(space.dim, dtype=complex)), space)


def vacuum_truncation_leak(space: FockSpace, w: complex) -> float:
    """Probability weight of D(w)|0> beyond the top retained level.

    This is the Poisson tail P(N >= D) with mean |w|^2.  Below the mean it
    is summed upward from k = D; at or above it, one minus the head summed
    downward from k = D - 1.  Either way the terms fall monotonically from
    the first, which is taken from `math.lgamma`.
    """
    lam = abs(w) ** 2
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
    term, total = 1.0, 0.0
    for k in range(d - 1, -1, -1):
        total += term
        term *= k / lam
    return 1.0 - math.exp((d - 1) * log_lam - lam - math.lgamma(d)) * total


def displacement(space: FockSpace, w: complex) -> FockOperator:
    """Displacement operator exp(w a^dag - conj(w) a) on the truncated space.

    Unitary to machine precision, and exactly the identity at w = 0.
    Emits TruncationInadequateWarning when the vacuum leak past the cutoff
    exceeds 1e-6, i.e. when displaced states are no longer faithfully
    represented.  The matrix is built once per (D, w) and shared between
    calls, so it is read-only.
    """
    d = space.dim
    leak = vacuum_truncation_leak(space, w)
    if leak > 1e-6:
        warnings.warn(
            f"displacement |w|^2 = {abs(w)**2:.3g} leaks {leak:.3g} of the "
            f"vacuum image past cutoff D = {d}; increase the cutoff",
            TruncationInadequateWarning,
            stacklevel=2,
        )
    return FockOperator(_displacement_matrix(d, w), space)


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
    return np.linalg.eigh(1j * (adag.matrix - a.matrix))


def coherent_state(space: FockSpace, zeta: complex) -> FockVector:
    """Coherent state D(zeta)|0>."""
    op = displacement(space, zeta)
    amp = op.matrix[:, 0].copy()
    return FockVector(amp, space, normalized=True)
