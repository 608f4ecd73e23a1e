"""Single-particle states and spatial sampling profiles.

Wave packets are zero-mean-momentum Gaussians and two-branch superpositions
of them ("cat" states) with branches at +/- L/2.  Free evolution is closed
form, so time-evolved amplitudes cost one exp call.  All 3D states used
here are separable (the cat separation must be axis-aligned for per-axis
factorization), and the numerical machinery works on the 1D axis factors.
A 1D packet exposes its amplitude at time t as a sum of Gaussian terms
(`terms`), on which products, free evolution and integrals are closed form.

The sampling profile (`SmearingParams`) defines the position-sampling
function g and the derived smearing scale per axis: ell = sqrt(2 pi) s_x
for a Gaussian of width s_x.  Sharp box sampling (g^2 = g) is a test
oracle (`tests/oracles.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_SUPPORT_SIGMAS = 8.0
# Amplitude of each branch of a cat state, before the overlap correction.
_BRANCH_WEIGHT = 1.0 / np.sqrt(2.0)


def _norm_constant(overlap: float) -> float:
    """1 / || w |right> + w |left> || for the branch weight w and the
    branch overlap <right|left>."""
    wp = wm = _BRANCH_WEIGHT
    n2 = abs(wp) ** 2 + abs(wm) ** 2 + 2.0 * (np.conj(wp) * wm).real * overlap
    return 1.0 / np.sqrt(n2)


def _free_gaussian(x, t: float, m: float, sigma: float, center: float):
    """Freely evolved normalized Gaussian, initially centered with zero
    mean momentum; spread obeys sigma(t)^2 = sigma^2 + t^2/(4 m^2 sigma^2).

    A scalar x takes the array route too: complex scalar and array
    arithmetic round differently, and a point must equal its element of an
    array call bit for bit."""
    x = np.asarray(x)
    stretch = 1.0 + 1j * t / (2.0 * m * sigma**2)
    pref = (2.0 * np.pi * sigma**2) ** (-0.25) / np.sqrt(stretch)
    amp = pref * np.exp(-((x.reshape(-1) - center) ** 2) / (4.0 * sigma**2 * stretch))
    return amp.reshape(x.shape)


class GaussianTerms(NamedTuple):
    """A sum of Gaussian terms in n variables v,

        Sum_j exp(-v.M_j.v / 2 + b_j.v + c_j),

    with complex M (..., T, n, n), b (..., T, n) and c (..., T).  The last
    batch axis runs over the T terms; the axes before it broadcast as in
    numpy, so one value holds a term set for every point of a parameter
    grid.  A complex b carries a linear phase.  A term's integral over all
    of v is (2 pi)^(n/2) det(M)^(-1/2) exp(b.M^-1.b / 2 + c), taken here
    one variable at a time: each pivot has a positive real part, so the
    principal square roots give the right branch.
    """

    M: np.ndarray
    b: np.ndarray
    c: np.ndarray

    @classmethod
    def packet(cls, amp, centre, width) -> GaussianTerms:
        """1D terms amp exp(-(x - centre)^2 / (4 width)): an amplitude, a
        centre and a complex width (sigma^2 + i t / 2m for a free packet)."""
        amp, centre, width = np.broadcast_arrays(*map(np.atleast_1d, (amp, centre, width)))
        if not np.all(np.isfinite(width) & (width != 0)):
            raise ValueError(f"packet widths must be finite and nonzero, got {width}")
        curv = 0.5 / width.astype(complex)
        return cls(curv[..., None, None], (curv * centre)[..., None],
                   np.log(amp.astype(complex)) - 0.5 * curv * centre**2)

    def conj(self) -> GaussianTerms:
        return GaussianTerms(self.M.conj(), self.b.conj(), self.c.conj())

    def __mul__(self, other: GaussianTerms) -> GaussianTerms:
        """Every term of one factor times every term of the other."""
        n = self.b.shape[-1]
        c = self.c[..., :, None] + other.c[..., None, :]
        lead = c.shape[:-2] + (-1,)
        M = self.M[..., :, None, :, :] + other.M[..., None, :, :, :]
        b = self.b[..., :, None, :] + other.b[..., None, :, :]
        return GaussianTerms(np.broadcast_to(M, c.shape + (n, n)).reshape(lead + (n, n)),
                             np.broadcast_to(b, c.shape + (n,)).reshape(lead + (n,)),
                             c.reshape(lead))

    def evolve(self, t: float, m: float) -> GaussianTerms:
        """Exact free evolution of 1D terms by t (either sign), mass m."""
        M, b = self.M[..., 0, 0], self.b[..., 0]
        d = 1.0 + 1j * M * t / m
        return GaussianTerms((M / d)[..., None, None], (b / d)[..., None],
                             self.c + 0.5j * t * b**2 / (m * d) - 0.5 * np.log(d))

    def pullback(self, L, shift=0.0) -> GaussianTerms:
        """The terms as functions of u, where v = L u + shift: L is (n, k)
        and `shift` (..., n) broadcasts in front of the term axis.  With
        k = 0 this is the value at the point `shift`: `.integral()` of the
        result is each term there."""
        L = np.asarray(L, dtype=float)
        shift = np.zeros(L.shape[0]) + shift
        M, b = self.M, self.b
        ML = np.sum(M[..., :, :, None] * L, axis=-2)
        Ms = np.sum(M * shift[..., None, :], axis=-1)
        return GaussianTerms(np.sum(L[:, :, None] * ML[..., :, None, :], axis=-3),
                             np.sum((b - Ms)[..., :, None] * L, axis=-2),
                             self.c + np.sum((b - 0.5 * Ms) * shift, axis=-1))

    def integrate_last(self) -> GaussianTerms:
        """The integral over the last variable, a Schur complement step."""
        M, b = self.M, self.b
        pivot, row = M[..., -1, -1], M[..., :-1, -1]
        ratio = b[..., -1] / pivot
        return GaussianTerms(M[..., :-1, :-1] - row[..., :, None] * row[..., None, :]
                             / pivot[..., None, None],
                             b[..., :-1] - row * ratio[..., None],
                             self.c + 0.5 * b[..., -1] * ratio + 0.5 * np.log(2.0 * np.pi / pivot))

    def integral(self) -> np.ndarray:
        """Each term's integral over all n variables, shape (..., T)."""
        out = self
        while out.b.shape[-1]:
            out = out.integrate_last()
        return np.exp(out.c)


@dataclass(frozen=True)
class Gaussian1D:
    """1D Gaussian packet of spread sigma at `center`, zero mean momentum."""

    sigma: float
    center: float = 0.0

    def __post_init__(self):
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"spread must be positive and finite, got {self.sigma}")

    def psi(self, x, t: float = 0.0, m: float = 1.0):
        return _free_gaussian(x, t, m, self.sigma, self.center)

    def terms(self, t: float = 0.0, m: float = 1.0) -> GaussianTerms:
        """psi(x, t) as one Gaussian term."""
        amp = (2.0 * np.pi * self.sigma**2) ** -0.25
        return GaussianTerms.packet(amp, self.center, self.sigma**2).evolve(t, m)

    def support(self, t: float = 0.0, m: float = 1.0) -> tuple[float, float]:
        s_t = np.sqrt(self.sigma**2 + (t / (2.0 * m * self.sigma)) ** 2)
        return (self.center - _SUPPORT_SIGMAS * s_t, self.center + _SUPPORT_SIGMAS * s_t)

    @property
    def momentum_spread(self) -> float:
        return 0.5 / self.sigma

    def fringe_scale(self) -> float:
        return 0.0


@dataclass(frozen=True)
class Cat1D:
    """Equal-weight superposition of two Gaussian branches at +/-
    separation/2; the overall constant includes the branch overlap
    exp(-separation^2 / 8 sigma^2)."""

    sigma: float
    separation: float

    def __post_init__(self):
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"spread must be positive and finite, got {self.sigma}")
        if not 0 <= self.separation < np.inf:
            raise ValueError(f"separation must be nonnegative and finite, got {self.separation}")

    @property
    def branch_overlap(self) -> float:
        """<right branch | left branch> = exp(-separation^2 / 8 sigma^2)."""
        return float(np.exp(-self.separation**2 / (8.0 * self.sigma**2)))

    @property
    def norm_constant(self) -> float:
        return _norm_constant(self.branch_overlap)

    def psi(self, x, t: float = 0.0, m: float = 1.0):
        a = 0.5 * self.separation
        wp = wm = _BRANCH_WEIGHT
        branches = wp * _free_gaussian(x, t, m, self.sigma, a) + wm * _free_gaussian(
            x, t, m, self.sigma, -a
        )
        return self.norm_constant * branches

    def terms(self, t: float = 0.0, m: float = 1.0) -> GaussianTerms:
        """psi(x, t) as two Gaussian terms, one per branch."""
        amp = self.norm_constant * _BRANCH_WEIGHT * (2.0 * np.pi * self.sigma**2) ** -0.25
        a = 0.5 * self.separation
        return GaussianTerms.packet(amp, [a, -a], self.sigma**2).evolve(t, m)

    def support(self, t: float = 0.0, m: float = 1.0) -> tuple[float, float]:
        s_t = np.sqrt(self.sigma**2 + (t / (2.0 * m * self.sigma)) ** 2)
        half = 0.5 * self.separation + _SUPPORT_SIGMAS * s_t
        return (-half, half)

    @property
    def momentum_spread(self) -> float:
        return 0.5 / self.sigma

    def fringe_scale(self) -> float:
        """Momentum-space oscillation wavenumber scale (half the separation)."""
        return 0.5 * self.separation


@dataclass(frozen=True)
class GaussianState:
    """3D Gaussian packet: per-axis spread sigma around `center`."""

    sigma: float
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"spread must be positive and finite, got {self.sigma}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    def axis_state(self, axis: int) -> Gaussian1D:
        return Gaussian1D(self.sigma, self.center[axis])

    def psi(self, r, t: float = 0.0, m: float = 1.0):
        r = np.asarray(r, dtype=float)
        out = 1.0 + 0.0j
        for axis in range(3):
            out = out * self.axis_state(axis).psi(r[..., axis], t, m)
        return out


@dataclass(frozen=True)
class CatState:
    """3D equal-weight cat state: branches at +/- L/2, each a Gaussian of
    spread sigma."""

    sigma: float
    L: tuple[float, float, float]

    def __post_init__(self):
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"spread must be positive and finite, got {self.sigma}")
        object.__setattr__(self, "L", tuple(float(c) for c in self.L))
        if not all(abs(c) < np.inf for c in self.L):
            raise ValueError(f"separation vector must be finite, got {self.L}")

    @property
    def separation(self) -> float:
        return float(np.linalg.norm(self.L))

    @property
    def branch_overlap(self) -> float:
        return float(np.exp(-self.separation**2 / (8.0 * self.sigma**2)))

    @property
    def norm_constant(self) -> float:
        return _norm_constant(self.branch_overlap)

    def _separation_axis(self) -> int:
        nonzero = [i for i in range(3) if self.L[i] != 0.0]
        if len(nonzero) != 1:
            raise ValueError(
                "per-axis factorization needs the separation along a single "
                f"coordinate axis, got L = {self.L}"
            )
        return nonzero[0]

    def axis_state(self, axis: int):
        """1D factor along `axis`: a Cat1D along the separation, a centered
        Gaussian transverse to it.  Requires axis-aligned L."""
        sep_axis = self._separation_axis()
        if axis == sep_axis:
            return Cat1D(self.sigma, abs(self.L[axis]))
        return Gaussian1D(self.sigma, 0.0)

    def psi(self, r, t: float = 0.0, m: float = 1.0):
        r = np.asarray(r, dtype=float)
        wp = wm = _BRANCH_WEIGHT
        plus = 1.0 + 0.0j
        minus = 1.0 + 0.0j
        for axis in range(3):
            half = 0.5 * self.L[axis]
            plus = plus * _free_gaussian(r[..., axis], t, m, self.sigma, half)
            minus = minus * _free_gaussian(r[..., axis], t, m, self.sigma, -half)
        return self.norm_constant * (wp * plus + wm * minus)


@dataclass(frozen=True)
class SmearingParams:
    """Gaussian position sampling of width s_x; ell = sqrt(2 pi) s_x per axis."""

    s_x: float

    def __post_init__(self):
        if not 0 < self.s_x < np.inf:
            raise ValueError(f"sampling width must be positive and finite, got {self.s_x}")

    @property
    def ell(self) -> float:
        """Smearing scale per axis."""
        return float(np.sqrt(2.0 * np.pi) * self.s_x)

    def g(self, u):
        return np.exp(-np.asarray(u, dtype=float) ** 2 / (2.0 * self.s_x**2))

    def partition_weight(self, spacing: float) -> float:
        """Weight making a uniform comb of samplers an exhaustive partition:
        sum_k w g(x - k d) = 1 up to exp(-2 pi^2 s_x^2 / d^2) corrections."""
        return spacing / self.ell
