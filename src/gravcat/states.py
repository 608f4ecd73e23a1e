"""Single-particle states and spatial sampling profiles.

Wave packets are zero-mean-momentum Gaussians and two-branch superpositions
of them ("cat" states) with branches at +/- L/2.  Free evolution is closed
form, so time-evolved amplitudes cost one exp call.  All 3D states used
here are separable (the cat separation must be axis-aligned for per-axis
factorization), and the numerical machinery works on the 1D axis factors.

Sampling profiles define the position-sampling function g and the derived
smearing scale per axis: ell = sqrt(2 pi) s_x for a Gaussian of width s_x,
ell = 2 h for a box of half-width h (a sharp projector, g^2 = g).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    mean momentum; spread obeys sigma(t)^2 = sigma^2 + t^2/(4 m^2 sigma^2)."""
    stretch = 1.0 + 1j * t / (2.0 * m * sigma**2)
    pref = (2.0 * np.pi * sigma**2) ** (-0.25) / np.sqrt(stretch)
    return pref * np.exp(-((np.asarray(x) - center) ** 2) / (4.0 * sigma**2 * stretch))


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

    @property
    def ell3(self) -> float:
        return self.ell**3

    def g(self, u):
        return np.exp(-np.asarray(u, dtype=float) ** 2 / (2.0 * self.s_x**2))

    def sqrt_g(self, u):
        return np.exp(-np.asarray(u, dtype=float) ** 2 / (4.0 * self.s_x**2))

    def f1(self, u):
        """1D smearing function g(u)/ell; satisfies ell * f1(0) = 1."""
        return self.g(u) / self.ell

    def f3(self, u_sq):
        """3D smearing function at squared radius u_sq; ell^3 * f3(0) = 1."""
        return np.exp(-np.asarray(u_sq, dtype=float) / (2.0 * self.s_x**2)) / self.ell3

    def partition_weight(self, spacing: float) -> float:
        """Weight making a uniform comb of samplers an exhaustive partition:
        sum_k w g(x - k d) = 1 up to exp(-2 pi^2 s_x^2 / d^2) corrections."""
        return spacing / self.ell


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

    def g(self, u):
        return (np.abs(np.asarray(u, dtype=float)) <= self.half_width).astype(float)

    def sqrt_g(self, u):
        return self.g(u)

    def partition_weight(self, spacing: float) -> float:
        return spacing / self.ell
