"""Single-particle states and spatial sampling profiles.

A wave packet (`Packet`) is an equal-weight superposition of
zero-mean-momentum Gaussian branches of one spread: one branch is a
Gaussian, two at +/- L/2 are the "cat".  Free evolution is closed form.  A
3D packet whose branches differ along one axis is separable, and the
numerical machinery works on its 1D axis factors (`Packet.axis_state`).  A
1D packet exposes its amplitude at time t as a sum of Gaussian terms
(`terms`), on which products, free evolution and integrals are closed form.

The sampling profile (`SmearingParams`) is the Gaussian position-sampling
function g(u) = exp(-u^2 / 2 s_x^2), with smearing scale ell = sqrt(2 pi)
s_x per axis.  Its profile and sharp box sampling (g^2 = g) are test
oracles (`tests/oracles.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_SUPPORT_SIGMAS = 8.0


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
class Packet:
    """Equal-weight superposition of Gaussian branches of spread sigma, each
    with zero mean momentum, at `centres`: floats for a 1D packet, (x, y, z)
    triples for a 3D one.  One branch is a Gaussian packet; two at +/- L/2
    are the cat.  The overall constant includes the pairwise branch
    overlaps exp(-|c_j - c_k|^2 / 8 sigma^2)."""

    sigma: float
    centres: tuple

    def __post_init__(self):
        c = np.array(self.centres, dtype=float)  # mixed dimensions raise ValueError
        if c.ndim == 0 or not c.size or c.shape[1:] not in ((), (3,)) or not np.isfinite(c).all():
            raise ValueError(f"centres must be finite floats or (x, y, z) triples, "
                             f"got {self.centres}")
        centres = c.tolist()
        object.__setattr__(self, "centres", tuple(map(tuple, centres) if c.ndim == 2 else centres))

    @property
    def _weight(self) -> float:
        """Amplitude of each of the n branches before the overlap correction."""
        return 1.0 / np.sqrt(len(self.centres))

    @property
    def norm_constant(self) -> float:
        """1 / ||w Sum_j |branch_j>|| for the branch weight w."""
        c = np.array(self.centres).reshape(len(self.centres), -1)
        j, k = np.triu_indices(len(c), 1)
        with np.errstate(over="ignore"):  # branches too far apart overlap by exp(-inf) = 0
            overlaps = np.sum(np.exp(-np.sum((c[j] - c[k]) ** 2, axis=-1) / (8.0 * self.sigma**2)))
        return 1.0 / np.sqrt(len(c) * self._weight**2 + 2.0 * self._weight**2 * overlaps)

    def psi(self, r, t: float = 0.0, m: float = 1.0):
        """psi(r, t) at 1D positions r (...), or at 3D points r (..., 3)."""
        r, amps = np.asarray(r, dtype=float), []
        for c in self.centres:
            if isinstance(c, tuple):
                amp = 1.0 + 0.0j
                for axis, c_axis in enumerate(c):
                    amp = amp * _free_gaussian(r[..., axis], t, m, self.sigma, c_axis)
            else:
                amp = _free_gaussian(r, t, m, self.sigma, c)
            amps.append(amp)
        if len(amps) == 1:  # w = 1 and no overlap
            return amps[0]
        return self.norm_constant * np.sum(self._weight * np.stack(amps), axis=0)

    def terms(self, t: float = 0.0, m: float = 1.0) -> GaussianTerms:
        """psi(x, t) of a 1D packet as Gaussian terms, one per branch."""
        amp = self.norm_constant * self._weight * (2.0 * np.pi * self.sigma**2) ** -0.25
        return GaussianTerms.packet(amp, self.centres, self.sigma**2).evolve(t, m)

    def axis_state(self, axis: int) -> Packet:
        """The 1D factor of a 3D packet along `axis`, with the branches'
        distinct centres on that axis in order.  The packet factorizes only
        when its branches differ along one axis at most."""
        c = np.array(self.centres)
        if np.count_nonzero(np.any(c != c[0], axis=0)) > 1:
            raise ValueError("per-axis factorization needs the branches to differ along "
                             f"a single coordinate axis, got centres {self.centres}")
        return Packet(self.sigma, tuple(dict.fromkeys(c[:, axis].tolist())))

    def support(self, t: float = 0.0, m: float = 1.0) -> tuple:
        """+/- 8 spreads at time t beyond the outermost centres: floats for a
        1D packet, (3,) arrays of per-axis bounds for a 3D one."""
        c = np.array(self.centres)
        reach = _SUPPORT_SIGMAS * np.sqrt(self.sigma**2 + (t / (2.0 * m * self.sigma)) ** 2)
        return c.min(axis=0) - reach, c.max(axis=0) + reach

    @property
    def momentum_spread(self) -> float:
        return 0.5 / self.sigma

    def fringe_scale(self):
        """Momentum-space oscillation wavenumber scale: half the distance
        between the outermost centres (0 for one branch), per axis of a 3D
        packet.  A 1D packet's is a float, which overflows without a warning."""
        c = np.array(self.centres)
        half = 0.5 * (c.max(axis=0) - c.min(axis=0))
        return half if half.ndim else float(half)


@dataclass(frozen=True)
class SmearingParams:
    """Gaussian position sampling of width s_x; ell = sqrt(2 pi) s_x per axis."""

    s_x: float

    @property
    def ell(self) -> float:
        """Smearing scale per axis."""
        return float(np.sqrt(2.0 * np.pi) * self.s_x)

    def partition_weight(self, spacing: float) -> float:
        """Weight making a uniform comb of samplers an exhaustive partition:
        sum_k w g(x - k d) = 1 up to exp(-2 pi^2 s_x^2 / d^2) corrections."""
        return spacing / self.ell
