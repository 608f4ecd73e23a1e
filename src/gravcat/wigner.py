"""Phase-space (Wigner) representation of 1D states on rectangular grids.

Convention: W(x, p) = Integral dy psi(x - y/2) conj(psi(x + y/2)) e^{i p y},
normalized so that Integral dx dp / (2 pi) W = 1 for a unit-norm state.
The position marginal is Integral dp/(2 pi) W = |psi(x)|^2 and the momentum
marginal Integral dx W = 2 pi |psi_tilde(p)|^2 with a unitary Fourier
transform.

Every state here is a `states.Packet`, a sum of Gaussian terms
(`states.GaussianTerms`), so W is one too: for each pair of terms the y
integral is a Gaussian integral (`wigner_terms`).  For a cat of spread
sigma with branches at +/- a it is N^2 e^{-2 sigma^2 p^2} [e^{-(x-a)^2 / 2
sigma^2} + e^{-(x+a)^2 / 2 sigma^2} + 2 e^{-x^2 / 2 sigma^2} cos 2ap]
(Schleich, Quantum Optics in Phase Space, 2001).  A grid is that closed
form sampled on its nodes; the trapezoid normalization of the grid checks
that the axes hold the state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .states import GaussianTerms

# Largest element count of one phase-space grid (8.4M values, 67 MB); the
# history-grid oracles in `tests/oracles.py` share the bound.  The largest
# phase-space grid of the tests and the benchmark has 87,312.
MAX_GRID_ELEMENTS = 1 << 23


class GridAliasingError(ValueError):
    """Phase-space grid cannot faithfully represent the state."""


@dataclass
class PhaseSpaceGrid:
    """Sampled W(x, p) on uniform axes, with cell metadata in `meta`."""

    x: np.ndarray
    p: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.x.size, self.p.size):
            raise ValueError(
                f"values shape {self.values.shape} does not match axes "
                f"({self.x.size}, {self.p.size})"
            )

    def normalization(self) -> float:
        """Integral dx dp / (2 pi) W by the trapezoid rule."""
        inner = np.trapezoid(self.values, self.p, axis=1)
        return float(np.trapezoid(inner, self.x) / (2.0 * np.pi))


def default_axes(state):
    """Reasonable grid axes for a 1D packet: 257 positions over its +/-8
    sigma support, 321 momenta over +/-6 momentum spreads, with the momentum
    count raised as needed to resolve interference fringes."""
    lo, hi = state.support()
    x_axis = np.linspace(lo, hi, 257)
    p_half = 6.0 * state.momentum_spread
    n_p = 321
    fringe = state.fringe_scale()
    if fringe > 0.0:
        # >= 8 samples per fringe period pi / fringe_scale in p, bounded before int()
        n_p = max(n_p, np.ceil(2.0 * p_half / (np.pi / fringe) * 8.0) + 1)
    if n_p > MAX_GRID_ELEMENTS:
        raise GridAliasingError(
            f"{n_p:.3g} momentum points needed to resolve the fringes exceed the "
            f"bound of {MAX_GRID_ELEMENTS} grid elements"
        )
    p_axis = np.linspace(-p_half, p_half, int(n_p))
    return x_axis, p_axis


def wigner_terms(state) -> GaussianTerms:
    """W(x, p) of a pure 1D state as Gaussian terms in (x, p), one per
    ordered pair of the state's terms: psi_j(x - y/2) conj(psi_k(x + y/2))
    e^{i p y} over (x, p, y), y integrated out.  The terms sum to a real W."""
    psi = state.terms()
    # e^{i p y} as one term: -v.M.v / 2 = i p y with M_py = M_yp = -i
    phase = GaussianTerms(np.array([[[0, 0, 0], [0, 0, -1j], [0, -1j, 0]]]),
                          np.zeros((1, 3)), np.zeros(1))
    pairs = psi.pullback([[1.0, 0.0, -0.5]]) * psi.conj().pullback([[1.0, 0.0, 0.5]])
    return (pairs * phase).integrate_last()


def wigner_function(state, axes=None) -> PhaseSpaceGrid:
    """Closed-form Wigner function of a pure 1D state (the `axis_state` of
    a separable 3D one) on the (x, p) axes `axes`, `default_axes(state)`
    when not given.

    Raises GridAliasingError, before allocating, when the grid would hold
    more than MAX_GRID_ELEMENTS values, and when its normalization misses 1
    by more than 1e-6 (the axes do not capture the state).
    """
    x_axis, p_axis = (np.asarray(a, dtype=float)
                      for a in (default_axes(state) if axes is None else axes))
    if x_axis.size * p_axis.size > MAX_GRID_ELEMENTS:
        raise GridAliasingError(
            f"a {x_axis.size} x {p_axis.size} phase-space grid exceeds the bound of "
            f"{MAX_GRID_ELEMENTS} elements"
        )
    # every state here has one real width, so each term separates in x and
    # p and the grid is one (x, term) by (term, p) matrix product
    w = wigner_terms(state)
    x, p = x_axis[:, None], p_axis[:, None]
    in_x = np.exp(w.c + x * (w.b[:, 0] - 0.5 * w.M[:, 0, 0] * x))
    in_p = np.exp(p * (w.b[:, 1] - 0.5 * w.M[:, 1, 1] * p))
    values = (in_x @ in_p.T).real
    grid = PhaseSpaceGrid(x_axis, p_axis, values, meta={"state": repr(state)})
    norm = grid.normalization()
    if abs(norm - 1.0) > 1e-6:
        raise GridAliasingError(
            f"Wigner normalization {norm!r} deviates from 1 beyond 1e-6; "
            "grid does not capture the state"
        )
    grid.meta["normalization"] = norm
    return grid
