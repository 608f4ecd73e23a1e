"""Phase-space (Wigner) representation of 1D states on rectangular grids.

Convention: W(x, p) = Integral dy psi(x - y/2) conj(psi(x + y/2)) e^{i p y},
normalized so that Integral dx dp / (2 pi) W = 1 for a unit-norm state.
The position marginal is Integral dp/(2 pi) W = |psi(x)|^2 and the momentum
marginal Integral dx W = 2 pi |psi_tilde(p)|^2 with a unitary Fourier
transform.

The transform is evaluated by composite Gauss-Legendre quadrature in y with
the panel count tied to the largest requested |p|, so under-resolved grids
fail the normalization check rather than silently aliasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quadrature import gauss_legendre, panels_for_oscillation


class GridAliasingError(ValueError):
    """Phase-space grid cannot faithfully represent the state."""


@dataclass
class PhaseSpaceGrid:
    """Sampled W(x, p) on uniform axes, with cell metadata in `meta`."""

    x: np.ndarray
    p: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)
    _spline: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.x.size, self.p.size):
            raise ValueError(
                f"values shape {self.values.shape} does not match axes "
                f"({self.x.size}, {self.p.size})"
            )

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def dp(self) -> float:
        return float(self.p[1] - self.p[0])

    def normalization(self) -> float:
        """Integral dx dp / (2 pi) W by the trapezoid rule."""
        inner = np.trapezoid(self.values, self.p, axis=1)
        return float(np.trapezoid(inner, self.x) / (2.0 * np.pi))

    def marginal_position(self) -> np.ndarray:
        """Integral dp W / (2 pi) = |psi(x)|^2."""
        return np.trapezoid(self.values, self.p, axis=1) / (2.0 * np.pi)

    def marginal_momentum(self) -> np.ndarray:
        """Integral dx W = 2 pi |psi_tilde(p)|^2 (unitary Fourier transform)."""
        return np.trapezoid(self.values, self.x, axis=0)

    def evaluate(self, x, p):
        """Cubic-spline interpolation; zero outside the grid."""
        if self._spline is None:
            # imported here so that only callers of evaluate load scipy
            from scipy.interpolate import RectBivariateSpline

            self._spline = RectBivariateSpline(self.x, self.p, self.values)
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        out = self._spline(x, p, grid=False)
        inside = (
            (x >= self.x[0]) & (x <= self.x[-1]) & (p >= self.p[0]) & (p <= self.p[-1])
        )
        return np.where(inside, out, 0.0)


def _axis_state(state, axis: int):
    return state.axis_state(axis) if hasattr(state, "axis_state") else state


def default_axes(state, axis: int = 0, nx: int = 257, n_p: int = 321):
    """Reasonable grid axes for a packet: position over its +/-8 sigma
    support, momentum over +/-6 momentum spreads, with the momentum count
    raised as needed to resolve interference fringes."""
    st = _axis_state(state, axis)
    lo, hi = st.support()
    x_axis = np.linspace(lo, hi, nx)
    p_half = 6.0 * st.momentum_spread
    fringe = st.fringe_scale()
    if fringe > 0.0:
        # >= 8 samples per fringe period pi / fringe_scale in p
        needed = int(np.ceil(2.0 * p_half / (np.pi / fringe) * 8.0)) + 1
        n_p = max(n_p, needed)
    p_axis = np.linspace(-p_half, p_half, n_p)
    return x_axis, p_axis


def wigner_function(
    state,
    x_axis: np.ndarray | None = None,
    p_axis: np.ndarray | None = None,
    axis: int = 0,
    normalization_tol: float = 1e-6,
) -> PhaseSpaceGrid:
    """Numerical Wigner transform of a pure 1D state (or the 1D factor of a
    separable 3D state along `axis`).

    Raises GridAliasingError when the result is not real within 1e-9 or its
    normalization misses 1 by more than `normalization_tol` (both symptoms
    of an inadequate grid).
    """
    st = _axis_state(state, axis)
    if x_axis is None or p_axis is None:
        xd, pd = default_axes(state, axis)
        x_axis = xd if x_axis is None else np.asarray(x_axis, dtype=float)
        p_axis = pd if p_axis is None else np.asarray(p_axis, dtype=float)
    else:
        x_axis = np.asarray(x_axis, dtype=float)
        p_axis = np.asarray(p_axis, dtype=float)

    lo, hi = st.support()
    y_half = hi - lo
    p_max = float(np.max(np.abs(p_axis))) if p_axis.size else 0.0
    panels = panels_for_oscillation(-y_half, y_half, p_max)
    y, wy = gauss_legendre(-y_half, y_half, panels)

    psi_minus = st.psi(x_axis[:, None] - 0.5 * y[None, :])
    psi_plus = st.psi(x_axis[:, None] + 0.5 * y[None, :])
    integrand = psi_minus * np.conj(psi_plus) * wy[None, :]
    phases = np.exp(1j * np.outer(y, p_axis))
    w_complex = integrand @ phases

    imag_max = float(np.max(np.abs(w_complex.imag)))
    if imag_max > 1e-9:
        raise GridAliasingError(
            f"Wigner transform has imaginary residue {imag_max:.3g}; "
            "grid or quadrature under-resolved"
        )
    grid = PhaseSpaceGrid(
        x_axis,
        p_axis,
        w_complex.real,
        meta={"axis": axis, "state": repr(state), "y_panels": panels},
    )
    norm = grid.normalization()
    if abs(norm - 1.0) > normalization_tol:
        raise GridAliasingError(
            f"Wigner normalization {norm!r} deviates from 1 beyond "
            f"{normalization_tol}; grid does not capture the state"
        )
    grid.meta["normalization"] = norm
    return grid
