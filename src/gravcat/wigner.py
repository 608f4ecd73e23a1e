"""Phase-space (Wigner) representation of 1D states on rectangular grids.

Convention: W(x, p) = Integral dy psi(x - y/2) conj(psi(x + y/2)) e^{i p y},
normalized so that Integral dx dp / (2 pi) W = 1 for a unit-norm state.
The position marginal is Integral dp/(2 pi) W = |psi(x)|^2 and the momentum
marginal Integral dx W = 2 pi |psi_tilde(p)|^2 with a unitary Fourier
transform.

The transform is evaluated by composite Gauss-Legendre quadrature in y with
the panel count tied to the largest requested |p|, so under-resolved grids
fail the normalization check rather than silently aliasing.

Off the nodes a grid is read through its tensor-product cubic interpolating
spline, the one FITPACK's regrid fits at s = 0 (Dierckx, Curve and Surface
Fitting with Splines, 1993), with B-splines from de Boor's recursion
(A Practical Guide to Splines, 1978).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quadrature import gauss_legendre, panels_for_oscillation


# Largest element count of the (x, y) psi arrays and of the (y, p) phase
# matrix of one transform: 8.4M complex elements, 134 MB each.  The largest
# grid of the tests and the benchmark has 87,312.
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


def _axis_state(state, axis: int):
    return state.axis_state(axis) if hasattr(state, "axis_state") else state


def default_axes(state, axis: int = 0):
    """Reasonable grid axes for a packet: 257 positions over its +/-8 sigma
    support, 321 momenta over +/-6 momentum spreads, with the momentum count
    raised as needed to resolve interference fringes."""
    st = _axis_state(state, axis)
    lo, hi = st.support()
    x_axis = np.linspace(lo, hi, 257)
    p_half = 6.0 * st.momentum_spread
    n_p = 321
    fringe = st.fringe_scale()
    if fringe > 0.0:
        # >= 8 samples per fringe period pi / fringe_scale in p
        needed = int(np.ceil(2.0 * p_half / (np.pi / fringe) * 8.0)) + 1
        n_p = max(n_p, needed)
    if n_p > MAX_GRID_ELEMENTS:
        raise GridAliasingError(
            f"{n_p} momentum points needed to resolve the fringes exceed the "
            f"bound of {MAX_GRID_ELEMENTS} grid elements"
        )
    p_axis = np.linspace(-p_half, p_half, n_p)
    return x_axis, p_axis


def wigner_function(
    state,
    x_axis: np.ndarray | None = None,
    p_axis: np.ndarray | None = None,
    axis: int = 0,
) -> PhaseSpaceGrid:
    """Numerical Wigner transform of a pure 1D state (or the 1D factor of a
    separable 3D state along `axis`).

    Raises GridAliasingError when the result is not real within 1e-9 or its
    normalization misses 1 by more than 1e-6 (both symptoms
    of an inadequate grid), and, before allocating, when a psi array or the
    phase matrix would exceed MAX_GRID_ELEMENTS.
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
    if abs(norm - 1.0) > 1e-6:
        raise GridAliasingError(
            f"Wigner normalization {norm!r} deviates from 1 beyond 1e-6; "
            "grid does not capture the state"
        )
    grid.meta["normalization"] = norm
    return grid
