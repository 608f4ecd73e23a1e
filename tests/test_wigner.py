"""Closed-form Wigner function against analytic phase-space oracles, and
the numerical transform and its spline (test oracles) against both."""

import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

from gravcat.wigner import GridAliasingError, wigner_function
from oracles import SplineGrid, _knots, cat, gauss_legendre, gaussian, wigner_transform


def gaussian_wigner(x, p, sigma, center=0.0):
    """Closed-form W of a Gaussian packet: 2 exp(-(x-c)^2/2s^2 - 2 s^2 p^2)."""
    xx, pp = np.meshgrid(x, p, indexing="ij")
    return 2.0 * np.exp(-((xx - center) ** 2) / (2 * sigma**2) - 2 * sigma**2 * pp**2)


def cat_wigner(x, p, sigma, sep, norm_const):
    """Closed-form W of an even two-branch superposition at +/- sep/2."""
    xx, pp = np.meshgrid(x, p, indexing="ij")
    a = 0.5 * sep
    env = np.exp(-2 * sigma**2 * pp**2)
    lobes = np.exp(-((xx - a) ** 2) / (2 * sigma**2)) + np.exp(
        -((xx + a) ** 2) / (2 * sigma**2)
    )
    fringe = 2.0 * np.exp(-(xx**2) / (2 * sigma**2)) * np.cos(2.0 * pp * a)
    return norm_const**2 * (lobes + fringe) * env


def marginal_position(grid) -> np.ndarray:
    """Integral dp W / (2 pi) = |psi(x)|^2 by the trapezoid rule."""
    return np.trapezoid(grid.values, grid.p, axis=1) / (2.0 * np.pi)


def marginal_momentum(grid) -> np.ndarray:
    """Integral dx W = 2 pi |psi_tilde(p)|^2 (unitary Fourier transform)."""
    return np.trapezoid(grid.values, grid.x, axis=0)


class TestGaussianWigner:
    def test_matches_analytic(self):
        sigma = 0.8
        grid = wigner_function(gaussian(sigma, 0.4))
        expected = gaussian_wigner(grid.x, grid.p, sigma, center=0.4)
        assert np.max(np.abs(grid.values - expected)) < 1e-6

    def test_normalization(self):
        grid = wigner_function(gaussian(1.3))
        assert abs(grid.normalization() - 1.0) < 1e-6

    def test_widths(self):
        sigma = 1.1
        grid = wigner_function(gaussian(sigma))
        margin_x = marginal_position(grid)
        var_x = np.trapezoid(grid.x**2 * margin_x, grid.x)
        margin_p = marginal_momentum(grid)
        var_p = np.trapezoid(grid.p**2 * margin_p, grid.p) / (2 * np.pi)
        assert abs(var_x - sigma**2) < 1e-6
        assert abs(var_p - (0.5 / sigma) ** 2) < 1e-6

    def test_position_marginal(self):
        state = gaussian(0.9, -0.3)
        grid = wigner_function(state)
        expected = np.abs(state.psi(grid.x)) ** 2
        assert np.max(np.abs(marginal_position(grid) - expected)) < 1e-6

    def test_momentum_marginal_against_fourier_quadrature(self):
        state = gaussian(0.7)
        grid = wigner_function(state)
        # unitary Fourier transform evaluated directly at the grid momenta
        xs, ws = gauss_legendre(-12.0, 12.0, 80)
        psi = state.psi(xs)
        dens_k = np.array(
            [abs(np.sum(ws * psi * np.exp(-1j * p * xs))) ** 2 for p in grid.p]
        ) / (2 * np.pi)
        assert np.max(np.abs(marginal_momentum(grid) / (2 * np.pi) - dens_k)) < 1e-6

    def test_accepts_3d_state(self):
        grid = wigner_function(gaussian(1.0, (0.0, 0.0, 0.0)).axis_state(2))
        assert abs(grid.normalization() - 1.0) < 1e-6


class TestCatWigner:
    def test_matches_analytic(self):
        sigma, sep = 0.5, 4.0
        state = cat(sigma, sep)
        grid = wigner_function(state)
        expected = cat_wigner(grid.x, grid.p, sigma, sep, state.norm_constant)
        assert np.max(np.abs(grid.values - expected)) < 1e-6

    def test_central_fringes(self):
        sigma, sep = 0.5, 4.0
        grid = wigner_function(cat(sigma, sep))
        i0 = int(np.argmin(np.abs(grid.x)))
        slice_p = grid.values[i0]
        # sign alternation along p at the midpoint
        signs = np.sign(slice_p[np.abs(slice_p) > 1e-3])
        assert np.any(signs > 0) and np.any(signs < 0)
        # fringe period 2 pi / sep: W(0, 0) > 0 and W(0, pi/sep) < 0
        j0 = int(np.argmin(np.abs(grid.p)))
        j_half = int(np.argmin(np.abs(grid.p - np.pi / sep)))
        assert slice_p[j0] > 0 > slice_p[j_half]

    def test_interference_peak_comparable_to_lobes(self):
        sigma, sep = 0.5, 4.0
        grid = wigner_function(cat(sigma, sep))
        i0 = int(np.argmin(np.abs(grid.x)))
        j0 = int(np.argmin(np.abs(grid.p)))
        lobe_max = np.max(grid.values)
        center = grid.values[i0, j0]
        assert center > 1.5 * lobe_max / 2.0  # fringe peak ~ 2x lobe height

    def test_fringe_spacing(self):
        sigma, sep = 0.5, 4.0
        grid = wigner_function(cat(sigma, sep))
        i0 = int(np.argmin(np.abs(grid.x)))
        slice_p = grid.values[i0]
        crossings = np.where(np.diff(np.sign(slice_p)) != 0)[0]
        gaps = np.diff(grid.p[crossings])
        central = gaps[np.abs(grid.p[crossings[:-1]]) < 1.0]
        assert np.allclose(central, np.pi / sep, rtol=0.05)

    def test_normalization_with_cross_term(self):
        state = cat(0.6, 1.5)  # strongly overlapping branches
        grid = wigner_function(state)
        assert abs(grid.normalization() - 1.0) < 1e-6


class TestValidation:
    def test_undersized_momentum_grid_rejected(self):
        state = gaussian(1.0)
        x = np.linspace(-8, 8, 129)
        p = np.linspace(-0.4, 0.4, 17)  # far too narrow for sigma_p = 0.5
        with pytest.raises(GridAliasingError):
            wigner_function(state, (x, p))

    def test_cat_norm_includes_cross_term(self):
        state = cat(1.0, (1.0, 0.0, 0.0))
        # quadrature of |psi|^2 over the separation axis times transverse norms
        x, w = gauss_legendre(-12, 12, 60)
        axis = state.axis_state(0)
        norm = np.sum(w * np.abs(axis.psi(x)) ** 2)
        assert abs(norm - 1.0) < 1e-12


class TestSplineOracle:
    """SplineGrid.evaluate against FITPACK's s = 0 interpolating spline."""

    @staticmethod
    def probe_points(grid, rng):
        """Random points, every grid node, every knot pair and the four edges."""
        x, p = grid.x, grid.p
        rx = rng.uniform(x[0], x[-1], 20000)
        rp = rng.uniform(p[0], p[-1], 20000)
        nx, np_ = (a.ravel() for a in np.meshgrid(x, p, indexing="ij"))
        kx, kp = (a.ravel() for a in np.meshgrid(_knots(x), _knots(p), indexing="ij"))
        line_x, line_p = np.linspace(x[0], x[-1], 301), np.linspace(p[0], p[-1], 301)
        ex = np.concatenate([line_x, line_x, np.full(301, x[0]), np.full(301, x[-1])])
        ep = np.concatenate([np.full(301, p[0]), np.full(301, p[-1]), line_p, line_p])
        return np.concatenate([rx, nx, kx, ex]), np.concatenate([rp, np_, kp, ep])

    @pytest.mark.parametrize("state", [cat(1.0, 6.0), gaussian(0.8, 0.4)],
                             ids=["cat", "gaussian"])
    def test_matches_rect_bivariate_spline(self, state):
        grid = wigner_transform(state)
        x, p = self.probe_points(grid, np.random.default_rng(11))
        oracle = RectBivariateSpline(grid.x, grid.p, grid.values)
        scale = np.max(np.abs(grid.values))
        assert np.max(np.abs(grid.evaluate(x, p) - oracle(x, p, grid=False))) <= 1e-14 * scale

    @pytest.mark.parametrize("nx,n_p", [(4, 4), (5, 4), (4, 7), (6, 9), (40, 33)])
    def test_short_and_uneven_axes(self, nx, n_p):
        # the shortest axes give the fullest bands; random spacing and values
        rng = np.random.default_rng(nx * 100 + n_p)
        x = np.cumsum(rng.uniform(0.2, 1.0, nx))
        p = np.cumsum(rng.uniform(0.1, 2.0, n_p)) - 3.0
        grid = SplineGrid(x, p, rng.normal(size=(nx, n_p)))
        px, pp = self.probe_points(grid, rng)
        oracle = RectBivariateSpline(x, p, grid.values)
        scale = np.max(np.abs(grid.values))
        assert np.max(np.abs(grid.evaluate(px, pp) - oracle(px, pp, grid=False))) <= 1e-14 * scale

    def test_knots_are_fitpack_knots(self):
        grid = wigner_transform(cat(1.0, 6.0))
        oracle = RectBivariateSpline(grid.x, grid.p, grid.values)
        tx, tp = oracle.get_knots()
        assert np.array_equal(_knots(grid.x), tx)
        assert np.array_equal(_knots(grid.p), tp)

    def test_interpolates_the_nodes(self):
        grid = wigner_transform(cat(1.0, 6.0))
        xx, pp = np.meshgrid(grid.x, grid.p, indexing="ij")
        assert np.max(np.abs(grid.evaluate(xx, pp) - grid.values)) <= 1e-14 * 2.0

    def test_exact_zero_outside_grid(self):
        grid = wigner_transform(gaussian(1.0))
        x0, x1, p0, p1 = grid.x[0], grid.x[-1], grid.p[0], grid.p[-1]
        x = np.array([np.nextafter(x0, -np.inf), np.nextafter(x1, np.inf), 0.0, 0.0,
                      x0 - 5.0, x1 + 5.0, np.nan, 0.0])
        p = np.array([0.0, 0.0, np.nextafter(p0, -np.inf), np.nextafter(p1, np.inf),
                      p1 + 1.0, p0 - 1.0, 0.0, np.nan])
        out = grid.evaluate(x, p)
        assert out.shape == x.shape
        assert np.all(out == 0.0)
        assert grid.evaluate(x0, 0.0) != 0.0 and grid.evaluate(0.0, p1) != 0.0

    def test_scalar_input_gives_zero_dim(self):
        grid = wigner_transform(gaussian(1.0))
        inside, outside = grid.evaluate(0.1, 0.2), grid.evaluate(1e3, 0.2)
        assert inside.shape == () and outside.shape == ()
        assert abs(float(inside) - 2.0 * np.exp(-0.1**2 / 2 - 2 * 0.2**2)) < 1e-6
        assert float(outside) == 0.0

    def test_broadcasts(self):
        grid = wigner_transform(cat(1.0, 6.0))
        x = np.linspace(-3.0, 3.0, 7)[:, None]
        p = np.linspace(-1.0, 1.0, 5)[None, :]
        out = grid.evaluate(x, p)
        assert out.shape == (7, 5)
        assert np.array_equal(out[3], grid.evaluate(np.zeros(5), p[0]))

    def test_too_few_points_rejected(self):
        grid = SplineGrid(np.arange(3.0), np.arange(5.0), np.zeros((3, 5)))
        with pytest.raises(ValueError):
            grid.evaluate(0.5, 0.5)


# The 257 x 45,838 axes that default_axes gave the sigma = 0.001 cat, 6000
# spreads wide, while it laid 257 positions whatever the width (23.5 spreads apart)
FINE_CAT_257_AXES = (np.linspace(-3.008, 3.008, 257), np.linspace(-3000.0, 3000.0, 45838))


class TestSizeBound:
    def test_fine_cat_rejected_before_allocating(self):
        # sigma = 0.001 needs a 34,608 x 45,838 phase matrix (25 GB complex)
        tracemalloc.start()
        try:
            with pytest.raises(GridAliasingError, match="phase matrix"):
                wigner_transform(cat(0.001, 6.0), *FINE_CAT_257_AXES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_unresolvable_fringes_rejected_before_building_axes(self):
        with pytest.raises(GridAliasingError, match="momentum points"):
            wigner_function(cat(1e-12, 6.0))

    def test_explicit_axes_are_bounded_too(self):
        x = np.linspace(-10.0, 10.0, 40000)
        p = np.linspace(-3.0, 3.0, 33)
        with pytest.raises(GridAliasingError, match="psi array"):
            wigner_transform(gaussian(1.0), x_axis=x, p_axis=p)

    def test_closed_form_grid_rejected_before_allocating(self):
        # the sigma = 0.001 cat's default axes, one position per spread, are
        # 6017 x 45,838 values; given axes of 257 x 45,838 are bounded too
        tracemalloc.start()
        try:
            with pytest.raises(GridAliasingError, match="6017 x 45838 phase-space grid"):
                wigner_function(cat(0.001, 6.0))
            with pytest.raises(GridAliasingError, match="257 x 45838 phase-space grid"):
                wigner_function(cat(0.001, 6.0), FINE_CAT_257_AXES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


class TestTransformOracle:
    """The closed form against the Gauss-Legendre transform on the same axes."""

    @pytest.mark.parametrize("state,axis", [
        (cat(1.0, 6.0), 0), (cat(0.5, 4.0), 0), (cat(0.6, 1.5), 0),
        (gaussian(0.8, 0.4), 0), (cat(1.0, (0.0, 0.0, 6.0)), 2),
        (cat(1.0, (0.0, 0.0, 6.0)), 1),
    ])
    def test_matches_transform(self, state, axis):
        state = state.axis_state(axis) if isinstance(state.centres[0], tuple) else state
        grid = wigner_function(state)
        oracle = wigner_transform(state)
        assert np.array_equal(grid.x, oracle.x) and np.array_equal(grid.p, oracle.p)
        assert np.max(np.abs(grid.values - oracle.values)) <= 1e-14
        assert abs(grid.meta["normalization"] - oracle.meta["normalization"]) <= 1e-14

    def test_matches_transform_on_explicit_axes(self):
        # off-centre, uneven axes that reach p = -4.5, beyond the default +/-3
        state = cat(1.0, 6.0)
        x = np.linspace(-11.0, 10.0, 97)
        p = np.linspace(-4.5, 3.5, 131)
        grid = wigner_function(state, (x, p))
        oracle = wigner_transform(state, x, p)
        assert np.max(np.abs(grid.values - oracle.values)) <= 1e-14

    def test_wigner_terms_are_real_in_sum(self):
        from gravcat.wigner import wigner_terms

        x, p = np.meshgrid(np.linspace(-4, 4, 9), np.linspace(-3, 3, 7), indexing="ij")
        points = np.stack([x, p], axis=-1)[..., None, :]
        vals = np.sum(wigner_terms(cat(0.7, 3.0)).pullback(np.zeros((2, 0)), points)
                      .integral(), axis=-1)
        assert vals.shape == x.shape
        assert np.max(np.abs(vals.imag)) <= 1e-15
        assert np.max(np.abs(vals.real - cat_wigner(x[:, 0], p[0], 0.7, 3.0,
                                                    cat(0.7, 3.0).norm_constant))) <= 1e-15


class TestRealProducts:
    """The grid is taken from two real products of the (x, term) and
    (term, p) factors; the real part of their complex product is the oracle."""

    @pytest.mark.parametrize("state", [gaussian(1.0), cat(1.0, 6.0), cat(1.0, 300.0)],
                             ids=["gaussian", "cat-6", "cat-300"])
    def test_matches_complex_product(self, state):
        from gravcat.wigner import default_axes, wigner_terms

        grid = wigner_function(state)
        x_axis, p_axis = default_axes(state)
        w = wigner_terms(state)
        x, p = x_axis[:, None], p_axis[:, None]
        in_x = np.exp(w.c + x * (w.b[:, 0] - 0.5 * w.M[:, 0, 0] * x))
        in_p = np.exp(p * (w.b[:, 1] - 0.5 * w.M[:, 1, 1] * p))
        oracle = (in_x @ in_p.T).real
        assert grid.values.shape == oracle.shape
        assert np.max(np.abs(grid.values - oracle)) <= 1e-15 * np.max(np.abs(oracle))
