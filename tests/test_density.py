"""Mass-density correlators against quadrature and closed-form oracles."""

import warnings

import numpy as np
import pytest

from gravcat.density import (
    density_mean,
    fluctuation_ratio,
    smeared_corr_phase_space,
    smeared_corr_quadrature,
)
from gravcat.states import Packet, SmearingParams
from gravcat.wigner import wigner_terms
import oracles
from oracles import (
    BoxSampling,
    MassDensityCorrelator,
    cat,
    cat_wigner,
    corr_quadrature_on_grid,
    density_corr,
    free_propagator,
    free_propagator_1d,
    gauss_legendre,
    gaussian,
    newtonian_force,
    smeared_mean_quadrature,
    static_limit_corr,
    trapezoid_corr,
    wigner_line_mean,
    wigner_transform,
)


NAN, INF = float("nan"), float("inf")


class TestStateInputChecks:
    @pytest.mark.parametrize("build", [
        lambda: gaussian(NAN),
        lambda: gaussian(INF),
        lambda: cat(NAN, 2.0),
        lambda: cat(1.0, INF),
        lambda: gaussian(NAN, (0.0, 0.0, 0.0)),
        lambda: cat(INF, (2.0, 0.0, 0.0)),
        lambda: cat(1.0, (NAN, 0.0, 0.0)),
        lambda: SmearingParams(NAN),
        lambda: SmearingParams(INF),
        lambda: BoxSampling(NAN),
    ])
    def test_non_finite_rejected(self, build):
        with pytest.raises(ValueError):
            build()


class TestPacket:
    @pytest.mark.parametrize("sigma,centres", [
        (1.0, ()),
        (1.0, [0.0, (1.0, 0.0, 0.0)]),
        (1.0, [(0.0, 0.0), (1.0, 0.0)]),
        (1.0, 0.0),
        (1.0, [NAN]),
        (1.0, [(0.0, INF, 0.0)]),
        (1.0, [1.5, 1.5]),
        (1.0, [0.0, -0.0]),
        (1.0, [(1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (1.0, 0.0, 0.0)]),
        (0.0, [0.0]),
        (-1.0, [0.0]),
        (NAN, [0.0]),
        (INF, [0.0]),
    ], ids=["empty", "mixed-dimension", "two-dimensional", "bare-float", "nan-centre",
            "inf-centre", "coincident", "signed-zeros", "coincident-3d", "zero-sigma",
            "negative-sigma", "nan-sigma", "inf-sigma"])
    def test_invalid_packet_rejected(self, sigma, centres):
        with pytest.raises(ValueError):
            Packet(sigma, centres)

    def test_one_branch_is_the_free_gaussian(self):
        from gravcat.states import _free_gaussian

        state = gaussian(0.8, 0.4)
        xs = np.linspace(-5.0, 5.0, 41)
        for t in (0.0, 0.7):
            got, want = state.psi(xs, t, 1.3), _free_gaussian(xs, t, 1.3, 0.8, 0.4)
            assert got.tobytes() == want.tobytes()
            point = _free_gaussian(0.3, t, 1.3, 0.8, 0.4)
            assert state.psi(0.3, t, 1.3).tobytes() == point.tobytes()

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_3d_cat_is_the_product_of_its_axis_factors(self, axis):
        L = np.zeros(3)
        L[axis] = 3.0
        state = cat(0.7, L)
        rng = np.random.default_rng(5)
        r = rng.normal(scale=2.0, size=(50, 3))
        for t in (0.0, 0.4):
            product = np.prod([state.axis_state(a).psi(r[:, a], t, 1.2) for a in range(3)], axis=0)
            got = state.psi(r, t, 1.2)
            assert np.max(np.abs(got - product) / np.abs(product)) <= 1e-15
        assert state.axis_state(axis).centres == (1.5, -1.5)
        assert state.axis_state((axis + 1) % 3).centres == (0.0,)

    def test_two_axis_split_has_no_axis_factors(self):
        state = Packet(1.0, [(1.0, 0.5, 0.0), (-1.0, -0.5, 0.0)])
        for axis in range(3):
            with pytest.raises(ValueError, match="single coordinate axis"):
                state.axis_state(axis)

    def test_3d_support_and_fringe_scale_are_per_axis(self):
        # compared as (x, y, z) tuples the centres would order by x alone:
        # a box from (-9, -8, -6) to (9, 8, 5) that misses the branch at z = -3
        state = Packet(1.0, [(1, 0, -3), (-1, 0, 2)])
        lo, hi = state.support()
        assert np.array_equal(lo, [-9.0, -8.0, -11.0]) and np.array_equal(hi, [9.0, 8.0, 10.0])
        assert np.array_equal(state.fringe_scale(), [1.0, 0.0, 2.5])
        for axis in range(3):  # each axis bound is its 1D factor's
            factor = Packet(1.0, sorted({c[axis] for c in state.centres}))
            assert (lo[axis], hi[axis]) == factor.support()
            assert state.fringe_scale()[axis] == factor.fringe_scale()

    def test_1d_support_and_fringe_scale(self):
        state = Packet(0.5, [0.3, 2.0, -1.0])
        assert state.support(0.0) == (-5.0, 6.0)
        assert state.fringe_scale() == 1.5 and type(state.fringe_scale()) is float


class TestNewtonianForce:
    def test_unit_configuration(self):
        f = newtonian_force(1.0, 1.0, [1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        assert np.allclose(f, [-1.0, 0.0, 0.0], atol=0.0)

    def test_third_law(self):
        r1, r2 = np.array([0.3, -0.2, 1.0]), np.array([-1.0, 0.5, 0.0])
        f12 = newtonian_force(2.0, 3.0, r1, r2)
        f21 = newtonian_force(3.0, 2.0, r2, r1)
        assert np.allclose(f12, -f21, atol=1e-15)

    def test_inverse_square(self):
        near = newtonian_force(1.0, 1.0, [1.0, 0, 0], [0, 0, 0])
        far = newtonian_force(1.0, 1.0, [2.0, 0, 0], [0, 0, 0])
        assert abs(np.linalg.norm(far) - np.linalg.norm(near) / 4.0) < 1e-15

    def test_coincident_rejected(self):
        with pytest.raises(ValueError):
            newtonian_force(1.0, 1.0, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


class TestFreePropagator:
    def test_modulus(self):
        m, t, t2 = 1.7, 0.2, 1.4
        g = free_propagator(m, [0.1, 0.2, 0.3], t, [1.0, -0.5, 0.4], t2)
        assert abs(abs(g) ** 2 - (m / (2 * np.pi * (t2 - t))) ** 3) < 1e-12

    def test_equal_times_rejected(self):
        with pytest.raises(ValueError):
            free_propagator(1.0, [0, 0, 0], 0.5, [1, 0, 0], 0.5)

    def test_factorizes_into_axes(self):
        m, t, t2 = 1.3, 0.0, 0.9
        r, r2 = np.array([0.4, -0.2, 0.7]), np.array([-0.1, 0.5, 0.0])
        product = np.prod([free_propagator_1d(m, r[i], t, r2[i], t2) for i in range(3)])
        assert abs(product - free_propagator(m, r, t, r2, t2)) < 1e-12

    def test_semigroup_by_contour_quadrature(self):
        # Integral dx'' G(x, t; x'', t'') G(x'', t''; x2, t2) = G(x, t; x2, t2).
        # The Fresnel integrand is rotated onto the steepest-descent ray
        # through the stationary point, where plain Gauss-Legendre converges.
        m, x, t, x2, t2, t_mid = 1.0, 0.3, 0.0, -0.8, 1.0, 0.35
        a_coef = 0.5 * m * (1.0 / (t_mid - t) + 1.0 / (t2 - t_mid))
        x_stat = (x * (t2 - t_mid) + x2 * (t_mid - t)) / (t2 - t)
        rot = np.exp(1j * np.pi / 4.0)
        half = 9.0 / np.sqrt(a_coef)
        u, w = gauss_legendre(-half, half, 40)
        z = x_stat + rot * u
        vals = free_propagator_1d(m, x, t, z, t_mid) * free_propagator_1d(m, z, t_mid, x2, t2)
        composed = rot * np.sum(w * vals)
        direct = free_propagator_1d(m, x, t, x2, t2)
        assert abs(composed - direct) < 1e-6

    def test_gaussian_spreading_by_quadrature(self):
        # evolve a Gaussian with the kernel and compare the width against
        # sigma(t)^2 = sigma^2 + t^2 / (4 m^2 sigma^2)
        m, sigma, t = 1.0, 1.0, 0.8
        state = gaussian(sigma)
        xp, wp = gauss_legendre(-12.0, 12.0, 120)
        xs, ws = gauss_legendre(-14.0, 14.0, 120)

        def evolved(x):
            return np.sum(wp * free_propagator_1d(m, xp, 0.0, x, t) * state.psi(xp))

        dens = np.array([abs(evolved(x)) ** 2 for x in xs])
        norm = np.sum(ws * dens)
        second = np.sum(ws * xs**2 * dens) / norm
        expected = sigma**2 + t**2 / (4.0 * m**2 * sigma**2)
        assert abs(norm - 1.0) < 1e-8
        assert abs(second - expected) < 1e-8
        # and the kernel-evolved amplitude matches the closed-form evolution
        closed = state.psi(xs, t, m)
        sample = np.array([evolved(x) for x in xs[::10]])
        assert np.max(np.abs(sample - closed[::10])) < 1e-8


class TestDensityMoments:
    def test_peak_value(self):
        state = gaussian(0.7, (0.0, 0.0, 0.0))
        m = 2.0
        got = density_mean(state, [0.0, 0.0, 0.0], 0.0, m)
        assert abs(got - m * (2 * np.pi * 0.7**2) ** -1.5) < 1e-12

    def test_total_mass_by_quadrature(self):
        state = gaussian(1.1, (0.3, 0.0, -0.2))
        m, t = 1.6, 0.5
        x, w = gauss_legendre(-14.0, 14.0, 100)
        total = m
        for axis in range(3):
            line = np.abs(state.axis_state(axis).psi(x, t, m)) ** 2
            total *= np.sum(w * line)
        assert abs(total - m) < 1e-8

    def test_noise_kernel_symmetric(self):
        state = gaussian(0.9, (0.0, 0.0, 0.0))
        r, t, r2, t2 = [0.2, 0.0, 0.1], 0.1, [-0.4, 0.3, 0.0], 0.7
        ab = density_corr(state, r, t, r2, t2, m=1.2)
        ba = density_corr(state, r2, t2, r, t, m=1.2)
        assert abs(ab.noise_kernel - ba.noise_kernel) < 1e-10
        assert abs(ab.value - np.conj(ba.value)) < 1e-10

    def test_connected_subtracts_means(self):
        state = gaussian(1.0, (0.0, 0.0, 0.0))
        c = density_corr(state, [0.1, 0, 0], 0.0, [0.2, 0, 0], 0.4, m=2.0)
        assert isinstance(c, MassDensityCorrelator)
        assert abs(c.connected - (c.value - c.mean_left * c.mean_right)) == 0.0

    def test_equal_time_static_identity(self):
        state = gaussian(1.0, (0.0, 0.0, 0.0))
        smear = SmearingParams(0.05)
        r = [0.3, 0.0, 0.0]
        lhs = static_limit_corr(state, smear, r, r, m=1.5)
        mean = density_mean(state, r, 0.0, m=1.5)
        rhs = 1.5 / smear.ell**3 * mean
        assert abs(lhs - rhs) < 1e-12
        # the ratio density-suite writes is built from that identity
        ratio = fluctuation_ratio(state, smear, r, m=1.5)
        assert abs(ratio - abs(lhs - mean**2) / mean**2) < 1e-12


class TestFluctuationRatio:
    def test_vanishes_at_matched_sampling(self):
        # ell^3 |psi(0)|^2 = 1 exactly when s_x = sigma at the peak
        state = gaussian(0.8, (0.0, 0.0, 0.0))
        smear = SmearingParams(0.8)
        assert fluctuation_ratio(state, smear, [0.0, 0.0, 0.0]) < 1e-12

    def test_unit_value_at_half_weight(self):
        sigma = 0.8
        state = gaussian(sigma, (0.0, 0.0, 0.0))
        smear = SmearingParams(sigma / 2.0 ** (1.0 / 3.0))
        got = fluctuation_ratio(state, smear, [0.0, 0.0, 0.0])
        assert abs(got - 1.0) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        state = gaussian(1.0, (0.0, 0.0, 0.0))
        for _ in range(20):
            smear = SmearingParams(rng.uniform(0.2, 3.0))
            r = rng.normal(size=3)
            assert fluctuation_ratio(state, smear, r) >= 0.0

    def test_vanishing_density_rejected(self):
        state = gaussian(0.1, (0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            fluctuation_ratio(state, SmearingParams(0.1), [80.0, 0.0, 0.0])

    @pytest.mark.parametrize("x", [28.0, 34.0])
    def test_underflowing_density_power_rejected(self, x):
        # the density is positive, but its square underflows to zero: a
        # ValueError, which density-suite drops like a vanishing density,
        # not a ZeroDivisionError
        state, smear = gaussian(1.0, (0.0, 0.0, 0.0)), SmearingParams(0.5)
        assert density_mean(state, [x, 0.0, 0.0]) > 0.0
        with pytest.raises(ValueError, match="underflows"):
            fluctuation_ratio(state, smear, [x, 0.0, 0.0])


class TestPhaseSpaceEvaluation:
    def test_static_mean_matches_density_gaussian(self):
        state = gaussian(1.0)
        for x in (0.0, 0.5, -1.2, 2.0):
            got = density_mean(state, x, 0.0, m=1.3)
            expected = 1.3 * abs(state.psi(x)) ** 2
            assert abs(got - expected) < 1e-6

    def test_static_mean_matches_density_cat(self):
        state = cat(0.5, (4.0, 0.0, 0.0)).axis_state(0)
        for x in (0.0, 1.0, 2.0, -2.0):
            got = density_mean(state, x, 0.0, m=1.0)
            expected = abs(state.psi(x)) ** 2
            assert abs(got - expected) < 1e-6

    @pytest.mark.parametrize("state,axis", [
        (cat(1.0, 6.0), None),
        (gaussian(0.8, 0.4), None),
        (cat(1.0, (6.0, 0.0, 0.0)), (1.0, 0.4, -0.3)),
    ], ids=["cat", "gaussian", "cat-3d"])
    @pytest.mark.parametrize("t", [0.0, 0.7])
    def test_array_r_matches_scalar_loop(self, state, axis, t):
        # a single point takes the array route: at t 0.7 scalar arithmetic
        # differed from the array call on 32, 26 and 47 of these 101 points
        xs = np.linspace(*cat(1.0, 6.0).support(), 101)
        points = xs if axis is None else np.outer(xs, axis)
        loop = np.array([density_mean(state, r, t, 1.3) for r in points])
        batch = density_mean(state, points, t, 1.3)
        assert batch.shape == xs.shape
        assert np.array_equal(batch, loop)

    def test_array_r_keeps_its_shape(self):
        state = cat(1.0, 6.0)
        xs = np.linspace(*state.support(), 12)
        table = density_mean(state, xs.reshape(3, 4), 0.2)
        assert table.shape == (3, 4)
        assert np.array_equal(table.ravel(), density_mean(state, xs, 0.2))

    def test_scalar_r_gives_float(self):
        state = gaussian(1.0)
        assert type(density_mean(state, 0.3, 0.0)) is float
        assert type(density_mean(state, np.float64(0.3), 0.0)) is float

    @pytest.mark.parametrize("state", [gaussian(0.8, 0.4), cat(1.0, 6.0),
                                       cat(0.5, 4.0)], ids=["gaussian", "cat", "narrow-cat"])
    @pytest.mark.parametrize("t", [0.0, 0.35, -1.2])
    def test_free_streamed_mean_is_evolved_density(self, state, t):
        # the p integral of W0 along x = r - p t / m, a different route,
        # is the evolved packet's m |psi(r, t)|^2 at normal widths
        xs = np.linspace(-9.0, 9.0, 61)
        got = density_mean(state, xs, t, 1.7)
        expected = wigner_line_mean(state, xs, t, 1.7)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(expected)

    @pytest.mark.parametrize("sigma", [1e-8, 1e-10, 1e-12, 1e-100])
    @pytest.mark.parametrize("build", [gaussian, lambda s: cat(s, 6.0)],
                             ids=["gaussian", "cat"])
    def test_narrow_packet_mean_is_evolved_density(self, build, sigma):
        # the Wigner-line terms grow as 1 / sigma and cancel: at sigma 1e-8
        # they wrote 7.45e-8 for 7.98e-8, at 1e-12 inf after an overflow
        state = build(sigma)
        rs = np.array([0.25, 0.5, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = density_mean(state, rs, 0.1, 1.0)
        expected = np.abs(state.psi(rs, 0.1, 1.0)) ** 2
        assert np.all(expected > 0.0)
        assert np.max(np.abs(got - expected) / expected) <= 1e-12

    def test_delta_matches_quadrature_at_wide_separation(self):
        # |r - r2| = 20 s_x; the sampling-width -> 0 collapse should agree
        # with the full finite-width quadrature to 5%
        state = gaussian(1.0)
        smear = SmearingParams(0.01)
        r, t, r2, t2 = 0.1, 0.3, -0.1, 0.1
        mean_d, corr_d = smeared_corr_phase_space(state, r, t, r2, t2)
        mean_q = smeared_mean_quadrature(wigner_transform(state), smear, r, t)
        corr_q = smeared_corr_quadrature(state, smear, r, t, r2, t2)
        assert corr_q != 0.0
        assert abs(corr_d - corr_q) / abs(corr_q) < 0.05
        assert abs(mean_d - mean_q) / abs(mean_q) < 0.05

    def test_equal_times_rejected_on_delta_path(self):
        with pytest.raises(ValueError):
            smeared_corr_phase_space(gaussian(1.0), 0.1, 0.5, 0.2, 0.5)


class TestCorrelationQuadrature:
    # the density-suite benchmark cat and its correlator table: r = -r2 at
    # 10 and 20 s_x, t = 0.1, t2 = 0.35
    STATE = cat(1.0, (6.0, 0.0, 0.0)).axis_state(0)
    SMEAR = SmearingParams(0.05)
    ROWS = [(0.25, 0.1, -0.25, 0.35), (0.5, 0.1, -0.5, 0.35)]

    def test_equal_times_rejected(self):
        with pytest.raises(ValueError, match="distinct times"):
            smeared_corr_quadrature(self.STATE, self.SMEAR, 0.1, 0.5, 0.2, 0.5)

    def test_doubling_the_panels_moves_little(self, monkeypatch):
        # the Gauss-Legendre oracle on the transform's spline: both panel
        # counts doubled (p 12 -> 24, u 8 -> 16); the far row, -1.6e-12,
        # sits at the spline's noise and is bounded by the table's largest
        # value, 7.2e-4, as the near row is
        grid = wigner_transform(self.STATE)
        base = [corr_quadrature_on_grid(grid, self.SMEAR, *row) for row in self.ROWS]
        monkeypatch.setattr(oracles, "gauss_legendre",
                            lambda lo, hi, n: gauss_legendre(lo, hi, 2 * n))
        fine = [corr_quadrature_on_grid(grid, self.SMEAR, *row) for row in self.ROWS]
        scale = max(map(abs, base))
        assert scale > 1e-4
        for a, b in zip(base, fine):
            assert abs(a - b) <= 1e-6 * scale

    @pytest.mark.parametrize("sigma,sep", [(1.0, 0.0), (1.0, 6.0), (0.5, 4.0)],
                             ids=["gaussian", "cat", "narrow-cat"])
    @pytest.mark.parametrize("row", ROWS + [(0.3, 0.6, -0.1, 0.2), (-0.4, 0.9, 0.35, 0.15)])
    def test_matches_trapezoid_over_exact_w(self, sigma, sep, row):
        state = cat(sigma, sep) if sep > 0 else gaussian(sigma)
        got = smeared_corr_quadrature(state, self.SMEAR, *row)
        expected = trapezoid_corr(sigma, sep, self.SMEAR.s_x, *row)
        assert expected != 0.0
        assert abs(got - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("state", [gaussian(1.0), cat(1.0, 6.0), cat(0.5, 4.0)],
                             ids=["gaussian", "cat", "narrow-cat"])
    def test_matches_spline_quadrature_inside_the_grid(self, state):
        # row 1 (p* = -2 lies on the default grid): the closed form against
        # the Gauss-Legendre oracle on the transform's spline, whose error
        # floor is the spline's (<= 4.6e-6 of max |W| = 2)
        grid = wigner_transform(state)
        row = self.ROWS[0]
        got = smeared_corr_quadrature(state, self.SMEAR, *row)
        expected = corr_quadrature_on_grid(grid, self.SMEAR, *row)
        assert abs(got - expected) <= 1e-5 * abs(expected)

    @pytest.mark.parametrize("state", [gaussian(0.8, 0.4), cat(0.7, 3.0)])
    def test_delta_corr_is_w_at_time_of_flight_point(self, state):
        sigma, centres = state.sigma, state.centres
        for r, t, r2, t2 in self.ROWS:
            p_star = (r - r2) / (t - t2)
            x_star = 0.5 * (r + r2) - p_star * (t + t2) / 2.0
            _, corr = smeared_corr_phase_space(state, r, t, r2, t2)
            if len(centres) == 1:
                w = 2.0 * np.exp(-((x_star - centres[0]) ** 2) / (2 * sigma**2)
                                 - 2 * sigma**2 * p_star**2)
            else:
                w = cat_wigner(x_star, p_star, sigma, centres[0] - centres[1])
            assert abs(corr - w / (2.0 * np.pi * abs(t - t2))) <= 1e-14 * max(abs(w), 1e-300)
            at_point = wigner_terms(state).pullback(np.zeros((2, 0)), (x_star, p_star))
            assert abs(np.sum(at_point.integral()).imag) <= 1e-15


class TestTimeOfFlightPoint:
    """The correlators of an off-centre Gaussian (centre 0.7), where the
    sign of x* matters, against oracles that share no formula with
    `density`: the time-of-flight point is the free classical path through
    r at t and r2 at t2, solved as a 2 x 2 linear system, and the finite-width
    correlator is the overlap of two Gaussians in covariance form."""

    CENTRE, ROW = 0.7, (0.3, 0.1, -0.1, 0.35)

    @staticmethod
    def solved_point(r, t, r2, t2, m):
        return np.linalg.solve([[1.0, t / m], [1.0, t2 / m]], [r, r2])

    @pytest.mark.parametrize("m", [1.0, 2.5])
    def test_delta_corr_is_w_at_the_solved_point(self, m):
        r, t, r2, t2 = self.ROW
        x, p = self.solved_point(r, t, r2, t2, m)
        w = 2.0 * np.exp(-((x - self.CENTRE) ** 2) / 2.0 - 2.0 * p**2)
        _, corr = smeared_corr_phase_space(gaussian(1.0, self.CENTRE), r, t, r2, t2, m)
        assert abs(corr - m**3 * w / (2.0 * np.pi * abs(t - t2))) <= 1e-14 * abs(corr)

    @pytest.mark.parametrize("s_x", [1e-6, 1e-7, 1e-8, 1e-9, 1e-10])
    def test_quadrature_tends_to_the_delta_limit(self, s_x):
        # the quadrature once cancelled catastrophically here: -0.4% off
        # at s_x 1e-7, +201% at 3e-9 and -100% at 1e-9
        state, (r, t, r2, t2) = gaussian(1.0, self.CENTRE), self.ROW
        x, p = self.solved_point(r, t, r2, t2, 1.0)
        delta = 2.0 * np.exp(-((x - self.CENTRE) ** 2) / 2.0 - 2.0 * p**2) / (2.0 * np.pi * 0.25)
        quad = smeared_corr_quadrature(state, SmearingParams(s_x), *self.ROW)
        assert abs(quad - delta) <= 1e-9 * delta

    @pytest.mark.parametrize("s_x", [1e-10, 0.05, 1e6, 1e13])
    @pytest.mark.parametrize("m", [1e-6, 1.0, 1e30])
    def test_quadrature_is_the_gaussian_overlap(self, s_x, m):
        # W0 = 2 exp(-(v - mu_w).P_w.(v - mu_w) / 2) against the kernel
        # exp(-(v - mu_k).P_k.(v - mu_k) / 2) centred on the solved point,
        # the offsets scaled with s_x as the density-suite rows are
        r, t, r2, t2 = 10.0 * s_x, 0.1, 0.25 - 10.0 * s_x, 0.35
        k, d = (t + t2) / (2.0 * m), (t - t2) / (2.0 * m)
        p_w = np.diag([1.0, 4.0])
        p_k = 2.0 / s_x**2 * np.array([[1.0, k], [k, k * k + d * d]])
        offset = np.array([self.CENTRE, 0.0]) - self.solved_point(r, t, r2, t2, m)
        cov = np.linalg.inv(p_w) + np.linalg.inv(p_k)
        overlap = 4.0 * np.pi * np.exp(-0.5 * offset @ np.linalg.solve(cov, offset)
                                       - 0.5 * np.log(np.linalg.det(p_w + p_k)))
        expected = m**2 / (2.0 * np.pi * s_x**2) * overlap / (2.0 * np.pi)
        got = smeared_corr_quadrature(gaussian(1.0, self.CENTRE), SmearingParams(s_x),
                                      r, t, r2, t2, m)
        assert abs(got - expected) <= 1e-9 * expected
