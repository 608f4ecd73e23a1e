"""Mass-density correlators against quadrature and closed-form oracles."""

import numpy as np
import pytest

from gravcat.density import (
    MassDensityCorrelator,
    density_corr,
    density_mean,
    fluctuation_ratio,
    free_propagator,
    free_propagator_1d,
    newtonian_force,
    smeared_corr_phase_space,
    smeared_corr_quadrature,
    smeared_mean_phase_space,
    static_limit_corr,
    static_limit_mean,
)
from gravcat import density
from gravcat.quadrature import gauss_legendre
from gravcat.states import (
    BoxSampling,
    Cat1D,
    CatState,
    Gaussian1D,
    GaussianState,
    SmearingParams,
)
from gravcat.wigner import wigner_function


NAN, INF = float("nan"), float("inf")


class TestStateInputChecks:
    @pytest.mark.parametrize("build", [
        lambda: Gaussian1D(NAN),
        lambda: Gaussian1D(INF),
        lambda: Cat1D(NAN, 2.0),
        lambda: Cat1D(1.0, INF),
        lambda: GaussianState(NAN),
        lambda: CatState(INF, (2.0, 0.0, 0.0)),
        lambda: CatState(1.0, (NAN, 0.0, 0.0)),
        lambda: SmearingParams(NAN),
        lambda: SmearingParams(INF),
        lambda: BoxSampling(NAN),
    ])
    def test_non_finite_rejected(self, build):
        with pytest.raises(ValueError):
            build()


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
        state = Gaussian1D(sigma)
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
        state = GaussianState(sigma=0.7)
        m = 2.0
        got = density_mean(state, [0.0, 0.0, 0.0], 0.0, m)
        assert abs(got - m * (2 * np.pi * 0.7**2) ** -1.5) < 1e-12

    def test_total_mass_by_quadrature(self):
        state = GaussianState(sigma=1.1, center=(0.3, 0.0, -0.2))
        m, t = 1.6, 0.5
        x, w = gauss_legendre(-14.0, 14.0, 100)
        total = m
        for axis in range(3):
            line = np.abs(state.axis_state(axis).psi(x, t, m)) ** 2
            total *= np.sum(w * line)
        assert abs(total - m) < 1e-8

    def test_noise_kernel_symmetric(self):
        state = GaussianState(sigma=0.9)
        r, t, r2, t2 = [0.2, 0.0, 0.1], 0.1, [-0.4, 0.3, 0.0], 0.7
        ab = density_corr(state, r, t, r2, t2, m=1.2)
        ba = density_corr(state, r2, t2, r, t, m=1.2)
        assert abs(ab.noise_kernel - ba.noise_kernel) < 1e-10
        assert abs(ab.value - np.conj(ba.value)) < 1e-10

    def test_connected_subtracts_means(self):
        state = GaussianState(sigma=1.0)
        c = density_corr(state, [0.1, 0, 0], 0.0, [0.2, 0, 0], 0.4, m=2.0)
        assert isinstance(c, MassDensityCorrelator)
        assert abs(c.connected - (c.value - c.mean_left * c.mean_right)) == 0.0

    def test_equal_time_static_identity(self):
        state = GaussianState(sigma=1.0)
        smear = SmearingParams(0.05)
        r = [0.3, 0.0, 0.0]
        lhs = static_limit_corr(state, smear, r, r, m=1.5)
        rhs = 1.5 / smear.ell3 * static_limit_mean(state, r, m=1.5)
        assert abs(lhs - rhs) < 1e-12


class TestFluctuationRatio:
    def test_vanishes_at_matched_sampling(self):
        # ell^3 |psi(0)|^2 = 1 exactly when s_x = sigma at the peak
        state = GaussianState(sigma=0.8)
        smear = SmearingParams(0.8)
        assert fluctuation_ratio(state, smear, [0.0, 0.0, 0.0]) < 1e-12

    def test_unit_value_at_half_weight(self):
        sigma = 0.8
        state = GaussianState(sigma=sigma)
        smear = SmearingParams(sigma / 2.0 ** (1.0 / 3.0))
        got = fluctuation_ratio(state, smear, [0.0, 0.0, 0.0])
        assert abs(got - 1.0) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        state = GaussianState(sigma=1.0)
        for _ in range(20):
            smear = SmearingParams(rng.uniform(0.2, 3.0))
            r = rng.normal(size=3)
            assert fluctuation_ratio(state, smear, r) >= 0.0

    def test_cubic_exponent_variant_differs(self):
        state = GaussianState(sigma=1.0)
        smear = SmearingParams(0.5)
        r = [0.4, 0.0, 0.0]
        c2 = fluctuation_ratio(state, smear, r, density_exponent=2)
        c3 = fluctuation_ratio(state, smear, r, density_exponent=3)
        assert c2 != c3

    def test_vanishing_density_rejected(self):
        state = GaussianState(sigma=0.1)
        with pytest.raises(ValueError):
            fluctuation_ratio(state, SmearingParams(0.1), [80.0, 0.0, 0.0])

    @pytest.mark.parametrize("x, exponents", [(28.0, (2,)), (34.0, (2, 3))])
    def test_underflowing_density_power_rejected(self, x, exponents):
        # the density is positive, but its square (x = 28) or also
        # ell^3 |psi|^3 (x = 34) underflows to zero: a ValueError, which
        # density-suite drops like a vanishing density, not a ZeroDivisionError
        state, smear = GaussianState(sigma=1.0), SmearingParams(0.5)
        assert static_limit_mean(state, [x, 0.0, 0.0]) > 0.0
        for k in (2, 3):
            if k in exponents:
                with pytest.raises(ValueError, match="underflows"):
                    fluctuation_ratio(state, smear, [x, 0.0, 0.0], density_exponent=k)
            else:
                assert fluctuation_ratio(state, smear, [x, 0.0, 0.0], density_exponent=k) > 1e250


class TestPhaseSpaceEvaluation:
    def test_static_mean_matches_density_gaussian(self):
        state = Gaussian1D(sigma=1.0)
        grid = wigner_function(state)
        for x in (0.0, 0.5, -1.2, 2.0):
            got = smeared_mean_phase_space(grid, x, 0.0, m=1.3)
            expected = 1.3 * abs(state.psi(x)) ** 2
            assert abs(got - expected) < 1e-6

    def test_static_mean_matches_density_cat(self):
        state = CatState(sigma=0.5, L=(4.0, 0.0, 0.0)).axis_state(0)
        grid = wigner_function(state)
        for x in (0.0, 1.0, 2.0, -2.0):
            got = smeared_mean_phase_space(grid, x, 0.0, m=1.0)
            expected = abs(state.psi(x)) ** 2
            assert abs(got - expected) < 1e-6

    def test_array_r_matches_scalar_loop(self):
        grid = wigner_function(Cat1D(1.0, 6.0))
        xs = np.linspace(grid.x[0], grid.x[-1], 101)
        for t in (0.0, 0.7):
            loop = np.array([smeared_mean_phase_space(grid, float(x), t, 1.3) for x in xs])
            batch = smeared_mean_phase_space(grid, xs, t, 1.3)
            assert batch.shape == xs.shape
            assert np.array_equal(batch, loop)
        table = smeared_mean_phase_space(grid, xs[:12].reshape(3, 4), 0.2)
        assert table.shape == (3, 4)
        assert np.array_equal(table.ravel(), smeared_mean_phase_space(grid, xs[:12], 0.2))

    def test_scalar_r_gives_float(self):
        grid = wigner_function(Gaussian1D(sigma=1.0))
        assert type(smeared_mean_phase_space(grid, 0.3, 0.0)) is float
        assert type(smeared_mean_phase_space(grid, np.float64(0.3), 0.0)) is float

    def test_delta_matches_quadrature_at_wide_separation(self):
        # |r - r2| = 20 s_x; the sampling-width -> 0 collapse should agree
        # with the full finite-width quadrature to 5%
        state = Gaussian1D(sigma=1.0)
        grid = wigner_function(state)
        smear = SmearingParams(0.01)
        r, t, r2, t2 = 0.1, 0.3, -0.1, 0.1
        mean_d, corr_d = smeared_corr_phase_space(grid, smear, r, t, r2, t2, method="delta")
        mean_q, corr_q = smeared_corr_phase_space(grid, smear, r, t, r2, t2, method="quadrature")
        assert corr_q != 0.0
        assert abs(corr_d - corr_q) / abs(corr_q) < 0.05
        assert abs(mean_d - mean_q) / abs(mean_q) < 0.05

    def test_equal_times_rejected_on_delta_path(self):
        grid = wigner_function(Gaussian1D(sigma=1.0))
        with pytest.raises(ValueError):
            smeared_corr_phase_space(grid, SmearingParams(0.05), 0.1, 0.5, 0.2, 0.5)


class TestCorrelationQuadrature:
    # the density-suite benchmark cat and its correlator table: r = -r2 at
    # 10 and 20 s_x, t = 0.1, t2 = 0.35
    STATE = CatState(sigma=1.0, L=(6.0, 0.0, 0.0)).axis_state(0)
    SMEAR = SmearingParams(0.05)
    ROWS = [(0.25, 0.1, -0.25, 0.35), (0.5, 0.1, -0.5, 0.35)]

    def test_pair_carries_the_quadrature_correlation(self):
        grid = wigner_function(self.STATE)
        for r, t, r2, t2 in self.ROWS + [(0.1, 0.3, -0.1, 0.1)]:
            _, corr = smeared_corr_phase_space(grid, self.SMEAR, r, t, r2, t2, 1.3,
                                               method="quadrature")
            assert corr == smeared_corr_quadrature(grid, self.SMEAR, r, t, r2, t2, 1.3)

    def test_equal_times_rejected(self):
        grid = wigner_function(self.STATE)
        with pytest.raises(ValueError, match="distinct times"):
            smeared_corr_quadrature(grid, self.SMEAR, 0.1, 0.5, 0.2, 0.5)

    def test_doubling_the_panels_moves_little(self, monkeypatch):
        # both panel counts doubled (p 12 -> 24, u 8 -> 16); the far row,
        # -1.6e-12, sits at the spline's noise and is bounded by the table's
        # largest value, 7.2e-4, as the near row is
        grid = wigner_function(self.STATE)
        base = [smeared_corr_quadrature(grid, self.SMEAR, *row) for row in self.ROWS]
        monkeypatch.setattr(density, "gauss_legendre",
                            lambda lo, hi, n: gauss_legendre(lo, hi, 2 * n))
        fine = [smeared_corr_quadrature(grid, self.SMEAR, *row) for row in self.ROWS]
        scale = max(map(abs, base))
        assert scale > 1e-4
        for a, b in zip(base, fine):
            assert abs(a - b) <= 1e-6 * scale
