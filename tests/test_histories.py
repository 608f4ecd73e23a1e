"""Decoherence functional and multi-time record probabilities on grids."""

import numpy as np
import pytest

from gravcat import histories
from gravcat.histories import (
    SpatialGrid,
    additivity_defect,
    auto_grid,
    decoherence_functional,
    free_evolve,
    n_time_probability,
    partition_points,
    partition_probability_sum,
    position_probability,
    smeared_mean,
    smeared_second_moment,
    smeared_two_point,
    uniform_grid,
)
from gravcat.quadrature import gauss_legendre
from gravcat.states import BoxSampling, Cat1D, Gaussian1D, SmearingParams
from gravcat.wigner import GridAliasingError


def record_probability_oracle(state, sampling, events, m=1.0, grid=None):
    """One record at a time on 1-D arrays: sample, evolve, sample, ..., norm."""
    if grid is None:
        grid = auto_grid(state, sampling, max(t for _, t in events), m)
    (r1, t1), *tail = events
    cur = state.psi(grid.x, t1, m) * sampling.sqrt_g(grid.x - r1)
    t_prev = t1
    for r_i, t_i in tail:
        cur = free_evolve(cur, grid, t_i - t_prev, m) * sampling.sqrt_g(grid.x - r_i)
        t_prev = t_i
    return float(np.sum(np.abs(cur) ** 2) * grid.dx)


def additivity_defect_oracle(state, sampling, t1, t2, r1_values, r2_values, m=1.0,
                             grid=None):
    """The per-r2 route: the whole first-sampling comb propagated again for
    every r2, against the one-record probability at (r2, t2)."""
    if grid is None:
        grid = auto_grid(state, sampling, t2, m)
    worst = 0.0
    for r2 in np.atleast_1d(r2_values):
        event = [(float(r2), t2)]
        summed = partition_probability_sum(state, sampling, event, r1_values, t1, m, grid)
        worst = max(worst, abs(summed - n_time_probability(state, sampling, event, m, grid)))
    return worst


class TestFreeEvolve:
    def test_matches_closed_form(self):
        state = Gaussian1D(1.0, center=0.5)
        grid = uniform_grid(-20.0, 20.0, 4096)
        evolved = free_evolve(state.psi(grid.x), grid, 0.9, m=1.3)
        assert np.max(np.abs(evolved - state.psi(grid.x, 0.9, 1.3))) < 1e-10

    def test_backward_evolution_inverts(self):
        state = Gaussian1D(0.7)
        grid = uniform_grid(-18.0, 18.0, 4096)
        psi = state.psi(grid.x)
        roundtrip = free_evolve(free_evolve(psi, grid, 1.2), grid, -1.2)
        assert np.max(np.abs(roundtrip - psi)) < 1e-12

    def test_in_place_spectrum_matches_product_route(self):
        # the phases multiply the spectrum in place, phases first: the same
        # bits as ifft(phases * fft(psi)), for one record and for a comb
        grid = uniform_grid(-18.0, 18.0, 4096)
        psi = Cat1D(0.7, 3.0).psi(grid.x) * SmearingParams(0.3).sqrt_g(
            grid.x - np.linspace(-2.0, 2.0, 5)[:, None])
        phases = np.exp(-1j * grid.k**2 * 0.7 / (2.0 * 1.3))
        for p in (psi, psi[2]):
            assert np.array_equal(free_evolve(p, grid, 0.7, 1.3),
                                  np.fft.ifft(phases * np.fft.fft(p)))


class TestSpatialGrid:
    def test_accepts_linspace_far_from_origin(self):
        # |x| / dx ~ 1.6e4: the rounding of the coordinates moves the steps
        # by ~1e-12 relative
        grid = uniform_grid(-102.000128, 102.000128, 1 << 14)
        assert grid.x.size == 1 << 14

    def test_auto_grid_of_narrow_packet(self):
        state = Gaussian1D(0.02)
        grid = auto_grid(state, SmearingParams(0.05), 0.5)
        assert grid.x[-1] > 100.0

    def test_auto_grid_size_bound(self):
        # sigma = 1e-4 spreads to |x| ~ 2e4 by t = 0.5 and needs 2^22 points
        # at s_x / 4; sigma = 1e-5 would need 2^25, beyond MAX_GRID_ELEMENTS,
        # and is refused before any grid array exists
        import tracemalloc

        assert auto_grid(Gaussian1D(1e-4), SmearingParams(0.05), 0.5).x.size == 1 << 22
        tracemalloc.start()
        try:
            with pytest.raises(GridAliasingError, match="exceed the bound"):
                auto_grid(Gaussian1D(1e-5), SmearingParams(0.05), 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_rejects_nonuniform_grid(self):
        x = np.linspace(-122.5, 122.5, 1 << 15, endpoint=False)
        x[1000] += 1e-11  # 45 times the rounding allowance, 1.3e-9 of a step
        with pytest.raises(ValueError, match="uniform"):
            SpatialGrid(x)


class TestDecoherenceFunctional:
    def test_equal_point_diagonal_close_to_probability(self):
        # wide sampling (s_x ~ 3 sigma): the sampling operator is close to a
        # projector, so <P^2> tracks <P> within 5%
        state = Gaussian1D(1.0)
        sampling = SmearingParams(3.2)
        t = 0.3
        d = decoherence_functional(state, sampling, 0.0, t, 0.0, t)
        assert abs(d.imag) < 1e-12
        prob = position_probability(state, sampling, 0.0, t)
        assert abs(d.real - prob) / prob < 0.05

    def test_equal_time_off_diagonal_vanishes(self):
        # narrow sampling: |D| at separation 6 s_x is below 1e-6
        state = Gaussian1D(1.0)
        sampling = SmearingParams(0.004)
        grid = uniform_grid(-8.5, 8.5, 1 << 14)
        t = 0.2
        for sep_in_widths in (6.0, 8.0, 12.0):
            sep = sep_in_widths * sampling.s_x
            d = decoherence_functional(
                state, sampling, 0.1 + sep, t, 0.1, t, grid=grid
            )
            assert abs(d) < 1e-6

    def test_time_of_flight_locus(self):
        # far-spreading regime: D is supported where r/t matches r2/t2 (the
        # sampled slices then carry matching momenta), and the peak weight
        # tracks the momentum content at p = m (r - r2)/(t - t2)
        state = Gaussian1D(0.25)
        sampling = SmearingParams(7.0)
        m, t2, t = 1.0, 100.0, 200.0
        grid = uniform_grid(-650.0, 650.0, 1 << 13)

        def locus_value(v):
            return abs(
                decoherence_functional(state, sampling, v * t, t, v * t2, t2, m, grid)
            )

        on_locus = locus_value(0.5)
        off = abs(
            decoherence_functional(state, sampling, 0.5 * t + 70.0, t, 0.5 * t2, t2, m, grid)
        )
        assert on_locus > 100.0 * off

        # amplitude ratio across two loci ~ |psi_tilde(p1)|^2 / |psi_tilde(p2)|^2
        xs, ws = gauss_legendre(-6.0, 6.0, 40)
        psi = state.psi(xs)

        def mom_density(p):
            return abs(np.sum(ws * psi * np.exp(-1j * p * xs))) ** 2 / (2 * np.pi)

        for v1, v2 in ((0.5, 1.0), (0.3, 1.2)):
            got_ratio = locus_value(v1) / locus_value(v2)
            expected_ratio = mom_density(v1 * m) / mom_density(v2 * m)
            assert abs(got_ratio - expected_ratio) / expected_ratio < 0.01

    def test_hermiticity_under_swap(self):
        state = Gaussian1D(0.8)
        sampling = SmearingParams(0.3)
        d_ab = decoherence_functional(state, sampling, 0.4, 0.5, -0.2, 0.9)
        d_ba = decoherence_functional(state, sampling, -0.2, 0.9, 0.4, 0.5)
        assert abs(d_ab - np.conj(d_ba)) < 1e-10


class TestSmearedMoments:
    def test_sharp_projector_identity(self):
        # box sampling: g^2 = g makes the equal-point second moment exactly
        # (m / ell) times the mean
        state = Gaussian1D(1.0)
        box = BoxSampling(0.6)
        m = 1.7
        for r in (0.0, 0.4, -1.1):
            second = smeared_second_moment(state, box, r, 0.45, m)
            mean = smeared_mean(state, box, r, 0.45, m)
            assert abs(second - (m / box.ell) * mean) <= 1e-10 * max(second, 1e-30)

    def test_gaussian_sampling_identity_is_approximate(self):
        state = Gaussian1D(1.0)
        smear = SmearingParams(0.3)
        second = smeared_second_moment(state, smear, 0.0, 0.0, 1.0)
        mean = smeared_mean(state, smear, 0.0, 0.0, 1.0)
        assert abs(second - mean / smear.ell) / (mean / smear.ell) > 0.01

    def test_two_point_prefactor(self):
        state = Gaussian1D(1.0)
        smear = SmearingParams(0.4)
        val = smeared_two_point(state, smear, 0.2, 0.1, -0.3, 0.6, m=2.0)
        d = decoherence_functional(state, smear, 0.2, 0.1, -0.3, 0.6, m=2.0)
        assert abs(val - (2.0 / smear.ell) ** 2 * d) < 1e-14


class TestRecordProbabilities:
    def test_single_event_reduces_to_position_probability(self):
        state = Gaussian1D(1.0)
        smear = SmearingParams(0.5)
        p1 = n_time_probability(state, smear, [(0.3, 0.7)])
        assert abs(p1 - position_probability(state, smear, 0.3, 0.7)) < 1e-12

    def test_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(5)
        state = Gaussian1D(1.0)
        smear = SmearingParams(0.6)
        for _ in range(10):
            events = sorted((rng.normal(), rng.uniform(0.1, 2.0)) for _ in range(3))
            events = [(r, t) for t, r in sorted((t, r) for r, t in events)]
            p = n_time_probability(state, smear, events)
            assert 0.0 <= p <= 1.0

    def test_unordered_times_rejected(self):
        state = Gaussian1D(1.0)
        with pytest.raises(ValueError):
            n_time_probability(state, SmearingParams(0.5), [(0.0, 1.0), (0.1, 0.5)])

    def test_single_time_partition_sums_to_one(self):
        state = Gaussian1D(1.0)
        smear = SmearingParams(0.4)
        comb = partition_points(0.0, 9.0, smear.s_x)
        total = partition_probability_sum(state, smear, [], comb, 0.8)
        assert abs(total - 1.0) < 1e-6

    def test_matches_record_oracle(self):
        state = Cat1D(0.7, 3.0)
        smear = SmearingParams(0.4)
        for events in ([(0.2, 0.3)], [(1.4, 0.3), (-0.5, 0.9)],
                       [(1.4, 0.3), (0.0, 0.9), (-1.2, 1.6)]):
            expected = record_probability_oracle(state, smear, events, m=1.3)
            got = n_time_probability(state, smear, events, m=1.3)
            assert abs(got - expected) <= 1e-13 * expected

    def test_batched_comb_matches_record_loop(self):
        # oracle: one record at a time over the comb, summed in order
        state = Gaussian1D(0.9, center=0.3)
        smear = SmearingParams(0.3)
        comb = partition_points(0.2, 4.0, smear.s_x)
        w = smear.partition_weight(smear.s_x)
        grid = auto_grid(state, smear, 1.5)
        for tail, g in (([], grid), ([(0.4, 1.1)], grid), ([(0.4, 1.1), (-0.3, 1.5)], None)):
            expected = 0.0
            for r1 in comb:
                expected += w * record_probability_oracle(state, smear,
                                                          [(float(r1), 0.5), *tail], grid=g)
            got = partition_probability_sum(state, smear, tail, comb, 0.5, grid=g)
            assert abs(got - expected) <= 1e-13 * expected

    def test_partition_sum_rejects_unordered_tail(self):
        state = Gaussian1D(1.0)
        comb = partition_points(0.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            partition_probability_sum(state, SmearingParams(0.5), [(0.0, 0.5)], comb, 0.5)

    def test_two_time_partition_sums_to_one(self):
        state = Gaussian1D(1.0)
        smear = SmearingParams(0.5)
        grid = auto_grid(state, smear, 1.4)
        comb1 = partition_points(0.0, 9.0, smear.s_x)
        comb2 = partition_points(0.0, 9.0, smear.s_x)
        w2 = smear.partition_weight(smear.s_x)
        total = 0.0
        for r2 in comb2:
            total += w2 * partition_probability_sum(
                state, smear, [(float(r2), 1.4)], comb1, 0.6, grid=grid
            )
        assert abs(total - 1.0) < 1e-6


class TestAdditivityDefect:
    def test_generic_defect_positive(self):
        state = Gaussian1D(1.0)
        smear = SmearingParams(0.35)
        comb = partition_points(0.0, 8.0, smear.s_x)
        defect = additivity_defect(state, smear, 0.5, 1.2, comb, [0.0, 0.8])
        assert defect > 1e-4

    def test_commuting_limit_vanishes(self):
        # effectively frozen evolution (huge mass): sampling operators
        # commute with the propagator and the marginalization is exact
        state = Gaussian1D(1.0)
        smear = SmearingParams(0.35)
        comb = partition_points(0.0, 8.0, smear.s_x)
        defect = additivity_defect(state, smear, 0.5, 1.2, comb, [0.0, 0.8], m=1e14)
        assert defect < 1e-10


class TestAdditivityDefectOracle:
    """One comb propagation per call, read off for every r2, against the
    per-r2 route it replaced."""

    @pytest.mark.parametrize("state", [Gaussian1D(0.9, center=0.3), Cat1D(0.7, 3.0)])
    @pytest.mark.parametrize("sampling", [SmearingParams(0.3), BoxSampling(0.4)])
    @pytest.mark.parametrize("r2_values", [[0.2], [0.0, 0.8], np.linspace(-1.5, 1.5, 5)])
    @pytest.mark.parametrize("explicit_grid", [False, True])
    def test_matches_per_r2_route(self, state, sampling, r2_values, explicit_grid):
        comb = partition_points(0.1, 4.0, 0.3)
        grid = uniform_grid(-14.0, 14.0, 2048) if explicit_grid else None
        args = (state, sampling, 0.4, 1.1, comb, r2_values, 1.3, grid)
        expected = additivity_defect_oracle(*args)
        assert expected > 1e-4
        assert abs(additivity_defect(*args) - expected) <= 1e-14

    def test_ragged_comb_blocks(self, monkeypatch):
        # 4 comb rows per block over a 27-row comb: six full blocks and one of 3
        state, smear = Cat1D(0.7, 3.0), SmearingParams(0.3)
        comb = partition_points(0.1, 4.0, 0.3)
        grid = auto_grid(state, smear, 1.1)
        monkeypatch.setattr(histories, "_COMB_BLOCK_BYTES", 4 * 16 * grid.x.size)
        args = (state, smear, 0.4, 1.1, comb, np.linspace(-1.5, 1.5, 5), 1.0, grid)
        assert comb.size == 27
        assert abs(additivity_defect(*args) - additivity_defect_oracle(*args)) <= 1e-14

    def test_lone_comb_center(self):
        state, smear = Gaussian1D(1.0), SmearingParams(0.3)
        args = (state, smear, 0.4, 1.1, [0.0], [0.0, 0.5])
        assert abs(additivity_defect(*args) - additivity_defect_oracle(*args)) <= 1e-14

    @pytest.mark.parametrize("t2", [0.4, 0.2])
    def test_unordered_times_rejected(self, t2):
        with pytest.raises(ValueError, match="strictly increasing"):
            additivity_defect(Gaussian1D(1.0), SmearingParams(0.3), 0.4, t2,
                              partition_points(0.0, 2.0, 0.3), [0.0])

    def test_memory_bounded_by_comb_blocks(self):
        import tracemalloc

        # density-suite's 49-row comb on 2^17 points: one complex array of
        # the whole comb would take 103 MB before any FFT temporary
        grid = uniform_grid(-40.0, 40.0, 1 << 17)
        smear = SmearingParams(0.25)
        comb = partition_points(0.0, 6.0, smear.s_x)
        assert comb.size == 49 and comb.size * grid.x.size * 16 > 100e6
        tracemalloc.start()
        try:
            defect = additivity_defect(Gaussian1D(1.0), smear, 0.1, 0.5, comb, [0.0, 1.0],
                                       grid=grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert defect > 1e-4
