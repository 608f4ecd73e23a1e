"""Continuous force measurement: record law, conditionals, sampling, defect."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

from gravcat import measurement
from gravcat.measurement import (
    MeasurementSchedule,
    ProbeGeometry,
    TrajectoryRecord,
    analytic_force_corr,
    analytic_force_mean,
    conditional_g,
    estimate_force_statistics,
    fit_exponential_rate,
    force_amplitude,
    force_corr_steps,
    force_mean_steps,
    kolmogorov_defect,
    sample_trajectories,
    sequence_probability,
)
from oracles import conditional_g_series, per_record_force_corr


def sched(nu_tau: float, n_steps: int = 10, tau: float = 1.0) -> MeasurementSchedule:
    return MeasurementSchedule(tau=tau, n_steps=n_steps, nu=nu_tau / tau)


def record_from_flips(flips) -> TrajectoryRecord:
    readings = [1]
    for f in flips:
        readings.append(readings[-1] * (-1 if f else 1))
    return TrajectoryRecord(np.array(readings, dtype=np.int8))


def enumerate_records(n_steps: int):
    for flips in itertools.product((0, 1), repeat=n_steps):
        yield record_from_flips(flips), sum(flips)


class TestForceAmplitude:
    def test_unit_configuration(self):
        geo = ProbeGeometry(G=1.0, m=1.0, m0=1.0, L=2.0, y=0.0)
        assert abs(force_amplitude(geo) - 1.0) < 1e-15

    def test_far_field_decay(self):
        values = [force_amplitude(ProbeGeometry(L=2.0, y=y)) for y in (0.0, 1.0, 3.0, 10.0, 100.0)]
        assert all(a > b > 0 for a, b in zip(values, values[1:]))

    def test_linear_in_probe_mass(self):
        base = force_amplitude(ProbeGeometry(L=1.5, y=0.7))
        assert abs(force_amplitude(ProbeGeometry(L=1.5, y=0.7, m0=3.0)) - 3.0 * base) < 1e-14


class TestInputChecks:
    @pytest.mark.parametrize("kwargs", [
        {"tau": math.nan}, {"tau": math.inf}, {"nu": math.nan}, {"nu": math.inf},
    ])
    def test_schedule_rejects_non_finite(self, kwargs):
        with pytest.raises(ValueError):
            MeasurementSchedule(**{"tau": 1.0, "n_steps": 10, "nu": 0.1, **kwargs})

    @pytest.mark.parametrize("kwargs", [
        {"G": math.nan}, {"m": math.inf}, {"m0": math.nan}, {"L": math.inf},
        {"y": math.nan}, {"y": math.inf},
    ])
    def test_geometry_rejects_non_finite(self, kwargs):
        with pytest.raises(ValueError):
            ProbeGeometry(**kwargs)


class TestSequenceProbability:
    def test_frozen_dynamics(self):
        s = sched(0.0, n_steps=5)
        flat = record_from_flips([0] * 5)
        assert sequence_probability(flat, s) == 1.0
        jumped = record_from_flips([0, 1, 0, 0, 0])
        assert sequence_probability(jumped, s) == 0.0

    def test_maximal_mixing(self):
        s = sched(np.pi / 2, n_steps=2)
        for rec, _ in enumerate_records(2):
            assert abs(sequence_probability(rec, s) - 0.25) < 1e-15

    def test_total_probability(self):
        s = sched(0.73, n_steps=12)
        total = sum(sequence_probability(rec, s) for rec, _ in enumerate_records(12))
        assert abs(total - 1.0) < 1e-12

    def test_small_angle_form(self):
        s = sched(0.01, n_steps=4)
        rec = record_from_flips([1, 0, 0, 1])
        expected = s.lam**2 * math.exp(-s.lam * 2)
        assert abs(sequence_probability(rec, s, small_angle=True) - expected) < 1e-15

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sequence_probability(record_from_flips([0, 0]), sched(0.1, n_steps=5))

    def test_wrong_start_rejected(self):
        rec = TrajectoryRecord(np.array([-1, 1, 1], dtype=np.int8))
        with pytest.raises(ValueError):
            sequence_probability(rec, sched(0.1, n_steps=2))


def brute_force_g(a2, a1, m, s):
    """Sum of exact record probabilities over all paths from a1 to a2."""
    p = s.flip_probability
    total = 0.0
    for flips in itertools.product((0, 1), repeat=m):
        if (-1) ** sum(flips) == a1 * a2:
            n = sum(flips)
            total += p**n * (1 - p) ** (m - n)
    return total


class TestConditionalG:
    def test_zero_lag(self):
        s = sched(0.8)
        assert conditional_g(1, 1, 0, s) == 1.0
        assert conditional_g(-1, 1, 0, s) == 0.0

    @pytest.mark.parametrize("nu_tau", [0.1, 0.5, 1.0])
    def test_exact_matches_enumeration(self, nu_tau):
        s = sched(nu_tau)
        for m in range(11):
            for a1 in (1, -1):
                for a2 in (1, -1):
                    assert abs(conditional_g(a2, a1, m, s) - brute_force_g(a2, a1, m, s)) < 1e-12

    def test_exact_normalized(self):
        s = sched(0.6)
        for m in range(11):
            total = conditional_g(1, 1, m, s) + conditional_g(-1, 1, m, s)
            assert abs(total - 1.0) < 1e-14

    def test_approximate_matches_series(self):
        s = sched(0.9)
        for m in range(11):
            for a2 in (1, -1):
                closed = conditional_g(a2, 1, m, s, form="approximate")
                series = conditional_g_series(a2, 1, m, s)
                assert abs(closed - series) < 1e-13

    def test_approximate_sum_identity(self):
        # the small-angle closed forms sum to (cos^2)^m (1 + sin^2/4)^m,
        # not to 1: their conditional law is unnormalized at finite nu tau
        s = sched(0.7)
        for m in range(11):
            total = conditional_g(1, 1, m, s, form="approximate") + conditional_g(
                -1, 1, m, s, form="approximate"
            )
            expected = (np.cos(0.35) ** 2 * (1 + 0.25 * np.sin(0.7) ** 2)) ** m
            assert abs(total - expected) < 1e-12

    def test_symmetry(self):
        s = sched(0.4)
        for form in ("exact", "approximate"):
            assert conditional_g(-1, -1, 7, s, form=form) == conditional_g(1, 1, 7, s, form=form)
            assert conditional_g(1, -1, 7, s, form=form) == conditional_g(-1, 1, 7, s, form=form)


def brute_force_mean(m, s, f0):
    total = 0.0
    for flips in itertools.product((0, 1), repeat=m):
        n = sum(flips)
        prob = s.flip_probability**n * (1 - s.flip_probability) ** (m - n)
        total += prob * (-f0) * (-1) ** n
    return total


def brute_force_corr(m1, m2, s, f0):
    total = 0.0
    p = s.flip_probability
    for flips in itertools.product((0, 1), repeat=m2):
        n = sum(flips)
        prob = p**n * (1 - p) ** (m2 - n)
        a1 = (-1) ** sum(flips[:m1])
        a2 = (-1) ** n
        total += prob * (f0**2) * a1 * a2
    return total


class TestDiscreteForceLaws:
    def test_frozen(self):
        s = sched(0.0)
        assert force_mean_steps(5, s, 2.0) == -2.0
        assert force_corr_steps(2, 9, s, 2.0) == 4.0

    def test_zero_step(self):
        assert force_mean_steps(0, sched(0.3), 1.7) == -1.7

    def test_exact_matches_enumeration(self):
        f0 = 1.3
        for nu_tau in (0.1, 0.5, 1.0):
            s = sched(nu_tau)
            for m in range(9):
                assert abs(force_mean_steps(m, s, f0, "exact") - brute_force_mean(m, s, f0)) < 1e-12
            for m1, m2 in ((0, 3), (2, 5), (4, 8)):
                got = force_corr_steps(m1, m2, s, f0, "exact")
                assert abs(got - brute_force_corr(m1, m2, s, f0)) < 1e-12

    def test_exact_correlation_is_lag_stationary(self):
        s = sched(0.5)
        lag = 4
        vals = [force_corr_steps(m1, m1 + lag, s, 1.0, "exact") for m1 in range(8)]
        assert np.ptp(vals) < 1e-15

    def test_approximate_correlation_prefactor_depends_on_start(self):
        # the small-angle product form carries the start-time prefactor
        # [cos^2(nu tau / 2) (1 + sin^2(nu tau)/4)]^{m1}
        s = sched(0.5)
        lag = 4
        base = force_corr_steps(0, lag, s, 1.0, "approximate")
        ratios = np.array(
            [force_corr_steps(m1, m1 + lag, s, 1.0, "approximate") / base for m1 in range(11)]
        )
        factor = np.cos(0.25) ** 2 * (1 + 0.25 * np.sin(0.5) ** 2)
        assert np.allclose(ratios, factor ** np.arange(11), rtol=1e-12)
        assert np.max(np.abs(ratios - 1.0)) > 0.01

    def test_discrete_vs_continuum_small_angle(self):
        f0 = 0.9
        s = sched(0.05, n_steps=2000)
        for m in (1, 10, 100, 500, 2000):
            cont = analytic_force_mean(m * s.tau, s, f0)
            for form in ("exact", "approximate"):
                disc = force_mean_steps(m, s, f0, form)
                assert abs(disc - cont) / abs(cont) < 0.01
        for m1, m2 in ((0, 400), (100, 1500), (0, 2000)):
            cont = analytic_force_corr(m1 * s.tau, m2 * s.tau, s, f0)
            for form in ("exact", "approximate"):
                disc = force_corr_steps(m1, m2, s, f0, form)
                assert abs(disc - cont) / abs(cont) < 0.01

    def test_unordered_steps_rejected(self):
        with pytest.raises(ValueError):
            force_corr_steps(5, 2, sched(0.1), 1.0)

    def test_rate_bookkeeping(self):
        s = MeasurementSchedule(tau=0.5, n_steps=10, nu=0.2)
        assert abs(s.lam - 0.2**2 * 0.5**2 / 4) < 1e-18
        assert abs(s.gamma - 0.2**2 * 0.5 / 2) < 1e-18
        assert abs(s.gamma - 2 * s.lam / s.tau) < 1e-18


class TestSampling:
    def test_frozen_dynamics_constant(self):
        ens = sample_trajectories(sched(0.0, n_steps=20), 50, seed=3)
        assert np.all(ens.readings == 1)

    def test_reproducibility(self):
        s = sched(0.3, n_steps=25)
        a = sample_trajectories(s, 200, seed=42)
        b = sample_trajectories(s, 200, seed=42)
        assert np.array_equal(a.readings, b.readings)
        c = sample_trajectories(s, 200, seed=43)
        assert not np.array_equal(a.readings, c.readings)

    def test_prefix_stability(self):
        # a smaller draw is the first rows of a larger one, across the
        # 4096-trajectory stream block boundary
        s = sched(0.3, n_steps=25)
        a = sample_trajectories(s, 5000, seed=7)
        b = sample_trajectories(s, 9000, seed=7)
        assert np.array_equal(a.readings, b.readings[:5000])
        # each block has its own stream
        assert not np.array_equal(b.readings[:4096], b.readings[4096:8192])

    def test_flip_frequency(self):
        s = sched(0.4, n_steps=200)
        count = 100_000
        ens = sample_trajectories(s, count, seed=11)
        flips = ens.readings[:, 1:] != ens.readings[:, :-1]
        freq = flips.mean()
        p = s.flip_probability
        stderr = math.sqrt(p * (1 - p) / flips.size)
        assert abs(freq - p) < 3 * stderr

    def test_jump_count_distribution_chi_square(self):
        s = sched(0.6, n_steps=10)
        count = 100_000
        ens = sample_trajectories(s, count, seed=5)
        observed = np.bincount(ens.jump_counts(), minlength=11).astype(float)
        p = s.flip_probability
        expected = np.array(
            [math.comb(10, n) * p**n * (1 - p) ** (10 - n) * count for n in range(11)]
        )
        # pool the sparse tail so every expected count is >= 5
        keep = expected >= 5.0
        obs = np.append(observed[keep], observed[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
        result = sps.chisquare(obs, exp)
        assert result.pvalue > 0.001

    def test_record_view(self):
        ens = sample_trajectories(sched(0.5, n_steps=12), 10, seed=1)
        rec = ens[3]
        assert len(rec) == 13
        assert rec.jump_count == int((ens.readings[3, 1:] != ens.readings[3, :-1]).sum())


class TestEstimator:
    def test_single_frozen_record(self):
        s = sched(0.0, n_steps=8)
        ens = sample_trajectories(s, 1, seed=0)
        stats = estimate_force_statistics(ens, s, f0=1.4)
        assert np.allclose(stats.mean, -1.4, atol=0.0)

    def test_zero_lag_is_f0_squared(self):
        s = sched(0.7, n_steps=30)
        ens = sample_trajectories(s, 500, seed=9)
        stats = estimate_force_statistics(ens, s, f0=2.0)
        assert abs(stats.corr[0] - 4.0) < 1e-12

    def test_dichotomy_bounds(self):
        s = sched(0.9, n_steps=40)
        ens = sample_trajectories(s, 300, seed=21)
        stats = estimate_force_statistics(ens, s, f0=1.0)
        assert np.all(stats.corr <= 1.0 + 1e-12)
        assert np.all(stats.corr >= -1.0 - 1e-12)

    def test_lag_sums_match_direct_products(self):
        s = sched(0.5, n_steps=40)
        ens = sample_trajectories(s, 300, seed=13)
        f0 = 1.3
        stats = estimate_force_statistics(ens, s, f0=f0)
        x = ens.readings.astype(float)
        length = x.shape[1]
        per_traj = np.stack(
            [(x[:, k:] * x[:, : length - k]).sum(axis=1) / (length - k) for k in range(length)],
            axis=1,
        )
        corr = f0**2 * per_traj.mean(axis=0)
        stderr = f0**2 * per_traj.std(axis=0, ddof=1) / math.sqrt(len(ens))
        assert np.max(np.abs(stats.corr - corr)) < 1e-12
        assert np.max(np.abs(stats.corr_stderr - stderr)) < 1e-12

    def test_mean_matches_float_route(self):
        s = sched(0.5, n_steps=40)
        ens = sample_trajectories(s, 300, seed=13)
        f0 = 1.3
        stats = estimate_force_statistics(ens, s, f0=f0)
        force = -f0 * ens.readings.astype(float)
        assert np.max(np.abs(stats.mean - force.mean(axis=0))) < 1e-14
        stderr = force.std(axis=0, ddof=1) / math.sqrt(len(ens))
        assert np.max(np.abs(stats.mean_stderr - stderr)) < 1e-14

    def test_memory_bounded_by_fft_blocks(self):
        s = sched(0.1, n_steps=200)
        ens = sample_trajectories(s, 20_000, seed=17)
        tracemalloc.start()
        try:
            estimate_force_statistics(ens, s, f0=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the readings themselves (3.8 MB) were allocated before tracing
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("readings", [
        np.ones((4, 9)),                          # float copy
        np.zeros((4, 9), dtype=np.int8),          # not +/-1
        np.ones(9, dtype=np.int8),                # one record, not a stack
        [TrajectoryRecord(np.ones(9, dtype=np.int8))],
    ])
    def test_rejects_non_ensemble_input(self, readings):
        with pytest.raises(ValueError):
            estimate_force_statistics(readings, sched(0.3, n_steps=8), f0=1.0)

    def test_fit_recovers_analytic_rate(self):
        t = np.linspace(0.0, 10.0, 50)
        rate, amp = fit_exponential_rate(t, -3.0 * np.exp(-0.37 * t))
        assert abs(rate - 0.37) < 1e-12
        assert abs(amp - 3.0) < 1e-12

    def test_fit_rejects_sign_changes(self):
        with pytest.raises(ValueError):
            fit_exponential_rate(np.array([0.0, 1.0]), np.array([1.0, -1.0]))


class TestGroupedEstimator:
    """Each distinct record is transformed once and weighted by its count;
    the per-record FFT loop it replaced (tests/oracles.py) must give the
    same bits."""

    F0 = 1.3

    def _check(self, readings, s, max_lag=None):
        stats = estimate_force_statistics(readings, s, f0=self.F0, max_lag=max_lag)
        lag = int(stats.lag_steps[-1])
        col_sum, *sums = measurement._lag_sums(readings, lag)
        assert np.array_equal(col_sum, readings.sum(axis=0, dtype=np.int64))
        assert np.array_equal(stats.mean, self.F0 * -col_sum / readings.shape[0])
        got = (*sums, stats.corr, stats.corr_stderr)
        for a, b in zip(got, per_record_force_corr(readings, self.F0, lag), strict=True):
            assert np.array_equal(a, b)

    def test_low_jump_ensemble_with_repeats(self):
        s = sched(0.05, n_steps=200)
        readings = sample_trajectories(s, 9000, seed=3).readings
        first, weight = measurement._distinct_records(readings)
        assert first.size < 1000 and weight.sum() == 9000
        self._check(readings, s)

    def test_all_distinct_ensemble(self):
        s = sched(1.0, n_steps=100)
        readings = sample_trajectories(s, 5000, seed=5).readings
        first, weight = measurement._distinct_records(readings)
        assert np.array_equal(first, np.arange(5000)) and np.all(weight == 1)
        self._check(readings, s)

    def test_max_lag_below_steps(self):
        s = sched(0.2, n_steps=80)
        self._check(sample_trajectories(s, 3000, seed=8).readings, s, max_lag=17)

    @pytest.mark.parametrize("length, count", [(13, 4097), (64, 8191), (65, 5000),
                                               (201, 10001)])
    def test_record_lengths_and_ragged_counts(self, length, count):
        s = sched(0.3, n_steps=length - 1)
        self._check(sample_trajectories(s, count, seed=length).readings, s)

    @pytest.mark.parametrize("length", [13, 64, 65, 201])
    def test_last_reading_separates_groups(self, length):
        readings = np.ones((8, length), dtype=np.int8)
        readings[[1, 4, 6], -1] = -1
        first, weight = measurement._distinct_records(readings)
        assert first.tolist() == [0, 1] and weight.tolist() == [5, 3]
        self._check(readings, sched(0.3, n_steps=length - 1))

    def test_hash_collisions_split_but_never_merge(self, monkeypatch):
        # multiplier 0 leaves only the last key word in the hash
        monkeypatch.setattr(measurement, "_HASH_MULTIPLIER", np.uint64(0))
        s = sched(0.4, n_steps=200)
        readings = sample_trajectories(s, 6000, seed=12).readings
        self._check(readings, s)

    # the readings are checked before any sum, so no warning (a 127 summed
    # first would take the square root of a negative variance) precedes the error
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("col, value", [(2, 0), (2, 3), (2, 127), (1, -3), (1, -128)])
    def test_bad_value_in_a_repeated_row_rejected(self, col, value):
        s = sched(0.05, n_steps=200)
        readings = sample_trajectories(s, 10_000, seed=2).readings
        readings[0, 1::2] = -1
        readings[9000] = readings[0]
        readings[9000, col] = value
        # same sign bits as row 0, so the same group key
        assert np.array_equal(readings[9000] < 0, readings[0] < 0)
        with pytest.raises(ValueError):
            estimate_force_statistics(readings, s, f0=1.0)


class TestKolmogorovDefect:
    def test_frozen_dynamics(self):
        assert kolmogorov_defect(sched(0.0), 2) <= 1e-14

    def test_positive_at_quarter_angle(self):
        assert kolmogorov_defect(sched(np.pi / 4), 2) > 0.0

    def test_two_step_closed_form(self):
        # enumeration equals sin^2(nu tau) / 2 for two measurements
        for nu_tau in (0.3, 0.8, 1.2):
            got = kolmogorov_defect(sched(nu_tau), 2)
            assert abs(got - 0.5 * np.sin(nu_tau) ** 2) < 1e-12

    def test_decreasing_with_resolution(self):
        vals = [kolmogorov_defect(sched(x), 3) for x in (0.4, 0.2, 0.1, 0.05)]
        assert all(a > b > 0 for a, b in zip(vals, vals[1:]))
