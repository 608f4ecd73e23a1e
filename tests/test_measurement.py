"""Continuous force measurement: record law, conditionals, sampling, defect."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from gravcat import measurement
from gravcat.measurement import (
    MeasurementSchedule,
    ProbeGeometry,
    estimate_force_statistics,
    fit_exponential_rate,
    force_amplitude,
    sample_trajectories,
)
from oracles import (
    analytic_force_corr,
    analytic_force_mean,
    conditional_g,
    conditional_g_series,
    force_corr_steps,
    force_mean_steps,
    gap_route_records,
    jump_weight,
    kolmogorov_defect,
    kolmogorov_defect_enumerated,
    pack_readings,
    per_record_force_corr,
    sequence_probability,
    uniform_route_records,
)


def sched(nu_tau: float, n_steps: int = 10, tau: float = 1.0) -> MeasurementSchedule:
    return MeasurementSchedule(tau=tau, n_steps=n_steps, nu=nu_tau / tau)


def draw(s: MeasurementSchedule, count: int, seed: int) -> np.ndarray:
    """The records `sample_trajectories` yields, as one (count, N+1) int8
    array of +/-1 readings."""
    words = np.concatenate(list(sample_trajectories(s, count, seed)))
    return measurement.unpack_readings(words, s.n_steps + 1)


def record_from_flips(flips) -> np.ndarray:
    readings = [1]
    for f in flips:
        readings.append(readings[-1] * (-1 if f else 1))
    return np.array(readings, dtype=np.int8)


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

    @pytest.mark.parametrize("kwargs,expected", [
        ({"L": 1e300}, 0.0),
        ({"y": 1e300}, 0.0),
        ({"L": 1e-300}, np.inf),
        ({"G": 1e300, "m": 1e300}, np.inf),
    ])
    def test_out_of_range_geometry_gives_ieee_value(self, kwargs, expected):
        # a squared length or the mass product leaves the float range
        assert force_amplitude(ProbeGeometry(**kwargs)) == expected

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
        lam = jump_weight(s)
        expected = lam**2 * math.exp(-lam * 2)
        assert abs(sequence_probability(rec, s, small_angle=True) - expected) < 1e-15

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sequence_probability(record_from_flips([0, 0]), sched(0.1, n_steps=5))

    def test_wrong_start_rejected(self):
        rec = np.array([-1, 1, 1], dtype=np.int8)
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

    def test_start_prefactor_is_one_step_probability_leak(self):
        # what acceptance criterion 3 witnesses: the ratio at start step m1
        # is q^m1, q = cos^2(nu tau/2)(1 + sin^2(nu tau)/4), the one-step
        # total probability g(+,+;1) + g(-,+;1) of the unnormalized
        # approximate law; the exact law sums to 1 and its correlation
        # depends on the lag alone
        for nu_tau in (0.05, 0.5, 1.0, 1.3, 2.5):
            s = sched(nu_tau)
            q = np.cos(0.5 * nu_tau) ** 2 * (1.0 + 0.25 * np.sin(nu_tau) ** 2)
            leak = sum(conditional_g(a2, 1, 1, s, "approximate") for a2 in (1, -1))
            assert abs(leak - q) <= 1e-15
            assert abs(sum(conditional_g(a2, 1, 1, s) for a2 in (1, -1)) - 1.0) <= 1e-15
            for lag in (0, 1, 5, 17):
                base = force_corr_steps(0, lag, s, 1.3, "approximate")
                for m1 in range(31):
                    got = force_corr_steps(m1, m1 + lag, s, 1.3, "approximate") / base
                    assert got == pytest.approx(q**m1, rel=1e-14, abs=0.0)

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
        lam = jump_weight(s)
        assert abs(lam - 0.2**2 * 0.5**2 / 4) < 1e-18
        assert abs(s.gamma - 0.2**2 * 0.5 / 2) < 1e-18
        assert abs(s.gamma - 2 * lam / s.tau) < 1e-18


# nu tau on each sampler route, and whether it draws geometric gaps: the
# flips (p = 0.01, 0.04 or 0.09), the stays (p = 0.97), or one uniform per
# step (p = 0.47).
ROUTES = [(0.2, True), (0.4, True), (2.8, True), (1.5, False)]


def draws_gaps(s: MeasurementSchedule) -> bool:
    p = s.flip_probability
    return min(p, 1.0 - p) <= measurement._GAP_CROSSOVER


def markov_order_p_value(readings: np.ndarray) -> float:
    """Likelihood-ratio p-value of a second-order against a first-order
    Markov chain, from the reading triples pooled over time: G = 2 sum
    n_ijk log(n_ijk n_j / (n_ij n_jk)) is chi^2 with (2^2)(2-1) - 2(2-1) = 2
    degrees of freedom, whose survival function is exp(-G / 2)."""
    bits = (readings < 0).astype(np.int64)
    code = 4 * bits[:, :-2] + 2 * bits[:, 1:-1] + bits[:, 2:]
    n = np.bincount(code.ravel(), minlength=8).reshape(2, 2, 2).astype(float)
    n_ij, n_jk, n_j = n.sum(axis=2), n.sum(axis=0), n.sum(axis=(0, 2))
    expected = n_ij[:, :, None] * n_jk[None, :, :] / n_j[None, :, None]
    seen = n > 0
    g = 2.0 * np.sum(n[seen] * np.log(n[seen] / expected[seen]))
    return math.exp(-g / 2.0)


class TestSampling:
    def test_frozen_dynamics_constant(self):
        readings = draw(sched(0.0, n_steps=20), 50, seed=3)
        assert np.all(readings == 1)

    def test_certain_flips_alternate(self):
        s = sched(np.pi, n_steps=15)
        assert s.flip_probability == 1.0
        readings = draw(s, 5000, seed=4)
        assert np.array_equal(readings, np.broadcast_to((-1) ** np.arange(16), (5000, 16)))

    def test_vanishing_rate_returns_promptly(self):
        # p = 2.5e-301 and a subnormal 2.5e-321: every geometric gap
        # overflows int64 unless it is clipped to the block first, and the
        # unclipped draw loop never ends; a fresh process bounds the wait
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(measurement.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        code = ("import numpy as np; from gravcat.measurement import MeasurementSchedule, "
                "sample_trajectories as draw\n"
                "for nu in (1e-150, 1e-160):\n"
                "    s = MeasurementSchedule(tau=1.0, n_steps=200, nu=nu)\n"
                "    print(s.flip_probability > 0, not any(b.any() for b in draw(s, 5000, 1)))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.split() == ["True"] * 4
        assert out.stderr == ""

    @pytest.mark.parametrize("nu_tau", [1e-150, 0.1, 0.6, 2.5, 2.9, np.pi])
    def test_gap_route_matches_record_parity_oracle(self, nu_tau):
        # marks on flips and on stays; 9000 records span three stream
        # blocks, the last one partial
        s = sched(nu_tau, n_steps=37)
        assert draws_gaps(s)
        readings = draw(s, 9000, seed=21)
        assert np.array_equal(readings, gap_route_records(s, 9000, seed=21))

    @pytest.mark.parametrize("nu,tau,digest", [
        (0.5, 0.2, "b407f1d641e0143925d4ad939a4708008588330188b510989c543ec302992e4c"),
        (2.0, 0.7, "a3fd151777c1b3991fa5ea9a25566383698bf315d7e298657497b29118378d72"),
    ])
    def test_yields_the_pinned_int8_blocks(self, nu, tau, digest):
        # the gap route (q = 0.0025) and the uniform route (q = 0.415) over
        # two stream blocks; the digests, over the unpacked int8 readings,
        # pin the stream, so any change to the draws fails here and must be
        # made on purpose
        blocks = list(sample_trajectories(MeasurementSchedule(tau=tau, n_steps=40, nu=nu),
                                          5000, seed=7))
        assert [b.shape for b in blocks] == [(4096, 1), (904, 1)]
        assert all(type(b) is np.ndarray and b.dtype == np.uint64 and b.flags.c_contiguous
                   for b in blocks)
        readings = measurement.unpack_readings(np.concatenate(blocks), 41)
        assert readings.dtype == np.int8 and readings.shape == (5000, 41)
        assert hashlib.sha256(readings.tobytes()).hexdigest() == digest

    # record lengths N + 1 on each side of the 64-bit word boundaries, on
    # the gap route (flips, stays, and q = 0 by nu tau = pi or nu = 0) and
    # the uniform route
    @pytest.mark.parametrize("length", [2, 63, 64, 65, 128, 129, 201])
    @pytest.mark.parametrize("nu_tau", [0.0, 0.3, 2.8, np.pi, 1.5])
    def test_packed_words_at_word_boundaries(self, length, nu_tau):
        s = sched(nu_tau, n_steps=length - 1)
        blocks = list(sample_trajectories(s, 5000, seed=length))
        width = -(-length // 64)
        assert [b.shape for b in blocks] == [(4096, width), (904, width)]
        words = np.concatenate(blocks)
        readings = measurement.unpack_readings(words, length)
        oracle = gap_route_records if draws_gaps(s) else uniform_route_records
        assert np.array_equal(readings, oracle(s, 5000, seed=length))
        # bit t % 64 of word t // 64, and 0 in every padding bit, as the
        # bit-by-bit packer writes them
        assert np.array_equal(words, pack_readings(readings))

    def test_reproducibility(self):
        s = sched(0.3, n_steps=25)
        a = draw(s, 200, seed=42)
        b = draw(s, 200, seed=42)
        assert np.array_equal(a, b)
        c = draw(s, 200, seed=43)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("nu_tau,gaps", ROUTES)
    def test_prefix_stability(self, nu_tau, gaps):
        # a smaller draw is the first rows of a larger one, across the
        # 4096-trajectory stream block boundary
        s = sched(nu_tau, n_steps=25)
        assert draws_gaps(s) is gaps
        a = draw(s, 5000, seed=7)
        b = draw(s, 9000, seed=7)
        assert np.array_equal(a, b[:5000])
        # each block has its own stream
        assert not np.array_equal(b[:4096], b[4096:8192])

    @pytest.mark.parametrize("nu_tau,gaps", ROUTES)
    def test_flip_frequency(self, nu_tau, gaps):
        s = sched(nu_tau, n_steps=200)
        assert draws_gaps(s) is gaps
        count = 100_000
        readings = draw(s, count, seed=11)
        flips = readings[:, 1:] != readings[:, :-1]
        freq = flips.mean()
        p = s.flip_probability
        stderr = math.sqrt(p * (1 - p) / flips.size)
        assert abs(freq - p) < 3 * stderr

    @pytest.mark.parametrize("nu_tau,gaps", [(0.2, True), (0.6, True), (2.8, True), (1.5, False)])
    def test_jump_count_distribution_chi_square(self, nu_tau, gaps):
        s = sched(nu_tau, n_steps=10)
        assert draws_gaps(s) is gaps
        count = 100_000
        readings = draw(s, count, seed=5)
        jumps = np.count_nonzero(readings[:, 1:] != readings[:, :-1], axis=1)
        observed = np.bincount(jumps, minlength=11).astype(float)
        p = s.flip_probability
        expected = np.array(
            [math.comb(10, n) * p**n * (1 - p) ** (10 - n) * count for n in range(11)]
        )
        # pool the sparse tail, if any, so every expected count is >= 5
        keep = expected >= 5.0
        obs, exp = observed[keep], expected[keep]
        if not keep.all():
            obs = np.append(obs, observed[~keep].sum())
            exp = np.append(exp, expected[~keep].sum())
        result = sps.chisquare(obs, exp)
        assert result.pvalue > 0.001

    @pytest.mark.parametrize("nu_tau,gaps", [(0.2, True), (0.5, True), (2.8, True), (1.5, False)])
    def test_records_are_first_order_markov(self, nu_tau, gaps):
        s = sched(nu_tau, n_steps=30)
        assert draws_gaps(s) is gaps
        readings = draw(s, 50_000, seed=3)
        assert markov_order_p_value(readings) > 0.001

    def test_markov_order_statistic_detects_second_order(self):
        # flip with 0.1 after a stay and 0.3 after a flip: a second-order chain
        rng = np.random.default_rng(8)
        readings = np.ones((50_000, 31), dtype=np.int8)
        flipped = np.zeros(50_000, dtype=bool)
        for k in range(1, 31):
            flipped = rng.random(50_000) < np.where(flipped, 0.3, 0.1)
            readings[:, k] = np.where(flipped, -readings[:, k - 1], readings[:, k - 1])
        assert markov_order_p_value(readings) < 1e-10


class TestEstimator:
    def test_single_frozen_record(self):
        s = sched(0.0, n_steps=8)
        stats = estimate_force_statistics(sample_trajectories(s, 1, seed=0), s, f0=1.4)
        assert np.allclose(stats.mean, -1.4, atol=0.0)

    def test_zero_lag_is_f0_squared(self):
        s = sched(0.7, n_steps=30)
        stats = estimate_force_statistics(sample_trajectories(s, 500, seed=9), s, f0=2.0)
        assert abs(stats.corr[0] - 4.0) < 1e-12

    def test_dichotomy_bounds(self):
        s = sched(0.9, n_steps=40)
        stats = estimate_force_statistics(sample_trajectories(s, 300, seed=21), s, f0=1.0)
        assert np.all(stats.corr <= 1.0 + 1e-12)
        assert np.all(stats.corr >= -1.0 - 1e-12)

    def test_lag_sums_match_direct_products(self):
        s = sched(0.5, n_steps=40)
        readings = draw(s, 300, seed=13)
        f0 = 1.3
        stats = estimate_force_statistics([pack_readings(readings)], s, f0=f0)
        x = readings.astype(float)
        length = x.shape[1]
        per_traj = np.stack(
            [(x[:, k:] * x[:, : length - k]).sum(axis=1) / (length - k) for k in range(length)],
            axis=1,
        )
        corr = f0**2 * per_traj.mean(axis=0)
        stderr = f0**2 * per_traj.std(axis=0, ddof=1) / math.sqrt(len(readings))
        assert np.max(np.abs(stats.corr - corr)) < 1e-12
        assert np.max(np.abs(stats.corr_stderr - stderr)) < 1e-12

    def test_mean_matches_float_route(self):
        s = sched(0.5, n_steps=40)
        readings = draw(s, 300, seed=13)
        f0 = 1.3
        stats = estimate_force_statistics([pack_readings(readings)], s, f0=f0)
        force = -f0 * readings.astype(float)
        assert np.max(np.abs(stats.mean - force.mean(axis=0))) < 1e-14
        stderr = force.std(axis=0, ddof=1) / math.sqrt(len(readings))
        assert np.max(np.abs(stats.mean_stderr - stderr)) < 1e-14

    def test_memory_bounded_by_fft_blocks(self):
        # sampler and estimator together: one stream block of flips (1 MB
        # of bools, 0.1 MB packed) and its temporaries exist at a time, and
        # the keys of the distinct records of each block
        s = sched(0.1, n_steps=200)
        tracemalloc.start()
        try:
            estimate_force_statistics(sample_trajectories(s, 20_000, seed=17), s, f0=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("nu_tau", [0.1, 0.5])
    def test_memory_grows_less_than_the_readings(self, nu_tau):
        # A (count, 201) int8 ensemble adds 201 B per record.  At nu tau 0.1
        # most records repeat within their block and the peak grows by 4.5 B
        # per record (measured); at 0.5 nearly every record is distinct and
        # keeps a 32 B key and an 8 B multiplicity, 58 B per record
        # (measured).  The first run imports what the estimator loads.
        s = sched(nu_tau, n_steps=200)

        def peak(count):
            tracemalloc.start()
            try:
                estimate_force_statistics(sample_trajectories(s, count, seed=1), s, f0=1.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1000)
        assert (peak(50_000) - peak(10_000)) / 40_000 <= 64

    @pytest.mark.parametrize("blocks", [
        [np.ones((4, 1))],                        # float words
        [np.ones((4, 9), dtype=np.int8)],         # unpacked readings
        [np.zeros(1, dtype=np.uint64)],           # one record, not a block
        np.zeros((4, 1), dtype=np.uint64),        # one block, not blocks: its rows are 1-D
        [[np.zeros(1, dtype=np.uint64)]],         # a list of records, not an array
        [np.zeros((4, 2), dtype=np.uint64)],      # records a word too wide
        [],                                       # no blocks
        [np.zeros((0, 1), dtype=np.uint64)],      # no records
    ])
    def test_rejects_non_ensemble_input(self, blocks):
        with pytest.raises(ValueError):
            estimate_force_statistics(blocks, sched(0.3, n_steps=8), f0=1.0)

    @pytest.mark.parametrize("blocks", [
        [np.ones((4, 9))],                        # float copy
        [np.zeros((4, 9), dtype=np.int8)],        # not +/-1
        [np.ones(9, dtype=np.int8)],              # one record, not a block
        [[np.ones(9, dtype=np.int8)]],            # a record in a list, not an array
    ])
    def test_packer_rejects_non_ensemble_input(self, blocks):
        with pytest.raises(ValueError):
            pack_readings(blocks[0])

    @pytest.mark.parametrize("value", [0, -128])
    def test_bad_reading_in_third_block_rejected(self, value):
        s = sched(0.3, n_steps=20)
        blocks = list(sample_trajectories(s, 3 * 4096 + 10, seed=6))
        readings = measurement.unpack_readings(blocks[2], 21)
        readings[5, 7] = value
        with pytest.raises(ValueError, match="readings must be"):
            pack_readings(readings)

    def test_one_dimensional_third_block_rejected(self):
        s = sched(0.3, n_steps=20)
        blocks = list(sample_trajectories(s, 3 * 4096 + 10, seed=6))
        with pytest.raises(ValueError, match="2-D int8"):
            pack_readings(measurement.unpack_readings(blocks[2], 21)[0])
        blocks[2] = blocks[2][0]
        with pytest.raises(ValueError, match="2-D uint64"):
            estimate_force_statistics(blocks, s, f0=1.0)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.uint8, np.float64])
    def test_non_uint64_third_block_rejected(self, dtype):
        # the same bytes, or the same values, in another dtype
        s = sched(0.3, n_steps=20)
        blocks = list(sample_trajectories(s, 3 * 4096 + 10, seed=6))
        blocks[2] = blocks[2].view(dtype) if dtype != np.float64 else blocks[2].astype(dtype)
        with pytest.raises(ValueError, match="2-D uint64"):
            estimate_force_statistics(blocks, s, f0=1.0)

    @pytest.mark.parametrize("length, width", [(64, 2), (65, 1), (65, 3), (201, 3), (201, 5)])
    def test_third_block_of_wrong_word_width_rejected(self, length, width):
        s = sched(0.3, n_steps=length - 1)
        blocks = list(sample_trajectories(s, 3 * 4096 + 10, seed=6))
        blocks[2] = np.zeros((blocks[2].shape[0], width), dtype=np.uint64)
        with pytest.raises(ValueError, match=f"{-(-length // 64)}-word records"):
            estimate_force_statistics(blocks, s, f0=1.0)

    @pytest.mark.parametrize("length, bit", [(2, 2), (2, 63), (63, 63), (65, 1), (201, 9),
                                             (201, 63)])
    def test_set_padding_bit_in_third_block_rejected(self, length, bit):
        # bit `bit` of the last word lies past the last reading
        s = sched(0.3, n_steps=length - 1)
        blocks = list(sample_trajectories(s, 3 * 4096 + 10, seed=6))
        blocks[2][5, -1] |= np.uint64(1) << np.uint64(bit)
        with pytest.raises(ValueError, match="padding bits"):
            estimate_force_statistics(blocks, s, f0=1.0)

    @pytest.mark.parametrize("nu_tau, n_steps, max_lag", [(0.1, 200, None), (1.0, 63, 17)])
    def test_block_split_does_not_change_results(self, nu_tau, n_steps, max_lag):
        # one block, the sampler's 4096-row blocks, and uneven splits
        s = sched(nu_tau, n_steps=n_steps)
        words = np.concatenate(list(sample_trajectories(s, 10_001, seed=9)))
        splits = [[words], list(sample_trajectories(s, 10_001, seed=9)),
                  np.split(words, [1, 4096]), np.split(words, [1, 2, 9999]),
                  list(words[:, None, :])]
        results = [estimate_force_statistics(blocks, s, f0=0.7, max_lag=max_lag)
                   for blocks in splits]
        for stats in results[1:]:
            for name in ("time", "mean", "mean_stderr", "lag_steps", "lag_time", "corr",
                         "corr_stderr"):
                assert np.array_equal(getattr(stats, name), getattr(results[0], name)), name
            assert stats.metadata == results[0].metadata

    def test_fit_recovers_analytic_rate(self):
        t = np.linspace(0.0, 10.0, 50)
        rate, amp = fit_exponential_rate(t, -3.0 * np.exp(-0.37 * t))
        assert abs(rate - 0.37) < 1e-12
        assert abs(amp - 3.0) < 1e-12

    def test_fit_rejects_sign_changes(self):
        with pytest.raises(ValueError):
            fit_exponential_rate(np.array([0.0, 1.0]), np.array([1.0, -1.0]))

    @pytest.mark.parametrize("tau", [5e-324, 1e-300, 1e300])
    def test_fit_rejects_unresolvable_times(self, tau):
        # polyfit scales the time column by its norm, which under- or
        # overflows here; it failed in LAPACK or returned rate 0
        t = tau * np.arange(20)
        with pytest.raises(ValueError, match="least-squares fit"):
            fit_exponential_rate(t, np.exp(-0.1 * np.arange(20)))


def distinct_records(readings: np.ndarray):
    """The distinct records of one block, as +/-1 rows, and their multiplicities."""
    length = readings.shape[1]
    keys, weight = measurement._distinct_records([pack_readings(readings)], length)
    return measurement.unpack_readings(keys, length), weight


class TestGroupedEstimator:
    """Each distinct record is transformed once and weighted by its count;
    the per-record FFT loop it replaced (tests/oracles.py) must give the
    same bits."""

    F0 = 1.3

    def _check(self, readings, s, max_lag=None):
        blocks = [pack_readings(readings)]
        stats = estimate_force_statistics(blocks, s, f0=self.F0, max_lag=max_lag)
        lag = int(stats.lag_steps[-1])
        count, col_sum, *sums = measurement._lag_sums(blocks, readings.shape[1], lag)
        assert count == stats.metadata["count"] == readings.shape[0]
        assert col_sum.dtype == np.int64
        assert np.array_equal(col_sum, readings.sum(axis=0, dtype=np.int64))
        assert np.array_equal(stats.mean, self.F0 * -col_sum / readings.shape[0])
        got = (*sums, stats.corr, stats.corr_stderr)
        for a, b in zip(got, per_record_force_corr(readings, self.F0, lag), strict=True):
            assert np.array_equal(a, b)

    def test_low_jump_ensemble_with_repeats(self):
        s = sched(0.05, n_steps=200)
        readings = draw(s, 9000, seed=3)
        rows, weight = distinct_records(readings)
        assert rows.shape[0] < 1000 and weight.sum() == 9000
        self._check(readings, s)

    def test_all_distinct_ensemble(self):
        s = sched(1.0, n_steps=100)
        readings = draw(s, 5000, seed=5)
        rows, weight = distinct_records(readings)
        assert rows.shape[0] == 5000 and np.all(weight == 1)
        assert np.array_equal(np.unique(rows, axis=0), np.unique(readings, axis=0))
        self._check(readings, s)

    def test_column_sums_of_an_all_distinct_ensemble(self):
        # nu tau 0.5, 200 steps: no record repeats, so every weight is 1 and
        # the column sums come from float64 products over 20,000 distinct
        # keys, exact because every partial sum is an integer below 2^53
        s = sched(0.5, n_steps=200)
        readings = draw(s, 20_000, seed=3)
        rows, weight = distinct_records(readings)
        assert rows.shape[0] == 20_000 and np.all(weight == 1)
        _, col_sum, _, _ = measurement._lag_sums(sample_trajectories(s, 20_000, seed=3), 201, 200)
        assert col_sum.dtype == np.int64
        assert np.array_equal(col_sum, readings.sum(axis=0, dtype=np.int64))

    def test_max_lag_below_steps(self):
        s = sched(0.2, n_steps=80)
        self._check(draw(s, 3000, seed=8), s, max_lag=17)

    @pytest.mark.parametrize("nu_tau", [0.3, 1.5, np.pi])
    def test_single_step_schedule(self, nu_tau):
        # N = 1, the smallest schedule: two readings a record, lags 0 and 1
        s = sched(nu_tau, n_steps=1)
        readings = draw(s, 5000, seed=4)
        assert readings.shape == (5000, 2)
        self._check(readings, s)

    @pytest.mark.parametrize("length, count", [(13, 4097), (64, 8191), (65, 5000),
                                               (201, 10001)])
    def test_record_lengths_and_ragged_counts(self, length, count):
        s = sched(0.3, n_steps=length - 1)
        self._check(draw(s, count, seed=length), s)

    @pytest.mark.parametrize("length", [13, 64, 65, 201])
    def test_last_reading_separates_groups(self, length):
        readings = np.ones((8, length), dtype=np.int8)
        readings[[1, 4, 6], -1] = -1
        rows, weight = distinct_records(readings)
        by_weight = np.argsort(weight)
        assert weight[by_weight].tolist() == [3, 5]
        assert np.array_equal(rows[by_weight], readings[[1, 0]])
        self._check(readings, sched(0.3, n_steps=length - 1))

    def test_hash_collisions_split_but_never_merge(self, monkeypatch):
        # multiplier 0 leaves only the last key word in the hash
        monkeypatch.setattr(measurement, "_HASH_MULTIPLIER", np.uint64(0))
        s = sched(0.4, n_steps=200)
        readings = draw(s, 6000, seed=12)
        self._check(readings, s)

    # a packed key holds sign bits only, so a reading that is not +/-1 is
    # refused where int8 readings are packed, before anything is summed (a
    # 127 summed would take the square root of a negative variance)
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("col, value", [(2, 0), (2, 3), (2, 127), (1, -3), (1, -128)])
    def test_bad_value_in_a_repeated_row_rejected(self, col, value):
        s = sched(0.05, n_steps=200)
        readings = draw(s, 10_000, seed=2)
        readings[0, 1::2] = -1
        readings[9000] = readings[0]
        readings[9000, col] = value
        # same sign bits as row 0, so the same group key
        assert np.array_equal(readings[9000] < 0, readings[0] < 0)
        with pytest.raises(ValueError, match="readings must be"):
            pack_readings(readings)


class TestKolmogorovDefect:
    def test_frozen_dynamics(self):
        assert kolmogorov_defect(sched(0.0), 2) <= 1e-14

    def test_positive_at_quarter_angle(self):
        assert kolmogorov_defect(sched(np.pi / 4), 2) > 0.0

    def test_two_step_closed_form(self):
        # the defect equals sin^2(nu tau) / 2 for two measurements
        for nu_tau in (0.3, 0.8, 1.2):
            got = kolmogorov_defect(sched(nu_tau), 2)
            assert abs(got - 0.5 * np.sin(nu_tau) ** 2) < 1e-12

    def test_decreasing_with_resolution(self):
        vals = [kolmogorov_defect(sched(x), 3) for x in (0.4, 0.2, 0.1, 0.05)]
        assert all(a > b > 0 for a, b in zip(vals, vals[1:]))

    def test_closed_form_matches_tail_enumeration(self):
        for n_steps in (2, 3, 4, 6, 8, 10):
            for nu_tau in (0.0, 0.05, 0.4, np.pi / 4, 1.3, 2.5):
                s = sched(nu_tau)
                got = kolmogorov_defect(s, n_steps)
                assert abs(got - kolmogorov_defect_enumerated(s, n_steps)) <= 1e-15

    def test_single_measurement_rejected(self):
        with pytest.raises(ValueError):
            kolmogorov_defect(sched(0.4), 1)
