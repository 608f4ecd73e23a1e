"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 5 checks the probe's Rabi oscillations at the
polaron-dressed rate nu exp(-2 |zeta_0|^2), the rate exact propagation
runs at; the first-order bare rate nu holds only when 2 |zeta_0|^2 << 1
(see README).
"""

import itertools
import time

import numpy as np
from scipy.linalg import expm

from gravcat import jc
from gravcat import measurement as ms
from gravcat.density import density_mean
from gravcat.fock import coherent_state
import oracles
from oracles import BoxSampling, cat, exact_propagate, gaussian, hamiltonian_step_count


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_1_exponential_force_law():
    start = time.perf_counter()
    sched = ms.MeasurementSchedule(tau=1.0, n_steps=200, nu=0.1)
    f0 = 1.0
    stats = ms.estimate_force_statistics(ms.sample_trajectories(sched, 100_000, seed=20240),
                                         sched, f0)

    sel = stats.lag_steps >= 1
    rate_corr, amp_corr = ms.fit_exponential_rate(stats.lag_time[sel], stats.corr[sel])
    rate_mean, amp_mean = ms.fit_exponential_rate(stats.time, stats.mean)
    elapsed = time.perf_counter() - start

    dev_corr = abs(rate_corr - sched.gamma) / sched.gamma
    dev_mean = abs(rate_mean - sched.gamma) / sched.gamma
    ok = (
        dev_corr < 0.05
        and dev_mean < 0.05
        and abs(amp_corr - f0**2) < 0.05
        and abs(amp_mean - f0) < 0.05
        and elapsed <= 60.0
    )
    assert report(
        1,
        ok,
        f"fitted decay rates within 5% of Gamma = nu^2 tau / 2 "
        f"(corr dev {dev_corr:.2%}, mean dev {dev_mean:.2%}, {elapsed:.1f} s)",
    )


def test_criterion_2_exact_enumeration_oracle():
    start = time.perf_counter()
    worst_total = worst_g = worst_mean = worst_corr = 0.0
    f0 = 1.0
    for nu_tau in (0.1, 0.5, 1.0):
        sched = ms.MeasurementSchedule(tau=1.0, n_steps=12, nu=nu_tau)
        p_flip = sched.flip_probability

        total = 0.0
        for flips in itertools.product((0, 1), repeat=12):
            n = sum(flips)
            total += p_flip**n * (1 - p_flip) ** (12 - n)
        worst_total = max(worst_total, abs(total - 1.0))

        for m in range(11):
            sums = {1: 0.0, -1: 0.0}
            mean_acc = 0.0
            for flips in itertools.product((0, 1), repeat=m):
                n = sum(flips)
                prob = p_flip**n * (1 - p_flip) ** (m - n)
                sums[(-1) ** n] += prob
                mean_acc += prob * (-f0) * (-1) ** n
            worst_g = max(
                worst_g,
                abs(sums[1] - oracles.conditional_g(1, 1, m, sched)),
                abs(sums[-1] - oracles.conditional_g(-1, 1, m, sched)),
            )
            worst_mean = max(
                worst_mean, abs(mean_acc - oracles.force_mean_steps(m, sched, f0))
            )
        for m1, m2 in ((0, 4), (2, 7), (3, 10)):
            acc = 0.0
            for flips in itertools.product((0, 1), repeat=m2):
                n = sum(flips)
                prob = p_flip**n * (1 - p_flip) ** (m2 - n)
                acc += prob * f0**2 * (-1) ** sum(flips[:m1]) * (-1) ** n
            worst_corr = max(worst_corr, abs(acc - oracles.force_corr_steps(m1, m2, sched, f0)))
    elapsed = time.perf_counter() - start
    ok = max(worst_total, worst_g, worst_mean, worst_corr) < 1e-12 and elapsed <= 10.0
    assert report(
        2,
        ok,
        f"brute-force record sums match closed forms to 1e-12 "
        f"(worst {max(worst_g, worst_mean, worst_corr):.2e}, norm defect "
        f"{worst_total:.2e}, {elapsed:.1f} s)",
    )


def test_criterion_3_non_markovianity_witness():
    sched = ms.MeasurementSchedule(tau=1.0, n_steps=30, nu=0.5)
    lag = 5
    base = oracles.force_corr_steps(0, lag, sched, 1.0, form="approximate")
    ratios = np.array(
        [
            oracles.force_corr_steps(m1, m1 + lag, sched, 1.0, form="approximate") / base
            for m1 in range(11)
        ]
    )
    deviation = float(np.max(np.abs(ratios - 1.0)))
    ok = deviation > 0.01
    assert report(
        3,
        ok,
        f"start-time-dependent prefactor of the small-angle correlation "
        f"deviates from 1 by {deviation:.1%} (> 1%) at nu tau = 0.5; the ratio is "
        f"q^m1, the approximate law's one-step probability leak",
    )


def test_criterion_4_adiabatic_propagator():
    start = time.perf_counter()
    dim = 64
    params = jc.JCParams(nu=0.0, omega=1.0, g=2.0)
    h0 = oracles.total_hamiltonian(params, dim)
    vac = np.zeros(dim, dtype=complex)
    vac[0] = 1.0
    inits = [
        jc.pointer_state(params, dim, +1),
        np.concatenate([vac, vac]) / np.sqrt(2.0),
    ]
    worst = 0.0
    for omega_t in (np.pi, 4.0 * np.pi, 10.0 * np.pi):
        closed = oracles.adiabatic_propagator(params, dim, omega_t)
        direct = expm(-1j * h0 * omega_t)
        steps = hamiltonian_step_count(params, dim, omega_t)
        for vec in inits:
            stepped = exact_propagate(params, dim, vec, omega_t, steps)
            routes = (closed @ vec, direct @ vec, stepped)
            for a, b in itertools.combinations(routes, 2):
                worst = max(worst, 1.0 - abs(np.vdot(a, b)) ** 2)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed <= 30.0
    assert report(
        4,
        ok,
        f"closed form vs matrix exponential vs stepped propagation: worst "
        f"fidelity defect {worst:.2e} at D = 64, g/omega = 2, omega t <= 10 pi "
        f"({elapsed:.1f} s)",
    )


def test_criterion_5_rabi_oscillations():
    """The pointer swap |+zeta_0, +> -> |-zeta_0, -> undergoes full-contrast
    Rabi oscillations sin^2(nu_eff t) at the dressed rate
    nu_eff = nu exp(-2 |zeta_0|^2), with a deviation that shrinks with
    nu/omega; the low doublet splitting of H is 2 nu_eff."""
    dim = 64
    devs, peaks, split_errs = [], [], []
    for nu in (0.1, 0.05, 0.025):
        params = jc.JCParams(nu=nu, omega=1.0, g=1.0)
        nu_eff = nu * np.exp(-2.0 * abs(params.zeta0) ** 2)
        times = np.linspace(0.0, np.pi / nu_eff, 17)
        p = oracles.transition_probability_series(params, dim, times)
        devs.append(float(np.max(np.abs(p - np.sin(nu_eff * times) ** 2))))
        peaks.append(float(np.max(p)))
        levels = np.linalg.eigvalsh(oracles.total_hamiltonian(params, dim))
        split_errs.append(abs((levels[1] - levels[0]) / (2.0 * nu_eff) - 1.0))
    ok = (
        devs[0] <= 0.05
        and devs[0] > devs[1] > devs[2]
        and min(peaks) >= 0.99
        and max(split_errs) <= 1e-2
    )
    assert report(
        5,
        ok,
        f"full propagation vs sin^2(nu exp(-2 |zeta_0|^2) t) for dressed "
        f"phase <= pi at g/omega = 1: deviations {[f'{d:.1e}' for d in devs]} "
        f"at nu/omega = 0.1, 0.05, 0.025 (required <= 0.05 and monotone "
        f"decreasing), min peak {min(peaks):.3f} (>= 0.99), doublet splitting "
        f"vs 2 nu exp(-2 |zeta_0|^2) within {max(split_errs):.1e} (<= 1e-2)",
    )


def test_criterion_6_cat_probe_distinguishability():
    dim = 64
    worst_overlap = 0.0
    for zeta0 in (0.5, 1.0, 1.5, 2.0):
        got = abs(np.vdot(coherent_state(dim, zeta0), coherent_state(dim, -zeta0))) ** 2
        worst_overlap = max(worst_overlap, abs(got - np.exp(-4.0 * zeta0**2)))

    worst_purity = 0.0
    w = 1.0 / np.sqrt(2.0)
    for g in (1.0, 1.5, 2.0):
        params = jc.JCParams(nu=0.0, omega=1.0, g=g)
        bound = np.exp(-4.0 * abs(params.zeta0) ** 2) + 1e-8
        for omega_t in (np.pi / 2, np.pi):
            st = oracles.evolved_cat(w, w, params, dim, omega_t)
            val = oracles.purity(oracles.reduced_oscillator_state(st))
            worst_purity = max(worst_purity, (val - 0.5) / bound)
    ok = worst_overlap < 1e-8 and worst_purity <= 1.0
    assert report(
        6,
        ok,
        f"pointer overlap matches exp(-4 |zeta_0|^2) to {worst_overlap:.2e} "
        f"(<= 1e-8); balanced-cat purity excess within its bound "
        f"(worst fraction {worst_purity:.2f})",
    )


def test_criterion_7_static_limit_density():
    worst_mean = 0.0
    m = 1.0
    for state in (gaussian(1.0, (0.0, 0.0, 0.0)), cat(0.5, (4.0, 0.0, 0.0))):
        axis = state.axis_state(0)
        for x in np.linspace(-2.0, 2.0, 9):
            # the route of the static_mean.csv column against the packet itself
            got = density_mean(axis, float(x), 0.0, m)
            expected = m * float(np.abs(axis.psi(x)) ** 2)
            worst_mean = max(worst_mean, abs(got - expected))

    box = BoxSampling(0.6)
    state = gaussian(1.0)
    worst_identity = 0.0
    for r in (0.0, 0.5, -1.0):
        second = oracles.smeared_second_moment(state, box, r, 0.3, m)
        mean = oracles.smeared_mean(state, box, r, 0.3, m)
        scale = max(abs(second), 1e-30)
        worst_identity = max(worst_identity, abs(second - (m / box.ell) * mean) / scale)
    ok = worst_mean < 1e-6 and worst_identity < 1e-10
    assert report(
        7,
        ok,
        f"smeared static mean matches m |psi|^2 to {worst_mean:.2e} (< 1e-6); "
        f"sharp-sampling second-moment identity holds to {worst_identity:.2e} "
        f"(< 1e-10)",
    )


def test_criterion_8_kolmogorov_additivity_defect():
    frozen = oracles.kolmogorov_defect(ms.MeasurementSchedule(tau=1.0, n_steps=5, nu=0.0), 3)
    vals = [
        oracles.kolmogorov_defect(ms.MeasurementSchedule(tau=1.0, n_steps=5, nu=x), 3)
        for x in (0.4, 0.2, 0.1, 0.05)
    ]
    ok = frozen <= 1e-14 and all(a > b > 0.0 for a, b in zip(vals, vals[1:]))
    assert report(
        8,
        ok,
        f"defect {frozen:.1e} at nu = 0 (<= 1e-14) and strictly decreasing "
        f"{[f'{v:.2e}' for v in vals]} over nu tau = 0.4 .. 0.05",
    )


# Criterion 9 lists no desk-scale irreproducible results; nothing to assert.
