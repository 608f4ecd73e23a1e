#!/usr/bin/env python3
"""Continuously measured Newtonian force from a two-well particle.

A fixed probe reads the force every tau; each reading projects the particle
onto a well, so the record is a +/-1 telegraph whose statistics carry a
measurement-induced (Zeno-type) decay rate Gamma = nu^2 tau / 2: measuring
more often slows the decay.  The demo samples 20k records, checks the
fitted decay rate against Gamma, and shows the resolution dependence.
The sampler yields the records in blocks of 4096, and the estimator takes
them one block at a time, so the ensemble is never held in memory whole.
"""

from gravcat.measurement import (
    MeasurementSchedule,
    ProbeGeometry,
    estimate_force_statistics,
    fit_exponential_rate,
    force_amplitude,
    sample_trajectories,
)

geo = ProbeGeometry(G=1.0, m=1.0, m0=1.0, L=2.0, y=1.0)
f0 = force_amplitude(geo)
print(f"force amplitude f0 = {f0:.6f} for wells split by L = {geo.L}, probe at y = {geo.y}\n")

sched = MeasurementSchedule(tau=1.0, n_steps=200, nu=0.1)
print(f"schedule: tau = {sched.tau}, N = {sched.n_steps}, nu tau = {sched.nu * sched.tau}")
print(f"per-step flip probability sin^2(nu tau / 2) = {sched.flip_probability:.6f}")
print(f"continuum decay rate Gamma = nu^2 tau / 2 = {sched.gamma:.6f}\n")

# a generator of (rows, 4) uint64 blocks: each record's 201 signs packed in four words
blocks = sample_trajectories(sched, 20_000, seed=11)
stats = estimate_force_statistics(blocks, sched, f0)
sel = stats.lag_steps >= 1
rate_corr, amp_corr = fit_exponential_rate(stats.lag_time[sel], stats.corr[sel])
rate_mean, amp_mean = fit_exponential_rate(stats.time, stats.mean)
print("Monte Carlo (20k records):")
print(f"  <F(t)>      ~ -{amp_mean:.4f} exp(-{rate_mean:.5f} t)   [Gamma = {sched.gamma:.5f}]")
print(f"  <F(t')F(t)> ~  {amp_corr:.4f} exp(-{rate_corr:.5f} |t'-t|)")
print(f"  fitted rates off Gamma by {abs(rate_mean - sched.gamma) / sched.gamma:.2%} "
      f"and {abs(rate_corr - sched.gamma) / sched.gamma:.2%}\n")

print("measuring more often (smaller tau at fixed nu) freezes the particle:")
for tau in (1.0, 0.5, 0.25):
    s = MeasurementSchedule(tau=tau, n_steps=100, nu=0.1)
    print(f"  tau = {tau:5.2f}: Gamma = {s.gamma:.6f}")
