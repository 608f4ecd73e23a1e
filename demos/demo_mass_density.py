#!/usr/bin/env python3
"""Mass-density fluctuations and position histories of a free particle.

For a zero-mean-momentum packet the smeared mass density is static,
m |psi(r)|^2, but its fluctuations are not small: the equal-point connected
correlation is of the order of the mean squared.  The demo computes the
Wigner function of a Gaussian and of a cat state (interference fringes)
in closed form, evaluates the smeared moments through phase space (each a
Gaussian integral over the state's Wigner terms), prints the relative
fluctuation profile, shows where the smeared two-point function of a pair
of position records is supported (the time-of-flight momentum locus), and
prints the marginalization defect that stops two-time position records
from forming one classical stochastic process.
"""

import numpy as np

from gravcat.density import density_mean, fluctuation_ratio, smeared_corr_quadrature
from gravcat.histories import additivity_defect, partition_points
from gravcat.states import Packet, SmearingParams
from gravcat.wigner import wigner_function

print("== Wigner functions ==")
gauss = Packet(1.0, [(0.0, 0.0, 0.0)])
grid = wigner_function(gauss.axis_state(0))
print(f"  Gaussian: grid {grid.x.size} x {grid.p.size}, "
      f"normalization {grid.normalization():.9f}")

cat = Packet(0.5, [(2.0, 0.0, 0.0), (-2.0, 0.0, 0.0)])  # L = 4
cgrid = wigner_function(cat.axis_state(0))
i0 = int(np.argmin(np.abs(cgrid.x)))
slice_p = cgrid.values[i0]
print(f"  cat: midpoint fringe extremes {slice_p.min():+.3f} .. {slice_p.max():+.3f} "
      f"(negative values = interference)\n")

print("== static smeared mean through phase space ==")
for x in (0.0, 1.0, 2.0):
    # the free-streamed Wigner line, m |psi(x, t)|^2 of the evolved packet
    ps = density_mean(gauss.axis_state(0), x, 0.0, m=1.0)
    direct = abs(gauss.axis_state(0).psi(x)) ** 2
    print(f"  x = {x:4.1f}: phase-space mean {ps:.8f}, m |psi|^2 = {direct:.8f}")
print()

print("== relative fluctuation size C(r) ==")
smear = SmearingParams(s_x=0.5)
print(f"  sampling width s_x = {smear.s_x}, per-axis scale ell = {smear.ell:.4f}")
for x in (0.0, 0.5, 1.0, 1.5):
    c = fluctuation_ratio(gauss, smear, (x, 0.0, 0.0))
    print(f"  x = {x:4.1f}: C = {c:8.3f}")
print("  -> order unity and growing where the density thins: single-particle")
print("     density fluctuations are never negligible.\n")

print("== smeared two-point function support (time-of-flight locus) ==")
state = Packet(0.25, [0.0])
sampling = SmearingParams(7.0)
t2, t = 100.0, 200.0
on = abs(smeared_corr_quadrature(state, sampling, 0.5 * t, t, 0.5 * t2, t2))
off = abs(smeared_corr_quadrature(state, sampling, 0.5 * t + 70.0, t, 0.5 * t2, t2))
print(f"  records on the locus r/t = r2/t2:   |corr| = {on:.3e}")
print(f"  records off the locus (shift +70):  |corr| = {off:.3e}")
print("  -> only record pairs consistent with one free flight correlate;")
print("     their weight is the Wigner function at p = m (r - r2)/(t - t2).\n")

print("== marginalization defect of two-time position records ==")
cat1d = cat.axis_state(0)
comb_sampling = SmearingParams(0.125)
comb = partition_points(0.0, 3.0, comb_sampling.s_x)
for dt, mass in ((0.4, 1.0), (0.1, 1.0), (0.1, 1e14)):
    defect = additivity_defect(cat1d, comb_sampling, 0.1, 0.1 + dt, comb, [0.0, 0.5], mass)
    print(f"  dt = {dt:3.1f}, m = {mass:7.1e}: defect = {defect:.3e}")
print("  -> marginalizing the first sampling misses the one-time probability")
print("     unless the mass is so heavy that sampling commutes with the flight.")
