#!/usr/bin/env python3
"""Quantum oscillator probe of the two-well particle.

The well qubit couples to an oscillator through the Newtonian force
(coupling g sigma_3 (a + a^dag), deep-strong regime g > omega).  With
negligible tunneling the dynamics is exactly a displaced rotation: each
well drags the oscillator around its own phase-space circle, producing
pointer coherent states at +/- zeta_0 that entangle with the wells.

The demo prints the pointer path and purity of the reduced oscillator
state, the distinguishability condition, and then the tunneling-induced
pointer swap -- contrasting the bare first-order prediction sin^2(nu t)
with exact propagation, which oscillates at the polaron-dressed rate
nu exp(-2 |zeta_0|^2).
"""

import numpy as np

from gravcat.fock import coherent_state
from gravcat.jc import (
    JCParams,
    distinguishability,
    evolve_rows,
    pointer_path,
    pointer_state,
    reduced_purity,
)

dim = 64
params = JCParams(nu=0.01, omega=1.0, g=2.0)
print(f"deep strong coupling: g/omega = {params.g / params.omega}, "
      f"zeta_0 = {params.zeta0}\n")

print("== entangled pointer dynamics (balanced wells, vacuum start) ==")
half = coherent_state(dim, 0.0) / np.sqrt(2.0)
frozen = JCParams(nu=0.0, omega=params.omega, g=params.g)  # no tunneling
omega_ts = np.linspace(0.0, 2.0 * np.pi, 9)
rows = evolve_rows(frozen, dim, np.concatenate([half, half]), omega_ts / params.omega)
purities = reduced_purity(rows[:, :dim], rows[:, dim:])
print("  omega t, |zeta(t)|, reduced purity")
for omega_t, pur in zip(omega_ts, purities):
    print(f"  {omega_t:7.3f}  {abs(pointer_path(params, omega_t)):7.4f}  {pur:7.4f}")
print("  -> purity dips to ~1/2 when the pointers separate: the oscillator")
print("     records which well the particle occupies.\n")

rep = distinguishability(params)
print("== probe quality ==")
print(f"  pointer overlap |<zeta_0|-zeta_0>|^2 = {rep['overlap']:.3e} "
      f"(threshold {rep['threshold']})")
print(f"  omega^3 = {rep['omega_cubed']:.3g} vs coupling scale "
      f"{rep['coupling_scale']:.3g}: probe_ok = {rep['probe_ok']}\n")

print("== tunneling-induced pointer swap ==")
nu_eff = params.nu * np.exp(-2.0 * abs(params.zeta0) ** 2)
print(f"  bare rate nu = {params.nu}, dressed rate nu exp(-2 |zeta_0|^2) = {nu_eff:.3e}")
times = np.linspace(0.0, np.pi / params.nu, 9)
amp = evolve_rows(params, dim, pointer_state(params, dim, +1), times) @ (
    pointer_state(params, dim, -1).conj())
p = np.abs(amp) ** 2
print("  nu t, exact swap probability, sin^2(nu t), sin^2(nu_eff t)")
for t, pe in zip(times, p):
    print(f"  {params.nu * t:5.3f}  {pe:10.3e}  {np.sin(params.nu * t) ** 2:7.4f}  "
          f"{np.sin(nu_eff * t) ** 2:10.3e}")
print("  -> the exact dynamics follows the dressed rate: the first-order")
print("     sin^2(nu t) prediction misses the displacement dressing of the")
print("     tunneling matrix element (see README, physics checkpoints).")
