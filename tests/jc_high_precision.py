"""The default jc-suite swap probability and purity at 30 digits.

    PYTHONPATH=src python tests/jc_high_precision.py

Builds the two parity blocks of H in mpmath from the float parameters of
the default config (g/omega 2, nu/omega 0.01, D 64, 61 samples over one
dressed half period), diagonalises them with `mpmath.eigsy`, takes the
phases E t in mpmath at the float sample times, and evolves the float
pointer state.  Prints how far `p_exact` and `purity` of the block route
(`jc.evolve_rows`) and of the full complex 2D x 2D route
(`oracles.full_matrix_rows`) lie from these values.  At omega t up to
9.4e5 both are set by the rounding of the doublet splitting 2 nu e^{-8}
in double precision.  Not a pytest module: it takes about 15 seconds.
"""

import numpy as np
from mpmath import mp

from gravcat.harness import resolve_config
from gravcat.jc import JCParams, evolve_rows, pointer_state, reduced_purity
from oracles import full_matrix_rows

mp.dps = 30


def mp_rows(params: JCParams, d: int, state: np.ndarray, times: np.ndarray) -> list:
    """e^{-i H t} state for each t, each sector evolved in mpmath."""
    alt = [(-1) ** n for n in range(d)]
    sectors = []
    for parity in (1, -1):
        block = mp.zeros(d, d)
        for n in range(d):
            block[n, n] = mp.mpf(params.omega) * n + mp.mpf(params.nu) * parity * alt[n]
            if n:
                block[n - 1, n] = block[n, n - 1] = mp.mpf(params.g) * mp.sqrt(n)
        energies, vecs = mp.eigsy(block)
        coeffs = [(mp.mpc(state[n]) + parity * alt[n] * mp.mpc(state[d + n])) / mp.sqrt(2)
                  for n in range(d)]
        coeffs = [mp.fsum(vecs[n, k] * coeffs[n] for n in range(d)) for k in range(d)]
        rows = []
        for t in times:
            phased = [mp.expj(-energies[k] * mp.mpf(t)) * coeffs[k] for k in range(d)]
            rows.append([mp.fsum(vecs[n, k] * phased[k] for k in range(d)) for n in range(d)])
        sectors.append(rows)
    return [[(a + b) / mp.sqrt(2) for a, b in zip(even, odd)]
            + [alt[n] * (even[n] - odd[n]) / mp.sqrt(2) for n in range(d)]
            for even, odd in zip(*sectors)]


def swap_and_purity(row: list, target: list, d: int) -> tuple[float, float]:
    up, down = row[:d], row[d:]
    amp = mp.fsum(mp.conj(t) * x for t, x in zip(target, row))
    n_up, n_down = (mp.fsum(abs(x) ** 2 for x in part) for part in (up, down))
    cross = mp.fsum(mp.conj(a) * b for a, b in zip(up, down))
    return float(abs(amp) ** 2), float(n_up**2 + n_down**2 + 2 * abs(cross) ** 2)


def main() -> None:
    p = resolve_config("jc-suite", {}).parameters
    omega = p["jc.omega"]
    params = JCParams(nu=p["jc.nu_over_omega"] * omega, omega=omega,
                      g=p["jc.g_over_omega"] * omega)
    d = p["jc.dim"]
    t_max = 0.5 * np.pi * np.exp(2.0 * params.zeta0**2) / params.nu
    times = np.linspace(0.0, t_max, p["jc.samples"])
    initial, target = pointer_state(params, d, +1), pointer_state(params, d, -1)
    exact = np.array([swap_and_purity(row, [mp.mpc(x) for x in target], d)
                      for row in mp_rows(params, d, initial, times)])
    for name, rows in (("parity blocks", evolve_rows(params, d, initial, times)),
                       ("full 2D x 2D", full_matrix_rows(params, d, initial, times))):
        swap = np.abs(rows @ target.conj()) ** 2
        purity = reduced_purity(rows[:, :d], rows[:, d:])
        print(f"{name}: max |p_exact - mp| = {np.max(np.abs(swap - exact[:, 0])):.2e}, "
              f"max |purity - mp| = {np.max(np.abs(purity - exact[:, 1])):.2e}")


if __name__ == "__main__":
    main()
