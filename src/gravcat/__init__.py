"""gravcat: numerics for a gravitational two-state (cat-state) system.

Library layout:

- two_state: closed-form well-density means and two-time correlations
- fock: truncated oscillator space, displacement and coherent states
- states: Gaussian and cat wave packets as Gaussian terms, Gaussian sampling
- density: smeared mass-density mean and correlators, fluctuation ratio
- wigner: closed-form Wigner function on rectangular grids
- histories: closed-form marginalization defect of two-time records
- measurement: continuously measured Newtonian force (sampler, estimators)
- jc: oscillator probe (exact and first-order pointer-swap dynamics)
- harness / cli: reproducible named experiments with manifests

Library values are plain numpy arrays: operators (D, D), Fock states
(D,), qubit-oscillator states (2D,) and force records in uint64 blocks of
packed sign bits; a Fock cutoff is the integer D.  Every definition here,
down to the methods of its classes, is reached by a CLI run; the
independent routes that check them live in `tests/oracles.py`.  Import names from their modules
(`from gravcat.fock import displacement`); the package itself loads none of
them, so a CLI run imports only the modules of the experiment it runs.
"""

__version__ = "0.1.0"
