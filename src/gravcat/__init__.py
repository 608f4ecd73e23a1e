"""gravcat: numerics for a gravitational two-state (cat-state) system.

Library layout:

- two_state: closed-form qubit dynamics and well-density correlations
- fock: truncated oscillator space, displacement and coherent states
- states: Gaussian and cat wave packets, sampling profiles
- density: mass-density correlators, noise kernel, phase-space evaluation
- wigner: numerical Wigner transform on rectangular grids
- histories: decoherence functional and multi-time record probabilities
- measurement: continuously measured Newtonian force (records, statistics)
- jc: oscillator probe (deep-strong-coupling dynamics, pointer states)
- harness / cli: reproducible named experiments with manifests

Import names from their modules (`from gravcat.fock import FockSpace`);
the package itself loads none of them, so a CLI run imports only the
modules of the experiment it runs.
"""

__version__ = "0.1.0"
