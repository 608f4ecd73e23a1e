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
"""

__version__ = "0.1.0"

from .fock import (
    FockOperator,
    FockSpace,
    FockVector,
    TruncationInadequateWarning,
    coherent_state,
    displacement,
    ladder_operators,
    number_operator,
    vacuum,
    vacuum_truncation_leak,
)
from .states import BoxSampling, Cat1D, CatState, Gaussian1D, GaussianState, SmearingParams
from .two_state import (
    QubitState,
    SmearedDensityParams,
    TunnelingParams,
    heisenberg_projector,
    mean_density,
    tunneling_hamiltonian,
    tunneling_propagator,
    two_time_quantum_corr,
    two_time_statistical_corr,
)
from .wigner import GridAliasingError, PhaseSpaceGrid, wigner_function

__all__ = [name for name in dir() if not name.startswith("_")]
