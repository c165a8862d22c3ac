"""Monte Carlo link-level simulator for single-carrier frequency-domain
equalization over amplify-and-forward underwater acoustic relay channels.

The names below are the Python contract; every other name in the
package's modules is internal and may change without notice."""

__version__ = "0.1.0"

from .channel import SvParams, sv_profile
from .harness import (BerRecord, ExperimentResult, GridPoint, SimConfig,
                      run_ber_sweep, run_convergence, run_multirelay,
                      run_placement_sweep)

__all__ = [
    "SimConfig", "GridPoint", "BerRecord", "ExperimentResult",
    "run_ber_sweep", "run_convergence", "run_placement_sweep",
    "run_multirelay", "SvParams", "sv_profile",
]
