"""Monte Carlo link-level simulator for single-carrier frequency-domain
equalization over amplify-and-forward underwater acoustic relay channels."""

__version__ = "0.1.0"

from .channel import (SvParams, evolve_channel, freq_response, generate_channel,
                      path_gain, quantize_to_taps, sv_profile)
from .detectors import (EffectiveChannel, MlDetector, RlsState, effective_channel,
                        equalize, lms_step, mmse_weights, mrc_weights, rls_step)
from .harness import (BerRecord, ExperimentResult, GridPoint, SimConfig,
                      run_ber_sweep, run_convergence, run_multirelay,
                      run_placement_sweep, train_adaptive)
from .relay import af_gain, relay_forward, relay_receive
from .txrx import (ModulationScheme, append_cp, demodulate, modulate, unitary_fft,
                   unitary_ifft)

__all__ = [
    "SvParams", "evolve_channel", "freq_response", "generate_channel",
    "path_gain", "quantize_to_taps", "sv_profile",
    "EffectiveChannel", "MlDetector", "RlsState", "effective_channel",
    "equalize", "lms_step", "mmse_weights", "mrc_weights", "rls_step",
    "BerRecord", "ExperimentResult", "GridPoint", "SimConfig",
    "run_ber_sweep", "run_convergence", "run_multirelay",
    "run_placement_sweep", "train_adaptive",
    "af_gain", "relay_forward", "relay_receive",
    "ModulationScheme", "append_cp", "demodulate", "modulate",
    "unitary_fft", "unitary_ifft",
]
