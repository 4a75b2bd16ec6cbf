"""Quantum Cramer-Rao bounds for optical transmission estimation.

Gaussian probe states (coherent, bright single- and two-mode squeezed)
and Fock states through lossy channels: closed-form and general QFI,
a truncated Fock-basis oracle, and measurement strategies (intensity,
gain-optimized intensity difference) that saturate the bound.
"""

from .gaussian import (
    ChannelConfig,
    ComplexAmplitude,
    GaussianState,
    Moments,
    SqueezeSpec,
    StateKind,
    StateSpec,
    apply_channel,
    apply_loss,
    make_bsmss,
    make_btmss,
    make_coherent,
    make_source,
    photon_moments,
    symplectic_eigenvalues,
)
from .measurement import (
    MCConfig,
    MCResult,
    MeasurementPlan,
    Sampler,
    Strategy,
    diff_variance,
    intensity_stats,
    mc_estimate,
    optimal_gain,
    transmission_var_diff,
    transmission_var_intensity,
)
from .qfi import (
    EstimationReport,
    ParamFamily,
    QFIMethod,
    bright_limit_threshold,
    fisher_max,
    fock_qfi_lossy,
    h_factor,
    lambda_curve,
    lambda_lossy,
    lambda_pure,
    lossy_symplectic_closed_form,
    qfi_btmss_full,
    qfi_gaussian,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
