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
    make_bsmss,
    make_btmss,
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
    mc_estimate,
    optimal_gain,
    strategy_for,
    transmission_var,
)
from .qfi import (
    EstimationReport,
    ParamFamily,
    QFIMethod,
    fisher_max,
    fock_qfi_lossy,
    h_factor,
    lambda_curve,
    lambda_lossy,
    lossy_symplectic_closed_form,
    qfi_btmss_full,
    qfi_gaussian,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
