"""Intensity measurements saturate the transmission-estimation bound.

For each probe, compares the error-propagated variance of the practical
measurement the probe picks (direct intensity, or the gain-optimized
intensity difference for the two-mode probe) against the quantum
Cramer-Rao bound.  The ratio is 1 everywhere -- including with losses.

Run:  python3 demos/measurement_saturation.py
"""

import numpy as np

from qcrb_lab import ChannelConfig, ComplexAmplitude, SqueezeSpec, StateKind, StateSpec
from qcrb_lab.measurement import (
    diff_variance,
    optimal_gain,
    source_moments,
    transmission_var,
)
from qcrb_lab.qfi import lambda_lossy

ch = ChannelConfig(T=0.6, T_p=0.9, eta_p=0.98, eta_a=0.98)
alpha = ComplexAmplitude(1e3)
probes = [
    ("coherent / intensity", StateSpec(StateKind.COHERENT, alpha=alpha)),
    (
        "bSMSS    / intensity",
        StateSpec(StateKind.BSMSS, alpha=alpha, squeeze=SqueezeSpec(s=1.5)),
    ),
    ("Fock(20) / intensity", StateSpec(StateKind.FOCK, fock_n=20)),
    (
        "bTMSS    / opt. diff",
        StateSpec(
            StateKind.BTMSS, alpha=alpha, squeeze=SqueezeSpec(s=1.5, theta=np.pi)
        ),
    ),
]

print(f"channel: T={ch.T}, T_p={ch.T_p}, eta_p={ch.eta_p}, eta_a={ch.eta_a}\n")
print("probe / strategy          delta^2(T)        QCRB          ratio")
for name, spec in probes:
    rep = lambda_lossy(spec, ch)
    var = transmission_var(spec, ch)
    print(f"{name}   {var:.6e}  {rep.qcrb:.6e}  {var / rep.qcrb:12.9f}")

# the electronic gain matters: sweep it around the optimum
spec = probes[3][1]
m0 = source_moments(spec)
g_opt = optimal_gain(m0, ch)
print(f"\nintensity-difference variance vs gain (optimum g = {g_opt:.4f}):")
for g in np.linspace(0.5 * g_opt, 1.5 * g_opt, 7):
    marker = "  <-- optimum" if abs(g - g_opt) < 1e-9 else ""
    print(f"  g = {g:7.4f}   var = {diff_variance(m0, ch, g):.6e}{marker}")
