"""Compare the photon-normalized estimation bound of the four probe states.

Sweeps the system transmission and prints Lambda(T) = QCRB * n_photons for
coherent, bright two-mode squeezed, bright single-mode squeezed, and Fock
probes.  Smaller is better; the Fock curve T - T^2 is the ultimate limit.

Run:  python3 demos/probe_comparison.py
"""

import numpy as np

from qcrb_lab import ChannelConfig, ComplexAmplitude, SqueezeSpec, StateKind, StateSpec
from qcrb_lab.qfi import lambda_curve

S = 2.0
ALPHA = ComplexAmplitude(1e3)  # bright seed, |alpha|^2 = 1e6 photons

probes = {
    "coherent": StateSpec(StateKind.COHERENT, alpha=ALPHA),
    "bTMSS": StateSpec(
        StateKind.BTMSS, alpha=ALPHA, squeeze=SqueezeSpec(s=S, theta=np.pi)
    ),
    "bSMSS": StateSpec(StateKind.BSMSS, alpha=ALPHA, squeeze=SqueezeSpec(s=S)),
    "Fock": StateSpec(StateKind.FOCK, fock_n=1),
}

print(f"Lambda(T) at squeezing s = {S} (lossless channel)\n")
header = "T".rjust(6) + "".join(name.rjust(12) for name in probes)
print(header)
print("-" * len(header))
for T in np.arange(0.1, 1.0, 0.1):
    cells = [f"{lambda_curve(spec, ChannelConfig(), T):12.6f}" for spec in probes.values()]
    print(f"{T:6.2f}" + "".join(cells))

# The payoff shows up at high transmission: how many more photons does
# each probe need to match a single-photon Fock measurement at T = 0.99?
T = 0.99
lam_fock = lambda_curve(probes["Fock"], ChannelConfig(), T)
print(f"\nphoton cost relative to the Fock probe at T = {T}:")
for name in ("coherent", "bTMSS", "bSMSS"):
    ratio = lambda_curve(probes[name], ChannelConfig(), T) / lam_fock
    print(f"  {name:9s} needs {ratio:8.3f}x the photons")
