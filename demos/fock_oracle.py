"""Cross-check the Gaussian formulas against a brute-force Fock oracle.

Expands each state in a truncated number basis, applies the exact loss
channel to its Kraus factor W (rho = W W^+), drops the columns of W that
carry neither weight nor T-derivative, and computes the QFI on the
support of rho, found by the thin SVD of W without forming rho.
Slow and limited to a few photons, which is exactly why it makes a
trustworthy referee.

Run:  python3 demos/fock_oracle.py
"""

import numpy as np

from qcrb_lab import ChannelConfig, ComplexAmplitude, SqueezeSpec, StateKind, StateSpec
from qcrb_lab import fock
from qcrb_lab.qfi import fisher_max

T = 0.5
ch = ChannelConfig(T=T)

print(f"QFI at T = {T}, lossless channel\n")
print("state                    oracle          closed form     rel. err")

cases = [
    ("Fock n=1", StateSpec(StateKind.FOCK, fock_n=1), 4, fisher_max(1, T)),
    ("Fock n=5", StateSpec(StateKind.FOCK, fock_n=5), 8, fisher_max(5, T)),
    (
        "coherent |a|^2=4",
        StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(2.0)),
        30,
        4.0 / T,
    ),
    (
        "vTMSS s=0.6",
        StateSpec(StateKind.BTMSS, squeeze=SqueezeSpec(s=0.6)),
        28,
        fisher_max(np.sinh(0.6) ** 2, T),
    ),
]
for name, spec, n_max, want in cases:
    got = fock.oracle_qfi(
        lambda t: fock.channel_density(spec, ch, n_max=n_max, T=t), T
    )
    print(f"{name:22s} {got:15.8f} {want:15.8f}   {abs(got - want) / want:.2e}")

# with losses the Fock density matrix is binomial-diagonal, rho_k = C(n,k) p^k (1-p)^(n-k)
# with p = T_p T eta_p, so the QFI is the explicit sum of (d rho_k / dT)^2 / rho_k --
# compare it against the oracle's SLD sum
lossy = ChannelConfig(T=T, T_p=0.9, eta_p=0.95)
n = 6
got = fock.oracle_qfi(
    lambda t: fock.channel_density(
        StateSpec(StateKind.FOCK, fock_n=n), lossy, n_max=n + 2, T=t
    ),
    T,
)
p = lossy.probe_transmission
rho = fock.binomial_table(n, p)[n]
drho = rho * (np.arange(n + 1) - n * p) / (p * (1.0 - p)) * (lossy.T_p * lossy.eta_p)
want = float(np.sum(drho**2 / rho))
print(f"\nlossy Fock n={n}: oracle {got:.8f} vs binomial sum {want:.8f}")
