"""Monte Carlo check of the closed-form estimator variances.

Draws simulated detector outcomes, inverts the mean response to estimate
the transmission, and compares the empirical estimator variance with the
closed form.  Seeded and reproducible; the z-score should sit within a
few standard errors.

Run:  python3 demos/monte_carlo.py
"""

import numpy as np

from qcrb_lab import ChannelConfig, ComplexAmplitude, SqueezeSpec, StateKind, StateSpec
from qcrb_lab.measurement import (
    MCConfig,
    MeasurementPlan,
    Sampler,
    mc_estimate,
)

TRIALS = 50_000

runs = [
    (
        "coherent, exact Poisson counts",
        StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(100.0)),
        ChannelConfig(T=0.5),
        MeasurementPlan(),
        Sampler.EXACT,
    ),
    (
        "Fock n=20, exact binomial counts",
        StateSpec(StateKind.FOCK, fock_n=20),
        ChannelConfig(T=0.5, T_p=0.9, eta_p=0.98),
        MeasurementPlan(),
        Sampler.EXACT,
    ),
    (
        "bright bTMSS, optimized difference",
        StateSpec(
            StateKind.BTMSS,
            alpha=ComplexAmplitude(1e3),
            squeeze=SqueezeSpec(s=1.0, theta=np.pi),
        ),
        ChannelConfig(T=0.5, T_p=0.95, eta_p=0.98, eta_a=0.96),
        MeasurementPlan(),
        Sampler.GAUSSIAN_APPROX,
    ),
]

print(f"{TRIALS} trials per run, seed 42\n")
for name, spec, ch, plan, sampler in runs:
    res = mc_estimate(spec, ch, plan, MCConfig(trials=TRIALS, seed=42, sampler=sampler))
    print(name)
    print(f"  empirical var(T^): {res.empirical_var_T:.6e}")
    print(f"  closed form:       {res.closed_form_var_T:.6e}")
    print(f"  z-score:           {res.z_score:+.2f}\n")

# gain optimization is visible in the raw variance, not just the formulas
spec = runs[2][1]
ch = runs[2][2]
print("bTMSS difference measurement: optimized gain vs no subtraction")
for label, plan in [
    ("g = g_opt", MeasurementPlan()),
    ("g = 0    ", MeasurementPlan(gain=0.0)),
]:
    res = mc_estimate(spec, ch, plan, MCConfig(trials=TRIALS, seed=7))
    print(f"  {label}  empirical var(T^) = {res.empirical_var_T:.6e}")
