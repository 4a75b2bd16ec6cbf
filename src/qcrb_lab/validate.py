"""Cross-method validation battery.

Checks the closed forms, the general Gaussian QFI, the Fock-basis
oracle, the measurement saturation identities, and the Monte Carlo
harness against each other at their stated tolerances.
"""

from dataclasses import dataclass

import numpy as np

from . import fock
from .gaussian import (
    ChannelConfig,
    ComplexAmplitude,
    SqueezeSpec,
    StateKind,
    StateSpec,
    apply_channel,
    make_btmss,
    make_source,
    photon_moments,
    symplectic_eigenvalues,
)
from .measurement import MCConfig, MeasurementPlan, Sampler, mc_estimate, transmission_var
from .qfi import (
    ParamFamily,
    fisher_max,
    lambda_lossy,
    lossy_symplectic_closed_form,
    qfi_btmss_full,
    qfi_gaussian,
)

T_GRID = np.arange(0.05, 0.951, 0.05)
S_GRID = [0.0, 0.5, 1.0, 1.5, 2.0]
CHANNELS = [
    dict(T_p=1.0, eta_p=1.0, eta_a=1.0),
    dict(T_p=0.9, eta_p=0.98, eta_a=0.98),
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_err: float
    tol: float

    @property
    def passed(self):
        return self.max_err <= self.tol


def _bright_specs(s):
    sq = SqueezeSpec(s=s, theta=np.pi)
    return [
        StateSpec(StateKind.BTMSS, alpha=ComplexAmplitude(1e3), squeeze=sq),
        StateSpec(StateKind.BSMSS, alpha=ComplexAmplitude(1e3), squeeze=SqueezeSpec(s=s)),
        StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(1e3)),
    ]


def check_closed_vs_gaussian():
    """Closed-form Lambda vs bright-limit general Gaussian QFI."""
    worst = 0.0
    for ch_kw in CHANNELS:
        for s in S_GRID:
            for spec in _bright_specs(s):
                for T in T_GRID:
                    ch = ChannelConfig(T=T, **ch_kw)
                    lam_closed = lambda_lossy(spec, ch).lam
                    lam_gauss = qfi_gaussian(ParamFamily(spec, ch), T, bright_limit=True).lam
                    worst = max(worst, abs(lam_closed - lam_gauss) / lam_closed)
    return CheckResult("closed_form_vs_gaussian_bright", worst, 1e-6)


def check_full_qfi_vs_btmss_closed():
    """Exact bTMSS QFI expression vs the full Gaussian formula (lossless)."""
    worst = 0.0
    cases = [
        (3.0, 1.0, 1.0, np.pi, 0.7),
        (10.0, 0.0, 1.0, 0.0, 0.5),
        (2.0, 2.0, 2.0, np.pi, 0.3),
        (0.0, 0.0, 0.8, 0.4, 0.9),
    ]
    for a, b, s, th, T in cases:
        spec = StateSpec(
            StateKind.BTMSS,
            alpha=ComplexAmplitude(a),
            beta=ComplexAmplitude(b),
            squeeze=SqueezeSpec(s=s, theta=th),
        )
        closed = qfi_btmss_full(spec.alpha, spec.beta, spec.squeeze, T)
        general = qfi_gaussian(ParamFamily(spec, ChannelConfig(T=T)), T).qfi
        worst = max(worst, abs(closed - general) / closed)
    return CheckResult("full_gaussian_vs_btmss_closed", worst, 1e-8)


def check_symplectic_closed_form():
    """Closed-form lossy eigenvalues vs numeric symplectic spectra."""
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(200):
        s = rng.uniform(0.0, 2.0)
        T, T_p, eta_p, eta_a = rng.uniform(0.05, 1.0, 4)
        ch = ChannelConfig(T=T, T_p=T_p, eta_p=eta_p, eta_a=eta_a)
        sq = SqueezeSpec(s=s, theta=rng.uniform(-np.pi, np.pi))
        state = apply_channel(
            make_btmss(ComplexAmplitude(0), ComplexAmplitude(0), sq), ch
        )
        numeric = symplectic_eigenvalues(state)
        closed = np.sort(lossy_symplectic_closed_form(sq, ch))
        worst = max(worst, float(np.max(np.abs(numeric - closed))))
    return CheckResult("lossy_symplectic_closed_vs_numeric", worst, 1e-10)


def check_measurement_saturation():
    """Delta^2T * n_r from the measurements equals the lossy Lambda."""
    worst = 0.0
    for ch_kw in CHANNELS:
        for s in S_GRID:
            for T in T_GRID:
                ch = ChannelConfig(T=T, **ch_kw)
                for spec in [*_bright_specs(s), StateSpec(StateKind.FOCK, fock_n=20)]:
                    rep = lambda_lossy(spec, ch)
                    lam_meas = transmission_var(spec, ch) * rep.n_resource
                    worst = max(worst, abs(lam_meas - rep.lam) / rep.lam)
    return CheckResult("measurement_saturation_identity", worst, 1e-10)


def check_fock_oracle_qfi():
    """Fock-oracle QFI vs closed forms at small photon number.

    fock.oracle_qfi: one density matrix per point, its exact T-derivative
    from the loss generator and one eigendecomposition (real at every
    point here: Fock, real-alpha coherent and theta = 0 vacuum TMSS).
    """
    worst = 0.0
    for T in (0.2, 0.5, 0.8):
        ch = ChannelConfig(T=T)
        for n in (1, 2, 5):
            spec = StateSpec(StateKind.FOCK, fock_n=n)
            got = fock.oracle_qfi(
                lambda t: fock.channel_density(spec, ch, n_max=n + 2, T=t), T
            )
            want = fisher_max(n, T)
            worst = max(worst, abs(got - want) / want)
        coh = StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(2.0))
        got = fock.oracle_qfi(
            lambda t: fock.channel_density(coh, ch, n_max=30, T=t), T
        )
        worst = max(worst, abs(got - 4.0 / T) / (4.0 / T))
        vt = StateSpec(StateKind.BTMSS, squeeze=SqueezeSpec(s=0.6))
        got = fock.oracle_qfi(
            lambda t: fock.channel_density(vt, ch, n_max=28, T=t), T
        )
        want = fisher_max(np.sinh(0.6) ** 2, T)
        worst = max(worst, abs(got - want) / want)
    return CheckResult("fock_oracle_qfi_vs_closed", worst, 1e-5)


def check_moments_vs_fock():
    """Gaussian Wick moments vs direct Fock-basis summation."""
    specs = [
        StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(1.5, 0.3)),
        StateSpec(
            StateKind.BSMSS,
            alpha=ComplexAmplitude(1.0, 0.2),
            squeeze=SqueezeSpec(s=0.5, theta=0.7),
        ),
        StateSpec(
            StateKind.BTMSS,
            alpha=ComplexAmplitude(0.8),
            beta=ComplexAmplitude(0.5, 1.0),
            squeeze=SqueezeSpec(s=0.6, theta=1.1),
        ),
        StateSpec(StateKind.BTMSS, squeeze=SqueezeSpec(s=0.8)),
    ]
    worst = 0.0
    for spec in specs:
        gm = photon_moments(make_source(spec))
        vec = fock.build_fock_state(spec, n_max=40)
        om = fock.count_moments(fock.thinned_probs(vec))
        for field in ("mean_p", "var_p", "mean_a", "var_a", "cov_pa"):
            worst = max(worst, abs(getattr(gm, field) - getattr(om, field)))
    return CheckResult("gaussian_moments_vs_fock_oracle", worst, 1e-8)


def check_derivatives():
    """Analytic channel derivatives vs Richardson finite differences."""
    worst = 0.0
    specs = _bright_specs(1.0)
    for ch_kw in CHANNELS:
        for T in (0.1, 0.5, 0.9):
            ch = ChannelConfig(T=T, **ch_kw)
            for spec in specs:
                fam = ParamFamily(spec, ch)
                sd_a, dd_a = fam.derivatives_at(T)
                sd_f, dd_f = fam.derivatives_fd(T)
                scale = max(np.max(np.abs(sd_a)), np.max(np.abs(dd_a)))
                err = max(np.max(np.abs(sd_a - sd_f)), np.max(np.abs(dd_a - dd_f)))
                worst = max(worst, err / scale)
    return CheckResult("analytic_vs_fd_derivatives", worst, 1e-7)


def check_mc_zscores():
    """|z| < 3 in at least 99% of a 100-configuration battery."""
    sq = SqueezeSpec(s=1.0, theta=np.pi)
    configs = []
    for i, T in enumerate(np.linspace(0.15, 0.9, 25)):
        configs.append(
            (
                StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(200.0)),
                ChannelConfig(T=T),
                Sampler.GAUSSIAN_APPROX,
                1000 + i,
            )
        )
        configs.append(
            (
                StateSpec(StateKind.BTMSS, alpha=ComplexAmplitude(200.0), squeeze=sq),
                ChannelConfig(T=T, T_p=0.95, eta_p=0.97, eta_a=0.96),
                Sampler.GAUSSIAN_APPROX,
                2000 + i,
            )
        )
        configs.append(
            (
                StateSpec(StateKind.FOCK, fock_n=12),
                ChannelConfig(T=T, T_p=0.9, eta_p=0.95),
                Sampler.EXACT,
                3000 + i,
            )
        )
        configs.append(
            (
                StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(60.0)),
                ChannelConfig(T=T, eta_p=0.9),
                Sampler.EXACT,
                4000 + i,
            )
        )
    bad = 0
    for spec, ch, sampler, seed in configs:
        res = mc_estimate(spec, ch, MeasurementPlan(), MCConfig(trials=2000, seed=seed, sampler=sampler))
        if abs(res.z_score) >= 3.0:
            bad += 1
    return CheckResult("mc_zscore_battery", bad / len(configs), 0.01)


def run_battery():
    return [
        check_closed_vs_gaussian(),
        check_full_qfi_vs_btmss_closed(),
        check_symplectic_closed_form(),
        check_measurement_saturation(),
        check_fock_oracle_qfi(),
        check_moments_vs_fock(),
        check_derivatives(),
        check_mc_zscores(),
    ]
