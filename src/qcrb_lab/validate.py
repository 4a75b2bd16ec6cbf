"""Cross-method validation battery.

Checks the closed forms, the general Gaussian QFI, the Fock-basis
oracle, the measurement saturation identities, and the Monte Carlo
harness against each other at their stated tolerances.
"""

from dataclasses import dataclass
from functools import partial

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
    williamson,
)
from .measurement import MCConfig, MeasurementPlan, Sampler, mc_estimate, transmission_var
from .qfi import (
    ParamFamily,
    fisher_max,
    lambda_curve,
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


def _bright_specs(s_values):
    """The coherent probe once, then the bTMSS (theta = pi) and the bSMSS at each s."""
    alpha = ComplexAmplitude(1e3)
    specs = [StateSpec(StateKind.COHERENT, alpha=alpha)]
    for s in s_values:
        specs.append(StateSpec(StateKind.BTMSS, alpha=alpha, squeeze=SqueezeSpec(s=s, theta=np.pi)))
        specs.append(StateSpec(StateKind.BSMSS, alpha=alpha, squeeze=SqueezeSpec(s=s)))
    return specs


def check_closed_vs_gaussian():
    """Closed-form Lambda vs bright-limit general Gaussian QFI, one call of each per curve."""
    specs = _bright_specs(S_GRID)
    worst = 0.0
    for ch_kw in CHANNELS:
        ch = ChannelConfig(**ch_kw)
        for spec in specs:
            lam_closed = lambda_curve(spec, ch, T_GRID)
            lam_gauss = qfi_gaussian(ParamFamily(spec, ch), T_GRID, bright_limit=True).lam
            worst = max(worst, float(np.max(np.abs(lam_closed - lam_gauss) / lam_closed)))
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
    """Closed-form lossy eigenvalues vs numeric symplectic spectra, one stacked Williamson call."""
    rng = np.random.default_rng(20240817)
    sigmas, closed = [], []
    for _ in range(200):
        s = rng.uniform(0.0, 2.0)
        T, T_p, eta_p, eta_a = rng.uniform(0.05, 1.0, 4)
        ch = ChannelConfig(T=T, T_p=T_p, eta_p=eta_p, eta_a=eta_a)
        sq = SqueezeSpec(s=s, theta=rng.uniform(-np.pi, np.pi))
        state = apply_channel(
            make_btmss(ComplexAmplitude(0), ComplexAmplitude(0), sq), ch
        )
        sigmas.append(state.sigma)
        closed.append(np.sort(lossy_symplectic_closed_form(sq, ch)))
    numeric = williamson(np.array(sigmas))[0][:, 2:]  # the positive half, ascending
    worst = float(np.max(np.abs(numeric - np.array(closed))))
    return CheckResult("lossy_symplectic_closed_vs_numeric", worst, 1e-10)


def check_measurement_saturation():
    """Delta^2T * n_r from the measurements equals the lossy Lambda."""
    specs = [*_bright_specs(S_GRID), StateSpec(StateKind.FOCK, fock_n=20)]
    worst = 0.0
    for ch_kw in CHANNELS:
        for T in T_GRID:
            ch = ChannelConfig(T=T, **ch_kw)
            for spec in specs:
                rep = lambda_lossy(spec, ch)
                lam_meas = transmission_var(spec, ch) * rep.n_resource
                worst = max(worst, abs(lam_meas - rep.lam) / rep.lam)
    return CheckResult("measurement_saturation_identity", worst, 1e-10)


def check_fock_oracle_qfi():
    """Fock-oracle QFI vs closed forms at small photon number.

    fock.oracle_qfi: one Kraus factor W per point (rho = W W^+), the
    support of rho from it and the exact T-derivative on the support's
    eigenvectors alone, in real arithmetic at every point here (Fock,
    real-alpha coherent and theta = 0 vacuum TMSS).  channel_density
    drops the Kraus columns with neither weight nor T-derivative, so most
    factors are thin; the thin SVD of each finds its support.  The vacuum
    TMSS, 841 rows with its lossless auxiliary mode, keeps 29, 25 and 18
    of its 29 columns at T = 0.2, 0.5 and 0.8; a Fock state loses the
    columns for more photons than it holds.  Only the coherent state at
    T = 0.2 keeps all 31 columns, a square factor.
    """
    cases = [  # (spec, n_max, closed-form QFI at T)
        (StateSpec(StateKind.FOCK, fock_n=1), 3, partial(fisher_max, 1)),
        (StateSpec(StateKind.FOCK, fock_n=2), 4, partial(fisher_max, 2)),
        (StateSpec(StateKind.FOCK, fock_n=5), 7, partial(fisher_max, 5)),
        (StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(2.0)), 30, lambda T: 4.0 / T),
        (StateSpec(StateKind.BTMSS, squeeze=SqueezeSpec(s=0.6)), 28, partial(fisher_max, np.sinh(0.6) ** 2)),
    ]
    worst = 0.0
    for T in (0.2, 0.5, 0.8):
        ch = ChannelConfig(T=T)
        for spec, n_max, closed in cases:
            got = fock.oracle_qfi(lambda t: fock.channel_density(spec, ch, n_max=n_max, T=t), T)
            want = closed(T)
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
        om = fock.count_moments(fock.channel_probs(spec, ChannelConfig(T=1.0), n_max=40))
        for field in ("mean_p", "var_p", "mean_a", "var_a", "cov_pa"):
            worst = max(worst, abs(getattr(gm, field) - getattr(om, field)))
    return CheckResult("gaussian_moments_vs_fock_oracle", worst, 1e-8)


def check_derivatives():
    """Analytic channel derivatives vs Richardson finite differences."""
    worst = 0.0
    specs = _bright_specs([1.0])
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
    alpha, sq = ComplexAmplitude(200.0), SqueezeSpec(s=1.0, theta=np.pi)
    families = [  # (spec, losses, sampler, first seed); the i-th T takes seed first + i
        (StateSpec(StateKind.COHERENT, alpha=alpha), {}, Sampler.GAUSSIAN_APPROX, 1000),
        (StateSpec(StateKind.BTMSS, alpha=alpha, squeeze=sq), dict(T_p=0.95, eta_p=0.97, eta_a=0.96),
         Sampler.GAUSSIAN_APPROX, 2000),
        (StateSpec(StateKind.FOCK, fock_n=12), dict(T_p=0.9, eta_p=0.95), Sampler.EXACT, 3000),
        (StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(60.0)), dict(eta_p=0.9), Sampler.EXACT, 4000),
    ]
    T_values = np.linspace(0.15, 0.9, 25)
    bad = 0
    for spec, losses, sampler, first in families:
        for i, T in enumerate(T_values):
            res = mc_estimate(spec, ChannelConfig(T=T, **losses), MeasurementPlan(),
                              MCConfig(trials=2000, seed=first + i, sampler=sampler))
            if abs(res.z_score) >= 3.0:
                bad += 1
    return CheckResult("mc_zscore_battery", bad / (len(families) * len(T_values)), 0.01)


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
