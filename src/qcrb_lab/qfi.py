"""Quantum Fisher information for transmission estimation.

Computes the general Gaussian QFI (the SLD sum over a Williamson
decomposition of the covariance matrix plus a displacement term), the closed-form
estimation functions for coherent / bright squeezed / Fock probes with
and without external losses, the maximum Fisher bound and the per-photon
bound through the loss chain, which is the lossy Fock QFI.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gaussian import (
    ChannelConfig,
    Moments,
    SqueezeSpec,
    StateKind,
    StateSpec,
    _attenuate,
    channel_scaling,
    make_source,
    photon_moments,
    williamson,
)

# Pairs of Williamson modes with |lam_i lam_j - 1| <= PURE_TOL count as pure and leave qfi_gaussian's SLD
# sum, whose error budget bounds them where sigma's derivative reaches them.  Rounding leaves a pure pair's
# P - 1 up to 6e-11 near SIGMA_MAX: over 4,000 lossless bTMSS points there, 5e-12 dropped and refused
# 12 that the kept sum answers within 2e-11, and 1e-12 refused none.
PURE_TOL = 1e-12
# Largest covariance entry (1 + twice a mode's noise photons) that qfi_gaussian takes. Over random
# channels, s <= 14 and T <= 1 - 1e-6, bright-limit relative errors stayed below 2e-10 up to 1e3,
# reached 6e-5 by 1e6 and 5e-2 by 1e9; from 2e10 the covariance solves went singular.
SIGMA_MAX = 1e3


class QFIMethod(Enum):
    CLOSED_FORM = "ClosedForm"
    GAUSSIAN_GENERAL = "GaussianGeneral"


@dataclass(frozen=True)
class EstimationReport:
    """Estimation function, QFI, bound and photon resources for one probe."""

    lam: float          # estimation function Lambda = qcrb * n_resource
    qfi: float
    qcrb: float
    n_resource: float   # probe photons at the system input
    method: QFIMethod


def _report(qfi, n_resource, method):
    qcrb = 1.0 / qfi
    return EstimationReport(
        lam=qcrb * n_resource, qfi=qfi, qcrb=qcrb, n_resource=n_resource, method=method
    )


def fisher_max(n_resource, T):
    """Upper bound n_r / (T (1 - T)) on the QFI of any probe state, elementwise over an array T."""
    if not np.all((0.0 < T) & (T < 1.0)):
        raise ValueError("maximum Fisher bound diverges at T in {0, 1}")
    if not 0 < n_resource < math.inf:
        raise ValueError("n_resource must be finite and > 0")
    return n_resource / (T * (1.0 - T))


def per_photon_qfi(n, channel, T):
    """Per-photon bound (T_p eta_p)^2 n / (p (1 - p)), p = T_p T eta_p, elementwise over T.

    The QFI of n photons through the loss chain: an n-photon Fock probe attains it, and no probe
    of n photons in the probe mode exceeds it (Monras and Paris, PRL 98, 160401 (2007)).
    T (a float or an array) replaces channel.T.
    """
    return (channel.T_p * channel.eta_p) ** 2 * fisher_max(n, channel.probe_transmission_at(T))


def big_theta(spec):
    """Combined squeezing/seed phase entering the photon-number closed forms."""
    if spec.kind is StateKind.BTMSS:
        return spec.squeeze.theta - spec.alpha.phase - spec.beta.phase
    if spec.kind is StateKind.BSMSS:
        return spec.squeeze.theta - 2.0 * spec.alpha.phase
    return 0.0


def require_amplitude_squeezing(spec):
    """Raise unless the closed forms cover the probe's phase.

    The bSMSS closed forms hold for amplitude squeezing, cos(Theta) = 1
    (theta = 2 arg alpha), and at s = 0, where S(0, theta) is the identity
    and the probe is the coherent state; qfi_gaussian covers every phase.
    """
    if spec.kind is StateKind.BSMSS and spec.squeeze.s > 0 and math.cos(big_theta(spec)) < 1.0 - 1e-12:
        raise ValueError(
            "the bSMSS closed form needs amplitude squeezing, theta = 2 arg(alpha); "
            f"theta - 2 arg(alpha) is {big_theta(spec):.6g} here"
        )


def stimulated_photons(spec):
    """Mean photon number of the bright (displacement) part of the probe."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing amplitude: resource_photons refuses it
        return _displacement_photons(make_source(spec))


def _displacement_photons(state):
    """|d_0|^2 of a Gaussian state: the probe mode's stimulated photons."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing amplitude: _input_photons refuses it
        amp = float(abs(state.d[0]))
    return amp * amp  # a float product overflows to inf without a warning


def source_moments(spec):
    """Photon moments of the generated state (exact for every kind)."""
    if spec.kind is StateKind.FOCK:
        return Moments(mean_p=float(spec.fock_n), var_p=0.0)
    return photon_moments(make_source(spec))


def resource_photons(spec, channel):
    """Probe photons at the system input, n_r = T_p * (photons generated).

    A Fock probe counts its fock_n photons; the other kinds count the
    stimulated photons.  Raises ValueError when no probe photons reach the
    system or the detector, where every Lambda and measured variance built
    on n_r would divide by zero, and when the count overflows a double.
    """
    n = spec.fock_n if spec.kind is StateKind.FOCK else stimulated_photons(spec)
    return _input_photons(n, channel)


def _input_photons(n, channel):
    """n_r = T_p * n for n photons generated, refused as resource_photons says."""
    n_r = channel.T_p * n
    if not math.isfinite(n_r):  # first: an overflow may have left nan
        raise ValueError("probe photon number overflows a double")
    if not n_r > 0:
        raise ValueError("probe carries no photons at the system input")
    if channel.eta_p == 0:
        raise ValueError("eta_p = 0: no probe photons reach the detector")
    return n_r


def _require(T, ok, why, *sizes):
    """Raise ValueError(why formatted with the sizes there) at the first T where ok fails (all of one shape)."""
    if not ok.all():
        why = why.format(*(float(size[~ok][0]) for size in sizes))
        raise ValueError(f"{why} (at T={float(T[~ok][0])!r})")


@dataclass(frozen=True)
class ParamFamily:
    """A probe state and loss chain with the system transmission T, a float or an array, free."""

    spec: StateSpec
    channel: ChannelConfig

    def state_at(self, T):
        T = np.asarray(T, dtype=float)
        _require(T, (0.0 <= T) & (T <= 1.0), "T outside [0, 1]")
        src = make_source(self.spec)
        return _attenuate(src, channel_scaling(self.channel, src.modes, T))

    def derivatives_at(self, T):
        """Analytic d(sigma)/dT and d(d)/dT of the lossy state, for T in (0, 1]."""
        T = np.asarray(T, dtype=float)
        _require(T, (0.0 < T) & (T <= 1.0), "T outside (0, 1]")
        return self._lossy(T)[2:]

    def _lossy(self, T):
        """The generated state, the lossy state, d(sigma)/dT and d(d)/dT at an array T already checked in (0, 1]."""
        ch, src = self.channel, make_source(self.spec)
        m = src.modes
        D = channel_scaling(ch, m, T)
        # only the probe factor sqrt(T_p T eta_p) depends on T
        dD = np.multiply.outer(math.sqrt(ch.T_p * ch.eta_p) / (2.0 * np.sqrt(T)), [1.0, 0.0][:m] * 2)
        # d/dT of _attenuate's D sigma D + I - D^2, its factors in the same order
        sigma_dot = dD[..., :, None] * src.sigma * D[..., None, :] + D[..., :, None] * src.sigma * dD[..., None, :]
        return src, _attenuate(src, D), sigma_dot - 2.0 * np.eye(2 * m) * (D * dD)[..., None, :], dD * src.d

    def derivatives_fd(self, T):
        """Richardson-extrapolated central differences; validation fallback."""
        steps = 1e-6 * max(T, 1e-3) * np.array([1.0, 0.5])
        plus, minus = self.state_at(T + steps), self.state_at(T - steps)
        s1, s2 = (plus.sigma - minus.sigma) / (2 * steps)[:, None, None]
        d1, d2 = (plus.d - minus.d) / (2 * steps)[:, None]
        return (4 * s2 - s1) / 3.0, (4 * d2 - d1) / 3.0


def qfi_gaussian(family, T, bright_limit=False):
    """QFI of a lossy Gaussian probe family, elementwise over T.

    With the Williamson decomposition W+ sigma W = 1, W^-1 k W^-+ = diag(lam)
    and Z = W+ sigma_dot W, the covariance term is the SLD sum
    1/2 sum_ij |Z_ij|^2 P/(P - 1), P = lam_i lam_j, over the pairs with
    |P - 1| > PURE_TOL; the displacement term is 2 ddot+ sigma^-1 ddot.
    It refuses a point where rounding in lam, plus the per-photon bound on
    the covariance term where sigma_dot reaches a dropped pair, may move the
    QFI by more than 1e-8 of itself, naming both parts (or a computed QFI
    of 0, of which no share is defined) and the first such T.

    With bright_limit=True only the displacement term is kept and the resource count is the
    stimulated photon number, not the source's full mean; this reproduces
    the bright-seed closed forms independently of the seed power.  A float T gives a report of floats; an array T
    gives qfi, qcrb and lam of its shape, each entry the float call's value at that T.
    """
    T = np.asarray(T, dtype=float)
    t = T.reshape(-1)
    _require(t, (0.0 < t) & (t < 1.0), "T must lie in (0, 1)")
    generated, state, sigma_dot, d_dot = family._lossy(t)
    big = f"squeezing s={family.spec.squeeze.s:g} puts a covariance entry above SIGMA_MAX = {SIGMA_MAX:g}"
    sigma_max = state.sigma.diagonal(axis1=1, axis2=2).real.max(axis=1)
    _require(t, sigma_max <= SIGMA_MAX, big)
    qfi = 2.0 * np.real(d_dot.conj()[:, None, :] @ np.linalg.solve(state.sigma, d_dot[:, :, None]))[:, 0, 0]
    if not bright_limit and sigma_dot.any():  # sigma is constant for a coherent probe or s = 0
        lam, W = williamson(state.sigma)
        Z = np.abs(W.conj().swapaxes(1, 2) @ sigma_dot @ W)  # |Z_ij|
        P = lam[:, :, None] * lam[:, None, :]
        kept = np.abs(P - 1.0) > PURE_TOL
        gap = np.where(kept, P - 1.0, 1.0)
        dropped = np.where(kept, 0.0, Z).max(axis=(1, 2)) / Z.max(axis=(1, 2))
        term = np.where(kept, 0.5 * Z * Z * P / gap, 0.0)
        qfi = qfi + term.sum(axis=(1, 2))
        bound = np.zeros_like(qfi)
        reached = dropped > 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):  # qfi = 0 once every pair sigma_dot reaches is dropped
            # a rounding error of about eps * max sigma in each lam moves each term by that over |P - 1|
            err = 3e-16 * sigma_max * np.abs(term / gap).sum(axis=(1, 2)) / qfi
            if reached.any():  # the paper's per-photon bound in p = T_p T eta_p caps the whole covariance term
                n = math.sinh(family.spec.squeeze.s) ** 2  # the source's noise photons in the probe, exact for a tiny s
                bound[reached] = per_photon_qfi(n, family.channel, t[reached]) / qfi[reached]
        why = (
            "modes too close to pure: rounding ({:.3e}) and pure pairs taking {:.3e} of sigma's largest derivative "
            "(their per-photon bound, {:.3e}) may move the QFI by {:.3e} of itself"
        )
        budget = err + bound
        failed = ~(budget <= 1e-8)  # a QFI of 0 always fails: its shares are nan or inf
        if failed.any() and qfi[failed.argmax()] == 0:
            why = "modes too close to pure: the computed QFI is 0, so no share of it is defined"
        _require(t, ~failed, why, err, dropped, bound, budget)
    qfi = qfi.reshape(T.shape)
    n = _displacement_photons(generated) if bright_limit else float(photon_moments(generated).mean_p)
    n_r = _input_photons(n, family.channel)  # from the source _lossy built, not a second one
    return _report(qfi if T.ndim else float(qfi), n_r, QFIMethod.GAUSSIAN_GENERAL)


def h_factor(s, eta_a):
    """Auxiliary-loss degradation factor for the bTMSS quantum advantage."""
    if not 0.0 <= eta_a <= 1.0:
        raise ValueError("eta_a outside [0, 1]")
    SqueezeSpec(s=s)  # refuses a negative, non-finite or overflowing s, as for a probe's squeeze
    sh2 = math.sinh(s) ** 2
    return (2.0 * eta_a - 1.0) * (1.0 + 2.0 * sh2) / (1.0 + 2.0 * eta_a * sh2)


def lambda_curve(spec, channel, T):
    """Closed-form estimation function, elementwise over T.

    T (a float or an array) replaces channel.T; the losses come from
    channel and need eta_p > 0.  Bright-limit forms for the squeezed
    kinds, the bSMSS at amplitude squeezing.  The factor order matches
    the scalar forms term by term, so an array T gives bit for bit the
    values of a loop over its floats.
    """
    if not np.asarray((0.0 < T) & (T < 1.0)).all():
        raise ValueError("T must lie in (0, 1)")
    require_amplitude_squeezing(spec)
    base = T / channel.eta_p
    if spec.kind is StateKind.BTMSS:
        s = spec.squeeze.s
        return base - T * T * channel.T_p * h_factor(s, channel.eta_a) * (
            1.0 - 1.0 / math.cosh(2.0 * s)
        )
    return base - T * T * channel.T_p * (1.0 if spec.kind is StateKind.FOCK else 1.0 - math.exp(-2.0 * spec.squeeze.s))


def lambda_lossy(spec, channel):
    """Closed-form estimation function with external losses.

    Bright-limit forms for the squeezed kinds; resources are the photons
    at the system input, n_r = T_p <n_p>_0 with the stimulated photon
    count for the squeezed states.
    """
    n_r = resource_photons(spec, channel)  # first: eta_p = 0 raises before a division
    lam = lambda_curve(spec, channel, channel.T)
    return EstimationReport(
        lam=lam,
        qfi=n_r / lam,
        qcrb=lam / n_r,
        n_resource=n_r,
        method=QFIMethod.CLOSED_FORM,
    )


def qfi_btmss_full(alpha, beta, squeeze, T):
    """Exact lossless bTMSS QFI: vacuum term plus stimulated term."""
    if not 0.0 < T < 1.0:
        raise ValueError("T must lie in (0, 1)")
    s, th = squeeze.s, squeeze.theta
    n_vac = math.sinh(s) ** 2
    theta_c = th - alpha.phase - beta.phase
    n_bright = (
        alpha.magnitude**2 * math.cosh(s) ** 2
        + beta.magnitude**2 * math.sinh(s) ** 2
        - alpha.magnitude * beta.magnitude * math.cos(theta_c) * math.sinh(2 * s)
    )
    sech = 1.0 / math.cosh(2.0 * s)
    # T (1 - T) keeps its digits as T -> 1, where T - T^2 cancels
    return n_vac / (T * (1.0 - T)) + n_bright / (T * (1.0 - T) + T * T * sech)


def lossy_symplectic_closed_form(squeeze, channel):
    """Positive symplectic eigenvalues of the lossy TMSS covariance matrix."""
    s = squeeze.s
    p = channel.probe_transmission
    eta_a = channel.eta_a
    sh2 = math.sinh(s) ** 2
    A = (p - eta_a) * sh2
    inner = (
        1.0
        - eta_a
        + p * (2.0 * eta_a - 1.0)
        + (eta_a + p * (1.0 - 2.0 * eta_a)) * math.cosh(2.0 * s)
        + (p - eta_a) ** 2 * sh2 * sh2
    )
    B = math.sqrt(inner)
    return (A + B, B - A)


def fock_qfi_lossy(n, channel):
    """QFI of an n-photon Fock probe through the loss chain: the per-photon bound, which it attains.

    The lossy state is diagonal in the number basis, rho_k = C(n,k) p^k (1-p)^(n-k) with
    p = T_p T eta_p, so its QFI is the binomial Fisher information n / (p (1 - p)) times
    (dp/dT)^2 = (T_p eta_p)^2 (per_photon_qfi).  Refuses as resource_photons does, and a
    probe transmission p outside (0, 1), where the QFI diverges.
    """
    n_r = resource_photons(StateSpec(StateKind.FOCK, fock_n=n), channel)  # refuses n = 0 and a non-integral n
    return _report(per_photon_qfi(n, channel, channel.T), n_r, QFIMethod.CLOSED_FORM)
