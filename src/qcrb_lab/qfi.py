"""Quantum Fisher information for transmission estimation.

Computes the general Gaussian QFI (four-term formula over the symplectic
form of the covariance matrix plus a displacement term), the closed-form
estimation functions for coherent / bright squeezed / Fock probes with
and without external losses, the lossy Fock QFI from its binomial density
matrix, and the maximum Fisher bound.
"""

import logging
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .fock import binomial_pmf
from .gaussian import (
    ChannelConfig,
    GaussianState,
    Moments,
    StateKind,
    StateSpec,
    apply_channel,
    channel_scaling,
    k_matrix,
    make_source,
    photon_moments,
    symplectic_spectrum,
)

log = logging.getLogger(__name__)

# Symplectic eigenvalues within EPS_SING of 1 have their derivative term
# dropped; the correction factor vanishes for the states handled here.
EPS_SING = 1e-9


class QFIMethod(Enum):
    CLOSED_FORM = "ClosedForm"
    GAUSSIAN_GENERAL = "GaussianGeneral"
    FOCK_SUM = "FockSum"


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
    """Upper bound n_r / (T - T^2) on the QFI of any probe state."""
    if not 0.0 < T < 1.0:
        raise ValueError("maximum Fisher bound diverges at T in {0, 1}")
    if n_resource <= 0:
        raise ValueError("n_resource must be > 0")
    return n_resource / (T - T * T)


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
    (theta = 2 arg alpha); qfi_gaussian covers every phase.
    """
    if spec.kind is StateKind.BSMSS and math.cos(big_theta(spec)) < 1.0 - 1e-12:
        raise ValueError(
            "the bSMSS closed form needs amplitude squeezing, theta = 2 arg(alpha); "
            f"theta - 2 arg(alpha) is {big_theta(spec):.6g} here"
        )


def stimulated_photons(spec):
    """Mean photon number of the bright (displacement) part of the probe."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing amplitude: resource_photons refuses it
        amp = float(abs(make_source(spec).d[0]))
    return amp * amp  # a float product overflows to inf without a warning


def source_moments(spec):
    """Photon moments of the generated state (exact for every kind)."""
    if spec.kind is StateKind.FOCK:
        return Moments(mean_p=float(spec.fock_n), var_p=0.0)
    return photon_moments(make_source(spec))


def resource_photons(spec, channel, bright=True):
    """Probe photons at the system input, n_r = T_p * (photons generated).

    A Fock probe counts its fock_n photons; the other kinds count the
    stimulated photons, or with bright=False the full source mean with
    the spontaneous photons included.  Raises ValueError when no probe
    photons reach the system or the detector, where every Lambda and
    measured variance built on n_r would divide by zero, and when the
    count overflows a double.
    """
    if spec.kind is StateKind.FOCK:
        n = spec.fock_n
    elif bright:
        n = stimulated_photons(spec)
    else:
        n = float(source_moments(spec).mean_p)
    n_r = channel.T_p * n
    if not math.isfinite(n_r):  # first: an overflow may have left nan
        raise ValueError("probe photon number overflows a double")
    if not n_r > 0:
        raise ValueError("probe carries no photons at the system input")
    if channel.eta_p == 0:
        raise ValueError("eta_p = 0: no probe photons reach the detector")
    return n_r


@dataclass(frozen=True)
class ParamFamily:
    """A probe state and loss chain with the system transmission T free."""

    spec: StateSpec
    channel: ChannelConfig

    def _source(self):
        """Two-mode embedding of the generated state (aux = vacuum if absent)."""
        state = make_source(self.spec)
        if state.modes == 2:
            return state
        d = np.zeros(4, dtype=complex)
        d[0], d[2] = state.d
        sigma = np.eye(4, dtype=complex)
        sigma[np.ix_([0, 2], [0, 2])] = state.sigma
        return GaussianState(d=d, sigma=sigma)

    def state_at(self, T):
        return apply_channel(self._source(), replace(self.channel, T=T))

    def derivatives_at(self, T):
        """Analytic d(sigma)/dT and d(d)/dT of the lossy state."""
        src = self._source()
        ch = replace(self.channel, T=T)
        scale = channel_scaling(ch, 2)
        # only the probe factor sqrt(T_p T eta_p) depends on T
        dscale = np.array([math.sqrt(ch.T_p * ch.eta_p) / (2.0 * math.sqrt(T)), 0.0] * 2)
        D, dD = np.diag(scale), np.diag(dscale)
        sigma_dot = dD @ src.sigma @ D + D @ src.sigma @ dD - 2.0 * D @ dD
        return sigma_dot, dscale * src.d

    def derivatives_fd(self, T):
        """Richardson-extrapolated central differences; validation fallback."""
        h = 1e-6 * max(T, 1e-3)

        def central(step):
            sp = self.state_at(T + step)
            sm = self.state_at(T - step)
            return (sp.sigma - sm.sigma) / (2 * step), (sp.d - sm.d) / (2 * step)

        s1, d1 = central(h)
        s2, d2 = central(h / 2.0)
        return (4 * s2 - s1) / 3.0, (4 * d2 - d1) / 3.0


def qfi_gaussian(family, T, bright_limit=False):
    """QFI of a lossy Gaussian probe family at transmission T.

    Evaluates the four-term Gaussian QFI formula over Sigma = k.sigma plus
    the displacement term 2 ddot+ sigma^-1 ddot.  With bright_limit=True
    only the displacement term is kept and the resource count is the
    stimulated photon number; this reproduces the bright-seed closed
    forms independently of the seed power.
    """
    if not 0.0 < T < 1.0:
        raise ValueError("T must lie in (0, 1)")
    state = family.state_at(T)
    sigma_dot, d_dot = family.derivatives_at(T)

    disp = float(2.0 * np.real(d_dot.conj() @ np.linalg.solve(state.sigma, d_dot)))

    vac = 0.0
    k = k_matrix(2)
    S = k @ state.sigma
    S_dot = k @ sigma_dot
    if not bright_limit and np.linalg.norm(S_dot) > 1e-13 * max(1.0, np.linalg.norm(S)):
        det_S = float(np.real(np.linalg.det(S)))
        if det_S - 1.0 < 1e-12:
            raise ValueError(
                "state is pure but sigma varies with T; the mixed-state "
                "Gaussian QFI formula does not apply"
            )
        M = np.linalg.solve(S, S_dot)
        t1 = det_S * float(np.real(np.trace(M @ M)))
        S2 = np.eye(4) + S @ S
        N = np.linalg.solve(S2, S_dot)
        t2 = math.sqrt(float(np.real(np.linalg.det(S2)))) * float(
            np.real(np.trace(N @ N))
        )
        lam, lam_dot = (v.tolist() for v in symplectic_spectrum(S, S_dot))
        if all(abs(l - 1.0) < EPS_SING for l in lam):
            raise ValueError(
                "both symplectic eigenvalues at 1 with varying sigma; the "
                "dropped-correction regime does not cover this point"
            )

        def term(l, ld):
            if abs(l - 1.0) < EPS_SING:
                dropped = ld * ld / max(l**4 - 1.0, 1e-300)
                log.debug("dropping singular eigenvalue term of magnitude %.3e", dropped)
                return 0.0
            return ld * ld / (l**4 - 1.0)

        t3 = 4.0 * (lam[0] ** 2 - lam[1] ** 2) * (
            term(lam[1], lam_dot[1]) - term(lam[0], lam_dot[0])
        )
        vac = (t1 + t2 + t3) / (2.0 * (det_S - 1.0))

    qfi = disp if bright_limit else vac + disp
    n_r = resource_photons(family.spec, family.channel, bright=bright_limit)
    return _report(qfi, n_r, QFIMethod.GAUSSIAN_GENERAL)


def lambda_pure(spec, T):
    """Lossless estimation functions: lambda_curve with no external loss."""
    return lambda_curve(spec, ChannelConfig(), T)


def h_factor(s, eta_a):
    """Auxiliary-loss degradation factor for the bTMSS quantum advantage."""
    if not 0.0 <= eta_a <= 1.0:
        raise ValueError("eta_a outside [0, 1]")
    if s < 0:
        raise ValueError("s must be >= 0")
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
    if spec.kind is StateKind.COHERENT:
        return base
    if spec.kind is StateKind.BTMSS:
        s = spec.squeeze.s
        return base - T * T * channel.T_p * h_factor(s, channel.eta_a) * (
            1.0 - 1.0 / math.cosh(2.0 * s)
        )
    if spec.kind is StateKind.BSMSS:
        return base - T * T * channel.T_p * (1.0 - math.exp(-2.0 * spec.squeeze.s))
    return base - T * T * channel.T_p  # Fock


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
    return n_vac / (T - T * T) + n_bright / (T - T * T + T * T * sech)


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
    """QFI of an n-photon Fock probe from its binomial lossy density matrix.

    The lossy Fock state is diagonal in the number basis with weights
    rho_k = C(n,k) p^k (1-p)^(n-k), p = T_p T eta_p, so the QFI reduces
    to sum_k (d rho_k / dT)^2 / rho_k.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = channel.probe_transmission
    if not 0.0 < p < 1.0:
        raise ValueError("total probe transmission must lie in (0, 1)")
    kk = np.arange(n + 1)
    rho = binomial_pmf(n, p)
    dp_dT = channel.T_p * channel.eta_p
    drho = rho * (kk - n * p) / (p * (1.0 - p)) * dp_dT
    mask = rho > 1e-300
    qfi = float(np.sum(drho[mask] ** 2 / rho[mask]))
    n_r = resource_photons(StateSpec(StateKind.FOCK, fock_n=n), channel)
    return _report(qfi, n_r, QFIMethod.FOCK_SUM)


def bright_limit_threshold(T, s):
    """Seed photon scale the stimulated term must greatly exceed."""
    if not 0.0 < T < 1.0:
        raise ValueError("T must lie in (0, 1)")
    sech = 1.0 / math.cosh(2.0 * s)
    return (1.0 - T + T * sech) / (1.0 - T) * math.sinh(s) ** 2
