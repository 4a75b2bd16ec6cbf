"""Truncated Fock-basis oracle for small photon numbers.

Brute-force ground truth used to validate the Gaussian machinery: exact
state expansions (closed-form recursions, no operator exponentials),
exact beamsplitter loss channels in the number basis, photon statistics
by direct summation, and QFI via eigendecomposition of the density
matrix.  Not a performance path; intended for mean photon numbers of
order a few.
"""

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .gaussian import Moments, StateKind

N_MAX_DEFAULT = 60
TAIL_TOL = 1e-10
NORM_TOL = 1e-10


class TruncationError(ValueError):
    """Raised when the truncated basis cannot hold the requested state."""


@dataclass(frozen=True)
class FockVector:
    """Pure state over the truncated number basis.

    coeffs is 1-D (length n_max+1) for a single mode or 2-D
    ((n_max+1)^2) for two modes with axes (probe, auxiliary).
    """

    coeffs: np.ndarray
    n_max: int

    @property
    def modes(self):
        return self.coeffs.ndim


@dataclass(frozen=True)
class FockDensity:
    """Density matrix over the truncated basis (row-major pair index for 2 modes)."""

    matrix: np.ndarray
    n_max: int
    modes: int

    def tensor(self):
        dim = self.n_max + 1
        shape = (dim,) * (2 * self.modes)
        return self.matrix.reshape(shape)


def _check_tail(coeffs, n_max):
    probs = np.abs(coeffs) ** 2
    if coeffs.ndim == 1:
        tail = probs[n_max - 1 :].sum()
    else:
        tail = probs[n_max - 1 :, :].sum() + probs[: n_max - 1, n_max - 1 :].sum()
    if tail > TAIL_TOL:
        raise TruncationError(
            f"tail mass {tail:.3e} above {TAIL_TOL:.0e}; increase n_max"
        )


def _coherent_coeffs(alpha, n_max):
    c = np.zeros(n_max + 1, dtype=complex)
    c[0] = np.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, n_max + 1):
        c[n] = c[n - 1] * alpha / np.sqrt(n)
    return c

def _smss_coeffs(alpha, s, theta, n_max):
    # eigenvalue relation (cosh(s) a + e^{i theta} sinh(s) a+) |psi> = alpha |psi>
    ch, sh = np.cosh(s), np.sinh(s)
    e = np.exp(1j * theta)
    c = np.zeros(n_max + 1, dtype=complex)
    c[0] = 1.0
    c[1] = alpha / ch
    for n in range(1, n_max):
        c[n + 1] = (alpha * c[n] - e * sh * np.sqrt(n) * c[n - 1]) / (
            ch * np.sqrt(n + 1)
        )
    return c / np.linalg.norm(c)


def _btmss_coeffs(alpha, beta, s, theta, n_max):
    # pair of eigenvalue relations from the Heisenberg-picture generation
    ch, sh = np.cosh(s), np.sinh(s)
    e = np.exp(1j * theta)
    dim = n_max + 1
    c = np.zeros((dim, dim), dtype=complex)
    c[0, 0] = 1.0
    for n in range(n_max):
        c[0, n + 1] = beta * c[0, n] / (ch * np.sqrt(n + 1))
    for m in range(n_max):
        for n in range(dim):
            lower = e * sh * np.sqrt(n) * c[m, n - 1] if n > 0 else 0.0
            c[m + 1, n] = (alpha * c[m, n] - lower) / (ch * np.sqrt(m + 1))
    return c / np.linalg.norm(c)


def build_fock_state(spec, n_max=N_MAX_DEFAULT):
    """Expand a StateSpec in the truncated number basis (Yuen ordering)."""
    if spec.kind is StateKind.FOCK:
        if spec.fock_n > n_max - 2:
            raise TruncationError("n_max too small for the requested Fock state")
        c = np.zeros(n_max + 1, dtype=complex)
        c[spec.fock_n] = 1.0
        return FockVector(coeffs=c, n_max=n_max)
    if spec.kind is StateKind.COHERENT:
        c = _coherent_coeffs(spec.alpha.value, n_max)
    elif spec.kind is StateKind.BSMSS:
        c = _smss_coeffs(spec.alpha.value, spec.squeeze.s, spec.squeeze.theta, n_max)
    elif spec.kind is StateKind.BTMSS:
        c = _btmss_coeffs(
            spec.alpha.value,
            spec.beta.value,
            spec.squeeze.s,
            spec.squeeze.theta,
            n_max,
        )
    else:
        raise ValueError(f"unsupported state kind {spec.kind}")
    norm = np.linalg.norm(c)
    if abs(norm - 1.0) > 1e-6:
        c = c / norm
    _check_tail(c, n_max)
    return FockVector(coeffs=c, n_max=n_max)


def _kraus_weights(n_max, k, t):
    """sqrt(C(n,k) t^(n-k) (1-t)^k) for n = k .. n_max."""
    n = np.arange(k, n_max + 1)
    return np.sqrt(stats.binom.pmf(n - k, n, t))


def pure_density(state):
    """Density matrix |psi><psi| of a pure state."""
    v = state.coeffs.reshape(-1)
    return FockDensity(
        matrix=np.outer(v, v.conj()), n_max=state.n_max, modes=state.modes
    )


def apply_loss_density(rho, mode, t):
    """Beamsplitter-with-vacuum channel on one mode of a density matrix.

    Sums the Kraus terms K_k rho K_k^+ with K_k|n> = w_k(n)|n-k>; one
    scratch buffer holds each weighted block, so the peak memory is three
    density matrices (input, output, scratch).
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("transmission outside [0, 1]")
    dim = rho.n_max + 1
    tensor = rho.tensor()
    row_ax, col_ax = mode, mode + rho.modes
    work = np.moveaxis(tensor, (row_ax, col_ax), (0, 1))
    out = np.zeros_like(work)
    scratch = np.empty_like(work)
    trailing = (1,) * (work.ndim - 2)
    for k in range(dim):
        w = _kraus_weights(rho.n_max, k, t)
        m = dim - k
        buf = scratch[:m, :m]
        np.multiply(np.outer(w, w).reshape((m, m) + trailing), work[k:, k:], out=buf)
        out[:m, :m] += buf
    out = np.moveaxis(out, (0, 1), (row_ax, col_ax))
    return FockDensity(
        matrix=out.reshape(rho.matrix.shape), n_max=rho.n_max, modes=rho.modes
    )


def channel_density(spec, channel, n_max=N_MAX_DEFAULT, T=None):
    """Source state through the full loss chain; probe losses are composed."""
    T_sys = channel.T if T is None else T
    p = channel.T_p * T_sys * channel.eta_p
    state = build_fock_state(spec, n_max=n_max)
    rho = apply_loss_density(pure_density(state), 0, p)
    if state.modes == 2:
        rho = apply_loss_density(rho, 1, channel.eta_a)
    return rho


def oracle_moments(rho):
    """Photon mean/variance/cross-covariance by direct basis summation."""
    probs = np.real(np.diag(rho.matrix))
    dim = rho.n_max + 1
    n = np.arange(dim)
    if rho.modes == 1:
        mean = float(probs @ n)
        var = float(probs @ (n * n)) - mean * mean
        return Moments(mean_p=mean, var_p=var)
    pj = probs.reshape(dim, dim)
    pp, pa = pj.sum(axis=1), pj.sum(axis=0)
    mean_p, mean_a = float(pp @ n), float(pa @ n)
    var_p = float(pp @ (n * n)) - mean_p**2
    var_a = float(pa @ (n * n)) - mean_a**2
    cross = float(n @ pj @ n)
    return Moments(
        mean_p=mean_p,
        var_p=var_p,
        mean_a=mean_a,
        var_a=var_a,
        cov_pa=cross - mean_p * mean_a,
    )


def oracle_qfi(rho_of_T, T, dT=1e-4, rtol=1e-5, eps=1e-12):
    """QFI by eigendecomposition with a central-difference derivative.

    rho_of_T maps a transmission to a FockDensity.  The result must be
    stable under halving the step or a ValueError is raised.
    """
    rho0 = rho_of_T(T)
    p, U = np.linalg.eigh(rho0.matrix)

    def qfi_for(step):
        drho = (rho_of_T(T + step).matrix - rho_of_T(T - step).matrix) / (2 * step)
        M = U.conj().T @ drho @ U
        denom = p[:, None] + p[None, :]
        mask = denom > eps
        return float(2.0 * np.sum(np.abs(M[mask]) ** 2 / denom[mask]))

    f1 = qfi_for(dT)
    f2 = qfi_for(dT / 2.0)
    if abs(f1 - f2) > rtol * abs(f2):
        raise ValueError(
            f"QFI derivative not converged: {f1:.8e} vs {f2:.8e} at dT={dT:g}"
        )
    return f2
