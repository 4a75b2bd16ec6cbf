"""Truncated Fock-basis oracle for small photon numbers.

Ground truth used to validate the Gaussian machinery: exact state
expansions (closed-form recursions, no operator exponentials), exact
beamsplitter loss channels in the number basis, photon statistics by
direct summation, and QFI via eigendecomposition of the density matrix.

Loss is binomial thinning, so photon-count statistics need only |c|^2
and one binomial table per loss (thinned_probs); no density matrix is
formed.  The QFI (oracle_qfi) builds the density matrix once and takes
its T-derivative exactly from the amplitude-damping generator
(loss_generator), then does one dense eigendecomposition of the whole
matrix, the same computation for every probe; a real matrix is
decomposed as a real one.  Intended for mean photon numbers of order a
few.
"""

from dataclasses import dataclass

import numpy as np

from .gaussian import Moments, StateKind

TAIL_TOL = 1e-10


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
    if not tail <= TAIL_TOL:  # nan: the expansion overflowed
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
    lower = e * sh * np.sqrt(np.arange(1, dim))
    for m in range(n_max):
        row = alpha * c[m]
        row[1:] -= lower * c[m, :-1]
        c[m + 1] = row / (ch * np.sqrt(m + 1))
    return c / np.linalg.norm(c)


def build_fock_state(spec, n_max):
    """Expand a StateSpec in the truncated number basis (Yuen ordering)."""
    if spec.kind is StateKind.FOCK:
        if spec.fock_n > n_max - 2:
            raise TruncationError("n_max too small for the requested Fock state")
        c = np.zeros(n_max + 1, dtype=complex)
        c[spec.fock_n] = 1.0
        return FockVector(coeffs=c, n_max=n_max)
    # a state too wide for n_max may overflow its expansion to inf and nan; _check_tail refuses it
    with np.errstate(over="ignore", invalid="ignore"):
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


def _pascal_step(row, t):
    """Binomial row n+1 from row n: each entry is (1-t) row[k] + t row[k-1]."""
    out = np.empty(len(row) + 1)
    out[:-1] = (1.0 - t) * row
    out[-1] = 0.0
    out[1:] += t * row
    return out


def _check_transmission(t):
    if not 0.0 <= t <= 1.0:
        raise ValueError("transmission outside [0, 1]")


def binomial_pmf(n, t):
    """C(n, k) t^k (1-t)^(n-k) for k = 0 .. n.

    Built by Pascal's rule: every step is a convex combination of
    non-negative numbers, so nothing overflows or cancels.  O(n) memory
    and O(n^2) time.
    """
    _check_transmission(t)
    row = np.ones(1)
    for _ in range(n):
        row = _pascal_step(row, t)
    return row


def binomial_table(n_max, t):
    """K[n, m] = C(n, m) t^m (1-t)^(n-m): the chance that m of n photons survive."""
    _check_transmission(t)
    table = np.zeros((n_max + 1, n_max + 1))
    table[0, 0] = 1.0
    for n in range(1, n_max + 1):
        table[n, : n + 1] = _pascal_step(table[n - 1, :n], t)
    return table


def pure_density(state):
    """Density matrix |psi><psi| of a pure state."""
    v = state.coeffs.reshape(-1)
    return FockDensity(
        matrix=np.outer(v, v.conj()), n_max=state.n_max, modes=state.modes
    )


def _left_multiply(kernel, block):
    """kernel @ block over the first axis, for a real kernel and a complex block."""
    flat = block.reshape(len(block), -1).view(np.float64)
    return (kernel @ flat).view(complex).reshape(block.shape)


def apply_loss_density(rho, mode, t):
    """Beamsplitter-with-vacuum channel on one mode of a density matrix.

    The Kraus sum K_k rho K_k^+ (K_k|n> = A[n, n-k]|n-k>, A the square
    root of the binomial table) keeps the mode's diagonal offset d, and on
    it is one matrix product: out[i, i+d] = sum_m B_d[i, m] rho[m, m+d]
    with B_d[i, m] = A[m, i] A[m+d, i+d], and likewise for rho[m+d, m].
    Peak memory is the input, the output and one pair of diagonals.  At
    t = 1 the input is returned unchanged.
    """
    if t == 1.0:
        return rho
    amp = np.sqrt(binomial_table(rho.n_max, t))
    dim = rho.n_max + 1
    row_ax, col_ax = mode, mode + rho.modes
    work = np.moveaxis(rho.tensor(), (row_ax, col_ax), (0, 1))
    out = np.zeros_like(work)
    for d in range(dim):
        m = np.arange(dim - d)
        rows = np.stack([m, m + d], axis=1)
        cols = rows[:, ::-1]
        kernel = amp[: dim - d, : dim - d].T * amp[d:, d:].T
        out[rows, cols] = _left_multiply(kernel, work[rows, cols])
    out = np.moveaxis(out, (0, 1), (row_ax, col_ax))
    return FockDensity(
        matrix=out.reshape(rho.matrix.shape), n_max=rho.n_max, modes=rho.modes
    )


def channel_density(spec, channel, n_max, T=None):
    """Source state through the full loss chain; probe losses are composed.

    T, if given, replaces the channel's system transmission.
    """
    t_p = channel.T_p * (channel.T if T is None else T) * channel.eta_p
    state = build_fock_state(spec, n_max=n_max)
    rho = apply_loss_density(pure_density(state), 0, t_p)
    if state.modes == 2:
        rho = apply_loss_density(rho, 1, channel.eta_a)
    return rho


def thinned_probs(state, t_p=1.0, t_a=1.0):
    """Photon-count distribution of a pure state after loss.

    Each photon survives independently, so P' = K(t_p)^T |c|^2 K(t_a)
    with K the binomial table; equal to the diagonal of the lossy density
    matrix without forming it.  1-D for one mode, (probe, auxiliary) for
    two.
    """
    c = state.coeffs
    probs = (c * c.conj()).real
    if t_p != 1.0:
        probs = binomial_table(state.n_max, t_p).T @ probs
    if state.modes == 2 and t_a != 1.0:
        probs = probs @ binomial_table(state.n_max, t_a)
    return probs


def channel_probs(spec, channel, n_max):
    """Photon-count distribution after the full loss chain (see thinned_probs)."""
    state = build_fock_state(spec, n_max=n_max)
    return thinned_probs(state, channel.probe_transmission, channel.eta_a)


def count_moments(probs):
    """Photon mean/variance/cross-covariance of a count distribution."""
    n = np.arange(probs.shape[0])
    if probs.ndim == 1:
        mean = float(probs @ n)
        var = float(probs @ (n * n)) - mean * mean
        return Moments(mean_p=mean, var_p=var)
    pp, pa = probs.sum(axis=1), probs.sum(axis=0)
    mean_p, mean_a = float(pp @ n), float(pa @ n)
    var_p = float(pp @ (n * n)) - mean_p**2
    var_a = float(pa @ (n * n)) - mean_a**2
    cross = float(n @ probs @ n)
    return Moments(
        mean_p=mean_p,
        var_p=var_p,
        mean_a=mean_a,
        var_a=var_a,
        cov_pa=cross - mean_p * mean_a,
    )


def oracle_moments(rho):
    """Photon moments from the diagonal of a density matrix."""
    dim = rho.n_max + 1
    return count_moments(np.real(np.diag(rho.matrix)).reshape((dim,) * rho.modes))


def loss_generator(rho):
    """Amplitude-damping generator on the probe mode: a rho a^+ - {a^+ a, rho}/2.

    Elementwise on the density tensor over the probe's row index i and
    column index j, O(dim^2) with no operator matrices:
    (a rho a^+)[i, j] = sqrt((i+1)(j+1)) rho[i+1, j+1] and
    {a^+ a, rho}[i, j] = (i + j) rho[i, j].  Exact on the truncated basis,
    since a only lowers the photon number.  The loss channel is
    E_t = exp(-ln(t) L), so dE_t(rho)/dt = -L(E_t(rho)) / t.
    """
    dim = rho.n_max + 1
    t = rho.tensor()
    n = np.arange(dim, dtype=float)
    n_row = n.reshape((dim,) + (1,) * (t.ndim - 1))  # probe row: axis 0
    n_col = n.reshape((dim,) + (1,) * (rho.modes - 1))  # probe column: axis `modes`
    out = -0.5 * (n_row + n_col) * t
    lower = [slice(None)] * t.ndim
    upper = list(lower)
    lower[0] = lower[rho.modes] = slice(None, -1)
    upper[0] = upper[rho.modes] = slice(1, None)
    out[tuple(lower)] += np.sqrt(n_row * n_col)[tuple(upper)] * t[tuple(upper)]
    return FockDensity(
        matrix=out.reshape(rho.matrix.shape), n_max=rho.n_max, modes=rho.modes
    )


def oracle_qfi(rho_of_T, T):
    """SLD QFI of rho(T) by one eigendecomposition and the exact derivative.

    rho_of_T maps a transmission to a FockDensity and is called once, at
    T.  T must scale the probe's (mode 0's) transmission multiplicatively,
    as channel_density's t_p = T_p * T * eta_p does; then
    d rho / dT = -L(rho) / T (loss_generator) exactly, whatever the other
    losses.  With rho = sum_k p_k |u_k><u_k| and M = U^+ (d rho / dT) U,
    F = 2 sum |M_kl|^2 / (p_k + p_l) over the pairs with p_k + p_l > 1e-12.
    A rho with no imaginary part is decomposed as a real matrix.

    Raises ValueError for T outside (0, 1], and when d rho / dT leaves the
    support of rho: the largest dropped |M_kl| above 1e-6 times the
    largest kept one (a lossless Fock state at T = 1, whose QFI diverges).
    """
    if not 0.0 < T <= 1.0:  # also nan
        raise ValueError(f"transmission T = {T:g} outside (0, 1]")
    rho = rho_of_T(T)
    if not rho.matrix.imag.any():
        rho = FockDensity(matrix=rho.matrix.real, n_max=rho.n_max, modes=rho.modes)
    p, U = np.linalg.eigh(rho.matrix)
    drho = loss_generator(rho).matrix * (-1.0 / T)
    M = np.abs(U.conj().T @ drho @ U)  # |M_kl|
    denom = p[:, None] + p[None, :]
    kept = denom > 1e-12  # drop pairs of eigenvalues that are both ~0
    dropped = M[~kept].max(initial=0.0)
    if dropped > 1e-6 * M[kept].max(initial=0.0):
        raise ValueError(
            f"d rho/dT leaves the support of rho at T = {T:g} (dropped block "
            f"{dropped:.3e}): the QFI diverges or n_max is too small"
        )
    return float(2.0 * np.sum(M[kept] ** 2 / denom[kept]))
