"""Truncated Fock-basis oracle for small photon numbers.

Ground truth used to validate the Gaussian machinery: exact state
expansions (closed-form recursions, no operator exponentials), exact
beamsplitter loss channels in the number basis, photon statistics by
direct summation, and QFI on the support of the density matrix.
An expansion with no imaginary part is kept real, so its density
matrix, loss channel and decomposition run in real arithmetic.

A pure state is its array of coefficients c (build_fock_state).  Loss
is binomial thinning, so photon-count statistics need only |c|^2 and
one binomial table per loss (channel_probs); no density matrix is
formed.  A lossy state is its Kraus factor W, rho = W W^+ (FockDensity),
with one column per pattern of lost photons (apply_loss_density).  The
QFI (oracle_qfi) finds the support of rho from W, by a thin SVD when W
has fewer columns than rows and by eigh of W W^+ otherwise, and applies
the exact T-derivative, from the amplitude-damping generator, to the
support's eigenvectors alone.  Intended for mean photon numbers of order
a few.
"""

from dataclasses import dataclass, replace

import numpy as np

from .gaussian import Moments, StateKind

TAIL_TOL = 1e-10
# oracle_qfi keeps the eigenvalues above PAIR_TOL / 2: a member of every pair with p_k + p_l > PAIR_TOL, the pairs
# that a dense SLD sum cut at PAIR_TOL keeps.  A dense eigh leaves an empty state's eigenvalue within about 1.4e-16
# of 0 (vacuum TMSS, n_max 28); at 1e-15 the dense and support-trimmed sums part by 7.1e-13.  A cut of 1e-12 drops
# live pairs: 4.3e-10 against fisher_max on the same state.
PAIR_TOL = 1e-14


class TruncationError(ValueError):
    """Raised when the truncated basis cannot hold the requested state."""


@dataclass(frozen=True)
class FockDensity:
    """Density matrix held as its Kraus factor: rho = W W^+.

    W has one row per basis state (row-major pair index for 2 modes) and
    one column per pattern of lost photons: one column for a pure state,
    n_max + 1 after each loss.  matrix and tensor() form W W^+ when read.
    """

    factor: np.ndarray
    n_max: int
    modes: int

    @property
    def matrix(self):
        return self.factor @ self.factor.conj().T

    def tensor(self):
        dim = self.n_max + 1
        shape = (dim,) * (2 * self.modes)
        return self.matrix.reshape(shape)


def _check_tail(c):
    probs = np.abs(c) ** 2  # tail: the mass on the two highest number states of either mode
    tail = probs[-2:].sum()
    if c.ndim == 2:
        tail += probs[:-2, -2:].sum()
    if not tail <= TAIL_TOL:  # nan: the expansion overflowed
        raise TruncationError(
            f"tail mass {tail:.3e} above {TAIL_TOL:.0e}; increase n_max"
        )


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
    """Expand a StateSpec in the truncated number basis (Yuen ordering).

    Returns the coefficients c, of shape (n_max + 1,) for one mode and
    (n_max + 1, n_max + 1) with axes (probe, auxiliary) for two: float64
    when the expansion has no imaginary part (a Fock state, a real-alpha
    coherent state, a vacuum TMSS at theta = 0), complex otherwise.
    """
    if not isinstance(n_max, (int, np.integer)) or n_max < 2:
        raise ValueError(f"n_max must be an integer >= 2, got {n_max!r}")
    if spec.kind is StateKind.FOCK:
        if spec.fock_n > n_max - 2:
            raise TruncationError("n_max too small for the requested Fock state")
        c = np.zeros(n_max + 1)
        c[spec.fock_n] = 1.0
        return c
    # a state too wide for n_max may overflow its expansion to inf and nan; _check_tail refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        sq = spec.squeeze
        if spec.kind is StateKind.BTMSS:
            c = _btmss_coeffs(spec.alpha.value, spec.beta.value, sq.s, sq.theta, n_max)
        else:  # a coherent spec's squeeze is s = 0: the coherent state
            c = _smss_coeffs(spec.alpha.value, sq.s, sq.theta, n_max)
        norm = np.linalg.norm(c)  # an overflowed norm left all zeros, which pass _check_tail: 0/0 makes them nan
        if abs(norm - 1.0) > 1e-6:
            c = c / norm
    _check_tail(c)
    if not c.imag.any():
        c = np.ascontiguousarray(c.real)
    return c


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


def binomial_table(n_max, t):
    """K[n, m] = C(n, m) t^m (1-t)^(n-m): the chance that m of n photons survive."""
    _check_transmission(t)
    table = np.zeros((n_max + 1, n_max + 1))
    table[0, 0] = 1.0
    for n in range(1, n_max + 1):
        table[n, : n + 1] = _pascal_step(table[n - 1, :n], t)
    return table


def pure_density(c):
    """The state |psi><psi| of a coefficient array: its Kraus factor is the one column c."""
    return FockDensity(factor=c.reshape(-1, 1), n_max=len(c) - 1, modes=c.ndim)


def apply_loss_density(rho, mode, t):
    """Beamsplitter-with-vacuum channel on one mode of a density matrix.

    The Kraus sum K_k rho K_k^+ (K_k|n> = A[n, n-k]|n-k>, A the square
    root of the binomial table) on rho = W W^+ is W' W'^+ with
    W' = [K_0 W, ..., K_n_max W]: each column of W becomes n_max + 1
    columns, one per number k of photons lost, and each K_k W scales and
    shifts the rows along the mode's axis.  No density matrix is formed.
    At t = 1 the input is returned unchanged.
    """
    if t == 1.0:
        return rho
    amp = np.sqrt(binomial_table(rho.n_max, t))
    dim = rho.n_max + 1
    w = rho.factor.reshape(dim**mode, dim, -1)  # the modes before, this mode, the modes after with the columns
    out = np.zeros(w.shape + (dim,), dtype=w.dtype)
    for k in range(dim):
        out[:, : dim - k, :, k] = np.diagonal(amp, -k)[:, None] * w[:, k:]
    return replace(rho, factor=out.reshape(len(rho.factor), -1))


def channel_density(spec, channel, n_max, T=None):
    """Source state through the full loss chain; probe losses are composed.

    T, if given, replaces the channel's system transmission.
    """
    t_p = channel.probe_transmission_at(channel.T if T is None else T)
    c = build_fock_state(spec, n_max=n_max)
    rho = apply_loss_density(pure_density(c), 0, t_p)
    if c.ndim == 2:
        rho = apply_loss_density(rho, 1, channel.eta_a)
    return rho


def channel_probs(spec, channel, n_max):
    """Photon-count distribution after the full loss chain.

    Each photon survives independently, so P' = K(t_p)^T |c|^2 K(t_a)
    with K the binomial table: the diagonal of channel_density, without
    forming it.  A unit transmission skips its table, so a lossless
    channel gives |c|^2 itself.  1-D for one mode, (probe, auxiliary) for
    two.  A real expansion is squared and thinned in float64.
    """
    t_p, t_a = channel.probe_transmission, channel.eta_a
    c = build_fock_state(spec, n_max=n_max)
    probs = (c * c.conj()).real
    if t_p != 1.0:
        probs = binomial_table(n_max, t_p).T @ probs
    if c.ndim == 2 and t_a != 1.0:
        probs = probs @ binomial_table(n_max, t_a)
    return probs


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
    """Photon moments from the diagonal of a density matrix: the row sums of |W|^2."""
    dim = rho.n_max + 1
    w = rho.factor
    return count_moments((w * w.conj()).real.sum(axis=1).reshape((dim,) * rho.modes))


def oracle_qfi(rho_of_T, T):
    """SLD QFI of rho(T) on its support, by the exact derivative.

    rho_of_T maps a transmission to a FockDensity and is called once, at
    T.  T must scale the probe's (mode 0's) transmission multiplicatively,
    as channel_density's t_p = T_p * T * eta_p does; then
    D = d rho / dT = -L(rho) / T exactly, whatever the other losses, with
    L(rho) = a rho a^+ - (n rho + rho n) / 2 the amplitude-damping
    generator on the probe mode (exact on the truncated basis, since a
    only lowers the photon number; E_t = exp(-ln(t) L)).

    The support S is the eigenvalues p_k > PAIR_TOL / 2 of rho = W W^+
    and their eigenvectors V, from a thin SVD of W when W has fewer
    columns than rows (a pure state, a lossless auxiliary mode), else from
    eigh of W W^+, formed once; W is released first, so eigh holds no
    second matrix of rho's size.  D acts on the columns of V alone:
    L(rho) V = a rho (a^+ V) - (n V diag(p) + rho n V) / 2, with rho X
    taken as W (W^+ X) or the dense product, so no derivative matrix of
    rho's size is formed.  With M = V^+ D V and R = (I - V V^+) D V, the part of D V
    off the support,
    F = sum_{k,l in S} 2 |M_kl|^2 / (p_k + p_l) + 4 sum_{k in S} |R_k|^2 / p_k
    (Liu, Jing, Zhong and Wang, Commun. Theor. Phys. 61, 45 (2014)): every
    pair with p_k + p_l > PAIR_TOL has a member in S.  A real rho is
    decomposed in real arithmetic.

    Raises ValueError for T outside (0, 1], and when D has a block off the
    support, where the sum above does not hold: that block is -B B^+ with
    B = (I - V V^+) a V sqrt(p / T), refused when |B|_2^2 exceeds 1e-6
    times the largest kept coupling, max(|M_kl|, |R_k|) (a lossless Fock
    state at T = 1, whose QFI diverges).
    """
    if not 0.0 < T <= 1.0:  # also nan
        raise ValueError(f"transmission T = {T:g} outside (0, 1]")
    rho = rho_of_T(T)
    dim, w = rho.n_max + 1, rho.factor
    del rho
    if w.shape[1] < w.shape[0]:
        V, sv, _ = np.linalg.svd(w, full_matrices=False)
        p, rho_ops = sv * sv, [w, w.conj().T]
    else:
        # rho before W's conjugate copy: the copy is then freed at the heap's top, and eigh's output
        # takes W's block, which keeps the process's peak one matrix lower
        dense = np.empty((len(w), len(w)), dtype=w.dtype)
        np.matmul(w, w.conj().T, out=dense)
        del w
        p, V = np.linalg.eigh(dense)
        rho_ops = [dense]
    support = p > 0.5 * PAIR_TOL
    p, V = p[support], V[:, support]
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)  # the probe's lowering and number operators
    n = np.diag(np.arange(dim, dtype=float))

    def on_probe(op, x):  # op on the probe mode of each column of x
        return (op @ x.reshape(dim, -1)).reshape(x.shape)

    k = V.shape[1]
    rho_x = np.linalg.multi_dot(rho_ops + [np.hstack((on_probe(a.T, V), on_probe(n, V)))])
    dv = (on_probe(a, rho_x[:, :k]) - 0.5 * (on_probe(n, V * p) + rho_x[:, k:])) * (-1.0 / T)
    M = V.conj().T @ dv
    off_sq = np.sum(np.abs(dv - V @ M) ** 2, axis=0)  # |R_k|^2
    av = on_probe(a, V)
    dropped = np.linalg.norm((av - V @ (V.conj().T @ av)) * np.sqrt(p / T), 2) ** 2
    # valid oracle points read <= 5e-13; a lossless Fock state at T = 1 reads exactly 1
    if dropped > 1e-6 * max(np.abs(M).max(), np.sqrt(off_sq.max())):
        raise ValueError(
            f"d rho/dT leaves the support of rho at T = {T:g} (dropped block "
            f"{dropped:.3e}): the QFI diverges or n_max is too small"
        )
    pairs = 2.0 * np.sum(np.abs(M) ** 2 / (p[:, None] + p[None, :]))
    return float(pairs + 4.0 * np.sum(off_sq / p))
