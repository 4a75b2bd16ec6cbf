"""Truncated Fock-basis oracle for small photon numbers.

Ground truth used to validate the Gaussian machinery: exact state
expansions (closed-form recursions, no operator exponentials), exact
beamsplitter loss channels in the number basis, photon statistics by
direct summation, and QFI via eigendecomposition of the density matrix.
An expansion with no imaginary part is kept real, so its density
matrix, loss channel and eigendecomposition run in real arithmetic.

A pure state is its array of coefficients c (build_fock_state).  Loss
is binomial thinning, so photon-count statistics need only |c|^2 and
one binomial table per loss (channel_probs); no density matrix is
formed.  The QFI (oracle_qfi) builds the density matrix once,
decomposes it on its support (the basis states that rho or d rho/dT
reach, the same computation for every probe) and then takes its
T-derivative exactly from the amplitude-damping generator
(loss_generator).  Intended for mean photon numbers of order a few.
"""

from dataclasses import dataclass, replace

import numpy as np

from .gaussian import Moments, StateKind

TAIL_TOL = 1e-10
# oracle_qfi drops the pairs of eigenvalues with p_k + p_l <= PAIR_TOL.  A dense eigh leaves an empty state's
# eigenvalue within about 1.4e-16 of 0 (vacuum TMSS, n_max 28); at 1e-15 the dense and support-trimmed sums
# part by 7.1e-13.  A cut of 1e-12 drops live pairs: 4.3e-10 against fisher_max on the same state.
PAIR_TOL = 1e-14


class TruncationError(ValueError):
    """Raised when the truncated basis cannot hold the requested state."""


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
    """Density matrix |psi><psi| of a pure state's coefficient array."""
    v = c.reshape(-1)
    return FockDensity(matrix=np.outer(v, v.conj()), n_max=len(c) - 1, modes=c.ndim)


def apply_loss_density(rho, mode, t):
    """Beamsplitter-with-vacuum channel on one mode of a density matrix.

    The Kraus sum K_k rho K_k^+ (K_k|n> = A[n, n-k]|n-k>, A the square
    root of the binomial table) keeps the mode's diagonal offset d, and on
    it is one matrix product: out[i, i+d] = sum_m B_d[i, m] rho[m, m+d]
    with B_d[i, m] = A[m, i] A[m+d, i+d], and likewise for rho[m+d, m].
    The mode's row and column axes are copied to the front, so that each
    diagonal is a strided slice of whole rows, for either mode alike, and
    each product is written back over the rows it read; a complex rho is
    multiplied as its real and imaginary parts.  Peak memory is the
    input, that copy, one pair of diagonals and, for two modes, the output
    in the input's axis order.  At t = 1 the input is returned unchanged.
    """
    if t == 1.0:
        return rho
    amp = np.sqrt(binomial_table(rho.n_max, t))
    dim = rho.n_max + 1
    axes = (mode, mode + rho.modes)
    work = np.moveaxis(rho.tensor(), axes, (0, 1)).copy()
    # rows (i, j) of the mode pair, each holding the rest of rho: diagonal d runs from row d (upper) and d*dim (lower)
    rows = work.reshape(dim * dim, -1).view(np.float64)
    for d in range(dim):
        n = dim - d
        upper, lower = slice(d, None, dim + 1), slice(d * dim, None, dim + 1)
        kernel = amp[:n, :n].T * amp[d:, d:].T
        pair = np.stack((rows[upper][:n], rows[lower][:n]), axis=1)
        pair = (kernel @ pair.reshape(n, -1)).reshape(pair.shape)
        rows[upper][:n], rows[lower][:n] = pair[:, 0], pair[:, 1]
    out = np.moveaxis(work, (0, 1), axes)
    return replace(rho, matrix=out.reshape(rho.matrix.shape))


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
    return replace(rho, matrix=out.reshape(rho.matrix.shape))


def _live_states(rho):
    """Basis states where rho or d rho / dT = -L(rho) / T has a nonzero column.

    Column (j, B) of L(rho) (probe index j, the rest B) reads only columns
    (j, B) and (j+1, B) of rho (loss_generator).  A nonzero column of a
    density matrix has a positive diagonal entry, and rho[(j+1, B), (j+1, B)]
    alone gives L(rho)[(j, B), (j, B)] when column (j, B) of rho is zero; so
    the live states are rho's nonzero columns and their neighbours one probe
    photon down, and d rho / dT need not be formed to find them.
    """
    dim = rho.n_max + 1
    cols = rho.matrix.any(axis=0).reshape((dim,) * rho.modes)
    live = cols.copy()
    live[:-1] |= cols[1:]
    return np.flatnonzero(live)


def oracle_qfi(rho_of_T, T):
    """SLD QFI of rho(T) on its support, by the exact derivative.

    rho_of_T maps a transmission to a FockDensity and is called once, at
    T.  T must scale the probe's (mode 0's) transmission multiplicatively,
    as channel_density's t_p = T_p * T * eta_p does; then
    d rho / dT = -L(rho) / T (loss_generator) exactly, whatever the other
    losses.  A basis state that neither rho nor d rho / dT reaches (a zero
    column, so by Hermiticity a zero row) is an eigenvector with p = 0 and
    a zero row of M, and adds no term (Liu, Yuan, Lu and Wang, J. Phys. A
    53, 023001 (2020)); the rest, the live states (_live_states), are
    decomposed.  With rho = sum_k p_k |u_k><u_k| there and
    M = U^+ (d rho / dT) U, F = 2 sum |M_kl|^2 / (p_k + p_l) over the pairs
    with p_k + p_l > PAIR_TOL.  A real rho is decomposed in real arithmetic.
    rho is decomposed before d rho / dT is formed, so the decomposition
    holds no second matrix of rho's size.

    Raises ValueError for T outside (0, 1], and when d rho / dT leaves the
    support of rho: the largest dropped |M_kl| above 1e-6 times the
    largest kept one (a lossless Fock state at T = 1, whose QFI diverges).
    """
    if not 0.0 < T <= 1.0:  # also nan
        raise ValueError(f"transmission T = {T:g} outside (0, 1]")
    rho = rho_of_T(T)
    live = _live_states(rho)
    # every state live: index with ..., a view of the whole matrix, so that nothing is copied
    ix = np.ix_(live, live) if len(live) < len(rho.matrix) else ...
    p, U = np.linalg.eigh(rho.matrix[ix])
    drho = loss_generator(rho).matrix
    del rho
    drho *= -1.0 / T
    M = np.abs(U.conj().T @ drho[ix] @ U)  # |M_kl|; conj() of a real U is U itself
    denom = p[:, None] + p[None, :]
    kept = denom > PAIR_TOL
    dropped = M[~kept].max(initial=0.0)
    # valid oracle points read <= 3.9e-13; a lossless Fock state at T = 1 reads exactly 1
    if dropped > 1e-6 * M[kept].max(initial=0.0):
        raise ValueError(
            f"d rho/dT leaves the support of rho at T = {T:g} (dropped block "
            f"{dropped:.3e}): the QFI diverges or n_max is too small"
        )
    return float(2.0 * np.sum(M[kept] ** 2 / denom[kept]))
