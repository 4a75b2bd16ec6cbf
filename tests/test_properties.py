"""Property-based tests of the closed forms, the general Gaussian QFI, the
symplectic spectrum and the Fock oracle over random valid probes and channels.

Hypothesis runs derandomized and without an example database, so it
keeps no failures from earlier runs (only its constants cache under
.hypothesis/ is written).  Its draws still depend on more than this
file: Hypothesis adds to its pools of floats, integers and short strings
the literals in the code of every non-test module of the repository
imported so far (src/qcrb_lab among them), and scans again whenever a
module is imported.  One tree therefore draws the same examples on every
run of one command, but a change that adds or removes such a literal, or
a run that imports other modules first, draws others.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from qcrb_lab import fock
from qcrb_lab.gaussian import (
    ChannelConfig,
    ComplexAmplitude,
    SqueezeSpec,
    StateKind,
    StateSpec,
    k_matrix,
    symplectic_eigenvalues,
    williamson,
)
from qcrb_lab.measurement import transmission_var
from qcrb_lab.qfi import ParamFamily, fisher_max, h_factor, lambda_lossy, qfi_btmss_full, qfi_gaussian
from test_fock import FACTOR_TOL, dense, dense_oracle_qfi, loss_generator, uncut_density

PROPERTY = settings(database=None, derandomize=True, max_examples=300, deadline=None)

# T away from 0 and 1, where Lambda >= T - T^2 leaves no room for rounding
transmissions = st.floats(1e-3, 0.999)
probe_losses = st.floats(0.05, 1.0)  # T_p, eta_p: a blind probe has no Lambda
aux_losses = st.floats(0.0, 1.0)
phases = st.floats(-math.pi, math.pi)


@st.composite
def specs(draw, kinds=tuple(StateKind)):
    kind = draw(st.sampled_from(kinds))
    if kind is StateKind.FOCK:
        return StateSpec(kind, fock_n=draw(st.integers(1, 1000)))
    alpha = ComplexAmplitude(draw(st.floats(1.0, 1e4)), draw(phases))
    if kind is StateKind.COHERENT:
        return StateSpec(kind, alpha=alpha)
    s = draw(st.floats(0.0, 3.0))
    if kind is StateKind.BSMSS:
        # the closed forms hold for amplitude squeezing, theta = 2 arg(alpha)
        return StateSpec(kind, alpha=alpha, squeeze=SqueezeSpec(s=s, theta=2.0 * alpha.phase))
    # single-seeded bTMSS only: a doubly seeded one off cos(Theta) = -1 warns
    return StateSpec(kind, alpha=alpha, squeeze=SqueezeSpec(s=s, theta=draw(phases)))


@st.composite
def channels(draw):
    return ChannelConfig(
        T=draw(transmissions), T_p=draw(probe_losses), eta_p=draw(probe_losses), eta_a=draw(aux_losses)
    )


def _lam(spec, channel, **losses):
    return lambda_lossy(spec, replace(channel, **losses)).lam


@PROPERTY
@given(specs(), channels())
def test_lambda_never_beats_the_fisher_bound(spec, channel):
    T = channel.T
    assert lambda_lossy(spec, channel).lam >= (T - T * T) * (1 - 1e-12)


@PROPERTY
@given(specs(), channels())
def test_the_probe_measurement_saturates_lambda(spec, channel):
    rep = lambda_lossy(spec, channel)
    assert math.isclose(transmission_var(spec, channel) * rep.n_resource, rep.lam, rel_tol=1e-10)


@PROPERTY
@given(specs(), channels(), probe_losses, probe_losses)
def test_lambda_does_not_increase_with_eta_p(spec, channel, a, b):
    lo, hi = sorted((a, b))
    assert _lam(spec, channel, eta_p=hi) <= _lam(spec, channel, eta_p=lo) * (1 + 1e-12)


@PROPERTY
@given(specs(kinds=(StateKind.BTMSS,)), channels(), aux_losses, aux_losses)
def test_btmss_lambda_does_not_increase_with_eta_a(spec, channel, a, b):
    lo, hi = sorted((a, b))
    assert _lam(spec, channel, eta_a=hi) <= _lam(spec, channel, eta_a=lo) * (1 + 1e-12)


# lambda_curve's T_p term is -T^2 T_p h (1 - sech 2s): h_factor's sign sets the direction
@PROPERTY
@given(specs(), channels(), probe_losses, probe_losses)
def test_lambda_does_not_increase_with_T_p_where_h_is_nonnegative(spec, channel, a, b):
    if spec.kind is StateKind.BTMSS:
        assume(channel.eta_a >= 0.5)
    lo, hi = sorted((a, b))
    assert _lam(spec, channel, T_p=hi) <= _lam(spec, channel, T_p=lo) * (1 + 1e-12)


@PROPERTY
@given(specs(kinds=(StateKind.BTMSS,)), channels(), probe_losses, probe_losses)
def test_btmss_lambda_does_not_decrease_with_T_p_where_h_is_negative(spec, channel, a, b):
    assume(spec.squeeze.s > 0 and h_factor(spec.squeeze.s, channel.eta_a) < 0)
    lo, hi = sorted((a, b))
    assert _lam(spec, channel, T_p=hi) >= _lam(spec, channel, T_p=lo) * (1 - 1e-12)


@PROPERTY
@given(specs(kinds=(StateKind.COHERENT, StateKind.BSMSS, StateKind.BTMSS)), channels())
def test_closed_form_equals_the_bright_limit_gaussian_qfi(spec, channel):
    gauss = qfi_gaussian(ParamFamily(spec, channel), channel.T, bright_limit=True).lam
    assert math.isclose(lambda_lossy(spec, channel).lam, gauss, rel_tol=1e-9)


@PROPERTY
@given(
    st.floats(1.0, 100.0), st.floats(0.0, 100.0), phases, phases, phases,
    st.floats(0.3, 2.0), st.floats(0.01, 0.99),
)
def test_full_gaussian_qfi_equals_the_exact_lossless_btmss_qfi(a, b, phase_a, phase_b, theta, s, T):
    spec = StateSpec(
        StateKind.BTMSS,
        alpha=ComplexAmplitude(a, phase_a),
        beta=ComplexAmplitude(b, phase_b),
        squeeze=SqueezeSpec(s=s, theta=theta),
    )
    exact = qfi_btmss_full(spec.alpha, spec.beta, spec.squeeze, T)
    got = qfi_gaussian(ParamFamily(spec, ChannelConfig(T=T)), T).qfi
    assert math.isclose(got, exact, rel_tol=1e-8)


@PROPERTY
@given(specs(kinds=(StateKind.BTMSS,)), channels(), st.floats(0.05, 0.95), st.floats(0.0, 0.99))
def test_spectrum_derivative_equals_a_central_difference(spec, channel, T, eta_a):
    channel = replace(channel, T=T, eta_a=eta_a)
    # the two eigenvalues cross where probe and auxiliary see equal transmissions
    assume(abs(channel.probe_transmission - eta_a) > 1e-3)
    family = ParamFamily(spec, channel)
    sigma_dot, _ = family.derivatives_at(T)
    # W's columns are right eigenvectors of k.sigma: lam_i (W+ sigma_dot W)_ii is the derivative of lam_i
    lam, W = williamson(family.state_at(T).sigma)
    lam_dot = (lam * np.diagonal(W.conj().T @ sigma_dot @ W).real)[2:]
    h = 1e-5
    fd = (symplectic_eigenvalues(family.state_at(T + h)) - symplectic_eigenvalues(family.state_at(T - h))) / (2 * h)
    # the difference carries a rounding error of about eps * lam / h
    assert np.allclose(lam_dot, fd, rtol=1e-6, atol=1e3 * np.finfo(float).eps * lam.max() / h)


def kronecker_qfi(sigma, d, sigma_dot, d_dot):
    """Gaussian QFI 1/2 vec(sigma_dot)+ (conj(sigma) x sigma - k x k)^-1 vec(sigma_dot) + 2 d_dot+ sigma^-1 d_dot.

    The Kronecker matrix is singular where a mode is pure: every mode must be mixed.
    """
    k = k_matrix(len(d) // 2)
    vec = sigma_dot.reshape(-1, order="F")
    cov = vec.conj() @ np.linalg.solve(np.kron(sigma.conj(), sigma) - np.kron(k, k), vec)
    return float(np.real(0.5 * cov + 2.0 * d_dot.conj() @ np.linalg.solve(sigma, d_dot)))


@PROPERTY
@given(
    st.sampled_from((StateKind.BSMSS, StateKind.BTMSS)), st.floats(0.0, 30.0), st.floats(0.0, 3.0), phases,
    phases, st.floats(0.05, 2.0), phases, st.floats(0.05, 0.95), st.floats(0.5, 1.0), st.floats(0.5, 1.0),
    st.floats(0.05, 0.95),
)
def test_full_gaussian_qfi_equals_the_kronecker_form_on_mixed_states(
    kind, a, b, phase_a, phase_b, s, theta, T, T_p, eta_p, eta_a
):
    # Mixed: nu^2 - 1 stays above ~1e-4 for every lossy mode here.  Nearer a pure mode both forms lose
    # about eps / (nu^2 - 1) of the QFI (2e-10 at 2e-6); test_qfi checks that regime at 1e-8 against
    # the closed form.
    spec = StateSpec(
        kind,
        alpha=ComplexAmplitude(a, phase_a),
        beta=ComplexAmplitude(b, phase_b),
        squeeze=SqueezeSpec(s=s, theta=theta),
    )
    family = ParamFamily(spec, ChannelConfig(T=T, T_p=T_p, eta_p=eta_p, eta_a=eta_a))
    state, (sigma_dot, d_dot) = family.state_at(T), family.derivatives_at(T)
    want = kronecker_qfi(state.sigma, state.d, sigma_dot, d_dot)
    assert math.isclose(qfi_gaussian(family, T).qfi, want, rel_tol=1e-10)


@PROPERTY
@given(
    st.sampled_from((StateKind.BSMSS, StateKind.BTMSS)), st.floats(-6.0, math.log10(3.0)), phases, transmissions,
    probe_losses, probe_losses, st.one_of(st.just(1.0), aux_losses),
)
def test_the_vacuum_term_never_exceeds_the_per_photon_bound(kind, log_s, theta, T, T_p, eta_p, eta_a):
    # qfi_gaussian's refusal rests on this: with no displacement the QFI is the covariance term alone, and the
    # paper's maximum QFI per photon caps it for the source's sinh(s)^2 noise photons in the probe
    s = 10.0**log_s
    spec = StateSpec(kind, squeeze=SqueezeSpec(s=s, theta=theta))
    family = ParamFamily(spec, ChannelConfig(T_p=T_p, eta_p=eta_p, eta_a=eta_a))
    try:
        qfi = qfi_gaussian(family, T).qfi
    except ValueError as exc:  # near-pure modes, where the refusal itself rests on the bound
        assert "too close to pure" in str(exc)
        return
    bound = (T_p * eta_p) ** 2 * fisher_max(math.sinh(s) ** 2, T_p * T * eta_p)
    assert qfi <= bound * (1.0 + 1e-7)


@st.composite
def seeded_families(draw):
    """Lossy seeded coherent, bSMSS and bTMSS families at any squeezing phase."""
    kind = draw(st.sampled_from((StateKind.COHERENT, StateKind.BSMSS, StateKind.BTMSS)))
    spec = StateSpec(
        kind,
        alpha=ComplexAmplitude(draw(st.floats(0.5, 1e3)), draw(phases)),
        beta=ComplexAmplitude(draw(st.floats(0.0, 10.0)), draw(phases)),
        squeeze=SqueezeSpec(s=draw(st.one_of(st.just(0.0), st.floats(0.05, 2.0))), theta=draw(phases)),
    )
    return ParamFamily(spec, draw(channels()))


@PROPERTY
@given(seeded_families(), st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6), st.booleans())
def test_an_array_of_T_equals_a_loop_of_scalar_calls(family, Ts, bright_limit):
    got = qfi_gaussian(family, np.array(Ts), bright_limit=bright_limit)
    want = [qfi_gaussian(family, T, bright_limit=bright_limit) for T in Ts]
    assert got.n_resource == want[0].n_resource
    for field in ("qfi", "qcrb", "lam"):
        loop = np.array([getattr(rep, field) for rep in want])
        if bright_limit:
            assert np.array_equal(getattr(got, field), loop)
        else:
            assert np.allclose(getattr(got, field), loop, rtol=1e-13, atol=0.0)


# Oracle agreement with qfi_gaussian.  This draw (52 coherent, 68 bSMSS and 30 bTMSS points) reads at most
# 3.0e-15, 9.9e-11 and 1.2e-10; 600 more seeded random points over the same ranges read at most 2.2e-15, 2.7e-11 and
# 9.9e-11.  The squeezed kinds' worst points have the least probe transmission, where fock.PAIR_TOL drops live
# pairs: 1.2e-10 at p = 0.009, against 3e-13 with a cut at 1e-16.  At n_max 30 a bSMSS reads up to 6.1e-9,
# its tail mass near TAIL_TOL.
ORACLE_N_MAX = {StateKind.COHERENT: 30, StateKind.BSMSS: 50, StateKind.BTMSS: 14}
ORACLE_TOL = {StateKind.COHERENT: 1e-14, StateKind.BSMSS: 5e-10, StateKind.BTMSS: 5e-10}
# about 30 ms an oracle call; no shrinking, so that a failure (the negative control's) stops at once
ORACLE_PROPERTY = settings(PROPERTY, max_examples=150, phases=(Phase.explicit, Phase.generate))


@st.composite
def small_complex_probes(draw):
    """Probes of a few photons with random phases of alpha, beta and theta: their density matrices are complex."""
    kind = draw(st.sampled_from((StateKind.COHERENT, StateKind.BSMSS, StateKind.BTMSS)))
    alpha = ComplexAmplitude(draw(st.floats(0.1, 1.0)), draw(phases))
    if kind is StateKind.COHERENT:
        return StateSpec(kind, alpha=ComplexAmplitude(2.0 * alpha.magnitude, alpha.phase))
    if kind is StateKind.BSMSS:
        return StateSpec(kind, alpha=alpha, squeeze=SqueezeSpec(s=draw(st.floats(0.0, 0.5)), theta=draw(phases)))
    beta = ComplexAmplitude(draw(st.floats(0.0, 0.5)), draw(phases))
    return StateSpec(kind, alpha=alpha, beta=beta, squeeze=SqueezeSpec(s=draw(st.floats(0.0, 0.3)), theta=draw(phases)))


@ORACLE_PROPERTY
@given(
    small_complex_probes(),
    st.builds(ChannelConfig, T=st.floats(0.05, 0.95), T_p=st.floats(0.3, 1.0), eta_p=st.floats(0.3, 1.0), eta_a=aux_losses),
)
def test_the_oracle_equals_the_gaussian_qfi_on_complex_states(spec, channel):
    n_max = ORACLE_N_MAX[spec.kind]
    try:
        got = fock.oracle_qfi(lambda t: fock.channel_density(spec, channel, n_max=n_max, T=t), channel.T)
    except fock.TruncationError:
        assume(False)
    try:
        want = qfi_gaussian(ParamFamily(spec, channel), channel.T).qfi
    except ValueError:  # the reference refuses near-pure modes (an auxiliary mode at eta_a ~ 1e-11), not the oracle
        assume(False)
    assert abs(got - want) <= ORACLE_TOL[spec.kind] * want


def _diagonal_pairs(rho, T):
    """The k = l terms of oracle_qfi's SLD sum, M_kk^2 / p_k: the Fisher information of rho's eigenvalues."""
    p, U = np.linalg.eigh(dense(rho))
    m = np.real(np.einsum("ik,ij,jk->k", U.conj(), -loss_generator(rho) / T, U))
    kept = 2.0 * p > fock.PAIR_TOL
    return float(np.sum(m[kept] ** 2 / p[kept]))


def test_dropping_the_diagonal_pairs_fails_the_oracle_property(monkeypatch):
    oracle_qfi = fock.oracle_qfi

    def perturbed(rho_of_T, T):
        return oracle_qfi(rho_of_T, T) - _diagonal_pairs(rho_of_T(T), T)

    monkeypatch.setattr(fock, "oracle_qfi", perturbed)
    with pytest.raises(AssertionError):
        test_the_oracle_equals_the_gaussian_qfi_on_complex_states()


# The factor route against the dense reference where rho has a kernel, within test_fock's FACTOR_TOL: a lossless
# auxiliary mode gives a bTMSS a thin factor, and channel_density's cut leaves most lossy single-mode probes a thin
# one too (all but 8 of the 600 among 900 uniform points).  In the Tier-1 run this draw (46 coherent, 53 bSMSS and
# 51 bTMSS points, every factor thin) reads at most 2.4e-15, 5.7e-14 and 2.4e-13.  The 900 points read at most
# 3.7e-15, 1.0e-12 and 4.6e-12, the last over FACTOR_TOL; at that bTMSS (t_p = 0.45) it is the dense reference that
# errs, 4.9e-12 from qfi_gaussian against the oracle's 2.4e-13.


@ORACLE_PROPERTY
@given(
    small_complex_probes(),
    st.builds(ChannelConfig, T=st.floats(0.05, 0.95), T_p=st.floats(0.3, 1.0), eta_p=st.floats(0.3, 1.0)),
)
def test_the_factor_route_equals_the_dense_sum(spec, channel):
    n_max = ORACLE_N_MAX[spec.kind]
    try:
        rho = fock.channel_density(spec, channel, n_max=n_max)
    except fock.TruncationError:
        assume(False)
    got = fock.oracle_qfi(lambda t: fock.channel_density(spec, channel, n_max=n_max, T=t), channel.T)
    want = dense_oracle_qfi(rho, channel.T)
    assert abs(got - want) <= FACTOR_TOL * want


def _kernel_pairs(rho, T):
    """The pairs of the dense SLD sum with one eigenvalue at most PAIR_TOL / 2: oracle_qfi's projector term."""
    p, U = np.linalg.eigh(dense(rho))
    M = U.conj().T @ (-loss_generator(rho) / T) @ U
    support = p > 0.5 * fock.PAIR_TOL
    return float(4.0 * np.sum(np.abs(M[~support][:, support]) ** 2 / p[support]))


def test_dropping_the_projector_term_fails_the_factor_property(monkeypatch):
    oracle_qfi = fock.oracle_qfi

    def perturbed(rho_of_T, T):
        return oracle_qfi(rho_of_T, T) - _kernel_pairs(rho_of_T(T), T)

    monkeypatch.setattr(fock, "oracle_qfi", perturbed)
    with pytest.raises(AssertionError):
        test_the_factor_route_equals_the_dense_sum()


# The Kraus cut against the dense sum on every column: a lossy auxiliary mode gives a bTMSS a square uncut factor, and
# a lossy probe a single-mode one.  F(uncut) <= F(cut) + KRAUS_TOL is the bound fock.oracle_qfi states; nothing bounds
# the other side, so the two must also agree.  Hypothesis also draws from the literals in the source, so the draw
# moves with the code: two earlier draws of 150 read at most 1.9e-15, 9.8e-13 and 6.7e-12 (coherent, bSMSS, bTMSS),
# the Tier-1 run's draw now 2.2e-15, 1.4e-13 and 5.4e-13, and 15,000 random points over the same ranges 3.6e-15,
# 1.4e-12 and 2.3e-11.  That is rounding, not the cut, and the dense reference's: of 3,000 uniform bTMSS points near a
# lossless probe (t_p 0.79-0.95, eta_a <= 0.2), the worst reads 1.004e-10, over CUT_TOL (t_p = 0.94, eta_a = 0.022),
# at every cut from 1e-12 to 1e-24 and uncut, each factor taking the thin SVD, where the dense sum is 1.09e-10 from
# qfi_gaussian and oracle_qfi 8.3e-12.
CUT_TOL = {StateKind.COHERENT: 1e-14, StateKind.BSMSS: 5e-12, StateKind.BTMSS: 1e-10}


@ORACLE_PROPERTY
@given(
    small_complex_probes(),
    st.builds(
        ChannelConfig,
        T=st.floats(0.05, 0.95),
        T_p=st.floats(0.3, 1.0),
        eta_p=st.floats(0.3, 1.0),
        eta_a=st.floats(0.0, 1.0, exclude_max=True),
    ),
)
def test_the_kraus_cut_keeps_the_qfi(spec, channel):
    n_max = ORACLE_N_MAX[spec.kind]
    try:
        uncut = uncut_density(spec, channel, n_max=n_max)
    except fock.TruncationError:
        assume(False)
    got = fock.oracle_qfi(lambda t: fock.channel_density(spec, channel, n_max=n_max, T=t), channel.T)
    want = dense_oracle_qfi(uncut, channel.T)
    assert want <= got + fock.KRAUS_TOL + CUT_TOL[spec.kind] * want
    assert abs(got - want) <= CUT_TOL[spec.kind] * want


def test_a_looser_kraus_cut_fails_the_cut_property(monkeypatch):
    monkeypatch.setattr(fock, "KRAUS_TOL", 1e-8)
    with pytest.raises(AssertionError):
        test_the_kraus_cut_keeps_the_qfi()
