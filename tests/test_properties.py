"""Property-based tests of the closed forms, the general Gaussian QFI and the
symplectic spectrum over random valid probes and channels.

Hypothesis runs derandomized and without an example database, so the
suite draws the same examples on every run and keeps no failures from
earlier runs (only its constants cache under .hypothesis/ is written).
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from qcrb_lab.qfi import ParamFamily, h_factor, lambda_lossy, qfi_btmss_full, qfi_gaussian

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
    # a bSMSS's vacuum auxiliary mode is pure: the Kronecker form holds on the probe mode alone
    modes = [0, 2] if kind is StateKind.BSMSS else [0, 1, 2, 3]
    block = np.ix_(modes, modes)
    want = kronecker_qfi(state.sigma[block], state.d[modes], sigma_dot[block], d_dot[modes])
    assert math.isclose(qfi_gaussian(family, T).qfi, want, rel_tol=1e-10)


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
