"""Tests for the complex-form Gaussian state machinery."""

import numpy as np
import pytest

from qcrb_lab import fock
from qcrb_lab.gaussian import (
    S_MAX,
    ChannelConfig,
    ComplexAmplitude,
    GaussianState,
    SqueezeSpec,
    StateKind,
    StateSpec,
    apply_channel,
    k_matrix,
    make_bsmss,
    make_btmss,
    make_source,
    photon_moments,
    symplectic_eigenvalues,
    williamson,
)
from qcrb_lab.qfi import ParamFamily

SINH2_1 = 1.3810978455418157  # sinh(1)^2


def coherent(alpha):
    return make_source(StateSpec(StateKind.COHERENT, alpha=alpha))


def lossy(state, mode, t):
    """Reference loss of transmission t on one mode, as matrices: D sigma D + I - D^2, D d."""
    m = state.modes
    D = np.eye(2 * m)
    D[mode, mode] = D[mode + m, mode + m] = np.sqrt(t)
    return GaussianState(d=D @ state.d, sigma=D @ state.sigma @ D + np.eye(2 * m) - D @ D)


def assert_physical(state):
    """Complex-form block symmetry of sigma and d, and symplectic eigenvalues >= 1."""
    m = state.modes
    assert np.allclose(state.sigma[m:, :m], np.conj(state.sigma[:m, m:]), atol=1e-10)
    assert np.allclose(state.d[m:], np.conj(state.d[:m]), atol=1e-10)
    assert np.min(symplectic_eigenvalues(state)) >= 1.0 - 1e-9  # it also refuses a non-Hermitian sigma


def random_states():
    states = [
        coherent(ComplexAmplitude(2.0, 0.4)),
        make_bsmss(ComplexAmplitude(1.5, -0.8), SqueezeSpec(s=0.9, theta=1.2)),
        make_btmss(
            ComplexAmplitude(1.0, 0.5),
            ComplexAmplitude(0.7, -1.1),
            SqueezeSpec(s=1.1, theta=2.5),
        ),
        make_btmss(ComplexAmplitude(0), ComplexAmplitude(0), SqueezeSpec(s=0.7)),
    ]
    return states


class TestAmplitudes:
    def test_phase_reduced_to_half_open_interval(self):
        a = ComplexAmplitude(1.0, 3 * np.pi)
        assert -np.pi < a.phase <= np.pi
        assert np.isclose(a.phase, np.pi)
        b = ComplexAmplitude(1.0, -np.pi)
        assert -np.pi < b.phase <= np.pi

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            ComplexAmplitude(-1.0)

    def test_from_complex_roundtrip(self):
        z = 1.3 - 0.7j
        assert ComplexAmplitude.from_complex(z).value == pytest.approx(z)

    def test_negative_squeeze_rejected(self):
        with pytest.raises(ValueError):
            SqueezeSpec(s=-0.1)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ComplexAmplitude(np.nan),
            lambda: ComplexAmplitude(np.inf),
            lambda: ComplexAmplitude(1.0, np.nan),
            lambda: SqueezeSpec(s=np.nan),
            lambda: SqueezeSpec(s=np.inf),
            lambda: SqueezeSpec(s=1.0, theta=np.nan),
            lambda: SqueezeSpec(s=S_MAX * (1 + 1e-15)),
        ],
    )
    def test_non_finite_or_overflowing_fields_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("n", [2.5, 2.0, -1, np.float64(3.0)], ids=["2.5", "2.0", "negative", "float64"])
    def test_fock_n_must_be_a_nonnegative_integer(self, n):
        with pytest.raises(ValueError, match="fock_n"):
            StateSpec(StateKind.FOCK, fock_n=n)

    def test_numpy_integer_fock_n_accepted(self):
        spec = StateSpec(StateKind.FOCK, fock_n=np.int64(3))
        assert fock.build_fock_state(spec, n_max=5).coeffs[3] == 1.0

    def test_largest_squeeze_keeps_cosh_finite(self):
        s = SqueezeSpec(s=S_MAX).s
        assert np.isfinite(np.cosh(2 * s)) and np.isfinite(2 * np.sinh(s) ** 2)


class TestConstructors:
    def test_vacuum(self):
        st = coherent(ComplexAmplitude(0))
        assert np.allclose(st.d, 0)
        assert np.allclose(st.sigma, np.eye(2))

    def test_coherent_poisson(self):
        st = coherent(ComplexAmplitude(2.0))
        m = photon_moments(st)
        assert m.mean_p == pytest.approx(4.0)
        assert m.var_p == pytest.approx(4.0)  # Fano factor 1

    def test_coherent_pure(self):
        st = coherent(ComplexAmplitude(3.3, 0.2))
        # |det(k.sigma)| = prod(lambda^2): 1e-12 on it is 5e-13 on one lambda
        assert symplectic_eigenvalues(st) == pytest.approx([1.0], abs=5e-13)

    def test_bsmss_zero_squeeze_is_coherent(self):
        a = ComplexAmplitude(1.7, 0.3)
        st = make_bsmss(a, SqueezeSpec(s=0.0, theta=0.9))
        assert np.array_equal(st.d, [a.value, np.conj(a.value)])
        assert np.array_equal(st.sigma, np.eye(2))

    @pytest.mark.parametrize("squeeze", [SqueezeSpec(s=1.3, theta=0.4), SqueezeSpec(s=0.0, theta=2.0)])
    def test_coherent_source_ignores_a_squeeze_it_carries(self, squeeze):
        a = ComplexAmplitude(1.7, -2.3)
        st = make_source(StateSpec(StateKind.COHERENT, alpha=a, squeeze=squeeze))
        assert np.array_equal(st.d, [a.value, np.conj(a.value)])
        assert np.array_equal(st.sigma, np.eye(2))

    @pytest.mark.parametrize("theta", [0.0, 0.4, np.pi / 2, np.pi, -2.0])
    def test_bsmss_displacement_matches_the_generation_formula(self, theta):
        a, s = ComplexAmplitude.from_complex(1.5 - 0.8j), 0.9
        st = make_bsmss(a, SqueezeSpec(s=s, theta=theta))
        want = a.value * np.cosh(s) - np.conj(a.value) * np.exp(1j * theta) * np.sinh(s)
        assert abs(st.d[0] - want) <= 1e-14 * a.magnitude * np.exp(s)
        assert st.d[1] == np.conj(st.d[0])

    def test_squeezed_vacuum_mean_photons(self):
        st = make_bsmss(ComplexAmplitude(0), SqueezeSpec(s=1.0))
        assert photon_moments(st).mean_p == pytest.approx(SINH2_1, rel=1e-14)

    def test_bsmss_bright_fano(self):
        # amplitude squeezed (cos Theta = 1): Fano -> e^{-2s} in the bright limit
        s = 0.8
        st = make_bsmss(ComplexAmplitude(300.0), SqueezeSpec(s=s))
        m = photon_moments(st)
        assert m.var_p / m.mean_p == pytest.approx(np.exp(-2 * s), rel=1e-3)

    def test_btmss_zero_squeeze_is_coherent_product(self):
        st = make_btmss(
            ComplexAmplitude(1.0, 0.1), ComplexAmplitude(2.0, -0.4), SqueezeSpec(s=0.0)
        )
        m = photon_moments(st)
        assert m.cov_pa == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(st.sigma, np.eye(4))

    def test_vtmss_covariance_entries(self):
        s, th = 0.6, 0.9
        st = make_btmss(ComplexAmplitude(0), ComplexAmplitude(0), SqueezeSpec(s, th))
        m = photon_moments(st)
        assert m.mean_p == pytest.approx(np.sinh(s) ** 2, rel=1e-14)
        assert st.sigma[0, 3] == pytest.approx(-np.exp(1j * th) * np.sinh(2 * s))
        assert st.sigma[1, 2] == pytest.approx(-np.exp(1j * th) * np.sinh(2 * s))

    def test_btmss_stimulated_photon_closed_form(self):
        a, b, s, th = 1.0, 1.0, 0.5, np.pi
        st = make_btmss(ComplexAmplitude(a), ComplexAmplitude(b), SqueezeSpec(s, th))
        theta_c = th  # seeds are real
        expect = (
            a**2 * np.cosh(s) ** 2
            + b**2 * np.sinh(s) ** 2
            - a * b * np.cos(theta_c) * np.sinh(2 * s)
        )
        assert abs(st.d[0]) ** 2 == pytest.approx(expect, rel=1e-14)
        # total mean = stimulated + spontaneous; confirmed against the Fock oracle
        spec = StateSpec(
            StateKind.BTMSS,
            alpha=ComplexAmplitude(a),
            beta=ComplexAmplitude(b),
            squeeze=SqueezeSpec(s, th),
        )
        vec = fock.build_fock_state(spec, n_max=35)
        om = fock.oracle_moments(fock.pure_density(vec))
        assert om.mean_p == pytest.approx(expect + np.sinh(s) ** 2, abs=1e-8)


class TestLoss:
    def test_identity_channel(self):
        for st in random_states():
            out = apply_channel(st, ChannelConfig(T=1.0))
            assert np.allclose(out.d, st.d)
            assert np.allclose(out.sigma, st.sigma)

    def test_full_loss_gives_vacuum(self):
        st = make_bsmss(ComplexAmplitude(2.0), SqueezeSpec(s=1.0))
        out = apply_channel(st, ChannelConfig(T=0.0))
        assert np.allclose(out.d, 0)
        assert np.allclose(out.sigma, np.eye(2))

    def test_composition_law(self):
        for st in random_states():
            for t1, t2 in [(0.9, 0.7), (0.3, 0.5), (1.0, 0.2)]:
                a = apply_channel(apply_channel(st, ChannelConfig(T=t1)), ChannelConfig(T=t2))
                b = apply_channel(st, ChannelConfig(T=t1 * t2))
                assert np.max(np.abs(a.sigma - b.sigma)) < 1e-12
                assert np.max(np.abs(a.d - b.d)) < 1e-12

    def test_channel_scales_coherent_mean(self):
        ch = ChannelConfig(T=0.6, T_p=0.9, eta_p=0.8)
        st = apply_channel(coherent(ComplexAmplitude(2.0)), ch)
        assert photon_moments(st).mean_p == pytest.approx(0.6 * 0.9 * 0.8 * 4.0)

    def test_channel_composes_the_probe_losses(self):
        ch = ChannelConfig(T=0.6, T_p=0.9, eta_p=0.8, eta_a=0.7)
        for st in random_states():
            seq = lossy(lossy(lossy(st, 0, ch.T_p), 0, ch.T), 0, ch.eta_p)
            if st.modes == 2:
                seq = lossy(seq, 1, ch.eta_a)
            out = apply_channel(st, ch)
            assert np.max(np.abs(out.sigma - seq.sigma)) < 1e-14
            assert np.max(np.abs(out.d - seq.d)) < 1e-14

    def test_channel_all_unity_is_identity(self):
        st = random_states()[2]
        out = apply_channel(st, ChannelConfig(T=1.0))
        assert np.allclose(out.sigma, st.sigma)
        assert np.allclose(out.d, st.d)

    def test_operations_preserve_state_structure(self):
        for st in random_states():
            assert_physical(st)
            assert_physical(apply_channel(st, ChannelConfig(T=0.37)))
            if st.modes == 2:
                assert_physical(apply_channel(st, ChannelConfig(T=0.5, eta_a=0.7)))


class TestSymplectic:
    def test_two_mode_vacuum(self):
        st = make_btmss(ComplexAmplitude(0), ComplexAmplitude(0), SqueezeSpec(s=0.0))
        assert np.allclose(symplectic_eigenvalues(st), [1.0, 1.0])

    def test_pure_tmss_after_system_loss(self):
        s, T = 0.9, 0.4
        st = apply_channel(
            make_btmss(ComplexAmplitude(1), ComplexAmplitude(0), SqueezeSpec(s)), ChannelConfig(T=T)
        )
        lam = symplectic_eigenvalues(st)
        assert lam[0] == pytest.approx(1.0, abs=1e-10)
        assert lam[1] == pytest.approx(T + (1 - T) * np.cosh(2 * s), rel=1e-12)

    def test_uncertainty_bound(self):
        for st in random_states():
            out = apply_channel(st, ChannelConfig(T=0.3, T_p=0.8, eta_p=0.7, eta_a=0.6))
            assert np.min(symplectic_eigenvalues(out)) >= 1 - 1e-9

    def test_purity_before_loss(self):
        for st in random_states():
            # pure: every symplectic eigenvalue 1; 2.5e-10 each keeps |det(k.sigma)| of two modes within 1e-9 of 1
            assert symplectic_eigenvalues(st) == pytest.approx(np.ones(st.modes), abs=2.5e-10)

    def test_non_hermitian_rejected(self):
        st = random_states()[2]
        bad = st.sigma.copy()
        bad[0, 1] += 0.5
        with pytest.raises(ValueError):
            symplectic_eigenvalues(GaussianState(d=st.d, sigma=bad))

    def test_williamson_diagonalizes_sigma_and_k(self):
        channels = [ChannelConfig(T=1.0), ChannelConfig(T=0.3, T_p=0.8, eta_p=0.7, eta_a=0.6)]
        for st in [apply_channel(st, ch) for st in random_states() for ch in channels]:
            lam, W = williamson(st.sigma)
            W_inv = np.linalg.inv(W)
            assert np.allclose(W.conj().T @ st.sigma @ W, np.eye(2 * st.modes), rtol=0, atol=1e-12)
            assert np.allclose(W_inv @ k_matrix(st.modes) @ W_inv.conj().T, np.diag(lam), rtol=0, atol=1e-12)
            assert np.array_equal(lam, np.sort(lam))
            assert np.allclose(lam[: st.modes], -lam[st.modes :][::-1], rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "channel",
        [
            ChannelConfig(T=0.3, T_p=0.8, eta_p=0.7, eta_a=0.6),
            ChannelConfig(T=0.85, eta_a=0.95),
            ChannelConfig(T=0.5, T_p=0.9, eta_p=0.98, eta_a=0.0),
        ],
    )
    def test_spectrum_and_derivative_match_scipy(self, channel):
        # W's columns are right eigenvectors of k.sigma, so lam_i (W+ sigma_dot W)_ii is lam_i's first-order
        # shift; scipy's left and right eigenvectors give it independently
        from scipy import linalg

        spec = StateSpec(
            StateKind.BTMSS,
            alpha=ComplexAmplitude(2.0, 0.4),
            beta=ComplexAmplitude(1.5, -1.1),
            squeeze=SqueezeSpec(s=0.9, theta=2.0),
        )
        family = ParamFamily(spec, channel)
        sigma, sigma_dot = family.state_at(channel.T).sigma, family.derivatives_at(channel.T)[0]
        k = k_matrix(2)
        w, vl, vr = linalg.eig(k @ sigma, left=True, right=True)
        pos = [i for i in np.argsort(w.real) if w[i].real > 0]
        want_dot = [(vl[:, i].conj() @ k @ sigma_dot @ vr[:, i] / (vl[:, i].conj() @ vr[:, i])).real for i in pos]
        lam, W = williamson(sigma)
        lam_dot = lam * np.diagonal(W.conj().T @ sigma_dot @ W).real
        assert np.allclose(lam[2:], w.real[pos], rtol=1e-13, atol=0)
        assert np.allclose(lam_dot[2:], want_dot, rtol=1e-12, atol=1e-14)
        assert np.array_equal(symplectic_eigenvalues(GaussianState(d=np.zeros(4), sigma=sigma)), lam[2:])

    def test_stacked_spectrum_equals_one_call_per_matrix(self):
        spec = StateSpec(
            StateKind.BTMSS, alpha=ComplexAmplitude(2.0, 0.4), squeeze=SqueezeSpec(s=0.9, theta=2.0)
        )
        family = ParamFamily(spec, ChannelConfig(T_p=0.9, eta_p=0.95, eta_a=0.8))
        T = np.array([[0.2, 0.45], [0.7, 0.95]])
        sigma = family.state_at(T).sigma
        lam, W = williamson(sigma)
        assert lam.shape == (2, 2, 4) and W.shape == (2, 2, 4, 4)
        for i in np.ndindex(T.shape):
            one, one_W = williamson(sigma[i])
            assert np.array_equal(lam[i], one) and np.array_equal(W[i], one_W)

    def test_spectrum_without_pairs_rejected(self):
        # a sigma that is not positive definite: k.sigma has three negative eigenvalues here
        with pytest.raises(ValueError, match="not positive definite"):
            williamson(np.diag([-1.0, 1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="not positive definite"):
            williamson(np.stack([np.eye(4), np.diag([1.0, 1.0, 0.0, 1.0])]))


class TestMoments:
    @pytest.mark.parametrize(
        "spec",
        [
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
            StateSpec(StateKind.BTMSS, squeeze=SqueezeSpec(s=0.5)),
        ],
    )
    def test_agree_with_fock_oracle(self, spec):
        gm = photon_moments(make_source(spec))
        vec = fock.build_fock_state(spec, n_max=40)
        om = fock.oracle_moments(fock.pure_density(vec))
        for field in ("mean_p", "var_p", "mean_a", "var_a", "cov_pa"):
            assert abs(getattr(gm, field) - getattr(om, field)) < 1e-8

    def test_covariance_inequality(self):
        for st in random_states():
            m = photon_moments(st)
            if st.modes == 2 and m.var_p > 0 and m.var_a > 0:
                assert abs(m.cov_pa) <= np.sqrt(m.var_p * m.var_a) + 1e-12

    def test_fock_spec_rejected(self):
        with pytest.raises(ValueError):
            make_source(StateSpec(StateKind.FOCK, fock_n=3))
