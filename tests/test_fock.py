"""Tests for the truncated Fock-basis oracle."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

from qcrb_lab import fock
from qcrb_lab.gaussian import (
    ChannelConfig,
    ComplexAmplitude,
    SqueezeSpec,
    StateKind,
    StateSpec,
)
from qcrb_lab.qfi import ParamFamily, fisher_max, fock_qfi_lossy, lambda_lossy, qfi_gaussian


ROOT = Path(__file__).resolve().parents[1]


def coherent_spec(alpha):
    return StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(alpha))


def coherent_amplitudes(alpha, n_max):
    """Reference expansion of |alpha>: e^{-|alpha|^2/2} alpha^n / sqrt(n!)."""
    n = np.arange(n_max + 1)
    return np.exp(-abs(alpha) ** 2 / 2) * alpha**n / np.sqrt(special.factorial(n))


def seeded_btmss():
    return StateSpec(
        StateKind.BTMSS,
        alpha=ComplexAmplitude(0.8),
        beta=ComplexAmplitude(0.5, 1.0),
        squeeze=SqueezeSpec(s=0.4, theta=1.1),
    )


LOSSY = dict(T_p=0.9, eta_p=0.95, eta_a=0.9)


def gaussian_qfi(spec, channel):
    return qfi_gaussian(ParamFamily(spec, channel), channel.T).qfi


def loss_generator(rho):
    """Reference amplitude-damping generator on the probe mode, a rho a^+ - {a^+ a, rho}/2, as a dense matrix.

    Elementwise on the density tensor over the probe's row index i and column index j:
    (a rho a^+)[i, j] = sqrt((i+1)(j+1)) rho[i+1, j+1] and {a^+ a, rho}[i, j] = (i + j) rho[i, j].
    The loss channel is E_t = exp(-ln(t) L), so dE_t(rho)/dt = -L(E_t(rho)) / t.
    """
    dim = rho.n_max + 1
    t = dense(rho).reshape((dim,) * (2 * rho.modes))
    n = np.arange(dim, dtype=float)
    n_row = n.reshape((dim,) + (1,) * (t.ndim - 1))  # probe row: axis 0
    n_col = n.reshape((dim,) + (1,) * (rho.modes - 1))  # probe column: axis `modes`
    out = -0.5 * (n_row + n_col) * t
    lower = [slice(None)] * t.ndim
    upper = list(lower)
    lower[0] = lower[rho.modes] = slice(None, -1)
    upper[0] = upper[rho.modes] = slice(1, None)
    out[tuple(lower)] += np.sqrt(n_row * n_col)[tuple(upper)] * t[tuple(upper)]
    return out.reshape((dim**rho.modes,) * 2)


def dense(rho):
    """The density matrix W W^+ of a FockDensity, formed in full."""
    return rho.factor @ rho.factor.conj().T


# oracle_qfi against dense_oracle_qfi, relative, where rho has a kernel (test_properties.py states what its draws read)
FACTOR_TOL = 2e-12


def dense_oracle_qfi(rho, T):
    """The SLD sum with one eigendecomposition of the whole matrix, empty basis states included."""
    drho = -loss_generator(rho) / T
    p, U = np.linalg.eigh(dense(rho))
    M = np.abs(U.conj().T @ drho @ U)
    denom = p[:, None] + p[None, :]
    kept = denom > fock.PAIR_TOL
    return float(2.0 * np.sum(M[kept] ** 2 / denom[kept]))


def uncut_density(spec, channel, n_max, T=None):
    """channel_density's loss chain with every Kraus column kept: (n_max + 1)^2 columns when both modes lose."""
    c = fock.build_fock_state(spec, n_max=n_max)
    rho = fock.apply_loss_density(fock.pure_density(c), 0, channel.probe_transmission_at(channel.T if T is None else T))
    return fock.apply_loss_density(rho, 1, channel.eta_a) if c.ndim == 2 else rho


def kraus_loss(rho, mode, t):
    """Reference loss channel: sum_k K_k rho K_k^+ with full operator matrices on the two-mode basis."""
    dim = rho.n_max + 1
    amp = np.sqrt(fock.binomial_table(rho.n_max, t))
    m = dense(rho)
    out = np.zeros_like(m, dtype=complex)
    for k in range(dim):
        K = np.zeros((dim, dim))
        for n in range(k, dim):
            K[n - k, n] = amp[n, n - k]
        op = np.kron(K, np.eye(dim)) if mode == 0 else np.kron(np.eye(dim), K)
        out += op @ m @ op.T
    return out


class TestStateBuilders:
    def test_coherent_is_poissonian(self):
        vec = fock.build_fock_state(coherent_spec(1.5), n_max=30)
        probs = np.abs(vec) ** 2
        want = stats.poisson.pmf(np.arange(31), 1.5**2)
        assert np.max(np.abs(probs - want)) < 1e-12

    def test_smss_vacuum_even_photon_statistics(self):
        s = 0.7
        spec = StateSpec(StateKind.BSMSS, squeeze=SqueezeSpec(s=s))
        vec = fock.build_fock_state(spec, n_max=48)
        probs = np.abs(vec) ** 2
        assert np.all(probs[1::2] < 1e-25)  # odd terms vanish
        # closed form: |c_2m|^2 = (2m)! / (m!)^2 (tanh s / 2)^{2m} / cosh s
        m = np.arange(25)
        from scipy.special import gammaln

        logw = (
            gammaln(2 * m + 1)
            - 2 * gammaln(m + 1)
            + 2 * m * np.log(np.tanh(s) / 2.0)
            - np.log(np.cosh(s))
        )
        assert np.max(np.abs(probs[0::2] - np.exp(logw))) < 1e-10

    def test_vtmss_twin_beam_correlation(self):
        spec = StateSpec(StateKind.BTMSS, squeeze=SqueezeSpec(s=0.8))
        vec = fock.build_fock_state(spec, n_max=30)
        probs = np.abs(vec) ** 2
        off_diag = probs - np.diag(np.diag(probs))
        assert off_diag.max() < 1e-25  # perfectly photon-number correlated
        diag = np.diag(probs)
        lam = np.tanh(0.8) ** 2
        want = (1 - lam) * lam ** np.arange(31)  # thermal marginal
        assert np.max(np.abs(diag - want)) < 1e-10

    def test_btmss_reduces_to_coherent_at_zero_squeeze(self):
        spec = StateSpec(
            StateKind.BTMSS,
            alpha=ComplexAmplitude(1.2),
            beta=ComplexAmplitude(0.7, 0.5),
            squeeze=SqueezeSpec(s=0.0),
        )
        vec = fock.build_fock_state(spec, n_max=25)
        want = np.outer(
            fock.build_fock_state(coherent_spec(1.2), 25),
            coherent_amplitudes(ComplexAmplitude(0.7, 0.5).value, 25),
        )
        assert np.max(np.abs(vec - want)) < 1e-12

    def test_truncation_guard(self):
        with pytest.raises(fock.TruncationError):
            fock.build_fock_state(coherent_spec(4.0), n_max=12)
        with pytest.raises(fock.TruncationError):
            fock.build_fock_state(StateSpec(StateKind.FOCK, fock_n=10), n_max=11)

    @pytest.mark.parametrize("alpha", [1.5, ComplexAmplitude(2.2, -0.7).value], ids=["real", "complex"])
    def test_coherent_is_the_reference_expansion(self, alpha):
        spec = StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude.from_complex(alpha), squeeze=SqueezeSpec(s=0.9))
        vec = fock.build_fock_state(spec, n_max=35)
        assert np.max(np.abs(vec - coherent_amplitudes(alpha, 35))) < 1e-15

    @pytest.mark.parametrize("kind", [StateKind.COHERENT, StateKind.BSMSS])
    def test_overflowing_expansion_refused(self, kind):
        # alpha^n / sqrt(n!) stays finite to n = 90 but its norm overflows: the coefficients
        # come back all zero, and only the renormalization's 0/0 lets _check_tail see it
        spec = StateSpec(kind, alpha=ComplexAmplitude(355.0))
        with pytest.raises(fock.TruncationError, match="nan"):
            fock.build_fock_state(spec, n_max=90)

    @pytest.mark.parametrize("n_max", [-1, 0, 1, 2.5])
    @pytest.mark.parametrize(
        "spec",
        [
            StateSpec(StateKind.FOCK, fock_n=0),
            coherent_spec(0.5),
            StateSpec(StateKind.BSMSS, alpha=ComplexAmplitude(0.5), squeeze=SqueezeSpec(s=0.3)),
            seeded_btmss(),
        ],
        ids=["fock", "coherent", "bsmss", "btmss"],
    )
    def test_refuses_an_n_max_that_holds_no_state(self, spec, n_max):
        with pytest.raises(ValueError, match="n_max") as info:
            fock.build_fock_state(spec, n_max=n_max)
        assert not isinstance(info.value, fock.TruncationError)

    def test_numpy_integer_n_max_accepted(self):
        vec = fock.build_fock_state(StateSpec(StateKind.FOCK, fock_n=0), n_max=np.int64(2))
        assert vec.tolist() == [1.0, 0.0, 0.0]

    def test_fock_state_vector(self):
        vec = fock.build_fock_state(StateSpec(StateKind.FOCK, fock_n=3), n_max=10)
        assert vec[3] == 1.0
        assert np.sum(np.abs(vec)) == 1.0

    @pytest.mark.parametrize(
        "spec, dtype",
        [
            (StateSpec(StateKind.FOCK, fock_n=3), np.float64),
            (coherent_spec(1.5), np.float64),
            (StateSpec(StateKind.BTMSS, squeeze=SqueezeSpec(s=0.5, theta=0.0)), np.float64),
            (StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(1.5, 0.7)), np.complex128),
            (StateSpec(StateKind.BSMSS, alpha=ComplexAmplitude(1.0), squeeze=SqueezeSpec(s=0.5, theta=0.7)), np.complex128),
            (StateSpec(StateKind.BTMSS, squeeze=SqueezeSpec(s=0.5, theta=1.1)), np.complex128),
        ],
        ids=["fock", "coherent", "vtmss", "coherent-rotated", "bsmss-rotated", "vtmss-rotated"],
    )
    def test_a_real_expansion_stays_real(self, spec, dtype):
        vec = fock.build_fock_state(spec, n_max=40)
        assert vec.dtype == dtype
        assert vec.flags.c_contiguous


class TestLossChannel:
    def test_trace_preserved(self):
        vec = fock.build_fock_state(coherent_spec(1.3), n_max=25)
        for t in (0.0, 0.3, 1.0):
            rho = fock.apply_loss_density(fock.pure_density(vec), 0, t)
            assert np.trace(dense(rho)).real == pytest.approx(1.0, abs=1e-10)

    def test_fock_loss_is_binomial(self):
        n, t = 6, 0.55
        vec = fock.build_fock_state(StateSpec(StateKind.FOCK, fock_n=n), n_max=10)
        rho = fock.apply_loss_density(fock.pure_density(vec), 0, t)
        diag = np.real(np.diag(dense(rho)))
        want = stats.binom.pmf(np.arange(11), n, t)
        assert np.max(np.abs(diag - want)) < 1e-13

    def test_coherent_stays_coherent(self):
        alpha, t = 1.4, 0.6
        vec = fock.build_fock_state(coherent_spec(alpha), n_max=30)
        rho = fock.apply_loss_density(fock.pure_density(vec), 0, t)
        out = coherent_amplitudes(alpha * np.sqrt(t), 30)
        want = np.outer(out, out.conj())
        assert np.max(np.abs(dense(rho) - want)) < 1e-12

    def test_two_mode_loss_composition(self):
        spec = StateSpec(
            StateKind.BTMSS, alpha=ComplexAmplitude(0.8), squeeze=SqueezeSpec(s=0.6)
        )
        vec = fock.build_fock_state(spec, n_max=28)
        rho = fock.pure_density(vec)
        a = fock.apply_loss_density(fock.apply_loss_density(rho, 0, 0.8), 0, 0.5)
        b = fock.apply_loss_density(rho, 0, 0.4)
        assert np.max(np.abs(dense(a) - dense(b))) < 1e-12

    def test_aux_loss_leaves_probe_marginal(self):
        spec = StateSpec(StateKind.BTMSS, squeeze=SqueezeSpec(s=0.7))
        vec = fock.build_fock_state(spec, n_max=24)
        rho0 = fock.apply_loss_density(fock.pure_density(vec), 0, 0.9)
        rho1 = fock.apply_loss_density(rho0, 1, 0.5)
        m0, m1 = fock.oracle_moments(rho0), fock.oracle_moments(rho1)
        assert m1.mean_p == pytest.approx(m0.mean_p, abs=1e-10)
        assert m1.mean_a == pytest.approx(0.5 * m0.mean_a, rel=1e-10)

    def test_twin_beam_lost_photon_budget(self):
        # after loss t on the probe, Var(n_p - n_a) equals the binomial
        # leakage (1-t)^2 Var(n0) + t(1-t) <n0> of the perfectly
        # correlated twin beam
        s, t = 0.8, 0.7
        spec = StateSpec(StateKind.BTMSS, squeeze=SqueezeSpec(s=s))
        vec = fock.build_fock_state(spec, n_max=30)
        m = fock.oracle_moments(fock.apply_loss_density(fock.pure_density(vec), 0, t))
        var_diff = m.var_p + m.var_a - 2 * m.cov_pa
        n0 = np.sinh(s) ** 2
        var0 = n0 * (n0 + 1)  # thermal marginal
        want = (1 - t) ** 2 * var0 + t * (1 - t) * n0
        assert var_diff == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("mode", [0, 1])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_equals_the_kraus_sum(self, mode, dtype):
        rng = np.random.default_rng(11)
        c = rng.normal(size=(5, 5)) + (1j * rng.normal(size=(5, 5)) if dtype is complex else 0.0)
        rho = fock.pure_density(c / np.linalg.norm(c))
        got = fock.apply_loss_density(rho, mode, 0.35)
        assert dense(got).dtype == dtype
        assert np.max(np.abs(dense(got) - kraus_loss(rho, mode, 0.35))) <= 1e-15

    def test_aux_loss_is_the_probe_loss_on_swapped_modes(self):
        # same arithmetic on the same numbers: the auxiliary call reads and writes its own axes
        rho = fock.apply_loss_density(fock.pure_density(fock.build_fock_state(seeded_btmss(), n_max=20)), 0, 0.4)
        dim = rho.n_max + 1

        def swap(m):
            return m.reshape((dim,) * 4).transpose(1, 0, 3, 2).reshape(m.shape)

        def swap_rows(w):
            return w.reshape(dim, dim, -1).transpose(1, 0, 2).reshape(w.shape)

        swapped = fock.FockDensity(factor=swap_rows(rho.factor), n_max=rho.n_max, modes=2)
        aux, probe = fock.apply_loss_density(rho, 1, 0.7), fock.apply_loss_density(swapped, 0, 0.7)
        assert np.array_equal(aux.factor, swap_rows(probe.factor))
        assert np.array_equal(dense(aux), swap(dense(probe)))


class TestOracleQFI:
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_fock_reaches_ultimate_bound(self, n):
        T = 0.5
        got = fock.oracle_qfi(
            lambda t: fock.channel_density(
                StateSpec(StateKind.FOCK, fock_n=n), ChannelConfig(T=T), n_max=n + 2, T=t
            ),
            T,
        )
        assert got == pytest.approx(fisher_max(n, T), rel=1e-5)

    def test_matches_per_photon_bound_with_losses(self):
        ch = ChannelConfig(T=0.35, T_p=0.9, eta_p=0.95)
        spec = StateSpec(StateKind.FOCK, fock_n=4)
        got = fock.oracle_qfi(
            lambda t: fock.channel_density(spec, ch, n_max=6, T=t), 0.35
        )
        assert got == pytest.approx(fock_qfi_lossy(4, ch).qfi, rel=1e-5)

    def test_coherent_qfi(self):
        T = 0.6
        got = fock.oracle_qfi(
            lambda t: fock.channel_density(
                coherent_spec(2.0), ChannelConfig(T=T), n_max=30, T=t
            ),
            T,
        )
        assert got == pytest.approx(4.0 / T, rel=1e-5)

    def test_vtmss_qfi_saturates_bound(self):
        T, s = 0.5, 0.6
        spec = StateSpec(StateKind.BTMSS, squeeze=SqueezeSpec(s=s))
        got = fock.oracle_qfi(
            lambda t: fock.channel_density(spec, ChannelConfig(T=T), n_max=28, T=t), T
        )
        assert got == pytest.approx(fisher_max(np.sinh(s) ** 2, T), rel=1e-5)

    def test_lossy_squeezed_vacuum_matches_closed_lambda(self):
        # the vTMSS with aux losses: oracle vs general Gaussian machinery
        from qcrb_lab.qfi import ParamFamily, qfi_gaussian

        T = 0.45
        ch = ChannelConfig(T=T, T_p=0.9, eta_p=0.95, eta_a=0.9)
        spec = StateSpec(StateKind.BTMSS, squeeze=SqueezeSpec(s=0.5))
        got = fock.oracle_qfi(
            lambda t: fock.channel_density(spec, ch, n_max=26, T=t), T
        )
        want = qfi_gaussian(ParamFamily(spec, ch), T).qfi
        assert got == pytest.approx(want, rel=1e-5)

    def test_seeded_btmss_matches_gaussian_qfi(self):
        # no conserved number: the oracle is one dense eigendecomposition
        from qcrb_lab.qfi import ParamFamily, qfi_gaussian

        T = 0.45
        ch = ChannelConfig(T=T, T_p=0.9, eta_p=0.95, eta_a=0.9)
        got = fock.oracle_qfi(
            lambda t: fock.channel_density(seeded_btmss(), ch, n_max=22, T=t), T
        )
        want = qfi_gaussian(ParamFamily(seeded_btmss(), ch), T).qfi
        assert got == pytest.approx(want, rel=1e-5)

    @pytest.mark.parametrize(
        "spec, channel_kw, n_max, want",
        [  # the battery's lossless points against closed forms, then lossy points against qfi_gaussian
            (StateSpec(StateKind.FOCK, fock_n=1), {}, 3, lambda spec, ch: fisher_max(1, ch.T)),
            (StateSpec(StateKind.FOCK, fock_n=2), {}, 4, lambda spec, ch: fisher_max(2, ch.T)),
            (StateSpec(StateKind.FOCK, fock_n=5), {}, 7, lambda spec, ch: fisher_max(5, ch.T)),
            (coherent_spec(2.0), {}, 30, lambda spec, ch: 4.0 / ch.T),
            (
                StateSpec(StateKind.BTMSS, squeeze=SqueezeSpec(s=0.6)),
                {},
                28,
                lambda spec, ch: fisher_max(np.sinh(0.6) ** 2, ch.T),
            ),
            (StateSpec(StateKind.BTMSS, squeeze=SqueezeSpec(s=0.6)), LOSSY, 28, gaussian_qfi),
            (
                StateSpec(StateKind.BSMSS, alpha=ComplexAmplitude(1.0), squeeze=SqueezeSpec(s=0.4)),
                LOSSY,
                40,
                gaussian_qfi,
            ),
            (coherent_spec(2.0), LOSSY, 30, gaussian_qfi),
        ],
        ids=["fock1", "fock2", "fock5", "coherent", "vtmss", "lossy-vtmss", "lossy-bsmss", "lossy-coherent"],
    )
    def test_agrees_with_closed_forms_and_the_gaussian_qfi(self, spec, channel_kw, n_max, want):
        # worst seen: 3.4e-12 lossless (vacuum TMSS), 5.8e-12 / 7.4e-13 / 2.9e-15 lossy
        for T in (0.2, 0.5, 0.8):
            ch = ChannelConfig(T=T, **channel_kw)
            got = fock.oracle_qfi(lambda t: fock.channel_density(spec, ch, n_max=n_max, T=t), T)
            assert got == pytest.approx(want(spec, ch), rel=2e-11, abs=0)

    def test_calls_rho_of_T_once(self):
        spec = StateSpec(StateKind.FOCK, fock_n=3)
        calls = []

        def rho_of_T(t):
            calls.append(t)
            return fock.channel_density(spec, ChannelConfig(T=0.45, T_p=0.9), n_max=5, T=t)

        fock.oracle_qfi(rho_of_T, 0.45)
        assert calls == [0.45]

    @pytest.mark.parametrize("T", [0.0, -0.2, 1.5, float("nan"), float("inf")])
    def test_rejects_transmission_outside_unit_interval(self, T):
        def rho_of_T(t):
            raise AssertionError("rho_of_T called")

        with pytest.raises(ValueError, match="outside"):
            fock.oracle_qfi(rho_of_T, T)

    @pytest.mark.parametrize("square", [False, True], ids=["built", "square"])
    @pytest.mark.parametrize(
        "spec, channel, n_max",
        [
            (StateSpec(StateKind.FOCK, fock_n=4), ChannelConfig(T=1.0), 6),
            (StateSpec(StateKind.BTMSS, squeeze=SqueezeSpec(s=0.4)), ChannelConfig(T=1.0), 20),
            (StateSpec(StateKind.BTMSS, squeeze=SqueezeSpec(s=0.4)), ChannelConfig(T=1.0, eta_a=0.8), 20),
        ],
        ids=["fock", "vtmss", "vtmss-lossy-aux"],
    )
    def test_refuses_a_derivative_outside_the_support(self, spec, channel, n_max, square):
        # a lossless probe at T = 1 that L moves off its support: the true QFI diverges (|4> goes to |3>,
        # where the finite sum would read n^2 = 16).  Each factor here is thin, at most one column per auxiliary
        # photon lost; padded with zero columns to a square, the same rho is refused too
        def rho_of_T(t):
            rho = fock.channel_density(spec, channel, n_max=n_max, T=t)
            rows, cols = rho.factor.shape
            assert cols < rows
            return replace(rho, factor=np.pad(rho.factor, ((0, 0), (0, rows - cols)))) if square else rho

        with pytest.raises(ValueError, match="support"):
            fock.oracle_qfi(rho_of_T, 1.0)

    def test_a_square_factor_equals_the_dense_sum(self):
        # uncut, a lossy auxiliary mode makes W square, rho's size: the one square two-mode factor whose QFI is tested
        ch = ChannelConfig(T=0.45, T_p=0.9, eta_p=0.95, eta_a=0.8)
        rho = uncut_density(seeded_btmss(), ch, n_max=20)
        assert rho.factor.shape == (21**2, 21**2)
        got = fock.oracle_qfi(lambda t: uncut_density(seeded_btmss(), ch, n_max=20, T=t), ch.T)
        want = dense_oracle_qfi(rho, ch.T)
        assert abs(got - want) <= FACTOR_TOL * want

    @pytest.mark.parametrize("T", [0.2, 0.5, 0.8])
    def test_factor_route_equals_the_dense_sum(self, T):
        # lossless auxiliary: one Kraus column per probe photon lost, so W is thin and takes the SVD; the higher
        # T, the fewer photons the probe loses, and the more columns carry neither weight nor derivative
        spec = StateSpec(StateKind.BTMSS, squeeze=SqueezeSpec(s=0.6))
        ch = ChannelConfig(T=T, T_p=0.9, eta_p=0.95)
        rho = fock.channel_density(spec, ch, n_max=28)
        assert rho.factor.shape == (29**2, {0.2: 29, 0.5: 26, 0.8: 21}[T])
        got = fock.oracle_qfi(lambda t: fock.channel_density(spec, ch, n_max=28, T=t), T)
        assert got == pytest.approx(dense_oracle_qfi(rho, T), rel=1e-13, abs=0)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_empty_basis_states_leave_the_qfi(self, n):
        spec = StateSpec(StateKind.FOCK, fock_n=n)
        ch = ChannelConfig(T=0.35, T_p=0.9, eta_p=0.95)
        tight, padded = (
            fock.oracle_qfi(lambda t, m=m: fock.channel_density(spec, ch, n_max=m, T=t), ch.T)
            for m in (n + 2, n + 8)
        )
        assert padded == pytest.approx(tight, rel=1e-14, abs=0)
        assert tight == pytest.approx(fock_qfi_lossy(n, ch).qfi, rel=1e-12)

    def test_lossless_coherent_state_at_unit_transmission(self):
        # pure, but its derivative stays inside the support: F = |alpha|^2 / T
        got = fock.oracle_qfi(
            lambda t: fock.channel_density(coherent_spec(2.0), ChannelConfig(T=1.0), n_max=30, T=t),
            1.0,
        )
        assert got == pytest.approx(4.0, rel=1e-9)

    @pytest.mark.parametrize(
        "real, rotated, n_max",
        [
            (
                StateSpec(StateKind.BTMSS, squeeze=SqueezeSpec(s=0.5, theta=0.0)),
                StateSpec(StateKind.BTMSS, squeeze=SqueezeSpec(s=0.5, theta=1.1)),
                22,
            ),
            (coherent_spec(2.0), StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(2.0, 0.7)), 30),
        ],
        ids=["vtmss", "coherent"],
    )
    def test_phase_rotation_leaves_the_qfi(self, real, rotated, n_max):
        # the real factor takes the real SVD, the rotated one the complex
        ch = ChannelConfig(T=0.45, T_p=0.9, eta_p=0.95, eta_a=0.8)
        rhos = [fock.channel_density(spec, ch, n_max=n_max) for spec in (real, rotated)]
        assert not dense(rhos[0]).imag.any() and dense(rhos[1]).imag.any()
        a, b = (fock.oracle_qfi(lambda t, spec=spec: fock.channel_density(spec, ch, n_max=n_max, T=t), ch.T)
                for spec in (real, rotated))
        assert a == pytest.approx(b, rel=1e-9)


class TestKrausCut:
    @pytest.mark.parametrize(
        "spec, channel, n_max",
        [
            (seeded_btmss(), ChannelConfig(T=0.45, T_p=0.9, eta_p=0.95, eta_a=0.8), 20),
            (seeded_btmss(), ChannelConfig(T=0.999, eta_a=0.8), 20),
            (StateSpec(StateKind.FOCK, fock_n=3), ChannelConfig(T=0.6, T_p=0.9), 8),
            (coherent_spec(2.0), ChannelConfig(T=0.8), 30),
        ],
        ids=["btmss", "btmss-near-lossless-probe", "fock", "coherent"],
    )
    def test_the_dropped_columns_carry_at_most_kraus_tol(self, spec, channel, n_max):
        # the weight and the central-difference derivative of the columns channel_density drops.  Near t_p = 1 a
        # column of weight 4e-17 has 4 |dw/dT|^2 = 3.6e-10 (btmss-near-lossless-probe), so weight alone would drop it
        w = uncut_density(spec, channel, n_max=n_max).factor
        h = 1e-7  # the central difference errs by at most 2.4e-7 per column here, against the 1e-4 allowed below
        dw = (uncut_density(spec, channel, n_max, T=channel.T + h).factor
              - uncut_density(spec, channel, n_max, T=channel.T - h).factor) / (2 * h)
        kept = fock.channel_density(spec, channel, n_max=n_max).factor
        dropped, j = [], 0  # the kept columns are copies of the uncut ones, in their order
        for i in range(w.shape[1]):
            if j < kept.shape[1] and np.array_equal(w[:, i], kept[:, j]):
                j += 1
            else:
                dropped.append(i)
        assert j == kept.shape[1] and dropped
        assert np.sum(np.abs(w[:, dropped]) ** 2) <= fock.KRAUS_TOL
        assert 4.0 * np.sum(np.abs(dw[:, dropped]) ** 2) <= fock.KRAUS_TOL * (1.0 + 1e-4)

    def test_keeps_every_column_at_zero_transmission(self):
        # dw/dT is unbounded at T = 0
        ch = ChannelConfig(T=0.0, eta_a=0.8)
        got = fock.channel_density(seeded_btmss(), ch, n_max=20).factor
        assert np.array_equal(got, uncut_density(seeded_btmss(), ch, n_max=20).factor)


class TestLossGenerator:
    @pytest.mark.parametrize(
        "spec, channel, n_max",
        [
            (StateSpec(StateKind.FOCK, fock_n=4), ChannelConfig(T=0.4, T_p=0.9, eta_p=0.95), 6),
            (
                StateSpec(StateKind.BTMSS, squeeze=SqueezeSpec(s=0.5)),
                ChannelConfig(T=0.4, T_p=0.9, eta_p=0.95, eta_a=0.8),
                20,
            ),
            (seeded_btmss(), ChannelConfig(T=0.4, T_p=0.9, eta_p=0.95, eta_a=0.8), 20),
        ],
        ids=["fock", "vtmss", "btmss"],
    )
    def test_equals_a_step_halved_central_difference(self, spec, channel, n_max):
        T = channel.T
        rho = fock.channel_density(spec, channel, n_max=n_max)
        exact = -loss_generator(rho) / T
        scale = np.max(np.abs(exact))

        def central(h):
            up = dense(fock.channel_density(spec, channel, n_max=n_max, T=T + h))
            down = dense(fock.channel_density(spec, channel, n_max=n_max, T=T - h))
            return (up - down) / (2 * h)

        coarse, fine = central(1e-3), central(5e-4)
        # O(h^2): halving the step quarters the gap, and the extrapolation closes it
        assert np.max(np.abs(fine - exact)) <= 1e-5 * scale
        assert np.max(np.abs((4 * fine - coarse) / 3 - exact)) <= 1e-10 * scale


class TestBinomial:
    @pytest.mark.parametrize("t", [1e-5, 0.1, 0.37, 0.5, 0.9, 0.999])
    def test_pmf_matches_exact_rationals(self, t):
        # each row of the table is the binomial pmf of its photon number
        ft = Fraction(t)
        table = fock.binomial_table(200, t)
        for n in (0, 1, 7, 90, 200):
            got = table[n, : n + 1]
            want = np.array(
                [float(math.comb(n, k) * ft**k * (1 - ft) ** (n - k)) for k in range(n + 1)]
            )
            normal = want > 1e-300
            assert np.all(np.abs(got[normal] - want[normal]) <= 1e-13 * want[normal])

    @pytest.mark.parametrize("t", [0.01, 0.1, 0.37, 0.5, 0.9, 0.98])
    def test_table_matches_scipy_binom(self, t):
        # scipy's own pmf is 7.1e-13 off the exact value at k=0, n=90, t=0.1
        table = fock.binomial_table(200, t)
        for n in range(201):
            want = stats.binom.pmf(np.arange(n + 1), n, t)
            got = table[n, : n + 1]
            normal = want > 1e-300
            assert np.all(np.abs(got[normal] - want[normal]) <= 1e-12 * want[normal])
            assert not np.any(table[n, n + 1 :])

    @pytest.mark.parametrize("t", [-0.1, 1.2, float("nan")])
    def test_rejects_transmission_outside_unit_interval(self, t):
        rho = fock.pure_density(fock.build_fock_state(coherent_spec(0.5), n_max=12))
        with pytest.raises(ValueError):
            fock.binomial_table(5, t)
        with pytest.raises(ValueError):
            fock.apply_loss_density(rho, 0, t)

    def test_library_import_leaves_out_scipy_stats(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        # no scipy module at all: the library runs on numpy alone
        code = (
            "import sys, qcrb_lab.cli; "
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "sys.exit('loaded ' + ', '.join(loaded) if loaded else 0)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr


class TestThinnedProbs:
    @pytest.mark.parametrize(
        "spec, n_max",
        [
            (StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(1.4, 0.3)), 30),
            (
                StateSpec(
                    StateKind.BSMSS,
                    alpha=ComplexAmplitude(1.0, 0.2),
                    squeeze=SqueezeSpec(s=0.5, theta=0.7),
                ),
                40,
            ),
            (StateSpec(StateKind.FOCK, fock_n=5), 7),
            (seeded_btmss(), 24),
            (StateSpec(StateKind.BTMSS, squeeze=SqueezeSpec(s=0.5)), 24),
        ],
        ids=["coherent", "bsmss", "fock", "btmss", "vtmss"],
    )
    def test_equal_the_density_diagonal(self, spec, n_max):
        ch = ChannelConfig(T=0.45, T_p=0.9, eta_p=0.95, eta_a=0.8)
        rho = fock.channel_density(spec, ch, n_max=n_max)
        got = fock.channel_probs(spec, ch, n_max=n_max)
        want = np.real(np.diag(dense(rho))).reshape(got.shape)
        assert np.max(np.abs(got - want)) <= 1e-15
        om, cm = fock.oracle_moments(rho), fock.count_moments(got)
        for field in ("mean_p", "var_p", "mean_a", "var_a", "cov_pa"):
            assert getattr(cm, field) == pytest.approx(getattr(om, field), abs=1e-13)

    @pytest.mark.parametrize(
        "spec, n_max",
        [
            (StateSpec(StateKind.FOCK, fock_n=5), 7),
            (StateSpec(StateKind.BTMSS, squeeze=SqueezeSpec(s=0.5)), 24),
        ],
        ids=["fock", "vtmss"],
    )
    @pytest.mark.parametrize("T", [1.0, 0.45])
    def test_a_real_expansion_gives_the_complex_bits(self, spec, n_max, T):
        # a lossy coherent state's counts may move by an ulp: test_lossy_coherent_counts_from_a_real_expansion
        ch = ChannelConfig(T=T, T_p=0.9, eta_p=0.95, eta_a=0.8)
        vec = fock.build_fock_state(spec, n_max=n_max)
        assert vec.dtype == np.float64
        c = vec.astype(complex)
        want = fock.binomial_table(n_max, ch.probe_transmission).T @ (c * c.conj()).real
        if vec.ndim == 2:
            want = want @ fock.binomial_table(n_max, ch.eta_a)
        assert np.array_equal(fock.channel_probs(spec, ch, n_max=n_max), want)

    @pytest.mark.parametrize("T", [1.0, 0.45])
    def test_lossy_coherent_counts_from_a_real_expansion(self, T):
        # thinned by t, a coherent state's counts are Poisson(t |alpha|^2)
        ch = ChannelConfig(T=T, T_p=0.9, eta_p=0.95, eta_a=0.8)
        vec = fock.build_fock_state(coherent_spec(1.4), n_max=30)
        assert vec.dtype == np.float64
        got = fock.channel_probs(coherent_spec(1.4), ch, n_max=30)
        poisson = stats.poisson.pmf(np.arange(31), ch.probe_transmission * 1.4**2)
        assert np.max(np.abs(got - poisson)) <= 1e-15
        # the complex form of the same expansion: within an ulp here
        c = vec.astype(complex)
        want = fock.binomial_table(30, ch.probe_transmission).T @ (c * c.conj()).real
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))

    def test_unit_transmission_keeps_the_state(self):
        vec = fock.build_fock_state(seeded_btmss(), n_max=20)
        rho = fock.pure_density(vec)
        assert fock.apply_loss_density(rho, 1, 1.0) is rho
        probs = fock.channel_probs(seeded_btmss(), ChannelConfig(T=1.0), n_max=20)
        assert np.allclose(probs, np.abs(vec) ** 2, rtol=1e-15, atol=0)
