"""Tests for the truncated Fock-basis oracle."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from qcrb_lab import fock
from qcrb_lab.gaussian import (
    ChannelConfig,
    ComplexAmplitude,
    SqueezeSpec,
    StateKind,
    StateSpec,
)
from qcrb_lab.qfi import fisher_max, fock_qfi_lossy, lambda_lossy


ROOT = Path(__file__).resolve().parents[1]


def coherent_spec(alpha):
    return StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(alpha))


def seeded_btmss():
    return StateSpec(
        StateKind.BTMSS,
        alpha=ComplexAmplitude(0.8),
        beta=ComplexAmplitude(0.5, 1.0),
        squeeze=SqueezeSpec(s=0.4, theta=1.1),
    )


class TestStateBuilders:
    def test_coherent_is_poissonian(self):
        vec = fock.build_fock_state(coherent_spec(1.5), n_max=30)
        probs = np.abs(vec.coeffs) ** 2
        want = stats.poisson.pmf(np.arange(31), 1.5**2)
        assert np.max(np.abs(probs - want)) < 1e-12

    def test_smss_vacuum_even_photon_statistics(self):
        s = 0.7
        spec = StateSpec(StateKind.BSMSS, squeeze=SqueezeSpec(s=s))
        vec = fock.build_fock_state(spec, n_max=48)
        probs = np.abs(vec.coeffs) ** 2
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
        probs = np.abs(vec.coeffs) ** 2
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
            fock.build_fock_state(coherent_spec(1.2), 25).coeffs,
            fock._coherent_coeffs(ComplexAmplitude(0.7, 0.5).value, 25),
        )
        assert np.max(np.abs(vec.coeffs - want)) < 1e-12

    def test_truncation_guard(self):
        with pytest.raises(fock.TruncationError):
            fock.build_fock_state(coherent_spec(4.0), n_max=12)
        with pytest.raises(fock.TruncationError):
            fock.build_fock_state(StateSpec(StateKind.FOCK, fock_n=10), n_max=11)

    def test_fock_state_vector(self):
        vec = fock.build_fock_state(StateSpec(StateKind.FOCK, fock_n=3), n_max=10)
        assert vec.coeffs[3] == 1.0
        assert np.sum(np.abs(vec.coeffs)) == 1.0


class TestLossChannel:
    def test_trace_preserved(self):
        vec = fock.build_fock_state(coherent_spec(1.3), n_max=25)
        for t in (0.0, 0.3, 1.0):
            rho = fock.apply_loss_density(fock.pure_density(vec), 0, t)
            assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-10)

    def test_fock_loss_is_binomial(self):
        n, t = 6, 0.55
        vec = fock.build_fock_state(StateSpec(StateKind.FOCK, fock_n=n), n_max=10)
        rho = fock.apply_loss_density(fock.pure_density(vec), 0, t)
        diag = np.real(np.diag(rho.matrix))
        want = stats.binom.pmf(np.arange(11), n, t)
        assert np.max(np.abs(diag - want)) < 1e-13

    def test_coherent_stays_coherent(self):
        alpha, t = 1.4, 0.6
        vec = fock.build_fock_state(coherent_spec(alpha), n_max=30)
        rho = fock.apply_loss_density(fock.pure_density(vec), 0, t)
        out = fock._coherent_coeffs(alpha * np.sqrt(t), 30)
        want = np.outer(out, out.conj())
        assert np.max(np.abs(rho.matrix - want)) < 1e-12

    def test_two_mode_loss_composition(self):
        spec = StateSpec(
            StateKind.BTMSS, alpha=ComplexAmplitude(0.8), squeeze=SqueezeSpec(s=0.6)
        )
        vec = fock.build_fock_state(spec, n_max=28)
        rho = fock.pure_density(vec)
        a = fock.apply_loss_density(fock.apply_loss_density(rho, 0, 0.8), 0, 0.5)
        b = fock.apply_loss_density(rho, 0, 0.4)
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12

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

    def test_matches_binomial_sum_with_losses(self):
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

    def test_refuses_a_derivative_outside_the_support(self):
        # a lossless Fock state at T = 1 is pure and L moves it to |n-1>:
        # the true QFI diverges, and the finite sum would read n^2 = 16
        spec = StateSpec(StateKind.FOCK, fock_n=4)
        with pytest.raises(ValueError, match="support"):
            fock.oracle_qfi(
                lambda t: fock.channel_density(spec, ChannelConfig(T=1.0), n_max=6, T=t), 1.0
            )

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
        # the real density takes the real eigensolver, the rotated one the complex
        ch = ChannelConfig(T=0.45, T_p=0.9, eta_p=0.95, eta_a=0.8)
        rhos = [fock.channel_density(spec, ch, n_max=n_max) for spec in (real, rotated)]
        assert not rhos[0].matrix.imag.any() and rhos[1].matrix.imag.any()
        a, b = (fock.oracle_qfi(lambda t, spec=spec: fock.channel_density(spec, ch, n_max=n_max, T=t), ch.T)
                for spec in (real, rotated))
        assert a == pytest.approx(b, rel=1e-9)


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
        exact = -fock.loss_generator(rho).matrix / T
        scale = np.max(np.abs(exact))

        def central(h):
            up = fock.channel_density(spec, channel, n_max=n_max, T=T + h).matrix
            down = fock.channel_density(spec, channel, n_max=n_max, T=T - h).matrix
            return (up - down) / (2 * h)

        coarse, fine = central(1e-3), central(5e-4)
        # O(h^2): halving the step quarters the gap, and the extrapolation closes it
        assert np.max(np.abs(fine - exact)) <= 1e-5 * scale
        assert np.max(np.abs((4 * fine - coarse) / 3 - exact)) <= 1e-10 * scale


class TestBinomial:
    @pytest.mark.parametrize("t", [1e-5, 0.1, 0.37, 0.5, 0.9, 0.999])
    def test_pmf_matches_exact_rationals(self, t):
        ft = Fraction(t)
        for n in (0, 1, 7, 90, 200):
            got = fock.binomial_pmf(n, t)
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

    def test_table_rows_are_the_pmf(self):
        table = fock.binomial_table(40, 0.3)
        for n in (0, 1, 17, 40):
            assert np.array_equal(table[n, : n + 1], fock.binomial_pmf(n, 0.3))

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
        want = np.real(np.diag(rho.matrix)).reshape(got.shape)
        assert np.max(np.abs(got - want)) <= 1e-15
        om, cm = fock.oracle_moments(rho), fock.count_moments(got)
        for field in ("mean_p", "var_p", "mean_a", "var_a", "cov_pa"):
            assert getattr(cm, field) == pytest.approx(getattr(om, field), abs=1e-13)

    def test_unit_transmission_keeps_the_state(self):
        vec = fock.build_fock_state(seeded_btmss(), n_max=20)
        rho = fock.pure_density(vec)
        assert fock.apply_loss_density(rho, 1, 1.0) is rho
        assert np.allclose(fock.thinned_probs(vec), np.abs(vec.coeffs) ** 2, rtol=1e-15, atol=0)
