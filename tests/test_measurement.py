"""Tests for the measurement strategies and the Monte Carlo harness."""

import math

import numpy as np
import pytest

from qcrb_lab import fock
from qcrb_lab.gaussian import (
    ChannelConfig,
    ComplexAmplitude,
    SqueezeSpec,
    StateKind,
    StateSpec,
)
from qcrb_lab.measurement import (
    EXACT_N_MAX,
    MAX_TRIALS,
    MCConfig,
    MeasurementPlan,
    Sampler,
    Strategy,
    diff_variance,
    intensity_stats,
    _exact_joint_probs,
    mc_estimate,
    optimal_gain,
    source_moments,
    thinned_stats,
    transmission_var_diff,
    transmission_var_intensity,
)
from qcrb_lab.qfi import lambda_lossy


def btmss(mag=1e3, s=1.0):
    return StateSpec(
        StateKind.BTMSS,
        alpha=ComplexAmplitude(mag),
        squeeze=SqueezeSpec(s=s, theta=np.pi),
    )


class TestClosedForms:
    def test_thinning_identities(self):
        mean, var = thinned_stats(100.0, 40.0, 0.25)
        assert mean == pytest.approx(25.0)
        assert var == pytest.approx(0.0625 * 40.0 + 0.25 * 0.75 * 100.0)
        # full transmission and full loss
        assert thinned_stats(7.0, 3.0, 1.0) == (7.0, 3.0)
        assert thinned_stats(7.0, 3.0, 0.0) == (0.0, 0.0)

    def test_intensity_poisson_fixed_point(self):
        m = source_moments(StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(3.0)))
        mean, var = intensity_stats(m, 0.4)
        assert mean == pytest.approx(var)  # Poisson in, Poisson out

    def test_intensity_saturation_all_single_mode(self):
        ch = ChannelConfig(T=0.6, T_p=0.9, eta_p=0.97)
        for spec in (
            StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(1e3)),
            StateSpec(
                StateKind.BSMSS, alpha=ComplexAmplitude(1e3), squeeze=SqueezeSpec(s=1.5)
            ),
            StateSpec(StateKind.FOCK, fock_n=30),
        ):
            rep = lambda_lossy(spec, ch)
            var = transmission_var_intensity(spec, ch)
            assert var * rep.n_resource == pytest.approx(rep.lam, rel=1e-12)

    def test_diff_saturation(self):
        for ch in (ChannelConfig(T=0.4), ChannelConfig(T=0.7, T_p=0.9, eta_p=0.98, eta_a=0.95)):
            spec = btmss(s=1.3)
            rep = lambda_lossy(spec, ch)
            var = transmission_var_diff(spec, ch)
            assert var * rep.n_resource == pytest.approx(rep.lam, rel=1e-12)

    @pytest.mark.parametrize(
        "measure, spec",
        [
            (transmission_var_intensity, StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(10))),
            (transmission_var_intensity, StateSpec(StateKind.FOCK, fock_n=3)),
            (transmission_var_diff, btmss()),
        ],
        ids=["coherent", "fock", "btmss"],
    )
    def test_blind_detector_rejected(self, measure, spec):
        with pytest.raises(ValueError):
            measure(spec, ChannelConfig(T=0.5, eta_p=0.0))

    def test_btmss_required_for_diff(self):
        with pytest.raises(ValueError):
            transmission_var_diff(
                StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(10)),
                ChannelConfig(T=0.5),
            )

    def test_doubly_seeded_off_phase_warns(self):
        spec = StateSpec(
            StateKind.BTMSS,
            alpha=ComplexAmplitude(10.0),
            beta=ComplexAmplitude(5.0),
            squeeze=SqueezeSpec(s=1.0, theta=0.3),
        )
        with pytest.warns(UserWarning):
            transmission_var_diff(spec, ChannelConfig(T=0.5))


class TestGainOptimization:
    def test_gain_is_the_quadratic_minimum(self):
        m0 = source_moments(btmss(s=1.2))
        ch = ChannelConfig(T=0.55, T_p=0.92, eta_p=0.96, eta_a=0.9)
        g = optimal_gain(m0, ch)
        base = diff_variance(m0, ch, g)
        # exact quadratic increment: var(g+dg) - var(g) = A dg^2 with
        # A = eta_a^2 Var(n_a) + eta_a (1-eta_a) <n_a>
        A = ch.eta_a**2 * m0.var_a + ch.eta_a * (1 - ch.eta_a) * m0.mean_a
        for dg in (-0.1, 0.05, 0.2):
            got = diff_variance(m0, ch, g + dg) - base
            assert got == pytest.approx(A * dg * dg, rel=1e-9)

    def test_golden_section_confirms_optimum(self):
        m0 = source_moments(btmss(s=0.8))
        ch = ChannelConfig(T=0.3, eta_a=0.85)
        lo, hi = 0.0, 3.0
        phi = (math.sqrt(5) - 1) / 2
        for _ in range(80):
            a = hi - phi * (hi - lo)
            b = lo + phi * (hi - lo)
            if diff_variance(m0, ch, a) < diff_variance(m0, ch, b):
                hi = b
            else:
                lo = a
        assert optimal_gain(m0, ch) == pytest.approx((lo + hi) / 2, abs=1e-8)

    def test_optimal_diff_closed_form(self):
        # minimized variance:
        #   Var(n_p') - eta_a t_p^2 Cov0^2 / (eta_a Var_a0 + (1-eta_a) <n_a0>)
        m0 = source_moments(btmss(s=1.5))
        ch = ChannelConfig(T=0.65, T_p=0.88, eta_p=0.93, eta_a=0.9)
        g = optimal_gain(m0, ch)
        t_p = ch.probe_transmission
        _, var_p = thinned_stats(m0.mean_p, m0.var_p, t_p)
        denom = ch.eta_a * m0.var_a + (1 - ch.eta_a) * m0.mean_a
        want = var_p - ch.eta_a * t_p**2 * m0.cov_pa**2 / denom
        assert diff_variance(m0, ch, g) == pytest.approx(want, rel=1e-12)

    def test_error_propagation_cross_check(self):
        # diff route via explicit variance / slope^2 vs the closed form
        spec = btmss(s=1.0)
        m0 = source_moments(spec)
        ch = ChannelConfig(T=0.5, T_p=0.95, eta_p=0.97, eta_a=0.96)
        g = optimal_gain(m0, ch)
        slope = ch.T_p * ch.eta_p * m0.mean_p
        explicit = diff_variance(m0, ch, g) / slope**2
        closed = transmission_var_diff(spec, ch)
        # the closed form uses the stimulated (not total) photon number;
        # at |alpha|^2 = 1e6 they agree to the spontaneous/stimulated ratio
        assert explicit == pytest.approx(closed, rel=1e-4)


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self):
        spec = StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(200.0))
        ch = ChannelConfig(T=0.5)
        plan = MeasurementPlan(Strategy.INTENSITY)
        cfg = MCConfig(trials=5000, seed=42)
        a = mc_estimate(spec, ch, plan, cfg)
        b = mc_estimate(spec, ch, plan, cfg)
        assert a.empirical_var_T == b.empirical_var_T

    def test_seed_changes_draws(self):
        spec = StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(200.0))
        ch = ChannelConfig(T=0.5)
        plan = MeasurementPlan(Strategy.INTENSITY)
        a = mc_estimate(spec, ch, plan, MCConfig(trials=5000, seed=1))
        b = mc_estimate(spec, ch, plan, MCConfig(trials=5000, seed=2))
        assert a.empirical_var_T != b.empirical_var_T

    def test_coherent_exact_sampler_z(self):
        spec = StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(40.0))
        ch = ChannelConfig(T=0.6, eta_p=0.9)
        res = mc_estimate(
            spec,
            ch,
            MeasurementPlan(Strategy.INTENSITY),
            MCConfig(trials=50000, seed=7, sampler=Sampler.EXACT),
        )
        assert abs(res.z_score) < 3.0

    def test_fock_exact_sampler_z(self):
        spec = StateSpec(StateKind.FOCK, fock_n=15)
        ch = ChannelConfig(T=0.5, T_p=0.9)
        res = mc_estimate(
            spec,
            ch,
            MeasurementPlan(Strategy.INTENSITY),
            MCConfig(trials=50000, seed=11, sampler=Sampler.EXACT),
        )
        assert abs(res.z_score) < 3.0

    def test_btmss_diff_gaussian_z(self):
        res = mc_estimate(
            btmss(mag=2e3, s=1.0),
            ChannelConfig(T=0.55, T_p=0.95, eta_p=0.97, eta_a=0.96),
            MeasurementPlan(Strategy.INTENSITY_DIFF),
            MCConfig(trials=50000, seed=3),
        )
        assert abs(res.z_score) < 3.0

    def test_gaussian_sampler_rejects_dim_probe(self):
        spec = StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(5.0))
        with pytest.raises(ValueError):
            mc_estimate(
                spec,
                ChannelConfig(T=0.5),
                MeasurementPlan(Strategy.INTENSITY),
                MCConfig(trials=1000, seed=0),
            )

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            MCConfig(trials=10, seed=0)
        with pytest.raises(ValueError, match="trials must lie in"):
            MCConfig(trials=MAX_TRIALS + 1, seed=0)

    def test_optimized_gain_beats_unit_gain(self):
        spec = btmss(mag=2e3, s=1.2)
        ch = ChannelConfig(T=0.5, eta_a=0.95)
        cfg = MCConfig(trials=20000, seed=17)
        opt = mc_estimate(spec, ch, MeasurementPlan(Strategy.INTENSITY_DIFF), cfg)
        raw = mc_estimate(
            spec, ch, MeasurementPlan(Strategy.INTENSITY_DIFF, gain=0.0), cfg
        )
        assert opt.empirical_var_T < raw.empirical_var_T


class TestExactSampler:
    def test_n_max_grows_until_the_tail_passes(self):
        # at n_max = 40 this twin beam leaves a tail mass of 3.9e-10
        spec = StateSpec(StateKind.BTMSS, squeeze=SqueezeSpec(s=1.0))
        ch = ChannelConfig(T=0.5, eta_a=0.9)
        with pytest.raises(fock.TruncationError):
            fock.build_fock_state(spec, n_max=EXACT_N_MAX[0])
        probs, dim = _exact_joint_probs(spec, ch)
        assert dim == EXACT_N_MAX[1] + 1
        assert probs.shape == (dim * dim,)
        m = fock.count_moments(probs.reshape(dim, dim))
        sq = math.sinh(1.0) ** 2
        assert m.mean_p == pytest.approx(0.5 * sq, rel=1e-9)
        assert m.mean_a == pytest.approx(0.9 * sq, rel=1e-9)

    def test_first_truncation_is_kept_when_it_suffices(self):
        _, dim = _exact_joint_probs(btmss(mag=1.3, s=0.35), ChannelConfig(T=0.7))
        assert dim == EXACT_N_MAX[0] + 1

    def test_truncation_error_at_the_cap(self):
        spec = StateSpec(StateKind.BSMSS, squeeze=SqueezeSpec(s=5.0))
        with pytest.raises(fock.TruncationError):
            _exact_joint_probs(spec, ChannelConfig(T=0.5))

    def test_fock_probe_above_the_cap_is_rejected(self):
        spec = StateSpec(StateKind.FOCK, fock_n=EXACT_N_MAX[-1])
        with pytest.raises(ValueError, match="at most"):
            mc_estimate(
                spec,
                ChannelConfig(T=0.5),
                MeasurementPlan(Strategy.INTENSITY),
                MCConfig(trials=1000, seed=0, sampler=Sampler.EXACT),
            )

    def test_rejects_overflowing_source_moments(self):
        spec = StateSpec(
            StateKind.BSMSS, alpha=ComplexAmplitude(1000.0), squeeze=SqueezeSpec(s=300.0)
        )
        with pytest.raises(ValueError, match="overflow"):
            mc_estimate(
                spec,
                ChannelConfig(T=0.5),
                MeasurementPlan(Strategy.INTENSITY),
                MCConfig(trials=1000, seed=0),
            )
