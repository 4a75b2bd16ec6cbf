"""Tests for the measurement strategies and the Monte Carlo harness."""

import math
import os
import sys
import threading

import numpy as np
import pytest

from qcrb_lab import fock, measurement
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
    diff_variance,
    _exact_joint_probs,
    mc_estimate,
    optimal_gain,
    source_moments,
    thinned_stats,
    transmission_var,
)
from qcrb_lab.qfi import lambda_curve, lambda_lossy
from qcrb_lab.validate import CHANNELS, S_GRID, T_GRID


SINGLE_MODE_CHANNELS = (ChannelConfig(T=0.6, T_p=0.9, eta_p=0.97),)


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
        mean, var = thinned_stats(m.mean_p, m.var_p, 0.4)
        assert mean == pytest.approx(var)  # Poisson in, Poisson out

    @pytest.mark.parametrize(
        "spec, channels",
        [
            (StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(1e3)), SINGLE_MODE_CHANNELS),
            (
                StateSpec(StateKind.BSMSS, alpha=ComplexAmplitude(1e3), squeeze=SqueezeSpec(s=1.5)),
                SINGLE_MODE_CHANNELS,
            ),
            (StateSpec(StateKind.FOCK, fock_n=30), SINGLE_MODE_CHANNELS),
            (btmss(s=1.3), (ChannelConfig(T=0.4), ChannelConfig(T=0.7, T_p=0.9, eta_p=0.98, eta_a=0.95))),
        ],
        ids=["coherent", "bsmss", "fock", "btmss"],
    )
    def test_saturation(self, spec, channels):
        for ch in channels:
            rep = lambda_lossy(spec, ch)
            var = transmission_var(spec, ch)
            assert var * rep.n_resource == pytest.approx(rep.lam, rel=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(10)),
            StateSpec(StateKind.FOCK, fock_n=3),
            btmss(),
        ],
        ids=["coherent", "fock", "btmss"],
    )
    def test_blind_detector_rejected(self, spec):
        with pytest.raises(ValueError):
            transmission_var(spec, ChannelConfig(T=0.5, eta_p=0.0))

    def test_bsmss_off_amplitude_phase_rejected(self):
        spec = StateSpec(StateKind.BSMSS, alpha=ComplexAmplitude(1e3, 0.3), squeeze=SqueezeSpec(s=1.0, theta=-0.6))
        with pytest.raises(ValueError, match="amplitude squeezing"):
            transmission_var(spec, ChannelConfig(T=0.5))

    @pytest.mark.parametrize("phase", [0.0, 0.3, -1.1, 2.5])
    @pytest.mark.parametrize("theta", [0.0, 1.0, -2.0, np.pi])
    def test_unsqueezed_bsmss_is_the_coherent_probe_at_any_phase(self, theta, phase):
        # S(0, theta) is the identity, so no phase is refused and every closed form is the coherent probe's
        alpha = ComplexAmplitude(1e3, phase)
        spec = StateSpec(StateKind.BSMSS, alpha=alpha, squeeze=SqueezeSpec(s=0.0, theta=theta))
        coh = StateSpec(StateKind.COHERENT, alpha=alpha)
        T = np.linspace(0.05, 0.95, 19)
        for ch in (ChannelConfig(T=0.5), ChannelConfig(T=0.3, T_p=0.9, eta_p=0.98)):
            assert np.array_equal(lambda_curve(spec, ch, T), lambda_curve(coh, ch, T))
            assert lambda_lossy(spec, ch) == lambda_lossy(coh, ch)
            assert transmission_var(spec, ch) == transmission_var(coh, ch)

    def test_doubly_seeded_off_phase_warns(self):
        spec = StateSpec(
            StateKind.BTMSS,
            alpha=ComplexAmplitude(10.0),
            beta=ComplexAmplitude(5.0),
            squeeze=SqueezeSpec(s=1.0, theta=0.3),
        )
        with pytest.warns(UserWarning):
            transmission_var(spec, ChannelConfig(T=0.5))


def exact_statistics_gaps(gain_for):
    """{probe: worst |exact - qcrb| / qcrb} over the battery's channels and T.

    exact = diff_variance(m0, ch, g) / (T_p eta_p <n_p>)^2 is the error-propagated variance of the probe's
    measurement from the source's exact photon moments m0, at the gain gain_for(spec, m0, ch).  The probes
    are the battery's at alpha = 1e8: coherent, bTMSS at theta = pi and amplitude-squeezed bSMSS at each
    s of S_GRID, and a 20-photon Fock state.
    """
    alpha = ComplexAmplitude(1e8)
    probes = {"coherent": StateSpec(StateKind.COHERENT, alpha=alpha), "fock": StateSpec(StateKind.FOCK, fock_n=20)}
    for s in S_GRID:
        probes[f"btmss s={s:g}"] = StateSpec(StateKind.BTMSS, alpha=alpha, squeeze=SqueezeSpec(s=s, theta=np.pi))
        probes[f"bsmss s={s:g}"] = StateSpec(StateKind.BSMSS, alpha=alpha, squeeze=SqueezeSpec(s=s))
    worst = dict.fromkeys(probes, 0.0)
    for losses in CHANNELS:
        for T in T_GRID:
            ch = ChannelConfig(T=T, **losses)
            for name, spec in probes.items():
                m0 = source_moments(spec)
                slope = ch.T_p * ch.eta_p * m0.mean_p
                exact = diff_variance(m0, ch, gain_for(spec, m0, ch)) / slope**2
                want = lambda_lossy(spec, ch).qcrb
                worst[name] = max(worst[name], abs(exact - want) / want)
    return worst


class TestSaturationFromExactStatistics:
    """The paper's claim that intensity measurements reach the QCRB, from the probe's photon statistics.

    Measured worst gaps: 2.9e-11 (bSMSS, s = 2), 1.3e-13 (bTMSS), 2.7e-16 (coherent), 1.1e-15 (Fock).
    """

    def test_measurements_reach_the_qcrb(self):
        def gain(spec, m0, ch):
            # optimal_gain refuses the bTMSS at s = 0, beta = 0: a coherent probe, whose best gain is 0
            return optimal_gain(m0, ch) if spec.kind is StateKind.BTMSS and spec.squeeze.s > 0 else 0.0

        worst = exact_statistics_gaps(gain)
        assert max(worst.values()) <= 1e-10, worst

    def test_btmss_without_gain_misses_the_qcrb(self):
        # negative control: the probe's count alone, g = 0, carries the bTMSS's noise photons
        worst = exact_statistics_gaps(lambda spec, m0, ch: 0.0)
        missed = {name: gap for name, gap in worst.items() if gap > 1e-10}
        assert sorted(missed) == [f"btmss s={s:g}" for s in S_GRID if s > 0], worst


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

    @pytest.mark.parametrize(
        "spec",
        [
            btmss(s=1.0),
            StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(1e3)),
            StateSpec(StateKind.BSMSS, alpha=ComplexAmplitude(1e3), squeeze=SqueezeSpec(s=1.0)),
        ],
        ids=["btmss", "coherent", "bsmss"],
    )
    def test_error_propagation_cross_check(self, spec):
        # mc_estimate's closed form, the count variance over the squared
        # slope of its mean, vs transmission_var
        m0 = source_moments(spec)
        ch = ChannelConfig(T=0.5, T_p=0.95, eta_p=0.97, eta_a=0.96)
        g = optimal_gain(m0, ch) if spec.kind is StateKind.BTMSS else 0.0
        slope = ch.T_p * ch.eta_p * m0.mean_p
        explicit = diff_variance(m0, ch, g) / slope**2
        closed = transmission_var(spec, ch)
        # the closed form uses the stimulated (not total) photon number;
        # at |alpha|^2 = 1e6 they agree to the spontaneous/stimulated ratio
        # (exactly for the coherent probe, 2.6e-5 for the bSMSS at s = 1)
        assert explicit == pytest.approx(closed, rel=1e-4)


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self):
        spec = StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(200.0))
        ch = ChannelConfig(T=0.5)
        plan = MeasurementPlan()
        cfg = MCConfig(trials=5000, seed=42)
        a = mc_estimate(spec, ch, plan, cfg)
        b = mc_estimate(spec, ch, plan, cfg)
        assert a.empirical_var_T == b.empirical_var_T

    def test_seed_changes_draws(self):
        spec = StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(200.0))
        ch = ChannelConfig(T=0.5)
        plan = MeasurementPlan()
        a = mc_estimate(spec, ch, plan, MCConfig(trials=5000, seed=1))
        b = mc_estimate(spec, ch, plan, MCConfig(trials=5000, seed=2))
        assert a.empirical_var_T != b.empirical_var_T

    def test_coherent_exact_sampler_z(self):
        spec = StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(40.0))
        ch = ChannelConfig(T=0.6, eta_p=0.9)
        res = mc_estimate(
            spec,
            ch,
            MeasurementPlan(),
            MCConfig(trials=50000, seed=7, sampler=Sampler.EXACT),
        )
        assert abs(res.z_score) < 3.0

    def test_fock_exact_sampler_z(self):
        spec = StateSpec(StateKind.FOCK, fock_n=15)
        ch = ChannelConfig(T=0.5, T_p=0.9)
        res = mc_estimate(
            spec,
            ch,
            MeasurementPlan(),
            MCConfig(trials=50000, seed=11, sampler=Sampler.EXACT),
        )
        assert abs(res.z_score) < 3.0

    def test_btmss_diff_gaussian_z(self):
        res = mc_estimate(
            btmss(mag=2e3, s=1.0),
            ChannelConfig(T=0.55, T_p=0.95, eta_p=0.97, eta_a=0.96),
            MeasurementPlan(),
            MCConfig(trials=50000, seed=3),
        )
        assert abs(res.z_score) < 3.0

    def test_variance_of_a_very_bright_probe(self):
        # var(T-hat) / T^2 = 2e-18: raw sums of T-hat cancel every digit of it
        spec = StateSpec(StateKind.BSMSS, alpha=ComplexAmplitude(1e9))
        res = mc_estimate(spec, ChannelConfig(T=0.5), MeasurementPlan(), MCConfig(trials=1000, seed=0))
        assert res.empirical_var_T > 0.0
        assert abs(res.z_score) < 3.0

    def test_samples_a_bsmss_at_any_phase(self):
        # the closed form rests on the exact source moments, not on amplitude squeezing
        spec = StateSpec(StateKind.BSMSS, alpha=ComplexAmplitude(1e3), squeeze=SqueezeSpec(s=1.0, theta=1.5))
        res = mc_estimate(spec, ChannelConfig(T=0.5), MeasurementPlan(), MCConfig(trials=20000, seed=5))
        assert abs(res.z_score) < 3.0

    def test_gaussian_sampler_rejects_dim_probe(self):
        spec = StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(5.0))
        with pytest.raises(ValueError):
            mc_estimate(
                spec,
                ChannelConfig(T=0.5),
                MeasurementPlan(),
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
        opt = mc_estimate(spec, ch, MeasurementPlan(), cfg)
        raw = mc_estimate(
            spec, ch, MeasurementPlan(gain=0.0), cfg
        )
        assert opt.empirical_var_T < raw.empirical_var_T

    # closed_form_var_T of a lossless bTMSS at the optimal gain, T = 0.5, theta = 3.14159, keyed by (|alpha|, s):
    # diff_variance / slope^2 in 80-digit arithmetic from photon_moments' formulas at the same double inputs
    CANCELLING_BTMSS = {
        (1e2, 1): 1.3289281203658414e-5,
        (1e2, 3): 2.4784909406537336e-7,
        (1e2, 5): 4.5395390748107764e-9,
        (1e2, 8): 1.1252392233082341e-11,
        (1e5, 1): 1.3290111440873701e-11,
        (1e5, 3): 2.4787369465341589e-13,
        (1e5, 5): 4.5399929664369247e-15,
        (1e5, 8): 1.1253517470800418e-17,
    }

    @pytest.mark.parametrize("mag, s", sorted(CANCELLING_BTMSS))
    def test_closed_form_variance_holds_its_digits_where_accepted(self, mag, s):
        spec = StateSpec(StateKind.BTMSS, alpha=ComplexAmplitude(mag), squeeze=SqueezeSpec(s=s, theta=3.14159))
        res = mc_estimate(spec, ChannelConfig(T=0.5), MeasurementPlan(), MCConfig(trials=100, seed=0))
        assert res.closed_form_var_T == pytest.approx(self.CANCELLING_BTMSS[mag, s], rel=1e-8, abs=0)

    @pytest.mark.parametrize("mag", [1e2, 1e5])
    @pytest.mark.parametrize("s", [10, 12, 14, 16, 17, 18, 19, 20])
    def test_refuses_a_closed_form_variance_that_cancels(self, mag, s):
        # exact relative errors 3.5e-8 and 6.4e-8 at s = 10, 0.11 and 0.068 at s = 17; from s = 19 var < 0
        spec = StateSpec(StateKind.BTMSS, alpha=ComplexAmplitude(mag), squeeze=SqueezeSpec(s=s, theta=3.14159))
        with pytest.raises(ValueError, match="cancels"):
            mc_estimate(spec, ChannelConfig(T=0.5), MeasurementPlan(), MCConfig(trials=100, seed=0))

    def test_gain_needs_an_auxiliary_mode(self):
        spec = StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(200.0))
        with pytest.raises(ValueError, match="bTMSS"):
            mc_estimate(spec, ChannelConfig(T=0.5), MeasurementPlan(gain=7.0), MCConfig(trials=1000, seed=0))


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
                MeasurementPlan(),
                MCConfig(trials=1000, seed=0, sampler=Sampler.EXACT),
            )

    def test_coherent_mean_count_above_1e12_is_refused(self):
        # numpy's Poisson draws lose their variance above: var / mean read 1.2 at a mean of 4.5e14
        ch, plan, cfg = ChannelConfig(T=0.5), MeasurementPlan(), MCConfig(trials=1000, seed=0, sampler=Sampler.EXACT)
        below = mc_estimate(StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(1e6)), ch, plan, cfg)
        assert abs(below.z_score) < 3.0
        with pytest.raises(ValueError, match=r"mean count 5e\+15 above 1e12; use the gaussian sampler"):
            mc_estimate(StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(1e8)), ch, plan, cfg)

    def test_rejects_overflowing_source_moments(self):
        spec = StateSpec(
            StateKind.BSMSS, alpha=ComplexAmplitude(1000.0), squeeze=SqueezeSpec(s=300.0)
        )
        with pytest.raises(ValueError, match="overflow"):
            mc_estimate(
                spec,
                ChannelConfig(T=0.5),
                MeasurementPlan(),
                MCConfig(trials=1000, seed=0),
            )


# several full blocks and a partial one
MULTI_BLOCK_TRIALS = 5 * measurement._BLOCK + 123


def serial_var_T(draw, offset, slope, T, cfg):
    """The empirical var(T-hat) of one block after another, each from its own spawned Philox stream."""
    n_blocks = -(-cfg.trials // measurement._BLOCK)
    total = total_sq = 0.0
    left = cfg.trials
    for seq in np.random.SeedSequence(cfg.seed).spawn(n_blocks):
        size = min(measurement._BLOCK, left)
        left -= size
        dev = (draw(np.random.Generator(np.random.Philox(seq)), size) + offset) / slope - T
        total += dev.sum()
        total_sq += (dev * dev).sum()
    return (total_sq - total * total / cfg.trials) / (cfg.trials - 1)


def coherent_poisson():
    spec, ch = StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(40.0)), ChannelConfig(T=0.6, eta_p=0.9)
    lam = ch.probe_transmission * source_moments(spec).mean_p
    return spec, ch, Sampler.EXACT, lambda rng, size: rng.poisson(lam, size).astype(float), 0.0


def fock_choice():
    spec, ch = StateSpec(StateKind.FOCK, fock_n=12), ChannelConfig(T=0.5, T_p=0.9)
    probs, dim = _exact_joint_probs(spec, ch)
    values = np.arange(dim, dtype=float)
    return spec, ch, Sampler.EXACT, lambda rng, size: values[rng.choice(len(probs), size=size, p=probs)], 0.0


def btmss_choice():
    spec, ch = btmss(mag=1.3, s=0.35), ChannelConfig(T=0.6)
    m0 = source_moments(spec)
    g = optimal_gain(m0, ch)
    probs, dim = _exact_joint_probs(spec, ch)
    idx = np.arange(dim * dim)
    values = (idx // dim) - g * (idx % dim)
    offset = g * ch.eta_a * m0.mean_a
    return spec, ch, Sampler.EXACT, lambda rng, size: values[rng.choice(len(probs), size=size, p=probs)], offset


def gaussian_intensity():
    spec = StateSpec(StateKind.BSMSS, alpha=ComplexAmplitude(1e3), squeeze=SqueezeSpec(s=1.0))
    ch = ChannelConfig(T=0.6, T_p=0.9, eta_p=0.97)
    m0 = source_moments(spec)
    mean_p, var_p = thinned_stats(m0.mean_p, m0.var_p, ch.probe_transmission)
    return spec, ch, Sampler.GAUSSIAN_APPROX, lambda rng, size: rng.normal(mean_p, math.sqrt(var_p), size), 0.0


def gaussian_difference():
    spec, ch = btmss(mag=2e3, s=1.0), ChannelConfig(T=0.55, T_p=0.95, eta_p=0.97, eta_a=0.96)
    m0 = source_moments(spec)
    g = optimal_gain(m0, ch)
    t_p = ch.probe_transmission
    mean_p, var_p = thinned_stats(m0.mean_p, m0.var_p, t_p)
    mean_a, var_a = thinned_stats(m0.mean_a, m0.var_a, ch.eta_a)
    cov = t_p * ch.eta_a * m0.cov_pa

    def draw(rng, size):
        xp = rng.normal(mean_p, math.sqrt(var_p), size)
        xa = mean_a + cov / var_p * (xp - mean_p) + rng.normal(0.0, math.sqrt(max(var_a - cov * cov / var_p, 0.0)), size)
        return xp - g * xa

    return spec, ch, Sampler.GAUSSIAN_APPROX, draw, g * ch.eta_a * m0.mean_a


SAMPLER_PATHS = [coherent_poisson, fock_choice, btmss_choice, gaussian_intensity, gaussian_difference]


def cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestParallelBlocks:
    @pytest.mark.parametrize("path", SAMPLER_PATHS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("n_cpus", [1, 2, 4])
    def test_equals_the_serial_block_sum(self, path, n_cpus, monkeypatch):
        cpus(monkeypatch, n_cpus)
        spec, ch, sampler, draw, offset = path()
        cfg = MCConfig(trials=MULTI_BLOCK_TRIALS, seed=2024, sampler=sampler)
        slope = float(ch.T_p * ch.eta_p * source_moments(spec).mean_p)
        got = mc_estimate(spec, ch, MeasurementPlan(), cfg)
        assert got.empirical_var_T == serial_var_T(draw, offset, slope, ch.T, cfg)

    def test_the_cpu_count_changes_nothing(self, monkeypatch):
        spec, ch, sampler, _, _ = btmss_choice()
        cfg = MCConfig(trials=MULTI_BLOCK_TRIALS, seed=5, sampler=sampler)
        results = []
        for n in (1, 4):
            cpus(monkeypatch, n)
            results.append(mc_estimate(spec, ch, MeasurementPlan(), cfg))
        monkeypatch.delattr(os, "sched_getaffinity")  # a platform without it falls back to cpu_count
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        results.append(mc_estimate(spec, ch, MeasurementPlan(), cfg))
        assert results[0] == results[1] == results[2]

    def test_sums_come_back_in_block_order(self, monkeypatch):
        # block 0 waits for block 3, another thread's first block, so it is never the first to finish
        cpus(monkeypatch, 4)
        block_3_done = threading.Event()

        def block(i, size):
            if i == 0:
                assert block_3_done.wait(timeout=5.0)
            elif i == 3:
                block_3_done.set()
            return i, size

        blocks = [(i, 10 * i) for i in range(8)]
        assert measurement._map_blocks(block, blocks) == blocks

    def test_more_threads_than_cores_lose_no_block(self, monkeypatch):
        cpus(monkeypatch, 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            blocks = [(i, i % 7) for i in range(500)]
            got = measurement._map_blocks(lambda i, size: (i, size * i), blocks)
        finally:
            sys.setswitchinterval(interval)
        assert got == [(i, size * i) for i, size in blocks]

    def test_one_block_starts_no_thread(self, monkeypatch):
        cpus(monkeypatch, 4)

        def no_thread(*args, **kwargs):
            raise AssertionError("a one-block run started a thread")

        monkeypatch.setattr(threading, "Thread", no_thread)
        spec, ch, sampler, _, _ = coherent_poisson()
        res = mc_estimate(spec, ch, MeasurementPlan(), MCConfig(trials=measurement._BLOCK, seed=1, sampler=sampler))
        assert res.trials == measurement._BLOCK

    @pytest.mark.parametrize(
        "fails",
        [lambda call, seq: call == 3, lambda call, seq: seq.spawn_key[-1] == 1],
        ids=["third-call", "a-worker-block"],
    )
    def test_a_block_error_reaches_the_caller(self, fails, monkeypatch):
        cpus(monkeypatch, 4)
        philox = np.random.Philox
        calls = []
        lock = threading.Lock()

        def failing(seq):
            with lock:
                calls.append(seq)
                call = len(calls)
            if fails(call, seq):
                raise RuntimeError("no stream for this block")
            return philox(seq)

        monkeypatch.setattr(np.random, "Philox", failing)
        before = threading.active_count()
        spec, ch, sampler, _, _ = gaussian_intensity()
        with pytest.raises(RuntimeError, match="no stream for this block"):
            mc_estimate(spec, ch, MeasurementPlan(), MCConfig(trials=MULTI_BLOCK_TRIALS, seed=3, sampler=sampler))
        assert threading.active_count() == before  # every worker has stopped
