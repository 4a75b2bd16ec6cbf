"""Tests for QFI formulas: closed forms, general Gaussian route, the lossy Fock QFI."""

import math
import re

import numpy as np
import pytest

from qcrb_lab import fock, qfi
from qcrb_lab.gaussian import (
    ChannelConfig,
    ComplexAmplitude,
    SqueezeSpec,
    StateKind,
    StateSpec,
    apply_channel,
    make_btmss,
    make_source,
    symplectic_eigenvalues,
)
from qcrb_lab.qfi import (
    SIGMA_MAX,
    ParamFamily,
    QFIMethod,
    big_theta,
    fisher_max,
    fock_qfi_lossy,
    h_factor,
    lambda_curve,
    lambda_lossy,
    lossy_symplectic_closed_form,
    qfi_btmss_full,
    qfi_gaussian,
    source_moments,
    stimulated_photons,
)

# Frozen with 50-digit extended-precision arithmetic.
LAM_BTMSS_T99_S2 = 0.045790275503560171
LAM_BSMSS_T99_S2 = 0.02785115767484837
H_S1_ETA09 = 0.86338989354909249
# 1 - T = 1e-8 costs this lossless bTMSS's Gaussian QFI its digits
EXACT_BTMSS = StateSpec(
    StateKind.BTMSS,
    alpha=ComplexAmplitude(3.0),
    beta=ComplexAmplitude(1.0),
    squeeze=SqueezeSpec(s=1.0, theta=np.pi),
)
# Frozen with 60-digit extended-precision arithmetic: its exact QFI at T = 1 - 1e-6 and 1 - 1e-8.
QFI_EXACT_BTMSS_NEAR_1 = {1 - 1e-6: 1381225.9806186130189, 1 - 1e-8: 138109911.99554943128}


def bright(kind, s=2.0, mag=1e3):
    if kind is StateKind.COHERENT:
        return StateSpec(kind, alpha=ComplexAmplitude(mag))
    if kind is StateKind.BSMSS:
        return StateSpec(kind, alpha=ComplexAmplitude(mag), squeeze=SqueezeSpec(s=s))
    return StateSpec(
        kind, alpha=ComplexAmplitude(mag), squeeze=SqueezeSpec(s=s, theta=np.pi)
    )


class TestClosedFormsLossless:
    def test_coherent_shot_noise(self):
        for T in (0.1, 0.5, 0.9):
            assert lambda_curve(bright(StateKind.COHERENT), ChannelConfig(), T) == T

    def test_frozen_values(self):
        assert lambda_curve(bright(StateKind.BTMSS), ChannelConfig(), 0.99) == pytest.approx(
            LAM_BTMSS_T99_S2, rel=1e-14
        )
        assert lambda_curve(bright(StateKind.BSMSS), ChannelConfig(), 0.99) == pytest.approx(
            LAM_BSMSS_T99_S2, rel=1e-14
        )

    def test_fock_reaches_ultimate_bound(self):
        spec = StateSpec(StateKind.FOCK, fock_n=5)
        for T in (0.2, 0.7):
            assert lambda_curve(spec, ChannelConfig(), T) == pytest.approx(T - T * T, rel=1e-14)
            assert fisher_max(5, T) == pytest.approx(5 / (T - T * T))

    def test_exact_btmss_qfi_keeps_its_digits_near_unit_transmission(self):
        for T, want in QFI_EXACT_BTMSS_NEAR_1.items():
            got = qfi_btmss_full(EXACT_BTMSS.alpha, EXACT_BTMSS.beta, EXACT_BTMSS.squeeze, T)
            assert got == pytest.approx(want, rel=1e-15)

    def test_squeezing_improves_monotonically(self):
        T = 0.8
        prev = lambda_curve(bright(StateKind.COHERENT), ChannelConfig(), T)
        for s in (0.5, 1.0, 1.5, 2.0, 3.0):
            cur = lambda_curve(bright(StateKind.BTMSS, s=s), ChannelConfig(), T)
            assert cur < prev
            prev = cur
        # the Fock / quantum-limit value is the floor
        assert prev > T - T * T

    def test_bsmss_beats_btmss_per_photon(self):
        # e^{-2s} < sech(2s), so at equal s the single-mode probe wins lossless
        for T in (0.3, 0.6, 0.9):
            for s in (0.5, 1.0, 2.0):
                assert lambda_curve(bright(StateKind.BSMSS, s=s), ChannelConfig(), T) < lambda_curve(
                    bright(StateKind.BTMSS, s=s), ChannelConfig(), T
                )

    def test_zero_squeeze_collapses_to_coherent(self):
        for T in (0.25, 0.75):
            assert lambda_curve(bright(StateKind.BTMSS, s=0.0), ChannelConfig(), T) == pytest.approx(T)
            assert lambda_curve(bright(StateKind.BSMSS, s=0.0), ChannelConfig(), T) == pytest.approx(T)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lambda_curve(bright(StateKind.COHERENT), ChannelConfig(), 0.0)
        for bad in ([0.5, 1.0], [0.0, 0.5], [0.5, np.nan]):
            with pytest.raises(ValueError):
                lambda_curve(bright(StateKind.BTMSS), ChannelConfig(), np.array(bad))
        with pytest.raises(ValueError):
            fisher_max(1.0, 1.0)
        with pytest.raises(ValueError):
            fisher_max(0.0, 0.5)
        for n in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                fisher_max(n, 0.5)


class TestClosedFormsLossy:
    def test_reduces_to_lossless(self):
        ch = ChannelConfig(T=0.6)
        probes = [bright(k) for k in (StateKind.COHERENT, StateKind.BTMSS, StateKind.BSMSS)]
        for spec in probes + [StateSpec(StateKind.FOCK, fock_n=3)]:
            rep = lambda_lossy(spec, ch)
            assert rep.lam == lambda_curve(spec, ChannelConfig(), 0.6)
            assert rep.method is QFIMethod.CLOSED_FORM

    def test_h_factor_frozen_value(self):
        assert h_factor(1.0, 0.9) == pytest.approx(H_S1_ETA09, rel=1e-14)

    def test_h_factor_limits(self):
        assert h_factor(1.3, 1.0) == pytest.approx(1.0)
        assert h_factor(1.3, 0.5) == pytest.approx(0.0, abs=1e-15)
        assert h_factor(0.0, 0.7) == pytest.approx(2 * 0.7 - 1.0)

    @pytest.mark.parametrize("s", [np.nan, np.inf, 400.0, 355.0 * (1 + 1e-15), -0.1])
    def test_h_factor_refuses_a_squeeze_outside_its_domain(self, s):
        # unchecked, nan and inf give nan and 400 raises OverflowError
        with pytest.raises(ValueError, match="squeezing parameter s"):
            h_factor(s, 0.9)

    def test_coherent_lam_divides_by_detection_efficiency(self):
        ch = ChannelConfig(T=0.5, T_p=0.8, eta_p=0.9)
        rep = lambda_lossy(bright(StateKind.COHERENT), ch)
        assert rep.lam == pytest.approx(0.5 / 0.9, rel=1e-14)
        assert rep.n_resource == pytest.approx(0.8 * 1e6)

    def test_fock_lossy_form(self):
        ch = ChannelConfig(T=0.4, T_p=0.9, eta_p=0.95)
        rep = lambda_lossy(StateSpec(StateKind.FOCK, fock_n=7), ch)
        assert rep.lam == pytest.approx(0.4 / 0.95 - 0.16 * 0.9, rel=1e-14)

    def test_aux_loss_only_hits_btmss(self):
        lossy_aux = ChannelConfig(T=0.5, eta_a=0.7)
        clean = ChannelConfig(T=0.5)
        for kind in (StateKind.COHERENT, StateKind.BSMSS):
            assert lambda_lossy(bright(kind), lossy_aux).lam == pytest.approx(
                lambda_lossy(bright(kind), clean).lam
            )
        assert lambda_lossy(bright(StateKind.BTMSS), lossy_aux).lam > lambda_lossy(
            bright(StateKind.BTMSS), clean
        ).lam

    def test_vacuum_probe_rejected(self):
        spec = StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(0))
        with pytest.raises(ValueError):
            lambda_lossy(spec, ChannelConfig(T=0.5))

    def test_report_consistency(self):
        rep = lambda_lossy(bright(StateKind.BTMSS), ChannelConfig(T=0.3, T_p=0.85))
        assert rep.qfi * rep.qcrb == pytest.approx(1.0)
        assert rep.lam == pytest.approx(rep.qcrb * rep.n_resource)


class TestGaussianGeneral:
    @pytest.mark.parametrize("kind", [StateKind.COHERENT, StateKind.BSMSS, StateKind.BTMSS])
    @pytest.mark.parametrize("T", [0.15, 0.5, 0.85])
    def test_bright_limit_matches_closed_form(self, kind, T):
        ch = ChannelConfig(T=T, T_p=0.9, eta_p=0.97, eta_a=0.95)
        spec = bright(kind, s=1.2)
        rep = qfi_gaussian(ParamFamily(spec, ch), T, bright_limit=True)
        assert rep.lam == pytest.approx(lambda_lossy(spec, ch).lam, rel=1e-12)

    def test_full_formula_matches_exact_btmss_expression(self):
        for a, b, s, th, T in [
            (3.0, 1.0, 1.0, np.pi, 0.7),
            (10.0, 0.0, 1.0, 0.0, 0.5),
            (0.0, 0.0, 0.8, 0.4, 0.9),
        ]:
            spec = StateSpec(
                StateKind.BTMSS,
                alpha=ComplexAmplitude(a),
                beta=ComplexAmplitude(b),
                squeeze=SqueezeSpec(s=s, theta=th),
            )
            closed = qfi_btmss_full(spec.alpha, spec.beta, spec.squeeze, T)
            got = qfi_gaussian(ParamFamily(spec, ChannelConfig(T=T)), T).qfi
            assert got == pytest.approx(closed, rel=1e-10)

    def test_stimulated_photons_of_a_strongly_squeezed_seed(self):
        # a cosh(s) - a sinh(s) cancels to 0.0 here; the exact value is a^2 e^{-2s}
        spec = StateSpec(
            StateKind.BSMSS, alpha=ComplexAmplitude(1000.0), squeeze=SqueezeSpec(s=20.0)
        )
        assert stimulated_photons(spec) == pytest.approx(1e6 * math.exp(-40.0), rel=1e-12)

    @pytest.mark.parametrize("bright_limit", [True, False], ids=["bright", "full"])
    @pytest.mark.parametrize("kind", [StateKind.COHERENT, StateKind.BSMSS, StateKind.BTMSS])
    def test_counts_the_photons_of_the_one_source_it_builds(self, monkeypatch, kind, bright_limit):
        spec = StateSpec(
            kind, alpha=ComplexAmplitude(2.0, 0.3), beta=ComplexAmplitude(0.5), squeeze=SqueezeSpec(s=0.8, theta=1.0)
        )
        ch = ChannelConfig(T_p=0.9, eta_p=0.95, eta_a=0.85)
        n = stimulated_photons(spec) if bright_limit else float(source_moments(spec).mean_p)
        builds = []
        monkeypatch.setattr(qfi, "make_source", lambda spec: builds.append(spec) or make_source(spec))
        rep = qfi_gaussian(ParamFamily(spec, ch), np.array([0.3, 0.6]), bright_limit=bright_limit)
        assert len(builds) == 1
        assert rep.n_resource == ch.T_p * n

    def test_full_qfi_below_maximum(self):
        spec = bright(StateKind.BTMSS, s=1.0, mag=50.0)
        T = 0.4
        rep = qfi_gaussian(ParamFamily(spec, ChannelConfig(T=T)), T)
        total = np.sinh(1.0) ** 2 + stimulated_photons(spec)
        assert rep.qfi < fisher_max(total, T)

    @pytest.mark.parametrize("kind", [StateKind.COHERENT, StateKind.BSMSS, StateKind.BTMSS])
    def test_family_uses_the_channel_loss_chain(self, kind):
        # each probe on its own modes: a single-mode family carries no auxiliary mode
        spec = StateSpec(
            kind,
            alpha=ComplexAmplitude(2.0, 0.3),
            beta=ComplexAmplitude(0.5),
            squeeze=SqueezeSpec(s=0.8, theta=1.0),
        )
        ch = ChannelConfig(T=0.35, T_p=0.9, eta_p=0.95, eta_a=0.85)
        family = ParamFamily(spec, ch)
        got = family.state_at(ch.T)
        want = apply_channel(make_source(spec), ch)
        assert np.array_equal(got.sigma, want.sigma)
        assert np.array_equal(got.d, want.d)
        sigma_dot, d_dot = family.derivatives_at(ch.T)
        assert sigma_dot.shape == want.sigma.shape and d_dot.shape == want.d.shape

    def test_analytic_derivatives_match_fd(self):
        fam = ParamFamily(
            bright(StateKind.BTMSS, s=0.9),
            ChannelConfig(T=0.45, T_p=0.85, eta_p=0.92, eta_a=0.88),
        )
        sd_a, dd_a = fam.derivatives_at(0.45)
        sd_f, dd_f = fam.derivatives_fd(0.45)
        assert np.max(np.abs(sd_a - sd_f)) < 1e-6 * np.max(np.abs(sd_a))
        assert np.max(np.abs(dd_a - dd_f)) < 1e-6 * np.max(np.abs(dd_a))

    def test_an_array_T_gives_arrays_of_its_shape_and_a_float_T_floats(self):
        family = ParamFamily(bright(StateKind.BTMSS, s=1.0, mag=3.0), ChannelConfig(T_p=0.9, eta_p=0.95, eta_a=0.9))
        T = np.array([[0.2, 0.4, 0.6], [0.3, 0.5, 0.7]])
        rep = qfi_gaussian(family, T)
        assert rep.qfi.shape == rep.qcrb.shape == rep.lam.shape == T.shape
        one = qfi_gaussian(family, 0.4)
        assert all(type(v) is float for v in (one.qfi, one.qcrb, one.lam, one.n_resource))
        state, (sigma_dot, d_dot) = family.state_at(T), family.derivatives_at(T)
        for i in np.ndindex(T.shape):
            want, (want_sigma_dot, want_d_dot) = family.state_at(float(T[i])), family.derivatives_at(float(T[i]))
            assert np.array_equal(state.sigma[i], want.sigma) and np.array_equal(state.d[i], want.d)
            assert np.array_equal(sigma_dot[i], want_sigma_dot) and np.array_equal(d_dot[i], want_d_dot)

    @pytest.mark.parametrize(
        "T, named", [(0.0, "0.0"), (-0.1, "-0.1"), (1.5, "1.5"), (np.nan, "nan"), ([0.5, 0.0, -1.0], "0.0")]
    )
    def test_derivatives_refuse_T_outside_the_unit_interval_naming_it(self, T, named):
        with pytest.raises(ValueError, match=re.escape(f"(at T={named})")):
            ParamFamily(bright(StateKind.BTMSS), ChannelConfig()).derivatives_at(T)

    def test_state_refuses_T_above_one_naming_it(self):
        with pytest.raises(ValueError, match=re.escape("T=1.5")):
            ParamFamily(bright(StateKind.BSMSS), ChannelConfig()).state_at(np.array([0.5, 1.5]))

    @pytest.mark.parametrize(
        "kind, bright_limit, s",
        [
            (StateKind.BSMSS, True, 15.0),
            (StateKind.BSMSS, True, 100.0),
            (StateKind.BSMSS, False, 20.0),
            (StateKind.BTMSS, True, 30.0),
            (StateKind.BTMSS, False, 12.0),
            (StateKind.BTMSS, False, 100.0),
            (StateKind.BSMSS, True, 355.0),
        ],
    )
    def test_refuses_squeezing_beyond_double_algebra(self, kind, bright_limit, s):
        # unchecked, each point gives a QFI off by 1e-4 or more, a singular matrix, a math domain error or an overflow
        ch = ChannelConfig(T=0.5, T_p=0.9, eta_p=0.98, eta_a=0.98)
        with pytest.raises(ValueError, match=rf"s={s:g} .*\(at T=0\.5\)"):
            qfi_gaussian(ParamFamily(bright(kind, s=s), ch), 0.5, bright_limit=bright_limit)

    def test_squeezing_bound_sits_at_sigma_max(self):
        # a lossless bSMSS at T has the largest covariance entry T (cosh 2s - 1) + 1
        T = 0.5
        edge = math.acosh((SIGMA_MAX - 1.0) / T + 1.0) / 2.0
        below = bright(StateKind.BSMSS, s=edge * (1 - 1e-6))
        rep = qfi_gaussian(ParamFamily(below, ChannelConfig()), T, bright_limit=True)
        assert rep.lam == pytest.approx(lambda_lossy(below, ChannelConfig(T=T)).lam, rel=1e-9)
        above = ParamFamily(bright(StateKind.BSMSS, s=edge * (1 + 1e-6)), ChannelConfig())
        with pytest.raises(ValueError, match="SIGMA_MAX"):
            qfi_gaussian(above, T, bright_limit=True)
        with pytest.raises(ValueError, match=re.escape("(at T=0.6)")):
            qfi_gaussian(ParamFamily(bright(StateKind.BSMSS, s=edge), ChannelConfig()), np.array([0.3, 0.6, 0.4]))

    @pytest.mark.parametrize(
        "spec, T, refusal",
        [
            # a nearly coherent bSMSS: nu - 1 ~ 2 T (1 - T) sinh(s)^2 puts its pair within PURE_TOL of pure, and
            # with one seed photon the per-photon bound on that pair's term is 1e-7 of the QFI
            (
                bright(StateKind.BSMSS, s=1e-5, mag=1.0),
                [0.5, 0.999],
                r"rounding \(\d\.\d{3}e-\d\d\) and pure pairs taking \d\.\d{3}e-06 .*"
                r"\(their per-photon bound, 1\.000e-07\) may move the QFI by 1\.000e-07 of itself \(at T=0\.999\)",
            ),
            (EXACT_BTMSS, [0.5, 1 - 1e-8], r"QFI by \d\.\d{3}e-08 of itself \(at T=0\.99999999\)"),
            # cosh(2s) - 1 rounds to 0 at s = 1e-9: the bound counts sinh(s)^2 = 1e-18 noise photons, so the
            # dropped covariance term, 2/3 of the exact QFI here, is not taken for zero
            (
                bright(StateKind.BTMSS, s=1e-9, mag=1e-9),
                [0.5],
                r"per-photon bound, 1\.000e\+00\) may move the QFI by 1\.000e\+00 of itself \(at T=0\.5\)",
            ),
            # unseeded at s = 1e-170: every |Z_ij|^2 underflows, so the QFI is 0 and its shares would read nan
            (
                bright(StateKind.BSMSS, s=1e-170, mag=0.0),
                [0.5],
                r"^modes too close to pure: the computed QFI is 0, so no share of it is defined \(at T=0\.5\)$",
            ),
            (
                bright(StateKind.BTMSS, s=1e-170, mag=0.0),
                [0.5],
                r"^modes too close to pure: the computed QFI is 0, so no share of it is defined \(at T=0\.5\)$",
            ),
        ],
        ids=["pure", "rounding", "tiny-squeezing", "zero-qfi-bsmss", "zero-qfi-btmss"],
    )
    def test_refusals_name_the_first_offending_T(self, spec, T, refusal):
        with pytest.raises(ValueError, match=refusal):
            qfi_gaussian(ParamFamily(spec, ChannelConfig()), np.array(T))

    def test_a_nearly_coherent_bsmss_answers_where_both_eigenvalues_sit_near_1(self):
        # s = 1e-4: nu - 1 ~ 9.5e-10 at T = 0.05, and the covariance term is below 1e-12 of the displacement term;
        # s = 1e-5: nu^2 - 1 ~ 4e-13 at T = 0.999 drops the pair, whose per-photon bound is 1e-13 of the QFI
        for s, T in ((1e-4, np.array([0.5, 0.05])), (1e-5, np.array([0.5, 0.999]))):
            family = ParamFamily(bright(StateKind.BSMSS, s=s), ChannelConfig())
            want = qfi_gaussian(family, T, bright_limit=True).qfi
            assert qfi_gaussian(family, T).qfi == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("s", [1e-6, 1e-8])
    def test_a_bright_btmss_with_tiny_squeezing_answers_within_1e_8(self, s):
        # sigma_dot reaches a dropped pair at every T here; its per-photon bound is below 1e-8 of the QFI
        spec = StateSpec(StateKind.BTMSS, alpha=ComplexAmplitude(1e3), squeeze=SqueezeSpec(s, np.pi))
        T = np.array([1e-3, 0.1, 0.5, 0.9, 1 - 1e-3])
        got = qfi_gaussian(ParamFamily(spec, ChannelConfig()), T).qfi
        exact = [qfi_btmss_full(spec.alpha, spec.beta, spec.squeeze, t) for t in T]
        assert got == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("a, b", [(3.0, 1.0), (0.0, 0.0), (1e3, 0.0), (0.0, 2.0)])
    def test_full_qfi_near_the_edges_is_refused_or_within_1e_8(self, a, b):
        # lossless bTMSS at theta = pi against the closed form; T (1 - T) keeps its digits near T = 1
        for s in (2.0, 1.0, 0.3, 1e-2, 1e-4, 1e-6, 1e-8):
            spec = StateSpec(
                StateKind.BTMSS, alpha=ComplexAmplitude(a), beta=ComplexAmplitude(b), squeeze=SqueezeSpec(s, np.pi)
            )
            family = ParamFamily(spec, ChannelConfig())
            for T in (1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-3, 1 - 1e-6, 1 - 1e-8, 1 - 1e-9, 1 - 1e-10):
                try:
                    got = qfi_gaussian(family, T).qfi
                except ValueError:
                    assert s < 0.3 or T > 1 - 1e-6, f"refused at s={s}, T={T}"
                    continue
                exact = qfi_btmss_full(spec.alpha, spec.beta, spec.squeeze, T)
                assert abs(got / exact - 1.0) <= 1e-8, f"s={s}, T={T}"

    def test_big_theta_conventions(self):
        spec = StateSpec(
            StateKind.BTMSS,
            alpha=ComplexAmplitude(1.0, 0.2),
            beta=ComplexAmplitude(1.0, 0.3),
            squeeze=SqueezeSpec(s=1.0, theta=1.0),
        )
        assert big_theta(spec) == pytest.approx(1.0 - 0.2 - 0.3)
        smss = StateSpec(
            StateKind.BSMSS,
            alpha=ComplexAmplitude(1.0, 0.2),
            squeeze=SqueezeSpec(s=1.0, theta=1.0),
        )
        assert big_theta(smss) == pytest.approx(1.0 - 0.4)

    @pytest.mark.parametrize("phase", [0.3, -1.1, 2.0])
    def test_bsmss_closed_form_holds_at_theta_twice_the_seed_phase(self, phase):
        # the Gaussian QFI covers every phase; Theta = theta - 2 arg(alpha) = 0
        # gives the closed form, theta = -2 arg(alpha) does not
        ch = ChannelConfig(T=0.5, T_p=0.9, eta_p=0.95)

        def spec(theta):
            return StateSpec(
                StateKind.BSMSS,
                alpha=ComplexAmplitude(1e3, phase),
                squeeze=SqueezeSpec(s=1.0, theta=theta),
            )

        amplitude = spec(2.0 * phase)
        gauss = qfi_gaussian(ParamFamily(amplitude, ch), ch.T, bright_limit=True).lam
        assert gauss == pytest.approx(lambda_lossy(amplitude, ch).lam, rel=1e-12)
        off = spec(-2.0 * phase)
        assert qfi_gaussian(ParamFamily(off, ch), ch.T, bright_limit=True).lam > 1.5 * gauss
        with pytest.raises(ValueError, match="amplitude squeezing"):
            lambda_lossy(off, ch)


class TestSymplecticClosedForm:
    def test_lossless_pair(self):
        sq = SqueezeSpec(s=1.1)
        ch = ChannelConfig(T=0.35)
        lo, hi = sorted(lossy_symplectic_closed_form(sq, ch))
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(0.35 + 0.65 * math.cosh(2.2), rel=1e-12)

    def test_matches_numeric_spectrum(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            sq = SqueezeSpec(s=rng.uniform(0, 2), theta=rng.uniform(-np.pi, np.pi))
            T, T_p, eta_p, eta_a = rng.uniform(0.05, 1.0, 4)
            ch = ChannelConfig(T=T, T_p=T_p, eta_p=eta_p, eta_a=eta_a)
            st = apply_channel(
                make_btmss(ComplexAmplitude(0), ComplexAmplitude(0), sq), ch
            )
            numeric = symplectic_eigenvalues(st)
            closed = np.sort(lossy_symplectic_closed_form(sq, ch))
            assert np.max(np.abs(numeric - closed)) < 1e-10

    def test_displacement_does_not_shift_spectrum(self):
        sq = SqueezeSpec(s=0.9, theta=0.4)
        ch = ChannelConfig(T=0.6, eta_a=0.8)
        seeded = apply_channel(
            make_btmss(ComplexAmplitude(5.0), ComplexAmplitude(2.0, 0.3), sq), ch
        )
        closed = np.sort(lossy_symplectic_closed_form(sq, ch))
        assert np.max(np.abs(symplectic_eigenvalues(seeded) - closed)) < 1e-10


def binomial_sum_qfi(n, channel):
    """Independent reference for fock_qfi_lossy: sum_k (d rho_k / dT)^2 / rho_k, O(n^2).

    The lossy n-photon Fock state is diagonal, rho_k = C(n,k) p^k (1-p)^(n-k) with p = T_p T eta_p.
    """
    p = channel.probe_transmission
    rho = fock.binomial_table(n, p)[n]
    drho = rho * (np.arange(n + 1) - n * p) / (p * (1.0 - p)) * (channel.T_p * channel.eta_p)
    live = rho > 1e-300
    return float(np.sum(drho[live] ** 2 / rho[live]))


class TestFockQFI:
    @pytest.mark.parametrize("n", [1, 2, 5, 20, 100, 1000])
    def test_equals_the_binomial_sum(self, n):
        for T in (0.01, 0.3, 0.5, 0.9, 0.999):
            for ch in (ChannelConfig(T=T), ChannelConfig(T=T, T_p=0.9, eta_p=0.95)):
                assert fock_qfi_lossy(n, ch).qfi == pytest.approx(binomial_sum_qfi(n, ch), rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [1, 3, 20, 200])
    def test_per_photon_bound_matches_closed_lambda(self, n):
        for T in (0.2, 0.5, 0.8):
            ch = ChannelConfig(T=T, T_p=0.9, eta_p=0.95)
            rep = fock_qfi_lossy(n, ch)
            want = lambda_lossy(StateSpec(StateKind.FOCK, fock_n=n), ch)
            assert rep.lam == pytest.approx(want.lam, rel=1e-12)

    def test_lossless_limit(self):
        rep = fock_qfi_lossy(4, ChannelConfig(T=0.3))
        assert rep.qfi == pytest.approx(fisher_max(4, 0.3), rel=1e-12)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            fock_qfi_lossy(0, ChannelConfig(T=0.5))

    def test_huge_n_answers_as_lambda_lossy(self):
        # a closed form answers any n that StateSpec accepts
        ch = ChannelConfig(T=0.5, T_p=0.9)
        for n in (10**6, 10**20):
            rep = fock_qfi_lossy(n, ch)
            want = lambda_lossy(StateSpec(StateKind.FOCK, fock_n=n), ch)
            assert rep.qfi == pytest.approx(want.qfi, rel=1e-12, abs=0)
            assert rep.method is QFIMethod.CLOSED_FORM

    def test_non_integral_n_refused_by_the_spec(self):
        with pytest.raises(ValueError, match="fock_n"):
            fock_qfi_lossy(2.5, ChannelConfig(T=0.5))
