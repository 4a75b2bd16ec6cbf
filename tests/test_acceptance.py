"""Acceptance gate: eight numbered criteria, one pass/fail line each.

Each test prints `criterion N (<name>): PASS|FAIL` so a `pytest -s` run
reads as a checklist.  Tolerances and runtime budgets are asserted, not
just reported.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qcrb_lab import cli, fock
from qcrb_lab.gaussian import (
    ChannelConfig,
    ComplexAmplitude,
    SqueezeSpec,
    StateKind,
    StateSpec,
    apply_channel,
    make_bsmss,
    make_btmss,
)
from qcrb_lab.measurement import (
    MCConfig,
    MeasurementPlan,
    Sampler,
    mc_estimate,
)
from qcrb_lab.qfi import (
    fisher_max,
    fock_qfi_lossy,
    h_factor,
    lambda_curve,
    lambda_lossy,
)
from qcrb_lab.validate import (
    check_closed_vs_gaussian,
    check_measurement_saturation,
    check_symplectic_closed_form,
)

T_GRID = np.arange(0.05, 0.951, 0.05)
S_GRID = [0.0, 0.5, 1.0, 1.5, 2.0]


@contextmanager
def criterion(num, name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_s:
        print(f"criterion {num} ({name}): FAIL (runtime {elapsed:.2f}s)")
        pytest.fail(f"runtime budget exceeded: {elapsed:.2f}s > {budget_s}s")
    print(f"criterion {num} ({name}): PASS")


def bright(kind, s):
    if kind is StateKind.COHERENT:
        return StateSpec(kind, alpha=ComplexAmplitude(1e3))
    theta = math.pi if kind is StateKind.BTMSS else 0.0
    return StateSpec(
        kind, alpha=ComplexAmplitude(1e3), squeeze=SqueezeSpec(s=s, theta=theta)
    )


def test_criterion_1_photon_cost_ratios():
    with criterion(1, "photon-cost ratios", 1.0):
        T, s = 0.99, 2.0
        lam_fock = T - T * T
        ratios = {
            StateKind.BTMSS: 4.625,
            StateKind.BSMSS: 2.813,
            StateKind.COHERENT: 100.0,
        }
        for kind, want in ratios.items():
            got = lambda_curve(bright(kind, s), ChannelConfig(), T) / lam_fock
            assert got == pytest.approx(want, abs=0.01), kind


def test_criterion_2_closed_vs_general_gaussian():
    with criterion(2, "closed form vs general Gaussian QFI", 10.0):
        res = check_closed_vs_gaussian()
        assert res.max_err <= 1e-6, res


def test_criterion_3_fock_oracle_equivalence():
    with criterion(3, "Fock oracle equivalence", 30.0):
        for T in (0.2, 0.5, 0.8):
            # eigendecomposition oracle vs the lossless bound, n <= 10
            for n in range(1, 11):
                spec = StateSpec(StateKind.FOCK, fock_n=n)
                got = fock.oracle_qfi(
                    lambda t: fock.channel_density(
                        spec, ChannelConfig(T=T), n_max=n + 2, T=t
                    ),
                    T,
                )
                want = fisher_max(n, T)
                assert abs(got - want) / want <= 1e-5, (n, T)
            # the lossy Fock QFI (the per-photon bound) vs the closed-form Lambda, n <= 200
            for n in (1, 2, 5, 10, 20, 50, 100, 200):
                for ch in (
                    ChannelConfig(T=T),
                    ChannelConfig(T=T, T_p=0.9, eta_p=0.98),
                ):
                    lam_bound = fock_qfi_lossy(n, ch).lam
                    lam_closed = lambda_lossy(
                        StateSpec(StateKind.FOCK, fock_n=n), ch
                    ).lam
                    assert abs(lam_bound - lam_closed) / lam_closed <= 1e-10, (n, T)


def test_criterion_4_lossy_symplectic_eigenvalues():
    with criterion(4, "lossy symplectic eigenvalues", 5.0):
        res = check_symplectic_closed_form()
        assert res.max_err <= 1e-10, res


def test_criterion_5_measurement_saturation():
    with criterion(5, "measurement saturation identities", 30.0):
        res = check_measurement_saturation()
        assert res.max_err <= 1e-10, res


def test_criterion_6_monte_carlo_saturation():
    with criterion(6, "Monte Carlo saturation", 60.0):
        coh = StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(100.0))
        res = mc_estimate(
            coh,
            ChannelConfig(T=0.5),
            MeasurementPlan(),
            MCConfig(trials=100000, seed=101, sampler=Sampler.EXACT),
        )
        assert abs(res.z_score) < 3.0, res

        fock_spec = StateSpec(StateKind.FOCK, fock_n=20)
        res = mc_estimate(
            fock_spec,
            ChannelConfig(T=0.5, T_p=0.9, eta_p=0.98),
            MeasurementPlan(),
            MCConfig(trials=100000, seed=202, sampler=Sampler.EXACT),
        )
        assert abs(res.z_score) < 3.0, res

        btmss = bright(StateKind.BTMSS, 1.0)
        ch = ChannelConfig(T=0.5, eta_a=0.95)
        for rep in range(20):
            cfg = MCConfig(trials=20000, seed=5000 + rep)
            opt = mc_estimate(
                btmss, ch, MeasurementPlan(), cfg
            )
            raw = mc_estimate(
                btmss, ch, MeasurementPlan(gain=0.0), cfg
            )
            assert opt.empirical_var_T < raw.empirical_var_T, rep


def test_criterion_7_figure_data_regression(capsys):
    with criterion(7, "figure data regression", 30.0):
        grid = cli.parse_grid("T=0.01:0.99:99")

        def by_curve(rows):
            out = {}
            for r in rows:
                out.setdefault(r["curve_id"], {})[r["T"]] = r["lambda"]
            return out

        fig2 = by_curve(cli.figure2_rows(grid))
        for T in fig2["cmp_coherent"]:
            lam_coh = fig2["cmp_coherent"][T]
            lam_btm = fig2["cmp_btmss"][T]
            lam_bsm = fig2["cmp_bsmss"][T]
            lam_fk = fig2["cmp_fock"][T]
            assert lam_coh >= lam_btm >= lam_bsm >= lam_fk, T

        fig3 = by_curve(cli.figure3_rows(grid))
        for kind in ("fock", "bsmss", "btmss"):
            gaps = [
                fig3[f"{kind}_Tp0.8"][T] - fig3[f"{kind}_Tp1"][T]
                for T in sorted(fig3[f"{kind}_Tp1"])
            ]
            assert all(g > 0 for g in gaps), kind
            # degradation grows with T: largest at high transmission
            assert all(a <= b + 1e-15 for a, b in zip(gaps, gaps[1:])), kind


def test_criterion_8_edge_behavior():
    with criterion(8, "edge behavior", 5.0):
        # balanced auxiliary loss cancels the two-mode advantage exactly
        for s in (0.0, 0.7, 2.5):
            assert h_factor(s, 0.5) == 0.0

        # zero squeezing collapses every Lambda onto the coherent one, exactly
        for T in T_GRID:
            lam_coh = lambda_curve(bright(StateKind.COHERENT, 0.0), ChannelConfig(), float(T))
            for kind in (StateKind.BTMSS, StateKind.BSMSS):
                assert lambda_curve(bright(kind, 0.0), ChannelConfig(), float(T)) == lam_coh
            ch = ChannelConfig(T=float(T), T_p=0.9, eta_p=0.98, eta_a=0.98)
            lam_coh = lambda_lossy(bright(StateKind.COHERENT, 0.0), ch).lam
            for kind in (StateKind.BTMSS, StateKind.BSMSS):
                assert lambda_lossy(bright(kind, 0.0), ch).lam == lam_coh

        # loss-channel composition law
        states = [
            make_bsmss(ComplexAmplitude(2.0, 0.3), SqueezeSpec(s=1.0, theta=0.5)),
            make_btmss(
                ComplexAmplitude(1.0), ComplexAmplitude(0.5, 0.2), SqueezeSpec(s=0.8)
            ),
        ]
        for st in states:
            for t1, t2 in [(0.9, 0.8), (0.4, 0.6), (1.0, 0.3)]:
                a = apply_channel(apply_channel(st, ChannelConfig(T=t1)), ChannelConfig(T=t2))
                b = apply_channel(st, ChannelConfig(T=t1 * t2))
                assert np.max(np.abs(a.sigma - b.sigma)) <= 1e-12
                assert np.max(np.abs(a.d - b.d)) <= 1e-12
