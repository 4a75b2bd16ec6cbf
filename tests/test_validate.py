"""The validate battery's cases: each stated once and evaluated once.

Each test records the calls one battery check makes and compares them with
the cases the battery was first written with, rebuilt below as they were
first built (some of them two or three times over): the check must reach
the same set of cases, each exactly once, and still pass.
"""

from collections import Counter

import numpy as np

from qcrb_lab import fock, validate
from qcrb_lab.gaussian import ChannelConfig, ComplexAmplitude, SqueezeSpec, StateKind, StateSpec
from qcrb_lab.measurement import Sampler

T_GRID = np.arange(0.05, 0.951, 0.05)
S_GRID = [0.0, 0.5, 1.0, 1.5, 2.0]
CHANNELS = [
    dict(T_p=1.0, eta_p=1.0, eta_a=1.0),
    dict(T_p=0.9, eta_p=0.98, eta_a=0.98),
]


def reference_bright_specs(s):
    sq = SqueezeSpec(s=s, theta=np.pi)
    return [
        StateSpec(StateKind.BTMSS, alpha=ComplexAmplitude(1e3), squeeze=sq),
        StateSpec(StateKind.BSMSS, alpha=ComplexAmplitude(1e3), squeeze=SqueezeSpec(s=s)),
        StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(1e3)),
    ]


def reference_curves():
    return [
        (spec, ChannelConfig(**ch_kw))
        for ch_kw in CHANNELS
        for s in S_GRID
        for spec in reference_bright_specs(s)
    ]


def reference_saturation_points():
    return [
        (spec, ChannelConfig(T=T, **ch_kw))
        for ch_kw in CHANNELS
        for s in S_GRID
        for T in T_GRID
        for spec in [*reference_bright_specs(s), StateSpec(StateKind.FOCK, fock_n=20)]
    ]


def reference_oracle_points():
    points = []
    for T in (0.2, 0.5, 0.8):
        ch = ChannelConfig(T=T)
        for n in (1, 2, 5):
            points.append((StateSpec(StateKind.FOCK, fock_n=n), ch, n + 2, T))
        points.append((StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(2.0)), ch, 30, T))
        points.append((StateSpec(StateKind.BTMSS, squeeze=SqueezeSpec(s=0.6)), ch, 28, T))
    return points


def reference_mc_configs():
    sq = SqueezeSpec(s=1.0, theta=np.pi)
    configs = []
    for i, T in enumerate(np.linspace(0.15, 0.9, 25)):
        configs.append(
            (StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(200.0)), ChannelConfig(T=T),
             Sampler.GAUSSIAN_APPROX, 1000 + i)
        )
        configs.append(
            (StateSpec(StateKind.BTMSS, alpha=ComplexAmplitude(200.0), squeeze=sq),
             ChannelConfig(T=T, T_p=0.95, eta_p=0.97, eta_a=0.96), Sampler.GAUSSIAN_APPROX, 2000 + i)
        )
        configs.append(
            (StateSpec(StateKind.FOCK, fock_n=12), ChannelConfig(T=T, T_p=0.9, eta_p=0.95), Sampler.EXACT, 3000 + i)
        )
        configs.append(
            (StateSpec(StateKind.COHERENT, alpha=ComplexAmplitude(60.0)), ChannelConfig(T=T, eta_p=0.9),
             Sampler.EXACT, 4000 + i)
        )
    return configs


def record(monkeypatch, module, name, key):
    """Wrap module.name; each call appends key(*args, **kwargs) to the returned list."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(key(*args, **kwargs))
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def assert_each_case_once(calls, reference, distinct):
    assert len(set(reference)) == distinct
    assert set(calls) == set(reference)
    repeats = {case: n for case, n in Counter(calls).items() if n > 1}
    assert not repeats, f"{len(calls)} calls, {len(set(calls))} distinct: {len(repeats)} cases repeat"


def test_closed_vs_gaussian_makes_each_curve_pair_once(monkeypatch):
    closed = record(monkeypatch, validate, "lambda_curve", lambda spec, ch, T: (spec, ch))
    general = record(monkeypatch, validate, "qfi_gaussian", lambda fam, T, **kw: (fam.spec, fam.channel))
    assert validate.check_closed_vs_gaussian().passed
    assert len(reference_curves()) == 30
    assert_each_case_once(closed, reference_curves(), 22)
    assert_each_case_once(general, reference_curves(), 22)


def test_measurement_saturation_evaluates_each_point_once(monkeypatch):
    lam = record(monkeypatch, validate, "lambda_lossy", lambda spec, ch: (spec, ch))
    var = record(monkeypatch, validate, "transmission_var", lambda spec, ch: (spec, ch))
    assert validate.check_measurement_saturation().passed
    assert len(reference_saturation_points()) == 760
    assert_each_case_once(lam, reference_saturation_points(), 456)
    assert_each_case_once(var, reference_saturation_points(), 456)


def test_fock_oracle_runs_each_point_once(monkeypatch):
    points = record(
        monkeypatch, fock, "channel_density", lambda spec, ch, n_max, T=None: (spec, ch, n_max, T)
    )
    assert validate.check_fock_oracle_qfi().passed
    assert_each_case_once(points, reference_oracle_points(), 15)


def test_mc_zscores_runs_each_configuration_once(monkeypatch):
    configs = record(
        monkeypatch, validate, "mc_estimate", lambda spec, ch, plan, cfg: (spec, ch, cfg.sampler, cfg.seed)
    )
    assert validate.check_mc_zscores().passed
    assert_each_case_once(configs, reference_mc_configs(), 100)

