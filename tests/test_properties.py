"""Property-based tests of the closed forms over random valid probes and channels.

Hypothesis runs derandomized and without an example database, so the
suite draws the same examples on every run and keeps no failures from
earlier runs (only its constants cache under .hypothesis/ is written).
"""

import math
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from qcrb_lab.gaussian import ChannelConfig, ComplexAmplitude, SqueezeSpec, StateKind, StateSpec
from qcrb_lab.measurement import transmission_var
from qcrb_lab.qfi import lambda_lossy

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
    # single-seeded bTMSS only: a doubly seeded one off cos(Theta) = -1 warns
    return StateSpec(kind, alpha=alpha, squeeze=SqueezeSpec(s=draw(st.floats(0.0, 3.0)), theta=draw(phases)))


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
