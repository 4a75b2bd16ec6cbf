"""Measurements that saturate the transmission-estimation bound.

Each probe has one saturating measurement, picked by strategy_for:
direct intensity for the single-mode probes, the gain-optimized
intensity difference for the bTMSS.  Closed-form variances, error
propagation to a transmission variance, and a seeded Monte Carlo
harness that checks the closed forms against empirical estimator
variance.
"""

import math
import warnings
from dataclasses import astuple, dataclass
from enum import Enum

import numpy as np

from . import fock
from .gaussian import StateKind
from .qfi import big_theta, h_factor, require_amplitude_squeezing, resource_photons, source_moments

# Gaussian-approximation sampling is only trusted at bright photon scales.
BRIGHT_MEAN_MIN = 1e3
# Fock truncations the Exact sampler tries in turn for non-Fock probes.  The
# first was the fixed truncation before, so seeded results made with it
# repeat; the last caps the per-mode basis (a two-mode distribution of 8 MB).
EXACT_N_MAX = (40, 60, 90, 135, 200, 300, 450, 700, 1000)
_BLOCK = 1 << 14
# Largest accepted trial count: bounds the run time and the RNG blocks
# spawned up front (6,104 at this cap).
MAX_TRIALS = 10**8


class Strategy(Enum):
    INTENSITY = "Intensity"
    INTENSITY_DIFF = "IntensityDiff"


class Sampler(Enum):
    EXACT = "Exact"
    GAUSSIAN_APPROX = "GaussianApprox"


def strategy_for(spec):
    """The measurement that saturates the bound for this probe.

    The gain-optimized intensity difference for the bTMSS, direct
    intensity for every single-mode probe.
    """
    return Strategy.INTENSITY_DIFF if spec.kind is StateKind.BTMSS else Strategy.INTENSITY


@dataclass(frozen=True)
class MeasurementPlan:
    gain: float | None = None  # bTMSS only; None = use optimal gain

    def __post_init__(self):
        if self.gain is not None and not math.isfinite(self.gain):
            raise ValueError("gain must be finite")


@dataclass(frozen=True)
class MCConfig:
    trials: int
    seed: int
    sampler: Sampler = Sampler.GAUSSIAN_APPROX

    def __post_init__(self):
        if not 100 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"trials must lie in [100, {MAX_TRIALS}]")


@dataclass(frozen=True)
class MCResult:
    empirical_var_T: float
    closed_form_var_T: float
    z_score: float
    trials: int
    seed: int


def thinned_stats(mean0, var0, t):
    """Mean and variance of a photon count after transmission t."""
    return t * mean0, t * t * var0 + t * (1.0 - t) * mean0


def intensity_stats(moments0, t):
    """Probe-intensity mean and variance after total transmission t."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("transmission outside [0, 1]")
    return thinned_stats(moments0.mean_p, moments0.var_p, t)


_FANO = {
    StateKind.COHERENT: lambda spec: 1.0,
    StateKind.BSMSS: lambda spec: math.exp(-2.0 * spec.squeeze.s),
    StateKind.FOCK: lambda spec: 0.0,
}


def optimal_gain(moments0, channel):
    """Electronic gain minimizing the intensity-difference variance."""
    denom = channel.eta_a * moments0.var_a + (1.0 - channel.eta_a) * moments0.mean_a
    if denom <= 0.0:
        raise ValueError("degenerate auxiliary mode: no gain optimum")
    return channel.probe_transmission * moments0.cov_pa / denom


def diff_variance(moments0, channel, g):
    """Variance of n_p - g n_a after the full loss chain."""
    t_p = channel.probe_transmission
    t_a = channel.eta_a
    _, var_p = thinned_stats(moments0.mean_p, moments0.var_p, t_p)
    _, var_a = thinned_stats(moments0.mean_a, moments0.var_a, t_a)
    return var_p + g * g * var_a - 2.0 * g * t_p * t_a * moments0.cov_pa


def transmission_var(spec, channel):
    """Error-propagated transmission variance of the probe's measurement.

    The measurement is strategy_for(spec).  Single-mode probes use the
    source Fano factor (bright-limit value for the bSMSS, which needs
    amplitude squeezing); the bTMSS closed form takes the derivative of
    the mean response at fixed gain.  A doubly seeded bTMSS away from
    cos(Theta) = -1 does not saturate the bound; the value is still
    returned with a warning.
    """
    require_amplitude_squeezing(spec)
    n_r = resource_photons(spec, channel)
    detected = channel.eta_p * n_r
    if not detected > 0:  # both forms divide by it
        raise ValueError("no probe photons reach the detector: eta_p * n_r underflows to 0")
    T, T_p = channel.T, channel.T_p
    if spec.kind is StateKind.BTMSS:
        if spec.alpha.magnitude > 0 and spec.beta.magnitude > 0:
            if math.cos(big_theta(spec)) > -1.0 + 1e-12:
                warnings.warn(
                    "doubly seeded bTMSS with cos(Theta) != -1: the optimized "
                    "intensity difference does not saturate the bound",
                    stacklevel=2,
                )
        s = spec.squeeze.s
        return T / detected - (T * T * T_p / n_r) * h_factor(
            s, channel.eta_a
        ) * (1.0 - 1.0 / math.cosh(2.0 * s))
    return T / detected - (T * T * T_p / n_r) * (1.0 - _FANO[spec.kind](spec))


def _block_rngs(seed, trials):
    n_blocks = (trials + _BLOCK - 1) // _BLOCK
    seqs = np.random.SeedSequence(seed).spawn(n_blocks)
    sizes = [_BLOCK] * (n_blocks - 1) + [trials - _BLOCK * (n_blocks - 1)]
    for sq, size in zip(seqs, sizes):
        yield np.random.Generator(np.random.Philox(sq)), size


def _exact_joint_probs(spec, channel):
    """Photon-count distribution after the channel, flattened, and the basis size.

    A Fock probe needs n_max = fock_n + 2; other probes take the first
    truncation in EXACT_N_MAX whose tail mass passes fock.TAIL_TOL.
    """
    tries = (spec.fock_n + 2,) if spec.kind is StateKind.FOCK else EXACT_N_MAX
    if tries[0] > EXACT_N_MAX[-1]:
        raise ValueError(
            f"Exact sampler holds at most {EXACT_N_MAX[-1] - 2} photons per mode"
        )
    for n_max in tries:
        try:
            probs = fock.channel_probs(spec, channel, n_max=n_max)
            break
        except fock.TruncationError as exc:
            if n_max == tries[-1]:
                raise fock.TruncationError(
                    f"tail mass above {fock.TAIL_TOL:.0e} even at the Exact "
                    f"sampler's cap n_max={n_max}"
                ) from exc
    probs = np.clip(probs.ravel(), 0.0, None)
    return probs / probs.sum(), n_max + 1


def mc_estimate(spec, channel, plan, cfg):
    """Monte Carlo check of the closed-form transmission variance.

    Samples outcomes of the probe's measurement (strategy_for), inverts
    the mean-response map at the known calibration constants (T_p,
    eta_p, eta_a, g) to form the estimator, and reports the empirical
    variance with a z-score against the closed form.  Deterministic for
    a fixed (seed, trials) pair: trials are partitioned into fixed-size
    blocks, each drawn from its own counter-based RNG spawned from the
    seed.
    """
    strategy = strategy_for(spec)
    if plan.gain is not None and strategy is Strategy.INTENSITY:
        raise ValueError("gain applies to a bTMSS probe only: a single-mode probe has no auxiliary mode")
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        m0 = source_moments(spec)
    if not all(map(math.isfinite, astuple(m0))):
        raise ValueError("source photon moments overflow a double")
    t_probe = channel.probe_transmission
    slope = float(channel.T_p * channel.eta_p * m0.mean_p)  # a float's square overflows to inf, silently
    if not slope * slope > 0:  # the closed form divides by slope^2
        raise ValueError("vacuum or near-vacuum probe: the mean response's square underflows to 0")
    if slope * slope == math.inf:
        raise ValueError("probe too bright: the mean response's square overflows a double")

    if strategy is Strategy.INTENSITY_DIFF:
        g = plan.gain if plan.gain is not None else optimal_gain(m0, channel)
        closed_var_n = diff_variance(m0, channel, g)
        offset = g * channel.eta_a * m0.mean_a
    else:
        g = 0.0
        _, closed_var_n = intensity_stats(m0, t_probe)
        offset = 0.0
    closed_var_T = closed_var_n / slope**2
    se = closed_var_T * math.sqrt(2.0 / (cfg.trials - 1))
    if not se > 0:  # a noiseless count (T = 0 or 1) or an underflow
        raise ValueError("the closed-form variance is 0: the z-score is undefined")

    if cfg.sampler is Sampler.GAUSSIAN_APPROX:
        if t_probe * m0.mean_p < BRIGHT_MEAN_MIN:
            raise ValueError(
                "GaussianApprox sampler requires a bright probe "
                f"(mean photons >= {BRIGHT_MEAN_MIN:g} after losses)"
            )
        mean_p, var_p = thinned_stats(m0.mean_p, m0.var_p, t_probe)
        mean_a, var_a = thinned_stats(m0.mean_a, m0.var_a, channel.eta_a)
        cov = t_probe * channel.eta_a * m0.cov_pa

        def draw(rng, size):
            if strategy is Strategy.INTENSITY:
                return rng.normal(mean_p, math.sqrt(var_p), size)
            # conditional decomposition of the bivariate normal
            xp = rng.normal(mean_p, math.sqrt(var_p), size)
            cond_var = max(var_a - cov * cov / var_p, 0.0)
            xa = mean_a + cov / var_p * (xp - mean_p) + rng.normal(
                0.0, math.sqrt(cond_var), size
            )
            return xp - g * xa

    else:
        if spec.kind is StateKind.COHERENT:
            # coherent states stay coherent under loss: exact Poisson counts
            lam = t_probe * m0.mean_p

            def draw(rng, size):
                return rng.poisson(lam, size).astype(float)

        else:
            probs, dim = _exact_joint_probs(spec, channel)
            if spec.kind is StateKind.BTMSS:
                idx = np.arange(dim * dim)
                values = (idx // dim) - g * (idx % dim)
            else:
                values = np.arange(dim, dtype=float)

            def draw(rng, size):
                return values[rng.choice(len(probs), size=size, p=probs)]

    # sums of deviations from the true T: raw sums of T-hat would cancel
    # every digit once var(T-hat) / T^2 nears the double's 1e-16
    total = 0.0
    total_sq = 0.0
    for rng, size in _block_rngs(cfg.seed, cfg.trials):
        dev = (draw(rng, size) + offset) / slope - channel.T
        total += dev.sum()
        total_sq += (dev * dev).sum()
    n = cfg.trials
    emp_var = (total_sq - total * total / n) / (n - 1)
    return MCResult(
        empirical_var_T=emp_var,
        closed_form_var_T=closed_var_T,
        z_score=(emp_var - closed_var_T) / se,
        trials=n,
        seed=cfg.seed,
    )
