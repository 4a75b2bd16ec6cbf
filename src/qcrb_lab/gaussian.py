"""Gaussian states of 1-2 optical modes in the complex (a, a+) representation.

A state is described by a displacement vector d = <A> and a covariance
matrix sigma_ij = <{dA_i, dA_j^+}>, where A = (a_1..a_m, a_1^+..a_m^+)
and dA_i = A_i - <A_i>.  With this normalization the vacuum covariance
is the identity and pure states satisfy |det(k.sigma)| = 1 with
k = diag(1,..,1,-1,..,-1).

Loss channels are beamsplitters coupling in vacuum; they scale the
displacement by sqrt(t) and interpolate the covariance toward the
identity.
"""

import math
import sys
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

# Largest accepted squeezing: cosh(2s) overflows a double just above s = 355.2.
S_MAX = 355.0


class StateKind(Enum):
    COHERENT = "coherent"
    BSMSS = "bsmss"
    BTMSS = "btmss"
    FOCK = "fock"


# The StateSpec fields each kind reads; StateSpec.__post_init__ resets the others to their defaults (_UNREAD).
FIELDS_READ = {
    StateKind.COHERENT: ("alpha",),
    StateKind.BSMSS: ("alpha", "squeeze"),
    StateKind.BTMSS: ("alpha", "beta", "squeeze"),
    StateKind.FOCK: ("fock_n",),
}


def _reduce_phase(phi):
    """Map an angle to the interval (-pi, pi]."""
    r = math.remainder(phi, 2.0 * math.pi)
    if r <= -math.pi:
        r += 2.0 * math.pi
    return r


@dataclass(frozen=True)
class ComplexAmplitude:
    """Seed field amplitude, stored as magnitude and phase (radians)."""

    magnitude: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.magnitude) and math.isfinite(self.phase)):
            raise ValueError("amplitude magnitude and phase must be finite")
        if self.magnitude < 0:
            raise ValueError("amplitude magnitude must be >= 0")
        object.__setattr__(self, "phase", _reduce_phase(self.phase))

    @classmethod
    def from_complex(cls, z):
        z = complex(z)
        return cls(abs(z), math.atan2(z.imag, z.real))

    @property
    def value(self):
        return self.magnitude * complex(math.cos(self.phase), math.sin(self.phase))


@dataclass(frozen=True)
class SqueezeSpec:
    """Squeezing parameter s >= 0 and squeezing phase theta."""

    s: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.s) and math.isfinite(self.theta)):
            raise ValueError("squeezing parameter s and phase theta must be finite")
        if not 0 <= self.s <= S_MAX:
            raise ValueError(f"squeezing parameter s must lie in [0, {S_MAX:g}]")
        if self.s == 0 and math.copysign(1.0, self.s) < 0:
            object.__setattr__(self, "s", 0.0)  # -0.0 would print as "-0"


@dataclass(frozen=True)
class StateSpec:
    """Declarative description of a probe-state family.

    Each kind reads the fields FIELDS_READ lists; __post_init__ resets the others to their
    defaults, so a spec equals the one built from those fields alone (a coherent spec: s = 0).
    """

    kind: StateKind
    alpha: ComplexAmplitude = ComplexAmplitude()
    beta: ComplexAmplitude = ComplexAmplitude()
    squeeze: SqueezeSpec = SqueezeSpec()
    fock_n: int = 0

    def __post_init__(self):
        for name, default in _UNREAD[self.kind]:
            object.__setattr__(self, name, default)
        # photon counts are doubles downstream; a larger int overflows the conversion (the other kinds' fock_n is 0)
        n = self.fock_n
        if not (isinstance(n, (int, np.integer)) and 0 <= n <= sys.float_info.max):
            raise ValueError("fock_n must be a nonnegative integer no larger than the largest double")


_UNREAD = {kind: tuple((f.name, f.default) for f in fields(StateSpec)[1:] if f.name not in read)  # [1:]: after kind
           for kind, read in FIELDS_READ.items()}


@dataclass(frozen=True)
class ChannelConfig:
    """Transmissions of the system (T) and of the external loss ports.

    T_p acts on the probe before the system, eta_p after it, and eta_a
    on the auxiliary mode.
    """

    T: float = 0.5
    T_p: float = 1.0
    eta_p: float = 1.0
    eta_a: float = 1.0

    def __post_init__(self):
        for name in ("T", "T_p", "eta_p", "eta_a"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")

    @property
    def probe_transmission(self):
        """Total transmission seen by the probe mode."""
        return self.probe_transmission_at(self.T)

    def probe_transmission_at(self, T):
        """The probe's total transmission T_p * T * eta_p with T (a float or an array) for self.T."""
        return self.T_p * T * self.eta_p


@dataclass(frozen=True)
class Moments:
    """Photon-number mean/variance per mode and cross-mode covariance."""

    mean_p: float
    var_p: float
    mean_a: float = 0.0
    var_a: float = 0.0
    cov_pa: float = 0.0


@dataclass(frozen=True)
class GaussianState:
    """Displacement vector and covariance matrix of a 1- or 2-mode state."""

    d: np.ndarray
    sigma: np.ndarray

    @property
    def modes(self):
        return len(self.d) // 2


def k_matrix(modes):
    return np.diag([1.0] * modes + [-1.0] * modes)


def make_bsmss(alpha, squeeze):
    """Bright single-mode squeezed state S(s, theta) D(alpha) |0>; at s = 0 the coherent state |alpha>."""
    s, th = squeeze.s, squeeze.theta
    a = alpha.value
    e = np.exp(1j * th)
    c2, s2 = np.cosh(2 * s), np.sinh(2 * s)
    sigma = np.array(
        [
            [c2, -e * s2],
            [-np.conj(e) * s2, c2],
        ],
        dtype=complex,
    )
    # a cosh(s) - conj(a) e sinh(s) without the cancellation of its terms:
    # with u = a e^{-i theta/2} it is a e^{-s} + 2i e^{i theta/2} Im(u) sinh(s)
    half = np.exp(0.5j * th)
    dp = a * np.exp(-s) + 2j * half * (a * np.conj(half)).imag * np.sinh(s)
    d = np.array([dp, np.conj(dp)])
    return GaussianState(d=d, sigma=sigma)


def make_btmss(alpha, beta, squeeze):
    """Bright two-mode squeezed state S_pa(s, theta) D_p(alpha) D_a(beta) |0,0>.

    Mode 0 is the probe, mode 1 the auxiliary.
    """
    s, th = squeeze.s, squeeze.theta
    a, b = alpha.value, beta.value
    e = np.exp(1j * th)
    c2, s2 = np.cosh(2 * s), np.sinh(2 * s)
    sigma = np.array(
        [
            [c2, 0, 0, -e * s2],
            [0, c2, -e * s2, 0],
            [0, -np.conj(e) * s2, c2, 0],
            [-np.conj(e) * s2, 0, 0, c2],
        ],
        dtype=complex,
    )
    ch, sh = np.cosh(s), np.sinh(s)
    d = np.array(
        [
            a * ch - np.conj(b) * e * sh,
            b * ch - np.conj(a) * e * sh,
            np.conj(a) * ch - b * np.conj(e) * sh,
            np.conj(b) * ch - a * np.conj(e) * sh,
        ]
    )
    return GaussianState(d=d, sigma=sigma)


def make_source(spec):
    """Build the generated (pre-loss) Gaussian state for a StateSpec."""
    if spec.kind in (StateKind.COHERENT, StateKind.BSMSS):  # a coherent spec carries no squeeze: s = 0
        return make_bsmss(spec.alpha, spec.squeeze)
    if spec.kind is StateKind.BTMSS:
        return make_btmss(spec.alpha, spec.beta, spec.squeeze)
    raise ValueError(f"{spec.kind} is not a Gaussian state")


def _attenuate(state, scale):
    """Beamsplitter-with-vacuum loss with amplitude factor sqrt(t) per index; scale's leading axes stack."""
    # D sigma D + I - D^2 with D = diag(scale), elementwise in that order to round as the matrix form does
    eye = np.eye(scale.shape[-1])
    sigma = scale[..., :, None] * state.sigma * scale[..., None, :] + eye - eye * scale[..., None, :] ** 2
    return GaussianState(d=scale * state.d, sigma=sigma)


def channel_scaling(ch, modes, T):
    """Amplitude factors of the loss chain over the 2*modes complex-form indices.

    Losses in series compose by multiplying transmissions, so the probe
    sees T_p * T * eta_p in one step; the auxiliary mode sees eta_a.  T
    (a float or an array, whose shape leads the result's) stands for ch.T.
    """
    probe = ch.probe_transmission_at(np.asarray(T))
    return np.sqrt(np.where([True, False][:modes] * 2, probe[..., None], ch.eta_a))


def apply_channel(state, ch):
    """Probe through T_p, T, eta_p; auxiliary (if present) through eta_a."""
    return _attenuate(state, channel_scaling(ch, state.modes, ch.T))


def williamson(sigma):
    """Williamson decomposition of covariance matrices stacked over leading axes.

    With the Cholesky factor sigma = L L+ and the Hermitian eigendecomposition
    L+ k L = U diag(lam) U+, returns lam and W = L^-+ U, so that W+ sigma W = 1
    and W^-1 k W^-+ = diag(lam).  By Sylvester's law of inertia lam ascends
    as -nu then +nu over the symplectic eigenvalues nu of k.sigma: for
    (..., 2m, 2m) inputs lam is (..., 2m), lam[..., m:] the nu ascending.
    Raises ValueError unless every sigma is positive definite.
    """
    try:
        L = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise ValueError("covariance matrix is not positive definite") from None
    Lh = L.conj().swapaxes(-1, -2)
    lam, U = np.linalg.eigh((Lh * k_matrix(sigma.shape[-1] // 2).diagonal()) @ L)
    return lam, np.linalg.solve(Lh, U)


def symplectic_eigenvalues(state):
    """Positive symplectic spectrum of k.sigma, sorted ascending."""
    sigma = state.sigma
    if not np.allclose(sigma, sigma.conj().T, atol=1e-10):
        raise ValueError("covariance matrix is not Hermitian")
    return williamson(sigma)[0][state.modes:]


def photon_moments(state):
    """Photon-number mean/variance per mode and cross covariance.

    Uses the Gaussian (Wick) moment expansion; exact for any Gaussian
    state.  Single-mode states report zero auxiliary moments.
    """
    m = state.modes
    d, sigma = state.d, state.sigma

    def mode_stats(i):
        nc = (np.real(sigma[i, i]) - 1.0) / 2.0  # <da+ da>
        sq = sigma[i, i + m] / 2.0               # <da da>
        amp = d[i]
        mean = nc + abs(amp) ** 2
        var = (
            nc * nc
            + nc
            + abs(sq) ** 2
            + abs(amp) ** 2 * (2 * nc + 1)
            + 2 * np.real(np.conj(amp) ** 2 * sq)
        )
        return mean, var

    mean_p, var_p = mode_stats(0)
    if m == 1:
        return Moments(mean_p=mean_p, var_p=var_p)
    mean_a, var_a = mode_stats(1)
    E = np.conj(sigma[0, 1]) / 2.0   # <da_p+ da_a>
    F = sigma[0, 1 + m] / 2.0        # <da_p da_a>
    cov = (
        abs(E) ** 2
        + abs(F) ** 2
        + 2 * np.real(np.conj(d[0]) * np.conj(d[1]) * F)
        + 2 * np.real(d[0] * np.conj(d[1]) * E)
    )
    return Moments(mean_p=mean_p, var_p=var_p, mean_a=mean_a, var_a=var_a, cov_pa=cov)
