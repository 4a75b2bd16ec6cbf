"""Independent closed forms that the benchmark checks the library against.

Written from the paper's formulas, not from the library code, so a
change in ``qcrb_lab.qfi`` that alters a number is caught here.
"""

import math


def lam_closed(state, s, T, T_p=1.0, eta_p=1.0, eta_a=1.0):
    """Photon-normalized bound Lambda(T) with external losses.

    Bright limit for the squeezed probes.  With cosh(2s) = 1 + 2 sinh^2 s
    the bTMSS advantage 1 - sech(2s) is 2 sinh^2 s / cosh(2s), and the
    auxiliary-loss factor is h = (2 eta_a - 1) cosh(2s) / (1 + 2 eta_a sinh^2 s).
    """
    shot = T / eta_p
    if state == "coherent":
        return shot
    if state == "fock":
        return shot - T * T * T_p
    if state == "bsmss":
        return shot + T * T * T_p * math.expm1(-2.0 * s)
    if state == "btmss":
        sh2 = math.sinh(s) ** 2
        c2 = 1.0 + 2.0 * sh2
        h = (2.0 * eta_a - 1.0) * c2 / (1.0 + 2.0 * eta_a * sh2)
        return shot - T * T * T_p * h * (2.0 * sh2 / c2)
    raise ValueError(f"no closed form for state {state!r}")


def floor(T):
    """Fock-state limit T - T^2 that no probe's Lambda goes below."""
    return T * (1.0 - T)


def btmss_qfi_lossless(alpha, beta, s, theta, T):
    """Exact QFI of a lossless bTMSS seeded with complex amplitudes alpha, beta.

    Vacuum (spontaneous) term plus stimulated term:
    sinh^2 s / (T - T^2) + n_b / (T - T^2 + T^2 sech 2s).
    """
    big_theta = theta - math.atan2(alpha.imag, alpha.real) - math.atan2(beta.imag, beta.real)
    a, b = abs(alpha), abs(beta)
    n_bright = (
        (a * math.cosh(s)) ** 2
        + (b * math.sinh(s)) ** 2
        - a * b * math.cos(big_theta) * math.sinh(2.0 * s)
    )
    var = T * (1.0 - T)
    return math.sinh(s) ** 2 / var + n_bright / (var + T * T / math.cosh(2.0 * s))


def btmss_qfi_probe_loss(alpha, beta, s, theta, T, T_p, eta_p):
    """QFI in T when only the probe arm has loss (eta_a = 1).

    The state depends on T only through p = T_p T eta_p, so
    F_T = F_p (dp/dT)^2 with F_p the lossless QFI at transmission p.
    """
    p = T_p * T * eta_p
    return btmss_qfi_lossless(alpha, beta, s, theta, p) * (T_p * eta_p) ** 2


def thinned_fock_moments(n, p):
    """Mean and variance of n photons after binomial thinning at p."""
    return n * p, n * p * (1.0 - p)
