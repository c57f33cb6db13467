"""Absorption of a frequency-modulated drive by a damped oscillator.

The drive is f*exp(i(omega t + phi(t))) acting on a unit-mass damped
harmonic oscillator.  Sideband sums of the form

    A_s = sum_n J_n(M) J_{n-s}(M) / (gamma + i n Omega)

are evaluated four ways: direct truncated summation, the complex-order
Bessel closed form, its Gamma-product series elaboration, and the short
geometric expansion in Omega/gamma.  The absorbed-power harmonics come
from the exact sideband decomposition and, independently, from numerical
integration of the oscillator equation in an exactly transformed modal
frame (the optical carrier is factored out analytically so the integrator
only tracks the slow envelope).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from besselrules.bessel_core import (
    OracleError,
    _j_symmetric,
    bessel_j_complex_order,
    truncation_bound,
)
from besselrules.coefficients import build_coeff_table
from besselrules.sum_rules import GeneralModulation

__all__ = [
    "OscillatorParams",
    "HarmonicDecomposition",
    "RegimeError",
    "PerturbativeDomainWarning",
    "steady_state_amplitude",
    "average_power_unmodulated",
    "a_s_direct",
    "a_s_newberger",
    "a_s_series",
    "a_s_geometric",
    "a_s_eta_coefficients",
    "perturbative_validity",
    "exact_truncation_order",
    "modulated_power_exact",
    "modulated_power_perturbative",
    "general_modulation_power",
    "time_domain_oracle",
]

SINH_GUARD = 700.0


class RegimeError(ValueError):
    """Parameters left the numerically (or physically) valid regime."""


class PerturbativeDomainWarning(UserWarning):
    """The geometric expansion was evaluated outside its convergence bound."""


def perturbative_validity(M: float, gamma: float, Omega: float) -> bool:
    """True when 2 * N_max * Omega / gamma < 1 with N_max ~ 2M.

    N_max approximates where the J_n(M) J_{n-s}(M) products become
    negligible on the physics scale (~2M, never below 1); the rigorous
    envelope bound is far too conservative for this purpose because its
    accuracy floor swamps the physics scale at small M.
    """
    n_max = max(1, math.ceil(2.0 * M))
    return abs(2.0 * n_max * Omega / gamma) < 1.0


@dataclass(frozen=True)
class OscillatorParams:
    """Damped-oscillator and modulation parameters, all in rad/s except M, force.

    delta is the detuning of the carrier from resonance: the drive carrier
    sits at omega0 + delta.
    """

    omega0: float
    gamma: float
    force: float
    delta: float
    Omega: float
    M: float

    def __post_init__(self):
        for name in ("omega0", "gamma", "Omega"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")
        if not (self.M >= 0.0 and math.isfinite(self.M)):
            raise ValueError(f"M must be finite and >= 0, got {self.M!r}")
        if not (math.isfinite(self.force) and math.isfinite(self.delta)):
            raise ValueError("force and delta must be finite")

    @property
    def Delta(self) -> float:
        """Normalized detuning 2 delta / gamma."""
        return 2.0 * self.delta / self.gamma

    @property
    def eta(self) -> float:
        """Frequency ratio Omega / gamma."""
        return self.Omega / self.gamma

    @property
    def epsilon(self) -> float:
        """Magnitude of the geometric-expansion parameter |2 Omega/gamma / (1 + i Delta)|."""
        return abs(2.0 * self.Omega / self.gamma / complex(1.0, self.Delta))

    @property
    def perturbative_valid(self) -> bool:
        return perturbative_validity(self.M, self.gamma, self.Omega)

    @property
    def carrier(self) -> float:
        return self.omega0 + self.delta


@dataclass(frozen=True)
class HarmonicDecomposition:
    """DC value plus cosine/sine amplitudes at harmonics 1, 2, ... of Omega."""

    dc: float
    cos_amps: tuple[float, ...]
    sin_amps: tuple[float, ...]

    def __post_init__(self):
        if len(self.cos_amps) != len(self.sin_amps):
            raise ValueError("cos_amps and sin_amps must have equal length")

    @property
    def n_harmonics(self) -> int:
        return len(self.cos_amps)

    def reconstruct(self, Omega: float, t: float | np.ndarray) -> float | np.ndarray:
        wt = Omega * np.asarray(t, dtype=float)
        total = np.full_like(wt, self.dc)
        for h, (c, s) in enumerate(zip(self.cos_amps, self.sin_amps), start=1):
            total += c * np.cos(h * wt) + s * np.sin(h * wt)
        return total if total.shape else float(total)


def steady_state_amplitude(p: OscillatorParams, omega: float) -> complex:
    """Settled complex response amplitude f / (omega0^2 - omega^2 + i gamma omega)."""
    return p.force / complex(p.omega0**2 - omega**2, p.gamma * omega)


def average_power_unmodulated(p: OscillatorParams, omega: float) -> float:
    """Cycle-averaged absorbed power of an unmodulated drive at omega."""
    num = 0.5 * p.force**2 * omega**2 * p.gamma
    den = (omega**2 - p.omega0**2) ** 2 + (omega * p.gamma) ** 2
    return num / den if den else 0.0


def a_s_direct(
    s: int, M: float, gamma: float, Omega: float, tol: float = 1e-14
) -> complex:
    """Truncated direct sum of J_n(M) J_{n-s}(M) / (gamma + i n Omega)."""
    if not (gamma > 0.0):
        raise ValueError(f"gamma must be > 0, got {gamma!r}")
    n_max = truncation_bound(abs(M), tol) + abs(s) + 8
    j = _j_symmetric(M, n_max + abs(s))
    n = np.arange(-n_max, n_max + 1)
    center = n_max + abs(s)
    terms = j[n + center] * j[n - s + center] / (gamma + 1j * n * Omega)
    return complex(np.sum(terms))


def _reflected(s: int, value: complex) -> complex:
    """A_s for s < 0 from value = A_{-s}: A_s = (-1)^s conj(A_{-s})."""
    return ((-1) ** (s % 2)) * value.conjugate()


def a_s_newberger(s: int, M: float, gamma: float, Omega: float) -> complex:
    """Closed form of the resonant sideband sum via complex-order Bessels.

    The closed form holds for s >= 0; negative s follows from
    A_{-s} = (-1)^s conj(A_s).  Guarded against sinh overflow at
    pi gamma / Omega > 700, where the prefactor and the Bessel product
    overflow in opposite directions.
    """
    if s < 0:
        return _reflected(s, a_s_newberger(-s, M, gamma, Omega))
    if not (gamma > 0.0 and Omega > 0.0):
        raise ValueError("gamma and Omega must be > 0")
    if M == 0.0:
        return (1.0 / gamma if s == 0 else 0.0) + 0.0j
    x = math.pi * gamma / Omega
    if x > SINH_GUARD:
        raise OverflowError(
            f"pi*gamma/Omega = {x:.1f} exceeds {SINH_GUARD:.0f}; "
            "use the series or direct evaluation instead"
        )
    a = gamma / Omega
    prefactor = ((-1) ** (s % 2)) / gamma * (x / math.sinh(x))
    return (
        prefactor
        * bessel_j_complex_order(complex(s, -a), M)
        * bessel_j_complex_order(complex(0.0, a), M)
    )


def a_s_series(
    s: int, M: float, gamma: float, Omega: float, k_max: int = 40
) -> complex:
    """Gamma-product series for the resonant sideband sum.

    The series is written for s >= 0; negative s follows from
    A_{-s} = (-1)^s conj(A_s).  Terms are factorially damped, so the
    partial sum to k_max converges for every M; k_max = 40 reaches double
    precision for moderate M.
    """
    if s < 0:
        return _reflected(s, a_s_series(-s, M, gamma, Omega, k_max))
    if not (0 <= k_max <= 60):
        raise ValueError(f"k_max must lie in [0, 60], got {k_max}")
    if not (gamma > 0.0 and Omega > 0.0):
        raise ValueError("gamma and Omega must be > 0")
    a = gamma / Omega
    # term_k = (-M^2/4)^k (s+2k)!/((s+k)! k!) prod_{p<=s} 1/(k+p-ia)
    #          * prod_{p<=k} 1/(p^2+a^2), built incrementally.
    term = 1.0 + 0.0j
    for p in range(1, s + 1):
        term /= complex(p, -a)
    total = term
    q = -0.25 * M * M
    for k in range(k_max):
        ratio = q * (s + 2 * k + 1) * (s + 2 * k + 2) / ((s + k + 1) * (k + 1))
        if s > 0:
            ratio *= complex(k + 1, -a) / complex(k + 1 + s, -a)
        ratio /= (k + 1) ** 2 + a * a
        term *= ratio
        total += term
    return ((-1) ** (s % 2)) / gamma * (0.5 * M) ** s * total


def a_s_geometric(
    s: int, M: float, gamma: float, Omega: float, order: int
) -> complex:
    """Short expansion (1/gamma) sum_k (-i Omega/gamma)^k B[k, s](M).

    Outside the convergence bound the value is still returned but a
    PerturbativeDomainWarning is issued.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if not (gamma > 0.0 and Omega > 0.0):
        raise ValueError("gamma and Omega must be > 0")
    if not perturbative_validity(M, gamma, Omega):
        warnings.warn(
            "geometric expansion evaluated outside its validity bound "
            f"(2*N_max*Omega/gamma >= 1 at M={M}, Omega/gamma={Omega/gamma})",
            PerturbativeDomainWarning,
            stacklevel=2,
        )
    table = build_coeff_table(order)
    eta = Omega / gamma
    total = 0.0 + 0.0j
    for k in range(order + 1):
        if abs(s) <= k:
            poly = table.entry(k, s)
            if not poly.is_zero():
                total += (-1j * eta) ** k * poly.evaluate(M)
    return total / gamma


def a_s_eta_coefficients(s: int, M: float, order: int) -> list[complex]:
    """Coefficients c_k with A_s ~ (1/gamma) sum_k c_k eta^k, eta = Omega/gamma.

    c_k = (-i)^k B[k, s](M), evaluated from the exact coefficient table;
    for dyadic M the float results are exact.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    table = build_coeff_table(order)
    out = []
    for k in range(order + 1):
        value = table.entry(k, s).evaluate(M) if abs(s) <= k else 0.0
        out.append((-1j) ** (k % 4) * value)
    return out


def _harmonics_from_sideband_sums(
    f: float, x_s: dict[int, complex], s_max: int
) -> HarmonicDecomposition:
    dc = -0.5 * f * f * x_s[0].imag
    cos_amps = []
    sin_amps = []
    for h in range(1, s_max + 1):
        cos_amps.append(-0.5 * f * f * (x_s[h].imag + x_s[-h].imag))
        sin_amps.append(-0.5 * f * f * (x_s[h].real - x_s[-h].real))
    return HarmonicDecomposition(dc, tuple(cos_amps), tuple(sin_amps))


def exact_truncation_order(M: float, s_max: int) -> int:
    """Largest |n| that modulated_power_exact keeps for harmonics up to s_max."""
    return truncation_bound(M, 1e-18) + s_max + 8


def modulated_power_exact(p: OscillatorParams, s_max: int) -> HarmonicDecomposition:
    """Averaged absorbed power harmonics from the exact sideband sums.

    Keeps the full response factor omega_n / (omega0^2 - omega_n^2 +
    i gamma omega_n) for every retained sideband omega_n = carrier + n
    Omega; only the optical-frequency (2 omega) components are discarded,
    which is what the measurement average does.
    """
    if s_max < 0:
        raise ValueError(f"s_max must be >= 0, got {s_max}")
    n_max = exact_truncation_order(p.M, s_max)
    center = n_max + s_max
    j = _j_symmetric(p.M, center)
    n = np.arange(-n_max, n_max + 1)
    omega_n = p.carrier + n * p.Omega
    if omega_n.min() <= 0.0:
        raise RegimeError(
            f"sideband frequencies reach {omega_n.min():.3e} <= 0 within the "
            f"truncation range |n| <= {n_max}; the oscillator model needs "
            "positive drive frequencies"
        )
    response = omega_n / (p.omega0**2 - omega_n**2 + 1j * p.gamma * omega_n)
    jn = j[n + center]
    x_s = {}
    for s in range(-s_max, s_max + 1):
        x_s[s] = complex(np.sum(jn * j[n - s + center] * response))
    return _harmonics_from_sideband_sums(p.force, x_s, s_max)


def modulated_power_perturbative(p: OscillatorParams) -> HarmonicDecomposition:
    """Leading closed-form harmonics of the averaged absorbed power.

    dc carries the Lorentzian plus the dc half of the (1 + cos 2 Omega t)
    second-harmonic term; the first harmonic has a first-order cosine and
    a second-order sine; the second harmonic is pure cosine at this order.
    All amplitudes scale with f^2/(2 gamma).
    """
    if not p.perturbative_valid:
        warnings.warn(
            "perturbative lineshape evaluated outside its validity bound",
            PerturbativeDomainWarning,
            stacklevel=2,
        )
    scale = 0.5 * p.force**2 / p.gamma
    d = p.Delta
    lorentz = 1.0 / (1.0 + d * d)
    kappa = 2.0 * p.M * p.Omega / p.gamma
    second = 0.5 * kappa**2 * (3.0 * d * d - 1.0) / (1.0 + d * d) ** 3
    h1_cos = kappa * (-2.0 * d) / (1.0 + d * d) ** 2
    # (1/M) kappa^2 written as 4 M (Omega/gamma)^2 so M -> 0 stays finite
    h1_sin = (
        4.0 * p.M * (p.Omega / p.gamma) ** 2 * d * (d * d - 3.0) / (1.0 + d * d) ** 3
    )
    return HarmonicDecomposition(
        dc=scale * (lorentz + second),
        cos_amps=(scale * h1_cos, scale * second),
        sin_amps=(scale * h1_sin, 0.0),
    )


def general_modulation_power(
    p: OscillatorParams, mod: GeneralModulation, t: float
) -> float:
    """Leading-order instantaneous averaged power for arbitrary modulation.

    Uses the instantaneous-frequency form: the Lorentzian dc plus the
    first Lorentzian derivative times d phi/dt.
    """
    scale = 0.5 * p.force**2 / p.gamma
    d = p.Delta
    rate = mod.phase_rate(t)
    return scale * (
        1.0 / (1.0 + d * d)
        + (2.0 / p.gamma) * (-2.0 * d / (1.0 + d * d) ** 2) * rate
    )


def _modal_constants(p: OscillatorParams) -> tuple[complex, complex, complex]:
    """Homogeneous rates (lambda1, lambda2) and the carrier frequency.

    lambda1 co-rotates with the drive; lambda2 is the counter-rotating
    root.  gamma < 2 omega0 always holds in the regimes this model serves.
    """
    if p.gamma >= 2.0 * p.omega0:
        raise RegimeError("overdamped oscillator: gamma >= 2 omega0")
    omega_d = math.sqrt(p.omega0**2 - 0.25 * p.gamma**2)
    lam1 = complex(-0.5 * p.gamma, omega_d)
    lam2 = complex(-0.5 * p.gamma, -omega_d)
    return lam1, lam2, p.carrier


def time_domain_oracle(
    p: OscillatorParams,
    mod: GeneralModulation,
    periods: int,
    samples_per_period: int,
    n_harmonics: int = 4,
    rtol: float = 1e-10,
) -> HarmonicDecomposition:
    """Absorbed-power harmonics from direct integration of the oscillator.

    The second-order equation is solved exactly by variation of parameters
    over its two homogeneous modes; factoring the drive carrier out of the
    co-rotating mode leaves a single slow complex amplitude, integrated
    here with an adaptive 4/5-order embedded pair.  The counter-rotating
    mode is forced at ~2 omega0 and stays asymptotically slaved to the
    drive envelope, so its particular solution is accumulated analytically
    (three derivative orders, accurate to ~(rate/omega0)^3).  The absorbed
    power then comes from drive times velocity with the optical 2 omega
    component dropped, exactly what a multi-cycle averaging window leaves.

    Settling runs for at least 10/gamma (longer when needed to push the
    startup transient below the integration tolerance) before `periods`
    modulation periods are sampled `samples_per_period` times each.
    """
    if periods < 1 or samples_per_period < 4:
        raise ValueError("need periods >= 1 and samples_per_period >= 4")
    if mod.fundamental != p.Omega:
        raise ValueError("modulation fundamental must equal p.Omega")
    lam1, lam2, omega = _modal_constants(p)
    kappa1 = lam1 - 1j * omega
    kappa2 = lam2 - 1j * omega
    dlam = lam1 - lam2
    f = p.force

    def envelope(t: np.ndarray | float) -> np.ndarray | complex:
        return np.exp(1j * mod.phase(t))

    def drive1(t):
        return f * envelope(t) / dlam

    def counter_mode(t: np.ndarray | float) -> np.ndarray | complex:
        # Slaved particular solution of the counter-rotating mode:
        # -(h/k2 + h'/k2^2 + h''/k2^3) with h = -f g / dlam.
        g = envelope(t)
        phid = mod.phase_rate(t)
        wt = p.Omega * np.asarray(t, dtype=float)
        phidd = np.zeros_like(wt, dtype=complex)
        for nn, c in mod.fourier_coeffs.items():
            phidd += (1j * nn * p.Omega) ** 2 * c * np.exp(1j * nn * wt)
        h = -f * g / dlam
        h1 = h * 1j * phid
        h2 = h * (1j * phidd + (1j * phid) ** 2)
        return -(h / kappa2 + h1 / kappa2**2 + h2 / kappa2**3)

    def rhs(t, y):
        a = complex(y[0], y[1])
        da = kappa1 * a + drive1(t)
        return [da.real, da.imag]

    period = 2.0 * math.pi / p.Omega
    # >= 50/gamma pushes the startup transient below ~1e-10 of the signal;
    # whole periods keep the harmonic projection phase-aligned.
    settle_periods = max(1, math.ceil(50.0 / (p.gamma * period)))
    t_settle = settle_periods * period
    t_end = t_settle + periods * period

    a0 = -drive1(0.0) / kappa1  # frozen-envelope steady state
    scale = abs(a0) + abs(f) / (p.gamma * p.omega0)
    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        [a0.real, a0.imag],
        method="RK45",
        rtol=rtol,
        atol=scale * rtol * 1e-2,
        dense_output=True,
    )
    if not sol.success:
        raise OracleError(f"oscillator integration failed: {sol.message}")

    n_samples = periods * samples_per_period
    t = t_settle + np.arange(n_samples) * (period / samples_per_period)
    ya = sol.sol(t)
    a1 = ya[0] + 1j * ya[1]
    a2 = counter_mode(t)
    velocity_env = lam1 * a1 + lam2 * a2
    power = 0.5 * np.real(f * envelope(t) * np.conj(velocity_env))

    wt = p.Omega * t
    dc = float(np.mean(power))
    cos_amps = []
    sin_amps = []
    for h in range(1, n_harmonics + 1):
        cos_amps.append(float(2.0 * np.mean(power * np.cos(h * wt))))
        sin_amps.append(float(2.0 * np.mean(power * np.sin(h * wt))))
    return HarmonicDecomposition(dc, tuple(cos_amps), tuple(sin_amps))
