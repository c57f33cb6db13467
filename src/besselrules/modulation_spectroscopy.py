"""Absorption of a frequency-modulated drive by a damped oscillator.

The drive is f*exp(i(omega t + phi(t))) acting on a unit-mass damped
harmonic oscillator.  Sideband sums of the form

    A_s = sum_n J_n(M) J_{n-s}(M) / (gamma + i n Omega)

are evaluated four ways: direct truncated summation, the complex-order
Bessel closed form, its Gamma-product series elaboration, and the short
geometric expansion in Omega/gamma.  The absorbed-power harmonics come
from the exact sideband decomposition and, independently, from the
periodic steady state of the oscillator equation in an exactly
transformed modal frame (the optical carrier is factored out
analytically, so only the slow envelope is propagated, by exponential
time differencing with a certified Gauss-Legendre quadrature).  No
integrator library is needed, so importing this module imports no scipy.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from besselrules.bessel_core import (
    _MAX_CHAIN_ERROR,
    ConvergenceError,
    OracleError,
    _j_symmetric,
    _lagged,
    bessel_j_complex_order,
    truncation_bound,
)
from besselrules.coefficients import MAX_RECURSION_K, build_coeff_table
from besselrules.sum_rules import GeneralModulation, auto_sideband_order

__all__ = [
    "OscillatorParams",
    "HarmonicDecomposition",
    "RegimeError",
    "PerturbativeDomainWarning",
    "a_s_direct",
    "a_s_newberger",
    "a_s_series",
    "a_s_geometric",
    "a_s_eta_coefficients",
    "perturbative_validity",
    "exact_truncation_order",
    "modulated_power_exact",
    "modulated_power_exact_sweep",
    "modulated_power_perturbative",
    "modulated_power_perturbative_sweep",
    "time_domain_oracle",
]


def __getattr__(name: str):
    # scipy's solve_ivp is called nowhere here, but perfbench/tracer.py
    # reads this name at install time: import scipy only when it is read
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


SINH_GUARD = 700.0
# detunings per response matrix in modulated_power_exact_sweep: bounds its
# memory while keeping each matmul large
_SWEEP_BLOCK = 64
# Gauss-Legendre nodes per sub-step in time_domain_oracle: the first
# count, and the cap its doubling may not pass
_ORACLE_NODES = 8
_ORACLE_MAX_NODES = 128
# the doubling stops once the samples move by at most this fraction of
# their largest magnitude
_ORACLE_RTOL = 1e-10
# cap on the points at which time_domain_oracle evaluates the drive
# envelope at once (n_samples * m * nodes); a power of two, so that a
# fractional sub-step count under it still fits once rounded up.  Peak
# memory is about 70 bytes per point (0.34 GB at 5.0 million points)
_ORACLE_MAX_POINTS = 1 << 23
# Gauss-Legendre nodes and weights on [-1, 1], computed once per node count
_gauss_legendre = lru_cache(maxsize=None)(leggauss)


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


def _check_M(M: float) -> None:
    """Refuse a non-finite modulation index M with a ValueError naming M."""
    if not math.isfinite(M):
        raise ValueError(f"M must be finite, got {M!r}")


def _check_order(order: int) -> None:
    """Refuse an expansion order outside the exact table, naming the order."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if order > MAX_RECURSION_K:
        raise ValueError(f"order must lie in [0, {MAX_RECURSION_K}], got {order}")


def _check_a_s_args(M: float, gamma: float, Omega: float) -> None:
    """Refuse a non-finite M, and a gamma or Omega that is not finite and > 0.

    Shared by the four A_s paths; the ValueError names the parameter.
    """
    _check_M(M)
    for name, value in (("gamma", gamma), ("Omega", Omega)):
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def a_s_direct(s: int, M: float, gamma: float, Omega: float) -> complex:
    """Truncated direct sum of J_n(M) J_{n-s}(M) / (gamma + i n Omega).

    The sum runs over every n where |J_n(M)| >= 1e-14, plus |s| + 8 more.
    """
    _check_a_s_args(M, gamma, Omega)
    n_max = truncation_bound(abs(M), 1e-14) + abs(s) + 8
    n, jn, jns = _lagged(_j_symmetric(M, n_max + abs(s)), s, n_max)
    return complex(np.sum(jn * jns / (gamma + 1j * n * Omega)))


def _reflected(s: int, value: complex) -> complex:
    """A_s for s < 0 from value = A_{-s}: A_s = (-1)^s conj(A_{-s})."""
    return ((-1) ** (s % 2)) * value.conjugate()


def a_s_newberger(s: int, M: float, gamma: float, Omega: float) -> complex:
    """Closed form of the resonant sideband sum via complex-order Bessels.

    The closed form holds for s >= 0 and M >= 0; negative s follows from
    A_{-s} = (-1)^s conj(A_s), and negative M from A_s(-M) = (-1)^s A_s(M).
    Guarded against sinh overflow at pi gamma / Omega > 700, where the
    prefactor and the Bessel product overflow in opposite directions.
    """
    _check_a_s_args(M, gamma, Omega)
    if s < 0:
        return _reflected(s, a_s_newberger(-s, M, gamma, Omega))
    if M < 0.0:
        return ((-1) ** (s % 2)) * a_s_newberger(s, -M, gamma, Omega)
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
    # |J_{ia}(M)| grows like e^{x/2} and the prefactor falls like x e^{-x}, so
    # their product comes first: the prefactor times a small J_{s-ia}(M)
    # would leave the normal double range before J_{ia}(M) brought it back
    return (
        prefactor
        * bessel_j_complex_order(complex(0.0, a), M)
        * bessel_j_complex_order(complex(s, -a), M)
    )


def a_s_series(s: int, M: float, gamma: float, Omega: float) -> complex:
    """Gamma-product series for the resonant sideband sum.

    The series is written for s >= 0; negative s follows from
    A_{-s} = (-1)^s conj(A_s).  Its terms alternate in sign and are
    factorially damped, so the sum runs past the largest term until one
    more term no longer changes it.  The digits lost to cancellation are
    bounded by 2^-52 sum|t_k| / |sum t_k|; past _MAX_CHAIN_ERROR, or on a
    term beyond double range, ConvergenceError is raised.
    """
    _check_a_s_args(M, gamma, Omega)
    if s < 0:
        return _reflected(s, a_s_series(-s, M, gamma, Omega))
    a = gamma / Omega
    # term_k = (-M^2/4)^k (s+2k)!/((s+k)! k!) prod_{p<=s} 1/(k+p-ia)
    #          * prod_{p<=k} 1/(p^2+a^2), built incrementally.
    term = 1.0 + 0.0j
    for p in range(1, s + 1):
        term /= complex(p, -a)
    total = term
    magnitude = abs(term)
    q = -0.25 * M * M
    for k in itertools.count():
        ratio = q * (s + 2 * k + 1) * (s + 2 * k + 2) / ((s + k + 1) * (k + 1))
        if s > 0:
            ratio *= complex(k + 1, -a) / complex(k + 1 + s, -a)
        ratio /= (k + 1) ** 2 + a * a
        term *= ratio
        if not cmath.isfinite(term):
            raise ConvergenceError(
                f"A_s series at s = {s}, M = {M}, gamma/Omega = {a:g}: "
                f"term {k + 1} leaves double range"
            )
        magnitude += abs(term)
        # before the largest term (|ratio| >= 1) the terms still grow
        if total + term == total and abs(ratio) < 1.0:
            break
        total += term
    error = 2.0 ** -52 * magnitude / abs(total) if total else math.inf
    # written so that a NaN estimate is refused too
    if not error <= _MAX_CHAIN_ERROR:
        raise ConvergenceError(
            f"A_s series at s = {s}, M = {M}, gamma/Omega = {a:g}: the terms "
            f"cancel to an estimated relative error {error:.1e} > "
            f"{_MAX_CHAIN_ERROR:g}"
        )
    return ((-1) ** (s % 2)) / gamma * (0.5 * M) ** s * total


def a_s_geometric(
    s: int, M: float, gamma: float, Omega: float, order: int
) -> complex:
    """Short expansion (1/gamma) sum_k c_k (Omega/gamma)^k over a_s_eta_coefficients.

    Outside the convergence bound the value is still returned but a
    PerturbativeDomainWarning is issued.
    """
    _check_order(order)
    _check_a_s_args(M, gamma, Omega)
    if not perturbative_validity(M, gamma, Omega):
        warnings.warn(
            "geometric expansion evaluated outside its validity bound "
            f"(2*N_max*Omega/gamma >= 1 at M={M}, Omega/gamma={Omega/gamma})",
            PerturbativeDomainWarning,
            stacklevel=2,
        )
    eta = Omega / gamma
    coeffs = a_s_eta_coefficients(s, M, order)
    return sum(c * eta**k for k, c in enumerate(coeffs)) / gamma


def a_s_eta_coefficients(s: int, M: float, order: int) -> list[complex]:
    """Coefficients c_k with A_s ~ (1/gamma) sum_k c_k eta^k, eta = Omega/gamma.

    c_k = (-i)^k B[k, s](M), evaluated from the exact coefficient table;
    for dyadic M the float results are exact.
    """
    _check_order(order)
    _check_M(M)
    table = build_coeff_table(order)
    out = []
    for k in range(order + 1):
        value = table.entry(k, s).evaluate(M) if abs(s) <= k else 0.0
        out.append((-1j) ** (k % 4) * value)
    return out


def exact_truncation_order(M: float, s_max: int) -> int:
    """Largest |n| that modulated_power_exact keeps for harmonics up to s_max."""
    return truncation_bound(M, 1e-18) + s_max + 8


def _finite_deltas(deltas: Sequence[float]) -> np.ndarray:
    """deltas as a float array; a non-finite one is refused as OscillatorParams does."""
    deltas = np.asarray(deltas, dtype=float)
    if not np.all(np.isfinite(deltas)):
        raise ValueError("force and delta must be finite")
    return deltas


def _refuse_non_finite(p: OscillatorParams, *harmonics) -> None:
    """Raise RegimeError unless every harmonic value is finite."""
    if not all(np.isfinite(values).all() for values in harmonics):
        raise RegimeError(
            f"the absorbed power leaves double range at force = {p.force!r}: "
            f"every harmonic scales as force**2 / gamma, gamma = {p.gamma!r}"
        )


def _first_point(
    columns: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> HarmonicDecomposition:
    """The first detuning of a sweep's (dc, cos, sin) columns."""
    dc, cos_amps, sin_amps = columns
    return HarmonicDecomposition(
        float(dc[0]), tuple(cos_amps[0].tolist()), tuple(sin_amps[0].tolist())
    )


def modulated_power_exact(p: OscillatorParams, s_max: int) -> HarmonicDecomposition:
    """Averaged absorbed power harmonics from the exact sideband sums.

    Keeps the full response factor omega_n / (omega0^2 - omega_n^2 +
    i gamma omega_n) for every retained sideband omega_n = carrier + n
    Omega; only the optical-frequency (2 omega) components are discarded,
    which is what the measurement average does.  This is the one-detuning
    call of modulated_power_exact_sweep.
    """
    return _first_point(modulated_power_exact_sweep(p, [p.delta], s_max))


# numpy's overflow and invalid-value warnings here come with non-finite
# harmonics, which _refuse_non_finite refuses: a caller sees its RegimeError alone
@np.errstate(all="ignore")
def modulated_power_exact_sweep(
    base: OscillatorParams, deltas: Sequence[float], s_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """modulated_power_exact at each detuning in deltas (rad/s), base.delta unused.

    Returns the columns dc[N], cos[N, s_max] and sin[N, s_max]: row i
    holds the harmonics at deltas[i].  M is fixed across the sweep, so
    the J row and the products J_n J_{n-s} for every n and s are built
    once; each block of _SWEEP_BLOCK detunings forms its response matrix
    and gets every X_s from one matmul.  A harmonic that leaves double
    range (force**2 overflows, say) raises RegimeError naming the force.
    """
    if s_max < 0:
        raise ValueError(f"s_max must be >= 0, got {s_max}")
    deltas = _finite_deltas(deltas)
    n_max = exact_truncation_order(base.M, s_max)
    carriers = base.omega0 + deltas
    lowest = carriers + (-n_max) * base.Omega
    bad = np.flatnonzero(lowest <= 0.0)
    if bad.size:
        raise RegimeError(
            f"sideband frequencies reach {lowest[bad[0]]:.3e} <= 0 within the "
            f"truncation range |n| <= {n_max}; the oscillator model needs "
            "positive drive frequencies"
        )
    s = np.arange(-s_max, s_max + 1)
    n, jn, jns = _lagged(_j_symmetric(base.M, n_max + s_max), s, n_max)
    # products[n, s] = J_n J_{n-s}
    products = (jn[:, None] * jns).astype(complex)
    scale = -0.5 * base.force * base.force
    dc = np.empty(len(deltas))
    cos_amps = np.empty((len(deltas), s_max))
    sin_amps = np.empty((len(deltas), s_max))
    for start in range(0, len(deltas), _SWEEP_BLOCK):
        block = slice(start, start + _SWEEP_BLOCK)
        omega_n = carriers[block, None] + n * base.Omega
        response = omega_n / (
            base.omega0**2 - omega_n**2 + 1j * base.gamma * omega_n
        )
        x = response @ products  # x[:, s_max + s] = X_s
        dc[block] = scale * x[:, s_max].imag
        up, down = x[:, s_max + 1 :], x[:, :s_max][:, ::-1]  # X_h, X_{-h}
        cos_amps[block] = scale * (up.imag + down.imag)
        sin_amps[block] = scale * (up.real - down.real)
    _refuse_non_finite(base, dc, cos_amps, sin_amps)
    return dc, cos_amps, sin_amps


def _pow(x: float, exponent: int) -> float:
    """x**exponent by libm's pow, or inf where that leaves double range."""
    try:
        return x**exponent
    except OverflowError:
        return math.inf


def modulated_power_perturbative(p: OscillatorParams) -> HarmonicDecomposition:
    """Leading closed-form harmonics of the averaged absorbed power.

    dc carries the Lorentzian plus the dc half of the (1 + cos 2 Omega t)
    second-harmonic term; the first harmonic has a first-order cosine and
    a second-order sine; the second harmonic is pure cosine at this order.
    All amplitudes scale with f^2/(2 gamma).  This is the one-detuning
    call of modulated_power_perturbative_sweep.
    """
    return _first_point(modulated_power_perturbative_sweep(p, [p.delta]))


def modulated_power_perturbative_sweep(
    base: OscillatorParams, deltas: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """modulated_power_perturbative at each detuning in deltas (rad/s), base.delta unused.

    Returns the columns dc[N], cos[N, 2] and sin[N, 2], and warns once
    when the sweep lies outside the validity bound.  The values are
    Python floats until the columns are built: numpy's power differs from
    libm's pow in the last bit.  RegimeError names the force when a
    value leaves double range, as in modulated_power_exact_sweep; it names
    M and Omega/gamma when kappa**2 does, the detuning when
    (1 + Delta**2)**3 does, and all three when a second-order term does.
    """
    if not base.perturbative_valid:
        warnings.warn(
            "perturbative lineshape evaluated outside its validity bound",
            PerturbativeDomainWarning,
            stacklevel=2,
        )
    scale = 0.5 * _pow(base.force, 2) / base.gamma
    kappa = 2.0 * base.M * base.Omega / base.gamma
    second_scale = 0.5 * _pow(kappa, 2)
    if math.isinf(second_scale):
        raise RegimeError(
            f"the second-order terms scale as kappa**2 = (2 M Omega/gamma)**2, "
            f"which leaves double range at M = {base.M!r}, "
            f"Omega/gamma = {base.eta!r}"
        )
    # (1/M) kappa^2 written as 4 M (Omega/gamma)^2 so M -> 0 stays finite
    sin_scale = 4.0 * base.M * (base.Omega / base.gamma) ** 2
    rows = []
    for delta in _finite_deltas(deltas).tolist():
        d = 2.0 * delta / base.gamma
        cube = _pow(1.0 + d * d, 3)
        if math.isinf(cube):
            raise RegimeError(
                f"(1 + Delta**2)**3 leaves double range at delta = {delta!r} "
                f"rad/s (Delta = 2 delta/gamma = {d!r}); the perturbative "
                "formula needs |Delta| below about 2.4e51"
            )
        lorentz = 1.0 / (1.0 + d * d)
        second = second_scale * (3.0 * d * d - 1.0) / cube
        h1_cos = kappa * (-2.0 * d) / (1.0 + d * d) ** 2
        h1_sin = sin_scale * d * (d * d - 3.0) / cube
        if math.isinf(second) or math.isinf(h1_sin):
            raise RegimeError(
                f"the second-order terms leave double range at M = {base.M!r}, "
                f"Omega/gamma = {base.eta!r} and delta = {delta!r} rad/s "
                f"(Delta = 2 delta/gamma = {d!r}): their numerators scale as "
                "M**2 (Omega/gamma)**2 Delta**2 and M (Omega/gamma)**2 Delta**3"
            )
        rows.append((scale * (lorentz + second), scale * h1_cos, scale * second,
                     scale * h1_sin, 0.0))
    table = np.array(rows, dtype=float).reshape(-1, 5)
    _refuse_non_finite(base, table)
    return table[:, 0], table[:, 1:3], table[:, 3:]


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


@np.errstate(all="ignore")  # as for modulated_power_exact_sweep
def time_domain_oracle(
    p: OscillatorParams,
    mod: GeneralModulation,
    n_harmonics: int = 4,
) -> HarmonicDecomposition:
    """Absorbed-power harmonics from the periodic steady state of the oscillator.

    The second-order equation is solved exactly by variation of parameters
    over its two homogeneous modes; factoring the drive carrier out of the
    co-rotating mode leaves one slow complex amplitude obeying
    a' = kappa1 a + d(t), with d T-periodic (T = 2 pi / Omega).  Its steady
    state is the one T-periodic solution, found without a settling run by
    exponential time differencing: each of the n_samples intervals of
    one period is split into m sub-steps of length hs, with m chosen so that
    (|kappa1| + max|phi'|) hs <= 2, and a_{j+1} = e^{kappa1 hs} a_j + I_j
    with I_j = int_0^hs e^{kappa1 (hs - tau)} d(t_j + tau) dtau, all I_j from
    one Gauss-Legendre evaluation; the m sub-steps of an interval are
    composed into one step between samples.  a(T) = a(0) closes the period:
    a_0 = sum_j e^{kappa1 hs (K-1-j)} I_j / (-expm1(kappa1 T)) over the
    K sub-steps, with expm1 so that Omega >> gamma loses no digits.  The
    node count starts at _ORACLE_NODES and doubles until the samples move
    by at most _ORACLE_RTOL (1e-10) of their largest magnitude; past
    _ORACLE_MAX_NODES OracleError is raised.  So is it before the first
    evaluation, and before each doubling, when the n_samples * m * nodes
    evaluation points would pass _ORACLE_MAX_POINTS: m grows with the
    detuning.  No Bessel value is used.

    The counter-rotating mode is forced at ~2 omega0 and stays
    asymptotically slaved to the drive envelope, so its particular
    solution is accumulated analytically (three derivative orders,
    accurate to ~(rate/omega0)^3).  The absorbed power then comes from
    drive times velocity with the optical 2 omega component dropped,
    exactly what a multi-cycle averaging window leaves.  The steady state
    repeats every period, so the harmonics are projected from one period
    of n_samples samples: the smallest power of two that is at least 8
    and at least 2 (auto_sideband_order(mod) + n_harmonics).  The power's
    harmonics end at twice the sideband reach, so none of them aliases
    onto a projected one; the reach comes from the Bessel envelope of
    truncation_bound, not from a Bessel value.  A harmonic that leaves
    double range raises RegimeError naming the force.
    """
    if mod.fundamental != p.Omega:
        raise ValueError("modulation fundamental must equal p.Omega")
    lam1, lam2, omega = _modal_constants(p)
    kappa1 = lam1 - 1j * omega
    kappa2 = lam2 - 1j * omega
    dlam = lam1 - lam2
    f = p.force

    def envelope(t: np.ndarray | float) -> np.ndarray | complex:
        return np.exp(1j * mod.phase(t))

    def counter_mode(t: np.ndarray | float) -> np.ndarray | complex:
        # Slaved particular solution of the counter-rotating mode:
        # -(h/k2 + h'/k2^2 + h''/k2^3) with h = -f g / dlam.
        g = envelope(t)
        phid = mod.phase(t, 1)
        phidd = mod.phase(t, 2)
        h = -f * g / dlam
        h1 = h * 1j * phid
        h2 = h * (1j * phidd + (1j * phid) ** 2)
        return -(h / kappa2 + h1 / kappa2**2 + h2 / kappa2**3)

    period = 2.0 * math.pi / p.Omega
    n_samples = max(8, 2 * (auto_sideband_order(mod) + n_harmonics))
    n_samples = 1 << (n_samples - 1).bit_length()
    step = period / n_samples
    # |phi'| <= Omega sum_n |n c_n|
    rate = abs(kappa1) + p.Omega * sum(
        abs(n * c) for n, c in mod.fourier_coeffs.items()
    )
    # a float until it is known to fit under the cap: at huge detunings
    # it passes the integer range of numpy, or even that of float
    m = max(1.0, rate * step / 2.0)

    def refuse_past_cap(nodes: int) -> None:
        if n_samples * m * nodes > _ORACLE_MAX_POINTS:
            raise OracleError(
                f"time-domain oracle at delta = {p.delta:g} rad/s: m = {m:.6g} "
                f"sub-steps per sample with {nodes} Gauss-Legendre nodes each "
                f"evaluate the drive at {n_samples * m * nodes:.3g} points, "
                f"past the cap of {_ORACLE_MAX_POINTS}"
            )

    refuse_past_cap(_ORACLE_NODES)
    m = math.ceil(m)
    hs = step / m
    t = np.arange(n_samples) * step
    # carries the forcing of interval k to the end of the period
    closure = np.exp(kappa1 * step * np.arange(n_samples - 1, -1, -1))
    denominator = -complex(np.expm1(kappa1 * period))
    interval_decay = cmath.exp(kappa1 * step)

    def steady_samples(nodes: int) -> np.ndarray:
        x, w = _gauss_legendre(nodes)
        # tau[i, l]: node l of sub-step i, measured from the interval start
        tau = (np.arange(m)[:, None] + 0.5 * (x + 1.0)) * hs
        # the sub-steps of one interval, each propagated to its end:
        # sum_i e^{kappa1 hs (m-1-i)} I_{km+i}, one weight per node
        weights = (0.5 * hs * w * np.exp(kappa1 * (step - tau))).ravel()
        forcing = (f / dlam) * (envelope(t[:, None] + tau.ravel()) @ weights)
        a = np.empty(n_samples, dtype=complex)
        a[0] = np.dot(closure, forcing) / denominator
        for k in range(n_samples - 1):
            a[k + 1] = interval_decay * a[k] + forcing[k]
        return a

    nodes = _ORACLE_NODES
    a1 = steady_samples(nodes)
    while True:
        if 2 * nodes > _ORACLE_MAX_NODES:
            raise OracleError(
                f"time-domain oracle: {nodes} Gauss-Legendre nodes per sub-step "
                f"of {hs:.3e} s did not settle to rtol {_ORACLE_RTOL:g}, and doubling "
                f"them passes the cap of {_ORACLE_MAX_NODES} nodes"
            )
        refuse_past_cap(2 * nodes)
        nodes *= 2
        finer = steady_samples(nodes)
        settled = np.max(np.abs(finer - a1)) <= _ORACLE_RTOL * np.max(np.abs(finer))
        a1 = finer
        if settled:
            break

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
    _refuse_non_finite(p, [dc, *cos_amps, *sin_amps])
    return HarmonicDecomposition(dc, tuple(cos_amps), tuple(sin_amps))
