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
time differencing that integrates the decay factor exactly).  No
integrator library is needed, and the Gauss-Legendre rule comes from the
Legendre recurrence, so importing this module imports neither scipy nor
numpy.polynomial, and the oracle calls no LAPACK routine.
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

from besselrules.bessel_core import (
    _MAX_CHAIN_ERROR,
    ConvergenceError,
    OracleError,
    _check_finite,
    _complex_chain,
    _j_symmetric,
    _lagged,
    _miller_start,
    truncation_bound,
)
from besselrules.coefficients import _check_k, build_coeff_table
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
    "time_domain_oracle_sweep",
]


def __getattr__(name: str):
    # scipy's solve_ivp is called nowhere here, but perfbench/tracer.py
    # reads this name at install time: import scipy only when it is read
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# most detunings per response matrix in modulated_power_exact_sweep: keeps
# each matmul large, while _ORACLE_MAX_POINTS caps the block's entries
_SWEEP_BLOCK = 64
# Gauss-Legendre nodes per sample step in time_domain_oracle: the first
# count, and the cap its doubling may not pass
_ORACLE_NODES = 8
_ORACLE_MAX_NODES = 128
# the doubling stops once the samples move by at most this fraction of
# their largest magnitude
_ORACLE_RTOL = 1e-10
# cap on the points at which time_domain_oracle evaluates the drive at once
# (n_samples * nodes; n_samples grows with the sideband reach and the
# harmonics), and on the points of the drives a sweep holds.  Peak memory
# is about 70 bytes per point (0.34 GB at 5.0e6).  It also caps the entries
# of modulated_power_exact_sweep's products matrix J_n J_{n-s} and of each
# of its response blocks
_ORACLE_MAX_POINTS = 1 << 23


class RegimeError(ValueError):
    """Parameters left the numerically (or physically) valid regime."""


class PerturbativeDomainWarning(UserWarning):
    """The geometric expansion was evaluated outside its convergence bound."""


def perturbative_validity(M: float, gamma: float, Omega: float) -> bool:
    """True when 2 * N_max * Omega / gamma < 1 with N_max ~ 2|M|.

    N_max approximates where the J_n(M) J_{n-s}(M) products become
    negligible on the physics scale (~2|M|, never below 1; the products
    are even in M up to the sign (-1)^s); the rigorous envelope bound is
    far too conservative for this purpose because its accuracy floor
    swamps the physics scale at small M.
    """
    n_max = max(1, math.ceil(2.0 * abs(M)))
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
        for name, bound in (("omega0", "> 0"), ("gamma", "> 0"), ("Omega", "> 0"),
                            ("M", ">= 0"), ("force", ""), ("delta", "")):
            _check_finite(name, getattr(self, name), bound)

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


def _check_a_s_args(M: float, gamma: float, Omega: float) -> None:
    """Refuse a non-finite M, and a gamma or Omega that is not finite and > 0.

    Shared by the four A_s paths; the ValueError names the parameter.
    """
    _check_finite("M", M)
    _check_finite("gamma", gamma, "> 0")
    _check_finite("Omega", Omega, "> 0")


def _refuse_lost_digits(what: str, error: float) -> None:
    """Raise ConvergenceError led by what unless error <= _MAX_CHAIN_ERROR (NaN too)."""
    if not error <= _MAX_CHAIN_ERROR:
        raise ConvergenceError(
            f"{what} an estimated relative error {error:.1e} > {_MAX_CHAIN_ERROR:g}")


def a_s_direct(s: int, M: float, gamma: float, Omega: float) -> complex:
    """Truncated direct sum of J_n(M) J_{n-s}(M) / (gamma + i n Omega).

    The sum runs over every n where |J_n(M)| >= 1e-14, plus |s| + 8 more.
    Since sum_n n^k J_n J_{n-s} = 0 for k < |s|, A_s is a remainder of
    order (Omega/gamma)^|s| of terms of order 1/gamma, and the rounding of
    the J values and of the sum is relative to the terms, not to A_s.  The
    sum of the N rounded terms is off by at most N 2^-52 sum|t_n|, so its
    relative error is estimated as N 2^-52 sum|t_n| / |sum t_n| (0 when
    every term is 0); past _MAX_CHAIN_ERROR, ConvergenceError is raised.
    Without the factor N it is not a bound: the error reached 14 times it.
    """
    _check_a_s_args(M, gamma, Omega)
    n_max = truncation_bound(abs(M), 1e-14) + abs(s) + 8
    n, jn, jns = _lagged(_j_symmetric(M, n_max + abs(s)), s, n_max)
    terms = jn * jns / (gamma + 1j * n * Omega)
    total = complex(np.sum(terms))
    magnitude = len(terms) * 2.0 ** -52 * float(np.sum(np.abs(terms)))
    error = magnitude / abs(total) if total else (math.inf if magnitude else 0.0)
    _refuse_lost_digits(f"A_s direct sum at s = {s}, M = {M}, gamma/Omega = "
                        f"{gamma / Omega:g}: the terms cancel to", error)
    return total


def _reflected(s: int, value: complex) -> complex:
    """A_s for s < 0 from value = A_{-s}: A_s = (-1)^s conj(A_{-s})."""
    return ((-1) ** (s % 2)) * value.conjugate()


def a_s_newberger(s: int, M: float, gamma: float, Omega: float) -> complex:
    """Newberger's closed form of the resonant sideband sum, from one Miller chain.

    With a = gamma/Omega the form is (-1)^s/gamma (pi a/sinh pi a) J_{ia}(M)
    J_{s-ia}(M) for s >= 0 and M > 0.  The chain at base -ia has entries
    e_m = J_{m-ia}(M) Gamma(1-ia) / (M/2)^{-ia}; since J_{ia} = conj(J_{-ia})
    and |Gamma(1+ia)|^2 = pi a/sinh pi a, the Gamma factors, the powers of
    M/2 and the sinh cancel, leaving (-1)^s conj(e_0) e_s / gamma at any
    gamma/Omega.  Negative s follows from A_{-s} = (-1)^s conj(A_s), and
    negative M from A_s(-M) = (-1)^s A_s(M).  ConvergenceError is raised
    when the chain's estimated relative error passes _MAX_CHAIN_ERROR.
    """
    _check_a_s_args(M, gamma, Omega)
    if s < 0:
        return _reflected(s, a_s_newberger(-s, M, gamma, Omega))
    if M < 0.0:
        return ((-1) ** (s % 2)) * a_s_newberger(s, -M, gamma, Omega)
    if M == 0.0:
        # the chain would give -0.0 parts at odd s
        return (1.0 / gamma if s == 0 else 0.0) + 0.0j
    a = gamma / Omega
    values, error = _complex_chain(M, s, complex(0.0, -a))
    _refuse_lost_digits(f"A_s closed form at s = {s}, M = {M}, gamma/Omega = {a:g}: "
                        "the Miller chain leaves", error)
    return ((-1) ** (s % 2)) * complex(values[0]).conjugate() * complex(values[s]) / gamma


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
    _refuse_lost_digits(f"A_s series at s = {s}, M = {M}, gamma/Omega = {a:g}: "
                        "the terms cancel to", error)
    return ((-1) ** (s % 2)) / gamma * (0.5 * M) ** s * total


def a_s_geometric(
    s: int, M: float, gamma: float, Omega: float, order: int
) -> complex:
    """Short expansion (1/gamma) sum_k c_k (Omega/gamma)^k over a_s_eta_coefficients.

    Outside the convergence bound the value is still returned but a
    PerturbativeDomainWarning is issued.  RegimeError names the order, s, M
    and Omega/gamma where the sum leaves double range.
    """
    _check_k("order", order)
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
    value = sum(c * _pow(eta, k) for k, c in enumerate(coeffs)) / gamma
    if not cmath.isfinite(value):
        raise RegimeError(f"the geometric expansion to order {order} at s = {s}, M = {M!r}, "
                          f"Omega/gamma = {eta!r} leaves double range")
    return value


def a_s_eta_coefficients(s: int, M: float, order: int) -> list[complex]:
    """Coefficients c_k with A_s ~ (1/gamma) sum_k c_k eta^k, eta = Omega/gamma.

    c_k = (-i)^k B[k, s](M), by CoeffTable.evaluate: Horner in M/2 on the
    exact integer coefficients, one rounding per operation.  Each B[k, s](M)
    is therefore within k eps times the sum of its terms' magnitudes (eps =
    2^-52), not exact: for dyadic M only the low orders are, at s = 0 up to
    order 19 at M = 0.5, 23 at M = 1 and 27 at M = 2.  RegimeError names the
    order, s and M where a coefficient leaves double range.
    """
    _check_k("order", order)
    _check_finite("M", M)
    table = build_coeff_table(order)
    try:
        values = [table.evaluate(k, s, M) for k in range(order + 1)]
    except OverflowError:  # from a power step of the Horner loop
        values = [math.inf]
    if not all(map(math.isfinite, values)):
        raise RegimeError(f"the eta coefficients to order {order} at s = {s}, M = {M!r} "
                          "leave double range")
    return [(-1j) ** (k % 4) * value for k, value in enumerate(values)]


def exact_truncation_order(M: float, s_max: int) -> int:
    """Largest |n| that modulated_power_exact keeps for harmonics up to s_max."""
    return truncation_bound(M, 1e-18) + s_max + 8


def _finite_deltas(deltas: Sequence[float]) -> np.ndarray:
    """deltas as a float array; a non-finite one is refused as OscillatorParams does."""
    deltas = np.asarray(deltas, dtype=float)
    bad = deltas[~np.isfinite(deltas)]
    if bad.size:
        raise ValueError(f"delta must be finite, got {float(bad[0])!r}")
    return deltas


def _refuse_non_finite(p: OscillatorParams, *harmonics) -> None:
    """Raise RegimeError unless every harmonic value is finite."""
    if not all(np.isfinite(values).all() for values in harmonics):
        raise RegimeError(
            f"the absorbed power leaves double range at force = {p.force!r}: "
            f"every harmonic scales as force**2 / gamma, gamma = {p.gamma!r}"
        )


def _refuse_non_positive_sidebands(carriers: Sequence[float], n_max: int, Omega: float) -> None:
    """Raise RegimeError when carrier + n Omega, |n| <= n_max, reaches a frequency <= 0."""
    lowest = np.asarray(carriers) - n_max * Omega
    bad = np.flatnonzero(lowest <= 0.0)
    if bad.size:
        raise RegimeError(
            f"sideband frequencies reach {lowest[bad[0]]:.3e} <= 0 within the "
            f"truncation range |n| <= {n_max}; the oscillator model needs "
            "positive drive frequencies"
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
    once; each block of at most _SWEEP_BLOCK detunings, and at most
    _ORACLE_MAX_POINTS response entries, forms its response matrix and gets
    every X_s from one matmul.  A harmonic that leaves double
    range (force**2 overflows, say) raises RegimeError naming the force;
    so does a products matrix past _ORACLE_MAX_POINTS entries, naming
    s_max and M, before any Bessel value is computed.

    Far off resonance a harmonic X_s with s != 0 is the small remainder of
    a sum whose terms are each about 1/delta (sum_n J_n J_{n-s} = 0), so it
    is right only in absolute terms, not relative to itself: at omega0 =
    1e7 and delta = 3e5 rad/s (M = 1, Omega = 0.1, gamma = 1) the second
    sine harmonic is off by 3.9 times its value.  dc keeps its digits.
    """
    if s_max < 0:
        raise ValueError(f"s_max must be >= 0, got {s_max}")
    deltas = _finite_deltas(deltas)
    n_max = exact_truncation_order(base.M, s_max)
    carriers = base.omega0 + deltas
    _refuse_non_positive_sidebands(carriers, n_max, base.Omega)
    entries = (2 * n_max + 1) * (2 * s_max + 1)
    if entries > _ORACLE_MAX_POINTS:
        raise RegimeError(
            f"{s_max} harmonics at M = {base.M!r} take a products matrix J_n J_(n-s) "
            f"of {2 * n_max + 1} x {2 * s_max + 1} = {entries} entries, past the cap "
            f"of {_ORACLE_MAX_POINTS}"
        )
    s = np.arange(-s_max, s_max + 1)
    n, jn, jns = _lagged(_j_symmetric(base.M, n_max + s_max), s, n_max)
    # products[n, s] = J_n J_{n-s}
    products = (jn[:, None] * jns).astype(complex)
    scale = -0.5 * base.force * base.force
    dc = np.empty(len(deltas))
    cos_amps = np.empty((len(deltas), s_max))
    sin_amps = np.empty((len(deltas), s_max))
    per_block = min(_SWEEP_BLOCK, max(1, _ORACLE_MAX_POINTS // (2 * n_max + 1)))
    for start in range(0, len(deltas), per_block):
        block = slice(start, start + per_block)
        omega_n = carriers[block, None] + n * base.Omega
        # omega0^2 - omega_n^2 as -d_n (omega0 + omega_n), d_n = delta + n Omega:
        # the difference of squares would lose eps omega0 / |d_n|
        detuned = deltas[block, None] + n * base.Omega
        response = omega_n / (
            1j * base.gamma * omega_n - detuned * (base.omega0 + omega_n)
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


def _legendre_rows(x: np.ndarray, degree: int) -> np.ndarray:
    """P_r(x_l) in row r, r = 0..degree, by the three-term recurrence in the
    operation order of numpy's legvander, whose rows these match to the bit."""
    p = np.empty((degree + 1, len(x)))
    p[0], p[1] = 1.0, x
    for r in range(1, degree):
        p[r + 1] = (p[r] * x * (2 * r + 1) - p[r - 1] * r) / (r + 1)
    return p


def _legendre_of_lagrange(x: np.ndarray) -> np.ndarray:
    """C[r, l]: the P_r coefficient of the Lagrange polynomial of Gauss-Legendre node x_l.

    The inverse of the Legendre Vandermonde matrix V[l, r] = P_r(x_l), whose
    condition number is 22 at 128 nodes.  For exact nodes it is (r + 1/2)
    w_l P_r(x_l), w_l = 2 / ((1 - x_l^2) P_n'(x_l)^2); rounded nodes leave
    that about 2e-13 off at 128, so one Newton-Schulz step C + C (I - V C)
    follows, summed by einsum: no LAPACK routine and no BLAS matrix product.
    """
    n = len(x)
    p = _legendre_rows(x, n)
    weights = 2.0 * (1.0 - x * x) / (n * (p[n - 1] - x * p[n])) ** 2
    c = (np.arange(n) + 0.5)[:, None] * p[:n] * weights
    residual = np.eye(n) - np.einsum("rl,rk->lk", p[:n], c)
    return c + np.einsum("rl,lk->rk", c, residual)


@lru_cache(maxsize=None)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre nodes on [-1, 1] and their _legendre_of_lagrange matrix.

    Newton's method on P_nodes by the recurrence, from Tricomi's guesses,
    stops after a step that moves no node by more than 1e-12, which leaves
    them converged (Hale & Townsend, SIAM J. Sci. Comput. 35 (2013) A652);
    they are then made symmetric about 0.
    """
    k = np.arange(nodes, 0, -1)
    x = (1.0 - (nodes - 1) / (8.0 * nodes**3)) * np.cos(np.pi * (4 * k - 1) / (4 * nodes + 2))
    step = np.inf
    while step > 1e-12:
        p = _legendre_rows(x, nodes)
        dx = p[nodes] * (1.0 - x * x) / (nodes * (p[nodes - 1] - x * p[nodes]))
        x -= dx
        step = np.max(np.abs(dx))
    x = 0.5 * (x - x[::-1])
    return x, _legendre_of_lagrange(x)


def _decay_weights(z: complex, lagrange: np.ndarray) -> np.ndarray:
    """W_l = int_0^1 e^{z(1-s)} L_l(s) ds for the Lagrange polynomials L_l of
    the Gauss-Legendre nodes on [0, 1], Re z <= 0; lagrange is their
    _legendre_of_lagrange matrix.

    The Legendre moments mu_r = int_0^1 e^{z(1-s)} P_r(2s - 1) ds =
    (-1)^r e^a i_r(a), a = z/2, obey mu_{r+1} = mu_{r-1} + (2r+1) mu_r / a.
    Upward from mu_0 = expm1(z)/z and mu_1 their error grows like
    exp(r^2 |Re a| / |a|^2), so that way is taken only for |a| >= 2 nodes
    and nodes^2 |Re a| <= |a|^2.  Elsewhere the ratios mu_r / mu_{r-1} come
    downward from above nodes and |a|, as in bessel_core's Miller chain.
    """
    nodes = len(lagrange)
    a = 0.5 * z
    size = abs(a)
    mu = np.empty(nodes, dtype=complex)
    mu[0] = complex(np.expm1(z)) / z
    if size >= 2 * nodes and nodes * nodes * abs(a.real) <= size * size:
        mu[1] = 2.0 * (mu[0] - 1.0) / z - mu[0]
        for r in range(1, nodes - 1):
            mu[r + 1] = mu[r - 1] + (2 * r + 1) / a * mu[r]
    else:
        ratio = 0j
        for r in range(_miller_start(nodes, size), 0, -1):
            ratio = 1.0 / (ratio - (2 * r + 1) / a)
            if r < nodes:
                mu[r] = ratio
        mu = np.cumprod(mu)
    return mu @ lagrange


def _periodic_samples(
    kappa: complex, drive: np.ndarray, lagrange: np.ndarray, step: float
) -> np.ndarray:
    """a(k step) for the T-periodic solution of a' = kappa a + d(t), T = len(drive) step.

    drive[k, l] is d at Gauss-Legendre node l of [k step, (k+1) step], and
    lagrange is the nodes' _legendre_of_lagrange matrix.  Each step is exact
    in e^{kappa t}: a_{k+1} = e^{z} a_k + F_k, z = kappa step, F_k = step
    sum_l W_l(z) drive[k, l].  a(T) = a(0) gives a_0 = sum_k e^{z (K-1-k)}
    F_k / -expm1(kappa T); expm1 keeps Omega >> gamma.  The recurrence runs
    on Python complex numbers, which round as numpy's complex scalars do.
    """
    n_samples = len(drive)
    z = kappa * step
    forcing = step * (drive @ _decay_weights(z, lagrange))
    closure = np.exp(z * np.arange(n_samples - 1, -1, -1))
    a = [complex(np.dot(closure, forcing) / -complex(np.expm1(z * n_samples)))]
    decay = cmath.exp(z)
    for f in forcing[:-1].tolist():
        a.append(decay * a[-1] + f)
    return np.array(a)


def time_domain_oracle(
    p: OscillatorParams,
    mod: GeneralModulation,
    n_harmonics: int = 4,
) -> HarmonicDecomposition:
    """Absorbed-power harmonics from the periodic steady state of the oscillator.

    This is the one-detuning call of time_domain_oracle_sweep, which
    documents the method, its accuracy and its refusals.
    """
    return _first_point(time_domain_oracle_sweep(p, [p.delta], mod, n_harmonics))


@np.errstate(all="ignore")  # as for modulated_power_exact_sweep
def time_domain_oracle_sweep(
    base: OscillatorParams,
    deltas: Sequence[float],
    mod: GeneralModulation,
    n_harmonics: int = 4,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Absorbed-power harmonics from the periodic steady state of the oscillator,
    at each detuning in deltas (rad/s), base.delta unused.

    Returns the columns dc[N], cos[N, n_harmonics] and sin[N, n_harmonics]
    of modulated_power_exact_sweep: row i holds the harmonics at deltas[i].

    Variation of parameters over the homogeneous modes lambda_{1,2} =
    -gamma/2 +- i omega_d, with the drive carrier factored out, leaves two
    slow amplitudes a_j' = kappa_j a_j +- f e^{i phi(t)} / (lambda1 -
    lambda2), kappa_j = lambda_j - i carrier.  _periodic_samples solves
    both with one exact-exponential step per sample, so the cost does not
    depend on the detuning; kappa1 takes omega_d - carrier as
    -(gamma^2/4)/(omega_d + omega0) - delta, which does not cancel.  At
    each detuning the node count starts at _ORACLE_NODES and doubles until
    the velocity samples move by at most _ORACLE_RTOL (1e-10) of their
    largest magnitude.  OracleError is raised past _ORACLE_MAX_NODES, and
    before any evaluation whose n_samples * nodes would pass
    _ORACLE_MAX_POINTS (at _ORACLE_NODES before the sample grid is built).
    No J_n is used: the moments of _decay_weights are i_r(kappa step / 2).

    The power is drive times velocity without its optical 2 omega part,
    as a multi-cycle average leaves it.  It repeats every period, so its
    harmonics come from one period of n_samples samples: the smallest power
    of two that is at least 8 and at least 2 (auto_sideband_order(mod) +
    n_harmonics).  The power's harmonics end at twice the sideband reach,
    so none aliases onto a projected one; the reach comes from
    truncation_bound's Bessel envelope, not from a Bessel value.

    The sideband reach, omega_d and the sample grid are built once per
    sweep.  The drive at the nodes of each node count is held for later
    detunings while the drives held total at most _ORACLE_MAX_POINTS
    points; one that would pass that drops the others before it is built,
    so peak memory keeps its bound.

    Every harmonic lies within 1e-12 f^2/gamma of the exact sideband sum
    at any detuning; far off resonance this bound is absolute, not
    relative to the tiny power.  The grid is refused in the order of
    modulated_power_exact_sweep, before any evaluation: a non-finite
    detuning (as OscillatorParams refuses it), a fundamental other than
    base.Omega, an overdamped oscillator, then RegimeError when the
    sidebands |n| <= auto_sideband_order(mod) of any detuning reach a
    frequency <= 0.  A harmonic that leaves double range raises
    RegimeError naming the force once every detuning is done.
    """
    if n_harmonics < 0:
        raise ValueError(f"n_harmonics must be >= 0, got {n_harmonics}")
    deltas = _finite_deltas(deltas)
    if mod.fundamental != base.Omega:
        raise ValueError("modulation fundamental must equal p.Omega")
    if base.gamma >= 2.0 * base.omega0:
        raise RegimeError("overdamped oscillator: gamma >= 2 omega0")
    reach = auto_sideband_order(mod)
    carriers = base.omega0 + deltas
    _refuse_non_positive_sidebands(carriers, reach, base.Omega)
    omega_d = math.sqrt(base.omega0**2 - 0.25 * base.gamma**2)
    lam1 = complex(-0.5 * base.gamma, omega_d)
    # omega_d - omega0, without the cancellation of the difference
    shift = -0.25 * base.gamma**2 / (omega_d + base.omega0)
    envelope = base.force / (2j * omega_d)
    n_samples = max(8, 2 * (reach + n_harmonics))
    n_samples = 1 << (n_samples - 1).bit_length()

    def refuse_past_cap(nodes: int) -> None:
        if n_samples * nodes > _ORACLE_MAX_POINTS:
            raise OracleError(
                f"time-domain oracle: {n_samples} samples with {nodes} Gauss-Legendre "
                f"nodes each evaluate the drive at {n_samples * nodes} points, past "
                f"the cap of {_ORACLE_MAX_POINTS}"
            )

    refuse_past_cap(_ORACLE_NODES)  # before the sample grid is built
    step = 2.0 * math.pi / base.Omega / n_samples
    t = np.arange(n_samples) * step
    drives = {}  # node count -> the drive at those nodes of each sample step

    def velocity(kappa1: complex, kappa2: complex, nodes: int) -> np.ndarray:
        # lambda1 a_1 + lambda2 a_2, over f / (lambda1 - lambda2)
        refuse_past_cap(nodes)
        x, lagrange = _gauss_legendre(nodes)
        if nodes not in drives:
            if n_samples * (nodes + sum(drives)) > _ORACLE_MAX_POINTS:
                drives.clear()
            drives[nodes] = np.exp(1j * mod.phase(t[:, None] + 0.5 * (x + 1.0) * step))
        return (lam1 * _periodic_samples(kappa1, drives[nodes], lagrange, step)
                - lam1.conjugate() * _periodic_samples(kappa2, drives[nodes], lagrange, step))

    dc = np.empty(len(deltas))
    cos_amps = np.empty((len(deltas), n_harmonics))
    sin_amps = np.empty((len(deltas), n_harmonics))
    for i, (delta, carrier) in enumerate(zip(deltas.tolist(), carriers.tolist())):
        kappa1 = complex(-0.5 * base.gamma, shift - delta)
        kappa2 = complex(-0.5 * base.gamma, -(omega_d + carrier))
        nodes = _ORACLE_NODES
        coarse, v = None, velocity(kappa1, kappa2, nodes)
        while coarse is None or np.max(np.abs(v - coarse)) > _ORACLE_RTOL * np.max(np.abs(v)):
            if 2 * nodes > _ORACLE_MAX_NODES:
                raise OracleError(
                    f"time-domain oracle: {nodes} Gauss-Legendre nodes per sample step "
                    f"of {step:.3e} s did not settle to rtol {_ORACLE_RTOL:g}, and "
                    f"doubling them passes the cap of {_ORACLE_MAX_NODES} nodes"
                )
            nodes *= 2
            coarse, v = v, velocity(kappa1, kappa2, nodes)
        sampled = base.force * np.exp(1j * mod.phase(t))
        power = 0.5 * np.real(sampled * np.conj(envelope * v))
        # harmonic h of samples at Omega t = 2 pi k / n_samples: rfft bin h
        spectrum = (2.0 / n_samples) * np.fft.rfft(power)[1 : n_harmonics + 1]
        dc[i] = np.mean(power)
        cos_amps[i], sin_amps[i] = spectrum.real, -spectrum.imag
        # so that the next detuning's drives are built beside none of these
        del coarse, v, sampled, power
    _refuse_non_finite(base, dc, cos_amps, sin_amps)
    return dc, cos_amps, sin_amps
