"""Floating-point kernels for Bessel functions of the first kind.

One Miller chain (downward recursion in the order) gives integer rows,
normalized by the even-order sum, and complex orders, normalized by Neumann's
sum and refused with ConvergenceError when that sum, or the recursion below
order 0, cancels too far.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BesselRow",
    "ConvergenceError",
    "OracleError",
    "bessel_j_int",
    "bessel_j_row",
    "bessel_j_complex_order",
    "ln_gamma_complex",
    "truncation_bound",
]


class ConvergenceError(RuntimeError):
    """A series or iteration failed to converge, or cancelled too far."""


class OracleError(RuntimeError):
    """An independent oracle could not certify its result."""


@dataclass(frozen=True)
class BesselRow:
    """Values J_0(y)..J_order_max(y) produced by one recursion chain."""

    order_max: int
    argument: float
    values: np.ndarray

    def __getitem__(self, n: int) -> float:
        return float(self.values[n])


def _check_finite(name: str, value: float, bound: str = "") -> None:
    """Refuse, naming it, a value that is not finite or not within bound ("> 0", ">= 0")."""
    inside = value > 0 if bound == "> 0" else value >= 0 if bound == ">= 0" else True
    if not (math.isfinite(value) and inside):
        raise ValueError(f"{name} must be finite{' and ' + bound if bound else ''}, got {value!r}")


def truncation_bound(y: float, tol: float) -> int:
    """Smallest N (from a validated envelope) with |J_n(y)| < tol for |n| >= N.

    Past the turning point n ~ y the values die off over a window that
    scales like y^(1/3) * (-ln tol)^(2/3), so the bound is

        N = ceil(y + 1.2 y^(1/3) L^(2/3) + max(10, ceil(-log10 tol))),

    L = -ln tol.  Deliberately generous; the test suite checks it against
    direct evaluation across the working grid.
    """
    _check_finite("argument", y, ">= 0")
    if not (0.0 < tol < 1.0):
        raise ValueError(f"tolerance must lie in (0, 1), got {tol!r}")
    big_l = -math.log(tol)
    g = max(10, math.ceil(-math.log10(tol)))
    return max(1, math.ceil(y + 1.2 * y ** (1.0 / 3.0) * big_l ** (2.0 / 3.0) + g))


# Downward recursion: values grow toward low orders, so the running pair is
# renormalized by 2**-_RESCALE_SHIFT whenever it exceeds _RESCALE_LIMIT and
# every captured value keeps the binary exponent it was captured at.
_RESCALE_LIMIT = 2.0 ** 512
_RESCALE_SHIFT = 512


# Below this the recursion factor 2(nu+m)/y can overflow between rescale
# checks; the two-term ascending series is exact to double precision there.
_TINY_ARGUMENT = 1e-8


def _tiny_chain(y: float, order_max: int, nu: complex = 0) -> np.ndarray:
    """_downward_chain's values for 0 <= y < _TINY_ARGUMENT, by two terms of the
    ascending series: prod_{j <= m} (y/2)/(nu+j) times 1 - (y/2)^2/(nu+m+1)."""
    quarter, power, values = 0.25 * y * y, 1.0, []
    for m in range(order_max + 1):
        denominator = nu + (m + 1)
        values.append(power * (1.0 - quarter / denominator))
        power *= 0.5 * y / denominator
    return np.array(values)


def _neumann_ratios(nu: complex, count: int) -> list[complex]:
    """r_{i+1} / r_i for i = 1..count, r_i the weights of Neumann's sum for J_nu."""
    return [(nu + 2 * i + 2) * (nu + i) / ((nu + 2 * i) * (i + 1))
            for i in range(1, count + 1)]


def _miller_start(order: int, size: float) -> int:
    """The order a Miller chain starts from to reach order: far enough above
    both order and the turning point |n| ~ size that seed contamination has
    decayed below 1e-16."""
    top = max(order, math.ceil(size))
    return top + math.ceil(math.sqrt(40.0 * (top + 1))) + 16


def _downward_chain(y: float, order_max: int, nu: complex = 0) -> np.ndarray:
    """J_{nu+m}(y) Gamma(nu+1) / (y/2)^nu, m = 0..order_max, y > 0, by Miller.

    Two orders (even, then odd) per pass, normalized in Horner form by
    Neumann's sum (y/2)^nu / Gamma(nu+1) = sum_i r_i J_{nu+2i}(y), r_0 = 1,
    r_1 = nu + 2, then _neumann_ratios; at nu = 0 the r_i are 1, 2, 2, ....
    """
    n_top = _miller_start(order_max, y)
    top = n_top + n_top % 2
    # i = top/2 .. 1; every ratio is exactly 1 at nu = 0, so none is computed
    ratios = [1.0] * (top // 2) if nu == 0 else _neumann_ratios(nu, top // 2)[::-1]
    # J_{n_top} = seed, J_{n_top+1} = 0, or for odd n_top one step from (0, -seed)
    jp, j = (0.0, 2.0 ** -500) if top == n_top else (-(2.0 ** -500), 0.0)
    shift = -500
    acc = 0.0  # Horner sum of the r_i J_{nu+2i}, over r_i
    captured: list[tuple[complex, int]] = [(0.0, 0)] * (order_max + 1)
    for m, ratio in zip(range(top, 0, -2), ratios):
        acc = j + ratio * acc
        if m <= order_max:
            captured[m] = (j, shift)
        jp, j = j, (2.0 * (nu + m) / y) * j - jp
        if m - 1 <= order_max:
            captured[m - 1] = (j, shift)
        jp, j = j, (2.0 * (nu + m - 1) / y) * j - jp
        if abs(j) > _RESCALE_LIMIT:
            j, jp, acc = (v * 2.0 ** -_RESCALE_SHIFT for v in (j, jp, acc))
            shift += _RESCALE_SHIFT
    captured[0] = (j, shift)
    norm = j + (nu + 2.0) * acc
    ldexp = math.ldexp if isinstance(norm, float) else (
        lambda x, e: complex(math.ldexp(x.real, e), math.ldexp(x.imag, e)))
    values = [ldexp(mant / norm, mshift - shift) for mant, mshift in captured]
    return np.array(values)


def bessel_j_int(n: int, y: float) -> float:
    """J_n(y) for integer n and real y.

    Negative orders and arguments are reduced by parity: the value is
    entry |n| of bessel_j_row, negated for odd negative n.  Relative
    accuracy holds down to about 1e-250 in magnitude; below that the
    result is only absolutely accurate (and may underflow to zero).
    """
    if y == 0.0:
        # +0.0 for every n != 0; negating the row entry would give -0.0
        return 1.0 if n == 0 else 0.0
    value = bessel_j_row(abs(n), y)[abs(n)]
    return -value if n < 0 and n % 2 else value


def bessel_j_row(order_max: int, y: float) -> BesselRow:
    """All of J_0(y)..J_order_max(y) from a single normalized chain."""
    if order_max < 0:
        raise ValueError(f"order_max must be >= 0, got {order_max}")
    _check_finite("argument", y)
    if abs(y) > 1e6:
        raise ValueError(f"|argument| must be <= 1e6, got {y!r}")
    ya = abs(y)
    values = (_tiny_chain if ya < _TINY_ARGUMENT else _downward_chain)(ya, order_max)
    if y < 0.0:
        values[1::2] = -values[1::2]
    return BesselRow(order_max, y, values)


def _j_symmetric(y: float, n_max: int) -> np.ndarray:
    """J_n(y) for n in [-n_max, n_max] as an array indexed by n + n_max.

    Internal helper shared by the sum-rule and spectroscopy modules.
    """
    row = bessel_j_row(n_max, y).values
    full = np.empty(2 * n_max + 1)
    full[n_max:] = row
    signs = np.where(np.arange(1, n_max + 1) % 2 == 1, -1.0, 1.0)
    full[:n_max][::-1] = signs * row[1:]
    return full


def _lagged(
    values: np.ndarray, s: int | np.ndarray, n_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n, values[n] and values[n - s] for n in [-n_max, n_max].

    values is indexed by n + len(values) // 2, as _j_symmetric returns it;
    for an array of lags s the last result is values[n - s] per (n, s).
    """
    center = len(values) // 2
    n = np.arange(-n_max, n_max + 1)
    return n, values[n + center], values[np.subtract.outer(n, s) + center]


# Lanczos approximation, g = 7, nine coefficients.  Accurate to ~1e-14
# relative on Gamma for Re z >= 0.5; the reflection formula covers the rest.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def ln_gamma_complex(z: complex) -> complex:
    """Log-Gamma for complex z, principal branch up to multiples of 2*pi*i.

    exp(ln_gamma_complex(z)) reproduces Gamma(z) to ~1e-12 relative; poles
    at non-positive integers raise.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise ValueError(f"Gamma pole at z = {z}")
    if z.real < 0.5:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z).  sin(pi z) overflows past
        # |Im z| ~ 226; past 20 it is e^(-s i pi z) / (-2i s), s = sign(Im z),
        # but for a factor 1 - e^(2 s i pi z) within e^(-125) of 1
        if abs(z.imag) > 20.0:
            s = math.copysign(1.0, z.imag)
            log_sin = -s * 1j * math.pi * z - cmath.log(-2j * s)
        else:
            log_sin = cmath.log(cmath.sin(math.pi * z))
        return math.log(math.pi) - log_sin - ln_gamma_complex(1.0 - z)
    zm1 = z - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (zm1 + i)
    t = zm1 + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (zm1 + 0.5) * cmath.log(t) - t + cmath.log(acc)


_MAX_CHAIN_ERROR = 1e-8  # largest estimated relative error returned


def _complex_chain(z: float, order_max: int, base: complex) -> tuple[np.ndarray, float]:
    """J_{base+m}(z) Gamma(base+1) / (z/2)^base, m = 0 to at least order_max,
    z > 0, and their relative error: 2^-52 below _TINY_ARGUMENT, where two
    series terms give them, else 2^-52 times the sum of the magnitudes of the
    Neumann terms, whose sum is 1 and which die off past the turning point z.
    """
    if z < _TINY_ARGUMENT:
        return _tiny_chain(z, order_max, base), 2.0 ** -52
    n = order_max + math.ceil(z) + 8
    values = _downward_chain(z, n, base)
    # at large |base| and z the weights overflow, leaving an inf or nan
    # estimate for the caller to refuse
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.cumprod([1.0, base + 2.0, *_neumann_ratios(base, n // 2 - 1)])
        return values, 2.0 ** -52 * float(np.sum(np.abs(weights * values[::2])))


def bessel_j_complex_order(nu: complex, z: float) -> complex:
    """J_nu(z) for complex order nu and real z >= 0, by the Miller chain.

    The chain runs from base nu - k, k = floor(Re nu), so 0 <= Re(nu - k) < 1;
    entry k (for k < 0, the recursion carried on down) times (z/2)^(nu-k) /
    Gamma(nu-k+1) is J_nu.  Below _TINY_ARGUMENT two series terms give the
    entries.  Raises ConvergenceError past _MAX_CHAIN_ERROR, the steps below
    order 0 included, and OverflowError past doubles.
    """
    nu = complex(nu)
    _check_finite("argument", z, ">= 0")
    if nu.imag == 0.0 and nu.real == int(nu.real):
        return complex(bessel_j_int(int(nu.real), z))
    if z == 0.0:
        if nu.real > 0.0:
            return 0.0 + 0.0j
        raise ValueError(f"J_nu(0) is singular for Re nu <= 0, nu = {nu}")
    k = math.floor(nu.real)
    if z < _TINY_ARGUMENT:
        # the ascending series from nu itself when Re nu >= 0
        k = min(k, 0)
    values, error = _complex_chain(z, max(k, 1), nu - k)
    # bound, the error of value, grows with each step below order 0: next to a
    # negative integer nu they cancel
    value, jp = complex(values[max(k, 0)]), complex(values[1])
    bound, bound_p = error * abs(value), error * abs(jp)
    for m in range(0, k, -1):
        step = 2.0 * (nu - k + m) / z
        jp, value, bound_p, bound = value, step * value - jp, bound, (
            abs(step) * bound + bound_p + 2.0 ** -52 * (abs(step * value) + abs(jp)))
    relative = bound / abs(value) if value else math.inf
    if relative > _MAX_CHAIN_ERROR:
        raise ConvergenceError(
            f"J_nu({z}), nu = {nu}: the Miller chain leaves an estimated relative "
            f"error {relative:.1e} > {_MAX_CHAIN_ERROR:g}"
        )
    log_scale = (nu - k) * (math.log(z) - math.log(2.0))
    result = cmath.exp(log_scale - ln_gamma_complex(nu - k + 1.0)) * value
    if not cmath.isfinite(result):
        raise OverflowError(f"J_nu({z}), nu = {nu}, overflows a double")
    return result
