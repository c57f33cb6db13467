"""Closed-form and brute-force evaluation of the Bessel-product sum rules.

Every rule here pairs a finite closed form (built on the exact coefficient
table) against a truncated infinite sum over Bessel products, so each side
can serve as the other's check.  The generalized-function rules cover the
cos/sin mixed modulation, the two-tone modulation, and arbitrary periodic
phase modulation handled through sampled Fourier analysis.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from numpy.fft import fft

from besselrules.bessel_core import _check_finite, _j_symmetric, _lagged, truncation_bound
from besselrules.coefficients import _check_k, build_coeff_table

__all__ = [
    "AccuracyError",
    "GeneralModulation",
    "SidebandSpectrum",
    "SumRuleReport",
    "b_ks_closed",
    "b_ks_brute",
    "addition_formula_sides",
    "alternating_sum_sides",
    "jcs",
    "jcs_sum_rule_sides",
    "jbar",
    "jbar_sum_rule_sides",
    "auto_sideband_order",
    "general_sidebands",
    "general_modulation_rules",
    "recursion_residual",
    "write_reports_csv",
    "write_reports_jsonl",
]


class AccuracyError(RuntimeError):
    """A sampled computation could not certify the requested accuracy."""


_TAIL_TOL = 1e-13
# largest sample count general_sidebands may use
_MAX_SAMPLES = 1 << 22


def _brute_order(y: float, extra: int, tol: float = 1e-16) -> int:
    return truncation_bound(abs(y), tol) + extra


def _table_sums(ks: np.ndarray, y: float, j: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """sum_{n=-k..k} D[k, n](y) j_{q-n}: rows k in ks, columns q in qs.

    j is indexed by order + len(j) // 2 and must reach order max|q| + max k.
    The table for the largest k serves every row; D[k, .](y) is evaluated
    once per k and convolved with j, which gives every q.
    """
    table = build_coeff_table(int(ks.max()))
    ds = [[table.evaluate(k, n, y) for n in range(-k, k + 1)] for k in ks.tolist()]
    return np.array([np.convolve(d, j)[qs + len(d) // 2 + len(j) // 2] for d in ds])


def _centered(conv: np.ndarray, n_max: int) -> np.ndarray:
    """Entries n in [-n_max, n_max] of conv, indexed by n + len(conv) // 2.

    Orders past either end of conv are zero.
    """
    center = len(conv) // 2
    out = np.zeros(2 * n_max + 1, dtype=conv.dtype)
    lo = max(-n_max, -center)
    hi = min(n_max, center)
    out[lo + n_max : hi + n_max + 1] = conv[lo + center : hi + center + 1]
    return out


def _moments(ks, n: np.ndarray, products: np.ndarray) -> np.ndarray:
    """sum_n n^k products[n, s]: one row per k in ks, one column per lag s.

    One product and sum per k, not a matmul: the sums have a few thousand
    terms, and a real matmul would load BLAS's dgemm, whose code and
    buffers add about 0.5 MB to the peak memory of a command-line process.
    """
    weights = n.astype(float) ** np.asarray(ks)[:, None]
    return np.array([(w[:, None] * products).sum(axis=0) for w in weights])


def _grid(*axes) -> tuple[np.ndarray, ...]:
    """Each axis as an integer array, and the largest |entry| of the last."""
    arrays = tuple(np.atleast_1d(np.asarray(a, dtype=int)) for a in axes)
    return (*arrays, int(np.abs(arrays[-1]).max()))


def b_ks_closed(k: int, s: int, M: float) -> float:
    """Closed form of sum_n n^k J_n(M) J_{n-s}(M): the (k, s) polynomial at M.

    OverflowError names k, s and M where the value leaves double range.
    """
    _check_k("k", k)
    _check_finite("M", M)
    try:
        value = build_coeff_table(k).evaluate(k, s, M)
    except OverflowError:  # from a power step of the Horner loop
        value = math.inf
    if not math.isfinite(value):
        raise OverflowError(f"B[k, s](M) at k = {k}, s = {s}, M = {M!r} leaves double range")
    return value


def _b_ks_grid(ks, lags, M: float):
    """n_max, then D[k, s](M) and sum_{|n| <= n_max} n^k J_n(M) J_{n-s}(M):
    rows k, columns s.

    One cut, at the largest k and |s| of the grid, serves every entry.
    """
    _check_finite("M", M)
    ks, lags, reach = _grid(ks, lags)
    table = build_coeff_table(int(ks.max()))
    closed = [[table.evaluate(k, s, M) for s in lags.tolist()] for k in ks.tolist()]
    n_max = _brute_order(M, max(8, 2 * int(ks.max())) + reach, 1e-14)
    n, jn, jns = _lagged(_j_symmetric(M, n_max + reach), lags, n_max)
    return n_max, np.array(closed), _moments(ks, n, jn[:, None] * jns)


def b_ks_brute(k: int, s: int, M: float) -> float:
    """Truncated direct evaluation of sum_n n^k J_n(M) J_{n-s}(M).

    The n^k weight amplifies the tail, so the cut extends max(8, 2k) + |s|
    orders past the envelope bound for |J_n(M)| < 1e-14.
    """
    _check_k("k", k)
    return float(_b_ks_grid(k, s, M)[2][0, 0])


def _addition_grid(ks, qs, y1: float, y2: float):
    """n_max, then the closed and brute sides of the addition identity:
    rows k, columns q.

    Closed: i^k sum_m D[k, q-m](y1) J_m(y1+y2).  Brute: i^k sum_n n^k
    J_n(y1) J_{q-n}(y2) over |n| <= n_max, with J_{q-n}(y2) = J_{n-q}(-y2).
    """
    _check_finite("y1", y1)
    _check_finite("y2", y2)
    ks, qs, reach = _grid(ks, qs)
    ik = np.array([1j**k for k in ks.tolist()])[:, None]
    wide = _j_symmetric(y1 + y2, reach + int(ks.max()))
    closed = ik * _table_sums(ks, y1, wide, qs)
    n_max = _brute_order(y1, max(8, 2 * int(ks.max())) + reach)
    n, _, lagged = _lagged(_j_symmetric(-y2, n_max + reach), qs, n_max)
    brute = ik * _moments(ks, n, _j_symmetric(y1, n_max)[:, None] * lagged)
    return n_max, closed, brute


def addition_formula_sides(
    k: int, q: int, y1: float, y2: float
) -> tuple[complex, complex]:
    """Both sides of the k-weighted product addition identity.

    Left: sum_m i^k D[k, q-m](y1) J_m(y1+y2), a finite sum since the
    coefficient support is |q-m| <= k.  Right: the truncated sum
    sum_n (i n)^k J_n(y1) J_{q-n}(y2).
    """
    _check_k("k", k)
    _, closed, brute = _addition_grid(k, q, y1, y2)
    return complex(closed[0, 0]), complex(brute[0, 0])


def _alternating_grid(ks, qs, y: float):
    """n_max, then the closed and brute sides of the alternating identity:
    rows k, columns q.

    Closed: (-1)^q sum_m D[k, q-m](y) J_m(2y).  Brute: sum_{|n| <= n_max}
    (-1)^n n^k J_n(y) J_{n-q}(y).
    """
    _check_finite("y", y)
    ks, qs, reach = _grid(ks, qs)
    n_max = _brute_order(y, max(8, 2 * int(ks.max())) + reach)
    n, jn, jnq = _lagged(_j_symmetric(y, n_max + reach), qs, n_max)
    signs = np.where(n % 2 == 0, 1.0, -1.0)
    brute = _moments(ks, n, (signs * jn)[:, None] * jnq)
    wide = _j_symmetric(2.0 * y, reach + int(ks.max()))
    closed = np.where(qs % 2 == 0, 1.0, -1.0) * _table_sums(ks, y, wide, qs)
    return n_max, closed, brute


def alternating_sum_sides(k: int, q: int, y: float) -> tuple[complex, complex]:
    """Both sides of the alternating-sign companion identity.

    Left: sum_n (-1)^n n^k J_n(y) J_{n-q}(y), truncated.  Right:
    (-1)^q sum_m D[k, q-m](y) J_m(2y) over the finite coefficient support.
    """
    _check_k("k", k)
    _, closed, brute = _alternating_grid(k, q, y)
    return complex(brute[0, 0]), complex(closed[0, 0])


def _jcs_array(x: float, y: float, n_max: int) -> np.ndarray:
    """Mixed-modulation generalized Bessel values for n in [-n_max, n_max]."""
    nx = _brute_order(x, 4)
    ny = _brute_order(y, 4)
    qs = np.arange(-nx, nx + 1)
    a = (1j**(qs % 4)) * _j_symmetric(x, nx)
    return _centered(np.convolve(a, _j_symmetric(y, ny)), n_max)


def jcs(n: int, x: float, y: float) -> complex:
    """Generalized Bessel value for mixed cos/sin modulation.

    Coefficient of e^{i n theta} in exp(i (x cos theta + y sin theta)),
    computed as the convolution sum_q i^q J_q(x) J_{n-q}(y).
    """
    _check_finite("x", x)
    _check_finite("y", y)
    return complex(_jcs_array(x, y, abs(n))[n + abs(n)])


def _jcs_moment_grid(qs, x: float, y: float):
    """n_max, then per q the exact value of 2 sum_{|n| <= n_max} n jcs_n
    conj(jcs_{n-q}) and the sum."""
    _check_finite("x", x)
    _check_finite("y", y)
    qs, reach = _grid(qs)
    n_max = _brute_order(x, 8) + _brute_order(y, 8) + reach
    n, gn, gnq = _lagged(_jcs_array(x, y, n_max + reach), qs, n_max)
    exact = np.select([qs == 1, qs == -1], [y + 1j * x, y - 1j * x], 0.0j)
    return n_max, exact, 2.0 * _moments([1], n, gn[:, None] * np.conj(gnq))[0]


def jcs_sum_rule_sides(q: int, x: float, y: float) -> tuple[complex, complex]:
    """First-moment rule for the mixed-modulation functions.

    Left: 2 sum_n n jcs_n conj(jcs_{n-q}), truncated.  Right is exact:
    (y + ix) delta(q, 1) + (y - ix) delta(q, -1).
    """
    _, exact, sums = _jcs_moment_grid(q, x, y)
    return complex(sums[0]), complex(exact[0])


def _jbar_array(y1: float, y2: float, n_max: int) -> np.ndarray:
    n1 = _brute_order(y1, 4)
    n2 = _brute_order(y2, 4)
    a = _j_symmetric(y1, n1)
    b = np.zeros(4 * n2 + 1)
    b[::2] = _j_symmetric(y2, n2)  # J_q(y2) placed at position 2q
    return _centered(np.convolve(a, b), n_max)


def jbar(n: int, y1: float, y2: float) -> float:
    """Generalized Bessel value for two-tone sine modulation.

    Coefficient of e^{i n theta} in exp(i (y1 sin theta + y2 sin 2 theta)),
    computed as sum_q J_q(y2) J_{n-2q}(y1); real for real arguments.
    """
    _check_finite("y1", y1)
    _check_finite("y2", y2)
    return float(_jbar_array(y1, y2, abs(n))[abs(n) + n])


def _jbar_moment_grid(lags, y1: float, y2: float):
    """n_max, then per s the exact value of sum_{|n| <= n_max} n jbar_n
    jbar_{n-s} and the sum."""
    _check_finite("y1", y1)
    _check_finite("y2", y2)
    lags, reach = _grid(lags)
    n_max = _brute_order(y1, 8) + 2 * _brute_order(y2, 8) + reach
    n, gn, gns = _lagged(_jbar_array(y1, y2, n_max + reach), lags, n_max)
    exact = np.select([np.abs(lags) == 1, np.abs(lags) == 2], [0.5 * y1, y2], 0.0)
    return n_max, exact, _moments([1], n, gn[:, None] * gns)[0]


def jbar_sum_rule_sides(s: int, y1: float, y2: float) -> tuple[float, float]:
    """First-moment rule for the two-tone functions.

    Left: sum_n n jbar_n jbar_{n-s}, truncated.  Right is exact:
    (y1/2)(delta(s,1)+delta(s,-1)) + y2 (delta(s,2)+delta(s,-2)).
    """
    _, exact, sums = _jbar_moment_grid(s, y1, y2)
    return float(sums[0]), float(exact[0])


@dataclass(frozen=True)
class GeneralModulation:
    """Real periodic phase modulation given by its Fourier coefficients.

    fourier_coeffs maps harmonic index n to the coefficient of
    e^{i n Omega t}; reality requires coeff[-n] == conj(coeff[n]).
    """

    fourier_coeffs: Mapping[int, complex]
    fundamental: float

    def __post_init__(self):
        _check_finite("fundamental", self.fundamental, "> 0")
        coeffs = {int(n): complex(c) for n, c in self.fourier_coeffs.items() if c != 0}
        for n, c in coeffs.items():
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient at n = {n} must be finite, got {c}")
        scale = max((abs(c) for c in coeffs.values()), default=0.0)
        for n, c in coeffs.items():
            mate = coeffs.get(-n, 0.0 + 0.0j)
            if abs(mate - c.conjugate()) > 1e-12 * max(scale, 1.0):
                raise ValueError(
                    f"coefficients violate reality at n = {n}: "
                    f"{mate} != conj({c})"
                )
        object.__setattr__(self, "fourier_coeffs", coeffs)

    @classmethod
    def sinusoidal(cls, M: float, Omega: float) -> "GeneralModulation":
        """phi(t) = M sin(Omega t)."""
        return cls({1: -0.5j * M, -1: 0.5j * M}, Omega)

    @classmethod
    def two_tone(cls, y1: float, y2: float, Omega: float) -> "GeneralModulation":
        """phi(t) = y1 sin(Omega t) + y2 sin(2 Omega t)."""
        return cls({1: -0.5j * y1, -1: 0.5j * y1, 2: -0.5j * y2, -2: 0.5j * y2}, Omega)

    def support(self) -> int:
        return max((abs(n) for n in self.fourier_coeffs), default=0)

    def phase(self, t: float | np.ndarray) -> float | np.ndarray:
        """phi(t), real by construction: the real part of the coefficient sum."""
        wt = self.fundamental * np.asarray(t, dtype=float)
        total = np.zeros_like(wt, dtype=complex)
        for n, c in self.fourier_coeffs.items():
            total += c * np.exp(1j * n * wt)
        return total.real if total.shape else float(total.real)


@dataclass(frozen=True)
class SidebandSpectrum:
    """Sideband amplitudes of exp(i phi(t)), n in [-order_max, order_max]."""

    order_max: int
    values: np.ndarray
    sample_count: int
    tail_estimate: float

    def __getitem__(self, n: int) -> complex:
        if abs(n) > self.order_max:
            raise IndexError(f"|n| must be <= {self.order_max}, got {n}")
        return complex(self.values[n + self.order_max])

    def energy_sum(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))


def general_sidebands(mod: GeneralModulation, n_max: int) -> SidebandSpectrum:
    """Sideband amplitudes by uniform sampling over one modulation period.

    The sample count starts at the larger of 256 and the power of two
    >= 8 n_max, and doubles until the aliasing tail (largest amplitude in
    the outer half of the sampled spectrum) falls below 1e-13.  A count
    past _MAX_SAMPLES raises AccuracyError; when the first count is past
    it, nothing is sampled.
    """
    if n_max < mod.support():
        raise ValueError(
            f"n_max = {n_max} is below the modulation support {mod.support()}"
        )
    m = 256
    while m < 8 * max(n_max, 1):
        m *= 2
    if m > _MAX_SAMPLES:
        raise AccuracyError(
            f"n_max = {n_max} needs at least {m} samples, past the cap of "
            f"{_MAX_SAMPLES}"
        )
    while True:
        t = np.arange(m) * (2.0 * math.pi / (mod.fundamental * m))
        g = fft(np.exp(1j * mod.phase(t))) / m
        tail = float(np.abs(g[m // 4 : 3 * m // 4]).max())
        if tail < _TAIL_TOL:
            break
        m *= 2
        if m > _MAX_SAMPLES:
            raise AccuracyError(
                f"sideband sampling tail {tail:.3e} did not fall below "
                f"{_TAIL_TOL:.0e}"
            )
    return SidebandSpectrum(
        order_max=n_max,
        values=g[np.arange(-n_max, n_max + 1) % m],
        sample_count=m,
        tail_estimate=tail,
    )


def auto_sideband_order(mod: GeneralModulation) -> int:
    """Sideband order past which every amplitude is negligible (~1e-16).

    exp(i phi) is the product over n > 0 of exp(i 2|c_n| cos(n Omega t +
    theta_n)), whose factor n reaches sideband k n with amplitude
    J_k(2|c_n|); truncating each factor at its Bessel envelope bounds the
    reach of the product by the sum of n times that envelope.
    """
    return sum(
        n * truncation_bound(2.0 * abs(c), 1e-16)
        for n, c in mod.fourier_coeffs.items()
        if n > 0
    )


def _modulation_moment_grid(mod: GeneralModulation, lags):
    """n_max, then per s: sum_{|n| <= n_max} G_n conj(G_{n-s}), the same sum
    weighted by n, and the first one's exact value i s phi_s."""
    lags, reach = _grid(lags)
    n_max = auto_sideband_order(mod) + reach
    n, gn, gns = _lagged(general_sidebands(mod, n_max + reach).values, lags, n_max)
    energy, moment = _moments([0, 1], n, gn[:, None] * np.conj(gns))
    expected = [1j * s * complex(mod.fourier_coeffs.get(s, 0.0)) for s in lags.tolist()]
    return n_max, energy, moment, expected


def general_modulation_rules(
    mod: GeneralModulation, s: int
) -> tuple[complex, complex, complex]:
    """Energy and first-moment sums of the sideband amplitudes.

    Returns (sum_n G_n conj(G_{n-s}), sum_n n G_n conj(G_{n-s}), i s phi_s);
    the first should be delta(s, 0) and the second should equal the third.
    """
    _, energy, moment, expected = _modulation_moment_grid(mod, s)
    return complex(energy[0]), complex(moment[0]), expected[0]


def _recursion_grid(ks, qs, y: float):
    """0, zeros, and |q^k J_q(y) - sum_n D[k, n](y) J_{q-n}(y)|: rows k,
    columns q.  The sum is finite, so there is no cut to report."""
    _check_finite("y", y)
    ks, qs, reach = _grid(ks, qs)
    m_max = reach + int(ks.max())
    j = _j_symmetric(y, m_max)
    direct = qs.astype(float) ** ks[:, None] * j[qs + m_max]
    residuals = np.abs(direct - _table_sums(ks, y, j, qs))
    return 0, np.zeros_like(residuals), residuals


def recursion_residual(k: int, q: int, y: float) -> float:
    """|q^k J_q(y) - sum_n D[k, n](y) J_{q-n}(y)| over the finite support."""
    _check_k("k", k)
    return float(_recursion_grid(k, q, y)[2][0, 0])


def _residual_scale(closed: complex) -> float:
    """The scale of a rule's residuals: |closed|, but never below 1."""
    return max(1.0, abs(closed))


# the names of SumRuleReport._row_values, the numbers of a row after its parameters
_REPORT_FIELDS = ("closed_re", "closed_im", "brute_re", "brute_im", "abs_residual",
                  "rel_residual", "truncation_order")


@dataclass(frozen=True)
class SumRuleReport:
    """One verified rule instance: both sides plus residuals.

    The constructor stores the sides as Python complex, the order as int and
    the parameters as a dict, a numpy scalar as its Python value, whose repr
    is JSON.  It computes both residuals from the sides: rel_residual and
    passes share one scale, _residual_scale(closed), so a closed side of 0
    leaves rel_residual equal to abs_residual.
    """

    rule_id: str
    parameters: Mapping[str, float]
    closed_form: complex
    brute_force: complex
    truncation_order: int
    abs_residual: float = field(init=False)
    rel_residual: float = field(init=False)

    def __post_init__(self):
        closed, brute = complex(self.closed_form), complex(self.brute_force)
        abs_res = abs(closed - brute)
        for name, value in (
            ("parameters", {key: v.item() if isinstance(v, np.generic) else v
                            for key, v in self.parameters.items()}),
            ("closed_form", closed),
            ("brute_force", brute),
            ("truncation_order", int(self.truncation_order)),
            ("abs_residual", abs_res),
            ("rel_residual", abs_res / _residual_scale(closed)),
        ):
            object.__setattr__(self, name, value)

    def passes(self, tolerance: float) -> bool:
        return bool(self.abs_residual <= tolerance * _residual_scale(self.closed_form))

    def _row_values(self) -> tuple:
        """The numbers named by _REPORT_FIELDS, in that order."""
        closed, brute = self.closed_form, self.brute_force
        return (closed.real, closed.imag, brute.real, brute.imag,
                self.abs_residual, self.rel_residual, self.truncation_order)

    def to_json_obj(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "parameters": {k: self.parameters[k] for k in sorted(self.parameters)},
            **dict(zip(_REPORT_FIELDS, self._row_values())),
        }


def write_reports_jsonl(
    reports: list[SumRuleReport],
    stream: io.TextIOBase,
    extra_fields: Mapping[str, list] | None = None,
) -> None:
    """One JSON object per line: json.dumps of the report's to_json_obj(), with
    extra_fields[name][i] appended to line i."""
    extras = dict(extra_fields or {})
    clash = set(extras) & {"rule_id", "parameters", *_REPORT_FIELDS}
    if clash:
        raise ValueError(f"extra fields {sorted(clash)} would replace report fields")
    for i, r in enumerate(reports):
        obj = r.to_json_obj()
        obj.update((name, column[i]) for name, column in extras.items())
        stream.write(json.dumps(obj) + "\n")


def write_reports_csv(
    reports: list[SumRuleReport],
    stream: io.TextIOBase,
    extra_columns: Mapping[str, list[str]] | None = None,
) -> None:
    """CSV with the union of parameter names expanded into columns, as
    csv.writer writes it, each float as format(x, ".17g")."""
    param_names = sorted({name for r in reports for name in r.parameters})
    extras = dict(extra_columns or {})
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["rule_id", *param_names, *_REPORT_FIELDS, *extras])
    for i, r in enumerate(reports):
        *numbers, order = r._row_values()
        writer.writerow(
            [r.rule_id]
            + ["%.17g" % r.parameters[name] if name in r.parameters else ""
               for name in param_names]
            + ["%.17g" % x for x in numbers]
            + [order]
            + [column[i] for column in extras.values()]
        )
