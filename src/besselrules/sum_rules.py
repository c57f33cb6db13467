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

from besselrules.bessel_core import _j_symmetric, _lagged, truncation_bound
from besselrules.coefficients import build_coeff_table

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


def _table_sum(k: int, q: int, y: float, j: np.ndarray) -> float:
    """sum_{n=-k..k} D[k, n](y) j_{q-n}, j indexed by order + len(j) // 2."""
    table = build_coeff_table(k)
    center = len(j) // 2
    total = 0.0
    for n in range(-k, k + 1):
        poly = table.entry(k, n)
        if not poly.is_zero():
            total += poly.evaluate(y) * j[q - n + center]
    return total


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


def b_ks_closed(k: int, s: int, M: float) -> float:
    """Closed form of sum_n n^k J_n(M) J_{n-s}(M): the (k, s) polynomial at M."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if abs(s) > k:
        return 0.0
    return build_coeff_table(k).entry(k, s).evaluate(M)


def b_ks_brute(k: int, s: int, M: float) -> float:
    """Truncated direct evaluation of sum_n n^k J_n(M) J_{n-s}(M).

    The n^k weight amplifies the tail, so the cut extends max(8, 2k) + |s|
    orders past the envelope bound for |J_n(M)| < 1e-14.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n_max = _brute_order(M, max(8, 2 * k) + abs(s), 1e-14)
    n, jn, jns = _lagged(_j_symmetric(M, n_max + abs(s)), s, n_max)
    return float(np.sum(n.astype(float) ** k * jn * jns))


def addition_formula_sides(
    k: int, q: int, y1: float, y2: float
) -> tuple[complex, complex]:
    """Both sides of the k-weighted product addition identity.

    Left: sum_m i^k D[k, q-m](y1) J_m(y1+y2), a finite sum since the
    coefficient support is |q-m| <= k.  Right: the truncated sum
    sum_n (i n)^k J_n(y1) J_{q-n}(y2).
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    ik = 1j**k
    lhs_c = ik * _table_sum(k, q, y1, _j_symmetric(y1 + y2, abs(q) + k))

    n_max = _brute_order(y1, max(8, 2 * k) + abs(q))
    half = n_max + abs(q) + _brute_order(y2, 8)
    j1 = _j_symmetric(y1, half)
    j2 = _j_symmetric(y2, half)
    n = np.arange(-n_max, n_max + 1)
    rhs = np.sum(n.astype(float) ** k * j1[n + half] * j2[q - n + half])
    return lhs_c, ik * complex(rhs)


def alternating_sum_sides(k: int, q: int, y: float) -> tuple[complex, complex]:
    """Both sides of the alternating-sign companion identity.

    Left: sum_n (-1)^n n^k J_n(y) J_{n-q}(y), truncated.  Right:
    (-1)^q sum_m D[k, q-m](y) J_m(2y) over the finite coefficient support.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n_max = _brute_order(y, max(8, 2 * k) + abs(q))
    n, jn, jnq = _lagged(_j_symmetric(y, n_max + abs(q)), q, n_max)
    signs = np.where(n % 2 == 0, 1.0, -1.0)
    weights = signs * n.astype(float) ** k
    lhs = float(np.sum(weights * jn * jnq))

    rhs = (-1) ** (q % 2) * _table_sum(k, q, y, _j_symmetric(2.0 * y, abs(q) + k))
    return complex(lhs), complex(rhs)


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
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("arguments must be finite")
    return complex(_jcs_array(x, y, abs(n))[n + abs(n)])


def jcs_sum_rule_sides(q: int, x: float, y: float) -> tuple[complex, complex]:
    """First-moment rule for the mixed-modulation functions.

    Left: 2 sum_n n jcs_n conj(jcs_{n-q}), truncated.  Right is exact:
    (y + ix) delta(q, 1) + (y - ix) delta(q, -1).
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("arguments must be finite")
    n_max = _brute_order(x, 8) + _brute_order(y, 8) + abs(q)
    n, gn, gnq = _lagged(_jcs_array(x, y, n_max + abs(q)), q, n_max)
    lhs = 2.0 * np.sum(n * gn * np.conj(gnq))
    rhs = 0.0 + 0.0j
    if q == 1:
        rhs = y + 1j * x
    elif q == -1:
        rhs = y - 1j * x
    return complex(lhs), rhs


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
    if not (math.isfinite(y1) and math.isfinite(y2)):
        raise ValueError("arguments must be finite")
    return float(_jbar_array(y1, y2, abs(n))[abs(n) + n])


def jbar_sum_rule_sides(s: int, y1: float, y2: float) -> tuple[float, float]:
    """First-moment rule for the two-tone functions.

    Left: sum_n n jbar_n jbar_{n-s}, truncated.  Right is exact:
    (y1/2)(delta(s,1)+delta(s,-1)) + y2 (delta(s,2)+delta(s,-2)).
    """
    if not (math.isfinite(y1) and math.isfinite(y2)):
        raise ValueError("arguments must be finite")
    n_max = _brute_order(y1, 8) + 2 * _brute_order(y2, 8) + abs(s)
    n, gn, gns = _lagged(_jbar_array(y1, y2, n_max + abs(s)), s, n_max)
    lhs = float(np.sum(n * gn * gns))
    rhs = 0.0
    if abs(s) == 1:
        rhs = 0.5 * y1
    elif abs(s) == 2:
        rhs = y2
    return lhs, rhs


@dataclass(frozen=True)
class GeneralModulation:
    """Real periodic phase modulation given by its Fourier coefficients.

    fourier_coeffs maps harmonic index n to the coefficient of
    e^{i n Omega t}; reality requires coeff[-n] == conj(coeff[n]).
    """

    fourier_coeffs: Mapping[int, complex]
    fundamental: float

    def __post_init__(self):
        if not (self.fundamental > 0.0 and math.isfinite(self.fundamental)):
            raise ValueError(f"fundamental must be > 0, got {self.fundamental!r}")
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
        if M == 0.0:
            return cls({}, Omega)
        return cls({1: -0.5j * M, -1: 0.5j * M}, Omega)

    @classmethod
    def two_tone(cls, y1: float, y2: float, Omega: float) -> "GeneralModulation":
        """phi(t) = y1 sin(Omega t) + y2 sin(2 Omega t)."""
        coeffs: dict[int, complex] = {}
        if y1 != 0.0:
            coeffs[1] = -0.5j * y1
            coeffs[-1] = 0.5j * y1
        if y2 != 0.0:
            coeffs[2] = -0.5j * y2
            coeffs[-2] = 0.5j * y2
        return cls(coeffs, Omega)

    def support(self) -> int:
        return max((abs(n) for n in self.fourier_coeffs), default=0)

    def phase(self, t: float | np.ndarray, order: int = 0) -> float | np.ndarray:
        """d^order phi/dt^order, from the term-by-term differentiated series.

        Real by construction: the real part of the coefficient sum.
        """
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        wt = self.fundamental * np.asarray(t, dtype=float)
        total = np.zeros_like(wt, dtype=complex)
        for n, c in self.fourier_coeffs.items():
            total += (1j * n * self.fundamental) ** order * c * np.exp(1j * n * wt)
        return total.real if total.shape else float(total.real)


@dataclass(frozen=True)
class SidebandSpectrum:
    """Sideband amplitudes of exp(i phi(t)), n in [-order_max, order_max]."""

    order_max: int
    fundamental: float
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

    The sample count starts at a power of two >= 8 n_max and doubles until
    the aliasing tail (largest amplitude in the outer half of the sampled
    spectrum) falls below 1e-13.  A count past _MAX_SAMPLES raises
    AccuracyError; when the first count is past it, nothing is sampled.
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
        guard = np.abs(
            np.concatenate([g[m // 4 : m // 2], g[m // 2 : 3 * m // 4]])
        )
        tail = float(guard.max()) if guard.size else 0.0
        if tail < _TAIL_TOL:
            break
        m *= 2
        if m > _MAX_SAMPLES:
            raise AccuracyError(
                f"sideband sampling tail {tail:.3e} did not fall below "
                f"{_TAIL_TOL:.0e}"
            )
    values = np.empty(2 * n_max + 1, dtype=complex)
    for n in range(-n_max, n_max + 1):
        values[n + n_max] = g[n % m]
    return SidebandSpectrum(
        order_max=n_max,
        fundamental=mod.fundamental,
        values=values,
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


def general_modulation_rules(
    mod: GeneralModulation, s: int
) -> tuple[complex, complex, complex]:
    """Energy and first-moment sums of the sideband amplitudes.

    Returns (sum_n G_n conj(G_{n-s}), sum_n n G_n conj(G_{n-s}), i s phi_s);
    the first should be delta(s, 0) and the second should equal the third.
    """
    n_max = auto_sideband_order(mod) + abs(s)
    spectrum = general_sidebands(mod, n_max)
    g = spectrum.values
    n = np.arange(-n_max, n_max + 1)
    sel = (n - s >= -n_max) & (n - s <= n_max)
    gn = g[n[sel] + n_max]
    gns = np.conj(g[n[sel] - s + n_max])
    energy = complex(np.sum(gn * gns))
    moment = complex(np.sum(n[sel] * gn * gns))
    expected = 1j * s * complex(mod.fourier_coeffs.get(s, 0.0))
    return energy, moment, expected


def recursion_residual(k: int, q: int, y: float) -> float:
    """|q^k J_q(y) - sum_n D[k, n](y) J_{q-n}(y)| over the finite support."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    m_max = abs(q) + k
    j = _j_symmetric(y, m_max)
    return abs(float(q) ** k * j[q + m_max] - _table_sum(k, q, y, j))


@dataclass(frozen=True)
class SumRuleReport:
    """One verified rule instance: both sides plus residuals."""

    rule_id: str
    parameters: Mapping[str, float]
    closed_form: complex
    brute_force: complex
    truncation_order: int
    abs_residual: float = field(default=0.0)
    rel_residual: float = field(default=0.0)

    @classmethod
    def from_values(
        cls,
        rule_id: str,
        parameters: Mapping[str, float],
        closed_form: complex,
        brute_force: complex,
        truncation_order: int,
    ) -> "SumRuleReport":
        abs_res = abs(closed_form - brute_force)
        rel_res = abs_res / max(1e-300, abs(closed_form))
        return cls(
            rule_id=rule_id,
            parameters=dict(parameters),
            closed_form=complex(closed_form),
            brute_force=complex(brute_force),
            truncation_order=truncation_order,
            abs_residual=abs_res,
            rel_residual=rel_res,
        )

    def passes(self, tolerance: float) -> bool:
        return bool(self.abs_residual <= tolerance * max(1.0, abs(self.closed_form)))

    def to_json_obj(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "parameters": {k: self.parameters[k] for k in sorted(self.parameters)},
            "closed_re": self.closed_form.real,
            "closed_im": self.closed_form.imag,
            "brute_re": self.brute_force.real,
            "brute_im": self.brute_force.imag,
            "abs_residual": self.abs_residual,
            "rel_residual": self.rel_residual,
            "truncation_order": self.truncation_order,
        }


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_reports_jsonl(
    reports: list[SumRuleReport],
    stream: io.TextIOBase,
    extra_fields: Mapping[str, list] | None = None,
) -> None:
    """One JSON object per line; extra_fields[name][i] is appended to line i."""
    for i, r in enumerate(reports):
        obj = r.to_json_obj()
        if extra_fields:
            for name, values in extra_fields.items():
                obj[name] = values[i]
        stream.write(json.dumps(obj, sort_keys=False))
        stream.write("\n")


def write_reports_csv(
    reports: list[SumRuleReport],
    stream: io.TextIOBase,
    extra_columns: Mapping[str, list[str]] | None = None,
) -> None:
    """CSV with the union of parameter names expanded into columns."""
    param_names = sorted({name for r in reports for name in r.parameters})
    header = (
        ["rule_id"]
        + param_names
        + [
            "closed_re",
            "closed_im",
            "brute_re",
            "brute_im",
            "abs_residual",
            "rel_residual",
            "truncation_order",
        ]
        + (list(extra_columns) if extra_columns else [])
    )
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for i, r in enumerate(reports):
        row = [r.rule_id]
        row += [
            _fmt(r.parameters[name]) if name in r.parameters else ""
            for name in param_names
        ]
        row += [
            _fmt(r.closed_form.real),
            _fmt(r.closed_form.imag),
            _fmt(r.brute_force.real),
            _fmt(r.brute_force.imag),
            _fmt(r.abs_residual),
            _fmt(r.rel_residual),
            str(r.truncation_order),
        ]
        if extra_columns:
            row += [extra_columns[name][i] for name in extra_columns]
        writer.writerow(row)
