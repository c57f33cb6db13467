"""Exact coefficient polynomials for the theta-derivative expansion.

The k-th derivative of exp(i y sin(theta)) equals a trigonometric
polynomial times the function itself; projecting that polynomial onto
e^{i n theta} yields coefficients that, after dividing out i^k, are real
polynomials.  This module computes them three independent ways: the
two-term lattice recursion

    D[k+1, n] = n D[k, n] + (y/2) (D[k, n+1] + D[k, n-1]),  D[0, n] = delta(n),

noncentral Stirling numbers, and a closed form over chain-rule partitions.
The recursion shows D[k, n] = sum_m c[k, n, m] (y/2)^m with integer c,
so the arithmetic is exact on plain big integers; nothing here ever
rounds.  A CoeffTable keeps the recursion's rows for n >= 0 and takes
D[k, -n] by its sign.  Only _flat_terms reduces c / 2^m to the y-basis
dyadic form, the terms that the writers of besselrules.cli lay out as
JSON and CSV; this module holds no file layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping

__all__ = [
    "DyadicPoly",
    "CoeffTable",
    "build_coeff_table",
    "coeff_stirling_table",
    "enumerate_derivative_partitions",
    "coeff_faa_di_bruno",
]

MAX_RECURSION_K = 64
MAX_FAA_DI_BRUNO_K = 30


def _check_k(name: str, k: int, k_max: int = MAX_RECURSION_K) -> None:
    """Refuse, naming it, an order k outside [0, k_max]."""
    if not 0 <= k <= k_max:
        raise ValueError(f"{name} must lie in [0, {k_max}], got {k}")


class DyadicPoly:
    """Sparse polynomial in u = y/2 with integer coefficients.

    coeffs maps the power m to the integer c with term c (y/2)^m; zeros
    are never stored and equality is exact.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        coeffs = coeffs or {}
        if any(power < 0 for power in coeffs):
            raise ValueError(f"power must be >= 0, got {min(coeffs)}")
        self.coeffs = {power: c for power, c in coeffs.items() if c}

    def __eq__(self, other) -> bool:
        if not isinstance(other, DyadicPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def evaluate(self, y: float) -> float:
        """Horner evaluation in u = y/2 (one rounding per operation)."""
        return _horner(sorted(self.coeffs.items(), reverse=True), y)

    def __repr__(self) -> str:
        parts = [f"{c}*(y/2)^{p}" for p, c in sorted(self.coeffs.items())]
        return "DyadicPoly(%s)" % (" + ".join(parts) or "0")

    def terms(self) -> list[tuple[int, int, int]]:
        """(power, num, exp2) per term (num / 2^exp2) y^power, by power."""
        flat = _flat_terms(sorted(self.coeffs.items()))
        return list(zip(flat[::3], flat[1::3], flat[2::3]))

    def to_json_obj(self) -> list[dict]:
        """Terms as (num / 2^exp2) y^power with num odd unless exp2 == 0."""
        return [{"power": p, "num": str(num), "exp2": e} for p, num, e in self.terms()]


def _horner(terms: Iterable[tuple[int, int]], y: float) -> float:
    """sum c (y/2)^m over pairs (m, c) by falling m: Horner in u = y/2, one rounding
    per operation.  A zero c is skipped, so a gap of g powers is one u^g step."""
    u = 0.5 * y
    acc = 0.0
    prev: int | None = None
    for power, c in terms:
        if c:
            if prev is not None:
                acc *= u ** (prev - power)
            acc += float(c)
            prev = power
    return acc * u**prev if prev else acc


def _flat_terms(terms: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """(power, num, exp2, ...) per nonzero term c (y/2)^m = (num / 2^exp2) y^m of
    terms, pairs (m, c) by power, with num odd unless exp2 == 0: c / 2^m is
    reduced here and nowhere else."""
    flat: list[int] = []
    for power, c in terms:
        if c:
            tz = (c & -c).bit_length() - 1  # trailing zero bits of c
            if tz > power:
                tz = power
            flat += power, c >> tz, power - tz
    return tuple(flat)


def _negated(k: int, n: int) -> bool:
    """Whether D[k, n] is D[k, |n|] negated: D[k, -n] = (-1)^(k+n) D[k, n]."""
    return n < 0 and (k + n) % 2 == 1


@dataclass(frozen=True)
class CoeffTable:
    """Every D[k, n] with |n| <= k <= k_max, as the recursion builds them.

    rows[k][n], 0 <= n <= k, holds the c of the terms c (y/2)^m of D[k, n]
    over m = n, n + 2, ..., k.  theta -> pi - theta fixes sin(theta), maps
    e^{i n theta} to (-1)^n e^{-i n theta} and d/dtheta to -d/dtheta, so
    D[k, -n] = (-1)^(k+n) D[k, n] (_negated) is not stored.  evaluate
    reads rows alone; entries, the read-only map (k, n) -> polynomial that
    to_json_obj writes, is derived from rows when first read, with no entry
    for |n| > k and none that vanishes (D[k, 0] for odd k, for instance).
    """

    rows: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        # build_coeff_table hands one cached table to every caller, so no
        # row may change in place
        object.__setattr__(self, "rows", tuple(tuple(map(tuple, row)) for row in self.rows))

    @property
    def k_max(self) -> int:
        return len(self.rows) - 1

    @cached_property
    def entries(self) -> Mapping[tuple[int, int], DyadicPoly]:
        polys = {}
        for k, row in enumerate(self.rows):
            for n in range(-k, k + 1):
                sign = -1 if _negated(k, n) else 1
                coeffs = {abs(n) + 2 * i: sign * c for i, c in enumerate(row[abs(n)]) if c}
                if coeffs:
                    polys[k, n] = _frozen(coeffs)
        return MappingProxyType(polys)

    def evaluate(self, k: int, n: int, y: float) -> float:
        """D[k, n](y), 0.0 past |n| <= k: _horner on rows[k][|n|], signed by _negated."""
        _check_k("k", k, self.k_max)
        cs = self.rows[k][abs(n)] if abs(n) <= k else ()
        sign = -1 if _negated(k, n) else 1
        return _horner(((abs(n) + 2 * i, sign * cs[i]) for i in reversed(range(len(cs)))), y)

    def to_json_obj(self) -> dict:
        entries = sorted(self.entries.items())
        items = [{"k": k, "n": n, "poly": poly.to_json_obj()} for (k, n), poly in entries]
        return {"k_max": self.k_max, "entries": items}


def _frozen(coeffs: dict[int, int]) -> DyadicPoly:
    """A read-only polynomial over coeffs, which hold no zero and no other reference."""
    poly = DyadicPoly.__new__(DyadicPoly)
    poly.coeffs = MappingProxyType(coeffs)
    return poly


@lru_cache(maxsize=None)
def build_coeff_table(k_max: int) -> CoeffTable:
    """Exact table of all coefficient polynomials with k <= k_max.

    By the mirror of CoeffTable the recursion runs on n >= 0 only.  Every
    term c (y/2)^m of D[k, n] has m = n (mod 2) and n <= m <= k, so row[n]
    is the dense list of c over m = n, n + 2, ..., k: y/2 times D[k, n-1]
    lands at the same index of D[k+1, n], and y/2 times D[k, n+1] one
    index up.
    """
    _check_k("k_max", k_max)
    rows = [[[1]]]
    for k in range(1, k_max + 1):
        prev = rows[-1]
        # D[k, 0] = (y/2)(D[k-1, 1] + D[k-1, -1]), both one index up, and
        # D[k-1, -1] = (-1)^k D[k-1, 1]: twice D[k-1, 1] for even k, else zero
        row = [[0, *(2 * c for c in prev[1])] if k % 2 == 0 else [0] * (k // 2 + 1)]
        for n in range(1, k + 1):
            acc = prev[n - 1].copy()
            for i, c in enumerate(prev[n] if n < k else ()):
                acc[i] += n * c
            for i, c in enumerate(prev[n + 1] if n + 1 < k else (), 1):
                acc[i] += c
            row.append(acc)
        rows.append(row)
    return CoeffTable(rows)


def coeff_stirling_table(k_max: int) -> list[list[list[int]]]:
    """Every D[k, n] with k <= k_max by noncentral Stirling numbers, as dense rows.

    Row k holds the z^n coefficients of e^{-f} (z d/dz)^k e^f, z = e^{i theta} and
    f = (y/2)(z - 1/z), so c[k, n, m] = C(m, Q) T_Q(k, m) at Q = (m - n)/2, with
    T_Q(0, 0) = 1 and T_Q(k+1, m) = (m - Q) T_Q(k, m) + T_Q(k, m-1) (Koutras 1982,
    Broder 1984).  rows[k][n + k], -k <= n <= k, is the list of c over m = |n|,
    |n| + 2, ..., k, the layout of CoeffTable.rows[k][|n|].  This runs over (k, m)
    at fixed Q, sharing no step with the lattice recursion; negative n come from
    Q > m/2, not from the mirror.
    """
    _check_k("k_max", k_max)
    rows = [[[0] * ((k - abs(n)) // 2 + 1) for n in range(-k, k + 1)] for k in range(k_max + 1)]
    rows[0][0][0] = 1  # T_0(0, 0)
    for q in range(k_max + 1):
        t = [1] + [0] * k_max  # T_Q(k, m) over m, updated in place per k
        for k in range(1, k_max + 1):
            for m in range(k, 0, -1):
                t[m] = (m - q) * t[m] + t[m - 1]
            t[0] *= -q
            for m in range(q, k + 1):  # C(m, Q) vanishes below m = Q
                n = m - 2 * q
                rows[k][n + k][(m - abs(n)) // 2] = math.comb(m, q) * t[m]
    return rows


def enumerate_derivative_partitions(k: int) -> list[tuple[int, ...]]:
    """All tuples (m_1..m_k) of non-negative ints with sum(j*m_j) == k.

    Ordered descending-lexicographically in (m_1, m_2, ...); the count is
    the integer-partition number p(k).  One list of multiplicities is
    filled in place and copied to a tuple per partition; branches whose
    remainder no larger part can make up are never entered.
    """
    if not (1 <= k <= MAX_RECURSION_K):
        raise ValueError(f"k must lie in [1, {MAX_RECURSION_K}], got {k}")
    ms = [0] * k
    out: list[tuple[int, ...]] = []

    def fill(j: int, remaining: int) -> None:
        # ms[j-1:] are zero on entry and again on return
        if remaining == 0:
            out.append(tuple(ms))
            return
        for m in range(remaining // j, -1, -1):
            rest = remaining - j * m
            if 0 < rest <= j:  # parts larger than j cannot make up rest
                continue
            ms[j - 1] = m
            fill(j + 1, rest)
        ms[j - 1] = 0

    fill(1, k)
    return out


_FACTORIALS = [math.factorial(j) for j in range(MAX_FAA_DI_BRUNO_K + 1)]


@lru_cache(maxsize=None)
def _expansion_counts(a: int, b: int) -> tuple[int, ...]:
    """Per half = 0..a+b, the expansion count of a sin and b cos factors
    towards n = a + b - 2 half: sum_r (-1)^r C(a, r) C(b, half - r).

    It depends on a partition only through (a, b), so every row of the
    closed form shares one computation per (a, b, half).
    """
    return tuple(
        sum(
            (-1) ** r * math.comb(a, r) * math.comb(b, half - r)
            for r in range(max(0, half - b), min(a, half) + 1)
        )
        for half in range(a + b + 1)
    )


@lru_cache(maxsize=None)
def _faa_di_bruno_row(k: int) -> dict[int, dict[int, int]]:
    """Every n of row k of the closed form: n -> {m: c of c (y/2)^m}.

    Each partition fixes m, a, b, the sign and the multinomial count, so
    these are computed once; n enters only through the inner binomial
    sum, which depends on the partition only through a and b.  The signed
    counts are therefore summed per (a, b) before n is looped over.
    """
    weights: dict[tuple[int, int], int] = {}
    for ms in enumerate_derivative_partitions(k):
        m = sum(ms)
        # a counts even derivative orders (sin factors), b = m - a the odd
        # ones (cos factors); phi tracks the minus signs of sin/cos cycling,
        # one per factor of order 2 or 3 (mod 4).
        a = sum(ms[1::2])
        b = m - a
        phi = sum(ms[1::4]) + sum(ms[2::4])
        phase_mod4 = (b - k) % 4
        if phase_mod4 % 2:
            raise RuntimeError(
                f"imaginary residue in coefficient phase at k={k}, ms={ms}"
            )
        denom = 1
        for j, mj in enumerate(ms, start=1):
            if mj:
                denom *= _FACTORIALS[mj] * _FACTORIALS[j] ** mj
        phase = 1 if phase_mod4 == 0 else -1
        weight = phase * (-1) ** phi * (_FACTORIALS[k] // denom)
        weights[a, b] = weights.get((a, b), 0) + weight
    row: dict[int, dict[int, int]] = {}
    for (a, b), weight in weights.items():
        m = a + b
        for half, inner in enumerate(_expansion_counts(a, b)):
            # the coefficient of (y/2)^m these partitions add to D[k, n]
            coeffs = row.setdefault(m - 2 * half, {})
            coeffs[m] = coeffs.get(m, 0) + weight * inner
    return row


def coeff_faa_di_bruno(k: int, n: int) -> DyadicPoly:
    """Closed-form coefficient polynomial via derivative partitions.

    Sums, over every tuple with sum(j*m_j) == k, a multinomial weight, a
    trigonometric expansion count, and the (y/2)^m monomial.  The i-power
    bookkeeping must collapse to a real sign once i^k is divided out; a
    leftover imaginary unit would be a bug and raises immediately.  One
    enumeration of the partitions of k builds the whole row, which is
    cached per k, so a sweep over n costs one pass over p(k) partitions.
    """
    if not (1 <= k <= MAX_FAA_DI_BRUNO_K):
        raise ValueError(f"k must lie in [1, {MAX_FAA_DI_BRUNO_K}], got {k}")
    if abs(n) > k:
        raise ValueError(f"|n| must be <= k, got n={n}, k={k}")
    return DyadicPoly(_faa_di_bruno_row(k).get(n))
