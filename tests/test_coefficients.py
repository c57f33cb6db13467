"""Exact-arithmetic tests for the coefficient polynomials.

The k <= 4 table is pinned entry by entry against the hand-checked closed
forms; everything is exact integer equality in u = y/2, zero tolerance.
"""

import json
import math
import random
import struct
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselrules import coefficients
from besselrules.bessel_core import bessel_j_row, truncation_bound
from besselrules.coefficients import (
    CoeffTable,
    DyadicPoly,
    build_coeff_table,
    coeff_faa_di_bruno,
    coeff_stirling_table,
    enumerate_derivative_partitions,
)


def poly(*terms: tuple[int, int, int]) -> DyadicPoly:
    """Build a polynomial from (power, num, exp2) triples, num/2^exp2 y^power."""
    return DyadicPoly({p: num << (p - e) for p, num, e in terms})


def evaluate_exact(p: DyadicPoly, y: Fraction) -> Fraction:
    """The polynomial at y in exact rational arithmetic."""
    u = Fraction(y) / 2
    return sum((c * u**power for power, c in p.coeffs.items()), Fraction(0))


def table_entry(table: CoeffTable, k: int, n: int) -> DyadicPoly:
    """D[k, n] of table as a polynomial, the zero one where entries holds none."""
    return table.entries.get((k, n), DyadicPoly())


def sparse_evaluate(p: DyadicPoly, y: float) -> float:
    """Horner in u = y/2 over the stored powers of p, by falling power: the
    reference CoeffTable.evaluate and DyadicPoly.evaluate match bit for bit."""
    u = 0.5 * y
    acc = 0.0
    prev_power = None
    for power in sorted(p.coeffs, reverse=True):
        if prev_power is not None:
            acc *= u ** (prev_power - power)
        acc += float(p.coeffs[power])
        prev_power = power
    return acc * u**prev_power if prev_power else acc


def poly_from_json(obj: list[dict]) -> DyadicPoly:
    """The polynomial a DyadicPoly.to_json_obj list describes."""
    return poly(*((int(t["power"]), int(t["num"]), int(t["exp2"])) for t in obj))


def two_sided_table(k_max: int) -> dict[tuple[int, int], DyadicPoly]:
    """Every nonzero D[k, n], k <= k_max, by the recursion on both signs of n.

    D[k+1, n] = n D[k, n] + (y/2) (D[k, n+1] + D[k, n-1]) over sparse
    dicts, for every n in [-(k+1), k+1]: it uses no mirror symmetry, so it
    checks the half-lattice build of build_coeff_table.
    """
    entries = {(0, 0): DyadicPoly({0: 1})}
    for k in range(k_max):
        for n in range(-(k + 1), k + 2):
            acc: dict[int, int] = {}
            for source, weight, shift in ((n, n, 0), (n + 1, 1, 1), (n - 1, 1, 1)):
                prev = entries.get((k, source))
                if prev is not None:
                    for m, c in prev.coeffs.items():
                        acc[m + shift] = acc.get(m + shift, 0) + weight * c
            entry = DyadicPoly(acc)
            if entry.coeffs:
                entries[(k + 1, n)] = entry
    return entries


# The full low-order table, entered by hand and pinned exactly; omitted
# entries are zero.  One caveat: at (4, 0) the widely circulated printed
# form carries y^2/4 where the recursion, the partition closed form, AND
# the independent weighted Bessel sum (see the discrepancy test) all give
# y^2/2, so the verified y^2/2 is pinned here.
PINNED_TABLE = {
    (0, 0): poly((0, 1, 0)),
    (1, 1): poly((1, 1, 1)),
    (1, -1): poly((1, 1, 1)),
    (2, 0): poly((2, 1, 1)),
    (2, 2): poly((2, 1, 2)),
    (2, -2): poly((2, 1, 2)),
    (2, 1): poly((1, 1, 1)),
    (2, -1): poly((1, -1, 1)),
    (3, 3): poly((3, 1, 3)),
    (3, -3): poly((3, 1, 3)),
    (3, 2): poly((2, 3, 2)),
    (3, -2): poly((2, -3, 2)),
    (3, 1): poly((3, 3, 3), (1, 1, 1)),
    (3, -1): poly((3, 3, 3), (1, 1, 1)),
    (4, 4): poly((4, 1, 4)),
    (4, -4): poly((4, 1, 4)),
    (4, 3): poly((3, 3, 2)),
    (4, -3): poly((3, -3, 2)),
    (4, 2): poly((4, 1, 2), (2, 7, 2)),
    (4, -2): poly((4, 1, 2), (2, 7, 2)),
    (4, 1): poly((3, 3, 2), (1, 1, 1)),
    (4, -1): poly((3, -3, 2), (1, -1, 1)),
    (4, 0): poly((4, 3, 3), (2, 1, 1)),
}


class TestDyadicPoly:
    def test_no_zero_coefficients_stored(self):
        p = DyadicPoly({2: 0, 3: 5})
        assert p.coeffs == {3: 5}
        assert DyadicPoly({2: 0}).coeffs == {}

    def test_to_json_canonical_form(self):
        # 4 (y/2)^3 = y^3 / 2; an even integer at power 0 cannot reduce
        assert DyadicPoly({3: 4}).to_json_obj() == [{"power": 3, "num": "1", "exp2": 1}]
        assert DyadicPoly({0: 6, 1: -6}).to_json_obj() == [
            {"power": 0, "num": "6", "exp2": 0},
            {"power": 1, "num": "-3", "exp2": 0},
        ]
        assert DyadicPoly({2: 0, 5: 3}).to_json_obj() == [
            {"power": 5, "num": "3", "exp2": 5}
        ]

    @given(c=st.integers(-10**30, 10**30), power=st.integers(0, 80))
    @settings(max_examples=200, deadline=None)
    def test_serialized_value_matches_fractions(self, c, power):
        terms = DyadicPoly({power: c}).to_json_obj()
        if c == 0:
            assert terms == []
            return
        (t,) = terms
        num, exp2 = int(t["num"]), t["exp2"]
        assert Fraction(num, 2**exp2) == Fraction(c, 2**power)
        assert exp2 == 0 or num % 2 == 1

    def test_evaluate_exact_on_dyadic_points(self):
        p = poly((4, 3, 3), (2, 1, 2))  # 3 y^4 / 8 + y^2 / 4
        assert p.evaluate(1.0) == 0.625
        assert evaluate_exact(p, Fraction(1, 2)) == Fraction(3, 128) + Fraction(1, 16)

    def test_evaluate_matches_fraction_horner(self):
        p = poly((5, -11, 4), (3, 7, 2), (0, 1, 0))
        for y in (0.5, 1.25, -2.0):
            exact = float(evaluate_exact(p, Fraction(y)))
            assert p.evaluate(y) == pytest.approx(exact, rel=1e-15)

    def test_terms_are_the_serialized_triples(self):
        p = DyadicPoly({0: 6, 1: -6, 3: 4, 7: 3})
        assert list(p.terms()) == [(0, 6, 0), (1, -3, 0), (3, 1, 1), (7, 3, 7)]
        assert p.to_json_obj() == [
            {"power": power, "num": str(num), "exp2": exp2}
            for power, num, exp2 in p.terms()
        ]
        assert list(DyadicPoly().terms()) == []

    @given(
        coeffs=st.dictionaries(
            st.integers(0, 80), st.integers(-(2**200), 2**200), max_size=12
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_terms_match_the_fraction_reduction(self, coeffs):
        # c (y/2)^m = Fraction(c, 2^m) y^m, which Fraction reduces to
        # num / 2^exp2 with num odd unless exp2 == 0
        want = []
        for power, c in sorted(coeffs.items()):
            if c:
                value = Fraction(c, 2**power)
                exp2 = value.denominator.bit_length() - 1
                assert value.denominator == 2**exp2
                want.append((power, value.numerator, exp2))
        got = DyadicPoly(coeffs).terms()
        assert isinstance(got, list)
        assert got == want
        assert all(exp2 == 0 or num % 2 == 1 for _, num, exp2 in got)

    def test_json_round_trip_exact(self):
        p = poly((9, 12345678901234567890, 9), (1, -3, 1))
        assert poly_from_json(p.to_json_obj()) == p


class TestBuildCoeffTable:
    def test_pinned_low_order_entries(self):
        table = build_coeff_table(4)
        for k in range(5):
            for n in range(-k, k + 1):
                assert table_entry(table, k, n) == PINNED_TABLE.get(
                    (k, n), DyadicPoly()
                ), f"entry ({k}, {n}) disagrees with the pinned listing"

    def test_trivial_table(self):
        table = build_coeff_table(0)
        assert table_entry(table, 0, 0) == DyadicPoly({0: 1})
        assert len(table.entries) == 1

    def test_k_max_out_of_range(self):
        with pytest.raises(ValueError):
            build_coeff_table(-1)
        with pytest.raises(ValueError):
            build_coeff_table(65)

    def test_evaluate_out_of_range(self):
        table = build_coeff_table(3)
        with pytest.raises(ValueError, match=r"k must lie in \[0, 3\], got 4"):
            table.evaluate(4, 0, 1.0)
        with pytest.raises(ValueError, match=r"k must lie in \[0, 3\], got -1"):
            table.evaluate(-1, 0, 1.0)

    def test_structural_invariants_through_k12(self):
        table = build_coeff_table(12)
        for k in range(13):
            for n in range(-k - 2, k + 3):
                entry = table.entries.get((k, n))
                if abs(n) > k:
                    assert entry is None
                    continue
                if entry is None:
                    continue
                assert max(entry.coeffs) <= k
                assert min(entry.coeffs) >= abs(n)
                assert all((p - n) % 2 == 0 for p in entry.coeffs)
        for k in range(13):
            # leading edge is exactly (y/2)^k
            assert table_entry(table, k, k) == DyadicPoly({k: 1})
            assert table_entry(table, k, -k) == DyadicPoly({k: 1})
            for n in range(0, k + 1):
                sign = (-1) ** ((k + n) % 2)
                mirrored = {p: sign * c for p, c in table_entry(table, k, n).coeffs.items()}
                assert table_entry(table, k, -n).coeffs == mirrored

    def test_no_coefficient_is_negative_through_k64(self):
        # the coeffs writers negate a mirror by putting "-" before each num
        rows = build_coeff_table(64).rows
        assert min(c for row in rows for cs in row for c in cs) == 0

    def test_k64_table_has_4193_entries(self):
        # the count the benchmark's tracer reports for build_coeff_table
        assert len(build_coeff_table(64).entries) == 4193

    @pytest.mark.parametrize("k_max", [0, 1, 2, 7, 64])
    def test_half_lattice_matches_two_sided_recursion(self, k_max):
        want = two_sided_table(k_max)
        got = build_coeff_table(k_max).entries
        assert set(got) == set(want)
        for key, entry in want.items():
            assert got[key] == entry, key

    def test_json_round_trip(self):
        table = build_coeff_table(6)
        again = json.loads(json.dumps(table.to_json_obj()))
        assert again["k_max"] == table.k_max
        entries = {(e["k"], e["n"]): poly_from_json(e["poly"]) for e in again["entries"]}
        assert entries == dict(table.entries)

    def test_cached_table_cannot_be_changed_in_place(self):
        table = build_coeff_table(4)
        with pytest.raises(AttributeError):
            table_entry(table, 4, 0).coeffs.clear()
        with pytest.raises(TypeError):
            table_entry(table, 4, 2).coeffs[2] = 5
        with pytest.raises(TypeError):
            table.entries[(4, 0)] = DyadicPoly()
        with pytest.raises(TypeError):
            del table.entries[(3, 1)]
        source = [[[1]], [[0], [1]]]
        copied = CoeffTable(source)
        source[1][1][0] = 5
        source[1].append([7])
        source.append([[2]])
        assert copied.k_max == 1
        assert dict(copied.entries) == {(0, 0): DyadicPoly({0: 1}), (1, -1): DyadicPoly({1: 1}),
                                        (1, 1): DyadicPoly({1: 1})}
        rebuilt = build_coeff_table(4)
        for k in range(5):
            for n in range(-k, k + 1):
                want = PINNED_TABLE.get((k, n), DyadicPoly())
                assert table_entry(rebuilt, k, n) == want

    def test_reported_discrepancy_at_4_0(self):
        """Both computation paths reject the circulated (4, 0) printed form.

        The printed low-order listing shows 3 y^4/8 + y^2/4 at (4, 0); the
        lattice recursion and the partition closed form both produce
        3 y^4/8 + y^2/2, and the independent weighted Bessel sum
        sum_n n^4 J_n(y)^2 sides with them, so y^2/4 is a typo.
        """
        printed = poly((4, 3, 3), (2, 1, 2))
        verified = poly((4, 3, 3), (2, 1, 1))
        assert table_entry(build_coeff_table(4), 4, 0) == verified
        assert coeff_faa_di_bruno(4, 0) == verified
        assert table_entry(build_coeff_table(4), 4, 0) != printed
        # adjudication by the independent truncated Bessel sum at y = 1
        y = 1.0
        row = bessel_j_row(truncation_bound(y, 1e-16) + 4, y)
        brute = 2.0 * sum(n**4 * row[n] ** 2 for n in range(1, row.order_max + 1))
        assert abs(brute - verified.evaluate(y)) < 1e-12
        assert abs(brute - printed.evaluate(y)) > 0.2

    def test_homogeneous_part_solved_by_bessel(self):
        # the lattice recursion's homogeneous structure is the standard
        # three-term relation, which the J_n satisfy
        for y in (0.5, 2.0, 7.0):
            row = bessel_j_row(truncation_bound(y, 1e-15) + 1, y)
            for n in range(1, row.order_max - 1):
                resid = abs(n * row[n] - 0.5 * y * (row[n + 1] + row[n - 1]))
                assert resid <= 1e-12


class TestPartitions:
    def test_single(self):
        assert enumerate_derivative_partitions(1) == [(1,)]

    def test_k3_exact_order(self):
        assert enumerate_derivative_partitions(3) == [(3, 0, 0), (1, 1, 0), (0, 0, 1)]

    @pytest.mark.parametrize(
        "k,count", [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11), (7, 15), (8, 22), (9, 30), (10, 42)]
    )
    def test_counts_match_partition_numbers(self, k, count):
        assert len(enumerate_derivative_partitions(k)) == count

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_against_brute_force_enumeration(self, k):
        brute = {
            ms
            for ms in product(*(range(k // j + 1) for j in range(1, k + 1)))
            if sum(j * m for j, m in enumerate(ms, start=1)) == k
        }
        got = enumerate_derivative_partitions(k)
        assert set(got) == brute
        assert len(got) == len(set(got))

    @pytest.mark.parametrize("k", range(2, 9))
    def test_order_is_descending_lexicographic(self, k):
        brute = [
            ms
            for ms in product(*(range(k // j + 1) for j in range(1, k + 1)))
            if sum(j * m for j, m in enumerate(ms, start=1)) == k
        ]
        assert enumerate_derivative_partitions(k) == sorted(brute, reverse=True)

    def test_counts_match_partition_numbers_through_k30(self):
        # p(k) by the coin-change recurrence over part sizes 1..30
        p = [1] + [0] * 30
        for part in range(1, 31):
            for total in range(part, 31):
                p[total] += p[total - part]
        assert (p[20], p[30]) == (627, 5604)
        for k in range(1, 31):
            assert len(enumerate_derivative_partitions(k)) == p[k], k

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_derivative_partitions(0)
        with pytest.raises(ValueError):
            enumerate_derivative_partitions(65)


def stirling_entry(rows: list, k: int, n: int) -> DyadicPoly:
    """D[k, n] from the dense two-sided rows of coeff_stirling_table."""
    return DyadicPoly({abs(n) + 2 * i: c for i, c in enumerate(rows[k][n + k])})


class TestStirling:
    def test_matches_the_table_at_every_n_through_k64(self):
        # negative n come from the form itself, so this also checks the mirror
        table = build_coeff_table(64)
        got = coeff_stirling_table(64)
        assert [[len(cs) for cs in row] for row in got] == [
            [len(table.rows[k][abs(n)]) for n in range(-k, k + 1)] for k in range(65)
        ]
        for k in range(65):
            for n in range(-k, k + 1):
                assert stirling_entry(got, k, n) == table_entry(table, k, n), (k, n)

    def test_matches_the_partition_closed_form_through_k30(self):
        got = coeff_stirling_table(30)
        for k in range(1, 31):
            for n in range(-k, k + 1):
                assert stirling_entry(got, k, n) == coeff_faa_di_bruno(k, n), (k, n)

    def test_small_tables(self):
        assert coeff_stirling_table(0) == [[[1]]]
        assert coeff_stirling_table(2) == [[[1]], [[1], [0], [1]], [[1], [-1], [0, 2], [1], [1]]]
        got = coeff_stirling_table(4)
        assert len(got) == 5
        for k in range(5):
            for n in range(-k, k + 1):
                assert stirling_entry(got, k, n) == PINNED_TABLE.get((k, n), DyadicPoly()), (k, n)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            coeff_stirling_table(-1)
        with pytest.raises(ValueError):
            coeff_stirling_table(65)


class TestFaaDiBruno:
    def test_first_order(self):
        assert coeff_faa_di_bruno(1, 1) == poly((1, 1, 1))

    def test_diagonal(self):
        assert coeff_faa_di_bruno(3, 3) == poly((3, 1, 3))

    def test_matches_recursion_through_k10(self):
        table = build_coeff_table(10)
        for k in range(1, 11):
            for n in range(-k, k + 1):
                assert coeff_faa_di_bruno(k, n) == table_entry(table, k, n), (k, n)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            coeff_faa_di_bruno(0, 0)
        with pytest.raises(ValueError):
            coeff_faa_di_bruno(31, 0)
        with pytest.raises(ValueError):
            coeff_faa_di_bruno(2, 3)


    def test_expansion_counts_match_the_binomial_sum(self):
        # the count of a sin and b cos factors towards n = a + b - 2 half,
        # shared by every row of the closed form
        for a in range(31):
            for b in range(31 - a):
                want = tuple(
                    sum(
                        (-1) ** r * math.comb(a, r) * math.comb(b, half - r)
                        for r in range(max(0, half - b), min(a, half) + 1)
                    )
                    for half in range(a + b + 1)
                )
                assert coefficients._expansion_counts(a, b) == want, (a, b)

    def test_row_entries_are_fresh_and_odd_k_centre_is_zero(self):
        first = coeff_faa_di_bruno(4, 2)
        first.coeffs.clear()
        assert coeff_faa_di_bruno(4, 2) == table_entry(build_coeff_table(4), 4, 2)
        assert coeff_faa_di_bruno(3, 0) == DyadicPoly()
        assert coeff_faa_di_bruno(5, 0) == DyadicPoly()


class TestEvalCoeff:
    def test_unit_entry(self):
        table = build_coeff_table(2)
        for y in (0.0, 1.7, -4.0):
            assert table.evaluate(0, 0, y) == 1.0

    def test_linear_entry(self):
        assert build_coeff_table(1).evaluate(1, 1, 2.0) == 1.0

    def test_quartic_entry(self):
        # 3/8 + 1/2 (the oracle-verified (4, 0) value, see the discrepancy test)
        assert build_coeff_table(4).evaluate(4, 0, 1.0) == 0.875

    def test_out_of_table_range(self):
        with pytest.raises(ValueError):
            build_coeff_table(2).evaluate(3, 0, 1.0)

    @pytest.mark.parametrize("y", [0.0, -0.0, 1e-300, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 5.0, 1e300])
    def test_matches_the_sparse_reference_bit_for_bit(self, y):
        # odd and even k + n on both sides of the mirror, |n| one past k,
        # and signed zeros: the bytes must agree, not just the values
        table = build_coeff_table(64)
        for k in range(65):
            for n in range(-k - 1, k + 2):
                poly_kn = table_entry(table, k, n)
                try:
                    want = sparse_evaluate(poly_kn, y)
                except OverflowError:
                    with pytest.raises(OverflowError):
                        table.evaluate(k, n, y)
                    with pytest.raises(OverflowError):
                        poly_kn.evaluate(y)
                    continue
                want = struct.pack("d", want)
                assert struct.pack("d", table.evaluate(k, n, y)) == want, (k, n)
                assert struct.pack("d", poly_kn.evaluate(y)) == want, (k, n)

    def test_matches_the_sparse_reference_at_log_uniform_points(self):
        rng = random.Random(20101)
        table = build_coeff_table(64)
        for k in range(65):
            for n in range(-k - 1, k + 2):
                for _ in range(4):
                    y = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-4.0, 4.0)
                    want = struct.pack("d", sparse_evaluate(table_entry(table, k, n), y))
                    assert struct.pack("d", table.evaluate(k, n, y)) == want, (k, n, y)

