"""Sum-rule residual tests: every closed form against its brute-force twin."""

import csv
import io
import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselrules.bessel_core import bessel_j_int
from besselrules.sum_rules import (
    AccuracyError,
    GeneralModulation,
    SumRuleReport,
    addition_formula_sides,
    alternating_sum_sides,
    b_ks_brute,
    b_ks_closed,
    general_modulation_rules,
    general_sidebands,
    jbar,
    jbar_sum_rule_sides,
    jcs,
    jcs_sum_rule_sides,
    recursion_residual,
    write_reports_csv,
    write_reports_jsonl,
)

M_GRID = (0.5, 1.0, 2.0, 5.0)

# the domain of the mpmath checks of jcs and jbar
ARGUMENT = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)
ORDER = st.integers(min_value=-40, max_value=40)


def fourier_coefficient(fn, n: int, samples: int = 4096) -> complex:
    """Independent oracle: n-th Fourier coefficient of fn over one period."""
    theta = np.arange(samples) * (2.0 * math.pi / samples)
    return complex(np.mean(fn(theta) * np.exp(-1j * n * theta)))


class TestWeightedProductMoments:
    def test_known_closed_values(self):
        for M in M_GRID:
            assert b_ks_closed(0, 0, M) == 1.0
            assert b_ks_closed(1, 1, M) == 0.5 * M
            assert b_ks_closed(2, 0, M) == pytest.approx(0.5 * M * M, rel=1e-15)
        assert b_ks_closed(3, 5, 2.0) == 0.0

    def test_brute_examples(self):
        assert b_ks_brute(0, 0, 2.0) == pytest.approx(1.0, abs=1e-12)
        assert b_ks_brute(1, 1, 2.0) == pytest.approx(1.0, abs=1e-10)
        for k in (1, 2, 5):
            assert b_ks_brute(k, 0, 0.0) == 0.0

    def test_closed_vs_brute_grid(self):
        for k in range(7):
            for s in range(-8, 9):
                for M in M_GRID:
                    closed = b_ks_closed(k, s, M)
                    brute = b_ks_brute(k, s, M)
                    assert abs(closed - brute) <= 1e-10 * max(1.0, abs(closed)), (
                        k,
                        s,
                        M,
                    )
                    if abs(s) > k:
                        assert abs(brute) < 1e-12

    def test_parity_both_paths(self):
        for k in range(5):
            for s in range(0, k + 1):
                for M in (0.7, 2.3):
                    sign = (-1.0) ** ((k + s) % 2)
                    assert b_ks_closed(k, -s, M) == pytest.approx(
                        sign * b_ks_closed(k, s, M), rel=1e-14, abs=1e-300
                    )
                    assert b_ks_brute(k, -s, M) == pytest.approx(
                        sign * b_ks_brute(k, s, M), abs=1e-12
                    )

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            b_ks_closed(-1, 0, 1.0)

    @pytest.mark.parametrize("k, s, M", [(64, 0, 1e5), (4, 0, 1e300), (5, -1, -1e300)])
    def test_value_past_double_range_is_refused(self, k, s, M):
        # at 1e5 only the last multiply overflows, to inf; at 1e300 a power
        # step of the Horner loop raises
        with pytest.raises(OverflowError) as err:
            b_ks_closed(k, s, M)
        assert str(err.value) == f"B[k, s](M) at k = {k}, s = {s}, M = {M!r} leaves double range"


class TestAdditionFormula:
    def test_order_zero_collapses_to_plain_addition(self):
        for q in (-2, 0, 3):
            lhs, rhs = addition_formula_sides(0, q, 1.0, 0.7)
            assert lhs == pytest.approx(bessel_j_int(q, 1.7), abs=1e-14)
            assert abs(lhs - rhs) < 1e-12

    def test_opposite_arguments_isolate_coefficient(self):
        lhs, rhs = addition_formula_sides(2, 1, 1.3, -1.3)
        want = (1j**2) * b_ks_closed(2, 1, 1.3)
        assert lhs == pytest.approx(want, abs=1e-14)
        assert abs(lhs - rhs) < 1e-10

    def test_grid(self):
        for k in range(5):
            for q in range(-4, 5):
                for y1, y2 in ((1.0, 0.7), (2.0, -1.3), (0.5, 0.5)):
                    lhs, rhs = addition_formula_sides(k, q, y1, y2)
                    assert abs(lhs - rhs) < 1e-10, (k, q, y1, y2)


class TestAlternatingSum:
    def test_zero_order(self):
        lhs, rhs = alternating_sum_sides(0, 0, 0.9)
        assert lhs == pytest.approx(bessel_j_int(0, 1.8), abs=1e-13)
        assert abs(lhs - rhs) < 1e-12

    def test_zero_argument(self):
        lhs, rhs = alternating_sum_sides(2, 0, 0.0)
        assert lhs == rhs == 0.0

    def test_grid(self):
        for k in range(4):
            for q in range(-3, 4):
                for y in (0.5, 1.3, 2.0):
                    lhs, rhs = alternating_sum_sides(k, q, y)
                    assert abs(lhs - rhs) < 1e-10, (k, q, y)


class TestMixedModulationFunctions:
    def test_zero_first_argument_reduces_to_plain(self):
        for n in (-3, 0, 2):
            assert jcs(n, 0.0, 1.5) == pytest.approx(
                bessel_j_int(n, 1.5), abs=1e-14
            )

    def test_zero_second_argument_gains_quarter_phase(self):
        for n in (-2, 1, 3):
            want = (1j ** (n % 4)) * bessel_j_int(n, 1.5)
            assert jcs(n, 1.5, 0.0) == pytest.approx(want, abs=1e-14)

    def test_against_fourier_quadrature(self):
        for n, x, y in ((0, 1.0, 1.0), (2, 0.7, 1.3), (-1, 1.0, 0.5), (4, 2.0, 2.0)):
            ref = fourier_coefficient(
                lambda t: np.exp(1j * (x * np.cos(t) + y * np.sin(t))), n
            )
            assert abs(jcs(n, x, y) - ref) < 1e-12

    def test_sum_rule_grid(self):
        for q in range(-2, 3):
            for x, y in ((1.0, 2.0), (0.5, 0.5), (2.0, 0.0), (0.0, 1.5)):
                lhs, rhs = jcs_sum_rule_sides(q, x, y)
                assert abs(lhs - rhs) < 1e-10, (q, x, y)

    def test_sum_rule_values(self):
        lhs, rhs = jcs_sum_rule_sides(1, 1.0, 2.0)
        assert rhs == 2.0 + 1.0j
        assert abs(lhs - rhs) < 1e-10
        lhs, rhs = jcs_sum_rule_sides(0, 1.0, 2.0)
        assert rhs == 0.0
        assert abs(lhs) < 1e-10

    @given(n=ORDER, x=ARGUMENT, y=ARGUMENT)
    @settings(max_examples=60, deadline=None)
    def test_matches_mpmath_rotated_bessel(self, n, x, y):
        # x cos(theta) + y sin(theta) = r sin(theta + alpha)
        with mp.workdps(30):
            r = mp.sqrt(mp.mpf(x) ** 2 + mp.mpf(y) ** 2)
            alpha = mp.atan2(x, y)
            want = complex(mp.besselj(n, r) * mp.expj(n * alpha))
        assert abs(jcs(n, x, y) - want) <= 1e-14

    def test_x_zero_reduces_to_first_moment_rule(self):
        # with no cosine part the rule is the plain first-moment relation
        lhs, rhs = jcs_sum_rule_sides(1, 0.0, 1.7)
        assert rhs == pytest.approx(1.7)
        assert abs(lhs - 2.0 * b_ks_closed(1, 1, 1.7)) < 1e-10


class TestTwoToneFunctions:
    def test_second_argument_zero(self):
        for n in (-2, 0, 3):
            assert jbar(n, 1.2, 0.0) == pytest.approx(
                bessel_j_int(n, 1.2), abs=1e-14
            )

    def test_odd_index_without_fundamental(self):
        assert jbar(1, 0.0, 0.7) == 0.0
        assert jbar(2, 0.0, 0.7) == pytest.approx(bessel_j_int(1, 0.7), abs=1e-14)

    def test_against_fourier_quadrature(self):
        for n, y1, y2 in ((0, 1.0, 0.5), (2, 0.8, 1.1), (-3, 1.5, 0.4)):
            ref = fourier_coefficient(
                lambda t: np.exp(1j * (y1 * np.sin(t) + y2 * np.sin(2 * t))), n
            )
            assert abs(ref.imag) < 1e-13  # real for real arguments
            assert abs(jbar(n, y1, y2) - ref.real) < 1e-12

    @given(n=ORDER, y1=ARGUMENT, y2=ARGUMENT)
    @settings(max_examples=60, deadline=None)
    def test_matches_mpmath_convolution(self, n, y1, y2):
        # |J_q(y2)| < 1e-21 past |q| = 70 for |y2| <= 30
        with mp.workdps(30):
            want = float(mp.fsum(
                mp.besselj(q, y2) * mp.besselj(n - 2 * q, y1) for q in range(-70, 71)
            ))
        assert abs(jbar(n, y1, y2) - want) <= 1e-14

    def test_sum_rule_values(self):
        lhs, rhs = jbar_sum_rule_sides(1, 2.0, 0.7)
        assert rhs == 1.0
        assert abs(lhs - rhs) < 1e-10
        assert jbar_sum_rule_sides(2, 2.0, 0.7)[1] == pytest.approx(0.7)
        lhs, rhs = jbar_sum_rule_sides(3, 2.0, 0.7)
        assert rhs == 0.0
        assert abs(lhs) < 1e-10

    def test_sum_rule_grid(self):
        for s in range(-3, 4):
            for y1, y2 in ((2.0, 0.7), (1.0, 0.5), (0.5, 0.0)):
                lhs, rhs = jbar_sum_rule_sides(s, y1, y2)
                assert abs(lhs - rhs) < 1e-10, (s, y1, y2)


@pytest.mark.parametrize("func", [jcs, jcs_sum_rule_sides, jbar, jbar_sum_rule_sides])
@pytest.mark.parametrize("position, bad", [(0, math.nan), (1, math.inf), (1, -math.inf)])
def test_non_finite_argument_is_named(func, position, bad):
    # jcs and its moment grid take (x, y), jbar and its moment grid (y1, y2)
    name = ("x", "y") if func in (jcs, jcs_sum_rule_sides) else ("y1", "y2")
    args = [1.0, 0.5]
    args[position] = bad
    with pytest.raises(ValueError, match=rf"^{name[position]} must be finite, got {bad!r}$"):
        func(1, *args)


# a non-finite argument, or an order past the coefficient table, and its message
BAD_TABLE_RULE_ARGUMENTS = [
    (b_ks_closed, (2, 0, math.nan), "M must be finite, got nan"),
    (b_ks_closed, (2, 0, math.inf), "M must be finite, got inf"),
    (b_ks_brute, (2, 0, math.nan), "M must be finite, got nan"),
    (b_ks_brute, (2, 0, -math.inf), "M must be finite, got -inf"),
    (addition_formula_sides, (1, 0, math.nan, 0.5), "y1 must be finite, got nan"),
    (addition_formula_sides, (1, 0, 0.5, math.inf), "y2 must be finite, got inf"),
    (alternating_sum_sides, (1, 0, math.inf), "y must be finite, got inf"),
    (recursion_residual, (1, 0, math.nan), "y must be finite, got nan"),
    (b_ks_closed, (70, 0, 1.0), r"k must lie in \[0, 64\], got 70"),
    (recursion_residual, (70, 0, 1.0), r"k must lie in \[0, 64\], got 70"),
]


@pytest.mark.parametrize(
    "func, args, message", BAD_TABLE_RULE_ARGUMENTS,
    ids=[f"{func.__name__}{args}" for func, args, _ in BAD_TABLE_RULE_ARGUMENTS],
)
def test_bad_argument_of_a_table_rule_is_named(func, args, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        func(*args)


class TestGeneralModulation:
    def test_reality_enforced(self):
        with pytest.raises(ValueError):
            GeneralModulation({1: 1.0 + 0.5j}, 1.0)
        GeneralModulation({1: 1.0 + 0.5j, -1: 1.0 - 0.5j}, 1.0)

    def test_fundamental_positive(self):
        with pytest.raises(ValueError):
            GeneralModulation({}, 0.0)

    def test_phase_is_real_sine(self):
        mod = GeneralModulation.sinusoidal(1.5, 2.0)
        t = np.linspace(0.0, 3.0, 50)
        assert np.allclose(mod.phase(t), 1.5 * np.sin(2.0 * t), atol=1e-15)
        assert mod.phase(0.25) == pytest.approx(1.5 * math.sin(0.5), abs=1e-15)

    def test_sinusoidal_sidebands_match_bessel(self):
        spectrum = general_sidebands(GeneralModulation.sinusoidal(2.0, 1.0), 12)
        for n in range(-12, 13):
            assert abs(spectrum[n] - bessel_j_int(n, 2.0)) < 1e-12

    def test_trivial_modulation(self):
        # the factories at zero amplitude keep no coefficient
        for mod in (GeneralModulation({}, 1.0), GeneralModulation.sinusoidal(0.0, 1.0),
                    GeneralModulation.two_tone(0.0, -0.0, 1.0)):
            assert mod.fourier_coeffs == {}
            spectrum = general_sidebands(mod, 4)
            assert spectrum[0] == pytest.approx(1.0, abs=1e-15)
            for n in (-4, -1, 1, 3):
                assert abs(spectrum[n]) < 1e-15

    def test_two_tone_sidebands_match_convolution(self):
        # a zero amplitude drops its pair of coefficients, the rest keep their order
        for y1, y2, keys in ((1.0, 0.5, [1, -1, 2, -2]), (1.0, 0.0, [1, -1]),
                             (0.0, 0.5, [2, -2])):
            mod = GeneralModulation.two_tone(y1, y2, 1.0)
            assert list(mod.fourier_coeffs) == keys
            spectrum = general_sidebands(mod, 10)
            for n in range(-10, 11):
                assert abs(spectrum[n] - jbar(n, y1, y2)) < 1e-10

    def test_spectrum_below_support_rejected(self):
        with pytest.raises(ValueError):
            general_sidebands(GeneralModulation.two_tone(1.0, 0.5, 1.0), 1)

    def test_unreachable_tail_raises(self, monkeypatch):
        import besselrules.sum_rules as sr

        monkeypatch.setattr(sr, "_TAIL_TOL", 0.0)
        monkeypatch.setattr(sr, "_MAX_SAMPLES", 1024)
        with pytest.raises(AccuracyError, match="did not fall below"):
            general_sidebands(GeneralModulation.sinusoidal(1.0, 1.0), 4)

    def test_sample_cap_checked_before_sampling(self, monkeypatch):
        import besselrules.sum_rules as sr

        # n_max = 6e5 needs 2^23 samples, past the cap; numpy is never reached
        monkeypatch.setattr(sr, "np", None)
        with pytest.raises(AccuracyError, match="n_max = 600000 .* cap of 4194304"):
            general_sidebands(GeneralModulation.sinusoidal(1.0, 1.0), 600000)

    def test_energy_and_moment_rules(self):
        mods = [
            GeneralModulation.sinusoidal(1.2, 1.0),
            GeneralModulation.two_tone(1.0, 0.5, 1.0),
            GeneralModulation(
                {1: -0.4j, -1: 0.4j, 2: -0.2j, -2: 0.2j, 3: -0.1j, -3: 0.1j}, 1.0
            ),
            GeneralModulation.sinusoidal(0.0, 1.0),
            GeneralModulation.two_tone(0.0, 0.5, 1.0),
            GeneralModulation.two_tone(1.0, 0.0, 1.0),
        ]
        for mod in mods:
            for s in range(-2, 3):
                energy, moment, expected = general_modulation_rules(mod, s)
                want_energy = 1.0 if s == 0 else 0.0
                assert abs(energy - want_energy) < 1e-10
                assert abs(moment - expected) < 1e-10

    def test_sinusoidal_moment_matches_closed_form(self):
        M = 1.7
        mod = GeneralModulation.sinusoidal(M, 3.0)
        _, moment, expected = general_modulation_rules(mod, 1)
        assert expected == pytest.approx(0.5 * M)  # i * phi_1 = M/2
        assert abs(moment - b_ks_closed(1, 1, M)) < 1e-10

    def test_zero_modulation_rules(self):
        energy, moment, expected = general_modulation_rules(
            GeneralModulation({}, 1.0), 2
        )
        assert abs(energy) < 1e-12 and abs(moment) < 1e-12 and expected == 0.0


class TestRecursionResiduals:
    def test_identity_order(self):
        assert recursion_residual(0, 3, 1.4) == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_low_order_grid(self, k):
        for q in range(-10, 11):
            for y in (0.3, 1.0, 2.0, 5.0):
                assert recursion_residual(k, q, y) < 1e-12, (k, q, y)


class TestSumRuleReport:
    def test_residuals_recomputable(self):
        r = SumRuleReport("demo", {"k": 1.0}, 2.0 + 0.0j, 2.0 + 1e-12j, 7)
        assert r.abs_residual == pytest.approx(1e-12)
        assert r.rel_residual == pytest.approx(r.abs_residual / abs(r.closed_form))
        assert r.passes(1e-9) and not r.passes(1e-15)
        # a closed side of 0 scales by 1, the scale passes applies
        zero = SumRuleReport("demo", {"k": 1.0}, 0.0, 3e-30, 7)
        assert zero.rel_residual == zero.abs_residual == 3e-30
        assert zero.passes(1e-29) and not zero.passes(1e-31)

    def test_residuals_come_from_the_sides(self):
        r = SumRuleReport("x", {"k": 1}, 1.0, 5.0, 0)
        assert r.abs_residual == 4.0 and r.rel_residual == 4.0
        assert not r.passes(1e-9)
        for name in ("abs_residual", "rel_residual"):
            with pytest.raises(TypeError, match=name):
                SumRuleReport("x", {"k": 1}, 1.0, 5.0, 0, **{name: 0.0})

    def test_jsonl_round_trip(self):
        reports = [
            SumRuleReport("a", {"x": 1.0}, 1.0 + 2.0j, 1.0 + 2.0j, 3),
            SumRuleReport("b", {"y": -1.5}, 0.5, 0.25, 4),
            SumRuleReport("c", {"k": np.int64(2)}, np.complex128(1.5j), np.complex128(1j),
                          np.int64(5)),
        ]
        buf = io.StringIO()
        write_reports_jsonl(reports, buf)
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first["rule_id"] == "a"
        assert first["closed_im"] == 2.0
        assert json.loads(lines[2]) == {
            "rule_id": "c", "parameters": {"k": 2}, "closed_re": 0.0, "closed_im": 1.5,
            "brute_re": 0.0, "brute_im": 1.0, "abs_residual": 0.5, "rel_residual": 1 / 3,
            "truncation_order": 5,
        }

    def test_csv_unions_parameter_columns(self):
        reports = [
            SumRuleReport("a", {"x": 1.0}, 1.0, 1.0, 3),
            SumRuleReport("b", {"y": -1.5}, 0.5, 0.25, 4),
            SumRuleReport("c", {"x": np.int64(2)}, np.complex128(1.5j), np.complex128(1j),
                          np.int64(5)),
        ]
        buf = io.StringIO(newline="")
        write_reports_csv(reports, buf)
        rows = buf.getvalue().split("\n")
        assert rows[0].startswith("rule_id,x,y,closed_re")
        assert rows[1].split(",")[2] == ""  # rule a has no y
        want = io.StringIO(newline="")
        csv.writer(want, lineterminator="").writerow(
            ["c", "2", "", "0", "1.5", "0", "1", "0.5", format(1 / 3, ".17g"), "5"]
        )
        assert rows[3] == want.getvalue()
