"""Kernel tests: recursion chains, the quadrature oracle, Gamma, complex orders.

Frozen reference values were produced by the stated independent oracles
(the full-period quadrature for integer orders, 30-digit mpmath series
summation for complex orders and log-Gamma) and are asserted as literals;
the complex-order grid is checked against mpmath directly.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselrules.bessel_core import (
    ConvergenceError,
    OracleError,
    bessel_j_complex_order,
    bessel_j_int,
    bessel_j_row,
    ln_gamma_complex,
    truncation_bound,
)

mp.mp.dps = 30

Y_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0)


def bessel_j_quadrature_oracle(n: int, y: float) -> float:
    """J_n(y) as the full-period average of cos(n*theta - y*sin(theta)).

    Uniform midpoint sampling over one period is spectrally accurate here;
    the node count doubles until two consecutive refinements agree to 1e-14
    absolute.  It shares no code with the Miller chain it checks.
    """
    if abs(n) > 200 or abs(y) > 100:
        raise ValueError("oracle domain is |n| <= 200, |y| <= 100")
    if not math.isfinite(y):
        raise ValueError(f"argument must be finite, got {y!r}")
    m = 64
    prev = None
    while m <= (1 << 21):
        theta = (np.arange(m) + 0.5) * (2.0 * math.pi / m)
        val = float(np.mean(np.cos(n * theta - y * np.sin(theta))))
        if prev is not None and abs(val - prev) < 1e-14:
            return val
        prev = val
        m *= 2
    raise OracleError(
        f"quadrature for J_{n}({y}) did not stabilize at {m // 2} nodes"
    )

# Frozen outputs of bessel_j_quadrature_oracle, the ground-truth path.
ORACLE_FROZEN = {
    (1, 2.0): 0.5767248077568734,
    (5, 3.0): 0.04302843487704749,
    (0, 1.0): 0.7651976865579666,
    (3, 0.5): 0.002563729994587204,
    (12, 8.0): 0.00962382181218162,
}


class TestQuadratureOracle:
    def test_trivial_values(self):
        assert bessel_j_quadrature_oracle(0, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert bessel_j_quadrature_oracle(1, 0.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("key,expected", sorted(ORACLE_FROZEN.items()))
    def test_frozen_values_are_stable(self, key, expected):
        n, y = key
        assert bessel_j_quadrature_oracle(n, y) == pytest.approx(expected, abs=1e-13)

    def test_domain_limits(self):
        with pytest.raises(ValueError):
            bessel_j_quadrature_oracle(201, 1.0)
        with pytest.raises(ValueError):
            bessel_j_quadrature_oracle(0, 101.0)


class TestBesselJInt:
    def test_zero_argument(self):
        assert bessel_j_int(0, 0.0) == 1.0
        assert bessel_j_int(3, 0.0) == 0.0

    def test_matches_frozen_oracle(self):
        for (n, y), expected in ORACLE_FROZEN.items():
            assert bessel_j_int(n, y) == pytest.approx(expected, abs=1e-13)

    def test_negative_order_parity_exact(self):
        assert bessel_j_int(-2, 1.5) == bessel_j_int(2, 1.5)
        assert bessel_j_int(-3, 1.5) == -bessel_j_int(3, 1.5)

    @given(
        n=st.integers(min_value=-40, max_value=40),
        y=st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_parity_properties(self, n, y):
        base = bessel_j_int(n, y)
        assert bessel_j_int(-n, y) == (-1.0) ** (n % 2) * base
        assert bessel_j_int(n, -y) == (-1.0) ** (n % 2) * base

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bessel_j_int(1, float("nan"))
        with pytest.raises(ValueError):
            bessel_j_int(1, float("inf"))
        with pytest.raises(ValueError):
            bessel_j_int(1, 2e6)

    def test_oracle_equivalence_grid(self):
        for y in Y_GRID:
            for n in range(-30, 31):
                if abs(y) > 100:
                    continue
                assert bessel_j_int(n, y) == pytest.approx(
                    bessel_j_quadrature_oracle(n, y), abs=1e-11
                )

    def test_deep_tail_relative_accuracy(self):
        # far below the turning point the values are tiny but must keep
        # relative accuracy down to ~1e-250
        for n, y in ((100, 1.0), (120, 2.0), (200, 10.0)):
            ref = float(mp.besselj(n, y))
            mine = bessel_j_int(n, y)
            if abs(ref) >= 1e-250:
                assert abs(mine - ref) <= 1e-12 * abs(ref)
            else:
                assert abs(mine - ref) <= 1e-260


class TestBesselRow:
    def test_zero_argument_row(self):
        for y in (0.0, -0.0):
            row = bessel_j_row(4, y)
            assert list(row.values) == [1.0, 0.0, 0.0, 0.0, 0.0]
            assert not np.signbit(row.values).any()

    def test_elementwise_match(self):
        for y in Y_GRID:
            row = bessel_j_row(truncation_bound(y, 1e-15), y)
            for n in range(row.order_max + 1):
                single = bessel_j_int(n, y)
                if abs(single) > 1e-300:
                    assert abs(row[n] - single) <= 1e-13 * abs(single)

    def test_even_sum_normalization(self):
        for y in Y_GRID:
            row = bessel_j_row(truncation_bound(y, 1e-15), y)
            total = row.values[0] + 2.0 * row.values[2::2].sum()
            assert total == pytest.approx(1.0, abs=1e-13)

    def test_three_term_recursion_invariant(self):
        for y in Y_GRID:
            n_max = truncation_bound(y, 1e-15)
            row = bessel_j_row(n_max + 1, y)
            for n in range(1, n_max):
                if abs(row[n]) < 1e-300:
                    continue
                resid = abs(2.0 * n * row[n] - y * (row[n + 1] + row[n - 1]))
                scale = max(1.0, abs(y * row[n + 1]), abs(y * row[n - 1]))
                assert resid <= 1e-12 * scale

    def test_squared_normalization(self):
        for y in Y_GRID:
            n_max = truncation_bound(y, 1e-15)
            row = bessel_j_row(n_max, y)
            total = row.values[0] ** 2 + 2.0 * np.sum(row.values[1:] ** 2)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_negative_order_max_rejected(self):
        with pytest.raises(ValueError):
            bessel_j_row(-1, 1.0)


class TestTruncationBound:
    def test_zero_argument(self):
        assert truncation_bound(0.0, 1e-15) >= 1

    def test_scan_confirms_bound(self):
        for y in Y_GRID:
            for tol in (1e-8, 1e-15):
                n0 = truncation_bound(y, tol)
                for n in range(n0, n0 + 30):
                    assert abs(bessel_j_int(n, y)) < tol

    @given(
        y=st.floats(min_value=0.0, max_value=2e3),
        digits=st.floats(min_value=14.0, max_value=18.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_bound_holds_against_mpmath(self, y, digits):
        tol = 10.0 ** -digits
        n0 = truncation_bound(y, tol)
        # n0 > y + 10 lies past the turning point, where |J_n(y)| falls as n
        # grows.  mpmath's series cancels there by about 0.23 y digits, so
        # its working precision must be allowed to grow that far (maxprec is
        # in bits); its cost grows like y^2: 0.02 s at y = 2e3, 73 s at 1e5.
        with mp.workdps(20):
            for n in (n0, n0 + 1):
                assert abs(mp.besselj(n, y, maxprec=100_000)) < tol, (n, y, tol)

    @given(
        y=st.floats(min_value=0.0, max_value=1e5),
        digits=st.floats(min_value=14.0, max_value=18.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_bound_holds_by_kapteyn_inequality(self, y, digits):
        # Kapteyn: |J_n(n x)| <= (x e^r / (1 + r))^n, r = sqrt(1 - x^2), for
        # 0 <= x <= 1; the right side falls as n grows at fixed y, so the
        # bound at n0 covers every order past it
        tol = 10.0 ** -digits
        n0 = truncation_bound(y, tol)
        with mp.workdps(30):
            x = mp.mpf(y) / n0
            r = mp.sqrt(1 - x * x)
            assert (x * mp.exp(r) / (1 + r)) ** n0 < tol, (n0, y, tol)

    def test_heuristic_floor_at_m_two(self):
        # coarse physics estimate: ~2M sidebands matter at loose tolerance
        assert truncation_bound(2.0, 1e-15) >= 4

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            truncation_bound(-1.0, 1e-15)
        with pytest.raises(ValueError):
            truncation_bound(1.0, 2.0)


# Frozen 30-digit mpmath references.
LN_GAMMA_FROZEN = [
    (0.5 + 1.0j, -0.6527906442043729 - 0.9550077243425691j),
    (-2.3 + 0.7j, -1.2664294851930893 - 8.076782366712056j),
]


class TestLnGammaComplex:
    def test_gamma_one_is_one(self):
        assert abs(ln_gamma_complex(1.0 + 0.0j)) < 1e-14

    def test_gamma_five_is_24(self):
        assert ln_gamma_complex(5.0 + 0.0j).real == pytest.approx(math.log(24.0), rel=1e-14)
        assert abs(ln_gamma_complex(5.0 + 0.0j).imag) < 1e-14

    def test_reflection_identity(self):
        for z in (0.5 + 1.0j, -0.3 + 2.0j, 0.1 - 0.4j, -1.7 - 0.2j):
            lhs = cmath.exp(ln_gamma_complex(z)) * cmath.exp(ln_gamma_complex(1.0 - z))
            rhs = cmath.pi / cmath.sin(cmath.pi * z)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    @pytest.mark.parametrize("z,expected", LN_GAMMA_FROZEN)
    def test_frozen_references(self, z, expected):
        got = ln_gamma_complex(z)
        assert abs(cmath.exp(got) - cmath.exp(expected)) <= 1e-12 * abs(cmath.exp(expected))

    def test_exp_recovers_gamma_on_grid(self):
        for re in (-3.2, -0.7, 0.3, 1.5, 4.0, 9.5):
            for im in (-8.0, -1.0, 0.5, 3.0):
                z = complex(re, im)
                ref = complex(mp.gamma(mp.mpc(re, im)))
                assert abs(cmath.exp(ln_gamma_complex(z)) - ref) <= 1e-12 * abs(ref)

    @given(
        re=st.floats(-60.0, 0.5),
        im=st.floats(20.0, 3000.0),
        sign=st.sampled_from((-1.0, 1.0)),
    )
    @settings(max_examples=100, deadline=None)
    def test_left_half_plane_far_from_the_real_axis(self, re, im, sign):
        # the reflection branch, where sin(pi z) overflows past |Im z| ~ 226
        z = complex(re, sign * im)
        ref = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
        diff = ln_gamma_complex(z) - ref
        turns = round(diff.imag / (2 * math.pi))
        assert abs(diff - 2j * math.pi * turns) <= 1e-14 * abs(ref)

    def test_pole_raises(self):
        for z in (0.0, -1.0, -5.0):
            with pytest.raises(ValueError):
                ln_gamma_complex(z)


# Frozen 30-digit mpmath series references.
COMPLEX_ORDER_FROZEN = [
    (1.0 - 0.8j, 2.0, 0.7688498371145098 + 0.12594007933668j),
    (2.5j, 1.5, 5.73527620331331 - 10.457921690212318j),
    (-0.5 + 1.25j, 0.75, 4.394835431825835 - 0.8583955349764794j),
]


class TestBesselJComplexOrder:
    def test_zero_order_zero_argument(self):
        assert bessel_j_complex_order(0.0 + 0.0j, 0.0) == 1.0 + 0.0j

    def test_integer_order_reduction(self):
        for n, z in ((2, 1.7), (0, 3.2), (-3, 0.9)):
            got = bessel_j_complex_order(complex(n), z)
            want = bessel_j_int(n, z)
            assert got.imag == 0.0
            assert got.real == pytest.approx(want, rel=1e-11, abs=1e-300)

    @pytest.mark.parametrize("nu,z,expected", COMPLEX_ORDER_FROZEN)
    def test_frozen_references(self, nu, z, expected):
        got = bessel_j_complex_order(nu, z)
        assert abs(got - expected) <= 1e-11 * abs(expected)

    def test_positive_real_order_at_zero(self):
        assert bessel_j_complex_order(1.5 + 0.5j, 0.0) == 0.0 + 0.0j

    def test_singular_at_zero_for_nonpositive_real_part(self):
        with pytest.raises(ValueError):
            bessel_j_complex_order(-0.5 + 0.5j, 0.0)

    def test_domain_limits(self):
        with pytest.raises(ValueError):
            bessel_j_complex_order(1.0 + 0.5j, -1.0)
        # no bound on |Im nu|: 60 was once refused
        want = complex(mp.besselj(mp.mpc(1.0, 60.0), 1.0))
        assert abs(bessel_j_complex_order(1.0 + 60.0j, 1.0) - want) <= 1e-12 * abs(want)

    @given(
        re=st.floats(min_value=-3.0, max_value=10.0),
        im=st.floats(min_value=-400.0, max_value=400.0),
        z=st.floats(min_value=0.0, max_value=1000.0, exclude_min=True),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_mpmath_or_refuses(self, re, im, z):
        # a value is within the chain's 1e-8 bound or refused: the Neumann sum
        # cancels at large z and |Im nu|, and the recursion below the base order
        # next to a negative integer nu
        nu = complex(re, im)
        try:
            got = bessel_j_complex_order(nu, z)
        except (ConvergenceError, OverflowError):
            return
        want = complex(mp.besselj(mp.mpc(nu), z))
        # below 1e-300 doubles lose relative precision to gradual underflow
        assert abs(got - want) <= 1e-8 * abs(want) + 1e-300, (nu, z, got, want)

    @pytest.mark.parametrize("z", [1e-9, 1e-6])
    def test_recursion_next_to_a_negative_integer_is_refused(self, z):
        # J_{-2+i 1e-30}(z) ~ z^2/8 comes from 2 J_1 / z - J_0 ~ 1 - 1, which
        # once returned -156 at z = 1e-9 and was 9e-5 off at z = 1e-6
        with pytest.raises(ConvergenceError, match=r"nu = \(-2\+1e-30j\).* > 1e-08"):
            bessel_j_complex_order(-2 + 1e-30j, z)

    @pytest.mark.parametrize(
        "nu",
        [0.5j, 1 - 0.5j, 3 - 5j, 10 - 10j, -0.5 + 1.25j, -2.5 + 0.1j, -2.7 - 10j, 2.25],
    )
    def test_matches_mpmath_across_arguments(self, nu):
        # the tiny-argument series, the chain, and large z where an
        # ascending power series cancels catastrophically; a base order of
        # negative real part would cancel in the Neumann sum at -2.7 - 10j
        for z in (1e-9, 1e-3, 0.75, 20.0, 40.0, 80.0, 300.0, 1000.0):
            want = complex(mp.besselj(mp.mpc(nu), z))
            got = bessel_j_complex_order(nu, z)
            assert abs(got - want) <= 1e-10 * abs(want), (nu, z)

    def test_cancelling_normalization_is_refused(self):
        # the chain's Neumann sum cancels here; unchecked it is off by 6e-3
        with pytest.raises(ConvergenceError, match=r"J_nu\(300\.0\), nu = \(2-40j\)"):
            bessel_j_complex_order(2 - 40j, 300.0)

    def test_value_beyond_double_range_is_refused(self):
        # |J_{-150.5+i}(0.5)| is about 7e352
        with pytest.raises(OverflowError, match=r"nu = \(-150\.5\+1j\)"):
            bessel_j_complex_order(-150.5 + 1j, 0.5)
