"""Oscillator-absorption tests: the A_s oracle chain, lineshapes, ODE oracle."""

import cmath
import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from besselrules import modulation_spectroscopy
from besselrules.bessel_core import ConvergenceError, OracleError, bessel_j_int
from besselrules.coefficients import build_coeff_table
from besselrules.modulation_spectroscopy import (
    OscillatorParams,
    HarmonicDecomposition,
    PerturbativeDomainWarning,
    RegimeError,
    a_s_direct,
    a_s_eta_coefficients,
    a_s_geometric,
    a_s_newberger,
    a_s_series,
    exact_truncation_order,
    modulated_power_exact,
    modulated_power_exact_sweep,
    modulated_power_perturbative,
    modulated_power_perturbative_sweep,
    perturbative_validity,
    time_domain_oracle,
    time_domain_oracle_sweep,
)
from besselrules.sum_rules import GeneralModulation, auto_sideband_order, jbar

# Direct-sum anchors; a_s_direct is itself the oracle for the closed forms.
DIRECT_FROZEN = {
    (1, 1.0, 1.0, 0.1): -0.004879904339892549 - 0.049150652609739484j,
    (0, 2.0, 0.5, 0.3): 1.2989976356234272 + 0.0j,
}


def newberger_mpmath(s: int, M: float, gamma: float, Omega: float) -> complex:
    """A_s from Newberger's closed form in mpmath's complex-order besselj.

    The form holds for s >= 0 at either sign of M; A_{-s} = (-1)^s conj(A_s).
    """
    a = mp.mpf(gamma) / Omega
    x = mp.pi * a
    want = complex(
        (-1) ** (abs(s) % 2) / gamma * (x / mp.sinh(x))
        * mp.besselj(mp.mpc(abs(s), -a), M) * mp.besselj(mp.mpc(0, a), M)
    )
    return (-1) ** (s % 2) * want.conjugate() if s < 0 else want


def params(**overrides) -> OscillatorParams:
    base = dict(omega0=1e6, gamma=1.0, force=1.0, delta=0.0, Omega=0.03, M=0.5)
    base.update(overrides)
    return OscillatorParams(**base)


def epsilon(p: OscillatorParams) -> float:
    """The geometric-expansion parameter |2 (Omega/gamma) / (1 + i Delta)|."""
    return abs(2.0 * p.eta / complex(1.0, p.Delta))


def sideband_harmonics(
    p: OscillatorParams, g: dict[int, float], n_max: int, s_max: int
) -> HarmonicDecomposition:
    """Power harmonics of a drive with real sideband amplitudes g_n.

    X_s = sum over |n| <= n_max of g_n g_{n-s} times the response at
    carrier + n Omega, one detuning and one sum per s at a time.
    """
    n = np.arange(-n_max, n_max + 1)
    omega_n = p.carrier + n * p.Omega
    # omega0^2 - omega_n^2 = -d_n (omega0 + omega_n), d_n = delta + n Omega
    detuned = p.delta + n * p.Omega
    response = omega_n / (1j * p.gamma * omega_n - detuned * (p.omega0 + omega_n))
    g_n = np.array([g[k] for k in n])
    x = {
        s: complex(np.sum(g_n * np.array([g[k - s] for k in n]) * response))
        for s in range(-s_max, s_max + 1)
    }
    scale = -0.5 * p.force * p.force
    return HarmonicDecomposition(
        scale * x[0].imag,
        tuple(scale * (x[h].imag + x[-h].imag) for h in range(1, s_max + 1)),
        tuple(scale * (x[h].real - x[-h].real) for h in range(1, s_max + 1)),
    )


class TestOscillatorParams:
    def test_derived_quantities(self):
        p = params(delta=0.5, Omega=0.03)
        assert p.Delta == 1.0
        assert p.eta == pytest.approx(0.03)
        assert epsilon(p) == pytest.approx(2.0 * 0.03 / math.sqrt(2.0))
        assert p.carrier == pytest.approx(1e6 + 0.5)

    def test_validity_flag(self):
        assert params(M=0.5, Omega=0.03).perturbative_valid
        assert not params(M=2.0, Omega=0.2).perturbative_valid
        assert perturbative_validity(2.0, 1.0, 0.1)  # 2*4*0.1 = 0.8 < 1

    def test_validation(self):
        with pytest.raises(ValueError):
            params(gamma=0.0)
        with pytest.raises(ValueError):
            params(M=-1.0)
        with pytest.raises(ValueError):
            params(Omega=-0.1)


def average_power_unmodulated(p: OscillatorParams, detuning: float) -> float:
    """Cycle-averaged absorbed power of an unmodulated drive at omega0 + detuning.

    f^2 omega^2 gamma / (2 ((omega^2 - omega0^2)^2 + (omega gamma)^2)): the
    reference that the exact sideband lineshape must reduce to at M = 0.
    omega^2 - omega0^2 is taken as detuning (omega + omega0), which does
    not cancel.
    """
    omega = p.omega0 + detuning
    num = 0.5 * p.force**2 * omega**2 * p.gamma
    den = (detuning * (omega + p.omega0)) ** 2 + (omega * p.gamma) ** 2
    return num / den if den else 0.0


class TestUnmodulatedPower:
    def test_resonance_value(self):
        p = params()
        assert average_power_unmodulated(p, 0.0) == pytest.approx(
            0.5 * p.force**2 / p.gamma
        )

    def test_zero_frequency(self):
        assert average_power_unmodulated(params(), -1e6) == 0.0

    def test_lorentzian_limit(self):
        # near resonance the power approaches the Lorentzian plus an
        # odd-in-Delta correction suppressed by 1/omega0
        p = params(omega0=1e6)
        for delta in (-2.0, -0.5, 0.7, 3.0):
            d = 2.0 * delta / p.gamma
            got = average_power_unmodulated(p, delta)
            lorentz = 0.5 * p.force**2 / p.gamma / (1.0 + d * d)
            correction = (
                0.25 * p.force**2 * d**3 / (1.0 + d * d) ** 2 / p.omega0
            )
            assert abs(got - lorentz - correction) < 100.0 / p.omega0**2


class TestDirectSum:
    def test_unmodulated_collapses_to_lorentzian_pole(self):
        assert a_s_direct(0, 0.0, 2.0, 0.5) == pytest.approx(0.5)
        assert a_s_direct(1, 0.0, 2.0, 0.5) == 0.0

    @pytest.mark.parametrize("key,expected", sorted(DIRECT_FROZEN.items()))
    def test_frozen_anchors(self, key, expected):
        s, M, gamma, Omega = key
        assert a_s_direct(s, M, gamma, Omega) == pytest.approx(expected, abs=1e-14)

    def test_negative_order_symmetry(self):
        for s in (1, 2, 3):
            for M, Omega in ((0.8, 0.4), (1.5, 1.0), (2.0, 0.2)):
                plus = a_s_direct(s, M, 1.0, Omega)
                minus = a_s_direct(-s, M, 1.0, Omega)
                assert abs(minus - (-1.0) ** s * plus.conjugate()) < 1e-12


class TestClosedForms:
    def test_newberger_unmodulated_limit(self):
        assert a_s_newberger(0, 0.0, 2.0, 0.5) == 0.5 + 0.0j
        assert a_s_newberger(3, 0.0, 2.0, 0.5) == 0.0 + 0.0j

    def test_newberger_against_direct_examples(self):
        cases = ((1, 1.0, 1.0, 0.1), (0, 2.0, 0.5, 0.3), (1, -0.5, 1.0, 0.1))
        for s, M, gamma, Omega in cases:
            direct = a_s_direct(s, M, gamma, Omega)
            closed = a_s_newberger(s, M, gamma, Omega)
            assert abs(closed - direct) <= 1e-8 * abs(direct)

    def test_closed_forms_reflect_negative_order(self):
        for s in (1, 2, 3):
            for M, gamma, Omega in ((1.0, 1.0, 0.4), (2.0, 0.5, 0.3)):
                direct = a_s_direct(-s, M, gamma, Omega)
                assert abs(a_s_newberger(-s, M, gamma, Omega) - direct) < 1e-10
                assert abs(a_s_series(-s, M, gamma, Omega) - direct) < 1e-10

    @given(
        s=st.integers(min_value=-3, max_value=3),
        M=st.floats(min_value=-50.0, max_value=50.0),
        ratio=st.floats(min_value=0.1, max_value=50.0),
    )
    @settings(max_examples=40, deadline=None)
    # here the Gamma/sinh prefactor times the tiny J_{s-ia}(M) would fall
    # into subnormals; the one-chain form forms neither
    @example(s=1, M=1.5078337715247707e-292, ratio=37.0)
    def test_newberger_matches_mpmath_closed_form(self, s, M, ratio):
        # No refusal is allowed: the kernel's estimated error stays < 1e-11.
        assume(M != 0.0)
        want = newberger_mpmath(s, M, 1.0, 1.0 / ratio)
        got = a_s_newberger(s, M, 1.0, 1.0 / ratio)
        # below 1e-300 doubles lose relative precision to gradual underflow
        assert abs(got - want) <= 1e-8 * abs(want) + 1e-300

    @given(
        s=st.integers(min_value=-3, max_value=3),
        M=st.floats(min_value=-50.0, max_value=50.0),
        ratio=st.floats(min_value=0.1, max_value=100.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_series_matches_mpmath_or_refuses(self, s, M, ratio):
        # the alternating series loses digits to cancellation as M grows;
        # what it returns must still hold to 1e-8, and the rest is refused
        assume(M != 0.0)
        try:
            got = a_s_series(s, M, 1.0, 1.0 / ratio)
        except ConvergenceError:
            return
        want = newberger_mpmath(s, M, 1.0, 1.0 / ratio)
        assert abs(got - want) <= 1e-8 * abs(want) + 1e-300

    @given(
        s=st.integers(min_value=-3, max_value=3),
        M=st.floats(min_value=-50.0, max_value=50.0),
        ratio=st.floats(min_value=0.1, max_value=100.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_direct_matches_mpmath_or_refuses(self, s, M, ratio):
        assume(M != 0.0)
        try:
            got = a_s_direct(s, M, 1.0, 1.0 / ratio)
        except ConvergenceError:
            return
        want = newberger_mpmath(s, M, 1.0, 1.0 / ratio)
        assert abs(got - want) <= 1e-8 * abs(want) + 1e-300

    @given(
        s=st.integers(min_value=-3, max_value=3),
        M=st.floats(min_value=-50.0, max_value=50.0),
        log_ratio=st.floats(min_value=-1.0, max_value=6.0),
    )
    @settings(max_examples=60, deadline=None)
    # the a-sum case that returned a value off by 5.8e-5
    @example(s=3, M=1.0, log_ratio=4.0)
    # one 2^-52 per term estimated 9.7e-9 here, and the value was off by 2.0e-8
    @example(s=2, M=-42.163616330111495, log_ratio=5.192806004)
    def test_direct_up_to_ratio_1e6_matches_mpmath_or_refuses(self, s, M, log_ratio):
        # the terms are of order 1/gamma and A_s of order (Omega/gamma)^|s|/gamma,
        # so past gamma/Omega ~ 1e2 most sums with s != 0 are refused
        assume(M != 0.0)
        ratio = 10.0**log_ratio
        try:
            got = a_s_direct(s, M, 1.0, 1.0 / ratio)
        except ConvergenceError as exc:
            assert f"s = {s}, M = {M}, gamma/Omega = {ratio:g}" in str(exc)
            assert str(exc).endswith("> 1e-08")
            return
        with mp.workdps(40):
            want = newberger_mpmath(s, M, 1.0, 1.0 / ratio)
        assert abs(got - want) <= 1e-8 * abs(want) + 1e-300

    @given(
        s=st.integers(min_value=-3, max_value=3),
        M=st.floats(min_value=-50.0, max_value=50.0),
        ratio=st.floats(min_value=50.0, max_value=222.0, exclude_min=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_newberger_past_ratio_50_matches_mpmath_or_refuses(self, s, M, ratio):
        # past gamma/Omega = 50 a value is within 1e-8, or refused with
        # ConvergenceError by the chain's error estimate
        assume(M != 0.0)
        try:
            got = a_s_newberger(s, M, 1.0, 1.0 / ratio)
        except ConvergenceError:
            return
        want = newberger_mpmath(s, M, 1.0, 1.0 / ratio)
        assert abs(got - want) <= 1e-8 * abs(want) + 1e-300

    @given(
        s=st.integers(min_value=-3, max_value=3),
        M=st.floats(min_value=-50.0, max_value=50.0),
        ratio=st.floats(min_value=222.8, max_value=1e4, exclude_min=True),
    )
    @settings(max_examples=40, deadline=None)
    @example(s=0, M=1.0, ratio=300.0)
    def test_newberger_past_ratio_222_matches_mpmath(self, s, M, ratio):
        # pi gamma/Omega > 700 puts sinh at or past the double range, but the
        # Gamma factors and the sinh cancel, so the one-chain form never forms it
        assume(M != 0.0)
        # 15 digits leave about 1e-12 of cancellation in the reference here
        with mp.workdps(40):
            want = newberger_mpmath(s, M, 1.0, 1.0 / ratio)
        got = a_s_newberger(s, M, 1.0, 1.0 / ratio)
        assert abs(got - want) <= 1e-12 * abs(want) + 1e-300

    def test_series_trivial(self):
        assert a_s_series(0, 0.0, 2.0, 0.5) == pytest.approx(0.5)

    def test_series_leading_term(self):
        # as M -> 0 the k = 0 term dominates: -(M/2 gamma) / (1 - i gamma/Omega)
        M, gamma, Omega = 1e-3, 1.0, 0.4
        want = -(0.5 * M / gamma) / (1.0 - 1j * gamma / Omega)
        assert a_s_series(1, M, gamma, Omega) == pytest.approx(want, rel=1e-6)

    def test_series_matches_newberger(self):
        got = a_s_series(1, 1.0, 1.0, 0.1)
        want = a_s_newberger(1, 1.0, 1.0, 0.1)
        assert abs(got - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize(
        "path, args, message",
        [
            (a_s_direct, (3, 1, 1, 1e-4), "A_s direct sum at s = 3, M = 1, gamma/Omega = "
             "10000: the terms cancel to an estimated relative error 1.9e-02 > 1e-08"),
            (a_s_series, (1, 60, 1, 1), "A_s series at s = 1, M = 60, gamma/Omega = 1: "
             "the terms cancel to an estimated relative error 1.4e+01 > 1e-08"),
            # the chain's estimate is NaN here
            (a_s_newberger, (1, 100, 1e12, 1), "A_s closed form at s = 1, M = 100, "
             "gamma/Omega = 1e+12: the Miller chain leaves an estimated relative "
             "error nan > 1e-08"),
        ],
        ids=["direct", "series", "closed-form"],
    )
    def test_lost_digits_are_refused_word_for_word(self, path, args, message):
        with pytest.raises(ConvergenceError) as refused:
            path(*args)
        assert str(refused.value) == message

    def test_oracle_chain_grid(self):
        for M in (0.5, 1.0, 2.0):
            for g_over_o in (0.5, 1.0, 3.0, 10.0):
                Omega = 1.0 / g_over_o
                for s in (0, 1, 2, 3):
                    direct = a_s_direct(s, M, 1.0, Omega)
                    scale = abs(direct)
                    assert abs(a_s_newberger(s, M, 1.0, Omega) - direct) <= 1e-8 * scale
                    assert abs(a_s_series(s, M, 1.0, Omega) - direct) <= 1e-8 * scale


class TestGeometricExpansion:
    def test_order3_closed_form(self):
        M, gamma, Omega = 0.5, 1.0, 0.02
        eta = Omega / gamma
        want = (
            -0.5 * M * 1j * eta
            - 0.5 * M * eta**2
            + 0.5 * M * (1.0 + 0.75 * M * M) * 1j * eta**3
        ) / gamma
        assert a_s_geometric(1, M, gamma, Omega, 3) == pytest.approx(want, rel=1e-14)

    def test_unmodulated(self):
        assert a_s_geometric(0, 0.0, 2.0, 0.1, 5) == pytest.approx(0.5)
        assert a_s_geometric(2, 0.0, 2.0, 0.1, 5) == 0.0

    @pytest.mark.parametrize("s, M, order", [(0, 1e5, 64), (0, 1e100, 4), (1, -1e200, 4)])
    def test_coefficient_past_double_range_is_refused(self, s, M, order):
        message = f"the eta coefficients to order {order} at s = {s}, M = {M!r} leave double range"
        with pytest.raises(RegimeError) as err:
            a_s_eta_coefficients(s, M, order)
        assert str(err.value) == message
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PerturbativeDomainWarning)
            with pytest.raises(RegimeError) as err:
                a_s_geometric(s, M, 1.0, 0.01, order)
        assert str(err.value) == message

    def test_sum_past_double_range_is_refused(self):
        # eta**2 = 1e400 overflows a double, as a Python power raises
        with pytest.warns(PerturbativeDomainWarning), pytest.raises(RegimeError) as err:
            a_s_geometric(0, 0.5, 1.0, 1e200, 2)
        assert str(err.value) == (
            "the geometric expansion to order 2 at s = 0, M = 0.5, Omega/gamma = 1e+200 "
            "leaves double range"
        )

    def test_large_but_finite_coefficients_are_kept(self):
        coeffs = a_s_eta_coefficients(0, 1e5, 40)
        assert all(map(cmath.isfinite, coeffs)) and abs(coeffs[40]) > 1e190

    @pytest.mark.parametrize("M", [math.nan, math.inf, -math.inf])
    def test_eta_coefficients_refuse_non_finite_m(self, M):
        with pytest.raises(ValueError, match="M must be finite"):
            a_s_eta_coefficients(1, M, 3)

    @pytest.mark.parametrize(
        "order, message", [(-1, r"lie in \[0, 64\], got -1"), (65, r"lie in \[0, 64\], got 65")]
    )
    def test_order_outside_the_table_is_named(self, order, message):
        with pytest.raises(ValueError, match="order must " + message):
            a_s_eta_coefficients(1, 1.0, order)
        with pytest.raises(ValueError, match="order must " + message):
            a_s_geometric(1, 1.0, 1.0, 0.1, order)
        a_s_eta_coefficients(1, 1.0, 64)

    def test_eta_coefficients_exact(self):
        for M in (0.5, 1.0):
            c0, c1, c2, c3 = a_s_eta_coefficients(1, M, 3)
            assert c0 == 0.0
            assert c1 == complex(0.0, -0.5 * M)
            assert c2 == complex(-0.5 * M, 0.0)
            assert c3 == complex(0.0, 0.5 * M * (1.0 + 0.75 * M * M))

    @pytest.mark.parametrize("M", [0.5, 1.0, 2.0, 1.3, -3.7, 30.0])
    def test_eta_coefficients_within_k_eps_of_the_exact_sums(self, M):
        # B[k, s](M) against the exact Fraction sum over the table's terms:
        # within k eps of the sum of |terms| at every order up to 64, and
        # exact at s = 0 below the first rounded order of a dyadic M
        first_rounded = {0.5: 20, 1.0: 24, 2.0: 28}
        rows = build_coeff_table(64).rows
        u = Fraction(M) / 2
        for s in range(-3, 4):
            got = a_s_eta_coefficients(s, M, 64)
            for k in range(65):
                value = (got[k] * 1j ** (k % 4)).real
                if abs(s) > k:
                    assert got[k] == 0.0
                    continue
                sign = -1 if s < 0 and (k + s) % 2 else 1
                terms = [sign * c * u ** (abs(s) + 2 * i) for i, c in enumerate(rows[k][abs(s)])]
                error = abs(Fraction(value) - sum(terms))
                assert error <= max(k, 1) * Fraction(2.0**-52) * sum(map(abs, terms)), (s, k)
                if s == 0 and k <= first_rounded.get(M, -1):
                    assert (error == 0) == (k < first_rounded[M]), k

    def test_remainder_scales_as_eta_fourth(self):
        M, gamma = 1.0, 1.0
        etas = np.geomspace(0.005, 0.05, 8)
        errs = [
            abs(a_s_geometric(1, M, gamma, eta, 3) - a_s_direct(1, M, gamma, eta))
            for eta in etas
        ]
        slope = np.polyfit(np.log(etas), np.log(errs), 1)[0]
        assert abs(slope - 4.0) <= 0.2

    def test_warns_outside_validity(self):
        with pytest.warns(PerturbativeDomainWarning):
            a_s_geometric(1, 2.0, 1.0, 0.5, 3)

    @given(
        s=st.integers(-4, 4),
        M=st.floats(0.0, 5.0),
        gamma=st.floats(0.2, 5.0),
        share=st.floats(0.0, 1.0),
        order=st.integers(0, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_error_within_its_truncation_bound(self, s, M, gamma, share, order):
        # 1/(1 + i n eta) = sum_{k <= K} (-i n eta)^k + (-i n eta)^{K+1}/(1 + i n eta),
        # so the error of order K is (1/gamma) sum_n J_n J_{n-s}
        # (-i n eta)^{K+1} / (1 + i n eta), at most the absolute sum below
        n_max = max(1, math.ceil(2.0 * M))
        eta = 1e-4 + share * (min(0.5, 0.999 / (2 * n_max)) - 1e-4)
        Omega = eta * gamma
        assume(perturbative_validity(M, gamma, Omega))
        got = a_s_geometric(s, M, gamma, Omega, order)
        eta = Omega / gamma
        with mp.workdps(40):
            j = {n: mp.besselj(n, M) for n in range(-74, 75)}
            ref = mp.mpc(0)
            tail = mp.mpf(0)
            for n in range(-70, 71):
                product = j[n] * j[n - s]
                # mpc(gamma, n Omega) in mpmath: a Python complex would round
                # each term by 1e-16, far more than some of these bounds
                n_omega = n * mp.mpf(Omega)
                ref += product / mp.mpc(gamma, n_omega)
                tail += abs(product) * abs(n_omega / gamma) ** (order + 1)
            size = sum(
                abs(c) * eta**k for k, c in enumerate(a_s_eta_coefficients(s, M, order))
            )
            # the float sum rounds relative to its size until its terms reach
            # the subnormal range, where each rounding costs up to 2^-1075,
            # and so does the division by gamma
            tiny = mp.mpf(2) ** -1074
            rounding = 8 * 2.0**-52 * size + (order + 1) ** 2 * tiny
            bound = tail / gamma * (1 + mp.mpf("1e-9")) + rounding / gamma + tiny
            assert abs(mp.mpc(got) - ref) <= bound


class TestModulatedPowerExact:
    def test_unmodulated_reduces_to_lorentzian(self):
        p = params(M=0.0, delta=0.9)
        dec = modulated_power_exact(p, 3)
        want = average_power_unmodulated(p, p.delta)
        assert dec.dc == pytest.approx(want, rel=1e-12)
        assert all(abs(a) < 1e-15 for a in dec.cos_amps + dec.sin_amps)

    def test_first_harmonic_near_perturbative(self):
        # absolute agreement on the f^2/(2 gamma) scale at third order in
        # the expansion parameter
        for delta_norm in (-3.0, -1.0, 0.5, 2.0):
            p = params(delta=0.5 * delta_norm, Omega=0.02, M=0.5)
            ex = modulated_power_exact(p, 2)
            pe = modulated_power_perturbative(p)
            scale = 0.5 * p.force**2 / p.gamma
            band = 5.0 * epsilon(p)**3 * scale
            assert abs(ex.cos_amps[0] - pe.cos_amps[0]) < band
            assert abs(ex.sin_amps[0] - pe.sin_amps[0]) < band
            assert abs(ex.dc - pe.dc) < band

    def test_energy_positivity(self):
        for delta in (-2.0, 0.0, 1.5):
            dec = modulated_power_exact(params(delta=delta), 2)
            assert dec.dc >= 0.0

    def test_invalid_regime_raises(self):
        p = OscillatorParams(
            omega0=10.0, gamma=0.5, force=1.0, delta=0.0, Omega=2.0, M=5.0
        )
        with pytest.raises(RegimeError):
            modulated_power_exact(p, 2)

    def test_sweep_matches_pointwise(self):
        base = params(M=37.5, Omega=0.3)
        deltas = 0.5 * np.linspace(-6.0, 6.0, 1001)
        dc, cos_amps, sin_amps = modulated_power_exact_sweep(base, deltas, 3)
        n_max = exact_truncation_order(base.M, 3)
        bessel_j = {
            k: bessel_j_int(k, base.M) for k in range(-n_max - 3, n_max + 4)
        }
        assert dc.shape == (len(deltas),)
        assert cos_amps.shape == sin_amps.shape == (len(deltas), 3)
        for i, delta in enumerate(deltas):
            p = dataclasses.replace(base, delta=delta)
            loop = sideband_harmonics(p, bessel_j, n_max, 3)
            for ref in (modulated_power_exact(p, 3), loop):
                assert ref.n_harmonics == 3
                got = (dc[i], *cos_amps[i], *sin_amps[i])
                want = (ref.dc,) + ref.cos_amps + ref.sin_amps
                largest = max(abs(a - b) for a, b in zip(got, want))
                assert largest <= 1e-14 * abs(ref.dc)

    def test_sweep_regime_error_names_first_bad_detuning(self):
        base = OscillatorParams(
            omega0=200.0, gamma=0.5, force=1.0, delta=0.0, Omega=2.0, M=5.0
        )
        assert modulated_power_exact_sweep(base, [0.0], 2)[0][0] > 0.0
        with pytest.raises(RegimeError) as err:
            modulated_power_exact_sweep(base, [0.0, -100.0, -150.0], 2)
        n_max = exact_truncation_order(base.M, 2)
        assert f"reach {200.0 - 100.0 - n_max * 2.0:.3e} <= 0" in str(err.value)

    @pytest.mark.parametrize("omega0", [1e6, 1e9, 1e12])
    def test_matches_mpmath_far_above_the_linewidth(self, omega0):
        # omega0^2 - omega_n^2 as a difference of squares would lose
        # eps omega0 / |delta + n Omega|: 1.3e-9 of dc at 1e9, 3.5e-5 at 1e12
        p = params(omega0=omega0, M=1.0, Omega=0.1, delta=0.5)
        s_max = 2
        got = modulated_power_exact(p, s_max)
        n_max = exact_truncation_order(p.M, s_max)
        with mp.workdps(50):
            j = {n: mp.besselj(n, p.M) for n in range(-n_max - s_max, n_max + s_max + 1)}
            response = {}
            for n in range(-n_max, n_max + 1):
                omega_n = mp.mpf(p.omega0) + mp.mpf(p.delta) + n * mp.mpf(p.Omega)
                response[n] = omega_n / (
                    mp.mpf(p.omega0) ** 2 - omega_n**2 + 1j * p.gamma * omega_n
                )
            x = {s: mp.fsum(j[n] * j[n - s] * response[n] for n in response)
                 for s in range(-s_max, s_max + 1)}
            scale = -0.5 * p.force**2
            want = [scale * x[0].imag]
            want += [scale * (x[h].imag + x[-h].imag) for h in range(1, s_max + 1)]
            want += [scale * (x[h].real - x[-h].real) for h in range(1, s_max + 1)]
            want = [float(v) for v in want]
        for a, b in zip((got.dc,) + got.cos_amps + got.sin_amps, want, strict=True):
            assert abs(a - b) <= 1e-14 * abs(want[0])


    def test_sweep_refuses_non_finite_power(self):
        # force**2 leaves double range: dc = inf and the harmonics +-inf
        with pytest.raises(RegimeError, match=r"force = 1e\+200: .* gamma = 1.0"):
            modulated_power_exact_sweep(params(M=1.0, Omega=0.1, force=1e200), [0.0], 2)

    def test_products_matrix_past_the_point_cap_is_refused_before_evaluation(
        self, monkeypatch
    ):
        # M = 1 and 4 harmonics keep |n| <= 46: 93 x 9 = 837 products
        p = params(M=1.0, Omega=0.1)
        monkeypatch.setattr(modulation_spectroscopy, "_ORACLE_MAX_POINTS", 837)
        modulated_power_exact_sweep(p, [0.0], 4)

        def evaluated(*args):
            raise AssertionError("evaluated past the cap")

        monkeypatch.setattr(modulation_spectroscopy, "_j_symmetric", evaluated)
        monkeypatch.setattr(modulation_spectroscopy, "_ORACLE_MAX_POINTS", 836)
        with pytest.raises(RegimeError) as refused:
            modulated_power_exact_sweep(p, [0.0], 4)
        assert str(refused.value) == (
            "4 harmonics at M = 1.0 take a products matrix J_n J_(n-s) of 93 x 9 = 837 "
            "entries, past the cap of 836"
        )

    @pytest.mark.parametrize("s_max, per_block", [(0, 1), (2, 5), (2, 7)])
    def test_blocks_the_point_cap_shrinks_move_only_the_last_bits(
        self, monkeypatch, s_max, per_block
    ):
        p = params(M=3.0, Omega=0.1)
        deltas = np.linspace(-5.0, 5.0, 37)
        want = modulated_power_exact_sweep(p, deltas, s_max)
        n_max = exact_truncation_order(p.M, s_max)
        # the cap now holds per_block response rows, and still the products
        monkeypatch.setattr(modulation_spectroscopy, "_ORACLE_MAX_POINTS",
                            per_block * (2 * n_max + 1))
        got = modulated_power_exact_sweep(p, deltas, s_max)
        for a, b in zip(got, want, strict=True):
            assert a.shape == b.shape
            assert np.abs(a - b).max(initial=0.0) <= 1e-15 * p.force**2 / p.gamma

    def test_peak_memory_is_that_of_one_block(self, monkeypatch):
        # M = 2000 keeps |n| <= 2209: 64 detunings in one block peak at
        # about 14 MB, a block of three at about 1.3 MB
        p = params(omega0=1e4, M=2000.0, Omega=0.1)
        n_max = exact_truncation_order(p.M, 1)
        monkeypatch.setattr(modulation_spectroscopy, "_ORACLE_MAX_POINTS", 3 * (2 * n_max + 1))

        def peak(deltas):
            tracemalloc.start()
            try:
                modulated_power_exact_sweep(p, deltas, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        deltas = np.linspace(-5.0, 5.0, 64)
        assert peak(deltas) <= 1.5 * peak(deltas[:3])


class TestModulatedPowerPerturbative:
    def test_on_resonance_structure(self):
        p = params(delta=0.0, Omega=0.03, M=0.5)
        dec = modulated_power_perturbative(p)
        scale = 0.5 * p.force**2 / p.gamma
        kappa = 2.0 * p.M * p.Omega / p.gamma
        assert dec.cos_amps[0] == 0.0
        assert dec.sin_amps[0] == 0.0
        assert dec.cos_amps[1] == pytest.approx(-0.5 * kappa**2 * scale)
        assert dec.dc == pytest.approx(scale * (1.0 - 0.5 * kappa**2))

    def test_small_m_limit_is_lorentzian(self):
        p = params(M=1e-8, delta=1.0)
        dec = modulated_power_perturbative(p)
        scale = 0.5 * p.force**2 / p.gamma
        assert dec.dc == pytest.approx(scale / (1.0 + p.Delta**2), rel=1e-12)

    def test_first_harmonic_tracks_lorentzian_derivative(self):
        # exact-path h1 cosine follows the first Delta-derivative shape
        p0 = params(Omega=0.01, M=0.5)
        ratios = []
        for delta_norm in np.linspace(-5.0, 5.0, 21):
            if abs(delta_norm) < 0.3:
                continue
            p = params(Omega=0.01, M=0.5, delta=0.5 * delta_norm)
            ex = modulated_power_exact(p, 1)
            d = p.Delta
            shape = -2.0 * d / (1.0 + d * d) ** 2
            ratios.append(ex.cos_amps[0] / shape)
        ratios = np.array(ratios)
        assert np.all(np.abs(ratios / ratios.mean() - 1.0) < 1e-3)

    def test_dc_never_negative_in_validity_range(self):
        for delta_norm in np.linspace(-5.0, 5.0, 11):
            dec = modulated_power_perturbative(params(delta=0.5 * delta_norm))
            assert dec.dc >= 0.0

    def test_warns_outside_validity(self):
        with pytest.warns(PerturbativeDomainWarning):
            modulated_power_perturbative(params(M=2.0, Omega=0.3))

    def test_sweep_is_one_call_of_the_point_formula(self):
        # outside the validity bound, so that the sweep's one warning shows
        base = params(M=2.0, Omega=0.3, force=1.7, gamma=0.8)
        deltas = [-2.5, -0.0, 0.4, 3.0]
        with pytest.warns(PerturbativeDomainWarning) as caught:
            dc, cos_amps, sin_amps = modulated_power_perturbative_sweep(base, deltas)
        assert len(caught) == 1
        assert dc.shape == (4,) and cos_amps.shape == sin_amps.shape == (4, 2)
        for i, delta in enumerate(deltas):
            with pytest.warns(PerturbativeDomainWarning):
                dec = modulated_power_perturbative(dataclasses.replace(base, delta=delta))
            assert (dc[i], *cos_amps[i], *sin_amps[i]) == (
                dec.dc, *dec.cos_amps, *dec.sin_amps
            )
            # the second-harmonic sine is +0, whatever the sign of delta
            assert math.copysign(1.0, sin_amps[i, 1]) == 1.0
        empty = modulated_power_perturbative_sweep(params(), [])
        assert [a.shape for a in empty] == [(0,), (0, 2), (0, 2)]
        # a detuning that overflowed is refused, as by OscillatorParams
        with pytest.raises(ValueError, match="^delta must be finite, got -inf$"):
            modulated_power_perturbative_sweep(params(), [0.0, -math.inf])


    def test_sweep_refuses_non_finite_power(self):
        with pytest.raises(RegimeError, match=r"force = 1e\+200: .* gamma = 1.0"):
            modulated_power_perturbative_sweep(
                params(M=0.1, Omega=0.1, force=1e200), [0.0, 1.0]
            )

    @pytest.mark.parametrize(
        "M, Omega, delta",
        [(1e150, 1.0, 1e10), (1e-100, 1e150, 5e39)],
        ids=["second", "h1-sin"],
    )
    def test_second_order_overflow_names_M_and_the_detuning(self, M, Omega, delta):
        # 3 Delta**2 times kappa**2 / 2, or Delta**3 times 4 M (Omega/gamma)**2,
        # leaves double range while the force and (1 + Delta**2)**3 do not
        names = rf"M = {M!r}, Omega/gamma = {Omega!r} and delta = {delta!r} rad/s"
        with pytest.warns(PerturbativeDomainWarning), pytest.raises(
            RegimeError, match=names.replace("+", r"\+")
        ):
            modulated_power_perturbative_sweep(params(M=M, Omega=Omega), [delta])


# every path refuses a non-finite power; M = 0 makes the exact sweep's zero
# harmonics inf * 0 = nan, and the oracle overflows in numpy
REFUSING_PATHS = {
    "exact": lambda p: modulated_power_exact_sweep(p, [0.0, 1.0], 2),
    "perturbative": lambda p: modulated_power_perturbative_sweep(p, [0.0, 1.0]),
    "oracle": lambda p: time_domain_oracle(p, GeneralModulation.sinusoidal(p.M, p.Omega), 2),
}


@pytest.mark.parametrize("M", [0.0, 1.0])
@pytest.mark.parametrize("path", REFUSING_PATHS)
def test_overflow_is_refused_without_numpy_warnings(path, M):
    p = params(M=M, Omega=0.1, force=1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RegimeError, match=r"force = 1e\+200"):
            REFUSING_PATHS[path](p)


class TestHarmonicDecomposition:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            HarmonicDecomposition(0.0, (1.0,), ())


def sampled_drive_points(monkeypatch) -> list:
    """The size of every phi(t) evaluation from here on."""
    points = []
    phase = GeneralModulation.phase
    monkeypatch.setattr(
        GeneralModulation, "phase", lambda mod, t: points.append(np.size(t)) or phase(mod, t)
    )
    return points


class TestTimeDomainOracle:
    def test_unmodulated_on_resonance(self):
        p = params(M=0.0, delta=0.0, Omega=0.05)
        dec = time_domain_oracle(p, GeneralModulation.sinusoidal(0.0, 0.05))
        want = 0.5 * p.force**2 / p.gamma
        assert abs(dec.dc - want) <= 1e-6 * want
        assert all(abs(a) < 1e-8 for a in dec.cos_amps)

    def test_matches_exact_decomposition(self):
        p = params(delta=0.5, Omega=0.03, M=0.5)
        ex = modulated_power_exact(p, 2)
        od = time_domain_oracle(
            p,
            GeneralModulation.sinusoidal(p.M, p.Omega),
            n_harmonics=2,
        )
        assert abs(od.dc - ex.dc) <= 1e-6 * abs(ex.dc)
        h1_ex = math.hypot(ex.cos_amps[0], ex.sin_amps[0])
        h1_od = math.hypot(od.cos_amps[0], od.sin_amps[0])
        assert abs(h1_od - h1_ex) <= 1e-6 * h1_ex

    def test_matches_perturbative_within_expansion_band(self):
        p = params(delta=-0.5, Omega=0.02, M=0.5)
        pe = modulated_power_perturbative(p)
        od = time_domain_oracle(
            p,
            GeneralModulation.sinusoidal(p.M, p.Omega),
            n_harmonics=2,
        )
        scale = 0.5 * p.force**2 / p.gamma
        band = 5.0 * epsilon(p)**3 * scale
        assert abs(od.dc - pe.dc) < band
        assert abs(od.cos_amps[0] - pe.cos_amps[0]) < band

    def test_fundamental_mismatch_rejected(self):
        p = params()
        with pytest.raises(ValueError, match="fundamental"):
            time_domain_oracle(p, GeneralModulation.sinusoidal(0.5, 2.0 * p.Omega))

    def test_two_tone_modulation_supported(self):
        p = params(delta=0.5, M=0.0, Omega=0.02)
        mod = GeneralModulation.two_tone(0.4, 0.2, p.Omega)
        dec = time_domain_oracle(p, mod)
        # leading behavior: dc stays near the Lorentzian
        scale = 0.5 * p.force**2 / p.gamma
        assert abs(dec.dc - scale / (1.0 + p.Delta**2)) < 0.01 * scale

    @staticmethod
    def largest_error(p, mod, want):
        got = time_domain_oracle(p, mod, n_harmonics=want.n_harmonics)
        pairs = zip((got.dc,) + got.cos_amps + got.sin_amps,
                    (want.dc,) + want.cos_amps + want.sin_amps)
        return max(abs(a - b) for a, b in pairs) / abs(want.dc)

    @pytest.mark.parametrize("M, eta", [(0.5, 0.03), (5.0, 0.3), (17.0, 0.03)])
    def test_agrees_with_exact_on_grid(self, M, eta):
        for delta_norm in np.linspace(-4.0, 4.0, 5):
            p = params(M=M, Omega=eta, delta=0.5 * delta_norm)
            mod = GeneralModulation.sinusoidal(M, eta)
            assert self.largest_error(p, mod, modulated_power_exact(p, 4)) <= 1e-9

    @pytest.mark.parametrize("delta_norm", [-400.0, 400.0])
    def test_agrees_with_exact_far_from_resonance(self, delta_norm):
        p = params(delta=0.5 * delta_norm)
        mod = GeneralModulation.sinusoidal(p.M, p.Omega)
        assert self.largest_error(p, mod, modulated_power_exact(p, 4)) <= 1e-6

    def test_agrees_with_exact_at_many_harmonics(self):
        # the power reaches harmonic ~ 2 * 73 + 40, past what 64 samples resolve
        p = params(M=20.0, Omega=0.3, delta=0.3)
        mod = GeneralModulation.sinusoidal(p.M, p.Omega)
        assert self.largest_error(p, mod, modulated_power_exact(p, 40)) <= 1e-9

    def test_agrees_with_exact_when_omega_far_exceeds_gamma(self):
        # kappa1 T is about 1e-2 here, so 1 - e^{kappa1 T} needs expm1
        for delta_norm in (0.0, 2.0):
            p = params(Omega=300.0, delta=0.5 * delta_norm)
            mod = GeneralModulation.sinusoidal(p.M, p.Omega)
            assert self.largest_error(p, mod, modulated_power_exact(p, 4)) <= 1e-9

    def test_two_tone_agrees_with_sideband_sum(self):
        y1, y2 = 0.8, 0.3
        n_max = 30
        g = {n: jbar(n, y1, y2) for n in range(-n_max - 3, n_max + 4)}
        for delta_norm in (-2.0, 0.5, 3.0):
            p = params(M=0.0, Omega=0.05, delta=0.5 * delta_norm)
            mod = GeneralModulation.two_tone(y1, y2, p.Omega)
            want = sideband_harmonics(p, g, n_max, 3)
            assert self.largest_error(p, mod, want) <= 1e-9

    def test_refuses_non_finite_power(self):
        p = params(M=1.0, Omega=0.1, force=1e200)
        with pytest.raises(RegimeError, match=r"force = 1e\+200: .* gamma = 1.0"):
            time_domain_oracle(p, GeneralModulation.sinusoidal(p.M, p.Omega))

    def test_node_cap_raises_oracle_error(self, monkeypatch):
        monkeypatch.setattr(modulation_spectroscopy, "_ORACLE_MAX_NODES", 8)
        p = params(delta=0.5)
        with pytest.raises(OracleError, match="cap of 8 nodes"):
            time_domain_oracle(p, GeneralModulation.sinusoidal(p.M, p.Omega), 64)

    def test_drive_points_ignore_detuning(self, monkeypatch):
        # one exact-exponential step per sample at any kappa1 ~ -i delta
        points = sampled_drive_points(monkeypatch)
        counts = []
        for delta in (1.0, 1e12):
            points.clear()
            p = params(M=1.0, Omega=0.1, delta=delta)
            time_domain_oracle(p, GeneralModulation.sinusoidal(p.M, p.Omega))
            counts.append(sum(points))
        # 128 samples: the drive at 8 and 16 nodes per step, and at the
        # samples; a sweep evaluates the first two once for all its
        # detunings, and the drive at the samples once per detuning
        assert counts[0] == counts[1] == 128 * (8 + 16 + 1)
        points.clear()
        time_domain_oracle_sweep(p, [1.0, 2.0, 1e12], GeneralModulation.sinusoidal(p.M, p.Omega))
        assert sum(points) == 128 * (8 + 16) + 3 * 128

    def test_node_doubling_past_the_point_cap_is_refused(self, monkeypatch):
        # this detuning settles at 16 nodes; a cap between the points of
        # 8 and of 16 nodes refuses the doubling before it is evaluated
        p = params(M=1.0, Omega=0.1, delta=30.0)
        mod = GeneralModulation.sinusoidal(p.M, p.Omega)
        built = []
        real = modulation_spectroscopy._gauss_legendre
        monkeypatch.setattr(
            modulation_spectroscopy, "_gauss_legendre", lambda n: built.append(n) or real(n)
        )
        time_domain_oracle(p, mod)
        assert built == [8, 16]
        n_samples = 128  # 2 (auto_sideband_order + 4) rounded up to a power of two
        cap = n_samples * 12
        monkeypatch.setattr(modulation_spectroscopy, "_ORACLE_MAX_POINTS", cap)
        built.clear()
        with pytest.raises(
            OracleError,
            match=f"{n_samples} samples with 16 Gauss-Legendre nodes each evaluate "
            f"the drive at {n_samples * 16} points, past the cap of {cap}",
        ):
            time_domain_oracle(p, mod)
        assert built == [8]

    def test_sample_count_past_the_point_cap_is_refused_before_evaluation(
        self, monkeypatch
    ):
        # 2 (auto_sideband_order + 2e6) harmonics round up to 2^22 samples,
        # so 8 nodes each would evaluate the drive at 3.4e7 points
        def evaluated(*args):
            raise AssertionError("evaluated past the cap")

        monkeypatch.setattr(modulation_spectroscopy, "_gauss_legendre", evaluated)
        monkeypatch.setattr(GeneralModulation, "phase", evaluated)
        p = params(M=1.0, Omega=0.1)
        cap = modulation_spectroscopy._ORACLE_MAX_POINTS
        with pytest.raises(
            OracleError,
            match=f"{1 << 22} samples with 8 Gauss-Legendre nodes each evaluate "
            f"the drive at {8 << 22} points, past the cap of {cap}",
        ):
            time_domain_oracle(
                p, GeneralModulation.sinusoidal(p.M, p.Omega), n_harmonics=2_000_000
            )

    def test_sample_grid_past_the_point_cap_is_not_built(self, monkeypatch):
        # 2 (auto_sideband_order + 2^16) harmonics round up to 2^18 samples,
        # whose time grid alone takes 2 MiB; 8 nodes each pass a cap of 2^20
        cap = 8 << 17
        monkeypatch.setattr(modulation_spectroscopy, "_ORACLE_MAX_POINTS", cap)
        p = params(M=1.0, Omega=0.1)
        mod = GeneralModulation.sinusoidal(p.M, p.Omega)
        tracemalloc.start()
        try:
            with pytest.raises(
                OracleError,
                match=f"{1 << 18} samples with 8 Gauss-Legendre nodes each evaluate "
                f"the drive at {8 << 18} points, past the cap of {cap}",
            ):
                time_domain_oracle_sweep(p, [0.0], mod, n_harmonics=1 << 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 18

    @given(
        exponent=st.floats(-3.0, 4.0),
        sign=st.sampled_from([-1.0, 1.0]),
        M=st.floats(0.0, 20.0),
        log_Omega=st.floats(-2.0, 0.0),
        log_gamma=st.floats(-1.0, 1.0),
        omega0=st.sampled_from([1e6, 1e7, 1e9]),
    )
    @settings(max_examples=60, deadline=None)
    @example(exponent=4.0, sign=1.0, M=1.0, log_Omega=-1.0, log_gamma=0.0, omega0=1e6)
    def test_agrees_with_exact_at_any_detuning(
        self, exponent, sign, M, log_Omega, log_gamma, omega0
    ):
        # every harmonic within 1e-12 f^2/gamma, and within 1e-9 |dc| for
        # |delta| <= 100 gamma; the explicit example is the CI's point
        p = params(omega0=omega0, gamma=10.0**log_gamma, M=M, Omega=10.0**log_Omega,
                   delta=sign * 10.0**exponent)
        want = modulated_power_exact(p, 4)
        got = time_domain_oracle(p, GeneralModulation.sinusoidal(p.M, p.Omega))
        error = max(abs(a - b) for a, b in zip(
            (got.dc,) + got.cos_amps + got.sin_amps,
            (want.dc,) + want.cos_amps + want.sin_amps,
            strict=True,
        ))
        assert error <= 1e-12 * p.force**2 / p.gamma
        if abs(p.delta) <= 100.0 * p.gamma:
            assert error <= 1e-9 * abs(want.dc)


def one_detuning_at_a_time(base, deltas, mod, n_harmonics=4):
    """time_domain_oracle at each detuning in turn, as rows of (dc, cos, sin)."""
    return [time_domain_oracle(dataclasses.replace(base, delta=d), mod, n_harmonics)
            for d in deltas]


# (params overrides, harmonics, detunings in rad/s); at M = 12 and delta =
# 66 rad/s the doubling goes to 32 nodes, the other detunings settle at 16
SWEEPS = {
    "near resonance": (dict(), 2, [-2.0, -0.5, 0.0, 0.5, 2.0]),
    "far off resonance": (dict(omega0=1e7, gamma=0.3, Omega=0.1, M=5.0), 4,
                          [-1e4, -30.0, 1.0, 30.0, 1e4]),
    "omega0 1e9": (dict(omega0=1e9, gamma=3.0, Omega=1.0, M=20.0), 0, [-5e3, 0.0, 7.0]),
    "32 nodes": (dict(omega0=1e9, gamma=0.2, Omega=0.1, M=12.0), 3, [1.0, 66.0, -1.0, 66.0]),
}


class TestTimeDomainOracleSweep:
    @pytest.mark.parametrize("case", SWEEPS)
    def test_rows_are_the_one_detuning_calls_bit_for_bit(self, case):
        overrides, n_harmonics, deltas = SWEEPS[case]
        base = params(**overrides)
        mod = GeneralModulation.sinusoidal(base.M, base.Omega)
        dc, cos_amps, sin_amps = time_domain_oracle_sweep(base, deltas, mod, n_harmonics)
        assert cos_amps.shape == sin_amps.shape == (len(deltas), n_harmonics)
        for i, want in enumerate(one_detuning_at_a_time(base, deltas, mod, n_harmonics)):
            assert dc[i] == want.dc
            assert tuple(cos_amps[i].tolist()) == want.cos_amps
            assert tuple(sin_amps[i].tolist()) == want.sin_amps

    def test_doubles_past_16_nodes(self, monkeypatch):
        overrides, n_harmonics, deltas = SWEEPS["32 nodes"]
        base = params(**overrides)
        built = []
        real = modulation_spectroscopy.leggauss
        monkeypatch.setattr(
            modulation_spectroscopy, "leggauss", lambda n: built.append(n) or real(n)
        )
        modulation_spectroscopy._gauss_legendre.cache_clear()
        time_domain_oracle_sweep(
            base, deltas, GeneralModulation.sinusoidal(base.M, base.Omega), n_harmonics
        )
        # one rule per node count for the whole sweep
        assert built == [8, 16, 32]

    def test_drives_past_the_point_cap_are_rebuilt_not_held(self, monkeypatch):
        p = params(M=1.0, Omega=0.1)
        mod = GeneralModulation.sinusoidal(p.M, p.Omega)
        deltas = [1.0, 2.0, 1e12]
        want = time_domain_oracle_sweep(p, deltas, mod)
        # the 16-node drive fills the cap, so nothing else is held beside it
        monkeypatch.setattr(modulation_spectroscopy, "_ORACLE_MAX_POINTS", 128 * 16)
        points = sampled_drive_points(monkeypatch)
        got = time_domain_oracle_sweep(p, deltas, mod)
        assert sum(points) == len(deltas) * 128 * (8 + 16 + 1)
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)

    def test_peak_memory_near_the_point_cap_is_that_of_one_detuning(self, monkeypatch):
        # M = 3000 takes 8192 samples; delta = -30 rad/s doubles to 32 nodes,
        # the others settle at 16, and the cap holds the 32-node drive alone
        p = params(M=3000.0, Omega=0.1)
        mod = GeneralModulation.sinusoidal(p.M, p.Omega)
        n_samples = 8192
        monkeypatch.setattr(modulation_spectroscopy, "_ORACLE_MAX_POINTS", 32 * n_samples)

        def peak(deltas):
            tracemalloc.start()
            try:
                time_domain_oracle_sweep(p, deltas, mod)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        single = peak([-30.0])
        # no array of n_samples complex values (128 KiB) is left over
        assert peak([30.0, -30.0, 1.0, -30.0, 29.0]) <= single + 4 * n_samples

    @pytest.mark.parametrize("call", [time_domain_oracle, time_domain_oracle_sweep])
    def test_negative_harmonic_count_is_refused(self, call):
        p = params()
        args = (p, [0.0]) if call is time_domain_oracle_sweep else (p,)
        with pytest.raises(ValueError, match=r"^n_harmonics must be >= 0, got -1$"):
            call(*args, GeneralModulation.sinusoidal(p.M, p.Omega), -1)

    @pytest.mark.parametrize(
        "deltas, error",
        [
            ([0.0, 1.0, math.inf], ValueError),
            ([math.nan, 0.0], ValueError),
            ([0.0, -2e6, 1.0, -3e6], RegimeError),
            ([0.0, -2e6, math.inf], ValueError),
        ],
        ids=["inf", "nan", "sidebands", "sidebands-and-inf"],
    )
    def test_refuses_a_grid_as_the_exact_sweep_does(self, deltas, error):
        # the oracle's sideband reach is that of mod, the exact sweep's that
        # of base.M = 0 and s_max: they are made equal, so that one message
        # names the same truncation range |n| <= 31
        mod = GeneralModulation.sinusoidal(1.0, 0.1)
        s_max = auto_sideband_order(mod) - exact_truncation_order(0.0, 0)
        base = params(M=0.0, Omega=0.1)
        with pytest.raises(error) as exact:
            modulated_power_exact_sweep(base, deltas, s_max)
        with pytest.raises(error) as oracle:
            time_domain_oracle_sweep(base, deltas, mod)
        assert type(oracle.value) is type(exact.value)
        assert str(oracle.value) == str(exact.value)

    @pytest.mark.parametrize(
        "patches, message",
        [
            ({"_ORACLE_MAX_NODES": 16}, "passes the cap of 16 nodes"),
            # 128 samples: 16 nodes take 2048 points, 32 take 4096
            ({"_ORACLE_MAX_POINTS": 128 * 24}, "at 4096 points, past the cap of 3072"),
        ],
        ids=["node-cap", "point-cap"],
    )
    def test_failing_detuning_raises_as_its_own_call(self, monkeypatch, patches, message):
        # delta = 66 rad/s doubles to 32 nodes, 1 rad/s settles at 16
        for name, value in patches.items():
            monkeypatch.setattr(modulation_spectroscopy, name, value)
        base = params(omega0=1e9, gamma=0.2, Omega=0.1, M=12.0)
        mod = GeneralModulation.sinusoidal(base.M, base.Omega)
        deltas = [1.0, 66.0, 1.0]
        with pytest.raises(OracleError, match=message) as single:
            one_detuning_at_a_time(base, deltas, mod)
        with pytest.raises(OracleError) as sweep:
            time_domain_oracle_sweep(base, deltas, mod)
        assert str(sweep.value) == str(single.value)


@pytest.mark.parametrize(
    "path",
    [
        lambda p: modulated_power_exact(p, 4),
        lambda p: time_domain_oracle(p, GeneralModulation.sinusoidal(p.M, p.Omega)),
    ],
    ids=["exact", "oracle"],
)
def test_non_positive_sideband_frequency_is_refused(path):
    # the carrier sits at -1e6 rad/s, outside the oscillator model
    p = params(M=1.0, Omega=0.1, delta=-2e6)
    with pytest.raises(RegimeError, match=r"sideband frequencies reach -1\.000e\+06 <= 0"):
        path(p)


def decay_moments_mpmath(z: complex, count: int) -> list:
    """mu_r = int_0^1 e^{z (1-s)} P_r(2s - 1) ds, r < count, at 40 digits, Re z <= 0.

    mu_r = e^{z/2} i_r(-z/2) with i_r(w) = sqrt(pi / (2w)) I_{r+1/2}(w);
    -z/2 lies in the right half-plane, off the branch cut.  The two top
    orders come from besseli and the rest by the downward recurrence
    mu_{r-1} = mu_{r+1} - (2r+1)(2/z) mu_r, stable for this minimal solution.
    """
    with mp.workdps(40):
        zz = mp.mpc(z.real, z.imag)
        w = -zz / 2
        factor = mp.exp(zz / 2) * mp.sqrt(mp.pi / (2 * w))
        mu = [mp.mpc(0)] * count
        for r in (count - 1, count - 2):
            mu[r] = factor * mp.besseli(r + mp.mpf(0.5), w)
        for r in range(count - 2, 0, -1):
            mu[r - 1] = mu[r + 1] - (2 * r + 1) * (2 / zz) * mu[r]
        return [complex(m) for m in mu]


@pytest.mark.parametrize("nodes", [8, 16, 32, 64, 128])
def test_lagrange_coefficients_interpolate_at_the_nodes(nodes):
    x, _ = np.polynomial.legendre.leggauss(nodes)
    lagrange = np.polynomial.legendre.legvander(x, nodes - 1) @ (
        modulation_spectroscopy._legendre_of_lagrange(x)
    )
    assert np.max(np.abs(lagrange - np.eye(nodes))) <= 1e-14


def test_decay_weights_match_mpmath():
    # arg z in [pi/2, pi] covers Re z <= 0, since W(conj z) = conj W(z);
    # switching upward at |z/2| >= nodes lost every digit at 128 nodes
    # and z = -316
    magnitudes = 10.0 ** np.arange(-8.0, 7.5, 0.5)
    angles = np.linspace(0.5, 1.0, 5) * np.pi
    lagranges = [
        modulation_spectroscopy._legendre_of_lagrange(np.polynomial.legendre.leggauss(nodes)[0])
        for nodes in (8, 16, 32, 64, 128)
    ]
    worst = 0.0
    for z in (m * complex(math.cos(a), math.sin(a)) for m in magnitudes for a in angles):
        mu = np.array(decay_moments_mpmath(z, 128))
        for lagrange in lagranges:
            want = mu[: len(lagrange)] @ lagrange
            got = modulation_spectroscopy._decay_weights(z, lagrange)
            worst = max(worst, np.max(np.abs(got - want)) / np.sum(np.abs(want)))
    assert worst <= 1e-13
