"""Oscillator-absorption tests: the A_s oracle chain, lineshapes, ODE oracle."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from besselrules import modulation_spectroscopy
from besselrules.bessel_core import ConvergenceError, OracleError, bessel_j_int
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
    average_power_unmodulated,
    exact_truncation_order,
    general_modulation_power,
    modulated_power_exact,
    modulated_power_exact_sweep,
    modulated_power_perturbative,
    perturbative_validity,
    steady_state_amplitude,
    time_domain_oracle,
)
from besselrules.sum_rules import GeneralModulation, jbar

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


def sideband_harmonics(
    p: OscillatorParams, g: dict[int, float], n_max: int, s_max: int
) -> HarmonicDecomposition:
    """Power harmonics of a drive with real sideband amplitudes g_n.

    X_s = sum over |n| <= n_max of g_n g_{n-s} times the response at
    carrier + n Omega, one detuning and one sum per s at a time.
    """
    n = np.arange(-n_max, n_max + 1)
    omega_n = p.carrier + n * p.Omega
    response = omega_n / (p.omega0**2 - omega_n**2 + 1j * p.gamma * omega_n)
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
        assert p.epsilon == pytest.approx(2.0 * 0.03 / math.sqrt(2.0))
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


class TestSteadyState:
    def test_static_limit(self):
        p = params()
        assert steady_state_amplitude(p, 0.0) == pytest.approx(p.force / p.omega0**2)

    def test_on_resonance_is_reactive(self):
        p = params()
        want = p.force / (1j * p.gamma * p.omega0)
        assert steady_state_amplitude(p, p.omega0) == pytest.approx(want)

    def test_amplitude_peaks_near_resonance(self):
        p = params(omega0=100.0, gamma=2.0)
        omegas = np.linspace(50.0, 150.0, 2001)
        mags = [abs(steady_state_amplitude(p, w)) for w in omegas]
        peak = omegas[int(np.argmax(mags))]
        assert abs(peak - p.omega0) < 2.0


class TestUnmodulatedPower:
    def test_resonance_value(self):
        p = params()
        assert average_power_unmodulated(p, p.omega0) == pytest.approx(
            0.5 * p.force**2 / p.gamma
        )

    def test_zero_frequency(self):
        assert average_power_unmodulated(params(), 0.0) == 0.0

    def test_lorentzian_limit(self):
        # near resonance the power approaches the Lorentzian plus an
        # odd-in-Delta correction suppressed by 1/omega0
        p = params(omega0=1e6)
        for delta in (-2.0, -0.5, 0.7, 3.0):
            d = 2.0 * delta / p.gamma
            got = average_power_unmodulated(p, p.omega0 + delta)
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
    # the prefactor times the tiny J_{s-ia}(M) here once fell into subnormals
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

    def test_newberger_overflow_guard(self):
        with pytest.raises(OverflowError):
            a_s_newberger(0, 1.0, 300.0, 1.0)

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

    @pytest.mark.parametrize("M", [math.nan, math.inf, -math.inf])
    def test_eta_coefficients_refuse_non_finite_m(self, M):
        with pytest.raises(ValueError, match="M must be finite"):
            a_s_eta_coefficients(1, M, 3)

    @pytest.mark.parametrize(
        "order, message", [(-1, r"be >= 0, got -1"), (65, r"lie in \[0, 64\], got 65")]
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


class TestModulatedPowerExact:
    def test_unmodulated_reduces_to_lorentzian(self):
        p = params(M=0.0, delta=0.9)
        dec = modulated_power_exact(p, 3)
        want = average_power_unmodulated(p, p.carrier)
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
            band = 5.0 * p.epsilon**3 * scale
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
        sweep = modulated_power_exact_sweep(base, deltas, 3)
        n_max = exact_truncation_order(base.M, 3)
        bessel_j = {
            k: bessel_j_int(k, base.M) for k in range(-n_max - 3, n_max + 4)
        }
        assert len(sweep) == len(deltas)
        for delta, dec in zip(deltas, sweep):
            p = dataclasses.replace(base, delta=delta)
            loop = sideband_harmonics(p, bessel_j, n_max, 3)
            for ref in (modulated_power_exact(p, 3), loop):
                assert dec.n_harmonics == ref.n_harmonics == 3
                got = (dec.dc,) + dec.cos_amps + dec.sin_amps
                want = (ref.dc,) + ref.cos_amps + ref.sin_amps
                largest = max(abs(a - b) for a, b in zip(got, want))
                assert largest <= 1e-14 * abs(ref.dc)

    def test_sweep_regime_error_names_first_bad_detuning(self):
        base = OscillatorParams(
            omega0=200.0, gamma=0.5, force=1.0, delta=0.0, Omega=2.0, M=5.0
        )
        assert modulated_power_exact_sweep(base, [0.0], 2)[0].dc > 0.0
        with pytest.raises(RegimeError) as err:
            modulated_power_exact_sweep(base, [0.0, -100.0, -150.0], 2)
        n_max = exact_truncation_order(base.M, 2)
        assert f"reach {200.0 - 100.0 - n_max * 2.0:.3e} <= 0" in str(err.value)


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


class TestGeneralModulationPower:
    def test_trivial_modulation_gives_lorentzian(self):
        p = params(delta=1.0)
        mod = GeneralModulation({}, p.Omega)
        scale = 0.5 * p.force**2 / p.gamma
        assert general_modulation_power(p, mod, 0.37) == pytest.approx(
            scale / (1.0 + p.Delta**2)
        )

    def test_sinusoidal_reduces_to_first_order_lineshape(self):
        # Lorentzian dc plus the first-harmonic cosine of the closed-form
        # lineshape; the closed form's second-order pieces are absent here
        p = params(delta=0.7, M=0.5, Omega=0.02)
        mod = GeneralModulation.sinusoidal(p.M, p.Omega)
        pe = modulated_power_perturbative(p)
        scale = 0.5 * p.force**2 / p.gamma
        for t in (0.0, 13.7, 101.0):
            got = general_modulation_power(p, mod, t)
            want = scale / (1.0 + p.Delta**2) + pe.cos_amps[0] * math.cos(
                p.Omega * t
            )
            assert got == pytest.approx(want, abs=1e-12)

    def test_on_resonance_time_independent(self):
        p = params(delta=0.0)
        mod = GeneralModulation.sinusoidal(p.M, p.Omega)
        values = {general_modulation_power(p, mod, t) for t in (0.0, 1.0, 50.0)}
        assert max(values) - min(values) < 1e-15


class TestHarmonicDecomposition:
    def test_reconstruction(self):
        dec = HarmonicDecomposition(1.0, (0.5, 0.0), (0.0, 0.25))
        t = np.linspace(0.0, 10.0, 7)
        want = 1.0 + 0.5 * np.cos(2.0 * t) + 0.25 * np.sin(4.0 * t)
        assert np.allclose(dec.reconstruct(2.0, t), want)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            HarmonicDecomposition(0.0, (1.0,), ())


class TestTimeDomainOracle:
    def test_unmodulated_on_resonance(self):
        p = params(M=0.0, delta=0.0, Omega=0.05)
        dec = time_domain_oracle(
            p, GeneralModulation.sinusoidal(0.0, 0.05), samples_per_period=32
        )
        want = 0.5 * p.force**2 / p.gamma
        assert abs(dec.dc - want) <= 1e-6 * want
        assert all(abs(a) < 1e-8 for a in dec.cos_amps)

    def test_matches_exact_decomposition(self):
        p = params(delta=0.5, Omega=0.03, M=0.5)
        ex = modulated_power_exact(p, 2)
        od = time_domain_oracle(
            p,
            GeneralModulation.sinusoidal(p.M, p.Omega),
            samples_per_period=64,
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
            samples_per_period=48,
            n_harmonics=2,
        )
        scale = 0.5 * p.force**2 / p.gamma
        band = 5.0 * p.epsilon**3 * scale
        assert abs(od.dc - pe.dc) < band
        assert abs(od.cos_amps[0] - pe.cos_amps[0]) < band

    def test_fundamental_mismatch_rejected(self):
        p = params()
        with pytest.raises(ValueError, match="fundamental"):
            time_domain_oracle(p, GeneralModulation.sinusoidal(0.5, 2.0 * p.Omega), 32)

    def test_two_tone_modulation_supported(self):
        p = params(delta=0.5, M=0.0, Omega=0.02)
        mod = GeneralModulation.two_tone(0.4, 0.2, p.Omega)
        dec = time_domain_oracle(p, mod, samples_per_period=48)
        # leading behavior: dc stays near the Lorentzian
        scale = 0.5 * p.force**2 / p.gamma
        assert abs(dec.dc - scale / (1.0 + p.Delta**2)) < 0.01 * scale

    @staticmethod
    def largest_error(p, mod, want):
        got = time_domain_oracle(
            p, mod, samples_per_period=64, n_harmonics=want.n_harmonics
        )
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

    def test_node_cap_raises_oracle_error(self, monkeypatch):
        monkeypatch.setattr(modulation_spectroscopy, "_ORACLE_MAX_NODES", 8)
        p = params(delta=0.5)
        with pytest.raises(OracleError, match="cap of 8 nodes"):
            time_domain_oracle(p, GeneralModulation.sinusoidal(p.M, p.Omega), 64)
