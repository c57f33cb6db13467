"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every tolerance is pinned here, not configured elsewhere.
"""

import math
import time

import numpy as np
import pytest

from besselrules.coefficients import (
    DyadicPoly,
    build_coeff_table,
    coeff_faa_di_bruno,
)
from besselrules.modulation_spectroscopy import (
    OscillatorParams,
    a_s_direct,
    a_s_eta_coefficients,
    a_s_geometric,
    a_s_newberger,
    a_s_series,
    modulated_power_exact,
    modulated_power_perturbative,
    time_domain_oracle,
)
from besselrules.sum_rules import (
    GeneralModulation,
    addition_formula_sides,
    alternating_sum_sides,
    b_ks_brute,
    b_ks_closed,
    general_modulation_rules,
    jbar_sum_rule_sides,
    jcs_sum_rule_sides,
    recursion_residual,
)
from besselrules.cli import main as cli_main


def report(number: int, description: str, ok: bool, elapsed: float, limit: float):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(
        f"ACCEPTANCE {number:2d} [{status}] {description} "
        f"({elapsed:.2f}s / limit {limit:.0f}s)"
    )
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def _poly(*terms):
    """(power, num, exp2) triples, num/2^exp2 y^power, as integers in y/2."""
    return DyadicPoly({p: num << (p - e) for p, num, e in terms})


# The low-order listing, in exact dyadics.  The (4, 0) entry is the
# oracle-adjudicated 3y^4/8 + y^2/2: the circulated printed form shows
# y^2/4 there, but the lattice recursion, the partition closed form and
# the independent weighted sum  sum_n n^4 J_n(y)^2  (high-precision check
# in test_coefficients) all require y^2/2, so the printed y^2/4 is a typo
# and is reported as such rather than reproduced.
LISTING = {
    (0, 0): _poly((0, 1, 0)),
    (1, 1): _poly((1, 1, 1)),
    (1, -1): _poly((1, 1, 1)),
    (2, 0): _poly((2, 1, 1)),
    (2, 1): _poly((1, 1, 1)),
    (2, -1): _poly((1, -1, 1)),
    (2, 2): _poly((2, 1, 2)),
    (2, -2): _poly((2, 1, 2)),
    (3, 3): _poly((3, 1, 3)),
    (3, -3): _poly((3, 1, 3)),
    (3, 2): _poly((2, 3, 2)),
    (3, -2): _poly((2, -3, 2)),
    (3, 1): _poly((3, 3, 3), (1, 1, 1)),
    (3, -1): _poly((3, 3, 3), (1, 1, 1)),
    (4, 4): _poly((4, 1, 4)),
    (4, -4): _poly((4, 1, 4)),
    (4, 3): _poly((3, 3, 2)),
    (4, -3): _poly((3, -3, 2)),
    (4, 2): _poly((4, 1, 2), (2, 7, 2)),
    (4, -2): _poly((4, 1, 2), (2, 7, 2)),
    (4, 1): _poly((3, 3, 2), (1, 1, 1)),
    (4, -1): _poly((3, -3, 2), (1, -1, 1)),
    (4, 0): _poly((4, 3, 3), (2, 1, 1)),
}


def _entry(table, k: int, n: int) -> DyadicPoly:
    """D[k, n] of table as a polynomial, the zero one where entries holds none."""
    return table.entries.get((k, n), DyadicPoly())


def test_criterion_1_coefficient_table_fidelity():
    start = time.perf_counter()
    table = build_coeff_table(4)
    ok = True
    for k in range(5):
        for n in range(-k, k + 1):
            expected = LISTING.get((k, n), DyadicPoly())
            if _entry(table, k, n) != expected:
                ok = False
    # the one documented deviation from the printed listing, stated openly:
    printed_4_0 = _poly((4, 3, 3), (2, 1, 2))
    deviates = _entry(table, 4, 0) != printed_4_0
    print(
        "ACCEPTANCE  1 [NOTE] printed (4,0) coefficient y^2/4 is a typo; "
        "recursion, closed form and the Bessel-sum oracle give y^2/2 "
        f"(table deviates from printed form: {deviates})"
    )
    report(
        1,
        "exact low-order table matches the verified listing (0 tolerance)",
        ok and deviates,
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_2_dual_path_equivalence():
    start = time.perf_counter()
    table = build_coeff_table(10)
    ok = all(
        coeff_faa_di_bruno(k, n) == _entry(table, k, n)
        for k in range(1, 11)
        for n in range(-k, k + 1)
    )
    report(
        2,
        "recursion and partition closed form identical for k <= 10",
        ok,
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_3_weighted_moment_sums():
    start = time.perf_counter()
    ok = True
    for k in range(7):
        for s in range(-8, 9):
            for M in (0.5, 1.0, 2.0, 5.0):
                closed = b_ks_closed(k, s, M)
                brute = b_ks_brute(k, s, M)
                if abs(closed - brute) > 1e-10 * max(1.0, abs(closed)):
                    ok = False
    for M in (0.5, 1.0, 2.0, 5.0):
        if abs(b_ks_brute(0, 0, M) - 1.0) > 1e-12:
            ok = False
    report(
        3,
        "closed vs brute weighted moments within 1e-10 (unit sum at 1e-12)",
        ok,
        time.perf_counter() - start,
        5.0,
    )


def test_criterion_4_addition_formula():
    start = time.perf_counter()
    ok = all(
        abs(lhs - rhs) < 1e-10
        for k in range(5)
        for q in range(-4, 5)
        for y1, y2 in ((1.0, 0.7), (2.0, -1.3), (0.5, 0.5))
        for lhs, rhs in (addition_formula_sides(k, q, y1, y2),)
    )
    report(
        4,
        "product addition identity residual < 1e-10 on the stated grid",
        ok,
        time.perf_counter() - start,
        5.0,
    )


def test_criterion_5_generalized_rules():
    start = time.perf_counter()
    ok = True
    for q in range(-2, 3):
        for x, y in ((1.0, 2.0), (0.5, 0.5), (2.0, 0.0), (0.0, 1.5)):
            lhs, rhs = jcs_sum_rule_sides(q, x, y)
            if abs(lhs - rhs) > 1e-10:
                ok = False
    for s in range(-3, 4):
        for y1, y2 in ((2.0, 0.7), (1.0, 0.5), (0.5, 0.0)):
            lhs, rhs = jbar_sum_rule_sides(s, y1, y2)
            if abs(lhs - rhs) > 1e-10:
                ok = False
    for k in range(4):
        for q in range(-3, 4):
            for y in (0.5, 1.3, 2.0):
                lhs, rhs = alternating_sum_sides(k, q, y)
                if abs(lhs - rhs) > 1e-10:
                    ok = False
    mods = [
        GeneralModulation.sinusoidal(1.2, 1.0),
        GeneralModulation.two_tone(1.0, 0.5, 1.0),
        GeneralModulation(
            {1: -0.4j, -1: 0.4j, 2: -0.2j, -2: 0.2j, 3: -0.1j, -3: 0.1j}, 1.0
        ),
    ]
    for mod in mods:
        for s in range(-2, 3):
            energy, moment, expected = general_modulation_rules(mod, s)
            if abs(energy - (1.0 if s == 0 else 0.0)) > 1e-10:
                ok = False
            if abs(moment - expected) > 1e-10:
                ok = False
    report(
        5,
        "generalized-function and arbitrary-modulation rules within 1e-10",
        ok,
        time.perf_counter() - start,
        10.0,
    )


def test_criterion_6_recursion_relations():
    start = time.perf_counter()
    ok = all(
        recursion_residual(k, q, y) < 1e-12
        for k in (1, 2)
        for q in range(-10, 11)
        for y in (0.3, 1.0, 2.0, 5.0)
    )
    report(
        6,
        "first- and second-order recursion residuals < 1e-12",
        ok,
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_7_resonant_sum_chain():
    start = time.perf_counter()
    ok = True
    for M in (0.5, 1.0, 2.0):
        for g_over_o in (0.5, 1.0, 3.0, 10.0):
            Omega = 1.0 / g_over_o
            for s in (0, 1, 2, 3):
                direct = a_s_direct(s, M, 1.0, Omega)
                scale = abs(direct)
                if abs(a_s_newberger(s, M, 1.0, Omega) - direct) > 1e-8 * scale:
                    ok = False
                if abs(a_s_series(s, M, 1.0, Omega) - direct) > 1e-8 * scale:
                    ok = False
    report(
        7,
        "direct, complex-order and series paths mutually within 1e-8",
        ok,
        time.perf_counter() - start,
        10.0,
    )


def test_criterion_8_eta_expansion():
    start = time.perf_counter()
    ok = True
    for M in (0.5, 1.0):
        c0, c1, c2, c3 = a_s_eta_coefficients(1, M, 3)
        ok &= c0 == 0.0
        ok &= c1 == complex(0.0, -0.5 * M)
        ok &= c2 == complex(-0.5 * M, 0.0)
        ok &= c3 == complex(0.0, 0.5 * M * (1.0 + 0.75 * M * M))
    etas = np.geomspace(0.005, 0.05, 8)
    errs = [
        abs(a_s_geometric(1, 1.0, 1.0, eta, 3) - a_s_direct(1, 1.0, 1.0, eta))
        for eta in etas
    ]
    slope = float(np.polyfit(np.log(etas), np.log(errs), 1)[0])
    ok &= abs(slope - 4.0) <= 0.2
    report(
        8,
        f"expansion coefficients exact; remainder slope {slope:.3f} in 4.0+-0.2",
        bool(ok),
        time.perf_counter() - start,
        10.0,
    )


def test_criterion_9_lineshape_consistency():
    start = time.perf_counter()
    ok = True
    # Delta = +-1 is where the closed lineshape's next-order term vanishes,
    # making the stated eps^3 band attainable; eps = sqrt(2)*0.03 <= 0.05.
    for delta_norm in (1.0, -1.0):
        p = OscillatorParams(
            omega0=1e6, gamma=1.0, force=1.0,
            delta=0.5 * delta_norm, Omega=0.03, M=0.5,
        )
        epsilon = abs(2.0 * p.eta / complex(1.0, p.Delta))
        assert epsilon <= 0.05
        exact = modulated_power_exact(p, 2)
        pert = modulated_power_perturbative(p)
        h1_exact = math.hypot(exact.cos_amps[0], exact.sin_amps[0])
        h1_pert = math.hypot(pert.cos_amps[0], pert.sin_amps[0])
        if abs(h1_pert - h1_exact) > 5.0 * epsilon**3 * h1_exact:
            ok = False
        oracle = time_domain_oracle(
            p,
            GeneralModulation.sinusoidal(p.M, p.Omega),
            n_harmonics=2,
        )
        if abs(oracle.dc - exact.dc) > 1e-6 * abs(exact.dc):
            ok = False
        h1_oracle = math.hypot(oracle.cos_amps[0], oracle.sin_amps[0])
        if abs(h1_oracle - h1_exact) > 1e-6 * h1_exact:
            ok = False
    report(
        9,
        "perturbative vs exact h1 within 5*eps^3; exact vs oscillator "
        "integration within 1e-6 on dc and h1",
        ok,
        time.perf_counter() - start,
        120.0,
    )


def test_criterion_10_determinism(tmp_path):
    start = time.perf_counter()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = cli_main(["verify", "--suite", "core", "--output", str(a)])
    code_b = cli_main(["verify", "--suite", "core", "--output", str(b)])
    ok = code_a == 0 and code_b == 0 and a.read_bytes() == b.read_bytes()
    report(
        10,
        "repeated verify runs produce byte-identical reports",
        ok,
        time.perf_counter() - start,
        60.0,
    )
