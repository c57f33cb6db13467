"""File-emitting command line front end.

Commands: ``coeffs`` (exact coefficient table with a dual-path check),
``verify`` (sum-rule residual grids), ``sidebands`` (sideband spectra),
``lineshape`` (absorbed-power harmonic sweeps) and ``a-sum`` (resonant
sideband sums by any of the four methods).  Identical invocations write
byte-identical files; timestamps appear only with --stamp.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage error,
3 numeric-regime error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys

from besselrules.bessel_core import ConvergenceError, OracleError, truncation_bound
from besselrules.coefficients import build_coeff_table, coeff_faa_di_bruno
from besselrules.modulation_spectroscopy import (
    HarmonicDecomposition,
    OscillatorParams,
    RegimeError,
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
    AccuracyError,
    GeneralModulation,
    SumRuleReport,
    _fmt,
    addition_formula_sides,
    alternating_sum_sides,
    auto_sideband_order,
    b_ks_brute,
    b_ks_closed,
    general_modulation_rules,
    general_sidebands,
    jbar_sum_rule_sides,
    jcs_sum_rule_sides,
    recursion_residual,
    write_reports_csv,
    write_reports_jsonl,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_REGIME = 3


def _stamp_value(enabled: bool) -> str | None:
    if not enabled:
        return None
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------

def cmd_coeffs(args) -> int:
    table = build_coeff_table(args.k_max)
    mismatches: list[tuple[int, int]] = []
    dual_checked = args.k_max <= 30
    if dual_checked:
        for k in range(1, args.k_max + 1):
            for n in range(-k, k + 1):
                if coeff_faa_di_bruno(k, n) != table.entry(k, n):
                    mismatches.append((k, n))
    if not dual_checked:
        checksum = "skipped"
    elif mismatches:
        checksum = "mismatch:" + ";".join(f"({k},{n})" for k, n in mismatches)
    else:
        checksum = "ok"

    if args.format == "json":
        obj = table.to_json_obj()
        obj["dual_path"] = checksum
        stamp = _stamp_value(args.stamp)
        if stamp:
            obj["stamp"] = stamp
        text = json.dumps(obj, indent=2) + "\n"
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        with open(args.output, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["k", "n", "power", "num", "exp2", "dual_path"])
            for (k, n) in sorted(table.entries):
                status = (
                    "mismatch"
                    if (k, n) in mismatches
                    else ("ok" if dual_checked else "skipped")
                )
                for term in table.entries[(k, n)].to_json_obj():
                    writer.writerow(
                        [k, n, term["power"], term["num"], term["exp2"], status]
                    )
    return EXIT_VERIFICATION if mismatches else EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _suite_core() -> list[SumRuleReport]:
    reports = []
    for k in range(0, 7):
        for s in range(-8, 9):
            for M in (0.5, 1.0, 2.0, 5.0):
                closed = b_ks_closed(k, s, M)
                brute = b_ks_brute(k, s, M)
                reports.append(
                    SumRuleReport.from_values(
                        "weighted_product_moment",
                        {"k": k, "s": s, "M": M},
                        closed,
                        brute,
                        truncation_order=0,
                    )
                )
    for k in range(0, 5):
        for q in range(-4, 5):
            for y1, y2 in ((1.0, 0.7), (2.0, -1.3), (0.5, 0.5)):
                lhs, rhs = addition_formula_sides(k, q, y1, y2)
                reports.append(
                    SumRuleReport.from_values(
                        "addition_formula",
                        {"k": k, "q": q, "y1": y1, "y2": y2},
                        lhs,
                        rhs,
                        truncation_order=0,
                    )
                )
    for k in range(0, 4):
        for q in range(-3, 4):
            for y in (0.5, 1.3, 2.0):
                lhs, rhs = alternating_sum_sides(k, q, y)
                reports.append(
                    SumRuleReport.from_values(
                        "alternating_sum",
                        {"k": k, "q": q, "y": y},
                        rhs,
                        lhs,
                        truncation_order=0,
                    )
                )
    for k in (1, 2, 3, 4):
        for q in range(-10, 11):
            for y in (0.3, 1.0, 2.0, 5.0):
                resid = recursion_residual(k, q, y)
                reports.append(
                    SumRuleReport.from_values(
                        "recursion_relation",
                        {"k": k, "q": q, "y": y},
                        0.0,
                        resid,
                        truncation_order=0,
                    )
                )
    return reports


def _suite_generalized() -> list[SumRuleReport]:
    reports = []
    for q in range(-2, 3):
        for x, y in ((1.0, 2.0), (0.5, 0.5), (2.0, 0.0), (0.0, 1.5)):
            lhs, rhs = jcs_sum_rule_sides(q, x, y)
            reports.append(
                SumRuleReport.from_values(
                    "mixed_modulation_moment",
                    {"q": q, "x": x, "y": y},
                    rhs,
                    lhs,
                    truncation_order=0,
                )
            )
    for s in range(-3, 4):
        for y1, y2 in ((2.0, 0.7), (1.0, 0.5), (0.5, 0.0)):
            lhs, rhs = jbar_sum_rule_sides(s, y1, y2)
            reports.append(
                SumRuleReport.from_values(
                    "two_tone_moment",
                    {"s": s, "y1": y1, "y2": y2},
                    complex(rhs),
                    complex(lhs),
                    truncation_order=0,
                )
            )
    mods = [
        ("sinusoidal", GeneralModulation.sinusoidal(1.2, 1.0)),
        ("two_tone", GeneralModulation.two_tone(1.0, 0.5, 1.0)),
        (
            "three_harmonic",
            GeneralModulation(
                {
                    1: -0.4j,
                    -1: 0.4j,
                    2: -0.2j,
                    -2: 0.2j,
                    3: -0.1j,
                    -3: 0.1j,
                },
                1.0,
            ),
        ),
    ]
    for idx, (_, mod) in enumerate(mods):
        for s in range(-2, 3):
            energy, moment, expected = general_modulation_rules(mod, s)
            reports.append(
                SumRuleReport.from_values(
                    "modulation_energy",
                    {"mod": idx, "s": s},
                    complex(1.0 if s == 0 else 0.0),
                    energy,
                    truncation_order=0,
                )
            )
            reports.append(
                SumRuleReport.from_values(
                    "modulation_first_moment",
                    {"mod": idx, "s": s},
                    expected,
                    moment,
                    truncation_order=0,
                )
            )
    return reports


def _suite_spectroscopy() -> list[SumRuleReport]:
    reports = []
    gamma = 1.0
    for M in (0.5, 1.0, 2.0):
        for g_over_o in (0.5, 1.0, 3.0, 10.0):
            Omega = gamma / g_over_o
            for s in (0, 1, 2, 3):
                direct = a_s_direct(s, M, gamma, Omega)
                params = {"M": M, "gamma_over_Omega": g_over_o, "s": s}
                reports.append(
                    SumRuleReport.from_values(
                        "resonant_sum_newberger",
                        params,
                        direct,
                        a_s_newberger(s, M, gamma, Omega),
                        truncation_order=0,
                    )
                )
                reports.append(
                    SumRuleReport.from_values(
                        "resonant_sum_series",
                        params,
                        direct,
                        a_s_series(s, M, gamma, Omega),
                        truncation_order=0,
                    )
                )
    for s in (1, 2, 3):
        for M, Omega in ((0.8, 0.4), (1.5, 1.0), (2.0, 0.2)):
            plus = a_s_direct(s, M, gamma, Omega)
            minus = a_s_direct(-s, M, gamma, Omega)
            reports.append(
                SumRuleReport.from_values(
                    "negative_order_symmetry",
                    {"s": s, "M": M, "Omega": Omega},
                    minus,
                    ((-1) ** (s % 2)) * plus.conjugate(),
                    truncation_order=0,
                )
            )
    return reports


_SUITES = {
    "core": ("core",),
    "generalized": ("generalized",),
    "spectroscopy": ("spectroscopy",),
    "all": ("core", "generalized", "spectroscopy"),
}
_SUITE_BUILDERS = {
    "core": _suite_core,
    "generalized": _suite_generalized,
    "spectroscopy": _suite_spectroscopy,
}


def cmd_verify(args) -> int:
    reports: list[SumRuleReport] = []
    for name in _SUITES[args.suite]:
        reports.extend(_SUITE_BUILDERS[name]())
    passed = [r.passes(args.tolerance) for r in reports]
    if args.format == "json":
        with open(args.output, "w") as fh:
            write_reports_jsonl(reports, fh, extra_fields={"pass": passed})
    else:
        status = ["ok" if ok else "FAIL" for ok in passed]
        with open(args.output, "w", newline="") as fh:
            write_reports_csv(reports, fh, extra_columns={"status": status})
    n_fail = passed.count(False)
    if n_fail:
        print(
            f"{n_fail}/{len(reports)} rules exceeded tolerance {args.tolerance:g}",
            file=sys.stderr,
        )
        return EXIT_VERIFICATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# sidebands
# ---------------------------------------------------------------------------

def _parse_phi_coeffs(text: str) -> dict[int, complex]:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--phi-coeffs is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise ValueError("--phi-coeffs must be a JSON list of [n, re, im]")
    coeffs: dict[int, complex] = {}
    for i, entry in enumerate(raw):
        if (
            not isinstance(entry, list)
            or len(entry) != 3
            or not all(isinstance(v, (int, float)) for v in entry)
        ):
            raise ValueError(
                f"--phi-coeffs entry {i} must be [n, re, im], got {entry!r}"
            )
        n = int(entry[0])
        if n != entry[0]:
            raise ValueError(f"--phi-coeffs entry {i}: n must be an integer")
        coeffs[n] = complex(entry[1], entry[2])
    return coeffs


def cmd_sidebands(args) -> int:
    chosen = [
        args.M is not None,
        args.y1 is not None or args.y2 is not None,
        args.phi_coeffs is not None,
    ]
    if sum(chosen) != 1:
        raise ValueError(
            "specify exactly one modulation: --M, or --y1/--y2, or --phi-coeffs"
        )
    if args.M is not None:
        mod = GeneralModulation.sinusoidal(args.M, args.Omega)
    elif args.phi_coeffs is not None:
        mod = GeneralModulation(_parse_phi_coeffs(args.phi_coeffs), args.Omega)
    else:
        mod = GeneralModulation.two_tone(args.y1 or 0.0, args.y2 or 0.0, args.Omega)

    n_max = auto_sideband_order(mod) if args.n_max is None else args.n_max
    spectrum = general_sidebands(mod, n_max)
    energy = spectrum.energy_sum()

    # trim the emitted range to the significant support
    n_eff = 0
    for n in range(n_max, -1, -1):
        if abs(spectrum[n]) > 1e-14 or abs(spectrum[-n]) > 1e-14:
            n_eff = n
            break

    if args.format == "json":
        obj = {
            "n_max": n_eff,
            "fundamental": mod.fundamental,
            "sample_count": spectrum.sample_count,
            "tail_estimate": spectrum.tail_estimate,
            "energy_sum": energy,
            "rows": [
                {
                    "n": n,
                    "g_re": spectrum[n].real,
                    "g_im": spectrum[n].imag,
                    "g_abs2": abs(spectrum[n]) ** 2,
                }
                for n in range(-n_eff, n_eff + 1)
            ],
        }
        stamp = _stamp_value(args.stamp)
        if stamp:
            obj["stamp"] = stamp
        with open(args.output, "w") as fh:
            fh.write(json.dumps(obj, indent=2) + "\n")
    else:
        with open(args.output, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["n", "g_re", "g_im", "g_abs2"])
            for n in range(-n_eff, n_eff + 1):
                g = spectrum[n]
                writer.writerow([n, _fmt(g.real), _fmt(g.imag), _fmt(abs(g) ** 2)])
            fh.write(f"# energy_sum={_fmt(energy)}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# lineshape
# ---------------------------------------------------------------------------

def _sweep_values(lo: float, hi: float, count: int) -> list[float]:
    if count < 1:
        raise ValueError("--delta-steps must be >= 1")
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _lineshape_point(
    base: OscillatorParams, delta_norm: float, method: str, harmonics: int
) -> HarmonicDecomposition:
    p = OscillatorParams(
        omega0=base.omega0,
        gamma=base.gamma,
        force=base.force,
        delta=0.5 * delta_norm * base.gamma,
        Omega=base.Omega,
        M=base.M,
    )
    if method == "exact":
        return modulated_power_exact(p, harmonics)
    if method == "perturbative":
        dec = modulated_power_perturbative(p)
        cos_amps = list(dec.cos_amps[:harmonics])
        sin_amps = list(dec.sin_amps[:harmonics])
        while len(cos_amps) < harmonics:
            cos_amps.append(0.0)
            sin_amps.append(0.0)
        return HarmonicDecomposition(dec.dc, tuple(cos_amps), tuple(sin_amps))
    mod = GeneralModulation.sinusoidal(p.M, p.Omega)
    return time_domain_oracle(
        p, mod, periods=4, samples_per_period=64, n_harmonics=harmonics
    )


def cmd_lineshape(args) -> int:
    if args.normalized:
        gamma = 1.0
        omega0 = args.omega0_over_gamma
    else:
        gamma = args.gamma
        omega0 = args.omega0
    base = OscillatorParams(
        omega0=omega0,
        gamma=gamma,
        force=args.force,
        delta=0.0,
        Omega=args.Omega,
        M=args.M,
    )
    if args.delta_min is not None or args.delta_max is not None:
        if args.delta_min is None or args.delta_max is None:
            raise ValueError("--delta-min and --delta-max must be given together")
        deltas = _sweep_values(args.delta_min, args.delta_max, args.delta_steps)
    else:
        deltas = [2.0 * args.delta / gamma]

    rows = [_lineshape_point(base, d, args.method, args.harmonics) for d in deltas]

    header = ["delta", "dc"]
    for h in range(1, args.harmonics + 1):
        header += [f"h{h}_cos", f"h{h}_sin"]
    if args.format == "json":
        truncation = (
            truncation_bound(base.M, 1e-18) + args.harmonics + 8
            if args.method == "exact"
            else None
        )
        obj = {
            "method": args.method,
            "params": {
                "omega0": base.omega0,
                "gamma": base.gamma,
                "force": base.force,
                "Omega": base.Omega,
                "M": base.M,
            },
            "harmonics": args.harmonics,
            "truncation_order": truncation,
            "perturbative_valid": base.perturbative_valid,
            "rows": [
                dict(
                    zip(
                        header,
                        [d, dec.dc]
                        + [
                            v
                            for pair in zip(dec.cos_amps, dec.sin_amps)
                            for v in pair
                        ],
                    )
                )
                for d, dec in zip(deltas, rows)
            ],
        }
        stamp = _stamp_value(args.stamp)
        if stamp:
            obj["stamp"] = stamp
        with open(args.output, "w") as fh:
            fh.write(json.dumps(obj, indent=2) + "\n")
    else:
        with open(args.output, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for d, dec in zip(deltas, rows):
                row = [_fmt(d), _fmt(dec.dc)]
                for c, s in zip(dec.cos_amps, dec.sin_amps):
                    row += [_fmt(c), _fmt(s)]
                writer.writerow(row)
    return EXIT_OK


# ---------------------------------------------------------------------------
# a-sum
# ---------------------------------------------------------------------------

def _a_sum_value(method: str, args) -> complex:
    s, M, gamma, Omega = args.s, args.M, args.gamma, args.Omega
    if method == "direct":
        return a_s_direct(s, M, gamma, Omega, tol=args.tol)
    if method == "newberger":
        if s < 0:
            value = a_s_newberger(-s, M, gamma, Omega)
            return ((-1) ** (s % 2)) * value.conjugate()
        return a_s_newberger(s, M, gamma, Omega)
    if method == "series":
        if s < 0:
            value = a_s_series(-s, M, gamma, Omega, k_max=args.k_max)
            return ((-1) ** (s % 2)) * value.conjugate()
        return a_s_series(s, M, gamma, Omega, k_max=args.k_max)
    return a_s_geometric(s, M, gamma, Omega, order=args.order)


def cmd_a_sum(args) -> int:
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    valid = {"direct", "newberger", "series", "geometric"}
    for m in methods:
        if m not in valid:
            raise ValueError(f"unknown method {m!r}; choose from {sorted(valid)}")
    if not methods:
        raise ValueError("at least one method is required")

    values = {m: _a_sum_value(m, args) for m in methods}
    residuals = {}
    for i, m1 in enumerate(methods):
        for m2 in methods[i + 1 :]:
            residuals[f"{m1}/{m2}"] = abs(values[m1] - values[m2])

    expansion = None
    if args.expand:
        coeffs = a_s_eta_coefficients(args.s, args.M, args.order)
        expansion = [
            {"order": k, "re": c.real, "im": c.imag} for k, c in enumerate(coeffs)
        ]

    if args.format == "json":
        obj = {
            "s": args.s,
            "M": args.M,
            "gamma": args.gamma,
            "Omega": args.Omega,
            "values": {
                m: {"re": values[m].real, "im": values[m].imag} for m in methods
            },
            "residuals": {k: residuals[k] for k in sorted(residuals)},
        }
        if expansion is not None:
            obj["eta_coefficients"] = expansion
        stamp = _stamp_value(args.stamp)
        if stamp:
            obj["stamp"] = stamp
        with open(args.output, "w") as fh:
            fh.write(json.dumps(obj, indent=2) + "\n")
    else:
        with open(args.output, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["kind", "name", "re", "im"])
            for m in methods:
                writer.writerow(["value", m, _fmt(values[m].real), _fmt(values[m].imag)])
            for key in sorted(residuals):
                writer.writerow(["residual", key, _fmt(residuals[key]), _fmt(0.0)])
            if expansion is not None:
                for row in expansion:
                    writer.writerow(
                        ["eta_coefficient", str(row["order"]), _fmt(row["re"]), _fmt(row["im"])]
                    )
    # the geometric path is a truncated expansion, so its deviation is
    # informational; only the exact methods gate the exit code
    gated = {
        key: r for key, r in residuals.items() if "geometric" not in key
    }
    breach = any(r > args.tolerance for r in gated.values())
    if breach:
        worst = max(gated.values())
        print(
            f"method residual {worst:.3e} exceeds tolerance {args.tolerance:g}",
            file=sys.stderr,
        )
        return EXIT_VERIFICATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besselrules",
        description="Bessel-product sum rules: tables, checks, spectra, lineshapes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="emit the exact coefficient table")
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", required=True)
    p.add_argument("--stamp", action="store_true")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("verify", help="run sum-rule residual grids")
    p.add_argument(
        "--suite",
        choices=("core", "generalized", "spectroscopy", "all"),
        default="all",
    )
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sidebands", help="emit a sideband spectrum")
    p.add_argument("--M", type=float, default=None, help="sinusoidal modulation index")
    p.add_argument("--y1", type=float, default=None, help="two-tone fundamental index")
    p.add_argument("--y2", type=float, default=None, help="two-tone second-harmonic index")
    p.add_argument(
        "--phi-coeffs",
        default=None,
        help="JSON list of [n, re, im] phase Fourier coefficients",
    )
    p.add_argument("--Omega", type=float, default=1.0)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--output", required=True)
    p.add_argument("--stamp", action="store_true")
    p.set_defaults(func=cmd_sidebands)

    p = sub.add_parser("lineshape", help="emit absorbed-power harmonic sweeps")
    p.add_argument("--omega0", type=float, default=1e6)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--normalized", action="store_true", help="work in units of gamma")
    p.add_argument("--omega0-over-gamma", type=float, default=1e6)
    p.add_argument("--delta", type=float, default=0.0, help="detuning in rad/s")
    p.add_argument(
        "--delta-min",
        type=float,
        default=None,
        help="sweep start in normalized detuning 2 delta / gamma",
    )
    p.add_argument(
        "--delta-max",
        type=float,
        default=None,
        help="sweep end in normalized detuning 2 delta / gamma",
    )
    p.add_argument("--delta-steps", type=int, default=21, help="sweep point count")
    p.add_argument("--Omega", type=float, required=True)
    p.add_argument("--M", type=float, required=True)
    p.add_argument("--force", type=float, default=1.0)
    p.add_argument("--method", choices=("exact", "perturbative", "ode"), default="exact")
    p.add_argument("--harmonics", type=int, default=2)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--output", required=True)
    p.add_argument("--stamp", action="store_true")
    p.set_defaults(func=cmd_lineshape)

    p = sub.add_parser("a-sum", help="evaluate a resonant sideband sum")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--M", type=float, required=True)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--Omega", type=float, required=True)
    p.add_argument("--method", default="direct", help="comma list: direct,newberger,series,geometric")
    p.add_argument("--order", type=int, default=3, help="geometric expansion order")
    p.add_argument("--k-max", type=int, default=40, help="series term count")
    p.add_argument("--tol", type=float, default=1e-14, help="direct-sum truncation tolerance")
    p.add_argument("--tolerance", type=float, default=1e-8, help="cross-method residual bound")
    p.add_argument("--expand", action="store_true", help="emit eta-expansion coefficients")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", required=True)
    p.add_argument("--stamp", action="store_true")
    p.set_defaults(func=cmd_a_sum)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RegimeError, OverflowError, AccuracyError, ConvergenceError, OracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
