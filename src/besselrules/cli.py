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
import dataclasses
import datetime
import json
import math
import sys
import warnings

from besselrules.bessel_core import ConvergenceError, OracleError
from besselrules.coefficients import (
    MAX_FAA_DI_BRUNO_K,
    build_coeff_table,
    coeff_faa_di_bruno,
)
from besselrules.modulation_spectroscopy import (
    HarmonicDecomposition,
    OscillatorParams,
    PerturbativeDomainWarning,
    RegimeError,
    a_s_direct,
    a_s_eta_coefficients,
    a_s_geometric,
    a_s_newberger,
    a_s_series,
    exact_truncation_order,
    modulated_power_exact_sweep,
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


def _utc_stamp() -> str:
    """The value of the "stamp" field that --stamp appends."""
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_json(path: str, obj: dict, stamp: bool) -> None:
    """Indented JSON with a trailing newline; --stamp appends the UTC time."""
    if stamp:
        obj["stamp"] = _utc_stamp()
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _check_tolerance(tolerance: float) -> None:
    # every comparison with NaN is false, so a NaN bound would gate nothing
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"--tolerance must be finite and >= 0, got {tolerance:g}")


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------

def cmd_coeffs(args) -> int:
    table = build_coeff_table(args.k_max)
    dual_checked = args.k_max <= MAX_FAA_DI_BRUNO_K
    mismatches = {
        (k, n)
        for k in range(1, args.k_max + 1)
        for n in range(-k, k + 1)
        if dual_checked and coeff_faa_di_bruno(k, n) != table.entry(k, n)
    }
    unflagged = "ok" if dual_checked else "skipped"

    if args.format == "json":
        trailing = {
            "dual_path": (
                "mismatch:" + ";".join(f"({k},{n})" for k, n in sorted(mismatches))
                if mismatches
                else unflagged
            )
        }
        if args.stamp:
            trailing["stamp"] = _utc_stamp()
        with open(args.output, "w") as fh:
            fh.write(table.to_json_text(**trailing))
    else:
        # no field needs quoting, so each row is the line csv.writer writes
        lines = ["k,n,power,num,exp2,dual_path\n"]
        for (k, n), poly in sorted(table.entries.items()):
            flag = "mismatch" if (k, n) in mismatches else unflagged
            row = "%d,%d,%%d,%%d,%%d,%s\n" % (k, n, flag)
            lines += [row % term for term in poly.terms()]
        with open(args.output, "w", newline="") as fh:
            fh.write("".join(lines))
    return EXIT_VERIFICATION if mismatches else EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _report(rule_id: str, closed: complex, brute: complex, **params: float) -> SumRuleReport:
    return SumRuleReport.from_values(rule_id, params, closed, brute, truncation_order=0)


def _suite_core() -> list[SumRuleReport]:
    reports = []
    for k in range(0, 7):
        for s in range(-8, 9):
            for M in (0.5, 1.0, 2.0, 5.0):
                closed, brute = b_ks_closed(k, s, M), b_ks_brute(k, s, M)
                reports.append(_report("weighted_product_moment", closed, brute, k=k, s=s, M=M))
    for k in range(0, 5):
        for q in range(-4, 5):
            for y1, y2 in ((1.0, 0.7), (2.0, -1.3), (0.5, 0.5)):
                lhs, rhs = addition_formula_sides(k, q, y1, y2)
                reports.append(_report("addition_formula", lhs, rhs, k=k, q=q, y1=y1, y2=y2))
    for k in range(0, 4):
        for q in range(-3, 4):
            for y in (0.5, 1.3, 2.0):
                lhs, rhs = alternating_sum_sides(k, q, y)
                reports.append(_report("alternating_sum", rhs, lhs, k=k, q=q, y=y))
    for k in (1, 2, 3, 4):
        for q in range(-10, 11):
            for y in (0.3, 1.0, 2.0, 5.0):
                resid = recursion_residual(k, q, y)
                reports.append(_report("recursion_relation", 0.0, resid, k=k, q=q, y=y))
    return reports


def _suite_generalized() -> list[SumRuleReport]:
    reports = []
    for q in range(-2, 3):
        for x, y in ((1.0, 2.0), (0.5, 0.5), (2.0, 0.0), (0.0, 1.5)):
            lhs, rhs = jcs_sum_rule_sides(q, x, y)
            reports.append(_report("mixed_modulation_moment", rhs, lhs, q=q, x=x, y=y))
    for s in range(-3, 4):
        for y1, y2 in ((2.0, 0.7), (1.0, 0.5), (0.5, 0.0)):
            lhs, rhs = jbar_sum_rule_sides(s, y1, y2)
            reports.append(_report("two_tone_moment", rhs, lhs, s=s, y1=y1, y2=y2))
    mods = [
        GeneralModulation.sinusoidal(1.2, 1.0),
        GeneralModulation.two_tone(1.0, 0.5, 1.0),
        GeneralModulation({1: -0.4j, -1: 0.4j, 2: -0.2j, -2: 0.2j, 3: -0.1j, -3: 0.1j}, 1.0),
    ]
    for idx, mod in enumerate(mods):
        for s in range(-2, 3):
            energy, moment, expected = general_modulation_rules(mod, s)
            delta = complex(1.0 if s == 0 else 0.0)
            reports.append(_report("modulation_energy", delta, energy, mod=idx, s=s))
            reports.append(_report("modulation_first_moment", expected, moment, mod=idx, s=s))
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
                newberger = a_s_newberger(s, M, gamma, Omega)
                series = a_s_series(s, M, gamma, Omega)
                reports.append(_report("resonant_sum_newberger", direct, newberger, **params))
                reports.append(_report("resonant_sum_series", direct, series, **params))
    for s in (1, 2, 3):
        for M, Omega in ((0.8, 0.4), (1.5, 1.0), (2.0, 0.2)):
            lhs = a_s_direct(-s, M, gamma, Omega)
            rhs = ((-1) ** (s % 2)) * a_s_direct(s, M, gamma, Omega).conjugate()
            reports.append(_report("negative_order_symmetry", lhs, rhs, s=s, M=M, Omega=Omega))
    return reports


# --suite name -> the report builders it runs, in order
_SUITES = {
    "core": (_suite_core,),
    "generalized": (_suite_generalized,),
    "spectroscopy": (_suite_spectroscopy,),
    "all": (_suite_core, _suite_generalized, _suite_spectroscopy),
}


def cmd_verify(args) -> int:
    _check_tolerance(args.tolerance)
    reports: list[SumRuleReport] = []
    for build in _SUITES[args.suite]:
        reports.extend(build())
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
            or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry
            )
        ):
            raise ValueError(
                f"--phi-coeffs entry {i} must be [n, re, im], got {entry!r}"
            )
        if isinstance(entry[0], float) and not entry[0].is_integer():
            raise ValueError(f"--phi-coeffs entry {i}: n must be an integer")
        coeffs[int(entry[0])] = complex(entry[1], entry[2])
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

    rows = [
        [n, spectrum[n].real, spectrum[n].imag, abs(spectrum[n]) ** 2]
        for n in range(-n_eff, n_eff + 1)
    ]
    header = ["n", "g_re", "g_im", "g_abs2"]
    if args.format == "json":
        obj = {
            "n_max": n_eff,
            "fundamental": mod.fundamental,
            "sample_count": spectrum.sample_count,
            "tail_estimate": spectrum.tail_estimate,
            "energy_sum": energy,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        _write_json(args.output, obj, args.stamp)
    else:
        # the footer is a one-field row, which the csv writer leaves unquoted
        _write_csv(
            args.output,
            header,
            [[n, _fmt(re), _fmt(im), _fmt(a2)] for n, re, im, a2 in rows]
            + [[f"# energy_sum={_fmt(energy)}"]],
        )
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
    if not math.isfinite(step):
        raise ValueError(f"--delta-min and --delta-max give a non-finite step {step!r}")
    return [lo + i * step for i in range(count)]


def _lineshape_point(
    base: OscillatorParams, delta_norm: float, method: str, harmonics: int
) -> HarmonicDecomposition:
    p = dataclasses.replace(base, delta=0.5 * delta_norm * base.gamma)
    if method == "perturbative":
        dec = modulated_power_perturbative(p)
        pad = (0.0,) * (harmonics - dec.n_harmonics)
        return HarmonicDecomposition(
            dec.dc, dec.cos_amps[:harmonics] + pad, dec.sin_amps[:harmonics] + pad
        )
    mod = GeneralModulation.sinusoidal(p.M, p.Omega)
    return time_domain_oracle(p, mod, samples_per_period=64, n_harmonics=harmonics)


def cmd_lineshape(args) -> int:
    if args.harmonics < 0:
        raise ValueError(f"--harmonics must be >= 0, got {args.harmonics}")
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

    if args.method == "exact":
        decs = modulated_power_exact_sweep(
            base, [0.5 * d * gamma for d in deltas], args.harmonics
        )
    else:
        decs = [_lineshape_point(base, d, args.method, args.harmonics) for d in deltas]
    rows = [
        [d, dec.dc] + [v for pair in zip(dec.cos_amps, dec.sin_amps) for v in pair]
        for d, dec in zip(deltas, decs)
    ]

    header = ["delta", "dc"]
    for h in range(1, args.harmonics + 1):
        header += [f"h{h}_cos", f"h{h}_sin"]
    if args.format == "json":
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
            "truncation_order": (
                exact_truncation_order(base.M, args.harmonics)
                if args.method == "exact"
                else None
            ),
            "perturbative_valid": base.perturbative_valid,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        _write_json(args.output, obj, args.stamp)
    else:
        _write_csv(args.output, header, ([_fmt(v) for v in row] for row in rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# a-sum
# ---------------------------------------------------------------------------

# --method name -> A_s from the parsed arguments, in --method help order
_A_SUM_METHODS = {
    "direct": lambda a: a_s_direct(a.s, a.M, a.gamma, a.Omega),
    "newberger": lambda a: a_s_newberger(a.s, a.M, a.gamma, a.Omega),
    "series": lambda a: a_s_series(a.s, a.M, a.gamma, a.Omega),
    "geometric": lambda a: a_s_geometric(a.s, a.M, a.gamma, a.Omega, order=a.order),
}


def cmd_a_sum(args) -> int:
    _check_tolerance(args.tolerance)
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    for m in methods:
        if m not in _A_SUM_METHODS:
            raise ValueError(
                f"unknown method {m!r}; choose from {sorted(_A_SUM_METHODS)}"
            )
    if not methods:
        raise ValueError("at least one method is required")

    values = {m: _A_SUM_METHODS[m](args) for m in methods}
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
        _write_json(args.output, obj, args.stamp)
    else:
        rows = [["value", m, values[m].real, values[m].imag] for m in methods]
        rows += [["residual", key, residuals[key], 0.0] for key in sorted(residuals)]
        rows += [
            ["eta_coefficient", str(c["order"]), c["re"], c["im"]]
            for c in expansion or ()
        ]
        _write_csv(
            args.output,
            ["kind", "name", "re", "im"],
            ([kind, name, _fmt(re), _fmt(im)] for kind, name, re, im in rows),
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

def _is_negative_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return token.startswith("-")


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser that reads "-1e-3" as the value of a float option.

    argparse takes only tokens shaped like "-5" or "-0.5" for negative
    numbers; any other token that starts with "-" counts as an option, so
    "--delta-min -1e-3" fails with "expected one argument".  Before
    parsing, each float option is joined to a negative value that follows
    it ("--delta-min=-1e-3"), a form argparse always reads as one option
    and its value.  Options must be spelled in full, so that "--tol" is
    not read as "--tolerance".  Subcommand parsers share this class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self.float_options: set[str] = set()

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if kwargs.get("type") is float:
            self.float_options.update(action.option_strings)
        return action

    def parse_known_args(self, args=None, namespace=None):
        joined: list[str] = []
        for token in sys.argv[1:] if args is None else args:
            follows_float = joined and joined[-1] in self.float_options
            if follows_float and _is_negative_number(token):
                joined[-1] += "=" + token
            else:
                joined.append(token)
        return super().parse_known_args(joined, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="besselrules",
        description="Bessel-product sum rules: tables, checks, spectra, lineshapes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="emit the exact coefficient table")
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", required=True)
    p.add_argument("--stamp", action="store_true")

    p = sub.add_parser("verify", help="run sum-rule residual grids")
    p.add_argument(
        "--suite",
        choices=tuple(_SUITES),
        default="all",
    )
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--output", required=True)

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

    p = sub.add_parser("a-sum", help="evaluate a resonant sideband sum")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--M", type=float, required=True)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--Omega", type=float, required=True)
    p.add_argument("--method", default="direct", help="comma list: " + ",".join(_A_SUM_METHODS))
    p.add_argument("--order", type=int, default=3, help="geometric expansion order")
    p.add_argument("--tolerance", type=float, default=1e-8, help="cross-method residual bound")
    p.add_argument("--expand", action="store_true", help="emit eta-expansion coefficients")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", required=True)
    p.add_argument("--stamp", action="store_true")

    return parser


# built once per process: every main() call parses with it
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    # looked up per call, so that a cmd_* replaced after import is the one run
    command = globals()["cmd_" + args.command.replace("-", "_")]
    with warnings.catch_warnings():
        # each distinct domain warning is one "warning:" line, however many
        # points of a sweep raise it; other warnings keep Python's format
        warnings.simplefilter("always", PerturbativeDomainWarning)
        show_other = warnings.showwarning
        shown: set[str] = set()

        def show(message, category, *where):
            if not issubclass(category, PerturbativeDomainWarning):
                show_other(message, category, *where)
            elif str(message) not in shown:
                shown.add(str(message))
                print(f"warning: {message}", file=sys.stderr)

        warnings.showwarning = show
        try:
            return command(args)
        except (
            RegimeError, OverflowError, AccuracyError, ConvergenceError, OracleError
        ) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_REGIME
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
