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
import dataclasses
import datetime
import functools
import itertools
import json
import math
import sys
import warnings
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from besselrules.bessel_core import ConvergenceError, OracleError, _check_finite
from besselrules.coefficients import (
    MAX_FAA_DI_BRUNO_K,
    _both_signs,
    _flat_terms,
    build_coeff_table,
    coeff_stirling_table,
)
from besselrules.modulation_spectroscopy import (
    OscillatorParams,
    PerturbativeDomainWarning,
    RegimeError,
    _reflected,
    a_s_direct,
    a_s_eta_coefficients,
    a_s_geometric,
    a_s_newberger,
    a_s_series,
    exact_truncation_order,
    modulated_power_exact_sweep,
    modulated_power_perturbative_sweep,
    time_domain_oracle,
)
from besselrules.sum_rules import (
    _REPORT_FIELDS,
    AccuracyError,
    GeneralModulation,
    _addition_grid,
    _alternating_grid,
    _b_ks_grid,
    _jbar_moment_grid,
    _jcs_moment_grid,
    _modulation_moment_grid,
    _recursion_grid,
    auto_sideband_order,
    general_sidebands,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_REGIME = 3


def _utc_stamp() -> str:
    """The value of the "stamp" field that --stamp appends."""
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_json(path: str, head: dict, stamp: bool, key: str | None = None,
                items: Iterable[str] = (), /, **tail: str) -> None:
    """json.dumps(head | {key: [items]} | tail, indent=2) plus a newline, to the
    byte; --stamp appends "stamp", the UTC time, as the last field.

    CPython's indented encoder is pure Python, so the caller lays out each
    item of the list at its depth (four spaces in) from a %-template, and
    the items are written as they come: the document is never held whole.
    json.dumps lays out head (not empty) and tail, whose fields sit at the
    depth they have in the document; without key there is no list, and
    with it at least one item.
    """
    if stamp:
        tail["stamp"] = _utc_stamp()
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(head, indent=2)[:-2])
        if key is not None:
            separator = ",\n  %s: [\n" % json.dumps(key)
            for item in items:
                fh.write(separator + item)
                separator = ",\n"
            fh.write("\n  ]")
        fh.write("," + json.dumps(tail, indent=2)[1:] + "\n" if tail else "\n}\n")


def _json_rows(header: list[str], rows) -> Iterator[str]:
    """The items dict(zip(header, row)) of "rows", laid out for _write_json.

    Each is filled with %r, which writes a finite float or an int as JSON
    does; rows hold nothing else.
    """
    fields = ",\n".join(f"      {json.dumps(name)}: %r" for name in header)
    item = "    {\n" + fields + "\n    }"
    return (item % tuple(row) for row in rows)


def _csv_rows(cells: list[str], rows) -> Iterator[str]:
    """The lines of rows for _write_csv, each cell filled from its %-template.

    "%.17g" writes a float as format(x, ".17g") does, and "%d" or "%s" a
    field that needs no quoting, as no cell does.
    """
    line = ",".join(cells) + "\n"
    return (line % tuple(row) for row in rows)


def _write_csv(path: str, header: list[str], lines: Iterable[str]) -> None:
    """The header line, then the lines as they come, as csv.writer writes them;
    no header name needs quoting."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------

def _coeff_texts(table, term: str, sep: str, mark: str) -> Iterator[tuple[int, int, str]]:
    """(k, n, the terms of D[k, n] as text) for every key of table.entries of a
    CoeffTable, in order.

    term is the %-template of one term (power, num, exp2), in which mark
    comes right before num and nowhere else, and sep joins the terms.  Each
    rows[k][|n|] is reduced once by _flat_terms and its text filled once;
    D[k, -n] takes the same text, with its num signs flipped on the string
    where the mirror negates it, so no number is formatted twice.
    """
    for k, row in enumerate(table.rows):
        texts = []
        for n, cs in enumerate(row):
            flat = _flat_terms(zip(range(n, k + 1, 2), cs))
            texts.append(sep.join([term] * (len(flat) // 3)) % flat)
        for n, text, negated in _both_signs(k, texts):
            if negated:
                text = text.replace(mark, mark + "-").replace(mark + "--", mark)
            if text:
                yield k, n, text


def cmd_coeffs(args) -> int:
    table = build_coeff_table(args.k_max)
    dual_checked = args.k_max <= MAX_FAA_DI_BRUNO_K
    mismatches = set()
    if dual_checked:
        # the Stirling form's negative n check the mirror that _both_signs applies
        stirling = coeff_stirling_table(args.k_max)
        mismatches = {(k, n) for k, row in enumerate(table.rows)
                      for (n, cs, negated), got in zip(_both_signs(k, row), stirling[k])
                      if got != [-c if negated else c for c in cs]}
    unflagged = "ok" if dual_checked else "skipped"

    # every stored entry has at least one term, and (0, 0) is always stored
    if args.format == "json":
        flagged = ";".join(f"({k},{n})" for k, n in sorted(mismatches))
        term = ('        {\n          "power": %d,\n          "num": "%d",\n'
                '          "exp2": %d\n        }')
        item = '    {\n      "k": %d,\n      "n": %d,\n      "poly": [\n%s\n      ]\n    }'
        items = (item % entry for entry in _coeff_texts(table, term, ",\n", '"num": "'))
        _write_json(args.output, {"k_max": table.k_max}, args.stamp, "entries", items,
                    dual_path="mismatch:" + flagged if mismatches else unflagged)
    else:
        def lines():
            # one line k,n,power,num,exp2,dual_path per term; a tab stands in
            # for the comma before num, as no comma tells num from exp2
            for k, n, text in _coeff_texts(table, "%d\t%d,%d", "\n", "\t"):
                head = "%d,%d," % (k, n)
                tail = ",%s\n" % ("mismatch" if (k, n) in mismatches else unflagged)
                yield head + text.replace("\t", ",").replace("\n", tail + head) + tail

        _write_csv(args.output, ["k", "n", "power", "num", "exp2", "dual_path"], lines())
    return EXIT_VERIFICATION if mismatches else EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class _Block(NamedTuple):
    """verify rows that share their parameter names, as columns: the rule id and
    each parameter (by name) as lists of Python str, int and float, whose %r is
    JSON, then both sides as real or complex arrays and n_max as a list of int."""

    rule_ids: list
    params: dict
    closed: np.ndarray
    brute: np.ndarray
    n_max: list


def _family(rule_id: str, kernel, axes: dict, arguments: list[dict]) -> _Block:
    """The rows of one rule family, in the order of the axes, then the arguments.

    kernel(*axis values, *argument values) runs once per argument and
    returns n_max and the closed and brute sides over the grid of the axes.
    """
    sides = [kernel(*axes.values(), *argument.values()) for argument in arguments]
    # the argument index moves fastest, as the sides stacked on a last axis do
    *points, which = zip(*itertools.product(*axes.values(), range(len(arguments))))
    params = dict(zip(axes, map(list, points)))
    params.update((name, [arguments[i][name] for i in which]) for name in arguments[0])
    closed, brute = (np.stack([side[j] for side in sides], axis=-1).ravel() for j in (1, 2))
    return _Block([rule_id] * len(which), params, closed, brute, [sides[i][0] for i in which])


def _rows_block(names: tuple, rows: list[tuple]) -> _Block:
    """One block from rows (rule_id, *parameters by names, closed, brute, n_max)."""
    rule_ids, *params, closed, brute, n_max = map(list, zip(*rows))
    return _Block(rule_ids, dict(zip(names, params)), np.array(closed, dtype=complex),
                  np.array(brute, dtype=complex), n_max)


def _suite_core() -> list[_Block]:
    return [
        _family("weighted_product_moment", _b_ks_grid, {"k": range(7), "s": range(-8, 9)},
                [{"M": M} for M in (0.5, 1.0, 2.0, 5.0)]),
        _family("addition_formula", _addition_grid, {"k": range(5), "q": range(-4, 5)},
                [{"y1": 1.0, "y2": 0.7}, {"y1": 2.0, "y2": -1.3}, {"y1": 0.5, "y2": 0.5}]),
        _family("alternating_sum", _alternating_grid, {"k": range(4), "q": range(-3, 4)},
                [{"y": y} for y in (0.5, 1.3, 2.0)]),
        _family("recursion_relation", _recursion_grid, {"k": (1, 2, 3, 4), "q": range(-10, 11)},
                [{"y": y} for y in (0.3, 1.0, 2.0, 5.0)]),
    ]


# the phases of the modulation_* rows, by their "mod" parameter
_SUITE_MODULATIONS = (
    GeneralModulation.sinusoidal(1.2, 1.0),
    GeneralModulation.two_tone(1.0, 0.5, 1.0),
    GeneralModulation({1: -0.4j, -1: 0.4j, 2: -0.2j, -2: 0.2j, 3: -0.1j, -3: 0.1j}, 1.0),
)


def _suite_generalized() -> list[_Block]:
    rows = []
    lags = range(-2, 3)
    for idx, mod in enumerate(_SUITE_MODULATIONS):
        n_max, energy, moment, expected = _modulation_moment_grid(mod, lags)
        for j, s in enumerate(lags):
            rows.append(("modulation_energy", idx, s, float(s == 0), energy[j], n_max))
            rows.append(("modulation_first_moment", idx, s, expected[j], moment[j], n_max))
    return [
        _family("mixed_modulation_moment", _jcs_moment_grid, {"q": range(-2, 3)},
                [{"x": 1.0, "y": 2.0}, {"x": 0.5, "y": 0.5}, {"x": 2.0, "y": 0.0},
                 {"x": 0.0, "y": 1.5}]),
        _family("two_tone_moment", _jbar_moment_grid, {"s": range(-3, 4)},
                [{"y1": 2.0, "y2": 0.7}, {"y1": 1.0, "y2": 0.5}, {"y1": 0.5, "y2": 0.0}]),
        _rows_block(("mod", "s"), rows),
    ]


def _suite_spectroscopy() -> list[_Block]:
    resonant, symmetric = [], []
    gamma = 1.0
    for M in (0.5, 1.0, 2.0):
        for g_over_o in (0.5, 1.0, 3.0, 10.0):
            Omega = gamma / g_over_o
            for s in (0, 1, 2, 3):
                direct = a_s_direct(s, M, gamma, Omega)
                for rule_id, a_s in (("resonant_sum_newberger", a_s_newberger),
                                     ("resonant_sum_series", a_s_series)):
                    resonant.append((rule_id, M, g_over_o, s, direct, a_s(s, M, gamma, Omega), 0))
    for s in (1, 2, 3):
        for M, Omega in ((0.8, 0.4), (1.5, 1.0), (2.0, 0.2)):
            lhs = a_s_direct(-s, M, gamma, Omega)
            rhs = _reflected(-s, a_s_direct(s, M, gamma, Omega))
            symmetric.append(("negative_order_symmetry", s, M, Omega, lhs, rhs, 0))
    return [_rows_block(("M", "gamma_over_Omega", "s"), resonant),
            _rows_block(("s", "M", "Omega"), symmetric)]


# --suite name -> the block builders it runs, in order
_SUITES = {
    "core": (_suite_core,),
    "generalized": (_suite_generalized,),
    "spectroscopy": (_suite_spectroscopy,),
    "all": (_suite_core, _suite_generalized, _suite_spectroscopy),
}


def _jsonl_rows(names: list[str], rows, finite: list[bool]) -> Iterator[str]:
    """The JSON line of each row (rule_id, *parameters by names, *_REPORT_FIELDS,
    "true" or "false"), as json.dumps writes it.

    Lines are filled with %r, which writes a finite float or an int as JSON
    does, and no rule id or name needs escaping; a row that is not finite
    (%r writes nan, JSON NaN) goes through json.dumps.
    """
    params = ", ".join(f"{json.dumps(name)}: %r" for name in names)
    fields = ", ".join(f"{json.dumps(name)}: %r" for name in _REPORT_FIELDS)
    line = '{"rule_id": "%s", "parameters": {' + params + "}, " + fields + ', "pass": %s}\n'
    for row, ok in zip(rows, finite):
        if ok:
            yield line % row
        else:
            rule_id, *values, passed = row
            yield json.dumps({"rule_id": rule_id, "parameters": dict(zip(names, values)),
                              **dict(zip(_REPORT_FIELDS, values[len(names):])),
                              "pass": passed == "true"}) + "\n"


def cmd_verify(args) -> int:
    _check_finite("--tolerance", args.tolerance, ">= 0")
    blocks = [block for build in _SUITES[args.suite] for block in build()]
    header = sorted({name for block in blocks for name in block.params})
    flag = ("true", "false") if args.format == "json" else ("ok", "FAIL")
    chunks, n_rows, n_fail = [], 0, 0
    for block in blocks:
        names = sorted(block.params)
        params = [block.params[name] for name in names]
        closed, brute = block.closed, block.brute
        # np.hypot is abs() of a Python complex to the bit, where np.abs is not;
        # a side that is not finite warns no more than Python arithmetic does
        with np.errstate(all="ignore"):
            diff = closed - brute
            abs_res = np.hypot(diff.real, diff.imag)
            scale = np.fmax(1.0, np.hypot(closed.real, closed.imag))  # max(1, |closed|)
            passed = abs_res <= args.tolerance * scale
            numbers = [closed.real, closed.imag, brute.real, brute.imag, abs_res, abs_res / scale]
        n_rows += len(passed)
        n_fail += len(passed) - int(passed.sum())
        rows = zip(block.rule_ids, *params, *(c.tolist() for c in numbers), block.n_max,
                   np.where(passed, *flag).tolist())
        if args.format == "json":
            finite = np.logical_and.reduce([np.isfinite(c) for c in (*params, *numbers)])
            chunks.append(_jsonl_rows(names, rows, finite.tolist()))
        else:
            cells = ["%s", *("%.17g" if name in block.params else "" for name in header),
                     *["%.17g"] * 6, "%d", "%s"]
            chunks.append(_csv_rows(cells, rows))
    if args.format == "json":
        with open(args.output, "w", newline="") as fh:
            fh.writelines(itertools.chain(*chunks))
    else:
        _write_csv(args.output, ["rule_id", *header, *_REPORT_FIELDS, "status"],
                   itertools.chain(*chunks))
    if n_fail:
        print(f"{n_fail}/{n_rows} rules exceeded tolerance {args.tolerance:g}", file=sys.stderr)
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
    for name, value in (("--M", args.M), ("--y1", args.y1), ("--y2", args.y2)):
        if value is not None:
            _check_finite(name, value)
    _check_finite("--Omega", args.Omega, "> 0")
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
    reach = np.flatnonzero(np.abs(spectrum.values) > 1e-14) - n_max
    n_eff = int(np.abs(reach).max(initial=0))

    rows = [
        (n, spectrum[n].real, spectrum[n].imag, abs(spectrum[n]) ** 2)
        for n in range(-n_eff, n_eff + 1)
    ]
    header = ["n", "g_re", "g_im", "g_abs2"]
    if args.format == "json":
        head = {
            "n_max": n_eff,
            "fundamental": mod.fundamental,
            "sample_count": spectrum.sample_count,
            "tail_estimate": spectrum.tail_estimate,
            "energy_sum": energy,
        }
        _write_json(args.output, head, args.stamp, "rows", _json_rows(header, rows))
    else:
        # the footer is a one-field row, which csv.writer leaves unquoted
        lines = _csv_rows(["%d", "%.17g", "%.17g", "%.17g"], rows)
        _write_csv(args.output, header, [*lines, "# energy_sum=%.17g\n" % energy])
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


def _lineshape_rows(
    base: OscillatorParams, deltas: list[float], rad: list[float], method: str,
    harmonics: int,
) -> list:
    """Rows [delta, dc, h1_cos, h1_sin, ...] at the detunings rad (rad/s), whose
    normalized values deltas fill the delta column.

    The sweeps give columns, which fill one table; the harmonics past the
    two of perturbative are zeros.  The oracle runs per detuning.
    """
    if method == "ode":
        mod = GeneralModulation.sinusoidal(base.M, base.Omega)
        rows = []
        for d, delta in zip(deltas, rad):
            dec = time_domain_oracle(
                dataclasses.replace(base, delta=delta), mod, n_harmonics=harmonics
            )
            rows.append([d, dec.dc, *itertools.chain(*zip(dec.cos_amps, dec.sin_amps))])
        return rows
    if method == "exact":
        dc, cos_amps, sin_amps = modulated_power_exact_sweep(base, rad, harmonics)
    else:
        dc, cos_amps, sin_amps = modulated_power_perturbative_sweep(base, rad)
    shown = min(harmonics, cos_amps.shape[1])
    table = np.zeros((len(deltas), 2 + 2 * harmonics))
    table[:, 0] = deltas
    table[:, 1] = dc
    table[:, 2 : 2 + 2 * shown : 2] = cos_amps[:, :shown]
    table[:, 3 : 3 + 2 * shown : 2] = sin_amps[:, :shown]
    return table.tolist()


def cmd_lineshape(args) -> int:
    if args.harmonics < 0:
        raise ValueError(f"--harmonics must be >= 0, got {args.harmonics}")
    base = OscillatorParams(
        omega0=args.omega0,
        gamma=args.gamma,
        force=args.force,
        delta=0.0,
        Omega=args.Omega,
        M=args.M,
    )
    if args.delta_min is not None or args.delta_max is not None:
        if args.delta_min is None or args.delta_max is None:
            raise ValueError("--delta-min and --delta-max must be given together")
        deltas = _sweep_values(args.delta_min, args.delta_max, args.delta_steps)
        rad = [0.5 * d * base.gamma for d in deltas]
    else:
        deltas, rad = [2.0 * args.delta / args.gamma], [args.delta]
        if math.isfinite(args.delta) and not math.isfinite(deltas[0]):
            raise ValueError(
                f"--delta {args.delta!r} over --gamma {args.gamma!r} overflows 2 delta / gamma")

    rows = _lineshape_rows(base, deltas, rad, args.method, args.harmonics)

    header = ["delta", "dc"]
    for h in range(1, args.harmonics + 1):
        header += [f"h{h}_cos", f"h{h}_sin"]
    if args.format == "json":
        head = {
            "method": args.method,
            "params": {
                name: value for name, value in dataclasses.asdict(base).items()
                if name != "delta"
            },
            "harmonics": args.harmonics,
            "truncation_order": (
                exact_truncation_order(base.M, args.harmonics)
                if args.method == "exact"
                else None
            ),
            "perturbative_valid": base.perturbative_valid,
        }
        _write_json(args.output, head, args.stamp, "rows", _json_rows(header, rows))
    else:
        _write_csv(args.output, header, _csv_rows(["%.17g"] * len(header), rows))
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
    _check_finite("--tolerance", args.tolerance, ">= 0")
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    for m in methods:
        if m not in _A_SUM_METHODS:
            raise ValueError(
                f"unknown method {m!r}; choose from {sorted(_A_SUM_METHODS)}"
            )
    if not methods:
        raise ValueError("at least one method is required")

    values = {m: _A_SUM_METHODS[m](args) for m in methods}
    residuals = {
        f"{m1}/{m2}": abs(values[m1] - values[m2])
        for m1, m2 in itertools.combinations(methods, 2)
    }

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
        rows = [("value", m, values[m].real, values[m].imag) for m in methods]
        rows += [("residual", key, residuals[key], 0.0) for key in sorted(residuals)]
        rows += [("eta_coefficient", c["order"], c["re"], c["im"]) for c in expansion or ()]
        _write_csv(args.output, ["kind", "name", "re", "im"],
                   _csv_rows(["%s", "%s", "%.17g", "%.17g"], rows))
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


def _value_options(parser: argparse.ArgumentParser) -> set[str]:
    """The option strings of parser and its commands that take a value."""
    options = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for command in action.choices.values():
                options |= _value_options(command)
        elif action.nargs != 0:
            options.update(action.option_strings)
    return options


def build_parser() -> argparse.ArgumentParser:
    # options must be spelled in full, so that "--tol" is not read as "--tolerance"
    parser = argparse.ArgumentParser(
        prog="besselrules",
        description="Bessel-product sum rules: tables, checks, spectra, lineshapes",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    def add_file_options(p, default_format: str, stamp: bool = True) -> None:
        """--format, --output and --stamp; called after the command's own options,
        so that --help lists them last."""
        p.add_argument("--format", choices=("json", "csv"), default=default_format)
        p.add_argument("--output", required=True)
        if stamp:
            p.add_argument("--stamp", action="store_true")

    p = sub.add_parser("coeffs", help="emit the exact coefficient table")
    p.add_argument("--k-max", type=int, required=True)
    add_file_options(p, "json")

    p = sub.add_parser("verify", help="run sum-rule residual grids")
    p.add_argument(
        "--suite",
        choices=tuple(_SUITES),
        default="all",
    )
    p.add_argument("--tolerance", type=float, default=1e-9)
    add_file_options(p, "csv", stamp=False)

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
    add_file_options(p, "csv")

    p = sub.add_parser("lineshape", help="emit absorbed-power harmonic sweeps")
    p.add_argument("--omega0", type=float, default=1e6)
    p.add_argument("--gamma", type=float, default=1.0)
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
    add_file_options(p, "csv")

    p = sub.add_parser("a-sum", help="evaluate a resonant sideband sum")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--M", type=float, required=True)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--Omega", type=float, required=True)
    p.add_argument("--method", default="direct", help="comma list: " + ",".join(_A_SUM_METHODS))
    p.add_argument("--order", type=int, default=3, help="geometric expansion order")
    p.add_argument("--tolerance", type=float, default=1e-8, help="cross-method residual bound")
    p.add_argument("--expand", action="store_true", help="emit eta-expansion coefficients")
    add_file_options(p, "json")

    return parser


# built once per process: every main() call parses with it
_PARSER = build_parser()
_VALUE_OPTIONS = _value_options(_PARSER)


def main(argv: list[str] | None = None) -> int:
    # argparse reads "-5" and "-0.5" as values but "-1e-3" as an option, so an
    # option that takes a value is joined to a negative number after it:
    # "--delta-min=-1e-3" is always one option and its value; a flag never is
    joined: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        if joined and joined[-1] in _VALUE_OPTIONS and _is_negative_number(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    args = _PARSER.parse_args(joined)
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
