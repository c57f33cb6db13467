"""Command-line front end: file contents, determinism, exit codes."""

import csv
import datetime
import io
import json
import math
import time
import tracemalloc
import unittest.mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselrules import bessel_core, cli, sum_rules
from besselrules.bessel_core import bessel_j_int, truncation_bound
from besselrules.cli import main
from besselrules.coefficients import CoeffTable, DyadicPoly, build_coeff_table
from besselrules.modulation_spectroscopy import (
    OscillatorParams,
    a_s_direct,
    modulated_power_exact,
    modulated_power_perturbative,
    time_domain_oracle,
)
from besselrules.sum_rules import (
    GeneralModulation,
    SumRuleReport,
    addition_formula_sides,
    alternating_sum_sides,
    auto_sideband_order,
    b_ks_brute,
    b_ks_closed,
    general_modulation_rules,
    jbar,
    jbar_sum_rule_sides,
    jcs_sum_rule_sides,
    recursion_residual,
    write_reports_csv,
    write_reports_jsonl,
)


# the value that --stamp writes, wherever _utc_stamp is patched
STAMP = "2026-01-01T00:00:00+00:00"


def run(*argv) -> int:
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(row for row in fh if not row.startswith("#")))


def coeffs_json_reference(table: CoeffTable, **trailing) -> str:
    """The coefficient table as the indented JSON encoder writes it."""
    return json.dumps(table.to_json_obj() | trailing, indent=2) + "\n"


def coeffs_csv_reference(table: CoeffTable, flag_of) -> str:
    """The coefficient table as csv.writer writes it; flag_of(k, n) is dual_path."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["k", "n", "power", "num", "exp2", "dual_path"])
    for entry in table.to_json_obj()["entries"]:
        k, n = entry["k"], entry["n"]
        for t in entry["poly"]:
            writer.writerow([k, n, t["power"], t["num"], t["exp2"], flag_of(k, n)])
    return fh.getvalue()


def stirling_rows(table: CoeffTable, flagged=()) -> list:
    """table's rows on both signs of n, D[k, -n] = (-1)^(k+n) D[k, n], in the
    layout of coeff_stirling_table, with 7 added to the first c of each
    flagged (k, n)."""
    rows = [
        [[-c if n < 0 and (k + n) % 2 else c for c in row[abs(n)]] for n in range(-k, k + 1)]
        for k, row in enumerate(table.rows)
    ]
    for k, n in flagged:
        rows[k][n + k][0] += 7
    return rows


class TestCoeffsCommand:
    @pytest.mark.parametrize("k_max", [0, 1, 3, 5, 20, 31, 63, 64])
    def test_files_match_the_generic_writers(self, tmp_path, monkeypatch, k_max):
        monkeypatch.setattr(cli, "_utc_stamp", lambda: STAMP)
        flag = "ok" if k_max <= 30 else "skipped"
        table = build_coeff_table(k_max)
        for stamp in ((), ("--stamp",)):
            out = tmp_path / "coeffs.json"
            assert run("coeffs", "--k-max", str(k_max), *stamp, "--output", str(out)) == 0
            trailing = {"dual_path": flag} | ({"stamp": STAMP} if stamp else {})
            assert out.read_bytes() == coeffs_json_reference(table, **trailing).encode()
            # a CSV file has no stamp
            out = tmp_path / "coeffs.csv"
            assert run(
                "coeffs", "--k-max", str(k_max), "--format", "csv", *stamp, "--output", str(out)
            ) == 0
            want = coeffs_csv_reference(table, lambda k, n: flag)
            assert out.read_bytes() == want.encode()

    def test_writers_do_not_hold_the_file_in_memory(self, tmp_path):
        # with the table cached, the peak is the writer's own: the whole
        # k = 64 document would be 5.7 MB as JSON and 2.4 MB as CSV
        build_coeff_table(64)
        for fmt in ("json", "csv"):
            out = tmp_path / f"coeffs.{fmt}"
            tracemalloc.start()
            try:
                code = run("coeffs", "--k-max", "64", "--format", fmt, "--output", str(out))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert peak < 2 * 2**20, (fmt, peak)

    def test_stamp_is_the_last_field(self, tmp_path):
        out = tmp_path / "coeffs.json"
        assert run("coeffs", "--k-max", "3", "--stamp", "--output", str(out)) == 0
        obj = json.loads(out.read_text())
        assert list(obj) == ["k_max", "entries", "dual_path", "stamp"]
        stamp = datetime.datetime.fromisoformat(obj["stamp"])
        assert stamp.utcoffset() == datetime.timedelta(0)
        want = coeffs_json_reference(build_coeff_table(3), dual_path="ok", stamp=obj["stamp"])
        assert out.read_text() == want

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_forced_mismatch_is_flagged(self, tmp_path, monkeypatch, fmt):
        real = cli.coeff_stirling_table

        def disagree_at_3_1(k_max):
            rows = real(k_max)
            rows[3][1 + 3][0] += 7
            return rows

        monkeypatch.setattr(cli, "coeff_stirling_table", disagree_at_3_1)
        out = tmp_path / f"coeffs.{fmt}"
        code = run("coeffs", "--k-max", "5", "--format", fmt, "--output", str(out))
        assert code == 1
        if fmt == "json":
            want = coeffs_json_reference(build_coeff_table(5), dual_path="mismatch:(3,1)")
        else:
            want = coeffs_csv_reference(
                build_coeff_table(5), lambda k, n: "mismatch" if (k, n) == (3, 1) else "ok"
            )
            # D[3, 1] = y/2 + 3 y^3/8, the only flagged rows
            assert want.count("mismatch") == 2
            assert "\n3,1,1,1,1,mismatch\n3,1,3,3,3,mismatch\n" in want
        assert out.read_text() == want

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_mirror_only_fault_is_flagged(self, tmp_path, monkeypatch, fmt):
        # equal to the table for n >= 0; at (3, -1) the mirror sign is wrong,
        # D[3, -1] = +D[3, 1], so only the negative half can catch it
        table = build_coeff_table(5)
        rows = stirling_rows(table)
        assert rows[3][-1 + 3] == rows[3][1 + 3] == [1, 3]
        rows[3][-1 + 3] = [-1, -3]
        monkeypatch.setattr(cli, "coeff_stirling_table", lambda k_max: rows)
        out = tmp_path / f"coeffs.{fmt}"
        assert run("coeffs", "--k-max", "5", "--format", fmt, "--output", str(out)) == 1
        if fmt == "json":
            want = coeffs_json_reference(table, dual_path="mismatch:(3,-1)")
        else:
            want = coeffs_csv_reference(
                table, lambda k, n: "mismatch" if (k, n) == (3, -1) else "ok"
            )
            assert want.count("mismatch") == 2
            assert "\n3,-1,1,1,1,mismatch\n3,-1,3,3,3,mismatch\n" in want
        assert out.read_text() == want

    def test_builds_no_entries_map(self, tmp_path):
        # the dual-path check and the writers read the rows alone
        build_coeff_table.cache_clear()
        out = tmp_path / "coeffs.json"
        assert run("coeffs", "--k-max", "20", "--output", str(out)) == 0
        assert json.loads(out.read_text())["dual_path"] == "ok"
        assert "entries" not in vars(build_coeff_table(20))

    def test_evaluators_build_no_entries_map(self, tmp_path):
        # b_ks_closed, the verify suites and the eta coefficients evaluate
        # the table from its rows alone
        build_coeff_table.cache_clear()
        for k in range(65):
            b_ks_closed(k, 0, 1.0)
        assert run("verify", "--suite", "all", "--output", str(tmp_path / "v.csv")) == 0
        out = tmp_path / "a.json"
        assert run("a-sum", "--s", "2", "--M", "0.5", "--Omega", "0.01", "--method",
                   "geometric", "--order", "64", "--expand", "--output", str(out)) == 0
        assert len(json.loads(out.read_text())["eta_coefficients"]) == 65
        assert not [k for k in range(65) if "entries" in vars(build_coeff_table(k))]

    def test_writers_reduce_each_object_by_value(self, tmp_path, monkeypatch):
        # hand-built rows as well as the recursion's: zeros inside a row, an
        # all-zero row, odd and even k + n, numbers past 64 bits, and several
        # terms in a negated mirror; no c is negative, as in the recursion's
        # rows; each row is reduced once and its mirror read back by sign
        tables = {
            "the k = 3 table": build_coeff_table(3),
            "hand-built rows": CoeffTable([
                [[1]], [[0], [2]], [[0, 0], [6], [2**70 + 4]],
                [[4, 0], [0, 12], [0], [3 * 2**65]],
                [[0, 8, 0], [5, 2**67 + 12], [0, 0], [1], [0]],
            ]),
        }
        entries = tables["hand-built rows"].entries
        assert entries[(2, -1)] == DyadicPoly({1: -6})
        assert entries[(3, -1)] == entries[(3, 1)] == DyadicPoly({3: 12})
        assert entries[(4, -1)] == DyadicPoly({1: -5, 3: -(2**67 + 12)})
        assert entries[(4, -3)] == DyadicPoly({3: -1})
        assert {(1, 0), (3, 2), (3, -2), (4, 2), (4, -2), (4, 4)}.isdisjoint(entries)
        # D[3, 0] of the k = 3 table and D[4, 2] of the hand-built rows are
        # all zero: a file names their mismatch, but no CSV row can carry it
        all_flagged = {
            "the k = 3 table": ((3, 0), (3, 1)),
            "hand-built rows": ((0, 0), (3, 1), (4, -1), (4, 0), (4, 2)),
        }
        cases = [(name, table, flagged) for name, table in tables.items()
                 for flagged in ((), all_flagged[name])]
        for name, table, flagged in cases:
            # the dual path disagrees at the flagged keys and nowhere else
            monkeypatch.setattr(cli, "build_coeff_table", lambda k_max: table)
            monkeypatch.setattr(cli, "coeff_stirling_table",
                                lambda k_max: stirling_rows(table, flagged))
            dual_path = "mismatch:" + ";".join(f"({k},{n})" for k, n in flagged) if flagged else "ok"
            wants = {
                "json": coeffs_json_reference(table, dual_path=dual_path),
                "csv": coeffs_csv_reference(
                    table, lambda k, n: "mismatch" if (k, n) in flagged else "ok"
                ),
            }
            for fmt, want in wants.items():
                out = tmp_path / f"coeffs.{fmt}"
                argv = ("coeffs", "--k-max", str(table.k_max), "--format", fmt)
                assert run(*argv, "--output", str(out)) == (1 if flagged else 0)
                assert out.read_text() == want, (name, flagged, fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_writers_reduce_each_stored_row_once(self, tmp_path, monkeypatch, fmt):
        # 66 stored rows n = 0..k for k <= 10; one reduction per (k, n) would
        # take 121
        reduced = []

        def counting(terms):
            reduced.append(None)
            return real(terms)

        real = cli._flat_terms
        monkeypatch.setattr(cli, "_flat_terms", counting)
        out = tmp_path / f"coeffs.{fmt}"
        assert run("coeffs", "--k-max", "10", "--format", fmt, "--output", str(out)) == 0
        assert len(reduced) == 66

    def test_json_pins_quartic_entry(self, tmp_path):
        out = tmp_path / "coeffs.json"
        assert run("coeffs", "--k-max", "4", "--format", "json", "--output", str(out)) == 0
        obj = json.loads(out.read_text())
        assert obj["k_max"] == 4
        assert obj["dual_path"] == "ok"
        entry = next(e for e in obj["entries"] if e["k"] == 4 and e["n"] == 0)
        assert {"power": 4, "num": "3", "exp2": 3} in entry["poly"]
        assert {"power": 2, "num": "1", "exp2": 1} in entry["poly"]

    def test_trivial_table(self, tmp_path):
        out = tmp_path / "coeffs.json"
        assert run("coeffs", "--k-max", "0", "--output", str(out)) == 0
        obj = json.loads(out.read_text())
        assert len(obj["entries"]) == 1

    def test_csv_dual_path_through_k10(self, tmp_path):
        out = tmp_path / "coeffs.csv"
        assert run("coeffs", "--k-max", "10", "--format", "csv", "--output", str(out)) == 0
        rows = read_csv(out)
        assert rows and all(r["dual_path"] == "ok" for r in rows)

    def test_dual_path_through_k30_within_time_bound(self, tmp_path):
        # one partition enumeration per k takes well under a second; one per
        # (k, n) takes 95-124 s, which this loose bound catches
        out = tmp_path / "coeffs.json"
        start = time.perf_counter()
        assert run("coeffs", "--k-max", "30", "--output", str(out)) == 0
        assert time.perf_counter() - start < 30.0
        assert json.loads(out.read_text())["dual_path"] == "ok"

    def test_large_k_skips_dual_path(self, tmp_path):
        out = tmp_path / "coeffs.json"
        assert run("coeffs", "--k-max", "31", "--output", str(out)) == 0
        assert json.loads(out.read_text())["dual_path"] == "skipped"


class TestVerifyCommand:
    def test_core_suite_passes(self, tmp_path):
        out = tmp_path / "core.csv"
        assert (
            run("verify", "--suite", "core", "--tolerance", "1e-9", "--output", str(out))
            == 0
        )
        rows = read_csv(out)
        assert len(rows) > 100
        assert all(r["status"] == "ok" for r in rows)

    def test_unattainable_tolerance_fails(self, tmp_path):
        out = tmp_path / "fail.csv"
        assert (
            run("verify", "--suite", "all", "--tolerance", "1e-300", "--output", str(out))
            == 1
        )
        rows = read_csv(out)
        assert any(r["status"] == "FAIL" for r in rows)

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-0.5", "-1e-3"])
    def test_bad_tolerance_is_usage_error(self, tmp_path, capsys, tolerance):
        out = tmp_path / "core.csv"
        code = run(
            "verify", "--suite", "core", "--tolerance", tolerance, "--output", str(out)
        )
        assert code == 2
        assert "--tolerance" in capsys.readouterr().err
        assert not out.exists()

    def test_generalized_suite_contains_both_families(self, tmp_path):
        out = tmp_path / "gen.jsonl"
        assert (
            run(
                "verify",
                "--suite",
                "generalized",
                "--format",
                "json",
                "--output",
                str(out),
            )
            == 0
        )
        ids = {json.loads(line)["rule_id"] for line in out.read_text().splitlines()}
        assert "mixed_modulation_moment" in ids
        assert "two_tone_moment" in ids

    def test_all_suite_json(self, tmp_path):
        out = tmp_path / "all.jsonl"
        assert (
            run("verify", "--suite", "all", "--format", "json", "--output", str(out))
            == 0
        )
        lines = out.read_text().splitlines()
        assert len(lines) == 1207  # every row of the CSV report
        assert all(json.loads(line)["pass"] is True for line in lines)

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("verify", "--suite", "core", "--output", str(a))
        run("verify", "--suite", "core", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()


def suite_reports(suite: str) -> list[SumRuleReport]:
    """One SumRuleReport per row of the suite's blocks, in the order of its files."""
    return [
        SumRuleReport(rule_id, {name: column[i] for name, column in block.params.items()},
                      block.closed[i], block.brute[i], block.n_max[i])
        for build in cli._SUITES[suite]
        for block in build()
        for i, rule_id in enumerate(block.rule_ids)
    ]


def reports_csv_reference(reports, extra_columns) -> str:
    """write_reports_csv's file as csv.writer writes it, floats as format(x, ".17g")."""

    def fmt(x) -> str:
        return format(float(x), ".17g")

    names = sorted({name for r in reports for name in r.parameters})
    fh = io.StringIO(newline="")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(
        ["rule_id", *names, "closed_re", "closed_im", "brute_re", "brute_im",
         "abs_residual", "rel_residual", "truncation_order", *extra_columns]
    )
    for i, r in enumerate(reports):
        writer.writerow(
            [r.rule_id]
            + [fmt(r.parameters[name]) if name in r.parameters else "" for name in names]
            + [fmt(v) for v in (r.closed_form.real, r.closed_form.imag,
                                r.brute_force.real, r.brute_force.imag,
                                r.abs_residual, r.rel_residual)]
            + [str(r.truncation_order)]
            + [column[i] for column in extra_columns.values()]
        )
    return fh.getvalue()


def reports_jsonl_reference(reports, extra_fields) -> str:
    """write_reports_jsonl's file as json.dumps writes each line."""
    lines = []
    for i, r in enumerate(reports):
        obj = r.to_json_obj()
        for name, column in extra_fields.items():
            obj[name] = column[i]
        lines.append(json.dumps(obj) + "\n")
    return "".join(lines)


def modulation_sides(p: dict) -> tuple:
    return general_modulation_rules(cli._SUITE_MODULATIONS[p["mod"]], p["s"])


# rule_id -> (closed, brute) of a suite row, from the public one-point functions
ONE_POINT = {
    "weighted_product_moment": lambda p: (
        b_ks_closed(p["k"], p["s"], p["M"]), b_ks_brute(p["k"], p["s"], p["M"])
    ),
    "addition_formula": lambda p: addition_formula_sides(p["k"], p["q"], p["y1"], p["y2"]),
    "alternating_sum": lambda p: alternating_sum_sides(p["k"], p["q"], p["y"])[::-1],
    "recursion_relation": lambda p: (0.0, recursion_residual(p["k"], p["q"], p["y"])),
    "mixed_modulation_moment": lambda p: jcs_sum_rule_sides(p["q"], p["x"], p["y"])[::-1],
    "two_tone_moment": lambda p: jbar_sum_rule_sides(p["s"], p["y1"], p["y2"])[::-1],
    "modulation_energy": lambda p: (float(p["s"] == 0), modulation_sides(p)[0]),
    "modulation_first_moment": lambda p: (modulation_sides(p)[2], modulation_sides(p)[1]),
}

# rows whose brute side is not a truncated sum, so they carry no truncation order
UNTRUNCATED = {
    "recursion_relation",
    "resonant_sum_newberger",
    "resonant_sum_series",
    "negative_order_symmetry",
}


class TestVerifyReports:
    def test_suite_rows_match_the_one_point_functions(self):
        # the suites share one Bessel row and one cut per argument; the public
        # functions cut per point, so the two differ by rounding only
        reports = suite_reports("core") + suite_reports("generalized")
        assert {r.rule_id for r in reports} == set(ONE_POINT)
        for r in reports:
            closed, brute = ONE_POINT[r.rule_id](r.parameters)
            for got, want in ((r.closed_form, closed), (r.brute_force, brute)):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (
                    r.rule_id, r.parameters, got, want,
                )

    def test_core_suite_runs_one_chain_per_argument(self, tmp_path, monkeypatch):
        arguments = []
        chain = bessel_core._downward_chain

        def spy(y, order_max, nu=0):
            arguments.append(y)
            return chain(y, order_max, nu)

        monkeypatch.setattr(bessel_core, "_downward_chain", spy)
        assert run("verify", "--suite", "core", "--output", str(tmp_path / "c.csv")) == 0
        # the arguments of each rule family: M (4); y1, y2 and y1 + y2 (3 pairs);
        # y and 2y (3); y (4) for the recursion
        assert 0 < len(arguments) <= 4 + 3 * 3 + 3 * 2 + 4

    def test_reports_hold_python_numbers(self, reports):
        for r in reports:
            assert type(r.closed_form) is complex and type(r.brute_force) is complex
            assert type(r.abs_residual) is float and type(r.rel_residual) is float
            assert type(r.truncation_order) is int
            assert type(r.parameters) is dict
            assert not any(isinstance(v, np.generic) for v in r.parameters.values())
        # so do the columns of verify: its %r templates write a Python int or
        # float as JSON does, and a numpy number as np.float64(...)
        for build in cli._SUITES["all"]:
            for block in build():
                rows = len(block.rule_ids)
                assert all(type(rule_id) is str for rule_id in block.rule_ids)
                assert len(block.n_max) == rows
                assert all(type(n_max) is int for n_max in block.n_max)
                for column in block.params.values():
                    assert len(column) == rows
                    assert all(type(v) in (int, float) for v in column)
                assert block.closed.shape == block.brute.shape == (rows,)

    def test_truncation_order_is_the_cut_of_the_brute_side(self, tmp_path):
        out = tmp_path / "all.csv"
        assert run("verify", "--suite", "all", "--output", str(out)) == 0
        for row in read_csv(out):
            order = int(row["truncation_order"])
            if row["rule_id"] in UNTRUNCATED:
                assert order == 0, row
            elif row["rule_id"] == "weighted_product_moment":
                # max(8, 2k) + |s| past the 1e-14 envelope, at k = 6 and |s| = 8
                assert order == truncation_bound(float(row["M"]), 1e-14) + 20
            else:
                assert order > 0, row

    @pytest.mark.parametrize("tolerance", [1e-9, 1e-30])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("suite", list(cli._SUITES))
    def test_files_are_what_the_report_writers_write(self, tmp_path, suite, fmt, tolerance):
        reports = suite_reports(suite)
        passed = [r.passes(tolerance) for r in reports]
        want = io.StringIO(newline="")
        if fmt == "json":
            write_reports_jsonl(reports, want, extra_fields={"pass": passed})
        else:
            status = ["ok" if ok else "FAIL" for ok in passed]
            write_reports_csv(reports, want, extra_columns={"status": status})
        out = tmp_path / "report"
        code = run("verify", "--suite", suite, "--format", fmt, "--tolerance", repr(tolerance),
                   "--output", str(out))
        assert code == (0 if all(passed) else 1)
        # 1e-30 fails rows of every suite, so FAIL and false are written too
        assert all(passed) == (tolerance == 1e-9)
        assert out.read_bytes() == want.getvalue().encode()

    def test_row_with_a_non_finite_side(self, tmp_path, monkeypatch, capsys):
        kernel = cli._b_ks_grid

        def nan_first_brute(ks, lags, M):
            n_max, closed, brute = kernel(ks, lags, M)
            brute = brute.copy()
            brute[0, 0] = math.nan
            return n_max, closed, brute

        monkeypatch.setattr(cli, "_b_ks_grid", nan_first_brute)
        # the first row of each M, at k = 0 and s = -8, whose closed side is 0
        want = {}
        for M in (0.5, 1.0, 2.0, 5.0):
            n_max, closed, _ = kernel(range(7), range(-8, 9), M)
            assert closed[0, 0] == 0.0
            want[M] = json.dumps({
                "rule_id": "weighted_product_moment", "parameters": {"M": M, "k": 0, "s": -8},
                "closed_re": 0.0, "closed_im": 0.0, "brute_re": math.nan, "brute_im": 0.0,
                "abs_residual": math.nan, "rel_residual": math.nan, "truncation_order": n_max,
                "pass": False,
            })
        jsonl, table = tmp_path / "core.jsonl", tmp_path / "core.csv"
        for fmt, out in (("json", jsonl), ("csv", table)):
            assert run("verify", "--suite", "core", "--format", fmt, "--output", str(out)) == 1
            assert capsys.readouterr().err == "4/1031 rules exceeded tolerance 1e-09\n"
        lines = [line for line in jsonl.read_text().splitlines() if "NaN" in line]
        assert lines == [want[json.loads(line)["parameters"]["M"]] for line in lines]
        assert len(lines) == 4
        rows = [row for row in read_csv(table) if row["brute_re"] == "nan"]
        assert [(row["M"], row["k"], row["s"]) for row in rows] == [
            (M, "0", "-8") for M in ("0.5", "1", "2", "5")
        ]
        assert all(row["abs_residual"] == "nan" and row["status"] == "FAIL" for row in rows)

    @pytest.fixture(scope="class")
    def reports(self):
        """Every row of the `all` suite, mixed with rows that %-templates get wrong."""
        reports = suite_reports("all")
        odd = [
            SumRuleReport("not_a_number", {"k": 2, "y": 0.5}, math.nan, 1.0, 7),
            SumRuleReport("infinite_residual", {"y": -1.5}, 1.0, complex(math.inf, 0.0), 9),
            # %r writes True, where JSON has true
            SumRuleReport("odd_parameters", {"flag": True, "M": 0.5}, 0.5, 0.5, 1),
            # numpy numbers, whose %r is np.float64(...) and which json.dumps refuses
            SumRuleReport(
                "numpy_numbers", {"k": np.int64(3), "M": np.float64(0.5)},
                np.complex128(1 + 2j), np.complex128(1 + 2.5j), np.int64(4),
            ),
            SumRuleReport('quoted, "50%" id', {"a%r": 1e-300}, 0.25, 0.25, 0),
        ]
        return reports[:3] + odd + reports[3:]

    def test_csv_writer_matches_csv_module(self, reports):
        for extra in ({}, {"status": ["ok" if i % 3 else "FAIL" for i in range(len(reports))]}):
            buf = io.StringIO(newline="")
            write_reports_csv(reports, buf, extra_columns=extra)
            assert buf.getvalue() == reports_csv_reference(reports, extra)

    def test_jsonl_writer_matches_json_dumps(self, reports):
        for extra in ({}, {"pass": [r.passes(1e-9) for r in reports]}):
            buf = io.StringIO()
            write_reports_jsonl(reports, buf, extra_fields=extra)
            assert buf.getvalue() == reports_jsonl_reference(reports, extra)

    def test_jsonl_refuses_extra_field_named_like_a_report_field(self, reports):
        with pytest.raises(ValueError, match="rule_id"):
            write_reports_jsonl(reports, io.StringIO(), {"rule_id": [0] * len(reports)})


class TestSidebandsCommand:
    def test_sinusoidal_rows_are_bessel_values(self, tmp_path):
        out = tmp_path / "sb.csv"
        assert run("sidebands", "--M", "2.0", "--output", str(out)) == 0
        for row in read_csv(out):
            n = int(row["n"])
            assert float(row["g_re"]) == pytest.approx(
                bessel_j_int(n, 2.0), abs=1e-12
            )
            assert abs(float(row["g_im"])) < 1e-13

    def test_negative_value_with_exponent(self, tmp_path):
        out = tmp_path / "sb.csv"
        assert run("sidebands", "--M", "-1e-3", "--output", str(out)) == 0
        for row in read_csv(out):
            n = int(row["n"])
            assert float(row["g_re"]) == pytest.approx(
                bessel_j_int(n, -1e-3), abs=1e-15
            )

    def test_zero_modulation_single_row(self, tmp_path):
        out = tmp_path / "sb0.csv"
        assert run("sidebands", "--M", "0", "--output", str(out)) == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0]["n"] == "0" and float(rows[0]["g_re"]) == 1.0

    def test_two_tone_rows_match_convolution(self, tmp_path):
        out = tmp_path / "sb2.csv"
        assert run("sidebands", "--y1", "1.0", "--y2", "0.5", "--output", str(out)) == 0
        for row in read_csv(out):
            n = int(row["n"])
            assert float(row["g_re"]) == pytest.approx(jbar(n, 1.0, 0.5), abs=1e-11)

    def test_energy_sum_footer(self, tmp_path):
        out = tmp_path / "sb.csv"
        run("sidebands", "--M", "1.5", "--output", str(out))
        footer = out.read_text().strip().splitlines()[-1]
        assert footer.startswith("# energy_sum=")
        assert float(footer.split("=")[1]) == pytest.approx(1.0, abs=1e-12)

    def test_general_phase_automatic_order_keeps_tail(self, tmp_path):
        # harmonics 1 and 3: sidebands of about 1e-6 reach past |n| = 17
        phi = [
            [1, 0.0, -0.5279], [-1, 0.0, 0.5279],
            [3, -0.1922, -0.1812], [-3, -0.1922, 0.1812],
        ]
        out = tmp_path / "sb.json"
        assert run(
            "sidebands", "--phi-coeffs", json.dumps(phi), "--format", "json",
            "--output", str(out),
        ) == 0
        obj = json.loads(out.read_text())
        assert abs(obj["energy_sum"] - 1.0) < 1e-13
        second = sum(r["n"] ** 2 * r["g_abs2"] for r in obj["rows"])
        expected = sum(n**2 * (re**2 + im**2) for n, re, im in phi)
        assert second == pytest.approx(expected, rel=1e-12)

    def test_malformed_phi_coeffs_named(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        for text, named in (
            ('[[1, 0, -0.5], "bad"]', "entry 1"),
            # a JSON boolean is not a number, although Python counts it as an int
            ("[[1, 0, -0.5], [-1, false, 0.5]]", "entry 1"),
            ("[[1, 0, -0.5], [Infinity, 0, 0.5]]", "entry 1"),
            ("[[1, NaN, -0.5], [-1, NaN, 0.5]]", "n = 1"),
        ):
            assert run("sidebands", "--phi-coeffs", text, "--output", str(out)) == 2
            assert named in capsys.readouterr().err

    def test_non_finite_modulation_is_usage_error(self, tmp_path, capsys):
        # rejected before sampling, which would double the FFT up to its cap
        out = tmp_path / "x.csv"
        for flags in (("--M", "nan", "--n-max", "10"), ("--y1", "1.0", "--y2", "inf")):
            assert run("sidebands", *flags, "--output", str(out)) == 2
            assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ("--M", "inf"), ("--y1", "inf"), ("--y1", "1.0", "--y2", "-inf"),
        ("--M", "1.0", "--Omega", "nan"), ("--M", "1.0", "--Omega", "0"),
    ], ids=lambda flags: " ".join(flags[-2:]))
    def test_bad_option_is_named_with_its_value(self, tmp_path, capsys, flags):
        out = tmp_path / "x.csv"
        assert run("sidebands", *flags, "--output", str(out)) == 2
        bound = "finite and > 0" if flags[-2] == "--Omega" else "finite"
        want = f"{flags[-2]} must be {bound}, got {float(flags[-1])!r}"
        assert want in capsys.readouterr().err
        assert not out.exists()

    def test_modulation_flags_are_exclusive(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run("sidebands", "--M", "1.0", "--y1", "1.0", "--output", str(out)) == 2

    def test_order_past_sample_cap_is_refused(self, tmp_path, capsys, monkeypatch):
        # harmonic 1e5 gives an automatic order of 2.4e6, which needs 2^25
        # samples; the refusal comes before numpy is reached
        monkeypatch.setattr(sum_rules, "np", None)
        out = tmp_path / "x.csv"
        phi = "[[100000, 0, -0.5], [-100000, 0, 0.5]]"
        assert run("sidebands", "--phi-coeffs", phi, "--output", str(out)) == 3
        assert "past the cap of 4194304" in capsys.readouterr().err
        assert not out.exists()


class TestLineshapeCommand:
    def test_perturbative_sweep_antisymmetric_first_harmonic(self, tmp_path):
        out = tmp_path / "ls.csv"
        assert (
            run(
                "lineshape",
                "--Omega",
                "0.03",
                "--M",
                "0.5",
                "--delta-min",
                "-5",
                "--delta-max",
                "5",
                "--delta-steps",
                "11",
                "--method",
                "perturbative",
                "--output",
                str(out),
            )
            == 0
        )
        rows = {float(r["delta"]): float(r["h1_cos"]) for r in read_csv(out)}
        for d in (1.0, 2.0, 5.0):
            assert rows[d] == pytest.approx(-rows[-d], abs=1e-18)

    def test_perturbative_sweep_warns_once_per_run(self, tmp_path, capsys):
        # every one of the 1001 points lies outside the validity bound
        argv = (
            "lineshape", "--Omega", "0.5", "--M", "3", "--delta-min", "-5",
            "--delta-max", "5", "--delta-steps", "1001", "--method",
            "perturbative", "--output", str(tmp_path / "ls.csv"),
        )
        want = "warning: perturbative lineshape evaluated outside its validity bound\n"
        for _ in range(2):
            assert run(*argv) == 0
            assert capsys.readouterr().err == want

    def test_unmodulated_dc_is_lorentzian(self, tmp_path):
        out = tmp_path / "ls0.csv"
        assert (
            run(
                "lineshape",
                "--Omega",
                "0.03",
                "--M",
                "0",
                "--delta-min",
                "-2",
                "--delta-max",
                "2",
                "--delta-steps",
                "5",
                "--method",
                "exact",
                "--output",
                str(out),
            )
            == 0
        )
        for row in read_csv(out):
            d = float(row["delta"])
            assert float(row["dc"]) == pytest.approx(
                0.5 / (1.0 + d * d), rel=1e-6
            )
            assert abs(float(row["h1_cos"])) < 1e-15

    def test_exact_and_ode_agree(self, tmp_path):
        exact_f = tmp_path / "e.csv"
        ode_f = tmp_path / "o.csv"
        flags = [
            "lineshape",
            "--Omega",
            "0.03",
            "--M",
            "0.5",
            "--delta-min",
            "1",
            "--delta-max",
            "1",
            "--delta-steps",
            "1",
            "--output",
        ]
        assert run(*flags[:-1], "--method", "exact", "--output", str(exact_f)) == 0
        assert run(*flags[:-1], "--method", "ode", "--output", str(ode_f)) == 0
        ex = read_csv(exact_f)[0]
        od = read_csv(ode_f)[0]
        assert float(od["dc"]) == pytest.approx(float(ex["dc"]), rel=1e-6)
        h1_ex = math.hypot(float(ex["h1_cos"]), float(ex["h1_sin"]))
        h1_od = math.hypot(float(od["h1_cos"]), float(od["h1_sin"]))
        assert h1_od == pytest.approx(h1_ex, rel=1e-6)

    def test_ode_sweep_within_time_bound(self, tmp_path):
        # the periodic steady state takes milliseconds per detuning; the
        # RK45 integration it replaced took 3-4 s for these five points
        flags = ("lineshape", "--Omega", "0.03", "--M", "0.5", "--delta-min", "-4",
                 "--delta-max", "4", "--delta-steps", "5", "--output")
        ode_f, exact_f = tmp_path / "o.csv", tmp_path / "e.csv"
        start = time.perf_counter()
        assert run(*flags, str(ode_f), "--method", "ode") == 0
        assert time.perf_counter() - start < 2.0
        assert run(*flags, str(exact_f), "--method", "exact") == 0
        for od, ex in zip(read_csv(ode_f), read_csv(exact_f), strict=True):
            scale = abs(float(ex["dc"]))
            for name in ex:
                assert abs(float(od[name]) - float(ex[name])) <= 1e-9 * scale

    def test_ode_sweep_rows_are_the_oracle_at_each_detuning(self, tmp_path):
        out = tmp_path / "o.json"
        assert run(
            "lineshape", "--Omega", "0.1", "--M", "12", "--omega0", "1e9", "--gamma", "0.2",
            "--delta-min", "-660", "--delta-max", "660", "--delta-steps", "5",
            "--method", "ode", "--harmonics", "3", "--format", "json", "--output", str(out),
        ) == 0
        rows = json.loads(out.read_text())["rows"]
        mod = GeneralModulation.sinusoidal(12.0, 0.1)
        for row, d in zip(rows, [-660.0, -330.0, 0.0, 330.0, 660.0], strict=True):
            p = OscillatorParams(omega0=1e9, gamma=0.2, force=1.0, delta=0.1 * d,
                                 Omega=0.1, M=12.0)
            dec = time_domain_oracle(p, mod, n_harmonics=3)
            assert row == {"delta": d, "dc": dec.dc} | {
                f"h{h}_{part}": amps[h - 1]
                for h in (1, 2, 3)
                for part, amps in (("cos", dec.cos_amps), ("sin", dec.sin_amps))
            }

    def test_ode_sweep_stops_at_the_first_failing_detuning(self, tmp_path, capsys):
        # the third detuning, -1e3 rad/s, puts the carrier at 0
        out = tmp_path / "o.csv"
        code = run(
            "lineshape", "--Omega", "0.1", "--M", "1", "--omega0", "1e3", "--delta-min", "0",
            "--delta-max", "-4e3", "--delta-steps", "5", "--method", "ode",
            "--output", str(out),
        )
        assert code == 3
        assert capsys.readouterr().err == (
            "error: sideband frequencies reach -3.100e+00 <= 0 within the truncation "
            "range |n| <= 31; the oscillator model needs positive drive frequencies\n"
        )
        assert not out.exists()

    def test_exact_and_ode_refuse_one_grid_alike(self, tmp_path, capsys):
        # the last detuning is 0.5 * 1e308 * 10 = inf rad/s and the first
        # puts the sidebands below 0: the non-finite one is named first
        errors = []
        for method in ("exact", "ode"):
            out = tmp_path / f"{method}.csv"
            code = run(
                "lineshape", "--omega0", "10", "--gamma", "10", "--Omega", "0.1", "--M", "1",
                "--delta-min", "-5", "--delta-max", "1e308", "--delta-steps", "3",
                "--method", method, "--output", str(out),
            )
            assert code == 2
            assert not out.exists()
            errors.append(capsys.readouterr().err)
        assert errors == ["error: delta must be finite, got inf\n"] * 2

    def test_exact_refuses_a_products_matrix_past_the_cap(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        code = run("lineshape", "--Omega", "0.1", "--M", "1", "--harmonics", "200000",
                   "--output", str(out))
        assert code == 3
        assert capsys.readouterr().err == (
            "error: 200000 harmonics at M = 1.0 take a products matrix J_n J_(n-s) of "
            "400085 x 400001 = 160034400085 entries, past the cap of 8388608\n"
        )
        assert not out.exists()

    def test_ode_matches_exact_at_large_index(self, tmp_path):
        # the sidebands reach |n| ~ 180 here, past what 64 samples resolve
        flags = ("lineshape", "--Omega", "0.3", "--M", "100", "--delta-min", "0.6",
                 "--delta-max", "0.6", "--delta-steps", "1", "--output")
        ode_f, exact_f = tmp_path / "o.csv", tmp_path / "e.csv"
        assert run(*flags, str(ode_f), "--method", "ode") == 0
        assert run(*flags, str(exact_f), "--method", "exact") == 0
        (od,), (ex,) = read_csv(ode_f), read_csv(exact_f)
        scale = abs(float(ex["dc"]))
        for name in ex:
            assert abs(float(od[name]) - float(ex[name])) <= 1e-9 * scale

    def test_negative_value_with_exponent(self, tmp_path):
        out = tmp_path / "n.csv"
        assert run(
            "lineshape", "--Omega", "0.03", "--M", "0.5", "--delta-min", "-1e-3",
            "--delta-max", "1e-3", "--delta-steps", "3", "--method", "perturbative",
            "--output", str(out),
        ) == 0
        assert [float(r["delta"]) for r in read_csv(out)] == [-1e-3, 0.0, 1e-3]

    def test_negative_value_with_exponent_from_the_console_script(self, tmp_path, monkeypatch):
        # the installed script calls main() with no argv: it reads sys.argv
        out = tmp_path / "n.csv"
        monkeypatch.setattr("sys.argv", [
            "besselrules", "lineshape", "--Omega", "0.03", "--M", "0.5", "--delta-min",
            "-1e-3", "--delta-max", "1e-3", "--delta-steps", "3", "--output", str(out),
        ])
        assert main() == 0
        assert [float(r["delta"]) for r in read_csv(out)] == [-1e-3, 0.0, 1e-3]

    @pytest.mark.parametrize("method", ["exact", "perturbative", "ode"])
    def test_single_detuning_is_computed_as_given(self, tmp_path, method):
        # 2 delta / gamma and back is 0.7000000000000001 here
        out = tmp_path / "d.json"
        assert run(
            "lineshape", "--M", "1", "--Omega", "0.03", "--gamma", "0.3", "--delta", "0.7",
            "--method", method, "--format", "json", "--output", str(out),
        ) == 0
        (row,) = json.loads(out.read_text())["rows"]
        p = OscillatorParams(omega0=1e6, gamma=0.3, force=1.0, delta=0.7, Omega=0.03, M=1.0)
        if method == "exact":
            dec = modulated_power_exact(p, 2)
        elif method == "perturbative":
            dec = modulated_power_perturbative(p)
        else:
            dec = time_domain_oracle(p, GeneralModulation.sinusoidal(1.0, 0.03), n_harmonics=2)
        assert row == {
            "delta": 2.0 * 0.7 / 0.3, "dc": dec.dc,
            "h1_cos": dec.cos_amps[0], "h1_sin": dec.sin_amps[0],
            "h2_cos": dec.cos_amps[1], "h2_sin": dec.sin_amps[1],
        }

    def test_overflowing_normalized_detuning_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = run("lineshape", "--M", "1", "--Omega", "0.1", "--gamma", "0.1",
                   "--delta", "1e307", "--output", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert "--delta 1e+307" in err and "--gamma 0.1" in err
        assert not out.exists()

    def test_non_finite_force_names_force(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        code = run("lineshape", "--M", "1", "--Omega", "0.1", "--force", "nan",
                   "--output", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: force must be finite, got nan\n"
        assert not out.exists()

    def test_overflowing_sweep_step_is_usage_error(self, tmp_path, capsys):
        # finite ends whose step (hi - lo) / (steps - 1) overflows to inf
        out = tmp_path / "wide.csv"
        code = run(
            "lineshape", "--Omega", "0.03", "--M", "0.5", "--delta-min", "-1e308",
            "--delta-max", "1e308", "--delta-steps", "3", "--output", str(out),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--delta-min" in err and "--delta-max" in err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["exact", "perturbative", "ode"])
    def test_negative_harmonics_usage_error(self, tmp_path, method):
        out = tmp_path / "h.csv"
        code = run(
            "lineshape", "--Omega", "0.03", "--M", "0.5", "--method", method,
            "--harmonics", "-1", "--output", str(out),
        )
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("method", ["exact", "perturbative", "ode"])
    def test_non_finite_power_is_refused(self, tmp_path, capsys, method):
        # force**2 overflows: exact and ode would write inf and nan, with
        # numpy warnings, and perturbative would stop in Python's pow
        out = tmp_path / "f.csv"
        code = run(
            "lineshape", "--M", "1", "--Omega", "0.1", "--force", "1e200",
            "--method", method, "--output", str(out),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "force = 1e+200" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["--M", "1", "--Omega", "0.1", "--delta", "1e110"], ["delta = 1e+110"]),
            (["--M", "1e200", "--Omega", "1"], ["M = 1e+200", "Omega/gamma = 1.0"]),
            (
                ["--M", "1e150", "--Omega", "1", "--delta", "1e10"],
                ["M = 1e+150", "Omega/gamma = 1.0", "delta = 10000000000.0"],
            ),
        ],
        ids=["huge-detuning", "huge-index", "huge-second-order"],
    )
    def test_perturbative_overflow_names_the_parameter(self, tmp_path, capsys, argv, names):
        # (1 + Delta**2)**3 and kappa**2 overflow in Python's pow, whose
        # message names no parameter; the second-order numerator overflows
        # at a force of 1, which is not to blame
        out = tmp_path / "p.csv"
        code = run("lineshape", "--method", "perturbative", *argv, "--output", str(out))
        assert code == 3
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1
        assert all(name in errors[0] for name in names)
        assert "out of range" not in err
        assert "force" not in err
        assert not out.exists()

    @pytest.mark.parametrize("delta", ["1e12", "1e300"])
    def test_oracle_far_off_resonance_matches_exact(self, tmp_path, delta):
        # far off resonance the oracle's 1e-12 f^2/gamma bound is absolute,
        # not relative to the tiny power
        flags = ("lineshape", "--M", "1", "--Omega", "0.1", "--delta", delta, "--output")
        ode_f, exact_f = tmp_path / "o.csv", tmp_path / "e.csv"
        assert run(*flags, str(ode_f), "--method", "ode") == 0
        assert run(*flags, str(exact_f), "--method", "exact") == 0
        (od,), (ex,) = read_csv(ode_f), read_csv(exact_f)
        assert od.keys() == ex.keys()
        for name in ex:  # f = gamma = 1
            assert abs(float(od[name]) - float(ex[name])) <= 1e-12

    def test_regime_error_exit_code(self, tmp_path):
        out = tmp_path / "bad.csv"
        code = run(
            "lineshape",
            "--omega0",
            "10",
            "--gamma",
            "0.5",
            "--Omega",
            "2.0",
            "--M",
            "5.0",
            "--delta",
            "0",
            "--method",
            "exact",
            "--output",
            str(out),
        )
        assert code == 3

    def test_normalized_units(self, tmp_path):
        out = tmp_path / "n.csv"
        assert (
            run(
                "lineshape",
                "--gamma",
                "1",
                "--omega0",
                "1e6",
                "--Omega",
                "0.03",
                "--M",
                "0.5",
                "--delta-min",
                "0",
                "--delta-max",
                "0",
                "--delta-steps",
                "1",
                "--method",
                "exact",
                "--output",
                str(out),
            )
            == 0
        )
        # dc at line center carries the second-order modulation correction
        kappa = 2.0 * 0.5 * 0.03
        assert float(read_csv(out)[0]["dc"]) == pytest.approx(
            0.5 * (1.0 - 0.5 * kappa**2), rel=1e-5
        )

    @pytest.mark.parametrize("method", ["exact", "perturbative", "ode"])
    def test_table_past_the_point_cap_is_refused_before_the_sweep(
        self, tmp_path, capsys, monkeypatch, method
    ):
        # 2000 detunings of 2 + 2 * 100 cells would take a 3.2 MB table, past
        # a cap of 1e5 cells; neither the detunings nor the table are built
        monkeypatch.setattr(cli, "_ORACLE_MAX_POINTS", 100_000)
        out = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            code = run("lineshape", "--Omega", "0.1", "--M", "1", "--delta-min", "-1",
                       "--delta-max", "1", "--delta-steps", "2000", "--harmonics", "100",
                       "--method", method, "--output", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert capsys.readouterr().err == (
            "error: --harmonics 100 at a detuning count of 2000 (--delta-steps) take a "
            "table of 2000 x 202 = 404000 cells, past the cap of 100000\n"
        )
        assert not out.exists()
        assert peak < 2000 * 202 * 8

    @pytest.mark.parametrize("method", ["perturbative", "ode"])
    def test_one_detuning_past_the_point_cap_is_refused(self, tmp_path, capsys, monkeypatch,
                                                        method):
        def swept(*args):
            raise AssertionError("swept past the cap")

        monkeypatch.setattr(cli, "_ORACLE_MAX_POINTS", 1000)
        monkeypatch.setitem(cli._LINESHAPE_SWEEPS, method, swept)
        out = tmp_path / "one.csv"
        code = run("lineshape", "--Omega", "0.1", "--M", "1", "--harmonics", "500",
                   "--method", method, "--output", str(out))
        assert code == 3
        assert capsys.readouterr().err == (
            "error: --harmonics 500 at a detuning count of 1 (--delta-steps) take a "
            "table of 1 x 1002 = 1002 cells, past the cap of 1000\n"
        )
        assert not out.exists()


class TestASumCommand:
    def test_oracle_chain_residual(self, tmp_path):
        out = tmp_path / "a.json"
        assert (
            run(
                "a-sum",
                "--s",
                "1",
                "--M",
                "1.0",
                "--Omega",
                "0.1",
                "--method",
                "direct,newberger",
                "--output",
                str(out),
            )
            == 0
        )
        obj = json.loads(out.read_text())
        assert obj["residuals"]["direct/newberger"] < 1e-8

    def test_unmodulated_all_methods(self, tmp_path):
        out = tmp_path / "a0.json"
        assert (
            run(
                "a-sum",
                "--s",
                "0",
                "--M",
                "0",
                "--gamma",
                "2.0",
                "--Omega",
                "0.5",
                "--method",
                "direct,newberger,series,geometric",
                "--output",
                str(out),
            )
            == 0
        )
        obj = json.loads(out.read_text())
        for m in ("direct", "newberger", "series", "geometric"):
            assert obj["values"][m]["re"] == pytest.approx(0.5)
            assert obj["values"][m]["im"] == pytest.approx(0.0, abs=1e-15)

    def test_expansion_coefficients(self, tmp_path):
        out = tmp_path / "ae.json"
        assert (
            run(
                "a-sum",
                "--s",
                "1",
                "--M",
                "0.5",
                "--Omega",
                "0.01",
                "--method",
                "geometric",
                "--order",
                "3",
                "--expand",
                "--output",
                str(out),
            )
            == 0
        )
        coeffs = json.loads(out.read_text())["eta_coefficients"]
        assert coeffs[1] == {"order": 1, "re": 0.0, "im": -0.25}
        assert coeffs[2] == {"order": 2, "re": -0.25, "im": 0.0}
        assert coeffs[3] == {"order": 3, "re": 0.0, "im": 0.296875}

    def test_negative_order_via_symmetry(self, tmp_path):
        out = tmp_path / "an.json"
        assert (
            run(
                "a-sum",
                "--s",
                "-2",
                "--M",
                "1.0",
                "--Omega",
                "0.4",
                "--method",
                "direct,newberger,series",
                "--output",
                str(out),
            )
            == 0
        )
        obj = json.loads(out.read_text())
        assert obj["residuals"]["direct/newberger"] < 1e-8
        assert obj["residuals"]["direct/series"] < 1e-8

    def test_closed_form_at_large_modulation_index(self, tmp_path):
        # J_{1-0.5i}(30): the terms of its ascending series reach ~1e11
        out = tmp_path / "a30.json"
        assert run(
            "a-sum", "--s", "1", "--M", "30", "--gamma", "1", "--Omega", "2",
            "--method", "direct,newberger", "--output", str(out),
        ) == 0
        assert json.loads(out.read_text())["residuals"]["direct/newberger"] < 1e-8

    def test_closed_form_past_gamma_over_omega_50(self, tmp_path):
        # gamma/Omega = 100 is |Im nu| = 100, once refused as a usage error
        out = tmp_path / "a100.json"
        assert run(
            "a-sum", "--s", "1", "--M", "1", "--gamma", "1", "--Omega", "0.01",
            "--method", "direct,newberger", "--output", str(out),
        ) == 0
        assert json.loads(out.read_text())["residuals"]["direct/newberger"] < 1e-8

    def test_geometric_residual_is_informational(self, tmp_path):
        # the truncated expansion deviates by ~eta^4 from the exact paths;
        # that deviation must not trip the exact-method exit gate
        out = tmp_path / "ag.json"
        assert (
            run(
                "a-sum",
                "--s",
                "1",
                "--M",
                "1.0",
                "--Omega",
                "0.1",
                "--method",
                "direct,newberger,geometric",
                "--order",
                "3",
                "--output",
                str(out),
            )
            == 0
        )
        obj = json.loads(out.read_text())
        assert obj["residuals"]["direct/geometric"] > 1e-8
        assert obj["residuals"]["direct/newberger"] < 1e-8

    def test_newberger_at_ratio_300_exits_0(self, tmp_path):
        # sinh(pi gamma/Omega) = sinh(942) overflows a double
        out = tmp_path / "ag.json"
        code = run(
            "a-sum",
            "--s",
            "0",
            "--M",
            "1.0",
            "--gamma",
            "300",
            "--Omega",
            "1.0",
            "--method",
            "newberger",
            "--output",
            str(out),
        )
        assert code == 0
        value = json.loads(out.read_text())["values"]["newberger"]
        assert complex(value["re"], value["im"]) == pytest.approx(
            a_s_direct(0, 1.0, 300.0, 1.0), rel=1e-12)

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-0.5"])
    def test_bad_tolerance_is_usage_error(self, tmp_path, capsys, tolerance):
        out = tmp_path / "a.json"
        code = run(
            "a-sum", "--s", "1", "--M", "20", "--gamma", "1", "--Omega", "2",
            "--method", "direct,newberger,series", "--tolerance", tolerance,
            "--output", str(out),
        )
        assert code == 2
        assert "--tolerance" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_value_with_exponent(self, tmp_path):
        out = tmp_path / "neg.json"
        assert run(
            "a-sum", "--s", "1", "--M", "-1e-3", "--Omega", "0.1", "--method",
            "direct", "--output", str(out),
        ) == 0
        obj = json.loads(out.read_text())
        assert obj["M"] == -1e-3
        value = obj["values"]["direct"]
        assert complex(value["re"], value["im"]) == a_s_direct(1, -1e-3, 1.0, 0.1)

    @pytest.mark.parametrize("flag, value", [("--M", "nan"), ("--M", "inf"), ("--Omega", "0")])
    @pytest.mark.parametrize("method", ["direct", "newberger", "series", "geometric"])
    def test_bad_argument_is_usage_error(self, tmp_path, capsys, method, flag, value):
        # the last value given for an option is the one parsed
        out = tmp_path / "a.json"
        code = run("a-sum", "--s", "1", "--M", "1.0", "--Omega", "0.5", flag, value,
                   "--method", method, "--output", str(out))
        assert code == 2
        assert f"{flag[2:]} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_cancelled_series_is_refused(self, tmp_path, capsys):
        # the alternating terms cancel every digit of A_1 at M = 20
        out = tmp_path / "a.json"
        code = run(
            "a-sum", "--s", "1", "--M", "20", "--gamma", "1", "--Omega", "2",
            "--method", "series", "--output", str(out),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "s = 1, M = 20.0, gamma/Omega = 0.5" in err
        assert "estimated relative error" in err
        assert not out.exists()

    def test_cancelled_direct_sum_is_refused(self, tmp_path, capsys):
        # A_3 is about 1e-13 here, the remainder of terms of order 1
        out = tmp_path / "a.json"
        code = run(
            "a-sum", "--s", "3", "--M", "1", "--gamma", "1", "--Omega", "1e-4",
            "--method", "direct,newberger,series", "--output", str(out),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: A_s direct sum at s = 3, M = 1.0, gamma/Omega = 10000:")
        assert err.endswith("> 1e-08\n")
        assert not out.exists()

    @pytest.mark.parametrize("option", [("--k-max", "40"), ("--tol", "1e-14")])
    def test_accuracy_options_are_gone(self, tmp_path, option):
        with pytest.raises(SystemExit) as err:
            run("a-sum", "--s", "1", "--M", "1", "--Omega", "0.5", *option,
                "--output", str(tmp_path / "a.json"))
        assert err.value.code == 2

    def test_domain_warning_is_one_line(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        assert run(
            "a-sum", "--s", "1", "--M", "0.5", "--Omega", "2", "--method",
            "geometric", "--output", str(out),
        ) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: geometric expansion evaluated outside")
        assert err.count("\n") == 1
        assert "cli.py" not in err

    def test_repeated_domain_warning_is_printed_once(self, tmp_path, capsys):
        # both geometric sums raise the same warning; main prints it once
        out = tmp_path / "a.json"
        assert run(
            "a-sum", "--s", "1", "--M", "0.5", "--Omega", "2", "--method",
            "geometric,geometric", "--output", str(out),
        ) == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flags", [("--expand",), ("--method", "geometric")])
    def test_order_past_the_table_is_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "a.json"
        code = run("a-sum", "--s", "1", "--M", "1", "--Omega", "0.1", "--order", "65",
                   *flags, "--output", str(out))
        assert code == 2
        assert "error: order must lie in [0, 64], got 65" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_method_usage_error(self, tmp_path):
        out = tmp_path / "am.json"
        assert (
            run(
                "a-sum", "--s", "0", "--M", "1", "--Omega", "1",
                "--method", "magic", "--output", str(out),
            )
            == 2
        )

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_exact_method_breach_exits_1_and_still_writes(self, tmp_path, capsys, fmt):
        out = tmp_path / f"a.{fmt}"
        code = run("a-sum", "--s", "1", "--M", "1", "--Omega", "0.1", "--method",
                   "direct,newberger", "--tolerance", "0", "--format", fmt,
                   "--output", str(out))
        assert code == 1
        (line,) = capsys.readouterr().err.splitlines()
        residual = (json.loads(out.read_text())["residuals"]["direct/newberger"]
                    if fmt == "json" else float(read_csv(out)[2]["re"]))
        assert residual > 0
        assert line == f"method residual {residual:.3e} exceeds tolerance 0"

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--M", "1e5", "--Omega", "0.01", "--order", "64"),
             "to order 64 at s = 0, M = 100000.0 leave double range"),
            (("--M", "1e100", "--Omega", "0.01", "--order", "4"),
             "to order 4 at s = 0, M = 1e+100 leave double range"),
            (("--M", "0.5", "--Omega", "1e200", "--order", "2"),
             "to order 2 at s = 0, M = 0.5, Omega/gamma = 1e+200 leaves double range"),
        ],
        ids=["coefficient-inf", "coefficient-overflow", "eta-power-overflow"],
    )
    def test_geometric_past_double_range_is_refused(self, tmp_path, capsys, flags, named):
        out = tmp_path / "g.json"
        code = run("a-sum", "--s", "0", *flags, "--method", "geometric", "--output", str(out))
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("error: the ") and err[-1].endswith(named)


LINESHAPE = ("lineshape", "--Omega", "0.03", "--M", "0.5")
SWEEP = ("--delta-min", "-5", "--delta-max", "5", "--delta-steps", "11")
# the row-writing cases whose files must be those of csv.writer and json.dumps
WRITER_CASES = {
    "no_harmonics_csv": (*LINESHAPE, *SWEEP, "--harmonics", "0", "--format", "csv"),
    "no_harmonics_json": (*LINESHAPE, *SWEEP, "--harmonics", "0", "--format", "json"),
    "one_detuning_csv": (*LINESHAPE, "--delta", "-0.3", "--format", "csv"),
    "one_detuning_json": (*LINESHAPE, "--delta", "0.3", "--format", "json"),
    "perturbative_padded_csv": (
        *LINESHAPE, *SWEEP, "--method", "perturbative", "--harmonics", "4", "--format", "csv",
    ),
    "perturbative_padded_json": (
        *LINESHAPE, *SWEEP, "--method", "perturbative", "--harmonics", "4", "--format", "json",
    ),
    "ode_csv": (
        *LINESHAPE, "--delta-min", "-2", "--delta-max", "2", "--delta-steps", "2",
        "--method", "ode", "--harmonics", "3", "--format", "csv",
    ),
    "stamp_json": (*LINESHAPE, *SWEEP, "--format", "json", "--stamp"),
    "sidebands_two_tone_json": (
        "sidebands", "--y1", "1.1", "--y2", "0.4", "--format", "json", "--stamp",
    ),
    "sidebands_csv": ("sidebands", "--M", "1.7", "--format", "csv"),
    "a_sum_expand_csv": (
        "a-sum", "--s", "-1", "--M", "0.5", "--Omega", "0.05", "--method",
        "direct,newberger,series,geometric", "--expand", "--format", "csv",
    ),
}


class TestRowWriters:
    """Every row-bearing file against the generic writers, on the rows the command computed."""

    @pytest.mark.parametrize("case", list(WRITER_CASES))
    def test_file_is_what_the_generic_writer_writes(self, tmp_path, monkeypatch, case):
        rows_of, calls = {}, []
        for name in ("_json_rows", "_csv_rows"):
            def rows_spy(layout, rows, real=getattr(cli, name), name=name):
                rows_of[name] = layout, rows
                return real(layout, rows)

            monkeypatch.setattr(cli, name, rows_spy)
        for name in ("_write_json", "_write_csv"):
            def writer_spy(*args, real=getattr(cli, name), name=name, **kwargs):
                if name == "_write_csv":
                    args = (*args[:2], list(args[2]))
                calls.append((name, args, kwargs))
                real(*args, **kwargs)

            monkeypatch.setattr(cli, name, writer_spy)
        monkeypatch.setattr(cli, "_utc_stamp", lambda: STAMP)
        out = tmp_path / "out"
        assert run(*WRITER_CASES[case], "--output", str(out)) == 0
        ((name, args, kwargs),) = calls
        if name == "_write_json":
            _, head, stamp, key, _ = args
            header, rows = rows_of["_json_rows"]
            assert key == "rows" and not kwargs
            obj = head | {"rows": [dict(zip(header, row)) for row in rows]}
            if stamp:
                obj["stamp"] = STAMP
            want = json.dumps(obj, indent=2) + "\n"
            assert list(json.loads(out.read_text()))[-1] == ("stamp" if stamp else "rows")
        else:
            _, header, lines = args
            _, rows = rows_of["_csv_rows"]
            fh = io.StringIO(newline="")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(
                [format(v, ".17g") if isinstance(v, float) else v for v in row]
                for row in rows
            )
            # a footer is a one-field row after the rows
            for footer in lines[len(rows):]:
                writer.writerow([footer.rstrip("\n")])
            want = fh.getvalue()
        assert out.read_text() == want
        assert len(rows) >= 1

    @given(
        rows=st.lists(
            st.lists(
                st.one_of(
                    st.sampled_from([-0.0, 5e-324, 1e16, 1e22, 1.0000000000000002]),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(),
                ),
                min_size=3, max_size=3,
            ),
            min_size=1, max_size=5,
        ),
        stamp=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_document_is_the_indented_dump(self, tmp_path_factory, rows, stamp):
        header = ["n", "re", "im"]
        head = {"count": len(rows), "params": {"M": 0.5}}
        out = tmp_path_factory.mktemp("rows") / "rows.json"
        with unittest.mock.patch.object(cli, "_utc_stamp", lambda: STAMP):
            cli._write_json(str(out), head, stamp, "rows", cli._json_rows(header, rows))
        obj = head | {"rows": [dict(zip(header, row)) for row in rows]}
        if stamp:
            obj["stamp"] = STAMP
        assert out.read_text() == json.dumps(obj, indent=2) + "\n"

    def test_perturbative_padding_is_positive_zero(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run(*WRITER_CASES["perturbative_padded_csv"], "--output", str(out)) == 0
        for row in read_csv(out):
            assert row["h2_sin"] == row["h3_cos"] == row["h4_sin"] == "0", row

    def test_sidebands_footer_is_the_energy_sum_to_17_digits(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(*WRITER_CASES["sidebands_csv"], "--output", str(out)) == 0
        mod = sum_rules.GeneralModulation.sinusoidal(1.7, 1.0)
        energy = sum_rules.general_sidebands(mod, auto_sideband_order(mod)).energy_sum()
        assert out.read_text().endswith(f"\n# energy_sum={energy:.17g}\n")


RERUN_COMMANDS = {
    "coeffs": ("coeffs", "--k-max", "6"),
    "verify": ("verify", "--suite", "core"),
    "sidebands": ("sidebands", "--M", "1.7"),
    "lineshape": (
        "lineshape", "--Omega", "0.03", "--M", "0.5", "--delta-min", "-2",
        "--delta-max", "2", "--delta-steps", "5", "--method", "exact",
    ),
    "a-sum": (
        "a-sum", "--s", "-1", "--M", "0.5", "--Omega", "0.05", "--method",
        "direct,newberger,series,geometric", "--expand", "--format", "json",
    ),
}


class TestDeterminismAndUsage:
    @pytest.mark.parametrize("command", list(RERUN_COMMANDS))
    def test_rerun_byte_identical(self, tmp_path, command):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*RERUN_COMMANDS[command], "--output", str(a)) == 0
        assert run(*RERUN_COMMANDS[command], "--output", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command", list(RERUN_COMMANDS))
    def test_stamp_is_an_option_of_every_command_but_verify(self, tmp_path, command):
        argv = (*RERUN_COMMANDS[command], "--stamp", "--output", str(tmp_path / "out"))
        if command == "verify":
            with pytest.raises(SystemExit) as err:
                run(*argv)
            assert err.value.code == 2
        else:
            assert run(*argv) == 0

    @pytest.mark.parametrize("argv", [
        ("coeffs", "--k", "5"),
        ("verify", "--tol", "1e-9"),
        ("sidebands", "--phi", "[]"),
        ("lineshape", "--Omega", "0.03", "--M", "0.5", "--harm", "1"),
        ("a-sum", "--s", "1", "--M", "1", "--Omega", "0.5", "--tol", "1e-3"),
    ], ids=lambda argv: argv[0])
    def test_abbreviated_option_is_usage_error(self, tmp_path, argv):
        # each names one option of its command, so with abbreviations the call would run
        with pytest.raises(SystemExit) as err:
            run(*argv, "--output", str(tmp_path / "out"))
        assert err.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_help_before_a_negative_number_prints_the_help(self, capsys):
        with pytest.raises(SystemExit) as err:
            run("coeffs", "--help", "-1e-3")
        assert err.value.code == 0
        assert "--k-max" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ("coeffs", "--k-max", "3", "--stamp", "-1e-3"),
        ("a-sum", "--s", "1", "--M", "1", "--Omega", "0.5", "--expand", "-1"),
    ], ids=lambda argv: argv[-2])
    def test_flag_before_a_negative_number_leaves_it_unrecognized(self, tmp_path, capsys, argv):
        # a flag takes no value, so the number is not joined to it
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            run(*argv[:-2], "--output", str(out), *argv[-2:])
        assert err.value.code == 2
        assert f"unrecognized arguments: {argv[-1]}" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            run("verify", "--suite", "bogus", "--output", "/tmp/x")
        assert err.value.code == 2

    def test_main_runs_the_command_function_bound_at_call_time(self, tmp_path, monkeypatch):
        # a function that replaces cmd_a_sum after import (a spy, a tracer's
        # wrapper) is the one main() runs
        seen = []
        monkeypatch.setattr(cli, "cmd_a_sum", lambda args: seen.append(args.s) or 0)
        out = tmp_path / "a.json"
        assert run("a-sum", "--s", "2", "--M", "1", "--Omega", "0.5", "--output", str(out)) == 0
        assert seen == [2]
        assert not out.exists()

    def test_unwritable_output_is_usage_error(self, tmp_path):
        code = run("coeffs", "--k-max", "2", "--output", str(tmp_path / "no" / "x.json"))
        assert code == 2
