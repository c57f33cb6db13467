"""Command-line front end: file contents, determinism, exit codes."""

import csv
import datetime
import io
import json
import math
import time

import pytest

from besselrules import cli, sum_rules
from besselrules.bessel_core import bessel_j_int
from besselrules.cli import main
from besselrules.coefficients import DyadicPoly, build_coeff_table
from besselrules.modulation_spectroscopy import a_s_direct
from besselrules.sum_rules import jbar


def run(*argv) -> int:
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(row for row in fh if not row.startswith("#")))


def coeffs_json_reference(k_max: int, **trailing) -> str:
    """The coefficient table as the indented JSON encoder writes it."""
    obj = build_coeff_table(k_max).to_json_obj() | trailing
    return json.dumps(obj, indent=2) + "\n"


def coeffs_csv_reference(k_max: int, flag_of) -> str:
    """The coefficient table as csv.writer writes it; flag_of(k, n) is dual_path."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["k", "n", "power", "num", "exp2", "dual_path"])
    for entry in build_coeff_table(k_max).to_json_obj()["entries"]:
        k, n = entry["k"], entry["n"]
        for t in entry["poly"]:
            writer.writerow([k, n, t["power"], t["num"], t["exp2"], flag_of(k, n)])
    return fh.getvalue()


class TestCoeffsCommand:
    @pytest.mark.parametrize("k_max", [0, 1, 20, 64])
    def test_files_match_the_generic_writers(self, tmp_path, k_max):
        flag = "ok" if k_max <= 30 else "skipped"
        out = tmp_path / "coeffs.json"
        assert run("coeffs", "--k-max", str(k_max), "--output", str(out)) == 0
        assert out.read_bytes() == coeffs_json_reference(k_max, dual_path=flag).encode()
        out = tmp_path / "coeffs.csv"
        assert run(
            "coeffs", "--k-max", str(k_max), "--format", "csv", "--output", str(out)
        ) == 0
        want = coeffs_csv_reference(k_max, lambda k, n: flag)
        assert out.read_bytes() == want.encode()

    def test_stamp_is_the_last_field(self, tmp_path):
        out = tmp_path / "coeffs.json"
        assert run("coeffs", "--k-max", "3", "--stamp", "--output", str(out)) == 0
        obj = json.loads(out.read_text())
        assert list(obj) == ["k_max", "entries", "dual_path", "stamp"]
        stamp = datetime.datetime.fromisoformat(obj["stamp"])
        assert stamp.utcoffset() == datetime.timedelta(0)
        want = coeffs_json_reference(3, dual_path="ok", stamp=obj["stamp"])
        assert out.read_text() == want

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_forced_mismatch_is_flagged(self, tmp_path, monkeypatch, fmt):
        real = cli.coeff_faa_di_bruno

        def disagree_at_3_1(k, n):
            return DyadicPoly({0: 7}) if (k, n) == (3, 1) else real(k, n)

        monkeypatch.setattr(cli, "coeff_faa_di_bruno", disagree_at_3_1)
        out = tmp_path / f"coeffs.{fmt}"
        code = run("coeffs", "--k-max", "5", "--format", fmt, "--output", str(out))
        assert code == 1
        if fmt == "json":
            want = coeffs_json_reference(5, dual_path="mismatch:(3,1)")
        else:
            want = coeffs_csv_reference(
                5, lambda k, n: "mismatch" if (k, n) == (3, 1) else "ok"
            )
            # D[3, 1] = y/2 + 3 y^3/8, the only flagged rows
            assert want.count("mismatch") == 2
            assert "\n3,1,1,1,1,mismatch\n3,1,3,3,3,mismatch\n" in want
        assert out.read_text() == want

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

    def test_negative_value_with_exponent(self, tmp_path):
        out = tmp_path / "n.csv"
        assert run(
            "lineshape", "--Omega", "0.03", "--M", "0.5", "--delta-min", "-1e-3",
            "--delta-max", "1e-3", "--delta-steps", "3", "--method", "perturbative",
            "--output", str(out),
        ) == 0
        assert [float(r["delta"]) for r in read_csv(out)] == [-1e-3, 0.0, 1e-3]

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
                "--normalized",
                "--omega0-over-gamma",
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

    def test_sinh_guard_maps_to_regime_exit(self, tmp_path):
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
        assert code == 3

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
