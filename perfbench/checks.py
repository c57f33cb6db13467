"""Correctness checks of the files one benchmark pass wrote.

Every reference value is computed here with mpmath, or is a property the
output must have (Parseval's identity, a moment rule, agreement of two
files that hold the same table); none is a stored copy of the program's
own output.  ``check_operation`` returns a list of problems, empty when
the output is correct.  The checks run outside the timed region.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from fractions import Fraction
from functools import lru_cache

import mpmath

mpmath.mp.dps = 40

# Values of the (4, 0) entry: 3 y^4 / 8 + y^2 / 2 as (power, num, exp2).
ENTRY_4_0 = [(2, 1, 1), (4, 3, 3)]


@lru_cache(maxsize=None)
def _j_row(y: float, n_max: int) -> dict[int, mpmath.mpf]:
    """J_n(y) for |n| <= n_max, from mpmath."""
    return {n: mpmath.besselj(n, y) for n in range(-n_max, n_max + 1)}


def _cutoff(y: float, digits: int) -> int:
    # |J_n(y)| < 10^-digits for |n| beyond this (generous envelope)
    y = abs(y)
    return int(math.ceil(y + 3.0 * y ** (1.0 / 3.0) * digits ** (2.0 / 3.0) + digits + 10))


def moment_sum(k: int, s: int, y: float) -> tuple[mpmath.mpf, mpmath.mpf]:
    """sum_n n^k J_n(y) J_{n-s}(y) and the sum of the absolute terms."""
    n_max = _cutoff(y, 30) + k
    j = _j_row(y, n_max + abs(s))
    total = mpmath.mpf(0)
    scale = mpmath.mpf(0)
    for n in range(-n_max, n_max + 1):
        term = mpmath.mpf(n) ** k * j[n] * j[n - s]
        total += term
        scale += abs(term)
    return total, scale


def a_s_reference(s: int, M: float, gamma: float, Omega: float) -> mpmath.mpc:
    """The resonant sideband sum A_s.

    For M <= 50 the direct sum over mpmath Bessel values; beyond, where that
    sum needs thousands of terms, Newberger's closed form
    (-1)^s / gamma * (pi a / sinh(pi a)) J_{s - i a}(M) J_{i a}(M), a = gamma/Omega,
    with mpmath's complex-order Bessel function (s >= 0).
    """
    if M <= 50.0:
        n_max = _cutoff(M, 30)
        j = _j_row(M, n_max + abs(s))
        return mpmath.fsum(
            j[n] * j[n - s] / mpmath.mpc(gamma, n * Omega)
            for n in range(-n_max, n_max + 1)
        )
    a = mpmath.mpf(gamma) / Omega
    return ((-1) ** (s % 2) / mpmath.mpf(gamma) * (mpmath.pi * a / mpmath.sinh(mpmath.pi * a))
            * mpmath.besselj(mpmath.mpc(s, -a), M) * mpmath.besselj(mpmath.mpc(0, a), M))


def harmonics_reference(
    M: float, Omega: float, delta_norm: float, harmonics: int,
    omega0: float = 1e6, gamma: float = 1.0, force: float = 1.0,
) -> list[mpmath.mpf]:
    """[dc, h1_cos, h1_sin, ...] of the averaged absorbed power.

    Built from the sideband sums x_s = sum_n J_n J_{n-s} w_n / (w0^2 - w_n^2
    + i gamma w_n), w_n = w0 + delta + n Omega, with mpmath Bessel values.
    """
    n_max = _cutoff(M, 30) + harmonics
    j = _j_row(M, n_max + harmonics)
    w0 = mpmath.mpf(omega0)
    carrier = w0 + mpmath.mpf(0.5 * delta_norm * gamma)
    resp = {}
    for n in range(-n_max, n_max + 1):
        w = carrier + n * mpmath.mpf(Omega)
        resp[n] = w / mpmath.mpc(w0 * w0 - w * w, gamma * w)
    x = {s: mpmath.fsum(j[n] * j[n - s] * resp[n] for n in range(-n_max, n_max + 1))
         for s in range(-harmonics, harmonics + 1)}
    half_f2 = mpmath.mpf(0.5) * force * force
    out = [-half_f2 * x[0].imag]
    for h in range(1, harmonics + 1):
        out.append(-half_f2 * (x[h].imag + x[-h].imag))
        out.append(-half_f2 * (x[h].real - x[-h].real))
    return out


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------

def _read_table_json(path: str) -> tuple[dict, dict]:
    with open(path) as fh:
        obj = json.load(fh)
    entries = {
        (e["k"], e["n"]): [(t["power"], int(t["num"]), t["exp2"]) for t in e["poly"]]
        for e in obj["entries"]
    }
    return obj, entries


def _read_table_csv(path: str) -> tuple[dict, set]:
    entries: dict = {}
    status = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["k", "n", "power", "num", "exp2", "dual_path"]:
            raise ValueError("unexpected CSV header")
        for k, n, power, num, exp2, dual in reader:
            entries.setdefault((int(k), int(n)), []).append((int(power), int(num), int(exp2)))
            status.add(dual)
    return entries, status


def _read_rows(path: str) -> list[dict]:
    """Rows of a lineshape or sidebands file, CSV or JSON, as float dicts."""
    if path.endswith(".json"):
        with open(path) as fh:
            return json.load(fh)["rows"]
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def _exact_value(poly: list[tuple[int, int, int]], y: Fraction) -> Fraction:
    return sum((Fraction(num, 1 << exp2) * y**power for power, num, exp2 in poly),
               Fraction(0))


def _close(value: float, ref, tol: float) -> bool:
    return math.isfinite(value) and abs(mpmath.mpf(value) - ref) <= tol


# ---------------------------------------------------------------------------
# per-kind checks; each returns a list of problems
# ---------------------------------------------------------------------------

def _check_table(entries: dict, k_max: int, rng: random.Random) -> list[str]:
    problems = []
    if entries.get((4, 0)) != ENTRY_4_0:
        problems.append(f"(4, 0) entry is {entries.get((4, 0))}, not 3y^4/8 + y^2/2")
    if entries.get((0, 0)) != [(0, 1, 0)]:
        problems.append("(0, 0) entry is not 1")
    if any(k > k_max or abs(n) > k for k, n in entries):
        problems.append("entry outside |n| <= k <= k_max")
    # sampled entries against mpmath moment sums, the deepest row included
    picks = [(k_max, rng.randrange(-k_max, k_max + 1, 2))]
    picks += [(k, rng.randint(-k, k)) for k in rng.sample(range(1, k_max), 3)]
    y = Fraction(rng.choice((1, 2, 3, 4)), 2)
    for k, n in picks:
        exact = _exact_value(entries.get((k, n), []), y)
        total, scale = moment_sum(k, n, float(y))
        err = abs(mpmath.mpf(exact.numerator) / exact.denominator - total)
        if err > mpmath.mpf(10) ** -25 * max(scale, 1):
            problems.append(f"D[{k},{n}]({y}) = {float(exact)!r}, mpmath sum {total}")
    return problems


def _check_coeffs(path: str, check: dict, rng: random.Random) -> list[str]:
    if path.endswith(".csv"):
        entries, status = _read_table_csv(path)
        problems = [] if status <= {"ok", "skipped"} else [f"dual_path column {status}"]
    else:
        obj, entries = _read_table_json(path)
        want = ("ok",) if check["kind"] == "coeffs_dual" else ("ok", "skipped")
        problems = [] if obj.get("dual_path") in want else [f"dual_path {obj.get('dual_path')!r}"]
        if obj.get("k_max") != check["k_max"]:
            problems.append(f"k_max {obj.get('k_max')}")
    return problems + _check_table(entries, check["k_max"], rng)


def _check_lineshape(path: str, check: dict, rng: random.Random) -> list[str]:
    rows = _read_rows(path)
    steps, lo, hi = check["steps"], check["lo"], check["hi"]
    if len(rows) != steps:
        return [f"{len(rows)} rows, expected {steps}"]
    problems = []
    for i, row in enumerate(rows):
        want = lo + i * (hi - lo) / (steps - 1)
        if abs(row["delta"] - want) > 1e-12 * max(1.0, abs(want)):
            problems.append(f"row {i}: delta {row['delta']!r}, expected {want!r}")
            break
    kind = check["kind"]
    picks = range(steps) if kind == "lineshape_ode" else sorted(rng.sample(range(steps), 5))
    names = ["dc", "h1_cos", "h1_sin", "h2_cos", "h2_sin"]
    M, eta = check["M"], check["Omega"]
    kappa = 2.0 * M * eta
    for i in picks:
        row = rows[i]
        ref = harmonics_reference(M, eta, row["delta"], 2)
        if kind == "lineshape_exact":
            # float64 sideband sums: the response denominator w0^2 - w_n^2
            # cancels about 12 of 16 digits at w0 = 1e6
            tols = [1e-8 * 0.5] * 5
        elif kind == "lineshape_ode":
            tols = [1e-6 * abs(float(ref[0]))] * 5
        else:
            # the perturbative form keeps dc and the second harmonic to
            # kappa^2 and the first harmonic to kappa and M (Omega/gamma)^2;
            # the neglected terms are of relative order kappa^3 and
            # kappa (Omega/gamma)
            tols = [kappa**3 + kappa * eta] * 5
        for name, r, tol in zip(names, ref, tols):
            if not _close(row[name], r, tol):
                problems.append(f"row {i} {name}: {row[name]!r}, reference {float(r)!r}")
    return problems


def _check_a_sum(path: str, check: dict) -> list[str]:
    with open(path) as fh:
        obj = json.load(fh)
    s, M, gamma, Omega = check["s"], check["M"], check["gamma"], check["Omega"]
    ref = a_s_reference(s, M, gamma, Omega)
    # direct and closed-form paths agree to 1e-8 by the CLI's own bound; the
    # large-M direct sums are held to 1e-9 relative
    tol = 1e-8 / gamma if M <= 50.0 else 1e-9 * float(abs(ref))
    problems = []
    for method, v in obj["values"].items():
        err = abs(mpmath.mpc(v["re"], v["im"]) - ref)
        if not err <= tol:
            problems.append(f"{method} = {v['re']!r}{v['im']:+}j, mpmath {complex(ref)}")
    return problems


def _check_geometric(path: str, check: dict) -> list[str]:
    with open(path) as fh:
        obj = json.load(fh)
    s, M, gamma, Omega, order = (check[k] for k in ("s", "M", "gamma", "Omega", "order"))
    coeffs = obj.get("eta_coefficients", [])
    if [c["order"] for c in coeffs] != list(range(order + 1)):
        return [f"eta coefficient orders {[c['order'] for c in coeffs]}"]
    problems = []
    series = mpmath.mpc(0)
    for k, c in enumerate(coeffs):
        b, scale = moment_sum(k, s, M) if abs(s) <= k else (mpmath.mpf(0), mpmath.mpf(0))
        want = (-1j) ** (k % 4) * b
        if abs(mpmath.mpc(c["re"], c["im"]) - want) > 1e-13 * max(scale, 1):
            problems.append(f"eta coefficient {k}: {c}, mpmath {complex(want)}")
        series += want * (mpmath.mpf(Omega) / gamma) ** k
    v = obj["values"]["geometric"]
    if abs(mpmath.mpc(v["re"], v["im"]) - series / gamma) > 1e-13 / gamma:
        problems.append(f"geometric value {v}, mpmath partial sum {complex(series / gamma)}")
    return problems


def _sideband_reference(phi: dict[int, complex], n: int) -> mpmath.mpc:
    """(1/2 pi) integral of exp(i phi(theta) - i n theta) over one period."""
    def integrand(theta):
        phase = mpmath.fsum(c * mpmath.expj(m * theta) for m, c in phi.items())
        return mpmath.expj(phase.real - n * theta)
    return mpmath.quad(integrand, mpmath.linspace(0, 2 * mpmath.pi, 5)) / (2 * mpmath.pi)


def _check_sidebands(path: str, check: dict) -> list[str]:
    phi = {int(n): complex(re, im) for n, (re, im) in check["phi"].items()}
    rows = _read_rows(path)
    g = {int(r["n"]): complex(r["g_re"], r["g_im"]) for r in rows}
    problems = []
    energy = sum(abs(v) ** 2 for v in g.values())
    first = sum(n * abs(v) ** 2 for n, v in g.items())
    second = sum(n * n * abs(v) ** 2 for n, v in g.items())
    want_second = sum(n * n * abs(c) ** 2 for n, c in phi.items())
    if abs(energy - 1.0) > 1e-12:
        problems.append(f"Parseval: sum |g_n|^2 = {energy!r}")
    if abs(first) > 1e-12:
        problems.append(f"first moment sum n |g_n|^2 = {first!r}, expected 0")
    if abs(second - want_second) > 1e-10 * max(1.0, want_second):
        problems.append(f"second moment {second!r}, expected {want_second!r}")
    if path.endswith(".json"):
        with open(path) as fh:
            reported = json.load(fh)["energy_sum"]
    else:
        with open(path) as fh:
            tail = fh.read().rstrip("\n").rsplit("\n", 1)[-1]
        reported = float(tail.split("=", 1)[1]) if tail.startswith("# energy_sum=") else math.nan
    if not abs(reported - 1.0) <= 1e-12:
        problems.append(f"energy_sum {reported!r}")
    sinusoidal = set(phi) == {1, -1} and phi[1].real == 0.0
    for n in (0, 1, -1, 2, 3):
        if sinusoidal:
            ref = mpmath.besselj(n, -2.0 * phi[1].imag)
        else:
            ref = _sideband_reference(phi, n)
        if abs(mpmath.mpc(g.get(n, 0.0)) - ref) > 1e-12:
            problems.append(f"g_{n} = {g.get(n)}, mpmath {complex(ref)}")
    return problems


def _check_verify(path: str, check: dict) -> list[str]:
    with open(path, newline="") as fh:
        if check["kind"] == "verify_csv":
            rows = list(csv.DictReader(fh))
            bad = [r["rule_id"] for r in rows if r["status"] != "ok"]
        else:
            rows = [json.loads(line) for line in fh]
            bad = [r["rule_id"] for r in rows if r["pass"] is not True]
    if not rows:
        return ["no rows"]
    return [f"{len(bad)} of {len(rows)} rules not ok: {sorted(set(bad))}"] if bad else []


def check_operation(op: dict, directory: str, rng: random.Random) -> list[str]:
    """Problems with the file that `op` wrote in `directory`."""
    path = os.path.join(directory, op["output"])
    if not os.path.exists(path):
        return [f"{op['output']} was not written"]
    check = op["check"]
    kind = check["kind"]
    try:
        if kind.startswith("coeffs"):
            return _check_coeffs(path, check, rng)
        if kind.startswith("lineshape"):
            return _check_lineshape(path, check, rng)
        if kind == "a_sum":
            return _check_a_sum(path, check)
        if kind == "a_sum_geometric":
            return _check_geometric(path, check)
        if kind == "sidebands":
            return _check_sidebands(path, check)
        return _check_verify(path, check)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def check_tables_agree(ops: list[dict], directory: str) -> list[str]:
    """The JSON and CSV k-max 64 tables, and the k-max 20 table, hold the same entries."""
    files = {op["output"]: os.path.join(directory, op["output"]) for op in ops
             if op["check"]["kind"].startswith("coeffs")}
    if len(files) != 3 or not all(os.path.exists(p) for p in files.values()):
        return []
    _, full = _read_table_json(files["coeffs64.json"])
    from_csv, _ = _read_table_csv(files["coeffs64.csv"])
    _, small = _read_table_json(files["coeffs20.json"])
    problems = []
    if from_csv != full:
        problems.append("coeffs64.csv and coeffs64.json differ")
    if small != {key: v for key, v in full.items() if key[0] <= 20}:
        problems.append("coeffs20.json is not the k <= 20 part of coeffs64.json")
    return problems
