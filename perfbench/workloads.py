"""Fixed operation lists for the three benchmark workloads.

A workload is a list of operations; one pass runs the whole list through
``besselrules.cli.main`` in a fresh interpreter.  The seed jitters the
parameters within the ranges documented in README.md and shuffles the
order of the operations.  The number and kind of operations never depend
on the seed, so every pass of every run attempts the same work.

Each operation carries its CLI ``argv`` (the only thing the program sees)
and a ``check`` record that the checker in ``checks.py`` uses to build its
own reference values.  Output files are named relative to the pass's
working directory.
"""

from __future__ import annotations

import random

WORKLOADS = ("tables", "spectra", "oracle")


def _num(x: float) -> str:
    return repr(float(x))


def _op(command: str, output: str, check: dict, **options) -> dict:
    argv = [command]
    for flag, value in options.items():
        flag = "--" + flag.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            argv += [flag, value if isinstance(value, str) else _num(value)]
    argv += ["--output", output]
    return {"argv": argv, "output": output, "check": check}


def _uniform(rng: random.Random, lo: float, hi: float, digits: int = 4) -> float:
    return round(rng.uniform(lo, hi), digits)


def tables(rng: random.Random) -> list[dict]:
    # k-max 20 is the largest order at which the partition closed form
    # (the dual-path check) still fits a pass of a few seconds; 64 is the
    # largest table the recursion accepts.
    ops = [
        _op("coeffs", "coeffs20.json", {"kind": "coeffs_dual", "k_max": 20},
            k_max="20", format="json"),
        _op("coeffs", "coeffs64.json", {"kind": "coeffs_json", "k_max": 64},
            k_max="64", format="json"),
        _op("coeffs", "coeffs64.csv", {"kind": "coeffs_csv", "k_max": 64},
            k_max="64", format="csv"),
    ]
    rng.shuffle(ops)
    return ops


# (M range, Omega/gamma) of the exact detuning sweeps; gamma is 1.
_EXACT_SWEEPS = (((0.5, 1.0), 0.03), ((4.0, 6.0), 0.3), ((15.0, 20.0), 0.03),
                 ((35.0, 40.0), 0.3))
_SWEEP_STEPS = 1001
# bins of M and gamma/Omega for the a-sum grid; one draw per bin
_ASUM_M_BINS = ((0.2, 1.0), (1.0, 2.0), (2.0, 3.5), (3.5, 5.0))
_ASUM_RATIO_BINS = ((0.5, 1.5), (2.0, 4.0), (5.0, 10.0))
_ASUM_S = (-1, 0, 1, 2, 3)
_DIRECT_M_BINS = ((80.0, 100.0), (800.0, 1000.0), (8000.0, 10000.0))

# Two operations fail on every run because of known faults, on inputs that
# do not depend on the seed; their check records name the fault.
FAILING_ASUM = {"s": 1, "M": 30.0, "gamma": 1.0, "Omega": 2.0}


def spectra(rng: random.Random) -> list[dict]:
    ops = []
    # (a) detuning sweeps
    for i, ((m_lo, m_hi), eta) in enumerate(_EXACT_SWEEPS):
        M = _uniform(rng, m_lo, m_hi)
        lo, hi = _uniform(rng, -6.0, -4.0), _uniform(rng, 4.0, 6.0)
        fmt = "json" if i == 1 else "csv"
        ops.append(_op(
            "lineshape", f"exact{i}.{fmt}",
            {"kind": "lineshape_exact", "M": M, "Omega": eta, "lo": lo, "hi": hi,
             "steps": _SWEEP_STEPS},
            Omega=eta, M=M, delta_min=lo, delta_max=hi,
            delta_steps=str(_SWEEP_STEPS), method="exact", format=fmt))
    M = _uniform(rng, 0.3, 0.7)
    lo, hi = _uniform(rng, -6.0, -4.0), _uniform(rng, 4.0, 6.0)
    ops.append(_op(
        "lineshape", "perturbative.csv",
        {"kind": "lineshape_perturbative", "M": M, "Omega": 0.03, "lo": lo,
         "hi": hi, "steps": _SWEEP_STEPS},
        Omega=0.03, M=M, delta_min=lo, delta_max=hi,
        delta_steps=str(_SWEEP_STEPS), method="perturbative"))

    # (b) single-value commands
    ms = [_uniform(rng, lo, hi) for lo, hi in _ASUM_M_BINS]
    ratios = [_uniform(rng, lo, hi) for lo, hi in _ASUM_RATIO_BINS]
    for s in _ASUM_S:
        for M in ms:
            for ratio in ratios:
                Omega = round(1.0 / ratio, 6)
                ops.append(_op(
                    "a-sum", f"asum_{s}_{M}_{Omega}.json",
                    {"kind": "a_sum", "s": s, "M": M, "gamma": 1.0, "Omega": Omega},
                    s=str(s), M=M, gamma=1.0, Omega=Omega,
                    method="direct,newberger,series"))
    for s in (0, 1, 2):
        M = _uniform(rng, 0.2, 0.8)
        Omega = _uniform(rng, 0.01, 0.05)
        order = rng.randint(3, 6)
        ops.append(_op(
            "a-sum", f"geometric_{s}.json",
            {"kind": "a_sum_geometric", "s": s, "M": M, "gamma": 1.0,
             "Omega": Omega, "order": order},
            s=str(s), M=M, gamma=1.0, Omega=Omega, method="geometric",
            order=str(order), expand=True))
    for i, (lo, hi) in enumerate(_DIRECT_M_BINS):
        s = rng.randint(0, 3)
        M = _uniform(rng, lo, hi, 2)
        Omega = _uniform(rng, 0.3, 1.0)
        ops.append(_op(
            "a-sum", f"direct{i}.json",
            {"kind": "a_sum", "s": s, "M": M, "gamma": 1.0, "Omega": Omega},
            s=str(s), M=M, gamma=1.0, Omega=Omega, method="direct"))
    ops.append(_op(
        "a-sum", "asum_m30.json",
        {"kind": "a_sum", **FAILING_ASUM,
         "known_fault": "bessel_j_complex_order loses digits to cancellation at M = 30"},
        s=str(FAILING_ASUM["s"]), M=FAILING_ASUM["M"], gamma=FAILING_ASUM["gamma"],
        Omega=FAILING_ASUM["Omega"], method="direct,newberger"))

    M = _uniform(rng, 1.0, 3.0)
    ops.append(_op("sidebands", "sidebands_sin.csv",
                   {"kind": "sidebands", "phi": {1: [0.0, -0.5 * M], -1: [0.0, 0.5 * M]}},
                   M=M))
    y1, y2 = _uniform(rng, 0.5, 1.5), _uniform(rng, 0.2, 0.8)
    ops.append(_op("sidebands", "sidebands_two_tone.json",
                   {"kind": "sidebands",
                    "phi": {1: [0.0, -0.5 * y1], -1: [0.0, 0.5 * y1],
                            2: [0.0, -0.5 * y2], -2: [0.0, 0.5 * y2]}},
                   y1=y1, y2=y2, format="json"))
    a, b, c = (_uniform(rng, 0.2, 0.6), _uniform(rng, -0.2, 0.2),
               _uniform(rng, -0.2, 0.2))
    phi = {1: [0.0, -a], -1: [0.0, a], 3: [b, c], -3: [b, -c]}
    # --n-max is explicit: the automatic order of `sidebands` drops
    # sidebands of about 1e-6 for some of these modulations (CHANGES.md).
    ops.append(_op("sidebands", "sidebands_general.csv",
                   {"kind": "sidebands", "phi": phi},
                   phi_coeffs="[" + ", ".join(
                       f"[{n}, {_num(re)}, {_num(im)}]" for n, (re, im) in phi.items()
                   ) + "]", n_max="40"))

    for suite in ("core", "generalized", "spectroscopy"):
        ops.append(_op("verify", f"verify_{suite}.csv",
                       {"kind": "verify_csv"}, suite=suite, format="csv"))
    ops.append(_op("verify", "verify_all.jsonl",
                   {"kind": "verify_json",
                    "known_fault": "the JSON writer meets a numpy bool and raises TypeError"},
                   suite="all", format="json"))
    rng.shuffle(ops)
    return ops


def oracle(rng: random.Random) -> list[dict]:
    lo, hi = _uniform(rng, -4.0, -3.5), _uniform(rng, 3.5, 4.0)
    return [_op(
        "lineshape", "ode.csv",
        {"kind": "lineshape_ode", "M": 0.5, "Omega": 0.03, "lo": lo, "hi": hi,
         "steps": 5},
        Omega=0.03, M=0.5, delta_min=lo, delta_max=hi, delta_steps="5",
        method="ode")]


def generate(workload: str, seed: int) -> list[dict]:
    """The operation list of `workload` for `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return globals()[workload](rng)
