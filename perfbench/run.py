"""Benchmark of the besselrules command line, end to end and per module.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

The script finds the program in ``src/besselrules`` of the checkout that
holds it.  Each pass launches a fresh interpreter (``passrun.py``) that
imports ``besselrules.cli`` and runs the workload's fixed operation list
through ``besselrules.cli.main``.  Passes repeat until ``--seconds`` have
passed; ``checks.py`` then checks the files of the first pass, and every
later pass must write the same bytes.  Times are scaled to a reference
speed of the vCPU measured during each pass (``_scale_to_reference``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-module metrics of ``tracer.py`` with ``--trace 1``.
README.md explains the workloads, the statistics and their spread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

import checks  # the script's directory leads sys.path
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PASS_TIMEOUT_S = 120
# The fastest time of passrun.py's sampling loop seen on the 2-vCPU VM
# where the benchmark was written; a fixed convention, so that scaled times
# of different runs compare (README.md, "Statistics").
REFERENCE_LOOP_S = 0.22e-3
# log(time) against log(loop slowdown), fitted over 150 passes of the three
# workloads on that VM: pass times grow as the 1.5th to 1.6th power of the
# loop's slowdown, import times as the 1.0th to 1.2th (README.md).
SLOWDOWN_EXPONENT = {"setup": 1.0, "pass": 1.5}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed operation)."""


def _file_digests(directory: str, ops: list[dict]) -> dict[str, str]:
    digests = {}
    for op in ops:
        path = os.path.join(directory, op["output"])
        if os.path.exists(path):
            with open(path, "rb") as fh:
                digests[op["output"]] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def run_pass(spec_path: str, pass_dir: str, trace: bool) -> dict:
    """Run one pass in a fresh interpreter; return its timings and outcomes."""
    shutil.rmtree(pass_dir, ignore_errors=True)
    os.makedirs(pass_dir)
    result_path = pass_dir + ".result.json"
    env = {k: v for k, v in os.environ.items() if k != "BESSELRULES_THREADS"}
    env["PYTHONPATH"] = SRC
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "passrun.py"), spec_path, result_path,
         "1" if trace else "0"],
        cwd=pass_dir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchmarkError(
            f"pass process exited with {proc.returncode}:\n"
            + proc.stderr.decode(errors="replace")[-4000:]
        )
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_raw_s"] = (
        result["imported_at"] - launched - sum(result["import_samples"]))
    return result


def _scale_to_reference(passes: list[dict]) -> None:
    """Add set-up and pass times scaled to the reference speed of the vCPU.

    A sample d_i of passrun.py's loop measures the slowdown d_i /
    REFERENCE_LOOP_S of the vCPU at that moment.  The program slows down as
    a power of it (SLOWDOWN_EXPONENT), so a time spanning samples d_i becomes
    time * mean((REFERENCE_LOOP_S / d_i) ** exponent): the time the same
    work takes on a vCPU that runs the loop in REFERENCE_LOOP_S throughout.
    """
    for p in passes:
        for key, part in (("setup", "import_samples"), ("pass", "pass_samples")):
            power = SLOWDOWN_EXPONENT[key]
            factor = (statistics.fmean((REFERENCE_LOOP_S / d) ** power for d in p[part])
                      if p[part] else 1.0)
            p[f"{key}_s"] = p[f"{key}_raw_s"] * factor


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes for `seconds` (at least one, two when traced), then check.

    With `trace`, plain and traced passes alternate, so that the tracing
    overhead is measured under the same conditions.
    """
    ops = workloads.generate(workload, seed)
    wdir = os.path.join(OUT, workload)
    os.makedirs(wdir, exist_ok=True)
    spec_path = os.path.join(wdir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(ops, fh)

    problems: list[str] = []
    passes: list[dict] = []
    first_dir = os.path.join(wdir, "first")
    digests = None
    start = time.monotonic()
    while len(passes) < 1 + trace or time.monotonic() - start < seconds:
        traced = trace and len(passes) % 2 == 1
        pass_dir = first_dir if not passes else os.path.join(wdir, "pass")
        result = run_pass(spec_path, pass_dir, traced)
        result["traced"] = traced
        passes.append(result)
        if digests is None:
            digests = _file_digests(first_dir, ops)
        elif _file_digests(pass_dir, ops) != digests:
            problems.append(f"pass {len(passes)} wrote files that differ from pass 1")
        if result["outcomes"] != passes[0]["outcomes"]:
            problems.append(f"pass {len(passes)} outcomes differ from pass 1")

    _scale_to_reference(passes)
    # The outputs of every pass are byte-identical, so checking the first
    # pass's files checks them all.
    rng = random.Random(f"check:{workload}:{seed}")
    failed: list[dict] = []
    for op, outcome in zip(ops, passes[0]["outcomes"]):
        if outcome != 0:
            found = [f"outcome {outcome}"]
        else:
            found = checks.check_operation(op, first_dir, rng)
            problems += [f"{' '.join(op['argv'])}: {p}" for p in found]
        if found:
            failed.append({"argv": op["argv"], "outcome": outcome, "why": found[0]})
    problems += checks.check_tables_agree(ops, first_dir)

    plain = [p for p in passes if not p["traced"]]
    if trace:
        metrics = _layer_metrics(plain, [p for p in passes if p["traced"]], problems)
    else:
        metrics = _end_to_end_metrics(plain)
    return {
        "correct": not problems,
        "attempted": len(ops) * len(passes),
        "failed": len(failed) * len(passes),
        "metrics": metrics,
        "problems": problems,
        "failed_operations": failed,
        "passes": passes,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end_metrics(passes: list[dict]) -> dict:
    return {
        "setup_s": _metric(statistics.median(p["setup_s"] for p in passes), "s"),
        "pass_s": _metric(statistics.median(p["pass_s"] for p in passes), "s"),
        "peak_rss_mb": _metric(
            statistics.median(p["peak_rss_kb"] for p in passes) / 1024.0, "MB"),
    }


def _layer_metrics(plain: list[dict], traced: list[dict], problems: list[str]) -> dict:
    metrics = {}
    for name in tracer.metric_names():
        if name.endswith(".self_s"):
            # scaled like the pass that holds the spans
            values = [p["trace"][name] * p["pass_s"] / p["pass_raw_s"] for p in traced]
            metrics[name] = _metric(statistics.median(values), "s")
            continue
        values = [p["trace"][name] for p in traced]
        if len(set(values)) != 1:
            problems.append(f"traced passes disagree on {name}: {values}")
        metrics[name] = _metric(values[0], "count")
    for name, key in (("cli.output_bytes", "output_bytes"),
                      ("cli.import_modules", "import_modules")):
        metrics[name] = _metric(traced[0][key], "count")
    overhead = (statistics.median(p["pass_s"] for p in traced)
                - statistics.median(p["pass_s"] for p in plain))
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    return metrics


def environment() -> str:
    from importlib.metadata import version

    return (f"python {platform.python_version()}, numpy {version('numpy')}, "
            f"scipy {version('scipy')}, nproc {len(os.sched_getaffinity(0))}")


def _report(workload: str, seed: int, summary: dict) -> None:
    passes = summary["passes"]
    print(f"environment: {environment()}")
    print(f"workload {workload}, seed {seed}: {len(passes)} passes")
    for key in ("setup", "pass"):
        raw = sorted(p[f"{key}_raw_s"] for p in passes if not p["traced"])
        scaled = sorted(p[f"{key}_s"] for p in passes if not p["traced"])
        print(f"  {key}_s unscaled min {raw[0]:.4f} median {statistics.median(raw):.4f} "
              f"max {raw[-1]:.4f}; scaled min {scaled[0]:.4f} "
              f"median {statistics.median(scaled):.4f} max {scaled[-1]:.4f}")
    for op in summary["failed_operations"]:
        print(f"failed: {' '.join(op['argv'])} -> {op['why']}")
    for problem in summary["problems"]:
        print(f"problem: {problem}")


def self_check() -> int:
    """One plain and one traced pass of each workload, with every check."""
    ok = True
    for workload in workloads.WORKLOADS:
        summary = run_workload(workload, seed=1, seconds=0, trace=True)
        _report(workload, 1, summary)
        failed = sorted(op["argv"] for op in summary["failed_operations"])
        expected = sorted(op["argv"] for op in workloads.generate(workload, 1)
                          if "known_fault" in op["check"])
        if not summary["correct"] or failed != expected:
            ok = False
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "besselrules", "cli.py")):
        print(f"error: no besselrules sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(summary, fh, indent=1)
    _report(args.workload, args.seed, summary)
    print(json.dumps({key: summary[key] for key in ("correct", "attempted", "failed",
                                                     "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
