"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def test_operations_depend_only_on_seed():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 7) == workloads.generate(name, 7)
        kinds = sorted(op["check"]["kind"] for op in workloads.generate(name, 7))
        assert kinds == sorted(op["check"]["kind"] for op in workloads.generate(name, 8))
    assert workloads.generate("spectra", 7) != workloads.generate("spectra", 8)


def test_self_time_subtracts_child_spans():
    t = tracer.Tracer()
    t.spans = [
        ["cli.cmd_a_sum", -1, 0.0, 10.0],
        ["modulation_spectroscopy.a_s_newberger", 0, 1.0, 7.0],
        ["bessel_core.bessel_j_complex_order", 1, 2.0, 3.0],
        ["bessel_core.bessel_j_complex_order", 1, 4.0, 6.0],
    ]
    summary = t.summary()
    assert summary["cli.cmd_a_sum.self_s"] == pytest.approx(4.0)
    assert summary["modulation_spectroscopy.a_s_newberger.self_s"] == pytest.approx(3.0)
    assert summary["bessel_core.bessel_j_complex_order.calls"] == 2
    assert summary["bessel_core.bessel_j_complex_order.self_s"] == pytest.approx(3.0)
    assert set(summary) == set(tracer.metric_names())


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"] for m in spec["per_layer"]}
    assert set(tracer.metric_names()) | {
        "cli.output_bytes", "cli.import_modules", "trace.overhead_s"} == declared


def test_refuses_to_run_without_program_sources():
    # a directory that holds only the benchmark, as a bare checkout would
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__", "test_*"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_check_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--self-check"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
