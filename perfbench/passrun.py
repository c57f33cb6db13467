"""One benchmark pass, run in a fresh interpreter.

    python3 perfbench/passrun.py SPEC_JSON RESULT_JSON TRACE

The working directory is the pass's output directory and ``src`` of the
checkout is on PYTHONPATH.  The pass imports ``besselrules.cli`` first, so
that the time from interpreter launch to the end of that import is the
set-up every ``besselrules`` invocation pays.  It then runs every
operation of SPEC_JSON through ``besselrules.cli.main`` (with the tracer
of ``tracer.py`` installed when TRACE is 1) and writes RESULT_JSON.

Throughout, a timer signal every SAMPLE_INTERVAL_S runs a fixed
pure-Python loop that is no part of the program and records how long it
took.  Those samples tell how fast the vCPU ran while the pass ran; the
benchmark scales its times by them (README.md, "Statistics").  The time
spent in the samples is left out of the set-up and pass times.
"""

import signal
import sys
import time

SAMPLE_INTERVAL_S = 0.05
SPEED_SAMPLES = []


def _sample_speed(signum, frame):
    start = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc = (acc + i * i) % 1_000_003
    SPEED_SAMPLES.append(time.perf_counter() - start)


signal.signal(signal.SIGALRM, _sample_speed)
signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

import besselrules.cli  # noqa: E402

IMPORTED_AT = time.monotonic()
IMPORT_SAMPLES = list(SPEED_SAMPLES)
IMPORT_MODULES = len(sys.modules)

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def run_operations(ops: list[dict]) -> tuple[float, list]:
    """Run every operation; return the wall time of the list and each outcome.

    An outcome is the exit code, or the name of the exception that escaped
    ``main``.
    """
    outcomes = []
    start = time.perf_counter()
    for op in ops:
        try:
            outcomes.append(besselrules.cli.main(list(op["argv"])))
        except Exception as exc:  # an escaping exception is a failed operation
            outcomes.append(type(exc).__name__)
    return time.perf_counter() - start, outcomes


def main() -> None:
    spec_path, result_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    with open(spec_path) as fh:
        ops = json.load(fh)
    tracer = None
    if trace:
        import tracer as tracer_module  # the script's directory leads sys.path

        tracer = tracer_module.Tracer()
        tracer.install()
    first = len(SPEED_SAMPLES)
    wall_s, outcomes = run_operations(ops)
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    samples = SPEED_SAMPLES[first:]
    result = {
        "imported_at": IMPORTED_AT,
        "import_samples": IMPORT_SAMPLES,
        "import_modules": IMPORT_MODULES,
        "pass_raw_s": wall_s - sum(samples),
        "pass_samples": samples,
        "outcomes": outcomes,
        "output_bytes": sum(
            os.path.getsize(op["output"]) for op in ops if os.path.exists(op["output"])
        ),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        with open(result_path + ".spans", "w") as fh:
            json.dump(tracer.spans, fh)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
