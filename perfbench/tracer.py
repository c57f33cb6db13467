"""Spans and counts around the public functions of each besselrules module.

The tracer wraps functions from outside the program: each wrapper is
installed in every namespace that holds the original object (a module
that imported the name, the package ``__init__``, or the class for a
method), so calls made through any of those names are seen.  A span is
recorded per call; a function's self time is its spans' duration minus
the part covered by its child spans.  Counters record work done, read off
the returned values.
"""

from __future__ import annotations

import sys
import time

# (module, qualified name, counter name, count of the returned value)
TARGETS = (
    ("coefficients", "coeff_faa_di_bruno", None, None),
    ("coefficients", "enumerate_derivative_partitions", "partitions", len),
    ("coefficients", "build_coeff_table", "entries", lambda t: len(t.entries)),
    ("coefficients", "CoeffTable.to_json_obj", None, None),
    ("coefficients", "DyadicPoly.evaluate", None, None),
    ("bessel_core", "bessel_j_row", "values", lambda row: len(row.values)),
    ("bessel_core", "bessel_j_complex_order", None, None),
    ("sum_rules", "b_ks_closed", None, None),
    ("sum_rules", "b_ks_brute", None, None),
    ("sum_rules", "addition_formula_sides", None, None),
    ("sum_rules", "alternating_sum_sides", None, None),
    ("sum_rules", "recursion_residual", None, None),
    ("sum_rules", "jcs_sum_rule_sides", None, None),
    ("sum_rules", "jbar_sum_rule_sides", None, None),
    ("sum_rules", "general_modulation_rules", None, None),
    ("sum_rules", "write_reports_csv", None, None),
    ("sum_rules", "general_sidebands", "fft_samples", lambda sp: sp.sample_count),
    ("modulation_spectroscopy", "modulated_power_exact", None, None),
    ("modulation_spectroscopy", "modulated_power_perturbative", None, None),
    ("modulation_spectroscopy", "a_s_direct", None, None),
    ("modulation_spectroscopy", "a_s_newberger", None, None),
    ("modulation_spectroscopy", "a_s_series", None, None),
    ("modulation_spectroscopy", "a_s_geometric", None, None),
    ("modulation_spectroscopy", "a_s_eta_coefficients", None, None),
    ("modulation_spectroscopy", "time_domain_oracle", None, None),
    ("cli", "cmd_coeffs", None, None),
    ("cli", "cmd_verify", None, None),
    ("cli", "cmd_sidebands", None, None),
    ("cli", "cmd_lineshape", None, None),
    ("cli", "cmd_a_sum", None, None),
)

# Counted but not spanned: the integrator's right-hand-side evaluations,
# read from the result of solve_ivp as time_domain_oracle sees it.
RHS_EVALS = "modulation_spectroscopy.time_domain_oracle.rhs_evals"

PACKAGE = "besselrules"


def metric_names() -> list[str]:
    """Every per-layer metric the tracer reports, in a fixed order."""
    names = []
    for module, qualname, counter, _ in TARGETS:
        base = f"{module}.{qualname}"
        names += [f"{base}.calls", f"{base}.self_s"]
        if counter:
            names.append(f"{base}.{counter}")
    names.append(RHS_EVALS)
    return names


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        # span: [name, parent index or -1, start, end]
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, name: str, fn, counter: str | None, count_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][3] = clock()
                stack.pop()
            if counter:
                self._count(f"{name}.{counter}", count_of(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        import importlib

        for module, qualname, counter, count_of in TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            name = f"{module}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, counter, count_of))
            else:
                original = getattr(mod, qualname)
                self._replace(original, self._wrap(name, original, counter, count_of))

        ms = importlib.import_module(f"{PACKAGE}.modulation_spectroscopy")
        solve_ivp = ms.solve_ivp

        def counted_solve_ivp(*args, **kwargs):
            result = solve_ivp(*args, **kwargs)
            self._count(RHS_EVALS, int(result.nfev))
            return result

        self._restore.append((ms, "solve_ivp", solve_ivp))
        ms.solve_ivp = counted_solve_ivp

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def summary(self) -> dict[str, float]:
        """Calls, self time and counters per traced function."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            if parent >= 0:
                child[parent] += end - start
        for (name, _, _, _), covered in zip(self.spans, child):
            total[name] -= covered
        out: dict[str, float] = {}
        for module, qualname, counter, _ in TARGETS:
            name = f"{module}.{qualname}"
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = total.get(name, 0.0)
            if counter:
                out[f"{name}.{counter}"] = self.counts.get(f"{name}.{counter}", 0)
        out[RHS_EVALS] = self.counts.get(RHS_EVALS, 0)
        return out
