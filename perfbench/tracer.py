"""Spans around riaho's public entry points, installed from outside.

The tracer rebinds module attributes and patches class methods of an
already imported riaho; the program itself is not changed.  Every call of a
wrapped entry point records one span (name, start, end, parent span,
operation id) in memory.  Self time is a span's duration minus the part of
it that its child spans cover.  Spans are aggregated per operation into the
per-layer metrics and written out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# span name -> (module, names).  A module-level function is rebound in every
# loaded riaho module that holds it, which covers ``from x import f``.
FUNCTIONS = {
    "phasealg.poisson_bracket": ("riaho.phasealg.poly", ("poisson_bracket",)),
    "phasealg.verify": ("riaho.phasealg.verify", (
        "verify_sp4_table", "verify_casimirs", "verify_dynamical_integrals")),
    "phasealg.classical_cbt": ("riaho.phasealg.cbt", ("classical_cbt",)),
    "classdyn.integrate": ("riaho.classdyn", ("integrate",)),
    "classdyn.closed_form": ("riaho.classdyn", (
        "position", "velocity", "conserved_values")),
    "fockeng.unitary_bridge": ("riaho.fockeng", ("unitary_bridge",)),
    "fockeng.hidden_operator": ("riaho.fockeng", ("hidden_operator",)),
    "fockeng.ladder": ("riaho.fockeng", ("ladder",)),
    "fockeng.operator_norm": ("riaho.fockeng", ("operator_norm",)),
    "fockeng.builders": ("riaho.fockeng", (
        "su2_generators", "cartesian_modes", "rni_hamiltonian", "hamiltonian")),
    "fockeng.verify_quantum_bridge": ("riaho.fockeng", ("verify_quantum_bridge",)),
    "fockeng.verify_one_mode_bridge": ("riaho.fockeng", ("verify_one_mode_bridge",)),
    "fockeng.spectrum": ("riaho.fockeng", ("spectrum_rows", "degeneracy_classes")),
    "bridge.inner_product": ("riaho.bridge", ("inner_product",)),
    "bridge.overlap_matrix": ("riaho.bridge", ("overlap_matrix",)),
    "bridge.eigenstate": ("riaho.bridge", ("eigenstate",)),
    "bridge.coherent_checks": ("riaho.bridge", ("coherent_checks",)),
    "bridge.proportionality": ("riaho.bridge", ("verify_bridge_proportionality",)),
    "aniso": ("riaho.aniso", (
        "so11_invariant_check", "verify_signed_spectrum", "signed_hamiltonian",
        "hidden_operator", "hidden_orbits", "degeneracy_partition",
        "closure_period", "lissajous", "rescale_canonical_check",
        "composite_spectrum_check")),
    "landau": ("riaho.landau", ("landau_to_g", "g_to_landau", "rotating_frame_to_g")),
    "cli.write_dataset": ("riaho.cli", ("write_dataset",)),
}

# span name -> (module, class, method names)
METHODS = {
    "phasealg.to_basis": ("riaho.phasealg.poly", "PhasePoly", ("to_basis",)),
    "bridge.evaluate": ("riaho.bridge", "WaveState", ("evaluate", "evaluate_grid")),
    "aniso": ("riaho.aniso", "FrequencyPair", ("detect",)),
    "cli.report_json": ("riaho.reports", "VerificationReport", ("to_json",)),
}

# counter name -> (module, class, method names); counted, no span, because
# these run millions of times at a few microseconds each
COUNTED = {
    "phasealg.exact_mul": ("riaho.phasealg.exact", "ExactComplex", ("__mul__", "__rmul__")),
}

SUITES = ("algebra", "classical", "fock", "bridge", "aniso", "landau")

# Per-layer metrics reported by the traced run, all per operation.
# (metric, unit, kind, span or counter)
LAYER_METRICS = (
    [("phasealg.to_basis.calls", "count/op", "calls", "phasealg.to_basis"),
     ("phasealg.to_basis.self_s", "s/op", "self", "phasealg.to_basis"),
     ("phasealg.poisson_bracket.calls", "count/op", "calls", "phasealg.poisson_bracket"),
     ("phasealg.poisson_bracket.self_s", "s/op", "self", "phasealg.poisson_bracket"),
     ("phasealg.verify.self_s", "s/op", "self", "phasealg.verify"),
     ("phasealg.classical_cbt.self_s", "s/op", "self", "phasealg.classical_cbt"),
     ("phasealg.exact_mul.calls", "count/op", "counter", "phasealg.exact_mul"),
     ("classdyn.integrate.calls", "count/op", "calls", "classdyn.integrate"),
     ("classdyn.integrate.self_s", "s/op", "self", "classdyn.integrate"),
     ("classdyn.integrate.steps", "count/op", "counter", "classdyn.integrate.steps"),
     ("classdyn.closed_form.self_s", "s/op", "self", "classdyn.closed_form"),
     ("fockeng.unitary_bridge.calls", "count/op", "calls", "fockeng.unitary_bridge"),
     ("fockeng.unitary_bridge.self_s", "s/op", "self", "fockeng.unitary_bridge"),
     ("fockeng.hidden_operator.self_s", "s/op", "self", "fockeng.hidden_operator"),
     ("fockeng.ladder.calls", "count/op", "calls", "fockeng.ladder"),
     ("fockeng.ladder.self_s", "s/op", "self", "fockeng.ladder"),
     ("fockeng.operator_norm.calls", "count/op", "calls", "fockeng.operator_norm"),
     ("fockeng.operator_norm.self_s", "s/op", "self", "fockeng.operator_norm"),
     ("fockeng.builders.self_s", "s/op", "self", "fockeng.builders"),
     ("fockeng.verify_quantum_bridge.self_s", "s/op", "self", "fockeng.verify_quantum_bridge"),
     ("fockeng.verify_one_mode_bridge.self_s", "s/op", "self", "fockeng.verify_one_mode_bridge"),
     ("fockeng.spectrum.self_s", "s/op", "self", "fockeng.spectrum"),
     ("bridge.inner_product.calls", "count/op", "calls", "bridge.inner_product"),
     ("bridge.inner_product.self_s", "s/op", "self", "bridge.inner_product"),
     ("bridge.overlap_matrix.self_s", "s/op", "self", "bridge.overlap_matrix"),
     ("bridge.eigenstate.calls", "count/op", "calls", "bridge.eigenstate"),
     ("bridge.eigenstate.self_s", "s/op", "self", "bridge.eigenstate"),
     ("bridge.evaluate.self_s", "s/op", "self", "bridge.evaluate"),
     ("bridge.coherent_checks.self_s", "s/op", "self", "bridge.coherent_checks"),
     ("bridge.proportionality.self_s", "s/op", "self", "bridge.proportionality"),
     ("aniso.calls", "count/op", "calls", "aniso"),
     ("aniso.self_s", "s/op", "self", "aniso"),
     ("landau.self_s", "s/op", "self", "landau")]
    + [(f"cli.suite.{s}.{kind_name}", unit, kind, f"cli.suite.{s}"
        if kind != "counter" else f"cli.suite.{s}.failed")
       for s in SUITES
       for kind_name, unit, kind in (("s", "s/op", "total"), ("self_s", "s/op", "self"),
                                     ("failed", "count/op", "counter"))]
    + [("cli.write_dataset.calls", "count/op", "calls", "cli.write_dataset"),
       ("cli.write_dataset.self_s", "s/op", "self", "cli.write_dataset"),
       ("cli.write_dataset.bytes", "B/op", "counter", "cli.write_dataset.bytes"),
       ("cli.report_json.self_s", "s/op", "self", "cli.report_json")]
)


class Tracer:
    """In-memory span recorder.

    ``spans`` holds [name, start, end, parent index or None, op id] lists in
    the order the spans started; ``counters`` holds named totals.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self.op_id = None
        self._stack: list = []
        self._undo: list = []

    def wrap(self, name, fn, after=None):
        """Wrap ``fn`` so every call records a span called ``name``.

        ``after(tracer, args, kwargs, result)`` runs once the call returned,
        outside the span, to add counters derived from the call.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else None, self.op_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def count(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def operation(self, op_id, fn, *args):
        """Run one benchmark operation as the root span ``op``."""
        self.op_id = op_id
        try:
            return self.wrap("op", fn)(*args)
        finally:
            self.op_id = None

    # -- installation ---------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_method(self, cls, attr, make):
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            self._set(cls, attr, type(raw)(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def install(self, after=None):
        """Wrap every target in riaho; raise if one of them is missing.

        ``after`` maps span names to the counter hooks of :meth:`wrap`.
        """
        after = after or {}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "riaho" or n.startswith("riaho."))]
        for span, (module_name, names) in FUNCTIONS.items():
            module = importlib.import_module(module_name)
            for attr in names:
                original = getattr(module, attr)
                if not inspect.isfunction(original):
                    raise TypeError(f"{module_name}.{attr} is not a function")
                wrapped = self.wrap(span, original, after.get(span))
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._set(holder, key, wrapped)
        for span, (module_name, cls_name, names) in METHODS.items():
            cls = getattr(importlib.import_module(module_name), cls_name)
            for attr in names:
                self._patch_method(cls, attr, lambda f, s=span: self.wrap(s, f, after.get(s)))
        for counter, (module_name, cls_name, names) in COUNTED.items():
            cls = getattr(importlib.import_module(module_name), cls_name)
            for attr in names:
                self._patch_method(cls, attr, lambda f, c=counter: self.count(c, f))
        cli = importlib.import_module("riaho.cli")
        builders = cli._SUITE_BUILDERS
        if set(builders) != set(SUITES):
            raise KeyError(f"suite builders {sorted(builders)} differ from {sorted(SUITES)}")
        for suite in SUITES:
            span = f"cli.suite.{suite}"
            self._undo.append((builders, suite, builders[suite]))
            builders[suite] = self.wrap(span, builders[suite], _count_failed_rows(span))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def write(self, path):
        """Write the spans as JSON lines, one [name, start, end, parent, op]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _count_failed_rows(span):
    def after(tracer, args, kwargs, report):
        tracer.counters[f"{span}.failed"] += sum(1 for row in report.rows if not row.passed)
    return after


def riaho_hooks():
    """Counters derived from call arguments and results."""
    def steps(tracer, args, kwargs, result):
        # result is (times, states[steps + 1, 4])
        tracer.counters["classdyn.integrate.steps"] += len(result[0]) - 1

    def written(tracer, args, kwargs, path):
        tracer.counters["cli.write_dataset.bytes"] += path.stat().st_size

    return {"classdyn.integrate": steps, "cli.write_dataset": written}


def self_times(spans) -> list:
    """Self time of every span: its duration minus what its children cover.

    Children of one span are merged as intervals clipped to the parent, so
    overlapping children are not subtracted twice.
    """
    children = defaultdict(list)
    for index, (_, start, end, parent, _) in enumerate(spans):
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counters, operations: int, scales=None) -> dict:
    """Aggregate spans and counters into per-operation layer metrics.

    ``scales`` maps an operation id to the factor that turns its measured
    seconds into reference seconds (see ``perfbench.calibration``).
    """
    if operations < 1:
        raise ValueError("no traced operations")
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        name, start, end, op = span[0], span[1], span[2], span[4]
        factor = scales[op] if scales else 1.0
        calls[name] += 1
        total[name] += (end - start) * factor
        own[name] += self_s * factor
    pick = {"calls": calls, "total": total, "self": own, "counter": counters}
    return {
        metric: {"value": pick[kind].get(source, 0) / operations, "unit": unit}
        for metric, unit, kind, source in LAYER_METRICS
    }
