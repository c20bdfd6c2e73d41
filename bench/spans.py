"""Per-layer tracing from outside the package.

Wrappers are bound around the public functions of each swapsim module: the
function's home module and every ``swapsim.*`` module that imported the same
object under some name.  Nothing under ``src/`` is edited.  Each wrapper
records a span (name, start, end, parent span, call id) in memory; a layer
function that is no longer there makes its metrics read as missing, not 0.

A layer's self time is its span's duration minus its child spans, summed
over the pass.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

PROTOCOL_FNS = (
    "run_scheme_a", "run_phase_verification", "run_scheme_b", "run_theta_swapping",
    "bell_decomposition_check", "analyze_polarization_postselection",
    "analyze_vacuum_one_photon", "scheme_a_click_distribution",
    "scheme_b_click_distribution", "sample_run",
)

# (home module, attribute, span name)
SPAN_BINDINGS = (
    ("swapsim.fock", "fidelity", "fock.fidelity"),
    ("swapsim.fock", "reorder", "fock.reorder"),
    ("swapsim.fock", "partial_project", "fock.partial_project"),
    ("swapsim.sources", "double_pass_source", "sources.build"),
    ("swapsim.sources", "polarization_double_pass", "sources.build"),
    ("swapsim.sources", "theta_product", "sources.build"),
    ("swapsim.sources", "vacuum_one_photon_postbs", "sources.build"),
    ("swapsim.elements", "apply_mode_unitary", "elements.apply"),
    ("swapsim.detection", "measure_pattern", "detection.measure"),
    ("swapsim.detection", "coincidence_table", "detection.coincidence"),
    *(("swapsim.protocols", fn, "protocols.call") for fn in PROTOCOL_FNS),
    ("swapsim.protocols", "ProtocolReport.to_json_dict", "protocols.to_json"),
    ("swapsim.oracle", "verify_scheme_a", "oracle.verify"),
    ("swapsim.oracle", "verify_scheme_b", "oracle.verify"),
    ("swapsim.oracle", "dense_apply", "oracle.dense_apply"),
    ("swapsim.oracle", "dense_measure", "oracle.dense_measure"),
    ("swapsim.cli", "run", "cli.run"),
)
# Constructions are counted, not spanned: a span per ket would dwarf the work.
COUNTER_BINDINGS = (("swapsim.fock", "FockKet.__init__", "fock.ket_new"),)

IMPORT_METRICS = ("cli.import_ms", "cli.scipy_import_ms", "cli.numpy_import_ms")

# metric -> (unit, spans or counters it is computed from)
PER_LAYER = {
    "fock.ket_new": ("count", ("fock.ket_new",)),
    "fock.fidelity_calls": ("count", ("fock.fidelity",)),
    "fock.fidelity_ms": ("ms", ("fock.fidelity",)),
    "fock.reorder_ms": ("ms", ("fock.reorder",)),
    "fock.partial_project_ms": ("ms", ("fock.partial_project",)),
    "sources.build_ms": ("ms", ("sources.build",)),
    "sources.terms_out": ("count", ("sources.build",)),
    "elements.apply_calls": ("count", ("elements.apply",)),
    "elements.apply_ms": ("ms", ("elements.apply",)),
    "elements.terms_in": ("count", ("elements.apply",)),
    "elements.terms_out": ("count", ("elements.apply",)),
    "elements.cutoff_grown": ("count", ("elements.apply",)),
    "elements.distinct_unitaries": ("count", ("elements.apply",)),
    "detection.measure_calls": ("count", ("detection.measure",)),
    "detection.measure_ms": ("ms", ("detection.measure",)),
    "detection.coincidence_calls": ("count", ("detection.coincidence",)),
    "detection.coincidence_ms": ("ms", ("detection.coincidence",)),
    "detection.branches_out": ("count", ("detection.measure",)),
    "protocols.calls": ("count", ("protocols.call",)),
    "protocols.self_ms": ("ms", ("protocols.call",)),
    "protocols.to_json_ms": ("ms", ("protocols.to_json",)),
    "oracle.verify_calls": ("count", ("oracle.verify",)),
    "oracle.verify_ms": ("ms", ("oracle.verify",)),
    "oracle.dense_apply_ms": ("ms", ("oracle.dense_apply",)),
    "oracle.dense_measure_ms": ("ms", ("oracle.dense_measure",)),
    "cli.import_ms": ("ms", ()),
    "cli.scipy_import_ms": ("ms", ()),
    "cli.numpy_import_ms": ("ms", ()),
    "cli.run_self_ms": ("ms", ("cli.run",)),
    "trace.overhead_frac": ("frac", ()),
}


def _observe_sources(tracer, span, args, kwargs, result):
    parent = span[3]
    if parent < 0 or tracer.spans[parent][0] != "sources.build":
        tracer.counts["sources.terms_out"] += result.num_terms()


def _observe_apply(tracer, span, args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    u = args[1] if len(args) > 1 else kwargs["u"]
    c = tracer.counts
    c["elements.terms_in"] += state.num_terms()
    c["elements.terms_out"] += result.num_terms()
    c["elements.cutoff_grown"] += result.register.cutoff > state.register.cutoff
    tracer.unitaries.add(u.matrix.tobytes())


def _observe_measure(tracer, span, args, kwargs, result):
    if result.ensemble is not None:
        tracer.counts["detection.branches_out"] += len(result.ensemble.members)


OBSERVERS = {
    "sources.build": _observe_sources,
    "elements.apply": _observe_apply,
    "detection.measure": _observe_measure,
}


class Tracer:
    """Binds span wrappers and counters; ``unbind`` restores the originals."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, call_id]
        self.stack: list[int] = []
        self.call_id = 0
        self.counts: Counter = Counter()
        self.unitaries: set = set()
        self.missing: set = set()
        self._undo: list = []

    def bind_all(self) -> None:
        for module, attr, name in SPAN_BINDINGS:
            self._bind(module, attr, name, self._span_wrapper)
        for module, attr, name in COUNTER_BINDINGS:
            self._bind(module, attr, name, self._counter_wrapper)

    def unbind(self) -> None:
        while self._undo:
            obj, key, value = self._undo.pop()
            setattr(obj, key, value)

    def _set(self, obj, key, value) -> None:
        self._undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def _bind(self, module_name, attr, name, make_wrapper) -> None:
        module = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        try:
            owner = functools.reduce(getattr, path, module)
            orig = getattr(owner, leaf)
        except AttributeError:
            self.missing.add(name)
            return
        wrapper = make_wrapper(orig, name)
        if path:
            self._set(owner, leaf, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "swapsim" or mod_name.startswith("swapsim.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapper)

    def _span_wrapper(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.call_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, span, args, kwargs, result)
            return result

        return wrapper

    def _counter_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def metrics(self) -> dict:
        """Per-layer values from the recorded spans and counters; metrics of
        missing layer functions are left out."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        self_ms: Counter = Counter()
        calls: Counter = Counter()
        outer_protocol_calls = 0
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            self_ms[name] += (t1 - t0 - child_ns[i]) / 1e6
            calls[name] += 1
            if name == "protocols.call" and (parent < 0 or spans[parent][0] != name):
                outer_protocol_calls += 1
        c = self.counts
        values = {
            "fock.ket_new": c["fock.ket_new"],
            "fock.fidelity_calls": calls["fock.fidelity"],
            "fock.fidelity_ms": self_ms["fock.fidelity"],
            "fock.reorder_ms": self_ms["fock.reorder"],
            "fock.partial_project_ms": self_ms["fock.partial_project"],
            "sources.build_ms": self_ms["sources.build"],
            "sources.terms_out": c["sources.terms_out"],
            "elements.apply_calls": calls["elements.apply"],
            "elements.apply_ms": self_ms["elements.apply"],
            "elements.terms_in": c["elements.terms_in"],
            "elements.terms_out": c["elements.terms_out"],
            "elements.cutoff_grown": c["elements.cutoff_grown"],
            "elements.distinct_unitaries": len(self.unitaries),
            "detection.measure_calls": calls["detection.measure"],
            "detection.measure_ms": self_ms["detection.measure"],
            "detection.coincidence_calls": calls["detection.coincidence"],
            "detection.coincidence_ms": self_ms["detection.coincidence"],
            "detection.branches_out": c["detection.branches_out"],
            "protocols.calls": outer_protocol_calls,
            "protocols.self_ms": self_ms["protocols.call"],
            "protocols.to_json_ms": self_ms["protocols.to_json"],
            "oracle.verify_calls": calls["oracle.verify"],
            "oracle.verify_ms": self_ms["oracle.verify"],
            "oracle.dense_apply_ms": self_ms["oracle.dense_apply"],
            "oracle.dense_measure_ms": self_ms["oracle.dense_measure"],
            "cli.run_self_ms": self_ms["cli.run"],
        }
        return {k: v for k, v in values.items()
                if not self.missing.intersection(PER_LAYER[k][1])}

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def import_times(stderr: str) -> dict:
    """Import time of the whole process and of the scipy and numpy packages
    from ``python -X importtime`` output, in ms.

    A package's time is the cumulative time of its entries that are not
    nested inside an entry of either package: what its import statements
    cost, including what they were first to load.  numpy submodules that
    scipy loads count for scipy, as they would not load without it.
    """
    entries = []  # (depth, name, cumulative us), in the order printed
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the header line
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(fields[1])))
    totals = {"": 0, "scipy": 0, "numpy": 0}
    ancestors: list = []
    # Children are printed before their parent, so walk backwards to see
    # each entry after all of its ancestors.
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        package = name.split(".")[0]
        if depth == 0:
            totals[""] += cumulative
        if package in totals and all(a[1] not in totals for a in ancestors):
            totals[package] += cumulative
        ancestors.append((depth, package))
    return {"cli.import_ms": totals[""] / 1e3, "cli.scipy_import_ms": totals["scipy"] / 1e3,
            "cli.numpy_import_ms": totals["numpy"] / 1e3}
