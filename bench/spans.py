"""Spans around ndeb's layer boundaries, recorded from outside the package.

``Tracer.install`` replaces each function in ``TRACED`` with a wrapper,
at every ndeb module name bound to it: the defining module and each
module that imported it (``ndeb.sim.joint_distribution``,
``ndeb.thresholds.max_eve_info``, ...), since calls resolve those names
at call time.  Methods are wrapped on their class.  A wrapper records a
span (operation, id, parent, name, start, end) in memory; ``uninstall``
puts the originals back.

A traced name the package no longer has is listed in ``absent``, and
every metric derived from it is left out, never reported as zero.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict

from workloads import SIFT_PAIRS

PACKAGE = "ndeb"
LAYERS = ("qudit", "bell", "cloner", "info", "thresholds", "sim", "cli")

# "<layer>.<function>" or "<layer>.<Class>.<method>"; the layer is the
# defining module, whoever calls it.
TRACED = (
    "cli.main",
    "thresholds.security_report",
    "thresholds.crossover_fidelity",
    "thresholds.max_eve_info",
    "thresholds.clone_family_at_fidelity",
    "info.i_ab",
    "info.i_ae",
    "sim.run_simulation",
    "sim.empirical_info",
    "sim.SimReport.to_dict",
    "cloner.joint_distribution",
    "cloner.invariance_classes",
    "bell.overlap_matrix",
    "qudit.phi_basis",
)


def _observe_simulation(counters: dict, report) -> None:
    tables = report.per_pair_tables
    counters["sim.rounds"] += int(report.rounds)
    counters["sim.sifted"] += sum(int(tables[a][b].sum()) for a, b in SIFT_PAIRS)
    counters["sim.key_symbols"] += len(report.key_symbols)


# Counters taken from a traced function's result, by traced name.
OBSERVERS = {"sim.run_simulation": _observe_simulation}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (op, id, parent, name, start, end)
        self.counters: dict = defaultdict(lambda: defaultdict(int))  # op -> name -> count
        self.absent: list[str] = []
        self.unreadable: set[str] = set()  # traced names whose result had no counters
        self.op = None
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        self.absent = []
        for name in TRACED:
            layer, *path = name.split(".")
            owner = importlib.import_module(f"{PACKAGE}.{layer}")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            owners = [owner] if len(path) > 1 else [
                mod for mod in modules if getattr(mod, path[-1], None) is original
            ]
            for target in owners:
                self._patches.append((target, path[-1], original))
                setattr(target, path[-1], wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self.op, sid, parent, name, start, end)
            if observe is not None:
                try:
                    observe(self.counters[self.op], result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    self.unreadable.add(name)
            return result

        return traced

    def op_metrics(self, op) -> dict[str, float]:
        """Per-layer numbers for one operation, from its spans and counters."""
        spans = [s for s in self.spans if s[0] == op]
        names = {s[1]: s[3] for s in spans}
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        layer_own: dict[str, float] = defaultdict(float)
        parents = {s[1]: s[2] for s in spans}
        for _, sid, parent, name, start, end in spans:
            self_s = end - start - child_time[sid]
            calls[name] += 1
            own[name] += self_s
            layer_own[name.split(".")[0]] += self_s
            # Busy time counts a span only when no enclosing span has its name.
            up = parent
            while up is not None and names[up] != name:
                up = parents[up]
            if up is None:
                busy[name] += end - start
        out: dict[str, float] = {}
        for name in TRACED:
            if name in self.absent:
                continue
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = own[name]
        present = {name.split(".")[0] for name in TRACED if name not in self.absent}
        for layer in LAYERS:
            if layer in present:
                out[f"{layer}.self_s"] = layer_own[layer]
        if "sim.run_simulation" not in self.absent + list(self.unreadable):
            counts = self.counters[op]
            rounds, sim_busy = counts["sim.rounds"], busy["sim.run_simulation"]
            # A workload that simulates nothing reads 0 for these ratios.
            out["sim.run_simulation.rounds_per_s"] = rounds / sim_busy if sim_busy else 0.0
            out["sim.sift_ratio"] = counts["sim.sifted"] / rounds if rounds else 0.0
            out["sim.key_symbols"] = counts["sim.key_symbols"]
        return out

    def records(self):
        """Spans as dicts, in start order, for writing out."""
        keys = ("op", "id", "parent", "name", "start", "end")
        return [dict(zip(keys, span)) for span in self.spans]


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median over operations of each metric that every operation has."""
    if not per_op:
        return {}
    common = set(per_op[0]).intersection(*per_op[1:])
    return {key: statistics.median(m[key] for m in per_op) for key in sorted(common)}
