"""Traced runs: layer spans around the public unitsel functions, from outside.

The tracer swaps functions in the loaded ``unitsel`` modules for wrappers
that record spans; nothing under ``src/`` changes. A span carries the query
id, its own id, its parent's id, its layer name, start and end, and is kept
in memory until the run writes the spans out. A layer's self time is its
span's duration minus its child layer spans. Factor operations are op spans:
leaves whose time stays in the enclosing layer's self time and is reported
again per operation under ``factor.*``.

Counts are exact: calls and cells are counted from factor scopes, and the
order, barren and shared-step figures are derived from the captured models
and orders by this module's own graph code, after the timed loop. They cover
exactly one pass over the corpus, so they repeat bit for bit.

If a wrapped name is gone (a later refactor), the layers it fed are reported
as unmeasured with value 0 instead of failing the run.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

ROOT = "query"
ORDER = "elimination.order"
RMAP = "inference.rmap"

# Layer name -> the functions whose calls are spans of that layer. The pairwise
# divide and the argmax recovery have no public entry point, so their two
# module-level helpers in unitsel.inference are wrapped by name.
LAYER_FUNCTIONS = {
    "model.load": [("unitsel.model", "load_model"), ("unitsel.objective", "load_objective"),
                   ("unitsel.objective", "validate_objective")],
    "objective.build": [("unitsel.objective", "build_objective_model")],
    ORDER: [("unitsel.inference", "default_order"), ("unitsel.elimination", "moral_graph"),
            ("unitsel.elimination", "minfill_order")],
    "inference.unit_select": [("unitsel.inference", "unit_select")],
    RMAP: [("unitsel.inference", "rmap_ve")],
    "inference.divide": [("unitsel.inference", "_paired_division")],
    "inference.argmax": [("unitsel.inference", "_recover_instantiation")],
    "reductions.compile": [("unitsel.reductions", "parse_dimacs"),
                           ("unitsel.reductions", "compile_formula")],
    "reductions.sat": [("unitsel.reductions", "sat_via_rmap")],
    "bench.width_table": [("unitsel.bench", "run_width_table"), ("unitsel.bench", "run_width_trial"),
                          ("unitsel.bench", "width_table_csv")],
}
# Layers named by their caller: the sum and max passes rmap_ve runs, and the
# target joint, which is the multiply_all that rmap_ve calls itself (the
# products inside eliminate stay in the pass that made them).
PASS_LAYERS = ("inference.sum_e1e2", "inference.sum_e2", "inference.max")
TARGET_JOINT = "inference.target_joint"
FACTOR_OPS = ("multiply", "sum_out", "max_out", "divide")

# Per-layer metric -> (unit, the layer or wrapped name it needs). The comment
# after each group names the end-to-end metric and workload it should move.
METRICS = {
    # query_p50_ms on select-random
    "model.load.self_s": ("s", "model.load"),
    "objective.build.self_s": ("s", "objective.build"),
    "objective.build.nodes": ("count", "objective.build"),
    "objective.barren_share": ("frac", RMAP),
    # query_p50_ms on select-random, queries_per_s on width-table
    "elimination.order.self_s": ("s", ORDER),
    "elimination.order.width": ("count", ORDER),
    "elimination.order.cluster_cells": ("count", ORDER),
    "elimination.fill_count.calls": ("count", "UGraph.fill_count"),
    # queries_per_s on select-random and sat-circuit
    "inference.unit_select.self_s": ("s", "inference.unit_select"),
    "inference.rmap.self_s": ("s", RMAP),
    "inference.sum_e1e2.self_s": ("s", "inference.eliminate"),
    "inference.sum_e2.self_s": ("s", "inference.eliminate"),
    "inference.shared_step_share": ("frac", ORDER),
    # query_tail_ms and peak_rss_mb on many-units
    "inference.target_joint.self_s": ("s", TARGET_JOINT),
    "inference.target_joint.cells": ("count", TARGET_JOINT),
    # query_p50_ms on many-units and sat-circuit
    "inference.divide.self_s": ("s", "inference.divide"),
    "inference.max.self_s": ("s", "inference.eliminate"),
    "inference.argmax.self_s": ("s", "inference.argmax"),
    # queries_per_s on select-random (per-call cost) and sat-circuit (wide tables)
    **{f"factor.{op}.{kind}": (unit, f"factor.{op}")
       for op in FACTOR_OPS for kind, unit in (("calls", "count"), ("cells", "count"), ("self_s", "s"))},
    "factor.init.calls": ("count", "factor.init"),
    "factor.ns_per_cell": ("ns", "factor.multiply"),
    # query_p50_ms on sat-circuit
    "reductions.compile.self_s": ("s", "reductions.compile"),
    "reductions.sat.self_s": ("s", "reductions.sat"),
    # queries_per_s on width-table
    "bench.width_table.self_s": ("s", "bench.width_table"),
    # the trace itself
    "trace.layer_share": ("frac", ROOT),
    "trace.overhead_frac": ("frac", ROOT),
}


class Tracer:
    """Installs the wrappers, records spans and counts, and reports metrics."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (query, id, parent, name, t0, t1)
        self.ops: list[tuple] = []  # (query, parent, name, t0, t1, cells)
        self.stack: list[tuple[int, str]] = []
        self.pass_sums: Counter = Counter()  # rmap span id -> sum passes so far
        self.counts: Counter = Counter()
        self.exact: Counter | None = None
        self.counting = True  # capture models and orders (the first pass only)
        self.orders: list[tuple] = []  # (model, graph or None, sequence)
        self.rmaps: list[dict] = []
        self.graph_models: dict[int, tuple] = {}  # id(moral graph) -> (graph, model)
        self.query = -1
        self.root_t0 = 0.0
        self.next_id = 0
        self.patched: list[tuple] = []
        self.measured: set[str] = {ROOT}

    # -- spans ----------------------------------------------------------------

    def begin_query(self, query: int) -> None:
        self.query = query
        self.stack.append((self._new_id(), ROOT))
        self.root_t0 = time.perf_counter()

    def end_query(self) -> None:
        sid, _ = self.stack.pop()
        self.spans.append((self.query, sid, None, ROOT, self.root_t0, time.perf_counter()))

    def end_pass(self) -> None:
        """Freeze the exact counts once the first pass is complete."""
        if self.exact is None:
            self.exact = Counter(self.counts)
            self.counting = False
            self.graph_models.clear()

    def _new_id(self) -> int:
        self.next_id += 1
        return self.next_id

    def _span(self, name, fn, args, kwargs):
        parent = self.stack[-1][0]
        sid = self._new_id()
        self.stack.append((sid, name))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans.append((self.query, sid, parent, name, t0, t1))

    # -- wrappers -------------------------------------------------------------

    def install(self) -> None:
        for layer, targets in LAYER_FUNCTIONS.items():
            for module, attr in targets:
                if self._replace(module, attr, self._layer_wrapper(layer, attr)):
                    self.measured.add(layer)
        if self._replace("unitsel.inference", "eliminate", self._eliminate_wrapper):
            self.measured.add("inference.eliminate")
        if self._replace("unitsel.factor", "multiply_all", self._multiply_all_wrapper):
            self.measured.add(TARGET_JOINT)
        factor = getattr(sys.modules.get("unitsel.factor"), "Factor", None)
        for op in FACTOR_OPS:
            if self._replace_method(factor, op, self._op_wrapper(f"factor.{op}")):
                self.measured.add(f"factor.{op}")
        if self._replace_method(factor, "__init__", self._counter_wrapper("factor.init.calls")):
            self.measured.add("factor.init")
        graph = getattr(sys.modules.get("unitsel.elimination"), "UGraph", None)
        if self._replace_method(graph, "fill_count",
                                self._counter_wrapper("elimination.fill_count.calls")):
            self.measured.add("UGraph.fill_count")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    def _replace(self, module: str, attr: str, make) -> bool:
        """Swap every binding of the function in the unitsel modules, so
        ``from .x import f`` copies are traced too."""
        original = getattr(sys.modules.get(module), attr, None)
        if not callable(original):
            return False
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "unitsel":
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self.patched.append((mod, name, original))
        return True

    def _replace_method(self, cls, attr: str, make) -> bool:
        original = vars(cls).get(attr) if cls is not None else None
        if original is None:
            return False
        setattr(cls, attr, make(original))
        self.patched.append((cls, attr, original))
        return True

    def _layer_wrapper(self, layer: str, attr: str):
        def make(fn):
            signature = inspect.signature(fn) if layer == RMAP else None
            def wrapper(*args, **kwargs):
                parent = self.stack[-1][1]
                if self.counting and signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    query = bound.arguments
                    query["targets"] = tuple(query["targets"])
                    self.rmaps.append({key: query.get(key) for key in ("scm", "targets", "e1", "e2", "order")})
                    args, kwargs = bound.args, bound.kwargs
                result = self._span(layer, fn, args, kwargs)
                if self.counting:
                    self._capture(attr, parent, args, result)
                return result
            return wrapper
        return make

    def _capture(self, attr: str, parent: str, args, result) -> None:
        if attr == "build_objective_model":
            self.counts["objective.build.nodes"] += result.model.n
        elif attr == "moral_graph":
            self.graph_models[id(result)] = (result, args[0])
        elif parent == ORDER:
            return  # an order step nested in another order call
        elif attr == "default_order":
            self.orders.append((args[0], None, result.sequence))
            if parent == RMAP and self.rmaps[-1]["order"] is None:
                self.rmaps[-1]["order"] = result
        elif attr == "minfill_order":
            # The callers never modify a graph after ordering it, so the
            # clusters can be worked out after the timed loop.
            _, scm = self.graph_models.get(id(args[0]), (None, None))
            self.orders.append((scm, args[0], result.sequence))

    def _eliminate_wrapper(self, fn):
        def wrapper(op, *args, **kwargs):
            parent_id, parent = self.stack[-1]
            if parent != RMAP:
                name = "inference.eliminate"
            elif op == "sum":
                self.pass_sums[parent_id] += 1
                name = PASS_LAYERS[0] if self.pass_sums[parent_id] == 1 else PASS_LAYERS[1]
            else:
                name = PASS_LAYERS[2]
            return self._span(name, fn, (op,) + args, kwargs)
        return wrapper

    def _multiply_all_wrapper(self, fn):
        def wrapper(factors):
            if self.stack[-1][1] != RMAP:
                return fn(factors)
            result = self._span(TARGET_JOINT, fn, (factors,), {})
            self.counts["inference.target_joint.cells"] += math.prod(result.cards)
            return result
        return wrapper

    def _op_wrapper(self, name: str):
        produces = name == "factor.multiply"
        def make(fn):
            def wrapper(factor, *args, **kwargs):
                t0 = time.perf_counter()
                result = fn(factor, *args, **kwargs)
                t1 = time.perf_counter()
                # Cells touched: the product's for multiply, the input's otherwise.
                cells = math.prod(result.cards if produces else factor.cards)
                self.ops.append((self.query, self.stack[-1][0], name, t0, t1, cells))
                self.counts[name + ".calls"] += 1
                self.counts[name + ".cells"] += cells
                return result
            return wrapper
        return make

    def _counter_wrapper(self, key: str):
        counts = self.counts
        def make(fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    # -- results --------------------------------------------------------------

    def metrics(self, overhead_frac: float, time_scale: float) -> tuple[dict, list[str]]:
        """Per-layer metrics and the names of the unmeasured ones; times are
        multiplied by ``time_scale`` (the reference-kernel host speed)."""
        queries = sum(1 for s in self.spans if s[3] == ROOT)
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        self_time: dict[str, float] = defaultdict(float)
        for _, sid, _, name, t0, t1 in self.spans:
            self_time[name] += t1 - t0 - child_time[sid]
        op_time: dict[str, float] = defaultdict(float)
        op_cells = 0
        for _, _, name, t0, t1, cells in self.ops:
            op_time[name] += t1 - t0
            op_cells += cells
        query_time = sum(s[5] - s[4] for s in self.spans if s[3] == ROOT)

        exact = self.exact if self.exact is not None else self.counts
        values: dict[str, float] = {name: float(exact[name]) for name in METRICS
                                    if name.endswith((".calls", ".cells", ".nodes"))}
        for name in METRICS:
            if name.endswith(".self_s"):
                layer = name[: -len(".self_s")]
                seconds = op_time[layer] if layer.startswith("factor.") else self_time[layer]
                values[name] = seconds * time_scale / queries
        values["factor.ns_per_cell"] = 1e9 * time_scale * sum(op_time.values()) / max(op_cells, 1)
        values["trace.layer_share"] = 1.0 - self_time[ROOT] / query_time
        values["trace.overhead_frac"] = overhead_frac
        values.update(self._structure_counts())

        unmeasured = [name for name, (_, needs) in METRICS.items() if needs not in self.measured]
        if not self.rmaps:
            unmeasured += ["objective.barren_share", "inference.shared_step_share"]
        for name in unmeasured:
            values[name] = 0.0
        return {name: {"value": values[name], "unit": unit}
                for name, (unit, _) in METRICS.items()}, sorted(set(unmeasured))

    def _structure_counts(self) -> dict[str, float]:
        width, cluster_cells = -1, 0
        for scm, graph, sequence in self.orders:
            adjacency = moral_adjacency(scm) if graph is None else graph.adj
            card = (lambda v: 2) if scm is None else (lambda v: scm.var(v).cardinality)
            for cluster in eliminate_clusters(adjacency, sequence):
                width = max(width, len(cluster) - 1)
                cluster_cells += math.prod(card(v) for v in cluster)
        nodes = barren = steps = shared = 0
        for rmap in self.rmaps:
            scm, order, targets = rmap["scm"], rmap["order"], set(rmap["targets"])
            nodes += scm.n
            barren += scm.n - len(ancestral_closure(scm, targets | set(rmap["e1"]) | set(rmap["e2"])))
            if order is not None:
                prefix = [v for v in order.sequence if v not in targets]
                s, t = shared_sum_steps(scm, prefix, rmap["e1"], rmap["e2"])
                shared, steps = shared + s, steps + t
        return {
            "elimination.order.width": float(width),
            "elimination.order.cluster_cells": float(cluster_cells),
            "objective.barren_share": barren / nodes if nodes else 0.0,
            "inference.shared_step_share": shared / steps if steps else 0.0,
        }

    def write_spans(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"meta": meta, "span": ["query", "id", "parent", "name", "t0", "t1"],
                                  "op": ["query", "parent", "name", "t0", "t1", "cells"]}) + "\n")
            for span in self.spans:
                out.write(json.dumps(["span", *span]) + "\n")
            for op in self.ops:
                out.write(json.dumps(["op", *op]) + "\n")


# -- structure, from scopes alone ------------------------------------------------


def moral_adjacency(scm) -> dict[int, set[int]]:
    adjacency: dict[int, set[int]] = {v: set() for v in range(scm.n)}
    for v in range(scm.n):
        family = set(scm.parents[v]) | {v}
        for a in family:
            adjacency[a] |= family - {a}
    return adjacency


def eliminate_clusters(adjacency: dict[int, set[int]], sequence):
    """Yield each variable's cluster (itself and its neighbours) as the
    sequence eliminates it from a copy of the graph."""
    work = {v: set(ns) for v, ns in adjacency.items()}
    for v in sequence:
        neighbours = work.pop(v)
        for a in neighbours:
            work[a].discard(v)
            work[a] |= neighbours - {a}
        yield neighbours | {v}


def ancestral_closure(scm, nodes) -> set[int]:
    closure, stack = set(), list(nodes)
    while stack:
        v = stack.pop()
        if v not in closure:
            closure.add(v)
            stack.extend(scm.parents[v])
    return closure


def shared_sum_steps(scm, prefix, e1, e2) -> tuple[int, int]:
    """(steps whose bucket holds no factor an e1 indicator reached, steps)
    for the sum pass over ``prefix``; such a step is the same in both passes."""
    factors = [(set(scm.parents[v]) | {v}, False) for v in range(scm.n)]
    factors += [({v}, True) for v in e1] + [({v}, False) for v in e2]
    shared = 0
    for var in prefix:
        bucket = [f for f in factors if var in f[0]]
        factors = [f for f in factors if var not in f[0]]
        reached = any(r for _, r in bucket)
        scope = set().union(*(s for s, _ in bucket)) - {var}
        factors.append((scope, reached))
        shared += not reached
    return shared, len(prefix)
