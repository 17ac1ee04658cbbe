"""Seeded random instances shared across the test modules."""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction

import numpy as np

from unitsel import ObjectiveFunction, ObjectiveTerm, Scm
from unitsel.bench import GenConfig, gen_random_scm
from unitsel.elimination import EliminationOrder, UGraph
from unitsel.factor import Factor, FactorError, MaximizerTable, multiply_all
from unitsel.inference import TaggedFactor, TraceStep, _scope_names, _tag_label
from unitsel.model import (FUNCTIONAL_TOL, ROW_SUM_TOL, ModelError, ValidationReport, Variable,
                           json_number, load_json, validate)
from unitsel.reductions import Node, Var, _postorder


def small_scm(seed: int, lo: int = 5, hi: int = 10) -> Scm:
    """A random functional SCM with a handful of binary variables."""
    rng = np.random.default_rng([811, seed])
    n = int(rng.integers(lo, hi + 1))
    return gen_random_scm(GenConfig(node_count=n, seed=0), rng=rng)


def pick_units(scm: Scm, rng: np.random.Generator, max_units: int = 3) -> tuple[int, ...]:
    roots = scm.roots
    k = int(rng.integers(1, min(max_units, len(roots)) + 1))
    return tuple(sorted(int(v) for v in rng.choice(roots, size=k, replace=False)))


def random_objective(
    scm: Scm,
    rng: np.random.Generator,
    units: tuple[int, ...],
    max_terms: int = 3,
    with_evidence: bool = True,
) -> ObjectiveFunction:
    """A random valid objective: outcomes always present, treatments and
    evidence optional (evidence-free terms exercise the twin path)."""
    endo = list(scm.endogenous())
    n_terms = int(rng.integers(1, max_terms + 1))
    terms = []
    for _ in range(n_terms):
        pool = list(endo)
        rng.shuffle(pool)

        def grab(k: int) -> dict[int, int]:
            out = {}
            for _ in range(min(k, len(pool))):
                out[pool.pop()] = int(rng.integers(0, 2))
            return out

        y = grab(int(rng.integers(1, 3)))
        w = grab(int(rng.integers(0, 2)))
        x = grab(int(rng.integers(0, 3)))
        v = grab(int(rng.integers(0, 2)))
        e: dict[int, int] = {}
        if with_evidence and rng.random() < 0.5:
            # Evidence may overlap outcomes (different worlds), not treatments.
            options = [q for q in endo if q not in x and q not in v]
            if options:
                vid = int(rng.choice(options))
                e = {vid: int(rng.integers(0, 2))}
        terms.append(ObjectiveTerm(0.0, x=x, y=y, v=v, w=w, e=e))
    weights = rng.uniform(0.1, 1.0, size=len(terms))
    weights = weights / weights.sum()
    terms = [replace(t, weight=float(wt)) for t, wt in zip(terms, weights)]
    return ObjectiveFunction(units, tuple(terms))


def random_instance(seed: int, **kwargs):
    """(scm, units, objective) for the reduction/solver corpora."""
    rng = np.random.default_rng([4177, seed])
    scm = gen_random_scm(
        GenConfig(node_count=int(rng.integers(5, 9)), seed=0), rng=rng
    )
    units = pick_units(scm, rng)
    objective = random_objective(scm, rng, units, **kwargs)
    return scm, units, objective


def random_ugraph(seed: int, lo: int = 5, hi: int = 12, p: float = 0.35) -> UGraph:
    rng = np.random.default_rng([929, seed])
    n = int(rng.integers(lo, hi + 1))
    g = UGraph(nodes=range(n))
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                g.add_edge(a, b)
    return g


def neighbor_sets(g: UGraph) -> dict[int, set[int]]:
    """A copy of the adjacency of ``g`` as a plain dict of neighbor sets."""
    return {v: set(ns) for v, ns in g.adj.items()}


def eliminate_node(adj: dict[int, set[int]], v: int) -> frozenset[int]:
    """Connect the neighbors of ``v`` in the neighbor sets ``adj``, remove
    ``v`` and return its cluster."""
    ns = adj.pop(v)
    for a in ns:
        adj[a] |= ns - {a}
        adj[a].discard(v)
    return frozenset(ns | {v})


def fill_count(adj: dict[int, set[int]], v: int) -> int:
    """Number of fill edges eliminating ``v`` from the neighbor sets ``adj``
    would add."""
    ns = adj[v]
    missing = 0
    for a in ns:
        missing += len(ns - adj[a]) - 1  # a is never adjacent to itself
    return missing // 2


def reference_minfill_order(g: UGraph, constrained_suffix=None) -> EliminationOrder:
    """The set-based greedy minfill loop: every step scans every eligible
    live node with ``fill_count`` (ties: smallest id)."""
    suffix = frozenset(constrained_suffix) if constrained_suffix is not None else None
    work = neighbor_sets(g)
    seq: list[int] = []
    while work:
        pool = work.keys() - suffix if suffix else work.keys()
        if not pool:
            pool = work.keys()
        best = min(pool, key=lambda v: (fill_count(work, v), v))
        seq.append(best)
        eliminate_node(work, best)
    return EliminationOrder(tuple(seq), suffix)


def random_constrained_order(
    g: UGraph, constrained_suffix, rng: np.random.Generator
) -> EliminationOrder:
    """A uniformly shuffled order with ``constrained_suffix`` last."""
    suffix = sorted(constrained_suffix)
    rest = sorted(g.nodes - set(suffix))
    rng.shuffle(rest)
    rng.shuffle(suffix)
    return EliminationOrder(tuple(rest) + tuple(suffix), frozenset(suffix))


def reference_mindegree_order(g: UGraph, constrained_suffix=None) -> EliminationOrder:
    """The set-based greedy min-degree loop: every step scans every eligible
    live node for its degree (ties: smallest id)."""
    suffix = frozenset(constrained_suffix) if constrained_suffix is not None else None
    work = neighbor_sets(g)
    seq: list[int] = []
    while work:
        pool = work.keys() - suffix if suffix else work.keys()
        if not pool:
            pool = work.keys()
        best = min(pool, key=lambda v: (len(work[v]), v))
        seq.append(best)
        eliminate_node(work, best)
    return EliminationOrder(tuple(seq), suffix)


ENUM_MAX_ORDERS = 50000  # orders visited by treewidth_by_enumeration


def treewidth_by_enumeration(g: UGraph, constrained_suffix=None) -> tuple[int, EliminationOrder]:
    """The minimum width and its order, by scanning every (constrained) order
    of the sorted nodes in lexicographic order and keeping the first strict
    minimum. The order count is checked first: an unconstrained graph is
    feasible up to 8 nodes, a constrained one up to about 5 + 5."""
    nodes = sorted(g.nodes)
    suffix = sorted(constrained_suffix) if constrained_suffix is not None else []
    rest = [v for v in nodes if v not in set(suffix)]
    count = math.factorial(len(rest)) * math.factorial(len(suffix))
    if count > ENUM_MAX_ORDERS:
        raise ModelError(
            f"enumeration oracle would visit {count} orders (limit {ENUM_MAX_ORDERS})"
        )
    # The graph is ranked once: bit r of a node set stands for nodes[r]. The
    # orders are walked depth first, the free nodes before the suffix and the
    # lowest rank first at each depth, which visits every order once, in
    # lexicographic order; the graph left after a prefix is shared by every
    # order that starts with it. Eliminating a node joins its neighbours
    # left, and its cluster is itself and them.
    rank = {v: r for r, v in enumerate(nodes)}
    free = sum(1 << rank[v] for v in rest)
    best: tuple[int, tuple[int, ...]] | None = None

    def walk(adj: list[int], left: int, width: int, seq: tuple[int, ...]) -> None:
        nonlocal best
        if not left:
            if best is None or width < best[0]:
                best = (width, seq)
            return
        options = left & free or left
        while options:
            low = options & -options
            r = low.bit_length() - 1
            ns = adj[r] & (left ^ low)
            after = adj.copy()
            todo = ns
            while todo:
                bit = todo & -todo
                after[bit.bit_length() - 1] |= ns
                todo ^= bit
            walk(after, left ^ low, max(width, ns.bit_count()), seq + (r,))
            options ^= low

    walk([sum(1 << rank[a] for a in g.adj[v]) for v in nodes], (1 << len(nodes)) - 1, -1, ())
    assert best is not None
    return best[0], EliminationOrder(
        tuple(nodes[r] for r in best[1]),
        frozenset(suffix) if constrained_suffix is not None else None,
    )


def reference_clusters(g: UGraph, seq) -> list[frozenset[int]]:
    """Clusters of eliminating ``seq`` from a plain dict of neighbor sets."""
    adj = neighbor_sets(g)
    return [eliminate_node(adj, v) for v in seq]


def reference_moral_subgraph(scm: Scm, vids) -> UGraph:
    """The moral graph of the families of ``vids``, one ``add_edge`` per pair
    of family members."""
    vids = sorted(vids)
    g = UGraph(nodes=vids)
    for vid in vids:
        family = list(scm.parents[vid]) + [vid]
        for i, a in enumerate(family):
            for b in family[i + 1:]:
                g.add_edge(a, b)
    return g


def random_dag_scm(seed: int, lo: int = 5, hi: int = 12) -> Scm:
    """Random functional SCM (alias kept for the graph-property tests)."""
    return small_scm(seed, lo, hi)


def random_cnf(seed: int, max_vars: int = 12, ratio: float = 1.5) -> str:
    """A random 3-CNF DIMACS document."""
    rng = np.random.default_rng([2718, seed])
    n = int(rng.integers(4, max_vars + 1))
    m = max(1, int(round(ratio * n)))
    lines = [f"p cnf {n} {m}"]
    for _ in range(m):
        vs = rng.choice(n, size=min(3, n), replace=False) + 1
        lits = [int(v) if rng.random() < 0.5 else -int(v) for v in vs]
        lines.append(" ".join(map(str, lits)) + " 0")
    return "\n".join(lines) + "\n"


def reference_eliminate(op, pool, order, scm, step_base=0, trace=None):
    """The pool-scan elimination loop: every step scans the whole pool for
    the factors that mention its variable, and appends the created factor
    after the rest. A step reduces the product with numpy's ``sum`` or
    ``argmax`` over the variable's axis (``argmax`` keeps the first maximum),
    not with the engine's kernels; over at most 7 states numpy adds them in
    state order, so a float sum has the engine's bits."""
    pool = list(pool)
    max_tables = []
    for i, vid in enumerate(order):
        step = step_base + i + 1
        mention = [tf for tf in pool if vid in tf.factor.vids]
        rest = [tf for tf in pool if vid not in tf.factor.vids]
        if not mention:
            ones = np.ones(scm.var(vid).cardinality, dtype=np.int64)
            mention = [TaggedFactor(("unit", vid), Factor._trusted((vid,), ones.shape, ones))]
        product = multiply_all(tf.factor for tf in mention)
        axis = product.vids.index(vid)
        kept = product.vids[:axis] + product.vids[axis + 1:]
        values = product.values
        if op == "sum":
            # asarray: numpy returns a full sum as a scalar.
            reduced = np.asarray(values.sum(axis=axis), dtype=values.dtype)
        else:
            arg = values.argmax(axis=axis)
            reduced = np.take_along_axis(values, np.expand_dims(arg, axis), axis).squeeze(axis)
            max_tables.append(MaximizerTable(kept, vid, arg))
        created = Factor._trusted(kept, reduced.shape, reduced)
        tag = ("step", step)
        if trace is not None:
            used = tuple(
                f"{_tag_label(tf.tag, scm)}({_scope_names(tf.factor.vids, scm)})"
                for tf in mention
            )
            created_label = f"{_tag_label(tag, scm)}({_scope_names(created.vids, scm)})"
            trace.append(TraceStep(step, vid, used, created_label, product.vids))
        pool = rest + [TaggedFactor(tag, created)]
    return pool, max_tables


def divide(num: Factor, den: Factor) -> Factor:
    """Pointwise quotient over equal scopes with the 0/0 = 0 convention; a
    positive numerator over a zero denominator is refused."""
    if (num.vids, num.cards) != (den.vids, den.cards):
        raise FactorError(f"division needs equal scopes, got {num.vids} vs {den.vids}")
    if np.any((den.values == 0) & (num.values > 0)):
        raise FactorError("division undefined: positive numerator over zero denominator")
    out = np.divide(num.values, den.values, out=np.zeros(num.cards), where=den.values > 0)
    return Factor._trusted(num.vids, num.cards, out)


def reference_topological_order(scm: Scm) -> tuple[int, ...] | None:
    """Kahn's loop on a re-sorted ready list (smallest id first); None when
    the parent relation is cyclic."""
    indeg = {v.id: len(scm.parents[v.id]) for v in scm.variables}
    ready = sorted(vid for vid, d in indeg.items() if d == 0)
    order: list[int] = []
    while ready:
        vid = ready.pop(0)
        order.append(vid)
        for c in scm.children[vid]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
        ready.sort()
    return tuple(order) if len(order) == scm.n else None


def reference_check(scm: Scm) -> ValidationReport:
    """The per-variable validation loop: one row-sum test per variable, then
    one functional test per internal variable."""
    violations: list[str] = []
    acyclic = reference_topological_order(scm) is not None
    if not acyclic:
        violations.append("parent relation is cyclic")

    normalized = True
    for v in scm.variables:
        rows = scm.tables[v.id].reshape(-1, v.cardinality)
        bad = np.abs(rows.sum(axis=1) - 1.0) > ROW_SUM_TOL
        if np.any(bad):
            normalized = False
            violations.append(
                f"CPT rows of {v.name!r} do not sum to 1 "
                f"(first bad row index {int(np.argmax(bad))})"
            )

    functional_status: dict[int, bool] = {}
    for vid in scm.endogenous():
        t = scm.tables[vid]
        ok = bool(np.all(np.minimum(np.abs(t), np.abs(t - 1.0)) <= FUNCTIONAL_TOL))
        functional_status[vid] = ok
        if not ok:
            violations.append(
                f"internal variable {scm.var(vid).name!r} has a non-functional CPT"
            )
    return ValidationReport(acyclic, normalized, functional_status, violations)


def reference_load_model(data: bytes | str, allow_nonfunctional: bool = False) -> Scm:
    """The per-variable loader: one Variable per entry, one name lookup per
    reference, and one float64 array per CPT, each converted on its own and
    copied by Scm."""
    doc = load_json(data, "model")
    if not isinstance(doc, dict):
        raise ModelError("model document must be a JSON object")
    for key, kind, word in (("variables", list, "an array"), ("parents", dict, "an object"),
                            ("cpts", dict, "an object")):
        if key not in doc:
            raise ModelError(f"model document missing {key!r}")
        if not isinstance(doc[key], kind):
            raise ModelError(f"model {key!r} must be {word}")

    variables = []
    for i, entry in enumerate(doc["variables"]):
        if not isinstance(entry, dict):
            entry = {}
        name, states = entry.get("name"), entry.get("states")
        if not (isinstance(name, str) and isinstance(states, list)
                and set(map(type, states)) <= {str}):
            raise ModelError(
                f"bad variable entry at position {i}: needs a string 'name' and "
                "a list of string 'states'"
            )
        try:
            variables.append(Variable(i, name, len(states), tuple(states)))
        except FactorError as err:
            raise ModelError(str(err)) from None

    ids = {v.name: v.id for v in variables}

    def resolve(name, context: str) -> int:
        if not isinstance(name, str) or name not in ids:
            raise ModelError(f"unknown variable {name!r} referenced by {context}")
        return ids[name]

    parents: dict[int, tuple[int, ...]] = {}
    for name, plist in doc["parents"].items():
        vid = resolve(name, "parents")
        if not isinstance(plist, (list, tuple)):
            raise ModelError(f"parents of {name!r} must be a list of names")
        parents[vid] = tuple([resolve(p, f"parents of {name!r}") for p in plist])
    cpts = {resolve(name, "cpts"): t for name, t in doc["cpts"].items()}

    tables: dict[int, np.ndarray] = {}
    for vid, flat in cpts.items():
        context = f"CPT of {variables[vid].name!r}"
        if not isinstance(flat, list):
            raise ModelError(f"{context} must be a list of numbers")
        if set(map(type, flat)) <= {int, float}:
            try:
                tables[vid] = np.array(flat, dtype=np.float64)
                continue
            except OverflowError:  # an int beyond float range, named below
                pass
        tables[vid] = np.array([json_number(x, f"{context}: entry") for x in flat])

    scm = Scm(variables, parents, tables)
    report = validate(scm)
    if not report.acyclic or not report.normalized:
        raise ModelError("; ".join(report.violations))
    if not report.functional and not allow_nonfunctional:
        raise ModelError("; ".join(report.violations))
    return scm


def forward_eval(scm: Scm, root_inst) -> dict[int, int]:
    """Evaluate all structural equations given a full root instantiation.
    Requires functional internal CPTs."""
    full: dict[int, int] = {}
    for vid in scm.topological_order():
        if scm.is_root(vid):
            full[vid] = root_inst[vid]
        else:
            row = tuple(full[p] for p in scm.parents[vid])
            full[vid] = int(scm.structural_map(vid)[row])
    return full


def gate_count(node: Node) -> int:
    """Number of connective nodes (compiled gate nodes) in the AST."""
    return sum(not isinstance(n, Var) for n in _postorder(node))


def exact_L_profile(scm: Scm, objective: ObjectiveFunction) -> dict[tuple[int, ...], Fraction | None]:
    """L(u) in exact rationals, keyed by the unit states in ascending unit id
    order; None where some term's Pr(e, u) is 0. Every full instantiation of
    positive mass is enumerated in topological order, each probability read
    with ``Fraction(float)``, which is exact. A term's events under its
    treatments are read in worlds re-evaluated from the roots, which needs a
    functional model; a treatment-free term reads all its events in the
    enumerated world, which is Pr(y, w | e, u) on any Bayesian network."""
    order = scm.topological_order()
    terms = objective.terms
    num = [defaultdict(Fraction) for _ in terms]
    den = [defaultdict(Fraction) for _ in terms]

    def world(full: dict[int, int], cut: dict[int, int]) -> dict[int, int]:
        if not cut:
            return full
        values: dict[int, int] = {}
        for vid in order:
            if vid in cut:
                values[vid] = cut[vid]
            elif scm.is_root(vid):
                values[vid] = full[vid]
            else:
                values[vid] = int(scm.structural_map(vid)[tuple(values[p] for p in scm.parents[vid])])
        return values

    def holds(values: dict[int, int], inst) -> bool:
        return all(values[vid] == s for vid, s in inst.items())

    def visit(k: int, full: dict[int, int], mass: Fraction) -> None:
        if k == len(order):
            u = tuple(full[vid] for vid in objective.unit_ids)
            for t, n, d in zip(terms, num, den):
                if holds(full, t.e):
                    d[u] += mass
                    if holds(world(full, t.x), t.y) and holds(world(full, t.v), t.w):
                        n[u] += mass
            return
        vid = order[k]
        row = scm.tables[vid][tuple(full[p] for p in scm.parents[vid])]
        for state, p in enumerate(row):
            if p > 0:
                full[vid] = state
                visit(k + 1, full, mass * Fraction(float(p)))
        del full[vid]

    visit(0, {}, Fraction(1))
    cards = [range(scm.var(vid).cardinality) for vid in objective.unit_ids]
    return {
        u: sum((Fraction(t.weight) * n[u] / d[u] for t, n, d in zip(terms, num, den)), Fraction(0))
        if all(d[u] > 0 for d in den) else None
        for u in itertools.product(*cards)
    }


def separated_maximiser(exact: dict[tuple[int, ...], Fraction | None], gap: float = 1e-9):
    """The lexicographically smallest unit of largest exact value, or None
    when no unit is defined or the next-best defined unit (a tied one
    included) lies within ``gap`` of it, where float evaluation may rank
    them either way."""
    ranked = sorted((-value, u) for u, value in exact.items() if value is not None)
    if not ranked or len(ranked) > 1 and ranked[1][0] - ranked[0][0] <= gap:
        return None
    return ranked[0][1]


def exact_rmap_profile(scm: Scm, targets, e1, e2) -> dict[tuple[int, ...], Fraction | None]:
    """Pr(e1 | u, e2) in exact rationals, keyed by the target states in
    ascending id order; None where Pr(u, e2) is 0. Every full instantiation
    of positive mass is enumerated, each CPT entry read with
    ``Fraction(float)``, which is exact; any CPT, functional or not."""
    order = scm.topological_order()
    targets = sorted(targets)
    num: dict[tuple[int, ...], Fraction] = defaultdict(Fraction)
    den: dict[tuple[int, ...], Fraction] = defaultdict(Fraction)

    def visit(k: int, full: dict[int, int], mass: Fraction) -> None:
        if k == len(order):
            if all(full[vid] == s for vid, s in e2.items()):
                u = tuple(full[vid] for vid in targets)
                den[u] += mass
                if all(full[vid] == s for vid, s in e1.items()):
                    num[u] += mass
            return
        vid = order[k]
        row = scm.tables[vid][tuple(full[p] for p in scm.parents[vid])]
        for state, p in enumerate(row):
            if p > 0:
                full[vid] = state
                visit(k + 1, full, mass * Fraction(float(p)))
        del full[vid]

    visit(0, {}, Fraction(1))
    cards = [range(scm.var(vid).cardinality) for vid in targets]
    return {u: num[u] / den[u] if den[u] > 0 else None for u in itertools.product(*cards)}
