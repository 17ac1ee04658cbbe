"""Variable elimination engines for MAP, Reverse-MAP and posterior queries.

MAP maximizes the joint Pr(u, e); Reverse-MAP maximizes the conditional
Pr(e1 | u, e2) = Pr(u, e1, e2) / Pr(u, e2). The Reverse-MAP engine runs two
sum-elimination passes: one with evidence e1 and e2 over the query order, and
one with e2 alone over the same order restricted to the ancestral closure of
the targets and e2, since every other variable is barren for Pr(u, e2). It
divides each pass-2 survivor into a pass-1 survivor whose scope covers it,
and maximizes the target variables out of the quotients. A cover always
exists: the pass-2 factors are a subset of the pass-1 factors (evidence
indicators never enlarge a scope), eliminated in the same relative order, so
every pass-2 cluster lies inside the pass-1 cluster of the same variable and
every created pass-2 scope inside a pass-1 one.

All engines share one core: ``_query_order`` (id and disjointness checks,
and an order ending in ``_target_block``, the targets in descending id),
``_rmap_order`` (the same for Reverse-MAP, with the forced states),
``_sum_pass`` (one sum pass), ``_two_pass`` (the e1+e2 pass, then the e2
pass) and ``_max_pass`` (the max pass and its tie rule at value 0); each
entry point adds only its own count or normalization.
Every pass is one call of ``eliminate``, which keeps its factors in buckets
(bucket elimination; Dechter 1999), so a step touches only the factors that
mention its variable, never the whole pool.

Every query is pruned to the ancestral closure of its targets and evidence.
A variable outside it is barren: no evidence and no target lies at or below
it, so summing it out of its CPT gives 1 (barren-node removal; Shachter 1986,
Darwiche 2009 ch. 6). The default order is constrained min-degree (Koller &
Friedman 2009, ch. 9) on the moral graph of the closure alone, and a sum pass
pools only the CPTs of its order's variables. A caller order may cover any
ancestrally closed set of variables that contains the targets and evidence;
the whole model always qualifies, and then the e1+e2 pass and the trace are
those of the unpruned model. The e2 pass is restricted to its own closure
whatever the order.

Without a caller order, Reverse-MAP also absorbs the evidence that e1
forces through zero CPT rows (``_forced_states``), as unit resolution does in
weighted model counting (Chavira & Darwiche 2008). A parent p is forced to t
when every positive entry of its child's CPT column at the child's given or
forced state has p = t: then Pr(e, p != t) = 0, so summing p over t alone is
exact for any CPT, functional or not. The walk starts from the e1 variables
outside the closure C2 of the targets and e2, goes up through forced
variables and stops at C2 (which holds the targets) and at given evidence.
Children that force different states, or an all-zero column, force nothing,
and elimination produces the zeros. The e1+e2 pass slices every CPT that
mentions a forced variable at the forced states (``restrict``; Koller &
Friedman 2009, sec. 9.3), gives the forced variables no indicator and no
step, and ``default_order`` orders the closure with them taken out of every
family. Sliced CPTs make a sparser moral graph: on a compiled CNF, the
sentinel forces every clause output and every gate of the conjunction. No
CPT of C2 mentions a forced variable, since C2 is ancestrally closed, so the
e2 pass, its order, the count and the covers below are unchanged.

Targets with Pr(u, e2) = 0 receive the value 0, because the division writes
0 wherever its divisor is 0, and are reported as excluded; they can never win
the maximization unless every target is excluded, which raises
InconsistentEvidenceError.
Pr(u, e2) > 0 exactly when every pass-2 survivor is positive at u, so one
more sum elimination, over the targets and on the survivors' 0/1 masks as
integer factors (int64, or Python integers once the target grid reaches
2^63), counts the consistent targets exactly and at width cost. The same masks
break a tie at value zero (``_max_pass``).

Unit selection without a caller order solves the shared-worlds solve model of
:mod:`unitsel.objective`. When no term has evidence e, that model's e2 holds
only cut copies, each a parentless point mass at its asserted state, and the
units are roots, so Pr(u, e2) = prod_i Pr(u_i) and L(u) = Pr(e1, e2 | u)
wherever every Pr(u_i) > 0 (d-separation; Pearl 1988). That is MAP on the
model with each unit's CPT swapped for its support indicator 1[Pr(u_i) > 0]
(``_evidence_free_select``): one sum pass under e1+e2 and one max pass, whose
value-0 ties are the indicators. The excluded units number grid - prod_i
|supp(u_i)|, and InconsistentEvidenceError cannot arise, since every prior
has a state of positive mass. The answer is Reverse-MAP's bit for bit: there
each unit CPT waits in its unit's bucket, so it survives the e1+e2 pass
unchanged; the e2 pass leaves the unit CPTs and scalar 1s; and dividing each
CPT by itself, as its first covering survivor, gives exactly its support
indicator.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Container, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .factor import (Factor, Instantiation, MaximizerTable, max_axis, multiply_all, product,
                     restrict, sum_axis, union_scope)
from .elimination import EliminationOrder, ancestral_closure, mindegree_order, moral_subgraph
from .model import ModelError, Scm, _check_state, _known_id, evidence_to_lambdas
from .objective import ObjectiveModel, _solve_model, build_objective_model, evaluate_L_profile
from .worlds import enumerate_instantiations

_FUSED_MIN_CELLS = 2048
"""Cluster cells from which a sum step contracts its last factor into the
sum (``_step``); below it einsum's per-call planning costs more than the
product it saves."""

Tag = tuple
"""Factor provenance: ("cpt", vid), ("lam", vid), ("step", i) or ("unit", vid)."""


class TaggedFactor(NamedTuple):
    tag: Tag
    factor: Factor


class InconsistentEvidenceError(RuntimeError):
    """Evidence carries zero probability mass for every target instantiation."""


@dataclass(frozen=True)
class TraceStep:
    """One elimination step: which factors met, what was created."""

    step: int
    var: int
    used: tuple[str, ...]
    created: str
    cluster: tuple[int, ...]


@dataclass
class QueryResult:
    """Value and recovered instantiation of a MAP-style query."""

    value: float
    instantiation: Instantiation
    trace: list[TraceStep] | None = None
    excluded: int | None = None


def _tag_label(tag: Tag, scm: Scm) -> str:
    kind = tag[0]
    if kind == "cpt":
        return f"f_{scm.var(tag[1]).name}"
    if kind == "lam":
        return f"lambda_{scm.var(tag[1]).name}"
    if kind == "step":
        return f"f{tag[1]}"
    return f"1_{tag[1]}"


def cpt_pool(
    scm: Scm, vids: Iterable[int], swap: Mapping[int, Factor] | None = None
) -> list[TaggedFactor]:
    """The CPT factors of ``vids`` in id order, each taken from ``swap``
    where it has one."""
    swap = swap or {}
    return [
        TaggedFactor(("cpt", vid), swap[vid] if vid in swap else scm.cpt_factor(vid))
        for vid in sorted(vids)
    ]


def lambda_pool(scm: Scm, evidence: Mapping[int, int]) -> list[TaggedFactor]:
    return [
        TaggedFactor(("lam", f.vids[0]), f)
        for f in evidence_to_lambdas(scm, evidence)
    ]


def eliminate(
    op: str,
    pool: Sequence[TaggedFactor],
    order: Sequence[int],
    scm: Scm,
    step_base: int = 0,
    trace: list[TraceStep] | None = None,
) -> tuple[list[TaggedFactor], list[MaximizerTable]]:
    """Eliminate the order's variables from the pool using sum or max.

    At each step, all factors mentioning the variable are multiplied, the
    operation is applied over that variable, and the result (tagged with the
    step index) replaces them. Returns the surviving pool and, for max, one
    maximizer table per step, which records the step's variable and is
    needed for instantiation recovery. ``scm`` names the traced factors and
    gives the cardinality of a variable that no factor mentions.

    Each step multiplies its bucket's bare tables into the cluster's product
    and reduces the variable's axis out of it in ``_step`` (``product``,
    ``sum_axis`` and ``max_axis`` of :mod:`unitsel.factor`, the package's
    only reductions), so only the created factor and, for max, its maximizer
    table become objects. A sum step over float64 factors whose cluster has
    at least ``_FUSED_MIN_CELLS`` cells and fewer than 52 variables, and
    which no single factor spans, fuses its last multiply into the sum, so
    the cluster's full product is never built; its values may differ from
    multiply-then-sum ones in the last bits, and its trace row is the same.
    Max steps and integer count passes always multiply, then reduce.

    The factors wait in buckets (Dechter 1999): each in the bucket of its
    first variable in the order, or among the survivors when the order has
    none of its variables. The pool's factors are placed first, in pool
    order, and each created factor after them, so every bucket and the
    survivors list their factors in pool order followed by creation order,
    the order in which a scan of the whole pool would meet them. A pool in
    tag order (as the query passes build it, CPTs, then indicators, then
    earlier steps) thus leaves its survivors in tag order, since each step's
    tag is larger than every tag before it.
    """
    if op not in ("sum", "max"):
        raise ValueError(f"unknown elimination op {op!r}")
    position: dict[int, int] = {}
    for i, vid in enumerate(order):
        position.setdefault(vid, i)
    buckets: dict[int, list[TaggedFactor]] = {}
    survivors: list[TaggedFactor] = []
    outside = len(order)  # the position of a variable the order lacks

    def place(tf: TaggedFactor) -> None:
        first = min([position.get(v, outside) for v in tf.factor.vids], default=outside)
        (survivors if first == outside else buckets.setdefault(first, [])).append(tf)

    for tf in pool:
        place(tf)
    max_tables: list[MaximizerTable] = []
    for i, vid in enumerate(order):
        step = step_base + i + 1
        # Popped: buckets kept to the end would hold every consumed factor.
        mention = buckets.pop(i, [])
        if not mention:
            # No factor mentions the variable: eliminate the implicit
            # all-ones factor over it so the semantics stay exact. It is an
            # integer factor, so an integer count stays exact.
            ones = np.ones(scm.var(vid).cardinality, dtype=np.int64)
            mention = [TaggedFactor(("unit", vid), Factor._trusted((vid,), ones.shape, ones))]
        created, cluster, table = _step(op, [tf.factor for tf in mention], vid)
        if table is not None:
            max_tables.append(table)
        tag = ("step", step)
        if trace is not None:
            used = tuple(
                f"{_tag_label(tf.tag, scm)}({_scope_names(tf.factor.vids, scm)})"
                for tf in mention
            )
            trace.append(
                TraceStep(
                    step,
                    vid,
                    used,
                    f"{_tag_label(tag, scm)}({_scope_names(created.vids, scm)})",
                    cluster,
                )
            )
        place(TaggedFactor(tag, created))
    return survivors, max_tables


def _step(
    op: str, factors: list[Factor], vid: int
) -> tuple[Factor, tuple[int, ...], MaximizerTable | None]:
    """Sum or maximize ``vid`` out of the product of ``factors``; returns the
    created factor, the cluster (the union of their scopes) and, for max, the
    step's maximizer table: the first maximizing state of ``vid`` per cell of
    the created factor.

    A fused sum step (gated as ``eliminate`` says) multiplies all factors but
    the last, and ``np.einsum`` sums over ``vid`` the product of that head and
    the last factor, with the cluster relabelled 0..k-1 (numpy accepts labels
    below 52). ``optimize=True`` lets it hand the contraction to BLAS; without
    it the contraction is a slow generic loop. Every other step builds the
    cluster's product and reduces ``vid`` out of it with ``sum_axis`` or
    ``max_axis``; when one factor spans the cluster (always, for a single
    factor), that product is no larger than the factor, so contracting would
    save nothing."""
    cluster, cards = union_scope(factors)
    axis = cluster.index(vid)
    kept, kept_cards = cluster[:axis] + cluster[axis + 1:], cards[:axis] + cards[axis + 1:]
    if op == "max":
        best, arg = max_axis(product(factors, cluster), axis)
        return Factor._trusted(kept, kept_cards, best), cluster, MaximizerTable(kept, vid, arg)
    if (
        len(cluster) >= 52
        or math.prod(cards) < _FUSED_MIN_CELLS
        or any(len(f.vids) == len(cluster) or f.values.dtype != np.float64 for f in factors)
    ):
        table = sum_axis(product(factors, cluster), axis)
    else:
        head = factors[:-1]
        head_vids = union_scope(head)[0]
        table = np.asarray(np.einsum(
            product(head, head_vids), [cluster.index(v) for v in head_vids],
            factors[-1].values, [cluster.index(v) for v in factors[-1].vids],
            [i for i in range(len(cluster)) if i != axis],
            optimize=True,
        ))
    return Factor._trusted(kept, kept_cards, table), cluster, None


def _scope_names(vids: tuple[int, ...], scm: Scm) -> str:
    names = [scm.var(v).name for v in vids]
    if all(len(n) == 1 for n in names):
        return "".join(names)
    return ",".join(names)


def format_trace(steps: Iterable[TraceStep], scm: Scm) -> str:
    """Render trace steps as the elimination table (one row per step)."""
    rows = [("i", "var", "factors", "new factor", "cluster")]
    for s in steps:
        cluster = _scope_names(s.cluster, scm)
        rows.append((str(s.step), scm.var(s.var).name, " ".join(s.used), s.created, cluster))
    widths = [max(len(r[c]) for r in rows) for c in range(5)]
    lines = [
        " | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]
    lines.insert(1, "-+-".join("-" * w for w in widths))
    return "\n".join(lines)


def _recover_instantiation(tables: list[MaximizerTable]) -> Instantiation:
    """Walk the max pass in reverse, fixing each variable by table lookup
    under the already-fixed later variables."""
    fixed: Instantiation = {}
    for table in reversed(tables):
        fixed.update(table.lookup(fixed))
    return fixed


def _target_block(prefix: Iterable[int], targets: frozenset[int]) -> EliminationOrder:
    """``prefix`` followed by the targets in descending id, so reverse-order
    argmax recovery breaks ties toward the lexicographically smallest
    instantiation in declaration order, whatever produced the prefix."""
    return EliminationOrder(tuple(prefix) + tuple(sorted(targets, reverse=True)), targets)


def default_order(
    scm: Scm, targets: Iterable[int], vids: Iterable[int], forced: Container[int] = ()
) -> EliminationOrder:
    """Constrained min-degree order over the moral graph of the ancestrally
    closed set ``vids`` with the ``forced`` variables taken out of every
    family, ending in the target block of ``_target_block``. The forced
    variables get no place in it."""
    targets = frozenset(targets)
    base = mindegree_order(moral_subgraph(scm, vids, forced), constrained_suffix=targets)
    return _target_block(base.prefix, targets)


def _checked_query(
    scm: Scm, targets: frozenset[int], *evidence: Mapping[int, int]
) -> set[int]:
    """Refuse ids that are not the model's (a float or a bool is not one),
    overlapping target and evidence sets and evidence states out of range;
    return the targets and evidence variables."""
    unknown = {vid for vids in (targets, *evidence) for vid in vids if not _known_id(scm, vid)}
    if unknown:
        raise ModelError(f"unknown variable ids {sorted(unknown, key=repr)} in the query")
    seen = set(targets)
    for e in map(set, evidence):
        if seen & e:
            raise ModelError("targets and evidence sets must be pairwise disjoint")
        seen |= e
    for vid, state in (item for e in evidence for item in e.items()):
        _check_state(scm.var(vid), state)
    return seen


def _query_order(
    scm: Scm, targets: Iterable[int], order: EliminationOrder | None, *evidence: Mapping[int, int]
) -> EliminationOrder:
    """Check the query (``_checked_query``), then return the default order
    over the ancestral closure of the targets and evidence, or the caller's
    one (an ancestrally closed set containing them, ending in the targets,
    and constrained on the targets or on nothing), either ending in
    ``_target_block``."""
    targets = frozenset(targets)
    seen = _checked_query(scm, targets, *evidence)
    if order is None:
        return default_order(scm, targets, ancestral_closure(scm, seen))
    if order.constrained_suffix is not None and order.constrained_suffix != targets:
        raise ModelError("elimination order is constrained on variables other than the targets")
    covered = set(order.sequence)
    known = all(_known_id(scm, vid) for vid in order.sequence)
    closed = known and ancestral_closure(scm, covered) == covered
    if not (closed and seen <= covered):
        raise ModelError(
            "elimination order must cover an ancestrally closed set of model "
            "variables containing the targets and evidence"
        )
    return _target_block(EliminationOrder(order.sequence, targets).prefix, targets)


def _forced_states(
    scm: Scm, e1: Mapping[int, int], c2: Container[int]
) -> dict[int, int]:
    """The states that e1 forces on variables outside ``c2``, the ancestral
    closure of the targets and e2 (see the module docstring). A parent is
    forced to t when every positive entry of its child's CPT column at the
    child's given or forced state has the parent at t. The walk starts from
    the e1 variables outside ``c2`` and goes up through forced variables,
    stopping at ``c2`` and at given evidence. After the given variables, it
    visits the candidates in descending topological rank, so a candidate is
    decided once every child that could force it has been; children that
    force different states, or an all-zero column, force nothing."""
    votes: dict[int, set[int]] = {}  # the states each candidate is forced to

    def vote(vid: int, state: int) -> list[int]:
        """Cast the votes of ``vid``'s column at ``state``; return the
        parents voted on for the first time."""
        # The parents' states at the positive entries of the column, one
        # index array per parent (the stored table has the child last).
        rows = np.nonzero(scm.tables[vid][..., state]) if scm.parents[vid] else ()
        new = []
        for parent, states in zip(scm.parents[vid], rows):
            if parent in c2 or parent in e1:
                continue
            states = set(states.tolist())
            if len(states) != 1:
                continue
            if parent not in votes:
                new.append(parent)
            votes.setdefault(parent, set()).update(states)
        return new

    for vid, state in e1.items():
        if vid not in c2:
            vote(vid, state)
    if not votes:
        return {}
    rank = {vid: i for i, vid in enumerate(scm.topological_order())}
    heap = [(-rank[vid], vid) for vid in votes]
    heapq.heapify(heap)
    forced: dict[int, int] = {}
    while heap:
        vid = heapq.heappop(heap)[1]
        if len(votes[vid]) == 1:
            forced[vid] = state = min(votes[vid])
            for parent in vote(vid, state):
                heapq.heappush(heap, (-rank[parent], parent))
    return forced


def _rmap_order(
    scm: Scm,
    targets: Iterable[int],
    order: EliminationOrder | None,
    e1: Mapping[int, int],
    e2: Mapping[int, int],
) -> tuple[EliminationOrder, dict[int, int]]:
    """The Reverse-MAP query order and the states e1 forces outside the
    closure C2 of the targets and e2 (``_forced_states``). A caller order is
    checked by ``_query_order`` and forces nothing; without one, the query
    is checked first, and ``default_order`` orders its closure without the
    forced variables."""
    if order is not None:
        return _query_order(scm, targets, order, e1, e2), {}
    targets = frozenset(targets)
    _checked_query(scm, targets, e1, e2)
    c2 = ancestral_closure(scm, [*targets, *e2])
    forced = _forced_states(scm, e1, c2)
    closure = c2 | ancestral_closure(scm, e1, cut=c2)
    return default_order(scm, targets, closure, forced), forced


def _sum_pass(
    scm: Scm,
    evidence: Mapping[int, int],
    order: EliminationOrder,
    trace: list[TraceStep] | None = None,
    forced: Mapping[int, int] | None = None,
    swap: Mapping[int, Factor] | None = None,
) -> list[TaggedFactor]:
    """Sum the order's prefix out of the CPTs of the order's variables and
    of the ``forced`` ones times the evidence indicators. Each CPT is taken
    from ``swap`` where it has one, and every CPT that mentions a forced
    variable is sliced at the forced states (``restrict``)."""
    pool = cpt_pool(scm, (*order.sequence, *(forced or ())), swap)
    if forced:
        pool = [TaggedFactor(tag, restrict(f, forced)) for tag, f in pool]
    pool += lambda_pool(scm, evidence)
    return eliminate("sum", pool, order.prefix, trace=trace, scm=scm)[0]


def _two_pass(
    scm: Scm,
    e1: Mapping[int, int],
    e2: Mapping[int, int],
    order: EliminationOrder,
    forced: Mapping[int, int],
    trace: list[TraceStep] | None = None,
) -> tuple[list[TaggedFactor], list[TaggedFactor]]:
    """The Reverse-MAP sum passes: under e1+e2 over the query order with
    the forced states absorbed (traced), then under e2 alone over the same
    order restricted to the ancestral closure of the targets and e2, where
    Pr(u, e2) lives; every other variable is barren for it. The restriction
    keeps the relative order and the constrained suffix, and no CPT of that
    closure mentions a forced variable."""
    closure = ancestral_closure(scm, [*order.suffix, *e2])
    order2 = EliminationOrder(
        tuple(v for v in order.sequence if v in closure), order.constrained_suffix
    )
    return _sum_pass(scm, {**e1, **e2}, order, trace, forced), _sum_pass(scm, e2, order2)


def _product(pool: Iterable[TaggedFactor]) -> Factor:
    """Multiply the surviving factors in pool order, which is tag order for
    the survivors of a query pass (``eliminate``)."""
    return multiply_all(tf.factor for tf in pool)


def _scalar_value(pool: Iterable[TaggedFactor]) -> float:
    """The product of the scalar survivors, in pool order (tag order)."""
    value = 1.0
    for tf in pool:
        assert tf.factor.vids == (), "non-scalar factor survived elimination"
        value *= float(tf.factor.values)
    return value


def _max_pass(
    scm: Scm, pool: Sequence[TaggedFactor], ties: Sequence[TaggedFactor],
    order: EliminationOrder, trace: list[TraceStep] | None,
) -> tuple[float, Instantiation]:
    """The value and argmax of the target block's max pass (traced after the
    prefix). Ties go to the smallest unit only where the maximum is positive,
    so at value 0 the argmax comes from an untraced max pass over ``ties``:
    none for MAP (the implicit all-ones factors give the all-zero unit), the
    masks of Pr(u, e2) > 0 for Reverse-MAP (brute_rmap skips excluded units)."""
    pool, tables = eliminate("max", pool, order.suffix, scm, len(order.prefix), trace)
    value = _scalar_value(pool)
    if value == 0.0:
        tables = eliminate("max", ties, order.suffix, scm=scm)[1]
    return value, _recover_instantiation(tables)


def map_ve(
    scm: Scm,
    targets: Iterable[int],
    evidence: Mapping[int, int],
    order: EliminationOrder | None = None,
    want_trace: bool = False,
) -> QueryResult:
    """MAP by variable elimination: value = max_u Pr(u, e) plus an argmax.

    Sums out the non-target variables under the evidence indicators, then
    maximizes out the targets, recovering the instantiation from the
    maximizer tables.
    """
    order = _query_order(scm, targets, order, evidence)
    trace: list[TraceStep] | None = [] if want_trace else None
    pool = _sum_pass(scm, evidence, order, trace)
    return QueryResult(*_max_pass(scm, pool, [], order, trace), trace)


def _paired_division(
    pool1: Sequence[TaggedFactor], pool2: Sequence[TaggedFactor]
) -> list[TaggedFactor]:
    """Divide each pass-2 survivor into the first pass-1 survivor whose scope
    covers it, broadcast over that scope, with 0 wherever the divisor is 0.
    The pass-1 survivors come in tag order, so the first cover has the
    smallest tag. The quotients keep the pass-1 order and tags.

    A positive numerator over a zero divisor is legal here: the zero of
    Pr(u, e2) may sit in another pass-1 survivor than the chosen one."""
    tables = [tf.factor.values for tf in pool1]
    scopes = [set(tf.factor.vids) for tf in pool1]
    for divisor in (tf.factor for tf in pool2):
        i = next((i for i, scope in enumerate(scopes) if scope.issuperset(divisor.vids)), None)
        if i is None:
            raise AssertionError(f"no pass-1 survivor covers the scope {divisor.vids}")
        cover = pool1[i].factor
        den = divisor._expand(cover.vids)
        tables[i] = np.divide(tables[i], den, out=np.zeros(cover.cards), where=den > 0)
    return [
        TaggedFactor(tf.tag, Factor._trusted(tf.factor.vids, tf.factor.cards, table))
        for tf, table in zip(pool1, tables)
    ]


def rmap_ve(
    scm: Scm,
    targets: Iterable[int],
    e1: Mapping[int, int],
    e2: Mapping[int, int],
    order: EliminationOrder | None = None,
    want_trace: bool = False,
) -> QueryResult:
    """Reverse-MAP by variable elimination: max_u Pr(e1 | u, e2).

    A sum pass under e1+e2 over the query order and one under e2 alone over
    that order restricted to the ancestral closure of the targets and e2;
    each pass-2 survivor is divided into a pass-1 survivor that covers its
    scope, and the targets are maximized out of the quotients, which keep
    the pass-1 tags, so the trace shows the pass-1 sum steps and max steps.
    Without an order, the e1+e2 pass absorbs the states that e1 forces
    outside that closure through zero CPT rows, which is exact for any CPT
    (see the module docstring): their CPTs are sliced, and the forced
    variables have no step in the order or the trace. A caller order keeps
    every indicator and step.
    """
    order, forced = _rmap_order(scm, targets, order, e1, e2)
    trace: list[TraceStep] | None = [] if want_trace else None
    pool1, pool2 = _two_pass(scm, e1, e2, order, forced, trace)

    grid = math.prod(scm.var(v).cardinality for v in order.suffix)
    dtype = np.int64 if grid < 2**63 else object
    masks = []
    for tag, f in pool2:
        mask = np.asarray(f.values > 0, dtype=np.int64).astype(dtype, copy=False)
        masks.append(TaggedFactor(tag, Factor._trusted(f.vids, f.cards, mask)))
    counts = eliminate("sum", masks, order.suffix, scm=scm)[0]
    consistent = math.prod(tf.factor.values.item() for tf in counts)
    if consistent == 0:
        raise InconsistentEvidenceError(
            "evidence e2 is inconsistent with every target instantiation"
        )
    value, inst = _max_pass(scm, _paired_division(pool1, pool2), masks, order, trace)
    return QueryResult(value, inst, trace, excluded=grid - consistent)


def rmap_table(
    scm: Scm,
    targets: Iterable[int],
    e1: Mapping[int, int],
    e2: Mapping[int, int],
    order: EliminationOrder | None = None,
) -> Factor:
    """The full conditional profile Pr(e1 | u, e2) as a factor over the
    targets (0 where Pr(u, e2) = 0). Used for whole-grid checks. The passes
    are ``rmap_ve``'s, forced evidence absorbed without an order."""
    order, forced = _rmap_order(scm, targets, order, e1, e2)
    return _product(_paired_division(*_two_pass(scm, e1, e2, order, forced)))


def posterior(
    scm: Scm,
    targets: Iterable[int],
    evidence: Mapping[int, int],
    order: EliminationOrder | None = None,
) -> Factor:
    """Normalized conditional table Pr(targets | evidence)."""
    order = _query_order(scm, targets, order, evidence)
    joint = _product(_sum_pass(scm, evidence, order))
    assert set(joint.vids) == order.constrained_suffix, "survivors must be the targets"
    mass = joint.total()
    if mass == 0.0:
        raise InconsistentEvidenceError("evidence has zero probability mass")
    return joint.scale(1.0 / mass)


def query_prob(scm: Scm, event: Mapping[int, int], given: Mapping[int, int]) -> float:
    """Pr(event | given) for instantiations (a posterior cell). An event
    state out of range is refused with ModelError before any elimination."""
    for vid, state in event.items():
        if _known_id(scm, vid):
            _check_state(scm.var(vid), state)
    return posterior(scm, set(event), given)[event]


# -- brute-force oracles -------------------------------------------------------


def joint_mass(scm: Scm, inst: Mapping[int, int], order: EliminationOrder | None = None) -> float:
    """Pr(inst) by summing out the order's variables under the indicators."""
    order = _query_order(scm, (), order, inst)
    return _scalar_value(_sum_pass(scm, inst, order))


def brute_map(scm: Scm, targets: Iterable[int], evidence: Mapping[int, int]) -> QueryResult:
    """Full enumeration over the targets; ties go to the lexicographically
    smallest instantiation in declaration order (the VE tie rule)."""
    targets = set(targets)
    # The first unit stands for every unit: the order covers their variables.
    order = _query_order(scm, (), None, dict.fromkeys(targets, 0), evidence)
    best: tuple[float, Instantiation] | None = None
    for u in enumerate_instantiations(scm, targets):
        p = joint_mass(scm, {**evidence, **u}, order)
        if best is None or p > best[0]:
            best = (p, u)
    assert best is not None
    return QueryResult(best[0], best[1])


def brute_rmap(
    scm: Scm,
    targets: Iterable[int],
    e1: Mapping[int, int],
    e2: Mapping[int, int],
) -> QueryResult:
    """Full enumeration Reverse-MAP oracle with the same exclusion rule and
    tie-breaking as the VE path."""
    targets = set(targets)
    order = _query_order(scm, (), None, dict.fromkeys(targets, 0), e1, e2)
    best: tuple[float, Instantiation] | None = None
    excluded = 0
    for u in enumerate_instantiations(scm, targets):
        m2 = joint_mass(scm, {**e2, **u}, order)
        if m2 == 0.0:
            excluded += 1
            continue
        val = joint_mass(scm, {**e1, **e2, **u}, order) / m2
        if best is None or val > best[0]:
            best = (val, u)
    if best is None:
        raise InconsistentEvidenceError(
            "evidence e2 is inconsistent with every target instantiation"
        )
    return QueryResult(best[0], best[1], excluded=excluded)


# -- unit selection ------------------------------------------------------------


def _evidence_free_select(om: ObjectiveModel) -> QueryResult:
    """Reverse-MAP on a solve model whose e2 holds only cut copies, as one
    MAP query (see the module docstring): one sum pass under e1+e2 over the
    query order, with each unit's CPT swapped for its support indicator
    1[Pr(u_i) > 0], and one max pass whose value-0 ties are those indicators.
    Units outside the support are the excluded ones. The pass absorbs the
    states that e1 forces, through the order and pool of ``rmap_ve``'s e1+e2
    pass, so the bits stay Reverse-MAP's where an indicator forces copies."""
    scm = om.model
    order, forced = _rmap_order(scm, om.unit_om_ids, None, om.e1, om.e2)
    support = {}
    for vid in om.unit_om_ids:
        prior = scm.cpt_factor(vid)
        indicator = (prior.values > 0).astype(np.float64)
        support[vid] = Factor._trusted(prior.vids, prior.cards, indicator)
    pool = _sum_pass(scm, {**om.e1, **om.e2}, order, None, forced, support)
    ties = [TaggedFactor(("cpt", vid), f) for vid, f in support.items()]
    value, inst = _max_pass(scm, pool, ties, order, None)
    grid = math.prod(f.values.size for f in support.values())
    consistent = math.prod(int(np.count_nonzero(f.values)) for f in support.values())
    return QueryResult(value, inst, excluded=grid - consistent)


def unit_select(
    scm: Scm,
    objective,
    method: str = "ve",
    order: EliminationOrder | None = None,
) -> QueryResult:
    """argmax_u L(u) for a weighted counterfactual objective.

    ``method="ve"`` builds an objective model and runs Reverse-MAP on it;
    ``method="brute"`` evaluates L(u) for every unit by enumeration. Both
    return the instantiation over the base unit variables. Units whose
    conditioning mass vanishes are excluded and counted. Without an order,
    ``method="ve"`` solves the shared-worlds model of
    :mod:`unitsel.objective` (one component per distinct evidence, one world
    per distinct cut, built only as far as the query's ancestral closure):
    its values are L(u), its excluded units those where some term is
    undefined, and among units whose values tie mathematically it may pick
    another one than a whole-model order. When no term has evidence e, that
    solve is one MAP query, one sum pass and one max pass with each unit
    prior swapped for its support indicator (see the module docstring), and
    gives Reverse-MAP's value, unit and excluded count. A caller-supplied
    ``order`` names variables of the full ``build_objective_model(scm,
    objective)`` (the build is deterministic), which is then built, and must
    cover an ancestrally closed set of them that contains the units and the
    evidence, such as the whole objective model. An order with ``method="brute"``, which orders
    nothing, is refused with ModelError, and so is an invalid objective, by
    the build or the evaluation.
    """
    if method == "ve":
        if order is None:
            om = _solve_model(scm, objective)
        else:
            om = build_objective_model(scm, objective)
        if order is None and not any(t.e for t in objective.terms):
            result = _evidence_free_select(om)
        else:
            result = rmap_ve(om.model, om.unit_om_ids, om.e1, om.e2, order=order)
        inst = {
            base: result.instantiation[om_id]
            for base, om_id in zip(om.unit_base_ids, om.unit_om_ids)
        }
        return QueryResult(result.value, inst, excluded=result.excluded)
    if method == "brute":
        if order is not None:
            raise ModelError("an elimination order applies to method 've' only")
        values, defined = evaluate_L_profile(scm, objective)
        if not defined.any():
            raise InconsistentEvidenceError(
                "every unit has zero conditioning mass for some term"
            )
        masked = np.where(defined, values, -1.0)
        flat = int(masked.argmax())  # first max in C order = smallest unit
        cards = tuple(scm.var(v).cardinality for v in objective.unit_ids)
        inst = {v: int(s) for v, s in zip(objective.unit_ids, np.unravel_index(flat, cards))}
        excluded = int(defined.size - np.count_nonzero(defined))
        return QueryResult(float(values.flat[flat]), inst, excluded=excluded)
    raise ValueError(f"unknown method {method!r}")
