"""Elimination orders, widths and the structural analysis toolbox.

Eliminating a variable from an undirected graph connects all its neighbors
and removes it; the *cluster* of the variable is itself plus its neighbors at
removal time, and the *width* of an order is the largest cluster size minus
one. A U-constrained order places the variables U last; the minimum width
over such orders is the U-constrained treewidth.

``minfill_order`` works on bitsets: each node is replaced by its rank in
sorted-id order, and a node's adjacency is a Python int with one bit per
neighbor rank. A node's fill count is C(deg, 2) - tri, where tri counts the
edges among its neighbors, and tri is kept up to date rather than recounted
(Koller & Friedman 2009, ch. 9). Adding the fill edge (a, b) adds to tri(a)
and tri(b) one edge per common neighbor c of a and b, and to each such c the
edge (a, b) itself; removing ``v`` takes from each neighbor its edge to ``v``
and v's edges to the other neighbors, which by then form a clique. Only the
nodes whose counts moved are re-keyed. The next node comes from a lazy
min-heap keyed on (in suffix, fill, rank): every free node goes before the
constrained suffix, and since ranks follow ids, a fill tie goes to the
smallest id, exactly as a scan of all live nodes would.

``mindegree_order`` is greedy min-degree (Koller & Friedman 2009, ch. 9) on
the same bitsets and heap, keyed on (in suffix, degree, rank): eliminating a
node joins its neighbors into a clique, so only their degrees move. It
orders the default query closures of ``inference``; minfill stays for the
width analysis.

The elimination walk ranks the nodes by their place in the order, so the
neighbors left when a node goes are the set bits of its adjacency above its
own rank. Its fill edges are one bitwise or into the first of those
neighbors to go, whose own elimination passes them on. The walk yields one
bitset of later neighbors per node, and it has two readers:
``order_width`` counts their bits, the width being the largest count, and
builds no set; ``simulate_elimination`` turns each into its cluster, the
node and those neighbors, as a ``frozenset``. Callers that need only the
width (the width table, the lifted-width checks) use ``order_width``.

``lift_order`` is the one lifting rule: it replaces each variable of an
order by its copies in the lifting map, a repeated copy once, and refuses a
variable the map lacks. A mixture root H goes just before the constrained
suffix, whose variables must each have one copy, and last without one; the
lifted order is constrained exactly when the order is.

``treewidth_exact`` runs the subset program of Bodlaender et al. (2012) on
the same rank bitsets, free nodes first. Once a set S is eliminated, two
nodes are adjacent exactly when a path through S joins them (Rose, Tarjan &
Lueker 1976), so a node's cluster is a bit walk through S and no filled graph
is built. Its table is a cost-to-go: rest[S] is the least largest cluster
(less one) over the orders of the phase's nodes outside S, once S is gone.
The width W is the larger of the two phases' rest[0]. A walk then runs
forward through each phase and takes, at each S, the smallest-id node whose
cluster and whose rest[S | v] both fit under W. That is the lexicographically
first order of width W: the order that a scan of every order, in
lexicographic order, keeping the first strict minimum, would return. The
walk keeps under W and not under its phase's own optimum, since any order of
width W ties, and the first of them wins.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Container, Iterable, Mapping, Sequence

from .model import ModelError, Scm, _known_id

EXACT_MAX_FREE = 16  # nodes per phase of treewidth_exact's subset program


class UGraph:
    """A simple undirected graph over integer node ids."""

    def __init__(self, nodes: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()):
        self.adj: dict[int, set[int]] = {int(n): set() for n in nodes}
        for a, b in edges:
            self.add_edge(a, b)

    @property
    def nodes(self) -> set[int]:
        return set(self.adj)

    def add_edge(self, a: int, b: int) -> None:
        if a == b:
            return
        self.adj.setdefault(a, set()).add(b)
        self.adj.setdefault(b, set()).add(a)

    def connected(self) -> bool:
        if not self.adj:
            return True
        seen = set()
        stack = [next(iter(self.adj))]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(self.adj[v] - seen)
        return len(seen) == len(self.adj)

    def without(self, removed: Iterable[int]) -> "UGraph":
        removed = set(removed)
        g = UGraph()
        for v, ns in self.adj.items():
            if v in removed:
                continue
            g.adj[v] = ns - removed
        return g


@dataclass(frozen=True)
class EliminationOrder:
    """A total order over variable ids, optionally U-constrained.

    When ``constrained_suffix`` is set, exactly its members occupy the last
    positions of the sequence.
    """

    sequence: tuple[int, ...]
    constrained_suffix: frozenset[int] | None = None

    def __post_init__(self) -> None:
        if len(set(self.sequence)) != len(self.sequence):
            raise ModelError("elimination order repeats a variable")
        if self.constrained_suffix is not None:
            k = len(self.constrained_suffix)
            tail = set(self.sequence[len(self.sequence) - k:]) if k else set()
            if tail != set(self.constrained_suffix):
                raise ModelError(
                    "constrained variables must occupy the tail of the order"
                )

    @property
    def prefix(self) -> tuple[int, ...]:
        """The part of the order before the constrained suffix."""
        if not self.constrained_suffix:
            return self.sequence
        return self.sequence[: len(self.sequence) - len(self.constrained_suffix)]

    @property
    def suffix(self) -> tuple[int, ...]:
        if not self.constrained_suffix:
            return ()
        return self.sequence[len(self.sequence) - len(self.constrained_suffix):]


@dataclass(frozen=True)
class ClusterReport:
    """Clusters induced by simulating an order, and the resulting width."""

    clusters: tuple[frozenset[int], ...]
    width: int


def moral_graph(scm: Scm) -> UGraph:
    """Undirect all edges and marry every pair of common parents."""
    return moral_subgraph(scm, range(scm.n))


def moral_subgraph(scm: Scm, vids: Iterable[int], removed: Container[int] = ()) -> UGraph:
    """The moral graph of the families of ``vids``: for an ancestrally closed
    set, the moral graph of the submodel it induces. The variables in
    ``removed`` are taken out of every family, their own included, as
    slicing the CPTs at their states takes them out of the CPTs' scopes."""
    vids = sorted(vids)
    adj: dict[int, set[int]] = {vid: set() for vid in vids if vid not in removed}
    parents = scm.parents
    for vid in vids:
        if parents[vid]:
            # Each family member joins the whole family (a root's family is
            # the root alone, with no edge); a parent outside ``vids``
            # becomes a node here. The self-loops go below.
            family = (*parents[vid], vid)
            if removed:
                family = tuple([a for a in family if a not in removed])
            for a in family:
                adj.setdefault(a, set()).update(family)
    for v, ns in adj.items():
        ns.discard(v)
    g = UGraph()
    g.adj = adj
    return g


def ancestral_closure(
    scm: Scm, vids: Iterable[int], cut: Container[int] = ()
) -> frozenset[int]:
    """The variables ``vids`` together with all their ancestors. The walk
    does not go above a variable in ``cut``: the closure is that of the model
    mutilated at ``cut``."""
    closure: set[int] = set()
    stack = list(vids)
    while stack:
        vid = stack.pop()
        if vid not in closure:
            closure.add(vid)
            if vid not in cut:
                stack.extend(scm.parents[vid])
    return frozenset(closure)


def _rank_bitsets(g: UGraph, nodes: Sequence[int]) -> list[int]:
    """The adjacency of ``g`` as one int per node of ``nodes``, with bit r
    set for a neighbor at position r of ``nodes``."""
    bit = dict(zip(nodes, (1 << r for r in range(len(nodes)))))
    # The bits are distinct, so their sum is their union.
    return [sum(map(bit.__getitem__, g.adj[v])) for v in nodes]


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _elimination_walk(
    g: UGraph, order: EliminationOrder | Sequence[int]
) -> tuple[tuple[int, ...], list[int]]:
    """The order as a tuple, and for each of its nodes the bitset, over
    ranks in the order, of the neighbors still there when the node goes."""
    seq = order.sequence if isinstance(order, EliminationOrder) else tuple(order)
    if len(seq) != len(g.adj) or set(seq) != g.adj.keys():
        raise ModelError("order must cover exactly the graph nodes")
    # Ranks follow the order, so the neighbors left when v goes are the bits
    # of adj[v] above v; lower bits are eliminated nodes and are never read.
    # The fill among them need only reach the first of them to go, whose own
    # elimination passes the rest on (symbolic factorization; George & Liu
    # 1981, ch. 5). adj[v] is read last at v's own turn, so it is overwritten
    # with the later neighbors.
    adj = _rank_bitsets(g, seq)
    for v in range(len(adj)):
        later = adj[v] & -(2 << v)
        if later:
            adj[(later & -later).bit_length() - 1] |= later
        adj[v] = later
    return seq, adj


def order_width(g: UGraph, order: EliminationOrder | Sequence[int]) -> int:
    """The width of eliminating ``g`` per the order (-1 for an empty graph),
    without building the clusters."""
    return max(map(int.bit_count, _elimination_walk(g, order)[1]), default=-1)


def simulate_elimination(g: UGraph, order: EliminationOrder | Sequence[int]) -> ClusterReport:
    """Eliminate per the order, collecting clusters and the width."""
    seq, later = _elimination_walk(g, order)
    clusters = tuple(
        frozenset(map(seq.__getitem__, _bits(ns | 1 << v))) for v, ns in enumerate(later)
    )
    return ClusterReport(clusters, max(map(int.bit_count, later), default=-1))


def minfill_order(
    g: UGraph, constrained_suffix: Iterable[int] | None = None
) -> EliminationOrder:
    """Greedy minfill: repeatedly eliminate the eligible node adding the
    fewest fill edges (ties: smallest id). With a constrained suffix, non-U
    nodes are eligible while any remain, then the U nodes."""
    suffix = frozenset(constrained_suffix) if constrained_suffix is not None else None
    nodes = sorted(g.adj)
    adj = _rank_bitsets(g, nodes)
    # tri[r]: edges among the neighbors of r, so fill = C(deg, 2) - tri.
    # The bit walks of _bits are inlined in this function: low is the lowest
    # set bit of what is left to walk, and its rank is low.bit_length() - 1.
    tri = []
    for ns in adj:
        t = 0
        rest = ns
        while rest:
            low = rest & -rest
            t += (ns & adj[low.bit_length() - 1]).bit_count()
            rest ^= low
        tri.append(t // 2)
    fill: list[int | None] = [
        d * (d - 1) // 2 - t for d, t in zip((ns.bit_count() for ns in adj), tri)
    ]
    # Heap entries (in suffix, fill, rank) put every free node before the
    # suffix; an entry is stale once its fill is not fill[rank] (None once
    # the node is eliminated).
    in_suffix = [bool(suffix) and v in suffix for v in nodes]
    heap = [(s, f, r) for r, (s, f) in enumerate(zip(in_suffix, fill))]
    heapq.heapify(heap)
    seq: list[int] = []
    for _ in nodes:
        _, f, v = heapq.heappop(heap)
        while fill[v] != f:
            _, f, v = heapq.heappop(heap)
        seq.append(nodes[v])
        fill[v] = None
        ns = adj[v]
        bit = 1 << v
        touched = ns
        if f:
            rest = ns
            while rest:
                low_a = rest & -rest
                rest ^= low_a
                a = low_a.bit_length() - 1
                # Each fill edge (a, b) closes a triangle with every common
                # neighbor of a and b, v among them.
                missing = ns & ~adj[a] & -(2 << a)
                while missing:
                    low_b = missing & -missing
                    missing ^= low_b
                    b = low_b.bit_length() - 1
                    common = adj[a] & adj[b]
                    k = common.bit_count()
                    tri[a] += k
                    tri[b] += k
                    common ^= bit
                    touched |= common
                    while common:
                        low = common & -common
                        tri[low.bit_length() - 1] += 1
                        common ^= low
                    adj[a] |= low_b
                    adj[b] |= low_a
        # ns is a clique now, so each member loses v and v's edges to the
        # other members.
        lost = ns.bit_count() - 1
        rest = ns
        while rest:
            low = rest & -rest
            a = low.bit_length() - 1
            adj[a] ^= bit
            tri[a] -= lost
            rest ^= low
        while touched:
            low = touched & -touched
            x = low.bit_length() - 1
            d = adj[x].bit_count()
            new = d * (d - 1) // 2 - tri[x]
            if new != fill[x]:
                fill[x] = new
                heapq.heappush(heap, (in_suffix[x], new, x))
            touched ^= low
    return EliminationOrder(tuple(seq), suffix)


def mindegree_order(
    g: UGraph, constrained_suffix: Iterable[int] | None = None
) -> EliminationOrder:
    """Greedy min-degree: repeatedly eliminate the eligible node with the
    fewest neighbors (ties: smallest id). With a constrained suffix, non-U
    nodes are eligible while any remain, then the U nodes."""
    suffix = frozenset(constrained_suffix) if constrained_suffix is not None else None
    nodes = sorted(g.adj)
    adj = _rank_bitsets(g, nodes)
    deg: list[int | None] = [ns.bit_count() for ns in adj]
    # The heap and its stale entries work as in minfill_order, keyed on
    # (in suffix, degree, rank).
    in_suffix = [bool(suffix) and v in suffix for v in nodes]
    heap = [(s, d, r) for r, (s, d) in enumerate(zip(in_suffix, deg))]
    heapq.heapify(heap)
    seq: list[int] = []
    for _ in nodes:
        _, d, v = heapq.heappop(heap)
        while deg[v] != d:
            _, d, v = heapq.heappop(heap)
        seq.append(nodes[v])
        deg[v] = None
        ns = adj[v]
        # Only the neighbors' degrees move: each joins the clique on ns and
        # loses v.
        for a in _bits(ns):
            adj[a] = (adj[a] | ns) ^ (1 << a | 1 << v)
            new = adj[a].bit_count()
            if new != deg[a]:
                deg[a] = new
                heapq.heappush(heap, (in_suffix[a], new, a))
    return EliminationOrder(tuple(seq), suffix)


# -- order lifting -------------------------------------------------------------


def _lifted(ids: Iterable[int], duplicates: Mapping[int, tuple[int, ...]]) -> list[int]:
    """The copies of each of ``ids`` in turn, a copy that its tuple repeats
    listed once; an id that ``duplicates`` lacks is refused."""
    lifted: list[int] = []
    for vid in ids:
        if vid not in duplicates:
            raise ModelError(f"order variable {vid} has no copies in the lifting map")
        lifted += dict.fromkeys(duplicates[vid])
    return lifted


def lift_order(
    order: EliminationOrder | Sequence[int],
    duplicates: Mapping[int, tuple[int, ...]],
    h_id: int | None = None,
) -> EliminationOrder:
    """The copies of the order's prefix, then H (if given), then the copies
    of its constrained suffix: H goes just before the unit block, and last
    without one.

    ``duplicates`` maps every base variable id to the ids of its copies in
    the lifted model (all first-world copies, then all second-world copies,
    then all third-world copies; a shared variable's copies are one id). A
    suffix variable must have one copy, and the result is constrained on
    those copies exactly when ``order`` is constrained; a plain sequence is
    not.
    """
    if not isinstance(order, EliminationOrder):
        order = EliminationOrder(tuple(order))
    lifted = _lifted(order.prefix, duplicates)
    if h_id is not None:
        lifted.append(h_id)
    suffix = _lifted(order.suffix, duplicates)
    if any(len(set(duplicates[vid])) != 1 for vid in order.suffix):
        raise ModelError("unit variables must be shared in the lifted model")
    constrained = None if order.constrained_suffix is None else frozenset(suffix)
    return EliminationOrder(tuple(lifted + suffix), constrained)


# -- structural predicates -----------------------------------------------------


def is_external(scm: Scm, units: Iterable[int]) -> bool:
    """True iff the DAG stays connected after removing the unit roots.

    Requires the base DAG to be connected. The moral graph has the DAG's
    connected parts: a marriage edge joins two parents of a child, and a
    child is never a unit.
    """
    units = tuple(units)
    for vid in units:
        if not _known_id(scm, vid):
            raise ModelError(f"unknown unit variable id {vid}")
        if not scm.is_root(vid):
            raise ModelError(f"unit variable {scm.var(vid).name!r} must be a root")
    g = moral_graph(scm)
    if not g.connected():
        raise ModelError("base DAG is disconnected")
    return g.without(units).connected()


# -- exact width ---------------------------------------------------------------


def treewidth_exact(
    g: UGraph, constrained_suffix: Iterable[int] | None = None
) -> tuple[int, EliminationOrder]:
    """The exact (constrained) treewidth of ``g`` and the lexicographically
    first order of that width, by dynamic programming over subsets.

    A constrained order splits into two independent phases: the free nodes,
    then the suffix once every free node is gone.
    """
    suffix = set(constrained_suffix) if constrained_suffix is not None else set()
    if not suffix <= g.nodes:
        raise ModelError(f"constrained nodes {suffix - g.nodes} are not in the graph")
    free = sorted(g.nodes - suffix)
    if len(free) > EXACT_MAX_FREE or len(suffix) > EXACT_MAX_FREE:
        raise ModelError(f"exact oracle limited to {EXACT_MAX_FREE} nodes per phase")
    nodes = free + sorted(suffix)
    adj = _rank_bitsets(g, nodes)

    def cluster(v: int, gone: int) -> int:
        """The neighbors of rank ``v`` once the ranks in ``gone`` are
        eliminated, counted: the nodes outside ``gone`` that it reaches
        through ``gone``."""
        seen = adj[v] | 1 << v
        front = adj[v] & gone
        while front:
            low = front & -front
            front ^= low
            new = adj[low.bit_length() - 1] & ~seen
            seen |= new
            front |= new & gone
        return (seen & ~gone).bit_count() - 1

    # Each phase: its first rank, its node count, the ranks gone before it
    # and its cost-to-go table. Bit i of a state S is rank lo + i.
    phases = []
    for lo, n, gone in ((0, len(free), 0), (len(free), len(suffix), (1 << len(free)) - 1)):
        full = (1 << n) - 1
        rest = [-1] * (full + 1)
        for s in range(full - 1, -1, -1):
            best = len(nodes)
            for i in range(n):
                # A node whose cost-to-go is no less than best cannot lower it.
                if not s >> i & 1 and rest[s | 1 << i] < best:
                    best = min(best, max(rest[s | 1 << i], cluster(lo + i, gone | s << lo)))
            rest[s] = best
        phases.append((lo, n, gone, rest))
    width = max(rest[0] for *_, rest in phases)
    seq = []
    for lo, n, gone, rest in phases:
        s = 0
        for _ in range(n):
            i = next(
                i for i in range(n)
                if not s >> i & 1 and rest[s | 1 << i] <= width
                and cluster(lo + i, gone | s << lo) <= width
            )
            seq.append(nodes[lo + i])
            s |= 1 << i
    constrained = frozenset(suffix) if constrained_suffix is not None else None
    return width, EliminationOrder(tuple(seq), constrained)
