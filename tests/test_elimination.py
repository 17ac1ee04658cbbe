"""Moral graphs, width simulation, minfill, lifting and width properties."""

import numpy as np
import pytest

from unitsel import (
    ClusterReport,
    EliminationOrder,
    ModelError,
    UGraph,
    build_objective_model,
    is_external,
    lift_order,
    load_model,
    make_scm,
    minfill_order,
    moral_graph,
    n_world_model,
    order_width,
    simulate_elimination,
    treewidth_exact,
)
import unitsel.bench as bench_module
import unitsel.elimination as elimination_module
from unitsel.objective import _solve_model
from unitsel import fixture_path, parse_dimacs
from unitsel.bench import (
    GenConfig,
    _pick_units,
    default_bench_configs,
    gen_benefit_objective,
    gen_random_scm,
    gen_tight_family,
    run_width_table,
    tight_family_order,
)
from unitsel.elimination import (
    ancestral_closure,
    mindegree_order,
    moral_subgraph,
)
from unitsel.inference import default_order
from unitsel.objective import ObjectiveFunction, ObjectiveTerm
from unitsel.reductions import compile_formula
from corpus import (
    eliminate_node,
    fill_count,
    neighbor_sets,
    random_cnf,
    random_constrained_order,
    random_dag_scm,
    random_instance,
    random_ugraph,
    reference_clusters,
    reference_mindegree_order,
    reference_minfill_order,
    reference_moral_subgraph,
    treewidth_by_enumeration,
)


@pytest.fixture(scope="module")
def five_node():
    with open(fixture_path("five_node.json"), "rb") as fh:
        return load_model(fh.read())


def _names(scm, cluster):
    return "".join(sorted(scm.var(v).name for v in cluster))


def test_moral_graph_v_structure():
    scm = make_scm(
        [("A", ["0", "1"]), ("B", ["0", "1"]), ("C", ["0", "1"])],
        {"A": [], "B": [], "C": ["A", "B"]},
        {"A": [.5, .5], "B": [.5, .5], "C": [1, 0, 0, 1, 0, 1, 1, 0]},
    )
    g = moral_graph(scm)
    assert 1 in g.adj[0]  # common parents married
    assert 2 in g.adj[0] and 2 in g.adj[1]


def test_moral_graph_chain():
    scm = make_scm(
        [("A", ["0", "1"]), ("B", ["0", "1"]), ("C", ["0", "1"])],
        {"A": [], "B": ["A"], "C": ["B"]},
        {"A": [.5, .5], "B": [1, 0, 0, 1], "C": [1, 0, 0, 1]},
    )
    g = moral_graph(scm)
    assert 1 in g.adj[0] and 2 in g.adj[1] and 2 not in g.adj[0]


def test_moral_graph_five_node(five_node):
    g = moral_graph(five_node)
    ids = {v.name: v.id for v in five_node.variables}
    expected = {("A", "B"), ("A", "C"), ("B", "C"), ("B", "D"), ("C", "D"), ("C", "E")}
    edges = {
        tuple(sorted((five_node.var(a).name, five_node.var(b).name)))
        for a in g.nodes for b in g.adj[a] if a < b
    }
    assert edges == expected


def test_simulation_five_node_trace(five_node):
    ids = {v.name: v.id for v in five_node.variables}
    order = [ids[n] for n in "EDCBA"]
    report = simulate_elimination(moral_graph(five_node), order)
    assert [_names(five_node, c) for c in report.clusters] == [
        "CE", "BCD", "ABC", "AB", "A",
    ]
    assert report.width == 2


def test_simulation_isolated_node_and_clique():
    g = UGraph(nodes=[0, 1, 2, 3])
    report = simulate_elimination(g, [0, 1, 2, 3])
    assert report.width == 0 and all(len(c) == 1 for c in report.clusters)
    assert order_width(g, [3, 0, 2, 1]) == 0
    k = UGraph(nodes=range(4), edges=[(a, b) for a in range(4) for b in range(a + 1, 4)])
    for order in ([0, 1, 2, 3], [3, 1, 0, 2]):
        assert simulate_elimination(k, order).width == order_width(k, order) == 3


def test_simulation_requires_full_cover(five_node):
    for measure in (simulate_elimination, order_width):
        with pytest.raises(ModelError):
            measure(moral_graph(five_node), [0, 1])


def test_simulation_rejects_repeated_node():
    # A repeat used to pass the cover check and raise a bare KeyError.
    g = UGraph(nodes=[3, 7, 11], edges=[(3, 7), (7, 11)])
    for measure in (simulate_elimination, order_width):
        with pytest.raises(ModelError, match="cover exactly"):
            measure(g, [3, 7, 7, 11])
        with pytest.raises(ModelError, match="cover exactly"):
            measure(g, [3, 7, 7])


def test_simulation_matches_reference_under_random_orders():
    # Random orders fill far more than minfill's, and the ids are neither
    # contiguous nor in elimination order.
    assert simulate_elimination(UGraph(), ()) == ClusterReport((), -1)
    assert order_width(UGraph(), ()) == -1
    sizes = set()
    for seed in range(150):
        rng = np.random.default_rng([314, seed])
        g = _relabelled_ugraph(seed, rng)
        before = {v: set(ns) for v, ns in g.adj.items()}
        nodes = sorted(g.nodes)
        if seed % 2:
            suffix = {v for v in nodes if rng.random() < 0.4}
            order = random_constrained_order(g, suffix, rng)
            seq = order.sequence
        else:
            seq = tuple(int(v) for v in rng.permutation(np.array(nodes, dtype=np.int64)))
            order = seq
        want = reference_clusters(g, seq)
        report = simulate_elimination(g, order)
        assert report == ClusterReport(tuple(want), max(map(len, want), default=0) - 1)
        assert order_width(g, order) == report.width
        assert g.adj == before  # the caller's graph is left as it was
        sizes.add(len(nodes))
    assert 0 in sizes and max(sizes) >= 20


def test_moral_subgraph_matches_pairwise_reference():
    # Whole models, ancestral closures and id sets that leave out parents of
    # their members; such a parent is still a node of the subgraph.
    scms = [random_dag_scm(seed, 3, 16) for seed in range(40)]
    scms += [build_objective_model(*random_instance(seed)[::2]).model for seed in range(20)]
    open_sets = 0
    for seed, scm in enumerate(scms):
        rng = np.random.default_rng([316, seed])
        picked = [v for v in range(scm.n) if rng.random() < 0.4]
        for vids in (range(scm.n), picked, ancestral_closure(scm, picked)):
            got = moral_subgraph(scm, vids)
            want = reference_moral_subgraph(scm, vids)
            assert got.adj == want.adj
            assert list(got.adj) == list(want.adj)
            open_sets += got.nodes != set(vids)
    assert open_sets >= 10


def test_moral_subgraph_without_removed_variables():
    # Taking variables out of every family is taking their nodes out of the
    # moral graph: every edge between two others came from a family holding
    # both.
    for seed in range(40):
        scm = random_dag_scm(seed, 3, 16)
        rng = np.random.default_rng([317, seed])
        removed = {v for v in range(scm.n) if rng.random() < 0.3}
        for vids in (range(scm.n), ancestral_closure(scm, [scm.n - 1])):
            got = moral_subgraph(scm, vids, removed)
            want = moral_subgraph(scm, vids).without(removed)
            assert got.adj == want.adj


def test_width_trials_build_no_clusters(monkeypatch):
    # The width table reads widths only, so it must not pay for a cluster
    # set per eliminated node.
    cfg = GenConfig(node_count=12, seed=5, unit_ratio=0.6, trials=2)
    want = [bench_module.run_width_trial(cfg, t) for t in range(cfg.trials)]

    def refuse(*args, **kwargs):
        raise AssertionError("the width table built clusters")

    monkeypatch.setattr(elimination_module, "simulate_elimination", refuse)
    monkeypatch.setattr(bench_module, "simulate_elimination", refuse, raising=False)
    assert [bench_module.run_width_trial(cfg, t) for t in range(cfg.trials)] == want


def test_minfill_tree_is_width_one():
    g = UGraph(nodes=range(7), edges=[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    order = minfill_order(g)
    report = simulate_elimination(g, order)
    assert report.width == 1
    # every elimination in a tree adds no fill edge under minfill
    work = neighbor_sets(g)
    for v in order.sequence:
        assert fill_count(work, v) == 0
        eliminate_node(work, v)


def test_minfill_matches_exhaustive_on_five_node(five_node):
    g = moral_graph(five_node)
    w = simulate_elimination(g, minfill_order(g)).width
    best, _ = treewidth_by_enumeration(g)
    assert w == best == 2


def test_minfill_constrained_suffix_is_respected(five_node):
    ids = {v.name: v.id for v in five_node.variables}
    units = {ids["A"], ids["B"]}
    order = minfill_order(moral_graph(five_node), constrained_suffix=units)
    assert set(order.sequence[-2:]) == units


def test_minfill_edge_cases():
    assert minfill_order(UGraph()) == EliminationOrder(())
    assert minfill_order(UGraph(), constrained_suffix=set()).constrained_suffix == frozenset()
    g = UGraph(nodes=[5, 2, 9], edges=[(5, 2), (2, 9)])
    order = minfill_order(g, constrained_suffix=set())
    assert order.sequence == (5, 2, 9) and order.constrained_suffix == frozenset()
    order = minfill_order(g, constrained_suffix=[9, 2, 5, 9])
    assert order.sequence == (5, 2, 9) and order.constrained_suffix == frozenset({2, 5, 9})
    for outside in ([4], [2, 4], [5, 2, 9, 4]):
        with pytest.raises(ModelError):
            minfill_order(g, constrained_suffix=outside)


def _assert_matches_reference(g, suffix):
    got = minfill_order(g, constrained_suffix=suffix)
    want = reference_minfill_order(g, suffix)
    assert got.sequence == want.sequence
    assert got.constrained_suffix == want.constrained_suffix
    assert list(simulate_elimination(g, got).clusters) == reference_clusters(g, got.sequence)


def _record_minfill_calls(monkeypatch, module):
    """Record the (graph, suffix) of every minfill_order call made through
    ``module``."""
    calls = []

    def record(g, constrained_suffix=None):
        suffix = None if constrained_suffix is None else frozenset(constrained_suffix)
        calls.append((g, suffix))
        return minfill_order(g, constrained_suffix=suffix)

    monkeypatch.setattr(module, "minfill_order", record)
    return calls


def _relabelled_ugraph(seed, rng):
    """A random graph (possibly empty) on non-contiguous ids whose order
    differs from the generator's labels."""
    base = random_ugraph(seed, lo=0, hi=24, p=float(rng.uniform(0.1, 0.7)))
    ids = rng.choice(10_000, len(base.nodes), replace=False)
    labels = {v: int(x) for v, x in zip(sorted(base.nodes), ids)}
    return UGraph(labels.values(), [(labels[a], labels[b]) for a in base.adj for b in base.adj[a]])


def test_minfill_matches_reference_on_relabelled_random_graphs():
    for seed in range(240):
        rng = np.random.default_rng([313, seed])
        g = _relabelled_ugraph(seed, rng)
        nodes = sorted(g.nodes)
        kind = seed % 4
        if kind == 0:
            suffix = None
        elif kind == 1:
            suffix = set()
        elif kind == 2:
            suffix = set(nodes)
        else:
            suffix = {v for v in nodes if rng.random() < 0.4}
        _assert_matches_reference(g, suffix)


def test_minfill_matches_reference_on_width_table_graphs(monkeypatch):
    # The base, objective and twin moral graphs of every default cell.
    calls = _record_minfill_calls(monkeypatch, bench_module)
    run_width_table(default_bench_configs(7, trials=1))
    assert len(calls) == 3 * 15
    for g, suffix in calls:
        _assert_matches_reference(g, suffix)


def _query_closures():
    """(model, targets, closure) of the queries that default_order orders:
    unit selection on random SCMs, and SAT through Reverse-MAP. The closure
    is the ancestral closure of the targets and evidence."""
    closures = []
    for seed in range(12):
        rng = np.random.default_rng([29, seed])
        ur = (0.4, 1.0)[seed % 2]
        scm = gen_random_scm(GenConfig(node_count=10 + seed, seed=seed, unit_ratio=ur), rng=rng)
        units = _pick_units(scm.roots, ur, rng)
        endo = scm.endogenous()
        y = int(rng.choice([v for v in endo if not scm.children[v]]))
        x = int(rng.choice([v for v in endo if v != y]))
        om = _solve_model(
            scm, gen_benefit_objective(scm, x, y, (0.25, 0.25, 0.25, 0.25), units=units)
        )
        closures.append((om.model, om.unit_om_ids, [*om.unit_om_ids, *om.e1, *om.e2]))
    for seed in range(8):
        formula = parse_dimacs(random_cnf(seed, max_vars=10, ratio=(1.5, 4.3)[seed % 2]))
        scm, sentinel = compile_formula(formula)
        targets = [scm.by_name(name).id for name in formula.variables]
        closures.append((scm, targets, [*targets, sentinel]))
    return [
        (scm, frozenset(targets), ancestral_closure(scm, query))
        for scm, targets, query in closures
    ]


def test_minfill_matches_reference_on_query_closures():
    for scm, targets, closure in _query_closures():
        _assert_matches_reference(moral_subgraph(scm, closure), targets)


def _assert_mindegree_matches_reference(g, suffix):
    got = mindegree_order(g, constrained_suffix=suffix)
    want = reference_mindegree_order(g, suffix)
    assert got.sequence == want.sequence
    assert got.constrained_suffix == want.constrained_suffix


def test_mindegree_matches_reference_on_relabelled_random_graphs():
    for seed in range(240):
        rng = np.random.default_rng([317, seed])
        g = _relabelled_ugraph(seed, rng)
        suffix = (None, set(), set(g.nodes), {v for v in g.nodes if rng.random() < 0.4})[seed % 4]
        _assert_mindegree_matches_reference(g, suffix)


def test_mindegree_matches_reference_on_query_closures():
    # default_order is min-degree on the closure, with the targets last in
    # descending id order.
    for scm, targets, closure in _query_closures():
        g = moral_subgraph(scm, closure)
        _assert_mindegree_matches_reference(g, targets)
        want = reference_mindegree_order(g, targets).prefix + tuple(sorted(targets, reverse=True))
        assert default_order(scm, targets, closure).sequence == want


def test_mindegree_edge_cases():
    assert mindegree_order(UGraph()) == EliminationOrder(())
    assert mindegree_order(UGraph(), constrained_suffix=set()).constrained_suffix == frozenset()
    # A star: the leaves go smallest id first, until the hub ties the last.
    g = UGraph(nodes=[5, 2, 9, 4], edges=[(5, 2), (5, 9), (5, 4)])
    assert mindegree_order(g).sequence == (2, 4, 5, 9)
    order = mindegree_order(g, constrained_suffix=[2, 2])
    assert order.sequence == (4, 9, 5, 2) and order.constrained_suffix == frozenset({2})
    for outside in ([7], [2, 7]):
        with pytest.raises(ModelError):
            mindegree_order(g, constrained_suffix=outside)


def test_elimination_order_validation():
    with pytest.raises(ModelError):
        EliminationOrder((0, 1, 0))
    with pytest.raises(ModelError):
        EliminationOrder((0, 1, 2), frozenset({0}))  # 0 not at the tail
    order = EliminationOrder((1, 2, 0), frozenset({0}))
    assert order.prefix == (1, 2) and order.suffix == (0,)


# -- lifting ---------------------------------------------------------------------


def worked_example():
    scm = make_scm(
        [("A", ["0", "1"]), ("U", ["0", "1"]), ("X", ["0", "1"]), ("Y", ["0", "1"])],
        {"A": [], "U": [], "X": ["A"], "Y": ["X", "U"]},
        {"A": [.5, .5], "U": [.5, .5], "X": [1, 0, 0, 1], "Y": [1, 0, 0, 1, 0, 1, 1, 0]},
    )
    ids = {v.name: v.id for v in scm.variables}
    L = ObjectiveFunction(
        (ids["U"],),
        (
            ObjectiveTerm(0.5, x={ids["X"]: 0}, y={ids["Y"]: 0}, v={ids["X"]: 1}, w={ids["Y"]: 1}),
            ObjectiveTerm(0.5, x={ids["X"]: 0}, y={ids["Y"]: 0}, v={ids["X"]: 1}, w={ids["Y"]: 0}),
        ),
    )
    om = build_objective_model(scm, L, drop_worlds=False)
    base = EliminationOrder(
        (ids["A"], ids["X"], ids["Y"], ids["U"]), frozenset({ids["U"]})
    )
    return scm, om, base, ids


def test_lift_order_unconstrained_worked_sequence():
    scm, om, base, ids = worked_example()
    lifted = lift_order(base.sequence, om.duplicates(), om.h_id)
    names = [om.model.var(v).name for v in lifted.sequence]
    assert names == [
        "A^1", "A^2",
        "X^1", "X^2", "[X^1]", "[X^2]", "[[X^1]]", "[[X^2]]",
        "Y^1", "Y^2", "[Y^1]", "[Y^2]", "[[Y^1]]", "[[Y^2]]",
        "U", "H",
    ]


def test_lift_order_constrained_worked_sequence():
    scm, om, base, ids = worked_example()
    lifted = lift_order(base, om.duplicates(), om.h_id)
    names = [om.model.var(v).name for v in lifted.sequence]
    assert names[-2:] == ["H", "U"]
    assert names[:-2] == [
        "A^1", "A^2",
        "X^1", "X^2", "[X^1]", "[X^2]", "[[X^1]]", "[[X^2]]",
        "Y^1", "Y^2", "[Y^1]", "[Y^2]", "[[Y^1]]", "[[Y^2]]",
    ]
    assert lifted.constrained_suffix == frozenset({om.unit_om_ids[0]})


def test_lift_constrained_with_empty_units_matches_unconstrained():
    scm, om, base, ids = worked_example()
    unconstrained = EliminationOrder(base.sequence, None)
    a = lift_order(unconstrained, om.duplicates(), om.h_id)
    b = lift_order(EliminationOrder(base.sequence, frozenset()), om.duplicates(), om.h_id)
    assert a.sequence == b.sequence


def test_lift_requires_shared_unit_copies():
    scm, om, base, ids = worked_example()
    split = {**om.duplicates(), ids["U"]: (om.unit_om_ids[0], om.h_id)}
    with pytest.raises(ModelError, match="^unit variables must be shared in the lifted model$"):
        lift_order(base, split, om.h_id)


def test_lift_refuses_an_id_the_map_lacks():
    # Both forms once raised a raw KeyError: 5.
    missing = "^order variable 5 has no copies in the lifting map$"
    with pytest.raises(ModelError, match=missing):
        lift_order([0, 5], {0: (0,)})
    with pytest.raises(ModelError, match=missing):
        lift_order(EliminationOrder((0, 5), frozenset()), {0: (0,)})
    with pytest.raises(ModelError, match=missing):
        lift_order(EliminationOrder((0, 5), frozenset({5})), {0: (0,)})


def test_lift_lists_a_repeated_copy_once():
    # An n-world map repeats a shared variable's one copy n times.
    copies = {0: (0, 0, 0), 1: (1, 2, 3), 2: (4, 4, 4)}
    assert lift_order([0, 1, 2], copies, 9).sequence == (0, 1, 2, 3, 4, 9)
    order = EliminationOrder((1, 0, 2), frozenset({0, 2}))
    lifted = lift_order(order, copies)
    assert lifted.sequence == (1, 2, 3, 0, 4)
    assert lifted.constrained_suffix == frozenset({0, 4})


def test_lift_order_keeps_the_order_constraint():
    # H goes just before the constrained suffix, and last without one; the
    # lifted order is constrained exactly when the order is.
    copies = {0: (0,), 1: (1, 2), 2: (3,)}
    for order, sequence, constrained in (
        ([1, 0, 2], (1, 2, 0, 3, 9), None),
        (EliminationOrder((1, 0, 2)), (1, 2, 0, 3, 9), None),
        (EliminationOrder((1, 0, 2), frozenset()), (1, 2, 0, 3, 9), frozenset()),
        (EliminationOrder((1, 0, 2), frozenset({0, 2})), (1, 2, 9, 0, 3), frozenset({0, 3})),
    ):
        lifted = lift_order(order, copies, 9)
        assert (lifted.sequence, lifted.constrained_suffix) == (sequence, constrained)


# -- width properties --------------------------------------------------------------


@pytest.mark.parametrize("seed", range(50))
def test_nworld_constrained_lift_preserves_width_exactly(seed):
    rng = np.random.default_rng([555, seed])
    scm = random_dag_scm(seed, lo=5, hi=9)
    roots = scm.roots
    k = int(rng.integers(1, len(roots) + 1))
    units = tuple(sorted(int(v) for v in rng.choice(roots, size=k, replace=False)))
    n = int(rng.integers(1, 5))
    nw, wm = n_world_model(scm, units, n)
    g = moral_graph(scm)
    base = minfill_order(g, constrained_suffix=units)
    w = simulate_elimination(g, base).width
    lifted = lift_order(base, wm.copies)
    w_lift = simulate_elimination(moral_graph(nw), lifted).width
    assert w_lift == w


def _moral_with_added_root(scm, children):
    """Moral graph of the model obtained by adding a fresh root over
    ``children`` (computed directly on the graph)."""
    g = moral_graph(scm)
    h = max(g.nodes) + 1
    g.adj[h] = set()
    for z in children:
        g.add_edge(h, z)
        for p in scm.parents[z]:
            g.add_edge(h, p)
    return g, h


@pytest.mark.parametrize("seed", range(50))
def test_appended_root_width_bound(seed):
    rng = np.random.default_rng([556, seed])
    scm = random_dag_scm(seed + 50, lo=5, hi=10)
    nodes = [v.id for v in scm.variables]
    k = int(rng.integers(1, len(nodes) + 1))
    children = sorted(int(v) for v in rng.choice(nodes, size=k, replace=False))
    g = moral_graph(scm)
    base = minfill_order(g)
    w = simulate_elimination(g, base).width
    g2, h = _moral_with_added_root(scm, children)
    w2 = simulate_elimination(g2, EliminationOrder(base.sequence + (h,))).width
    assert w2 <= w + 1


@pytest.mark.parametrize("seed", range(50))
def test_inserted_root_constrained_width_bound(seed):
    rng = np.random.default_rng([557, seed])
    scm = random_dag_scm(seed + 150, lo=5, hi=10)
    roots = scm.roots
    k = int(rng.integers(1, len(roots) + 1))
    units = set(int(v) for v in rng.choice(roots, size=k, replace=False))
    candidates = [v.id for v in scm.variables if v.id not in units]
    kz = int(rng.integers(1, min(3, len(candidates)) + 1))
    children = sorted(int(v) for v in rng.choice(candidates, size=kz, replace=False))
    g = moral_graph(scm)
    base = minfill_order(g, constrained_suffix=units)
    w = simulate_elimination(g, base).width
    g2, h = _moral_with_added_root(scm, children)
    lifted = EliminationOrder(
        base.prefix + (h,) + base.suffix, frozenset(base.suffix)
    )
    w2 = simulate_elimination(g2, lifted).width
    assert w2 <= max(w + 1, len(units))
    if len(children) == 1:
        # single-child form: the |U| term drops out
        assert w2 <= w + 1


@pytest.mark.parametrize("seed", range(30))
def test_reduced_graph_adjacency_iff_avoiding_path(seed):
    rng = np.random.default_rng([558, seed])
    g = random_ugraph(seed, lo=5, hi=12)
    nodes = sorted(g.nodes)
    h = int(rng.choice(nodes))
    others = [v for v in nodes if v != h]
    k = int(rng.integers(1, len(others) + 1))
    units = set(int(v) for v in rng.choice(others, size=k, replace=False))
    reduced = neighbor_sets(g)
    for v in nodes:
        if v != h and v not in units:
            eliminate_node(reduced, v)

    def path_avoiding(x):
        allowed = (set(nodes) - units) | {x, h}
        seen, stack = {x}, [x]
        while stack:
            a = stack.pop()
            if a == h:
                return True
            for b in g.adj[a]:
                if b in allowed and b not in seen:
                    seen.add(b)
                    stack.append(b)
        return False

    for x in units:
        assert (h in reduced[x]) == path_avoiding(x)


@pytest.mark.parametrize("seed", range(20))
def test_width_invariant_under_relabeling(seed):
    rng = np.random.default_rng([559, seed])
    g = random_ugraph(seed + 40, lo=5, hi=10)
    nodes = sorted(g.nodes)
    perm = list(nodes)
    rng.shuffle(perm)
    relabel = dict(zip(nodes, perm))
    g2 = UGraph(nodes=perm)
    for a in nodes:
        for b in g.adj[a]:
            g2.add_edge(relabel[a], relabel[b])
    order = list(nodes)
    rng.shuffle(order)
    w1 = simulate_elimination(g, order).width
    w2 = simulate_elimination(g2, [relabel[v] for v in order]).width
    assert w1 == w2


def test_exact_dp_matches_enumeration():
    # 300 graphs of 2-8 nodes, every odd one constrained on a random subset
    # (empty and whole included): the same width and the same order, the
    # lexicographically first of that width.
    for seed in range(300):
        g = random_ugraph(seed, lo=2, hi=8)
        suffix = None
        if seed % 2:
            nodes = sorted(g.nodes)
            rng = np.random.default_rng([560, seed])
            k = int(rng.integers(0, len(nodes) + 1))
            suffix = {int(v) for v in rng.choice(nodes, size=k, replace=False)}
        w_enum, o_enum = treewidth_by_enumeration(g, constrained_suffix=suffix)
        width, order = treewidth_exact(g, constrained_suffix=suffix)
        assert (width, order.sequence, order.constrained_suffix) == (
            w_enum, o_enum.sequence, o_enum.constrained_suffix
        ), seed
        assert order_width(g, order) == width


def test_exact_dp_refuses_a_constrained_node_not_in_the_graph():
    # It once raised a raw KeyError.
    g = random_ugraph(3, lo=4, hi=4)
    with pytest.raises(ModelError, match="not in the graph"):
        treewidth_exact(g, {99})


def test_exact_dp_refuses_a_phase_over_the_limit():
    limit = elimination_module.EXACT_MAX_FREE
    g = UGraph(range(limit + 1))
    for suffix in (None, g.nodes):
        with pytest.raises(ModelError, match=f"^exact oracle limited to {limit} nodes per phase$"):
            treewidth_exact(g, suffix)


def test_enumeration_guard():
    g = random_ugraph(1, lo=12, hi=12)
    with pytest.raises(ModelError):
        treewidth_by_enumeration(g)


# -- structural predicates -----------------------------------------------------------


def test_is_external_markovian_true():
    scm = make_scm(
        [("R1", ["0", "1"]), ("R2", ["0", "1"]), ("R3", ["0", "1"]),
         ("X1", ["0", "1"]), ("X2", ["0", "1"]), ("X3", ["0", "1"])],
        {"R1": [], "R2": [], "R3": [],
         "X1": ["R1"], "X2": ["X1", "R2"], "X3": ["X2", "R3"]},
        {"R1": [.5, .5], "R2": [.5, .5], "R3": [.5, .5],
         "X1": [1, 0, 0, 1], "X2": [1, 0, 0, 1, 0, 1, 1, 0],
         "X3": [1, 0, 0, 1, 0, 1, 1, 0]},
    )
    assert is_external(scm, scm.roots)


def test_is_external_cut_roots_false():
    # X2's only link to the rest goes through root R: removing R disconnects.
    scm = make_scm(
        [("R", ["0", "1"]), ("X1", ["0", "1"]), ("X2", ["0", "1"])],
        {"R": [], "X1": ["R"], "X2": ["R"]},
        {"R": [.5, .5], "X1": [1, 0, 0, 1], "X2": [1, 0, 0, 1]},
    )
    assert not is_external(scm, (0,))


def test_is_external_tight_family_false():
    for n in (3, 5, 8):
        scm, units, _ = gen_tight_family(n)
        assert moral_graph(scm).connected()
        assert not is_external(scm, units)


@pytest.mark.parametrize("seed", range(30))
def test_is_external_matches_the_dag_skeleton(seed):
    # The moral graph's marriage edges join parents of a common child, which
    # is never a unit, so removing the units leaves the same connected parts
    # as in the DAG's own undirected edges.
    rng = np.random.default_rng([563, seed])
    scm = random_dag_scm(seed, lo=4, hi=10)
    roots = scm.roots
    k = int(rng.integers(1, len(roots) + 1))
    units = set(int(v) for v in rng.choice(roots, size=k, replace=False))
    dag = UGraph(
        (v for v in range(scm.n) if v not in units),
        ((p, v) for v in range(scm.n) for p in scm.parents[v] if p not in units),
    )
    assert is_external(scm, units) == dag.connected()


@pytest.mark.parametrize("unit", [99, -1, True, 0.0])
def test_is_external_refuses_unknown_unit_ids(unit):
    # 99 and -1 once raised a raw KeyError; True was read as id 1 and 0.0 as
    # id 0.
    scm = make_scm(
        [("A", ["0", "1"]), ("B", ["0", "1"]), ("C", ["0", "1"])],
        {"A": [], "B": [], "C": ["A", "B"]},
        {"A": [.5, .5], "B": [.5, .5], "C": [1, 0, 0, 1, 0, 1, 0, 1]},
    )
    with pytest.raises(ModelError, match=f"^unknown unit variable id {unit}$"):
        is_external(scm, [unit])


def test_is_external_requires_connected_and_roots():
    scm = make_scm(
        [("A", ["0", "1"]), ("B", ["0", "1"])],
        {"A": [], "B": []},
        {"A": [.5, .5], "B": [.5, .5]},
    )
    with pytest.raises(ModelError):
        is_external(scm, (0,))
    chain = make_scm(
        [("A", ["0", "1"]), ("B", ["0", "1"])],
        {"A": [], "B": ["A"]},
        {"A": [.5, .5], "B": [1, 0, 0, 1]},
    )
    with pytest.raises(ModelError):
        is_external(chain, (1,))


def test_tight_family_order_width(five_node):
    for n in range(3, 9):
        scm, units, _ = gen_tight_family(n)
        g = moral_graph(scm)
        assert simulate_elimination(g, tight_family_order(scm, n)).width == 3
