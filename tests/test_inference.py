"""Elimination engines: trace fidelity, oracle agreement, invariants."""

import itertools
import math
import time

import numpy as np
import pytest

from unitsel import (
    EliminationOrder,
    InconsistentEvidenceError,
    ModelError,
    ObjectiveFunction,
    ObjectiveTerm,
    Scm,
    brute_map,
    brute_rmap,
    joint_prob,
    load_model,
    make_scm,
    map_ve,
    posterior,
    query_prob,
    rmap_table,
    rmap_ve,
    unit_select,
)
from unitsel import fixture_path, inference, parse_dimacs
from unitsel.inference import (
    TaggedFactor,
    _paired_division,
    cpt_pool,
    eliminate,
    format_trace,
    joint_mass,
    lambda_pool,
)
from unitsel.bench import GenConfig, _pick_units, gen_benefit_objective, gen_random_scm
from unitsel.factor import Factor, FactorError, max_axis, multiply_all, sum_axis
from unitsel.elimination import ancestral_closure, minfill_order, moral_graph
from unitsel.objective import _solve_model, build_objective_model, evaluate_L_brute
from unitsel.reductions import compile_formula, sat_via_rmap
from unitsel.worlds import enumerate_instantiations
from corpus import (exact_L_profile, forward_eval, random_cnf, random_instance, reference_eliminate,
                    separated_maximiser, small_scm)


@pytest.fixture(scope="module")
def two_node():
    with open(fixture_path("two_node.json"), "rb") as fh:
        return load_model(fh.read(), allow_nonfunctional=True)


@pytest.fixture(scope="module")
def five_node():
    with open(fixture_path("five_node.json"), "rb") as fh:
        return load_model(fh.read())


def test_eliminate_empty_order(two_node):
    pool = cpt_pool(two_node, range(two_node.n))
    out, steps = eliminate("sum", pool, (), two_node)
    assert out == pool and steps == []


def test_eliminate_unmentioned_variable_keeps_integer_count(two_node):
    # The implicit all-ones factor is integer, so counts stay exact.
    trace = []
    out, _ = eliminate("sum", [], (0, 1), trace=trace, scm=two_node)
    assert [tf.factor.values.dtype for tf in out] == [np.int64, np.int64]
    assert [tf.factor.values.item() for tf in out] == [2, 2]
    assert [s.used for s in trace] == [("1_0(U)",), ("1_1(V)",)]


def test_eliminate_trace_reproduces_worked_table(five_node):
    ids = {v.name: v.id for v in five_node.variables}
    order = EliminationOrder(
        tuple(ids[n] for n in "EDCBA"), frozenset({ids["A"], ids["B"]})
    )
    result = map_ve(
        five_node, [ids["A"], ids["B"]], {ids["E"]: 0}, order=order, want_trace=True
    )
    clusters = ["".join(sorted(five_node.var(v).name for v in s.cluster))
                for s in result.trace]
    assert clusters == ["CE", "BCD", "ABC", "AB", "A"]
    created = [s.created for s in result.trace]
    assert created == ["f1(C)", "f2(BC)", "f3(AB)", "f4(A)", "f5()"]
    text = format_trace(result.trace, five_node)
    assert "lambda_E" in text and "BCD" in text


def test_product_of_pool_is_evidence_marginal(five_node):
    ids = {v.name: v.id for v in five_node.variables}
    targets = {ids["A"], ids["B"]}
    evidence = {ids["E"]: 0}
    order = EliminationOrder(
        tuple(ids[n] for n in "EDCBA"), frozenset(targets)
    )
    pool = cpt_pool(five_node, range(five_node.n)) + lambda_pool(five_node, evidence)
    pool, _ = eliminate("sum", pool, order.prefix, five_node)
    from unitsel.factor import multiply_all

    marginal = multiply_all(tf.factor for tf in pool)
    for a, b in itertools.product(range(2), range(2)):
        full = {ids["A"]: a, ids["B"]: b}
        expected = sum(
            joint_prob(five_node, {**full, **dict(zip(sorted(set(ids.values()) - targets), states))})
            for states in itertools.product(range(2), repeat=3)
            if dict(zip(sorted(set(ids.values()) - targets), states))[ids["E"]] == 0
        )
        assert math.isclose(marginal[full], expected, rel_tol=1e-12, abs_tol=1e-15)


def _random_pool(rng, scm, dtype):
    """Factors over random subsets of the model's variables, some repeated
    scopes and scalars among them, tagged in pool order."""
    pool = []
    for j in range(int(rng.integers(0, 12))):
        k = int(rng.integers(0, min(3, scm.n) + 1))
        vids = tuple(sorted(int(v) for v in rng.choice(scm.n, size=k, replace=False)))
        cards = tuple(scm.var(v).cardinality for v in vids)
        values = rng.integers(0, 4, size=cards)
        if dtype == "float":
            values = np.asarray(values * rng.random(cards))
        pool.append(TaggedFactor(("cpt", j % scm.n), Factor._trusted(vids, cards, values)))
    return pool


@pytest.mark.parametrize("seed", range(40))
def test_bucket_eliminate_matches_pool_scan(seed):
    # Survivors with their tags, tables and order, traces and maximizer
    # tables are those of the pool-scan loop, on random pools and orders that
    # may skip or repeat a variable, or name one no factor mentions.
    rng = np.random.default_rng([95, seed])
    n = int(rng.integers(1, 9))
    cards = [int(c) for c in rng.integers(1, 4, size=n)]
    scm = make_scm(
        [(f"V{i}", [str(s) for s in range(c)]) for i, c in enumerate(cards)],
        {f"V{i}": [] for i in range(n)},
        {f"V{i}": np.full(c, 1.0 / c) for i, c in enumerate(cards)},
    )
    for op, dtype in itertools.product(("sum", "max"), ("float", "int")):
        pool = _random_pool(rng, scm, dtype)
        order = [int(v) for v in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)]
        if order and rng.random() < 0.2:
            order.append(order[0])
        step_base = int(rng.integers(0, 3))
        got_trace, want_trace = [], []
        got = eliminate(op, pool, order, scm, step_base, got_trace)
        want = reference_eliminate(op, pool, order, scm, step_base, want_trace)
        assert [tf.tag for tf in got[0]] == [tf.tag for tf in want[0]]
        for g, w in zip(got[0], want[0]):
            assert (g.factor.vids, g.factor.cards, g.factor.values.tolist()) == (
                w.factor.vids, w.factor.cards, w.factor.values.tolist())
            assert g.factor.values.dtype == w.factor.values.dtype
        assert got_trace == want_trace
        assert len(got[1]) == len(want[1])
        for g, w in zip(got[1], want[1]):
            assert (g.kept_vids, g.vid) == (w.kept_vids, w.vid)
            assert np.array_equal(g.argmax, w.argmax)


@pytest.mark.parametrize("seed", range(10))
def test_bucket_eliminate_matches_pool_scan_on_query_passes(seed):
    scm = small_scm(seed + 1000)
    rng = np.random.default_rng([96, seed])
    vids = [v.id for v in scm.variables]
    rng.shuffle(vids)
    targets = sorted(vids[:2])
    evidence = {vids[2]: int(rng.integers(0, 2))}
    order = minfill_order(moral_graph(scm), constrained_suffix=set(targets))
    pool = cpt_pool(scm, range(scm.n)) + lambda_pool(scm, evidence)
    got_trace, want_trace = [], []
    got, _ = eliminate("sum", pool, order.prefix, scm, trace=got_trace)
    want, _ = reference_eliminate("sum", pool, order.prefix, scm, trace=want_trace)
    assert got_trace == want_trace
    assert [tf.tag for tf in got] == [tf.tag for tf in want]
    for g, w in zip(got, want):
        assert (g.factor.vids, g.factor.cards, g.factor.values.tolist()) == (
            w.factor.vids, w.factor.cards, w.factor.values.tolist())
    got_max = eliminate("max", got, order.suffix, scm, len(order.prefix))
    want_max = reference_eliminate("max", want, order.suffix, scm, len(order.prefix))
    assert [tf.factor.values.item() for tf in got_max[0]] == [
        tf.factor.values.item() for tf in want_max[0]
    ]
    for g, w in zip(got_max[1], want_max[1]):
        assert np.array_equal(g.argmax, w.argmax)


def _label_scope_size(label: str) -> int:
    """The number of variables in a traced factor label such as
    ``f_V1(V1,V2)`` (the names in these tests are longer than one letter)."""
    names = label[label.index("(") + 1:-1]
    return len(names.split(",")) if names else 0


def _count_einsum(monkeypatch) -> list:
    calls = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *a, **k: calls.append(1) or einsum(*a, **k))
    return calls


def _flat_scm(cards):
    """A model of independent variables V0, V1, ... that names the factors of
    a hand-built pool and gives the cardinalities."""
    return make_scm(
        [(f"V{i}", [str(s) for s in range(c)]) for i, c in enumerate(cards)],
        {f"V{i}": [] for i in range(len(cards))},
        {f"V{i}": np.full(c, 1.0 / c) for i, c in enumerate(cards)},
    )


def _fused_case(seed):
    """A 14-variable model, 12 random scopes of 4-6 variables and an order
    of 12 variables: large enough for clusters of 2,048 cells and more."""
    rng = np.random.default_rng([99, seed])
    n = 14
    cards = [3 if i == 0 else 2 for i in range(n)]
    scopes = [
        tuple(sorted(int(v) for v in rng.choice(n, size=int(rng.integers(4, 7)), replace=False)))
        for _ in range(12)
    ]
    order = [int(v) for v in rng.permutation(n)[:-2]]
    return rng, cards, _flat_scm(cards), scopes, order


def _large_steps(trace, cards):
    """The traced steps over two or more factors whose cluster has at least
    _FUSED_MIN_CELLS cells, and those of them that one factor spans."""
    large = [
        step for step in trace
        if len(step.used) >= 2
        and math.prod(cards[v] for v in step.cluster) >= inference._FUSED_MIN_CELLS
    ]
    spanned = [
        step for step in large
        if any(_label_scope_size(label) == len(step.cluster) for label in step.used)
    ]
    return large, spanned


@pytest.mark.parametrize("seed", range(8))
def test_fused_sum_steps_match_row_kernels(monkeypatch, seed):
    # A float sum step contracts its last factor with einsum exactly when it
    # has two or more factors, a cluster of at least _FUSED_MIN_CELLS cells
    # and no factor that spans the cluster; tags, scopes, trace rows and
    # survivor order are those of the multiply-then-sum loop and the tables
    # agree to 1e-12. An int64 or object count pass over the same clusters
    # never fuses and stays integer and exact.
    rng, cards, scm, scopes, order = _fused_case(seed)
    fused = _count_einsum(monkeypatch)
    for dtype in (np.float64, np.int64, object):
        pool = []
        for j, vids in enumerate(scopes):
            shape = tuple(cards[v] for v in vids)
            values = rng.random(shape) if dtype is np.float64 else rng.integers(0, 4, shape)
            pool.append(TaggedFactor(("cpt", j), Factor._trusted(vids, shape, values.astype(dtype))))
        fused.clear()
        got_trace, want_trace = [], []
        got, _ = eliminate("sum", pool, order, scm, trace=got_trace)
        want, _ = reference_eliminate("sum", pool, order, scm, trace=want_trace)
        assert got_trace == want_trace
        assert [tf.tag for tf in got] == [tf.tag for tf in want]
        for g, w in zip(got, want):
            assert (g.factor.vids, g.factor.cards) == (w.factor.vids, w.factor.cards)
            assert g.factor.values.dtype == w.factor.values.dtype == np.dtype(dtype)
            if dtype is np.float64:
                assert np.allclose(g.factor.values, w.factor.values, rtol=1e-12, atol=0.0)
            else:
                assert np.array_equal(g.factor.values, w.factor.values)
        large, spanned = _large_steps(got_trace, cards)
        assert len(large) > len(spanned)
        assert len(fused) == (len(large) - len(spanned) if dtype is np.float64 else 0)


def test_fused_cases_hold_large_steps_that_a_factor_spans():
    # The cases above exercise both sides of the gate: steps that contract,
    # and large steps that one factor spans, which must not.
    spanned = 0
    for seed in range(8):
        _, cards, scm, scopes, order = _fused_case(seed)
        pool = [
            TaggedFactor(("cpt", j), Factor._trusted(vids, shape, np.ones(shape)))
            for j, vids in enumerate(scopes)
            for shape in [tuple(cards[v] for v in vids)]
        ]
        trace = []
        eliminate("sum", pool, order, scm, trace=trace)
        spanned += len(_large_steps(trace, cards)[1])
    assert spanned > 0


def test_sum_step_that_a_factor_spans_multiplies_then_sums(monkeypatch):
    # A factor over the whole 4,096-cell cluster makes its product no larger
    # than itself, so the step skips einsum and gives the bits of the
    # multiply-then-sum loop.
    rng = np.random.default_rng(98)
    cards = [2] * 12
    scm = _flat_scm(cards)
    fused = _count_einsum(monkeypatch)
    pool = [
        TaggedFactor(("cpt", 0), Factor._trusted((1, 4, 7), (2, 2, 2), rng.random((2, 2, 2)))),
        TaggedFactor(("cpt", 1), Factor._trusted(tuple(range(12)), (2,) * 12, rng.random((2,) * 12))),
        TaggedFactor(("cpt", 2), Factor._trusted((4, 11), (2, 2), rng.random((2, 2)))),
    ]
    for order in ([4], [4, 0, 11]):
        got, _ = eliminate("sum", pool, order, scm)
        want, _ = reference_eliminate("sum", pool, order, scm)
        assert [tf.tag for tf in got] == [tf.tag for tf in want]
        for g, w in zip(got, want):
            assert (g.factor.vids, g.factor.cards, g.factor.values.tolist()) == (
                w.factor.vids, w.factor.cards, w.factor.values.tolist())
    assert fused == []


def _small_integer_pool(rng, cards, dtype, size=8):
    """Factors over 1-4 random variables with entries 0-2 (ties are common),
    as float64, int64 or Python integers beyond 2^63."""
    pool = []
    for j in range(size):
        k = int(rng.integers(1, 5))
        vids = tuple(sorted(int(v) for v in rng.choice(len(cards), size=k, replace=False)))
        shape = tuple(cards[v] for v in vids)
        values = rng.integers(0, 3, size=shape)
        if dtype is object:
            values = np.vectorize(lambda x: 2**70 * x, otypes=[object])(values)
        pool.append(TaggedFactor(("cpt", j), Factor._trusted(vids, shape, values.astype(dtype))))
    return pool


@pytest.mark.parametrize("seed", range(20))
def test_max_and_integer_passes_match_pool_scan_exactly(seed):
    # Max steps on tie-heavy float tables keep the first maximizing state, as
    # the pool-scan loop does; int64 and object sum passes stay exact.
    rng = np.random.default_rng([97, seed])
    cards = [int(c) for c in rng.integers(1, 4, size=9)]
    scm = _flat_scm(cards)
    order = [int(v) for v in rng.permutation(len(cards))]
    pool = _small_integer_pool(rng, cards, np.float64)
    got, got_tables = eliminate("max", pool, order, scm)
    want, want_tables = reference_eliminate("max", pool, order, scm)
    assert [tf.tag for tf in got] == [tf.tag for tf in want]
    for g, w in zip(got, want):
        assert (g.factor.vids, g.factor.cards, g.factor.values.tolist()) == (
            w.factor.vids, w.factor.cards, w.factor.values.tolist())
    assert len(got_tables) == len(want_tables) == len(order)
    for g, w in zip(got_tables, want_tables):
        assert (g.kept_vids, g.vid) == (w.kept_vids, w.vid)
        assert g.argmax.dtype == w.argmax.dtype and np.array_equal(g.argmax, w.argmax)
    for dtype in (np.int64, object):
        pool = _small_integer_pool(rng, cards, dtype)
        got, _ = eliminate("sum", pool, order, scm)
        want, _ = reference_eliminate("sum", pool, order, scm)
        assert [tf.tag for tf in got] == [tf.tag for tf in want]
        for g, w in zip(got, want):
            assert g.factor.values.dtype == w.factor.values.dtype
            assert (g.factor.vids, g.factor.cards, g.factor.values.tolist()) == (
                w.factor.vids, w.factor.cards, w.factor.values.tolist())


def test_factor_reductions_and_elimination_steps_share_one_kernel():
    # A sum or max step reduces the product of its factors with sum_axis or
    # max_axis, so its tables match those kernels bit for bit (random
    # floats, where another summation order would show).
    rng = np.random.default_rng(96)
    cards = [2, 3, 2, 4, 2]
    scm = _flat_scm(cards)
    scopes = [(0, 2, 3), (1, 2), (2,), (2, 3, 4)]
    factors = [Factor._trusted(v, tuple(cards[i] for i in v), rng.random([cards[i] for i in v]))
               for v in scopes]
    pool = [TaggedFactor(("cpt", j), f) for j, f in enumerate(factors)]
    joint = multiply_all(factors)
    [(_, summed)], _ = eliminate("sum", pool, [2], scm)
    assert summed.vids == (0, 1, 3, 4)
    assert np.array_equal(summed.values, sum_axis(joint.values, 2))
    [(_, best)], [table] = eliminate("max", pool, [2], scm)
    want_best, want_arg = max_axis(joint.values, 2)
    assert best.vids == table.kept_vids == (0, 1, 3, 4) and table.vid == 2
    assert np.array_equal(best.values, want_best)
    assert np.array_equal(table.argmax, want_arg)


def test_map_two_node(two_node):
    result = map_ve(two_node, [0], {1: 0})
    assert result.instantiation == {0: 1}  # u2
    assert abs(result.value - 0.24) < 1e-12


def test_rmap_two_node(two_node):
    result = rmap_ve(two_node, [0], {1: 0}, {})
    assert result.instantiation == {0: 0}  # u1
    assert abs(result.value - 0.6) < 1e-12
    assert result.excluded == 0


def test_map_inconsistent_evidence_gives_zero(two_node):
    scm = make_scm(
        [("U", ["0", "1"]), ("X", ["0", "1"])],
        {"U": [], "X": ["U"]},
        {"U": [1.0, 0.0], "X": [1, 0, 1, 0]},
    )
    result = map_ve(scm, [0], {1: 1})
    assert result.value == 0.0
    assert result.instantiation == {0: 0}  # tie-break default
    # X = U0 xor U1 and Pr(Y=1) = 0: every unit ties at zero, and the tie
    # goes to the all-zero unit, as in brute_map.
    xor = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], dtype=float)
    two_units = make_scm(
        [("U0", "01"), ("U1", "01"), ("X", "01"), ("Y", "01")],
        {"U0": [], "U1": [], "X": ["U0", "U1"], "Y": []},
        {"U0": [0.5, 0.5], "U1": [0.5, 0.5], "X": xor, "Y": [1.0, 0.0]},
    )
    brute = brute_map(two_units, [0, 1], {2: 1, 3: 1})
    # An ascending caller block is maximized out in descending id all the same.
    for order in (None, EliminationOrder((3, 2, 0, 1), frozenset({0, 1}))):
        result = map_ve(two_units, [0, 1], {2: 1, 3: 1}, order=order, want_trace=True)
        assert (result.value, result.instantiation) == (0.0, {0: 0, 1: 0})
        assert (result.value, result.instantiation) == (brute.value, brute.instantiation)
        assert [step.var for step in result.trace[-2:]] == [1, 0]


def test_rmap_empty_e1_value_one(two_node):
    result = rmap_ve(two_node, [0], {}, {1: 0})
    assert math.isclose(result.value, 1.0, rel_tol=1e-12)
    assert result.instantiation == {0: 0}


def test_rmap_all_units_excluded_raises():
    scm = make_scm(
        [("U", ["0", "1"]), ("X", ["0", "1"])],
        {"U": [], "X": ["U"]},
        {"U": [0.5, 0.5], "X": [1, 0, 1, 0]},  # X == 0 always
        )
    with pytest.raises(InconsistentEvidenceError):
        rmap_ve(scm, [0], {}, {1: 1})
    with pytest.raises(InconsistentEvidenceError):
        brute_rmap(scm, [0], {}, {1: 1})


def test_rmap_excluded_units_counted():
    scm = make_scm(
        [("U", ["0", "1"]), ("X", ["0", "1"])],
        {"U": [], "X": ["U"]},
        {"U": [0.5, 0.5], "X": [1, 0, 0, 1]},  # X == U
    )
    res = rmap_ve(scm, [0], {}, {1: 1})
    assert res.excluded == 1 and res.instantiation == {0: 1}
    assert brute_rmap(scm, [0], {}, {1: 1}).excluded == 1


def test_rmap_zero_optimum_takes_smallest_consistent_unit():
    # Pr(Y=1) = 0 makes every value 0; the tie goes to the lexicographically
    # smallest unit that is not excluded, whatever the order's suffix.
    xor = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], dtype=float)
    identity = make_scm(
        [("U", "01"), ("X", "01"), ("Y", "01")],
        {"U": [], "X": ["U"], "Y": []},
        {"U": [0.5, 0.5], "X": [1, 0, 0, 1], "Y": [1.0, 0.0]},  # X == U
    )
    two_units = make_scm(
        [("U0", "01"), ("U1", "01"), ("X", "01"), ("Y", "01")],
        {"U0": [], "U1": [], "X": ["U0", "U1"], "Y": []},
        {"U0": [0.5, 0.5], "U1": [0.5, 0.5], "X": xor, "Y": [1.0, 0.0]},
    )
    ascending = EliminationOrder((3, 2, 0, 1), frozenset({0, 1}))
    cases = [
        # U=0 is the smallest unit but contradicts X=1.
        (identity, [0], {2: 1}, {1: 1}, None, {0: 1}, 1),
        # No unit is excluded, yet the quotient max pass alone ties to (0, 1).
        (two_units, [0, 1], {2: 1, 3: 1}, {}, None, {0: 0, 1: 0}, 0),
        # X = U0 xor U1 = 1 excludes (0, 0) and (1, 1); the order's suffix
        # alone would pick (1, 0).
        (two_units, [0, 1], {3: 1}, {2: 1}, ascending, {0: 0, 1: 1}, 2),
    ]
    for scm, targets, e1, e2, order, unit, excluded in cases:
        res = rmap_ve(scm, targets, e1, e2, order=order, want_trace=True)
        brute = brute_rmap(scm, targets, e1, e2)
        assert (res.value, res.instantiation, res.excluded) == (0.0, unit, excluded)
        assert (res.value, res.instantiation, res.excluded) == (
            brute.value, brute.instantiation, brute.excluded,
        )
        # The max steps run over the targets in descending id.
        assert [step.var for step in res.trace[-len(targets):]] == sorted(targets, reverse=True)


def test_caller_orders_break_ties_as_the_default_order():
    # Y = A xor B over uniform roots: (0, 1) and (1, 0) tie. A caller block
    # listed as A, B once recovered (1, 0) in map_ve, rmap_ve and unit_select.
    xor = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], dtype=float)
    scm = make_scm(
        [("A", "01"), ("B", "01"), ("Y", "01")],
        {"A": [], "B": [], "Y": ["A", "B"]},
        {"A": [0.5, 0.5], "B": [0.5, 0.5], "Y": xor},
    )
    objective = ObjectiveFunction((0, 1), (ObjectiveTerm(1.0, y={2: 1}),))
    om = build_objective_model(scm, objective)
    assert om.unit_om_ids == (0, 1) and len(om.model.variables) == 4
    want = {0: 0, 1: 1}
    assert brute_map(scm, [0, 1], {2: 1}).instantiation == want
    assert brute_rmap(scm, [0, 1], {2: 1}, {}).instantiation == want
    assert unit_select(scm, objective, method="brute").instantiation == want
    for block in (None, (0, 1), (1, 0)):
        order = None if block is None else EliminationOrder((2, *block), frozenset(block))
        om_order = None if block is None else EliminationOrder((2, 3, *block), frozenset(block))
        assert map_ve(scm, [0, 1], {2: 1}, order=order).instantiation == want, block
        assert rmap_ve(scm, [0, 1], {2: 1}, {}, order=order).instantiation == want, block
        assert unit_select(scm, objective, order=om_order).instantiation == want, block


def test_caller_order_constrained_on_other_variables_is_refused():
    # Y = A xor B. An order whose constrained suffix is not the target set
    # was once solved as if it named the targets; brute orders nothing and
    # once ignored its order.
    xor = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], dtype=float)
    scm = make_scm(
        [("A", "01"), ("B", "01"), ("Y", "01")],
        {"A": [], "B": [], "Y": ["A", "B"]},
        {"A": [0.5, 0.5], "B": [0.5, 0.5], "Y": xor},
    )
    for suffix in ({1}, {0, 1}, set()):
        order = EliminationOrder((2, 0, 1), frozenset(suffix))
        for targets in ([0, 1], [1]):
            if set(targets) == suffix:
                continue
            with pytest.raises(ModelError, match="constrained on variables other than the targets"):
                map_ve(scm, targets, {2: 1}, order=order)
            with pytest.raises(ModelError, match="constrained on variables other than the targets"):
                rmap_ve(scm, targets, {2: 1}, {}, order=order)
    objective = ObjectiveFunction((0, 1), (ObjectiveTerm(1.0, y={2: 1}),))
    om_order = EliminationOrder((2, 3, 1, 0), frozenset({0}))
    with pytest.raises(ModelError, match="constrained on variables other than the targets"):
        unit_select(scm, objective, order=om_order)
    with pytest.raises(ModelError, match="applies to method 've' only"):
        unit_select(scm, objective, method="brute", order=om_order)


def _disjoint_units(k: int, card: int):
    """U_i -> X_i with X_i = U_i for i < k, and Y = X_0: width 2 for any k."""
    states = [str(s) for s in range(card)]
    names = [f"U{i}" for i in range(k)] + [f"X{i}" for i in range(k)] + ["Y"]
    parents = {**{f"U{i}": [] for i in range(k)}, **{f"X{i}": [f"U{i}"] for i in range(k)}}
    tables = {**{f"U{i}": np.full(card, 1.0 / card) for i in range(k)},
              **{f"X{i}": np.eye(card) for i in range(k)}, "Y": np.eye(card)}
    return make_scm([(n, states) for n in names], {**parents, "Y": ["X0"]}, tables)


@pytest.mark.parametrize("k, card, pinned", [(26, 2, 0), (39, 3, 3), (40, 3, 3)])
def test_rmap_disjoint_units_at_width_cost(k, card, pinned):
    # The grid has card**k units: 2**26 cells would be a 512 MiB table, and
    # 3**39 and 3**40 excluded counts are exact neither in float64 nor (the
    # second) in int64.
    scm = _disjoint_units(k, card)
    e2 = {k + i: 1 for i in range(1, pinned + 1)}
    start = time.perf_counter()
    res = rmap_ve(scm, range(k), {2 * k: 1}, e2)
    elapsed = time.perf_counter() - start
    assert res.excluded == card**k - card ** (k - pinned)
    assert res.value == 1.0
    assert res.instantiation == {i: int(i <= pinned) for i in range(k)}
    assert elapsed < 1.0


def test_rmap_requires_disjoint_sets(two_node):
    # Every entry point refuses a target inside the evidence and, for the
    # Reverse-MAP ones, overlapping e1 and e2 (which would drop e1).
    for rmap in (rmap_ve, rmap_table, brute_rmap):
        with pytest.raises(ModelError):
            rmap(two_node, [0], {0: 0}, {})
        with pytest.raises(ModelError):
            rmap(two_node, [0], {1: 0}, {1: 1})
        with pytest.raises(ModelError):
            rmap(two_node, [0], {1: 1}, {1: 0})
    for query in (map_ve, brute_map, posterior):
        with pytest.raises(ModelError):
            query(two_node, [0], {0: 1})


def test_queries_refuse_unknown_ids(two_node):
    # These once raised a raw KeyError from the ancestral closure.
    unknown = "unknown variable ids"
    for rmap in (rmap_ve, rmap_table, brute_rmap):
        with pytest.raises(ModelError, match=unknown):
            rmap(two_node, [0], {99: 0}, {})
        with pytest.raises(ModelError, match=unknown):
            rmap(two_node, [-1], {1: 0}, {})
        with pytest.raises(ModelError, match=unknown):
            rmap(two_node, [0], {}, {2: 0})
    for query in (map_ve, brute_map, posterior):
        with pytest.raises(ModelError, match=unknown):
            query(two_node, [7], {})
        with pytest.raises(ModelError, match=unknown):
            query(two_node, [0], {5: 1})
    with pytest.raises(ModelError, match=unknown):
        joint_mass(two_node, {0: 0, 2: 1})


def test_queries_refuse_non_integer_ids(two_node):
    # A float id equal to a model id once raised a raw TypeError from
    # Scm.var, and posterior read the evidence id True as variable 1.
    for rmap in (rmap_ve, rmap_table, brute_rmap):
        with pytest.raises(ModelError, match=r"unknown variable ids \[0\.0\]"):
            rmap(two_node, [0.0], {1: 0}, {})
        with pytest.raises(ModelError, match=r"unknown variable ids \[1\.0\]"):
            rmap(two_node, [0], {}, {1.0: 0})
    for query in (map_ve, brute_map, posterior):
        with pytest.raises(ModelError, match=r"unknown variable ids \[1\.0\]"):
            query(two_node, [0], {1.0: 0})
        with pytest.raises(ModelError, match=r"unknown variable ids \[True\]"):
            query(two_node, [0], {True: 0})
    # numpy integers are ids.
    assert map_ve(two_node, [np.int64(0)], {np.int64(1): 0}).value == map_ve(
        two_node, [0], {1: 0}
    ).value


def test_queries_refuse_out_of_range_evidence_states(two_node):
    # These once raised a raw IndexError (1.5) or FactorError (5, -1) from
    # the evidence indicator, and a bool state matched every state.
    for state in (5, -1, 1.5, True):
        message = f"state {state} out of range for 'V'"
        for rmap in (rmap_ve, rmap_table, brute_rmap):
            with pytest.raises(ModelError, match=message):
                rmap(two_node, [0], {1: state}, {})
            with pytest.raises(ModelError, match=message):
                rmap(two_node, [0], {}, {1: state})
        for query in (map_ve, brute_map, posterior):
            with pytest.raises(ModelError, match=message):
                query(two_node, [0], {1: state})
        with pytest.raises(ModelError, match=message):
            joint_mass(two_node, {0: 0, 1: state})


def test_query_prob_and_posterior_cells_refuse_bad_states(five_node, monkeypatch):
    # A state of -1 once read the last state's cell (0.3 here, Pr(E = 1)),
    # the cardinality raised a raw IndexError and True a raw TypeError.
    assert math.isclose(query_prob(five_node, {4: 1}, {}), 0.3, rel_tol=1e-12)
    marginal = posterior(five_node, {4}, {})
    for state in (-1, 2, True):
        with pytest.raises(ModelError, match=f"state {state} out of range for 'E'"):
            query_prob(five_node, {4: state}, {})
        with pytest.raises(FactorError, match=f"state {state} out of range for variable 4"):
            marginal[{4: state}]

    # The event's states are refused before any sum pass runs.
    def no_elimination(*args, **kwargs):
        raise AssertionError("eliminate ran for a refused event")

    monkeypatch.setattr(inference, "eliminate", no_elimination)
    with pytest.raises(ModelError, match="state 2 out of range for 'E'"):
        query_prob(five_node, {4: 2}, {})


def test_posterior_two_node(two_node):
    marg = posterior(two_node, {1}, {})
    assert np.allclose(marg.flat, [0.36, 0.64], rtol=1e-12)
    assert math.isclose(marg.total(), 1.0, rel_tol=1e-12)
    with pytest.raises(ModelError):
        posterior(two_node, {1}, {1: 0})


def test_posterior_zero_mass_raises():
    scm = make_scm(
        [("U", ["0", "1"]), ("X", ["0", "1"])],
        {"U": [], "X": ["U"]},
        {"U": [0.5, 0.5], "X": [1, 0, 1, 0]},
    )
    with pytest.raises(InconsistentEvidenceError):
        posterior(scm, {0}, {1: 1})


@pytest.mark.parametrize("seed", range(10))
def test_posterior_matches_enumeration(seed):
    scm = small_scm(seed + 500, lo=5, hi=8)
    rng = np.random.default_rng([91, seed])
    vids = [v.id for v in scm.variables]
    target = int(rng.choice(vids))
    epool = [v for v in vids if v != target]
    evidence = {int(rng.choice(epool)): int(rng.integers(0, 2))}
    try:
        post = posterior(scm, {target}, evidence)
    except InconsistentEvidenceError:
        return
    others = sorted(set(vids) - {target} - set(evidence))
    for s in range(2):
        num = 0.0
        den = 0.0
        for states in itertools.product(range(2), repeat=len(others)):
            rest = dict(zip(others, states))
            for ts in range(2):
                p = joint_prob(scm, {**rest, **evidence, target: ts})
                den += p
                if ts == s:
                    num += p
        assert math.isclose(post[{target: s}], num / den, rel_tol=1e-9, abs_tol=1e-12)


@pytest.mark.parametrize("seed", range(25))
def test_map_and_rmap_agree_with_brute(seed):
    rng = np.random.default_rng([92, seed])
    scm = small_scm(seed + 700, lo=5, hi=9)
    vids = [v.id for v in scm.variables]
    rng.shuffle(vids)
    targets = sorted(vids[:2])
    e1 = {vids[2]: int(rng.integers(0, 2))}
    e2 = {vids[3]: int(rng.integers(0, 2))} if len(vids) > 3 and rng.random() < 0.7 else {}

    vm = map_ve(scm, targets, {**e1, **e2})
    bm = brute_map(scm, targets, {**e1, **e2})
    assert abs(vm.value - bm.value) <= 1e-9
    # tie-equivalence: each path's argmax attains the agreed optimum
    for inst in (vm.instantiation, bm.instantiation):
        assert abs(joint_mass(scm, {**e1, **e2, **inst}) - bm.value) <= 1e-9

    try:
        vr = rmap_ve(scm, targets, e1, e2)
        br = brute_rmap(scm, targets, e1, e2)
    except InconsistentEvidenceError:
        with pytest.raises(InconsistentEvidenceError):
            brute_rmap(scm, targets, e1, e2)
        return
    assert abs(vr.value - br.value) <= 1e-9
    assert vr.excluded == br.excluded
    for inst in (vr.instantiation, br.instantiation):
        m2 = joint_mass(scm, {**e2, **inst})
        if br.value > 0:
            assert m2 > 0
            m1 = joint_mass(scm, {**e1, **e2, **inst})
            assert abs(m1 / m2 - br.value) <= 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_rmap_table_matches_per_unit_values(seed):
    scm = small_scm(seed + 800, lo=5, hi=8)
    rng = np.random.default_rng([93, seed])
    vids = [v.id for v in scm.variables]
    rng.shuffle(vids)
    targets = sorted(vids[:2])
    e1 = {vids[2]: int(rng.integers(0, 2))}
    table = rmap_table(scm, targets, e1, {})
    assert set(table.vids) == set(targets)
    for u in enumerate_instantiations(scm, targets):
        m2 = joint_mass(scm, u)
        if m2 == 0:
            assert table[u] == 0.0
            continue
        m1 = joint_mass(scm, {**e1, **u})
        assert abs(table[u] - m1 / m2) <= 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_monotonicity_adding_e1_evidence(seed):
    scm = small_scm(seed + 900, lo=5, hi=8)
    rng = np.random.default_rng([94, seed])
    vids = [v.id for v in scm.variables]
    rng.shuffle(vids)
    targets = sorted(vids[:1])
    e1_small = {vids[1]: int(rng.integers(0, 2))}
    e1_big = {**e1_small, vids[2]: int(rng.integers(0, 2))}
    try:
        small = rmap_ve(scm, targets, e1_small, {})
        big = rmap_ve(scm, targets, e1_big, {})
    except InconsistentEvidenceError:
        return
    assert big.value <= small.value + 1e-12


@pytest.mark.parametrize("seed", range(15))
def test_unit_select_ve_equals_brute(seed):
    scm, units, L = random_instance(seed + 40)
    try:
        ve = unit_select(scm, L, method="ve")
    except InconsistentEvidenceError:
        with pytest.raises(InconsistentEvidenceError):
            unit_select(scm, L, method="brute")
        return
    br = unit_select(scm, L, method="brute")
    assert abs(ve.value - br.value) <= 1e-9
    assert ve.excluded == br.excluded
    # tie-equivalence: both argmaxes attain the optimum
    for res in (ve, br):
        val = evaluate_L_brute(scm, L, res.instantiation)
        assert val is not None and abs(val - br.value) <= 1e-9


def test_unit_select_rejects_invalid_objective():
    scm = small_scm(0)
    from unitsel.objective import ObjectiveFunction, ObjectiveTerm

    bad = ObjectiveFunction((scm.roots[0],), (ObjectiveTerm(0.5, y={scm.endogenous()[0]: 0}),))
    with pytest.raises(ModelError):
        unit_select(scm, bad)


def test_unit_select_single_observational_term(two_node):
    from unitsel.objective import ObjectiveFunction, ObjectiveTerm

    L = ObjectiveFunction((0,), (ObjectiveTerm(1.0, y={1: 0}),))
    ve = unit_select(two_node, L, method="ve")
    br = unit_select(two_node, L, method="brute")
    assert ve.instantiation == br.instantiation == {0: 0}
    assert abs(ve.value - 0.6) < 1e-12 and abs(br.value - 0.6) < 1e-12


def test_custom_order_must_be_constrained(two_node):
    with pytest.raises(ModelError):
        map_ve(two_node, [0], {1: 0}, order=EliminationOrder((0, 1)))
    ok = map_ve(two_node, [0], {1: 0}, order=EliminationOrder((1, 0), frozenset({0})))
    assert abs(ok.value - 0.24) < 1e-12


def test_unit_select_random_40_prunes_to_small_width():
    # The bench.run_width_trial instance random 40/0.4/8 at trial 0. Over the
    # whole objective model (402 nodes, width 27) the solve asks for a 2 GiB
    # table; the query's ancestral closure has width 4.
    rng = np.random.default_rng([8, 0])
    scm = gen_random_scm(GenConfig(node_count=40, seed=8, unit_ratio=0.4), rng=rng)
    units = _pick_units(scm.roots, 0.4, rng)
    endo = scm.endogenous()
    y = int(rng.choice([v for v in endo if not scm.children[v]]))
    x = int(rng.choice([v for v in endo if v != y]))
    L = gen_benefit_objective(scm, x, y, (0.25, 0.25, 0.25, 0.25), units=units)
    start = time.perf_counter()
    res = unit_select(scm, L)
    assert time.perf_counter() - start < 1.0
    assert set(res.instantiation) == set(units) and res.excluded == 0
    assert 0.0 <= res.value <= 1.0


# -- evidence-free unit selection: one MAP pass ---------------------------------


def _zero_some_prior_states(scm, units, rng):
    """``scm`` with one state of about half the units' priors set to 0 and
    the rest of that prior rescaled."""
    tables = dict(scm.tables)
    for vid in units:
        prior = np.array(tables[vid], dtype=float)
        if np.count_nonzero(prior) > 1 and rng.random() < 0.5:
            prior[int(rng.integers(prior.size))] = 0.0
            tables[vid] = prior / prior.sum()
    return Scm(scm.variables, scm.parents, tables)


def _answer(res):
    return res.value, res.instantiation, res.excluded


@pytest.mark.parametrize("seed", range(40))
def test_evidence_free_select_equals_reverse_map(seed):
    # On the same solve model, Reverse-MAP divides each unit prior by itself,
    # so the MAP pass on support indicators gives the same bits, unit and
    # excluded count.
    scm, units, L = random_instance(seed, with_evidence=False)
    scm = _zero_some_prior_states(scm, units, np.random.default_rng([37, seed]))
    om = _solve_model(scm, L)
    ve = inference._evidence_free_select(om)
    assert _answer(ve) == _answer(rmap_ve(om.model, om.unit_om_ids, om.e1, om.e2))
    res = unit_select(scm, L)
    assert (res.value, res.excluded) == (ve.value, ve.excluded)
    assert res.instantiation == {b: ve.instantiation[o] for b, o in zip(units, om.unit_om_ids)}


def test_evidence_free_select_and_reverse_map_absorb_the_same_forced_copies():
    # With a single term, its indicator O in e1 forces H and the copies it
    # asserts; both paths slice the same CPTs and keep the same bits.
    forcing = 0
    for seed in range(40):
        scm, units, L = random_instance(seed, with_evidence=False)
        om = _solve_model(scm, L)
        c2 = ancestral_closure(om.model, [*om.unit_om_ids, *om.e2])
        forced = inference._forced_states(om.model, om.e1, c2)
        forcing += bool(forced)
        ve = inference._evidence_free_select(om)
        assert _answer(ve) == _answer(rmap_ve(om.model, om.unit_om_ids, om.e1, om.e2))
    assert forcing >= 10


def test_evidence_free_select_matches_the_exact_oracle():
    separated = zeroed = 0
    for seed in range(40):
        scm, units, L = random_instance(seed + 300, with_evidence=False)
        scm = _zero_some_prior_states(scm, units, np.random.default_rng([38, seed]))
        exact = exact_L_profile(scm, L)
        res = unit_select(scm, L)
        unit = tuple(res.instantiation[vid] for vid in units)
        assert res.excluded == sum(value is None for value in exact.values())
        assert exact[unit] is not None
        assert abs(res.value - float(max(v for v in exact.values() if v is not None))) <= 1e-12
        best = separated_maximiser(exact)
        if best is not None:
            assert unit == best and abs(res.value - float(exact[best])) <= 1e-12
        separated += best is not None
        zeroed += res.excluded > 0
    assert separated > 0 and zeroed > 0


def _unit_model(u_prior, v_prior, y_of):
    """Units U (three states) and V, a noise root N, X = N and Y = y_of(U,
    V, X)."""
    y = [float(y_of(*row) == s) for row in itertools.product(range(3), range(2), range(2))
         for s in (0, 1)]
    return make_scm(
        [("U", "012"), ("V", "01"), ("N", "01"), ("X", "01"), ("Y", "01")],
        {"U": [], "V": [], "N": [], "X": ["N"], "Y": ["U", "V", "X"]},
        {"U": u_prior, "V": v_prior, "N": [0.3, 0.7], "X": [1, 0, 0, 1], "Y": y},
    )


def test_evidence_free_select_excludes_zero_prior_unit_states():
    # Y = [U + V + X >= 3] and L(u) = 0.6 Pr(Y_{X=1} = 1 | u) + 0.4 Pr(Y = 0 |
    # u). U = 1 and V = 0 have no prior mass, which leaves (0, 1) at 0.4 and
    # (2, 1) at 0.6 of the 3 x 2 grid; (1, 1) and (2, 0) would read 0.72.
    scm = _unit_model([0.4, 0.0, 0.6], [0.0, 1.0], lambda u, v, x: u + v + x >= 3)
    L = ObjectiveFunction((0, 1), (ObjectiveTerm(0.6, x={3: 1}, y={4: 1}),
                                   ObjectiveTerm(0.4, y={4: 0})))
    res = unit_select(scm, L)
    assert _answer(res) == (pytest.approx(0.6, abs=1e-15), {0: 2, 1: 1}, 6 - 2 * 1)
    brute = unit_select(scm, L, method="brute")
    assert (brute.instantiation, brute.excluded) == (res.instantiation, res.excluded)


def test_evidence_free_select_at_value_zero_takes_the_smallest_supported_unit():
    # Y = 0 surely, so L(u) = Pr(Y = 1 | u) = 0 everywhere; U = 0 and V = 0
    # have no prior mass, so the smallest supported unit is (1, 1).
    scm = _unit_model([0.0, 0.4, 0.6], [0.0, 1.0], lambda u, v, x: 0)
    L = ObjectiveFunction((0, 1), (ObjectiveTerm(1.0, y={4: 1}),))
    res = unit_select(scm, L)
    assert _answer(res) == (0.0, {0: 1, 1: 1}, 4)
    assert _answer(unit_select(scm, L, method="brute")) == _answer(res)


def test_evidence_free_select_on_a_non_functional_model():
    # Treatment-free terms assert y and w in world 1, which is Pr(y, w | u)
    # on any Bayesian network: random (not 0/1) rows for every endogenous
    # variable, checked against brute, the exact oracle and Reverse-MAP.
    separated = 0
    for seed in range(12):
        rng = np.random.default_rng([39, seed])
        base = small_scm(seed + 500, lo=4, hi=7)
        tables = dict(base.tables)
        for vid in base.endogenous():
            rows = rng.uniform(0.05, 1.0, size=np.shape(tables[vid]))
            tables[vid] = rows / rows.sum(axis=-1, keepdims=True)
        scm = Scm(base.variables, base.parents, tables)
        units = tuple(sorted(int(u) for u in rng.choice(scm.roots, size=min(2, len(scm.roots)),
                                                          replace=False)))
        endo = [int(v) for v in rng.permutation(scm.endogenous())]
        L = ObjectiveFunction(units, (ObjectiveTerm(0.7, y={endo[0]: 1}, w={endo[1]: 0}),
                                      ObjectiveTerm(0.3, y={endo[-1]: 0})))
        om = _solve_model(scm, L)
        ve = unit_select(scm, L)
        brute = unit_select(scm, L, method="brute")
        rmap = rmap_ve(om.model, om.unit_om_ids, om.e1, om.e2)
        assert (ve.value, ve.excluded) == (rmap.value, rmap.excluded)
        assert abs(ve.value - brute.value) <= 1e-12 and ve.excluded == brute.excluded == 0
        exact = exact_L_profile(scm, L)
        best = separated_maximiser(exact)
        if best is not None:
            assert tuple(ve.instantiation[vid] for vid in units) == best
        separated += best is not None
    assert separated > 0


@pytest.mark.parametrize("seed", range(60))
def test_default_order_matches_whole_model_order(seed):
    # The default order covers only the ancestral closure of the targets and
    # evidence; a caller order over the whole model must give the same answers.
    scm = small_scm(seed + 1000)
    rng = np.random.default_rng([95, seed])
    vids = [v.id for v in scm.variables]
    rng.shuffle(vids)
    targets = sorted(vids[:2])
    e1 = {vids[2]: int(rng.integers(0, 2))}
    e2 = {vids[3]: int(rng.integers(0, 2))} if rng.random() < 0.7 else {}
    evidence = {**e1, **e2}
    whole = minfill_order(moral_graph(scm), constrained_suffix=targets)

    def both(query, *args):
        out = []
        for order in (None, whole):
            try:
                out.append(query(scm, targets, *args, order=order))
            except InconsistentEvidenceError:
                out.append(None)
        assert (out[0] is None) == (out[1] is None)
        return out

    pruned, full = both(map_ve, evidence)
    assert abs(pruned.value - full.value) <= 1e-12
    kept = ancestral_closure(scm, set(targets) | set(evidence))
    traced = map_ve(scm, targets, evidence, want_trace=True).trace
    assert {s.var for s in traced} == kept
    pruned, full = both(rmap_ve, e1, e2)
    if pruned is not None:
        assert abs(pruned.value - full.value) <= 1e-12
        assert pruned.excluded == full.excluded
    for query, args in ((rmap_table, (e1, e2)), (posterior, (evidence,))):
        pruned, full = both(query, *args)
        if pruned is not None:
            assert pruned.vids == full.vids
            assert np.abs(pruned.values - full.values).max() <= 1e-12


def test_default_order_skips_barren_node(five_node):
    # D has no evidence and no target below it: the default order leaves it
    # out, and the worked EDCBA caller order keeps its step.
    ids = {v.name: v.id for v in five_node.variables}
    targets, evidence = [ids["A"], ids["B"]], {ids["E"]: 0}
    pruned = map_ve(five_node, targets, evidence, want_trace=True)
    order = EliminationOrder(tuple(ids[n] for n in "EDCBA"), frozenset(targets))
    full = map_ve(five_node, targets, evidence, order=order, want_trace=True)
    assert ids["D"] not in {s.var for s in pruned.trace}
    assert ids["D"] in {s.var for s in full.trace}
    assert abs(pruned.value - full.value) <= 1e-12
    assert pruned.instantiation == full.instantiation


def test_caller_order_must_cover_an_ancestrally_closed_set(five_node):
    ids = {v.name: v.id for v in five_node.variables}
    targets, evidence = [ids["A"], ids["B"]], {ids["E"]: 0}
    expected = map_ve(five_node, targets, evidence).value

    def order(names):
        return EliminationOrder(tuple(ids[n] for n in names), frozenset(targets))

    for names in ("ECBA", "EDCBA"):  # the closure, and the whole model
        got = map_ve(five_node, targets, evidence, order=order(names)).value
        assert abs(got - expected) <= 1e-12
    # Missing the ancestor C of E; D without its parent C; E missing.
    for names in ("EBA", "EDBA", "CBA"):
        with pytest.raises(ModelError):
            map_ve(five_node, targets, evidence, order=order(names))
    with pytest.raises(ModelError):
        joint_mass(five_node, evidence, EliminationOrder((ids["A"], ids["B"])))


@pytest.mark.parametrize("want_trace", [True, False])
def test_caller_order_ids_follow_the_id_rule(five_node, monkeypatch, want_trace):
    # A float or a bool that equals an id finds it in a dict but is not one:
    # with a trace, such an order once raised a raw TypeError mid-elimination.
    def no_elimination(*args, **kwargs):
        raise AssertionError("eliminate ran for a refused order")

    monkeypatch.setattr(inference, "eliminate", no_elimination)
    for first in (1.0, True, np.float64(1), -1, 5):
        order = EliminationOrder((first, 2, 3, 4, 0))
        with pytest.raises(ModelError, match="ancestrally closed set of model variables"):
            map_ve(five_node, [0], {}, order=order, want_trace=want_trace)
        with pytest.raises(ModelError, match="ancestrally closed set of model variables"):
            rmap_ve(five_node, [0], {}, {}, order=order, want_trace=want_trace)


def test_queries_build_no_validated_factor(monkeypatch):
    # CPT entries are checked once, in Scm; the query paths build every
    # factor trusted, so the public constructor's checks and copy never run.
    def refuse(self, *args, **kwargs):
        raise AssertionError("validating Factor(...) called on a query path")

    monkeypatch.setattr(Factor, "__init__", refuse)
    scm, units, L = random_instance(3)
    full = forward_eval(scm, {r: 0 for r in scm.roots})
    endo = scm.endogenous()
    e1, e2 = {endo[-1]: full[endo[-1]]}, {endo[0]: full[endo[0]]}
    assert map_ve(scm, units, {**e1, **e2}).value > 0
    assert rmap_ve(scm, units, e1, e2).value > 0
    assert posterior(scm, units, e2).total() == pytest.approx(1.0)
    unit_select(scm, L, method="ve")


# -- the e2 pass on its own closure -------------------------------------------


def _record_sum_passes(monkeypatch) -> list[tuple[set[int], tuple[int, ...]]]:
    """Record, for every sum pass, the ids of its pooled CPTs and its order."""
    passes = []

    def recording(op, pool, order, *args, **kwargs):
        if op == "sum":
            passes.append(({tf.tag[1] for tf in pool if tf.tag[0] == "cpt"}, tuple(order)))
        return eliminate(op, pool, order, *args, **kwargs)

    monkeypatch.setattr(inference, "eliminate", recording)
    return passes


def _assert_e2_pass_on_its_closure(passes, scm, targets, e2) -> set[int]:
    """The second sum pass covers the ancestral closure of the targets and
    e2 alone, in the first pass's relative order; returns the first pass's
    variables."""
    (vars1, order1), (vars2, order2) = passes[:2]
    closure = ancestral_closure(scm, [*targets, *e2])
    assert vars2 == closure
    assert order2 == tuple(v for v in order1 if v in closure)
    return vars1


def test_e2_pass_of_a_sat_circuit_covers_the_targets_alone(monkeypatch):
    # e2 is empty and the targets are roots: the e2 pass pools their CPTs
    # and eliminates nothing, where it once summed the whole circuit out.
    formula = parse_dimacs(random_cnf(4))
    scm, _ = compile_formula(formula)
    targets = {scm.by_name(name).id for name in formula.variables}
    passes = _record_sum_passes(monkeypatch)
    sat_via_rmap(formula)
    vars1 = _assert_e2_pass_on_its_closure(passes, scm, targets, {})
    assert passes[1] == (targets, ())
    assert len(vars1) > len(targets)


def test_e2_pass_of_an_objective_model_covers_its_closure(monkeypatch):
    # The passes are checked on the models unit_select solves by Reverse-MAP:
    # the shared-worlds solve model of an objective with evidence, and the
    # full objective model under a caller order (an evidence-free objective
    # without an order runs one sum pass; see the test below).
    built = []

    def recording(build):
        def wrapper(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]
        return wrapper

    monkeypatch.setattr(inference, "_solve_model", recording(_solve_model))
    monkeypatch.setattr(inference, "build_objective_model", recording(build_objective_model))
    checked = {False: 0, True: 0}  # with a caller order -> checked solves
    smaller = 0
    for seed in range(10):
        scm, _, L = random_instance(seed)
        full = build_objective_model(scm, L)
        whole = minfill_order(moral_graph(full.model), constrained_suffix=full.unit_om_ids)
        for order in (None, whole) if any(t.e for t in L.terms) else (whole,):
            built.clear()
            passes = _record_sum_passes(monkeypatch)
            try:
                unit_select(scm, L, order=order)
            except InconsistentEvidenceError:
                pass
            (om,) = built
            vars1 = _assert_e2_pass_on_its_closure(passes, om.model, om.unit_om_ids, om.e2)
            smaller += len(passes[1][0]) < len(vars1)
            checked[order is not None] += 1
    assert checked[False] > 0 and checked[True] == 10
    assert smaller > 0


def test_evidence_free_unit_select_runs_one_sum_pass(monkeypatch):
    # Without evidence in any term, Pr(u, e2) is the unit prior: no e2 pass,
    # no count pass over its masks and no paired division.
    def no_division(*args):
        raise AssertionError("_paired_division called")

    monkeypatch.setattr(inference, "_paired_division", no_division)
    for seed in range(10):
        scm, _, L = random_instance(seed, with_evidence=False)
        passes = _record_sum_passes(monkeypatch)
        unit_select(scm, L)
        assert len(passes) == 1


@pytest.mark.parametrize("seed", range(10))
def test_e2_pass_restricts_a_whole_model_caller_order(monkeypatch, seed):
    scm = small_scm(seed + 1200)
    rng = np.random.default_rng([98, seed])
    vids = [v.id for v in scm.variables]
    rng.shuffle(vids)
    targets, e1, e2 = sorted(vids[:2]), {vids[2]: 0}, {vids[3]: 1}
    whole = minfill_order(moral_graph(scm), constrained_suffix=targets)
    passes = _record_sum_passes(monkeypatch)
    try:
        rmap_ve(scm, targets, e1, e2, order=whole)
    except InconsistentEvidenceError:
        pass
    assert _assert_e2_pass_on_its_closure(passes, scm, targets, e2) == set(range(scm.n))
    assert passes[0][1] == whole.prefix


@pytest.mark.parametrize("whole_order", [False, True])
def test_rmap_with_e2_agrees_with_brute(whole_order):
    # Each e2-pass survivor is divided into a covering e1+e2 survivor; values,
    # tables and excluded counts stay those of enumeration.
    with_excluded = 0
    for seed in range(60):
        scm = small_scm(seed + 1100)
        rng = np.random.default_rng([97, seed])
        vids = [v.id for v in scm.variables]
        rng.shuffle(vids)
        targets = sorted(vids[:2])
        e1 = {vids[2]: int(rng.integers(0, 2))}
        e2 = {v: int(rng.integers(0, 2)) for v in vids[3 : 3 + int(rng.integers(1, 3))]}
        order = minfill_order(moral_graph(scm), constrained_suffix=targets) if whole_order else None
        try:
            br = brute_rmap(scm, targets, e1, e2)
        except InconsistentEvidenceError:
            with pytest.raises(InconsistentEvidenceError):
                rmap_ve(scm, targets, e1, e2, order=order)
            continue
        vr = rmap_ve(scm, targets, e1, e2, order=order)
        assert abs(vr.value - br.value) <= 1e-12
        assert vr.excluded == br.excluded
        with_excluded += vr.excluded > 0
        table = rmap_table(scm, targets, e1, e2, order=order)
        assert abs(table[vr.instantiation] - br.value) <= 1e-12
        for u in enumerate_instantiations(scm, targets):
            m2 = joint_mass(scm, {**e2, **u})
            expected = joint_mass(scm, {**e1, **e2, **u}) / m2 if m2 > 0 else 0.0
            assert abs(table[u] - expected) <= 1e-12
    assert with_excluded > 0


def test_paired_division_divides_into_the_first_covering_survivor():
    def tagged(tag, vids, values):
        values = np.asarray(values, dtype=float)
        return TaggedFactor(tag, Factor(vids, values.shape, values))

    # Survivors of a pass come in tag order, as eliminate leaves them.
    pool1 = [
        tagged(("cpt", 0), (0, 1), [[0.2, 0.3], [0.4, 0.1]]),
        tagged(("step", 5), (0,), [0.5, 0.5]),
    ]
    pool2 = [tagged(("step", 2), (0,), [0.0, 0.25]), tagged(("lam", 1), (1,), [0.5, 1.0])]
    out = _paired_division(pool1, pool2)
    # Pass-1 order and tags; both divisors go to ("cpt", 0), the first
    # covering survivor. The zero divisor under 0.2 and 0.3 gives 0, not an
    # error.
    assert [tf.tag for tf in out] == [("cpt", 0), ("step", 5)]
    got, want = out[1].factor, pool1[1].factor
    assert (got.vids, got.cards, got.values.tolist()) == (want.vids, want.cards, want.values.tolist())
    assert out[0].factor.vids == (0, 1)
    np.testing.assert_array_equal(
        out[0].factor.values, [[0.0, 0.0], [0.4 / 0.25 / 0.5, 0.1 / 0.25 / 1.0]]
    )
    with pytest.raises(AssertionError, match="no pass-1 survivor covers"):
        _paired_division(pool1, [tagged(("step", 3), (2,), [1.0, 1.0])])


def test_float_passes_leave_survivors_in_tag_order(monkeypatch):
    # _product, _scalar_value and _paired_division take a float pass's
    # survivors in the order eliminate leaves them, which is tag order. The
    # integer mask passes are not checked: an integer product and a
    # maximizer table do not depend on the order of their factors.
    tags: list[list] = []

    def recording(op, pool, order, scm, *args, **kwargs):
        survivors, tables = eliminate(op, pool, order, scm, *args, **kwargs)
        if any(tf.factor.values.dtype == np.float64 for tf in pool):
            tags.append([tf.tag for tf in survivors])
        return survivors, tables

    monkeypatch.setattr(inference, "eliminate", recording)
    for seed in range(60):
        scm, _, L = random_instance(seed)
        om = build_objective_model(scm, L)
        evidence = {**om.e1, **om.e2}
        map_ve(om.model, om.unit_om_ids, evidence)
        joint_mass(om.model, evidence)
        try:
            rmap_ve(om.model, om.unit_om_ids, om.e1, om.e2)
        except InconsistentEvidenceError:
            pass
    assert len(tags) > 200 and any(len(t) > 1 for t in tags)
    assert all(t == sorted(t) for t in tags)


def test_unknown_op_and_method_are_refused(two_node):
    with pytest.raises(ValueError, match="^unknown elimination op 'min'$"):
        eliminate("min", cpt_pool(two_node, range(two_node.n)), (0,), two_node)
    L = ObjectiveFunction((0,), (ObjectiveTerm(1.0, y={1: 0}),))
    with pytest.raises(ValueError, match="^unknown method 'exact'$"):
        unit_select(two_node, L, method="exact")
