"""Forced evidence in Reverse-MAP's e1+e2 pass: the rule, its exactness
against enumeration and exact rationals, and what it leaves unchanged."""

import hashlib

import numpy as np
import pytest

from unitsel import (
    EliminationOrder,
    InconsistentEvidenceError,
    ModelError,
    Scm,
    brute_rmap,
    compile_formula,
    make_scm,
    parse_dimacs,
    rmap_table,
    rmap_ve,
)
from unitsel import inference
from unitsel.elimination import ancestral_closure, minfill_order, moral_graph
from unitsel.factor import Variable
from unitsel.inference import format_trace
from unitsel.reductions import evaluate, sat_via_rmap, truth_table

from corpus import exact_rmap_profile, random_cnf, separated_maximiser, small_scm


def _forced(scm, targets, e1, e2) -> dict[int, int]:
    c2 = ancestral_closure(scm, [*targets, *e2])
    return inference._forced_states(scm, e1, c2)


def _check_exact(scm: Scm, targets, e1, e2) -> float | None:
    """rmap_table against the exact profile, and rmap_ve against it and
    against brute_rmap; returns the optimum, None when every target is
    excluded."""
    targets = sorted(targets)
    exact = exact_rmap_profile(scm, targets, e1, e2)
    table = rmap_table(scm, targets, e1, e2)
    assert table.vids == tuple(targets)
    for u, value in exact.items():
        assert abs(table[dict(zip(targets, u))] - float(value or 0)) <= 1e-12
    defined = [value for value in exact.values() if value is not None]
    if not defined:
        for query in (rmap_ve, brute_rmap):
            with pytest.raises(InconsistentEvidenceError):
                query(scm, targets, e1, e2)
        return None
    result, brute = rmap_ve(scm, targets, e1, e2), brute_rmap(scm, targets, e1, e2)
    assert abs(result.value - float(max(defined))) <= 1e-12
    assert abs(result.value - brute.value) <= 1e-12
    assert result.excluded == brute.excluded == len(exact) - len(defined)
    best = separated_maximiser(exact)
    if best is not None:
        assert tuple(result.instantiation[vid] for vid in targets) == best
    if result.value == 0.0:
        # Every defined target scores 0: the smallest one wins, as in brute.
        assert result.instantiation == brute.instantiation
    return result.value


# -- hand-built models -----------------------------------------------------------

B = ("0", "1")
AND = [[[1, 0], [1, 0]], [[1, 0], [0, 1]]]
XOR = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
IDENTITY = [[1, 0], [0, 1]]
NOT = [[0, 1], [1, 0]]
HALF = [0.5, 0.5]


def _model(names, parents, tables) -> Scm:
    """make_scm with the roots' empty parent lists filled in."""
    return make_scm(names, {name: parents.get(name, []) for name, _ in names}, tables)


def _chain():
    """x1, x2, x3 roots; a = x1 AND x2, b = a AND x3, c = x1 XOR x3."""
    names = [("x1", B), ("x2", B), ("x3", B), ("a", B), ("b", B), ("c", B)]
    parents = {"a": ["x1", "x2"], "b": ["a", "x3"], "c": ["x1", "x3"]}
    tables = {"x1": [0.3, 0.7], "x2": HALF, "x3": [0.6, 0.4], "a": AND, "b": AND, "c": XOR}
    return _model(names, parents, tables)


def test_and_chain_is_forced_up_to_the_targets():
    scm = _chain()
    x1, x2, x3, a, b, c = range(6)
    # b = 1 forces a and x3; a = 1 forces x1 and x2. The walk stops at the
    # target, and targets are never forced.
    assert _forced(scm, [x3], {b: 1}, {}) == {a: 1, x1: 1, x2: 1}
    assert _forced(scm, [x1], {b: 1}, {}) == {a: 1, x2: 1, x3: 1}
    assert _check_exact(scm, [x3], {b: 1}, {}) == pytest.approx(0.35)
    assert _check_exact(scm, [x1], {b: 1}, {}) == pytest.approx(0.2)


def test_forced_chain_reaching_the_e2_closure_stops_there():
    scm = _chain()
    x1, x2, x3, a, b, c = range(6)
    # c is e2, so x1 and x3 lie in the e2 closure: only a and x2 are forced.
    assert _forced(scm, [x2], {b: 1}, {c: 1}) == {a: 1}
    _check_exact(scm, [x2], {b: 1}, {c: 1})
    _check_exact(scm, [x2], {b: 1}, {c: 0})


def test_xor_and_or_rows_force_nothing():
    scm = _chain()
    x1, x2, x3, a, b, c = range(6)
    assert _forced(scm, [x2], {c: 1}, {}) == {}
    assert _forced(scm, [x3], {b: 0}, {}) == {}  # AND = 0 has three rows
    _check_exact(scm, [x2], {c: 1}, {})
    _check_exact(scm, [x3], {b: 0}, {})


def test_conflicting_children_force_nothing():
    # p feeds an identity and a NOT: p = 1 and NOT p = 1 cannot both hold.
    scm = _model([("p", B), ("i", B), ("n", B), ("t", B)],
               {"i": ["p"], "n": ["p"]},
               {"p": [0.2, 0.8], "i": IDENTITY, "n": NOT, "t": HALF})
    p, i, n, t = range(4)
    assert _forced(scm, [t], {i: 1}, {}) == {p: 1}
    assert _forced(scm, [t], {n: 1}, {}) == {p: 0}
    assert _forced(scm, [t], {i: 1, n: 1}, {}) == {}
    assert _check_exact(scm, [t], {i: 1, n: 1}, {}) == 0.0
    result = rmap_ve(scm, [t], {i: 1, n: 1}, {})
    assert (result.instantiation, result.excluded) == ({t: 0}, 0)


def test_given_evidence_is_not_forced_and_its_conflict_gives_zero():
    scm = _chain()
    x1, x2, x3, a, b, c = range(6)
    # a is given 0 while b = 1 needs a = 1: the walk stops at a, forces x3,
    # and the indicator of a zeroes the optimum.
    assert _forced(scm, [x2], {b: 1, a: 0}, {}) == {x3: 1}
    assert _check_exact(scm, [x2], {b: 1, a: 0}, {}) == 0.0


def test_an_all_zero_column_forces_nothing():
    # z is never 1: its column at 1 has no positive row, so nothing is
    # forced, and elimination gives the zeros.
    never = [[1, 0], [1, 0]]
    scm = _model([("p", B), ("z", B), ("t", B)], {"z": ["p"]},
               {"p": HALF, "z": never, "t": HALF})
    p, z, t = range(3)
    assert _forced(scm, [t], {z: 1}, {}) == {}
    assert _check_exact(scm, [t], {z: 1}, {}) == 0.0


def test_non_functional_rows_force_exactly():
    # Only p = 2 gives c = 1 a positive entry, though the rows are not 0/1;
    # c = 0 leaves p free (two positive rows).
    scm = _model([("u", B), ("p", ("0", "1", "2")), ("c", B)], {"p": ["u"], "c": ["p"]},
               {"u": [0.25, 0.75], "p": [[0.5, 0.3, 0.2], [0.1, 0.0, 0.9]],
                    "c": [[1.0, 0.0], [1.0, 0.0], [0.4, 0.6]]})
    u, p, c = range(3)
    assert _forced(scm, [u], {c: 1}, {}) == {p: 2}
    assert _forced(scm, [u], {c: 0}, {}) == {}
    assert _check_exact(scm, [u], {c: 1}, {}) == pytest.approx(0.9 * 0.6)
    _check_exact(scm, [u], {c: 0}, {})


def test_a_forced_root_with_a_zero_prior_gives_zero():
    # b = 1 forces x1 = 1, which its prior never takes.
    scm = _model([("x1", B), ("t", B), ("b", B)], {"b": ["x1", "t"]},
               {"x1": [1.0, 0.0], "t": HALF, "b": AND})
    x1, t, b = range(3)
    assert _forced(scm, [t], {b: 1}, {}) == {x1: 1}
    assert _check_exact(scm, [t], {b: 1}, {}) == 0.0


# -- random models with forcing ----------------------------------------------------


def _gate_table(kind: str, parent_cards, card: int, rng) -> np.ndarray:
    rows = list(np.ndindex(*parent_cards))
    table = np.zeros((*parent_cards, card))
    for row in rows:
        on = [s > 0 for s in row]
        if kind == "noisy":
            entries = rng.random(card) * (rng.random(card) < 0.6)
            if not entries.any():
                entries[int(rng.integers(card))] = 1.0
            table[row] = entries / entries.sum()
            continue
        state = {"and": all(on), "or": any(on), "xor": sum(row) % 2,
                 "identity": on[0], "not": not on[0], "never": 0}[kind]
        table[row + (int(state),)] = 1.0
    return table


def forcing_scm(seed: int) -> Scm:
    """A random model of AND, OR, XOR, identity, NOT, never-1 and noisy
    (non-0/1, with zeros) CPTs over 5-8 variables, some with three states;
    roots have priors with an occasional zero state."""
    rng = np.random.default_rng([41, seed])
    n = int(rng.integers(5, 9))
    variables, parents, tables = [], {}, {}
    for vid in range(n):
        k = 0 if vid < 2 else int(rng.integers(0, 3))
        ps = sorted(rng.choice(vid, size=k, replace=False).tolist()) if k else []
        kinds = ["and", "and", "or", "xor", "noisy", "never"] if k > 1 else \
            ["identity", "not", "noisy", "noisy"]
        kind = kinds[int(rng.integers(len(kinds)))] if ps else "root"
        card = 3 if kind in ("root", "noisy") and rng.random() < 0.2 else 2
        variables.append(Variable(vid, f"v{vid}", card, tuple(map(str, range(card)))))
        parents[vid] = ps
        if kind == "root":
            prior = rng.random(card) + 0.1
            if rng.random() < 0.2:
                prior[int(rng.integers(card))] = 0.0
            tables[vid] = prior / prior.sum()
        else:
            cards = [variables[p].cardinality for p in ps]
            tables[vid] = _gate_table(kind, cards, card, rng)
    return Scm(variables, parents, tables)


def _random_query(scm: Scm, rng):
    vids = list(range(scm.n))
    leaves = [v for v in vids if not scm.children[v]]
    e1_vars = rng.choice(leaves, size=min(len(leaves), int(rng.integers(1, 3))), replace=False)
    rest = [v for v in vids if v not in e1_vars]
    rng.shuffle(rest)
    k = int(rng.integers(1, 3))
    targets = sorted(rest[:k])
    e2 = {int(rest[k]): int(rng.integers(scm.var(rest[k]).cardinality))} if rng.random() < 0.4 else {}
    e1 = {int(v): 1 if rng.random() < 0.8 else 0 for v in e1_vars}
    return targets, e1, e2


def test_random_forcing_models_match_enumeration_and_exact_rationals():
    seen = {"forced": 0, "reaches_c2": 0, "zero": 0, "excluded": 0, "noisy_forced": 0}
    for seed in range(150):
        scm = forcing_scm(seed)
        rng = np.random.default_rng([42, seed])
        for _ in range(3):
            targets, e1, e2 = _random_query(scm, rng)
            forced = _forced(scm, targets, e1, e2)
            c2 = ancestral_closure(scm, [*targets, *e2])
            assert not forced.keys() & (c2 | set(e1))
            value = _check_exact(scm, targets, e1, e2)
            seen["forced"] += bool(forced)
            seen["reaches_c2"] += any(set(scm.parents[v]) & c2 for v in forced)
            seen["zero"] += value == 0.0
            seen["excluded"] += value is not None and rmap_ve(scm, targets, e1, e2).excluded > 0
            seen["noisy_forced"] += any(
                not np.isin(scm.tables[c], (0.0, 1.0)).all()
                for v in forced for c in scm.children[v]
            )
    assert all(count >= 5 for count in seen.values()), seen


# -- what forcing leaves unchanged ------------------------------------------------


def test_unknown_ids_are_refused_before_the_walk(monkeypatch):
    def no_walk(*args):
        raise AssertionError("_forced_states called")

    monkeypatch.setattr(inference, "_forced_states", no_walk)
    scm = _chain()
    for targets, e1, e2 in (([2], {99: 1}, {}), ([2], {4: 1}, {1.0: 0}), ([True], {4: 1}, {}),
                            ([2], {-1: 1}, {}), ([2], {4: 1}, {2: 0})):
        for query in (rmap_ve, rmap_table):
            with pytest.raises(ModelError):
                query(scm, targets, e1, e2)


CNF = "p cnf 3 2\n1 -2 0\n2 3 0\n"
CALLER_TRACE = """\
i | var | factors                      | new factor   | cluster
--+-----+------------------------------+--------------+------------
1 | s4  | f_s4(s2,s3,s4) lambda_s4(s4) | f1(s2,s3)    | s2,s3,s4
2 | s1  | f_s1(x2,s1) f_s2(x1,s1,s2)   | f2(x1,x2,s2) | x1,x2,s1,s2
3 | s2  | f1(s2,s3) f2(x1,x2,s2)       | f3(x1,x2,s3) | x1,x2,s2,s3
4 | s3  | f_s3(x2,x3,s3) f3(x1,x2,s3)  | f4(x1,x2,x3) | x1,x2,x3,s3
5 | x3  | f_x3(x3) f4(x1,x2,x3)        | f5(x1,x2)    | x1,x2,x3
6 | x2  | f_x2(x2) f5(x1,x2)           | f6(x1)       | x1,x2
7 | x1  | f_x1(x1) f6(x1)              | f7()         | x1"""
# sha256 of the value bits, unit, excluded count and trace of 20 random
# Reverse-MAP queries under whole-model minfill caller orders, as computed
# before forced evidence was absorbed.
CALLER_DIGEST = "c46080d5071ca1c0ae8f29fd5ac02f0ad80dc98e411a58b4db46be7ed3cc6761"


def test_a_caller_order_keeps_its_indicators_and_trace():
    scm, sentinel = compile_formula(parse_dimacs(CNF))
    targets = [scm.by_name(n).id for n in ("x1", "x2", "x3")]
    whole = minfill_order(moral_graph(scm), constrained_suffix=targets)
    result = rmap_ve(scm, targets, {sentinel: 1}, {}, order=whole, want_trace=True)
    assert (result.value, result.instantiation, result.excluded) == (1.0, {0: 0, 1: 0, 2: 1}, 0)
    assert format_trace(result.trace, scm) == CALLER_TRACE

    digest = hashlib.sha256()
    for seed in range(20):
        scm = small_scm(seed + 1300)
        rng = np.random.default_rng([99, seed])
        vids = [v.id for v in scm.variables]
        rng.shuffle(vids)
        targets, e1 = sorted(vids[:2]), {vids[-1]: 1, vids[-2]: 0}
        e2 = {vids[2]: 1} if seed % 2 else {}
        whole = minfill_order(moral_graph(scm), constrained_suffix=targets)
        try:
            r = rmap_ve(scm, targets, e1, e2, order=whole, want_trace=True)
            row = (f"{r.value.hex()} {sorted(r.instantiation.items())} {r.excluded}\n"
                   f"{format_trace(r.trace, scm)}\n")
        except InconsistentEvidenceError:
            row = "inconsistent\n"
        digest.update(row.encode())
    assert digest.hexdigest() == CALLER_DIGEST


# A fixed random 3-CNF: 7 variables, 21 clauses.
GUARD_CNF = random_cnf(7, max_vars=10, ratio=3.0)


def test_default_order_eliminates_no_forced_variable_and_narrows_the_pass():
    formula = parse_dimacs(GUARD_CNF)
    scm, sentinel = compile_formula(formula)
    targets = [scm.by_name(n).id for n in formula.variables]
    forced = _forced(scm, targets, {sentinel: 1}, {})
    assert len(forced) >= len(formula.variables)
    assert not forced.keys() & set(targets)
    default = rmap_ve(scm, targets, {sentinel: 1}, {}, want_trace=True)
    assert not {step.var for step in default.trace} & forced.keys()
    whole = minfill_order(moral_graph(scm), constrained_suffix=targets)
    caller = rmap_ve(scm, targets, {sentinel: 1}, {}, order=whole, want_trace=True)
    assert default.value == caller.value
    widest = max(len(step.cluster) for step in default.trace)
    assert widest < max(len(step.cluster) for step in caller.trace)


def test_sat_via_rmap_matches_the_truth_table():
    # The witness is the lexicographically first satisfying assignment, the
    # Reverse-MAP tie rule, and it is checked against the truth table.
    outcomes = {True: 0, False: 0}
    for seed in range(200):
        formula = parse_dimacs(random_cnf(seed + 500, max_vars=8, ratio=(2.0, 5.0)[seed % 2]))
        table = truth_table(formula)
        ok, witness = sat_via_rmap(formula)
        assert ok == bool(table.any())
        outcomes[ok] += 1
        if ok:
            first = np.unravel_index(int(np.argmax(table)), table.shape)
            assert witness == dict(zip(formula.variables, map(int, first)))
            assert evaluate(formula.root, witness)
        else:
            assert witness is None
    assert min(outcomes.values()) >= 20, outcomes


def test_default_and_caller_orders_agree_on_forced_sat_circuits():
    for seed in range(20):
        formula = parse_dimacs(random_cnf(seed + 900, max_vars=9, ratio=3.0))
        scm, sentinel = compile_formula(formula)
        targets = [scm.by_name(n).id for n in formula.variables]
        whole = EliminationOrder(
            minfill_order(moral_graph(scm), constrained_suffix=targets).sequence,
            frozenset(targets))
        default = rmap_table(scm, targets, {sentinel: 1}, {})
        caller = rmap_table(scm, targets, {sentinel: 1}, {}, order=whole)
        assert np.array_equal(default.values, caller.values)
