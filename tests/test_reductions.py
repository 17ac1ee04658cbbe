"""Formula parsing, circuit compilation and the hardness-proof identities."""

from fractions import Fraction

import numpy as np
import pytest

from unitsel import ModelError, brute_rmap, posterior, rmap_table, rmap_ve, validate
from unitsel.reductions import (
    AND_TABLE,
    FOLD_FAN_IN,
    And,
    Formula,
    Not,
    Or,
    Var,
    collect_names,
    compile_formula,
    emajsat_ratio,
    evaluate,
    parse_dimacs,
    sat_via_rmap,
    truth_table,
    _compile,
    _FoldedGates,
    _PaperGates,
)
from unitsel.worlds import enumerate_instantiations
from corpus import forward_eval, gate_count, random_cnf


def test_parse_single_literal():
    f = parse_dimacs("p cnf 1 1\n1 0\n")
    assert f.root == Var("x1")
    assert f.variables == ("x1",)


def test_parse_two_clauses():
    f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n")
    assert f.root == And(Or(Var("x1"), Var("x2")), Not(Var("x1")))


def test_parse_right_nesting():
    f = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
    assert f.root == Or(Var("x1"), Or(Var("x2"), Var("x3")))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ModelError, match="mismatch"):
        parse_dimacs("p cnf 2 2\n1 0\n")
    with pytest.raises(ModelError, match="line 2"):
        parse_dimacs("p cnf 1 1\n5 0\n")
    with pytest.raises(ModelError, match="line 1"):
        parse_dimacs("p x 1 1\n1 0\n")
    with pytest.raises(ModelError, match="header"):
        parse_dimacs("1 0\n")
    with pytest.raises(ModelError, match="terminated"):
        parse_dimacs("p cnf 1 1\n1\n")
    with pytest.raises(ModelError, match="^line 2: empty clause$"):
        parse_dimacs("p cnf 1 1\n0\n")
    with pytest.raises(ModelError):
        parse_dimacs("p cnf 1 0\n")
    # Only ASCII decimal integers: Python's int() would read x10 and x1 here.
    with pytest.raises(ModelError, match="line 1"):
        parse_dimacs("p cnf 1_0 1\n1_0 0\n")
    with pytest.raises(ModelError, match="line 2"):
        parse_dimacs("p cnf 1 1\n\uff11 0\n")
    with pytest.raises(ModelError, match="line 2"):
        parse_dimacs("p cnf 10 1\n1_0 0\n")


def test_parse_refuses_a_repeated_header():
    # The second header once replaced the first: the first text read as a
    # valid 1-clause formula although its first header declares 2 clauses.
    with pytest.raises(ModelError, match="^line 3: repeated DIMACS header 'p cnf 5 1'$"):
        parse_dimacs("p cnf 5 2\n1 0\np cnf 5 1\n")
    # And this one failed as "undeclared variables".
    with pytest.raises(ModelError, match="^line 3: repeated DIMACS header"):
        parse_dimacs("p cnf 3 1\n1 2 3 0\np cnf 1 1\n")


def test_parse_comments_and_unused_variables():
    f = parse_dimacs("c comment\np cnf 3 1\nc another\n1 0\n")
    assert f.variables == ("x1", "x2", "x3")
    assert collect_names(f.root) == {"x1"}


def test_compile_single_variable():
    f = parse_dimacs("p cnf 1 1\n1 0\n")
    scm, sentinel = compile_formula(f)
    assert scm.n == 1 and sentinel == 0
    marg = posterior(scm, {sentinel}, {})
    assert np.allclose(marg.flat, [0.5, 0.5])


def test_compile_contradiction_probability_zero():
    f = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
    scm, sentinel = compile_formula(f)
    marg = posterior(scm, {sentinel}, {})
    assert marg[{sentinel: 1}] == 0.0


def test_compiled_circuits_are_functional_and_linear():
    for seed in range(5):
        f = parse_dimacs(random_cnf(seed, max_vars=8))
        scm, sentinel = compile_formula(f)
        report = validate(scm)
        assert report.is_valid_scm
        assert scm.n == len(f.variables) + gate_count(f.root)
        assert not scm.children[sentinel]  # single leaf


def test_compiled_circuits_share_read_only_gate_tables():
    # Writable gate tables were copied into every circuit, and a write to one
    # changed every circuit compiled after it.
    sentinel_tables = []
    for text in ("p cnf 2 2\n1 2 0\n-1 2 0\n", "p cnf 3 2\n1 -3 0\n2 0\n"):
        scm, sentinel = compile_formula(parse_dimacs(text))  # the root is an AND
        sentinel_tables.append(scm.tables[sentinel])
    assert sentinel_tables[0] is sentinel_tables[1]
    assert np.array_equal(sentinel_tables[0], AND_TABLE)
    with pytest.raises(ValueError):
        AND_TABLE[0, 0, 0] = 0.0


def test_repeated_literal_clause():
    f = parse_dimacs("p cnf 1 1\n1 1 0\n")
    scm, sentinel = compile_formula(f)
    assert validate(scm).is_valid_scm
    marg = posterior(scm, {sentinel}, {})
    assert np.allclose(marg.flat, [0.5, 0.5])


def test_circuit_sentinel_matches_ast_evaluation_exhaustively():
    f = parse_dimacs("p cnf 4 3\n1 -2 0\n2 3 -4 0\n-1 4 0\n")
    scm, sentinel = compile_formula(f)
    roots = [scm.by_name(name).id for name in f.variables]
    for u in enumerate_instantiations(scm, roots):
        implied = forward_eval(scm, u)
        expected = evaluate(f.root, {f.variables[i]: u[r] for i, r in enumerate(roots)})
        assert implied[sentinel] == int(expected)


def test_sentinel_probability_counts_models():
    for seed in range(5):
        f = parse_dimacs(random_cnf(seed + 20, max_vars=8))
        scm, sentinel = compile_formula(f)
        marg = posterior(scm, {sentinel}, {})
        count = int(truth_table(f).sum())
        assert abs(marg[{sentinel: 1}] - count / 2 ** len(f.variables)) < 1e-12


def test_emajsat_ratio_examples():
    taut = Formula(Or(Var("v1"), Not(Var("v1"))), ("u1", "v1"), ("u1",), ("v1",))
    assert emajsat_ratio(taut, {"u1": 0}) == Fraction(1)
    conj = Formula(And(Var("u1"), Var("v1")), ("u1", "v1"), ("u1",), ("v1",))
    assert emajsat_ratio(conj, {"u1": 1}) == Fraction(1, 2)
    assert emajsat_ratio(conj, {"u1": 0}) == Fraction(0)


def test_emajsat_ratio_guards():
    f = Formula(Var("u1"), ("u1",) + tuple(f"v{i}" for i in range(25)),
                ("u1",), tuple(f"v{i}" for i in range(25)))
    with pytest.raises(ModelError, match="bound"):
        emajsat_ratio(f, {"u1": 1})
    g = Formula(Var("u1"), ("u1", "v1"), ("u1",), ("v1",))
    with pytest.raises(ModelError):
        emajsat_ratio(g, {})
    plain = Formula(Var("u1"), ("u1",))
    with pytest.raises(ModelError, match="partition"):
        emajsat_ratio(plain, {"u1": 1})


def test_emajsat_ratio_refuses_values_other_than_0_or_1():
    # On (x1 or x2), {x1: 2} and {x1: -1} once counted as x1 = 1 (ratio 1).
    f = Formula(Or(Var("x1"), Var("x2")), ("x1", "x2"), ("x1",), ("x2",))
    assert emajsat_ratio(f, {"x1": 0}) == Fraction(1, 2)
    assert emajsat_ratio(f, {"x1": 1}) == Fraction(1)
    for value in (2, -1, True, 0.5):
        with pytest.raises(ModelError, match="0 or 1"):
            emajsat_ratio(f, {"x1": value})


def test_emajsat_matches_circuit_conditional():
    from unitsel import query_prob

    for seed in range(4):
        f = parse_dimacs(random_cnf(seed + 40, max_vars=6))
        half = len(f.variables) // 2 or 1
        f = f.with_partition(f.variables[:half], f.variables[half:])
        scm, sentinel = compile_formula(f)
        u_ids = [scm.by_name(n).id for n in f.u_vars]
        for u in enumerate_instantiations(scm, u_ids):
            named = {scm.var(k).name: s for k, s in u.items()}
            expected = emajsat_ratio(f, named)
            got = query_prob(scm, {sentinel: 1}, u)
            assert abs(got - float(expected)) < 1e-12


def test_sat_via_rmap_unsat():
    f = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
    ok, witness = sat_via_rmap(f)
    assert not ok and witness is None


def test_sat_via_rmap_on_a_bare_variable_formula():
    # The formula's root is x2 itself, so the sentinel is a declared
    # variable: e1 sets it, and it is no target (once refused as overlapping).
    f = parse_dimacs("p cnf 2 1\n2 0\n")
    assert sat_via_rmap(f) == (True, {"x1": 0, "x2": 1})
    assert truth_table(f).tolist() == [[False, True], [False, True]]
    assert sat_via_rmap(parse_dimacs("p cnf 1 1\n-1 0\n")) == (True, {"x1": 0})


def test_sat_via_rmap_witness_satisfies():
    for seed in range(6):
        f = parse_dimacs(random_cnf(seed + 60, max_vars=7))
        expected = bool(truth_table(f).any())
        ok, witness = sat_via_rmap(f)
        assert ok == expected
        if ok:
            assert evaluate(f.root, witness)
        # The brute-force oracle on the compiled circuit agrees.
        scm, sentinel = compile_formula(f)
        targets = [scm.by_name(name).id for name in f.variables]
        brute = brute_rmap(scm, targets, {sentinel: 1}, {})
        assert (brute.value > 0.0) == expected
        if expected:
            assert evaluate(f.root, {scm.var(v).name: s for v, s in brute.instantiation.items()})


def test_sentinel_conditional_is_zero_one():
    f = parse_dimacs(random_cnf(3, max_vars=6))
    scm, sentinel = compile_formula(f)
    from unitsel import rmap_table

    roots = [scm.by_name(n).id for n in f.variables]
    table = rmap_table(scm, roots, {sentinel: 1}, {})
    assert set(np.unique(table.values)) <= {0.0, 1.0}


def test_evaluate_large_formula():
    # The conjunction nests one level per clause: 1,200 clauses are deeper
    # than the recursion limit.
    clauses = [(i % 40 + 1, -(7 * i % 40 + 1), 13 * i % 40 + 1) for i in range(1200)]
    text = "p cnf 40 1200\n" + "".join(f"{a} {b} {c} 0\n" for a, b, c in clauses)
    f = parse_dimacs(text)
    rng = np.random.default_rng(5)
    for _ in range(20):
        bits = rng.integers(0, 2, size=40)
        assignment = {f"x{i + 1}": int(b) for i, b in enumerate(bits)}
        expected = all(any((bits[abs(l) - 1] == 1) == (l > 0) for l in c) for c in clauses)
        assert evaluate(f.root, assignment) == expected


def test_formula_refuses_a_repeated_variable():
    # The repeat once gave a (2, 2, 2) truth table with 2 satisfying cells.
    with pytest.raises(ModelError, match=r"more than once: \['a'\]"):
        Formula(And(Var("a"), Var("b")), ("a", "b", "a"))
    with pytest.raises(ModelError, match="partition"):
        Formula(And(Var("a"), Var("b")), ("a", "b"), ("a", "a"), ("b",))


def test_gate_name_taken_by_a_variable_gets_a_prime():
    scm, sentinel = compile_formula(Formula(Or(Var("s1"), Not(Var("s2"))), ("s1", "s2")))
    assert [v.name for v in scm.variables] == ["s1", "s2", "s1'", "s2'"]
    assert sentinel == 3
    assert scm.parents == {0: (), 1: (), 2: (1,), 3: (0, 2)}


def test_formula_partition_validation():
    with pytest.raises(ModelError):
        Formula(Var("x1"), ("x1", "x2"), ("x1",), ("x1",))
    with pytest.raises(ModelError):
        Formula(Var("x9"), ("x1",))
    with pytest.raises(ModelError, match="^a partition must give both u and v blocks$"):
        Formula(Var("x1"), ("x1",), ("x1",), None)


def test_formula_refuses_variable_names_that_are_not_strings():
    # compile_formula once built a model with a variable named 1, which
    # save_model wrote and load_model refused.
    with pytest.raises(ModelError, match=r"^formula variable names must be strings: \(1,\)$"):
        compile_formula(Formula(Not(Var(1)), (1,)))


def random_formula(rng: np.random.Generator, names: tuple[str, ...], depth: int):
    """A random AST over ``names`` with nested NOT, AND and OR."""
    if depth == 0 or rng.random() < 0.2:
        return Var(names[int(rng.integers(len(names)))])
    kind = int(rng.integers(3))
    if kind == 0:
        return Not(random_formula(rng, names, depth - 1))
    left, right = random_formula(rng, names, depth - 1), random_formula(rng, names, depth - 1)
    return (And if kind == 1 else Or)(left, right)


def random_formulas(count: int):
    rng = np.random.default_rng(4242)
    for _ in range(count):
        names = tuple(f"x{i}" for i in range(1, int(rng.integers(1, 6)) + 1))
        yield Formula(random_formula(rng, names, int(rng.integers(1, 7))), names)


def _grid(formula: Formula, kind) -> tuple[list[str], np.ndarray]:
    """The circuit's targets and its Reverse-MAP profile Pr(sentinel = 1 | u)
    over them, axes in declaration order."""
    scm, sentinel = _compile(formula, kind)
    targets = [scm.by_name(n).id for n in formula.variables if scm.by_name(n).id != sentinel]
    profile = rmap_table(scm, targets, {sentinel: 1}, {})
    return ([scm.var(v).name for v in targets],
            np.transpose(profile.values, [profile.vids.index(v) for v in targets]))


EDGE_CNFS = {
    "repeated literal": "p cnf 1 1\n1 1 0\n",
    "tautological clause": "p cnf 2 2\n1 -1 0\n2 0\n",
    "bare variable": "p cnf 2 1\n2 0\n",
    "negated-literal root": "p cnf 1 1\n-1 0\n",
    "clause wider than the cap": "p cnf 7 2\n1 -2 3 -4 5 -6 7 0\n-1 2 0\n",
    "conjunction longer than the cap": "p cnf 6 6\n1 2 0\n-2 0\n3 -4 0\n4 0\n-5 6 0\n5 0\n",
    "contradiction": "p cnf 1 2\n1 0\n-1 0\n",
}


def test_folded_and_paper_circuits_agree_on_edge_cases_and_random_asts():
    formulas = [*map(parse_dimacs, EDGE_CNFS.values()),
                Formula(Not(Not(Var("a"))), ("a", "b")),
                Formula(Or(Not(Not(Var("a"))), Not(Var("b"))), ("a", "b")),
                *random_formulas(150)]
    for formula in formulas:
        names, folded = _grid(formula, _FoldedGates)
        paper_names, paper = _grid(formula, _PaperGates)
        assert names == paper_names
        assert np.array_equal(folded, paper)
        if not isinstance(formula.root, Var):
            # Every declared variable is a target, so the grid is the truth table.
            assert np.array_equal(folded, truth_table(formula).astype(float))


def test_sat_via_rmap_returns_the_first_satisfying_assignment_of_random_asts():
    outcomes = {True: 0, False: 0}
    for formula in random_formulas(300):
        table = truth_table(formula)
        ok, witness = sat_via_rmap(formula)
        assert ok == bool(table.any())
        outcomes[ok] += 1
        if ok:
            first = np.unravel_index(int(np.argmax(table)), table.shape)
            assert witness == dict(zip(formula.variables, map(int, first)))
        else:
            assert witness is None
    assert min(outcomes.values()) >= 20, outcomes


def test_folded_gates_cap_their_fan_in_and_share_read_only_tables():
    # Two clauses with one sign pattern over ascending variables, (+, -, +).
    scm, sentinel = _compile(parse_dimacs("p cnf 9 3\n1 -2 3 0\n6 4 -5 0\n"
                                          "1 2 3 4 5 6 7 8 9 0\n"), _FoldedGates)
    gates = {scm.parents[v.id]: v.id for v in scm.variables[9:]}
    clauses = [gates[(0, 1, 2)], gates[(3, 4, 5)]]
    assert scm.tables[clauses[0]] is scm.tables[clauses[1]]
    with pytest.raises(ValueError):
        scm.tables[clauses[0]][0, 0, 0, 0] = 1.0
    assert FOLD_FAN_IN == 4
    assert all(len(scm.parents[g]) <= 4 for g in gates.values())
    assert max(scm.tables[g].size for g in gates.values()) == 32
    assert validate(scm).is_valid_scm


def test_a_folded_3cnf_sums_out_no_gate_but_its_sentinel():
    # No NOT gate exists, and the sentinel forces every clause gate and every
    # gate of the conjunction, so the sum pass only removes the sentinel's
    # own evidence indicator. The paper's circuit sums out its inner gates.
    formula = parse_dimacs(random_cnf(11, max_vars=12, ratio=4.3))
    for kind, paper in ((_FoldedGates, False), (_PaperGates, True)):
        scm, sentinel = _compile(formula, kind)
        targets = [scm.by_name(n).id for n in formula.variables]
        result = rmap_ve(scm, targets, {sentinel: 1}, {}, want_trace=True)
        summed = {step.var for step in result.trace} - set(targets)
        assert (summed != {sentinel}) == paper
