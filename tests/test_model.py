"""SCM structure, validation, joint semantics and the JSON format."""

import itertools
import json
import math
import re

import numpy as np
import pytest

from unitsel import (
    ModelError,
    Scm,
    Variable,
    build_objective_model,
    counterfactual_query,
    evidence_to_lambdas,
    fixture_path,
    joint_prob,
    load_model,
    make_scm,
    mutilate,
    n_world_model,
    save_model,
    validate,
)
from unitsel.bench import gen_benefit_objective
from unitsel.factor import FactorError, multiply_all
from corpus import (forward_eval, reference_check, reference_load_model,
                    reference_topological_order, small_scm)


@pytest.fixture()
def two_node():
    with open(fixture_path("two_node.json"), "rb") as fh:
        return fh.read()


def test_two_node_is_valid_bn_but_not_functional(two_node):
    scm = load_model(two_node, allow_nonfunctional=True)
    report = validate(scm)
    assert report.acyclic and report.normalized
    assert report.is_valid_bn and not report.functional
    with pytest.raises(ModelError):
        load_model(two_node)  # functional check enforced by default


def test_cycle_reported():
    scm = make_scm(
        [("A", ["0", "1"]), ("B", ["0", "1"])],
        {"A": ["B"], "B": ["A"]},
        {"A": [1, 0, 0, 1], "B": [1, 0, 0, 1]},
    )
    report = validate(scm)
    assert not report.acyclic
    assert any("cyclic" in v for v in report.violations)


def test_validation_runs_once_per_model(monkeypatch, two_node):
    # load_model validates, and a later validate of the same model (as
    # build_objective_model makes) reuses that report; each caller gets its
    # own copy, so editing one leaves the next unchanged.
    from unitsel import model

    checks = []
    check = model._check
    monkeypatch.setattr(model, "_check", lambda scm: checks.append(scm) or check(scm))
    scm = load_model(two_node, allow_nonfunctional=True)
    first = validate(scm)
    first.violations.append("edited")
    first.functional_status.clear()
    second = validate(scm)
    assert len(checks) == 1
    assert second.violations == ["internal variable 'V' has a non-functional CPT"]
    assert second.functional_status == {1: False} and not second.functional


def test_normalization_violation_reported():
    scm = make_scm(
        [("A", ["0", "1"])],
        {"A": []},
        {"A": [0.4, 0.5]},
    )
    report = validate(scm)
    assert not report.normalized


def test_joint_prob_two_node(two_node):
    scm = load_model(two_node, allow_nonfunctional=True)
    assert math.isclose(joint_prob(scm, {0: 0, 1: 0}), 0.12, rel_tol=1e-12)
    total = sum(
        joint_prob(scm, {0: u, 1: v}) for u in range(2) for v in range(2)
    )
    assert math.isclose(total, 1.0, rel_tol=1e-9)
    with pytest.raises(ModelError):
        joint_prob(scm, {0: 0})  # missing assignment


def test_joint_prob_zero_mass_root():
    scm = make_scm(
        [("A", ["0", "1"]), ("B", ["0", "1"])],
        {"A": [], "B": ["A"]},
        {"A": [1.0, 0.0], "B": [1, 0, 0, 1]},
    )
    assert joint_prob(scm, {0: 1, 1: 1}) == 0.0


def test_joint_prob_refuses_bad_states():
    # A state of -1 once read the last state's entry (0.7 here, the mass with
    # A = 1), the cardinality raised a raw IndexError and True a raw
    # TypeError.
    with open(fixture_path("five_node.json"), "rb") as fh:
        scm = load_model(fh.read())
    full = {0: 1, 1: 1, 2: 0, 3: 1, 4: 0}
    assert joint_prob(scm, full) == 0.7
    for state in (-1, 2, True):
        with pytest.raises(ModelError, match=f"state {state} out of range for 'A'"):
            joint_prob(scm, {**full, 0: state})
    with pytest.raises(ModelError, match="missing variable id 4"):
        joint_prob(scm, {0: 1, 1: 1, 2: 0, 3: 1})


def test_lambda_factors(two_node):
    scm = load_model(two_node, allow_nonfunctional=True)
    lams = evidence_to_lambdas(scm, {1: 0})
    assert len(lams) == 1 and list(lams[0].flat) == [1.0, 0.0]
    assert evidence_to_lambdas(scm, {}) == []
    two = evidence_to_lambdas(scm, {0: 1, 1: 0})
    product = multiply_all(two)
    assert list(product.flat) == [0.0, 0.0, 1.0, 0.0]


def test_save_load_roundtrip_byte_stable(two_node):
    scm = load_model(two_node, allow_nonfunctional=True)
    data = save_model(scm)
    again = save_model(load_model(data, allow_nonfunctional=True))
    assert data == again


def test_instantiation_refuses_a_state_the_variable_lacks(two_node):
    # A state once escaped as FactorError from Variable.state_index, while an
    # unknown name was refused with ModelError.
    scm = load_model(two_node, allow_nonfunctional=True)
    assert scm.instantiation({"V": "v2", "U": "u1"}) == {1: 1, 0: 0}
    with pytest.raises(ModelError, match="^variable 'V' has no state 'v3'$"):
        scm.instantiation({"V": "v3"})
    with pytest.raises(ModelError, match="^no variable named 'W'$"):
        scm.instantiation({"W": "v1"})


def test_load_errors_name_the_node(two_node):
    import json

    doc = json.loads(two_node)
    doc["cpts"]["V"] = [0.6, 0.4]  # wrong length
    with pytest.raises(ModelError, match="V"):
        load_model(json.dumps(doc))
    doc = json.loads(two_node)
    doc["parents"]["V"] = ["W"]
    with pytest.raises(ModelError, match="W"):
        load_model(json.dumps(doc))
    doc = json.loads(two_node)
    del doc["parents"]["U"]
    with pytest.raises(ModelError, match="U"):
        load_model(json.dumps(doc))
    with pytest.raises(ModelError):
        load_model(b"not json")


def test_load_model_refuses_non_number_cpt_entries(two_node):
    # float() and numpy once read true as 1.0 and "0.5" as 0.5, and raised a
    # raw TypeError on an object.
    import json

    for cpt, message in (
        ([True, False], "True is not a number"),
        (["0.5", "0.5"], "'0.5' is not a number"),
        ([None, 1.0], "None is not a number"),
        ([{"p": 1}, 0.5], "is not a number"),
        ([[0.2, 0.8]], "is not a number"),
        ([10**400, 0.0], "out of range"),
        ({"p": 1}, "must be a list of numbers"),
        ("0.2", "must be a list of numbers"),
    ):
        doc = json.loads(two_node)
        doc["cpts"]["U"] = cpt
        with pytest.raises(ModelError, match=f"CPT of 'U'.*{message}"):
            load_model(json.dumps(doc), allow_nonfunctional=True)


@pytest.mark.parametrize(
    "doc, message",
    [
        ('"variables"', "must be a JSON object"),
        ("[1]", "must be a JSON object"),
        ('{"variables": [], "parents": {}, "cpts": []}', "'cpts' must be an object"),
        ('{"variables": 5, "parents": {}, "cpts": {}}', "'variables' must be an array"),
        ('{"variables": [], "parents": [], "cpts": {}}', "'parents' must be an object"),
        ('{"variables": [5], "parents": {}, "cpts": {}}', "position 0"),
        ('{"variables": [{"name": 5, "states": ["0"]}], "parents": {}, "cpts": {}}', "position 0"),
        ('{"variables": [{"name": "A", "states": "01"}], "parents": {"A": []}, "cpts": {"A": [1, 0]}}',
         "position 0"),
        ('{"variables": [{"name": "A", "states": [0, 1]}], "parents": {"A": []}, "cpts": {"A": [1, 0]}}',
         "position 0"),
        ('{"variables": [{"name": "A", "states": ["0"]}], "parents": {"A": 5}, "cpts": {"A": [1]}}',
         "parents of 'A' must be a list"),
        ('{"variables": [{"name": "A", "states": ["0"]}], "parents": {"A": [[1]]}, "cpts": {"A": [1]}}',
         "unknown variable \\[1\\]"),
        ('{"variables": [{"name": "A", "states": []}], "parents": {"A": []}, "cpts": {"A": []}}',
         "'A' needs cardinality >= 1"),
        ('{"variables": [{"name": "A", "states": ["0", "0"]}], "parents": {"A": []}, '
         '"cpts": {"A": [1, 0]}}', "'A': duplicate state names"),
        ('{"variables": [{"name": "A", "states": ["0"]}], "parents": {"A": []}, "cpts": {}}',
         "no CPT for variable 'A'"),
        ('{"variables": [{"name": "A", "states": ["0"]}, {"name": "A", "states": ["0"]}], '
         '"parents": {"A": []}, "cpts": {"A": [1]}}', "variable names must be unique"),
    ],
)
def test_load_model_refuses_malformed_shapes(doc, message):
    # These once raised AttributeError or TypeError, or read "01" as two states.
    with pytest.raises(ModelError, match=message):
        load_model(doc, allow_nonfunctional=True)


@pytest.mark.parametrize(
    "data, message",
    [
        (b"\xff", "'utf-8' codec can't decode byte 0xff"),
        (b'{"variables": [', "Expecting value"),
        (b"[" * 100_000, "maximum recursion depth exceeded"),
    ],
    ids=["undecodable", "malformed", "too-deep"],
)
def test_load_model_refuses_unreadable_json(data, message):
    # Undecodable bytes once raised UnicodeDecodeError, and deep nesting a raw
    # RecursionError.
    with pytest.raises(ModelError, match=f"^malformed model document: {message}"):
        load_model(data)


def test_load_model_refuses_invalid_documents(two_node):
    doc = json.loads(two_node)
    doc["parents"]["U"] = ["V"]
    doc["cpts"] = {"U": [1, 0, 0, 1], "V": [1, 0, 0, 1]}
    with pytest.raises(ModelError, match="^parent relation is cyclic$"):
        load_model(json.dumps(doc), allow_nonfunctional=True)
    doc = json.loads(two_node)
    doc["cpts"]["U"] = [0.5, 0.6]
    with pytest.raises(ModelError, match=r"^CPT rows of 'U' do not sum to 1 \(first bad row index 0\);"):
        load_model(json.dumps(doc), allow_nonfunctional=True)
    doc = json.loads(two_node)
    del doc["cpts"]
    with pytest.raises(ModelError, match="^model document missing 'cpts'$"):
        load_model(json.dumps(doc), allow_nonfunctional=True)


@pytest.mark.parametrize(
    "parents, tables, message",
    [
        ({"A": [], "B": None}, {}, "parents of 'B' must be a list of names"),
        ({"A": [], "B": ["Z"]}, {}, "unknown variable 'Z' referenced by parents of 'B'"),
        ({"A": [], "B": ["A"]}, {"C": [1.0]}, "unknown variable 'C' referenced by cpts"),
    ],
)
def test_make_scm_resolves_names_as_load_model_does(parents, tables, message):
    # Each once escaped make_scm as a raw TypeError or KeyError.
    tables = {"A": [0.5, 0.5], "B": [1.0, 0.0, 0.0, 1.0], **tables}
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        make_scm([("A", ["0", "1"]), ("B", ["0", "1"])], parents, tables)
    doc = {"variables": [{"name": n, "states": ["0", "1"]} for n in "AB"],
           "parents": parents, "cpts": tables}
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        load_model(json.dumps(doc))


@pytest.mark.parametrize("cpt", ["[1.5, -0.5]", "[NaN, NaN]", "[Infinity, -Infinity]"])
def test_load_model_refuses_non_probability_cpt_entries(cpt):
    # Each row sums to 1 or to NaN, which the normalization check let through.
    doc = ('{"variables": [{"name": "U", "states": ["0", "1"]}], "parents": {"U": []}, '
           f'"cpts": {{"U": {cpt}}}}}')
    with pytest.raises(ModelError, match="CPT of 'U': entry .* is negative, infinite or NaN"):
        load_model(doc)


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf, -0.5])
def test_scm_refuses_non_probability_entries(entry):
    # Models built through the API were once unchecked: brute force answered
    # with the bad entry, and VE failed inside Factor.
    table = [0.5, 0.5, 1.0, 0.0, entry, 1.0]
    message = f"CPT of 'B': entry {entry!r} is negative, infinite or NaN"
    with pytest.raises(ModelError, match=re.escape(message)):
        make_scm([("A", ["0", "1"]), ("B", ["0", "1", "2"])], {"A": [], "B": ["A"]},
                 {"A": [1.0, 0.0], "B": table})
    variables = [Variable(0, "A", 2, ("0", "1")), Variable(1, "B", 3, ("0", "1", "2"))]
    with pytest.raises(ModelError, match=re.escape(message)):
        Scm(variables, {0: (), 1: (0,)}, {0: np.array([1.0, 0.0]), 1: np.array(table)})


def test_scm_refuses_negative_prior_that_brute_force_answered():
    # validate() calls this a legal SCM (every row sums to 1), and
    # unit_select(method="brute") once answered L = 1.5 for Pr(Y=1 | u).
    with pytest.raises(ModelError, match="CPT of 'R': entry -0.5 is negative"):
        make_scm(
            [("U", ["0", "1"]), ("R", ["0", "1"]), ("Y", ["0", "1"])],
            {"U": [], "R": [], "Y": ["U", "R"]},
            {"U": [0.5, 0.5], "R": [1.5, -0.5], "Y": [1, 0, 0, 1, 0, 1, 1, 0]},
        )


def test_model_with_no_variables_loads():
    scm = load_model('{"variables": [], "parents": {}, "cpts": {}}')
    assert scm.n == 0 and validate(scm).is_valid_scm
    assert Scm([], {}, {}).n == 0


def test_cpt_factor_is_a_read_only_copy_in_sorted_scope():
    # B (id 0) has parent A (id 1), so the factor transposes the storage.
    a, b = np.array([0.25, 0.75]), np.array([[0.5, 0.5], [0.125, 0.875]])
    scm = make_scm([("B", ["0", "1"]), ("A", ["0", "1"])], {"A": [], "B": ["A"]},
                   {"A": a, "B": b})
    a[:] = b[:] = 7.0
    for vid in (0, 1):
        f = scm.cpt_factor(vid)
        assert not f.values.flags.writeable
        storage_to_sorted = np.argsort(scm.parents[vid] + (vid,))
        assert np.array_equal(f.values, scm.tables[vid].transpose(storage_to_sorted))
    assert scm.cpt_factor(0).values.tolist() == [[0.5, 0.125], [0.5, 0.875]]
    assert scm.cpt_factor(1).values.tolist() == [0.25, 0.75]


def test_cpt_factor_matches_storage_order():
    scm = make_scm(
        [("B", ["0", "1"]), ("A", ["0", "1"])],
        {"A": [], "B": ["A"]},  # parent id (1) greater than child id (0)
        {"A": [0.25, 0.75], "B": [0.5, 0.5, 0.125, 0.875]},
    )
    f = scm.cpt_factor(0)
    assert f.vids == (0, 1)
    # storage rows are (parent a, child b); factor axes are (B, A)
    assert f[{1: 0, 0: 0}] == 0.5
    assert f[{1: 1, 0: 0}] == 0.125
    assert f[{1: 1, 0: 1}] == 0.875


@pytest.mark.parametrize("seed", range(8))
def test_joint_sums_to_one_on_random_models(seed):
    scm = small_scm(seed, lo=4, hi=7)
    total = 0.0
    for states in itertools.product(*[range(2)] * scm.n):
        total += joint_prob(scm, dict(enumerate(states)))
    assert math.isclose(total, 1.0, rel_tol=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_functional_models_have_unique_world_per_root_state(seed):
    scm = small_scm(seed, lo=4, hi=7)
    assert validate(scm).is_valid_scm
    roots = sorted(scm.roots)
    endo = sorted(scm.endogenous())
    for root_states in itertools.product(*[range(2)] * len(roots)):
        root_inst = dict(zip(roots, root_states))
        support = []
        for endo_states in itertools.product(*[range(2)] * len(endo)):
            full = {**root_inst, **dict(zip(endo, endo_states))}
            p = joint_prob(scm, full)
            if p > 0:
                support.append((full, p))
        assert len(support) == 1
        full, p = support[0]
        prior = math.prod(float(scm.tables[r][root_inst[r]]) for r in roots)
        assert math.isclose(p, prior, rel_tol=1e-12)
        assert full == forward_eval(scm, root_inst)


A = Variable(0, "A", 2, ("0", "1"))
B = Variable(1, "B", 2, ("0", "1"))
PRIOR, IDENTITY = [0.5, 0.5], [1.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize(
    "variables, parents, tables, message",
    [
        ([B], {1: ()}, {1: PRIOR}, "variable ids must be dense 0..n-1 in declaration order"),
        ([A, B], {0: ()}, {0: PRIOR, 1: IDENTITY}, "no parent list for variable 'B'"),
        ([A, B], {0: (), 1: (0, 0)}, {0: PRIOR, 1: IDENTITY}, "duplicate parent for variable 'B'"),
        ([A, B], {0: (), 1: (5,)}, {0: PRIOR, 1: IDENTITY}, "unknown parent id 5 for variable 'B'"),
        ([A, B], {0: (), 1: (-1,)}, {0: PRIOR, 1: IDENTITY},
         "unknown parent id -1 for variable 'B'"),
        ([A, B], {0: (), 1: (np.int64(2),)}, {0: PRIOR, 1: IDENTITY},
         "unknown parent id 2 for variable 'B'"),
        ([A, B], {0: (), 1: (1,)}, {0: PRIOR, 1: IDENTITY}, "variable 'B' lists itself as parent"),
        ([A, B], {0: (), 1: (0,)}, {0: PRIOR}, "no CPT for variable 'B'"),
        ([A, B], {0: (), 1: (0,)}, {0: PRIOR, 1: [1.0, 0.0, 1.0]},
         "CPT for variable 'B' has 3 entries, expected 4"),
    ],
)
def test_scm_refusal_messages(variables, parents, tables, message):
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        Scm(variables, parents, tables)


@pytest.mark.parametrize(
    "parents, tables, violations",
    [
        ({0: (1,), 1: (0,)}, {0: IDENTITY, 1: IDENTITY}, ["parent relation is cyclic"]),
        ({0: (), 1: (0,)}, {0: [0.5, 0.4], 1: [1.0, 0.0, 0.0, 0.9]},
         ["CPT rows of 'A' do not sum to 1 (first bad row index 0)",
          "CPT rows of 'B' do not sum to 1 (first bad row index 1)",
          "internal variable 'B' has a non-functional CPT"]),
        ({0: (), 1: (0,)}, {0: PRIOR, 1: [1.0, 0.0, 0.25, 0.75]},
         ["internal variable 'B' has a non-functional CPT"]),
        ({0: (), 1: (0,)}, {0: PRIOR, 1: IDENTITY}, []),
    ],
)
def test_validation_messages(parents, tables, violations):
    assert validate(Scm([A, B], parents, tables)).violations == violations


@pytest.mark.parametrize("pid, text", [(0.7, "0.7"), ("0", "'0'"), (True, "True"), (0.0, "0.0")])
def test_scm_refuses_parent_ids_that_are_not_integers(pid, text):
    # int() once read 0.7, "0" and 0.0 as parent 0, and True as id 1, which
    # then "listed itself as parent".
    message = f"unknown parent id {text} for variable 'B'"
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        Scm([A, B], {0: (), 1: (pid,)}, {0: PRIOR, 1: IDENTITY})


def test_scm_reads_numpy_integer_parent_ids_as_ints():
    # Each parent list is read once, so an iterator keeps its ids.
    scm = Scm([A, B], {0: iter([]), 1: iter([np.int64(0)])}, {0: PRIOR, 1: IDENTITY})
    assert scm.parents == {0: (), 1: (0,)} and type(scm.parents[1][0]) is int


@pytest.mark.parametrize(
    "parents, table, message",
    [
        ({0: (), 1: (0,)}, [[1.0, 0.0], [0.0]], "CPT for variable 'B' is not an array of numbers"),
        ({0: (), 1: (0,)}, ["a", "b", "c", "d"], "CPT for variable 'B' is not an array of numbers"),
        ({0: (), 1: None}, IDENTITY, "no parent list for variable 'B'"),
    ],
)
def test_scm_refuses_bad_tables_and_parent_lists_with_model_error(parents, table, message):
    # Each once escaped as numpy's ValueError ("setting an array element with
    # a sequence", "could not convert string to float") or a TypeError.
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        Scm([A, B], parents, {0: PRIOR, 1: table})
    if parents[1] is not None:
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            make_scm([("A", ["0", "1"]), ("B", ["0", "1"])], {"A": [], "B": ["A"]},
                     {"A": PRIOR, "B": table})


def random_check_model(seed: int) -> Scm:
    """A model that may break every validation rule: cardinalities 1-9 (rows
    of 8 or more states take numpy's pairwise sum), parents drawn from every
    other variable (so cycles occur), rows off 1 by a little or a lot, and
    non-functional internal CPTs."""
    rng = np.random.default_rng([5923, seed])
    n = int(rng.integers(1, 8))
    cards = [int(c) for c in rng.integers(1, 10, size=n)]
    variables = [Variable(i, f"V{i}", c, tuple(map(str, range(c)))) for i, c in enumerate(cards)]
    parents, tables = {}, {}
    for i in range(n):
        others = [j for j in range(n) if j != i]
        k = int(rng.integers(0, min(2, len(others)) + 1))
        parents[i] = tuple(int(j) for j in rng.choice(others, size=k, replace=False))
        rows, c = math.prod(cards[p] for p in parents[i]), cards[i]
        if rng.random() < 0.7:
            table = np.zeros((rows, c))
            table[np.arange(rows), rng.integers(0, c, size=rows)] = 1.0
        else:
            table = rng.uniform(0.0, 1.0, size=(rows, c))
            table /= table.sum(axis=1, keepdims=True)
        if rng.random() < 0.25:
            bump = float(rng.choice([1e-13, 5e-10, 2e-9, 1e-3, 0.5]))
            table[rng.integers(0, rows), rng.integers(0, c)] += bump
        tables[i] = table
    return Scm(variables, parents, tables)


def test_validate_matches_the_per_variable_reference():
    seen = set()
    for seed in range(400):
        scm = random_check_model(seed)
        report, expected = validate(scm), reference_check(scm)
        assert report.acyclic == expected.acyclic, seed
        assert report.normalized == expected.normalized, seed
        assert list(report.functional_status.items()) == list(expected.functional_status.items())
        assert report.violations == expected.violations, seed
        if report.acyclic:
            assert scm.topological_order() == reference_topological_order(scm), seed
        seen.add((report.acyclic, report.normalized, report.functional))
    # The corpus reaches every combination of the three checks.
    assert len(seen) == 8


def test_scm_copies_writable_tables_and_shares_frozen_ones():
    prior, cpt = np.array([0.25, 0.75]), np.array([[1.0, 0.0], [0.0, 1.0]])
    scm = Scm([A, B], {0: (), 1: (0,)}, {0: prior, 1: cpt})
    prior[:] = cpt[:] = 7.0
    assert scm.tables[0].tolist() == [0.25, 0.75]
    assert scm.tables[1].tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert not any(t.flags.writeable for t in scm.tables.values())
    # A read-only view of a writable array is copied too.
    view = prior.view()
    view.flags.writeable = False
    again = Scm([A, B], {0: (), 1: (0,)}, {0: view, 1: scm.tables[1]})
    prior[:] = 0.5
    assert again.tables[0].tolist() == [7.0, 7.0]
    assert again.tables[1] is scm.tables[1]


def test_derived_models_share_the_base_tables():
    scm = small_scm(3)
    endo = scm.endogenous()
    objective = gen_benefit_objective(scm, endo[0], endo[-1], (0.4, 0.3, 0.2, 0.1),
                                      units=scm.roots[:1])
    om = build_objective_model(scm, objective)
    for b, vid in zip(om.unit_base_ids, om.unit_om_ids):
        assert om.model.tables[vid] is scm.tables[b]
    for component in om.components:
        for b, vid in component.roots.items():
            assert om.model.tables[vid] is scm.tables[b]
        for b, copies in component.endo.items():
            # World 1 is never mutilated, and no outcome there takes H.
            assert 1 not in copies or om.model.tables[copies[1]] is scm.tables[b]
    twin, worlds = n_world_model(scm, scm.roots, 2)
    for b, copies in worlds.copies.items():
        assert all(twin.tables[vid] is scm.tables[b] for vid in copies)
    cut = mutilate(scm, {endo[0]: 1})
    assert all(cut.tables[v] is scm.tables[v] for v in range(scm.n) if v != endo[0])
    # The counterfactual triplet: roots, then worlds 1-3, with [X] and [[X]] cut.
    x, y = endo[0], endo[-1]
    cf, _, _ = counterfactual_query(scm, {x: 0}, {y: 1}, {x: 1}, {y: 0}, {})
    bases = [*scm.roots, *endo * 3]
    cuts = {len(scm.roots) + len(endo) * k + endo.index(x) for k in (1, 2)}
    assert len(bases) == cf.n
    for vid, b in enumerate(bases):
        assert (cf.tables[vid] is scm.tables[b]) == (vid not in cuts)


def test_package_made_tables_are_shared_not_copied(monkeypatch):
    # Point masses, the mixture prior, the indicator tables, the clamped
    # outcome rows, the circuit priors and the loader's views were each
    # copied once more when a model was built on them.
    import unitsel.model
    from unitsel import compile_formula, parse_dimacs
    from unitsel.objective import _solve_model

    copies = []
    copy = unitsel.model._table_copy
    monkeypatch.setattr(unitsel.model, "_table_copy",
                        lambda *args: copies.append(args[0].name) or copy(*args))
    scm = small_scm(3)
    endo = scm.endogenous()
    objective = gen_benefit_objective(scm, endo[0], endo[-1], (0.4, 0.3, 0.2, 0.1),
                                      units=scm.roots[:2])
    copies.clear()
    _solve_model(scm, objective)
    build_objective_model(scm, objective)
    mutilate(scm, {endo[0]: 1})
    compile_formula(parse_dimacs("p cnf 3 3\n1 -2 0\n2 3 0\n-1 -3 0\n"))
    load_model(save_model(scm))
    assert copies == []


def _fuzz_base_document(rng: np.random.Generator) -> dict:
    """A legal model document: cardinalities 1-4, parents drawn from the
    variables declared before, and functional or not CPTs; the parents and
    CPTs are listed in declaration order or shuffled."""
    n = int(rng.integers(1, 7))
    cards = [int(c) for c in rng.integers(1, 5, size=n)]
    names = [f"V{i}" for i in range(n)]
    parents, cpts = {}, {}
    for i in range(n):
        ps = sorted(int(j) for j in rng.choice(i, size=int(rng.integers(0, min(2, i) + 1)),
                                                replace=False))
        rows = math.prod(cards[j] for j in ps)
        if rng.random() < 0.6:
            table = np.zeros((rows, cards[i]))
            table[np.arange(rows), rng.integers(0, cards[i], size=rows)] = 1.0
        else:
            table = rng.integers(1, 5, size=(rows, cards[i])).astype(float)
            table /= table.sum(axis=1, keepdims=True)
        parents[names[i]] = [names[j] for j in ps]
        cpts[names[i]] = table.ravel().tolist()
    doc = {"variables": [{"name": name, "states": [f"s{j}" for j in range(c)]}
                         for name, c in zip(names, cards)],
           "parents": parents, "cpts": cpts}
    for key in ("parents", "cpts"):
        if rng.random() < 0.5:
            items = list(doc[key].items())
            rng.shuffle(items)
            doc[key] = dict(items)
    return doc


FUZZ_VALUES = (None, True, False, 0, 1, -1, 2, 0.0, 0.5, 1.0, -0.5, 1e400, math.nan, 2**70,
               10**400, "", "0", "s1", "V0", "V1", [], [1], ["s0", "s1"], ["V0"], {},
               {"name": "V0", "states": ["s0"]})


def _fuzz_paths(doc: dict) -> list[tuple]:
    """Every place a mutation can go: a top-level key, an entry, a field or
    an element, under 'variables', 'parents' and 'cpts'."""
    paths = [("variables",), ("parents",), ("cpts",)]
    if isinstance(doc.get("variables"), list):
        for i, entry in enumerate(doc["variables"]):
            paths.append(("variables", i))
            if isinstance(entry, dict):
                paths += [("variables", i, "name"), ("variables", i, "states")]
                if isinstance(entry.get("states"), list):
                    paths += [("variables", i, "states", j) for j in range(len(entry["states"]))]
    for key in ("parents", "cpts"):
        if isinstance(doc.get(key), dict):
            for name, value in doc[key].items():
                paths.append((key, name))
                if isinstance(value, list):
                    paths += [(key, name, j) for j in range(len(value))]
    return paths


def _mutate(doc: dict, rng: np.random.Generator) -> None:
    paths = _fuzz_paths(doc)
    *head, last = paths[int(rng.integers(len(paths)))]
    node = doc
    for step in head:
        node = node[step]
    if isinstance(node, dict) and rng.random() < 0.1:
        del node[last]
    else:
        node[last] = FUZZ_VALUES[int(rng.integers(len(FUZZ_VALUES)))]


def _load_outcome(load, data: str, allow_nonfunctional: bool):
    """What a loader makes of a document, bit for bit: the model's
    variables, parents, tables and validation report, or the refusal."""
    try:
        scm = load(data, allow_nonfunctional=allow_nonfunctional)
    except ModelError as err:
        return "refused", str(err)
    report = validate(scm)
    return ("loaded", scm.variables, scm.parents,
            [(vid, t.shape, t.dtype.str, t.tobytes()) for vid, t in scm.tables.items()],
            (report.acyclic, report.normalized, report.functional_status, report.violations))


def test_load_model_matches_the_per_variable_reference_on_mutated_documents():
    # Every document loads to the reference's model bit for bit, or both
    # refuse it with ModelError and the same message.
    rng = np.random.default_rng(8822)
    outcomes, messages = {"loaded": 0, "refused": 0}, set()
    for trial in range(2000):
        doc = _fuzz_base_document(rng)
        for _ in range(int(rng.integers(1, 4))):
            _mutate(doc, rng)
        data = json.dumps(doc)
        allow = bool(rng.random() < 0.5)
        got = _load_outcome(load_model, data, allow)
        assert got == _load_outcome(reference_load_model, data, allow), (trial, data)
        outcomes[got[0]] += 1
        if got[0] == "refused":
            messages.add(re.sub(r"'[^']*'|\d+|\S+ is", "_", got[1]).split(";")[0])
    # Both outcomes occur, and the refusals reach many distinct checks.
    assert outcomes["loaded"] >= 20 and outcomes["refused"] >= 1000, outcomes
    assert len(messages) >= 15, sorted(messages)


@pytest.mark.parametrize("seed", range(40))
def test_load_model_matches_the_per_variable_reference_on_legal_documents(seed):
    # Non-binary cardinalities: the row-sum test groups entries by cardinality.
    doc = _fuzz_base_document(np.random.default_rng([17, seed]))
    data = json.dumps(doc)
    got = _load_outcome(load_model, data, True)
    assert got[0] == "loaded" and got == _load_outcome(reference_load_model, data, True)
    scm = load_model(data, allow_nonfunctional=True)
    assert not any(t.flags.writeable for t in scm.tables.values())


@pytest.mark.parametrize("names_states, message", [
    ([(1, ["0", "1"])], "^variable 1: name and state names must be strings$"),
    ([("A", [0, 1])], "^variable 'A': name and state names must be strings$"),
])
def test_make_scm_refuses_names_and_states_that_are_not_strings(names_states, message):
    # Both once built a model that save_model wrote and load_model refused.
    name = names_states[0][0]
    with pytest.raises(FactorError, match=message):
        make_scm(names_states, {name: []}, {name: [0.5, 0.5]})
