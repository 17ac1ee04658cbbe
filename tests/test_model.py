"""SCM structure, validation, joint semantics and the JSON format."""

import itertools
import math
import re

import numpy as np
import pytest

from unitsel import (
    ModelError,
    Scm,
    Variable,
    evidence_to_lambdas,
    joint_prob,
    load_model,
    make_scm,
    save_model,
    validate,
)
from unitsel import fixture_path
from unitsel.factor import multiply_all
from corpus import small_scm


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
        assert full == scm.forward_eval(root_inst)
