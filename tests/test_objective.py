"""Objective functions and the objective-model reduction."""

import itertools
import json
import math
import re

import numpy as np
import pytest

from unitsel import (
    ModelError,
    ObjectiveFunction,
    ObjectiveTerm,
    build_objective_model,
    evaluate_L_brute,
    evaluate_L_profile,
    fixture_path,
    joint_prob,
    load_model,
    load_objective,
    make_scm,
    model_size_stats,
    posterior,
    query_prob,
    save_objective,
    unit_select,
    validate,
    validate_objective,
)
import unitsel.objective
from unitsel.objective import _solve_model
from unitsel.bench import GenConfig, gen_benefit_objective, gen_random_scm
from unitsel.elimination import ancestral_closure
from unitsel.inference import InconsistentEvidenceError, rmap_table
from unitsel.worlds import enumerate_instantiations
from corpus import exact_L_profile, random_instance, separated_maximiser


def xor_scm():
    # units U; noise N; X = N; Y = X xor U
    return make_scm(
        [("U", ["0", "1"]), ("N", ["0", "1"]), ("X", ["0", "1"]), ("Y", ["0", "1"])],
        {"U": [], "N": [], "X": ["N"], "Y": ["X", "U"]},
        {
            "U": [0.3, 0.7],
            "N": [0.6, 0.4],
            "X": [1, 0, 0, 1],
            "Y": [1, 0, 0, 1, 0, 1, 1, 0],
        },
    )


def test_validate_benefit_objective_ok():
    scm = xor_scm()
    L = gen_benefit_objective(scm, 2, 3, (0.4, 0.3, 0.2, 0.1), units=(0,))
    report = validate_objective(scm, L)
    assert report.ok, report.violations


def test_validate_reports_simplex_violation():
    scm = xor_scm()
    L = gen_benefit_objective(scm, 2, 3, (0.4, 0.3, 0.1, 0.1), units=(0,))
    report = validate_objective(scm, L)
    assert not report.ok
    assert any("sum" in v for v in report.violations)
    # A NaN weight passes the sum check; brute force once answered NaN.
    L = ObjectiveFunction((0,), (ObjectiveTerm(float("nan"), y={3: 0}),))
    assert validate_objective(scm, L).violations == ["term weights must be finite and non-negative"]
    with pytest.raises(ModelError, match="finite"):
        unit_select(scm, L, method="brute")


def test_validate_reports_disjointness_violation():
    scm = xor_scm()
    term = ObjectiveTerm(1.0, x={3: 0}, y={3: 1})
    report = validate_objective(scm, ObjectiveFunction((0,), (term,)))
    assert not report.ok
    assert any("overlap" in v for v in report.violations)


def test_validate_unit_and_endogeneity_rules():
    scm = xor_scm()
    term = ObjectiveTerm(1.0, y={0: 0})  # outcome is a root
    report = validate_objective(scm, ObjectiveFunction((2,), (term,)))
    assert not report.ok
    assert any("exogenous" in v for v in report.violations)
    assert any("endogenous" in v for v in report.violations)


def test_repeated_unit_is_refused():
    scm = xor_scm()
    L = load_objective(scm, b'{"units":["U","U"],"terms":[{"weight":1.0,"y":{"Y":"0"}}]}')
    assert validate_objective(scm, L).violations == ["unit variable 'U' is repeated"]
    with pytest.raises(ModelError, match="'U' is repeated"):
        build_objective_model(scm, L)
    for method in ("ve", "brute"):
        with pytest.raises(ModelError, match="'U' is repeated"):
            unit_select(scm, L, method=method)


def test_oracles_refuse_invalid_objective():
    # Weights summing to 2: both oracles once answered L(U=u1) = 1.2, while
    # unit_select refused the objective.
    with open(fixture_path("two_node.json"), "rb") as fh:
        scm = load_model(fh.read(), allow_nonfunctional=True)
    term = ObjectiveTerm(1.0, y={1: 0})
    L = ObjectiveFunction((0,), (term, term))
    message = "invalid objective: term weights sum to 2.0, expected 1"
    with pytest.raises(ModelError, match=message):
        evaluate_L_profile(scm, L)
    with pytest.raises(ModelError, match=message):
        evaluate_L_brute(scm, L, {0: 0})
    with pytest.raises(ModelError, match=message):
        unit_select(scm, L, method="brute")


def test_evaluate_L_brute_refuses_out_of_range_unit_states():
    # A state of -1 once answered for U=u2 (0.3), and 2 raised a raw IndexError.
    with open(fixture_path("two_node.json"), "rb") as fh:
        scm = load_model(fh.read(), allow_nonfunctional=True)
    L = ObjectiveFunction((0,), (ObjectiveTerm(1.0, y={1: 0}),))
    assert evaluate_L_brute(scm, L, {0: 1}) == 0.3
    for state in (-1, 2):
        with pytest.raises(ModelError, match=f"state {state} out of range for 'U'"):
            evaluate_L_brute(scm, L, {0: state})


def test_evaluate_L_brute_refuses_non_integer_unit_ids():
    # A float unit id equal to a model id once raised a raw TypeError from
    # Scm.var, after the whole profile was computed.
    with open(fixture_path("five_node.json"), "rb") as fh:
        scm = load_model(fh.read())
    L = ObjectiveFunction((0,), (ObjectiveTerm(1.0, y={4: 0}),))
    assert evaluate_L_brute(scm, L, {0: 0}) == 0.0
    with pytest.raises(ModelError, match="unknown unit variable id 0.0"):
        evaluate_L_brute(scm, L, {0.0: 0})


def test_evaluate_L_brute_refuses_a_unit_before_enumerating(monkeypatch):
    # A refused unit once cost a whole evaluate_L_profile enumeration.
    with open(fixture_path("five_node.json"), "rb") as fh:
        scm = load_model(fh.read())
    L = ObjectiveFunction((0,), (ObjectiveTerm(1.0, y={4: 0}),))
    profiles = []
    profile = unitsel.objective.evaluate_L_profile
    monkeypatch.setattr(
        unitsel.objective, "evaluate_L_profile", lambda *a: profiles.append(a) or profile(*a)
    )
    for u, message in (({0.0: 0}, "unknown unit variable id"), ({0: 2}, "out of range")):
        with pytest.raises(ModelError, match=message):
            evaluate_L_brute(scm, L, u)
    assert profiles == []
    assert evaluate_L_brute(scm, L, {0: 0}) == 0.0 and len(profiles) == 1


def test_validate_reports_incomparable_unit_ids_as_unknown():
    # Units ("a", 0) once raised TypeError: '<' not supported, from sorting
    # the ids before any was checked.
    scm = xor_scm()
    term = ObjectiveTerm(1.0, y={3: 0})
    L = ObjectiveFunction(("a", 0), (term,))
    assert L.unit_ids == ("a", 0)
    assert validate_objective(scm, L).violations == ["unknown unit variable id a"]
    L = ObjectiveFunction((2, "a", 0, (9,), 0), (term,))
    assert validate_objective(scm, L).violations == [
        "unknown unit variable id a",
        "unknown unit variable id (9,)",
        "unit variable 'X' is not exogenous",
        "unit variable 'U' is repeated",
    ]
    with pytest.raises(ModelError, match="unknown unit variable id a"):
        unit_select(scm, L)
    # Comparable ids are still kept sorted.
    assert ObjectiveFunction((1, 0), (term,)).unit_ids == (0, 1)


def test_unit_select_checks_the_objective_once(monkeypatch):
    calls = []
    check = unitsel.objective.validate_objective

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(unitsel.objective, "validate_objective", counted)
    scm = xor_scm()
    unit_select(scm, gen_benefit_objective(scm, 2, 3, (0.4, 0.3, 0.2, 0.1), units=(0,)))
    assert len(calls) == 1


def test_load_objective_refuses_malformed_documents():
    scm = xor_scm()
    for doc, message in (
        (b"[]", "needs 'units' and 'terms'"),
        (b'{"units":"U","terms":[]}', "list of variable names"),
        (b'{"units":["U"],"terms":{}}', "'terms' must be a list"),
        (b'{"units":["U"],"terms":[1]}', "term 1 has no weight"),
        (b'{"units":["U"],"terms":[{"weight":1,"y":["Y"]}]}', "'y' must map"),
        (b'{"units":["U"],"terms":[{"weight":null,"y":{"Y":"0"}}]}', "not a number"),
        (b'{"units":["U"],"terms":[{"weight":[1],"y":{"Y":"0"}}]}', "not a number"),
        (b'{"units":["U"],"terms":[{"weight":true,"y":{"Y":"0"}}]}', "weight True is not a number"),
        (b'{"units":["U"],"terms":[{"weight":"1.0","y":{"Y":"0"}}]}', "weight '1.0' is not a number"),
        (b'{"units":["U"],"terms":[{"weight":{"w":1},"y":{"Y":"0"}}]}', "not a number"),
    ):
        with pytest.raises(ModelError, match=message):
            load_objective(scm, doc)



@pytest.mark.parametrize(
    "data, message",
    [
        (b"\xff", "'utf-8' codec can't decode byte 0xff"),
        (b'{"units":["U"],', "Expecting property name"),
        (b'{"units":' + b"[" * 100_000 + b'],"terms":[]}', "maximum recursion depth exceeded"),
    ],
    ids=["undecodable", "malformed", "too-deep"],
)
def test_load_objective_refuses_unreadable_json(data, message):
    # Undecodable bytes once raised UnicodeDecodeError, and deeply nested
    # units a raw RecursionError.
    with pytest.raises(ModelError, match=f"^malformed objective document: {message}"):
        load_objective(xor_scm(), data)


def test_build_objective_model_refuses_an_unfit_base():
    # U -> X -> Y with a noisy X: a Bayesian network, but not functional.
    names = [("U", ["0", "1"]), ("X", ["0", "1"]), ("Y", ["0", "1"])]
    parents = {"U": [], "X": ["U"], "Y": ["X"]}
    noisy = make_scm(names, parents, {"U": [0.5, 0.5], "X": [0.3, 0.7, 0.6, 0.4], "Y": [1, 0, 0, 1]})
    observe = ObjectiveFunction((0,), (ObjectiveTerm(1.0, y={2: 1}),))
    intervene = ObjectiveFunction((0,), (ObjectiveTerm(1.0, x={1: 0}, y={2: 1}),))
    build_objective_model(noisy, observe)
    with pytest.raises(ModelError, match="^objective has interventions: the base model must be functional$"):
        build_objective_model(noisy, intervene)
    unnormalized = make_scm(names, parents, {"U": [0.5, 0.6], "X": [1, 0, 0, 1], "Y": [1, 0, 0, 1]})
    with pytest.raises(ModelError, match="^base model is not a valid Bayesian network$"):
        build_objective_model(unnormalized, observe)


def test_objective_without_terms_and_partial_units_are_refused():
    scm = xor_scm()
    report = validate_objective(scm, ObjectiveFunction((0,), ()))
    assert not report.ok and "objective has no terms" in report.violations
    report = validate_objective(scm, ObjectiveFunction((), (ObjectiveTerm(1.0, y={3: 1}),)))
    assert not report.ok and "objective has no unit variables" in report.violations
    objective = ObjectiveFunction((0, 1), (ObjectiveTerm(1.0, y={3: 1}),))
    with pytest.raises(ModelError, match="^u must assign exactly the unit variables$"):
        evaluate_L_brute(scm, objective, {0: 0})


def test_outcome_cpt_rewrite_rows():
    # theta(z|p) = 0.7 on a binary outcome: rows become (p,h_i): 0.7/0.3 and
    # (p, hbar_i): 1.0/0.0 on the term's state.
    scm = make_scm(
        [("U", ["0", "1"]), ("Z", ["0", "1"])],
        {"U": [], "Z": ["U"]},
        {"U": [0.5, 0.5], "Z": [0.7, 0.3, 0.2, 0.8]},
    )
    L = ObjectiveFunction(
        (0,),
        (
            ObjectiveTerm(0.5, y={1: 0}),
            ObjectiveTerm(0.5, y={1: 1}),
        ),
    )
    om = build_objective_model(scm, L)
    z1 = om.model.by_name("[Z^1]")
    table = om.model.tables[z1.id]  # axes (U, H, Z)
    assert om.model.parents[z1.id][-1] == om.h_id
    assert np.allclose(table[0, 0], [0.7, 0.3])  # own term: original row
    assert np.allclose(table[0, 1], [1.0, 0.0])  # other term: clamp to z^1
    assert np.allclose(table[1, 0], [0.2, 0.8])
    z2 = om.model.by_name("[Z^2]")
    table2 = om.model.tables[z2.id]
    assert np.allclose(table2[0, 0], [0.0, 1.0])  # clamp to z^2 under h_1
    assert np.allclose(table2[0, 1], [0.7, 0.3])


def test_mixture_prior_and_single_component():
    scm = xor_scm()
    term = ObjectiveTerm(1.0, x={2: 0}, y={3: 0}, v={2: 1}, w={3: 1})
    L = ObjectiveFunction((0,), (term,))
    om = build_objective_model(scm, L)
    h = om.model.var(om.h_id)
    assert h.cardinality == 1
    assert list(om.model.tables[om.h_id]) == [1.0]
    for u in enumerate_instantiations(scm, (0,)):
        expected = evaluate_L_brute(scm, L, u)
        mapped = {om.unit_om_ids[0]: u[0]}
        got = query_prob(om.model, om.e1, {**om.e2, **mapped})
        assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-12)


def test_world_dropping():
    scm = xor_scm()
    # benefit-style term: no evidence -> twin; world 1 absent
    L = gen_benefit_objective(scm, 2, 3, (1.0, 0, 0, 0), units=(0,))
    om = build_objective_model(scm, L)
    assert all(comp.worlds == (2, 3) for comp in om.components)
    names = {v.name for v in om.model.variables}
    assert not any(n.startswith("X^") or n.startswith("Y^") for n in names)
    # observation-only term keeps only world 2
    L2 = ObjectiveFunction((0,), (ObjectiveTerm(1.0, y={3: 0}),))
    om2 = build_objective_model(scm, L2)
    assert om2.components[0].worlds == (2,)
    # full triplet when asked
    om3 = build_objective_model(scm, L2, drop_worlds=False)
    assert om3.components[0].worlds == (1, 2, 3)


def test_nonfunctional_base_allowed_only_without_treatments():
    bn = make_scm(
        [("U", ["u1", "u2"]), ("V", ["v1", "v2"])],
        {"U": [], "V": ["U"]},
        {"U": [0.2, 0.8], "V": [0.6, 0.4, 0.3, 0.7]},
    )
    L = ObjectiveFunction((0,), (ObjectiveTerm(1.0, y={1: 0}),))
    om = build_objective_model(bn, L)
    vals, defined = evaluate_L_profile(bn, L)
    assert np.allclose(vals, [0.6, 0.3], rtol=1e-12)
    for u in (0, 1):
        got = query_prob(om.model, om.e1, {**om.e2, om.unit_om_ids[0]: u})
        assert math.isclose(got, vals[u], rel_tol=1e-9)
    with_treatment = ObjectiveFunction(
        (0,), (ObjectiveTerm(1.0, x={1: 0}, y={1: 1}),)
    )
    with pytest.raises(ModelError):
        build_objective_model(bn, with_treatment)


def _random_bn(rng):
    """A non-functional 5-node network of 2- and 3-state variables whose
    first two nodes are roots; about a quarter of the CPT entries are 0, so
    some units and some evidence carry no mass."""
    cards = [int(c) for c in rng.integers(2, 4, size=5)]
    names = [f"N{i}" for i in range(5)]
    parents = {names[i]: [names[j] for j in range(i) if i >= 2 and rng.random() < 0.6]
               for i in range(5)}
    tables = {}
    for i, name in enumerate(names):
        shape = [cards[names.index(q)] for q in parents[name]] + [cards[i]]
        rows = (rng.random(shape) * (rng.random(shape) > 0.25)).reshape(-1, cards[i])
        rows[rows.sum(axis=1) == 0, 0] = 1.0
        tables[name] = (rows / rows.sum(axis=1, keepdims=True)).ravel()
    states = [[str(s) for s in range(c)] for c in cards]
    return make_scm(list(zip(names, states)), parents, tables), cards


def test_bn_term_profile_matches_enumeration():
    # The full-joint oracle of treatment-free terms on plain Bayesian
    # networks, against sums of joint_prob over every full instantiation:
    # each term carries evidence, some outcomes conflict with it, and some
    # units have zero conditioning mass.
    conflicts = undefined = 0
    for seed in range(30):
        rng = np.random.default_rng([59, seed])
        scm, cards = _random_bn(rng)
        assert not validate(scm).functional
        units = (0, 1)
        joints = {full: joint_prob(scm, dict(enumerate(full)))
                  for full in itertools.product(*map(range, cards))}
        for _ in range(3):
            e_vids, y_vid, w_vid = rng.choice([2, 3, 4], size=3, replace=False)
            e = {int(e_vids): int(rng.integers(cards[e_vids]))}
            y = {int(y_vid): int(rng.integers(cards[y_vid]))}
            w = {int(w_vid): int(rng.integers(cards[w_vid]))}
            if rng.random() < 0.4:
                # w names the evidence variable with another state.
                w = {int(e_vids): (e[int(e_vids)] + 1) % cards[e_vids]}
            term = ObjectiveTerm(1.0, y=y, w=w, e=e)
            values, defined = unitsel.objective._bn_term_profile(scm, term, units)
            conflict = w.keys() & e.keys() and w != {k: e[k] for k in w}
            for u in itertools.product(range(cards[0]), range(cards[1])):
                matching = [(full, p) for full, p in joints.items() if full[:2] == u
                            and all(full[v] == s for v, s in e.items())]
                den = sum(p for _, p in matching)
                num = 0.0 if conflict else sum(
                    p for full, p in matching
                    if all(full[v] == s for v, s in {**y, **w}.items())
                )
                assert defined[u] == (den > 0)
                want = num / den if den > 0 else 0.0
                assert math.isclose(values[u], want, rel_tol=1e-12, abs_tol=1e-15)
            conflicts += bool(conflict)
            undefined += int(np.count_nonzero(~defined))
    assert conflicts > 0 and undefined > 0


@pytest.mark.parametrize("seed", range(20))
def test_reduction_equality_on_random_instances(seed):
    scm, units, L = random_instance(seed)
    om = build_objective_model(scm, L)
    for u in enumerate_instantiations(scm, units):
        expected = evaluate_L_brute(scm, L, u)
        mapped = {
            om_id: u[b] for b, om_id in zip(om.unit_base_ids, om.unit_om_ids)
        }
        if expected is None:
            with pytest.raises(InconsistentEvidenceError):
                query_prob(om.model, om.e1, {**om.e2, **mapped})
            continue
        got = query_prob(om.model, om.e1, {**om.e2, **mapped})
        assert abs(got - expected) <= 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_mixture_posterior_equals_prior(seed):
    scm, units, L = random_instance(seed, with_evidence=False)
    om = build_objective_model(scm, L)
    vals, defined = evaluate_L_profile(scm, L)
    unit_ids = tuple(sorted(units))
    for u in enumerate_instantiations(scm, units):
        if not defined[tuple(u[v] for v in unit_ids)]:
            continue
        mapped = {
            om_id: u[b] for b, om_id in zip(om.unit_base_ids, om.unit_om_ids)
        }
        h_post = posterior(om.model, {om.h_id}, {**om.e2, **mapped})
        weights = [t.weight for t in L.terms]
        assert np.allclose(h_post.values, weights, rtol=1e-9, atol=1e-12)
        break  # one defined unit suffices per instance


@pytest.mark.parametrize("seed", range(6))
def test_conditioning_on_h_recovers_term(seed):
    scm, units, L = random_instance(seed)
    om = build_objective_model(scm, L)
    unit_ids = tuple(sorted(units))
    _, defined_all = evaluate_L_profile(scm, L)  # e2 carries every term's evidence
    from unitsel.worlds import counterfactual_term_profile

    for u in enumerate_instantiations(scm, units):
        idx = tuple(u[v] for v in unit_ids)
        if not defined_all[idx]:
            continue
        mapped = {
            om_id: u[b] for b, om_id in zip(om.unit_base_ids, om.unit_om_ids)
        }
        for i, term in enumerate(L.terms):
            tvals, _ = counterfactual_term_profile(
                scm, term.x, term.y, term.v, term.w, term.e, unit_ids
            )
            got = query_prob(om.model, om.e1, {**om.e2, **mapped, om.h_id: i})
            assert abs(got - float(tvals[idx])) <= 1e-9


def test_weight_rescaling_is_linear_and_argmax_matches():
    scm = xor_scm()
    t1 = ObjectiveTerm(0.25, x={2: 0}, y={3: 0}, v={2: 1}, w={3: 1})
    t2 = ObjectiveTerm(0.75, x={2: 0}, y={3: 0}, v={2: 1}, w={3: 0})
    L = ObjectiveFunction((0, 1), (t1, t2))
    vals, defined = evaluate_L_profile(scm, L)
    v1, _ = evaluate_L_profile(scm, ObjectiveFunction((0, 1), (ObjectiveTerm(1.0, x={2: 0}, y={3: 0}, v={2: 1}, w={3: 1}),)))
    v2, _ = evaluate_L_profile(scm, ObjectiveFunction((0, 1), (ObjectiveTerm(1.0, x={2: 0}, y={3: 0}, v={2: 1}, w={3: 0}),)))
    assert np.allclose(vals, 0.25 * v1 + 0.75 * v2, rtol=1e-12)
    direct = np.unravel_index(np.argmax(vals), vals.shape)
    brute = max(
        enumerate_instantiations(scm, (0, 1)),
        key=lambda u: evaluate_L_brute(scm, L, u),
    )
    assert tuple(brute[v] for v in (0, 1)) == direct


def test_model_size_stats_formulas():
    scm = xor_scm()  # 2 exogenous (1 unit), 2 endogenous
    L = gen_benefit_objective(scm, 2, 3, (0.25,) * 4, units=(0,))
    om = build_objective_model(scm, L)
    stats = model_size_stats(om)
    # 4 twin components: 4 * (2*2 + 1) + |U| + 1 = 20 + 2 = 22
    assert stats.nodes == 22
    assert stats.nodes == stats.nodes_formula
    om_full = build_objective_model(scm, L, drop_worlds=False)
    stats_full = model_size_stats(om_full)
    assert stats_full.nodes == 4 * (3 * 2 + 1) + 1 + 1
    assert stats_full.nodes == stats_full.nodes_formula
    assert stats.parameters == om.model.size_parameters()


def test_nonbinary_outcome_clamp_rows():
    # A ternary outcome: rows for foreign mixture states put all mass on the
    # term's own target state, whatever the cardinality.
    scm = make_scm(
        [("U", ["0", "1"]), ("Z", ["a", "b", "c"])],
        {"U": [], "Z": ["U"]},
        {"U": [0.5, 0.5], "Z": [0.2, 0.3, 0.5, 0.6, 0.1, 0.3]},
    )
    L = ObjectiveFunction(
        (0,),
        (ObjectiveTerm(0.5, y={1: 2}), ObjectiveTerm(0.5, y={1: 0})),
    )
    om = build_objective_model(scm, L)
    z1 = om.model.by_name("[Z^1]")
    table = om.model.tables[z1.id]  # axes (U, H, Z)
    assert np.allclose(table[0, 0], [0.2, 0.3, 0.5])
    assert np.allclose(table[0, 1], [0.0, 0.0, 1.0])  # clamp to state "c"
    vals, _ = evaluate_L_profile(scm, L)
    for u in (0, 1):
        got = query_prob(om.model, om.e1, {**om.e2, om.unit_om_ids[0]: u})
        assert math.isclose(got, vals[u], rel_tol=1e-9)


def test_objective_json_roundtrip():
    scm = xor_scm()
    L = gen_benefit_objective(scm, 2, 3, (0.4, 0.3, 0.2, 0.1), units=(0,))
    data = save_objective(scm, L)
    back = load_objective(scm, data)
    assert back == L
    with pytest.raises(ModelError):
        load_objective(scm, b"{}")
    doc = b'{"units":["U"],"terms":[{"weight":1.0,"y":{"Y":"0"}}]}'
    L2 = load_objective(scm, doc)
    assert L2.terms[0].y == {3: 0} and not L2.terms[0].x


def test_validate_refuses_non_integer_ids():
    # A float id equal to a model id once raised a raw TypeError from Scm.var.
    scm = xor_scm()
    L = ObjectiveFunction((0.0,), (ObjectiveTerm(1.0, y={3.0: 0}),))
    assert validate_objective(scm, L).violations == [
        "unknown unit variable id 0.0",
        "term 1: unknown variable id 3.0 in y",
    ]


# -- the solve model -------------------------------------------------------------


def _assert_solve_model(scm, L):
    """The model unit_select solves without an order has the profile L(u):
    every cell of its rmap_table within 1e-12 of evaluate_L_profile, and 0
    exactly where a unit is undefined. VE's value, excluded count and unit
    agree with brute and the exact oracle: its unit is a maximiser, and the
    oracle's own one when the exact runner-up lies more than 1e-9 below it.
    Returns the solve model and the VE answer (None when every unit is
    excluded)."""
    om = _solve_model(scm, L)
    values, defined = evaluate_L_profile(scm, L)
    exact = exact_L_profile(scm, L)
    for u, value in exact.items():
        assert defined[u] == (value is not None)
        assert value is None or abs(float(value) - values[u]) <= 1e-12
    table = rmap_table(om.model, om.unit_om_ids, om.e1, om.e2)
    grid = np.broadcast_to(table._expand(om.unit_om_ids), values.shape)
    assert np.all(grid[~defined] == 0.0)
    assert np.abs(grid - values).max(initial=0.0) <= 1e-12
    if not defined.any():
        with pytest.raises(InconsistentEvidenceError):
            unit_select(scm, L)
        return om, None
    ve = unit_select(scm, L)
    br = unit_select(scm, L, method="brute")
    assert ve.excluded == br.excluded == int(np.count_nonzero(~defined))
    unit = tuple(ve.instantiation[vid] for vid in L.unit_ids)
    assert abs(ve.value - br.value) <= 1e-12 and values.max() - values[unit] <= 1e-12
    best = separated_maximiser(exact)
    assert best is None or unit == best
    return om, ve


def _shapes_scm():
    """Units U, V and noise N, M: X = N, Z = X xor U, Y = (Z and M) or V."""
    def fn(f, k):
        return [float(f(*row) == s) for row in itertools.product((0, 1), repeat=k) for s in (0, 1)]

    names = ("U", "V", "N", "M", "X", "Z", "Y")
    return make_scm(
        [(name, ["0", "1"]) for name in names],
        {"U": [], "V": [], "N": [], "M": [], "X": ["N"], "Z": ["X", "U"], "Y": ["Z", "M", "V"]},
        {"U": [0.3, 0.7], "V": [0.55, 0.45], "N": [0.6, 0.4], "M": [0.2, 0.8],
         "X": fn(lambda n: n, 1), "Z": fn(lambda x, u: x ^ u, 2),
         "Y": fn(lambda z, m, v: (z & m) | v, 3)},
    )


U, V, N, M, X, Z, Y = range(7)
T = ObjectiveTerm
SHAPES = {
    "different evidence": [T(0.5, x={X: 1}, y={Y: 1}, e={Z: 0}), T(0.5, x={X: 0}, y={Y: 1}, e={Z: 1})],
    "world-1 evidence": [T(0.6, y={Y: 1}, e={X: 0, Z: 1}), T(0.4, x={X: 1}, y={Z: 1}, e={X: 0, Z: 1})],
    "two outcome variables": [T(0.5, x={X: 1}, y={Y: 1, Z: 0}),
                              T(0.5, x={X: 0}, y={Z: 1}, v={X: 1}, w={Y: 0})],
    "shared treatment": [T(0.3, x={X: 1}, y={Y: 1}, v={X: 0}, w={Y: 0}),
                         T(0.7, x={X: 1}, y={Z: 0}, v={X: 0}, w={Z: 1})],
    "x of one term is v of another": [T(0.5, x={X: 1}, y={Y: 1}, v={X: 0}, w={Y: 0}),
                                      T(0.5, x={X: 0}, y={Z: 1})],
    "x = v, y != w": [T(1.0, x={X: 1}, y={Y: 1}, v={X: 1}, w={Y: 0})],
    "x = v, y != w, beside a term on the same copy": [
        T(0.5, x={X: 1}, y={Y: 1}, v={X: 1}, w={Y: 0}), T(0.5, x={X: 1}, y={Y: 1})],
    "no outcome": [T(0.5, x={X: 0}, e={Z: 1}), T(0.5, y={Y: 0}, e={Z: 1})],
}


@pytest.mark.parametrize("shape", SHAPES)
def test_solve_model_shapes(shape):
    scm = _shapes_scm()
    om, ve = _assert_solve_model(scm, ObjectiveFunction((U, V), tuple(SHAPES[shape])))
    worlds = [comp.worlds for comp in om.components]
    indicators = [v.name for v in om.model.variables if v.name.startswith("O")]
    if shape == "different evidence":
        assert worlds == [(1, 2), (1, 2)] and len(indicators) == 2
    elif shape == "world-1 evidence":
        assert worlds == [(1, 2)] and ve.excluded == 2  # X = 0, Z = 1 needs U = 1
    elif shape == "shared treatment":
        assert worlds == [(2, 3)] and len(indicators) == 2
    elif shape == "x of one term is v of another":
        z = om.model.by_name("[[Z^1]]").id  # term 2's outcome, in the world of X = 0
        assert worlds == [(2, 3)] and om.model.parents[om.model.by_name("O2").id] == (z, om.h_id)
    elif shape.startswith("x = v"):
        assert worlds == [(2,)] and len(indicators) == 1
        if shape == "x = v, y != w":
            assert ve.value == 0.0 and ve.excluded == 0
    elif shape == "no outcome":
        assert len(indicators) == 1 and om.e1 == {om.model.by_name("O1").id: 1}


def test_solve_model_on_random_instances():
    inconsistent = separated = 0
    for seed in range(60):
        scm, _, L = random_instance(seed)
        _, ve = _assert_solve_model(scm, L)
        inconsistent += ve is None
        separated += separated_maximiser(exact_L_profile(scm, L)) is not None
    assert inconsistent > 0 and separated > 0


def _benefit_instance(seed):
    rng = np.random.default_rng([61, seed])
    scm = gen_random_scm(GenConfig(node_count=int(rng.integers(8, 15)), seed=seed))
    roots = scm.roots
    units = sorted(int(u) for u in rng.choice(roots, size=max(1, len(roots) // 2), replace=False))
    endo = scm.endogenous()
    y = int(rng.choice([v for v in endo if not scm.children[v]]))
    x = int(rng.choice([v for v in endo if v != y]))
    return scm, x, y, gen_benefit_objective(scm, x, y, (0.25, 0.25, 0.25, 0.25), units=units)


@pytest.mark.parametrize("seed", range(8))
def test_solve_model_on_benefit_objectives(seed):
    # The four terms share x, v, e and the outcome variable: one component
    # with one copy of each non-unit root in the closure, the worlds of x
    # and v, and one indicator over [Y], [[Y]] and H.
    scm, x, y, L = _benefit_instance(seed)
    om, _ = _assert_solve_model(scm, L)
    full = build_objective_model(scm, L)
    assert om.model.n < full.model.n
    (comp,) = om.components
    assert comp.worlds == (2, 3)
    closures = [ancestral_closure(scm, [x, y], {x: s}) for s in (0, 1)]
    closed_roots = set(scm.roots) & (closures[0] | closures[1])
    assert set(comp.roots) == closed_roots - set(L.unit_ids)
    assert [sorted(b for b, per in comp.endo.items() if k in per) for k in (2, 3)] == [
        sorted(c - set(scm.roots)) for c in closures]
    assert om.model.n == len(L.unit_ids) + 1 + len(comp.roots) + sum(
        len(c - closed_roots) for c in closures) + 1
    (o,) = om.e1
    names = [om.model.var(p).name for p in om.model.parents[o]]
    yname = scm.var(y).name
    assert names == [f"[{yname}^1]", f"[[{yname}^1]]", "H"]


def test_solve_model_names_and_evidence():
    # U, N -> X -> Y with U -> Y, and a unit V that nothing depends on.
    scm = make_scm(
        [("U", ["0", "1"]), ("N", ["0", "1"]), ("V", ["0", "1"]),
         ("X", ["0", "1"]), ("Y", ["0", "1"])],
        {"U": [], "N": [], "V": [], "X": ["N"], "Y": ["X", "U"]},
        {"U": [0.3, 0.7], "N": [0.6, 0.4], "V": [0.5, 0.5],
         "X": [1, 0, 0, 1], "Y": [1, 0, 0, 1, 0, 1, 1, 0]},
    )
    U, N, V, X, Y = range(5)
    evidence = ObjectiveTerm(0.5, x={X: 1}, y={Y: 1}, e={Y: 0})  # worlds 1 and 2
    no_outcome = ObjectiveTerm(0.5, x={X: 0}, e={X: 1})  # a treatment and evidence only
    om, _ = _assert_solve_model(scm, ObjectiveFunction((U, V), (evidence, no_outcome)))
    names = [v.name for v in om.model.variables]
    # [X^1] is cut, so N^1 is kept for world 1 alone; the second term keeps
    # X^2 and N^2 for its evidence, and the cut [X^2].
    assert names == ["U", "V", "H", "N^1", "X^1", "Y^1", "[X^1]", "[Y^1]", "N^2", "X^2",
                     "[X^2]", "O1"]
    assert om.e2 == {om.model.by_name(n).id: s for n, s in (("Y^1", 0), ("[X^1]", 1),
                                                            ("X^2", 1), ("[X^2]", 0))}
    v = om.unit_om_ids[1]  # kept, though no copy depends on it
    assert not om.model.parents[v] and not om.model.children[v]
    # No term has an outcome: H is barren, so it is not built.
    only = ObjectiveTerm(1.0, x={X: 0}, e={X: 1})
    om, ve = _assert_solve_model(scm, ObjectiveFunction((U,), (only,)))
    assert om.h_id is None and om.e1 == {} and ve.value == 1.0
    # A unit named like a copy: the copy takes a prime.
    clash = make_scm([("Y^1", ["0", "1"]), ("Y", ["0", "1"])], {"Y^1": [], "Y": ["Y^1"]},
                     {"Y^1": [0.5, 0.5], "Y": [1, 0, 0, 1]})
    L = ObjectiveFunction((0,), (ObjectiveTerm(1.0, y={1: 1}, e={1: 1}),))
    om, _ = _assert_solve_model(clash, L)
    assert [v.name for v in om.model.variables] == ["Y^1", "H", "Y^1'", "O1"]
    # Evidence no unit can produce is refused.
    impossible = make_scm(
        [("U", ["0", "1"]), ("Y", ["0", "1"])], {"U": [], "Y": ["U"]},
        {"U": [0.5, 0.5], "Y": [1, 0, 1, 0]},
    )
    L = ObjectiveFunction((0,), (ObjectiveTerm(1.0, y={1: 0}, e={1: 1}),))
    assert _assert_solve_model(impossible, L)[1] is None


# -- plain Bayesian networks ------------------------------------------------------


def _bn_reproducer():
    # U -> Y, Y noisy: Pr(Y=1 | U) = 0.7, 0.4.
    bn = make_scm([("U", ["0", "1"]), ("Y", ["0", "1"])], {"U": [], "Y": ["U"]},
                  {"U": [0.5, 0.5], "Y": [0.3, 0.7, 0.6, 0.4]})
    return bn, ObjectiveFunction((0,), (ObjectiveTerm(1.0, y={1: 1}, e={1: 1}),))


def test_treatment_free_term_on_a_bayesian_network():
    # Pr(Y=1 | Y=1, u) = 1. The full model put e and y into separate uncut
    # worlds that share only U, and VE once answered Pr(Y=1 | u) = 0.7.
    bn, L = _bn_reproducer()
    for method in ("ve", "brute"):
        assert unit_select(bn, L, method=method).value == 1.0
    _assert_solve_model(bn, L)
    with pytest.raises(ModelError, match="^term 1 asserts events in separate worlds: "
                                         "the base model must be functional$"):
        build_objective_model(bn, L)
    with pytest.raises(ModelError, match="separate worlds"):
        build_objective_model(bn, ObjectiveFunction((0,), (ObjectiveTerm(1.0, y={1: 1}, w={1: 1}),)))


def test_solve_model_on_random_bayesian_networks():
    # Treatment-free terms with evidence and two outcomes, which may name one
    # variable, on the _random_bn corpus: VE against brute, the profile and
    # the exact oracle.
    solved = 0
    for seed in range(30):
        rng = np.random.default_rng([67, seed])
        scm, cards = _random_bn(rng)
        endo = scm.endogenous()
        if not endo:
            continue
        terms = []
        for weight in (0.3, 0.7):
            e_vid, y_vid, w_vid = (int(v) for v in rng.choice(endo, size=3))
            e = {e_vid: int(rng.integers(cards[e_vid]))} if rng.random() < 0.7 else {}
            terms.append(ObjectiveTerm(weight, y={y_vid: int(rng.integers(cards[y_vid]))},
                                       w={w_vid: int(rng.integers(cards[w_vid]))}, e=e))
        L = ObjectiveFunction((0, 1), tuple(terms))
        solved += _assert_solve_model(scm, L)[1] is not None
        with pytest.raises(ModelError, match="separate worlds"):
            build_objective_model(scm, L)
    assert solved > 20


@pytest.mark.parametrize("state", ['"x"', "1.5", "true", "0", "NaN", "null", "[0]", '{"X": "x"}'])
def test_load_objective_refuses_a_state_the_variable_lacks(state):
    # Each once escaped as FactorError from Variable.state_index.
    doc = f'{{"units":["U"],"terms":[{{"weight":1.0,"y":{{"Y":"0"}},"x":{{"X":{state}}}}}]}}'
    shown = repr(json.loads(state))
    message = f"term 1: 'x': variable 'X' has no state {shown}"
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        load_objective(xor_scm(), doc)


def test_load_objective_refuses_mutated_documents_with_model_error_only():
    scm = make_scm(
        [("U", ["0", "1"]), ("X", ["0", "1"]), ("Y", ["a", "b", "c"])],
        {"U": [], "X": ["U"], "Y": ["X"]},
        {"U": [0.5, 0.5], "X": [0, 1, 1, 0], "Y": [1, 0, 0, 0, 0, 1]},
    )
    base = {"units": ["U"], "terms": [
        {"weight": 0.5, "x": {"X": "0"}, "y": {"Y": "a"}, "v": {"X": "1"}, "w": {"Y": "c"}},
        {"weight": 0.5, "y": {"Y": "c"}, "e": {"X": "1"}},
    ]}
    values = (None, True, False, 0, 1, -1, 0.5, 1e400, math.nan, 2**70, 10**400, "", "0", "1",
              "a", "U", "X", "Y", [], ["U"], {}, {"X": "x"}, {"Y": "b"})
    rng = np.random.default_rng(6114)
    outcomes = {"loaded": 0, "refused": 0}
    for trial in range(2000):
        doc = json.loads(json.dumps(base))
        for _ in range(int(rng.integers(1, 4))):
            paths = [("units",), ("terms",)]
            if isinstance(doc["units"], list):
                paths += [("units", j) for j in range(len(doc["units"]))]
            if isinstance(doc["terms"], list):
                for i, term in enumerate(doc["terms"]):
                    paths.append(("terms", i))
                    if isinstance(term, dict):
                        for key in ("weight", "x", "y", "v", "w", "e"):
                            paths.append(("terms", i, key))
                            if isinstance(term.get(key), dict):
                                paths += [("terms", i, key, name) for name in ("U", "X", "Y")]
            *head, last = paths[int(rng.integers(len(paths)))]
            node = doc
            for step in head:
                node = node[step]
            node[last] = values[int(rng.integers(len(values)))]
        try:
            load_objective(scm, json.dumps(doc))
            outcomes["loaded"] += 1
        except ModelError:
            outcomes["refused"] += 1
    assert outcomes["loaded"] >= 20 and outcomes["refused"] >= 1000, outcomes


def test_profile_of_a_non_functional_model_refuses_treatments_and_large_joints():
    # A noisy X makes the model a plain Bayesian network: the profile then
    # comes from the full joint, which holds no intervention.
    noisy = make_scm(
        [("U", ["0", "1"]), ("X", ["0", "1"]), ("Y", ["0", "1"])],
        {"U": [], "X": ["U"], "Y": ["X"]},
        {"U": [0.5, 0.5], "X": [0.3, 0.7, 0.6, 0.4], "Y": [1, 0, 0, 1]},
    )
    treated = ObjectiveFunction((0,), (ObjectiveTerm(1.0, x={1: 0}, y={2: 1}),))
    with pytest.raises(ModelError, match="^treatment-free evaluation requested for a term with treatments$"):
        evaluate_L_profile(noisy, treated)
    # 20 binary roots and the noisy X: 2^21 joint cells.
    roots = [f"R{i}" for i in range(20)]
    big = make_scm(
        [(r, ["0", "1"]) for r in roots] + [("X", ["0", "1"])],
        {**{r: [] for r in roots}, "X": ["R0"]},
        {**{r: [0.5, 0.5] for r in roots}, "X": [0.3, 0.7, 0.6, 0.4]},
    )
    observed = ObjectiveFunction((0,), (ObjectiveTerm(1.0, y={20: 1}),))
    with pytest.raises(ModelError, match="^model too large for full-joint evaluation$"):
        evaluate_L_profile(big, observed)
