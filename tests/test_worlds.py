"""Twin/triplet construction, mutilation and the counterfactual reduction."""

import dataclasses
import math

import numpy as np
import pytest

from unitsel import (
    ModelError,
    counterfactual_oracle,
    counterfactual_query,
    fixture_path,
    load_model,
    make_scm,
    mutilate,
    n_world_model,
    posterior,
    query_prob,
    triplet_model,
    twin_model,
    validate,
)
from unitsel.factor import Variable
from unitsel.inference import InconsistentEvidenceError
from unitsel.worlds import counterfactual_term_profile, enumerate_instantiations
from corpus import small_scm


def chain_scm():
    # U -> X -> Y with functional internals
    return make_scm(
        [("U", ["0", "1"]), ("X", ["0", "1"]), ("Y", ["0", "1"])],
        {"U": [], "X": ["U"], "Y": ["X"]},
        {"U": [0.3, 0.7], "X": [1, 0, 0, 1], "Y": [0, 1, 1, 0]},
    )


def test_triplet_counts_and_names():
    scm = chain_scm()
    tm, wm = triplet_model(scm)
    assert tm.n == 7
    names = {v.name for v in tm.variables}
    assert names == {"U", "X", "Y", "[X]", "[Y]", "[[X]]", "[[Y]]"}
    # exogenous CPT appears once, endogenous ones three times
    assert wm.copies[0] == (0, 0, 0)
    assert len(set(wm.copies[1])) == 3


def test_n_world_count_formula():
    scm = small_scm(3, lo=5, hi=8)
    shared = scm.roots[:1]
    for n in (1, 2, 4):
        nw, wm = n_world_model(scm, shared, n)
        assert nw.n == n * (scm.n - len(shared)) + len(shared)
    one, _ = n_world_model(scm, scm.roots, 1)
    assert one.n == scm.n
    assert [v.name for v in one.variables][-len(scm.endogenous()):]


def test_world_copies_equal_checked_variables():
    # Copies skip Variable's checks; they must still equal, and hash as, the
    # variables Variable(...) builds from their fields.
    for seed in range(10):
        scm = small_scm(seed)
        for model in (twin_model(scm)[0], triplet_model(scm)[0]):
            for v in model.variables:
                built = Variable(v.id, v.name, v.cardinality, v.state_names)
                assert v == built and hash(v) == hash(built) and repr(v) == repr(built)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    v.name = "changed"


def test_n_world_shared_must_be_roots():
    scm = chain_scm()
    with pytest.raises(ModelError):
        n_world_model(scm, [1], 2)


def test_n_world_refuses_unknown_shared_ids():
    # 99 once raised a raw IndexError, "A" and 0.0 a raw TypeError, True was
    # read as id 1 and -1 as the last id.
    with open(fixture_path("five_node.json"), "rb") as fh:
        scm = load_model(fh.read())
    for vid in (99, "A", 0.0, True, -1):
        with pytest.raises(ModelError, match=f"unknown variable id {vid} in the shared variables"):
            n_world_model(scm, [vid], 2)


def test_n_world_refuses_a_world_count_that_is_not_an_int():
    # 2.0 once raised a raw TypeError, and True built a model whose map
    # counted True worlds.
    scm = chain_scm()
    for n in (2.0, True, "2", None):
        with pytest.raises(ModelError, match="^world count must be an integer, got "):
            n_world_model(scm, [0], n)
    for n in (0, -1):
        with pytest.raises(ModelError, match=f"^world count must be >= 1, got {n}$"):
            n_world_model(scm, [0], n)
    assert n_world_model(scm, [0], np.int64(2))[1].n_worlds == 2


def root_named(root):
    # A root whose name is a copy name of the endogenous Y = root.
    return make_scm(
        [(root, ["0", "1"]), ("Y", ["0", "1"])],
        {root: [], "Y": [root]},
        {root: [0.5, 0.5], "Y": [1, 0, 0, 1]},
    )


def test_copy_names_take_a_prime_when_taken():
    # Such a copy once took the root's name, and the build failed with
    # "variable names must be unique".
    nw, wm = n_world_model(root_named("Y^1"), [0], 2)
    assert [v.name for v in nw.variables] == ["Y^1", "Y^1'", "Y^2"]
    assert wm.copies == {0: (0, 0), 1: (1, 2)}
    scm = root_named("[Y]")
    assert [v.name for v in twin_model(scm)[0].variables] == ["[Y]", "Y", "[Y]'"]
    assert [v.name for v in triplet_model(scm)[0].variables] == ["[Y]", "Y", "[Y]'", "[[Y]]"]
    model, e1, e2 = counterfactual_query(scm, {}, {1: 1}, {}, {1: 0}, {1: 1})
    assert {model.var(k).name: s for k, s in e1.items()} == {"[Y]'": 1, "[[Y]]": 0}
    assert {model.var(k).name: s for k, s in e2.items()} == {"Y": 1}


def test_world1_marginal_matches_base():
    scm = small_scm(11, lo=5, hi=8)
    tm, wm = triplet_model(scm)
    for vid in scm.endogenous():
        base = posterior(scm, {vid}, {})
        copy_id = wm.copies[vid][0]
        lifted = posterior(tm, {copy_id}, {})
        assert np.allclose(base.values, lifted.values, rtol=1e-9)


def test_mutilate_point_mass_and_idempotence():
    scm = chain_scm()
    cut = mutilate(scm, {1: 1})
    assert cut.parents[1] == ()
    assert list(cut.tables[1]) == [0.0, 1.0]
    marg = posterior(cut, {1}, {})
    assert np.allclose(marg.values, [0.0, 1.0])
    twice = mutilate(cut, {1: 1})
    assert twice.tables[1].tolist() == cut.tables[1].tolist()
    root_cut = mutilate(scm, {0: 0})
    assert list(root_cut.tables[0]) == [1.0, 0.0]


def test_counterfactual_query_mapping():
    scm = chain_scm()
    x, y = {1: 0}, {2: 0}
    v, w = {1: 1}, {2: 1}
    e = {1: 0, 2: 0}
    model, e1, e2 = counterfactual_query(scm, x, y, v, w, e)
    by_name = {model.var(k).name: s for k, s in e1.items()}
    assert by_name == {"[Y]": 0, "[[Y]]": 1}
    by_name2 = {model.var(k).name: s for k, s in e2.items()}
    assert by_name2 == {"[X]": 0, "[[X]]": 1, "X": 0, "Y": 0}
    # mutilated treatments are parentless point masses
    assert model.parents[model.by_name("[X]").id] == ()


def test_counterfactual_query_rejects_overlap_and_roots():
    scm = chain_scm()
    with pytest.raises(ModelError):
        counterfactual_query(scm, {1: 0}, {1: 1}, {}, {}, {})
    with pytest.raises(ModelError):
        counterfactual_query(scm, {0: 0}, {2: 0}, {}, {}, {})


def test_counterfactual_query_refuses_unknown_ids_and_states():
    # An unknown id once raised a raw KeyError, and an out-of-range outcome
    # state was accepted.
    scm = chain_scm()
    with pytest.raises(ModelError, match="ill-posed counterfactual term: unknown variable id 9"):
        counterfactual_query(scm, {}, {9: 0}, {}, {}, {})
    with pytest.raises(ModelError, match="state 5 out of range for 'Y'"):
        counterfactual_query(scm, {}, {2: 5}, {}, {}, {})
    with pytest.raises(ModelError, match=r"overlap outcomes \(X\); variable 'U' in e must be"):
        counterfactual_query(scm, {1: 0}, {1: 1}, {}, {}, {0: 0})


def test_mutilate_refuses_unknown_ids():
    # Id 7 once raised a raw IndexError, -1 returned the model unmutilated,
    # and 1.0 raised a raw TypeError.
    scm = chain_scm()
    for vid in (7, -1, 1.0, True):
        with pytest.raises(ModelError, match=f"unknown variable id {vid}"):
            mutilate(scm, {vid: 0})


def test_counterfactual_query_refuses_non_integer_ids():
    # A float id equal to a model id once passed the id check and raised a
    # raw TypeError from Scm.var.
    scm = chain_scm()
    with pytest.raises(ModelError, match="unknown variable id 2.0 in y"):
        counterfactual_query(scm, {}, {2.0: 0}, {}, {}, {})
    with pytest.raises(ModelError, match="unknown variable id 1.0 in x"):
        counterfactual_query(scm, {1.0: 0}, {1: 1}, {}, {}, {})
    with pytest.raises(ModelError, match="unknown variable id True in e"):
        counterfactual_query(scm, {}, {2: 0}, {}, {}, {True: 0})


def xor_noise_scm(endogenous_noise: bool):
    """Y = U xor N with Pr(N=1) = 0.2; N copies a root R when endogenous."""
    if not endogenous_noise:
        return make_scm(
            [("U", ["0", "1"]), ("N", ["0", "1"]), ("Y", ["0", "1"])],
            {"U": [], "N": [], "Y": ["U", "N"]},
            {"U": [0.5, 0.5], "N": [0.8, 0.2], "Y": [1, 0, 0, 1, 0, 1, 1, 0]},
        )
    return make_scm(
        [("U", ["0", "1"]), ("R", ["0", "1"]), ("N", ["0", "1"]), ("Y", ["0", "1"])],
        {"U": [], "R": [], "N": ["R"], "Y": ["U", "N"]},
        {"U": [0.5, 0.5], "R": [0.8, 0.2], "N": [1, 0, 0, 1], "Y": [1, 0, 0, 1, 0, 1, 1, 0]},
    )


def test_oracle_refuses_ill_posed_terms_and_units():
    scm = xor_noise_scm(endogenous_noise=True)
    assert counterfactual_oracle(scm, {2: 1}, {3: 1}, {}, {}, {}, {0: 0}) == 1.0
    # do(N=-1) once answered 1.0, the value of do(N=1).
    with pytest.raises(ModelError, match="state -1 out of range for 'N'"):
        counterfactual_oracle(scm, {2: -1}, {3: 1}, {}, {}, {}, {0: 0})
    with pytest.raises(ModelError, match="treatments overlap outcomes"):
        counterfactual_oracle(scm, {2: 0}, {2: 1}, {}, {}, {}, {0: 0})
    # An unknown unit id once raised a raw KeyError.
    with pytest.raises(ModelError, match="unknown unit variable id 9"):
        counterfactual_oracle(scm, {}, {3: 1}, {}, {}, {}, {9: 0})
    with pytest.raises(ModelError, match="^unit variable 'N' must be a root$"):
        counterfactual_oracle(scm, {}, {3: 1}, {}, {}, {}, {2: 0})


def test_oracle_refuses_non_integer_unit_ids():
    # A float unit id equal to a model id once raised a raw TypeError from
    # Scm.var, and the term profile accepted it silently.
    with open(fixture_path("five_node.json"), "rb") as fh:
        scm = load_model(fh.read())
    assert counterfactual_oracle(scm, {}, {4: 0}, {}, {}, {}, {0: 0}) == 0.0
    for u in ({0.0: 0}, {True: 0}, {"a": 0, 0: 0}):
        with pytest.raises(ModelError, match="unknown unit variable id"):
            counterfactual_oracle(scm, {}, {4: 0}, {}, {}, {}, u)
        with pytest.raises(ModelError, match="unknown unit variable id"):
            counterfactual_term_profile(scm, {}, {4: 0}, {}, {}, {}, u)


def test_term_profile_refuses_repeated_unit_ids():
    # Units [0, 0] once gave arrays of shape (2,): one axis for two ids.
    with open(fixture_path("five_node.json"), "rb") as fh:
        scm = load_model(fh.read())
    values, defined = counterfactual_term_profile(scm, {}, {4: 0}, {}, {}, {}, [0])
    assert values.shape == defined.shape == (2,)
    for units in ([0, 0], [0, 0, 0]):
        with pytest.raises(ModelError, match="repeated unit variable ids"):
            counterfactual_term_profile(scm, {}, {4: 0}, {}, {}, {}, units)


def test_oracle_refuses_out_of_range_unit_states():
    # U=-1 once answered 0.8, the value of U=1; U=2 raised a raw IndexError.
    scm = xor_noise_scm(endogenous_noise=False)
    assert counterfactual_oracle(scm, {}, {2: 1}, {}, {}, {}, {0: 1}) == 0.8
    for state in (-1, 2):
        with pytest.raises(ModelError, match=f"state {state} out of range for 'U'"):
            counterfactual_oracle(scm, {}, {2: 1}, {}, {}, {}, {0: state})


def test_empty_treatments_reduce_to_observational():
    scm = small_scm(5, lo=5, hi=7)
    y_vid = scm.endogenous()[-1]
    model, e1, e2 = counterfactual_query(scm, {}, {y_vid: 0}, {}, {y_vid: 1}, {})
    # Pr([y0], [[y1]]) with no interventions: worlds agree given shared roots,
    # so the joint outcome probability is 0 unless y0 == y1.
    val = query_prob(model, e1, e2)
    assert math.isclose(val, 0.0, abs_tol=1e-12)
    model2, e1b, e2b = counterfactual_query(scm, {}, {y_vid: 0}, {}, {y_vid: 0}, {})
    base = posterior(scm, {y_vid}, {})[{y_vid: 0}]
    assert math.isclose(query_prob(model2, e1b, e2b), base, rel_tol=1e-9)


def _oracle_vs_query(scm, x, y, v, w, e):
    model, e1, e2 = counterfactual_query(scm, x, y, v, w, e)
    units = tuple(scm.roots)
    for u in enumerate_instantiations(scm, units):
        expected = counterfactual_oracle(scm, x, y, v, w, e, u)
        u_mapped = {
            model.by_name(scm.var(r).name).id: s for r, s in u.items()
        }
        if expected is None:
            with pytest.raises(InconsistentEvidenceError):
                query_prob(model, e1, {**e2, **u_mapped})
            continue
        got = query_prob(model, e1, {**e2, **u_mapped})
        assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_query_equals_oracle_on_random_models(seed):
    rng = np.random.default_rng([31, seed])
    scm = small_scm(seed + 100, lo=5, hi=8)
    endo = list(scm.endogenous())
    rng.shuffle(endo)
    x = {endo[0]: int(rng.integers(0, 2))}
    y = {endo[1]: int(rng.integers(0, 2))}
    v = {endo[0]: int(rng.integers(0, 2))}
    w = {endo[2 % len(endo)]: int(rng.integers(0, 2))} if len(endo) > 2 else {}
    overlap = (set(x) | set(v)) & (set(y) | set(w))
    if overlap:
        w = {}
    e = {endo[-1]: int(rng.integers(0, 2))} if endo[-1] not in set(x) | set(v) else {}
    _oracle_vs_query(scm, x, y, v, w, e)


def test_oracle_trivial_cases():
    scm = chain_scm()
    # worlds coincide: interventional probability
    val = counterfactual_oracle(scm, {1: 0}, {2: 1}, {1: 0}, {2: 1}, {}, {0: 0})
    assert val == 1.0  # Y = not X, do(X=0) -> Y=1 deterministically
    # deterministic unit pins everything
    val2 = counterfactual_oracle(scm, {1: 0}, {2: 0}, {}, {}, {}, {0: 0})
    assert val2 in (0.0, 1.0)
    with pytest.raises(ModelError):
        counterfactual_oracle(
            make_scm(
                [("U", ["0", "1"]), ("V", ["0", "1"])],
                {"U": [], "V": ["U"]},
                {"U": [0.5, 0.5], "V": [0.6, 0.4, 0.3, 0.7]},
            ),
            {}, {1: 0}, {}, {}, {}, {0: 0},
        )


def test_oracle_undefined_unit():
    scm = make_scm(
        [("U", ["0", "1"]), ("X", ["0", "1"])],
        {"U": [], "X": ["U"]},
        {"U": [1.0, 0.0], "X": [1, 0, 0, 1]},
    )
    # conditioning on X=1 is impossible when U=0 (and theta(u1)=0 kills u=1)
    assert counterfactual_oracle(scm, {}, {1: 1}, {}, {}, {1: 1}, {0: 0}) is None


@pytest.mark.parametrize("seed", range(6))
def test_triplet_symmetry(seed):
    rng = np.random.default_rng([67, seed])
    scm = small_scm(seed + 300, lo=5, hi=7)
    endo = list(scm.endogenous())
    rng.shuffle(endo)
    x = {endo[0]: 0}
    y = {endo[1]: 1}
    v = {endo[0]: 1}
    w = {endo[1]: 0}
    units = tuple(scm.roots)
    a, da = counterfactual_term_profile(scm, x, y, v, w, {}, units)
    b, db = counterfactual_term_profile(scm, v, w, x, y, {}, units)
    assert np.array_equal(da, db)
    assert np.allclose(a, b, rtol=1e-12)


def test_twin_model_counts():
    scm = small_scm(17, lo=5, hi=8)
    tw, _ = twin_model(scm)
    assert tw.n == 2 * len(scm.endogenous()) + len(scm.roots)
    assert validate(tw).is_valid_scm == validate(scm).is_valid_scm
