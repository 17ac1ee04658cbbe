"""Pinned bytes of the built multi-world and objective models.

Each corpus is hashed (sha256) over the saved model JSON plus every
structural output a caller reads: e1, e2, the mixture root id, the
component maps and ``duplicates()`` of an objective model, the world map
of an n-world model, the evidence pair of a counterfactual query, and the
sentinel id of a compiled circuit. A refactor of any builder must leave
every digest unchanged.
"""

import hashlib

import pytest

from unitsel import (
    ObjectiveFunction,
    ObjectiveTerm,
    build_objective_model,
    compile_formula,
    counterfactual_query,
    make_scm,
    mutilate,
    n_world_model,
    parse_dimacs,
    save_model,
    triplet_model,
    twin_model,
)
from unitsel.bench import GenConfig, gen_benefit_objective, gen_random_scm, gen_tight_family
from corpus import random_cnf

SEEDS = range(12)


def random_scm(seed: int):
    return gen_random_scm(GenConfig(node_count=4 + seed % 5, seed=seed))


def benefit_objective(scm):
    endo = scm.endogenous()
    y = max(v for v in endo if not scm.children[v])
    x = min(v for v in endo if v != y)
    units = scm.roots[: max(1, len(scm.roots) // 2)]
    return gen_benefit_objective(scm, x, y, (0.4, 0.3, 0.2, 0.1), units=units)


def evidence_objective(scm):
    # Treatments in worlds 2 and 3, evidence in world 1, and one term that is
    # observational in world 2 only; the evidence may repeat an outcome.
    endo = scm.endogenous()
    y = endo[-1]
    x = endo[0] if endo[0] != y else endo[1]
    z = endo[len(endo) // 2]
    z = y if z == x else z
    terms = (
        ObjectiveTerm(0.5, x={x: 0}, y={y: 1}, e={z: 1}),
        ObjectiveTerm(0.3, v={x: 1}, w={y: 0}, e={z: 0}),
        ObjectiveTerm(0.2, y={y: 1}),
    )
    return ObjectiveFunction(scm.roots[-1:], terms)


def colliding_names():
    # Unit copies keep their base names, so the first term's copy of R and
    # the mixture root both need a primed name.
    scm = make_scm(
        [("H", "01"), ("R", "01"), ("R^1", "01"), ("X", "01"), ("X^1", "01"), ("Y", "01")],
        {"H": [], "R": [], "R^1": [], "X": ["H", "R"], "X^1": ["X", "R^1"], "Y": ["X^1"]},
        {
            "H": [0.3, 0.7], "R": [0.6, 0.4], "R^1": [0.5, 0.5],
            "X": [1, 0, 0, 1, 0, 1, 1, 0], "X^1": [1, 0, 0, 1, 0, 1, 0, 1], "Y": [0, 1, 1, 0],
        },
    )
    terms = (
        ObjectiveTerm(0.75, x={3: 0}, y={5: 1}, e={4: 1}),
        ObjectiveTerm(0.25, v={4: 1}, w={5: 0}),
    )
    return scm, ObjectiveFunction((0, 2), terms)


def objective_record(scm, objective, drop_worlds):
    om = build_objective_model(scm, objective, drop_worlds=drop_worlds)
    tail = (om.e1, om.e2, om.h_id, om.components, sorted(om.duplicates().items()))
    return save_model(om.model) + repr(tail).encode()


def world_record(model, wm):
    return save_model(model) + repr((wm.n_worlds, sorted(wm.shared), wm.copies)).encode()


def random_objective_records():
    for seed in SEEDS:
        scm = random_scm(seed)
        for objective in (benefit_objective(scm), evidence_objective(scm)):
            for drop_worlds in (True, False):
                yield objective_record(scm, objective, drop_worlds)
    scm, objective = colliding_names()
    for drop_worlds in (True, False):
        yield objective_record(scm, objective, drop_worlds)


def tight_objective_records():
    for n in range(3, 9):
        scm, _, objective = gen_tight_family(n)
        for drop_worlds in (True, False):
            yield objective_record(scm, objective, drop_worlds)


def world_records():
    for seed in SEEDS:
        scm = random_scm(seed)
        for shared in (scm.roots, scm.roots[:1], ()):
            for k in (1, 2, 3):
                yield world_record(*n_world_model(scm, shared, k))
        yield world_record(*triplet_model(scm))
        yield world_record(*twin_model(scm))


def mutilated_records():
    for seed in SEEDS:
        scm = random_scm(seed)
        endo = scm.endogenous()
        x, y, z = endo[0], endo[-1], endo[len(endo) // 2]
        for interventions in ({x: 0}, {x: 1, y: 0}):
            yield save_model(mutilate(scm, interventions))
        model, e1, e2 = counterfactual_query(scm, {x: 0}, {y: 1}, {x: 1}, {y: 0}, {z: 1})
        yield save_model(model) + repr((e1, e2)).encode()


def compiled_records():
    for seed in range(40):
        scm, sentinel = compile_formula(parse_dimacs(random_cnf(seed)))
        yield save_model(scm) + repr(sentinel).encode()


CORPORA = {
    "objective-random": (
        random_objective_records,
        "40c40388da96aee390b0c1c5b80eeb5a3afab089b763bef76dd2a1c1c27d229e",
    ),
    "objective-tight": (
        tight_objective_records,
        "83505e81c183c369d32113dd08af6d06993aa6b7ef321e2f130ba8df2df2585a",
    ),
    "n-world": (
        world_records,
        "5df34131473bb3c4ecd54951c41f139eccf391e6950886ac68c19365dbdd4e82",
    ),
    "compiled": (
        compiled_records,
        "3caa1fc7c342d8ba76d69102224a5068f3844bac3025da5d6bdd9b3915becc36",
    ),
    "mutilated": (
        mutilated_records,
        "3579ef0aa4532046ac463d54dbcb856c62be8da8cc00f4b42799689c08dd32f2",
    ),
}


def digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(len(record).to_bytes(8, "big"))
        h.update(record)
    return h.hexdigest()


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_built_model_bytes_are_pinned(corpus):
    records, expected = CORPORA[corpus]
    assert digest(records()) == expected
