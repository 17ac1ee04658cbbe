"""Every model the package builds loads back as the same bytes.

A built model that ``save_model`` writes but ``load_model`` refuses (a
variable named by an int, say) is a model the package cannot exchange. The
corpora are those whose bytes ``test_model_bytes`` pins, plus the
shared-worlds solve models of unit selection and the generators' own models.
"""

import json

import pytest

from unitsel import load_model, save_model
from unitsel.bench import gen_tight_family
from unitsel.objective import _solve_model
from test_model_bytes import (CORPORA, SEEDS, benefit_objective, colliding_names,
                              evidence_objective, random_scm)


def assert_loads_back(saved: bytes) -> None:
    assert save_model(load_model(saved, allow_nonfunctional=True)) == saved


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_pinned_models_load_back(corpus):
    records, _ = CORPORA[corpus]
    decoder = json.JSONDecoder()
    for record in records():
        # Each record starts with the saved model; its structural outputs follow.
        text = record.decode()
        assert_loads_back(text[: decoder.raw_decode(text)[1]].encode())


def test_generated_and_solve_models_load_back():
    instances = []
    for seed in SEEDS:
        scm = random_scm(seed)
        instances += [(scm, benefit_objective(scm)), (scm, evidence_objective(scm))]
    instances.append(colliding_names())
    instances += [(scm, objective) for scm, _, objective in map(gen_tight_family, range(3, 9))]
    for scm, objective in instances:
        assert_loads_back(save_model(scm))
        assert_loads_back(save_model(_solve_model(scm, objective).model))
