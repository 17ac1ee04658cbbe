"""Generators and the width-table harness."""

import hashlib

import numpy as np
import pytest

from unitsel import (
    ModelError,
    build_objective_model,
    is_external,
    make_scm,
    minfill_order,
    moral_graph,
    save_model,
    simulate_elimination,
    validate,
)
from unitsel.bench import (
    GenConfig,
    default_bench_configs,
    gen_benefit_objective,
    gen_random_scm,
    gen_tight_family,
    run_width_table,
    tight_family_order,
    width_table_csv,
)
from unitsel.elimination import treewidth_exact
from corpus import random_constrained_order


def test_gen_config_validation():
    with pytest.raises(ModelError):
        GenConfig(node_count=1, seed=0)
    with pytest.raises(ModelError):
        GenConfig(node_count=5, seed=0, unit_ratio=0.0)
    for max_parents in (0, -1):
        with pytest.raises(ModelError, match="max_parents"):
            GenConfig(node_count=3, seed=0, max_parents=max_parents)
    for trials in (0, -1):
        with pytest.raises(ModelError, match="trials"):
            GenConfig(node_count=3, seed=0, trials=trials)


@pytest.mark.parametrize("kwargs", [
    {"node_count": 5.5}, {"node_count": True}, {"seed": 1.0}, {"seed": None},
    {"max_parents": True}, {"max_parents": 2.0}, {"trials": 2.5}, {"trials": False},
])
def test_gen_config_refuses_a_parameter_that_is_not_an_int(kwargs):
    # GenConfig(5.5, 0) once passed its checks and then made gen_random_scm
    # raise a raw TypeError; trials=2.5 and max_parents=True were accepted.
    name = next(iter(kwargs))
    with pytest.raises(ModelError, match=f"^{name} must be an integer, got "):
        GenConfig(**{"node_count": 5, "seed": 0, **kwargs})


def test_gen_config_refuses_a_negative_seed():
    with pytest.raises(ModelError, match="^seed must be >= 0, got -1$"):
        GenConfig(node_count=5, seed=-1)
    cfg = GenConfig(node_count=np.int64(5), seed=np.int64(0), max_parents=np.int64(2))
    assert validate(gen_random_scm(cfg)).is_valid_scm


def test_gen_random_scm_minimal():
    scm = gen_random_scm(GenConfig(node_count=2, seed=3))
    assert validate(scm).is_valid_scm
    assert len(scm.roots) >= 1
    child = scm.endogenous()[0]
    assert validate(scm).functional_status[child]


@pytest.mark.parametrize("seed", range(10))
def test_gen_random_scm_postconditions(seed):
    scm = gen_random_scm(GenConfig(node_count=9, seed=seed))
    assert validate(scm).is_valid_scm
    roots = set(scm.roots)
    for vid in scm.endogenous():
        assert any(p in roots for p in scm.parents[vid])
    assert moral_graph(scm).connected()
    priors = [scm.tables[r] for r in roots]
    assert all(0.05 / 1.0 <= p.min() for p in priors)


def test_gen_random_scm_deterministic():
    a = save_model(gen_random_scm(GenConfig(node_count=12, seed=99)))
    b = save_model(gen_random_scm(GenConfig(node_count=12, seed=99)))
    c = save_model(gen_random_scm(GenConfig(node_count=12, seed=100)))
    assert a == b
    assert a != c


def test_tight_family_structure():
    scm, units, L = gen_tight_family(5)
    assert [scm.var(u).name for u in units] == ["U1", "U2", "U3", "U4", "U5"]
    names = {v.name for v in scm.variables}
    assert names == {"U1", "U2", "U3", "U4", "U5", "E", "X1", "X2", "X3", "X4"}
    e = scm.by_name("E")
    assert scm.parents[e.id] == (scm.by_name("U5").id,)
    x4 = scm.by_name("X4")
    assert set(scm.parents[x4.id]) == {scm.by_name("U4").id, scm.by_name("U5").id, e.id}
    assert validate(scm).is_valid_scm
    # terms pair consecutive outcomes with treatment E and no evidence
    assert len(L.terms) == 2
    assert all(not t.e for t in L.terms)
    assert all(set(t.x) == {e.id} and set(t.v) == {e.id} for t in L.terms)
    with pytest.raises(ModelError):
        gen_tight_family(2)


@pytest.mark.parametrize("n", [3.5, 4.0, "4", True])
def test_tight_family_refuses_a_size_that_is_not_an_int(n):
    # 3.5 and 4.0 once raised a raw TypeError, "4" another one.
    with pytest.raises(ModelError, match="^tight family needs an integer n >= 3, got "):
        gen_tight_family(n)


def test_tight_family_odd_tail():
    scm, units, L = gen_tight_family(4)  # outcomes X1..X3: one pair + tail
    assert len(L.terms) == 2
    tail = L.terms[-1]
    assert not tail.v and not tail.w
    assert abs(sum(t.weight for t in L.terms) - 1.0) < 1e-12


@pytest.mark.parametrize("n", range(3, 11))
def test_tight_family_base_width_three(n):
    scm, units, _ = gen_tight_family(n)
    g = moral_graph(scm)
    assert simulate_elimination(g, tight_family_order(scm, n)).width == 3
    if n <= 6:
        assert treewidth_exact(g, constrained_suffix=units)[0] == 3


@pytest.mark.parametrize("n", range(3, 11))
def test_tight_family_objective_width_at_least_n(n):
    scm, units, L = gen_tight_family(n)
    om = build_objective_model(scm, L)
    g = moral_graph(om.model)
    w = simulate_elimination(
        g, minfill_order(g, constrained_suffix=om.unit_om_ids)
    ).width
    assert w >= n


def test_tight_family_h_cluster_covers_units():
    # Eliminating the mixture root just before the unit block forms a cluster
    # containing every unit variable plus the root itself.
    n = 6
    scm, units, L = gen_tight_family(n)
    om = build_objective_model(scm, L)
    g = moral_graph(om.model)
    base = tight_family_order(scm, n)
    from unitsel.elimination import lift_order

    lifted = lift_order(base, om.duplicates(), om.h_id)
    report = simulate_elimination(g, lifted)
    h_position = lifted.sequence.index(om.h_id)
    h_cluster = report.clusters[h_position]
    assert set(om.unit_om_ids) | {om.h_id} <= set(h_cluster)


def test_benefit_objective_term_order():
    scm = gen_random_scm(GenConfig(node_count=6, seed=1))
    endo = scm.endogenous()
    x, y = endo[0], endo[-1]
    L = gen_benefit_objective(scm, x, y, (0.4, 0.3, 0.2, 0.1))
    pairs = [(t.y[y], t.w[y]) for t in L.terms]
    assert pairs == [(0, 1), (0, 0), (1, 1), (1, 0)]
    assert [t.weight for t in L.terms] == [0.4, 0.3, 0.2, 0.1]
    assert all(t.x == {x: 0} and t.v == {x: 1} and not t.e for t in L.terms)
    om = build_objective_model(scm, L)
    assert all(comp.worlds == (2, 3) for comp in om.components)
    with pytest.raises(ModelError):
        gen_benefit_objective(scm, scm.roots[0], y, (1, 0, 0, 0))
    with pytest.raises(ModelError):
        gen_benefit_objective(scm, x, y, (1, 0, 0))


def test_width_table_csv_contract():
    cfgs = [GenConfig(node_count=8, seed=5, unit_ratio=0.5, trials=3)]
    rows = run_width_table(cfgs)
    text = width_table_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "n,n2,R,ur,n1,w,w1,w2"
    assert len(lines) == 2
    assert rows[0].lifted_bound_ok


def test_width_table_deterministic():
    cfgs = [GenConfig(node_count=10, seed=11, unit_ratio=0.4, trials=4)]
    a = width_table_csv(run_width_table(cfgs))
    b = width_table_csv(run_width_table(cfgs))
    assert a == b


def test_default_width_table_csv_is_pinned():
    # Every order and cluster behind the default grid feeds these means, so
    # a slip in minfill or in the simulation that keeps the widths still
    # moves the digest.
    csv = width_table_csv(run_width_table(default_bench_configs(seed=7, trials=3)))
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "0a4f753fd7a86169b4062be450daa79c9c787803f4803342ad3147c6d4600f98"
    )


def test_default_bench_configs_grid():
    cfgs = default_bench_configs(seed=7, trials=2)
    assert len(cfgs) == 15
    assert {c.node_count for c in cfgs} == {10, 15, 20}


@pytest.mark.parametrize("seed", range(10))
def test_external_roots_width_lower_bound(seed):
    rng = np.random.default_rng([4242, seed])
    found = 0
    attempt = 0
    while found < 2 and attempt < 40:
        attempt += 1
        scm = gen_random_scm(
            GenConfig(node_count=int(rng.integers(6, 11)), seed=0), rng=rng
        )
        roots = scm.roots
        k = int(rng.integers(1, len(roots) + 1))
        units = tuple(sorted(int(v) for v in rng.choice(roots, size=k, replace=False)))
        if not is_external(scm, units):
            continue
        found += 1
        g = moral_graph(scm)
        w = simulate_elimination(g, minfill_order(g, constrained_suffix=units)).width
        assert w >= len(units)
        for _ in range(3):
            order = random_constrained_order(g, units, rng)
            assert simulate_elimination(g, order).width >= len(units)
    assert found >= 1


def test_benefit_objective_refuses_a_non_binary_variable():
    scm = make_scm(
        [("U", ["0", "1", "2"]), ("X", ["0", "1", "2"]), ("Y", ["0", "1"])],
        {"U": [], "X": ["U"], "Y": ["X"]},
        {"U": [0.2, 0.3, 0.5], "X": [1, 0, 0, 0, 1, 0, 0, 0, 1], "Y": [1, 0, 0, 1, 0, 1]},
    )
    with pytest.raises(ModelError, match="^treatment variable must be binary$"):
        gen_benefit_objective(scm, 1, 2, (0.4, 0.3, 0.2, 0.1))
