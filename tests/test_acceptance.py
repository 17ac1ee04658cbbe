"""Acceptance suite: one test per shipping criterion, with pinned tolerances.

Each test prints a single PASS line (visible under pytest -s or in the
captured output summary) and enforces its runtime budget.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from unitsel import (
    EliminationOrder,
    InconsistentEvidenceError,
    brute_map,
    brute_rmap,
    build_objective_model,
    is_external,
    load_model,
    map_ve,
    minfill_order,
    model_size_stats,
    moral_graph,
    posterior,
    rmap_table,
    rmap_ve,
    simulate_elimination,
    treewidth_exact,
    unit_select,
)
from unitsel import fixture_path
from unitsel.bench import (
    GenConfig,
    gen_benefit_objective,
    gen_random_scm,
    gen_tight_family,
    run_width_table,
    tight_family_order,
)
from unitsel.elimination import lift_order
from unitsel.inference import joint_mass
from unitsel.objective import evaluate_L_brute
from unitsel.reductions import (
    compile_formula,
    emajsat_ratio,
    evaluate,
    parse_dimacs,
    sat_via_rmap,
    truth_table,
)
from unitsel.worlds import enumerate_instantiations, n_world_model
from corpus import random_cnf, random_constrained_order, random_instance

CORPUS_SIZE = 200


@pytest.fixture(scope="module")
def corpus():
    return [random_instance(seed) for seed in range(CORPUS_SIZE)]


def _report(criterion: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def test_criterion_1_two_node_regression():
    with open(fixture_path("two_node.json"), "rb") as fh:
        scm = load_model(fh.read(), allow_nonfunctional=True)
    m = map_ve(scm, [0], {1: 0})
    r = rmap_ve(scm, [0], {1: 0}, {})
    assert m.instantiation == {0: 1}  # u2
    assert r.instantiation == {0: 0}  # u1
    assert m.instantiation != r.instantiation
    assert abs(m.value - 0.24) <= 1e-12
    assert abs(r.value - 0.6) <= 1e-12
    times = []
    for _ in range(20):
        t0 = time.perf_counter()
        map_ve(scm, [0], {1: 0})
        rmap_ve(scm, [0], {1: 0}, {})
        times.append(time.perf_counter() - t0)
    best = min(times)
    assert best < 1e-3, f"runtime {best * 1e3:.3f} ms"
    _report("1 (two-node regression)", f"({best * 1e3:.3f} ms)")


def test_criterion_2_trace_reproduction():
    with open(fixture_path("five_node.json"), "rb") as fh:
        scm = load_model(fh.read())
    ids = {v.name: v.id for v in scm.variables}
    order = EliminationOrder(
        tuple(ids[n] for n in "EDCBA"), frozenset({ids["A"], ids["B"]})
    )
    report = simulate_elimination(moral_graph(scm), order)
    names = ["".join(sorted(scm.var(v).name for v in c)) for c in report.clusters]
    assert names == ["CE", "BCD", "ABC", "AB", "A"]
    assert report.width == 2
    result = map_ve(scm, [ids["A"], ids["B"]], {ids["E"]: 0}, order=order, want_trace=True)
    trace_names = ["".join(sorted(scm.var(v).name for v in s.cluster)) for s in result.trace]
    assert trace_names == names
    _report("2 (worked trace)")


def test_criterion_3_reduction_equality(corpus):
    t0 = time.perf_counter()
    checked = 0
    for scm, units, L in corpus:
        assert len(scm.endogenous()) <= 8 and len(units) <= 3 and len(L.terms) <= 3
        om = build_objective_model(scm, L)
        for u in enumerate_instantiations(scm, units):
            expected = evaluate_L_brute(scm, L, u)
            mapped = {
                om_id: u[b] for b, om_id in zip(om.unit_base_ids, om.unit_om_ids)
            }
            if expected is None:
                with pytest.raises(InconsistentEvidenceError):
                    posterior(om.model, set(om.e1), {**om.e2, **mapped})
                continue
            got = posterior(om.model, set(om.e1), {**om.e2, **mapped})[om.e1]
            assert abs(got - expected) <= 1e-9
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"{elapsed:.1f} s"
    _report("3 (reduction equality)", f"({checked} unit checks, {elapsed:.1f} s)")


def test_criterion_4_solver_oracle_equivalence(corpus):
    t0 = time.perf_counter()
    solved = 0
    for scm, units, L in corpus:
        try:
            ve = unit_select(scm, L, method="ve")
        except InconsistentEvidenceError:
            with pytest.raises(InconsistentEvidenceError):
                unit_select(scm, L, method="brute")
            continue
        br = unit_select(scm, L, method="brute")
        solved += 1
        assert abs(ve.value - br.value) <= 1e-9
        assert ve.excluded == br.excluded
        for res in (ve, br):  # tie-equivalent argmaxes
            val = evaluate_L_brute(scm, L, res.instantiation)
            assert val is not None and abs(val - br.value) <= 1e-9

    rng_queries = 0
    for seed in range(CORPUS_SIZE):
        rng = np.random.default_rng([6007, seed])
        scm, units, _ = random_instance(seed + 1000)
        vids = [v.id for v in scm.variables]
        rng.shuffle(vids)
        targets = sorted(vids[:2])
        e1 = {vids[2]: int(rng.integers(0, 2))}
        e2 = {vids[3]: int(rng.integers(0, 2))} if rng.random() < 0.5 else {}
        vm = map_ve(scm, targets, {**e1, **e2})
        bm = brute_map(scm, targets, {**e1, **e2})
        assert abs(vm.value - bm.value) <= 1e-9
        for inst in (vm.instantiation, bm.instantiation):
            assert abs(joint_mass(scm, {**e1, **e2, **inst}) - bm.value) <= 1e-9
        try:
            vr = rmap_ve(scm, targets, e1, e2)
            br = brute_rmap(scm, targets, e1, e2)
        except InconsistentEvidenceError:
            continue
        assert abs(vr.value - br.value) <= 1e-9
        assert vr.excluded == br.excluded
        if br.value > 0:
            for inst in (vr.instantiation, br.instantiation):
                m2 = joint_mass(scm, {**e2, **inst})
                assert m2 > 0
                assert abs(joint_mass(scm, {**e1, **e2, **inst}) / m2 - br.value) <= 1e-9
        rng_queries += 1
    elapsed = time.perf_counter() - t0
    _report(
        "4 (solver oracle equivalence)",
        f"({solved} objectives, {rng_queries} query instances, {elapsed:.1f} s)",
    )


def test_criterion_5_width_bound_properties():
    violations = {k: 0 for k in "abcdef"}
    for trial in range(100):
        rng = np.random.default_rng([7001, trial])
        scm, units, L = random_instance(trial + 2000)
        n = len(L.terms)
        g = moral_graph(scm)

        om_full = build_objective_model(scm, L, drop_worlds=False)
        go = moral_graph(om_full.model)
        pi_u = minfill_order(g)
        w_u = simulate_elimination(g, pi_u).width
        wa = simulate_elimination(
            go, lift_order(pi_u, om_full.duplicates(), om_full.h_id)
        ).width
        if wa > 3 * n * (w_u + 1):
            violations["a"] += 1

        pi_c = minfill_order(g, constrained_suffix=units)
        w_c = simulate_elimination(g, pi_c).width
        wb = simulate_elimination(
            go, lift_order(pi_c, om_full.duplicates(), om_full.h_id)
        ).width
        if wb > max(3 * w_c + 3, len(units)):
            violations["b"] += 1

        endo = scm.endogenous()
        leaves = [v for v in endo if not scm.children[v]]
        y_id = int(rng.choice(leaves))
        x_id = int(rng.choice([v for v in endo if v != y_id]))
        Lb = gen_benefit_objective(scm, x_id, y_id, (0.25,) * 4, units=units)
        omb_full = build_objective_model(scm, Lb, drop_worlds=False)
        wc = simulate_elimination(
            moral_graph(omb_full.model),
            lift_order(pi_c, omb_full.duplicates(), omb_full.h_id),
        ).width
        if wc > 3 * w_c + 3:
            violations["c"] += 1

        omb = build_objective_model(scm, Lb)
        wd = simulate_elimination(
            moral_graph(omb.model),
            lift_order(pi_c, omb.duplicates(), omb.h_id),
        ).width
        if wd > 2 * w_c + 2:
            violations["d"] += 1

        nodes = [v.id for v in scm.variables]
        k = int(rng.integers(1, len(nodes) + 1))
        children = sorted(int(v) for v in rng.choice(nodes, size=k, replace=False))
        g2 = moral_graph(scm)
        h = max(nodes) + 1
        g2.adj[h] = set()
        for z in children:
            g2.add_edge(h, z)
            for p in scm.parents[z]:
                g2.add_edge(h, p)
        we = simulate_elimination(g2, EliminationOrder(pi_u.sequence + (h,))).width
        if we > w_u + 1:
            violations["e"] += 1

        k_worlds = int(rng.integers(1, 5))
        nw, wm = n_world_model(scm, units, k_worlds)
        wf = simulate_elimination(moral_graph(nw), lift_order(pi_c, wm.copies)).width
        if wf != w_c:
            violations["f"] += 1
    assert violations == {k: 0 for k in "abcdef"}, violations
    _report("5 (width bounds a-f)", "(100 instances, zero violations)")


def test_criterion_6_tightness_family():
    t0 = time.perf_counter()
    for n in range(3, 11):
        scm, units, L = gen_tight_family(n)
        g = moral_graph(scm)
        assert simulate_elimination(g, tight_family_order(scm, n)).width == 3
        assert treewidth_exact(g, constrained_suffix=units)[0] == 3  # the chain order is optimal
        om = build_objective_model(scm, L)
        go = moral_graph(om.model)
        w_obj = simulate_elimination(
            go, minfill_order(go, constrained_suffix=om.unit_om_ids)
        ).width
        assert w_obj >= n
        if n <= 4:
            assert treewidth_exact(go, constrained_suffix=set(om.unit_om_ids))[0] >= n
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"{elapsed:.1f} s"
    _report("6 (tightness family)", f"({elapsed:.1f} s)")


def test_criterion_7_external_roots_lower_bound():
    rng = np.random.default_rng(8009)
    found = 0
    attempts = 0
    while found < 50:
        attempts += 1
        assert attempts < 2000, "could not find 50 external instances"
        scm = gen_random_scm(
            GenConfig(node_count=int(rng.integers(6, 13)), seed=0), rng=rng
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
        for _ in range(10):
            order = random_constrained_order(g, units, rng)
            assert simulate_elimination(g, order).width >= len(units)
    _report("7 (external-roots lower bound)", f"({found} instances)")


def test_criterion_8_hardness_constructions():
    t0 = time.perf_counter()
    for seed in range(100):
        f = parse_dimacs(random_cnf(seed, max_vars=12))
        scm, sentinel = compile_formula(f)
        roots = [scm.by_name(name).id for name in f.variables]
        table = truth_table(f)

        profile = rmap_table(scm, roots, {sentinel: 1}, {})
        grid = np.transpose(
            profile.values,
            [profile.vids.index(scm.by_name(n).id) for n in f.variables],
        )
        assert np.array_equal(grid, table.astype(float))  # exact

        half = len(f.variables) // 2 or 1
        fp = f.with_partition(f.variables[:half], f.variables[half:])
        counts = table.reshape(2 ** len(fp.u_vars), -1).sum(axis=1)
        v_space = 2 ** len(fp.v_vars)
        for i, u_states in enumerate(
            np.ndindex(*(2,) * len(fp.u_vars))
        ):
            named = dict(zip(fp.u_vars, map(int, u_states)))
            assert emajsat_ratio(fp, named) == Fraction(int(counts[i]), v_space)

        ok, witness = sat_via_rmap(f)
        assert ok == bool(table.any())
        if ok:
            assert evaluate(f.root, witness)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"{elapsed:.1f} s"
    _report("8 (hardness constructions)", f"(100 formulas, {elapsed:.1f} s)")


def test_criterion_9_benchmark_trend():
    t0 = time.perf_counter()
    cfgs = [
        GenConfig(node_count=n, seed=7, unit_ratio=ur, trials=25)
        for n in (10, 15, 20)
        for ur in (0.2, 1.0)
    ]
    rows = run_width_table(cfgs)
    assert all(r.lifted_bound_ok for r in rows)  # criterion 5d per row
    for ur in (0.2, 1.0):
        sub = [r for r in rows if r.config.unit_ratio == ur]
        assert all(r.mean_w <= r.mean_w1 <= r.mean_w2 for r in sub)
        gaps = [r.mean_w2 - r.mean_w1 for r in sub]
        assert gaps[0] < gaps[1] < gaps[2], f"ur={ur}: {gaps}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"{elapsed:.1f} s"
    _report("9 (benchmark trend)", f"({elapsed:.1f} s)")


def _expected_parameters(scm, L, om):
    total = sum(scm.var(u).cardinality for u in om.unit_base_ids)
    unit_set = set(om.unit_base_ids)
    nonunit_roots = [r for r in scm.roots if r not in unit_set]
    for i, term in enumerate(L.terms):
        comp = om.components[i]
        total += sum(scm.var(r).cardinality for r in nonunit_roots)
        for world in comp.worlds:
            for b in scm.endogenous():
                mutilated = (world == 2 and b in term.x) or (
                    world == 3 and b in term.v
                )
                outcome = (world == 2 and b in term.y) or (
                    world == 3 and b in term.w
                )
                if mutilated:
                    total += scm.var(b).cardinality
                elif outcome:
                    total += scm.tables[b].size * len(L.terms)
                else:
                    total += scm.tables[b].size
    total += len(L.terms)  # mixture prior
    return total


def test_criterion_10_objective_model_size(corpus):
    for scm, units, L in corpus:
        om = build_objective_model(scm, L)
        stats = model_size_stats(om)
        assert stats.nodes == stats.nodes_formula
        assert stats.parameters == _expected_parameters(scm, L, om)
        assert stats.parameters <= 4 * len(L.terms) * scm.size_parameters()
    _report("10 (objective-model size)", f"({len(corpus)} instances)")
