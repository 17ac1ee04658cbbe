"""Elimination orders, clusters and what the objective model costs.

First the textbook five-node example: eliminating E, D, C, B, A induces the
clusters CE, BCD, ABC, AB, A (width 2), and the variable-elimination engine
reproduces the same table factor by factor. Then we lift a constrained order
of a base model to its objective model and compare the lifted width against
the proven bounds, including the chain family where the base width stays at 3
while the objective model's constrained width must reach the number of units.
"""

from unitsel import (
    EliminationOrder,
    build_objective_model,
    fixture_path,
    load_model,
    map_ve,
    minfill_order,
    moral_graph,
    simulate_elimination,
    treewidth_exact,
)
from unitsel.bench import gen_tight_family, tight_family_order
from unitsel.elimination import lift_order
from unitsel.inference import format_trace

scm = load_model(open(fixture_path("five_node.json"), "rb").read())
ids = {v.name: v.id for v in scm.variables}
order = EliminationOrder(tuple(ids[n] for n in "EDCBA"),
                         frozenset({ids["A"], ids["B"]}))

report = simulate_elimination(moral_graph(scm), order)
print("five-node model, order E,D,C,B,A:")
print("  clusters:", " ".join("".join(sorted(scm.var(v).name for v in c))
                              for c in report.clusters))
print("  width:", report.width)
print()
result = map_ve(scm, [ids["A"], ids["B"]], {ids["E"]: 0}, order=order,
                want_trace=True)
print(format_trace(result.trace, scm))
print(f"\nMAP value over A,B given E=e0: {result.value:.6f} at "
      f"{scm.names_of(result.instantiation)}")

print("\n" + "=" * 60)
print("chain family: bounded base width, unbounded objective width")
print(f"{'n':>3} {'base (exact)':>13} {'objective (minfill)':>20}")
for n in range(3, 9):
    base, units, objective = gen_tight_family(n)
    g = moral_graph(base)
    w_base = simulate_elimination(g, tight_family_order(base, n)).width
    assert treewidth_exact(g, constrained_suffix=units)[0] == w_base
    om = build_objective_model(base, objective)
    go = moral_graph(om.model)
    w_obj = simulate_elimination(
        go, minfill_order(go, constrained_suffix=om.unit_om_ids)
    ).width
    print(f"{n:>3} {w_base:>13} {w_obj:>20}")

print("\nlifting a constrained order (n = 6):")
base, units, objective = gen_tight_family(6)
om = build_objective_model(base, objective)
pi = tight_family_order(base, 6)
w = simulate_elimination(moral_graph(base), pi).width
lifted = lift_order(pi, om.duplicates(), om.h_id)
w_lifted = simulate_elimination(moral_graph(om.model), lifted).width
print(f"  base width w = {w}; lifted width = {w_lifted}; "
      f"bound max(3w+3, |U|) = {max(3 * w + 3, len(units))}")
