"""Instance generators and the width-table experiment harness.

The random generator samples a DAG where every non-first node picks parents
among earlier nodes, then gives every internal node lacking a root parent a
fresh dedicated root; internal CPTs are random truth tables, root priors are
sampled away from 0 and 1. The width harness compares, per instance, the
constrained width of the base model (MAP cost), the constrained width of the
benefit-objective model (Reverse-MAP cost) and |U| plus the unconstrained
width of the twin model (brute-force cost).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .factor import Variable, _is_int
from .model import ModelError, Scm, _known_id
from .objective import (
    ObjectiveFunction,
    ObjectiveTerm,
    build_objective_model,
    lifted_width_bound,
)
from .elimination import (
    EliminationOrder,
    lift_order,
    minfill_order,
    moral_graph,
    order_width,
)
from .worlds import twin_model


@dataclass(frozen=True)
class GenConfig:
    """Knobs for one width-table cell (and for standalone generation)."""

    node_count: int
    seed: int
    max_parents: int = 3
    unit_ratio: float = 1.0
    trials: int = 25

    def __post_init__(self) -> None:
        for name in ("node_count", "seed", "max_parents", "trials"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ModelError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ModelError(f"seed must be >= 0, got {self.seed}")
        if self.node_count < 2:
            raise ModelError("node_count must be >= 2")
        if self.max_parents < 1:
            raise ModelError("max_parents must be >= 1")
        if self.trials < 1:
            raise ModelError("trials must be >= 1")
        if not 0 < self.unit_ratio <= 1:
            raise ModelError("unit_ratio must be in (0, 1]")


def gen_random_scm(cfg: GenConfig, rng: np.random.Generator | None = None) -> Scm:
    """A random functional SCM, deterministic for a given seed.

    Every non-first node samples 1..max_parents parents among earlier nodes;
    every internal node without a root parent then receives a fresh dedicated
    root. All variables are binary.
    """
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    n = cfg.node_count
    parent_lists: list[list[int]] = [[]]
    for i in range(1, n):
        k = int(rng.integers(1, min(cfg.max_parents, i) + 1))
        ps = sorted(int(p) for p in rng.choice(i, size=k, replace=False))
        parent_lists.append(ps)

    base_roots = {i for i in range(n) if not parent_lists[i]}
    names = [f"X{i + 1}" for i in range(n)]
    added = 0
    for i in range(n):
        if parent_lists[i] and not any(p in base_roots for p in parent_lists[i]):
            added += 1
            rid = n + added - 1
            names.append(f"R{added}")
            parent_lists[i] = parent_lists[i] + [rid]
    total = n + added
    parent_lists.extend([[] for _ in range(added)])

    variables = [Variable(i, names[i], 2, ("0", "1")) for i in range(total)]
    parents = {i: tuple(parent_lists[i]) for i in range(total)}
    tables: dict[int, np.ndarray] = {}
    for i in range(total):
        if not parent_lists[i]:
            continue
        rows = 2 ** len(parent_lists[i])
        picks = rng.integers(0, 2, size=rows)
        table = np.zeros((rows, 2))
        table[np.arange(rows), picks] = 1.0
        tables[i] = table
    for i in range(total):
        if parent_lists[i]:
            continue
        vals = rng.uniform(0.05, 0.95, size=2)
        tables[i] = vals / vals.sum()
    return Scm(variables, parents, tables)


def _xor_table(n_parents: int) -> np.ndarray:
    rows = 2 ** n_parents
    table = np.zeros((rows, 2))
    for r in range(rows):
        parity = bin(r).count("1") % 2
        table[r, parity] = 1.0
    return table


def gen_tight_family(n: int) -> tuple[Scm, tuple[int, ...], ObjectiveFunction]:
    """The chain family whose base constrained width is 3 while its objective
    model needs width >= n.

    Roots U1..Un; Xi is a child of {Ui, Ui+1} for i < n; E is a child of Un
    and a parent of X(n-1). The objective pairs consecutive outcomes
    Pr(x1_e, x2_e' | u) + ... with treatment variable E and no evidence; an
    odd trailing outcome gets its own single-intervention term.
    """
    if not (_is_int(n) and n >= 3):
        raise ModelError(f"tight family needs an integer n >= 3, got {n!r}")
    names = [f"U{i}" for i in range(1, n + 1)] + ["E"] + [
        f"X{i}" for i in range(1, n)
    ]
    variables = [Variable(i, nm, 2, ("0", "1")) for i, nm in enumerate(names)]
    e_id = n
    x_id = {i: n + i for i in range(1, n)}  # X^i -> id
    parents: dict[int, tuple[int, ...]] = {i: () for i in range(n)}
    parents[e_id] = (n - 1,)  # E child of Un
    for i in range(1, n - 1):
        parents[x_id[i]] = (i - 1, i)  # Ui, Ui+1 (0-based ids)
    parents[x_id[n - 1]] = (n - 2, n - 1, e_id)

    tables: dict[int, np.ndarray] = {}
    for i in range(n):
        tables[i] = np.array([0.5, 0.5])
    tables[e_id] = np.array([[1.0, 0.0], [0.0, 1.0]])  # identity of Un
    for i in range(1, n):
        tables[x_id[i]] = _xor_table(len(parents[x_id[i]]))
    scm = Scm(variables, parents, tables)

    units = tuple(range(n))
    terms: list[ObjectiveTerm] = []
    i = 1
    while i + 1 <= n - 1:
        terms.append(
            ObjectiveTerm(
                weight=0.0,
                x={e_id: 0},
                y={x_id[i]: 0},
                v={e_id: 1},
                w={x_id[i + 1]: 0},
            )
        )
        i += 2
    if i == n - 1:  # odd tail: one unpaired outcome
        terms.append(ObjectiveTerm(weight=0.0, x={e_id: 0}, y={x_id[i]: 0}))
    weight = 1.0 / len(terms)
    terms = [replace(t, weight=weight) for t in terms]
    return scm, units, ObjectiveFunction(units, tuple(terms))


def tight_family_order(scm: Scm, n: int):
    """The constrained order X1, ..., X(n-1), E, U1, ..., Un."""
    seq = tuple(scm.by_name(f"X{i}").id for i in range(1, n)) + (
        scm.by_name("E").id,
    ) + tuple(scm.by_name(f"U{i}").id for i in range(1, n + 1))
    units = frozenset(scm.by_name(f"U{i}").id for i in range(1, n + 1))
    return EliminationOrder(seq, units)


def gen_benefit_objective(
    scm: Scm,
    x_id: int,
    y_id: int,
    weights: Sequence[float],
    units: Iterable[int] | None = None,
) -> ObjectiveFunction:
    """The four-term benefit objective over a binary treatment and outcome.

    Terms pair the outcome states (y, y'), (y, y), (y', y'), (y', y) under
    do(x) in world 2 and do(x') in world 3, weighted by (beta, gamma, theta,
    delta). No term carries evidence, so the objective model is twin-built.
    A treatment or outcome id that is not the model's is refused with
    ModelError.
    """
    for vid, role in ((x_id, "treatment"), (y_id, "outcome")):
        if not _known_id(scm, vid):
            raise ModelError(f"unknown {role} variable id {vid!r}")
        if scm.is_root(vid):
            raise ModelError(f"{role} variable must be endogenous")
        if scm.var(vid).cardinality != 2:
            raise ModelError(f"{role} variable must be binary")
    if len(weights) != 4:
        raise ModelError("benefit objective needs exactly four weights")
    unit_ids = tuple(units) if units is not None else scm.roots
    pairs = [(0, 1), (0, 0), (1, 1), (1, 0)]  # (y-state in world 2, world 3)
    terms = tuple(
        ObjectiveTerm(
            weight=float(wt),
            x={x_id: 0},
            y={y_id: sy},
            v={x_id: 1},
            w={y_id: sw},
        )
        for wt, (sy, sw) in zip(weights, pairs)
    )
    return ObjectiveFunction(unit_ids, terms)


# -- width table ------------------------------------------------------------------


@dataclass
class WidthRow:
    """Trial-averaged widths and node counts for one (n, ur) cell."""

    config: GenConfig
    mean_n: float
    mean_n1: float
    mean_n2: float
    mean_roots: float
    mean_w: float
    mean_w1: float
    mean_w2: float
    lifted_bound_ok: bool  # lifted constrained width <= lifted_width_bound in every trial


# The per-trial counts, averaged into the WidthRow fields mean_<count>.
_COUNTS = ("n", "n1", "n2", "roots", "w", "w1", "w2")


def _pick_units(roots: Sequence[int], ur: float, rng: np.random.Generator) -> tuple[int, ...]:
    count = max(1, int(round(ur * len(roots))))
    return tuple(sorted(int(v) for v in rng.choice(roots, size=count, replace=False)))


def run_width_trial(cfg: GenConfig, trial: int) -> dict:
    rng = np.random.default_rng([cfg.seed, trial])
    scm = gen_random_scm(cfg, rng=rng)
    roots = scm.roots
    units = _pick_units(roots, cfg.unit_ratio, rng)
    endo = scm.endogenous()
    if len(endo) < 2:
        raise ModelError("width trial needs at least two endogenous variables")
    leaves = [v for v in endo if not scm.children[v]]
    y_id = int(rng.choice(leaves))
    x_pool = [v for v in endo if v != y_id]
    x_id = int(rng.choice(x_pool))

    objective = gen_benefit_objective(
        scm, x_id, y_id, (0.25, 0.25, 0.25, 0.25), units=units
    )
    om = build_objective_model(scm, objective)
    twin, _ = twin_model(scm)

    g = moral_graph(scm)
    base_order = minfill_order(g, constrained_suffix=units)
    w = order_width(g, base_order)
    g1 = moral_graph(om.model)
    w1 = order_width(g1, minfill_order(g1, constrained_suffix=om.unit_om_ids))
    g2 = moral_graph(twin)
    w2 = len(units) + order_width(g2, minfill_order(g2))

    lifted_width = order_width(g1, lift_order(base_order, om.duplicates(), om.h_id))
    counts = (scm.n, om.model.n, twin.n, len(roots), w, w1, w2)
    bound = lifted_width_bound(objective, w, len(units))[0]
    return {**dict(zip(_COUNTS, counts)), "lifted_ok": lifted_width <= bound}


def run_width_table(cfgs: Sequence[GenConfig]) -> list[WidthRow]:
    """One row per config, averaging `trials` seeded trials. Deterministic."""
    rows = []
    for cfg in cfgs:
        trials = [run_width_trial(cfg, t) for t in range(cfg.trials)]
        means = {f"mean_{key}": float(np.mean([t[key] for t in trials])) for key in _COUNTS}
        rows.append(WidthRow(cfg, **means, lifted_bound_ok=all(t["lifted_ok"] for t in trials)))
    return rows


def width_table_csv(rows: Iterable[WidthRow]) -> str:
    """Fixed-header CSV: n,n2,R,ur,n1,w,w1,w2."""
    lines = ["n,n2,R,ur,n1,w,w1,w2"]
    for r in rows:
        cells = (r.mean_n, r.mean_n2, r.mean_roots, r.config.unit_ratio, r.mean_n1, r.mean_w,
                 r.mean_w1, r.mean_w2)
        lines.append(",".join(f"{c:.6g}" for c in cells))
    return "\n".join(lines) + "\n"


def default_bench_configs(seed: int, trials: int = GenConfig.trials) -> list[GenConfig]:
    return [
        GenConfig(node_count=n, seed=seed, unit_ratio=ur, trials=trials)
        for n in (10, 15, 20)
        for ur in (0.2, 0.4, 0.6, 0.8, 1.0)
    ]
