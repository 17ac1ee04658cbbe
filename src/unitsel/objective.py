"""Weighted counterfactual objectives and their reduction to Reverse-MAP.

An objective L(u) = sum_i w_i * Pr(y^i_{x^i}, w^i_{v^i} | e^i, u) over shared
unit roots U is encoded as a single conditional probability on an *objective
model*: one multi-world copy of the SCM per term, joined so only U (and the
mixture root H) is shared, with worlds 2/3 mutilated at the treatments. The
mixture root H has one state per term with prior w_i and becomes a parent of
every outcome copy; each outcome CPT keeps its original rows when H selects
its own term and clamps the outcome to the term's target state otherwise.
Then L(u) = Pr'(e1 | e2, u) with e1 the outcome assignments and e2 the
treatment, intervened-value and per-term evidence assignments. The build
copies the units, then makes one pass per term: it copies the term's non-unit
roots and retained worlds (with the routine that builds
:func:`~unitsel.worlds.n_world_model`), mutilating the treatment copies as
they are made, and records the term's e1/e2 entries. H is appended last, so
its id is the number of copies, and becomes the last parent of each outcome
copy.

Per-term worlds are dropped when unused: world 1 iff the term has no
evidence, world 2 iff it has no world-2 treatment and no outcome there,
world 3 symmetrically. A term without evidence therefore only needs a twin.

The full model is what ``build-objective-model`` writes, what a caller order
names and what the width bounds and size formula speak of. A query without
a caller order needs only the ancestral closure of the units, e1 and e2,
since every other copy is barren for it (Shachter 1986), so
:func:`~unitsel.inference.unit_select` builds only that closure
(``query_closure=True``). The same builder works it out on the base model
before any copy is made: world 1 keeps the ancestors of the evidence, worlds
2 and 3 the ancestors of their outcomes and treatments with the walk stopped
at the mutilated treatments, a term's non-unit roots are kept when a kept
copy descends from them, every unit is kept, and H is kept when some outcome
copy is. Every copy's name is still drawn in the full build's order, so the
kept copies carry their full-model names and relative id order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .elimination import ancestral_closure
from .factor import Instantiation, Variable, multiply_all, sum_axis
from .model import (ModelError, Scm, _known_id, evidence_to_lambdas, json_number, load_json,
                    validate)
from .worlds import (_copy_world, _point_mass, _profile_at, _term_violations, bracket_name,
                     counterfactual_term_profile)

WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class ObjectiveTerm:
    """One weighted counterfactual term Pr(y_x, w_v | e, u)."""

    weight: float
    x: Instantiation = field(default_factory=dict)
    y: Instantiation = field(default_factory=dict)
    v: Instantiation = field(default_factory=dict)
    w: Instantiation = field(default_factory=dict)
    e: Instantiation = field(default_factory=dict)

    def retained_worlds(self) -> tuple[int, ...]:
        worlds = []
        if self.e:
            worlds.append(1)
        if self.x or self.y:
            worlds.append(2)
        if self.v or self.w:
            worlds.append(3)
        return tuple(worlds)


@dataclass(frozen=True)
class ObjectiveFunction:
    """Unit variables plus the list of weighted terms."""

    unit_ids: tuple[int, ...]
    terms: tuple[ObjectiveTerm, ...]

    def __post_init__(self) -> None:
        unit_ids = tuple(self.unit_ids)
        try:
            unit_ids = tuple(sorted(unit_ids))
        except TypeError:
            pass  # ids that do not compare are unknown; validation reports them
        object.__setattr__(self, "unit_ids", unit_ids)
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def n(self) -> int:
        return len(self.terms)


@dataclass
class ObjectiveReport:
    ok: bool
    violations: list[str] = field(default_factory=list)


def validate_objective(scm: Scm, objective: ObjectiveFunction) -> ObjectiveReport:
    """Check the weight simplex, distinct exogenous units and each term, by
    the term rule that :func:`~unitsel.worlds.counterfactual_query` applies.
    Violations are reported, not raised."""
    violations: list[str] = []
    if not objective.terms:
        violations.append("objective has no terms")
    weights = [t.weight for t in objective.terms]
    if not all(0 <= w < math.inf for w in weights):  # NaN fails too
        violations.append("term weights must be finite and non-negative")
    if weights and abs(sum(weights) - 1.0) > WEIGHT_TOL:
        violations.append(f"term weights sum to {sum(weights)!r}, expected 1")
    # Each id is checked before it is compared with another, which an unknown
    # id (a string, a tuple) may not support: the unknown ids are reported
    # first, then the rules on the known ones, each in the order given.
    known = [vid for vid in objective.unit_ids if _known_id(scm, vid)]
    violations += (
        f"unknown unit variable id {vid}"
        for vid in objective.unit_ids if not _known_id(scm, vid)
    )
    for vid in dict.fromkeys(known):
        if known.count(vid) > 1:
            violations.append(f"unit variable {scm.var(vid).name!r} is repeated")
        if not scm.is_root(vid):
            violations.append(f"unit variable {scm.var(vid).name!r} is not exogenous")
    if not objective.unit_ids:
        violations.append("objective has no unit variables")
    for i, t in enumerate(objective.terms, start=1):
        violations += (f"term {i}: {m}" for m in _term_violations(scm, t.x, t.y, t.v, t.w, t.e))
    return ObjectiveReport(not violations, violations)


def _check_objective(scm: Scm, objective: ObjectiveFunction) -> None:
    report = validate_objective(scm, objective)
    if not report.ok:
        raise ModelError("invalid objective: " + "; ".join(report.violations))


@dataclass(frozen=True)
class ComponentMap:
    """Where one term's copies live inside the objective model (in a
    query-closure build, only the worlds and copies that were built)."""

    worlds: tuple[int, ...]
    endo: dict[int, dict[int, int]]  # base endo id -> {world: model id}
    roots: dict[int, int]            # base non-unit root id -> model id


@dataclass(frozen=True)
class ObjectiveModel:
    """The joined, mutilated, mixture-augmented model plus its query."""

    model: Scm
    h_id: int | None
    e1: Instantiation
    e2: Instantiation
    unit_base_ids: tuple[int, ...]
    unit_om_ids: tuple[int, ...]
    components: tuple[ComponentMap, ...]
    base_endo_count: int
    base_nonunit_exo_count: int

    @property
    def n_components(self) -> int:
        return len(self.components)

    def duplicates(self) -> dict[int, tuple[int, ...]]:
        """Base variable id -> copies in lifting sequence: all components'
        world-1 copies, then world-2 copies, then world-3 copies. Unit roots
        map to their single shared copy."""
        copies = {b: [u] for b, u in zip(self.unit_base_ids, self.unit_om_ids)}
        for comp in self.components:
            for base, om_id in comp.roots.items():
                copies.setdefault(base, []).append(om_id)
        for world in (1, 2, 3):
            for comp in self.components:
                for base, per_world in comp.endo.items():
                    ids = copies.setdefault(base, [])
                    if world in per_world:
                        ids.append(per_world[world])
        return {base: tuple(ids) for base, ids in copies.items()}


def build_objective_model(
    scm: Scm,
    objective: ObjectiveFunction,
    drop_worlds: bool = True,
    *,
    query_closure: bool = False,
) -> ObjectiveModel:
    """Construct the objective model and its Reverse-MAP evidence pair.

    With ``drop_worlds`` (the default) each component keeps only the worlds
    its term uses; pass False to keep full triplets for every component.
    The base model must be functional unless every term is treatment-free.

    With ``query_closure`` only the ancestral closure of the units, e1 and
    e2 is built, which is all that a query without a caller order solves;
    every other copy is barren for it. Each copy keeps the name it has in
    the full model, and the copies keep their relative id order, so default
    orders, CPT pools and traces are those of the full model's closure. Ids
    and sizes then differ from the full model's, so a caller order, the
    width bounds and :func:`model_size_stats` need the full model (the
    default). Each ``ComponentMap`` lists only the copies that exist, and H
    exists only when some term has an outcome (``h_id`` is None otherwise).
    """
    _check_objective(scm, objective)
    needs_functional = any(t.x or t.v for t in objective.terms)
    base_report = validate(scm)
    if not base_report.is_valid_bn:
        raise ModelError("base model is not a valid Bayesian network")
    if needs_functional and not base_report.functional:
        raise ModelError(
            "objective has interventions: the base model must be functional"
        )

    units = objective.unit_ids
    nonunit_roots = tuple(r for r in scm.roots if r not in units)
    endo = scm.endogenous()
    n = objective.n
    term_worlds = [t.retained_worlds() if drop_worlds else (1, 2, 3) for t in objective.terms]

    variables: list[Variable] = []
    parents: dict[int, tuple[int, ...]] = {}
    tables: dict[int, np.ndarray] = {}
    taken: set[str] = set()

    def fresh(name: str) -> str:
        while name in taken:
            name += "'"
        taken.add(name)
        return name

    unit_om = _copy_world(scm, units, fresh, variables, parents, tables, {})
    components: list[ComponentMap] = []
    e1: Instantiation = {}
    e2: Instantiation = {}
    mixed: list[tuple[int, int]] = []  # (outcome copy, its term's mixture state)
    for i, (term, worlds) in enumerate(zip(objective.terms, term_worlds)):
        tag = f"^{i + 1}"
        # World 1 carries the evidence; worlds 2/3 are mutilated at x and v.
        cuts = {1: {}, 2: term.x, 3: term.v}
        keep: dict[int, frozenset[int] | None] = dict.fromkeys(worlds)
        keep_roots = None
        if query_closure:
            starts = {1: term.e, 2: {**term.x, **term.y}, 3: {**term.v, **term.w}}
            keep = {w: ancestral_closure(scm, starts[w], cuts[w]) for w in worlds}
            keep_roots = frozenset().union(*keep.values())
        roots_om = _copy_world(scm, nonunit_roots, lambda name: fresh(name + tag),
                               variables, parents, tables, {}, keep_roots)
        shared = {**unit_om, **roots_om}
        world_om = {
            world: _copy_world(scm, endo, lambda name: fresh(bracket_name(name + tag, world)),
                               variables, parents, tables, shared, keep[world], cuts[world])
            for world in worlds
        }
        for world, treatment, outcome in ((2, term.x, term.y), (3, term.v, term.w)):
            e2.update((world_om[world][b], state) for b, state in treatment.items())
            for b, state in outcome.items():
                e1[world_om[world][b]] = state
                mixed.append((world_om[world][b], i))
        e2.update((world_om[1][b], state) for b, state in term.e.items())
        endo_om = {b: {w: world_om[w][b] for w in worlds if b in world_om[w]} for b in endo}
        components.append(ComponentMap(
            tuple(w for w in worlds if world_om[w]),
            {b: copies for b, copies in endo_om.items() if copies},
            roots_om,
        ))

    # H comes after every copy, so its id is the number of copies. Each
    # outcome copy gets H as its last parent: rows for the other mixture
    # states clamp it to the term's target state.
    h_id: int | None = None
    if mixed or not query_closure:
        h_id = len(variables)
        variables.append(Variable(h_id, fresh("H"), n, tuple(f"h{i}" for i in range(1, n + 1))))
        parents[h_id] = ()
        tables[h_id] = np.asarray([t.weight for t in objective.terms], dtype=np.float64)
    for vid, i in mixed:
        table = tables[vid]
        rows = np.empty(table.shape[:-1] + (n, table.shape[-1]))
        rows[...] = _point_mass(table.shape[-1], e1[vid])
        rows[..., i, :] = table
        parents[vid] += (h_id,)
        tables[vid] = rows

    return ObjectiveModel(
        model=Scm(variables, parents, tables),
        h_id=h_id,
        e1=e1,
        e2=e2,
        unit_base_ids=units,
        unit_om_ids=tuple(unit_om[u] for u in units),
        components=tuple(components),
        base_endo_count=len(endo),
        base_nonunit_exo_count=len(nonunit_roots),
    )


# -- reference evaluation -------------------------------------------------------


def _bn_term_profile(
    scm: Scm, term: ObjectiveTerm, unit_ids: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Observational term profile Pr(y, w | e, u) for treatment-free terms on
    a general Bayesian network, via the full joint factor. The joint's scope
    is every variable, so after ``i`` sums the axis of ``vid`` is ``vid - i``:
    the non-units are summed out one at a time in ascending id order."""
    if term.x or term.v:
        raise ModelError("treatment-free evaluation requested for a term with treatments")
    space = math.prod(v.cardinality for v in scm.variables)
    if space > 1 << 20:
        raise ModelError("model too large for full-joint evaluation")
    joint = multiply_all(scm.cpt_factor(v.id) for v in scm.variables)
    event = dict(term.e)
    conflict = False
    for inst in (term.y, term.w):
        for vid, state in inst.items():
            if event.setdefault(vid, state) != state:
                conflict = True
    others = [v for v in joint.vids if v not in unit_ids]

    def unit_marginal(evidence: Mapping[int, int]) -> np.ndarray:
        table = multiply_all([joint, *evidence_to_lambdas(scm, evidence)]).values
        for i, vid in enumerate(others):
            table = sum_axis(table, vid - i)
        return table

    den = unit_marginal(term.e)
    num = np.zeros_like(den) if conflict else unit_marginal(event)
    defined = den > 0
    values = np.divide(num, den, out=np.zeros_like(num), where=defined)
    return values, defined


def evaluate_L_profile(
    scm: Scm, objective: ObjectiveFunction
) -> tuple[np.ndarray, np.ndarray]:
    """L(u) for every unit instantiation u, with a definedness mask.

    The value grid axes follow ascending unit ids. A unit is undefined
    (masked False, value 0) when some term's conditioning mass Pr(e^i, u)
    is zero. An invalid objective is refused with ModelError, as by
    :func:`build_objective_model`.
    """
    _check_objective(scm, objective)
    unit_ids = objective.unit_ids
    functional = validate(scm).functional
    shape = tuple(scm.var(v).cardinality for v in unit_ids)
    total = np.zeros(shape)
    defined = np.ones(shape, dtype=bool)
    for term in objective.terms:
        if functional:
            values, ok = counterfactual_term_profile(
                scm, term.x, term.y, term.v, term.w, term.e, unit_ids
            )
        else:
            values, ok = _bn_term_profile(scm, term, unit_ids)
        total += term.weight * values
        defined &= ok
    total = np.where(defined, total, 0.0)
    return total, defined


def evaluate_L_brute(
    scm: Scm, objective: ObjectiveFunction, u: Mapping[int, int]
) -> float | None:
    """Reference value of L(u) via the per-term enumeration oracle; None when
    the unit is undefined (some term conditions on a zero-mass event). An
    invalid objective is refused with ModelError."""
    if set(u) != set(objective.unit_ids):
        raise ModelError("u must assign exactly the unit variables")
    return _profile_at(scm, lambda: evaluate_L_profile(scm, objective), u)


# -- size accounting -------------------------------------------------------------


@dataclass(frozen=True)
class SizeStats:
    """Measured and predicted sizes of an objective model."""

    nodes: int
    parameters: int
    nodes_formula: int


def model_size_stats(om: ObjectiveModel) -> SizeStats:
    """Node/parameter counts; nodes are checked against the closed form
    sum_i (worlds_i * |endo| + |exo \\ U|) + |U| + 1."""
    formula = (
        sum(
            len(comp.worlds) * om.base_endo_count + om.base_nonunit_exo_count
            for comp in om.components
        )
        + len(om.unit_base_ids)
        + 1
    )
    return SizeStats(
        nodes=om.model.n,
        parameters=om.model.size_parameters(),
        nodes_formula=formula,
    )


def lifted_width_bound(objective: ObjectiveFunction, w: int, n_units: int) -> tuple[int, str]:
    """The proven bound, and its label, on the constrained width of an order of
    width ``w`` lifted to the objective model: 2w+2 for a twin-built objective
    (no evidence) with one outcome variable, 3w+3 for one outcome variable,
    else max(3w+3, |U|) with |U| = ``n_units``."""
    outcome_vars = {vid for t in objective.terms for vid in (*t.y, *t.w)}
    if len(outcome_vars) != 1:
        return max(3 * w + 3, n_units), "max(3w+3,|U|)"
    if all(not t.e for t in objective.terms):
        return 2 * w + 2, "2w+2"
    return 3 * w + 3, "3w+3"


# -- on-disk format ---------------------------------------------------------------


def save_objective(scm: Scm, objective: ObjectiveFunction) -> bytes:
    """Serialize to the objective JSON document (omitted keys mean empty)."""
    doc: dict = {
        "units": [scm.var(v).name for v in objective.unit_ids],
        "terms": [],
    }
    for term in objective.terms:
        entry: dict = {"weight": term.weight}
        for key, inst in (("x", term.x), ("y", term.y), ("v", term.v),
                          ("w", term.w), ("e", term.e)):
            if inst:
                entry[key] = scm.names_of(inst)
        doc["terms"].append(entry)
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def load_objective(scm: Scm, data: bytes | str) -> ObjectiveFunction:
    doc = load_json(data, "objective")
    if not isinstance(doc, dict) or "units" not in doc or "terms" not in doc:
        raise ModelError("objective document needs 'units' and 'terms'")
    if not (isinstance(doc["units"], list) and all(isinstance(n, str) for n in doc["units"])):
        raise ModelError("objective 'units' must be a list of variable names")
    if not isinstance(doc["terms"], list):
        raise ModelError("objective 'terms' must be a list")
    unit_ids = tuple(scm.by_name(name).id for name in doc["units"])
    terms = []
    for i, entry in enumerate(doc["terms"], start=1):
        if not isinstance(entry, dict) or "weight" not in entry:
            raise ModelError(f"term {i} has no weight")
        insts = {}
        for key in ("x", "y", "v", "w", "e"):
            inst = entry.get(key, {})
            if not isinstance(inst, dict):
                raise ModelError(f"term {i}: {key!r} must map variable names to states")
            insts[key] = scm.instantiation(inst)
        weight = json_number(entry["weight"], f"term {i}: weight")
        terms.append(ObjectiveTerm(weight=weight, **insts))
    return ObjectiveFunction(unit_ids, tuple(terms))
