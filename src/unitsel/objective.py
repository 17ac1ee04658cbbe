"""Weighted counterfactual objectives and their reduction to Reverse-MAP.

An objective L(u) = sum_i w_i * Pr(y^i_{x^i}, w^i_{v^i} | e^i, u) over shared
unit roots U is encoded as a single conditional probability on an *objective
model*, L(u) = Pr'(e1 | e2, u). Two builds make one, both through the one
reduction of terms to worlds in :mod:`unitsel.worlds`.

:func:`build_objective_model` is the paper's construction: one multi-world
copy of the SCM per term, joined so only U (and the mixture root H) is
shared, with worlds 2/3 mutilated at the treatments. The mixture root H has
one state per term with prior w_i and becomes a parent of every outcome
copy; each outcome CPT keeps its original rows when H selects its own term
and clamps the outcome to the term's target state otherwise. e1 holds the
outcome assignments and e2 the treatment, intervened-value and per-term
evidence assignments. H is appended last, so its id is the number of
copies, and becomes the last parent of each outcome copy. Per-term worlds
are dropped when unused: world 1 iff the term has no evidence, world 2 iff
it has no world-2 treatment and no outcome there, world 3 symmetrically. A
term without evidence therefore only needs a twin. This full model is what
``build-objective-model`` writes, what a caller order names and what the
width bounds, :meth:`ObjectiveModel.duplicates` and :func:`model_size_stats`
speak of. Its worlds share only the roots, so a term whose events fall in
two worlds needs a functional base model: the build refuses one otherwise.

:func:`~unitsel.inference.unit_select` without a caller order solves a
smaller model (:func:`_solve_model`). Terms with equal evidence e form one
component with one copy of the non-unit roots. Given those roots, worlds
under the same intervention are the same world (the node merging of
counterfactual graphs; Shpitser & Pearl 2007), so a component has one world
per distinct cut, the empty cut being world 1, which also holds e. Units
come first, then H when some term has an outcome, then the components, each
built only as far as the ancestral closure of the units, e1 and e2 reaches,
since every other copy is barren for the query (Shachter 1986). Last comes
one indicator O per group of a component's terms whose outcomes sit on the
same copies, with those copies and H as parents: O = 1 surely when H names
a term outside the group, and otherwise exactly when the copies match that
term's y and w. e1 sets every O to 1 and e2 holds the cut copies and each
component's evidence, so Pr(e1 | u, e2) = sum_h w_h Pr(y^h_{x^h}, w^h_{v^h}
| e^h, u) and Pr(u, e2) > 0 exactly where every term is defined, as in the
full model. A treatment-free term has all its events in world 1, so on a
plain Bayesian network this model gives Pr(y, w | e, u).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .factor import Instantiation, multiply_all, sum_axis
from .model import (ModelError, Scm, _known_id, evidence_to_lambdas, json_number, load_json,
                    validate)
from .worlds import (_Builder, _copy_term, _point_mass, _profile_at, _term_violations,
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
    """Where one component's copies live inside an objective model: one
    term's, keyed by worlds 1-3, in the full model; one evidence group's, keyed
    by world 1 (the empty cut) and 2, 3, ... (its other cuts in order of first
    appearance), in the solve model, which lists only the copies it built."""

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
        map to their single shared copy, and a variable with no copy (an
        endogenous one when no term keeps a world) to ()."""
        n_base = len(self.unit_base_ids) + self.base_nonunit_exo_count + self.base_endo_count
        copies: dict[int, list[int]] = {b: [] for b in range(n_base)}
        for b, u in zip(self.unit_base_ids, self.unit_om_ids):
            copies[b].append(u)
        for comp in self.components:
            for base, om_id in comp.roots.items():
                copies[base].append(om_id)
        for world in (1, 2, 3):
            for comp in self.components:
                for base, per_world in comp.endo.items():
                    if world in per_world:
                        copies[base].append(per_world[world])
        return {base: tuple(ids) for base, ids in copies.items()}


def _check_base(scm: Scm, objective: ObjectiveFunction) -> bool:
    """Refuse an invalid objective, a base model that is not a valid
    Bayesian network, and interventions on a base model that is not
    functional. Returns whether the base model is functional."""
    _check_objective(scm, objective)
    report = validate(scm)
    if not report.is_valid_bn:
        raise ModelError("base model is not a valid Bayesian network")
    if not report.functional and any(t.x or t.v for t in objective.terms):
        raise ModelError("objective has interventions: the base model must be functional")
    return report.functional


def _add_mixture(build: _Builder, terms: tuple[ObjectiveTerm, ...]) -> int:
    """Append the mixture root H, one state per term with the term weights as
    its prior, and return its id."""
    states = tuple(f"h{i}" for i in range(1, len(terms) + 1))
    return build.add("H", states, (), np.array([t.weight for t in terms], dtype=np.float64))


def _component(
    endo: tuple[int, ...], roots_om: dict[int, int], world_om: dict[int, dict[int, int]]
) -> ComponentMap:
    """The map of the copies one call of ``_copy_term`` made: its worlds
    that got a copy, and each base endogenous variable's copies by world."""
    per_base = {b: {k: c[b] for k, c in world_om.items() if b in c} for b in endo}
    return ComponentMap(tuple(k for k, c in world_om.items() if c),
                        {b: c for b, c in per_base.items() if c}, roots_om)


def _objective_model(
    build: _Builder, scm: Scm, units: tuple[int, ...], unit_om: Mapping[int, int],
    h_id: int | None, e1: Instantiation, e2: Instantiation, components: list[ComponentMap],
) -> ObjectiveModel:
    """The model ``build`` holds, with its query and its maps, for units
    ``units`` of ``scm``."""
    return ObjectiveModel(
        model=build.model(),
        h_id=h_id,
        e1=e1,
        e2=e2,
        unit_base_ids=units,
        unit_om_ids=tuple(unit_om[u] for u in units),
        components=tuple(components),
        base_endo_count=len(scm.endogenous()),
        base_nonunit_exo_count=len(scm.roots) - len(units),
    )


def build_objective_model(
    scm: Scm,
    objective: ObjectiveFunction,
    drop_worlds: bool = True,
) -> ObjectiveModel:
    """Construct the full objective model and its Reverse-MAP evidence pair
    (the paper's construction; see the module docstring).

    With ``drop_worlds`` (the default) each component keeps only the worlds
    its term uses; pass False to keep full triplets for every component.
    The base model must be functional unless every term is treatment-free
    and asserts its events (y, w and e) in one world: the worlds of a term
    share only the roots, which on a plain Bayesian network would make its
    events independent given the units.
    """
    if not _check_base(scm, objective):
        for i, t in enumerate(objective.terms, start=1):
            if sum(map(bool, (t.y, t.w, t.e))) > 1:
                raise ModelError(
                    f"term {i} asserts events in separate worlds: "
                    "the base model must be functional"
                )

    units = objective.unit_ids
    endo = scm.endogenous()

    build = _Builder()
    unit_om = build.copy_world(scm, units, lambda name: name, {})
    components: list[ComponentMap] = []
    e1: Instantiation = {}
    e2: Instantiation = {}
    mixed: list[tuple[int, int]] = []  # (outcome copy, its term's mixture state)
    for i, (x, y, v, w, e) in enumerate((t.x, t.y, t.v, t.w, t.e) for t in objective.terms):
        used = {1: e, 2: x or y, 3: v or w}
        worlds = [(k, cut) for k, cut in ((1, {}), (2, x), (3, v)) if used[k] or not drop_worlds]
        roots_om, world_om, (ys, ws, xs, vs, es) = _copy_term(
            build, scm, worlds, [(2, y), (3, w), (2, x), (3, v), (1, e)], unit_om, f"^{i + 1}")
        e1.update({**ys, **ws})
        e2.update({**xs, **vs, **es})
        mixed.extend((vid, i) for vid in (*ys, *ws))
        components.append(_component(endo, roots_om, world_om))

    # H comes after every copy, so its id is the number of copies. Each
    # outcome copy gets H as its last parent: rows for the other mixture
    # states clamp it to the term's target state.
    h_id = _add_mixture(build, objective.terms)
    for vid, i in mixed:
        table = build.tables[vid]
        rows = np.empty(table.shape[:-1] + (objective.n, table.shape[-1]))
        rows[...] = _point_mass(table.shape[-1], e1[vid])
        rows[..., i, :] = table
        build.parents[vid] += (h_id,)
        build.tables[vid] = rows

    return _objective_model(build, scm, units, unit_om, h_id, e1, e2, components)


def _solve_model(scm: Scm, objective: ObjectiveFunction) -> ObjectiveModel:
    """The shared-worlds model that unit selection solves without a caller
    order (see the module docstring): one component per distinct evidence,
    one world per distinct cut within it, and one indicator O per group of a
    component's terms with the same outcome copies. Only the ancestral
    closure of the units, e1 and e2 is built, and H only when some term has
    an outcome (``h_id`` is None otherwise). Its profile Pr(e1 | u, e2) is
    L(u), 0 where :func:`evaluate_L_profile` finds u undefined; its ids,
    names and sizes are not those of :func:`build_objective_model`."""
    _check_base(scm, objective)
    terms = objective.terms
    units = objective.unit_ids
    endo = scm.endogenous()
    build = _Builder()
    unit_om = build.copy_world(scm, units, lambda name: name, {})
    h_id = _add_mixture(build, terms) if any(t.y or t.w for t in terms) else None

    by_evidence: dict[frozenset, list[int]] = {}
    for i, t in enumerate(terms):
        by_evidence.setdefault(frozenset(t.e.items()), []).append(i)
    components: list[ComponentMap] = []
    e2: Instantiation = {}
    # outcome copies -> [(term, the states it asks of them, None if it asks
    # two states of one copy)]
    indicators: dict[tuple[int, ...], list[tuple[int, Instantiation | None]]] = {}
    for c, members in enumerate(by_evidence.values(), start=1):
        cuts: dict[frozenset, Mapping[int, int]] = {frozenset(): {}}  # world 1 first
        for i in members:
            for cut in (terms[i].x, terms[i].v):
                cuts.setdefault(frozenset(cut.items()), cut)
        world = {key: k for k, key in enumerate(cuts, start=1)}
        events = [(1, terms[members[0]].e)]
        for i in members:
            x, v = terms[i].x, terms[i].v
            kx, kv = world[frozenset(x.items())], world[frozenset(v.items())]
            events += [(kx, x), (kv, v), (kx, terms[i].y), (kv, terms[i].w)]
        roots_om, world_om, placed = _copy_term(
            build, scm, list(enumerate(cuts.values(), start=1)), events, unit_om, f"^{c}",
            closure=True)
        placed = iter(placed)
        e2.update(next(placed))
        for i in members:
            xs, vs, ys, ws = (next(placed) for _ in range(4))
            e2.update({**xs, **vs})
            want = dict(ys)
            consistent = all(want.setdefault(vid, s) == s for vid, s in ws.items())
            if want:
                indicators.setdefault(tuple(sorted(want)), []).append(
                    (i, want if consistent else None))
        components.append(_component(endo, roots_om, world_om))

    e1: Instantiation = {}
    for j, (copies, group) in enumerate(indicators.items(), start=1):
        table = np.zeros(tuple(build.variables[p].cardinality for p in copies) + (len(terms), 2))
        table[..., 1] = 1.0  # H names a term outside the group
        for i, want in group:
            table[..., i, :] = (1.0, 0.0)
            if want is not None:
                table[(*(want[p] for p in copies), i)] = (0.0, 1.0)
        e1[build.add(f"O{j}", ("0", "1"), (*copies, h_id), table)] = 1

    return _objective_model(build, scm, units, unit_om, h_id, e1, e2, components)


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
            try:
                insts[key] = scm.instantiation(inst)
            except ModelError as err:
                raise ModelError(f"term {i}: {key!r}: {err}") from None
        weight = json_number(entry["weight"], f"term {i}: weight")
        terms.append(ObjectiveTerm(weight=weight, **insts))
    return ObjectiveFunction(unit_ids, tuple(terms))
