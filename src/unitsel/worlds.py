"""Multi-world constructions for counterfactual evaluation.

A counterfactual probability Pr(y_x, w_v | e) on an SCM becomes an
observational query on an auxiliary model holding several copies ("worlds")
of the SCM that share exogenous variables: world 1 carries the observation e,
world 2 the intervention do(x), world 3 the intervention do(v). Copies in
world 2 are written [X], copies in world 3 [[X]]; generic n-world copies are
written X^k. Every model the package derives or compiles (n-world,
mutilated, counterfactual, objective, and the Boolean circuits of
:mod:`unitsel.reductions`) is built by one private builder. Its copy step is
the only code that cuts a copy to a point mass, its add step appends a fresh
variable, and both name under one rule: a name that is already taken gets a
prime (') appended until it is free. The builder makes every table read-only
before it builds the model, so the model shares them all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Container, Iterable, Mapping, Sequence

import numpy as np

from .elimination import ancestral_closure
from .factor import Instantiation, Variable, _is_int
from .model import ModelError, Scm, _check_state, _known_id, validate


@dataclass(frozen=True)
class WorldMap:
    """Correspondence between base variables and their per-world copies.

    ``copies[base_id]`` lists one id per world; shared variables repeat the
    same id in every world.
    """

    n_worlds: int
    shared: frozenset[int]
    copies: dict[int, tuple[int, ...]]


def bracket_name(name: str, world: int) -> str:
    """World-copy naming: world 1 = X, world 2 = [X], world 3 = [[X]]."""
    return "[" * (world - 1) + name + "]" * (world - 1)


def superscript_name(name: str, world: int) -> str:
    """Generic n-world naming: X^k."""
    return f"{name}^{world}"


def n_world_model(
    scm: Scm,
    shared: Iterable[int],
    n: int,
    namer: Callable[[str, int], str] | None = None,
) -> tuple[Scm, WorldMap]:
    """Join ``n`` copies of ``scm`` so that the ``shared`` roots appear once.

    Non-shared variables are duplicated per world with their CPTs copied;
    shared roots keep a single copy with edges into every world.
    """
    if not _is_int(n):
        raise ModelError(f"world count must be an integer, got {n!r}")
    if n < 1:
        raise ModelError(f"world count must be >= 1, got {n}")
    shared = tuple(shared)
    for vid in shared:
        if not _known_id(scm, vid):
            raise ModelError(f"unknown variable id {vid} in the shared variables")
    shared = frozenset(shared)
    bad = shared - set(scm.roots)
    if bad:
        names = ", ".join(scm.var(v).name for v in sorted(bad))
        raise ModelError(f"shared variables must be roots, got non-root(s): {names}")
    if namer is None:
        namer = superscript_name if n > 1 else (lambda name, world: name)

    build = _Builder()
    common = build.copy_world(scm, sorted(shared), lambda name: name, {})
    own = [b for b in range(scm.n) if b not in shared]
    worlds = [
        build.copy_world(scm, own, lambda name: namer(name, k), common)
        for k in range(1, n + 1)
    ]
    copies = {
        b: (common[b],) * n if b in shared else tuple(world[b] for world in worlds)
        for b in range(scm.n)
    }
    return build.model(), WorldMap(n, shared, copies)


@dataclass
class _Builder:
    """A derived or compiled model under construction: its variables,
    parent lists and tables, filled in id order, and the names it has given
    out."""

    variables: list[Variable] = field(default_factory=list)
    parents: dict[int, tuple[int, ...]] = field(default_factory=dict)
    tables: dict[int, np.ndarray] = field(default_factory=dict)
    taken: set[str] = field(default_factory=set)

    def name(self, name: str) -> str:
        """The one name rule: ``name``, with a prime appended while it is
        taken. The name returned is then taken."""
        while name in self.taken:
            name += "'"
        self.taken.add(name)
        return name

    def copy_world(
        self, scm: Scm, base_ids: Iterable[int], name: Callable[[str], str],
        shared: Mapping[int, int], keep: Container[int] | None = None,
        cut: Mapping[int, int] | None = None,
    ) -> dict[int, int]:
        """Append one world's copies of ``base_ids`` (only those in ``keep``,
        if given) and return its base id -> copy id map. Copies take the next
        ids in ``base_ids`` order, are named ``name(base name)`` under the
        name rule and keep their base CPTs. A copy's parents are the
        ``shared`` copies (base id -> model id) or else this world's own. A
        copy in ``cut`` (base id -> state) has no parents and a point mass on
        its state: this is the only place a copy is cut.
        """
        cut = cut or {}
        variables, parents, tables = self.variables, self.parents, self.tables
        copy: dict[int, int] = {}
        for b in base_ids:
            if keep is None or b in keep:
                v = scm.variables[b]
                copy[b] = len(variables)
                variables.append(v._renamed(copy[b], self.name(name(v.name))))
        for b, vid in copy.items():
            if b in cut:
                parents[vid] = ()
                tables[vid] = _point_mass(scm.var(b).cardinality, cut[b])
            else:
                parents[vid] = tuple(shared[p] if p in shared else copy[p] for p in scm.parents[b])
                tables[vid] = scm.tables[b]
        return copy

    def add(self, name: str, states: tuple[str, ...], parents: tuple[int, ...],
            table: np.ndarray) -> int:
        """Append a fresh variable, named ``name`` under the name rule, and
        return its id, the next one."""
        vid = len(self.variables)
        self.variables.append(Variable(vid, self.name(name), len(states), states))
        self.parents[vid] = parents
        self.tables[vid] = table
        return vid

    def model(self) -> Scm:
        """The model built so far. Every table is made read-only first, so
        that the model shares it instead of copying it."""
        for table in self.tables.values():
            # Most are base tables, already read-only; setting the flag costs
            # about ten times as much as reading it.
            if table.flags.writeable:
                table.flags.writeable = False
        return Scm(self.variables, self.parents, self.tables)


def _point_mass(cardinality: int, state: int) -> np.ndarray:
    """The distribution that puts all its mass on ``state``."""
    point = np.zeros(cardinality)
    point[state] = 1.0
    return point


def _copy_term(
    build: _Builder, scm: Scm, worlds: Sequence[tuple[int, Mapping[int, int]]],
    events: Sequence[tuple[int, Mapping[int, int]]], shared: Mapping[int, int],
    tag: str = "", closure: bool = False,
) -> tuple[dict[int, int], dict[int, dict[int, int]], list[Instantiation]]:
    """The one reduction of a group of counterfactual terms to worlds: append
    to ``build`` the roots not in ``shared`` (base id -> model id), named
    X + tag, then one world per ``(key, cut)`` entry of ``worlds``, named
    ``bracket_name(X + tag, key)`` and cut at ``cut``. Given the roots, a world
    is fixed by its cut, so terms under one intervention share one world.
    Each ``(key, inst)`` entry of ``events`` asserts ``inst`` in world ``key``.
    With ``closure`` only the ancestors of each world's events are copied, the
    walk stopped at its cut, and only the roots a kept copy descends from.
    Returns the own root copies, the copies per world key and each event on
    its world's copies."""
    keep: dict[int, Container[int] | None] = {key: None for key, _ in worlds}  # None: keep all
    keep_roots = None
    if closure:
        starts: dict[int, list[int]] = {key: [] for key in keep}
        for key, inst in events:
            starts[key] += inst
        keep = {key: ancestral_closure(scm, starts[key], cut) for key, cut in worlds}
        keep_roots = frozenset().union(*keep.values())
    roots = [r for r in scm.roots if r not in shared]
    own = build.copy_world(scm, roots, lambda n: n + tag, {}, keep_roots)
    shared = {**shared, **own}
    endo = scm.endogenous()
    copies = {
        key: build.copy_world(scm, endo, lambda n: bracket_name(n + tag, key), shared, keep[key], cut)
        for key, cut in worlds
    }
    return own, copies, [{copies[key][b]: s for b, s in inst.items()} for key, inst in events]


def triplet_model(scm: Scm) -> tuple[Scm, WorldMap]:
    """Three copies sharing all exogenous variables (bracket naming)."""
    return n_world_model(scm, scm.roots, 3, namer=bracket_name)


def twin_model(scm: Scm) -> tuple[Scm, WorldMap]:
    """Two copies sharing all exogenous variables (bracket naming)."""
    return n_world_model(scm, scm.roots, 2, namer=bracket_name)


def mutilate(scm: Scm, interventions: Mapping[int, int]) -> Scm:
    """Cut the edges into each intervened variable and clamp it.

    The intervened variable loses all parents and gets a point-mass prior on
    the intervened state. Idempotent for fixed interventions.
    """
    if not interventions:
        return scm
    for vid, state in interventions.items():
        if not _known_id(scm, vid):
            raise ModelError(f"unknown variable id {vid} in the interventions")
        _check_state(scm.var(vid), state)
    build = _Builder()
    build.copy_world(scm, range(scm.n), lambda name: name, {}, cut=interventions)
    return build.model()


def _term_violations(
    scm: Scm, x: Mapping, y: Mapping, v: Mapping, w: Mapping, e: Mapping
) -> list[str]:
    """The ways the term Pr(y_x, w_v | e) is ill-posed on ``scm``, empty when
    it is well posed: treatments (x, v) that overlap outcomes (y, w), unknown
    or exogenous variables, and states outside a variable's range."""
    violations = []
    overlap = (set(x) | set(v)) & (set(y) | set(w))
    if overlap:
        known = sorted(i for i in overlap if _known_id(scm, i))
        names = ", ".join(scm.var(i).name for i in known)
        violations.append(f"treatments overlap outcomes ({names})")
    for role, inst in (("x", x), ("y", y), ("v", v), ("w", w), ("e", e)):
        for vid, state in inst.items():
            if not _known_id(scm, vid):
                violations.append(f"unknown variable id {vid} in {role}")
                continue
            var = scm.var(vid)
            if scm.is_root(vid):
                violations.append(f"variable {var.name!r} in {role} must be endogenous")
            try:
                _check_state(var, state)
            except ModelError as err:
                violations.append(str(err))
    return violations


def counterfactual_query(
    scm: Scm,
    x: Mapping[int, int],
    y: Mapping[int, int],
    v: Mapping[int, int],
    w: Mapping[int, int],
    e: Mapping[int, int],
) -> tuple[Scm, Instantiation, Instantiation]:
    """Reduce Pr(y_x, w_v | e) to Pr(e1 | e2) on a mutilated triplet model.

    World 2 is mutilated at [X]=x, world 3 at [[V]]=v. Returns the model and
    the evidence pair e1 = {[Y]=y, [[W]]=w}, e2 = {[X]=x, [[V]]=v, E=e}.
    Conditioning on the intervened values in e2 is tautological after
    mutilation but kept to mirror the reduction statement. An ill-posed term
    is refused with ModelError.
    """
    violations = _term_violations(scm, x, y, v, w, e)
    if violations:
        raise ModelError("ill-posed counterfactual term: " + "; ".join(violations))
    build = _Builder()
    roots = build.copy_world(scm, scm.roots, lambda name: name, {})
    _, _, (ys, ws, xs, vs, es) = _copy_term(
        build, scm, [(1, {}), (2, x), (3, v)], [(2, y), (3, w), (2, x), (3, v), (1, e)], roots)
    return build.model(), {**ys, **ws}, {**xs, **vs, **es}


# -- ground-truth oracle -------------------------------------------------------


def _root_grids(scm: Scm, root_ids: tuple[int, ...]) -> dict[int, np.ndarray]:
    """Index grids over the joint state space of ``root_ids`` (ascending)."""
    cards = [scm.var(r).cardinality for r in root_ids]
    grids = np.indices(cards)
    return {r: grids[i] for i, r in enumerate(root_ids)}


def _world_values(
    scm: Scm,
    root_arrays: dict[int, np.ndarray],
    interventions: Mapping[int, int],
    shape: tuple[int, ...],
) -> dict[int, np.ndarray]:
    """Vectorized forward evaluation of all variables over a root grid."""
    values: dict[int, np.ndarray] = {}
    for vid in scm.topological_order():
        if vid in interventions:
            values[vid] = np.full(shape, interventions[vid], dtype=np.int64)
        elif scm.is_root(vid):
            values[vid] = root_arrays[vid]
        else:
            fn = scm.structural_map(vid)
            rows = tuple(values[p] for p in scm.parents[vid])
            values[vid] = fn[rows]
    return values


def counterfactual_term_profile(
    scm: Scm,
    x: Mapping[int, int],
    y: Mapping[int, int],
    v: Mapping[int, int],
    w: Mapping[int, int],
    e: Mapping[int, int],
    unit_ids: Iterable[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Pr(y_x, w_v | e, u) for every unit instantiation u, by enumeration.

    Returns ``(values, defined)`` arrays over the unit grid (axes follow
    ascending unit ids). ``defined`` is False where Pr(e, u) = 0, in which
    case the value entry is 0. Requires a functional SCM.
    """
    unit_ids = tuple(unit_ids)
    for vid in unit_ids:  # before sorting, which an unknown id may break
        if not _known_id(scm, vid):
            raise ModelError(f"unknown unit variable id {vid}")
        if not scm.is_root(vid):
            raise ModelError(f"unit variable {scm.var(vid).name!r} must be a root")
    if len(set(unit_ids)) != len(unit_ids):
        # One axis per id: a repeat would silently share one.
        raise ModelError(f"repeated unit variable ids in {list(unit_ids)}")
    unit_ids = tuple(sorted(unit_ids))
    roots = tuple(sorted(scm.roots))
    shape = tuple(scm.var(r).cardinality for r in roots)
    grids = _root_grids(scm, roots)

    base = _world_values(scm, grids, {}, shape)
    under_x = _world_values(scm, grids, x, shape) if x else base
    under_v = _world_values(scm, grids, v, shape) if v else base

    def indicator(values: dict[int, np.ndarray], inst: Mapping[int, int]) -> np.ndarray:
        ind = np.ones(shape, dtype=bool)
        for vid, state in inst.items():
            ind &= values[vid] == state
        return ind

    weight = np.ones(shape)
    for i, r in enumerate(roots):
        prior = scm.tables[r]
        axis_shape = [1] * len(roots)
        axis_shape[i] = prior.size
        weight = weight * prior.reshape(axis_shape)

    ind_e = indicator(base, e)
    ind_yw = indicator(under_x, y) & indicator(under_v, w)
    num = weight * (ind_e & ind_yw)
    den = weight * ind_e

    other_axes = tuple(i for i, r in enumerate(roots) if r not in unit_ids)
    num_u = num.sum(axis=other_axes) if other_axes else num
    den_u = den.sum(axis=other_axes) if other_axes else den
    defined = den_u > 0
    values = np.divide(num_u, den_u, out=np.zeros_like(num_u), where=defined)
    return values, defined


def counterfactual_oracle(
    scm: Scm,
    x: Mapping[int, int],
    y: Mapping[int, int],
    v: Mapping[int, int],
    w: Mapping[int, int],
    e: Mapping[int, int],
    u: Mapping[int, int],
) -> float | None:
    """Ground-truth Pr(y_x, w_v | e, u) by exogenous enumeration.

    ``u`` assigns a subset of the roots. Returns None when the conditioning
    mass Pr(e, u) is zero (the value is undefined for this unit). An
    ill-posed term or unit is refused with ModelError.
    """
    if not validate(scm).functional:
        raise ModelError("counterfactual oracle requires a functional SCM")
    violations = _term_violations(scm, x, y, v, w, e)
    if violations:
        raise ModelError("ill-posed counterfactual term: " + "; ".join(violations))
    return _profile_at(
        scm, lambda: counterfactual_term_profile(scm, x, y, v, w, e, u), u
    )


def _profile_at(
    scm: Scm, profile: Callable[[], tuple[np.ndarray, np.ndarray]], u: Mapping[int, int]
) -> float | None:
    """The entry at unit ``u`` of the ``(values, defined)`` profile that
    ``profile()`` builds, whose axes follow the ascending ids of ``u``; None
    where it is undefined. An unknown unit id, or a state out of its unit's
    range, is refused with ModelError before the profile is built, so that a
    refused unit costs no enumeration and a negative state never reads
    another unit's entry."""
    for vid, state in u.items():
        if not _known_id(scm, vid):
            raise ModelError(f"unknown unit variable id {vid}")
        _check_state(scm.var(vid), state)
    idx = tuple(u[vid] for vid in sorted(u))
    values, defined = profile()
    return float(values[idx]) if defined[idx] else None


def enumerate_instantiations(
    scm: Scm, vids: Iterable[int]
) -> Iterable[Instantiation]:
    """All joint instantiations of ``vids`` in ascending-id lexicographic order."""
    vids = tuple(sorted(vids))
    ranges = [range(scm.var(v).cardinality) for v in vids]
    for states in itertools.product(*ranges):
        yield dict(zip(vids, states))
