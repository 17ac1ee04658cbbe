"""Multi-world constructions for counterfactual evaluation.

A counterfactual probability Pr(y_x, w_v | e) on an SCM becomes an
observational query on an auxiliary model holding several copies ("worlds")
of the SCM that share exogenous variables: world 1 carries the observation e,
world 2 the intervention do(x), world 3 the intervention do(v). Copies in
world 2 are written [X], copies in world 3 [[X]]; generic n-world copies are
written X^k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Container, Iterable, Mapping

import numpy as np

from .factor import Instantiation, Variable
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

    def copy_of(self, base_id: int, world: int) -> int:
        """Id of the copy of ``base_id`` in ``world`` (1-based)."""
        return self.copies[base_id][world - 1]

    def map_instantiation(self, inst: Mapping[int, int], world: int) -> Instantiation:
        return {self.copy_of(vid, world): state for vid, state in inst.items()}


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
    if n < 1:
        raise ModelError(f"world count must be >= 1, got {n}")
    shared = frozenset(shared)
    root_set = set(scm.roots)
    bad = shared - root_set
    if bad:
        names = ", ".join(scm.var(v).name for v in sorted(bad))
        raise ModelError(f"shared variables must be roots, got non-root(s): {names}")
    if namer is None:
        namer = superscript_name if n > 1 else (lambda name, world: name)

    variables: list[Variable] = []
    parents: dict[int, tuple[int, ...]] = {}
    tables: dict[int, np.ndarray] = {}
    common = _copy_world(scm, sorted(shared), lambda name: name, variables, parents, tables, {})
    own = [b for b in range(scm.n) if b not in shared]
    worlds = [
        _copy_world(scm, own, lambda name: namer(name, k), variables, parents, tables, common)
        for k in range(1, n + 1)
    ]
    copies = {
        b: (common[b],) * n if b in shared else tuple(world[b] for world in worlds)
        for b in range(scm.n)
    }
    return Scm(variables, parents, tables), WorldMap(n, shared, copies)


def _copy_world(
    scm: Scm,
    base_ids: Iterable[int],
    name: Callable[[str], str],
    variables: list[Variable],
    parents: dict[int, tuple[int, ...]],
    tables: dict[int, np.ndarray],
    shared: Mapping[int, int],
    keep: Container[int] | None = None,
    cut: Mapping[int, int] | None = None,
) -> dict[int, int]:
    """Append one world's copies of ``base_ids`` to a model under construction.

    Copies take the next free ids in ``base_ids`` order, named by ``name``,
    and keep their base CPTs. A copy's parents are the ``shared`` copies
    (base id -> model id) or else this world's own copies. The world is
    mutilated at ``cut`` (base id -> state): such a copy has no parents and a
    point mass on its state. With ``keep``, only the base ids in it are
    copied, but ``name`` still sees every name, so each copy is named as in
    the full world; a kept copy's parents must be kept or shared, or the
    copy must be cut. Returns the world's base id -> copy id map.
    """
    cut = cut or {}
    copy: dict[int, int] = {}
    for b in base_ids:
        v = scm.var(b)
        copy_name = name(v.name)
        if keep is None or b in keep:
            copy[b] = len(variables)
            variables.append(v._renamed(len(variables), copy_name))
    for b, vid in copy.items():
        if b in cut:
            parents[vid] = ()
            tables[vid] = _point_mass(scm.var(b).cardinality, cut[b])
        else:
            parents[vid] = tuple(shared[p] if p in shared else copy[p] for p in scm.parents[b])
            tables[vid] = scm.tables[b]
    return copy


def _point_mass(cardinality: int, state: int) -> np.ndarray:
    """The distribution that puts all its mass on ``state``."""
    point = np.zeros(cardinality)
    point[state] = 1.0
    return point


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
    parents = dict(scm.parents)
    tables = dict(scm.tables)
    for vid, state in interventions.items():
        if not _known_id(scm, vid):
            raise ModelError(f"unknown variable id {vid} in the interventions")
        v = scm.var(vid)
        _check_state(v, state)
        parents[vid] = ()
        tables[vid] = _point_mass(v.cardinality, state)
    return Scm(scm.variables, parents, tables)


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
    tm, wm = triplet_model(scm)
    interventions: Instantiation = {}
    interventions.update(wm.map_instantiation(x, 2))
    interventions.update(wm.map_instantiation(v, 3))
    mutilated = mutilate(tm, interventions)
    e1: Instantiation = {}
    e1.update(wm.map_instantiation(y, 2))
    e1.update(wm.map_instantiation(w, 3))
    e2: Instantiation = {}
    e2.update(wm.map_instantiation(x, 2))
    e2.update(wm.map_instantiation(v, 3))
    e2.update(wm.map_instantiation(e, 1))
    return mutilated, e1, e2


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
