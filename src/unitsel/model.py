"""Structural causal models as discrete Bayesian networks with functional CPTs.

An :class:`Scm` is a DAG over :class:`~unitsel.factor.Variable` objects. Roots
(exogenous variables) carry priors; internal (endogenous) variables carry
CPTs. A legal SCM additionally has *functional* internal CPTs: every entry is
0 or 1, encoding a structural equation.

CPT tables are stored in declaration order: one axis per parent (in the
declared parent order) followed by the child axis, so the flat serialization
has the child state varying fastest. :meth:`Scm.cpt_factor` converts to the
canonical sorted-scope factor layout; a CPT whose parents all have smaller
ids than its child is already in it, and its factor shares the stored table.

Every check runs once over the whole model, and the variables are walked one
by one only after a check fails, to name the first bad one. :func:`load_model`
converts every CPT list of a document with one ``np.array`` call into one
read-only buffer, and :class:`Scm` shares its flat views instead of copying
them. :class:`Scm` keeps the concatenated entries that it tests to be finite
and non-negative, and :func:`validate` runs its row-sum and functional tests
on those same entries.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from typing import Mapping, Sequence

import numpy as np

from .factor import Factor, FactorError, Instantiation, Variable, _is_index

ROW_SUM_TOL = 1e-9
FUNCTIONAL_TOL = 1e-12
_FLOAT64 = np.dtype(np.float64)


class ModelError(ValueError):
    """Raised on malformed models or model documents."""


class Scm:
    """A discrete DAG model: variables, parent lists and CPT tables.

    Construction checks structure (known ids, table shapes) and that every
    CPT entry is finite and non-negative, however the model was built, so the
    CPT factors can skip those checks. The parent lists are checked in one
    pass over all of them, and the entries in one test over all tables; the
    variables are walked one by one only to name the first that fails.

    A table that is already a read-only, C-contiguous float64 array with its
    CPT's number of entries (such as a table of another ``Scm``, which derived
    models pass on, or a flat view of :func:`load_model`'s buffer) is shared,
    not copied: the model takes it as frozen, and views it in the CPT's shape
    if it has another one. Every other table is copied once into a read-only
    array, so a caller who later writes to the array passed in leaves the
    model unchanged. Semantic legality
    (acyclicity, row normalization, functional internal CPTs) is reported by
    :func:`validate` so that deliberately broken models can be built in tests.
    """

    def __init__(
        self,
        variables: Sequence[Variable],
        parents: Mapping[int, Sequence[int]],
        tables: Mapping[int, np.ndarray | Sequence[float]],
    ) -> None:
        self.variables: tuple[Variable, ...] = tuple(variables)
        ids = [v.id for v in self.variables]
        if ids != list(range(len(ids))):
            raise ModelError("variable ids must be dense 0..n-1 in declaration order")
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ModelError("variable names must be unique")
        self._by_name = {v.name: v for v in self.variables}
        self.parents: dict[int, tuple[int, ...]] = _parent_lists(self.variables, parents)

        cards = [v.cardinality for v in self.variables]
        self.tables: dict[int, np.ndarray] = {}
        for v in self.variables:
            try:
                table = tables[v.id]
            except KeyError:
                raise ModelError(f"no CPT for variable {v.name!r}") from None
            shape = tuple([cards[p] for p in self.parents[v.id]]) + (v.cardinality,)
            shared = _shared(table, shape)
            self.tables[v.id] = _table_copy(v, table, shape) if shared is None else shared
        # One test over every entry; NaN fails both comparisons. validate()
        # tests these same entries.
        self._entries = entries = np.concatenate(list(self.tables.values()) or [[]], axis=None)
        if not np.all((entries >= 0) & (entries < math.inf)):
            v, x = next((v, x) for v in self.variables
                        for x in self.tables[v.id].flat if not 0 <= x < math.inf)
            raise ModelError(f"CPT of {v.name!r}: entry {float(x)!r} is negative, infinite or NaN")

        self.roots: tuple[int, ...] = tuple(
            v.id for v in self.variables if not self.parents[v.id]
        )
        self._factors: dict[int, Factor] = {}
        self._topo: tuple[int, ...] | None = None
        self._validation: ValidationReport | None = None

    # -- lookups --------------------------------------------------------------

    @cached_property
    def children(self) -> dict[int, tuple[int, ...]]:
        """Each variable's children, built on first use: a loaded model is
        often solved without them."""
        # Children are appended in ascending id order, so each list is sorted.
        kids: dict[int, list[int]] = {v.id: [] for v in self.variables}
        for vid, ps in self.parents.items():
            for p in ps:
                kids[p].append(vid)
        return {vid: tuple(c) for vid, c in kids.items()}

    @property
    def n(self) -> int:
        return len(self.variables)

    def var(self, vid: int) -> Variable:
        return self.variables[vid]

    def by_name(self, name: str) -> Variable:
        try:
            return self._by_name[name]
        except KeyError:
            raise ModelError(f"no variable named {name!r}") from None

    def is_root(self, vid: int) -> bool:
        return not self.parents[vid]

    def endogenous(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.variables if self.parents[v.id])

    def instantiation(self, by_name: Mapping[str, str]) -> Instantiation:
        """Translate a {variable name: state name} mapping to id/index form.
        A name that is not a variable's, or a state its variable lacks, is
        refused with ModelError."""
        out: Instantiation = {}
        for name, state in by_name.items():
            v = self.by_name(name)
            try:
                out[v.id] = v.state_index(state)
            except FactorError as err:
                raise ModelError(str(err)) from None
        return out

    def names_of(self, inst: Mapping[int, int]) -> dict[str, str]:
        return {
            self.var(vid).name: self.var(vid).state_names[state]
            for vid, state in sorted(inst.items())
        }

    def cpt_factor(self, vid: int) -> Factor:
        """The node's CPT as a canonical sorted-scope factor. When the scope
        (parents, then the node) is already ascending, the factor shares the
        stored table."""
        factor = self._factors.get(vid)
        if factor is None:
            scope = self.parents[vid] + (vid,)
            table = self.tables[vid]
            if scope != tuple(sorted(scope)):
                order = sorted(range(len(scope)), key=scope.__getitem__)
                table = np.ascontiguousarray(table.transpose(order))
                scope = tuple([scope[i] for i in order])
            # The table's shape is the sorted scope's cardinalities.
            factor = Factor._trusted(scope, table.shape, table)
            self._factors[vid] = factor
        return factor

    def topological_order(self) -> tuple[int, ...]:
        """The smallest topological order: Kahn's algorithm, taking the
        smallest ready id first. When every parent comes before its child,
        that is declaration order, and the walk is skipped."""
        if self._topo is None:
            if all(p < vid for vid, ps in self.parents.items() for p in ps):
                self._topo = tuple(range(self.n))
                return self._topo
            indeg = {v.id: len(self.parents[v.id]) for v in self.variables}
            ready = list(self.roots)  # ascending ids: already a heap
            order: list[int] = []
            while ready:
                vid = heapq.heappop(ready)
                order.append(vid)
                for c in self.children[vid]:
                    indeg[c] -= 1
                    if indeg[c] == 0:
                        heapq.heappush(ready, c)
            if len(order) != self.n:
                raise ModelError("parent relation is cyclic")
            self._topo = tuple(order)
        return self._topo

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
            return True
        except ModelError:
            return False

    def size_parameters(self) -> int:
        """Total number of CPT entries (the model size |G|)."""
        return int(sum(t.size for t in self.tables.values()))

    def structural_map(self, vid: int) -> np.ndarray:
        """For a functional node, the implied state per parent row (argmax)."""
        return np.argmax(self.tables[vid], axis=-1)


def _parent_lists(
    variables: tuple[Variable, ...], parents: Mapping[int, Sequence[int]]
) -> dict[int, tuple[int, ...]]:
    """Each variable's parent ids as a tuple of ints. One pass tests every
    list at once; only when it fails are the variables walked in order, so
    the error names the first bad one."""
    n = len(variables)
    # Each list is read once, up to the first variable without one.
    lists: dict[int, tuple] = {}
    for v in variables:
        try:
            lists[v.id] = tuple(parents[v.id])
        except (KeyError, TypeError):
            break
    else:
        flat = list(chain.from_iterable(lists.values()))
        # Plain ints in range, no list with a repeat, none holding its own id.
        if (set(map(type, flat)) <= {int} and (not flat or 0 <= min(flat) and max(flat) < n)
                and sum(map(len, map(set, lists.values()))) == len(flat)
                and not any(map(tuple.__contains__, lists.values(), lists))):
            return lists
    out: dict[int, tuple[int, ...]] = {}
    for v in variables:
        if v.id not in lists:
            raise ModelError(f"no parent list for variable {v.name!r}")
        ps = lists[v.id]
        try:
            duplicate = len(set(ps)) != len(ps)
        except TypeError:  # an unhashable entry, refused as an id below
            duplicate = False
        if duplicate:
            raise ModelError(f"duplicate parent for variable {v.name!r}")
        for p in ps:
            if not _is_index(p, n):
                text = int(p) if isinstance(p, np.integer) else repr(p)
                raise ModelError(f"unknown parent id {text} for variable {v.name!r}")
        if v.id in ps:
            raise ModelError(f"variable {v.name!r} lists itself as parent")
        out[v.id] = tuple(int(p) for p in ps)
    return out


def _shared(table, shape: tuple[int, ...]) -> np.ndarray | None:
    """``table`` in ``shape`` without a copy, if it is a C-contiguous float64
    array with that many entries that neither it nor the array owning its
    memory lets anyone write; None otherwise."""
    if type(table) is not np.ndarray or table.dtype != _FLOAT64:
        return None
    flags, base = table.flags, table.base
    if flags.writeable or not flags.c_contiguous or not (
            base is None or isinstance(base, np.ndarray) and not base.flags.writeable):
        return None
    if table.shape == shape:
        return table
    try:
        return table.reshape(shape)
    except ValueError:  # another number of entries
        return None


def _table_copy(v: Variable, table, shape: tuple[int, ...]) -> np.ndarray:
    """A read-only float64 copy of ``table`` in ``shape``."""
    try:
        arr = np.array(table, dtype=np.float64, order="C")
    except (TypeError, ValueError, OverflowError):
        raise ModelError(f"CPT for variable {v.name!r} is not an array of numbers") from None
    size = math.prod(shape)
    if arr.size != size:
        raise ModelError(f"CPT for variable {v.name!r} has {arr.size} entries, expected {size}")
    arr.flags.writeable = False
    return arr.reshape(shape)


@dataclass
class ValidationReport:
    """Outcome of the semantic checks on a model."""

    acyclic: bool
    normalized: bool
    functional_status: dict[int, bool] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

    @property
    def functional(self) -> bool:
        return all(self.functional_status.values())

    @property
    def is_valid_bn(self) -> bool:
        return self.acyclic and self.normalized

    @property
    def is_valid_scm(self) -> bool:
        return self.is_valid_bn and self.functional


def validate(scm: Scm) -> ValidationReport:
    """Check acyclicity, CPT row normalization and functional internal CPTs.

    Violations are collected, not raised: a model passing all checks is a
    legal SCM; one passing all but the functional check is a legal Bayesian
    network. The checks run once per model, whose parents and tables never
    change after construction; each call returns its own copy of the report.
    """
    if scm._validation is None:
        scm._validation = _check(scm)
    report = scm._validation
    return ValidationReport(
        report.acyclic, report.normalized, dict(report.functional_status), list(report.violations)
    )


def _check(scm: Scm) -> ValidationReport:
    """One row-sum test per cardinality and one functional test, both on the
    entries :class:`Scm` kept. Only a failing row-sum test walks the
    variables, so the violations name each bad variable in declaration
    order."""
    violations: list[str] = []
    acyclic = scm.is_acyclic()
    if not acyclic:
        violations.append("parent relation is cyclic")

    cards = [v.cardinality for v in scm.variables]
    if len(set(cards)) == 1:  # one cardinality: the kept entries are its group
        groups = {cards[0]: scm._entries}
    else:
        groups = {card: np.concatenate([t for t, c in zip(scm.tables.values(), cards) if c == card],
                                       axis=None) for card in set(cards)}
    normalized = not any(np.any(_bad_rows(entries, card)) for card, entries in groups.items())
    if not normalized:
        for v in scm.variables:
            bad = _bad_rows(scm.tables[v.id], v.cardinality)
            if np.any(bad):
                violations.append(
                    f"CPT rows of {v.name!r} do not sum to 1 "
                    f"(first bad row index {int(np.argmax(bad))})"
                )

    # Each table's entries start where the previous table's end; every table
    # has at least one entry, so one reduceat gives each table's verdict.
    sizes = [t.size for t in scm.tables.values()]
    starts = list(accumulate(sizes[:-1], initial=0))
    by_table = np.logical_and.reduceat(_zero_one(scm._entries), starts) if sizes else []
    endo = scm.endogenous()
    functional_status = {vid: bool(by_table[vid]) for vid in endo}
    violations.extend(
        f"internal variable {scm.var(vid).name!r} has a non-functional CPT"
        for vid, ok in functional_status.items() if not ok
    )
    return ValidationReport(acyclic, normalized, functional_status, violations)


def _bad_rows(table: np.ndarray, cardinality: int) -> np.ndarray:
    """Which rows of ``cardinality`` entries do not sum to 1."""
    return np.abs(table.reshape(-1, cardinality).sum(axis=1) - 1.0) > ROW_SUM_TOL


def _zero_one(entries: np.ndarray) -> np.ndarray:
    """Which entries are 0 or 1."""
    return np.minimum(np.abs(entries), np.abs(entries - 1.0)) <= FUNCTIONAL_TOL


def joint_prob(scm: Scm, full: Mapping[int, int]) -> float:
    """Probability of a full instantiation: one CPT entry per node. A missing
    variable or a state out of range is refused with ModelError."""
    for v in scm.variables:
        if v.id not in full:
            raise ModelError(f"instantiation missing variable id {v.id}")
        _check_state(v, full[v.id])
    p = 1.0
    for v in scm.variables:
        p *= float(scm.tables[v.id][tuple(full[q] for q in scm.parents[v.id]) + (full[v.id],)])
    return p


def _known_id(scm: Scm, vid) -> bool:
    """Whether ``vid`` is a variable id of ``scm``. A float or a bool that
    equals an id is not one, although it finds that id in a dict."""
    return _is_index(vid, scm.n)


def _check_state(var: Variable, state) -> None:
    """Refuse with ModelError a ``state`` that is not an integer (a bool is
    not) in ``range(var.cardinality)``."""
    if not _is_index(state, var.cardinality):
        raise ModelError(f"state {state} out of range for {var.name!r}")


def evidence_to_lambdas(scm: Scm, evidence: Mapping[int, int]) -> list[Factor]:
    """One single-variable 0/1 indicator factor per evidence assignment."""
    out = []
    for vid in sorted(evidence):
        v = scm.var(vid)
        out.append(Factor.indicator(vid, v.cardinality, evidence[vid]))
    return out


# -- on-disk format -----------------------------------------------------------


def save_model(scm: Scm) -> bytes:
    """Serialize to the canonical UTF-8 JSON document (byte-stable)."""
    doc = {
        "variables": [
            {"name": v.name, "states": list(v.state_names)} for v in scm.variables
        ],
        "parents": {
            v.name: [scm.var(p).name for p in scm.parents[v.id]]
            for v in scm.variables
        },
        "cpts": {v.name: scm.tables[v.id].reshape(-1).tolist() for v in scm.variables},
    }
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def json_number(value, context: str) -> float:
    """A JSON number as a float. JSON booleans, strings, objects, arrays and
    null are refused, though ``float`` would take some of them."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelError(f"{context} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise ModelError(f"{context} {value!r} is out of range") from None


def load_json(data: bytes | str, what: str) -> object:
    """The JSON value of a UTF-8 document. Undecodable bytes, malformed JSON
    and nesting too deep for the parser are refused with ModelError."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as err:
        raise ModelError(f"malformed {what} document: {err}") from None


def load_model(data: bytes | str, allow_nonfunctional: bool = False) -> Scm:
    """Parse the JSON model document and reject illegal models.

    Acyclicity and normalization violations always fail the load;
    non-functional internal CPTs fail unless ``allow_nonfunctional`` is set
    (used for plain Bayesian networks in tests and examples).
    """
    doc = load_json(data, "model")
    if not isinstance(doc, dict):
        raise ModelError("model document must be a JSON object")
    for key, kind, word in (("variables", list, "an array"), ("parents", dict, "an object"),
                            ("cpts", dict, "an object")):
        if key not in doc:
            raise ModelError(f"model document missing {key!r}")
        if not isinstance(doc[key], kind):
            raise ModelError(f"model {key!r} must be {word}")

    variables = _variables(doc["variables"])
    parents, cpts = _by_id(variables, doc["parents"], doc["cpts"])
    scm = Scm(variables, parents, _cpt_tables(variables, cpts))

    report = validate(scm)
    if not report.acyclic or not report.normalized:
        raise ModelError("; ".join(report.violations))
    if not report.functional and not allow_nonfunctional:
        raise ModelError("; ".join(report.violations))
    return scm


def _variables(entries: list) -> list[Variable]:
    """The document's variable entries as Variables. Each distinct tuple of
    states is checked by the Variable rule once, at its first variable; the
    later variables with the same states are built from that one."""
    checked: dict[tuple, Variable] = {}
    variables = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            entry = {}
        name, states = entry.get("name"), entry.get("states")
        if isinstance(name, str) and isinstance(states, list):
            states = tuple(states)
            try:
                first = checked.get(states)
            except TypeError:  # an unhashable state, refused below
                first = None
            if first is not None:
                variables.append(first._renamed(i, name))
                continue
        if not (isinstance(name, str) and isinstance(states, tuple)
                and set(map(type, states)) <= {str}):
            raise ModelError(
                f"bad variable entry at position {i}: needs a string 'name' and "
                "a list of string 'states'"
            )
        try:
            checked[states] = Variable(i, name, len(states), states)
        except FactorError as err:
            raise ModelError(str(err)) from None
        variables.append(checked[states])
    return variables


def _cpt_tables(variables: Sequence[Variable], cpts: Mapping[int, object]) -> dict[int, np.ndarray]:
    """The document's CPT lists, keyed by variable id, as float64 arrays.

    When every CPT is a list of JSON ints and floats, one type scan and one
    ``np.array`` call put them all in one read-only buffer, and each table is
    a flat view of it, which :class:`Scm` shares. Otherwise the lists are
    converted one by one in document order, so that the error names the
    first CPT that is not a list, or through :func:`json_number` the first
    entry that is not a number."""
    lists = list(cpts.values())
    if set(map(type, lists)) <= {list}:
        flat = list(chain.from_iterable(lists))
        if set(map(type, flat)) <= {int, float}:
            try:
                buffer = np.array(flat, dtype=np.float64)
            except OverflowError:  # an int beyond float range, named below
                pass
            else:
                buffer.flags.writeable = False
                ends = accumulate(map(len, lists))
                return {vid: buffer[end - len(values):end]
                        for (vid, values), end in zip(cpts.items(), ends)}
    tables: dict[int, np.ndarray] = {}
    for vid, values in cpts.items():
        context = f"CPT of {variables[vid].name!r}"
        if not isinstance(values, list):
            raise ModelError(f"{context} must be a list of numbers")
        tables[vid] = np.array([json_number(x, f"{context}: entry") for x in values])
    return tables


def _by_id(
    variables: Sequence[Variable], parents_by_name: Mapping, tables_by_name: Mapping
) -> tuple[dict[int, tuple[int, ...]], dict]:
    """The name-keyed parent lists and tables keyed by variable id, with
    every name resolved to its id. A name that is not a variable's, or a
    parent list that is not a list (or tuple) of names, is refused with
    ModelError. All names are looked up in one pass; only when a lookup or
    the type test fails are the lists walked in order, so that the error
    names the first bad one."""
    ids = {v.name: v.id for v in variables}
    try:
        parents = {ids[name]: tuple(map(ids.__getitem__, plist))
                   for name, plist in parents_by_name.items()}
        tables = {ids[name]: t for name, t in tables_by_name.items()}
    except (KeyError, TypeError):
        pass
    else:
        if set(map(type, parents_by_name.values())) <= {list, tuple}:
            return parents, tables

    def resolve(name, context: str) -> int:
        if not isinstance(name, str) or name not in ids:
            raise ModelError(f"unknown variable {name!r} referenced by {context}")
        return ids[name]

    parents = {}
    for name, plist in parents_by_name.items():
        vid = resolve(name, "parents")
        if not isinstance(plist, (list, tuple)):
            raise ModelError(f"parents of {name!r} must be a list of names")
        context = f"parents of {name!r}"
        parents[vid] = tuple([resolve(p, context) for p in plist])
    return parents, {resolve(name, "cpts"): t for name, t in tables_by_name.items()}


def make_scm(
    names_states: Sequence[tuple[str, Sequence[str]]],
    parents_by_name: Mapping[str, Sequence[str]],
    tables_by_name: Mapping[str, np.ndarray | Sequence[float]],
) -> Scm:
    """Convenience constructor from name-keyed pieces (tests and demos). The
    names resolve as in :func:`load_model`; the tables go to :class:`Scm` as
    given."""
    variables = [
        Variable(i, name, len(states), tuple(states))
        for i, (name, states) in enumerate(names_states)
    ]
    return Scm(variables, *_by_id(variables, parents_by_name, tables_by_name))
