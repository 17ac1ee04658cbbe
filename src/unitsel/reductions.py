"""Boolean formulas compiled into SCM circuits, with exact ground truths.

A formula over Boolean variables becomes an SCM with one uniform-prior binary
root per variable and one functional gate node per connective (the paper's
circuit, ``compile_formula``); the single sentinel leaf takes value 1 exactly
on satisfying assignments. Together with the exact satisfying-count ratios
this gives executable versions of the hardness-proof constructions, testable
against truth-table enumeration. ``sat_via_rmap`` solves a folded circuit with
the same roots and sentinel semantics, compiled by the same walk: a NOT adds
no node, and each maximal same-connective subtree is one gate, of at most
``FOLD_FAN_IN`` inputs, whose CPT folds in the literal signs, so a CNF has
one gate per clause and a tree of AND gates. Formulas enter only as DIMACS
CNF text (``parse_dimacs``) or as ``Formula`` ASTs built in code.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Union

import numpy as np

from .factor import _is_index
from .inference import rmap_ve
from .model import ModelError, Scm
from .worlds import _Builder

EMAJSAT_MAX_V = 20


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Not:
    child: "Node"


@dataclass(frozen=True)
class And:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Or:
    left: "Node"
    right: "Node"


Node = Union[Var, Not, And, Or]


@dataclass(frozen=True)
class Formula:
    """An AST over named Boolean variables, optionally partitioned into
    existential (u) and counting (v) blocks."""

    root: Node
    variables: tuple[str, ...]
    u_vars: tuple[str, ...] | None = None
    v_vars: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not set(map(type, self.variables)) <= {str}:
            raise ModelError(f"formula variable names must be strings: {self.variables!r}")
        if len(set(self.variables)) != len(self.variables):
            repeated = sorted({n for n in self.variables if self.variables.count(n) > 1})
            raise ModelError(f"formula declares variables more than once: {repeated}")
        used = collect_names(self.root)
        missing = used - set(self.variables)
        if missing:
            raise ModelError(f"formula uses undeclared variables: {sorted(missing)}")
        if (self.u_vars is None) != (self.v_vars is None):
            raise ModelError("a partition must give both u and v blocks")
        if self.u_vars is not None:
            blocks = (*self.u_vars, *self.v_vars)
            # Covering the variables with as many entries as there are
            # variables leaves no room for an overlap or a repeat.
            if set(blocks) != set(self.variables) or len(blocks) != len(self.variables):
                raise ModelError("u and v must partition the declared variables")

    def with_partition(self, u_vars, v_vars) -> "Formula":
        return Formula(self.root, self.variables, tuple(u_vars), tuple(v_vars))


def _postorder(root: Node) -> Iterator[Node]:
    """The AST's nodes, children before parents and left before right; no
    recursion, since a DIMACS conjunction nests one level per clause."""
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded or isinstance(node, Var):
            yield node
        elif isinstance(node, Not):
            stack += ((node, True), (node.child, False))
        else:
            stack += ((node, True), (node.right, False), (node.left, False))


def collect_names(node: Node) -> set[str]:
    """The names of the variables the AST uses. The nodes are visited in no
    particular order, on a plain stack."""
    names: set[str] = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            names.add(node.name)
        elif isinstance(node, Not):
            stack.append(node.child)
        else:
            stack += (node.left, node.right)
    return names


def evaluate(node: Node, assignment: Mapping[str, int]) -> bool:
    """The formula's value under a {name: 0/1} assignment of its variables."""
    return bool(vector_evaluate(node, {name: np.bool_(v) for name, v in assignment.items()}))


def vector_evaluate(node: Node, arrays: Mapping[str, np.ndarray]) -> np.ndarray:
    """Evaluate over numpy boolean arrays (broadcasting truth tables)."""
    values: list[np.ndarray] = []
    for n in _postorder(node):
        if isinstance(n, Var):
            values.append(arrays[n.name])
        elif isinstance(n, Not):
            values.append(~values.pop())
        else:
            right, left = values.pop(), values.pop()
            values.append(left & right if isinstance(n, And) else left | right)
    return values.pop()


def truth_table(formula: Formula) -> np.ndarray:
    """Boolean grid over the declared variables (axes in declaration order)."""
    k = len(formula.variables)
    grids = np.indices((2,) * k).astype(bool)
    arrays = {name: grids[i] for i, name in enumerate(formula.variables)}
    return vector_evaluate(formula.root, arrays)


# -- DIMACS ----------------------------------------------------------------------

_DIMACS_INT = re.compile(r"[+-]?[0-9]+")


def _dimacs_int(token: str) -> int:
    """An ASCII decimal integer. Python's ``int`` also reads ``1_0`` and
    non-ASCII digits, which DIMACS does not allow."""
    if _DIMACS_INT.fullmatch(token) is None:
        raise ValueError(f"not a DIMACS integer: {token!r}")
    return int(token)


def parse_dimacs(text: str) -> Formula:
    """Parse DIMACS CNF into a right-nested and/or AST over x1..xN.

    Clauses fold their literals from the right, and so does the top-level
    conjunction, matching the two-child inductive circuit rules.
    """
    n_vars = n_clauses = None
    clauses: list[list[int]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n_vars is not None:
                raise ModelError(f"line {lineno}: repeated DIMACS header {line!r}")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ModelError(f"line {lineno}: bad DIMACS header {line!r}")
            try:
                n_vars, n_clauses = _dimacs_int(parts[2]), _dimacs_int(parts[3])
            except ValueError:
                raise ModelError(f"line {lineno}: non-integer header counts") from None
            if n_vars < 1:
                raise ModelError(f"line {lineno}: need at least one variable")
            continue
        if n_vars is None:
            raise ModelError(f"line {lineno}: clause before DIMACS header")
        for tok in line.split():
            try:
                lit = _dimacs_int(tok)
            except ValueError:
                raise ModelError(f"line {lineno}: bad literal {tok!r}") from None
            if lit == 0:
                if not current:
                    raise ModelError(f"line {lineno}: empty clause")
                clauses.append(current)
                current = []
                continue
            if not 1 <= abs(lit) <= n_vars:
                raise ModelError(
                    f"line {lineno}: literal {lit} outside declared range 1..{n_vars}"
                )
            current.append(lit)
    if current:
        raise ModelError("last clause not terminated by 0")
    if n_vars is None:
        raise ModelError("missing DIMACS header")
    if len(clauses) != n_clauses:
        raise ModelError(
            f"clause count mismatch: header says {n_clauses}, found {len(clauses)}"
        )
    if not clauses:
        raise ModelError("formula has no clauses")

    def literal(lit: int) -> Node:
        v = Var(f"x{abs(lit)}")
        return v if lit > 0 else Not(v)

    def fold_or(lits: list[int]) -> Node:
        node = literal(lits[-1])
        for lit in reversed(lits[:-1]):
            node = Or(literal(lit), node)
        return node

    root = fold_or(clauses[-1])
    for clause in reversed(clauses[:-1]):
        root = And(fold_or(clause), root)
    return Formula(root, tuple(f"x{i}" for i in range(1, n_vars + 1)))


# -- circuit compilation -----------------------------------------------------------


NOT_TABLE = np.array([[0.0, 1.0], [1.0, 0.0]])
AND_TABLE = np.array(
    [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]]
)  # (left, right, gate): gate = left * right
OR_TABLE = np.array(
    [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]]
)  # gate = min(1, left + right): the saturating reading of the sum rule
IDENTITY_TABLE = np.array([[1.0, 0.0], [0.0, 1.0]])  # and/or of a node with itself
_UNIFORM_TABLE = np.array([0.5, 0.5])  # the prior of every declared variable
for _table in (NOT_TABLE, AND_TABLE, OR_TABLE, IDENTITY_TABLE, _UNIFORM_TABLE):
    _table.flags.writeable = False  # read-only, so every circuit shares it


def compile_formula(formula: Formula) -> tuple[Scm, int]:
    """Compile to the paper's SCM circuit; returns the model and the sentinel
    node id.

    Every declared variable becomes a uniform binary root; every connective a
    functional gate (NOT = 1 - input, AND = product, OR = saturating sum).
    A bare variable formula has the variable root itself as sentinel.
    """
    return _compile(formula, _PaperGates)


def _compile(formula: Formula, kind: type[_Gates]) -> tuple[Scm, int]:
    """The one compilation walk: every declared variable becomes a uniform
    binary root, then the AST is turned, in post-order, into ``kind``'s items
    (a gate's id, or a pending part of one): a variable gives a leaf item, a
    NOT negates its input's item, and an AND or OR joins the two it pops.
    ``root`` turns the last item into the sentinel's id. A bare variable is
    its own sentinel."""
    build = _Builder()
    ids = {name: build.add(name, ("0", "1"), (), _UNIFORM_TABLE) for name in formula.variables}
    if isinstance(formula.root, Var):
        return build.model(), ids[formula.root.name]
    gates = kind(build)
    built: list = []
    for node in _postorder(formula.root):
        if isinstance(node, Var):
            built.append(gates.leaf(ids[node.name]))
        elif isinstance(node, Not):
            built.append(gates.negate(built.pop()))
        else:
            right, left = built.pop(), built.pop()
            built.append(gates.join(isinstance(node, And), left, right))
    sentinel = gates.root(built.pop())
    return build.model(), sentinel


class _Gates:
    """Gate nodes appended to a builder, with ids and names s1, s2, ...
    (primed if a variable has the name) in the order they are added."""

    def __init__(self, build: _Builder) -> None:
        self.build = build
        self.count = 0

    def gate(self, parents: tuple[int, ...], table: np.ndarray) -> int:
        self.count += 1
        return self.build.add(f"s{self.count}", ("0", "1"), parents, table)


class _PaperGates(_Gates):
    """The paper's circuit: one gate per connective; an item is a node id."""

    def leaf(self, vid: int) -> int:
        return vid

    def negate(self, vid: int) -> int:
        return self.gate((vid,), NOT_TABLE)

    def join(self, conj: bool, left: int, right: int) -> int:
        if left == right:
            # Repeated literal (e.g. a DIMACS clause "1 1 0"): both inputs
            # are the same node, and the gate reduces to the identity.
            return self.gate((left,), IDENTITY_TABLE)
        return self.gate((left, right), AND_TABLE if conj else OR_TABLE)

    def root(self, vid: int) -> int:
        return vid


FOLD_FAN_IN = 4  # inputs of a folded gate at most, so its CPT has at most 32 cells


@dataclass
class _Group:
    """A same-connective subtree whose gates are not built yet: its
    connective and, per input node, the mask of the states that make the
    node's literals true (bit s for state s). Literals over one node combine
    as the connective does: an AND intersects their masks, an OR unites them."""

    conj: bool
    masks: dict[int, int]

    def add(self, vid: int, mask: int) -> None:
        old = self.masks.get(vid)
        if old is not None:
            mask = old & mask if self.conj else old | mask
        self.masks[vid] = mask


class _FoldedGates(_Gates):
    """The folded circuit: a NOT flips the sign of the literal under it and
    adds no node, and each maximal same-connective subtree becomes one gate
    over its distinct input nodes, or a tree of such gates when it has more
    than ``FOLD_FAN_IN``. An item is a literal ``(vid, mask)`` (mask 2: the
    node at 1; mask 1: at 0) or a pending ``_Group``."""

    def leaf(self, vid: int) -> tuple[int, int]:
        return vid, 2

    def negate(self, item) -> tuple[int, int]:
        vid, mask = self._literal(item)
        return vid, mask ^ 3

    def join(self, conj: bool, left, right) -> _Group:
        def same(item) -> bool:
            return isinstance(item, _Group) and item.conj == conj

        # An input group of the same connective is consumed here, so it is
        # extended in place: a conjunction chain folds in linear time.
        group = right if same(right) else left if same(left) else _Group(conj, {})
        for item in (left, right):
            if item is group:
                continue
            for vid, mask in item.masks.items() if same(item) else [self._literal(item)]:
                group.add(vid, mask)
        return group

    def root(self, item) -> int:
        vid, mask = self._literal(item)
        if mask == 2 and self.build.parents[vid]:
            return vid
        # The formula is a literal over a variable or a negated gate, which
        # gets a gate of its own: the sentinel is a variable only for a
        # bare-variable formula, as in the paper's circuit.
        return self.gate((vid,), _gate_table(False, (mask,)))

    def _literal(self, item) -> tuple[int, int]:
        """The item as a literal; a pending group's gates are built here."""
        if not isinstance(item, _Group):
            return item
        inputs = sorted(item.masks.items())
        if len(inputs) == 1 and inputs[0][1] in (1, 2):
            return inputs[0]  # a repeated literal: no gate
        while len(inputs) > FOLD_FAN_IN:
            head, inputs = inputs[:FOLD_FAN_IN], inputs[FOLD_FAN_IN:]
            inputs.append((self._gate(item.conj, head), 2))
        return self._gate(item.conj, inputs), 2

    def _gate(self, conj: bool, inputs: list[tuple[int, int]]) -> int:
        parents, masks = zip(*inputs)
        return self.gate(parents, _gate_table(conj, masks))


@functools.lru_cache(maxsize=None)
def _gate_table(conj: bool, masks: tuple[int, ...]) -> np.ndarray:
    """The read-only CPT of a folded gate, shared by every gate of its
    connective and masks: the gate is 1 where all (AND) or any (OR) of its
    inputs has a state in its mask. The cache holds at most 680 tables (two
    connectives, masks 0-3 on one to ``FOLD_FAN_IN`` inputs)."""
    states = np.indices((2,) * len(masks))
    true = np.array([(mask >> s) & 1 for mask, s in zip(masks, states)], dtype=bool)
    out = true.all(axis=0) if conj else true.any(axis=0)
    table = np.stack([~out, out], axis=-1).astype(float)
    table.flags.writeable = False
    return table


# -- exact ground truths -------------------------------------------------------------


def emajsat_ratio(formula: Formula, u: Mapping[str, int]) -> Fraction:
    """card({v : uv satisfies the formula}) / card(v-space), exactly.

    ``u`` must assign 0 or 1 (an integer, not a bool) to every variable of
    the existential block; the counting block is enumerated (refused above
    EMAJSAT_MAX_V variables).
    """
    if formula.u_vars is None:
        raise ModelError("formula has no (u, v) partition")
    if set(u) != set(formula.u_vars):
        raise ModelError("u must assign exactly the existential variables")
    bad = {name: value for name, value in u.items() if not _is_index(value, 2)}
    if bad:
        raise ModelError(f"u values must be 0 or 1, got {bad}")
    v_vars = tuple(formula.v_vars)
    if len(v_vars) > EMAJSAT_MAX_V:
        raise ModelError(
            f"counting block has {len(v_vars)} variables; bound is {EMAJSAT_MAX_V}"
        )
    shape = (2,) * len(v_vars)
    grids = np.indices(shape).astype(bool) if v_vars else ()
    arrays: dict[str, np.ndarray] = {
        name: np.asarray(bool(u[name])) for name in formula.u_vars
    }
    arrays.update({name: grids[i] for i, name in enumerate(v_vars)})
    sat = vector_evaluate(formula.root, arrays)
    count = int(np.count_nonzero(np.broadcast_to(sat, shape))) if v_vars else int(bool(sat))
    return Fraction(count, 2 ** len(v_vars))


def sat_via_rmap(formula: Formula) -> tuple[bool, dict[str, int] | None]:
    """Satisfiability via Reverse-MAP on the folded circuit.

    The folded circuit has the paper's variables and sentinel semantics, but
    a NOT adds no node, and each maximal same-connective subtree is one gate
    of at most ``FOLD_FAN_IN`` inputs whose CPT folds in the literal signs,
    such as one gate per CNF clause. The variables are targets; e1 sets the
    sentinel to 1 and e2 is empty. The sentinel forces every AND gate and
    every clause gate of a CNF, so the sum pass is left with almost no step.
    The optimum is positive iff the formula is satisfiable, in which case the
    maximizing unit is its first satisfying assignment in truth-table order
    (the first declared variable most significant; returned as {name: 0/1}).
    A bare-variable formula is its own sentinel, which e1 sets, so it is not
    a target and is 1 in the witness.
    """
    scm, sentinel = _compile(formula, _FoldedGates)
    ids = {name: scm.by_name(name).id for name in formula.variables}
    result = rmap_ve(scm, [vid for vid in ids.values() if vid != sentinel], {sentinel: 1}, {})
    if result.value == 0.0:
        return False, None
    states = {**result.instantiation, sentinel: 1}
    return True, {name: states[vid] for name, vid in ids.items()}
