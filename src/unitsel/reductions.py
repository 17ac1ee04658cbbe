"""Boolean formulas compiled into SCM circuits, with exact ground truths.

A formula over Boolean variables becomes an SCM with one uniform-prior binary
root per variable and one functional gate node per connective; the single
sentinel leaf takes value 1 exactly on satisfying assignments. Together with
the exact satisfying-count ratios this gives executable versions of the
hardness-proof constructions, testable against truth-table enumeration.
Formulas enter only as DIMACS CNF text (``parse_dimacs``) or as ``Formula``
ASTs built in code.
"""

from __future__ import annotations

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


def _children(node: Node) -> tuple[Node, ...]:
    if isinstance(node, Var):
        return ()
    if isinstance(node, Not):
        return (node.child,)
    return (node.left, node.right)


def _postorder(root: Node) -> Iterator[Node]:
    """The AST's nodes, children before parents and left before right; no
    recursion, since a DIMACS conjunction nests one level per clause."""
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
            continue
        kids = _children(node)
        if not kids:
            yield node
            continue
        stack.append((node, True))
        stack += ((kid, False) for kid in reversed(kids))


def collect_names(node: Node) -> set[str]:
    return {n.name for n in _postorder(node) if isinstance(n, Var)}


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
    """Compile to an SCM circuit; returns the model and the sentinel node id.

    Every declared variable becomes a uniform binary root; every connective a
    functional gate (NOT = 1 - input, AND = product, OR = saturating sum).
    A bare variable formula has the variable root itself as sentinel.
    """
    build = _Builder()
    ids = {name: build.add(name, ("0", "1"), (), _UNIFORM_TABLE) for name in formula.variables}
    # Gates get ids and names s1, s2, ... (primed if a variable has the name)
    # in post-order; each node's id goes on the stack, and a gate pops its
    # inputs' ids.
    built: list[int] = []
    gates = 0
    for node in _postorder(formula.root):
        if isinstance(node, Var):
            built.append(ids[node.name])
            continue
        if isinstance(node, Not):
            parents, table = (built.pop(),), NOT_TABLE
        else:
            right, left = built.pop(), built.pop()
            if left == right:
                # Repeated literal (e.g. a DIMACS clause "1 1 0"): both inputs
                # are the same node, and the gate reduces to the identity.
                parents, table = (left,), IDENTITY_TABLE
            else:
                parents, table = (left, right), AND_TABLE if isinstance(node, And) else OR_TABLE
        gates += 1
        built.append(build.add(f"s{gates}", ("0", "1"), parents, table))
    return build.model(), built.pop()


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
    """Satisfiability via Reverse-MAP on the compiled circuit.

    The variables are targets; e1 sets the sentinel to 1 and e2 is empty.
    The optimum is positive iff the formula is satisfiable, in which case the
    maximizing unit is a satisfying assignment (returned as {name: 0/1}). A
    bare-variable formula is its own sentinel, which e1 sets, so it is not a
    target and is 1 in the witness.
    """
    scm, sentinel = compile_formula(formula)
    ids = {name: scm.by_name(name).id for name in formula.variables}
    result = rmap_ve(scm, [vid for vid in ids.values() if vid != sentinel], {sentinel: 1}, {})
    if result.value == 0.0:
        return False, None
    states = {**result.instantiation, sentinel: 1}
    return True, {name: states[vid] for name, vid in ids.items()}
