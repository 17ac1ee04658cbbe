"""Discrete factor algebra: non-negative tables over integer-identified variables.

A factor's scope is a strictly ascending tuple of variable ids. Values live in
an ndarray with one axis per scope variable (in scope order), so the flat
C-order view has the *last* scope variable varying fastest. That layout is the
canonical serialization used everywhere in this package.

Because all scopes are kept sorted, two factors can be broadcast against each
other with plain reshapes (no transposes), which keeps multiply/divide exact
and cheap.

Every product of factors and every sum or max reduction runs through the
module helpers, which work on bare tables: ``union_scope`` gives the sorted
union of some factors' scopes, ``product`` reshapes each of their tables to
that cluster (size-1 axes for missing variables) and multiplies them left to
right, and ``sum_axis``/``max_axis`` reduce one axis of a table.
``multiply_all`` is the one product of whole factors; evidence enters a
product as 0/1 ``Factor.indicator`` factors, and ``restrict`` slices a
factor at the states that evidence forces (``unitsel.inference``). A factor
has no reduction of its own: the reductions run in the steps of
``unitsel.inference.eliminate``, each on its bucket's tables and over one
variable, so a step builds no factor but the one it creates, and a max step
records a :class:`MaximizerTable` for that one variable.

A reduction views the table as (before, states, after) and combines its
state slices: a max keeps a running maximum over the slices, and a sum adds
them in state order, so every numpy operation spans a whole slice. A
reduction along the eliminated axis would instead run one inner loop per kept
cell, and the eliminated variable is usually last or nearly last in a sorted
scope, which makes those loops 2 or 4 cells long. Adding in state order gives
the bits of ``ndarray.sum`` over one variable with fewer than 8 states; from
8 states on, numpy may sum pairwise, and the two can differ in the last place.

Tables are validated once, where they enter the package. CPT tables enter
through :class:`~unitsel.model.Scm`, which checks every entry once, so
``Scm.cpt_factor`` is built trusted; a 0/1 indicator checks its id,
cardinality and state by the rules below and is built trusted. ``Factor(...)``
is the entry point for factors built outside the package: it refuses a scope
id that is not an int >= 0 and a cardinality that is not an int >= 1 (a
bool is neither; nothing is coerced), checks the size and that every entry
is finite and non-negative, and copies the table. The results of factor
operations are computed from validated factors, so they are trusted: they
skip the checks and the copy and keep the dtype of the computation (integer
tables stay integer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

Instantiation = dict[int, int]
"""Assignment of state indices to variable ids."""


class FactorError(ValueError):
    """Raised on structural misuse of factors (scope or cardinality)."""


@dataclass(frozen=True)
class Variable:
    """A named discrete variable with a dense non-negative id."""

    id: int
    name: str
    cardinality: int
    state_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.id < 0:
            raise FactorError(f"variable id must be >= 0, got {self.id}")
        if not isinstance(self.name, str) or not set(map(type, self.state_names)) <= {str}:
            raise FactorError(f"variable {self.name!r}: name and state names must be strings")
        if self.cardinality < 1:
            raise FactorError(f"variable {self.name!r} needs cardinality >= 1")
        if len(self.state_names) != self.cardinality:
            raise FactorError(
                f"variable {self.name!r}: {len(self.state_names)} state names "
                f"for cardinality {self.cardinality}"
            )
        if len(set(self.state_names)) != self.cardinality:
            raise FactorError(f"variable {self.name!r}: duplicate state names")

    def _renamed(self, id: int, name: str) -> "Variable":
        """This variable under a new id and name. Its states were checked
        when it was built, so the copy skips ``__post_init__``; the new id
        must be >= 0."""
        copy = object.__new__(Variable)
        fields = copy.__dict__  # item by item: faster than update() with keywords
        fields["id"] = id
        fields["name"] = name
        fields["cardinality"] = self.cardinality
        fields["state_names"] = self.state_names
        return copy

    def state_index(self, state: str) -> int:
        try:
            return self.state_names.index(state)
        except ValueError:
            raise FactorError(
                f"variable {self.name!r} has no state {state!r}"
            ) from None


def _is_int(value) -> bool:
    """Whether ``value`` is an integer: a Python or numpy int, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_index(value, size: int) -> bool:
    """Whether ``value`` is an integer (a bool is not) in ``range(size)``:
    the one rule for a state index, and for a variable id of a model."""
    return _is_int(value) and 0 <= value < size


@dataclass(frozen=True)
class MaximizerTable:
    """The argmax bookkeeping of one max step of an elimination: for every
    cell of the created factor, over ``kept_vids``, the first state of the
    eliminated variable ``vid`` that reaches the maximum."""

    kept_vids: tuple[int, ...]
    vid: int
    argmax: np.ndarray  # one state of ``vid`` per cell of the kept scope

    def lookup(self, fixed: Mapping[int, int]) -> Instantiation:
        """Return the recorded maximizing state of ``vid`` for the kept-scope
        cell selected by ``fixed`` (must cover ``kept_vids``)."""
        try:
            idx = tuple(fixed[v] for v in self.kept_vids)
        except KeyError as missing:
            raise FactorError(f"maximizer lookup missing variable {missing}") from None
        return {self.vid: int(self.argmax[idx])}


class Factor:
    """Immutable non-negative table over a sorted scope of variable ids."""

    __slots__ = ("vids", "cards", "values")

    def __init__(self, vids: Iterable[int], cards: Iterable[int], values) -> None:
        vids, cards = tuple(vids), tuple(cards)
        if not all(_is_index(v, math.inf) for v in vids) or list(vids) != sorted(set(vids)):
            raise FactorError(f"scope must be strictly ascending int ids >= 0, got {vids}")
        if len(cards) != len(vids) or not all(_is_int(c) and c >= 1 for c in cards):
            raise FactorError("one cardinality >= 1 required per scope variable")
        vids, cards = tuple(map(int, vids)), tuple(map(int, cards))
        arr = np.asarray(values, dtype=np.float64)
        if arr.size != math.prod(cards):
            raise FactorError(
                f"table has {arr.size} entries, scope {vids} needs {math.prod(cards)}"
            )
        arr = arr.reshape(cards).copy()
        if not np.all(np.isfinite(arr)):
            raise FactorError("factor values must be finite")
        if np.any(arr < 0):
            raise FactorError("factor values must be non-negative")
        self._set(vids, cards, arr)

    @classmethod
    def _trusted(
        cls, vids: tuple[int, ...], cards: tuple[int, ...], values: np.ndarray
    ) -> "Factor":
        """A factor over a table the package checked (an ``Scm`` CPT) or built
        itself: no copy and no checks. ``values`` must be an ndarray of shape
        ``cards``; it keeps its dtype and becomes read-only."""
        factor = object.__new__(cls)
        factor._set(vids, cards, values)
        return factor

    def _set(self, vids: tuple[int, ...], cards: tuple[int, ...], values: np.ndarray) -> None:
        values.flags.writeable = False
        object.__setattr__(self, "vids", vids)
        object.__setattr__(self, "cards", cards)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Factor is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def scalar(cls, value: float) -> "Factor":
        return cls((), (), np.asarray(value, dtype=np.float64))

    @classmethod
    def indicator(cls, vid: int, card: int, state: int) -> "Factor":
        """The 0/1 evidence factor that is 1 exactly at ``state``; the id and
        the cardinality are held to the rules of ``Factor(...)``."""
        if not _is_index(vid, math.inf):
            raise FactorError(f"scope must be strictly ascending int ids >= 0, got {(vid,)}")
        if not (_is_int(card) and card >= 1):
            raise FactorError("one cardinality >= 1 required per scope variable")
        if not _is_index(state, card):
            raise FactorError(f"state {state!r} out of range for cardinality {card}")
        table = np.zeros(card)
        table[state] = 1.0
        return cls._trusted((vid,), (card,), table)

    # -- basic access ---------------------------------------------------------

    @property
    def flat(self) -> np.ndarray:
        """Canonical flat view: last scope variable varies fastest."""
        return self.values.reshape(-1)

    def __getitem__(self, inst: Mapping[int, int]) -> float:
        try:
            idx = tuple(inst[v] for v in self.vids)
        except KeyError as missing:
            raise FactorError(f"instantiation missing variable {missing}") from None
        for vid, state, card in zip(self.vids, idx, self.cards):
            if not _is_index(state, card):
                raise FactorError(f"state {state!r} out of range for variable {vid}")
        return float(self.values[idx])

    def total(self) -> float:
        return float(self.values.sum())

    def __repr__(self) -> str:
        return f"Factor(scope={self.vids}, cards={self.cards})"

    # -- operations -----------------------------------------------------------

    def _expand(self, union_vids: tuple[int, ...]) -> np.ndarray:
        # Both scopes are ascending, so a reshape (size-1 axes for missing
        # variables) aligns the tables without any transpose.
        vids = self.vids
        if vids == union_vids:
            return self.values
        return self.values.reshape(
            [self.cards[vids.index(vid)] if vid in vids else 1 for vid in union_vids]
        )

    def scale(self, c: float) -> "Factor":
        return Factor._trusted(self.vids, self.cards, np.asarray(self.values * c))


def multiply_all(factors: Iterable[Factor]) -> Factor:
    factors = list(factors)
    if not factors:
        return Factor.scalar(1.0)
    vids, cards = union_scope(factors)
    return Factor._trusted(vids, cards, product(factors, vids))


def restrict(factor: Factor, states: Mapping[int, int]) -> Factor:
    """The factor sliced at the ``states`` of the variables it mentions:
    their axes go, and a factor that mentions none comes back as it is. The
    states are trusted to be in range; the slice is a contiguous copy, a 0-d
    table when every variable is fixed."""
    if not any(vid in states for vid in factor.vids):
        return factor
    index = tuple([states.get(vid, slice(None)) for vid in factor.vids])
    kept = [(vid, card) for vid, card in zip(factor.vids, factor.cards) if vid not in states]
    vids = tuple([vid for vid, _ in kept])
    cards = tuple([card for _, card in kept])
    # np.array: an index of ints alone gives a numpy scalar, not a 0-d array.
    return Factor._trusted(vids, cards, np.array(factor.values[index]))


# -- kernels on bare tables ----------------------------------------------------


def union_scope(factors: Sequence[Factor]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The sorted union of the factors' scopes (their cluster) and its
    cardinalities; a variable with two cardinalities is refused."""
    if len(factors) == 1:
        return factors[0].vids, factors[0].cards
    cards: dict[int, int] = {}
    for f in factors:
        for vid, card in zip(f.vids, f.cards):
            if cards.setdefault(vid, card) != card:
                raise FactorError(f"variable {vid} has cardinality {cards[vid]} vs {card}")
    cluster = tuple(sorted(cards))
    return cluster, tuple([cards[vid] for vid in cluster])


def product(factors: Sequence[Factor], cluster: tuple[int, ...]) -> np.ndarray:
    """The product of the factors' tables over ``cluster``, their
    ``union_scope``: each table is reshaped to the cluster and multiplied
    into the product of the ones before it, left to right."""
    table = factors[0]._expand(cluster)
    for f in factors[1:]:
        table = table * f._expand(cluster)
    # asarray: numpy returns a 0-d product as a scalar.
    return np.asarray(table)


def _slices(table: np.ndarray, axis: int) -> np.ndarray:
    """``table`` as (before, states, after): a view when the table is
    C-contiguous, so each state slice ``[:, s]`` is a strided view."""
    shape = table.shape
    return table.reshape(math.prod(shape[:axis]), shape[axis], -1)


def sum_axis(table: np.ndarray, axis: int) -> np.ndarray:
    """Sum ``axis`` out of ``table``, adding its state slices in state order."""
    rows = _slices(table, axis)
    total = rows[:, 0]
    for state in range(1, rows.shape[1]):
        total = total + rows[:, state]
    return total.reshape(table.shape[:axis] + table.shape[axis + 1:])


def max_axis(table: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Maximize ``axis`` out of ``table``; returns the maximum and, per kept
    cell, the first state that reaches it."""
    rows = _slices(table, axis)
    best = rows[:, 0]
    arg = np.zeros(best.shape, dtype=np.int64)
    # A slice replaces the recorded maximizer only where it is strictly
    # larger, so each cell keeps its first maximizing state.
    for state in range(1, rows.shape[1]):
        row = rows[:, state]
        np.copyto(arg, state, where=row > best)
        best = np.maximum(best, row)
    kept = table.shape[:axis] + table.shape[axis + 1:]
    return best.reshape(kept), arg.reshape(kept)
