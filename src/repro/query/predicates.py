"""A structured predicate IR that compiles to vectorized kernels and prunes.

Queries used to take an opaque ``(column, callable)`` pair, which could
only ever be evaluated by decoding every block in full.  The small IR here
keeps the vectorized NumPy evaluation path but adds structure the scan
planner can exploit: every node can be *tested against block statistics*
(:class:`~repro.storage.statistics.BlockStatistics`) to decide, before any
decoding, whether a block can contain qualifying rows at all — and
whether every row of a block qualifies.  Both tests hold for exact zone
maps and for the conservative ones derived for diff-encoded columns, whose
bounds contain every value of the block.

Nodes::

    Eq(column, value)            column == value
    Between(column, low, high)   low <= column <= high  (None = unbounded)
    In(column, values)           column IN values
    And(children...)             conjunction
    Or(children...)              disjunction
    Not(child)                   negation

``&``, ``|`` and ``~`` build conjunctions/disjunctions/negations.

Every node has a JSON form, the wire grammar of the query service::

    {"op": "eq", "column": c, "value": v}
    {"op": "between", "column": c, "lo": low, "hi": high}   (null = open side)
    {"op": "in", "column": c, "values": [v, ...]}
    {"op": "and" | "or", "children": [node, node, ...]}      (two or more)
    {"op": "not", "child": node}

:meth:`Predicate.to_json` writes it in canonical form (``And``/``Or``
children sorted by their canonical text, ``In`` values sorted, NumPy
scalars as plain JSON numbers) and :meth:`Predicate.from_json` parses it
strictly (a tree nested deeper than :data:`MAX_PREDICATE_DEPTH` levels is
malformed, like an unknown op).  A node's fingerprint is that canonical
JSON text, so equal predicates share planner memo entries and result-cache
keys.

``And``, ``Or`` and ``Not`` combine their children's masks themselves
(:meth:`Predicate.combine`), so the scan walks a tree without knowing
which combinator it holds.

A leaf also states *what* it compares, once, for the compressed-domain
kernels (:mod:`~repro.query.kernels`): :meth:`Predicate.comparison` is the
range or candidate set an encoded column answers through its
``compare_range``/``compare_values``, and :attr:`Predicate.elementwise`
says whether a whole subtree may be evaluated once per distinct value.  No
other module needs to know which predicate kind it is looking at.
"""

from __future__ import annotations

import abc
import json
from functools import reduce
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..encodings.base import int64_candidates
from ..errors import ValidationError, expect
from ..storage.statistics import BlockStatistics

__all__ = [
    "Predicate",
    "Eq",
    "Between",
    "In",
    "And",
    "Or",
    "Not",
]

#: The deepest wire tree :meth:`Predicate.from_json` accepts.  Parsing,
#: fingerprints, zone-map tests and evaluation all walk a tree recursively,
#: so the bound keeps a hostile body far from Python's recursion limit; a
#: real predicate nests a handful of levels.
MAX_PREDICATE_DEPTH = 64

#: Decoded column values handed to ``evaluate``: int64 arrays or string lists.
ColumnValues = Mapping[str, "np.ndarray | list[str]"]


_CANONICAL = json.JSONEncoder(separators=(",", ":"))


def canonical_json(node: object) -> str:
    """The one text form of a JSON value: fingerprints are this string."""
    return _CANONICAL.encode(node)


def _json_scalar(value: Any) -> Any:
    """A predicate constant as a plain JSON scalar (NumPy scalars unwrap)."""
    if isinstance(value, np.generic):
        value = value.item()
    if value is not None and not isinstance(value, (int, float, str)):
        raise ValidationError(f"predicate constant {value!r} has no JSON form")
    return value


def _as_array(values) -> np.ndarray:
    """Decoded values as a NumPy array (string lists become unicode arrays)."""
    if isinstance(values, np.ndarray):
        return values
    return np.asarray(values)


class Predicate(abc.ABC):
    """Base class of the predicate IR.

    A predicate knows which columns it reads, evaluates to a boolean mask
    over decoded values, and can be tested against a block's zone map.
    """

    @abc.abstractmethod
    def columns(self) -> tuple[str, ...]:
        """Names of the columns the predicate reads (deduplicated, ordered)."""

    @abc.abstractmethod
    def evaluate(self, values: ColumnValues) -> np.ndarray:
        """Boolean mask over the decoded ``values`` of one block."""

    def might_match(self, statistics: BlockStatistics | None) -> bool:
        """Whether a block with these statistics can contain qualifying rows.

        ``False`` allows the planner to skip the block without decoding it;
        ``True`` (the conservative default, also used when statistics are
        missing) forces a scan.
        """
        return True

    def matches_all(self, statistics: BlockStatistics | None) -> bool:
        """Whether provably *every* row of such a block qualifies.

        Exact and derived (conservative) zone maps can both affirm this: a
        range that contains every value of the block and lies inside the
        predicate's puts every row inside it.  It lets ``count`` and
        ``filter`` answer for fully-covered blocks from metadata alone.
        """
        return False

    #: The sub-predicates a combinator joins; ``()`` for a leaf.
    children: tuple["Predicate", ...] = ()

    def combine(
        self, mask_of: Callable[["Predicate"], np.ndarray]
    ) -> np.ndarray | None:
        """This combinator's row mask from ``mask_of(child)`` per child.

        ``None`` for a leaf, which the caller evaluates itself.
        """
        return None

    def to_json(self) -> dict:
        """The node in the wire grammar, in canonical form.

        A leaf outside the grammar writes its type and :meth:`describe`
        text, which then must pin its behaviour down; it has a fingerprint
        but does not parse back.
        """
        return {"op": type(self).__qualname__, "describe": self.describe()}

    @staticmethod
    def from_json(node: object) -> "Predicate":
        """Parse one wire-grammar tree; malformed input is a ValidationError."""
        _check_depth(node)
        return _parse_node(node)

    def fingerprint(self) -> str:
        """The canonical JSON text: a cross-process planner and cache key.

        Two predicates with equal fingerprints make identical zone-map
        decisions on every block and select the same rows.  It does not
        depend on the process or on the order in which commutative
        children or ``In`` candidates were supplied.
        """
        return canonical_json(self.to_json())

    def comparison(self) -> "tuple[tuple | None, tuple | None] | None":
        """What a leaf compares its column against: ``(bounds, candidates)``.

        ``((low, high), None)`` for an inclusive range (``None`` = open
        side) or ``(None, candidates)`` for a value set — the arguments of
        the ``compare_range(low, high)``/``compare_values(values)`` contract
        an encoded column answers in its own domain.  ``None`` for compound
        nodes, which compare nothing by themselves.
        """
        return None

    @property
    def elementwise(self) -> bool:
        """Whether every row's verdict depends on that row's values alone.

        ``Eq``/``Between``/``In`` decide each row from its value, and
        ``And``/``Or``/``Not`` preserve that, so such a subtree over one
        column can run once per *distinct* value (per dictionary entry)
        and fan out.  A node that does not say so may
        inspect positions or neighbours.
        """
        return False

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable rendering, e.g. ``"8100 <= ship <= 8200"``."""

    # -- combinators ----------------------------------------------------------

    def __and__(self, other: "Predicate") -> "And":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return Not(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"


class _Leaf(Predicate):
    """A predicate over a single column."""

    def __init__(self, column: str):
        if not column:
            raise ValidationError("predicate column name must be non-empty")
        self.column = column

    def columns(self) -> tuple[str, ...]:
        return (self.column,)

    @property
    def elementwise(self) -> bool:
        # A leaf that states a constant comparison reads one value per row.
        return self.comparison() is not None

    def _stats(self, statistics: BlockStatistics | None):
        if statistics is None:
            return None
        return statistics.column(self.column)

    @staticmethod
    def _column_of(node: dict) -> str:
        column = node.get("column")
        expect(
            isinstance(column, str) and column != "",
            f"{node['op']!r} predicate needs a 'column' string",
        )
        return column

    @staticmethod
    def _constant(node: dict, key: str, nullable: bool = False) -> "int | str | None":
        expect(key in node, f"{node['op']!r} predicate needs {key!r}")
        value = node[key]
        expect(
            (nullable and value is None)
            or (isinstance(value, (int, str)) and not isinstance(value, bool)),
            f"{node['op']!r} predicate {key!r} must be an integer or string"
            + (" (or null)" if nullable else ""),
        )
        return value


class Eq(_Leaf):
    """``column == value``."""

    def __init__(self, column: str, value):
        super().__init__(column)
        self.value = value

    def evaluate(self, values: ColumnValues) -> np.ndarray:
        arr = _as_array(values[self.column])
        value = self.value
        if arr.dtype.kind == "i":
            exact = int64_candidates((value,))
            if not exact:
                return np.zeros(arr.shape, dtype=bool)
            value = exact[0]
        mask = np.asarray(arr == value, dtype=bool)
        if mask.ndim == 0:
            # NumPy collapses incomparable-type comparisons to a scalar.
            mask = np.full(arr.shape[0], bool(mask))
        return mask

    def might_match(self, statistics: BlockStatistics | None) -> bool:
        stats = self._stats(statistics)
        return True if stats is None else stats.may_contain(self.value)

    def matches_all(self, statistics: BlockStatistics | None) -> bool:
        stats = self._stats(statistics)
        return stats is not None and stats.is_constant(self.value)

    def comparison(self) -> tuple[None, tuple]:
        return None, (self.value,)

    def to_json(self) -> dict:
        return {"op": "eq", "column": self.column, "value": _json_scalar(self.value)}

    @classmethod
    def parse(cls, node: dict) -> "Eq":
        return cls(cls._column_of(node), cls._constant(node, "value"))

    def describe(self) -> str:
        return f"{self.column} == {self.value!r}"


class Between(_Leaf):
    """``low <= column <= high`` (inclusive; ``None`` leaves a side open)."""

    def __init__(self, column: str, low=None, high=None):
        super().__init__(column)
        if low is None and high is None:
            raise ValidationError("Between needs at least one bound")
        self.low = low
        self.high = high

    def evaluate(self, values: ColumnValues) -> np.ndarray:
        arr = _as_array(values[self.column])
        # A bound whose type mismatches the column matches nothing (same
        # degrade-to-empty semantics as Eq) instead of raising in NumPy.
        is_string_column = arr.dtype.kind in ("U", "S")
        mask = np.ones(arr.shape, dtype=bool)
        if self.low is not None:
            if isinstance(self.low, str) != is_string_column:
                return np.zeros(arr.shape, dtype=bool)
            mask &= arr >= self.low
        if self.high is not None:
            if isinstance(self.high, str) != is_string_column:
                return np.zeros(arr.shape, dtype=bool)
            mask &= arr <= self.high
        return mask

    def might_match(self, statistics: BlockStatistics | None) -> bool:
        stats = self._stats(statistics)
        return True if stats is None else stats.overlaps(self.low, self.high)

    def matches_all(self, statistics: BlockStatistics | None) -> bool:
        stats = self._stats(statistics)
        return stats is not None and stats.contained_in(self.low, self.high)

    def comparison(self) -> tuple[tuple, None]:
        return (self.low, self.high), None

    def to_json(self) -> dict:
        return {
            "op": "between",
            "column": self.column,
            "lo": _json_scalar(self.low),
            "hi": _json_scalar(self.high),
        }

    @classmethod
    def parse(cls, node: dict) -> "Between":
        # Both keys are required; ``null`` opens that side.
        return cls(
            cls._column_of(node),
            cls._constant(node, "lo", nullable=True),
            cls._constant(node, "hi", nullable=True),
        )

    def describe(self) -> str:
        if self.low is None:
            return f"{self.column} <= {self.high!r}"
        if self.high is None:
            return f"{self.column} >= {self.low!r}"
        return f"{self.low!r} <= {self.column} <= {self.high!r}"


class In(_Leaf):
    """``column IN values`` — vectorized via :func:`np.isin`."""

    def __init__(self, column: str, values: Sequence):
        super().__init__(column)
        distinct_set = set(values)
        if not distinct_set:
            raise ValidationError("In needs at least one candidate value")
        if len({isinstance(v, str) for v in distinct_set}) > 1:
            # NumPy would silently coerce mixed candidates to strings.
            raise ValidationError("In candidates must be all strings or all integers")
        distinct = sorted(distinct_set)
        self.values = tuple(distinct)
        self._candidates = np.asarray(distinct)
        # What an integer column compares against: np.asarray would round a
        # float/int mix through float64 and merge neighbours above 2**53.
        self._int_candidates = np.asarray(int64_candidates(distinct), dtype=np.int64)

    def evaluate(self, values: ColumnValues) -> np.ndarray:
        arr = _as_array(values[self.column])
        return np.isin(arr, self._int_candidates if arr.dtype.kind == "i" else self._candidates)

    def might_match(self, statistics: BlockStatistics | None) -> bool:
        stats = self._stats(statistics)
        if stats is None:
            return True
        return any(stats.may_contain(v) for v in self.values)

    def matches_all(self, statistics: BlockStatistics | None) -> bool:
        stats = self._stats(statistics)
        return stats is not None and any(stats.is_constant(v) for v in self.values)

    def comparison(self) -> tuple[None, tuple]:
        return None, self.values

    def to_json(self) -> dict:
        return {
            "op": "in",
            "column": self.column,
            "values": [_json_scalar(value) for value in self.values],
        }

    @classmethod
    def parse(cls, node: dict) -> "In":
        values = node.get("values")
        expect(
            isinstance(values, list) and len(values) > 0,
            "'in' predicate needs a non-empty 'values' list",
        )
        assert isinstance(values, list)
        for value in values:
            expect(
                isinstance(value, (int, str)) and not isinstance(value, bool),
                "'in' predicate values must be integers or strings",
            )
        return cls(cls._column_of(node), values)

    def describe(self) -> str:
        return f"{self.column} IN {list(self.values)!r}"


class _Compound(Predicate):
    """Conjunction/disjunction over child predicates."""

    #: The wire op, and the ufunc that joins two children's masks.
    op = ""
    join: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __init__(self, *children: Predicate):
        if len(children) < 1:
            raise ValidationError(f"{type(self).__name__} needs at least one child predicate")
        flattened: list[Predicate] = []
        for child in children:
            if isinstance(child, type(self)):
                flattened.extend(child.children)
            else:
                flattened.append(child)
        self.children = tuple(flattened)

    def columns(self) -> tuple[str, ...]:
        seen: list[str] = []
        for child in self.children:
            for name in child.columns():
                if name not in seen:
                    seen.append(name)
        return tuple(seen)

    @property
    def elementwise(self) -> bool:
        return all(child.elementwise for child in self.children)

    def combine(self, mask_of: Callable[[Predicate], np.ndarray]) -> np.ndarray:
        return reduce(type(self).join, map(mask_of, self.children))

    def evaluate(self, values: ColumnValues) -> np.ndarray:
        return self.combine(lambda child: child.evaluate(values))

    def to_json(self) -> dict:
        if len(self.children) == 1:
            return self.children[0].to_json()
        # And/Or are commutative and their zone-map tests are all()/any()
        # over the children, so child order never changes a decision —
        # sorting makes And(a, b) and And(b, a) share one cache entry.
        nodes = sorted((child.to_json() for child in self.children), key=canonical_json)
        return {"op": self.op, "children": nodes}

    @classmethod
    def parse(cls, node: dict) -> Predicate:
        children = node.get("children")
        expect(
            isinstance(children, list) and len(children) >= 2,
            f"{cls.op!r} predicate needs a 'children' list with at least two nodes",
        )
        assert isinstance(children, list)
        return cls(*[_parse_node(child) for child in children])


class And(_Compound):
    """Every child predicate must hold."""

    op = "and"
    join = np.logical_and

    def might_match(self, statistics: BlockStatistics | None) -> bool:
        return all(child.might_match(statistics) for child in self.children)

    def matches_all(self, statistics: BlockStatistics | None) -> bool:
        return all(child.matches_all(statistics) for child in self.children)

    def describe(self) -> str:
        return " AND ".join(f"({c.describe()})" for c in self.children)


class Or(_Compound):
    """At least one child predicate must hold."""

    op = "or"
    join = np.logical_or

    def might_match(self, statistics: BlockStatistics | None) -> bool:
        return any(child.might_match(statistics) for child in self.children)

    def matches_all(self, statistics: BlockStatistics | None) -> bool:
        return any(child.matches_all(statistics) for child in self.children)

    def describe(self) -> str:
        return " OR ".join(f"({c.describe()})" for c in self.children)


class Not(Predicate):
    """Negation of a child predicate, with conservative zone-map semantics.

    A zone map can only reason about the negation through proofs about the
    child: the block is prunable *only* when the child provably matches
    every row (then no row survives the negation), and fully covered *only*
    when the child provably matches no row.  Both directions are sound with
    derived (conservative) bounds: an over-covering range that still
    excludes the child's values proves the child empty, and one inside the
    child's range proves it full.
    """

    def __init__(self, child: Predicate):
        self.child = child
        self.children = (child,)

    def columns(self) -> tuple[str, ...]:
        return self.child.columns()

    @property
    def elementwise(self) -> bool:
        return self.child.elementwise

    def combine(self, mask_of: Callable[[Predicate], np.ndarray]) -> np.ndarray:
        return ~np.asarray(mask_of(self.child), dtype=bool)

    def evaluate(self, values: ColumnValues) -> np.ndarray:
        return self.combine(lambda child: child.evaluate(values))

    def to_json(self) -> dict:
        return {"op": "not", "child": self.child.to_json()}

    @classmethod
    def parse(cls, node: dict) -> "Not":
        expect("child" in node, "'not' predicate needs a 'child' node")
        return cls(_parse_node(node["child"]))

    def might_match(self, statistics: BlockStatistics | None) -> bool:
        # Stays True unless the negated child is provably full: anything
        # weaker (e.g. pruning whenever the child *might* match) would drop
        # qualifying rows.
        return not self.child.matches_all(statistics)

    def matches_all(self, statistics: BlockStatistics | None) -> bool:
        # might_match() == False is a proof that no row satisfies the child,
        # so every row satisfies the negation.
        return statistics is not None and not self.child.might_match(statistics)

    def __invert__(self) -> Predicate:
        # ~~p is p: skip the double negation instead of stacking nodes.
        return self.child

    def describe(self) -> str:
        return f"NOT ({self.child.describe()})"


def _check_depth(node: object) -> None:
    """Reject a wire tree deeper than :data:`MAX_PREDICATE_DEPTH`, level by
    level rather than recursively."""
    level = [node]
    for _ in range(MAX_PREDICATE_DEPTH):
        below = []
        for parent in level:
            if isinstance(parent, dict):
                children = parent.get("children")
                if isinstance(children, list):
                    below.extend(children)
                if "child" in parent:
                    below.append(parent["child"])
        if not below:
            return
        level = below
    raise ValidationError(f"predicate nests deeper than {MAX_PREDICATE_DEPTH} levels")


def _parse_node(node: object) -> Predicate:
    expect(isinstance(node, dict), "predicate nodes must be JSON objects")
    assert isinstance(node, dict)
    op = node.get("op")
    expect(isinstance(op, str), "predicate nodes need an 'op' string")
    kind = _OPS.get(op)
    expect(kind is not None, f"unknown predicate op {op!r}")
    return kind.parse(node)


#: Wire op -> the node kind that parses it.
_OPS: dict[str, Any] = {
    "eq": Eq,
    "between": Between,
    "in": In,
    "and": And,
    "or": Or,
    "not": Not,
}
