"""A structured predicate IR that compiles to vectorized kernels and prunes.

The executor used to take an opaque ``(column, callable)`` pair, which could
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

``&``, ``|`` and ``~`` build conjunctions/disjunctions/negations.  Every
node has a canonical fingerprint, so every plan can be memoized and cached.

A leaf also states *what* it compares, once, for the compressed-domain
kernels (:mod:`~repro.query.kernels`): :meth:`Predicate.comparison` is the
range or candidate set an encoded column answers through its
``compare_range``/``compare_values``, and :attr:`Predicate.elementwise`
says whether a whole subtree may be evaluated once per distinct value.  No
other module needs to know which predicate kind it is looking at.
"""

from __future__ import annotations

import abc
from typing import Mapping, Sequence

import numpy as np

from ..encodings.base import int64_candidates
from ..errors import ValidationError
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

#: Decoded column values handed to ``evaluate``: int64 arrays or string lists.
ColumnValues = Mapping[str, "np.ndarray | list[str]"]


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

    def fingerprint(self) -> str:
        """A stable cache key for planner memoization.

        Two predicates with equal fingerprints must make identical zone-map
        decisions on every block.  The fingerprint is *canonical*: it does
        not depend on the process, on dict/set iteration order, or on the
        order in which commutative children were supplied (``In`` sorts its
        candidates at construction; ``And``/``Or`` sort their children's
        fingerprints), so it is safe to use as a cross-process cache key —
        the query service keys its result cache on it.  A subclass whose
        ``describe()`` does not pin down its behaviour must override it.
        """
        return f"{type(self).__name__}:{self.describe()}"

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
        column can run once per *distinct* value (per RLE run, per
        dictionary entry) and fan out.  A node that does not say so may
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

    def describe(self) -> str:
        return f"{self.column} IN {list(self.values)!r}"


class _Compound(Predicate):
    """Conjunction/disjunction over child predicates."""

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

    def fingerprint(self) -> str:
        parts = [child.fingerprint() for child in self.children]
        # And/Or are commutative and their zone-map tests are all()/any()
        # over the children, so child order never changes a decision —
        # sorting makes And(a, b) and And(b, a) share one cache entry.
        return f"{type(self).__name__}:[{'; '.join(sorted(parts))}]"


class And(_Compound):
    """Every child predicate must hold."""

    def evaluate(self, values: ColumnValues) -> np.ndarray:
        mask = self.children[0].evaluate(values)
        for child in self.children[1:]:
            mask = mask & child.evaluate(values)
        return mask

    def might_match(self, statistics: BlockStatistics | None) -> bool:
        return all(child.might_match(statistics) for child in self.children)

    def matches_all(self, statistics: BlockStatistics | None) -> bool:
        return all(child.matches_all(statistics) for child in self.children)

    def describe(self) -> str:
        return " AND ".join(f"({c.describe()})" for c in self.children)


class Or(_Compound):
    """At least one child predicate must hold."""

    def evaluate(self, values: ColumnValues) -> np.ndarray:
        mask = self.children[0].evaluate(values)
        for child in self.children[1:]:
            mask = mask | child.evaluate(values)
        return mask

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

    def columns(self) -> tuple[str, ...]:
        return self.child.columns()

    @property
    def elementwise(self) -> bool:
        return self.child.elementwise

    def evaluate(self, values: ColumnValues) -> np.ndarray:
        return ~np.asarray(self.child.evaluate(values), dtype=bool)

    def might_match(self, statistics: BlockStatistics | None) -> bool:
        # Stays True unless the negated child is provably full: anything
        # weaker (e.g. pruning whenever the child *might* match) would drop
        # qualifying rows.
        return not self.child.matches_all(statistics)

    def matches_all(self, statistics: BlockStatistics | None) -> bool:
        # might_match() == False is a proof that no row satisfies the child,
        # so every row satisfies the negation.
        return statistics is not None and not self.child.might_match(statistics)

    def fingerprint(self) -> str:
        return f"Not:[{self.child.fingerprint()}]"

    def __invert__(self) -> Predicate:
        # ~~p is p: skip the double negation instead of stacking nodes.
        return self.child

    def describe(self) -> str:
        return f"NOT ({self.child.describe()})"
