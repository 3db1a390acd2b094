"""Selection vector generation.

The paper measures query latency by generating "10 uniform random selection
vectors for each individual selectivity (as done, e.g., in Lang et al.)" and
decompressing/materialising the values at the selected positions.  This
module reproduces that: a selection vector is a sorted array of distinct row
ids drawn uniformly at random, sized ``round(selectivity * n_rows)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError

__all__ = [
    "SelectionVector",
    "generate_selection_vector",
    "generate_selection_vectors",
]


@dataclass(frozen=True)
class SelectionVector:
    """A sorted vector of selected row ids plus its nominal selectivity."""

    row_ids: np.ndarray
    selectivity: float
    n_rows: int

    @property
    def n_selected(self) -> int:
        return int(self.row_ids.size)

    @property
    def actual_selectivity(self) -> float:
        return self.n_selected / self.n_rows if self.n_rows else 0.0

    def __len__(self) -> int:
        return self.n_selected


def generate_selection_vector(
    n_rows: int, selectivity: float, rng: np.random.Generator | None = None
) -> SelectionVector:
    """Draw one uniform random selection vector.

    Row ids are distinct, drawn without replacement, and returned sorted (the
    order a scan would produce them in).
    """
    if n_rows < 0:
        raise ValidationError("n_rows must be non-negative")
    if not 0.0 <= selectivity <= 1.0:
        raise ValidationError(f"selectivity must be within [0, 1], got {selectivity}")
    rng = rng if rng is not None else np.random.default_rng()
    n_selected = int(round(selectivity * n_rows))
    n_selected = min(max(n_selected, 0), n_rows)
    if n_selected == n_rows:
        row_ids = np.arange(n_rows, dtype=np.int64)
    else:
        row_ids = np.sort(rng.choice(n_rows, size=n_selected, replace=False).astype(np.int64))
    return SelectionVector(row_ids=row_ids, selectivity=selectivity, n_rows=n_rows)


def generate_selection_vectors(
    n_rows: int, selectivity: float, count: int = 10, seed: int | None = 42
) -> list[SelectionVector]:
    """Draw ``count`` independent selection vectors (10 in the paper)."""
    if count < 1:
        raise ValidationError("count must be at least 1")
    rng = np.random.default_rng(seed)
    return [generate_selection_vector(n_rows, selectivity, rng) for _ in range(count)]
