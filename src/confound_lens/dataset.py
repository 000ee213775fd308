"""Immutable named-column numeric table used by every fitting routine."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """A rectangular block of finite floats with unique column labels.

    The backing array is copied on construction and marked read-only, so a
    Dataset can be shared freely across threads and fits.
    """

    names: tuple[str, ...]
    values: np.ndarray  # shape (n, k), float64

    def __post_init__(self):
        names = tuple(str(n) for n in self.names)
        values = np.array(self.values, dtype=np.float64, copy=True)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        n, k = values.shape
        if n < 1:
            raise ValueError("a Dataset needs at least one row")
        if k != len(names):
            raise ValueError(f"{len(names)} names for {k} columns")
        if len(set(names)) != len(names):
            raise ValueError(f"column labels must be unique, got {names}")
        if not np.all(np.isfinite(values)):
            raise ValueError("Dataset values must all be finite")
        values.setflags(write=False)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_columns(cls, columns: dict[str, object]) -> "Dataset":
        names = tuple(columns)
        return cls(names, np.column_stack([np.asarray(columns[n], dtype=np.float64)
                                           for n in names]))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.names.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r}; available: {', '.join(self.names)}") from None
        return self.values[:, j]

    def matrix(self, names: list[str] | tuple[str, ...]) -> np.ndarray:
        """Column-stack of the requested columns, in the requested order."""
        return np.column_stack([self.column(n) for n in names]) if names else \
            np.empty((self.n, 0))
