"""Relational tables of coded tuples, and the table -> frequency-matrix map.

A :class:`Table` stores ``n`` rows as an ``(n, d)`` integer array of coded
attribute values.  ``Table.frequency_matrix()`` is the first step of every
mechanism in the paper: build the d-dimensional contingency table ``M``
(the lowest level of the data cube, §II-B) in ``O(n + m)`` time.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.data.frequency import FrequencyMatrix
from repro.data.schema import Schema
from repro.errors import SchemaError

__all__ = ["Table"]


class Table:
    """``n`` coded tuples over a :class:`~repro.data.schema.Schema`.

    Parameters
    ----------
    schema:
        The table's schema.
    rows:
        Anything convertible to an ``(n, d)`` integer array.  Values must
        lie in ``[0, |A_i|)`` per attribute.  An empty table (n = 0) is
        legal; its frequency matrix is all zeros.
    """

    def __init__(self, schema: Schema, rows):
        if not isinstance(schema, Schema):
            raise SchemaError("schema must be a Schema instance")
        self._schema = schema
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            rows = rows.reshape(0, schema.dimensions)
        if rows.ndim != 2 or rows.shape[1] != schema.dimensions:
            raise SchemaError(
                f"rows must have shape (n, {schema.dimensions}), got {rows.shape}"
            )
        # One min and one max per column: no (n, d) temporary.
        if rows.size and any(
            rows[:, axis].min() < 0 or rows[:, axis].max() >= size
            for axis, size in enumerate(schema.shape)
        ):
            raise SchemaError("a row value is outside its attribute domain")
        self._rows = rows
        self._rows.setflags(write=False)

    # ------------------------------------------------------------------
    @classmethod
    def from_columns(cls, schema: Schema, columns: Iterable[np.ndarray]) -> "Table":
        """Build a table from per-attribute columns of equal length."""
        cols = [np.asarray(c, dtype=np.int64) for c in columns]
        if len(cols) != schema.dimensions:
            raise SchemaError(
                f"expected {schema.dimensions} columns, got {len(cols)}"
            )
        lengths = {len(c) for c in cols}
        if len(lengths) > 1:
            raise SchemaError(f"columns have differing lengths: {sorted(lengths)}")
        rows = np.stack(cols, axis=1) if cols[0].size else np.empty((0, len(cols)), np.int64)
        return cls(schema, rows)

    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def rows(self) -> np.ndarray:
        """Read-only ``(n, d)`` view of the coded tuples."""
        return self._rows

    @property
    def num_rows(self) -> int:
        return int(self._rows.shape[0])

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        return f"Table(n={self.num_rows}, schema={self._schema!r})"

    # ------------------------------------------------------------------
    def frequency_matrix(self) -> FrequencyMatrix:
        """The d-dimensional contingency table ``M`` of this table.

        Runs in ``O(n + m)``: rows are collapsed to flat cell indexes with
        :func:`numpy.ravel_multi_index` and counted with ``bincount``.
        """
        shape = self._schema.shape
        if self.num_rows == 0:
            counts = np.zeros(shape, dtype=np.float64)
            return FrequencyMatrix(self._schema, counts)
        flat = np.ravel_multi_index(tuple(self._rows[:, i] for i in range(len(shape))), shape)
        counts = np.bincount(flat, minlength=int(np.prod(shape))).astype(np.float64)
        return FrequencyMatrix(self._schema, counts.reshape(shape))

    def replace_row(self, index: int, new_row) -> "Table":
        """Return a copy with row ``index`` replaced (a *neighbouring* table).

        Differential privacy (Definition 1) quantifies over pairs of
        tables differing in one tuple; tests use this to build such pairs.
        """
        if not 0 <= index < self.num_rows:
            raise SchemaError(f"row index {index} out of range [0, {self.num_rows})")
        new_row = np.asarray(new_row, dtype=np.int64)
        self._schema.validate_coordinates(new_row)
        rows = self._rows.copy()
        rows[index] = new_row
        return Table(self._schema, rows)
