"""Relational schema: an ordered list of attributes (paper §II-A).

The schema fixes the shape of the frequency matrix: dimension ``i`` is
indexed by the coded domain of attribute ``i`` and the matrix has
``m = prod |A_i|`` cells.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from repro.data.attributes import Attribute
from repro.errors import SchemaError

__all__ = ["Schema"]


class Schema:
    """An immutable sequence of uniquely named attributes."""

    def __init__(self, attributes: Iterable[Attribute]):
        attrs = list(attributes)
        if not attrs:
            raise SchemaError("a schema needs at least one attribute")
        for attr in attrs:
            if not isinstance(attr, Attribute):
                raise SchemaError(f"not an Attribute: {attr!r}")
        names = [attr.name for attr in attrs]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate attribute names: {duplicates}")
        self._attributes = tuple(attrs)
        self._index = {attr.name: i for i, attr in enumerate(attrs)}
        # Read three times per engine call; the schema never changes.
        self._shape = tuple(attr.size for attr in attrs)

    # ------------------------------------------------------------------
    @property
    def attributes(self) -> tuple[Attribute, ...]:
        return self._attributes

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(attr.name for attr in self._attributes)

    @property
    def shape(self) -> tuple[int, ...]:
        """Frequency-matrix shape: per-attribute domain sizes."""
        return self._shape

    @property
    def num_cells(self) -> int:
        """``m``: total number of frequency-matrix entries."""
        return math.prod(self.shape)

    @property
    def dimensions(self) -> int:
        """``d``: number of attributes."""
        return len(self._attributes)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __getitem__(self, key) -> Attribute:
        if isinstance(key, str):
            return self._attributes[self.index_of(key)]
        return self._attributes[key]

    def __contains__(self, name) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, Schema) and self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{a.name}[{a.size}{'o' if a.is_ordinal else 'n'}]" for a in self._attributes
        )
        return f"Schema({parts})"

    def index_of(self, name: str) -> int:
        """Dimension index of the attribute called ``name``."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"no attribute named {name!r}; have {list(self.names)}") from None

    def axes_of(self, names: Iterable[str]) -> tuple[int, ...]:
        """Dimension indexes for several attribute names (order preserved)."""
        return tuple(self.index_of(name) for name in names)

    def validate_coordinates(self, coordinates) -> None:
        """Check one coded tuple against the domain bounds."""
        if len(coordinates) != self.dimensions:
            raise SchemaError(
                f"expected {self.dimensions} coordinates, got {len(coordinates)}"
            )
        for value, attr in zip(coordinates, self._attributes):
            if not 0 <= int(value) < attr.size:
                raise SchemaError(
                    f"value {value} out of range [0, {attr.size}) for {attr.name!r}"
                )
