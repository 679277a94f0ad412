"""Shared fixtures for the test suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.data.attributes import NominalAttribute, OrdinalAttribute
from repro.data.hierarchy import Hierarchy, Node, balanced_hierarchy, two_level_hierarchy
from repro.data.schema import Schema
from repro.data.table import Table


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def figure3_hierarchy() -> Hierarchy:
    """The paper's Figure 3 hierarchy: root over two 3-leaf groups."""
    root = Node("Any")
    left = root.add("L")
    right = root.add("R")
    for label in ("v1", "v2", "v3"):
        left.add(label)
    for label in ("v4", "v5", "v6"):
        right.add(label)
    return Hierarchy(root)


@pytest.fixture
def figure3_vector() -> np.ndarray:
    """The Figure 3 frequency vector [9, 3, 6, 2, 8, 2]."""
    return np.array([9.0, 3.0, 6.0, 2.0, 8.0, 2.0])


@pytest.fixture
def unbalanced_hierarchy() -> Hierarchy:
    """A hierarchy with leaves at different depths and mixed fanouts."""
    root = Node("Any")
    a = root.add("A")
    b = root.add("B")
    c = root.add("C")
    a.add("a1")
    a.add("a2")
    b1 = b.add("b1")
    b.add("b2")
    b1.add("b1x")
    b1.add("b1y")
    b1.add("b1z")
    c.add("c1")
    c.add("c2")
    c.add("c3")
    c.add("c4")
    return Hierarchy(root)


@pytest.fixture
def mixed_schema() -> Schema:
    """Small 3-attribute schema: ordinal(5), nominal(6, h=3), ordinal(4)."""
    return Schema(
        [
            OrdinalAttribute("X", 5),
            NominalAttribute("G", two_level_hierarchy([3, 3])),
            OrdinalAttribute("Y", 4),
        ]
    )


@pytest.fixture
def mixed_table(mixed_schema, rng) -> Table:
    rows = np.stack(
        [
            rng.integers(0, attr.size, size=300)
            for attr in mixed_schema
        ],
        axis=1,
    )
    return Table(mixed_schema, rows)


@pytest.fixture
def binary_hierarchy_8() -> Hierarchy:
    """Balanced binary hierarchy over 8 leaves (height 4)."""
    return balanced_hierarchy(8, 2)


def _box_sums_reference(prefix, lows, highs):
    """The corner loop every leaf served through before its serving kernel.

    One gather per corner pattern, signed corners added one after
    another in ``itertools.product`` order onto a zero total, and an
    exact ``0.0`` for a box with an empty range.  ``lows``/``highs`` are
    validated ``(n, d)`` int64 bounds.
    """
    d = prefix.ndim
    flat = prefix.reshape(-1)
    strides = np.asarray(
        [int(np.prod(prefix.shape[axis + 1 :])) for axis in range(d)], dtype=np.int64
    )
    totals = np.zeros(lows.shape[0], dtype=np.float64)
    for corner in itertools.product((0, 1), repeat=d):
        picks = np.where(np.asarray(corner, dtype=bool), highs, lows)
        sign = -1.0 if (d - sum(corner)) % 2 else 1.0
        totals += sign * flat[picks @ strides]
    totals[np.any(lows == highs, axis=1)] = 0.0
    return totals


@pytest.fixture
def box_sums_reference():
    """The pre-kernel corner loop, as the reference for ``==`` tests."""
    return _box_sums_reference
