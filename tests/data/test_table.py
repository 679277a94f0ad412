"""Unit tests for repro.data.table."""

import numpy as np
import pytest

from repro.data.attributes import OrdinalAttribute
from repro.data.schema import Schema
from repro.data.table import Table
from repro.errors import SchemaError


def schema_2x3():
    return Schema([OrdinalAttribute("A", 2), OrdinalAttribute("B", 3)])


class TestTableConstruction:
    def test_round_trip(self):
        rows = [[0, 0], [1, 2], [1, 2], [0, 1]]
        table = Table(schema_2x3(), rows)
        assert table.num_rows == 4
        assert len(table) == 4

    def test_rows_are_read_only(self):
        table = Table(schema_2x3(), [[0, 0]])
        with pytest.raises(ValueError):
            table.rows[0, 0] = 1

    def test_empty_table(self):
        table = Table(schema_2x3(), [])
        assert table.num_rows == 0
        matrix = table.frequency_matrix()
        assert matrix.total == 0.0
        assert matrix.shape == (2, 3)

    def test_out_of_domain_rejected(self):
        with pytest.raises(SchemaError):
            Table(schema_2x3(), [[0, 3]])
        with pytest.raises(SchemaError):
            Table(schema_2x3(), [[-1, 0]])
        # Per axis: size - 1 is in the domain, size and -1 are not.
        schema = schema_2x3()
        for axis, size in enumerate(schema.shape):
            for value in (size - 1, size, -1):
                rows = np.zeros((4, 2), dtype=np.int64)
                rows[2, axis] = value
                if value == size - 1:
                    assert Table(schema, rows).rows[2, axis] == value
                    continue
                with pytest.raises(SchemaError, match="outside its attribute domain"):
                    Table(schema, rows)

    def test_wrong_arity_rejected(self):
        with pytest.raises(SchemaError):
            Table(schema_2x3(), [[0, 0, 0]])

    def test_from_columns(self):
        table = Table.from_columns(schema_2x3(), [np.array([0, 1]), np.array([2, 2])])
        assert table.rows.tolist() == [[0, 2], [1, 2]]

    def test_from_columns_length_mismatch(self):
        with pytest.raises(SchemaError):
            Table.from_columns(schema_2x3(), [np.array([0]), np.array([1, 2])])

    def test_from_columns_count_mismatch(self):
        with pytest.raises(SchemaError):
            Table.from_columns(schema_2x3(), [np.array([0])])


class TestFrequencyMatrixMap:
    def test_counts_match_manual(self):
        rows = [[0, 0], [1, 2], [1, 2], [0, 1]]
        matrix = Table(schema_2x3(), rows).frequency_matrix()
        expected = np.array([[1, 1, 0], [0, 0, 2]], dtype=float)
        np.testing.assert_array_equal(matrix.values, expected)

    def test_total_equals_row_count(self, mixed_table):
        assert mixed_table.frequency_matrix().total == mixed_table.num_rows

    def test_every_cell_nonnegative_integer(self, mixed_table):
        values = mixed_table.frequency_matrix().values
        assert np.all(values >= 0)
        assert np.all(values == np.rint(values))


class TestNeighbouringTables:
    def test_replace_row(self):
        table = Table(schema_2x3(), [[0, 0], [1, 1]])
        neighbour = table.replace_row(0, [1, 2])
        assert neighbour.rows.tolist() == [[1, 2], [1, 1]]
        # Original untouched.
        assert table.rows.tolist() == [[0, 0], [1, 1]]

    def test_replace_changes_two_cells_by_one(self):
        """The §II-B observation behind sensitivity 2."""
        table = Table(schema_2x3(), [[0, 0], [1, 1], [1, 2]])
        neighbour = table.replace_row(1, [0, 2])
        difference = (
            neighbour.frequency_matrix().values - table.frequency_matrix().values
        )
        nonzero = difference[difference != 0]
        assert sorted(nonzero.tolist()) == [-1.0, 1.0]

    def test_replace_same_value_changes_nothing(self):
        table = Table(schema_2x3(), [[0, 0]])
        neighbour = table.replace_row(0, [0, 0])
        assert (
            neighbour.frequency_matrix().l1_distance(table.frequency_matrix()) == 0.0
        )

    def test_replace_row_bounds(self):
        table = Table(schema_2x3(), [[0, 0]])
        with pytest.raises(SchemaError):
            table.replace_row(5, [0, 0])
        with pytest.raises(SchemaError):
            table.replace_row(0, [0, 9])
