"""Tests for the compiled-workload batch variance path."""

import math

import numpy as np
import pytest

from repro.analysis.exact import (
    AxisProfileCache,
    CompiledWorkload,
    expected_relative_errors,
    query_boxes,
    query_noise_variance,
    workload_average_variance,
)
from repro.errors import QueryError, TransformError
from repro.queries.workload import Workload, generate_workload
from repro.transforms.multidim import HNTransform


class TestCompiledWorkload:
    def test_variances_match_per_query_oracle(self, mixed_schema):
        """CompiledWorkload.variances == query_noise_variance per query,
        for plain Privelet and for an SA split."""
        queries = generate_workload(mixed_schema, 60, seed=3)
        compiled = CompiledWorkload(mixed_schema, queries)
        for sa in [(), ("X",), ("X", "G", "Y")]:
            hn = HNTransform(mixed_schema, sa_names=sa)
            magnitude = 2.0 * hn.generalized_sensitivity() / 1.0
            expected = [query_noise_variance(hn, q, magnitude) for q in queries]
            np.testing.assert_allclose(
                compiled.variances(hn, magnitude), expected, rtol=1e-12
            )

    def test_average_matches_module_function(self, mixed_schema):
        queries = generate_workload(mixed_schema, 25, seed=4)
        compiled = CompiledWorkload(mixed_schema, queries)
        hn = HNTransform(mixed_schema, sa_names=("G",))
        magnitude = 2.0 * hn.generalized_sensitivity() / 0.5
        assert compiled.average_variance(hn, magnitude) == pytest.approx(
            workload_average_variance(mixed_schema, ("G",), queries, 0.5)
        )

    def test_expected_relative_errors_match(self, mixed_table):
        schema = mixed_table.schema
        matrix = mixed_table.frequency_matrix()
        workload = Workload.evaluate(generate_workload(schema, 30, seed=5), matrix)
        sanity = 5.0
        epsilon = 1.0
        predictions = expected_relative_errors(schema, (), workload, epsilon, sanity)
        hn = HNTransform(schema, ())
        magnitude = 2.0 * hn.generalized_sensitivity() / epsilon
        for index, query in enumerate(workload.queries):
            std = math.sqrt(query_noise_variance(hn, query, magnitude))
            expected = (
                std
                * math.sqrt(2.0 / math.pi)
                / max(float(workload.exact_answers[index]), sanity)
            )
            assert predictions[index] == pytest.approx(expected)

    def test_deduplicates_ranges_per_axis(self, mixed_schema):
        queries = generate_workload(mixed_schema, 200, seed=6)
        compiled = CompiledWorkload(mixed_schema, queries)
        assert len(compiled) == 200
        # Unconstrained axes collapse to one full range per query, so
        # dedup must find far fewer distinct ranges than queries.
        for count in compiled.unique_range_counts:
            assert 1 <= count < 200

    def test_reused_across_sa_candidates(self, mixed_schema):
        """One compiled workload serves every SA choice and each axis is
        profiled at most twice (wavelet + identity)."""
        queries = generate_workload(mixed_schema, 20, seed=7)
        compiled = CompiledWorkload(mixed_schema, queries)
        for sa in [(), ("X",), ("G", "Y"), ("X", "G", "Y")]:
            direct = workload_average_variance(mixed_schema, sa, queries, 1.0)
            shared = workload_average_variance(
                mixed_schema, sa, queries, 1.0, compiled=compiled
            )
            assert shared == pytest.approx(direct)
        assert len(compiled._profile_cache) <= 2 * mixed_schema.dimensions

    def test_same_shape_different_schema_rejected(self):
        """A same-shape schema with a different hierarchy must not be
        served another schema's cached profiles."""
        from repro.data.attributes import NominalAttribute
        from repro.data.hierarchy import balanced_hierarchy, flat_hierarchy
        from repro.data.schema import Schema

        deep = Schema([NominalAttribute("N", balanced_hierarchy(8, 2))])
        flat = Schema([NominalAttribute("N", flat_hierarchy(8))])
        queries = generate_workload(deep, 10, seed=9)
        compiled = CompiledWorkload(deep, queries)
        compiled.profile_products(HNTransform(deep))
        with pytest.raises(QueryError):
            compiled.profile_products(HNTransform(flat))

    def test_empty_workload_rejected(self, mixed_schema):
        with pytest.raises(QueryError):
            CompiledWorkload(mixed_schema, [])

    def test_schema_mismatch_rejected(self, mixed_schema):
        from repro.data.attributes import OrdinalAttribute
        from repro.data.schema import Schema

        other = Schema([OrdinalAttribute("Z", 4)])
        queries = generate_workload(other, 3, seed=8)
        with pytest.raises(QueryError):
            CompiledWorkload(mixed_schema, queries)
        compiled = CompiledWorkload(other, queries)
        with pytest.raises(QueryError):
            compiled.profile_products(HNTransform(mixed_schema))


class TestAxisProfileCache:
    def test_bounds_rejected(self, mixed_schema):
        # The kernel validates nothing itself: each axis's transform
        # rejects an out-of-range bound.
        hn = HNTransform(mixed_schema)
        kernel = AxisProfileCache(hn.transforms)
        lows = np.zeros((1, mixed_schema.dimensions), dtype=np.int64)
        highs = np.ones((1, mixed_schema.dimensions), dtype=np.int64)
        highs[0, 0] = 99
        with pytest.raises(TransformError):
            kernel.box_profile_products(lows, highs)
        lows[0, 0], highs[0, 0] = -1, 3
        with pytest.raises(TransformError):
            kernel.box_profile_products(lows, highs)

    def test_products_are_per_axis_profiles(self, mixed_schema):
        # X identity, G nominal, Y Haar: every kind of axis.
        hn = HNTransform(mixed_schema, sa_names=("X",))
        kernel = AxisProfileCache(hn.transforms)
        queries = generate_workload(mixed_schema, 40, seed=9)
        lows, highs = query_boxes(queries, mixed_schema.shape)
        expected = np.ones(len(queries))
        for axis, transform in enumerate(hn.transforms):
            expected *= [
                transform.range_profile(lo, hi)
                for lo, hi in zip(lows[:, axis], highs[:, axis])
            ]
        assert kernel.box_profile_products(lows, highs).tolist() == expected.tolist()
        assert kernel.hits == kernel.misses == 0
