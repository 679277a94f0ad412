"""Tests for the stream answer backend (windows, variances, engine)."""

import dataclasses
import math

import numpy as np
import pytest

from repro.analysis.exact import query_boxes
from repro.core.privelet_plus import PriveletPlusMechanism
from repro.data.census import BRAZIL, census_schema, generate_census_table
from repro.errors import StreamingError
from repro.queries.engine import QueryEngine
from repro.queries.workload import generate_workload
from repro.streaming import StreamingPublisher, cover_bound

SPEC = BRAZIL.scaled(0.05)
EPOCHS = 6


@pytest.fixture(scope="module")
def stream():
    schema = census_schema(SPEC)
    publisher = StreamingPublisher(
        schema, PriveletPlusMechanism(sa_names="auto"), 1.0, seed=20100301
    )
    for epoch in range(EPOCHS):
        publisher.ingest(generate_census_table(SPEC, 250, seed=100 + epoch))
        publisher.advance_epoch()
    return publisher


@pytest.fixture(scope="module")
def queries(stream):
    return generate_workload(stream.schema, 40, seed=9)


def leaf_engines(stream, lo, hi):
    release = stream.release()
    return [QueryEngine(release.node_result(0, epoch)) for epoch in range(lo, hi)]


class TestWindows:
    def test_window_answer_equals_leaf_sum(self, stream, queries):
        for lo, hi in [(0, EPOCHS), (1, 5), (2, 3), (3, 6)]:
            window = stream.release(lo, hi)
            got = QueryEngine(
                dataclasses.replace(stream.result(), release=window)
            ).answer_all(queries)
            want = sum(
                engine.answer_all(queries) for engine in leaf_engines(stream, lo, hi)
            )
            np.testing.assert_allclose(got, want, atol=1e-8)

    def test_window_variance_equals_leaf_sum(self, stream, queries):
        for lo, hi in [(0, EPOCHS), (1, 5), (2, 3)]:
            window = stream.release(lo, hi)
            got = window.noise_variances_boxes(
                *query_boxes(queries, stream.schema.shape)
            )
            want = sum(
                engine.noise_variances(queries)
                for engine in leaf_engines(stream, lo, hi)
            )
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_every_window_within_cover_bound(self, stream):
        """Acceptance criterion: <= 2*ceil(log2 T) node releases touched."""
        bound = 2 * math.ceil(math.log2(EPOCHS))
        for lo in range(EPOCHS):
            for hi in range(lo + 1, EPOCHS + 1):
                window = stream.release(lo, hi)
                assert window.nodes_touched <= cover_bound(hi - lo)
                assert window.nodes_touched <= max(1, bound)

    def test_full_window_beats_leaf_count(self, stream):
        assert stream.release().nodes_touched < EPOCHS

    def test_empty_window_answers_zero(self, stream, queries):
        window = stream.release(2, 2)
        lows, highs = query_boxes(queries, stream.schema.shape)
        assert np.all(window.answer_boxes(lows, highs) == 0.0)
        assert np.all(window.noise_variances_boxes(lows, highs) == 0.0)

    def test_out_of_range_window_rejected(self, stream):
        with pytest.raises(StreamingError, match="outside the closed prefix"):
            stream.release(0, EPOCHS + 1)
        with pytest.raises(StreamingError, match="outside the closed prefix"):
            stream.release().window(-1, 2)

    def test_window_view_shares_payloads(self, stream):
        release = stream.release()
        view = release.window(0, 4)
        assert view.nodes is release.nodes

    def test_to_matrix_matches_answers(self, stream):
        window = stream.release(1, 3)
        matrix = window.to_matrix()
        box = tuple((0, size) for size in stream.schema.shape)
        assert matrix.values.sum() == pytest.approx(window.answer_box(box))

    def test_marginal_matches_dense_path(self, stream):
        window = stream.release(0, 3)
        marginal = window.marginal(["Age"])
        np.testing.assert_allclose(
            marginal, window.to_matrix().marginal(["Age"]), atol=1e-8
        )


class TestEngineIntegration:
    def test_batch_intervals(self, stream, queries):
        engine = QueryEngine(stream.result())
        batch = engine.answer_all_with_intervals(queries, confidence=0.9)
        assert np.all(batch.lowers <= batch.estimates)
        assert np.all(batch.estimates <= batch.uppers)
        assert np.all(batch.noise_stds > 0.0)

    def test_marginal_with_std(self, stream):
        engine = QueryEngine(stream.result())
        values, stds = engine.marginal_with_std(["Gender"])
        assert values.shape == stds.shape == (stream.schema["Gender"].size,)
        assert np.all(stds > 0.0)

    def test_profile_cache_counters_aggregate(self, stream, queries):
        engine = QueryEngine(stream.result())
        engine.noise_variances(queries)
        cache = engine.profile_cache
        assert cache.misses > 0
        engine.noise_variances(queries)
        assert cache.hits > 0
