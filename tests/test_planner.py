"""The planner's contract: planned answers ≡ the engine's, bit for bit.

One grid crosses every release shape the planner fronts with every
batch shape that stresses deduplication; each cell compares the planned
batch with :meth:`~repro.queries.engine.QueryEngine.answer_columnar`
on the same rows, in request order.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.publish import publish
from repro.data.census import BRAZIL, generate_census_table
from repro.errors import QueryError
from repro.io import load_result, save_result
from repro.planner import QueryPlanner
from repro.queries.engine import QueryEngine
from repro.serving.requests import QueryBatchRequest
from repro.serving.server import ReleaseServer

SPEC = BRAZIL.scaled(0.05)
ROWS = 240


@pytest.fixture(scope="module")
def table():
    return generate_census_table(SPEC, 1_500, seed=3)


@pytest.fixture(scope="module")
def sharded(table):
    return publish(
        table, 1.0, shard_by="Age", shards=4, seed=7,
        representation="coefficients", parallel=False,
    )


@pytest.fixture(scope="module")
def releases(table, sharded, tmp_path_factory):
    """``name -> zero-argument result factory`` for every release shape."""
    path = tmp_path_factory.mktemp("planner") / "sharded.npz"
    save_result(path, sharded)
    stream = publish(table, 1.0, stream=np.arange(table.num_rows) % 6, seed=11)
    nested = publish(
        table, 1.0, shard_by="Age", shards=2,
        stream=np.arange(table.num_rows) % 4, seed=13, parallel=False,
    )
    dense = publish(table, 1.0, seed=4, representation="dense")
    coefficients = publish(table, 1.0, seed=5, representation="coefficients")
    window = dataclasses.replace(stream, release=stream.release.window(1, 5))
    return {
        "dense leaf": lambda: dense,
        "coefficient leaf": lambda: coefficients,
        # A fresh lazy load per cell, so no cell sees another's payloads.
        "lazy partition": lambda: load_result(path),
        "time-tree window": lambda: window,
        "partition of time trees": lambda: nested,
    }


def _random_boxes(shape, count, rng):
    lows = np.empty((count, len(shape)), dtype=np.int64)
    highs = np.empty_like(lows)
    for axis, size in enumerate(shape):
        lo = rng.integers(0, size, count)
        lows[:, axis] = lo
        highs[:, axis] = np.minimum(lo + rng.integers(1, size + 1, count), size)
    return lows, highs


def _all_distinct(shape, rng):
    lows, highs = _random_boxes(shape, ROWS, rng)
    _, first = np.unique(np.hstack([lows, highs]), axis=0, return_index=True)
    return lows[np.sort(first)], highs[np.sort(first)]


def _zipf(shape, rng):
    lows, highs = _random_boxes(shape, 16, rng)
    weights = 1.0 / np.arange(1, 17) ** 1.2
    picks = rng.choice(16, size=ROWS, p=weights / weights.sum())
    return lows[picks], highs[picks]


def _marginal_sweep(shape, rng):
    """Point on one axis, full domain elsewhere: every cell, three times."""
    cells = np.tile(np.arange(shape[0], dtype=np.int64), 3)
    lows = np.zeros((len(cells), len(shape)), dtype=np.int64)
    highs = np.tile(np.asarray(shape, dtype=np.int64), (len(cells), 1))
    lows[:, 0], highs[:, 0] = cells, cells + 1
    order = rng.permutation(len(cells))
    return lows[order], highs[order]


def _degenerate(shape, rng):
    lows, highs = _random_boxes(shape, ROWS, rng)
    axes = rng.integers(0, len(shape), ROWS)
    rows = np.arange(0, ROWS, 2)
    highs[rows, axes[rows]] = lows[rows, axes[rows]]
    return lows, highs


def _single(shape, rng):
    return _random_boxes(shape, 1, rng)


BATCHES = {
    "all distinct": _all_distinct,
    "zipf duplicates": _zipf,
    "marginal sweep": _marginal_sweep,
    "degenerate": _degenerate,
    "single row": _single,
}


def _assert_same_answers(planned, base):
    for field in ("estimates", "noise_stds", "lowers", "uppers"):
        np.testing.assert_array_equal(getattr(planned, field), getattr(base, field))
    assert planned.confidence == base.confidence


@pytest.mark.parametrize("batch", list(BATCHES))
@pytest.mark.parametrize("release", [
    "dense leaf",
    "coefficient leaf",
    "lazy partition",
    "time-tree window",
    "partition of time trees",
])
def test_planned_equals_engine(releases, release, batch):
    result = releases[release]()
    shape = result.release.schema.shape
    rng = np.random.default_rng(list(BATCHES).index(batch))
    lows, highs = BATCHES[batch](shape, rng)
    engine = QueryEngine(result)
    planner = QueryPlanner(engine)
    planned = planner.answer_columnar(lows, highs, 0.9)
    base = engine.answer_columnar(lows, highs, 0.9)
    _assert_same_answers(planned, base)
    unique = len(np.unique(np.hstack([lows, highs]), axis=0))
    assert planner.rows_planned == len(lows)
    assert planner.rows_deduped == len(lows) - unique


def test_lazy_parts_load_only_when_routed(releases):
    result = releases["lazy partition"]()
    release = result.release
    planner = QueryPlanner(QueryEngine(result))
    lows = np.zeros((3, release.schema.dimensions), dtype=np.int64)
    highs = np.tile(np.asarray(release.schema.shape, dtype=np.int64), (3, 1))
    highs[:, 0] = release.bounds[1]  # every row inside shard 0
    planner.answer_columnar(lows, highs)
    assert release.shards_loaded == 1


def test_server_equals_engine(sharded):
    ages = [0, 0, 3, 5, 5, 5, 9]
    request = QueryBatchRequest(
        "census", {"Age": {"lo": ages, "hi": [age + 4 for age in ages]}}
    )
    with ReleaseServer() as server:
        server.register("census", sharded)
        served = server.query_columnar(request)
        lows, highs = request.bind(sharded.release.schema)
        base = server.engine("census").answer_columnar(lows, highs)
        assert server.stats().planner_deduped_rows == 3
    np.testing.assert_array_equal(served.estimates, base.estimates)
    np.testing.assert_array_equal(served.noise_stds, base.noise_stds)


def test_bad_confidence_rejected_before_bounds(sharded):
    planner = QueryPlanner(QueryEngine(sharded))
    with pytest.raises(QueryError, match="confidence"):
        planner.answer_columnar(
            np.zeros((1, 2), dtype=np.int64),  # wrong width too
            np.ones((1, 2), dtype=np.int64),
            confidence=1.5,
        )


@pytest.mark.parametrize("confidence", ["0.9", None, [0.9]])
def test_non_number_confidence_is_a_query_error(sharded, confidence):
    # The engine's rule: only real numbers, never coerced; these used to
    # raise a bare TypeError from the comparison.
    planner = QueryPlanner(QueryEngine(sharded))
    with pytest.raises(QueryError, match="confidence must be a number"):
        planner.answer_columnar(
            np.zeros((1, 4), dtype=np.int64),
            np.ones((1, 4), dtype=np.int64),
            confidence=confidence,
        )
