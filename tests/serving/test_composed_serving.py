"""Acceptance: a sharded stream serves over TCP ≡ its flat equivalent.

The facade publishes a Partition × TimeTree composition (one stream per
Age shard), which saves/loads through the composition archive and is
served by the TCP fleet.  A *flat* one-level Partition whose part ``i``
holds the summed coefficients of shard ``i``'s ``T = 4`` leaves, at
``λ_eff = 2λ``, answers every full-window query with the same noise
draw.  The nested release answers from each shard's running-prefix
slice ``S_4`` (the sum of the four leaves' prefix tensors) while the
flat one inverts the summed coefficients, so estimates and bounds agree
within :data:`ESTIMATE_RTOL` / :data:`ESTIMATE_ATOL`; stds agree bit for
bit, because ``2·4·λ² = 2·(2λ)²`` exactly (scaling by a power of two
rounds nothing) and the profiles are the same.  JSON's float round-trip
is exact, so the comparisons are of the served bits.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.exact import query_boxes
from repro.core.compose import Partition, TimeTree
from repro.core.framework import PublishResult
from repro.core.publish import publish
from repro.core.release import CoefficientRelease
from repro.data.census import BRAZIL, generate_census_table
from repro.io import load_result, save_result
from repro.queries.workload import generate_workload
from repro.serving.network import NetworkServer
from repro.serving.requests import QueryBatchRequest
from repro.serving.server import ReleaseServer

from _network_helpers import JsonLineClient, hard_deadline

SPEC = BRAZIL.scaled(0.05)
NAMES = ("Age", "Income")
EPOCHS = 4  # a perfect square: the summed leaves' λ_eff = 2λ is exact
SHARDS = 2
BATCH = 24
#: Estimates and bounds of a nested window against the flat summed-leaf
#: release: the sum of four leaf prefix tensors rounds unlike the
#: prefix tensor of their summed coefficients (about 1e-13 relative
#: where observed; these bounds leave headroom).
ESTIMATE_RTOL = 1e-12
ESTIMATE_ATOL = 1e-9


def _close(got, want) -> None:
    np.testing.assert_allclose(got, want, rtol=ESTIMATE_RTOL, atol=ESTIMATE_ATOL)


def _random_ranges(schema, rng, count):
    ranges = {}
    for name in NAMES:
        size = schema[name].size
        lo = rng.integers(0, size, size=count)
        hi = rng.integers(lo + 1, size + 1)
        ranges[name] = {"lo": lo.tolist(), "hi": hi.tolist()}
    return ranges


@pytest.fixture(scope="module")
def table():
    return generate_census_table(SPEC, 1_500, seed=0)


@pytest.fixture(scope="module")
def nested(table, tmp_path_factory):
    """Publish via the facade, then round-trip through an archive."""
    timestamps = np.arange(table.rows.shape[0]) % EPOCHS
    result = publish(
        table, 1.0, shard_by="Age", shards=SHARDS, stream=timestamps, seed=33
    )
    path = tmp_path_factory.mktemp("composed") / "sharded_stream.npz"
    save_result(path, result)
    return load_result(path)


@pytest.fixture(scope="module")
def flat(nested, table):
    """The equivalent flat composition: per shard, one coefficient leaf
    holding its four epochs' summed coefficients at ``λ_eff = 2λ``."""
    release = nested.release
    assert isinstance(release, Partition)
    parts = []
    for index in range(release.num_parts):
        tree = release.part_result(index).release
        assert isinstance(tree, TimeTree) and tree.epochs == EPOCHS
        leaves = [leaf.result() for leaf in tree.leaves]
        summed = leaves[0].release.coefficients.copy()
        for leaf in leaves[1:]:
            summed += leaf.release.coefficients
        parts.append(dataclasses.replace(
            leaves[0],
            release=CoefficientRelease(tree.schema, tree.sa_names, summed),
            noise_magnitude=2 * leaves[0].noise_magnitude,
        ))
    union = Partition(table.schema, release.attribute, release.bounds, parts)
    return PublishResult(
        release=union,
        epsilon=nested.epsilon,
        noise_magnitude=nested.noise_magnitude,
        generalized_sensitivity=nested.generalized_sensitivity,
        variance_bound=nested.variance_bound,
        details={"sharded": True, "flattened_from": "sharded_stream"},
    )


@pytest.fixture(scope="module")
def reference(nested, flat):
    """In-process ground truth serving both releases."""
    with ReleaseServer() as server:
        server.register("nested", nested)
        server.register("flat", flat)
        yield server


@pytest.fixture(scope="module")
def fleet(nested, flat):
    """The TCP fleet under test, fed through shared-memory workers."""
    server = NetworkServer(workers=2)
    server.register("nested", nested)
    server.register("flat", flat)
    with hard_deadline(120):
        address = server.start()
    yield address
    with hard_deadline(60):
        server.close()


class TestComposedServing:
    def test_flat_equivalent_is_the_summed_leaves(self, nested, flat, table):
        """Each flat part is its shard's summed leaves at exactly twice the
        leaves' λ, so in process, too, its stds equal the nested ones."""
        for index in range(flat.release.num_parts):
            leaves = nested.release.part_result(index).release.leaves
            lam = flat.release.part_result(index).noise_magnitude
            assert lam == 2 * leaves[0].noise_magnitude
        lows, highs = query_boxes(
            generate_workload(table.schema, 60, seed=5), table.schema.shape
        )
        np.testing.assert_array_equal(
            nested.release.noise_variances_boxes(lows, highs),
            flat.release.noise_variances_boxes(lows, highs),
        )
        _close(
            nested.release.answer_boxes(lows, highs),
            flat.release.answer_boxes(lows, highs),
        )

    def test_nested_equals_flat_over_tcp(self, fleet, reference):
        schema = reference.engine("nested").schema
        ranges = _random_ranges(schema, np.random.default_rng(7), BATCH)
        with hard_deadline(90), JsonLineClient(fleet) as client:
            answers = {
                name: client.request(
                    {"op": "query_batch", "release": name, "ranges": ranges}
                )
                for name in ("nested", "flat")
            }
        assert answers["nested"]["ok"] and answers["flat"]["ok"]
        _close(answers["nested"]["estimates"], answers["flat"]["estimates"])
        assert answers["nested"]["noise_stds"] == answers["flat"]["noise_stds"]
        _close(answers["nested"]["lowers"], answers["flat"]["lowers"])
        _close(answers["nested"]["uppers"], answers["flat"]["uppers"])

    def test_full_window_time_range_is_the_flat_answer(self, fleet):
        """An explicit (0, EPOCHS) window serves the same summed leaves."""
        with hard_deadline(90), JsonLineClient(fleet) as client:
            windowed = client.request(
                {
                    "op": "query_batch",
                    "release": "nested",
                    "ranges": _random_ranges_static(),
                    "time_range": [0, EPOCHS],
                }
            )
            flat = client.request(
                {
                    "op": "query_batch",
                    "release": "flat",
                    "ranges": _random_ranges_static(),
                }
            )
        assert windowed["ok"] and flat["ok"]
        _close(windowed["estimates"], flat["estimates"])
        assert windowed["noise_stds"] == flat["noise_stds"]

    def test_tcp_matches_in_process(self, fleet, reference):
        schema = reference.engine("nested").schema
        ranges = _random_ranges(schema, np.random.default_rng(11), BATCH)
        with hard_deadline(90), JsonLineClient(fleet) as client:
            wire = client.request(
                {"op": "query_batch", "release": "nested", "ranges": ranges}
            )
        truth = reference.query_columnar(QueryBatchRequest("nested", ranges))
        assert wire["ok"] is True and wire["count"] == BATCH
        assert wire["estimates"] == truth.estimates.tolist()
        assert wire["noise_stds"] == truth.noise_stds.tolist()

    def test_scalar_queries_agree(self, fleet):
        with hard_deadline(90), JsonLineClient(fleet) as client:
            boxes = [
                {"Age": [3, 40], "Income": [0, 9]},
                {"Age": [0, 101], "Income": [2, 5]},
                {"Age": [55, 56], "Income": [0, 16]},
            ]
            for box in boxes:
                nested = client.request(
                    {"op": "query", "release": "nested", "ranges": box}
                )
                flat = client.request(
                    {"op": "query", "release": "flat", "ranges": box}
                )
                assert nested["ok"] and flat["ok"]
                _close(nested["estimate"], flat["estimate"])
                assert nested["noise_std"] == flat["noise_std"]


def _random_ranges_static():
    """A fixed columnar batch (deterministic across the two requests)."""
    return {
        "Age": {"lo": [0, 10, 40], "hi": [101, 61, 42]},
        "Income": {"lo": [0, 3, 1], "hi": [16, 7, 2]},
    }


class TestComposedArchiveServing:
    def test_v5_archive_registers_lazily(self, table, tmp_path):
        timestamps = np.arange(table.rows.shape[0]) % EPOCHS
        result = publish(
            table,
            1.0,
            shard_by="Age",
            shards=SHARDS,
            stream=timestamps,
            seed=33,
        )
        path = tmp_path / "events.npz"
        save_result(path, result)
        ranges = _random_ranges_static()
        with ReleaseServer() as server:
            server.register_archive(path)
            server.register("memory", result)
            served = server.query_columnar(QueryBatchRequest("events", ranges))
            truth = server.query_columnar(QueryBatchRequest("memory", ranges))
        np.testing.assert_array_equal(served.estimates, truth.estimates)
        np.testing.assert_array_equal(served.noise_stds, truth.noise_stds)
