"""Property: a streaming tree is answer- and variance-identical to its leaves.

The satellite acceptance property: for any distribution of rows over
epochs and any window, the tree's window answer and exact variance equal
the flat per-epoch releases' (published at matched per-node ε with the
same derived seeds) summed over the window — i.e. merged internal nodes
change *what is touched*, never *what is answered*.  Windows are drawn
to land both on and between merge boundaries, and timestamps land both
inside epochs (epoch_length > 1) and on their edges.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.exact import query_boxes
from repro.core.privelet_plus import PriveletPlusMechanism
from repro.data.attributes import OrdinalAttribute
from repro.data.schema import Schema
from repro.data.table import Table
from repro.queries.engine import QueryEngine
from repro.queries.workload import generate_workload
from repro.streaming import StreamingPublisher, cover_bound, epoch_seed

SCHEMA = Schema([OrdinalAttribute("v", 16), OrdinalAttribute("w", 8)])
EPSILON = 1.0
SEED = 20100301


def _tables(data: np.random.Generator, epochs: int, row_counts):
    tables = []
    for epoch in range(epochs):
        rows = np.stack(
            [
                data.integers(0, 16, size=row_counts[epoch]),
                data.integers(0, 8, size=row_counts[epoch]),
            ],
            axis=1,
        )
        tables.append(Table(SCHEMA, rows))
    return tables


@settings(max_examples=20, deadline=None)
@given(
    epochs=st.integers(min_value=1, max_value=9),
    row_counts=st.lists(
        st.integers(min_value=0, max_value=40), min_size=9, max_size=9
    ),
    window=st.tuples(
        st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9)
    ),
    epoch_length=st.integers(min_value=1, max_value=3),
    data_seed=st.integers(min_value=0, max_value=2**16),
)
def test_stream_window_matches_flat_per_epoch_releases(
    epochs, row_counts, window, epoch_length, data_seed
):
    lo, hi = min(window) % (epochs + 1), max(window)
    hi = min(hi, epochs)
    lo = min(lo, hi)
    data = np.random.default_rng(data_seed)
    tables = _tables(data, epochs, row_counts)
    mechanism = PriveletPlusMechanism(sa_names="auto")

    publisher = StreamingPublisher(
        SCHEMA, mechanism, EPSILON, seed=SEED, epoch_length=epoch_length
    )
    for epoch, table in enumerate(tables):
        if table.num_rows:
            # Timestamps spread across the epoch's interior and edges.
            base = epoch * epoch_length
            stamps = base + (np.arange(table.num_rows) % epoch_length)
            publisher.ingest(table, stamps)
        publisher.advance_epoch()

    queries = generate_workload(SCHEMA, 12, seed=SEED + 1)
    lows, highs = query_boxes(queries, SCHEMA.shape)
    stream_release = publisher.release(lo, hi)
    assert stream_release.nodes_touched <= cover_bound(hi - lo)

    engine = QueryEngine(
        dataclasses.replace(publisher.result(), release=stream_release)
    )
    got_answers = engine.answer_all(queries)
    got_variances = engine.noise_variances(queries)

    # The flat equivalent: each epoch published on its own at the same
    # matched per-node epsilon with the same derived seed, summed.
    want_answers = np.zeros(len(queries))
    want_variances = np.zeros(len(queries))
    for epoch in range(lo, hi):
        flat = mechanism.publish(
            tables[epoch], EPSILON, seed=epoch_seed(SEED, epoch), materialize=False
        )
        flat_engine = QueryEngine(flat)
        want_answers += flat_engine.answer_all(queries)
        want_variances += flat_engine.noise_variances(queries)

    np.testing.assert_allclose(got_answers, want_answers, atol=1e-8)
    np.testing.assert_allclose(got_variances, want_variances, rtol=1e-10)

    # A single-epoch window is the flat publish: bit for bit when it
    # starts at epoch 0 (it reads slice S_1, the leaf's own tensor), and
    # otherwise within the rounding of S_hi - S_lo, two running-prefix
    # sums whose difference rounds unlike the leaf's own tensor (about
    # 1e-13 relative where observed; the tolerance leaves headroom).
    if hi - lo == 1:
        flat = mechanism.publish(
            tables[lo], EPSILON, seed=epoch_seed(SEED, lo), materialize=False
        )
        want = QueryEngine(flat).answer_all(queries)
        if lo == 0:
            np.testing.assert_array_equal(got_answers, want)
        else:
            np.testing.assert_allclose(got_answers, want, rtol=1e-12, atol=1e-9)
