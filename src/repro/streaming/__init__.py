"""Streaming ingestion: temporal releases over a logarithmic time hierarchy.

One-shot publishing answers "what does the table look like today"; this
package answers it continuously.  The pieces (each documented in its own
module):

* :mod:`repro.streaming.tree` — the dyadic epoch-tree math: node spans,
  the merge path an epoch close completes, and the canonical
  ``O(log T)`` window cover;
* :mod:`repro.streaming.release` — :class:`~repro.streaming.release.
  StreamNode` (one lazily loaded tree node) and the node merge; the
  windowed answer backend over the nodes is the algebra's
  :class:`~repro.core.compose.TimeTree` (the temporal sibling of
  :class:`~repro.core.compose.Partition`);
* :class:`~repro.streaming.publisher.StreamingPublisher` — ingests
  timestamped row batches, closes epochs (publish once per epoch at the
  full ε, DP parallel composition over disjoint time buckets), merges
  completed nodes, and appends to a stream archive a live
  :class:`~repro.serving.server.ReleaseServer` re-resolves on.

See ``docs/ARCHITECTURE.md`` for the epoch lifecycle and the archive
layout.
"""

from repro.streaming.publisher import StreamingPublisher, epoch_seed
from repro.streaming.release import StreamNode, merge_results
from repro.streaming.tree import cover_bound, dyadic_cover, merge_path, node_span

__all__ = [
    "StreamNode",
    "StreamingPublisher",
    "cover_bound",
    "dyadic_cover",
    "epoch_seed",
    "merge_path",
    "merge_results",
    "node_span",
]
