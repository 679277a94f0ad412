"""Streaming ingestion: temporal releases, one leaf per epoch.

One-shot publishing answers "what does the table look like today"; this
package answers it continuously.  The pieces (each documented in its own
module):

* :mod:`repro.streaming.release` — :class:`~repro.streaming.release.
  StreamNode`, one epoch's lazily loaded leaf; the windowed answer
  backend over the leaves is the algebra's
  :class:`~repro.core.compose.TimeTree` (the temporal sibling of
  :class:`~repro.core.compose.Partition`);
* :class:`~repro.streaming.publisher.StreamingPublisher` — ingests
  timestamped row batches, closes epochs (publish once per epoch at the
  full ε, DP parallel composition over disjoint time buckets), and
  appends each epoch's leaf to a stream archive a live
  :class:`~repro.serving.server.ReleaseServer` re-resolves on;
* :func:`~repro.streaming.tree.dyadic_cover` — the canonical dyadic
  cover of an epoch window, kept for the repository benchmark's own
  metric (no serving path uses it).

See ``docs/ARCHITECTURE.md`` for the epoch lifecycle and the archive
layout.
"""

from repro.streaming.publisher import StreamingPublisher, epoch_seed
from repro.streaming.release import StreamNode
from repro.streaming.tree import dyadic_cover

__all__ = [
    "StreamNode",
    "StreamingPublisher",
    "dyadic_cover",
    "epoch_seed",
]
