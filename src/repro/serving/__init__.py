"""The serving layer: many releases, heavy traffic, one front door.

Everything below this package answers *one* query batch well; this
package is about sustained traffic across *many* releases.  The pieces
(each documented in its own module):

* :class:`~repro.serving.registry.ReleaseRegistry` — named releases,
  archive-backed entries load lazily;
* :class:`~repro.serving.requests.QueryRequest` /
  :class:`~repro.serving.requests.QueryResponse` /
  :class:`~repro.serving.requests.QueryBatchRequest` /
  :class:`~repro.serving.requests.BatchQueryResponse` /
  :class:`~repro.serving.requests.ErrorResponse` — the wire types of
  the JSONL protocol ``python -m repro serve`` speaks (scalar and
  columnar);
* :class:`~repro.serving.batching.MicroBatcher` — adaptive coalescing
  of concurrent single queries into vectorized engine batches;
* :class:`~repro.serving.plans.PlanCache` — compiled per-shape plans
  the columnar path reuses across batches;
* :class:`~repro.serving.server.ReleaseServer` — the composition, with
  per-release locks and plan-cache/batch/latency stats;
* :mod:`~repro.serving.shm` — publish-once shared-memory segments that
  worker processes map zero copy;
* :class:`~repro.serving.stats.LatencyRecorder` /
  :func:`~repro.serving.stats.merge_worker_stats` — thread-safe latency
  windows and cross-worker stat aggregation;
* :class:`~repro.serving.network.NetworkServer` — the multi-process TCP
  front door (``python -m repro serve --tcp``), fault-isolated workers
  over the shared segments.

See ``docs/ARCHITECTURE.md`` for where this layer sits in the system.
"""

from repro.serving.batching import MicroBatcher
from repro.serving.network import NetworkServer
from repro.serving.plans import CompiledPlan, PlanCache
from repro.serving.registry import ReleaseRegistry
from repro.serving.requests import (
    BatchQueryResponse,
    ErrorResponse,
    QueryBatchRequest,
    QueryRequest,
    QueryResponse,
    parse_request_line,
)
from repro.serving.server import ReleaseServer, ServerStats
from repro.serving.shm import (
    ShmAttachment,
    ShmPublication,
    attach_result_from_shm,
    publish_result_to_shm,
    sweep_stale_segments,
)
from repro.serving.stats import LatencyRecorder, merge_worker_stats

__all__ = [
    "BatchQueryResponse",
    "CompiledPlan",
    "ErrorResponse",
    "LatencyRecorder",
    "MicroBatcher",
    "NetworkServer",
    "PlanCache",
    "QueryBatchRequest",
    "QueryRequest",
    "QueryResponse",
    "ReleaseRegistry",
    "ReleaseServer",
    "ServerStats",
    "ShmAttachment",
    "ShmPublication",
    "attach_result_from_shm",
    "merge_worker_stats",
    "parse_request_line",
    "publish_result_to_shm",
    "sweep_stale_segments",
]
