"""Stream nodes: the parts a :class:`~repro.core.compose.TimeTree` sums.

A stream publishes one release per epoch and merges completed sibling
epochs up a dyadic tree (:mod:`repro.streaming.tree`).  The
:class:`~repro.core.compose.TimeTree` combinator of the composition
algebra answers a window from running-prefix slices folded from the
level-0 leaves, and sums the λ² of the window's canonical cover (at
most ``2 * ceil(log2 T)`` nodes) for its exact variance.  This module
holds that combinator's parts:

* :class:`StreamNode` — one tree node: its accounting now, its payload
  when read (archive-backed streams read a leaf member once, when the
  running prefix folds it);
* :func:`merge_results` — the parent of two sibling nodes, the
  element-wise sum of their payloads.  A level-``k`` node's effective λ
  is ``lambda * 2**(k/2)``: its coefficients are the *sum* of ``2**k``
  independently noised epoch tensors (post-processing, no fresh noise),
  so its per-coefficient noise variance is ``2**k`` times one epoch's
  and the usual ``2 lambda_eff**2 * prod profile`` formula stays exact.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.compose import TimeTree
from repro.core.framework import PublishResult
from repro.core.release import CoefficientRelease, DenseRelease, Release
from repro.data.frequency import FrequencyMatrix
from repro.errors import StreamingError
from repro.streaming.tree import node_span

__all__ = ["StreamNode", "merge_results"]


class StreamNode:
    """One tree node's release: accounting now, payload on first touch.

    The accounting (``noise_magnitude`` as the node's effective λ plus
    the shared SA set) is all a :class:`~repro.core.compose.TimeTree`
    needs for exact variances, so an archive-backed stream registers
    and profiles queries without reading any node.  Answering folds
    each leaf once through :meth:`read`, which keeps no payload;
    :meth:`result` loads and caches it (once, thread-safely) for
    callers that want the node's own release.  Satisfies the part
    protocol of :class:`~repro.core.compose.ComposedRelease`.

    Parameters
    ----------
    level, index:
        The node's tree coordinates (see
        :func:`repro.streaming.tree.node_span`).
    noise_magnitude:
        The node's effective Laplace parameter: ``lambda * 2**(level/2)``
        for a node merged from ``2**level`` epochs published at λ each.
    load:
        Zero-argument callable returning the node's
        :class:`~repro.core.framework.PublishResult`.
    representation:
        The payload's representation when known without loading
        (``"dense"``/``"coefficients"``), else ``None``.
    source:
        A token naming the stored payload ``load`` reads (an archive's
        member name, CRC-32 and size), or ``None`` for a payload held in
        memory; a re-opened archive compares the tokens of the leaves a
        running prefix folded before it continues that prefix.
    """

    def __init__(
        self, level: int, index: int, noise_magnitude: float, load,
        representation: str | None = None, source=None,
    ):
        self.level = int(level)
        self.index = int(index)
        self.noise_magnitude = float(noise_magnitude)
        self.representation = representation
        self.source = source
        self._loader = load
        self._result: PublishResult | None = None
        self._lock = threading.Lock()

    @classmethod
    def from_result(cls, level: int, index: int, result: PublishResult) -> "StreamNode":
        """Wrap an in-memory node ``result`` (already loaded).

        Parameters
        ----------
        level, index:
            The node's tree coordinates.
        result:
            The node's published result.
        """
        node = cls(
            level,
            index,
            result.noise_magnitude,
            lambda: result,
            result.representation,
        )
        node._result = result
        return node

    @property
    def span(self) -> tuple[int, int]:
        """The half-open epoch interval this node covers."""
        return node_span(self.level, self.index)

    @property
    def loaded(self) -> bool:
        """True once the payload has been materialized."""
        return self._result is not None

    def result(self) -> PublishResult:
        """The node's full result, loading it on first touch."""
        if self._result is None:
            with self._lock:
                if self._result is None:
                    self._result = self._loader()
        return self._result

    def read(self) -> PublishResult:
        """The node's result without caching it: the loaded one if held,
        else a fresh read through the loader."""
        result = self._result
        return result if result is not None else self._loader()


def merge_results(left: PublishResult, right: PublishResult) -> PublishResult:
    """Merge two published sibling nodes into their parent's release.

    The wavelet pipeline is linear, so the parent's payload is the
    element-wise **sum** of the children's (coefficient tensors for
    coefficient releases, ``M*`` for dense ones) — pure post-processing
    of already-published data, costing no privacy budget and drawing no
    fresh noise.  The accounting composes exactly: independent noise
    means variances add, so the parent's effective λ is
    ``sqrt(left_lambda**2 + right_lambda**2)``.

    Parameters
    ----------
    left, right:
        The sibling nodes' results, published over the same schema at
        the same ε; coefficient releases must share one SA set.

    Returns
    -------
    PublishResult
        The parent node's result, in the children's representation.
    """
    left_release, right_release = left.release, right.release
    if left_release.schema.shape != right_release.schema.shape:
        raise StreamingError(
            f"cannot merge releases of shapes {left_release.schema.shape} "
            f"and {right_release.schema.shape}"
        )
    if isinstance(left_release, CoefficientRelease) and isinstance(
        right_release, CoefficientRelease
    ):
        if left_release.sa_names != right_release.sa_names:
            raise StreamingError(
                f"cannot merge coefficient releases with SA sets "
                f"{left_release.sa_names} and {right_release.sa_names}"
            )
        merged: Release = CoefficientRelease(
            left_release.schema,
            left_release.sa_names,
            left_release.coefficients + right_release.coefficients,
        )
    elif isinstance(left_release, DenseRelease) and isinstance(
        right_release, DenseRelease
    ):
        merged = DenseRelease(
            FrequencyMatrix(
                left_release.schema,
                left_release.to_matrix().values + right_release.to_matrix().values,
            )
        )
    else:
        raise StreamingError(
            "can only merge two coefficient or two dense releases, got "
            f"{left_release.representation!r} and {right_release.representation!r}"
        )
    return PublishResult(
        release=merged,
        epsilon=float(left.epsilon),
        noise_magnitude=float(
            np.hypot(left.noise_magnitude, right.noise_magnitude)
        ),
        generalized_sensitivity=max(
            left.generalized_sensitivity, right.generalized_sensitivity
        ),
        variance_bound=left.variance_bound + right.variance_bound,
        details=dict(left.details),
    )


def _wrap_stream_result(
    release: TimeTree, leaves: list, *, epsilon: float, **details
) -> PublishResult:
    """Wrap a stream's :class:`~repro.core.compose.TimeTree` in a result.

    The accounting mirrors a sharded publish:
    ε is shared (parallel composition over disjoint epochs),
    ``noise_magnitude`` / ``generalized_sensitivity`` are the per-leaf
    maxima, and ``variance_bound`` is the per-leaf sum — a window query
    may span every epoch.

    Parameters
    ----------
    release:
        The stream release to wrap.
    leaves:
        Objects carrying the leaf (level-0) accounting fields to
        aggregate.
    epsilon:
        The stream's ε when no leaf exists yet to read it from (a
        zero-epoch stream).
    details:
        Extra ``details`` entries recorded on the result.
    """
    payload = {"stream": True, "epochs": release.epochs}
    payload.update(details)
    if not leaves:
        return PublishResult(
            release=release,
            epsilon=float(epsilon),
            noise_magnitude=0.0,
            generalized_sensitivity=0.0,
            variance_bound=0.0,
            details=payload,
        )
    return PublishResult(
        release=release,
        epsilon=float(leaves[0].epsilon),
        noise_magnitude=max(leaf.noise_magnitude for leaf in leaves),
        generalized_sensitivity=max(
            leaf.generalized_sensitivity for leaf in leaves
        ),
        variance_bound=sum(leaf.variance_bound for leaf in leaves),
        details=payload,
    )
