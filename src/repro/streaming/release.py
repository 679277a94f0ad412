"""Stream leaves: the parts a :class:`~repro.core.compose.TimeTree` holds.

A stream publishes one release per epoch and keeps nothing else: the
:class:`~repro.core.compose.TimeTree` combinator of the composition
algebra answers a window from running-prefix slices folded from its
leaves, and its exact variance from the window's length and the one λ
every leaf shares.  This module holds that combinator's parts:

* :class:`StreamNode` — one epoch's leaf: its accounting now, its
  payload when read (archive-backed streams read a leaf member once,
  when the running prefix folds it);
* :func:`_wrap_stream_result` — the stream's own
  :class:`~repro.core.framework.PublishResult`, whose accounting follows
  from the leaves' shared accounting and the epoch count.
"""

from __future__ import annotations

import threading

from repro.core.compose import TimeTree
from repro.core.framework import PublishResult

__all__ = ["StreamNode"]


class StreamNode:
    """One epoch's leaf release: accounting now, payload on first touch.

    The accounting (``noise_magnitude`` plus the stream's shared SA set)
    is all a :class:`~repro.core.compose.TimeTree` needs for exact
    variances, so an archive-backed stream registers and profiles
    queries without reading any leaf.  Answering folds each leaf once
    through :meth:`read`, which keeps no payload; :meth:`result` loads
    and caches it (once, thread-safely) for callers that want the leaf's
    own release.  Satisfies the part protocol of
    :class:`~repro.core.compose.ComposedRelease`.

    Parameters
    ----------
    accounting:
        The leaf's ``epsilon``, ``noise_magnitude``,
        ``generalized_sensitivity``, ``variance_bound``, ``details`` and
        payload ``representation`` (``"dense"``/``"coefficients"``).  An
        archive's leaves share one such mapping: the stream records it
        once.
    load:
        Zero-argument callable returning the leaf's
        :class:`~repro.core.framework.PublishResult`.
    source:
        A token naming the stored payload ``load`` reads (an archive's
        member name, CRC-32 and size), or ``None`` for a payload held in
        memory; a re-opened archive compares the tokens of the leaves a
        running prefix folded before it continues that prefix.
    """

    def __init__(self, accounting: dict, load, source=None):
        self.accounting = accounting
        self.noise_magnitude = float(accounting["noise_magnitude"])
        self.representation = accounting["representation"]
        self.source = source
        self._loader = load
        self._result: PublishResult | None = None
        self._lock = threading.Lock()

    @classmethod
    def from_result(cls, result: PublishResult) -> "StreamNode":
        """Wrap an in-memory leaf ``result`` (already loaded).

        Parameters
        ----------
        result:
            The epoch's published result.
        """
        node = cls(
            {
                "epsilon": result.epsilon,
                "noise_magnitude": result.noise_magnitude,
                "generalized_sensitivity": result.generalized_sensitivity,
                "variance_bound": result.variance_bound,
                "details": result.details,
                "representation": result.representation,
            },
            lambda: result,
        )
        node._result = result
        return node

    @property
    def loaded(self) -> bool:
        """True once the payload has been materialized."""
        return self._result is not None

    def result(self) -> PublishResult:
        """The leaf's full result, loading it on first touch."""
        if self._result is None:
            with self._lock:
                if self._result is None:
                    self._result = self._loader()
        return self._result

    def read(self) -> PublishResult:
        """The leaf's result without caching it: the loaded one if held,
        else a fresh read through the loader."""
        result = self._result
        return result if result is not None else self._loader()


def _wrap_stream_result(release: TimeTree, *, epsilon: float, **details) -> PublishResult:
    """Wrap a stream's :class:`~repro.core.compose.TimeTree` in a result.

    The accounting mirrors a sharded publish: ε is shared (parallel
    composition over disjoint epochs), ``noise_magnitude`` and
    ``generalized_sensitivity`` are the leaves' (one value each, since
    every leaf shares them), and ``variance_bound`` is the per-leaf bound
    times the epoch count — a window query may span every epoch.  A
    zero-epoch stream has no noise yet and reads zeros.

    Parameters
    ----------
    release:
        The stream release to wrap.
    epsilon:
        The stream's ε.
    details:
        Extra ``details`` entries recorded on the result.
    """
    payload = {"stream": True, "epochs": release.epochs}
    payload.update(details)
    if not release.leaves:
        leaf = dict.fromkeys(
            ("noise_magnitude", "generalized_sensitivity", "variance_bound"), 0.0
        )
    else:
        leaf = release.leaves[0].accounting
    return PublishResult(
        release=release,
        epsilon=float(epsilon),
        noise_magnitude=float(leaf["noise_magnitude"]),
        generalized_sensitivity=float(leaf["generalized_sensitivity"]),
        variance_bound=release.epochs * float(leaf["variance_bound"]),
        details=payload,
    )
