"""Composition algebra for releases: partitions and dyadic time trees.

The paper's mechanisms publish *one* noisy coefficient tensor, and every
query answer is pure post-processing of it.  That linearity is why two
composition axes could be bolted on independently — disjoint horizontal
shards (DP parallel composition) and dyadic time hierarchies (streaming)
— but as hand-rolled special cases they did not compose with each
other.  This module makes composition a first-class **algebra** over the
:class:`~repro.core.release.Release` protocol:

* :class:`Partition` — parallel composition along one ordinal axis.
  A box query is clipped against each part's interval; only intersecting
  parts answer, and independent noise means exact variances **add**.
* :class:`TimeTree` — coefficient-addition over a dyadic time
  hierarchy.  A window query is answered by its canonical dyadic cover
  (at most ``2 ceil(log2 T)`` nodes), every node answering the *same*
  box; all nodes share one transform, so the variance pass computes a
  single profile product per query.

The algebra is **closed under nesting**: a part of a
:class:`Partition` may itself be any composed release, so a sharded
stream is just ``Partition(TimeTree(...), ...)`` — window queries
route to each shard's windowed view and the exact variances still sum.
Every node uniformly exposes ``answer_boxes`` / ``noise_variances_boxes``,
which is the one composed-backend code path
:class:`~repro.queries.engine.QueryEngine` speaks.  A composed release
serves exactly as it was published: every leaf keeps its own
representation and SA set.

Routing masks, clip arithmetic, and the order of every floating-point
accumulation are fixed, so a composed release answers bit-for-bit like
the equivalent flat per-part computation.  Each part's profile product
is a pure function of its sub-box
(:class:`~repro.analysis.exact.AxisProfileCache` stores nothing), so a
std has the same bits whatever batch it is computed in.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np

from repro.analysis.exact import AxisProfileCache
from repro.core.framework import PublishResult
from repro.core.release import Release, infer_sa_names
from repro.data.attributes import OrdinalAttribute
from repro.data.frequency import FrequencyMatrix
from repro.data.schema import Schema
from repro.errors import SchemaError, StreamingError
from repro.transforms.multidim import HNTransform

__all__ = [
    "ComposedPart",
    "ComposedRelease",
    "Partition",
    "TimeTree",
    "shard_schema",
]


def _partition_axis(schema: Schema, attribute: str) -> int:
    """The partition attribute's axis, validated ordinal."""
    axis = schema.index_of(attribute)
    if not schema[axis].is_ordinal:
        raise SchemaError(
            f"can only shard along an ordinal attribute; {attribute!r} is nominal"
        )
    return axis


def _check_bounds(bounds, size: int) -> tuple[int, ...]:
    """Validate ascending cut points covering exactly ``[0, size)``."""
    bounds = tuple(int(b) for b in bounds)
    if len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != size:
        raise SchemaError(
            f"shard bounds must run from 0 to {size}, got {bounds}"
        )
    if any(lo >= hi for lo, hi in zip(bounds, bounds[1:])):
        raise SchemaError(f"shard bounds must be strictly increasing, got {bounds}")
    return bounds


def shard_schema(schema: Schema, attribute: str, lo: int, hi: int) -> Schema:
    """The schema of one shard: ``attribute`` restricted to ``[lo, hi)``.

    Every other attribute is carried over unchanged; the partition
    attribute becomes an ordinal of size ``hi - lo`` (coded values are
    shifted down by ``lo`` inside the shard).

    Parameters
    ----------
    schema:
        The global (unsharded) schema.
    attribute:
        The ordinal attribute the table is partitioned along.
    lo, hi:
        The shard's half-open interval on that attribute's coded domain.

    Returns
    -------
    Schema
        The shard's restricted schema.
    """
    axis = _partition_axis(schema, attribute)
    if not 0 <= lo < hi <= schema[axis].size:
        raise SchemaError(
            f"shard interval [{lo}, {hi}) out of range for {attribute!r} "
            f"of size {schema[axis].size}"
        )
    labels = schema[axis].labels
    attributes = list(schema.attributes)
    attributes[axis] = OrdinalAttribute(
        attribute, hi - lo, labels[lo:hi] if labels is not None else None
    )
    return Schema(attributes)


class ComposedPart:
    """Runtime state of one part inside a composed release.

    A part is either a **leaf** (a dense or coefficient release with one
    transform and one λ, possibly archive-backed and lazily loaded) or
    itself **composed** (any release exposing ``noise_variances_boxes``
    — this is what closes the algebra under nesting).  Leaves carry
    their own :class:`~repro.transforms.multidim.HNTransform`, built
    eagerly from ``schema`` and ``sa_names`` so misconfigurations
    surface at construction; composed parts delegate all variance math
    to their child release instead.

    Parameters
    ----------
    schema:
        The part's (restricted) schema.
    sa_names:
        The leaf part's SA set, or ``None`` for a composed part (the
        child release carries its own per-part configuration).
    noise_magnitude:
        The leaf part's Laplace parameter λ (unused for composed parts).
    load:
        Zero-argument callable returning the part's
        :class:`~repro.core.framework.PublishResult`; invoked once,
        thread-safely, on first touch.
    """

    def __init__(self, schema: Schema, sa_names, noise_magnitude: float, load):
        self.schema = schema
        self.composed = sa_names is None
        self.sa_names = None if self.composed else tuple(sa_names)
        self.noise_magnitude = float(noise_magnitude)
        self.transform = (
            None if self.composed else HNTransform(schema, self.sa_names)
        )
        self._loader = load
        self._result: PublishResult | None = None
        self._lock = threading.Lock()

    @classmethod
    def from_result(cls, result: PublishResult) -> "ComposedPart":
        """Wrap an in-memory part ``result`` (already loaded).

        A result whose release exposes ``noise_variances_boxes`` becomes
        a composed part (nesting); anything else is a leaf whose SA set
        is inferred from the result's configuration.

        Parameters
        ----------
        result:
            The part's published result.
        """
        release = result.release
        composed = hasattr(release, "noise_variances_boxes")
        part = cls(
            release.schema,
            None if composed else infer_sa_names(result),
            result.noise_magnitude,
            lambda: result,
        )
        part._result = result
        return part

    @property
    def loaded(self) -> bool:
        """True once the payload has been materialized."""
        return self._result is not None

    def result(self) -> PublishResult:
        """The part's full result, loading it on first touch.

        Returns
        -------
        PublishResult
            The part's own published result.
        """
        if self._result is None:
            with self._lock:
                if self._result is None:
                    self._result = self._loader()
        return self._result


class ComposedRelease(Release):
    """Base node of the composition algebra: parts behind one backend.

    Implements the full :class:`~repro.core.release.Release` protocol —
    ``schema``, :meth:`answer_boxes`, ``marginal``, ``to_matrix`` — plus
    :meth:`noise_variances_boxes`, the exact-uncertainty hook the query
    engine uses because a composed release has no single transform or λ.
    Subclasses supply the **routing**: :meth:`Partition._route`
    clips boxes against part intervals, :meth:`TimeTree._route` fans
    the same box to every cover node.  Everything else — answer
    accumulation, per-part variance dispatch (leaf formula vs. recursive
    delegation for nested parts), and lazy-load accounting — is shared
    here, so the combinators carry no duplicated answer or variance
    logic.

    Parameters
    ----------
    schema:
        The global schema queries are posed against.
    parts:
        The routable parts, in routing order — :class:`ComposedPart`
        instances or any objects satisfying the same protocol
        (``result()``, ``loaded``, ``noise_magnitude``).
    """

    def __init__(self, schema: Schema, parts):
        self._schema = schema
        self._parts = list(parts)

    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def parts(self) -> tuple:
        """The routable parts, in routing order (treat as read-only)."""
        return tuple(self._parts)

    @property
    def num_parts(self) -> int:
        """How many routable parts this node composes."""
        return len(self._parts)

    @property
    def parts_loaded(self) -> int:
        """How many member payloads have been materialized so far."""
        return sum(part.loaded for part in self._iter_members())

    def part_result(self, index: int) -> PublishResult:
        """Part ``index``'s full result (loads an archive-backed part).

        Parameters
        ----------
        index:
            Part position, in routing order.

        Returns
        -------
        PublishResult
            The part's own published result.
        """
        return self._parts[index].result()

    def _iter_members(self):
        """All member parts (for load counts and bytes).

        Defaults to the routable parts; :class:`TimeTree` overrides
        to iterate its full node table (the cover is a subset).
        """
        return iter(self._parts)

    # ------------------------------------------------------------------
    def _route(self, lows: np.ndarray, highs: np.ndarray):
        """Yield ``(index, mask, sub_lows, sub_highs)`` per touched part.

        ``mask`` selects the query rows routed to the part (``None``
        means every row); the sub-bounds are the boxes the part answers,
        re-coded onto its local domain where applicable.
        """
        raise NotImplementedError

    def answer_boxes(self, lows, highs) -> np.ndarray:
        """Batch box answers: routed per-part answers, summed.

        Only the parts the routing touches are consulted (lazy parts
        load on their first routed query); rows no part answers keep an
        exact ``0.0``.

        Parameters
        ----------
        lows, highs:
            ``(n, d)`` arrays of half-open box bounds, one row per query.

        Returns
        -------
        numpy.ndarray
            ``(n,)`` private counts aligned with the rows.
        """
        lows, highs = self._check_boxes(lows, highs)
        answers = np.zeros(lows.shape[0], dtype=np.float64)
        for index, mask, sub_lows, sub_highs in self._route(lows, highs):
            part_answers = self._parts[index].result().release.answer_boxes(
                sub_lows, sub_highs
            )
            if mask is None:
                answers += part_answers
            else:
                answers[mask] += part_answers
        return answers

    def noise_variances_boxes(self, lows, highs) -> np.ndarray:
        """Exact noise variance of each box's answer, summed over parts.

        Each routed leaf part contributes ``2 λ_i² · ∏ profile`` on its
        sub-box; a routed composed part recurses; parts a query does not
        touch contribute nothing — independent noise means the variances
        of the summed answer simply add.  Needs no part payload: the
        profiles depend only on each part's transform configuration.

        Parameters
        ----------
        lows, highs:
            ``(n, d)`` arrays of half-open box bounds, one row per query.

        Returns
        -------
        numpy.ndarray
            ``(n,)`` exact variances aligned with the rows.
        """
        lows, highs = self._check_boxes(lows, highs)
        variances = np.zeros(lows.shape[0], dtype=np.float64)
        for index, mask, sub_lows, sub_highs in self._route(lows, highs):
            part = self._parts[index]
            if getattr(part, "composed", False):
                part_variances = part.result().release.noise_variances_boxes(
                    sub_lows, sub_highs
                )
            else:
                products = AxisProfileCache(
                    part.transform.transforms
                ).box_profile_products(sub_lows, sub_highs)
                part_variances = 2.0 * part.noise_magnitude**2 * products
            if mask is None:
                variances += part_variances
            else:
                variances[mask] += part_variances
        return variances

    def nbytes(self) -> int:
        """Bytes held by the *loaded* members' serving state."""
        return sum(
            member.result().release.nbytes()
            for member in self._iter_members()
            if member.loaded
        )


class Partition(ComposedRelease):
    """Parallel composition: disjoint parts along one ordinal axis.

    The DP parallel-composition combinator: each part covers one
    contiguous coded interval ``[bounds[i], bounds[i+1])`` of the
    partition attribute and was published with the full ε, which is
    still ε-DP overall because a changed tuple lives in exactly one
    part.  A box query is clipped against each interval; only
    intersecting parts are touched (and therefore loaded, for
    archive-backed parts), their clipped answers summed — and
    independent per-part noise means the exact variances sum the same
    way.  Parts may themselves be composed releases (e.g. a
    :class:`TimeTree` per shard), which makes sharded streams a
    nesting, not a new class.

    Parameters
    ----------
    schema:
        The global (unpartitioned) schema queries are posed against.
    attribute:
        The ordinal attribute the data was partitioned along.
    bounds:
        The ascending cut points the parts cover (``len(shards) + 1``
        values from 0 to the attribute's domain size).
    shards:
        One entry per part, aligned with ``bounds`` intervals: a
        :class:`~repro.core.framework.PublishResult` (in-memory part —
        possibly itself composed) or a pre-built :class:`ComposedPart`
        (e.g. a lazy archive-backed leaf).
    """

    representation = "sharded"

    def __init__(self, schema: Schema, attribute: str, bounds, shards):
        self._attribute = str(attribute)
        self._axis = _partition_axis(schema, self._attribute)
        self._bounds = _check_bounds(bounds, schema[self._axis].size)
        entries = list(shards)
        if len(entries) != len(self._bounds) - 1:
            raise SchemaError(
                f"expected {len(self._bounds) - 1} shards for bounds "
                f"{self._bounds}, got {len(entries)}"
            )
        parts: list[ComposedPart] = []
        for index, entry in enumerate(entries):
            lo, hi = self._bounds[index], self._bounds[index + 1]
            sub_schema = shard_schema(schema, self._attribute, lo, hi)
            if isinstance(entry, PublishResult):
                if entry.release.schema.shape != sub_schema.shape:
                    raise SchemaError(
                        f"shard {index} has shape {entry.release.schema.shape}, "
                        f"expected {sub_schema.shape} for interval [{lo}, {hi})"
                    )
                parts.append(ComposedPart.from_result(entry))
            elif isinstance(entry, ComposedPart):
                parts.append(entry)
            else:
                raise SchemaError(
                    f"shard {index} must be a PublishResult or a "
                    f"ComposedPart, got {type(entry).__name__}"
                )
        super().__init__(schema, parts)

    # ------------------------------------------------------------------
    @property
    def attribute(self) -> str:
        """The partition attribute's name."""
        return self._attribute

    @property
    def bounds(self) -> tuple[int, ...]:
        """The partition cut points (``num_parts + 1`` values)."""
        return self._bounds

    @property
    def num_shards(self) -> int:
        """How many parts this release is split into (alias of ``num_parts``)."""
        return self.num_parts

    @property
    def shards_loaded(self) -> int:
        """How many part payloads have been materialized so far."""
        return self.parts_loaded

    def shard_result(self, index: int) -> PublishResult:
        """Part ``index``'s full result (loads an archive-backed part).

        Parameters
        ----------
        index:
            Part position, aligned with the ``bounds`` intervals.

        Returns
        -------
        PublishResult
            The part's own published result (its ε equals the union's
            ε — parallel composition, not splitting).
        """
        return self.part_result(index)

    # ------------------------------------------------------------------
    def _route(self, lows: np.ndarray, highs: np.ndarray):
        """Yield ``(index, mask, clipped_lows, clipped_highs)`` per part.

        ``mask`` selects the queries whose partition-axis range
        intersects the part's interval *and* whose box is non-empty;
        the clipped bounds are re-coded onto the part's local domain.
        """
        nonempty = ~np.any(lows == highs, axis=1)
        axis = self._axis
        for index in range(len(self._parts)):
            lo_b, hi_b = self._bounds[index], self._bounds[index + 1]
            clip_lo = np.maximum(lows[:, axis], lo_b)
            clip_hi = np.minimum(highs[:, axis], hi_b)
            mask = nonempty & (clip_lo < clip_hi)
            if not mask.any():
                continue
            sub_lows = lows[mask].copy()
            sub_highs = highs[mask].copy()
            sub_lows[:, axis] = clip_lo[mask] - lo_b
            sub_highs[:, axis] = clip_hi[mask] - lo_b
            yield index, mask, sub_lows, sub_highs

    def window(self, lo: int, hi: int | None = None) -> "Partition":
        """A view answering only over epochs ``[lo, hi)`` of every part.

        Defined only when every part is time-aware (exposes its own
        ``window`` — e.g. a :class:`TimeTree` per shard); the view is
        a same-type union of the per-part windowed views, sharing every
        lazily loaded node payload with this release.  This is what
        makes a nested shard×time release serve ``time_range`` requests
        exactly like a plain stream.

        Parameters
        ----------
        lo:
            First epoch of the window.
        hi:
            One past the last epoch; ``None`` means each part's newest
            closed epoch.

        Returns
        -------
        Partition
            The windowed view.
        """
        windowed = []
        for index, part in enumerate(self._parts):
            result = part.result()
            window = getattr(result.release, "window", None)
            if window is None:
                raise StreamingError(
                    f"shard {index} is not time-aware (a "
                    f"{result.release.representation!r} release); cannot "
                    "window this union"
                )
            windowed.append(dataclasses.replace(result, release=window(lo, hi)))
        return type(self)(self._schema, self._attribute, self._bounds, windowed)

    def to_matrix(self) -> FrequencyMatrix:
        """Materialize the global ``M*`` by concatenating part matrices.

        Loads (and densifies) every part — the thing the union exists to
        avoid on the serving path — so, like
        :meth:`~repro.core.release.CoefficientRelease.to_matrix`, the
        result is not cached.
        """
        values = np.zeros(self._schema.shape, dtype=np.float64)
        selector: list = [slice(None)] * len(self._schema.shape)
        for index, part in enumerate(self._parts):
            selector[self._axis] = slice(self._bounds[index], self._bounds[index + 1])
            values[tuple(selector)] = part.result().release.to_matrix().values
        return FrequencyMatrix(self._schema, values)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(shape={self._schema.shape}, "
            f"by={self._attribute!r}, shards={self.num_parts}, "
            f"loaded={self.parts_loaded})"
        )


class TimeTree(ComposedRelease):
    """Dyadic-time composition: a window over a tree of merged epochs.

    The streaming combinator: node ``(level, index)`` holds the
    coefficient-sum of ``2**level`` independently noised epoch releases
    (pure post-processing, no fresh noise), so its effective λ is
    ``λ · 2**(level/2)`` and the usual ``2 λ_eff² · ∏ profile`` variance
    formula stays exact.  A window ``[lo, hi)`` is answered by its
    canonical dyadic cover — at most ``2 ceil(log2 T)`` nodes, each
    answering the *same* box, summed; all nodes share one schema and SA
    set, so the variance pass computes a single profile product per
    query regardless of cover size.

    Parameters
    ----------
    schema:
        The released schema (time is *not* an axis; it is addressed by
        epoch windows).
    sa_names:
        The SA set every node was published under.
    epochs:
        How many epochs of the stream are closed (``T``); the node
        table must contain every dyadic node inside ``[0, T)``.
    nodes:
        Mapping ``(level, index) -> node``, shared (not copied) between
        a merge and its :meth:`window` views; nodes satisfy the part
        protocol (:class:`~repro.streaming.release.StreamNode` does).
    window:
        Optional ``(lo, hi)`` epoch window; ``None`` means ``[0, T)``.
    """

    representation = "stream"

    def __init__(self, schema: Schema, sa_names, epochs: int, nodes, *, window=None):
        from repro.streaming.tree import dyadic_cover

        self._transform = HNTransform(schema, tuple(sa_names))
        self._sa_names = tuple(
            name for name in schema.names if name in self._transform.sa_names
        )
        self._epochs = int(epochs)
        if self._epochs < 0:
            raise StreamingError(f"invalid epoch count {self._epochs}")
        self._nodes = nodes
        if window is None:
            window = (0, self._epochs)
        lo, hi = int(window[0]), int(window[1])
        if not 0 <= lo <= hi <= self._epochs:
            raise StreamingError(
                f"window [{lo}, {hi}) outside the closed prefix "
                f"[0, {self._epochs})"
            )
        self._window = (lo, hi)
        self._cover = dyadic_cover(lo, hi)
        missing = [key for key in self._cover if key not in self._nodes]
        if missing:
            raise StreamingError(f"stream is missing tree nodes {missing}")
        super().__init__(schema, [self._nodes[key] for key in self._cover])

    # ------------------------------------------------------------------
    @property
    def sa_names(self) -> tuple[str, ...]:
        """The SA set shared by every node, in schema order."""
        return self._sa_names

    @property
    def transform(self) -> HNTransform:
        """The HN transform every node's coefficients live in."""
        return self._transform

    @property
    def epochs(self) -> int:
        """How many epochs of the stream are closed."""
        return self._epochs

    @property
    def window_bounds(self) -> tuple[int, int]:
        """The half-open epoch window this release answers over."""
        return self._window

    @property
    def cover(self) -> tuple[tuple[int, int], ...]:
        """The window's canonical dyadic cover, as ``(level, index)`` pairs."""
        return tuple(self._cover)

    @property
    def nodes_touched(self) -> int:
        """How many node releases a query on this window consults."""
        return len(self._cover)

    @property
    def num_nodes(self) -> int:
        """Total tree nodes in the stream's node table."""
        return len(self._nodes)

    @property
    def nodes(self) -> dict:
        """The ``(level, index) -> node`` table (treat as read-only)."""
        return self._nodes

    @property
    def nodes_loaded(self) -> int:
        """How many node payloads have been materialized so far."""
        return self.parts_loaded

    def _iter_members(self):
        """All tree nodes (the cover's parts are a subset)."""
        return iter(self._nodes.values())

    def node_result(self, level: int, index: int) -> PublishResult:
        """Tree node ``(level, index)``'s result (loads it if lazy).

        Parameters
        ----------
        level, index:
            The node's tree coordinates.
        """
        try:
            node = self._nodes[(int(level), int(index))]
        except KeyError:
            raise StreamingError(f"no tree node ({level}, {index})") from None
        return node.result()

    def window(self, lo: int, hi: int | None = None) -> "TimeTree":
        """A view answering only over epochs ``[lo, hi)``.

        The view shares the node table (and therefore every lazily
        loaded payload) with this release; building it costs the
        ``O(log T)`` cover computation only.

        Parameters
        ----------
        lo:
            First epoch of the window.
        hi:
            One past the last epoch; ``None`` means the newest closed
            epoch.

        Returns
        -------
        TimeTree
            The windowed view (``lo == hi`` gives an empty window that
            answers exact zeros with zero variance).
        """
        if hi is None:
            hi = self._epochs
        return type(self)(
            self._schema,
            self._sa_names,
            self._epochs,
            self._nodes,
            window=(lo, hi),
        )

    # ------------------------------------------------------------------
    def _route(self, lows: np.ndarray, highs: np.ndarray):
        """Yield every cover node with the unmodified boxes (no mask)."""
        for index in range(len(self._parts)):
            yield index, None, lows, highs

    def noise_variances_boxes(self, lows, highs) -> np.ndarray:
        """Exact noise variance of each box's answer over the window.

        One profile product per query (all nodes share the transform)
        times ``2 · Σ_cover λ_eff²`` — needing no node payload, because
        the profiles depend only on the shared transform configuration
        and each node's effective λ is recorded in the release tree.

        Parameters
        ----------
        lows, highs:
            ``(n, d)`` arrays of half-open box bounds, one row per query.

        Returns
        -------
        numpy.ndarray
            ``(n,)`` exact variances aligned with the rows.
        """
        lows, highs = self._check_boxes(lows, highs)
        factor = 2.0 * sum(
            self._nodes[key].noise_magnitude ** 2 for key in self._cover
        )
        if factor == 0.0:
            return np.zeros(lows.shape[0], dtype=np.float64)
        products = AxisProfileCache(self._transform.transforms).box_profile_products(
            lows, highs
        )
        return factor * products

    def to_matrix(self) -> FrequencyMatrix:
        """Materialize the window's ``M*`` by summing cover-node matrices.

        Loads (and densifies) every cover node — the thing the tree
        exists to avoid on the serving path — so the result is not
        cached.
        """
        values = np.zeros(self._schema.shape, dtype=np.float64)
        for key in self._cover:
            values += self._nodes[key].result().release.to_matrix().values
        return FrequencyMatrix(self._schema, values)

    def __repr__(self) -> str:
        lo, hi = self._window
        return (
            f"{type(self).__name__}(shape={self._schema.shape}, "
            f"epochs={self._epochs}, window=[{lo}, {hi}), "
            f"cover={len(self._cover)} nodes)"
        )
