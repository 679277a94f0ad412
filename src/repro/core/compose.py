"""Composition algebra for releases: partitions and time windows.

The paper's mechanisms publish *one* noisy coefficient tensor, and every
query answer is pure post-processing of it.  That linearity is why two
composition axes could be bolted on independently — disjoint horizontal
shards (DP parallel composition) and disjoint epochs of a stream — but
as hand-rolled special cases they did not compose with each other.
This module makes composition a first-class **algebra** over the
:class:`~repro.core.release.Release` protocol:

* :class:`Partition` — parallel composition along one ordinal axis.
  A box query is clipped against each part's interval; only intersecting
  parts answer, and independent noise means exact variances **add**.
* :class:`TimeTree` — a stream's per-epoch leaves.  A window
  ``[lo, hi)`` answers from the stream's running prefix
  (:class:`PrefixSlices`): slice ``S_t`` sums epochs ``[0, t)``, so a
  box is ``K(S_hi) - K(S_lo)``, two corner gathers whatever the window.
  Its exact variance is ``2 (hi - lo) λ²`` times one profile product,
  since all leaves share one transform and one λ.

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
accumulation are fixed, so a partition answers bit-for-bit like the
equivalent flat per-part computation, and a window like the difference
of its two running-prefix slices.  Each part's profile product
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
from repro.core.release import Release, _CornerKernel, infer_sa_names, prefix_tensor
from repro.data.attributes import OrdinalAttribute
from repro.data.frequency import FrequencyMatrix
from repro.data.schema import Schema
from repro.errors import SchemaError, StreamingError
from repro.transforms.multidim import HNTransform

__all__ = [
    "ComposedPart",
    "ComposedRelease",
    "Partition",
    "PrefixSlices",
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
    :class:`Partition` supplies the **routing** (:meth:`Partition._route`
    clips boxes against part intervals); answer accumulation, per-part
    variance dispatch (leaf formula vs. recursive delegation for nested
    parts), and lazy-load accounting are shared here.  :class:`TimeTree`
    keeps the accounting over its leaves but answers from its running
    prefix instead of routing.

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
        self._parts = tuple(parts)

    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def parts(self) -> tuple:
        """The routable parts, in routing order."""
        return self._parts

    @property
    def num_parts(self) -> int:
        """How many routable parts this node composes."""
        return len(self._parts)

    @property
    def parts_loaded(self) -> int:
        """How many member payloads have been materialized so far."""
        return sum(part.loaded for part in self._parts)

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
                products = AxisProfileCache(part.transform.transforms)._read_products(
                    sub_lows, sub_highs
                )
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
            for member in self._parts
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
        lazily loaded leaf payload with this release.  This is what
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


class PrefixSlices:
    """A stream's running prefix: the serving state every view of it shares.

    Slice ``S_t`` is the zero-bordered prefix tensor of epochs ``[0, t)``
    summed: ``S_0`` is zeros and ``S_{t+1} = S_t + prefix(leaf t)``, where
    ``prefix(leaf t)`` is the tensor leaf ``t`` serves from (built by its
    own ``_fill_prefix``, so both leaf representations fold).  A window
    ``[lo, hi)`` answers ``K(S_hi) - K(S_lo)`` through each slice's
    :class:`~repro.core.release._CornerKernel`.  Slices are built lazily,
    in epoch order, when an answer first needs them; each reads one
    leaf once and keeps no payload, so a stream holds
    ``(h + 1) * prod(n_i + 1) * 8`` bytes, ``h`` the largest ``hi``
    answered.  Every slice is a pure function of the leaves before it:
    a state extended across appends equals one built from scratch bit
    for bit.

    The state also holds the stream's :class:`~repro.transforms.multidim.
    HNTransform`, so a root, its :meth:`TimeTree.window` views, a
    publisher's snapshots and a re-opened archive's root that continues
    the state all read one transform's profiles.

    Parameters
    ----------
    schema:
        The stream's released schema.
    sa_names:
        The SA set every leaf was published under.
    """

    def __init__(self, schema: Schema, sa_names):
        self.transform = HNTransform(schema, tuple(sa_names))
        #: The SA set, in schema order.
        self.sa_names = tuple(
            name for name in schema.names if name in self.transform.sa_names
        )
        self._kernels: list[_CornerKernel] = []
        self._sources: list = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        """How many slices are built (``S_0`` through ``S_{len - 1}``)."""
        return len(self._kernels)

    @property
    def sources(self) -> tuple:
        """The stored source of each folded leaf, in epoch order.

        A leaf's ``source`` token (archive member name, CRC-32 and size;
        ``None`` for an in-memory leaf), which is how a re-opened archive
        checks that every leaf this state folded is unchanged.
        """
        return tuple(self._sources)

    def nbytes(self) -> int:
        """Bytes of the slices built so far."""
        return sum(kernel.nbytes for kernel in self._kernels)

    def kernel(self, epoch: int, leaves) -> _CornerKernel:
        """The kernel over slice ``S_epoch``, folding the leaves it needs.

        Parameters
        ----------
        epoch:
            The slice index: ``S_epoch`` sums epochs ``[0, epoch)``.
        leaves:
            The stream's leaves in epoch order; only those below
            ``epoch`` are read, each once per state.
        """
        if epoch >= len(self._kernels):
            with self._lock:
                while len(self._kernels) <= epoch:
                    self._kernels.append(self._next_slice(leaves))
        return self._kernels[epoch]

    def _next_slice(self, leaves) -> _CornerKernel:
        shape = self.transform.schema.shape
        if not self._kernels:
            return _CornerKernel(np.zeros(tuple(size + 1 for size in shape)))
        leaf = leaves[len(self._kernels) - 1]
        tensor = prefix_tensor(shape, leaf.read().release._fill_prefix)
        flat = tensor.reshape(-1)
        flat += self._kernels[-1].flat
        self._sources.append(leaf.source)
        return _CornerKernel(tensor)


class TimeTree(ComposedRelease):
    """Time composition: a window over a stream's per-epoch leaves.

    The streaming combinator.  Each epoch is one independently noised
    release at the same λ, and the wavelet pipeline is linear, so a
    window ``[lo, hi)`` answers a box as the sum of its leaves' answers:
    ``K(S_hi) - K(S_lo)`` over the stream's :class:`PrefixSlices`.  Its
    exact variance is ``2 (hi - lo) λ² · ∏ profile`` — independent noise
    adds, and all leaves share one schema, SA set and λ (a stream's
    publisher refuses a leaf that does not).

    Parameters
    ----------
    schema:
        The released schema (time is *not* an axis; it is addressed by
        epoch windows).
    sa_names:
        The SA set every leaf was published under.
    leaves:
        The closed epochs' leaves in epoch order, shared (not copied)
        between a stream and its :meth:`window` views; ``T`` is their
        count.  Leaves satisfy the part protocol plus ``read()`` and
        ``source`` (:class:`~repro.streaming.release.StreamNode` does).
    window:
        Optional ``(lo, hi)`` epoch window; ``None`` means ``[0, T)``.
    slices:
        The stream's running-prefix state to serve from, shared with
        the views, snapshots and re-opened roots of the same stream;
        ``None`` starts a new one.
    """

    representation = "stream"

    def __init__(
        self, schema: Schema, sa_names, leaves, *, window=None,
        slices: PrefixSlices | None = None,
    ):
        if slices is None:
            slices = PrefixSlices(schema, sa_names)
        elif slices.transform.schema.shape != schema.shape:
            raise StreamingError(
                f"prefix slices of shape {slices.transform.schema.shape} cannot "
                f"serve a stream of shape {schema.shape}"
            )
        super().__init__(schema, leaves)
        self._slices = slices
        epochs = len(self._parts)
        lo, hi = (0, epochs) if window is None else (int(window[0]), int(window[1]))
        if not 0 <= lo <= hi <= epochs:
            raise StreamingError(
                f"window [{lo}, {hi}) outside the closed prefix [0, {epochs})"
            )
        self._window = (lo, hi)

    # ------------------------------------------------------------------
    @property
    def sa_names(self) -> tuple[str, ...]:
        """The SA set shared by every leaf, in schema order."""
        return self._slices.sa_names

    @property
    def transform(self) -> HNTransform:
        """The HN transform every leaf's coefficients live in (one object
        per stream, shared by every view)."""
        return self._slices.transform

    @property
    def slices(self) -> PrefixSlices:
        """The running-prefix state this window answers from."""
        return self._slices

    @property
    def leaves(self) -> tuple:
        """Every closed epoch's leaf, in epoch order (this release's parts)."""
        return self._parts

    @property
    def epochs(self) -> int:
        """How many epochs of the stream are closed."""
        return len(self._parts)

    @property
    def window_bounds(self) -> tuple[int, int]:
        """The half-open epoch window this release answers over."""
        return self._window

    @property
    def nodes_loaded(self) -> int:
        """How many leaf payloads are held in memory (answering keeps none)."""
        return self.parts_loaded

    def window(self, lo: int, hi: int | None = None) -> "TimeTree":
        """A view answering only over epochs ``[lo, hi)``.

        The view shares the leaves, the transform and the running prefix
        with this release.

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
            hi = self.epochs
        return type(self)(
            self._schema, self.sa_names, self._parts, window=(lo, hi),
            slices=self._slices,
        )

    # ------------------------------------------------------------------
    def answer_boxes(self, lows, highs) -> np.ndarray:
        """Batch box answers over the window: ``K(S_hi) - K(S_lo)``.

        Validates once, then reads slice ``S_hi`` alone when ``lo == 0``
        and subtracts ``S_lo``'s answers otherwise; the slices share one
        shape, so the corner indices are computed once for both.  An
        empty window answers exact zeros and builds no slice.

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
        lo, hi = self._window
        if lo == hi:
            return np.zeros(lows.shape[0], dtype=np.float64)
        kernel = self._slices.kernel(hi, self._parts)
        corners = kernel.corners(lows, highs)
        answers = kernel.sums(*corners)
        if lo:
            answers -= self._slices.kernel(lo, self._parts).sums(*corners)
        return answers

    def noise_variances_boxes(self, lows, highs) -> np.ndarray:
        """Exact noise variance of each box's answer over the window.

        ``2 (hi - lo) λ²`` times one profile product per query — needing
        no leaf payload, because the profiles depend only on the shared
        transform configuration and the leaves' one λ is part of their
        recorded accounting.

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
        lo, hi = self._window
        if lo == hi or self._parts[0].noise_magnitude == 0.0:
            return np.zeros(lows.shape[0], dtype=np.float64)
        factor = 2.0 * (hi - lo) * self._parts[0].noise_magnitude ** 2
        products = AxisProfileCache(self.transform.transforms)._read_products(
            lows, highs
        )
        return factor * products

    def nbytes(self) -> int:
        """Bytes of the running prefix plus any leaf payload held."""
        return self._slices.nbytes() + super().nbytes()

    def to_matrix(self) -> FrequencyMatrix:
        """Materialize the window's ``M*`` by summing its leaves' matrices.

        Reads (and densifies) every leaf in the window — the thing the
        running prefix exists to avoid on the serving path — and caches
        neither the payloads nor the result.
        """
        lo, hi = self._window
        values = np.zeros(self._schema.shape, dtype=np.float64)
        for leaf in self._parts[lo:hi]:
            values += leaf.read().release.to_matrix().values
        return FrequencyMatrix(self._schema, values)

    def __repr__(self) -> str:
        lo, hi = self._window
        return (
            f"{type(self).__name__}(shape={self._schema.shape}, "
            f"epochs={self.epochs}, window=[{lo}, {hi}), "
            f"slices={len(self._slices)})"
        )
