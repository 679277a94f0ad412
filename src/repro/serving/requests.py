"""Wire types of the serving layer: requests and responses.

A :class:`QueryRequest` names a registered release and carries one
range-count query as per-attribute half-open ranges — the serving-layer
analogue of :class:`~repro.queries.query.RangeCountQuery`, except it is
*unbound*: it references attributes by name and is only compiled against
a schema (:meth:`QueryRequest.to_query`) once the server has resolved
the release.  Responses are plain dataclasses with a stable JSON form,
so the ``python -m repro serve`` JSONL loop and in-process callers see
the same shapes.

Wire format (one JSON object per line)::

    {"id": 7, "release": "brazil", "ranges": {"Age": [18, 65]},
     "confidence": 0.95}

    {"id": 8, "release": "events", "ranges": {"Age": [18, 65]},
     "time_range": [3, 11]}

    {"ok": true, "id": 7, "release": "brazil", "estimate": 1234.5,
     "noise_std": 21.9, "lower": 1191.6, "upper": 1277.4,
     "confidence": 0.95}

    {"ok": false, "id": 7, "code": "unknown-release",
     "error": "unknown release 'brazil'; registered: ('us',)"}

A :class:`QueryBatchRequest` is the **columnar** form of the same
protocol: many queries against one release in a single wire object,
with the per-attribute bounds as parallel ``lo``/``hi`` integer arrays
(structure-of-arrays) instead of one object per query::

    {"op": "query_batch", "id": 9, "release": "brazil",
     "ranges": {"Age": {"lo": [18, 30, 0], "hi": [65, 40, 101]}}}

    {"ok": true, "id": 9, "release": "brazil", "count": 3,
     "confidence": 0.95, "estimates": [...], "noise_stds": [...],
     "lowers": [...], "uppers": [...]}

The arrays decode straight into ndarrays and are validated in one
vectorized pass, so a batch of thousands of queries costs O(ndarray)
Python work, not O(queries); the batch answer comes back as a single
:class:`BatchQueryResponse` (arrays out, one ``json.dumps`` per batch).

Failures never surface as tracebacks on the wire: every error becomes an
:class:`ErrorResponse` whose ``code`` is machine-readable
(``bad-request``, ``unknown-release``, ``closed``, ``internal``).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from repro.errors import QueryError, ReproError, ServingError
from repro.queries.predicate import Predicate
from repro.queries.query import RangeCountQuery
from repro.utils.validation import ensure_confidence, integral_array

__all__ = [
    "QueryRequest",
    "QueryBatchRequest",
    "QueryResponse",
    "BatchQueryResponse",
    "ErrorResponse",
    "parse_request_line",
]


def _exact_int(value, what: str) -> int:
    """``value`` as an exact integer, or a ``bad-request`` ServingError.

    Truncating (``int(3.7) == 3``) would silently turn a malformed bound
    into a *different* query with a plausible answer, so only integral
    numbers pass: Python ints, numpy integers, and whole-valued floats
    (JSON clients may well send ``18.0``).  Everything else — ``3.7``,
    strings, booleans, None — is rejected.
    """
    if isinstance(value, bool):
        raise ServingError(f"{what} must be an integer, got {value!r}")
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real) and float(value).is_integer():
        return int(value)
    raise ServingError(f"{what} must be an integer, got {value!r}")


def _confidence(value) -> float:
    """``value`` as a confidence level in ``(0, 1)``, or a ``bad-request``.

    The engine's rule (:func:`~repro.utils.validation.ensure_confidence`):
    a string such as ``"0.9"`` or a boolean is a malformed request, not a
    level to coerce — the same rule the range bounds follow.
    """
    try:
        return ensure_confidence(value)
    except QueryError as error:
        raise ServingError(str(error)) from None


def _time_range(value) -> tuple | None:
    """``value`` as a validated ``(lo, hi)`` epoch window (or ``None``).

    ``hi`` may be ``None`` ("through the newest closed epoch"); the
    bounds are exact integers with ``0 <= lo <= hi``.
    """
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ServingError(f"time_range must be [lo, hi], got {value!r}")
    lo, hi = value
    lo = _exact_int(lo, "time_range bound")
    hi = None if hi is None else _exact_int(hi, "time_range bound")
    if lo < 0 or (hi is not None and hi < lo):
        raise ServingError(f"invalid time_range [{lo}, {hi})")
    return lo, hi


@dataclass(frozen=True)
class QueryRequest:
    """One range-count query addressed to a named release.

    Parameters
    ----------
    release:
        Name of the target release in the server's registry.
    ranges:
        Per-attribute half-open ranges — a mapping ``{name: (lo, hi)}``
        or an iterable of ``(name, lo, hi)`` triples.  Attributes not
        named default to their full domain, exactly like a
        :class:`~repro.queries.query.RangeCountQuery` with missing
        predicates.  Normalized to a sorted tuple of triples so equal
        requests hash and compare equal (which is what makes
        dashboard-style traffic cache-friendly).
    confidence:
        Two-sided confidence level for the interval, in ``(0, 1)``.
    time_range:
        Optional half-open epoch window ``(lo, hi)`` for stream-backed
        releases; ``hi`` may be ``None`` for "through the newest closed
        epoch".  Addressing a non-stream release with a time range is a
        ``bad-request``.
    request_id:
        Opaque caller token echoed back on the response (any JSON-able
        value).
    """

    release: str
    ranges: tuple = field(default_factory=tuple)
    confidence: float = 0.95
    time_range: tuple | None = None
    request_id: object = None

    def __post_init__(self):
        if not isinstance(self.release, str) or not self.release:
            raise ServingError(
                f"request needs a non-empty release name, got {self.release!r}"
            )
        object.__setattr__(self, "confidence", _confidence(self.confidence))
        items = (
            self.ranges.items()
            if isinstance(self.ranges, dict)
            else self.ranges
        )
        normalized = []
        for item in items:
            try:
                if isinstance(self.ranges, dict):
                    name, (lo, hi) = item
                else:
                    name, lo, hi = item
            except (TypeError, ValueError):
                raise ServingError(
                    f"each range must be (attribute, lo, hi), got {item!r}"
                ) from None
            bounds = f"range bound on {name!r}"
            normalized.append(
                (str(name), _exact_int(lo, bounds), _exact_int(hi, bounds))
            )
        object.__setattr__(self, "ranges", tuple(sorted(normalized)))
        object.__setattr__(self, "time_range", _time_range(self.time_range))

    @classmethod
    def from_dict(cls, payload) -> "QueryRequest":
        """Build a request from a decoded wire payload.

        Parameters
        ----------
        payload:
            A JSON object with ``release`` (required), ``ranges``
            (optional mapping ``{name: [lo, hi]}``), ``confidence``
            (optional), ``time_range`` (optional ``[lo, hi]`` epoch
            window for stream releases, ``hi`` may be ``null``), and
            ``id`` (optional).

        Returns
        -------
        QueryRequest
            The validated request.  Raises
            :class:`~repro.errors.ServingError` on any malformed field.
        """
        if not isinstance(payload, dict):
            raise ServingError(f"request must be a JSON object, got {payload!r}")
        unknown = set(payload) - {
            "release", "ranges", "confidence", "time_range", "id", "op",
        }
        if unknown:
            raise ServingError(f"unknown request fields: {sorted(unknown)}")
        if "release" not in payload:
            raise ServingError("request lacks the required 'release' field")
        ranges = payload.get("ranges", {})
        if not isinstance(ranges, dict):
            raise ServingError(
                f"'ranges' must be an object of {{attribute: [lo, hi]}}, "
                f"got {ranges!r}"
            )
        return cls(
            release=payload["release"],
            ranges=ranges,
            confidence=payload.get("confidence", 0.95),
            time_range=payload.get("time_range"),
            request_id=payload.get("id"),
        )

    def to_dict(self) -> dict:
        """The wire form of this request (inverse of :meth:`from_dict`)."""
        payload = {
            "release": self.release,
            "ranges": {name: [lo, hi] for name, lo, hi in self.ranges},
            "confidence": self.confidence,
        }
        if self.time_range is not None:
            payload["time_range"] = list(self.time_range)
        if self.request_id is not None:
            payload["id"] = self.request_id
        return payload

    def to_query(self, schema) -> RangeCountQuery:
        """Bind this request to a schema as a range-count query.

        Parameters
        ----------
        schema:
            The resolved release's :class:`~repro.data.schema.Schema`.

        Returns
        -------
        RangeCountQuery
            Query with one predicate per named range.  Unknown attribute
            names or out-of-bounds ranges raise
            :class:`~repro.errors.QueryError` (mapped to a
            ``bad-request`` response by the server).
        """
        predicates = tuple(
            Predicate(name, lo, hi) for name, lo, hi in self.ranges
        )
        return RangeCountQuery(schema, predicates)


def _column_pair(name, spec):
    """One attribute's ``(lo, hi)`` arrays from its wire spec.

    Accepts the wire form ``{"lo": [...], "hi": [...]}`` or an
    in-process pair ``(lo_array, hi_array)``.
    """
    if isinstance(spec, dict):
        unknown = set(spec) - {"lo", "hi"}
        if unknown or set(spec) != {"lo", "hi"}:
            raise ServingError(
                f"columnar range for {name!r} must be "
                f'{{"lo": [...], "hi": [...]}}, got keys {sorted(spec)}'
            )
        return spec["lo"], spec["hi"]
    try:
        lo, hi = spec
    except (TypeError, ValueError):
        raise ServingError(
            f"columnar range for {name!r} must be "
            f'{{"lo": [...], "hi": [...]}} or a (lo, hi) array pair, '
            f"got {spec!r}"
        ) from None
    return lo, hi


def _bound_column(name, side: str, values) -> np.ndarray:
    """One bound array as exact int64, or a ``bad-request`` error.

    The whole column is checked in one vectorized pass by the rule every
    box validator shares (:func:`repro.utils.validation.integral_array`):
    numeric dtype only (no strings/objects/bools), and float columns must
    be whole-valued — the array analogue of :func:`_exact_int`.
    """
    column = np.asarray(values)
    if column.ndim != 1:
        raise ServingError(
            f"columnar {side} bounds for {name!r} must be a flat array, "
            f"got shape {column.shape}"
        )
    integral = integral_array(column)
    if integral is None:
        raise ServingError(
            f"columnar {side} bounds for {name!r} must be integers, "
            f"got {column.dtype} values"
        )
    return integral


class QueryBatchRequest:
    """Many range-count queries against one release, structure-of-arrays.

    The columnar twin of :class:`QueryRequest`: instead of one object
    per query, the batch carries parallel ``lo``/``hi`` integer arrays
    per named attribute — query ``i`` is the box formed by row ``i`` of
    every array, with unnamed attributes defaulting to their full
    domain.  Decoding a wire batch therefore costs one ndarray
    conversion and one vectorized validation pass per attribute, not
    O(queries) Python.

    Parameters
    ----------
    release:
        Name of the target release in the server's registry.
    ranges:
        Mapping ``{name: {"lo": [...], "hi": [...]}}`` (the wire form)
        or ``{name: (lo_array, hi_array)}``; all arrays must share one
        length ``n >= 1``.  At least one attribute is required — it is
        what defines the batch length.  Bounds must be integral
        (vectorized check; ``lo >= 0`` and ``lo <= hi`` are enforced
        here, the upper domain bound when the batch is bound to the
        release's schema).  ``lo == hi`` rows are *empty* boxes and
        answer an exact ``0.0`` with zero noise.
    confidence:
        Two-sided confidence level for every interval, in ``(0, 1)``.
    time_range:
        Optional half-open epoch window for stream-backed releases,
        exactly as on :class:`QueryRequest`.
    request_id:
        Opaque caller token echoed back on the batch response.
    """

    __slots__ = (
        "release", "names", "lows", "highs", "confidence", "time_range",
        "request_id",
    )

    def __init__(
        self,
        release: str,
        ranges,
        confidence: float = 0.95,
        time_range=None,
        request_id=None,
    ):
        if not isinstance(release, str) or not release:
            raise ServingError(
                f"request needs a non-empty release name, got {release!r}"
            )
        confidence = _confidence(confidence)
        time_range = _time_range(time_range)
        if not isinstance(ranges, dict) or not ranges:
            raise ServingError(
                "a columnar batch needs a non-empty 'ranges' object of "
                '{attribute: {"lo": [...], "hi": [...]}} — the arrays are '
                "what define the batch length"
            )
        names = tuple(sorted(str(name) for name in ranges))
        columns_lo, columns_hi = [], []
        count = None
        for name in names:
            lo_values, hi_values = _column_pair(name, ranges[name])
            lo = _bound_column(name, "lo", lo_values)
            hi = _bound_column(name, "hi", hi_values)
            if lo.shape != hi.shape:
                raise ServingError(
                    f"columnar lo/hi arrays for {name!r} differ in length: "
                    f"{lo.shape[0]} vs {hi.shape[0]}"
                )
            if count is None:
                count = lo.shape[0]
            elif lo.shape[0] != count:
                raise ServingError(
                    f"columnar arrays must share one length; {name!r} has "
                    f"{lo.shape[0]} rows, earlier attributes {count}"
                )
            columns_lo.append(lo)
            columns_hi.append(hi)
        if count == 0:
            raise ServingError("a columnar batch needs at least one query row")
        lows = np.stack(columns_lo, axis=1)
        highs = np.stack(columns_hi, axis=1)
        # One vectorized pass over the whole batch; the upper domain
        # bound is schema-dependent and checked at bind time.
        if lows.min() < 0 or np.any(lows > highs):
            bad = np.argwhere((lows < 0) | (lows > highs))[0]
            raise ServingError(
                f"invalid range [{lows[bad[0], bad[1]]}, "
                f"{highs[bad[0], bad[1]]}) on {names[bad[1]]!r} "
                f"(row {bad[0]}): need 0 <= lo <= hi"
            )
        lows.setflags(write=False)
        highs.setflags(write=False)
        self.release = release
        self.names = names
        self.lows = lows
        self.highs = highs
        self.confidence = confidence
        self.time_range = time_range
        self.request_id = request_id

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of queries in the batch."""
        return self.lows.shape[0]

    @property
    def plan_key(self) -> tuple:
        """The compiled-plan cache key: (release, attribute set, window).

        Everything that determines how the batch binds to an engine —
        and nothing that varies per query — so hot dashboard shapes
        (same release, same attribute columns, same window) share one
        compiled plan across batches.
        """
        return (self.release, self.names, self.time_range)

    def bind(self, schema, axes=None) -> tuple[np.ndarray, np.ndarray]:
        """Full ``(n, d)`` box-bound arrays against ``schema``.

        Unnamed attributes take their full domain; named columns are
        scattered into schema axis order, and the schema's upper domain
        bounds are enforced in one vectorized pass.

        Parameters
        ----------
        schema:
            The resolved release's :class:`~repro.data.schema.Schema`.
        axes:
            Optional precomputed ``schema.axes_of(self.names)`` (a
            compiled plan passes its cached copy).

        Returns
        -------
        tuple[numpy.ndarray, numpy.ndarray]
            ``(lows, highs)`` int64 arrays ready for
            :meth:`~repro.queries.engine.QueryEngine.answer_columnar`.
        """
        if axes is None:
            axes = schema.axes_of(self.names)
        sizes = np.asarray(schema.shape, dtype=np.int64)
        named_sizes = sizes[list(axes)]
        if np.any(self.highs > named_sizes):
            bad = np.argwhere(self.highs > named_sizes)[0]
            raise ServingError(
                f"range [{self.lows[bad[0], bad[1]]}, "
                f"{self.highs[bad[0], bad[1]]}) on {self.names[bad[1]]!r} "
                f"(row {bad[0]}) exceeds the domain size "
                f"{named_sizes[bad[1]]}"
            )
        count = len(self)
        lows = np.zeros((count, len(sizes)), dtype=np.int64)
        highs = np.broadcast_to(sizes, (count, len(sizes))).copy()
        lows[:, list(axes)] = self.lows
        highs[:, list(axes)] = self.highs
        return lows, highs

    @classmethod
    def from_dict(cls, payload) -> "QueryBatchRequest":
        """Build a columnar batch from a decoded wire payload.

        Parameters
        ----------
        payload:
            A JSON object with ``release`` (required), ``ranges``
            (required, ``{name: {"lo": [...], "hi": [...]}}``),
            ``confidence``, ``time_range``, ``id``, and an optional
            ``op`` (must be ``"query_batch"`` when present).

        Returns
        -------
        QueryBatchRequest
            The validated batch; any malformed field raises
            :class:`~repro.errors.ServingError`.
        """
        if not isinstance(payload, dict):
            raise ServingError(f"request must be a JSON object, got {payload!r}")
        unknown = set(payload) - {
            "release", "ranges", "confidence", "time_range", "id", "op",
        }
        if unknown:
            raise ServingError(f"unknown request fields: {sorted(unknown)}")
        if payload.get("op", "query_batch") != "query_batch":
            raise ServingError(
                f"expected op 'query_batch', got {payload.get('op')!r}"
            )
        if "release" not in payload:
            raise ServingError("request lacks the required 'release' field")
        if "ranges" not in payload:
            raise ServingError(
                "a columnar batch lacks the required 'ranges' field"
            )
        return cls(
            release=payload["release"],
            ranges=payload["ranges"],
            confidence=payload.get("confidence", 0.95),
            time_range=payload.get("time_range"),
            request_id=payload.get("id"),
        )

    def to_dict(self) -> dict:
        """The wire form of this batch (inverse of :meth:`from_dict`)."""
        payload = {
            "op": "query_batch",
            "release": self.release,
            "ranges": {
                name: {
                    "lo": self.lows[:, column].tolist(),
                    "hi": self.highs[:, column].tolist(),
                }
                for column, name in enumerate(self.names)
            },
            "confidence": self.confidence,
        }
        if self.time_range is not None:
            payload["time_range"] = list(self.time_range)
        if self.request_id is not None:
            payload["id"] = self.request_id
        return payload

    def __repr__(self) -> str:
        return (
            f"QueryBatchRequest(release={self.release!r}, "
            f"queries={len(self)}, attributes={list(self.names)})"
        )


@dataclass(frozen=True)
class QueryResponse:
    """A served answer: estimate, exact noise std, and interval."""

    release: str
    estimate: float
    noise_std: float
    lower: float
    upper: float
    confidence: float
    request_id: object = None

    def to_dict(self) -> dict:
        """The JSONL wire form (``ok: true``)."""
        return {
            "ok": True,
            "id": self.request_id,
            "release": self.release,
            "estimate": self.estimate,
            "noise_std": self.noise_std,
            "lower": self.lower,
            "upper": self.upper,
            "confidence": self.confidence,
        }


class BatchQueryResponse:
    """A served columnar batch: aligned answer/std/interval arrays.

    The structure-of-arrays twin of :class:`QueryResponse` — one
    response object (and one wire line) per *batch*, with all the
    per-query numbers as parallel arrays.  Encoding is vectorized:
    :meth:`to_json` is one ``ndarray.round``-free ``json.dumps`` over
    four ``tolist()`` columns, never N dict round-trips.  Indexing
    yields per-query :class:`QueryResponse` views for callers that want
    the scalar shape (the parity tests compare exactly these).

    Parameters
    ----------
    release:
        The release name the batch was answered against.
    estimates, noise_stds, lowers, uppers:
        Equal-length float arrays, aligned by query row.
    confidence:
        The two-sided coverage level of every interval.
    request_id:
        The caller token echoed from the request.
    """

    __slots__ = (
        "release", "estimates", "noise_stds", "lowers", "uppers",
        "confidence", "request_id",
    )

    def __init__(
        self,
        release: str,
        estimates,
        noise_stds,
        lowers,
        uppers,
        confidence: float,
        request_id=None,
    ):
        self.release = release
        self.estimates = np.asarray(estimates, dtype=np.float64)
        self.noise_stds = np.asarray(noise_stds, dtype=np.float64)
        self.lowers = np.asarray(lowers, dtype=np.float64)
        self.uppers = np.asarray(uppers, dtype=np.float64)
        self.confidence = float(confidence)
        self.request_id = request_id

    @classmethod
    def from_answers(
        cls, release: str, answers, request_id=None
    ) -> "BatchQueryResponse":
        """Wrap a :class:`~repro.queries.engine.BatchQueryAnswers`.

        The engine's arrays are adopted as-is (views, no copies) — this
        is the zero-copy half of the engine → wire handoff.
        """
        return cls(
            release=release,
            estimates=answers.estimates,
            noise_stds=answers.noise_stds,
            lowers=answers.lowers,
            uppers=answers.uppers,
            confidence=answers.confidence,
            request_id=request_id,
        )

    def __len__(self) -> int:
        return len(self.estimates)

    def __getitem__(self, index: int) -> QueryResponse:
        """Row ``index`` in the scalar response shape."""
        return QueryResponse(
            release=self.release,
            estimate=float(self.estimates[index]),
            noise_std=float(self.noise_stds[index]),
            lower=float(self.lowers[index]),
            upper=float(self.uppers[index]),
            confidence=self.confidence,
            request_id=self.request_id,
        )

    def __iter__(self):
        return (self[index] for index in range(len(self)))

    def to_dict(self) -> dict:
        """The JSONL wire form (``ok: true``, arrays by column)."""
        return {
            "ok": True,
            "id": self.request_id,
            "release": self.release,
            "count": len(self),
            "confidence": self.confidence,
            "estimates": self.estimates.tolist(),
            "noise_stds": self.noise_stds.tolist(),
            "lowers": self.lowers.tolist(),
            "uppers": self.uppers.tolist(),
        }

    def to_json(self) -> str:
        """One wire line for the whole batch (a single ``json.dumps``)."""
        return json.dumps(self.to_dict())

    def __repr__(self) -> str:
        return (
            f"BatchQueryResponse(release={self.release!r}, count={len(self)})"
        )


@dataclass(frozen=True)
class ErrorResponse:
    """A structured failure: machine-readable code plus a message."""

    code: str
    error: str
    request_id: object = None

    @classmethod
    def from_exception(cls, exc: Exception, request_id=None) -> "ErrorResponse":
        """Map an exception to its wire form.

        :class:`~repro.errors.ServingError` keeps its own ``code``;
        every other library error is a ``bad-request``; anything else is
        ``internal`` (and still never a traceback on the wire).
        """
        if isinstance(exc, ServingError):
            code = exc.code
        elif isinstance(exc, ReproError):
            code = "bad-request"
        else:
            code = "internal"
        return cls(code=code, error=str(exc), request_id=request_id)

    def to_dict(self) -> dict:
        """The JSONL wire form (``ok: false``)."""
        return {
            "ok": False,
            "id": self.request_id,
            "code": self.code,
            "error": self.error,
        }


def parse_request_line(line: str):
    """Decode one JSONL request line into its request object.

    Parameters
    ----------
    line:
        One line of the ``serve`` loop's stdin.

    Returns
    -------
    QueryRequest | QueryBatchRequest
        A scalar request, or — when the payload carries
        ``"op": "query_batch"`` — a columnar batch.  Malformed JSON
        raises :class:`~repro.errors.ServingError` so the loop can
        answer with a ``bad-request`` :class:`ErrorResponse` instead of
        crashing.
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServingError(f"malformed JSON request: {exc}") from exc
    if isinstance(payload, dict) and payload.get("op") == "query_batch":
        return QueryBatchRequest.from_dict(payload)
    return QueryRequest.from_dict(payload)
