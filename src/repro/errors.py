"""Exception hierarchy for the :mod:`repro` library.

All errors raised deliberately by this library derive from
:class:`ReproError`, so callers can catch a single base class.  The
subclasses mirror the major subsystems: data modelling, hierarchy
construction, transforms, query evaluation, and privacy accounting.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class SchemaError(ReproError):
    """A schema, attribute, or table definition is invalid."""


class HierarchyError(SchemaError):
    """A nominal-attribute hierarchy violates a structural requirement.

    The nominal wavelet transform requires every internal node to have a
    fanout of at least two (otherwise the weight ``f / (2f - 2)`` of
    :meth:`repro.transforms.nominal.NominalTransform.weight_vector` is
    undefined).
    """


class TransformError(ReproError):
    """A wavelet transform was applied to incompatible input."""


class QueryError(ReproError):
    """A range-count query is malformed or incompatible with its schema."""


class PrivacyError(ReproError):
    """A privacy parameter (epsilon, lambda, sensitivity) is invalid."""


class StreamingError(ReproError):
    """A streaming-ingestion operation is invalid.

    Raised by :mod:`repro.streaming` for malformed epoch windows, rows
    whose timestamps land in an epoch that has already been published
    (late arrivals cannot be added to a released epoch), and stream
    archives whose release tree is inconsistent with their node members.
    """


class ServingError(ReproError):
    """A serving-layer request cannot be satisfied.

    Raised by :mod:`repro.serving` for registry problems (unknown or
    duplicate release names), malformed :class:`~repro.serving.requests.
    QueryRequest` payloads, and use-after-close of a
    :class:`~repro.serving.server.ReleaseServer`.  Wire-facing loops (the
    ``serve`` CLI) translate it into a structured error response instead
    of a traceback; :attr:`code` is the machine-readable response code.
    """

    def __init__(self, message: str, *, code: str = "bad-request"):
        super().__init__(message)
        #: Machine-readable error code carried into wire responses
        #: (e.g. ``unknown-release``, ``bad-request``, ``closed``).
        self.code = code
