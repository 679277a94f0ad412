"""Dyadic time-hierarchy math for streaming releases.

A stream is a sequence of **epochs** — disjoint time buckets, each
published once as its own release.  Because the buckets are disjoint in
rows, DP parallel composition lets every epoch spend the full ε; and
because the wavelet pipeline is linear, the coefficient tensors of two
published epochs can be *added* to obtain a release covering both — pure
post-processing, no fresh noise, no extra privacy cost.

Doing that addition along a dyadic tree gives every aligned power-of-two
span of epochs its own pre-merged node:

* a **node** ``(level, index)`` covers epochs
  ``[index * 2**level, (index + 1) * 2**level)``;
* closing epoch ``e`` completes the leaf ``(0, e)`` plus one internal
  node per trailing set bit of ``e + 1`` (:func:`merge_path`);
* any window ``[lo, hi)`` over closed epochs decomposes into the
  **canonical cover** (:func:`dyadic_cover`) of at most
  ``2 * ceil(log2(hi - lo))`` maximal nodes (:func:`cover_bound`),
  whose effective λs a window's exact variance sums (its answer reads
  the stream's running-prefix slices instead).

All functions here are pure integer math; the releases that hang off
the nodes live in :mod:`repro.streaming.release`.
"""

from __future__ import annotations

from repro.errors import StreamingError

__all__ = [
    "node_span",
    "merge_path",
    "dyadic_cover",
    "cover_bound",
]


def _check_window(lo: int, hi: int) -> tuple[int, int]:
    """Validate a half-open epoch window (empty windows are legal)."""
    lo, hi = int(lo), int(hi)
    if lo < 0 or hi < lo:
        raise StreamingError(f"invalid epoch window [{lo}, {hi})")
    return lo, hi


def node_span(level: int, index: int) -> tuple[int, int]:
    """The half-open epoch interval a tree node covers.

    Parameters
    ----------
    level:
        Tree level; a level-``k`` node spans ``2**k`` epochs.
    index:
        Position among the level's nodes, left to right.

    Returns
    -------
    tuple[int, int]
        ``(index * 2**level, (index + 1) * 2**level)``.
    """
    level, index = int(level), int(index)
    if level < 0 or index < 0:
        raise StreamingError(f"invalid tree node ({level}, {index})")
    return index << level, (index + 1) << level


def merge_path(epoch: int) -> list[tuple[int, int]]:
    """Every tree node completed by closing ``epoch``, leaf first.

    The leaf ``(0, epoch)`` always completes; an internal node at level
    ``k >= 1`` completes exactly when its span ends at ``epoch + 1``,
    i.e. when ``2**k`` divides ``epoch + 1`` — one node per trailing set
    bit of ``epoch + 1``.

    Parameters
    ----------
    epoch:
        The epoch index being closed (0-based).

    Returns
    -------
    list[tuple[int, int]]
        ``(level, index)`` pairs in merge order: the leaf, then each
        newly completed internal node bottom-up.
    """
    epoch = int(epoch)
    if epoch < 0:
        raise StreamingError(f"invalid epoch index {epoch}")
    nodes = [(0, epoch)]
    boundary = epoch + 1
    level = 1
    while boundary % (1 << level) == 0:
        nodes.append((level, (boundary >> level) - 1))
        level += 1
    return nodes


def dyadic_cover(lo: int, hi: int) -> list[tuple[int, int]]:
    """The canonical cover of ``[lo, hi)`` by maximal dyadic nodes.

    Greedily takes the largest node that starts at the running position,
    is aligned to its own size, and fits inside the window — the classic
    segment-tree decomposition.  The nodes are disjoint, sorted, cover
    the window exactly, and number at most :func:`cover_bound` of the
    window length.  Every returned node is *available* in any stream
    whose closed prefix contains the window: a node's span ends inside
    ``[0, hi)``, so it completed no later than epoch ``hi - 1``.

    Parameters
    ----------
    lo, hi:
        Half-open epoch window; ``lo == hi`` yields an empty cover.

    Returns
    -------
    list[tuple[int, int]]
        ``(level, index)`` pairs, ascending in time.
    """
    lo, hi = _check_window(lo, hi)
    nodes = []
    position = lo
    while position < hi:
        # Largest level both aligned at `position` and fitting in the
        # remaining window.
        alignment = (
            (position & -position).bit_length() - 1
            if position
            else (hi - position).bit_length()
        )
        level = min(alignment, (hi - position).bit_length() - 1)
        nodes.append((level, position >> level))
        position += 1 << level
    return nodes


def cover_bound(length: int) -> int:
    """Upper bound on the canonical cover size of a window of ``length``.

    ``2 * ceil(log2(length))`` for ``length >= 2`` (one ascending and
    one descending run of node sizes), 1 for a single epoch, 0 for an
    empty window.  Tests assert :func:`dyadic_cover` stays within it.

    Parameters
    ----------
    length:
        The window length in epochs.
    """
    length = int(length)
    if length < 0:
        raise StreamingError(f"invalid window length {length}")
    if length <= 1:
        return length
    return 2 * (length - 1).bit_length()
