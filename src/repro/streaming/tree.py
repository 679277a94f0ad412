"""The canonical dyadic cover of an epoch window.

A stream is its per-epoch leaves: a window ``[lo, hi)`` answers from two
running-prefix slices and its variance from ``hi - lo`` leaf λs, so no
serving path decomposes a window any more.  :func:`dyadic_cover` stays
because the repository benchmark imports it from :mod:`repro` for its
own ``streaming.cover_nodes_mean`` metric (ROADMAP item 2 retires that
metric, and this module with it).
"""

from __future__ import annotations

from repro.errors import StreamingError

__all__ = ["dyadic_cover"]


def dyadic_cover(lo: int, hi: int) -> list[tuple[int, int]]:
    """The canonical cover of ``[lo, hi)`` by maximal dyadic nodes.

    Greedily takes the largest node ``(level, index)`` — the epochs
    ``[index * 2**level, (index + 1) * 2**level)`` — that starts at the
    running position, is aligned to its own size, and fits inside the
    window: the classic segment-tree decomposition.  The nodes are
    disjoint, sorted, cover the window exactly, and number at most
    ``2 * ceil(log2(hi - lo))``.  No serving path calls it: it stays for
    the repository benchmark's ``streaming.cover_nodes_mean`` until
    ROADMAP item 2 retires that metric.

    Parameters
    ----------
    lo, hi:
        Half-open epoch window; ``lo == hi`` yields an empty cover.

    Returns
    -------
    list[tuple[int, int]]
        ``(level, index)`` pairs, ascending in time.
    """
    lo, hi = int(lo), int(hi)
    if lo < 0 or hi < lo:
        raise StreamingError(f"invalid epoch window [{lo}, {hi})")
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
