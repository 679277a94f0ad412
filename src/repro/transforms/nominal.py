"""The nominal wavelet transform (paper §V).

Given a one-dimensional frequency vector over a nominal domain and the
domain's hierarchy ``H``, the transform builds a decomposition tree ``R``
by attaching one value node under each leaf of ``H`` and emits **one
coefficient per node of H** (Figure 3):

* the **base coefficient** (root) is the *leaf-sum* of the whole vector;
* every other node's coefficient is its leaf-sum minus the **average
  leaf-sum of its parent's children**.

The transform is *over-complete*: it emits ``hierarchy.num_nodes``
coefficients for ``hierarchy.num_leaves`` inputs; the surplus equals the
number of internal nodes, which is small for practical hierarchies.

Reconstruction (Equation 5) recovers each entry from its ancestors'
coefficients by accumulating estimated leaf-sums down the tree::

    leafsum(root)  = c0
    leafsum(N)     = c(N) + leafsum(parent(N)) / fanout(parent(N))
    value(leaf L)  = leafsum(L)

Weights (§V-B)::

    W_Nom(base) = 1
    W_Nom(c)    = f / (2f - 2)     f = fanout of c's parent in R

Refinement — **mean subtraction** (§V-B): within every sibling group of
noisy coefficients, subtract the group mean.  True coefficients in a
sibling group sum to zero by construction, so this re-centres the noise
without consulting the data, and it is what drives the Lemma 5 variance
bound of ``< 4 sigma^2`` per query.

Coefficients are stored in the hierarchy's level order (root first;
children of one parent contiguous), satisfying the §VI-A layout rule and
making sibling groups plain slices.

Both directions walk the same sibling groups with elementwise numpy
only: the forward pass sums leaf-sums bottom-up into a scratch of one
slab per internal node and writes each child's coefficient straight
into the caller's array, and Equation 5 runs top-down the same way.
Neither allocates anything the size of its output.
"""

from __future__ import annotations

import numpy as np

from repro.data.hierarchy import Hierarchy
from repro.errors import TransformError
from repro.transforms.base import OneDimensionalTransform

__all__ = ["NominalTransform", "mean_subtract"]


def mean_subtract(coefficients: np.ndarray, groups: list[slice]) -> np.ndarray:
    """Subtract the per-sibling-group mean from ``coefficients`` (copy).

    Operates along axis 0; the base coefficient (never inside a group) is
    untouched.  This uses only the (noisy) coefficients, never the data —
    the property §III-A requires of a refinement step.
    """
    out = np.array(coefficients, dtype=np.float64, copy=True)
    for group in groups:
        out[group] -= out[group].mean(axis=0, keepdims=True)
    return out


class NominalTransform(OneDimensionalTransform):
    """Nominal wavelet transform bound to one hierarchy."""

    def __init__(self, hierarchy: Hierarchy):
        if not isinstance(hierarchy, Hierarchy):
            raise TransformError("hierarchy must be a Hierarchy instance")
        self.hierarchy = hierarchy
        self.input_length = hierarchy.num_leaves
        self.output_length = hierarchy.num_nodes
        self._groups = hierarchy.sibling_groups()

        # Precomputed flat arrays (level order).
        self._parent = hierarchy.parent_array
        self._fanout = hierarchy.fanout_array
        self._leaf_start = hierarchy.leaf_start_array
        self._leaf_end = hierarchy.leaf_end_array
        self._levels = [hierarchy.level_slice(lvl) for lvl in range(1, hierarchy.height + 1)]
        # Node ids of the hierarchy's leaves, ordered by DFS leaf index.
        self._leaf_node_ids = np.asarray(
            [hierarchy.node_id_of_leaf(i) for i in range(hierarchy.num_leaves)],
            dtype=np.int64,
        )
        # Equation 5 as a walk over sibling groups, parents in level
        # order.  Each group's children split into runs of leaves (which
        # land in consecutive leaf positions) and of internal nodes
        # (consecutive scratch slots): ``[first, last, to_leaves, target]``.
        internal = [
            node for node in range(self.output_length) if not hierarchy.is_leaf(node)
        ]
        slots = {node: slot for slot, node in enumerate(internal)}
        self._group_runs = []
        for parent in internal:
            runs = []
            for child in hierarchy.children(parent):
                to_leaves = bool(hierarchy.is_leaf(child))
                if runs and runs[-1][2] == to_leaves:
                    runs[-1][1] += 1
                else:
                    target = int(self._leaf_start[child]) if to_leaves else slots[child]
                    runs.append([child, child + 1, to_leaves, target])
            self._group_runs.append(runs)
        self._profile_table_cache = None

    # ------------------------------------------------------------------
    def forward_into(self, values: np.ndarray, out: np.ndarray) -> None:
        """Leaf-sums and coefficients in one bottom-up pass into ``out``.

        Internal nodes' leaf-sums live in a scratch array of one slab per
        internal node, filled deepest first.  Each is the sum of its
        children's leaf-sums in child order (elementwise adds only, like
        :meth:`inverse_into`'s mean), so its bits do not depend on memory
        layout.  The children are then written straight into ``out`` as
        their leaf-sum minus the parent's leaf-sum over its fanout.
        """
        if not self._group_runs:  # the root is the only node
            out[0] = values[0]
            return
        sums = np.empty((len(self._group_runs),) + values.shape[1:])
        for slot in reversed(range(len(self._group_runs))):
            runs = self._group_runs[slot]
            children = [
                (values if to_leaves else sums)[target : target + last - first]
                for first, last, to_leaves, target in runs
            ]
            rows = [row for run in children for row in run]
            total = sums[slot, ...]  # a view, also on 1-D input
            np.copyto(total, rows[0])
            for row in rows[1:]:
                total += row
            share = total / len(rows)
            for (first, last, _, _), run in zip(runs, children):
                np.subtract(run, share, out=out[first:last])
        out[0] = sums[0]  # base coefficient: the total leaf-sum

    def inverse_into(
        self, coefficients: np.ndarray, out: np.ndarray, *, refine: bool = False
    ) -> None:
        """Equation 5 written into ``out``; ``refine=True`` mean-subtracts.

        Leaf values land straight in ``out``; internal nodes' leaf-sums
        live in a scratch array of one slab per internal node.  The
        refinement subtracts each sibling group's mean as the group is
        read, so the coefficients are never copied, and the mean is a sum
        in node order (elementwise adds only), so its bits do not depend
        on memory layout.
        """
        if not self._group_runs:  # the root is the only node
            out[0] = coefficients[0]
            return
        sums = np.empty((len(self._group_runs),) + coefficients.shape[1:])
        sums[0] = coefficients[0]
        for slot, runs in enumerate(self._group_runs):
            start, stop = runs[0][0], runs[-1][1]
            share = sums[slot] / (stop - start)
            if refine:
                mean = coefficients[start].copy()
                for node in range(start + 1, stop):
                    mean += coefficients[node]
                mean /= stop - start
            for first, last, to_leaves, target in runs:
                into = (out if to_leaves else sums)[target : target + last - first]
                if refine:
                    np.subtract(coefficients[first:last], mean, out=into)
                    into += share
                else:
                    np.add(coefficients[first:last], share, out=into)

    def refine(self, coefficients: np.ndarray) -> np.ndarray:
        """The §V-B mean-subtraction step, exposed for tests and ablations."""
        return mean_subtract(self._check_inverse_input(coefficients), self._groups)

    # ------------------------------------------------------------------
    # Range adjoints and profiles
    # ------------------------------------------------------------------
    # The refined reconstruction is x = L M c with M the mean-subtraction
    # map and L the Equation-5 accumulation, so g = M^T L^T r.  The
    # coefficient of c(N) in a leaf value is the product of 1/fanout down
    # N's path, which gives (L^T r)(N) the bottom-up recurrence
    #
    #     t(leaf node) = r(leaf),   t(N) = sum_children t(C) / fanout(N)
    #
    # and M is symmetric per sibling group (I - J/f), so M^T = M is just
    # another mean subtraction: g(root) = t(root), g(C) = t(C) - t(P)
    # for a child C of P.  With 1/W = (2f - 2)/f across P's children the
    # range profile is
    #
    #     t(root)^2 + sum_P ((2f_P - 2)/f_P)^2 (sum_C t(C)^2 - f_P t(P)^2)
    #
    # which range_profiles reads from a table of every (lo, hi) pair.

    def _read_profiles(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        # One read of the exact (m+1) x (m+1) range table per range.
        return self._profile_table()[highs, lows]

    def _profile_table(self) -> np.ndarray:
        """Profile of ``[lo, hi)`` at ``[hi, lo]``, built on first use.

        The build is deterministic, so two threads racing to build it
        store the same array and no lock is needed.
        """
        table = self._profile_table_cache
        if table is None:
            table = self._profile_table_cache = self._build_profile_table()
        return table

    def _build_profile_table(self) -> np.ndarray:
        """Every range profile, one leaf ``x`` at a time.

        Extending every range ``[lo, x)`` with ``lo <= x`` by leaf ``x``
        raises ``t`` along the leaf's root path by the same amount for
        every ``lo``: 1 at the leaf, divided by each fanout going up.
        Raising ``t(C)`` by ``d`` and ``t(P)`` by ``d / f`` changes P's
        profile term by ``c (2 d (t(C) - t(P)) + d^2 (1 - 1/f))``, so row
        ``x + 1`` follows from row ``x`` with O(height) vector updates
        over ``lo``.  Only elementwise numpy is used, so every entry is
        the same sequence of float operations in any process.
        """
        size = self.input_length + 1
        table = np.zeros((size, size), dtype=np.float64)
        # t(N) over lo for the ranges [lo, x), for N on leaf x's path.
        sums: dict[int, np.ndarray] = {}
        for x, leaf in enumerate(self._leaf_node_ids):
            lows = slice(0, x + 1)
            change = np.zeros(x + 1, dtype=np.float64)
            constant = 0.0
            below, rise, node = None, 1.0, int(leaf)
            raised = []
            while node > 0:
                parent = int(self._parent[node])
                fanout = float(self._fanout[parent])
                scale = ((2.0 * fanout - 2.0) / fanout) ** 2
                if parent not in sums:
                    sums[parent] = np.zeros(size, dtype=np.float64)
                above = sums[parent][lows]
                gap = -above if below is None else below - above
                change += (2.0 * scale * rise) * gap
                constant += scale * rise * rise * (1.0 - 1.0 / fanout)
                rise /= fanout
                raised.append((above, rise))
                below, node = above, parent
            if below is not None:
                change += (2.0 * rise) * below
            constant += rise * rise
            change += constant
            np.add(table[x, lows], change, out=table[x + 1, lows])
            for above, amount in raised:
                above += amount
            for node in [n for n in sums if self._leaf_end[n] == x + 1]:
                del sums[node]
        return table

    def adjoint_range(self, lo: int, hi: int) -> np.ndarray:
        """``R^T r`` including mean subtraction; no dense matrix built."""
        lo, hi = self._check_range(lo, hi)
        return self.adjoint_ranges([lo], [hi])[0]

    def adjoint_ranges(self, lows, highs) -> np.ndarray:
        """Batch adjoints, shape ``(n, num_nodes)``."""
        lows, highs = self._check_ranges(lows, highs)
        positions = np.arange(self.input_length, dtype=np.int64)
        indicator = (
            (positions[:, None] >= lows[None, :])
            & (positions[:, None] < highs[None, :])
        ).astype(np.float64)
        transported = np.zeros((self.output_length, lows.shape[0]), dtype=np.float64)
        transported[self._leaf_node_ids] = indicator
        # Deepest level first; level 1 is the root and receives only.
        for level_slice in reversed(self._levels[1:]):
            ids = np.arange(level_slice.start, level_slice.stop)
            parents = self._parent[ids]
            np.add.at(
                transported,
                parents,
                transported[ids] / self._fanout[parents][:, None],
            )
        return mean_subtract(transported, self._groups).T

    # ------------------------------------------------------------------
    def weight_vector(self) -> np.ndarray:
        weights = np.ones(self.output_length, dtype=np.float64)
        if self.output_length > 1:
            parents = self._parent[1:]
            fanouts = self._fanout[parents].astype(np.float64)
            weights[1:] = fanouts / (2.0 * fanouts - 2.0)
        return weights

    def sensitivity_factor(self) -> float:
        """Lemma 4: generalized sensitivity ``h`` w.r.t. ``W_Nom``."""
        return float(self.hierarchy.height)

    def variance_factor(self) -> float:
        """Lemma 5 / §VI-C: ``H(A) = 4``."""
        return 4.0

    def __repr__(self) -> str:
        return (
            f"NominalTransform(leaves={self.input_length}, "
            f"nodes={self.output_length}, height={self.hierarchy.height})"
        )
