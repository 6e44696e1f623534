"""Sparse region-by-point membership for vectorized counting.

* :class:`RegionMembership` — the precomputed sparse region-by-point
  membership matrix that turns Monte Carlo recounting into a single
  sparse mat-vec per batch of simulated worlds;
* :class:`StackedMembership` — several designs' matrices over the same
  points, stacked so a fused batch recounts every design at once.

Membership is exact: a row holds precisely the points that
:meth:`repro.geometry.Region.contains` accepts (closed rectangles,
closed discs).
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .geometry import RegionSet

__all__ = ["RegionMembership", "StackedMembership"]


class RegionMembership:
    """Sparse region-by-point membership matrix.

    The audit's Monte Carlo loop needs, for every simulated world, the
    per-region positive count.  With the membership matrix ``M``
    (``n_regions x n_points``, one where the point lies in the region)
    this is a single sparse matrix product ``M @ worlds`` for a whole
    batch of worlds — the design that keeps the scan O(worlds) instead
    of O(worlds x regions x point queries).

    The matrix is stored in a **canonical layout**: within every
    region row the member point indices are sorted ascending.  A cold
    build and an incrementally maintained matrix
    (:meth:`append_points` / :meth:`evict_points`) therefore hold
    byte-identical CSR arrays, which is what lets the streaming audit
    path prove itself bit-identical to a full rebuild (floating-point
    accumulation order in ``M @ worlds`` follows storage order).

    Parameters
    ----------
    regions : RegionSet
        Candidate regions (rectangles and/or circles).
    coords : ndarray of shape (n, 2)
        Observation locations.
    """

    def __init__(self, regions: RegionSet, coords: np.ndarray):
        from scipy import sparse

        coords = np.asarray(coords, dtype=np.float64)
        self.regions = regions
        self.n_points = len(coords)
        # Sort the points by x once; each region's x-span is then one
        # contiguous slice, filtered on y (and radius, for circles).
        order = np.argsort(coords[:, 0])
        xs = coords[order, 0]
        ys = coords[order, 1]
        rects = [region.rect for region in regions]
        lo = np.searchsorted(xs, [r.min_x for r in rects], side="left")
        hi = np.searchsorted(xs, [r.max_x for r in rects], side="right")
        sizes = np.zeros(len(regions), dtype=np.int64)
        chunks = []
        for r in np.flatnonzero(hi > lo).tolist():
            rect, a, b = rects[r], int(lo[r]), int(hi[r])
            y = ys[a:b]
            keep = (y >= rect.min_y) & (y <= rect.max_y)
            if regions[r].kind == "circle":
                cx, cy = rect.center
                d2 = (xs[a:b] - cx) ** 2 + (y - cy) ** 2
                keep &= d2 <= regions[r].radius**2
            # Canonical layout: sorted column indices per row (see the
            # class docstring — required for streamed bit-identity).
            chunks.append(np.sort(order[a:b][keep]))
            sizes[r] = len(chunks[-1])
        indptr = np.concatenate(([0], np.cumsum(sizes)))
        indices = (
            np.concatenate(chunks) if chunks else np.empty(0, np.int64)
        )
        # float64 membership data: the recount accumulates world sums
        # exactly up to 2**53 (float32 lost exactness past 2**24).
        self._matrix = sparse.csr_matrix(
            (
                np.ones(len(indices), dtype=np.float64),
                indices,
                indptr,
            ),
            shape=(len(regions), self.n_points),
        )
        self.counts = np.asarray(
            self._matrix.sum(axis=1)
        ).ravel().astype(np.int64)

    def __len__(self) -> int:
        return len(self.regions)

    def append_points(self, coords: np.ndarray) -> "RegionMembership":
        """Append newly arrived points as CSR columns, in place.

        Membership of the new points is computed against this index's
        regions only (a build over the delta), so the update costs
        O(delta) work instead of a full rebuild.  New points
        take column indices past the existing ones and every row keeps
        its indices sorted, so the updated matrix is **bit-identical**
        to a cold build over the concatenated coordinate array.

        Parameters
        ----------
        coords : ndarray of shape (k, 2)
            Coordinates of the appended points, in arrival order.

        Returns
        -------
        RegionMembership
            The delta membership over just the new points.
        """
        from scipy import sparse

        delta = RegionMembership(self.regions, coords)
        matrix = sparse.hstack(
            [self._matrix, delta._matrix], format="csr"
        )
        # Both blocks are row-sorted and the delta's indices all sit
        # past the old ones, so sorting restores the canonical layout.
        matrix.sort_indices()
        self._matrix = matrix
        self.n_points += delta.n_points
        self.counts = self.counts + delta.counts
        return delta

    def evict_points(self, keep: np.ndarray) -> None:
        """Drop expired points' CSR columns, in place.

        Surviving columns are renumbered in order, so the result is
        **bit-identical** to a cold build over ``coords[keep]``.

        Parameters
        ----------
        keep : bool ndarray of shape (n_points,)
            ``True`` for the points that stay.
        """
        keep = np.asarray(keep)
        if keep.dtype != np.bool_ or keep.shape != (self.n_points,):
            raise ValueError(
                "keep: expected a boolean mask of length "
                f"{self.n_points}, got dtype {keep.dtype} and shape "
                f"{keep.shape}"
            )
        matrix = self._matrix[:, keep].tocsr()
        matrix.sort_indices()
        self._matrix = matrix
        self.n_points = int(keep.sum())
        self.counts = np.asarray(
            matrix.sum(axis=1)
        ).ravel().astype(np.int64)

    def positive_counts(self, labels: np.ndarray) -> np.ndarray:
        """Per-region sum of a single label vector.

        Parameters
        ----------
        labels : ndarray of shape (n_points,)

        Returns
        -------
        ndarray of float64, shape (n_regions,)
        """
        return np.asarray(
            self._matrix @ np.asarray(labels, dtype=np.float64)
        )

    def positive_counts_batch(self, worlds: np.ndarray) -> np.ndarray:
        """Per-region sums for a batch of simulated worlds at once.

        Parameters
        ----------
        worlds : ndarray of shape (n_points, n_worlds)
            One column per simulated world (0/1 or weighted labels).

        Returns
        -------
        ndarray of float64, shape (n_regions, n_worlds)

        Notes
        -----
        The product runs in float64 end to end (via
        :func:`repro.kernels.membership_counts_batch`), so 0/1 world
        counts stay exact up to ``2**53``; the earlier float32 path
        lost integer exactness once counts approached ``2**24``.
        """
        return kernels.membership_counts_batch(self._matrix, worlds)

    def point_indices(self, region: int) -> np.ndarray:
        """Indices of the points inside region ``region``."""
        m = self._matrix
        return m.indices[m.indptr[region] : m.indptr[region + 1]]


class StackedMembership:
    """Several region designs' membership matrices over the *same*
    points, vertically stacked into one sparse matrix.

    The fused batch path simulates each null world once and must score
    every member design against it.  Stacking the designs' membership
    matrices turns that into a single sparse mat-vec per world batch —
    exactly the trick :class:`RegionMembership` plays for one design,
    lifted to a whole batch of audits.  :attr:`segments` maps stacked
    rows back to each member, and because CSR rows are computed
    independently, every statistic (and hence every audit verdict) is
    bit-identical to scoring the members one by one.

    The object quacks like :class:`RegionMembership` for the engine's
    :class:`repro.engine.LLRKernel` binding (``counts``,
    ``positive_counts``, ``positive_counts_batch``, ``len``).

    Parameters
    ----------
    members : sequence of RegionMembership
        Membership indexes built over the same coordinate array (the
        point counts must agree).

    Attributes
    ----------
    segments : list of (int, int)
        Half-open row span of each member in the stacked matrix.
    counts : ndarray of int64
        Concatenated per-region observation counts.
    """

    def __init__(self, members):
        from scipy import sparse

        members = list(members)
        if not members:
            raise ValueError(
                "members: need at least one RegionMembership to stack"
            )
        n_points = {m.n_points for m in members}
        if len(n_points) != 1:
            raise ValueError(
                "members: all stacked memberships must index the same "
                f"points, got point counts {sorted(n_points)}"
            )
        self.members = members
        self.n_points = members[0].n_points
        self._matrix = sparse.vstack(
            [m._matrix for m in members], format="csr"
        )
        self.counts = np.concatenate([m.counts for m in members])
        offsets = np.cumsum([0] + [len(m) for m in members])
        self.segments = [
            (int(offsets[i]), int(offsets[i + 1]))
            for i in range(len(members))
        ]

    def __len__(self) -> int:
        return self._matrix.shape[0]

    def positive_counts(self, labels: np.ndarray) -> np.ndarray:
        """Per-region sum of a single label vector, all members at once.

        Parameters
        ----------
        labels : ndarray of shape (n_points,)

        Returns
        -------
        ndarray of float64, shape (sum of member region counts,)
        """
        return np.asarray(
            self._matrix @ np.asarray(labels, dtype=np.float64)
        )

    def positive_counts_batch(self, worlds: np.ndarray) -> np.ndarray:
        """Per-region sums for a batch of worlds, all members at once.

        Parameters
        ----------
        worlds : ndarray of shape (n_points, n_worlds)

        Returns
        -------
        ndarray of float64, shape (sum of member region counts, n_worlds)

        Notes
        -----
        Exact in float64 up to ``2**53``, as in
        :meth:`RegionMembership.positive_counts_batch`.
        """
        return kernels.membership_counts_batch(self._matrix, worlds)

    def split(self, stacked: np.ndarray) -> list:
        """Slice a stacked per-region array back into member arrays.

        Parameters
        ----------
        stacked : ndarray whose leading axis is stacked regions

        Returns
        -------
        list of ndarray, one per member (views, not copies)
        """
        return [stacked[a:b] for a, b in self.segments]
