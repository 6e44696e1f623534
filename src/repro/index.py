"""Spatial indexes for vectorized point-in-region counting.

Three backends answer the audit's counting queries:

* :class:`KDTree` — a 2-d kd-tree with bounding-box pruning; the
  default for arbitrary rectangle queries;
* :class:`GridIndex` — a uniform bucket grid; fastest when query
  extents match the bucket size;
* :class:`RegionMembership` — the precomputed sparse region-by-point
  membership matrix that turns Monte Carlo recounting into a single
  sparse mat-vec per batch of simulated worlds.

All backends return exact counts and agree with brute force.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .geometry import Rect, RegionSet

__all__ = ["KDTree", "GridIndex", "RegionMembership", "StackedMembership"]


class KDTree:
    """A 2-d kd-tree over ``(n, 2)`` points supporting rectangle queries.

    The tree is built once (median splits, array-backed nodes) and then
    answers :meth:`count` and :meth:`query_indices` by descending with
    bounding-box pruning: subtrees wholly inside the query are counted
    without touching their points, subtrees wholly outside are skipped.

    Parameters
    ----------
    coords : ndarray of shape (n, 2)
        Point coordinates.  The tree stores a permutation of indices
        into this array.
    leaf_size : int, default 64
        Maximum number of points in a leaf node.
    """

    def __init__(self, coords: np.ndarray, leaf_size: int = 64):
        coords = np.asarray(coords, dtype=np.float64)
        self.coords = coords
        self.leaf_size = int(leaf_size)
        n = len(coords)
        self._idx = np.arange(n, dtype=np.int64)
        # Flat node arrays, appended during construction.
        self._start: list[int] = []
        self._end: list[int] = []
        self._bbox: list[tuple[float, float, float, float]] = []
        self._left: list[int] = []
        self._right: list[int] = []
        if n:
            self._build(0, n, 0)

    def _build(self, start: int, end: int, depth: int) -> int:
        node = len(self._start)
        self._start.append(start)
        self._end.append(end)
        sub = self.coords[self._idx[start:end]]
        mn = sub.min(axis=0)
        mx = sub.max(axis=0)
        self._bbox.append(
            (float(mn[0]), float(mn[1]), float(mx[0]), float(mx[1]))
        )
        self._left.append(-1)
        self._right.append(-1)
        if end - start > self.leaf_size:
            axis = depth % 2
            mid = (start + end) // 2
            part = self._idx[start:end]
            order = np.argpartition(
                self.coords[part, axis], mid - start
            )
            self._idx[start:end] = part[order]
            self._left[node] = self._build(start, mid, depth + 1)
            self._right[node] = self._build(mid, end, depth + 1)
        return node

    def _visit(self, rect: Rect) -> list:
        """Shared traversal: returns (start, end, full) index spans."""
        spans = []
        if not self._start:
            return spans
        stack = [0]
        qx0, qy0 = rect.min_x, rect.min_y
        qx1, qy1 = rect.max_x, rect.max_y
        while stack:
            node = stack.pop()
            bx0, by0, bx1, by1 = self._bbox[node]
            if bx0 > qx1 or bx1 < qx0 or by0 > qy1 or by1 < qy0:
                continue
            if bx0 >= qx0 and bx1 <= qx1 and by0 >= qy0 and by1 <= qy1:
                spans.append((self._start[node], self._end[node], True))
                continue
            left = self._left[node]
            if left < 0:
                spans.append((self._start[node], self._end[node], False))
            else:
                stack.append(left)
                stack.append(self._right[node])
        return spans

    def count(self, rect: Rect) -> int:
        """Exact number of points inside the closed rectangle.

        Parameters
        ----------
        rect : Rect

        Returns
        -------
        int
        """
        total = 0
        for start, end, full in self._visit(rect):
            if full:
                total += end - start
            else:
                pts = self.coords[self._idx[start:end]]
                total += int(rect.contains(pts).sum())
        return total

    def query_indices(self, rect: Rect) -> np.ndarray:
        """Indices (into the original array) of points inside ``rect``.

        Parameters
        ----------
        rect : Rect

        Returns
        -------
        ndarray of int64
        """
        chunks = []
        for start, end, full in self._visit(rect):
            idx = self._idx[start:end]
            if full:
                chunks.append(idx)
            else:
                pts = self.coords[idx]
                chunks.append(idx[rect.contains(pts)])
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)


class GridIndex:
    """A uniform bucket grid for exact rectangle counting.

    Points are bucketed once into an ``nx x ny`` grid; a query counts
    fully-covered buckets from precomputed sizes and inspects only the
    boundary buckets' points.

    Parameters
    ----------
    coords : ndarray of shape (n, 2)
    n_cells_hint : int, optional
        Target total bucket count; defaults to roughly one point per
        bucket capped at 16384.
    """

    def __init__(self, coords: np.ndarray, n_cells_hint: int | None = None):
        coords = np.asarray(coords, dtype=np.float64)
        self.coords = coords
        n = len(coords)
        if n_cells_hint is None:
            n_cells_hint = int(min(max(n, 16), 16_384))
        side = max(1, int(np.sqrt(n_cells_hint)))
        self.nx = self.ny = side
        bounds = Rect.bounding(coords) if n else Rect(0, 0, 1, 1)
        # A hair of margin so max-coordinate points land inside.
        eps_x = (bounds.width or 1.0) * 1e-9
        eps_y = (bounds.height or 1.0) * 1e-9
        self.x_edges = np.linspace(
            bounds.min_x, bounds.max_x + eps_x, side + 1
        )
        self.y_edges = np.linspace(
            bounds.min_y, bounds.max_y + eps_y, side + 1
        )
        ix = np.clip(
            np.searchsorted(self.x_edges, coords[:, 0], side="right") - 1,
            0,
            side - 1,
        )
        iy = np.clip(
            np.searchsorted(self.y_edges, coords[:, 1], side="right") - 1,
            0,
            side - 1,
        )
        cell = iy * side + ix
        order = np.argsort(cell, kind="stable")
        self._order = order.astype(np.int64)
        counts = np.bincount(cell, minlength=side * side)
        self._offsets = np.concatenate(([0], np.cumsum(counts)))

    def _cell_slice(self, ix: int, iy: int) -> np.ndarray:
        c = iy * self.nx + ix
        return self._order[self._offsets[c] : self._offsets[c + 1]]

    def count(self, rect: Rect) -> int:
        """Exact number of points inside the closed rectangle."""
        ix0 = int(
            np.clip(
                np.searchsorted(self.x_edges, rect.min_x, "right") - 1,
                0,
                self.nx - 1,
            )
        )
        ix1 = int(
            np.clip(
                np.searchsorted(self.x_edges, rect.max_x, "right") - 1,
                0,
                self.nx - 1,
            )
        )
        iy0 = int(
            np.clip(
                np.searchsorted(self.y_edges, rect.min_y, "right") - 1,
                0,
                self.ny - 1,
            )
        )
        iy1 = int(
            np.clip(
                np.searchsorted(self.y_edges, rect.max_y, "right") - 1,
                0,
                self.ny - 1,
            )
        )
        total = 0
        for iy in range(iy0, iy1 + 1):
            inner_y = (
                self.y_edges[iy] >= rect.min_y
                and self.y_edges[iy + 1] <= rect.max_y
            )
            for ix in range(ix0, ix1 + 1):
                idx = self._cell_slice(ix, iy)
                if not len(idx):
                    continue
                inner = (
                    inner_y
                    and self.x_edges[ix] >= rect.min_x
                    and self.x_edges[ix + 1] <= rect.max_x
                )
                if inner:
                    total += len(idx)
                else:
                    total += int(rect.contains(self.coords[idx]).sum())
        return total


class RegionMembership:
    """Sparse region-by-point membership matrix.

    The audit's Monte Carlo loop needs, for every simulated world, the
    per-region positive count.  With the membership matrix ``M``
    (``n_regions x n_points``, one where the point lies in the region)
    this is a single sparse matrix product ``M @ worlds`` for a whole
    batch of worlds — the design that keeps the scan O(worlds) instead
    of O(worlds x regions x tree queries).

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
    kdtree : KDTree, optional
        A prebuilt tree over ``coords``; built on demand otherwise.
    """

    def __init__(
        self,
        regions: RegionSet,
        coords: np.ndarray,
        kdtree: KDTree | None = None,
    ):
        from scipy import sparse

        coords = np.asarray(coords, dtype=np.float64)
        self.regions = regions
        self.n_points = len(coords)
        if kdtree is None:
            kdtree = KDTree(coords)
        indptr = np.zeros(len(regions) + 1, dtype=np.int64)
        chunks = []
        for r, region in enumerate(regions):
            idx = kdtree.query_indices(region.rect)
            if region.kind == "circle" and len(idx):
                cx, cy = region.rect.center
                pts = coords[idx]
                d2 = (pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2
                idx = idx[d2 <= region.radius**2]
            # Canonical layout: sorted column indices per row (see the
            # class docstring — required for streamed bit-identity).
            chunks.append(np.sort(idx))
            indptr[r + 1] = indptr[r] + len(idx)
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
        regions only (a small kd-tree over the delta), so the update
        costs O(delta) queries instead of a full rebuild.  New points
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
            The delta membership over just the new points —
            :class:`StackedMembership` reuses it to extend stacked
            matrices without recomputing the queries.
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

    def append_points(self, coords: np.ndarray) -> None:
        """Append newly arrived points to every member, in place.

        Each distinct member (deduplicated by identity, so a shared
        :class:`RegionMembership` is only updated once) appends the new
        CSR columns via :meth:`RegionMembership.append_points`; the
        stacked matrix is then re-stacked from the members' canonical
        matrices, which is bit-identical to a cold
        :class:`StackedMembership` build over the grown members and
        costs only a sparse copy — the kd-tree queries are the
        incremental part.

        Parameters
        ----------
        coords : ndarray of shape (k, 2)
            Coordinates of the appended points, in arrival order.
        """
        from scipy import sparse

        seen: set = set()
        for member in self.members:
            if id(member) in seen:
                continue
            seen.add(id(member))
            member.append_points(coords)
        self.n_points = self.members[0].n_points
        self._matrix = sparse.vstack(
            [m._matrix for m in self.members], format="csr"
        )
        self.counts = np.concatenate([m.counts for m in self.members])

    def evict_points(self, keep: np.ndarray) -> None:
        """Drop expired points from every member, in place.

        Parameters
        ----------
        keep : bool ndarray of shape (n_points,)
            ``True`` for the points that stay.
        """
        from scipy import sparse

        seen: set = set()
        for member in self.members:
            if id(member) in seen:
                continue
            seen.add(id(member))
            member.evict_points(keep)
        self.n_points = self.members[0].n_points
        self._matrix = sparse.vstack(
            [m._matrix for m in self.members], format="csr"
        )
        self.counts = np.concatenate([m.counts for m in self.members])

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
