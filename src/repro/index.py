"""Sparse region-by-point membership for vectorized counting.

* :class:`RegionMembership` — the precomputed sparse region-by-point
  membership matrix that turns Monte Carlo recounting into a single
  sparse mat-vec per batch of simulated worlds;
* :class:`StackedMembership` — several designs' matrices over the same
  points, stacked so a fused batch recounts every design at once.

Membership is exact: a region holds precisely the points that
:meth:`repro.geometry.Region.contains` accepts (closed rectangles,
closed discs).

Each membership is **one** column-major (CSC) matrix: one column per
point, listing the rows that hold it, ascending.  A column depends on
its point alone, so a stream's arrivals append columns and an eviction
keeps a subset of them.  A grid design (a region set from
:func:`repro.geometry.partition_region_set`, which records its
partitioning as :attr:`repro.geometry.RegionSet.grid`) **bins** its
points: one vectorised lookup per axis finds each point's cell range
(one cell, two on an inner edge, every cell on a zero-width axis, none
outside the edges), and the (point, cell) pairs are the columns.
Every other design is built one nest at a time and transposed once.
Both builds give byte-identical arrays for the same cells.

The matrix follows a **nest layout**.  Scan designs are nests: each
centre has a sequence of growing squares (or circles), so every region
contains the previous one from the same centre.  The matrix holds each
nest's *rings* — each region's row minus the row of the next smaller
region in its nest — and every per-region sum (counts, world recounts)
is a ring sum followed by a cumulative sum along every nest.  World
values are integers, so every partial sum is an exact float64 below
``2**53`` and the result is bit-identical to the full-matrix product.
Regions that nest with nothing (grid cells, arbitrary rectangles) are
nests of length 1, whose ring row is the full row.

A membership is **disjoint** when no point lies in two of its regions
(:attr:`RegionMembership.disjoint`) — every grid partitioning whose
cell edges hold no point.  The engine simulates such a design's null
worlds one count per region (plus one remainder unit for the points
in no region) and never recounts them.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .geometry import RegionSet

__all__ = ["RegionMembership", "StackedMembership"]


def _nest_size(region) -> tuple:
    """Sort key that puts every region after the regions it contains."""
    rect = region.rect
    return (region.radius, rect.width, rect.height)


def _nests_in(outer, inner) -> bool:
    """Whether every point of ``inner`` is a point of ``outer``, decided
    from the geometry alone (so it holds for any point set).

    Membership is a closed-rectangle test, plus ``d2 <= radius**2``
    about ``rect.center`` for circles; containing rectangles and, for
    circles, the same centre and a radius no smaller imply containing
    rows under exactly those float comparisons.
    """
    a, b = inner.rect, outer.rect
    if not (
        b.min_x <= a.min_x
        and a.max_x <= b.max_x
        and b.min_y <= a.min_y
        and a.max_y <= b.max_y
    ):
        return False
    if outer.kind == "circle":
        return inner.radius <= outer.radius and a.center == b.center
    return True


def _nest_layout(regions) -> tuple:
    """The nest layout of a region set: ``(nests, blocks)``.

    Regions of one ``(kind, center_id)`` are sorted by size (the
    caller's sides or radii may be unsorted or repeated) and chained
    while each contains the previous one; a chain that breaks starts a
    new nest.  ``nests`` lists every nest's region indices (inner to
    outer) in layout order: by length, so equal-length nests form one
    ``(start, count, length)`` block of consecutive layout rows.  A
    design without nests of length two or more keeps region order, one
    region per nest, and gets no blocks.
    """
    regions = list(regions)
    singles = [[r] for r in range(len(regions))]
    keys = [(region.kind, region.center_id) for region in regions]
    if len(set(keys)) == len(keys):
        return singles, ()
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    sizes = [_nest_size(region) for region in regions]
    nests = []
    for group in groups.values():
        group.sort(key=sizes.__getitem__)
        nest = [group[0]]
        for inner, outer in zip(group, group[1:]):
            if _nests_in(regions[outer], regions[inner]):
                nest.append(outer)
            else:
                nests.append(nest)
                nest = [outer]
        nests.append(nest)
    if max(len(nest) for nest in nests) < 2:
        return singles, ()
    nests.sort(key=len)
    blocks = []
    start = 0
    for length in sorted({len(nest) for nest in nests}):
        count = sum(len(nest) == length for nest in nests)
        if length > 1:
            blocks.append((start, count, length))
        start += count * length
    return nests, tuple(blocks)


def _inverse(nests):
    """``perm`` with ``perm[r]`` the layout row of region ``r``;
    ``None`` when the layout keeps region order."""
    order = np.concatenate(nests)
    if np.array_equal(order, np.arange(len(order))):
        return None
    perm = np.empty(len(order), dtype=np.intp)
    perm[order] = np.arange(len(order))
    return perm


def _nest_levels(regions, nest, x, y) -> np.ndarray:
    """Position in ``nest`` (inner to outer) of the smallest region
    holding each point of its outermost region.

    Containment is chained, so every bound is monotone along the nest
    and each of the build's membership comparisons becomes one binary
    search over the nest, made on the same float values.
    """
    rects = [regions[i].rect for i in nest]
    level = np.searchsorted([-r.min_x for r in rects], -x)
    for bounds, values in (
        ([r.max_x for r in rects], x),
        ([-r.min_y for r in rects], -y),
        ([r.max_y for r in rects], y),
    ):
        np.maximum(level, np.searchsorted(bounds, values), out=level)
    if regions[nest[0]].kind == "circle":
        cx, cy = rects[0].center
        d2 = (x - cx) ** 2 + (y - cy) ** 2
        radii2 = [regions[i].radius**2 for i in nest]
        np.maximum(level, np.searchsorted(radii2, d2), out=level)
    return level


def _nest_build(regions, coords, shape) -> tuple:
    """``(matrix, blocks, perm)`` of a design, one nest at a time.

    The points are sorted by x once; each nest's outermost x-span is
    then one contiguous slice, filtered on y (and radius, for circles).
    Each point's level in its nest gives its ring row.  The rings are
    laid out row by row and transposed once into the column-major
    matrix, whose columns come out with ascending rows.
    """
    nests, blocks = _nest_layout(regions)
    perm = _inverse(nests) if blocks else None
    order = np.argsort(coords[:, 0])
    xs = coords[order, 0]
    ys = coords[order, 1]
    rects = [regions[nest[-1]].rect for nest in nests]
    lo = np.searchsorted(xs, [r.min_x for r in rects], side="left")
    hi = np.searchsorted(xs, [r.max_x for r in rects], side="right")
    rings, ring_sizes = [], []
    for nest, rect, a, b in zip(nests, rects, lo.tolist(), hi.tolist()):
        outer = regions[nest[-1]]
        y = ys[a:b]
        keep = (y >= rect.min_y) & (y <= rect.max_y)
        if outer.kind == "circle":
            cx, cy = rect.center
            d2 = (xs[a:b] - cx) ** 2 + (y - cy) ** 2
            keep &= d2 <= outer.radius**2
        points = order[a:b][keep]
        if len(nest) == 1:
            ring_sizes.append(len(points))
        else:
            level = _nest_levels(
                regions, nest, coords[points, 0], coords[points, 1]
            )
            points = points[np.argsort(level)]
            ring_sizes.extend(np.bincount(level, minlength=len(nest)))
        rings.append(points)
    from scipy import sparse

    indptr = np.concatenate(([0], np.cumsum(ring_sizes, dtype=np.int64)))
    rings = np.concatenate([np.empty(0, np.intp), *rings])
    rows = sparse.csr_matrix(
        (np.ones(len(rings)), rings, indptr), shape=shape
    ).tocsc()
    return _csc(rows.indices, rows.indptr, shape), blocks, perm


def _axis_cells(edges, values) -> tuple:
    """``(first, last)``: the cells of one grid axis holding each value.

    Cells are closed, so a value lies in every cell ``i`` with
    ``edges[i] <= v <= edges[i + 1]``: the range from
    ``searchsorted(edges, v, "left") - 1`` to
    ``searchsorted(edges, v, "right") - 1``, clipped to the axis.  That
    is one cell for most values, two on an inner edge, every cell on a
    zero-width axis and none (``last < first``) outside the edges.
    """
    n = len(edges) - 1
    span = edges[-1] - edges[0]
    if span > 0:
        # A uniform-spacing guess at the right end, checked exactly
        # against the edges; only the misses (irregular edges, rounding,
        # outer edges, outside points) pay for a binary search.  A plain
        # searchsorted over unsorted values costs more than the guess.
        guess = (values - edges[0]) * (n / span)
        np.fmax(guess, 0, out=guess)  # fmax also maps NaN to 0
        np.fmin(guess, n - 1, out=guess)
        last = guess.astype(np.intp)
        at = edges[last]
        # Negated so that NaN (no comparison holds) is a miss too.
        miss = np.flatnonzero(~((at <= values) & (values < edges[1:][last])))
        if len(miss):
            last[miss] = np.searchsorted(edges, values[miss], "right") - 1
            at[miss] = edges[last[miss]]
    else:
        last = np.searchsorted(edges, values, "right") - 1
        at = edges[last]
    # The left end differs only for values on an edge.  ``last`` is -1
    # only below ``edges[0]``, where ``edges[-1]`` cannot equal them.
    on_edge = np.flatnonzero(at == values)
    first = last.copy()
    first[on_edge] = np.searchsorted(edges, values[on_edge], "left") - 1
    np.maximum(first, 0, out=first)
    np.minimum(last, n - 1, out=last)
    return first, last


def _grid_columns(grid, coords) -> tuple:
    """``(indices, indptr)``: a grid's membership columns, by cell.

    Each point's cells are the product of its x and y cell ranges
    (:func:`_axis_cells`).  The (point, cell) pairs are listed in point
    order, each point's cells ascending: the column-major layout as is.
    """
    # Contiguous columns: the strided views of ``coords`` are slower
    # in each of the lookup's passes than one copy.
    x0, x1 = _axis_cells(grid.x_edges, np.ascontiguousarray(coords[:, 0]))
    y0, y1 = _axis_cells(grid.y_edges, np.ascontiguousarray(coords[:, 1]))
    nx = grid.nx
    cells = y0 * nx + x0
    if not ((x1 != x0) | (y1 != y0)).any():
        # Every point in exactly one cell.
        return cells, np.arange(len(cells) + 1)
    kx = np.maximum(x1 - x0 + 1, 0)
    k = kx * np.maximum(y1 - y0 + 1, 0)
    indptr = np.concatenate(([0], np.cumsum(k)))
    offset = np.arange(indptr[-1]) - np.repeat(indptr[:-1], k)
    kx = np.repeat(kx, k)
    cells = np.repeat(cells, k) + offset // kx * nx + offset % kx
    return cells, indptr


def _index_dtype(shape, nnz):
    """The index dtype scipy picks for ``shape`` and ``nnz`` entries."""
    return np.int32 if max(*shape, nnz) < 2**31 else np.int64


def _csc(indices, indptr, shape, ones=None):
    """A 0/1 column-major matrix from its columns' concatenated row
    indices and the column pointer; its data is a prefix of ``ones``
    (an all-ones array at least that long) when given.

    The index arrays take the dtype scipy would pick, so the
    constructor neither scans nor copies them.  The data is float64, so
    the recount accumulates world sums exactly up to ``2**53``.
    """
    from scipy import sparse

    n = len(indices)
    data = np.ones(n) if ones is None else ones[:n]
    dtype = _index_dtype(shape, n)
    indices, indptr = (a.astype(dtype, copy=False) for a in (indices, indptr))
    return sparse.csc_matrix((data, indices, indptr), shape=shape)


def _nest_sums(sums, perm, blocks) -> np.ndarray:
    """Per-region sums from ring sums (leading axis in layout rows): a
    cumulative sum along every nest, then region order."""
    for start, count, length in blocks:
        nest = sums[start : start + count * length]
        nest = nest.reshape(count, length, *sums.shape[1:])
        np.cumsum(nest, axis=1, out=nest)
    return sums if perm is None else sums[perm]


def _recount(member, values) -> np.ndarray:
    """Per-region sums of one value per point (``values`` 1-D) or of a
    batch of worlds (one column each) through ``member``'s matrix and
    nest layout."""
    return _nest_sums(
        kernels.membership_counts_batch(member._matrix, values),
        member._perm,
        member._blocks,
    )


def dropped_prefix(keep: np.ndarray) -> int | None:
    """How many leading points a keep mask drops, when it drops exactly
    a prefix (every ``False`` before every ``True``); else None.

    Two passes over the bools and no gather: a prefix eviction (a
    window slide over in-order timestamps) then becomes ``arr[k:]``
    views instead of copies of the kept rows.
    """
    drop = len(keep) - int(np.count_nonzero(keep))
    return drop if keep[drop:].all() else None


def _keep_columns(matrix, keep) -> tuple:
    """``(matrix[:, keep], dropped)``, column-major layout kept;
    ``dropped`` lists the row indices of the dropped entries.

    Dropping a prefix of the points — a window slide over in-order
    timestamps — is one slice of the column pointer; any other mask
    gathers the kept columns' entries.
    """
    indptr = matrix.indptr
    drop = dropped_prefix(keep)
    if drop is not None:
        start = indptr[drop]
        dropped = matrix.indices[:start]
        indices = matrix.indices[start:]
        indptr = indptr[drop:] - start
    else:
        sizes = np.diff(indptr)
        entries = np.repeat(keep, sizes)
        dropped = matrix.indices[~entries]
        indices = matrix.indices[entries]
        indptr = np.concatenate(([0], np.cumsum(sizes[keep])))
    shape = (matrix.shape[0], len(indptr) - 1)
    return _csc(indices, indptr, shape, matrix.data), dropped


class RegionMembership:
    """Sparse region-by-point membership matrix.

    The audit's Monte Carlo loop needs, for every simulated world, the
    per-region positive count.  With the membership matrix ``M``
    (``n_regions x n_points``, one where the point lies in the region)
    this is a single sparse matrix product ``M @ worlds`` for a whole
    batch of worlds — the design that keeps the scan O(worlds) instead
    of O(worlds x regions x point queries).

    The index holds **one** column-major matrix in the design's nest
    layout (see the module docstring): the rings of a nested scan, the
    full rows of any other design.  :attr:`counts`, the recounts and
    :attr:`disjoint` all derive from it.  Every column lists its rows
    ascending, so a cold build and an incrementally maintained matrix
    (:meth:`append_points` / :meth:`evict_points`) hold byte-identical
    arrays: that lets the streaming audit path prove itself
    bit-identical to a full rebuild (floating-point accumulation order
    in ``M @ worlds`` follows storage order).

    Parameters
    ----------
    regions : RegionSet
        Candidate regions (rectangles and/or circles).
    coords : ndarray of shape (n, 2)
        Observation locations.
    """

    def __init__(self, regions: RegionSet, coords: np.ndarray):
        coords = np.asarray(coords, dtype=np.float64)
        self.regions = regions
        shape = (len(regions), len(coords))
        grid = getattr(regions, "grid", None)
        if grid is None:
            built = _nest_build(regions, coords, shape)
        else:
            built = (_csc(*_grid_columns(grid, coords), shape), (), None)
        matrix, self._blocks, self._perm = built
        self._store(matrix)

    def _store(self, matrix, counts=None) -> None:
        """Install ``matrix`` and its ``counts`` (computed if omitted)."""
        self._matrix = matrix
        self.n_points = matrix.shape[1]
        self.counts = self._sums(matrix.indices) if counts is None else counts
        self._disjoint = None

    def _sums(self, rows) -> np.ndarray:
        """Per-region counts of the matrix entries with row indices
        ``rows``: ring counts summed along every nest."""
        ring = np.bincount(rows, minlength=self._matrix.shape[0])
        return _nest_sums(ring, self._perm, self._blocks)

    def __len__(self) -> int:
        return len(self.regions)

    @property
    def disjoint(self) -> bool:
        """Whether no point lies in two regions.

        A property of the indexed points, not of the design's kind: a
        grid with a point on a shared closed cell edge is not disjoint.
        A covered point has one matrix entry per nest it lies in and
        adds at least one to :attr:`counts` through it, so the design
        is disjoint exactly when the counts sum to the number of
        covered points.  Decided on first use and cached until the
        next :meth:`append_points` / :meth:`evict_points`.
        """
        if self._disjoint is None:
            covered = np.count_nonzero(np.diff(self._matrix.indptr))
            self._disjoint = bool(self.counts.sum() == covered)
        return self._disjoint

    def append_points(self, coords: np.ndarray) -> "RegionMembership":
        """Append newly arrived points as matrix columns, in place.

        Membership of the new points is computed against this index's
        regions only (a build over the delta), so the update costs
        O(delta) work instead of a full rebuild.  New points take
        column indices past the existing ones, so the updated matrix
        is **bit-identical** to a cold build over the concatenated
        coordinate array.

        Parameters
        ----------
        coords : ndarray of shape (k, 2)
            Coordinates of the appended points, in arrival order.

        Returns
        -------
        RegionMembership
            The delta membership over just the new points.
        """
        delta = RegionMembership(self.regions, coords)
        old, new = self._matrix, delta._matrix
        shape = (len(self), self.n_points + delta.n_points)
        dtype = _index_dtype(shape, old.nnz + new.nnz)
        indices = np.concatenate([old.indices, new.indices], dtype=dtype)
        shifted = new.indptr[1:].astype(dtype) + old.nnz
        indptr = np.concatenate([old.indptr, shifted], dtype=dtype)
        self._store(_csc(indices, indptr, shape), self.counts + delta.counts)
        return delta

    def evict_points(self, keep: np.ndarray) -> None:
        """Drop expired points' matrix columns, in place.

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
        matrix, dropped = _keep_columns(self._matrix, keep)
        self._store(matrix, self.counts - self._sums(dropped))

    def positive_counts(self, labels: np.ndarray) -> np.ndarray:
        """Per-region sum of a single label vector.

        Parameters
        ----------
        labels : ndarray of shape (n_points,)

        Returns
        -------
        ndarray of float64, shape (n_regions,)
            Summed like :meth:`positive_counts_batch`.
        """
        return _recount(self, labels)

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
        The product runs in float64 end to end through the nest layout:
        the ring product (:func:`repro.kernels.membership_counts_batch`)
        plus a cumulative sum along each nest.  For integer-valued
        worlds every partial sum is exact below ``2**53``, so the result
        is bit-identical to the full ``M @ worlds``; non-integer weights
        agree with it up to float rounding.
        """
        return _recount(self, worlds)


class StackedMembership:
    """Several region designs' membership matrices over the *same*
    points, vertically stacked into one sparse matrix.

    The fused batch path simulates each null world once and must score
    every member design against it.  Stacking the designs' matrices
    turns that into a single sparse mat-vec per world batch — exactly
    the trick :class:`RegionMembership` plays for one design, lifted to
    a whole batch of audits.  :attr:`segments` maps stacked rows back
    to each member, and because every row sums its own entries in point
    order, every statistic (and hence every audit verdict) is
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
    disjoint : bool
        Always ``False``: the engine runs every disjoint design on its
        own region-level pass, so a stacked operand is always
        recounted point by point.
    """

    disjoint = False

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
            [m._matrix for m in members], format="csc"
        )
        self.counts = np.concatenate([m.counts for m in members])
        offsets = np.cumsum([0] + [len(m) for m in members])
        self.segments = [
            (int(offsets[i]), int(offsets[i + 1]))
            for i in range(len(members))
        ]
        # One nest layout per member, each shifted to its segment.
        self._blocks = tuple(
            (start + a, count, length)
            for m, (a, _b) in zip(members, self.segments)
            for start, count, length in m._blocks
        )
        self._perm = None
        if any(m._perm is not None for m in members):
            self._perm = np.concatenate([
                a + (np.arange(len(m)) if m._perm is None else m._perm)
                for m, (a, _b) in zip(members, self.segments)
            ])

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
        return _recount(self, labels)

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
        Runs through every member's nest layout, and is exact in
        float64 up to ``2**53``, as in
        :meth:`RegionMembership.positive_counts_batch`.
        """
        return _recount(self, worlds)

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
