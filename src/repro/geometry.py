"""Geometric primitives and candidate-region construction.

The audit of Sacharidis et al. (EDBT 2023) tests spatial fairness over a
*predetermined set of regions*.  This module supplies the geometry: the
axis-aligned :class:`Rect`, grid partitionings, square and circular scan
region sets (Kulldorff geometry), k-means scan centres, and the random
partitionings consumed by the MeanVar baseline.

All heavy operations (point-in-region tests, counting) are vectorized
over numpy arrays of shape ``(n, 2)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "check_coords",
    "Rect",
    "Region",
    "RegionSet",
    "GridPartitioning",
    "partition_region_set",
    "square_region_set",
    "circle_region_set",
    "scan_centers",
    "paper_side_lengths",
    "random_partitionings",
]

#: Largest point set Lloyd's iterations run on; bigger inputs are
#: subsampled to this many points.
_KMEANS_SAMPLE = 20_000

#: Points per block of the k-means assignment step (bounds its
#: working memory at two ``(block, k)`` float64 buffers).  Smaller
#: blocks run k-means faster on their own, but on glibc the free of
#: these buffers (3.3 MB each at k = 100) raises the malloc mmap
#: threshold, which spares a scan audit's later draw and LLR arrays a
#: fresh mmap and its page faults on every pass.
_KMEANS_BLOCK = 4096


def check_coords(coords) -> np.ndarray:
    """Validate observation locations as a finite ``(k, 2)`` array.

    Every entry point that accepts coordinates (sessions, appends,
    power analyses, the gerrymander score, registered datasets) goes
    through this one check, so a NaN or infinite location is rejected
    up front instead of silently falling outside every region while
    still counting toward ``N``.

    Parameters
    ----------
    coords : array_like of shape (k, 2)

    Returns
    -------
    ndarray of float64, shape (k, 2)

    Raises
    ------
    ValueError
        Naming ``coords`` when the input is not numeric, the shape is
        not ``(k, 2)`` or a value is NaN or infinite.
    """
    try:
        coords = np.asarray(coords, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(
            "coords: expected a (k, 2) array of numbers, got "
            f"{type(coords).__name__}"
        ) from None
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError(
            f"coords: expected a (k, 2) array, got shape {coords.shape}"
        )
    finite = np.isfinite(coords).all(axis=1)
    if not finite.all():
        bad = np.flatnonzero(~finite)
        raise ValueError(
            f"coords: expected finite values, got {len(bad)} row(s) "
            f"with NaN or infinite coordinates (first: row {bad[0]})"
        )
    return coords


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``.

    Parameters
    ----------
    min_x, min_y, max_x, max_y : float
        Corner coordinates.  ``min`` must not exceed ``max`` on either
        axis.

    Examples
    --------
    >>> r = Rect(0.0, 0.0, 1.0, 2.0)
    >>> r.width, r.height, r.area
    (1.0, 2.0, 2.0)
    """

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    @classmethod
    def from_center(cls, center: Sequence[float], side: float) -> "Rect":
        """Build the square of side ``side`` centred at ``center``.

        Parameters
        ----------
        center : (float, float)
            The square's centre ``(x, y)``.
        side : float
            Side length.

        Returns
        -------
        Rect
        """
        cx, cy = float(center[0]), float(center[1])
        h = float(side) / 2.0
        return cls(cx - h, cy - h, cx + h, cy + h)

    @classmethod
    def bounding(cls, coords: np.ndarray) -> "Rect":
        """The tight bounding box of a ``(n, 2)`` point array.

        Parameters
        ----------
        coords : ndarray of shape (n, 2)

        Returns
        -------
        Rect
        """
        # One reduction per column: ``coords.min(axis=0)`` on an
        # ``(n, 2)`` array runs a length-2 inner loop and is ~15x
        # slower for the same values.
        coords = np.asarray(coords, dtype=np.float64)
        xs, ys = coords[:, 0], coords[:, 1]
        return cls(
            float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max())
        )

    @property
    def width(self) -> float:
        """Extent along x."""
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        """Extent along y."""
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        """``width * height``."""
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        """The rectangle's midpoint ``(x, y)``."""
        return (
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )

    def contains(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized point-in-rectangle test (closed on all sides).

        Parameters
        ----------
        coords : ndarray of shape (n, 2) or (2,)

        Returns
        -------
        ndarray of bool, shape (n,) — or a scalar bool for a single
        point.
        """
        coords = np.asarray(coords)
        x = coords[..., 0]
        y = coords[..., 1]
        return (
            (x >= self.min_x)
            & (x <= self.max_x)
            & (y >= self.min_y)
            & (y <= self.max_y)
        )

    def intersects(self, other: "Rect") -> bool:
        """``True`` when the two closed rectangles overlap (touching
        edges count as overlap)."""
        return not (
            other.min_x > self.max_x
            or other.max_x < self.min_x
            or other.min_y > self.max_y
            or other.max_y < self.min_y
        )

    def expanded(self, margin: float) -> "Rect":
        """A copy grown by ``margin`` on every side."""
        return Rect(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )

    def describe(self) -> str:
        """Compact ``[x0..x1] x [y0..y1]`` string."""
        return (
            f"[{self.min_x:.2f}..{self.max_x:.2f}] x "
            f"[{self.min_y:.2f}..{self.max_y:.2f}]"
        )


@dataclass(frozen=True)
class Region:
    """One candidate scan region.

    A region is either a rectangle (``kind='rect'``) or a circle
    (``kind='circle'``); in both cases :attr:`rect` gives the (bounding)
    rectangle used for rendering and overlap tests.

    Attributes
    ----------
    rect : Rect
        The rectangle itself, or the circle's bounding square.
    center_id : int
        Index of the scan centre (or grid cell) this region belongs to;
        used by the per-centre non-overlap selection policy.
    kind : str
        ``'rect'`` or ``'circle'``.
    radius : float
        Circle radius; ``0.0`` for rectangles.
    """

    rect: Rect
    center_id: int
    kind: str = "rect"
    radius: float = 0.0

    def contains(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized membership test for ``(n, 2)`` coordinates."""
        inside = self.rect.contains(coords)
        if self.kind == "circle":
            cx, cy = self.rect.center
            coords = np.asarray(coords)
            d2 = (coords[..., 0] - cx) ** 2 + (coords[..., 1] - cy) ** 2
            inside = inside & (d2 <= self.radius**2)
        return inside


class RegionSet:
    """An ordered, indexable collection of candidate regions.

    Region sets are what an audit scans:
    :meth:`repro.spec.RegionSpec.build` materialises one per design,
    and :class:`repro.core.PowerAnalysis` takes one directly.  They behave like sequences of :class:`Region`.

    Attributes
    ----------
    grid : GridPartitioning or None
        The partitioning whose cells these regions are, set only by
        :func:`partition_region_set` (internal, not a constructor
        option).  :class:`repro.index.RegionMembership` bins points
        into a grid's cells instead of testing every region; both
        builds give byte-identical rows.
    center_ids : list of int
        Every region's ``center_id``, in region order.
    corners : list of tuple
        Every region's ``(min_x, min_y, max_x, max_y)``, in region
        order.  Both lists are built on first use and kept (report
        serialisation reads them on every call).
    """

    grid = None

    def __init__(self, regions: Sequence[Region]):
        self._regions = list(regions)

    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self) -> Iterator[Region]:
        return iter(self._regions)

    def __getitem__(self, i: int) -> Region:
        return self._regions[i]

    @functools.cached_property
    def center_ids(self) -> list:
        """Every region's ``center_id``, in region order (built on
        first use and kept: a region set never changes)."""
        return [region.center_id for region in self._regions]

    @functools.cached_property
    def corners(self) -> list:
        """Every region's rectangle as a ``(min_x, min_y, max_x,
        max_y)`` tuple, in region order (built on first use and kept:
        a region set never changes)."""
        return [
            (r.rect.min_x, r.rect.min_y, r.rect.max_x, r.rect.max_y)
            for r in self._regions
        ]


@dataclass(frozen=True)
class GridPartitioning:
    """A rectangular grid partitioning defined by its cell edges.

    Cells are indexed row-major: ``cell = iy * nx + ix`` where ``ix``
    (``iy``) is the x (y) bin.  Edges need not be uniform.

    Parameters
    ----------
    x_edges, y_edges : ndarray
        Finite, non-decreasing edge positions; ``len(edges) - 1`` cells
        per axis.  A single cell on an axis is expressed by two edges.
        Equal edges give zero-width cells (a grid over points that
        share one x, say).  Stored as read-only float64 copies, so a
        partitioning (and the region sets built from it) cannot change
        after construction.

    Raises
    ------
    ValueError
        Naming ``x_edges`` or ``y_edges`` when an axis has fewer than
        two edges, a non-finite edge or a decreasing edge.
    """

    x_edges: np.ndarray
    y_edges: np.ndarray

    def __post_init__(self):
        for name in ("x_edges", "y_edges"):
            edges = np.array(getattr(self, name), dtype=np.float64)
            if edges.ndim != 1 or len(edges) < 2:
                raise ValueError(
                    f"{name}: need a 1-D sequence of at least two edges, "
                    f"got shape {edges.shape}"
                )
            if not np.isfinite(edges).all():
                raise ValueError(f"{name}: edges must be finite")
            if (np.diff(edges) < 0).any():
                raise ValueError(f"{name}: edges must be non-decreasing")
            edges.flags.writeable = False
            object.__setattr__(self, name, edges)

    @classmethod
    def regular(cls, bounds: Rect, nx: int, ny: int) -> "GridPartitioning":
        """A uniform ``nx x ny`` grid over ``bounds``.

        Parameters
        ----------
        bounds : Rect
            The area to partition.
        nx, ny : int
            Number of cells along x and y.

        Returns
        -------
        GridPartitioning

        Raises
        ------
        ValueError
            Naming ``nx`` or ``ny`` when it is below one.
        """
        for name, cells in (("nx", nx), ("ny", ny)):
            if cells < 1:
                raise ValueError(
                    f"{name}: need at least one cell, got {cells}"
                )
        return cls(
            x_edges=np.linspace(bounds.min_x, bounds.max_x, nx + 1),
            y_edges=np.linspace(bounds.min_y, bounds.max_y, ny + 1),
        )

    @property
    def nx(self) -> int:
        """Number of cells along x."""
        return len(self.x_edges) - 1

    @property
    def ny(self) -> int:
        """Number of cells along y."""
        return len(self.y_edges) - 1

    @property
    def n_cells(self) -> int:
        """Total number of cells, ``nx * ny``."""
        return self.nx * self.ny

    def cell_ids(self, coords: np.ndarray) -> np.ndarray:
        """Map points to flat cell indices (row-major).

        Points outside the grid are clamped into the border cells, so
        every point receives a valid cell — partitionings cover space.

        Parameters
        ----------
        coords : ndarray of shape (n, 2)

        Returns
        -------
        ndarray of int64, shape (n,)
        """
        coords = np.asarray(coords)
        ix = np.searchsorted(self.x_edges, coords[:, 0], side="right") - 1
        iy = np.searchsorted(self.y_edges, coords[:, 1], side="right") - 1
        ix = np.clip(ix, 0, self.nx - 1)
        iy = np.clip(iy, 0, self.ny - 1)
        return iy * self.nx + ix

    def counts(
        self, coords: np.ndarray, weights: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-cell point counts (or weighted sums).

        Parameters
        ----------
        coords : ndarray of shape (n, 2)
        weights : ndarray of shape (n,), optional
            When given, returns the per-cell sum of weights instead of
            the raw count.

        Returns
        -------
        ndarray of float64, shape (n_cells,)
        """
        ids = self.cell_ids(coords)
        return np.bincount(ids, weights=weights, minlength=self.n_cells)

    def cell_rect(self, cell: int) -> Rect:
        """The :class:`Rect` of flat cell index ``cell``."""
        iy, ix = divmod(int(cell), self.nx)
        return Rect(
            float(self.x_edges[ix]),
            float(self.y_edges[iy]),
            float(self.x_edges[ix + 1]),
            float(self.y_edges[iy + 1]),
        )

    def cell_rects(self) -> list[Rect]:
        """All cell rectangles in flat (row-major) order."""
        return [self.cell_rect(c) for c in range(self.n_cells)]


def partition_region_set(grid: GridPartitioning) -> RegionSet:
    """Turn a grid partitioning into a scannable :class:`RegionSet`.

    Each cell becomes one rectangular region whose ``center_id`` is the
    flat cell index.  The set records ``grid`` as its
    :attr:`RegionSet.grid`, so membership builds bin points by cell.

    Parameters
    ----------
    grid : GridPartitioning

    Returns
    -------
    RegionSet
    """
    regions = RegionSet(
        [
            Region(rect=rect, center_id=i, kind="rect")
            for i, rect in enumerate(grid.cell_rects())
        ]
    )
    regions.grid = grid
    return regions


def square_region_set(
    centers: np.ndarray, sides: Sequence[float]
) -> RegionSet:
    """The paper's square scan geometry: every centre x every side.

    Parameters
    ----------
    centers : ndarray of shape (k, 2)
        Scan centres (typically :func:`scan_centers` output).
    sides : sequence of float
        Side lengths; the paper uses 0.1..2.0 degrees in 20 steps
        (:func:`paper_side_lengths`).

    Returns
    -------
    RegionSet
        ``k * len(sides)`` square regions, grouped by centre.
    """
    centers = np.asarray(centers, dtype=np.float64)
    regions = []
    for c, (cx, cy) in enumerate(centers):
        for side in sides:
            regions.append(
                Region(
                    rect=Rect.from_center((cx, cy), float(side)),
                    center_id=c,
                    kind="rect",
                )
            )
    return RegionSet(regions)


def circle_region_set(
    centers: np.ndarray, radii: Sequence[float]
) -> RegionSet:
    """Kulldorff's circular scan geometry: every centre x every radius.

    Parameters
    ----------
    centers : ndarray of shape (k, 2)
    radii : sequence of float

    Returns
    -------
    RegionSet
        ``k * len(radii)`` circular regions; each region's ``rect`` is
        the circle's bounding square.
    """
    centers = np.asarray(centers, dtype=np.float64)
    regions = []
    for c, (cx, cy) in enumerate(centers):
        for r in radii:
            regions.append(
                Region(
                    rect=Rect.from_center((cx, cy), 2.0 * float(r)),
                    center_id=c,
                    kind="circle",
                    radius=float(r),
                )
            )
    return RegionSet(regions)


def scan_centers(
    coords: np.ndarray,
    n_centers: int,
    seed: int | None = None,
    n_iter: int = 20,
) -> np.ndarray:
    """K-means centres of the observation locations (Lloyd's algorithm).

    The paper places its square scan regions on the 100 k-means centres
    of the LAR locations; centres are convex combinations of data points
    and therefore stay inside the data's bounding box.

    The first iteration's assignment step costs O(n * k) time.  Later
    ones keep Hamerly's bounds per point (an upper bound on the
    distance to its centre, a lower bound on the distance to every
    other; G. Hamerly, SDM 2010) and compute a full row of k distances
    only for the points the bounds cannot certify, ~10-35% of them
    from the third iteration on.  The bounds certify exactly, so
    the centres are bit-identical to plain Lloyd's.  Full rows run over
    fixed blocks of points so the working memory is O(block * k)
    rather than O(n * k); inputs beyond 20,000 points are subsampled
    to 20,000 first.

    Parameters
    ----------
    coords : ndarray of shape (n, 2)
    n_centers : int
        Number of centres (k).
    seed : int, optional
        Seed for the initialisation (random distinct data points).
    n_iter : int, default 20
        Lloyd iterations.

    Returns
    -------
    ndarray of shape (n_centers, 2)

    Raises
    ------
    ValueError
        When ``n_centers`` exceeds the number of (sampled) points.
    """
    coords = np.asarray(coords, dtype=np.float64)
    rng = np.random.default_rng(seed)
    n = len(coords)
    # Subsample large inputs: centre positions stabilise long before
    # the full point set is needed, and Lloyd's is O(n * k) per pass.
    if n > _KMEANS_SAMPLE:
        sample = coords[rng.choice(n, size=_KMEANS_SAMPLE, replace=False)]
    else:
        sample = coords
    m = len(sample)
    if n_centers > m:
        raise ValueError(
            f"n_centers: {n_centers} centres need at least as many "
            f"points, got {m}"
        )
    centers = sample[
        rng.choice(m, size=n_centers, replace=False)
    ].copy()
    xs = np.ascontiguousarray(sample[:, 0])
    ys = np.ascontiguousarray(sample[:, 1])
    rows = min(_KMEANS_BLOCK, m)
    dx = np.empty((rows, n_centers))
    dy = np.empty((rows, n_centers))
    assign = np.empty(m, dtype=np.intp)
    # Hamerly's bounds: upper[i] >= the distance from point i to its
    # centre, lower[i] <= its distance to every other centre.
    upper = np.empty(m)
    lower = np.empty(m)
    # Absolute error of the bounds: cancellation costs at most a few
    # ulp of the largest coordinate per pass, and the 1e-150 floor
    # keeps a certified gap out of the subnormal range of d**2.
    slack = 1e-12 * np.abs(sample).max() + 1e-150
    stale = np.arange(m)
    for it in range(n_iter):
        cx = centers[:, 0].copy()
        cy = centers[:, 1].copy()
        if it:
            stale = _stale_points(
                xs, ys, cx, cy, cx_old, cy_old, assign, upper, lower, slack
            )
        # Exact squared distances for the points the bounds could not
        # certify (every point on the first pass), block by block.
        # dx*dx + dy*dy is exactly the sum of squares over the length-2
        # coordinate axis, so assignments (ties included) and hence the
        # centres are bit-identical to that formulation.  Each full row
        # also resets the point's bounds to its two smallest distances.
        for lo in range(0, len(stale), _KMEANS_BLOCK):
            idx = stale[lo : lo + _KMEANS_BLOCK]
            bx = dx[: len(idx)]
            by = dy[: len(idx)]
            np.subtract(xs[idx, None], cx, out=bx)
            np.subtract(ys[idx, None], cy, out=by)
            bx *= bx
            by *= by
            bx += by
            near = bx.argmin(axis=1)
            assign[idx] = near
            cell = (np.arange(len(idx)), near)
            upper[idx] = np.sqrt(bx[cell])
            bx[cell] = np.inf
            lower[idx] = np.sqrt(bx.min(axis=1))
        counts = np.bincount(assign, minlength=n_centers)
        sx = np.bincount(assign, weights=xs, minlength=n_centers)
        sy = np.bincount(assign, weights=ys, minlength=n_centers)
        nonempty = counts > 0
        centers[nonempty, 0] = sx[nonempty] / counts[nonempty]
        centers[nonempty, 1] = sy[nonempty] / counts[nonempty]
        if not nonempty.all():
            # Re-seed dead centres at random points.
            k_dead = int((~nonempty).sum())
            centers[~nonempty] = sample[
                rng.choice(m, size=k_dead, replace=False)
            ]
        cx_old = cx
        cy_old = cy
    return centers


def _stale_points(xs, ys, cx, cy, cx_old, cy_old, assign, upper, lower,
                  slack) -> np.ndarray:
    """Carry Hamerly's bounds from the centres ``(cx_old, cy_old)`` of
    the last assignment to ``(cx, cy)`` in place, and return the
    points they cannot certify to keep their centre.

    A point's own centre moved by ``shift[assign]`` and every other
    centre by at most the largest other shift.  Half the gap from its
    centre to the nearest other one also bounds its other distances
    whenever it passes the test.  A point keeps its centre when
    ``upper + tol < lower``, with ``tol = 1e-9 * (upper + lower) +
    slack``: the float ``d**2`` is within 4 ulp of the real value, far
    inside ``tol``, so the float argmin of its row is its current
    centre.  The others get the exact distance to their own centre
    and are tested again; the ones still failing need a full row.
    """
    shift = np.hypot(cx - cx_old, cy - cy_old)
    far = int(shift.argmax())
    top = shift[far]
    shift[far] = 0.0
    second = shift.max()
    shift[far] = top
    upper += shift[assign]
    lower -= np.where(assign == far, second, top)
    gap = np.hypot(cx[:, None] - cx, cy[:, None] - cy)
    np.fill_diagonal(gap, np.inf)
    np.maximum(lower, 0.5 * gap.min(axis=1)[assign], out=lower)
    stale = np.flatnonzero(_uncertified(upper, lower, slack))
    near = assign[stale]
    ex = xs[stale] - cx[near]
    ey = ys[stale] - cy[near]
    upper[stale] = np.sqrt(ex * ex + ey * ey)
    return stale[_uncertified(upper[stale], lower[stale], slack)]


def _uncertified(upper, lower, slack) -> np.ndarray:
    """Whether ``upper + tol >= lower``, written so that an infinite
    ``lower`` (no other centre, k = 1) needs no ``inf - inf``."""
    return upper * (1 + 1e-9) + slack >= lower * (1 - 1e-9)


def paper_side_lengths() -> np.ndarray:
    """The paper's 20 square side lengths: 0.1 to 2.0 degrees."""
    return np.linspace(0.1, 2.0, 20)


def random_partitionings(
    bounds: Rect,
    n: int,
    seed: int | None = None,
    min_splits: int = 10,
    max_splits: int = 40,
) -> list[GridPartitioning]:
    """Random grid partitionings for the MeanVar protocol.

    Follows the protocol of Xie et al. (2022) as run in the paper's
    Section 4.2: each partitioning is a regular grid whose per-axis
    split counts are drawn uniformly from ``[min_splits, max_splits]``.

    Parameters
    ----------
    bounds : Rect
        Area to partition.
    n : int
        Number of partitionings.
    seed : int, optional
    min_splits, max_splits : int, default 10 and 40
        Inclusive range for the per-axis cell counts.

    Returns
    -------
    list of GridPartitioning
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        nx = int(rng.integers(min_splits, max_splits + 1))
        ny = int(rng.integers(min_splits, max_splits + 1))
        out.append(GridPartitioning.regular(bounds, nx, ny))
    return out
