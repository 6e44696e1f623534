"""Unit tests for the sparse membership indexes in :mod:`repro.index`.

Every build must agree exactly with brute force on random point
sets — the audit's correctness rests on exact counts.
"""

import numpy as np
import pytest
from scipy import sparse

from repro import kernels
from repro.geometry import (
    GridPartitioning,
    Rect,
    Region,
    RegionSet,
    circle_region_set,
    partition_region_set,
    square_region_set,
)
from repro.index import RegionMembership, StackedMembership


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(42)
    # Clustered + uniform mix so buckets and tree nodes are uneven.
    uniform = rng.random((300, 2))
    cluster = 0.1 * rng.standard_normal((200, 2)) + [0.7, 0.3]
    return np.vstack([uniform, cluster])


@pytest.fixture(scope="module")
def query_rects():
    rng = np.random.default_rng(7)
    rects = []
    for _ in range(25):
        x0, y0 = rng.uniform(-0.2, 1.0, size=2)
        w, h = rng.uniform(0.01, 0.8, size=2)
        rects.append(Rect(x0, y0, x0 + w, y0 + h))
    # Degenerate and all-covering queries.
    rects.append(Rect(0.5, 0.5, 0.5, 0.5))
    rects.append(Rect(-1, -1, 2, 2))
    return rects


def rect_regions(rects):
    return RegionSet([Region(rect, i) for i, rect in enumerate(rects)])


def brute_rows(regions, coords):
    """Reference membership rows, region by region from
    ``Region.contains``: a dense bool array (n_regions, n_points)."""
    rows = np.zeros((len(regions), len(coords)), dtype=bool)
    for r, region in enumerate(regions):
        rows[r] = region.contains(coords)
    return rows


def column_major(dense):
    """A dense 0/1 array as a column-major (CSC) float64 matrix."""
    return sparse.csc_matrix(np.asarray(dense, dtype=np.float64))


def nest_steps(member):
    """Square 0/1 matrix taking ring rows to full rows in layout
    order: each layout row sums itself and every smaller ring row of
    its nest."""
    n = member._matrix.shape[0]
    rows, cols = [np.arange(n)], [np.arange(n)]
    for start, count, length in member._blocks:
        for k in range(1, length):
            for j in range(k):
                at = start + np.arange(count) * length
                rows.append(at + k)
                cols.append(at + j)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(n, n)
    )


def full_rows(member):
    """Test-side ring expansion: a membership's full region-by-point
    rows as a CSR matrix in region order with sorted rows."""
    full = (nest_steps(member) @ member._matrix.tocsr()).tocsr()
    if member._perm is not None:
        full = full[member._perm]
    full.sort_indices()
    return full


def brute_ring(member, regions, coords):
    """Reference column-major matrix of ``member``'s layout: the
    brute-force rows in layout order, each nest row minus the row
    before it."""
    rows = brute_rows(regions, coords).astype(np.int8)
    if member._perm is not None:
        layout = np.empty_like(rows)
        layout[member._perm] = rows
        rows = layout
    ring = rows.copy()
    for start, count, length in member._blocks:
        for i in range(count):
            a = start + i * length
            ring[a + 1 : a + length] -= rows[a : a + length - 1]
    assert ring.min(initial=0) >= 0
    return column_major(ring)


def assert_matrix_identical(regions, coords):
    """The one membership matrix equals the brute-force column-major
    reference byte for byte, and expands to the brute-force rows."""
    member = RegionMembership(regions, coords)
    assert_same_matrix(member._matrix, brute_ring(member, regions, coords))
    want = brute_rows(regions, coords)
    assert np.array_equal(full_rows(member).toarray() != 0, want)
    assert member.counts.dtype == np.int64
    assert list(member.counts) == list(want.sum(axis=1))


GRID20 = GridPartitioning.regular(Rect(0, 0, 1, 1), 20, 20)


def grid20_cells(point):
    """Cells of the 20x20 unit grid whose membership row holds
    ``point``."""
    member = RegionMembership(
        partition_region_set(GRID20), np.array([point])
    )
    # One point: its column's rows are the cells.
    return member._matrix.indices.tolist()


class TestMembershipBuild:
    def test_rect_counts_equal_brute_force(self, points, query_rects):
        member = RegionMembership(rect_regions(query_rects), points)
        want = [int(rect.contains(points).sum()) for rect in query_rects]
        assert list(member.counts) == want

    def test_rect_csr_matches_brute_force(self, points, query_rects):
        # Includes the degenerate, all-covering and partly outside
        # rectangles of the ``query_rects`` fixture.
        assert_matrix_identical(rect_regions(query_rects), points)

    def test_tied_x_coordinates_match_brute_force(self, query_rects):
        # Many points share an x (and y) value, so the x-sorted slice
        # boundaries fall inside runs of ties.
        rng = np.random.default_rng(5)
        pts = np.round(rng.random((400, 2)) * 10) / 10
        assert_matrix_identical(rect_regions(query_rects), pts)

    def test_grid_csr_matches_brute_force(self, points):
        assert_matrix_identical(partition_region_set(GRID20), points)

    def test_coarse_grid_csr_matches_brute_force(self, points):
        grid = GridPartitioning.regular(Rect(0, 0, 1, 1), 3, 3)
        assert_matrix_identical(partition_region_set(grid), points)

    def test_squares_and_circles_csr_match_brute_force(self, points):
        rng = np.random.default_rng(3)
        centers = rng.random((6, 2))
        squares = square_region_set(centers, [0.05, 0.15, 0.4])
        circles = circle_region_set(centers, [0.05, 0.1, 0.25])
        assert_matrix_identical(squares, points)
        assert_matrix_identical(circles, points)

    def test_point_on_circle_boundary_is_inside(self):
        # Discs are closed: points at exactly the radius are members.
        circles = circle_region_set(np.array([[0.5, 0.5]]), [0.25])
        pts = np.array([[0.75, 0.5], [0.5, 0.25], [0.75, 0.75]])
        member = RegionMembership(circles, pts)
        assert list(full_rows(member)[0].indices) == [0, 1]
        assert_matrix_identical(circles, pts)

    def test_empty_point_set(self, query_rects):
        empty = np.empty((0, 2))
        member = RegionMembership(rect_regions(query_rects), empty)
        assert member.n_points == 0
        assert not member.counts.any()
        assert_matrix_identical(rect_regions(query_rects), empty)

    def test_single_point(self):
        one = np.array([[0.5, 0.5]])
        regions = rect_regions([Rect(0, 0, 1, 1), Rect(0.6, 0.6, 1, 1)])
        member = RegionMembership(regions, one)
        assert list(member.counts) == [1, 0]
        assert_matrix_identical(regions, one)

    def test_max_coordinate_point_is_inside(self):
        # Closed rectangles: the max-coordinate point is a member.
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        member = RegionMembership(rect_regions([Rect(0, 0, 1, 1)]), pts)
        assert list(member.counts) == [2]


class TestClosedRectangleGrid:
    """Grid cells are closed rectangles, not half-open bins.

    A point on a shared edge or corner belongs to every cell that
    touches it, and a point outside explicit bounds belongs to none.
    :meth:`GridPartitioning.cell_ids` bins half-open and clamps outside
    points into border cells, so it cannot stand in for the membership
    build without changing reports.
    """

    def test_shared_edge_point_in_two_cells(self):
        assert grid20_cells((0.05, 0.3)) == [100, 101]
        assert list(GRID20.cell_ids(np.array([[0.05, 0.3]]))) == [101]

    def test_shared_corner_point_in_four_cells(self):
        corner = (GRID20.x_edges[10], GRID20.y_edges[10])
        assert grid20_cells(corner) == [189, 190, 209, 210]

    def test_point_outside_explicit_bounds_in_no_cell(self):
        assert grid20_cells((1.5, 0.5)) == []
        assert len(GRID20.cell_ids(np.array([[1.5, 0.5]]))) == 1


def assert_grid_build(grid, coords):
    """The binned build of ``grid`` equals brute force and the nest
    loop over the same cell regions, byte for byte."""
    regions = partition_region_set(grid)
    assert regions.grid is grid
    assert_matrix_identical(regions, coords)
    binned = RegionMembership(regions, coords)
    looped = RegionMembership(RegionSet(list(regions)), coords)
    assert_same_matrix(binned._matrix, looped._matrix)
    assert binned.counts.tobytes() == looped.counts.tobytes()
    # No nests: the one matrix is the full rows.
    assert_same_matrix(
        binned._matrix, column_major(brute_rows(regions, coords))
    )
    assert binned._perm is None and binned._blocks == ()
    return binned


def around(values):
    """Each value, and its float neighbours below and above."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([
        np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)
    ])


def lattice(xs, ys):
    """Every ``(x, y)`` pair of two coordinate lists."""
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


class TestGridBinning:
    """Grid designs bin points by cell instead of testing every cell;
    rows must stay those of closed rectangles, degenerate axes and
    irregular edges included."""

    def test_zero_width_x_axis(self, points):
        grid = GridPartitioning(np.full(4, 0.3), np.linspace(0, 1, 5))
        pts = points.copy()
        pts[::3, 0] = 0.3
        pts = np.vstack([pts, lattice(around([0.3]), around(grid.y_edges))])
        member = assert_grid_build(grid, pts)
        # A point on the zero-width axis lies in all three columns.
        rows = member.counts.reshape(4, 3)
        assert (rows == rows[:, :1]).all()
        assert member.counts.sum() > len(pts[::3])

    def test_zero_width_y_axis(self, points):
        grid = GridPartitioning(np.linspace(0, 1, 6), np.full(3, 0.7))
        pts = points.copy()
        pts[::2, 1] = 0.7
        pts = np.vstack([pts, lattice(around(grid.x_edges), around([0.7]))])
        assert_grid_build(grid, pts)

    def test_data_bounds_of_points_sharing_one_x(self):
        rng = np.random.default_rng(11)
        pts = np.column_stack([np.full(190, 0.5), rng.random(190)])
        grid = GridPartitioning.regular(Rect.bounding(pts), 4, 4)
        member = assert_grid_build(grid, pts)
        rows = member.counts.reshape(4, 4)
        assert (rows == rows[:, :1]).all() and rows.sum() >= 4 * 190

    def test_single_location(self):
        pts = np.tile([0.2, 0.7], (25, 1))
        grid = GridPartitioning.regular(Rect.bounding(pts), 3, 3)
        member = assert_grid_build(grid, pts)
        assert list(member.counts) == [25] * 9

    @pytest.mark.parametrize("seed", range(6))
    def test_random_gerrymander_grids(self, points, seed):
        # The irregular grids of :func:`repro.core.gerrymander_score`:
        # sorted uniform inner edges inside the data's bounding box.
        rng = np.random.default_rng(seed)
        bounds = Rect.bounding(points)
        kx = int(rng.integers(0, 9))
        grid = GridPartitioning(
            np.concatenate((
                [bounds.min_x],
                np.sort(rng.uniform(bounds.min_x, bounds.max_x, kx)),
                [bounds.max_x],
            )),
            np.concatenate((
                [bounds.min_y],
                np.sort(rng.uniform(bounds.min_y, bounds.max_y, 8 - kx)),
                [bounds.max_y],
            )),
        )
        edge_points = lattice(around(grid.x_edges), around(grid.y_edges))
        assert_grid_build(grid, np.vstack([points, edge_points]))

    def test_repeated_inner_edges(self):
        # Zero-width inner cells: a point on one lies in three cells
        # per axis.
        grid = GridPartitioning([0, 0.25, 0.5, 0.5, 1], [0, 0.5, 0.5, 1])
        pts = lattice(around([0, 0.25, 0.5, 0.6, 1]), around([0, 0.5, 1]))
        member = assert_grid_build(grid, pts)
        (at,) = np.flatnonzero((pts[:, 0] == 0.5) & (pts[:, 1] == 0.5))
        assert member._matrix[:, at].sum() == 9

    @pytest.mark.parametrize("nx, ny", [(7, 5), (20, 20), (1, 3)])
    def test_points_at_and_beside_every_edge(self, nx, ny):
        grid = GridPartitioning.regular(Rect(0, 0, 1, 1), nx, ny)
        assert_grid_build(
            grid, lattice(around(grid.x_edges), around(grid.y_edges))
        )

    def test_points_outside_explicit_bounds(self, points):
        grid = GridPartitioning.regular(Rect(0.2, 0.3, 0.8, 0.6), 6, 3)
        far = np.array([[-1e9, 0.4], [0.5, 1e9], [5.0, 5.0], [-3.0, -3.0]])
        pts = np.vstack([points, far])
        member = assert_grid_build(grid, pts)
        inside = Rect(0.2, 0.3, 0.8, 0.6).contains(pts)
        covered = np.flatnonzero(np.diff(member._matrix.indptr))
        assert set(covered) == set(np.flatnonzero(inside))

    def test_tiny_grid_far_from_the_origin(self):
        # Edges ~1 ulp-spaced multiples apart: the uniform-spacing guess
        # rounds into the wrong cell and the exact check must catch it.
        base = 1.0e6 + 0.123
        grid = GridPartitioning.regular(
            Rect(base, -base, base + 3e-9, -base + 7e-9), 9, 13
        )
        rng = np.random.default_rng(4)
        inner = np.column_stack([
            base + rng.random(300) * 3e-9,
            -base + rng.random(300) * 7e-9,
        ])
        edges = lattice(around(grid.x_edges), around(grid.y_edges))
        assert_grid_build(grid, np.vstack([inner, edges]))

    def test_empty_point_set(self):
        assert_grid_build(GRID20, np.empty((0, 2)))

    @pytest.mark.parametrize(
        "grid",
        [
            GRID20,
            GridPartitioning.regular(Rect(-2.5, 10, 7.5, 11), 13, 4),
            GridPartitioning([0, 0.1, 0.15, 0.6, 1], [0, 0.3, 0.31, 1]),
        ],
    )
    def test_binned_rows_equal_the_nest_loop(self, points, grid):
        # One design, two builders: binning (``partition_region_set``)
        # and the nest loop (the same cells without the grid record)
        # must never drift, for random and edge points alike.
        rng = np.random.default_rng(12)
        lo = np.array([grid.x_edges[0], grid.y_edges[0]])
        hi = np.array([grid.x_edges[-1], grid.y_edges[-1]])
        spread = lo + (rng.random((400, 2)) * 1.2 - 0.1) * (hi - lo)
        edges = lattice(around(grid.x_edges), around(grid.y_edges))
        pts = np.vstack([spread, edges, points])
        rng.shuffle(pts)
        assert_grid_build(grid, pts)

    def test_append_binned_delta_equals_cold(self, points):
        edges = lattice(around(GRID20.x_edges[::4]), around([0.5, 1.0]))
        regions = partition_region_set(GRID20)
        member = RegionMembership(regions, points)
        delta = member.append_points(edges)
        looped = RegionMembership(RegionSet(list(regions)), edges)
        assert_same_matrix(delta._matrix, looped._matrix)
        assert_same_matrix(
            member._matrix,
            RegionMembership(regions, np.vstack([points, edges]))._matrix,
        )
        assert_matrix_identical(regions, np.vstack([points, edges]))


class TestDisjoint:
    """``disjoint``: no point in two regions — decided from the indexed
    points, not from the design's kind."""

    def test_grid_over_generic_points_is_disjoint(self, points):
        member = RegionMembership(partition_region_set(GRID20), points)
        assert member.disjoint

    def test_points_outside_every_region_keep_it_disjoint(self, points):
        grid = GridPartitioning.regular(Rect(0, 0, 0.5, 0.5), 4, 4)
        member = RegionMembership(partition_region_set(grid), points)
        assert member.counts.sum() < len(points)
        assert member.disjoint

    def test_shared_edge_point_is_not_disjoint(self, points):
        edge = np.array([[0.05, 0.3]])  # the two-cell point above
        member = RegionMembership(
            partition_region_set(GRID20), np.vstack([points, edge])
        )
        assert not member.disjoint

    def test_overlap_below_the_point_count_is_caught(self):
        # Two points in no region and one in both: the region sizes
        # sum to fewer than the points, so only the per-point count
        # sees the overlap.
        pts = np.array([[0.5, 0.5], [5.0, 5.0], [6.0, 6.0]])
        rects = [Rect(0, 0, 1, 1), Rect(0.4, 0.4, 2, 2)]
        member = RegionMembership(rect_regions(rects), pts)
        assert member.counts.sum() < len(pts)
        assert not member.disjoint

    def test_nested_scans_and_stacks_are_not_disjoint(self, points):
        centers = np.random.default_rng(3).random((6, 2))
        squares = RegionMembership(
            square_region_set(centers, [0.15, 0.4]), points
        )
        grid = RegionMembership(partition_region_set(GRID20), points)
        assert not squares.disjoint
        assert not StackedMembership([grid]).disjoint

    def test_empty_index_is_disjoint(self):
        member = RegionMembership(
            rect_regions([Rect(0, 0, 1, 1)]), np.empty((0, 2))
        )
        assert member.disjoint

    def test_matches_the_brute_force_definition(self, points):
        # Disjoint means no point lies in two regions.  Shared-edge
        # and corner points, nests (inner squares and circles, or only
        # their outermost ring occupied) and overlapping hand-built
        # rectangles, with and without the points that break it.
        rng = np.random.default_rng(21)
        centers = rng.random((5, 2))
        edge_points = lattice(around(GRID20.x_edges[::5]), [0.3, 0.55])
        far = np.array([[0.02, 0.02], [0.98, 0.98]])
        nest = square_region_set(np.array([[0.5, 0.5]]), [0.1, 0.4])
        outer_ring = np.array([[0.65, 0.5], [0.5, 0.35], [0.7, 0.7]])
        cases = [
            (partition_region_set(GRID20), points),
            (partition_region_set(GRID20), np.vstack([points, edge_points])),
            (square_region_set(centers, [0.05, 0.2]), points),
            (circle_region_set(centers, [0.1, 0.3]), points),
            # A nest whose points all sit in its outer ring, then one
            # more at its centre.
            (nest, outer_ring),
            (nest, np.vstack([outer_ring, [[0.5, 0.5]]])),
            (
                rect_regions([Rect(0, 0, 0.5, 1), Rect(0.5, 0, 1, 1)]),
                np.vstack([points, [[0.5, 0.2]]]),
            ),
            (
                rect_regions([Rect(0, 0, 0.5, 1), Rect(0.5, 0, 1, 1)]),
                points[points[:, 0] != 0.5],
            ),
            (
                rect_regions([Rect(0, 0, 0.6, 0.6), Rect(0.4, 0.4, 1, 1)]),
                points,
            ),
            (
                rect_regions([Rect(0, 0, 0.6, 0.6), Rect(0.4, 0.4, 1, 1)]),
                far,
            ),
        ]
        got, want = [], []
        for regions, coords in cases:
            got.append(RegionMembership(regions, coords).disjoint)
            per_point = brute_rows(regions, coords).sum(axis=0)
            want.append(bool(per_point.max(initial=0) <= 1))
        assert got == want
        assert want == [
            True, False, False, False, True, False, False, True, False, True
        ]

    @pytest.mark.stream
    def test_append_and_evict_reset_the_flag(self, points):
        member = RegionMembership(partition_region_set(GRID20), points)
        assert member.disjoint
        member.append_points(np.array([[0.05, 0.3]]))
        assert not member.disjoint
        keep = np.ones(len(points) + 1, dtype=bool)
        keep[-1] = False
        member.evict_points(keep)
        assert member.disjoint


class TestRegionMembership:
    @pytest.fixture(scope="class")
    def regions(self, points):
        rng = np.random.default_rng(3)
        centers = rng.random((6, 2))
        squares = square_region_set(centers, [0.15, 0.4])
        circles = circle_region_set(centers, [0.1, 0.25])
        return type(squares)(list(squares) + list(circles))

    def test_counts_equal_brute_force(self, points, regions):
        member = RegionMembership(regions, points)
        want = [int(r.contains(points).sum()) for r in regions]
        assert list(member.counts) == want

    def test_len_is_region_count(self, points, regions):
        member = RegionMembership(regions, points)
        assert len(member) == len(regions)

    def test_row_sums_equal_region_counts(self, points, regions):
        # The matrix rows are exactly the membership indicators, so a
        # row sum over an all-ones vector is that region's count.
        member = RegionMembership(regions, points)
        ones = np.ones(len(points))
        assert np.array_equal(member.positive_counts(ones), member.counts)

    def test_positive_counts_equal_brute_force(self, points, regions):
        member = RegionMembership(regions, points)
        rng = np.random.default_rng(11)
        labels = (rng.random(len(points)) < 0.4).astype(np.float64)
        got = member.positive_counts(labels)
        want = [labels[r.contains(points)].sum() for r in regions]
        assert got == pytest.approx(want)

    def test_batch_matches_single_columns(self, points, regions):
        member = RegionMembership(regions, points)
        rng = np.random.default_rng(12)
        worlds = (rng.random((len(points), 5)) < 0.5).astype(np.float32)
        batch = member.positive_counts_batch(worlds)
        assert batch.shape == (len(regions), 5)
        for w in range(5):
            single = member.positive_counts(worlds[:, w].astype(np.float64))
            assert batch[:, w] == pytest.approx(single)

    def test_point_indices_match_contains(self, points, regions):
        # Each region's points, read from the expanded rings.
        full = full_rows(RegionMembership(regions, points))
        for r_id in range(len(regions)):
            got = full.indices[full.indptr[r_id] : full.indptr[r_id + 1]]
            want = np.nonzero(regions[r_id].contains(points))[0]
            assert list(got) == list(want)


@pytest.mark.stream
class TestColumnUpdates:
    """Appends concatenate columns; evictions keep a subset of them,
    through a slice when the dropped points are a prefix and a gather
    otherwise.  Either way the matrix equals a cold build and the
    brute-force reference byte for byte."""

    @pytest.fixture(scope="class", params=["grid", "squares", "circles"])
    def regions(self, request):
        centers = np.random.default_rng(3).random((6, 2))
        return {
            "grid": partition_region_set(GRID20),
            "squares": square_region_set(centers, [0.3, 0.1, 0.2]),
            "circles": circle_region_set(centers, [0.2, 0.05, 0.1]),
        }[request.param]

    @pytest.mark.parametrize(
        "case", ["prefix", "scattered", "suffix", "all", "none", "first"]
    )
    def test_evict_equals_cold(self, points, regions, case):
        n = len(points)
        keep = {
            "prefix": np.arange(n) >= 120,
            "scattered": np.random.default_rng(9).random(n) < 0.6,
            "suffix": np.arange(n) < n - 40,
            "all": np.ones(n, dtype=bool),
            "none": np.zeros(n, dtype=bool),
            "first": np.arange(n) != 0,
        }[case]
        member = RegionMembership(regions, points)
        member.evict_points(keep)
        cold = RegionMembership(regions, points[keep])
        assert member.n_points == cold.n_points == keep.sum()
        assert_same_matrix(member._matrix, cold._matrix)
        assert member.counts.tobytes() == cold.counts.tobytes()
        assert member.disjoint == cold.disjoint
        assert_matrix_identical(regions, points[keep])

    def test_append_then_evict_round_trip(self, points, regions):
        member = RegionMembership(regions, points[:100])
        for a, b in ((100, 250), (250, 251), (251, 251), (251, 500)):
            delta = member.append_points(points[a:b])
            assert_same_matrix(
                delta._matrix, RegionMembership(regions, points[a:b])._matrix
            )
        member.evict_points(np.arange(500) >= 300)
        member.append_points(points[:50])
        want = np.vstack([points[300:], points[:50]])
        cold = RegionMembership(regions, want)
        assert_same_matrix(member._matrix, cold._matrix)
        assert member.counts.tobytes() == cold.counts.tobytes()


class TestLargeCountExactness:
    """Batch recounts must stay exact past float32's 2**24 ceiling.

    Regression: the batch path used to run the sparse matmul in
    float32, whose integers stop being exact at 2**24 — a Poisson
    world carrying counts near that scale silently lost increments
    (``float32(2**24) + 1 == 2**24``).  float64 accumulation keeps
    every count exact up to 2**53.
    """

    #: 3 points inside one all-covering region.
    COORDS = np.array([[0.5, 0.5], [0.4, 0.4], [0.6, 0.6]])
    #: One world whose first point carries a count of 2**24; the exact
    #: region total 2**24 + 2 is not representable in float32.
    WORLD = np.array(
        [[2.0**24], [1.0], [1.0]], dtype=np.float32
    )

    def _member(self):
        regions = partition_region_set(
            GridPartitioning.regular(Rect(0, 0, 1, 1), 1, 1)
        )
        return RegionMembership(regions, self.COORDS)

    def test_region_membership_exact_above_2_24(self):
        out = self._member().positive_counts_batch(self.WORLD)
        assert out.dtype == np.float64
        assert out[0, 0] == 2.0**24 + 2.0

    def test_stacked_membership_exact_above_2_24(self):
        stacked = StackedMembership([self._member(), self._member()])
        out = stacked.positive_counts_batch(self.WORLD)
        assert out.dtype == np.float64
        assert np.array_equal(out[:, 0], [2.0**24 + 2.0] * 2)


def assert_recount_identical(member, worlds):
    """The nested ring recount equals the full-matrix product byte for
    byte."""
    got = member.positive_counts_batch(worlds)
    want = kernels.membership_counts_batch(full_rows(member), worlds)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_matrix(got, want):
    for field in ("indptr", "indices", "data"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert a.tobytes() == b.tobytes(), field


class TestNestedRingRecount:
    """World recounts run through each design's nest layout: a ring
    matrix product plus a cumulative sum along every nest.  Every
    recount must equal the full ``M @ worlds`` bit for bit."""

    @pytest.fixture(scope="class")
    def centers(self):
        return np.random.default_rng(3).random((8, 2))

    @pytest.fixture(scope="class")
    def worlds(self, points):
        rng = np.random.default_rng(13)
        n = len(points)
        return np.hstack([
            (rng.random((n, 4)) < 0.4).astype(np.float64),
            rng.poisson(3.0, (n, 3)).astype(np.float64),
            # One indicator column per point: the recount of this block
            # is the membership matrix itself.
            np.eye(n),
        ])

    def test_squares_unsorted_and_duplicate_sides(
        self, points, centers, worlds
    ):
        sides = [0.3, 0.1, 0.3, 0.05, 0.2, 0.1]
        squares = square_region_set(centers, sides)
        assert_matrix_identical(squares, points)
        member = RegionMembership(squares, points)
        assert member._blocks == ((0, len(centers), len(sides)),)
        assert member._perm is not None
        assert member._matrix.nnz < full_rows(member).nnz
        assert_recount_identical(member, worlds)

    def test_sorted_sides_keep_region_order(self, points, centers, worlds):
        member = RegionMembership(
            square_region_set(centers, [0.05, 0.1, 0.2]), points
        )
        assert member._perm is None
        assert member._blocks
        assert_recount_identical(member, worlds)

    def test_circles(self, points, centers, worlds):
        circles = circle_region_set(centers, [0.25, 0.05, 0.1, 0.1])
        assert_matrix_identical(circles, points)
        member = RegionMembership(circles, points)
        assert member._blocks
        assert member._matrix.nnz < full_rows(member).nnz
        assert_recount_identical(member, worlds)

    def test_points_on_region_boundaries(self):
        # Closed regions: a point exactly on an edge, corner or circle
        # belongs to that region and to every larger one of its nest.
        center = np.array([[0.5, 0.5]])
        regions = RegionSet(
            list(square_region_set(center, [0.5, 0.125, 0.25]))
            + list(circle_region_set(center, [0.25, 0.125]))
        )
        pts = [(0.5, 0.5), (0.9, 0.1)]
        for region in regions:
            r = region.rect
            pts += [(r.min_x, 0.5), (r.max_x, 0.5), (0.5, r.min_y)]
            pts += [(0.5, r.max_y), (r.min_x, r.min_y), (r.max_x, r.max_y)]
        pts = np.array(pts)
        assert_matrix_identical(regions, pts)
        member = RegionMembership(regions, pts)
        assert len(member._blocks) == 2
        assert_recount_identical(member, np.eye(len(pts)))

    def test_grid_ring_is_the_full_matrix(self, points, worlds):
        regions = partition_region_set(GRID20)
        member = RegionMembership(regions, points)
        assert_same_matrix(
            member._matrix, column_major(brute_rows(regions, points))
        )
        assert member._perm is None and member._blocks == ()
        assert_recount_identical(member, worlds)

    def test_mixed_region_set(self, points, centers, query_rects, worlds):
        # Squares, a grid, circles and arbitrary rectangles whose
        # centre ids collide: only true containment chains nest.
        regions = RegionSet(
            list(square_region_set(centers, [0.2, 0.1]))
            + list(partition_region_set(GRID20))
            + list(circle_region_set(centers, [0.15, 0.05]))
            + list(rect_regions(query_rects))
        )
        assert_matrix_identical(regions, points)
        member = RegionMembership(regions, points)
        assert member._blocks
        assert_recount_identical(member, worlds)

    def test_stacked_membership(self, points, centers, worlds):
        members = [
            RegionMembership(square_region_set(centers, sides), points)
            for sides in ([0.2, 0.05, 0.1], [0.1, 0.3])
        ]
        members.insert(
            1, RegionMembership(partition_region_set(GRID20), points)
        )
        members.append(
            RegionMembership(circle_region_set(centers, [0.2, 0.1]), points)
        )
        stacked = StackedMembership(members)
        assert_recount_identical(stacked, worlds)
        got = stacked.split(stacked.positive_counts_batch(worlds))
        for part, member in zip(got, members):
            want = member.positive_counts_batch(worlds)
            assert part.tobytes() == want.tobytes()

    def test_scan_geometry_ring_is_sparse(self):
        # The paper's square scan at perfbench audit-scan size: 100
        # centres x 20 sides over 20k points.
        rng = np.random.default_rng(0)
        coords = rng.random((20_000, 2))
        sides = np.linspace(0.02, 0.20, 20).round(4)
        regions = square_region_set(rng.random((100, 2)), sides)
        member = RegionMembership(regions, coords)
        full = sum(int(r.contains(coords).sum()) for r in regions)
        assert member._matrix.nnz * 5 < full
        assert full_rows(member).nnz == full
        worlds = np.ascontiguousarray(
            rng.multinomial(30_000, np.full(20_000, 1 / 20_000), 8).T,
            dtype=np.float64,
        )
        assert_recount_identical(member, worlds)

    @pytest.mark.stream
    @pytest.mark.parametrize("design", ["squares", "circles", "grid"])
    def test_append_and_evict_keep_the_ring_in_step(
        self, points, centers, worlds, design
    ):
        regions = {
            "squares": square_region_set(centers, [0.3, 0.1, 0.2]),
            "circles": circle_region_set(centers, [0.2, 0.05, 0.1]),
            "grid": partition_region_set(GRID20),
        }[design]
        member = RegionMembership(regions, points[:350])
        member.append_points(points[350:])
        assert_same_matrix(
            member._matrix, RegionMembership(regions, points)._matrix
        )
        assert_recount_identical(member, worlds)

        keep = np.random.default_rng(8).random(len(points)) < 0.7
        member.evict_points(keep)
        cold = RegionMembership(regions, points[keep])
        assert_same_matrix(member._matrix, cold._matrix)
        assert_same_matrix(
            member._matrix, brute_ring(member, regions, points[keep])
        )
        assert np.array_equal(member.counts, cold.counts)
        ring_is_full = member._matrix.nnz == full_rows(member).nnz
        assert ring_is_full == (design == "grid")
        assert_recount_identical(member, worlds[keep])
