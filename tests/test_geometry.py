"""Unit tests for :mod:`repro.geometry`: rectangles, region sets,
grid partitionings, and scan-centre placement."""

import tracemalloc

import numpy as np
import pytest

from repro.geometry import (
    GridPartitioning,
    Rect,
    circle_region_set,
    paper_side_lengths,
    partition_region_set,
    random_partitionings,
    scan_centers,
    square_region_set,
)


class TestRect:
    def test_dimensions(self):
        r = Rect(0.0, 0.0, 1.0, 2.0)
        assert (r.width, r.height, r.area) == (1.0, 2.0, 2.0)
        assert r.center == (0.5, 1.0)

    def test_from_center(self):
        r = Rect.from_center((1.0, 2.0), 0.5)
        assert r.center == (1.0, 2.0)
        assert r.width == pytest.approx(0.5)
        assert r.height == pytest.approx(0.5)

    def test_bounding_is_tight(self):
        coords = np.array([[0.1, 0.2], [0.9, 0.4], [0.3, 0.8]])
        r = Rect.bounding(coords)
        assert (r.min_x, r.min_y, r.max_x, r.max_y) == (0.1, 0.2, 0.9, 0.8)
        assert r.contains(coords).all()

    @pytest.mark.parametrize(
        "coords",
        [
            np.random.default_rng(0).random((1000, 2)),
            np.random.default_rng(1).normal(size=(50_000, 2)) * 1e3,
            np.random.default_rng(2).random((7, 2)) - 5.0,
            np.array([[-0.25, 3.5]]),
            np.array([[-0.0, 0.0]]),
            np.array([[0.0, -0.0], [-0.0, 0.0], [-1.0, -0.0]]),
            np.random.default_rng(3).choice(
                np.array([-0.0, 0.0, -1.5, 2.0]), size=(300, 2)
            ),
        ],
    )
    def test_bounding_is_per_column_min_max(self, coords):
        r = Rect.bounding(coords)
        box = (r.min_x, r.min_y, r.max_x, r.max_y)
        xs = [float(v) for v in coords[:, 0]]
        ys = [float(v) for v in coords[:, 1]]
        assert box == (min(xs), min(ys), max(xs), max(ys))
        # The very floats of the axis-0 reduction, signed zeros
        # included: grid bounds and report-cache keys use their repr.
        mn, mx = coords.min(axis=0), coords.max(axis=0)
        assert repr(box) == repr(
            (float(mn[0]), float(mn[1]), float(mx[0]), float(mx[1]))
        )

    def test_contains_is_closed(self):
        r = Rect(0.0, 0.0, 1.0, 1.0)
        corners = np.array([[0, 0], [1, 1], [0, 1], [1, 0]], dtype=float)
        assert r.contains(corners).all()
        assert not r.contains(np.array([1.0 + 1e-12, 0.5]))

    def test_intersects_touching_edges(self):
        a = Rect(0, 0, 1, 1)
        assert a.intersects(Rect(1, 0, 2, 1))  # shared edge counts
        assert a.intersects(Rect(0.5, 0.5, 0.6, 0.6))  # containment
        assert not a.intersects(Rect(1.1, 0, 2, 1))
        assert not a.intersects(Rect(0, 1.1, 1, 2))

    def test_expanded(self):
        r = Rect(0, 0, 1, 1).expanded(0.25)
        assert (r.min_x, r.min_y, r.max_x, r.max_y) == (
            -0.25, -0.25, 1.25, 1.25,
        )


class TestSquareRegions:
    def test_every_center_times_every_side(self):
        centers = np.array([[0.2, 0.2], [0.8, 0.8], [0.5, 0.1]])
        sides = [0.1, 0.3]
        regions = square_region_set(centers, sides)
        assert len(regions) == 6
        for i, region in enumerate(regions):
            c, s = divmod(i, len(sides))
            assert region.kind == "rect"
            assert region.center_id == c
            assert region.rect.center == pytest.approx(tuple(centers[c]))
            assert region.rect.width == pytest.approx(sides[s])

    def test_membership_matches_rect(self):
        regions = square_region_set(np.array([[0.5, 0.5]]), [0.4])
        pts = np.array([[0.5, 0.5], [0.69, 0.5], [0.71, 0.5]])
        assert list(regions[0].contains(pts)) == [True, True, False]


class TestCircleRegions:
    def test_bounding_square_has_diameter_side(self):
        regions = circle_region_set(np.array([[0.5, 0.5]]), [0.2])
        region = regions[0]
        assert region.kind == "circle"
        assert region.radius == 0.2
        assert region.rect.width == pytest.approx(0.4)
        assert region.rect.center == pytest.approx((0.5, 0.5))

    def test_membership_is_euclidean(self):
        region = circle_region_set(np.array([[0.0, 0.0]]), [1.0])[0]
        pts = np.array(
            [[0, 0], [1, 0], [0, -1], [0.8, 0.8], [0.7, 0.7]],
            dtype=float,
        )
        # (0.8, 0.8) is inside the bounding square but outside the
        # circle; the boundary itself is inside (closed disc).
        assert list(region.contains(pts)) == [
            True, True, True, False, True,
        ]

    def test_circle_subset_of_bounding_square(self):
        rng = np.random.default_rng(0)
        region = circle_region_set(np.array([[0.4, 0.6]]), [0.3])[0]
        pts = rng.random((500, 2))
        in_circle = region.contains(pts)
        in_square = region.rect.contains(pts)
        assert (in_square | ~in_circle).all()  # circle implies square


def _broadcast_scan_centers(coords, n_centers, seed=None, n_iter=20):
    """Reference k-means with the one-shot ``(n, k, 2)`` broadcast
    assignment; :func:`scan_centers` must match it bit for bit."""
    coords = np.asarray(coords, dtype=np.float64)
    rng = np.random.default_rng(seed)
    n = len(coords)
    if n > 20_000:
        sample = coords[rng.choice(n, size=20_000, replace=False)]
    else:
        sample = coords
    centers = sample[
        rng.choice(len(sample), size=n_centers, replace=False)
    ].copy()
    for _ in range(n_iter):
        d2 = (
            (sample[:, None, :] - centers[None, :, :]) ** 2
        ).sum(axis=2)
        assign = d2.argmin(axis=1)
        counts = np.bincount(assign, minlength=n_centers)
        sx = np.bincount(
            assign, weights=sample[:, 0], minlength=n_centers
        )
        sy = np.bincount(
            assign, weights=sample[:, 1], minlength=n_centers
        )
        nonempty = counts > 0
        centers[nonempty, 0] = sx[nonempty] / counts[nonempty]
        centers[nonempty, 1] = sy[nonempty] / counts[nonempty]
        if not nonempty.all():
            k_dead = int((~nonempty).sum())
            centers[~nonempty] = sample[
                rng.choice(len(sample), size=k_dead, replace=False)
            ]
    return centers


def _oracle_inputs():
    rng = np.random.default_rng(11)
    uniform = rng.random((300, 2))
    lattice = np.stack(
        np.meshgrid(np.arange(30.0), np.arange(30.0)), axis=-1
    ).reshape(-1, 2)
    return {
        "uniform-300": (uniform, 10),
        "subsampled-25k": (rng.random((25_000, 2)), 40),
        # 16 distinct locations and 30 centres: dead centres re-seed.
        "quantised-dead-centres": (
            rng.integers(0, 4, (500, 2)).astype(np.float64), 30
        ),
        "k=1": (uniform, 1),
        "k=n": (uniform, len(uniform)),
        # Exact distance ties between lattice points and centres.
        "lattice-ties": (lattice, 29),
        # The same ties at 1e-7 spacing on a large offset: the bounds'
        # rounding is no longer small against the gaps.
        "lattice-offset": (lattice * 1e-7 + 45.0, 29),
        # Metre-scale projected coordinates.
        "metre-scale": (rng.random((3000, 2)) * 1e6 + 5e6, 50),
        # 40 locations and 55 centres: dead centres re-seed each pass.
        "duplicates-dead-centres": (
            np.repeat(rng.random((40, 2)), 25, axis=0), 55
        ),
        "quantised-2dp": (np.round(rng.random((3000, 2)), 2), 64),
        "heavy-tailed": (rng.standard_normal((3000, 2)) ** 3, 40),
        # A 3x3 lattice at the inexact spacing 0.1: near-ties within a
        # few ulp, which bounds compared without a tolerance certify
        # wrongly.
        "inexact-ties": (
            np.random.default_rng(103).integers(0, 3, (60, 2)) * 0.1, 5
        ),
    }


class TestScanCenters:
    @pytest.mark.parametrize("case", list(_oracle_inputs()))
    def test_bit_identical_to_broadcast_reference(self, case):
        coords, k = _oracle_inputs()[case]
        got = scan_centers(coords, n_centers=k, seed=4)
        want = _broadcast_scan_centers(coords, n_centers=k, seed=4)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_iter", [0, 1, 2])
    def test_few_iterations_bit_identical(self, n_iter):
        coords = np.random.default_rng(13).random((2000, 2))
        got = scan_centers(coords, n_centers=30, seed=4, n_iter=n_iter)
        want = _broadcast_scan_centers(
            coords, n_centers=30, seed=4, n_iter=n_iter
        )
        assert got.tobytes() == want.tobytes()

    def test_assignment_memory_is_blocked(self):
        coords = np.random.default_rng(12).random((20_000, 2))
        tracemalloc.start()
        try:
            scan_centers(coords, n_centers=100, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The (n, k, 2) broadcast peaks near 61 MB here.
        assert peak < 16 * 2**20

    def test_too_many_centres(self):
        with pytest.raises(ValueError, match="^n_centers: 6 centres"):
            scan_centers(np.zeros((5, 2)), n_centers=6)

    def test_centers_inside_data_bounds(self):
        rng = np.random.default_rng(5)
        # Two separated blobs, like the paper's metro areas.
        coords = np.vstack(
            [
                0.05 * rng.standard_normal((400, 2)) + [0.25, 0.25],
                0.05 * rng.standard_normal((400, 2)) + [0.75, 0.75],
            ]
        )
        centers = scan_centers(coords, n_centers=12, seed=0)
        assert centers.shape == (12, 2)
        assert Rect.bounding(coords).contains(centers).all()

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(6)
        coords = rng.random((300, 2))
        a = scan_centers(coords, n_centers=8, seed=3)
        b = scan_centers(coords, n_centers=8, seed=3)
        assert np.array_equal(a, b)


class TestGridPartitioning:
    def test_regular_grid_shape(self):
        grid = GridPartitioning.regular(Rect(0, 0, 1, 1), 4, 3)
        assert (grid.nx, grid.ny, grid.n_cells) == (4, 3, 12)

    def test_every_point_gets_exactly_one_cell(self):
        rng = np.random.default_rng(8)
        coords = rng.random((500, 2))
        grid = GridPartitioning.regular(Rect(0, 0, 1, 1), 5, 4)
        ids = grid.cell_ids(coords)
        assert ((0 <= ids) & (ids < grid.n_cells)).all()
        assert grid.counts(coords).sum() == len(coords)

    def test_outside_points_clamp_to_border_cells(self):
        grid = GridPartitioning.regular(Rect(0, 0, 1, 1), 3, 3)
        ids = grid.cell_ids(np.array([[-5.0, -5.0], [5.0, 5.0]]))
        assert list(ids) == [0, 8]

    def test_cell_rect_roundtrip(self):
        rng = np.random.default_rng(9)
        coords = rng.random((200, 2))
        grid = GridPartitioning.regular(Rect(0, 0, 1, 1), 4, 4)
        ids = grid.cell_ids(coords)
        for i, point in enumerate(coords):
            assert grid.cell_rect(int(ids[i])).contains(point)

    def test_partition_region_set_covers_without_gaps(self):
        rng = np.random.default_rng(10)
        coords = rng.random((300, 2))
        grid = GridPartitioning.regular(Rect(0, 0, 1, 1), 5, 5)
        regions = partition_region_set(grid)
        assert len(regions) == grid.n_cells
        # Random (off-lattice) points land in exactly one cell region.
        membership = np.stack([r.contains(coords) for r in regions])
        assert (membership.sum(axis=0) == 1).all()

    def test_counts_with_weights(self):
        coords = np.array([[0.1, 0.1], [0.9, 0.9], [0.15, 0.12]])
        weights = np.array([1.0, 2.0, 3.0])
        grid = GridPartitioning.regular(Rect(0, 0, 1, 1), 2, 2)
        counts = grid.counts(coords, weights=weights)
        assert counts[0] == 4.0 and counts[3] == 2.0

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([0.0, 1.0, 0.5], "non-decreasing"),
            ([0.0, np.nan, 1.0], "finite"),
            ([0.0, np.inf], "finite"),
            ([0.3], "at least two edges"),
            ([], "at least two edges"),
            ([[0.0, 1.0], [0.0, 1.0]], "at least two edges"),
        ],
    )
    @pytest.mark.parametrize("axis", ["x_edges", "y_edges"])
    def test_bad_edges_raise_naming_the_axis(self, edges, message, axis):
        good = [0.0, 0.5, 1.0]
        kwargs = {"x_edges": good, "y_edges": good, axis: edges}
        with pytest.raises(ValueError, match=f"^{axis}: .*{message}"):
            GridPartitioning(**kwargs)

    @pytest.mark.parametrize("field", ["nx", "ny"])
    @pytest.mark.parametrize("cells", [0, -1])
    def test_regular_needs_a_cell_per_axis(self, field, cells):
        sizes = {"nx": 3, "ny": 3, field: cells}
        with pytest.raises(ValueError, match=f"^{field}: "):
            GridPartitioning.regular(Rect(0, 0, 1, 1), **sizes)

    def test_descending_bounds_raise(self):
        with pytest.raises(ValueError, match="^x_edges: .*non-decreasing"):
            GridPartitioning.regular(Rect(1, 0, 0, 1), 3, 3)

    def test_equal_edges_are_kept(self):
        # Data-derived bounds of points sharing one x give a zero-width
        # axis; such grids run, so equal edges stay valid.
        grid = GridPartitioning.regular(Rect(0.3, 0, 0.3, 1), 4, 2)
        assert list(grid.x_edges) == [0.3] * 5
        inner = GridPartitioning([0.0, 0.5, 0.5, 1.0], [0.0, 1.0])
        assert inner.n_cells == 3

    def test_edges_are_read_only_copies(self):
        # The binned membership build reads a region set's recorded
        # grid, so the edges must not drift from its cell rectangles.
        given = [0, 0.5, 1]
        grid = GridPartitioning(given, np.array(given))
        assert grid.x_edges.dtype == grid.y_edges.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            grid.y_edges[1] = 0.7
        given[1] = 0.7
        assert list(grid.x_edges) == [0, 0.5, 1]

    def test_partition_region_set_records_its_grid(self):
        grid = GridPartitioning.regular(Rect(0, 0, 1, 1), 2, 3)
        assert partition_region_set(grid).grid is grid
        assert square_region_set(np.array([[0.5, 0.5]]), [0.1]).grid is None


def test_paper_side_lengths():
    sides = paper_side_lengths()
    assert len(sides) == 20
    assert sides[0] == pytest.approx(0.1)
    assert sides[-1] == pytest.approx(2.0)
    assert (np.diff(sides) > 0).all()


def test_random_partitionings_respect_split_range():
    parts = random_partitionings(
        Rect(0, 0, 1, 1), 10, seed=0, min_splits=3, max_splits=6
    )
    assert len(parts) == 10
    for grid in parts:
        assert 3 <= grid.nx <= 6
        assert 3 <= grid.ny <= 6
