import itertools

import numpy as np
import pytest

from decspace.geometry import Interval, Region, box, kernels

from conftest import fixpoint_coalesce, inside, join, raster, sample_axes


def half_open(lo, hi):
    return (lo, hi, True, False)


def closed(lo, hi):
    return (lo, hi, True, True)


class TestInterval:
    def test_intersect_overlapping(self):
        got = kernels.itv_intersect(Interval(0, 4), Interval(2, 6))
        assert got == Interval(2, 4, True, False)

    def test_intersect_half_open_touch_is_empty(self):
        assert kernels.itv_intersect(Interval(0, 4), Interval(4, 6, True, True)) is None

    def test_intersect_closed_touch_is_a_point(self):
        got = kernels.itv_intersect(Interval.closed(0, 4), Interval.closed(4, 6))
        assert got == Interval.point(4)

    def test_measure_ignores_inclusivity(self):
        assert Interval(0, 4).measure == Interval.closed(0, 4).measure == 4

    def test_degenerate_must_be_closed(self):
        with pytest.raises(ValueError):
            Interval(3, 3, True, False).check()
        with pytest.raises(ValueError):
            Interval(5, 3).check()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_bounds_rejected(self, bad):
        with pytest.raises(ValueError):
            Interval(bad, 1.0).check()
        with pytest.raises(ValueError):
            Interval(0.0, bad).check()
        with pytest.raises(ValueError):
            Region((((0.0, bad, True, True),),))

    def test_box_builder_validates(self):
        assert len(box((0, 1), (2, 3, True, True))) == 2
        with pytest.raises(ValueError):
            box((0, 1), (3, 2))


class TestRegionConstruction:
    def test_pair_intervals_are_stored_checked(self):
        r = Region([((0.0, 1.0),)])
        assert r.boxes == (((0.0, 1.0, True, False),),)
        assert r.contains((0.0,)) and not r.contains((1.0,))
        assert (r & Region.from_box((0.5, 2.0))) == Region.from_box((0.5, 1.0))

    def test_from_box_is_a_one_box_region(self):
        ivs = ((0, 1), (2, 3, True, True))
        assert Region.from_box(*ivs).boxes == (box(*ivs),)
        assert Region.from_box(*ivs) == Region((ivs,))

    def test_overlapping_boxes_rejected(self):
        # the closed ends of boxes 1 and 2 share the point 3
        with pytest.raises(ValueError, match="boxes 1 and 2 are not disjoint"):
            Region(((half_open(0, 2),), (closed(2, 3),), (closed(3, 4),)))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match="mixed dimensionality"):
            Region(((half_open(0, 2),), (half_open(2, 3), half_open(0, 1))))


class TestRegionIntersect:
    def test_self_intersection_is_identity(self):
        r = Region.from_box(half_open(0, 4), half_open(0, 4))
        assert (r & r) == r

    def test_box_overlap(self):
        a = Region.from_box(half_open(0, 4), half_open(0, 4))
        b = Region.from_box(half_open(2, 6), half_open(2, 6))
        assert (a & b) == Region.from_box(half_open(2, 4), half_open(2, 4))

    def test_disjoint_cross(self):
        cross = Region((
            (half_open(2, 4), half_open(0, 6)),
            (half_open(0, 2), half_open(2, 4)),
            (half_open(4, 6), half_open(2, 4)),
        ))
        far = Region.from_box(half_open(10, 12), half_open(10, 12))
        assert (cross & far).is_empty

    def test_dimension_mismatch(self):
        a = Region.from_box(half_open(0, 1))
        b = Region.from_box(half_open(0, 1), half_open(0, 1))
        with pytest.raises(ValueError):
            a & b


class TestRegionSubtract:
    def test_self_difference_is_empty(self):
        r = Region.from_box(half_open(1, 5), half_open(1, 5))
        assert (r - r).is_empty

    def test_l_shape_by_grid_enumeration(self):
        a = Region.from_box(half_open(1, 5), half_open(1, 5))
        b = Region.from_box(half_open(0, 3), half_open(0, 3))
        diff = a - b
        # unit-cell oracle: cells of a minus cells of b
        cells_a = {(i, j) for i in range(1, 5) for j in range(1, 5)}
        cells_b = {(i, j) for i in range(0, 3) for j in range(0, 3)}
        got = {
            (i, j)
            for i in range(0, 6)
            for j in range(0, 6)
            if diff.contains((i + 0.5, j + 0.5))
        }
        assert got == cells_a - cells_b
        assert diff.measure() == pytest.approx(len(cells_a - cells_b))

    def test_subtract_empty_is_identity(self):
        r = Region.from_box(half_open(1, 5), half_open(1, 5))
        assert (r - Region.empty()) == r


class TestRegionUnion:
    def test_union_with_empty(self):
        r = Region.from_box(half_open(0, 2), half_open(0, 4))
        assert (r | Region.empty()) == r

    def test_adjacent_boxes_coalesce(self):
        a = Region.from_box(half_open(0, 2), half_open(0, 4))
        b = Region.from_box(half_open(2, 4), half_open(0, 4))
        got = a | b
        assert got == Region.from_box(half_open(0, 4), half_open(0, 4))
        assert len(got.boxes) == 1

    def test_open_gap_does_not_coalesce(self):
        a = Region.from_box((0, 2, True, False), (0, 4, True, False))
        b = Region.from_box((2, 4, False, False), (0, 4, True, False))
        got = a | b
        assert len(got.boxes) == 2
        assert not got.contains((2, 1))

    def test_overlapping_union_grid_oracle(self):
        a = Region.from_box(half_open(0, 4), half_open(0, 4))
        b = Region.from_box(half_open(2, 6), half_open(2, 6))
        axes = sample_axes(a, b)
        assert raster(a | b, axes) == raster(a, axes) | raster(b, axes)


class TestRegionEquality:
    def test_two_decompositions_of_one_set_are_equal(self):
        a = Region((
            ((0, 1, False, False), (0, 2, False, False)),
            ((1, 2, True, False), (0, 1, False, False)),
        ))
        b = Region((
            ((0, 2, False, False), (0, 1, False, False)),
            ((0, 1, False, False), (1, 2, True, False)),
        ))
        assert set(a.boxes) != set(b.boxes)
        assert a == b
        assert hash(a) == hash(b)

    def test_different_sets_are_unequal(self):
        a = Region.from_box(half_open(0, 2), half_open(0, 2))
        assert a != Region.from_box(closed(0, 2), half_open(0, 2))
        assert a != Region.from_box(half_open(0, 2))
        assert a != Region.empty()
        assert Region.empty() == Region.empty()


class TestProjection:
    def test_single_box(self):
        r = Region.from_box(closed(3, 10), closed(7, 8))
        assert r.projection_measure(0) == 7
        assert r.projection_measure(1) == 1

    def test_empty_region(self):
        assert Region.empty().projection_measure(0) == 0.0

    def test_l_shape_overlap_counted_once(self):
        r = Region((
            (half_open(0, 3), half_open(0, 2)),
            (half_open(0, 5), half_open(2, 4)),
        ))
        # projections [0,3) and [0,5) overlap on [0,3)
        assert r.projection_measure(0) == 5
        assert r.projection_measure(1) == 4

    def test_index_out_of_range(self):
        r = Region.from_box(half_open(0, 1), half_open(0, 1))
        with pytest.raises(IndexError):
            r.projection_measure(2)


class TestContainsPoint:
    def test_closed_lower_bound(self):
        r = Region.from_box(half_open(0, 4), half_open(0, 4))
        assert r.contains((0, 0))

    def test_open_upper_bound(self):
        r = Region.from_box(half_open(0, 4), half_open(0, 4))
        assert not r.contains((4, 0))

    def test_point_region(self):
        p = Region.from_box(closed(2, 2), closed(3, 3))
        assert p.contains((2, 3))
        assert not p.contains((2, 3.0001))

    def test_nan_is_outside(self):
        r = Region.from_box(closed(0, 4), closed(0, 4))
        assert not r.contains((float("nan"), 1.0))


def _random_region(rng, n_boxes=3, span=8):
    """A random region accumulated by unioning random half-open boxes."""
    r = Region.empty()
    for _ in range(n_boxes):
        lo0, lo1 = rng.integers(0, span - 1, size=2)
        hi0 = rng.integers(lo0 + 1, span + 1)
        hi1 = rng.integers(lo1 + 1, span + 1)
        b = Region.from_box(
            half_open(float(lo0), float(hi0)), half_open(float(lo1), float(hi1))
        )
        r = r | b
    return r


class TestRandomizedInvariants:
    def test_set_operations_match_raster_oracle(self, rng):
        for _ in range(50):
            a = _random_region(rng)
            b = _random_region(rng)
            axes = sample_axes(a, b)
            ra, rb = raster(a, axes), raster(b, axes)
            assert raster(a & b, axes) == ra & rb
            assert raster(a - b, axes) == ra - rb
            assert raster(a | b, axes) == ra | rb

    def test_measure_conservation(self, rng):
        for _ in range(50):
            a = _random_region(rng)
            b = _random_region(rng)
            lhs = a.measure()
            rhs = (a & b).measure() + (a - b).measure()
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_outputs_are_pairwise_disjoint(self, rng):
        for _ in range(30):
            a = _random_region(rng)
            b = _random_region(rng)
            for r in (a & b, a - b, a | b):
                for b1, b2 in itertools.combinations(r.boxes, 2):
                    probe = Region((b1,), _canonical=True)
                    other = Region((b2,), _canonical=True)
                    assert (probe & other).is_empty

    def test_difference_disjoint_from_subtrahend(self, rng):
        for _ in range(30):
            a = _random_region(rng)
            b = _random_region(rng)
            assert ((a - b) & b).is_empty
            recomposed = (a - b) | (a & b)
            axes = sample_axes(a, b)
            assert raster(recomposed, axes) == raster(a, axes)


def _cut(rng, boxes, b, k, side):
    """Cut box ``b`` on axis k at a random 3-decimal coordinate, which goes
    to the lower part (side 0), the upper part (side 1) or a closed slab of
    its own (side 2).  The parts go to ``boxes``; returns the slab or None."""
    lo, hi, lc, hc = b[k]
    cut = round(float(rng.uniform(lo, hi)), 3)
    if not lo < cut < hi:
        boxes.append(b)
        return None
    for iv in ((lo, cut, lc, side == 0), (cut, hi, side == 1, hc)):
        boxes.append(b[:k] + (iv,) + b[k + 1:])
    return b[:k] + ((cut, cut, True, True),) + b[k + 1:] if side == 2 else None


def _random_disjoint_boxes(rng, m):
    """Disjoint boxes from random guillotine cuts of [0, 10]^m.  A slab cut
    out on one axis is cut down to a point box half the time.  Some boxes
    are dropped and the rest shuffled."""
    boxes = [tuple((0.0, 10.0, True, True) for _ in range(m))]
    for _ in range(int(rng.integers(3, 9))):
        b = boxes.pop(int(rng.integers(0, len(boxes))))
        k = int(rng.integers(0, m))
        if b[k][0] == b[k][1]:
            boxes.append(b)
            continue
        slab = _cut(rng, boxes, b, k, int(rng.integers(0, 3)))
        if slab is not None and rng.random() < 0.5:
            for j in range(m):
                if slab is not None and slab[j][0] < slab[j][1]:
                    slab = _cut(rng, boxes, slab, j, 2)
        if slab is not None:
            boxes.append(slab)
    keep = rng.random(len(boxes)) < 0.8
    boxes = [b for b, k in zip(boxes, keep) if k] or boxes[:1]
    return [boxes[i] for i in rng.permutation(len(boxes))]


def _random_grid_cells(rng, m):
    """The cells of a random grid on [0, 10]^m, cut by ``_cut`` so that a
    face goes to one side or is cut out as a closed slab.  Some cells are
    dropped and the rest shuffled; a cell can meet its partners on several
    axes, which a guillotine tiling seldom gives."""
    axes = []
    for _ in range(m):
        parts = [((0.0, 10.0, True, True),)]
        for _ in range(int(rng.integers(1, 6 // m + 1))):
            part = parts.pop(int(rng.integers(0, len(parts))))
            slab = _cut(rng, parts, part, 0, int(rng.integers(0, 3)))
            if slab is not None:
                parts.append(slab)
        axes.append([part[0] for part in parts])
    cells = list(itertools.product(*axes))
    keep = rng.random(len(cells)) < 0.8
    cells = [c for c, k in zip(cells, keep) if k] or cells[:1]
    return [cells[i] for i in rng.permutation(len(cells))]


class TestCoalesce:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_random_disjoint_sets(self, rng, m):
        for _ in range(40):
            boxes = _random_disjoint_boxes(rng, m)
            out = kernels.coalesce(boxes)
            for a, b in itertools.combinations(out, 2):
                assert kernels.box_intersect(a, b) is None
                assert join(a, b) is None
            before = Region(boxes, _canonical=True)
            after = Region(out, _canonical=True)
            axes = sample_axes(before, after)
            grid = np.stack(
                [g.ravel() for g in np.meshgrid(*axes, indexing="ij")], -1
            )
            assert np.array_equal(
                kernels.locate(boxes, [0] * len(boxes), grid),
                kernels.locate(out, [0] * len(out), grid),
            )

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("boxes_of", [_random_disjoint_boxes, _random_grid_cells])
    def test_appending_matches_fixpoint(self, rng, m, boxes_of):
        # the rank contract, box for box and in order: appending one box to
        # a coalesced list gives what joining the first joinable pair until
        # none is left gives
        for _ in range(40):
            coalesced = []
            for b in boxes_of(rng, m):
                want = fixpoint_coalesce(coalesced + [b])
                assert kernels.coalesce(coalesced + [b]) == want
                coalesced = want

    def test_joins_with_earliest_partner(self):
        # c can join a or b: it joins a, the earlier, keeps a's place and
        # then absorbs b
        a = ((0.0, 1.0, True, False), (0.0, 1.0, True, False))
        b = ((2.0, 3.0, True, False), (0.0, 1.0, True, False))
        c = ((1.0, 2.0, True, False), (0.0, 1.0, True, False))
        d = ((5.0, 6.0, True, False), (0.0, 1.0, True, False))
        assert kernels.coalesce([a, d, b, c]) == [
            ((0.0, 3.0, True, False), (0.0, 1.0, True, False)), d,
        ]


def _itv_subtract(a, b):
    """Set difference of intervals as a list of 0, 1, or 2 intervals: the
    parts of ``a`` below and above ``b``."""
    inf = float("inf")
    out = []
    for side in ((-inf, b[0], False, not b[2]), (b[1], inf, not b[3], False)):
        part = kernels.itv_intersect(a, side)
        if part is not None:
            out.append(part)
    return out


def _box_cut_by_parts(a, b):
    """``box_cut`` composed from ``box_intersect`` and an interval
    difference per axis, the oracle for the one-pass kernel."""
    inter = kernels.box_intersect(a, b)
    if inter is None:
        return None, [a]
    pieces = []
    for k in range(len(a)):
        for part in _itv_subtract(a[k], b[k]):
            pieces.append(inter[:k] + (part,) + a[k + 1:])
    return inter, pieces


def _grid_intervals(n):
    """Every interval over the values 0..n-1: each pair of distinct values
    with all four flag combinations, and each point."""
    out = [(x, x, True, True) for x in range(n)]
    for lo, hi in itertools.combinations(range(n), 2):
        out += [(lo, hi, lc, hc) for lc in (True, False) for hc in (True, False)]
    return out


class TestBoxesCut:
    def test_box_cut_matches_parts_1d(self):
        ivs = _grid_intervals(5)
        for a, b in itertools.product(ivs, repeat=2):
            assert kernels.box_cut((a,), (b,)) == _box_cut_by_parts((a,), (b,))

    def test_box_cut_matches_parts_2d(self):
        # every 5-value interval pair on one axis against every 2-value
        # pair on the other, both ways round: each axis sees every case
        # while the other meets, touches or misses
        wide = list(itertools.product(_grid_intervals(5), repeat=2))
        narrow = list(itertools.product(_grid_intervals(2), repeat=2))
        for (a0, b0), (a1, b1) in itertools.product(wide, narrow):
            for a, b in (((a0, a1), (b0, b1)), ((a1, a0), (b1, b0))):
                assert kernels.box_cut(a, b) == _box_cut_by_parts(a, b)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_random_sets_with_overlapping_cutter(self, rng, m):
        # a 4-D probe grid has ~10^5-10^6 points, so fewer 4-D draws
        for _ in range(40 if m < 4 else 15):
            a = _random_disjoint_boxes(rng, m)
            # boxes of two independent partitions, one repeated: b overlaps itself
            b = _random_disjoint_boxes(rng, m)[:3] + _random_disjoint_boxes(rng, m)[:3]
            b.append(b[0])
            shared, rest = kernels.boxes_cut(a, b)
            for p, q in itertools.combinations(shared + rest, 2):
                assert kernels.box_intersect(p, q) is None
            regions = [Region((x,), _canonical=True) for x in a + b + shared + rest]
            pts = np.array(list(itertools.product(*sample_axes(*regions))))
            in_a, in_b = inside(a, pts), inside(b, pts)
            assert np.array_equal(inside(shared, pts), in_a & in_b)
            assert np.array_equal(inside(rest, pts), in_a & ~in_b)

    def test_box_cut_returns_intersection_and_peel(self):
        a = (closed(0.0, 4.0), closed(0.0, 4.0))
        b = (half_open(1.0, 2.0), closed(3.0, 6.0))
        inter, pieces = kernels.box_cut(a, b)
        assert inter == (half_open(1.0, 2.0), closed(3.0, 4.0))
        assert pieces == [
            ((0.0, 1.0, True, False), closed(0.0, 4.0)),
            (closed(2.0, 4.0), closed(0.0, 4.0)),
            (half_open(1.0, 2.0), half_open(0.0, 3.0)),
        ]
        assert kernels.box_cut(a, (closed(5.0, 6.0), closed(0.0, 1.0))) == (None, [a])


def _dense_locate(boxes, owners, points):
    """Point location without an index: every point against every box, in
    chunks.  The reference ``TestLocate`` compares ``kernels.locate`` with."""
    points = np.asarray(points, dtype=float)
    if not boxes:
        return np.full(len(points), -1, dtype=np.intp)
    bounds = np.array(boxes, dtype=float)
    ends = bounds[..., :2]
    ends = np.where(bounds[..., 2:] != 0, ends, np.nextafter(ends, (np.inf, -np.inf)))
    lo, hi = ends.T
    owners = np.array([*owners, -1], dtype=np.intp)
    out = np.empty(len(points), dtype=np.intp)
    step = max(1, (1 << 17) // len(boxes))
    for start in range(0, len(points), step):
        chunk = points[start:start + step]
        hit = np.ones((len(chunk), len(owners)), dtype=bool)
        inside = hit[:, :-1]
        for k, coords in enumerate(chunk.T):
            inside &= coords[:, None] >= lo[k]
            inside &= coords[:, None] <= hi[k]
        out[start:start + step] = owners[hit.argmax(axis=1)]
    return out


def _locate_case(rng, m, stripes):
    """Boxes of two independent partitions of [0, 10]^m, so some overlap,
    with point boxes among them, and probe points: every face, every cell
    midpoint, one point beyond each end, random points, and NaN and +-inf
    coordinates.  With ``stripes`` every box spans all of attribute 0, so
    there is one slab."""
    boxes = _random_disjoint_boxes(rng, m) + _random_disjoint_boxes(rng, m)
    if rng.random() < 0.5:
        boxes.append(tuple((c, c, True, True) for c in rng.uniform(0, 10, m).round(1)))
    if stripes:
        boxes = [((0.0, 10.0, True, True),) + b[1:] for b in boxes]
    boxes = [boxes[i] for i in rng.permutation(len(boxes))]
    regions = [Region((b,), _canonical=True) for b in boxes]
    axes = sample_axes(*regions)
    # at most ~2000 grid points: keep every axis short enough
    keep = max(2, int(2000 ** (1 / m)))
    axes = [sorted(rng.choice(ax, min(len(ax), keep), replace=False)) for ax in axes]
    grid = np.array(list(itertools.product(*axes)), dtype=float).reshape(-1, m)
    pts = np.concatenate([grid, rng.uniform(-1, 11, (200, m))])
    odd = rng.random(pts.shape) < 0.02
    pts[odd] = rng.choice([np.nan, np.inf, -np.inf], odd.sum())
    return boxes, pts[rng.permutation(len(pts))]


class TestLocate:
    """``kernels.locate`` against the dense reference: the first containing
    box wins, faces follow their flags, NaN is never inside."""

    @pytest.mark.parametrize("stripes", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_dense_reference(self, rng, m, stripes, monkeypatch):
        for trial in range(30):
            boxes, pts = _locate_case(rng, m, stripes)
            owners = rng.permutation(len(boxes))
            want = _dense_locate(boxes, owners, pts)
            # a small bound sends most calls through the slab index, with
            # slab groups of several chunks; the default bound takes the
            # dense pass for the small calls
            monkeypatch.setattr(kernels, "_CHUNK_PAIRS", [1 << 17, 7, 64][trial % 3])
            got = kernels.locate(boxes, owners, pts)
            assert got.dtype == np.intp
            assert np.array_equal(got, want), (boxes, pts[got != want])

    def test_large_call_uses_default_bound(self, rng):
        # points x boxes above the default bound: the slab index, unpatched
        boxes, _ = _locate_case(rng, 2, False)
        pts = rng.uniform(-1, 11, ((1 << 17) // len(boxes) + 1, 2))
        pts[::97, 0] = np.nan
        owners = range(len(boxes))
        assert np.array_equal(kernels.locate(boxes, owners, pts),
                              _dense_locate(boxes, owners, pts))

    def test_first_box_wins(self, monkeypatch):
        wide = (closed(0.0, 10.0), closed(0.0, 10.0))
        narrow = (closed(2.0, 3.0), closed(2.0, 3.0))
        pts = [(2.5, 2.5), (5.0, 5.0), (2.0, 3.0), (11.0, 1.0)]
        for bound in (1 << 17, 1):
            monkeypatch.setattr(kernels, "_CHUNK_PAIRS", bound)
            assert kernels.locate([narrow, wide], [7, 8], pts).tolist() == [7, 8, 7, -1]
            assert kernels.locate([wide, narrow], [7, 8], pts).tolist() == [7, 7, 7, -1]

    def test_faces_follow_flags_on_the_slab_axis(self, monkeypatch):
        monkeypatch.setattr(kernels, "_CHUNK_PAIRS", 1)
        boxes = [((0.0, 1.0, False, False), closed(0.0, 1.0)),
                 ((1.0, 2.0, True, False), closed(0.0, 1.0)),
                 ((2.0, 2.0, True, True), closed(0.0, 1.0)),
                 ((3.0, 4.0, False, True), closed(0.0, 1.0)),
                 # the last slab starts at inf, and NaN stays out of it
                 ((5.0, np.inf, True, True), closed(0.0, 1.0))]
        xs = [0.0, 0.5, 1.0, 2.0, np.nextafter(2.0, 3.0), 3.0, 4.0, -np.inf, np.inf, np.nan]
        got = kernels.locate(boxes, range(5), [(x, 0.5) for x in xs])
        assert got.tolist() == [-1, 0, 1, 2, -1, -1, 3, -1, 4, -1]
        assert got.tolist() == _dense_locate(boxes, range(5), [(x, 0.5) for x in xs]).tolist()

    @pytest.mark.parametrize("bound", [1 << 17, 1])
    def test_nan_bound_contains_nothing(self, monkeypatch, bound):
        monkeypatch.setattr(kernels, "_CHUNK_PAIRS", bound)
        boxes = [((1.0, np.nan, True, True), closed(0.0, 1.0)),
                 ((np.nan, 3.0, True, True), closed(0.0, 1.0)),
                 (closed(0.0, 4.0), closed(0.0, 1.0))]
        pts = [(x, 0.5) for x in (0.5, 2.0, 3.0, 5.0, np.nan)]
        assert kernels.locate(boxes, range(3), pts).tolist() == [2, 2, 2, -1, -1]

    @pytest.mark.parametrize("bound", [1 << 17, 1])
    def test_empty_inputs(self, monkeypatch, bound):
        monkeypatch.setattr(kernels, "_CHUNK_PAIRS", bound)
        boxes = [(closed(0.0, 1.0), closed(0.0, 1.0))]
        for pts in ([], np.empty((0, 2))):
            got = kernels.locate(boxes, [0], pts)
            assert got.dtype == np.intp and got.shape == (0,)
        assert kernels.locate([], [], [(0.5, 0.5), (2.0, 2.0)]).tolist() == [-1, -1]

    @pytest.mark.parametrize("bound", [1 << 17, 1])
    def test_bounds_at_the_largest_float(self, monkeypatch, bound):
        # a closed end at the largest float stays put, on the slab axis and
        # off it, and no end is moved past it with an overflow warning
        monkeypatch.setattr(kernels, "_CHUNK_PAIRS", bound)
        big = np.finfo(float).max
        below = np.nextafter(big, 0.0)
        boxes = [((0.0, big, False, True), closed(0.0, 1.0)),
                 ((-big, 0.0, True, False), closed(0.0, 1.0)),
                 (closed(big, big), closed(2.0, 3.0)),
                 (closed(0.0, 1.0), closed(big, big)),
                 (closed(-big, -big), closed(-big, -big))]
        pts = [(big, 0.5), (below, 0.5), (np.inf, 0.5), (-big, 0.5), (-np.inf, 0.5),
               (0.0, 0.5), (big, 2.5), (below, 2.5), (big, 3.5), (0.5, big),
               (0.5, below), (0.5, np.inf), (-big, -big), (np.nan, big)]
        assert kernels.locate(boxes, range(5), pts).tolist() == [
            0, 0, -1, 1, -1, -1, 2, -1, -1, 3, -1, -1, 4, -1]

    def test_point_box_at_the_largest_float(self):
        big = np.finfo(float).max
        point = Region.from_box((big, big, True, True))
        assert point.contains((big,))
        assert not point.contains((np.nextafter(big, 0.0),))
        assert not point.contains((np.inf,))
