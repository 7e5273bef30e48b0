"""Property-based checks with hypothesis: geometry invariants driven by
generated interval/box data, and distribution arithmetic properties."""

from hypothesis import given, settings, strategies as st

from decspace import ClassDistribution, combine_values, merge, semantically_equal
from decspace.geometry import Interval, Region, kernels
from decspace.laws import _random_schema
from decspace.sampling import random_space

import numpy as np
import pytest


def intervals(max_coord=8):
    return st.tuples(
        st.integers(0, max_coord - 1), st.integers(1, max_coord),
        st.booleans(), st.booleans(),
    ).map(
        lambda t: Interval(float(min(t[0], t[1])), float(max(t[0], t[1], t[0] + 1)),
                           t[2], t[3])
    )


boxes = st.tuples(intervals(), intervals())


def region_from(boxlist):
    r = Region.empty()
    for b in boxlist:
        r = r | Region((tuple(tuple(iv) for iv in [b[0], b[1]]),), _canonical=True)
    return r


regions = st.lists(boxes, min_size=1, max_size=3).map(region_from)


class TestIntervalProperties:
    @given(intervals(), intervals())
    def test_intersection_commutes(self, a, b):
        assert kernels.itv_intersect(a, b) == kernels.itv_intersect(b, a)

    @given(intervals())
    def test_self_intersection_identity(self, a):
        assert kernels.itv_intersect(a, a) == a

    @given(intervals(), intervals())
    def test_intersection_is_contained(self, a, b):
        got = kernels.itv_intersect(a, b)
        if got is not None:
            lo, hi = got[:2]
            assert a.lo <= lo and hi <= a.hi
            assert b.lo <= lo and hi <= b.hi


class TestRegionProperties:
    @given(regions, regions)
    @settings(max_examples=60, deadline=None)
    def test_intersection_commutes(self, a, b):
        assert (a & b) == (b & a)

    @given(regions, regions)
    @settings(max_examples=60, deadline=None)
    def test_difference_and_intersection_partition(self, a, b):
        inter, diff = a & b, a - b
        assert (inter & diff).is_empty
        assert a.measure() == pytest.approx(inter.measure() + diff.measure())

    @given(regions, regions)
    @settings(max_examples=60, deadline=None)
    def test_union_contains_both(self, a, b):
        u = a | b
        assert a.issubset(u) and b.issubset(u)
        assert (u - a - b).is_empty

    @given(regions)
    @settings(max_examples=60, deadline=None)
    def test_canonical_form_is_stable(self, a):
        again = Region(a.boxes)
        assert again == a


class TestDistributionProperties:
    weights = st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4)

    @given(weights, st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    def test_combination_of_identical_values_is_identity(self, ws, m1, m2):
        total = sum(ws)
        v = ClassDistribution(
            tuple(f"c{i}" for i in range(len(ws))),
            tuple(w / total for w in ws),
        )
        got = combine_values([v, v], [m1, m2])
        assert got.weights == pytest.approx(v.weights)

    @given(weights, weights, st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    def test_combination_sums_to_one(self, w1, w2, m1, m2):
        n = min(len(w1), len(w2))
        labels = tuple(f"c{i}" for i in range(n))
        v1 = ClassDistribution(labels, tuple(w / sum(w1[:n]) for w in w1[:n]))
        v2 = ClassDistribution(labels, tuple(w / sum(w2[:n]) for w in w2[:n]))
        got = combine_values([v1, v2], [m1, m2])
        assert sum(got.weights) == pytest.approx(1.0, abs=1e-9)


class TestMergeRandomized:
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from((1.0, 0.7)))
    @settings(max_examples=25, deadline=None)
    def test_commutative_on_random_spaces(self, seed, coverage):
        # 1-4 attributes; partial coverage drops tiles and adds a point element
        rng = np.random.default_rng(seed)
        schema = _random_schema(rng)
        x, y = (random_space(rng, schema, coverage=coverage) for _ in range(2))
        assert semantically_equal(merge(x, y), merge(y, x))
