import itertools
from functools import reduce

import numpy as np
import pytest

from decspace import (
    AttributeSchema,
    classify,
    ClassDistribution,
    DecisionSpace,
    Element,
    combine_values,
    intersection_report,
    merge,
    merge_nary,
    merge_streaming,
    op_barodot,
    op_plus,
    restrict,
    semantically_equal,
    strictly_subsumes,
    subsumes,
    validate,
)
from decspace.geometry import Region
from decspace.laws import _random_schema
from decspace.operators import _overlay
from decspace.sampling import DEFAULT_SCHEMA, random_space

from conftest import check_merge_against_oracle, inside, sample_axes


def elem(box_spec, weights, labels=("Yes", "No")):
    return Element(Region.from_box(*box_spec), ClassDistribution(labels, weights))


def single_space(schema, box_spec, weights, labels=("Yes", "No")):
    return DecisionSpace(schema, labels, (elem(box_spec, weights, labels),))


@pytest.fixture
def schema():
    return DEFAULT_SCHEMA


class TestSubsumption:
    def test_strict_containment(self):
        y = elem(((1, 2, True, False), (1, 2, True, False)), (1.0, 0.0))
        x = elem(((0, 4, True, False), (0, 4, True, False)), (1.0, 0.0))
        assert subsumes(x, y)
        assert strictly_subsumes(x, y)
        assert not subsumes(y, x)

    def test_self_subsumption_is_not_strict(self):
        x = elem(((0, 4, True, False), (0, 4, True, False)), (1.0, 0.0))
        assert subsumes(x, x)
        assert not strictly_subsumes(x, x)

    def test_shared_endpoint_is_not_strict(self):
        y = elem(((0, 2, True, False), (1, 2, True, False)), (1.0, 0.0))
        x = elem(((0, 4, True, False), (0, 4, True, False)), (1.0, 0.0))
        assert subsumes(x, y)
        assert not strictly_subsumes(x, y)  # equal lower endpoint on attr 0

    # x's projection on attribute 0 has a gap, [0,2] u [4,6], or an open-face
    # hole at 3, [0,3) u (3,6]; on attribute 1 it is [0,6].  y is strictly
    # subsumed only if its projection avoids the gap or hole.
    GAP = [((0, 2, True, True), (0, 6, True, True)), ((4, 6, True, True), (0, 6, True, True))]
    HOLE = [((0, 3, True, False), (0, 6, True, True)), ((3, 6, False, True), (0, 6, True, True))]
    STRICT_TABLE = [
        ("gap-spanned", GAP, [(1, 5, True, True)], False),
        ("gap-edge-to-edge", GAP, [(2, 4, True, True)], False),
        ("gap-left-part", GAP, [(0.5, 1.5, True, True)], True),
        ("gap-right-part", GAP, [(4.5, 5.5, True, True)], True),
        ("gap-both-parts", GAP, [(0.5, 1, True, True), (5, 5.5, True, True)], True),
        ("gap-at-extreme", GAP, [(0, 1, True, True)], False),
        ("gap-point-inside", GAP, [(1, 1, True, True)], True),
        ("gap-point-in-gap", GAP, [(3, 3, True, True)], False),
        ("hole-spanned", HOLE, [(2, 4, True, True)], False),
        ("hole-left-part", HOLE, [(1, 2, True, True)], True),
        ("hole-open-up-to-hole", HOLE, [(2, 3, True, False)], True),
        ("hole-closed-at-hole", HOLE, [(2, 3, True, True)], False),
        ("hole-open-from-hole", HOLE, [(3, 4, False, True)], True),
        ("hole-point-in-hole", HOLE, [(3, 3, True, True)], False),
        ("hole-point-inside", HOLE, [(4, 4, True, True)], True),
    ]

    @pytest.mark.parametrize("x_boxes, y_attr0, expected",
                             [case[1:] for case in STRICT_TABLE],
                             ids=[case[0] for case in STRICT_TABLE])
    def test_projection_gaps_and_holes(self, x_boxes, y_attr0, expected):
        value = ClassDistribution(("Yes", "No"), (1.0, 0.0))
        x = Element(Region(x_boxes), value)
        y_attr1 = (1, 1, True, True) if y_attr0[0][0] == y_attr0[0][1] else (1, 2, True, True)
        y = Element(Region([(iv, y_attr1) for iv in y_attr0]), value)
        assert strictly_subsumes(x, y) is expected


class TestIntersectWithSpace:
    def test_disjoint(self, schema):
        x = single_space(schema, ((0, 2, True, False), (0, 2, True, False)), (1.0, 0.0))
        other = single_space(schema, ((4, 6, True, False), (4, 6, True, False)), (0.0, 1.0))
        assert intersection_report(x, other).pairs == ()

    def test_single_conflict(self, overlap_pair):
        grey, checker = overlap_pair
        rep = intersection_report(grey, checker)
        assert rep.pairs == (
            (0, 0, Region.from_box((7.0, 8.0, True, True), (3.0, 10.0, True, True))),
        )

    def test_face_touch_is_a_conflict(self, schema):
        x = single_space(schema, ((0, 2, True, True), (0, 2, True, True)), (1.0, 0.0))
        other = single_space(schema, ((2, 4, True, True), (0, 2, True, True)), (0.0, 1.0))
        face = Region.from_box((2, 2, True, True), (0, 2, True, True))
        assert intersection_report(x, other).pairs == ((0, 0, face),)
        assert intersection_report(other, x).pairs == ((0, 0, face),)

    def test_report_remainders_disjoint_from_shared(self, overlap_pair):
        grey, checker = overlap_pair
        rep = intersection_report(grey, checker)
        assert len(rep.pairs) == 1
        _, _, shared = rep.pairs[0]
        assert (rep.x_remainders[0] & shared).is_empty
        assert (rep.y_remainders[0] & shared).is_empty

    def test_report_shared_face_is_a_pair(self, schema):
        # the face belongs to the pair, so neither remainder holds it
        x = single_space(schema, ((0, 2, True, True), (0, 2, True, True)), (1.0, 0.0))
        y = single_space(schema, ((2, 4, True, True), (0, 2, True, True)), (0.0, 1.0))
        left = Region.from_box((0, 2, True, False), (0, 2, True, True))
        right = Region.from_box((2, 4, False, True), (0, 2, True, True))
        for a, b, a_rest, b_rest in ((x, y, left, right), (y, x, right, left)):
            rep = intersection_report(a, b)
            assert rep.pairs == ((0, 0, Region.from_box((2, 2, True, True), (0, 2, True, True))),)
            assert rep.x_remainders[0] == a_rest
            assert rep.y_remainders[0] == b_rest


class TestTouchingExtents:
    """Extents that meet at exactly one endpoint are not pruned from the
    overlay: the corner or face they share is a conflict, so both operand
    orders give the same elements and neither leftover holds it."""

    @staticmethod
    def summary(space):
        return [(e.region, e.value.weights, e.mass) for e in space.elements]

    def check(self, x, y, shared, merged):
        for a, b in ((x, y), (y, x)):
            for got in (merge(a, b), merge_nary([a, b])):
                assert set(self.summary(got)) == set(merged)
            rep = intersection_report(a, b)
            assert rep.pairs == ((0, 0, shared),)
            leftovers = {rep.x_remainders[0], rep.y_remainders[0]}
            assert leftovers == {reg for reg, _, _ in merged} - {shared}

    def test_point_on_box_corner(self, schema):
        # a point conflicts with the box it meets and weighs 0 there, so
        # both orders give the box's value on the point
        point = single_space(schema, ((2, 2, True, True), (2, 2, True, True)), (1.0, 0.0))
        box = single_space(schema, ((2, 6, True, True), (2, 6, True, True)), (0.0, 1.0))
        p, b = point.elements[0].region, box.elements[0].region
        for x, y in ((point, box), (box, point)):
            for got in (merge(x, y), merge_nary([x, y])):
                assert self.summary(got) == [(p, (0.0, 1.0), 4.0), (b - p, (0.0, 1.0), 4.0)]
            rep = intersection_report(x, y)
            assert rep.pairs == ((0, 0, p),)
            leftovers = [rep.x_remainders[0], rep.y_remainders[0]]
            assert [r for r in leftovers if not r.is_empty] == [b - p]

    def test_closed_boxes_sharing_a_face(self, schema):
        # both weigh 2, so the face gets the plain average and their summed mass
        left = single_space(schema, ((0, 2, True, True), (0, 2, True, True)), (1.0, 0.0))
        right = single_space(schema, ((2, 4, True, True), (0, 2, True, True)), (0.25, 0.75))
        face = Region.from_box((2, 2, True, True), (0, 2, True, True))
        self.check(
            left, right, face,
            [(face, (0.625, 0.375), 4.0),
             (Region.from_box((0, 2, True, False), (0, 2, True, True)), (1.0, 0.0), 2.0),
             (Region.from_box((2, 4, False, True), (0, 2, True, True)), (0.25, 0.75), 2.0)],
        )


class TestOverlay:
    """``_overlay`` against its definition: disjoint fragments that cover
    exactly the entries' union, each covered by exactly its contributors."""

    @staticmethod
    def entries(spaces):
        return [(s, e) for s, sp in enumerate(spaces) for e in sp.elements]

    @pytest.mark.parametrize("coverage", [1.0, 0.7])
    @pytest.mark.parametrize("seed", range(12))
    def test_oracle_on_random_spaces(self, seed, coverage):
        rng = np.random.default_rng(seed)
        schema = _random_schema(rng)
        entries = self.entries(
            [random_space(rng, schema, max_elements=6, coverage=coverage) for _ in range(3)]
        )
        frags = _overlay(entries)
        for i, (a, _) in enumerate(frags):
            for b, _ in frags[i + 1:]:
                assert (a & b).is_empty
        union = Region.empty()
        for reg, _ in frags:
            union = union | reg
        covered = Region.empty()
        for _, e in entries:
            covered = covered | e.region
        assert union == covered
        for reg, contribs in frags:
            for b in reg.boxes:
                centre = [(lo + hi) / 2 for lo, hi, _, _ in b]
                covering = [k for k, (_, e) in enumerate(entries) if e.region.contains(centre)]
                assert covering == list(contribs)

    def test_one_fragment_cut_by_two_entries_of_a_later_space(self, schema):
        # x's fragment gives shared_1, shared_2, then its remainder; y's own
        # remainders follow, and an extent that only touches x's is no cut
        half_open = (0, 1, True, False)
        x = single_space(schema, ((0, 4, True, False), (0, 8, True, True)), (1.0, 0.0))
        a = elem(((0, 1, True, False), half_open), (0.0, 1.0))
        b = elem(((2, 3, True, False), half_open), (0.5, 0.5))
        c = elem(((4, 8, True, True), (0, 8, True, True)), (0.2, 0.8))
        y = DecisionSpace(schema, ("Yes", "No"), (a, b, c))
        got = _overlay(self.entries([x, y]))
        rest = x.elements[0].region - a.region - b.region
        assert got == [(a.region, (0, 1)), (b.region, (0, 2)), (rest, (0,)), (c.region, (3,))]


class TestCombineValues:
    def test_weighted_average(self):
        v1 = ClassDistribution(("Yes", "No"), (0.4, 0.6))
        v2 = ClassDistribution(("Yes", "No"), (0.0, 1.0))
        got = combine_values([v1, v2], [7.5, 6.5])
        assert got.weights[0] == pytest.approx(3.0 / 14.0)
        assert sum(got.weights) == pytest.approx(1.0, abs=1e-9)

    def test_equal_values_fixed_point(self):
        v = ClassDistribution(("Yes", "No"), (0.3, 0.7))
        got = combine_values([v, v, v], [1.0, 2.0, 5.0])
        assert got.weights == pytest.approx(v.weights)

    def test_three_way_matches_direct_formula(self):
        vs = [
            ClassDistribution(("A", "B"), (1.0, 0.0)),
            ClassDistribution(("A", "B"), (0.0, 1.0)),
            ClassDistribution(("A", "B"), (0.5, 0.5)),
        ]
        got = combine_values(vs, [1.0, 1.0, 2.0])
        assert got.weights == pytest.approx((0.5, 0.5))

    def test_all_zero_masses_error(self):
        v = ClassDistribution(("A",), (1.0,))
        with pytest.raises(ValueError):
            combine_values([v, v], [0.0, 0.0])

    def test_length_mismatch(self):
        v = ClassDistribution(("A",), (1.0,))
        with pytest.raises(ValueError):
            combine_values([v], [1.0, 2.0])

    def test_one_hot_stays_exactly_one(self, schema):
        v = ClassDistribution.one_hot(("Yes", "No"), "Yes")
        got = combine_values([v, v], [0.25, 1.8])
        assert got.weights == (1.0, 0.0)
        space = DecisionSpace(schema, v.labels, (Element(schema.full_region(), got),))
        assert validate(space) == []


class TestMerge:
    def test_overlapping_pair_intersection_value(self, overlap_pair):
        grey, checker = overlap_pair
        merged = merge(grey, checker)
        assert validate(merged) == []
        dist, label = classify(merged, (7.5, 5.0))  # inside the shared region
        assert dist.weights[0] == pytest.approx(3.0 / 14.0, abs=1e-12)
        assert label == "No"
        # remainders keep their original values
        assert classify(merged, (7.5, 12.0))[0].weights == pytest.approx((0.4, 0.6))
        assert classify(merged, (4.0, 5.0))[0].weights == pytest.approx((0.0, 1.0))

    def test_intersection_element_mass_accumulates(self, overlap_pair):
        grey, checker = overlap_pair
        merged = merge(grey, checker)
        inter = [e for e in merged.elements if e.region.contains((7.5, 5.0))]
        assert len(inter) == 1
        assert inter[0].mass == pytest.approx(7.5 + 6.5)

    def test_identity(self, rng, schema):
        for _ in range(5):
            x = random_space(rng, schema)
            empty = DecisionSpace.empty(schema, x.class_labels)
            assert semantically_equal(merge(x, empty), x)
            assert semantically_equal(merge(empty, x), x)

    def test_idempotent(self, rng, schema):
        for _ in range(5):
            x = random_space(rng, schema)
            assert semantically_equal(merge(x, x), x)

    def test_commutative(self, rng, schema):
        for _ in range(10):
            x, y = random_space(rng, schema), random_space(rng, schema)
            assert semantically_equal(merge(x, y), merge(y, x))

    def test_outputs_validate(self, rng, schema):
        for _ in range(10):
            x, y = random_space(rng, schema), random_space(rng, schema)
            assert validate(merge(x, y)) == []

    def test_matches_cellwise_oracle(self, rng, schema):
        for _ in range(25):
            x, y = random_space(rng, schema), random_space(rng, schema)
            check_merge_against_oracle(x, y, merge(x, y))

    def test_strictly_subsumed_equal_value_dropped(self, schema):
        labels = ("Yes", "No")
        inner = single_space(schema, ((2, 3, True, False), (2, 3, True, False)), (1.0, 0.0))
        outer = single_space(schema, ((0, 8, True, False), (0, 8, True, False)), (1.0, 0.0))
        merged = merge(inner, outer)
        assert len(merged.elements) == 1
        assert semantically_equal(merged, outer)

    def test_class_labels_reconciled(self, schema):
        a = single_space(schema, ((0, 4, True, False), (0, 8, True, False)),
                         (1.0,), labels=("Yes",))
        b = single_space(schema, ((4, 8, True, False), (0, 8, True, False)),
                         (1.0,), labels=("No",))
        merged = merge(a, b)
        assert merged.class_labels == ("No", "Yes")
        assert validate(merged) == []

    @pytest.mark.parametrize("a, b, union", [
        (("A", -1), ("A", "B"), ("A", "B", -1)),  # no common order: by repr
        ((2, 10), (1,), (1, 2, 10)),  # numbers keep their order
    ])
    def test_label_union_order(self, schema, a, b, union):
        x = single_space(schema, ((0, 4, True, False), (0, 8, True, False)),
                         (1.0,) + (0.0,) * (len(a) - 1), labels=a)
        y = single_space(schema, ((2, 8, True, False), (0, 8, True, False)),
                         (0.0,) * (len(b) - 1) + (1.0,), labels=b)
        merged = merge(x, y)
        assert merged.class_labels == union
        assert validate(merged) == []

    def test_schema_mismatch(self, schema):
        other = AttributeSchema((("b0", 0.0, 8.0), ("b1", 0.0, 8.0)))
        x = single_space(schema, ((0, 1, True, False), (0, 1, True, False)), (1.0, 0.0))
        y = single_space(other, ((0, 1, True, False), (0, 1, True, False)), (1.0, 0.0))
        with pytest.raises(ValueError):
            merge(x, y)

    def test_coincident_points_average_unweighted(self, schema):
        labels = ("Yes", "No")
        p1 = single_space(schema, ((2, 2, True, True), (2, 2, True, True)), (1.0, 0.0))
        p2 = single_space(schema, ((2, 2, True, True), (2, 2, True, True)), (0.0, 1.0))
        merged = merge(p1, p2)
        assert len(merged.elements) == 1
        assert merged.elements[0].value.weights == pytest.approx((0.5, 0.5))


class TestNaryAndStreaming:
    def test_drop_pass_changes_a_value(self):
        # y is strictly inside x with x's value, so the drop pass removes it:
        # at 3.5, A weighs 8 against z's 3, not (8 + 2) against 3
        schema = AttributeSchema((("a", 0.0, 10.0),))
        x, y, z = (single_space(schema, ((lo, hi, True, True),), weights, labels=("A", "B"))
                   for lo, hi, weights in ((0, 8, (1.0, 0.0)), (2, 4, (1.0, 0.0)),
                                           (3, 6, (0.0, 1.0))))
        for merged in (merge_nary([x, y, z]), reduce(merge_streaming, [x, y, z])):
            value, _ = classify(merged, (3.5,))
            assert value.weights[0] == pytest.approx(8 / 11, abs=1e-12)

    def test_singleton(self, rng, schema):
        x = random_space(rng, schema)
        assert semantically_equal(merge_nary([x]), x)
        assert semantically_equal(merge_streaming(x, DecisionSpace.empty(schema, x.class_labels)), x)

    def test_binary_case_equals_merge(self, rng, schema):
        for _ in range(10):
            x, y = random_space(rng, schema), random_space(rng, schema)
            assert semantically_equal(merge_nary([x, y]), merge(x, y))

    def test_equal_mass_full_domain_quarters(self, schema):
        labels = ("A", "B", "C", "D")
        spaces = [
            DecisionSpace(schema, labels, (Element(
                schema.full_region(),
                ClassDistribution.one_hot(labels, labels[i]),
            ),))
            for i in range(4)
        ]
        merged = merge_nary(spaces)
        assert len(merged.elements) == 1
        assert merged.elements[0].value.weights == pytest.approx((0.25,) * 4)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            merge_nary([])

    def test_streaming_fold_equals_nary(self, rng, schema):
        for coverage in (1.0, 0.6):
            for _ in range(10):
                spaces = [random_space(rng, schema, coverage=coverage) for _ in range(4)]
                acc = spaces[0]
                for sp in spaces[1:]:
                    acc = merge_streaming(acc, sp)
                assert semantically_equal(acc, merge_nary(spaces))

    def test_streaming_weighs_stored_mass(self, rng, schema):
        # a second operand whose masses are twice their specialization
        # stands for two copies of itself
        for _ in range(10):
            x = random_space(rng, schema, coverage=0.6)
            y = random_space(rng, schema, coverage=0.6)
            doubled = DecisionSpace(schema, y.class_labels, tuple(
                Element(e.region, e.value, 2 * e.mass) for e in y.elements
            ))
            assert semantically_equal(merge_streaming(x, doubled), merge_nary([x, y, y]))

    def test_leftover_face_conflicts_as_in_nary(self, schema):
        # y's first element leaves x only its closed face a0 = 2, which y's
        # segment element meets: they share points, so they conflict
        x = single_space(schema, ((0, 2, True, True), (0, 2, True, True)), (1.0, 0.0))
        y = DecisionSpace(schema, ("Yes", "No"), (
            elem(((0, 2, True, False), (0, 2, True, True)), (0.0, 1.0)),
            elem(((2, 2, True, True), (0, 2, True, True)), (0.0, 1.0)),
        ))
        merged = merge(x, y)
        assert validate(merged) == []
        assert semantically_equal(merged, merge_nary([x, y]))
        assert semantically_equal(merge_streaming(x, y), merged)
        assert classify(merged, (2.0, 1.0))[0].weights == pytest.approx((2 / 3, 1 / 3))

    def test_point_inside_box_commutes(self, schema):
        # a point conflicts with the box around it and weighs 0, whichever
        # operand comes first
        x = DecisionSpace(schema, ("Y", "N"), (
            elem(((2, 2, True, True), (2, 2, True, True)), (1.0, 0.0), ("Y", "N")),))
        y = DecisionSpace(schema, ("Y", "N"), (
            elem(((0, 8, True, True), (0, 8, True, True)), (0.0, 1.0), ("Y", "N")),))
        for op in (merge, merge_streaming, lambda a, b: merge_nary([a, b])):
            xy, yx = op(x, y), op(y, x)
            assert semantically_equal(xy, yx)
            assert classify(xy, (2, 2))[1] == classify(yx, (2, 2))[1] == "N"

    def test_leftover_closed_face_is_a_conflict(self, schema):
        # C cuts A's interior away and leaves A's closed face x = 2, which D
        # meets on its own closed face: A (weight 2) and D (weight 1.5)
        # conflict there, whatever the operand order
        a = single_space(schema, ((0, 2, True, True), (0, 2, True, True)), (1.0, 0.0))
        c = single_space(schema, ((0, 2, True, False), (0, 2, True, True)), (0.5, 0.5))
        d = single_space(schema, ((2, 3, True, True), (0, 2, True, True)), (0.0, 1.0))
        for spaces in ([a, c, d], [d, c, a], [a, d]):
            got = classify(merge_nary(spaces), (2, 1))[0]
            assert got.weights == pytest.approx((4 / 7, 3 / 7))
        assert semantically_equal(merge_nary([a, c, d]), merge_nary([d, c, a]))

    def test_shared_face_witness_commutes(self):
        # both hold the point 2.5, so every order averages there (weights 2.5, 1)
        schema = AttributeSchema((("a0", 0.0, 8.0),))
        x = single_space(schema, ((0, 2.5, True, True),), (1.0, 0.0))
        y = single_space(schema, ((2.5, 3.5, True, False),), (0.0, 1.0))
        for got in (merge(x, y), merge(y, x), merge_nary([x, y]), merge_nary([y, x]),
                    merge_streaming(x, y), merge_streaming(y, x)):
            assert classify(got, (2.5,))[0].weights == pytest.approx((5 / 7, 2 / 7))
            assert classify(got, (2.4,))[0].weights == (1.0, 0.0)
            assert classify(got, (2.6,))[0].weights == (0.0, 1.0)

    def test_first_streaming_step_is_plain_merge(self, rng, schema):
        x, y = random_space(rng, schema), random_space(rng, schema)
        assert semantically_equal(merge_streaming(x, y), merge(x, y))


class TestRestrict:
    def test_self_restriction_is_identity(self, rng, schema):
        for _ in range(5):
            x = random_space(rng, schema, coverage=0.7)
            r = restrict(x, x)
            assert r.elements == x.elements

    def test_full_domain_identity_any_value(self, rng, schema):
        x = random_space(rng, schema, coverage=0.7)
        for w in ((1.0, 0.0), (0.25, 0.75)):
            full = single_space(schema, tuple(
                (a.domain_min, a.domain_max, True, True) for a in schema.attributes
            ), w)
            assert semantically_equal(restrict(x, full), x)

    def test_half_domain_trims_regions(self, schema):
        x = single_space(schema, ((0, 8, True, False), (0, 8, True, False)), (0.3, 0.7))
        half = single_space(schema, ((0, 4, True, False), (0, 8, True, False)), (1.0, 0.0))
        got = restrict(x, half)
        assert len(got.elements) == 1
        assert got.elements[0].region == half.elements[0].region
        assert got.elements[0].value.weights == (0.3, 0.7)
        assert got.elements[0].mass == x.elements[0].mass  # mass preserved

    def test_disjoint_footprints_empty(self, schema):
        x = single_space(schema, ((0, 2, True, False), (0, 2, True, False)), (1.0, 0.0))
        y = single_space(schema, ((4, 6, True, False), (4, 6, True, False)), (1.0, 0.0))
        assert restrict(x, y).elements == ()

    def test_matches_raster_oracle(self, rng):
        for t in range(60):
            schema = _random_schema(rng)
            x = random_space(rng, schema, max_elements=6, coverage=0.7)
            y = random_space(rng, schema, max_elements=6, coverage=0.7)
            if t % 3 == 0:  # restrict trusts its input: y's elements may overlap
                extra = random_space(rng, schema, max_elements=6, coverage=0.7)
                y = DecisionSpace(schema, y.class_labels, y.elements + extra.elements)
            out = restrict(x, y)
            regions = [e.region for e in x.elements + y.elements + out.elements]
            pts = np.array(list(itertools.product(*sample_axes(*regions))))
            footprint = inside([b for e in y.elements for b in e.region.boxes], pts)
            got = iter(out.elements)
            for e in x.elements:
                mine = inside(e.region.boxes, pts)
                if not (mine & footprint).any():
                    continue  # dropped exactly when nothing is shared
                r = next(got)
                assert np.array_equal(inside(r.region.boxes, pts), mine & footprint)
                assert r.value == e.value and r.mass == e.mass
                if not (mine & ~footprint).any():
                    assert r.region.boxes == e.region.boxes
            assert next(got, None) is None

    def test_associative(self, rng, schema):
        for _ in range(10):
            x = random_space(rng, schema, coverage=0.7)
            y = random_space(rng, schema, coverage=0.7)
            z = random_space(rng, schema, coverage=0.7)
            assert semantically_equal(
                restrict(restrict(x, y), z), restrict(x, restrict(y, z))
            )


class TestComposites:
    def test_plus_identical_footprint_equals_merge(self, rng, schema):
        for _ in range(5):
            x, y = random_space(rng, schema), random_space(rng, schema)
            assert semantically_equal(op_plus(x, y), merge(x, y))

    def test_plus_disjoint_footprints_empty(self, schema):
        x = single_space(schema, ((0, 2, True, False), (0, 2, True, False)), (1.0, 0.0))
        y = single_space(schema, ((4, 6, True, False), (4, 6, True, False)), (1.0, 0.0))
        assert op_plus(x, y).elements == ()
        assert op_barodot(x, y).elements == ()

    def test_plus_equals_step_by_step_composition(self, rng, schema):
        for _ in range(5):
            x = random_space(rng, schema, coverage=0.7)
            y = random_space(rng, schema, coverage=0.7)
            assert semantically_equal(
                op_plus(x, y), restrict(restrict(merge(x, y), x), y)
            )
            assert semantically_equal(
                op_barodot(x, y), merge(restrict(x, y), restrict(y, x))
            )

    def test_idempotent(self, rng, schema):
        for _ in range(5):
            x = random_space(rng, schema, coverage=0.7)
            assert semantically_equal(op_plus(x, x), x)
            assert semantically_equal(op_barodot(x, x), x)
