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
from decspace.sampling import DEFAULT_SCHEMA, random_space

from conftest import check_merge_against_oracle


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
