import itertools
import json

import numpy as np
import pytest

from decspace import (
    AttributeSchema,
    ClassDistribution,
    DecisionSpace,
    Element,
    classify,
    classify_many,
    merge,
    merge_nary,
    parse_ruleset,
    rules_to_space,
    semantically_equal,
    space_from_json,
    space_to_json,
    specialization,
    validate,
)
from decspace.geometry import Region, kernels
from decspace.model import overlap_violations
from decspace.sampling import random_space

from conftest import sample_axes

NAN, INF = float("nan"), float("inf")


@pytest.fixture
def partition_space(partition_rules_text, partition_schema):
    return rules_to_space(parse_ruleset(partition_rules_text), partition_schema)


def two_class(yes, schema=None):
    labels = ("Yes", "No")
    return ClassDistribution(labels, (yes, 1.0 - yes))


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            AttributeSchema((("a", 0, 1), ("a", 0, 2)))

    def test_inverted_domain_rejected(self):
        with pytest.raises(ValueError):
            AttributeSchema((("a", 2, 1),))

    @pytest.mark.parametrize("lo, hi", [(0, INF), (-INF, 0), (NAN, 1), (0, NAN)])
    def test_non_finite_domain_rejected(self, lo, hi):
        with pytest.raises(ValueError):
            AttributeSchema((("a", lo, hi),))

    def test_from_json(self):
        schema = AttributeSchema.from_json([{"name": "a", "min": 0, "max": "2.5"}])
        assert schema == AttributeSchema((("a", 0.0, 2.5),))
        for bad, exc in (([{"name": "a", "min": 0}], KeyError),
                         ([{"name": "a", "min": 0, "max": "x"}], ValueError),
                         ([["a", 0, 1]], TypeError),
                         ([{"name": "a", "min": 1, "max": 0}], ValueError)):
            with pytest.raises(exc):
                AttributeSchema.from_json(bad)

    def test_index_lookup(self, partition_schema):
        assert partition_schema.index("degree") == 1
        with pytest.raises(KeyError):
            partition_schema.index("height")


class TestClassDistribution:
    def test_one_hot(self):
        d = ClassDistribution.one_hot(("A", "B", "C"), "B")
        assert d.weights == (0.0, 1.0, 0.0)

    def test_extended_reorders_and_zero_fills(self):
        d = ClassDistribution(("B", "A"), (0.25, 0.75))
        e = d.extended(("A", "B", "C"))
        assert e.weights == (0.75, 0.25, 0.0)

    def test_tie_breaks_by_label_order(self):
        d = ClassDistribution(("No", "Yes"), (0.5, 0.5))
        assert d.predicted_label() == "No"

    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError):
            ClassDistribution(("Yes", "No"), (bad, 0.5))

    def test_percentages_rounded_to_six_places(self):
        d = ClassDistribution(("Yes", "No"), (3.0 / 14.0, 11.0 / 14.0))
        assert d.as_percentages() == (21.428571, 78.571429)


class TestElement:
    @pytest.mark.parametrize("bad", [NAN, INF, -1.0])
    def test_bad_mass_rejected(self, bad):
        with pytest.raises(ValueError):
            Element(Region.from_box((0, 1, True, False)), two_class(1.0), bad)


class TestValidate:
    def test_partition_has_no_violations(self, partition_space):
        assert validate(partition_space) == []

    def test_duplicate_element_overlaps(self, partition_space):
        doubled = DecisionSpace(
            partition_space.schema,
            partition_space.class_labels,
            partition_space.elements + (partition_space.elements[0],),
        )
        assert any("overlap" in v for v in validate(doubled))

    def test_bad_distribution_sum(self, partition_schema):
        space = DecisionSpace(
            partition_schema, ("A", "B"),
            (Element(
                Region.from_box((0, 1, True, False), (0, 1, True, False)),
                ClassDistribution(("A", "B"), (0.5, 0.4)),
            ),),
        )
        assert any("sums to" in v for v in validate(space))

    def test_nan_fails_range_checks(self, partition_schema):
        e = Element(
            Region.from_box((0, 1, True, False), (0, 1, True, False)),
            ClassDistribution(("A", "B"), (0.5, 0.5)),
        )
        # the constructors reject NaN, so inject it past them
        object.__setattr__(e.value, "weights", (NAN, 0.5))
        object.__setattr__(e, "mass", NAN)
        problems = validate(DecisionSpace(partition_schema, ("A", "B"), (e,)))
        assert any("sums to" in v for v in problems)
        assert any("weight outside" in v for v in problems)
        assert any("mass nan" in v for v in problems)

    def test_region_outside_domain(self, partition_schema):
        space = DecisionSpace(
            partition_schema, ("A",),
            (Element(
                Region.from_box((0, 7, True, False), (0, 1, True, False)),
                ClassDistribution(("A",), (1.0,)),
            ),),
        )
        assert any("exceeds" in v for v in validate(space))


def all_pairs_overlaps(space):
    """The overlap messages of a test of every pair of elements."""
    els = space.elements
    return [
        f"elements {i} and {j}: regions overlap"
        for i in range(len(els)) for j in range(i + 1, len(els))
        if kernels.boxes_intersect(els[i].region.boxes, els[j].region.boxes)
    ]


class TestOverlapViolations:
    def test_touching_faces_and_points(self, partition_schema):
        labels = ("A",)
        boxes = [
            [((0, 2, True, True), (0, 2, True, True))],
            [((2, 4, True, False), (0, 2, True, False))],  # shares closed x=2
            [((4, 6, False, True), (0, 2, True, True))],   # open at x=4
            [((1, 1, True, True), (1, 1, True, True))],    # point inside 0
            [((2, 4, False, False), (2, 4, False, False))],  # touches only open
            [((5, 5, True, True), (5, 5, True, True))],    # isolated point
            [((0, 1, True, False), (4, 6, True, True)),
             ((1, 2, True, True), (5, 6, True, True))],    # two boxes
            [((2, 2, True, True), (6, 6, True, True))],    # corner of the above
        ]
        space = DecisionSpace(partition_schema, labels, tuple(
            Element(Region(b), ClassDistribution.one_hot(labels, "A")) for b in boxes
        ))
        want = all_pairs_overlaps(space)
        assert want == [
            "elements 0 and 1: regions overlap",
            "elements 0 and 3: regions overlap",
            "elements 6 and 7: regions overlap",
        ]
        assert overlap_violations(space) == want
        assert [v for v in validate(space) if "overlap" in v] == want

    def test_partition_has_none(self, partition_space):
        assert overlap_violations(partition_space) == []


class TestClassify:
    def test_interior_point(self, partition_space):
        dist, label = classify(partition_space, (3, 3))
        assert label == "E"
        assert dist.weights[partition_space.class_labels.index("E")] == 1.0

    def test_uncovered_point(self, partition_space):
        # the converted elements are half-open; the top edge at degree=6
        # falls outside every rule except via default closed bounds
        assert classify(partition_space, (3, 6)) is None

    def test_dimension_mismatch(self, partition_space):
        with pytest.raises(ValueError):
            classify(partition_space, (3,))

    def test_bulk_matches_single(self, partition_space):
        pts = [(0.5, 0.5), (5, 1), (1, 3), (3, 5), (3, 3), (3, 6)]
        bulk = classify_many(partition_space, pts)
        for pt, got in zip(pts, bulk):
            assert got == classify(partition_space, pt)

    def test_bulk_empty(self, partition_space):
        assert classify_many(partition_space, []) == []

    @pytest.mark.parametrize("pt", [(3,), (3, 3, 3)])
    def test_bulk_rejects_wrong_length(self, partition_space, pt):
        with pytest.raises(ValueError):
            classify_many(partition_space, [(3, 3), pt])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, partition_space, bad):
        with pytest.raises(ValueError):
            classify(partition_space, (bad, 1.0))
        with pytest.raises(ValueError):
            classify_many(partition_space, [(3, 3), (1.0, bad)])

    def test_array_matches_list(self, partition_space):
        pts = [(0.5, 0.5), (5, 1), (1, 3), (3, 5), (3, 3), (3, 6), (-0.0, 6)]
        assert classify_many(partition_space, np.array(pts)) == \
            classify_many(partition_space, pts)
        ints = np.array([(0, 0), (5, 1), (3, 6)])
        assert classify_many(partition_space, ints) == \
            classify_many(partition_space, ints.tolist())

    def test_array_empty(self, partition_space):
        assert classify_many(partition_space, np.empty((0, 2))) == []

    @pytest.mark.parametrize("shape", [(3, 1), (3, 3), (0, 3), (2,), (2, 2, 1)])
    def test_array_rejects_wrong_width(self, partition_space, shape):
        with pytest.raises(ValueError):
            classify_many(partition_space, np.ones(shape))

    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    def test_array_rejects_non_finite(self, partition_space, bad):
        with pytest.raises(ValueError):
            classify_many(partition_space, np.array([(3.0, 3.0), (1.0, bad)]))

    def test_boundaries_follow_inclusivity(self):
        """Every boundary coordinate and cell midpoint lands in the box whose
        closed/open faces admit it, checked per interval."""
        schema = AttributeSchema((("a", 0.0, 4.0), ("b", 0.0, 4.0)))
        labels = ("P", "Q", "R", "S", "T")
        boxes = [
            ((0.0, 2.0, True, True), (0.0, 2.0, True, True)),     # closed
            ((2.0, 4.0, False, False), (0.0, 2.0, False, False)),  # open
            ((0.0, 2.0, True, False), (2.0, 4.0, False, True)),    # half-open
            ((2.0, 4.0, False, True), (2.0, 4.0, True, False)),    # half-open
            ((2.0, 2.0, True, True), (3.0, 3.0, True, True)),      # point
        ]
        space = DecisionSpace(schema, labels, tuple(
            Element(Region([bx]), ClassDistribution.one_hot(labels, lbl))
            for bx, lbl in zip(boxes, labels)
        ))
        assert validate(space) == []

        def inside(iv, x):
            lo, hi, lc, hc = iv
            return (lo < x or (lc and x == lo)) and (x < hi or (hc and x == hi))

        pts = list(itertools.product(*sample_axes(
            *(e.region for e in space.elements))))
        for pt, got in zip(pts, classify_many(space, pts)):
            owners = [lbl for bx, lbl in zip(boxes, labels)
                      if all(inside(iv, x) for iv, x in zip(bx, pt))]
            assert len(owners) <= 1, pt
            want = owners[0] if owners else None
            assert (got[1] if got else None) == want, pt


class TestSpecialization:
    def test_mean_of_projections(self):
        r = Region.from_box((0, 15, True, True), (7, 8, True, True))
        assert specialization(r) == pytest.approx(8.0)

    def test_single_point_is_zero(self):
        r = Region.from_box((2, 2, True, True), (3, 3, True, True))
        assert specialization(r) == 0.0

    def test_l_shape_uses_projection_unions(self):
        r = Region((
            ((0, 3, True, False), (0, 2, True, False)),
            ((0, 5, True, False), (2, 4, True, False)),
        ))
        assert specialization(r) == pytest.approx((5 + 4) / 2)


class TestSemanticEquality:
    def test_reflexive(self, partition_space):
        assert semantically_equal(partition_space, partition_space)

    def test_decomposition_invariance(self, partition_schema):
        labels = ("A",)
        whole = DecisionSpace(
            partition_schema, labels,
            (Element(
                Region.from_box((0, 6, True, False), (0, 6, True, False)),
                ClassDistribution(labels, (1.0,)),
            ),),
        )
        split = DecisionSpace(
            partition_schema, labels,
            (
                Element(
                    Region.from_box((0, 3, True, False), (0, 6, True, False)),
                    ClassDistribution(labels, (1.0,)),
                ),
                Element(
                    Region.from_box((3, 6, True, False), (0, 6, True, False)),
                    ClassDistribution(labels, (1.0,)),
                ),
            ),
        )
        assert semantically_equal(whole, split)

    def test_perturbed_weight_detected(self, partition_schema):
        labels = ("A", "B")
        def one(w):
            return DecisionSpace(
                partition_schema, labels,
                (Element(
                    Region.from_box((0, 6, True, False), (0, 6, True, False)),
                    ClassDistribution(labels, (w, 1.0 - w)),
                ),),
            )
        tol = 1e-6
        assert semantically_equal(one(0.5), one(0.5 + tol / 2), tol)
        assert not semantically_equal(one(0.5), one(0.5 + 2 * tol), tol)

    def test_face_ownership_detected(self, partition_schema):
        # the same two values, the face age = 3 owned by the other side
        labels = ("A", "B")

        def halves(left_owns):
            return DecisionSpace(partition_schema, labels, (
                Element(Region.from_box((0, 3, True, left_owns), (0, 6, True, True)),
                        ClassDistribution.one_hot(labels, "A")),
                Element(Region.from_box((3, 6, not left_owns, True), (0, 6, True, True)),
                        ClassDistribution.one_hot(labels, "B")),
            ))

        assert semantically_equal(halves(True), halves(True))
        assert not semantically_equal(halves(True), halves(False))

    def test_schema_mismatch(self, partition_space):
        other_schema = AttributeSchema((("age", 0.0, 7.0), ("degree", 0.0, 6.0)))
        other = DecisionSpace.empty(other_schema, partition_space.class_labels)
        with pytest.raises(ValueError):
            semantically_equal(partition_space, other)

    def test_point_elements_compared_exactly(self, partition_schema):
        labels = ("A", "B")
        def point_space(w):
            return DecisionSpace(
                partition_schema, labels,
                (Element(
                    Region.from_box((2, 2, True, True), (3, 3, True, True)),
                    ClassDistribution(labels, (w, 1.0 - w)),
                ),),
            )
        assert semantically_equal(point_space(0.25), point_space(0.25))
        assert not semantically_equal(point_space(0.25), point_space(0.75))


    def test_element_labels_in_another_order_or_missing(self, partition_schema):
        labels = ("A", "B", "C")
        def space(value):
            return DecisionSpace(partition_schema, labels, (
                Element(Region.from_box((0, 6, True, False), (0, 6, True, False)), value),))
        short = space(ClassDistribution(("C", "A"), (0.75, 0.25)))
        assert semantically_equal(short, space(ClassDistribution(labels, (0.25, 0.0, 0.75))))
        assert not semantically_equal(short, space(ClassDistribution(labels, (0.75, 0.0, 0.25))))


class TestJsonRoundTrip:
    def test_round_trip_identity(self, partition_space):
        doc = space_to_json(partition_space)
        back = space_from_json(json.loads(json.dumps(doc)))
        assert semantically_equal(partition_space, back)
        assert space_to_json(back) == doc

    def test_percentage_renormalization(self, partition_schema):
        # six-decimal rounding may make percentages sum to 99.999999
        doc = {
            "schema": [
                {"name": "age", "min": 0.0, "max": 6.0},
                {"name": "degree", "min": 0.0, "max": 6.0},
            ],
            "classes": ["A", "B", "C"],
            "elements": [{
                "boxes": [{
                    "age": [0.0, 6.0, True, False],
                    "degree": [0.0, 6.0, True, False],
                }],
                "value": [33.333333, 33.333333, 33.333333],
                "mass": 6.0,
            }],
        }
        space = space_from_json(doc)
        assert sum(space.elements[0].value.weights) == pytest.approx(1.0, abs=1e-12)

    def test_genuinely_bad_sum_surfaces(self, partition_schema):
        doc = {
            "schema": [{"name": "age", "min": 0.0, "max": 6.0}],
            "classes": ["A", "B"],
            "elements": [{
                "boxes": [{"age": [0.0, 6.0, True, False]}],
                "value": [50.0, 40.0],
                "mass": 6.0,
            }],
        }
        space = space_from_json(doc)
        assert any("sums to" in v for v in validate(space))


def bits(space):
    """Schema bounds, box bounds and flags, and masses, floats as hex."""
    def h(x):
        return float(x).hex()
    return (
        [(a.name, h(a.domain_min), h(a.domain_max)) for a in space.schema.attributes],
        [(sorted(tuple((h(lo), h(hi), bool(lc), bool(hc)) for lo, hi, lc, hc in b)
                 for b in e.region.boxes), h(e.mass))
         for e in space.elements],
    )


def round_trip(space):
    """The space through the document the CLI writes and back."""
    return space_from_json(json.loads(json.dumps(space_to_json(space))))


class TestSpaceToText:
    """A space written as a document and read back is the same space:
    ``semantically_equal`` at ``EQUALITY_TOL``, with bit-exact bounds and
    masses."""

    def check(self, sp):
        back = round_trip(sp)
        assert back.class_labels == sp.class_labels
        assert semantically_equal(sp, back)
        assert bits(back) == bits(sp)

    def test_random_spaces_and_merges(self):
        rng = np.random.default_rng(11)
        for dims in (1, 2, 3):
            schema = AttributeSchema(tuple((f"a{k}", 0.0, 8.0) for k in range(dims)))
            for _ in range(20):
                x, y = (random_space(rng, schema, ("Yes", "No", "Maybe"), 6, 0.7)
                        for _ in range(2))
                for sp in (x, y, merge(x, y), merge_nary([x, y, x])):
                    self.check(sp)

    def test_merge_outputs_round_trip_exactly(self):
        # six-decimal percentages failed 197 of these 200 at 1e-9
        rng = np.random.default_rng(0)
        for _ in range(200):
            x, y = random_space(rng), random_space(rng)
            self.check(merge(x, y))

    def test_empty_space(self, partition_schema):
        for labels in ((), ("A", "B")):
            self.check(DecisionSpace.empty(partition_schema, labels))

    def test_int_bounds(self):
        schema = AttributeSchema((("a", 0, 10), ("b", -5, 5)))
        sp = DecisionSpace(schema, ("A", "B"), (
            Element(Region.from_box((0, 3, True, False), (-5, 5, True, True)),
                    ClassDistribution(("A", "B"), (1, 0)), 4),
        ))
        self.check(sp)

    def test_awkward_names_and_labels(self):
        names = ('quo"te', "back\\slash", "café ☃", "100%s")
        schema = AttributeSchema(tuple((n, 0.0, 1.0) for n in names))
        labels = ('say "hi"', "\\", "über", 7)
        box = ((0.0, 1.0, True, True),) * len(names)
        sp = DecisionSpace(schema, labels, (
            Element(Region.from_box(*box), ClassDistribution(labels, (0.25,) * 4)),))
        self.check(sp)

    def test_point_element_and_missing_label(self, partition_schema):
        sp = DecisionSpace(partition_schema, ("A", "B", "C"), (
            Element(Region.from_box((1, 1, True, True), (2, 2, True, True)),
                    ClassDistribution(("C", "A"), (0.5, 0.5))),
            Element(Region.from_box((2, 4, False, True), (0, 6, True, False)),
                    ClassDistribution(("B",), (1.0,))),
        ))
        self.check(sp)

    def test_float_leaves(self):
        schema = AttributeSchema((("a", -0.0, 1e16), ("b", 5e-324, 0.1 + 0.2)))
        box = ((np.float64(-0.0), 1e16, True, False), (5e-324, 0.1 + 0.2, False, True))
        labels = ("A", "B")
        elements = tuple(
            Element(Region.from_box(*box), ClassDistribution(labels, (0.1 + 0.2, 0.7)), mass)
            for mass in (-0.0, 1e16, 5e-324, 0.1 + 0.2, np.float64(2.5))
        )
        sp = DecisionSpace(schema, labels, elements)
        self.check(sp)

    def test_label_of_another_type_goes_to_json(self, partition_schema):
        labels = (("A", 1), "B")
        sp = DecisionSpace(partition_schema, labels, (
            Element(partition_schema.full_region(), ClassDistribution(labels, (0.5, 0.5))),))
        self.check(sp)
