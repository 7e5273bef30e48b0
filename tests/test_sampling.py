import itertools

import pytest

from decspace import AttributeSchema, validate
from decspace.sampling import random_space


def schemas():
    return [AttributeSchema(tuple((f"a{k}", 0.0, 8.0) for k in range(m))) for m in (1, 2, 3, 4)]


def bounds(space):
    return [iv for e in space.elements for b in e.region.boxes for iv in b]


@pytest.mark.parametrize("coverage", [1.0, 0.6])
def test_valid_on_the_half_grid(rng, coverage):
    for schema, _ in itertools.product(schemas(), range(50)):
        space = random_space(rng, schema, coverage=coverage)
        assert validate(space) == []
        # cuts lie on the 0.5 grid, point elements on tile centres
        assert all((4 * lo).is_integer() and (4 * hi).is_integer()
                   for lo, hi, _, _ in bounds(space))


def test_full_coverage_tiles_the_domain(rng):
    for schema in schemas():
        for _ in range(20):
            space = random_space(rng, schema)
            assert space.covered_region() == schema.full_region()


def test_faces_go_to_either_side(rng):
    # at an interior cut the lower box owns the face or the upper one does
    owners = set()
    for _ in range(100):
        for lo, hi, lc, hc in bounds(random_space(rng)):
            if 0.0 < hi < 8.0:
                owners.add(hc)
            if 0.0 < lo < 8.0:
                owners.add(not lc)
    assert owners == {True, False}


def test_one_point_element_when_tiles_drop(rng):
    seen = 0
    for schema in schemas():
        for _ in range(50):
            space = random_space(rng, schema, max_elements=6, coverage=0.5)
            points = [e for e in space.elements if e.region.measure() == 0]
            assert len(points) <= 1
            assert validate(space) == []  # the point is in no kept tile
            if points:
                seen += 1
                (box,) = points[0].region.boxes
                assert all(lo == hi and lc and hc for lo, hi, lc, hc in box)
            else:
                assert space.covered_region() == schema.full_region()
    assert seen > 50
