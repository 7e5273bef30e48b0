"""Random decision-space generation for law checks and randomized tests.

Spaces are random guillotine tilings of the domain with cuts on a 0.5
grid, so faces of different spaces coincide, and at each cut either side
may own the face.  A space with dropped tiles also holds a closed point
element at the centre of one of them.
"""

import math

import numpy as np

from .geometry import Region
from .model import AttributeSchema, ClassDistribution, DecisionSpace, Element

DEFAULT_SCHEMA = AttributeSchema((("a0", 0.0, 8.0), ("a1", 0.0, 8.0)))


def _split_box(rng, box):
    """Pick a dimension with room and split at a random interior line of
    the 0.5 grid, giving the face to a random side; returns two boxes or
    None."""
    dims = [k for k in range(len(box)) if box[k][1] - box[k][0] > 0.5]
    if not dims:
        return None
    k = int(rng.choice(dims))
    lo, hi, lc, hc = box[k]
    cut = lo + 0.5 * int(rng.integers(1, math.ceil((hi - lo) * 2)))
    left_owns = bool(rng.integers(0, 2))
    left = box[:k] + ((lo, cut, lc, left_owns),) + box[k + 1:]
    right = box[:k] + ((cut, hi, not left_owns, hc),) + box[k + 1:]
    return left, right


def random_space(
    rng,
    schema=DEFAULT_SCHEMA,
    class_labels=("Yes", "No"),
    max_elements=4,
    coverage=1.0,
):
    """A random valid decision space: a guillotine partition of the domain
    with random class distributions; ``coverage`` < 1 drops tiles and puts a
    point element at the centre of the first dropped tile."""
    full = tuple(
        (a.domain_min, a.domain_max, True, True) for a in schema.attributes
    )
    boxes = [full]
    target = int(rng.integers(1, max_elements + 1))
    for _ in range(64):
        if len(boxes) >= target:
            break
        i = int(rng.integers(0, len(boxes)))
        split = _split_box(rng, boxes[i])
        if split is None:
            continue
        boxes[i : i + 1] = list(split)

    def element(box):
        w = rng.random(len(class_labels)) + 0.05
        w = w / w.sum()
        return Element(
            Region((box,), _canonical=True),
            ClassDistribution(class_labels, tuple(float(x) for x in w)),
        )

    keep = [coverage >= 1.0 or rng.random() <= coverage for _ in boxes]
    if not any(keep):  # keep at least one element so footprints are never empty
        keep[int(rng.integers(0, len(boxes)))] = True
    elems = [element(b) for b, kept in zip(boxes, keep) if kept]
    dropped = [b for b, kept in zip(boxes, keep) if not kept]
    if dropped:
        centre = [(lo + hi) / 2 for lo, hi, _, _ in dropped[0]]
        elems.append(element(tuple((c, c, True, True) for c in centre)))
    return DecisionSpace(schema, tuple(class_labels), tuple(elems))
