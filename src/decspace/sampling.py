"""Random decision-space generation for law checks and randomized tests.

Spaces are random guillotine tilings of an integer-grid domain: every
element is a half-open box (closed at the domain maximum), so coincident
boundaries between different spaces never share points and all set
operations stay exact.
"""

import numpy as np

from .geometry import Region
from .model import AttributeSchema, ClassDistribution, DecisionSpace, Element

DEFAULT_SCHEMA = AttributeSchema((("a0", 0.0, 8.0), ("a1", 0.0, 8.0)))


def _split_box(rng, box):
    """Pick a dimension with room and split at a random interior integer
    line; returns two boxes or None."""
    dims = [k for k in range(len(box)) if box[k][1] - box[k][0] > 1]
    if not dims:
        return None
    k = int(rng.choice(dims))
    lo, hi, lc, hc = box[k]
    cut = float(rng.integers(int(lo) + 1, int(hi)))
    left = box[:k] + ((lo, cut, lc, False),) + box[k + 1:]
    right = box[:k] + ((cut, hi, True, hc),) + box[k + 1:]
    return left, right


def random_space(
    rng,
    schema=DEFAULT_SCHEMA,
    class_labels=("Yes", "No"),
    max_elements=4,
    coverage=1.0,
):
    """A random valid decision space: a guillotine partition of the domain
    with random class distributions; ``coverage`` < 1 drops tiles."""
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

    elems = [element(b) for b in boxes if coverage >= 1.0 or rng.random() <= coverage]
    if not elems:  # keep at least one element so footprints are never empty
        elems.append(element(boxes[int(rng.integers(0, len(boxes)))]))
    return DecisionSpace(schema, tuple(class_labels), tuple(elems))

