"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the library's own set algebra: regions are
compared by rasterization (sampling all boundary coordinates and cell
midpoints), rules and trees are evaluated directly on points, and merges
are checked cell by cell against the weighted-average formula.
"""

from itertools import combinations, product

import numpy as np
import pytest

from decspace import (
    AttributeSchema,
    ClassDistribution,
    DecisionSpace,
    DecisionTreeNode,
    Element,
    Rule,
    RuleSet,
    specialization,
)
from decspace.geometry import Region

RULES_TEXT = """\
IF age >= 0 AND age < 4 AND degree >= 0 AND degree < 2 THEN A
IF age >= 4 AND age < 6 AND degree >= 0 AND degree < 4 THEN B
IF age >= 0 AND age < 2 AND degree >= 2 AND degree < 6 THEN C
IF age >= 2 AND age < 6 AND degree >= 4 AND degree < 6 THEN D
IF age >= 2 AND age < 4 AND degree >= 2 AND degree < 4 THEN E
"""


@pytest.fixture
def partition_schema():
    return AttributeSchema((("age", 0.0, 6.0), ("degree", 0.0, 6.0)))


@pytest.fixture
def partition_rules_text():
    return RULES_TEXT


def make_overlap_pair():
    """Two single-element spaces on a shared schema whose elements overlap
    on age in [7,8], degree in [3,10]; specializations 7.5 and 6.5."""
    schema = AttributeSchema((("age", 0.0, 9.0), ("degree", 0.0, 16.0)))
    labels = ("Yes", "No")
    grey = DecisionSpace(
        schema, labels,
        (Element(
            Region.from_box((7.0, 8.0, True, True), (1.0, 15.0, True, True)),
            ClassDistribution(labels, (0.4, 0.6)),
        ),),
    )
    checker = DecisionSpace(
        schema, labels,
        (Element(
            Region.from_box((3.0, 9.0, True, True), (3.0, 10.0, True, True)),
            ClassDistribution(labels, (0.0, 1.0)),
        ),),
    )
    return grey, checker


@pytest.fixture
def overlap_pair():
    return make_overlap_pair()


# -- geometry oracle ---------------------------------------------------------

def sample_axes(*regions):
    """Per-dimension probe coordinates: every boundary coordinate, every cell
    midpoint, and one point beyond each end.  Probing boundaries directly
    exercises the inclusivity flags."""
    dims = {r.dim for r in regions if not r.is_empty}
    assert len(dims) == 1
    (m,) = dims
    axes = []
    for k in range(m):
        vals = set()
        for r in regions:
            for b in r.boxes:
                vals.add(b[k][0])
                vals.add(b[k][1])
        cs = sorted(vals)
        pts = set(cs)
        pts.update((a + b) / 2.0 for a, b in zip(cs, cs[1:]))
        pts.update((cs[0] - 0.5, cs[-1] + 0.5))
        axes.append(sorted(pts))
    return axes


def raster(region, axes):
    """The set of probe points the region contains."""
    return {pt for pt in product(*axes) if region.contains(pt)}


def join(a, b):
    """Reference join of two boxes, or None: they must be identical on all
    axes but one and adjacent on that one, the shared endpoint closed on at
    least one side."""
    diff = [k for k in range(len(a)) if a[k] != b[k]]
    if len(diff) != 1:
        return None
    (k,) = diff
    for lo, hi in ((a[k], b[k]), (b[k], a[k])):
        if lo[1] == hi[0] and (lo[3] or hi[2]):
            return a[:k] + ((lo[0], hi[1], lo[2], hi[3]),) + a[k + 1:]
    return None


def fixpoint_coalesce(boxes):
    """Join the first joinable pair of boxes, then start over, until no pair
    can be joined."""
    boxes = list(boxes)
    while True:
        for i, j in combinations(range(len(boxes)), 2):
            joined = join(boxes[i], boxes[j])
            if joined is not None:
                boxes[i] = joined
                del boxes[j]
                break
        else:
            return boxes


# -- random model generators -------------------------------------------------

def boxes_to_rules(space, outcomes):
    """Express a guillotine-tiled space as rules (one per element box),
    leaving bounds that coincide with the domain implicit."""
    rules = []
    k = 0
    for e in space.elements:
        for bx in e.region.boxes:
            conds = []
            for i, a in enumerate(space.schema.attributes):
                lo, hi, _, _ = bx[i]
                if lo > a.domain_min:
                    conds.append((a.name, ">=", lo))
                if hi < a.domain_max:
                    conds.append((a.name, "<", hi))
            rules.append(Rule(tuple(conds), outcomes[k % len(outcomes)]))
            k += 1
    return RuleSet(tuple(rules))


def random_tree(rng, schema, labels, max_depth):
    """Random binary split tree with in-domain thresholds."""
    lo = [a.domain_min for a in schema.attributes]
    hi = [a.domain_max for a in schema.attributes]

    def build(bounds, depth):
        if depth >= max_depth or rng.random() < 0.25:
            if rng.random() < 0.5:
                return DecisionTreeNode.leaf(str(rng.choice(labels)))
            w = rng.random(len(labels)) + 0.05
            w = w / w.sum()
            return DecisionTreeNode.leaf(
                ClassDistribution(labels, tuple(float(x) for x in w))
            )
        k = int(rng.integers(0, len(schema)))
        blo, bhi = bounds[k]
        t = float(rng.uniform(blo, bhi))
        if not blo < t < bhi:
            return build(bounds, max_depth)
        left_bounds = list(bounds)
        left_bounds[k] = (blo, t)
        right_bounds = list(bounds)
        right_bounds[k] = (t, bhi)
        return DecisionTreeNode.split(
            schema.names[k], t,
            build(left_bounds, depth + 1),
            build(right_bounds, depth + 1),
        )

    return build(list(zip(lo, hi)), 0)


# -- cell-wise merge oracle --------------------------------------------------

def inside(boxes, pts):
    """Per row of the point array, whether some box contains it; membership
    is tested interval by interval against the inclusivity flags."""
    hit = np.zeros(len(pts), dtype=bool)
    for b in boxes:
        ins = np.ones(len(pts), dtype=bool)
        for x, (lo, hi, lc, hc) in zip(pts.T, b):
            ins &= (lo < x) | (lc & (x == lo))
            ins &= (x < hi) | (hc & (x == hi))
        hit |= ins
    return hit


def _covering_elements(space, pts):
    """Per row of the point array, the first element whose region contains
    it, or None."""
    hits = [None] * len(pts)
    for e in reversed(space.elements):
        for i in np.flatnonzero(inside(e.region.boxes, pts)):
            hits[i] = e
    return hits


def check_merge_against_oracle(x_space, y_space, merged, tol=1e-9):
    """Every overlay cell of the merged space must carry either the single
    covering input's value or the specialization-weighted average of both."""
    regions = (
        [e.region for e in x_space.elements]
        + [e.region for e in y_space.elements]
        + [e.region for e in merged.elements]
    )
    axes = sample_axes(*regions)
    mids = [
        [(a + b) / 2.0 for a, b in zip(ax, ax[1:])] for ax in axes
    ]
    labels = merged.class_labels
    pts = np.array(list(product(*mids)))
    for pt, ex, ey, ez in zip(
        pts.tolist(),
        _covering_elements(x_space, pts),
        _covering_elements(y_space, pts),
        _covering_elements(merged, pts),
    ):
        if ex is None and ey is None:
            assert ez is None, f"spurious coverage at {pt}"
            continue
        assert ez is not None, f"lost coverage at {pt}"
        if ex is not None and ey is not None:
            mx = specialization(ex.region)
            my = specialization(ey.region)
            vx = ex.value.extended(labels).weights
            vy = ey.value.extended(labels).weights
            if mx + my == 0:
                expected = [(a + b) / 2.0 for a, b in zip(vx, vy)]
            else:
                expected = [
                    (a * mx + b * my) / (mx + my) for a, b in zip(vx, vy)
                ]
        else:
            src = ex if ex is not None else ey
            expected = src.value.extended(labels).weights
        got = ez.value.extended(labels).weights
        for g, w in zip(got, expected):
            assert abs(g - w) <= tol, f"value mismatch at {pt}: {got} vs {expected}"


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)
