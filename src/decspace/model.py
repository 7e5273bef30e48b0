"""Decision-space data model: schemas, class distributions, elements,
spaces, validation, semantic equality, and instance classification.

Distributions are stored as fractions summing to one; percentages only
appear at the JSON boundary.  All types are immutable value objects, so
concurrent reads are safe.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import Region, kernels as _k

SUM_TOL = 1e-9
EQUALITY_TOL = 1e-9


class Attribute(NamedTuple):
    name: str
    domain_min: float
    domain_max: float


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered attribute list with bounded numeric domains."""

    attributes: tuple

    def __post_init__(self):
        attrs = tuple(Attribute(*a) for a in self.attributes)
        object.__setattr__(self, "attributes", attrs)
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute names in {names}")
        for a in attrs:
            if not (math.isfinite(a.domain_min) and math.isfinite(a.domain_max)):
                raise ValueError(f"attribute {a.name!r}: domain must be finite")
            if not a.domain_min < a.domain_max:
                raise ValueError(
                    f"attribute {a.name!r}: domain_min must be < domain_max"
                )

    @classmethod
    def from_json(cls, items):
        """Schema from a list of ``{"name", "min", "max"}`` objects.  Raises
        KeyError, TypeError or ValueError on a malformed list."""
        return cls(tuple((a["name"], float(a["min"]), float(a["max"]))
                         for a in items))

    def __len__(self):
        return len(self.attributes)

    @property
    def names(self):
        return tuple(a.name for a in self.attributes)

    def index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown attribute {name!r}") from None

    def full_region(self):
        """The whole domain as a single closed box."""
        return Region.from_box(
            *((a.domain_min, a.domain_max, True, True) for a in self.attributes)
        )


@dataclass(frozen=True)
class ClassDistribution:
    """Per-class fractions summing to one."""

    labels: tuple
    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.labels) != len(self.weights):
            raise ValueError("labels and weights differ in length")
        if not all(math.isfinite(w) for w in self.weights):
            raise ValueError(f"class weights must be finite: {self.weights}")

    @classmethod
    def one_hot(cls, labels, label):
        return cls(labels, tuple(1.0 if l == label else 0.0 for l in labels))

    def extended(self, labels):
        """Reorder/zero-extend onto a target label tuple."""
        if labels == self.labels:
            return self
        lookup = dict(zip(self.labels, self.weights))
        return ClassDistribution(labels, tuple(lookup.get(l, 0.0) for l in labels))

    def predicted_label(self):
        """Argmax label; ties broken by lowest label index."""
        best = 0
        for i in range(1, len(self.weights)):
            if self.weights[i] > self.weights[best]:
                best = i
        return self.labels[best]

    def close_to(self, other):
        if self.labels != other.labels:
            other = other.extended(self.labels)
        return all(
            abs(a - b) <= EQUALITY_TOL for a, b in zip(self.weights, other.weights)
        )

    def as_percentages(self):
        return tuple(round(w * 100.0, 6) for w in self.weights)


def specialization(region):
    """Mean projected extent of a region over all attributes: the weight of
    an element's prediction in a merge."""
    if region.is_empty:
        return 0.0
    m = region.dim
    return sum(region.projection_measure(k) for k in range(m)) / m


@dataclass(frozen=True)
class Element:
    """A rectilinear subregion plus its class-distribution vector.

    ``mass`` is the accumulated specialization weight; for a freshly built
    element it equals the specialization of the region.
    """

    region: Region
    value: ClassDistribution
    mass: float = field(default=None)

    def __post_init__(self):
        if self.region.is_empty:
            raise ValueError("element region may not be empty")
        if self.mass is None:
            object.__setattr__(self, "mass", specialization(self.region))
        elif not 0 <= self.mass < math.inf:
            raise ValueError(f"element mass must be finite and >= 0: {self.mass}")


@dataclass(frozen=True)
class DecisionSpace:
    """A schema plus a set of elements with pairwise-disjoint regions."""

    schema: AttributeSchema
    class_labels: tuple
    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "class_labels", tuple(self.class_labels))
        object.__setattr__(self, "elements", tuple(self.elements))

    @classmethod
    def empty(cls, schema, class_labels=()):
        return cls(schema, class_labels, ())

    def covered_region(self):
        cov = Region.empty()
        for e in self.elements:
            cov = cov | e.region
        return cov

    def with_labels(self, labels):
        """Extend every element's distribution onto a target label tuple."""
        if labels == self.class_labels:
            return self
        if set(self.class_labels) - set(labels):
            raise ValueError("target labels must be a superset")
        elems = tuple(
            Element(e.region, e.value.extended(labels), e.mass)
            for e in self.elements
        )
        return DecisionSpace(self.schema, labels, elems)

    def _flat_boxes(self):
        boxes, owners = [], []
        for i, e in enumerate(self.elements):
            for b in e.region.boxes:
                boxes.append(b)
                owners.append(i)
        return boxes, owners


def validate(space):
    """All Definition-level invariant violations of a space, as messages.

    Empty list iff the space is valid; violations are data, not exceptions.
    """
    out = []
    m = len(space.schema)
    domain = space.schema.full_region()
    for i, e in enumerate(space.elements):
        if e.region.is_empty:
            out.append(f"element {i}: empty region")
            continue
        if e.region.dim != m:
            out.append(
                f"element {i}: region dimension {e.region.dim} != schema {m}"
            )
            continue
        if not e.region.issubset(domain):
            out.append(f"element {i}: region exceeds attribute domains")
        if set(e.value.labels) - set(space.class_labels):
            out.append(f"element {i}: distribution over unknown classes")
        s = sum(e.value.weights)
        # written so that NaN fails every range check
        if not abs(s - 1.0) <= SUM_TOL:
            out.append(f"element {i}: distribution sums to {s:.9f}, not 1")
        if not all(0 <= w <= 1 for w in e.value.weights):
            out.append(f"element {i}: weight outside [0, 1]")
        if not e.mass >= 0:
            out.append(f"element {i}: mass {e.mass} is not >= 0")
    out.extend(overlap_violations(space))
    return out


def overlap_violations(space):
    """One message per pair of elements whose regions overlap, in index
    order: the overlap part of ``validate``.

    Candidate pairs come from the element extents in one numpy pass.
    Touching ends count, so closed shared faces and point elements are
    still seen; an element whose dimension is not the schema's is a
    candidate with every other.  Only candidates are intersected box by box.
    """
    regions = [e.region for e in space.elements]
    m = len(space.schema)
    anywhere = ((-math.inf, math.inf),) * m
    ext = np.array([r.extent() if r.dim == m else anywhere for r in regions],
                   dtype=float).reshape(len(regions), m, 2)
    lo, hi = ext[..., 0], ext[..., 1]
    # written so that a NaN bound keeps the pair a candidate
    apart = ((lo[:, None] > hi[None]) | (lo[None] > hi[:, None])).any(axis=2)
    return [
        f"elements {i} and {j}: regions overlap"
        for i, j in np.argwhere(np.triu(~apart, 1)).tolist()
        if _k.boxes_intersect(regions[i].boxes, regions[j].boxes)
    ]


def classify(space, instance):
    """Distribution and argmax label of the element covering ``instance``,
    or None when no element covers it."""
    return classify_many(space, [instance])[0]


def classify_many(space, instances):
    """Bulk classify; one (distribution, label) or None per instance.

    ``instances`` is an iterable of coordinate sequences or an ``(n, m)``
    array, used as it is.  Every instance that an element covers gets the
    same (distribution, label) object as the others it covers.  Raises
    ValueError on an instance whose length differs from the schema or that
    has a non-finite coordinate.
    """
    m = len(space.schema)
    if isinstance(instances, np.ndarray):
        if instances.ndim != 2 or instances.shape[1] != m:
            raise ValueError(f"instances of shape {instances.shape}, schema {m}")
        points = np.asarray(instances, dtype=float)
    else:
        instances = list(instances)
        bad = {len(row) for row in instances} - {m}
        if bad:
            raise ValueError(f"instance has {bad.pop()} coordinates, schema {m}")
        points = np.array(instances, dtype=float).reshape(len(instances), m)
    if not np.isfinite(points).all():
        raise ValueError("instance coordinates must be finite")
    boxes, owners = space._flat_boxes()
    hits = _k.locate(boxes, owners, points).tolist()
    outcomes = {}
    for i in set(hits) - {-1}:
        value = space.elements[i].value
        outcomes[i] = (value, value.predicted_label())
    return [outcomes.get(i) for i in hits]


def _sample_axes(spaces):
    """Per-attribute sample coordinates for overlay comparison: every
    boundary coordinate and the midpoint between each two neighbours.  Box
    membership is constant along the attribute on each coordinate and on
    each open interval between neighbours, so the grid they span has a point
    in every overlay cell."""
    axes = []
    for k, attr in enumerate(spaces[0].schema.attributes):
        coords = {attr.domain_min, attr.domain_max}
        for sp in spaces:
            for e in sp.elements:
                for b in e.region.boxes:
                    coords.update(b[k][:2])
        cs = sorted(coords)
        axes.append(cs + [(a + b) / 2.0 for a, b in zip(cs, cs[1:])])
    return axes


def semantically_equal(a, b, tol=EQUALITY_TOL):
    """True iff the two spaces cover the same points and agree on
    distributions within ``tol`` at every point.

    Box decomposition never affects the result.  Each overlay cell, a shared
    face or a point element included, is compared at a sample inside it.
    """
    if a.schema != b.schema:
        raise ValueError("schema mismatch")
    if set(a.class_labels) != set(b.class_labels):
        raise ValueError("class label mismatch")
    axes = _sample_axes((a, b))
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], -1)
    boxes_a, owners_a = a._flat_boxes()
    boxes_b, owners_b = b._flat_boxes()
    hits_a = _k.locate(boxes_a, owners_a, grid).tolist()
    hits_b = _k.locate(boxes_b, owners_b, grid).tolist()
    for ia, ib in set(zip(hits_a, hits_b)):
        if (ia < 0) != (ib < 0):
            return False
        if ia < 0:
            continue
        # an element's distribution may list fewer labels, or another order
        va = a.elements[ia].value.extended(a.class_labels).weights
        vb = b.elements[ib].value.extended(a.class_labels).weights
        for wa, wb in zip(va, vb):
            if abs(wa - wb) > tol:
                return False
    return True


# -- JSON document round-trip ------------------------------------------------

def space_to_json(space):
    """External decision-space document, as plain JSON values.

    Bounds, flags and masses are written as they are and each weight as
    ``w * 100.0``, a percentage left unrounded, so ``space_from_json`` gives
    back a space ``semantically_equal`` to this one at ``EQUALITY_TOL``.
    The CLI writes it with one ``json.dumps`` call.
    """
    return {
        "schema": [
            {"name": a.name, "min": a.domain_min, "max": a.domain_max}
            for a in space.schema.attributes
        ],
        "classes": list(space.class_labels),
        "elements": [
            {
                "boxes": [
                    {
                        name: [iv[0], iv[1], bool(iv[2]), bool(iv[3])]
                        for name, iv in zip(space.schema.names, b)
                    }
                    for b in e.region.boxes
                ],
                "value": [w * 100.0 for w in e.value.extended(space.class_labels).weights],
                "mass": e.mass,
            }
            for e in space.elements
        ],
    }


def space_from_json(doc):
    schema = AttributeSchema.from_json(doc["schema"])
    # json holds a tuple label as an array; read it back as a tuple
    labels = tuple(tuple(l) if isinstance(l, list) else l for l in doc["classes"])
    elems = []
    for ed in doc["elements"]:
        boxes = []
        for bd in ed["boxes"]:
            box = []
            for name in schema.names:
                if name not in bd:
                    raise ValueError(f"box missing attribute {name!r}")
                lo, hi, lc, hc = bd[name]
                box.append((float(lo), float(hi), bool(lc), bool(hc)))
            boxes.append(tuple(box))
        weights = [float(p) / 100.0 for p in ed["value"]]
        total = sum(weights)
        # space_to_json writes exact percentages; this renormalization lets
        # hand-written or older documents, rounded to six decimals, still
        # sum to one, but lets real violations show
        if weights and abs(total - 1.0) <= 1e-6 and total > 0:
            weights = [w / total for w in weights]
        elems.append(
            Element(
                Region(boxes),
                ClassDistribution(labels, weights),
                float(ed["mass"]) if ed.get("mass") is not None else None,
            )
        )
    return DecisionSpace(schema, labels, tuple(elems))
