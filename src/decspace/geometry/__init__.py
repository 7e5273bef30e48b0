"""Exact rectilinear set algebra over m-dimensional axis-aligned boxes.

Regions are finite unions of pairwise-disjoint boxes whose interval bounds
carry endpoint-inclusivity flags, so every set operation (intersection,
difference, union) is exact, including on shared faces.  Measures ignore
inclusivity; point membership respects it.

Box primitives, the one box cut and bulk point location live in ``kernels``.
"""

import math
from typing import NamedTuple

from . import kernels as _k

# The one kernel implementation; benchmark results record it.
KERNEL_BACKEND = "python"


class Interval(NamedTuple):
    """A bounded interval of reals with endpoint-inclusivity flags.

    ``lo == hi`` is only valid as a fully closed point; empty intervals
    must not be constructed.
    """

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = False

    @classmethod
    def closed(cls, lo, hi):
        return cls(lo, hi, True, True)

    @classmethod
    def point(cls, x):
        return cls(x, x, True, True)

    def check(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval bounds must be finite: {self.lo}, {self.hi}")
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError(f"degenerate interval at {self.lo} must be closed")
        return self

    @property
    def measure(self):
        return self.hi - self.lo

    def __str__(self):
        return "%s%g, %g%s" % (
            "[" if self.lo_closed else "(",
            self.lo,
            self.hi,
            "]" if self.hi_closed else ")",
        )


def box(*intervals):
    """Build a box (tuple of intervals), validating each bound."""
    return tuple(Interval(*iv).check() for iv in intervals)


class Region:
    """A finite union of pairwise-disjoint axis-aligned boxes.

    ``Region(boxes)`` checks each interval as ``Interval`` does, so one may
    be given as a ``(lo, hi)`` pair, closed below and open above, and stores
    it as its 4-tuple.  Instances are immutable; all operations return new
    regions in coalesced form.  One point set can still have several box
    decompositions, so equality compares point sets.  The empty region has
    zero boxes.
    """

    __slots__ = ("boxes",)

    def __init__(self, boxes=(), _canonical=False):
        if _canonical:
            boxes = tuple(boxes)
        else:
            boxes = tuple(tuple(tuple(Interval(*iv).check()) for iv in b)
                          for b in boxes)
            dims = {len(b) for b in boxes}
            if len(dims) > 1:
                raise ValueError("boxes of mixed dimensionality")
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    if _k.box_intersect(boxes[i], boxes[j]) is not None:
                        raise ValueError(f"boxes {i} and {j} are not disjoint")
            boxes = tuple(_k.coalesce(boxes))
        self.boxes = boxes

    @classmethod
    def from_box(cls, *intervals):
        return cls((intervals,))

    @classmethod
    def empty(cls):
        return cls()

    @property
    def is_empty(self):
        return not self.boxes

    @property
    def dim(self):
        return len(self.boxes[0]) if self.boxes else 0

    def _check_dim(self, other):
        if self.boxes and other.boxes and self.dim != other.dim:
            raise ValueError(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )

    def intersect(self, other):
        self._check_dim(other)
        return Region(_k.coalesce(_k.boxes_cut(self.boxes, other.boxes)[0]),
                      _canonical=True)

    def subtract(self, other):
        self._check_dim(other)
        return Region(_k.coalesce(_k.boxes_cut(self.boxes, other.boxes)[1]),
                      _canonical=True)

    def union(self, other):
        self._check_dim(other)
        extra = _k.boxes_cut(other.boxes, self.boxes)[1]
        return Region(_k.coalesce(list(self.boxes) + extra), _canonical=True)

    __and__ = intersect
    __sub__ = subtract
    __or__ = union

    def contains(self, pt):
        if self.boxes and len(pt) != self.dim:
            raise ValueError(f"point of dimension {len(pt)}, region {self.dim}")
        return _k.locate(self.boxes, range(len(self.boxes)), [pt])[0] >= 0

    def issubset(self, other):
        self._check_dim(other)
        return not _k.boxes_cut(self.boxes, other.boxes)[1]

    def measure(self):
        return sum(_k.box_measure(b) for b in self.boxes)

    def projection_measure(self, attr_index):
        """Lebesgue measure of the projection onto one attribute (overlaps
        counted once)."""
        if self.is_empty:
            return 0.0
        if not 0 <= attr_index < self.dim:
            raise IndexError(f"attribute index {attr_index} out of range")
        spans = sorted((b[attr_index][0], b[attr_index][1]) for b in self.boxes)
        total = 0.0
        cur_lo, cur_hi = spans[0]
        for lo, hi in spans[1:]:
            if lo > cur_hi:
                total += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            elif hi > cur_hi:
                cur_hi = hi
        return total + (cur_hi - cur_lo)

    def extent(self):
        """Per attribute, ``(lo, hi)``: the least lower and greatest upper
        bound of the boxes, without inclusivity flags."""
        return _k.extent(self.boxes)

    def __eq__(self, other):
        """Set equality: two decompositions of one point set are equal."""
        if not isinstance(other, Region):
            return NotImplemented
        if set(self.boxes) == set(other.boxes):
            return True
        return (self.dim == other.dim and self.issubset(other)
                and other.issubset(self))

    def __hash__(self):
        # the extent depends on the point set only
        return hash(self.extent())

    def __repr__(self):
        if self.is_empty:
            return "Region()"
        parts = [
            "x".join(str(Interval(*iv)) for iv in b) for b in self.boxes
        ]
        return "Region(%s)" % " u ".join(parts)

