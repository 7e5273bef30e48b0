"""Geometry kernels: the box primitives behind ``Region`` and point lookup.

The set primitives operate on plain tuples: an interval is
``(lo, hi, lo_closed, hi_closed)`` and a box is a tuple of intervals (one
per attribute).  Every split of one box set by another is one cut,
``boxes_cut``, which returns the shared part and the rest together; an
intersection is its shared part.  It cuts box by box with ``box_cut``,
one pass over the axes that narrows the intersection and splits off the
rest as it goes.  A test whether two box sets meet stops at their first
meeting pair of boxes (``box_intersect``), building no rest.  Coalescing
takes the boxes in turn and scans the live boxes for each one's earliest
partner; nearly every call gets one box or a handful.  Point location
works on an ``(n, m)`` point array with numpy: a small call tests every
point against every box, and a larger one is a slab index (Dobkin and
Lipton, 1976) in row space.  The points are sorted on attribute 0, each
box spans one range of rows, and each slab of rows is tested only against
the boxes spanning it.

Empty intervals are represented by ``None`` return values, never by tuples.
A degenerate interval ``lo == hi`` is only valid when both endpoints are
closed (a point).
"""

from bisect import insort
from operator import itemgetter

import numpy as np

_INF = float("inf")

# ``locate`` tests points in chunks of at most this many point-box pairs,
# which bounds the size of its temporary arrays.
_CHUNK_PAIRS = 1 << 17


def itv_intersect(a, b):
    """Intersection of two intervals, or None when empty.

    An endpoint shared by a closed and an open bound is excluded; a
    measure-zero result survives only as a fully closed point.
    """
    alo, ahi, alc, ahc = a
    blo, bhi, blc, bhc = b
    if alo > blo:
        lo, lc = alo, alc
    elif blo > alo:
        lo, lc = blo, blc
    else:
        lo, lc = alo, alc and blc
    if ahi < bhi:
        hi, hc = ahi, ahc
    elif bhi < ahi:
        hi, hc = bhi, bhc
    else:
        hi, hc = ahi, ahc and bhc
    if lo > hi:
        return None
    if lo == hi and not (lc and hc):
        return None
    return (lo, hi, lc, hc)


def box_intersect(a, b):
    """Componentwise intersection of two boxes, or None when empty."""
    out = []
    for ia, ib in zip(a, b):
        iv = itv_intersect(ia, ib)
        if iv is None:
            return None
        out.append(iv)
    return tuple(out)


def box_cut(a, b):
    """``(a & b or None, disjoint pieces of a - b)`` by an axis-sweep peel:
    per dimension the parts of ``a`` below and above ``b`` are split off,
    then the core is narrowed to the intersection; at most two pieces per
    dimension.  One pass over the axes; a piece is kept only when ``a``
    meets ``b`` on every axis."""
    core = ()  # a & b on the axes so far
    pieces = []
    for k, ((alo, ahi, alc, ahc), (blo, bhi, blc, bhc)) in enumerate(zip(a, b)):
        if alo > blo:
            lo, lc = alo, alc
        elif blo > alo:
            lo, lc = blo, blc
        else:
            lo, lc = alo, alc and blc
        if ahi < bhi:
            hi, hc = ahi, ahc
        elif bhi < ahi:
            hi, hc = bhi, bhc
        else:
            hi, hc = ahi, ahc and bhc
        if lo > hi or (lo == hi and not (lc and hc)):
            return None, [a]
        # as a meets b on this axis, the part below b ends at blo and the
        # part above starts at bhi, each with the flag opposite to b's
        if alo < blo or (alo == blo and alc and not blc):
            pieces.append(core + ((alo, blo, alc, not blc),) + a[k + 1:])
        if bhi < ahi or (bhi == ahi and ahc and not bhc):
            pieces.append(core + ((bhi, ahi, not bhc, ahc),) + a[k + 1:])
        core += ((lo, hi, lc, hc),)
    return core, pieces


def box_measure(box):
    v = 1.0
    for lo, hi, _, _ in box:
        v *= hi - lo
    return v


def extent(boxes):
    """Per attribute, ``(lo, hi)``: the least lower and greatest upper bound
    of the boxes, without inclusivity flags; ``()`` for no boxes."""
    if len(boxes) == 1:
        return tuple(iv[:2] for iv in boxes[0])
    return tuple(
        (min(map(itemgetter(0), ivs)), max(map(itemgetter(1), ivs)))
        for ivs in zip(*boxes)
    )


def _join(a, b):
    """The union of boxes ``a`` and ``b`` when they are equal off one axis k,
    one ends on axis k where the other starts and the shared end is closed
    on at least one side; else None, also for two copies of one box."""
    k = None
    for j in range(len(a)):
        if a[j] != b[j]:
            if k is not None:
                return None
            k = j
    if k is None:
        return None
    lo, hi = (a[k], b[k]) if a[k][1] == b[k][0] else (b[k], a[k])
    if lo[1] != hi[0] or not (lo[3] or hi[2]):
        return None
    return a[:k] + ((lo[0], hi[1], lo[2], hi[3]),) + a[k + 1:]


def coalesce(boxes):
    """Join adjacent boxes of a disjoint box set until no two can be joined.

    Boxes go in, in input order.  Each is joined with the earliest-ranked
    live box it can be joined with; the joined box keeps the earlier rank
    and is joined again until it has no partner.  The output is in rank
    order.  Appending one box to an already coalesced list therefore gives
    the list that repeatedly joining the first joinable pair would give.
    """
    if len(boxes) < 2:
        return list(boxes)
    live = []  # (rank, box) in rank order
    for rank, b in enumerate(boxes):
        i = 0
        while i < len(live):
            joined = _join(live[i][1], b)
            if joined is None:
                i += 1
            else:
                rank, b, i = min(rank, live.pop(i)[0]), joined, 0
        insort(live, (rank, b))
    return [b for _, b in live]


def boxes_cut(A, B):
    """``(shared, rest)``: the parts of A's boxes inside and outside the
    union of B, in A's order.  Each box of A is peeled by B's boxes in turn,
    each cutting only what the earlier ones left, so for a disjoint A the
    parts are pairwise disjoint even when B overlaps itself."""
    shared, rest = [], []
    for a in A:
        pieces = [a]
        for b in B:
            nxt = []
            for p in pieces:
                inter, out = box_cut(p, b)
                if inter is not None:
                    shared.append(inter)
                nxt.extend(out)
            pieces = nxt
            if not pieces:
                break
        rest.extend(pieces)
    return shared, rest


def _first_inside(points, lo, hi):
    """Per row of ``points``, the index of the first box containing it, or
    the box count where none does.  ``lo`` and ``hi`` hold closed bounds,
    one row per coordinate column of ``points`` and one column per box."""
    # a last column that every point hits stands for "no box"
    hit = np.ones((len(points), lo.shape[1] + 1), dtype=bool)
    inside = hit[:, :-1]
    for k, coords in enumerate(points.T):
        inside &= coords[:, None] >= lo[k]
        inside &= coords[:, None] <= hi[k]
    return hit.argmax(axis=1)


def locate(boxes, owners, points):
    """Owner index of the first box containing each row of ``points`` (an
    ``(n, m)`` array-like), or -1 where no box contains it, as an array.

    An open bound ``lo`` admits exactly the floats ``>= nextafter(lo, inf)``,
    so each face is one comparison that respects its inclusivity flag.  Only
    open ends are moved, so no finite bound is moved past the largest float.
    NaN coordinates compare false and are never contained.

    A call whose points times boxes fit in ``_CHUNK_PAIRS`` tests every
    point against every box at once; through the slab index a one-point
    lookup (``Region.contains``, ``classify``) took twice as long.  A larger
    call is a slab index on attribute 0.  The points are sorted on it once,
    and each box spans the rows from the first at or above its lower end to
    the first above its upper end, none where a bound is NaN; NaN rows sort
    last, after every range.  A slab is the rows between two consecutive
    distinct range ends, so each box spans a slab whole or not at all, and
    each slab is tested on the other attributes against only the boxes
    spanning it, in box order, in chunks of at most ``_CHUNK_PAIRS`` pairs.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if not boxes or not n:
        return np.full(n, -1, dtype=np.intp)
    bounds = np.array(boxes, dtype=float)  # (boxes, m, 4)
    ends = bounds[..., :2]
    np.nextafter(ends, (_INF, -_INF), out=ends, where=bounds[..., 2:] == 0)
    lo, hi = ends.T  # each (m, boxes)
    owners = np.array([*owners, -1], dtype=np.intp)
    if n * len(boxes) <= _CHUNK_PAIRS:
        return owners[_first_inside(points, lo, hi)]
    order = np.argsort(points[:, 0])
    x = points[order, 0]
    # box b spans rows start[b]:stop[b] of the sorted points, written so
    # that a box with a NaN bound spans none
    start = np.searchsorted(x, lo[0])
    stop = np.where(lo[0] <= hi[0], np.searchsorted(x, hi[0], "right"), 0)
    cuts = np.sort(np.concatenate((start, stop)))
    cuts = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))].tolist()
    rest = points[order, 1:]
    found = np.full(n, -1, dtype=np.intp)
    lo, hi = lo[1:], hi[1:]
    for first, end in zip(cuts, cuts[1:]):
        spans = np.flatnonzero((start <= first) & (end <= stop))
        if not len(spans):
            continue
        span_owners = owners[np.append(spans, -1)]
        span_lo, span_hi = lo[:, spans], hi[:, spans]
        step = max(1, _CHUNK_PAIRS // len(spans))
        for a in range(first, end, step):
            b = min(a + step, end)
            found[a:b] = span_owners[_first_inside(rest[a:b], span_lo, span_hi)]
    out = np.empty(n, dtype=np.intp)
    out[order] = found
    return out
