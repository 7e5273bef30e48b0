"""The algebra core: conflict-resolving merge, its m-ary and bias-free
streaming variants, the restriction operator, and their composites.

Every split, and the projection test of strict subsumption, goes through
one kernel, ``boxes_cut`` (shared part and rest in one pass).  The three
merges share one overlay and differ only in how an element is weighed.
The overlay cuts space by space: a space's elements cut the fragments
built so far as one batch, one cut per candidate pair from one numpy
extent comparison, and each output fragment is coalesced once, at the end.

Conflicts are resolved by weighted averaging of the class distributions;
the weight of an element is the mean projected extent of its region (its
specialization), or its stored mass in the streaming merge.
Elements of different spaces conflict on every point they share, a shared
closed face or a single point included, so no point's value depends on
operand order.  A point element's weight is 0, so on its point the other
element's value holds; conflicting measure-zero regions are averaged
unweighted when every weight is zero.
"""

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .geometry import Region
from .geometry import kernels as _k
from .model import (
    ClassDistribution,
    DecisionSpace,
    Element,
    specialization,
)


def _check_pair(a, b):
    if a.schema != b.schema:
        raise ValueError("schema mismatch between decision spaces")


def _aligned(spaces):
    """The spaces extended onto one label tuple: the common one when all
    agree, else the sorted union, or, for labels of mixed types that do not
    compare, the union sorted by ``repr``."""
    for sp in spaces[1:]:
        _check_pair(spaces[0], sp)
    labels = spaces[0].class_labels
    if any(sp.class_labels != labels for sp in spaces[1:]):
        union = set().union(*(sp.class_labels for sp in spaces))
        try:
            labels = tuple(sorted(union))
        except TypeError:
            labels = tuple(sorted(union, key=repr))
    return [sp.with_labels(labels) for sp in spaces]


def subsumes(x, y):
    """True iff x subsumes y: y's region is contained in x's."""
    return y.region.issubset(x.region)


def strictly_subsumes(x, y):
    """True iff x strictly subsumes y: on every attribute, y's projection,
    its boxes' (possibly overlapping) intervals, is a proper subset of x's,
    strictly inside both extremes (a projection that reaches either end of
    x's extent is only ordinary containment)."""
    ext = list(zip(y.region.extent(), x.region.extent()))
    if not all(xlo < ylo and yhi < xhi for (ylo, yhi), (xlo, xhi) in ext):
        return False
    return not any(
        _k.boxes_cut([(b[k],) for b in y.region.boxes],
                     [(b[k],) for b in x.region.boxes])[1]
        for k in range(len(ext))
    )


def combine_values(values, masses):
    """Mass-weighted average of class distributions (the conflict value).

    All-zero masses are degenerate (every contributor is a point) and raise
    ValueError; merge resolves that case by unweighted averaging.
    """
    if len(values) != len(masses):
        raise ValueError("values and masses differ in length")
    if any(m < 0 for m in masses):
        raise ValueError("masses must be >= 0")
    total = sum(masses)
    if total == 0:
        raise ValueError("all-zero masses leave the weighted value undefined")
    labels = values[0].labels
    weights = [0.0] * len(labels)
    for v, m in zip(values, masses):
        for i, w in enumerate(v.extended(labels).weights):
            weights[i] += w * m
    # one division by the same total: identical one-hot values give exactly 1
    return ClassDistribution(labels, tuple(w / total for w in weights))


def _kept(spaces):
    """The subsumption-drop pass: ``(space index, element)`` for every
    element that no element of another space strictly subsumes with a value
    equal within ``EQUALITY_TOL``.

    Candidate pairs come from the extents in bulk: x can strictly subsume y
    only if x's extent is strictly outside y's on every attribute.  Only
    candidates with equal values have their projections compared."""
    entries = [(s, e) for s, sp in enumerate(spaces) for e in sp.elements]
    ext = np.array([e.region.extent() for _, e in entries], dtype=float)
    lo, hi = ext.reshape(len(entries), len(spaces[0].schema), 2).T  # each (m, n)
    space = np.array([s for s, _ in entries])
    # outside[y, x]: x is in another space, its extent strictly outside y's
    outside = space[:, None] != space
    for lo_k, hi_k in zip(lo, hi):
        outside &= (lo_k < lo_k[:, None]) & (hi_k[:, None] < hi_k)
    candidates = [[] for _ in entries]
    for y, x in np.argwhere(outside).tolist():
        candidates[y].append(x)
    return [
        (s, e) for y, (s, e) in enumerate(entries)
        if not any(
            e.value.close_to(entries[x][1].value)
            and strictly_subsumes(entries[x][1], e)
            for x in candidates[y]
        )
    ]


def _overlay(entries):
    """Cut the regions of ``(space index, element)`` entries, listed space by
    space, into disjoint fragments, each with the entries that cover it.

    The elements of one space are pairwise disjoint, so a space's entries cut
    the earlier fragments as one batch.  Candidate (fragment, entry) pairs
    come from one numpy extent comparison per space; touching ends count,
    since any shared point, a closed face or a point element included, is a
    conflict.  Each fragment emits, for its candidates in entry order, the
    part it shares with the entry, which gains the entry as a contributor,
    then what is left of it.  After all fragments, each entry's own remainder
    follows in entry order.  Fragments are raw disjoint box lists while
    cutting, and each becomes a coalesced Region once, at the end.  Returns
    ``[(Region, contributor entry indices)]``.
    """
    frags = []  # (boxes, contributor entry indices)
    for _, batch in groupby(range(len(entries)), key=lambda k: entries[k][0]):
        batch = list(batch)
        regions = [entries[j][1].region for j in batch]
        cands = [[] for _ in frags]
        if frags:
            flo, fhi = np.array([_k.extent(boxes) for boxes, _ in frags], dtype=float).T
            elo, ehi = np.array([r.extent() for r in regions], dtype=float).T
            meet = np.ones((len(frags), len(batch)), dtype=bool)
            for k in range(len(flo)):
                meet &= (flo[k][:, None] <= ehi[k]) & (elo[k] <= fhi[k][:, None])
            for f, j in np.argwhere(meet).tolist():
                cands[f].append(j)
        shared_of = [[] for _ in batch]
        nxt = []
        for (boxes, contribs), js in zip(frags, cands):
            for j in js:
                shared, rest = _k.boxes_cut(boxes, regions[j].boxes)
                if shared:
                    nxt.append((shared, contribs + (batch[j],)))
                    shared_of[j].extend(shared)
                    boxes = rest
                    if not boxes:
                        break
            if boxes:
                nxt.append((boxes, contribs))
        for j, reg in enumerate(regions):
            if rest := _k.boxes_cut(reg.boxes, shared_of[j])[1]:
                nxt.append((rest, (batch[j],)))
        frags = nxt
    return [(Region(_k.coalesce(boxes), _canonical=True), contribs)
            for boxes, contribs in frags]


@dataclass(frozen=True)
class IntersectionReport:
    """Conflict structure of a merge: the shared region per conflicting
    element pair and the leftover region per element of either space."""

    pairs: tuple  # (x index, y index, shared Region)
    x_remainders: dict  # x index -> Region
    y_remainders: dict  # y index -> Region


def intersection_report(x_space, y_space):
    """The overlay of two spaces without the subsumption-drop pass: every
    point an x and a y element share, a closed face included, is in their
    pair's shared region and in neither remainder."""
    _check_pair(x_space, y_space)
    n = len(x_space.elements)
    entries = [(0, e) for e in x_space.elements] + [(1, e) for e in y_space.elements]
    pairs = []
    rem = {}
    for reg, contribs in _overlay(entries):
        if len(contribs) == 2:
            pairs.append((contribs[0], contribs[1] - n, reg))
        else:
            rem[contribs[0]] = reg
    return IntersectionReport(
        tuple(pairs),
        {i: rem.get(i, Region.empty()) for i in range(n)},
        {j: rem.get(n + j, Region.empty()) for j in range(len(y_space.elements))},
    )


def _merge(spaces, stored_mass):
    """The drop pass, the overlay, then one element per fragment.  An element
    weighs its stored mass if ``stored_mass`` is set, else its region's
    specialization.  A fragment of one element keeps its value, and as mass
    that weight if ``stored_mass`` is set, else its own specialization."""
    spaces = _aligned(spaces)
    entries = _kept(spaces)
    weights = [e.mass if stored_mass else specialization(e.region) for _, e in entries]
    out = []
    for reg, contribs in _overlay(entries):
        if len(contribs) == 1:
            (k,) = contribs
            value = entries[k][1].value
            mass = weights[k] if stored_mass else specialization(reg)
        else:
            masses = [weights[k] for k in contribs]
            mass = sum(masses)
            value = combine_values(
                [entries[k][1].value for k in contribs],
                masses if mass else [1.0] * len(masses),
            )
        out.append(Element(reg, value, mass))
    return DecisionSpace(spaces[0].schema, spaces[0].class_labels, tuple(out))


def merge(x_space, y_space):
    """Conflict-resolving merge of two decision spaces.

    Non-conflicting elements are copied; an element strictly subsumed by an
    opposite-space element of equal value is dropped; each conflict becomes
    an element on the shared region whose value is the specialization-
    weighted average.  The mass of a conflict element accumulates the
    contributors' specializations (consumed by the streaming variant).
    """
    return _merge([x_space, y_space], stored_mass=False)


def merge_streaming(accumulator, next_space):
    """Bias-cancelling sequential merge.

    Every element of either operand weighs its stored mass: in the
    accumulator that is the summed specializations of every space folded in
    so far, so each conflict is weighted by ``W / (W + M(y))``, and elements
    keep their mass.  Folding m spaces this way is semantically equal to a
    single m-ary merge of all of them.
    """
    return _merge([accumulator, next_space], stored_mass=True)


def merge_nary(spaces):
    """m-ary merge: on the overlay arrangement, every cell's value is the
    specialization-weighted average over all covering elements."""
    spaces = list(spaces)
    if not spaces:
        raise ValueError("merge_nary needs at least one decision space")
    return _merge(spaces, stored_mass=False)


def restrict(x_space, y_space):
    """Trim a space to the footprint of another; values and masses are kept.

    Each element is cut once by the footprint, the flat (possibly
    overlapping) box list of the second space's elements: kept verbatim if
    inside it, dropped if it misses it, else trimmed to its coalesced part.
    """
    _check_pair(x_space, y_space)
    footprint = [b for e in y_space.elements for b in e.region.boxes]
    out = []
    for x in x_space.elements:
        shared, rest = _k.boxes_cut(x.region.boxes, footprint)
        if not rest:
            out.append(x)
        elif shared:
            out.append(Element(Region(_k.coalesce(shared), _canonical=True),
                               x.value, x.mass))
    return DecisionSpace(x_space.schema, x_space.class_labels, tuple(out))


def op_plus(x_space, y_space):
    """Merge restricted to the common footprint: (X merge Y) restricted by X
    then by Y, so every output element is backed by both inputs."""
    return restrict(restrict(merge(x_space, y_space), x_space), y_space)


def op_barodot(x_space, y_space):
    """Restrict both spaces to each other first, then merge, so conflict
    weights are measured on the common footprint only."""
    return merge(restrict(x_space, y_space), restrict(y_space, x_space))
