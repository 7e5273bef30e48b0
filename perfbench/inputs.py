"""Input generators owned by the benchmark.

Everything here is a pure function of the seed, so the benchmark measures
the same inputs whatever later changes do to ``decspace.sampling`` or
``decspace.laws``.  Each workload draws from its own numpy PCG64 stream,
``default_rng([seed, stream])``.
"""

import numpy as np

from decspace.model import AttributeSchema

STREAM = {"drift-chain": 1, "cli-pipeline": 3}


def rng_for(workload, seed):
    return np.random.default_rng([seed, STREAM[workload]])


def schema(dims, lo=0.0, hi=1.0):
    return AttributeSchema(tuple((f"x{k}", lo, hi) for k in range(dims)))


def _split(box, k, cut):
    lo, hi, lc, hc = box[k]
    left = box[:k] + ((lo, cut, lc, False),) + box[k + 1:]
    right = box[:k] + ((cut, hi, True, hc),) + box[k + 1:]
    return left, right


def _full_box(sch):
    return tuple((a.domain_min, a.domain_max, True, True) for a in sch.attributes)


def kd_cut(rng, lo, hi, integer):
    """A cut at a random fraction in [0.3, 0.7] of (lo, hi); ``integer``
    rounds it to an interior integer line."""
    cut = lo + (hi - lo) * rng.uniform(0.3, 0.7)
    return float(min(max(round(cut), lo + 1), hi - 1)) if integer else float(cut)


def kd_boxes(rng, sch, depth, integer=False):
    """Balanced k-d tiling: every leaf is split ``depth`` times, cycling the
    axes from a random start (see ``kd_cut``)."""
    dims = len(sch)
    first = int(rng.integers(0, dims))
    boxes = [_full_box(sch)]
    for level in range(depth):
        k = (first + level) % dims
        boxes = [part for b in boxes
                 for part in _split(b, k, kd_cut(rng, b[k][0], b[k][1], integer))]
    return boxes


def uniform_points(rng, sch, n):
    lo = np.array([a.domain_min for a in sch.attributes])
    hi = np.array([a.domain_max for a in sch.attributes])
    return rng.uniform(lo, hi, size=(n, len(sch)))
