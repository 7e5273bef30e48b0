"""Desk-scale synthetic stream experiments: a drifting axis-aligned ground
truth, trivial grid-based local learners, and accuracy series comparing
recency-biased and unbiased combination strategies.

Everything is driven by numpy's PCG64 generator seeded from (seed, batch),
so all outputs are bit-reproducible given the configuration.
"""

import csv
import io
import json
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    AttributeSchema,
    ClassDistribution,
    DecisionSpace,
    Element,
    _number,
    classify_many,
)
from .conversion import Rule, RuleSet, rules_to_space
from .operators import merge, merge_nary, merge_streaming
from .schemes import MergeScheme, build_factored, execute

STRATEGIES = ("chain", "balanced", "factored", "streaming-unbiased")

LABELS = ("Hot", "Cold")
# ground-truth separator on attribute 0, as a fraction of its domain
PRE_DRIFT_CUT = 0.4
POST_DRIFT_CUT = 0.7


@dataclass(frozen=True)
class StreamConfig:
    seed: int
    num_learners: int
    drift_at: int  # batch index at which the labeling switches
    batches: int
    batch_size: int
    domain: AttributeSchema
    grid: int = 10  # learner resolution: grid cells per attribute
    test_size: int = 2000

    def __post_init__(self):
        if not (self.batches > self.drift_at >= 0):
            raise ValueError("need batches > drift_at >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.num_learners < 1:
            raise ValueError("num_learners must be >= 1")
        if self.test_size < 1:
            raise ValueError("test_size must be >= 1")
        if self.grid < 1:
            raise ValueError("grid must be >= 1")
        if len(self.domain) < 1:
            raise ValueError("domain needs at least one attribute")

    @classmethod
    def from_json(cls, doc):
        return cls(
            seed=_number(doc["seed"], int),
            num_learners=_number(doc["num_learners"], int),
            drift_at=_number(doc["drift_at"], int),
            batches=_number(doc["batches"], int),
            batch_size=_number(doc["batch_size"], int),
            domain=AttributeSchema.from_json(doc["domain"]),
            grid=_number(doc.get("grid", 10), int),
            test_size=_number(doc.get("test_size", 2000), int),
        )


def _cut(cfg, batch_index):
    a0 = cfg.domain.attributes[0]
    frac = POST_DRIFT_CUT if batch_index >= cfg.drift_at else PRE_DRIFT_CUT
    return a0.domain_min + frac * (a0.domain_max - a0.domain_min)


def _label(points, cut):
    return np.where(points[:, 0] < cut, LABELS[0], LABELS[1])


def generate_batch(cfg, batch_index):
    """Uniform points labeled by the current ground truth; deterministic in
    (seed, batch_index)."""
    if not 0 <= batch_index < cfg.batches:
        raise IndexError(f"batch index {batch_index} out of range")
    rng = np.random.default_rng([cfg.seed, batch_index])
    lo = np.array([a.domain_min for a in cfg.domain.attributes])
    hi = np.array([a.domain_max for a in cfg.domain.attributes])
    points = rng.uniform(lo, hi, size=(cfg.batch_size, len(cfg.domain)))
    return points, _label(points, _cut(cfg, batch_index))


def _grid_coalesce(flat, grid, m):
    """``kernels.coalesce`` of the cells of a ``grid ** m`` grid at the
    ascending row-major (flat) indices ``flat``, as the same boxes in the
    same order: each box is the pair of flat indices of its lowest and its
    highest cell.

    Every earlier cell precedes the newest one in row-major order, so the
    box that holds the newest cell ends at that cell on every axis, and a
    live box can join it only by ending just below it on one axis k and
    matching it on the others.  Per axis, one dictionary keyed by a box's
    lowest cell with axis k zeroed and its highest cell finds that partner,
    which is unique because live boxes are disjoint.

    A box's rank in ``coalesce`` is that of its first cell, its lowest, so
    ranks follow lowest cells.  Of two partners, on axes j < k, the one on
    axis j starts lower on axis j and equal on the axes before it, so
    joining the earliest-ranked partner is joining the partner on the
    first axis that has one.
    """
    n = grid ** m
    cells = np.arange(n)
    axes = []  # per axis k: (stride, {key: lowest cell}, each cell's axis-k offset)
    for k in range(m):
        s = grid ** (m - 1 - k)
        axes.append((s, {}, (cells // s % grid * s).tolist()))
    # a live box is filed on axis k under (lowest cell without axis k,
    # highest cell), coded as one integer
    live = {}  # lowest cell -> highest cell
    for hi in flat:
        lo = hi
        while True:
            for s, ends, off in axes:
                lo_off = off[lo]
                if lo_off:
                    # the partner ends where this box does, but just below it on axis k
                    p = ends.get((lo - lo_off) * n + hi - off[hi] + lo_off - s)
                    if p is not None:
                        break
            else:
                break
            p_hi = live.pop(p)
            for s, ends, off in axes:
                del ends[(p - off[p]) * n + p_hi]
            lo = p
        live[lo] = hi
        for s, ends, off in axes:
            ends[(lo - off[lo]) * n + hi] = lo
    return sorted(live.items())


def induce_rules(points, labels, schema, grid):
    """Stand-in local learner: majority label per grid cell (ties to the
    first of ``LABELS``; an empty cell takes the overall majority), each
    label's cells coalesced in row-major order into a non-overlapping rule
    set covering the whole domain.

    The cells are coalesced as flat indices by ``_grid_coalesce``, which
    gives the boxes ``kernels.coalesce`` gives for the cells as boxes, in
    the same order, and each box becomes a rule from its corner cells'
    grid edges."""
    if grid < 1:
        raise ValueError("grid must be >= 1")
    if len(points) == 0:
        raise ValueError("cannot learn from an empty instance set")
    points = np.asarray(points)
    labels = np.asarray(labels)
    m = len(schema)
    edges = [
        np.linspace(a.domain_min, a.domain_max, grid + 1).tolist()
        for a in schema.attributes
    ]
    bins = np.zeros((len(points), m), dtype=int)
    for k in range(m):
        bins[:, k] = np.clip(
            np.searchsorted(edges[k], points[:, k], side="right") - 1, 0, grid - 1
        )
    flat = np.ravel_multi_index(bins.T, (grid,) * m)
    counts = np.stack([
        np.bincount(flat[labels == l], minlength=grid ** m) for l in LABELS
    ])  # (labels, cells)
    overall = int(np.argmax(counts.sum(axis=1)))
    seen = np.bincount(flat, minlength=grid ** m) > 0
    cell_label = np.where(seen, np.argmax(counts, axis=0), overall)

    # a box of cells lo..hi spans edges[k][lo_k] to edges[k][hi_k + 1]
    strides = [grid ** (m - 1 - k) for k in range(m)]
    rules = []
    for i, label in enumerate(LABELS):
        cells = np.flatnonzero(cell_label == i).tolist()
        for lo, hi in _grid_coalesce(cells, grid, m):
            conds = []
            for a, s, e in zip(schema.attributes, strides, edges):
                lo_edge, hi_edge = e[lo // s % grid], e[hi // s % grid + 1]
                if lo_edge > a.domain_min:
                    conds.append((a.name, ">=", lo_edge))
                if hi_edge < a.domain_max:
                    conds.append((a.name, "<", hi_edge))
            rules.append(Rule(tuple(conds), label))
    return RuleSet(tuple(rules))


def _learner_spaces(cfg, batch_index):
    points, labels = generate_batch(cfg, batch_index)
    spaces = []
    for i in range(cfg.num_learners):
        sel = slice(i, None, cfg.num_learners)
        rules = induce_rules(points[sel], labels[sel], cfg.domain, cfg.grid)
        spaces.append(rules_to_space(rules, cfg.domain, LABELS))
    return spaces


def _equal_impact_scheme(n):
    """Equal-impact scheme over n models: prime-factor uniform tree (flat
    m-ary root when n is prime)."""
    if n == 1:
        return MergeScheme(0)
    factors = []
    x, p = n, 2
    while p * p <= x:
        while x % p == 0:
            factors.append(p)
            x //= p
        p += 1
    if x > 1:
        factors.append(x)
    return build_factored(factors)


def _test_set(cfg):
    rng = np.random.default_rng([cfg.seed, 86028157])
    lo = np.array([a.domain_min for a in cfg.domain.attributes])
    hi = np.array([a.domain_max for a in cfg.domain.attributes])
    points = rng.uniform(lo, hi, size=(cfg.test_size, len(cfg.domain)))
    # held out against the final (post-drift) concept
    labels = _label(points, _cut(cfg, cfg.batches - 1))
    return points, labels


def _accuracy(space, points, labels):
    preds = classify_many(space, points)
    hits = sum(
        1 for p, l in zip(preds, labels) if p is not None and p[1] == l
    )
    return hits / len(labels)


@dataclass(frozen=True)
class ExperimentResult:
    strategy: str
    config: StreamConfig
    accuracies: tuple  # one per batch
    post_drift_mean: float

    def as_csv(self):
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["batch_index", "strategy", "accuracy"])
        for i, acc in enumerate(self.accuracies):
            w.writerow([i, self.strategy, f"{acc:.6f}"])
        return buf.getvalue()

    def summary(self):
        return {
            "strategy": self.strategy,
            "seed": self.config.seed,
            "rng": "numpy PCG64 seeded from (seed, batch_index)",
            "batches": self.config.batches,
            "drift_at": self.config.drift_at,
            "post_drift_mean_accuracy": self.post_drift_mean,
            "final_accuracy": self.accuracies[-1],
        }


def run_experiment(cfg, strategy):
    """Accuracy per batch of the combined model against a held-out test set
    drawn from the final concept."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "balanced" and cfg.batches & (cfg.batches - 1):
        raise ValueError("balanced strategy needs a power-of-two batch count")
    test_points, test_labels = _test_set(cfg)
    accuracies = []
    model = None
    batch_models = []
    for b in range(cfg.batches):
        spaces = _learner_spaces(cfg, b)
        batch_model = spaces[0] if len(spaces) == 1 else merge_nary(spaces)
        batch_models.append(batch_model)
        if strategy == "chain":
            model = batch_model if model is None else merge(model, batch_model)
        elif strategy == "streaming-unbiased":
            model = (
                batch_model if model is None
                else merge_streaming(model, batch_model)
            )
        else:  # "factored"; "balanced" too, as build_balanced(2^k) is this tree
            model = execute(_equal_impact_scheme(b + 1), batch_models)
        accuracies.append(_accuracy(model, test_points, test_labels))
    post = accuracies[cfg.drift_at:] if cfg.drift_at else accuracies
    return ExperimentResult(
        strategy, cfg, tuple(accuracies), sum(post) / len(post)
    )
