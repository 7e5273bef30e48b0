import itertools

import numpy as np
import pytest

from decspace import AttributeSchema, Rule, RuleSet, classify, rules_to_space, validate
from decspace.geometry import kernels
from decspace.harness import (
    LABELS,
    PRE_DRIFT_CUT,
    StreamConfig,
    _grid_coalesce,
    generate_batch,
    induce_rules,
    run_experiment,
)

from conftest import fixpoint_coalesce


@pytest.fixture
def cfg():
    return StreamConfig(
        seed=11, num_learners=2, drift_at=2, batches=4, batch_size=400,
        domain=AttributeSchema((("x", 0.0, 10.0), ("y", 0.0, 10.0))),
        grid=5, test_size=400,
    )


class TestConfig:
    def test_invariants(self):
        dom = AttributeSchema((("x", 0.0, 1.0),))
        with pytest.raises(ValueError):
            StreamConfig(seed=0, num_learners=1, drift_at=4, batches=4,
                         batch_size=10, domain=dom)
        with pytest.raises(ValueError):
            StreamConfig(seed=0, num_learners=1, drift_at=0, batches=4,
                         batch_size=0, domain=dom)

    def test_test_size_must_be_positive(self):
        dom = AttributeSchema((("x", 0.0, 1.0),))
        with pytest.raises(ValueError):
            StreamConfig(seed=0, num_learners=1, drift_at=0, batches=4,
                         batch_size=10, domain=dom, test_size=0)

    def test_from_json(self, cfg):
        doc = {
            "seed": 11, "num_learners": 2, "drift_at": 2, "batches": 4,
            "batch_size": 400,
            "domain": [{"name": "x", "min": 0, "max": 10},
                       {"name": "y", "min": 0, "max": 10}],
            "grid": 5, "test_size": 400,
        }
        assert StreamConfig.from_json(doc) == cfg


class TestGenerateBatch:
    def test_deterministic(self, cfg):
        p1, l1 = generate_batch(cfg, 1)
        p2, l2 = generate_batch(cfg, 1)
        assert np.array_equal(p1, p2)
        assert np.array_equal(l1, l2)

    def test_pre_drift_labels_match_threshold(self, cfg):
        points, labels = generate_batch(cfg, 0)
        cut = PRE_DRIFT_CUT * 10.0
        expect = np.where(points[:, 0] < cut, LABELS[0], LABELS[1])
        assert np.array_equal(labels, expect)

    def test_drift_changes_labeling_on_known_region(self, cfg):
        pre_points, _ = generate_batch(cfg, 0)
        # the same coordinates relabeled post-drift differ exactly on [4,7)
        post_cut, pre_cut = 7.0, 4.0
        mid = (pre_points[:, 0] >= pre_cut) & (pre_points[:, 0] < post_cut)
        pre_labels = np.where(pre_points[:, 0] < pre_cut, LABELS[0], LABELS[1])
        post_labels = np.where(pre_points[:, 0] < post_cut, LABELS[0], LABELS[1])
        assert np.array_equal(pre_labels != post_labels, mid)

    def test_index_out_of_range(self, cfg):
        with pytest.raises(IndexError):
            generate_batch(cfg, 4)

    def test_label_proportions_match_area_ratio(self):
        dom = AttributeSchema((("x", 0.0, 10.0), ("y", 0.0, 10.0)))
        big = StreamConfig(seed=3, num_learners=1, drift_at=1, batches=2,
                           batch_size=10000, domain=dom)
        _, labels = generate_batch(big, 0)
        frac = np.mean(labels == LABELS[0])
        assert frac == pytest.approx(PRE_DRIFT_CUT, abs=0.02)


def _per_cell_union_rules(points, labels, schema, grid):
    """Reference learner: a majority vote per cell, then each cell box is
    added to its label's region by a union with a fixpoint coalesce."""
    m = len(schema)
    edges = [
        np.linspace(a.domain_min, a.domain_max, grid + 1)
        for a in schema.attributes
    ]
    bins = np.zeros((len(points), m), dtype=int)
    for k in range(m):
        bins[:, k] = np.clip(
            np.searchsorted(edges[k], points[:, k], side="right") - 1, 0, grid - 1
        )
    overall = max(LABELS, key=lambda l: int(np.sum(labels == l)))
    flat = np.ravel_multi_index(bins.T, (grid,) * m)
    cell_label = {}
    for cell in np.unique(flat):
        mask = flat == cell
        counts = {l: int(np.sum(labels[mask] == l)) for l in LABELS}
        cell_label[int(cell)] = max(LABELS, key=lambda l: counts[l])
    per_label = {l: [] for l in LABELS}
    for idx in range(grid ** m):
        label = cell_label.get(idx, overall)
        coords = np.unravel_index(idx, (grid,) * m)
        box = tuple(
            (float(edges[k][c]), float(edges[k][c + 1]), True, c == grid - 1)
            for k, c in enumerate(coords)
        )
        # the cell is disjoint from the region, so the union appends it
        per_label[label] = fixpoint_coalesce(per_label[label] + [box])
    rules = []
    for label in LABELS:
        for box in per_label[label]:
            conds = []
            for k, a in enumerate(schema.attributes):
                lo, hi, _, _ = box[k]
                if lo > a.domain_min:
                    conds.append((a.name, ">=", lo))
                if hi < a.domain_max:
                    conds.append((a.name, "<", hi))
            rules.append(Rule(tuple(conds), label))
    return RuleSet(tuple(rules))


class TestInduceRules:
    def test_single_class_collapses_to_one_rule(self, cfg):
        points = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        labels = np.array([LABELS[0]] * 3)
        rules = induce_rules(points, labels, cfg.domain, grid=4)
        assert len(rules.rules) == 1
        assert rules.rules[0].conditions == ()

    def test_aligned_separator_gives_two_rules(self, cfg):
        rng = np.random.default_rng(5)
        points = rng.uniform(0, 10, size=(2000, 2))
        labels = np.where(points[:, 0] < 5.0, LABELS[0], LABELS[1])
        rules = induce_rules(points, labels, cfg.domain, grid=2)
        assert len(rules.rules) == 2

    def test_space_is_valid_and_covers_domain(self, cfg):
        points, labels = generate_batch(cfg, 0)
        rules = induce_rules(points, labels, cfg.domain, cfg.grid)
        space = rules_to_space(rules, cfg.domain, LABELS)
        assert validate(space) == []
        assert (cfg.domain.full_region() - space.covered_region()).is_empty

    def test_training_accuracy_beats_majority_baseline(self, cfg):
        points, labels = generate_batch(cfg, 0)
        rules = induce_rules(points, labels, cfg.domain, cfg.grid)
        space = rules_to_space(rules, cfg.domain, LABELS)
        hits = sum(
            classify(space, pt)[1] == lbl for pt, lbl in zip(points, labels)
        )
        baseline = max(np.mean(labels == l) for l in LABELS)
        assert hits / len(labels) >= baseline

    @pytest.mark.parametrize("m, grid", [(2, 5), (2, 16), (2, 20), (3, 6)])
    def test_matches_per_cell_union(self, m, grid):
        # drift-chain's accuracy reference depends on the exact rule list:
        # every rule becomes one element, weighted by its own specialization
        schema = AttributeSchema(tuple((f"x{k}", 0.0, 10.0) for k in range(m)))
        rng = np.random.default_rng([m, grid])
        points = rng.uniform(0, 10, size=(400, m))
        noisy = points[:, 0] + rng.normal(0, 2, len(points))
        labels = np.where(noisy < 5.0, LABELS[0], LABELS[1])
        expected = _per_cell_union_rules(points, labels, schema, grid)
        assert induce_rules(points, labels, schema, grid) == expected

    def test_empty_instances_rejected(self, cfg):
        with pytest.raises(ValueError):
            induce_rules(np.zeros((0, 2)), np.array([]), cfg.domain, 4)


def _coalesced_cells(flat, grid, m):
    """``kernels.coalesce`` of the cells at ascending flat indices ``flat``,
    each cell an integer box closed above only at the top, as the flat
    indices of each output box's lowest and highest cell."""
    shape = (grid,) * m
    axis = [(c, c + 1, True, c == grid - 1) for c in range(grid)]
    cells = list(itertools.product(*[axis] * m))
    return [
        (int(np.ravel_multi_index([iv[0] for iv in box], shape)),
         int(np.ravel_multi_index([iv[1] - 1 for iv in box], shape)))
        for box in kernels.coalesce([cells[c] for c in flat])
    ]


class TestGridCoalesce:
    @pytest.mark.parametrize("m, max_grid", [(1, 30), (2, 9), (3, 5), (4, 4)])
    def test_matches_generic_coalesce(self, rng, m, max_grid):
        for _ in range(60):
            grid = int(rng.integers(1, max_grid + 1))
            keep = rng.random(grid ** m) < rng.random()
            flat = np.flatnonzero(keep).tolist()
            assert _grid_coalesce(flat, grid, m) == _coalesced_cells(flat, grid, m)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_edge_cases(self, m):
        for grid in (1, 3):
            n = grid ** m
            for flat in ([], [0], [n - 1], [n // 2], list(range(n))):
                assert _grid_coalesce(flat, grid, m) == _coalesced_cells(flat, grid, m)
        # every cell of a grid is one box
        assert _grid_coalesce(list(range(4 ** m)), 4, m) == [(0, 4 ** m - 1)]


class TestRunExperiment:
    def test_reproducible(self, cfg):
        r1 = run_experiment(cfg, "chain")
        r2 = run_experiment(cfg, "chain")
        assert r1.accuracies == r2.accuracies

    def test_single_learner_single_batch_strategies_agree(self):
        dom = AttributeSchema((("x", 0.0, 10.0), ("y", 0.0, 10.0)))
        tiny = StreamConfig(seed=7, num_learners=1, drift_at=0, batches=1,
                            batch_size=300, domain=dom, grid=4, test_size=200)
        results = {
            s: run_experiment(tiny, s)
            for s in ("chain", "balanced", "factored", "streaming-unbiased")
        }
        accs = {r.accuracies for r in results.values()}
        assert len(accs) == 1

    def test_balanced_equals_factored(self, cfg):
        assert cfg.batches == 4
        assert (run_experiment(cfg, "balanced").accuracies
                == run_experiment(cfg, "factored").accuracies)

    def test_unknown_strategy(self, cfg):
        with pytest.raises(ValueError):
            run_experiment(cfg, "bagging")

    def test_balanced_needs_power_of_two_batches(self):
        dom = AttributeSchema((("x", 0.0, 10.0),))
        cfg = StreamConfig(seed=0, num_learners=1, drift_at=1, batches=3,
                           batch_size=50, domain=dom, grid=2, test_size=50)
        with pytest.raises(ValueError):
            run_experiment(cfg, "balanced")

    def test_csv_and_summary_shape(self, cfg):
        res = run_experiment(cfg, "chain")
        lines = res.as_csv().strip().splitlines()
        assert lines[0] == "batch_index,strategy,accuracy"
        assert len(lines) == cfg.batches + 1
        summary = res.summary()
        assert summary["strategy"] == "chain"
        assert 0.0 <= summary["post_drift_mean_accuracy"] <= 1.0
        assert "rng" in summary and "seed" in summary
