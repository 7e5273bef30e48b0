"""Acceptance suite: the binding end-to-end checks for the package.

Each test prints a single PASS line on success so a -s run reads as a
checklist.  The randomized-law run (1000 trials, fixed seed) is shared
between the law criterion and the composite-operator report criterion.
"""

import time

import numpy as np
import pytest

from decspace import (
    AttributeSchema,
    ClassDistribution,
    DecisionSpace,
    Element,
    MergeScheme,
    build_balanced,
    build_chain,
    build_factored,
    classify,
    classify_many,
    execute,
    impacts,
    merge,
    merge_nary,
    merge_streaming,
    parse_ruleset,
    rules_to_space,
    semantically_equal,
    tree_to_space,
    validate,
)
from decspace.geometry import Region
from decspace.harness import StreamConfig, run_experiment
from decspace.laws import nonassociativity_witness, report, run_all
from decspace.sampling import DEFAULT_SCHEMA, random_space

from conftest import (
    RULES_TEXT,
    check_merge_against_oracle,
    make_overlap_pair,
    random_tree,
)

LAW_TRIALS = 1000
LAW_SEED = 0


@pytest.fixture(scope="module")
def law_results():
    start = time.perf_counter()
    results = run_all(trials=LAW_TRIALS, seed=LAW_SEED, tol=1e-9)
    return results, time.perf_counter() - start


def test_criterion_1_worked_overlap_example():
    start = time.perf_counter()
    grey, checker = make_overlap_pair()
    merged = merge(grey, checker)
    elapsed = time.perf_counter() - start
    assert validate(merged) == []
    inter = [
        e for e in merged.elements
        if e.region == Region.from_box((7.0, 8.0, True, True),
                                       (3.0, 10.0, True, True))
    ]
    assert len(inter) == 1
    yes_pct = inter[0].value.weights[0] * 100.0
    assert abs(yes_pct - 21.4286) <= 0.0001
    assert abs(inter[0].value.weights[1] * 100.0 - 78.5714) <= 0.0001
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: intersection Yes = {yes_pct:.4f}% in {elapsed:.3f}s")


def test_criterion_2_algebraic_law_suite(law_results):
    results, elapsed = law_results
    proven = [r for r in results if r.kind == "proven"]
    required = {
        "merge_commutative", "merge_identity", "merge_idempotent",
        "restrict_idempotent", "restrict_associative",
        "restrict_identity_family",
    }
    assert required <= {r.name for r in proven}
    failures = [r.name for r in proven if not r.passed]
    assert failures == [], f"proven laws failed: {failures}"
    assert elapsed < 60.0, f"law suite took {elapsed:.1f}s"
    print(f"\nPASS criterion 2: {len(proven)} proven laws, "
          f"{LAW_TRIALS} trials, {elapsed:.1f}s")


def test_criterion_3_nonassociativity_witness():
    x, y, z = nonassociativity_witness()
    left = merge(merge(x, y), z)
    right = merge(x, merge(y, z))
    assert (left.covered_region() - right.covered_region()).is_empty
    assert (right.covered_region() - left.covered_region()).is_empty
    assert not semantically_equal(left, right, 1e-6)
    # locate one differing cell for the record
    gap = max(
        abs(classify(left, (3.0, 3.0))[0].weights[0]
            - classify(right, (3.0, 3.0))[0].weights[0]),
        abs(classify(left, (5.0, 3.0))[0].weights[0]
            - classify(right, (5.0, 3.0))[0].weights[0]),
    )
    assert gap > 1e-6
    print(f"\nPASS criterion 3: same coverage, value gap {gap:.4f}")


def test_criterion_4_impact_probes():
    cases = (
        (build_balanced(8), (0.125,) * 8),
        (build_chain(6), (2 ** -5, 2 ** -5, 2 ** -4, 2 ** -3, 2 ** -2, 2 ** -1)),
        (build_factored([3, 2, 2]), (1.0 / 12.0,) * 12),
    )
    for scheme, expected in cases:
        got = impacts(scheme)
        assert got == pytest.approx(expected, abs=1e-12)
        m = scheme.num_leaves
        labels = tuple(f"c{i}" for i in range(m))
        probes = [
            DecisionSpace(DEFAULT_SCHEMA, labels, (Element(
                DEFAULT_SCHEMA.full_region(),
                ClassDistribution.one_hot(labels, labels[i]),
            ),))
            for i in range(m)
        ]
        combined = execute(scheme, probes)
        assert len(combined.elements) == 1
        assert combined.elements[0].value.weights == pytest.approx(
            expected, abs=1e-9
        )
    print("\nPASS criterion 4: impact probes for balanced(8), chain(6), "
          "factored(3x2x2)")


def test_criterion_5_streaming_equivalence():
    rng = np.random.default_rng(17)
    for coverage in (1.0, 0.6):
        for _ in range(100):
            spaces = [random_space(rng, coverage=coverage)
                      for _ in range(int(rng.integers(3, 7)))]
            acc = spaces[0]
            for sp in spaces[1:]:
                acc = merge_streaming(acc, sp)
            assert semantically_equal(acc, merge_nary(spaces), 1e-9)
    print("\nPASS criterion 5: streaming fold == m-ary merge on 100 sequences "
          "each at coverage 1.0 and 0.6")


def test_criterion_6_conversion_fidelity():
    schema = AttributeSchema((("age", 0.0, 6.0), ("degree", 0.0, 6.0)))
    rules = parse_ruleset(RULES_TEXT)
    space = rules_to_space(rules, schema)
    assert len(space.elements) == 5
    rng = np.random.default_rng(23)
    pts = [tuple(float(v) for v in pt) for pt in rng.uniform(0.0, 6.0, size=(10000, 2))]
    names = schema.names
    for pt, got in zip(pts, classify_many(space, pts)):
        expected = next(
            (r.outcome for r in rules.rules if r.evaluate(names, pt)), None
        )
        assert (got is None) == (expected is None)
        if got is not None:
            assert got[1] == expected

    tschema = AttributeSchema((("a0", 0.0, 8.0), ("a1", 0.0, 8.0)))
    labels = ("X", "Y", "Z")
    for _ in range(3):
        tree = random_tree(rng, tschema, labels, max_depth=6)
        tspace = tree_to_space(tree, tschema, labels)
        tpts = [tuple(float(v) for v in pt) for pt in rng.uniform(0.0, 8.0, size=(10000, 2))]
        for pt, got in zip(tpts, classify_many(tspace, tpts)):
            expected = tree.traverse(tschema.names, pt)
            if isinstance(expected, ClassDistribution):
                expected = expected.predicted_label()
            assert got[1] == expected
    print("\nPASS criterion 6: rule and tree conversions agree with direct "
          "evaluation on 10^4-point samples")


def test_criterion_7_cellwise_merge_oracle():
    rng = np.random.default_rng(29)
    for _ in range(200):
        x, y = random_space(rng), random_space(rng)
        check_merge_against_oracle(x, y, merge(x, y), tol=1e-9)
    print("\nPASS criterion 7: 200 random merges match the cell-wise oracle")


def test_criterion_8_drift_ordering():
    start = time.perf_counter()
    dom = AttributeSchema((("x", 0.0, 10.0), ("y", 0.0, 10.0)))
    drift = StreamConfig(seed=2026, num_learners=4, drift_at=10, batches=20,
                         batch_size=400, domain=dom, grid=5, test_size=2000)
    chain = run_experiment(drift, "chain")
    unbiased = run_experiment(drift, "streaming-unbiased")
    assert chain.post_drift_mean > unbiased.post_drift_mean

    stationary = StreamConfig(seed=2026, num_learners=4, drift_at=0, batches=20,
                              batch_size=400, domain=dom, grid=5, test_size=2000)
    final_chain = run_experiment(stationary, "chain").accuracies[-1]
    final_unbiased = run_experiment(stationary, "streaming-unbiased").accuracies[-1]
    assert abs(final_chain - final_unbiased) < 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nPASS criterion 8: drift {chain.post_drift_mean:.3f} > "
          f"{unbiased.post_drift_mean:.3f}; stationary gap "
          f"{abs(final_chain - final_unbiased):.3f}; {elapsed:.1f}s")


def test_criterion_9_composite_operator_report(law_results):
    results, _ = law_results
    doc = report(results, LAW_SEED, LAW_TRIALS)
    by_name = {l["name"]: l for l in doc["laws"]}
    for name in ("plus_idempotent", "barodot_idempotent"):
        assert by_name[name]["kind"] == "reported"
        assert by_name[name]["passed"] is True
    for name in ("plus_commutative", "barodot_commutative",
                 "plus_associative", "barodot_associative"):
        entry = by_name[name]
        assert entry["kind"] == "reported"
        if not entry["passed"]:
            # a failed claim must ship a replayable counterexample
            assert entry["counterexample"]
            assert all("elements" in sp for sp in entry["counterexample"].values())
    verdicts = {
        n: by_name[n]["passed"]
        for n in ("plus_idempotent", "barodot_idempotent", "plus_commutative",
                  "barodot_commutative", "plus_associative",
                  "barodot_associative")
    }
    print(f"\nPASS criterion 9: composite-operator report emitted; {verdicts}")
