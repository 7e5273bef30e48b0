import os
import subprocess
import sys

import numpy as np
import pytest

import decspace
from decspace import (
    AttributeSchema,
    ClassDistribution,
    DecisionTreeNode,
    OverlappingRulesError,
    Rule,
    RuleSet,
    RuleSyntaxError,
    classify,
    format_ruleset,
    parse_ruleset,
    rules_to_space,
    semantically_equal,
    tree_from_json,
    tree_to_rules,
    tree_to_space,
    validate,
)
from decspace.sampling import random_space

from conftest import boxes_to_rules, random_tree


class TestParse:
    def test_single_rule(self):
        rs = parse_ruleset("IF age >= 0 AND age < 4 AND degree >= 0 AND degree < 2 THEN A")
        assert len(rs.rules) == 1
        rule = rs.rules[0]
        assert rule.conditions == (
            ("age", ">=", 0.0), ("age", "<", 4.0),
            ("degree", ">=", 0.0), ("degree", "<", 2.0),
        )
        assert rule.outcome == "A"

    def test_unicode_operator_aliases(self):
        rs = parse_ruleset("IF age ≥ 2 AND age ≤ 4 THEN B")
        assert rs.rules[0].conditions == (("age", ">=", 2.0), ("age", "<=", 4.0))

    def test_distribution_outcome(self):
        rs = parse_ruleset("IF age < 3 THEN Yes = 40%, No = 60%")
        out = rs.rules[0].outcome
        assert isinstance(out, ClassDistribution)
        assert out.labels == ("Yes", "No")
        assert out.weights == pytest.approx((0.4, 0.6))

    def test_class_equals_form(self):
        rs = parse_ruleset("IF age < 3 THEN class = X")
        assert rs.rules[0].outcome == "X"

    def test_missing_outcome(self):
        with pytest.raises(RuleSyntaxError) as exc:
            parse_ruleset("IF THEN A")
        assert exc.value.line == 1

    def test_error_carries_line_number(self):
        text = "IF age < 3 THEN A\nIF degree 4 THEN B"
        with pytest.raises(RuleSyntaxError) as exc:
            parse_ruleset(text)
        assert exc.value.line == 2
        assert exc.value.column > 1

    # (id, rule text, message, line, column); each but the last follows one
    # valid rule, so it is on line 2
    SYNTAX_ERRORS = [
        ("unexpected-character", "IF age < 3 THEN A $", "unexpected character '$'", 2, 19),
        ("no-if", "  WHEN age < 3 THEN A", "rule must start with IF", 2, 3),
        ("no-then", "IF age < 3 A", "missing THEN", 2, 12),
        ("no-and", "IF age < 3 OR age > 1 THEN A", "expected AND", 2, 12),
        ("no-attribute", "IF 3 < age THEN A", "expected attribute name", 2, 4),
        ("no-threshold", "IF age < x THEN A", "expected numeric threshold", 2, 10),
        ("no-outcome", "IF age < 3 THEN", "missing outcome after THEN", 2, 15),
        ("no-comma", "IF age < 3 THEN A = 50% B = 50%", "expected ','", 2, 25),
        ("no-percent", "IF age < 3 THEN A = x", "expected 'label = percent'", 2, 17),
        ("no-comparison", "IF age = 3 THEN A", "expected comparison, got '='", 2, 8),
        ("bad-sum", "IF age < 3 THEN A = 50%, B = 40%",
         "distribution sums to 90%, not 100%", 2, 17),
        ("percent-above-100", "IF age < 3 THEN A = 150%, B = -50%",
         "percent 150 outside [0, 100]", 2, 21),
        ("percent-below-0", "IF age < 3 THEN A = -50%, B = 150%",
         "percent -50 outside [0, 100]", 2, 21),
        ("duplicate-label", "IF age < 3 THEN A = 50%, A = 50%",
         "duplicate class labels in ('A', 'A')", 2, 17),
        ("no-rules", None, "no rules found", 1, 1),
    ]

    @pytest.mark.parametrize("line, message, lineno, column",
                             [case[1:] for case in SYNTAX_ERRORS],
                             ids=[case[0] for case in SYNTAX_ERRORS])
    def test_syntax_error_messages(self, line, message, lineno, column):
        text = "# only a comment\n\n" if line is None else f"IF age < 1 THEN A\n{line}\n"
        with pytest.raises(RuleSyntaxError) as exc:
            parse_ruleset(text)
        assert (exc.value.line, exc.value.column) == (lineno, column)
        assert str(exc.value) == f"line {lineno}, column {column}: {message}"

    def test_duplicate_upper_bound(self):
        with pytest.raises(ValueError, match="duplicate upper"):
            parse_ruleset("IF age < 3 AND age < 5 THEN B")

    def test_inverted_bounds(self):
        with pytest.raises(ValueError, match="inverted"):
            parse_ruleset("IF age > 5 AND age < 3 THEN B")

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\nIF age < 3 THEN A\n   \n# trailing\n"
        assert len(parse_ruleset(text).rules) == 1

    def test_round_trip(self, partition_rules_text):
        rs = parse_ruleset(partition_rules_text)
        assert parse_ruleset(format_ruleset(rs)) == rs

    def test_round_trip_is_exact(self):
        thresholds = (1 / 3, 1e-7, 1e20, -2.5)
        rs = RuleSet(tuple(
            Rule((("age", ">=", v),), outcome)
            for v, outcome in zip(thresholds, ("A", ClassDistribution(("A", "B"), (1 / 3, 2 / 3)),
                                               "B", "A"))
        ))
        back = parse_ruleset(format_ruleset(rs))
        assert [r.conditions[0][2] for r in back.rules] == list(thresholds)
        assert back.rules[1].outcome.weights == pytest.approx((1 / 3, 2 / 3), abs=1e-12)

    def test_inverted_bounds_name_the_first_attribute(self):
        # the attribute an error names follows the rule, not string hashing
        src = os.path.dirname(os.path.dirname(decspace.__file__))
        code = ("from decspace.conversion import Rule\n"
                "try:\n"
                "    Rule(tuple((a, op, v) for a in 'ab' for op, v in (('>', 5.0), ('<', 3.0))), 'X')\n"
                "except ValueError as exc:\n"
                "    print(exc)\n")
        for seed in ("0", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 env=env, timeout=60)
            assert run.stdout == "inverted bounds on 'a': 5.0 >= 3.0\n", seed


class TestRulesToSpace:
    def test_five_rule_partition(self, partition_rules_text, partition_schema):
        space = rules_to_space(parse_ruleset(partition_rules_text), partition_schema)
        assert len(space.elements) == 5
        assert space.class_labels == ("A", "B", "C", "D", "E")
        assert validate(space) == []
        # tiles [0,6)x[0,6): interior corners of each tile classify correctly
        assert classify(space, (0, 0))[1] == "A"
        assert classify(space, (5, 1))[1] == "B"
        assert classify(space, (1, 3))[1] == "C"
        assert classify(space, (3, 5))[1] == "D"
        assert classify(space, (3, 3))[1] == "E"

    def test_default_bounds_fill_domain(self):
        schema = AttributeSchema((("age", 0.0, 125.0), ("degree", 0.0, 20.0)))
        space = rules_to_space(parse_ruleset("IF age < 5 THEN A"), schema)
        (elem,) = space.elements
        (bx,) = elem.region.boxes
        assert bx[0] == (0.0, 5.0, True, False)
        assert bx[1] == (0.0, 20.0, True, True)  # unmentioned: full closed domain

    def test_closed_operators_close_endpoints(self):
        schema = AttributeSchema((("age", 0.0, 10.0),))
        space = rules_to_space(parse_ruleset("IF age > 2 AND age <= 5 THEN A"), schema)
        (bx,) = space.elements[0].region.boxes
        assert bx[0] == (2.0, 5.0, False, True)

    def test_overlapping_rules_rejected(self):
        schema = AttributeSchema((("age", 0.0, 10.0),))
        with pytest.raises(OverlappingRulesError) as exc:
            rules_to_space(
                parse_ruleset("IF age < 4 THEN A\nIF age < 5 THEN B"), schema
            )
        assert exc.value.violations

    def test_unknown_attribute(self):
        schema = AttributeSchema((("age", 0.0, 10.0),))
        with pytest.raises(KeyError):
            rules_to_space(parse_ruleset("IF height < 4 THEN A"), schema)

    def test_unknown_attribute_before_unknown_label(self):
        schema = AttributeSchema((("age", 0.0, 10.0),))
        with pytest.raises(KeyError, match="height"):
            rules_to_space(parse_ruleset("IF height < 4 THEN A"), schema, ("X",))

    @pytest.mark.parametrize("op, inside, outside",
                             [("<", 1, 2), ("<=", 2, 3), (">", 3, 2), (">=", 2, 1)])
    def test_rule_evaluate(self, op, inside, outside):
        rule = Rule((("age", op, 2.0),), "A")
        assert rule.evaluate(("age",), (inside,))
        assert not rule.evaluate(("age",), (outside,))

    def test_threshold_outside_domain(self):
        schema = AttributeSchema((("age", 0.0, 10.0),))
        with pytest.raises(ValueError):
            rules_to_space(parse_ruleset("IF age < 40 THEN A"), schema)

    @pytest.mark.parametrize("text", ["IF age < 2 THEN A", "IF age < 2 THEN X = 40%, A = 60%"])
    def test_outcome_label_missing_from_classes(self, text):
        schema = AttributeSchema((("age", 0.0, 10.0),))
        with pytest.raises(ValueError, match="'A'"):
            rules_to_space(parse_ruleset(text), schema, ("X",))

    def test_random_rulesets_agree_with_direct_evaluation(self, rng):
        schema = AttributeSchema((("a0", 0.0, 8.0), ("a1", 0.0, 8.0)))
        labels = ("P", "Q", "R")
        for _ in range(20):
            tiling = random_space(rng, schema, class_labels=labels, max_elements=6)
            outcomes = [str(rng.choice(labels)) for _ in range(16)]
            rules = boxes_to_rules(tiling, outcomes)
            space = rules_to_space(rules, schema)
            pts = rng.uniform(0.0, 8.0, size=(500, 2))
            for pt in pts:
                pt = tuple(float(v) for v in pt)
                expected = None
                for r in rules.rules:
                    if r.evaluate(schema.names, pt):
                        expected = r.outcome
                        break
                got = classify(space, pt)
                if expected is None:
                    assert got is None
                else:
                    assert got is not None and got[1] == expected


def tree_json_fixture():
    return {
        "classes": ["Yes", "No"],
        "tree": {
            "attr": "age", "threshold": 4.0,
            "left": {"label": "No"},
            "right": {
                "attr": "degree", "threshold": 2.0,
                "left": {"value": [30, 70]},
                "right": {"label": "Yes"},
            },
        },
    }


class TestTrees:
    def test_single_leaf_covers_domain(self):
        schema = AttributeSchema((("age", 0.0, 6.0), ("degree", 0.0, 6.0)))
        space = tree_to_space(DecisionTreeNode.leaf("A"), schema)
        assert len(space.elements) == 1
        assert space.elements[0].region == schema.full_region()

    def test_two_split_tree_has_three_elements(self):
        schema = AttributeSchema((("age", 0.0, 6.0), ("degree", 0.0, 6.0)))
        tree, classes = tree_from_json(tree_json_fixture())
        space = tree_to_space(tree, schema, tuple(classes))
        assert len(space.elements) == 3
        assert validate(space) == []
        assert classify(space, (1, 1))[1] == "No"
        assert classify(space, (5, 5))[1] == "Yes"
        dist, label = classify(space, (5, 1))
        assert dist.weights == pytest.approx((0.3, 0.7))
        assert label == "No"

    def test_leaf_label_missing_from_classes(self):
        schema = AttributeSchema((("age", 0.0, 6.0), ("degree", 0.0, 6.0)))
        tree, _ = tree_from_json(tree_json_fixture())
        with pytest.raises(ValueError, match="'Yes'"):
            tree_to_space(tree, schema, ("No",))

    def test_value_leaf_requires_classes(self):
        doc = {"tree": {"value": [50, 50]}}
        with pytest.raises(ValueError):
            tree_from_json(doc)

    @pytest.mark.parametrize("doc", [
        [], None, {"tree": 5}, {"tree": {"label": 5}}, {"tree": {"label": ["A"]}},
        {"tree": {"attr": ["age"], "threshold": 1, "left": {"label": "A"},
                  "right": {"label": "B"}}},
        {"classes": 5, "tree": {"label": "A"}}, {"classes": "AB", "tree": {"label": "A"}},
    ])
    def test_malformed_document_is_a_value_error(self, doc):
        with pytest.raises(ValueError):
            tree_from_json(doc)

    @pytest.mark.parametrize("doc, message", [
        ({"tree": {}}, "malformed tree node"),
        ({"classes": ["A", "B"], "tree": {"value": [50, 20]}}, "sums to 70%"),
        ({"classes": ["A", "B"], "tree": {"value": [150, -50]}}, r"outside \[0, 100\]"),
        ({"classes": ["A", "A"], "tree": {"value": [50, 50]}}, "duplicate class label"),
        ({"classes": ["A"], "tree": {"value": ["100"]}}, "not a JSON number"),
        ({"tree": {"attr": "age", "threshold": True, "left": {"label": "A"},
                   "right": {"label": "B"}}}, "not a JSON number"),
    ])
    def test_rejected_document_message(self, doc, message):
        with pytest.raises(ValueError, match=message):
            tree_from_json(doc)

    def test_repeated_attribute_bounds_tightened(self):
        schema = AttributeSchema((("age", 0.0, 10.0),))
        tree = DecisionTreeNode.split(
            "age", 6.0,
            DecisionTreeNode.split(
                "age", 3.0,
                DecisionTreeNode.leaf("A"),
                DecisionTreeNode.leaf("B"),
            ),
            DecisionTreeNode.leaf("C"),
        )
        rules = tree_to_rules(tree, schema)
        # the middle path tests age twice; only binding bounds survive
        assert rules.rules[1].conditions == (("age", ">=", 3.0), ("age", "<", 6.0))
        space = tree_to_space(tree, schema)
        assert validate(space) == []

    def test_deep_chain_tree_converts(self):
        # x < 1, then x < 2 on its right branch, ..., 3000 levels deep
        depth = 3000
        schema = AttributeSchema((("x", 0.0, depth + 1.0),))
        tree = DecisionTreeNode.leaf("B")
        for t in range(depth, 0, -1):
            tree = DecisionTreeNode.split("x", t, DecisionTreeNode.leaf("A"), tree)
        rules = tree_to_rules(tree, schema).rules
        assert len(rules) == depth + 1
        assert rules[0].conditions == (("x", "<", 1.0),)
        assert rules[7].conditions == (("x", ">=", 7.0), ("x", "<", 8.0))
        assert rules[-1] == Rule((("x", ">=", float(depth)),), "B")
        space = tree_to_space(tree, schema)
        assert len(space.elements) == depth + 1
        assert [classify(space, (x,))[1] for x in (0.5, 1999.0, depth - 0.5, depth)] == [
            "A", "A", "A", "B"]

    def test_free_threshold_trees_agree_with_traversal(self, rng):
        """Thresholds are drawn from 1..7 whatever the path tested before, so
        a path may re-test an attribute with a bound that does not bind.  The
        other branch of such a test is empty, and its rule's inverted bounds
        refuse the tree; every other tree converts and agrees with traversal."""
        schema = AttributeSchema((("a0", 0.0, 8.0), ("a1", 0.0, 8.0)))
        grid = [(float(x), float(y)) for x in range(9) for y in range(9)]
        converted = refused = 0
        for _ in range(150):
            leaves = []

            def build(depth):
                if depth == 4 or rng.random() < 0.2:
                    leaves.append(f"L{len(leaves)}")  # a label per leaf names its path
                    return DecisionTreeNode.leaf(leaves[-1])
                return DecisionTreeNode.split(str(rng.choice(schema.names)),
                                              int(rng.integers(1, 8)), build(depth + 1),
                                              build(depth + 1))

            tree = build(0)
            # integer bounds: a path that holds any point holds a grid point
            if {tree.traverse(schema.names, pt) for pt in grid} != set(leaves):
                with pytest.raises(ValueError, match="inverted bounds"):
                    tree_to_rules(tree, schema)
                refused += 1
                continue
            space = tree_to_space(tree, schema, tuple(leaves))
            assert len(space.elements) == len(leaves)
            pts = grid + [tuple(map(float, pt)) for pt in rng.uniform(0.0, 8.0, size=(100, 2))]
            for pt in pts:
                got = classify(space, pt)
                assert got is not None and got[1] == tree.traverse(schema.names, pt)
            converted += 1
        assert converted >= 20 and refused >= 20

    def test_partitions_cover_full_domain(self, rng):
        schema = AttributeSchema((("a0", 0.0, 8.0), ("a1", 0.0, 8.0)))
        for _ in range(10):
            tree = random_tree(rng, schema, ("X", "Y", "Z"), max_depth=5)
            space = tree_to_space(tree, schema, ("X", "Y", "Z"))
            assert validate(space) == []
            assert (schema.full_region() - space.covered_region()).is_empty

    def test_random_trees_agree_with_traversal(self, rng):
        schema = AttributeSchema((("a0", 0.0, 8.0), ("a1", 0.0, 8.0)))
        labels = ("X", "Y", "Z")
        for _ in range(10):
            tree = random_tree(rng, schema, labels, max_depth=6)
            space = tree_to_space(tree, schema, labels)
            pts = rng.uniform(0.0, 8.0, size=(500, 2))
            for pt in pts:
                pt = tuple(float(v) for v in pt)
                expected = tree.traverse(schema.names, pt)
                if isinstance(expected, ClassDistribution):
                    expected = expected.predicted_label()
                got = classify(space, pt)
                assert got is not None and got[1] == expected
