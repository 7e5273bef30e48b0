"""Parsing of the rule DSL and decision-tree documents, and their conversion
to decision spaces.

The DSL is one rule per line::

    IF age >= 0 AND age < 4 AND degree >= 0 AND degree < 2 THEN A
    IF age < 5 THEN Yes = 40%, No = 60%

``THEN class = X`` is accepted as a synonym for ``THEN X``.  An attribute may
appear at most twice in a rule: once as a lower bound (``>``, ``>=``) and
once as an upper bound (``<``, ``<=``).  Bounds absent from a rule fall back
to the attribute's domain limits, closed at both ends.
"""

import json
import re
from dataclasses import dataclass
from typing import Optional, Union

from .geometry import Region
from .model import (
    AttributeSchema,
    ClassDistribution,
    DecisionSpace,
    Element,
    _number,
    overlap_violations,
)

UPPER_OPS = ("<", "<=")
LOWER_OPS = (">", ">=")
_OP_ALIASES = {"≤": "<=", "≥": ">=", "=<": "<=", "=>": ">="}


class RuleSyntaxError(ValueError):
    """DSL parse failure with 1-based line and column."""

    def __init__(self, line, column, message):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class OverlappingRulesError(ValueError):
    """Converted rules violate the non-overlap requirement; carries the
    validation report."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "overlapping rules: " + "; ".join(self.violations)
        )


@dataclass(frozen=True)
class Rule:
    """Conjunction of bounds plus a label or an explicit distribution."""

    conditions: tuple  # (attribute, op, threshold)
    outcome: Union[str, ClassDistribution]

    def __post_init__(self):
        seen = {}
        for attr, op, value in self.conditions:
            if op not in UPPER_OPS + LOWER_OPS:
                raise ValueError(f"unknown operator {op!r}")
            side = "upper" if op in UPPER_OPS else "lower"
            if (attr, side) in seen:
                raise ValueError(f"duplicate {side} bound on {attr!r}")
            seen[(attr, side)] = value
        for attr in {a for a, _ in seen}:
            lo = seen.get((attr, "lower"))
            hi = seen.get((attr, "upper"))
            if lo is not None and hi is not None and lo >= hi:
                raise ValueError(
                    f"inverted bounds on {attr!r}: {lo} >= {hi}"
                )

    def evaluate(self, names, pt):
        """Direct rule semantics on a point (the conversion oracle)."""
        for attr, op, value in self.conditions:
            x = pt[names.index(attr)]
            if op == "<" and not x < value:
                return False
            if op == "<=" and not x <= value:
                return False
            if op == ">" and not x > value:
                return False
            if op == ">=" and not x >= value:
                return False
        return True


@dataclass(frozen=True)
class RuleSet:
    rules: tuple

    def __post_init__(self):
        if not self.rules:
            raise ValueError("rule set may not be empty")


_TOKEN = re.compile(
    r"\s*(?:(?P<num>-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)"
    r"|(?P<op><=|>=|=<|=>|<|>|≤|≥|=|,|%)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_.-]*))"
)


def _tokenize(text, lineno):
    pos, out = 0, []
    while pos < len(text):
        if text[pos:].isspace():
            break
        m = _TOKEN.match(text, pos)
        if m is None:
            # name the character, not a space before it
            pos += len(text[pos:]) - len(text[pos:].lstrip())
            raise RuleSyntaxError(lineno, pos + 1, f"unexpected character {text[pos]!r}")
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    return out


def _parse_rule(line, lineno):
    toks = _tokenize(line, lineno)
    if not toks or toks[0][1].upper() != "IF":
        col = toks[0][2] if toks else 1
        raise RuleSyntaxError(lineno, col, "rule must start with IF")
    try:
        then_at = next(
            i for i, t in enumerate(toks) if t[0] == "word" and t[1].upper() == "THEN"
        )
    except StopIteration:
        raise RuleSyntaxError(lineno, len(line), "missing THEN") from None

    cond_toks = toks[1:then_at]
    if not cond_toks:
        raise RuleSyntaxError(lineno, toks[then_at][2], "rule has no conditions")
    conditions = []
    i = 0
    while i < len(cond_toks):
        if i and not (cond_toks[i][0] == "word" and cond_toks[i][1].upper() == "AND"):
            raise RuleSyntaxError(lineno, cond_toks[i][2], "expected AND")
        if i:
            i += 1
        if len(cond_toks) - i < 3:
            raise RuleSyntaxError(lineno, cond_toks[-1][2], "incomplete condition")
        attr_t, op_t, val_t = cond_toks[i : i + 3]
        if attr_t[0] != "word":
            raise RuleSyntaxError(lineno, attr_t[2], "expected attribute name")
        if op_t[0] != "op" or _OP_ALIASES.get(op_t[1], op_t[1]) not in UPPER_OPS + LOWER_OPS:
            raise RuleSyntaxError(lineno, op_t[2], f"expected comparison, got {op_t[1]!r}")
        if val_t[0] != "num":
            raise RuleSyntaxError(lineno, val_t[2], "expected numeric threshold")
        conditions.append(
            (attr_t[1], _OP_ALIASES.get(op_t[1], op_t[1]), float(val_t[1]))
        )
        i += 3

    out_toks = toks[then_at + 1 :]
    if not out_toks:
        raise RuleSyntaxError(lineno, len(line), "missing outcome after THEN")
    # "class = X" synonym
    if (
        len(out_toks) == 3
        and out_toks[0][1].lower() == "class"
        and out_toks[1][1] == "="
        and out_toks[2][0] == "word"
    ):
        outcome = out_toks[2][1]
    elif len(out_toks) == 1 and out_toks[0][0] == "word":
        outcome = out_toks[0][1]
    else:
        outcome = _parse_distribution(out_toks, lineno)
    try:
        return Rule(tuple(conditions), outcome)
    except ValueError as exc:
        raise RuleSyntaxError(lineno, 1, str(exc)) from None


def _parse_distribution(toks, lineno):
    labels, weights = [], []
    i = 0
    while i < len(toks):
        if labels:
            if toks[i][1] != ",":
                raise RuleSyntaxError(lineno, toks[i][2], "expected ','")
            i += 1
        if (
            len(toks) - i < 3
            or toks[i][0] != "word"
            or toks[i + 1][1] != "="
            or toks[i + 2][0] != "num"
        ):
            col = toks[i][2] if i < len(toks) else toks[-1][2]
            raise RuleSyntaxError(lineno, col, "expected 'label = percent'")
        percent = float(toks[i + 2][1])
        if not 0 <= percent <= 100:
            raise RuleSyntaxError(lineno, toks[i + 2][2],
                                  f"percent {percent:g} outside [0, 100]")
        labels.append(toks[i][1])
        weights.append(percent / 100.0)
        i += 3
        if i < len(toks) and toks[i][1] == "%":
            i += 1
    total = sum(weights)
    if abs(total - 1.0) > 1e-6:
        raise RuleSyntaxError(
            lineno, toks[0][2], f"distribution sums to {total * 100:g}%, not 100%"
        )
    try:
        return ClassDistribution(tuple(labels), tuple(w / total for w in weights))
    except ValueError as exc:
        raise RuleSyntaxError(lineno, toks[0][2], str(exc)) from None


def parse_ruleset(text):
    """Parse the DSL; raises RuleSyntaxError with line/column on failure."""
    rules = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rules.append(_parse_rule(line, lineno))
    if not rules:
        raise RuleSyntaxError(1, 1, "no rules found")
    return RuleSet(tuple(rules))


def format_ruleset(rules):
    """Render a rule set back to DSL text (inverse of parse_ruleset)."""
    lines = []
    for r in rules.rules:
        conds = " AND ".join(f"{a} {op} {v:g}" for a, op, v in r.conditions)
        if isinstance(r.outcome, str):
            outcome = r.outcome
        else:
            outcome = ", ".join(
                f"{l} = {w * 100:g}%" for l, w in zip(r.outcome.labels, r.outcome.weights)
            )
        lines.append(f"IF {conds} THEN {outcome}")
    return "\n".join(lines) + "\n"


def _box(rule, schema, index):
    """The rule's box: the closed domain box, each condition applied once to
    its side of its attribute.  ``index`` maps each attribute name of
    ``schema`` to its position."""
    box = [[a.domain_min, a.domain_max, True, True] for a in schema.attributes]
    for a, op, v in rule.conditions:
        k = index.get(a)
        if k is None:
            raise KeyError(f"unknown attribute {a!r}")
        attr = schema.attributes[k]
        if not attr.domain_min <= v <= attr.domain_max:
            raise ValueError(f"threshold {v:g} outside domain of {a!r}")
        if op in UPPER_OPS:
            box[k][1], box[k][3] = v, op == "<="
        else:
            box[k][0], box[k][2] = v, op == ">="
    return tuple(map(tuple, box))


def rules_to_space(rules, schema, class_labels=None):
    """Convert a rule set to a decision space, one element per rule.

    Missing bounds fall back to the attribute domain; an unmentioned
    attribute covers its full closed domain.  Overlapping rules raise
    OverlappingRulesError carrying the validation report; an outcome that
    names a label missing from ``class_labels`` raises ValueError.
    """
    index = {name: k for k, name in enumerate(schema.names)}
    boxes = [_box(r, schema, index) for r in rules.rules]
    named = [[r.outcome] if isinstance(r.outcome, str) else r.outcome.labels
             for r in rules.rules]
    if class_labels is None:
        class_labels = dict.fromkeys(l for labels in named for l in labels)
    class_labels = tuple(class_labels)
    for labels in named:
        for l in labels:
            if l not in class_labels:
                raise ValueError(f"outcome label {l!r} is not one of the classes {class_labels}")

    hot = {l: ClassDistribution.one_hot(class_labels, l) for l in class_labels}
    elems = []
    for r, box in zip(rules.rules, boxes):
        if isinstance(r.outcome, str):
            value = hot[r.outcome]
        else:
            value = r.outcome.extended(class_labels)
        elems.append(Element(Region((box,)), value))
    space = DecisionSpace(schema, class_labels, tuple(elems))
    violations = overlap_violations(space)
    if violations:
        raise OverlappingRulesError(violations)
    return space


# -- decision trees ----------------------------------------------------------

@dataclass(frozen=True)
class DecisionTreeNode:
    """Either an internal split (left: attr < threshold, right: attr >=
    threshold) or a leaf carrying a label or distribution."""

    attribute: Optional[str] = None
    threshold: Optional[float] = None
    left: Optional["DecisionTreeNode"] = None
    right: Optional["DecisionTreeNode"] = None
    outcome: Union[str, ClassDistribution, None] = None

    @property
    def is_leaf(self):
        return self.outcome is not None

    @classmethod
    def leaf(cls, outcome):
        return cls(outcome=outcome)

    @classmethod
    def split(cls, attribute, threshold, left, right):
        return cls(attribute=attribute, threshold=float(threshold),
                   left=left, right=right)

    def traverse(self, names, pt):
        """Direct tree evaluation (the conversion oracle)."""
        node = self
        while not node.is_leaf:
            if pt[names.index(node.attribute)] < node.threshold:
                node = node.left
            else:
                node = node.right
        return node.outcome


def tree_from_json(doc):
    """Tree document: {"classes": [...]?, "tree": {...}} with internal nodes
    {"attr", "threshold", "left", "right"} and leaves {"label"} or
    {"value": [percent, ...]} (requires "classes")."""
    if not isinstance(doc, dict):
        raise ValueError(f"tree document must be an object, not {type(doc).__name__}")
    classes = doc.get("classes")
    if classes is not None and not (
        isinstance(classes, list) and all(isinstance(c, str) for c in classes)
    ):
        raise ValueError(f'"classes" must be a list of label strings: {classes!r}')

    def build(node):
        # "attr" and "label", where given, must be names
        if not isinstance(node, dict) or not all(
            isinstance(node.get(key, ""), str) for key in ("attr", "label")
        ):
            raise ValueError(f"malformed tree node: {node!r}")
        if "attr" in node:
            return DecisionTreeNode.split(
                node["attr"], _number(node["threshold"]),
                build(node["left"]), build(node["right"]),
            )
        if "label" in node:
            return DecisionTreeNode.leaf(node["label"])
        if "value" in node:
            if classes is None:
                raise ValueError('tree with "value" leaves needs a "classes" list')
            percents = [_number(p) for p in node["value"]]
            if not all(0 <= p <= 100 for p in percents):
                raise ValueError(f"leaf percent outside [0, 100]: {percents}")
            weights = [p / 100.0 for p in percents]
            total = sum(weights)
            if abs(total - 1.0) > 1e-6:
                raise ValueError(f"leaf distribution sums to {total * 100:g}%")
            return DecisionTreeNode.leaf(
                ClassDistribution(tuple(classes), tuple(w / total for w in weights))
            )
        raise ValueError(f"malformed tree node: {node}")

    return build(doc["tree"] if "tree" in doc else doc), classes


def tree_to_rules(tree, schema):
    """Path extraction: each root-to-leaf path becomes one rule; a path may
    test the same attribute repeatedly, so only binding bounds are kept."""
    rules = []

    def walk(node, conds):
        if node.is_leaf:
            rules.append(Rule(_tighten(conds), node.outcome))
            return
        walk(node.left, conds + [(node.attribute, "<", node.threshold)])
        walk(node.right, conds + [(node.attribute, ">=", node.threshold)])

    walk(tree, [])
    return RuleSet(tuple(rules))


def _tighten(conditions):
    """Keep only the binding bound per attribute and side."""
    lo, hi, order = {}, {}, []
    for attr, op, v in conditions:
        if attr not in order:
            order.append(attr)
        if op in UPPER_OPS:
            if attr not in hi or v < hi[attr][1]:
                hi[attr] = (op, v)
        else:
            if attr not in lo or v > lo[attr][1]:
                lo[attr] = (op, v)
    conds = []
    for attr in order:
        if attr in lo:
            conds.append((attr, lo[attr][0], lo[attr][1]))
        if attr in hi:
            conds.append((attr, hi[attr][0], hi[attr][1]))
    return tuple(conds)


def tree_to_space(tree, schema, class_labels=None):
    """Convert a decision tree to a decision space; element count equals the
    leaf count and the elements partition the full domain."""
    return rules_to_space(tree_to_rules(tree, schema), schema, class_labels)
