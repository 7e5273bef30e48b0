"""Merging schemes: ordered trees of m-ary merge applications, their
execution, exact impact analysis, and the standard constructions.

A scheme is serialized as nested JSON arrays of leaf indices, e.g.
``[[0, 1], [2, 3]]`` for the balanced merge of four models.
"""

import json
from dataclasses import dataclass

from .operators import merge_nary


def _fold(root, leaf, internal):
    """Bottom-up evaluation of a nested scheme without recursion, so any
    depth works: ``leaf(node)`` for every node that is not a list or tuple,
    ``internal(results)`` for every other one, given its children's results
    in order.  Children are evaluated left to right, depth first."""
    stack, results = [(root, False)], []
    while stack:
        node, expanded = stack.pop()
        if not isinstance(node, (list, tuple)):
            results.append(leaf(node))
        elif expanded:
            start = len(results) - len(node)
            results[start:] = [internal(results[start:])]
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node))
    return results[0]


def _freeze(root):
    """``root`` with every list made a tuple, and its leaves in order.
    Raises ValueError on a node that is neither a model index nor a list,
    and on an internal node with fewer than two children."""
    leaves = []

    def leaf(node):
        if isinstance(node, int) and not isinstance(node, bool):
            leaves.append(node)
            return node
        raise ValueError(f"scheme node must be a model index or a list: {node!r}")

    def internal(children):
        if len(children) < 2:
            raise ValueError(
                f"internal scheme node must have >= 2 children: {tuple(children)!r}"
            )
        return tuple(children)

    return _fold(root, leaf, internal), leaves


@dataclass(frozen=True, repr=False, eq=False)
class MergeScheme:
    """Tree whose leaves are model indices and whose internal nodes are
    m-ary merge applications; every index appears exactly once.

    Representation, equality and hashing go through ``to_json``, so like
    every other method they work at any depth."""

    root: object

    def __post_init__(self):
        root, leaves = _freeze(self.root)
        object.__setattr__(self, "root", root)
        if sorted(leaves) != list(range(len(leaves))):
            raise ValueError(
                f"leaf indices must be a permutation of 0..{len(leaves) - 1}: "
                f"{sorted(leaves)}"
            )
        object.__setattr__(self, "num_leaves", len(leaves))

    @classmethod
    def from_json(cls, text):
        return cls(json.loads(text))

    def to_json(self):
        # json.dumps's output, built without one recursive call per level
        return _fold(self.root, str, lambda children: f"[{', '.join(children)}]")

    def __repr__(self):
        return f"MergeScheme({self.to_json()})"

    def __eq__(self, other):
        if not isinstance(other, MergeScheme):
            return NotImplemented
        return self.to_json() == other.to_json()

    def __hash__(self):
        return hash(self.to_json())


def execute(scheme, spaces):
    """Bottom-up evaluation: each internal node m-ary-merges its children's
    results."""
    if scheme.num_leaves > len(spaces):
        raise IndexError(
            f"scheme references {scheme.num_leaves} models, got {len(spaces)}"
        )
    return _fold(scheme.root, spaces.__getitem__, merge_nary)


def impacts(scheme):
    """Impact of each model on the final value: the product of reciprocal
    operand counts along its leaf-to-root path.  Sums to one.

    Exact when all models cover the same space with equal specializations;
    structural (nominal) otherwise.
    """
    out = [0.0] * scheme.num_leaves
    stack = [(scheme.root, 1.0)]
    while stack:
        node, weight = stack.pop()
        if isinstance(node, int):
            out[node] = weight
        else:
            stack.extend((child, weight / len(node)) for child in node)
    return tuple(out)


def build_chain(m):
    """Left-deep binary chain (((X1 x X2) x X3) ... x Xm): exponential decay
    in favour of later models."""
    if m < 1:
        raise ValueError("need at least one model")
    node = 0
    for i in range(1, m):
        node = (node, i)
    return MergeScheme(node)


def build_balanced(m):
    """Balanced binary tree over m = 2^k models: every impact is 2^-k."""
    if m < 1 or m & (m - 1):
        raise ValueError(f"balanced scheme needs a power-of-two model count, got {m}")
    return MergeScheme(0) if m == 1 else build_factored([2] * (m.bit_length() - 1))


def build_factored(factors):
    """Uniform tree with the given per-level arities; all impacts equal
    1 / product(factors)."""
    factors = list(factors)
    if not factors:
        raise ValueError("factors may not be empty")
    if any(f < 2 for f in factors):
        raise ValueError("every factor must be >= 2")

    def build(level, start, count):
        if level == len(factors):
            return start
        arity = factors[level]
        sub = count // arity
        return tuple(
            build(level + 1, start + i * sub, sub) for i in range(arity)
        )

    total = 1
    for f in factors:
        total *= f
    return MergeScheme(build(0, 0, total))
