"""Randomized verification of the algebraic laws of the merge and
restriction operators, plus a report on the claimed properties of the
composite operators.

Proven laws (commutativity, identity, idempotence of merge; idempotence,
associativity, and the full-domain identity family of restriction; the
streaming/m-ary equivalence) are hard checks: a single failure is a bug.
The composite-operator claims are exercised and *reported*, with a
serialized counterexample whenever a claim fails on randomized inputs.
Each trial draws a schema of 1-4 attributes on [0, 8] and its spaces from
``sampling.random_space``, so faces of different spaces meet.
"""

from dataclasses import asdict, dataclass, field
from functools import reduce

import numpy as np

from .geometry import Region
from .model import (
    AttributeSchema,
    ClassDistribution,
    DecisionSpace,
    Element,
    semantically_equal,
    space_to_json,
)
from .operators import (
    merge,
    merge_nary,
    merge_streaming,
    op_barodot,
    op_plus,
    restrict,
    subsumes,
)
from .sampling import DEFAULT_SCHEMA, random_space

LAW_TOL = 1e-9


@dataclass
class LawResult:
    name: str
    kind: str  # "proven" or "reported"
    passed: bool
    trials: int
    detail: str = ""
    counterexample: dict = field(default=None)


def nonassociativity_witness(schema=DEFAULT_SCHEMA):
    """Three mutually overlapping single-element spaces for which the two
    merge orders agree on covered regions but not on values."""
    labels = ("Yes", "No")

    def single(lo, hi, weights):
        region = Region.from_box((lo, hi, True, False), (0.0, 6.0, True, False))
        return DecisionSpace(
            schema, labels, (Element(region, ClassDistribution(labels, weights)),)
        )

    x = single(0.0, 6.0, (1.0, 0.0))
    y = single(2.0, 8.0, (0.0, 1.0))
    z = single(4.0, 8.0, (1.0, 0.0))
    return x, y, z


def _counterexample(**spaces):
    return {name: space_to_json(sp) for name, sp in spaces.items()}


def _random_schema(rng):
    """A schema of 1-4 attributes, each on [0, 8]."""
    return AttributeSchema([(f"a{k}", 0.0, 8.0) for k in range(int(rng.integers(1, 5)))])


def _run_pair_law(name, kind, rng, trials, check, nspaces=2, **genkw):
    """``check`` on ``nspaces`` random spaces per trial; ``nspaces`` may be
    a ``(low, high)`` range to draw the count from, ``high`` excluded."""
    for t in range(trials):
        schema = _random_schema(rng)
        n = nspaces if isinstance(nspaces, int) else int(rng.integers(*nspaces))
        spaces = [random_space(rng, schema, **genkw) for _ in range(n)]
        ok, detail = check(*spaces)
        if not ok:
            return LawResult(
                name, kind, False, t + 1, detail,
                _counterexample(**{f"space_{i}": s for i, s in enumerate(spaces)}),
            )
    return LawResult(name, kind, True, trials)


def run_all(trials=1000, seed=0):
    """Run every law check; returns a list of LawResult."""
    rng = np.random.default_rng(seed)
    results = []

    def eq(a, b):
        return semantically_equal(a, b, LAW_TOL)

    results.append(_run_pair_law(
        "merge_commutative", "proven", rng, trials,
        lambda x, y: (eq(merge(x, y), merge(y, x)), "X*Y != Y*X"),
    ))

    def identity_check(x):
        empty = DecisionSpace.empty(x.schema, x.class_labels)
        ok = eq(merge(x, empty), x) and eq(merge(empty, x), x)
        return ok, "merge with the empty space changed X"

    results.append(_run_pair_law(
        "merge_identity", "proven", rng, trials, identity_check, nspaces=1,
    ))
    results.append(_run_pair_law(
        "merge_idempotent", "proven", rng, trials,
        lambda x: (eq(merge(x, x), x), "X*X != X"), nspaces=1,
    ))
    results.append(_run_pair_law(
        "restrict_idempotent", "proven", rng, trials,
        lambda x: (eq(restrict(x, x), x), "X(.)X != X"), nspaces=1,
    ))
    results.append(_run_pair_law(
        "restrict_associative", "proven", rng, trials,
        lambda x, y, z: (
            eq(restrict(restrict(x, y), z), restrict(x, restrict(y, z))),
            "restriction is order-sensitive",
        ),
        nspaces=3, coverage=0.7,
    ))

    def restrict_identity_check(x):
        for weights in ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5)):
            full = DecisionSpace(
                x.schema, x.class_labels,
                (Element(x.schema.full_region(),
                         ClassDistribution(x.class_labels, weights)),),
            )
            if not eq(restrict(x, full), x):
                return False, f"full-domain element with value {weights} restricted X"
        return True, ""

    results.append(_run_pair_law(
        "restrict_identity_family", "proven", rng, trials,
        restrict_identity_check, nspaces=1, coverage=0.7,
    ))

    def streaming_check(*spaces):
        return (eq(reduce(merge_streaming, spaces), merge_nary(spaces)),
                "streaming fold != m-ary merge")

    results.append(_run_pair_law(
        "streaming_equals_nary", "proven", rng, max(1, trials // 10),
        streaming_check, nspaces=(3, 7), coverage=0.6,
    ))

    def subsumption_unique(x, y):
        for e in y.elements:
            holders = [f for f in x.elements if subsumes(f, e)]
            if len(holders) > 1:
                return False, "element subsumed by two partition members"
        return True, ""

    results.append(_run_pair_law(
        "subsumption_uniqueness", "proven", rng, trials,
        subsumption_unique,
    ))

    # Non-associativity of merge: the built-in witness must separate the
    # two orders on values while covering the same region.
    wx, wy, wz = nonassociativity_witness()
    left = merge(merge(wx, wy), wz)
    right = merge(wx, merge(wy, wz))
    regions_equal = (
        (left.covered_region() - right.covered_region()).is_empty
        and (right.covered_region() - left.covered_region()).is_empty
    )
    values_differ = not semantically_equal(left, right, 1e-6)
    results.append(LawResult(
        "merge_nonassociative_witness", "proven",
        regions_equal and values_differ, 1,
        "" if regions_equal and values_differ
        else "witness failed to separate the merge orders",
    ))

    # Composite operators: idempotence is expected to hold; the remaining
    # claims are probed and reported, not required.
    results.append(_run_pair_law(
        "plus_idempotent", "reported", rng, trials,
        lambda x: (eq(op_plus(x, x), x), "X(+)X != X"), nspaces=1,
    ))
    results.append(_run_pair_law(
        "barodot_idempotent", "reported", rng, trials,
        lambda x: (eq(op_barodot(x, x), x), "X(o)X != X"), nspaces=1,
    ))
    results.append(_run_pair_law(
        "plus_commutative", "reported", rng, trials,
        lambda x, y: (eq(op_plus(x, y), op_plus(y, x)),
                      "found ordering that changes X(+)Y"),
        coverage=0.7,
    ))
    results.append(_run_pair_law(
        "barodot_commutative", "reported", rng, trials,
        lambda x, y: (eq(op_barodot(x, y), op_barodot(y, x)),
                      "found ordering that changes X(o)Y"),
        coverage=0.7,
    ))
    results.append(_run_pair_law(
        "plus_associative", "reported", rng, max(1, trials // 10),
        lambda x, y, z: (
            eq(op_plus(op_plus(x, y), z), op_plus(x, op_plus(y, z))),
            "composite merge-then-restrict is order-sensitive",
        ),
        nspaces=3, coverage=0.7,
    ))
    results.append(_run_pair_law(
        "barodot_associative", "reported", rng, max(1, trials // 10),
        lambda x, y, z: (
            eq(op_barodot(op_barodot(x, y), z), op_barodot(x, op_barodot(y, z))),
            "restricted merge is order-sensitive",
        ),
        nspaces=3, coverage=0.7,
    ))
    return results


def report(results, seed, trials):
    """Machine-readable report document."""
    return {
        "seed": seed,
        "trials": trials,
        "laws": [asdict(r) for r in results],
        "proven_all_passed": all(r.passed for r in results if r.kind == "proven"),
    }
