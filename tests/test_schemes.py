import json

import pytest

from decspace import (
    ClassDistribution,
    DecisionSpace,
    Element,
    MergeScheme,
    build_balanced,
    build_chain,
    build_factored,
    execute,
    impacts,
    merge,
    semantically_equal,
)
from decspace.sampling import DEFAULT_SCHEMA, random_space


def probe_spaces(m, schema=DEFAULT_SCHEMA):
    """m identical full-domain one-hot spaces over m classes: the value of
    their combination reads off each model's impact directly."""
    labels = tuple(f"c{i}" for i in range(m))
    return [
        DecisionSpace(schema, labels, (Element(
            schema.full_region(),
            ClassDistribution.one_hot(labels, labels[i]),
        ),))
        for i in range(m)
    ]


class TestConstruction:
    def test_leaves_must_be_a_permutation(self):
        with pytest.raises(ValueError):
            MergeScheme([[0, 1], [1, 2]])
        with pytest.raises(ValueError):
            MergeScheme([[0, 1], [3, 4]])

    def test_internal_nodes_need_two_children(self):
        with pytest.raises(ValueError):
            MergeScheme([[0], 1])

    @pytest.mark.parametrize("root", ["x", {"a": 1}, [0, 1.5], [0, True]])
    def test_nodes_must_be_indices_or_lists(self, root):
        with pytest.raises(ValueError, match="model index or a list"):
            MergeScheme(root)

    def test_json_round_trip(self):
        scheme = MergeScheme([[0, 1], [2, [3, 4]]])
        again = MergeScheme.from_json(scheme.to_json())
        assert again == scheme
        assert json.loads(scheme.to_json()) == [[0, 1], [2, [3, 4]]]

    def test_num_leaves(self):
        assert MergeScheme(0).num_leaves == 1
        assert MergeScheme([[0, 1], [2, 3]]).num_leaves == 4


class TestBuilders:
    def test_chain_is_left_deep(self):
        assert build_chain(4).root == (((0, 1), 2), 3)

    def test_chain_of_two_equals_balanced(self):
        assert build_chain(2) == build_balanced(2)

    @pytest.mark.parametrize("k", range(8))
    def test_balanced_pairs_neighbours_level_by_level(self, k):
        level = list(range(2 ** k))
        while len(level) > 1:
            level = [(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        assert build_balanced(2 ** k).root == level[0]

    def test_balanced_requires_power_of_two(self):
        with pytest.raises(ValueError):
            build_balanced(6)

    def test_factored_requires_arities_of_two_or_more(self):
        with pytest.raises(ValueError):
            build_factored([])
        with pytest.raises(ValueError):
            build_factored([3, 1])


class TestImpacts:
    def test_balanced_eight(self):
        got = impacts(build_balanced(8))
        assert got == pytest.approx((0.125,) * 8)

    def test_chain_six(self):
        got = impacts(build_chain(6))
        assert got == pytest.approx(
            (2 ** -5, 2 ** -5, 2 ** -4, 2 ** -3, 2 ** -2, 2 ** -1)
        )

    def test_chain_five(self):
        assert impacts(build_chain(5)) == pytest.approx(
            (2 ** -4, 2 ** -4, 2 ** -3, 2 ** -2, 2 ** -1)
        )

    def test_factored_three_two_two(self):
        got = impacts(build_factored([3, 2, 2]))
        assert len(got) == 12
        assert got == pytest.approx((1.0 / 12.0,) * 12)

    def test_single_leaf(self):
        assert impacts(MergeScheme(0)) == (1.0,)

    def test_impacts_sum_to_one(self):
        for scheme in (build_chain(7), build_balanced(16),
                       build_factored([2, 3]), MergeScheme([[0, 1, 2], 3])):
            assert sum(impacts(scheme)) == pytest.approx(1.0, abs=1e-9)


class TestExecute:
    def test_single_leaf_returns_space(self, rng):
        x = random_space(rng)
        assert execute(MergeScheme(0), [x]) is x

    def test_linear_probe_reproduces_impacts(self):
        for scheme in (
            build_balanced(4),
            build_chain(5),
            build_factored([3, 2]),
            MergeScheme([[0, 1, 2], [3, 4]]),
        ):
            m = scheme.num_leaves
            combined = execute(scheme, probe_spaces(m))
            assert len(combined.elements) == 1
            got = combined.elements[0].value.weights
            assert got == pytest.approx(impacts(scheme), abs=1e-9)

    def test_chain_equals_left_fold(self, rng):
        spaces = [random_space(rng) for _ in range(4)]
        folded = spaces[0]
        for sp in spaces[1:]:
            folded = merge(folded, sp)
        assert semantically_equal(execute(build_chain(4), spaces), folded)

    def test_deep_chain(self, rng):
        # far deeper than the interpreter's recursion limit
        scheme = build_chain(5000)
        assert scheme.num_leaves == 5000
        weights = impacts(scheme)
        assert weights[-1] == 0.5 and weights[1] == weights[0]
        assert sum(weights) == pytest.approx(1.0)
        # full-domain spaces, so each model's share is its impact
        spaces = [random_space(rng, max_elements=1) for _ in range(5000)]
        (got,) = execute(scheme, spaces).elements
        expected = sum(w * sp.elements[0].value.weights[0] for w, sp in zip(weights, spaces))
        assert got.value.weights[0] == pytest.approx(expected, abs=1e-9)

    def test_too_few_spaces(self, rng):
        with pytest.raises(IndexError):
            execute(build_chain(3), [random_space(rng)])
