import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from govlab.dynamics import RULE_3Z, RULE_5Z, Rule, even_step, odd_step
from govlab.genealogy import (
    AncestorEntry,
    ancestor_tree,
    condition_equation_sides,
    even_ancestor,
    odd_ancestors,
    solve_ancestor_conditions,
)
from govlab.numerics import governor_index, v2

odd_values = st.integers(min_value=0, max_value=(1 << 64) - 1).map(lambda n: 2 * n + 1)
rules = st.sampled_from([RULE_3Z, RULE_5Z])


class TestEvenAncestor:
    def test_examples(self):
        assert even_ancestor(1, 2) == 4
        assert even_ancestor(13, 1) == 26

    def test_zero_doublings_rejected(self):
        with pytest.raises(ValueError):
            even_ancestor(5, 0)


class TestOddAncestors:
    def test_examples(self):
        assert odd_ancestors(1, RULE_3Z, 8) == [
            AncestorEntry(2, 1),
            AncestorEntry(4, 5),
            AncestorEntry(6, 21),
            AncestorEntry(8, 85),
        ]
        assert odd_ancestors(13, RULE_5Z, 4) == [AncestorEntry(1, 5)]
        assert odd_ancestors(7, RULE_3Z, 4) == [AncestorEntry(2, 9), AncestorEntry(4, 37)]

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            odd_ancestors(6, RULE_3Z, 4)

    @given(odd_values, rules, st.integers(min_value=1, max_value=24))
    @settings(max_examples=200)
    def test_preimage_soundness(self, x, rule, max_doublings):
        # replaying one odd step then i even steps must land exactly on x
        for i, a in odd_ancestors(x, rule, max_doublings):
            cur = odd_step(a, rule)
            for _ in range(i):
                cur = even_step(cur)
            assert cur == x

    @given(odd_values, rules, st.integers(min_value=1, max_value=24))
    @settings(max_examples=200)
    def test_completeness_against_modular_route(self, x, rule, max_doublings):
        # independent reimplementation: an ancestor at i doublings exists
        # exactly when 2^i * x is 1 modulo q, and then equals the quotient
        q = rule.multiplier
        expected = []
        for i in range(1, max_doublings + 1):
            if (pow(2, i, q) * x - 1) % q == 0:
                a = ((1 << i) * x - 1) // q
                if a % 2 == 1:
                    expected.append(AncestorEntry(i, a))
        assert odd_ancestors(x, rule, max_doublings) == expected


class TestAncestorTree:
    def test_depth_two_from_one(self):
        tree = ancestor_tree(1, RULE_3Z, 2, 8)
        assert {c.value for c in tree.children} == {1, 5, 21, 85}
        grandchildren = {gc.value for c in tree.children for gc in c.children}
        assert {3, 13} <= grandchildren

    def test_single_child(self):
        tree = ancestor_tree(13, RULE_5Z, 1, 4)
        assert len(tree.children) == 1
        child = tree.children[0]
        assert child.value == 5
        assert child.governor_index == 1
        assert child.trivial_governor is True

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            ancestor_tree(13, RULE_5Z, 0, 4)

    def test_multiple_of_three_is_a_leaf(self):
        # values divisible by q have no odd ancestors
        tree = ancestor_tree(21, RULE_3Z, 3, 16)
        assert tree.children == ()

    def test_chain_deeper_than_the_recursion_limit(self):
        # walked with a loop: == and repr of so deep a tree recurse
        node = ancestor_tree(1, RULE_3Z, 3000, 2)
        length = 1
        while node.children:
            assert len(node.children) == 1
            assert (node.value, node.governor_index, node.trivial_governor) == (1, 1, True)
            node = node.children[0]
            length += 1
        assert (length, node.value) == (3001, 1)

    @given(odd_values, rules, st.integers(min_value=1, max_value=3))
    @settings(max_examples=60)
    def test_annotations(self, x, rule, depth):
        def walk(node):
            assert node.governor_index == governor_index(node.value)
            assert node.trivial_governor == (node.governor_index in rule.trivial_indices)
            for child in node.children:
                walk(child)

        walk(ancestor_tree(x, rule, depth, 8))


class TestConditionSolver:
    def test_3z_solution_set(self):
        sols = solve_ancestor_conditions(RULE_3Z, 64, 64)
        assert [(s.term_count, s.mu, s.i) for s in sols] == [(1, 1, 2)]

    def test_5z_solution_set(self):
        sols = solve_ancestor_conditions(RULE_5Z, 64, 64)
        assert [(s.term_count, s.mu, s.i) for s in sols] == [(1, 2, 4), (2, 1, 1)]

    def test_no_three_term_solutions(self):
        for rule in (RULE_3Z, RULE_5Z):
            sols = solve_ancestor_conditions(rule, 64, 64)
            assert [s for s in sols if s.term_count == 3] == []

    def test_solutions_satisfy_equations_exactly(self):
        for rule in (RULE_3Z, RULE_5Z):
            for sol in solve_ancestor_conditions(rule, 64, 64):
                lhs, rhs = condition_equation_sides(rule, sol)
                assert lhs == rhs

    @pytest.mark.parametrize("rule", [RULE_3Z, RULE_5Z])
    @pytest.mark.parametrize("mu_max, i_max", [(1, 1), (2, 3), (2, 4), (5, 2), (12, 12)])
    def test_matches_literal_grid(self, rule, mu_max, i_max):
        grid = sorted(
            (terms, mu, i)
            for terms, odd_part in ((1, 1), (2, 3), (3, 7))
            for mu in range(1, mu_max + 1)
            for i in range(1, i_max + 1)
            if rule.multiplier * ((1 << mu) - 1) + 1 == odd_part << i
        )
        found = solve_ancestor_conditions(rule, mu_max, i_max)
        assert [(s.term_count, s.mu, s.i) for s in found] == grid

    def test_i_max_edge(self):
        # 5Z+1 at mu=2: 5*3 + 1 = 2^4, so the solution needs i_max >= 4
        found = solve_ancestor_conditions(RULE_5Z, 2, 4)
        assert [(s.term_count, s.mu, s.i) for s in found] == [(1, 2, 4), (2, 1, 1)]
        found = solve_ancestor_conditions(RULE_5Z, 2, 3)
        assert [(s.term_count, s.mu, s.i) for s in found] == [(2, 1, 1)]

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            solve_ancestor_conditions(RULE_3Z, 0, 4)

    @pytest.mark.parametrize("rule", [RULE_3Z, RULE_5Z] + [
        Rule((1 << k) - 1, (1,) + tuple(1 << j for j in range(k, 0, -1))) for k in range(3, 9)
    ])
    def test_bounded_search_equals_the_full_loop(self, rule):
        # every mu up to mu_max, as the solver looped before its bound
        full = []
        for mu in range(1, 201):
            lhs = rule.multiplier * ((1 << mu) - 1) + 1
            i = v2(lhs)
            terms = {1: 1, 3: 2, 7: 3}.get(lhs >> i)
            if terms is not None and i <= 200:
                full.append((terms, mu, i))
        for mu_max in (1, 2, 3, 7, 64, 200):
            found = solve_ancestor_conditions(rule, mu_max, 200)
            assert [(s.term_count, s.mu, s.i) for s in found] == sorted(
                sol for sol in full if sol[1] <= mu_max
            )

    def test_no_solution_past_the_bound(self):
        # the docstring's argument, checked over multipliers that no Rule
        # here has: the odd part of q*(2^mu - 1) + 1 is never 1, 3 or 7 once
        # mu > max(v2(q - 1), 2)
        for q in range(3, 1024, 2):
            for mu in range(max(v2(q - 1), 2) + 1, 160):
                lhs = q * ((1 << mu) - 1) + 1
                assert lhs >> v2(lhs) not in (1, 3, 7), (q, mu)

    def test_huge_mu_max_returns_at_once(self):
        # before the bound, this loop ran past 10**30 values of mu
        sols = solve_ancestor_conditions(RULE_5Z, 10**30, 10**30)
        assert [(s.term_count, s.mu, s.i) for s in sols] == [(1, 2, 4), (2, 1, 1)]
