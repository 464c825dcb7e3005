"""Brute-force search, cutset enumeration, the result cache, and the
three-way agreement between search, deadline feasibility and canonical
strategies on a random corpus.

Claims covered:
    - the search reproduces the known small verdicts and its witness
      schedules replay to containment
    - restricted and strict candidate enumeration agree on small trees
    - cutset enumeration yields each antichain cutset exactly once with
      the hand-counted totals, and its minimum weight equals the recursion
    - the brute-force / feasibility / canonical triangle closes on a
      corpus of random trees times a budget catalogue
    - decisions round-trip through the plain-text cache
"""

import random
from fractions import Fraction

import pytest

import firebreak.oracle
from firebreak import (
    BudgetSequence,
    Cutset,
    OracleCache,
    ResourceLimitError,
    ScheduleStrategy,
    brute_force_containment,
    CanonicalStrategy,
    cut_weight,
    expand,
    feasibility_check,
    min_cut_weight,
    oracle_key,
    run_game,
    simulate,
)
from firebreak.trees import ExplicitSpec, format_tree_spec
from conftest import (binary_spec, budget_catalogue, enumerate_cutsets, is_antichain,
                      random_explicit_tree, ray_spec)


def ball_ids(trunc, k):
    return [v for v in range(trunc.n_vertices) if trunc.level[v] <= k]


def exists_containing_canonical(trunc, k, budget) -> bool:
    """Search canonical strategies over antichain cutsets above the ball.
    Supersets of a cut only delay its protection, so cuts are enough."""
    for edges in enumerate_cutsets(trunc):
        if any(trunc.level[v] <= k for v in edges):
            continue
        verdict = simulate(trunc, k, CanonicalStrategy(edges), budget)
        if verdict.contained:
            return True
    return False


class TestBruteForce:
    def test_ray_one_guard(self):
        t = expand(ray_spec(), 5)
        d = brute_force_containment(t, [0], BudgetSequence.constant(1))
        assert d.feasible
        assert d.schedule == ((1,),)

    def test_binary_depth5_one_guard_loses(self, monkeypatch):
        monkeypatch.setattr(firebreak.oracle, "DEFAULT_FREE_CAP", 70)
        t = expand(binary_spec(), 5)
        d = brute_force_containment(t, [0], BudgetSequence.constant(1))
        assert not d.feasible

    def test_binary_depth4_two_guards_win(self, monkeypatch):
        monkeypatch.setattr(firebreak.oracle, "DEFAULT_FREE_CAP", 70)
        t = expand(binary_spec(), 4)
        d = brute_force_containment(t, [0], BudgetSequence.constant(2))
        assert d.feasible
        assert d.schedule[0] == (1, 2)

    def test_witness_replays_to_containment(self):
        rng = random.Random(41)
        found = 0
        while found < 10:
            spec = random_explicit_tree(rng, max_vertices=12)
            t = expand(spec, spec.height() or 1)
            budget = rng.choice(budget_catalogue())
            d = brute_force_containment(t, [0], budget)
            if not d.feasible:
                continue
            verdict = run_game(t, [0], ScheduleStrategy(d.schedule_map()), budget)
            assert verdict.contained
            found += 1

    def test_fire_on_boundary_is_lost(self):
        t = expand(ray_spec(), 2)
        d = brute_force_containment(t, [0, 1, 2], BudgetSequence.constant(9))
        assert not d.feasible

    def test_size_cap(self):
        t = expand(binary_spec(), 6)
        with pytest.raises(ResourceLimitError):
            brute_force_containment(t, [0], BudgetSequence.constant(1))

    def test_restricted_equals_strict_on_small_trees(self):
        rng = random.Random(43)
        checked = 0
        while checked < 25:
            spec = random_explicit_tree(rng, max_vertices=9)
            if spec.height() < 1:
                continue
            t = expand(spec, spec.height())
            budget = rng.choice(budget_catalogue())
            fast = brute_force_containment(t, [0], budget, restrict=True)
            slow = brute_force_containment(t, [0], budget, restrict=False)
            assert fast.feasible == slow.feasible
            checked += 1


class TestEnumerateCutsets:
    def test_ray_three(self):
        assert len(list(enumerate_cutsets(expand(ray_spec(), 3)))) == 3

    def test_binary_depth2_four(self):
        # per level-1 subtree: its top edge or both bottom edges
        cuts = list(enumerate_cutsets(expand(binary_spec(), 2)))
        assert len(cuts) == 4
        assert len(set(cuts)) == 4

    def test_single_edge(self):
        assert len(list(enumerate_cutsets(expand(ExplicitSpec(parents=(0,)), 1)))) == 1

    def test_binary_depth3_twentyfive(self):
        # each level-1 subtree has 1 + 2*2 options; 5 * 5 overall
        cuts = list(enumerate_cutsets(expand(binary_spec(), 3)))
        assert len(cuts) == len(set(cuts)) == 25

    def test_all_separate_and_are_antichains(self):
        t = expand(binary_spec(), 3)
        for edges in enumerate_cutsets(t):
            c = Cutset(edges=edges)
            assert c.separates(t)
            assert is_antichain(c, t)

    def test_minimum_matches_recursion(self):
        rng = random.Random(47)
        for _ in range(15):
            spec = random_explicit_tree(rng, max_vertices=14)
            depth = max(spec.height(), 1)
            t = expand(spec, depth)
            rate = rng.choice([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)])
            cuts = list(enumerate_cutsets(t, max_edges=17))
            best = min(
                (cut_weight(t, Cutset(edges=c), rate) for c in cuts if c),
                default=Fraction(0),
            )
            if any(not c for c in cuts):
                best = Fraction(0)
            assert best == min_cut_weight(t, rate)

    def test_edge_cap(self):
        with pytest.raises(ResourceLimitError):
            list(enumerate_cutsets(expand(binary_spec(), 5)))


class TestTriangle:
    """Containment exists iff a deadline cut exists iff some canonical cut
    strategy contains (checked on random small instances; the acceptance
    suite runs the full-size corpus)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_three_way_agreement(self, seed):
        rng = random.Random(500 + seed)
        checked = 0
        while checked < 12:
            spec = random_explicit_tree(rng, max_vertices=13)
            k = rng.choice([0, 1])
            depth = spec.height()
            if depth <= k:
                continue
            t = expand(spec, depth)
            if t.n_vertices - len(ball_ids(t, k)) > 10:
                continue
            budget = rng.choice(budget_catalogue())
            brute = brute_force_containment(t, ball_ids(t, k), budget).feasible
            feas = feasibility_check(spec, k, budget, depth).feasible
            canon = exists_containing_canonical(t, k, budget)
            assert brute == feas == canon, (spec, k, budget.describe())
            checked += 1


class TestCache:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "oracle.cache"
        cache = OracleCache(str(path))
        t = expand(ray_spec(), 4)
        budget = BudgetSequence.constant(1)
        key = oracle_key(format_tree_spec(ray_spec()), [0], budget, None, True)
        assert cache.get(key) is None
        decision = brute_force_containment(t, [0], budget)
        cache.put(key, decision)
        again = OracleCache(str(path))
        assert again.get(key) == decision

    def test_infeasible_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(firebreak.oracle, "DEFAULT_FREE_CAP", 70)
        path = tmp_path / "oracle.cache"
        cache = OracleCache(str(path))
        t = expand(binary_spec(), 5)
        budget = BudgetSequence.constant(1)
        decision = brute_force_containment(t, [0], budget)
        cache.put("somekey", decision)
        assert OracleCache(str(path)).get("somekey") == decision

    def test_distinct_keys(self):
        spec_text = format_tree_spec(ray_spec())
        k1 = oracle_key(spec_text, [0], BudgetSequence.constant(1), None, True)
        k2 = oracle_key(spec_text, [0], BudgetSequence.constant(2), None, True)
        k3 = oracle_key(spec_text, [0], BudgetSequence.constant(1), None, False)
        assert len({k1, k2, k3}) == 3
