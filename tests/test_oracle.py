"""Brute-force search, cutset enumeration, the result cache, and the
three-way agreement between search, deadline feasibility and canonical
strategies on a random corpus.

Claims covered:
    - the search reproduces the known small verdicts and its witness
      schedules replay to containment
    - restricted and strict candidate enumeration agree on small trees
    - a fire id out of range is refused, naming it, before the free-vertex
      cap is checked
    - decisions and witnesses equal those of a memo-free exhaustive search
      (tests/game_reference.py) on random small instances
    - only a strict search revisits a status vector, seen on the states
      that step returns, so only it keeps a memo: a restricted one never
      does on random trees, fires and horizons, deciding as the memo-free
      reference, and a strict one on a hand-made tree does
    - cutset enumeration yields each antichain cutset exactly once with
      the hand-counted totals, and its minimum weight equals the recursion
    - the brute-force / feasibility / canonical triangle closes on a
      corpus of random trees times a budget catalogue
    - decisions round-trip through the plain-text cache, each line written
      as the schedule text, empty rounds and no rounds included
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

import firebreak.oracle
from firebreak import (
    BudgetSequence,
    Cutset,
    OracleCache,
    ResourceLimitError,
    ScheduleStrategy,
    SpecError,
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
from firebreak.oracle import OracleDecision
from firebreak.trees import ExplicitSpec, format_tree_spec
from conftest import (binary_spec, budget_catalogue, enumerate_cutsets, height, is_antichain,
                      random_explicit_tree, ray_spec, vertex_levels)
import game_reference


def ball_ids(trunc, k):
    return [v for v, lv in enumerate(vertex_levels(trunc)) if lv <= k]


def exists_containing_canonical(trunc, k, budget) -> bool:
    """Search canonical strategies over antichain cutsets above the ball.
    Supersets of a cut only delay its protection, so cuts are enough."""
    level = vertex_levels(trunc)
    for edges in enumerate_cutsets(trunc):
        if any(level[v] <= k for v in edges):
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
        # restricted and strict, fires on and off the root, truncations at
        # and past the tree's height, with and without a horizon: every
        # witness replays to containment within the horizon
        rng = random.Random(41)
        found = Counter()
        for _ in range(400):
            spec = random_explicit_tree(rng, max_vertices=rng.randint(3, 12))
            t = expand(spec, height(spec) + rng.choice((0, 0, 1, 2)))
            off_root = rng.random() < 0.5
            fire = rng.sample(range(1, t.n_vertices), min(2, t.n_vertices - 1)) if off_root else [0]
            horizon = rng.choice((None, 1, 2, 3))
            restrict = rng.random() < 0.5
            budget = rng.choice(budget_catalogue())
            d = brute_force_containment(t, fire, budget, horizon, restrict)
            if not d.feasible:
                continue
            strategy = ScheduleStrategy(dict(enumerate(d.schedule, 1)))
            verdict = run_game(t, fire, strategy, budget, horizon)
            assert verdict.contained, (spec, t.depth, fire, horizon, restrict, budget.describe())
            found.update(["restricted" if restrict else "strict",
                          "off root" if off_root else "root",
                          "past height" if t.depth > height(spec) else "at height",
                          "no horizon" if horizon is None else "horizon"])
        assert len(found) == 8 and min(found.values()) >= 20, found

    def test_matches_memo_free_reference(self):
        # the memo keyed on the statuses alone changes no decision and no
        # witness: restricted and strict search, fires on and off the root,
        # horizons None and 1-3, budgets that are eventually constant and
        # budgets that never are
        rng = random.Random(53)
        budgets = [BudgetSequence.parse(text) for text in
                   ("const:1", "const:2", "list:2,0", "list:0,2,1", "exp:3/2", "poly:1,1")]
        found = Counter()
        for _ in range(300):
            restrict = rng.random() < 0.5
            spec = random_explicit_tree(rng, max_vertices=rng.randint(3, 13 if restrict else 9))
            t = expand(spec, height(spec) + rng.choice((0, 1)))
            off_root = rng.random() < 0.5
            fire = rng.sample(range(1, t.n_vertices), min(2, t.n_vertices - 1)) if off_root else [0]
            horizon = rng.choice((None, 1, 2, 3))
            budget = rng.choice(budgets)
            d = brute_force_containment(t, fire, budget, horizon, restrict)
            want = game_reference.brute_force_containment(t, fire, budget, horizon, restrict)
            assert (d.feasible, d.schedule) == (want is not None, want), (
                spec, t.depth, fire, horizon, restrict, budget.describe())
            found.update(["feasible" if d.feasible else "infeasible",
                          "restricted" if restrict else "strict",
                          "off root" if off_root else "root",
                          "no horizon" if horizon is None else "horizon",
                          budget.describe()])
        assert len(found) == 14 and min(found.values()) >= 20, found
        # protecting 0 or 1 in round 1 burns the same vertices: a memo blind
        # to the protected statuses skips the first witness and finds ((4,),)
        t = expand(ExplicitSpec(parents=(0, 0, 0, 1, 3, 4, 4)), 5)
        budget = BudgetSequence.parse("list:1")
        d = brute_force_containment(t, [6], budget, 2, restrict=False)
        want = game_reference.brute_force_containment(t, [6], budget, 2, restrict=False)
        assert d.schedule == want == ((1,), (7,))

    def test_only_a_strict_search_hits_the_memo(self, monkeypatch):
        # the status vectors of the states step returns, which the search
        # plays on: a strict search meets some of them again (101 states, 68
        # distinct, with its memo), a restricted one never does, so only a
        # strict search needs the memo
        seen = []
        real = firebreak.oracle.step
        spy = lambda *args: seen.append(bytes((child := real(*args)).statuses)) or child
        monkeypatch.setattr(firebreak.oracle, "step", spy)
        t = expand(ExplicitSpec(parents=(0, 1, 0, 1, 3, 5, 6, 5, 6, 8, 8)), 4)
        budget = BudgetSequence.parse("const:1")
        d = brute_force_containment(t, [0], budget, restrict=False)
        assert (len(seen), len(set(seen))) == (101, 68)
        want = game_reference.brute_force_containment(t, [0], budget, restrict=False)
        assert (d.feasible, d.schedule) == (True, want) == (True, ((1,), (5,)))
        rng = random.Random(61)
        for _ in range(300):
            spec = random_explicit_tree(rng, max_vertices=rng.randint(3, 13))
            t = expand(spec, height(spec) + rng.choice((0, 1)))
            off_root = rng.random() < 0.5
            fire = rng.sample(range(1, t.n_vertices), min(2, t.n_vertices - 1)) if off_root else [0]
            budget, horizon = rng.choice(budget_catalogue()), rng.choice((None, 1, 2, 3))
            seen.clear()
            d = brute_force_containment(t, fire, budget, horizon)
            assert len(seen) == len(set(seen)), (spec, fire)
            want = game_reference.brute_force_containment(t, fire, budget, horizon)
            assert (d.feasible, d.schedule) == (want is not None, want)

    def test_fire_on_boundary_is_lost(self):
        t = expand(ray_spec(), 2)
        d = brute_force_containment(t, [0, 1, 2], BudgetSequence.constant(9))
        assert not d.feasible

    def test_size_cap(self):
        t = expand(binary_spec(), 6)
        with pytest.raises(ResourceLimitError):
            brute_force_containment(t, [0], BudgetSequence.constant(1))

    def test_fire_out_of_range_is_refused_before_the_cap(self):
        t = expand(binary_spec(), 6)  # past the cap from a root fire
        with pytest.raises(SpecError, match="^initial fire vertex 500 out of range$"):
            brute_force_containment(t, [0, 500], BudgetSequence.constant(1))

    def test_restricted_equals_strict_on_small_trees(self):
        rng = random.Random(43)
        checked = 0
        while checked < 25:
            spec = random_explicit_tree(rng, max_vertices=9)
            if height(spec) < 1:
                continue
            t = expand(spec, height(spec))
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
            depth = max(height(spec), 1)
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
            depth = height(spec)
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
        key = oracle_key(format_tree_spec(ray_spec()), 4, [0], budget, None, True)
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

    @pytest.mark.parametrize("schedule, line", [
        ((), "k feasible -\n"), (((),), "k feasible 1:-\n"),
        (((3, 4), (), (7,)), "k feasible 1:3,4;2:-;3:7\n"), (None, "k infeasible\n"),
    ], ids=["no-rounds", "one-empty", "mixed", "infeasible"])
    def test_lines_read_back_as_written(self, schedule, line, tmp_path):
        path = tmp_path / "oracle.cache"
        decision = OracleDecision(feasible=schedule is not None, schedule=schedule)
        OracleCache(str(path)).put("k", decision)
        assert path.read_text() == line
        assert OracleCache(str(path)).get("k") == decision

    def test_distinct_keys(self):
        spec_text = format_tree_spec(ray_spec())
        k1 = oracle_key(spec_text, 4, [0], BudgetSequence.constant(1), None, True)
        k2 = oracle_key(spec_text, 4, [0], BudgetSequence.constant(2), None, True)
        k3 = oracle_key(spec_text, 4, [0], BudgetSequence.constant(1), None, False)
        k4 = oracle_key(spec_text, 5, [0], BudgetSequence.constant(1), None, True)
        assert len({k1, k2, k3, k4}) == 4
