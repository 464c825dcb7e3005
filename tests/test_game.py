"""Game engine, strategies, deadline feasibility and synthesis.

Claims covered:
    - budgets that only a float would call constant keep exact values, and
      prefix sums give the exact cumulative budgets
    - step applies protection before spread, rejects faults, keeps statuses
      monotone and disjoint, and leaves its input state alone; a chain of
      step calls hands each frontier on in the engine's form, so a
      1,024-id frontier that is not one run spreads by the gather every
      round and plays as the reference
    - the in-place engine plays as the copy-per-round reference
      (tests/game_reference.py) on random truncations and Cayley balls of
      every model: same traces, verdicts, faults and fault rounds, with
      over a hundred rounds spread from the level starts alone; also, with
      that level path off, with every id set, of balls and of truncations,
      forced into an int array (the gather and fancy-index paths), and with
      every one-run frontier forced to spread from one slice of the
      columns, or none;
      protect sets past SPREAD_VECTOR_MIN that mix negative, burning,
      out-of-ball and huge ids fail with the reference's fault, message and
      round, and a trace records each protect set once, sorted;
      rows built on demand: the first separated, neighbors and numpy-round
      reads of a fresh ball or tree, level-D rows included, build every row
      and agree with the reference
    - levels are distances: on random truncations and on balls of every
      completion group at radii 0-6, every row entry lies within one level
      of its row's vertex and every vertex but the root has one a level up;
      the level path spreads as the reference from a whole ball, from a run
      starting mid-level above its last level, and onto the arena's depth,
      new fires of every form, and leaves to the rows a run starting
      mid-level of its last level and one with an untouched id just
      before it, which the reference spreads back to, on its level (the
      same-level edges of balls with a C3 factor) or the one above
    - protect sets given as int32 or int64 arrays, of any size and with
      duplicates, negative, out-of-arena and burning ids, play as the same
      sets given as tuples, at the default SPREAD_VECTOR_MIN and at 1: equal
      verdicts and traces, the same faults, messages and rounds; tuple ids
      past int64 fail as the reference's do
    - a protect set that is one run of 1 to 3,000 ids, given as a list, a
      range or an array, fails with the reference's first burning id, first
      id past the arena or budget fault, and plays to its statuses, whether
      the run check takes it or (short runs) the loop does, as the same ids
      with a gap do through the gather and the loop paths
    - the id-set helper, branch by branch against the reference: check and
      mark by find-and-slice, fancy index and loop names the reference's
      first bad id or marks its statuses, and row entries by slice, gather
      and loop are the reference adjacency's, on tuples, ranges and int32
      and int64 arrays with repeats and bad ids
    - a fire id outside the arena is refused, naming it
    - simulate reproduces the hand-traced verdicts (ray, binary cut play)
      and never reports containment when the fire can reach the horizon;
      the boundary mask is built only by a game whose fire reaches the
      depth, not by a contained replay or a surround
    - the sorted-unique pass keeps a strictly increasing input as it is and
      sorts and deduplicates any other as np.unique does
    - canonical strategies pick closest-first with deterministic ties
    - feasibility matches hand arithmetic, is monotone in budgets, and the
      greedy on chain-ordered levels agrees with the count recursion; both
      agree with the Pareto profile program (tests/pareto_reference.py) on
      feasibility and witness profile, and every witness separates the
      root from the boundary within its deadlines; Fibonacci near its
      threshold keeps the profiles the count recursion found and decides
      at depth 40 at once
    - on Lyons and Peres's 3-1 tree (growth 2, branching number 1; a
      generator in tests/conftest.py, depth 16) exp:3/2 and const:3 first
      contain from k = 0..3 at the measured depths, and each witness plays
      through simulate to a contained verdict
    - synthesized cutset strategies stay within budget, play level n at
      round n - k, and contain; synthesis materialises only the truncation
      it returns, so a cut past the vertex cap fails at once
    - on seeded periodic and symmetric specs above br, synthesis stops at
      the shallowest depth whose reference min cut fits its rounds, never
      deeper than the first with a cut lighter than epsilon; the walk's
      per-level counts are the reference cut's at every depth, and the
      strategy replays through the reference engine to the same verdict
    - traces round-trip through the text format (golden file); malformed
      trace lines are rejected by line number; a trace with large rounds
      reads as Python ints, round-trips and replays, and one id apart in a
      large round makes two verdicts unequal; schedules round-trip through
      their ``r:ids;r:ids`` text, empty rounds and no rounds included
"""

import bisect
import math
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import accumulate, islice
from pathlib import Path

import numpy as np
import pytest

from firebreak import (
    BudgetSequence,
    CanonicalStrategy,
    Cutset,
    ResourceLimitError,
    ScheduleStrategy,
    SpecError,
    StrategyFault,
    SynthesisError,
    cayley_ball,
    group_from_name,
    cut_weight,
    expand,
    feasibility_check,
    feasibility_rows,
    format_trace,
    GameState,
    level_counts,
    max_flow,
    parse_trace,
    run_game,
    simulate,
    step,
    synthesize_cutset_strategy,
    wait_and_surround,
)
import firebreak.game as game_mod
import firebreak.trees as trees_mod
from firebreak.game import (BURNING, PROTECTED, UNTOUCHED, TraceRound, Verdict, ball_ids,
                            cut_weight_target, format_schedule, parse_schedule,
                            state_from_fire)
from firebreak.branching import br_exact_periodic, compare_to_br, cut_recursion
from firebreak.trees import ExplicitSpec, PeriodicSpec, SymmetricSpec, Truncation, as_tuple, id_set
from conftest import (
    COMPLETION_GROUPS,
    binary_spec,
    budget_catalogue,
    child_ids,
    fibonacci_spec,
    height,
    random_explicit_tree,
    random_periodic_spec,
    random_periodic_states,
    random_symmetric_spec,
    random_truncation,
    ray_spec,
    ternary_spec,
    three_one_parents,
    vertex_levels,
    witness_vertices,
)
import game_reference
import trees_reference
from cayley_reference import ReferenceGraphProduct, joined_pairs, reference_ball
from pareto_reference import pareto_feasibility

DATA = Path(__file__).parent / "data"


def assert_valid_witness(spec, k, budget, depth, result):
    """The witness separates the root from the boundary of expand(spec,
    depth), lies outside the fire's ball, meets every deadline and has the
    reported level counts."""
    t = expand(spec, depth)
    cut = witness_vertices(result, t)
    assert Cutset(frozenset(cut)).separates(t)
    level = vertex_levels(t)
    levels = [level[v] for v in cut]
    assert all(lv > k for lv in levels)
    for n in range(k + 1, depth + 1):
        assert sum(lv <= n for lv in levels) <= sum(budget(j) for j in range(1, n - k + 1))
    assert result.witness_levels == tuple(sorted(Counter(levels).items()))


class TestBudgets:
    def test_kinds(self):
        assert [BudgetSequence.constant(2)(n) for n in (1, 2, 5)] == [2, 2, 2]
        exp = BudgetSequence.exponential(Fraction(3, 2))
        assert [exp(n) for n in (1, 2, 3, 4)] == [1, 2, 3, 5]
        poly = BudgetSequence.polynomial(1, 2)
        assert [poly(n) for n in (1, 2, 3)] == [1, 4, 9]
        lst = BudgetSequence.explicit([3, 0])
        assert [lst(n) for n in (1, 2, 3, 9)] == [3, 0, 0, 0]

    def test_exponential_exact_floors(self):
        # floor((3/2)**n) computed exactly: no float drift at large n
        exp = BudgetSequence.exponential(Fraction(3, 2))
        assert exp(40) == (Fraction(3, 2) ** 40).__floor__()
        # both budgets read as constant through a float, and neither is
        tiny = BudgetSequence.parse("poly:1/1" + "0" * 400 + ",1")
        assert float(tiny.params[0]) == 0 and tiny(1) == 0 and tiny(10 ** 401) == 10
        barely = BudgetSequence.exponential(1 + Fraction(1, 10 ** 20))  # floor(rate**n) grows
        assert float(barely.params[0]) == 1 and barely.params[0] > 1

    def test_prefix_sums(self):
        # f(1) + ... + f(j) for j = 1..m, exact, and empty for m = 0
        for text, want in (("const:3", [3, 6, 9]), ("exp:3/2", [1, 3, 6, 11]),
                           ("poly:1,2", [1, 5, 14]), ("list:3,0", [3, 3, 3])):
            b = BudgetSequence.parse(text)
            assert b.prefix_sums(len(want)) == want, text
            assert b.prefix_sums(0) == []

    def test_integer_floors_match_the_fraction_floors(self):
        # exp and poly values and prefix sums are floors of integer terms;
        # they equal math.floor of the Fraction expression for n = 1..300,
        # on seeded rationals and on rates below 1, at 1, read from a float
        # and just above 1
        rng = random.Random(5500)
        rates = [Fraction(rng.randint(1, 400), rng.randint(1, 200)) for _ in range(12)] + [
            Fraction(1, 3), Fraction(99, 100), Fraction(1), Fraction(1.1), Fraction(2.5),
            1 + Fraction(1, 10 ** 20)]
        ns = range(1, 301)
        for rate in rates:
            exp = BudgetSequence.exponential(rate)
            want = [math.floor(rate ** n) for n in ns]
            assert [exp(n) for n in ns] == want, rate
            assert exp.prefix_sums(300) == list(accumulate(want)), rate
            for degree in (0, 1, 2, 5):
                poly = BudgetSequence.polynomial(rate, degree)
                want = [math.floor(rate * n ** degree) for n in ns]
                assert [poly(n) for n in ns] == want, (rate, degree)
                assert poly.prefix_sums(300) == list(accumulate(want)), (rate, degree)
        zero = BudgetSequence.polynomial(0, 3)
        assert zero.prefix_sums(300) == [0] * 300

    def test_parse_roundtrip(self):
        for text in ("const:2", "exp:3/2", "exp:1.5", "poly:2,3", "list:1,0,2"):
            b = BudgetSequence.parse(text)
            assert BudgetSequence.parse(b.describe())(3) == b(3)

    def test_parse_rejects(self):
        for text in ("", "exp", "exp:zero", "q:1", "const:-1"):
            with pytest.raises(SpecError):
                BudgetSequence.parse(text)


class TestStep:
    def test_ray_protect_blocks_spread(self):
        t = expand(ray_spec(), 4)
        state = state_from_fire(t, ball_ids(t, 0))
        after = step(state, [1], 1)
        assert after.frontier == ()
        assert game_reference.burning_count(after) == 1

    def test_binary_no_protection_spreads(self):
        t = expand(binary_spec(), 3)
        after = step(state_from_fire(t, ball_ids(t, 0)), [], 0)
        assert after.frontier == (1, 2)

    def test_ball1_one_guard(self):
        # fire on the radius-1 ball, one level-2 guard: 3 of 4 level-2
        # vertices burn
        t = expand(binary_spec(), 3)
        state = state_from_fire(t, ball_ids(t, 1))
        after = step(state, [3], 1)
        assert after.frontier == (4, 5, 6)
        assert after.statuses[3] == PROTECTED

    def test_budget_fault(self):
        t = expand(binary_spec(), 3)
        with pytest.raises(StrategyFault):
            step(state_from_fire(t, ball_ids(t, 0)), [1, 2], 1)

    def test_burning_fault(self):
        t = expand(binary_spec(), 3)
        with pytest.raises(StrategyFault) as err:
            step(state_from_fire(t, ball_ids(t, 1)), [1], 5)
        assert err.value.round_no == 1

    def test_statuses_monotone_and_disjoint(self):
        t = expand(binary_spec(), 4)
        state = state_from_fire(t, ball_ids(t, 0))
        rng = random.Random(7)
        for _ in range(4):
            untouched = [v for v in range(t.n_vertices)
                         if state.statuses[v] == UNTOUCHED]
            protect = rng.sample(untouched, min(2, len(untouched)))
            nxt = step(state, protect, 2)
            for v in range(t.n_vertices):
                if state.statuses[v] != UNTOUCHED:
                    assert nxt.statuses[v] == state.statuses[v]
            assert not any(
                nxt.statuses[v] == BURNING and v in protect for v in range(t.n_vertices)
            )
            state = nxt


class RandomStrategy:
    """Protects a seeded random sample of vertices each round: mostly
    untouched ones within the budget, sometimes one too many, a burning
    vertex or an id outside the arena."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def protect_for(self, state, round_no, budget):
        rng, n = self.rng, state.arena.n_vertices
        picks = [v for v in range(n) if state.statuses[v] == UNTOUCHED and rng.random() < 0.3]
        picks = picks[:budget + (rng.random() < 0.1)]
        if rng.random() < 0.05:
            picks.append(rng.choice([v for v in range(n) if state.statuses[v] == BURNING]))
        if rng.random() < 0.03:
            picks.append(rng.choice((-1, n)))
        return picks


def _count_id_set_paths(monkeypatch) -> Counter:
    """Count the paths the engine's id sets take, by the rules of the
    ``trees`` helper: ``row_entries`` calls by what they returned ("gather";
    "loop", None), and ``mark`` calls by the set's form ("run", "fancy" for
    an int array, "tuple" for the loop); an empty set counts as "empty"."""
    entries, marks, calls = game_mod.row_entries, game_mod.mark, Counter()

    def counted_entries(arena, ids):
        got = entries(arena, ids)
        calls["empty" if not len(ids) else "loop" if got is None else "gather"] += 1
        return got

    def counted_mark(statuses, ids, byte):
        size = len(ids)
        calls["empty" if not size else "run" if size >= trees_mod.PROTECT_RUN_MIN
              and ids[-1] - ids[0] == size - 1 else "tuple" if type(ids) is tuple else "fancy"] += 1
        return marks(statuses, ids, byte)

    monkeypatch.setattr(game_mod, "row_entries", counted_entries)
    monkeypatch.setattr(game_mod, "mark", counted_mark)
    return calls


def _engine_outcome(play, *args):
    try:
        return play(*args)
    except (StrategyFault, SpecError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "round_no", None)


ENGINE_MODELS = [group_from_name(name) for name in ("free:1", "free:2", "zd:1", "zd:2", "zd:3", "dinf",
                                                     "freeprod:2,3", "freeprod:3,3")]


class TestInPlaceEngine:
    """The in-place engine against the copy-per-round reference
    (tests/game_reference.py)."""

    def arenas(self, rng):
        yield from (random_truncation(rng, max_depth=7, size_limit=400) for _ in range(300))
        yield from (cayley_ball(model, r) for model in ENGINE_MODELS for r in (2, 3, 4, 5))

    def strategies(self, rng, arena):
        n = arena.n_vertices
        schedule = {r: rng.sample(range(n), min(n, rng.randint(0, 3)))
                    for r in range(1, arena.depth + 2) if rng.random() < 0.6}
        if rng.random() < 0.1:
            schedule[1] = (rng.choice((-1, n)),)
        vprime, seed = rng.sample(range(n), rng.randint(0, n)), rng.randrange(10 ** 6)
        yield lambda: ScheduleStrategy(schedule)
        yield lambda: CanonicalStrategy(vprime)
        yield lambda: RandomStrategy(seed)  # a fresh strategy replays the same draws

    def test_matches_copy_per_round_reference(self, monkeypatch):
        # over a hundred rounds, a ball fire's first among them, spread from
        # the level starts alone (``_level_round``), as the reference spreads them
        level_round, rounds = game_mod._level_round, Counter()

        def counted(arena, statuses, frontier):
            got = level_round(arena, statuses, frontier)
            rounds[got is not None] += 1
            return got

        monkeypatch.setattr(game_mod, "_level_round", counted)
        self.play_against_reference()
        assert rounds[True] > 100 and rounds[False] > 100, rounds

    def play_against_reference(self):
        rng = random.Random(53)
        kinds = Counter()
        for arena in self.arenas(rng):
            for make in self.strategies(rng, arena):
                radius = rng.randrange(arena.depth)
                budget = rng.choice(budget_catalogue())
                horizon = rng.choice((None, None, 0, 1, 2, 5, -1))
                fire = rng.sample(range(arena.n_vertices), min(arena.n_vertices, 3)) + [0]
                got = _engine_outcome(simulate, arena, radius, make(), budget, horizon)
                want = _engine_outcome(game_reference.simulate, arena, radius, make(), budget,
                                       horizon)
                assert got == want
                got = _engine_outcome(run_game, arena, fire, make(), budget, horizon)
                want = _engine_outcome(game_reference.run_game, arena, fire, make(), budget,
                                       horizon)
                assert got == want
                kinds[got[0] if isinstance(got, tuple) else got.kind] += 1
        assert set(kinds) == {"contained", "boundary_reached", "escaped_horizon",
                              "StrategyFault", "SpecError"}, kinds

    def test_numpy_rounds_match_copy_per_round_reference(self, monkeypatch):
        # with the threshold at 1, every id set of a ball game that is not
        # one run is an int array: every such frontier spreads by the gather
        # and every such protect set is marked by fancy indexing
        monkeypatch.setattr(trees_mod, "SPREAD_VECTOR_MIN", 1)
        calls = _count_id_set_paths(monkeypatch)
        self.play_against_reference()
        assert calls["gather"] > 100 and calls["fancy"] > 100, calls
        assert not calls["loop"] and not calls["tuple"], calls
        self.test_step_leaves_its_input_alone()  # step keeps the engine's forms of its frontiers

    def test_step_chains_spread_large_frontiers_by_the_gather(self, monkeypatch):
        # every other level-11 id of a depth-12 binary tree, 1,024 ids that are
        # not one run: each step hands the next its frontier in the engine's
        # form, so every round spreads by the gather, as run_game's rounds do
        t = expand(binary_spec(), 12)
        fire = range(t.level_starts[11], t.level_starts[12], 2)
        state, ref = state_from_fire(t, fire), game_reference.state_from_fire(t, fire)
        calls = _count_id_set_paths(monkeypatch)
        for _ in range(3):
            state, ref = step(state, (), 0), game_reference.step(ref, (), 0)
            assert len(state.frontier) >= 1024
            assert (as_tuple(state.frontier), bytes(state.statuses)) == (
                ref.frontier, bytes(ref.statuses))
        assert calls["gather"] == 3 and not calls["loop"], calls

    def test_numpy_rounds_on_truncations_match_reference(self, monkeypatch):
        # truncations have rows too: with the threshold at 1 every round of
        # a truncation game spreads from the numpy rows
        monkeypatch.setattr(trees_mod, "SPREAD_VECTOR_MIN", 1)
        monkeypatch.setattr(game_mod, "_level_round", lambda *_args: None)  # every round by rows
        calls = _count_id_set_paths(monkeypatch)
        monkeypatch.setattr(self, "arenas", lambda rng: (
            random_truncation(rng, max_depth=7, size_limit=400) for _ in range(300)))
        self.play_against_reference()
        assert calls["gather"] > 100 and not calls["loop"], calls

    @pytest.mark.parametrize("crossover", [0, 10 ** 9])
    def test_one_run_slices_match_copy_per_round_reference(self, crossover, monkeypatch):
        # at crossover 0 every frontier, one run of ids or not, spreads by
        # the gather, at 10**9 none does and the loop takes it (an empty set
        # is a tuple at any crossover, so 0 stands for 1 there)
        monkeypatch.setattr(trees_mod, "SPREAD_VECTOR_MIN", max(crossover, 1))
        monkeypatch.setattr(game_mod, "_level_round", lambda *_args: None)  # every round by rows
        calls = _count_id_set_paths(monkeypatch)
        self.play_against_reference()
        self.test_step_leaves_its_input_alone()
        assert (calls["gather"] > 100 and not calls["loop"]) if crossover == 0 else (
            calls["gather"] == 0 and calls["loop"] > 100), calls

    def test_rows_built_on_demand_match_the_reference(self, monkeypatch):
        # every read that builds rows, made first on a fresh arena and
        # checked against the reference on another fresh copy: separated on
        # statuses whose rarer side holds a level-D id, neighbors of an
        # interior or a level-D id, and games whose every round reads the
        # numpy rows; the first read builds every row, on a ball as on a tree
        monkeypatch.setattr(trees_mod, "SPREAD_VECTOR_MIN", 1)
        monkeypatch.setattr(game_mod, "_level_round", lambda *_args: None)  # every round by rows
        rng = random.Random(61)
        arenas = [((lambda m=model, r=r: cayley_ball(m, r)),
                   reference_ball(ReferenceGraphProduct(model.orders, joined_pairs(model)),
                                  r).adjacency)
                  for model in ENGINE_MODELS for r in (2, 3, 4)]
        for _ in range(80):
            t = random_truncation(rng, max_depth=6, size_limit=300)
            ref = trees_reference.expand(t.spec, t.depth)
            arenas.append(((lambda s=t.spec, d=t.depth: expand(s, d)),
                           [([ref.parent[v]] if v else []) + ref.children[v]
                            for v in range(ref.n_vertices)]))
        seen = Counter()

        def built(a):
            return len(a.__dict__["_built_rows"][0]) - 1 if "_built_rows" in a.__dict__ else 0

        for make, adjacency in arenas:
            arena = make()
            n, inner = arena.n_vertices, arena.level_starts[arena.depth]
            if inner == n:  # a finite tree ended above depth D
                continue
            every = type(arena) is Truncation  # a tree builds every row at once
            deep, rare = rng.randrange(inner, n), rng.choice((BURNING, UNTOUCHED))
            statuses = bytearray([BURNING + UNTOUCHED - rare]) * n
            for v in rng.sample(range(n), rng.randint(0, n // 4)):
                statuses[v] = rng.choice((rare, PROTECTED))
            statuses[deep] = rare
            if rng.random() < 0.5:  # guard every rare vertex: separated
                for v in [v for v in range(n) if statuses[v] == rare]:
                    for w in adjacency[v]:
                        statuses[w] = statuses[w] if statuses[w] == rare else PROTECTED
            want = game_reference._separated(GameState(make(), statuses, 0, ()))
            assert arena.separated(statuses) == want
            if statuses.count(rare) < n - statuses.count(rare) - statuses.count(PROTECTED):
                assert built(arena) == n
                seen["separated", want] += 1

            arena, first = make(), rng.choice((deep, rng.randrange(inner)))
            assert list(arena.neighbors(first)) == adjacency[first]
            assert built(arena) == n
            assert [list(arena.neighbors(v)) for v in range(n)] == adjacency
            seen["neighbors", every, first >= inner] += 1

            arena, fire = make(), rng.sample(range(inner), rng.randint(1, min(inner, 3)))
            schedule = {r: rng.sample(range(n), rng.randint(0, min(n, 3))) for r in (1, 2, 3)}
            budget = BudgetSequence.constant(3)
            got = _engine_outcome(run_game, arena, fire, ScheduleStrategy(schedule), budget)
            want = _engine_outcome(game_reference.run_game, make(), fire,
                                   ScheduleStrategy(schedule), budget)
            assert got == want
            seen[got[0] if isinstance(got, tuple) else got.kind] += 1
        assert seen["separated", True] > 20 and seen["separated", False] > 20, seen
        assert min(seen["neighbors", every, deep] for every in (False, True)
                   for deep in (False, True)) > 5, seen
        assert {"contained", "boundary_reached", "StrategyFault"} <= set(seen), seen

    def test_containment_check_matches_the_loop(self):
        # the one-pass check over the rows, a tree's or a ball's, against
        # the per-vertex loop: on fires whose untouched neighbours
        # are all protected, or all but some, and on random statuses
        rng = random.Random(59)
        seen = Counter()
        for arena in self.arenas(rng):
            n, level = arena.n_vertices, vertex_levels(arena)
            for _ in range(6):
                radius = rng.randrange(arena.depth + 1)
                statuses = bytearray(BURNING if level[v] <= radius else UNTOUCHED
                                     for v in range(n))
                keep = rng.choice((1.0, 1.0, 0.9, 0.5))
                for v in range(bisect.bisect_right(level, radius)):
                    for w in arena.neighbors(v):
                        if statuses[w] == UNTOUCHED and rng.random() < keep:
                            statuses[w] = PROTECTED
                randoms = bytearray(rng.choices((UNTOUCHED, PROTECTED, BURNING),
                                                [rng.random() for _ in range(3)], k=n))
                for status in (statuses, randoms, bytearray(n), bytearray([BURNING]) * n):
                    state = GameState(arena, status, 0, ())
                    want = game_reference._separated(state)
                    assert arena.separated(status) == want
                    seen[want, type(arena).__name__] += 1
        assert min(seen.values()) > 100 and len(seen) == 4, seen

    def test_large_protect_sets_fail_as_the_reference(self):
        # protect sets past SPREAD_VECTOR_MIN mixing a negative id, a burning
        # id, an id past the ball and 10**30: same fault, message and round
        b = cayley_ball(group_from_name("free:2"), 7)
        n, size, rng = b.n_vertices, trees_mod.SPREAD_VECTOR_MIN, random.Random(67)
        budget, kinds, level = BudgetSequence.constant(n), Counter(), vertex_levels(b)
        for _ in range(60):
            round_no = rng.randint(1, 3)  # a radius-1 fire covers B(round_no) as it plays
            burning = bisect.bisect_right(level, round_no)
            protect = rng.sample(range(burning, n), size + rng.randint(0, 50))
            bad = (-rng.randint(1, 3), rng.randrange(burning), n + rng.randint(0, 3), 10 ** 30)
            protect += [v for v in bad if rng.random() < 0.4]
            rng.shuffle(protect)
            schedule = {round_no: protect}
            if round_no > 1 and rng.random() < 0.5:  # an earlier large round that is valid
                schedule[1] = rng.sample(range(bisect.bisect_right(level, 5), n), size)
            got, want = (_engine_outcome(play, b, 1, ScheduleStrategy(schedule), budget)
                         for play in (simulate, game_reference.simulate))
            assert got == want
            state = state_from_fire(b, ball_ids(b, round_no))
            got, want = (_engine_outcome(play, state, protect, n)
                         for play in (step, game_reference.step))
            if isinstance(want, tuple):
                assert got == want
                kinds[want[0], want[1].split()[1].startswith("-")] += 1
            else:
                assert (as_tuple(got.frontier), got.statuses) == (want.frontier, want.statuses)
                kinds["played"] += 1
        assert set(kinds) == {("SpecError", True), ("SpecError", False),
                              ("StrategyFault", False), "played"}, kinds

    def test_step_leaves_its_input_alone(self):
        rng = random.Random(59)
        for arena in self.arenas(rng):
            state = ref = state_from_fire(arena, ball_ids(arena, rng.randrange(arena.depth)))
            for round_no in range(1, arena.depth + 2):
                untouched = [v for v in range(arena.n_vertices) if state.statuses[v] == UNTOUCHED]
                protect = rng.sample(untouched, min(len(untouched), rng.randint(0, 2)))
                burning = [v for v in range(arena.n_vertices) if state.statuses[v] == BURNING]
                if rng.random() < 0.2:  # a fault, maybe after marking others protected
                    protect.append(rng.choice(burning))
                before = bytes(state.statuses)
                got = _engine_outcome(step, state, protect, 2)
                assert state.statuses == before
                want = _engine_outcome(game_reference.step, ref, protect, 2)
                if isinstance(want, tuple):
                    assert got == want
                    break
                assert got.round_no == round_no
                assert (as_tuple(got.frontier), got.statuses) == (want.frontier, want.statuses)
                state, ref = got, want


class TestLevelRounds:
    """``_advance``'s level path, which spreads a frontier that fills the
    arena up to the end of a level from ``level_starts`` and the statuses
    alone, and the fact it rests on: levels are distances from the root."""

    def test_row_entries_lie_within_one_level(self):
        # every row entry is within one level of its row's vertex, and every
        # vertex but the root has one a level up, on trees and on balls
        rng = random.Random(71)
        arenas = [random_truncation(rng, max_depth=8, size_limit=2000) for _ in range(300)]
        arenas += [cayley_ball(group_from_name(name), r) for name in COMPLETION_GROUPS
                   for r in range(7)]
        for arena in arenas:
            offsets, columns = arena.rows()
            level = np.repeat(np.arange(arena.depth + 1), np.diff(arena.level_starts))
            row = np.repeat(np.arange(arena.n_vertices), np.diff(offsets))
            gap = level[columns] - level[row]
            up = np.zeros(arena.n_vertices, bool)
            up[row[gap == -1]] = True
            assert np.abs(gap).max(initial=0) <= 1 and up[1:].all() and not up[0]

    # the frontiers drawn, and whether the level helper takes each: a whole
    # ball; a run from mid-level of a level above its last; the same with an
    # untouched id just before it; a run from mid-level of its last level;
    # one whose next level is at the arena's depth
    KINDS = {"ball": True, "mid": True, "untouched-before": False, "mid-last": False,
             "depth": True}

    def draw(self, rng, arena, kind):
        """Statuses and a frontier run [a, e) of the given kind, e the end of
        a level L below the depth, or None when the arena has none."""
        starts, depth = arena.level_starts, arena.depth
        last = [lv for lv in range(depth) if starts[lv + 1] > starts[lv]]
        if kind == "depth":
            last = [lv for lv in last if lv == depth - 1]
        if not last:
            return None
        top = rng.choice(last)
        if kind == "mid-last":
            if starts[top + 1] - starts[top] < 2:
                return None
            first, a = top, rng.randrange(starts[top] + 1, starts[top + 1])
        else:
            first = 0 if kind == "ball" else rng.randint(0, top)
            a = starts[first] if first in (0, top) else rng.randrange(starts[first],
                                                                       starts[first + 1])
        e, n = starts[top + 1], arena.n_vertices
        above = starts[max(first - 1, 0)]
        statuses = bytearray(rng.choice((BURNING, PROTECTED, UNTOUCHED)) for _ in range(above))
        statuses += bytearray(rng.choice((BURNING, PROTECTED)) for _ in range(above, a))
        statuses += bytes((BURNING,)) * (e - a)
        mix = rng.choice(((UNTOUCHED,), (PROTECTED, BURNING), (UNTOUCHED, PROTECTED, BURNING)))
        statuses += bytearray(rng.choice(mix) for _ in range(e, starts[top + 2]))
        statuses += bytes(n - len(statuses))
        if kind == "untouched-before":
            if not a:
                return None
            statuses[a - 1] = UNTOUCHED  # in a's level or the one above
        return statuses, range(a, e)

    def test_level_path_edges_match_the_reference(self, monkeypatch):
        level_round, taken = game_mod._level_round, []
        monkeypatch.setattr(game_mod, "_level_round", lambda *args: taken.append(
            level_round(*args)) or taken[-1])
        rng, seen, default = random.Random(73), Counter(), trees_mod.SPREAD_VECTOR_MIN
        arenas = [random_truncation(rng, max_depth=7, size_limit=400) for _ in range(150)]
        arenas += [cayley_ball(group_from_name(name), r) for name in COMPLETION_GROUPS
                   for r in range(1, 5)]
        for arena in arenas:  # new fires of every form: tuples, ranges and arrays
            monkeypatch.setattr(trees_mod, "SPREAD_VECTOR_MIN", rng.choice((default, 1)))
            for kind, level_path in self.KINDS.items():
                for _ in range(4):
                    if (drawn := self.draw(rng, arena, kind)) is None:
                        continue
                    statuses, frontier = drawn
                    got = step(GameState(arena, statuses, 0, id_set(frontier)), (), 0)
                    want = game_reference.step(
                        GameState(arena, bytes(statuses), 0, tuple(frontier)), (), 0)
                    assert (as_tuple(got.frontier), bytes(got.statuses)) == (
                        want.frontier, want.statuses), (kind, arena.level_starts, frontier)
                    assert (taken[-1] is not None) == level_path, kind
                    starts = arena.level_starts
                    lo = starts[bisect.bisect_right(starts, frontier[-1])]
                    hi = starts[bisect.bisect_right(starts, lo)] if lo < arena.n_vertices else lo
                    if level_path:
                        seen[kind, type(taken[-1]).__name__] += 1
                    else:  # the spread the level path would have got wrong
                        seen[kind, want.frontier != tuple(
                            v for v in range(lo, hi) if statuses[v] == UNTOUCHED)] += 1
                    if kind == "untouched-before" and want.statuses[frontier[0] - 1] == BURNING:
                        same = bisect.bisect_right(starts, frontier[0] - 1) == bisect.bisect_right(
                            starts, frontier[0])
                        seen["spread back", "same level" if same else "level above"] += 1
        assert min(seen[kind, form] for kind in ("ball", "mid")
                   for form in ("range", "tuple", "ndarray")) > 10, seen
        assert seen["depth", "range"] > 10 and seen["mid-last", True] > 10, seen
        assert seen["untouched-before", True] > 10, seen
        assert seen["spread back", "same level"] > 10 and seen["spread back", "level above"] > 10


class TestOneRunProtectSets:
    """A protect set that is one run of PROTECT_RUN_MIN ids or more is
    checked with one find and marked with one slice: at that threshold and
    at 1 it fails and plays as the copy-per-round reference's loop, and the
    same ids with a gap fail and play as the reference through the gather
    and the loop paths."""

    @staticmethod
    def outcome(play, state, protect, budget):
        got = _engine_outcome(play, state, protect, budget)
        return got if isinstance(got, tuple) else (got.round_no, as_tuple(got.frontier),
                                                   bytes(got.statuses))

    def test_runs_fail_and_play_as_the_loop_and_gather_paths(self, monkeypatch):
        b = cayley_ball(group_from_name("free:2"), 7)  # 4,373 vertices
        n, rng, kinds = b.n_vertices, random.Random(89), Counter()
        default, default_run = trees_mod.SPREAD_VECTOR_MIN, trees_mod.PROTECT_RUN_MIN
        for _ in range(160):
            # a few burning ids anywhere, some protected ones, and the root
            # burning as the frontier
            statuses = bytearray(rng.choices((UNTOUCHED, PROTECTED), (9, 1), k=n))
            for v in rng.sample(range(n), rng.choice((0, 1, 2, 8))):
                statuses[v] = BURNING
            statuses[0] = BURNING
            state = GameState(b, statuses, rng.randint(0, 3), (0,))
            size = rng.choice((1, 2, 3, rng.randint(4, 200), rng.randint(200, 3_000)))
            start = rng.choice((-rng.randint(1, 3), 0, rng.randrange(1, n),  # 0 is burning
                                n - size + rng.randint(0, 3), rng.randrange(1, max(2, n - size))))
            run = list(range(start, start + size))
            budget = rng.choice((n, n, size, size - 1))
            want = self.outcome(game_reference.step, state, run, budget)
            for run_min in (1, default_run):  # every run by one find, or short ones looped
                monkeypatch.setattr(trees_mod, "PROTECT_RUN_MIN", run_min)
                for given in (run, run[::-1] + run[:2], range(start, start + size),
                              np.array(run, np.int64), np.array(run, np.int32)[::-1]):
                    assert self.outcome(step, state, given, budget) == want, (start, size)
            assert bytes(statuses) == bytes(state.statuses)  # step left its input alone
            if not isinstance(want[0], str):
                kinds["played"] += 1
            elif "budget" in want[1]:
                kinds["budget"] += 1
            else:  # the vertex named is the run's first id, or one inside it
                named = int(want[1].split("vertex ")[1].split()[0])
                kinds[want[0], "first" if named == start else "inside"] += 1
            if size < 3:
                continue
            gapped = run[:size // 2] + run[size // 2 + 1:]
            want = self.outcome(game_reference.step, state, gapped, budget)
            for threshold in (default, 1, 10 ** 9):  # as sized, all gathered, all looped
                monkeypatch.setattr(trees_mod, "SPREAD_VECTOR_MIN", threshold)
                for given in (gapped, np.array(gapped, np.int64)):
                    assert self.outcome(step, state, given, budget) == want, (start, size)
            monkeypatch.setattr(trees_mod, "SPREAD_VECTOR_MIN", default)
        assert set(kinds) == {("SpecError", "first"), ("SpecError", "inside"),
                              ("StrategyFault", "first"), ("StrategyFault", "inside"),
                              "budget", "played"}, kinds


class _RoundsAsGiven:
    """A schedule whose rounds reach the engine exactly as given, arrays of
    any size included (ScheduleStrategy makes a small array a tuple)."""

    def __init__(self, schedule):
        self.schedule = schedule

    def protect_for(self, state, round_no, budget):
        return self.schedule.get(round_no, ())


class TestArrayRounds:
    """Schedules given as int arrays against the same schedules given as
    tuples, at the default SPREAD_VECTOR_MIN and at 1, and against the
    copy-per-round reference."""

    def arenas(self, rng):
        yield from (random_truncation(rng, max_depth=7, size_limit=400) for _ in range(30))
        yield from (cayley_ball(model, r) for model in ENGINE_MODELS for r in (3, 5))
        for _ in range(4):  # rounds past 1024
            yield from (expand(ternary_spec(), 8), expand(binary_spec(), 11),
                        cayley_ball(group_from_name("free:2"), 7))

    def schedules(self, rng, arena):
        """(radius, schedule, budget): rounds of one, many or a whole layer of
        unburnt ids, some with duplicates; at times one round carries a
        negative, out-of-arena, burning or past-int64 id."""
        n, level = arena.n_vertices, vertex_levels(arena)
        for _ in range(4):
            radius, schedule = rng.randrange(arena.depth), {}
            for r in range(1, arena.depth + 2):
                lo = bisect.bisect_right(level, radius + r - 1)  # not burning in round r
                if rng.random() < 0.5 and lo < n:
                    size = rng.choice((1, rng.randint(0, n - lo), None))  # None: the layer
                    ids = (list(range(lo, bisect.bisect_right(level, radius + r))) if size is None
                           else rng.sample(range(lo, n), size))
                    schedule[r] = ids + (rng.choices(ids, k=rng.choice((0, 0, 3))) if ids else [])
            if schedule and rng.random() < 0.5:
                r = rng.choice(list(schedule))
                burning = bisect.bisect_right(level, radius + r - 1)
                schedule[r].append(rng.choice((-rng.randint(1, 3), n + rng.randint(0, 3),
                                               rng.randrange(burning), 2 ** 63 + rng.randrange(9))))
            size = max(map(len, schedule.values()), default=0)
            budget = rng.choice((n + 10, size, max(0, size - 1)))
            yield radius, schedule, BudgetSequence.constant(budget)

    def test_arrays_play_as_tuples(self, monkeypatch):
        rng, kinds, default = random.Random(71), Counter(), trees_mod.SPREAD_VECTOR_MIN
        for arena in self.arenas(rng):
            for radius, schedule, budget in self.schedules(rng, arena):
                tuples = {r: tuple(ids) for r, ids in schedule.items()}
                want = _engine_outcome(game_reference.simulate, arena, radius,
                                       ScheduleStrategy(tuples), budget)
                huge = any(v >= 2 ** 63 for ids in tuples.values() for v in ids)
                dtype = rng.choice((np.int64, np.int32))
                arrays = {} if huge else {r: np.array(ids, dtype) for r, ids in schedule.items()}
                for threshold in (default, 1):
                    monkeypatch.setattr(trees_mod, "SPREAD_VECTOR_MIN", threshold)
                    plays = [ScheduleStrategy(tuples)]
                    if not huge:
                        plays += [ScheduleStrategy(arrays), _RoundsAsGiven(arrays)]
                    for strategy in plays:
                        got = _engine_outcome(simulate, arena, radius, strategy, budget)
                        assert got == want
                        if not isinstance(got, tuple):
                            assert all(type(v) is int for r in got.trace
                                       for v in r.protected + r.burnt)
                    large = max(map(len, schedule.values()), default=0) >= default
                    kinds[got[0] if isinstance(got, tuple) else got.kind, large, huge] += 1
                for r, ids in arrays.items():  # the engine leaves a strategy's arrays alone
                    assert ids.tolist() == schedule[r]
        seen = {kind for kind, _large, _huge in kinds}
        assert seen == {"contained", "boundary_reached", "StrategyFault", "SpecError"}, kinds
        assert {(kind, True, False) for kind in seen} <= set(kinds), kinds
        assert kinds["SpecError", False, True] and kinds["SpecError", True, True], kinds


class TestSimulate:
    def test_ray_contained_round1(self):
        t = expand(ray_spec(), 4)
        v = simulate(t, 0, CanonicalStrategy([1]), BudgetSequence.constant(1))
        assert v.contained and v.round_no == 1 and v.burnt == 1

    def test_binary_cutset_play(self):
        # fire on the radius-1 ball; all eight level-3 vertices played in
        # round 2 under budget floor(3**n); the fire ends as the radius-2
        # ball (7 vertices)
        t = expand(binary_spec(), 3)
        level3 = tuple(v for v, lv in enumerate(vertex_levels(t)) if lv == 3)
        strat = ScheduleStrategy({2: level3})
        v = simulate(t, 1, strat, BudgetSequence.exponential(3))
        assert v.contained and v.round_no == 2 and v.burnt == 7

    def test_binary_single_guard_never_contains(self):
        t = expand(binary_spec(), 10)
        for vprime in ([1], [1, 2], [3, 4, 5, 6]):
            v = simulate(t, 0, CanonicalStrategy(vprime), BudgetSequence.constant(1))
            assert not v.contained

    def test_boundary_reached_is_not_containment(self):
        t = expand(binary_spec(), 3)
        v = simulate(t, 0, ScheduleStrategy({}), BudgetSequence.constant(0))
        assert v.kind == "boundary_reached" and v.round_no == 3

    def test_trace_records_the_protect_set(self):
        # a repeated id is protected, and recorded, once
        t = expand(binary_spec(), 3)
        v = simulate(t, 0, ScheduleStrategy({1: (2, 1, 2)}), BudgetSequence.constant(2))
        assert v.contained and v.trace[0].protected == (1, 2)

    @pytest.mark.parametrize("round_no", [0, -2])
    def test_schedule_round_below_one_is_refused(self, round_no):
        # such a round would never be played: the library refuses it as the
        # trace and --schedule parsers do
        with pytest.raises(SpecError, match=f"schedule: round {round_no} is never played"):
            ScheduleStrategy({round_no: (1, 2), 2: (3,)})

    def test_escaped_horizon(self):
        t = expand(ray_spec(), 9)
        v = simulate(t, 0, ScheduleStrategy({}), BudgetSequence.constant(0), horizon=4)
        assert v.kind == "escaped_horizon"

    def test_radius_must_be_inside(self):
        t = expand(binary_spec(), 3)
        with pytest.raises(SpecError):
            simulate(t, 3, ScheduleStrategy({}), BudgetSequence.constant(1))

    def test_fault_carries_round(self):
        t = expand(binary_spec(), 4)
        strat = ScheduleStrategy({2: (1, 2, 3)})  # over budget in round 2
        with pytest.raises(StrategyFault) as err:
            simulate(t, 0, strat, BudgetSequence.constant(1))
        assert err.value.round_no == 2

    def test_boundary_mask_is_built_only_when_the_fire_reaches_the_depth(self):
        # a contained replay of a synthesized strategy and a surround never
        # have a frontier id at the depth, so neither builds the mask
        rate = BudgetSequence.exponential(3)
        synth = synthesize_cutset_strategy(binary_spec(), 3, 1)
        schedule, _ = parse_trace(format_trace(simulate(synth.trunc, 1, synth.strategy, rate)))
        t = expand(binary_spec(), synth.depth)
        v = simulate(t, 1, ScheduleStrategy(schedule), rate)
        assert v.contained and "boundary_mask" not in t.__dict__
        res = wait_and_surround(group_from_name("free:2"), 1, 5, 8)
        assert res.verdict.contained and "boundary_mask" not in res.ball.__dict__
        for arena in (expand(binary_spec(), 3), cayley_ball(group_from_name("free:2"), 3)):
            v = simulate(arena, 0, ScheduleStrategy({}), BudgetSequence.constant(0))
            assert v.kind == "boundary_reached" and v.round_no == 3
            assert "boundary_mask" in arena.__dict__

    @pytest.mark.parametrize("fire, named", [([-1], -1), ([0, 31], 31), ([0, 10 ** 30], 10 ** 30),
                                             (range(-2, 40), -2), (np.array([0, 5, 99]), 99)])
    def test_fire_outside_the_arena_is_refused(self, fire, named):
        # a fire id outside the 31 vertices is named, as the oracle names it
        t = expand(binary_spec(), 4)
        with pytest.raises(SpecError, match=f"^initial fire vertex {named} out of range$"):
            run_game(t, fire, ScheduleStrategy({}), BudgetSequence.constant(1))

    def test_fire_starting_on_boundary_is_inconclusive(self):
        t = expand(ray_spec(), 3)
        v = run_game(t, [0, 1, 2, 3], ScheduleStrategy({}), BudgetSequence.constant(9))
        assert v.kind == "boundary_reached" and v.round_no == 0


class TestSortedUnique:
    def test_cases(self):
        sorted_unique = trees_mod._sorted_unique
        for ids in (np.array([], np.intc), np.array([7], np.intc),
                    np.arange(3, 4000, 3, dtype=np.intc)):  # strictly increasing: kept as given
            assert sorted_unique(ids) is ids
        assert sorted_unique(np.array([5, 1, 9, 2], np.intc)).tolist() == [1, 2, 5, 9]
        given = np.array([4, 4, 1, 9, 1, 4])
        out = sorted_unique(given)
        assert out.tolist() == [1, 4, 9] and out.dtype == given.dtype
        assert given.tolist() == [4, 4, 1, 9, 1, 4]  # the input is left alone
        assert sorted_unique(np.array([1, 2, 2, 3], np.intc)).tolist() == [1, 2, 3]
        assert sorted_unique(np.array([3, 3], np.intc)).tolist() == [3]

    def test_random_against_unique(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            ids = rng.integers(0, rng.integers(1, 50), rng.integers(0, 40)).astype(np.intc)
            if rng.random() < 0.3:
                ids = np.unique(ids)
            out = trees_mod._sorted_unique(ids)
            assert out.tolist() == np.unique(ids).tolist() and out.dtype == ids.dtype


class TestIdSets:
    """The id-set helper of ``trees``, one seeded differential test per
    branch: ``mark`` by find-and-slice, fancy index and loop against the
    copy-per-round reference's protect loop (tests/game_reference.py), and
    ``row_entries`` by gather (of a range and of an int array) and loop
    against the reference adjacency, each branch forced by a threshold
    setting.  Ids come as tuples, step-1 and other ranges and int32 and int64 arrays, with
    repeats, and with negative, burning, past-the-end and past-int64 ids."""

    @staticmethod
    def forms(rng, ids: list[int]) -> list:
        """The ids in every form that holds them: shuffled with repeats as a
        tuple and as int64 and int32 arrays (when they fit), sorted as a
        list, and as ranges both ways when they step evenly."""
        mixed = ids + rng.choices(ids, k=min(len(ids), 3))
        rng.shuffle(mixed)
        out = [tuple(mixed), sorted(ids)]
        for dtype, bits in ((np.int64, 63), (np.int32, 31)):
            if all(-2 ** bits <= v < 2 ** bits for v in ids):
                out.append(np.array(mixed, dtype))
        s = sorted(ids)
        if len(s) > 1 and all(b - a == s[1] - s[0] for a, b in zip(s, s[1:])):
            out += [range(s[0], s[-1] + 1, s[1] - s[0]), range(s[-1], s[0] - 1, s[0] - s[1])]
        return out

    @staticmethod
    def check_form(given, got, ids):
        """id_set's form: a step-1 range as given or an int array (of the
        given dtype, else int64) from SPREAD_VECTOR_MIN ids on, else a tuple."""
        assert trees_mod.as_tuple(got) == tuple(sorted(set(ids)))
        large = len(got) >= trees_mod.SPREAD_VECTOR_MIN
        if large and type(given) is range and given.step == 1:
            assert got is given
        elif large and all(-2 ** 63 <= v < 2 ** 63 for v in ids):
            assert got.dtype == (given.dtype if isinstance(given, np.ndarray) else np.int64)
        else:
            assert type(got) is tuple

    def test_mark_matches_the_reference_loop(self, monkeypatch):
        b = cayley_ball(group_from_name("free:2"), 6)  # 1,457 vertices
        n, rng, seen = b.n_vertices, random.Random(97), Counter()
        limits = [(trees_mod.PROTECT_RUN_MIN, trees_mod.SPREAD_VECTOR_MIN), (1, 1),
                  (10 ** 9, 1), (10 ** 9, 10 ** 9), (1, 10 ** 9)]
        for _ in range(150):
            statuses = bytearray(rng.choices((UNTOUCHED, PROTECTED), (9, 1), k=n))
            burning = rng.sample(range(n), rng.choice((0, 1, 3, 8)))
            for v in burning:
                statuses[v] = BURNING
            size = rng.choice((rng.randint(1, 7), rng.randint(8, 120), rng.randint(120, 400)))
            if rng.random() < 0.5:  # a run, maybe from a burning id, below 0 or past the end
                start = rng.choice((rng.randint(-3, n - size + 3), *burning[:1],
                                    n + rng.randint(0, 3)))
                ids = list(range(start, start + size))
            else:
                ids = rng.sample(range(n), size)
                for bad in (-rng.randint(1, 3), *burning[:1], n + rng.randint(0, 3),
                            n + rng.randint(4, 9), 2 ** 63 + rng.randrange(9), 10 ** 30):
                    if rng.random() < 0.15:
                        ids.append(bad)
            want = _engine_outcome(game_reference.step, GameState(b, bytes(statuses), 0, ()),
                                   ids, len(ids))
            for given in self.forms(rng, ids):
                for run_min, vector_min in limits:
                    monkeypatch.setattr(trees_mod, "PROTECT_RUN_MIN", run_min)
                    monkeypatch.setattr(trees_mod, "SPREAD_VECTOR_MIN", vector_min)
                    got = trees_mod.id_set(given)
                    self.check_form(given, got, ids)
                    path = ("run" if len(got) >= run_min and got[-1] - got[0] == len(got) - 1
                            else "loop" if type(got) is tuple else "fancy")
                    marked = bytearray(statuses)
                    bad = trees_mod.mark(marked, got, PROTECTED)
                    if isinstance(want, tuple):  # the reference names the first bad id
                        assert want[1].split("vertex ")[1].split()[0] == str(bad), (want, path)
                        assert want[0] == ("StrategyFault" if 0 <= bad < n else "SpecError")
                        seen[path, want[0]] += 1
                    else:
                        assert bad is None and marked == want.statuses, path
                        seen[path, "marked"] += 1
        assert set(seen) == {(path, kind) for path in ("run", "fancy", "loop")
                             for kind in ("SpecError", "StrategyFault", "marked")}, seen
        assert min(seen.values()) > 20, seen

    def test_row_entries_match_the_reference_adjacency(self, monkeypatch):
        rng, seen, default = random.Random(101), Counter(), trees_mod.SPREAD_VECTOR_MIN
        arenas = [(cayley_ball(model, r),
                   reference_ball(ReferenceGraphProduct(model.orders, joined_pairs(model)),
                                  r).adjacency)
                  for model in ENGINE_MODELS for r in (3, 5)]
        for _ in range(20):
            t = random_truncation(rng, max_depth=7, size_limit=400)
            ref = trees_reference.expand(t.spec, t.depth)
            arenas.append((t, [([ref.parent[v]] if v else []) + ref.children[v]
                               for v in range(ref.n_vertices)]))
        for arena, adjacency in arenas:
            n = arena.n_vertices
            for _ in range(8):
                size = rng.randint(1, min(n, rng.choice((8, 40, 400))))
                if rng.random() < 0.5:
                    start = rng.randrange(n - size + 1)
                    ids = list(range(start, start + size))
                else:
                    ids = rng.sample(range(n), size)
                want = [w for v in sorted(ids) for w in adjacency[v]]
                for given in self.forms(rng, ids):
                    for vector_min in (default, 1, 10 ** 9):
                        monkeypatch.setattr(trees_mod, "SPREAD_VECTOR_MIN", vector_min)
                        got_ids = trees_mod.id_set(given)
                        self.check_form(given, got_ids, ids)
                        got = trees_mod.row_entries(arena, got_ids)
                        if got is None:  # left to the loop: a tuple
                            assert type(got_ids) is tuple
                            seen["loop"] += 1
                        else:
                            assert got.tolist() == want and type(got_ids) is not tuple
                            seen["gather", type(got_ids)] += 1
        assert min(seen[path] for path in (
            "loop", ("gather", range), ("gather", np.ndarray))) > 100, seen


class TestCanonical:
    def test_one_guard_per_round_fails_on_binary(self):
        # both level-1 vertices targeted, budget 1: round 1 protects one,
        # the other burns, containment fails
        t = expand(binary_spec(), 4)
        v = simulate(t, 0, CanonicalStrategy([1, 2]), BudgetSequence.constant(1))
        assert not v.contained
        assert v.trace[0].protected == (1,)  # closest-first, lowest id
        assert 2 in v.trace[0].burnt

    def test_two_guards_contain(self):
        t = expand(binary_spec(), 4)
        v = simulate(t, 0, CanonicalStrategy([1, 2]), BudgetSequence.constant(2))
        assert v.contained and v.round_no == 1 and v.burnt == 1

    def test_level3_targets_protected_by_round_two(self):
        t = expand(binary_spec(), 3)
        level3 = [v for v, lv in enumerate(vertex_levels(t)) if lv == 3]
        v = simulate(t, 1, CanonicalStrategy(level3), BudgetSequence.exponential(3))
        assert v.contained
        protected = set(v.trace[0].protected) | set(v.trace[1].protected)
        assert protected == set(level3)

    def test_tie_break_is_vertex_order(self):
        t = expand(binary_spec(), 3)
        strat = CanonicalStrategy([6, 4, 3])
        picks = strat.protect_for(state_from_fire(t, ball_ids(t, 0)), 1, 2)
        assert picks == (3, 4)


class TestFeasibility:
    def test_ray_single_guard(self):
        r = feasibility_check(ray_spec(), 0, BudgetSequence.constant(1), 5)
        assert r.feasible
        assert len(r.witness_paths) == 1

    @pytest.mark.parametrize("depth", [2, 5, 9, 14])
    def test_binary_one_per_round_infeasible(self, depth):
        r = feasibility_check(binary_spec(), 0, BudgetSequence.constant(1), depth)
        assert not r.feasible

    def test_binary_exponential_deadline_arithmetic(self):
        # the level-2 cut needs 4 guards against a round-1 budget of 3;
        # the level-3 cut needs 8 against a cumulative budget of 12
        r = feasibility_check(binary_spec(), 1, BudgetSequence.exponential(3), 3)
        assert r.feasible
        assert r.witness_levels == ((3, 8),)

    def test_witness_contains_when_simulated(self):
        budget = BudgetSequence.exponential(3)
        r = feasibility_check(binary_spec(), 1, budget, 3)
        t = expand(binary_spec(), 3)
        ids = witness_vertices(r, t)
        v = simulate(t, 1, CanonicalStrategy(ids), budget)
        assert v.contained

    def test_depth_must_exceed_radius(self):
        with pytest.raises(SpecError):
            feasibility_check(binary_spec(), 3, BudgetSequence.constant(1), 3)

    def test_budget_monotone(self):
        rng = random.Random(11)
        for _ in range(25):
            spec = random_explicit_tree(rng, max_vertices=12)
            depth = height(spec)
            if depth < 1:
                continue
            k = 0
            base = [rng.randint(0, 2) for _ in range(depth)]
            bigger = [b + rng.randint(0, 2) for b in base]
            r1 = feasibility_check(spec, k, BudgetSequence.explicit(base), depth)
            r2 = feasibility_check(spec, k, BudgetSequence.explicit(bigger), depth)
            if r1.feasible:
                assert r2.feasible

    @staticmethod
    def routes(monkeypatch) -> list[bool]:
        """Record, per _chain_ranks call, whether the level formed a chain;
        no call means the live count alone refuted the cut."""
        seen: list[bool] = []
        real = game_mod._chain_ranks

        def spy(child_ranks):
            ranks = real(child_ranks)
            seen.append(ranks is not None)
            return ranks
        monkeypatch.setattr(game_mod, "_chain_ranks", spy)
        return seen

    def test_greedy_agrees_with_count_recursion(self, monkeypatch):
        # run the same chain-ordered instances through both routes: the
        # greedy (production path when every level below the ball is a
        # chain) and the recursion on live counts per (level, state), forced
        # by reporting every level incomparable
        from firebreak import SymmetricSpec

        rng = random.Random(23)
        kinds = Counter()
        while sum(kinds.values()) < 120:
            kind = ("symmetric", "periodic", "explicit")[sum(kinds.values()) % 3]
            if kind == "symmetric":
                pre = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 2)))
                per = tuple(rng.randint(1, 3) for _ in range(1, rng.randint(2, 3)))
                spec = SymmetricSpec(preperiod=pre, period=per)
                depth = rng.randint(2, 5)
            elif kind == "periodic":
                spec = random_periodic_spec(rng, allow_dead=rng.random() < 0.5)
                depth = rng.randint(2, 6)
            else:
                spec = random_explicit_tree(rng, max_vertices=rng.randint(6, 40))
                depth = height(spec)
            if depth < 1 or sum(level_counts(spec, depth)) > 100:
                continue
            budget = rng.choice(budget_catalogue())
            k = rng.randrange(min(depth, 2))
            with monkeypatch.context() as m:
                chains = self.routes(m)
                fast = feasibility_check(spec, k, budget, depth)
            if not chains or not all(chains):
                continue  # refuted before ranking, or the recursion decides it
            with monkeypatch.context() as m:
                m.setattr(game_mod, "_chain_ranks", lambda child_ranks: None)
                slow = feasibility_check(spec, k, budget, depth)
            assert fast.feasible == slow.feasible, (spec, k, budget.describe())
            if fast.feasible:
                # both routes pick the lexicographically minimal cumulative
                # profile, so the witness level counts agree
                assert fast.witness_levels == slow.witness_levels
                assert_valid_witness(spec, k, budget, depth, fast)
            kinds[kind] += 1
        assert min(kinds.values()) == 40, kinds

    def test_fibonacci_takes_the_greedy(self, monkeypatch):
        # fib's two states form a chain at every level: no cut vector is
        # enumerated
        def no_search(counts, size):
            raise AssertionError("the count recursion ran on a chain-ordered tree")
        monkeypatch.setattr(game_mod, "_splits", no_search)
        r = feasibility_check(fibonacci_spec(), 0, BudgetSequence.constant(1), 6)
        assert r.feasible  # golden ratio < 2: one guard per round wins eventually
        t = expand(fibonacci_spec(), 6)
        ids = witness_vertices(r, t)
        v = simulate(t, 0, CanonicalStrategy(ids), BudgetSequence.constant(1))
        assert v.contained

    @pytest.mark.parametrize("depth, levels", [
        (14, ((12, 35), (13, 342), (14, 198))),
        (18, ((15, 280), (16, 1022), (17, 657), (18, 985))),
    ])
    def test_fibonacci_near_its_threshold_keeps_its_profile(self, depth, levels):
        # the lex-min profiles the count recursion found, at 49,233 and
        # 664,749 cut choices
        budget = BudgetSequence.exponential(Fraction(3, 2))
        r = feasibility_check(fibonacci_spec(), 1, budget, depth)
        assert r.feasible and r.witness_levels == levels
        assert_valid_witness(fibonacci_spec(), 1, budget, depth, r)

    def test_fibonacci_at_depth_40_decides_at_once(self):
        budget = BudgetSequence.exponential(Fraction(3, 2))
        t0 = time.perf_counter()
        r = feasibility_check(fibonacci_spec(), 1, budget, 40)
        assert time.perf_counter() - t0 < 1
        assert r.feasible and r.witness_paths is None  # past 100,000 cut vertices
        assert r.witness_levels[-1] == (40, 7371554)

    def test_greedy_miss_is_feasible(self):
        # a heaviest-subtree-first greedy spends level 1 on X, whose chain
        # ends in a 5-ary subtree, and misses this cut; the recursion
        # finds it, and its profile is the lex-min one
        spec = PeriodicSpec(states={"R": ("X", "Y"), "X": ("P",), "P": ("P2",),
                                    "P2": ("Q",), "Q": ("Q",) * 5, "Y": ("Z", "Z"),
                                    "Z": ("Z", "Z")}, root="R")
        r = feasibility_check(spec, 0, BudgetSequence.constant(1), 8)
        assert r.feasible
        assert r.witness_levels == ((2, 1), (3, 2), (4, 1))
        assert_valid_witness(spec, 0, BudgetSequence.constant(1), 8, r)

    def test_witness_past_100k_vertices_is_levels_only(self):
        # all 4**9 boundary vertices are cut at the horizon, the lex-min profile
        spec = PeriodicSpec(states={"A": ("A", "A", "A", "A", "B"), "B": ()}, root="A")
        r = feasibility_check(spec, 0, BudgetSequence.constant(300_000), 9)
        assert r.feasible and r.witness_paths is None
        assert r.witness_levels == ((9, 4 ** 9),)

    def test_probe_deeper_than_the_recursion_limit(self):
        # the recursion keeps one frame per level: 1,200 levels of a thin
        # tree whose one boundary vertex is cut at the horizon; the
        # interpreter's recursion limit is left as it was found
        spec = PeriodicSpec(states={"A": ("A", "B"), "B": ()}, root="A")
        limit = sys.getrecursionlimit()
        r = feasibility_check(spec, 0, BudgetSequence.constant(1), 1200)
        assert r.feasible and r.witness_levels == ((1200, 1),)
        assert sys.getrecursionlimit() == limit

    def test_matches_the_profile_program(self, monkeypatch):
        # the Pareto profile program, kept in tests/ as the slow reference,
        # decides the same instances and picks the same witness profile,
        # whether the greedy decides them or the count recursion runs
        rng = random.Random(41)
        budgets = budget_catalogue() + [BudgetSequence.polynomial(1, 1)]
        kinds = {"periodic": 0, "symmetric": 0, "explicit": 0}
        routes = Counter()
        chains = self.routes(monkeypatch)
        t0 = time.perf_counter()
        while sum(kinds.values()) < 300:
            kind = rng.choice(sorted(kinds))
            if kind == "explicit":
                spec = random_explicit_tree(rng, max_vertices=rng.randint(6, 90))
                if height(spec) < 1:
                    continue
                depth = rng.randint(1, height(spec) + 2)  # may end before the horizon
            else:
                spec = (random_periodic_spec(rng, allow_dead=rng.random() < 0.3)
                        if kind == "periodic" else random_symmetric_spec(rng))
                depth = rng.randint(1, 8)
                while depth > 1 and sum(level_counts(spec, depth)) > 150:
                    depth -= 1
            if sum(level_counts(spec, depth)) > 150:
                continue
            k = rng.randrange(min(depth, 3))
            budget = rng.choice(budgets)
            chains.clear()
            fast = feasibility_check(spec, k, budget, depth)
            routes["recursion" if not all(chains) else "greedy" if chains else "count"] += 1
            slow = pareto_feasibility(spec, k, budget, depth)
            assert (fast.feasible, fast.witness_levels) == \
                (slow.feasible, slow.witness_levels), (spec, k, budget.describe(), depth)
            if fast.feasible:
                assert_valid_witness(spec, k, budget, depth, fast)
            kinds[kind] += 1
        assert min(kinds.values()) >= 80, kinds
        assert routes["greedy"] >= 100 and routes["recursion"] >= 10, routes
        assert time.perf_counter() - t0 < 5

    def test_given_sphere_counts_decide_as_the_walk(self):
        # feasibility_rows walks the counts at the fire's radius once, as
        # contain's evidence rows do, and hands them to every depth it
        # decides: its rows are each depth's check, which walks from the root
        rng = random.Random(83)
        budgets = budget_catalogue()
        for _ in range(150):
            spec = (random_periodic_spec(rng, allow_dead=True) if rng.random() < 0.6
                    else random_explicit_tree(rng, max_vertices=14))
            k = rng.randrange(3)
            depths = range(k + 1, k + 5)
            for budget in rng.sample(budgets, 2):
                assert feasibility_rows(spec, k, budget, depths) == \
                    [feasibility_check(spec, k, budget, depth).feasible for depth in depths]

    def test_no_boundary_is_trivially_feasible(self):
        spec = ExplicitSpec(parents=(0, 0))
        r = feasibility_check(spec, 0, BudgetSequence.constant(0), 5)
        assert r.feasible and r.witness_paths == ()


def _row_family(seed: int, cases: int):
    """Random (spec, k, budget, depths): periodic specs with leaf and
    dead-end states, symmetric and explicit specs, k = 0..2, every budget
    kind, and a range of depths that need not start at k + 1."""
    rng = random.Random(seed)
    budgets = budget_catalogue() + [BudgetSequence.polynomial(1, 1),
                                    BudgetSequence.polynomial(Fraction(1, 2), 2)]
    drawn = 0
    while drawn < cases:
        kind = drawn % 3
        if kind == 0:  # a dead-end state: children, yet a finite subtree
            states = random_periodic_states(rng, allow_dead=True)
            if rng.random() < 0.5:
                states.update(D=("E",) * rng.randint(1, 2), E=())
                states["A"] += ("D",)
            spec = PeriodicSpec(states=states, root="A")
        elif kind == 1:
            spec = random_symmetric_spec(rng)
        else:
            spec = random_explicit_tree(rng, max_vertices=rng.randint(4, 30))
        k = rng.randrange(3)
        lo = k + 1 + rng.randrange(3)
        hi = lo + rng.randrange(7)
        while hi > lo and sum(level_counts(spec, hi)) > 300:
            hi -= 1
        if sum(level_counts(spec, hi)) > 300:
            continue
        drawn += 1
        yield spec, k, rng.choice(budgets), range(lo, hi + 1)


class TestFeasibilityRows:
    def test_rows_decide_as_one_check_per_depth(self):
        straddled = refused = 0
        for spec, k, budget, depths in _row_family(5, 600):
            want = [feasibility_check(spec, k, budget, d).feasible for d in depths]
            assert feasibility_rows(spec, k, budget, depths) == want, (
                spec, k, budget.describe(), depths)
            straddled += want[0] != want[-1]  # the bisection ran
            refused += not want[-1]
        assert straddled >= 40 and refused >= 100, (straddled, refused)

    def test_feasibility_is_monotone_in_depth(self):
        for spec, k, budget, depths in _row_family(7, 600):
            rows = [feasibility_check(spec, k, budget, d).feasible for d in depths]
            assert rows == sorted(rows), (spec, k, budget.describe(), depths)

    def test_live_heights_are_the_liveness_table(self):
        # live_0(s) = continues(s); live_h(s) when some child has live_{h-1}
        for spec, _k, _budget, _depths in _row_family(9, 300):
            live = [spec.continues(s) for s in range(len(spec.children))]
            for h in range(len(spec.children) + 2):
                assert live == [h <= x for x in spec.live_heights], (spec, h)
                live = [any(live[t] for t in kids) for kids in spec.children]

    def test_a_state_with_children_need_not_be_live(self):
        # B continues, yet its subtree ends one level down: a level-1 B is
        # live only for a boundary at level 1
        spec = PeriodicSpec(states={"A": ("A", "B"), "B": ("C",), "C": ()}, root="A")
        assert spec.live_heights == (math.inf, 0, -1)
        budget = BudgetSequence.constant(1)
        assert feasibility_rows(spec, 0, budget, range(1, 6)) == \
            [feasibility_check(spec, 0, budget, d).feasible for d in range(1, 6)]

    def test_rows_below_br_make_one_decision(self, monkeypatch):
        # every row is infeasible: the deepest is decided, the rest follow
        calls = []
        real = game_mod._feasibility_counts
        monkeypatch.setattr(game_mod, "_feasibility_counts",
                            lambda *args: calls.append(args[3]) or real(*args))
        budget = BudgetSequence.exponential(Fraction(3, 2))
        assert feasibility_rows(binary_spec(), 19, budget, range(20, 120)) == [False] * 100
        assert calls == [119]

    @pytest.mark.parametrize("radius, depths, message", [
        (-1, range(1, 3), "initial radius must be >= 0"),
        (2, range(2, 5), "depth must exceed the initial radius"),
        (0, (3, 2), "depths must increase"),
    ])
    def test_bad_arguments(self, radius, depths, message):
        with pytest.raises(SpecError, match=message):
            feasibility_rows(binary_spec(), radius, BudgetSequence.constant(1), depths)


class TestThreeOneTree:
    """Lyons and Peres's 3-1 tree has growth 2 and branching number 1: off
    its leftmost ray every vertex has finitely many branch points below it.
    Budgets far below growth 2 contain a fire on it, at the first feasible
    depths the deadline program finds on the depth-16 truncation; a cut
    that separates the fire from level D separates it from the infinite
    tree below (the escape-leaf convention)."""

    DEPTH = 16

    @pytest.fixture(scope="class")
    def spec(self):
        return ExplicitSpec(three_one_parents(self.DEPTH))

    def test_levels_double_and_branching_dies_off_the_leftmost_ray(self, spec):
        assert level_counts(spec, self.DEPTH) == [2 ** n for n in range(self.DEPTH + 1)]
        t = expand(spec, self.DEPTH)
        assert t.n_vertices == len(three_one_parents(self.DEPTH)) + 1 == 131_071
        starts, parent = list(t.level_starts), list(t.parent)
        top = list(range(starts[5]))  # top[v]: v's ancestor at level 4, from level 4 on
        for v in range(starts[5], t.n_vertices):
            top.append(top[parent[v]])
        branching = [v for v in range(starts[10], starts[self.DEPTH])
                     if len(child_ids(t, v)) == 3]
        # past level 9 only the leftmost level-4 vertex has branching descendants,
        # and the leftmost ray (ids 2**n - 1) branches at every level
        assert branching and {top[v] for v in branching} == {starts[4]}
        assert all(len(child_ids(t, 2 ** n - 1)) == 3 for n in range(1, self.DEPTH))

    @pytest.mark.parametrize("budget, k, first", [
        ("exp:3/2", 0, 2), ("exp:3/2", 1, 4), ("exp:3/2", 2, 8), ("exp:3/2", 3, 12),
        ("const:3", 0, 1), ("const:3", 1, 3), ("const:3", 2, 6), ("const:3", 3, 15),
    ])
    def test_budgets_below_growth_contain(self, spec, budget, k, first):
        budget = BudgetSequence.parse(budget)
        depths = range(k + 1, self.DEPTH + 1)
        assert feasibility_rows(spec, k, budget, depths) == [d >= first for d in depths]
        result = feasibility_check(spec, k, budget, first)
        t = expand(spec, first)
        verdict = simulate(t, k, CanonicalStrategy(witness_vertices(result, t)), budget)
        assert verdict.kind == "contained"


class TestSynthesis:
    @staticmethod
    def check_weight(res, rate):
        # the cut fits its rounds: level n's count is at most the budget of
        # round n - k, and no cut vertex lies at a level <= k.  A cut lighter
        # than epsilon fits (the bound's soundness), so no depth before the
        # returned one, whose min cut does not fit, has a lighter min cut.
        # The recursion's W(depth) is the weight of the materialised cut and
        # the value of the reference max flow
        budget, level = BudgetSequence.exponential(rate), vertex_levels(res.trunc)
        per_level = Counter(level[v] for v in res.cutset.ids.tolist())
        assert all(lv > res.radius and n <= budget(lv - res.radius)
                   for lv, n in per_level.items())
        steps = islice(cut_recursion(res.trunc.spec, rate)[1], res.radius + 1, res.depth)
        assert all(Fraction(weight, den) >= res.epsilon for _, den, weight in steps)
        assert res.weight == cut_weight(res.trunc, res.cutset, rate) \
            == max_flow(res.trunc, rate).value

    @pytest.mark.parametrize("k", [1, 2])
    def test_binary_rate3(self, k):
        budget = BudgetSequence.exponential(3)
        res = synthesize_cutset_strategy(binary_spec(), 3, k)
        self.check_weight(res, 3)
        level = vertex_levels(res.trunc)
        for round_no, vertices in res.strategy.schedule.items():
            assert len(vertices) <= budget(round_no)
            for v in vertices:
                assert level[v] == round_no + k
        verdict = simulate(res.trunc, k, res.strategy, budget)
        assert verdict.contained

    def test_binary_rate3_k1_cut_is_level3(self):
        res = synthesize_cutset_strategy(binary_spec(), 3, 1)
        assert res.depth == 3
        assert res.weight == Fraction(8, 27)
        assert len(res.cutset) == 8
        assert res.strategy.schedule == {2: tuple(range(7, 15))}

    def test_ray_rate2(self):
        res = synthesize_cutset_strategy(ray_spec(), 2, 0)
        assert res.depth == 1 and res.strategy.schedule == {1: (1,)}
        self.check_weight(res, 2)

    @pytest.mark.parametrize("spec, rate, k", [
        (fibonacci_spec(), Fraction(2), 1),
        (fibonacci_spec(), Fraction(5, 2), 2),
        (ternary_spec(), Fraction(7, 2), 1),
    ])
    def test_weight_is_the_materialised_cut(self, spec, rate, k):
        self.check_weight(synthesize_cutset_strategy(spec, rate, k), rate)

    def test_below_branching_number_rejected(self):
        with pytest.raises(SpecError):
            synthesize_cutset_strategy(binary_spec(), Fraction(3, 2), 1)

    def test_at_the_branching_number_rejected(self):
        # the Perron root 2 is a 2x2 Jordan block: only exactly 2 is refused
        spec = PeriodicSpec(states={"A": ("A", "B", "A"), "B": ("B", "B")}, root="A")
        with pytest.raises(SpecError, match="not above"):
            synthesize_cutset_strategy(spec, 2, 1)
        with pytest.raises(SynthesisError, match="depth 40"):
            synthesize_cutset_strategy(spec, Fraction(200001, 100000), 1)

    @pytest.mark.parametrize("rate", [Fraction(3, 2), Fraction(2), Fraction(21, 10),
                                      Fraction(7, 3), Fraction(41, 20), Fraction(39, 20),
                                      Fraction(101, 100), Fraction(1999, 1000), Fraction(7, 2)])
    @pytest.mark.parametrize("radius", [0, 1, 3])
    def test_cut_weight_target_matches_fresh_powers(self, rate, radius):
        # the running power, stopped once 1 - rate**-m reaches the head, gives
        # the same Fraction as one fresh power per m over the whole range
        head = min(math.floor(rate ** m) * rate ** -(radius + m) for m in range(1, 121))
        tail = rate ** -radius * (1 - rate ** -121)
        assert cut_weight_target(rate, radius) == min(head, tail)

    def test_depth_exhaustion_raises(self):
        # rate barely above the branching number: min cuts that fit their
        # rounds exist only far deeper than the cap
        with pytest.raises(SynthesisError):
            synthesize_cutset_strategy(binary_spec(), Fraction(201, 100), 1,
                                       depth_max=3)

    def test_expands_only_the_returned_depth(self, monkeypatch):
        import firebreak.game
        depths = []
        real = firebreak.game.expand
        monkeypatch.setattr(firebreak.game, "expand",
                            lambda spec, depth: depths.append(depth) or real(spec, depth))
        res = synthesize_cutset_strategy(fibonacci_spec(), 2, 1)
        assert res.depth == 3
        assert depths == [3]

    def test_cut_past_the_vertex_cap_fails_at_once(self):
        # fib at 33/20, k=2 cuts at depth 36, which has 102,334,153 vertices
        with pytest.raises(ResourceLimitError, match="FIREBREAK_VERTEX_CAP"):
            synthesize_cutset_strategy(fibonacci_spec(), Fraction(33, 20), 2)

    @pytest.mark.parametrize("rate, depth", [(3.0, 3), (2.5, 5)])
    def test_float_rate_synthesises_as_its_rational(self, rate, depth):
        # a float rate is the rational it is: no margin on its weight target
        res = synthesize_cutset_strategy(binary_spec(), rate, 1, depth_max=12)
        exact = synthesize_cutset_strategy(binary_spec(), Fraction(rate), 1, depth_max=12)
        assert res.depth == exact.depth == depth
        assert res.cutset.ids.tolist() == exact.cutset.ids.tolist()
        assert res.weight == exact.weight == cut_weight(res.trunc, res.cutset, rate)
        assert type(res.weight) is type(res.epsilon) is Fraction
        verdict = simulate(res.trunc, 1, res.strategy, BudgetSequence.exponential(rate))
        assert verdict.contained


class TestShallowestFittingCut:
    """Synthesis against the reference cuts at every depth up to the one it
    returns (tests/trees_reference.py) and the reference engine."""

    @staticmethod
    def spec(rng):
        """A seeded periodic spec of 2-4 states, some of them leaves, or a
        symmetric one of 2-4 levels before it repeats, with an infinite tree."""
        while True:
            if rng.random() < 0.6:
                names = "ABCD"[:rng.randint(2, 4)]
                spec = PeriodicSpec(states={s: tuple(rng.choice(names) for _ in range(
                    rng.randint(0 if s != "A" else 1, 3))) for s in names}, root="A")
            else:
                pre = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 2)))
                per = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
                spec = SymmetricSpec(preperiod=pre, period=per)
            if 2 <= len(spec.children) <= 4 and not spec.is_finite():
                return spec

    @staticmethod
    def levels(trunc, ids) -> list[int]:
        """The count per level 0..depth of a reference truncation's id set."""
        counts = [0] * (trunc.depth + 1)
        for v in ids:
            counts[trunc.level[v]] += 1
        return counts

    @staticmethod
    def fits(counts, k, budget) -> bool:
        return all(not n or lv > k and n <= budget(lv - k) for lv, n in enumerate(counts))

    @pytest.mark.parametrize("seed", range(4))
    def test_stops_at_the_shallowest_fitting_min_cut(self, seed):
        rng, checked = random.Random(4800 + seed), 0
        while checked < 15:
            spec, k = self.spec(rng), rng.randint(0, 3)
            br = br_exact_periodic(spec)
            rate = Fraction(br * (1.01 + 0.79 * rng.random())).limit_denominator(100)
            sizes = list(accumulate(level_counts(spec, 14)))
            depth_max = max(d for d in range(15) if d == 0 or sizes[d] <= 3000)
            if depth_max <= k or compare_to_br(spec, rate) <= 0:
                continue
            budget, eps = BudgetSequence.exponential(rate), cut_weight_target(rate, k)
            try:
                res = synthesize_cutset_strategy(spec, rate, k, depth_max=depth_max)
            except SynthesisError:
                res = None
            last = res.depth if res else depth_max
            walk, eps_depth = game_mod.min_cut_levels(spec, cut_recursion(spec, rate)[1]), None
            for depth, (_, counts) in zip(range(last + 1), walk):
                t = trees_reference.expand(spec, depth)
                cut = trees_reference.min_cutset(t, rate)
                want = self.levels(t, cut.ids.tolist())
                assert counts == {lv: n for lv, n in enumerate(want) if n}
                if depth <= k:
                    continue
                fits = self.fits(want, k, budget)
                light = trees_reference.min_cut_weight(t, rate) < eps
                assert fits or not light  # a cut lighter than epsilon fits
                if eps_depth is None and light:
                    eps_depth = depth
                assert fits == (res is not None and depth == res.depth)  # none shallower fits
            if res is None:
                assert eps_depth is None
                continue
            assert eps_depth is None or res.depth <= eps_depth
            assert res.cutset.ids.tolist() == sorted(cut.ids.tolist())
            got = simulate(res.trunc, k, res.strategy, budget)
            ref = game_reference.simulate(res.trunc, k, res.strategy, budget)
            assert (got.kind, got.round_no, got.burnt) == (ref.kind, ref.round_no, ref.burnt)
            assert got.contained
            checked += 1


class TestSmallerFiresInherit:
    def test_ball_strategy_contains_smaller_fires(self):
        # replay the trace of a winning ball strategy against every fire
        # inside the ball: still contained
        rng = random.Random(31)
        checked = 0
        while checked < 12:
            spec = random_explicit_tree(rng, max_vertices=12)
            depth = height(spec)
            if depth < 2:
                continue
            k = 1
            budget = BudgetSequence.constant(2)
            r = feasibility_check(spec, k, budget, depth)
            if not r.feasible:
                continue
            t = expand(spec, depth)
            verdict = simulate(t, k, CanonicalStrategy(witness_vertices(r, t)), budget)
            assert verdict.contained
            schedule = ScheduleStrategy({tr.round_no: tr.protected
                                         for tr in verdict.trace})
            ball_ids = [v for v, lv in enumerate(vertex_levels(t)) if lv <= k]
            for _ in range(3):
                sub = rng.sample(ball_ids, rng.randint(1, len(ball_ids)))
                if 0 not in sub:
                    sub.append(0)
                v2 = run_game(t, sub, schedule, budget)
                assert v2.contained
                assert v2.burnt <= verdict.burnt
            checked += 1


class TestTraceFormat:
    def test_roundtrip(self):
        t = expand(binary_spec(), 3)
        level3 = tuple(v for v, lv in enumerate(vertex_levels(t)) if lv == 3)
        verdict = simulate(t, 1, ScheduleStrategy({2: level3}),
                           BudgetSequence.exponential(3))
        text = format_trace(verdict)
        schedule, summary = parse_trace(text)
        assert schedule == {1: (), 2: level3}
        assert summary == {"kind": "contained", "round_no": 2, "burnt": 7}

    def test_large_rounds_read_as_ints(self):
        # level 11 of a depth-12 binary tree, protected in round 1 from an
        # array: the protect set (2048 ids) and round 9's frontier (level 10,
        # 1024 ids) are large rounds
        t = expand(binary_spec(), 12)
        level11 = np.arange(t.level_starts[11], t.level_starts[12])
        play = lambda ids: simulate(t, 1, ScheduleStrategy({1: ids}), BudgetSequence.constant(4096))
        verdict, again = play(level11), play(level11)
        assert (verdict.kind, verdict.round_no, verdict.burnt) == ("contained", 10, 2047)
        assert len(verdict.trace[0].protected) >= trees_mod.SPREAD_VECTOR_MIN
        assert len(verdict.trace[-2].burnt) >= trees_mod.SPREAD_VECTOR_MIN
        assert all(type(v) is int for r in verdict.trace for v in r.protected + r.burnt)
        schedule, summary = parse_trace(format_trace(verdict))
        assert schedule == {r.round_no: r.protected for r in verdict.trace}
        assert schedule == {1: tuple(level11.tolist()), **{r: () for r in range(2, 11)}}
        assert summary == {"kind": "contained", "round_no": 10, "burnt": 2047}
        assert simulate(t, 1, ScheduleStrategy(schedule), BudgetSequence.constant(4096)) == verdict
        assert verdict == again  # read against not yet read
        # one protected id apart in round 1, both still arrays: unequal
        fresh, moved = play(level11), level11.copy()
        moved[-1] += 1
        first_moved = TraceRound(1, moved, fresh.trace[0].burnt)
        assert fresh != Verdict(fresh.kind, fresh.round_no, fresh.burnt,
                                (first_moved,) + fresh.trace[1:])

    @pytest.mark.parametrize("text, schedule", [
        ("-", {}), ("1:-", {1: ()}), ("2:5", {2: (5,)}),
        ("1:3,4;2:-;5:7,6", {1: (3, 4), 2: (), 5: (7, 6)}),
    ], ids=["no-rounds", "one-empty", "one", "mixed"])
    def test_schedule_text_round_trips(self, text, schedule):
        assert parse_schedule(text, "schedule") == schedule
        assert format_schedule(schedule) == text

    @pytest.mark.parametrize("bad", ["round x | protect 1 | burn 2",
                                     "round 2 | protect 1 y | burn -",
                                     "verdict contained | round"])
    def test_malformed_line_names_the_line(self, bad):
        with pytest.raises(SpecError, match="line 2"):
            parse_trace("round 1 | protect - | burn 3\n" + bad + "\n")

    def test_golden_trace(self):
        res = synthesize_cutset_strategy(binary_spec(), 3, 1)
        verdict = simulate(res.trunc, 1, res.strategy, BudgetSequence.exponential(3))
        golden = (DATA / "binary_rate3_k1.trace").read_text()
        assert format_trace(verdict) == golden
