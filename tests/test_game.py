"""Game engine, strategies, deadline feasibility and synthesis.

Claims covered:
    - budgets that only a float would call constant are not constant
    - step applies protection before spread, rejects faults, keeps statuses
      monotone and disjoint, and leaves its input state alone
    - the in-place engine plays as the copy-per-round reference
      (tests/game_reference.py) on random truncations and Cayley balls of
      every model: same traces, verdicts, faults and fault rounds, also
      with every round and protect set, of balls and of truncations,
      forced through the numpy pass;
      protect sets past SPREAD_VECTOR_MIN that mix negative, burning,
      out-of-ball and huge ids fail with the reference's fault, message and
      round, and a trace records each protect set once, sorted
    - simulate reproduces the hand-traced verdicts (ray, binary cut play)
      and never reports containment when the fire can reach the horizon
    - canonical strategies pick closest-first with deterministic ties
    - feasibility matches hand arithmetic, is monotone in budgets, and the
      greedy on chain-ordered levels agrees with the count recursion; both
      agree with the Pareto profile program (tests/pareto_reference.py) on
      feasibility and witness profile, and every witness separates the
      root from the boundary within its deadlines; Fibonacci near its
      threshold keeps the profiles the count recursion found and decides
      at depth 40 at once
    - synthesized cutset strategies stay within budget, play level n at
      round n - k, and contain; synthesis materialises only the truncation
      it returns, so a cut past the vertex cap fails at once
    - traces round-trip through the text format (golden file); malformed
      trace lines are rejected by line number
"""

import bisect
import math
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from firebreak import (
    BudgetSequence,
    CanonicalStrategy,
    FreeAbelian,
    FreeGroup,
    FreeProductCyclic,
    Cutset,
    ResourceLimitError,
    ScheduleStrategy,
    SpecError,
    StrategyFault,
    SynthesisError,
    cayley_ball,
    cut_weight,
    expand,
    feasibility_check,
    format_trace,
    GameState,
    infinite_dihedral,
    initial_state,
    level_counts,
    max_flow,
    parse_trace,
    run_game,
    simulate,
    step,
    synthesize_cutset_strategy,
)
import firebreak.game as game_mod
from firebreak.game import BURNING, PROTECTED, UNTOUCHED, cut_weight_target
from firebreak.trees import ExplicitSpec, PeriodicSpec, compile
from conftest import (
    binary_spec,
    budget_catalogue,
    fibonacci_spec,
    random_explicit_tree,
    random_periodic_spec,
    random_symmetric_spec,
    random_truncation,
    ray_spec,
    ternary_spec,
    witness_vertices,
)
import game_reference
from pareto_reference import pareto_feasibility

DATA = Path(__file__).parent / "data"


def assert_valid_witness(spec, k, budget, depth, result):
    """The witness separates the root from the boundary of expand(spec,
    depth), lies outside the fire's ball, meets every deadline and has the
    reported level counts."""
    t = expand(spec, depth)
    cut = witness_vertices(result, t)
    assert Cutset(frozenset(cut)).separates(t)
    levels = [t.level[v] for v in cut]
    assert all(lv > k for lv in levels)
    for n in range(k + 1, depth + 1):
        assert sum(lv <= n for lv in levels) <= budget.cumulative(n - k)
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

    def test_parse_roundtrip(self):
        for text in ("const:2", "exp:3/2", "exp:1.5", "poly:2,3", "list:1,0,2"):
            b = BudgetSequence.parse(text)
            assert BudgetSequence.parse(b.describe())(3) == b(3)

    def test_parse_rejects(self):
        for text in ("", "exp", "exp:zero", "q:1", "const:-1"):
            with pytest.raises(SpecError):
                BudgetSequence.parse(text)

    def test_stabilization(self):
        assert BudgetSequence.constant(1).stabilization_round() == 1
        assert BudgetSequence.explicit([3, 1, 1]).stabilization_round() == 3
        assert BudgetSequence.exponential(2).stabilization_round() is None
        assert BudgetSequence.exponential(Fraction(1, 2)).stabilization_round() == 1
        assert BudgetSequence.exponential(1).stabilization_round() == 1
        assert BudgetSequence.polynomial(0, 3).stabilization_round() == 1

    def test_stabilization_is_exact(self):
        # both budgets read as constant through a float, and neither is
        tiny = BudgetSequence.parse("poly:1/1" + "0" * 400 + ",1")
        assert float(tiny.coeff) == 0 and tiny(1) == 0 and tiny(10 ** 401) == 10
        assert tiny.stabilization_round() is None
        barely = BudgetSequence.exponential(1 + Fraction(1, 10 ** 20))  # floor(rate**n) grows
        assert float(barely.rate) == 1 and barely.rate > 1
        assert barely.stabilization_round() is None


class TestStep:
    def test_ray_protect_blocks_spread(self):
        t = expand(ray_spec(), 4)
        state = initial_state(t, 0)
        after = step(state, [1], 1)
        assert after.frontier == ()
        assert after.burning_count() == 1

    def test_binary_no_protection_spreads(self):
        t = expand(binary_spec(), 3)
        after = step(initial_state(t, 0), [], 0)
        assert after.frontier == (1, 2)

    def test_ball1_one_guard(self):
        # fire on the radius-1 ball, one level-2 guard: 3 of 4 level-2
        # vertices burn
        t = expand(binary_spec(), 3)
        state = initial_state(t, 1)
        after = step(state, [3], 1)
        assert after.frontier == (4, 5, 6)
        assert after.statuses[3] == PROTECTED

    def test_budget_fault(self):
        t = expand(binary_spec(), 3)
        with pytest.raises(StrategyFault):
            step(initial_state(t, 0), [1, 2], 1)

    def test_burning_fault(self):
        t = expand(binary_spec(), 3)
        with pytest.raises(StrategyFault) as err:
            step(initial_state(t, 1), [1], 5)
        assert err.value.round_no == 1

    def test_statuses_monotone_and_disjoint(self):
        t = expand(binary_spec(), 4)
        state = initial_state(t, 0)
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


def _engine_outcome(play, *args):
    try:
        return play(*args)
    except (StrategyFault, SpecError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "round_no", None)


ENGINE_MODELS = [FreeGroup(1), FreeGroup(2), FreeAbelian(1), FreeAbelian(2), FreeAbelian(3),
                 infinite_dihedral(), FreeProductCyclic((2, 3)), FreeProductCyclic((3, 3))]


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

    def test_matches_copy_per_round_reference(self):
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
        # with the threshold at 1, every ball round and every protect set
        # takes the numpy pass
        spread, calls = game_mod._spread_rows, Counter()
        monkeypatch.setattr(game_mod, "SPREAD_VECTOR_MIN", 1)
        monkeypatch.setattr(game_mod, "_spread_rows",
                            lambda *args: calls.update(["spread"]) or spread(*args))
        self.test_matches_copy_per_round_reference()
        self.test_step_leaves_its_input_alone()
        assert calls["spread"] > 100, calls

    def test_numpy_rounds_on_truncations_match_reference(self, monkeypatch):
        # truncations have rows too: with the threshold at 1 every round of
        # a truncation game spreads in the numpy pass
        spread, calls = game_mod._spread_rows, Counter()
        monkeypatch.setattr(game_mod, "SPREAD_VECTOR_MIN", 1)
        monkeypatch.setattr(game_mod, "_spread_rows",
                            lambda *args: calls.update(["spread"]) or spread(*args))
        monkeypatch.setattr(self, "arenas", lambda rng: (
            random_truncation(rng, max_depth=7, size_limit=400) for _ in range(300)))
        self.test_matches_copy_per_round_reference()
        assert calls["spread"] > 100, calls

    def test_containment_check_matches_the_loop(self):
        # the one-pass check (parent links of a truncation, rows of a ball)
        # against the per-vertex loop: on fires whose untouched neighbours
        # are all protected, or all but some, and on random statuses
        rng = random.Random(59)
        seen = Counter()
        for arena in self.arenas(rng):
            n = arena.n_vertices
            for _ in range(6):
                radius = rng.randrange(arena.depth + 1)
                statuses = bytearray(BURNING if arena.level[v] <= radius else UNTOUCHED
                                     for v in range(n))
                keep = rng.choice((1.0, 1.0, 0.9, 0.5))
                for v in range(bisect.bisect_right(arena.level, radius)):
                    for w in arena.neighbors(v):
                        if statuses[w] == UNTOUCHED and rng.random() < keep:
                            statuses[w] = PROTECTED
                randoms = bytearray(rng.choices((UNTOUCHED, PROTECTED, BURNING),
                                                [rng.random() for _ in range(3)], k=n))
                for status in (statuses, randoms, bytearray(n), bytearray([BURNING]) * n):
                    state = GameState(arena, status, 0, ())
                    want = game_reference._separated(state)
                    assert game_mod._separated(state) == want
                    seen[want, type(arena).__name__] += 1
        assert min(seen.values()) > 100 and len(seen) == 4, seen

    def test_large_protect_sets_fail_as_the_reference(self):
        # protect sets past SPREAD_VECTOR_MIN mixing a negative id, a burning
        # id, an id past the ball and 10**30: same fault, message and round
        b = cayley_ball(FreeGroup(2), 7)
        n, size, rng = b.n_vertices, game_mod.SPREAD_VECTOR_MIN, random.Random(67)
        budget, kinds = BudgetSequence.constant(n), Counter()
        for _ in range(60):
            round_no = rng.randint(1, 3)  # a radius-1 fire covers B(round_no) as it plays
            burning = bisect.bisect_right(b.level, round_no)
            protect = rng.sample(range(burning, n), size + rng.randint(0, 50))
            bad = (-rng.randint(1, 3), rng.randrange(burning), n + rng.randint(0, 3), 10 ** 30)
            protect += [v for v in bad if rng.random() < 0.4]
            rng.shuffle(protect)
            schedule = {round_no: protect}
            if round_no > 1 and rng.random() < 0.5:  # an earlier large round that is valid
                schedule[1] = rng.sample(range(bisect.bisect_right(b.level, 5), n), size)
            got, want = (_engine_outcome(play, b, 1, ScheduleStrategy(schedule), budget)
                         for play in (simulate, game_reference.simulate))
            assert got == want
            state = initial_state(b, round_no)
            got, want = (_engine_outcome(play, state, protect, n)
                         for play in (step, game_reference.step))
            if isinstance(want, tuple):
                assert got == want
                kinds[want[0], want[1].split()[1].startswith("-")] += 1
            else:
                assert (got.frontier, got.statuses) == (want.frontier, want.statuses)
                kinds["played"] += 1
        assert set(kinds) == {("SpecError", True), ("SpecError", False),
                              ("StrategyFault", False), "played"}, kinds

    def test_step_leaves_its_input_alone(self):
        rng = random.Random(59)
        for arena in self.arenas(rng):
            state = ref = initial_state(arena, rng.randrange(arena.depth))
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
                assert (got.frontier, got.statuses) == (want.frontier, want.statuses)
                state, ref = got, want


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
        level3 = tuple(v for v in range(t.n_vertices) if t.level[v] == 3)
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

    def test_fire_starting_on_boundary_is_inconclusive(self):
        t = expand(ray_spec(), 3)
        v = run_game(t, [0, 1, 2, 3], ScheduleStrategy({}), BudgetSequence.constant(9))
        assert v.kind == "boundary_reached" and v.round_no == 0


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
        level3 = [v for v in range(t.n_vertices) if t.level[v] == 3]
        v = simulate(t, 1, CanonicalStrategy(level3), BudgetSequence.exponential(3))
        assert v.contained
        protected = set(v.trace[0].protected) | set(v.trace[1].protected)
        assert protected == set(level3)

    def test_tie_break_is_vertex_order(self):
        t = expand(binary_spec(), 3)
        strat = CanonicalStrategy([6, 4, 3])
        picks = strat.protect_for(initial_state(t, 0), 1, 2)
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
            depth = spec.height()
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
                depth = spec.height()
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
                if spec.height() < 1:
                    continue
                depth = rng.randint(1, spec.height() + 2)  # may end before the horizon
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
        # counts at the fire's radius handed in, as contain's evidence rows
        # walk them once, give the result of a walk from the root
        rng = random.Random(83)
        budgets = budget_catalogue()
        for _ in range(150):
            spec = (random_periodic_spec(rng, allow_dead=True) if rng.random() < 0.6
                    else random_explicit_tree(rng, max_vertices=14))
            k = rng.randrange(3)
            sphere = next(islice(compile(spec).iter_state_counts(), k, None))
            for depth in range(k + 1, k + 4):
                budget = rng.choice(budgets)
                assert feasibility_check(spec, k, budget, depth, sphere_counts=sphere) == \
                    feasibility_check(spec, k, budget, depth)

    def test_no_boundary_is_trivially_feasible(self):
        spec = ExplicitSpec(parents=(0, 0))
        r = feasibility_check(spec, 0, BudgetSequence.constant(0), 5)
        assert r.feasible and r.witness_paths == ()


class TestSynthesis:
    @staticmethod
    def check_weight(res, rate):
        # the recursion's W(depth) is the weight of the materialised cut and
        # the value of the reference max flow
        assert res.weight < res.epsilon
        assert res.weight == cut_weight(res.trunc, res.cutset, rate) \
            == max_flow(res.trunc, rate).value

    @pytest.mark.parametrize("k", [1, 2])
    def test_binary_rate3(self, k):
        budget = BudgetSequence.exponential(3)
        res = synthesize_cutset_strategy(binary_spec(), 3, k)
        self.check_weight(res, 3)
        for round_no, vertices in res.strategy.schedule.items():
            assert len(vertices) <= budget(round_no)
            for v in vertices:
                assert res.trunc.level[v] == round_no + k
        verdict = simulate(res.trunc, k, res.strategy, budget)
        assert verdict.contained

    def test_binary_rate3_k1_cut_is_level3(self):
        res = synthesize_cutset_strategy(binary_spec(), 3, 1)
        assert res.depth == 3
        assert res.weight == Fraction(8, 27)
        assert len(res.cutset.edges) == 8
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
        # rate barely above the branching number: light cutsets exist only
        # far deeper than the cap
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
        assert res.depth == 5
        assert depths == [5]

    def test_cut_past_the_vertex_cap_fails_at_once(self):
        # fib at 17/10, k=2 cuts at depth 33, which has 24,157,815 vertices
        with pytest.raises(ResourceLimitError, match="FIREBREAK_VERTEX_CAP"):
            synthesize_cutset_strategy(fibonacci_spec(), Fraction(17, 10), 2)

    @pytest.mark.parametrize("rate, depth", [(3.0, 3), (2.5, 6)])
    def test_float_rate_synthesises_as_its_rational(self, rate, depth):
        # a float rate is the rational it is: no margin on its weight target
        res = synthesize_cutset_strategy(binary_spec(), rate, 1, depth_max=12)
        exact = synthesize_cutset_strategy(binary_spec(), Fraction(rate), 1, depth_max=12)
        assert res.depth == exact.depth == depth
        assert res.cutset == exact.cutset
        assert res.weight == exact.weight == cut_weight(res.trunc, res.cutset, rate)
        assert type(res.weight) is type(res.epsilon) is Fraction
        verdict = simulate(res.trunc, 1, res.strategy, BudgetSequence.exponential(rate))
        assert verdict.contained


class TestSmallerFiresInherit:
    def test_ball_strategy_contains_smaller_fires(self):
        # replay the trace of a winning ball strategy against every fire
        # inside the ball: still contained
        rng = random.Random(31)
        checked = 0
        while checked < 12:
            spec = random_explicit_tree(rng, max_vertices=12)
            depth = spec.height()
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
            ball_ids = [v for v in range(t.n_vertices) if t.level[v] <= k]
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
        level3 = tuple(v for v in range(t.n_vertices) if t.level[v] == 3)
        verdict = simulate(t, 1, ScheduleStrategy({2: level3}),
                           BudgetSequence.exponential(3))
        text = format_trace(verdict)
        schedule, summary = parse_trace(text)
        assert schedule == {1: (), 2: level3}
        assert summary == {"kind": "contained", "round_no": 2, "burnt": 7}

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
