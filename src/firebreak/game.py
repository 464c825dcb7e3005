"""The firefighting game on arenas: per-round protection budgets, fire
spread, strategies, the exact deadline-feasibility decision, and
cutset-strategy synthesis.

Game rules per round: the player marks at most f_n non-burning vertices as
protected, then fire spreads to every untouched neighbour of a burning
vertex.  Statuses are permanent.  The fire is contained once a round adds
no new burning vertex.

An *arena* is a ``trees.Truncation``: a tree truncation, or a Cayley ball
(the truncation of a word acceptor whose rows list the Cayley graph's
adjacency).
The game reads only this surface of it and asks no arena its class:
``n_vertices``; ``level_starts``, the first id of each level (distance
from the root) 0..``depth`` and the vertex count, which give the initial
fire, the first id that may be on the boundary and the level path below;
``depth``; ``boundary_mask``, one byte per vertex, 1 on the vertices whose
burning makes the outcome inconclusive at this depth, all at level
``depth``, which ``reached`` reads only at frontier ids at level ``depth``
for ``run_game`` and the oracle alike;
``neighbors(v)``, row v of the arena's one adjacency, and ``rows()``,
numpy views of its row offsets and column ids, built whole on first read;
and ``separated(statuses)``, the check on the same rows that a contained
fire has no untouched neighbour.

A vertex's level is its distance from the root, so every row entry lies
within one level of its vertex, and every vertex below the root has its
parent one level up.  A frontier that is one run ending at the end of a
level L below ``depth``, that covers all of level L, and before which no
id of its first level or the level above is untouched, therefore spreads
to exactly the untouched ids of level L + 1: ``_level_round`` reads them
off ``level_starts`` and the statuses, with no row.  A fire that fills the
ball up to a level each round, as a surround's does, reads no row at all.

A round's protect set and any other frontier are id sets of
``trees.id_set``, and the helper there picks each path: ``mark`` checks and
marks the protect set and reports its first bad id, which ``_advance``
raises as the loop would, and ``row_entries`` reads a frontier's rows or
leaves a small one to ``_advance``'s loop over ``neighbors``.

``run_game`` plays the whole game on one status array that it changes in
place, so the ``GameState.statuses`` a strategy sees is live; ``step``
copies it and leaves its input alone.  Both keep each frontier in the form
``_advance`` gave it, and so does the trace, whose rounds read their id
sets as tuples of ints.  A contained game's burnt count is the fire's size
plus each frontier's.  ``parse_schedule`` and ``format_schedule`` read and
write the ``r:ids;r:ids`` schedules of the command line and the oracle cache.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, islice, pairwise
from typing import Iterable, Mapping

from .branching import compare_to_br, cut_recursion, exact_rate, min_cutset
from .errors import ResourceLimitError, SpecError, StrategyFault, SynthesisError
from . import trees  # SPREAD_VECTOR_MIN as it stands when a round reads it
from .trees import (BURNING, PROTECTED, UNTOUCHED, Automaton, Value, as_tuple, expand,
                    format_id_set, id_set, mark, np, row_entries)


# ---------------------------------------------------------------------------
# Budgets
# ---------------------------------------------------------------------------


class BudgetSequence(Value):
    """f(n) for n >= 1, named by the CLI's ``kind`` and its ``params``:
    ``const`` (c,); ``exp`` (rate,), floor(rate**n); ``poly`` (coeff,
    degree), floor(coeff * n**degree); ``list`` the values, the last of
    which repeats forever, so explicit budgets are eventually constant.
    A rate or coefficient is the Fraction exact_rate reads, and a value is
    a floor division of its numerator's and denominator's integer terms:
    p**n // q**n for the rate p/q, a * n**degree // b for the coeff a/b."""

    _fields = ("kind", "params")
    _defaults = {"params": ()}

    @classmethod
    def constant(cls, c: int) -> "BudgetSequence":
        if c < 0:
            raise SpecError("budget must be non-negative")
        return cls("const", (c,))

    @classmethod
    def exponential(cls, rate) -> "BudgetSequence":
        rate = exact_rate(rate)
        if rate <= 0:
            raise SpecError("budget rate must be positive")
        return cls("exp", (rate,))

    @classmethod
    def polynomial(cls, coeff, degree: int) -> "BudgetSequence":
        coeff = exact_rate(coeff)
        if coeff < 0 or degree < 0:
            raise SpecError("polynomial budget needs coeff >= 0 and degree >= 0")
        return cls("poly", (coeff, degree))

    @classmethod
    def explicit(cls, values: Iterable[int]) -> "BudgetSequence":
        vals = tuple(int(v) for v in values)
        if any(v < 0 for v in vals):
            raise SpecError("budgets must be non-negative")
        return cls("list", vals)

    @classmethod
    def parse(cls, text: str) -> "BudgetSequence":
        """CLI syntax: const:2 | exp:1.5 | exp:3/2 | poly:1,2 | list:3,0,1"""
        if ":" not in text:
            raise SpecError(f"budget {text!r} must look like kind:params")
        kind, params = text.split(":", 1)
        try:
            if kind == "const":
                return cls.constant(int(params))
            if kind == "exp":
                return cls.exponential(Fraction(params))
            if kind == "poly":
                coeff, degree = params.split(",")
                return cls.polynomial(Fraction(coeff), int(degree))
            if kind == "list":
                return cls.explicit(int(v) for v in params.split(","))
        except SpecError:  # a ValueError, but it gives its own reason
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"bad budget parameters in {text!r}") from exc
        raise SpecError(f"unknown budget kind {kind!r}")

    def __call__(self, n: int) -> int:
        if n < 1:
            raise SpecError("budgets are defined for rounds n >= 1")
        kind, params = self.kind, self.params
        if kind == "const":
            return params[0]
        if kind == "exp":
            return params[0].numerator ** n // params[0].denominator ** n
        if kind == "poly":
            return params[0].numerator * n ** params[1] // params[0].denominator
        if not params:
            return 0
        return params[n - 1] if n <= len(params) else params[-1]

    def prefix_sums(self, m: int) -> list[int]:
        """f(1) + ... + f(j) for j = 1..m, in one walk."""
        return list(accumulate(map(self, range(1, m + 1))))

    def describe(self) -> str:
        return f"{self.kind}:{','.join(map(str, self.params))}"


# ---------------------------------------------------------------------------
# Game state and stepping
# ---------------------------------------------------------------------------


class GameState:
    """The arena, its statuses (live during ``run_game``), the round played
    last and its frontier, the vertices that started burning in it."""

    __slots__ = ("arena", "statuses", "round_no", "frontier")

    def __init__(self, arena, statuses: bytearray, round_no: int,
                 frontier: tuple[int, ...] | range | np.ndarray):
        self.arena, self.statuses, self.round_no, self.frontier = arena, statuses, round_no, frontier


def ball_ids(arena, radius: int) -> range:
    """The ids at levels 0..radius, read off ``level_starts``: the arena is level-major."""
    starts = arena.level_starts
    return range(starts[max(0, min(radius + 1, len(starts) - 1))])


def state_from_fire(arena, fire: Iterable[int]) -> GameState:
    """The fire burning on fresh statuses; SpecError names a fire id outside the arena."""
    statuses = bytearray(arena.n_vertices)
    fire = id_set(fire)
    if (bad := mark(statuses, fire, BURNING)) is not None:
        raise SpecError(f"initial fire vertex {bad} out of range")
    return GameState(arena=arena, statuses=statuses, round_no=0, frontier=fire)


def step(state: GameState, protect: Iterable[int], budget: int) -> GameState:
    """Protect, then spread, on a copy of the statuses."""
    statuses = bytearray(state.statuses)
    return GameState(arena=state.arena, statuses=statuses, round_no=state.round_no + 1,
                     frontier=_advance(state, statuses, protect, budget)[1])


def _advance(state: GameState, statuses: bytearray, protect: Iterable[int], budget: int):
    """Play round ``state.round_no + 1`` on ``statuses`` in place; return the protect set
    and the new burning vertices as id sets.  Protecting a burning vertex or overspending
    the budget is a strategy fault, no silent clip; an id outside the arena is a SpecError."""
    round_no = state.round_no + 1
    protect = id_set(protect)
    if (size := len(protect)) > budget:
        raise StrategyFault(round_no, f"protect set of size {size} exceeds budget {budget}")
    if (bad := mark(statuses, protect, PROTECTED)) is not None:
        if 0 <= bad < len(statuses):
            raise StrategyFault(round_no, f"vertex {bad} is burning and cannot be protected")
        raise SpecError(f"vertex {bad} is not in the arena")
    frontier, arena = state.frontier, state.arena
    if (newly := _level_round(arena, statuses, frontier)) is not None:
        return protect, newly
    if (reached := row_entries(arena, frontier)) is None:
        newly = []
        for v in frontier:
            for w in arena.neighbors(v):
                if statuses[w] == UNTOUCHED:
                    statuses[w] = BURNING
                    newly.append(w)
        return protect, id_set(newly)
    view = np.frombuffer(statuses, np.uint8)
    reached = reached[view[reached] == UNTOUCHED]
    view[reached] = BURNING
    return protect, id_set(reached)


def _level_round(arena, statuses: bytearray, frontier):
    """The new fire, marked burning, of a frontier that fills the arena up to
    the end of a level below its depth, read off the level starts and the
    statuses (see the module docstring); None for any other frontier."""
    size, starts = len(frontier), arena.level_starts
    if not size or (a := frontier[0]) + size - 1 != frontier[-1]:
        return None
    i = bisect_left(starts, e := a + size)  # level L + 1 = i, empty past a finite tree's end
    if i > arena.depth or starts[i] != e or starts[i - 1] < a or statuses.find(
            UNTOUCHED, starts[max(bisect_right(starts, a) - 2, 0)], a) >= 0:
        return None
    if (untouched := statuses.count(UNTOUCHED, e, hi := starts[i + 1])) == hi - e:
        statuses[e:hi] = bytes((BURNING,)) * untouched
        return id_set(range(e, hi))
    if untouched < trees.SPREAD_VECTOR_MIN:  # a tuple, as id_set makes it: found id by id
        newly, v = [], e
        while (v := statuses.find(UNTOUCHED, v, hi)) >= 0:
            statuses[v] = BURNING
            newly.append(v)
        return tuple(newly)
    level = np.frombuffer(statuses, np.uint8)[e:hi]
    newly = np.flatnonzero(level == UNTOUCHED)
    level[newly] = BURNING
    return newly + e


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


class ScheduleStrategy:
    """Fixed map round -> protect set.  Synthesis plays the cut vertices at
    level n in round n - radius; wait-and-surround plays one sphere in its
    trigger round.  Each round is kept as an id set (``trees.id_set``).  A
    round below 1 is never played, so it raises SpecError as ``add_round``
    does."""

    def __init__(self, schedule: Mapping[int, Iterable[int]]):
        self.schedule: dict = {}
        for r, vs in schedule.items():
            add_round(self.schedule, int(r), id_set(vs), "schedule")

    def protect_for(self, state: GameState, round_no: int, budget: int) -> Iterable[int]:
        return self.schedule.get(round_no, ())


def add_round(schedule: dict[int, tuple[int, ...]], round_no: int, ids: tuple[int, ...],
              where: str) -> None:
    """Add one round read from ``where`` to a schedule.  A round below 1 is
    never played and a repeated one would replace the first, so both raise
    SpecError naming the round."""
    if round_no < 1:
        raise SpecError(f"{where}: round {round_no} is never played; rounds start at 1")
    if round_no in schedule:
        raise SpecError(f"{where}: round {round_no} is given twice")
    schedule[round_no] = ids


def read_int(text: str, where: str) -> int:
    """One integer of a schedule or an id list; SpecError names ``where`` and the text."""
    try:
        return int(text)
    except ValueError:
        raise SpecError(f"{where}: {text!r} is not an integer") from None


def parse_schedule(text: str, where: str) -> dict[int, tuple[int, ...]]:
    """``r:ids;r:ids``, ids comma-separated, ``-`` for an empty round and ``-`` alone
    for no rounds; each round goes through ``add_round``, so SpecError names ``where``."""
    schedule: dict[int, tuple[int, ...]] = {}
    for chunk in text.split(";") if text != "-" else ():
        r, _, ids = chunk.partition(":")
        add_round(schedule, read_int(r, where), () if ids == "-" else
                  tuple(read_int(t, where) for t in ids.split(",") if t), where)
    return schedule


def format_schedule(schedule: Mapping[int, Iterable[int]]) -> str:
    """The text ``parse_schedule`` reads, rounds in order."""
    return ";".join(f"{r}:{','.join(map(str, ids)) or '-'}"
                    for r, ids in sorted(schedule.items())) or "-"


class CanonicalStrategy:
    """Given a target set, protect each round the budgeted number of its
    vertices closest to the root among those neither burning nor
    protected.  The arena is level-major, so these are the first untouched
    ids in id order."""

    def __init__(self, vprime: Iterable[int]):
        self.vprime = tuple(sorted(set(vprime)))

    def protect_for(self, state: GameState, round_no: int, budget: int) -> tuple[int, ...]:
        statuses = state.statuses
        return tuple(islice((v for v in self.vprime if statuses[v] == UNTOUCHED), budget))


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

CONTAINED = "contained"
BOUNDARY_REACHED = "boundary_reached"
ESCAPED_HORIZON = "escaped_horizon"


class TraceRound:
    """One played round: its sorted protect set and the vertices that
    started burning, kept in ``played`` as they were played; each becomes a
    tuple of ints on first read of ``protected`` or ``burnt``."""

    def __init__(self, round_no: int, protected, burnt):
        self.round_no, self.played = round_no, [protected, burnt]

    def _read(self, i: int) -> tuple[int, ...]:
        self.played[i] = as_tuple(self.played[i])
        return self.played[i]

    protected = property(lambda self: self._read(0))
    burnt = property(lambda self: self._read(1))

    def __eq__(self, other) -> bool:
        return isinstance(other, TraceRound) and (self.round_no, self.protected, self.burnt) == (
            other.round_no, other.protected, other.burnt)

    def __hash__(self) -> int:
        return hash((self.round_no, self.protected, self.burnt))

    def __repr__(self) -> str:
        return f"TraceRound({self.round_no}, protected={self.protected}, burnt={self.burnt})"


class Verdict(Value):
    """A game's outcome ``kind``, the round it ended in, the burnt vertices'
    count (None unless contained) and the played rounds' ``TraceRound``s
    (default none)."""

    _fields = ("kind", "round_no", "burnt", "trace")
    _defaults = {"trace": ()}

    @property
    def contained(self) -> bool:
        return self.kind == CONTAINED


def reached(arena, frontier) -> bool:
    """Whether a frontier holds a boundary vertex, looked up only for its ids at level
    ``depth``: a fire that stays off that level builds no boundary mask."""
    at = bisect_left(frontier, arena.level_starts[arena.depth])  # the first id at the depth
    return at < len(frontier) and any(map(arena.boundary_mask.__getitem__, frontier[at:]))


def run_game(arena, fire: Iterable[int], strategy, budget: BudgetSequence,
             horizon: int | None = None) -> Verdict:
    """Game engine for an arbitrary initial fire.  Public entry points
    restrict the fire to balls around the root."""
    if horizon is not None and horizon < 0:
        raise SpecError("horizon must be >= 0")
    state = state_from_fire(arena, fire)
    burnt = len(state.frontier)  # a vertex starts burning once: |fire| + each frontier's size
    if reached(arena, state.frontier):
        return Verdict(kind=BOUNDARY_REACHED, round_no=0, burnt=None, trace=())
    if horizon is None:
        horizon = arena.n_vertices + 2
    trace: list[TraceRound] = []
    for n in range(1, horizon + 1):
        f_n = budget(n)
        protect = strategy.protect_for(state, n, f_n)
        protect, frontier = _advance(state, state.statuses, protect, f_n)
        state = GameState(arena, state.statuses, n, frontier)
        burnt += len(frontier)
        trace.append(TraceRound(n, protect, frontier))
        if reached(arena, frontier):
            return Verdict(kind=BOUNDARY_REACHED, round_no=n, burnt=None, trace=tuple(trace))
        if not len(frontier):
            assert arena.separated(state.statuses), \
                "contained state has an exposed untouched vertex"
            return Verdict(kind=CONTAINED, round_no=n, burnt=burnt, trace=tuple(trace))
    return Verdict(kind=ESCAPED_HORIZON, round_no=horizon, burnt=None, trace=tuple(trace))


def simulate(trunc, radius: int, strategy, budget: BudgetSequence,
             horizon: int | None = None) -> Verdict:
    """Play the game with the fire starting on the radius-`radius` ball.
    Containment strategies for balls suffice: a strategy containing the
    ball contains every fire inside it."""
    if radius < 0:
        raise SpecError("initial radius must be >= 0")
    if radius >= trunc.depth:
        raise SpecError("initial radius must be smaller than the truncation depth")
    return run_game(trunc, ball_ids(trunc, radius), strategy, budget, horizon)


# -- trace files -------------------------------------------------------------


def format_trace(verdict: Verdict) -> str:
    lines = [f"round {r.round_no} | protect {format_id_set(r.played[0])} | "
             f"burn {format_id_set(r.played[1])}" for r in verdict.trace]
    burnt = verdict.burnt if verdict.burnt is not None else "-"
    lines.append(f"verdict {verdict.kind} | round {verdict.round_no} | burnt {burnt}")
    return "\n".join(lines) + "\n"


def parse_trace(text: str, source: str = "trace") -> tuple[dict[int, tuple[int, ...]], dict]:
    """Returns (schedule, verdict summary) from a trace file.  A malformed
    round or verdict line, or a round below 1 or given twice, raises
    SpecError naming the source and line."""
    schedule: dict[int, tuple[int, ...]] = {}
    summary: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("|")]
        try:
            if parts[0].startswith("round"):
                add_round(schedule, int(parts[0].split()[1]),
                          tuple(int(t) for t in parts[1].split()[1:] if t != "-"),
                          f"{source}: line {lineno}")
            elif parts[0].startswith("verdict"):
                summary["kind"] = parts[0].split()[1]
                summary["round_no"] = int(parts[1].split()[1])
                burnt = parts[2].split()[1]
                summary["burnt"] = None if burnt == "-" else int(burnt)
        except SpecError:  # a ValueError, but it names its line already
            raise
        except (ValueError, IndexError) as exc:
            raise SpecError(f"{source}: line {lineno}: malformed trace line {raw!r}") from exc
    return schedule, summary


# ---------------------------------------------------------------------------
# Deadline feasibility: does a vertex cut with per-level deadlines exist?
# ---------------------------------------------------------------------------
#
# A containment strategy for a ball of radius k exists within depth D
# exactly when some vertex set V' at levels k+1..D hits every root-to-
# boundary path and satisfies, for every n, the deadline
#     |{v in V' : level(v) <= n}| <= f(1) + ... + f(n-k)
# (each cut vertex must be protected before the fire front, which advances
# one level per round, reaches it; protection precedes spread, so level n
# must be bought by round n-k).  A vertex is live when its subtree reaches
# the boundary and no ancestor of it is cut, and its class at its level is
# the isomorphism class of its live subtree (Aho, Hopcroft and Ullman's
# level-by-level canonical numbering, read off the automaton: vertices of
# one state at one level share a class, and so do states the spec writes
# twice).  The decision runs on live counts per (level, class), so it and
# its witness depend on the tree, not on how the spec writes it down.
# Among the feasible cuts it picks the lexicographically minimal cumulative
# level-count profile.
#
# Before any class table, a depth whose live level-(k+1) vertices
# outnumber f(1) + ... + f(D-k) is refused: each needs a cut vertex of its
# own.  Feasibility is monotone in D, as a cut that blocks the depth-D
# boundary blocks the depth-(D+1) one (``feasibility_rows`` bisects on it).
#
# Two exchange arguments settle most levels without search:
#   1. spending headroom early is never worse: a later cut vertex in the
#      subtree of a live vertex v can be swapped for v itself;
#   2. when the live subtree of s embeds into t's, leaving s live is never
#      worse than leaving t live: a cut below t maps back to one below s.
# The classes of a level are ranked by embedding from the ranks of their
# live children (_chain_ranks).  On a level whose classes form a chain,
# above levels that all do, the cut vector is fixed by its size: cut the
# highest-ranked classes first.  So one greedy pass that spends the
# whole headroom at every level decides feasibility, and the lex-min
# profile takes at each level the least size whose greedy completion
# succeeds (a bisection, as a larger size never hurts).  Deadline cuts are
# NP-hard on general trees (Finbow, King, MacGillivray and Rizzi 2007):
# levels with incomparable classes keep an exact memoised recursion over
# their cut vectors, which hands over to the greedy at the first level
# below which every level is a chain.  The witness cuts, at each level, the
# first live vertices of each class in path order.

FEASIBILITY_WORK_MAX = 1_000_000  # cut choices the count recursion may try
WITNESS_CUT_MAX = 100_000  # most cut vertices whose witness paths are listed


@dataclass(frozen=True)  # the one dataclass: feasibility_check ``replace``s its witness
class FeasibilityResult:
    feasible: bool
    depth: int
    radius: int
    witness_paths: tuple[tuple[int, ...], ...] | None = None
    witness_levels: tuple[tuple[int, int], ...] | None = None  # (level, count)


def feasibility_check(spec: Automaton, radius: int, budget: BudgetSequence,
                      depth: int) -> FeasibilityResult:
    """Decide whether a deadline-respecting vertex cut exists within the
    given depth.  Feasible results carry a witness: the cut's paths from
    the root, except that a cut of more than WITNESS_CUT_MAX vertices has
    only its ``witness_levels`` and ``witness_paths`` None.  Infeasible at
    one depth is evidence only, since deeper cuts may exist."""
    result, plan = _decide(spec, radius, budget, depth)
    if plan is None:
        return result
    return replace(result, witness_paths=_witness_paths(spec, radius, depth, *plan))


def feasibility_decision(spec: Automaton, radius: int, budget: BudgetSequence,
                         depth: int) -> FeasibilityResult:
    """``feasibility_check``'s decision and ``witness_levels`` without its
    witness paths, which take most of a feasible check's time: for callers
    that read only the decision.  ``witness_paths`` is None unless the
    empty cut is the witness."""
    return _decide(spec, radius, budget, depth)[0]


def _decide(spec, radius, budget, depth, sphere_counts=None):
    """The argument checks, then ``_feasibility_counts``' result and plan.
    ``sphere_counts`` are the vertices per automaton state at level radius,
    as ``Automaton.iter_state_counts`` yields them, which ``feasibility_rows``
    walks once for all its depths; without them they are walked here."""
    if radius < 0:
        raise SpecError("initial radius must be >= 0")
    if depth <= radius:
        raise SpecError("depth must exceed the initial radius")
    if sphere_counts is None:
        sphere_counts = next(islice(spec.iter_state_counts(), radius, None))
    return _feasibility_counts(spec, radius, budget.prefix_sums(depth - radius), depth,
                               sphere_counts)


def feasibility_rows(spec: Automaton, radius: int, budget: BudgetSequence,
                     depths: Iterable[int]) -> list[bool]:
    """``feasibility_decision(spec, radius, budget, D).feasible`` for each of
    the increasing depths D.  Feasibility is monotone in D, so the deepest
    depth is decided, and only when it is feasible are the others bisected
    for the first feasible one."""
    depths = list(depths)
    if radius < 0:
        raise SpecError("initial radius must be >= 0")
    if depths and depths[0] <= radius:
        raise SpecError("depth must exceed the initial radius")
    if any(a >= b for a, b in pairwise(depths)):
        raise SpecError("depths must increase")
    if not depths:
        return []
    sphere_counts = next(islice(spec.iter_state_counts(), radius, None))

    def feasible(i: int) -> bool:
        return _decide(spec, radius, budget, depths[i], sphere_counts)[0].feasible

    if not feasible(len(depths) - 1):
        return [False] * len(depths)
    first = bisect_left(range(len(depths) - 1), True, key=feasible)
    return [i >= first for i in range(len(depths))]


def _chain_ranks(child_ranks: list[tuple[int, ...]]) -> list[int] | None:
    """Embedding ranks of a level's classes, from each class's live-child
    ranks sorted decreasing: s <= t when s's tuple is no longer than t's and
    pointwise <= it, that is when s's live subtree embeds into t's, matching
    children largest to largest.  None when two classes are incomparable."""
    shapes = sorted(set(child_ranks), key=lambda r: (len(r), r))  # extends the order
    if any(x > y for a, b in pairwise(shapes) for x, y in zip(a, b)):
        return None
    rank = {r: i for i, r in enumerate(shapes)}
    return [rank[r] for r in child_ranks]


def _classify(succ, cls: dict, sig: dict, lv: int, states) -> None:
    """sig[lv] and cls[lv] for the given states at level lv, from cls[lv + 1]."""
    below = cls[lv + 1]
    found = {s: tuple(sorted(below[t] for t in succ[s] if t in below)) for s in states}
    sig[lv] = sorted({g for g in found.values() if g})
    number = {g: c for c, g in enumerate(sig[lv])}
    cls[lv] = {s: number[g] for s, g in found.items() if g}


def _feasibility_counts(auto, radius: int, caps: list[int], depth: int,
                        sphere_counts: dict[int, int]):
    """The decision without witness paths, and what ``_witness_paths``
    builds them from (cut vectors, class tables), or None for no paths."""
    succ = auto.children
    # the state counts at levels radius+1..depth: nothing is cut within the ball
    walk = auto.iter_state_counts(sphere_counts)
    next(walk)
    forward = [next(walk)]
    # the level-(k+1) vertices with a descendant that continues at the boundary
    heights = auto.live_heights
    live = sum(n for s, n in forward[0].items() if heights[s] >= depth - radius - 1)
    if not live:
        return FeasibilityResult(feasible=True, depth=depth, radius=radius,
                                 witness_paths=(), witness_levels=()), None
    # every live vertex needs a cut vertex of its own: most decisions below
    # br fail this at once, before any level is walked
    if live > caps[-1]:
        return FeasibilityResult(feasible=False, depth=depth, radius=radius), None
    forward += islice(walk, depth - radius - 1)
    # per level L, the classes of the live vertices (those whose subtrees
    # reach the boundary), numbered in sorted order of their signatures: the
    # sorted classes of their live children, so sig[L][c] lists the children
    # of class c by their index at L + 1; cls[L] maps each state with live
    # vertices at L to its class
    cls = {depth: {s: 0 for s in forward[-1] if auto.continues(s)}}
    sig = {depth: [()] if cls[depth] else []}
    for lv in range(depth - 1, radius, -1):
        _classify(succ, cls, sig, lv, forward[lv - radius - 1])
    counts = [0] * len(sig[radius + 1])
    for s, c in cls[radius + 1].items():
        counts[c] += forward[0][s]
    counts = tuple(counts)
    # reach[L] the boundary vertices below each class, rank[L] their
    # embedding ranks (None off a chain)
    reach = {depth: [1] * len(sig[depth])}
    rank = {depth: _chain_ranks(sig[depth])}
    for lv in range(depth - 1, radius, -1):
        reach[lv] = [sum(reach[lv + 1][j] for j in g) for g in sig[lv]]
        below = rank[lv + 1]
        rank[lv] = None if below is None else _chain_ranks(
            [tuple(sorted((below[j] for j in g), reverse=True)) for g in sig[lv]])

    def descend(lv: int, uncut) -> tuple[int, ...]:
        out = [0] * len(sig[lv + 1]) if lv < depth else []
        for g, n in zip(sig[lv], uncut):
            for j in g:
                out[j] += n
        return tuple(out)

    def keep(lv: int, counts: tuple[int, ...], size: int) -> list[int]:
        """The live counts left at level lv after cutting size of them,
        the highest-ranked classes first."""
        left = list(counts)
        for i in sorted(range(len(left)), key=rank[lv].__getitem__, reverse=True):
            cut = min(left[i], size)
            left[i] -= cut
            size -= cut
        return left

    def completes(lv: int, counts: tuple[int, ...], spent: int) -> bool:
        """Whether the greedy, spending the whole headroom at every level
        from lv on, cuts every live vertex in time."""
        while any(counts):
            total = sum(counts)
            if spent + total > caps[-1]:  # every live vertex needs a cut vertex of its own
                return False
            if lv == depth:
                return True
            size = min(caps[lv - radius - 1] - spent, total)
            counts, spent, lv = descend(lv, keep(lv, counts, size)), spent + size, lv + 1
        return True

    def settle(lv: int, counts: tuple[int, ...], spent: int):
        """best() from a level whose classes and those below form chains."""
        if not completes(lv, counts, spent):
            return None
        sizes, cuts = [], []
        while any(counts):
            size = min(caps[lv - radius - 1] - spent, sum(counts))
            if lv < depth:  # the least size whose greedy completion succeeds
                size = _least(lambda s: completes(lv + 1, descend(lv, keep(lv, counts, s)),
                                                  spent + s), size)
            left = keep(lv, counts, size)
            sizes.append(size)
            cuts.append(tuple(n - x for n, x in zip(counts, left)))
            counts, spent, lv = descend(lv, left), spent + size, lv + 1
        return tuple(sizes), tuple(cuts)

    # best(L, counts, spent) is the lex-min tuple of per-level cut counts for
    # levels L..depth that completes a cut, with its cut vectors, given the
    # live count per class at level L and the cut vertices already spent;
    # lex-min per-level counts are lex-min cumulative counts.  Off a chain it
    # tries cut vectors x <= counts in order of sum(x) and stops at the first
    # sum that completes: a larger sum at level L loses on the first
    # coordinate.  A successor whose live count exceeds what the horizon
    # deadline leaves is dropped, and so is a class whose boundary vertices
    # no affordable cut could cover.
    peak = list(accumulate((max(reach[lv]) for lv in range(depth, radius, -1)), max))[::-1]
    memo: dict = {}
    work = 0

    def best(lv: int, counts: tuple[int, ...], spent: int):
        nonlocal work
        key = (lv, counts, spent)
        if key in memo:
            return memo[key]
        if rank[lv] is not None:
            memo[key] = settle(lv, counts, spent)
            return memo[key]
        # hopeless: were each cut vertex affordable from level j on to cover
        # peak[j] boundary vertices, the live ones would still not be covered
        ahead = caps[lv - radius - 1:]
        covered = sum((b - a) * p for a, b, p in zip([spent] + ahead, ahead,
                                                      peak[lv - radius - 1:]))
        if covered < sum(n * r for n, r in zip(counts, reach[lv])):
            return None
        total = sum(counts)
        room = caps[lv - radius - 1] - spent
        found = None
        for size in (total,) if lv == depth else range(min(room, total) + 1):
            if found is not None or size > room:
                break
            for cut in _splits(counts, size):
                work += 1
                if work > FEASIBILITY_WORK_MAX:
                    raise ResourceLimitError(f"deadline feasibility passed {FEASIBILITY_WORK_MAX:,}"
                                             " cut choices (FEASIBILITY_WORK_MAX)")
                rest = descend(lv, tuple(n - x for n, x in zip(counts, cut)))
                if spent + size + sum(rest) > caps[-1]:
                    continue
                tail = best(lv + 1, rest, spent + size) if any(rest) else ((), ())
                if tail is not None and (found is None or (size,) + tail[0] < found[0]):
                    found = ((size,) + tail[0], (cut,) + tail[1])
        memo[key] = found
        return found

    # one frame per level, each entered by a cut choice: the work cap bounds them
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, min(depth - radius, FEASIBILITY_WORK_MAX) + 100))
    try:
        chosen = best(radius + 1, counts, 0)
    finally:
        sys.setrecursionlimit(limit)
        best = None  # its closure holds it: free the memo and tables without the cyclic GC
    if chosen is None:
        return FeasibilityResult(feasible=False, depth=depth, radius=radius), None
    sizes, cuts = chosen
    result = FeasibilityResult(feasible=True, depth=depth, radius=radius,
                               witness_levels=tuple((radius + 1 + i, n)
                                                    for i, n in enumerate(sizes) if n))
    return result, (cuts, cls, sig) if sum(sizes) <= WITNESS_CUT_MAX else None


def _witness_paths(auto, radius: int, depth: int, cuts, cls: dict, sig: dict):
    """The witness of a feasible decision: at each level, the first live
    vertices of each class in path order, as many as its cut vector says."""
    succ, ball = auto.children, list(islice(auto.iter_state_counts(), radius + 1))
    for lv in range(radius, -1, -1):  # the ball states that lead to a live vertex below it
        _classify(succ, cls, sig, lv, ball[lv])
    paths: list = []
    plan = dict(enumerate(cuts, start=radius + 1))
    frontier = [((), auto.root)]  # (path, state) of the uncut live vertices, in path order
    for lv in range(depth + 1):
        left = list(plan.get(lv, [0] * len(sig[lv])))  # cut the first left[c] of class c
        uncut = []
        for path, s in frontier:
            if left[c := cls[lv][s]]:
                left[c] -= 1
                paths.append(path)
            else:
                uncut.append((path, s))
        live = cls.get(lv + 1, {})
        frontier = [(path + (c,), t) for path, s in uncut for c, t in enumerate(succ[s])
                    if t in live]
    return tuple(sorted(paths))


def _least(ok, hi: int) -> int:
    """The least s in 0..hi with ok(s), for ok monotone and ok(hi) true:
    probes 0, 1, 3, 7, ... and then bisects, so a small answer is cheap."""
    lo = probe = 0
    while probe < hi and not ok(probe):
        lo, probe = probe + 1, min(hi, 2 * probe + 1)
    hi = probe
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _splits(counts: tuple[int, ...], size: int):
    """Every vector x <= counts with sum(x) == size."""
    if not counts:
        if size == 0:
            yield ()
        return
    rest = sum(counts[1:])
    for first in range(max(0, size - rest), min(counts[0], size) + 1):
        for tail in _splits(counts[1:], size - first):
            yield (first,) + tail


# ---------------------------------------------------------------------------
# Cutset-strategy synthesis
# ---------------------------------------------------------------------------


class SynthesisResult(Value):
    """A synthesized schedule, the truncation and cutset it plays, the
    target eps, the cutset's weight (W(depth) from the per-state recursion),
    the cut depth and the fire's radius."""

    _fields = ("strategy", "trunc", "cutset", "epsilon", "weight", "depth", "radius")


def cut_weight_target(rate, radius: int, probe_range: int = 120) -> Fraction:
    """Largest eps such that any cutset lighter than eps schedules within
    budgets floor(rate**n): eps <= floor(rate**(n-radius)) / rate**n for
    every n > radius.  A bound sufficient for the level-by-level schedule,
    not its condition: synthesis stops on the per-level fit itself, and
    reports eps.  For the rate p/q the head is the least
    floor(P/Q) * Q / P over P = p**m, Q = q**m, in integers.  That ratio is
    at least 1 - (Q-1)/P, a bound that never falls as m grows, so the scan
    stops once the bound reaches the head (at m = 1 for an integer rate);
    past the probe range the floor loss is bounded analytically."""
    rate = exact_rate(rate)
    if rate <= 1:
        raise SynthesisError("budget rate must exceed 1 for cutset synthesis")
    p, q = rate.as_integer_ratio()
    big_p = big_q = num = den = 1  # the head is num / den
    for _ in range(probe_range):
        big_p, big_q = big_p * p, big_q * q
        if (big_p // big_q) * big_q * den < num * big_p:
            num, den = (big_p // big_q) * big_q, big_p
        if (big_p - big_q + 1) * den >= num * big_p:
            break
    top = p ** (probe_range + 1)  # the tail: 1 - rate**-(probe_range + 1)
    if num * top > (top - q ** (probe_range + 1)) * den:
        num, den = top - q ** (probe_range + 1), top
    return Fraction(num * q ** radius, den * p ** radius)


def min_cut_levels(spec: Automaton, steps):
    """Per depth D = 0, 1, ...: (step, counts), with ``step`` the
    recursion's step D as ``steps`` (cut_recursion's) yields it and
    counts {level: n} the number of vertices on each level of the depth-D
    cut that min_cutset returns, for the levels that have one.  Read per
    (level, state) off the steps, with no truncation built.  A state's value
    never rises with height, so an entry of state s at height h = D - level
    is cut while h is below c(s), the first height at which the value of s
    is below 1, and is open after, its count passed to its children a level
    down (to none at height 0; those of a value-0 entry have value 0 and
    are never cut).  Heights grow one a depth, so an entry enters the cut
    once and leaves it once, at depth level + c(s), by which depth the
    steps have reached c(s) and every c(t) below it.  So what an entry of s
    leaves to is the same each time: the cut entries of its open subtree,
    as (levels down, state, multiplicity), walked once a state (``spread``)
    on a table of (child, multiplicity) per state."""
    kids = [tuple({t: c.count(t) for t in c}.items()) for c in spec.children]  # (child, multiplicity)
    first = [math.inf] * len(kids)  # c(s), once the steps reach it
    pending, known = list(range(len(kids))), []  # states without and with c(s)
    spreads = {}
    cut, totals = {}, {}  # count per (level, state) entry in the cut, and per level

    def spread(s):
        found, stack = {}, [(1, t, m, first[s] - 1) for t, m in kids[s]]
        while stack:
            down, t, m, h = stack.pop()
            if h < first[t]:
                found[down, t] = found.get((down, t), 0) + m
            elif h:
                stack += [(down + 1, u, m * k, h - 1) for u, k in kids[t]]
        return [(down, t, m) for (down, t), m in found.items()]

    for depth, step in enumerate(steps):
        if pending:
            nums, den, _ = step
            for s in pending:
                if nums[s] < den:
                    first[s] = depth
                    known.append(s)
            pending = [s for s in pending if first[s] > depth]
        if depth == 1:  # the root's children, at height 0, are cut unless of value 0
            cut = {(1, t): m for t, m in kids[spec.root] if first[t]}
            totals = {1: sum(cut.values())} if cut else {}
        for s in known:  # the entries whose height reaches c(s) leave the cut
            lv = depth - first[s]
            if n := cut.pop((lv, s), 0):
                totals[lv] -= n
                if not totals[lv]:
                    del totals[lv]
                if s not in spreads:
                    spreads[s] = spread(s)
                for down, t, m in spreads[s]:
                    cut[lv + down, t] = cut.get((lv + down, t), 0) + n * m
                    totals[lv + down] = totals.get(lv + down, 0) + n * m
        yield step, dict(totals)


def synthesize_cutset_strategy(spec: Automaton, rate, radius: int,
                               depth_max: int = 40) -> SynthesisResult:
    """Find the shallowest depth whose min cut (the one min_cutset returns)
    fits its rounds: its level-n vertices, played in round n - radius, fit
    that round's budget floor(rate**(n - radius)) on every level, and no
    cut vertex lies at a level <= radius.  The per-level counts come from
    ``min_cut_levels`` on the per-state recursion, so only the truncation
    at the returned depth is materialised.  Any cut lighter than
    ``cut_weight_target``'s eps fits, so the depth is never deeper than the
    first with a lighter min cut; eps is reported as that sufficient bound.
    Requires rate above the branching number; fails with SynthesisError
    when no min cut fits within depth_max."""
    if radius < 0:
        raise SpecError("initial radius must be >= 0")
    if depth_max <= radius:
        raise SpecError("depth_max must exceed the initial radius")
    rate, steps = cut_recursion(spec, rate)
    if compare_to_br(spec, rate) <= 0:
        raise SpecError(f"rate {float(rate)} is not above the branching number")
    eps = cut_weight_target(rate, radius)
    p, q = rate.numerator, rate.denominator
    budgets = [0]  # budgets[m] = floor(rate**m), the budget of round m, in integers
    seen = []  # the steps 0..depth, which min_cutset reads
    for depth, (step, counts) in zip(range(depth_max + 1), min_cut_levels(spec, steps)):
        seen.append(step)
        _, den, weight = step
        if depth <= radius:
            continue
        budgets.append(p ** (depth - radius) // q ** (depth - radius))
        # level n is played in round n - radius, so no cut vertex may lie at a level <= radius
        if all(lv > radius and n <= budgets[lv - radius] for lv, n in counts.items()):
            trunc = expand(spec, depth)
            cut = min_cutset(trunc, rate, steps=seen)
            ids = cut.ids
            bounds = np.searchsorted(ids, trunc.level_starts).tolist()  # level n: round n - radius
            strategy = ScheduleStrategy({lv - radius: ids[a:b] for lv, (a, b)
                                         in enumerate(pairwise(bounds)) if a < b})
            return SynthesisResult(strategy=strategy, trunc=trunc, cutset=cut, epsilon=eps,
                                   weight=Fraction(weight, den), depth=depth,
                                   radius=radius)
    raise SynthesisError(
        f"no min cut fits its rounds (at most floor(rate**(n - k)) vertices on each level "
        f"n > k) within depth {depth_max} (last min-cut weight {weight / den:.6g}); the rate "
        f"may not exceed the branching number, or depth_max is too small"
    )
