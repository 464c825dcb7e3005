"""The firefighting game on truncations (and any graph arena that exposes
the same surface): per-round protection budgets, fire spread, strategies,
the exact deadline-feasibility decision, and cutset-strategy synthesis.

Game rules per round: the player marks at most f_n non-burning vertices as
protected, then fire spreads to every untouched neighbour of a burning
vertex.  Statuses are permanent.  The fire is contained once a round adds
no new burning vertex.

An *arena* is an undirected graph with ``n_vertices``, ``neighbors(v)``
(an iterable of vertex ids), ``level`` (distance from the root/identity,
non-decreasing in vertex order), ``depth``, ``boundary`` (vertices whose
burning makes the outcome inconclusive at this truncation depth, all at
level ``depth``) and ``is_boundary(v)``, the test for one, which
``run_game`` asks only of frontier ids at level ``depth``.  It also
exposes flat ``rows`` (numpy row offsets and column ids, row v listing
``neighbors(v)``), which large rounds read, and so does the check that a
contained fire has no untouched neighbour, except on a truncation, where
it reads the parent links.  Tree truncations and Cayley balls qualify.
``run_game`` plays the whole game on one status array that it changes in
place, so the ``GameState.statuses`` a strategy sees is live; ``step``
copies it and leaves its input alone.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, islice, pairwise
from typing import Iterable, Mapping

import numpy as np

from .branching import Cutset, compare_to_br, cut_recursion, exact_rate, min_cutset
from .errors import ResourceLimitError, SpecError, StrategyFault, SynthesisError
from .trees import TreeSpec, Truncation, compile, expand

UNTOUCHED, PROTECTED, BURNING = 0, 1, 2

# Protect sets and frontiers of this size or more take one numpy pass: it costs
# 30-70 us and wins past ~64 free:2 vertices; 1024 kept every small job flat.
SPREAD_VECTOR_MIN = 1024


# ---------------------------------------------------------------------------
# Budgets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BudgetSequence:
    """f(n) for n >= 1.  Kinds: constant c; exponential floor(rate**n);
    polynomial floor(coeff * n**degree); explicit list (the last entry
    repeats forever, so explicit budgets are eventually constant)."""

    kind: str
    value: int = 0
    rate: Fraction = Fraction(0)
    coeff: Fraction = Fraction(0)
    degree: int = 0
    values: tuple[int, ...] = ()

    @classmethod
    def constant(cls, c: int) -> "BudgetSequence":
        if c < 0:
            raise SpecError("budget must be non-negative")
        return cls(kind="constant", value=c)

    @classmethod
    def exponential(cls, rate) -> "BudgetSequence":
        rate = exact_rate(rate)
        if rate <= 0:
            raise SpecError("budget rate must be positive")
        return cls(kind="exponential", rate=rate)

    @classmethod
    def polynomial(cls, coeff, degree: int) -> "BudgetSequence":
        coeff = exact_rate(coeff)
        if coeff < 0 or degree < 0:
            raise SpecError("polynomial budget needs coeff >= 0 and degree >= 0")
        return cls(kind="polynomial", coeff=coeff, degree=degree)

    @classmethod
    def explicit(cls, values: Iterable[int]) -> "BudgetSequence":
        vals = tuple(int(v) for v in values)
        if any(v < 0 for v in vals):
            raise SpecError("budgets must be non-negative")
        return cls(kind="explicit", values=vals)

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
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"bad budget parameters in {text!r}") from exc
        raise SpecError(f"unknown budget kind {kind!r}")

    def __call__(self, n: int) -> int:
        if n < 1:
            raise SpecError("budgets are defined for rounds n >= 1")
        if self.kind == "constant":
            return self.value
        if self.kind == "exponential":
            return math.floor(self.rate ** n)
        if self.kind == "polynomial":
            return math.floor(self.coeff * n ** self.degree)
        if not self.values:
            return 0
        return self.values[n - 1] if n <= len(self.values) else self.values[-1]

    def cumulative(self, m: int) -> int:
        return sum(self(i) for i in range(1, m + 1))

    def stabilization_round(self) -> int | None:
        """Round from which f is constant, or None when it never is
        (memoisation of game searches is only merged beyond this point)."""
        if self.kind == "constant":
            return 1
        if self.kind == "exponential":
            return 1 if self.rate <= 1 else None
        if self.kind == "polynomial":
            return 1 if (self.degree == 0 or self.coeff == 0) else None
        return max(1, len(self.values))

    def describe(self) -> str:
        if self.kind == "constant":
            return f"const:{self.value}"
        if self.kind == "exponential":
            return f"exp:{self.rate}"
        if self.kind == "polynomial":
            return f"poly:{self.coeff},{self.degree}"
        return "list:" + ",".join(str(v) for v in self.values)


# ---------------------------------------------------------------------------
# Game state and stepping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GameState:
    arena: object
    statuses: bytearray  # live during run_game
    round_no: int
    frontier: tuple[int, ...]  # vertices that started burning last round

    def burning_count(self) -> int:
        return self.statuses.count(BURNING)


def initial_state(arena, radius: int) -> GameState:
    """Fire on the ball of the given radius around the root."""
    return state_from_fire(arena, range(bisect_right(arena.level, radius)))


def state_from_fire(arena, fire: Iterable[int]) -> GameState:
    statuses = bytearray(arena.n_vertices)
    fire = tuple(sorted(set(fire)))
    for v in fire:
        statuses[v] = BURNING
    return GameState(arena=arena, statuses=statuses, round_no=0, frontier=fire)


def step(state: GameState, protect: Iterable[int], budget: int) -> GameState:
    """Protect, then spread, on a copy of the statuses."""
    statuses = bytearray(state.statuses)
    return GameState(arena=state.arena, statuses=statuses, round_no=state.round_no + 1,
                     frontier=_advance(state, statuses, protect, budget)[1])


def _advance(state: GameState, statuses: bytearray, protect: Iterable[int],
             budget: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Play round ``state.round_no + 1`` on ``statuses`` in place; return the
    sorted protect set and the vertices that start burning.  Protecting a burning
    vertex or overspending the budget is a strategy fault, not a silent clip."""
    round_no = state.round_no + 1
    protect = tuple(sorted(set(protect)))
    if len(protect) > budget:
        raise StrategyFault(round_no, f"protect set of size {len(protect)} exceeds budget {budget}")
    if len(protect) >= SPREAD_VECTOR_MIN:  # the loop's checks, in its order, in one pass
        if protect[0] < 0:
            raise SpecError(f"vertex {protect[0]} is not in the arena")
        inside = bisect_left(protect, len(statuses))  # only these become numpy integers
        ids, view = np.fromiter(protect, np.intp, inside), np.frombuffer(statuses, np.uint8)
        if (burning := np.flatnonzero(view[ids] == BURNING)).size:
            raise StrategyFault(round_no,
                                f"vertex {ids[burning[0]]} is burning and cannot be protected")
        if inside < len(protect):
            raise SpecError(f"vertex {protect[inside]} is not in the arena")
        view[ids] = PROTECTED
    else:
        for v in protect:
            if not 0 <= v < len(statuses):
                raise SpecError(f"vertex {v} is not in the arena")
            if statuses[v] == BURNING:
                raise StrategyFault(round_no, f"vertex {v} is burning and cannot be protected")
            statuses[v] = PROTECTED
    if len(state.frontier) >= SPREAD_VECTOR_MIN and hasattr(state.arena, "rows"):
        return protect, _spread_rows(statuses, state.frontier, *state.arena.rows)
    newly = []
    arena = state.arena
    for v in state.frontier:
        for w in arena.neighbors(v):
            if statuses[w] == UNTOUCHED:
                statuses[w] = BURNING
                newly.append(w)
    return protect, tuple(sorted(newly))


def _spread_rows(statuses: bytearray, frontier, offsets, columns) -> tuple[int, ...]:
    """Mark the frontier's untouched row entries burning, sorted and unique."""
    view, front = np.frombuffer(statuses, np.uint8), np.fromiter(frontier, np.intp)
    reached = _row_entries(offsets, columns, front)
    reached = np.sort(reached[view[reached] == UNTOUCHED])  # sort and diff: cheaper than unique
    reached = reached[np.diff(reached, prepend=-1) != 0]
    view[reached] = BURNING
    return tuple(reached.tolist())


def _row_entries(offsets, columns, ids) -> np.ndarray:
    """The row entries of the given vertices, row after row."""
    starts, lengths = offsets[ids], offsets[ids + 1] - offsets[ids]
    return columns[np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
                   + np.arange(lengths.sum())]


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


class ScheduleStrategy:
    """Fixed map round -> protect set.  Synthesis plays the cut vertices at
    level n in round n - radius; wait-and-surround plays one sphere in its
    trigger round."""

    def __init__(self, schedule: Mapping[int, Iterable[int]]):
        self.schedule = {int(r): tuple(vs) for r, vs in schedule.items()}

    def protect_for(self, state: GameState, round_no: int, budget: int) -> tuple[int, ...]:
        return self.schedule.get(round_no, ())


class CanonicalStrategy:
    """Given a target set, protect each round the budgeted number of its
    vertices closest to the root among those neither burning nor
    protected.  Ties at equal level break by vertex order."""

    def __init__(self, vprime: Iterable[int]):
        self.vprime = tuple(sorted(set(vprime)))

    def protect_for(self, state: GameState, round_no: int, budget: int) -> tuple[int, ...]:
        level = state.arena.level
        eligible = [v for v in self.vprime if state.statuses[v] == UNTOUCHED]
        eligible.sort(key=lambda v: (level[v], v))
        return tuple(eligible[:budget])


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

CONTAINED = "contained"
BOUNDARY_REACHED = "boundary_reached"
ESCAPED_HORIZON = "escaped_horizon"


@dataclass(frozen=True)
class TraceRound:
    round_no: int
    protected: tuple[int, ...]
    burnt: tuple[int, ...]


@dataclass(frozen=True)
class Verdict:
    kind: str
    round_no: int
    burnt: int | None
    trace: tuple[TraceRound, ...] = field(default=())

    @property
    def contained(self) -> bool:
        return self.kind == CONTAINED


def run_game(arena, fire: Iterable[int], strategy, budget: BudgetSequence,
             horizon: int | None = None) -> Verdict:
    """Game engine for an arbitrary initial fire.  Public entry points
    restrict the fire to balls around the root; the oracle uses this
    directly."""
    if horizon is not None and horizon < 0:
        raise SpecError("horizon must be >= 0")
    state = state_from_fire(arena, fire)
    deepest = bisect_left(arena.level, arena.depth)  # the first id that may be on the boundary

    def reached(frontier: tuple[int, ...]) -> bool:
        return any(map(arena.is_boundary, frontier[bisect_left(frontier, deepest):]))

    if reached(state.frontier):
        return Verdict(kind=BOUNDARY_REACHED, round_no=0, burnt=None, trace=())
    if horizon is None:
        horizon = arena.n_vertices + 2
    trace: list[TraceRound] = []
    for n in range(1, horizon + 1):
        f_n = budget(n)
        protect = strategy.protect_for(state, n, f_n)
        protect, frontier = _advance(state, state.statuses, protect, f_n)
        state = GameState(arena, state.statuses, n, frontier)
        trace.append(TraceRound(n, protect, frontier))
        if reached(frontier):
            return Verdict(kind=BOUNDARY_REACHED, round_no=n, burnt=None, trace=tuple(trace))
        if not state.frontier:
            assert _separated(state), "contained state has an exposed untouched vertex"
            return Verdict(kind=CONTAINED, round_no=n, burnt=state.burning_count(),
                           trace=tuple(trace))
    return Verdict(kind=ESCAPED_HORIZON, round_no=horizon, burnt=None, trace=tuple(trace))


def _separated(state: GameState) -> bool:
    """No burning vertex has an untouched neighbour, in one numpy pass over
    the edges: a tree arena's parent links, or the rows of any other arena,
    read from whichever of the two statuses is fewer, as its graph is
    undirected."""
    statuses, arena = state.statuses, state.arena
    side, other = sorted((BURNING, UNTOUCHED), key=statuses.count)
    if not statuses.count(side):
        return True
    status = np.frombuffer(statuses, np.uint8)
    if isinstance(arena, Truncation):
        ends = np.stack((status[1:], status[np.frombuffer(arena.parent, np.intc)[1:]]))
        return not ((ends.min(0) == UNTOUCHED) & (ends.max(0) == BURNING)).any()
    reached = _row_entries(*arena.rows, np.flatnonzero(status == side))
    return not (status[reached] == other).any()


def simulate(trunc, radius: int, strategy, budget: BudgetSequence,
             horizon: int | None = None) -> Verdict:
    """Play the game with the fire starting on the radius-`radius` ball.
    Containment strategies for balls suffice: a strategy containing the
    ball contains every fire inside it."""
    if radius < 0:
        raise SpecError("initial radius must be >= 0")
    if radius >= trunc.depth:
        raise SpecError("initial radius must be smaller than the truncation depth")
    return run_game(trunc, range(bisect_right(trunc.level, radius)), strategy, budget, horizon)


# -- trace files -------------------------------------------------------------


def format_trace(verdict: Verdict) -> str:
    def ids(vs):
        return " ".join(str(v) for v in vs) if vs else "-"

    lines = [
        f"round {r.round_no} | protect {ids(r.protected)} | burn {ids(r.burnt)}"
        for r in verdict.trace
    ]
    burnt = verdict.burnt if verdict.burnt is not None else "-"
    lines.append(f"verdict {verdict.kind} | round {verdict.round_no} | burnt {burnt}")
    return "\n".join(lines) + "\n"


def parse_trace(text: str, source: str = "trace") -> tuple[dict[int, tuple[int, ...]], dict]:
    """Returns (schedule, verdict summary) from a trace file.  A malformed
    round or verdict line raises SpecError naming the source and line."""
    schedule: dict[int, tuple[int, ...]] = {}
    summary: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("|")]
        try:
            if parts[0].startswith("round"):
                schedule[int(parts[0].split()[1])] = tuple(
                    int(t) for t in parts[1].split()[1:] if t != "-")
            elif parts[0].startswith("verdict"):
                summary["kind"] = parts[0].split()[1]
                summary["round_no"] = int(parts[1].split()[1])
                burnt = parts[2].split()[1]
                summary["burnt"] = None if burnt == "-" else int(burnt)
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
# must be bought by round n-k).  Vertices of one automaton state at one
# level root isomorphic subtrees, so the decision runs on live counts per
# (level, state): a vertex is live when its subtree reaches the boundary
# and no ancestor of it is cut.  Among the feasible cuts it picks the
# lexicographically minimal cumulative level-count profile.
#
# Two exchange arguments settle most levels without search:
#   1. spending headroom early is never worse: a later cut vertex in the
#      subtree of a live vertex v can be swapped for v itself;
#   2. when the live subtree of s embeds into t's, leaving s live is never
#      worse than leaving t live: a cut below t maps back to one below s.
# The live states of a level are ranked by embedding from the ranks of
# their live children (_chain_ranks).  On a level whose states form a
# chain, above levels that all do, the cut vector is fixed by its size:
# cut the highest-ranked states first.  So one greedy pass that spends the
# whole headroom at every level decides feasibility, and the lex-min
# profile takes at each level the least size whose greedy completion
# succeeds (a bisection, as a larger size never hurts).  Deadline cuts are
# NP-hard on general trees (Finbow, King, MacGillivray and Rizzi 2007):
# levels with incomparable states keep an exact memoised recursion over
# their cut vectors, which hands over to the greedy at the first level
# below which every level is a chain.

FEASIBILITY_WORK_MAX = 1_000_000  # cut choices the count recursion may try


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    depth: int
    radius: int
    witness_paths: tuple[tuple[int, ...], ...] | None = None
    witness_levels: tuple[tuple[int, int], ...] | None = None  # (level, count)


def feasibility_check(spec: TreeSpec, radius: int, budget: BudgetSequence,
                      depth: int, sphere_counts: dict[int, int] | None = None
                      ) -> FeasibilityResult:
    """Decide whether a deadline-respecting vertex cut exists within the
    given depth.  Feasible results carry a witness (paths from the root);
    infeasible at one depth is evidence only, since deeper cuts may exist.
    ``sphere_counts`` are the vertices per automaton state at level radius,
    as ``Automaton.iter_state_counts`` yields them, which a caller probing
    several depths walks once; without them they are walked from the root."""
    if radius < 0:
        raise SpecError("initial radius must be >= 0")
    if depth <= radius:
        raise SpecError("depth must exceed the initial radius")
    auto = compile(spec)
    if sphere_counts is None:
        sphere_counts = next(islice(auto.iter_state_counts(), radius, None))
    caps = list(accumulate(budget(j) for j in range(1, depth - radius + 1)))  # cumulative budgets
    return _feasibility_counts(auto, radius, caps, depth, sphere_counts)


def _chain_ranks(child_ranks: list[tuple[int, ...]]) -> list[int] | None:
    """Embedding ranks of a level's live states, from each state's live-child
    ranks sorted decreasing: s <= t when s's tuple is no longer than t's and
    pointwise <= it, that is when s's live subtree embeds into t's, matching
    children largest to largest.  None when two states are incomparable."""
    shapes = sorted(set(child_ranks), key=lambda r: (len(r), r))  # extends the order
    if any(x > y for a, b in pairwise(shapes) for x, y in zip(a, b)):
        return None
    rank = {r: i for i, r in enumerate(shapes)}
    return [rank[r] for r in child_ranks]


def _feasibility_counts(auto, radius: int, caps: list[int], depth: int,
                        sphere_counts: dict[int, int]) -> FeasibilityResult:
    succ = auto.children
    # the state counts at levels radius+1..depth: nothing is cut within the ball
    forward = list(islice(auto.iter_state_counts(sphere_counts), 1, depth - radius + 1))
    # per level L below the ball, for the live states (those whose subtrees
    # reach the boundary): live[L] the states and kids[L] the (child
    # position, index in live[L + 1]) of their live children
    live = {depth: tuple(s for s in sorted(forward[-1]) if auto.continues(s))}
    kids = {depth: [()] * len(live[depth])}

    def rows(lv: int, states) -> None:  # live[lv] and kids[lv], from live[lv + 1]
        index = {t: j for j, t in enumerate(live[lv + 1])}
        found = [(s, tuple((c, index[t]) for c, t in enumerate(succ[s]) if t in index))
                 for s in states]
        found = [(s, ks) for s, ks in found if ks]
        live[lv], kids[lv] = tuple(s for s, _ks in found), [ks for _s, ks in found]

    for lv in range(depth - 1, radius, -1):
        rows(lv, sorted(forward[lv - radius - 1]))
    counts = tuple(forward[0][s] for s in live[radius + 1])
    if not counts:
        return FeasibilityResult(feasible=True, depth=depth, radius=radius,
                                 witness_paths=(), witness_levels=())
    # every live vertex needs a cut vertex of its own: most evidence rows
    # below br fail this at once, before any ranking
    if sum(counts) > caps[-1]:
        return FeasibilityResult(feasible=False, depth=depth, radius=radius)
    # reach[L] the boundary vertices below each live state, rank[L] their
    # embedding ranks (None off a chain)
    reach = {depth: [1] * len(live[depth])}
    rank = {depth: _chain_ranks([()] * len(live[depth]))}
    for lv in range(depth - 1, radius, -1):
        reach[lv] = [sum(reach[lv + 1][j] for _c, j in ks) for ks in kids[lv]]
        below = rank[lv + 1]
        rank[lv] = None if below is None else _chain_ranks(
            [tuple(sorted((below[j] for _c, j in ks), reverse=True)) for ks in kids[lv]])

    def descend(lv: int, uncut) -> tuple[int, ...]:
        out = [0] * len(live[lv + 1]) if lv < depth else []
        for i, n in enumerate(uncut):
            for _c, j in kids[lv][i]:
                out[j] += n
        return tuple(out)

    def keep(lv: int, counts: tuple[int, ...], size: int) -> list[int]:
        """The live counts left at level lv after cutting size of them,
        the highest-ranked states first."""
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
        """best() from a level whose states and those below form chains."""
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
    # live count per state at level L and the cut vertices already spent;
    # lex-min per-level counts are lex-min cumulative counts.  Off a chain it
    # tries cut vectors x <= counts in order of sum(x) and stops at the first
    # sum that completes: a larger sum at level L loses on the first
    # coordinate.  A successor whose live count exceeds what the horizon
    # deadline leaves is dropped, and so is a state whose boundary vertices
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
    if chosen is None:
        return FeasibilityResult(feasible=False, depth=depth, radius=radius)
    sizes, cuts = chosen
    witness_levels = tuple((radius + 1 + i, n) for i, n in enumerate(sizes) if n)
    if sum(sizes) > 100_000:
        return FeasibilityResult(feasible=True, depth=depth, radius=radius,
                                 witness_levels=witness_levels)
    ball = auto.level_states(radius)
    for lv in range(radius, -1, -1):  # the ball states that lead to a live state below it
        rows(lv, ball[lv])
    paths: list = []
    plan = dict(enumerate(cuts, start=radius + 1))
    frontier = [((), 0)]  # (path, index into live[lv])
    for lv in range(depth + 1):
        left = list(plan.get(lv, [0] * len(live[lv])))  # cut the first left[i] of live[lv][i]
        uncut = []
        for path, i in frontier:
            if left[i]:
                left[i] -= 1
                paths.append(path)
            else:
                uncut.append((path, i))
        frontier = [(path + (c,), j) for path, i in uncut for c, j in kids[lv][i]]
    return FeasibilityResult(feasible=True, depth=depth, radius=radius,
                             witness_paths=tuple(sorted(paths)), witness_levels=witness_levels)


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


@dataclass(frozen=True)
class SynthesisResult:
    strategy: ScheduleStrategy
    trunc: Truncation
    cutset: Cutset
    epsilon: Fraction
    weight: Fraction  # the cutset's weight, W(depth) from the per-state recursion
    depth: int
    radius: int


def cut_weight_target(rate, radius: int, probe_range: int = 120) -> Fraction:
    """Largest eps such that any cutset lighter than eps schedules within
    budgets floor(rate**n): eps <= floor(rate**(n-radius)) / rate**n for
    every n > radius.  For the rate p/q the head is the least
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


def synthesize_cutset_strategy(spec: TreeSpec, rate, radius: int,
                               depth_max: int = 40) -> SynthesisResult:
    """Find a cutset light enough that playing its level-n vertices in
    round n - radius always fits the budget floor(rate**n), and wrap it as
    a strategy.  Requires rate above the branching number; fails with
    SynthesisError when no light cutset appears within depth_max.  The
    min-cut weight at each depth comes from the per-state recursion, so
    only the truncation at the returned depth is materialised."""
    if radius < 0:
        raise SpecError("initial radius must be >= 0")
    if depth_max <= radius:
        raise SpecError("depth_max must exceed the initial radius")
    rate, steps = cut_recursion(spec, rate)
    if compare_to_br(spec, rate) <= 0:
        raise SpecError(f"rate {float(rate)} is not above the branching number")
    probe_range = max(depth_max + 40, 120)
    eps = cut_weight_target(rate, radius, probe_range=probe_range)
    seen = [next(steps)]  # the steps 0..depth, which min_cutset reads
    for depth, (nums, den, weight) in zip(range(1, depth_max + 1), steps):
        seen.append((nums, den, weight))
        if depth > radius and weight * eps.denominator < eps.numerator * den:
            trunc = expand(spec, depth)
            cut = min_cutset(trunc, rate, steps=seen)
            ids = cut.ids
            bounds = np.searchsorted(ids, trunc.level_starts).tolist()  # level n: round n - radius
            strategy = ScheduleStrategy({lv - radius: tuple(ids[a:b].tolist()) for lv, (a, b)
                                         in enumerate(pairwise(bounds)) if a < b})
            return SynthesisResult(strategy=strategy, trunc=trunc, cutset=cut, epsilon=eps,
                                   weight=Fraction(weight, den), depth=depth,
                                   radius=radius)
    raise SynthesisError(
        f"no cutset of weight < {float(eps):.6g} within depth {depth_max} "
        f"(last min-cut weight {weight / den:.6g}); the rate may not exceed "
        f"the branching number, or depth_max is too small"
    )
