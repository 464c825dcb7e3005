"""The firefighting game on truncations (and any graph arena that exposes
the same surface): per-round protection budgets, fire spread, strategies,
the exact deadline-feasibility decision, and cutset-strategy synthesis.

Game rules per round: the player marks at most f_n non-burning vertices as
protected, then fire spreads to every untouched neighbour of a burning
vertex.  Statuses are permanent.  The fire is contained once a round adds
no new burning vertex.

An *arena* is anything with ``n_vertices``, ``neighbors(v)``, ``level``
(distance from the root/identity), ``boundary`` (vertices whose burning
makes the outcome inconclusive at this truncation depth) and ``depth``.
Tree truncations and Cayley balls both qualify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .branching import (compare_to_br, cut_recursion, edge_weight, exact_rate, min_cutset,
                        Cutset)
from .errors import SpecError, StrategyFault, SynthesisError
from .trees import TreeSpec, Truncation, compile, expand

UNTOUCHED, PROTECTED, BURNING = 0, 1, 2


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
    rate: Fraction | float = Fraction(0)
    coeff: Fraction | float = Fraction(0)
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
            return 1 if float(self.rate) <= 1 else None
        if self.kind == "polynomial":
            return 1 if (self.degree == 0 or float(self.coeff) == 0) else None
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
    statuses: bytes
    round_no: int
    frontier: tuple[int, ...]  # vertices that started burning last round

    def burning_count(self) -> int:
        return self.statuses.count(BURNING)


def initial_state(arena, radius: int) -> GameState:
    """Fire on the ball of the given radius around the root."""
    fire = [v for v in range(arena.n_vertices) if arena.level[v] <= radius]
    return state_from_fire(arena, fire)


def state_from_fire(arena, fire: Iterable[int]) -> GameState:
    statuses = bytearray(arena.n_vertices)
    fire = tuple(sorted(set(fire)))
    for v in fire:
        statuses[v] = BURNING
    return GameState(arena=arena, statuses=bytes(statuses), round_no=0, frontier=fire)


def step(state: GameState, protect: Iterable[int], budget: int) -> GameState:
    """Protect, then spread.  Protecting a burning vertex or overspending
    the budget is a strategy fault, not a silent clip."""
    round_no = state.round_no + 1
    protect = sorted(set(protect))
    if len(protect) > budget:
        raise StrategyFault(round_no, f"protect set of size {len(protect)} exceeds budget {budget}")
    statuses = bytearray(state.statuses)
    for v in protect:
        if not 0 <= v < len(statuses):
            raise SpecError(f"vertex {v} is not in the arena")
        if statuses[v] == BURNING:
            raise StrategyFault(round_no, f"vertex {v} is burning and cannot be protected")
        statuses[v] = PROTECTED
    newly = []
    arena = state.arena
    for v in state.frontier:
        for w in arena.neighbors(v):
            if statuses[w] == UNTOUCHED:
                statuses[w] = BURNING
                newly.append(w)
    return GameState(arena=arena, statuses=bytes(statuses), round_no=round_no,
                     frontier=tuple(sorted(newly)))


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
    boundary = set(arena.boundary)
    if boundary & set(state.frontier):
        return Verdict(kind=BOUNDARY_REACHED, round_no=0, burnt=None, trace=())
    if horizon is None:
        horizon = arena.n_vertices + 2
    trace: list[TraceRound] = []
    for n in range(1, horizon + 1):
        f_n = budget(n)
        protect = tuple(strategy.protect_for(state, n, f_n))
        state = step(state, protect, f_n)
        trace.append(TraceRound(n, tuple(sorted(protect)), state.frontier))
        if boundary & set(state.frontier):
            return Verdict(kind=BOUNDARY_REACHED, round_no=n, burnt=None, trace=tuple(trace))
        if not state.frontier:
            assert _separated(state), "contained state has an exposed untouched vertex"
            return Verdict(kind=CONTAINED, round_no=n, burnt=state.burning_count(),
                           trace=tuple(trace))
    return Verdict(kind=ESCAPED_HORIZON, round_no=horizon, burnt=None, trace=tuple(trace))


def _separated(state: GameState) -> bool:
    arena = state.arena
    for v in range(arena.n_vertices):
        if state.statuses[v] == BURNING:
            if any(state.statuses[w] == UNTOUCHED for w in arena.neighbors(v)):
                return False
    return True


def simulate(trunc, radius: int, strategy, budget: BudgetSequence,
             horizon: int | None = None) -> Verdict:
    """Play the game with the fire starting on the radius-`radius` ball.
    Containment strategies for balls suffice: a strategy containing the
    ball contains every fire inside it."""
    if radius < 0:
        raise SpecError("initial radius must be >= 0")
    if radius >= trunc.depth:
        raise SpecError("initial radius must be smaller than the truncation depth")
    fire = [v for v in range(trunc.n_vertices) if trunc.level[v] <= radius]
    return run_game(trunc, fire, strategy, budget, horizon)


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
# must be bought by round n-k).  The decision is a bottom-up dynamic
# program over Pareto-minimal cumulative level-count profiles, memoised
# per (level, automaton state) for the states that occur at each level.


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    depth: int
    radius: int
    witness_paths: tuple[tuple[int, ...], ...] | None = None
    witness_levels: tuple[tuple[int, int], ...] | None = None  # (level, count)

    def witness_vertices(self, trunc) -> tuple[int, ...]:
        if not self.feasible or self.witness_paths is None:
            raise SpecError("no materialised witness on this result")
        return tuple(sorted(trunc.index_of_path(p) for p in self.witness_paths))


def _pareto(entries):
    entries = sorted(entries, key=lambda e: e[0])
    kept = []
    for p, tag in entries:
        if any(all(a <= b for a, b in zip(q, p)) for q, _ in kept):
            continue
        kept.append((p, tag))
    return kept


# -- level-regular fast path -------------------------------------------------
#
# When every vertex at a level has the same child count, per-level kill
# counts characterise cuts completely: killing s vertices at level j
# removes exactly s/M_j of the boundary, whatever the positions.  Spending
# the whole budget headroom as early as possible is then optimal (early
# kills cover at least as much per unit and cumulative budgets only grow),
# so a single greedy sweep decides feasibility, in O(depth) big-int steps
# instead of a profile frontier.  The witness refines the greedy counts to
# the lexicographically minimal cumulative profile, matching what the
# Pareto program would pick.


def _regular_profile(spec: TreeSpec, depth: int):
    """Per-level child counts (levels 0..depth-1) plus whether level-depth
    vertices continue, when the tree is level-regular; None otherwise."""
    auto = compile(spec)
    levels = auto.level_states(depth)
    counts = []
    for states in levels[:depth]:
        sizes = {len(auto.children[s]) for s in states}
        if len(sizes) > 1:
            return None
        counts.append(max(sizes, default=0))
    counts += [0] * (depth - len(counts))
    continues = {auto.continues(s) for s in levels[-1]}  # levels[-1] is level depth or empty
    if len(continues) > 1:
        return None
    return counts, continues == {True}


def _feasibility_regular(counts: list[int], continues: bool, radius: int,
                         caps: list[int], depth: int) -> FeasibilityResult:
    if any(c == 0 for c in counts[:depth]) or not continues:
        return FeasibilityResult(feasible=True, depth=depth, radius=radius,
                                 witness_paths=(), witness_levels=())

    width0 = 1
    for j in range(radius + 1):
        width0 *= counts[j]

    def cap(j: int) -> int:
        return caps[j - radius - 1]

    def suffix_covers(j: int, spent: int, width: int) -> bool:
        while j <= depth:
            s = min(cap(j) - spent, width)
            if s < 0:
                s = 0
            spent += s
            width -= s
            if width == 0:
                return True
            if j < depth:
                width *= counts[j]
            j += 1
        return False

    if not suffix_covers(radius + 1, 0, width0):
        return FeasibilityResult(feasible=False, depth=depth, radius=radius)

    # lexicographically minimal cumulative profile: smallest kill count per
    # level, earliest level first, keeping the remainder coverable
    kills: list[int] = []
    spent = 0
    width = width0
    for j in range(radius + 1, depth + 1):
        hi = min(cap(j) - spent, width)
        if j == depth:
            s = width  # everything uncovered must be killed at the horizon
        else:
            lo = 0
            while lo < hi:
                mid = (lo + hi) // 2
                if suffix_covers(j + 1, spent + mid, (width - mid) * counts[j]):
                    hi = mid
                else:
                    lo = mid + 1
            s = lo
        kills.append(s)
        spent += s
        width -= s
        if width == 0:
            break
        width *= counts[j] if j < depth else 1

    witness_levels = tuple(
        (radius + 1 + i, s) for i, s in enumerate(kills) if s > 0
    )
    total = sum(s for _lv, s in witness_levels)
    paths: tuple[tuple[int, ...], ...] | None
    if total > 100_000:
        paths = None
    else:
        out = []
        covered = 0  # covered positions at the current level
        width = width0
        for i, s in enumerate(kills):
            level = radius + 1 + i
            strides = []
            acc = 1
            for b in reversed(counts[:level]):
                strides.append(acc)
                acc *= b
            strides.reverse()
            for p in range(covered, covered + s):
                out.append(tuple((p // strides[d]) % counts[d] for d in range(level)))
            covered = (covered + s) * (counts[level] if level < depth else 1)
        paths = tuple(sorted(out))
    return FeasibilityResult(feasible=True, depth=depth, radius=radius,
                             witness_paths=paths, witness_levels=witness_levels)


def feasibility_check(spec: TreeSpec, radius: int, budget: BudgetSequence,
                      depth: int) -> FeasibilityResult:
    """Decide whether a deadline-respecting vertex cut exists within the
    given depth.  Feasible results carry a witness (paths from the root);
    infeasible at one depth is evidence only, since deeper cuts may exist."""
    if radius < 0:
        raise SpecError("initial radius must be >= 0")
    if depth <= radius:
        raise SpecError("depth must exceed the initial radius")
    ncoords = depth - radius
    caps = [budget.cumulative(j + 1) for j in range(ncoords)]

    regular = _regular_profile(spec, depth)
    if regular is not None:
        counts, continues = regular
        return _feasibility_regular(counts, continues, radius, caps, depth)

    zero = (0,) * ncoords

    def unit(level: int) -> tuple[int, ...]:
        j0 = level - radius - 1
        return tuple(0 if j < j0 else 1 for j in range(ncoords))

    def within(p) -> bool:
        return all(a <= c for a, c in zip(p, caps))

    auto = compile(spec)
    succ = auto.children
    # keyed by (level, state) for the states occurring at that level
    has_boundary: dict[tuple[int, int], bool] = {}
    frontier: dict[tuple[int, int], list] = {}

    def combine(kids, level):
        """Minkowski-sum the child frontiers under the caps, tracking
        which profile of each live child produced each sum."""
        partial = [(zero, ())]
        for child in kids:
            if not has_boundary[(level + 1, child)]:
                continue  # dead subtree needs no cut vertices
            front = frontier[(level + 1, child)]
            if not front:
                return []
            nxt: dict[tuple, tuple] = {}
            for p, choices in partial:
                for q, _tag in front:
                    s = tuple(a + b for a, b in zip(p, q))
                    if not within(s):
                        continue
                    if s not in nxt:
                        nxt[s] = choices + (q,)
            partial = _pareto(list(nxt.items()))
            if not partial:
                return []
        return partial

    levels = auto.level_states(depth)
    for level in range(len(levels) - 1, 0, -1):
        for state in levels[level]:
            kids = succ[state]
            if level == depth:
                hb = auto.continues(state)
            else:
                hb = any(has_boundary[(level + 1, ck)] for ck in kids)
            has_boundary[(level, state)] = hb
            if not hb:
                frontier[(level, state)] = [(zero, ("dead",))]
                continue
            options = []
            if level >= radius + 1:
                u = unit(level)
                if within(u):
                    options.append((u, ("take",)))
            if level < depth:
                options.extend(
                    (p, ("combine", choices)) for p, choices in combine(kids, level)
                )
            frontier[(level, state)] = _pareto(options)

    root_kids = succ[auto.root]
    if not any(has_boundary[(1, ck)] for ck in root_kids):
        return FeasibilityResult(feasible=True, depth=depth, radius=radius,
                                 witness_paths=(), witness_levels=())
    final = combine(root_kids, 0)
    if not final:
        return FeasibilityResult(feasible=False, depth=depth, radius=radius)

    chosen_profile, chosen = min(final, key=lambda e: e[0])

    # walk the (virtual) tree to materialise the witness
    witness: list[tuple[int, ...]] = []

    def walk(state, level, tag, path):
        if tag[0] == "dead":
            return
        if tag[0] == "take":
            witness.append(path)
            return
        choices = iter(tag[1])  # one profile per live child, in child order
        for i, child in enumerate(succ[state]):
            if has_boundary[(level + 1, child)]:
                child_front = dict(frontier[(level + 1, child)])
                walk(child, level + 1, child_front[next(choices)], path + (i,))

    walk(auto.root, 0, ("combine", chosen), ())
    per_level: dict[int, int] = {}
    for path in witness:
        per_level[len(path)] = per_level.get(len(path), 0) + 1
    return FeasibilityResult(feasible=True, depth=depth, radius=radius,
                             witness_paths=tuple(sorted(witness)),
                             witness_levels=tuple(sorted(per_level.items())))


# ---------------------------------------------------------------------------
# Cutset-strategy synthesis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthesisResult:
    strategy: ScheduleStrategy
    trunc: Truncation
    cutset: Cutset
    epsilon: object
    weight: object  # the cutset's weight, W(depth) from the per-state recursion
    depth: int
    radius: int


def cut_weight_target(rate, radius: int, probe_range: int = 120):
    """Largest eps such that any cutset lighter than eps schedules within
    budgets floor(rate**n): eps <= floor(rate**(n-radius)) / rate**n for
    every n > radius.  The head is minimised over one running power of
    the rate; past the probe range the floor loss is bounded analytically."""
    rate = exact_rate(rate)
    if rate <= 1:
        raise SynthesisError("budget rate must exceed 1 for cutset synthesis")
    power = head = edge_weight(rate, 0)  # rate**m; floor(x) / x <= 1
    for _ in range(probe_range):
        power *= rate
        head = min(head, math.floor(power) / power)
    head *= edge_weight(rate, radius)
    tail = edge_weight(rate, radius) * (1 - edge_weight(rate, probe_range + 1))
    return min(head, tail) * (1 if isinstance(rate, Fraction) else 0.5)  # halved for float rounding


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
    rate_x, steps = cut_recursion(spec, rate)
    if compare_to_br(spec, rate_x) <= 0:
        raise SpecError(f"rate {float(rate_x)} is not above the branching number")
    probe_range = max(depth_max + 40, 120)
    eps = cut_weight_target(rate_x, radius, probe_range=probe_range)
    for depth, (_, weight) in zip(range(1, depth_max + 1), steps):
        if depth > radius and weight < eps:
            trunc = expand(spec, depth)
            cut = min_cutset(trunc, rate_x)
            by_round: dict[int, list[int]] = {}
            for v in cut.edges:
                by_round.setdefault(trunc.level[v] - radius, []).append(v)
            strategy = ScheduleStrategy({r: tuple(sorted(vs)) for r, vs in by_round.items()})
            return SynthesisResult(strategy=strategy, trunc=trunc, cutset=cut,
                                   epsilon=eps, weight=weight, depth=depth, radius=radius)
    raise SynthesisError(
        f"no cutset of weight < {float(eps):.6g} within depth {depth_max} "
        f"(last min-cut weight {float(weight):.6g}); the rate may not exceed "
        f"the branching number, or depth_max is too small"
    )
