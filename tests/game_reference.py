"""The copy-per-round game engine that ``firebreak.game`` replaced with
in-place stepping, kept as the slow reference of a differential test.

``step`` copies the whole status array every round and returns a fresh
immutable state; ``run_game`` threads those states through the rounds,
and ``simulate`` finds the initial fire by scanning every vertex's level.
``brute_force_containment`` is the oracle's exhaustive search without its
memo: it plays every candidate through ``step`` and finds the vertices
next to the fire by scanning every vertex.
Rules, fault checks and verdicts are those of ``firebreak.game``, whose
value types this module reuses.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from firebreak.errors import SpecError, StrategyFault
from firebreak.game import (BOUNDARY_REACHED, BURNING, CONTAINED, ESCAPED_HORIZON, PROTECTED,
                            UNTOUCHED, GameState, TraceRound, Verdict)
from conftest import vertex_levels


def state_from_fire(arena, fire: Iterable[int]) -> GameState:
    statuses = bytearray(arena.n_vertices)
    fire = tuple(sorted(set(fire)))
    for v in fire:
        statuses[v] = BURNING
    return GameState(arena=arena, statuses=bytes(statuses), round_no=0, frontier=fire)


def step(state: GameState, protect: Iterable[int], budget: int) -> GameState:
    """Protect, then spread, on a copy of the statuses made this round."""
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


def run_game(arena, fire: Iterable[int], strategy, budget, horizon: int | None = None) -> Verdict:
    if horizon is not None and horizon < 0:
        raise SpecError("horizon must be >= 0")
    state = state_from_fire(arena, fire)
    boundary = {v for v, bit in enumerate(arena.boundary_mask) if bit}
    if boundary & set(state.frontier):
        return Verdict(kind=BOUNDARY_REACHED, round_no=0, burnt=None, trace=())
    if horizon is None:
        horizon = arena.n_vertices + 2
    trace: list[TraceRound] = []
    for n in range(1, horizon + 1):
        f_n = budget(n)
        protect = tuple(strategy.protect_for(state, n, f_n))
        state = step(state, protect, f_n)
        trace.append(TraceRound(n, tuple(sorted(set(protect))), state.frontier))
        if boundary & set(state.frontier):
            return Verdict(kind=BOUNDARY_REACHED, round_no=n, burnt=None, trace=tuple(trace))
        if not state.frontier:
            assert _separated(state), "contained state has an exposed untouched vertex"
            return Verdict(kind=CONTAINED, round_no=n, burnt=burning_count(state),
                           trace=tuple(trace))
    return Verdict(kind=ESCAPED_HORIZON, round_no=horizon, burnt=None, trace=tuple(trace))


def burning_count(state: GameState) -> int:
    return state.statuses.count(BURNING)


def _separated(state: GameState) -> bool:
    arena = state.arena
    for v in range(arena.n_vertices):
        if state.statuses[v] == BURNING:
            if any(state.statuses[w] == UNTOUCHED for w in arena.neighbors(v)):
                return False
    return True


def simulate(trunc, radius: int, strategy, budget, horizon: int | None = None) -> Verdict:
    if radius < 0:
        raise SpecError("initial radius must be >= 0")
    if radius >= trunc.depth:
        raise SpecError("initial radius must be smaller than the truncation depth")
    fire = [v for v, lv in enumerate(vertex_levels(trunc)) if lv <= radius]
    return run_game(trunc, fire, strategy, budget, horizon)


def brute_force_containment(trunc, fire: Iterable[int], budget, horizon: int | None = None,
                            restrict: bool = True) -> tuple[tuple[int, ...], ...] | None:
    """The first winning schedule in ``firebreak.oracle``'s candidate order, or None."""
    state = state_from_fire(trunc, fire)
    boundary = {v for v, bit in enumerate(trunc.boundary_mask) if bit}
    if boundary & set(state.frontier):
        return None
    if horizon is None:
        horizon = trunc.n_vertices + 2

    def search(state: GameState, n: int):  # n: the round about to be played
        if n > horizon:
            return None
        st = state.statuses
        exposed = sorted({w for v in range(trunc.n_vertices) if st[v] == BURNING
                          for w in trunc.neighbors(v) if st[w] == UNTOUCHED})
        if not exposed:
            return ()
        f_n = budget(n)
        if restrict:
            candidates = combinations(exposed, min(f_n, len(exposed)))
        else:
            untouched = [v for v in range(trunc.n_vertices) if st[v] == UNTOUCHED]
            candidates = (c for size in range(min(f_n, len(untouched)), -1, -1)
                          for c in combinations(untouched, size))
        for protect in candidates:
            child = step(state, protect, f_n)
            if boundary & set(child.frontier):
                continue
            tail = search(child, n + 1) if child.frontier else ()
            if tail is not None:
                return (protect, *tail)
        return None

    return search(state, 1)
