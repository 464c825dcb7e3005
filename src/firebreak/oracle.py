"""Brute-force ground truth on small instances: exhaustive game search for
containment.

The search enumerates protect-sets round by round, playing each through
``game.step`` from ``game.state_from_fire``, with a transposition table
keyed on the status vector alone: a vertex burns in the round equal to its
distance from the fire through burning vertices, and each round searched
burns one, so the statuses fix the round.  Only a strict search keeps the
table: a restricted round leaves its whole front protected or burning, so
the statuses fix the history and none recurs.  Fire reaching a
truncation-boundary vertex (``game.reached``) is a loss: those vertices
stand in for the infinite continuation of the tree.

Two candidate modes:

* restricted (default): protect only untouched vertices adjacent to the
  fire, exactly as many as the budget allows.  For fires that contain the
  root and spread down a tree this loses nothing: any play deeper in a
  subtree can be replaced by the ancestor sitting on the current fire
  front, which saves at least as much.  Protecting fewer vertices than the
  budget is never better, because protection is monotone.
* strict: enumerate every subset of every untouched vertex set, all sizes
  up to the budget.  This is the unpruned ground truth used for audits
  (and for fires that do not contain the root); keep it to ~12 free
  vertices.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable

from .errors import ResourceLimitError, SpecError
from .game import (UNTOUCHED, BudgetSequence, GameState, format_schedule, parse_schedule,
                   reached, state_from_fire, step)
from .trees import Truncation, Value, read_text

DEFAULT_FREE_CAP = 20
STRICT_FREE_CAP = 12


class OracleDecision(Value):
    _fields = ("feasible", "schedule")

    def __init__(self, feasible: bool, schedule: tuple[tuple[int, ...], ...] | None):
        # schedule: the protect set per round, from round 1
        self.__dict__.update(feasible=feasible, schedule=schedule)


def brute_force_containment(trunc: Truncation, x0: Iterable[int],
                            budget: BudgetSequence,
                            horizon: int | None = None,
                            restrict: bool = True) -> OracleDecision:
    """Exact existence of a containment strategy, with a witness schedule
    when one exists.  The free-vertex cap, DEFAULT_FREE_CAP for the
    restricted search and STRICT_FREE_CAP otherwise, guards against
    runaway searches."""
    if horizon is not None and horizon < 0:
        raise SpecError("horizon must be >= 0")
    start = state_from_fire(trunc, x0)  # SpecError on a fire id out of range, before the cap
    free = trunc.n_vertices - len(start.frontier)
    cap = DEFAULT_FREE_CAP if restrict else STRICT_FREE_CAP
    if free > cap:
        raise ResourceLimitError(
            f"{free} vertices outside the fire exceed the oracle cap {cap}"
        )
    if reached(trunc, start.frontier):
        return OracleDecision(feasible=False, schedule=None)
    if horizon is None:
        horizon = trunc.n_vertices + 2

    memo: dict[bytes, tuple[tuple[int, ...], ...] | None] = {}  # read by a strict search only

    def search(state: GameState) -> tuple[tuple[int, ...], ...] | None:
        """A winning schedule from this state on, None when there is none."""
        if state.round_no >= horizon:
            return None
        if restrict:
            return explore(state)
        if (key := bytes(state.statuses)) not in memo:
            memo[key] = explore(state)
        return memo[key]

    def explore(state: GameState) -> tuple[tuple[int, ...], ...] | None:
        """search within the horizon.  Only the frontier can have untouched
        neighbours: older burning ones spread to all of theirs."""
        st = state.statuses
        front = sorted({w for v in state.frontier for w in trunc.neighbors(v)
                        if st[w] == UNTOUCHED})
        if not front:
            return ()  # nothing can spread: already contained
        f_n = budget(state.round_no + 1)
        if restrict:
            candidates = combinations(front, min(f_n, len(front)))
        else:
            untouched = [v for v, s in enumerate(st) if s == UNTOUCHED]
            candidates = chain.from_iterable(
                combinations(untouched, size) for size in range(min(f_n, len(untouched)), -1, -1))
        for protect in candidates:
            child = step(state, protect, f_n)
            if reached(trunc, child.frontier):
                continue
            tail = search(child) if len(child.frontier) else ()
            if tail is not None:
                return (protect, *tail)
        return None

    try:
        schedule = search(start)
    finally:
        search = explore = None  # each closure holds the other: free them without the cyclic GC
    return OracleDecision(feasible=schedule is not None, schedule=schedule)


# ---------------------------------------------------------------------------
# Result cache: plain text keyed by content hash
# ---------------------------------------------------------------------------


def oracle_key(spec_text: str, depth: int, x0: Iterable[int], budget: BudgetSequence,
               horizon: int | None, restrict: bool) -> str:
    """The hash of one question: truncation (spec, depth), fire, budget, horizon, mode."""
    import hashlib  # here, not at start-up: it loads OpenSSL, which only the --cache path needs

    payload = "|".join([
        spec_text,
        str(depth),
        ",".join(str(v) for v in sorted(set(x0))),
        budget.describe(),
        str(horizon),
        "restricted" if restrict else "strict",
    ])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class OracleCache:
    """One decision per line: ``<key> infeasible`` or ``<key> feasible
    1:ids;2:ids``, the witness as ``game.format_schedule`` writes it."""

    def __init__(self, path: str):
        self.path = path
        self.entries: dict[str, OracleDecision] = {}
        try:
            text = read_text(path)
        except FileNotFoundError:
            text = ""
        for lineno, line in enumerate(text.split("\n"), start=1):
            line = line.strip()
            if not line:
                continue
            key, _, rest = line.partition(" ")
            try:
                self.entries[key] = _decision_from_text(rest)
            except ValueError as exc:
                raise SpecError(
                    f"{path}: line {lineno}: malformed cache entry {line!r}") from exc

    def get(self, key: str) -> OracleDecision | None:
        return self.entries.get(key)

    def put(self, key: str, decision: OracleDecision) -> None:
        self.entries[key] = decision
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(f"{key} {_decision_to_text(decision)}\n")


def _decision_to_text(decision: OracleDecision) -> str:
    if not decision.feasible:
        return "infeasible"
    return "feasible " + format_schedule(dict(enumerate(decision.schedule, start=1)))


def _decision_from_text(text: str) -> OracleDecision:
    """A line's decision; ValueError (SpecError is one) unless ``_decision_to_text`` writes
    the line so, which takes the witness's rounds relabelled 1, 2, ... as they are read."""
    if text == "infeasible":
        return OracleDecision(feasible=False, schedule=None)
    rounds = parse_schedule(text.partition(" ")[2], "cache")
    decision = OracleDecision(feasible=True, schedule=tuple(rounds.values()))
    if text != _decision_to_text(decision):
        raise ValueError(f"{text!r} is not a decision as written")
    return decision
