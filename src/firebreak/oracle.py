"""Brute-force ground truth on small instances: exhaustive game search for
containment.

The search enumerates protect-sets round by round with a transposition
table keyed on the status vector and the (budget-stabilised) round.  Fire
reaching a truncation-boundary vertex is a loss: those vertices stand in
for the infinite continuation of the tree.

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

import hashlib
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .errors import ResourceLimitError, SpecError
from .game import BURNING, PROTECTED, UNTOUCHED, BudgetSequence
from .trees import Truncation, read_text

DEFAULT_FREE_CAP = 20
STRICT_FREE_CAP = 12


@dataclass(frozen=True)
class OracleDecision:
    feasible: bool
    schedule: tuple[tuple[int, ...], ...] | None  # protect set per round, from round 1


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
    fire = frozenset(x0)
    for v in fire:
        if not 0 <= v < trunc.n_vertices:
            raise SpecError(f"initial fire vertex {v} out of range")
    free = trunc.n_vertices - len(fire)
    cap = DEFAULT_FREE_CAP if restrict else STRICT_FREE_CAP
    if free > cap:
        raise ResourceLimitError(
            f"{free} vertices outside the fire exceed the oracle cap {cap}"
        )
    if any(map(trunc.is_boundary, fire)):
        return OracleDecision(feasible=False, schedule=None)
    if horizon is None:
        horizon = trunc.n_vertices + 2
    stab = budget.stabilization_round()

    statuses = bytearray(trunc.n_vertices)
    for v in fire:
        statuses[v] = BURNING

    memo: dict[tuple, tuple[tuple[int, ...], ...] | None] = {}
    vertices = range(trunc.n_vertices)
    neighbors = [list(trunc.neighbors(v)) for v in vertices]  # read at every node

    def live_front(st: bytearray) -> bool:
        """Whether some burning vertex has an untouched neighbour."""
        return any(st[v] == BURNING and any(st[w] == UNTOUCHED for w in neighbors[v])
                   for v in vertices)

    def spread(st: bytearray) -> list[int]:
        # synchronous step: only vertices burning before the round ignite
        # their neighbours
        newly = sorted({
            w
            for v in vertices
            if st[v] == BURNING
            for w in neighbors[v]
            if st[w] == UNTOUCHED
        })
        for w in newly:
            st[w] = BURNING
        return newly

    def candidate_sets(st: bytearray, f_n: int) -> Iterator[tuple[int, ...]]:
        if restrict:
            cands = [
                v for v in vertices
                if st[v] == UNTOUCHED
                and any(st[w] == BURNING for w in neighbors[v])
            ]
            yield from combinations(cands, min(f_n, len(cands)))
        else:
            cands = [v for v in vertices if st[v] == UNTOUCHED]
            for size in range(min(f_n, len(cands)), -1, -1):
                yield from combinations(cands, size)

    def search(st: bytearray, round_no: int) -> tuple[tuple[int, ...], ...] | None:
        """A winning schedule from this state on, None when there is none."""
        if round_no > horizon:
            return None
        key_round = round_no if stab is None else min(round_no, stab)
        key = (bytes(st), key_round)
        if key in memo:
            return memo[key]
        if not live_front(st):
            memo[key] = ()  # nothing can spread: already contained
            return memo[key]
        f_n = budget(round_no)
        result = None
        for protect in candidate_sets(st, f_n):
            child = bytearray(st)
            for v in protect:
                child[v] = PROTECTED
            newly = spread(child)
            if any(map(trunc.is_boundary, newly)):
                continue
            tail = search(child, round_no + 1) if newly else ()
            if tail is not None:
                result = (protect, *tail)
                break
        memo[key] = result
        return result

    schedule = search(statuses, 1)
    return OracleDecision(feasible=schedule is not None, schedule=schedule)


# ---------------------------------------------------------------------------
# Result cache: plain text keyed by content hash
# ---------------------------------------------------------------------------


def oracle_key(spec_text: str, depth: int, x0: Iterable[int], budget: BudgetSequence,
               horizon: int | None, restrict: bool) -> str:
    """The hash of one question: truncation (spec, depth), fire, budget, horizon, mode."""
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
    """One decision per line: ``<key> infeasible`` or
    ``<key> feasible r1:ids;r2:ids`` (ids comma-separated, '-' when empty)."""

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
    parts = []
    for r, vs in enumerate(decision.schedule, start=1):
        ids = ",".join(str(v) for v in vs) if vs else "-"
        parts.append(f"{r}:{ids}")
    return "feasible " + (";".join(parts) if parts else "-")


def _decision_from_text(text: str) -> OracleDecision:
    if text == "infeasible":
        return OracleDecision(feasible=False, schedule=None)
    head, _, body = text.partition(" ")
    if head != "feasible":
        raise ValueError(f"unknown decision {head!r}")
    if body in ("", "-"):
        return OracleDecision(feasible=True, schedule=())
    schedule = []
    for chunk in body.split(";"):
        _r, _, ids = chunk.partition(":")
        schedule.append(tuple(int(t) for t in ids.split(",")) if ids != "-" else ())
    return OracleDecision(feasible=True, schedule=tuple(schedule))
