"""Finite descriptions of infinite rooted trees and their depth-D truncations.

Three spec variants are accepted, one per way of writing a tree down:

* ``PeriodicSpec`` -- a finite automaton: named states with ordered
  child-state sequences, unfolded from the root state.
* ``SymmetricSpec`` -- spherically symmetric trees given by per-level child
  counts, a preperiod followed by a repeating period.
* ``ExplicitSpec`` -- a finite rooted tree given as a parent list.

All of them compile to one internal ``Automaton`` (``compile``): int states
with ordered child-state tuples and a root state.  A periodic spec keeps its
reachable states; a symmetric spec becomes the cycle of its
``len(preperiod) + len(period)`` levels; an explicit tree becomes its
interned subtree shapes, with children in spec order.  Level counts,
expansion, finiteness, the per-state min-cut recursion and the feasibility
program read only the automaton.  Besides ``compile`` and the spec file
format, only decisions that need a fact one variant alone has ask which
variant they were given: the periodic Perron root and certificates, the
symmetric closed-form bracket, and the explicit-only oracle.

A ``Truncation`` is the finite tree of all vertices at levels 0..D, in a
deterministic level-major order (children in spec order).  The level of a
vertex is its distance from the root; the level of an edge is the level of
its child endpoint.  Level-D vertices that continue in the infinite tree
form the truncation *boundary*: separating the root from them is what a
cutset must do, and a fire reaching one of them makes a game verdict
inconclusive at this depth.  A level-D vertex continues when its state has
children, or always for an explicit tree (``escape_leaves``): the depth of
a finite description is the horizon of what it can rule out.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

from .errors import ResourceLimitError, SpecError

DEFAULT_VERTEX_CAP = 10_000_000
VERTEX_CAP_ENV = "FIREBREAK_VERTEX_CAP"


def vertex_cap() -> int:
    raw = os.environ.get(VERTEX_CAP_ENV)
    if raw is None:
        return DEFAULT_VERTEX_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise SpecError(f"{VERTEX_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise SpecError(f"{VERTEX_CAP_ENV} must be positive, got {cap}")
    return cap


@dataclass(frozen=True)
class PeriodicSpec:
    """Automaton description: ``states[s]`` is the ordered child-state tuple."""

    states: Mapping[str, tuple[str, ...]]
    root: str

    def __post_init__(self):
        if self.root not in self.states:
            raise SpecError(f"root state {self.root!r} is not defined")
        for name, children in self.states.items():
            for child in children:
                if child not in self.states:
                    raise SpecError(f"state {name!r} has unknown child state {child!r}")

    def reachable_states(self) -> tuple[str, ...]:
        seen = {self.root}
        stack = [self.root]
        while stack:
            for child in self.states[stack.pop()]:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return tuple(sorted(seen))

    def is_finite(self) -> bool:
        """True when the unfolded tree has finitely many vertices, i.e. no
        cycle of the automaton is reachable from the root."""
        return compile(self).is_finite()


@dataclass(frozen=True)
class SymmetricSpec:
    """Spherically symmetric tree: child count at level n is
    ``preperiod[n]`` for n < len(preperiod), then the period repeats.
    All counts must be >= 1 (the tree is infinite by construction)."""

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        if not self.period:
            raise SpecError("symmetric spec needs a non-empty period")
        for c in self.preperiod + self.period:
            if c < 1:
                raise SpecError("symmetric child counts must be >= 1")


@dataclass(frozen=True)
class ExplicitSpec:
    """Finite rooted tree.  Vertex 0 is the root; ``parents[i]`` is the
    parent of vertex i+1 and must come earlier in the numbering."""

    parents: tuple[int, ...]

    def __post_init__(self):
        for i, p in enumerate(self.parents):
            if not 0 <= p <= i:
                raise SpecError(
                    f"parent of vertex {i + 1} is {p}; parents must precede children"
                )

    @property
    def n_vertices(self) -> int:
        return len(self.parents) + 1

    def children_lists(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for i, p in enumerate(self.parents):
            kids[p].append(i + 1)
        return kids

    def levels(self) -> list[int]:
        lv = [0] * self.n_vertices
        for i, p in enumerate(self.parents):
            lv[i + 1] = lv[p] + 1
        return lv

    def height(self) -> int:
        return max(self.levels())


TreeSpec = Union[PeriodicSpec, SymmetricSpec, ExplicitSpec]


@dataclass(frozen=True)
class Automaton:
    """The one internal form of a tree spec.  ``children[s]`` is the ordered
    child-state tuple of state s; the tree unfolds from ``root``.  Every
    state is reachable from the root.  ``escape_leaves`` makes every
    level-D vertex of a truncation continue (explicit trees); otherwise a
    level-D vertex continues when its state has children.  ``names`` holds
    the state names of a periodic spec, indexed by state."""

    children: tuple[tuple[int, ...], ...]
    root: int
    escape_leaves: bool = False
    names: tuple[str, ...] | None = None

    def continues(self, state: int) -> bool:
        return bool(self.children[state]) or self.escape_leaves

    def level_states(self, depth: int) -> list[tuple[int, ...]]:
        """The states occurring at each level 0..depth, sorted; stops early
        (shorter list) once a level is empty."""
        out = [(self.root,)]
        while len(out) <= depth and out[-1]:
            out.append(tuple(sorted({t for s in out[-1] for t in self.children[s]})))
        return out

    def level_counts(self, depth: int) -> list[int]:
        """Vertices per level 0..depth, from state-count vectors."""
        counts = {self.root: 1}
        out = [1]
        for _ in range(depth):
            nxt: dict[int, int] = {}
            for state, n in counts.items():
                for child in self.children[state]:
                    nxt[child] = nxt.get(child, 0) + n
            out.append(sum(nxt.values()))
            counts = nxt
        return out

    def is_finite(self) -> bool:
        """No cycle: an acyclic automaton has no state deeper than its
        state count, a cyclic one has states at every level."""
        return not self.level_states(len(self.children))[-1]


def compile(spec: TreeSpec) -> Automaton:
    """The automaton of a spec; the only code that reads a spec's variant.
    Specs are immutable values, so the automaton is built once and kept on
    the spec (an explicit tree of 10**6 vertices takes seconds to intern)."""
    auto = spec.__dict__.get("_automaton")
    if auto is None:
        auto = _build_automaton(spec)
        object.__setattr__(spec, "_automaton", auto)
    return auto


def _build_automaton(spec: TreeSpec) -> Automaton:
    if isinstance(spec, PeriodicSpec):
        names = spec.reachable_states()
        index = {name: i for i, name in enumerate(names)}
        children = tuple(tuple(index[t] for t in spec.states[name]) for name in names)
        return Automaton(children, index[spec.root], names=names)
    if isinstance(spec, SymmetricSpec):
        # state i is level i; the last state loops back to the period start
        counts = spec.preperiod + spec.period
        succ = list(range(1, len(counts))) + [len(spec.preperiod)]
        return Automaton(tuple((t,) * c for t, c in zip(succ, counts)), 0)
    # explicit: intern subtree shapes bottom-up (children have larger ids)
    kids = spec.children_lists()
    shapes: dict[tuple[int, ...], int] = {}
    state = [0] * spec.n_vertices
    for v in range(spec.n_vertices - 1, -1, -1):
        state[v] = shapes.setdefault(tuple(state[w] for w in kids[v]), len(shapes))
    return Automaton(tuple(shapes), state[0], escape_leaves=True)


def level_counts(spec: TreeSpec, depth: int) -> list[int]:
    """Number of vertices per level, computed without materialising the
    tree (state-count vectors of the spec's automaton)."""
    if depth < 0:
        raise SpecError("depth must be >= 0")
    return compile(spec).level_counts(depth)


@dataclass
class Truncation:
    """Depth-D truncation of a tree spec, vertices in level-major order.
    ``boundary`` lists the level-D vertices that continue in the infinite
    tree (see the module docstring for explicit specs)."""

    spec: TreeSpec
    depth: int
    parent: list[int]
    children: list[list[int]]
    level: list[int]
    boundary: tuple[int, ...] = field(default=())

    @property
    def n_vertices(self) -> int:
        return len(self.parent)

    @property
    def states(self) -> list[str] | None:
        """Origin state name per vertex for periodic specs (None otherwise),
        derived on demand from the spec's automaton."""
        auto = compile(self.spec)
        if auto.names is None:
            return None
        state = [auto.root] * self.n_vertices
        for v in range(self.n_vertices):
            for w, t in zip(self.children[v], auto.children[state[v]]):
                state[w] = t
        return [auto.names[s] for s in state]

    def neighbors(self, v: int) -> list[int]:
        if self.parent[v] < 0:
            return self.children[v]
        return [self.parent[v]] + self.children[v]

    def path_of(self, v: int) -> tuple[int, ...]:
        """Root-to-v path as child indices (position among siblings)."""
        rev = []
        while self.parent[v] >= 0:
            rev.append(self.children[self.parent[v]].index(v))
            v = self.parent[v]
        return tuple(reversed(rev))

    def index_of_path(self, path: Sequence[int]) -> int:
        v = 0
        for step in path:
            v = self.children[v][step]
        return v


def expand(spec: TreeSpec, depth: int, cap: int | None = None) -> Truncation:
    """Materialise the truncation of all vertices at levels 0..depth.

    Children appear in spec order; vertex order is level-major, so the
    depth-D' truncation is a prefix of the depth-D one for D' <= D.
    Raises ResourceLimitError when the vertex count would exceed the cap
    (``FIREBREAK_VERTEX_CAP`` or 10**7 by default).
    """
    if depth < 0:
        raise SpecError("depth must be >= 0")
    limit = cap if cap is not None else vertex_cap()
    auto = compile(spec)
    total = sum(auto.level_counts(depth))
    if total > limit:
        raise ResourceLimitError(
            f"truncation would have {total} vertices, cap is {limit} ({VERTEX_CAP_ENV})"
        )

    succ = auto.children
    parent: list[int] = [-1]
    children: list[list[int]] = [[]]
    level: list[int] = [0]
    state = [auto.root]
    frontier = [0]
    for lv in range(1, depth + 1):
        nxt = []
        for v in frontier:
            for child_state in succ[state[v]]:
                w = len(parent)
                parent.append(v)
                children.append([])
                children[v].append(w)
                level.append(lv)
                state.append(child_state)
                nxt.append(w)
        frontier = nxt
    boundary = tuple(v for v in frontier if auto.continues(state[v]))
    return Truncation(spec, depth, parent, children, level, boundary)


def ball(trunc: Truncation, radius: int) -> tuple[int, ...]:
    """All vertices at levels 0..radius.  The radius must not exceed the
    truncation depth (the ball would not be fully contained)."""
    if radius < 0:
        raise SpecError("ball radius must be >= 0")
    if radius > trunc.depth:
        raise SpecError(
            f"ball of radius {radius} is not contained in a depth-{trunc.depth} truncation"
        )
    return tuple(v for v in range(trunc.n_vertices) if trunc.level[v] <= radius)


# ---------------------------------------------------------------------------
# Spec file format
#
#   variant: periodic | symmetric | explicit
#   root: A                      (periodic)
#   states: A -> A B ; B -> A    (periodic; `;`-separated or repeated lines)
#   levels: 3 2 | 1 2            (symmetric: preperiod | period)
#   parents: 0 0 1 1             (explicit; may repeat lines, values append)
#
# '#' starts a comment; blank lines are ignored; unknown fields rejected.
# ---------------------------------------------------------------------------

_FIELDS = {"variant", "root", "states", "levels", "parents"}


def parse_tree_spec(text: str) -> TreeSpec:
    fields: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise SpecError(f"line {lineno}: expected 'field: value', got {raw!r}")
        key, value = line.split(":", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise SpecError(f"line {lineno}: unknown field {key!r}")
        fields.setdefault(key, []).append(value.strip())

    variant = _single(fields, "variant")
    if variant == "periodic":
        _forbid(fields, "levels", "parents", variant=variant)
        root = _single(fields, "root")
        states: dict[str, tuple[str, ...]] = {}
        for chunk in fields.get("states", []):
            for entry in chunk.split(";"):
                entry = entry.strip()
                if not entry:
                    continue
                if "->" not in entry:
                    raise SpecError(f"state entry {entry!r} needs 'NAME -> children'")
                name, kids = entry.split("->", 1)
                name = name.strip()
                if name in states:
                    raise SpecError(f"state {name!r} defined twice")
                states[name] = tuple(kids.split())
        if not states:
            raise SpecError("periodic spec needs a 'states' field")
        return PeriodicSpec(states=states, root=root)

    if variant == "symmetric":
        _forbid(fields, "root", "states", "parents", variant=variant)
        raw = _single(fields, "levels")
        if "|" not in raw:
            raise SpecError("levels must be 'PREPERIOD | PERIOD' (preperiod may be empty)")
        pre_raw, per_raw = raw.split("|", 1)
        try:
            pre = tuple(int(t) for t in pre_raw.split())
            per = tuple(int(t) for t in per_raw.split())
        except ValueError as exc:
            raise SpecError(f"levels entries must be integers: {raw!r}") from exc
        return SymmetricSpec(preperiod=pre, period=per)

    if variant == "explicit":
        _forbid(fields, "root", "states", "levels", variant=variant)
        parents: list[int] = []
        for chunk in fields.get("parents", []):
            try:
                parents.extend(int(t) for t in chunk.split())
            except ValueError as exc:
                raise SpecError(f"parents entries must be integers: {chunk!r}") from exc
        return ExplicitSpec(parents=tuple(parents))

    raise SpecError(f"unknown variant {variant!r}")


def _single(fields: dict[str, list[str]], key: str) -> str:
    values = fields.get(key)
    if not values:
        raise SpecError(f"missing required field {key!r}")
    if len(values) > 1:
        raise SpecError(f"field {key!r} given more than once")
    return values[0]


def _forbid(fields: dict[str, list[str]], *keys: str, variant: str) -> None:
    for key in keys:
        if key in fields:
            raise SpecError(f"field {key!r} is not valid for variant {variant!r}")


def format_tree_spec(spec: TreeSpec) -> str:
    if isinstance(spec, PeriodicSpec):
        lines = ["variant: periodic", f"root: {spec.root}"]
        for name in sorted(spec.states):
            kids = " ".join(spec.states[name])
            lines.append(f"states: {name} -> {kids}".rstrip())
        return "\n".join(lines) + "\n"
    if isinstance(spec, SymmetricSpec):
        pre = " ".join(str(c) for c in spec.preperiod)
        per = " ".join(str(c) for c in spec.period)
        head = f"{pre} | {per}" if pre else f"| {per}"
        return f"variant: symmetric\nlevels: {head}\n"
    lines = ["variant: explicit"]
    row = spec.parents
    for i in range(0, len(row), 16):
        lines.append("parents: " + " ".join(str(p) for p in row[i:i + 16]))
    if not row:
        lines.append("parents:")
    return "\n".join(lines) + "\n"


def load_tree_spec(path: str) -> TreeSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tree_spec(fh.read())
