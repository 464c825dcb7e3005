"""Finite descriptions of infinite rooted trees and their depth-D truncations.

A tree spec is an ``Automaton``: int states with ordered child-state tuples,
unfolded from a root state.  Three constructors build one, one per way of
writing a tree down, and the spec file format names them as its variants:

* ``PeriodicSpec`` -- named states with ordered child-state sequences; the
  states reachable from the root, numbered in name order.
* ``SymmetricSpec`` -- a spherically symmetric tree given by per-level child
  counts, a preperiod followed by a repeating period; the cycle of its
  ``len(preperiod) + len(period)`` levels.
* ``ExplicitSpec`` -- a finite rooted tree given as a parent list; its
  interned subtree shapes, with children in the given order and every leaf
  continuing (``escape_leaves``).

An automaton built in code, as a Cayley model's word acceptor is, is a spec
as these are.  Level counts, expansion, finiteness, the per-state min-cut
recursion, the Perron root, regime decisions, certificates, the feasibility
program and the explicit-only oracle read only the automaton, and
``format_tree_spec`` writes it back as spec text.

A ``Truncation`` is the finite tree of all vertices at levels 0..D, in a
deterministic level-major order (children in spec order), unfolded by
substitution (``unfold``).  Its vertex arrays, ``parent``, ``state`` and
the child offsets, are memoryviews over the numpy buffers that computed
them (``packed``): they index, slice and iterate to Python ints, as
``array('i')`` does, and numpy reads them back as zero-copy views
(``view``).  ``level_starts`` holds the first id of each level and
``first_child`` that of each vertex's children, so every reader in the
package walks a level or a vertex's children as a run of ids (``level``,
one level per vertex, is for readers outside it).  A truncation is the one
game arena and holds the one adjacency: flat rows, offsets and column ids
as vertex arrays, which ``neighbors(v)`` slices and ``rows(last)`` views
and alone builds, as far as play reads them: the interior rows (ids below
``level_starts[D]``) on first use, and level D's once one of them is
asked for, by ``neighbors`` or up to the last id of a frontier or of the
side ``separated`` reads.  A tree's row lists the parent, then the
children, and as tree rows are cheap a tree builds them all at once; a
Cayley ball (``cayley.CayleyBall``) is the truncation of its group's word
acceptor whose ``_rows(n)`` list the Cayley graph's neighbours of the
first n vertices instead.  A ball unfolds levels 0..D-1 (``unfold``
without ``outer``), and the whole tree only when one of its vertex arrays
is read.  The level of a vertex is its distance from the root; the level
of an edge is the level of its child endpoint.  Level-D vertices that
continue in the infinite tree form the truncation *boundary*: separating
the root from them is what a cutset must do, and a fire reaching one of
them makes a game verdict inconclusive at this depth.  A level-D vertex
continues when its state has children, or always for an explicit tree
(``escape_leaves``): the depth of a finite description is the horizon of
what it can rule out.

Every set of vertex ids the game plays (a protect set, a frontier, the fire,
one side of ``separated``'s check) goes through one helper: ``id_set`` sorts
and deduplicates it and picks its form once; ``mark`` (check and mark of a
status byte) and ``row_entries`` take the path that form and its being a
run (PROTECT_RUN_MIN ids or more, the ends len - 1 apart) make cheapest.
Every id set a report or a trace prints is written by ``format_id_set``.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from array import array
from bisect import bisect_right
from functools import cached_property
from itertools import accumulate, islice
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ResourceLimitError, SpecError


def _deferred(name: str):
    """The module ``name`` as it is in ``sys.modules``, or one that loads on
    its first attribute read (``importlib.util.LazyLoader``).  ``np`` is numpy
    so bound, once for the package: ``branching``, ``game`` and ``cayley``
    take it from here.  numpy loads at the first truncation, Cayley ball or
    export, so ``br``, ``contain`` at or below br and ``cayley`` growth and
    polyprobe never load it.  Nothing reads a numpy attribute at import, and
    no module runs ``import numpy`` after this binding: that statement reads
    ``__spec__``, which loads it."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _deferred("numpy")

DEFAULT_VERTEX_CAP = 10_000_000
VERTEX_CAP_ENV = "FIREBREAK_VERTEX_CAP"

UNTOUCHED, PROTECTED, BURNING = 0, 1, 2  # a game's vertex statuses, one byte each


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


class Value:
    """An immutable value, the automaton's and the result records' base, with
    nothing generated for it at import: a subclass's ``__init__`` puts the
    fields ``_fields`` names in the instance dict once, and any later
    assignment raises.  Two values of one class are equal when their fields
    are, and hash by them.  Caches go in the same dict by
    ``object.__setattr__`` or ``cached_property``."""

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"


class Automaton(Value):
    """A tree spec.  ``children[s]`` is the ordered child-state tuple of
    state s; the tree unfolds from ``root``.  Every state is reachable from
    the root.  ``escape_leaves`` makes every level-D vertex of a truncation
    continue (explicit trees); otherwise a level-D vertex continues when its
    state has children."""

    _fields = ("children", "root", "escape_leaves")

    def __init__(self, children: tuple[tuple[int, ...], ...], root: int,
                 escape_leaves: bool = False):
        self.__dict__.update(children=children, root=root, escape_leaves=escape_leaves)

    def continues(self, state: int) -> bool:
        return bool(self.children[state]) or self.escape_leaves

    @cached_property
    def live_heights(self) -> tuple[float, ...]:
        """Per state s, the greatest h such that a vertex of state s has a
        descendant h levels down that continues: -1 when not even the
        vertex itself continues, infinity when s reaches a cycle.  This is
        the table live_0(s) = continues(s), live_h(s) = some child has
        live_{h-1}, kept as the height at which each state leaves it: only
        a state with children has a live child, so the table shrinks with h
        and stops changing within len(children) heights."""
        kids = self.children
        parents: list[list[int]] = [[] for _ in kids]
        for s, ks in enumerate(kids):
            for t in ks:
                parents[t].append(s)
        waiting = [len(ks) for ks in kids]  # children whose height is still open
        ready = [s for s, ks in enumerate(kids) if not ks]
        height: list[float] = [float("inf")] * len(kids)
        for s in ready:
            height[s] = 0 if self.escape_leaves else -1
        while ready:  # a state every child of which is settled, bottom-up
            for s in parents[ready.pop()]:
                waiting[s] -= 1
                if not waiting[s]:
                    height[s] = 1 + max(height[t] for t in kids[s])
                    ready.append(s)
        return tuple(height)

    def iter_level_counts(self) -> Iterator[int]:
        """Vertices per level 0, 1, 2, ..., without end; a caller that
        bounds a running total stops as soon as it passes."""
        return (sum(counts.values()) for counts in self.iter_state_counts())

    def iter_state_counts(self, counts: dict[int, int] | None = None) -> Iterator[dict[int, int]]:
        """Vertices per state at levels 0, 1, 2, ..., without end; or, from
        the given counts at some level, at that level and those below it."""
        if counts is None:
            counts = {self.root: 1}
        while True:
            yield counts
            nxt: dict[int, int] = {}
            for state, n in counts.items():
                for child in self.children[state]:
                    nxt[child] = nxt.get(child, 0) + n
            counts = nxt

    def is_finite(self) -> bool:
        """No cycle is reachable from the root: the root's live height is
        infinite exactly when one is."""
        return self.live_heights[self.root] < float("inf")


def PeriodicSpec(states: Mapping[str, tuple[str, ...]], root: str) -> Automaton:
    """The automaton of named states, ``states[s]`` the ordered child-state
    tuple of s: the states reachable from ``root``, numbered in name order."""
    if root not in states:
        raise SpecError(f"root state {root!r} is not defined")
    for name, children in states.items():
        for child in children:
            if child not in states:
                raise SpecError(f"state {name!r} has unknown child state {child!r}")
    seen, stack = {root}, [root]
    while stack:
        for child in states[stack.pop()]:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    index = {name: i for i, name in enumerate(sorted(seen))}
    return Automaton(tuple(tuple(map(index.__getitem__, states[name])) for name in index),
                     index[root])


def SymmetricSpec(preperiod: tuple[int, ...], period: tuple[int, ...]) -> Automaton:
    """Spherically symmetric tree: child count at level n is
    ``preperiod[n]`` for n < len(preperiod), then the period repeats.
    All counts must be >= 1 (the tree is infinite by construction).  State
    i is level i, and the last state loops back to the period's start."""
    if not period:
        raise SpecError("symmetric spec needs a non-empty period")
    counts = preperiod + period
    for c in counts:
        if c < 1:
            raise SpecError("symmetric child counts must be >= 1")
    succ = list(range(1, len(counts))) + [len(preperiod)]
    return Automaton(tuple((t,) * c for t, c in zip(succ, counts)), 0)


def ExplicitSpec(parents: tuple[int, ...]) -> Automaton:
    """Finite rooted tree.  Vertex 0 is the root; ``parents[i]`` is the
    parent of vertex i+1 and must come earlier in the numbering.  Its
    states are the interned subtree shapes, children in the given order.
    A truncation numbers its vertices level-major, so every vertex id a
    command reads or prints is that level-major id: the numbering given
    here exactly when the parents never decrease."""
    kids: list[list[int]] = [[] for _ in range(len(parents) + 1)]
    for i, p in enumerate(parents):
        if not 0 <= p <= i:
            raise SpecError(
                f"parent of vertex {i + 1} is {p}; parents must precede children"
            )
        kids[p].append(i + 1)
    shapes: dict[tuple[int, ...], int] = {}
    state = [0] * len(kids)
    for v in range(len(kids) - 1, -1, -1):  # bottom-up: children have larger ids
        state[v] = shapes.setdefault(tuple(state[w] for w in kids[v]), len(shapes))
    return Automaton(tuple(shapes), state[0], escape_leaves=True)


def level_counts(spec: Automaton, depth: int) -> list[int]:
    """Number of vertices per level, computed without materialising the
    tree (the automaton's state-count vectors)."""
    if depth < 0:
        raise SpecError("depth must be >= 0")
    return list(islice(spec.iter_level_counts(), depth + 1))


def view(values: memoryview) -> np.ndarray:
    """A zero-copy numpy view of a vertex array."""
    return np.frombuffer(values, np.intc)


def packed(values: np.ndarray) -> memoryview:
    """An ``np.intc`` array as a vertex array: a memoryview of its own
    buffer, which indexes to ints as ``array('i')`` does, with no copy."""
    assert values.dtype == np.intc and values.flags.c_contiguous, values.dtype
    return memoryview(values)


def zeroed(size: int) -> tuple[memoryview, np.ndarray]:
    """A zeroed vertex array of the given size and its numpy buffer, to fill in place."""
    values = np.zeros(size, np.intc)
    return memoryview(values), values


# A join of unfold's substitution costs what its level walk spends on 25
# vertices, and a level of the walk 45 (timeit on cycles, chains, free:2, 2-CPU VM)
JOIN_COST, LEVEL_COST = 25, 45


def unfold(auto: Automaton, sizes: Sequence[int], outer: bool = True) -> tuple:
    """The automaton's tree to depth D = len(sizes) - 1, ``sizes`` its level
    counts, level-major with children in spec order, as a truncation's
    fields: each vertex's parent and state and the CSR child offsets
    ``first_child`` (level-D vertices have no children), vertex arrays, and
    the first id of each level 0..D followed by the vertex count.  Without
    ``outer``, the arrays stop above level D: parent and state for the ids
    below ``level_starts[D]`` and first_child through that id, whose
    offsets run into level D: the prefixes of the whole tree's arrays.

    Level L is the substitution s -> children(s) applied L times to the
    root, so a state's level-i word (its subtree's level i, as int32 bytes)
    is its children's level-(i - 1) words joined, built only while its
    distance from the root is at most the last level's depth - i.  Where
    those joins cost more (JOIN_COST, LEVEL_COST), as on long cycles and
    deep explicit trees, each level is its predecessor's child words joined.
    The state array reads the joined levels in place; the parents and child
    offsets each come from one repeat or cumsum."""
    kids, depth = auto.children, len(sizes) - 1
    starts = (0, *accumulate(sizes))
    last = depth if outer else depth - 1  # the deepest level unfolded here
    order, dist = [auto.root], {auto.root: 0}  # breadth-first, as far as that level
    for s in order:
        for t in kids[s] if dist[s] < last else ():
            if t not in dist:
                dist[t] = dist[s] + 1
                order.append(t)
    reach, levels = [dist[s] for s in order], [array("i", [auto.root]).tobytes()]
    if JOIN_COST * ((last + 1) * len(order) - sum(reach)) > starts[last + 1] + LEVEL_COST * last:
        words = {s: array("i", kids[s]).tobytes() for s in order}
        for _ in range(last):
            levels.append(b"".join(map(words.__getitem__, array("i", levels[-1]))))
    else:
        words = {s: array("i", [s]).tobytes() for s in order}
        for i in range(1, last + 1):
            near = order[:bisect_right(reach, last - i)]
            made = [b"".join(map(words.__getitem__, kids[s])) for s in near]
            words.update(zip(near, made))
            levels.append(words[auto.root])
    state = memoryview(b"".join(levels[:last + 1])).cast("i")  # none at depth 0 without outer
    del levels, words  # the state bytes hold them now
    counts = np.array([len(ks) for ks in kids], np.intc)  # n_kids: the root is a vertex -1's child
    n_kids = np.concatenate(([1], counts[view(state)[:starts[depth]]]), dtype=np.intc)
    up = starts[last] if last >= 0 else -1  # ids below it have their children here
    parent = packed(np.arange(-1, up, dtype=np.intc).repeat(n_kids[:up + 1]))
    first_child = n_kids.cumsum(dtype=np.intc)
    if outer:
        first_child = np.concatenate((first_child, np.full(sizes[depth], starts[-1], np.intc)))
    return parent, state, packed(first_child), starts


class Truncation:
    """Depth-D truncation of a tree spec (see the module docstring): the
    children of v are ``first_child[v]`` .. ``first_child[v + 1] - 1``,
    level L holds the ids ``level_starts[L]`` .. ``level_starts[L + 1] - 1``
    and ``state`` is each vertex's automaton state."""

    def __init__(self, spec: Automaton, depth: int, parent: memoryview, state: memoryview,
                 first_child: memoryview, level_starts: tuple[int, ...]):
        self.spec, self.depth, self.level_starts = spec, depth, level_starts
        self.parent, self.state, self.first_child = parent, state, first_child

    @property
    def n_vertices(self) -> int:
        return self.level_starts[-1]

    @cached_property
    def level(self) -> memoryview:
        """Each vertex's level, for readers outside the package (the bench referee)."""
        return packed(np.arange(self.depth + 1, dtype=np.intc).repeat(np.diff(self.level_starts)))

    @cached_property
    def boundary_mask(self) -> bytes:
        """One byte per vertex, 1 at the boundary: the level-D ids that continue."""
        spec, first = self.spec, self.level_starts[self.depth]
        continues = np.array([spec.continues(s) for s in range(len(spec.children))])
        return bytes(first) + continues[view(self.state)[first:]].tobytes()

    def _rows(self, n: int) -> tuple[memoryview, memoryview]:
        """Row offsets and column ids, row v listing v's parent, then its
        children: row v starts after v - 1 parents and first_child[v] - 1
        children, and child w sits in its parent's row at parent[w] + w - 1.
        A tree's rows are cheap, so every row is built, whatever the n asked
        for; a Cayley ball builds its graph's rows for the first n vertices."""
        parent, first = view(self.parent), view(self.first_child)
        ids = np.arange(self.n_vertices + 1, dtype=np.intc)
        offsets, at = zeroed(self.n_vertices + 1)
        np.add(first, ids, out=at)
        at -= 2
        at[0] = 0
        columns, cols = zeroed(int(at[-1]))
        cols[at[1:-1]] = parent[1:]
        cols[parent[1:] + ids[1:-1] - 1] = ids[1:-1]
        return offsets, columns

    _built_rows = (array("i", [0]), array("i"))  # no row yet: the first ask builds some
    _row_views = ()  # their numpy views, made once per build

    def rows(self, last: int) -> tuple[np.ndarray, np.ndarray]:
        """Numpy views of row buffers holding rows 0..last: the interior rows
        (ids below ``level_starts[depth]``) are built on first use, and level
        D's only once one of them is asked for (see the module docstring)."""
        if len(self._built_rows[0]) <= last + 1:
            inner = self.level_starts[self.depth]
            self._built_rows = self._rows(inner if last < inner else self.n_vertices)
            self._row_views = tuple(map(view, self._built_rows))
        return self._row_views

    def neighbors(self, v: int) -> memoryview:
        self.rows(v)  # row v built; its memoryview slice iterates to ints
        offsets, columns = self._built_rows
        return columns[offsets[v]:offsets[v + 1]]

    def separated(self, statuses: bytes | bytearray) -> bool:
        """No burning vertex has an untouched neighbour, read off the row
        entries of whichever of the two statuses is fewer, as the graph is
        undirected; rows are built only up to that side's last id."""
        burning, untouched = statuses.count(BURNING), statuses.count(UNTOUCHED)
        side, other = (BURNING, UNTOUCHED) if burning <= untouched else (UNTOUCHED, BURNING)
        if not min(burning, untouched):
            return True
        status = np.frombuffer(statuses, np.uint8)
        return not (status[row_entries(self, np.flatnonzero(status == side))] == other).any()


# ---------------------------------------------------------------------------
# Id sets
# ---------------------------------------------------------------------------

# Crossovers against the loops, timeit on free:2, zd:2, zd:3, binary and
# ternary arenas (2-CPU VM): fancy indexing wins from 64-70 ids, the gather
# from 32-64 ids, one slice of a run's rows from 35-100 entries.
SPREAD_VECTOR_MIN = 64
# One find and one slice check and mark a run in 1.1 us, the loop 0.1 us an
# id: they cross at 8 ids.  Shorter runs, whose rows hold 64 entries only at
# degree 9 or more, spread by the loop too.
PROTECT_RUN_MIN = 8


def id_set(ids: Iterable[int]) -> tuple[int, ...] | range | np.ndarray:
    """The ids sorted, each once: from SPREAD_VECTOR_MIN ids on, a step-1
    range as it is or an int array (ids given otherwise become one when they
    fit in int64), and any other set a tuple of ints."""
    if isinstance(ids, np.ndarray):
        ids = _sorted_unique(ids)
    elif type(ids) is not range or ids.step != 1:
        ids = sorted(set(ids))
        if len(ids) < SPREAD_VECTOR_MIN or not -2 ** 63 <= ids[0] <= ids[-1] < 2 ** 63:
            return tuple(ids)
        ids = np.array(ids, np.int64)
    return ids if len(ids) >= SPREAD_VECTOR_MIN else as_tuple(ids)


def as_tuple(ids) -> tuple[int, ...]:
    """An id set as a tuple of Python ints."""
    return tuple(ids.tolist()) if isinstance(ids, np.ndarray) else tuple(ids)


def _sorted_unique(ids: np.ndarray) -> np.ndarray:
    """The ids sorted, each once: a strictly increasing input (a surround's sphere)
    as it is, else by a sort and a neighbour comparison, a quarter of np.unique's cost."""
    keep = np.empty(len(ids), bool)
    keep[:1] = True
    if np.greater(ids[1:], ids[:-1], out=keep[1:]).all():
        return ids
    ids = np.sort(ids)
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def _one_run(ids) -> bool:
    """Whether an id set is one run of PROTECT_RUN_MIN ids or more: its ends len - 1 apart."""
    return len(ids) >= PROTECT_RUN_MIN and ids[-1] - ids[0] == len(ids) - 1


def mark(statuses: bytearray, ids, byte: int) -> int | None:
    """Give the ids of an id set the status byte.  The first of them, in
    sorted order, that is burning or outside the statuses stops the marking
    (ids before it may be marked) and is returned.  A run takes one find and
    one slice, an int array one fancy-index pass, and a tuple the loop."""
    size = len(ids)
    if _one_run(ids):
        first, stop = int(ids[0]), int(ids[0]) + size
        if first < 0:
            return first
        if (hit := statuses.find(BURNING, first, stop)) >= 0:
            return hit
        if stop > len(statuses):
            return max(first, len(statuses))
        statuses[first:stop] = bytes((byte,)) * size
    elif type(ids) is tuple:
        for v in ids:
            if not 0 <= v < len(statuses) or statuses[v] == BURNING:
                return v
            statuses[v] = byte
    else:
        if ids[0] < 0:
            return int(ids[0])
        inside = ids[:np.searchsorted(ids, len(statuses))]
        view = np.frombuffer(statuses, np.uint8)
        if (burning := np.flatnonzero(view[inside] == BURNING)).size:
            return int(inside[burning[0]])
        if len(inside) < size:
            return int(ids[len(inside)])
        view[inside] = byte
    return None


def row_entries(arena, ids) -> np.ndarray | None:
    """The row entries of an id set of the arena's vertices, row after row,
    read off ``arena.rows``: one slice of the columns for a run, else a
    gather whose offset arithmetic runs in int32 (only the index into the
    columns is intp).  None for a tuple that is not a run whose rows hold
    SPREAD_VECTOR_MIN entries or more, whose ``neighbors`` loop is cheaper."""
    if not (run := _one_run(ids)) and type(ids) is tuple:
        return None
    offsets, columns = arena.rows(ids[-1])
    if run:
        lo, hi = offsets.item(ids[0]), offsets.item(ids[-1] + 1)
        return columns[lo:hi] if hi - lo >= SPREAD_VECTOR_MIN or type(ids) is not tuple else None
    starts = offsets[ids]
    lengths = offsets[1:][ids] - starts
    at = np.arange(lengths.sum())
    at += np.repeat(starts - np.cumsum(lengths, dtype=np.intc) + lengths, lengths)
    return columns[at]


def expand(spec: Automaton, depth: int) -> Truncation:
    """Materialise the truncation of all vertices at levels 0..depth.

    Children appear in spec order; vertex order is level-major, so the
    depth-D' truncation is a prefix of the depth-D one for D' <= D.
    Raises ResourceLimitError when the vertex count would exceed the cap
    (``FIREBREAK_VERTEX_CAP`` or 10**7 by default).
    """
    sizes = level_counts(spec, depth)
    limit = vertex_cap()
    if (total := sum(sizes)) > limit:
        raise ResourceLimitError(
            f"truncation would have {total} vertices, cap is {limit} ({VERTEX_CAP_ENV})"
        )
    return Truncation(spec, depth, *unfold(spec, sizes))


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


def parse_tree_spec(text: str) -> Automaton:
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


def format_tree_spec(spec: Automaton) -> str:
    """Spec text that parses back to the automaton: a finite tree
    (``escape_leaves``) as the level-major parents of its whole truncation,
    any other automaton as a periodic spec whose states ``s0``, ``s1``, ...
    are zero-padded, so that name order is state order."""
    if spec.escape_leaves:
        sizes = list(islice(spec.iter_level_counts(), spec.live_heights[spec.root] + 1))
        return format_parents(unfold(spec, sizes)[0][1:])
    width = len(str(len(spec.children) - 1))
    names = [f"s{s:0{width}}" for s in range(len(spec.children))]
    lines = ["variant: periodic", f"root: {names[spec.root]}"]
    for name, kids in zip(names, spec.children):
        lines.append(f"states: {name} -> {' '.join(names[t] for t in kids)}".rstrip())
    return "\n".join(lines) + "\n"


def format_parents(parents: Sequence[int]) -> str:
    """The explicit spec of a parent list, 16 ids a line: ``format_tree_spec``
    of a finite tree, which a Cayley ball's tree export writes a chunk of
    lines at a time."""
    lines = format_ids(np.array(parents, np.int64), 16, b"parents: ")
    return "variant: explicit\n" + (lines or b"parents:\n").decode()


def format_ids(ids: np.ndarray, line: int = 0, head: bytes = b"") -> bytes:
    """Non-negative ids as the bytes of ``" ".join(map(str, ids))`` or, with
    ``line``, as lines of ``line`` ids, each headed by ``head``: a record an
    id of the head, the widest id's digits and a separator, from which a
    keep mask drops the leading zeros and the heads inside a line."""
    if not len(ids):
        return b""
    at, width = len(head), len(str(int(ids.max())))
    rec = np.empty((len(ids), at + width + 1), np.uint8)
    rec[:, :at] = np.frombuffer(head, np.uint8)
    rest = ids.copy()
    for k in range(at + width - 1, at - 1, -1):
        rec[:, k] = rest % 10 + ord("0")
        rest //= 10
    rec[:, -1] = ord(" ")
    if line:
        rec[line - 1::line, -1] = rec[-1, -1] = ord("\n")
    keep = np.ones(rec.shape, bool)
    keep[:, :at] = False
    keep[::line or len(ids), :at] = True
    keep[-1, -1] = bool(line)
    for k in range(1, width):  # the digit standing for 10**k, kept from 10**k on
        np.greater_equal(ids, 10 ** k, out=keep[:, at + width - 1 - k])
    return rec.tobytes() if keep.all() else rec[keep].tobytes()


def format_id_set(ids) -> str:
    """An id set as report and trace text, ids space-separated or ``-`` when none: a range
    or an int array of non-negative ids by ``format_ids``, a tuple or a list joined."""
    if not len(ids):
        return "-"
    if type(ids) is range:
        ids = np.arange(ids.start, ids.stop, ids.step)
    if isinstance(ids, np.ndarray):
        return format_ids(ids).decode()
    return " ".join(map(str, ids))


def load_tree_spec(path: str) -> Automaton:
    return parse_tree_spec(read_text(path))


def read_text(path: str) -> str:
    """A UTF-8 text file's contents; SpecError naming the file when it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise SpecError(f"{path}: not UTF-8 text ({exc.reason})") from exc
