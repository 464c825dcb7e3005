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
``format_tree_spec`` writes it back as spec text.  One walk answers each
question about its shape: one walk of Tarjan's gives its components and
live heights, one of its state counts its level counts (``level_counts``,
stopped past the caller's cap) and one unfolding its truncation.

A ``Truncation`` is the finite tree of all vertices at levels 0..D, in a
deterministic level-major order (children in spec order), unfolded by
substitution (``unfold``) on the first read of a vertex array or a row, which
``expand`` makes at once and a Cayley ball only when it is read.  Its vertex
arrays, ``parent``, ``state`` and the child offsets, are memoryviews over the
numpy buffers that computed them (``packed``): they index, slice and iterate
to Python ints, as ``array('i')`` does, and numpy reads them back as
zero-copy views (``view``).  ``level_starts`` holds the first id of each
level and ``first_child`` that of each vertex's children, so every reader in
the package walks a level or a vertex's children as a run of ids (``level``,
one level per vertex, is for readers outside it).  A truncation is the one
game arena and holds the one adjacency: flat rows, offsets and column ids as
vertex arrays, which ``neighbors(v)`` slices and ``rows()`` views, all built
on the first read of either.  A tree's row lists the parent, then the
children; a Cayley ball (``cayley.CayleyBall``) is the truncation of its
group's word acceptor whose ``_rows()`` list the Cayley graph's neighbours
instead.  The level of a vertex is its distance from the root, on a ball as
on a tree: every row entry lies within one level of its row's vertex, and the
parent one level up is among them, which lets a game spread a fire that fills
whole levels from ``level_starts`` alone.  The level of an edge is the level
of its child endpoint.  Level-D vertices that continue in the infinite tree
form the truncation *boundary*: separating the root from them is what a
cutset must do, and a fire reaching one of them makes a game verdict
inconclusive at this depth.  A level-D vertex continues when its state has
children, or always for an explicit tree (``escape_leaves``): the depth of a
finite description is the horizon of what it can rule out.

Every set of vertex ids the game plays (a protect set, a frontier, the fire)
goes through one helper: ``id_set`` sorts and deduplicates it and picks its
form once, a range for a run of SPREAD_VECTOR_MIN ids or more, an int array
for any other set that large and a tuple below it.  ``mark`` (check and mark
of a status byte) and ``row_entries`` take their path by that form alone: a
range is one slice, an array one numpy pass and a tuple the loop.  Every id
set a report or a trace prints is written by ``format_id_set``, and every id
list the package prints, a tree export's parent lines among them, by one
digit writer, ``format_ids``.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from array import array
from bisect import bisect_right
from functools import cache, cached_property
from itertools import accumulate, islice, pairwise
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ResourceLimitError, SpecError


def _deferred(name: str):
    """The module ``name`` as it is in ``sys.modules``, or one that loads on
    its first attribute read (``importlib.util.LazyLoader``).  ``np`` is numpy
    so bound, once for the package: ``branching``, ``game`` and ``cayley``
    take it from here.  numpy loads at the first truncation, unfolded Cayley
    ball or export, so ``br``, ``contain`` at or below br and ``cayley``
    growth, polyprobe and a contained surround never load it.  Nothing reads
    a numpy attribute at import, and no module runs ``import numpy`` after
    this binding: that statement reads ``__spec__``, which loads it."""
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
        if (digits := sys.get_int_max_str_digits()) and sum(map(str.isdecimal, raw)) > digits:
            raise ResourceLimitError(f"{VERTEX_CAP_ENV} has more than {digits} digits, past "
                                     f"sys.get_int_max_str_digits() = {digits}") from None
        raise SpecError(f"{VERTEX_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise SpecError(f"{VERTEX_CAP_ENV} must be positive, got {cap}")
    return cap


class Value:
    """An immutable value, the automaton's and the result records' base, with
    nothing generated for it at import.  The one constructor writes the
    fields ``_fields`` names, by position or by name and else from
    ``_defaults``, in the instance dict once, and raises TypeError unless
    each is given once; any later assignment raises.  Two values of one
    class are equal when their fields are, and hash by them.  Caches go in
    the same dict by ``object.__setattr__`` or ``cached_property``."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init__(self, *args, **named):
        fields, values = self._fields, self.__dict__
        values.update(zip(fields, args), **named)
        once = len(values) == len(args) + len(named) and not (named and named.keys() - fields)
        if len(values) < len(fields):
            values.update(self._defaults | values)
        if not once or len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes {', '.join(fields)}, each once, "
                            "by position or by name")

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
    the root.  ``escape_leaves`` (default False) makes every level-D vertex
    of a truncation continue (explicit trees); otherwise a level-D vertex
    continues when its state has children."""

    _fields = ("children", "root", "escape_leaves")
    _defaults = {"escape_leaves": False}

    def continues(self, state: int) -> bool:
        return bool(self.children[state]) or self.escape_leaves

    # the strongly connected components, each a sorted state tuple after
    # those of its children's components (see _walk)
    components = property(lambda self: self._walk[0])
    # per state s, the greatest h such that a vertex of state s has a
    # descendant h levels down that continues: -1 when not even the vertex
    # itself continues, infinity when s reaches a cycle (see _walk)
    live_heights = property(lambda self: self._walk[1])

    @cached_property
    def _walk(self) -> tuple[tuple[tuple[int, ...], ...], tuple[float, ...]]:
        """Components and live heights from one Tarjan (1972) walk from the
        root, with a stack of (state, child iterator, stack height at entry);
        a done state gets index len(children), which lowers no low link.  As
        a component closes, a state alone in it and not its own child sits
        one level above its highest child (a leaf at 0 if it continues, else
        -1), and any other is on a cycle, as is a child still on the stack."""
        kids, root, done = self.children, self.root, len(self.children)
        index, low, height = [-1] * done, [0] * done, [float("inf")] * done
        top = [int(self.escape_leaves) - 2] * done  # the highest child height so far
        index[root], seen, stack, comps = 0, 1, [root], []
        work = [(root, iter(kids[root]), 0)]
        while work:
            v, todo, at = work[-1]
            for w in todo:
                if index[w] < 0:
                    index[w] = low[w] = seen
                    seen += 1
                    work.append((w, iter(kids[w]), len(stack)))
                    stack.append(w)
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
                if height[w] > top[v]:
                    top[v] = height[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    if at == len(stack) - 1:
                        height[v] = top[v] + 1
                    comps.append(tuple(sorted(stack[at:])))
                    for s in stack[at:]:
                        index[s] = done
                    del stack[at:]
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if height[v] > top[u]:
                        top[u] = height[v]
        return tuple(comps), tuple(height)

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


def level_counts(spec: Automaton, depth: int, cap: float = math.inf) -> list[int]:
    """Number of vertices per level 0..depth, computed without materialising
    the tree (the automaton's state-count vectors).  With a cap the walk
    stops at the first level whose running total passes it, and the counts
    end there, summing past the cap."""
    if depth < 0:
        raise SpecError("depth must be >= 0")
    sizes, total = [], 0
    for size in islice(spec.iter_level_counts(), depth + 1):
        sizes.append(size)
        if (total := total + size) > cap:
            break
    return sizes


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


def unfold(auto: Automaton, sizes: Sequence[int]) -> tuple[memoryview, memoryview, memoryview]:
    """The automaton's tree to depth D = len(sizes) - 1, ``sizes`` its level
    counts, level-major with children in spec order, as a truncation's
    vertex arrays: each vertex's parent and state and the CSR child offsets
    ``first_child`` (level-D vertices have no children).

    Level L is the substitution s -> children(s) applied L times to the
    root, so a state's level-i word (its subtree's level i, as int32 bytes)
    is its children's level-(i - 1) words joined, built only while its
    distance from the root is at most D - i.  Where those joins cost more
    (JOIN_COST, LEVEL_COST), as on long cycles and deep explicit trees, each
    level is its predecessor's child words joined.
    The state array reads the joined levels in place; the parents and child
    offsets each come from one repeat or cumsum."""
    kids, depth = auto.children, len(sizes) - 1
    starts = (0, *accumulate(sizes))
    order, dist = [auto.root], {auto.root: 0}  # breadth-first, as far as level D
    for s in order:
        for t in kids[s] if dist[s] < depth else ():
            if t not in dist:
                dist[t] = dist[s] + 1
                order.append(t)
    reach, levels = [dist[s] for s in order], [array("i", [auto.root]).tobytes()]
    if JOIN_COST * ((depth + 1) * len(order) - sum(reach)) > starts[-1] + LEVEL_COST * depth:
        words = {s: array("i", kids[s]).tobytes() for s in order}
        for _ in range(depth):
            levels.append(b"".join(map(words.__getitem__, array("i", levels[-1]))))
    else:
        words = {s: array("i", [s]).tobytes() for s in order}
        for i in range(1, depth + 1):
            near = order[:bisect_right(reach, depth - i)]
            made = [b"".join(map(words.__getitem__, kids[s])) for s in near]
            words.update(zip(near, made))
            levels.append(words[auto.root])
    state = memoryview(b"".join(levels)).cast("i")
    del levels, words  # the state bytes hold them now
    counts = np.array([len(ks) for ks in kids], np.intc)  # n_kids: the root is a vertex -1's child
    n_kids = np.concatenate(([1], counts[view(state)[:starts[depth]]]), dtype=np.intc)
    parent = packed(np.arange(-1, starts[depth], dtype=np.intc).repeat(n_kids))
    first_child = np.concatenate((n_kids.cumsum(dtype=np.intc),
                                  np.full(sizes[depth], starts[-1], np.intc)))
    return parent, state, packed(first_child)


class Truncation:
    """Depth-D truncation of a tree spec from its level counts ``sizes``,
    unfolded whole on the first read of a vertex array (see the module
    docstring): v's children are ``first_child[v]`` .. ``first_child[v + 1]
    - 1``, level L holds the ids ``level_starts[L]`` .. ``level_starts[L +
    1] - 1`` and ``state`` is each vertex's automaton state."""

    def __init__(self, spec: Automaton, sizes: Sequence[int]):
        self.spec, self.depth, self.level_starts = spec, len(sizes) - 1, (0, *accumulate(sizes))

    @cached_property
    def _arrays(self) -> tuple[memoryview, memoryview, memoryview]:
        """The parent, state and first_child arrays, unfolded on the first read."""
        return unfold(self.spec, self.sphere_sizes())

    parent = property(lambda self: self._arrays[0])
    state = property(lambda self: self._arrays[1])
    first_child = property(lambda self: self._arrays[2])

    @property
    def n_vertices(self) -> int:
        return self.level_starts[-1]

    def sphere_sizes(self) -> list[int]:  # the level counts
        return [b - a for a, b in pairwise(self.level_starts)]

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

    def _rows(self) -> tuple[memoryview, memoryview]:
        """Row offsets and column ids, row v listing v's parent, then its
        children: row v starts after v - 1 parents and first_child[v] - 1
        children, and child w sits in its parent's row at parent[w] + w - 1."""
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

    @cached_property
    def _built_rows(self) -> tuple[memoryview, memoryview]:
        """The row offsets and column ids, every row built on the first read."""
        return self._rows()

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy numpy views of the row offsets and column ids."""
        return tuple(map(view, self._built_rows))

    def neighbors(self, v: int) -> memoryview:
        offsets, columns = self._built_rows  # a memoryview slice iterates to ints
        return columns[offsets[v]:offsets[v + 1]]

    def separated(self, statuses: bytes | bytearray) -> bool:
        """No burning vertex has an untouched neighbour, read off the row
        entries of whichever of the two statuses is fewer, as the graph is
        undirected."""
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
# from 32-64 ids.  A run of that many ids is a range, whose find and slice
# beat both.
SPREAD_VECTOR_MIN = 64


def id_set(ids: Iterable[int]) -> tuple[int, ...] | range | np.ndarray:
    """The ids sorted, each once: from SPREAD_VECTOR_MIN ids on, a step-1
    range when they are one run (their ends len - 1 apart), as it is when
    given one, or else an int array (ids given otherwise become one when
    they fit in int64); any other set a tuple of ints."""
    # a range or a tuple is told first, as reading np.ndarray loads numpy
    if type(ids) is range and ids.step == 1:
        pass
    elif type(ids) is not tuple and isinstance(ids, np.ndarray):
        ids = _sorted_unique(ids)
    else:
        ids = sorted(set(ids))
    if len(ids) < SPREAD_VECTOR_MIN:
        return as_tuple(ids)
    if (last := int(ids[-1])) - (first := int(ids[0])) == len(ids) - 1:
        return ids if type(ids) is range else range(first, last + 1)
    if type(ids) is not list:
        return ids
    return np.array(ids, np.int64) if -2 ** 63 <= first and last < 2 ** 63 else tuple(ids)


def as_tuple(ids) -> tuple[int, ...]:
    """An id set as a tuple of Python ints; a range, tuple or list loads no numpy."""
    return tuple(ids if type(ids) in (range, tuple, list) or not isinstance(ids, np.ndarray)
                 else ids.tolist())


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


def mark(statuses: bytearray, ids, byte: int) -> int | None:
    """Give the ids of an id set the status byte.  The first of them, in
    sorted order, that is burning or outside the statuses stops the marking
    (ids before it may be marked) and is returned.  A range takes one find
    and one slice, an int array one fancy-index pass, and a tuple the loop."""
    if type(ids) is range:
        first, stop = ids.start, ids.stop
        if first < 0:
            return first
        if (hit := statuses.find(BURNING, first, stop)) >= 0:
            return hit
        if stop > len(statuses):
            return max(first, len(statuses))
        statuses[first:stop] = bytes((byte,)) * len(ids)
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
        if len(inside) < len(ids):
            return int(ids[len(inside)])
        view[inside] = byte
    return None


def row_entries(arena, ids) -> np.ndarray | None:
    """The row entries of an id set of the arena's vertices, row after row,
    read off ``arena.rows``: a range's as one slice of the columns (a view,
    which callers only read), an array's by a gather whose offset
    arithmetic runs in int32 (only the index into the columns is intp).
    None for a tuple, whose ``neighbors`` loop is cheaper."""
    if type(ids) is tuple:
        return None
    offsets, columns = arena.rows()
    if type(ids) is range:
        return columns[offsets[ids.start]:offsets[ids.stop]]
    starts = offsets[ids]
    lengths = offsets[1:][ids] - starts
    at = np.arange(lengths.sum())
    at += np.repeat(starts - np.cumsum(lengths, dtype=np.intc) + lengths, lengths)
    return columns[at]


def expand(spec: Automaton, depth: int) -> Truncation:
    """Materialise the truncation of all vertices at levels 0..depth.

    Children appear in spec order; vertex order is level-major, so the
    depth-D' truncation is a prefix of the depth-D one for D' <= D.
    Raises ResourceLimitError at the first level past the vertex cap
    (``FIREBREAK_VERTEX_CAP`` or 10**7 by default), where the walk stops."""
    sizes = level_counts(spec, depth, limit := vertex_cap())
    if (total := sum(sizes)) > limit:
        raise ResourceLimitError(f"truncation to depth {depth} has {total} vertices by level "
                                 f"{len(sizes) - 1}, cap is {limit} ({VERTEX_CAP_ENV})")
    trunc = Truncation(spec, sizes)
    trunc.parent  # unfolds it, inside this call
    return trunc


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
        sizes = level_counts(spec, spec.live_heights[spec.root])
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


_TENS = [10 ** k for k in range(1, 19)]  # an id below _TENS[w - 1] has at most w digits


@cache
def digit_table() -> np.ndarray:
    """The 4-digit decimal records of 0..9999 as a read-only (10**4, 4)
    uint8 table, zero-padded; built by broadcasting on the first call (so
    on the first id list written, never at import) and kept."""
    table = np.empty((10, 10, 10, 10, 4), np.uint8)
    digits = np.arange(48, 58, dtype=np.uint8)  # b"0" .. b"9"
    for k in range(4):
        table[..., k] = digits.reshape((10,) + (1,) * (3 - k))
    table.flags.writeable = False
    return table.reshape(10 ** 4, 4)


def put_digits(out: np.ndarray, ids, width: int) -> None:
    """Write each id's ``width`` decimal digits, zero-padded, into the first
    ``width`` columns of ``out``'s last axis (``ids`` has the shape of the
    other axes): four digits a gather on ``digit_table``, from the right."""
    table = digit_table()
    if type(ids) is range:  # a run of ids: their digits are rows of the table
        if width <= 4:
            out[..., :width] = table[ids.start:ids.stop, 4 - width:]
            return
        ids = np.arange(ids.start, ids.stop)
    for end in range(width, 0, -4):
        low = ids
        if end > 4:
            ids = ids // 10 ** 4
            low = low - ids * 10 ** 4
        k = min(end, 4)
        out[..., end - k:end] = np.take(table, low, axis=0)[..., 4 - k:]


def format_ids(ids: np.ndarray, line: int = 0, head: bytes = b"") -> bytes:
    """Non-negative ids in non-decreasing order, as every caller has them
    (id sets are sorted and level-major parent lists never decrease), as the
    bytes of ``" ".join(map(str, ids))`` or, with ``line``, as lines of
    ``line`` ids, each headed by ``head``.  The ids of each digit width are
    one block of fixed-width records (``_id_records``) whose digits are
    gathered from ``digit_table``."""
    if not (n := len(ids)):
        return b""
    small, large = bisect_right(_TENS, int(ids[0])), bisect_right(_TENS, int(ids[-1]))
    cuts = [0, *np.searchsorted(ids, _TENS[small:large]).tolist(), n] if small < large else [0, n]
    blocks = []
    for a, b in pairwise(cuts):
        if a < b:  # a run; without lines, one line of its own
            width = bisect_right(_TENS, int(ids[a])) + 1
            blocks.append(_id_records(ids[a:b], width, a % line if line else 0, line or b - a, head))
            if b == n or not line:  # the list's last line ends; a plain run's last id, a space
                blocks[-1][-1] = ord("\n" if line else " ")
    if not line:
        blocks[-1] = blocks[-1][:-1]  # no separator after the last id
    return b"".join(blocks)


def _id_records(ids: np.ndarray, width: int, skip: int, line: int, head: bytes) -> np.ndarray:
    """Ids of ``width`` digits as lines of ``head`` and ``line`` fixed-width
    records, a record the digits and a space, the line's last ending in a
    newline instead.  The first id lands ``skip`` records into its line, so
    a block may start and end inside a line: the bytes from its first record
    to its last, as a uint8 view."""
    m, at, size = len(ids), len(head), width + 1
    rows = (skip + m - 1) // line + 1
    rec = np.empty((rows, at + line * size), np.uint8)
    if at:
        rec[:, :at] = np.frombuffer(head, np.uint8)
    fields = rec[:, at:].reshape(rows, line, size)
    fields[..., width] = ord(" ")
    fields[:, -1, width] = ord("\n")
    if rows * line != m:  # pad the first and last lines to whole lines
        ids, padded = np.zeros(rows * line, ids.dtype), ids
        ids[skip:skip + m] = padded
    put_digits(fields, ids.reshape(rows, line), width)
    flat = rec.reshape(-1)
    return flat[at + skip * size if skip else 0:flat.size - (rows * line - skip - m) * size]


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
