"""Shared specs, budget catalogues and random instance generators."""

import random

import pytest

from firebreak import (
    BudgetSequence,
    ExplicitSpec,
    PeriodicSpec,
    ResourceLimitError,
    SpecError,
    SymmetricSpec,
    expand,
    level_counts,
)
from firebreak.trees import Automaton
from cayley_reference import ReferenceGraphProduct, joined_pairs


def binary_spec() -> Automaton:
    return PeriodicSpec(states={"A": ("A", "A")}, root="A")


def ternary_spec() -> Automaton:
    return PeriodicSpec(states={"A": ("A", "A", "A")}, root="A")


def fibonacci_spec() -> Automaton:
    return PeriodicSpec(states={"A": ("A", "B"), "B": ("A",)}, root="A")


def sqrt2_spec() -> Automaton:
    return PeriodicSpec(states={"A": ("B", "B"), "B": ("A",)}, root="A")


def ray_spec() -> Automaton:
    return PeriodicSpec(states={"A": ("A",)}, root="A")


def three_one_parents(depth: int) -> tuple[int, ...]:
    """The parents, as ``ExplicitSpec`` reads them, of the depth-``depth``
    truncation of Lyons and Peres's 3-1 tree (*Probability on Trees and
    Networks*, ch. 1): the root has 2 children, and at each level n >= 1
    the first half of the 2**n vertices, left to right, have 3 children and
    the rest 1.  Ids run level by level, each vertex's children in a row."""
    parents, level = [], [0]
    for n in range(depth):
        counts = [2] if n == 0 else [3 if i < len(level) // 2 else 1 for i in range(len(level))]
        first = len(parents) + 1
        parents += [v for v, c in zip(level, counts) for _ in range(c)]
        level = list(range(first, len(parents) + 1))
    return tuple(parents)


def height(spec: Automaton) -> int:
    """An explicit tree's height: its root's live height, as ``oracle`` reads it."""
    return spec.live_heights[spec.root]


def star_spec() -> Automaton:
    return SymmetricSpec(preperiod=(3,), period=(1,))


@pytest.fixture
def binary():
    return binary_spec()


@pytest.fixture
def ternary():
    return ternary_spec()


@pytest.fixture
def fibonacci():
    return fibonacci_spec()


@pytest.fixture
def ray():
    return ray_spec()


def budget_catalogue() -> list[BudgetSequence]:
    return [
        BudgetSequence.constant(1),
        BudgetSequence.constant(2),
        BudgetSequence.exponential("3/2"),
        BudgetSequence.exponential(2),
        BudgetSequence.explicit([2, 0]),
        BudgetSequence.explicit([0, 2, 1]),
        BudgetSequence.explicit([1]),
    ]


def replaced(value, **changes):
    """A copy of an automaton or result record with some fields changed,
    built by its own constructor from its ``_fields``."""
    return type(value)(**{name: changes.get(name, getattr(value, name)) for name in value._fields})


def random_explicit_tree(rng: random.Random, max_vertices: int = 16,
                         max_children: int = 3) -> Automaton:
    """Random rooted tree grown breadth-first with random child counts."""
    parents = []
    frontier = [0]
    n = 1
    while frontier and n < max_vertices:
        v = frontier.pop(0)
        for _ in range(rng.randint(0, max_children)):
            if n >= max_vertices:
                break
            parents.append(v)
            frontier.append(n)
            n += 1
    if not parents:
        parents = [0]
    return ExplicitSpec(parents=tuple(parents))


def random_periodic_states(rng: random.Random, max_states: int = 3, max_children: int = 3,
                           allow_dead: bool = False) -> dict[str, tuple[str, ...]]:
    """The states of a random periodic spec whose root is A."""
    names = ["A", "B", "C"][: rng.randint(1, max_states)]
    lo = 0 if allow_dead else 1
    states = {
        s: tuple(rng.choice(names) for _ in range(rng.randint(lo, max_children)))
        for s in names
    }
    if not allow_dead and not states[names[0]]:
        states[names[0]] = (names[0],)
    return states


def random_periodic_spec(rng: random.Random, max_states: int = 3,
                         max_children: int = 3, allow_dead: bool = False) -> Automaton:
    return PeriodicSpec(states=random_periodic_states(rng, max_states, max_children, allow_dead),
                        root="A")


def random_symmetric_levels(rng: random.Random) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The preperiod and period of a random symmetric spec."""
    pre = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 2)))
    per = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
    return pre, per


def random_symmetric_spec(rng: random.Random) -> Automaton:
    pre, per = random_symmetric_levels(rng)
    return SymmetricSpec(preperiod=pre, period=per)


def random_truncation(rng: random.Random, max_depth: int = 10,
                      size_limit: int = 4000):
    """A random truncation of a random spec, size-capped by redrawing."""
    for _ in range(200):
        kind = rng.randrange(3)
        depth = rng.randint(1, max_depth)
        if kind == 0:
            spec = random_periodic_spec(rng, allow_dead=rng.random() < 0.3)
        elif kind == 1:
            spec = random_symmetric_spec(rng)
        else:
            spec = random_explicit_tree(rng, max_vertices=24)
            depth = min(depth, height(spec)) or 1
        if sum(level_counts(spec, depth)) <= size_limit:
            return expand(spec, depth)
    raise AssertionError("could not draw a truncation within the size limit")


def ball(trunc, radius: int) -> tuple[int, ...]:
    """All vertices at levels 0..radius.  The radius must not exceed the
    truncation depth (the ball would not be fully contained)."""
    if radius < 0:
        raise SpecError("ball radius must be >= 0")
    if radius > trunc.depth:
        raise SpecError(
            f"ball of radius {radius} is not contained in a depth-{trunc.depth} truncation"
        )
    return tuple(range(trunc.level_starts[radius + 1]))


def vertex_levels(trunc) -> list[int]:
    """Each vertex's level, read off ``level_starts`` as the package reads levels."""
    starts = trunc.level_starts
    return [lv for lv in range(len(starts) - 1) for _ in range(starts[lv], starts[lv + 1])]


def child_ids(trunc, v: int) -> range:
    """The children of v, read off ``first_child`` as the package reads them."""
    return range(trunc.first_child[v], trunc.first_child[v + 1])


def boundary_ids(trunc) -> tuple[int, ...]:
    """The boundary's ids, read off ``boundary_mask``."""
    return tuple(v for v, bit in enumerate(trunc.boundary_mask) if bit)


# -- root paths: a vertex as the child indices that lead to it ---------------


def path_of(trunc, v: int) -> tuple[int, ...]:
    """Root-to-v path as child indices (position among siblings)."""
    rev = []
    while trunc.parent[v] >= 0:
        rev.append(child_ids(trunc, trunc.parent[v]).index(v))
        v = trunc.parent[v]
    return tuple(reversed(rev))


def index_of_path(trunc, path) -> int:
    v = 0
    for step in path:
        v = child_ids(trunc, v)[step]
    return v


def witness_vertices(result, trunc) -> tuple[int, ...]:
    """The vertex ids of a feasible result's witness paths in trunc."""
    assert result.feasible and result.witness_paths is not None
    return tuple(sorted(index_of_path(trunc, p) for p in result.witness_paths))


def is_antichain(cut, trunc) -> bool:
    """No vertex of the cutset lies below another one."""
    edges = set(cut.ids.tolist())
    for v in edges:
        u = trunc.parent[v]
        while u > 0:
            if u in edges:
                return False
            u = trunc.parent[u]
    return True


# -- exhaustive enumerations, the oracles of fast paths ----------------------


def enumerate_cutsets(trunc, max_edges: int = 18):
    """All antichain cutsets separating the root from the boundary, each
    edge on some root-to-boundary path, each cutset exactly once."""
    boundary = set(boundary_ids(trunc))
    hb = [False] * trunc.n_vertices
    for v in range(trunc.n_vertices - 1, -1, -1):
        hb[v] = v in boundary or any(hb[w] for w in child_ids(trunc, v))
    relevant = sum(1 for v in range(1, trunc.n_vertices) if hb[v])
    if relevant > max_edges:
        raise ResourceLimitError(
            f"{relevant} boundary-path edges exceed the enumeration cap {max_edges}"
        )

    def product(kids) -> list[frozenset[int]]:
        partial = [frozenset()]
        for w in kids:
            partial = [acc | opt for acc in partial for opt in per_vertex(w)]
        return partial

    def per_vertex(v: int) -> list[frozenset[int]]:
        if v in boundary:
            return [frozenset((v,))]
        return [frozenset((v,))] + product([w for w in child_ids(trunc, v) if hb[w]])

    yield from product([w for w in child_ids(trunc, 0) if hb[w]])


def ball_elements(b) -> tuple[list, dict]:
    """Every element of a Cayley ball in normal form, multiplied out from
    its tree parent's by the reference group law, and the vertex of each
    element; the ball itself builds none.  Kept on the ball, since the
    oracles ask per vertex."""
    if "_test_elements" not in vars(b):
        group = ReferenceGraphProduct(b.model.orders, joined_pairs(b.model))
        elements = [group.identity]
        for v in range(1, b.n_vertices):
            elements.append(group.multiply(elements[b.parent[v]], b.tree_generator[v]))
        b._test_elements = elements, {elem: v for v, elem in enumerate(elements)}
    return b._test_elements


def ball_words(b) -> list[tuple[int, ...]]:
    """The lex-min geodesic word of every element of a Cayley ball, as
    generator indices: its tree parent's word and the generator joining
    them."""
    words: list[tuple[int, ...]] = [()]
    for v in range(1, b.n_vertices):
        words.append(words[b.parent[v]] + (b.tree_generator[v],))
    return words


def tree_export(b) -> Automaton:
    """The lex-min tree of a Cayley ball as the explicit spec that
    ``cayley --mode tree`` writes."""
    return ExplicitSpec(parents=tuple(b.parent[1:]))


def enumerate_geodesic_words(b, v: int) -> list[tuple[int, ...]]:
    """Every geodesic word for element v of a Cayley ball, by walking all
    distance-reducing predecessors; exhaustive oracle for the lex-min
    words."""
    group = ReferenceGraphProduct(b.model.orders, joined_pairs(b.model))
    elements, index = ball_elements(b)
    level = vertex_levels(b)
    memo: dict[int, list[tuple[int, ...]]] = {0: [()]}

    def rec(u: int) -> list[tuple[int, ...]]:
        if u in memo:
            return memo[u]
        out = []
        for g in range(len(group.generators)):
            prev = group.multiply(elements[u], group.inverse_index(g))
            p = index.get(prev)
            if p is not None and level[p] == level[u] - 1:
                out.extend(w + (g,) for w in rec(p))
        memo[u] = sorted(out)
        return memo[u]

    return rec(v)
