"""Group models with computable normal forms, Cayley balls, the
lexicographically-minimal geodesic spanning tree, growth estimates, the
wait-and-surround containment strategy, and polynomial budget probes.

Generating sets are symmetric (closed under inverses) with a fixed total
order that includes the inverses; the order drives all lexicographic
comparisons.  Built-in models: free groups (reduced words), free abelian
groups (integer vectors), the infinite dihedral group and free products
of finite cyclic groups (alternating syllable normal forms).

Balls are built by one breadth-first search that takes the vertices in
index order and, at each vertex, the generators in order.  By induction
on the distance, every layer is then numbered in shortlex order of its
elements' lex-min geodesic words: an element at distance n is first
reached from its least-indexed neighbour at distance n-1, by the least
generator leading there, and since all words of that layer have the same
length this (parent word, generator) pair is its least geodesic word
(Epstein et al., *Word Processing in Groups*, 1992).  So each element
keeps only its tree parent and the generator that reached it; the words
follow from these, and an exhaustive enumeration backs them as a test
oracle.  Joining each element to its tree parent gives a spanning tree of
the ball whose levels are the Cayley distances -- the depth-R slice of a
subperiodic spanning tree of the whole graph, which carries the graph's
growth and hands every tree algorithm in this package a Cayley question.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .branching import exact_rate
from .errors import ResourceLimitError, SpecError, SurroundCapError
from .game import (
    BudgetSequence,
    FeasibilityResult,
    ScheduleStrategy,
    Verdict,
    feasibility_check,
    simulate,
)
from .trees import ExplicitSpec

_LETTERS = "abcdefghij"

DEFAULT_BALL_CAP = 2_000_000


def _letter(i: int, inverse: bool) -> str:
    if i >= len(_LETTERS):
        raise SpecError(f"at most {len(_LETTERS)} generator letters supported")
    return _LETTERS[i].upper() if inverse else _LETTERS[i]


class FreeGroup:
    """Free group of the given rank; elements are reduced words, stored as
    tuples of generator indices.  Generator order: a < A < b < B < ..."""

    def __init__(self, rank: int):
        if rank < 1:
            raise SpecError("free group rank must be >= 1")
        self.rank = rank
        self.name = f"free:{rank}"
        self.generators = tuple(
            _letter(i, inv) for i in range(rank) for inv in (False, True)
        )
        self.identity = ()

    def inverse_index(self, g: int) -> int:
        return g ^ 1

    def multiply(self, elem: tuple, g: int) -> tuple:
        if elem and elem[-1] == (g ^ 1):
            return elem[:-1]
        return elem + (g,)


class FreeAbelian:
    """Z^d with generator order a < A < b < B < ... (a = +e1, A = -e1)."""

    def __init__(self, dim: int):
        if dim < 1:
            raise SpecError("dimension must be >= 1")
        self.dim = dim
        self.name = f"zd:{dim}"
        self.generators = tuple(
            _letter(i, inv) for i in range(dim) for inv in (False, True)
        )
        self.identity = (0,) * dim

    def inverse_index(self, g: int) -> int:
        return g ^ 1

    def multiply(self, elem: tuple, g: int) -> tuple:
        axis, sign = divmod(g, 2)
        delta = -1 if sign else 1
        out = list(elem)
        out[axis] += delta
        return tuple(out)


class FreeProductCyclic:
    """Free product of finite cyclic groups C_m1 * C_m2 * ...; elements
    are alternating syllables (factor, exponent) with 1 <= exponent <
    order.  Each factor contributes its generator, followed immediately by
    the inverse when the order exceeds 2 (order-2 generators are their own
    inverses)."""

    def __init__(self, orders: Sequence[int], name: str | None = None):
        orders = tuple(int(m) for m in orders)
        if len(orders) < 2:
            raise SpecError("free products need at least two factors")
        if any(m < 2 for m in orders):
            raise SpecError("cyclic factor orders must be >= 2")
        self.orders = orders
        self.name = name or ("freeprod:" + ",".join(str(m) for m in orders))
        gens: list[str] = []
        moves: list[tuple[int, int]] = []  # (factor, exponent delta)
        for i, m in enumerate(orders):
            gens.append(_letter(i, False))
            moves.append((i, 1))
            if m > 2:
                gens.append(_letter(i, True))
                moves.append((i, m - 1))
        self.generators = tuple(gens)
        self._moves = tuple(moves)
        self.identity = ()

    def inverse_index(self, g: int) -> int:
        factor, delta = self._moves[g]
        if self.orders[factor] == 2:
            return g
        inverse = (factor, self.orders[factor] - delta)
        return self._moves.index(inverse)

    def multiply(self, elem: tuple, g: int) -> tuple:
        factor, delta = self._moves[g]
        m = self.orders[factor]
        if elem and elem[-1][0] == factor:
            exp = (elem[-1][1] + delta) % m
            if exp == 0:
                return elem[:-1]
            return elem[:-1] + ((factor, exp),)
        return elem + ((factor, delta),)


def infinite_dihedral() -> FreeProductCyclic:
    """Two involutions a, b generate the infinite dihedral group; it is
    the free product C2 * C2 and shares its normal forms."""
    return FreeProductCyclic((2, 2), name="dinf")


def group_from_name(name: str):
    """CLI names: free:R, zd:D, dinf, freeprod:M1,M2[,...]"""
    kind, _, params = name.partition(":")
    try:
        if kind == "free":
            return FreeGroup(int(params))
        if kind == "zd":
            return FreeAbelian(int(params))
        if kind == "dinf" and not params:
            return infinite_dihedral()
        if kind == "freeprod":
            return FreeProductCyclic([int(m) for m in params.split(",")])
    except ValueError as exc:
        raise SpecError(f"bad group parameters in {name!r}") from exc
    raise SpecError(f"unknown group {name!r}")


@dataclass
class CayleyBall:
    """Ball of a Cayley graph: elements grouped into distance layers,
    adjacency restricted to the ball, and the lex-min geodesic spanning
    tree (each element's parent and the generator joining them).  Vertex
    order is layer-major, shortlex by word within a layer, so construction
    is canonical.  Quacks like a game arena: the radius-R sphere is the
    boundary."""

    model: object
    radius: int
    elements: list
    level: list[int]
    layers: list[list[int]]
    tree_parent: list[int]
    tree_generator: list[int]  # generator from tree_parent[v] to v; -1 at the root
    adjacency: list[list[int]] = field(default_factory=list)
    _index: dict = field(default_factory=dict, repr=False)

    @property
    def n_vertices(self) -> int:
        return len(self.elements)

    @property
    def depth(self) -> int:
        return self.radius

    @property
    def boundary(self) -> tuple[int, ...]:
        return tuple(self.layers[self.radius])

    @cached_property
    def words(self) -> list[tuple[int, ...]]:
        """Lex-min geodesic word of every element, as generator indices."""
        words: list[tuple[int, ...]] = [()]
        for v in range(1, len(self.elements)):
            words.append(words[self.tree_parent[v]] + (self.tree_generator[v],))
        return words

    def neighbors(self, v: int) -> list[int]:
        return self.adjacency[v]

    def index_of(self, elem) -> int:
        return self._index[elem]

    def sphere_sizes(self) -> list[int]:
        return [len(layer) for layer in self.layers]

    def word_str(self, v: int) -> str:
        return "".join(self.model.generators[g] for g in self.words[v])


def ball(model, radius: int, cap: int = DEFAULT_BALL_CAP) -> CayleyBall:
    """Breadth-first ball around the identity, vertices taken in index
    order and generators in order; ``elements`` is its own queue."""
    if radius < 0:
        raise SpecError("ball radius must be >= 0")
    multiply = model.multiply
    n_gens = len(model.generators)
    elements = [model.identity]
    index = {model.identity: 0}
    level = [0]
    layers = [[0]] + [[] for _ in range(radius)]
    tree_parent = [-1]
    tree_generator = [-1]
    adjacency = []
    for v, elem in enumerate(elements):
        dist = level[v]
        if dist and v == layers[dist][0] and len(elements) > cap:
            # layer dist is complete once its first vertex is reached
            raise ResourceLimitError(
                f"ball of radius {dist} has {len(elements)} elements, the ball cap is {cap}"
            )
        row = []
        for g in range(n_gens):
            w = multiply(elem, g)
            u = index.get(w)
            if u is None:
                if dist == radius:
                    continue
                u = len(elements)
                index[w] = u
                elements.append(w)
                level.append(dist + 1)
                layers[dist + 1].append(u)
                tree_parent.append(v)
                tree_generator.append(g)
            row.append(u)
        adjacency.append(row)
    return CayleyBall(model=model, radius=radius, elements=elements, level=level,
                      layers=layers, tree_parent=tree_parent,
                      tree_generator=tree_generator, adjacency=adjacency, _index=index)


# ---------------------------------------------------------------------------
# Lex-min geodesic spanning tree
# ---------------------------------------------------------------------------


@dataclass
class LexMinTree:
    """Spanning tree of a ball joining each element to its word's prefix;
    tree vertex i is ball vertex i, so levels equal Cayley distances."""

    spec: ExplicitSpec
    ball: CayleyBall

    def level_counts(self) -> list[int]:
        return self.ball.sphere_sizes()


def lex_min_tree(model, radius: int) -> LexMinTree:
    return lex_min_tree_of_ball(ball(model, radius))


def lex_min_tree_of_ball(b: CayleyBall) -> LexMinTree:
    spec = ExplicitSpec(parents=tuple(b.tree_parent[1:]))
    return LexMinTree(spec=spec, ball=b)


def enumerate_geodesic_words(b: CayleyBall, v: int) -> list[tuple[int, ...]]:
    """Every geodesic word for element v, by walking all distance-reducing
    predecessors; exhaustive oracle for the breadth-first lex-min words."""
    model = b.model
    memo: dict[int, list[tuple[int, ...]]] = {0: [()]}

    def rec(u: int) -> list[tuple[int, ...]]:
        if u in memo:
            return memo[u]
        out = []
        for g in range(len(model.generators)):
            prev = model.multiply(b.elements[u], model.inverse_index(g))
            p = b._index.get(prev)
            if p is not None and b.level[p] == b.level[u] - 1:
                out.extend(w + (g,) for w in rec(p))
        memo[u] = sorted(out)
        return memo[u]

    return rec(v)


# ---------------------------------------------------------------------------
# Growth estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthEstimate:
    """Two readings of the growth rate at radius R: the ball root
    |B(R)|**(1/R) and the sphere ratio |S(R)|/|S(R-1)|, with the full
    sequences for smaller radii."""

    radius: int
    sphere_sizes: tuple[int, ...]
    ball_sizes: tuple[int, ...]
    ball_root_sequence: tuple[float, ...]
    sphere_ratio_sequence: tuple[float, ...]

    @property
    def ball_root(self) -> float:
        return self.ball_root_sequence[-1]

    @property
    def sphere_ratio(self) -> float:
        return self.sphere_ratio_sequence[-1]


def growth_rate_estimate(model, radius: int) -> GrowthEstimate:
    if radius < 2:
        raise SpecError("growth estimates need radius >= 2")
    b = ball(model, radius)
    spheres = b.sphere_sizes()
    balls = []
    total = 0
    for s in spheres:
        total += s
        balls.append(total)
    roots = tuple(balls[n] ** (1.0 / n) for n in range(1, radius + 1))
    ratios = tuple(
        spheres[n] / spheres[n - 1] if spheres[n - 1] else float("inf")
        for n in range(1, radius + 1)
    )
    return GrowthEstimate(radius=radius, sphere_sizes=tuple(spheres),
                          ball_sizes=tuple(balls), ball_root_sequence=roots,
                          sphere_ratio_sequence=ratios)


# ---------------------------------------------------------------------------
# Wait-and-surround
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurroundResult:
    strategy: ScheduleStrategy
    verdict: Verdict
    trigger_round: int
    sphere_index: int
    sphere: tuple[int, ...]
    budget_trace: tuple[tuple[int, int, int], ...]  # (round, budget, sphere size)
    ball: CayleyBall


def wait_and_surround(model, radius: int, rate, ball_radius: int) -> SurroundResult:
    """Wait until the budget floor(rate**n) covers the sphere one past the
    fire's reach, then protect that whole sphere at once.  The fire starts
    on B(radius) and occupies B(radius+n) after round n, so protecting
    S(radius+n+1) in round n leaves a one-sphere guard band and blocks all
    further spread.  Runs out of ball (SurroundCapError) when the rate
    does not outgrow the spheres within the given ball radius."""
    if radius < 0:
        raise SpecError("initial radius must be >= 0")
    if ball_radius <= radius + 1:
        raise SpecError("ball radius must exceed the initial radius + 1")
    rate_x = exact_rate(rate)
    budget = BudgetSequence.exponential(rate_x)
    b = ball(model, ball_radius)
    trace = []
    trigger = None
    n = 0
    while True:
        n += 1
        sphere_index = radius + n + 1
        if sphere_index > ball_radius:
            break
        f_n = budget(n)
        size = len(b.layers[sphere_index])
        trace.append((n, f_n, size))
        if f_n >= size:
            trigger = n
            break
    if trigger is None:
        raise SurroundCapError(
            f"budget never covered a sphere within radius {ball_radius}; "
            "the rate may not exceed the growth rate", tuple(trace),
        )
    sphere_index = radius + trigger + 1
    sphere = tuple(sorted(b.layers[sphere_index]))
    strategy = ScheduleStrategy({trigger: sphere})
    verdict = simulate(b, radius, strategy, budget, horizon=trigger + 2)
    return SurroundResult(strategy=strategy, verdict=verdict, trigger_round=trigger,
                          sphere_index=sphere_index, sphere=sphere,
                          budget_trace=tuple(trace), ball=b)


# ---------------------------------------------------------------------------
# Polynomial budget probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeReport:
    feasibility: FeasibilityResult
    budget_vs_sphere: tuple[tuple[int, int, int], ...]  # (n, cum budget, |S(n+1)|)
    note: str


def polynomial_probe(model, coeff, degree: int, radius: int, depth: int) -> ProbeReport:
    """Deadline feasibility of budgets floor(coeff * n**degree) on the
    lex-min spanning tree, with the cumulative-budget-vs-sphere table.
    An infeasible spanning tree is evidence (not proof) against containment
    on the Cayley graph itself: containment passes to subgraphs in the
    direction asserted here, and a finite-depth probe cannot settle an
    asymptotic statement."""
    tree = lex_min_tree(model, depth)
    budget = BudgetSequence.polynomial(coeff, degree)
    result = feasibility_check(tree.spec, radius, budget, depth)
    spheres = tree.ball.sphere_sizes()
    rows = tuple(
        (n, budget.cumulative(n), spheres[n + 1])
        for n in range(1, depth)
    )
    return ProbeReport(
        feasibility=result, budget_vs_sphere=rows,
        note=("evidence only: finite-depth probe on the spanning tree; "
              "non-containment transfers to the ambient graph via subgraph "
              "monotonicity, which is asserted, not proven here"),
    )
