"""One group model with computable normal forms, Cayley balls, the
lexicographically-minimal geodesic spanning tree, growth estimates, the
wait-and-surround containment strategy, and polynomial budget probes.

Every group is a graph product of cyclic groups C_m, where C_0 = Z (Green,
*Graph products of groups*, 1990): the generators of two factors commute
when that pair of factors is joined.  ``zd:D`` joins every pair, and
``free:R``, ``dinf`` (C_2 * C_2) and ``freeprod:M1,M2,...`` none;
``gp:ORDERS/PAIRS`` names any, its factors lettered a, b, c, ...
(``gp:0,0,0/ac,bc`` is F2 x Z).  Each factor contributes its generator,
followed by the inverse unless the order is 2; this order drives all
lexicographic comparisons.

Every element has one shortlex normal form: its lexicographically least
geodesic word.  ``acceptor[0]`` is an ``Automaton``, read as any tree spec
is, whose unfolding is the tree of these words (Cannon 1984; Epstein et
al., *Word Processing in Groups*, 1992).  A state is the last letter, its
run and the set of factors that may start the next syllable.  After a
syllable of factor x:

* a letter of a factor not joined to x may start a syllable;
* a letter of a factor joined to x may start one if it could before and
  its factor comes after x (else it would shuffle in front of x, or onto
  an earlier syllable of its own factor);
* x's own letters only extend the run: on a factor of order m a run of
  the generator grows while 2*run <= m and one of its inverse while
  2*run < m, since a tie goes to the smaller letter, and on C_0 = Z a run
  is one state that loops to itself.

Children follow generator order, so unfolding the acceptor level by level
numbers every layer in shortlex order -- the order in which a
breadth-first search that takes vertices in index order and, at each
vertex, the generators in order first reaches them: it first reaches an
element at distance n from its least-indexed neighbour at distance n-1, by
the least generator leading there, which is the least geodesic word, whose
prefix is the parent's normal form.  So the acceptor's level counts are
the sphere sizes, which growth, the surround trigger, the ball cap and the
polynomial probes read with nothing built (a model builds its acceptor
once) through ``trees.level_counts``.  A ``CayleyBall`` is the depth-R
truncation of the acceptor, so its ``parent`` is the lex-min geodesic
spanning tree and its levels are the Cayley distances.  Like any
truncation it holds its level starts alone until a vertex array or a row
is read, and then unfolds whole; its ``_rows()`` read the Cayley graph's
rows off that tree with no element built.  So the game plays the ball
and its spanning tree on one vertex numbering with different rows, and
every tree algorithm here answers a Cayley question.  Only the surround
and the probes play the game, so only they import ``game``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, combinations, pairwise
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ResourceLimitError, SpecError, SurroundCapError
from .trees import Automaton, Truncation, Value, format_ids, level_counts, np, packed, view, zeroed

if TYPE_CHECKING:  # the records' annotations; the functions import game when they run
    from .game import FeasibilityResult, ScheduleStrategy, Verdict

_LETTERS = "abcdefghij"

DEFAULT_BALL_CAP = 2_000_000


def _pair(x: int, y: int) -> str:  # a pair of factor indices as letters
    return "".join(_LETTERS[i] if 0 <= i < len(_LETTERS) else "?" for i in (x, y))


class GraphProduct:
    """Graph product of cyclic groups C_m1, C_m2, ..., where C_0 = Z, with
    factors lettered a, b, c, ... and ``joined`` naming the pairs of factor
    indices whose generators commute (``(0, 2)`` for a and c); the group
    must be infinite.  The model builds no element: an element is the
    vertex of its shortlex word in the unfolding of ``acceptor``."""

    def __init__(self, orders: Sequence[int], joined: Iterable[tuple[int, int]] = (),
                 name: str | None = None):
        orders = tuple(map(int, orders))
        if 1 in orders or min(orders, default=0) < 0:
            raise SpecError("cyclic factor orders must be 0 (infinite) or >= 2")
        if len(orders) > len(_LETTERS):
            raise SpecError(f"at most {len(_LETTERS)} factors supported")
        gens, moves, inverse = [], [], []  # moves: (factor, exponent delta)
        for x, m in enumerate(orders):
            if m == 2:
                inverse.append(len(gens))
                gens.append(_LETTERS[x])
                moves.append((x, 1))
            else:
                inverse += (len(gens) + 1, len(gens))
                gens += (_LETTERS[x], _LETTERS[x].upper())
                moves += ((x, 1), (x, -1))
        links = [0] * len(orders)  # per factor, the bitmask of factors joined to it
        joined = tuple(joined)
        for x, y in joined:
            if not (0 <= x < len(orders) and 0 <= y < len(orders)):
                raise SpecError(f"pair {_pair(x, y)} names a letter past the {len(orders)} factors")
            if x == y:
                raise SpecError(f"pair {_pair(x, y)} joins a factor to itself")
            if links[x] >> y & 1:
                raise SpecError(f"pair {_pair(x, y)} is repeated")
            links[x] |= 1 << y
            links[y] |= 1 << x
        if all(orders) and all(lk | 1 << x == (1 << len(orders)) - 1 for x, lk in enumerate(links)):
            raise SpecError("the group is finite: it needs a factor Z or two factors not joined")
        self.orders = orders
        self.name = name or f"gp:{','.join(map(str, orders))}/{','.join(_pair(*p) for p in joined)}"
        self.generators = tuple(gens)
        self._moves = tuple(moves)
        self._links = tuple(links)
        self._inverse = tuple(inverse)

    def inverse_index(self, g: int) -> int:
        return self._inverse[g]

    def syllable(self, h: int, run: int, g: int) -> tuple[int, ...]:
        """The shortlex letters of h**run * g for g of h's finite factor:
        the generator while 2 * exponent <= order, else its inverse.  On an
        infinite factor every same-factor letter is a child or the parent."""
        factor, delta = self._moves[h]
        m = self.orders[factor]
        exp = (run * delta + self._moves[g][1]) % m
        letter = self._moves.index((factor, 1))
        return (letter,) * exp if 2 * exp <= m else (self._inverse[letter],) * (m - exp)

    @cached_property
    def acceptor(self) -> tuple[Automaton, list[int], list[int]]:
        """The word acceptor and each state's entering generator (-1 at the
        root) and run, built once per model.  A state is the key (letter,
        run, bitmask of the factors that may start the next syllable),
        numbered in the order the breadth-first build first reaches it."""
        moves, orders = self._moves, self.orders
        everyone = (1 << len(orders)) - 1
        # per factor x: the factors that may start a syllable after x's from
        # any state (not joined to x) and if they could before (joined, after x)
        free = [everyone & ~links & ~(1 << x) for x, links in enumerate(self._links)]
        keep = [links & -(2 << x) for x, links in enumerate(self._links)]
        keys, index, children, starts = [(-1, 0, everyone)], {}, [], {}

        def state(key) -> int:
            if key not in index:
                index[key] = len(keys)
                keys.append(key)
            return index[key]

        for s, (g, run, allowed) in enumerate(keys):  # keys grow as states are reached
            if allowed not in starts:  # the syllables it starts, and where each
                kids, cuts = [], []  # factor's would stand among them
                for x in range(len(orders)):
                    cuts.append(len(kids))
                    if allowed >> x & 1:
                        after = free[x] | allowed & keep[x]
                        kids += (state((h, 1, after)) for h, (y, _d) in enumerate(moves) if y == x)
                starts[allowed] = kids, cuts
            kids, cuts = starts[allowed]
            if g >= 0:  # a run of the generator grows while 2 * run <= m, one of
                # its inverse while 2 * run < m (a tie goes to the smaller letter)
                x, delta = moves[g]
                if not (m := orders[x]) or run < (m if delta == 1 else m - 1) // 2:
                    kid = state((g, run + 1, allowed)) if m else s  # on Z a run loops
                    kids = kids[:cuts[x]] + [kid] + kids[cuts[x]:]
            children.append(tuple(kids))
        return (Automaton(tuple(children), 0), [g for g, _r, _a in keys],
                [run for _g, run, _a in keys])


def group_from_name(name: str) -> GraphProduct:
    """CLI names: free:R, zd:D, dinf, freeprod:M1,M2[,...] (orders >= 2)
    and gp:M1,M2[,...]/PAIRS (orders 0 for Z or >= 2, PAIRS like ab,bc)"""
    kind, _, params = name.partition(":")
    try:
        if kind == "free":
            if (rank := int(params)) < 1:
                raise SpecError("free group rank must be >= 1")
            return GraphProduct((0,) * rank, name=f"free:{rank}")
        if kind == "zd":
            if (dim := int(params)) < 1:
                raise SpecError("dimension must be >= 1")
            return GraphProduct((0,) * dim, combinations(range(dim), 2), name=f"zd:{dim}")
        if kind == "dinf" and not params:
            return GraphProduct((2, 2), name="dinf")
        if kind == "freeprod":
            orders = [int(m) for m in params.split(",")]
            if min(orders) < 2:
                raise SpecError("freeprod factor orders must be >= 2")
            return GraphProduct(orders, name="freeprod:" + ",".join(map(str, orders)))
        if kind == "gp":
            orders, _, pairs = params.partition("/")
            return GraphProduct([int(m) for m in orders.split(",")],
                                [tuple(map(_LETTERS.index, p)) for p in pairs.split(",") if p])
    except SpecError:  # a ValueError, but it gives its own reason
        raise
    except ValueError as exc:
        raise SpecError(f"bad group parameters in {name!r}") from exc
    raise SpecError(f"unknown group {name!r}")


class CayleyBall(Truncation):
    """Ball of a Cayley graph: the depth-R truncation of the model's word
    acceptor, whose ``parent`` is the lex-min geodesic spanning tree and
    whose levels are the Cayley distances; its ``_rows`` list the graph's
    adjacency in place of the tree's.  Vertex order is layer-major,
    shortlex by word within a layer, so construction is canonical; the
    radius-R sphere is the boundary.  Words and adjacency are derived from
    the tree as they are read; no element is built.  It unfolds as any
    truncation does, on the first read of a vertex array: a contained
    surround, whose fire fills whole levels, unfolds nothing."""

    def __init__(self, model: GraphProduct, spheres: Sequence[int]):
        super().__init__(model.acceptor[0], spheres)
        self.model = model

    @cached_property
    def tree_generator(self) -> memoryview:
        """The generator from each vertex's tree parent to it (-1 at the
        root): the letter entering its acceptor state."""
        return packed(np.array(self.model.acceptor[1], np.intc)[view(self.state)])

    def _rows(self) -> tuple[memoryview, memoryview]:
        """Row offsets and column ids of the in-ball products v*g, in
        generator order, read off the tree in one numpy pass: child k, the
        parent, up the run and down the new syllable (a same-factor move on a
        finite factor), or, for g of a factor joined to that of the letter h
        entering v = parent*h, parent*g's row entry for h, as g and h
        commute.  That entry is the h-child of parent*g, since g merges into
        or shuffles in front of parent's syllables and leaves h free to
        follow; they are filled level by level, as parent*g may be such an
        entry a level up.  Below level R a row holds every product and
        starts at v*|gens|; the outer sphere's rows drop those outside."""
        auto, entering, runs = self.model.acceptor
        model, n_gens = self.model, len(self.model.generators)
        n, n_inner = self.n_vertices, self.level_starts[self.depth]  # with children in the ball
        parent, state, first = map(view, self._arrays)
        child = [{entering[t]: k for k, t in enumerate(kids)} for kids in auto.children]
        kid = np.array([[c.get(g, -1) for g in range(n_gens)] for c in child], np.int32)

        def down(t, g):  # the child of t entered by g, -1 outside the ball
            k = np.where((t >= 0) & (t < n_inner), kid[state[t], g], -1)
            return np.where(k >= 0, first[t] + k, -1)

        # child ids; past n_inner all -1, and an inner row's other entries are set below
        cols = np.empty((n, n_gens), np.int32)
        np.take(kid, state[:n_inner], axis=0, out=cols[:n_inner], mode="clip")  # "raise" would copy
        cols[:n_inner] += first[:n_inner, None]
        cols[n_inner:] = -1
        flat = cols.reshape(-1)
        up = [-1 if s == auto.root else model.inverse_index(entering[s]) for s in range(len(child))]
        at = np.array(up, np.int32)[state[1:]]  # each vertex's parent entry, by flat index
        at += np.arange(n_gens, n * n_gens, n_gens, dtype=np.int32)
        flat[at] = parent[1:]
        factor = [x for x, _d in model._moves]
        commute = np.zeros(kid.shape, bool)
        for s, g in ((s, g) for s, c in enumerate(child) for g in range(n_gens)
                     if g not in c and g != up[s]):
            if factor[g] != factor[entering[s]]:
                commute[s, g] = True
            elif (vs := np.flatnonzero(state == s)).size:
                t = vs
                for _ in range(runs[s]):
                    t = parent[t]
                for h in model.syllable(entering[s], runs[s], g):
                    t = down(t, h)
                cols[vs, g] = t
        if commute.any():
            rows, gs = np.nonzero(commute[state])
            at, of = rows * n_gens + gs, parent[rows] * n_gens + gs
            hs = np.array(entering, np.int32)[state[rows]]
            for a, b in pairwise(np.searchsorted(rows, self.level_starts[1:])):
                flat[at[a:b]] = flat[flat[of[a:b]] * n_gens + hs[a:b]]
        offsets, ends = zeroed(n + 1)
        np.multiply(np.arange(n_inner + 1, dtype=np.intc), n_gens, out=ends[:n_inner + 1])
        present = cols[n_inner:] >= 0  # the outer sphere's products inside the ball
        present.sum(axis=1, dtype=np.intc, out=ends[n_inner + 1:])
        np.cumsum(ends[n_inner:], out=ends[n_inner:])  # row v ends where row v + 1 starts
        return offsets, packed(np.concatenate((flat[:n_inner * n_gens], cols[n_inner:][present])))


# From the first sphere of at least this many vertices on, the export is
# written as byte records from numpy passes, and before it from Python
# strings.  Measured sphere by sphere on zd:2, zd:3, free:2, freeprod:3,3
# and dinf balls (2-CPU VM), the numpy pass costs about 18 us a sphere more
# than the strings' fixed cost, and the two cross between 70 and 130
# vertices (free:2's 108-vertex sphere: 73 us against 48; freeprod:3,3's
# 128: 48 against 61).
EXPORT_SPHERE_MIN = 128
EXPORT_CHUNK = 2 ** 16  # most ids one digit pass writes, so the export runs in fixed memory


def write_tree_export(tree: CayleyBall, fh) -> None:
    """Write the ball's lex-min spanning tree to the binary file ``fh`` as an
    explicit tree spec: a ``# vertex v = word`` comment per vertex (``id``
    for the root), then ``trees.format_parents(parent[1:])``, encoded.
    A word is its tree parent's plus one letter.  The spheres before the
    first one of EXPORT_SPHERE_MIN vertices are written from Python
    strings, a word and a line a vertex.  From there on, as every generator
    name is one letter, the words of sphere L are an (|S(L)|, L) byte
    matrix gathered from sphere L - 1's plus the entering letters, and its
    lines are fixed-width byte records, one block per run of at most
    EXPORT_CHUNK ids of one digit width, written into the records in place;
    the parent lines go through ``format_ids``, EXPORT_CHUNK at a time."""
    names, starts = tree.model.generators, tree.level_starts
    first = next((lv for lv in range(1, tree.depth + 1)
                  if starts[lv + 1] - starts[lv] >= EXPORT_SPHERE_MIN), tree.depth + 1)
    words = [""]
    for p, g in zip(tree.parent[1:starts[first]], tree.tree_generator[1:starts[first]]):
        words.append(words[p] + names[g])
    fh.write("".join(f"# vertex {v} = {w or 'id'}\n" for v, w in enumerate(words)).encode())
    parent, entering = view(tree.parent), view(tree.tree_generator)
    letters = np.frombuffer("".join(names).encode(), np.uint8)
    if first <= tree.depth:
        up = starts[first - 1]
        words = np.frombuffer("".join(words[up:]).encode(), np.uint8)
        words = words.reshape(starts[first] - up, first - 1)
    for lv in range(first, tree.depth + 1):
        a, b, up = starts[lv], starts[lv + 1], starts[lv - 1]
        grown = np.empty((b - a, lv), np.uint8)
        grown[:, :-1] = words[parent[a:b] - up]
        grown[:, -1] = letters[entering[a:b]]
        words = grown
        cuts = {10 ** k for k in range(len(str(a)), len(str(b - 1)))}  # where the width grows
        for lo, hi in pairwise(sorted({a, b, *cuts, *range(a, b, EXPORT_CHUNK)})):
            width = len(str(lo))
            rec = np.empty((hi - lo, 13 + width + lv), np.uint8)
            rec[:, :9] = np.frombuffer(b"# vertex ", np.uint8)
            ids = np.arange(lo, hi, dtype=np.intc)
            for k in range(8 + width, 8, -1):  # the id's digits, last first
                rec[:, k], ids = ids % 10 + ord("0"), ids // 10
            rec[:, 9 + width:12 + width] = np.frombuffer(b" = ", np.uint8)
            rec[:, 12 + width:-1] = words[lo - a:hi - a]
            rec[:, -1] = ord("\n")
            fh.write(rec)
    fh.write(b"variant: explicit\n" + b"parents:\n" * (len(parent) == 1))
    for a in range(1, len(parent), EXPORT_CHUNK):
        fh.write(format_ids(parent[a:a + EXPORT_CHUNK], 16, b"parents: "))


def _sphere_sizes(model, radius: int) -> list[int]:
    """|S(0)|, ..., |S(radius)|, the acceptor's level counts.  The ball cap
    is decided here, before anything is built: the walk stops at the least
    radius whose ball has more than DEFAULT_BALL_CAP elements and fails."""
    if radius < 0:
        raise SpecError("ball radius must be >= 0")
    spheres = level_counts(model.acceptor[0], radius, DEFAULT_BALL_CAP)
    if (total := sum(spheres)) > DEFAULT_BALL_CAP:
        raise ResourceLimitError(f"ball of radius {len(spheres) - 1} has {total} elements, "
                                 f"the ball cap is {DEFAULT_BALL_CAP}")
    return spheres


def ball(model, radius: int, spheres: Sequence[int] | None = None) -> CayleyBall:
    """The ball around the identity, unfolded from the word acceptor: the
    children of a vertex are the one-letter extensions of its normal form,
    in generator order, so vertices are numbered as a breadth-first search
    in generator order numbers them.  ``spheres`` are the sizes |S(0)|, ...,
    |S(radius)| as ``_sphere_sizes`` walks them, which the surround has
    already walked; without them the walk runs here."""
    if spheres is None:
        spheres = _sphere_sizes(model, radius)
    return CayleyBall(model, spheres)


def lex_min_tree(model, radius: int) -> CayleyBall:
    """The lex-min geodesic spanning tree of the radius-R ball: the ball
    itself, whose ``parent`` joins each element to its word's prefix,
    unfolded here, as its export reads every vertex array."""
    tree = CayleyBall(model, _sphere_sizes(model, radius))
    tree.parent  # unfolds the ball
    return tree


# ---------------------------------------------------------------------------
# Growth estimates
# ---------------------------------------------------------------------------


class GrowthEstimate(Value):
    """Two readings of the growth rate at radius R: the ball root
    |B(R)|**(1/R) and the sphere ratio |S(R)|/|S(R-1)|, with the full
    sequences for smaller radii."""

    _fields = ("radius", "sphere_sizes", "ball_sizes", "ball_root_sequence",
               "sphere_ratio_sequence")

    def __init__(self, radius: int, sphere_sizes: tuple[int, ...], ball_sizes: tuple[int, ...],
                 ball_root_sequence: tuple[float, ...], sphere_ratio_sequence: tuple[float, ...]):
        self.__dict__.update(radius=radius, sphere_sizes=sphere_sizes, ball_sizes=ball_sizes,
                             ball_root_sequence=ball_root_sequence,
                             sphere_ratio_sequence=sphere_ratio_sequence)

    @property
    def ball_root(self) -> float:
        return self.ball_root_sequence[-1]

    @property
    def sphere_ratio(self) -> float:
        return self.sphere_ratio_sequence[-1]


def growth_rate_estimate(model, radius: int) -> GrowthEstimate:
    if radius < 2:
        raise SpecError("growth estimates need radius >= 2")
    spheres = _sphere_sizes(model, radius)
    balls = list(accumulate(spheres))
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


class SurroundResult(Value):
    _fields = ("strategy", "verdict", "trigger_round", "sphere_index", "sphere", "budget_trace",
               "ball")

    def __init__(self, strategy: ScheduleStrategy, verdict: Verdict, trigger_round: int,
                 sphere_index: int, sphere: range, budget_trace: tuple[tuple[int, int, int], ...],
                 ball: CayleyBall):
        # sphere: the protected layer's ids; budget_trace: (round, budget, sphere size)
        self.__dict__.update(strategy=strategy, verdict=verdict, trigger_round=trigger_round,
                             sphere_index=sphere_index, sphere=sphere,
                             budget_trace=budget_trace, ball=ball)


def wait_and_surround(model, radius: int, rate, ball_radius: int) -> SurroundResult:
    """Wait until the budget floor(rate**n) covers the sphere one past the
    fire's reach, then protect that whole sphere at once.  The fire starts
    on B(radius) and occupies B(radius+n) after round n, so protecting
    S(radius+n+1) in round n leaves a one-sphere guard band and blocks all
    further spread.  The trigger is read from the acceptor's sphere sizes,
    which the ball then takes as they were walked, and the ball reaches
    only out to the protected sphere, which the fire never passes.  Each
    round's fire fills the ball up to a level, so the game spreads it from
    the level starts alone, and ``separated`` finds no untouched vertex:
    the ball unfolds nothing and builds no row.
    Runs out of ball (SurroundCapError, with nothing built) when the rate
    does not outgrow the spheres within the given ball radius; the ball cap
    applies to that radius."""
    from .game import BudgetSequence, ScheduleStrategy, simulate

    if radius < 0:
        raise SpecError("initial radius must be >= 0")
    if ball_radius <= radius + 1:
        raise SpecError("ball radius must exceed the initial radius + 1")
    budget = BudgetSequence.exponential(rate)
    spheres = _sphere_sizes(model, ball_radius)
    trace, trigger = [], None
    for n in range(1, ball_radius - radius):  # protecting S(radius + n + 1) in round n
        trace.append((n, budget(n), spheres[radius + n + 1]))
        if trace[-1][1] >= trace[-1][2]:
            trigger = n
            break
    if trigger is None:
        raise SurroundCapError(
            f"budget never covered a sphere within radius {ball_radius}; "
            "the rate may not exceed the growth rate", tuple(trace),
        )
    sphere_index = radius + trigger + 1
    b = ball(model, sphere_index, spheres=spheres[:sphere_index + 1])
    sphere = range(*b.level_starts[sphere_index:])
    strategy = ScheduleStrategy({trigger: sphere})
    verdict = simulate(b, radius, strategy, budget, horizon=trigger + 2)
    return SurroundResult(strategy=strategy, verdict=verdict, trigger_round=trigger,
                          sphere_index=sphere_index, sphere=sphere,
                          budget_trace=tuple(trace), ball=b)


# ---------------------------------------------------------------------------
# Polynomial budget probes
# ---------------------------------------------------------------------------


class ProbeReport(Value):
    _fields = ("feasibility", "budget_vs_sphere", "note")

    def __init__(self, feasibility: FeasibilityResult,
                 budget_vs_sphere: tuple[tuple[int, int, int], ...], note: str):
        # budget_vs_sphere: (n, cumulative budget, |S(n+1)|)
        self.__dict__.update(feasibility=feasibility, budget_vs_sphere=budget_vs_sphere, note=note)


def polynomial_probe(model, coeff, degree: int, radius: int, depth: int) -> ProbeReport:
    """Deadline feasibility of budgets floor(coeff * n**degree) on the
    lex-min spanning tree, decided without witness paths
    (``feasibility_decision``), with the cumulative-budget-vs-sphere table;
    both read the word acceptor, which unfolds to that tree, so no ball
    is built (the ball cap still bounds the depth).

    Containment passes from the ball B to its spanning tree T (the ball's
    own ``parent`` links): play on both the same protect sets, each legal
    on B.  The burning set of T is a subset of B's after every round, by
    induction on the round.  Both start on the same fire, as T spans B and
    has its levels.  A protect set legal on B avoids B's burning vertices,
    hence T's, so it is legal on T and both graphs have the same protected
    set.  A vertex w that starts burning on T is untouched there, so not
    protected on B, and has a T-neighbour v burning on T, hence on B;
    the edge vw is an edge of B, so w is burning on B by the end of the
    round.  A strategy that contains the fire on B therefore keeps T's
    fire inside B's contained burning set, away from the boundary, so no
    containing strategy on the tree means none on the ball.  An infeasible
    finite-depth probe is still evidence, not proof, against containment
    on the Cayley graph itself: it cannot settle an asymptotic statement."""
    from .game import BudgetSequence, feasibility_decision

    spheres = _sphere_sizes(model, depth)
    budget = BudgetSequence.polynomial(coeff, degree)
    result = feasibility_decision(model.acceptor[0], radius, budget, depth)
    rows = tuple((n, total, spheres[n + 1])
                 for n, total in enumerate(budget.prefix_sums(depth - 1), 1))
    return ProbeReport(
        feasibility=result, budget_vs_sphere=rows,
        note=("finite-depth probe on the spanning tree: infeasible rules out "
              f"containment within the radius-{depth} ball (proven by subgraph "
              "monotonicity); for the whole Cayley graph it is evidence only"),
    )
