"""Cut weights, min-cuts, max-flows, branching numbers and non-containment
certificates on tree truncations.

An edge at level n has capacity rate**(-n).  The branching number of an
infinite tree is the supremum of the rates at which the root still pushes
a non-zero flow to infinity; equivalently the supremum of the rates for
which all cutset weights stay bounded away from zero (Lyons 1990).  A
vertex's min-cut value depends only on its level and automaton state, so
one per-state recursion, read by ``cut_recursion`` alone, gives min-cut
weights at every depth with no truncation built, min cutsets and max
flows; ``cut_weight``, which walks a truncation, checks it in tests.

Cut arithmetic runs on integers.  For a rate p/q the recursion keeps the
values at height n as numerators over one common denominator p**n, so a
step is a few integer sums and a min, with no gcd; a cut weight is
one numerator over p**depth.  Comparisons are integer cross-products, and
a ``fractions.Fraction`` is built only where a value leaves the layer: a
reported weight, a table row, a certificate's y.  Every rate is read by
``exact_rate`` as the rational it is, a float included, so every value
handed out is a Fraction.

For a spec the branching number is the largest Perron root over the
strongly connected components of its automaton's count matrix.  Each has
one proposal, an integer Perron vector with exact Collatz-Wielandt bounds
lo <= br_C <= hi.  ``compare_to_br`` decides a rate outside them at once and
one inside by exact elimination, ``br_bracket`` bisects on that sign, and
a certificate steps the recursion's map from the best proposal on integers
over one fixed scale, rounding down, and is checked exactly.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from fractions import Fraction
from itertools import count, islice, pairwise, takewhile
from typing import Iterable, Union

from .errors import ResourceLimitError, SpecError
from .trees import Automaton, Truncation, Value, _sorted_unique, np, view

Rate = Union[Fraction, int, float, str]  # what exact_rate reads

CERTIFICATE_RADIUS_MAX = 100_000  # largest certificate radius built
PROPOSAL_SCALE = 2 ** 48  # largest entry of a component's integer Perron vector
PERRON_WIDTH = 2.0 ** -40  # relative width of the float ratios at which _perron stops
PERRON_ITERATIONS_MAX = 100  # most solves _perron makes for one component
Proposal = namedtuple("Proposal", "comp v root lo hi")  # one per component, see _proposals


def exact_rate(rate: Rate) -> Fraction:
    """The rate as the exact rational it is: a Fraction passes through, and
    an int, a rational string or a float (read exactly, not rounded)
    becomes one.  Rejects bool, other types, nan and infinities."""
    if isinstance(rate, Fraction):
        return rate
    if isinstance(rate, bool) or not isinstance(rate, (int, float, str)):
        raise SpecError(f"rate must be a number, not {type(rate).__name__}")
    try:
        return Fraction(rate)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise SpecError(f"rate {rate!r} is not a rational number") from exc


def _split_rate(rate: Rate) -> tuple[Fraction, int, int]:
    """(rate, p, q): the rate after exact_rate and a positivity check, and
    p/q in lowest terms."""
    rate = exact_rate(rate)
    if not rate > 0:
        raise SpecError("rate must be positive")
    return rate, rate.numerator, rate.denominator


class Cutset:
    """A set of truncation edges, identified by their child endpoints.
    Valid when removing them leaves the root separated from every boundary
    vertex.  Built from any iterable of ids: ``ids`` holds them sorted, each
    once (min_cutset's strictly increasing array as it is)."""

    def __init__(self, edges: Iterable[int] = ()):
        if not isinstance(edges, np.ndarray):
            edges = np.fromiter(edges, np.int64)
        self.ids = _sorted_unique(edges)

    def __len__(self) -> int:
        return len(self.ids)

    def separates(self, trunc: Truncation) -> bool:
        """No boundary vertex is reached from the root once the edges are
        cut; a vertex is reached when its parent is, level by level."""
        ids = self.ids
        reached = np.ones(trunc.n_vertices, bool)
        reached[ids[np.searchsorted(ids, 1):np.searchsorted(ids, trunc.n_vertices)]] = False
        parent = view(trunc.parent)
        for a, b in pairwise(trunc.level_starts[1:]):
            reached[a:b] &= reached[parent[a:b]]
        return not (reached & np.frombuffer(trunc.boundary_mask, bool)).any()


def cut_weight(trunc: Truncation, cutset: Cutset, rate: Rate):
    """Sum of rate**(-level) over the cut edges.  For the rate p/q it is one
    numerator over p**depth: the level-L count times q**L * p**(depth-L).
    Rejects edge sets that do not separate the root from the boundary."""
    _, p, q = _split_rate(rate)
    ids, n = cutset.ids, trunc.n_vertices
    if len(ids) and not 1 <= ids[0] <= ids[-1] < n:
        raise SpecError(f"edge id {next(v for v in ids.tolist() if not 1 <= v < n)} out of range")
    if not cutset.separates(trunc):
        raise SpecError("edge set does not separate the root from the boundary")
    num, q_power = 0, 1
    at = np.searchsorted(ids, trunc.level_starts)  # ids are sorted: per level, a count
    for count in (at[1:] - at[:-1]).tolist():
        num, q_power = num * p + count * q_power, q_power * q
    return Fraction(num, p ** trunc.depth)


def _state_recursion(auto: Automaton, p: int, q: int):
    """The min-cut recursion on the spec's automaton at the rate p/q, on
    integer numerators over one common denominator.  Yields (N_n, D_n, w_n)
    for n = 0, 1, ... forever: y_n(s) = N_n(s) / D_n and W(n) = w_n / D_n,
    with D_n = p**n.  N_0(s) is 1 where state s continues and 0 otherwise,
    and N_n(s) = min(D_n, q * sum of N_{n-1} over the children of s); that
    is y_n(s) = min(1, sum of y_{n-1} over the children of s, divided by
    the rate), or 0 for a state without children.

    A level-L vertex in state s of a depth-D truncation has min-cut value
    c(v) = rate**(-L) * y_{D-L}(s) = q**L * N_{D-L}(s) / D_D: the cheapest
    cut below it, capped by the edge above it.  The root has no edge above
    it, so the depth-D min-cut weight W(D) is the sum of y_{D-1} over the
    root's children divided by the rate, w_D = q * (sum of N_{D-1} over
    them), and W(0) is y_0 at the root."""
    kids, root_kids = auto.children, auto.children[auto.root]
    nums, den = [int(auto.continues(s)) for s in range(len(kids))], 1
    weight = nums[auto.root]
    while True:
        yield nums, den, weight
        weight = q * sum(nums[t] for t in root_kids)
        den *= p
        nums = [min(den, q * sum(nums[t] for t in k)) for k in kids]


def cut_recursion(spec: Automaton, rate: Rate):
    """The one reader of the recursion, per spec and rate: (rate, steps),
    the rate after _split_rate and _state_recursion's steps at p/q."""
    rate, p, q = _split_rate(rate)
    return rate, _state_recursion(spec, p, q)


def min_cut_weight(trunc: Truncation, rate: Rate):
    """Minimum cutset weight over all cutsets of the truncation, read from
    the per-state recursion without visiting a vertex; non-increasing in
    the truncation depth."""
    _, den, weight = next(islice(cut_recursion(trunc.spec, rate)[1], trunc.depth, None))
    return Fraction(weight, den)


def min_cutset(trunc: Truncation, rate: Rate, steps=None) -> Cutset:
    """A cutset attaining min_cut_weight: v is cut exactly when its
    recursion value is 1, i.e. when cutting the edge above it costs no more
    than the best cut inside its subtree, so ties go to the shallower cut.
    Subtrees of value 0 reach no boundary vertex and are skipped.  Values
    are classified exactly per (level, state), a level's ids at a time, and
    those whose ancestors all lie strictly between 0 and 1 carried down.
    ``steps`` are the recursion's steps 0..depth at this rate, as
    cut_recursion yields them, which synthesis has already stepped
    through; without them the recursion runs here."""
    depth = trunc.depth
    if steps is None:
        steps = list(islice(cut_recursion(trunc.spec, rate)[1], depth + 1))
    table = np.array([[1 if n == den else 2 if n else 0 for n in nums]  # 2: strictly between
                      for nums, den, _ in reversed(steps[:depth + 1])], np.int8)
    parent, state = view(trunc.parent), view(trunc.state)
    cut, opened = np.zeros(trunc.n_vertices, bool), np.ones(trunc.n_vertices, bool)
    for kinds, (a, b) in zip(table[1:], pairwise(trunc.level_starts[1:])):
        kind, reached = kinds[state[a:b]], opened[parent[a:b]]
        cut[a:b] = reached & (kind == 1)
        opened[a:b] = reached & (kind == 2)
    return Cutset(np.flatnonzero(cut))


class FlowAssignment(Value):
    """Flow per edge (keyed by child endpoint) plus its total value at the
    root.  Satisfies the capacity bound rate**(-level) on every edge and
    conservation at internal vertices."""

    _fields = ("flows", "value", "rate")

    def __init__(self, flows: dict[int, Fraction], value: Fraction, rate: Fraction):
        self.__dict__.update(flows=flows, value=value, rate=rate)


def max_flow(trunc: Truncation, rate: Rate) -> FlowAssignment:
    """A maximum feasible flow from the root to the boundary, built
    top-down, level by level, by splitting each vertex's inflow over its
    children (ids ``first_child[v]`` to ``first_child[v + 1]``) up to their
    min-cut values c, the level's numerators per state over the recursion's
    denominator at the truncation depth.  Its value equals min_cut_weight."""
    rate, steps = cut_recursion(trunc.spec, rate)
    depth, first, state, q = trunc.depth, trunc.first_child, trunc.state, rate.denominator
    steps = list(islice(steps, depth + 1))
    _, den, value = steps[depth]
    flows: dict[int, int] = {}
    for lv, (a, b) in enumerate(pairwise(trunc.level_starts[:-1]), 1):  # children at level lv
        c = [q ** lv * n for n in steps[depth - lv][0]]
        for v in range(a, b):
            remaining = flows.get(v, 0) if v else value
            for w in range(first[v], first[v + 1]):
                if remaining == 0:
                    break
                x = min(c[state[w]], remaining)
                if x > 0:
                    flows[w] = x
                    remaining -= x
    return FlowAssignment(flows={w: Fraction(x, den) for w, x in flows.items()},
                          value=Fraction(value, den), rate=rate)


# ---------------------------------------------------------------------------
# Branching numbers
# ---------------------------------------------------------------------------


def br_exact_periodic(spec: Automaton) -> float:
    """Branching number of the tree unfolded from a spec, as a float for
    display: the largest float Perron root of the components, the spectral
    radius of the count matrix (periodic trees are subperiodic, so growth
    rate and branching number coincide).  Regime decisions read the exact
    ``compare_to_br``.  A spec that unfolds to a finite tree reports 1.0
    with a warning (the convention for finite trees)."""
    if spec.is_finite():
        warnings.warn("spec unfolds to a finite tree; branching number reported as 1 by convention")
        return 1.0
    return max(prop.root for prop in _proposals(spec))


def _components(kids, root: int) -> list[list[int]]:
    """Strongly connected components of an automaton graph whose states are
    all reachable from the root, each a sorted state list: Tarjan's
    algorithm with an explicit stack of (state, child iterator, stack height
    at entry).  A state whose component is done gets index len(kids), which
    lowers no low link."""
    index, low, stack, comps = {root: 0}, {root: 0}, [root], []
    work = [(root, iter(kids[root]), 0)]
    while work:
        v, todo, at = work[-1]
        for w in todo:
            if w not in index:
                index[w] = low[w] = len(index)
                work.append((w, iter(kids[w]), len(stack)))
                stack.append(w)
                break
            low[v] = min(low[v], index[w])
        else:
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                comps.append(sorted(stack[at:]))
                index.update(dict.fromkeys(stack[at:], len(kids)))
                del stack[at:]
    return comps


def _proposals(auto: Automaton) -> list[Proposal]:
    """Per strongly connected component C: its states, its Perron vector
    from ``_perron`` rounded to integers v (PROPOSAL_SCALE at its largest
    entry, at least 1 on C, 0 off C), the float Perron root of M_C, and v's
    exact Collatz-Wielandt bounds lo <= br_C <= hi, the least and largest
    (M v)_s / v_s over C.  Kept on the automaton, a value."""
    props = auto.__dict__.get("_proposals")
    if props is None:
        kids, props = auto.children, []
        for comp in _components(kids, auto.root):
            x, root = _perron(kids, comp)
            on = {s: max(round(x_s * PROPOSAL_SCALE), 1) for s, x_s in zip(comp, x)}
            v = [on.get(s, 0) for s in range(len(kids))]
            ratios = [Fraction(sum(v[t] for t in kids[s]), v[s]) for s in comp]
            props.append(Proposal(comp, v, root, min(ratios), max(ratios)))
        object.__setattr__(auto, "_proposals", props)
    return props


def _perron(kids, comp: list[int]) -> tuple[list[float], float]:
    """M_C's float Perron vector, largest entry 1, and root by Noda's inverse
    iteration (Noda 1971): x becomes (hi * I - M_C)^-1 x, scaled, where hi >
    br_C is x's largest ratio (M x)_s / x_s, so every pivot is positive (an
    M-matrix).  x is kept one solve after the ratios lie within PERRON_WIDTH
    of each other, or at a pivot no longer positive; ResourceLimitError
    past PERRON_ITERATIONS_MAX solves."""
    n, at = len(comp), {s: i for i, s in enumerate(comp)}
    out = [[at[t] for t in kids[s] if t in at] for s in comp]
    x, settled, minus = [1.0] * n, False, _shifted_rows(kids, comp, 0.0)  # -M_C
    for solves in count():
        ratios = [sum(x[j] for j in js) / x_i for js, x_i in zip(out, x)]
        lo, hi = min(ratios), max(ratios)
        if settled or lo == hi:
            return x, (lo + hi) / 2
        settled = hi - lo <= PERRON_WIDTH * hi
        if solves == PERRON_ITERATIONS_MAX:
            raise ResourceLimitError(f"the Perron vector of a {n}-state component needs more "
                                     f"than PERRON_ITERATIONS_MAX = {PERRON_ITERATIONS_MAX} solves")
        # hi * I - M_C, with x as the right-hand side in column n, which no pivot reaches
        rows = [{**row, i: row[i] + hi, n: x_i} for i, (row, x_i) in enumerate(zip(minus, x))]
        pivots = list(takewhile(lambda pivot: pivot > 0, _pivots(rows)))
        if len(pivots) < n:
            return x, (lo + hi) / 2
        for k in reversed(range(n)):  # row k holds the columns right of k
            x[k] = (rows[k].pop(n) - sum(a * x[j] for j, a in rows[k].items())) / pivots[k]
        top = max(x)
        x = [x_i / top for x_i in x]


def _shifted_rows(kids, comp: list[int], rate) -> list[dict]:
    """The sparse rows (column -> entry) of rate * I - M_C, columns in comp's order."""
    at = {s: i for i, s in enumerate(comp)}
    return [{at[t]: rate * (s == t) - kids[s].count(t) for t in {s, *kids[s]} if t in at}
            for s in comp]


def _pivots(rows: list[dict]):
    """Gaussian elimination without pivoting on sparse rows, in place:
    yields each pivot, then subtracts its row from the rows below that hold
    its column, which a column index lists (fill-in included)."""
    below = [[] for _ in rows]
    for i, j in ((i, j) for i, row in enumerate(rows) for j in row if j < i):
        below[j].append(i)
    for k, pivot_row in enumerate(rows):
        pivot = pivot_row.pop(k)
        yield pivot
        for i in below[k]:
            row = rows[i]
            if m := row.pop(k):
                m /= pivot
                for j, x in pivot_row.items():
                    if j < i and j not in row:
                        below[j].append(i)
                    row[j] = row.get(j, 0) - m * x


def _compare_component(kids, prop: Proposal, rate: Fraction) -> int:
    """Sign of rate - br_C on a component C: -1 below the proposal's lo, 1
    above its hi, else from the pivots of Gaussian elimination on the sparse
    rows of rate * I - M_C.  All positive means a nonsingular M-matrix,
    br_C < rate; all but a zero last one means br_C = rate; else br_C > rate
    (Berman & Plemmons 1994)."""
    if not prop.lo <= rate <= prop.hi:
        return -1 if rate < prop.lo else 1
    for k, pivot in enumerate(_pivots(_shifted_rows(kids, prop.comp, rate))):
        if pivot <= 0:
            return 0 if k == len(prop.comp) - 1 and pivot == 0 else -1
    return 1


def compare_to_br(spec: Automaton, rate: Rate) -> int:
    """The sign (-1, 0 or 1) of rate - br, exactly: br is the largest
    Perron root over the strongly connected components of the automaton's
    count matrix (0 for an acyclic automaton), and the rate is read by
    exact_rate."""
    rate = exact_rate(rate)
    return min(_compare_component(spec.children, prop, rate) for prop in _proposals(spec))


def br_enclosure(spec: Automaton) -> tuple[float, float, float]:
    """(br, lo, hi) for an infinite spec: the float root of br_exact_periodic
    and lo < br < hi, exactly: the largest lower and upper Collatz-Wielandt
    bounds over the components, widened by a relative 2**-30."""
    props = _proposals(spec)
    return (br_exact_periodic(spec), float(max(prop.lo for prop in props)) * (1 - 2.0 ** -30),
            float(max(prop.hi for prop in props)) * (1 + 2.0 ** -30))


class BracketResult(Value):
    _fields = ("lo", "hi", "probes")

    def __init__(self, lo: float, hi: float, probes: tuple[tuple[float, str], ...]):
        self.__dict__.update(lo=lo, hi=hi, probes=probes)

    @property
    def width(self) -> float:
        return self.hi - self.lo


def br_bracket(spec: Automaton, tol: float) -> BracketResult:
    """Bisect [1, largest out-degree + 1/2] for the branching number on
    exact comparisons: lo <= br <= hi, and hi - lo <= tol unless lo and hi
    are adjacent floats.  compare_to_br reads each float mid as the dyadic
    rational it is.  A mid above br, where min cutset weights tend to 0
    (Lyons 1990), is recorded "decays" and becomes hi; any other mid is
    recorded "stabilises" and becomes lo.  That includes a mid equal to br,
    which only a rounded mid next to an integer br can be: there a top
    component's Perron vector keeps the weights bounded away from 0."""
    if not tol > 0:
        raise SpecError("tol must be positive")
    if spec.is_finite():
        raise SpecError("bracket requires an infinite tree spec")
    lo = 1.0
    hi = max(len(kids) for kids in spec.children) + 0.5
    probes: list[tuple[float, str]] = []
    while hi - lo > tol and lo < (mid := (lo + hi) / 2.0) < hi:
        decays = compare_to_br(spec, mid) > 0
        probes.append((mid, "decays" if decays else "stabilises"))
        lo, hi = (lo, mid) if decays else (mid, hi)
    return BracketResult(lo=lo, hi=hi, probes=tuple(probes))


# ---------------------------------------------------------------------------
# Non-containment certificates
# ---------------------------------------------------------------------------


class LowerBoundCertificate(Value):
    """Witness that budgets floor(rate**n) cannot contain a fire starting
    on the ball of the given radius.  Every number is exact.
    With M the automaton's count matrix, the three facts it certifies:
      1. rate < mid_rate < br, and sum_{i<=n} floor(rate**i) <=
         budget_coeff * rate**n for every n >= 1;
      2. 0 <= y <= 1 and mid_rate * y <= M y entrywise, so y stays below
         every step of the min-cut recursion at mid_rate, and every cutset
         has mid-rate weight at least (sum of y over the root's children) /
         mid_rate >= cut_weight_floor;
      3. budget_coeff * sum_{i>radius} (rate/mid_rate)**i < cut_weight_floor.
    Together these force any containing cut to be both lighter and heavier
    than cut_weight_floor, so no containment strategy exists.
    """

    _fields = ("spec", "rate", "mid_rate", "budget_coeff", "cut_weight_floor", "radius", "y")

    def __init__(self, spec: Automaton, rate: Fraction, mid_rate: Fraction,
                 budget_coeff: Fraction, cut_weight_floor: Fraction, radius: int,
                 y: tuple[Fraction, ...]):
        self.__dict__.update(spec=spec, rate=rate, mid_rate=mid_rate, budget_coeff=budget_coeff,
                             cut_weight_floor=cut_weight_floor, radius=radius, y=y)


def _log(x: Fraction) -> float:
    """Natural log of a positive rational: no float overflow, precise near 1."""
    if Fraction(1, 2) < x < 2:
        return math.log1p(float(x - 1))
    return math.log(x.numerator) - math.log(x.denominator)


def _tail_below(ratio: Fraction, scale: Fraction, radius: int) -> bool:
    """scale * ratio**(radius+1) < 1, compared in integers (no large gcd)."""
    return (scale.numerator * ratio.numerator ** (radius + 1)
            < scale.denominator * ratio.denominator ** (radius + 1))


def lower_bound_certificate(spec: Automaton, rate: Rate) -> LowerBoundCertificate:
    """Build a non-containment certificate for budgets floor(rate**n), in
    exact arithmetic (the rate is read by exact_rate).

    Requires rate < branching number.  The proposal with the largest lower
    Collatz-Wielandt bound, the last such in ``_components`` order (which
    follows the spec's child order, not its state numbers), gives y = v /
    PROPOSAL_SCALE with mid_rate * y <= M y.  Up to 2n steps y -> min(1, M y /
    mid_rate), floored on integers over PROPOSAL_SCALE**2 and stopped at a
    fixed point, keep that and raise y: a floor of a larger value is no
    smaller.  The mid rate is the midpoint of the rate and that bound moved by
    at most gap / 2**13 to a short denominator, so the tail powers stay small.
    The cut floor is 9/10 of the weight y bounds, the budget coefficient
    rate/(rate-1) (1 below rate 1, where every budget is 0), and the radius
    the least closing the geometric tail.  ResourceLimitError: a bound at or
    below the rate (within PROPOSAL_SCALE's resolution of br), or a radius
    past CERTIFICATE_RADIUS_MAX, estimated or exact."""
    rate, _, _ = _split_rate(rate)
    if rate == 1:
        # floor(1**i) sums to n, which no constant times 1**n dominates
        raise SpecError("no finite budget coefficient exists at rate exactly 1")
    kids = spec.children
    _, v, _, bound, _ = max(reversed(_proposals(spec)), key=lambda prop: prop.lo)
    if bound <= rate and compare_to_br(spec, rate) >= 0:
        raise SpecError(f"rate {float(rate)} is not below the branching number")
    if bound <= rate:
        raise ResourceLimitError(f"rate {float(rate)} is below the branching number by less than "
                                 f"the resolution of its Perron vector at PROPOSAL_SCALE = 2**48")
    mu = ((rate + bound) / 2).limit_denominator(math.ceil(2 ** 12 / (bound - rate)))
    p, q, top = mu.numerator, mu.denominator, PROPOSAL_SCALE ** 2
    nums = [x * PROPOSAL_SCALE for x in v]
    for _ in range(2 * len(kids)):
        nums, last = [min(top, q * sum(nums[t] for t in k) // p) for k in kids], nums
        if nums == last:
            break
    y = tuple(Fraction(n, top) for n in nums)
    weight = Fraction(q * sum(nums[t] for t in kids[spec.root]), top * p)
    coeff = rate / (rate - 1) if rate > 1 else Fraction(1)
    floor = Fraction(9, 10) * weight
    ratio = rate / mu
    scale = coeff / ((1 - ratio) * floor)
    gain = _log(mu / rate)  # the tail shrinks by this log factor a level
    estimate = _log(scale) / gain - 1 if gain > 0 else math.inf
    radius = max(0, math.ceil(min(estimate, CERTIFICATE_RADIUS_MAX + 1)))
    if radius <= CERTIFICATE_RADIUS_MAX:  # _tail_below's two sides, stepped a factor a radius
        p, q = ratio.numerator, ratio.denominator
        lhs, rhs = scale.numerator * p ** (radius + 1), scale.denominator * q ** (radius + 1)
        while radius <= CERTIFICATE_RADIUS_MAX and lhs >= rhs:
            radius, lhs, rhs = radius + 1, lhs * p, rhs * q
        while 0 < radius <= CERTIFICATE_RADIUS_MAX and lhs * q < rhs * p:
            radius, lhs, rhs = radius - 1, lhs // p, rhs // q
    if radius > CERTIFICATE_RADIUS_MAX:
        raise ResourceLimitError(f"certificate radius (estimate {estimate:,.0f}) is past "
                                 f"CERTIFICATE_RADIUS_MAX = {CERTIFICATE_RADIUS_MAX}")
    return LowerBoundCertificate(spec, rate, mu, coeff, floor, radius, y)


def check_certificate(cert: LowerBoundCertificate) -> dict[str, bool]:
    """Re-verify the three certificate facts in exact arithmetic from the
    spec's count matrix and the stored vector y; no cut recursion is read."""
    lam, mu, coeff, floor, y = (cert.rate, cert.mid_rate, cert.budget_coeff,
                                cert.cut_weight_floor, cert.y)
    kids = cert.spec.children
    budget_ok = coeff >= lam / (lam - 1) if lam > 1 else 0 < lam < 1 and coeff >= 0
    ratio = lam / mu if mu > lam else 1
    return {
        "ordered_and_budget_bounded": ratio < 1 and compare_to_br(cert.spec, mu) < 0 and budget_ok,
        "cutsets_above_floor": len(y) == len(kids) and all(
            0 <= y_s <= 1 and mu * y_s <= sum(y[t] for t in k) for y_s, k in zip(y, kids)
        ) and 0 < floor <= sum(y[t] for t in kids[cert.spec.root]) / mu,
        "geometric_tail_below_floor": ratio < 1 and floor > 0 and _tail_below(
            ratio, coeff / ((1 - ratio) * floor), cert.radius),
    }
