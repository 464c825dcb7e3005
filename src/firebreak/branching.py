"""Cut weights, min-cuts, max-flows, branching numbers and non-containment
certificates on tree truncations.

An edge at level n has capacity rate**(-n).  The branching number of an
infinite tree is the supremum of the rates at which the root still pushes
a non-zero flow to infinity; equivalently the supremum of the rates for
which all cutset weights stay bounded away from zero (Lyons 1990).  A
vertex's min-cut value depends only on its level and automaton state, so
one per-state recursion, read per spec and rate by ``cut_recursion``, gives
min-cut weights at every depth with no truncation built, min cutsets, the
decay classification of brackets and the fixed point of certificates.
``max_flow`` and ``cut_weight``, which walk a truncation, check it in tests.

Rates may be ``fractions.Fraction`` (or int), in which case all cut and
flow arithmetic is exact, or float, in which case documented tolerances
apply.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Union

import numpy as np

from .errors import SpecError
from .trees import (
    Automaton,
    PeriodicSpec,
    SymmetricSpec,
    TreeSpec,
    Truncation,
    compile,
)

Rate = Union[Fraction, int, float]

DECAY_FLOOR = 1e-6          # min-cut weight below this counts as decayed
FIXED_POINT_TOL = 1e-12     # per-state recursion change below this is a fixed point
PERRON_REL_TOL = 1e-10
MAX_ITERATIONS = 500_000    # power-iteration and fixed-point steps
CERTIFICATE_HORIZON = 200   # budget sums that fix the coefficient at rates <= 1
CHECK_DEPTH = 8             # depths whose min-cut weight check_certificate re-reads
CHECK_HORIZON = 60          # budget sums check_certificate re-adds


def exact_rate(rate: Rate) -> Rate:
    """Normalise a rate: ints and strings become Fractions (exact
    arithmetic), floats stay floats."""
    if isinstance(rate, bool):
        raise SpecError("rate must be a number")
    if isinstance(rate, int):
        return Fraction(rate)
    if isinstance(rate, str):
        try:
            return Fraction(rate)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"rate {rate!r} is not a rational number") from exc
    if isinstance(rate, (Fraction, float)):
        return rate
    raise SpecError(f"unsupported rate type {type(rate).__name__}")


def edge_weight(rate: Rate, level: int):
    """rate**(-level), exact for Fraction rates."""
    if isinstance(rate, Fraction):
        return rate ** (-level)
    return float(rate) ** (-level)


@dataclass(frozen=True)
class Cutset:
    """A set of truncation edges, identified by their child endpoints.
    Valid when removing them leaves the root separated from every boundary
    vertex."""

    edges: frozenset[int]

    def is_antichain(self, trunc: Truncation) -> bool:
        for v in self.edges:
            u = trunc.parent[v]
            while u > 0:
                if u in self.edges:
                    return False
                u = trunc.parent[u]
        return True

    def separates(self, trunc: Truncation) -> bool:
        boundary = set(trunc.boundary)
        stack = [0]
        while stack:  # a tree: each vertex is reached once, from its parent
            v = stack.pop()
            if v in boundary:
                return False
            stack.extend(w for w in trunc.children[v] if w not in self.edges)
        return True


def cut_weight(trunc: Truncation, cutset: Cutset, rate: Rate):
    """Sum of rate**(-level) over the cut edges, one power per level.
    Rejects edge sets that do not separate the root from the boundary."""
    rate = exact_rate(rate)
    if float(rate) <= 0:
        raise SpecError("rate must be positive")
    for v in cutset.edges:
        if not 1 <= v < trunc.n_vertices:
            raise SpecError(f"edge id {v} out of range")
    if not cutset.separates(trunc):
        raise SpecError("edge set does not separate the root from the boundary")
    per_level = Counter(trunc.level[v] for v in cutset.edges)
    return sum(n * edge_weight(rate, lv) for lv, n in per_level.items())


def _state_recursion(auto: Automaton, rate: Rate):
    """The min-cut recursion on the spec's automaton.  Yields (y_n, W(n+1))
    for n = 0, 1, ... forever, where y_0(s) = 1 if state s continues and 0
    otherwise, and y_n(s) = min(1, sum of y_{n-1} over the children of s,
    divided by the rate), or 0 for a state without children.

    A level-L vertex in state s of a depth-D truncation has min-cut value
    c(v) = rate**(-L) * y_{D-L}(s): the cheapest cut below it, capped by
    the edge above it.  The root has no edge above it, so the depth-D
    min-cut weight W(D) is the sum of y_{D-1} over the root's children
    divided by the rate, and y_0 at the root for D = 0.  Arithmetic stays
    in the rate's type: Fraction rates give exact values."""
    one = edge_weight(rate, 0)
    zero = one - one
    kids, root_kids = auto.children, auto.children[auto.root]
    y = [one if auto.continues(s) else zero for s in range(len(kids))]
    while True:
        yield y, sum(y[t] for t in root_kids) / rate
        y = [min(one, sum(y[t] for t in k) / rate) if k else zero for k in kids]


def cut_recursion(spec: TreeSpec, rate: Rate):
    """The one reader of W(1), W(2), ... per spec and rate: the rate, after
    exact_rate and a positivity check, and _state_recursion in its type."""
    rate = exact_rate(rate)
    if float(rate) <= 0:
        raise SpecError("rate must be positive")
    return rate, _state_recursion(compile(spec), rate)


def _truncation_recursion(trunc: Truncation, rate: Rate):
    """(rate, ys = y_0..y_D, W(D)) for a depth-D truncation."""
    rate, steps = cut_recursion(trunc.spec, rate)
    ys, weights = zip(*islice(steps, trunc.depth + 1))
    return rate, ys, weights[trunc.depth - 1] if trunc.depth else ys[0][trunc.state[0]]


def min_cut_weight(trunc: Truncation, rate: Rate):
    """Minimum cutset weight over all cutsets of the truncation, read from
    the per-state recursion without visiting a vertex; non-increasing in
    the truncation depth."""
    return _truncation_recursion(trunc, rate)[2]


def min_cutset(trunc: Truncation, rate: Rate) -> Cutset:
    """A cutset attaining min_cut_weight: v is cut exactly when its
    recursion value is 1, i.e. when cutting the edge above it costs no more
    than the best cut inside its subtree, so ties go to the shallower cut.
    Subtrees of value 0 reach no boundary vertex and are skipped."""
    _, ys, _ = _truncation_recursion(trunc, rate)
    depth, level, state = trunc.depth, trunc.level, trunc.state
    edges: list[int] = []
    stack = list(trunc.children[0])
    while stack:
        v = stack.pop()
        y = ys[depth - level[v]][state[v]]
        if y == 1:
            edges.append(v)
        elif y:
            stack.extend(trunc.children[v])
    return Cutset(edges=frozenset(edges))


@dataclass
class FlowAssignment:
    """Flow per edge (keyed by child endpoint) plus its total value at the
    root.  Satisfies the capacity bound rate**(-level) on every edge and
    conservation at internal vertices."""

    flows: dict[int, Rate]
    value: Rate
    rate: Rate


def max_flow(trunc: Truncation, rate: Rate) -> FlowAssignment:
    """A maximum feasible flow from the root to the boundary, built
    top-down by splitting each vertex's inflow over its children up to
    their min-cut values c, read from a per-(level, state) table.  Its
    value equals min_cut_weight exactly."""
    rate, ys, value = _truncation_recursion(trunc, rate)
    depth, level, state = trunc.depth, trunc.level, trunc.state
    c = [[edge_weight(rate, lv) * y for y in ys[depth - lv]] for lv in range(depth + 1)]
    flows: dict[int, Rate] = {}
    for v in range(trunc.n_vertices):
        remaining = flows.get(v, 0) if v else value
        for w in trunc.children[v]:
            if remaining == 0:
                break
            x = min(c[level[w]][state[w]], remaining)
            if x > 0:
                flows[w] = x
                remaining = remaining - x
    return FlowAssignment(flows=flows, value=value, rate=rate)


# ---------------------------------------------------------------------------
# Branching numbers
# ---------------------------------------------------------------------------


def _count_matrix(spec: TreeSpec) -> np.ndarray:
    children = compile(spec).children
    mat = np.zeros((len(children), len(children)))
    for s, kids in enumerate(children):
        for t in kids:
            mat[s, t] += 1
    return mat


def _perron_root(mat: np.ndarray) -> float:
    """Dominant eigenvalue of a non-negative matrix by power iteration on
    the shifted matrix mat + I (the shift makes periodic count matrices
    aperiodic, so the iteration converges)."""
    n = mat.shape[0]
    shifted = mat + np.eye(n)
    v = np.ones(n) / n
    lam = 1.0
    for _ in range(MAX_ITERATIONS):
        w = shifted @ v
        total = float(w.sum())
        if total == 0.0:
            return 0.0
        lam = total
        v = w / total
        residual = float(np.abs(shifted @ v - lam * v).max())
        if residual <= PERRON_REL_TOL * max(1.0, lam):
            break
    return lam - 1.0


def br_exact_periodic(spec: PeriodicSpec) -> float:
    """Branching number of the tree unfolded from a periodic spec: the
    Perron root of the state-transition count matrix restricted to states
    reachable from the root.  Periodic trees are subperiodic, so growth
    rate and branching number coincide and both equal this root.

    Degenerate specs that unfold to a finite tree report 1.0 with a
    warning (the convention for finite trees)."""
    if not isinstance(spec, PeriodicSpec):
        raise SpecError("br_exact_periodic needs a periodic spec")
    if spec.is_finite():
        warnings.warn("spec unfolds to a finite tree; branching number reported as 1 by convention")
        return 1.0
    return _perron_root(_count_matrix(spec))


# -- decay classification ----------------------------------------------------


def _settling(auto: Automaton, rate: float):
    """(W(n+1), largest change from y_{n-1} to y_n) for n = 1, 2, ...:
    how the float readers below watch the recursion decay or settle."""
    steps = _state_recursion(auto, rate)
    y, _ = next(steps)
    for y_next, weight in steps:
        yield weight, max(abs(a - b) for a, b in zip(y, y_next))
        y = y_next


def _classify_states(auto: Automaton, rate: float, max_depth: int):
    """Classify the depth behaviour of the min-cut weight at this rate via
    the per-state recursion, over max_depth steps.  Returns (verdict,
    depth) with verdict in {"decays", "stabilises", "indeterminate"} and
    depth the truncation depth whose weight was read last."""
    for depth, (weight, delta) in zip(range(2, max_depth + 2), _settling(auto, rate)):
        if weight < DECAY_FLOOR:
            return "decays", depth
        if delta < FIXED_POINT_TOL:
            return "stabilises", depth
    return "indeterminate", max_depth + 1


def _classify_symmetric(spec: SymmetricSpec, rate: float, max_depth: int):
    """On a spherically symmetric tree the min cut is a full level, of
    weight (level count) * rate**(-level).  In log space the per-period
    drift of that weight decides the classification exactly; the in-period
    dips are bounded, so the sign of the drift is conclusive."""
    log_rate = math.log(rate)
    drift = sum(math.log(c) for c in spec.period) - len(spec.period) * log_rate
    scale = max(1.0, abs(log_rate)) * len(spec.period)
    depth = len(spec.preperiod) + len(spec.period)
    if drift < -1e-12 * scale:
        return "decays", depth
    if drift > 1e-12 * scale:
        return "stabilises", depth
    return "indeterminate", max_depth


@dataclass(frozen=True)
class BracketResult:
    lo: float
    hi: float
    determinate: bool
    probes: tuple[tuple[float, str, int], ...]

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo


def br_bracket(spec: TreeSpec, tol: float, depth_max: int = 50_000) -> BracketResult:
    """Bisect for the branching number using the decay classification of
    min-cut weights.  The returned interval has width <= tol and contains
    the branching number whenever every probe classified; an indeterminate
    probe stops the bisection and flags the interval as heuristic."""
    if tol <= 0:
        raise SpecError("tol must be positive")
    if depth_max < 1:
        raise SpecError("depth_max must be >= 1")
    auto = compile(spec)
    if auto.is_finite():
        raise SpecError("bracket requires an infinite tree spec")
    if isinstance(spec, SymmetricSpec):
        classify = lambda lam: _classify_symmetric(spec, lam, depth_max)
    else:
        classify = lambda lam: _classify_states(auto, lam, depth_max)

    lo = 1.0
    hi = max(len(kids) for kids in auto.children) + 0.5
    probes: list[tuple[float, str, int]] = []
    determinate = True
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        verdict, depth = classify(mid)
        probes.append((mid, verdict, depth))
        if verdict == "indeterminate":
            # the boundary rate itself never classifies; try nudged probes
            # before giving up on this interval
            for nudged in (mid - tol / 4.0, mid + tol / 4.0):
                if not lo < nudged < hi:
                    continue
                verdict, depth = classify(nudged)
                probes.append((nudged, verdict, depth))
                if verdict != "indeterminate":
                    mid = nudged
                    break
            if verdict == "indeterminate":
                determinate = False
                break
        if verdict == "decays":
            hi = mid
        else:
            lo = mid
    return BracketResult(lo=lo, hi=hi, determinate=determinate, probes=tuple(probes))


# ---------------------------------------------------------------------------
# Non-containment certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LowerBoundCertificate:
    """Witness that budgets floor(rate**n) cannot contain a fire starting
    on the ball of the given radius.

    The three facts it certifies:
      1. cumulative budgets are bounded: sum_{i<=n} floor(rate**i) <=
         budget_coeff * rate**n for every n >= 1;
      2. every cutset of the tree has mid-rate weight above
         cut_weight_floor (fixed point of the per-state recursion);
      3. budget_coeff * sum_{i>radius} (rate/mid_rate)**i < cut_weight_floor.
    Together these force any containing cut to be both lighter and heavier
    than cut_weight_floor, so no containment strategy exists.
    """

    spec: PeriodicSpec
    rate: float
    mid_rate: float
    budget_coeff: float
    cut_weight_floor: float
    radius: int
    br_value: float


def _fixed_point_mincut(spec: PeriodicSpec, rate: float) -> float:
    """Limit of the min-cut weight over depths, via the per-state fixed
    point.  Positive exactly when the rate is below the branching number."""
    for _, (weight, delta) in zip(range(MAX_ITERATIONS), _settling(compile(spec), rate)):
        if delta < FIXED_POINT_TOL:
            break
    return weight


def budget_partial_sums(rate: Rate, horizon: int) -> list[int]:
    """Cumulative sums of floor(rate**i), i = 1..horizon, exact for
    rational rates."""
    rate = exact_rate(rate)
    sums = []
    total = 0
    for i in range(1, horizon + 1):
        total += math.floor(rate ** i)
        sums.append(total)
    return sums


def lower_bound_certificate(spec: PeriodicSpec, rate: Rate) -> LowerBoundCertificate:
    """Build a non-containment certificate for budgets floor(rate**n).

    Requires rate < branching number.  The mid rate is the midpoint, the
    budget coefficient is the geometric bound rate/(rate-1) (direct
    summation shows any positive constant works below 1), the cut floor
    comes from the per-state fixed point at the mid rate with a 10% safety
    margin, and the radius is the least one closing the geometric tail."""
    br = br_exact_periodic(spec)
    lam = float(rate)
    if lam <= 0:
        raise SpecError("rate must be positive")
    if lam >= br - 1e-9:
        raise SpecError(f"rate {lam} is not below the branching number {br}")
    if abs(lam - 1.0) < 1e-12:
        # floor(1**i) sums to n, which no constant times 1**n dominates
        raise SpecError("no finite budget coefficient exists at rate exactly 1")
    mu = (lam + br) / 2.0
    if lam > 1.0:
        coeff = lam / (lam - 1.0)
    else:
        sums = budget_partial_sums(exact_rate(rate), CERTIFICATE_HORIZON)
        coeff = max(
            [float(s) / lam ** (i + 1) for i, s in enumerate(sums)] + [1.0]
        )
    floor_limit = _fixed_point_mincut(spec, mu)
    eps = 0.9 * floor_limit
    if eps <= 0:
        raise SpecError("fixed point vanished; rate is too close to the branching number")
    ratio = lam / mu
    tail = lambda k: coeff * ratio ** (k + 1) / (1.0 - ratio)
    k = max(0, math.ceil(math.log(eps * (1.0 - ratio) / coeff) / math.log(ratio)) - 1)
    while tail(k) >= eps:
        k += 1
    while k > 0 and tail(k - 1) < eps:
        k -= 1
    return LowerBoundCertificate(
        spec=spec,
        rate=lam,
        mid_rate=mu,
        budget_coeff=coeff,
        cut_weight_floor=eps,
        radius=k,
        br_value=br,
    )


def check_certificate(cert: LowerBoundCertificate) -> dict[str, bool]:
    """Re-evaluate the three certificate invariants from the certificate's
    numbers.  Min-cut weights are re-read from the per-state recursion at
    depths 1..CHECK_DEPTH and at the fixed point; the budget bound is
    checked up to CHECK_HORIZON plus its analytic tail."""
    lam, mu = cert.rate, cert.mid_rate
    results = {}

    sums = budget_partial_sums(lam, CHECK_HORIZON)
    budget_ok = all(s <= cert.budget_coeff * lam ** (i + 1) * (1 + 1e-12)
                    for i, s in enumerate(sums))
    if lam > 1.0:
        budget_ok = budget_ok and cert.budget_coeff >= lam / (lam - 1.0) - 1e-9
    results["ordered_and_budget_bounded"] = (lam < mu) and budget_ok

    _, steps = cut_recursion(cert.spec, mu)
    weights = [w for _, w in islice(steps, CHECK_DEPTH)] + [_fixed_point_mincut(cert.spec, mu)]
    results["cutsets_above_floor"] = all(w > cert.cut_weight_floor for w in weights)

    ratio = lam / mu
    results["geometric_tail_below_floor"] = (
        cert.budget_coeff * ratio ** (cert.radius + 1) / (1.0 - ratio)
        < cert.cut_weight_floor
    )
    return results
