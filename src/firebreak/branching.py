"""Cut weights, min-cuts, max-flows, branching numbers and non-containment
certificates on tree truncations.

An edge at level n has capacity rate**(-n).  The branching number of an
infinite tree is the supremum of the rates at which the root still pushes
a non-zero flow to infinity; equivalently the supremum of the rates for
which all cutset weights stay bounded away from zero.  On truncations both
sides are computed by one bottom-up recursion; on a spec's automaton the
recursion collapses to a per-state vector iteration, which also yields a
fixed-point argument covering every depth at once.

Rates may be ``fractions.Fraction`` (or int), in which case all cut and
flow arithmetic is exact, or float, in which case documented tolerances
apply.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
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
    expand,
)

Rate = Union[Fraction, int, float]

DECAY_FLOOR = 1e-6          # min-cut weight below this counts as decayed
FIXED_POINT_TOL = 1e-12     # per-state recursion change below this is a fixed point
PERRON_REL_TOL = 1e-10


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

    def levels(self, trunc: Truncation) -> list[int]:
        return sorted(trunc.level[v] for v in self.edges)

    def is_antichain(self, trunc: Truncation) -> bool:
        for v in self.edges:
            u = trunc.parent[v]
            while u > 0:
                if u in self.edges:
                    return False
                u = trunc.parent[u]
        return True

    def separates(self, trunc: Truncation) -> bool:
        blocked = self.edges
        stack = [0]
        seen = {0}
        boundary = set(trunc.boundary)
        while stack:
            v = stack.pop()
            if v in boundary:
                return False
            for w in trunc.children[v]:
                if w not in blocked and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return True


def cut_weight(trunc: Truncation, cutset: Cutset, rate: Rate):
    """Sum of rate**(-level) over the cut edges.  Rejects edge sets that do
    not separate the root from the truncation boundary."""
    rate = exact_rate(rate)
    if float(rate) <= 0:
        raise SpecError("rate must be positive")
    for v in cutset.edges:
        if not 1 <= v < trunc.n_vertices:
            raise SpecError(f"edge id {v} out of range")
    if not cutset.separates(trunc):
        raise SpecError("edge set does not separate the root from the boundary")
    return sum(edge_weight(rate, trunc.level[v]) for v in cutset.edges)


def _subtree_cut_values(trunc: Truncation, rate: Rate) -> list:
    """c(v) = cheapest cut separating v's boundary descendants from v,
    capped by the capacity of the edge above v.  Dead subtrees cost 0."""
    boundary = set(trunc.boundary)
    zero = Fraction(0) if isinstance(rate, Fraction) else 0.0
    c = [zero] * trunc.n_vertices
    for v in range(trunc.n_vertices - 1, -1, -1):
        if v in boundary:
            c[v] = edge_weight(rate, trunc.depth)
            continue
        total = zero
        for w in trunc.children[v]:
            total = total + c[w]
        if v == 0:
            c[v] = total
        elif total == 0:
            c[v] = zero
        else:
            c[v] = min(edge_weight(rate, trunc.level[v]), total)
    return c


def min_cut_weight(trunc: Truncation, rate: Rate):
    """Minimum cutset weight over all cutsets of the truncation, by the
    bottom-up recursion; non-increasing in the truncation depth."""
    rate = exact_rate(rate)
    if float(rate) <= 0:
        raise SpecError("rate must be positive")
    return _subtree_cut_values(trunc, rate)[0]


def min_cutset(trunc: Truncation, rate: Rate) -> Cutset:
    """A cutset attaining min_cut_weight.  Ties between cutting above a
    vertex and cutting inside its subtree go to the shallower cut."""
    rate = exact_rate(rate)
    c = _subtree_cut_values(trunc, rate)
    boundary = set(trunc.boundary)
    edges: list[int] = []
    stack = list(trunc.children[0])
    while stack:
        v = stack.pop()
        if c[v] == 0:
            continue
        if v in boundary or edge_weight(rate, trunc.level[v]) <= sum(
            c[w] for w in trunc.children[v]
        ):
            edges.append(v)
        else:
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

    def inflow(self, trunc: Truncation, v: int):
        return self.value if v == 0 else self.flows.get(v, 0)


def max_flow(trunc: Truncation, rate: Rate) -> FlowAssignment:
    """A maximum feasible flow from the root to the boundary, built
    top-down by splitting each vertex's attainable subtree flow.  Its value
    equals min_cut_weight exactly."""
    rate = exact_rate(rate)
    if float(rate) <= 0:
        raise SpecError("rate must be positive")
    c = _subtree_cut_values(trunc, rate)
    zero = Fraction(0) if isinstance(rate, Fraction) else 0.0
    flows: dict[int, Rate] = {}
    inflow = [zero] * trunc.n_vertices
    inflow[0] = c[0]
    for v in range(trunc.n_vertices):
        remaining = inflow[v]
        if remaining == 0:
            continue
        for w in trunc.children[v]:
            if remaining == 0:
                break
            x = min(c[w], remaining)
            if x > 0:
                flows[w] = x
                inflow[w] = x
                remaining = remaining - x
    return FlowAssignment(flows=flows, value=c[0], rate=rate)


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


def _perron_root(mat: np.ndarray, rel_tol: float = PERRON_REL_TOL,
                 max_iter: int = 500_000) -> float:
    """Dominant eigenvalue of a non-negative matrix by power iteration on
    the shifted matrix mat + I (the shift makes periodic count matrices
    aperiodic, so the iteration converges)."""
    n = mat.shape[0]
    shifted = mat + np.eye(n)
    v = np.ones(n) / n
    lam = 1.0
    for _ in range(max_iter):
        w = shifted @ v
        total = float(w.sum())
        if total == 0.0:
            return 0.0
        lam = total
        v = w / total
        residual = float(np.abs(shifted @ v - lam * v).max())
        if residual <= rel_tol * max(1.0, lam):
            break
    return lam - 1.0


def br_exact_periodic(spec: PeriodicSpec, rel_tol: float = PERRON_REL_TOL) -> float:
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
    return _perron_root(_count_matrix(spec), rel_tol=rel_tol)


# -- decay classification ----------------------------------------------------


def _state_recursion(auto: Automaton, rate: float):
    """The per-state min-cut recursion y_s <- min(1, (sum of y over the
    children of s)/rate), from y = 1 on states with children.  After n
    steps, (sum of y over the root's children)/rate is the min-cut weight
    at depth n.  Yields (that weight, largest change of y) per step,
    forever."""
    kids, root_kids = auto.children, auto.children[auto.root]
    y = [1.0 if k else 0.0 for k in kids]
    while True:
        y_new = [min(1.0, sum(y[t] for t in k) / rate) if k else 0.0 for k in kids]
        delta = max(abs(a - b) for a, b in zip(y, y_new))
        y = y_new
        yield sum(y[t] for t in root_kids) / rate, delta


def _classify_states(auto: Automaton, rate: float, max_depth: int):
    """Classify the depth behaviour of the min-cut weight at this rate via
    the per-state recursion.  Returns (verdict, depth) with verdict in
    {"decays", "stabilises", "indeterminate"}."""
    for depth, (weight, delta) in zip(range(1, max_depth + 1), _state_recursion(auto, rate)):
        if weight < DECAY_FLOOR:
            return "decays", depth
        if delta < FIXED_POINT_TOL:
            return "stabilises", depth
    return "indeterminate", max_depth


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


def _fixed_point_mincut(spec: PeriodicSpec, rate: float,
                        max_iter: int = 500_000) -> float:
    """Limit of the min-cut weight over depths, via the per-state fixed
    point.  Positive exactly when the rate is below the branching number."""
    for _, (weight, delta) in zip(range(max_iter), _state_recursion(compile(spec), rate)):
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


def lower_bound_certificate(spec: PeriodicSpec, rate: Rate,
                            horizon: int = 200) -> LowerBoundCertificate:
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
        sums = budget_partial_sums(exact_rate(rate), horizon)
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


def check_certificate(cert: LowerBoundCertificate, depth_check: int = 8,
                      horizon: int = 60) -> dict[str, bool]:
    """Re-evaluate the three certificate invariants independently of how
    the certificate was built.  Cut weights are recomputed from expanded
    truncations; the budget bound is checked up to the horizon plus its
    analytic tail."""
    lam, mu = cert.rate, cert.mid_rate
    results = {}

    sums = budget_partial_sums(lam, horizon)
    budget_ok = all(s <= cert.budget_coeff * lam ** (i + 1) * (1 + 1e-12)
                    for i, s in enumerate(sums))
    if lam > 1.0:
        budget_ok = budget_ok and cert.budget_coeff >= lam / (lam - 1.0) - 1e-9
    results["ordered_and_budget_bounded"] = (lam < mu) and budget_ok

    cuts_ok = all(
        float(min_cut_weight(expand(cert.spec, d), mu)) > cert.cut_weight_floor
        for d in range(1, depth_check + 1)
    )
    cuts_ok = cuts_ok and _fixed_point_mincut(cert.spec, mu) > cert.cut_weight_floor
    results["cutsets_above_floor"] = cuts_ok

    ratio = lam / mu
    results["geometric_tail_below_floor"] = (
        cert.budget_coeff * ratio ** (cert.radius + 1) / (1.0 - ratio)
        < cert.cut_weight_floor
    )
    return results
