"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (a failed assertion marks the criterion failed).  All expected
values are analytic closed forms or brute-force derived; no criterion is
checked against itself.
"""

import io
import math
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import firebreak.oracle
from firebreak import (
    BudgetSequence,
    brute_force_containment,
    br_bracket,
    br_exact_periodic,
    CanonicalStrategy,
    cayley_ball,
    group_from_name,
    check_certificate,
    expand,
    feasibility_check,
    lex_min_tree,
    lower_bound_certificate,
    max_flow,
    min_cut_weight,
    simulate,
    synthesize_cutset_strategy,
    wait_and_surround,
)
from firebreak.cli import main as cli_main
from conftest import (
    ball_words,
    boundary_ids,
    binary_spec,
    child_ids,
    enumerate_cutsets,
    enumerate_geodesic_words,
    fibonacci_spec,
    height,
    random_truncation,
    random_explicit_tree,
    sqrt2_spec,
    ternary_spec,
    tree_export,
    vertex_levels,
)

GOLDEN = (1 + math.sqrt(5)) / 2


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {text}")


@pytest.fixture(scope="session")
def free2_ball_12():
    return cayley_ball(group_from_name("free:2"), 12)


def test_criterion_1_branching_number_exactness():
    t0 = time.time()
    cases = [
        (binary_spec(), 2.0),
        (ternary_spec(), 3.0),
        (fibonacci_spec(), GOLDEN),
        (sqrt2_spec(), math.sqrt(2)),
    ]
    for spec, value in cases:
        assert br_exact_periodic(spec) == pytest.approx(value, abs=1e-8)
        bracket = br_bracket(spec, tol=0.01)
        assert bracket.width <= 0.01
        assert bracket.lo <= value <= bracket.hi, (value, bracket)
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    report(1, f"four exact values and brackets in {elapsed:.2f}s")


def test_criterion_2_flow_cut_duality():
    rates = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
             2.718281828459045, 1.6180339887]
    rng = random.Random(20260811)
    checked = 0
    for _ in range(200):
        trunc = random_truncation(rng, max_depth=10)
        boundary, level = set(boundary_ids(trunc)), vertex_levels(trunc)
        for rate in rates:
            flow = max_flow(trunc, rate)
            target = min_cut_weight(trunc, rate)
            if isinstance(rate, Fraction):
                assert flow.value == target
                slop = Fraction(0)
            else:
                assert abs(flow.value - target) < 1e-9
                slop = 1e-12
            for v, f in flow.flows.items():
                assert 0 <= f <= rate ** -level[v] + slop
            for v in range(1, trunc.n_vertices):
                if v in boundary:
                    continue
                inflow = flow.flows.get(v, 0)
                outflow = sum(flow.flows.get(w, 0) for w in child_ids(trunc, v))
                assert abs(inflow - outflow) <= slop
        checked += 1
    assert checked >= 200
    report(2, f"{checked} truncations x {len(rates)} rates, flow value = min cut")


def _triangle_corpus(rng, count):
    corpus = []
    while len(corpus) < count:
        spec = random_explicit_tree(rng, max_vertices=14)
        k = rng.choice([0, 1])
        depth = height(spec)
        if depth <= k:
            continue
        trunc = expand(spec, depth)
        ball_size = sum(1 for lv in vertex_levels(trunc) if lv <= k)
        if trunc.n_vertices - ball_size > 10:
            continue
        corpus.append((spec, trunc, k))
    return corpus


def _exists_containing_canonical(trunc, k, budget) -> bool:
    level = vertex_levels(trunc)
    for edges in enumerate_cutsets(trunc):
        if any(level[v] <= k for v in edges):
            continue
        if simulate(trunc, k, CanonicalStrategy(edges), budget).contained:
            return True
    return False


def test_criterion_3_containment_triangle():
    t0 = time.time()
    rng = random.Random(31337)
    corpus = _triangle_corpus(rng, 500)
    budgets = [
        BudgetSequence.constant(1),
        BudgetSequence.constant(2),
        BudgetSequence.exponential(Fraction(3, 2)),
        BudgetSequence.exponential(2),
        BudgetSequence.explicit([2, 0]),
        BudgetSequence.explicit([0, 2, 1]),
    ]
    disagreements = []
    triangles = 0
    for spec, trunc, k in corpus:
        fire = [v for v, lv in enumerate(vertex_levels(trunc)) if lv <= k]
        for budget in budgets:
            brute = brute_force_containment(trunc, fire, budget).feasible
            feas = feasibility_check(spec, k, budget, trunc.depth).feasible
            canon = _exists_containing_canonical(trunc, k, budget)
            if not (brute == feas == canon):
                disagreements.append((spec, k, budget.describe(), brute, feas, canon))
            triangles += 1
    elapsed = time.time() - t0
    assert not disagreements, disagreements[:3]
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.2f}s"
    report(3, f"{len(corpus)} trees x {len(budgets)} budgets "
              f"({triangles} triangles), zero disagreements in {elapsed:.1f}s")


def test_criterion_4_synthesis_above_threshold():
    cases = [(binary_spec(), 3, [1, 2, 3, 4]), (ternary_spec(), 4, [1, 2])]
    for spec, rate, radii in cases:
        budget = BudgetSequence.exponential(rate)
        for k in radii:
            res = synthesize_cutset_strategy(spec, rate, k)
            # each cut level n is played in round n - k, within budget
            level = vertex_levels(res.trunc)
            for round_no, vertices in res.strategy.schedule.items():
                assert len(vertices) <= budget(round_no)
                assert all(level[v] == round_no + k for v in vertices)
            verdict = simulate(res.trunc, k, res.strategy, budget)
            assert verdict.contained, (rate, k)
    report(4, "binary at rate 3 (k=1..4) and ternary at rate 4 (k=1,2) "
              "synthesize, stay within budget and contain")


def test_criterion_5_certificates_below_threshold(monkeypatch):
    spec = binary_spec()
    for lam in (1.2, 1.5, 1.9):
        cert = lower_bound_certificate(spec, lam)
        checks = check_certificate(cert)
        assert all(checks.values()), (lam, checks)
        budget = BudgetSequence.exponential(
            Fraction(lam).limit_denominator(1000)
        )
        k = cert.radius
        # twenty depths past the certified radius (the literal depths <= 20
        # where they exist are covered: radius 10 at rate 1.2, 19 at 1.5)
        for depth in range(k + 1, k + 21):
            assert not feasibility_check(spec, k, budget, depth).feasible, (lam, depth)
    one = BudgetSequence.constant(1)
    for depth in range(1, 21):
        assert not feasibility_check(spec, 0, one, depth).feasible
    monkeypatch.setattr(firebreak.oracle, "DEFAULT_FREE_CAP", 130)
    for depth in range(1, 7):
        trunc = expand(spec, depth)
        assert not brute_force_containment(trunc, [0], one).feasible
    report(5, "certificates at rates 1.2/1.5/1.9 re-validate; budgets "
              "floor(rate**n) infeasible for 20 depths past each radius; "
              "one guard per round brute-force refuted to depth 6")


def test_criterion_6_cayley_growth(free2_ball_12):
    spheres = free2_ball_12.sphere_sizes()
    for n in range(1, 11):
        assert spheres[n] == 4 * 3 ** (n - 1)
    z2 = cayley_ball(group_from_name("zd:2"), 20)
    assert z2.sphere_sizes() == [1] + [4 * n for n in range(1, 21)]
    models = [group_from_name(name) for name in ("free:1", "free:2", "zd:1", "zd:2", "zd:3",
                                                 "dinf", "freeprod:2,3", "freeprod:3,3")]
    for model in models:
        tree = lex_min_tree(model, 8)
        trunc = expand(tree_export(tree), 8)
        assert trunc.n_vertices == tree.n_vertices               # spanning
        assert trunc.level_starts == tree.level_starts           # geodesic
        for v in range(1, tree.n_vertices):                      # Cayley edges
            assert tree.parent[v] in tree.neighbors(v)
    z2_small = cayley_ball(group_from_name("zd:2"), 5)
    words = ball_words(z2_small)
    for v in range(z2_small.n_vertices):
        assert words[v] == min(enumerate_geodesic_words(z2_small, v))
    report(6, "sphere laws 4*3^(n-1) (R=10) and 4n (R=20); spanning geodesic "
              "trees on 8 models (R=8); lex-min words verified exhaustively (R=5)")


def test_criterion_7_wait_and_surround():
    z2 = wait_and_surround(group_from_name("zd:2"), 1, Fraction(3, 2), 12)
    least = next(n for n in range(1, 50)
                 if math.floor(Fraction(3, 2) ** n) >= 4 * (n + 2))
    assert z2.trigger_round == least == 10
    assert z2.verdict.contained
    z = wait_and_surround(group_from_name("zd:1"), 1, Fraction(3, 2), 6)
    assert z.verdict.contained and z.trigger_round == 2
    f2 = wait_and_surround(group_from_name("free:2"), 1, 4, 11)
    computed = next(n for n in range(1, 50)
                    if 4 ** n >= 4 * 3 ** (n + 1))
    assert f2.trigger_round == computed == 9
    assert f2.verdict.contained
    report(7, "surround triggers at rounds 10 (Z^2), 2 (Z), 9 (free rank 2, "
              "rate 4 > growth 3); all simulate to containment")


def test_criterion_8_polynomial_budgets_refuted(free2_ball_12):
    tree = tree_export(free2_ball_12)  # built once: its compiled automaton is kept on it
    spheres = free2_ball_12.sphere_sizes()
    for degree in (1, 2, 3):
        budget = BudgetSequence.polynomial(1, degree)
        for depth in range(3, 13):
            assert not feasibility_check(tree, 2, budget, depth).feasible, \
                (degree, depth)
        for n in range(1, 12):
            assert sum(budget(i) for i in range(1, n + 1)) < spheres[n + 1]
    report(8, "budgets floor(n^d), d=1..3, infeasible on the rank-2 free "
              "tree at every depth <= 12; cumulative budget < |S(n+1)| throughout")


def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def test_criterion_9_reports_deterministic(tmp_path):
    (tmp_path / "binary.tree").write_text(
        "variant: periodic\nroot: A\nstates: A -> A A\n")
    (tmp_path / "ray5.tree").write_text("variant: explicit\nparents: 0 1 2 3 4\n")
    runs = [
        ["br", str(tmp_path / "binary.tree"), "--tol", "0.01"],
        ["contain", str(tmp_path / "binary.tree"), "--lambda", "3", "--k", "1"],
        ["contain", str(tmp_path / "binary.tree"), "--lambda", "1.5"],
        ["simulate", str(tmp_path / "binary.tree"), "--k", "1",
         "--budget", "exp:3", "--depth", "3",
         "--schedule", "2:7,8,9,10,11,12,13,14"],
        ["oracle", str(tmp_path / "ray5.tree"), "--k", "0", "--budget", "const:1"],
        ["cayley", "free:2", "--mode", "growth", "--R", "8"],
        ["cayley", "zd:2", "--mode", "surround", "--R", "12",
         "--lambda", "1.5", "--k", "1"],
        ["cayley", "free:2", "--mode", "polyprobe", "--R", "8", "--d", "2",
         "--k", "2"],
    ]
    for argv in runs:
        code1, out1 = _run_cli(argv)
        code2, out2 = _run_cli(argv)
        assert (code1, out1) == (code2, out2), argv
        assert out1
    report(9, f"{len(runs)} subcommand configurations, byte-identical reruns")
