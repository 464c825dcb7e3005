"""Command-line surface: subcommands, exit codes, report determinism.

Exit code contract: 0 determinate, 1 usage/parse error, 2 indeterminate
or a resource cap reached, 3 strategy fault.
"""

import ast
import dataclasses
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import firebreak
from firebreak import (BudgetSequence, ExplicitSpec, PeriodicSpec, ScheduleStrategy,
                       SymmetricSpec, expand, feasibility_check, format_tree_spec, max_flow,
                       min_cut_weight, parse_tree_spec, simulate, step)
from firebreak.cli import build_parser, emit_report, main, parse
from firebreak.game import state_from_fire
from firebreak.trees import Automaton
from conftest import random_periodic_spec

BINARY = "variant: periodic\nroot: A\nstates: A -> A A\n"
FIB = "variant: periodic\nroot: A\nstates: A -> A B ; B -> A\n"
RAY = "variant: periodic\nroot: A\nstates: A -> A\n"
RAY5 = "variant: explicit\nparents: 0 1 2 3 4\n"
# a 200-level cycle of 199 ones and a 5 after a 2: br = 5**(1/200), about 1.00808
C200 = "variant: symmetric\nlevels: 2 | " + "1 " * 199 + "5\n"
REDUCIBLE = "variant: periodic\nroot: A\nstates: A -> A B A ; B -> B B\n"
DATA = Path(__file__).parent / "data"


@pytest.fixture
def spec_dir(tmp_path):
    for name, text in [("binary.tree", BINARY), ("fib.tree", FIB),
                       ("ray.tree", RAY), ("ray5.tree", RAY5), ("c200.tree", C200)]:
        (tmp_path / name).write_text(text)
    return tmp_path


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def csv_rows(report: str, name: str) -> list[list[str]]:
    """The rows of a report's CSV block, header excluded."""
    block = report.split(f"csv {name}\n")[1].split("\ncsv ")[0]
    return [line.split(",") for line in block.splitlines()[1:]]


class TestBr:
    def test_binary_exact(self, spec_dir):
        code, out = run(["br", str(spec_dir / "binary.tree")])
        assert code == 0
        assert "result.br_exact = 2.0" in out

    def test_fib_bracket_contains_golden(self, spec_dir):
        code, out = run(["br", str(spec_dir / "fib.tree"), "--tol", "0.01"])
        assert code == 0
        lo = float(out.split("result.bracket_lo = ")[1].splitlines()[0])
        hi = float(out.split("result.bracket_hi = ")[1].splitlines()[0])
        assert lo <= 1.6180339887 <= hi

    def test_ray_exact_one(self, spec_dir):
        code, out = run(["br", str(spec_dir / "ray.tree")])
        assert code == 0
        assert "result.br_exact = 1.0" in out

    def test_parse_error_exits_one(self, tmp_path):
        bad = tmp_path / "bad.tree"
        bad.write_text("variant: periodic\nroot: A\nstates: A -> A\nwhat: no\n")
        code, _out = run(["br", str(bad)])
        assert code == 1

    def test_missing_file_exits_one(self):
        code, _out = run(["br", "/nonexistent/x.tree"])
        assert code == 1

    def test_bad_usage_exits_one(self, spec_dir):
        code, _out = run(["br", str(spec_dir / "binary.tree"), "--tol", "soon"])
        assert code == 1

    def test_cut_flow_table(self, spec_dir):
        code, out = run(["br", str(spec_dir / "binary.tree"),
                         "--lambda", "3", "--cut-depths", "3"])
        assert code == 0
        assert "csv cuts" in out
        assert "3,3,8/27,8/27" in out  # lambda, depth, min_cut, flow_value

    def test_fine_bracket_exits_zero(self, spec_dir):
        code, out = run(["br", str(spec_dir / "binary.tree"), "--tol", "1e-9"])
        assert code == 0
        assert "bracket_determinate" not in out and "result.note" not in out
        lo = float(out.split("result.bracket_lo = ")[1].splitlines()[0])
        hi = float(out.split("result.bracket_hi = ")[1].splitlines()[0])
        assert lo < 2 < hi and hi - lo <= 1e-9
        assert csv_rows(out, "probes")[-1] in ([repr(lo), "stabilises"], [repr(hi), "decays"])

    @pytest.mark.parametrize("argv, message", [
        (["--lambda", "3", "--cut-depths", "1001"],
         "--cut-depths 1001 is past CUT_DEPTHS_MAX = 1000"),
        (["--lambda", "3", "--cut-depths", "100000000"],
         "--cut-depths 100000000 is past CUT_DEPTHS_MAX = 1000"),
    ], ids=["just-past", "far-past"])
    def test_cut_depths_past_the_bound_exit_two(self, argv, message, spec_dir, capsys):
        code, out = run(["br", str(spec_dir / "binary.tree")] + argv)
        assert code == 2 and out == ""
        assert f"firebreak: {message}" in capsys.readouterr().err

    def test_weight_past_the_digit_limit_exits_two(self, spec_dir, capsys):
        # 123457**d has more than 4300 digits from d = 845 on
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out = run(["br", str(spec_dir / "ray.tree"), "--lambda", "123457/100000",
                             "--cut-depths", "1000"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 2 and out == ""
        assert ("firebreak: the min-cut weight at depth 845 has more than 4300 digits, "
                "past sys.get_int_max_str_digits() = 4300") in capsys.readouterr().err

    def test_report_fraction_past_the_digit_limit_exits_two(self, spec_dir, capsys):
        # a rate just above br on the 200-level cycle, with a 60-digit
        # numerator: its cut at depth 87 weighs a fraction of 5,134 digits,
        # more than 4300
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out = run(["contain", str(spec_dir / "c200.tree"), "--lambda",
                             "10081" + "0" * 54 + "1/1" + "0" * 59,
                             "--k", "1", "--D-max", "3000"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 2 and out == ""
        assert ("firebreak: a reported fraction has more than 4300 digits, "
                "past sys.get_int_max_str_digits() = 4300") in capsys.readouterr().err

    @pytest.mark.parametrize("argv, what", [
        (["cayley", "free:2", "--mode", "polyprobe", "--R", "7", "--k", "1", "--c", "1",
          "--d", "9000"], "number"),  # the budget table's cumulative budget 1**9000 + 2**9000
        (["simulate", "binary.tree", "--k", "1", "--budget", "exp:1e5000", "--depth", "4"],
         "budget"),  # the config line's budget text
        (["oracle", "small.tree", "--budget", "exp:1e5000"], "budget"),
    ], ids=["int-cell", "simulate-budget", "oracle-budget"])
    def test_numbers_past_the_digit_limit_exit_two(self, argv, what, spec_dir, capsys):
        # an int cell and a budget's text are guarded as a fraction cell is:
        # exit 2 naming the limit, nothing printed and no traceback
        (spec_dir / "small.tree").write_text("variant: explicit\nparents: 0 0 1 1 2 2\n")
        argv = [str(spec_dir / a) if a.endswith(".tree") else a for a in argv]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out = run(argv)
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (f"firebreak: a reported {what} has more than 4300 "
                                           "digits, past sys.get_int_max_str_digits() = 4300\n")

    def test_deep_simulate_stops_at_the_vertex_cap(self, spec_dir, capsys):
        # the level walk stops at level 23, the first past 10**7 vertices,
        # where it used to walk all 20,001 levels and fail to print their total
        t0 = time.perf_counter()
        code, out = run(["simulate", str(spec_dir / "binary.tree"), "--k", "1", "--budget",
                         "const:1", "--depth", "20000"])
        assert time.perf_counter() - t0 < 1
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            "firebreak: truncation to depth 20000 has 16777215 vertices by level 23, "
            "cap is 10000000 (FIREBREAK_VERTEX_CAP)\n")

    def test_cuts_table_builds_no_truncation(self, spec_dir, monkeypatch):
        # depth 8 has 511 vertices; the table reads the recursion instead
        monkeypatch.setenv("FIREBREAK_VERTEX_CAP", "10")
        code, out = run(["br", str(spec_dir / "binary.tree"),
                         "--lambda", "3", "--cut-depths", "8"])
        assert code == 0
        assert len(csv_rows(out, "cuts")) == 8

    @pytest.mark.parametrize("seed", range(6))
    def test_cuts_table_matches_the_references(self, seed, tmp_path):
        rng = random.Random(5000 + seed)
        spec = random_periodic_spec(rng)
        path = tmp_path / "random.tree"
        path.write_text(format_tree_spec(spec))
        for lam in (Fraction(1, 2), Fraction(3, 2), Fraction(7, 2)):
            code, out = run(["br", str(path), "--tol", "0.1",
                             "--lambda", str(lam), "--cut-depths", "6"])
            assert code == 0
            expected = []
            for depth in range(1, 7):
                trunc = expand(spec, depth)
                weight = min_cut_weight(trunc, lam)
                assert max_flow(trunc, lam).value == weight
                expected.append([str(lam), str(depth), str(weight), str(weight)])
            assert csv_rows(out, "cuts") == expected


    def test_long_cycle_bracket_reaches_adjacent_floats(self, spec_dir):
        t0 = time.perf_counter()
        code, out = run(["br", str(spec_dir / "c200.tree"), "--tol", "1e-300"])
        assert time.perf_counter() - t0 < 5
        assert code == 0
        lo = float(out.split("result.bracket_lo = ")[1].splitlines()[0])
        hi = float(out.split("result.bracket_hi = ")[1].splitlines()[0])
        assert math.nextafter(lo, math.inf) == hi
        assert Fraction(lo) ** 200 < 5 < Fraction(hi) ** 200


class TestContain:
    def test_above_threshold(self, spec_dir):
        code, out = run(["contain", str(spec_dir / "binary.tree"),
                         "--lambda", "3", "--k", "1"])
        assert code == 0
        assert "result.regime = above" in out
        assert "result.verdict = contained" in out
        assert "result.burnt = 7" in out
        assert "2,9,7 8 9 10 11 12 13 14" in out  # round, budget, protect set

    def test_above_threshold_runs_the_recursion_once(self, spec_dir, monkeypatch):
        # synthesis steps it to the cut depth, the min cutset reads those
        # steps and cut_weight sums the cut on integers
        import firebreak.branching
        real, calls = firebreak.branching._state_recursion, []
        monkeypatch.setattr(firebreak.branching, "_state_recursion",
                            lambda *args: calls.append(args[1:3]) or real(*args))
        code, out = run(["contain", str(spec_dir / "fib.tree"), "--lambda", "5/2", "--k", "2"])
        assert code == 0
        assert "result.regime = above" in out and "result.verdict = contained" in out
        assert calls == [(5, 2)]

    def test_below_threshold(self, spec_dir):
        code, out = run(["contain", str(spec_dir / "binary.tree"),
                         "--lambda", "1.5"])
        assert code == 0
        assert "result.regime = below" in out
        assert "result.certificate_mid_rate = 1.75" in out
        assert "result.certificate_valid = true" in out
        assert "result.all_probed_depths_infeasible = true" in out

    def test_at_threshold_undetermined(self, spec_dir):
        code, out = run(["contain", str(spec_dir / "binary.tree"),
                         "--lambda", "2"])
        assert code == 2
        assert "result.regime = undetermined" in out

    def test_ray_rate2(self, spec_dir):
        code, out = run(["contain", str(spec_dir / "ray.tree"),
                         "--lambda", "2", "--k", "0"])
        assert code == 0
        assert "result.verdict = contained" in out
        assert "result.verdict_round = 1" in out

    def test_cut_past_the_vertex_cap_exits_two(self, spec_dir, capsys):
        code, _out = run(["contain", str(spec_dir / "fib.tree"),
                          "--lambda", "33/20", "--k", "2"])
        assert code == 2
        assert "FIREBREAK_VERTEX_CAP" in capsys.readouterr().err

    def test_depth_max_does_not_size_the_weight_target(self, spec_dir):
        # epsilon's probe range stays at 120 powers whatever --D-max, so a
        # depth-3 cut under --D-max 10**7 costs what it does under 40
        argv = ["contain", str(spec_dir / "binary.tree"), "--lambda", "3", "--k", "1"]
        t0 = time.perf_counter()
        code, out = run([*argv, "--D-max", "10000000"])
        assert time.perf_counter() - t0 < 1
        assert (code, out.replace("config.depth_max = 10000000\n", "config.depth_max = 40\n")) \
            == run([*argv, "--D-max", "40"])
        assert "result.cut_depth = 3\n" in out

    def test_shallowest_fitting_cut_passes_under_the_vertex_cap(self, spec_dir):
        # fib at 17/10, k=2: its first min cut lighter than epsilon lies at
        # depth 33, past the vertex cap; the first that fits its rounds lies
        # at depth 16, in a truncation of 6,763 vertices
        code, out = run(["contain", str(spec_dir / "fib.tree"), "--lambda", "17/10", "--k", "2"])
        assert code == 0
        assert "result.cut_depth = 16\n" in out
        assert "result.verdict = contained\n" in out

    def test_certificate_check_builds_no_truncation(self, spec_dir, monkeypatch):
        # the check reads depths 1..8; depth 8 has 511 vertices
        monkeypatch.setenv("FIREBREAK_VERTEX_CAP", "100")
        code, out = run(["contain", str(spec_dir / "binary.tree"), "--lambda", "3/2"])
        assert code == 0
        assert "result.certificate_valid = true" in out

    def test_jordan_block_just_above_two_is_not_below(self, tmp_path, capsys):
        # br = 2 is a 2x2 Jordan block of A -> A B A ; B -> B B; a float
        # Perron root lands above 2 and would call 200001/100000 "below"
        path = tmp_path / "reducible.tree"
        path.write_text(REDUCIBLE)
        t0 = time.perf_counter()
        code, out = run(["contain", str(path), "--lambda", "200001/100000"])
        assert time.perf_counter() - t0 < 5
        assert code == 2
        assert "regime = below" not in out
        assert "depth 40" in capsys.readouterr().err

    def test_jordan_block_at_two_undetermined(self, tmp_path):
        path = tmp_path / "reducible.tree"
        path.write_text(REDUCIBLE)
        t0 = time.perf_counter()
        code, out = run(["contain", str(path), "--lambda", "2"])
        assert time.perf_counter() - t0 < 5
        assert code == 2
        assert "result.regime = undetermined" in out
        assert "result.br_exact = " in out and "result.bracket_lo = " in out

    def test_symmetric_spec_gets_a_certificate(self, tmp_path):
        path = tmp_path / "sym.tree"
        path.write_text("variant: symmetric\nlevels: 3 2 | 1 2\n")
        code, out = run(["contain", str(path), "--lambda", "13/10"])
        assert code == 0
        assert "result.regime = below" in out
        assert "result.certificate_valid = true" in out
        assert "result.all_probed_depths_infeasible = true" in out
        lo = float(out.split("result.bracket_lo = ")[1].splitlines()[0])
        hi = float(out.split("result.bracket_hi = ")[1].splitlines()[0])
        assert lo < 2 ** 0.5 < hi

    def test_certificate_radius_past_the_cap_exits_two(self, spec_dir, capsys):
        # the radius would be 455,788; the evidence loop never starts
        t0 = time.perf_counter()
        code, out = run(["contain", str(spec_dir / "binary.tree"), "--lambda", "19999/10000"])
        assert time.perf_counter() - t0 < 2
        assert code == 2 and not out
        assert "CERTIFICATE_RADIUS_MAX" in capsys.readouterr().err

    def test_certificate_radius_below_the_cap_decides(self, spec_dir):
        code, out = run(["contain", str(spec_dir / "binary.tree"), "--lambda", "1999/1000"])
        assert code == 0
        assert "result.certificate_radius = 36356" in out
        assert "result.all_probed_depths_infeasible = true" in out

    @pytest.mark.parametrize("depths", ["101", "100000"])
    def test_evidence_depths_past_the_bound_exit_two(self, depths, spec_dir, capsys,
                                                     monkeypatch):
        # refused before br_enclosure: no row, and no bracket, is computed
        import firebreak.branching
        monkeypatch.setattr(firebreak.branching, "br_enclosure", None)
        t0 = time.perf_counter()
        code, out = run(["contain", str(spec_dir / "binary.tree"), "--lambda", "3/2",
                         "--evidence-depths", depths])
        assert time.perf_counter() - t0 < 1
        assert code == 2 and out == ""
        assert (f"firebreak: --evidence-depths {depths} is past EVIDENCE_DEPTHS_MAX = 100"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("lam,message", [
        ("0", "rate must be positive"),
        ("-3/2", "rate must be positive"),
        ("1", "no finite budget coefficient exists at rate exactly 1"),
    ])
    def test_rates_without_a_certificate_are_refused_before_the_bracket(
            self, lam, message, spec_dir, capsys, monkeypatch):
        # a rate <= 0 is refused with the argument checks, and rate 1 below
        # br right after the exact comparison: no bracket is computed
        import firebreak.branching
        monkeypatch.setattr(firebreak.branching, "br_enclosure", None)
        t0 = time.perf_counter()
        code, out = run(["contain", str(spec_dir / "c200.tree"), f"--lambda={lam}"])
        assert time.perf_counter() - t0 < 1
        assert code == 1 and out == ""
        assert f"firebreak: {message}" in capsys.readouterr().err

    def test_rate_one_at_br_one_is_undetermined(self, spec_dir):
        code, out = run(["contain", str(spec_dir / "ray.tree"), "--lambda", "1"])
        assert code == 2
        assert "result.regime = undetermined" in out

    def test_long_cycle_below_br_gets_a_certificate(self, spec_dir):
        # the power iteration this replaced did not end here: a long cycle's
        # other roots are nearly as large as its Perron root
        t0 = time.perf_counter()
        code, out = run(["contain", str(spec_dir / "c200.tree"), "--lambda", "201/200"])
        assert time.perf_counter() - t0 < 5
        assert code == 0
        assert "result.regime = below" in out
        assert "result.certificate_valid = true" in out
        assert "result.certificate_radius = 8165" in out
        assert "result.all_probed_depths_infeasible = true" in out

    def test_rate_within_the_proposal_resolution_exits_two(self, spec_dir, capsys):
        # F(52)/F(51) lies about 1e-21 below the golden ratio, far inside the
        # Collatz-Wielandt bounds of a vector rounded at 2**48
        t0 = time.perf_counter()
        code, out = run(["contain", str(spec_dir / "fib.tree"),
                         "--lambda", "32951280099/20365011074"])
        assert time.perf_counter() - t0 < 1
        assert code == 2 and out == ""
        assert "PROPOSAL_SCALE = 2**48" in capsys.readouterr().err

    def test_evidence_depths_at_the_bound_decide(self, spec_dir):
        code, out = run(["contain", str(spec_dir / "binary.tree"), "--lambda", "3/2",
                         "--evidence-depths", "100"])
        assert code == 0
        assert len(csv_rows(out, "feasibility_evidence")) == 100
        assert "result.all_probed_depths_infeasible = true" in out

    def test_evidence_rows_walk_the_ball_once(self, spec_dir, monkeypatch):
        # the state counts at the certificate radius are walked once for
        # all eight rows, not once per row
        real, levels = Automaton.iter_state_counts, []

        def counted(auto, counts=None):
            for level in real(auto, counts):
                levels.append(1)
                yield level

        monkeypatch.setattr(Automaton, "iter_state_counts", counted)
        code, out = run(["contain", str(spec_dir / "binary.tree"), "--lambda", "1999/1000"])
        assert code == 0
        assert "result.certificate_radius = 36356" in out
        assert 36356 < len(levels) < 2 * 36356

    def test_evidence_rows_make_few_full_decisions(self, spec_dir, monkeypatch):
        # feasibility is monotone in the depth: below br the deepest row
        # decides all 100, and only a feasible one is bisected
        import firebreak.game as game_mod
        real, calls = game_mod._feasibility_counts, []
        monkeypatch.setattr(game_mod, "_feasibility_counts",
                            lambda *args: calls.append(args[3]) or real(*args))
        code, out = run(["contain", str(spec_dir / "binary.tree"), "--lambda", "3/2",
                         "--evidence-depths", "100"])
        assert code == 0
        assert len(csv_rows(out, "feasibility_evidence")) == 100
        assert "result.all_probed_depths_infeasible = true" in out
        assert 1 <= len(calls) <= math.ceil(math.log2(100)) + 1

    def test_long_period_symmetric_certificate_is_quick(self, tmp_path):
        # period 20 with br = 5**(1/20) ~ 1.0838: radius 5,654 at 27/25
        path = tmp_path / "period20.tree"
        path.write_text("variant: symmetric\nlevels: 2 | " + "1 " * 19 + "5\n")
        t0 = time.perf_counter()
        code, out = run(["contain", str(path), "--lambda", "27/25"])
        assert time.perf_counter() - t0 < 5
        assert code == 0
        assert "result.certificate_radius = 5654" in out
        assert "result.certificate_valid = true" in out

    def test_rate_within_1e_310_of_br_exits_two(self, spec_dir, capsys):
        # rate - 2 underflows a float; the radius estimate does not overflow
        code, out = run(["contain", str(spec_dir / "binary.tree"),
                         "--lambda", "1." + "9" * 310])
        assert code == 2 and not out
        assert "CERTIFICATE_RADIUS_MAX" in capsys.readouterr().err

    def test_rate_1e_minus_400_decides(self, spec_dir):
        # every budget is 0; the rate is no float but a positive rational
        code, out = run(["contain", str(spec_dir / "binary.tree"),
                         "--lambda", "1/1" + "0" * 400])
        assert code == 0
        assert "result.regime = below" in out
        assert "result.certificate_valid = true" in out
        assert "result.all_probed_depths_infeasible = true" in out

    def test_fib_below_threshold_evidence_is_quick(self, spec_dir):
        # every evidence depth is decided on live counts per (level, state);
        # the profile program it replaced gave no result within 60 s here
        t0 = time.perf_counter()
        code, out = run(["contain", str(spec_dir / "fib.tree"), "--lambda", "3/2"])
        assert time.perf_counter() - t0 < 2
        assert code == 0
        assert "result.certificate_radius = 114" in out
        rows = csv_rows(out, "feasibility_evidence")
        assert [r[0] for r in rows] == [str(d) for d in range(115, 123)]
        assert all(r[1] == "infeasible" for r in rows)

    def test_wide_tree_below_threshold(self, tmp_path):
        # the depth-6 truncation of a 20-ary tree passes the default cap
        path = tmp_path / "wide.tree"
        path.write_text("variant: periodic\nroot: A\nstates: A -> " + " ".join(["A"] * 20) + "\n")
        code, out = run(["contain", str(path), "--lambda", "10"])
        assert code == 0
        assert "result.regime = below" in out
        assert "result.certificate_valid = true" in out


class TestSimulate:
    def test_canonical_contained(self, spec_dir):
        code, out = run(["simulate", str(spec_dir / "ray.tree"), "--k", "0",
                         "--budget", "const:1", "--depth", "5",
                         "--protect", "1"])
        assert code == 0
        assert "result.verdict = contained" in out

    def test_no_strategy_indeterminate(self, spec_dir):
        code, out = run(["simulate", str(spec_dir / "binary.tree"), "--k", "0",
                         "--budget", "const:0", "--depth", "4"])
        assert code == 2
        assert "result.verdict = boundary_reached" in out

    def test_fault_exits_three(self, spec_dir):
        code, _out = run(["simulate", str(spec_dir / "binary.tree"), "--k", "0",
                          "--budget", "const:1", "--depth", "4",
                          "--schedule", "1:1,2"])
        assert code == 3

    def test_trace_roundtrip_via_replay(self, spec_dir, tmp_path):
        trace = tmp_path / "run.trace"
        code, _out = run(["simulate", str(spec_dir / "binary.tree"), "--k", "1",
                          "--budget", "exp:3", "--depth", "3",
                          "--schedule", "2:7,8,9,10,11,12,13,14",
                          "--trace-out", str(trace)])
        assert code == 0
        code, out = run(["simulate", str(spec_dir / "binary.tree"), "--k", "1",
                         "--budget", "exp:3", "--depth", "3",
                         "--replay", str(trace)])
        assert code == 0
        assert "result.replay_match = true" in out

    def test_replay_skips_blank_lines_and_flags_a_verdict_that_differs(self, spec_dir, tmp_path):
        argv = ["simulate", str(spec_dir / "binary.tree"), "--k", "1", "--budget", "exp:3",
                "--depth", "3"]
        trace = tmp_path / "run.trace"
        code, _out = run(argv + ["--schedule", "2:7,8,9,10,11,12,13,14", "--trace-out", str(trace)])
        assert code == 0
        text = trace.read_text()
        assert text.endswith("verdict contained | round 2 | burnt 7\n")
        spaced = tmp_path / "spaced.trace"
        spaced.write_text("\n" + text.replace("\n", "\n  \n"))
        code, out = run(argv + ["--replay", str(spaced)])
        assert code == 0 and "result.replay_match = true" in out
        for claim in ("verdict contained | round 2 | burnt 8",
                      "verdict contained | round 3 | burnt 7",
                      "verdict boundary_reached | round 2 | burnt 7", ""):
            claimed = tmp_path / "claimed.trace"
            claimed.write_text(text.replace("verdict contained | round 2 | burnt 7", claim))
            code, out = run(argv + ["--replay", str(claimed)])
            assert code == 2, claim
            assert "result.replay_match = false" in out and "result.verdict = contained" in out

    def test_vertex_cap_exits_two_naming_the_cap(self, spec_dir, monkeypatch, capsys):
        monkeypatch.setenv("FIREBREAK_VERTEX_CAP", "10")
        code, _out = run(["simulate", str(spec_dir / "binary.tree"), "--k", "0",
                          "--budget", "const:1", "--depth", "8"])
        assert code == 2
        assert "FIREBREAK_VERTEX_CAP" in capsys.readouterr().err

    def test_vertex_cap_past_the_digit_limit_exits_two(self, spec_dir, monkeypatch, capsys):
        # named as the other digit-limit paths name theirs; the 5,001 digits are not echoed
        monkeypatch.setenv("FIREBREAK_VERTEX_CAP", "1" + "0" * 5000)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out = run(["simulate", str(spec_dir / "binary.tree"), "--k", "1",
                             "--budget", "const:1", "--depth", "3"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == ("firebreak: FIREBREAK_VERTEX_CAP has more than 4300 "
                                           "digits, past sys.get_int_max_str_digits() = 4300\n")


class TestRejectedInput:
    @pytest.mark.parametrize("argv", [
        ["simulate", "{d}/binary.tree", "--k", "0", "--budget", "const:1",
         "--depth", "4", "--protect", "1,x"],
        ["simulate", "{d}/binary.tree", "--k", "0", "--budget", "const:1",
         "--depth", "4", "--schedule", "1:2;x"],
        ["oracle", "{d}/ray5.tree", "--budget", "const:1", "--x0", "0,y"],
    ], ids=["protect", "schedule", "x0"])
    def test_malformed_ids_exit_one(self, argv, spec_dir, capsys):
        code, _out = run([a.format(d=spec_dir) for a in argv])
        assert code == 1
        assert "firebreak: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "{d}/binary.tree", "--budget", "const:1", "--depth", "4"],
        ["oracle", "{d}/ray5.tree", "--budget", "const:1"],
        ["cayley", "zd:2", "--mode", "polyprobe", "--R", "4"],
        ["contain", "{d}/binary.tree", "--lambda", "3"],
        ["contain", "{d}/binary.tree", "--lambda", "3/2"],
    ], ids=["simulate", "oracle", "polyprobe", "contain-above", "contain-below"])
    def test_negative_radius_exits_one(self, argv, spec_dir, capsys):
        code, _out = run([a.format(d=spec_dir) for a in argv] + ["--k", "-1"])
        assert code == 1
        assert "initial radius must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("budget, message", [
        ("const:-1", "budget must be non-negative"),
        ("exp:0", "budget rate must be positive"),
        ("poly:1,-1", "polynomial budget needs coeff >= 0 and degree >= 0"),
        ("list:1,-2", "budgets must be non-negative"),
    ])
    def test_budget_refusals_give_their_reason(self, budget, message, spec_dir, capsys):
        code, out = run(["simulate", str(spec_dir / "binary.tree"), "--k", "0", "--budget", budget,
                         "--depth", "3"])
        assert code == 1 and out == ""
        assert capsys.readouterr().err.strip() == f"firebreak: {message}"

    @pytest.mark.parametrize("argv, message", [
        (["cayley", "zd:2", "--mode", "surround", "--R", "5"],
         "--lambda is required for mode surround"),
        (["cayley", "zd:2", "--mode", "polyprobe", "--R", "3", "--c", "x"],
         "--c: 'x' is not a rational number"),
        (["contain", "{d}/binary.tree", "--lambda", "3/2", "--evidence-depths", "0"],
         "--evidence-depths must be >= 1"),
        (["contain", "{d}/binary.tree", "--lambda", "3/2", "--evidence-depths", "-2"],
         "--evidence-depths must be >= 1"),
        (["br", "{d}/binary.tree", "--lambda", "3", "--cut-depths", "0"],
         "--cut-depths must be >= 1"),
        (["br", "{d}/binary.tree", "--lambda", "3", "--cut-depths", "-1"],
         "--cut-depths must be >= 1"),
        (["br", "{d}/binary.tree", "--D-max", "0"],
         "error: unrecognized arguments: --D-max 0"),
        (["br", "{d}/fib.tree", "--tol", "nan"], "tol must be positive"),
        (["br", "{d}/ray5.tree", "--tol", "nan"], "tol must be positive"),
        (["br", "{d}/ray5.tree", "--tol", "-1"], "tol must be positive"),
        (["simulate", "{d}/binary.tree", "--k", "0", "--budget", "const:1",
          "--depth", "3", "--horizon", "-1"], "horizon must be >= 0"),
        (["oracle", "{d}/ray5.tree", "--budget", "const:1", "--horizon", "-1"],
         "horizon must be >= 0"),
        (["oracle", "{d}/ray5.tree", "--budget", "const:1", "--x0", ","],
         "--x0: ',' names no vertex"),
        (["oracle", "{d}/ray5.tree", "--budget", "const:1", "--x0", ""],
         "--x0: '' names no vertex"),
        (["contain", "{d}/ray5.tree", "--lambda", "3"], "contain needs an infinite tree spec"),
        (["simulate", "{d}/binary.tree", "--k", "0", "--budget", "const:1", "--depth", "3",
          "--protect", "1,15"], "vertex 15 is outside the depth-3 truncation"),
        (["simulate", "{d}/binary.tree", "--k", "0", "--budget", "const:1", "--depth", "3",
          "--protect", ","], "--protect: ',' names no vertex"),
        (["simulate", "{d}/binary.tree", "--k", "0", "--budget", "const:1", "--depth", "3",
          "--protect", ""], "--protect: '' names no vertex"),
        (["simulate", "{d}/binary.tree", "--k", "0", "--budget", "const:1", "--depth", "3",
          "--schedule", ""], "--schedule: '' is not an integer"),
        (["simulate", "{d}/binary.tree", "--k", "0", "--budget", "const:1", "--depth", "3",
          "--replay", ""], "--replay: cannot read '' (No such file or directory)"),
        (["cayley", "free:2", "--mode", "tree", "--R", "3", "--out", "{d}/no/x.tree"],
         "--out: cannot write '{d}/no/x.tree' (No such file or directory)"),
        (["cayley", "free:2", "--mode", "growth", "--R", "3", "--out", "{d}/no/r.txt"],
         "--out: cannot write '{d}/no/r.txt' (No such file or directory)"),
        (["cayley", "free:2", "--mode", "growth", "--R", "3", "--metrics", "{d}/no/m.json"],
         "--metrics: cannot write '{d}/no/m.json' (No such file or directory)"),
        (["simulate", "{d}/binary.tree", "--k", "0", "--budget", "const:1", "--depth", "3",
          "--trace-out", "{d}/no/t.trace"],
         "--trace-out: cannot write '{d}/no/t.trace' (No such file or directory)"),
        (["oracle", "{d}/ray5.tree", "--budget", "const:1", "--cache", "{d}/no/o.cache"],
         "--cache: cannot write '{d}/no/o.cache' (No such file or directory)"),
    ], ids=["surround-no-lambda", "polyprobe-bad-c", "evidence-depths-0",
            "evidence-depths-negative", "cut-depths-0", "cut-depths-negative",
            "br-depth-max-0", "br-tol-nan", "br-finite-tol-nan", "br-finite-tol-negative",
            "simulate-negative-horizon",
            "oracle-negative-horizon", "oracle-x0-comma", "oracle-x0-empty",
            "contain-finite-spec", "simulate-protect-outside", "simulate-protect-comma",
            "simulate-protect-empty", "simulate-schedule-empty", "simulate-replay-empty",
            "tree-out-no-dir", "growth-out-no-dir", "metrics-no-dir", "trace-out-no-dir",
            "cache-no-dir"])
    def test_bad_option_exits_one(self, argv, message, spec_dir, capsys):
        code, out = run([a.format(d=spec_dir) for a in argv])
        assert code == 1 and out == ""
        assert f"firebreak: {message.format(d=spec_dir)}" in capsys.readouterr().err

    def test_unwritable_out_prints_no_report(self, spec_dir, capsys):
        code, out = run(["cayley", "free:2", "--mode", "growth", "--R", "3",
                         "--out", str(spec_dir / "no" / "r.txt")])
        assert code == 1 and out == ""
        assert "--out: cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("module, stub, argv", [
        ("cayley", "growth_rate_estimate",
         ["cayley", "free:2", "--mode", "growth", "--R", "3", "--metrics", "{d}/no/m.json"]),
        ("oracle", "brute_force_containment",
         ["oracle", "{d}/ray5.tree", "--budget", "const:1", "--cache", "{d}/no/o.cache"]),
    ], ids=["metrics", "cache"])
    def test_unwritable_file_costs_no_run(self, module, stub, argv, spec_dir, monkeypatch, capsys):
        def no_run(*_a, **_kw):
            raise AssertionError(f"{stub} ran before its file was opened")
        monkeypatch.setattr(f"firebreak.{module}.{stub}", no_run)
        code, out = run([a.format(d=spec_dir) for a in argv])
        assert code == 1 and out == ""
        assert f"{argv[-2]}: cannot write" in capsys.readouterr().err

    def test_tree_without_out_exits_before_building(self, monkeypatch, capsys):
        import firebreak.cayley
        def no_ball(*_a):
            raise AssertionError("the ball was built before --out was checked")
        monkeypatch.setattr(firebreak.cayley, "lex_min_tree", no_ball)
        code, _out = run(["cayley", "free:2", "--mode", "tree", "--R", "10"])
        assert code == 1
        assert "--out is required for mode tree" in capsys.readouterr().err

    def test_malformed_replay_trace_names_file_and_line(self, spec_dir, capsys):
        trace = spec_dir / "bad.trace"
        trace.write_text("round 1 | protect - | burn 1 2\nround x | protect 1 | burn 2\n")
        code, _out = run(["simulate", str(spec_dir / "binary.tree"), "--k", "0",
                          "--budget", "const:1", "--depth", "4", "--replay", str(trace)])
        assert code == 1
        assert f"firebreak: {trace}: line 2: malformed trace line" in capsys.readouterr().err

    @pytest.mark.parametrize("schedule, message", [
        ("1:1;1:2", "round 1 is given twice"),
        ("2:1;3:2;2:3", "round 2 is given twice"),
        ("0:1", "round 0 is never played; rounds start at 1"),
        ("-2:1", "round -2 is never played; rounds start at 1"),
    ], ids=["repeated", "repeated-later", "zero", "negative"])
    def test_unplayable_schedule_round_exits_one(self, schedule, message, spec_dir, capsys):
        code, _out = run(["simulate", str(spec_dir / "binary.tree"), "--k", "0",
                          "--budget", "const:1", "--depth", "4", f"--schedule={schedule}"])
        assert code == 1
        assert f"firebreak: --schedule: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("round 1 | protect 1 | burn 2\nround 1 | protect 2 | burn -\n",
         "line 2: round 1 is given twice"),
        ("round 0 | protect 1 | burn 2\n", "line 1: round 0 is never played"),
    ], ids=["repeated", "zero"])
    def test_unplayable_replay_round_names_file_and_line(self, text, message, spec_dir, capsys):
        trace = spec_dir / "bad.trace"
        trace.write_text(text)
        code, _out = run(["simulate", str(spec_dir / "binary.tree"), "--k", "0",
                          "--budget", "const:1", "--depth", "4", "--replay", str(trace)])
        assert code == 1
        assert f"firebreak: {trace}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["nospace", "abc feasible 1:x", "abc maybe",
                                       "abc feasible 2:1", "abc feasible x:1",
                                       "abc feasible 1:1;1:2", "abc feasible 1:",
                                       "abc feasible 1:1,,2", "abc maybe 1:1",
                                       "abc feasible 1:-;02:3"])
    def test_malformed_cache_names_file_and_line(self, entry, spec_dir, capsys):
        cache = spec_dir / "o.cache"
        cache.write_text("\n" + entry + "\n")
        code, _out = run(["oracle", str(spec_dir / "ray5.tree"), "--budget", "const:1",
                          "--cache", str(cache)])
        assert code == 1
        assert f"firebreak: {cache}: line 2: malformed cache entry" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["br", "{d}"], "{d}"),
        (["br", "{d}/binary.tree", "--out", "{d}"], "{d}"),
        (["cayley", "free:2", "--mode", "tree", "--R", "2", "--out", "{d}"], "{d}"),
        (["simulate", "{d}/binary.tree", "--k", "0", "--budget", "const:1", "--depth", "3",
          "--trace-out", "{d}"], "{d}"),
        (["simulate", "{d}/binary.tree", "--k", "0", "--budget", "const:1", "--depth", "3",
          "--replay", "{d}"], "{d}"),
        (["oracle", "{d}/ray5.tree", "--budget", "const:1", "--cache", "{d}"], "{d}"),
        (["br", "{d}/binary.tree", "--metrics", "{d}"], "{d}"),
        (["cayley", "free:2", "--mode", "growth", "--R", "3", "--metrics", "{d}/no/m.json"],
         "{d}/no/m.json"),
        (["br", "{d}/latin1.tree"], "{d}/latin1.tree: not UTF-8 text"),
        (["simulate", "{d}/binary.tree", "--k", "0", "--budget", "const:1", "--depth", "3",
          "--replay", "{d}/latin1.trace"], "{d}/latin1.trace: not UTF-8 text"),
        (["oracle", "{d}/ray5.tree", "--budget", "const:1", "--cache", "{d}/latin1.cache"],
         "{d}/latin1.cache: not UTF-8 text"),
    ], ids=["spec-dir", "out-dir", "tree-out-dir", "trace-out-dir", "replay-dir", "cache-dir",
            "metrics-dir", "metrics-no-dir", "spec-latin1", "replay-latin1", "cache-latin1"])
    def test_unreadable_or_unwritable_file_exits_one(self, argv, named, spec_dir, capsys):
        (spec_dir / "latin1.tree").write_bytes(b"variant: periodic\nroot: \xe9\n")
        (spec_dir / "latin1.trace").write_bytes(b"round 1 | protect \xff | burn -\n")
        (spec_dir / "latin1.cache").write_bytes(b"\xff feasible 1:-\n")
        code, _out = run([a.format(d=spec_dir) for a in argv])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("firebreak: ") and named.format(d=spec_dir) in err

    @pytest.mark.parametrize("strategies", [
        ["--protect", "1", "--schedule", "1:2"],
        ["--protect", "1", "--replay", "{d}/any.trace"],
        ["--schedule", "1:2", "--replay", "{d}/any.trace"],
    ], ids=["protect-schedule", "protect-replay", "schedule-replay"])
    def test_two_strategies_exit_one(self, strategies, spec_dir, capsys):
        code, out = run(["simulate", str(spec_dir / "binary.tree"), "--k", "0", "--budget",
                         "const:1", "--depth", "3"] + [a.format(d=spec_dir) for a in strategies])
        assert code == 1 and not out
        assert "not allowed with argument" in capsys.readouterr().err

    def test_depth_max_not_above_radius_exits_one(self, spec_dir, capsys):
        # above br, below it (fib at 3/2) and at it (binary at 2): refused with the argument checks
        for argv in (["binary.tree", "--lambda", "3", "--k", "2", "--D-max", "2"],
                     ["fib.tree", "--lambda", "3/2", "--D-max", "-1"],
                     ["binary.tree", "--lambda", "2", "--k", "0", "--D-max", "0"]):
            code, out = run(["contain", str(spec_dir / argv[0]), *argv[1:]])
            assert code == 1 and out == "", argv
            assert "depth_max must exceed the initial radius" in capsys.readouterr().err


class TestOracle:
    def test_ray_feasible(self, spec_dir):
        code, out = run(["oracle", str(spec_dir / "ray5.tree"), "--k", "0",
                         "--budget", "const:1"])
        assert code == 0
        assert "result.feasible = true" in out

    def test_cache_hit_on_second_run(self, spec_dir, tmp_path):
        cache = tmp_path / "o.cache"
        argv = ["oracle", str(spec_dir / "ray5.tree"), "--k", "0",
                "--budget", "const:1", "--cache", str(cache)]
        _code, first = run(argv)
        assert "result.cache_hit = false" in first
        _code, second = run(argv)
        assert "result.cache_hit = true" in second

    def test_cache_keys_on_the_depth(self, tmp_path):
        # one guard a round cannot hold the depth-1 truncation of this tree
        # but holds the depth-2 one: a cached depth-1 answer is not reused
        spec = tmp_path / "t.tree"
        spec.write_text("variant: explicit\nparents: 0 0 2\n")
        argv = ["oracle", str(spec), "--budget", "const:1", "--cache", str(tmp_path / "o.cache")]
        _code, shallow = run(argv + ["--depth", "1"])
        assert "result.feasible = false" in shallow
        for hit in ("false", "true"):
            _code, deep = run(argv + ["--depth", "2"])
            assert f"result.cache_hit = {hit}" in deep and "result.feasible = true" in deep

    @pytest.mark.parametrize("depth, unfolds", [(None, 1), (3, 1), (5, 1), (2, 2)])
    def test_cache_key_reads_the_searched_truncation(self, depth, unfolds, tmp_path, monkeypatch):
        # at or past the tree's height (3) the key's spec text is the
        # truncation's parents, so the tree unfolds once; the key is the same
        from firebreak import trees
        from firebreak.oracle import oracle_key

        spec = tmp_path / "t.tree"
        spec.write_text("variant: explicit\nparents: 0 0 1 1 2 2 3 4 5 6\n")
        calls = []
        unfold = trees.unfold
        monkeypatch.setattr(trees, "unfold", lambda *a: calls.append(a) or unfold(*a))
        argv = ["oracle", str(spec), "--budget", "const:1", "--cache", str(tmp_path / "o.cache")]
        assert run(argv + ([] if depth is None else ["--depth", str(depth)]))[0] == 0
        assert len(calls) == unfolds
        key = oracle_key(format_tree_spec(parse_tree_spec(spec.read_text())),
                         3 if depth is None else depth, [0], BudgetSequence.parse("const:1"),
                         None, restrict=True)
        assert (tmp_path / "o.cache").read_text().split()[0] == key

    def test_periodic_spec_rejected(self, spec_dir):
        code, _out = run(["oracle", str(spec_dir / "binary.tree"),
                          "--k", "0", "--budget", "const:1"])
        assert code == 1

    def test_vertex_ids_are_level_major(self, tmp_path):
        # parents 0 1 0: the file's vertex 2 is at level 2 and its vertex 3
        # at level 1, so the truncation numbers them 3 and 2, and --x0 2
        # burns the level-1 leaf, which protecting the root contains
        spec = tmp_path / "t.tree"
        spec.write_text("variant: explicit\nparents: 0 1 0\n")
        assert list(expand(parse_tree_spec(spec.read_text()), 2).parent) == [-1, 0, 0, 1]
        code, out = run(["oracle", str(spec), "--budget", "const:1", "--x0", "2"])
        assert code == 0 and "result.feasible = true" in out
        assert csv_rows(out, "witness") == [["1", "0"]]
        _code, out = run(["oracle", str(spec), "--budget", "const:1", "--x0", "3"])
        assert "result.feasible = false" in out  # the level-2 leaf is on the boundary


class TestCayley:
    def test_growth(self):
        code, out = run(["cayley", "free:2", "--mode", "growth", "--R", "8"])
        assert code == 0
        assert "result.sphere_ratio = 3.0" in out

    def test_surround(self):
        code, out = run(["cayley", "zd:2", "--mode", "surround", "--R", "12",
                         "--lambda", "1.5", "--k", "1"])
        assert code == 0
        assert "result.trigger_round = 10" in out
        assert "result.verdict = contained" in out

    def test_surround_on_a_large_ball(self):
        # the ball out to the protected sphere has 354,293 vertices
        code, out = run(["cayley", "free:2", "--mode", "surround", "--R", "11",
                         "--lambda", "4", "--k", "1"])
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("result.")] == [
            "result.burnt = 118097", "result.sphere_index = 11",
            "result.sphere_size = 236196", "result.trigger_round = 9",
            "result.verdict = contained", "result.verdict_round = 10"]

    def test_surround_cap_exhausted(self):
        code, out = run(["cayley", "free:2", "--mode", "surround", "--R", "7",
                         "--lambda", "2.5", "--k", "1"])
        assert code == 2
        assert "result.regime = cap_exhausted" in out

    def test_ball_cap_decided_before_building(self, monkeypatch, capsys):
        import firebreak.cayley as cayley_mod

        def no_ball(*_args, **_kw):
            raise AssertionError("a ball was built")

        monkeypatch.setattr(cayley_mod, "ball", no_ball)
        t0 = time.perf_counter()
        code, out = run(["cayley", "free:2", "--mode", "growth", "--R", "13"])
        assert time.perf_counter() - t0 < 1
        assert code == 2 and not out
        assert ("ball of radius 13 has 3188645 elements, the ball cap is 2000000"
                in capsys.readouterr().err)

    def test_polyprobe(self):
        code, out = run(["cayley", "free:2", "--mode", "polyprobe", "--R", "8",
                         "--d", "2", "--k", "2"])
        assert code == 0
        assert "result.feasible = false" in out
        # the transfer from the spanning tree to the ball is proven; only
        # the step to the whole Cayley graph stays evidence
        assert ("result.note = finite-depth probe on the spanning tree: infeasible rules out "
                "containment within the radius-8 ball (proven by subgraph monotonicity); for "
                "the whole Cayley graph it is evidence only\n") in out

    def test_polyprobe_on_a_lex_min_tree_that_is_not_level_regular(self):
        t0 = time.perf_counter()
        code, out = run(["cayley", "zd:3", "--mode", "polyprobe", "--R", "7",
                         "--k", "1", "--c", "2", "--d", "2"])
        assert time.perf_counter() - t0 < 2
        assert code == 0
        assert "result.feasible = true" in out

    def test_feasibility_work_cap_exits_two_naming_it(self, monkeypatch, capsys):
        # the acceptor of freeprod:2,3 has incomparable subtrees from height
        # 2 on, so the count recursion runs above them
        import firebreak.game as game_mod
        monkeypatch.setattr(game_mod, "FEASIBILITY_WORK_MAX", 5)  # this probe tries 6
        code, out = run(["cayley", "freeprod:2,3", "--mode", "polyprobe", "--R", "9",
                         "--k", "1", "--c", "2", "--d", "2"])
        assert code == 2 and not out
        assert "FEASIBILITY_WORK_MAX" in capsys.readouterr().err

    def test_tree_export_feeds_br(self, tmp_path):
        out_file = tmp_path / "free2.tree"
        code, _out = run(["cayley", "free:2", "--mode", "tree", "--R", "5",
                          "--out", str(out_file)])
        assert code == 0
        code, out = run(["br", str(out_file)])
        assert code == 0
        assert "result.br_exact = 1.0" in out  # exported trees are finite

    @pytest.mark.parametrize("group, radius, golden", [
        ("freeprod:2,3", "5", "cayley_freeprod_2_3_R5.tree"),
        ("zd:2", "4", "cayley_zd_2_R4.tree"),
    ])
    def test_tree_export_matches_golden(self, group, radius, golden, tmp_path):
        out_file = tmp_path / golden
        code, _out = run(["cayley", group, "--mode", "tree", "--R", radius,
                          "--out", str(out_file)])
        assert code == 0
        assert out_file.read_bytes() == (DATA / golden).read_bytes()

    def test_unknown_group(self):
        code, _out = run(["cayley", "so3", "--mode", "growth", "--R", "4"])
        assert code == 1

    @pytest.mark.parametrize("radius, words, parents", [
        (0, ["id"], "parents:\n"),
        (1, ["id", "a", "A", "b", "B"], "parents: 0 0 0 0\n")])
    def test_smallest_tree_exports_keep_their_bytes(self, radius, words, parents, tmp_path):
        # a ball of radius 0 is its outer sphere alone, and one of radius 1
        # the root and its sphere: the report and the export, byte for byte
        out_file = tmp_path / "ball.tree"
        code, out = run(["cayley", "free:2", "--mode", "tree", "--R", str(radius),
                         "--out", str(out_file)])
        assert code == 0
        assert out == (f"config.R = {radius}\nconfig.command = cayley\nconfig.group = free:2\n"
                       "config.mode = tree\nconfig.version = 0.1.0\n"
                       f"result.level_counts = {' '.join(['1', '4'][:radius + 1])}\n"
                       f"result.out = {out_file}\nresult.vertices = {len(words)}\n")
        assert out_file.read_text() == "".join(
            f"# vertex {v} = {w}\n" for v, w in enumerate(words)) + "variant: explicit\n" + parents

    def test_smallest_surround_keeps_its_bytes(self):
        code, out = run(["cayley", "zd:1", "--mode", "surround", "--R", "2", "--lambda", "3",
                         "--k", "0"])
        assert code == 0
        assert out == ("config.R = 2\nconfig.command = cayley\nconfig.group = zd:1\n"
                       "config.k = 0\nconfig.lambda = 3\nconfig.mode = surround\n"
                       "config.version = 0.1.0\nresult.burnt = 3\nresult.sphere_index = 2\n"
                       "result.sphere_size = 2\nresult.trigger_round = 1\n"
                       "result.verdict = contained\nresult.verdict_round = 2\n"
                       "csv budget_vs_sphere\nround,budget,sphere\n1,3,2\n")


SRC = os.path.dirname(os.path.dirname(firebreak.__file__))

# runs that build no array: br, contain below br and at it (exit 2,
# undetermined), cayley growth, polyprobe and a contained surround, whose
# fire fills whole levels, and a usage error (exit 1)
NO_ARRAY_RUNS = [
    ["br", "binary.tree"],
    ["br", "fib.tree", "--lambda", "3/2"],
    ["contain", "fib.tree", "--lambda", "3/2"],
    ["contain", "c200.tree", "--lambda", "201/200"],
    ["contain", "binary.tree", "--lambda", "2"],
    ["contain", "jordan.tree", "--lambda", "2"],
    ["cayley", "free:2", "--mode", "growth", "--R", "6"],
    ["cayley", "free:2", "--mode", "polyprobe", "--R", "7", "--k", "1", "--c", "3", "--d", "2"],
    ["cayley", "zd:2", "--mode", "surround", "--R", "6", "--lambda", "3", "--k", "1"],
    ["br"],
]


def cli_process(argv, cwd, path=SRC) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr bytes of ``python -m firebreak.cli`` in a fresh process."""
    done = subprocess.run([sys.executable, "-m", "firebreak.cli", *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


SMALL = "variant: explicit\nparents: 0 0 1 1 2 2 3 4 5 6\n"
# one run of each command, contain below and above br, and each cayley mode
EVERY_COMMAND = [
    ["br", "fib.tree", "--lambda", "3/2"],
    ["contain", "fib.tree", "--lambda", "3/2"],
    ["contain", "fib.tree", "--lambda", "17/10", "--k", "1"],
    ["simulate", "small.tree", "--k", "0", "--budget", "const:1", "--depth", "4",
     "--schedule", "1:1;2:5;3:10"],
    ["oracle", "small.tree", "--budget", "const:1"],
    ["oracle", "small.tree", "--budget", "const:1", "--strict"],
    ["cayley", "free:2", "--mode", "growth", "--R", "6"],
    ["cayley", "zd:2", "--mode", "surround", "--R", "12", "--lambda", "3/2", "--k", "1"],
    ["cayley", "free:2", "--mode", "polyprobe", "--R", "6", "--d", "2", "--k", "2"],
    ["cayley", "free:2", "--mode", "tree", "--R", "3", "--out", "f2.tree"],
]

# the exit code and the layers a fresh CLI process loads for each run:
# only those its command calls, and none on a usage error
RUN_LAYERS = [
    (["br", "fib.tree"], 0, ["branching", "trees"]),
    (["br", "fib.tree", "--lambda", "3/2"], 0, ["branching", "trees"]),
    (["cayley", "free:2", "--mode", "growth", "--R", "6"], 0, ["cayley", "trees"]),
    (["cayley", "free:2", "--mode", "tree", "--R", "4", "--out", "f2.tree"], 0, ["cayley", "trees"]),
    (["contain", "fib.tree", "--lambda", "3/2"], 0, ["branching", "game", "trees"]),
    (["contain", "fib.tree", "--lambda", "17/10", "--k", "1"], 0, ["branching", "game", "trees"]),
    (["br"], 1, []),
    (["frobnicate", "x"], 1, []),
]


class TestStartUp:
    """Importing the CLI generates no class and loads no layer past
    ``errors``, nor json or resource, which only ``--metrics`` needs; each
    command imports the layers it runs.  numpy loads on the first array: a
    run that builds none never loads it.  No time is asserted."""

    @staticmethod
    def python(code: str, cwd=None) -> list[str]:
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                              capture_output=True, text=True, timeout=60, check=True)
        return done.stdout.splitlines()

    def test_import_loads_no_metrics_module_no_layer_and_no_dataclass(self):
        assert self.python(
            "import sys, firebreak.cli\n"
            "print(sorted(set(sys.modules) & {'json', 'resource'}))\n"
            "print(sorted(name for name in sys.modules if name.startswith('firebreak')))\n"
            "print(sorted({c.__qualname__ for name, mod in list(sys.modules.items())\n"
            "              if name.startswith('firebreak') for c in vars(mod).values()\n"
            "              if isinstance(c, type) and hasattr(c, '__dataclass_fields__')}))\n"
        ) == ["[]", "['firebreak', 'firebreak.cli', 'firebreak.errors']", "[]"]

    @pytest.mark.parametrize("argv, code, layers", RUN_LAYERS, ids=[
        " ".join(argv) for argv, _, _ in RUN_LAYERS])
    def test_a_run_loads_only_its_layers(self, spec_dir, argv, code, layers):
        assert self.python(
            "import io, sys, firebreak.cli\n"
            "from contextlib import redirect_stderr, redirect_stdout\n"
            "with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):\n"
            f"    code = firebreak.cli.main({argv!r})\n"
            "print(code)\n"
            "print(sorted(name.split('.')[1] for name in sys.modules\n"
            "             if name.startswith('firebreak.') and name not in\n"
            "             ('firebreak.cli', 'firebreak.errors')))\n", cwd=spec_dir) == [str(code), repr(layers)]

    def run_modules(self, cwd, runs, modules) -> list[str]:
        """The exit codes of ``runs`` in one fresh process, and which of ``modules`` it loaded."""
        return self.python(
            "import io, sys, firebreak.cli\n"
            "from contextlib import redirect_stdout\n"
            "with redirect_stdout(io.StringIO()):\n"
            f"    codes = [firebreak.cli.main(argv) for argv in {runs!r}]\n"
            "print(codes)\n"
            f"print(sorted(set(sys.modules) & {set(modules)!r}))\n", cwd=cwd)

    def test_runs_that_parse_load_no_argparse(self, spec_dir):
        (spec_dir / "small.tree").write_text(SMALL)
        assert self.run_modules(spec_dir, EVERY_COMMAND, ["argparse", "gettext"]) == [
            repr([0] * len(EVERY_COMMAND)), "[]"]

    def test_growth_and_tree_load_no_fractions(self, spec_dir):
        runs = [argv for argv in EVERY_COMMAND if argv[3:4] in (["growth"], ["tree"])]
        assert self.run_modules(spec_dir, runs, ["fractions", "decimal"]) == ["[0, 0]", "[]"]

    def test_import_leaves_numpy_unloaded(self):
        assert self.python("import sys, firebreak.cli\n"
                           "print('numpy._core' in sys.modules)\n") == ["False"]

    def test_numpy_imported_first_is_the_one_used(self):
        assert self.python(
            "import numpy, firebreak.cli\n"
            "from firebreak import branching, cayley, game, trees\n"
            "print([m.np is numpy for m in (branching, cayley, game, trees)])\n"
        ) == ["[True, True, True, True]"]

    @pytest.mark.parametrize("argv", NO_ARRAY_RUNS, ids=" ".join)
    def test_runs_without_arrays_need_no_numpy(self, spec_dir, argv):
        """Under a ``numpy.py`` that raises ImportError, the run gives the bytes it gives with numpy."""
        (spec_dir / "jordan.tree").write_text(REDUCIBLE)
        blocked = spec_dir / "blocked"
        blocked.mkdir()
        (blocked / "numpy.py").write_text("raise ImportError('numpy is blocked')\n")
        got = cli_process(argv, spec_dir, f"{blocked}{os.pathsep}{SRC}")
        assert got == cli_process(argv, spec_dir)

    def test_one_process_gives_the_bytes_of_fresh_ones(self, spec_dir):
        """contain below br (no numpy), then contain above it and a Cayley
        tree export (numpy loaded between them), as three fresh processes give them."""
        runs = [["contain", "fib.tree", "--lambda", "3/2"],
                ["contain", "fib.tree", "--lambda", "17/10", "--k", "1"],
                ["cayley", "zd:3", "--mode", "tree", "--R", "6", "--out", "zd3.tree"]]
        together = self.python(
            "import io, sys, firebreak.cli\n"
            "from contextlib import redirect_stdout\n"
            f"for argv in {runs!r}:\n"
            "    with redirect_stdout(io.StringIO()) as out:\n"
            "        code = firebreak.cli.main(argv)\n"
            "    print(repr((code, out.getvalue(), 'numpy._core' in sys.modules)))\n", cwd=spec_dir)
        exported = (spec_dir / "zd3.tree").read_bytes()
        fresh = [cli_process(argv, spec_dir) for argv in runs]
        assert [ast.literal_eval(line) for line in together] == [
            (code, out.decode(), loaded) for (code, out, _), loaded in zip(fresh, (False, True, True))]
        assert (spec_dir / "zd3.tree").read_bytes() == exported
        assert [code for code, _, _ in fresh] == [0, 0, 0]

    def test_metrics_in_a_fresh_process(self, tmp_path):
        self.python("import sys, firebreak.cli\n"
                    "sys.exit(firebreak.cli.main(['cayley', 'zd:2', '--mode', 'growth', '--R', '3',\n"
                    "                             '--metrics', 'm.json']))\n", cwd=tmp_path)
        metrics = json.loads((tmp_path / "m.json").read_text())
        assert sorted(metrics) == ["peak_rss_mb", "wall_s"]
        assert all(isinstance(v, float) and v > 0 for v in metrics.values()), metrics

    # each constructor, one of its arguments and a different value for it
    @pytest.mark.parametrize("make, argument, kwargs, changed", [
        (PeriodicSpec, "root", dict(states={"A": ("A", "B"), "B": ("A",)}, root="A"), "B"),
        (SymmetricSpec, "period", dict(preperiod=(2,), period=(1, 3)), (3, 1)),
        (ExplicitSpec, "parents", dict(parents=(0, 0, 1)), (0, 0, 2)),
        (Automaton, "children", dict(children=((0, 1), (0,)), root=0), ((0,), (0, 1))),
    ], ids=["PeriodicSpec-root", "SymmetricSpec-period", "ExplicitSpec-parents",
            "Automaton-children"])
    def test_specs_are_immutable_values(self, make, argument, kwargs, changed):
        spec = make(**kwargs)
        assert type(spec) is Automaton
        for field in spec._fields:
            with pytest.raises(AttributeError):
                setattr(spec, field, getattr(spec, field))
            with pytest.raises(AttributeError):
                delattr(spec, field)
        twin = make(**kwargs)
        assert twin == spec and not twin != spec and twin is not spec
        assert hash(twin) == hash(spec)
        assert make(**{**kwargs, argument: changed}) != spec

    def test_records_reject_assignment(self):
        verdict = simulate(expand(ExplicitSpec(parents=(0, 0)), 1), 0, ScheduleStrategy({}),
                           BudgetSequence.constant(1))
        with pytest.raises(AttributeError):
            verdict.kind = "contained"

    def test_step_leaves_its_input_alone(self):
        state = state_from_fire(expand(ExplicitSpec(parents=(0, 0, 1, 1, 2, 2)), 2), [0])
        before = (state.arena, bytes(state.statuses), state.round_no, state.frontier)
        after = step(state, [1], 1)
        assert (state.arena, bytes(state.statuses), state.round_no, state.frontier) == before
        assert (after.round_no, list(after.frontier), bytes(after.statuses)) == (
            1, [2], bytes([2, 1, 2, 0, 0, 0, 0]))

    def test_feasibility_result_is_a_dataclass(self):
        got = feasibility_check(ExplicitSpec(parents=(0, 0, 1, 1, 2, 2)), 0,
                                BudgetSequence.constant(2), 2)
        assert got.feasible and got.witness_paths == ((0, 0), (0, 1), (1, 0), (1, 1))
        bad = dataclasses.replace(got, witness_paths=got.witness_paths[1:])
        assert bad.witness_paths == got.witness_paths[1:]
        assert (bad.feasible, bad.depth, bad.radius, bad.witness_levels) == (
            got.feasible, got.depth, got.radius, got.witness_levels)


class TestExports:
    """The package's names resolve on first access, each to its module's object."""

    def test_every_name_is_its_modules_object(self):
        assert len(firebreak.__all__) == 57 and firebreak.__all__ == sorted(set(firebreak.__all__))
        for name in firebreak.__all__:
            value = getattr(firebreak, name)
            module = sys.modules[value.__module__]
            assert module.__name__.startswith("firebreak."), name
            assert getattr(module, "ball" if name == "cayley_ball" else name) is value, name

    def test_dir_lists_every_name(self):
        assert set(firebreak.__all__) <= set(dir(firebreak))
        assert "__version__" in dir(firebreak)

    def test_star_import(self):
        scope = {}
        exec("from firebreak import *", scope)
        assert {name: scope[name] for name in firebreak.__all__} == {
            name: getattr(firebreak, name) for name in firebreak.__all__}

    def test_unknown_name_raises_naming_it(self):
        with pytest.raises(AttributeError, match="'firebreak' has no attribute 'no_such_name'"):
            firebreak.no_such_name
        with pytest.raises(ImportError, match="no_such_name"):
            exec("from firebreak import no_such_name", {})


def test_parser_is_built_once_per_process(spec_dir):
    # a run that parses builds no parser; usage errors build one, once
    build_parser.cache_clear()
    with redirect_stderr(io.StringIO()):
        run(["br", str(spec_dir / "binary.tree")])
        run(["br", str(spec_dir / "ray.tree")])
        assert build_parser.cache_info().misses == 0
        run(["br"])
        run(["br", "--tol"])
    assert build_parser.cache_info().misses == 1


# per subcommand: its positionals, the options it must have, and the
# options a seeded argv may add (a tuple of one flag with no value)
PARSE_SHAPES = {
    "br": (["t.tree"], [], [("--tol", "0.5"), ("--lambda", "3/2"), ("--cut-depths", "3")]),
    "contain": (["t.tree"], [("--lambda", "7/2")],
                [("--k", "2"), ("--D-max", "9"), ("--evidence-depths", "4")]),
    "simulate": (["t.tree"], [("--k", "1"), ("--budget", "exp:3/2")],
                 [("--depth", "6"), ("--horizon", "4"), ("--protect", "1,2"),
                  ("--trace-out", "t.trace")]),
    "oracle": (["t.tree"], [("--budget", "const:1")],
               [("--k", "1"), ("--x0", "0,2"), ("--depth", "3"), ("--horizon", "2"),
                ("--strict",), ("--cache", "c.txt")]),
    "cayley": (["free:2"], [("--mode", "surround"), ("--R", "8")],
               [("--lambda", "5"), ("--k", "2"), ("--c", "3"), ("--d", "1")]),
}


def seeded_argv(rng: random.Random, command: str) -> list[str]:
    positionals, required, optional = PARSE_SHAPES[command]
    chosen = required + rng.sample(optional, rng.randint(0, len(optional)))
    chosen += rng.sample([("--out", "o.txt"), ("--metrics", "m.json")], rng.randint(0, 2))
    rng.shuffle(chosen)
    words = [[flag, *value] for flag, *value in chosen]
    words.insert(rng.randint(0, len(words)), positionals)
    return [command] + [w for group in words for w in group]


# edits that make a seeded argv odd: an abbreviated flag, a negative or
# malformed value or positional, a repeated option, with an odd value too,
# a second exclusive option, "--", help, a missing value or positional, a
# bad choice, an extra positional, a value or a switch given "=", and no
# subcommand
ODD_WORDS = ["-3", "-0.5", "-.5", "-1e3", "-x", "-", "-3\n", "-\u0663", "-1.", "-1.2.3", "- 1",
             "", "1_0", " 2 ", "nan", "x", "0x1", "\u0663", "1" * 5000]


def _abbreviate(rng, argv):
    flags = [i for i, w in enumerate(argv) if w.startswith("--") and len(w.split("=")[0]) > 3]
    if flags:
        i = rng.choice(flags)
        flag, eq, value = argv[i].partition("=")
        argv[i] = flag[:rng.randint(3, len(flag) - 1)] + eq + value
    return argv


def _odd_value(rng, argv):
    if len(argv) < 2:
        return argv + [rng.choice(ODD_WORDS)]
    i = rng.randrange(1, len(argv))
    flag, eq, _ = argv[i].partition("=")
    argv[i] = (flag + eq if eq else "") + rng.choice(ODD_WORDS)
    return argv


def _repeat(rng, argv):
    _, required, optional = PARSE_SHAPES.get(argv[0] if argv else "br", PARSE_SHAPES["br"])
    flag, *value = rng.choice(required + optional + [("--out", "p.txt")])
    if value and rng.random() < 0.5:
        value = [rng.choice(ODD_WORDS)]
    return argv + ([flag + "=" + value[0]] if value and rng.random() < 0.3 else [flag, *value])


def _insert(rng, argv):
    argv.insert(rng.randint(min(1, len(argv)), len(argv)), rng.choice(
        ["--", "-h", "--help", "--he", "-", "", "x.tree", "-7", "--strict=1", "--out=",
         "--metrics=-m.json", "--schedule", "--replay=t.trace", "--mode=spin"]))
    return argv


def _join(rng, argv):
    flags = [i for i, w in enumerate(argv[:-1]) if w.startswith("--") and argv[i + 1][:1] != "-"]
    if flags:
        i = rng.choice(flags)
        argv[i:i + 2] = [argv[i] + "=" + argv[i + 1]]
    return argv


ODD_EDITS = [_abbreviate, _odd_value, _odd_value, _repeat, _repeat, _repeat, _insert, _join,
             lambda rng, argv: argv[:-1], lambda rng, argv: argv[1:]]


def odd_argv(rng: random.Random, command: str) -> list[str]:
    argv = seeded_argv(rng, command)
    for _ in range(rng.randint(1, 2)):
        argv = rng.choice(ODD_EDITS)(rng, argv)
    return argv


def parse_outcome(read, argv):
    """``read(argv)``'s exit code (None when it returns), stdout, stderr and
    the vars() of what it returns, each value as its repr (a nan is one)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code, args = None, {k: repr(v) for k, v in vars(read(argv)).items()}
        except SystemExit as exc:
            code, args = int(exc.code or 0), None
    return code, out.getvalue(), err.getvalue(), args


class TestParse:
    """``main`` reads a named subcommand's arguments off its table, and
    falls back to the whole parser for anything else."""

    @pytest.mark.parametrize("command", sorted(PARSE_SHAPES))
    def test_seeded_argvs_parse_as_the_whole_parser(self, command, monkeypatch):
        rng = random.Random(f"parse:{command}")
        argvs = [seeded_argv(rng, command) for _ in range(40)]
        expected = [vars(build_parser().parse_args(argv)) for argv in argvs]
        monkeypatch.setattr(build_parser(), "parse_args", None)  # not called on these
        assert [vars(parse(argv)) for argv in argvs] == expected

    @pytest.mark.parametrize("command", sorted(PARSE_SHAPES))
    def test_odd_argvs_parse_as_the_whole_parser(self, command):
        # the same exit code, stdout, stderr and arguments, read off the
        # table or handed to the parser; both happen
        rng = random.Random(f"odd:{command}")
        argvs = [odd_argv(rng, command) for _ in range(120)]
        read_off_the_table = 0
        for argv in argvs:
            got = parse_outcome(parse, argv)
            assert got == parse_outcome(build_parser().parse_args, argv), argv
            read_off_the_table += isinstance(parse(argv), SimpleNamespace) if got[0] is None else 0
        assert 5 <= read_off_the_table < len(argvs)

    def test_report_cells(self, capsys):
        import numpy as np

        cells = (None, True, False, 0, -12, "x", "", Fraction(3, 2), Fraction(-4), 0.5, 1e300,
                 (), (1, 2), [3, "a"], range(0), range(98, 102), np.array([7, 10], np.intc),
                 np.int64(-9), np.float64(0.25), np.bool_(True))
        texts = ["-", "true", "false", "0", "-12", "x", "", "3/2", "-4", "0.5", "1e+300", "-",
                 "1 2", "3 a", "-", "98 99 100 101", "7 10", "-9", "0.25", "True"]
        # a report reads each cell by its exact type, an id set by format_id_set
        # and a numpy scalar by str, in the config and result lines as in a table
        emit_report({"c": cells[-1]}, {"r": cells[-5]}, [("cells", ["c"] * len(cells), [cells])])
        assert capsys.readouterr().out.splitlines() == [
            "config.c = True", "result.r = 98 99 100 101", "csv cells", ",".join(["c"] * len(cells)),
            ",".join(texts)]

    @pytest.mark.parametrize("argv", [
        [], ["frobnicate", "x"], ["br", "t.tree", "--D-max", "0"], ["br", "a", "b"],
        ["contain", "t.tree"], ["contain", "t.tree", "--lambda", "3", "--k", "x"],
        ["cayley", "free:2", "--mode", "spin", "--R", "3"], ["-h"], ["contain", "-h"],
        ["--metrics", "m.json"],
    ], ids=lambda argv: " ".join(argv) or "no command")
    def test_usage_errors_and_help_are_unchanged(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert (code, out.getvalue(), err.getvalue()) == parse_outcome(
            build_parser().parse_args, argv)[:3]
        assert code in (0, 1) and (out.getvalue() or err.getvalue())

    def test_top_level_help_is_for_users(self):
        # -h describes the subcommands, the report and the exit codes, and
        # none of the notes on how the front end reads its arguments
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["-h"]) == 0
        text = " ".join(out.getvalue().split())
        assert "Exit codes: 0 determinate result" in text
        assert "1 usage or parse error, 2 indeterminate result" in text
        assert "3 strategy fault." in text
        assert "COMMANDS" not in text and "argparse" not in text and "fractions" not in text


def cycles_left(call) -> int:
    """What the cyclic GC finds after a ``call()``, run once before to warm up."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


class TestNoReferenceCycle:
    """A run frees what it made by reference counts alone: a search's
    recursive closures are unbound when it returns."""

    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=" ".join)
    def test_a_run_leaves_no_cycle(self, argv, spec_dir, monkeypatch):
        (spec_dir / "small.tree").write_text(SMALL)
        monkeypatch.chdir(spec_dir)
        assert cycles_left(lambda: run(argv)) == 0

    def test_a_feasibility_check_leaves_no_cycle(self):
        spec, budget = parse_tree_spec(FIB), BudgetSequence.parse("exp:3/2")
        assert cycles_left(lambda: feasibility_check(spec, 1, budget, 8)) == 0


class TestDeterminism:
    CASES = [
        ["br", "{d}/fib.tree", "--tol", "0.02"],
        ["contain", "{d}/binary.tree", "--lambda", "3", "--k", "1"],
        ["contain", "{d}/binary.tree", "--lambda", "1.5"],
        ["simulate", "{d}/ray.tree", "--k", "0", "--budget", "const:1",
         "--depth", "5", "--protect", "1"],
        ["oracle", "{d}/ray5.tree", "--k", "0", "--budget", "const:1"],
        ["cayley", "zd:2", "--mode", "growth", "--R", "6"],
        ["cayley", "zd:2", "--mode", "surround", "--R", "12",
         "--lambda", "1.5", "--k", "1"],
        ["cayley", "free:2", "--mode", "polyprobe", "--R", "6",
         "--d", "2", "--k", "2"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda a: a[0] + "-" + a[-1])
    def test_reports_byte_identical(self, argv, spec_dir):
        argv = [a.format(d=spec_dir) for a in argv]
        code1, out1 = run(argv)
        code2, out2 = run(argv)
        assert code1 == code2
        assert out1 == out2
        assert out1  # non-empty report

    @pytest.mark.parametrize("argv", CASES + [
        ["cayley", "free:2", "--mode", "tree", "--R", "3"],
        ["cayley", "free:2", "--mode", "surround", "--R", "4", "--lambda", "2", "--k", "0"],
    ], ids=["br", "contain-above", "contain-below", "simulate", "oracle", "growth", "surround",
            "polyprobe", "tree", "surround-cap"])
    def test_metrics_leave_reports_alone(self, argv, spec_dir, tmp_path):
        # --metrics writes both keys as positive numbers and changes neither
        # the exit code, nor stdout, nor the --out file; the last case runs
        # out of ball and exits 2, with its metrics written all the same
        argv = [a.format(d=spec_dir) for a in argv] + ["--out", str(tmp_path / "report")]
        code1, out1 = run(argv)
        written = (tmp_path / "report").read_bytes()
        code2, out2 = run(argv + ["--metrics", str(tmp_path / "metrics.json")])
        assert (code1, out1) == (code2, out2)
        assert code1 == (2 if "result.regime = cap_exhausted" in out1 else 0)
        assert (tmp_path / "report").read_bytes() == written
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert sorted(metrics) == ["peak_rss_mb", "wall_s"]
        assert all(isinstance(v, float) and v > 0 for v in metrics.values()), metrics
