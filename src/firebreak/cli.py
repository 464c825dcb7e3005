"""Command-line front end.

Subcommands: ``br``, ``contain``, ``simulate``, ``oracle``, ``cayley``.
Every run prints a structured-text report (sorted ``config.*`` and
``result.*`` lines, then CSV blocks); identical configurations produce
byte-identical reports.  Exit codes: 0 determinate result (every ``br`` run
on an infinite spec: its bracket is exact), 1 usage or parse error, 2
indeterminate result or a resource cap reached (the message names the
cap), 3 strategy fault.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from itertools import islice

from . import __version__
from .branching import (
    br_bracket,
    br_enclosure,
    br_exact_periodic,
    check_certificate,
    compare_to_br,
    cut_recursion,
    cut_weight,
    lower_bound_certificate,
)
from .cayley import (
    group_from_name,
    growth_rate_estimate,
    lex_min_tree,
    polynomial_probe,
    wait_and_surround,
)
from .errors import (
    ResourceLimitError,
    SpecError,
    StrategyFault,
    SurroundCapError,
    SynthesisError,
)
from .game import (
    BudgetSequence,
    CanonicalStrategy,
    ScheduleStrategy,
    feasibility_check,
    format_trace,
    parse_trace,
    simulate,
    synthesize_cutset_strategy,
)
from .oracle import OracleCache, brute_force_containment, oracle_key
from .trees import (
    ExplicitSpec,
    compile,
    expand,
    format_tree_spec,
    load_tree_spec,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INDETERMINATE = 2
EXIT_FAULT = 3

CUT_DEPTHS_MAX = 1000  # most rows of br's cuts table
EVIDENCE_DEPTHS_MAX = 100  # most rows of contain's feasibility evidence table


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 \
            else str(value.numerator)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value) if value else "-"
    return str(value)


def emit_report(config: dict, result: dict, tables=(), out: str | None = None) -> str:
    lines = [f"config.{k} = {_fmt(config[k])}" for k in sorted(config)]
    lines += [f"result.{k} = {_fmt(result[k])}" for k in sorted(result)]
    for name, header, rows in tables:
        lines.append(f"csv {name}")
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _rational(text: str, option: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SpecError(f"{option}: {text!r} is not a rational number")


def _int(text: str, option: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SpecError(f"{option}: {text!r} is not an integer")


def _base_config(command: str) -> dict:
    return {"command": command, "version": __version__}


# ---------------------------------------------------------------------------


def _cut_rows(spec, lam: Fraction, depths: int):
    """The cuts table: (lambda, depth, min_cut, flow_value) for depths 1..
    depths, read from the recursion.  ResourceLimitError past CUT_DEPTHS_MAX
    rows, checked first, and at the first weight too long for str()."""
    if depths > CUT_DEPTHS_MAX:
        raise ResourceLimitError(f"--cut-depths {depths} is past CUT_DEPTHS_MAX = {CUT_DEPTHS_MAX}")
    digits = sys.get_int_max_str_digits()
    too_long = 10 ** digits if digits else None
    _, steps = cut_recursion(spec, lam)
    rows = []
    for depth, (_, den, weight) in zip(range(1, depths + 1), islice(steps, 1, None)):
        w = Fraction(weight, den)
        if too_long is not None and max(w.numerator, w.denominator) >= too_long:
            raise ResourceLimitError(
                f"the min-cut weight at depth {depth} has more than {digits} digits, "
                f"past sys.get_int_max_str_digits() = {digits}")
        rows.append((lam, depth, w, w))
    return rows


def cmd_br(args) -> int:
    spec = load_tree_spec(args.spec)
    config = _base_config("br")
    config.update(spec=args.spec, tol=args.tol)
    result: dict = {}
    tables = []
    if args.cut_depths < 1:
        raise SpecError("--cut-depths must be >= 1")
    if not args.tol > 0:  # checked here too, as a finite spec never reaches br_bracket
        raise SpecError("tol must be positive")
    if getattr(args, "lambda") is not None:
        lam = _rational(getattr(args, "lambda"), "--lambda")
        config["lambda"] = lam
        tables.append(("cuts", ("lambda", "depth", "min_cut", "flow_value"),
                       _cut_rows(spec, lam, args.cut_depths)))
    if compile(spec).is_finite():
        result["br_exact"] = 1.0
        result["note"] = "finite tree; branching number is 1 by convention"
    else:
        result["br_exact"] = br_exact_periodic(spec)
        bracket = br_bracket(spec, tol=args.tol)
        result.update(bracket_lo=bracket.lo, bracket_hi=bracket.hi,
                      bracket_width=bracket.width)
        tables.append(("probes", ("lambda", "verdict"), list(bracket.probes)))
    emit_report(config, result, tables, args.out)
    return EXIT_OK


def cmd_contain(args) -> int:
    spec = load_tree_spec(args.spec)
    lam = _rational(getattr(args, "lambda"), "--lambda")
    config = _base_config("contain")
    config.update(spec=args.spec, **{"lambda": lam}, k=args.k, depth_max=args.D_max)
    result: dict = {}
    tables = []

    if compile(spec).is_finite():
        raise SpecError("contain needs an infinite tree spec")
    if args.k < 0:
        raise SpecError("initial radius must be >= 0")
    if args.evidence_depths < 1:
        raise SpecError("--evidence-depths must be >= 1")
    if args.evidence_depths > EVIDENCE_DEPTHS_MAX:
        raise ResourceLimitError(f"--evidence-depths {args.evidence_depths} is past "
                                 f"EVIDENCE_DEPTHS_MAX = {EVIDENCE_DEPTHS_MAX}")

    br, lo, hi = br_enclosure(spec)
    result.update(br_exact=br, bracket_lo=lo, bracket_hi=hi)
    side = compare_to_br(spec, lam)
    if side > 0:
        result["regime"] = "above"
        synth = synthesize_cutset_strategy(spec, lam, args.k, depth_max=args.D_max)
        budget = BudgetSequence.exponential(lam)
        verdict = simulate(synth.trunc, args.k, synth.strategy, budget)
        result.update(
            epsilon=float(synth.epsilon),
            cut_depth=synth.depth,
            cut_size=len(synth.cutset),
            cut_weight=cut_weight(synth.trunc, synth.cutset, lam),
            flow_value=synth.weight,
            verdict=verdict.kind,
            verdict_round=verdict.round_no,
            burnt=verdict.burnt,
        )
        tables.append((
            "schedule", ("round", "budget", "protect"),
            [
                (r, budget(r), " ".join(map(str, vs)))
                for r, vs in sorted(synth.strategy.schedule.items())
            ],
        ))
    elif side < 0:
        result["regime"] = "below"
        cert = lower_bound_certificate(spec, lam)
        result.update(
            certificate_mid_rate=float(cert.mid_rate),
            certificate_budget_coeff=float(cert.budget_coeff),
            certificate_cut_floor=float(cert.cut_weight_floor),
            certificate_radius=cert.radius,
            certificate_valid=all(check_certificate(cert).values()),
        )
        budget = BudgetSequence.exponential(lam)
        evidence_rows = []
        sphere = next(islice(compile(spec).iter_state_counts(), cert.radius, None))
        for depth in range(cert.radius + 1, cert.radius + 1 + args.evidence_depths):
            fr = feasibility_check(spec, cert.radius, budget, depth, sphere_counts=sphere)
            evidence_rows.append((depth, "feasible" if fr.feasible else "infeasible"))
        result["all_probed_depths_infeasible"] = all(
            row[1] == "infeasible" for row in evidence_rows
        )
        tables.append(("feasibility_evidence", ("depth", "decision"), evidence_rows))
    else:
        result["regime"] = "undetermined"
        result["note"] = "rate equals the branching number, the containment threshold"
    emit_report(config, result, tables, args.out)
    return EXIT_OK if side else EXIT_INDETERMINATE


def cmd_simulate(args) -> int:
    spec = load_tree_spec(args.spec)
    budget = BudgetSequence.parse(args.budget)
    trunc = expand(spec, args.depth)
    config = _base_config("simulate")
    config.update(spec=args.spec, k=args.k, budget=budget.describe(),
                  depth=args.depth, horizon=args.horizon)
    result: dict = {}
    tables = []

    if args.replay:
        with open(args.replay, "r", encoding="utf-8") as fh:
            schedule, claimed = parse_trace(fh.read(), args.replay)
        strategy = ScheduleStrategy(schedule)
        config["replay"] = args.replay
    elif args.protect:
        vprime = [_int(t, "--protect") for t in args.protect.split(",") if t]
        for v in vprime:
            if not 0 <= v < trunc.n_vertices:
                raise SpecError(f"vertex {v} is outside the depth-{args.depth} truncation")
        strategy = CanonicalStrategy(vprime)
        config["protect"] = ",".join(str(v) for v in vprime)
    elif args.schedule:
        schedule = {}
        for chunk in args.schedule.split(";"):
            r, _, ids = chunk.partition(":")
            schedule[_int(r, "--schedule")] = tuple(
                _int(t, "--schedule") for t in ids.split(",") if t)
        strategy = ScheduleStrategy(schedule)
        config["schedule"] = args.schedule
    else:
        strategy = ScheduleStrategy({})

    verdict = simulate(trunc, args.k, strategy, budget, horizon=args.horizon)
    result.update(verdict=verdict.kind, verdict_round=verdict.round_no,
                  burnt=verdict.burnt)
    tables.append((
        "trace", ("round", "protect", "burn"),
        [
            (r.round_no,
             " ".join(str(v) for v in r.protected) or "-",
             " ".join(str(v) for v in r.burnt) or "-")
            for r in verdict.trace
        ],
    ))
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.write(format_trace(verdict))
    code = EXIT_OK if verdict.contained else EXIT_INDETERMINATE
    if args.replay:
        match = (claimed.get("kind") == verdict.kind
                 and claimed.get("round_no") == verdict.round_no
                 and claimed.get("burnt") == verdict.burnt)
        result["replay_match"] = match
        if not match:
            code = EXIT_INDETERMINATE
    emit_report(config, result, tables, args.out)
    return code


def cmd_oracle(args) -> int:
    spec = load_tree_spec(args.spec)
    if not isinstance(spec, ExplicitSpec):
        raise SpecError("the oracle runs on explicit tree specs only")
    if args.k < 0:
        raise SpecError("initial radius must be >= 0")
    budget = BudgetSequence.parse(args.budget)
    depth = args.depth if args.depth is not None else spec.height()
    trunc = expand(spec, depth)
    if args.x0:
        fire = sorted({_int(t, "--x0") for t in args.x0.split(",") if t})
    else:
        fire = [v for v in range(trunc.n_vertices) if trunc.level[v] <= args.k]
    config = _base_config("oracle")
    config.update(spec=args.spec, k=args.k, x0=",".join(str(v) for v in fire),
                  budget=budget.describe(), depth=depth, strict=args.strict,
                  horizon=args.horizon)
    result: dict = {}

    cache = OracleCache(args.cache) if args.cache else None
    key = oracle_key(format_tree_spec(spec), fire, budget, args.horizon,
                     restrict=not args.strict) if cache else None
    decision = cache.get(key) if cache else None
    result["cache_hit"] = decision is not None
    if decision is None:
        decision = brute_force_containment(trunc, fire, budget,
                                           horizon=args.horizon,
                                           restrict=not args.strict)
        if cache:
            cache.put(key, decision)
    result["feasible"] = decision.feasible
    tables = []
    if decision.feasible:
        tables.append((
            "witness", ("round", "protect"),
            [
                (r, " ".join(str(v) for v in vs) or "-")
                for r, vs in enumerate(decision.schedule, start=1)
            ],
        ))
    emit_report(config, result, tables, args.out)
    return EXIT_OK


def cmd_cayley(args) -> int:
    model = group_from_name(args.group)
    config = _base_config("cayley")
    config.update(group=args.group, mode=args.mode, R=args.R)
    result: dict = {}
    tables = []
    code = EXIT_OK

    if args.mode == "growth":
        est = growth_rate_estimate(model, args.R)
        result.update(ball_root=est.ball_root, sphere_ratio=est.sphere_ratio,
                      ball_size=est.ball_sizes[-1])
        tables.append((
            "growth", ("n", "sphere", "ball", "ball_root", "sphere_ratio"),
            [
                (n, est.sphere_sizes[n], est.ball_sizes[n],
                 est.ball_root_sequence[n - 1], est.sphere_ratio_sequence[n - 1])
                for n in range(1, args.R + 1)
            ],
        ))
    elif args.mode == "surround":
        if getattr(args, "lambda") is None:
            raise SpecError("--lambda is required for mode surround")
        lam = _rational(getattr(args, "lambda"), "--lambda")
        config["lambda"] = lam
        config["k"] = args.k
        try:
            res = wait_and_surround(model, args.k, lam, args.R)
        except SurroundCapError as exc:
            result.update(regime="cap_exhausted", note=str(exc))
            tables.append((
                "budget_vs_sphere", ("round", "budget", "sphere"), list(exc.trace),
            ))
            emit_report(config, result, tables, args.out)
            return EXIT_INDETERMINATE
        result.update(
            trigger_round=res.trigger_round,
            sphere_index=res.sphere_index,
            sphere_size=len(res.sphere),
            verdict=res.verdict.kind,
            verdict_round=res.verdict.round_no,
            burnt=res.verdict.burnt,
        )
        tables.append((
            "budget_vs_sphere", ("round", "budget", "sphere"), list(res.budget_trace),
        ))
        if not res.verdict.contained:
            code = EXIT_INDETERMINATE
    elif args.mode == "polyprobe":
        config["k"] = args.k
        config["c"] = args.c
        config["d"] = args.d
        report = polynomial_probe(model, _rational(args.c, "--c"), args.d, args.k, args.R)
        result.update(
            feasible=report.feasibility.feasible,
            note=report.note,
        )
        tables.append((
            "budget_vs_sphere", ("n", "cumulative_budget", "sphere_n_plus_1"),
            list(report.budget_vs_sphere),
        ))
    elif args.mode == "tree":
        if not args.out:
            raise SpecError("--out is required for mode tree")
        tree = lex_min_tree(model, args.R)
        text = format_tree_spec(tree.spec)
        words = "".join(f"# vertex {v} = {w or 'id'}\n"
                        for v, w in enumerate(tree.ball.word_strings))
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(words + text)
        result.update(vertices=tree.ball.n_vertices, out=args.out,
                      level_counts=tuple(tree.level_counts()))
        emit_report(config, result, tables, None)
        return EXIT_OK
    else:
        raise SpecError(f"unknown cayley mode {args.mode!r}")

    emit_report(config, result, tables, args.out)
    return code


# ---------------------------------------------------------------------------


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> _Parser:
    parser = _Parser(prog="firebreak", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("br", help="branching number: exact (periodic) and bracket")
    p.add_argument("spec")
    p.add_argument("--tol", type=float, default=0.01)
    p.add_argument("--lambda", default=None,
                   help="also tabulate min-cut and flow values at this rate")
    p.add_argument("--cut-depths", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_br)

    p = sub.add_parser("contain", help="synthesize or refute containment at a rate")
    p.add_argument("spec")
    p.add_argument("--lambda", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--D-max", dest="D_max", type=int, default=40)
    p.add_argument("--evidence-depths", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_contain)

    p = sub.add_parser("simulate", help="play a strategy and print the trace")
    p.add_argument("spec")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", required=True)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--protect", help="comma-separated ids for a canonical strategy")
    p.add_argument("--schedule", help="round:ids;round:ids explicit schedule")
    p.add_argument("--replay", help="trace file to replay and verify")
    p.add_argument("--trace-out")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="brute-force containment on a small explicit tree")
    p.add_argument("spec")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--x0", help="explicit initial fire ids (overrides --k)")
    p.add_argument("--budget", required=True)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--strict", action="store_true",
                   help="unpruned protect-set enumeration (soundness audits)")
    p.add_argument("--cache", help="plain-text result cache file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("cayley", help="Cayley-graph growth, surround, probes, exports")
    p.add_argument("group", help="free:R | zd:D | dinf | freeprod:M1,M2[,..]")
    p.add_argument("--mode", required=True,
                   choices=["growth", "surround", "polyprobe", "tree"])
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--lambda", default=None)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--c", default="1")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_cayley)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SpecError, FileNotFoundError) as exc:
        sys.stderr.write(f"firebreak: {exc}\n")
        return EXIT_USAGE
    except StrategyFault as exc:
        sys.stderr.write(f"firebreak: strategy fault: {exc}\n")
        return EXIT_FAULT
    except (SynthesisError, ResourceLimitError) as exc:
        sys.stderr.write(f"firebreak: {exc}\n")
        return EXIT_INDETERMINATE


if __name__ == "__main__":
    sys.exit(main())
