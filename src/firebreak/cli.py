"""Command-line front end.

Subcommands: ``br``, ``contain``, ``simulate``, ``oracle``, ``cayley``.
Every run prints a structured-text report (sorted ``config.*`` and
``result.*`` lines, then CSV blocks); identical configurations produce
byte-identical reports.  Timings and peak RSS, which are not deterministic,
go only to the JSON file of ``--metrics FILE``, which every subcommand
accepts.  Exit codes: 0 determinate result (every ``br`` run
on an infinite spec: its bracket is exact), 1 usage or parse error, 2
indeterminate result or a resource cap reached (the message names the
cap), 3 strategy fault.

Each subcommand's arguments are one table, ``COMMANDS``, and a run's argv
is read off its command's table.  Whatever that reading cannot be sure
argparse reads alike (help, ``--``, an unknown or abbreviated option, a
missing value, a failed conversion or choice, a missing or extra
positional, no subcommand) goes to the argparse parser built from the
same table, which is imported and built only then.  So usage errors and
help read as argparse writes them, and a run that parses loads neither
argparse nor gettext.

Each ``cmd_*`` imports the layers it runs when it starts, so a process
loads only those: ``br`` trees and branching; ``cayley`` trees and cayley
(and game, which needs branching, for surround and polyprobe); ``contain``
and ``simulate`` trees, branching and game; ``oracle`` those and oracle.
A usage error loads no layer, and ``fractions`` loads only with a layer
or a command that reads a rational.
"""

from __future__ import annotations

import functools
import sys
import time
from itertools import islice
from types import SimpleNamespace

from . import __version__
from .errors import ResourceLimitError, SpecError, StrategyFault, SurroundCapError, SynthesisError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INDETERMINATE = 2
EXIT_FAULT = 3

CUT_DEPTHS_MAX = 1000  # most rows of br's cuts table
EVIDENCE_DEPTHS_MAX = 100  # most rows of contain's feasibility evidence table


def _text(write, what: str) -> str:
    """``write()``, or ResourceLimitError where str() refuses an int past the digit limit."""
    try:
        return write()
    except ValueError:
        digits = sys.get_int_max_str_digits()
        raise ResourceLimitError(f"a reported {what} has more than {digits} digits, "
                                 f"past sys.get_int_max_str_digits() = {digits}") from None


def _fmt(value, id_set=None) -> str:
    """A report cell's text, checked: a list, tuple, range or array cell by
    ``id_set`` (``trees.format_id_set``, which ``emit_report`` imports once
    a report), and ResourceLimitError for an int or Fraction past the digit limit."""
    if type(value) in (int, str):
        return _text(value.__str__, "number")
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if (fractions := sys.modules.get("fractions")) and isinstance(value, fractions.Fraction):
        return _text(value.__str__, "fraction")  # n/d, or n
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple, range)) or getattr(value, "ndim", 0):  # numpy scalars have ndim 0
        return id_set(value)
    return str(value)


# the text of a cell by its exact type; Fraction's is added once fractions
# loads, as no Fraction cell exists before.  int and Fraction raise
# ValueError past the digit limit.
_CELLS = {int: int.__repr__, str: str.__str__, float: float.__repr__,
          bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "-"}


def emit_report(config: dict, result: dict, tables=(), out: str | None = None) -> str:
    from .trees import format_id_set

    checked = functools.partial(_fmt, id_set=format_id_set)
    cells = _CELLS
    if fractions := sys.modules.get("fractions"):
        cells = {**cells, fractions.Fraction: fractions.Fraction.__str__}

    def cell(value) -> str:
        write = cells.get(type(value))
        return write(value) if write else checked(value)

    try:
        text = _report(config, result, tables, cell)
    except ValueError:  # a number past the digit limit: the checked cells name it
        text = _report(config, result, tables, checked)
    sys.stdout.write(text)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _report(config: dict, result: dict, tables, cell) -> str:
    lines = [f"config.{k} = {cell(config[k])}" for k in sorted(config)]
    lines += [f"result.{k} = {cell(result[k])}" for k in sorted(result)]
    for name, header, rows in tables:  # each rows a list, read again on a retry
        lines.append(f"csv {name}")
        lines.append(",".join(header))
        lines += [",".join([cell(v) for v in row]) for row in rows]
    return "\n".join(lines) + "\n"


def _rational(text: str, option: str) -> Fraction:
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SpecError(f"{option}: {text!r} is not a rational number")


def _base_config(command: str) -> dict:
    return {"command": command, "version": __version__}


# ---------------------------------------------------------------------------


def _cut_rows(spec, lam: Fraction, depths: int):
    """The cuts table: (lambda, depth, min_cut, flow_value) for depths 1..
    depths, read from the recursion.  ResourceLimitError past CUT_DEPTHS_MAX
    rows, checked first, and at the first weight too long for str()."""
    from fractions import Fraction

    from .branching import cut_recursion

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
    from .branching import br_bracket, br_exact_periodic
    from .trees import load_tree_spec

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
    if spec.is_finite():
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
    from .branching import (br_enclosure, check_certificate, compare_to_br, cut_weight,
                            lower_bound_certificate)
    from .game import BudgetSequence, feasibility_rows, simulate, synthesize_cutset_strategy
    from .trees import load_tree_spec

    spec = load_tree_spec(args.spec)
    lam = _rational(getattr(args, "lambda"), "--lambda")
    config = _base_config("contain")
    config.update(spec=args.spec, **{"lambda": lam}, k=args.k, depth_max=args.D_max)
    result: dict = {}
    tables = []

    if spec.is_finite():
        raise SpecError("contain needs an infinite tree spec")
    if lam <= 0:
        raise SpecError("rate must be positive")
    if args.k < 0:
        raise SpecError("initial radius must be >= 0")
    if args.D_max <= args.k:
        raise SpecError("depth_max must exceed the initial radius")
    if args.evidence_depths < 1:
        raise SpecError("--evidence-depths must be >= 1")
    if args.evidence_depths > EVIDENCE_DEPTHS_MAX:
        raise ResourceLimitError(f"--evidence-depths {args.evidence_depths} is past "
                                 f"EVIDENCE_DEPTHS_MAX = {EVIDENCE_DEPTHS_MAX}")

    side = compare_to_br(spec, lam)
    cert = lower_bound_certificate(spec, lam) if side < 0 else None  # its refusals come first
    br, lo, hi = br_enclosure(spec)
    result.update(br_exact=br, bracket_lo=lo, bracket_hi=hi)
    budget = BudgetSequence.exponential(lam)
    if side > 0:
        result["regime"] = "above"
        synth = synthesize_cutset_strategy(spec, lam, args.k, depth_max=args.D_max)
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
        tables.append(("schedule", ("round", "budget", "protect"), [  # no round is empty
            (r, budget(r), vs) for r, vs in sorted(synth.strategy.schedule.items())]))
    elif side < 0:
        result["regime"] = "below"
        result.update(
            certificate_mid_rate=float(cert.mid_rate),
            certificate_budget_coeff=float(cert.budget_coeff),
            certificate_cut_floor=float(cert.cut_weight_floor),
            certificate_radius=cert.radius,
            certificate_valid=all(check_certificate(cert).values()),
        )
        depths = range(cert.radius + 1, cert.radius + 1 + args.evidence_depths)
        evidence_rows = [(depth, "feasible" if ok else "infeasible") for depth, ok in zip(
            depths, feasibility_rows(spec, cert.radius, budget, depths))]
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
    from .game import (BudgetSequence, CanonicalStrategy, ScheduleStrategy, format_trace,
                       parse_schedule, parse_trace, read_int, simulate)
    from .trees import expand, load_tree_spec, read_text

    spec = load_tree_spec(args.spec)
    budget = BudgetSequence.parse(args.budget)
    trunc = expand(spec, args.depth)
    config = _base_config("simulate")
    config.update(spec=args.spec, k=args.k, budget=_text(budget.describe, "budget"),
                  depth=args.depth, horizon=args.horizon)
    result: dict = {}
    tables = []

    if args.replay is not None:
        try:
            text = read_text(args.replay)
        except OSError as exc:
            raise SpecError(f"--replay: cannot read {args.replay!r} ({exc.strerror})") from exc
        schedule, claimed = parse_trace(text, args.replay)
        strategy = ScheduleStrategy(schedule)
        config["replay"] = args.replay
    elif args.protect is not None:
        if not (vprime := [read_int(t, "--protect") for t in args.protect.split(",") if t]):
            raise SpecError(f"--protect: {args.protect!r} names no vertex")
        for v in vprime:
            if not 0 <= v < trunc.n_vertices:
                raise SpecError(f"vertex {v} is outside the depth-{args.depth} truncation")
        strategy = CanonicalStrategy(vprime)
        config["protect"] = ",".join(str(v) for v in vprime)
    elif args.schedule is not None:
        strategy = ScheduleStrategy(parse_schedule(args.schedule, "--schedule"))
        config["schedule"] = args.schedule
    else:
        strategy = ScheduleStrategy({})

    verdict = simulate(trunc, args.k, strategy, budget, horizon=args.horizon)
    result.update(verdict=verdict.kind, verdict_round=verdict.round_no,
                  burnt=verdict.burnt)
    tables.append(("trace", ("round", "protect", "burn"),
                   [(r.round_no, *r.played) for r in verdict.trace]))
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.write(format_trace(verdict))
    code = EXIT_OK if verdict.contained else EXIT_INDETERMINATE
    if args.replay is not None:
        match = (claimed.get("kind") == verdict.kind
                 and claimed.get("round_no") == verdict.round_no
                 and claimed.get("burnt") == verdict.burnt)
        result["replay_match"] = match
        if not match:
            code = EXIT_INDETERMINATE
    emit_report(config, result, tables, args.out)
    return code


def cmd_oracle(args) -> int:
    from .game import BudgetSequence, ball_ids, read_int
    from .oracle import OracleCache, brute_force_containment, oracle_key
    from .trees import expand, format_parents, format_tree_spec, load_tree_spec

    spec = load_tree_spec(args.spec)
    if not spec.escape_leaves:
        raise SpecError("the oracle runs on explicit tree specs only")
    if args.k < 0:
        raise SpecError("initial radius must be >= 0")
    budget = BudgetSequence.parse(args.budget)
    height = spec.live_heights[spec.root]
    depth = args.depth if args.depth is not None else height
    trunc = expand(spec, depth)
    if args.x0 is not None:
        if not (fire := sorted({read_int(t, "--x0") for t in args.x0.split(",") if t})):
            raise SpecError(f"--x0: {args.x0!r} names no vertex")
    else:
        fire = ball_ids(trunc, args.k)
    config = _base_config("oracle")
    config.update(spec=args.spec, k=args.k, x0=",".join(str(v) for v in fire),
                  budget=_text(budget.describe, "budget"), depth=depth, strict=args.strict,
                  horizon=args.horizon)
    result: dict = {}

    cache = OracleCache(args.cache) if args.cache else None
    key = None
    if cache:  # the spec's text: the truncation's parents, when it is the whole tree
        text = format_parents(trunc.parent[1:]) if depth >= height else format_tree_spec(spec)
        key = oracle_key(text, depth, fire, budget, args.horizon, restrict=not args.strict)
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
        tables.append(("witness", ("round", "protect"), list(enumerate(decision.schedule, 1))))
    emit_report(config, result, tables, args.out)
    return EXIT_OK


def cmd_cayley(args) -> int:
    from .cayley import (group_from_name, growth_rate_estimate, lex_min_tree, polynomial_probe,
                         wait_and_surround, write_tree_export)

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
        config.update(k=args.k, c=args.c, d=args.d)
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
        with open(args.out, "wb") as fh:
            write_tree_export(tree, fh)
        result.update(vertices=tree.n_vertices, out=args.out,
                      level_counts=tuple(tree.sphere_sizes()))
        emit_report(config, result, tables, None)
        return EXIT_OK
    else:
        raise SpecError(f"unknown cayley mode {args.mode!r}")

    emit_report(config, result, tables, args.out)
    return code


# ---------------------------------------------------------------------------


# Each subcommand's arguments, in the parser's order: its help, its command,
# its arguments (a name, the positional's first and then each option's, and
# its add_argument keywords) and the options of which a run gives at most one.
_METRICS = ("--metrics", {"help": "write wall time and peak RSS as JSON to this file"})
COMMANDS = {
    "br": ("branching number: exact (periodic) and bracket", cmd_br, [
        ("spec", {}),
        ("--tol", {"type": float, "default": 0.01}),
        ("--lambda", {"default": None,
                      "help": "also tabulate min-cut and flow values at this rate"}),
        ("--cut-depths", {"type": int, "default": 8}),
        ("--out", {}),
        _METRICS,
    ], ()),
    "contain": ("synthesize or refute containment at a rate", cmd_contain, [
        ("spec", {}),
        ("--lambda", {"required": True}),
        ("--k", {"type": int, "default": 1}),
        ("--D-max", {"dest": "D_max", "type": int, "default": 40}),
        ("--evidence-depths", {"type": int, "default": 8}),
        ("--out", {}),
        _METRICS,
    ], ()),
    "simulate": ("play a strategy and print the trace", cmd_simulate, [
        ("spec", {}),
        ("--k", {"type": int, "required": True}),
        ("--budget", {"required": True}),
        ("--depth", {"type": int, "default": 8}),
        ("--horizon", {"type": int, "default": None}),
        ("--protect", {"help": "comma-separated ids for a canonical strategy"}),
        ("--schedule", {"help": "round:ids;round:ids explicit schedule"}),
        ("--replay", {"help": "trace file to replay and verify"}),
        ("--trace-out", {}),
        ("--out", {}),
        _METRICS,
    ], ("--protect", "--schedule", "--replay")),  # one strategy per run
    "oracle": ("brute-force containment on a small explicit tree", cmd_oracle, [
        ("spec", {}),
        ("--k", {"type": int, "default": 0}),
        ("--x0", {"help": "explicit initial fire ids (overrides --k)"}),
        ("--budget", {"required": True}),
        ("--depth", {"type": int, "default": None}),
        ("--horizon", {"type": int, "default": None}),
        ("--strict", {"action": "store_true",
                      "help": "unpruned protect-set enumeration (soundness audits)"}),
        ("--cache", {"help": "plain-text result cache file"}),
        ("--out", {}),
        _METRICS,
    ], ()),
    "cayley": ("Cayley-graph growth, surround, probes, exports", cmd_cayley, [
        ("group", {"help": "free:R | zd:D | dinf | freeprod:M1,M2[,..]"}),
        ("--mode", {"required": True, "choices": ["growth", "surround", "polyprobe", "tree"]}),
        ("--R", {"type": int, "required": True}),
        ("--lambda", {"default": None}),
        ("--k", {"type": int, "default": 1}),
        ("--c", {"default": "1"}),
        ("--d", {"type": int, "default": 2}),
        ("--out", {}),
        _METRICS,
    ], ()),
}


def _shape(command: str, func, arguments, exclusive) -> tuple:
    """What ``_read`` needs of a command's table: the positional's name,
    each option's (dest, type, choices, whether it takes no value) by its
    flag, the namespace's defaults, the dests a run must give and the
    exclusive ones."""
    (positional, _), *options = arguments
    flags, defaults, required = {}, {"command": command, "func": func}, {positional}
    for flag, kw in options:
        dest = kw.get("dest", flag[2:].replace("-", "_"))
        switch = kw.get("action") == "store_true"
        flags[flag] = (dest, kw.get("type"), kw.get("choices"), switch)
        defaults[dest] = False if switch else kw.get("default")
        if kw.get("required"):
            required.add(dest)
    return positional, flags, defaults, required, {flags[flag][0] for flag in exclusive}


_SHAPES = {command: _shape(command, func, arguments, exclusive)
           for command, (_, func, arguments, exclusive) in COMMANDS.items()}


def _negative(word: str) -> bool:
    """Whether argparse reads ``word`` as a negative number, a value and
    not an option: "-" and digits, with at most one "." and a digit after it."""
    whole, dot, fraction = word[1:].partition(".")
    return whole.isdecimal() if not dot else fraction.isdecimal() and (
        not whole or whole.isdecimal())


def _read(command: str, words: list[str]) -> SimpleNamespace | None:
    """The arguments ``words`` give ``command``, as its parser reads them,
    or None where that parser might read them otherwise: a word that starts
    with "-" and is neither an option's exact flag (``--flag=value`` too)
    nor a negative number, a missing value, a failed conversion or choice,
    a second positional, a required argument missing, or two exclusive
    options.  An option given twice keeps its last value."""
    positional, flags, defaults, required, exclusive = _SHAPES[command]
    values, given = dict(defaults), set()
    words = iter(words)
    for word in words:
        if word[:1] != "-" or _negative(word):
            if positional in given:
                return None
            dest, value = positional, word
        else:
            flag, eq, value = word.partition("=")
            if (option := flags.get(flag)) is None:
                return None
            dest, convert, choices, switch = option
            if switch:
                if eq:
                    return None
                value = True
            else:
                if not eq and ((value := next(words, None)) is None
                               or value[:1] == "-" and not _negative(value)):
                    return None
                if convert is not None:
                    try:
                        value = convert(value)
                    except ValueError:
                        return None
                if choices is not None and value not in choices:
                    return None
        values[dest] = value
        given.add(dest)
    if not required <= given or len(exclusive & given) > 1:
        return None
    return SimpleNamespace(**values)


def parse(argv=None):
    """``build_parser().parse_args(argv)``'s arguments (argv defaults to
    ``sys.argv[1:]``): read off the named command's table where ``_read``
    can, by the parser otherwise, which writes usage errors and help."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _SHAPES and (args := _read(argv[0], argv[1:])) is not None:
        return args
    return build_parser().parse_args(argv)


@functools.cache  # one parser per process, built from COMMANDS on the first usage error or help
def build_parser():
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # exit 1 on usage errors, not argparse's 2
            self.print_usage(sys.stderr)
            sys.stderr.write(f"{self.prog}: error: {message}\n")
            raise SystemExit(EXIT_USAGE)

    # the module docstring's user-facing paragraph: the subcommands, the report and the exit codes
    parser = Parser(prog="firebreak", description=__doc__ and __doc__.split("\n\n")[1])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, func, arguments, exclusive) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        group = p.add_mutually_exclusive_group() if exclusive else None
        for name, kw in arguments:
            (group if name in exclusive else p).add_argument(name, **kw)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    start = time.perf_counter()
    code = _run(args)
    if args.metrics:
        try:
            _write_metrics(args.metrics, time.perf_counter() - start)
        except OSError as exc:
            sys.stderr.write(f"firebreak: {exc}\n")
            return EXIT_USAGE
    return code


def _run(args) -> int:
    try:
        return args.func(args)
    except (SpecError, OSError) as exc:
        sys.stderr.write(f"firebreak: {exc}\n")
        return EXIT_USAGE
    except StrategyFault as exc:
        sys.stderr.write(f"firebreak: strategy fault: {exc}\n")
        return EXIT_FAULT
    except (SynthesisError, ResourceLimitError) as exc:
        sys.stderr.write(f"firebreak: {exc}\n")
        return EXIT_INDETERMINATE


def _write_metrics(path: str, wall_s: float) -> None:
    """The run's wall time around the command and the process's peak RSS,
    as JSON; ru_maxrss counts bytes on macOS and KiB elsewhere.  Its modules
    load here, as only a run with ``--metrics`` writes one."""
    import json
    import resource

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_rss_mb = rss / 2 ** (20 if sys.platform == "darwin" else 10)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"peak_rss_mb": peak_rss_mb, "wall_s": wall_s}, fh)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
