"""Spans around the program's public functions, for the traced run.

``Tracer.install()`` replaces each traced function at every ``firebreak``
module that binds it (``expand`` is bound in ``trees``, ``branching``,
``game`` and ``cli``), so calls between modules and inside a module are
both seen; local imports read the patched module attribute at call time.
Spans (name, job, start, end, parent) stay in memory until the run ends.
A layer's self time is a span's duration minus its child spans'.  Work
counts come from arguments and return values only.
"""

from __future__ import annotations

import importlib
import time

# Which end-to-end metric each layer's metrics should move, on which
# workload; printed with every traced run.
SHOULD_MOVE = {
    "trees.expand": "wall_s, job_p90_s, peak_rss_mb on above-synth; flat on cayley-balls",
    "branching.min_cut, max_flow, cut_weight": "wall_s, job_p90_s on above-synth; "
                                               "flat on below-decide",
    "branching.br, br_bracket, certificate": "decided_frac on below-decide",
    "game.synthesize": "wall_s, job_p90_s, ok_frac on above-synth",
    "game.feasibility": "wall_s, job_p90_s, decided_frac, ok_frac on below-decide; "
                        "flat on above-synth",
    "game.simulate": "wall_s on above-synth and cayley-balls; job_p50_s on below-decide",
    "oracle.brute_force": "wall_s, job_p50_s on below-decide",
    "cayley.*": "wall_s, job_p90_s, peak_rss_mb on cayley-balls",
    "cli.main": "job_p50_s on every workload",
    "*.errors, jobs.timeouts": "ok_frac on every workload",
}

MODULES = ("firebreak", "firebreak.trees", "firebreak.branching", "firebreak.game",
           "firebreak.oracle", "firebreak.cayley", "firebreak.cli")
LAYERS = ("trees", "branching", "game", "oracle", "cayley")


def _n(trunc) -> int:
    return trunc.n_vertices


def _free(args, kwargs, ret) -> dict:
    trunc, x0 = args[0], args[1] if len(args) > 1 else kwargs.get("x0")
    return {"free_vertices": trunc.n_vertices - len(set(x0))} if isinstance(
        x0, (list, tuple, set, frozenset)) else {}


def _synth(args, kwargs, ret) -> dict:
    radius = args[2] if len(args) > 2 else kwargs["radius"]
    return {"depths_tried": ret.depth - radius, "returned_vertices": ret.trunc.n_vertices}


def _feasibility(args, kwargs, ret) -> dict:
    radius = args[1] if len(args) > 1 else kwargs["radius"]
    depth = args[3] if len(args) > 3 else kwargs["depth"]
    return {"coords": depth - radius}


def _simulate(args, kwargs, ret) -> dict:
    return {"rounds": ret.round_no, "status_bytes": args[0].n_vertices * ret.round_no}


# (module, function, span name, counts from (args, kwargs, return value))
TRACED = [
    ("trees", "expand", "trees.expand", lambda a, kw, r: {"vertices": _n(r)}),
    ("branching", "min_cut_weight", "branching.min_cut", lambda a, kw, r: {"vertices": _n(a[0])}),
    ("branching", "min_cutset", "branching.min_cut", lambda a, kw, r: {"vertices": _n(a[0])}),
    ("branching", "max_flow", "branching.max_flow", lambda a, kw, r: {"vertices": _n(a[0])}),
    ("branching", "cut_weight", "branching.cut_weight", None),
    ("branching", "br_exact_periodic", "branching.br", None),
    ("branching", "br_bracket", "branching.br_bracket", lambda a, kw, r: {"probes": len(r.probes)}),
    ("branching", "lower_bound_certificate", "branching.certificate", None),
    ("branching", "check_certificate", "branching.certificate", None),
    ("game", "synthesize_cutset_strategy", "game.synthesize", _synth),
    ("game", "feasibility_check", "game.feasibility", _feasibility),
    ("game", "simulate", "game.simulate", _simulate),
    ("oracle", "brute_force_containment", "oracle.brute_force", _free),
    ("cayley", "ball", "cayley.ball", lambda a, kw, r: {"vertices": r.n_vertices}),
    ("cayley", "lex_min_tree", "cayley.lex_min_tree", None),
    ("cayley", "growth_rate_estimate", "cayley.growth", None),
    ("cayley", "wait_and_surround", "cayley.surround", None),
    ("cayley", "polynomial_probe", "cayley.polyprobe", None),
    ("cli", "main", "cli.main", None),
]


class Span:
    __slots__ = ("name", "job", "start", "end", "parent", "counts", "error", "child_s")

    def __init__(self, name, job, parent):
        self.name, self.job, self.parent = name, job, parent
        self.counts, self.error, self.child_s = {}, None, 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans while ``enabled``; otherwise the wrappers only call
    through.  ``timeout_type`` marks the deadline exception, which counts
    as a timeout and not as a layer error."""

    def __init__(self, timeout_type: type):
        self.timeout_type = timeout_type
        self.enabled = False
        self.job = None
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._seen_errors: set[int] = set()
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        mods = {name: importlib.import_module(name) for name in MODULES}
        for layer, func, span_name, counter in TRACED:
            original = getattr(mods[f"firebreak.{layer}"], func)
            wrapper = self._wrap(original, span_name, counter)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, tracer.job, parent)
            tracer._stack.append(span)
            span.start = time.perf_counter()
            try:
                ret = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = "timeout" if isinstance(exc, tracer.timeout_type) else (
                    None if id(exc) in tracer._seen_errors else type(exc).__name__)
                tracer._seen_errors.add(id(exc))
                raise
            else:
                if counter is not None:
                    span.counts = counter(args, kwargs, ret)
                return ret
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                tracer.spans.append(span)

        traced.__wrapped__ = fn
        return traced

    def end_job(self) -> None:
        self._seen_errors.clear()


def layer_metrics(spans: list[Span], weight: dict[str, float]) -> dict[str, float]:
    """Per-layer totals, each span counted with its job's ``weight``."""
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value * w

    expanded_in: dict[int, int] = {}  # synthesize span id -> vertices expanded
    for span in spans:
        w = weight[span.job]
        add(f"{span.name}.calls", 1)
        add(f"{span.name}.self_s", span.self_s)
        for key, value in span.counts.items():
            if key != "returned_vertices":
                add(f"{span.name}.{key}", value)
        if span.error and span.error != "timeout":
            add(f"{span.name.split('.')[0]}.errors", 1)
        if span.name == "trees.expand":
            up = span.parent
            while up is not None and up.name != "game.synthesize":
                up = up.parent
            if up is not None:
                expanded_in[id(up)] = expanded_in.get(id(up), 0) + span.counts.get("vertices", 0)
    done = [s for s in spans if "returned_vertices" in s.counts]
    returned = sum(s.counts["returned_vertices"] for s in done)
    expanded = sum(expanded_in.get(id(s), 0) for s in done)
    metrics = dict(out)
    metrics["game.synthesize.useful_ratio"] = returned / expanded if expanded else 0.0
    for layer in LAYERS:
        metrics.setdefault(f"{layer}.errors", 0.0)
    return metrics
