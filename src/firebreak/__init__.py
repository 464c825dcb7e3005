"""Firefighter containment on infinite trees and Cayley graphs.

Core surfaces: finite tree descriptions and truncations (``trees``), cut
and flow machinery with branching numbers and non-containment certificates
(``branching``), the game engine with feasibility decisions and strategy
synthesis (``game``), brute-force oracles (``oracle``), the group model and
growth (``cayley``), and the command-line front end (``cli``).

Importing the package loads none of them: every name in ``__all__`` is
imported from its module on first access (PEP 562), so a process loads
only the layers it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in {
    "branching": "BracketResult Cutset FlowAssignment LowerBoundCertificate br_bracket "
                 "br_exact_periodic check_certificate cut_weight lower_bound_certificate "
                 "max_flow min_cut_weight min_cutset",
    "cayley": "CayleyBall GraphProduct GrowthEstimate ProbeReport SurroundResult cayley_ball "
              "group_from_name growth_rate_estimate lex_min_tree polynomial_probe "
              "wait_and_surround",
    "errors": "ResourceLimitError SpecError StrategyFault SurroundCapError SynthesisError",
    "game": "BudgetSequence CanonicalStrategy FeasibilityResult GameState ScheduleStrategy "
            "SynthesisResult Verdict feasibility_check feasibility_decision feasibility_rows "
            "format_trace parse_trace run_game simulate step synthesize_cutset_strategy",
    "oracle": "OracleCache OracleDecision brute_force_containment oracle_key",
    "trees": "ExplicitSpec PeriodicSpec SymmetricSpec Truncation expand format_tree_spec "
             "level_counts load_tree_spec parse_tree_spec",
}.items() for name in names.split()}
__all__ = sorted(_EXPORTS)
_RENAMED = {"cayley_ball": "ball"}  # exported name -> its module's name


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    value = getattr(module, _RENAMED.get(name, name))
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
