"""Firefighter containment on infinite trees and Cayley graphs.

Core surfaces: finite tree descriptions and truncations (``trees``), cut
and flow machinery with branching numbers and non-containment certificates
(``branching``), the game engine with feasibility decisions and strategy
synthesis (``game``), brute-force oracles (``oracle``), the group model and
growth (``cayley``), and the command-line front end (``cli``).
"""

__version__ = "0.1.0"

from .branching import (
    BracketResult,
    Cutset,
    FlowAssignment,
    LowerBoundCertificate,
    br_bracket,
    br_exact_periodic,
    check_certificate,
    cut_weight,
    lower_bound_certificate,
    max_flow,
    min_cut_weight,
    min_cutset,
)
from .cayley import (
    CayleyBall,
    GraphProduct,
    GrowthEstimate,
    ProbeReport,
    SurroundResult,
    ball as cayley_ball,
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
    FeasibilityResult,
    GameState,
    ScheduleStrategy,
    SynthesisResult,
    Verdict,
    feasibility_check,
    feasibility_decision,
    feasibility_rows,
    format_trace,
    parse_trace,
    run_game,
    simulate,
    step,
    synthesize_cutset_strategy,
)
from .oracle import (
    OracleCache,
    OracleDecision,
    brute_force_containment,
    oracle_key,
)
from .trees import (
    ExplicitSpec,
    PeriodicSpec,
    SymmetricSpec,
    Truncation,
    expand,
    format_tree_spec,
    level_counts,
    load_tree_spec,
    parse_tree_spec,
)
