"""Bound-founded answer set solving.

Modeling language frontend, grounder, and stable-model search for programs
mixing standard (free) variables with founded variables that take the least
values their rules justify.
"""

from .analysis import (
    Monotonicity,
    PositiveCP,
    ReductBuilder,
    RuleViolation,
    build_reduct,
    guess_set,
    is_tautology,
    monotonicity,
    validate_positive_cp,
    validate_rule,
)
from .errors import BfaspError, FormatError, GroundingError, ParseError, SolveError
from .fixpoint import clause_requirement, minimal_model, satisfied_at
from .ground_format import (
    format_assignment,
    format_clause,
    format_program,
    parse_assignment,
    parse_ground_program,
)
from .grounder import ground
from .parser import parse_data, parse_model
from .program import (
    NEG_INF,
    POS_INF,
    Clause,
    LinearAtom,
    LinearExpr,
    Literal,
    Program,
    Rule,
    Sort,
    Truth,
    VarKind,
    Variable,
    eval_clause,
    eval_linear,
    eval_linear_expr,
    failing_constraint,
    format_value,
    satisfies,
    validate_program,
    validate_valuation,
)
from .solver import (
    OptimizeOutcome,
    PropagationLevel,
    Search,
    SearchConfig,
    SearchStats,
    SearchStatus,
    StabilityReason,
    StabilityVerdict,
    ValueOrder,
    check_stable,
    enumerate_stable,
    optimize,
)

__version__ = "0.1.0"
