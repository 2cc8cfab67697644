"""Logic programs with nested expressions: tightness, completion, solving."""

from .syntax import (
    And,
    ArityWarning,
    Atom,
    Bottom,
    FALSE,
    Formula,
    Literal,
    Not,
    Or,
    ParseError,
    Program,
    Rule,
    Top,
    TRUE,
    atom_key,
    complement,
    conj_of,
    disj_of,
    eliminate_classical_negation,
    format_literal_set,
    is_normal,
    literal_key,
    merge_programs,
    parse_literals,
    parse_program,
    positive_literals,
    regular_literals,
    render,
    render_formula,
    render_rule,
    term_key,
)
from .semantics import (
    AnswerSetChecker,
    CapacityError,
    EnumerationBoundError,
    enumerate_answer_sets_bruteforce,
    is_answer_set,
    is_closed,
    is_consistent,
    satisfies,
)
from .completion import (
    Completion,
    completion,
    render_completion,
)
from .tightness import (
    Digraph,
    is_absolutely_tight,
    is_tight_on,
    lambda_witness,
    parent_graph,
    positive_dependency_graph,
)
from .sat import (
    Cnf,
    CompletionSolveResult,
    ModelCapError,
    SolveReport,
    SolveStats,
    TAG_ABSOLUTELY_TIGHT,
    TAG_TIGHT_ON_MODEL,
    TAG_VERIFIED,
    answer_sets_via_completion,
    clausify,
    solve_all,
    to_dimacs,
)
from .transitive_closure import (
    DefSpec,
    TightnessPreservationReport,
    check_constrained_acyclicity,
    check_tightness_preservation,
    def_rules,
    is_wellfounded,
    p_extent,
)
from .generators import (
    BlocksSpec,
    QueensSpec,
    blocksworld_program,
    queens_program,
)

__version__ = "0.1.0"
