"""recsolve: guess-and-check solving of constrained recurrence relations.

The guess stage fits a sparse linear model (Lasso with cross-validated
penalty, from exact moments; epsilon-pruning; exact least-squares refit)
over a dictionary of base functions evaluated on sampled inputs; the
check stage encodes the recurrence with the candidate substituted in and
certifies it in SMT-LIB2, through an external solver or the in-process
prover.  recsolve needs nothing beyond the standard library.
"""

from .expr import (
    ClosedForm, Constraint, Expr, Piece, compile_expr, eval_expr, simplify,
    to_text,
)
from .parser import ParseError, parse_constraint, parse_expression, parse_recurrence
from .recurrence import (
    EvalLimits, EvalOutcome, GuardFallthrough, LimitExceeded, RecurrenceDef,
    Value, eval_closed_form, eval_fun, load_recurrence,
)
from .sampling import SampleConfig, TrainingSet, default_base_set
from .regression import RegressionConfig, guess
from .checker import (
    CheckVerdict, Refuted, SolverConfig, Unknown, Verified, check_solution,
    entails, resolve_solver,
)
from .pipeline import SolveConfig, SolveReport, solve

__version__ = "0.1.0"
