"""amortcheck: mechanical verification of amortized-cost claims.

Data structures are modeled as cost-instrumented coalgebras; a potential
morphism maps implementation states to charged specification states. The
checker verifies the amortization square pointwise over an explored state
space (exactly, or up to a cost inequality) and the telescoped identity
over traces.
"""

from .charged import Charged, Dist, bind, charge, expect, tensor, unit
from .checker import (
    Report,
    SquareCheck,
    Trace,
    TraceMismatch,
    Verdict,
    check_square,
    check_trace,
    explore,
    parse_trace,
    random_trace,
)
from .coalgebra import (
    STOP,
    UNIT,
    Coalgebra,
    Continue,
    Method,
    MethodSig,
    Mode,
    NamedFn,
    PotentialMorphism,
    StateDomain,
    Stop,
    VerificationCase,
)
from .compose import (
    ProgramMethod,
    SubstrateRun,
    compose_phi,
    pair_cases,
    translate,
)
from .cost import INT_COST, NAT_COST, RATIONAL_COST, TRACE_COST, CostMonoid
from .errors import (
    AmortError,
    ArityMismatch,
    BadWeights,
    NonCommutativeTensor,
    OrderUnavailable,
    StateInvariantViolation,
    StepBudgetExceeded,
    TraceParseError,
    UnknownMethod,
    UnsupportedArity,
)
from .registry import get_case, registered_names

__version__ = "0.1.0"
