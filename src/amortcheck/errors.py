"""Exception types shared across the verification pipeline."""


class AmortError(Exception):
    """Base class for all verification-layer errors."""


class NonCommutativeTensor(AmortError):
    """Combining costs of parallel states needs a commutative cost monoid."""


class BadWeights(AmortError):
    """Distribution weights must be positive exact rationals summing to 1."""


class ArityMismatch(AmortError):
    """Input states, an argument or an outcome do not fit the method signature.

    An argument outside the domain is refused by `MethodSig.admits`, the one
    membership rule for squares, trace steps and substrate calls."""


class UnknownMethod(AmortError):
    """Method name absent from a coalgebra's methods."""


class OrderUnavailable(AmortError):
    """Colax (inequality) checking needs an ordered cost monoid."""


class UnsupportedArity(AmortError):
    """Operation restricted to 1-in/1-out methods (trace files, traces,
    pairing, translations, substrate calls), refused by
    `Coalgebra.step_method` with one message; a law that branches where one
    outcome is due is an `ArityMismatch` instead."""


class StepBudgetExceeded(AmortError):
    """A translation program exceeded its substrate-call budget."""


class StateInvariantViolation(AmortError):
    """A seed or explored successor state broke the carrier invariant."""


class TraceParseError(AmortError):
    """Malformed trace file; carries a line/column diagnostic."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
