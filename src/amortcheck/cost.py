"""Cost monoids: the algebra every charged computation accumulates into.

A cost model is a monoid (C, +, identity) whose costs carry their own
algebra: they add with `+` and, in an ordered model, compare with `<=`,
subtract for slack (lhs − rhs cost) and scale by exact weights. So a
`CostMonoid` states only what differs between models: its identity and
two capabilities. Commutativity licenses combining the costs of parallel
states (multi-input/multi-output methods); an order licenses colax
(inequality) verification and slack. A model whose operation is not a
built-in `+` is a cost type with its own `__add__` (and `__le__` and
`__sub__` if ordered). Adding converts nothing: a cost keeps its type, and
costs compare by structural equality.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Any


@dataclass(frozen=True)
class CostMonoid:
    """A monoid of costs, `+` from `identity`, with its two capabilities.

    When `ordered`, costs compare with `<=` and slack is reported.
    """

    name: str
    identity: Any
    is_commutative: bool
    ordered: bool


# Non-negative integers under addition.
NAT_COST = CostMonoid("nat", 0, True, True)

# All integers under addition (potentials may not be representable here
# as non-negative values; the classic signed cost model).
INT_COST = CostMonoid("int", 0, True, True)

# Finite strings under concatenation: the buffering cost model. Neither
# commutative nor ordered, so no tensoring and no colax checking.
TRACE_COST = CostMonoid("trace", "", False, False)

# Exact non-negative rationals under addition; the expected-cost model.
RATIONAL_COST = CostMonoid("rational", Fraction(0), True, True)
