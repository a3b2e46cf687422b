"""Cost monoids: the algebra every charged computation accumulates into.

A cost model is a monoid plus two capabilities. Commutativity licenses
combining the costs of parallel states (multi-input/multi-output methods);
an order licenses colax (inequality) verification and slack, lhs − rhs
cost, so an ordered model's costs must subtract. Every model here adds
with `+` (`operator.add`), so combining converts nothing: a cost keeps its
type, and costs compare by structural equality.
"""

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class CostMonoid:
    """A monoid of costs with optional commutativity and order capabilities.

    `leq` is present iff the monoid is ordered, and then slack is reported.
    """

    name: str
    identity: Any
    combine: Callable[[Any, Any], Any]
    is_commutative: bool
    leq: Optional[Callable[[Any, Any], bool]] = None

    @property
    def ordered(self) -> bool:
        return self.leq is not None

    def __repr__(self) -> str:
        return f"CostMonoid({self.name})"


# Non-negative integers under addition.
NAT_COST = CostMonoid("nat", 0, operator.add, True, operator.le)

# All integers under addition (potentials may not be representable here
# as non-negative values; the classic signed cost model).
INT_COST = CostMonoid("int", 0, operator.add, True, operator.le)

# Finite strings under concatenation: the buffering cost model. Neither
# commutative nor ordered, so no tensoring and no colax checking.
TRACE_COST = CostMonoid("trace", "", operator.add, False)

# Exact non-negative rationals under addition; the expected-cost model.
RATIONAL_COST = CostMonoid("rational", Fraction(0), operator.add, True, operator.le)
