"""Cost monoids: the algebra every charged computation accumulates into.

A cost model is a monoid plus two capability flags. Commutativity licenses
combining the costs of parallel states (multi-input/multi-output methods);
a partial order licenses colax (inequality) verification. Verification is
exact, so costs compare by structural equality: integers stay integers and
rationals are `fractions.Fraction` values, normalized by construction.
"""

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class CostMonoid:
    """A monoid of costs with optional commutativity and order capabilities.

    `leq` is present iff the monoid is ordered; `numeric` marks models whose
    values support subtraction (used only for slack reporting).
    """

    name: str
    identity: Any
    combine: Callable[[Any, Any], Any]
    is_commutative: bool
    leq: Optional[Callable[[Any, Any], bool]] = None
    numeric: bool = False

    @property
    def ordered(self) -> bool:
        return self.leq is not None

    def __repr__(self) -> str:
        return f"CostMonoid({self.name})"


def _concat(a: str, b: str) -> str:
    return a + b


def _add_fractions(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(a) + Fraction(b)


# Non-negative integers under addition.
NAT_COST = CostMonoid("nat", 0, operator.add, True, operator.le, numeric=True)

# All integers under addition (potentials may not be representable here
# as non-negative values; the classic signed cost model).
INT_COST = CostMonoid("int", 0, operator.add, True, operator.le, numeric=True)

# Finite strings under concatenation: the buffering cost model. Neither
# commutative nor ordered, so no tensoring and no colax checking.
TRACE_COST = CostMonoid("trace", "", _concat, False, None, numeric=False)

# Exact non-negative rationals under addition; the expected-cost model.
RATIONAL_COST = CostMonoid(
    "rational", Fraction(0), _add_fractions, True, operator.le, numeric=True
)
