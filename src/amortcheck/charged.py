"""Cost-instrumented values and the finite-distribution layer.

`Charged` pairs a value with accumulated cost; `bind` sequences two charged
steps, combining their costs left to right in the ambient monoid. `tensor`
combines independent charged values and therefore demands commutativity.

Randomization is one more effect in the same algebra: `expect` collapses a
finite weighted family of charged outcomes into a `Charged` whose cost is
the exact expected cost and whose value is the outcome `Dist`, validated
and made canonical as it is built. Weights are exact rationals and nothing
is sampled, so every verdict is reproducible.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence, Tuple

from .cost import CostMonoid
from .encoding import encode
from .errors import BadWeights, NonCommutativeTensor


@dataclass(frozen=True, slots=True, init=False)
class Charged:
    """A value of type A together with the cost spent producing it.

    A randomized computation is a `Charged` too: its cost is the expected
    cost and its value the outcome law, a `Dist` (see `expect`).

    `init=False`: every transition builds one, and this `__init__`, which
    stores through the slot descriptors, takes about half the time of the
    generated frozen one. Assignment still raises `FrozenInstanceError`.
    """

    cost: Any
    value: Any

    def __init__(self, cost: Any, value: Any):
        _set_cost(self, cost)
        _set_value(self, value)


_set_cost, _set_value = Charged.cost.__set__, Charged.value.__set__


#: Instrument a value with units of abstract cost: ``charge(cost, value)``.
charge = Charged


def unit(monoid: CostMonoid, value: Any) -> Charged:
    """The free (zero-cost) charged value."""
    return Charged(monoid.identity, value)


def bind(monoid: CostMonoid, a: Charged, f: Callable[[Any], Charged]) -> Charged:
    """Sequence `a` then `f`, accumulating cost left to right."""
    b = f(a.value)
    return Charged(monoid.combine(a.cost, b.cost), b.value)


def tensor(monoid: CostMonoid, a: Charged, b: Charged) -> Charged:
    """Combine two independent charged values into a charged pair.

    Only meaningful when cost order does not matter, so non-commutative
    monoids are rejected.
    """
    if not monoid.is_commutative:
        raise NonCommutativeTensor(
            f"tensor needs a commutative cost monoid, got {monoid.name}"
        )
    return Charged(monoid.combine(a.cost, b.cost), (a.value, b.value))


@dataclass(frozen=True, init=False)
class Dist:
    """A finitely-supported distribution, canonical by construction.

    `Dist(branches)` takes (weight, outcome) pairs. Weights must be exact,
    positive and sum to 1, else `BadWeights`. Equal outcomes (by typed
    encoding) are merged and branches sorted by that encoding, so every
    `Dist` is a valid law in canonical form and equality is structural.
    """

    branches: Tuple[Tuple[Fraction, Any], ...]

    def __init__(self, branches: Iterable[Tuple[Any, Any]]):
        merged, outcomes = {}, {}
        for w, x in branches:
            w = Fraction(w)
            if w <= 0:
                raise BadWeights(f"non-positive weight {w}")
            key = encode(x)
            merged[key] = merged.get(key, 0) + w
            outcomes[key] = x
        if sum(merged.values()) != 1:
            raise BadWeights("weights must sum exactly to 1")
        ordered = tuple((merged[k], outcomes[k]) for k in sorted(merged))
        object.__setattr__(self, "branches", ordered)

    def is_point(self) -> bool:
        return len(self.branches) == 1


def expect(branches: Sequence[Tuple[Any, Charged]]) -> Charged:
    """Collapse weighted charged branches to expected cost and outcome law.

    This realizes the map from a distribution of (cost, outcome) pairs to
    a `Charged` of the expected cost and the `Dist` of outcomes. Costs must
    live in the rational cost model so the expectation is exact.
    """
    dist = Dist((w, ch.value) for w, ch in branches)
    expected = sum((Fraction(w) * Fraction(ch.cost) for w, ch in branches), Fraction(0))
    return Charged(expected, dist)
