"""Cost-instrumented values and the finite-distribution layer.

`Charged` pairs a value with accumulated cost; `bind` sequences two charged
steps, adding their costs left to right with the costs' own `+`. `tensor`
is the one monoidal product of independent charged values (Φ images).

Randomization is one more effect in the same algebra: `expect` collapses a
finite weighted family of charged outcomes into a `Charged` whose cost is
the exact expected cost and whose value is the outcome `Dist`, validated
and made canonical as it is built; the square engine weighs Φ through it
too, so no expected cost is formed elsewhere. Weights are exact rationals
and nothing is sampled, so every verdict is reproducible.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, Tuple

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


def bind(a: Charged, f: Callable[[Any], Charged]) -> Charged:
    """Sequence `a` then `f`, adding cost left to right."""
    b = f(a.value)
    return Charged(a.cost + b.cost, b.value)


def tensor(monoid: CostMonoid, *images: Charged) -> Charged:
    """The monoidal product: costs add from the identity in slot order and
    the values form one tuple. Parallel costs have no order, so two or more
    images need a commutative monoid (`NonCommutativeTensor`)."""
    if len(images) > 1 and not monoid.is_commutative:
        raise NonCommutativeTensor(f"tensor needs a commutative cost monoid, got {monoid.name}")
    total = monoid.identity
    for ch in images:
        total = total + ch.cost
    return Charged(total, tuple(ch.value for ch in images))


@dataclass(frozen=True, init=False)
class Dist:
    """A finitely-supported distribution, canonical by construction.

    `Dist(branches)` takes (weight, outcome) pairs. Weights must be exact,
    of type `int` or `Fraction` (not ``0.5`` or ``True``), positive and sum
    to 1, else `BadWeights`. Outcomes with equal typed encodings are merged
    and branches sorted by that encoding, so every `Dist` is a valid law in
    canonical form. Equality and hash read the (encoding, weight) pairs,
    not the outcomes by ``==``: a law observing ``True`` is not one
    observing ``1``.
    """

    branches: Tuple[Tuple[Fraction, Any], ...] = field(compare=False)
    _key: Tuple[Tuple[str, Fraction], ...] = field(init=False, repr=False)

    def __init__(self, branches: Iterable[Tuple[Any, Any]]):
        merged, outcomes = {}, {}
        for w, x in branches:
            if type(w) is not int and type(w) is not Fraction:
                raise BadWeights(f"inexact weight {w!r}")
            w = Fraction(w)
            if w <= 0:
                raise BadWeights(f"non-positive weight {w}")
            key = encode(x)
            merged[key] = merged.get(key, 0) + w
            outcomes[key] = x
        if sum(merged.values()) != 1:
            raise BadWeights("weights must sum exactly to 1")
        object.__setattr__(self, "_key", tuple(sorted(merged.items())))
        object.__setattr__(self, "branches", tuple((w, outcomes[k]) for k, w in self._key))


def expect(branches: Iterable[Tuple[Any, Charged]]) -> Charged:
    """Collapse weighted charged branches to expected cost and outcome law.

    This realizes the map from a distribution of (cost, outcome) pairs to
    a `Charged` of the expected cost and the `Dist` of outcomes. Costs are
    weighed as given, ``Fraction(w) * cost``, and never converted: exact
    costs give an exact expectation, and a cost no weight can scale (a
    ``trace`` string) raises `BadWeights`. The branches are read once, so
    an iterator or a generator gives what a list does.
    """
    branches = tuple(branches)
    dist = Dist((w, ch.value) for w, ch in branches)
    expected = Fraction(0)
    for w, ch in branches:
        try:
            expected += Fraction(w) * ch.cost
        except TypeError:
            raise BadWeights(f"weight {w} cannot scale the cost {ch.cost!r}") from None
    return Charged(expected, dist)
