"""Monoid laws and capability flags of the shipped cost models.

A model's costs carry its algebra: they add with `+` from the model's
identity and, in an ordered model, compare with `<=`.
"""

import dataclasses
import operator
import random
from fractions import Fraction
from functools import reduce

import pytest

from amortcheck import INT_COST, NAT_COST, RATIONAL_COST, TRACE_COST, CostMonoid


def _nat_gen(rng):
    return rng.randrange(0, 100)


def _int_gen(rng):
    return rng.randrange(-100, 100)


def _trace_gen(rng):
    return "".join(rng.choice("ab") for _ in range(rng.randrange(0, 6)))


def _rational_gen(rng):
    return Fraction(rng.randrange(0, 60), rng.randrange(1, 12))


GENS = {
    NAT_COST.name: (NAT_COST, _nat_gen),
    INT_COST.name: (INT_COST, _int_gen),
    TRACE_COST.name: (TRACE_COST, _trace_gen),
    RATIONAL_COST.name: (RATIONAL_COST, _rational_gen),
}


@pytest.mark.parametrize("name", sorted(GENS))
def test_monoid_laws_on_generated_triples(name):
    monoid, gen = GENS[name]
    rng = random.Random(20240801)
    for _ in range(1000):
        a, b, c = gen(rng), gen(rng), gen(rng)
        assert monoid.identity + a == a
        assert a + monoid.identity == a
        assert (a + b) + c == a + (b + c)
        if monoid.is_commutative:
            assert a + b == b + a


def test_a_cost_monoid_states_its_identity_and_two_capabilities():
    # The operation and the order are the costs' own, so no field names them.
    fields = [f.name for f in dataclasses.fields(CostMonoid)]
    assert fields == ["name", "identity", "is_commutative", "ordered"]
    assert [m.ordered for m in (NAT_COST, INT_COST, TRACE_COST, RATIONAL_COST)] == [
        True, True, False, True
    ]


def test_every_model_adds_with_plus():
    # `+` converts nothing: a float or a string stays what it is.
    assert type(RATIONAL_COST.identity + 0.1) is float
    with pytest.raises(TypeError):
        RATIONAL_COST.identity + "1/2"


def test_trace_cost_is_not_commutative():
    assert not TRACE_COST.is_commutative
    assert "a" + "b" != "b" + "a"
    assert not TRACE_COST.ordered


@pytest.mark.parametrize("name", ["nat", "int", "rational"])
def test_leq_is_an_order_and_monotone(name):
    monoid, gen = GENS[name]
    rng = random.Random(99)
    for _ in range(1000):
        a, b, c = gen(rng), gen(rng), gen(rng)
        assert a <= a
        if a <= b and b <= a:
            assert a == b
        if a <= b and b <= c:
            assert a <= c
        if a <= b:
            assert c + a <= c + b
            assert a + c <= b + c


def combine_all(monoid, costs):
    """Left-to-right fold of `+` from the identity."""
    return reduce(operator.add, costs, monoid.identity)


def test_combine_all_examples():
    assert combine_all(NAT_COST, []) == 0
    assert combine_all(NAT_COST, [3, 5, 8]) == 16
    assert combine_all(TRACE_COST, ["ab", "c"]) == "abc"


def test_combine_all_order_matters_for_trace():
    assert combine_all(TRACE_COST, ["c", "ab"]) == "cab"


def test_rational_costs_are_exact_reduced_fractions():
    total = combine_all(RATIONAL_COST, [Fraction(1, 3)] * 3)
    assert total == 1
    assert isinstance(total, Fraction)
    assert (Fraction(2, 4)).numerator == 1  # normalized on construction
