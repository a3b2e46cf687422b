"""Monoid laws and capability flags of the shipped cost models."""

import operator
import random
from fractions import Fraction
from functools import reduce

import pytest

from amortcheck import INT_COST, NAT_COST, RATIONAL_COST, TRACE_COST


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
        assert monoid.combine(monoid.identity, a) == a
        assert monoid.combine(a, monoid.identity) == a
        assert monoid.combine(monoid.combine(a, b), c) == monoid.combine(
            a, monoid.combine(b, c)
        )
        if monoid.is_commutative:
            assert monoid.combine(a, b) == monoid.combine(b, a)


def test_every_model_adds_with_plus():
    # `+` converts nothing: a float or a string stays what it is.
    assert all(monoid.combine is operator.add for monoid, _gen in GENS.values())
    assert type(RATIONAL_COST.combine(Fraction(0), 0.1)) is float
    with pytest.raises(TypeError):
        RATIONAL_COST.combine(Fraction(0), "1/2")


def test_trace_cost_is_not_commutative():
    assert not TRACE_COST.is_commutative
    assert TRACE_COST.combine("a", "b") != TRACE_COST.combine("b", "a")
    assert TRACE_COST.leq is None


@pytest.mark.parametrize("name", ["nat", "int", "rational"])
def test_leq_is_an_order_and_monotone(name):
    monoid, gen = GENS[name]
    rng = random.Random(99)
    for _ in range(1000):
        a, b, c = gen(rng), gen(rng), gen(rng)
        assert monoid.leq(a, a)
        if monoid.leq(a, b) and monoid.leq(b, a):
            assert a == b
        if monoid.leq(a, b) and monoid.leq(b, c):
            assert monoid.leq(a, c)
        if monoid.leq(a, b):
            assert monoid.leq(monoid.combine(c, a), monoid.combine(c, b))
            assert monoid.leq(monoid.combine(a, c), monoid.combine(b, c))


def combine_all(monoid, costs):
    """Left-to-right fold of `combine` from the identity."""
    return reduce(monoid.combine, costs, monoid.identity)


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
