"""Charged values: sequencing, tensoring, and the expected-cost layer."""

import copy
import dataclasses
import itertools
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from amortcheck import (
    STOP,
    BadWeights,
    Charged,
    Continue,
    Dist,
    NAT_COST,
    NonCommutativeTensor,
    TRACE_COST,
    bind,
    charge,
    expect,
    tensor,
)
from amortcheck.encoding import encode

nat_costs = st.integers(min_value=0, max_value=50)
trace_costs = st.text(alphabet="ab", max_size=4)
values = st.integers(min_value=-5, max_value=5)


def test_charge_examples():
    assert charge(0, "x") == Charged(0, "x")
    assert charge(8, 7) == Charged(8, 7)  # the allocator's expensive step
    assert charge("chunk", "rest") == Charged("chunk", "rest")


def test_bind_examples():
    ret = lambda v: Charged(NAT_COST.identity, v)
    assert bind(charge(0, "x"), ret) == charge(0, "x")
    assert bind(charge(3, "x"), lambda _: charge(5, "y")) == charge(8, "y")
    got = bind(charge("ab", "x"), lambda _: charge("c", "y"))
    assert got == charge("abc", "y")


@given(nat_costs, values)
def test_monad_left_unit(c, v):
    f = lambda x: charge(c, x + 1)
    assert bind(Charged(NAT_COST.identity, v), f) == f(v)


@given(nat_costs, values)
def test_monad_right_unit(c, v):
    m = charge(c, v)
    assert bind(m, lambda x: Charged(NAT_COST.identity, x)) == m


@given(trace_costs, trace_costs, trace_costs, values)
def test_monad_associativity_including_non_commutative(c1, c2, c3, v):
    m = charge(c1, v)
    f = lambda x: charge(c2, x + 1)
    g = lambda x: charge(c3, x * 2)
    lhs = bind(bind(m, f), g)
    rhs = bind(m, lambda x: bind(f(x), g))
    assert lhs == rhs


def test_tensor_examples():
    assert tensor(NAT_COST, charge(0, "x"), charge(0, "y")) == charge(0, ("x", "y"))
    assert tensor(NAT_COST, charge(3, "x"), charge(4, "y")) == charge(7, ("x", "y"))
    with pytest.raises(NonCommutativeTensor):
        tensor(TRACE_COST, charge("a", "x"), charge("b", "y"))


def test_tensor_of_no_image_or_one_never_refuses():
    assert tensor(NAT_COST) == charge(0, ())
    assert tensor(TRACE_COST) == charge("", ())
    assert tensor(NAT_COST, charge(3, "x")) == charge(3, ("x",))
    assert tensor(TRACE_COST, charge("ab", "x")) == charge("ab", ("x",))
    three = charge(1, "x"), charge(2, "y"), charge(3, "z")
    assert tensor(NAT_COST, *three) == charge(6, ("x", "y", "z"))
    message = r"^tensor needs a commutative cost monoid, got trace$"
    with pytest.raises(NonCommutativeTensor, match=message):
        tensor(TRACE_COST, charge("a", "x"), charge("b", "y"), charge("c", "z"))


@given(nat_costs, nat_costs, values, values)
def test_tensor_cost_is_symmetric(c1, c2, v1, v2):
    a, b = charge(c1, v1), charge(c2, v2)
    assert tensor(NAT_COST, a, b).cost == tensor(NAT_COST, b, a).cost


def test_expect_degenerate_and_bernoulli():
    point = expect([(1, charge(Fraction(3), "x"))])
    assert point == Charged(Fraction(3), Dist([(1, "x")]))

    half = Fraction(1, 2)
    mean = expect([(half, charge(Fraction(1), "x")), (half, charge(Fraction(0), "x"))])
    assert type(mean) is Charged
    assert mean.cost == half
    assert mean.value == Dist([(1, "x")])
    split = expect([(half, charge(Fraction(1), "x")), (half, charge(Fraction(0), "y"))])
    assert split == Charged(half, Dist([(half, "x"), (half, "y")]))


def _binomial_expectation_by_enumeration(k: int, p: Fraction) -> Fraction:
    """Oracle: average the head-count over all 2^k coin sequences."""
    total = Fraction(0)
    for flips in itertools.product((0, 1), repeat=k):
        weight = Fraction(1)
        for f in flips:
            weight *= p if f else (1 - p)
        total += weight * sum(flips)
    return total


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 10])
@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)])
def test_expect_of_binomial_cost_matches_enumeration(k, p):
    oracle = _binomial_expectation_by_enumeration(k, p)
    assert oracle == k * p  # linearity of expectation, frozen
    branches = []
    for flips in itertools.product((0, 1), repeat=k):
        w = Fraction(1)
        for f in flips:
            w *= p if f else (1 - p)
        branches.append((w, charge(Fraction(sum(flips)), "done")))
    got = expect(branches)
    assert got == Charged(oracle, Dist([(1, "done")]))


def test_expect_rejects_bad_weights():
    with pytest.raises(BadWeights):
        expect([])
    with pytest.raises(BadWeights):
        expect([(Fraction(1, 2), charge(Fraction(0), "x"))])
    with pytest.raises(BadWeights):
        expect([(Fraction(0), charge(Fraction(0), "x")), (1, charge(Fraction(0), "y"))])
    # The constructor itself validates: no invalid law can exist.
    for branches in ([], [(Fraction(1, 2), "x")], [(0, "x"), (1, "y")], [(2, "x"), (-1, "y")]):
        with pytest.raises(BadWeights):
            Dist(branches)


@pytest.mark.parametrize(
    "branches", [[(0.5, "a"), (0.5, "b")], [(True, "a")]], ids=["float", "bool"]
)
def test_dist_refuses_a_weight_that_is_not_an_exact_int_or_fraction(branches):
    # 0.5 and True convert to exact fractions, but they are not exact weights.
    message = f"^inexact weight {re.escape(repr(branches[0][0]))}$"
    with pytest.raises(BadWeights, match=message):
        Dist(branches)
    with pytest.raises(BadWeights, match=message):
        expect([(w, charge(Fraction(0), x)) for w, x in branches])


def test_expect_weighs_costs_as_given():
    # A cost is scaled by its weight, not converted first: a float stays a
    # float, and a string is a cost no weight scales, not the number 3.
    half = Fraction(1, 2)
    exact = expect([(half, charge(1, "a")), (half, charge(Fraction(2), "b"))])
    assert type(exact.cost) is Fraction and exact.cost == Fraction(3, 2)
    inexact = expect([(half, charge(0.1, "a")), (half, charge(0.1, "b"))])
    assert type(inexact.cost) is float
    with pytest.raises(BadWeights, match=r"^weight 1/2 cannot scale the cost '3'$"):
        expect([(half, charge("3", "a")), (half, charge("3", "b"))])
    with pytest.raises(BadWeights, match=r"^weight 1 cannot scale the cost 'ab'$"):
        expect([(1, charge("ab", "a"))])


def test_expect_reads_its_branches_once():
    # A fair coin over costs 4 and 2: a one-shot iterable gives what a list does.
    half = Fraction(1, 2)
    coin = [(half, charge(4, "heads")), (half, charge(2, "tails"))]
    want = Charged(Fraction(3), Dist([(half, "heads"), (half, "tails")]))
    assert expect(coin) == want
    assert expect(iter(coin)) == want
    assert expect(branch for branch in coin) == want


@given(
    st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10), max_denominator=10),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)
def test_expect_is_linear_on_two_branch_mixtures(w, c1, c2, c3):
    a = [(Fraction(1, 2), charge(Fraction(c1), "x")), (Fraction(1, 2), charge(Fraction(c2), "y"))]
    b = [(Fraction(1), charge(Fraction(c3), "z"))]
    mixture = expect(
        [(w * wa, ch) for wa, ch in a] + [((1 - w) * wb, ch) for wb, ch in b]
    )
    ea, eb = expect(a), expect(b)
    assert mixture.cost == w * ea.cost + (1 - w) * eb.cost
    merged = Dist(
        [(w * wa, x) for wa, x in ea.value.branches]
        + [((1 - w) * wb, x) for wb, x in eb.value.branches]
    )
    assert mixture.value == merged


def test_dist_canonical_form_merges_and_orders():
    d1 = Dist([(Fraction(1, 4), "b"), (Fraction(1, 2), "a"), (Fraction(1, 4), "b")])
    d2 = Dist([(Fraction(1, 2), "b"), (Fraction(1, 2), "a")])
    assert d1 == d2
    assert d1.branches == ((Fraction(1, 2), "a"), (Fraction(1, 2), "b"))
    assert Dist(d1.branches) == d1
    assert dataclasses.replace(d1, branches=[(Fraction(1, 2), "b"), (Fraction(1, 2), "a")]) == d1
    assert Dist([(1, 3)]).branches == ((1, 3),)


def test_dist_equality_is_typed():
    # ``True == 1``, but a law observing True is not one observing 1.
    true, one = Dist([(1, Continue(True, (0,)))]), Dist([(1, Continue(1, (0,)))])
    assert true != one and len({true, one}) == 2
    assert true == Dist([(1, Continue(True, (0,)))])
    assert Dist([(1, 1.0)]) != Dist([(1, 1)])
    law = expect([(1, charge(0, Continue(1.5, (0,))))]).value
    assert law.branches == ((1, Continue(1.5, (0,))),)


@pytest.mark.parametrize(
    "cls, fields",
    [
        (Charged, (1, "x")),
        (Charged, (Fraction(1, 2), Dist([(1, "x")]))),
        (Continue, ("x", ("s",))),
    ],
    ids=["Charged", "ChargedDist", "Continue"],
)
def test_slotted_value_classes_keep_their_contract(cls, fields):
    a, b = cls(*fields), cls(*fields)
    assert not hasattr(a, "__dict__")
    assert a == b and hash(a) == hash(b)
    assert a != fields
    first = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(a, first, 7)
    assert dataclasses.replace(a, **{first: fields[0]}) == a
    moved = dataclasses.replace(a, **{first: 7})
    assert getattr(moved, first) == 7 and moved != a
    assert Charged(1, "x") != (1, "x")
    # The hand-written `__init__` keeps the generated one's signature.
    names = tuple(f.name for f in dataclasses.fields(cls))
    assert cls(**dict(zip(names, fields))) == a
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(twin) is cls and twin == a
    assert cls.__match_args__ == names
    shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, fields))
    assert repr(a) == f"{cls.__name__}({shown})"
    assert repr(Charged(1, "x")) == "Charged(cost=1, value='x')"
    with pytest.raises(TypeError):
        cls(fields[0])
    with pytest.raises(TypeError):
        cls(*fields, 7)
    with pytest.raises(TypeError):
        cls(*fields, extra=7)


def test_outcome_encoding_and_distribution_order_are_unchanged():
    assert encode(Continue(1, ("a",))) == 't(s"cont",i1,t(s"a"))'
    dist = Dist(
        [
            (Fraction(1, 2), Continue(2, ("b",))),
            (Fraction(1, 4), STOP),
            (Fraction(1, 4), Continue(1, ("a",))),
        ]
    )
    assert dist.branches == (
        (Fraction(1, 4), Continue(1, ("a",))),
        (Fraction(1, 2), Continue(2, ("b",))),
        (Fraction(1, 4), STOP),
    )
    # Hand-ordered, duplicated branches build the same canonical law.
    eighth = Fraction(1, 8)
    shuffled = Dist(
        [
            (eighth, STOP),
            (eighth, Continue(1, ("a",))),
            (Fraction(1, 2), Continue(2, ("b",))),
            (eighth, STOP),
            (eighth, Continue(1, ("a",))),
        ]
    )
    assert shuffled == dist and shuffled.branches == dist.branches
