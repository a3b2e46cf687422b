"""Round-trip and injectivity of the state codec, and typed state keys."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from amortcheck.encoding import decode, encode, state_key

plain = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-10**6, max_value=10**6)
    | st.text(alphabet='ab"\\x', max_size=6)
    | st.fractions(max_denominator=50),
    lambda inner: st.tuples(inner) | st.tuples(inner, inner) | st.tuples(),
    max_leaves=12,
)


@given(plain)
def test_round_trip(value):
    assert decode(encode(value)) == value


@given(plain, plain)
def test_injective_on_distinct_values(a, b):
    if a != b:
        assert encode(a) != encode(b)


def test_specific_encodings_stay_distinct():
    # int vs string vs fraction look-alikes
    assert encode(1) != encode("1")
    assert encode(Fraction(1, 2)) != encode("1/2")
    assert encode(()) != encode("")
    assert encode((1, 2)) != encode((12,))
    assert encode(True) != encode(1)


def test_decode_rejects_garbage():
    for bad in ["", "z", "i", 't(i1', 's"ab', "i1junk"]:
        with pytest.raises(ValueError):
            decode(bad)


# Few leaves, many of them equal in Python but not under `encode`, so that
# drawn pairs often collide.
lookalike = st.recursive(
    st.sampled_from([0, 1, True, False, Fraction(0), Fraction(1), "1", "", None]),
    lambda inner: st.tuples(inner) | st.tuples(inner, inner) | st.tuples(),
    max_leaves=6,
)


@given(plain | lookalike, plain | lookalike)
def test_state_keys_agree_with_encodings(a, b):
    assert (state_key(a) == state_key(b)) == (encode(a) == encode(b))
    if state_key(a) == state_key(b):
        assert hash(state_key(a)) == hash(state_key(b))


def test_state_key_keeps_hash_equal_values_apart():
    values = [1, True, Fraction(1), (1,), (True,), "1", None, 0, False]
    keys = {state_key(v) for v in values}
    assert len(keys) == len(values)


def test_state_key_of_str_and_int_tuples_is_the_state_itself():
    state = (("a", "b"), (3, ()), "c")
    assert state_key(state) is state
    assert state_key("a") == "a" and state_key(7) == 7
    assert state_key((1, True)) == (1, state_key(True))
