"""Injectivity of the state codec, typed state keys, and one quoting rule."""

from collections import namedtuple
from enum import IntEnum
from fractions import Fraction

from hypothesis import example, given, strategies as st

from amortcheck.coalgebra import arg_literal
from amortcheck.encoding import encode, state_key

plain = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-10**6, max_value=10**6)
    | st.text(alphabet='ab"\\x', max_size=6)
    | st.fractions(max_denominator=50),
    lambda inner: st.tuples(inner) | st.tuples(inner, inner) | st.tuples(),
    max_leaves=12,
)


def test_specific_encodings_stay_distinct():
    # int vs string vs fraction look-alikes
    assert encode(1) != encode("1")
    assert encode(Fraction(1, 2)) != encode("1/2")
    assert encode(()) != encode("")
    assert encode((1, 2)) != encode((12,))
    assert encode(True) != encode(1)


class One(IntEnum):
    ONE = 1


class Str(str):
    pass


class Float(float):
    pass


P, Q = namedtuple("P", "x"), namedtuple("Q", "x")

# Few leaves, many of them equal in Python but not under `encode`, so that
# drawn pairs often collide: subclass values of the plain types among them.
lookalike = st.recursive(
    st.sampled_from(
        [0, 1, True, False, 1.0, Fraction(0), Fraction(1), "1", "", None]
        + [One.ONE, P(0), Q(0), Str("1"), Float(1.0)]
    ),
    lambda inner: st.tuples(inner)
    | st.tuples(inner, inner)
    | st.tuples()
    | inner.map(P)
    | inner.map(Q),
    max_leaves=6,
)


def _same(a, b):
    """Equal, with equal types all the way down (so 1, True, Fraction(1),
    One.ONE differ, and so do P(0) and Q(0))."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


@given(plain | lookalike, plain | lookalike)
@example(P(0), Q(0))
@example(One.ONE, 1)
def test_injective_on_distinct_values(a, b):
    assert (encode(a) == encode(b)) == _same(a, b)


@given(plain | lookalike, plain | lookalike)
@example(P(0), (0,))
@example(One.ONE, 1)
# Non-plain values inside an inner tuple, each against its plain twin.
@example(((True,), ()), ((1,), ()))
@example((("a", 1.0),), (("a", 1),))
@example(((Fraction(1),),), ((1,),))
@example(((P(0),),), ((Q(0),),))
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


def test_plain_inner_tuples_are_their_own_key():
    # Inner tuples of exact strs and ints are tested inline, nested ones by
    # recursion; either way the state is its own key.
    deque = (("a", "b", "a", "b", "a", "b"), ("b", "b", "a", "a", "b", "a"))
    for state in [((),), ((("a",),), ("b", 3)), deque]:
        assert state_key(state) is state


def test_floats_have_their_own_typed_encoding():
    assert encode(1.0) == "f1.0" and encode(1.0) != encode(1)
    assert state_key(1.0) != state_key(1) and state_key(1.0) != state_key(True)
    assert state_key((1, 1.0)) == (1, state_key(1.0))


def test_state_key_keys_each_element_once(monkeypatch):
    # A nested state with a keyed leaf is keyed in time linear in its size:
    # a level that rebuilds reuses its children's keys, shared ones too.
    import amortcheck.encoding as encoding

    calls = [0]

    def counted(value):
        calls[0] += 1
        assert calls[0] <= 3 * 40, "keyed in more than linear time"
        return state_key(value)

    monkeypatch.setattr(encoding, "state_key", counted)
    cons = shared = None
    for n in range(40):
        cons, shared = (n, cons), (shared, shared)
    key = counted(cons)
    for n in reversed(range(40)):
        assert key[0] == n
        key = key[1]
    assert key == state_key(None)
    calls[0] = 0
    key = counted(shared)
    for _ in range(40):
        assert key[0] is key[1]
        key = key[0]
    assert key == state_key(None)


def test_subclass_values_encode_as_their_type_and_plain_value():
    assert encode(P(0)) == f"<{__name__}.P>t(i0)" and encode(Q(0)) == f"<{__name__}.Q>t(i0)"
    assert encode(One.ONE) == f"<{__name__}.One>i1" and state_key(One.ONE) != state_key(1)
    assert encode(Str("1")) == f'<{__name__}.Str>s"1"'
    assert encode(Float(1.0)) == f"<{__name__}.Float>f1.0"
    assert encode((P("a"), "a")) == "t(" + encode(P("a")) + ',s"a")'


@given(st.text(alphabet='ab"\\x', max_size=8))
def test_strings_are_quoted_one_way(text):
    escaped = "".join({"\\": "\\\\", '"': '\\"'}.get(ch, ch) for ch in text)
    assert encode(text) == "s" + arg_literal(text) == f's"{escaped}"'
