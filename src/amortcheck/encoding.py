"""Deterministic, injective serialization of plain state data.

Every carrier in this package is built from ints, strings, exact rationals
and nested tuples. One shared codec keeps distribution canonicalization and
counterexample reporting consistent: two values get equal encodings exactly
when they are equal with equal types all the way down (subclass values such
as namedtuples included). `state_key` is that typed identity as a hashable
key, mostly without building the text: state deduplication, the Φ table,
`Dist` equality and the observable test of a square (`typed_eq`) read it.

Objects outside the plain universe may participate by exposing
``__encode_parts__() -> tuple`` (used for outcome canonicalization).
"""

from fractions import Fraction
from typing import Any

# Marks keys built from an encoding; no plain value is or contains it.
_TAG = object()


def quote(text: str) -> str:
    """`text` in double quotes, each ``\\`` and ``"`` escaped by a ``\\``."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def encode(value: Any) -> str:
    """Serialize a value deterministically. Injective on the plain universe.

    Types are read exactly, as `state_key` reads them. A float is ``f`` and
    its `repr` (``0.0`` and ``-0.0`` differ, a NaN is itself). A subclass
    value (namedtuple, `IntEnum`) is its type's module-qualified name and
    the plain value beneath, ``<pkg.P>t(i0)``, so types never share one.
    """
    cls = type(value)
    if cls is str:
        return "s" + quote(value)
    if cls is int:
        return f"i{value}"
    if cls is tuple:
        return "t(" + ",".join(map(encode, value)) + ")"
    if value is None:
        return "n"
    if cls is bool:
        return "b1" if value else "b0"
    if cls is float:
        return "f" + repr(value)
    if cls is Fraction:
        return f"q{value.numerator}/{value.denominator}"
    if hasattr(value, "__encode_parts__"):
        return encode(value.__encode_parts__())
    for plain in (int, float, Fraction, str, tuple):
        if isinstance(value, plain):
            return f"<{cls.__module__}.{cls.__qualname__}>{encode(plain(value))}"
    raise TypeError(f"cannot encode value of type {cls.__name__}")


def state_key(value: Any) -> Any:
    """A hashable key that is equal for two values exactly when `encode` is.

    Exact strs and ints are their own keys, and a tuple whose elements are
    all their own keys is its own key too, so most states need no copy (an
    element that is an exact tuple of exact strs and ints is tested inline,
    with no call); any other exact tuple is keyed element by element, each
    element once, so in time linear in its size. Anything else (None,
    bools, floats, rationals, subclass values, ``__encode_parts__`` objects)
    is keyed by its tagged encoding, which keeps ``1``, ``True``, ``1.0``,
    ``Fraction(1)`` and an `IntEnum` 1 apart although they hash and compare
    equal. A value the codec cannot encode raises `TypeError`.
    """
    cls = type(value)
    if cls is str or cls is int:
        return value
    if cls is tuple:
        for v in value:
            t = type(v)
            if t is not str and t is not int:
                if t is tuple:  # a plain inner tuple is its own key: no call
                    for u in v:
                        if type(u) is not str and type(u) is not int:
                            break
                    else:
                        continue
                k = state_key(v)
                if k is not v:  # reuse k: keying v twice is exponential in depth
                    return tuple([k if w is v else state_key(w) for w in value])
        return value
    return (_TAG, encode(value))


def typed_eq(a: Any, b: Any) -> bool:
    """Equal `state_key`s (``True`` is not ``1``), or ``==`` for a value without a key."""
    try:
        return state_key(a) == state_key(b)
    except TypeError:  # a value the codec cannot key
        return a == b
