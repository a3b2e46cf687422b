"""Deterministic, injective serialization of plain state data.

Every carrier in this package is built from ints, strings, exact rationals
and nested tuples. One shared codec keeps distribution canonicalization and
counterexample reporting consistent: two values get equal encodings exactly
when they are equal with equal types all the way down. `state_key` gives
state deduplication the same identity without building the text.

Objects outside the plain universe may participate by exposing
``__encode_parts__() -> tuple`` (used for outcome canonicalization).
"""

from fractions import Fraction
from typing import Any

_STR_ESCAPES = {"\\": "\\\\", '"': '\\"'}

# Marks keys built from an encoding; no plain value is or contains it.
_TAG = object()


def encode(value: Any) -> str:
    """Serialize a value deterministically. Injective on the plain universe."""
    if value is None:
        return "n"
    if isinstance(value, bool):
        return "b1" if value else "b0"
    if isinstance(value, int):
        return f"i{value}"
    if isinstance(value, Fraction):
        return f"q{value.numerator}/{value.denominator}"
    if isinstance(value, str):
        body = "".join(_STR_ESCAPES.get(ch, ch) for ch in value)
        return f's"{body}"'
    if isinstance(value, tuple):
        return "t(" + ",".join(encode(v) for v in value) + ")"
    parts = getattr(value, "__encode_parts__", None)
    if parts is not None:
        return encode(parts())
    raise TypeError(f"cannot encode value of type {type(value).__name__}")


def state_key(value: Any) -> Any:
    """A hashable key that is equal for two values exactly when `encode` is.

    Exact strs and ints are their own keys, and a tuple whose elements are
    all their own keys is its own key too, so most states need no copy.
    Anything else (None, bools, rationals, ``__encode_parts__`` objects) is
    keyed by its tagged encoding, which keeps ``1``, ``True`` and
    ``Fraction(1)`` apart although they hash and compare equal.
    """
    cls = type(value)
    if cls is str or cls is int:
        return value
    if cls is tuple:
        keys = None  # a copy, made at the first element that is not its own key
        for n, v in enumerate(value):
            t = type(v)
            if t is str or t is int:
                continue
            k = state_key(v)
            if k is not v:
                if keys is None:
                    keys = list(value)
                keys[n] = k
        return value if keys is None else tuple(keys)
    return (_TAG, encode(value))

